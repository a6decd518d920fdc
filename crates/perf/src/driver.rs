//! One run of one workload: set-up, checked pass, then the timed or the
//! traced pass, on one driver thread.

use crate::metrics::{end_to_end, per_layer, SPAN_MEANS};
use crate::stats::{median, peak_rss_mib, percentile, Tally};
use crate::trace::{mean_us, Tracer};
use crate::{with_workload, Counts, Cx, Outcome, Size, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name (one of [`crate::WORKLOADS`]).
    pub workload: String,
    /// Seed of every generator.
    pub seed: u64,
    /// Length of the timed pass (or of the traced pass's two segments
    /// together with its probes).
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the timed pass
    /// (end-to-end metrics).
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Where to write `<workload>.trace.json` after a traced pass.
    pub trace_dir: Option<PathBuf>,
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// No answer differed from the oracle or from the checked pass.
    pub correct: bool,
    /// Operations attempted and failed, checked pass included.
    pub tally: Tally,
    /// End-to-end metrics (timed pass) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Exact counters of the checked pass.
    pub counts: Counts,
    /// Outcomes of the checked pass, one per cycle position.
    pub expected: Vec<Outcome>,
    /// Operations the timed (or traced) pass completed.
    pub measured_ops: u64,
    /// Traced pass: calls and total nanoseconds per span name.
    pub spans: Vec<(&'static str, u64, u64)>,
}

/// How many times the set-up is run (the reported `setup_s` is the
/// median), chosen from the first set-up's duration in coarse steps so
/// that about two and a half seconds go into it and — a process's peak
/// RSS depends on how often it built and dropped its state — the count is
/// the same on every run of a workload.
fn setup_reps(first: Duration) -> usize {
    match first.as_millis() {
        0..=49 => 25,
        50..=249 => 9,
        250..=799 => 5,
        _ => 3,
    }
}

/// Run one operation, turning a panic into a failed outcome.
fn guarded_step(w: &mut dyn Workload, i: u64, cx: &mut Cx) -> Outcome {
    catch_unwind(AssertUnwindSafe(|| w.step(i, cx))).unwrap_or(Outcome {
        kind: u8::MAX,
        lag: 0,
        rows: 0,
        ok: false,
    })
}

/// Run operations from `*next` on until `budget` has elapsed; returns
/// each operation's outcome and latency (ns).
fn timed_segment(
    w: &mut dyn Workload,
    cx: &mut Cx,
    next: &mut u64,
    budget: Duration,
) -> Vec<(Outcome, u64)> {
    let mut done = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget {
        cx.tracer.set_op(*next);
        let t = Instant::now();
        let out = guarded_step(w, *next, cx);
        done.push((out, t.elapsed().as_nanos() as u64));
        *next += 1;
    }
    done
}

/// Operations per second as the median over whole slices (see
/// [`Workload::slice_len`]) of `slice_len ÷ slice time`: a stall of the
/// host slows a few slices, not the median. Falls back to the plain
/// ratio when fewer than five whole slices were run.
fn throughput(done: &[(Outcome, u64)], first_op: u64, slice: u64) -> f64 {
    let plain = || done.len() as f64 / (done.iter().map(|d| d.1).sum::<u64>() as f64 / 1e9);
    // Skip to the first slice boundary.
    let skip = ((slice - first_op % slice) % slice) as usize;
    let rates: Vec<f64> = done
        .get(skip..)
        .unwrap_or(&[])
        .chunks_exact(slice as usize)
        .map(|c| slice as f64 / (c.iter().map(|d| d.1).sum::<u64>() as f64 / 1e9))
        .collect();
    if rates.len() < 5 {
        plain()
    } else {
        median(&rates)
    }
}

/// The checked pass: exactly one cycle from `*next` on, every answer
/// verified, exact counters collected. Returns the outcomes indexed by
/// cycle position.
fn checked_pass(
    w: &mut dyn Workload,
    cx: &mut Cx,
    next: &mut u64,
    tally: &mut Tally,
) -> Vec<Outcome> {
    let tracer = std::mem::replace(&mut cx.tracer, Tracer::off());
    cx.check = true;
    let mut before = Counts::default();
    w.levels(&mut before);
    let len = w.cycle_len();
    let mut expected = vec![None; len as usize];
    for _ in 0..len {
        let out = guarded_step(w, *next, cx);
        tally.record(!out.ok);
        expected[(*next % len) as usize] = Some(out);
        *next += 1;
    }
    let mut after = Counts::default();
    w.levels(&mut after);
    for (name, level) in after.iter() {
        cx.counts.set(name, level - before.get(name));
    }
    cx.check = false;
    cx.tracer = tracer;
    expected
        .into_iter()
        .map(|o| o.expect("every position visited"))
        .collect()
}

/// Count the measured operations whose outcome differs from the checked
/// pass's at the same cycle position.
fn compare(done: &[(Outcome, u64)], first_op: u64, expected: &[Outcome], tally: &mut Tally) {
    for (k, (out, _)) in done.iter().enumerate() {
        let pos = (first_op + k as u64) % expected.len() as u64;
        tally.record(*out != expected[pos as usize]);
    }
}

/// What the checked pass alone yields.
#[derive(Debug, Clone)]
pub struct Checked {
    /// Outcomes, one per cycle position.
    pub expected: Vec<Outcome>,
    /// Exact counters.
    pub counts: Counts,
    /// Operations attempted and failed.
    pub tally: Tally,
}

/// Set `workload` up and run only its checked pass — the deterministic
/// part of a run. `None` for an unknown workload.
pub fn checked(workload: &str, seed: u64, size: Size) -> Option<Checked> {
    let mut cx = Cx::new(Tracer::off());
    with_workload(workload, seed, size, &mut cx, |w, cx| {
        let mut tally = Tally::default();
        let expected = checked_pass(w, cx, &mut 0, &mut tally);
        Checked {
            expected,
            counts: cx.counts.clone(),
            tally,
        }
    })
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Run `args.workload` once. `Err` for an unknown workload or a pass too
/// short for the percentiles it must report.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let unknown = || format!("unknown workload {:?}", args.workload);
    let budget = Duration::from_secs_f64(args.seconds);

    // Set-up, repeated (timed pass only): each repetition is everything
    // from nothing to a workload ready for its first operation.
    let mut setups: Vec<f64> = Vec::new();
    if !args.trace {
        let mut reps = 2;
        while setups.len() + 1 < reps {
            let t0 = Instant::now();
            let mut cx = Cx::new(Tracer::off());
            with_workload(&args.workload, args.seed, args.size, &mut cx, |_, _| {
                setups.push(t0.elapsed().as_secs_f64());
            })
            .ok_or_else(unknown)?;
            reps = setup_reps(Duration::from_secs_f64(setups[0]));
        }
    }

    let t0 = Instant::now();
    let mut cx = Cx::new(if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    });
    with_workload(&args.workload, args.seed, args.size, &mut cx, |w, cx| {
        setups.push(t0.elapsed().as_secs_f64());
        let mut tally = Tally::default();
        let mut next = 0;
        let mut metrics: Vec<Metric> = Vec::new();
        let measured_ops;
        let expected;

        // The measured pass comes first and the checked pass after it, so
        // that `peak_rss_mb` is the program's own and not the oracle's;
        // the state is cyclic, so outcomes are compared by cycle position.
        if !args.trace {
            let done = timed_segment(w, cx, &mut next, budget);
            let rss = peak_rss_mib().unwrap_or(0.0);
            measured_ops = done.len() as u64;
            let mut lat: Vec<u64> = done.iter().map(|d| d.1).collect();
            lat.sort_unstable();
            let p50 = percentile(&lat, 500).map_err(|e| e.to_string())?;
            let p90 = percentile(&lat, 900).map_err(|e| e.to_string())?;
            let values = [
                median(&setups),
                throughput(&done, 0, w.slice_len()),
                us(p50),
                us(p90),
                rss,
            ];
            for ((def, _), value) in end_to_end().into_iter().zip(values) {
                metrics.push(Metric {
                    name: def.name,
                    value,
                    unit: def.unit,
                });
            }
            expected = checked_pass(w, cx, &mut next, &mut tally);
            compare(&done, 0, &expected, &mut tally);
        } else {
            // A quarter untraced (the overhead baseline), half traced;
            // the rest is left for the workload's probes.
            let tracer = std::mem::replace(&mut cx.tracer, Tracer::off());
            let base = timed_segment(w, cx, &mut next, budget / 4);
            cx.tracer = tracer;
            let first_traced = next;
            let traced = timed_segment(w, cx, &mut next, budget / 2);
            measured_ops = traced.len() as u64;
            let slice = w.slice_len();
            let untraced_rate = throughput(&base, 0, slice);
            let traced_rate = throughput(&traced, first_traced, slice);
            expected = checked_pass(w, cx, &mut next, &mut tally);
            compare(&base, 0, &expected, &mut tally);
            compare(&traced, first_traced, &expected, &mut tally);
            let workload_layers = w.layer_metrics(cx);
            let spans = cx.tracer.spans();
            let mut layers: Vec<(String, f64)> = SPAN_MEANS
                .iter()
                .map(|(metric, span, per)| (metric.to_string(), mean_us(spans, span) / per))
                .collect();
            layers.extend(workload_layers);
            layers.push((
                "trace_overhead_share".to_string(),
                1.0 - traced_rate / untraced_rate,
            ));
            for def in per_layer() {
                let value = layers
                    .iter()
                    .rfind(|(n, _)| *n == def.name)
                    .map_or(0.0, |(_, v)| *v);
                metrics.push(Metric {
                    name: def.name,
                    value,
                    unit: def.unit,
                });
            }
            debug_assert!(
                layers
                    .iter()
                    .all(|(n, _)| metrics.iter().any(|m| m.name == *n)),
                "a workload reported a metric the table lacks"
            );
            if let Some(dir) = &args.trace_dir {
                let path = dir.join(format!("{}.trace.json", args.workload));
                std::fs::create_dir_all(dir)
                    .and_then(|_| std::fs::write(&path, cx.tracer.to_json(&args.workload)))
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
            }
        }
        Ok(RunResult {
            correct: tally.failed == 0,
            tally,
            metrics,
            counts: cx.counts.clone(),
            expected,
            measured_ops,
            spans: crate::trace::summary(cx.tracer.spans()),
        })
    })
    .ok_or_else(unknown)?
}

/// The contract's result line: `correct`, `attempted`, `failed` and the
/// metrics with value and unit.
pub fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.tally.attempted,
        r.tally.failed,
        metrics.join(", ")
    )
}

/// A finite JSON number with every digit measured.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
