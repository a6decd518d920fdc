//! `parlog-perf` — run the benchmark.
//!
//! ```text
//! parlog-perf --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//! ```
//! runs one pass of one workload in this process and prints, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics for `--trace 0`, per-layer
//! metrics for `--trace 1`).
//!
//! Without `--trace` (and optionally without `--workload`) it runs the
//! timed and then the traced pass of every selected workload, each in a
//! child process of its own so that `setup_s` and `peak_rss_mb` are that
//! workload's alone, `--runs <k>` times, and prints every metric by name
//! with its unit, median, minimum and maximum; the last line is one JSON
//! object holding all of them. `--no-trace` is `--trace 0`.
//! Exits non-zero if any answer was wrong.

use parlog_perf::driver::{json_number, result_json, run, RunArgs};
use parlog_perf::stats::median;
use parlog_perf::{Size, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const DEFAULT_SEED: u64 = 11;
const DEFAULT_SECONDS: f64 = 20.0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    runs: usize,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        runs: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
                }
                cli.workload = Some(w);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--no-trace" => cli.trace = Some(false),
            "--runs" => {
                cli.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if cli.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// `$CARGO_TARGET_DIR/perf`, or `target/perf` under the working directory.
fn trace_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("perf")
}

/// One pass of one workload, in this process.
fn single(workload: &str, cli: &Cli, trace: bool) -> ExitCode {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace,
        size: Size::Full,
        trace_dir: trace.then(trace_dir),
    };
    match run(&args) {
        Ok(r) => {
            println!(
                "{workload} seed={} nproc={} pass={} ops={} (cycle {} ops, checked pass {})",
                cli.seed,
                std::thread::available_parallelism().map_or(0, |n| n.get()),
                if trace { "traced" } else { "timed" },
                r.measured_ops,
                r.expected.len(),
                if r.correct { "ok" } else { "WRONG" }
            );
            for m in &r.metrics {
                println!("  {:<44} {:>16.4} {}", m.name, m.value, m.unit);
            }
            for (name, calls, ns) in &r.spans {
                println!(
                    "  span  {name:<38} {calls:>8} calls {:>12.3} ms",
                    *ns as f64 / 1e6
                );
            }
            for (name, n) in r.counts.iter() {
                println!("  count {name:<38} {n:>16}");
            }
            println!("{}", result_json(&r));
            if r.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("parlog-perf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The parts of a child's result line the summary needs.
struct Parsed {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

/// Parse the result line this program itself prints (see
/// [`result_json`]); not a general JSON reader.
fn parse_result(line: &str) -> Option<Parsed> {
    let after = |key: &str| line.find(key).map(|i| &line[i + key.len()..]);
    let number = |s: &str| -> Option<f64> {
        let end = s.find([',', '}']).unwrap_or(s.len());
        s[..end].trim().parse().ok()
    };
    let mut metrics = Vec::new();
    let mut rest = after("\"metrics\": {")?;
    while let Some(start) = rest.find('"') {
        let tail = &rest[start + 1..];
        let name = &tail[..tail.find('"')?];
        let tail = &tail[name.len()..];
        let value = number(tail.strip_prefix("\": {\"value\": ")?)?;
        let unit_at = tail.find("\"unit\": \"")? + 9;
        let unit = &tail[unit_at..unit_at + tail[unit_at..].find('"')?];
        metrics.push((name.to_string(), value, unit.to_string()));
        rest = &tail[unit_at + unit.len() + 1..];
    }
    Some(Parsed {
        correct: after("\"correct\": ")?.starts_with("true"),
        attempted: number(after("\"attempted\": ")?)? as u64,
        failed: number(after("\"failed\": ")?)? as u64,
        metrics,
    })
}

/// Run one pass in a child process of this executable and parse the last
/// line it prints. The child is waited for before this returns.
fn child(workload: &str, cli: &Cli, trace: bool) -> Result<Parsed, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {workload} pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    parse_result(last).ok_or(format!(
        "the {workload} pass (trace {}) exited with {} and no result line",
        trace as u8, out.status
    ))
}

/// Every selected workload, timed then traced, `runs` times each.
fn summary(cli: &Cli) -> ExitCode {
    let selected: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let passes: &[bool] = match cli.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let mut all_correct = true;
    let mut json_workloads = Vec::new();
    for w in selected {
        let (mut attempted, mut failed) = (0, 0);
        let mut json_metrics = Vec::new();
        for &trace in passes {
            // values[m] = that metric's value in each run.
            let mut names: Vec<(String, String)> = Vec::new();
            let mut values: Vec<Vec<f64>> = Vec::new();
            for _ in 0..cli.runs {
                let r = match child(w, cli, trace) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("parlog-perf: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                all_correct &= r.correct;
                attempted += r.attempted;
                failed += r.failed;
                if names.is_empty() {
                    names = r
                        .metrics
                        .iter()
                        .map(|m| (m.0.clone(), m.2.clone()))
                        .collect();
                    values = vec![Vec::new(); names.len()];
                }
                for (slot, m) in values.iter_mut().zip(&r.metrics) {
                    slot.push(m.1);
                }
            }
            println!(
                "{w} — {} pass, seed {}, {} s, {} run(s)",
                if trace { "traced" } else { "timed" },
                cli.seed,
                cli.seconds,
                cli.runs
            );
            for ((name, unit), v) in names.iter().zip(&values) {
                let (lo, hi) = v
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                        (lo.min(x), hi.max(x))
                    });
                let med = median(v);
                println!(
                    "  {name:<44} {med:>16.4} {unit:<6} [min {lo:.4}, max {hi:.4}, n {}]",
                    v.len()
                );
                json_metrics.push(format!(
                    "\"{name}\": {{\"value\": {}, \"min\": {}, \"max\": {}, \"unit\": \"{unit}\"}}",
                    json_number(med),
                    json_number(lo),
                    json_number(hi)
                ));
            }
        }
        println!(
            "  {:<44} {:>16.6} share  [{failed} of {attempted}]",
            "failed_share",
            failed as f64 / attempted.max(1) as f64
        );
        json_workloads.push(format!(
            "\"{w}\": {{\"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            json_metrics.join(", ")
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"correct\": {all_correct}, \"seed\": {}, \"seconds\": {}, \"runs\": {}, \"nproc\": {nproc}, \"profile\": \"{}\", \"workloads\": {{{}}}}}",
        cli.seed,
        json_number(cli.seconds),
        cli.runs,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        json_workloads.join(", ")
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("parlog-perf: {e}");
            return ExitCode::FAILURE;
        }
    };
    match (&cli.workload, cli.trace) {
        (Some(w), Some(trace)) if cli.runs == 1 => single(w, &cli, trace),
        _ => summary(&cli),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlog_perf::driver::{Metric, RunResult};
    use parlog_perf::stats::Tally;

    #[test]
    fn the_summary_reads_back_the_line_a_pass_prints() {
        let metric = |name: &str, value, unit| Metric {
            name: name.to_string(),
            value,
            unit,
        };
        let r = RunResult {
            correct: true,
            tally: Tally {
                attempted: 1234,
                failed: 5,
            },
            metrics: vec![
                metric("setup_s", 0.4851, "s"),
                metric("throughput_ops_s", 3274.844434348463, "1/s"),
                metric("serve.kind.path2.p50_us", 0.0, "us"),
            ],
            counts: Default::default(),
            expected: Vec::new(),
            measured_ops: 0,
            spans: Vec::new(),
        };
        let p = parse_result(&result_json(&r)).expect("own format");
        assert!(p.correct);
        assert_eq!((p.attempted, p.failed), (1234, 5));
        let want: Vec<(String, f64, String)> = r
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.value, m.unit.to_string()))
            .collect();
        assert_eq!(p.metrics, want);
        assert!(parse_result("not a result").is_none());
    }
}
