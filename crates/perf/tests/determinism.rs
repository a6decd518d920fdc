//! The count section is deterministic: with a fixed seed, every exact
//! counter and every operation's `(kind, lag, rows)` is identical across
//! two runs of the scaled-down spec. (No comparison with a committed
//! record — the numbers may move when the program does; they may not
//! move between two runs of the same program.)

use parlog_perf::driver::{checked, result_json, run, RunArgs};
use parlog_perf::metrics::{end_to_end, per_layer};
use parlog_perf::{Size, WORKLOADS};

#[test]
fn counts_and_outcomes_repeat_exactly() {
    for w in WORKLOADS {
        let a = checked(w, 7, Size::Small).expect("known workload");
        let b = checked(w, 7, Size::Small).expect("known workload");
        assert_eq!(
            a.tally.failed, 0,
            "{w}: the checked pass found a wrong answer"
        );
        assert_eq!(a.expected, b.expected, "{w}: outcomes differ between runs");
        assert_eq!(
            a.counts, b.counts,
            "{w}: exact counters differ between runs"
        );
        assert!(a.counts.iter().count() > 0, "{w}: no counters collected");
        assert_eq!(a.tally.attempted, a.expected.len() as u64);
    }
}

#[test]
fn another_seed_is_also_correct_and_is_another_stream() {
    for w in WORKLOADS {
        let a = checked(w, 7, Size::Small).expect("known workload");
        let c = checked(w, 8, Size::Small).expect("known workload");
        assert_eq!(c.tally.failed, 0, "{w}: seed 8 found a wrong answer");
        assert_eq!(
            a.expected.len(),
            c.expected.len(),
            "{w}: cycle length is seed-free"
        );
    }
    // The request order of the serving mix is the seed's.
    let a = checked("serve_mix", 7, Size::Small).expect("known workload");
    let c = checked("serve_mix", 8, Size::Small).expect("known workload");
    assert_ne!(a.expected, c.expected);
}

#[test]
fn traced_pass_reports_every_per_layer_metric() {
    let dir = std::env::temp_dir().join(format!("parlog-perf-test-{}", std::process::id()));
    for w in WORKLOADS {
        let r = run(&RunArgs {
            workload: w.to_string(),
            seed: 7,
            seconds: 0.4,
            trace: true,
            size: Size::Small,
            trace_dir: Some(dir.clone()),
        })
        .expect("traced pass");
        assert!(r.correct, "{w}");
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
        assert_eq!(
            names, want,
            "{w}: the result lists exactly the per-layer table"
        );
        assert!(r.metrics.iter().all(|m| m.value.is_finite()), "{w}");
        assert!(
            r.metrics
                .iter()
                .any(|m| m.value != 0.0 && m.name != "trace_overhead_share"),
            "{w}: no layer measured"
        );
        let trace =
            std::fs::read_to_string(dir.join(format!("{w}.trace.json"))).expect("trace file");
        assert!(trace.starts_with(&format!("{{\"workload\":\"{w}\"")));
        assert!(trace.contains("\"parent\":"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn timed_pass_reports_every_end_to_end_metric_or_refuses() {
    let args = |seconds| RunArgs {
        workload: "serve_mix".to_string(),
        seed: 7,
        seconds,
        trace: false,
        size: Size::Small,
        trace_dir: None,
    };
    let r = run(&args(1.5)).expect("timed pass");
    assert!(r.correct);
    let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
    let want: Vec<String> = end_to_end().into_iter().map(|m| m.0.name).collect();
    assert_eq!(names, want);
    assert!(
        r.metrics.iter().all(|m| m.value > 0.0),
        "end-to-end metrics are never 0"
    );
    let line = result_json(&r);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(!line.contains('\n'));
    // Too short a pass for ten samples beyond p90: refused, not guessed.
    let e = run(&args(1e-6)).expect_err("one operation cannot carry a p90");
    assert!(e.contains("run longer"), "{e}");
    assert!(run(&RunArgs {
        workload: "nope".into(),
        ..args(1.0)
    })
    .is_err());
}
