//! The metric tables: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` lists exactly these (a test checks it).

use crate::{join_local, mpc_shuffle, serve_mix};

/// One metric's static description.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// The printed name.
    pub name: String,
    /// The printed unit.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
}

fn def(name: impl Into<String>, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        higher_is_better,
    }
}

/// End-to-end metrics, reported by every workload from the timed pass
/// (tracing off), with the regression bound `BENCHMARK.json` carries.
///
/// The bounds are wide because the host is not quiet: an otherwise idle
/// 2-core VM ran a fixed spin loop between 273 and 407 iterations per
/// second over 90 s, and two ten-seed sets of `mpc_shuffle` half an hour
/// apart had medians 18.5 and 14.7 jobs/s (quartile spreads 1.5 % and
/// 15.8 %). Peak RSS does not feel that, but a 17 MiB process moves by
/// ±1 MiB with the seed (6.8–7.7 % spread on `view_churn`), so it gets
/// the same bound.
pub fn end_to_end() -> Vec<(MetricDef, f64)> {
    vec![
        (def("setup_s", "s", false), 0.25),
        (def("throughput_ops_s", "1/s", true), 0.25),
        (def("latency_p50_us", "us", false), 0.25),
        (def("latency_p90_us", "us", false), 0.25),
        (def("peak_rss_mb", "MiB", false), 0.25),
    ]
}

/// Per-layer metrics that are the mean duration of one span name, in
/// microseconds, divided by `per` (units of work per call): `(metric,
/// span, per)`. The driver fills these in for whichever workload
/// recorded the span; the workloads add what needs more than a mean.
pub const SPAN_MEANS: &[(&str, &str, f64)] = &[
    ("relal.parser.parse_us", "relal.parser.parse", 1.0),
    ("serve.plan.analyze_us", "serve.plan.analyze", 1.0),
    ("serve.admission.admit_us", "serve.admission.admit", 1.0),
    ("relal.snapshot.pin_us", "relal.snapshot.pin", 1.0),
    (
        "relal.snapshot.pin_if_newer_us",
        "relal.snapshot.pin_if_newer",
        1.0,
    ),
    ("serve.plan.hit_us", "serve.plan.hit", 1.0),
    ("serve.plan.miss_us", "serve.plan.miss", 1.0),
    ("datalog.eval.scratch_us", "datalog.eval.scratch", 1.0),
    ("serve.view.frozen_hit_us", "serve.view.frozen_hit", 1.0),
    // The lookup probe times a whole 8-fact batch.
    ("relal.instance.contains_us", "relal.instance.contains", 8.0),
    ("serve.compact.merge_us", "serve.compact.merge", 1.0),
    ("serve.compact.install_us", "serve.compact.install", 1.0),
    (
        "datalog.maintain.refresh_insert_us",
        "datalog.maintain.refresh_insert",
        1.0,
    ),
    (
        "datalog.maintain.refresh_retract_us",
        "datalog.maintain.refresh_retract",
        1.0,
    ),
    ("mpc.shares.plan_us", "mpc.shares.plan", 1.0),
    ("mpc.skew_rounds.plan_us", "mpc.skew_rounds.plan", 1.0),
    (
        "verify.certificate.prove_us",
        "verify.certificate.prove",
        1.0,
    ),
    ("verify.checker.check_us", "verify.checker.check", 1.0),
    ("mpc.cluster.union_us", "mpc.cluster.union", 1.0),
];

/// Per-layer metrics, reported from the traced pass. A workload that
/// does not exercise a layer reports that layer's metrics as 0.
pub fn per_layer() -> Vec<MetricDef> {
    let us = |n: &str| def(n, "us", false);
    let count = |n: &str| def(n, "count", false);
    let ratio = |n: &str, up: bool| def(n, "ratio", up);
    let share = |n: &str| def(n, "share", false);
    let mut m = vec![
        share("trace_overhead_share"),
        // serve_mix
        us("relal.parser.parse_us"),
        us("serve.plan.analyze_us"),
        count("serve.plan.analysis_misses"),
        us("serve.admission.admit_us"),
        us("relal.snapshot.pin_us"),
        us("relal.snapshot.pin_if_newer_us"),
        us("serve.plan.hit_us"),
        us("serve.plan.miss_us"),
        ratio("serve.plan.hit_rate", true),
        ratio("serve.plan.miss_vs_hit_ratio", false),
        us("serve.server.self_us"),
        count("serve.server.refusals"),
        count("relal.eval.ops_per_req"),
        us("relal.eval.us_per_kop"),
        us("datalog.eval.scratch_us"),
        us("serve.view.frozen_hit_us"),
        ratio("serve.view.scratch_vs_frozen_ratio", false),
        ratio("serve.reader_scaling_2", true),
        us("serve.latency_p99_us"),
    ];
    for k in serve_mix::KINDS {
        m.push(us(&format!("serve.kind.{k}.p50_us")));
        m.push(share(&format!("serve.kind.{k}.time_share")));
    }
    m.extend([
        // view_churn
        us("relal.instance.mutate_us_per_fact"),
        us("relal.instance.contains_us"),
        us("datalog.maintain.refresh_insert_us"),
        us("datalog.maintain.refresh_retract_us"),
        count("datalog.maintain.refresh_ops"),
        count("datalog.maintain.full_rebuilds"),
        ratio("datalog.maintain.scratch_vs_refresh_ratio", true),
        us("relal.snapshot.publish_us"),
        us("serve.view.read_after_publish_us"),
        us("serve.compact.merge_us"),
        us("serve.compact.install_us"),
        def("serve.compact.installed", "count", true),
        count("serve.compact.discarded"),
        count("relal.lsm.runs_max"),
        count("relal.lsm.tombstones_max"),
        count("relal.trie.builds"),
        // join_local
        us("relal.instance.insert_us_per_fact"),
        us("relal.trie.build_us_per_fact"),
    ]);
    for c in join_local::CASES {
        m.push(us(&format!("relal.case.{c}.p50_us")));
    }
    m.extend([
        us("relal.eval.us_per_seek"),
        us("relal.eval.us_per_row_out"),
        count("relal.eval.wcoj.ops"),
        ratio("relal.eval.wcoj.ops_vs_agm", false),
        ratio("relal.eval.wcoj_vs_indexed_ratio", false),
        // mpc_shuffle
        us("mpc.shares.plan_us"),
        us("mpc.skew_rounds.plan_us"),
        us("mpc.partition.seed_us_per_fact"),
        us("mpc.cluster.communicate_us_per_delivery"),
        share("mpc.cluster.communicate_share"),
        count("mpc.cluster.total_comm"),
        count("mpc.cluster.max_load"),
        ratio("mpc.cluster.replication", false),
        ratio("mpc.cluster.comm_us_growth_exponent", false),
        us("mpc.cluster.compute_us"),
        share("mpc.cluster.compute_share"),
        us("mpc.cluster.union_us"),
        ratio("mpc.cluster.par2_speedup", true),
    ]);
    for k in mpc_shuffle::KINDS {
        m.push(us(&format!("mpc.job.{k}.p50_us")));
    }
    m.extend([
        ratio("mpc.skew_rounds.load_ratio", false),
        ratio("mpc.hypercube.load_ratio", false),
        count("mpc.gym.rounds"),
        ratio("mpc.load_ratio_max", false),
        us("verify.certificate.prove_us"),
        us("verify.checker.check_us"),
        def("verify.certificate.bytes_per_row", "B/row", false),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_legal_unique_and_within_the_contract() {
        let mut names: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
        names.extend(end_to_end().into_iter().map(|m| m.0.name));
        assert!(names.iter().all(|n| legal(n)), "illegal metric name");
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        assert!(per_layer().len() <= 128);
        assert!(end_to_end().iter().all(|(_, b)| *b <= 0.25));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json = include_str!("../../../BENCHMARK.json");
        for m in per_layer() {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                }
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (m, bound) in end_to_end() {
            let entry =
                format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                m.name,
                m.unit,
                if m.higher_is_better { "higher" } else { "lower" }
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("{\"name\": ").count();
        assert_eq!(
            listed,
            per_layer().len() + end_to_end().len() + crate::WORKLOADS.len(),
            "BENCHMARK.json lists a metric or workload the code does not know"
        );
    }
}
