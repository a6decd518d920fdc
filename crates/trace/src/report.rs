//! Two-section report export.
//!
//! [`TraceReport`] is the **deterministic** section — virtual clocks,
//! load histograms, counters, timeline. For a deterministic workload it
//! is byte-identical across reruns *and across thread counts*, so a
//! committed record can be compared with it verbatim. [`WallReport`] is the
//! **wall-clock** section — machine-dependent span timings, segregated
//! here so they never leak into the deterministic bytes.

use crate::sink::MemSink;
use crate::{CommCounters, FaultEvent, Phase};

/// One component of a skew-aware (heavy/light decomposed) load bound:
/// a residual sub-query over its own server block, bounded by the
/// finite-size skew-free guarantee `m / servers^exponent + atoms ×
/// light_freq` — the balanced share plus the heaviest single value the
/// component's hashing must absorb, once per body atom.
#[derive(Debug, Clone, serde::Serialize)]
pub struct LoadBoundPart {
    /// Human-readable heavy-pattern label (`"light"`, `"y=7"`, …).
    pub pattern: String,
    /// Facts consistent with the pattern (the residual input size).
    pub m: usize,
    /// Servers in the pattern's block.
    pub servers: usize,
    /// The residual load exponent `1/τ*` of the residual query.
    pub exponent: f64,
    /// The heaviest frequency among values the pattern leaves *light*
    /// — every hash bucket must be able to hold one such value whole.
    pub light_freq: usize,
    /// `m / servers^exponent + atoms × light_freq`.
    pub predicted: f64,
}

/// The theoretical per-server load `m / p^{1/τ*}` the histograms are
/// compared against (`1/τ*` from the optimal fractional edge packing).
///
/// The **skew-aware** form ([`LoadBound::skew`]) carries one
/// [`LoadBoundPart`] per heavy/light residual sub-query; its `predicted`
/// is the worst component — the `m/p^{1/ρ*}`-style bound of the
/// Beame–Koutris–Suciu heavy/light decomposition, against which the
/// skew-adaptive multi-round engine is machine-checked (E26).
#[derive(Debug, Clone, serde::Serialize)]
pub struct LoadBound {
    /// Input size.
    pub m: usize,
    /// Number of servers.
    pub p: usize,
    /// The load exponent `1/τ*` (effective exponent for skew bounds).
    pub exponent: f64,
    /// `m / p^exponent` (for skew bounds: the worst component).
    pub predicted: f64,
    /// Heavy/light decomposition of the bound, when skew-aware.
    pub components: Option<Vec<LoadBoundPart>>,
}

impl LoadBound {
    /// Build the bound from `m`, `p` and the packing exponent `1/τ*`.
    pub fn new(m: usize, p: usize, exponent: f64) -> LoadBound {
        LoadBound {
            m,
            p,
            exponent,
            predicted: m as f64 / (p as f64).powf(exponent),
            components: None,
        }
    }

    /// Build a skew-aware bound from heavy/light components: the
    /// predicted load is the worst residual's `m_i / B_i^{1/τ*_i}`, and
    /// the recorded exponent is the *effective* one it implies for the
    /// whole input (`predicted = m / p^exponent`).
    pub fn skew(m: usize, p: usize, components: Vec<LoadBoundPart>) -> LoadBound {
        let predicted = components
            .iter()
            .map(|c| c.predicted)
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        let exponent = if m == 0 || p <= 1 {
            0.0
        } else {
            (m as f64 / predicted).ln() / (p as f64).ln()
        };
        LoadBound {
            m,
            p,
            exponent,
            predicted,
            components: Some(components),
        }
    }
}

/// One round's load histogram with its balance ratios.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct RoundLoadReport {
    /// Round index.
    pub round: usize,
    /// Number of servers.
    pub servers: usize,
    /// `Σ received` — the round's total communication.
    pub total: usize,
    /// Smallest per-server load.
    pub min: usize,
    /// Median per-server load (nearest-rank).
    pub p50: usize,
    /// 95th-percentile per-server load (nearest-rank).
    pub p95: usize,
    /// Largest per-server load.
    pub max: usize,
    /// `max / mean` — 1.0 is perfect balance.
    pub balance: f64,
    /// `max / bound.predicted`, `null` when no bound is configured.
    pub max_over_bound: Option<f64>,
}

/// A phase span on the virtual clock only.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct SpanReport {
    /// Round index.
    pub round: usize,
    /// Which phase.
    pub phase: Phase,
    /// Virtual-clock start.
    pub vstart: f64,
    /// Virtual-clock end.
    pub vend: f64,
}

/// A phase span's wall-clock measurement.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct WallSpan {
    /// Round index.
    pub round: usize,
    /// Which phase.
    pub phase: Phase,
    /// Measured wall-clock duration in nanoseconds.
    pub wall_ns: u64,
}

/// The deterministic report section.
#[derive(Debug, Clone, serde::Serialize)]
pub struct TraceReport {
    /// The bound the histograms are compared against, when configured.
    pub bound: Option<LoadBound>,
    /// Per-round load histograms with balance ratios.
    pub rounds: Vec<RoundLoadReport>,
    /// Phase spans on the virtual clock.
    pub spans: Vec<SpanReport>,
    /// Accumulated message counters.
    pub comm: CommCounters,
    /// The fault / supervisor-decision timeline, in record order.
    pub timeline: Vec<FaultEvent>,
    /// Maximum per-server load over all rounds.
    pub max_load: usize,
    /// Total communication over all rounds (`Σ` of round totals).
    pub total_comm: usize,
    /// `max_load / bound.predicted` when a bound is configured.
    pub max_over_bound: Option<f64>,
}

/// The wall-clock report section — machine-dependent, kept out of
/// [`TraceReport`] so double-run diffs stay byte-identical.
#[derive(Debug, Clone, serde::Serialize)]
pub struct WallReport {
    /// Spans that were actually timed (tracing on during the phase).
    pub spans: Vec<WallSpan>,
    /// Sum of measured nanoseconds.
    pub total_ns: u64,
}

impl MemSink {
    /// Export the deterministic section, comparing every histogram
    /// against `bound` when one is given.
    pub fn report_with_bound(&self, bound: Option<LoadBound>) -> TraceReport {
        let d = self.data.lock();
        let rounds: Vec<RoundLoadReport> = d
            .rounds
            .iter()
            .map(|r| {
                let mean = if r.servers == 0 {
                    0.0
                } else {
                    r.total as f64 / r.servers as f64
                };
                RoundLoadReport {
                    round: r.round,
                    servers: r.servers,
                    total: r.total,
                    min: r.min,
                    p50: r.p50,
                    p95: r.p95,
                    max: r.max,
                    balance: if mean > 0.0 { r.max as f64 / mean } else { 1.0 },
                    max_over_bound: bound
                        .as_ref()
                        .map(|b| r.max as f64 / b.predicted.max(f64::MIN_POSITIVE)),
                }
            })
            .collect();
        let spans: Vec<SpanReport> = d
            .spans
            .iter()
            .map(|s| SpanReport {
                round: s.round,
                phase: s.phase,
                vstart: s.vstart,
                vend: s.vend,
            })
            .collect();
        let max_load = d.rounds.iter().map(|r| r.max).max().unwrap_or(0);
        let total_comm = d.rounds.iter().map(|r| r.total).sum();
        let max_over_bound = bound
            .as_ref()
            .map(|b| max_load as f64 / b.predicted.max(f64::MIN_POSITIVE));
        TraceReport {
            bound,
            rounds,
            spans,
            comm: d.comm,
            timeline: d.timeline.clone(),
            max_load,
            total_comm,
            max_over_bound,
        }
    }

    /// [`MemSink::report_with_bound`] without a bound.
    pub fn report(&self) -> TraceReport {
        self.report_with_bound(None)
    }

    /// Export the segregated wall-clock section.
    pub fn wall_report(&self) -> WallReport {
        let d = self.data.lock();
        let spans: Vec<WallSpan> = d
            .spans
            .iter()
            .filter_map(|s| {
                s.wall_ns.map(|wall_ns| WallSpan {
                    round: s.round,
                    phase: s.phase,
                    wall_ns,
                })
            })
            .collect();
        let total_ns = spans.iter().map(|s| s.wall_ns).sum();
        WallReport { spans, total_ns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Span, TraceEvent, TraceHandle};
    use std::sync::Arc;

    fn spanned_sink() -> Arc<MemSink> {
        let sink = Arc::new(MemSink::new());
        let h = TraceHandle::to(sink.clone());
        h.record(TraceEvent::Loads {
            round: 0,
            received: &[3, 5, 4, 4],
        });
        h.record(TraceEvent::Phase(Span {
            round: 0,
            phase: Phase::Communication,
            vstart: 0.0,
            vend: 5.0,
            wall_ns: Some(1234),
        }));
        h.record(TraceEvent::Phase(Span {
            round: 0,
            phase: Phase::Barrier,
            vstart: 5.0,
            vend: 5.0,
            wall_ns: None,
        }));
        h.record(TraceEvent::Loads {
            round: 1,
            received: &[2, 2, 2, 2],
        });
        sink
    }

    #[test]
    fn report_totals_cover_all_rounds() {
        let sink = spanned_sink();
        let r = sink.report();
        assert_eq!(r.rounds.len(), 2);
        assert_eq!(r.max_load, 5);
        assert_eq!(r.total_comm, 16 + 8);
        assert!(r.bound.is_none());
        assert!(r.max_over_bound.is_none());
        assert!((r.rounds[0].balance - 5.0 / 4.0).abs() < 1e-9);
        assert!((r.rounds[1].balance - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bound_ratios_are_attached_when_configured() {
        let sink = spanned_sink();
        // m = 16, p = 4, exponent 1 → predicted 4.0.
        let r = sink.report_with_bound(Some(LoadBound::new(16, 4, 1.0)));
        let b = r.bound.expect("bound configured");
        assert!((b.predicted - 4.0).abs() < 1e-9);
        assert!((r.max_over_bound.unwrap() - 5.0 / 4.0).abs() < 1e-9);
        assert!((r.rounds[1].max_over_bound.unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn wall_clock_is_segregated_from_the_deterministic_section() {
        let sink = spanned_sink();
        let det = serde_json::to_string(&sink.report()).unwrap();
        assert!(
            !det.contains("wall_ns"),
            "deterministic section must not leak wall-clock fields: {det}"
        );
        let wall = sink.wall_report();
        // Only the timed span appears; the untimed barrier is absent.
        assert_eq!(wall.spans.len(), 1);
        assert_eq!(wall.spans[0].wall_ns, 1234);
        assert_eq!(wall.total_ns, 1234);
    }

    #[test]
    fn deterministic_json_is_stable_across_identical_recordings() {
        let a = serde_json::to_string(&spanned_sink().report()).unwrap();
        let b = serde_json::to_string(&spanned_sink().report()).unwrap();
        assert_eq!(a, b);
    }
}
