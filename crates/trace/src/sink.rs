//! The in-memory accumulating sink.
//!
//! [`MemSink`] summarizes load histograms *at record time* (the raw
//! per-server vectors are not retained — a trace over thousands of
//! rounds stays small), accumulates comm-counter deltas, and keeps the
//! fault timeline in arrival order. Export is via
//! [`MemSink::report`](crate::report) — see the [`crate::report`]
//! module for the deterministic / wall-clock split.

use crate::{CommCounters, FaultEvent, Span, TraceEvent, TraceSink};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Per-round load-histogram summary, computed when the round's
/// [`TraceEvent::Loads`] event is recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct RoundLoads {
    /// Round index.
    pub round: usize,
    /// Number of servers in the histogram.
    pub servers: usize,
    /// `Σ received` — the round's total communication.
    pub total: usize,
    /// Smallest per-server load.
    pub min: usize,
    /// Median per-server load (nearest-rank).
    pub p50: usize,
    /// 95th-percentile per-server load (nearest-rank).
    pub p95: usize,
    /// Largest per-server load — the round's maximum load.
    pub max: usize,
}

/// Everything a [`MemSink`] has accumulated.
#[derive(Default)]
pub(crate) struct TraceData {
    pub spans: Vec<Span>,
    pub rounds: Vec<RoundLoads>,
    pub comm: CommCounters,
    pub timeline: Vec<FaultEvent>,
}

/// A thread-safe accumulating sink: attach with
/// [`TraceHandle::to`](crate::TraceHandle::to), run, then export with
/// the report methods in [`crate::report`].
#[derive(Default)]
pub struct MemSink {
    data: Mutex<TraceData>,
}

/// Nearest-rank percentile of ascending-sorted data, `q` in `(0, 100]`.
fn percentile(sorted: &[usize], q: usize) -> usize {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

impl MemSink {
    /// An empty sink.
    pub fn new() -> MemSink {
        MemSink::default()
    }

    /// The accumulated data, locked. A recorder that panicked holding
    /// the lock left at most one event half-summarized, so poisoning is
    /// ignored rather than wedging every later export.
    pub(crate) fn locked(&self) -> MutexGuard<'_, TraceData> {
        self.data.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The comm counters accumulated so far.
    pub fn comm(&self) -> CommCounters {
        self.locked().comm
    }

    /// A copy of the fault / supervisor timeline so far.
    pub fn timeline(&self) -> Vec<FaultEvent> {
        self.locked().timeline.clone()
    }

    /// The per-round load summaries so far.
    pub fn rounds(&self) -> Vec<RoundLoads> {
        self.locked().rounds.clone()
    }
}

impl TraceSink for MemSink {
    fn record(&self, ev: &TraceEvent<'_>) {
        let mut d = self.locked();
        match ev {
            TraceEvent::Phase(span) => d.spans.push(*span),
            TraceEvent::Loads { round, received } => {
                let mut sorted = received.to_vec();
                sorted.sort_unstable();
                d.rounds.push(RoundLoads {
                    round: *round,
                    servers: sorted.len(),
                    total: sorted.iter().sum(),
                    min: sorted.first().copied().unwrap_or(0),
                    p50: percentile(&sorted, 50),
                    p95: percentile(&sorted, 95),
                    max: sorted.last().copied().unwrap_or(0),
                });
            }
            TraceEvent::Comm(delta) => d.comm.add(delta),
            TraceEvent::Fault(f) => d.timeline.push(*f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceHandle;
    use std::sync::Arc;

    #[test]
    fn percentile_is_nearest_rank() {
        let data: Vec<usize> = (1..=100).collect();
        assert_eq!(percentile(&data, 50), 50);
        assert_eq!(percentile(&data, 95), 95);
        assert_eq!(percentile(&data, 100), 100);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[7], 95), 7);
        assert_eq!(percentile(&[], 50), 0);
        // Nearest-rank on 4 items: p50 → rank 2, p95 → rank 4.
        assert_eq!(percentile(&[1, 2, 3, 4], 50), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 95), 4);
    }

    #[test]
    fn loads_events_are_summarized_at_record_time() {
        let sink = Arc::new(MemSink::new());
        let h = TraceHandle::to(sink.clone());
        h.record(TraceEvent::Loads {
            round: 0,
            received: &[4, 0, 2, 10],
        });
        let rounds = sink.rounds();
        assert_eq!(rounds.len(), 1);
        let r = rounds[0];
        assert_eq!(
            (r.round, r.servers, r.total, r.min, r.max),
            (0, 4, 16, 0, 10)
        );
        assert_eq!(r.p50, 2);
        assert_eq!(r.p95, 10);
    }

    #[test]
    fn sink_is_shareable_across_threads() {
        let sink = Arc::new(MemSink::new());
        let h = TraceHandle::to(sink.clone());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = h.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        h.record(TraceEvent::Comm(CommCounters {
                            sent: 1,
                            ..CommCounters::default()
                        }));
                    }
                });
            }
        });
        assert_eq!(sink.comm().sent, 400);
    }
}
