//! Exhaustive schedule exploration — model checking tiny transducer
//! networks.
//!
//! The semantics quantifies over **all** fair runs; the seeded scheduler
//! samples them, while this module *enumerates* them for small inputs.
//! The explorer runs the runtime itself, not a copy of it: a search state
//! is a [`SimRun`], and its moves are the run's own delivery transition
//! (what [`SimRun::step`] does once it has chosen a copy) plus two
//! adversary edits on the run's buffers —
//! drop one buffered copy, duplicate one — within a budget. A DFS over
//! those moves, memoized on an exact key of the global state, checks
//! that outputs stay sound along every prefix and that every quiescent
//! state of a drop-free path outputs exactly the expected answer —
//! turning Theorem 5.3-style claims into machine-checked facts on small
//! instances.

use crate::program::{Ctx, TransducerProgram};
use crate::scheduler::SimRun;
use parlog_relal::fact::Fact;
use parlog_relal::fastmap::{fxset, FxSet};
use parlog_relal::instance::Instance;

/// Outcome of an exploration.
#[derive(Debug, Clone)]
pub struct ExplorationReport {
    /// Distinct (state, fault budget) configurations visited.
    pub states: usize,
    /// Quiescent states reached on paths that dropped nothing.
    pub quiescent_clean: usize,
    /// Quiescent states reached on paths where at least one copy was
    /// dropped.
    pub quiescent_lossy: usize,
    /// Violations found (empty = verified).
    pub violations: Vec<String>,
}

impl ExplorationReport {
    /// Did every explored run satisfy its obligation — exact output on
    /// drop-free paths, soundness everywhere?
    pub fn verified(&self) -> bool {
        self.violations.is_empty()
    }
}

/// What the adversary has left along one path.
#[derive(Clone, Copy)]
struct Budget {
    drops: usize,
    dups: usize,
    /// Has this path dropped a copy?
    lossy: bool,
}

/// Explore every delivery order of `program` on `shards` and, on top of
/// it, every placement of up to `max_drops` dropped and `max_dups`
/// duplicated copies. Reordering is covered by choosing which buffered
/// copy is consumed next, and delay needs no move of its own: it is
/// subsumed by that choice.
///
/// Obligations checked on every path:
///
/// * **soundness** along every prefix: outputs ⊆ `expected`;
/// * **exactness** in quiescent states of paths with no drop —
///   duplication and reordering are within the survey's model, so the
///   output must still be exactly `expected`;
/// * lossy paths (≥ 1 drop) only owe soundness; their quiescent states
///   are tallied separately in `quiescent_lossy`.
///
/// `max_states` bounds the search; exceeding it is reported as a
/// violation, so a test fails loudly rather than passing on a truncated
/// space.
pub fn explore_schedules<P: TransducerProgram + ?Sized>(
    program: &P,
    shards: &[Instance],
    ctx: Ctx,
    expected: &Instance,
    max_states: usize,
    max_drops: usize,
    max_dups: usize,
) -> ExplorationReport {
    let mut search = Search {
        program,
        expected,
        max_states,
        seen: fxset(),
        key: Vec::new(),
        report: ExplorationReport {
            states: 0,
            quiescent_clean: 0,
            quiescent_lossy: 0,
            violations: Vec::new(),
        },
    };
    let budget = Budget {
        drops: max_drops,
        dups: max_dups,
        lossy: false,
    };
    search.visit(&SimRun::setup(program, shards, ctx), budget);
    search.report
}

struct Search<'a, P: ?Sized> {
    program: &'a P,
    expected: &'a Instance,
    max_states: usize,
    seen: FxSet<Vec<u64>>,
    /// Scratch for the key of the state being visited.
    key: Vec<u64>,
    report: ExplorationReport,
}

impl<P: TransducerProgram + ?Sized> Search<'_, P> {
    fn visit(&mut self, run: &SimRun, budget: Budget) {
        if self.report.states >= self.max_states {
            let budget_hit = format!("state budget {} exhausted", self.max_states);
            if self.report.violations.last() != Some(&budget_hit) {
                self.report.violations.push(budget_hit);
            }
            return;
        }
        state_key(run, budget, &mut self.key);
        if self.seen.contains(self.key.as_slice()) {
            return;
        }
        self.seen.insert(self.key.clone());
        self.report.states += 1;

        // Soundness along every prefix, node by node: the union of the
        // outputs is only built to report a violation.
        let expected = self.expected;
        let outputs = || run.nodes.iter().flat_map(|n| n.output_so_far().iter());
        if outputs().any(|f| !expected.contains(f)) {
            let wrong: Instance = outputs()
                .filter(|f| !expected.contains(f))
                .cloned()
                .collect();
            self.report
                .violations
                .push(format!("unsound prefix output {:?}", wrong.sorted_facts()));
            return;
        }

        if run.quiet() {
            if budget.lossy {
                self.report.quiescent_lossy += 1; // soundness already checked
            } else {
                self.report.quiescent_clean += 1;
                // Sound, so exact iff every expected fact was output.
                let output = |f| run.nodes.iter().any(|n| n.output_so_far().contains(f));
                if !expected.iter().all(output) {
                    self.report.violations.push(format!(
                        "quiescent output mismatch on a drop-free path: got {} facts, expected {}",
                        run.outputs().len(),
                        expected.len()
                    ));
                }
            }
            return;
        }

        for dest in 0..run.n() {
            for idx in 0..run.buffer(dest).len() {
                let mut next = run.clone();
                next.deliver(self.program, dest, idx);
                self.visit(&next, budget);
                if budget.dups > 0 {
                    let mut next = run.clone();
                    next.duplicate_copy(dest, idx);
                    let dups = budget.dups - 1;
                    self.visit(&next, Budget { dups, ..budget });
                }
                if budget.drops > 0 {
                    let mut next = run.clone();
                    next.drop_copy(dest, idx);
                    let drops = budget.drops - 1;
                    self.visit(
                        &next,
                        Budget {
                            drops,
                            lossy: true,
                            ..budget
                        },
                    );
                }
            }
        }
    }
}

/// Write the memo key of `(run, budget)` into `key`: per node its local,
/// aux and output facts, per destination its buffered `(sender, fact)`
/// copies — each list sorted, so the key names the state and not the
/// order it was reached in — then the budget. Facts are raw interned ids.
///
/// The key is **exact**: every list is length-prefixed and every fact
/// carries its arity, so two configurations share a key only if they are
/// equal. A lossy hash could merge two distinct states and leave one
/// unexplored, making a verdict unsound. The clock, the delivery count
/// and the fault stats are history, not state, and stay out.
fn state_key(run: &SimRun, budget: Budget, key: &mut Vec<u64>) {
    fn push_fact(key: &mut Vec<u64>, f: &Fact) {
        key.push(u64::from(f.rel.0));
        key.push(f.args.len() as u64);
        key.extend(f.args.iter().map(|v| v.0));
    }
    key.clear();
    let mut facts: Vec<&Fact> = Vec::new();
    for node in &run.nodes {
        for inst in [&node.local, &node.aux, node.output_so_far()] {
            facts.clear();
            facts.extend(inst.iter());
            facts.sort_unstable();
            key.push(facts.len() as u64);
            for f in &facts {
                push_fact(key, f);
            }
        }
    }
    let mut copies: Vec<(usize, &Fact)> = Vec::new();
    for dest in 0..run.n() {
        copies.clear();
        copies.extend(run.buffer(dest).iter().map(|(from, f)| (*from, f)));
        copies.sort_unstable();
        key.push(copies.len() as u64);
        for &(from, f) in &copies {
            key.push(from as u64);
            push_fact(key, f);
        }
    }
    key.extend([budget.drops as u64, budget.dups as u64, budget.lossy as u64]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::hash_distribution;
    use crate::program::Broadcast;
    use crate::programs::coordinated::CoordinatedBroadcast;
    use crate::programs::monotone::MonotoneBroadcast;
    use crate::NodeState;
    use parlog_relal::fact::fact;
    use parlog_relal::parser::parse_query;

    const PATH2: &str = "H(x,z) <- E(x,y), E(y,z)";
    const OPEN_PATH: &str = "H(x,y,z) <- E(x,y), E(y,z), not E(z,x)";

    /// One exploration case: `query` over the `edges` of `E`, hashed onto
    /// `nodes` nodes with `seed`, under a budget of `drops` and `dups`.
    /// `coordinated` runs the coordinating broadcast in a network-aware
    /// context; otherwise the monotone broadcast runs obliviously.
    struct Case {
        query: &'static str,
        edges: &'static [[u64; 2]],
        nodes: usize,
        seed: u64,
        coordinated: bool,
        drops: usize,
        dups: usize,
    }

    const fn case(query: &'static str, edges: &'static [[u64; 2]], nodes: usize) -> Case {
        Case {
            query,
            edges,
            nodes,
            seed: 1,
            coordinated: false,
            drops: 0,
            dups: 0,
        }
    }

    const MONO: Case = case(PATH2, &[[1, 2], [2, 3]], 2);
    const COORDINATED: Case = Case {
        coordinated: true,
        ..case(OPEN_PATH, &[[1, 2], [2, 3]], 2)
    };
    // Monotone broadcast on a NON-monotone query: the full instance
    // closes the triangle, so any output is wrong.
    const BROKEN: Case = Case {
        seed: 2,
        ..case(OPEN_PATH, &[[1, 2], [2, 3], [3, 1]], 2)
    };
    const THREE_NODES: Case = Case {
        seed: 5,
        ..case("H(x) <- E(x,y)", &[[1, 2], [3, 4]], 3)
    };

    impl Case {
        fn explore(&self) -> ExplorationReport {
            self.explore_within(500_000)
        }

        fn explore_within(&self, max_states: usize) -> ExplorationReport {
            let q = parse_query(self.query).unwrap();
            let db = Instance::from_facts(self.edges.iter().map(|e| fact("E", e)));
            let expected = parlog_relal::eval::eval_query(&q, &db);
            let shards = hash_distribution(&db, self.nodes, self.seed);
            let (program, ctx): (Box<dyn TransducerProgram>, Ctx) = if self.coordinated {
                (
                    Box::new(CoordinatedBroadcast::new(q)),
                    Ctx::aware(self.nodes),
                )
            } else {
                (Box::new(MonotoneBroadcast::new(q)), Ctx::oblivious())
            };
            explore_schedules(
                &*program, &shards, ctx, &expected, max_states, self.drops, self.dups,
            )
        }
    }

    /// The exact size of every explored space, pinned: a change to the
    /// runtime's transitions or to the memo's equivalence moves a count.
    #[test]
    fn exploration_counts_are_pinned() {
        let table = [
            ("mono 2-node", MONO, (4, 1, 0), 0),
            ("dup<=2", Case { dups: 2, ..MONO }, (36, 3, 0), 0),
            ("drop<=1", Case { drops: 1, ..MONO }, (8, 1, 2), 0),
            ("coordinated", COORDINATED, (16, 1, 0), 0),
            ("broken program", BROKEN, (1, 0, 0), 1),
            ("3-node", THREE_NODES, (16, 1, 0), 0),
            (
                "calm_matrix F0",
                case("H(x) <- E(x,y), E(y,x)", &[[1, 2], [2, 1]], 2),
                (4, 1, 0),
                0,
            ),
            (
                "3-node drop<=1 dup<=1",
                Case {
                    drops: 1,
                    dups: 1,
                    ..case(PATH2, &[[0, 1], [1, 2], [2, 3]], 3)
                },
                (1913, 2, 13),
                0,
            ),
        ];
        for (name, case, pinned, violations) in table {
            let r = case.explore();
            let counts = (r.states, r.quiescent_clean, r.quiescent_lossy);
            assert_eq!(counts, pinned, "{name}: states / clean / lossy");
            assert_eq!(r.violations.len(), violations, "{name}: {:?}", r.violations);
        }
    }

    #[test]
    fn monotone_broadcast_verified_exhaustively() {
        let report = MONO.explore();
        assert!(report.verified(), "{:?}", report.violations);
        assert!(report.quiescent_clean >= 1 && report.states > 1);
    }

    #[test]
    fn coordinated_broadcast_verified_exhaustively() {
        let report = COORDINATED.explore();
        assert!(report.verified(), "{:?}", report.violations);
    }

    #[test]
    fn broken_program_is_caught() {
        // Some schedule outputs a fact the full instance refutes — the
        // explorer must find the unsound prefix.
        let report = BROKEN.explore();
        assert!(!report.verified());
        assert!(report.violations[0].starts_with("unsound prefix output"));
    }

    #[test]
    fn fault_schedules_monotone_duplication_is_harmless() {
        // Every schedule with up to 2 adversarial duplications still ends
        // in exactly the expected output: duplication-tolerance of the
        // monotone broadcast as a machine-checked theorem (small scope).
        let report = Case { dups: 2, ..MONO }.explore();
        assert!(report.verified(), "{:?}", report.violations);
        assert!(report.quiescent_clean >= 1);
        assert_eq!(report.quiescent_lossy, 0, "no drops were allowed");
    }

    #[test]
    fn fault_schedules_drops_stay_sound() {
        // With 1 adversarial drop allowed, lossy quiescent states exist
        // (completeness can break) but soundness never does.
        let report = Case { drops: 1, ..MONO }.explore();
        assert!(report.verified(), "{:?}", report.violations);
        assert!(
            report.quiescent_lossy >= 1,
            "some path must actually use the drop budget"
        );
        assert!(report.quiescent_clean >= 1);
    }

    #[test]
    fn fault_schedules_catch_unsound_program_under_duplication() {
        // A counting-based program that outputs a fact the second time it
        // sees it is *wrong* under duplication; the explorer must find
        // the schedule that exposes it.
        struct CountTwice;
        impl TransducerProgram for CountTwice {
            fn name(&self) -> &str {
                "count-twice"
            }
            fn init(&self, node: &mut NodeState, _ctx: &Ctx) -> Broadcast {
                node.local.iter().cloned().collect()
            }
            fn on_fact(
                &self,
                node: &mut NodeState,
                _from: usize,
                f: &Fact,
                _ctx: &Ctx,
            ) -> Broadcast {
                // Non-idempotent: a duplicate delivery looks like a second
                // distinct derivation.
                if !node.aux.insert(f.clone()) {
                    node.output(fact("Twice", &[1]));
                }
                Vec::new()
            }
        }
        let db = Instance::from_facts([fact("E", &[1])]);
        let expected = Instance::new(); // nothing arrives twice legitimately
        let shards = vec![db, Instance::new()];
        let explore = |dups| {
            explore_schedules(
                &CountTwice,
                &shards,
                Ctx::oblivious(),
                &expected,
                100_000,
                0,
                dups,
            )
        };
        assert!(explore(0).verified(), "without duplication it is sound");
        assert!(
            !explore(1).verified(),
            "duplication must expose the non-idempotent output"
        );
    }

    #[test]
    fn three_node_exploration_terminates() {
        let report = THREE_NODES.explore();
        assert!(report.verified(), "{:?}", report.violations);
    }

    #[test]
    fn state_budget_is_a_violation() {
        let report = Case { dups: 2, ..MONO }.explore_within(10);
        assert_eq!(report.states, 10);
        assert_eq!(report.violations, ["state budget 10 exhausted"]);
    }
}
