//! Streaming reducers with bounded memory — the register-automata view
//! of MapReduce (§3.2).
//!
//! "Neven et al. provide a formalization of MapReduce where reducers are
//! modelled as extensions of register automata and obtain fragments that
//! can express the semi-join algebra and the complete relational
//! algebra."
//!
//! A [`StreamingReducer`] consumes its group's values one at a time and
//! maintains explicit state whose size we *measure*. The dichotomy the
//! reference proves becomes an executable observation:
//!
//! * semijoin-algebra operators (σ, π, ⋉, ▷, ∪) admit reducers whose
//!   state is **O(1) registers** per group — peak state does not grow
//!   with the group size;
//! * the join (and product) fundamentally buffers one side — peak state
//!   grows linearly with the group.
//!
//! The reducers here plug into the cluster in one round per operator
//! (hash-partition on the key, then stream each group); tests assert both
//! the outputs and the measured memory profiles.

use crate::cluster::{Cluster, Fate, ServerId};
use crate::partition::{
    key_bucket, route_by_key, seed_cluster, HashPartitioner, InitialPartition, KeyRoute,
};
use parlog_relal::fact::{Args, Fact, Val};
use parlog_relal::fastmap::{fxmap, FxSet};
use parlog_relal::instance::Instance;
use parlog_relal::symbols::RelId;
use std::collections::BTreeMap;

/// A reducer that streams the values of one group.
pub trait StreamingReducer {
    /// Start a pass over a group (key provided); called
    /// [`StreamingReducer::passes`] times per group.
    fn begin_group(&mut self, key: &[Val]);
    /// Consume one incoming fact; may emit output facts.
    fn consume(&mut self, fact: &Fact) -> Vec<Fact>;
    /// Group end; may emit remaining outputs.
    fn end_group(&mut self) -> Vec<Fact>;
    /// Current state size in registers (values held). Measured after
    /// every `consume` to determine the peak.
    fn state_size(&self) -> usize;
    /// How many times each group is streamed through one reducer
    /// (`begin_group` … `end_group` per pass; the register-automata
    /// model permits a constant number).
    fn passes(&self) -> usize {
        1
    }
}

/// Execution report of a streamed operator.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Output facts (union over groups and servers).
    pub output: Instance,
    /// The largest state (in registers) any group reached.
    pub peak_state: usize,
    /// The largest group size streamed.
    pub max_group: usize,
}

/// Stream `db`'s facts of the given relations through `reducer`, grouped
/// by the key extracted per relation (positions), over `p` servers (one
/// communication round; groups are streamed in sorted fact order for
/// determinism): a [`DeltaStreamSession`] that is never pushed.
pub fn run_streamed<R, F>(
    db: &Instance,
    rels: &[(RelId, Vec<usize>)],
    make_reducer: F,
    p: usize,
    seed: u64,
) -> StreamReport
where
    R: StreamingReducer,
    F: FnMut() -> R,
{
    DeltaStreamSession::new(db, rels, make_reducer, p, seed).report()
}

/// A constant-memory semijoin reducer: emit every left fact once a right
/// witness is seen; buffer left facts only *until* the first witness…
///
/// …which would still be linear. The truly constant-register strategy
/// streams the group **twice** (as the register-automata model allows
/// multi-pass reducers): pass 1 sets a one-bit witness flag, pass 2 emits
/// matching left facts. Its [`StreamingReducer::passes`] is 2, so every
/// driver hands it each group twice.
pub struct SemijoinReducer {
    left: RelId,
    right: RelId,
    out: RelId,
    witness: bool,
    pass: u8,
}

impl SemijoinReducer {
    /// Left facts are emitted (renamed to `out`) iff the group contains a
    /// right fact.
    pub fn new(left: RelId, right: RelId, out: RelId) -> SemijoinReducer {
        SemijoinReducer {
            left,
            right,
            out,
            witness: false,
            pass: 0,
        }
    }
}

impl StreamingReducer for SemijoinReducer {
    fn begin_group(&mut self, _key: &[Val]) {
        // Passes run 1, 2, 1, 2, …, so one reducer may stream many groups.
        self.pass = self.pass % 2 + 1;
        if self.pass == 1 {
            self.witness = false;
        }
    }

    fn consume(&mut self, fact: &Fact) -> Vec<Fact> {
        match self.pass {
            1 => {
                if fact.rel == self.right {
                    self.witness = true;
                }
                Vec::new()
            }
            _ => {
                if self.witness && fact.rel == self.left {
                    vec![Fact::new(self.out, fact.args.clone())]
                } else {
                    Vec::new()
                }
            }
        }
    }

    fn end_group(&mut self) -> Vec<Fact> {
        Vec::new()
    }

    fn state_size(&self) -> usize {
        1 // the witness flag — constant, independent of the group
    }

    fn passes(&self) -> usize {
        2
    }
}

/// A join reducer: buffers the right side, emits combinations — state
/// grows with the group (the non-semijoin-algebra case).
pub struct JoinReducer {
    left: RelId,
    right: RelId,
    out: RelId,
    buffered_right: Vec<Vec<Val>>,
    buffered_left: Vec<Vec<Val>>,
    drop_right_cols: Vec<usize>,
}

impl JoinReducer {
    /// Join left and right facts of the group (already co-keyed);
    /// `drop_right_cols` are the right positions omitted from the output.
    pub fn new(left: RelId, right: RelId, out: RelId, drop_right_cols: Vec<usize>) -> JoinReducer {
        JoinReducer {
            left,
            right,
            out,
            buffered_right: Vec::new(),
            buffered_left: Vec::new(),
            drop_right_cols,
        }
    }

    fn combine(&self, l: &[Val], r: &[Val]) -> Fact {
        let mut args = l.to_vec();
        for (j, v) in r.iter().enumerate() {
            if !self.drop_right_cols.contains(&j) {
                args.push(*v);
            }
        }
        Fact::new(self.out, args)
    }
}

impl StreamingReducer for JoinReducer {
    fn begin_group(&mut self, _key: &[Val]) {
        self.buffered_right.clear();
        self.buffered_left.clear();
    }

    fn consume(&mut self, fact: &Fact) -> Vec<Fact> {
        if fact.rel == self.right {
            self.buffered_right.push(fact.args.to_vec());
            self.buffered_left
                .iter()
                .map(|l| self.combine(l, &fact.args))
                .collect()
        } else if fact.rel == self.left {
            self.buffered_left.push(fact.args.to_vec());
            self.buffered_right
                .iter()
                .map(|r| self.combine(&fact.args, r))
                .collect()
        } else {
            Vec::new()
        }
    }

    fn end_group(&mut self) -> Vec<Fact> {
        Vec::new()
    }

    fn state_size(&self) -> usize {
        self.buffered_left.iter().map(|t| t.len()).sum::<usize>()
            + self.buffered_right.iter().map(|t| t.len()).sum::<usize>()
    }
}

/// A live streamed computation maintained across delta rounds.
///
/// [`run_streamed`] reseeds and reshuffles the *entire* database on every
/// call. A `DeltaStreamSession` keeps the cluster (and its hash
/// partition) alive between updates: each [`DeltaStreamSession::push`]
/// routes only the delta — inserted facts are hash-partitioned to their
/// group's owner, deleted facts are dropped at their holder, everything
/// else is `Keep`-retained for free — and only the affected groups are
/// re-streamed. Outputs are reference-counted per emitting group, so a
/// retraction by one group does not steal a fact another group still
/// emits.
///
/// The delta round goes through the same communication driver as every
/// other phase, so fault plans, checkpoint/replay recovery, partition
/// hold-and-flush and `with_parallelism` all apply unchanged; the
/// maintained output stays equal to re-running [`run_streamed`] on the
/// accumulated database.
pub struct DeltaStreamSession<R, F>
where
    R: StreamingReducer,
    F: FnMut() -> R,
{
    cluster: Cluster,
    /// Each streamed relation's key positions, all under one partitioner:
    /// equal keys of different relations meet in one group.
    routes: Vec<KeyRoute>,
    make_reducer: F,
    /// Deduplicated output of each live group, by group key.
    group_out: parlog_relal::fastmap::FxMap<Args, Vec<Fact>>,
    /// How many groups currently emit each output fact.
    out_counts: parlog_relal::fastmap::FxMap<Fact, i64>,
    output: Instance,
    peak_state: usize,
    max_group: usize,
    rounds_pushed: u64,
}

impl<R, F> DeltaStreamSession<R, F>
where
    R: StreamingReducer,
    F: FnMut() -> R,
{
    /// Open a session over `db` with a freshly seeded `p`-server cluster.
    pub fn new(
        db: &Instance,
        rels: &[(RelId, Vec<usize>)],
        make_reducer: F,
        p: usize,
        seed: u64,
    ) -> DeltaStreamSession<R, F> {
        Self::with_cluster(Cluster::new(p), db, rels, make_reducer, seed)
    }

    /// Open a session on a preconfigured (empty) cluster — the way to run
    /// delta rounds under fault plans, tracing or bounded parallelism.
    pub fn with_cluster(
        mut cluster: Cluster,
        db: &Instance,
        rels: &[(RelId, Vec<usize>)],
        make_reducer: F,
        seed: u64,
    ) -> DeltaStreamSession<R, F> {
        let h = HashPartitioner::new(seed, cluster.p());
        let routes: Vec<KeyRoute> = rels.iter().map(|(r, at)| (*r, at.clone(), h)).collect();
        seed_cluster(&mut cluster, db, InitialPartition::RoundRobin);
        route_by_key(&mut cluster, &routes);
        let mut session = DeltaStreamSession {
            cluster,
            routes,
            make_reducer,
            group_out: fxmap(),
            out_counts: fxmap(),
            output: Instance::new(),
            peak_state: 0,
            max_group: 0,
            rounds_pushed: 0,
        };
        // Stream every group once, in key order, to prime the maintained
        // output.
        let mut groups: BTreeMap<Args, Vec<Fact>> = BTreeMap::new();
        for s in 0..session.cluster.p() {
            for f in session.cluster.shard(s).iter() {
                if let Some((k, _)) = key_bucket(&session.routes, &f) {
                    groups.entry(k).or_default().push(f);
                }
            }
        }
        for (k, facts) in groups {
            session.restream(&k, facts);
        }
        session
    }

    /// Apply one batch of base-data changes: route the delta through a
    /// single communication round (`Send` for inserts, `Drop` for
    /// deletes, `Keep` for the rest) and re-stream only the groups the
    /// delta touches. Deleting a fact the session never held is a no-op.
    /// Returns the maintained output.
    pub fn push(&mut self, inserts: &[Fact], deletes: &[Fact]) -> &Instance {
        let ins: FxSet<Fact> = inserts.iter().cloned().collect();
        let del: FxSet<Fact> = deletes.iter().cloned().collect();
        // New facts enter at a deterministic staging server (their
        // owner routes them in the delta round like any holder would).
        let p = self.cluster.p();
        for s in 0..p {
            self.cluster
                .place(s, inserts.iter().skip(s).step_by(p).cloned());
        }
        let routes = &self.routes;
        self.cluster.route(&[], |_, f, out| {
            if del.contains(f) {
                Fate::Send
            } else if ins.contains(f) {
                out.extend(key_bucket(routes, f).map(|(_, s)| s));
                Fate::Send
            } else {
                Fate::Keep
            }
        });
        self.rounds_pushed += 1;
        // Each touched group, by key, with its owner.
        let touched: BTreeMap<Args, ServerId> = inserts
            .iter()
            .chain(deletes)
            .filter_map(|f| key_bucket(routes, f))
            .collect();
        for (k, owner) in touched {
            let local = self.cluster.shard(owner).iter();
            let in_group = |f: &Fact| key_bucket(&self.routes, f).is_some_and(|(fk, _)| fk == k);
            let facts = local.filter(in_group).collect();
            self.restream(&k, facts);
        }
        &self.output
    }

    /// Stream one group's facts (in sorted order) through a fresh reducer
    /// and fold the difference into the maintained output.
    fn restream(&mut self, k: &Args, mut facts: Vec<Fact>) {
        facts.sort();
        let mut fresh: Vec<Fact> = Vec::new();
        if !facts.is_empty() {
            self.max_group = self.max_group.max(facts.len());
            let mut reducer = (self.make_reducer)();
            for _ in 0..reducer.passes() {
                reducer.begin_group(k);
                for f in &facts {
                    fresh.extend(reducer.consume(f));
                    self.peak_state = self.peak_state.max(reducer.state_size());
                }
                fresh.extend(reducer.end_group());
            }
            fresh.sort();
            fresh.dedup();
        }
        let stale = self.group_out.remove(k).unwrap_or_default();
        for f in &stale {
            let c = self.out_counts.get_mut(f).expect("counted output");
            *c -= 1;
            if *c == 0 {
                self.out_counts.remove(f);
                self.output.remove(f);
            }
        }
        for f in &fresh {
            let c = self.out_counts.entry(f.clone()).or_insert(0);
            *c += 1;
            if *c == 1 {
                self.output.insert(f.clone());
            }
        }
        if !fresh.is_empty() {
            self.group_out.insert(k.clone(), fresh);
        }
    }

    /// The maintained output (equal to re-running the full streamed
    /// operator on the accumulated database).
    pub fn output(&self) -> &Instance {
        &self.output
    }

    /// The session's report in [`run_streamed`] terms; peaks are over the
    /// session's whole lifetime.
    pub fn report(&self) -> StreamReport {
        StreamReport {
            output: self.output.clone(),
            peak_state: self.peak_state,
            max_group: self.max_group,
        }
    }

    /// Delta rounds pushed so far.
    pub fn rounds_pushed(&self) -> u64 {
        self.rounds_pushed
    }

    /// The underlying cluster (loads, rounds, recovery stats).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlog_relal::fact::fact;
    use parlog_relal::symbols::rel;

    /// R(x, y) ⋉ S(y, z): many left facts per key, streamed with one bit
    /// of state.
    #[test]
    fn semijoin_streams_with_constant_memory() {
        let mut db = Instance::new();
        for i in 0..200u64 {
            db.insert(fact("R", &[i, i % 5]));
        }
        for k in 0..3u64 {
            db.insert(fact("S", &[k, 99]));
        }
        let rels = [(rel("R"), vec![1]), (rel("S"), vec![0])];
        let report = run_streamed(
            &db,
            &rels,
            || SemijoinReducer::new(rel("R"), rel("S"), rel("Semi")),
            4,
            7,
        );
        // Expected: R facts with y ∈ {0,1,2}.
        let expected: usize = (0..200u64).filter(|i| i % 5 < 3).count();
        assert_eq!(report.output.len(), expected);
        assert!(
            report.max_group >= 40,
            "groups are large: {}",
            report.max_group
        );
        assert_eq!(
            report.peak_state, 1,
            "semijoin state must stay constant regardless of group size"
        );
    }

    /// R ⋈ S by streaming: state necessarily grows with the group.
    #[test]
    fn join_state_grows_with_group() {
        let mut db = Instance::new();
        for i in 0..60u64 {
            db.insert(fact("R", &[i, 0]));
            db.insert(fact("S", &[0, 1000 + i]));
        }
        let rels = [(rel("R"), vec![1]), (rel("S"), vec![0])];
        let report = run_streamed(
            &db,
            &rels,
            || JoinReducer::new(rel("R"), rel("S"), rel("J"), vec![0]),
            4,
            7,
        );
        assert_eq!(report.output.len(), 3600);
        assert!(
            report.peak_state >= 2 * 60,
            "join must buffer the group: peak {}",
            report.peak_state
        );
        // Join output is correct vs the algebra evaluator.
        use parlog_relal::algebra::{eval_ra, RaExpr};
        let e = RaExpr::rel("R", 2).join(RaExpr::rel("S", 2), vec![(1, 0)]);
        assert_eq!(report.output.len(), eval_ra(&e, &db).unwrap().len());
    }

    #[test]
    fn semijoin_matches_algebra_semantics() {
        let db = Instance::from_facts([fact("R", &[1, 2]), fact("R", &[5, 9]), fact("S", &[2, 7])]);
        let rels = [(rel("R"), vec![1]), (rel("S"), vec![0])];
        let report = run_streamed(
            &db,
            &rels,
            || SemijoinReducer::new(rel("R"), rel("S"), rel("Semi")),
            2,
            1,
        );
        assert_eq!(report.output.len(), 1);
        assert!(report.output.contains(&fact("Semi", &[1, 2])));
    }

    #[test]
    fn empty_groups_are_fine() {
        let report = run_streamed(
            &Instance::new(),
            &[(rel("R"), vec![0])],
            || JoinReducer::new(rel("R"), rel("S"), rel("J"), vec![]),
            2,
            0,
        );
        assert!(report.output.is_empty());
        assert_eq!(report.peak_state, 0);
    }

    /// One semijoin reducer streaming two groups in turn must not carry
    /// the first group's witness into the second.
    #[test]
    fn a_semijoin_reducer_starts_each_group_without_a_witness() {
        let stream = |r: &mut SemijoinReducer, facts: &[Fact]| {
            let mut out = Vec::new();
            for _ in 0..r.passes() {
                r.begin_group(&[]);
                for f in facts {
                    out.extend(r.consume(f));
                }
                out.extend(r.end_group());
            }
            out
        };
        let mut r = SemijoinReducer::new(rel("R"), rel("S"), rel("Semi"));
        let witnessed = stream(&mut r, &[fact("R", &[1, 5]), fact("S", &[5, 0])]);
        assert_eq!(witnessed, vec![fact("Semi", &[1, 5])]);
        assert!(stream(&mut r, &[fact("R", &[2, 6])]).is_empty());
    }

    /// Every key holds exactly one fact: groups of size one must still
    /// open, stream and close correctly in both one- and two-pass modes.
    #[test]
    fn single_fact_groups_stream_correctly() {
        let mut db = Instance::new();
        for i in 0..8u64 {
            db.insert(fact("R", &[i, 100 + i]));
        }
        db.insert(fact("S", &[103, 0]));
        let rels = [(rel("R"), vec![1]), (rel("S"), vec![0])];
        let semi = run_streamed(
            &db,
            &rels,
            || SemijoinReducer::new(rel("R"), rel("S"), rel("Semi")),
            3,
            5,
        );
        // Only key 103 holds both sides; the seven R-only and one S-only
        // singleton groups must come and go without emitting.
        assert_eq!(semi.output.sorted_facts(), vec![fact("Semi", &[3, 103])]);
        assert_eq!(semi.max_group, 2);
    }

    /// Facts from different relations whose key positions extract the
    /// same key vector must land in ONE group, not one group per
    /// relation — the reducer sees both sides interleaved.
    #[test]
    fn key_collision_across_relations_shares_one_group() {
        // R is keyed on position 1, S on position 0; the value 7 appears
        // in both, plus as a non-key value that must NOT collide.
        let db = Instance::from_facts([
            fact("R", &[7, 7]),
            fact("R", &[2, 7]),
            fact("S", &[7, 7]),
            fact("R", &[7, 9]), // key 9, not 7, despite the leading 7
        ]);
        let rels = [(rel("R"), vec![1]), (rel("S"), vec![0])];
        let report = run_streamed(
            &db,
            &rels,
            || SemijoinReducer::new(rel("R"), rel("S"), rel("Semi")),
            2,
            11,
        );
        assert_eq!(
            report.output.sorted_facts(),
            vec![fact("Semi", &[2, 7]), fact("Semi", &[7, 7])]
        );
        // Both R facts and the S fact streamed as a single group of 3.
        assert_eq!(report.max_group, 3);
    }

    /// A delta session's maintained output must equal a full re-stream
    /// of the accumulated database after every push.
    #[test]
    fn delta_session_matches_full_restream_join() {
        let rels = [(rel("R"), vec![1]), (rel("S"), vec![0])];
        let mk = || JoinReducer::new(rel("R"), rel("S"), rel("J"), vec![0]);
        let mut db = Instance::new();
        for i in 0..20u64 {
            db.insert(fact("R", &[i, i % 4]));
            db.insert(fact("S", &[i % 4, 50 + i]));
        }
        let mut session = DeltaStreamSession::new(&db, &rels, mk, 4, 9);
        assert_eq!(*session.output(), run_streamed(&db, &rels, mk, 4, 9).output);
        let batches: Vec<(Vec<Fact>, Vec<Fact>)> = vec![
            (vec![fact("R", &[100, 0]), fact("S", &[5, 500])], vec![]),
            (vec![fact("R", &[101, 5])], vec![fact("S", &[0, 50])]),
            (vec![], vec![fact("R", &[100, 0]), fact("R", &[0, 0])]),
            // Deleting an absent fact is a no-op.
            (vec![fact("S", &[2, 52])], vec![fact("R", &[999, 999])]),
        ];
        for (ins, del) in batches {
            for f in &ins {
                db.insert(f.clone());
            }
            for f in &del {
                db.remove(f);
            }
            session.push(&ins, &del);
            assert_eq!(*session.output(), run_streamed(&db, &rels, mk, 4, 9).output);
        }
        assert_eq!(session.rounds_pushed(), 4);
    }

    /// Same equivalence for two-pass reducers, and under a straggler
    /// fault plan with bounded worker parallelism: faults may reorder
    /// and slow the delta rounds but never change the maintained output.
    #[test]
    fn delta_session_two_pass_under_faults_matches_restream() {
        use parlog_faults::FaultPlan;
        let rels = [(rel("R"), vec![1]), (rel("S"), vec![0])];
        let mk = || SemijoinReducer::new(rel("R"), rel("S"), rel("Semi"));
        let mut db = Instance::new();
        for i in 0..30u64 {
            db.insert(fact("R", &[i, i % 6]));
        }
        db.insert(fact("S", &[1, 0]));
        db.insert(fact("S", &[4, 0]));
        let cluster = Cluster::new(4)
            .with_faults(FaultPlan::none(0).with_straggler(2, 4.0))
            .with_parallelism(2);
        let mut session = DeltaStreamSession::with_cluster(cluster, &db, &rels, mk, 13);
        let batches: Vec<(Vec<Fact>, Vec<Fact>)> = vec![
            (vec![fact("S", &[2, 0])], vec![fact("S", &[1, 0])]),
            (vec![fact("R", &[40, 2])], vec![fact("R", &[2, 2])]),
            (vec![], vec![fact("S", &[2, 0])]),
        ];
        for (ins, del) in batches {
            for f in &ins {
                db.insert(f.clone());
            }
            for f in &del {
                db.remove(f);
            }
            session.push(&ins, &del);
            assert_eq!(
                *session.output(),
                run_streamed(&db, &rels, mk, 4, 13).output,
                "maintained output diverged under faults"
            );
        }
    }

    /// Deleting every fact of a group retracts all of its output and
    /// drops the group; re-inserting brings it back.
    #[test]
    fn emptied_groups_retract_their_output() {
        let rels = [(rel("R"), vec![1]), (rel("S"), vec![0])];
        let mk = || JoinReducer::new(rel("R"), rel("S"), rel("J"), vec![0]);
        let db = Instance::from_facts([
            fact("R", &[1, 5]),
            fact("S", &[5, 8]),
            fact("R", &[2, 6]),
            fact("S", &[6, 9]),
        ]);
        let mut session = DeltaStreamSession::new(&db, &rels, mk, 2, 3);
        assert_eq!(session.output().len(), 2);
        session.push(&[], &[fact("R", &[1, 5]), fact("S", &[5, 8])]);
        assert_eq!(session.output().sorted_facts(), vec![fact("J", &[2, 6, 9])]);
        session.push(&[fact("R", &[1, 5]), fact("S", &[5, 8])], &[]);
        assert_eq!(
            session.output().sorted_facts(),
            vec![fact("J", &[1, 5, 8]), fact("J", &[2, 6, 9])]
        );
    }

    /// A reducer that emits one marker fact per nonempty group.
    struct MarkerReducer {
        seen: bool,
    }
    impl StreamingReducer for MarkerReducer {
        fn begin_group(&mut self, _key: &[Val]) {
            self.seen = false;
        }
        fn consume(&mut self, _fact: &Fact) -> Vec<Fact> {
            self.seen = true;
            Vec::new()
        }
        fn end_group(&mut self) -> Vec<Fact> {
            if self.seen {
                vec![fact("Marker", &[0])]
            } else {
                Vec::new()
            }
        }
        fn state_size(&self) -> usize {
            1
        }
    }

    /// Output facts are refcounted across groups: when two groups emit
    /// the same fact, retracting one group's support must keep the fact
    /// until the other group stops emitting it too.
    #[test]
    fn shared_output_facts_are_refcounted_across_groups() {
        let rels = [(rel("R"), vec![0])];
        let db = Instance::from_facts([fact("R", &[1]), fact("R", &[2])]);
        let mut session =
            DeltaStreamSession::new(&db, &rels, || MarkerReducer { seen: false }, 2, 17);
        assert_eq!(session.output().sorted_facts(), vec![fact("Marker", &[0])]);
        // Empty group 1; group 2 still supports the marker.
        session.push(&[], &[fact("R", &[1])]);
        assert_eq!(session.output().sorted_facts(), vec![fact("Marker", &[0])]);
        // Empty group 2 as well; now the marker must retract.
        session.push(&[], &[fact("R", &[2])]);
        assert!(session.output().is_empty());
    }
}
