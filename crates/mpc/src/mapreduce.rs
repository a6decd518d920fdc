//! The MapReduce formalism of Section 3, and its embedding into MPC.
//!
//! "Conceptually, a MapReduce job is a pair (μ, ρ) of functions … In the
//! map stage, each fact f is processed by μ, generating a collection
//! μ(f) of key-value pairs ⟨k : v⟩. The total collection … is grouped on
//! the key … Each group ⟨kᵢ : Vᵢ⟩ is processed by the reduce function ρ
//! … A MapReduce program is a sequence of MapReduce jobs. As MapReduce
//! provides a higher level of abstraction, it is a relevant formalism to
//! specify MPC algorithms."
//!
//! We realize keys as `u64`, values as [`Fact`]s, and execute a job on
//! the [`Cluster`] as one MPC round: the map phase runs in the (free)
//! local computation of the *previous* round, the shuffle is the
//! communication phase (key → server by hash), and the reduce phase is
//! the local computation — so MapReduce programs inherit the exact load
//! accounting of the model, as the survey's translation intends.

use crate::cluster::{Cluster, RoundStats};
use crate::partition::{seed_cluster, HashPartitioner, InitialPartition};
use parlog_relal::fact::{Fact, Val};
use parlog_relal::instance::Instance;
use parlog_relal::shard::Shard;
use parlog_relal::symbols::{rel, RelId};

/// A key-value pair emitted by a mapper: the key routes, the value is a
/// fact.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KeyValue {
    /// Grouping key.
    pub key: u64,
    /// The carried fact.
    pub value: Fact,
}

/// A map function μ: fact → key-value pairs.
pub type MapFn = Box<dyn Fn(&Fact) -> Vec<KeyValue> + Send + Sync>;
/// A reduce function ρ: (key, grouped values) → output facts.
pub type ReduceFn = Box<dyn Fn(u64, &Instance) -> Vec<Fact> + Send + Sync>;

/// A MapReduce job: a mapper and a reducer.
pub struct Job {
    /// Human-readable name (for reports).
    pub name: String,
    /// μ: fact → key-value pairs.
    pub map: MapFn,
    /// ρ: (key, values) → output facts.
    pub reduce: ReduceFn,
}

impl Job {
    /// Build a job from closures.
    pub fn new<M, R>(name: &str, map: M, reduce: R) -> Job
    where
        M: Fn(&Fact) -> Vec<KeyValue> + Send + Sync + 'static,
        R: Fn(u64, &Instance) -> Vec<Fact> + Send + Sync + 'static,
    {
        Job {
            name: name.into(),
            map: Box::new(map),
            reduce: Box::new(reduce),
        }
    }
}

/// A MapReduce program: a sequence of jobs.
#[derive(Default)]
pub struct MapReduceProgram {
    /// The jobs, executed in order.
    pub jobs: Vec<Job>,
}

impl MapReduceProgram {
    /// An empty program.
    pub fn new() -> MapReduceProgram {
        MapReduceProgram::default()
    }

    /// Append a job.
    pub fn then(mut self, job: Job) -> MapReduceProgram {
        self.jobs.push(job);
        self
    }

    /// Execute on `p` reducers (servers) within the MPC model: one
    /// communication round per job. Returns the final output (union of
    /// the last job's reducer outputs) and the per-round stats.
    pub fn run(&self, input: &Instance, p: usize, seed: u64) -> MapReduceReport {
        let mut cluster = Cluster::new(p);
        seed_cluster(&mut cluster, input, InitialPartition::RoundRobin);
        // Wrap key-value pairs as facts of a reserved relation `‡KV` with
        // args [key, …value args…] — the value's own relation is encoded
        // as the second arg.
        let kv_rel = rel("‡KV");
        for (ji, job) in self.jobs.iter().enumerate() {
            let h = HashPartitioner::new(seed ^ ((ji as u64) << 7), p);
            // Map locally: turn current facts into KV-wrapped facts.
            let mapper = &job.map;
            cluster.compute_per_server(|_, local| {
                let kvs = local.iter().flat_map(|f| mapper(&f));
                Shard::from_facts(kvs.map(|kv| encode_kv(kv_rel, &kv)))
            });
            // Shuffle: route each KV fact by its key.
            cluster.communicate(|f| {
                debug_assert_eq!(f.rel, kv_rel);
                vec![h.bucket(f.args[0])]
            });
            // Reduce locally: group by key and apply ρ.
            let reducer = &job.reduce;
            cluster.compute_per_server(|_, local| {
                let mut groups: parlog_relal::fastmap::FxMap<u64, Instance> =
                    parlog_relal::fastmap::fxmap();
                for f in local.iter().filter(|f| f.rel == kv_rel) {
                    let kv = decode_kv(&f);
                    groups.entry(kv.key).or_default().insert(kv.value);
                }
                let mut keys: Vec<u64> = groups.keys().copied().collect();
                keys.sort_unstable();
                Shard::from_facts(keys.into_iter().flat_map(|k| reducer(k, &groups[&k])))
            });
        }
        MapReduceReport {
            output: cluster.union_all(),
            rounds: cluster.rounds().to_vec(),
            max_load: cluster.max_load(),
            total_comm: cluster.total_comm(),
        }
    }
}

/// The outcome of a MapReduce program run.
#[derive(Debug, Clone)]
pub struct MapReduceReport {
    /// Union of the final reducer outputs.
    pub output: Instance,
    /// Per-job communication stats.
    pub rounds: Vec<RoundStats>,
    /// Maximum per-server load over all jobs.
    pub max_load: usize,
    /// Total key-value pairs shuffled.
    pub total_comm: usize,
}

fn encode_kv(kv_rel: RelId, kv: &KeyValue) -> Fact {
    let mut args = vec![Val(kv.key), Val(kv.value.rel.0 as u64)];
    args.extend(kv.value.args.iter().copied());
    Fact::new(kv_rel, args)
}

fn decode_kv(f: &Fact) -> KeyValue {
    KeyValue {
        key: f.args[0].0,
        value: Fact::new(
            parlog_relal::symbols::RelId(f.args[1].0 as u32),
            f.args[2..].to_vec(),
        ),
    }
}

/// The repartition join of Example 3.1(1a) as a one-job MapReduce
/// program: map `R(a,b) → ⟨b : R(a,b)⟩`, `S(c,d) → ⟨c : S(c,d)⟩`; reduce
/// joins its group.
pub fn repartition_join_program() -> MapReduceProgram {
    let r_rel = rel("R");
    let s_rel = rel("S");
    let h_rel = rel("H");
    MapReduceProgram::new().then(Job::new(
        "repartition-join",
        move |f| {
            if f.rel == r_rel {
                vec![KeyValue {
                    key: f.args[1].0,
                    value: f.clone(),
                }]
            } else if f.rel == s_rel {
                vec![KeyValue {
                    key: f.args[0].0,
                    value: f.clone(),
                }]
            } else {
                Vec::new()
            }
        },
        move |_key, group| {
            let mut out = Vec::new();
            for rf in group.relation(r_rel) {
                for sf in group.relation(s_rel) {
                    if rf.args[1] == sf.args[0] {
                        out.push(Fact::new(h_rel, [rf.args[0], rf.args[1], sf.args[1]]));
                    }
                }
            }
            out
        },
    ))
}

/// The two-round triangle cascade of Example 3.1(2) as a two-job
/// MapReduce program: job 1 joins R and S on y into K; job 2 joins K with
/// T on (z,x).
pub fn triangle_cascade_program() -> MapReduceProgram {
    let (r_rel, s_rel, t_rel) = (rel("R"), rel("S"), rel("T"));
    let k_rel = rel("‡MRK");
    let h_rel = rel("H");
    let pair_key = |a: Val, b: Val| {
        parlog_relal::fastmap::hash_u64(parlog_relal::fastmap::hash_u64(0x7177, a.0), b.0)
    };
    MapReduceProgram::new()
        .then(Job::new(
            "join-RS-on-y",
            move |f| {
                if f.rel == r_rel {
                    vec![KeyValue {
                        key: f.args[1].0,
                        value: f.clone(),
                    }]
                } else if f.rel == s_rel {
                    vec![KeyValue {
                        key: f.args[0].0,
                        value: f.clone(),
                    }]
                } else if f.rel == t_rel {
                    // T rides along to its own key; it is passed through
                    // untouched so job 2 can see it.
                    vec![KeyValue {
                        key: f.args[0].0,
                        value: f.clone(),
                    }]
                } else {
                    Vec::new()
                }
            },
            move |_k, group| {
                let mut out: Vec<Fact> = group.relation(t_rel).cloned().collect();
                for rf in group.relation(r_rel) {
                    for sf in group.relation(s_rel) {
                        if rf.args[1] == sf.args[0] {
                            out.push(Fact::new(k_rel, [rf.args[0], rf.args[1], sf.args[1]]));
                        }
                    }
                }
                out
            },
        ))
        .then(Job::new(
            "join-K-T-on-zx",
            move |f| {
                if f.rel == k_rel {
                    // K(x,y,z): key (x,z) — "each triple K(e,f,g) is sent
                    // to h'(e,g)".
                    vec![KeyValue {
                        key: pair_key(f.args[0], f.args[2]),
                        value: f.clone(),
                    }]
                } else if f.rel == t_rel {
                    // T(z,x) → h'(x,z) ("T(i,j) is sent to h'(j,i)").
                    vec![KeyValue {
                        key: pair_key(f.args[1], f.args[0]),
                        value: f.clone(),
                    }]
                } else {
                    Vec::new()
                }
            },
            move |_k, group| {
                let mut out = Vec::new();
                for kf in group.relation(k_rel) {
                    for tf in group.relation(t_rel) {
                        if kf.args[2] == tf.args[0] && kf.args[0] == tf.args[1] {
                            out.push(Fact::new(h_rel, kf.args.clone()));
                        }
                    }
                }
                out
            },
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;
    use parlog_relal::eval::eval_query;
    use parlog_relal::parser::parse_query;

    #[test]
    fn repartition_join_as_mapreduce() {
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z)").unwrap();
        let mut db = datagen::uniform_relation("R", 200, 60, 1);
        db.extend_from(&datagen::uniform_relation("S", 200, 60, 2));
        let report = repartition_join_program().run(&db, 8, 3);
        assert_eq!(report.output, eval_query(&q, &db));
        assert_eq!(report.rounds.len(), 1, "one job = one shuffle round");
    }

    #[test]
    fn triangle_cascade_as_mapreduce() {
        let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
        let db = datagen::triangle_db(150, 30, 5);
        let report = triangle_cascade_program().run(&db, 8, 1);
        assert_eq!(report.output, eval_query(&q, &db));
        assert_eq!(report.rounds.len(), 2, "two jobs = two rounds");
    }

    #[test]
    fn kv_encoding_roundtrips() {
        let kv = KeyValue {
            key: 42,
            value: parlog_relal::fact::fact("R", &[1, 2, 3]),
        };
        let enc = encode_kv(rel("‡KV"), &kv);
        assert_eq!(decode_kv(&enc), kv);
    }

    #[test]
    fn loads_are_accounted_per_job() {
        let db = datagen::triangle_db(300, 60, 7);
        let report = triangle_cascade_program().run(&db, 8, 1);
        assert!(report.rounds[0].total_comm > 0);
        assert!(report.rounds[1].total_comm > 0);
        assert_eq!(
            report.total_comm,
            report.rounds.iter().map(|r| r.total_comm).sum::<usize>()
        );
        assert!(report.max_load <= report.total_comm);
    }

    #[test]
    fn empty_input() {
        let report = repartition_join_program().run(&Instance::new(), 4, 0);
        assert!(report.output.is_empty());
    }

    #[test]
    fn custom_wordcount_style_job() {
        // A degenerate "count per first attribute" job showing the
        // formalism is not tied to joins.
        let cnt_rel = rel("Cnt");
        let e_rel = rel("E");
        let prog = MapReduceProgram::new().then(Job::new(
            "out-degree",
            move |f| {
                if f.rel == e_rel {
                    vec![KeyValue {
                        key: f.args[0].0,
                        value: f.clone(),
                    }]
                } else {
                    Vec::new()
                }
            },
            move |k, group| vec![Fact::new(cnt_rel, [Val(k), Val(group.len() as u64)])],
        ));
        let db = Instance::from_facts([
            parlog_relal::fact::fact("E", &[1, 2]),
            parlog_relal::fact::fact("E", &[1, 3]),
            parlog_relal::fact::fact("E", &[2, 3]),
        ]);
        let report = prog.run(&db, 4, 0);
        assert!(report
            .output
            .contains(&parlog_relal::fact::fact("Cnt", &[1, 2])));
        assert!(report
            .output
            .contains(&parlog_relal::fact::fact("Cnt", &[2, 1])));
    }
}
