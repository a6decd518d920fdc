//! Hash partitioners and initial data placement.
//!
//! The MPC model assumes "the input data is initially partitioned among
//! the p servers and every server receives 1/p-th of the data … no
//! assumptions on the particular partitioning scheme". The placements
//! here realize that assumption (round-robin, value-hash, adversarial
//! single-server) so that algorithms can be shown independent of it.

use crate::cluster::{Cluster, Fate, RoundStats, ServerId};
use parlog_relal::fact::{Args, Fact, Val};
use parlog_relal::fastmap::hash_u64;
use parlog_relal::instance::Instance;
use parlog_relal::shard::{Arrivals, Shard};
use parlog_relal::symbols::RelId;

/// A seeded hash partitioner over domain values: the hash functions
/// `h : dom → [0, buckets)` of Examples 3.1 and 3.2.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct HashPartitioner {
    /// Seed distinguishing independent hash functions (`h`, `h'`, …).
    pub seed: u64,
    /// Number of buckets.
    pub buckets: usize,
}

impl HashPartitioner {
    /// Create a partitioner with `buckets` buckets and the given seed.
    pub fn new(seed: u64, buckets: usize) -> HashPartitioner {
        assert!(buckets > 0, "need at least one bucket");
        HashPartitioner { seed, buckets }
    }

    /// Hash a single value to a bucket.
    pub fn bucket(&self, v: Val) -> usize {
        (hash_u64(self.seed, v.0) % self.buckets as u64) as usize
    }

    /// Hash a tuple of values to a bucket (used for composite keys such as
    /// the pair `(e, g)` in the second round of Example 3.1(2)). A
    /// one-value key lands where [`HashPartitioner::bucket`] puts it.
    pub fn bucket_of(&self, vs: &[Val]) -> usize {
        self.bucket_of_vals(vs.iter().copied())
    }

    /// [`HashPartitioner::bucket_of`] the values `vs` yields.
    fn bucket_of_vals(&self, vs: impl IntoIterator<Item = Val>) -> usize {
        let h = vs.into_iter().fold(self.seed, |h, v| hash_u64(h, v.0));
        (h % self.buckets as u64) as usize
    }
}

/// One relation's route in a hash-on-key round: its facts go to the
/// partitioner's bucket of their key, the values at the positions.
pub type KeyRoute = (RelId, Vec<usize>, HashPartitioner);

/// `f`'s key under `routes` — its values at its relation's positions —
/// and the bucket the route sends it to; `None` for a relation without a
/// route.
pub(crate) fn key_bucket(routes: &[KeyRoute], f: &Fact) -> Option<(Args, ServerId)> {
    let (_, positions, h) = routes.iter().find(|(r, ..)| *r == f.rel)?;
    let key: Args = positions.iter().map(|&i| f.args[i]).collect();
    let bucket = h.bucket_of(&key);
    Some((key, bucket))
}

/// The bucket [`key_bucket`] sends `f` to, hashed from `f`'s values at
/// the positions without gathering them into a key.
fn bucket(routes: &[KeyRoute], f: &Fact) -> Option<ServerId> {
    let (_, positions, h) = routes.iter().find(|(r, ..)| *r == f.rel)?;
    Some(h.bucket_of_vals(positions.iter().map(|&i| f.args[i])))
}

/// The communication phase of a hash-on-key round — the one reshuffle of
/// every pairwise join, semijoin, fixpoint step and grouping: each fact
/// of a routed relation goes to the bucket of its key; every other fact
/// stays where it is, at no load.
pub fn route_by_key<'c>(cluster: &'c mut Cluster, routes: &[KeyRoute]) -> &'c RoundStats {
    cluster.route(&[], |_, f, out| match bucket(routes, f) {
        Some(s) => {
            out.push(s);
            Fate::Send
        }
        None => Fate::Keep,
    })
}

/// How to place the input database on the cluster before an algorithm
/// starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitialPartition {
    /// Facts dealt out round-robin (balanced, value-oblivious).
    RoundRobin,
    /// Facts placed by a hash of the whole tuple (balanced in expectation).
    HashTuple {
        /// Hash seed.
        seed: u64,
    },
    /// Everything on server 0 (adversarial placement).
    SingleServer,
}

/// Deal `db`'s facts, in sorted order, onto `p` fresh shards: the `i`-th
/// fact goes to `place(i, relation, args)`. A relation is read from `db`'s
/// cached identity trie when that is one tombstone-free run holding the
/// whole relation — its rows are the facts in sorted order, so nothing is
/// cloned or sorted; otherwise (stacked runs, or several arities merged
/// back into sorted order) its facts are sorted once. Every server's rows
/// arrive in order, so each of its runs is built without a re-sort.
pub fn deal<P>(p: usize, db: &Instance, place: P) -> Vec<Shard>
where
    P: Fn(usize, RelId, &[Val]) -> ServerId,
{
    let mut rels: Vec<RelId> = db.relations().collect();
    rels.sort_unstable();
    let mut shares = Arrivals::new(p);
    let (mut i, mut row) = (0, Vec::new());
    let mut deal_row = |shares: &mut Arrivals, g: usize, rel: RelId, vals: &[Val]| {
        shares.push(place(i, rel, vals), g, vals, false);
        i += 1;
    };
    for rel in rels {
        let k = db.relation(rel).next().map_or(0, |f| f.args.len());
        let layers = db.trie_layers(rel, &(0..k).collect::<Vec<_>>());
        match layers.runs() {
            [t] if !layers.has_tombstones() && t.rows() == db.relation_len(rel) => {
                let g = shares.group(rel, k);
                for r in 0..t.rows() {
                    row.clear();
                    t.push_row(r, &mut row);
                    deal_row(&mut shares, g, rel, &row);
                }
            }
            _ => {
                let mut facts: Vec<Fact> = db.relation(rel).cloned().collect();
                facts.sort();
                for f in &facts {
                    let g = shares.group(rel, f.args.len());
                    deal_row(&mut shares, g, rel, &f.args);
                }
            }
        }
    }
    let mut inboxes = shares.inboxes();
    inboxes.iter_mut().map(|s| s.build(|_| 0).0).collect()
}

/// Place `db` on `cluster` according to `how`. Panics if the cluster
/// already holds data.
pub fn seed_cluster(cluster: &mut Cluster, db: &Instance, how: InitialPartition) {
    for s in 0..cluster.p() {
        assert!(
            cluster.shard(s).is_empty(),
            "seed_cluster expects an empty cluster"
        );
    }
    let p = cluster.p();
    let place = |i: usize, rel: RelId, args: &[Val]| -> ServerId {
        match how {
            InitialPartition::RoundRobin => i % p,
            InitialPartition::HashTuple { seed } => {
                let mut h = seed;
                h = hash_u64(h, rel.0 as u64);
                for v in args {
                    h = hash_u64(h, v.0);
                }
                (h % p as u64) as usize
            }
            InitialPartition::SingleServer => 0,
        }
    };
    cluster.local = deal(p, db, place);
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlog_relal::fact::fact;

    fn db(n: u64) -> Instance {
        Instance::from_facts((0..n).map(|i| fact("R", &[i, i + 1])))
    }

    #[test]
    fn round_robin_is_balanced() {
        let mut c = Cluster::new(4);
        seed_cluster(&mut c, &db(100), InitialPartition::RoundRobin);
        for s in 0..4 {
            assert_eq!(c.local(s).len(), 25);
        }
        assert_eq!(c.union_all(), db(100));
    }

    #[test]
    fn hash_tuple_is_roughly_balanced_and_complete() {
        let mut c = Cluster::new(4);
        seed_cluster(&mut c, &db(400), InitialPartition::HashTuple { seed: 3 });
        assert_eq!(c.union_all(), db(400));
        for s in 0..4 {
            let n = c.local(s).len();
            assert!(n > 50 && n < 150, "server {s} got {n}");
        }
    }

    #[test]
    fn single_server_is_adversarial() {
        let mut c = Cluster::new(3);
        seed_cluster(&mut c, &db(10), InitialPartition::SingleServer);
        assert_eq!(c.local(0).len(), 10);
        assert_eq!(c.local(1).len(), 0);
    }

    #[test]
    fn partitioner_is_deterministic_and_spreads() {
        let h = HashPartitioner::new(7, 5);
        assert_eq!(h.bucket(Val(42)), h.bucket(Val(42)));
        let buckets: std::collections::HashSet<usize> =
            (0..100u64).map(|v| h.bucket(Val(v))).collect();
        assert_eq!(buckets.len(), 5);
        // Different seeds give (almost surely) different functions.
        let h2 = HashPartitioner::new(8, 5);
        assert!((0..100u64).any(|v| h.bucket(Val(v)) != h2.bucket(Val(v))));
    }

    #[test]
    fn composite_key_hashing() {
        let h = HashPartitioner::new(1, 8);
        assert_eq!(
            h.bucket_of(&[Val(1), Val(2)]),
            h.bucket_of(&[Val(1), Val(2)])
        );
        // Order matters for composite keys.
        let collisions = (0..50u64)
            .filter(|&v| h.bucket_of(&[Val(v), Val(v + 1)]) == h.bucket_of(&[Val(v + 1), Val(v)]))
            .count();
        assert!(collisions < 25);
    }

    #[test]
    #[should_panic(expected = "empty cluster")]
    fn seeding_twice_rejected() {
        let mut c = Cluster::new(2);
        seed_cluster(&mut c, &db(4), InitialPartition::RoundRobin);
        seed_cluster(&mut c, &db(4), InitialPartition::RoundRobin);
    }
}
