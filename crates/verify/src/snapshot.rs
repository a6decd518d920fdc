//! Content-addressed snapshots: a deterministic Merkle root over the
//! facts of an [`Instance`].
//!
//! Every answer the verification layer handles is *bound to a snapshot
//! id*: the checker never trusts "the database the engine says it used",
//! it recomputes the root of the instance it was handed and compares.
//! Two design rules make the id meaningful:
//!
//! * **Process-independence.** Interned ids ([`RelId`], `Sym`) depend
//!   on the order names were interned in this process, so leaf hashes
//!   are computed over the *names* (as [`rel_name`]/[`val_name`] render
//!   them), never the numeric ids. The same logical instance hashes
//!   identically in any process, any interning order.
//! * **Order-independence.** Leaves are sorted by their hash bytes
//!   before the tree is built, so insertion order, shard iteration
//!   order and evaluation strategy cannot perturb the root. (This is
//!   regression-tested across `EvalStrategy` choices, thread counts and
//!   serde round-trips in the property suite.)
//!
//! Domain separation: leaf hashes start with `0x00`, interior nodes with
//! `0x01`, the empty instance is `H(0x02)`, and the cluster root binding
//! per-server shard roots in server order starts with `0x03` — no input
//! of one kind can collide with another.

use crate::sha256::{digest, hex, Sha256};
use parlog_relal::fact::Fact;
use parlog_relal::instance::Instance;
use parlog_relal::symbols::{rel_name, val_name, RelId, SYM_BASE};
use std::fmt;

/// A 256-bit content address of an instance (or answer, or shard).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SnapshotId(pub [u8; 32]);

impl SnapshotId {
    /// Full lower-case hex rendering.
    pub fn hex(&self) -> String {
        hex(&self.0)
    }

    /// The first 8 bytes as a `u64` — the compact form carried in trace
    /// event `info` fields.
    pub fn short(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"))
    }
}

impl fmt::Debug for SnapshotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SnapshotId({}…)", &self.hex()[..12])
    }
}

impl fmt::Display for SnapshotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

impl serde::Serialize for SnapshotId {
    fn json(&self, out: &mut String) {
        serde::write_json_str(out, &self.hex());
    }
}

/// Hash one fact into its leaf. Length-prefixed, name-based encoding:
/// `0x00 ‖ len(rel) ‖ rel ‖ arity ‖ (len(arg) ‖ arg)*` where every
/// component is rendered as the interner's *name* tables render it.
pub fn leaf_hash(f: &Fact) -> [u8; 32] {
    digest(Leaves::default().render(f))
}

/// The leaf renderer of one Merkle build, byte-equal to the name tables:
/// each relation's name is looked up once, a plain integer's digits come
/// from a stack buffer, and only symbols (`≥ SYM_BASE`) read the interner.
#[derive(Default)]
struct Leaves {
    names: Vec<(RelId, String)>,
    bytes: Vec<u8>,
}

impl Leaves {
    fn render(&mut self, f: &Fact) -> &[u8] {
        // Facts arrive grouped by relation: the newest entry is the likely one.
        let at = self
            .names
            .iter()
            .rposition(|(r, _)| *r == f.rel)
            .unwrap_or_else(|| {
                self.names.push((f.rel, rel_name(f.rel)));
                self.names.len() - 1
            });
        let out = &mut self.bytes;
        out.clear();
        out.push(0x00);
        put(out, self.names[at].1.as_bytes());
        out.extend_from_slice(&(f.args.len() as u32).to_le_bytes());
        for a in &f.args {
            if a.0 < SYM_BASE {
                let (mut digits, mut v) = ([0u8; 20], a.0);
                let n = v.checked_ilog10().unwrap_or(0) as usize + 1;
                for d in digits[..n].iter_mut().rev() {
                    *d = b'0' + (v % 10) as u8;
                    v /= 10;
                }
                put(out, &digits[..n]);
            } else {
                put(out, val_name(a.0).as_bytes());
            }
        }
        out
    }
}

/// Append `len(bytes) ‖ bytes`.
fn put(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Merkle root over a set of leaves. Leaves are sorted by hash bytes
/// (set semantics: duplicates collapse, order is irrelevant); an odd
/// node at any level is promoted unchanged.
fn merkle_root(mut leaves: Vec<[u8; 32]>) -> [u8; 32] {
    leaves.sort_unstable();
    leaves.dedup();
    if leaves.is_empty() {
        return digest(&[0x02]);
    }
    while leaves.len() > 1 {
        let mut next = Vec::with_capacity(leaves.len().div_ceil(2));
        let mut it = leaves.chunks_exact(2);
        for pair in &mut it {
            let mut h = Sha256::new();
            h.update(&[0x01]);
            h.update(&pair[0]);
            h.update(&pair[1]);
            next.push(h.finalize());
        }
        if let [odd] = it.remainder() {
            next.push(*odd);
        }
        leaves = next;
    }
    leaves[0]
}

/// The content address of an instance: the Merkle root over its facts'
/// leaf hashes.
pub fn snapshot(inst: &Instance) -> SnapshotId {
    let mut leaves = Leaves::default();
    SnapshotId(merkle_root(
        inst.iter().map(|f| digest(leaves.render(f))).collect(),
    ))
}

/// The content address of a pinned MVCC snapshot — the serving layer's
/// snapshot id. Process- and publication-order independent: two
/// replicas that converge to the same fact set publish the same id,
/// whatever their epoch histories, so the id doubles as a cross-replica
/// consistency check (and as the cache tag proof-carrying answers bind
/// their certificates to).
pub fn snapshot_id(s: &parlog_relal::snapshot::Snapshot) -> SnapshotId {
    snapshot(s.instance())
}

/// Per-server shard roots, in server order.
pub fn shard_roots(shards: &[Instance]) -> Vec<SnapshotId> {
    shards.iter().map(snapshot).collect()
}

/// The cluster-level snapshot id: binds every server's shard root *and*
/// its position, so swapping two shards (or dropping one) changes the id.
pub fn cluster_root(roots: &[SnapshotId]) -> SnapshotId {
    let mut h = Sha256::new();
    h.update(&[0x03]);
    h.update(&(roots.len() as u32).to_le_bytes());
    for r in roots {
        h.update(&r.0);
    }
    SnapshotId(h.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlog_relal::fact::fact;
    use parlog_relal::symbols::rel;

    #[test]
    fn root_is_insertion_order_independent() {
        let a = Instance::from_facts([fact("R", &[1, 2]), fact("S", &[3, 4]), fact("R", &[5, 6])]);
        let b = Instance::from_facts([fact("R", &[5, 6]), fact("R", &[1, 2]), fact("S", &[3, 4])]);
        assert_eq!(snapshot(&a), snapshot(&b));
    }

    #[test]
    fn root_separates_instances() {
        let a = Instance::from_facts([fact("R", &[1, 2])]);
        let b = Instance::from_facts([fact("R", &[1, 3])]);
        let c = Instance::from_facts([fact("S", &[1, 2])]);
        assert_ne!(snapshot(&a), snapshot(&b));
        assert_ne!(snapshot(&a), snapshot(&c));
        assert_ne!(snapshot(&a), snapshot(&Instance::new()));
    }

    /// The MVCC snapshot id is the content root of the pinned instance:
    /// stable across re-publication of the same facts, distinct per
    /// generation content, equal across independently caught-up stores.
    #[test]
    fn mvcc_snapshot_id_is_content_addressed() {
        use parlog_relal::snapshot::SnapshotStore;
        let store = SnapshotStore::new(Instance::from_facts([fact("R", &[1, 2])]));
        let s0 = store.pin();
        let id0 = snapshot_id(&s0);
        // Publishing identical content yields the identical id...
        let s1 = store.publish();
        assert_eq!(snapshot_id(&s1), id0);
        assert_ne!(s1.generation(), s0.generation());
        // ...and different content a different id.
        store.mutate(|w| {
            w.insert(fact("R", &[3, 4]));
        });
        let s2 = store.publish();
        assert_ne!(snapshot_id(&s2), id0);
        // An independent store converging to the same facts agrees.
        let other = SnapshotStore::new(Instance::from_facts([
            fact("R", &[3, 4]),
            fact("R", &[1, 2]),
        ]));
        assert_eq!(snapshot_id(&other.pin()), snapshot_id(&s2));
    }

    #[test]
    fn empty_instance_has_a_stable_root() {
        assert_eq!(snapshot(&Instance::new()), snapshot(&Instance::new()));
        assert_eq!(snapshot(&Instance::new()).0, digest(&[0x02]));
    }

    #[test]
    fn symbols_hash_by_name_not_interned_id() {
        use parlog_relal::fact::fact_syms;
        // Two facts over named constants: the leaf depends on the names,
        // which are interning-order stable, unlike the numeric Sym ids.
        let f = fact_syms("Likes", &["alice", "bob"]);
        let g = fact_syms("Likes", &["alice", "bob"]);
        assert_eq!(leaf_hash(&f), leaf_hash(&g));
        assert_ne!(
            leaf_hash(&f),
            leaf_hash(&fact_syms("Likes", &["bob", "alice"]))
        );
    }

    /// The per-build renderer writes the bytes the interner's name
    /// tables give: plain integers at every digit count up to
    /// `SYM_BASE - 1`, interned and never-interned symbols, multi-byte
    /// UTF-8 names and arity 0, across relations in any order.
    #[test]
    fn leaf_rendering_matches_the_name_tables() {
        use parlog_relal::fact::{fact_syms, Val};
        use parlog_relal::symbols::sym;
        let named = |f: &Fact| {
            let mut out = vec![0x00];
            put(&mut out, rel_name(f.rel).as_bytes());
            out.extend_from_slice(&(f.args.len() as u32).to_le_bytes());
            for a in &f.args {
                put(&mut out, val_name(a.0).as_bytes());
            }
            out
        };
        let mut ints: Vec<u64> = vec![0, 7, 9, 10, 99, 100, 12_345, u32::MAX.into()];
        ints.extend((1..=15).map(|k| 10u64.pow(k) - 1));
        ints.extend([SYM_BASE / 2, SYM_BASE - 1]);
        let spelled = sym("naïve 日本").0;
        let mut facts: Vec<Fact> = ints.iter().map(|&v| fact("R", &[v, v / 3])).collect();
        facts.extend([
            fact("Z", &[]),
            fact("R", &[0]),
            fact_syms("Wörter", &["ä", "日本語"]),
            fact_syms("R", &["alice", "bob"]),
            Fact::new(rel("Mixed"), vec![Val(spelled), Val(42), Val(u64::MAX)]),
            fact("Z", &[]),
        ]);
        let mut leaves = Leaves::default();
        for f in &facts {
            assert_eq!(leaves.render(f), &named(f)[..], "{f:?}");
            assert_eq!(leaf_hash(f), digest(&named(f)), "{f:?}");
        }
    }

    #[test]
    fn leaf_encoding_is_prefix_free() {
        // "ab"(c) vs "a"(bc): same concatenated text, different leaves —
        // the length prefixes disambiguate.
        use parlog_relal::fact::fact_syms;
        assert_ne!(
            leaf_hash(&fact_syms("ab", &["c"])),
            leaf_hash(&fact_syms("a", &["bc"]))
        );
    }

    #[test]
    fn cluster_root_binds_order_and_width() {
        let a = snapshot(&Instance::from_facts([fact("R", &[1, 2])]));
        let b = snapshot(&Instance::from_facts([fact("R", &[3, 4])]));
        assert_ne!(cluster_root(&[a, b]), cluster_root(&[b, a]));
        assert_ne!(cluster_root(&[a, b]), cluster_root(&[a, b, b]));
        assert_eq!(cluster_root(&[a, b]), cluster_root(&[a, b]));
    }

    #[test]
    fn snapshot_serializes_as_hex() {
        let id = snapshot(&Instance::from_facts([fact("R", &[1, 2])]));
        let json = serde_json::to_string(&id).unwrap();
        assert_eq!(json, format!("\"{}\"", id.hex()));
        assert_eq!(id.hex().len(), 64);
    }
}
