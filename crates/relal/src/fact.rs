//! Domain values and facts.
//!
//! Section 2 of the survey: "we assume an infinite domain **dom** and a
//! database scheme consisting of relation names with associated arities. A
//! (database) instance I is simply a finite set of facts."

use crate::symbols::{rel, sym, val_name, RelId, Sym};
use std::fmt;

/// A domain value. The domain is (conceptually) infinite; we realize it as
/// `u64`, where small values are produced by data generators and values
/// above [`crate::symbols::SYM_BASE`] are named constants.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct Val(pub u64);

impl Val {
    /// The named constant `name`.
    pub fn named(name: &str) -> Val {
        Val(sym(name).0)
    }
}

impl From<u64> for Val {
    fn from(v: u64) -> Val {
        Val(v)
    }
}

impl From<Sym> for Val {
    fn from(s: Sym) -> Val {
        Val(s.0)
    }
}

impl fmt::Debug for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", val_name(self.0))
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", val_name(self.0))
    }
}

/// Arities up to this one are stored inside the [`Args`] value itself.
const INLINE_ARITY: usize = 4;

/// The argument tuple of a fact: a `[Val]` that owns its values.
///
/// Tuples of arity at most four — every relation the workloads use —
/// live inline, so cloning, routing or storing a fact is
/// a copy of a fixed-size value rather than a heap allocation; wider
/// tuples spill to one boxed slice. Which representation holds a tuple
/// is fixed by its length alone, and every observer (`Eq`, `Ord`,
/// `Hash`, `Debug`, JSON) sees only the slice, exactly as it saw the
/// `Vec<Val>` this type replaces — so hash-set iteration orders and
/// serialized records do not depend on it.
#[derive(Clone)]
pub struct Args(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, vals: [Val; INLINE_ARITY] },
    Spilled(Box<[Val]>),
}

impl Args {
    /// The values as a slice.
    pub fn as_slice(&self) -> &[Val] {
        match &self.0 {
            Repr::Inline { len, vals } => &vals[..*len as usize],
            Repr::Spilled(vals) => vals,
        }
    }
}

impl std::ops::Deref for Args {
    type Target = [Val];
    fn deref(&self) -> &[Val] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for Args {
    /// The values, mutable in place; the arity is fixed.
    fn deref_mut(&mut self) -> &mut [Val] {
        match &mut self.0 {
            Repr::Inline { len, vals } => &mut vals[..*len as usize],
            Repr::Spilled(vals) => vals,
        }
    }
}

impl FromIterator<Val> for Args {
    /// Fills the inline array and spills only on the fifth value, so an
    /// iterator of at most four values never allocates.
    fn from_iter<I: IntoIterator<Item = Val>>(iter: I) -> Args {
        let mut iter = iter.into_iter();
        let mut vals = [Val(0); INLINE_ARITY];
        for (len, slot) in vals.iter_mut().enumerate() {
            match iter.next() {
                Some(v) => *slot = v,
                None => {
                    return Args(Repr::Inline {
                        len: len as u8,
                        vals,
                    })
                }
            }
        }
        let Some(fifth) = iter.next() else {
            return Args(Repr::Inline {
                len: INLINE_ARITY as u8,
                vals,
            });
        };
        let mut spilled = Vec::with_capacity(INLINE_ARITY + 1 + iter.size_hint().0);
        spilled.extend_from_slice(&vals);
        spilled.push(fifth);
        spilled.extend(iter);
        Args(Repr::Spilled(spilled.into_boxed_slice()))
    }
}

impl From<&[Val]> for Args {
    fn from(vals: &[Val]) -> Args {
        vals.iter().copied().collect()
    }
}

impl<const N: usize> From<[Val; N]> for Args {
    fn from(vals: [Val; N]) -> Args {
        vals.into_iter().collect()
    }
}

impl From<Vec<Val>> for Args {
    fn from(vals: Vec<Val>) -> Args {
        if vals.len() <= INLINE_ARITY {
            Args::from(&vals[..])
        } else {
            Args(Repr::Spilled(vals.into_boxed_slice()))
        }
    }
}

impl<'a> IntoIterator for &'a Args {
    type Item = &'a Val;
    type IntoIter = std::slice::Iter<'a, Val>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for Args {
    fn eq(&self, other: &Args) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Args {}

impl PartialOrd for Args {
    fn partial_cmp(&self, other: &Args) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Args {
    fn cmp(&self, other: &Args) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for Args {
    /// The slice's hash (length prefix, then each value), which is also
    /// what `Vec<Val>` hashes to.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl fmt::Debug for Args {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl serde::Serialize for Args {
    fn json(&self, out: &mut String) {
        self.as_slice().json(out)
    }
}

/// A fact `R(a₁, …, aₖ)`: a relation name applied to domain values.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize)]
pub struct Fact {
    /// The relation this fact belongs to.
    pub rel: RelId,
    /// The argument tuple.
    pub args: Args,
}

impl Fact {
    /// Construct a fact from a relation id and arguments.
    pub fn new(rel: RelId, args: impl Into<Args>) -> Fact {
        Fact {
            rel,
            args: args.into(),
        }
    }

    /// Arity of the fact.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// The active domain of the fact: the set of values occurring in it
    /// (`adom(f)` in the survey). Returned as a sorted, deduplicated vec.
    pub fn adom(&self) -> Vec<Val> {
        let mut vs = self.args.to_vec();
        vs.sort_unstable();
        vs.dedup();
        vs
    }

    /// Does the fact mention the value `v`?
    pub fn mentions(&self, v: Val) -> bool {
        self.args.contains(&v)
    }

    /// Is the fact *domain distinct* from the value set `dom`, i.e. does it
    /// contain at least one value outside `dom`? (Section 5.2.2.)
    pub fn domain_distinct_from(&self, dom: &crate::fastmap::FxSet<Val>) -> bool {
        self.args.iter().any(|a| !dom.contains(a))
    }

    /// Is the fact *domain disjoint* from the value set `dom`, i.e. does it
    /// contain no value of `dom`? (Section 5.2.2.)
    pub fn domain_disjoint_from(&self, dom: &crate::fastmap::FxSet<Val>) -> bool {
        self.args.iter().all(|a| !dom.contains(a))
    }
}

impl fmt::Debug for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.rel)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Shorthand for building a fact over integer values:
/// `fact("R", &[1, 2])` is `R(1, 2)`.
pub fn fact(rel_name: &str, args: &[u64]) -> Fact {
    Fact::new(
        rel(rel_name),
        args.iter().map(|&v| Val(v)).collect::<Args>(),
    )
}

/// Shorthand for building a fact over named constants:
/// `fact_syms("R", &["a", "b"])` is `R(a, b)`.
pub fn fact_syms(rel_name: &str, args: &[&str]) -> Fact {
    Fact::new(
        rel(rel_name),
        args.iter().map(|s| Val::named(s)).collect::<Args>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastmap::fxset;

    #[test]
    fn fact_equality_and_display() {
        let f = fact("R", &[1, 2]);
        let g = fact("R", &[1, 2]);
        assert_eq!(f, g);
        assert_eq!(format!("{f}"), "R(1,2)");
    }

    #[test]
    fn named_constants_display() {
        let f = fact_syms("S", &["a", "b"]);
        assert_eq!(format!("{f}"), "S(a,b)");
        assert_eq!(f.arity(), 2);
    }

    #[test]
    fn adom_dedups() {
        let f = fact("R", &[3, 1, 3]);
        assert_eq!(f.adom(), vec![Val(1), Val(3)]);
    }

    #[test]
    fn domain_distinct_and_disjoint() {
        let mut dom = fxset();
        dom.insert(Val(1));
        dom.insert(Val(2));
        let inside = fact("R", &[1, 2]);
        let straddling = fact("R", &[2, 9]);
        let outside = fact("R", &[8, 9]);
        assert!(!inside.domain_distinct_from(&dom));
        assert!(straddling.domain_distinct_from(&dom));
        assert!(outside.domain_distinct_from(&dom));
        assert!(!inside.domain_disjoint_from(&dom));
        assert!(!straddling.domain_disjoint_from(&dom));
        assert!(outside.domain_disjoint_from(&dom));
    }

    fn fx_hash(x: &impl std::hash::Hash) -> u64 {
        use std::hash::Hasher;
        let mut h = crate::fastmap::FxHasher::default();
        x.hash(&mut h);
        h.finish()
    }

    fn json(x: &impl serde::Serialize) -> String {
        let mut out = String::new();
        x.json(&mut out);
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// `Args` is `Vec<Val>` to every observer, inline (arity ≤ 4) and
        /// spilled alike: the same `FxHasher` output, `Eq`/`Ord`, JSON and
        /// `Debug` — and so the same iteration order of a hash set.
        #[test]
        fn args_observe_like_a_vec(
            a in proptest::prop::collection::vec(0..4u64, 0..9),
            b in proptest::prop::collection::vec(0..4u64, 0..9),
            more in proptest::prop::collection::vec(
                proptest::prop::collection::vec(0..1000u64, 0..9), 0..40),
        ) {
            let vec_of = |xs: &[u64]| xs.iter().map(|&x| Val(x)).collect::<Vec<Val>>();
            let (va, vb) = (vec_of(&a), vec_of(&b));
            let (aa, ab) = (Args::from(va.clone()), va.iter().copied().collect::<Args>());
            let bb = Args::from(&vb[..]);
            proptest::prop_assert_eq!(&aa, &ab);
            proptest::prop_assert_eq!(matches!(aa.0, Repr::Inline { .. }), va.len() <= INLINE_ARITY);
            proptest::prop_assert_eq!(matches!(ab.0, Repr::Inline { .. }), va.len() <= INLINE_ARITY);
            proptest::prop_assert_eq!(aa.as_slice(), &va[..]);
            proptest::prop_assert_eq!(aa.to_vec(), va.clone());
            proptest::prop_assert_eq!(fx_hash(&aa), fx_hash(&va));
            proptest::prop_assert_eq!(fx_hash(&ab), fx_hash(&va));
            proptest::prop_assert_eq!(aa == bb, va == vb);
            proptest::prop_assert_eq!(aa.cmp(&bb), va.cmp(&vb));
            proptest::prop_assert_eq!(aa.partial_cmp(&bb), va.partial_cmp(&vb));
            proptest::prop_assert_eq!(json(&aa), json(&va));
            proptest::prop_assert_eq!(format!("{aa:?}"), format!("{va:?}"));
            let r = rel("ArgsVsVec");
            proptest::prop_assert_eq!(
                fx_hash(&Fact::new(r, aa.clone())),
                fx_hash(&(r, va.clone()))
            );

            let rows: Vec<Vec<Val>> = more.iter().map(|xs| vec_of(xs)).collect();
            let (mut as_vecs, mut as_args) = (fxset(), fxset());
            for row in &rows {
                as_vecs.insert(row.clone());
                as_args.insert(Args::from(&row[..]));
            }
            let order_vecs: Vec<&[Val]> = as_vecs.iter().map(|v| &v[..]).collect();
            let order_args: Vec<&[Val]> = as_args.iter().map(|v| &v[..]).collect();
            proptest::prop_assert_eq!(order_vecs, order_args);
        }
    }
}
