//! The monotonicity hierarchy `M ⊊ Mdistinct ⊊ Mdisjoint` — Section 5.2.
//!
//! * `Q ∈ M` (Definition 5.2): `Q(I) ⊆ Q(I ∪ J)` for all `I, J`.
//! * `Q ∈ Mdistinct` (Definition 5.5): … for all `J` **domain distinct**
//!   from `I` (every fact of `J` has a value outside `adom(I)`).
//! * `Q ∈ Mdisjoint` (Definition 5.9): … for all `J` **domain disjoint**
//!   from `I` (no fact of `J` mentions a value of `adom(I)`).
//!
//! Membership is undecidable in general (the classes are semantic), so we
//! provide:
//!
//! * **exhaustive bounded testers** — exact over all instances with at
//!   most `k` domain values (refutations are definitive; memberships hold
//!   "up to the bound");
//! * **randomized testers** for larger bounds;
//! * **witness validators** for the survey's explicit strictness examples
//!   (Examples 5.6 and 5.10), used by [`crate::figure2`].

use parlog_relal::fact::Val;
use parlog_relal::instance::Instance;
use parlog_relal::symbols::RelId;
use parlog_transducer::network::QueryFunction;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A relation schema: names with arities.
#[derive(Debug, Clone)]
pub struct Schema(pub Vec<(RelId, usize)>);

impl Schema {
    /// A schema of binary relations with the given names.
    pub fn binary(names: &[&str]) -> Schema {
        Schema(
            names
                .iter()
                .map(|n| (parlog_relal::symbols::rel(n), 2))
                .collect(),
        )
    }

    /// All candidate facts over the given universe.
    pub fn facts_over(&self, universe: &[Val]) -> Vec<parlog_relal::fact::Fact> {
        crate::pc::candidate_facts(&self.0, universe)
    }
}

/// A counterexample to (a weakened form of) monotonicity: `Q(I) ⊄ Q(I∪J)`.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The base instance.
    pub base: Instance,
    /// The extension.
    pub extension: Instance,
}

fn violates(q: &dyn QueryFunction, i: &Instance, j: &Instance) -> bool {
    !q.eval(i).is_subset_of(&q.eval(&i.union(j)))
}

/// Exhaustive monotonicity test over all `I ⊆ I∪J ⊆ facts({1..k})`.
/// Returns the first counterexample, or `None` when `Q` is monotone up to
/// the bound.
///
/// # Panics
/// Panics when the candidate-fact space exceeds 12 facts (3^12 ≈ 531k
/// evaluated pairs).
pub fn monotone_counterexample(
    q: &dyn QueryFunction,
    schema: &Schema,
    k: usize,
) -> Option<Counterexample> {
    let universe: Vec<Val> = (1..=k as u64).map(Val).collect();
    let facts = schema.facts_over(&universe);
    assert!(facts.len() <= 12, "{} candidate facts", facts.len());
    // Ternary code per fact: 0 = absent, 1 = in I (hence I∪J), 2 = J only.
    let total = 3u64.pow(facts.len() as u32);
    for code in 0..total {
        let mut i = Instance::new();
        let mut j = Instance::new();
        let mut c = code;
        for f in &facts {
            match c % 3 {
                1 => {
                    i.insert(f.clone());
                }
                2 => {
                    j.insert(f.clone());
                }
                _ => {}
            }
            c /= 3;
        }
        if violates(q, &i, &j) {
            return Some(Counterexample {
                base: i,
                extension: j,
            });
        }
    }
    None
}

/// Exhaustive domain-distinct-monotonicity test: `I` ranges over facts of
/// `{1..k_base}`, `J` over facts of `{1..k_base+k_fresh}` that are domain
/// distinct from `adom(I)`.
pub fn domain_distinct_counterexample(
    q: &dyn QueryFunction,
    schema: &Schema,
    k_base: usize,
    k_fresh: usize,
) -> Option<Counterexample> {
    let base_universe: Vec<Val> = (1..=k_base as u64).map(Val).collect();
    let full_universe: Vec<Val> = (1..=(k_base + k_fresh) as u64).map(Val).collect();
    let base_facts = schema.facts_over(&base_universe);
    let full_facts = schema.facts_over(&full_universe);
    assert!(base_facts.len() <= 12 && full_facts.len() <= 20);
    for imask in 0u64..(1 << base_facts.len()) {
        let i = Instance::from_facts(
            base_facts
                .iter()
                .enumerate()
                .filter(|(n, _)| imask & (1 << n) != 0)
                .map(|(_, f)| f.clone()),
        );
        let adom = i.adom();
        let j_candidates: Vec<_> = full_facts
            .iter()
            .filter(|f| f.domain_distinct_from(&adom) && !i.contains(f))
            .collect();
        assert!(
            j_candidates.len() <= 16,
            "bound too large: {} candidate extensions for one base instance - \
             a skipped configuration would make the tester silently unsound; \
             lower k_base/k_fresh or shrink the schema",
            j_candidates.len()
        );
        for jmask in 1u64..(1 << j_candidates.len()) {
            let j = Instance::from_facts(
                j_candidates
                    .iter()
                    .enumerate()
                    .filter(|(n, _)| jmask & (1 << n) != 0)
                    .map(|(_, f)| (*f).clone()),
            );
            if violates(q, &i, &j) {
                return Some(Counterexample {
                    base: i,
                    extension: j,
                });
            }
        }
    }
    None
}

/// Exhaustive domain-disjoint-monotonicity test (like
/// [`domain_distinct_counterexample`] with the stronger disjointness
/// constraint on `J`).
pub fn domain_disjoint_counterexample(
    q: &dyn QueryFunction,
    schema: &Schema,
    k_base: usize,
    k_fresh: usize,
) -> Option<Counterexample> {
    let base_universe: Vec<Val> = (1..=k_base as u64).map(Val).collect();
    let full_universe: Vec<Val> = (1..=(k_base + k_fresh) as u64).map(Val).collect();
    let base_facts = schema.facts_over(&base_universe);
    let full_facts = schema.facts_over(&full_universe);
    assert!(base_facts.len() <= 12 && full_facts.len() <= 20);
    for imask in 0u64..(1 << base_facts.len()) {
        let i = Instance::from_facts(
            base_facts
                .iter()
                .enumerate()
                .filter(|(n, _)| imask & (1 << n) != 0)
                .map(|(_, f)| f.clone()),
        );
        let adom = i.adom();
        let j_candidates: Vec<_> = full_facts
            .iter()
            .filter(|f| f.domain_disjoint_from(&adom))
            .collect();
        assert!(
            j_candidates.len() <= 16,
            "bound too large: {} candidate extensions for one base instance - \
             a skipped configuration would make the tester silently unsound; \
             lower k_base/k_fresh or shrink the schema",
            j_candidates.len()
        );
        for jmask in 1u64..(1 << j_candidates.len()) {
            let j = Instance::from_facts(
                j_candidates
                    .iter()
                    .enumerate()
                    .filter(|(n, _)| jmask & (1 << n) != 0)
                    .map(|(_, f)| (*f).clone()),
            );
            if violates(q, &i, &j) {
                return Some(Counterexample {
                    base: i,
                    extension: j,
                });
            }
        }
    }
    None
}

/// Randomized search for counterexamples with larger universes. `mode`
/// restricts `J`: 0 = unrestricted (plain monotonicity), 1 = domain
/// distinct, 2 = domain disjoint.
pub fn random_counterexample(
    q: &dyn QueryFunction,
    schema: &Schema,
    k: usize,
    mode: u8,
    samples: usize,
    seed: u64,
) -> Option<Counterexample> {
    let universe: Vec<Val> = (1..=k as u64).map(Val).collect();
    let facts = schema.facts_over(&universe);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..samples {
        let i = Instance::from_facts(
            facts
                .iter()
                .filter(|_| rng.gen_bool(0.3))
                .cloned()
                .collect::<Vec<_>>(),
        );
        let adom = i.adom();
        let j = Instance::from_facts(
            facts
                .iter()
                .filter(|f| match mode {
                    1 => f.domain_distinct_from(&adom),
                    2 => f.domain_disjoint_from(&adom),
                    _ => true,
                })
                .filter(|_| rng.gen_bool(0.4))
                .cloned()
                .collect::<Vec<_>>(),
        );
        if violates(q, &i, &j) {
            return Some(Counterexample {
                base: i,
                extension: j,
            });
        }
    }
    None
}

/// Validate an explicit strictness witness: checks `J`'s relationship to
/// `I` (per `mode`, as in [`random_counterexample`]) and that
/// `Q(I) ⊄ Q(I∪J)`. Used to machine-check the survey's Examples 5.6 and
/// 5.10.
pub fn validate_witness(
    q: &dyn QueryFunction,
    i: &Instance,
    j: &Instance,
    mode: u8,
) -> Result<(), String> {
    match mode {
        1 if !i.is_domain_distinct_extension(j) => {
            return Err("J is not domain distinct from I".into())
        }
        2 if !i.is_domain_disjoint_extension(j) => {
            return Err("J is not domain disjoint from I".into())
        }
        _ => {}
    }
    if violates(q, i, j) {
        Ok(())
    } else {
        Err(format!(
            "Q(I) ⊆ Q(I∪J): not a counterexample (|Q(I)| = {}, |Q(I∪J)| = {})",
            q.eval(i).len(),
            q.eval(&i.union(j)).len()
        ))
    }
}

/// Where a query sits in the hierarchy, as determined by the bounded
/// testers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum MonotonicityClass {
    /// No counterexample even for arbitrary extensions: `M` (up to bound).
    Monotone,
    /// Fails `M` but passes the domain-distinct tests: `Mdistinct ∖ M`.
    DomainDistinct,
    /// Fails `Mdistinct` but passes domain-disjoint: `Mdisjoint ∖ Mdistinct`.
    DomainDisjoint,
    /// Fails even domain-disjoint-monotonicity.
    NotDisjointMonotone,
}

/// Classify a query by the exhaustive bounded testers (`k = 3` for plain
/// monotonicity; `2+1` for the weaker notions).
pub fn classify(q: &dyn QueryFunction, schema: &Schema) -> MonotonicityClass {
    if monotone_counterexample(q, schema, 3).is_none() {
        MonotonicityClass::Monotone
    } else if domain_distinct_counterexample(q, schema, 2, 1).is_none() {
        MonotonicityClass::DomainDistinct
    } else if domain_disjoint_counterexample(q, schema, 2, 1).is_none() {
        MonotonicityClass::DomainDisjoint
    } else {
        MonotonicityClass::NotDisjointMonotone
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries;
    use parlog_relal::fact::fact;
    use parlog_relal::symbols::rel;

    /// A Datalog program projected to one output predicate, as a query
    /// function.
    pub fn datalog_query(p: parlog_datalog::program::Program, out: &str) -> impl QueryFunction {
        let out = rel(out);
        move |db: &Instance| {
            parlog_datalog::eval::eval_program(&p, db, parlog_relal::eval::EvalStrategy::Indexed)
                .map(|r| Instance::from_facts(r.relation(out).cloned().collect::<Vec<_>>()))
                .unwrap_or_default()
        }
    }

    #[test]
    fn triangles_are_monotone() {
        let q = queries::graph_triangles();
        let schema = Schema::binary(&["E"]);
        assert_eq!(classify(&q, &schema), MonotonicityClass::Monotone);
    }

    /// Example 5.6: the open-triangle query is in Mdistinct ∖ M.
    #[test]
    fn open_triangles_are_domain_distinct() {
        let q = queries::open_triangles();
        let schema = Schema::binary(&["E"]);
        let not_monotone = monotone_counterexample(&q, &schema, 3);
        assert!(not_monotone.is_some());
        assert_eq!(classify(&q, &schema), MonotonicityClass::DomainDistinct);
    }

    /// Example 5.6/5.10: ¬TC is in Mdisjoint ∖ Mdistinct — via the
    /// paper's own witness shape (I = {E(1,2)}, J = {E(2,3), E(3,1)}).
    #[test]
    fn ntc_is_domain_disjoint_not_distinct() {
        let q = datalog_query(queries::ntc_program(), "NTC");
        let schema = Schema::binary(&["E"]);
        // Explicit witness against Mdistinct:
        let i = Instance::from_facts([fact("E", &[1, 2])]);
        let j = Instance::from_facts([fact("E", &[2, 3]), fact("E", &[3, 1])]);
        validate_witness(&q, &i, &j, 1).unwrap();
        // And the exhaustive tester finds one too, but no disjoint one.
        assert_eq!(classify(&q, &schema), MonotonicityClass::DomainDisjoint);
    }

    /// Example 5.10: QNT is not even domain-disjoint-monotone — witness:
    /// I = {E(1,1), E(2,2)}, J = a triangle on fresh values.
    #[test]
    fn qnt_is_not_disjoint_monotone() {
        let q = datalog_query(queries::qnt_program(), "OUT");
        let i = Instance::from_facts([fact("E", &[1, 1]), fact("E", &[2, 2])]);
        let j = Instance::from_facts([fact("E", &[4, 5]), fact("E", &[5, 6]), fact("E", &[6, 4])]);
        validate_witness(&q, &i, &j, 2).unwrap();
    }

    #[test]
    fn tc_is_monotone() {
        let q = datalog_query(queries::tc_program(), "TC");
        let schema = Schema::binary(&["E"]);
        assert_eq!(classify(&q, &schema), MonotonicityClass::Monotone);
    }

    #[test]
    fn random_tester_finds_open_triangle_counterexample() {
        let q = queries::open_triangles();
        let schema = Schema::binary(&["E"]);
        assert!(random_counterexample(&q, &schema, 4, 0, 500, 7).is_some());
        // …but no domain-distinct one.
        assert!(random_counterexample(&q, &schema, 4, 1, 200, 7).is_none());
    }

    #[test]
    fn witness_validation_rejects_wrong_mode() {
        let q = queries::open_triangles();
        let i = Instance::from_facts([fact("E", &[1, 2]), fact("E", &[2, 3])]);
        // J touching only adom(I) is not domain distinct.
        let j = Instance::from_facts([fact("E", &[3, 1])]);
        assert!(validate_witness(&q, &i, &j, 1).is_err());
        // As a plain-monotonicity witness it is fine (closing the
        // triangle kills the open triangle).
        validate_witness(&q, &i, &j, 0).unwrap();
    }
}
