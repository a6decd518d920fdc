//! Value invention — a wILOG-style extension of Datalog.
//!
//! Figure 2 of the survey uses Cabibbo's results: Datalog(≠) captures `M`,
//! semi-positive Datalog **with value invention** captures `Mdistinct`,
//! and semi-connected stratified Datalog with value invention captures
//! `Mdisjoint`. Value invention means a rule head may use variables that
//! do not occur in the body; each distinct body instantiation *invents* a
//! fresh domain value for them (deterministically memoized, as in ILOG's
//! semantics, so re-derivations reuse the same value).
//!
//! Because invention plus recursion can diverge, evaluation takes a cap on
//! the number of invented values and reports an error when exceeded.

use crate::program::ADOM;
use parlog_relal::atom::{Atom, Var};
use parlog_relal::eval::satisfying_valuations;
use parlog_relal::fact::{Fact, Val};
use parlog_relal::fastmap::{fxmap, FxMap};
use parlog_relal::instance::Instance;
use parlog_relal::parser::{parse_rule_unchecked, ParseError};
use parlog_relal::query::ConjunctiveQuery;
use parlog_relal::symbols::rel;
use parlog_relal::valuation::Valuation;
use std::fmt;

/// Invented values are allocated from this base upward — above any data
/// value a generator produces, below the interned-symbol range.
pub const INVENTION_BASE: u64 = 1 << 40;

/// A rule whose head may contain *invented* variables (head variables not
/// occurring in the body).
#[derive(Debug, Clone)]
pub struct InventionRule {
    /// The head atom.
    pub head: Atom,
    /// Positive body atoms.
    pub body: Vec<Atom>,
    /// Negated atoms (must be safe: variables bound positively).
    pub negated: Vec<Atom>,
    /// Inequalities.
    pub inequalities: Vec<(parlog_relal::atom::Term, parlog_relal::atom::Term)>,
    /// The invented head variables, in order of first occurrence.
    pub invented: Vec<Var>,
}

/// Errors from invention programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InventionError {
    /// Parse failure.
    Parse(String),
    /// A non-head variable is unsafe (negated/inequality var unbound).
    Unsafe(String),
    /// Evaluation invented more values than the configured cap.
    Diverged {
        /// The cap that was exceeded.
        cap: usize,
    },
}

impl fmt::Display for InventionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InventionError::Parse(s) => write!(f, "parse error: {s}"),
            InventionError::Unsafe(s) => write!(f, "unsafe rule: {s}"),
            InventionError::Diverged { cap } => {
                write!(f, "evaluation exceeded the invention cap of {cap} values")
            }
        }
    }
}

impl std::error::Error for InventionError {}

impl InventionRule {
    /// Parse a rule, allowing invented head variables.
    pub fn parse(src: &str) -> Result<InventionRule, InventionError> {
        let (head, body, negated, inequalities) = parse_rule_unchecked(src)
            .map_err(|e: ParseError| InventionError::Parse(e.to_string()))?;
        let body_vars: Vec<Var> = body.iter().flat_map(|a| a.variables()).collect();
        for a in &negated {
            for v in a.variables() {
                if !body_vars.contains(&v) {
                    return Err(InventionError::Unsafe(format!(
                        "negated variable {v} unbound in {src}"
                    )));
                }
            }
        }
        for (s, t) in &inequalities {
            for term in [s, t] {
                if let parlog_relal::atom::Term::Var(v) = term {
                    if !body_vars.contains(v) {
                        return Err(InventionError::Unsafe(format!(
                            "inequality variable {v} unbound in {src}"
                        )));
                    }
                }
            }
        }
        let invented: Vec<Var> = head
            .variables()
            .into_iter()
            .filter(|v| !body_vars.contains(v))
            .collect();
        Ok(InventionRule {
            head,
            body,
            negated,
            inequalities,
            invented,
        })
    }

    /// The rule as a plain CQ over its *bound* part (for body matching):
    /// head stripped to a nullary marker so safety holds.
    fn body_query(&self) -> ConjunctiveQuery {
        ConjunctiveQuery {
            head: Atom::new(rel("⊤"), Vec::new()),
            body: self.body.clone(),
            negated: self.negated.clone(),
            inequalities: self.inequalities.clone(),
        }
    }
}

/// A program of invention rules, evaluated naively to fixpoint.
#[derive(Debug, Clone)]
pub struct InventionProgram {
    /// The rules.
    pub rules: Vec<InventionRule>,
    /// Cap on invented values (default 10 000).
    pub max_invented: usize,
}

impl InventionProgram {
    /// Parse a program (one rule per line; `%`/`#` comments).
    pub fn parse(src: &str) -> Result<InventionProgram, InventionError> {
        let mut rules = Vec::new();
        for raw in src.split(['\n', '.']) {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('%') || line.starts_with('#') {
                continue;
            }
            rules.push(InventionRule::parse(line)?);
        }
        Ok(InventionProgram {
            rules,
            max_invented: 10_000,
        })
    }

    /// Evaluate on `edb` to fixpoint. Invented values are memoized per
    /// (rule, body binding), so evaluation is deterministic.
    pub fn eval(&self, edb: &Instance) -> Result<Instance, InventionError> {
        let mut db = edb.clone();
        // Built-in ADom over the *original* input (invented values do not
        // enter ADom — they are new domain elements, not active-domain
        // ones; this matches the "weak" in wILOG).
        let adom_rel = rel(ADOM);
        for v in db.adom_sorted() {
            db.insert(Fact::new(adom_rel, [v]));
        }
        let mut memo: FxMap<(usize, Vec<Val>), Vec<Val>> = fxmap();
        let mut next_val = INVENTION_BASE;
        loop {
            let mut changed = false;
            for (ri, r) in self.rules.iter().enumerate() {
                let bq = r.body_query();
                for v in satisfying_valuations(&bq, &db) {
                    let f = self.instantiate_head(ri, r, &v, &mut memo, &mut next_val)?;
                    if db.insert(f) {
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Strip ADom helpers.
        let gone: Vec<Fact> = db.iter().filter(|f| f.rel == adom_rel).cloned().collect();
        for f in gone {
            db.remove(&f);
        }
        Ok(db)
    }

    fn instantiate_head(
        &self,
        rule_idx: usize,
        r: &InventionRule,
        v: &Valuation,
        memo: &mut FxMap<(usize, Vec<Val>), Vec<Val>>,
        next_val: &mut u64,
    ) -> Result<Fact, InventionError> {
        // Memo key: the full body binding (ILOG semantics — one invention
        // per distinct rule instantiation). Valuations iterate in variable
        // order, so the key is deterministic.
        let key: Vec<Val> = v.iter().map(|(_, val)| val).collect();
        let invented = memo.entry((rule_idx, key)).or_insert_with(|| {
            let vals: Vec<Val> = r
                .invented
                .iter()
                .enumerate()
                .map(|(i, _)| Val(*next_val + i as u64))
                .collect();
            *next_val += r.invented.len() as u64;
            vals
        });
        if (*next_val - INVENTION_BASE) as usize > self.max_invented {
            return Err(InventionError::Diverged {
                cap: self.max_invented,
            });
        }
        let mut full = v.clone();
        for (var, val) in r.invented.iter().zip(invented.iter()) {
            full.bind(var.clone(), *val);
        }
        Ok(full.apply(&r.head).expect("total on head"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlog_relal::fact::fact;

    #[test]
    fn invents_one_value_per_body_binding() {
        let p = InventionProgram::parse("Pair(n, x, y) <- E(x, y)").unwrap();
        let db = Instance::from_facts([fact("E", &[1, 2]), fact("E", &[3, 4])]);
        let out = p.eval(&db).unwrap();
        let pairs: Vec<Fact> = out.relation(rel("Pair")).cloned().collect();
        assert_eq!(pairs.len(), 2);
        // Distinct fresh ids.
        assert_ne!(pairs[0].args[0], pairs[1].args[0]);
        for f in &pairs {
            assert!(f.args[0].0 >= INVENTION_BASE);
        }
    }

    #[test]
    fn memoization_is_stable_across_rederivation() {
        // Two rules deriving E twice should not double-invent.
        let p = InventionProgram::parse(
            "Id(n, x) <- V(x)
             Copy(n, x) <- Id(n, x)",
        )
        .unwrap();
        let db = Instance::from_facts([fact("V", &[7])]);
        let out = p.eval(&db).unwrap();
        assert_eq!(out.relation_len(rel("Id")), 1);
        assert_eq!(out.relation_len(rel("Copy")), 1);
        let id: Vec<_> = out.relation(rel("Id")).collect();
        let copy: Vec<_> = out.relation(rel("Copy")).collect();
        assert_eq!(id[0].args[0], copy[0].args[0]);
    }

    #[test]
    fn divergence_is_capped() {
        // Invention feeding its own body diverges; the cap must trip.
        let mut p = InventionProgram::parse("N(y) <- N(x)").unwrap();
        p.max_invented = 50;
        let db = Instance::from_facts([fact("N", &[1])]);
        assert!(matches!(
            p.eval(&db),
            Err(InventionError::Diverged { cap: 50 })
        ));
    }

    #[test]
    fn plain_rules_still_work() {
        let p = InventionProgram::parse("TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), E(z,y)").unwrap();
        let db = Instance::from_facts([fact("E", &[1, 2]), fact("E", &[2, 3])]);
        let out = p.eval(&db).unwrap();
        assert!(out.contains(&fact("TC", &[1, 3])));
    }

    #[test]
    fn unsafe_negation_rejected() {
        assert!(matches!(
            InventionRule::parse("H(x) <- E(x), not F(z)"),
            Err(InventionError::Unsafe(_))
        ));
    }

    #[test]
    fn invented_vars_detected() {
        let r = InventionRule::parse("H(n, x, m) <- E(x)").unwrap();
        assert_eq!(r.invented, vec![Var::new("n"), Var::new("m")]);
    }
}
