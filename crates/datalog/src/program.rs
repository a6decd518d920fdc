//! Datalog programs: rules, predicate dependencies, stratification.
//!
//! A rule is syntactically a [`ConjunctiveQuery`] (`H(x̄) ← body`), so the
//! rule language inherits the relal parser, safety validation,
//! inequalities and negated atoms. A program is a list of rules; the
//! predicates appearing in rule heads are the **IDB** predicates, all
//! others are **EDB**.
//!
//! The built-in predicate `ADom/1` denotes the active domain of the input
//! (plus program constants); it is what the survey's Example 5.13 uses to
//! write the complement of transitive closure safely.

use parlog_relal::fastmap::{fxmap, FxMap};
use parlog_relal::parser::{parse_query, ParseError};
use parlog_relal::query::{ConjunctiveQuery, QueryError};
use parlog_relal::symbols::{rel, RelId};
use std::fmt;
use std::sync::OnceLock;

/// The built-in active-domain predicate name.
pub const ADOM: &str = "ADom";

/// The relation id of [`ADOM`], interned on first use and read without a
/// lock after.
pub fn adom_id() -> RelId {
    static ID: OnceLock<RelId> = OnceLock::new();
    *ID.get_or_init(|| rel(ADOM))
}

/// Errors from program construction or stratification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A parse error, with the offending rule text.
    Parse(String),
    /// The program is not stratifiable: a predicate depends negatively on
    /// itself through recursion.
    NotStratifiable(String),
    /// A rule defines the built-in `ADom` predicate.
    RedefinesBuiltin,
    /// A rule assembled field by field is unsafe (the parser never
    /// produces one).
    UnsafeRule(QueryError),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Parse(s) => write!(f, "parse error: {s}"),
            ProgramError::NotStratifiable(p) => {
                write!(f, "program is not stratifiable: negative cycle through {p}")
            }
            ProgramError::RedefinesBuiltin => write!(f, "the ADom predicate is built in"),
            ProgramError::UnsafeRule(e) => write!(f, "unsafe rule: {e}"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// A Datalog program: a list of rules.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Program {
    /// The rules, in source order.
    pub rules: Vec<ConjunctiveQuery>,
}

impl Program {
    /// Build a program from rules.
    pub fn new(rules: Vec<ConjunctiveQuery>) -> Result<Program, ProgramError> {
        let adom = adom_id();
        if rules.iter().any(|r| r.head.rel == adom) {
            return Err(ProgramError::RedefinesBuiltin);
        }
        Ok(Program { rules })
    }

    /// The IDB predicates (those defined by some rule head).
    pub fn idb(&self) -> Vec<RelId> {
        let mut out: Vec<RelId> = self.rules.iter().map(|r| r.head.rel).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Is `p` an IDB predicate?
    pub fn is_idb(&self, p: RelId) -> bool {
        self.rules.iter().any(|r| r.head.rel == p)
    }

    /// The EDB predicates (body predicates never defined by a rule),
    /// excluding the built-in `ADom`.
    pub fn edb(&self) -> Vec<RelId> {
        let adom = adom_id();
        let mut out: Vec<RelId> = self
            .rules
            .iter()
            .flat_map(|r| r.body.iter().chain(r.negated.iter()))
            .map(|a| a.rel)
            .filter(|&p| !self.is_idb(p) && p != adom)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All predicates mentioned anywhere.
    pub fn predicates(&self) -> Vec<RelId> {
        let mut out: Vec<RelId> = self
            .rules
            .iter()
            .flat_map(|r| {
                std::iter::once(r.head.rel)
                    .chain(r.body.iter().map(|a| a.rel))
                    .chain(r.negated.iter().map(|a| a.rel))
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Compute a stratification. Returns an error when a predicate depends
    /// on itself through negation.
    pub fn stratify(&self) -> Result<Stratification, ProgramError> {
        let preds = self.predicates();
        let index: FxMap<RelId, usize> = preds.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        let n = preds.len();
        // Edges head ← body-predicate with polarity. edge (from=body pred,
        // to=head pred).
        let mut pos_edges: Vec<(usize, usize)> = Vec::new();
        let mut neg_edges: Vec<(usize, usize)> = Vec::new();
        for r in &self.rules {
            let h = index[&r.head.rel];
            for a in &r.body {
                pos_edges.push((index[&a.rel], h));
            }
            for a in &r.negated {
                neg_edges.push((index[&a.rel], h));
            }
        }
        // Longest-path style stratification: stratum[h] ≥ stratum[b] for
        // positive edges, stratum[h] ≥ stratum[b] + 1 for negative ones.
        // Iterate to fixpoint; more than n rounds of change ⇒ negative
        // cycle.
        let mut stratum = vec![0usize; n];
        for round in 0..=n * n + 1 {
            let mut changed = false;
            for &(b, h) in &pos_edges {
                if stratum[h] < stratum[b] {
                    stratum[h] = stratum[b];
                    changed = true;
                }
            }
            for &(b, h) in &neg_edges {
                if stratum[h] < stratum[b] + 1 {
                    stratum[h] = stratum[b] + 1;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            if stratum.iter().any(|&s| s > n) {
                let culprit = preds[stratum.iter().position(|&s| s > n).expect("found")];
                return Err(ProgramError::NotStratifiable(culprit.to_string()));
            }
            let _ = round;
        }
        // Normalize strata to 0..k and group rules by head stratum.
        let mut levels: Vec<usize> = stratum.clone();
        levels.sort_unstable();
        levels.dedup();
        let level_of = |s: usize| levels.binary_search(&s).expect("present");
        let mut rule_strata: Vec<Vec<usize>> = vec![Vec::new(); levels.len()];
        for (i, r) in self.rules.iter().enumerate() {
            rule_strata[level_of(stratum[index[&r.head.rel]])].push(i);
        }
        // Drop empty strata (possible when EDB-only levels exist).
        let pred_stratum: FxMap<RelId, usize> = preds
            .iter()
            .map(|&p| (p, level_of(stratum[index[&p]])))
            .collect();
        Ok(Stratification {
            rule_strata: rule_strata.into_iter().filter(|v| !v.is_empty()).collect(),
            pred_stratum,
        })
    }
}

/// A stratification: rule indices grouped into evaluation levels, and the
/// level of every predicate.
#[derive(Debug, Clone)]
pub struct Stratification {
    /// Rule indices per stratum, bottom-up.
    pub rule_strata: Vec<Vec<usize>>,
    /// The stratum of each predicate.
    pub pred_stratum: FxMap<RelId, usize>,
}

impl Stratification {
    /// Number of strata containing rules.
    pub fn len(&self) -> usize {
        self.rule_strata.len()
    }

    /// True when there are no rule strata.
    pub fn is_empty(&self) -> bool {
        self.rule_strata.is_empty()
    }
}

/// Parse a program: one rule per line (or separated by `.`), comments
/// start with `%` or `#`.
///
/// ```
/// use parlog_datalog::program::parse_program;
/// let p = parse_program(
///     "% transitive closure
///      TC(x,y) <- E(x,y)
///      TC(x,y) <- TC(x,z), TC(z,y)",
/// )
/// .unwrap();
/// assert_eq!(p.rules.len(), 2);
/// ```
pub fn parse_program(src: &str) -> Result<Program, ProgramError> {
    let mut rules = Vec::new();
    for raw in src.split(['\n', '.']) {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('%') || line.starts_with('#') {
            continue;
        }
        let rule = parse_query(line)
            .map_err(|e: ParseError| ProgramError::Parse(format!("{line}: {e}")))?;
        rules.push(rule);
    }
    Program::new(rules)
}

/// The dependency graph of a program, as adjacency lists with polarity —
/// used by the analyses and handy for debugging/reporting.
#[derive(Debug, Clone)]
pub struct DependencyGraph {
    /// All predicates, sorted.
    pub preds: Vec<RelId>,
    /// `edges[p]` = list of (q, negative?) meaning the definition of `p`
    /// uses `q` (negatively if the flag is set).
    pub edges: FxMap<RelId, Vec<(RelId, bool)>>,
}

impl DependencyGraph {
    /// Build the graph of `p`.
    pub fn of(p: &Program) -> DependencyGraph {
        let mut edges: FxMap<RelId, Vec<(RelId, bool)>> = fxmap();
        for r in &p.rules {
            let e = edges.entry(r.head.rel).or_default();
            for a in &r.body {
                e.push((a.rel, false));
            }
            for a in &r.negated {
                e.push((a.rel, true));
            }
        }
        DependencyGraph {
            preds: p.predicates(),
            edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edb_idb_split() {
        let p = parse_program("TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)").unwrap();
        assert_eq!(p.idb(), vec![rel("TC")]);
        assert_eq!(p.edb(), vec![rel("E")]);
    }

    #[test]
    fn positive_program_has_one_stratum() {
        let p = parse_program("TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)").unwrap();
        let s = p.stratify().unwrap();
        assert_eq!(s.len(), 1);
    }

    /// Example 5.13: complement of transitive closure.
    #[test]
    fn ntc_program_has_two_strata() {
        let p = parse_program(
            "TC(x,y) <- E(x,y)
             TC(x,y) <- TC(x,z), TC(z,y)
             OUT(x,y) <- ADom(x), ADom(y), not TC(x,y)",
        )
        .unwrap();
        let s = p.stratify().unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.pred_stratum[&rel("OUT")] > s.pred_stratum[&rel("TC")]);
    }

    #[test]
    fn win_move_is_not_stratifiable() {
        let p = parse_program("Win(x) <- Move(x,y), not Win(y)").unwrap();
        assert!(matches!(
            p.stratify(),
            Err(ProgramError::NotStratifiable(_))
        ));
    }

    #[test]
    fn negation_on_edb_is_stratifiable() {
        let p = parse_program("Open(x,y,z) <- E(x,y), E(y,z), not E(z,x)").unwrap();
        assert_eq!(p.stratify().unwrap().len(), 1);
    }

    #[test]
    fn three_strata_chain() {
        let p = parse_program(
            "A(x) <- E(x)
             B(x) <- E(x), not A(x)
             C(x) <- E(x), not B(x)",
        )
        .unwrap();
        let s = p.stratify().unwrap();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn adom_cannot_be_redefined() {
        assert_eq!(
            parse_program("ADom(x) <- E(x, y)").unwrap_err(),
            ProgramError::RedefinesBuiltin
        );
    }

    #[test]
    fn comments_and_periods() {
        let p = parse_program("% a comment\nT(x) <- E(x). T(x) <- F(x)").unwrap();
        assert_eq!(p.rules.len(), 2);
    }

    #[test]
    fn parse_error_carries_rule_text() {
        let e = parse_program("T(x) <- ").unwrap_err();
        assert!(matches!(e, ProgramError::Parse(s) if s.contains("T(x)")));
    }

    #[test]
    fn dependency_graph_polarity() {
        let p = parse_program("B(x) <- E(x), not A(x)\nA(x) <- E(x)").unwrap();
        let g = DependencyGraph::of(&p);
        let deps = &g.edges[&rel("B")];
        assert!(deps.contains(&(rel("E"), false)));
        assert!(deps.contains(&(rel("A"), true)));
    }
}
