//! # `parlog-relal` — the relational substrate
//!
//! This crate provides the relational foundations that every other crate in
//! the `parlog` workspace builds on. It corresponds to Section 2
//! ("Preliminaries") of Neven's PODS'16 survey *Logical Aspects of Massively
//! Parallel and Distributed Systems*, together with the classical machinery
//! the survey relies on implicitly:
//!
//! * **Values, facts and instances** ([`Val`], [`Fact`], [`Instance`]) — a
//!   database instance is a finite set of facts over an infinite domain.
//! * **Conjunctive queries** ([`ConjunctiveQuery`]) with optional
//!   inequalities and negated atoms, unions thereof ([`UnionQuery`]), and a
//!   small text [`parser`].
//! * **Valuations and evaluation** ([`Valuation`], [`eval`], [`trie`]) —
//!   the valuation-based semantics of Section 2, computed through one
//!   compiled [`eval::QueryPlan`] by a worst-case-optimal trie join, a
//!   hash-indexed backtracker, or the naive reference enumeration.
//! * **Minimal valuations** ([`minimal`]) — Definition 4.4 of the survey,
//!   the key notion behind parallel-correctness (Proposition 4.6).
//! * **Homomorphisms, containment and cores** ([`containment`]) — the
//!   classical Chandra–Merlin machinery used in Section 4.2.
//! * **Query hypergraphs, acyclicity and join trees** ([`hypergraph`]) —
//!   GYO reduction and join-tree construction used by the distributed
//!   Yannakakis and GYM algorithms of Section 3.2.
//! * **Fractional edge packings and covers** ([`packing`], [`simplex`]) —
//!   the linear programs whose optima `τ*` govern the HyperCube load bound
//!   `O(m/p^{1/τ*})` (Section 3.1), solved with a self-contained two-phase
//!   simplex implementation.
//!
//! ## Conventions
//!
//! Relation and constant symbols are interned in a process-wide
//! [`symbols`] table so that facts are small, `Copy`-cheap to hash, and
//! printable. The text syntax for queries follows the paper:
//!
//! ```text
//! H(x, z) <- R(x, y), R(y, z), not S(z, x), x != y
//! ```
//!
//! Identifiers in atom argument positions are variables; constants are
//! written `'a'` (interned symbols) or unadorned integers.
//!
//! ## Quick example
//!
//! ```
//! use parlog_relal::prelude::*;
//!
//! // The triangle query of Example 3.1(2):
//! let q = parse_query("H(x,y,z) <- R(x,y), S(y,z), T(z,x)").unwrap();
//! let mut db = Instance::new();
//! db.insert(fact("R", &[1, 2]));
//! db.insert(fact("S", &[2, 3]));
//! db.insert(fact("T", &[3, 1]));
//! let out = eval_query(&q, &db);
//! assert_eq!(out.len(), 1);
//! ```

pub mod algebra;
pub mod atom;
pub mod containment;
pub mod delta;
pub mod eval;
pub mod fact;
pub mod fastmap;
pub mod hypergraph;
pub mod instance;
pub mod lsm;
pub mod minimal;
pub mod opcount;
pub mod packing;
pub mod parser;
pub mod policy;
pub mod query;
pub mod shard;
pub mod simplex;
pub mod snapshot;
pub mod symbols;
pub mod trie;
pub mod valuation;

pub use atom::{Atom, Term, Var};
pub use delta::{DeltaEntry, DeltaLog, DeltaOp};
pub use fact::{Fact, Val};
pub use instance::Instance;
pub use query::{ConjunctiveQuery, QueryError, UnionQuery};
pub use shard::{Relations, Shard};
pub use snapshot::{Snapshot, SnapshotStore};
pub use symbols::{RelId, Sym};
pub use valuation::Valuation;

/// Convenient glob-import of the most commonly used items.
pub mod prelude {
    pub use crate::atom::{Atom, Term, Var};
    pub use crate::containment::{contains, equivalent, homomorphism};
    pub use crate::delta::{DeltaEntry, DeltaLog, DeltaOp};
    pub use crate::eval::{
        eval_query, eval_query_with, eval_union, eval_union_with, satisfying_valuations,
        EvalStrategy,
    };
    pub use crate::fact::{fact, fact_syms, Fact, Val};
    pub use crate::instance::Instance;
    pub use crate::minimal::{minimal_valuations, minimal_valuations_over};
    pub use crate::parser::{parse_atom, parse_query, parse_union};
    pub use crate::policy::{
        DistributionPolicy, DomainGuidedPolicy, ExplicitPolicy, HashPolicy, RangePolicy,
        ReplicateAll,
    };
    pub use crate::query::{ConjunctiveQuery, UnionQuery};
    pub use crate::snapshot::{Snapshot, SnapshotStore};
    pub use crate::symbols::{rel, sym, RelId, Sym};
    pub use crate::valuation::Valuation;
}
