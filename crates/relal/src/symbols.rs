//! Process-wide interning of relation names and constant symbols.
//!
//! The theory in the survey works over an abstract infinite domain **dom**
//! and a database schema of relation names. We intern both kinds of names
//! into small integer ids so that [`crate::Fact`]s are compact and cheap to
//! hash, while remaining printable for diagnostics and reports.
//!
//! Interning is global (a `OnceLock`-guarded table behind a
//! `std::sync::RwLock`). This mirrors how compilers intern symbols: it
//! keeps every API in the workspace free of an explicit interner parameter.
//! Ids are stable for the lifetime of the process, which is all the
//! simulators and decision procedures need.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// An interned relation name, e.g. `R` in `R(x, y)`.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct RelId(pub u32);

/// An interned constant symbol, e.g. `'a'` in `R('a', x)`.
///
/// Symbols share the value space of [`crate::Val`]: a symbol `s` denotes the
/// domain value `Val(s.0)`. Plain integers written in query text denote
/// themselves; interned symbols are allocated from the top of the `u64`
/// range downward so the two never collide in practice.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct Sym(pub u64);

/// First value used for interned symbols. Values below this are "plain"
/// integers (used by data generators); values at or above are named
/// constants. `1 << 48` leaves astronomically more room than any simulation
/// uses on either side.
pub const SYM_BASE: u64 = 1 << 48;

struct Interner {
    rel_names: Vec<String>,
    rel_ids: HashMap<String, RelId>,
    sym_names: Vec<String>,
    sym_ids: HashMap<String, Sym>,
}

impl Interner {
    fn new() -> Self {
        Interner {
            rel_names: Vec::new(),
            rel_ids: HashMap::new(),
            sym_names: Vec::new(),
            sym_ids: HashMap::new(),
        }
    }
}

fn table() -> &'static RwLock<Interner> {
    static TABLE: OnceLock<RwLock<Interner>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(Interner::new()))
}

/// The table, shared. A panic while holding the lock cannot leave it
/// half-written (each entry is one push and one insert), so poisoning is
/// ignored.
fn read() -> RwLockReadGuard<'static, Interner> {
    table().read().unwrap_or_else(PoisonError::into_inner)
}

/// The table, exclusive (poisoning ignored as in [`read`]).
fn write() -> RwLockWriteGuard<'static, Interner> {
    table().write().unwrap_or_else(PoisonError::into_inner)
}

/// Intern a relation name, returning its stable id.
///
/// ```
/// use parlog_relal::symbols::rel;
/// assert_eq!(rel("R"), rel("R"));
/// assert_ne!(rel("R"), rel("S"));
/// ```
pub fn rel(name: &str) -> RelId {
    if let Some(&id) = read().rel_ids.get(name) {
        return id;
    }
    let mut t = write();
    if let Some(&id) = t.rel_ids.get(name) {
        return id;
    }
    let id = RelId(t.rel_names.len() as u32);
    t.rel_names.push(name.to_owned());
    t.rel_ids.insert(name.to_owned(), id);
    id
}

/// Intern a constant symbol, returning its stable id.
///
/// ```
/// use parlog_relal::symbols::sym;
/// assert_eq!(sym("a"), sym("a"));
/// assert_ne!(sym("a"), sym("b"));
/// ```
pub fn sym(name: &str) -> Sym {
    if let Some(&id) = read().sym_ids.get(name) {
        return id;
    }
    let mut t = write();
    if let Some(&id) = t.sym_ids.get(name) {
        return id;
    }
    let id = Sym(SYM_BASE + t.sym_names.len() as u64);
    t.sym_names.push(name.to_owned());
    t.sym_ids.insert(name.to_owned(), id);
    id
}

/// Look up the name of a relation id. Returns `"?rel<n>"` for ids that were
/// never interned (which cannot happen through the public API).
pub fn rel_name(id: RelId) -> String {
    let t = read();
    t.rel_names
        .get(id.0 as usize)
        .cloned()
        .unwrap_or_else(|| format!("?rel{}", id.0))
}

/// Render a domain value: named constants print their symbol name, plain
/// integers print numerically.
pub fn val_name(v: u64) -> String {
    if v >= SYM_BASE {
        let t = read();
        if let Some(name) = t.sym_names.get((v - SYM_BASE) as usize) {
            return name.clone();
        }
    }
    v.to_string()
}

impl fmt::Debug for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", rel_name(*self))
    }
}

impl fmt::Display for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", rel_name(*self))
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", val_name(self.0))
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", val_name(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_interning_is_stable() {
        let a = rel("Customer");
        let b = rel("Customer");
        assert_eq!(a, b);
        assert_eq!(rel_name(a), "Customer");
    }

    #[test]
    fn sym_interning_is_stable_and_disjoint_from_integers() {
        let a = sym("alpha");
        assert_eq!(a, sym("alpha"));
        assert!(a.0 >= SYM_BASE);
        assert_eq!(val_name(a.0), "alpha");
        assert_eq!(val_name(42), "42");
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        assert_ne!(rel("Rx"), rel("Ry"));
        assert_ne!(sym("sx"), sym("sy"));
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| (rel("Shared"), sym("shared"))))
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }
}
