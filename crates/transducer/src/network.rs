//! Node state for relational transducer networks.

use parlog_relal::eval::EvalStrategy;
use parlog_relal::fact::Fact;
use parlog_relal::instance::Instance;
use parlog_relal::query::{ConjunctiveQuery, UnionQuery};

/// A query as a black-box function on instances — the survey's nodes may
/// run "any computable (but generic) function". Conjunctive queries,
/// unions, Datalog programs and closures all implement it.
pub trait QueryFunction: Send + Sync {
    /// Evaluate the query on an instance.
    fn eval(&self, db: &Instance) -> Instance;
}

impl QueryFunction for ConjunctiveQuery {
    fn eval(&self, db: &Instance) -> Instance {
        parlog_relal::eval::eval_query(self, db)
    }
}

impl QueryFunction for UnionQuery {
    fn eval(&self, db: &Instance) -> Instance {
        parlog_relal::eval::eval_union(self, db)
    }
}

impl QueryFunction for parlog_datalog::program::Program {
    fn eval(&self, db: &Instance) -> Instance {
        parlog_datalog::eval::eval_program(self, db, EvalStrategy::Indexed).unwrap_or_default()
    }
}

impl<F> QueryFunction for F
where
    F: Fn(&Instance) -> Instance + Send + Sync,
{
    fn eval(&self, db: &Instance) -> Instance {
        self(db)
    }
}

/// The relational state of one computing node.
///
/// `local` starts as the node's horizontal shard `H(κ)` and grows as data
/// arrives; `aux` is scratch space for protocol bookkeeping (counters,
/// markers); `out` is the **write-only** output relation — facts can be
/// inserted but never retracted, which is what makes eventual consistency
/// meaningful ("the system never outputs facts that later need to be
/// retracted").
#[derive(Debug, Clone)]
pub struct NodeState {
    /// This node's id.
    pub id: usize,
    /// Accumulated data: the initial shard plus everything received.
    pub local: Instance,
    /// Auxiliary relations for protocol state.
    pub aux: Instance,
    /// Write-only output.
    out: Instance,
}

impl NodeState {
    /// A node with the given initial shard.
    pub fn new(id: usize, shard: Instance) -> NodeState {
        NodeState {
            id,
            local: shard,
            aux: Instance::new(),
            out: Instance::new(),
        }
    }

    /// Emit a fact to the write-only output. Returns whether it is new.
    pub fn output(&mut self, f: Fact) -> bool {
        self.out.insert(f)
    }

    /// Emit every fact of an instance.
    pub fn output_all(&mut self, facts: &Instance) -> usize {
        let mut n = 0;
        for f in facts.iter() {
            if self.output(f.clone()) {
                n += 1;
            }
        }
        n
    }

    /// Read-only view of the output.
    pub fn output_so_far(&self) -> &Instance {
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlog_relal::fact::fact;

    #[test]
    fn output_is_write_only_and_dedups() {
        let mut n = NodeState::new(0, Instance::new());
        assert!(n.output(fact("H", &[1])));
        assert!(!n.output(fact("H", &[1])));
        assert_eq!(n.output_so_far().len(), 1);
    }

    #[test]
    fn query_function_for_cq() {
        use parlog_relal::parser::parse_query;
        let q = parse_query("H(x) <- R(x,y)").unwrap();
        let db = Instance::from_facts([fact("R", &[1, 2])]);
        assert_eq!(QueryFunction::eval(&q, &db).len(), 1);
    }

    #[test]
    fn query_function_for_closure() {
        let f = |db: &Instance| db.clone();
        let db = Instance::from_facts([fact("R", &[1, 2])]);
        assert_eq!(f.eval(&db), db);
    }

    #[test]
    fn query_function_for_datalog() {
        let p = parlog_datalog::program::parse_program(
            "TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)",
        )
        .unwrap();
        let db = Instance::from_facts([fact("E", &[1, 2]), fact("E", &[2, 3])]);
        let out = QueryFunction::eval(&p, &db);
        assert!(out.contains(&fact("TC", &[1, 3])));
    }
}
