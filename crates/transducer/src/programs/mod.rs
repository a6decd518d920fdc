//! The survey's coordination-free (and deliberately coordinating)
//! transducer programs.
//!
//! | Program | Class | Survey source | Queries |
//! |---|---|---|---|
//! | [`monotone::MonotoneBroadcast`] | F0 = A0 = M | Ex. 5.1(1) | monotone |
//! | [`coordinated::CoordinatedBroadcast`] | not coordination-free | Ex. 5.1(2) | any generic query |
//! | [`distinct::PolicyAwareCq`] | F1 = A1 ⊇ (CQ¬ ∩ Mdistinct) | Ex. 5.4 | domain-distinct-monotone CQ¬ |
//! | [`disjoint::DisjointComponent`] | F2 = A2 = Mdisjoint | §5.2.2 | domain-disjoint-monotone |
//!
//! Reliability under loss is no program here: any of them runs under a
//! plan built with `FaultPlan::with_retransmit`, and the runtime's
//! acks and retransmissions are its measured, explicit coordination.

pub mod coordinated;
pub mod disjoint;
pub mod distinct;
pub mod distinct_sets;
pub mod monotone;
mod reliable;
