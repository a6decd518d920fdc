//! # `parlog-verify` — proof-carrying answers for untrusted engines
//!
//! The cluster model of the paper distributes a query over `p` servers
//! and unions their local answers. Every robustness result so far in
//! this repo assumed *omission* faults: a server may crash, lose
//! messages, or stall — but never lie. This crate drops that assumption.
//! A Byzantine server may return an answer that is simply **wrong**:
//! extra tuples, missing tuples, mutated tuples. No amount of
//! retransmission or replay detects a wrong answer that arrives on time.
//!
//! The defense is proof-carrying answers:
//!
//! * [`snapshot`] — content-addressed snapshots. A deterministic Merkle
//!   root binds every answer to the exact shard it claims to have read;
//!   process-, order- and strategy-independent by construction.
//! * [`certificate`] — the evidence. One witnessing valuation per output
//!   tuple for CQs/UCQs; a well-founded derivation sequence for
//!   stratified Datalog. Canonical: byte-identical across evaluation
//!   strategies and thread counts.
//! * [`checker`] — the small trusted core. It validates an answer
//!   against the snapshot root *without re-running the engine*: witness
//!   replay gives soundness, its own independent enumeration pass gives
//!   completeness. Everything outside the checker (all three evaluators,
//!   the cluster, the schedulers) stays untrusted.
//! * [`adversary`] — the seeded, deterministic corruptor the fault
//!   matrix and the e23 experiment use to prove the checker earns its
//!   keep: every single-server corruption it can express is detected.
//!
//! The dependency rule: this crate sits beside the engines (it may call
//! them on the *prover* side) but the checker module's trusted base is
//! only the `relal` data model, `Valuation::satisfies`, and the in-crate
//! SHA-256/Merkle code, which includes one hardware compression: on a
//! CPU with the x86-64 SHA extensions, [`sha256`] compresses on them (the
//! crate's only `unsafe` item). Tests hold it to the portable scalar
//! compression, the fallback and oracle, byte for byte.

#![deny(unsafe_code)]
#![deny(warnings)]
#![deny(missing_docs)]

pub mod adversary;
pub mod certificate;
pub mod checker;
pub mod sha256;
pub mod snapshot;

pub use adversary::corrupt_answer;
pub use certificate::{
    adom_facts, prove_cq, prove_program, prove_ucq, to_json, DerivationStep, ProgramCertificate,
    ServerCertificate, Witness,
};
pub use checker::{
    check_answer, check_cluster, check_complete, check_program, check_sound, Rejection,
};
pub use snapshot::{cluster_root, shard_roots, snapshot_id, SnapshotId};
