#![warn(missing_docs)]

//! # algres
//!
//! A from-scratch reproduction of the **ALGRES** substrate the LOGRES paper
//! prototypes on: "a main-memory based programming environment supporting an
//! Extended Relational Algebra" over complex (NF²) objects (Section 1).
//!
//! The engine operates on [`Relation`]s: sets of labeled tuples whose fields
//! may be atomic values, oids, nested tuples, sets, multisets or sequences
//! (the [`logres_model::Value`] universe). The algebra ([`AlgExpr`])
//! provides:
//!
//! * classical operators — select, project, rename, product, natural join,
//!   union, difference, intersect, semijoin, antijoin;
//! * NF² operators — **nest** (group and collect into a set-valued column)
//!   and **unnest** (flatten a collection-valued column);
//! * **extend** (computed columns), the fused **emit** reshape, and grouped
//!   **aggregate** (count, sum, min, max, avg, collect).
//!
//! The paper credits ALGRES's "very liberal structure of the closure
//! operation" with making the semantics of rules easy to change. Here the
//! closure lives one level up: `logres-engine` compiles each rule to a
//! fixpoint-free plan (mirroring the translation of \[Ca90\], *Implementing an
//! Object-Oriented Data Model in Relational Algebra*) and drives the rounds
//! itself through a caching [`Evaluator`], rebinding the recursive relations
//! between rounds. Whether a round reads a whole relation (naive) or only the
//! last round's new tuples (semi-naive) is a choice of plan; benchmark E1
//! compares the two.

pub mod error;
pub mod eval;
pub mod expr;
pub mod optimize;
pub mod relation;

pub use error::AlgError;
pub use eval::{eval, Env, EvalStats, Evaluator, OpStats};
pub use expr::{AggFun, AlgExpr, CmpOp, Pred, Scalar};
pub use optimize::{fuse_reshapes, push_selections, push_selections_with, Catalog};
pub use relation::Relation;
