#![warn(missing_docs)]

//! # logres-model
//!
//! The LOGRES data model, reproduced from *“Integrating Object-Oriented Data
//! Modeling with a Rule-Based Programming Paradigm”* (Cacace, Ceri,
//! Crespi-Reghizzi, Tanca, Zicari — SIGMOD 1990), Section 2 and Appendix A.
//!
//! A LOGRES database schema is a pair `(Σ, isa)`:
//!
//! * `Σ` maps **domain**, **class** and **association** names to *type
//!   descriptors* built from the elementary types `integer` and `string` and
//!   the tuple `( )`, set `{ }`, multiset `[ ]` and sequence `< >`
//!   constructors ([`TypeDesc`]);
//! * `isa` is a partial order over class names (generalization hierarchies)
//!   whose edges must respect the *refinement* relation `≤` of Appendix A
//!   ([`Schema::refines`]).
//!
//! At the instance level ([`Instance`], Definition 4 of the paper) a database
//! is a triple `(π, ν, ρ)`: an **oid assignment** giving each class a finite
//! set of object identifiers, a partial **o-value assignment** giving each
//! oid its value, and an **association assignment** giving each association a
//! finite set of tuples. This crate implements the legality conditions of
//! Definition 4, the partition of the oid universe into disjoint
//! generalization hierarchies, and the automatic generation of *referential
//! integrity constraints* from type equations (Section 2.1).
//!
//! Set-valued *data functions* (Section 2.1, `F : T1 -> {T2}`) are declared
//! in the schema and their extensions live in the instance, so that the rule
//! engine can populate them via `member(X, f(Y))` literals.

pub mod error;
pub mod instance;
pub mod integrity;
pub mod oid;
pub mod parse_value;
pub mod path;
pub mod refine;
pub mod schema;
pub mod sym;
pub mod types;
pub mod value;

pub use error::ModelError;
pub use instance::{Fact, Instance};
pub use integrity::{IntegrityConstraint, RefTarget, Violation};
pub use oid::{Oid, OidGen};
pub use parse_value::parse_value;
pub use path::{Path, PathStep};
pub use refine::Refiner;
pub use schema::{FunctionSig, PredKind, Schema};
pub use sym::Sym;
pub use types::{Field, TypeDesc};
pub use value::{Value, SELF_LABEL};
