#![warn(missing_docs)]

//! # logres
//!
//! A from-scratch reproduction of **LOGRES** — *“Integrating Object-Oriented
//! Data Modeling with a Rule-Based Programming Paradigm”* (F. Cacace,
//! S. Ceri, S. Crespi-Reghizzi, L. Tanca, R. Zicari — SIGMOD 1990).
//!
//! LOGRES integrates an object-oriented data model (classes with oids,
//! generalization hierarchies, object sharing, *and* value-based
//! associations / NF² relations) with a typed, rule-based extension of
//! Datalog that performs both queries and updates, wrapped in a **module**
//! system whose six *modes of application* control all side effects on the
//! database state.
//!
//! This crate is the user-facing surface; the substrates live in their own
//! crates:
//!
//! * [`logres_model`] — type equations, refinement, `isa`, instances,
//!   referential integrity (paper §2, Appendix A);
//! * [`logres_lang`] — the rule language: parser, type checking, safety,
//!   stratification (paper §3);
//! * [`logres_engine`] — the deterministic inflationary semantics with oid
//!   invention, plus stratified and compiled evaluation and incremental
//!   view maintenance (Appendix B);
//! * [`algres`] — the main-memory NF² extended relational algebra the
//!   original prototype was built on (paper §1, §5).
//!
//! # Quick start
//!
//! ```
//! use logres::{Database, Mode};
//!
//! let mut db = Database::from_source(r#"
//!     associations
//!       parent   = (par: string, chil: string);
//!       ancestor = (anc: string, des: string);
//!     facts
//!       parent(par: "adam", chil: "cain").
//!       parent(par: "cain", chil: "enoch").
//! "#).expect("valid database");
//!
//! // An ordinary query: a module applied in RIDI mode.
//! let outcome = db.apply_source(r#"
//!     rules
//!       ancestor(anc: X, des: Y) <- parent(par: X, chil: Y).
//!       ancestor(anc: X, des: Z) <- parent(par: X, chil: Y),
//!                                   ancestor(anc: Y, des: Z).
//!     goal ancestor(anc: "adam", des: D)?
//! "#, Mode::Ridi).expect("query runs");
//!
//! assert_eq!(outcome.answer.expect("goal answer").len(), 2);
//! ```

pub mod database;
pub mod error;
pub mod module;
pub mod persist;
pub mod repl;
pub mod state;

pub use database::{ApplicationOutcome, Database, Rows};
pub use error::CoreError;
pub use module::{Mode, Module};
pub use state::{ConsistencyReport, DatabaseState};

// Re-export the substrate crates so downstream users need one dependency.
pub use algres;
pub use logres_engine as engine;
pub use logres_lang as lang;
pub use logres_model as model;

pub use logres_engine::{
    CancelCause, EvalOptions, EvalReport, IterationStats, OpProfile, PlanProfile, RulePlanProfile,
    RuleProfile, Semantics, TraceEvent, Tracer,
};
pub use logres_lang::{Diagnostic, Severity};
pub use logres_model::{Instance, Oid, Schema, Sym, TypeDesc, Value};
