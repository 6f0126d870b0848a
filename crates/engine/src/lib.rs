#![warn(missing_docs)]

//! # logres-engine
//!
//! Evaluation of LOGRES rule programs, implementing the deterministic
//! **inflationary semantics** of Appendix B of the paper:
//!
//! * **valuations** (Definition 5) and literal satisfaction (Definition 6)
//!   over a fact set `F = (π, ν, ρ)` plus data-function extensions;
//! * the **valuation domain** `VD(R, F)` (Definition 7): a rule fires for a
//!   body valuation only when no extension of it already satisfies the head
//!   — which both makes evaluation inflationary and stops repeated oid
//!   invention;
//! * **valuation maps** (Definition 8): bound head variables copy their
//!   binding, an unbound head oid variable draws exactly one *invented* oid
//!   per valuation-domain element, and unbound head variables of other
//!   class types become `nil`;
//! * the sets `Δ⁺(R, F)` / `Δ⁻(R, F)` of derived positive and negative
//!   facts, and the **one-step inflationary operator**
//!   `F' = ((F ⊕ Δ⁺) − Δ⁻) ⊕ (F ∩ Δ⁺ ∩ Δ⁻)` with the non-commutative,
//!   right-biased composition `⊕`;
//! * the fixpoint `F⁰ = E, …, Fᵏ = Fᵏ⁺¹` — whose existence is *not*
//!   guaranteed (and not decidable, \[AbSi89\]), so drivers carry fuel limits.
//!
//! On top of the faithful semantics the crate provides the machinery the
//! paper attributes to the surrounding system:
//!
//! * a **stratified** driver ("inflationary semantics within each stratum of
//!   a stratified program yields the perfect model semantics" — §3.1),
//!   falling back to whole-program inflationary evaluation when the program
//!   is unstratifiable;
//! * a **compiler** from stratified association programs to fixpoint-free
//!   `algres` plans, one per rule, whose rounds [`run_compiled`] drives —
//!   the production path, mirroring the prototype translation of \[Ca90\].
//!   It and the inflationary interpreter (reference and fallback) are the
//!   engine's only fixpoint drivers;
//! * **incremental maintenance** of a materialized view on the positive
//!   association fragment, whose semi-naive insertion rounds also derive
//!   the view in the first place;
//! * goal answering (demand-driven through the magic-set rewrite, planned
//!   once per goal shape by [`PreparedGoal`]) and extensional fact loading.

pub mod binding;
pub mod builtins;
pub mod compile;
pub mod delta;
pub mod error;
pub mod explain;
pub mod goal;
pub mod governor;
pub mod inflationary;
pub mod load;
pub mod magic;
pub mod maintain;
pub mod matcher;
pub mod metrics;
pub mod plan;
pub mod prepared;
pub mod provenance;
pub mod stratified;
pub mod trace;

pub use binding::{Binding, Subst, SELF_LABEL};
pub use compile::{env_from_instance, FlowHints};
pub use delta::{DeltaSets, OneStep};
pub use error::EngineError;
pub use explain::{
    render_program, render_program_json, render_route, render_unsupported, OpProfile, PlanProfile,
    RulePlanProfile,
};
pub use goal::answer_goal;
pub use governor::{CancelCause, Governor};
pub use inflationary::{
    evaluate_inflationary, EvalOptions, EvalReport, IterationStats, RuleProfile,
};
pub use load::load_facts;
pub use magic::{answer_goal_demand, evaluate_demand};
pub use maintain::{
    apply_batch, apply_update, batch_conflicts, evaluate_seminaive, is_ground_batch_rule,
    maintainable, seminaive_applicable, BatchEffect, MaintainResult, MaterializedView, UpdateSpec,
};
pub use matcher::{rule_access_plan, AccessPlan};
pub use metrics::{Counter, EngineMetrics, Gauge, Histogram, MetricsRegistry, ProbeTally};
pub use plan::{
    compile_program, compile_program_for, compile_program_with, run_compiled,
    try_evaluate_compiled, CompileUnsupported, CompiledProgram, CompiledStep, StratumPlan,
};
pub use prepared::{LiftedGoal, PreparedGoal};
pub use provenance::{Derivation, ProvEntry, Provenance};
pub use stratified::{evaluate, evaluate_stratified, Semantics};
pub use trace::{note_fallback, TraceEvent, Tracer};
