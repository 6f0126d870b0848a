//! Engine errors.

use std::fmt;

use logres_model::Sym;

use crate::governor::CancelCause;
use crate::inflationary::EvalReport;

/// Runtime errors of the evaluation engine.
#[derive(Debug, Clone, PartialEq, Eq)]
// Field names are self-documenting; variant docs carry the semantics.
#[allow(missing_docs)]
pub enum EngineError {
    /// The inflationary sequence produced no fixpoint within the fuel limit
    /// (termination is undecidable — Appendix B).
    NoFixpoint { steps: usize },
    /// Fact-count fuel exceeded (runaway invention).
    TooManyFacts { limit: usize },
    /// A rule references a predicate missing from the schema.
    UnknownPredicate(Sym),
    /// A ground fact names the same attribute twice.
    DuplicateAttribute { pred: Sym, label: Sym },
    /// A body literal could not be scheduled: its variables never become
    /// bound and no active domain could be computed for them.
    Unevaluable { detail: String },
    /// A builtin was applied to values of the wrong shape.
    BuiltinError {
        builtin: &'static str,
        detail: String,
    },
    /// The rule set falls outside the fragment a specialized evaluator or
    /// the ALGRES compiler supports.
    UnsupportedFragment { detail: String },
    /// An error bubbled up from the ALGRES substrate.
    Algebra(String),
    /// The evaluation governor stopped the run (wall-clock deadline or
    /// value-node budget). Unlike the fuel errors above, the partial
    /// [`EvalReport`] of the work completed before the abort travels with
    /// the error — steps taken, facts stored, per-rule profiles, and the
    /// rule that was firing when the budget tripped.
    Cancelled {
        cause: CancelCause,
        partial: Box<EvalReport>,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoFixpoint { steps } => {
                write!(f, "no fixpoint reached within {steps} steps")
            }
            EngineError::TooManyFacts { limit } => {
                write!(f, "fact limit {limit} exceeded (runaway derivation)")
            }
            EngineError::UnknownPredicate(p) => write!(f, "unknown predicate `{p}`"),
            EngineError::DuplicateAttribute { pred, label } => {
                write!(f, "fact over `{pred}` names attribute `{label}` twice")
            }
            EngineError::Unevaluable { detail } => {
                write!(f, "body literal not evaluable: {detail}")
            }
            EngineError::BuiltinError { builtin, detail } => {
                write!(f, "builtin `{builtin}`: {detail}")
            }
            EngineError::UnsupportedFragment { detail } => {
                write!(f, "outside the supported fragment: {detail}")
            }
            EngineError::Algebra(msg) => write!(f, "algebra error: {msg}"),
            EngineError::Cancelled { cause, partial } => write!(
                f,
                "evaluation cancelled: {cause} (after {} steps, {} facts)",
                partial.steps, partial.facts
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<algres::AlgError> for EngineError {
    fn from(e: algres::AlgError) -> Self {
        EngineError::Algebra(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e = EngineError::NoFixpoint { steps: 10 };
        assert!(e.to_string().contains("10"));
        let a: EngineError = algres::AlgError::UnknownRelation(Sym::new("x")).into();
        assert!(matches!(a, EngineError::Algebra(_)));
    }
}
