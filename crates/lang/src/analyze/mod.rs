//! Whole-program static analysis: the diagnostics framework and the LOGRES
//! lint pass.
//!
//! The per-rule checks of Section 3.1 (strong typing, safety) reject
//! programs; this module adds *program-level* warnings on top of them, all
//! computed from one shared predicate-dependency graph ([`graph::DepGraph`],
//! also used by [`crate::stratify`]):
//!
//! * **L001** — a positive body predicate that no rule derives and no fact
//!   declares: the rule can never fire;
//! * **L002** — a derived predicate that no rule, constraint, or goal ever
//!   reads: dead derivation;
//! * **L003** — an oid-inventing rule inside a positive dependency cycle:
//!   the static twin of the runtime evaluation governor;
//! * **L004** — a predicate both derived and head-negated (deleted) in the
//!   same stratum: the outcome is order-sensitive under the `⊕` accumulation;
//! * **L005** — a rule whose body is a superset of another rule's modulo
//!   variable renaming and class refinement: subsumed or duplicated;
//! * **L006** — a variable occurring exactly once in a rule: likely a typo;
//! * **L007** — the program is not stratifiable and will be evaluated as a
//!   whole under inflationary semantics (paper Section 3.1).
//!
//! The opt-in abstract-interpretation flow pass ([`flow`], `logres check
//! --flow`) adds four more on top of whole-program value inference:
//!
//! * **L008** — a derived predicate guaranteed empty: its body joins meet
//!   to ⊥ (incompatible class refinements or disjoint constant sets);
//! * **L009** — a comparison guard statically always false or always true;
//! * **L010** — a `+`/`-`/`*` chain that may overflow `i64` given the
//!   inferred intervals;
//! * **L011** — module-cascade non-termination risk: a recursive predicate
//!   whose inferred domain grows without bound.
//!
//! Everything — errors and warnings alike — is emitted as a
//! [`diag::Diagnostic`], so front-ends have exactly one rendering path.
//! Reporting order is deterministic and position-stable: all diagnostics
//! are sorted by (line, col, code), so appended passes diff cleanly.

pub mod adorn;
pub mod diag;
#[doc(hidden)]
pub mod fixtures;
pub mod flow;
pub mod graph;
mod lints;

pub use adorn::{plan_goal, Adornment, ExemptReason, Exemption, GoalPlan, MagicRewrite};
pub use diag::{
    render_all_human, render_all_json, sort_diagnostics, Diagnostic, Related, Severity,
};
pub use flow::{flow_program, infer, seeds_from_facts, seeds_from_instance, Card, FlowSummaries};
pub use graph::{DepGraph, EdgeKind};

use logres_model::{Schema, Sym};
use rustc_hash::FxHashSet;

use crate::ast::{Denial, Goal, GroundFact, Program, RuleSet};
use crate::{safety, typecheck};

/// Everything the whole-program analyzer looks at.
///
/// [`analyze_program`] builds one from a parsed [`Program`]; embedding
/// callers (e.g. `Database::check()` in the `logres` crate) build one from a
/// live database state, where `edb` holds the predicates with non-empty
/// stored extensions.
pub struct AnalysisInput<'a> {
    /// The schema the rules were resolved against.
    pub schema: &'a Schema,
    /// The rule set under analysis.
    pub rules: &'a RuleSet,
    /// Passive integrity constraints.
    pub constraints: &'a [Denial],
    /// The goal, if any.
    pub goal: Option<&'a Goal>,
    /// Ground facts to typecheck (a parsed program's `facts` section).
    pub facts: &'a [GroundFact],
    /// Predicates and data functions with extensional data (declared facts
    /// or a non-empty stored extension). Only these are assumed derivable
    /// without a rule.
    pub edb: FxHashSet<Sym>,
}

/// Run the full analysis — error-level checks plus all lints — over an
/// analysis input. Deterministic: same input, same diagnostics, same order.
pub fn analyze(input: &AnalysisInput<'_>) -> Vec<Diagnostic> {
    let mut diags = error_diagnostics_input(input);
    diags.extend(lints::run(input));
    diag::sort_diagnostics(&mut diags);
    diags
}

/// Run the full analysis over a parsed program. The EDB is taken from the
/// program's own `facts` section, so a self-contained program (schema +
/// facts + rules) is analyzed exactly as it will evaluate.
pub fn analyze_program(program: &Program) -> Vec<Diagnostic> {
    analyze(&input_of(program))
}

/// Only the error-level checks (typing `E001`, safety `E002`), in the
/// legacy emission order: per rule typecheck then safety, then constraint
/// bodies, then the goal body, then the ground facts. [`crate::check_program`] delegates here, so
/// the rejected/accepted verdict cannot drift from `analyze`'s.
pub fn error_diagnostics(program: &Program) -> Vec<Diagnostic> {
    error_diagnostics_input(&input_of(program))
}

fn input_of(program: &Program) -> AnalysisInput<'_> {
    AnalysisInput {
        schema: &program.schema,
        rules: &program.rules,
        constraints: &program.constraints,
        goal: program.goal.as_ref(),
        facts: &program.facts,
        edb: program.facts.iter().map(|f| f.pred).collect(),
    }
}

fn error_diagnostics_input(input: &AnalysisInput<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for rule in &input.rules.rules {
        if let Err(errs) = typecheck::check_rule(input.schema, rule) {
            out.extend(
                errs.into_iter()
                    .map(|e| Diagnostic::error("E001", e.span, e.message)),
            );
        }
        if let Err(errs) = safety::check_rule(input.schema, rule) {
            out.extend(
                errs.into_iter()
                    .map(|e| Diagnostic::error("E002", e.span, e.message)),
            );
        }
    }
    for denial in input.constraints {
        if let Err(errs) = typecheck::check_body(input.schema, &denial.body) {
            out.extend(
                errs.into_iter()
                    .map(|e| Diagnostic::error("E001", e.span, e.message)),
            );
        }
    }
    if let Some(goal) = input.goal {
        if let Err(errs) = typecheck::check_body(input.schema, &goal.body) {
            out.extend(
                errs.into_iter()
                    .map(|e| Diagnostic::error("E001", e.span, e.message)),
            );
        }
    }
    for fact in input.facts {
        if let Err(errs) = typecheck::check_fact(input.schema, fact) {
            out.extend(
                errs.into_iter()
                    .map(|e| Diagnostic::error("E001", e.span, e.message)),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn fixture_corpus_yields_exactly_the_expected_codes() {
        for fx in fixtures::corpus() {
            let program = parse_program(&fx.source())
                .unwrap_or_else(|e| panic!("fixture `{}` fails to parse: {e:?}", fx.name));
            let codes: Vec<&str> = analyze_program(&program).iter().map(|d| d.code).collect();
            assert_eq!(
                codes, fx.expect,
                "fixture `{}` produced unexpected diagnostics",
                fx.name
            );
        }
    }

    #[test]
    fn analysis_output_is_byte_identical_across_runs() {
        for fx in fixtures::corpus() {
            let program = parse_program(&fx.source()).expect("fixture parses");
            let a = diag::render_all_json(&analyze_program(&program));
            let b = diag::render_all_json(&analyze_program(&program));
            assert_eq!(a, b, "fixture `{}` renders nondeterministically", fx.name);
        }
    }

    /// The E001 messages `error_diagnostics` reports for a program text.
    fn e001(src: &str) -> Vec<String> {
        let program = parse_program(src).expect("program parses");
        error_diagnostics(&program)
            .into_iter()
            .filter(|d| d.code == "E001")
            .map(|d| d.message)
            .collect()
    }

    const P: &str = "associations\n  p = (a: integer, b: string);\n  q = (a: integer);\n";

    #[test]
    fn facts_naming_an_attribute_twice_are_e001() {
        let errs = e001(&format!("{P}facts\n  p(a: 1, a: 2).\n"));
        assert_eq!(errs, ["attribute `a` appears twice in `p`"]);
    }

    #[test]
    fn literals_naming_an_attribute_twice_are_e001() {
        let errs = e001(&format!(
            "{P}rules\n  q(a: X, a: Y) <- p(a: X, b: \"s\"), q(a: Y).\n"
        ));
        assert_eq!(errs, ["attribute `a` appears twice in `q`"]);
        let errs = e001(&format!("{P}rules\n  q(a: X) <- p(a: X, a: Y), q(a: Y).\n"));
        assert_eq!(errs, ["attribute `a` appears twice in `p`"]);
    }

    #[test]
    fn facts_with_an_unknown_attribute_are_e001() {
        let errs = e001(&format!("{P}facts\n  p(c: 1).\n"));
        assert_eq!(errs, ["predicate `p` has no attribute `c`"]);
    }

    #[test]
    fn facts_with_a_mistyped_value_are_e001() {
        let errs = e001(&format!("{P}facts\n  p(a: \"x\").\n"));
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("does not match expected type"), "{errs:?}");
    }

    #[test]
    fn facts_may_leave_attributes_out() {
        assert!(e001(&format!("{P}facts\n  p(a: 1).\n  p(b: \"s\").\n")).is_empty());
    }

    #[test]
    fn error_diagnostics_match_check_program_verdict() {
        for fx in fixtures::corpus() {
            let program = parse_program(&fx.source()).expect("fixture parses");
            let errors = error_diagnostics(&program);
            assert_eq!(
                crate::check_program(&program).is_err(),
                !errors.is_empty(),
                "fixture `{}` diverges between the two entry points",
                fx.name
            );
        }
    }
}
