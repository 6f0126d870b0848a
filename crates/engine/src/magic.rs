//! Demand-driven (magic-set) evaluation of goals.
//!
//! [`evaluate_demand`] prepares a goal ([`PreparedGoal::prepare`]: the
//! constants lifted into the `@goal` parameter relation, the lifted goal
//! planned with [`logres_lang::analyze::plan_goal`], the rewrite compiled)
//! and executes it once. When the plan produced a rewrite, the
//! magic-transformed program runs under the requested semantics: on the
//! compiled path, where the `@magic_*` guards lower to semijoin reducers,
//! or on the interpreter when the compiled path falls back. The rewritten
//! program is evaluated under the same [`EvalOptions`] as a full run, so
//! the governor's budgets, tracing, metrics, provenance, and the
//! determinism guarantee all carry over unchanged.
//!
//! The partial instance it returns contains, for every original predicate,
//! exactly the demanded part of the full model (plus the `@magic_*` demand
//! extensions, which no goal literal can mention), so answering the goal
//! against it is bit-identical to answering against the full fixpoint.
//! When the plan falls back (`None`), the caller runs full evaluation; the
//! decision is counted on the `logres_magic_*` metrics.

use logres_lang::{Goal, RuleSet};
use logres_model::{Instance, Schema, Sym, Value};

use crate::error::EngineError;
use crate::inflationary::{EvalOptions, EvalReport};
use crate::prepared::{LiftedGoal, PreparedGoal};
use crate::stratified::Semantics;

/// Evaluate only the demanded part of the model for a goal. Returns
/// `Ok(None)` when the goal's plan falls back to full evaluation (the
/// caller decides how to run that); `Ok(Some((instance, report)))` with the
/// partial instance otherwise.
pub fn evaluate_demand(
    schema: &Schema,
    rules: &RuleSet,
    edb: &Instance,
    goal: &Goal,
    semantics: Semantics,
    opts: EvalOptions,
) -> Result<Option<(Instance, EvalReport)>, EngineError> {
    let lifted = LiftedGoal::lift(schema, goal);
    PreparedGoal::prepare(schema, rules, edb, &lifted, semantics).evaluate(edb, &lifted, &opts)
}

/// Goal answer rows: per row, `(variable, value)` bindings in the goal's
/// output-variable order.
pub type AnswerRows = Vec<Vec<(Sym, Value)>>;

/// Answer a goal demand-first: prepare it, evaluate the rewritten program,
/// and answer against the partial instance. `Ok(None)` means the plan fell
/// back and the caller must answer over the full fixpoint instead.
pub fn answer_goal_demand(
    schema: &Schema,
    rules: &RuleSet,
    edb: &Instance,
    goal: &Goal,
    semantics: Semantics,
    opts: EvalOptions,
) -> Result<Option<(AnswerRows, EvalReport)>, EngineError> {
    let lifted = LiftedGoal::lift(schema, goal);
    PreparedGoal::prepare(schema, rules, edb, &lifted, semantics)
        .answer(schema, edb, &lifted, &opts)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::goal::answer_goal;
    use crate::load::load_facts;
    use crate::metrics::MetricsRegistry;
    use crate::stratified::evaluate;
    use logres_lang::parse_program;
    use logres_model::OidGen;

    fn setup(src: &str) -> (logres_lang::Program, Instance) {
        let p = parse_program(src).expect("program parses");
        let mut inst = Instance::new();
        let mut gen = OidGen::new();
        load_facts(&p.schema, &mut inst, &p.facts, &mut gen).expect("facts load");
        (p, inst)
    }

    const CLOSURE: &str = r#"
        associations
          e = (a: integer, b: integer);
          tc = (a: integer, b: integer);
        rules
          tc(a: X, b: Y) <- e(a: X, b: Y).
          tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).
        facts
          e(a: 0, b: 1).
          e(a: 1, b: 2).
          e(a: 2, b: 3).
          e(a: 10, b: 11).
        goal tc(a: 0, b: D)?
    "#;

    #[test]
    fn demand_answers_match_full_evaluation() {
        let (p, edb) = setup(CLOSURE);
        let goal = p.goal.as_ref().unwrap();
        let (full, _) = evaluate(
            &p.schema,
            &p.rules,
            &edb,
            Semantics::Stratified,
            EvalOptions::default(),
        )
        .unwrap();
        let want = answer_goal(&p.schema, &full, goal).unwrap();
        let (rows, _) = answer_goal_demand(
            &p.schema,
            &p.rules,
            &edb,
            goal,
            Semantics::Stratified,
            EvalOptions::default(),
        )
        .unwrap()
        .expect("plan rewrites");
        assert_eq!(rows, want);
        assert_eq!(rows.len(), 3); // 0 reaches 1, 2, 3 — never 10/11.
    }

    #[test]
    fn demand_skips_the_unreachable_region() {
        let (p, edb) = setup(CLOSURE);
        let goal = p.goal.as_ref().unwrap();
        let (partial, _) = evaluate_demand(
            &p.schema,
            &p.rules,
            &edb,
            goal,
            Semantics::Stratified,
            EvalOptions::default(),
        )
        .unwrap()
        .expect("plan rewrites");
        // The 10→11 edge is never demanded, so the partial tc extension
        // holds only the three tuples rooted at 0.
        assert_eq!(partial.assoc_len(Sym::new("tc")), 3);
    }

    #[test]
    fn all_free_goals_report_fallback() {
        let (p, edb) = setup(
            r#"
            associations
              e = (a: integer, b: integer);
              tc = (a: integer, b: integer);
            rules
              tc(a: X, b: Y) <- e(a: X, b: Y).
            facts
              e(a: 0, b: 1).
            goal tc(a: X, b: Y)?
        "#,
        );
        let m = Arc::new(MetricsRegistry::new());
        let opts = EvalOptions {
            metrics: Some(m.clone()),
            ..EvalOptions::default()
        };
        let out = answer_goal_demand(
            &p.schema,
            &p.rules,
            &edb,
            p.goal.as_ref().unwrap(),
            Semantics::Stratified,
            opts,
        )
        .unwrap();
        assert!(out.is_none());
        let snap = m.counter_snapshot();
        assert!(snap
            .iter()
            .any(|(k, v)| k == "logres_magic_fallbacks_total" && *v == 1));
    }

    #[test]
    fn rewrites_are_counted() {
        let (p, edb) = setup(CLOSURE);
        let m = Arc::new(MetricsRegistry::new());
        let opts = EvalOptions {
            metrics: Some(m.clone()),
            ..EvalOptions::default()
        };
        answer_goal_demand(
            &p.schema,
            &p.rules,
            &edb,
            p.goal.as_ref().unwrap(),
            Semantics::Stratified,
            opts,
        )
        .unwrap()
        .expect("plan rewrites");
        let snap = m.counter_snapshot();
        let get = |name: &str| {
            snap.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(get("logres_magic_rewrites_total"), 1);
        assert_eq!(get("logres_magic_guarded_rules_total"), 2);
    }
}
