//! The stratified (perfect-model) driver and the semantics dispatcher.
//!
//! Section 3.1: "If we use inflationary semantics within each stratum of a
//! stratified program, this yields the perfect model semantics. Whenever the
//! program is not stratified with respect to negation or data functions, it
//! can also be assigned a meaning, by computing it as a whole still under
//! inflationary semantics." Module application (Section 4.1) chooses the
//! semantics per application — "LOGRES modules and databases are parametric
//! with respect to the semantics of the rules they support".
//!
//! A stratified run is one run: the interpreter evaluates the strata in
//! order under one [`crate::Governor`], so the budgets bound the whole run,
//! step numbers are run-wide, and profiles, `rule_fired` events, per-rule
//! metrics and provenance number rules by their canonical index — exactly
//! as the compiled path ([`crate::plan`]) records them.

use logres_lang::{stratify, RuleSet, Stratification};
use logres_model::{Instance, Schema};

use crate::error::EngineError;
use crate::inflationary::{evaluate_inflationary, evaluate_strata, EvalOptions, EvalReport};

/// Which semantics to evaluate a program under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Semantics {
    /// The deterministic inflationary semantics of Appendix B, over the
    /// whole program at once.
    #[default]
    Inflationary,
    /// Perfect-model semantics: strata evaluated in order, inflationary
    /// within each; falls back to whole-program inflationary when the
    /// program is unstratifiable.
    Stratified,
}

/// Evaluate under the chosen semantics.
///
/// When [`EvalOptions::compiled`] is on (the default) and the program fits
/// the compilable fragment, evaluation runs set-at-a-time on ALGRES plans
/// ([`crate::plan`]); otherwise — after a counted
/// `logres_compile_fallbacks_total{reason=…}` fallback — it runs on the
/// tuple-at-a-time interpreter. Both paths produce the same instance.
pub fn evaluate(
    schema: &Schema,
    rules: &RuleSet,
    edb: &Instance,
    semantics: Semantics,
    opts: EvalOptions,
) -> Result<(Instance, EvalReport), EngineError> {
    if opts.compiled {
        if let Some(result) =
            crate::plan::try_evaluate_compiled(schema, rules, edb, semantics, &opts)
        {
            return result;
        }
    }
    interpret(schema, rules, edb, semantics, opts)
}

/// The interpreter under the chosen semantics: the reference path, and
/// where every compiled route falls back to.
pub(crate) fn interpret(
    schema: &Schema,
    rules: &RuleSet,
    edb: &Instance,
    semantics: Semantics,
    opts: EvalOptions,
) -> Result<(Instance, EvalReport), EngineError> {
    match semantics {
        Semantics::Inflationary => evaluate_inflationary(schema, rules, edb, opts),
        Semantics::Stratified => evaluate_stratified(schema, rules, edb, opts),
    }
}

/// Stratified evaluation (with inflationary fallback): the strata run in
/// order on the interpreter, as one run under one governor.
pub fn evaluate_stratified(
    schema: &Schema,
    rules: &RuleSet,
    edb: &Instance,
    opts: EvalOptions,
) -> Result<(Instance, EvalReport), EngineError> {
    match stratify(rules) {
        Stratification::Stratified(strata) => evaluate_strata(schema, rules, edb, &strata, &opts),
        Stratification::Unstratifiable { .. } => {
            match evaluate_inflationary(schema, rules, edb, opts) {
                Ok((inst, mut report)) => {
                    report.fallback_inflationary = true;
                    Ok((inst, report))
                }
                Err(EngineError::Cancelled { cause, mut partial }) => {
                    partial.fallback_inflationary = true;
                    Err(EngineError::Cancelled { cause, partial })
                }
                Err(other) => Err(other),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::load_facts;
    use logres_lang::parse_program;
    use logres_model::{OidGen, Sym, Value};

    fn setup(src: &str) -> (Schema, Instance, RuleSet) {
        let p = parse_program(src).expect("parses");
        let mut edb = Instance::new();
        let mut gen = OidGen::new();
        load_facts(&p.schema, &mut edb, &p.facts, &mut gen).expect("loads");
        (p.schema, edb, p.rules)
    }

    /// A classically stratified program: win/lose style, but acyclic.
    const COVERED: &str = r#"
        associations
          node     = (n: integer);
          edge     = (a: integer, b: integer);
          covered  = (n: integer);
          isolated = (n: integer);
        facts
          node(n: 1).
          node(n: 2).
          node(n: 3).
          edge(a: 1, b: 2).
        rules
          covered(n: X) <- edge(a: X, b: Y).
          covered(n: X) <- edge(a: Y, b: X).
          isolated(n: X) <- node(n: X), not covered(n: X).
    "#;

    #[test]
    fn stratified_computes_the_perfect_model() {
        let (schema, edb, rules) = setup(COVERED);
        let (inst, report) =
            evaluate_stratified(&schema, &rules, &edb, EvalOptions::default()).unwrap();
        assert!(!report.fallback_inflationary);
        assert_eq!(inst.assoc_len(Sym::new("isolated")), 1);
        assert!(inst.has_tuple(Sym::new("isolated"), &Value::tuple([("n", Value::Int(3))])));
    }

    #[test]
    fn inflationary_can_differ_on_eagerly_evaluated_negation() {
        // Under whole-program inflationary semantics, the isolated rule can
        // fire in step 1 before `covered` is complete, producing the wrong
        // extra tuples (which inflationarily persist). This is precisely why
        // the paper distinguishes the two semantics.
        let (schema, edb, rules) = setup(COVERED);
        let (infl, _) =
            evaluate_inflationary(&schema, &rules, &edb, EvalOptions::default()).unwrap();
        let (strat, _) =
            evaluate_stratified(&schema, &rules, &edb, EvalOptions::default()).unwrap();
        let isolated = Sym::new("isolated");
        assert!(infl.assoc_len(isolated) > strat.assoc_len(isolated));
    }

    #[test]
    fn unstratifiable_programs_fall_back() {
        let (schema, edb, rules) = setup(
            r#"
            associations
              p = (d: integer);
              q = (d: integer);
            facts
              q(d: 1).
            rules
              p(d: X) <- q(d: X), not p(d: X).
        "#,
        );
        let (_, report) =
            evaluate_stratified(&schema, &rules, &edb, EvalOptions::default()).unwrap();
        assert!(report.fallback_inflationary);
    }

    #[test]
    fn data_function_strata_materialize_before_readers() {
        let (schema, edb, rules) = setup(
            r#"
            associations
              parent  = (par: string, chil: string);
              kids_of = (p: string, kids: {string});
            functions
              children: string -> {string};
            facts
              parent(par: "a", chil: "b").
              parent(par: "a", chil: "c").
            rules
              member(X, children(Y)) <- parent(par: Y, chil: X).
              kids_of(p: X, kids: K) <- parent(par: X), K = children(X).
        "#,
        );
        let (inst, report) =
            evaluate_stratified(&schema, &rules, &edb, EvalOptions::default()).unwrap();
        assert!(!report.fallback_inflationary);
        // The reader stratum sees the *complete* children set.
        assert!(inst.has_tuple(
            Sym::new("kids_of"),
            &Value::tuple([
                ("p", Value::str("a")),
                ("kids", Value::set([Value::str("b"), Value::str("c")]))
            ])
        ));
        // And only that tuple (no partial sets, which the whole-program
        // inflationary run would also have produced and kept).
        assert_eq!(inst.assoc_len(Sym::new("kids_of")), 1);
    }

    #[test]
    fn dispatcher_selects_semantics() {
        let (schema, edb, rules) = setup(COVERED);
        let (a, _) = evaluate(
            &schema,
            &rules,
            &edb,
            Semantics::Stratified,
            EvalOptions::default(),
        )
        .unwrap();
        let (b, _) = evaluate(
            &schema,
            &rules,
            &edb,
            Semantics::Inflationary,
            EvalOptions::default(),
        )
        .unwrap();
        assert!(a.assoc_len(Sym::new("isolated")) <= b.assoc_len(Sym::new("isolated")));
    }
}
