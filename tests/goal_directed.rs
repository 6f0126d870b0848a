//! Differential tests for goal-directed (magic-set) evaluation: every
//! answer the demand-driven path produces must be bit-identical to the
//! full-fixpoint answer, and every program the planner cannot soundly
//! rewrite must fall back — never answer wrongly.

use proptest::prelude::*;

use logres::engine::{
    answer_goal, evaluate, evaluate_inflationary, load_facts, EngineError, EvalOptions, EvalReport,
    LiftedGoal, PlanProfile, PreparedGoal,
};
use logres::lang::analyze::fixtures;
use logres::lang::{parse_program, Atom, Goal, PredArg, Program, Term};
use logres::model::{Instance, OidGen, Sym, Value};
use logres::{Database, Mode, Semantics};

type Rows = Vec<Vec<(Sym, Value)>>;

/// `goal` answered demand-first over `edb` by a plan prepared for it
/// against `p`'s rules: `Ok(None)` when the plan falls back.
fn prepared_answer(
    p: &Program,
    edb: &Instance,
    goal: &Goal,
    semantics: Semantics,
    opts: &EvalOptions,
) -> Result<Option<(Rows, EvalReport)>, EngineError> {
    let lifted = LiftedGoal::lift(&p.schema, goal);
    PreparedGoal::prepare(&p.schema, &p.rules, edb, &lifted, semantics)
        .answer(&p.schema, edb, &lifted, opts)
}

/// Tight fuel: the corpus deliberately includes divergent programs (oid
/// invention in a cycle); a run that exhausts this budget is skipped, not
/// failed.
fn bounded() -> EvalOptions {
    EvalOptions {
        max_steps: 60,
        max_facts: 100_000,
        ..EvalOptions::default()
    }
}

fn subst_term(t: &mut Term, var: Sym, val: &Value) {
    match t {
        Term::Var(v) if *v == var => *t = Term::Const(val.clone()),
        Term::Var(_) | Term::Const(_) | Term::Nil => {}
        Term::Tuple(fields) => fields.iter_mut().for_each(|(_, t)| subst_term(t, var, val)),
        Term::Set(ts) | Term::Multiset(ts) | Term::Seq(ts) => {
            ts.iter_mut().for_each(|t| subst_term(t, var, val))
        }
        Term::FunApp { args, .. } => args.iter_mut().for_each(|t| subst_term(t, var, val)),
        Term::BinOp { lhs, rhs, .. } => {
            subst_term(lhs, var, val);
            subst_term(rhs, var, val);
        }
    }
}

/// Bind one output variable of a goal to a concrete value, everywhere it
/// occurs. `None` when the variable appears in a position that cannot hold
/// a constant (a bare tuple variable).
fn bind_goal_var(goal: &Goal, var: Sym, val: &Value) -> Option<Goal> {
    let mut bound = goal.clone();
    for lit in &mut bound.body {
        match &mut lit.atom {
            Atom::Pred { args, .. } => {
                for arg in args.iter_mut() {
                    match arg {
                        PredArg::Labeled(_, t) => subst_term(t, var, val),
                        PredArg::SelfArg(t) => subst_term(t, var, val),
                        PredArg::TupleVar(v) if *v == var => return None,
                        PredArg::TupleVar(_) => {}
                    }
                }
            }
            Atom::Member { elem, args, .. } => {
                subst_term(elem, var, val);
                args.iter_mut().for_each(|t| subst_term(t, var, val));
            }
            Atom::Builtin { args, .. } => args.iter_mut().for_each(|t| subst_term(t, var, val)),
        }
    }
    bound.vars.retain(|v| *v != var);
    Some(bound)
}

/// Full-fixpoint answer to a program's goal, or `None` when the program
/// does not evaluate (corpus fixtures include deliberately broken ones).
fn full_answer(src: &str, opts: &EvalOptions) -> Option<Rows> {
    let p = parse_program(src).ok()?;
    let goal = p.goal.clone()?;
    let mut edb = Instance::new();
    let mut gen = OidGen::new();
    load_facts(&p.schema, &mut edb, &p.facts, &mut gen).ok()?;
    let (inst, _) = evaluate(
        &p.schema,
        &p.rules,
        &edb,
        Semantics::Stratified,
        opts.clone(),
    )
    .ok()?;
    answer_goal(&p.schema, &inst, &goal).ok()
}

/// Demand-driven answer: `None` when the plan fell back.
fn demand_answer(src: &str, opts: &EvalOptions) -> Option<Rows> {
    let p = parse_program(src).ok()?;
    let goal = p.goal.clone()?;
    let mut edb = Instance::new();
    let mut gen = OidGen::new();
    load_facts(&p.schema, &mut edb, &p.facts, &mut gen).ok()?;
    prepared_answer(&p, &edb, &goal, Semantics::Stratified, opts)
        .ok()?
        .map(|(rows, _)| rows)
}

/// Every fixture in the analyzer corpus that carries a goal and evaluates:
/// the corpus goals are all-free, so each is re-asked with its first output
/// variable bound to a value drawn from the full answer. When the planner
/// rewrites, the demanded answer must equal the full one. Exempt fixtures
/// (negation, functions, invention …) must fall back, which the test counts
/// but does not fail on.
#[test]
fn corpus_goals_agree_with_the_full_fixpoint_at_every_thread_count() {
    let mut rewritten = 0usize;
    for f in fixtures::corpus() {
        let src = f.source();
        let Ok(p) = parse_program(&src) else { continue };
        let Some(goal) = p.goal.clone() else { continue };
        let mut edb = Instance::new();
        let mut gen = OidGen::new();
        if load_facts(&p.schema, &mut edb, &p.facts, &mut gen).is_err() {
            continue;
        }
        let Ok((inst, _)) = evaluate(&p.schema, &p.rules, &edb, Semantics::Stratified, bounded())
        else {
            continue;
        };
        let Ok(free_rows) = answer_goal(&p.schema, &inst, &goal) else {
            continue;
        };
        // Bind the first scalar output variable to its value in the first
        // answer row, producing a selective variant of the same goal.
        let Some((var, val)) = free_rows.first().and_then(|row| {
            row.iter()
                .find(|(_, v)| matches!(v, Value::Int(_) | Value::Str(_)))
                .cloned()
        }) else {
            continue;
        };
        let Some(bound_goal) = bind_goal_var(&goal, var, &val) else {
            continue;
        };
        let Ok(want) = answer_goal(&p.schema, &inst, &bound_goal) else {
            continue;
        };
        let demand = prepared_answer(&p, &edb, &bound_goal, Semantics::Stratified, &bounded());
        if let Ok(Some((got, _))) = demand {
            assert_eq!(got, want, "fixture {} diverges", f.name);
            rewritten += 1;
        }
    }
    // The corpus is not allowed to silently stop exercising the rewrite.
    assert!(
        rewritten > 0,
        "no corpus fixture took the demand path — the differential test is vacuous"
    );
}

/// The compiled fast path inside a prepared goal's run is invisible: for every
/// corpus fixture, running the demand path with
/// `compiled` on (the default) and with `compiled` off produces the same
/// fallback decision and, when both answer, the same rows.
#[test]
fn corpus_demand_answers_match_between_compiled_and_interpreted_paths() {
    let mut compared = 0usize;
    for f in fixtures::corpus() {
        let src = f.source();
        let Ok(p) = parse_program(&src) else { continue };
        let Some(goal) = p.goal.clone() else { continue };
        let mut edb = Instance::new();
        let mut gen = OidGen::new();
        if load_facts(&p.schema, &mut edb, &p.facts, &mut gen).is_err() {
            continue;
        }
        // Corpus goals are all-free and would fall back at the planner;
        // bind the first scalar output variable (as the full-fixpoint
        // corpus test does) so the demand path actually runs.
        let Ok((inst, _)) = evaluate(&p.schema, &p.rules, &edb, Semantics::Stratified, bounded())
        else {
            continue;
        };
        let Ok(free_rows) = answer_goal(&p.schema, &inst, &goal) else {
            continue;
        };
        let Some((var, val)) = free_rows.first().and_then(|row| {
            row.iter()
                .find(|(_, v)| matches!(v, Value::Int(_) | Value::Str(_)))
                .cloned()
        }) else {
            continue;
        };
        let Some(goal) = bind_goal_var(&goal, var, &val) else {
            continue;
        };
        let compiled = prepared_answer(&p, &edb, &goal, Semantics::Stratified, &bounded());
        let interpreted = prepared_answer(
            &p,
            &edb,
            &goal,
            Semantics::Stratified,
            &EvalOptions {
                compiled: false,
                ..bounded()
            },
        );
        match (compiled, interpreted) {
            (Ok(Some((got, _))), Ok(Some((want, _)))) => {
                assert_eq!(
                    got, want,
                    "fixture {} diverges between compiled and interpreted demand paths",
                    f.name
                );
                compared += 1;
            }
            (Ok(None), Ok(None)) | (Err(_), Err(_)) => {}
            (c, i) => panic!(
                "fixture {}: fallback decision differs: compiled={c:?} interpreted={i:?}",
                f.name
            ),
        }
    }
    assert!(
        compared > 0,
        "no corpus fixture answered on both paths — the differential test is vacuous"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random small graphs, random bound source: the demanded closure
    /// answer is always identical to the full fixpoint's.
    #[test]
    fn random_closure_queries_agree(
        edges in proptest::collection::vec((0i64..10, 0i64..10), 0..25),
        src_node in 0i64..10,
    ) {
        let facts: String = edges
            .iter()
            .map(|(a, b)| format!("  e(a: {a}, b: {b}).\n"))
            .collect();
        let src = format!(
            r#"
            associations
              e  = (a: integer, b: integer);
              tc = (a: integer, b: integer);
            rules
              tc(a: X, b: Y) <- e(a: X, b: Y).
              tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).
            facts
            {facts}
            goal tc(a: {src_node}, b: X)?
            "#
        );
        // The oracle runs interpreted (`compiled: false`); the demand path
        // runs with the compiled fast path on (the default) — so this
        // doubles as a compiled-vs-interpreter differential over the
        // magic-rewritten programs.
        let oracle = EvalOptions { compiled: false, ..EvalOptions::default() };
        let want = full_answer(&src, &oracle).expect("closure evaluates");
        let got = demand_answer(&src, &EvalOptions::default()).expect("bound source rewrites");
        prop_assert_eq!(&got, &want);
        // Round 1 joins the one-row demand seed with `e`: whenever `e`
        // holds more rows than that, the join probes `e`'s argument index
        // (unless flow analysis prunes the join, when no edge leaves the
        // source).
        let distinct: std::collections::BTreeSet<_> = edges.iter().collect();
        if distinct.len() > 1 && edges.iter().any(|&(a, _)| a == src_node) {
            let profile = demand_profile(&src);
            prop_assert!(
                profile.rules.iter().flat_map(|r| r.ops.iter()).any(|op| op.access == "index e.a"),
                "no join probed e's index: {}",
                profile.render()
            );
        }
    }
}

/// The compiled demand path's EXPLAIN ANALYZE profile for a program's goal.
fn demand_profile(src: &str) -> PlanProfile {
    let p = parse_program(src).expect("parses");
    let mut edb = Instance::new();
    load_facts(&p.schema, &mut edb, &p.facts, &mut OidGen::new()).expect("loads");
    let opts = EvalOptions {
        profile: true,
        ..EvalOptions::default()
    };
    let goal = p.goal.as_ref().expect("goal");
    let (_, report) = prepared_answer(&p, &edb, goal, Semantics::Stratified, &opts)
        .expect("evaluates")
        .expect("bound goal rewrites");
    report.plan_profile.expect("ran compiled")
}

const INVENTION: &str = r#"
    classes
      person = (name: string);
    associations
      named = (name: string);
    rules
      person(name: N) <- named(name: N).
    facts
      named(name: "ada").
      named(name: "bob").
"#;

/// Oid-inventing programs are exempt: the demand path declines (inventing
/// only the demanded subset would mint different oids than the full run),
/// and the query still answers correctly through the fallback.
#[test]
fn invented_oid_goals_fall_back_and_still_answer() {
    let src = format!("{INVENTION}    goal person(name: \"ada\")?\n");
    assert!(
        demand_answer(&src, &EvalOptions::default()).is_none(),
        "oid invention must not take the demand path"
    );
    let mut db = Database::from_source(INVENTION).unwrap();
    let rows = db.query("goal person(name: \"ada\")?").unwrap();
    assert_eq!(rows.len(), 1);
}

const DELETION: &str = r#"
    associations
      banned = (n: integer);
      ok     = (n: integer);
    rules
      -ok(n: X) <- banned(n: X).
    facts
      banned(n: 1).
      ok(n: 1).
      ok(n: 2).
"#;

/// Deleting heads are exempt: pruning rules by demand could skip a
/// deletion that the full semantics performs. The goal must fall back and
/// agree with the full run.
#[test]
fn head_negation_goals_fall_back_and_still_answer() {
    let src = format!("{DELETION}    goal ok(n: 2)?\n");
    assert!(
        demand_answer(&src, &EvalOptions::default()).is_none(),
        "deleting heads must not take the demand path"
    );
    let mut db = Database::from_source(DELETION).unwrap();
    let rows = db.query("goal ok(n: 2)?").unwrap();
    assert_eq!(rows.len(), 1);
    assert!(db.query("goal ok(n: 1)?").unwrap().is_empty());
}

const CLOSURE: &str = r#"
    associations
      e  = (a: integer, b: integer);
      tc = (a: integer, b: integer);
    rules
      tc(a: X, b: Y) <- e(a: X, b: Y).
      tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).
    facts
      e(a: 0, b: 1).
      e(a: 1, b: 2).
      e(a: 2, b: 0).
      e(a: 5, b: 6).
    goal tc(a: 0, b: X)?
"#;

/// The rewritten program answers identically under both semantics, and
/// identically to the full inflationary run.
#[test]
fn demand_agrees_across_semantics_and_drivers() {
    let p = parse_program(CLOSURE).unwrap();
    let goal = p.goal.clone().unwrap();
    let mut edb = Instance::new();
    let mut gen = OidGen::new();
    load_facts(&p.schema, &mut edb, &p.facts, &mut gen).unwrap();

    let (full, _) =
        evaluate_inflationary(&p.schema, &p.rules, &edb, EvalOptions::default()).unwrap();
    let want = answer_goal(&p.schema, &full, &goal).unwrap();
    assert_eq!(want.len(), 3); // 0 reaches 1, 2, and itself — never 5/6.

    for semantics in [Semantics::Inflationary, Semantics::Stratified] {
        let (rows, _) = prepared_answer(&p, &edb, &goal, semantics, &EvalOptions::default())
            .unwrap()
            .expect("bound source rewrites");
        assert_eq!(rows, want, "{semantics:?} diverges from the full run");
    }
}

/// The demand path is an optimization, not a semantic switch: a `Database`
/// query and a RIDI application of the same goal both take it
/// transparently, and the visible behavior (rows, persisted rule set) is
/// that of the full fixpoint, here computed independently by the
/// interpreter.
#[test]
fn database_query_is_transparent_about_the_demand_path() {
    let base = &CLOSURE[..CLOSURE.find("goal").unwrap()];
    let mut db = Database::from_source(base).unwrap();
    let registry = db.enable_metrics();
    let fast = db.query("goal tc(a: 0, b: X)?").unwrap();
    let applied = db
        .apply_source("goal tc(a: 0, b: X)?", Mode::Ridi)
        .unwrap()
        .answer
        .unwrap();
    assert_eq!(fast, applied);
    assert_eq!(
        registry.counter("logres_magic_rewrites_total").get(),
        2,
        "both ran the demand-rewritten program"
    );
    let interpreter = EvalOptions {
        compiled: false,
        ..EvalOptions::default()
    };
    assert_eq!(Some(fast), full_answer(CLOSURE, &interpreter));
    assert_eq!(db.rules().len(), 2);
}

/// The rule numbers of the `rule #N` headers in an EXPLAIN or EXPLAIN
/// ANALYZE rendering.
fn rule_headers(text: &str) -> std::collections::BTreeSet<usize> {
    text.lines()
        .filter_map(|l| l.trim_start().strip_prefix("rule #"))
        .map(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().expect("rule number")
        })
        .collect()
}

/// The database the EXPLAIN tests explain.
const EXPLAINED: &str = r#"
    associations
      parent = (par: string, chil: string);
      anc    = (a: string, d: string);
      never  = (a: string);
    facts
      parent(par: "adam", chil: "cain").
      parent(par: "cain", chil: "enoch").
      parent(par: "eve", chil: "abel").
    rules
      anc(a: X, d: Y) <- parent(par: X, chil: Y).
      anc(a: X, d: Z) <- anc(a: X, d: Y), parent(par: Y, chil: Z).
      never(a: X) <- parent(par: X, chil: "zzz").
"#;

/// EXPLAIN shows the program a query evaluates: for a bound goal, the
/// demand-rewritten program, numbered as EXPLAIN ANALYZE numbers it.
#[test]
fn explain_renders_the_program_the_query_runs() {
    let mut db = Database::from_source(EXPLAINED).unwrap();
    let goal = r#"goal anc(a: "adam", d: X)?"#;
    let explain = db.explain_goal(goal).unwrap();
    let analyze = db.explain_analyze_goal(goal).unwrap();
    assert!(explain.contains("@magic_anc"), "{explain}");
    assert!(!explain.contains("never"), "{explain}");
    assert!(!rule_headers(&analyze).is_empty(), "{analyze}");
    assert_eq!(
        rule_headers(&explain),
        rule_headers(&analyze),
        "EXPLAIN:\n{explain}\nANALYZE:\n{analyze}"
    );
    // An all-free goal runs the full program, and EXPLAIN says so.
    let full = db.explain_goal("goal anc(a: X, d: Y)?").unwrap();
    assert!(!full.contains("@magic_"), "{full}");
    assert!(full.contains("never"), "{full}");
}

/// EXPLAIN renders the route the current options take. With provenance on
/// or the compiled path off, a query runs on the interpreter, so EXPLAIN
/// prints no operator tree but the reason, as the fallback counter labels
/// it; under the default options it still prints what EXPLAIN ANALYZE
/// profiles.
#[test]
fn explain_follows_the_route_the_options_choose() {
    let mut db = Database::from_source(EXPLAINED).unwrap();
    let bound = r#"goal anc(a: "adam", d: X)?"#;
    let routes = [
        (
            EvalOptions {
                provenance: true,
                ..EvalOptions::default()
            },
            "not compiled (provenance)",
        ),
        (
            EvalOptions {
                compiled: false,
                ..EvalOptions::default()
            },
            "the compiled path is off",
        ),
    ];
    for (opts, reason) in routes {
        db.set_options(opts);
        for src in [bound, "goal anc(a: X, d: Y)?"] {
            let explain = db.explain_goal(src).unwrap();
            assert!(rule_headers(&explain).is_empty(), "{explain}");
            assert!(explain.contains(reason), "{explain}");
            assert!(explain.contains("interpreter"), "{explain}");
        }
        let analyze = db.explain_analyze_goal(bound).unwrap();
        assert!(analyze.contains("ran on the interpreter"), "{analyze}");
    }
    db.set_options(EvalOptions::default());
    let explain = db.explain_goal(bound).unwrap();
    let analyze = db.explain_analyze_goal(bound).unwrap();
    assert!(!rule_headers(&explain).is_empty(), "{explain}");
    assert_eq!(rule_headers(&explain), rule_headers(&analyze));
}
