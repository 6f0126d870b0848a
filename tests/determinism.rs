//! Determinism: every driver matches its rules serially in canonical rule
//! order, so one run's result is fixed by the program and its EDB —
//! including invented-oid numbering, which Definition 8 ties to one
//! (rule, valuation) each. Each workload here runs once and is checked
//! against its expected result. `EvalOptions::threads` is ignored; the pin
//! that `threads: 8` changes neither the instance nor the normalized trace
//! is `traces_agree_across_thread_counts_modulo_timing` in
//! tests/governor.rs.

use std::collections::BTreeSet;

use logres::engine::{
    evaluate_inflationary, evaluate_stratified, load_facts, EvalOptions, MaterializedView,
    TraceEvent, Tracer,
};
use logres::lang::parse_program;
use logres::model::{Instance, Oid, OidGen, Sym, Value};
use logres::{Database, Mode};
use logres_repro::generators::{closure_program, random_edges, reference_closure};

fn edb_of(src: &str) -> (logres::Schema, Instance, logres::lang::RuleSet) {
    let p = parse_program(src).expect("parses");
    let mut edb = Instance::new();
    let mut gen = OidGen::new();
    load_facts(&p.schema, &mut edb, &p.facts, &mut gen).expect("loads");
    (p.schema, edb, p.rules)
}

/// One inflationary run under the default options.
fn run_inflationary(src: &str) -> (Instance, Instance) {
    let (schema, edb, rules) = edb_of(src);
    let (inst, _) =
        evaluate_inflationary(&schema, &rules, &edb, EvalOptions::default()).expect("runs");
    (edb, inst)
}

/// The `(a, b)` integer pairs stored in association `assoc`.
fn pairs(inst: &Instance, assoc: &str, a: &str, b: &str) -> BTreeSet<(i64, i64)> {
    inst.tuples_of(Sym::new(assoc))
        .map(|t| match (t.field(Sym::new(a)), t.field(Sym::new(b))) {
            (Some(Value::Int(x)), Some(Value::Int(y))) => (*x, *y),
            other => panic!("unexpected {assoc} tuple fields {other:?}"),
        })
        .collect()
}

#[test]
fn invention_workload_is_thread_count_invariant() {
    // Oid invention is the sharp edge: each (rule, valuation) draws one
    // fresh oid, in canonical order, so the numbering is fixed — the
    // invented oids are the four right after the EDB's, none skipped.
    let (edb, inst) = run_inflationary(
        r#"
        classes
          ip = (emp: string, mgr: string);
        associations
          pair = (emp: string, mgr: string);
        facts
          pair(emp: "e1", mgr: "m1").
          pair(emp: "e2", mgr: "m2").
          pair(emp: "e3", mgr: "m3").
          pair(emp: "e1", mgr: "m2").
        rules
          ip(self: X, C) <- pair(C).
    "#,
    );
    let invented: BTreeSet<Oid> = inst.oids_of(Sym::new("ip")).collect();
    assert_eq!(invented.len(), 4);
    let first = edb.oid_gen().fresh().0;
    assert_eq!(
        invented,
        (first..first + 4).map(Oid).collect::<BTreeSet<_>>()
    );
}

#[test]
fn update_workload_is_thread_count_invariant() {
    // Example 4.2: in-place update via simultaneous derivation + deletion,
    // exercising the Δ⁻ path and the protected-fact intersection term: the
    // even rows gain one in `d2`, the odd rows stay.
    let (_, inst) = run_inflationary(
        r#"
        associations
          p     = (d1: integer, d2: integer);
          mod_t = (d1: integer, d2: integer);
        facts
          p(d1: 1, d2: 1).
          p(d1: 2, d2: 2).
          p(d1: 3, d2: 3).
          p(d1: 4, d2: 4).
          p(d1: 5, d2: 5).
          p(d1: 6, d2: 6).
        rules
          p(d1: X, d2: Z) <- p(d1: X, d2: Y), even(X), Z = Y + 1,
                             not mod_t(d1: X, d2: Y).
          mod_t(d1: X, d2: Z) <- p(d1: X, d2: Y), even(X), Z = Y + 1,
                                 not mod_t(d1: X, d2: Y).
          -p(Y) <- p(Y, d1: X), even(X), not mod_t(Y).
    "#,
    );
    assert_eq!(
        pairs(&inst, "p", "d1", "d2"),
        BTreeSet::from([(1, 1), (2, 3), (3, 3), (4, 5), (5, 5), (6, 7)])
    );
}

#[test]
fn function_workload_is_thread_count_invariant() {
    // Member heads write data-function extensions (Example 3.2).
    let (_, inst) = run_inflationary(
        r#"
        classes
          person = (name: string);
        associations
          parent   = (par: string, chil: string);
          ancestor = (anc: string, des: {string});
        functions
          desc: string -> {string};
        facts
          parent(par: "a", chil: "b").
          parent(par: "b", chil: "c").
          parent(par: "b", chil: "d").
        rules
          member(X, desc(Y)) <- parent(par: Y, chil: X).
          member(X, desc(Y)) <- parent(par: Y, chil: Z), member(X, T), T = desc(Z).
          ancestor(anc: X, des: Y) <- parent(par: X), Y = desc(X).
    "#,
    );
    let desc = |of: &str| inst.fun_value(Sym::new("desc"), &[Value::str(of)]);
    let names = |ns: &[&str]| Value::set(ns.iter().map(|n| Value::str(*n)));
    assert_eq!(desc("a"), names(&["b", "c", "d"]));
    assert_eq!(desc("b"), names(&["c", "d"]));
}

#[test]
fn closure_workload_is_thread_count_invariant() {
    let edges = random_edges(14, 28, 11);
    let (_, inst) = run_inflationary(&closure_program(&edges));
    assert_eq!(pairs(&inst, "tc", "a", "b"), reference_closure(&edges));
}

/// The maintenance view build derives the same instance as the fixpoint
/// driver and records one derivation per derived fact.
#[test]
fn view_build_is_thread_count_invariant() {
    let (schema, edb, rules) = edb_of(&closure_program(&random_edges(14, 28, 12)));
    let (view, _) =
        MaterializedView::build(&schema, &rules, &edb, &EvalOptions::default()).expect("builds");
    let (fixpoint, _) =
        evaluate_inflationary(&schema, &rules, &edb, EvalOptions::default()).expect("runs");
    assert_eq!(view.instance(), &fixpoint);
    assert!(view.supported_count() > 0);
    assert_eq!(
        view.supported_count(),
        fixpoint.fact_count() - edb.fact_count()
    );
}

/// A traced maintained update records its delta rounds like any other run.
#[test]
fn maintained_update_trace_is_thread_count_invariant() {
    let mut db =
        Database::from_source(&closure_program(&random_edges(14, 28, 14))).expect("program loads");
    db.apply_source("rules\n  e(a: 100, b: 101) <- .\n", Mode::Ridv)
        .expect("builds the view");
    let tracer = Tracer::memory();
    db.set_options(EvalOptions {
        trace: Some(tracer.clone()),
        ..EvalOptions::default()
    });
    db.apply_source(
        "rules\n  e(a: 101, b: 102) <- .\n  e(a: 5, b: 100) <- .\n",
        Mode::Ridv,
    )
    .expect("maintained update");
    let events: Vec<TraceEvent> = tracer.events().iter().map(TraceEvent::normalized).collect();
    assert!(
        matches!(
            events.first(),
            Some(TraceEvent::EvalStart {
                engine: "maintain",
                ..
            })
        ),
        "{events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::StepEnd { .. })),
        "maintenance rounds leave no step_end: {events:?}"
    );
    let e = |a: i64, b: i64| Value::tuple([("a", Value::Int(a)), ("b", Value::Int(b))]);
    for (a, b) in [(100, 101), (101, 102), (5, 100)] {
        assert!(db.edb().has_tuple(Sym::new("e"), &e(a, b)), "e({a}, {b})");
    }
}

#[test]
fn stratified_is_thread_count_invariant() {
    let src = r#"
        associations
          node     = (n: integer);
          edge     = (a: integer, b: integer);
          covered  = (n: integer);
          isolated = (n: integer);
        facts
          node(n: 1).
          node(n: 2).
          node(n: 3).
          node(n: 4).
          edge(a: 1, b: 2).
          edge(a: 2, b: 4).
        rules
          covered(n: X) <- edge(a: X, b: Y).
          covered(n: X) <- edge(a: Y, b: X).
          isolated(n: X) <- node(n: X), not covered(n: X).
    "#;
    let (schema, edb, rules) = edb_of(src);
    let (inst, _) =
        evaluate_stratified(&schema, &rules, &edb, EvalOptions::default()).expect("runs");
    let isolated: Vec<&Value> = inst.tuples_of(Sym::new("isolated")).collect();
    assert_eq!(isolated, [&Value::tuple([("n", Value::Int(3))])]);
}
