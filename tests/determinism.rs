//! Thread-count determinism: evaluation with `threads` = 1, 2, 8, and 0
//! (auto: one worker per core) must produce **bit-identical** instances —
//! including invented-oid numbering —
//! because only the body-match phase is parallel; head instantiation (which
//! consumes the invention memo and the oid generator) always runs serially
//! in canonical rule order.

use logres::engine::{
    evaluate_inflationary, evaluate_stratified, load_facts, EvalOptions, MaterializedView,
    TraceEvent, Tracer,
};
use logres::lang::parse_program;
use logres::model::{Instance, Oid, OidGen, Sym};
use logres::{Database, Mode};
use logres_repro::generators::{closure_program, random_edges};

const THREAD_COUNTS: [usize; 4] = [1, 2, 8, 0]; // 0 = one worker per core

fn edb_of(src: &str) -> (logres::Schema, Instance, logres::lang::RuleSet) {
    let p = parse_program(src).expect("parses");
    let mut edb = Instance::new();
    let mut gen = OidGen::new();
    load_facts(&p.schema, &mut edb, &p.facts, &mut gen).expect("loads");
    (p.schema, edb, p.rules)
}

fn opts(threads: usize) -> EvalOptions {
    EvalOptions {
        threads,
        ..EvalOptions::default()
    }
}

/// Run the inflationary engine at every thread count and demand identical
/// instances and identical non-timing statistics.
fn assert_inflationary_deterministic(src: &str) -> Instance {
    let (schema, edb, rules) = edb_of(src);
    let (baseline, base_report) =
        evaluate_inflationary(&schema, &rules, &edb, opts(1)).expect("serial run");
    for threads in THREAD_COUNTS {
        let (inst, report) =
            evaluate_inflationary(&schema, &rules, &edb, opts(threads)).expect("parallel run");
        assert_eq!(inst, baseline, "instance differs at threads={threads}");
        assert_eq!(
            report.steps, base_report.steps,
            "steps differ at threads={threads}"
        );
        assert_eq!(
            report.facts, base_report.facts,
            "facts differ at threads={threads}"
        );
        let counters = |r: &logres::EvalReport| {
            r.iterations
                .iter()
                .map(|s| (s.firings, s.derived, s.deleted))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            counters(&report),
            counters(&base_report),
            "per-iteration counters differ at threads={threads}"
        );
    }
    baseline
}

#[test]
fn invention_workload_is_thread_count_invariant() {
    // Oid invention is the sharp edge: a nondeterministic merge order would
    // renumber the invented objects. The invented oids must be *equal*, not
    // merely isomorphic.
    let baseline = assert_inflationary_deterministic(
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
    let invented: Vec<Oid> = baseline.oids_of(Sym::new("ip")).collect();
    assert_eq!(invented.len(), 4);
}

#[test]
fn update_workload_is_thread_count_invariant() {
    // Example 4.2: in-place update via simultaneous derivation + deletion,
    // exercising the Δ⁻ path and the protected-fact intersection term.
    assert_inflationary_deterministic(
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
}

#[test]
fn function_workload_is_thread_count_invariant() {
    // Member heads write data-function extensions (Example 3.2).
    assert_inflationary_deterministic(
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
}

#[test]
fn closure_workload_is_thread_count_invariant() {
    assert_inflationary_deterministic(&closure_program(&random_edges(14, 28, 11)));
}

/// The maintenance view build runs its match phases in parallel; the view
/// and its support graph must not depend on the thread count.
#[test]
fn view_build_is_thread_count_invariant() {
    let (schema, edb, rules) = edb_of(&closure_program(&random_edges(14, 28, 12)));
    let (baseline, base_report) =
        MaterializedView::build(&schema, &rules, &edb, &opts(1)).expect("serial build");
    assert!(baseline.supported_count() > 0);
    for threads in THREAD_COUNTS {
        let (view, report) =
            MaterializedView::build(&schema, &rules, &edb, &opts(threads)).expect("parallel build");
        assert_eq!(
            view.instance(),
            baseline.instance(),
            "instance differs at threads={threads}"
        );
        assert_eq!(view.supported_count(), baseline.supported_count());
        assert_eq!(report.steps, base_report.steps);
    }
}

/// A traced maintained update records its delta rounds like any other run,
/// and the record does not depend on the thread count.
#[test]
fn maintained_update_trace_is_thread_count_invariant() {
    let traced_update = |threads: usize| {
        let mut db = Database::from_source(&closure_program(&random_edges(14, 28, 14)))
            .expect("program loads");
        db.set_options(opts(threads));
        db.apply_source("rules\n  e(a: 100, b: 101) <- .\n", Mode::Ridv)
            .expect("builds the view");
        let tracer = Tracer::memory();
        db.set_options(EvalOptions {
            trace: Some(tracer.clone()),
            ..opts(threads)
        });
        db.apply_source(
            "rules\n  e(a: 101, b: 102) <- .\n  e(a: 5, b: 100) <- .\n",
            Mode::Ridv,
        )
        .expect("maintained update");
        let events: Vec<TraceEvent> = tracer.events().iter().map(TraceEvent::normalized).collect();
        (events, db.edb().clone())
    };
    let (base, base_edb) = traced_update(1);
    assert!(
        matches!(
            base.first(),
            Some(TraceEvent::EvalStart {
                engine: "maintain",
                ..
            })
        ),
        "{base:?}"
    );
    assert!(
        base.iter().any(|e| matches!(e, TraceEvent::StepEnd { .. })),
        "maintenance rounds leave no step_end: {base:?}"
    );
    for threads in THREAD_COUNTS {
        let (events, edb) = traced_update(threads);
        assert_eq!(edb, base_edb, "state differs at threads={threads}");
        assert_eq!(events, base, "trace differs at threads={threads}");
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
    let (baseline, _) = evaluate_stratified(&schema, &rules, &edb, opts(1)).expect("serial");
    for threads in THREAD_COUNTS {
        let (inst, _) =
            evaluate_stratified(&schema, &rules, &edb, opts(threads)).expect("parallel");
        assert_eq!(inst, baseline, "instance differs at threads={threads}");
    }
}

#[test]
fn auto_thread_count_matches_serial() {
    // threads = 0 resolves to the machine's core count; still identical.
    let (schema, edb, rules) = edb_of(&closure_program(&random_edges(10, 20, 13)));
    let (serial, _) = evaluate_inflationary(&schema, &rules, &edb, opts(1)).unwrap();
    let (auto, _) = evaluate_inflationary(&schema, &rules, &edb, opts(0)).unwrap();
    assert_eq!(serial, auto);
}
