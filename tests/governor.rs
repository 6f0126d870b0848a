//! The evaluation governor (DESIGN.md §7): deadline and value-budget
//! cancellation must return a structured error with a partial report — no
//! panic, no hang — and a governed run whose budgets never trip must be
//! **bit-identical** to an ungoverned one. `EvalOptions::threads` is
//! ignored: a run at `threads: 8` leaves the instance and the normalized
//! trace unchanged.

use std::time::Duration;

use logres::engine::{
    evaluate, evaluate_inflationary, load_facts, CancelCause, EngineError, EvalOptions,
    MaterializedView, Semantics, TraceEvent, Tracer,
};
use logres::lang::parse_program;
use logres::model::{Instance, OidGen, Sym};
use logres_repro::generators::{closure_program, random_edges};

/// A diverging program: every step invents a fresh counter object, so the
/// inflationary fixpoint never closes (termination is undecidable in
/// general — Appendix B; this instance visibly diverges).
const DIVERGING: &str = r#"
    classes
      c = (n: integer);
    rules
      c(self: X, n: 0) <- .
      c(self: X, n: N) <- c(n: M), N = M + 1.
"#;

/// A terminating program that still exercises oid invention.
const INVENTING: &str = r#"
    classes
      copy = (v: integer);
    associations
      src_t = (v: integer);
    facts
      src_t(v: 1).
      src_t(v: 2).
      src_t(v: 3).
    rules
      copy(self: X, v: V) <- src_t(v: V).
"#;

fn edb_of(src: &str) -> (logres::Schema, Instance, logres::lang::RuleSet) {
    let p = parse_program(src).expect("parses");
    let mut edb = Instance::new();
    let mut gen = OidGen::new();
    load_facts(&p.schema, &mut edb, &p.facts, &mut gen).expect("loads");
    (p.schema, edb, p.rules)
}

/// The acceptance scenario: a 50ms deadline over the diverging ruleset
/// returns a structured cancellation carrying a partial report.
#[test]
fn deadline_cancels_diverging_run_with_partial_report() {
    let (schema, edb, rules) = edb_of(DIVERGING);
    let opts = EvalOptions {
        deadline: Some(Duration::from_millis(50)),
        ..EvalOptions::default()
    };
    let err = evaluate_inflationary(&schema, &rules, &edb, opts)
        .expect_err("the diverging run must be cancelled");
    let EngineError::Cancelled { cause, partial } = err else {
        panic!("expected Cancelled, got {err}");
    };
    assert_eq!(cause, CancelCause::Deadline { budget_ms: 50 });
    assert!(partial.steps > 0, "no progress recorded");
    assert!(partial.facts > 0, "no facts recorded");
    // Per-rule profiles cover every rule and show real firings.
    assert_eq!(partial.rule_profiles.len(), rules.rules.len());
    let firings: usize = partial.rule_profiles.iter().map(|p| p.firings).sum();
    assert!(firings > 0, "profiles are empty");
    // The error formats without panicking and names the cause.
    let msg = EngineError::Cancelled { cause, partial }.to_string();
    assert!(msg.contains("deadline of 50ms"), "{msg}");
}

#[test]
fn value_budget_cancels_with_cause_and_usage() {
    let (schema, edb, rules) = edb_of(DIVERGING);
    let opts = EvalOptions {
        max_value_nodes: Some(64),
        ..EvalOptions::default()
    };
    let err =
        evaluate_inflationary(&schema, &rules, &edb, opts).expect_err("the value budget must trip");
    let EngineError::Cancelled { cause, partial } = err else {
        panic!("expected Cancelled, got {err}");
    };
    let CancelCause::ValueBudget { limit, used } = cause else {
        panic!("expected ValueBudget, got {cause:?}");
    };
    assert_eq!(limit, 64);
    assert!(used > limit);
    assert!(partial.steps > 0);
}

/// The deadline spans all strata of a stratified run and the partial report
/// folds in the strata that completed before the abort.
#[test]
fn stratified_runs_share_one_deadline() {
    let (schema, edb, rules) = edb_of(DIVERGING);
    let opts = EvalOptions {
        deadline: Some(Duration::from_millis(50)),
        ..EvalOptions::default()
    };
    let err = evaluate(&schema, &rules, &edb, Semantics::Stratified, opts)
        .expect_err("the diverging run must be cancelled under any semantics");
    let EngineError::Cancelled { partial, .. } = err else {
        panic!("expected Cancelled, got {err}");
    };
    assert!(partial.steps > 0);
}

/// A governor whose budgets never trip must not change the result: the
/// instance (including invented-oid numbering) and the non-timing report
/// fields are bit-identical to an ungoverned run.
#[test]
fn unhit_budgets_leave_results_bit_identical() {
    let src = closure_program(&random_edges(24, 48, 3));
    let (schema, edb, rules) = edb_of(&src);
    let (plain, plain_report) =
        evaluate_inflationary(&schema, &rules, &edb, EvalOptions::default()).expect("plain");
    let governed_opts = EvalOptions {
        deadline: Some(Duration::from_secs(3_600)),
        max_value_nodes: Some(usize::MAX),
        trace: Some(Tracer::memory()),
        ..EvalOptions::default()
    };
    let (governed, governed_report) =
        evaluate_inflationary(&schema, &rules, &edb, governed_opts).expect("governed");
    assert_eq!(plain, governed);
    assert_eq!(plain_report.steps, governed_report.steps);
    assert_eq!(plain_report.facts, governed_report.facts);
}

fn traced_run(src: &str, threads: usize) -> (Instance, Vec<TraceEvent>) {
    let (schema, edb, rules) = edb_of(src);
    let tracer = Tracer::memory();
    let opts = EvalOptions {
        threads,
        trace: Some(tracer.clone()),
        ..EvalOptions::default()
    };
    let (inst, _) = evaluate_inflationary(&schema, &rules, &edb, opts).expect("runs");
    (inst, tracer.events())
}

/// `EvalOptions::threads` is ignored: a run at `threads: 8` derives the same
/// instance and the same event *sequence* as the default run; only timing
/// fields may differ.
#[test]
fn traces_agree_across_thread_counts_modulo_timing() {
    for src in [INVENTING, &closure_program(&random_edges(16, 32, 9))] {
        let (base_inst, base_events) = traced_run(src, 1);
        let base: Vec<TraceEvent> = base_events.iter().map(TraceEvent::normalized).collect();
        assert!(
            base.iter().any(|e| matches!(e, TraceEvent::StepEnd { .. })),
            "trace has no step events"
        );
        let (inst, events) = traced_run(src, 8);
        assert_eq!(inst, base_inst, "instance differs at threads=8");
        let normalized: Vec<TraceEvent> = events.iter().map(TraceEvent::normalized).collect();
        assert_eq!(normalized, base, "trace sequence differs at threads=8");
    }
}

/// A compiled round times the inserts that commit its rows as apply work:
/// every round that derives something reports it, in the report and in its
/// `step_end` event.
#[test]
fn compiled_rounds_report_their_apply_time() {
    let (schema, edb, rules) = edb_of(&closure_program(&random_edges(16, 32, 9)));
    let tracer = Tracer::memory();
    let opts = EvalOptions {
        trace: Some(tracer.clone()),
        ..EvalOptions::default()
    };
    let (_, report) =
        evaluate(&schema, &rules, &edb, Semantics::Stratified, opts).expect("compiled run");
    let events = tracer.events();
    assert!(
        matches!(
            events.first(),
            Some(TraceEvent::EvalStart {
                engine: "compiled",
                ..
            })
        ),
        "{events:?}"
    );
    let deriving: Vec<_> = report.iterations.iter().filter(|s| s.derived > 0).collect();
    assert!(deriving.len() > 1, "{:?}", report.iterations);
    for stats in deriving {
        assert!(stats.apply_nanos > 0, "{stats:?}");
    }
    for ev in &events {
        if let TraceEvent::StepEnd {
            derived,
            apply_nanos,
            ..
        } = ev
        {
            assert!(*derived == 0 || *apply_nanos > 0, "{ev:?}");
        }
    }
}

/// Invention shows up in the trace, once per invented object.
#[test]
fn invention_events_count_invented_oids() {
    let (_, events) = traced_run(INVENTING, 1);
    let inventions = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Invention { .. }))
        .count();
    assert_eq!(inventions, 3, "one invention per src_t tuple");
}

/// Cancelled traced runs end with a `cancelled` event naming the cause.
#[test]
fn cancelled_runs_emit_a_cancelled_event() {
    let (schema, edb, rules) = edb_of(DIVERGING);
    let tracer = Tracer::memory();
    let opts = EvalOptions {
        deadline: Some(Duration::from_millis(30)),
        trace: Some(tracer.clone()),
        ..EvalOptions::default()
    };
    evaluate_inflationary(&schema, &rules, &edb, opts).expect_err("cancelled");
    let events = tracer.events();
    let last = events.last().expect("trace is non-empty");
    let TraceEvent::Cancelled { cause, .. } = last else {
        panic!("expected a trailing Cancelled event, got {last:?}");
    };
    assert!(cause.contains("deadline"), "{cause}");
    // Rendered JSON lines stay one-per-event and well-formed-ish.
    for ev in &events {
        let line = ev.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(!line.contains('\n'), "{line}");
    }
}

/// Budgets bound the maintenance view build too: a 0 ms deadline cancels
/// it at its first round boundary.
#[test]
fn view_build_honors_the_deadline() {
    let src = closure_program(&random_edges(64, 256, 5));
    let (schema, edb, rules) = edb_of(&src);
    let opts = EvalOptions {
        deadline: Some(Duration::from_millis(0)),
        ..EvalOptions::default()
    };
    let err = MaterializedView::build(&schema, &rules, &edb, &opts).expect_err("0ms must cancel");
    let EngineError::Cancelled { partial, .. } = err else {
        panic!("expected Cancelled, got {err}");
    };
    // The partial report carries one profile per rule, as every driver's does.
    assert_eq!(
        partial.rule_profiles.len(),
        rules.rules.len(),
        "{partial:?}"
    );
}

/// A chain closure plus one negation stratum: `tc` in stratum 0, `tc2` in
/// stratum 1. `skip` lists the chain nodes `tc2` leaves out: none (node 100
/// is off the chain), or all of them, when stratum 1 closes in one round.
fn two_strata_chain(edges: usize, skip_all: bool) -> String {
    let facts: String = (0..edges)
        .map(|i| format!("  e(a: {i}, b: {}).\n", i + 1))
        .collect();
    let skipped: Vec<usize> = if skip_all {
        (0..edges).collect()
    } else {
        vec![100]
    };
    let skips: String = skipped
        .iter()
        .map(|i| format!("  skip(a: {i}).\n"))
        .collect();
    format!(
        "associations\n  e = (a: integer, b: integer);\n  tc = (a: integer, b: integer);\n  \
         tc2 = (a: integer, b: integer);\n  skip = (a: integer);\n\
         facts\n{facts}{skips}\
         rules\n  tc(a: X, b: Y) <- e(a: X, b: Y).\n  \
         tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).\n  \
         tc2(a: X, b: Y) <- tc(a: X, b: Y), not skip(a: X).\n"
    )
}

/// Stratum 0 closes at once; stratum 1 invents a counter object per step
/// and never closes.
const SECOND_STRATUM_DIVERGES: &str = r#"
    classes
      c = (n: integer);
    associations
      t = (n: integer);
    rules
      t(n: 1) <- .
      c(self: X, n: 0) <- .
      c(self: X, n: N) <- c(n: M), N = M + 1, not t(n: 5).
"#;

/// Budgets bound a whole stratified run, not each stratum, and charge the
/// same on the interpreter and the compiled path: one value budget, one
/// `max_steps` counting every round begun in any stratum, one deadline
/// reported as configured.
#[test]
fn stratified_budgets_bound_the_whole_run_on_both_paths() {
    enum Want {
        ValueBudget(usize),
        NoFixpoint(usize),
        Fixpoint,
        Deadline(u64),
    }
    let nodes = |n| EvalOptions {
        max_value_nodes: Some(n),
        ..EvalOptions::default()
    };
    let steps = |n| EvalOptions {
        max_steps: n,
        ..EvalOptions::default()
    };
    let chain20 = two_strata_chain(20, false);
    let chain5 = two_strata_chain(5, false);
    let chain5_skipped = two_strata_chain(5, true);
    let cases: Vec<(&str, EvalOptions, Want)> = vec![
        // 20 edges: 441 facts, 1,260 value nodes derived over both strata.
        (&chain20, nodes(800), Want::ValueBudget(800)),
        (&chain20, nodes(1_000), Want::ValueBudget(1_000)),
        (&chain20, nodes(1_200), Want::ValueBudget(1_200)),
        // 5 edges: six rounds close `tc`, two more close `tc2`.
        (&chain5, steps(6), Want::NoFixpoint(6)),
        (&chain5, steps(7), Want::NoFixpoint(7)),
        (&chain5, steps(8), Want::Fixpoint),
        // `tc2` derives nothing: its stratum's one round counts as well.
        (&chain5_skipped, steps(6), Want::NoFixpoint(6)),
        (&chain5_skipped, steps(7), Want::Fixpoint),
        (
            SECOND_STRATUM_DIVERGES,
            EvalOptions {
                deadline: Some(Duration::from_millis(50)),
                ..EvalOptions::default()
            },
            Want::Deadline(50),
        ),
    ];
    for (src, base, want) in &cases {
        let (schema, edb, rules) = edb_of(src);
        for compiled in [true, false] {
            let opts = EvalOptions {
                compiled,
                ..base.clone()
            };
            let ctx = format!(
                "compiled={compiled} max_steps={} max_value_nodes={:?} deadline={:?}",
                opts.max_steps, opts.max_value_nodes, opts.deadline
            );
            let got = evaluate(&schema, &rules, &edb, Semantics::Stratified, opts);
            match (want, got) {
                (Want::Fixpoint, Ok(_)) => {}
                (Want::NoFixpoint(n), Err(EngineError::NoFixpoint { steps })) => {
                    assert_eq!(steps, *n, "{ctx}")
                }
                (Want::ValueBudget(n), Err(EngineError::Cancelled { cause, .. })) => {
                    let CancelCause::ValueBudget { limit, used } = cause else {
                        panic!("{ctx}: expected a value budget, got {cause:?}");
                    };
                    assert_eq!(limit, *n, "{ctx}");
                    assert!(used > limit, "{ctx}");
                }
                (Want::Deadline(ms), Err(EngineError::Cancelled { cause, partial })) => {
                    assert_eq!(cause, CancelCause::Deadline { budget_ms: *ms }, "{ctx}");
                    let msg = EngineError::Cancelled { cause, partial }.to_string();
                    assert!(msg.contains(&format!("deadline of {ms}ms")), "{ctx}: {msg}");
                }
                (_, other) => {
                    panic!("{ctx}: unexpected outcome {:?}", other.map(|r| r.1.steps))
                }
            }
        }
    }
}

/// Sanity for the Sym import lint: the counter program really does invent.
#[test]
fn diverging_program_makes_progress_before_cancellation() {
    let (schema, edb, rules) = edb_of(DIVERGING);
    let opts = EvalOptions {
        max_value_nodes: Some(200),
        ..EvalOptions::default()
    };
    let err = evaluate_inflationary(&schema, &rules, &edb, opts).expect_err("trips");
    let EngineError::Cancelled { partial, .. } = err else {
        panic!("expected Cancelled");
    };
    // Each step inserts one more counter object than the last instance had.
    assert!(partial.facts >= partial.steps, "{partial:?}");
    let _ = Sym::new("c");
}
