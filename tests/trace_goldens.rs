//! Trace goldens: what one evaluation records, pinned byte for byte.
//!
//! Each golden holds one fixed run's normalized JSON-lines trace (timing
//! fields zeroed), its counter snapshot, and its report's `steps`,
//! `iterations` and `rule_profiles` with timings zeroed. Together they pin
//! the run record every driver keeps (DESIGN.md §7): round numbering,
//! budget checkpoints, per-rule numbering and the step metrics.
//!
//! Regenerate with `LOGRES_UPDATE_GOLDENS=1 cargo test --test trace_goldens`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use logres::engine::{
    evaluate, evaluate_inflationary, load_facts, EvalOptions, MetricsRegistry, Semantics,
    TraceEvent, Tracer,
};
use logres::lang::parse_program;
use logres::model::{Instance, OidGen};
use logres::{Database, EvalReport, Mode};
use logres_repro::generators::{chain_edges, closure_program};

/// Example 4.2 in miniature: derivation + deletion through Δ⁻.
const UPDATE: &str = r#"
    associations
      p     = (d1: integer, d2: integer);
      mod_t = (d1: integer, d2: integer);
    facts
      p(d1: 1, d2: 1).
      p(d1: 2, d2: 2).
      p(d1: 3, d2: 3).
      p(d1: 4, d2: 4).
    rules
      p(d1: X, d2: Z) <- p(d1: X, d2: Y), even(X), Z = Y + 1,
                         not mod_t(d1: X, d2: Y).
      mod_t(d1: X, d2: Z) <- p(d1: X, d2: Y), even(X), Z = Y + 1,
                             not mod_t(d1: X, d2: Y).
      -p(Y) <- p(Y, d1: X), even(X), not mod_t(Y).
"#;

/// Oid invention through an association (Example 3.4 in miniature).
const INVENTION: &str = r#"
    classes
      ip = (emp: string, mgr: string);
    associations
      pair = (emp: string, mgr: string);
    facts
      pair(emp: "e1", mgr: "m1").
      pair(emp: "e2", mgr: "m2").
      pair(emp: "e1", mgr: "m2").
    rules
      ip(self: X, C) <- pair(C).
"#;

/// A two-stratum program: `isolated` negates `covered`.
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

fn edb_of(src: &str) -> (logres::Schema, Instance, logres::lang::RuleSet) {
    let p = parse_program(src).expect("parses");
    let mut edb = Instance::new();
    let mut gen = OidGen::new();
    load_facts(&p.schema, &mut edb, &p.facts, &mut gen).expect("loads");
    (p.schema, edb, p.rules)
}

/// Options that trace and count into fresh sinks.
fn traced(compiled: bool) -> (EvalOptions, Arc<Tracer>, Arc<MetricsRegistry>) {
    let tracer = Tracer::memory();
    let registry = Arc::new(MetricsRegistry::new());
    let opts = EvalOptions {
        trace: Some(tracer.clone()),
        metrics: Some(registry.clone()),
        compiled,
        ..EvalOptions::default()
    };
    (opts, tracer, registry)
}

/// The golden text of one run: trace, counters, report.
fn render(events: &[TraceEvent], registry: &MetricsRegistry, report: &EvalReport) -> String {
    let mut out = String::from("# trace\n");
    for ev in events {
        out.push_str(&ev.normalized().to_json_line());
        out.push('\n');
    }
    out.push_str("# counters\n");
    for (series, value) in registry.counter_snapshot() {
        writeln!(out, "{series} {value}").unwrap();
    }
    out.push_str("# report\n");
    writeln!(out, "steps {}", report.steps).unwrap();
    for it in &report.iterations {
        writeln!(
            out,
            "iteration firings={} derived={} deleted={} invented={}",
            it.firings, it.derived, it.deleted, it.invented
        )
        .unwrap();
    }
    for p in &report.rule_profiles {
        writeln!(
            out,
            "profile firings={} derived={} deleted={} invented={} rule={}",
            p.firings, p.derived, p.deleted, p.invented, p.rule
        )
        .unwrap();
    }
    out
}

fn assert_golden(name: &str, actual: String) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.golden.txt"));
    if std::env::var_os("LOGRES_UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, actual).expect("golden file writes");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{} missing ({e}); regenerate with \
             `LOGRES_UPDATE_GOLDENS=1 cargo test --test trace_goldens`",
            path.display()
        )
    });
    assert_eq!(
        actual,
        golden,
        "{name} drifted from {}; regenerate with \
         `LOGRES_UPDATE_GOLDENS=1 cargo test --test trace_goldens`",
        path.display()
    );
}

/// Run `src` through `evaluate` under `semantics` and pin the record.
fn golden_run(name: &str, src: &str, semantics: Semantics, compiled: bool) {
    let (schema, edb, rules) = edb_of(src);
    let (opts, tracer, registry) = traced(compiled);
    let (_, report) = evaluate(&schema, &rules, &edb, semantics, opts).expect("evaluates");
    assert_golden(name, render(&tracer.events(), &registry, &report));
}

#[test]
fn interpreter_deletion_run_matches_its_golden() {
    let (schema, edb, rules) = edb_of(UPDATE);
    let (opts, tracer, registry) = traced(false);
    let (_, report) = evaluate_inflationary(&schema, &rules, &edb, opts).expect("evaluates");
    assert_golden(
        "interpreter_update",
        render(&tracer.events(), &registry, &report),
    );
}

#[test]
fn interpreter_invention_run_matches_its_golden() {
    let (schema, edb, rules) = edb_of(INVENTION);
    let (opts, tracer, registry) = traced(false);
    let (_, report) = evaluate_inflationary(&schema, &rules, &edb, opts).expect("evaluates");
    assert_golden(
        "interpreter_invention",
        render(&tracer.events(), &registry, &report),
    );
}

#[test]
fn compiled_chain_closure_matches_its_golden() {
    let src = closure_program(&chain_edges(5));
    golden_run("compiled_chain", &src, Semantics::Inflationary, true);
}

#[test]
fn compiled_stratified_run_matches_its_golden() {
    golden_run("compiled_covered", COVERED, Semantics::Stratified, true);
}

#[test]
fn interpreted_stratified_run_matches_its_golden() {
    golden_run("interpreted_covered", COVERED, Semantics::Stratified, false);
}

/// A maintained RIDV insert that extends a chain closure by one hop. The
/// view is built by the first application, untraced.
#[test]
fn maintained_insert_matches_its_golden() {
    let mut db = Database::from_source(&closure_program(&chain_edges(4))).expect("loads");
    let registry = db.enable_metrics();
    db.apply_source("rules\n  e(a: 10, b: 11) <- .\n", Mode::Ridv)
        .expect("builds the view");
    let tracer = Tracer::memory();
    let mut opts = db.options().clone();
    opts.trace = Some(tracer.clone());
    db.set_options(opts);
    let outcome = db
        .apply_source("rules\n  e(a: 4, b: 5) <- .\n", Mode::Ridv)
        .expect("maintained insert");
    assert!(
        tracer.events().iter().any(|e| matches!(
            e,
            TraceEvent::EvalStart {
                engine: "maintain",
                ..
            }
        )),
        "the insert took the maintained path"
    );
    assert_golden(
        "maintained_insert",
        render(&tracer.events(), &registry, &outcome.report),
    );
}

/// A maintained RADV that adds the recursive closure rule to a one-rule
/// view: the pass evaluates both rules, and `eval_start` counts both. The
/// view is built by a first (untraced) RIDV insert.
#[test]
fn maintained_rule_addition_matches_its_golden() {
    let mut db = Database::from_source(
        r#"
        associations
          e  = (a: integer, b: integer);
          tc = (a: integer, b: integer);
        facts
          e(a: 0, b: 1).
          e(a: 1, b: 2).
        rules
          tc(a: X, b: Y) <- e(a: X, b: Y).
    "#,
    )
    .expect("loads");
    let registry = db.enable_metrics();
    db.apply_source("rules\n  e(a: 2, b: 3) <- .\n", Mode::Ridv)
        .expect("builds the view");
    let tracer = Tracer::memory();
    let mut opts = db.options().clone();
    opts.trace = Some(tracer.clone());
    db.set_options(opts);
    let outcome = db
        .apply_source(
            "rules\n  tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).\n",
            Mode::Radv,
        )
        .expect("maintained rule addition");
    let events = tracer.events();
    assert!(
        events.iter().any(|e| matches!(
            e,
            TraceEvent::EvalStart {
                engine: "maintain",
                rules: 2,
                ..
            }
        )),
        "the pass opened over both rules: {events:?}"
    );
    assert_golden(
        "maintained_rule_addition",
        render(&events, &registry, &outcome.report),
    );
}
