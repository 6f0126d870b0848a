//! Observability determinism and exposition-format goldens.
//!
//! Counting metrics and derivation provenance are part of the determinism
//! contract (DESIGN.md §8): every driver counts and records in one serial
//! loop in canonical rule order, so `counter_snapshot()` (counters only —
//! timing histograms and the headroom gauge are exempt) and the provenance
//! store are fixed by the program and its EDB, and the counters add up to
//! what the run's report says it did.

use std::sync::Arc;

use logres::engine::{evaluate_inflationary, load_facts, EvalOptions, MetricsRegistry, Provenance};
use logres::lang::parse_program;
use logres::model::{Instance, OidGen};
use logres::EvalReport;
use logres_repro::generators::{closure_program, random_edges};

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

fn edb_of(src: &str) -> (logres::Schema, Instance, logres::lang::RuleSet) {
    let p = parse_program(src).expect("parses");
    let mut edb = Instance::new();
    let mut gen = OidGen::new();
    load_facts(&p.schema, &mut edb, &p.facts, &mut gen).expect("loads");
    (p.schema, edb, p.rules)
}

/// One instrumented run on a fresh registry: the deterministic surface
/// (counter snapshot + provenance store), the instance and the report.
fn instrumented_run(src: &str) -> (Vec<(String, u64)>, Option<Provenance>, Instance, EvalReport) {
    let (schema, edb, rules) = edb_of(src);
    let registry = Arc::new(MetricsRegistry::new());
    let opts = EvalOptions {
        metrics: Some(registry.clone()),
        provenance: true,
        ..EvalOptions::default()
    };
    let (inst, mut report) =
        evaluate_inflationary(&schema, &rules, &edb, opts).expect("inflationary runs");
    let prov = report.provenance.take();
    (registry.counter_snapshot(), prov, inst, report)
}

/// A counter's value in a snapshot (0 when the series never registered).
fn counter(snapshot: &[(String, u64)], name: &str) -> u64 {
    snapshot
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// The run records provenance, and its counters — aggregate and per rule —
/// add up to the per-rule profiles and rounds of its report.
fn assert_observably_deterministic(src: &str) {
    let (counters, prov, _, report) = instrumented_run(src);
    assert!(
        prov.as_ref().is_some_and(|p| !p.is_empty()),
        "provenance recorded something"
    );
    let families = [
        ("logres_firings_total", "logres_rule_firings_total"),
        (
            "logres_derived_facts_total",
            "logres_rule_derived_facts_total",
        ),
        (
            "logres_deleted_facts_total",
            "logres_rule_deleted_facts_total",
        ),
    ];
    for (f, (total, per_rule)) in families.into_iter().enumerate() {
        let mut sum = 0;
        for (i, p) in report.rule_profiles.iter().enumerate() {
            let want = [p.firings, p.derived, p.deleted][f] as u64;
            let name = format!("{per_rule}{{rule=\"{i}\"}}");
            assert_eq!(counter(&counters, &name), want, "{name}: {counters:?}");
            sum += want;
        }
        assert_eq!(counter(&counters, total), sum, "{total}: {counters:?}");
    }
    assert_eq!(
        counter(&counters, "logres_eval_steps_total"),
        report.iterations.len() as u64,
        "one counted round per iteration: {counters:?}"
    );
}

#[test]
fn closure_metrics_are_thread_count_invariant() {
    let src = closure_program(&random_edges(14, 28, 11));
    assert_observably_deterministic(&src);
}

#[test]
fn deletion_metrics_are_thread_count_invariant() {
    assert_observably_deterministic(UPDATE);
}

#[test]
fn invention_metrics_are_thread_count_invariant() {
    assert_observably_deterministic(INVENTION);
}

#[test]
fn counters_reflect_the_work_done() {
    let (counters, prov, inst, _) = instrumented_run(INVENTION);
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("{name} missing from snapshot: {counters:?}"))
    };
    assert_eq!(get("logres_invented_oids_total"), 3);
    // Each pair fires the rule once in the deriving step; later steps may
    // re-fire valuations that derive nothing new.
    assert!(get("logres_firings_total") >= 3);
    assert!(get("logres_eval_steps_total") >= 2); // one deriving step + fixpoint check
    assert_eq!(
        get("logres_invented_oids_total"),
        prov.as_ref().unwrap().invented_count() as u64
    );
    assert_eq!(inst.class_len(logres::Sym::new("ip")), 3);
    // The per-rule labeled series agrees with the aggregate.
    assert_eq!(get(r#"logres_rule_invented_oids_total{rule="0"}"#), 3);
}

#[test]
fn exposition_format_is_golden() {
    let src = closure_program(&[(0, 1), (1, 2), (2, 3)]);
    let (schema, edb, rules) = edb_of(&src);
    let registry = Arc::new(MetricsRegistry::new());
    let opts = EvalOptions {
        metrics: Some(registry.clone()),
        ..EvalOptions::default()
    };
    evaluate_inflationary(&schema, &rules, &edb, opts).expect("runs");
    let text = registry.render_text();

    // Golden family list: every series the engine pre-registers, in
    // lexicographic order, each with `# HELP` and `# TYPE` headers. The
    // labeled per-rule families appear because both rules fired.
    let type_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
    assert_eq!(
        type_lines,
        vec![
            "# TYPE logres_deleted_facts_total counter",
            "# TYPE logres_derived_facts_total counter",
            "# TYPE logres_eval_steps_total counter",
            "# TYPE logres_firings_total counter",
            "# TYPE logres_governor_deadline_headroom_ms gauge",
            "# TYPE logres_governor_value_nodes_total counter",
            "# TYPE logres_invented_oids_total counter",
            "# TYPE logres_matcher_probe_hits_total counter",
            "# TYPE logres_matcher_probe_misses_total counter",
            "# TYPE logres_matcher_scan_fallbacks_total counter",
            "# TYPE logres_rule_derived_facts_total counter",
            "# TYPE logres_rule_firings_total counter",
            "# TYPE logres_step_apply_ms histogram",
            "# TYPE logres_step_match_ms histogram",
        ],
        "family list / order drifted:\n{text}"
    );
    // Every family carries a HELP line.
    assert_eq!(
        text.matches("# HELP ").count(),
        type_lines.len(),
        "one HELP per family:\n{text}"
    );
    // Histogram series: cumulative buckets ending at +Inf, plus sum/count.
    assert!(
        text.contains(r#"logres_step_match_ms_bucket{le="1"}"#),
        "{text}"
    );
    assert!(
        text.contains(r#"logres_step_match_ms_bucket{le="+Inf"}"#),
        "{text}"
    );
    assert!(text.contains("logres_step_match_ms_sum"), "{text}");
    assert!(text.contains("logres_step_match_ms_count"), "{text}");
    // Labeled counters render with the rule index as the label value.
    assert!(
        text.contains(r#"logres_rule_firings_total{rule="0"}"#),
        "{text}"
    );
    assert!(
        text.contains(r#"logres_rule_firings_total{rule="1"}"#),
        "{text}"
    );
}

#[test]
fn why_walks_a_deep_chain_to_edb() {
    // A 6-link chain: tc(0,6) needs the full genealogy of hops.
    let edges: Vec<(i64, i64)> = (0..6).map(|i| (i, i + 1)).collect();
    let src = closure_program(&edges);
    let (_, prov, _, _) = instrumented_run(&src);
    let prov = prov.expect("provenance on");
    let fact = logres::model::Fact::Assoc {
        assoc: logres::Sym::new("tc"),
        tuple: logres::Value::tuple([("a", logres::Value::Int(0)), ("b", logres::Value::Int(6))]),
    };
    let d = prov.explain(&fact);
    assert!(!d.is_edb());
    assert!(d.depth() >= 3, "depth {} too shallow", d.depth());
    assert!(d.edb_leaves() >= 2);
    let text = d.render();
    assert!(text.contains("via rule #"), "{text}");
    assert!(text.contains("[EDB]"), "{text}");
}

#[test]
fn check_diagnostics_counter_labels_each_code() {
    // `Database::check()` feeds the static analyzer's findings into the
    // same registry the evaluations use, one series per diagnostic code.
    let mut db = logres::Database::from_source(
        r#"
        associations
          src   = (d: integer);
          ghost = (d: integer);
          out_p = (d: integer);
        facts
          src(d: 1).
        rules
          out_p(d: X) <- src(d: X), ghost(d: X).
        "#,
    )
    .expect("program loads");
    let registry = db.enable_metrics();
    db.check();
    db.check();
    let snapshot = registry.counter_snapshot();
    for code in ["L001", "L002"] {
        let series = format!(r#"logres_check_diagnostics_total{{code="{code}"}}"#);
        let count = snapshot
            .iter()
            .find(|(name, _)| *name == series)
            .map(|(_, v)| *v);
        assert_eq!(count, Some(2), "series {series} in {snapshot:?}");
    }
    assert!(
        db.metrics()
            .contains("# TYPE logres_check_diagnostics_total counter"),
        "{}",
        db.metrics()
    );
}

/// `covered`/`isolated` with the negating rule listed first: canonical rule
/// 0 lives in the second stratum.
const ISOLATED_FIRST: &str = r#"
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
      isolated(n: X) <- node(n: X), not covered(n: X).
      covered(n: X) <- edge(a: X, b: Y).
      covered(n: X) <- edge(a: Y, b: X).
"#;

/// A stratified run is one run: profiles, `rule_fired`, the `rule="N"`
/// series and `:why` all number rules canonically, whichever stratum a rule
/// sits in, and the trace holds one `eval_start` and run-wide step numbers,
/// on the interpreter and the compiled path alike.
#[test]
fn stratified_runs_number_rules_canonically() {
    let (schema, edb, rules) = edb_of(ISOLATED_FIRST);
    let mut derived_by_rule = Vec::new();
    for compiled in [true, false] {
        let tracer = logres::engine::Tracer::memory();
        let registry = Arc::new(MetricsRegistry::new());
        let opts = EvalOptions {
            compiled,
            trace: Some(tracer.clone()),
            metrics: Some(registry.clone()),
            ..EvalOptions::default()
        };
        let (inst, report) =
            logres::engine::evaluate(&schema, &rules, &edb, logres::Semantics::Stratified, opts)
                .expect("stratified run");
        assert_eq!(inst.assoc_len(logres::Sym::new("isolated")), 1);
        let texts: Vec<String> = rules.rules.iter().map(|r| r.to_string()).collect();
        let profiled: Vec<String> = report
            .rule_profiles
            .iter()
            .map(|p| p.rule.clone())
            .collect();
        assert_eq!(profiled, texts, "compiled={compiled}: canonical order");
        let events = tracer.events();
        let starts = events
            .iter()
            .filter(|e| matches!(e, logres::TraceEvent::EvalStart { .. }))
            .count();
        assert_eq!(starts, 1, "compiled={compiled}: one run, one eval_start");
        let steps: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                logres::TraceEvent::StepStart { step, .. } => Some(*step),
                _ => None,
            })
            .collect();
        assert!(
            steps.windows(2).all(|w| w[0] < w[1]),
            "compiled={compiled}: step numbers {steps:?}"
        );
        let mut fired = vec![0usize; rules.rules.len()];
        for e in &events {
            if let logres::TraceEvent::RuleFired { rule, derived, .. } = e {
                fired[*rule] += derived;
            }
        }
        let profiled: Vec<usize> = report.rule_profiles.iter().map(|p| p.derived).collect();
        assert_eq!(fired, profiled, "compiled={compiled}: rule_fired numbering");
        let derived: Vec<(String, u64)> = registry
            .counter_snapshot()
            .into_iter()
            .filter(|(series, _)| series.starts_with("logres_rule_derived_facts_total{"))
            .collect();
        derived_by_rule.push(derived);
    }
    assert_eq!(
        derived_by_rule[0], derived_by_rule[1],
        "logres_rule_derived_facts_total{{rule=}} agrees across the paths"
    );
    assert_eq!(derived_by_rule[0].len(), 3, "{:?}", derived_by_rule[0]);

    let mut db = logres::Database::from_source(ISOLATED_FIRST).expect("program loads");
    db.set_semantics(logres::Semantics::Stratified);
    let why = db.why_source("isolated(n: 3)").expect("why runs");
    assert!(why.contains("via rule #0 (stratum 1, "), "{why}");
}
