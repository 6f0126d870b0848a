//! Prepared goals: a goal-only query is planned once per shape and its
//! constants bound per run, so a plan a `Database` reuses must answer
//! exactly as a plan made afresh. Every answer here is compared with a
//! fresh `Database` over the same state (whose memo is empty) and with
//! the interpreter, across the changes that must keep, refresh or drop a
//! memoised plan.

use std::sync::Arc;

use logres::engine::{EvalOptions, MetricsRegistry, TraceEvent, Tracer};
use logres::{Database, Mode, Rows, Semantics};

/// Three `parent` facts and the ancestor rules over them.
const FAMILY: &str = r#"
    associations
      parent = (par: string, chil: string);
      step   = (par: string, chil: string);
      root   = (n: string);
      anc    = (a: string, d: string);
    facts
      parent(par: "adam", chil: "cain").
      parent(par: "cain", chil: "enoch").
      parent(par: "eve", chil: "abel").
      root(n: "eve").
    rules
      anc(a: X, d: Y) <- parent(par: X, chil: Y).
      anc(a: X, d: Y) <- step(par: X, chil: Y).
      anc(a: X, d: Z) <- anc(a: X, d: Y), parent(par: Y, chil: Z).
"#;

/// `db`'s answer to `src`, checked against a fresh database over the same
/// state under the same semantics and options, and against the
/// interpreter.
fn check(db: &mut Database, semantics: Semantics, src: &str) -> Rows {
    let rows = db.query(src).expect("query runs");
    let mut fresh = Database::from_state(db.state().clone());
    fresh.set_semantics(semantics);
    fresh.set_options(EvalOptions {
        metrics: None,
        trace: None,
        ..db.options().clone()
    });
    assert_eq!(rows, fresh.query(src).unwrap(), "fresh plan: {src}");
    let mut interpreted = Database::from_state(db.state().clone());
    interpreted.set_semantics(semantics);
    interpreted.set_options(EvalOptions {
        compiled: false,
        ..EvalOptions::default()
    });
    assert_eq!(rows, interpreted.query(src).unwrap(), "interpreter: {src}");
    rows
}

fn counter(registry: &MetricsRegistry, name: &str) -> u64 {
    registry
        .counter_snapshot()
        .into_iter()
        .find(|(k, _)| k == name)
        .map_or(0, |(_, v)| v)
}

fn reuses(registry: &MetricsRegistry) -> u64 {
    counter(registry, "logres_magic_plan_reuses_total")
}

fn family() -> (Database, Arc<MetricsRegistry>) {
    let mut db = Database::from_source(FAMILY).unwrap();
    let registry = db.enable_metrics();
    (db, registry)
}

/// A point query for the descendants of `who`.
fn descendants(who: &str) -> String {
    format!("goal anc(a: \"{who}\", d: X)?")
}

#[test]
fn a_plan_prepared_for_one_constant_answers_the_next() {
    // Seeded from the first query's constant, flow would prune both
    // guarded `anc` rules ("zzz" is no parent), and the plan would then
    // answer every later constant with nothing.
    let (mut db, registry) = family();
    let s = Semantics::default();
    assert!(check(&mut db, s, &descendants("zzz")).is_empty());
    assert_eq!(reuses(&registry), 0);
    assert_eq!(check(&mut db, s, &descendants("adam")).len(), 2);
    assert_eq!(check(&mut db, s, &descendants("eve")).len(), 1);
    assert_eq!(reuses(&registry), 2, "one plan serves all three constants");
}

#[test]
fn a_flow_flip_replans_and_sees_the_new_facts() {
    // `step` is empty, so flow prunes the rule reading it (L008). A RIDV
    // that stores a `step` fact changes its seed: the next query must
    // plan again, with the rule, and find `seth`.
    let (mut db, registry) = family();
    let s = Semantics::default();
    assert_eq!(check(&mut db, s, &descendants("adam")).len(), 2);
    db.apply_source(
        "rules\n  step(par: \"adam\", chil: \"seth\") <- .\n",
        Mode::Ridv,
    )
    .unwrap();
    let rows = check(&mut db, s, &descendants("adam"));
    assert_eq!(rows.len(), 3, "{rows:?}");
    assert_eq!(reuses(&registry), 0, "changed seeds re-plan");
    check(&mut db, s, &descendants("adam"));
    assert_eq!(reuses(&registry), 1);
}

/// `families` trees of `size` nodes: node `fI_J`'s parent is `fI_((J-1)/2)`.
fn forest(families: usize, size: usize) -> String {
    let mut src = String::from(
        "associations\n  parent = (par: string, chil: string);\n  \
         ancestor = (anc: string, des: string);\nfacts\n",
    );
    for f in 0..families {
        for j in 1..size {
            src.push_str(&format!(
                "  parent(par: \"f{f}_{}\", chil: \"f{f}_{j}\").\n",
                (j - 1) / 2
            ));
        }
    }
    src.push_str(
        "rules\n  ancestor(anc: X, des: Y) <- parent(par: X, chil: Y).\n  \
         ancestor(anc: X, des: Z) <- parent(par: X, chil: Y), ancestor(anc: Y, des: Z).\n",
    );
    src
}

#[test]
fn an_update_that_leaves_the_seeds_unchanged_reuses_the_plan() {
    // 64 families of 64 nodes: 4,032 edges, so both `parent` columns are
    // past the flow seed's cap and another edge leaves the seed as it was.
    let mut db = Database::from_source(&forest(64, 64)).unwrap();
    assert_eq!(db.edb().fact_count(), 4032);
    let registry = db.enable_metrics();
    let s = Semantics::default();
    let query = "goal ancestor(anc: \"f3_0\", des: D)?";
    assert_eq!(check(&mut db, s, query).len(), 63);
    db.apply_source(
        "rules\n  parent(par: \"f3_63\", chil: \"new\") <- .\n",
        Mode::Ridv,
    )
    .unwrap();
    let rows = check(&mut db, s, query);
    assert_eq!(rows.len(), 64, "the new edge is seen");
    assert_eq!(reuses(&registry), 1, "unchanged seeds keep the plan");
    assert_eq!(
        check(&mut db, s, "goal ancestor(anc: A, des: \"new\")?").len(),
        7
    );
}

#[test]
fn rule_schema_and_semantics_changes_drop_the_plan() {
    let (mut db, registry) = family();
    let s = Semantics::default();
    db.apply_source(
        "rules\n  step(par: \"adam\", chil: \"seth\") <- .\n",
        Mode::Ridv,
    )
    .unwrap();
    assert_eq!(check(&mut db, s, &descendants("adam")).len(), 3);

    // RADI: a rule the memoised plan does not have.
    let extra = r#"
        associations
          spouse = (a: string, b: string);
        rules
          anc(a: X, d: Y) <- spouse(a: X, b: Z), parent(par: Z, chil: Y).
          spouse(a: "lilith", b: "adam") <- .
    "#;
    db.apply_source(extra, Mode::Radi).unwrap();
    assert_eq!(check(&mut db, s, &descendants("lilith")).len(), 2);
    assert_eq!(check(&mut db, s, &descendants("adam")).len(), 3);

    // RDDI: a rule the memoised plan still has.
    db.apply_source(
        "rules\n  anc(a: X, d: Y) <- step(par: X, chil: Y).\n",
        Mode::Rddi,
    )
    .unwrap();
    assert_eq!(check(&mut db, s, &descendants("adam")).len(), 2);

    // Semantics: a plan per semantics.
    db.set_semantics(Semantics::Stratified);
    assert_eq!(
        check(&mut db, Semantics::Stratified, &descendants("adam")).len(),
        2
    );
    db.set_semantics(s);

    // Materialize: `anc` becomes stored, so its seed changes.
    let before = reuses(&registry);
    db.materialize().unwrap();
    assert_eq!(check(&mut db, s, &descendants("cain")).len(), 1);
    assert_eq!(reuses(&registry), before, "materialize re-plans");
    assert_eq!(check(&mut db, s, &descendants("adam")).len(), 2);
}

#[test]
fn every_goal_shape_answers_as_a_fresh_plan_does() {
    let (mut db, registry) = family();
    let s = Semantics::default();
    // Two constants in one literal.
    let both = |a: &str, d: &str| format!("goal anc(a: \"{a}\", d: \"{d}\")?");
    assert_eq!(check(&mut db, s, &both("adam", "enoch")).len(), 1);
    assert!(check(&mut db, s, &both("adam", "abel")).is_empty());
    // A constant in a stored literal ahead of a derived one.
    let via = |p: &str| format!("goal parent(par: \"{p}\", chil: Y), anc(a: Y, d: Z)?");
    assert_eq!(check(&mut db, s, &via("adam")).len(), 1);
    assert!(check(&mut db, s, &via("eve")).is_empty());
    // No constant, yet `root` binds the demand.
    let rooted = "goal root(n: X), anc(a: X, d: Y)?";
    assert_eq!(check(&mut db, s, rooted).len(), 1);
    assert_eq!(check(&mut db, s, rooted).len(), 1);
    assert_eq!(reuses(&registry), 3);
    // A goal that falls back answers on the full program, every time.
    let free = "goal anc(a: X, d: Y)?";
    assert_eq!(check(&mut db, s, free).len(), 4);
    assert_eq!(check(&mut db, s, free).len(), 4);
    assert_eq!(counter(&registry, "logres_magic_fallbacks_total"), 2);
    assert_eq!(reuses(&registry), 3, "a fallback reuses no plan");
}

#[test]
fn both_routes_run_the_memoised_plan() {
    for opts in [
        EvalOptions {
            compiled: false,
            ..EvalOptions::default()
        },
        EvalOptions {
            provenance: true,
            ..EvalOptions::default()
        },
    ] {
        let mut db = Database::from_source(FAMILY).unwrap();
        let registry = Arc::new(MetricsRegistry::new());
        db.set_options(EvalOptions {
            metrics: Some(registry.clone()),
            ..opts.clone()
        });
        let s = Semantics::default();
        assert!(check(&mut db, s, &descendants("zzz")).is_empty());
        assert_eq!(check(&mut db, s, &descendants("adam")).len(), 2);
        assert_eq!(reuses(&registry), 1);
        let provenance = r#"logres_compile_fallbacks_total{reason="provenance"}"#;
        assert_eq!(
            counter(&registry, provenance),
            2 * u64::from(opts.provenance)
        );
        assert_eq!(counter(&registry, "logres_compile_runs_total"), 0);
    }
}

/// The counters and normalized trace of one query run with fresh sinks.
fn recorded(db: &mut Database, src: &str) -> (Vec<(String, u64)>, Vec<TraceEvent>) {
    let tracer = Tracer::memory();
    let registry = Arc::new(MetricsRegistry::new());
    let opts = EvalOptions {
        trace: Some(tracer.clone()),
        metrics: Some(registry.clone()),
        ..EvalOptions::default()
    };
    db.query_with_options(src, opts).expect("query runs");
    let events = tracer.events().iter().map(TraceEvent::normalized).collect();
    (registry.counter_snapshot(), events)
}

#[test]
fn a_reused_plan_records_what_a_fresh_one_does() {
    for compiled in [true, false] {
        let mut db = Database::from_source(FAMILY).unwrap();
        db.set_options(EvalOptions {
            compiled,
            ..EvalOptions::default()
        });
        recorded(&mut db, &descendants("zzz"));
        let (mut counters, events) = recorded(&mut db, &descendants("adam"));
        let reuse = "logres_magic_plan_reuses_total";
        assert!(counters.contains(&(reuse.to_owned(), 1)), "{counters:?}");
        counters.retain(|(k, _)| k != reuse);
        let mut fresh = Database::from_state(db.state().clone());
        fresh.set_options(db.options().clone());
        let (fresh_counters, fresh_events) = recorded(&mut fresh, &descendants("adam"));
        assert_eq!(counters, fresh_counters);
        assert_eq!(events, fresh_events);
        assert!(counters
            .iter()
            .any(|(k, v)| k == "logres_magic_rewrites_total" && *v == 1));
    }
}
