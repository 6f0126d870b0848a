//! Differential tests for incremental maintenance (DESIGN.md §11).
//!
//! The incremental path (counting recounts + Delete-and-Rederive behind
//! `Database`'s RIDV/RADV/RDDV routing) must be observationally identical
//! to full rederivation: same extensional database, same rule set, same
//! schema, same stored denials, same materialized instance, and the same
//! answer to every query, which the maintained database reads off its view
//! (DESIGN.md §10.6), for random programs and random update batches.
//! Modules outside the supported fragment must fall back transparently and
//! say so on the `logres_maintain_fallbacks_total{reason=...}` metric.

use std::collections::BTreeSet;

use proptest::prelude::*;

use logres::model::Instance;
use logres::{Database, Mode, Sym, Value};

// ---------------------------------------------------------------------------
// Random maintainable programs (the props.rs template family)
// ---------------------------------------------------------------------------

const P: [&str; 3] = ["p", "q", "r"];

/// Render a random positive association program from rule-template picks.
/// Every template is positive, association-only and builtin-free, so the
/// program is maintainable and every update stays on the incremental path.
fn program_src(
    rules: &[(usize, usize, usize, usize)],
    facts: &BTreeSet<(usize, i64, i64)>,
) -> String {
    let mut src = String::from(
        "associations\n  \
           p = (a: integer, b: integer);\n  \
           q = (a: integer, b: integer);\n  \
           r = (a: integer, b: integer);\nfacts\n",
    );
    for &(pi, a, b) in facts {
        src.push_str(&format!("  {}(a: {a}, b: {b}).\n", P[pi]));
    }
    src.push_str("rules\n");
    for &(t, h, b1, b2) in rules {
        let (h, b1, b2) = (P[h], P[b1], P[b2]);
        let line = match t {
            0 => format!("  {h}(a: X, b: Y) <- {b1}(a: X, b: Y).\n"),
            1 => format!("  {h}(a: Y, b: X) <- {b1}(a: X, b: Y).\n"),
            2 => format!("  {h}(a: X, b: Z) <- {b1}(a: X, b: Y), {b2}(a: Y, b: Z).\n"),
            3 => format!("  {h}(a: X, b: X) <- {b1}(a: X).\n"),
            _ => format!("  {h}(a: X, b: Y) <- {b1}(a: X, b: Y), {b2}(b: Y).\n"),
        };
        src.push_str(&line);
    }
    src
}

/// Render one update batch as a ground-rule module. A fact appearing both
/// as an insert and a delete would make the batch conflicting (no one-step
/// fixpoint), so deletes of inserted facts are dropped.
fn batch_module(batch: &[(usize, usize, i64, i64)]) -> String {
    let inserts: BTreeSet<(usize, i64, i64)> = batch
        .iter()
        .filter(|(k, ..)| *k == 0)
        .map(|&(_, pi, a, b)| (pi, a, b))
        .collect();
    let mut src = String::from("rules\n");
    let mut emitted: BTreeSet<(usize, usize, i64, i64)> = BTreeSet::new();
    for &(kind, pi, a, b) in batch {
        if kind == 1 && inserts.contains(&(pi, a, b)) {
            continue;
        }
        if !emitted.insert((kind, pi, a, b)) {
            continue;
        }
        let sign = if kind == 1 { "-" } else { "" };
        src.push_str(&format!("  {sign}{}(a: {a}, b: {b}) <- .\n", P[pi]));
    }
    src
}

/// A database pair over the same program: one maintained incrementally,
/// one forced onto the full-rederivation path.
fn db_pair(src: &str) -> (Database, Database) {
    let inc = Database::from_source(src).expect("program parses");
    let mut full = inc.clone();
    full.set_incremental(false);
    (inc, full)
}

/// The materialized instance of a database, without disturbing it.
fn materialized(db: &Database) -> Instance {
    let mut scratch = db.clone();
    scratch.materialize().expect("materializes");
    scratch.edb().clone()
}

/// Goals over every association of `db`'s schema: per association, the
/// first attribute bound, the second bound, both bound (to a tuple of
/// `inst`, when it has one), neither bound, one variable for both, and a
/// constant absent from the data.
fn probe_goals(db: &Database, inst: &Instance) -> Vec<String> {
    let schema = db.schema();
    let mut assocs: Vec<Sym> = schema.assocs().collect();
    assocs.sort();
    let mut goals = Vec::new();
    for assoc in assocs {
        let ty = schema.expand(schema.assoc_type(assoc).expect("declared"));
        let labels: Vec<Sym> = ty
            .as_tuple()
            .expect("tuple type")
            .iter()
            .map(|f| f.label)
            .collect();
        let mut tuples: Vec<&Value> = inst.tuples_of(assoc).collect();
        tuples.sort();
        let known = |i: usize| match tuples.first() {
            Some(t) => t.field(labels[i]).expect("full tuple").to_string(),
            None => "0".to_owned(),
        };
        let goal = |args: Vec<String>| {
            let args: Vec<String> = labels
                .iter()
                .zip(args)
                .map(|(l, a)| format!("{l}: {a}"))
                .collect();
            format!("goal {assoc}({})?", args.join(", "))
        };
        let (x, y, absent) = ("X".to_owned(), "Y".to_owned(), "999999".to_owned());
        match labels.len() {
            1 => {
                goals.push(goal(vec![known(0)]));
                goals.push(goal(vec![x]));
                goals.push(goal(vec![absent]));
            }
            2 => {
                goals.push(goal(vec![known(0), y.clone()]));
                goals.push(goal(vec![x.clone(), known(1)]));
                goals.push(goal(vec![known(0), known(1)]));
                goals.push(goal(vec![x.clone(), y.clone()]));
                goals.push(goal(vec![x.clone(), x]));
                goals.push(goal(vec![absent, y]));
            }
            _ => {}
        }
    }
    goals
}

/// Apply the same module to both databases and check that the persistent
/// states remain identical: the stored EDB, the rules, the schema, the
/// stored denials and the derived closure. Then ask both the same goals,
/// as queries and as RIDI applications: the answers must agree, and when
/// the maintained route served the update, every query and application
/// of `inc` is answered from its view, which `full` never has.
fn apply_both(inc: &mut Database, full: &mut Database, src: &str, mode: Mode) {
    let registry = inc.enable_metrics();
    let count = |name: &str| series(&registry.counter_snapshot(), name);
    let maintained_before = count("logres_maintain_applies_total");
    let a = inc.apply_source(src, mode);
    let maintained = count("logres_maintain_applies_total") > maintained_before;
    let b = full.apply_source(src, mode);
    assert_eq!(
        a.is_ok(),
        b.is_ok(),
        "outcome mismatch for {mode:?} on:\n{src}\nincremental: {a:?}\nfull: {b:?}"
    );
    assert_eq!(inc.edb(), full.edb(), "EDB drift after {mode:?} on:\n{src}");
    assert_eq!(
        inc.rules(),
        full.rules(),
        "rule drift after {mode:?} on:\n{src}"
    );
    assert_eq!(
        inc.schema().to_string(),
        full.schema().to_string(),
        "schema drift after {mode:?} on:\n{src}"
    );
    assert_eq!(
        inc.state().constraints,
        full.state().constraints,
        "denial drift after {mode:?} on:\n{src}"
    );
    let instance = materialized(full);
    assert_eq!(
        materialized(inc),
        instance,
        "instance drift after {mode:?} on:\n{src}"
    );
    for goal in probe_goals(full, &instance) {
        let views_before = count("logres_view_answers_total");
        let answer = inc.query(&goal).expect("maintained query runs");
        let from_view = count("logres_view_answers_total") - views_before;
        assert_eq!(
            answer,
            full.query(&goal).expect("full query runs"),
            "answer drift for {goal} after {mode:?} on:\n{src}"
        );
        // A RIDI application of the goal takes the query's route.
        let ridi = |db: &mut Database| {
            db.apply_source(&goal, Mode::Ridi)
                .expect("RIDI application runs")
                .answer
        };
        let views_before = count("logres_view_answers_total");
        let applied = ridi(inc);
        assert_eq!(
            count("logres_view_answers_total") - views_before,
            from_view,
            "{goal} applied in RIDI after {mode:?}"
        );
        assert_eq!(applied.as_ref(), Some(&answer), "{goal} applied in RIDI");
        assert_eq!(ridi(full), applied, "{goal} applied in RIDI");
        // A rejected update leaves the view as the route it failed on left
        // it; a committed one says which route to expect.
        if a.is_ok() {
            assert_eq!(from_view, u64::from(maintained), "{goal} after {mode:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Differential harness: random programs × random batches × modes
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// RIDV: random mixed insert/delete batches leave the incremental and
    /// full-rederivation databases instance-identical.
    #[test]
    fn ridv_matches_full_rederivation(
        rules in proptest::collection::vec(
            (0usize..5, 0usize..3, 0usize..3, 0usize..3),
            1..5,
        ),
        facts in proptest::collection::btree_set((0usize..3, 0i64..5, 0i64..5), 1..10),
        batches in proptest::collection::vec(
            proptest::collection::vec((0usize..2, 0usize..3, 0i64..5, 0i64..5), 1..5),
            1..4,
        ),
    ) {
        let src = program_src(&rules, &facts);
        let (mut inc, mut full) = db_pair(&src);
        for batch in &batches {
            apply_both(&mut inc, &mut full, &batch_module(batch), Mode::Ridv);
        }
    }

    /// RADV: persisting a new rule together with a data batch maintains the
    /// view exactly like rebuilding it.
    #[test]
    fn radv_matches_full_rederivation(
        rules in proptest::collection::vec(
            (0usize..5, 0usize..3, 0usize..3, 0usize..3),
            1..4,
        ),
        facts in proptest::collection::btree_set((0usize..3, 0i64..5, 0i64..5), 1..10),
        new_rule in (0usize..5, 0usize..3, 0usize..3, 0usize..3),
        inserts in proptest::collection::vec((0usize..3, 0i64..5, 0i64..5), 1..4),
    ) {
        let src = program_src(&rules, &facts);
        let (mut inc, mut full) = db_pair(&src);
        // Data-only RADV batch first, then a module that also persists a
        // (possibly already-known) rule.
        let batch: Vec<(usize, usize, i64, i64)> =
            inserts.iter().map(|&(pi, a, b)| (0, pi, a, b)).collect();
        apply_both(&mut inc, &mut full, &batch_module(&batch), Mode::Radv);
        let mut module = program_src(&[new_rule], &BTreeSet::new());
        let rules_at = module.find("rules\n").unwrap();
        module.replace_range(..rules_at, "");
        apply_both(&mut inc, &mut full, &module, Mode::Radv);
    }

    /// RDDV: deleting module-derivable facts and retracting rule sets both
    /// agree with full rederivation (the Delete-and-Rederive path).
    #[test]
    fn rddv_matches_full_rederivation(
        rules in proptest::collection::vec(
            (0usize..5, 0usize..3, 0usize..3, 0usize..3),
            1..4,
        ),
        facts in proptest::collection::btree_set((0usize..3, 0i64..5, 0i64..5), 2..10),
        delete_count in 1usize..4,
        drop_rule in 0usize..4,
    ) {
        let src = program_src(&rules, &facts);
        let (mut inc, mut full) = db_pair(&src);
        // Delete a few of the original EDB facts through RDDV's E_M path.
        let batch: Vec<(usize, usize, i64, i64)> = facts
            .iter()
            .take(delete_count)
            .map(|&(pi, a, b)| (0, pi, a, b))
            .collect();
        apply_both(&mut inc, &mut full, &batch_module(&batch), Mode::Rddv);
        // Retract one of the persistent rules (RDDV of a rule set).
        if let Some(rule) = rules.get(drop_rule % rules.len()) {
            let mut module = program_src(&[*rule], &BTreeSet::new());
            let rules_at = module.find("rules\n").unwrap();
            module.replace_range(..rules_at, "");
            apply_both(&mut inc, &mut full, &module, Mode::Rddv);
        }
    }

    /// Confluence of batching: one big RIDV update and the same update as a
    /// sequence of singletons end in the same state. Insert and delete
    /// targets are drawn from disjoint ranges so ordering cannot matter.
    #[test]
    fn batched_and_singleton_updates_agree(
        rules in proptest::collection::vec(
            (0usize..5, 0usize..3, 0usize..3, 0usize..3),
            1..5,
        ),
        facts in proptest::collection::btree_set((0usize..3, 0i64..6, 0i64..6), 1..10),
        inserts in proptest::collection::btree_set((0usize..3, 0i64..3, 0i64..6), 1..5),
        deletes in proptest::collection::btree_set((0usize..3, 3i64..6, 0i64..6), 1..5),
    ) {
        let src = program_src(&rules, &facts);
        let (mut batched, _) = db_pair(&src);
        let (mut singles, _) = db_pair(&src);

        let batch: Vec<(usize, usize, i64, i64)> = inserts
            .iter()
            .map(|&(pi, a, b)| (0, pi, a, b))
            .chain(deletes.iter().map(|&(pi, a, b)| (1, pi, a, b)))
            .collect();
        batched
            .apply_source(&batch_module(&batch), Mode::Ridv)
            .expect("batched update applies");
        for one in &batch {
            singles
                .apply_source(&batch_module(std::slice::from_ref(one)), Mode::Ridv)
                .expect("singleton update applies");
        }
        prop_assert_eq!(batched.edb(), singles.edb(), "EDB drift on:\n{}", src);
        prop_assert_eq!(
            materialized(&batched),
            materialized(&singles),
            "instance drift on:\n{}",
            src
        );
    }
}

// ---------------------------------------------------------------------------
// A fixed update sequence: cycle, cut, shortcut
// ---------------------------------------------------------------------------

/// Closing a cycle, cutting it and adding a shortcut keep the maintained
/// database identical to full rederivation after every update.
#[test]
fn maintenance_is_deterministic_across_thread_counts() {
    let src = r#"
        associations
          edge = (a: integer, b: integer);
          tc   = (a: integer, b: integer);
        facts
          edge(a: 0, b: 1).
          edge(a: 1, b: 2).
          edge(a: 2, b: 3).
          edge(a: 3, b: 4).
        rules
          tc(a: X, b: Y) <- edge(a: X, b: Y).
          tc(a: X, b: Z) <- tc(a: X, b: Y), edge(a: Y, b: Z).
    "#;
    let (mut inc, mut full) = db_pair(src);
    for update in [
        "rules\n  edge(a: 4, b: 0) <- .",
        "rules\n  -edge(a: 1, b: 2) <- .",
        "rules\n  edge(a: 1, b: 3) <- .",
    ] {
        apply_both(&mut inc, &mut full, update, Mode::Ridv);
    }
    // Every update applied: 0→1, 2→3, 3→4, 4→0 and 1→3 remain.
    assert_eq!(inc.edb().assoc_len(Sym::new("edge")), 5);
}

/// Deleting `e(5, 1)` overdeletes `tc(5, 1)` and `tc(5, 2)`, which was
/// first derived through it. Head inversion puts `tc(5, 1)` back through
/// `tc(5, 3), e(3, 1)`, but not `tc(5, 2)`, whose only derivation reads
/// `tc(5, 1)`: the delta rounds seeded with the rederived fact must bring
/// it back. Only the view shows a miss there, and `apply_both`'s goals read
/// it.
#[test]
fn a_rederived_fact_rederives_its_consequences() {
    let src = r#"
        associations
          e  = (a: integer, b: integer);
          tc = (a: integer, b: integer);
        facts
          e(a: 5, b: 1).
          e(a: 1, b: 2).
          e(a: 5, b: 3).
          e(a: 3, b: 1).
        rules
          tc(a: X, b: Y) <- e(a: X, b: Y).
          tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).
    "#;
    let (mut inc, mut full) = db_pair(src);
    apply_both(
        &mut inc,
        &mut full,
        "rules\n  -e(a: 5, b: 1) <- .",
        Mode::Ridv,
    );
    let rows = inc.query("goal tc(a: 5, b: Y)?").unwrap();
    assert_eq!(rows.len(), 3, "tc(5, 1), tc(5, 2) and tc(5, 3): {rows:?}");
}

// ---------------------------------------------------------------------------
// Whole-state agreement: modules that carry declarations and denials
// ---------------------------------------------------------------------------

/// A maintainable base that declares a data function `f` (no rule uses it)
/// and stores one denial.
const DECLARING_BASE: &str = r#"
    associations
      e  = (a: integer, b: integer);
      tc = (a: integer, b: integer);
    functions
      f: integer -> {integer};
    facts
      e(a: 1, b: 2).
      e(a: 2, b: 3).
    rules
      tc(a: X, b: Y) <- e(a: X, b: Y).
    constraints
      <- e(a: 9, b: 9).
"#;

/// Apply `module` under `mode` to a maintained and a full-path copy of
/// [`DECLARING_BASE`] and require the whole states to agree; the maintained
/// copy must have taken the incremental path.
fn declaring_module_agrees(module: &str, mode: Mode) -> Database {
    let (mut inc, mut full) = db_pair(DECLARING_BASE);
    let registry = inc.enable_metrics();
    // Build the maintained view first, so the module under test is the
    // view's second update.
    apply_both(
        &mut inc,
        &mut full,
        "rules\n  e(a: 3, b: 4) <- .",
        Mode::Ridv,
    );
    apply_both(&mut inc, &mut full, module, mode);
    let snap = registry.counter_snapshot();
    assert_eq!(
        series(&snap, "logres_maintain_applies_total"),
        2,
        "both updates were maintained: {snap:?}"
    );
    inc
}

#[test]
fn ridv_with_a_declaration_keeps_the_whole_state_in_step() {
    let db = declaring_module_agrees(
        r#"
        associations
          tag = (v: integer);
        constraints
          <- tag(v: 0).
        rules
          tag(v: 1) <- .
          e(a: 4, b: 5) <- .
        "#,
        Mode::Ridv,
    );
    // RIDV keeps the module's equations but not its denials.
    assert!(db.schema().assoc_type(Sym::new("tag")).is_some());
    assert_eq!(db.state().constraints.len(), 1);
}

#[test]
fn radv_with_a_declaration_keeps_the_whole_state_in_step() {
    let db = declaring_module_agrees(
        r#"
        associations
          hop = (a: integer, b: integer);
        constraints
          <- hop(a: 0, b: 0).
        rules
          hop(a: X, b: Y) <- e(a: X, b: Y).
        "#,
        Mode::Radv,
    );
    assert!(db.schema().assoc_type(Sym::new("hop")).is_some());
    assert_eq!(db.state().constraints.len(), 2);
    assert_eq!(db.rules().len(), 2);
    assert_eq!(db.edb().assoc_len(Sym::new("hop")), 3);
}

/// RDDV subtracts the module's equations and denials on both paths: the
/// maintained path once committed the schema unchanged, keeping `f`.
#[test]
fn rddv_with_a_declaration_keeps_the_whole_state_in_step() {
    let db = declaring_module_agrees(
        r#"
        functions
          f: integer -> {integer};
        constraints
          <- e(a: 9, b: 9).
        rules
          e(a: 1, b: 2) <- .
        "#,
        Mode::Rddv,
    );
    assert!(db.schema().function(Sym::new("f")).is_none());
    assert!(db.state().constraints.is_empty());
    assert_eq!(db.edb().assoc_len(Sym::new("e")), 2);
}

/// A change that ends the maintained view, named.
type ViewEnd = (&'static str, fn(&mut Database));

/// A maintained update gives the database a view and the next query reads
/// it; each of the four ways a view ends sends the next query back to
/// evaluation, with the same answer a database that never had a view gives.
#[test]
fn a_query_reads_the_view_only_while_one_is_maintained() {
    let mut db = Database::from_source(DECLARING_BASE).expect("loads");
    let registry = db.enable_metrics();
    let views = || series(&registry.counter_snapshot(), "logres_view_answers_total");
    let goal = "goal tc(a: X, b: 4)?";
    let ends: [ViewEnd; 4] = [
        ("an RADI", |db| {
            db.apply_source("rules\n  tc(a: X, b: Y) <- e(a: Y, b: X).", Mode::Radi)
                .expect("persists a rule");
        }),
        ("materialize", |db| {
            db.materialize().expect("materializes");
        }),
        ("set_incremental(false)", |db| {
            db.set_incremental(false);
            db.set_incremental(true);
        }),
        ("a rejected update", |db| {
            let denied = db.apply_source("rules\n  e(a: 9, b: 9) <- .", Mode::Ridv);
            assert!(denied.is_err(), "the stored denial rejects it");
        }),
    ];
    for (k, (what, end)) in ends.into_iter().enumerate() {
        let edge = format!("rules\n  e(a: {}, b: 4) <- .", 10 + k);
        db.apply_source(&edge, Mode::Ridv)
            .expect("maintained insert");
        let before = views();
        let read = db.query(goal).expect("query runs");
        assert_eq!(views(), before + 1, "the view answers before {what}");
        end(&mut db);
        let before = views();
        let evaluated = db.query(goal).expect("query runs");
        assert_eq!(views(), before, "no view answers after {what}");
        let fresh = Database::from_state(db.state().clone())
            .query(goal)
            .unwrap();
        assert_eq!(evaluated, fresh, "after {what}");
        if what != "an RADI" {
            assert_eq!(read, evaluated, "{what} changes no answer");
        }
    }
}

// ---------------------------------------------------------------------------
// Fallback boundary: programs outside the fragment take the full path
// ---------------------------------------------------------------------------

/// The value of a labelled counter series in a snapshot, or 0.
fn series(snapshot: &[(String, u64)], name: &str) -> u64 {
    snapshot
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

#[test]
fn oid_invention_programs_fall_back() {
    // A persistent class-head rule invents oids; the support graph cannot
    // maintain it, so every data update takes the full path.
    let mut db = Database::from_source(
        r#"
        classes
          person = (name: string);
        associations
          seed = (name: string);
        facts
          seed(name: "eva").
        rules
          person(self: P, name: N) <- seed(name: N).
    "#,
    )
    .unwrap();
    let registry = db.enable_metrics();
    db.apply_source(r#"rules seed(name: "bob") <- ."#, Mode::Ridv)
        .unwrap();
    assert_eq!(db.edb().assoc_len(Sym::new("seed")), 2);
    let snap = registry.counter_snapshot();
    assert_eq!(
        series(
            &snap,
            r#"logres_maintain_fallbacks_total{reason="fragment"}"#
        ),
        1,
        "snapshot: {snap:?}"
    );
    assert_eq!(series(&snap, "logres_maintain_applies_total"), 0);
}

#[test]
fn data_function_programs_fall_back() {
    // Arithmetic in a persistent rule (a data function) leaves the
    // fragment: heads are no longer invertible against stored tuples.
    let mut db = Database::from_source(
        r#"
        associations
          src = (v: integer);
          dbl = (v: integer);
        facts
          src(v: 2).
        rules
          dbl(v: Y) <- src(v: X), Y = X * 2.
    "#,
    )
    .unwrap();
    let registry = db.enable_metrics();
    db.apply_source("rules src(v: 5) <- .", Mode::Ridv).unwrap();
    assert_eq!(db.edb().assoc_len(Sym::new("src")), 2);
    let snap = registry.counter_snapshot();
    assert_eq!(
        series(
            &snap,
            r#"logres_maintain_fallbacks_total{reason="fragment"}"#
        ),
        1,
        "snapshot: {snap:?}"
    );
    assert_eq!(series(&snap, "logres_maintain_applies_total"), 0);
}

#[test]
fn nonground_ridv_modules_fall_back() {
    // RIDV with a non-ground module rule is a bulk computed update, not a
    // batch; it falls back (reason pins the boundary) yet behaves the same.
    let mut db = Database::from_source(
        r#"
        associations
          a = (v: integer);
          b = (v: integer);
        facts
          a(v: 1).
          a(v: 2).
    "#,
    )
    .unwrap();
    let registry = db.enable_metrics();
    db.apply_source("rules b(v: X) <- a(v: X).", Mode::Ridv)
        .unwrap();
    assert_eq!(db.edb().assoc_len(Sym::new("b")), 2);
    let snap = registry.counter_snapshot();
    assert_eq!(
        series(
            &snap,
            r#"logres_maintain_fallbacks_total{reason="nonground-rule"}"#
        ),
        1,
        "snapshot: {snap:?}"
    );
    assert_eq!(series(&snap, "logres_maintain_applies_total"), 0);
}

#[test]
fn ground_batches_take_the_incremental_path() {
    let mut db = Database::from_source(
        r#"
        associations
          edge = (a: integer, b: integer);
          tc   = (a: integer, b: integer);
        facts
          edge(a: 1, b: 2).
        rules
          tc(a: X, b: Y) <- edge(a: X, b: Y).
          tc(a: X, b: Z) <- tc(a: X, b: Y), edge(a: Y, b: Z).
    "#,
    )
    .unwrap();
    let registry = db.enable_metrics();
    db.apply_source("rules edge(a: 2, b: 3) <- .", Mode::Ridv)
        .unwrap();
    db.apply_source("rules -edge(a: 1, b: 2) <- .", Mode::Ridv)
        .unwrap();
    let snap = registry.counter_snapshot();
    assert_eq!(series(&snap, "logres_maintain_applies_total"), 2);
    assert!(
        !snap
            .iter()
            .any(|(n, _)| n.starts_with("logres_maintain_fallbacks_total")),
        "no fallback expected: {snap:?}"
    );
    // And the maintained closure is correct.
    let rows = db.query("goal tc(a: A, b: B)?").unwrap();
    assert_eq!(rows.len(), 1, "only edge(2,3) remains");
}

/// E5's forest under the persistent ancestor view: `n` parent edges in
/// chains of ten, chain `k` rooted at `p{1000k}`.
fn ancestor_forest(n: usize) -> Database {
    let mut src = String::from("associations\n  parent = (par: string, chil: string);\nfacts\n");
    for i in 0..n {
        let node = (i / 10) * 1000 + i % 10;
        src.push_str(&format!(
            "  parent(par: \"p{node}\", chil: \"p{}\").\n",
            node + 1
        ));
    }
    let mut db = Database::from_source(&src).expect("forest loads");
    db.apply_source(
        r#"
        associations
          ancestor = (anc: string, des: string);
        rules
          ancestor(anc: X, des: Y) <- parent(par: X, chil: Y).
          ancestor(anc: X, des: Z) <- parent(par: X, chil: Y), ancestor(anc: Y, des: Z).
    "#,
        Mode::Radi,
    )
    .expect("view installs");
    db
}

/// The matcher's probe-hit, probe-miss and scan totals for one singleton
/// insert and delete at the root of the forest's first chain.
fn root_cycle_matching(n: usize) -> [u64; 3] {
    let mut db = ancestor_forest(n);
    let registry = db.enable_metrics();
    let cycle = |db: &mut Database| {
        for src in [
            r#"rules parent(par: "x", chil: "p0") <- ."#,
            r#"rules -parent(par: "x", chil: "p0") <- ."#,
        ] {
            db.apply_source(src, Mode::Ridv).expect("update applies");
        }
    };
    // The first cycle builds the maintained view, whose round 0 reads the
    // whole instance; only the second is pure maintenance.
    cycle(&mut db);
    let before = registry.counter_snapshot();
    cycle(&mut db);
    let after = registry.counter_snapshot();
    assert_eq!(
        series(&after, "logres_maintain_applies_total"),
        4,
        "{after:?}"
    );
    [
        "logres_matcher_probe_hits_total",
        "logres_matcher_probe_misses_total",
        "logres_matcher_scan_fallbacks_total",
    ]
    .map(|name| series(&after, name) - series(&before, name))
}

#[test]
fn maintenance_matching_is_proportional_to_the_change() {
    // The same update touches the same ten-node chain at both sizes, so
    // O(change) maintenance must record identical access-path counts.
    let small = root_cycle_matching(128);
    let large = root_cycle_matching(2_048);
    assert_eq!(small, large, "[hits, misses, scans]");
    assert!(small[0] > 0, "maintenance probes are counted: {small:?}");
}

#[test]
fn disabling_incremental_maintenance_forces_the_full_path() {
    let mut db = Database::from_source(
        r#"
        associations
          p = (d: integer);
    "#,
    )
    .unwrap();
    db.set_incremental(false);
    let registry = db.enable_metrics();
    db.apply_source("rules p(d: 1) <- .", Mode::Ridv).unwrap();
    let snap = registry.counter_snapshot();
    assert_eq!(series(&snap, "logres_maintain_applies_total"), 0);
    assert_eq!(db.edb().assoc_len(Sym::new("p")), 1);
}
