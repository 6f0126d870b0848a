//! One table pins every fragment decision a rule's shape drives, through
//! the public entry points only: the magic rewrite's exemption reason
//! (`plan_goal(..).exemptions`), the semi-naive fragment
//! (`seminaive_applicable`) and the maintainable fragment
//! (`maintainable`). Each row is a one-rule program over a shared schema.

use logres::engine::{maintainable, seminaive_applicable};
use logres::lang::analyze::{plan_goal, ExemptReason};
use logres::lang::{check_program, parse_program};

const SCHEMA: &str = r#"
classes
  person  = (name: string);
  student = (person: person, school: string);
  student isa person;
  hero    = (name: string);
  node    = (n: integer);
associations
  p     = (a: integer);
  q     = (a: integer);
  r     = (a: integer);
  e     = (a: integer, b: integer);
  pb    = (a: integer, b: person);
  ps    = (s: {integer});
  qs    = (a: integer, s: {integer});
  named = (name: string);
  knows = (a: string, b: string);
  link  = (n: integer);
functions
  f: integer -> {integer};
"#;

/// `(what the row covers, rule, goal, exemption, semi-naive?, maintainable?)`.
type Row = (
    &'static str,
    &'static str,
    &'static str,
    Option<ExemptReason>,
    bool,
    bool,
);

const ROWS: &[Row] = &[
    (
        "positive association copy",
        "p(a: X) <- q(a: X).",
        "p(a: 1)",
        None,
        true,
        true,
    ),
    (
        "negated body literal",
        "p(a: X) <- q(a: X), not r(a: X).",
        "p(a: 1)",
        Some(ExemptReason::NegatedBody),
        false,
        false,
    ),
    (
        "deleting head",
        "-p(a: X) <- q(a: X).",
        "p(a: 1)",
        Some(ExemptReason::HeadNegation),
        false,
        false,
    ),
    (
        "class head copying a subclass object through a tuple variable",
        "person(P) <- student(P).",
        "person(name: \"a\")",
        Some(ExemptReason::ClassHead),
        false,
        false,
    ),
    (
        "class head copying a body-bound self",
        "person(self: P, name: N) <- student(self: P, name: N).",
        "person(name: \"a\")",
        Some(ExemptReason::ClassHead),
        false,
        false,
    ),
    (
        "class head inventing through an unbound self",
        "hero(self: H, name: N) <- knows(a: N, b: M).",
        "hero(name: \"a\")",
        Some(ExemptReason::OidInvention),
        false,
        false,
    ),
    (
        "class head inventing without a self argument",
        "hero(name: N) <- named(name: N).",
        "hero(name: \"a\")",
        Some(ExemptReason::OidInvention),
        false,
        false,
    ),
    (
        "class head inventing through an association tuple variable",
        "node(T) <- link(T).",
        "node(n: 1)",
        Some(ExemptReason::OidInvention),
        false,
        false,
    ),
    (
        "member head",
        "member(X, f(Y)) <- e(a: Y, b: X).",
        "member(X, f(1))",
        Some(ExemptReason::DataFunction),
        false,
        false,
    ),
    (
        "member body literal",
        "p(a: X) <- q(a: Y), member(X, f(Y)).",
        "p(a: 1)",
        Some(ExemptReason::DataFunction),
        false,
        false,
    ),
    (
        "data function applied inside a predicate argument",
        "p(a: X) <- qs(a: X, s: f(X)).",
        "p(a: 1)",
        Some(ExemptReason::DataFunction),
        true,
        false,
    ),
    (
        "data function applied inside a builtin",
        "ps(s: S) <- q(a: X), S = f(X).",
        "ps(s: S)",
        Some(ExemptReason::DataFunction),
        false,
        false,
    ),
    (
        "data function applied in the head",
        "ps(s: f(X)) <- q(a: X).",
        "ps(s: S)",
        Some(ExemptReason::DataFunction),
        true,
        false,
    ),
    (
        "arithmetic in the head",
        "p(a: X + 1) <- q(a: X).",
        "p(a: 1)",
        None,
        true,
        false,
    ),
    (
        "arithmetic in the body",
        "p(a: Y) <- q(a: X), Y = X + 1.",
        "p(a: 1)",
        None,
        true,
        false,
    ),
    (
        "nil head argument",
        "pb(a: X, b: nil) <- q(a: X).",
        "pb(a: 1, b: B)",
        None,
        true,
        true,
    ),
    (
        "tuple-variable association head",
        "p(T) <- q(T).",
        "p(a: 1)",
        None,
        true,
        true,
    ),
    (
        "class body literal",
        "named(name: N) <- person(name: N).",
        "named(name: \"a\")",
        None,
        false,
        false,
    ),
    (
        "ground batch rule",
        "p(a: 1) <- .",
        "p(a: 1)",
        None,
        true,
        true,
    ),
    (
        "member literal before a negated literal",
        "p(a: X) <- q(a: X), member(Y, f(X)), not r(a: Y).",
        "p(a: 1)",
        Some(ExemptReason::DataFunction),
        false,
        false,
    ),
    (
        "negated literal before a member literal",
        "p(a: X) <- q(a: X), not r(a: X), member(Y, f(X)).",
        "p(a: 1)",
        Some(ExemptReason::NegatedBody),
        false,
        false,
    ),
    (
        "negated member literal",
        "p(a: X) <- q(a: X), not member(X, f(X)).",
        "p(a: 1)",
        Some(ExemptReason::NegatedBody),
        false,
        false,
    ),
];

#[test]
fn one_rule_programs_take_their_pinned_routes() {
    let mut failures = Vec::new();
    for &(what, rule, goal, exempt, seminaive, maintained) in ROWS {
        let src = format!("{SCHEMA}rules\n  {rule}\ngoal {goal}?\n");
        let program = parse_program(&src).unwrap_or_else(|e| panic!("{what}: {e:?}"));
        if let Err(errs) = check_program(&program) {
            failures.push(format!("{what} (`{rule}`) is rejected: {errs:?}"));
        }
        let plan = plan_goal(
            &program.schema,
            &program.rules,
            program.goal.as_ref().expect("row has a goal"),
        );
        let got_exempt = plan.exemptions.first().map(|e| e.reason);
        let got = (
            got_exempt,
            seminaive_applicable(&program.schema, &program.rules),
            maintainable(&program.schema, &program.rules),
        );
        if plan.exemptions.len() > 1 || got != (exempt, seminaive, maintained) {
            failures.push(format!(
                "{what} (`{rule}`): expected {:?}, got {got:?}",
                (exempt, seminaive, maintained)
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
