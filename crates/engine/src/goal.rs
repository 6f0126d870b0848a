//! Goal answering.
//!
//! A goal is a conjunctive query over an instance; its answer is the set of
//! bindings of its variables (tuple-variable bindings are stripped of the
//! invisible oid before they reach the user — "oids are not visible to
//! users").
//!
//! A goal whose body is one positive association literal is a projection
//! of that literal's extension, and is answered as one: no substitution is
//! built per tuple. Every other goal runs through the matcher.

use std::collections::BTreeSet;

use logres_lang::{Atom, Goal, PredArg, Term};
use logres_model::{Instance, PredKind, Schema, Sym, Value};

use crate::binding::{normalize_arg, strip_self, values_unify, Subst};
use crate::error::EngineError;
use crate::matcher::{eval_body, BodyView};

/// Goal answer rows: per row, `(variable, value)` bindings in the goal's
/// output-variable order.
pub type AnswerRows = Vec<Vec<(Sym, Value)>>;

/// Evaluate a goal; rows are deduplicated and sorted for determinism. Each
/// row binds the goal's variables in order.
pub fn answer_goal(
    schema: &Schema,
    inst: &Instance,
    goal: &Goal,
) -> Result<AnswerRows, EngineError> {
    match Projection::of(schema, goal) {
        Some(projection) => Ok(projection.answer(inst)),
        None => matched(schema, inst, goal),
    }
}

/// The goal's answer through the matcher: every satisfying substitution,
/// projected onto the goal's variables.
fn matched(
    schema: &Schema,
    inst: &Instance,
    goal: &Goal,
) -> Result<Vec<Vec<(Sym, Value)>>, EngineError> {
    let subs = eval_body(schema, BodyView::plain(inst), &goal.body, Subst::new())?;
    // Every row binds the same variables in the same order, so the set's
    // lexicographic (Sym, Value) order coincides with the values-only order
    // the answer is specified to be sorted by.
    let mut rows: BTreeSet<Vec<(Sym, Value)>> = BTreeSet::new();
    for s in subs {
        let row: Vec<(Sym, Value)> = goal
            .vars
            .iter()
            .map(|v| {
                let val = s.get(*v).cloned().unwrap_or(Value::Nil);
                (*v, strip_self(&val))
            })
            .collect();
        rows.insert(row);
    }
    Ok(rows.into_iter().collect())
}

/// A goal `p(l1: t1, …)?` over one association `p`, every `ti` a variable
/// or a constant, read as a projection of `p`'s extension. A tuple answers
/// when every constant equals its field and every repeated variable's
/// fields unify with its first one, exactly the tests the matcher makes;
/// the row binds each variable to its first field, as the matcher does.
struct Projection<'g> {
    assoc: Sym,
    /// `(label, constant)` per constant argument, in argument order.
    consts: Vec<(Sym, &'g Value)>,
    /// Per goal variable, its first label; `None` for a variable the
    /// literal does not mention (bound to `nil`, as the matcher leaves it).
    binds: Vec<(Sym, Option<Sym>)>,
    /// `(first label, later label)` per repeated occurrence of a variable.
    repeats: Vec<(Sym, Sym)>,
}

impl<'g> Projection<'g> {
    fn of(schema: &Schema, goal: &'g Goal) -> Option<Projection<'g>> {
        let [lit] = goal.body.as_slice() else {
            return None;
        };
        let Atom::Pred { pred, args, .. } = &lit.atom else {
            return None;
        };
        if lit.negated || schema.kind(*pred) != Some(PredKind::Assoc) {
            return None;
        }
        let mut labels = Vec::new();
        let mut consts = Vec::new();
        let mut firsts: Vec<(Sym, Sym)> = Vec::new();
        let mut repeats = Vec::new();
        for arg in args {
            let PredArg::Labeled(l, term) = arg else {
                return None;
            };
            // A label named twice is the matcher's to judge.
            if labels.contains(l) {
                return None;
            }
            labels.push(*l);
            match term {
                Term::Const(c) => consts.push((*l, c)),
                Term::Var(v) => match firsts.iter().find(|(fv, _)| fv == v) {
                    Some((_, first)) => repeats.push((*first, *l)),
                    None => firsts.push((*v, *l)),
                },
                _ => return None,
            }
        }
        // Every variable of the literal binds a column of the row, so a
        // tuple lacking one of their fields is skipped, as the matcher
        // skips it.
        if firsts.iter().any(|(v, _)| !goal.vars.contains(v)) {
            return None;
        }
        let binds = goal
            .vars
            .iter()
            .map(|v| (*v, firsts.iter().find(|(fv, _)| fv == v).map(|(_, l)| *l)))
            .collect();
        Some(Projection {
            assoc: *pred,
            consts,
            binds,
            repeats,
        })
    }

    /// The sorted, deduplicated rows over `inst`. The first constant
    /// probes `assoc`'s argument index, as the matcher's first probe does;
    /// with none, the extension is scanned. Index keys are normalized, so
    /// every constant is still compared exactly.
    fn answer(&self, inst: &Instance) -> Vec<Vec<(Sym, Value)>> {
        let mut rows = Vec::new();
        let mut add = |tuple: &Value| {
            let holds = self.consts.iter().all(|(l, c)| tuple.field(*l) == Some(*c))
                && self.repeats.iter().all(|(first, later)| {
                    match (tuple.field(*first), tuple.field(*later)) {
                        (Some(a), Some(b)) => values_unify(a, b),
                        _ => false,
                    }
                });
            if !holds {
                return;
            }
            let row: Option<Vec<(Sym, Value)>> = self
                .binds
                .iter()
                .map(|(v, l)| match l {
                    Some(l) => tuple.field(*l).map(|fv| (*v, strip_self(fv))),
                    None => Some((*v, Value::Nil)),
                })
                .collect();
            rows.extend(row);
        };
        match self.consts.first() {
            Some((l, c)) => {
                let key = normalize_arg((*c).clone());
                if let Some(bucket) = inst.tuples_matching(self.assoc, *l, &key) {
                    bucket.iter().for_each(&mut add);
                }
            }
            None => inst.tuples_of(self.assoc).for_each(&mut add),
        }
        rows.sort_unstable();
        rows.dedup();
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::load_facts;
    use logres_lang::{parse_program, BodyLiteral};
    use logres_model::OidGen;
    use proptest::prelude::*;

    /// `r` has two string columns, so one variable can name both.
    const PROJECTED: &str = r#"
        associations
          r = (s: string, u: string, i: integer, t: (x: integer, y: string));
        classes
          c = (s: string);
    "#;

    /// Deterministic byte-stream cursor for the generators below.
    struct Cursor<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Cursor<'_> {
        fn next(&mut self) -> usize {
            let b = self.bytes.get(self.pos).copied().unwrap_or(0);
            self.pos += 1;
            b as usize
        }
    }

    /// A value of column `label` from a small pool, so that tuples share
    /// fields and constants hit.
    fn column_value(cur: &mut Cursor<'_>, label: &str) -> Value {
        let word = |k: usize| Value::str(["a", "b", "c"][k % 3]);
        match label {
            "s" | "u" => word(cur.next()),
            "i" => Value::Int((cur.next() % 3) as i64),
            _ => Value::tuple([
                ("x", Value::Int((cur.next() % 2) as i64)),
                ("y", word(cur.next())),
            ]),
        }
    }

    /// A constant no pool above produces.
    fn absent_value(label: &str) -> Value {
        match label {
            "s" | "u" => Value::str("zzz"),
            "i" => Value::Int(99),
            _ => Value::tuple([("x", Value::Int(99)), ("y", Value::str("zzz"))]),
        }
    }

    /// Up to seven `r` tuples (none: an empty extension) and a goal over
    /// `r` whose every column is omitted, a variable (of two, so one may
    /// repeat), a constant from the data, or an absent constant.
    fn random_case(bytes: &[u8]) -> (Instance, Goal) {
        let mut cur = Cursor { bytes, pos: 0 };
        let labels = ["s", "u", "i", "t"];
        let r = Sym::new("r");
        let mut inst = Instance::new();
        let mut data: Vec<Value> = Vec::new();
        for _ in 0..cur.next() % 8 {
            let tuple = Value::tuple(labels.map(|l| (l, column_value(&mut cur, l))));
            inst.insert_assoc(r, tuple.clone());
            data.push(tuple);
        }
        let mut args = Vec::new();
        let mut vars: Vec<Sym> = Vec::new();
        for l in labels {
            let label = Sym::new(l);
            let term = match cur.next() % 5 {
                0 => continue,
                1 | 2 => {
                    let v = Sym::new(["X", "Y"][cur.next() % 2]);
                    if !vars.contains(&v) {
                        vars.push(v);
                    }
                    Term::Var(v)
                }
                3 if !data.is_empty() => {
                    let from = &data[cur.next() % data.len()];
                    Term::Const(from.field(label).expect("full tuple").clone())
                }
                _ => Term::Const(absent_value(l)),
            };
            args.push(PredArg::Labeled(label, term));
        }
        let goal = Goal {
            body: vec![BodyLiteral {
                atom: Atom::Pred {
                    pred: r,
                    args,
                    span: Default::default(),
                },
                negated: false,
            }],
            vars,
            span: Default::default(),
        };
        (inst, goal)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A single-literal goal answered by projection gives the matcher's
        /// rows in the matcher's order.
        #[test]
        fn projection_answers_as_the_matcher_does(
            bytes in proptest::collection::vec(any::<u8>(), 8..64),
        ) {
            let schema = parse_program(PROJECTED).unwrap().schema;
            let (inst, goal) = random_case(&bytes);
            let projection = Projection::of(&schema, &goal).expect("a projectable goal");
            let expected = matched(&schema, &inst, &goal).unwrap();
            prop_assert_eq!(projection.answer(&inst), expected.clone());
            prop_assert_eq!(answer_goal(&schema, &inst, &goal).unwrap(), expected);
        }
    }

    #[test]
    fn class_literals_and_conjunctions_take_the_matcher() {
        for goal in [
            "goal c(s: X)?",
            r#"goal r(s: X, u: "a"), r(s: "b", u: X)?"#,
            "goal r(s: X), not r(u: X)?",
            "goal r(s: X, i: N), N > 0?",
            "goal r(T)?",
        ] {
            let p = parse_program(&format!(
                "{PROJECTED}
{goal}"
            ))
            .unwrap();
            let goal = p.goal.as_ref().unwrap();
            assert!(Projection::of(&p.schema, goal).is_none(), "{goal:?}");
        }
        let p = parse_program(&format!(
            "{PROJECTED}
goal r(s: X, u: X)?"
        ))
        .unwrap();
        assert!(Projection::of(&p.schema, p.goal.as_ref().unwrap()).is_some());
    }

    #[test]
    fn goal_projects_and_deduplicates() {
        let p = parse_program(
            r#"
            associations
              parent = (par: string, chil: string);
            facts
              parent(par: "a", chil: "b").
              parent(par: "a", chil: "c").
              parent(par: "b", chil: "d").
            goal parent(par: X)?
        "#,
        )
        .unwrap();
        let mut inst = Instance::new();
        let mut gen = OidGen::new();
        load_facts(&p.schema, &mut inst, &p.facts, &mut gen).unwrap();
        let rows = answer_goal(&p.schema, &inst, p.goal.as_ref().unwrap()).unwrap();
        // X ranges over parents: a (twice, deduplicated) and b.
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0].1, Value::str("a"));
        assert_eq!(rows[1][0].1, Value::str("b"));
    }

    #[test]
    fn goal_strips_hidden_oids_from_tuple_vars() {
        let p = parse_program(
            r#"
            classes
              person = (name: string);
            facts
              person(name: "ceri").
            goal person(P)?
        "#,
        )
        .unwrap();
        let mut inst = Instance::new();
        let mut gen = OidGen::new();
        load_facts(&p.schema, &mut inst, &p.facts, &mut gen).unwrap();
        let rows = answer_goal(&p.schema, &inst, p.goal.as_ref().unwrap()).unwrap();
        assert_eq!(rows.len(), 1);
        // The binding is the visible tuple only — no oid leakage.
        assert_eq!(rows[0][0].1, Value::tuple([("name", Value::str("ceri"))]));
    }

    #[test]
    fn large_answers_deduplicate_and_stay_sorted() {
        // Regression: dedup used to be O(n²) `Vec::contains`; 10k distinct
        // rows (each derived twice) must come back quickly, deduplicated,
        // and in sorted order.
        let p = parse_program(
            r#"
            associations
              e = (a: integer, b: integer);
            goal e(a: X, b: Y)?
        "#,
        )
        .unwrap();
        let mut inst = Instance::new();
        let e = Sym::new("e");
        for i in 0..10_000i64 {
            inst.insert_assoc(
                e,
                Value::tuple([("a", Value::Int(i)), ("b", Value::Int(0))]),
            );
            // A second literal-order path to the same answer row.
            inst.insert_assoc(
                e,
                Value::tuple([("a", Value::Int(i)), ("b", Value::Int(0))]),
            );
        }
        let rows = answer_goal(&p.schema, &inst, p.goal.as_ref().unwrap()).unwrap();
        assert_eq!(rows.len(), 10_000);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row[0], (Sym::new("X"), Value::Int(i as i64)));
        }
    }

    #[test]
    fn conjunctive_goals_join() {
        let p = parse_program(
            r#"
            associations
              parent = (par: string, chil: string);
            facts
              parent(par: "a", chil: "b").
              parent(par: "b", chil: "c").
            goal parent(par: X, chil: Y), parent(par: Y, chil: Z)?
        "#,
        )
        .unwrap();
        let mut inst = Instance::new();
        let mut gen = OidGen::new();
        load_facts(&p.schema, &mut inst, &p.facts, &mut gen).unwrap();
        let rows = answer_goal(&p.schema, &inst, p.goal.as_ref().unwrap()).unwrap();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row[0], (Sym::new("X"), Value::str("a")));
        assert_eq!(row[2], (Sym::new("Z"), Value::str("c")));
    }
}
