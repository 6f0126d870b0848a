//! Lowering of rule bodies to the ALGRES algebra.
//!
//! The paper's prototype translates LOGRES onto ALGRES (\[Ca90\]); this module
//! is the per-rule half of that translation: each association rule becomes a
//! select–join–project plan (constants → selections, builtins →
//! selections/extends, negated literals → antijoins, already-bound literals
//! → semijoin reducers). [`crate::plan`] stratifies the program, derives the
//! semi-naive delta variants, and drives the rounds.

use algres::{AlgExpr, Env, Pred as APred, Relation, Scalar};
use logres_lang::{Atom, BinOp, Builtin, PredArg, Rule, Term};
use logres_model::{Instance, PredKind, Schema, Sym, TypeDesc, Value};
use rustc_hash::{FxHashMap, FxHashSet};

use crate::error::EngineError;

/// The visible tuple type of a predicate (classes: effective type;
/// associations: their equation), domains expanded.
pub fn pred_type(schema: &Schema, pred: Sym) -> Option<TypeDesc> {
    match schema.kind(pred)? {
        PredKind::Class => Some(schema.expand(schema.effective(pred)?)),
        PredKind::Assoc => Some(schema.expand(schema.assoc_type(pred)?)),
        _ => None,
    }
}

/// Build an ALGRES environment with one relation per association.
pub fn env_from_instance(schema: &Schema, inst: &Instance) -> Env<'static> {
    let mut env = Env::new();
    for a in schema.assocs() {
        if let Some(rel) = relation_of(schema, inst, a) {
            env.bind(a, rel);
        }
    }
    env
}

pub(crate) fn relation_of(schema: &Schema, inst: &Instance, assoc: Sym) -> Option<Relation> {
    let ty = schema.expand(schema.assoc_type(assoc)?);
    let cols: Vec<Sym> = ty.as_tuple()?.iter().map(|f| f.label).collect();
    let mut rel = Relation::new(cols);
    for t in inst.tuples_of(assoc) {
        rel.insert(t.clone());
    }
    Some(rel)
}

/// Column name carrying a rule variable.
fn var_col(v: Sym) -> Sym {
    Sym::new(&format!("?{v}"))
}

/// Flow-analysis hints for lowering one rule body, computed by
/// `plan::compile_program_with` from the whole-program
/// [`logres_lang::analyze::FlowSummaries`]. Everything here is an
/// optimization over an over-approximation: applying or ignoring a hint
/// never changes the produced instance.
#[derive(Debug, Clone, Default)]
pub struct FlowHints {
    /// Iteration order over body-literal indices (a permutation of
    /// `0..body.len()`): positive predicate literals join in this order,
    /// cheapest inferred cardinality band first. `None` keeps source order.
    pub order: Option<Vec<usize>>,
    /// Body-literal indices whose semijoin guard the flow analysis proved
    /// total (the probe side's values provably lie inside the guard's exact
    /// stored column): the reducer may be dropped entirely.
    pub skip: std::collections::BTreeSet<usize>,
}

/// The order in which the lowering visits `rule`'s body literals: `order`
/// with its positive predicate literals permuted among their own positions.
/// The delta literal leads (it is the smallest relation by construction);
/// after it, the next literal is the first remaining one in `order` that
/// shares a variable with those already joined, and only when none does
/// the first remaining one, which forms a cross product. Natural join is
/// commutative and associative, so only cost changes.
fn join_order(rule: &Rule, order: Vec<usize>, delta: Option<usize>) -> Vec<usize> {
    let positive =
        |li: usize| !rule.body[li].negated && matches!(rule.body[li].atom, Atom::Pred { .. });
    let vars = |li: usize| -> Vec<Sym> {
        let Atom::Pred { args, .. } = &rule.body[li].atom else {
            return Vec::new();
        };
        args.iter()
            .filter_map(|arg| match arg {
                PredArg::Labeled(_, Term::Var(v)) => Some(*v),
                _ => None,
            })
            .collect()
    };
    let mut pending: Vec<usize> = order.iter().copied().filter(|&li| positive(li)).collect();
    let mut picked: Vec<usize> = Vec::with_capacity(pending.len());
    let mut bound: FxHashSet<Sym> = FxHashSet::default();
    if let Some(at) = delta.and_then(|d| pending.iter().position(|&li| li == d)) {
        picked.push(pending.remove(at));
        bound.extend(vars(picked[0]));
    }
    while !pending.is_empty() {
        let at = pending
            .iter()
            .position(|&li| picked.is_empty() || vars(li).iter().any(|v| bound.contains(v)))
            .unwrap_or(0);
        let li = pending.remove(at);
        bound.extend(vars(li));
        picked.push(li);
    }
    let mut next = picked.into_iter();
    order
        .into_iter()
        .map(|li| {
            if positive(li) {
                next.next().expect("one picked literal per positive slot")
            } else {
                li
            }
        })
        .collect()
}

/// Compile one rule body to a select–join–project plan.
///
/// `delta` optionally names a body literal (by its index in `rule.body`) whose
/// relation scan should read from a substitute relation name instead of the
/// predicate itself — the semi-naive planner uses this to point one occurrence
/// of a recursive predicate at its per-round delta relation. Positive
/// literals join in [`join_order`]: the delta literal first, then literals
/// sharing a bound variable before any that would form a cross product.
///
/// Positive literals that bind no new variables (magic-set `@magic_*` guards,
/// repeated-tuple tests) are lowered to [`AlgExpr::SemiJoin`] reducers rather
/// than full joins: once every variable of the literal is already bound, the
/// natural join can only filter, never widen.
///
/// `hints` optionally reorders the positive joins and elides statically-total
/// semijoin reducers (see [`FlowHints`]); each applied hint pushes one line
/// onto `notes` so EXPLAIN can surface what the flow analysis changed.
pub(crate) fn compile_rule_plan_with(
    schema: &Schema,
    rule: &Rule,
    delta: Option<(usize, Sym)>,
    hints: Option<&FlowHints>,
    notes: &mut Vec<String>,
) -> Result<AlgExpr, EngineError> {
    let unsupported = |detail: String| EngineError::UnsupportedFragment { detail };
    if rule.head.negated {
        return Err(unsupported("deleting heads cannot be compiled".into()));
    }
    let Atom::Pred {
        pred: head_pred,
        args: head_args,
        ..
    } = &rule.head.atom
    else {
        return Err(unsupported("member heads cannot be compiled".into()));
    };
    if schema.kind(*head_pred) != Some(PredKind::Assoc) {
        return Err(unsupported("class heads cannot be compiled".into()));
    }

    // Body predicates become renamed relation scans joined together;
    // negated literals become antijoins applied after everything that can
    // bind variables.
    let mut joined: Option<AlgExpr> = None;
    let mut bound_vars: FxHashSet<Sym> = FxHashSet::default();
    let mut builtins: Vec<(Builtin, &[Term])> = Vec::new();
    let mut negations: Vec<(Sym, &[PredArg])> = Vec::new();

    let order: Vec<usize> = match hints.and_then(|h| h.order.clone()) {
        Some(o) => o,
        None => (0..rule.body.len()).collect(),
    };
    for li in join_order(rule, order, delta.map(|(li, _)| li)) {
        let lit = &rule.body[li];
        if lit.negated {
            match &lit.atom {
                Atom::Pred { pred, args, .. } => {
                    if schema.kind(*pred) != Some(PredKind::Assoc) {
                        return Err(unsupported(format!(
                            "negated class literal `{pred}` cannot be compiled"
                        )));
                    }
                    negations.push((*pred, args));
                    continue;
                }
                _ => return Err(unsupported("negated non-predicate literal".into())),
            }
        }
        match &lit.atom {
            Atom::Pred { pred, args, .. } => {
                if schema.kind(*pred) != Some(PredKind::Assoc) {
                    return Err(unsupported(format!(
                        "class literal `{pred}` cannot be compiled"
                    )));
                }
                let scan = match delta {
                    Some((dli, name)) if dli == li => name,
                    _ => *pred,
                };
                // A statically-total guard filters nothing: drop the whole
                // literal. Sound only when every argument is an
                // already-bound variable (no fresh bindings, no constant
                // selections) and the scan is not the delta redirection.
                if hints.is_some_and(|h| h.skip.contains(&li))
                    && joined.is_some()
                    && scan == *pred
                    && args.iter().all(|arg| {
                        matches!(arg, PredArg::Labeled(_, Term::Var(v)) if bound_vars.contains(v))
                    })
                {
                    notes.push(format!(
                        "skip-semijoin-by-flow: `{pred}` at body position {li} is statically total"
                    ));
                    continue;
                }
                let mut expr = AlgExpr::Rel(scan);
                // Does this literal bind any variable not already bound by an
                // earlier literal? If not, it can only filter: semijoin.
                let fresh = args.iter().any(|arg| {
                    matches!(arg, PredArg::Labeled(_, Term::Var(v)) if !bound_vars.contains(v))
                });
                let mut lit_vars: FxHashMap<Sym, Sym> = FxHashMap::default(); // var -> col
                let mut keep: Vec<Sym> = Vec::new();
                for arg in args {
                    match arg {
                        PredArg::Labeled(l, Term::Var(v)) => {
                            if let Some(first) = lit_vars.get(v) {
                                // Repeated variable inside one literal: keep
                                // one column, select equality.
                                expr = expr.select(APred::eq(Scalar::Col(*l), Scalar::Col(*first)));
                            } else {
                                lit_vars.insert(*v, *l);
                                keep.push(*l);
                            }
                        }
                        PredArg::Labeled(l, Term::Const(c)) => {
                            expr =
                                expr.select(APred::eq(Scalar::Col(*l), Scalar::Const(c.clone())));
                        }
                        other => {
                            return Err(unsupported(format!(
                                "argument form {other:?} cannot be compiled"
                            )))
                        }
                    }
                }
                // Project to the variable columns, renamed to ?var.
                expr = expr.project(keep.clone());
                for (v, col) in &lit_vars {
                    expr = expr.rename(*col, var_col(*v));
                    bound_vars.insert(*v);
                }
                joined = Some(match joined.take() {
                    Some(acc) if !fresh => AlgExpr::SemiJoin {
                        left: Box::new(acc),
                        right: Box::new(expr),
                    },
                    Some(acc) => acc.join(expr),
                    None => expr,
                });
            }
            Atom::Member { .. } => {
                return Err(unsupported("data functions cannot be compiled".into()))
            }
            Atom::Builtin { builtin, args, .. } => builtins.push((*builtin, args)),
        }
    }

    let mut expr = match joined {
        Some(j) => j,
        None => {
            // No positive body predicates: the body is satisfied exactly
            // once, by the empty valuation. Compile over the unit relation
            // (one zero-column tuple) so head constants and defining
            // builtins extend onto it — this is how ground facts such as
            // magic-set demand seeds (`@magic_p(a: "adam") <- .`) stay on
            // the compiled path.
            let mut unit = Relation::new(Vec::<Sym>::new());
            unit.insert(Value::tuple(std::iter::empty::<(Sym, Value)>()));
            AlgExpr::Const(unit)
        }
    };

    // Builtins: equalities become extends (defining) or selects (testing);
    // comparisons become selects.
    for (builtin, args) in builtins {
        match builtin {
            Builtin::Eq => {
                let (lhs, rhs) = (&args[0], &args[1]);
                match (lhs, rhs) {
                    (Term::Var(v), other) | (other, Term::Var(v)) if !bound_vars.contains(v) => {
                        let scalar = compile_scalar(other, &bound_vars)?;
                        expr = AlgExpr::Extend {
                            input: Box::new(expr),
                            col: var_col(*v),
                            value: scalar,
                        };
                        bound_vars.insert(*v);
                    }
                    _ => {
                        let a = compile_scalar(lhs, &bound_vars)?;
                        let b = compile_scalar(rhs, &bound_vars)?;
                        expr = expr.select(APred::eq(a, b));
                    }
                }
            }
            Builtin::Ne | Builtin::Lt | Builtin::Le | Builtin::Gt | Builtin::Ge => {
                let a = compile_scalar(&args[0], &bound_vars)?;
                let b = compile_scalar(&args[1], &bound_vars)?;
                let op = match builtin {
                    Builtin::Ne => algres::CmpOp::Ne,
                    Builtin::Lt => algres::CmpOp::Lt,
                    Builtin::Le => algres::CmpOp::Le,
                    Builtin::Gt => algres::CmpOp::Gt,
                    Builtin::Ge => algres::CmpOp::Ge,
                    _ => unreachable!(),
                };
                expr = expr.select(APred::Cmp(op, a, b));
            }
            other => {
                return Err(unsupported(format!(
                    "builtin `{}` cannot be compiled",
                    other.name()
                )))
            }
        }
    }

    // Negated literals: antijoin against the (filtered, projected) negated
    // relation on the shared variable columns. All their variables must be
    // bound by the positive part (safety guarantees this for checked rules).
    for (pred, args) in negations {
        let mut neg = AlgExpr::Rel(pred);
        let mut lit_vars: FxHashMap<Sym, Sym> = FxHashMap::default();
        let mut keep: Vec<Sym> = Vec::new();
        for arg in args {
            match arg {
                PredArg::Labeled(l, Term::Var(v)) => {
                    if !bound_vars.contains(v) {
                        return Err(unsupported(format!(
                            "variable `{v}` of a negated literal is not bound by the positive body"
                        )));
                    }
                    if let Some(first) = lit_vars.get(v) {
                        neg = neg.select(APred::eq(Scalar::Col(*l), Scalar::Col(*first)));
                    } else {
                        lit_vars.insert(*v, *l);
                        keep.push(*l);
                    }
                }
                PredArg::Labeled(l, Term::Const(c)) => {
                    neg = neg.select(APred::eq(Scalar::Col(*l), Scalar::Const(c.clone())));
                }
                other => {
                    return Err(unsupported(format!(
                        "negated argument form {other:?} cannot be compiled"
                    )))
                }
            }
        }
        neg = neg.project(keep);
        for (v, col) in &lit_vars {
            neg = neg.rename(*col, var_col(*v));
        }
        expr = AlgExpr::AntiJoin {
            left: Box::new(expr),
            right: Box::new(neg),
        };
    }

    // Head: rename variable columns to attribute labels, extend constants,
    // project to the head attribute list.
    let mut head_cols: Vec<Sym> = Vec::new();
    for arg in head_args {
        match arg {
            PredArg::Labeled(l, Term::Var(v)) => {
                if !bound_vars.contains(v) {
                    return Err(unsupported(format!(
                        "unbound head variable `{v}` cannot be compiled"
                    )));
                }
                expr = AlgExpr::Extend {
                    input: Box::new(expr),
                    col: *l,
                    value: Scalar::Col(var_col(*v)),
                };
                head_cols.push(*l);
            }
            PredArg::Labeled(l, Term::Const(c)) => {
                expr = AlgExpr::Extend {
                    input: Box::new(expr),
                    col: *l,
                    value: Scalar::Const(c.clone()),
                };
                head_cols.push(*l);
            }
            other => {
                return Err(unsupported(format!(
                    "head argument form {other:?} cannot be compiled"
                )))
            }
        }
    }
    Ok(expr.project(head_cols))
}

fn compile_scalar(t: &Term, bound: &FxHashSet<Sym>) -> Result<Scalar, EngineError> {
    match t {
        Term::Var(v) => {
            if bound.contains(v) {
                Ok(Scalar::Col(var_col(*v)))
            } else {
                Err(EngineError::UnsupportedFragment {
                    detail: format!("variable `{v}` not bound by body predicates"),
                })
            }
        }
        Term::Const(c) => Ok(Scalar::Const(c.clone())),
        Term::Nil => Ok(Scalar::Const(Value::Nil)),
        Term::BinOp { op, lhs, rhs } => {
            let a = Box::new(compile_scalar(lhs, bound)?);
            let b = Box::new(compile_scalar(rhs, bound)?);
            Ok(match op {
                BinOp::Add => Scalar::Add(a, b),
                BinOp::Sub => Scalar::Sub(a, b),
                BinOp::Mul => Scalar::Mul(a, b),
                BinOp::Div => Scalar::Div(a, b),
                BinOp::Mod => {
                    return Err(EngineError::UnsupportedFragment {
                        detail: "modulo cannot be compiled".to_owned(),
                    })
                }
            })
        }
        other => Err(EngineError::UnsupportedFragment {
            detail: format!("term {other} cannot be compiled to a scalar"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflationary::EvalOptions;
    use crate::load::load_facts;
    use crate::plan::{compile_program, run_compiled};
    use crate::stratified::Semantics;
    use logres_lang::{parse_program, RuleSet};
    use logres_model::OidGen;

    fn setup(src: &str) -> (Schema, Instance, RuleSet) {
        let p = parse_program(src).expect("parses");
        let mut edb = Instance::new();
        let mut gen = OidGen::new();
        load_facts(&p.schema, &mut edb, &p.facts, &mut gen).expect("loads");
        (p.schema, edb, p.rules)
    }

    /// Lower a program through the planner and run it to its fixpoint.
    fn run(src: &str) -> Instance {
        let (schema, edb, rules) = setup(src);
        let program = compile_program(&schema, &rules, Semantics::Stratified).expect("compiles");
        run_compiled(&schema, &program, &rules, &edb, &EvalOptions::default())
            .expect("compiled program runs")
            .0
    }

    #[test]
    fn constants_and_comparisons_compile() {
        let out = run(r#"
            associations
              e   = (a: integer, b: integer);
              big = (a: integer, b: integer);
            facts
              e(a: 1, b: 10).
              e(a: 2, b: 20).
              e(a: 1, b: 5).
            rules
              big(a: X, b: Y) <- e(a: X, b: Y), Y >= 10, X = 1.
        "#);
        assert_eq!(out.assoc_len(Sym::new("big")), 1);
        assert!(out.has_tuple(
            Sym::new("big"),
            &Value::tuple([("a", Value::Int(1)), ("b", Value::Int(10))])
        ));
    }

    #[test]
    fn arithmetic_extends_compile() {
        let out = run(r#"
            associations
              n   = (v: integer);
              inc = (v: integer, w: integer);
            facts
              n(v: 3).
            rules
              inc(v: X, w: Y) <- n(v: X), Y = X + 1.
        "#);
        assert!(out.has_tuple(
            Sym::new("inc"),
            &Value::tuple([("v", Value::Int(3)), ("w", Value::Int(4))])
        ));
    }

    #[test]
    fn repeated_variables_become_equality_selections() {
        let out = run(r#"
            associations
              e    = (a: integer, b: integer);
              loop_t = (a: integer);
            facts
              e(a: 1, b: 1).
              e(a: 1, b: 2).
            rules
              loop_t(a: X) <- e(a: X, b: X).
        "#);
        assert_eq!(out.assoc_len(Sym::new("loop_t")), 1);
    }

    #[test]
    fn stratified_negation_compiles_to_antijoin() {
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
              edge(a: 1, b: 2).
            rules
              covered(n: X) <- edge(a: X, b: Y).
              covered(n: X) <- edge(a: Y, b: X).
              isolated(n: X) <- node(n: X), not covered(n: X).
        "#;
        let out = run(src);
        // The perfect model: only node 3 is isolated.
        assert_eq!(out.assoc_len(Sym::new("isolated")), 1);
        assert!(out.has_tuple(Sym::new("isolated"), &Value::tuple([("n", Value::Int(3))])));
        // Agrees with the stratified interpreter.
        let (schema, edb, rules) = setup(src);
        let (interp, _) =
            crate::stratified::evaluate_stratified(&schema, &rules, &edb, EvalOptions::default())
                .unwrap();
        assert_eq!(
            out.assoc_len(Sym::new("isolated")),
            interp.assoc_len(Sym::new("isolated"))
        );
    }

    #[test]
    fn negated_constants_compile_as_emptiness_tests() {
        let out = run(r#"
            associations
              p = (d: integer);
              q = (d: integer);
            facts
              p(d: 1).
              p(d: 2).
            rules
              q(d: X) <- p(d: X), not p(d: 99).
        "#);
        // p(99) is absent, so the guard passes and everything copies.
        assert_eq!(out.assoc_len(Sym::new("q")), 2);
    }

    #[test]
    fn out_of_fragment_constructs_are_rejected() {
        for (src, reason, needle) in [
            // Negating the rule's own head is negation through recursion:
            // stratification refuses it before any rule is lowered.
            (
                r#"
                associations
                  p = (d: integer);
                  q = (d: integer);
                rules
                  q(d: X) <- p(d: X), not q(d: X).
                "#,
                "unstratifiable",
                "negation through recursion",
            ),
            (
                r#"
                classes
                  c = (n: integer);
                associations
                  p = (d: integer);
                rules
                  p(d: X) <- c(n: X).
                "#,
                "fragment",
                "class literal",
            ),
        ] {
            let p = parse_program(src).unwrap();
            let err = compile_program(&p.schema, &p.rules, Semantics::Stratified).unwrap_err();
            assert_eq!(err.reason, reason, "{}", err.detail);
            assert!(err.detail.contains(needle), "{} vs {needle}", err.detail);
        }
    }

    #[test]
    fn stratified_nonrecursive_chains_compile_in_order() {
        // `p2` reads `p1` through negation, so `p1`'s stratum must come
        // first even though `p2`'s rule is written first.
        let src = r#"
            associations
              e  = (a: integer, b: integer);
              p1 = (a: integer, b: integer);
              p2 = (a: integer, b: integer);
            facts
              e(a: 1, b: 2).
              e(a: 2, b: 3).
            rules
              p2(a: X, b: Y) <- e(a: X, b: Y), not p1(a: X, b: Y).
              p1(a: X, b: Y) <- e(a: X, b: Y), X = 1.
        "#;
        let (schema, _, rules) = setup(src);
        let program = compile_program(&schema, &rules, Semantics::Stratified).unwrap();
        let order: Vec<Vec<Sym>> = program.strata.iter().map(|s| s.idb.clone()).collect();
        assert_eq!(order, vec![vec![Sym::new("p1")], vec![Sym::new("p2")]]);
        let out = run(src);
        assert_eq!(out.assoc_len(Sym::new("p2")), 1);
        assert!(out.has_tuple(
            Sym::new("p2"),
            &Value::tuple([("a", Value::Int(2)), ("b", Value::Int(3))])
        ));
    }
}
