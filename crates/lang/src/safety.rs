//! Safety analysis (Section 3.1).
//!
//! The paper states two requirements, detectable at compilation time:
//!
//! 1. the oid variable of the head predicate may be unbound — this triggers
//!    the generation of an *invented* oid;
//! 2. all other head arguments must also be present on the RHS —
//!    with the Definition 8(c) exception that a head variable of class type
//!    which is not the head predicate's own oid gets the value `nil`.
//!
//! Boundness propagates through the body: positive ordinary literals bind
//! all their variables; equalities and constructive builtins bind one side
//! once the other is ground; negated literals bind nothing (their free
//! variables range over the active domain at evaluation time, which is
//! legal but does not *export* bindings to the head).
//!
//! A literal without arguments referring to a predicate with attributes is
//! also rejected here (Section 3.1).

use logres_model::{PredKind, Schema, Sym, TypeDesc};
use rustc_hash::FxHashSet;

use crate::ast::{Atom, Builtin, PredArg, Rule, Term};
use crate::error::LangError;
use crate::typecheck::pred_tuple_type;

/// Check the safety requirements for one rule.
pub fn check_rule(schema: &Schema, rule: &Rule) -> Result<(), Vec<LangError>> {
    let mut errs = Vec::new();

    // Zero-argument literals on predicates with attributes are illegal.
    for lit in &rule.body {
        if let Atom::Pred { pred, args, span } = &lit.atom {
            if args.is_empty() {
                let has_attrs = pred_tuple_type(schema, *pred)
                    .and_then(|t| t.as_tuple().map(|f| !f.is_empty()))
                    .unwrap_or(false);
                if has_attrs {
                    errs.push(LangError::new(
                        *span,
                        format!(
                            "literal `{pred}()` without arguments refers to a predicate with attributes"
                        ),
                    ));
                }
            }
        }
    }

    let bound = bound_vars(&rule.body);

    // Head variables must be bound, with the two sanctioned exceptions.
    match &rule.head.atom {
        Atom::Pred { pred, args, span } => {
            let tuple_ty = pred_tuple_type(schema, *pred);
            for arg in args {
                match arg {
                    PredArg::SelfArg(Term::Var(v)) => {
                        if !bound.contains(v) {
                            // Exception 1: unbound head oid → invention —
                            // but only on a *positive* class head.
                            if rule.head.negated {
                                errs.push(LangError::new(
                                    *span,
                                    format!(
                                        "unbound oid variable `{v}` in a deleting head (nothing to delete)"
                                    ),
                                ));
                            } else if schema.kind(*pred) != Some(PredKind::Class) {
                                errs.push(LangError::new(
                                    *span,
                                    format!("oid invention on non-class predicate `{pred}`"),
                                ));
                            }
                        }
                    }
                    PredArg::SelfArg(_) => {}
                    PredArg::TupleVar(v) => {
                        if !bound.contains(v) {
                            errs.push(LangError::new(
                                *span,
                                format!("unbound tuple variable `{v}` in rule head"),
                            ));
                        }
                    }
                    PredArg::Labeled(label, t) => {
                        for v in t.vars() {
                            if bound.contains(&v) {
                                continue;
                            }
                            // Exception 2 (Definition 8c): a head variable in
                            // a class-typed attribute becomes nil.
                            let is_class_pos = matches!(t, Term::Var(_))
                                && tuple_ty
                                    .as_ref()
                                    .and_then(|tt| tt.field(*label))
                                    .is_some_and(|ft| matches!(ft, TypeDesc::Class(_)));
                            if !is_class_pos {
                                errs.push(LangError::new(
                                    *span,
                                    format!("unbound variable `{v}` in head argument `{label}`"),
                                ));
                            }
                        }
                    }
                }
            }
        }
        Atom::Member {
            elem, args, span, ..
        } => {
            for v in elem
                .vars()
                .into_iter()
                .chain(args.iter().flat_map(Term::vars))
            {
                if !bound.contains(&v) {
                    errs.push(LangError::new(
                        *span,
                        format!("unbound variable `{v}` in member(…) head"),
                    ));
                }
            }
        }
        Atom::Builtin { span, .. } => {
            errs.push(LangError::new(*span, "a builtin cannot be a rule head"));
        }
    }

    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// Variables bound by a body, propagated to fixpoint.
pub fn bound_vars(body: &[crate::ast::BodyLiteral]) -> FxHashSet<Sym> {
    let mut bound: FxHashSet<Sym> = FxHashSet::default();
    loop {
        let before = bound.len();
        for lit in body {
            if lit.negated {
                continue; // negated literals export no bindings
            }
            match &lit.atom {
                Atom::Pred { args, .. } => {
                    for a in args {
                        match a {
                            PredArg::Labeled(_, t) | PredArg::SelfArg(t) => {
                                bound.extend(t.vars());
                            }
                            PredArg::TupleVar(v) => {
                                bound.insert(*v);
                            }
                        }
                    }
                }
                Atom::Member { elem, args, .. } => {
                    // Reading a function enumerates (args, elem) pairs, so
                    // all variables become bound.
                    bound.extend(elem.vars());
                    for t in args {
                        bound.extend(t.vars());
                    }
                }
                Atom::Builtin { builtin, args, .. } => {
                    binds_of_builtin(*builtin, args, &mut bound);
                }
            }
        }
        if bound.len() == before {
            break;
        }
    }
    bound
}

/// Is the term fully evaluable given `bound`? Function applications are
/// evaluable when their arguments are.
fn ground_given(t: &Term, bound: &FxHashSet<Sym>) -> bool {
    t.vars().iter().all(|v| bound.contains(v))
}

fn binds_of_builtin(b: Builtin, args: &[Term], bound: &mut FxHashSet<Sym>) {
    match b {
        Builtin::Eq => {
            if ground_given(&args[0], bound) && !args[1].computes() {
                bound.extend(args[1].vars());
            }
            if ground_given(&args[1], bound) && !args[0].computes() {
                bound.extend(args[0].vars());
            }
        }
        // member(e, s): when the collection is evaluable, enumerating its
        // elements binds the element pattern.
        Builtin::Member => {
            if ground_given(&args[1], bound) && !args[0].computes() {
                bound.extend(args[0].vars());
            }
        }
        // Constructive builtins: result (first argument) becomes bound once
        // the operands are.
        Builtin::Union | Builtin::Intersection | Builtin::Difference | Builtin::Append => {
            if ground_given(&args[1], bound) && ground_given(&args[2], bound) && !args[0].computes()
            {
                bound.extend(args[0].vars());
            }
        }
        Builtin::Length
        | Builtin::Count
        | Builtin::Sum
        | Builtin::Min
        | Builtin::Max
        | Builtin::Avg
        | Builtin::HeadQ
        | Builtin::TailQ => {
            if ground_given(&args[1], bound) && !args[0].computes() {
                bound.extend(args[0].vars());
            }
        }
        // Tests bind nothing.
        Builtin::Ne
        | Builtin::Lt
        | Builtin::Le
        | Builtin::Gt
        | Builtin::Ge
        | Builtin::Even
        | Builtin::Odd => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn check_src(src: &str) -> Result<(), Vec<LangError>> {
        let p = parse_program(src).expect("parses");
        let mut errs = Vec::new();
        for r in &p.rules.rules {
            if let Err(mut e) = check_rule(&p.schema, r) {
                errs.append(&mut e);
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    #[test]
    fn safe_rules_pass() {
        check_src(
            r#"
            associations
              parent   = (par: string, chil: string);
              ancestor = (anc: string, des: string);
            rules
              ancestor(anc: X, des: Y) <- parent(par: X, chil: Y).
        "#,
        )
        .expect("safe");
    }

    #[test]
    fn unbound_head_variable_is_reported() {
        let errs = check_src(
            r#"
            associations
              r = (a: integer, b: integer);
            rules
              r(a: X, b: Y) <- r(a: X, b: X).
        "#,
        )
        .unwrap_err();
        assert!(errs[0].message.contains('Y'));
    }

    #[test]
    fn unbound_head_oid_is_invention_not_error() {
        check_src(
            r#"
            classes
              ip = (emp: string, mgr: string);
            associations
              pair = (emp: string, mgr: string);
            rules
              ip(self: X, emp: E, mgr: M) <- pair(emp: E, mgr: M).
        "#,
        )
        .expect("invention head is safe");
    }

    #[test]
    fn unbound_oid_in_deleting_head_is_an_error() {
        let errs = check_src(
            r#"
            classes
              c = (n: integer);
            rules
              -c(self: X, n: N) <- c(n: N).
        "#,
        )
        .unwrap_err();
        assert!(errs[0].message.contains("deleting head"));
    }

    #[test]
    fn class_typed_head_variable_defaults_to_nil() {
        // Definition 8(c): unbound head variable of class type, class not
        // the head predicate → nil, hence legal.
        check_src(
            r#"
            classes
              prof   = (name: string);
              school = (sname: string, dean: prof);
            rules
              school(self: S, sname: N, dean: D) <- school(self: S, sname: N).
        "#,
        )
        .expect("nil default");
    }

    #[test]
    fn nil_exception_combines_with_oid_invention() {
        // Definition 8(c) together with invention: the head invents a new
        // `school` object (unbound `self`) AND leaves its class-typed `dean`
        // attribute unbound (→ nil). Both exceptions apply in one head.
        check_src(
            r#"
            classes
              prof   = (name: string);
              school = (sname: string, dean: prof);
            associations
              names = (n: string);
            rules
              school(self: S, sname: N, dean: D) <- names(n: N).
        "#,
        )
        .expect("invention + nil default are both legal");
    }

    #[test]
    fn nil_exception_does_not_cover_nonclass_attributes() {
        // The same head shape, but the unbound variable sits in a *string*
        // attribute: Definition 8(c) only applies to class-typed positions.
        let errs = check_src(
            r#"
            classes
              prof   = (name: string);
              school = (sname: string, dean: prof);
            rules
              school(self: S, sname: N, dean: D) <- school(self: S, dean: D).
        "#,
        )
        .unwrap_err();
        assert!(errs[0].message.contains('N'), "{errs:?}");
        assert!(errs[0].message.contains("sname"), "{errs:?}");
    }

    #[test]
    fn nil_exception_does_not_cover_collections_of_classes() {
        // A set-of-class attribute is not a class-typed position: an unbound
        // head variable there stays an error.
        let errs = check_src(
            r#"
            classes
              prof = (name: string);
              team = (tname: string, members: {prof});
            associations
              names = (n: string);
            rules
              team(self: S, tname: N, members: M) <- names(n: N).
        "#,
        )
        .unwrap_err();
        assert!(errs[0].message.contains('M'), "{errs:?}");
    }

    #[test]
    fn nil_exception_applies_in_deleting_heads() {
        // Deletion matches the head tuple against stored facts; an unbound
        // class-typed attribute is matched as nil, so the rule stays safe
        // (the oid variable, by contrast, must be bound — see
        // `unbound_oid_in_deleting_head_is_an_error`).
        check_src(
            r#"
            classes
              prof   = (name: string);
              school = (sname: string, dean: prof);
            rules
              -school(self: S, sname: N, dean: D) <- school(self: S, sname: N).
        "#,
        )
        .expect("nil default applies to deleting heads too");
    }

    #[test]
    fn nil_exception_requires_a_plain_variable() {
        // A structured term in a class-typed position is not the 8(c) shape:
        // unbound variables inside it are still errors.
        let errs = check_src(
            r#"
            classes
              prof   = (name: string);
              school = (sname: string, dean: prof);
            rules
              school(self: S, sname: N, dean: D + 1) <- school(self: S, sname: N).
        "#,
        )
        .unwrap_err();
        assert!(errs[0].message.contains('D'), "{errs:?}");
    }

    #[test]
    fn equalities_propagate_boundness() {
        check_src(
            r#"
            associations
              p = (d1: integer, d2: integer);
            rules
              p(d1: X, d2: Z) <- p(d1: X, d2: Y), Z = Y + 1.
        "#,
        )
        .expect("Z bound through arithmetic");
    }

    #[test]
    fn negated_literals_do_not_bind() {
        let errs = check_src(
            r#"
            associations
              p = (d: integer);
              q = (d: integer);
            rules
              q(d: X) <- not p(d: X).
        "#,
        )
        .unwrap_err();
        assert!(errs[0].message.contains('X'));
    }

    #[test]
    fn constructive_builtins_bind_their_result() {
        check_src(
            r#"
            associations
              power = (s: {integer});
            rules
              power(s: X) <- power(s: Y), power(s: Z), union(X, Y, Z).
        "#,
        )
        .expect("union binds X");
    }

    #[test]
    fn zero_argument_literal_on_nonempty_predicate_is_rejected() {
        let errs = check_src(
            r#"
            associations
              p = (d: integer);
              q = (d: integer);
            rules
              q(d: 1) <- p().
        "#,
        )
        .unwrap_err();
        assert!(errs[0].message.contains("without arguments"));
    }

    #[test]
    fn boundness_iterates_to_fixpoint() {
        // X needs W which needs Z which needs Y from the only literal —
        // chained equalities in reverse order.
        check_src(
            r#"
            associations
              p = (d: integer);
              q = (d: integer);
            rules
              q(d: X) <- X = W + 1, W = Z + 1, Z = Y + 1, p(d: Y).
        "#,
        )
        .expect("chained equalities reach fixpoint");
    }
}
