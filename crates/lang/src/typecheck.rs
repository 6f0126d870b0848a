//! Type checking of rules (Section 3.1).
//!
//! LOGRES has strong typing with static type checking. Variables come in
//! three kinds — ordinary, oid (`self`) and tuple variables — and
//! unification is legal only between *compatible* types: types of which one
//! is a refinement of the other. Special rules apply to oid variables across
//! generalization hierarchies: `C1(self: X) <- C2(self: X)` is legal only
//! when `C1` and `C2` belong to the same hierarchy (two objects can share an
//! oid only inside one hierarchy).

use logres_model::{PredKind, Schema, Sym, TypeDesc, Value};

use crate::ast::{Atom, BodyLiteral, Builtin, GroundFact, PredArg, Rule, Term};
use crate::error::{LangError, Span};

/// How a variable is used: as a value of a type, as the oid of a class, or
/// as the whole tuple of a predicate.
#[derive(Debug, Clone, PartialEq)]
enum VarUse {
    Val(TypeDesc),
    SelfOf(Sym),
    TupleOf(Sym),
}

struct Ctx<'s> {
    schema: &'s Schema,
    uses: Vec<(Sym, VarUse, Span)>,
    errs: Vec<LangError>,
}

/// Check one rule; returns all type diagnostics.
pub fn check_rule(schema: &Schema, rule: &Rule) -> Result<(), Vec<LangError>> {
    let mut ctx = Ctx {
        schema,
        uses: Vec::new(),
        errs: Vec::new(),
    };
    ctx.atom(&rule.head.atom, true);
    for lit in &rule.body {
        ctx.atom(&lit.atom, false);
    }
    ctx.finish()
}

/// Check a stand-alone body (denials, goals).
pub fn check_body(schema: &Schema, body: &[BodyLiteral]) -> Result<(), Vec<LangError>> {
    let mut ctx = Ctx {
        schema,
        uses: Vec::new(),
        errs: Vec::new(),
    };
    for lit in body {
        ctx.atom(&lit.atom, false);
    }
    ctx.finish()
}

/// Check one ground fact: each attribute it names must exist on the
/// predicate, appear once, and hold a constant of the attribute's type.
/// Attributes the fact leaves out are allowed.
pub fn check_fact(schema: &Schema, fact: &GroundFact) -> Result<(), Vec<LangError>> {
    let pred = fact.pred;
    let tuple_ty = pred_tuple_type(schema, pred);
    let mut errs = Vec::new();
    for (i, (label, value)) in fact.args.iter().enumerate() {
        let err = if fact.args[..i].iter().any(|(l, _)| l == label) {
            format!("attribute `{label}` appears twice in `{pred}`")
        } else {
            match tuple_ty.as_ref().map(|tt| tt.field(*label)) {
                Some(None) => format!("predicate `{pred}` has no attribute `{label}`"),
                Some(Some(ty)) if !const_matches(schema, value, ty) => {
                    format!("constant `{value}` does not match expected type `{ty}`")
                }
                _ => continue,
            }
        };
        errs.push(LangError::new(fact.span, err));
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// The visible tuple type of a predicate: effective type for classes,
/// association type for associations — domains expanded.
pub fn pred_tuple_type(schema: &Schema, pred: Sym) -> Option<TypeDesc> {
    match schema.kind(pred)? {
        PredKind::Class => Some(schema.expand(schema.effective(pred)?)),
        PredKind::Assoc => Some(schema.expand(schema.assoc_type(pred)?)),
        _ => None,
    }
}

impl Ctx<'_> {
    fn finish(mut self) -> Result<(), Vec<LangError>> {
        let mut errs = std::mem::take(&mut self.errs);
        // Pairwise compatibility of every variable's uses.
        let mut seen: Vec<Sym> = Vec::new();
        for (v, _, _) in &self.uses {
            if !seen.contains(v) {
                seen.push(*v);
            }
        }
        for v in seen {
            let uses: Vec<&(Sym, VarUse, Span)> =
                self.uses.iter().filter(|(u, _, _)| *u == v).collect();
            for i in 0..uses.len() {
                for j in i + 1..uses.len() {
                    if let Some(msg) = self.incompatible(&uses[i].1, &uses[j].1) {
                        errs.push(LangError::new(
                            uses[j].2,
                            format!("variable `{v}` used with incompatible types: {msg}"),
                        ));
                    }
                }
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    /// `None` when compatible; `Some(explanation)` otherwise.
    fn incompatible(&self, a: &VarUse, b: &VarUse) -> Option<String> {
        use VarUse::*;
        let s = self.schema;
        let tuple_ty = |p: Sym| pred_tuple_type(s, p);
        match (a, b) {
            (Val(t1), Val(t2)) => {
                if s.compatible(t1, t2) {
                    None
                } else {
                    Some(format!("`{t1}` vs `{t2}`"))
                }
            }
            (SelfOf(c1), SelfOf(c2)) => {
                if s.same_hierarchy(*c1, *c2) {
                    None
                } else {
                    Some(format!(
                        "oid of `{c1}` vs oid of `{c2}` (different generalization hierarchies)"
                    ))
                }
            }
            // A self variable flowing into a class-typed attribute (object
            // sharing) must stay within one hierarchy.
            (SelfOf(c), Val(TypeDesc::Class(c2))) | (Val(TypeDesc::Class(c2)), SelfOf(c)) => {
                if s.same_hierarchy(*c, *c2) {
                    None
                } else {
                    Some(format!(
                        "oid of `{c}` vs reference to `{c2}` (different hierarchies)"
                    ))
                }
            }
            (SelfOf(c), Val(t)) | (Val(t), SelfOf(c)) => {
                Some(format!("oid of `{c}` vs ordinary value of type `{t}`"))
            }
            (TupleOf(p1), TupleOf(p2)) => {
                match (tuple_ty(*p1), tuple_ty(*p2)) {
                    (Some(t1), Some(t2)) => {
                        if s.compatible(&t1, &t2) {
                            None
                        } else {
                            Some(format!("tuple of `{p1}` vs tuple of `{p2}`"))
                        }
                    }
                    _ => None, // unknown predicate reported elsewhere
                }
            }
            // A tuple variable of a class literal carries the invisible oid,
            // so it may appear where a reference to a hierarchy-compatible
            // class is expected (Section 3.1's equivalent formulations).
            (TupleOf(p), Val(TypeDesc::Class(c))) | (Val(TypeDesc::Class(c)), TupleOf(p)) => {
                match self.schema.kind(*p) {
                    Some(PredKind::Class) => {
                        if s.same_hierarchy(*p, *c) {
                            None
                        } else {
                            Some(format!(
                                "tuple of class `{p}` vs reference to `{c}` (different hierarchies)"
                            ))
                        }
                    }
                    _ => Some(format!(
                        "tuple of association `{p}` used as a reference to class `{c}`"
                    )),
                }
            }
            (TupleOf(p), Val(t)) | (Val(t), TupleOf(p)) => match tuple_ty(*p) {
                Some(pt) => {
                    if s.compatible(&pt, t) {
                        None
                    } else {
                        Some(format!("tuple of `{p}` vs value of type `{t}`"))
                    }
                }
                None => None,
            },
            (TupleOf(_), SelfOf(_)) | (SelfOf(_), TupleOf(_)) => {
                Some("tuple variable unified with an oid variable".to_owned())
            }
        }
    }

    fn atom(&mut self, atom: &Atom, is_head: bool) {
        match atom {
            Atom::Pred { pred, args, span } => {
                let kind = self.schema.kind(*pred);
                let tuple_ty = pred_tuple_type(self.schema, *pred);
                for (i, arg) in args.iter().enumerate() {
                    match arg {
                        PredArg::SelfArg(t) => {
                            if kind != Some(PredKind::Class) {
                                self.errs.push(LangError::new(
                                    *span,
                                    format!("`self` argument on non-class predicate `{pred}`"),
                                ));
                            }
                            match t {
                                Term::Var(v) => self.uses.push((*v, VarUse::SelfOf(*pred), *span)),
                                Term::Nil => {}
                                _ => self.errs.push(LangError::new(
                                    *span,
                                    "`self` argument must be a variable or nil".to_owned(),
                                )),
                            }
                        }
                        PredArg::TupleVar(v) => {
                            self.uses.push((*v, VarUse::TupleOf(*pred), *span));
                        }
                        PredArg::Labeled(label, t) => {
                            if args[..i]
                                .iter()
                                .any(|a| matches!(a, PredArg::Labeled(l, _) if l == label))
                            {
                                self.errs.push(LangError::new(
                                    *span,
                                    format!("attribute `{label}` appears twice in `{pred}`"),
                                ));
                            }
                            let attr_ty =
                                tuple_ty.as_ref().and_then(|tt| tt.field(*label).cloned());
                            match attr_ty {
                                Some(ty) => self.constrain(t, &ty, *span),
                                None => {
                                    if tuple_ty.is_some() {
                                        self.errs.push(LangError::new(
                                            *span,
                                            format!(
                                                "predicate `{pred}` has no attribute `{label}`"
                                            ),
                                        ));
                                    }
                                }
                            }
                        }
                    }
                }
                if is_head && kind == Some(PredKind::Function) {
                    self.errs.push(LangError::new(
                        *span,
                        format!(
                            "data function `{pred}` can only be defined through member(…) heads"
                        ),
                    ));
                }
            }
            Atom::Member {
                elem,
                fun,
                args,
                span,
            } => match self.schema.function(*fun).cloned() {
                Some(sig) => {
                    if args.len() != sig.params.len() {
                        self.errs.push(LangError::new(
                            *span,
                            format!(
                                "function `{fun}` takes {} arguments, got {}",
                                sig.params.len(),
                                args.len()
                            ),
                        ));
                    }
                    let elem_ty = self.schema.expand(&sig.result_elem);
                    self.constrain(elem, &elem_ty, *span);
                    for (t, p) in args.iter().zip(&sig.params) {
                        let pt = self.schema.expand(p);
                        self.constrain(t, &pt, *span);
                    }
                }
                None => self.errs.push(LangError::new(
                    *span,
                    format!("`{fun}` is not a declared data function"),
                )),
            },
            Atom::Builtin {
                builtin,
                args,
                span,
            } => self.builtin(*builtin, args, *span),
        }
    }

    /// Builtins are untyped; we record what we can (arithmetic operands are
    /// integers, even/odd arguments are integers) and check argument-shape
    /// consistency where the builtin demands it.
    fn builtin(&mut self, b: Builtin, args: &[Term], span: Span) {
        match b {
            Builtin::Even | Builtin::Odd => {
                self.constrain(&args[0], &TypeDesc::Int, span);
            }
            Builtin::Sum | Builtin::Min | Builtin::Max | Builtin::Avg => {
                self.constrain(&args[0], &TypeDesc::Int, span);
                self.visit_opaque(&args[1], span);
            }
            Builtin::Length | Builtin::Count => {
                self.constrain(&args[0], &TypeDesc::Int, span);
                self.visit_opaque(&args[1], span);
            }
            Builtin::Eq | Builtin::Ne => {
                // Both sides must unify. When the type of one side is known
                // from its shape (function application → set, arithmetic →
                // integer, constant → its value type), the other side is
                // constrained with it; otherwise uses elsewhere enforce
                // compatibility.
                let known: Vec<Option<TypeDesc>> =
                    args.iter().map(|t| self.known_type(t)).collect();
                for (i, t) in args.iter().enumerate() {
                    match known[1 - i].clone() {
                        Some(ty) => self.constrain(t, &ty, span),
                        None => {
                            if let Term::BinOp { .. } = t {
                                self.constrain(t, &TypeDesc::Int, span);
                            } else {
                                self.visit_opaque(t, span);
                            }
                        }
                    }
                }
            }
            Builtin::Lt | Builtin::Le | Builtin::Gt | Builtin::Ge => {
                for t in args {
                    if let Term::BinOp { .. } = t {
                        self.constrain(t, &TypeDesc::Int, span);
                    } else {
                        self.visit_opaque(t, span);
                    }
                }
            }
            Builtin::Member
            | Builtin::Union
            | Builtin::Intersection
            | Builtin::Difference
            | Builtin::Append
            | Builtin::HeadQ
            | Builtin::TailQ => {
                for t in args {
                    self.visit_opaque(t, span);
                }
            }
        }
    }

    /// The type of a term when determinable from its shape alone.
    fn known_type(&self, t: &Term) -> Option<TypeDesc> {
        match t {
            Term::FunApp { fun, .. } => {
                let sig = self.schema.function(*fun)?;
                Some(TypeDesc::set(self.schema.expand(&sig.result_elem.clone())))
            }
            Term::BinOp { .. } => Some(TypeDesc::Int),
            Term::Const(Value::Int(_)) => Some(TypeDesc::Int),
            Term::Const(Value::Str(_)) => Some(TypeDesc::Str),
            _ => None,
        }
    }

    /// Visit a term in an untyped position: record nothing about its type
    /// but still type arguments of nested function applications.
    fn visit_opaque(&mut self, t: &Term, span: Span) {
        match t {
            Term::FunApp { fun, args } => {
                if let Some(sig) = self.schema.function(*fun).cloned() {
                    if args.len() != sig.params.len() {
                        self.errs.push(LangError::new(
                            span,
                            format!(
                                "function `{fun}` takes {} arguments, got {}",
                                sig.params.len(),
                                args.len()
                            ),
                        ));
                    }
                    for (a, p) in args.iter().zip(&sig.params) {
                        let pt = self.schema.expand(p);
                        self.constrain(a, &pt, span);
                    }
                } else {
                    self.errs.push(LangError::new(
                        span,
                        format!("`{fun}` is not a declared data function"),
                    ));
                }
            }
            Term::Tuple(fs) => {
                for (_, t) in fs {
                    self.visit_opaque(t, span);
                }
            }
            Term::Set(ts) | Term::Multiset(ts) | Term::Seq(ts) => {
                for t in ts {
                    self.visit_opaque(t, span);
                }
            }
            Term::BinOp { lhs, rhs, .. } => {
                self.constrain(lhs, &TypeDesc::Int, span);
                self.constrain(rhs, &TypeDesc::Int, span);
            }
            Term::Var(_) | Term::Const(_) | Term::Nil => {}
        }
    }

    /// Constrain a term against an expected (expanded) type.
    fn constrain(&mut self, t: &Term, expected: &TypeDesc, span: Span) {
        match t {
            Term::Var(v) => self.uses.push((*v, VarUse::Val(expected.clone()), span)),
            Term::Const(val) => {
                if !const_matches(self.schema, val, expected) {
                    self.errs.push(LangError::new(
                        span,
                        format!("constant `{val}` does not match expected type `{expected}`"),
                    ));
                }
            }
            Term::Nil => {
                if !matches!(expected, TypeDesc::Class(_)) {
                    self.errs.push(LangError::new(
                        span,
                        format!("`nil` is only legal where an object reference is expected, not `{expected}`"),
                    ));
                }
            }
            Term::Tuple(fs) => match expected {
                TypeDesc::Tuple(efs) => {
                    for (label, inner) in fs {
                        match efs.iter().find(|f| f.label == *label) {
                            Some(f) => self.constrain(inner, &f.ty, span),
                            None => self.errs.push(LangError::new(
                                span,
                                format!("tuple term has unexpected label `{label}` for type `{expected}`"),
                            )),
                        }
                    }
                }
                _ => self.errs.push(LangError::new(
                    span,
                    format!("tuple term where `{expected}` was expected"),
                )),
            },
            Term::Set(ts) => match expected {
                TypeDesc::Set(e) => {
                    for t in ts {
                        self.constrain(t, e, span);
                    }
                }
                _ => self.errs.push(LangError::new(
                    span,
                    format!("set term where `{expected}` was expected"),
                )),
            },
            Term::Multiset(ts) => match expected {
                TypeDesc::Multiset(e) => {
                    for t in ts {
                        self.constrain(t, e, span);
                    }
                }
                _ => self.errs.push(LangError::new(
                    span,
                    format!("multiset term where `{expected}` was expected"),
                )),
            },
            Term::Seq(ts) => match expected {
                TypeDesc::Seq(e) => {
                    for t in ts {
                        self.constrain(t, e, span);
                    }
                }
                _ => self.errs.push(LangError::new(
                    span,
                    format!("sequence term where `{expected}` was expected"),
                )),
            },
            Term::FunApp { fun, args } => match self.schema.function(*fun).cloned() {
                Some(sig) => {
                    let result = TypeDesc::set(self.schema.expand(&sig.result_elem));
                    if !self.schema.compatible(&result, expected) {
                        self.errs.push(LangError::new(
                            span,
                            format!(
                                "function `{fun}` yields `{result}` but `{expected}` was expected"
                            ),
                        ));
                    }
                    for (a, p) in args.iter().zip(&sig.params) {
                        let pt = self.schema.expand(p);
                        self.constrain(a, &pt, span);
                    }
                }
                None => self.errs.push(LangError::new(
                    span,
                    format!("`{fun}` is not a declared data function"),
                )),
            },
            Term::BinOp { lhs, rhs, .. } => {
                if !matches!(expected, TypeDesc::Int) {
                    self.errs.push(LangError::new(
                        span,
                        format!("arithmetic term where `{expected}` was expected"),
                    ));
                }
                self.constrain(lhs, &TypeDesc::Int, span);
                self.constrain(rhs, &TypeDesc::Int, span);
            }
        }
    }
}

/// Does a ground constant structurally match an (expanded) type? Oid
/// membership cannot be checked statically, and constants can never denote
/// oids, so `Class(_)` positions only accept `nil` (checked elsewhere).
fn const_matches(schema: &Schema, v: &Value, ty: &TypeDesc) -> bool {
    match (ty, v) {
        (TypeDesc::Int, Value::Int(_)) => true,
        (TypeDesc::Str, Value::Str(_)) => true,
        (TypeDesc::Domain(d), _) => match schema.domain_type(*d) {
            Some(t) => {
                let t = schema.expand(&t.clone());
                const_matches(schema, v, &t)
            }
            None => false,
        },
        (TypeDesc::Class(_), Value::Nil) => true,
        (TypeDesc::Tuple(fs), Value::Tuple(_)) => fs.iter().all(|f| {
            v.field(f.label)
                .is_some_and(|fv| const_matches(schema, fv, &f.ty))
        }),
        (TypeDesc::Set(e), Value::Set(xs)) => xs.iter().all(|x| const_matches(schema, x, e)),
        (TypeDesc::Multiset(e), Value::Multiset(m)) => {
            m.keys().all(|x| const_matches(schema, x, e))
        }
        (TypeDesc::Seq(e), Value::Seq(xs)) => xs.iter().all(|x| const_matches(schema, x, e)),
        _ => false,
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
    fn well_typed_rules_pass() {
        check_src(
            r#"
            classes
              person = (name: string, age: integer);
            associations
              parent = (par: person, chil: person);
            rules
              parent(par: X, chil: Y) <- parent(par: Y, chil: X).
              person(self: X, name: N) <- person(self: X, name: N), N = "ceri".
        "#,
        )
        .expect("well-typed");
    }

    #[test]
    fn string_int_clash_is_reported() {
        let errs = check_src(
            r#"
            classes
              person = (name: string, age: integer);
            rules
              person(name: X, age: X) <- person(name: X).
        "#,
        )
        .unwrap_err();
        assert!(errs[0].message.contains("incompatible"));
    }

    #[test]
    fn unknown_attribute_is_reported() {
        let errs = check_src(
            r#"
            classes
              person = (name: string);
            rules
              person(name: X) <- person(shoe_size: X).
        "#,
        )
        .unwrap_err();
        assert!(errs[0].message.contains("shoe_size"));
    }

    #[test]
    fn oid_unification_across_hierarchies_is_illegal() {
        // C1(self: X) <- C2(self: X) with unrelated classes (Section 3.1).
        let errs = check_src(
            r#"
            classes
              person = (name: string);
              rock   = (name: string);
            rules
              person(self: X, name: N) <- rock(self: X, name: N).
        "#,
        )
        .unwrap_err();
        assert!(errs[0].message.contains("hierarchies"));
    }

    #[test]
    fn oid_unification_within_a_hierarchy_is_legal() {
        check_src(
            r#"
            classes
              person  = (name: string);
              student = (person: person, school: string);
              student isa person;
            rules
              person(self: X, name: N) <- student(self: X, name: N).
        "#,
        )
        .expect("same hierarchy");
    }

    #[test]
    fn self_on_association_is_reported() {
        let errs = check_src(
            r#"
            associations
              r = (d: integer);
            rules
              r(d: X) <- r(self: Y, d: X).
        "#,
        )
        .unwrap_err();
        assert!(errs[0].message.contains("non-class"));
    }

    #[test]
    fn inherited_attributes_are_visible_on_subclasses() {
        // Example 3.1: `professor(X1, name: X)` uses the inherited `name`.
        check_src(
            r#"
            classes
              person    = (name: string);
              professor = (person: person, course: string);
              professor isa person;
            rules
              professor(self: X, name: N) <- professor(self: X, name: N).
        "#,
        )
        .expect("inherited attribute is typed");
    }

    #[test]
    fn nil_is_only_legal_in_reference_positions() {
        let errs = check_src(
            r#"
            classes
              person = (name: string);
            rules
              person(name: nil) <- person(name: "x").
        "#,
        )
        .unwrap_err();
        assert!(errs[0].message.contains("nil"));
    }

    #[test]
    fn constants_are_checked_against_domains() {
        let errs = check_src(
            r#"
            domains
              score = (home: integer, guest: integer);
            associations
              game = (score: score);
            rules
              game(score: 7) <- game(score: (home: 1, guest: 2)).
        "#,
        )
        .unwrap_err();
        assert!(errs[0].message.contains("does not match"));
    }

    #[test]
    fn function_result_type_is_enforced() {
        let errs = check_src(
            r#"
            classes
              person = (name: string, age: integer);
            functions
              juniors: -> {person};
            rules
              person(age: X) <- person(age: Y), X = juniors().
        "#,
        )
        .unwrap_err();
        assert!(!errs.is_empty());
    }

    #[test]
    fn tuple_variable_against_class_reference_checks_hierarchy() {
        // advises(professor: X1) with X1 a tuple variable over professor is
        // legal (Example 3.1's "equivalent cases").
        check_src(
            r#"
            classes
              person    = (name: string);
              professor = (person: person, course: string);
              professor isa person;
            associations
              advises = (prof: professor, who: string);
            rules
              advises(prof: X1, who: N) <- professor(X1, name: N).
        "#,
        )
        .expect("tuple variable carries the oid");
    }
}
