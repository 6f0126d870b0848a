//! The shape of a rule: the constructs that decide how it may be evaluated
//! (Section 3.1; Appendix B, Definition 8) — deletion, negation, classes,
//! data functions, computed values and oid invention — recorded by one walk
//! over the rule.
//!
//! Every route decision reads the shape instead of walking the rule again:
//!
//! * the magic rewrite's exemption ([`RuleShape::demand_blocker`], which
//!   `:plan` prints);
//! * the semi-naive and maintainable fragments of incremental maintenance
//!   (`logres_engine::maintain`);
//! * lint L003's invention test ([`RuleShape::invents`]);
//! * RDDV's test that a module rule cannot fire over the empty instance
//!   ([`RuleShape::anchored`]).
//!
//! The compiled lowering is not among them: it must match every construct
//! it lowers anyway, so it stays the one judge of the compiled fragment.

use logres_model::{PredKind, Schema};

use crate::ast::{Atom, PredArg, Rule, Term};
use crate::safety::bound_vars;

/// Why a rule keeps the magic rewrite from applying to its slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExemptReason {
    /// The head is negated: deletion is non-monotone under demand.
    HeadNegation,
    /// A class head that invents oids ([`HeadWrite::Invented`]); the
    /// invented numbering must match full evaluation exactly.
    OidInvention,
    /// A class head whose oid the body supplies ([`HeadWrite::Object`]):
    /// oid semantics even without invention.
    ClassHead,
    /// The rule reads or writes a data function, whose whole-set value
    /// depends on the complete extension.
    DataFunction,
    /// A negated body literal needs the complete extension of its predicate.
    NegatedBody,
}

impl ExemptReason {
    /// Human description for `:plan` output.
    pub fn describe(self) -> &'static str {
        match self {
            ExemptReason::HeadNegation => "deleting head",
            ExemptReason::OidInvention => "invents oids",
            ExemptReason::ClassHead => "class head",
            ExemptReason::DataFunction => "touches a data function",
            ExemptReason::NegatedBody => "negated body literal",
        }
    }
}

/// What a rule head writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadWrite {
    /// A tuple of an association.
    Tuple,
    /// A class object whose oid the body supplies: a `self` argument whose
    /// variables the body binds, or a tuple variable that a body literal
    /// over a class of the head's hierarchy binds (Section 3.1, case b).
    Object,
    /// A class object with an oid invented per body valuation
    /// (Definition 8): the head has no `self` argument the body binds and
    /// no tuple variable holding an object of its hierarchy.
    Invented,
    /// Anything else: a `member` head adding to a data function's set, or
    /// a predicate the schema declares as neither class nor association.
    Function,
}

/// The constructs of one rule that the route decisions read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleShape {
    /// The head is negated: the rule deletes.
    pub deletes: bool,
    /// What the head writes.
    pub head: HeadWrite,
    /// Every head argument is a labeled variable, constant or `nil`, or a
    /// tuple variable, so a stored tuple determines the head valuation.
    pub invertible_head: bool,
    /// Some body literal is negated.
    pub negates: bool,
    /// Some body predicate literal reads a class (or anything else that is
    /// not an association).
    pub reads_class: bool,
    /// The body reads a data function: a `member` literal, or a builtin
    /// whose terms apply a function.
    pub reads_function: bool,
    /// Some term of the head or the body computes a value
    /// ([`Term::computes`]).
    pub computes: bool,
    /// A positive predicate literal anchors the body, so the rule cannot
    /// fire over the empty instance.
    pub anchored: bool,
    /// The first construct met walking the head, then the body in order,
    /// that keeps the magic rewrite from the rule's slice.
    pub demand_blocker: Option<ExemptReason>,
}

impl RuleShape {
    /// Walk `rule` once against `schema`.
    pub fn of(schema: &Schema, rule: &Rule) -> RuleShape {
        let deletes = rule.head.negated;
        let (head, invertible_head) = match &rule.head.atom {
            Atom::Pred { pred, args, .. } => {
                let head = match schema.kind(*pred) {
                    Some(PredKind::Assoc) => HeadWrite::Tuple,
                    Some(PredKind::Class) if supplies_oid(schema, rule, args) => HeadWrite::Object,
                    Some(PredKind::Class) => HeadWrite::Invented,
                    _ => HeadWrite::Function,
                };
                let invertible = args.iter().all(|a| match a {
                    PredArg::Labeled(_, t) => {
                        matches!(t, Term::Var(_) | Term::Const(_) | Term::Nil)
                    }
                    PredArg::TupleVar(_) => true,
                    PredArg::SelfArg(_) => false,
                });
                (head, invertible)
            }
            _ => (HeadWrite::Function, false),
        };
        let demand_blocker = if deletes {
            Some(ExemptReason::HeadNegation)
        } else {
            match head {
                HeadWrite::Tuple if rule.head.atom.functions().is_empty() => None,
                HeadWrite::Object => Some(ExemptReason::ClassHead),
                HeadWrite::Invented => Some(ExemptReason::OidInvention),
                HeadWrite::Tuple | HeadWrite::Function => Some(ExemptReason::DataFunction),
            }
        };
        let mut shape = RuleShape {
            deletes,
            head,
            invertible_head,
            negates: false,
            reads_class: false,
            reads_function: false,
            computes: atom_computes(&rule.head.atom),
            anchored: false,
            demand_blocker,
        };
        for lit in &rule.body {
            // A `member` atom touches its own function.
            let touches_function = !lit.atom.functions().is_empty();
            match &lit.atom {
                Atom::Pred { pred, .. } => {
                    shape.reads_class |= schema.kind(*pred) != Some(PredKind::Assoc);
                    shape.anchored |= !lit.negated;
                }
                Atom::Member { .. } | Atom::Builtin { .. } => {
                    shape.reads_function |= touches_function;
                }
            }
            shape.negates |= lit.negated;
            shape.computes |= atom_computes(&lit.atom);
            if shape.demand_blocker.is_none() {
                if lit.negated {
                    shape.demand_blocker = Some(ExemptReason::NegatedBody);
                } else if touches_function {
                    shape.demand_blocker = Some(ExemptReason::DataFunction);
                }
            }
        }
        shape
    }

    /// Does the rule invent oids — a positive head that creates a new
    /// object per body valuation, as the engine's head instantiation does?
    pub fn invents(&self) -> bool {
        !self.deletes && self.head == HeadWrite::Invented
    }
}

/// Does the body supply the oid of a class head: a `self` argument whose
/// variables it binds, or a tuple variable that one of its positive
/// literals over a class of the head's hierarchy binds?
fn supplies_oid(schema: &Schema, rule: &Rule, args: &[PredArg]) -> bool {
    let class = rule.head.target();
    let mut bound = None;
    args.iter().any(|a| match a {
        PredArg::SelfArg(t) => {
            let bound = bound.get_or_insert_with(|| bound_vars(&rule.body));
            t.vars().iter().all(|v| bound.contains(v))
        }
        PredArg::TupleVar(v) => rule.body.iter().any(|lit| match &lit.atom {
            Atom::Pred { pred, args, .. } if !lit.negated => {
                schema.kind(*pred) == Some(PredKind::Class)
                    && schema.same_hierarchy(*pred, class)
                    && args.contains(&PredArg::TupleVar(*v))
            }
            _ => false,
        }),
        PredArg::Labeled(..) => false,
    })
}

fn atom_computes(atom: &Atom) -> bool {
    match atom {
        Atom::Pred { args, .. } => args.iter().any(|a| match a {
            PredArg::Labeled(_, t) | PredArg::SelfArg(t) => t.computes(),
            PredArg::TupleVar(_) => false,
        }),
        Atom::Member { elem, args, .. } => elem.computes() || args.iter().any(Term::computes),
        Atom::Builtin { args, .. } => args.iter().any(Term::computes),
    }
}
