//! Abstract syntax of the LOGRES rule language.
//!
//! The shapes here follow Section 3.1 of the paper: literals over class and
//! association predicates with labeled arguments, `self` (oid) variables and
//! tuple variables; `member` literals over data functions; built-in
//! predicates; negation in bodies and heads.

use logres_model::{Schema, Sym, Value};

use crate::error::Span;

/// Arithmetic operators usable inside terms (`Z = Y + 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // operator names speak for themselves
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// A term of the rule language.
#[derive(Debug, Clone, PartialEq)]
// Field names are self-documenting; variant docs carry the semantics.
#[allow(missing_docs)]
pub enum Term {
    /// An ordinary or tuple variable (`X`). Whether it is a tuple variable
    /// is positional: a bare variable in a predicate argument list.
    Var(Sym),
    /// A ground constant (integer, string, or structured value).
    Const(Value),
    /// The `nil` oid value.
    Nil,
    /// A labeled tuple term `(l1: t1, …)`.
    Tuple(Vec<(Sym, Term)>),
    /// A set term `{t1, …}`.
    Set(Vec<Term>),
    /// A multiset term `[t1, …]`.
    Multiset(Vec<Term>),
    /// A sequence term `<t1, …>`.
    Seq(Vec<Term>),
    /// A data-function application `f(t1, …)` (nullary allowed).
    FunApp { fun: Sym, args: Vec<Term> },
    /// Arithmetic `lhs op rhs`.
    BinOp {
        op: BinOp,
        lhs: Box<Term>,
        rhs: Box<Term>,
    },
}

impl Term {
    /// All variables occurring in the term.
    pub fn vars(&self) -> Vec<Sym> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<Sym>) {
        match self {
            Term::Var(v) => out.push(*v),
            Term::Const(_) | Term::Nil => {}
            Term::Tuple(fs) => {
                for (_, t) in fs {
                    t.collect_vars(out);
                }
            }
            Term::Set(ts) | Term::Multiset(ts) | Term::Seq(ts) => {
                for t in ts {
                    t.collect_vars(out);
                }
            }
            Term::FunApp { args, .. } => {
                for t in args {
                    t.collect_vars(out);
                }
            }
            Term::BinOp { lhs, rhs, .. } => {
                lhs.collect_vars(out);
                rhs.collect_vars(out);
            }
        }
    }

    /// Is the term ground (variable-free and function-free)?
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) | Term::FunApp { .. } => false,
            Term::Const(_) | Term::Nil => true,
            Term::Tuple(fs) => fs.iter().all(|(_, t)| t.is_ground()),
            Term::Set(ts) | Term::Multiset(ts) | Term::Seq(ts) => ts.iter().all(Term::is_ground),
            Term::BinOp { lhs, rhs, .. } => lhs.is_ground() && rhs.is_ground(),
        }
    }

    /// Does the term compute a value — apply a data function or arithmetic
    /// anywhere inside it? A term that does not is a pattern the matcher
    /// can bind by structural unification.
    pub fn computes(&self) -> bool {
        match self {
            Term::Var(_) | Term::Const(_) | Term::Nil => false,
            Term::Tuple(fs) => fs.iter().any(|(_, t)| t.computes()),
            Term::Set(ts) | Term::Multiset(ts) | Term::Seq(ts) => ts.iter().any(Term::computes),
            Term::FunApp { .. } | Term::BinOp { .. } => true,
        }
    }

    /// All data functions mentioned in the term.
    pub fn functions(&self) -> Vec<Sym> {
        let mut out = Vec::new();
        self.collect_functions(&mut out);
        out
    }

    fn collect_functions(&self, out: &mut Vec<Sym>) {
        match self {
            Term::FunApp { fun, args } => {
                out.push(*fun);
                for t in args {
                    t.collect_functions(out);
                }
            }
            Term::Tuple(fs) => {
                for (_, t) in fs {
                    t.collect_functions(out);
                }
            }
            Term::Set(ts) | Term::Multiset(ts) | Term::Seq(ts) => {
                for t in ts {
                    t.collect_functions(out);
                }
            }
            Term::BinOp { lhs, rhs, .. } => {
                lhs.collect_functions(out);
                rhs.collect_functions(out);
            }
            Term::Var(_) | Term::Const(_) | Term::Nil => {}
        }
    }
}

/// One argument of a class/association literal.
#[derive(Debug, Clone, PartialEq)]
// Field names are self-documenting; variant docs carry the semantics.
#[allow(missing_docs)]
pub enum PredArg {
    /// `label: term`.
    Labeled(Sym, Term),
    /// `self: term` — the oid variable of a class literal (Section 3.1,
    /// variable kind b). Values of these variables are never user-visible.
    SelfArg(Term),
    /// A bare variable: a *tuple variable* (variable kind c), binding the
    /// whole tuple including — for classes — the invisible oid.
    TupleVar(Sym),
}

/// Built-in predicates (Section 3.1). They are untyped; type consistency of
/// their arguments is checked from context. Constructive builtins put the
/// *result first*: `union(X, Y, Z)` means `X = Y ∪ Z` (the convention of the
/// paper's powerset program, Example 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// `t1 = t2` — typed unification.
    Eq,
    /// `t1 != t2`
    Ne,
    /// `<` on integers and strings.
    Lt,
    /// `≤` on integers and strings.
    Le,
    /// `>` on integers and strings.
    Gt,
    /// `≥` on integers and strings.
    Ge,
    /// `member(e, s)` over any collection value.
    Member,
    /// `union(x, y, z)`: `x = y ∪ z` (sets or multisets).
    Union,
    /// `intersection(x, y, z)`: `x = y ∩ z`.
    Intersection,
    /// `difference(x, y, z)`: `x = y − z`.
    Difference,
    /// `append(x, s, e)`: `x = s` with `e` added (set insert / multiset add
    /// / sequence append).
    Append,
    /// `length(n, s)`: `n = |s|`.
    Length,
    /// `count(n, s)` — alias of `length` (paper names `Count`).
    Count,
    /// `sum(n, s)`: `n = Σ` over an integer collection.
    Sum,
    /// `min(n, s)` over integer collections.
    Min,
    /// `max(n, s)` over integer collections.
    Max,
    /// `avg(n, s)` — integer mean (truncated).
    Avg,
    /// `even(n)`.
    Even,
    /// `odd(n)`.
    Odd,
    /// `head(e, q)` on sequences.
    HeadQ,
    /// `tail(q2, q)` on sequences.
    TailQ,
}

impl Builtin {
    /// Parse a builtin name.
    pub fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "member" => Builtin::Member,
            "union" => Builtin::Union,
            "intersection" => Builtin::Intersection,
            "difference" => Builtin::Difference,
            "append" => Builtin::Append,
            "length" => Builtin::Length,
            "count" => Builtin::Count,
            "sum" => Builtin::Sum,
            "min" => Builtin::Min,
            "max" => Builtin::Max,
            "avg" => Builtin::Avg,
            "even" => Builtin::Even,
            "odd" => Builtin::Odd,
            "head" => Builtin::HeadQ,
            "tail" => Builtin::TailQ,
            _ => return None,
        })
    }

    /// Expected number of arguments.
    pub fn arity(&self) -> usize {
        match self {
            Builtin::Even | Builtin::Odd => 1,
            Builtin::Eq
            | Builtin::Ne
            | Builtin::Lt
            | Builtin::Le
            | Builtin::Gt
            | Builtin::Ge
            | Builtin::Member
            | Builtin::Length
            | Builtin::Count
            | Builtin::Sum
            | Builtin::Min
            | Builtin::Max
            | Builtin::Avg
            | Builtin::HeadQ
            | Builtin::TailQ => 2,
            Builtin::Union | Builtin::Intersection | Builtin::Difference | Builtin::Append => 3,
        }
    }

    /// The canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            Builtin::Eq => "=",
            Builtin::Ne => "!=",
            Builtin::Lt => "<",
            Builtin::Le => "<=",
            Builtin::Gt => ">",
            Builtin::Ge => ">=",
            Builtin::Member => "member",
            Builtin::Union => "union",
            Builtin::Intersection => "intersection",
            Builtin::Difference => "difference",
            Builtin::Append => "append",
            Builtin::Length => "length",
            Builtin::Count => "count",
            Builtin::Sum => "sum",
            Builtin::Min => "min",
            Builtin::Max => "max",
            Builtin::Avg => "avg",
            Builtin::Even => "even",
            Builtin::Odd => "odd",
            Builtin::HeadQ => "head",
            Builtin::TailQ => "tail",
        }
    }
}

/// An atom: the building block of rule heads and bodies.
///
/// Equality ignores source spans: two rules mean the same thing regardless
/// of where they were written, which matters for the rule-set algebra of
/// module application (`R − R_M` must match rules across parses).
#[derive(Debug, Clone)]
// Field names are self-documenting; variant docs carry the semantics.
#[allow(missing_docs)]
pub enum Atom {
    /// A class or association literal `pred(args…)`.
    Pred {
        pred: Sym,
        args: Vec<PredArg>,
        span: Span,
    },
    /// `member(elem, f(args…))` over a *data function* `f`: in heads it
    /// populates the function, in bodies it reads it.
    Member {
        elem: Term,
        fun: Sym,
        args: Vec<Term>,
        span: Span,
    },
    /// A built-in predicate application.
    Builtin {
        builtin: Builtin,
        args: Vec<Term>,
        span: Span,
    },
}

impl PartialEq for Atom {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                Atom::Pred {
                    pred: p1, args: a1, ..
                },
                Atom::Pred {
                    pred: p2, args: a2, ..
                },
            ) => p1 == p2 && a1 == a2,
            (
                Atom::Member {
                    elem: e1,
                    fun: f1,
                    args: a1,
                    ..
                },
                Atom::Member {
                    elem: e2,
                    fun: f2,
                    args: a2,
                    ..
                },
            ) => e1 == e2 && f1 == f2 && a1 == a2,
            (
                Atom::Builtin {
                    builtin: b1,
                    args: a1,
                    ..
                },
                Atom::Builtin {
                    builtin: b2,
                    args: a2,
                    ..
                },
            ) => b1 == b2 && a1 == a2,
            _ => false,
        }
    }
}

impl Atom {
    /// Source span.
    pub fn span(&self) -> Span {
        match self {
            Atom::Pred { span, .. } | Atom::Member { span, .. } | Atom::Builtin { span, .. } => {
                *span
            }
        }
    }

    /// All variables in the atom (including tuple and self variables).
    pub fn vars(&self) -> Vec<Sym> {
        let mut out = Vec::new();
        match self {
            Atom::Pred { args, .. } => {
                for a in args {
                    match a {
                        PredArg::Labeled(_, t) | PredArg::SelfArg(t) => t.collect_vars(&mut out),
                        PredArg::TupleVar(v) => out.push(*v),
                    }
                }
            }
            Atom::Member { elem, args, .. } => {
                elem.collect_vars(&mut out);
                for t in args {
                    t.collect_vars(&mut out);
                }
            }
            Atom::Builtin { args, .. } => {
                for t in args {
                    t.collect_vars(&mut out);
                }
            }
        }
        out
    }

    /// Data functions read or written by the atom.
    pub fn functions(&self) -> Vec<Sym> {
        let mut out = Vec::new();
        match self {
            Atom::Pred { args, .. } => {
                for a in args {
                    if let PredArg::Labeled(_, t) | PredArg::SelfArg(t) = a {
                        t.collect_functions(&mut out);
                    }
                }
            }
            Atom::Member {
                fun, elem, args, ..
            } => {
                out.push(*fun);
                elem.collect_functions(&mut out);
                for t in args {
                    t.collect_functions(&mut out);
                }
            }
            Atom::Builtin { args, .. } => {
                for t in args {
                    t.collect_functions(&mut out);
                }
            }
        }
        out
    }
}

/// A body literal: an atom, possibly negated.
#[derive(Debug, Clone, PartialEq)]
pub struct BodyLiteral {
    /// The literal's atom.
    pub atom: Atom,
    /// Is the literal negated (`not …`)?
    pub negated: bool,
}

/// A rule head: a predicate or member atom, possibly negated (negation in
/// the head is deletion — Section 3.1 and 4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct Head {
    /// The head atom (predicate or `member`).
    pub atom: Atom,
    /// Deleting head (`-p(…)`)?
    pub negated: bool,
}

impl Head {
    /// The predicate (or function) the head defines or deletes.
    pub fn target(&self) -> Sym {
        match &self.atom {
            Atom::Pred { pred, .. } => *pred,
            Atom::Member { fun, .. } => *fun,
            Atom::Builtin { .. } => unreachable!("builtins cannot be rule heads"),
        }
    }
}

/// A rule `head <- body.`. Equality ignores the source span (see [`Atom`]).
#[derive(Debug, Clone)]
pub struct Rule {
    /// The head.
    pub head: Head,
    /// Body literals, in source order.
    pub body: Vec<BodyLiteral>,
    /// Source location of the rule.
    pub span: Span,
}

impl PartialEq for Rule {
    fn eq(&self, other: &Self) -> bool {
        self.head == other.head && self.body == other.body
    }
}

impl Rule {
    /// Variables of the head.
    pub fn head_vars(&self) -> Vec<Sym> {
        self.head.atom.vars()
    }

    /// Variables of the positive body literals.
    pub fn positive_body_vars(&self) -> Vec<Sym> {
        self.body
            .iter()
            .filter(|l| !l.negated)
            .flat_map(|l| l.atom.vars())
            .collect()
    }
}

/// A set of rules (the `R` component of a database state or module).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleSet {
    /// The rules, in insertion order.
    pub rules: Vec<Rule>,
}

impl RuleSet {
    /// Empty rule set.
    pub fn new() -> RuleSet {
        RuleSet::default()
    }

    /// `R ∪ R_M` (module application, RADI/RADV).
    pub fn union(&self, other: &RuleSet) -> RuleSet {
        let mut rules = self.rules.clone();
        for r in &other.rules {
            if !rules.contains(r) {
                rules.push(r.clone());
            }
        }
        RuleSet { rules }
    }

    /// `R − R_M` (module application, RDDI/RDDV).
    pub fn difference(&self, other: &RuleSet) -> RuleSet {
        RuleSet {
            rules: self
                .rules
                .iter()
                .filter(|r| !other.rules.contains(r))
                .cloned()
                .collect(),
        }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// A denial (passive integrity constraint): `<- body.` — the database is
/// inconsistent if the body is satisfiable (Section 4.2). Equality ignores
/// the source span.
#[derive(Debug, Clone)]
pub struct Denial {
    /// The body whose satisfiability signals inconsistency.
    pub body: Vec<BodyLiteral>,
    /// Source location.
    pub span: Span,
}

impl PartialEq for Denial {
    fn eq(&self, other: &Self) -> bool {
        self.body == other.body
    }
}

/// A ground fact from a `facts` section. For class predicates, loading the
/// fact invents a fresh oid (oids are system-managed and never written in
/// source text).
#[derive(Debug, Clone, PartialEq)]
pub struct GroundFact {
    /// The class or association the fact belongs to.
    pub pred: Sym,
    /// Labeled ground attribute values.
    pub args: Vec<(Sym, Value)>,
    /// Source location.
    pub span: Span,
}

/// A goal `goal lit1, …, litn ?` — evaluated as a conjunctive query whose
/// answer is the set of bindings of its variables, in first-appearance
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct Goal {
    /// The conjunctive query body.
    pub body: Vec<BodyLiteral>,
    /// Output variables (first-appearance order, deduplicated).
    pub vars: Vec<Sym>,
    /// Source location.
    pub span: Span,
}

/// A fully parsed and resolved program: schema, rules, constraints, facts,
/// and an optional goal. A module (Section 4.1) is a `Program` whose `facts`
/// section is empty; a database bootstrap script may use all sections.
#[derive(Debug, Clone)]
pub struct Program {
    /// The (combined, validated) schema the program was resolved against.
    pub schema: Schema,
    /// The rules section.
    pub rules: RuleSet,
    /// Passive denial constraints.
    pub constraints: Vec<Denial>,
    /// Ground facts from the `facts` section.
    pub facts: Vec<GroundFact>,
    /// The goal, if one was given.
    pub goal: Option<Goal>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(name: &str) -> Term {
        Term::Var(Sym::new(name))
    }

    #[test]
    fn term_vars_are_collected_in_order() {
        let t = Term::Tuple(vec![
            (Sym::new("a"), v("X")),
            (
                Sym::new("b"),
                Term::BinOp {
                    op: BinOp::Add,
                    lhs: Box::new(v("Y")),
                    rhs: Box::new(Term::Const(Value::Int(1))),
                },
            ),
        ]);
        assert_eq!(t.vars(), vec![Sym::new("X"), Sym::new("Y")]);
        assert!(!t.is_ground());
    }

    #[test]
    fn ground_terms_are_detected() {
        let t = Term::Set(vec![Term::Const(Value::Int(1)), Term::Nil]);
        assert!(t.is_ground());
        // Function applications are never ground (they read the instance).
        let f = Term::FunApp {
            fun: Sym::new("desc"),
            args: vec![],
        };
        assert!(!f.is_ground());
    }

    #[test]
    fn builtin_names_round_trip() {
        for b in [
            Builtin::Member,
            Builtin::Union,
            Builtin::Append,
            Builtin::Count,
            Builtin::Even,
        ] {
            assert_eq!(Builtin::from_name(b.name()), Some(b));
        }
        assert_eq!(Builtin::from_name("nope"), None);
    }

    #[test]
    fn atom_functions_include_member_target() {
        let a = Atom::Member {
            elem: v("X"),
            fun: Sym::new("desc"),
            args: vec![v("Y")],
            span: Span::default(),
        };
        assert_eq!(a.functions(), vec![Sym::new("desc")]);
        assert_eq!(a.vars(), vec![Sym::new("X"), Sym::new("Y")]);
    }

    #[test]
    fn ruleset_union_and_difference_are_set_like() {
        let r = Rule {
            head: Head {
                atom: Atom::Pred {
                    pred: Sym::new("p"),
                    args: vec![],
                    span: Span::default(),
                },
                negated: false,
            },
            body: vec![],
            span: Span::default(),
        };
        let a = RuleSet {
            rules: vec![r.clone()],
        };
        let b = RuleSet {
            rules: vec![r.clone()],
        };
        assert_eq!(a.union(&b).len(), 1);
        assert!(a.difference(&b).is_empty());
        assert_eq!(a.difference(&RuleSet::new()).len(), 1);
    }
}
