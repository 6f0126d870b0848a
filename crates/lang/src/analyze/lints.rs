//! The whole-program lints (`L001`–`L007`), all computed from the shared
//! [`DepGraph`]. See the module documentation of [`crate::analyze`] for the
//! catalog; DESIGN.md §9 has one triggering example per code. The
//! data-aware lints (`L008`–`L011`) live in the abstract-interpretation
//! pass, [`super::flow`] (DESIGN.md §14).

use logres_model::{PredKind, Schema, Sym};
use rustc_hash::{FxHashMap, FxHashSet};

use super::diag::Diagnostic;
use super::graph::DepGraph;
use super::shape::RuleShape;
use super::AnalysisInput;
use crate::ast::{Atom, BodyLiteral, Head, PredArg, Rule, Term};
use crate::error::Span;
use crate::stratify::{stratify_graph, Stratification};

/// Run every lint, in code order (L007 first: whether the program is
/// stratifiable is context for reading the rest).
pub(super) fn run(input: &AnalysisInput<'_>) -> Vec<Diagnostic> {
    let graph = DepGraph::build(&input.rules.rules);
    let mut out = Vec::new();
    l007_unstratifiable(input, &graph, &mut out);
    l001_underivable(input, &mut out);
    l002_dead_derivation(input, &mut out);
    l003_potential_nontermination(input, &graph, &mut out);
    l004_derive_delete_conflict(input, &mut out);
    l005_subsumption(input, &mut out);
    l006_singleton_variables(input, &mut out);
    out
}

/// L007: not stratifiable — the engine falls back to whole-program
/// inflationary evaluation, which may not be the model the user intended.
fn l007_unstratifiable(input: &AnalysisInput<'_>, graph: &DepGraph, out: &mut Vec<Diagnostic>) {
    if let Stratification::Unstratifiable { cycle } = stratify_graph(input.rules, graph) {
        let names: Vec<String> = cycle.iter().map(|s| format!("`{s}`")).collect();
        let span = input
            .rules
            .rules
            .iter()
            .find(|r| cycle.contains(&r.head.target()))
            .map(|r| r.span)
            .unwrap_or_default();
        out.push(Diagnostic::warning(
            "L007",
            span,
            format!(
                "program is not stratifiable: a strict (negation / data-function / deletion) \
                 cycle runs through {}; it will be evaluated as a whole under inflationary \
                 semantics",
                names.join(", ")
            ),
        ));
    }
}

/// The predicates and functions that can acquire at least one tuple:
/// extensional data, plus heads of non-deleting rules whose positive body
/// predicates are all themselves derivable, to fixpoint.
fn derivable_preds(input: &AnalysisInput<'_>) -> FxHashSet<Sym> {
    let mut derivable = input.edb.clone();
    loop {
        let before = derivable.len();
        for rule in &input.rules.rules {
            if rule.head.negated {
                continue; // deletion never adds tuples
            }
            let feasible = rule
                .body
                .iter()
                .filter(|l| !l.negated)
                .all(|l| match &l.atom {
                    Atom::Pred { pred, .. } => derivable.contains(pred),
                    Atom::Member { fun, .. } => derivable.contains(fun),
                    Atom::Builtin { .. } => true,
                });
            if feasible {
                derivable.insert(rule.head.target());
            }
        }
        if derivable.len() == before {
            break;
        }
    }
    derivable
}

/// L001: a positive body predicate that is neither derived by any rule nor
/// declared by any fact — the literal can never hold, so the rule can never
/// fire.
fn l001_underivable(input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
    let derivable = derivable_preds(input);
    for rule in &input.rules.rules {
        let mut reported: FxHashSet<Sym> = FxHashSet::default();
        for lit in &rule.body {
            if lit.negated {
                continue; // a negated literal over an empty predicate is vacuously true
            }
            let (pred, span, what) = match &lit.atom {
                Atom::Pred { pred, span, .. } => (*pred, *span, "predicate"),
                Atom::Member { fun, span, .. } => (*fun, *span, "data function"),
                Atom::Builtin { .. } => continue,
            };
            if !derivable.contains(&pred) && reported.insert(pred) {
                out.push(Diagnostic::warning(
                    "L001",
                    span,
                    format!(
                        "body {what} `{pred}` is underivable: no rule derives it and no fact \
                         declares it, so this rule can never fire"
                    ),
                ));
            }
        }
    }
}

/// Predicates/functions consulted by a body: every literal's predicate
/// (positive or negated) plus every data function applied in its terms.
fn reads_of_body(body: &[BodyLiteral], read: &mut FxHashSet<Sym>) {
    for lit in body {
        match &lit.atom {
            Atom::Pred { pred, .. } => {
                read.insert(*pred);
            }
            Atom::Member { fun, .. } => {
                read.insert(*fun);
            }
            Atom::Builtin { .. } => {}
        }
        read.extend(lit.atom.functions());
    }
}

/// L002: a predicate that rules derive but nothing — no rule body, no
/// constraint, no goal — ever reads.
fn l002_dead_derivation(input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
    let mut read: FxHashSet<Sym> = FxHashSet::default();
    for rule in &input.rules.rules {
        reads_of_body(&rule.body, &mut read);
        // Functions applied in head terms are reads; a member head *defines*
        // its function, which `Atom::functions` also returns — filter it.
        for fun in rule.head.atom.functions() {
            if !matches!(&rule.head.atom, Atom::Member { fun: f, .. } if *f == fun) {
                read.insert(fun);
            }
        }
    }
    for denial in input.constraints {
        reads_of_body(&denial.body, &mut read);
    }
    if let Some(goal) = input.goal {
        reads_of_body(&goal.body, &mut read);
    }

    let mut reported: FxHashSet<Sym> = FxHashSet::default();
    for rule in &input.rules.rules {
        if rule.head.negated {
            continue; // deleting is not deriving
        }
        let target = rule.head.target();
        if !read.contains(&target) && reported.insert(target) {
            out.push(Diagnostic::warning(
                "L002",
                rule.span,
                format!(
                    "predicate `{target}` is derived here but never read by any rule, \
                     constraint, or goal"
                ),
            ));
        }
    }
}

/// L003: an oid-inventing rule whose body consults a predicate in the same
/// dependency cycle as its head — each round of the cycle can feed new
/// valuations to the inventor, so evaluation may never reach a fixpoint.
/// The static twin of the runtime evaluation governor.
fn l003_potential_nontermination(
    input: &AnalysisInput<'_>,
    graph: &DepGraph,
    out: &mut Vec<Diagnostic>,
) {
    let sccs = graph.sccs();
    let comp_of = graph.component_of(&sccs);
    let cyclic = graph.cyclic_components(&sccs, &comp_of);
    for rule in &input.rules.rules {
        if !RuleShape::of(input.schema, rule).invents() {
            continue;
        }
        let Some(t) = graph.node(rule.head.target()) else {
            continue;
        };
        if !cyclic[comp_of[t]] {
            continue;
        }
        let in_cycle = rule.body.iter().any(|lit| {
            !lit.negated
                && match &lit.atom {
                    Atom::Pred { pred, .. } => {
                        graph.node(*pred).is_some_and(|p| comp_of[p] == comp_of[t])
                    }
                    Atom::Member { fun, .. } => {
                        graph.node(*fun).is_some_and(|p| comp_of[p] == comp_of[t])
                    }
                    Atom::Builtin { .. } => false,
                }
        });
        if in_cycle {
            out.push(Diagnostic::warning(
                "L003",
                rule.span,
                format!(
                    "rule invents new `{}` objects inside a recursive cycle and may not \
                     terminate; add a base case outside the cycle or bound the run with \
                     `EvalOptions.deadline`",
                    rule.head.target()
                ),
            ));
        }
    }
}

/// L004: a predicate both positively derived and head-negated. Strata are
/// assigned per head-target component, so the deriving and the deleting rule
/// always share a stratum: under the `⊕` accumulation of Appendix B the
/// outcome depends on the order in which the two rules fire.
fn l004_derive_delete_conflict(input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
    let mut first_derivation: FxHashMap<Sym, Span> = FxHashMap::default();
    for rule in &input.rules.rules {
        if !rule.head.negated {
            first_derivation
                .entry(rule.head.target())
                .or_insert(rule.span);
        }
    }
    for rule in &input.rules.rules {
        if !rule.head.negated {
            continue;
        }
        let target = rule.head.target();
        if let Some(&producer) = first_derivation.get(&target) {
            out.push(
                Diagnostic::warning(
                    "L004",
                    rule.span,
                    format!(
                        "predicate `{target}` is deleted here but also derived by a rule in \
                         the same stratum; the result is order-sensitive under the `⊕` \
                         accumulation"
                    ),
                )
                .with_related(producer, format!("`{target}` is derived here")),
            );
        }
    }
}

/// An injective variable renaming, built incrementally during matching.
#[derive(Clone, Default)]
struct Renaming {
    fwd: FxHashMap<Sym, Sym>,
    inv: FxHashMap<Sym, Sym>,
}

impl Renaming {
    fn bind(&mut self, from: Sym, to: Sym) -> bool {
        match self.fwd.get(&from) {
            Some(&t) => t == to,
            None => {
                if self.inv.contains_key(&to) {
                    return false; // not injective
                }
                self.fwd.insert(from, to);
                self.inv.insert(to, from);
                true
            }
        }
    }
}

/// Match term `general` against term `specific` under (and extending) the
/// renaming. Purely syntactic except for variables.
fn match_term(general: &Term, specific: &Term, theta: &mut Renaming) -> bool {
    match (general, specific) {
        (Term::Var(a), Term::Var(b)) => theta.bind(*a, *b),
        (Term::Const(a), Term::Const(b)) => a == b,
        (Term::Nil, Term::Nil) => true,
        (Term::Tuple(a), Term::Tuple(b)) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|((la, ta), (lb, tb))| la == lb && match_term(ta, tb, theta))
        }
        (Term::Set(a), Term::Set(b))
        | (Term::Multiset(a), Term::Multiset(b))
        | (Term::Seq(a), Term::Seq(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(ta, tb)| match_term(ta, tb, theta))
        }
        (Term::FunApp { fun: fa, args: aa }, Term::FunApp { fun: fb, args: ab }) => {
            fa == fb
                && aa.len() == ab.len()
                && aa.iter().zip(ab).all(|(x, y)| match_term(x, y, theta))
        }
        (
            Term::BinOp {
                op: oa,
                lhs: la,
                rhs: ra,
            },
            Term::BinOp {
                op: ob,
                lhs: lb,
                rhs: rb,
            },
        ) => oa == ob && match_term(la, lb, theta) && match_term(ra, rb, theta),
        _ => false,
    }
}

/// Match a *general* positive predicate literal against a *specific* one:
/// the specific literal implies the general one when its predicate refines
/// the general one's (class refinement order — `student isa person` makes
/// `student(…)` imply `person(…)`) and every argument of the general literal
/// is matched by a same-labeled argument of the specific literal (partial
/// literals list a subset of the attributes).
fn pred_literal_covers(
    schema: &Schema,
    gen_pred: Sym,
    gen_args: &[PredArg],
    spec_pred: Sym,
    spec_args: &[PredArg],
    theta: &mut Renaming,
) -> bool {
    let refines = gen_pred == spec_pred
        || (schema.kind(gen_pred) == Some(PredKind::Class)
            && schema.kind(spec_pred) == Some(PredKind::Class)
            && schema.isa_holds(spec_pred, gen_pred));
    if !refines {
        return false;
    }
    // Tuple variables bind the whole tuple, whose type differs across
    // classes — demand identical predicates there.
    if gen_args.iter().any(|a| matches!(a, PredArg::TupleVar(_))) && gen_pred != spec_pred {
        return false;
    }
    gen_args.iter().all(|ga| match ga {
        PredArg::Labeled(l, t) => spec_args.iter().any(|sa| {
            matches!(sa, PredArg::Labeled(l2, t2) if l2 == l && {
                let mut trial = theta.clone();
                if match_term(t, t2, &mut trial) {
                    *theta = trial;
                    true
                } else {
                    false
                }
            })
        }),
        PredArg::SelfArg(t) => spec_args.iter().any(|sa| {
            matches!(sa, PredArg::SelfArg(t2) if {
                let mut trial = theta.clone();
                if match_term(t, t2, &mut trial) {
                    *theta = trial;
                    true
                } else {
                    false
                }
            })
        }),
        PredArg::TupleVar(v) => spec_args
            .iter()
            .any(|sa| matches!(sa, PredArg::TupleVar(v2) if theta.bind(*v, *v2))),
    })
}

/// Match one body literal of the general (subsuming) rule against one of the
/// specific rule.
fn match_literal(
    schema: &Schema,
    general: &BodyLiteral,
    specific: &BodyLiteral,
    theta: &mut Renaming,
) -> bool {
    if general.negated != specific.negated {
        return false;
    }
    match (&general.atom, &specific.atom) {
        (
            Atom::Pred {
                pred: pa, args: aa, ..
            },
            Atom::Pred {
                pred: pb, args: ab, ..
            },
        ) => {
            if general.negated {
                // Negation flips the implication direction: demand exact
                // structural equality modulo renaming.
                *pa == *pb
                    && aa.len() == ab.len()
                    && aa.iter().zip(ab).all(|(x, y)| match_pred_arg(x, y, theta))
            } else {
                pred_literal_covers(schema, *pa, aa, *pb, ab, theta)
            }
        }
        (
            Atom::Member {
                elem: ea,
                fun: fa,
                args: aa,
                ..
            },
            Atom::Member {
                elem: eb,
                fun: fb,
                args: ab,
                ..
            },
        ) => {
            fa == fb
                && aa.len() == ab.len()
                && match_term(ea, eb, theta)
                && aa.iter().zip(ab).all(|(x, y)| match_term(x, y, theta))
        }
        (
            Atom::Builtin {
                builtin: ba,
                args: aa,
                ..
            },
            Atom::Builtin {
                builtin: bb,
                args: ab,
                ..
            },
        ) => {
            ba == bb
                && aa.len() == ab.len()
                && aa.iter().zip(ab).all(|(x, y)| match_term(x, y, theta))
        }
        _ => false,
    }
}

fn match_pred_arg(a: &PredArg, b: &PredArg, theta: &mut Renaming) -> bool {
    match (a, b) {
        (PredArg::Labeled(la, ta), PredArg::Labeled(lb, tb)) => {
            la == lb && match_term(ta, tb, theta)
        }
        (PredArg::SelfArg(ta), PredArg::SelfArg(tb)) => match_term(ta, tb, theta),
        (PredArg::TupleVar(va), PredArg::TupleVar(vb)) => theta.bind(*va, *vb),
        _ => false,
    }
}

/// Heads must coincide exactly (same target, same shape) for one rule to
/// make the other redundant.
fn match_head(a: &Head, b: &Head, theta: &mut Renaming) -> bool {
    if a.negated != b.negated {
        return false;
    }
    match (&a.atom, &b.atom) {
        (
            Atom::Pred {
                pred: pa, args: aa, ..
            },
            Atom::Pred {
                pred: pb, args: ab, ..
            },
        ) => {
            pa == pb
                && aa.len() == ab.len()
                && aa.iter().zip(ab).all(|(x, y)| match_pred_arg(x, y, theta))
        }
        (
            Atom::Member {
                elem: ea,
                fun: fa,
                args: aa,
                ..
            },
            Atom::Member {
                elem: eb,
                fun: fb,
                args: ab,
                ..
            },
        ) => {
            fa == fb
                && aa.len() == ab.len()
                && match_term(ea, eb, theta)
                && aa.iter().zip(ab).all(|(x, y)| match_term(x, y, theta))
        }
        _ => false,
    }
}

/// Can every literal of `general`'s body (from `from` on) be matched to some
/// literal of `specific`'s body, threading one consistent renaming?
/// Backtracking over the choice of matched literal.
fn cover_body(
    schema: &Schema,
    general: &[BodyLiteral],
    from: usize,
    specific: &[BodyLiteral],
    theta: &Renaming,
) -> bool {
    if from == general.len() {
        return true;
    }
    for lit in specific {
        let mut trial = theta.clone();
        if match_literal(schema, &general[from], lit, &mut trial)
            && cover_body(schema, general, from + 1, specific, &trial)
        {
            return true;
        }
    }
    false
}

/// Does `general` subsume `specific`? Same head modulo an injective
/// renaming, and every general body literal covered by some specific body
/// literal — so whenever `specific` fires, `general` fires too (with the
/// same head tuple), making `specific` redundant.
fn subsumes(schema: &Schema, general: &Rule, specific: &Rule) -> bool {
    let mut theta = Renaming::default();
    if !match_head(&general.head, &specific.head, &mut theta) {
        return false;
    }
    cover_body(schema, &general.body, 0, &specific.body, &theta)
}

/// L005: rule subsumption and duplicates. For duplicates (mutual
/// subsumption) only the later rule is flagged.
fn l005_subsumption(input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
    let rules = &input.rules.rules;
    for (i, specific) in rules.iter().enumerate() {
        for (j, general) in rules.iter().enumerate() {
            if i == j || !subsumes(input.schema, general, specific) {
                continue;
            }
            let mutual = subsumes(input.schema, specific, general);
            if mutual && j > i {
                continue; // flag the later duplicate, not this one
            }
            let (what, note) = if mutual {
                ("duplicates", "the equivalent rule is here")
            } else {
                ("is subsumed by", "the more general rule is here")
            };
            out.push(
                Diagnostic::warning(
                    "L005",
                    specific.span,
                    format!(
                        "rule {what} another rule (same head, body superset modulo renaming \
                         and refinement) and derives nothing new"
                    ),
                )
                .with_related(general.span, note),
            );
            break; // one diagnostic per redundant rule
        }
    }
}

/// L006: a variable occurring exactly once in a rule. Given set semantics a
/// singleton is pure projection — legal, but in practice often a typo for a
/// variable spelled slightly differently elsewhere. The invention `self`
/// variable of the head is exempt (being unbound is its whole point).
fn l006_singleton_variables(input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
    for rule in &input.rules.rules {
        let mut exempt: FxHashSet<Sym> = FxHashSet::default();
        if let Atom::Pred { args, .. } = &rule.head.atom {
            for a in args {
                if let PredArg::SelfArg(Term::Var(v)) = a {
                    exempt.insert(*v);
                }
            }
        }
        // Count occurrences across the whole rule, remembering first spans
        // in first-occurrence order.
        let mut order: Vec<Sym> = Vec::new();
        let mut counts: FxHashMap<Sym, (usize, Span)> = FxHashMap::default();
        let mut visit = |vars: Vec<Sym>, span: Span| {
            for v in vars {
                let e = counts.entry(v).or_insert_with(|| {
                    order.push(v);
                    (0, span)
                });
                e.0 += 1;
            }
        };
        visit(rule.head.atom.vars(), rule.head.atom.span());
        for lit in &rule.body {
            visit(lit.atom.vars(), lit.atom.span());
        }
        for v in order {
            let (count, span) = counts[&v];
            if count == 1 && !exempt.contains(&v) {
                out.push(Diagnostic::warning(
                    "L006",
                    span,
                    format!(
                        "variable `{v}` occurs only once in this rule; if the projection is \
                         intentional, consider a more explicit name — otherwise it is \
                         probably a typo"
                    ),
                ));
            }
        }
    }
}
