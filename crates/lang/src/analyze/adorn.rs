//! Goal-directed planning: adornments and the magic-set (demand) rewrite.
//!
//! A LOGRES goal with constants (`goal ancestor(chil: "d", par: X)?`) does
//! not need the whole inflationary fixpoint — only the part of the model the
//! goal can observe. This module computes, statically:
//!
//! 1. an **adornment** for every derived association relevant to the goal —
//!    which labels arrive *bound* (to a constant or an already-bound
//!    variable) at every place the predicate is consulted. One adornment per
//!    predicate: demand sites are merged by **intersection**, so the
//!    adornment under-approximates the bindings every site can rely on;
//! 2. a **demand predicate** `@magic_p` per adorned predicate, holding the
//!    tuples of bound-label values the evaluation has been asked for (the
//!    name starts with `@` so it can never collide with a user predicate —
//!    the lexer rejects `@` in identifiers);
//! 3. the **rewritten program**: demand seeds from the goal's constants
//!    (empty-body rules), demand-propagation rules following a left-to-right
//!    sideways-information-passing strategy over each rule body's *safe
//!    prefix*, and the original rules guarded by their demand predicate.
//!    Rules irrelevant to the goal are dropped.
//!
//! The rewrite is only attempted inside the fragment where it is provably
//! answer-preserving under the paper's deterministic semantics: positive
//! association rules. Rules that delete (negate) their head, write class
//! objects, touch data functions, or negate body literals are
//! conservatively *exempted* — each rule's [`RuleShape::demand_blocker`]
//! names the first such construct. Any exempt rule in the goal's slice
//! makes the whole goal fall back to full evaluation, and the exemption is
//! reported so `:plan` can explain the decision. Within the fragment the
//! rewritten program is monotone, so its fixpoint restricted to the
//! original predicates is exactly the demanded part of the full model, and
//! the goal's answer over the partial instance is bit-identical to the
//! answer over the full one.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use logres_model::{Schema, Sym, TypeDesc};
use rustc_hash::FxHashSet;

use crate::ast::{Atom, BodyLiteral, Builtin, Goal, Head, PredArg, Rule, RuleSet, Term};
use crate::error::Span;

use super::graph::DepGraph;
use super::shape::{ExemptReason, RuleShape};

/// One exempt rule in the goal's slice.
#[derive(Debug, Clone)]
pub struct Exemption {
    /// Index into the rule set.
    pub rule: usize,
    /// Why it is exempt.
    pub reason: ExemptReason,
}

/// The adornment of one derived predicate: for each label, in declared
/// order, whether every demand site binds it.
#[derive(Debug, Clone)]
pub struct Adornment {
    /// `(label, bound?)` in the association's declared field order.
    pub labels: Vec<(Sym, bool)>,
}

/// The magic-transformed program.
#[derive(Debug, Clone)]
pub struct MagicRewrite {
    /// The original schema extended with the `@magic_*` associations.
    pub schema: Schema,
    /// Demand seeds + demand propagation + guarded originals, in emission
    /// order (deterministic).
    pub rules: RuleSet,
    /// `(original, magic)` predicate pairs, name-sorted.
    pub magic_preds: Vec<(Sym, Sym)>,
    /// Number of demand (seed + propagation) rules.
    pub demand_rules: usize,
    /// Number of original rules that gained a demand guard.
    pub guarded_rules: usize,
    /// Number of relevant rules kept unguarded (all-free heads).
    pub kept_rules: usize,
    /// Number of rules dropped as irrelevant to the goal.
    pub dropped_rules: usize,
}

/// The result of planning a goal: either a rewrite, or a documented
/// fallback to full evaluation.
#[derive(Debug, Clone)]
pub struct GoalPlan {
    /// Adornments of the derived relevant predicates, name-sorted. Empty
    /// when planning fell back before the adornment pass.
    pub adornments: Vec<(Sym, Adornment)>,
    /// Exempt rules in the goal's slice (each one forces the fallback).
    pub exemptions: Vec<Exemption>,
    /// `Some(reason)` when the goal must be answered by full evaluation.
    pub fallback: Option<String>,
    /// The rewritten program; present exactly when `fallback` is `None`.
    pub rewrite: Option<MagicRewrite>,
}

impl GoalPlan {
    fn fall_back(reason: impl Into<String>, exemptions: Vec<Exemption>) -> GoalPlan {
        GoalPlan {
            adornments: Vec::new(),
            exemptions,
            fallback: Some(reason.into()),
            rewrite: None,
        }
    }

    /// Render the plan for `:plan` / `logres check --plan`.
    pub fn render(&self, rules: &RuleSet) -> String {
        let mut out = String::from("goal-directed plan\n");
        if !self.adornments.is_empty() {
            out.push_str("  adornments:\n");
            for (p, ad) in &self.adornments {
                let cols: Vec<String> = ad
                    .labels
                    .iter()
                    .map(|(l, b)| format!("{l}: {}", if *b { "bound" } else { "free" }))
                    .collect();
                let _ = writeln!(out, "    {p}[{}]", cols.join(", "));
            }
        }
        match (&self.fallback, &self.rewrite) {
            (Some(reason), _) => {
                out.push_str("  strategy: full fixpoint\n");
                let _ = writeln!(out, "  reason: {reason}");
                if !self.exemptions.is_empty() {
                    out.push_str("  exempt rules:\n");
                    for e in &self.exemptions {
                        let _ = writeln!(
                            out,
                            "    #{} [{}] {}",
                            e.rule,
                            e.reason.describe(),
                            rules.rules[e.rule]
                        );
                    }
                }
            }
            (None, Some(rw)) => {
                out.push_str("  magic predicates:\n");
                for (p, mp) in &rw.magic_preds {
                    let _ = writeln!(out, "    {mp} (demand for {p})");
                }
                let _ = writeln!(
                    out,
                    "  rewritten rules ({} demand, {} guarded, {} kept, {} dropped):",
                    rw.demand_rules, rw.guarded_rules, rw.kept_rules, rw.dropped_rules
                );
                for r in &rw.rules.rules {
                    let _ = writeln!(out, "    {r}");
                }
                out.push_str("  strategy: demand-driven (magic-set) evaluation\n");
            }
            (None, None) => unreachable!("a plan is a rewrite or a fallback"),
        }
        out
    }
}

/// Plan a goal against a rule set: compute adornments, exemptions, and —
/// when the goal's slice lies inside the answer-preserving fragment and at
/// least one binding exists — the magic rewrite. Deterministic: same input,
/// same plan.
pub fn plan_goal(schema: &Schema, rules: &RuleSet, goal: &Goal) -> GoalPlan {
    // Goal shape: a negated literal reads the complement of an extension,
    // which differs between the partial and the full instance.
    for lit in &goal.body {
        if lit.negated {
            return GoalPlan::fall_back(
                "the goal negates a literal; the complement needs the full instance",
                Vec::new(),
            );
        }
        if let Atom::Pred { pred, .. } = &lit.atom {
            if schema.kind(*pred).is_none() {
                return GoalPlan::fall_back(
                    format!("the goal queries an undeclared predicate `{pred}`"),
                    Vec::new(),
                );
            }
        }
    }

    // Relevance: everything the goal's predicates (and read functions)
    // transitively depend on, walking the dependency edges backwards.
    let graph = DepGraph::build(&rules.rules);
    let mut relevant: BTreeSet<Sym> = BTreeSet::new();
    for lit in &goal.body {
        match &lit.atom {
            Atom::Pred { pred, .. } => {
                relevant.insert(*pred);
            }
            Atom::Member { fun, .. } => {
                relevant.insert(*fun);
            }
            Atom::Builtin { .. } => {}
        }
        for f in lit.atom.functions() {
            relevant.insert(f);
        }
    }
    let edges = graph.sorted_edges();
    let mut frontier: Vec<Sym> = relevant.iter().copied().collect();
    while let Some(p) = frontier.pop() {
        let Some(node) = graph.node(p) else { continue };
        for &(from, to, _) in &edges {
            if to == node {
                let s = graph.sym(from);
                if relevant.insert(s) {
                    frontier.push(s);
                }
            }
        }
    }

    // The goal's slice: every rule deriving (or deleting) a relevant
    // predicate. Any exempt rule in the slice forces the fallback — the
    // partial instance would no longer agree with the full one.
    let slice: Vec<usize> = rules
        .rules
        .iter()
        .enumerate()
        .filter(|(_, r)| relevant.contains(&r.head.target()))
        .map(|(i, _)| i)
        .collect();
    let exemptions: Vec<Exemption> = slice
        .iter()
        .filter_map(|&i| {
            RuleShape::of(schema, &rules.rules[i])
                .demand_blocker
                .map(|reason| Exemption { rule: i, reason })
        })
        .collect();
    if !exemptions.is_empty() {
        return GoalPlan::fall_back(
            "the goal depends on rules outside the demand fragment",
            exemptions,
        );
    }

    let derived: BTreeSet<Sym> = slice
        .iter()
        .map(|&i| rules.rules[i].head.target())
        .collect();
    if derived.is_empty() {
        return GoalPlan::fall_back(
            "no derived predicate is relevant to the goal; it reads stored extensions directly",
            Vec::new(),
        );
    }

    // With the slice clean, every derived relevant predicate is a declared
    // association.
    let mut all_labels: BTreeMap<Sym, Vec<Sym>> = BTreeMap::new();
    for &p in &derived {
        match schema.assoc_type(p) {
            Some(TypeDesc::Tuple(fields)) => {
                all_labels.insert(p, fields.iter().map(|f| f.label).collect());
            }
            _ => {
                return GoalPlan::fall_back(
                    format!("`{p}` has no association type; cannot adorn it"),
                    Vec::new(),
                )
            }
        }
    }

    // Adornment fixpoint: start from all-bound and intersect with every
    // demand site (and with the labels each head can actually guard on).
    // Monotone decreasing on finite sets, so it terminates.
    let goal_sites = sites_of(&derived, &FxHashSet::default(), &goal.body);
    let mut bound: BTreeMap<Sym, BTreeSet<Sym>> = all_labels
        .iter()
        .map(|(p, ls)| (*p, ls.iter().copied().collect()))
        .collect();
    loop {
        let prev = bound.clone();
        for &i in &slice {
            let rule = &rules.rules[i];
            let hp = head_pattern_labels(rule);
            bound
                .get_mut(&rule.head.target())
                .expect("slice heads are derived")
                .retain(|l| hp.contains(l));
        }
        for site in &goal_sites {
            bound
                .get_mut(&site.pred)
                .expect("sites are derived")
                .retain(|l| site.bound.contains(l));
        }
        for &i in &slice {
            let rule = &rules.rules[i];
            let hb = head_bound_vars(rule, &bound[&rule.head.target()]);
            for site in sites_of(&derived, &hb, &rule.body) {
                bound
                    .get_mut(&site.pred)
                    .expect("sites are derived")
                    .retain(|l| site.bound.contains(l));
            }
        }
        if bound == prev {
            break;
        }
    }

    let adornments: Vec<(Sym, Adornment)> = all_labels
        .iter()
        .map(|(p, ls)| {
            let b = &bound[p];
            (
                *p,
                Adornment {
                    labels: ls.iter().map(|l| (*l, b.contains(l))).collect(),
                },
            )
        })
        .collect();

    let magic: BTreeMap<Sym, Sym> = bound
        .iter()
        .filter(|(_, b)| !b.is_empty())
        .map(|(p, _)| (*p, Sym::new(&format!("@magic_{}", p.as_str()))))
        .collect();
    if magic.is_empty() {
        return GoalPlan {
            adornments,
            exemptions: Vec::new(),
            fallback: Some(
                "the goal binds no attribute of a derived predicate; demand cannot restrict \
                 evaluation"
                    .to_owned(),
            ),
            rewrite: None,
        };
    }

    // Extend the schema with one demand association per adorned predicate,
    // typed as the tuple of its bound labels (original order and types).
    let mut mschema = schema.clone();
    for (p, mp) in &magic {
        let Some(TypeDesc::Tuple(fields)) = schema.assoc_type(*p) else {
            unreachable!("adorned predicates have association types");
        };
        let kept: Vec<_> = fields
            .iter()
            .filter(|f| bound[p].contains(&f.label))
            .cloned()
            .collect();
        if mschema.add_assoc(*mp, TypeDesc::Tuple(kept)).is_err() {
            return GoalPlan {
                adornments,
                exemptions: Vec::new(),
                fallback: Some(format!(
                    "demand predicate `{mp}` collides with a schema name"
                )),
                rewrite: None,
            };
        }
    }

    // Emit: goal demand first (seeds), then per relevant rule its demand
    // propagation followed by the guarded rule itself.
    let mut out: Vec<Rule> = Vec::new();
    let mut demand_rules = 0usize;
    let mut guarded_rules = 0usize;
    let mut kept_rules = 0usize;
    let mut push_demand = |out: &mut Vec<Rule>, r: Option<Rule>| {
        if let Some(r) = r {
            if !out.contains(&r) {
                out.push(r);
                demand_rules += 1;
            }
        }
    };
    for site in &goal_sites {
        push_demand(&mut out, demand_rule(&magic, &bound, None, site));
    }
    for &i in &slice {
        let rule = &rules.rules[i];
        let p = rule.head.target();
        let guard = magic.get(&p).map(|mp| BodyLiteral {
            atom: magic_atom(
                *mp,
                &bound[&p],
                pred_args(&rule.head.atom),
                rule.head.atom.span(),
            ),
            negated: false,
        });
        let hb = head_bound_vars(rule, &bound[&p]);
        for site in sites_of(&derived, &hb, &rule.body) {
            push_demand(&mut out, demand_rule(&magic, &bound, guard.as_ref(), &site));
        }
        let mut body = rule.body.clone();
        match guard {
            Some(g) => {
                body.insert(0, g);
                guarded_rules += 1;
            }
            None => kept_rules += 1,
        }
        out.push(Rule {
            head: rule.head.clone(),
            body,
            span: rule.span,
        });
    }

    GoalPlan {
        adornments,
        exemptions: Vec::new(),
        fallback: None,
        rewrite: Some(MagicRewrite {
            schema: mschema,
            rules: RuleSet { rules: out },
            magic_preds: magic.into_iter().collect(),
            demand_rules,
            guarded_rules,
            kept_rules,
            dropped_rules: rules.len() - slice.len(),
        }),
    }
}

/// One consultation of a derived relevant predicate, with the labels the
/// left-to-right safe prefix binds and the prefix itself.
struct Site {
    pred: Sym,
    args: Vec<PredArg>,
    bound: BTreeSet<Sym>,
    prefix: Vec<BodyLiteral>,
    span: Span,
}

/// Walk a body left to right, collecting the demand sites over `derived`
/// predicates. The *safe prefix* of a site is every earlier predicate or
/// member literal plus every earlier builtin that is evaluable from the
/// bindings established so far; non-evaluable builtins are skipped (demand
/// then over-approximates, which is sound).
fn sites_of(
    derived: &BTreeSet<Sym>,
    init_bound: &FxHashSet<Sym>,
    body: &[BodyLiteral],
) -> Vec<Site> {
    let mut boundvars = init_bound.clone();
    let mut prefix: Vec<BodyLiteral> = Vec::new();
    let mut sites = Vec::new();
    for lit in body {
        if lit.negated {
            // Rules with negated bodies are exempt and negated goal
            // literals fall back before planning reaches here; skipping is
            // a safe over-approximation either way.
            continue;
        }
        match &lit.atom {
            Atom::Pred { pred, args, span } if derived.contains(pred) => {
                let mut labels = BTreeSet::new();
                let mut per_label = true;
                for a in args {
                    match a {
                        PredArg::Labeled(l, t) => {
                            if !t.computes() && t.vars().iter().all(|v| boundvars.contains(v)) {
                                labels.insert(*l);
                            }
                        }
                        // A tuple or self argument hides the labels; the
                        // site demands nothing.
                        PredArg::SelfArg(_) | PredArg::TupleVar(_) => per_label = false,
                    }
                }
                sites.push(Site {
                    pred: *pred,
                    args: args.clone(),
                    bound: if per_label { labels } else { BTreeSet::new() },
                    prefix: prefix.clone(),
                    span: *span,
                });
                boundvars.extend(lit.atom.vars());
                prefix.push(lit.clone());
            }
            Atom::Pred { .. } | Atom::Member { .. } => {
                boundvars.extend(lit.atom.vars());
                prefix.push(lit.clone());
            }
            Atom::Builtin { builtin, args, .. } => {
                if let Some(new) = builtin_binds(*builtin, args, &boundvars) {
                    boundvars.extend(new);
                    prefix.push(lit.clone());
                }
            }
        }
    }
    sites
}

/// Can the builtin be evaluated once the variables in `bound` are known —
/// and if so, which new variables does it bind? The rules mirror the
/// engine's readiness conditions, erring on the side of `None` (which only
/// widens demand).
fn builtin_binds(builtin: Builtin, args: &[Term], bound: &FxHashSet<Sym>) -> Option<Vec<Sym>> {
    let free_vars = |t: &Term| -> Vec<Sym> {
        t.vars()
            .into_iter()
            .filter(|v| !bound.contains(v))
            .collect()
    };
    let closed = |t: &Term| free_vars(t).is_empty();
    if args.iter().all(&closed) {
        return Some(Vec::new());
    }
    match builtin {
        Builtin::Eq => {
            if closed(&args[1]) && !args[0].computes() {
                Some(free_vars(&args[0]))
            } else if closed(&args[0]) && !args[1].computes() {
                Some(free_vars(&args[1]))
            } else {
                None
            }
        }
        // Element/derived-value builtins bind their first (result) argument
        // once the collection side is known.
        Builtin::Member
        | Builtin::HeadQ
        | Builtin::TailQ
        | Builtin::Length
        | Builtin::Count
        | Builtin::Sum
        | Builtin::Min
        | Builtin::Max
        | Builtin::Avg => {
            if closed(&args[1]) && !args[0].computes() {
                Some(free_vars(&args[0]))
            } else {
                None
            }
        }
        Builtin::Union | Builtin::Intersection | Builtin::Difference | Builtin::Append => {
            if args[1..].iter().all(closed) && !args[0].computes() {
                Some(free_vars(&args[0]))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Labels the rule's head carries as plain patterns — the only ones a
/// demand guard can constrain.
fn head_pattern_labels(rule: &Rule) -> BTreeSet<Sym> {
    let mut out = BTreeSet::new();
    if let Atom::Pred { args, .. } = &rule.head.atom {
        for a in args {
            if let PredArg::Labeled(l, t) = a {
                if !t.computes() {
                    out.insert(*l);
                }
            }
        }
    }
    out
}

/// Variables the demand guard binds: those of the head terms at the
/// predicate's bound labels.
fn head_bound_vars(rule: &Rule, bound: &BTreeSet<Sym>) -> FxHashSet<Sym> {
    let mut out = FxHashSet::default();
    if let Atom::Pred { args, .. } = &rule.head.atom {
        for a in args {
            if let PredArg::Labeled(l, t) = a {
                if bound.contains(l) {
                    out.extend(t.vars());
                }
            }
        }
    }
    out
}

fn pred_args(atom: &Atom) -> &[PredArg] {
    match atom {
        Atom::Pred { args, .. } => args,
        _ => unreachable!("demand guards only apply to predicate heads"),
    }
}

/// The `@magic_p(bound labels…)` atom built from another atom's labeled
/// arguments.
fn magic_atom(magic: Sym, bound: &BTreeSet<Sym>, args: &[PredArg], span: Span) -> Atom {
    let args = args
        .iter()
        .filter_map(|a| match a {
            PredArg::Labeled(l, t) if bound.contains(l) => Some(PredArg::Labeled(*l, t.clone())),
            _ => None,
        })
        .collect();
    Atom::Pred {
        pred: magic,
        args,
        span,
    }
}

/// The demand rule for one site: `@magic_q(bound args) <- guard?, prefix.`
/// Returns `None` for predicates without demand or for a tautological
/// rule, whose head is one of its own positive body literals — such as
/// `@magic_p(b: Z) <- @magic_p(b: Z), e(a: X, b: Y).` from a recursive
/// call that passes its bound labels through unchanged. It can never
/// derive a new fact, yet every round would still join its body.
fn demand_rule(
    magic: &BTreeMap<Sym, Sym>,
    bound: &BTreeMap<Sym, BTreeSet<Sym>>,
    guard: Option<&BodyLiteral>,
    site: &Site,
) -> Option<Rule> {
    let mp = magic.get(&site.pred)?;
    let head = Head {
        atom: magic_atom(*mp, &bound[&site.pred], &site.args, site.span),
        negated: false,
    };
    let mut body: Vec<BodyLiteral> = Vec::new();
    if let Some(g) = guard {
        body.push(g.clone());
    }
    body.extend(site.prefix.iter().cloned());
    if body.iter().any(|l| !l.negated && l.atom == head.atom) {
        return None;
    }
    Some(Rule {
        head,
        body,
        span: site.span,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn plan(src: &str) -> (GoalPlan, crate::ast::Program) {
        let p = parse_program(src).expect("program parses");
        let plan = plan_goal(
            &p.schema,
            &p.rules,
            p.goal.as_ref().expect("program has a goal"),
        );
        (plan, p)
    }

    const LEFT_TC: &str = r#"
        associations
          e = (a: integer, b: integer);
          tc = (a: integer, b: integer);
        rules
          tc(a: X, b: Y) <- e(a: X, b: Y).
          tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).
        goal tc(a: 0, b: D)?
    "#;

    #[test]
    fn left_recursive_closure_gets_a_point_rewrite() {
        let (plan, _) = plan(LEFT_TC);
        assert!(plan.fallback.is_none(), "{:?}", plan.fallback);
        let rw = plan.rewrite.expect("rewrite");
        assert_eq!(
            rw.magic_preds,
            vec![(Sym::new("tc"), Sym::new("@magic_tc"))]
        );
        // The adornment binds `a` and leaves `b` free.
        let tc = plan
            .adornments
            .iter()
            .find(|(p, _)| *p == Sym::new("tc"))
            .map(|(_, a)| a)
            .unwrap();
        assert_eq!(
            tc.labels,
            vec![(Sym::new("a"), true), (Sym::new("b"), false)]
        );
        let printed: Vec<String> = rw.rules.rules.iter().map(|r| r.to_string()).collect();
        // Seed from the goal constant, guards on both closure rules; the
        // degenerate self-demand from the recursive site is dropped.
        assert!(
            printed.contains(&"@magic_tc(a: 0) <- .".to_owned()),
            "{printed:?}"
        );
        assert!(
            printed.contains(&"tc(a: X, b: Y) <- @magic_tc(a: X), e(a: X, b: Y).".to_owned()),
            "{printed:?}"
        );
        assert!(
            printed.contains(
                &"tc(a: X, b: Z) <- @magic_tc(a: X), tc(a: X, b: Y), e(a: Y, b: Z).".to_owned()
            ),
            "{printed:?}"
        );
        assert_eq!(rw.demand_rules, 1, "{printed:?}");
        assert_eq!(rw.guarded_rules, 2);
        assert_eq!(rw.dropped_rules, 0);
    }

    #[test]
    fn right_recursive_closure_propagates_demand() {
        let (plan, _) = plan(
            r#"
            associations
              e = (a: integer, b: integer);
              tc = (a: integer, b: integer);
            rules
              tc(a: X, b: Y) <- e(a: X, b: Y).
              tc(a: X, b: Z) <- e(a: X, b: Y), tc(a: Y, b: Z).
            goal tc(a: 0, b: D)?
        "#,
        );
        let rw = plan.rewrite.expect("rewrite");
        let printed: Vec<String> = rw.rules.rules.iter().map(|r| r.to_string()).collect();
        // Demand flows through the edge relation to the recursive call.
        assert!(
            printed.contains(&"@magic_tc(a: Y) <- @magic_tc(a: X), e(a: X, b: Y).".to_owned()),
            "{printed:?}"
        );
    }

    #[test]
    fn tautological_demand_rules_are_dropped() {
        // With `b` bound, the recursive call passes its demand through
        // unchanged: `@magic_tc(b: Z) <- @magic_tc(b: Z), e(a: X, b: Y).`
        // derives nothing, so only the goal's seed remains.
        let (plan, _) = plan(
            r#"
            associations
              e = (a: integer, b: integer);
              tc = (a: integer, b: integer);
            rules
              tc(a: X, b: Y) <- e(a: X, b: Y).
              tc(a: X, b: Z) <- e(a: X, b: Y), tc(a: Y, b: Z).
            goal tc(a: A, b: 0)?
        "#,
        );
        let rw = plan.rewrite.expect("rewrite");
        let printed: Vec<String> = rw.rules.rules.iter().map(|r| r.to_string()).collect();
        assert_eq!(rw.demand_rules, 1, "{printed:?}");
        assert!(
            printed.contains(&"@magic_tc(b: 0) <- .".to_owned()),
            "{printed:?}"
        );
        assert!(
            rw.rules
                .rules
                .iter()
                .all(|r| !r.body.iter().any(|l| l.atom == r.head.atom)),
            "{printed:?}"
        );
        assert_eq!(rw.guarded_rules, 2);
    }

    #[test]
    fn irrelevant_rules_are_dropped() {
        let (plan, _) = plan(
            r#"
            associations
              e = (a: integer, b: integer);
              tc = (a: integer, b: integer);
              other = (x: integer);
            rules
              tc(a: X, b: Y) <- e(a: X, b: Y).
              other(x: X) <- e(a: X, b: X).
            goal tc(a: 0, b: D)?
        "#,
        );
        let rw = plan.rewrite.expect("rewrite");
        assert_eq!(rw.dropped_rules, 1);
        assert!(rw
            .rules
            .rules
            .iter()
            .all(|r| r.head.target() != Sym::new("other")));
    }

    #[test]
    fn all_free_goals_fall_back() {
        let (plan, _) = plan(
            r#"
            associations
              e = (a: integer, b: integer);
              tc = (a: integer, b: integer);
            rules
              tc(a: X, b: Y) <- e(a: X, b: Y).
            goal tc(a: X, b: Y)?
        "#,
        );
        assert!(plan.rewrite.is_none());
        assert!(plan.fallback.unwrap().contains("binds no attribute"));
        // Adornments are still reported for `:plan`.
        assert_eq!(plan.adornments.len(), 1);
    }

    #[test]
    fn head_negation_in_the_slice_is_exempt() {
        let (plan, p) = plan(
            r#"
            associations
              p = (d: integer);
              q = (d: integer);
            rules
              p(d: X) <- q(d: X).
              -p(d: X) <- q(d: X), p(d: X).
            goal p(d: 1)?
        "#,
        );
        assert!(plan.rewrite.is_none());
        assert_eq!(plan.exemptions.len(), 1);
        assert_eq!(plan.exemptions[0].reason, ExemptReason::HeadNegation);
        let text = plan.render(&p.rules);
        assert!(text.contains("full fixpoint"), "{text}");
        assert!(text.contains("deleting head"), "{text}");
    }

    #[test]
    fn oid_invention_in_the_slice_is_exempt() {
        // Each rule is exempt; the label says whether the engine invents
        // the head's oid or takes it from the body.
        for (rule, reason) in [
            (
                "person(name: N) <- named(name: N).",
                ExemptReason::OidInvention,
            ),
            (
                "person(self: H, name: N) <- knows(a: N, b: M).",
                ExemptReason::OidInvention,
            ),
            ("person(P) <- student(P).", ExemptReason::ClassHead),
            (
                "person(self: P, name: N) <- student(self: P, name: N).",
                ExemptReason::ClassHead,
            ),
        ] {
            let (plan, p) = plan(&format!(
                r#"
                classes
                  person  = (name: string);
                  student = (person: person, school: string);
                  student isa person;
                associations
                  named = (name: string);
                  knows = (a: string, b: string);
                rules
                  {rule}
                goal person(name: "a")?
            "#
            ));
            assert!(plan.rewrite.is_none(), "{rule}");
            assert_eq!(plan.exemptions[0].reason, reason, "{rule}");
            let text = plan.render(&p.rules);
            assert!(text.contains(reason.describe()), "{text}");
        }
    }

    #[test]
    fn negated_bodies_in_the_slice_are_exempt() {
        let (plan, _) = plan(
            r#"
            associations
              p = (d: integer);
              q = (d: integer);
              r = (d: integer);
            rules
              p(d: X) <- q(d: X), not r(d: X).
            goal p(d: 1)?
        "#,
        );
        assert!(plan.rewrite.is_none());
        assert_eq!(plan.exemptions[0].reason, ExemptReason::NegatedBody);
    }

    #[test]
    fn edb_only_goals_fall_back() {
        let (plan, _) = plan(
            r#"
            associations
              e = (a: integer, b: integer);
            goal e(a: 0, b: X)?
        "#,
        );
        assert!(plan.rewrite.is_none());
        assert!(plan.fallback.unwrap().contains("no derived predicate"));
    }

    #[test]
    fn rendered_plans_mention_the_rewrite() {
        let (plan, p) = plan(LEFT_TC);
        let text = plan.render(&p.rules);
        assert!(text.contains("tc[a: bound, b: free]"), "{text}");
        assert!(text.contains("@magic_tc (demand for tc)"), "{text}");
        assert!(
            text.contains("demand-driven (magic-set) evaluation"),
            "{text}"
        );
    }
}
