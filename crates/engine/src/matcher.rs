//! Body evaluation: enumerating the valuations θ with `F ⊨ θ(body)`.
//!
//! Literals are scheduled greedily: at each step the first *ready* literal
//! is consumed — positive ordinary literals are always ready (they
//! enumerate), builtins are ready once their inputs are bound, negated
//! literals once all their variables are bound. A [`BodyView`] delta
//! literal comes first in that order, so a delta round enumerates the delta
//! and probes the full instance with its bindings: it costs
//! O(|delta| × fan-out), not a scan of the body's first literal. A negated
//! literal whose variables never become bound is evaluated last by
//! enumerating the **active domain** of the variable's type (Section 2.1:
//! "variables which are only present in negated literals \[are\] restricted
//! to their current active domain").

use std::fmt;

use logres_lang::{Atom, BodyLiteral, PredArg, Term};
use logres_model::{Instance, PredKind, Schema, Sym, TypeDesc, Value};
use rustc_hash::FxHashSet;

use crate::binding::{eval_term, match_term, self_label, Subst};
use crate::builtins::{solve, BuiltinOutcome};
use crate::error::EngineError;
use crate::metrics::ProbeTally;

/// Cap on active-domain products for negated literals with several unbound
/// variables.
const MAX_ACTIVE_DOMAIN_COMBOS: usize = 1 << 20;

/// A view of the fact store: the full instance, optionally overriding the
/// enumeration source for one body literal (the semi-naive delta trick).
#[derive(Clone, Copy)]
pub struct BodyView<'a> {
    /// The full fact set (used for tests, negation, function reads).
    pub full: &'a Instance,
    /// When set, the literal at this index enumerates from this instance
    /// instead of `full`, and is expanded before every other literal.
    pub delta: Option<(usize, &'a Instance)>,
    /// When set, probe/scan decisions are counted into this local tally
    /// (the caller flushes it to the shared counters once per rule).
    pub tally: Option<&'a ProbeTally>,
}

impl<'a> BodyView<'a> {
    /// A plain view over one instance.
    pub fn plain(full: &'a Instance) -> BodyView<'a> {
        BodyView {
            full,
            delta: None,
            tally: None,
        }
    }

    /// The same view with matcher instrumentation attached.
    pub fn with_tally(mut self, tally: Option<&'a ProbeTally>) -> BodyView<'a> {
        self.tally = tally;
        self
    }

    fn source(&self, idx: usize) -> &'a Instance {
        match self.delta {
            Some((i, d)) if i == idx => d,
            _ => self.full,
        }
    }
}

/// Enumerate all substitutions satisfying the body, starting from `init`.
pub fn eval_body(
    schema: &Schema,
    view: BodyView<'_>,
    body: &[BodyLiteral],
    init: Subst,
) -> Result<Vec<Subst>, EngineError> {
    let mut results = Vec::new();
    let delta = view.delta.map(|(i, _)| i);
    let remaining: Vec<usize> = delta
        .into_iter()
        .chain((0..body.len()).filter(|&i| Some(i) != delta))
        .collect();
    solve_rec(schema, view, body, init, remaining, &mut results)?;
    Ok(results)
}

fn solve_rec(
    schema: &Schema,
    view: BodyView<'_>,
    body: &[BodyLiteral],
    subst: Subst,
    remaining: Vec<usize>,
    out: &mut Vec<Subst>,
) -> Result<(), EngineError> {
    if remaining.is_empty() {
        out.push(subst);
        return Ok(());
    }

    // Pick the first literal that is ready under `subst`.
    for (pos, &idx) in remaining.iter().enumerate() {
        let lit = &body[idx];
        let readiness = literal_readiness(schema, view, idx, lit, &subst)?;
        let extensions = match readiness {
            Readiness::NotReady => continue,
            Readiness::Fail => return Ok(()),
            Readiness::Pass => vec![subst.clone()],
            Readiness::Branch(subs) => subs,
        };
        let rest: Vec<usize> = remaining
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != pos)
            .map(|(_, &j)| j)
            .collect();
        for s in extensions {
            solve_rec(schema, view, body, s, rest.clone(), out)?;
        }
        return Ok(());
    }

    // Nothing ready: the remaining literals are negations or builtins over
    // variables nothing will bind. Handle the first negated ordinary
    // literal by active-domain enumeration; otherwise report.
    for (pos, &idx) in remaining.iter().enumerate() {
        let lit = &body[idx];
        if lit.negated {
            if let Atom::Pred { .. } = &lit.atom {
                let subs = active_domain_negation(schema, view.full, lit, &subst)?;
                let rest: Vec<usize> = remaining
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != pos)
                    .map(|(_, &j)| j)
                    .collect();
                for s in subs {
                    solve_rec(schema, view, body, s, rest.clone(), out)?;
                }
                return Ok(());
            }
        }
    }

    Err(EngineError::Unevaluable {
        detail: format!(
            "literals {:?} never became evaluable",
            remaining
                .iter()
                .map(|&i| body[i].to_string())
                .collect::<Vec<_>>()
        ),
    })
}

enum Readiness {
    /// Wait for more bindings.
    NotReady,
    /// Decided false: the whole branch dies.
    Fail,
    /// Decided true with no new bindings.
    Pass,
    /// Alternative extended substitutions.
    Branch(Vec<Subst>),
}

fn literal_readiness(
    schema: &Schema,
    view: BodyView<'_>,
    idx: usize,
    lit: &BodyLiteral,
    subst: &Subst,
) -> Result<Readiness, EngineError> {
    match &lit.atom {
        Atom::Pred { pred, args, .. } => {
            if lit.negated {
                // Ready once every variable is bound; then: satisfied iff no
                // matching fact exists.
                let all_bound = lit.atom.vars().iter().all(|v| subst.is_bound(*v));
                if !all_bound {
                    return Ok(Readiness::NotReady);
                }
                // Fast path: a fully specified association tuple is an O(1)
                // hash lookup instead of an extension scan — this is what
                // keeps Example 4.2-style updates linear.
                if schema.kind(*pred) == Some(PredKind::Assoc) {
                    if let Some(tuple) = ground_assoc_tuple(schema, *pred, args, subst, view.full) {
                        return Ok(if view.full.has_tuple(*pred, &tuple) {
                            Readiness::Fail
                        } else {
                            Readiness::Pass
                        });
                    }
                }
                let matches = match_pred(schema, view.full, *pred, args, subst, view.tally)?;
                Ok(if matches.is_empty() {
                    Readiness::Pass
                } else {
                    Readiness::Fail
                })
            } else {
                let src = view.source(idx);
                // Fast path for a *fully ground* positive association
                // literal (a guard, not a generator): O(1) membership test.
                if schema.kind(*pred) == Some(PredKind::Assoc)
                    && lit.atom.vars().iter().all(|v| subst.is_bound(*v))
                {
                    if let Some(tuple) = ground_assoc_tuple(schema, *pred, args, subst, src) {
                        return Ok(if src.has_tuple(*pred, &tuple) {
                            Readiness::Pass
                        } else {
                            Readiness::Fail
                        });
                    }
                }
                Ok(Readiness::Branch(match_pred(
                    schema, src, *pred, args, subst, view.tally,
                )?))
            }
        }
        Atom::Member {
            elem, fun, args, ..
        } => {
            if lit.negated {
                let ev = |t: &Term| eval_term(t, subst, view.full);
                let (Some(e), Some(a)) =
                    (ev(elem), args.iter().map(ev).collect::<Option<Vec<_>>>())
                else {
                    return Ok(Readiness::NotReady);
                };
                let a: Vec<Value> = a.into_iter().map(crate::binding::normalize_arg).collect();
                Ok(if view.full.fun_contains(*fun, &a, &e) {
                    Readiness::Fail
                } else {
                    Readiness::Pass
                })
            } else {
                let src = view.source(idx);
                Ok(Readiness::Branch(match_member(
                    src, *fun, elem, args, subst, view.full,
                )?))
            }
        }
        Atom::Builtin { builtin, args, .. } => {
            match solve(*builtin, args, subst, view.full)? {
                BuiltinOutcome::NotReady => Ok(Readiness::NotReady),
                BuiltinOutcome::Test(ok) => {
                    let ok = if lit.negated { !ok } else { ok };
                    Ok(if ok { Readiness::Pass } else { Readiness::Fail })
                }
                BuiltinOutcome::Bindings(subs) => {
                    if lit.negated {
                        // A negated constructive builtin succeeds when the
                        // positive form yields nothing.
                        Ok(if subs.is_empty() {
                            Readiness::Pass
                        } else {
                            Readiness::Fail
                        })
                    } else {
                        Ok(Readiness::Branch(subs))
                    }
                }
            }
        }
    }
}

/// Enumerate matches of a positive class/association literal.
///
/// `tally`, when present, counts the association access-path decision:
/// one probe hit (bucket found), probe miss (key had no bucket), or scan
/// fallback (no ground probe key) per call.
pub fn match_pred(
    schema: &Schema,
    src: &Instance,
    pred: Sym,
    args: &[PredArg],
    subst: &Subst,
    tally: Option<&ProbeTally>,
) -> Result<Vec<Subst>, EngineError> {
    let mut out = Vec::new();
    match schema.kind(pred) {
        Some(PredKind::Class) => {
            for oid in src.oids_of(pred) {
                let Some(view) = src.o_value_in(schema, pred, oid) else {
                    continue;
                };
                let mut s = subst.clone();
                let mut ok = true;
                for arg in args {
                    match arg {
                        PredArg::SelfArg(t) => {
                            if !match_term(t, &Value::Oid(oid), &mut s, src) {
                                ok = false;
                                break;
                            }
                        }
                        PredArg::Labeled(l, t) => match view.field(*l) {
                            Some(fv) => {
                                let fv = fv.clone();
                                if !match_term(t, &fv, &mut s, src) {
                                    ok = false;
                                    break;
                                }
                            }
                            None => {
                                ok = false;
                                break;
                            }
                        },
                        PredArg::TupleVar(v) => {
                            let mut fields =
                                view.as_tuple().map(|fs| fs.to_vec()).unwrap_or_default();
                            fields.push((self_label(), Value::Oid(oid)));
                            let tagged = Value::tuple(fields);
                            if !s.unify_var(*v, tagged) {
                                ok = false;
                                break;
                            }
                        }
                    }
                }
                if ok {
                    out.push(s);
                }
            }
        }
        Some(PredKind::Assoc) => {
            let try_tuple = |tuple: &Value, out: &mut Vec<Subst>| {
                let mut s = subst.clone();
                let mut ok = true;
                for arg in args {
                    match arg {
                        PredArg::SelfArg(_) => {
                            ok = false;
                            break;
                        }
                        PredArg::Labeled(l, t) => match tuple.field(*l) {
                            Some(fv) => {
                                let fv = fv.clone();
                                if !match_term(t, &fv, &mut s, src) {
                                    ok = false;
                                    break;
                                }
                            }
                            None => {
                                ok = false;
                                break;
                            }
                        },
                        PredArg::TupleVar(v) => {
                            if !s.unify_var(*v, tuple.clone()) {
                                ok = false;
                                break;
                            }
                        }
                    }
                }
                if ok {
                    out.push(s);
                }
            };
            // Index probe: the first labeled argument already ground under
            // `subst` selects a hash bucket instead of scanning the whole
            // extension. Candidates are still verified by the full match
            // above, so the probe only has to be a superset filter.
            match first_probe(args, subst, src) {
                Some((label, key)) => match src.tuples_matching(pred, label, &key) {
                    Some(bucket) => {
                        if let Some(t) = tally {
                            t.hit();
                        }
                        for tuple in bucket.iter() {
                            try_tuple(tuple, &mut out);
                        }
                    }
                    None => {
                        if let Some(t) = tally {
                            t.miss();
                        }
                    }
                },
                None => {
                    if let Some(t) = tally {
                        t.scan();
                    }
                    for tuple in src.tuples_of(pred) {
                        try_tuple(tuple, &mut out);
                    }
                }
            }
        }
        Some(PredKind::Function) | Some(PredKind::Domain) | None => {
            return Err(EngineError::UnknownPredicate(pred))
        }
    }
    Ok(out)
}

/// The first association argument usable as an index probe: a labeled
/// argument whose term is ground under `subst` *and* whose match semantics
/// coincide with normalized-key equality.
///
/// `Tuple` patterns are excluded (they match any tuple carrying a superset
/// of their fields) and so are `Seq` patterns (element-wise matching may
/// bind variables); every other term kind falls through to
/// "evaluate, then [`values_unify`]" in [`match_term`], which is exactly
/// the equivalence [`Value::index_key`] buckets by.
fn first_probe(args: &[PredArg], subst: &Subst, inst: &Instance) -> Option<(Sym, Value)> {
    args.iter().find_map(|arg| {
        let PredArg::Labeled(l, t) = arg else {
            return None;
        };
        let key = match t {
            Term::Tuple(_) | Term::Seq(_) => return None,
            Term::Var(v) => subst.get(*v).cloned(),
            _ => eval_term(t, subst, inst),
        }?;
        Some((*l, crate::binding::normalize_arg(key)))
    })
}

/// Build the complete ground tuple a (negated) association literal denotes,
/// when its arguments cover every attribute with evaluable terms. `None`
/// when coverage is partial or a term is structured beyond evaluation (the
/// caller then falls back to the extension scan).
pub(crate) fn ground_assoc_tuple(
    schema: &Schema,
    assoc: Sym,
    args: &[PredArg],
    subst: &Subst,
    inst: &Instance,
) -> Option<Value> {
    let ty = schema.expand(schema.assoc_type(assoc)?);
    let attrs = ty.as_tuple()?;
    let mut fields: Vec<(Sym, Value)> = Vec::new();
    for arg in args {
        match arg {
            PredArg::Labeled(l, t) => {
                let v = eval_term(t, subst, inst)?;
                let v = if matches!(ty.field(*l), Some(TypeDesc::Class(_))) {
                    crate::binding::normalize_arg(v)
                } else {
                    v
                };
                fields.retain(|(fl, _)| fl != l);
                fields.push((*l, v));
            }
            PredArg::TupleVar(v) => {
                let bound = subst.get(*v)?;
                let stripped = crate::binding::strip_self(bound);
                let fs = stripped.as_tuple()?;
                for (l, val) in fs {
                    if attrs.iter().any(|f| f.label == *l) && !fields.iter().any(|(fl, _)| fl == l)
                    {
                        fields.push((*l, val.clone()));
                    }
                }
            }
            PredArg::SelfArg(_) => return None,
        }
    }
    if fields.len() != attrs.len() {
        return None;
    }
    Some(Value::tuple(fields))
}

/// Enumerate matches of a positive `member(elem, f(args…))` literal.
fn match_member(
    src: &Instance,
    fun: Sym,
    elem: &Term,
    args: &[Term],
    subst: &Subst,
    full: &Instance,
) -> Result<Vec<Subst>, EngineError> {
    let mut out = Vec::new();
    let arg_entries: Vec<Vec<Value>> = src.fun_args(fun).cloned().collect();
    for arg_vals in arg_entries {
        let mut s = subst.clone();
        if args.len() != arg_vals.len() {
            continue;
        }
        let mut ok = true;
        for (t, v) in args.iter().zip(arg_vals.iter()) {
            if !match_term(t, v, &mut s, full) {
                ok = false;
                break;
            }
        }
        if !ok {
            continue;
        }
        let set = src.fun_value(fun, &arg_vals);
        for e in set.elements().unwrap_or_default() {
            let mut s2 = s.clone();
            if match_term(elem, &e, &mut s2, full) {
                out.push(s2);
            }
        }
    }
    Ok(out)
}

/// Evaluate a negated ordinary literal whose variables include unbound
/// ones: enumerate each unbound variable over the active domain of its
/// attribute type, keeping the combinations under which no matching fact
/// exists.
fn active_domain_negation(
    schema: &Schema,
    inst: &Instance,
    lit: &BodyLiteral,
    subst: &Subst,
) -> Result<Vec<Subst>, EngineError> {
    let Atom::Pred { pred, args, .. } = &lit.atom else {
        unreachable!("caller checks");
    };
    // Unbound variables with their expected attribute types.
    let tuple_ty = crate::compile::pred_type(schema, *pred);
    let mut unbound: Vec<(Sym, TypeDesc)> = Vec::new();
    for arg in args {
        match arg {
            PredArg::Labeled(l, Term::Var(v)) if !subst.is_bound(*v) => {
                let ty = tuple_ty
                    .as_ref()
                    .and_then(|t| t.field(*l).cloned())
                    .unwrap_or(TypeDesc::Str);
                if !unbound.iter().any(|(u, _)| u == v) {
                    unbound.push((*v, ty));
                }
            }
            PredArg::SelfArg(Term::Var(v)) if !subst.is_bound(*v) => {
                unbound.push((*v, TypeDesc::Class(*pred)));
            }
            _ => {}
        }
    }
    if unbound.is_empty() {
        return Err(EngineError::Unevaluable {
            detail: format!("negated literal `{lit}` has unevaluable structured arguments"),
        });
    }

    // Candidate values per variable.
    let mut domains: Vec<Vec<Value>> = Vec::new();
    for (_, ty) in &unbound {
        domains.push(active_domain(schema, inst, ty));
    }
    let combos: usize = domains.iter().map(|d| d.len().max(1)).product();
    if combos > MAX_ACTIVE_DOMAIN_COMBOS {
        return Err(EngineError::Unevaluable {
            detail: format!("active-domain enumeration too large ({combos} combinations)"),
        });
    }

    let mut out = Vec::new();
    let mut stack: Vec<Subst> = vec![subst.clone()];
    for ((v, _), domain) in unbound.iter().zip(domains.iter()) {
        let mut next = Vec::new();
        for s in &stack {
            for val in domain {
                let mut s2 = s.clone();
                s2.bind(*v, val.clone());
                next.push(s2);
            }
        }
        stack = next;
    }
    for s in stack {
        if match_pred(schema, inst, *pred, args, &s, None)?.is_empty() {
            out.push(s);
        }
    }
    Ok(out)
}

/// The current active domain of a type: every value of that (expanded) type
/// occurring in the instance at an attribute position of the same type.
pub fn active_domain(schema: &Schema, inst: &Instance, ty: &TypeDesc) -> Vec<Value> {
    let want = schema.expand(ty);
    let mut seen: FxHashSet<Value> = FxHashSet::default();
    let mut out = Vec::new();
    let mut push = |v: Value| {
        if seen.insert(v.clone()) {
            out.push(v);
        }
    };

    if let TypeDesc::Class(c) = &want {
        let mut oids: Vec<_> = inst.oids_of(*c).collect();
        oids.sort();
        for o in oids {
            push(Value::Oid(o));
        }
        return out;
    }

    // Scan association tuples and class o-values for attributes whose
    // declared type expands to `want`.
    let mut collect_from = |tuple: &Value, ty: &TypeDesc| {
        if let (Some(fields), Some(tys)) = (tuple.as_tuple(), ty.as_tuple()) {
            for f in tys {
                if schema.expand(&f.ty) == want {
                    if let Some(v) = fields
                        .iter()
                        .find(|(l, _)| *l == f.label)
                        .map(|(_, v)| v.clone())
                    {
                        if seen.insert(v.clone()) {
                            out.push(v);
                        }
                    }
                }
            }
        }
    };
    let mut assocs: Vec<Sym> = schema.assocs().collect();
    assocs.sort();
    for a in assocs {
        if let Some(ty) = schema.assoc_type(a) {
            let ty = ty.clone();
            let tuples: Vec<Value> = inst.tuples_of(a).cloned().collect();
            for t in tuples {
                collect_from(&t, &ty);
            }
        }
    }
    let mut classes: Vec<Sym> = schema.classes().collect();
    classes.sort();
    for c in classes {
        if let Some(eff) = schema.effective(c) {
            let eff = eff.clone();
            let mut oids: Vec<_> = inst.oids_of(c).collect();
            oids.sort();
            for o in oids {
                if let Some(v) = inst.o_value_in(schema, c, o) {
                    collect_from(&v, &eff);
                }
            }
        }
    }
    out
}

/// The statically predicted access path for one body literal, used by the
/// REPL's `:explain` report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessPlan {
    /// An index probe on this attribute label of an association.
    Probe(Sym),
    /// A full scan of an association's extension.
    Scan,
    /// Enumeration without an index (class extents, data functions).
    Enumerate,
    /// A test that binds nothing new (builtins, negated literals).
    Test,
}

impl fmt::Display for AccessPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessPlan::Probe(l) => write!(f, "index probe on `{l}`"),
            AccessPlan::Scan => write!(f, "extension scan"),
            AccessPlan::Enumerate => write!(f, "enumerate"),
            AccessPlan::Test => write!(f, "test"),
        }
    }
}

/// Predict, per body literal in textual order, the access path
/// [`match_pred`] would choose: an index probe when the first labeled
/// argument is a constant or an already-bound variable, otherwise a scan.
///
/// This is a *static approximation*: it simulates bindings accumulating in
/// textual order, while the evaluator schedules literals greedily
/// (first-ready) and re-enters `match_pred` once per candidate valuation,
/// where more variables may be bound than this analysis assumes. It errs
/// toward reporting scans, never phantom probes.
pub fn rule_access_plan(schema: &Schema, rule: &logres_lang::Rule) -> Vec<(String, AccessPlan)> {
    let mut bound: FxHashSet<Sym> = FxHashSet::default();
    let mut out = Vec::new();
    for lit in &rule.body {
        let plan = if lit.negated {
            AccessPlan::Test
        } else {
            match &lit.atom {
                Atom::Pred { pred, args, .. } if schema.kind(*pred) == Some(PredKind::Assoc) => {
                    static_probe_label(args, &bound)
                        .map(AccessPlan::Probe)
                        .unwrap_or(AccessPlan::Scan)
                }
                Atom::Pred { .. } | Atom::Member { .. } => AccessPlan::Enumerate,
                Atom::Builtin { .. } => AccessPlan::Test,
            }
        };
        if !lit.negated {
            for v in lit.atom.vars() {
                bound.insert(v);
            }
        }
        out.push((lit.to_string(), plan));
    }
    out
}

/// Static counterpart of [`first_probe`]: the first labeled argument whose
/// term is a literal constant or a variable in `bound`.
fn static_probe_label(args: &[PredArg], bound: &FxHashSet<Sym>) -> Option<Sym> {
    args.iter().find_map(|arg| {
        let PredArg::Labeled(l, t) = arg else {
            return None;
        };
        match t {
            Term::Tuple(_) | Term::Seq(_) => None,
            Term::Var(v) => bound.contains(v).then_some(*l),
            _ => logres_lang::parser::eval_ground(t).map(|_| *l),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use logres_lang::parse_program;

    /// Parse a program, load its facts, and return (schema, instance, rules).
    fn setup(src: &str) -> (Schema, Instance, logres_lang::RuleSet) {
        let p = parse_program(src).expect("parses");
        let mut inst = Instance::new();
        let mut gen = logres_model::OidGen::new();
        crate::load::load_facts(&p.schema, &mut inst, &p.facts, &mut gen).expect("loads");
        (p.schema, inst, p.rules)
    }

    #[test]
    fn positive_literals_enumerate_bindings() {
        let (schema, inst, rules) = setup(
            r#"
            associations
              parent = (par: string, chil: string);
            facts
              parent(par: "adam", chil: "cain").
              parent(par: "adam", chil: "abel").
            rules
              parent(par: X, chil: Y) <- parent(par: X, chil: Y).
        "#,
        );
        let body = &rules.rules[0].body;
        let subs = eval_body(&schema, BodyView::plain(&inst), body, Subst::new()).unwrap();
        assert_eq!(subs.len(), 2);
    }

    #[test]
    fn joins_share_variables() {
        let (schema, inst, rules) = setup(
            r#"
            associations
              parent = (par: string, chil: string);
              gp     = (g: string, c: string);
            facts
              parent(par: "a", chil: "b").
              parent(par: "b", chil: "c").
              parent(par: "b", chil: "d").
            rules
              gp(g: X, c: Z) <- parent(par: X, chil: Y), parent(par: Y, chil: Z).
        "#,
        );
        let body = &rules.rules[0].body;
        let subs = eval_body(&schema, BodyView::plain(&inst), body, Subst::new()).unwrap();
        assert_eq!(subs.len(), 2); // a-b-c and a-b-d
    }

    #[test]
    fn negation_with_bound_vars_filters() {
        let (schema, inst, rules) = setup(
            r#"
            associations
              p = (d: integer);
              q = (d: integer);
            facts
              p(d: 1).
              p(d: 2).
              q(d: 2).
            rules
              p(d: X) <- p(d: X), not q(d: X).
        "#,
        );
        let body = &rules.rules[0].body;
        let subs = eval_body(&schema, BodyView::plain(&inst), body, Subst::new()).unwrap();
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].get(Sym::new("X")), Some(&Value::Int(1)));
    }

    #[test]
    fn negation_only_vars_range_over_active_domain() {
        // X occurs only in the negated literal: it ranges over the active
        // domain of integers present in the database.
        let (schema, inst, rules) = setup(
            r#"
            associations
              p = (d: integer);
              q = (d: integer);
              r = (d: integer);
            facts
              p(d: 1).
              p(d: 2).
              q(d: 2).
            rules
              r(d: X) <- not q(d: X).
        "#,
        );
        let body = &rules.rules[0].body;
        let subs = eval_body(&schema, BodyView::plain(&inst), body, Subst::new()).unwrap();
        // Active domain of integer attributes = {1, 2}; ¬q holds for 1.
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].get(Sym::new("X")), Some(&Value::Int(1)));
    }

    #[test]
    fn class_literals_bind_self_and_attributes() {
        let (schema, mut inst, rules) = setup(
            r#"
            classes
              person = (name: string);
            rules
              person(self: S, name: N) <- person(self: S, name: N).
        "#,
        );
        let mut gen = logres_model::OidGen::new();
        let o = gen.fresh();
        inst.insert_object(
            &schema,
            Sym::new("person"),
            o,
            Value::tuple([("name", Value::str("ceri"))]),
        );
        let body = &rules.rules[0].body;
        let subs = eval_body(&schema, BodyView::plain(&inst), body, Subst::new()).unwrap();
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].get(Sym::new("S")), Some(&Value::Oid(o)));
        assert_eq!(subs[0].get(Sym::new("N")), Some(&Value::str("ceri")));
    }

    #[test]
    fn tuple_variables_carry_hidden_oids() {
        let (schema, mut inst, rules) = setup(
            r#"
            classes
              person = (name: string);
            associations
              likes = (who: person, what: string);
            rules
              likes(who: P, what: "logic") <- person(P).
        "#,
        );
        let mut gen = logres_model::OidGen::new();
        let o = gen.fresh();
        inst.insert_object(
            &schema,
            Sym::new("person"),
            o,
            Value::tuple([("name", Value::str("tanca"))]),
        );
        let body = &rules.rules[0].body;
        let subs = eval_body(&schema, BodyView::plain(&inst), body, Subst::new()).unwrap();
        assert_eq!(subs.len(), 1);
        let p = subs[0].get(Sym::new("P")).unwrap();
        assert_eq!(crate::binding::as_oid_like(p), Some(o));
    }

    #[test]
    fn builtins_defer_until_inputs_bound() {
        // The equality appears before its input literal; scheduling must
        // defer it.
        let (schema, inst, rules) = setup(
            r#"
            associations
              p = (d: integer);
              q = (d: integer);
            facts
              p(d: 4).
            rules
              q(d: Z) <- Z = X + 1, p(d: X).
        "#,
        );
        let body = &rules.rules[0].body;
        let subs = eval_body(&schema, BodyView::plain(&inst), body, Subst::new()).unwrap();
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].get(Sym::new("Z")), Some(&Value::Int(5)));
    }

    #[test]
    fn delta_override_restricts_one_literal() {
        let (schema, inst, rules) = setup(
            r#"
            associations
              e  = (a: integer, b: integer);
              tc = (a: integer, b: integer);
            facts
              e(a: 1, b: 2).
              e(a: 2, b: 3).
            rules
              tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).
        "#,
        );
        // Full tc = {(1,2)}, delta = {(1,2)}: only the delta row drives.
        let mut delta = Instance::new();
        delta.insert_assoc(
            Sym::new("tc"),
            Value::tuple([("a", Value::Int(1)), ("b", Value::Int(2))]),
        );
        let mut full = inst.clone();
        full.insert_assoc(
            Sym::new("tc"),
            Value::tuple([("a", Value::Int(1)), ("b", Value::Int(2))]),
        );
        full.insert_assoc(
            Sym::new("tc"),
            Value::tuple([("a", Value::Int(9)), ("b", Value::Int(9))]),
        );
        let body = &rules.rules[0].body;
        let view = BodyView {
            full: &full,
            delta: Some((0, &delta)),
            tally: None,
        };
        let subs = eval_body(&schema, view, body, Subst::new()).unwrap();
        // Only (1,2) joins e, yielding X=1, Z=3. The (9,9) row is invisible.
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].get(Sym::new("Z")), Some(&Value::Int(3)));
    }

    #[test]
    fn the_delta_literal_expands_first() {
        let (schema, inst, rules) = setup(
            r#"
            associations
              e  = (a: integer, b: integer);
              tc = (a: integer, b: integer);
            facts
              e(a: 0, b: 1). e(a: 1, b: 2). e(a: 2, b: 3). e(a: 3, b: 4).
              e(a: 4, b: 5). e(a: 5, b: 6). e(a: 6, b: 7). e(a: 7, b: 8).
            rules
              tc(a: X, b: Z) <- e(a: X, b: Y), tc(a: Y, b: Z).
        "#,
        );
        // The delta sits at body position 1, after the eight-tuple `e`.
        let tc = |a, b| Value::tuple([("a", Value::Int(a)), ("b", Value::Int(b))]);
        let mut delta = Instance::new();
        let mut full = inst.clone();
        for t in [tc(3, 9), tc(5, 9)] {
            delta.insert_assoc(Sym::new("tc"), t.clone());
            full.insert_assoc(Sym::new("tc"), t);
        }
        let tally = ProbeTally::default();
        let view = BodyView {
            full: &full,
            delta: Some((1, &delta)),
            tally: Some(&tally),
        };
        let subs = eval_body(&schema, view, &rules.rules[0].body, Subst::new()).unwrap();
        let mut xs: Vec<&Value> = subs.iter().map(|s| s.get(Sym::new("X")).unwrap()).collect();
        xs.sort();
        assert_eq!(xs, [&Value::Int(2), &Value::Int(4)]);
        // One scan of the delta, then one probe of `e` per delta tuple —
        // not a scan of `e` and one probe of the delta per `e` tuple.
        let reg = std::sync::Arc::new(crate::metrics::MetricsRegistry::new());
        let em = crate::metrics::EngineMetrics::new(&reg);
        tally.flush(&em);
        assert_eq!(em.scan_fallbacks.get(), 1);
        assert_eq!(em.probe_hits.get() + em.probe_misses.get(), 2);
    }

    #[test]
    fn access_plan_distinguishes_probe_and_scan() {
        let (schema, _, rules) = setup(
            r#"
            associations
              e  = (a: integer, b: integer);
              tc = (a: integer, b: integer);
            rules
              tc(a: X, b: Y) <- e(a: X, b: Y).
              tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).
              tc(a: 1, b: Y) <- e(a: 1, b: Y).
        "#,
        );
        // Rule 0: nothing bound, first literal scans.
        let plan0 = rule_access_plan(&schema, &rules.rules[0]);
        assert_eq!(plan0.len(), 1);
        assert_eq!(plan0[0].1, AccessPlan::Scan);
        // Rule 1: tc scans, then e probes on `a` (Y bound by then).
        let plan1 = rule_access_plan(&schema, &rules.rules[1]);
        assert_eq!(plan1[0].1, AccessPlan::Scan);
        assert_eq!(plan1[1].1, AccessPlan::Probe(Sym::new("a")));
        // Rule 2: the constant makes the very first literal a probe.
        let plan2 = rule_access_plan(&schema, &rules.rules[2]);
        assert_eq!(plan2[0].1, AccessPlan::Probe(Sym::new("a")));
    }

    #[test]
    fn probe_metrics_count_hits_misses_and_scans() {
        let (schema, inst, rules) = setup(
            r#"
            associations
              e  = (a: integer, b: integer);
              tc = (a: integer, b: integer);
            facts
              e(a: 1, b: 2).
              e(a: 2, b: 3).
            rules
              tc(a: X, b: Y) <- e(a: X, b: Y).
              tc(a: X, b: Z) <- e(a: X, b: Y), e(a: Y, b: Z).
        "#,
        );
        let reg = std::sync::Arc::new(crate::metrics::MetricsRegistry::new());
        let em = crate::metrics::EngineMetrics::new(&reg);
        let tally = ProbeTally::default();
        let view = BodyView::plain(&inst).with_tally(Some(&tally));
        // Rule 0: one scan over e.
        eval_body(&schema, view, &rules.rules[0].body, Subst::new()).unwrap();
        tally.flush(&em);
        assert_eq!(em.scan_fallbacks.get(), 1);
        // Rule 1: the scan plus one probe per candidate Y (2 and 3); key 3
        // has no bucket, so one hit and one miss. A second flush adds only
        // the new counts (the tally resets on flush).
        eval_body(&schema, view, &rules.rules[1].body, Subst::new()).unwrap();
        tally.flush(&em);
        assert_eq!(em.scan_fallbacks.get(), 2);
        assert_eq!(em.probe_hits.get(), 1);
        assert_eq!(em.probe_misses.get(), 1);
    }

    #[test]
    fn active_domain_collects_by_type() {
        let (schema, inst, _) = setup(
            r#"
            associations
              p = (d: integer, s: string);
            facts
              p(d: 1, s: "a").
              p(d: 2, s: "b").
        "#,
        );
        let ints = active_domain(&schema, &inst, &TypeDesc::Int);
        assert_eq!(ints.len(), 2);
        let strs = active_domain(&schema, &inst, &TypeDesc::Str);
        assert_eq!(strs.len(), 2);
    }
}
