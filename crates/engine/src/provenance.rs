//! Derivation provenance: which (rule, stratum, step) produced each fact.
//!
//! Behind `EvalOptions::provenance`, the interpreter's serial merge phase
//! records, for every fact entering `Δ⁺` and every invented oid, the
//! canonical rule index, the rule's stratum, the run-wide step, and the
//! ground premises of the *first* valuation that derived it; one store
//! covers a whole stratified run. Because the interpreter takes rules one
//! at a time in canonical order, the store is bit-identical on every run —
//! the same determinism contract the trace layer gives.
//!
//! Memory cost: one [`ProvEntry`] per derived fact — the fact key, three
//! machine words, plus one clone of each positive ground premise. For a
//! transitive closure with `d` derived tuples of arity `k`, that is
//! `O(d·k)` values on top of the instance itself; enable it for audits and
//! `:why`, not for bulk benchmarking (E12 quantifies the gap).

use logres_lang::{Atom, PredArg, Rule, RuleSet};
use logres_model::{Fact, Instance, Oid, PredKind, Schema, Value};
use rustc_hash::{FxHashMap, FxHashSet};

use crate::binding::{as_oid_like, eval_term, match_term, normalize_arg, self_label, Subst};

/// How one fact first entered the instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvEntry {
    /// Canonical rule index (into the owning store's rule table).
    pub rule: usize,
    /// 0-based step of first derivation.
    pub step: usize,
    /// Ground positive premises of the first deriving valuation.
    pub premises: Vec<Fact>,
}

/// The provenance store attached to an [`crate::EvalReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Provenance {
    /// Rendered rule texts, indexed by the rule ids in entries.
    rules: Vec<String>,
    /// Stratum of each rule (parallel to `rules`).
    strata: Vec<usize>,
    entries: FxHashMap<Fact, ProvEntry>,
    invented: FxHashMap<Oid, (usize, usize)>,
}

impl Provenance {
    /// An empty store over a run's rules, where `strata` lists each
    /// stratum's canonical rule indices in evaluation order.
    pub fn new(rules: &RuleSet, strata: &[Vec<usize>]) -> Provenance {
        let mut stratum_of = vec![0; rules.rules.len()];
        for (s, idxs) in strata.iter().enumerate() {
            for &i in idxs {
                stratum_of[i] = s;
            }
        }
        Provenance {
            rules: rules.rules.iter().map(|r| r.to_string()).collect(),
            strata: stratum_of,
            entries: FxHashMap::default(),
            invented: FxHashMap::default(),
        }
    }

    /// Record a derivation. First derivation wins: later rederivations of
    /// the same fact (e.g. after a deletion) keep the original entry, which
    /// is deterministic because the merge order is canonical.
    pub fn record(&mut self, fact: Fact, rule: usize, step: usize, premises: Vec<Fact>) {
        self.entries.entry(fact).or_insert(ProvEntry {
            rule,
            step,
            premises,
        });
    }

    /// Record an oid invention by `(rule, step)`.
    pub fn record_invention(&mut self, oid: Oid, rule: usize, step: usize) {
        self.invented.entry(oid).or_insert((rule, step));
    }

    /// The entry for a derived fact, if any.
    pub fn entry(&self, fact: &Fact) -> Option<&ProvEntry> {
        self.entries.get(fact)
    }

    /// The (rule, step) that invented an oid, if any.
    pub fn invention(&self, oid: Oid) -> Option<(usize, usize)> {
        self.invented.get(&oid).copied()
    }

    /// Rendered text of rule `idx`.
    pub fn rule_text(&self, idx: usize) -> Option<&str> {
        self.rules.get(idx).map(String::as_str)
    }

    /// Stratum of rule `idx` (0 when unknown).
    pub fn stratum(&self, idx: usize) -> usize {
        self.strata.get(idx).copied().unwrap_or(0)
    }

    /// Number of recorded oid inventions.
    pub fn invented_count(&self) -> usize {
        self.invented.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.invented.is_empty()
    }

    /// Walk a fact's derivation back to EDB leaves.
    ///
    /// First-derivation-wins makes the premise graph acyclic (every premise
    /// was first derived at a strictly earlier step), but the walk still
    /// guards against revisits on the current path and truncates them to
    /// leaves, so a malformed store cannot recurse forever.
    pub fn explain(&self, fact: &Fact) -> Derivation {
        let mut path = FxHashSet::default();
        self.explain_rec(fact, &mut path)
    }

    fn explain_rec(&self, fact: &Fact, path: &mut FxHashSet<Fact>) -> Derivation {
        match self.entries.get(fact) {
            Some(e) if path.insert(fact.clone()) => {
                let premises = e
                    .premises
                    .iter()
                    .map(|p| self.explain_rec(p, path))
                    .collect();
                path.remove(fact);
                Derivation {
                    fact: fact.clone(),
                    rule: Some(e.rule),
                    rule_text: self.rule_text(e.rule).map(str::to_owned),
                    stratum: self.stratum(e.rule),
                    step: e.step,
                    premises,
                }
            }
            _ => Derivation {
                fact: fact.clone(),
                rule: None,
                rule_text: None,
                stratum: 0,
                step: 0,
                premises: Vec::new(),
            },
        }
    }
}

/// One node of a rendered derivation tree (see [`Provenance::explain`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Derivation {
    /// The fact this node explains.
    pub fact: Fact,
    /// Deriving rule index; `None` for EDB facts.
    pub rule: Option<usize>,
    /// Rendered text of the deriving rule.
    pub rule_text: Option<String>,
    /// Stratum of the deriving rule (0 for EDB leaves).
    pub stratum: usize,
    /// Step of first derivation (0 for EDB leaves).
    pub step: usize,
    /// Sub-derivations of the premises (empty for EDB leaves).
    pub premises: Vec<Derivation>,
}

impl Derivation {
    /// True when this node is an EDB leaf (no deriving rule).
    pub fn is_edb(&self) -> bool {
        self.rule.is_none()
    }

    /// Height of the tree: 1 for a leaf.
    pub fn depth(&self) -> usize {
        1 + self
            .premises
            .iter()
            .map(Derivation::depth)
            .max()
            .unwrap_or(0)
    }

    /// Number of EDB leaves under (and including) this node.
    pub fn edb_leaves(&self) -> usize {
        if self.is_edb() {
            1
        } else {
            self.premises.iter().map(Derivation::edb_leaves).sum()
        }
    }

    /// Render the tree as indented text, EDB leaves tagged `[EDB]`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match (&self.rule, &self.rule_text) {
            (Some(rule), Some(text)) => {
                out.push_str(&format!("{pad}{}\n", self.fact));
                out.push_str(&format!(
                    "{pad}  via rule #{rule} (stratum {}, step {}): {text}\n",
                    self.stratum, self.step
                ));
                for p in &self.premises {
                    p.render_into(out, depth + 2);
                }
            }
            _ => out.push_str(&format!("{pad}{}  [EDB]\n", self.fact)),
        }
    }
}

/// Reconstruct the ground positive premises of `rule` under the complete
/// valuation `theta`, against the instance the match ran over.
///
/// Negated literals and builtins contribute no premises. Association
/// literals prefer the exact ground tuple the arguments denote; when the
/// literal only partially covers the tuple, the smallest (by `Ord`)
/// matching stored tuple is chosen so the result stays deterministic.
/// Class literals resolve to the oid bound through `self`/tuple variables.
pub(crate) fn premises_of(
    schema: &Schema,
    inst: &Instance,
    rule: &Rule,
    theta: &Subst,
) -> Vec<Fact> {
    let mut out = Vec::new();
    for lit in &rule.body {
        if lit.negated {
            continue;
        }
        let premise = match &lit.atom {
            Atom::Pred { pred, args, .. } => match schema.kind(*pred) {
                Some(PredKind::Assoc) => assoc_premise(schema, inst, *pred, args, theta),
                Some(PredKind::Class) => class_premise(schema, inst, *pred, args, theta),
                _ => None,
            },
            Atom::Member {
                elem, fun, args, ..
            } => {
                let e = eval_term(elem, theta, inst);
                let a: Option<Vec<Value>> =
                    args.iter().map(|t| eval_term(t, theta, inst)).collect();
                match (e, a) {
                    (Some(e), Some(a)) => {
                        let a: Vec<Value> = a.into_iter().map(normalize_arg).collect();
                        inst.fun_contains(*fun, &a, &e).then_some(Fact::Member {
                            fun: *fun,
                            args: a,
                            elem: e,
                        })
                    }
                    _ => None,
                }
            }
            Atom::Builtin { .. } => None,
        };
        if let Some(f) = premise {
            if !out.contains(&f) {
                out.push(f);
            }
        }
    }
    out
}

fn assoc_premise(
    schema: &Schema,
    inst: &Instance,
    pred: logres_model::Sym,
    args: &[PredArg],
    theta: &Subst,
) -> Option<Fact> {
    if let Some(tuple) = crate::matcher::ground_assoc_tuple(schema, pred, args, theta, inst) {
        if inst.has_tuple(pred, &tuple) {
            return Some(Fact::Assoc { assoc: pred, tuple });
        }
    }
    let mut best: Option<&Value> = None;
    for tuple in inst.tuples_of(pred) {
        if literal_admits_tuple(args, tuple, theta, inst) && best.is_none_or(|b| tuple < b) {
            best = Some(tuple);
        }
    }
    best.map(|t| Fact::Assoc {
        assoc: pred,
        tuple: t.clone(),
    })
}

fn literal_admits_tuple(args: &[PredArg], tuple: &Value, theta: &Subst, inst: &Instance) -> bool {
    let mut s = theta.clone();
    for arg in args {
        match arg {
            PredArg::SelfArg(_) => return false,
            PredArg::Labeled(l, t) => {
                let Some(fv) = tuple.field(*l) else {
                    return false;
                };
                let fv = fv.clone();
                if !match_term(t, &fv, &mut s, inst) {
                    return false;
                }
            }
            PredArg::TupleVar(v) => {
                if !s.unify_var(*v, tuple.clone()) {
                    return false;
                }
            }
        }
    }
    true
}

fn class_premise(
    schema: &Schema,
    inst: &Instance,
    pred: logres_model::Sym,
    args: &[PredArg],
    theta: &Subst,
) -> Option<Fact> {
    let mut oid: Option<Oid> = None;
    for arg in args {
        match arg {
            PredArg::SelfArg(t) => {
                if let Some(v) = eval_term(t, theta, inst) {
                    oid = as_oid_like(&v);
                }
            }
            PredArg::TupleVar(v) => {
                if let Some(val) = theta.get(*v) {
                    if let Some(f) = val.field(self_label()) {
                        oid = as_oid_like(f);
                    }
                }
            }
            PredArg::Labeled(..) => {}
        }
        if oid.is_some() {
            break;
        }
    }
    let oid = oid.or_else(|| {
        // No `self` binding in the literal: take the smallest oid whose
        // o-value matches every labeled argument under `theta`.
        let mut oids: Vec<Oid> = inst.oids_of(pred).collect();
        oids.sort();
        oids.into_iter().find(|&o| {
            inst.o_value_in(schema, pred, o).is_some_and(|view| {
                let mut s = theta.clone();
                args.iter().all(|arg| match arg {
                    PredArg::Labeled(l, t) => view.field(*l).is_some_and(|fv| {
                        let fv = fv.clone();
                        match_term(t, &fv, &mut s, inst)
                    }),
                    _ => true,
                })
            })
        })
    })?;
    let value = inst.o_value_in(schema, pred, oid)?;
    Some(Fact::Class {
        class: pred,
        oid,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use logres_lang::parse_program;

    fn chain_store() -> (Provenance, Vec<Fact>) {
        let p = parse_program(
            r#"
            associations
              e  = (a: integer, b: integer);
              tc = (a: integer, b: integer);
            rules
              tc(a: X, b: Y) <- e(a: X, b: Y).
              tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).
        "#,
        )
        .unwrap();
        let edge = |a: i64, b: i64| Fact::Assoc {
            assoc: logres_model::Sym::new("e"),
            tuple: Value::tuple([("a", Value::Int(a)), ("b", Value::Int(b))]),
        };
        let tc = |a: i64, b: i64| Fact::Assoc {
            assoc: logres_model::Sym::new("tc"),
            tuple: Value::tuple([("a", Value::Int(a)), ("b", Value::Int(b))]),
        };
        let mut prov = Provenance::new(&p.rules, &[vec![0, 1]]);
        prov.record(tc(0, 1), 0, 0, vec![edge(0, 1)]);
        prov.record(tc(1, 2), 0, 0, vec![edge(1, 2)]);
        prov.record(tc(0, 2), 1, 1, vec![tc(0, 1), edge(1, 2)]);
        (prov, vec![tc(0, 2), edge(0, 1)])
    }

    #[test]
    fn explain_walks_to_edb() {
        let (prov, facts) = chain_store();
        let d = prov.explain(&facts[0]);
        assert_eq!(d.rule, Some(1));
        assert_eq!(d.depth(), 3);
        assert_eq!(d.edb_leaves(), 2);
        let text = d.render();
        assert!(text.contains("via rule #1 (stratum 0, step 1)"));
        assert_eq!(text.matches("[EDB]").count(), 2);
    }

    #[test]
    fn edb_facts_are_leaves() {
        let (prov, facts) = chain_store();
        let d = prov.explain(&facts[1]);
        assert!(d.is_edb());
        assert_eq!(d.depth(), 1);
        assert!(d.render().contains("[EDB]"));
    }

    #[test]
    fn first_derivation_wins() {
        let (mut prov, facts) = chain_store();
        prov.record(facts[0].clone(), 0, 9, Vec::new());
        assert_eq!(prov.entry(&facts[0]).unwrap().step, 1);
    }

    #[test]
    fn rules_keep_canonical_indices_and_their_strata() {
        let p = parse_program(
            r#"
            associations
              e = (a: integer);
              f = (a: integer);
              g = (a: integer);
            rules
              g(a: X) <- e(a: X), not f(a: X).
              f(a: X) <- e(a: X).
        "#,
        )
        .unwrap();
        let prov = Provenance::new(&p.rules, &[vec![1], vec![0]]);
        assert_eq!(
            prov.rule_text(0),
            Some(p.rules.rules[0].to_string().as_str())
        );
        assert_eq!((prov.stratum(0), prov.stratum(1)), (1, 0));
    }
}
