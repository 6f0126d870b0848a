//! The one-step inflationary operator of Appendix B.
//!
//! One application computes
//!
//! * `Δ⁺(R, F)` — head instantiations of positive-head rules whose body
//!   valuation is in the valuation domain `VD(R, F)` (Definition 7: the
//!   head must not already be satisfiable by any extension of the
//!   valuation);
//! * `Δ⁻(R, F)` — head instantiations of negative-head rules whose body
//!   holds and whose head fact is currently present;
//!
//! and the successor
//! `F' = ((F ⊕ Δ⁺) − Δ⁻) ⊕ (F ∩ Δ⁺ ∩ Δ⁻)` — facts both derived and
//! deleted in the same step survive only if they were already in `F`.
//!
//! Oid invention follows Definition 8: at most one fresh oid per
//! (rule, body-valuation), tracked by [`InventionMemo`]; an unbound head
//! variable of a class type other than the head's own class becomes `nil`
//! (case c).
//!
//! [`OneStep::deltas_governed`] computes both sets in one serial loop over
//! the rules in canonical order and only reads `F`; [`OneStep::apply`]
//! writes the successor afterwards, so every rule of a step sees the same
//! `F` — the step is one simultaneous application.

use logres_lang::{Atom, PredArg, Rule, RuleSet};
use logres_model::{Fact, Instance, Oid, OidGen, PredKind, Schema, Sym, TypeDesc, Value};
use rustc_hash::{FxHashMap, FxHashSet};

use crate::binding::{as_oid_like, eval_term, normalize_arg, self_label, strip_self, Subst};
use crate::error::EngineError;
use crate::governor::Governor;
use crate::inflationary::IterationStats;
use crate::matcher::{eval_body, BodyView};
use crate::trace::{self, TraceEvent};

/// One invented oid per (rule index, canonical body valuation) —
/// Definition 8(b)'s uniqueness condition.
#[derive(Debug, Default)]
pub struct InventionMemo {
    map: FxHashMap<(usize, Vec<(Sym, Value)>), Oid>,
}

impl InventionMemo {
    /// Fresh memo.
    pub fn new() -> InventionMemo {
        InventionMemo::default()
    }

    fn get_or_invent(&mut self, rule: usize, valuation: &Subst, gen: &mut OidGen) -> Oid {
        *self
            .map
            .entry((rule, valuation.canonical()))
            .or_insert_with(|| gen.fresh())
    }

    /// Number of memoized inventions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the memo empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The derived positive and negative fact sets of one step.
#[derive(Debug, Default)]
pub struct DeltaSets {
    /// `Δ⁺`: facts to add.
    pub plus: Vec<Fact>,
    /// `Δ⁻`: facts to delete.
    pub minus: Vec<Fact>,
    /// Satisfying body valuations found across all rules this step (before
    /// the valuation-domain check filters already-satisfied heads).
    pub firings: usize,
    /// Fresh oids invented this step.
    pub invented: usize,
    /// Total [`Value::node_count`] of the `Δ⁺` facts — what the governor
    /// charges against its value-node budget.
    pub plus_nodes: usize,
    /// Set when a governor poll tripped before a rule; the deltas are then
    /// incomplete and must not be applied.
    pub cancelled: bool,
}

impl DeltaSets {
    /// Neither additions nor deletions?
    pub fn is_empty(&self) -> bool {
        self.plus.is_empty() && self.minus.is_empty()
    }
}

/// The one-step operator, bundling the pieces that persist across steps.
pub struct OneStep<'a> {
    /// The schema rules are typed against.
    pub schema: &'a Schema,
    /// The rule set `R`.
    pub rules: &'a RuleSet,
    /// Invention memo (one oid per rule × valuation), kept across steps.
    pub memo: InventionMemo,
    /// Fresh-oid source.
    pub gen: OidGen,
}

impl<'a> OneStep<'a> {
    /// Set up for a run starting from `edb` (the oid generator resumes past
    /// existing oids).
    pub fn new(schema: &'a Schema, rules: &'a RuleSet, edb: &Instance) -> OneStep<'a> {
        OneStep {
            schema,
            rules,
            memo: InventionMemo::new(),
            gen: edb.oid_gen(),
        }
    }

    /// Compute `Δ⁺(R, F)` and `Δ⁻(R, F)` over the rules `rules` (canonical
    /// indices) for the current round of `gov`'s run.
    ///
    /// One serial loop takes each rule in canonical order: poll `gov`,
    /// match the body against `inst`, instantiate the head for every
    /// valuation, and fold the rule's share into `gov` (its profile, its
    /// metrics and, when the run keeps it, provenance). Head instantiation
    /// reads `inst` only, so every rule sees the round's starting instance
    /// (Appendix B's simultaneous step) and the invention memo and oid
    /// generator are consumed in canonical (rule, valuation) order. When a
    /// poll trips, the returned sets carry `cancelled = true` and hold the
    /// rules matched before it.
    pub fn deltas_governed(
        &mut self,
        inst: &Instance,
        rules: &[usize],
        gov: &mut Governor,
    ) -> Result<DeltaSets, EngineError> {
        let step = gov.step();
        let mut out = DeltaSets::default();
        let mut plus_seen: FxHashSet<Fact> = FxHashSet::default();
        let mut minus_seen: FxHashSet<Fact> = FxHashSet::default();

        for &idx in rules {
            if gov.poll(idx) {
                out.cancelled = true;
                break;
            }
            let rule = &self.rules.rules[idx];
            let start = std::time::Instant::now();
            let view = BodyView::plain(inst).with_tally(gov.tally());
            let thetas = eval_body(self.schema, view, &rule.body, Subst::new())?;
            let mut stats = IterationStats {
                match_nanos: start.elapsed().as_nanos() as u64,
                ..IterationStats::default()
            };
            for theta in thetas {
                out.firings += 1;
                stats.firings += 1;
                let memo_before = self.memo.len();
                let facts = instantiate_head(
                    self.schema,
                    inst,
                    rule,
                    idx,
                    &theta,
                    &mut self.memo,
                    &mut self.gen,
                )?;
                if self.memo.len() > memo_before {
                    stats.invented += 1;
                    if let Some(Fact::Class { oid, .. }) = facts.first() {
                        let oid = *oid;
                        trace::emit(gov.tracer(), || TraceEvent::Invention {
                            step,
                            rule: idx,
                            oid: oid.0,
                        });
                        if let Some(p) = gov.provenance() {
                            p.record_invention(oid, idx, step);
                        }
                    }
                }
                let premises =
                    if gov.provenance().is_some() && !rule.head.negated && !facts.is_empty() {
                        crate::provenance::premises_of(self.schema, inst, rule, &theta)
                    } else {
                        Vec::new()
                    };
                for f in facts {
                    if rule.head.negated {
                        if minus_seen.insert(f.clone()) {
                            stats.deleted += 1;
                            out.minus.push(f);
                        }
                    } else if plus_seen.insert(f.clone()) {
                        stats.derived += 1;
                        out.plus_nodes += fact_nodes(&f);
                        if let Some(p) = gov.provenance() {
                            p.record(f.clone(), idx, step, premises.clone());
                        }
                        out.plus.push(f);
                    }
                }
            }
            out.invented += stats.invented;
            gov.record_rule(idx, &stats);
        }
        Ok(out)
    }

    /// Apply `F' = ((F ⊕ Δ⁺) − Δ⁻) ⊕ (F ∩ Δ⁺ ∩ Δ⁻)`. Returns whether
    /// anything changed.
    pub fn apply(&self, inst: &mut Instance, deltas: &DeltaSets) -> bool {
        // F ∩ Δ⁺ ∩ Δ⁻, captured before mutation.
        let minus_set: FxHashSet<&Fact> = deltas.minus.iter().collect();
        let protected: Vec<Fact> = deltas
            .plus
            .iter()
            .filter(|f| minus_set.contains(*f) && inst.contains_fact(self.schema, f))
            .cloned()
            .collect();

        let mut changed = false;
        for f in &deltas.plus {
            changed |= inst.insert_fact(self.schema, f);
        }
        for f in &deltas.minus {
            changed |= inst.remove_fact(self.schema, f);
        }
        for f in &protected {
            changed |= inst.insert_fact(self.schema, f);
        }
        changed
    }
}

/// Instantiate the head of a rule under a body valuation, enforcing the
/// valuation-domain condition. Usually yields zero or one facts; a deleting
/// association head with partially specified attributes yields one fact per
/// matching stored tuple.
pub fn instantiate_head(
    schema: &Schema,
    inst: &Instance,
    rule: &Rule,
    rule_idx: usize,
    theta: &Subst,
    memo: &mut InventionMemo,
    gen: &mut OidGen,
) -> Result<Vec<Fact>, EngineError> {
    match &rule.head.atom {
        Atom::Pred { pred, args, .. } => match schema.kind(*pred) {
            Some(PredKind::Class) => {
                instantiate_class_head(schema, inst, rule, rule_idx, *pred, args, theta, memo, gen)
            }
            Some(PredKind::Assoc) => instantiate_assoc_head(schema, inst, rule, *pred, args, theta),
            _ => Err(EngineError::UnknownPredicate(*pred)),
        },
        Atom::Member {
            elem, fun, args, ..
        } => {
            let e = eval_term(elem, theta, inst)
                .map(normalize_arg)
                .ok_or_else(|| EngineError::Unevaluable {
                    detail: format!("member head element of rule {rule}"),
                })?;
            let a: Vec<Value> = args
                .iter()
                .map(|t| {
                    eval_term(t, theta, inst).map(normalize_arg).ok_or_else(|| {
                        EngineError::Unevaluable {
                            detail: format!("member head argument of rule {rule}"),
                        }
                    })
                })
                .collect::<Result<_, _>>()?;
            let present = inst.fun_contains(*fun, &a, &e);
            let fires = if rule.head.negated { present } else { !present };
            Ok(if fires {
                vec![Fact::Member {
                    fun: *fun,
                    args: a,
                    elem: e,
                }]
            } else {
                vec![]
            })
        }
        Atom::Builtin { .. } => Err(EngineError::Unevaluable {
            detail: "builtin head".to_owned(),
        }),
    }
}

#[allow(clippy::too_many_arguments)]
fn instantiate_class_head(
    schema: &Schema,
    inst: &Instance,
    rule: &Rule,
    rule_idx: usize,
    class: Sym,
    args: &[PredArg],
    theta: &Subst,
    memo: &mut InventionMemo,
    gen: &mut OidGen,
) -> Result<Vec<Fact>, EngineError> {
    let eff = schema
        .effective(class)
        .cloned()
        .ok_or(EngineError::UnknownPredicate(class))?;
    let expanded = schema.expand(&eff);
    let attr_labels: Vec<Sym> = expanded
        .as_tuple()
        .map(|fs| fs.iter().map(|f| f.label).collect())
        .unwrap_or_default();

    // Attribute values from labeled args and spread tuple variables;
    // candidate oid from an explicit self arg or a same-hierarchy tuple var.
    let mut fields: Vec<(Sym, Value)> = Vec::new();
    let mut oid: Option<Oid> = None;
    let mut invent = false;

    for arg in args {
        match arg {
            PredArg::SelfArg(t) => match eval_term(t, theta, inst) {
                Some(v) => match as_oid_like(&v) {
                    Some(o) => oid = Some(o),
                    None => {
                        return Err(EngineError::Unevaluable {
                            detail: format!("head self argument bound to non-oid in {rule}"),
                        })
                    }
                },
                None => invent = true, // unbound self → invention
            },
            PredArg::Labeled(l, t) => {
                let attr_ty = expanded.field(*l);
                match eval_term(t, theta, inst) {
                    Some(v) => {
                        let v = match attr_ty {
                            Some(ty) => coerce_value(schema, v, ty),
                            None => v,
                        };
                        fields.push((*l, v));
                    }
                    None => {
                        // Definition 8(c): unbound head variable of a class
                        // type (other than the head's own) becomes nil.
                        if matches!(attr_ty, Some(TypeDesc::Class(_))) {
                            fields.push((*l, Value::Nil));
                        } else {
                            return Err(EngineError::Unevaluable {
                                detail: format!("unbound head argument `{l}` in {rule}"),
                            });
                        }
                    }
                }
            }
            PredArg::TupleVar(v) => {
                let bound = theta
                    .get(*v)
                    .cloned()
                    .ok_or_else(|| EngineError::Unevaluable {
                        detail: format!("unbound head tuple variable `{v}` in {rule}"),
                    })?;
                // Same-hierarchy source object: the head object *is* that
                // object (Section 3.1 case b). Otherwise only values copy.
                if let Some(o) = bound.field(self_label()).and_then(Value::as_oid) {
                    let src_class = inst_class_of(inst, schema, o);
                    if let Some(src) = src_class {
                        if schema.same_hierarchy(src, class) {
                            oid = Some(o);
                        }
                    }
                }
                let stripped = strip_self(&bound);
                if let Some(fs) = stripped.as_tuple() {
                    for (l, v) in fs {
                        if attr_labels.contains(l) {
                            fields.push((*l, v.clone()));
                        }
                    }
                }
            }
        }
    }

    let value = Value::tuple(dedup_fields(fields));

    if rule.head.negated {
        // Deletion: fires only on a present fact.
        let Some(o) = oid else {
            return Err(EngineError::Unevaluable {
                detail: format!("deleting head without a bound oid in {rule}"),
            });
        };
        let fact = Fact::Class {
            class,
            oid: o,
            value,
        };
        return Ok(if inst.contains_fact(schema, &fact) {
            vec![fact]
        } else {
            vec![]
        });
    }

    match oid {
        Some(o) => {
            let fact = Fact::Class {
                class,
                oid: o,
                value,
            };
            Ok(if inst.contains_fact(schema, &fact) {
                vec![] // VD: head already satisfied
            } else {
                vec![fact]
            })
        }
        None => {
            if !invent && !args.iter().any(|a| matches!(a, PredArg::SelfArg(_))) {
                // No self argument at all: still an invention head
                // (anonymous object), e.g. `ip(emp: E, mgr: M) <- …`.
                invent = true;
            }
            debug_assert!(invent);
            // VD for invention: an extension θ' could map the head oid to an
            // existing object of the class with exactly these attribute
            // values — then the head is already satisfiable and the rule
            // must not fire (this is what stops repeated invention).
            let exists = inst.oids_of(class).any(|o| {
                inst.contains_fact(
                    schema,
                    &Fact::Class {
                        class,
                        oid: o,
                        value: value.clone(),
                    },
                )
            });
            if exists {
                return Ok(vec![]);
            }
            let o = memo.get_or_invent(rule_idx, theta, gen);
            Ok(vec![Fact::Class {
                class,
                oid: o,
                value,
            }])
        }
    }
}

fn instantiate_assoc_head(
    schema: &Schema,
    inst: &Instance,
    rule: &Rule,
    assoc: Sym,
    args: &[PredArg],
    theta: &Subst,
) -> Result<Vec<Fact>, EngineError> {
    let ty = schema
        .assoc_type(assoc)
        .cloned()
        .ok_or(EngineError::UnknownPredicate(assoc))?;
    let expanded = schema.expand(&ty);
    let attr_labels: Vec<Sym> = expanded
        .as_tuple()
        .map(|fs| fs.iter().map(|f| f.label).collect())
        .unwrap_or_default();

    let mut fields: Vec<(Sym, Value)> = Vec::new();
    for arg in args {
        match arg {
            PredArg::SelfArg(_) => {
                return Err(EngineError::Unevaluable {
                    detail: format!("self argument on association head in {rule}"),
                })
            }
            PredArg::Labeled(l, t) => {
                let attr_ty = expanded.field(*l);
                match eval_term(t, theta, inst) {
                    Some(v) => {
                        let v = match attr_ty {
                            Some(ty) => coerce_value(schema, v, ty),
                            None => v,
                        };
                        fields.push((*l, v));
                    }
                    None => {
                        if matches!(attr_ty, Some(TypeDesc::Class(_))) {
                            fields.push((*l, Value::Nil));
                        } else {
                            return Err(EngineError::Unevaluable {
                                detail: format!("unbound head argument `{l}` in {rule}"),
                            });
                        }
                    }
                }
            }
            PredArg::TupleVar(v) => {
                let bound = theta
                    .get(*v)
                    .cloned()
                    .ok_or_else(|| EngineError::Unevaluable {
                        detail: format!("unbound head tuple variable `{v}` in {rule}"),
                    })?;
                let stripped = strip_self(&bound);
                if let Some(fs) = stripped.as_tuple() {
                    for (l, val) in fs {
                        if attr_labels.contains(l) {
                            fields.push((*l, val.clone()));
                        }
                    }
                }
            }
        }
    }
    let fields = dedup_fields(fields);

    if rule.head.negated {
        // Deletion: expand a partially specified tuple to every matching
        // stored tuple.
        let full = fields.len() == attr_labels.len();
        if full {
            let tuple = Value::tuple(fields);
            return Ok(if inst.has_tuple(assoc, &tuple) {
                vec![Fact::Assoc { assoc, tuple }]
            } else {
                vec![]
            });
        }
        let mut out = Vec::new();
        for t in inst.tuples_of(assoc) {
            if fields.iter().all(|(l, v)| t.field(*l) == Some(v)) {
                out.push(Fact::Assoc {
                    assoc,
                    tuple: t.clone(),
                });
            }
        }
        return Ok(out);
    }

    let tuple = Value::tuple(fields);
    Ok(if inst.has_tuple(assoc, &tuple) {
        vec![] // VD: already present
    } else {
        vec![Fact::Assoc { assoc, tuple }]
    })
}

/// Coerce a head value to its attribute type: class positions take the oid
/// out of tagged tuple-variable bindings, recursively through tuple and
/// collection constructors (`base_players: <B1, B2>` must store oids, not
/// the players' visible tuples).
fn coerce_value(schema: &Schema, v: Value, ty: &TypeDesc) -> Value {
    match ty {
        TypeDesc::Class(_) => normalize_arg(v),
        TypeDesc::Domain(d) => match schema.domain_type(*d) {
            Some(inner) => {
                let inner = inner.clone();
                coerce_value(schema, v, &inner)
            }
            None => v,
        },
        TypeDesc::Set(e) => match v {
            Value::Set(s) => {
                Value::Set(s.into_iter().map(|x| coerce_value(schema, x, e)).collect())
            }
            other => other,
        },
        TypeDesc::Multiset(e) => match v {
            Value::Multiset(m) => Value::Multiset(
                m.into_iter()
                    .map(|(x, n)| (coerce_value(schema, x, e), n))
                    .collect(),
            ),
            other => other,
        },
        TypeDesc::Seq(e) => match v {
            Value::Seq(q) => {
                Value::Seq(q.into_iter().map(|x| coerce_value(schema, x, e)).collect())
            }
            other => other,
        },
        TypeDesc::Tuple(fs) => match v {
            Value::Tuple(vfs) => Value::Tuple(
                vfs.into_iter()
                    .map(|(l, x)| match fs.iter().find(|f| f.label == l) {
                        Some(f) => (l, coerce_value(schema, x, &f.ty)),
                        None => (l, x),
                    })
                    .collect(),
            ),
            other => other,
        },
        TypeDesc::Int | TypeDesc::Str => v,
    }
}

/// Value-node footprint of one fact — what the governor's memory budget
/// charges (class facts add one node for the oid itself).
pub(crate) fn fact_nodes(f: &Fact) -> usize {
    match f {
        Fact::Class { value, .. } => 1 + value.node_count(),
        Fact::Assoc { tuple, .. } => tuple.node_count(),
        Fact::Member { args, elem, .. } => {
            args.iter().map(Value::node_count).sum::<usize>() + elem.node_count()
        }
    }
}

/// Later duplicates of a label win (`⊕`-style right bias for tuple-variable
/// spreads overlaid by explicit labeled arguments).
fn dedup_fields(fields: Vec<(Sym, Value)>) -> Vec<(Sym, Value)> {
    let mut out: Vec<(Sym, Value)> = Vec::new();
    for (l, v) in fields {
        if let Some(slot) = out.iter_mut().find(|(ol, _)| *ol == l) {
            slot.1 = v;
        } else {
            out.push((l, v));
        }
    }
    out
}

/// Any class containing this oid (used to locate the hierarchy of a tuple
/// variable's source object).
fn inst_class_of(inst: &Instance, schema: &Schema, oid: Oid) -> Option<Sym> {
    let mut classes: Vec<Sym> = schema.classes().collect();
    classes.sort();
    classes.into_iter().find(|c| inst.is_member(*c, oid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::load_facts;
    use logres_lang::parse_program;

    fn setup(src: &str) -> (Schema, Instance, RuleSet) {
        let p = parse_program(src).expect("parses");
        let mut inst = Instance::new();
        let mut gen = OidGen::new();
        load_facts(&p.schema, &mut inst, &p.facts, &mut gen).expect("loads");
        (p.schema, inst, p.rules)
    }

    /// One serial application of every rule, outside any run.
    fn deltas(step: &mut OneStep, inst: &Instance) -> DeltaSets {
        let opts = crate::EvalOptions::default();
        let rules = step.rules;
        let mut gov = Governor::open("test", &opts, &rules.rules, rules.rules.len(), 0);
        let all: Vec<usize> = (0..rules.rules.len()).collect();
        step.deltas_governed(inst, &all, &mut gov).unwrap()
    }

    #[test]
    fn deltas_respect_the_valuation_domain() {
        let (schema, inst, rules) = setup(
            r#"
            associations
              e  = (a: integer, b: integer);
              tc = (a: integer, b: integer);
            facts
              e(a: 1, b: 2).
            rules
              tc(a: X, b: Y) <- e(a: X, b: Y).
        "#,
        );
        let mut step = OneStep::new(&schema, &rules, &inst);
        let d1 = deltas(&mut step, &inst);
        assert_eq!(d1.plus.len(), 1);
        let mut next = inst.clone();
        assert!(step.apply(&mut next, &d1));
        // Second step: the head is satisfied, VD blocks refiring.
        let d2 = deltas(&mut step, &next);
        assert!(d2.is_empty());
    }

    #[test]
    fn negative_heads_delete_present_facts_only() {
        let (schema, inst, rules) = setup(
            r#"
            associations
              p = (d: integer);
            facts
              p(d: 1).
              p(d: 2).
            rules
              -p(d: X) <- p(d: X), even(X).
        "#,
        );
        let mut step = OneStep::new(&schema, &rules, &inst);
        let d = deltas(&mut step, &inst);
        assert_eq!(d.minus.len(), 1);
        let mut next = inst.clone();
        step.apply(&mut next, &d);
        assert_eq!(next.assoc_len(Sym::new("p")), 1);
        // Re-running: nothing left to delete.
        let d2 = deltas(&mut step, &next);
        assert!(d2.is_empty());
    }

    #[test]
    fn simultaneous_add_and_delete_protects_old_facts() {
        // p(1) is both deleted and rederived in the same step; because it
        // was in F, the intersection term `F ∩ Δ⁺ ∩ Δ⁻` keeps it.
        let (schema, inst, rules) = setup(
            r#"
            associations
              p = (d: integer);
              q = (d: integer);
            facts
              p(d: 1).
              q(d: 1).
            rules
              -p(d: X) <- q(d: X).
              p(d: X) <- q(d: X).
        "#,
        );
        let mut step = OneStep::new(&schema, &rules, &inst);
        let d = deltas(&mut step, &inst);
        // The positive rule is VD-blocked (p(1) present) so Δ⁺ is empty and
        // the deletion wins — matching the operator exactly.
        assert!(d.plus.is_empty());
        assert_eq!(d.minus.len(), 1);
        let mut next = inst.clone();
        step.apply(&mut next, &d);
        assert_eq!(next.assoc_len(Sym::new("p")), 0);
    }

    #[test]
    fn invention_creates_one_object_per_valuation() {
        // Example 3.4: one IP object per interesting pair.
        let (schema, inst, rules) = setup(
            r#"
            classes
              ip = (emp: string, mgr: string);
            associations
              pair = (emp: string, mgr: string);
            facts
              pair(emp: "e1", mgr: "m1").
              pair(emp: "e2", mgr: "m2").
            rules
              ip(self: X, C) <- pair(C).
        "#,
        );
        let mut step = OneStep::new(&schema, &rules, &inst);
        let d = deltas(&mut step, &inst);
        assert_eq!(d.plus.len(), 2);
        let mut next = inst.clone();
        step.apply(&mut next, &d);
        assert_eq!(next.class_len(Sym::new("ip")), 2);
        // Refiring invents nothing: existing objects satisfy the head.
        let d2 = deltas(&mut step, &next);
        assert!(d2.is_empty(), "unexpected deltas: {:?}", d2.plus);
    }

    #[test]
    fn invention_memo_is_stable_per_valuation() {
        let (schema, inst, rules) = setup(
            r#"
            classes
              c = (n: integer);
            associations
              src = (n: integer);
            facts
              src(n: 5).
            rules
              c(self: X, n: N) <- src(n: N).
        "#,
        );
        let mut step = OneStep::new(&schema, &rules, &inst);
        let d1 = deltas(&mut step, &inst);
        let d1b = deltas(&mut step, &inst);
        // Recomputing deltas over the same F reuses the same invented oid.
        assert_eq!(d1.plus, d1b.plus);
        assert_eq!(step.memo.len(), 1);
    }

    #[test]
    fn unbound_class_typed_head_vars_become_nil() {
        let (schema, inst, rules) = setup(
            r#"
            classes
              prof   = (name: string);
              school = (sname: string, dean: prof);
            associations
              src = (s: string);
            facts
              src(s: "pdm").
            rules
              school(self: X, sname: N, dean: D) <- src(s: N).
        "#,
        );
        let mut step = OneStep::new(&schema, &rules, &inst);
        let d = deltas(&mut step, &inst);
        assert_eq!(d.plus.len(), 1);
        match &d.plus[0] {
            Fact::Class { value, .. } => {
                assert_eq!(value.field(Sym::new("dean")), Some(&Value::Nil));
            }
            other => panic!("expected class fact, got {other}"),
        }
    }

    #[test]
    fn partial_deleting_assoc_heads_expand_to_matches() {
        let (schema, inst, rules) = setup(
            r#"
            associations
              p = (d1: integer, d2: integer);
              kill = (d1: integer);
            facts
              p(d1: 1, d2: 10).
              p(d1: 1, d2: 20).
              p(d1: 2, d2: 30).
              kill(d1: 1).
            rules
              -p(d1: X) <- kill(d1: X).
        "#,
        );
        let mut step = OneStep::new(&schema, &rules, &inst);
        let d = deltas(&mut step, &inst);
        assert_eq!(d.minus.len(), 2);
        let mut next = inst.clone();
        step.apply(&mut next, &d);
        assert_eq!(next.assoc_len(Sym::new("p")), 1);
    }

    #[test]
    fn member_heads_populate_functions() {
        let (schema, inst, rules) = setup(
            r#"
            classes
              person = (name: string);
            associations
              parent = (par: string, chil: string);
            functions
              children: string -> {string};
            facts
              parent(par: "a", chil: "b").
            rules
              member(X, children(Y)) <- parent(par: Y, chil: X).
        "#,
        );
        let mut step = OneStep::new(&schema, &rules, &inst);
        let d = deltas(&mut step, &inst);
        assert_eq!(d.plus.len(), 1);
        let mut next = inst.clone();
        step.apply(&mut next, &d);
        assert!(next.fun_contains(Sym::new("children"), &[Value::str("a")], &Value::str("b")));
    }
}
