//! Incremental view maintenance for module application (Section 4.2).
//!
//! Full module application reruns a fixpoint over the whole state, so every
//! write is O(database). This module makes the data-variant modes
//! (RIDV/RADV/RDDV) cost O(change) on the *maintainable fragment*: the
//! semi-naive fragment further restricted to invertible heads
//! ([`maintainable`]). Both fragments are read off each rule's
//! [`RuleShape`], the analysis the magic rewrite and the lints share.
//!
//! Strategy, per maintenance stratum (a strongly connected component of the
//! active rules' [`DepGraph`], the graph stratification and the lints
//! share, producers first):
//!
//! * **non-recursive strata — counting-style recount.** Every fact whose
//!   support may have changed is re-checked for *some* derivation by
//!   inverting each rule head against the fact's tuple (`bind_head`) and
//!   evaluating the body over the current instance. Facts with no remaining
//!   derivation (and no extensional backing) are removed and their
//!   dependents pended into later strata.
//! * **recursive strata — Delete-and-Rederive (DRed).** Overdelete the
//!   transitive support closure of the candidates through the recorded
//!   derivation edges, then rederive: a head-inversion pass over the
//!   overdeleted set seeds a semi-naive delta iteration confined (by the
//!   valuation-domain condition) to facts that were actually overdeleted.
//! * **insertions** run classic incremental semi-naive: a rule new to the
//!   view first fires over the whole instance (round 0), then each rule
//!   fires once per body position bound to the delta of genuinely new
//!   facts, per round, until the delta drains. The matcher expands the
//!   delta literal first and probes the view instance's indexes, which
//!   updates maintain in place, so a round costs O(|delta| × fan-out).
//!
//! The support graph ([`MaterializedView`]) records, for every derived fact,
//! the rule and premises of the round that first inserted it, which makes
//! the premise DAG acyclic. A view derives itself with the same insertion
//! rounds: [`MaterializedView::build`] starts from the EDB and treats every
//! rule as new.
//!
//! Each of the four phases — seeding new rules, a delta round, the recount
//! and the rederive — first matches every rule or fact against a snapshot
//! of the view, in one serial loop that polls the pass's [`Governor`], and
//! only then merges, serially in canonical rule and [`Fact`] order: the
//! merges write the instance the matches read, so a match must not see an
//! earlier merge of its own phase. The whole pass is deterministic — the
//! same contract the fixpoint drivers give.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use logres_lang::analyze::{DepGraph, HeadWrite, RuleShape};
use logres_lang::{Atom, PredArg, Rule, RuleSet};
use logres_model::{Fact, Instance, OidGen, PredKind, Schema, Sym, Value};
use rustc_hash::{FxHashMap, FxHashSet};

use crate::binding::{match_term, Subst};
use crate::delta::{fact_nodes, instantiate_head, InventionMemo};
use crate::error::EngineError;
use crate::governor::Governor;
use crate::inflationary::{EvalOptions, EvalReport, IterationStats, RuleProfile};
use crate::matcher::{eval_body, BodyView};
use crate::provenance::premises_of;
use crate::stratified::{evaluate, Semantics};

/// Is the rule set inside the semi-naive fragment: positive heads over
/// associations, positive bodies over associations and builtins — no
/// negation, no classes, no data-function reads, no deletions? This is the
/// fragment the insertion rounds below evaluate. Each rule's
/// [`RuleShape`] decides.
pub fn seminaive_applicable(schema: &Schema, rules: &RuleSet) -> bool {
    rules
        .rules
        .iter()
        .all(|r| in_seminaive_fragment(&RuleShape::of(schema, r)))
}

fn in_seminaive_fragment(shape: &RuleShape) -> bool {
    !shape.deletes
        && shape.head == HeadWrite::Tuple
        && !shape.negates
        && !shape.reads_class
        && !shape.reads_function
}

/// Evaluate a rule set inside the semi-naive fragment under inflationary
/// semantics (the compiled path when [`EvalOptions::compiled`] is on).
/// Errors with [`EngineError::UnsupportedFragment`] outside the fragment.
/// Kept, with its signature, for the `perfbench` replay, which calls it.
pub fn evaluate_seminaive(
    schema: &Schema,
    rules: &RuleSet,
    edb: &Instance,
    opts: EvalOptions,
) -> Result<(Instance, EvalReport), EngineError> {
    if !seminaive_applicable(schema, rules) {
        return Err(EngineError::UnsupportedFragment {
            detail: "semi-naive evaluation needs positive association rules".to_owned(),
        });
    }
    evaluate(schema, rules, edb, Semantics::Inflationary, opts)
}

/// Is the rule set inside the maintainable fragment?
///
/// The semi-naive fragment ([`seminaive_applicable`]) further restricted
/// to *invertible* heads ([`RuleShape::invertible_head`]) — so a stored
/// tuple determines the head valuation exactly and recounting a fact
/// reduces to one body evaluation — and to rules where no term computes a
/// value: support-graph recounting treats body valuations as joins over
/// stored tuples, so `f(X)` or `X * 2` pushes a program out. Oid invention
/// (class heads) is already outside the semi-naive fragment; programs
/// outside take the full-rederivation path.
pub fn maintainable(schema: &Schema, rules: &RuleSet) -> bool {
    rules.rules.iter().all(|r| {
        let shape = RuleShape::of(schema, r);
        in_seminaive_fragment(&shape) && shape.invertible_head && !shape.computes
    })
}

/// Is this a *ground batch rule* — an empty-body association rule whose
/// head is fully ground? These are the module rules the data-variant modes
/// use as fact insertions (`p(a: 1) <- .`) and deletions (`-p(a: 1) <- .`).
pub fn is_ground_batch_rule(schema: &Schema, rule: &Rule) -> bool {
    rule.body.is_empty()
        && match &rule.head.atom {
            Atom::Pred { pred, args, .. } => {
                schema.kind(*pred) == Some(PredKind::Assoc)
                    && args.iter().all(|a| matches!(a, PredArg::Labeled(..)))
                    && rule.head.atom.vars().is_empty()
                    && rule.head.atom.functions().is_empty()
            }
            _ => false,
        }
}

/// The extensional effect of a batch of ground rules.
#[derive(Debug, Clone, Default)]
pub struct BatchEffect {
    /// Facts the batch inserts (absent from the base instance).
    pub inserted: Vec<Fact>,
    /// Facts the batch deletes (present in the base instance).
    pub deleted: Vec<Fact>,
    /// One profile entry per batch rule, for report synthesis.
    pub profiles: Vec<RuleProfile>,
}

/// Evaluate a batch of ground rules against `base` in one pass.
///
/// A conflict-free ground batch reaches its fixpoint in a single step:
/// insertions do not read the database (the valuation-domain condition only
/// skips already-present facts) and deletions expand against the stored
/// extension. The effect is exact for batches where no deleting rule
/// matches an inserted fact — check with [`batch_conflicts`].
pub fn apply_batch(
    schema: &Schema,
    rules: &[&Rule],
    base: &Instance,
) -> Result<BatchEffect, EngineError> {
    let mut memo = InventionMemo::new();
    let mut gen = base.oid_gen();
    let mut effect = BatchEffect::default();
    for (i, rule) in rules.iter().enumerate() {
        let facts = instantiate_head(schema, base, rule, i, &Subst::new(), &mut memo, &mut gen)?;
        let mut profile = RuleProfile {
            rule: rule.to_string(),
            firings: 1,
            ..RuleProfile::default()
        };
        let out = if rule.head.negated {
            &mut effect.deleted
        } else {
            &mut effect.inserted
        };
        for f in facts {
            if !out.contains(&f) {
                out.push(f);
                if rule.head.negated {
                    profile.deleted += 1;
                } else {
                    profile.derived += 1;
                }
            }
        }
        effect.profiles.push(profile);
    }
    Ok(effect)
}

/// Would any deleting rule of the batch fire against the batch's own
/// insertions? Checked against a probe instance holding exactly the
/// inserted facts, so coercion behaves as in real evaluation. A conflicting
/// batch is order-sensitive and falls back to full rederivation.
pub fn batch_conflicts(
    schema: &Schema,
    deleting: &[&Rule],
    effect: &BatchEffect,
) -> Result<bool, EngineError> {
    if deleting.is_empty() || effect.inserted.is_empty() {
        return Ok(false);
    }
    let mut probe = Instance::new();
    for f in &effect.inserted {
        probe.insert_fact(schema, f);
    }
    let mut memo = InventionMemo::new();
    let mut gen = probe.oid_gen();
    for (i, rule) in deleting.iter().enumerate() {
        if !instantiate_head(schema, &probe, rule, i, &Subst::new(), &mut memo, &mut gen)?
            .is_empty()
        {
            return Ok(true);
        }
    }
    Ok(false)
}

/// A materialized instance plus the support graph maintenance needs:
/// for every derived fact, the rule and ground premises of its first
/// derivation, the reverse (dependents) index, and a per-rule index for
/// rule deletion (RDDV).
///
/// Rules are append-only with an `active` tombstone per slot, so recorded
/// rule indices stay stable across rule deletion and re-addition.
#[derive(Debug, Clone)]
pub struct MaterializedView {
    inst: Instance,
    rules: Vec<Rule>,
    active: Vec<bool>,
    /// fact -> (rule index, ground positive premises) of its recorded
    /// derivation. Extensionally-backed facts carry no entry.
    support: FxHashMap<Fact, (usize, Vec<Fact>)>,
    /// premise fact -> facts whose recorded derivation uses it.
    dependents: FxHashMap<Fact, FxHashSet<Fact>>,
    /// rule index -> facts whose recorded derivation uses the rule.
    by_rule: FxHashMap<usize, FxHashSet<Fact>>,
}

impl MaterializedView {
    /// Build a view by deriving it from the EDB with the insertion rounds
    /// every update runs: per maintenance stratum, round 0 fires each rule
    /// over the whole instance and the delta rounds run to the fixpoint.
    /// Each derivation the rounds record is indexed into the support graph
    /// only once they return, so the graph's allocations do not interleave
    /// with the instance's tuples. Errors outside the maintainable fragment.
    pub fn build(
        schema: &Schema,
        rules: &RuleSet,
        edb: &Instance,
        opts: &EvalOptions,
    ) -> Result<(MaterializedView, EvalReport), EngineError> {
        if !maintainable(schema, rules) {
            return Err(EngineError::UnsupportedFragment {
                detail: "incremental maintenance needs positive association rules \
                         with invertible heads"
                    .to_owned(),
            });
        }
        let mut view = MaterializedView {
            inst: edb.clone(),
            rules: rules.rules.clone(),
            active: vec![true; rules.rules.len()],
            support: FxHashMap::default(),
            dependents: FxHashMap::default(),
            by_rule: FxHashMap::default(),
        };
        let mut pass = Pass::new(schema, &view, opts, Vec::new());
        pass.deferred = Some(Vec::new());
        for stratum in maintenance_strata(&view.rules, &view.active) {
            let delta = pass.fire_new_rules(&mut view, &stratum.rule_idxs)?;
            pass.run_delta_rounds(&mut view, &stratum, delta, None)?;
        }
        for (fact, rule, premises) in pass.deferred.take().unwrap_or_default() {
            view.record(fact, rule, premises);
        }
        let report = pass.gov.finish(view.inst.fact_count());
        Ok((view, report))
    }

    /// The maintained instance (`I`, extensional facts included).
    pub fn instance(&self) -> &Instance {
        &self.inst
    }

    /// Number of facts with a recorded derivation.
    pub fn supported_count(&self) -> usize {
        self.support.len()
    }

    /// Register `fact`'s derivation, replacing any previous record.
    fn record(&mut self, fact: Fact, rule: usize, premises: Vec<Fact>) {
        self.drop_support(&fact);
        for p in &premises {
            self.dependents
                .entry(p.clone())
                .or_default()
                .insert(fact.clone());
        }
        self.by_rule.entry(rule).or_default().insert(fact.clone());
        self.support.insert(fact, (rule, premises));
    }

    /// Remove `fact`'s recorded derivation (it became extensional or was
    /// deleted). Its own dependents entry is left for the caller.
    fn drop_support(&mut self, fact: &Fact) {
        if let Some((rule, premises)) = self.support.remove(fact) {
            for p in &premises {
                if let Some(d) = self.dependents.get_mut(p) {
                    d.remove(fact);
                    if d.is_empty() {
                        self.dependents.remove(p);
                    }
                }
            }
            if let Some(s) = self.by_rule.get_mut(&rule) {
                s.remove(fact);
                if s.is_empty() {
                    self.by_rule.remove(&rule);
                }
            }
        }
    }
}

/// One batch update against a [`MaterializedView`].
#[derive(Debug, Clone, Default)]
pub struct UpdateSpec {
    /// Extensional facts to insert.
    pub inserts: Vec<Fact>,
    /// Extensional facts to delete.
    pub deletes: Vec<Fact>,
    /// Rules to add to the active set (RADV).
    pub add_rules: Vec<Rule>,
    /// Rules to remove from the active set (RDDV).
    pub remove_rules: Vec<Rule>,
}

/// What [`apply_update`] did.
#[derive(Debug, Clone)]
pub struct MaintainResult {
    /// The pass's run record: `steps` and `iterations` count delta rounds,
    /// `facts` is the final instance size, and `rule_profiles` has one
    /// entry per view rule slot.
    pub report: EvalReport,
    /// Facts now present that were absent before the update (extensional
    /// insertions actually applied plus newly derived facts) — the
    /// consistency-check delta.
    pub added: Vec<Fact>,
}

/// Invert a rule head against a stored tuple: the substitution that makes
/// the head denote exactly this tuple's mentioned fields, or `None` when
/// the tuple does not match the head pattern.
fn bind_head(args: &[PredArg], tuple: &Value, inst: &Instance) -> Option<Subst> {
    let mut s = Subst::new();
    for arg in args {
        match arg {
            PredArg::Labeled(l, t) => {
                let fv = tuple.field(*l)?.clone();
                if !match_term(t, &fv, &mut s, inst) {
                    return None;
                }
            }
            PredArg::TupleVar(v) => {
                if !s.unify_var(*v, tuple.clone()) {
                    return None;
                }
            }
            PredArg::SelfArg(_) => return None,
        }
    }
    Some(s)
}

/// A maintenance stratum: one SCC of the predicate-dependency graph over
/// the active rules, in producer-first order.
struct Stratum {
    preds: BTreeSet<Sym>,
    rule_idxs: Vec<usize>,
    recursive: bool,
}

/// The components of the active rules' [`DepGraph`] that derive something,
/// producers first, each marked recursive exactly when it is cyclic.
/// `logres_lang::stratify` is unusable here: its longest-path layering puts
/// every positive rule in one stratum (only strict edges raise levels), but
/// maintenance needs the SCC condensation so counting applies exactly to
/// the non-recursive components. Deterministic: the graph's Tarjan pass
/// visits nodes in first-occurrence order over the rules.
fn maintenance_strata(rules: &[Rule], active: &[bool]) -> Vec<Stratum> {
    let live = || rules.iter().enumerate().filter(|(i, _)| active[*i]);
    let graph = DepGraph::build(live().map(|(_, r)| r));
    let sccs = graph.sccs();
    let comp_of = graph.component_of(&sccs);
    let cyclic = graph.cyclic_components(&sccs, &comp_of);
    let mut rule_idxs: Vec<Vec<usize>> = vec![Vec::new(); sccs.len()];
    for (i, r) in live() {
        let head = graph.node(r.head.target()).expect("every head is a node");
        rule_idxs[comp_of[head]].push(i);
    }
    // Tarjan emits consumers first.
    sccs.iter()
        .zip(cyclic)
        .zip(rule_idxs)
        .rev()
        .filter(|(_, idxs)| !idxs.is_empty())
        .map(|((comp, recursive), rule_idxs)| Stratum {
            preds: comp.iter().map(|&v| graph.sym(v)).collect(),
            rule_idxs,
            recursive,
        })
        .collect()
}

fn pend(pending: &mut BTreeMap<Sym, BTreeSet<Fact>>, fact: Fact) {
    pending.entry(fact.predicate()).or_default().insert(fact);
}

/// Remove a fact with no remaining derivation: delete it from the
/// instance, pend its dependents for recount, and drop its support edges.
/// Returns whether the fact was actually present.
fn mark_removed(
    schema: &Schema,
    view: &mut MaterializedView,
    fact: &Fact,
    pending: &mut BTreeMap<Sym, BTreeSet<Fact>>,
) -> bool {
    let present = view.inst.remove_fact(schema, fact);
    if let Some(deps) = view.dependents.remove(fact) {
        let mut ds: Vec<Fact> = deps.into_iter().collect();
        ds.sort();
        for d in ds {
            pend(pending, d);
        }
    }
    view.drop_support(fact);
    present
}

/// A recorded derivation: the fact, its rule index, its ground premises.
type Record = (Fact, usize, Vec<Fact>);

/// The state one maintenance pass (an update or a view build) threads
/// through its rounds: the run's [`Governor`], the invention memo, and what
/// it derived.
struct Pass<'a> {
    schema: &'a Schema,
    /// The pass's run record: budgets, delta rounds, trace, and per-rule
    /// profiles indexed by view rule slot.
    gov: Governor<'a>,
    memo: InventionMemo,
    gen: OidGen,
    /// Overdeleted facts the rounds put back.
    rederived: u64,
    /// Facts new to the instance, in arrival order: the update's
    /// consistency-check delta and the seed of later strata's rounds.
    added: Vec<Fact>,
    /// A build's derivations, indexed into the support graph after its
    /// rounds return. `None` in an update, which indexes each derivation at
    /// once and lists the fact in `added`.
    deferred: Option<Vec<Record>>,
}

impl<'a> Pass<'a> {
    /// Open the pass's run record over `view` as it stands: its active
    /// rules, its instance and the facts `added` to it so far.
    fn new(
        schema: &'a Schema,
        view: &MaterializedView,
        opts: &'a EvalOptions,
        added: Vec<Fact>,
    ) -> Pass<'a> {
        let live = view.active.iter().filter(|a| **a).count();
        Pass {
            schema,
            gov: Governor::open("maintain", opts, &view.rules, live, view.inst.fact_count()),
            memo: InventionMemo::new(),
            gen: view.inst.oid_gen(),
            rederived: 0,
            added,
            deferred: None,
        }
    }

    /// Fire rule `idx` for one body valuation: insert the facts its head
    /// derives, record each new one and add it to `delta`. Reinsertions of
    /// `over_set` facts (DRed rederivation) count as rederived; every other
    /// new fact is genuinely new. Returns the value nodes inserted.
    fn fire(
        &mut self,
        view: &mut MaterializedView,
        idx: usize,
        theta: &Subst,
        delta: &mut Instance,
        over_set: Option<&FxHashSet<Fact>>,
    ) -> Result<usize, EngineError> {
        let schema = self.schema;
        let rule = &view.rules[idx];
        self.gov.profile(idx).firings += 1;
        let facts = instantiate_head(
            schema,
            &view.inst,
            rule,
            idx,
            theta,
            &mut self.memo,
            &mut self.gen,
        )?;
        if facts.is_empty() {
            return Ok(0);
        }
        let premises = premises_of(schema, &view.inst, rule, theta);
        let mut nodes = 0;
        for fact in facts {
            if !view.inst.insert_fact(schema, &fact) {
                continue;
            }
            nodes += fact_nodes(&fact);
            self.gov.profile(idx).derived += 1;
            if let Fact::Assoc { assoc, tuple } = &fact {
                delta.insert_assoc(*assoc, tuple.clone());
            }
            if over_set.is_some_and(|s| s.contains(&fact)) {
                self.rederived += 1;
                view.record(fact, idx, premises.clone());
            } else if let Some(records) = &mut self.deferred {
                records.push((fact, idx, premises.clone()));
            } else {
                view.record(fact.clone(), idx, premises.clone());
                self.added.push(fact);
            }
        }
        Ok(nodes)
    }

    /// Seed rules new to the view: each body evaluated over the whole
    /// instance. Returns the facts it inserted, the first delta. The pass
    /// is charged for them and checked, but it is not a delta round.
    fn fire_new_rules(
        &mut self,
        view: &mut MaterializedView,
        rule_idxs: &[usize],
    ) -> Result<Instance, EngineError> {
        let mut delta = Instance::new();
        if rule_idxs.is_empty() {
            return Ok(delta);
        }
        let mut matched = Vec::with_capacity(rule_idxs.len());
        for &idx in rule_idxs {
            if self.gov.poll(idx) {
                break;
            }
            let bv = BodyView::plain(&view.inst).with_tally(self.gov.tally());
            let subs = eval_body(self.schema, bv, &view.rules[idx].body, Subst::new())?;
            matched.push((idx, subs));
        }
        self.gov.check(view.inst.fact_count())?;
        let mut nodes = 0;
        for (idx, subs) in matched {
            for theta in subs {
                nodes += self.fire(view, idx, &theta, &mut delta, None)?;
            }
        }
        self.gov.charge(nodes);
        self.gov.check(view.inst.fact_count())?;
        Ok(delta)
    }

    /// The match phase of a recount or a rederive, against the view as it
    /// stands: for each of `facts` (polling before each), every rule of
    /// `rule_idxs` whose head inverts onto the fact, in ascending order,
    /// with the first body valuation extending that inversion. The merge
    /// verifies them afterwards (`Pass::reinstate`).
    fn candidates(
        &mut self,
        view: &MaterializedView,
        rule_idxs: &[usize],
        facts: &[Fact],
    ) -> Result<Vec<Vec<(usize, Subst)>>, EngineError> {
        let mut out = Vec::with_capacity(facts.len());
        for fact in facts {
            if self.gov.tripped() {
                break;
            }
            let mut found = Vec::new();
            if let Fact::Assoc { assoc, tuple } = fact {
                for &idx in rule_idxs {
                    let rule = &view.rules[idx];
                    let Atom::Pred { args, .. } = &rule.head.atom else {
                        continue;
                    };
                    if rule.head.target() != *assoc {
                        continue;
                    }
                    let Some(theta0) = bind_head(args, tuple, &view.inst) else {
                        continue;
                    };
                    let bv = BodyView::plain(&view.inst).with_tally(self.gov.tally());
                    let subs = eval_body(self.schema, bv, &rule.body, theta0)?;
                    if let Some(theta) = subs.into_iter().next() {
                        found.push((idx, theta));
                    }
                }
            }
            out.push(found);
        }
        self.gov.check(view.inst.fact_count())?;
        Ok(out)
    }

    /// Verify `fact`'s derivation candidates in order, with the fact
    /// absent from the view so the valuation-domain condition lets a head
    /// instantiate: the first candidate whose head reproduces the fact
    /// exactly (nil-filled unmentioned fields included) puts it back, with
    /// that derivation recorded and the firing counted. Returns its rule,
    /// or `None` when no candidate derives the fact.
    fn reinstate(
        &mut self,
        view: &mut MaterializedView,
        fact: &Fact,
        cands: &[(usize, Subst)],
    ) -> Result<Option<usize>, EngineError> {
        let schema = self.schema;
        for (idx, theta) in cands {
            let rule = &view.rules[*idx];
            let facts = instantiate_head(
                schema,
                &view.inst,
                rule,
                *idx,
                theta,
                &mut self.memo,
                &mut self.gen,
            )?;
            if facts.contains(fact) {
                let premises = premises_of(schema, &view.inst, rule, theta);
                view.inst.insert_fact(schema, fact);
                view.record(fact.clone(), *idx, premises);
                self.gov.profile(*idx).firings += 1;
                return Ok(Some(*idx));
            }
        }
        Ok(None)
    }

    /// Incremental semi-naive delta rounds over one stratum's rules: each
    /// rule fires once per body position bound to the delta, and the facts
    /// the round inserts become the next delta, until it drains. Each round
    /// is a round of the pass's run record.
    fn run_delta_rounds(
        &mut self,
        view: &mut MaterializedView,
        stratum: &Stratum,
        mut delta: Instance,
        over_set: Option<&FxHashSet<Fact>>,
    ) -> Result<(), EngineError> {
        loop {
            let jobs: Vec<(usize, usize)> = stratum
                .rule_idxs
                .iter()
                .flat_map(|&idx| {
                    let delta = &delta;
                    view.rules[idx]
                        .body
                        .iter()
                        .enumerate()
                        .filter_map(move |(li, lit)| match &lit.atom {
                            Atom::Pred { pred, .. } if delta.assoc_len(*pred) > 0 => {
                                Some((idx, li))
                            }
                            _ => None,
                        })
                })
                .collect();
            if jobs.is_empty() {
                return Ok(());
            }
            self.gov.begin_round(view.inst.fact_count())?;
            let match_start = Instant::now();
            let mut matched = Vec::with_capacity(jobs.len());
            for (idx, li) in jobs {
                if self.gov.poll(idx) {
                    break;
                }
                let bv = BodyView {
                    full: &view.inst,
                    delta: Some((li, &delta)),
                    tally: self.gov.tally(),
                };
                let subs = eval_body(self.schema, bv, &view.rules[idx].body, Subst::new())?;
                matched.push((idx, subs));
            }
            let mut stats = IterationStats {
                match_nanos: match_start.elapsed().as_nanos() as u64,
                ..IterationStats::default()
            };
            self.gov.check(view.inst.fact_count())?;
            let apply_start = Instant::now();
            let mut next_delta = Instance::new();
            let mut nodes = 0;
            for (idx, subs) in matched {
                stats.firings += subs.len();
                for theta in subs {
                    nodes += self.fire(view, idx, &theta, &mut next_delta, over_set)?;
                }
            }
            stats.derived = next_delta.fact_count();
            stats.apply_nanos = apply_start.elapsed().as_nanos() as u64;
            self.gov.end_match(nodes, stats.match_nanos);
            self.gov.check(view.inst.fact_count())?;
            self.gov.end_round(stats, view.inst.fact_count());
            delta = next_delta;
        }
    }
}

/// Apply one batch update to a materialized view, with work proportional
/// to the change. `edb_before` is the extensional database *before* the
/// update (the new extensional set is `(edb_before − deletes) ∪ inserts`;
/// insertions win on overlap).
///
/// Counting-style recounts maintain non-recursive strata, DRed the
/// recursive ones, and incremental semi-naive rounds propagate the
/// insertions; see the module docs for the full protocol. The pass runs
/// under one [`Governor`], like the fixpoint drivers: its budgets (deadline,
/// value nodes, fact and step caps) are enforced at round boundaries, and
/// each delta round is a round of the run record.
pub fn apply_update(
    schema: &Schema,
    view: &mut MaterializedView,
    spec: &UpdateSpec,
    edb_before: &Instance,
    opts: &EvalOptions,
) -> Result<MaintainResult, EngineError> {
    let mut removed_total = 0u64;
    let mut pending: BTreeMap<Sym, BTreeSet<Fact>> = BTreeMap::new();

    // Rule deletion (RDDV): tombstone the slot and pend everything whose
    // recorded derivation used the rule.
    for r in &spec.remove_rules {
        let found = view
            .rules
            .iter()
            .enumerate()
            .position(|(i, er)| view.active[i] && er == r);
        if let Some(idx) = found {
            view.active[idx] = false;
            if let Some(facts) = view.by_rule.get(&idx) {
                let mut fs: Vec<Fact> = facts.iter().cloned().collect();
                fs.sort();
                for f in fs {
                    pend(&mut pending, f);
                }
            }
        }
    }
    // Rule addition (RADV): reactivate a matching tombstone or append.
    let mut added_idxs: Vec<usize> = Vec::new();
    for r in &spec.add_rules {
        if view
            .rules
            .iter()
            .enumerate()
            .any(|(i, er)| view.active[i] && er == r)
        {
            continue;
        }
        if let Some(idx) = (0..view.rules.len()).find(|&i| !view.active[i] && view.rules[i] == *r) {
            view.active[idx] = true;
            added_idxs.push(idx);
        } else {
            view.rules.push(r.clone());
            view.active.push(true);
            added_idxs.push(view.rules.len() - 1);
        }
    }

    let ins_set: FxHashSet<Fact> = spec.inserts.iter().cloned().collect();
    let del_set: FxHashSet<Fact> = spec.deletes.iter().cloned().collect();
    // Membership in the *new* extensional database.
    let in_new_edb = |f: &Fact| {
        ins_set.contains(f) || (!del_set.contains(f) && edb_before.contains_fact(schema, f))
    };

    // Seed deletions.
    let mut del_sorted: Vec<Fact> = del_set.iter().cloned().collect();
    del_sorted.sort();
    for f in del_sorted {
        pend(&mut pending, f);
    }
    // Apply insertions up front so every recount sees the new facts. A
    // previously derived fact that becomes extensional keeps its place but
    // loses its support entry (it no longer depends on anything).
    let mut ins_sorted: Vec<Fact> = ins_set.iter().cloned().collect();
    ins_sorted.sort();
    let mut inserted = Vec::new();
    for f in ins_sorted {
        view.drop_support(&f);
        if view.inst.insert_fact(schema, &f) {
            inserted.push(f);
        }
    }
    // The run record opens on the instance the pass starts from: the
    // batch's insertions applied, its rule changes made.
    let mut pass = Pass::new(schema, view, opts, inserted);

    // Drain pending facts whose predicate has no active deriving rule:
    // keep the extensionally-backed ones, remove the rest (cascading).
    let head_active: FxHashSet<Sym> = view
        .rules
        .iter()
        .zip(&view.active)
        .filter(|(_, a)| **a)
        .map(|(r, _)| r.head.target())
        .collect();
    let drain = |view: &mut MaterializedView,
                 pending: &mut BTreeMap<Sym, BTreeSet<Fact>>,
                 removed_total: &mut u64,
                 gov: &mut Governor| {
        loop {
            let no_rule: Vec<Sym> = pending
                .keys()
                .filter(|p| !head_active.contains(*p))
                .cloned()
                .collect();
            if no_rule.is_empty() {
                break;
            }
            for p in no_rule {
                let facts = pending.remove(&p).unwrap_or_default();
                for f in facts {
                    if in_new_edb(&f) {
                        view.drop_support(&f);
                    } else {
                        let by = view.support.get(&f).map(|(i, _)| *i);
                        if mark_removed(schema, view, &f, pending) {
                            *removed_total += 1;
                            if let Some(i) = by {
                                gov.profile(i).deleted += 1;
                            }
                        }
                    }
                }
            }
        }
    };
    drain(view, &mut pending, &mut removed_total, &mut pass.gov);

    let strata = maintenance_strata(&view.rules, &view.active);
    for stratum in &strata {
        // ---- deletion phase ----
        let mut cands: Vec<Fact> = Vec::new();
        for p in &stratum.preds {
            if let Some(fs) = pending.remove(p) {
                cands.extend(fs);
            }
        }
        cands.sort();
        cands.retain(|f| view.inst.contains_fact(schema, f));

        if !cands.is_empty() && !stratum.recursive {
            // Counting-style recount: the stratum is a single predicate
            // that never appears in its own rule bodies, so candidate
            // presence cannot influence candidate derivability, and every
            // candidate is matched against one snapshot before the merge
            // removes any.
            let (kept_edb, check): (Vec<Fact>, Vec<Fact>) =
                cands.into_iter().partition(|f| in_new_edb(f));
            for f in &kept_edb {
                view.drop_support(f);
            }
            let per_fact = pass.candidates(view, &stratum.rule_idxs, &check)?;
            for (f, cs) in check.iter().zip(per_fact) {
                view.inst.remove_fact(schema, f);
                if pass.reinstate(view, f, &cs)?.is_none() {
                    removed_total += 1;
                    if let Some((i, _)) = view.support.get(f) {
                        pass.gov.profile(*i).deleted += 1;
                    }
                    if let Some(deps) = view.dependents.remove(f) {
                        let mut ds: Vec<Fact> = deps.into_iter().collect();
                        ds.sort();
                        for d in ds {
                            pend(&mut pending, d);
                        }
                    }
                    view.drop_support(f);
                }
            }
        } else if !cands.is_empty() {
            // Delete-and-Rederive. Overdelete the support closure inside
            // the SCC; dependents outside it are pended for their own
            // stratum's recount.
            let mut queue: BTreeSet<Fact> = cands.into_iter().collect();
            let mut overdeleted: Vec<Fact> = Vec::new();
            let mut over_set: FxHashSet<Fact> = FxHashSet::default();
            while let Some(f) = queue.pop_first() {
                if in_new_edb(&f) {
                    view.drop_support(&f);
                    continue;
                }
                if !view.inst.contains_fact(schema, &f) {
                    continue;
                }
                view.inst.remove_fact(schema, &f);
                removed_total += 1;
                if let Some((i, _)) = view.support.get(&f) {
                    pass.gov.profile(*i).deleted += 1;
                }
                if let Some(deps) = view.dependents.remove(&f) {
                    let mut ds: Vec<Fact> = deps.into_iter().collect();
                    ds.sort();
                    for d in ds {
                        if stratum.preds.contains(&d.predicate()) {
                            queue.insert(d);
                        } else {
                            pend(&mut pending, d);
                        }
                    }
                }
                view.drop_support(&f);
                over_set.insert(f.clone());
                overdeleted.push(f);
            }
            overdeleted.sort();

            // Rederive round 0: head inversion over the overdeleted set
            // against the instance with all overdeleted facts absent.
            let per_fact = pass.candidates(view, &stratum.rule_idxs, &overdeleted)?;
            let mut delta = Instance::new();
            for (f, cs) in overdeleted.iter().zip(per_fact) {
                if let Some(idx) = pass.reinstate(view, f, &cs)? {
                    pass.gov.profile(idx).derived += 1;
                    pass.rederived += 1;
                    if let Fact::Assoc { assoc, tuple } = f {
                        delta.insert_assoc(*assoc, tuple.clone());
                    }
                }
            }

            // Delta rounds through the SCC rules; the valuation-domain
            // condition confines reinsertions to facts actually absent,
            // i.e. the overdeleted set (plus genuinely new consequences of
            // this update's insertions, which are classified as such).
            pass.run_delta_rounds(view, stratum, delta, Some(&over_set))?;
        }

        // ---- insertion phase ----
        // Round 0 for rules added by this update, then seed from everything
        // genuinely new so far that the stratum's bodies can read.
        let new_here: Vec<usize> = added_idxs
            .iter()
            .copied()
            .filter(|i| stratum.rule_idxs.contains(i))
            .collect();
        let mut delta = pass.fire_new_rules(view, &new_here)?;
        let body_preds: FxHashSet<Sym> = stratum
            .rule_idxs
            .iter()
            .flat_map(|&i| view.rules[i].body.iter())
            .filter_map(|lit| match &lit.atom {
                Atom::Pred { pred, .. } => Some(*pred),
                _ => None,
            })
            .collect();
        for f in &pass.added {
            if body_preds.contains(&f.predicate()) {
                if let Fact::Assoc { assoc, tuple } = f {
                    delta.insert_assoc(*assoc, tuple.clone());
                }
            }
        }
        pass.run_delta_rounds(view, stratum, delta, None)?;
    }

    // Cascades out of the strata can only land on rule-less predicates.
    drain(view, &mut pending, &mut removed_total, &mut pass.gov);

    if let Some(m) = &opts.metrics {
        m.counter("logres_maintain_applies_total").inc();
        m.counter("logres_maintain_deleted_total")
            .add(removed_total);
        m.counter("logres_maintain_rederived_total")
            .add(pass.rederived);
        m.counter("logres_maintain_inserted_total")
            .add(pass.added.len() as u64);
    }
    let report = pass.gov.finish(view.inst.fact_count());
    Ok(MaintainResult {
        report,
        added: pass.added,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflationary::evaluate_inflationary;
    use crate::load::load_facts;
    use logres_lang::parse_program;

    fn setup(src: &str) -> (Schema, Instance, RuleSet) {
        let p = parse_program(src).expect("parses");
        let mut edb = Instance::new();
        let mut gen = OidGen::new();
        load_facts(&p.schema, &mut edb, &p.facts, &mut gen).expect("loads");
        (p.schema, edb, p.rules)
    }

    fn tc_program(n: i64) -> String {
        let mut facts = String::new();
        for i in 0..n {
            facts.push_str(&format!("  e(a: {}, b: {}).\n", i, i + 1));
        }
        format!(
            r#"
            associations
              e  = (a: integer, b: integer);
              tc = (a: integer, b: integer);
            facts
            {facts}
            rules
              tc(a: X, b: Y) <- e(a: X, b: Y).
              tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).
        "#
        )
    }

    fn edge(a: i64, b: i64) -> Fact {
        Fact::Assoc {
            assoc: Sym::new("e"),
            tuple: Value::tuple([("a", Value::Int(a)), ("b", Value::Int(b))]),
        }
    }

    fn rebuilt(schema: &Schema, rules: &RuleSet, edb: &Instance) -> Instance {
        evaluate_inflationary(schema, rules, edb, EvalOptions::default())
            .unwrap()
            .0
    }

    #[test]
    fn maintainable_accepts_the_positive_fragment() {
        let (schema, _, rules) = setup(&tc_program(2));
        assert!(maintainable(&schema, &rules));
    }

    #[test]
    fn out_of_fragment_rules_are_rejected() {
        let (schema, edb, rules) = setup(
            r#"
            associations
              p = (d: integer);
              q = (d: integer);
            facts
              p(d: 1).
            rules
              q(d: X) <- p(d: X), not q(d: X).
        "#,
        );
        assert!(!seminaive_applicable(&schema, &rules));
        assert!(matches!(
            evaluate_seminaive(&schema, &rules, &edb, EvalOptions::default()),
            Err(EngineError::UnsupportedFragment { .. })
        ));
    }

    #[test]
    fn maintainable_rejects_computed_heads() {
        let (schema, _, rules) = setup(
            r#"
            associations
              n   = (v: integer);
              dbl = (v: integer);
            rules
              dbl(v: X * 2) <- n(v: X).
        "#,
        );
        assert!(!maintainable(&schema, &rules));
    }

    #[test]
    fn insertion_extends_the_closure() {
        let (schema, edb, rules) = setup(&tc_program(4));
        let (mut view, _) =
            MaterializedView::build(&schema, &rules, &edb, &EvalOptions::default()).unwrap();
        let mut new_edb = edb.clone();
        new_edb.insert_fact(&schema, &edge(4, 5));
        let spec = UpdateSpec {
            inserts: vec![edge(4, 5)],
            ..UpdateSpec::default()
        };
        apply_update(&schema, &mut view, &spec, &edb, &EvalOptions::default()).unwrap();
        assert_eq!(view.instance(), &rebuilt(&schema, &rules, &new_edb));
    }

    #[test]
    fn deletion_shrinks_the_closure_via_dred() {
        let (schema, edb, rules) = setup(&tc_program(6));
        let (mut view, _) =
            MaterializedView::build(&schema, &rules, &edb, &EvalOptions::default()).unwrap();
        let mut new_edb = edb.clone();
        new_edb.remove_fact(&schema, &edge(3, 4));
        let spec = UpdateSpec {
            deletes: vec![edge(3, 4)],
            ..UpdateSpec::default()
        };
        apply_update(&schema, &mut view, &spec, &edb, &EvalOptions::default()).unwrap();
        assert_eq!(view.instance(), &rebuilt(&schema, &rules, &new_edb));
    }

    #[test]
    fn rule_deletion_retracts_only_its_facts() {
        let (schema, edb, rules) = setup(&tc_program(4));
        let (mut view, _) =
            MaterializedView::build(&schema, &rules, &edb, &EvalOptions::default()).unwrap();
        // Remove the recursive rule: only direct edges remain in tc.
        let spec = UpdateSpec {
            remove_rules: vec![rules.rules[1].clone()],
            ..UpdateSpec::default()
        };
        apply_update(&schema, &mut view, &spec, &edb, &EvalOptions::default()).unwrap();
        let remaining = RuleSet {
            rules: vec![rules.rules[0].clone()],
        };
        assert_eq!(view.instance(), &rebuilt(&schema, &remaining, &edb));
        // Re-adding it restores the closure through the tombstoned slot.
        let spec = UpdateSpec {
            add_rules: vec![rules.rules[1].clone()],
            ..UpdateSpec::default()
        };
        apply_update(&schema, &mut view, &spec, &edb, &EvalOptions::default()).unwrap();
        assert_eq!(view.instance(), &rebuilt(&schema, &rules, &edb));
    }

    #[test]
    fn shared_facts_survive_partial_deletes() {
        // tc(0,2) via (0,1),(1,2); deleting e(0,1) must keep tc(1,2).
        let (schema, edb, rules) = setup(&tc_program(3));
        let (mut view, _) =
            MaterializedView::build(&schema, &rules, &edb, &EvalOptions::default()).unwrap();
        let mut new_edb = edb.clone();
        new_edb.remove_fact(&schema, &edge(0, 1));
        let spec = UpdateSpec {
            deletes: vec![edge(0, 1)],
            ..UpdateSpec::default()
        };
        apply_update(&schema, &mut view, &spec, &edb, &EvalOptions::default()).unwrap();
        assert_eq!(view.instance(), &rebuilt(&schema, &rules, &new_edb));
    }

    #[test]
    fn ground_batches_apply_in_one_pass() {
        let (schema, edb, _) = setup(&tc_program(2));
        let p = parse_program(
            r#"
            associations
              e = (a: integer, b: integer);
            rules
              e(a: 7, b: 8) <- .
              -e(a: 0, b: 1) <- .
        "#,
        )
        .unwrap();
        for r in &p.rules.rules {
            assert!(is_ground_batch_rule(&schema, r));
        }
        let refs: Vec<&Rule> = p.rules.rules.iter().collect();
        let effect = apply_batch(&schema, &refs, &edb).unwrap();
        assert_eq!(effect.inserted, vec![edge(7, 8)]);
        assert_eq!(effect.deleted, vec![edge(0, 1)]);
        let deleting: Vec<&Rule> = p.rules.rules.iter().filter(|r| r.head.negated).collect();
        assert!(!batch_conflicts(&schema, &deleting, &effect).unwrap());
    }

    #[test]
    fn conflicting_batches_are_detected() {
        let (schema, edb, _) = setup(&tc_program(2));
        let p = parse_program(
            r#"
            associations
              e = (a: integer, b: integer);
            rules
              e(a: 7, b: 8) <- .
              -e(a: 7, b: 8) <- .
        "#,
        )
        .unwrap();
        let refs: Vec<&Rule> = p.rules.rules.iter().collect();
        let effect = apply_batch(&schema, &refs, &edb).unwrap();
        let deleting: Vec<&Rule> = p.rules.rules.iter().filter(|r| r.head.negated).collect();
        assert!(batch_conflicts(&schema, &deleting, &effect).unwrap());
    }

    #[test]
    fn strata_split_counting_from_dred() {
        let (schema, _, rules) = setup(
            r#"
            associations
              e    = (a: integer, b: integer);
              tc   = (a: integer, b: integer);
              top  = (a: integer);
            rules
              tc(a: X, b: Y) <- e(a: X, b: Y).
              tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).
              top(a: X) <- tc(a: X, b: Y).
        "#,
        );
        assert!(maintainable(&schema, &rules));
        let strata = maintenance_strata(&rules.rules, &[true, true, true]);
        assert_eq!(strata.len(), 2);
        assert!(strata[0].recursive, "tc depends on itself");
        assert!(!strata[1].recursive, "top is a plain projection");
        assert!(strata[1].preds.contains(&Sym::new("top")));

        // A mutually recursive pair, a chain listed consumer first, and
        // components independent of both.
        let (schema, _, rules) = setup(
            r#"
            associations
              e    = (a: integer, b: integer);
              tc   = (a: integer, b: integer);
              top  = (a: integer);
              ping = (a: integer, b: integer);
              pong = (a: integer, b: integer);
              c1   = (a: integer);
              c2   = (a: integer);
              c3   = (a: integer);
              solo = (a: integer);
            rules
              tc(a: X, b: Y) <- e(a: X, b: Y).
              tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).
              top(a: X) <- tc(a: X, b: Y).
              ping(a: X, b: Y) <- e(a: X, b: Y).
              ping(a: X, b: Z) <- pong(a: X, b: Y), e(a: Y, b: Z).
              pong(a: X, b: Z) <- ping(a: X, b: Y), e(a: Y, b: Z).
              c3(a: X) <- c2(a: X).
              c2(a: X) <- c1(a: X).
              c1(a: X) <- e(a: X, b: X).
              solo(a: X) <- e(a: X, b: 0).
        "#,
        );
        assert!(maintainable(&schema, &rules));
        let active = vec![true; rules.len()];
        let strata = maintenance_strata(&rules.rules, &active);
        let names = |strata: &[Stratum]| -> Vec<Vec<&'static str>> {
            strata
                .iter()
                .map(|s| s.preds.iter().map(|p| p.as_str()).collect())
                .collect()
        };
        assert_eq!(strata.len(), 7, "{:?}", names(&strata));
        // Producers first: every body predicate a stratum reads is derived
        // by an earlier stratum, or by its own when it is recursive.
        let at: FxHashMap<Sym, usize> = strata
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.preds.iter().map(move |p| (*p, i)))
            .collect();
        for (i, stratum) in strata.iter().enumerate() {
            for &idx in &stratum.rule_idxs {
                assert_eq!(at[&rules.rules[idx].head.target()], i);
                for lit in &rules.rules[idx].body {
                    if let Atom::Pred { pred, .. } = &lit.atom {
                        if let Some(&j) = at.get(pred) {
                            assert!(
                                j < i || (j == i && stratum.recursive),
                                "{pred} is read before it is derived: {:?}",
                                names(&strata)
                            );
                        }
                    }
                }
            }
        }
        // Recursive exactly on the cyclic components.
        let recursive: Vec<Vec<&str>> = strata
            .iter()
            .filter(|s| s.recursive)
            .map(|s| s.preds.iter().map(|p| p.as_str()).collect())
            .collect();
        assert_eq!(recursive.len(), 2, "{recursive:?}");
        assert!(recursive.contains(&vec!["tc"]), "{recursive:?}");
        assert!(recursive.contains(&vec!["ping", "pong"]), "{recursive:?}");
        // Deterministic: a repeated call returns the same order.
        assert_eq!(
            names(&maintenance_strata(&rules.rules, &active)),
            names(&strata)
        );
    }
}
