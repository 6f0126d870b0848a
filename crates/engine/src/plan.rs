//! Compiled stratum execution: the production fast path over ALGRES plans.
//!
//! The paper's prototype runs LOGRES by *translation*: rules become extended
//! relational algebra and the ALGRES machine evaluates them set-at-a-time
//! (Section 5, \[Ca90\]). This module is that translation for the production
//! engine. [`compile_program`] stratifies a rule set, lowers every rule body
//! to a select–join–project plan via `compile_rule_plan_with`
//! (constants → selections, builtins → selections/extends, stratified
//! negation → antijoins, already-bound literals such as magic-set `@magic_*`
//! guards → semijoin reducers), derives the semi-naive *delta* variants of
//! each recursive rule, and runs selection pushdown from `algres::optimize`
//! over every plan. [`try_evaluate_compiled`] then executes the strata
//! bottom-up with a caching [`algres::Evaluator`] whose join hash tables and
//! memoized stable sub-plans persist across fixpoint rounds.
//!
//! Programs outside the fragment fall back to the tuple-at-a-time
//! interpreter, counted under `logres_compile_fallbacks_total{reason=…}`
//! exactly like the magic-set and maintenance fallbacks:
//!
//! | reason | trigger |
//! |---|---|
//! | `provenance` | [`EvalOptions::provenance`] is on (plans do not track premises) |
//! | `unstratifiable` | negation through recursion; no stratum order exists |
//! | `inflationary-negation` | inflationary semantics requested for a program with negation — the compiled path computes the perfect (stratified) model, which coincides with the inflationary fixpoint only on negation-free programs |
//! | `fragment` | some rule is structurally uncompilable (classes, data functions, deleting heads, invention, unbound negation, …) |
//!
//! Execution is serial in canonical rule order, like every driver's: the
//! produced instance and every counting metric are the same on every run.
//! Each round polls the governor before each rule, times the insert loop
//! that commits a plan's rows as the round's apply work, and counts
//! the rest as matching.

use algres::{AlgExpr, Env, EvalStats, Evaluator, Relation};
use logres_lang::analyze::{infer, seeds_from_instance, Card, FlowSummaries};
use logres_lang::{stratify, Atom, Rule, RuleSet, Stratification};
use logres_model::{Instance, Schema, Sym};
use rustc_hash::{FxHashMap, FxHashSet};

use std::collections::BTreeMap;
use std::time::Instant;

use crate::compile::{compile_rule_plan_with, relation_of, FlowHints};
use crate::error::EngineError;
use crate::explain::{self, MaterializeStats};
use crate::governor::Governor;
use crate::inflationary::{EvalOptions, EvalReport, IterationStats};
use crate::stratified::Semantics;
use crate::trace::note_fallback;

/// Why a program was not run on the compiled path. `reason` is the
/// `logres_compile_fallbacks_total` label; `detail` is human-readable.
#[derive(Debug, Clone)]
pub struct CompileUnsupported {
    /// Stable label for the fallback counter.
    pub reason: &'static str,
    /// Human-readable explanation.
    pub detail: String,
}

/// One rule of a stratum, lowered to algebra.
#[derive(Debug, Clone)]
pub struct CompiledStep {
    /// Index of the source rule in the original rule set.
    pub rule_index: usize,
    /// Head association the plan derives into.
    pub head: Sym,
    /// Full plan: every body occurrence reads the full relation.
    pub full: AlgExpr,
    /// Semi-naive variants: one per body occurrence of a same-stratum
    /// predicate, with that occurrence redirected to `@delta_<pred>`.
    /// Empty for rules with no same-stratum dependency (round 0 suffices).
    pub deltas: Vec<AlgExpr>,
    /// What the flow analysis changed about this rule's plans
    /// (`ordered-by-flow`, `skip-semijoin-by-flow` lines), for EXPLAIN.
    /// Empty when compiled without flow summaries.
    pub notes: Vec<String>,
}

/// A stratum: its derived predicates and its lowered rules.
#[derive(Debug, Clone)]
pub struct StratumPlan {
    /// Predicates derived in this stratum, in first-head order.
    pub idb: Vec<Sym>,
    /// Lowered rules, in original rule order.
    pub steps: Vec<CompiledStep>,
    /// Rules elided because the flow analysis proved their bodies
    /// statically infeasible: `(rule index, reason)`. EXPLAIN renders these
    /// as `pruned-by-flow`.
    pub pruned: Vec<(usize, String)>,
}

/// A whole program lowered to algebra, strata in evaluation order.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Strata bottom-up; negated literals always read lower strata.
    pub strata: Vec<StratumPlan>,
}

/// The delta-relation name for a predicate, used by semi-naive plans.
pub fn delta_sym(pred: Sym) -> Sym {
    Sym::new(&format!("@delta_{pred}"))
}

/// Lower a rule set to a stratified, semi-naive compiled program.
///
/// Errors with a [`CompileUnsupported`] naming the fallback reason when the
/// program cannot be compiled under the requested semantics.
pub fn compile_program(
    schema: &Schema,
    rules: &RuleSet,
    semantics: Semantics,
) -> Result<CompiledProgram, CompileUnsupported> {
    compile_program_with(schema, rules, semantics, None)
}

/// Join-order hints for one rule's plan: positive predicate literals are
/// stably reordered cheapest inferred cardinality band first (the lowering
/// then applies its own join order on top, delta scan first). Natural join
/// is commutative, so any permutation produces the same tuples; only cost
/// changes.
fn flow_hints(rule: &Rule, flow: &FlowSummaries, ri: usize, delta_li: Option<usize>) -> FlowHints {
    let positive: Vec<usize> = (0..rule.body.len())
        .filter(|&li| {
            let lit = &rule.body[li];
            !lit.negated && matches!(&lit.atom, Atom::Pred { .. })
        })
        .collect();
    let mut sorted = positive.clone();
    sorted.sort_by_key(|&li| {
        let Atom::Pred { pred, .. } = &rule.body[li].atom else {
            unreachable!("positive positions are predicate literals");
        };
        let band = match flow.card(*pred) {
            Card::Empty => 1u8,
            Card::AtMostOne => 2,
            Card::Many => 3,
        };
        (band, li)
    });
    let order = (sorted != positive).then(|| {
        let mut order: Vec<usize> = (0..rule.body.len()).collect();
        let mut next = sorted.iter();
        for slot in &mut order {
            if positive.contains(slot) {
                *slot = *next.next().expect("one sorted index per position");
            }
        }
        order
    });
    let skip = flow
        .skip_guards
        .get(&ri)
        .map(|s| {
            s.iter()
                .copied()
                .filter(|&li| delta_li != Some(li))
                .collect()
        })
        .unwrap_or_default();
    FlowHints { order, skip }
}

/// [`compile_program`] with optional whole-program flow summaries (from
/// `logres_lang::analyze::infer`): statically-infeasible rules are pruned
/// from their strata, positive joins are reordered by inferred cardinality
/// band, and statically-total semijoin guards are elided. Every decision is
/// recorded on the plan ([`StratumPlan::pruned`], [`CompiledStep::notes`])
/// so EXPLAIN can show it. The produced instance is identical with or
/// without summaries — flow only changes cost, never results.
pub fn compile_program_with(
    schema: &Schema,
    rules: &RuleSet,
    semantics: Semantics,
    flow: Option<&FlowSummaries>,
) -> Result<CompiledProgram, CompileUnsupported> {
    let strata_idx = match stratify(rules) {
        Stratification::Stratified(s) => s,
        Stratification::Unstratifiable { cycle } => {
            return Err(CompileUnsupported {
                reason: "unstratifiable",
                detail: format!("negation through recursion: {cycle:?}"),
            })
        }
    };
    if semantics == Semantics::Inflationary {
        // The compiled path computes the perfect model stratum-at-a-time.
        // On negation-free programs that equals the inflationary fixpoint
        // (both are the minimal model); with negation the inflationary
        // operator applies `not` eagerly and the two can differ, so the
        // interpreter keeps those programs.
        let negated = rules
            .rules
            .iter()
            .any(|r| r.head.negated || r.body.iter().any(|l| l.negated));
        if negated {
            return Err(CompileUnsupported {
                reason: "inflationary-negation",
                detail: "inflationary semantics with negation is not compiled".to_owned(),
            });
        }
    }

    // Column catalog for selection pushdown: every association plus the
    // delta relation of every derived predicate.
    let mut cols: FxHashMap<Sym, Vec<Sym>> = FxHashMap::default();
    for a in schema.assocs() {
        if let Some(c) = assoc_cols(schema, a) {
            cols.insert(a, c);
        }
    }
    for r in &rules.rules {
        let h = r.head.target();
        if let Some(c) = cols.get(&h).cloned() {
            cols.insert(delta_sym(h), c);
        }
    }
    let catalog = |name: Sym| cols.get(&name).cloned();

    let fragment = |e: EngineError| {
        let detail = match e {
            EngineError::UnsupportedFragment { detail } => detail,
            other => other.to_string(),
        };
        CompileUnsupported {
            reason: "fragment",
            detail,
        }
    };

    let mut strata = Vec::with_capacity(strata_idx.len());
    for stratum in &strata_idx {
        let mut idb: Vec<Sym> = Vec::new();
        for &ri in stratum {
            let h = rules.rules[ri].head.target();
            if !idb.contains(&h) {
                idb.push(h);
            }
        }
        let idb_set: FxHashSet<Sym> = idb.iter().copied().collect();
        let mut steps = Vec::with_capacity(stratum.len());
        let mut pruned = Vec::new();
        for &ri in stratum {
            let rule = &rules.rules[ri];
            if let Some(reason) = flow.and_then(|f| f.empty_rules.get(&ri)) {
                // The body is statically infeasible: the rule can never
                // fire, so its plans need not exist at all.
                pruned.push((ri, reason.clone()));
                continue;
            }
            let mut notes = Vec::new();
            let plan_of = |delta_li: Option<usize>,
                           scan: Option<Sym>,
                           label: &str,
                           notes: &mut Vec<String>|
             -> Result<AlgExpr, CompileUnsupported> {
                let hints = flow.map(|f| flow_hints(rule, f, ri, delta_li));
                if let Some(order) = hints.as_ref().and_then(|h| h.order.as_ref()) {
                    notes.push(format!("ordered-by-flow: {label} joins in order {order:?}"));
                }
                let mut applied = Vec::new();
                let plan = compile_rule_plan_with(
                    schema,
                    rule,
                    delta_li.zip(scan),
                    hints.as_ref(),
                    &mut applied,
                )
                .map_err(fragment)?;
                notes.extend(applied.into_iter().map(|n| format!("{label}: {n}")));
                // Pushdown first (selections sink toward the scans), then
                // collapse the post-join reshape chains into emit nodes.
                let plan = algres::push_selections_with(plan, &catalog);
                Ok(algres::fuse_reshapes(plan))
            };
            let full = plan_of(None, None, "full", &mut notes)?;
            let mut deltas = Vec::new();
            for (li, lit) in rule.body.iter().enumerate() {
                if lit.negated {
                    continue; // stratified: negated preds live in lower strata
                }
                let Atom::Pred { pred, .. } = &lit.atom else {
                    continue;
                };
                if idb_set.contains(pred) {
                    let label = format!("delta[{}]", deltas.len());
                    deltas.push(plan_of(
                        Some(li),
                        Some(delta_sym(*pred)),
                        &label,
                        &mut notes,
                    )?);
                }
            }
            steps.push(CompiledStep {
                rule_index: ri,
                head: rule.head.target(),
                full,
                deltas,
                notes,
            });
        }
        strata.push(StratumPlan { idb, steps, pruned });
    }
    Ok(CompiledProgram { strata })
}

fn assoc_cols(schema: &Schema, assoc: Sym) -> Option<Vec<Sym>> {
    let ty = schema.expand(schema.assoc_type(assoc)?);
    Some(ty.as_tuple()?.iter().map(|f| f.label).collect())
}

/// The program [`try_evaluate_compiled`] runs over `edb`: the rules lowered
/// by [`compile_program_with`] under the flow summaries inferred from
/// `edb`. Pruning and ordering decisions are sound for exactly this EDB, so
/// the program is rebuilt per evaluation, never cached across mutations.
/// EXPLAIN renders the same program.
pub fn compile_program_for(
    schema: &Schema,
    rules: &RuleSet,
    edb: &Instance,
    semantics: Semantics,
) -> Result<CompiledProgram, CompileUnsupported> {
    let summaries = infer(schema, rules, &seeds_from_instance(schema, edb));
    compile_program_with(schema, rules, semantics, Some(&summaries))
}

/// Try the compiled fast path. `None` means the program (or the options)
/// fell outside the fragment — the fallback has already been counted and
/// traced, and the caller should run the interpreter.
pub fn try_evaluate_compiled(
    schema: &Schema,
    rules: &RuleSet,
    edb: &Instance,
    semantics: Semantics,
    opts: &EvalOptions,
) -> Option<Result<(Instance, EvalReport), EngineError>> {
    if opts.provenance {
        note_fallback(opts, "logres_compile_fallbacks_total", PROVENANCE);
        return None;
    }
    match compile_program_for(schema, rules, edb, semantics) {
        Ok(program) => Some(run_compiled(schema, &program, rules, edb, opts)),
        Err(u) => {
            note_fallback(opts, "logres_compile_fallbacks_total", u.reason);
            None
        }
    }
}

/// The fallback reason of a run that records provenance: plans do not
/// track premises.
const PROVENANCE: &str = "provenance";

/// The route a run under `opts` takes for a program lowered to `program`:
/// the compiled program, or `Err` for the interpreter, carrying the
/// fallback the compile counter records (`None` when the compiled path is
/// switched off, which is a choice, not a fallback). Provenance is decided
/// before the lowering, exactly as [`try_evaluate_compiled`] decides it.
pub(crate) fn route<'p>(
    program: &'p Result<CompiledProgram, CompileUnsupported>,
    opts: &EvalOptions,
) -> Result<&'p CompiledProgram, Option<CompileUnsupported>> {
    if !opts.compiled {
        return Err(None);
    }
    if opts.provenance {
        return Err(Some(CompileUnsupported {
            reason: PROVENANCE,
            detail: "provenance recording is on; compiled plans do not track premises".to_owned(),
        }));
    }
    program.as_ref().map_err(|u| Some(u.clone()))
}

/// The relations a stratum's plans scan.
fn scanned(splan: &StratumPlan) -> FxHashSet<Sym> {
    let mut out = FxHashSet::default();
    let mut stack: Vec<&AlgExpr> = splan
        .steps
        .iter()
        .flat_map(|s| std::iter::once(&s.full).chain(&s.deltas))
        .collect();
    while let Some(e) = stack.pop() {
        if let AlgExpr::Rel(name) = e {
            out.insert(*name);
        }
        stack.extend(e.children());
    }
    out
}

/// Execute a compiled program: strata bottom-up, semi-naive rounds within
/// each stratum, one caching [`Evaluator`] per stratum so join hash tables
/// over stable (extensional and lower-stratum) relations are built once.
///
/// The result starts as a clone of `edb`, which shares every extent with it
/// (one refcount per relation, see [`Instance`]); derived tuples land in
/// extents of their own, so neither the clone nor its drop copies a stored
/// relation. Associations no rule of the program derives are read in place
/// from `edb` ([`Env::bind_stored`]): they become relations only if a plan
/// scans them in full, and joins against them may probe `edb`'s argument
/// indexes, which persist across calls on the same instance. Each stratum
/// binds, as it starts, the relations of lower strata that its plans read.
pub fn run_compiled(
    schema: &Schema,
    program: &CompiledProgram,
    rules: &RuleSet,
    edb: &Instance,
    opts: &EvalOptions,
) -> Result<(Instance, EvalReport), EngineError> {
    run_compiled_with(schema, program, rules, edb, None, opts)
}

/// [`run_compiled`] with a parameter relation bound in place of `edb`'s
/// extent of the same name: a prepared goal's one-row `@goal`
/// ([`crate::prepared`]). The relation is only read, never copied into the
/// result, so the instance returned holds exactly what `run_compiled`'s
/// would, and `edb` itself is neither cloned with the row nor re-indexed.
pub(crate) fn run_compiled_with(
    schema: &Schema,
    program: &CompiledProgram,
    rules: &RuleSet,
    edb: &Instance,
    param: Option<(Sym, Relation)>,
    opts: &EvalOptions,
) -> Result<(Instance, EvalReport), EngineError> {
    let mut total = edb.clone();
    let n = rules.rules.len();
    let mut gov = Governor::open("compiled", opts, &rules.rules, n, edb.fact_count());
    let mut plan_stats = EvalStats::default();
    let mut rule_stats = vec![EvalStats::default(); n];
    let mut profile = opts.profile.then(explain::PlanProfile::default);
    let derived: FxHashSet<Sym> = program
        .strata
        .iter()
        .flat_map(|s| s.idb.iter().copied())
        .collect();
    let mut env = Env::new();
    for a in schema.assocs() {
        if !derived.contains(&a) {
            if let Some(cols) = assoc_cols(schema, a) {
                env.bind_stored(a, cols, edb);
            }
        }
    }
    if let Some((name, rel)) = param {
        env.bind(name, rel);
    }
    for splan in &program.strata {
        for p in scanned(splan) {
            if derived.contains(&p) && !splan.idb.contains(&p) && !env.contains(p) {
                if let Some(rel) = relation_of(schema, &total, p) {
                    env.bind(p, rel);
                }
            }
        }
        let mut ev = Evaluator::new(&env);
        if opts.profile {
            ev.enable_profiling();
        }
        // Register every plan up front: caches and profiles key on the
        // stable per-plan node ids this assigns, not on node addresses.
        for step in &splan.steps {
            ev.register_plan(&step.full);
            for d in &step.deltas {
                ev.register_plan(d);
            }
        }
        let mut inserts: FxHashMap<u64, MaterializeStats> = FxHashMap::default();
        let mut idb_cols: FxHashMap<Sym, Vec<Sym>> = FxHashMap::default();
        for &p in &splan.idb {
            let rel = relation_of(schema, &total, p).ok_or(EngineError::UnknownPredicate(p))?;
            idb_cols.insert(p, rel.cols().to_vec());
            ev.bind(delta_sym(p), rel.clone());
            ev.bind(p, rel);
        }

        // Round 0 runs the full plans; later rounds only the delta plans.
        let mut use_delta = false;
        loop {
            gov.begin_round(total.fact_count())?;
            let match_start = Instant::now();
            let mut stats = IterationStats::default();
            let mut per_rule = vec![IterationStats::default(); n];
            let mut round_nodes = 0usize;
            let mut new_delta: FxHashMap<Sym, Relation> = splan
                .idb
                .iter()
                .map(|p| (*p, Relation::new(idb_cols[p].clone())))
                .collect();
            // One clock read closes each plan's evaluation and one its
            // inserts; a rule's time runs from the previous rule's last read.
            let mut mark = match_start;
            for step in &splan.steps {
                if gov.poll(step.rule_index) {
                    break;
                }
                let rule_start = mark;
                let mut rule_apply = 0u64;
                let plans: &[AlgExpr] = if use_delta {
                    &step.deltas
                } else {
                    std::slice::from_ref(&step.full)
                };
                let stats_before = ev.stats();
                for plan in plans {
                    let rel = ev.eval(plan)?;
                    stats.firings += rel.len();
                    per_rule[step.rule_index].firings += rel.len();
                    let evaluated = Instant::now();
                    let mut inserted = 0u64;
                    for t in rel.iter() {
                        if total.insert_assoc(step.head, t.clone()) {
                            inserted += 1;
                            stats.derived += 1;
                            per_rule[step.rule_index].derived += 1;
                            round_nodes += t.node_count();
                            new_delta
                                .get_mut(&step.head)
                                .expect("head in stratum idb")
                                .insert(t.clone());
                        }
                    }
                    mark = Instant::now();
                    let insert_nanos = mark.duration_since(evaluated).as_nanos() as u64;
                    rule_apply += insert_nanos;
                    if opts.profile {
                        let key = ev.node_id_of(plan).expect("plan registered above");
                        let m = inserts.entry(key).or_default();
                        m.evals += 1;
                        m.rows_in += rel.len() as u64;
                        m.rows_out += inserted;
                        m.nanos += insert_nanos;
                    }
                }
                let stats_after = ev.stats();
                let rs = &mut rule_stats[step.rule_index];
                rs.hash_builds += stats_after.hash_builds - stats_before.hash_builds;
                rs.probes += stats_after.probes - stats_before.probes;
                rs.memo_hits += stats_after.memo_hits - stats_before.memo_hits;
                let rule_nanos = mark.duration_since(rule_start).as_nanos() as u64;
                per_rule[step.rule_index].match_nanos += rule_nanos.saturating_sub(rule_apply);
                stats.apply_nanos += rule_apply;
            }
            let round_nanos = match_start.elapsed().as_nanos() as u64;
            stats.match_nanos = round_nanos.saturating_sub(stats.apply_nanos);
            for (idx, s) in per_rule.iter().enumerate() {
                gov.record_rule(idx, s);
            }
            gov.end_match(round_nodes, stats.match_nanos);
            gov.check(total.fact_count())?;
            gov.end_round(stats, total.fact_count());

            let mut progressed = false;
            for &p in &splan.idb {
                let nd = new_delta.remove(&p).expect("idb delta present");
                if !nd.is_empty() {
                    progressed = true;
                    ev.extend_binding(p, &nd);
                }
                ev.bind(delta_sym(p), nd);
            }
            use_delta = true;
            if !progressed {
                break;
            }
        }
        let s = ev.stats();
        plan_stats.hash_builds += s.hash_builds;
        plan_stats.probes += s.probes;
        plan_stats.memo_hits += s.memo_hits;
        if let Some(pp) = &mut profile {
            explain::profile_stratum(pp, splan, rules, &ev, &inserts);
        }
    }

    let mut report = gov.finish(total.fact_count());
    if let Some(m) = &opts.metrics {
        m.counter("logres_compile_runs_total").inc();
        m.counter("logres_compile_rounds_total")
            .add(report.steps as u64);
        m.counter("logres_compile_hash_builds_total")
            .add(plan_stats.hash_builds);
        m.counter("logres_compile_probes_total")
            .add(plan_stats.probes);
        m.counter("logres_compile_memo_hits_total")
            .add(plan_stats.memo_hits);
        // Per-rule breakdown of the same families: the `rule="N"` series are
        // additive (they sum to the unlabeled totals) and join against the
        // `logres_rule_*` families on the shared label.
        for (idx, rs) in rule_stats.iter().enumerate() {
            if rs.hash_builds == 0 && rs.probes == 0 && rs.memo_hits == 0 {
                continue;
            }
            let rule = idx.to_string();
            if rs.hash_builds > 0 {
                m.counter_with("logres_compile_hash_builds_total", "rule", &rule)
                    .add(rs.hash_builds);
            }
            if rs.probes > 0 {
                m.counter_with("logres_compile_probes_total", "rule", &rule)
                    .add(rs.probes);
            }
            if rs.memo_hits > 0 {
                m.counter_with("logres_compile_memo_hits_total", "rule", &rule)
                    .add(rs.memo_hits);
            }
        }
        // EXPLAIN ANALYZE counters: per-operator, per-rule. Only emitted
        // when a profile was collected (the families cost nothing on the
        // profiling-off path) and only for non-zero values.
        if let Some(pp) = &profile {
            let mut agg: BTreeMap<(String, usize), [u64; 5]> = BTreeMap::new();
            for rp in &pp.rules {
                for op in &rp.ops {
                    let e = agg.entry((op.op.clone(), rp.rule_index)).or_default();
                    e[0] += op.rows_in;
                    e[1] += op.rows_out;
                    e[2] += op.hash_builds;
                    e[3] += op.probes;
                    e[4] += op.memo_hits;
                }
            }
            const FAMILIES: [&str; 5] = [
                "logres_plan_op_rows_in_total",
                "logres_plan_op_rows_out_total",
                "logres_plan_op_hash_builds_total",
                "logres_plan_op_probes_total",
                "logres_plan_op_memo_hits_total",
            ];
            for ((op, rule), vals) in agg {
                let rule = rule.to_string();
                for (name, v) in FAMILIES.iter().zip(vals) {
                    if v > 0 {
                        m.counter_with2(name, "op", &op, "rule", &rule).add(v);
                    }
                }
            }
        }
    }
    report.plan_profile = profile;
    Ok((total, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::load_facts;
    use crate::metrics::MetricsRegistry;
    use crate::stratified::evaluate;
    use logres_lang::parse_program;
    use logres_model::{OidGen, Value};
    use std::sync::Arc;
    use std::time::Duration;

    fn setup(src: &str) -> (Schema, Instance, RuleSet) {
        let p = parse_program(src).expect("parses");
        let mut edb = Instance::new();
        let mut gen = OidGen::new();
        load_facts(&p.schema, &mut edb, &p.facts, &mut gen).expect("loads");
        (p.schema, edb, p.rules)
    }

    fn chain(n: i64) -> String {
        let mut src = String::from(
            "associations\n  e  = (a: integer, b: integer);\n  tc = (a: integer, b: integer);\nfacts\n",
        );
        for i in 0..n {
            src.push_str(&format!("  e(a: {i}, b: {}).\n", i + 1));
        }
        src.push_str(
            "rules\n  tc(a: X, b: Y) <- e(a: X, b: Y).\n  tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).\n",
        );
        src
    }

    fn opts_with(reg: &Arc<MetricsRegistry>) -> EvalOptions {
        EvalOptions {
            metrics: Some(reg.clone()),
            ..EvalOptions::default()
        }
    }

    #[test]
    fn compiled_dispatcher_runs_the_plan_not_the_interpreter() {
        let (schema, edb, rules) = setup(&chain(16));
        let reg = Arc::new(MetricsRegistry::new());
        let (compiled, _) = evaluate(
            &schema,
            &rules,
            &edb,
            Semantics::Inflationary,
            opts_with(&reg),
        )
        .unwrap();
        assert_eq!(reg.counter("logres_compile_runs_total").get(), 1);
        let (interp, _) = evaluate(
            &schema,
            &rules,
            &edb,
            Semantics::Inflationary,
            EvalOptions {
                compiled: false,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        let tc = Sym::new("tc");
        assert_eq!(compiled.assoc_len(tc), interp.assoc_len(tc));
        assert_eq!(compiled.assoc_len(tc), 16 * 17 / 2);
        for t in interp.tuples_of(tc) {
            assert!(compiled.has_tuple(tc, t));
        }
    }

    #[test]
    fn nonlinear_rules_are_handled() {
        // tc(X,Z) <- tc(X,Y), tc(Y,Z): two same-stratum occurrences, so the
        // rule gets one delta plan per occurrence.
        let src = r#"
            associations
              e  = (a: integer, b: integer);
              tc = (a: integer, b: integer);
            facts
              e(a: 1, b: 2).
              e(a: 2, b: 3).
              e(a: 3, b: 4).
              e(a: 4, b: 5).
            rules
              tc(a: X, b: Y) <- e(a: X, b: Y).
              tc(a: X, b: Z) <- tc(a: X, b: Y), tc(a: Y, b: Z).
        "#;
        let (schema, edb, rules) = setup(src);
        let reg = Arc::new(MetricsRegistry::new());
        let (compiled, _) = evaluate(
            &schema,
            &rules,
            &edb,
            Semantics::Inflationary,
            opts_with(&reg),
        )
        .unwrap();
        assert_eq!(reg.counter("logres_compile_runs_total").get(), 1);
        let (interp, _) = crate::inflationary::evaluate_inflationary(
            &schema,
            &rules,
            &edb,
            EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(compiled, interp);
        assert_eq!(compiled.assoc_len(Sym::new("tc")), 5 * 4 / 2);
    }

    #[test]
    fn stratified_negation_runs_compiled_and_matches_the_perfect_model() {
        let (schema, edb, rules) = setup(
            r#"
            associations
              node     = (n: integer);
              edge     = (a: integer, b: integer);
              covered  = (n: integer);
              isolated = (n: integer);
            facts
              node(n: 1).
              node(n: 2).
              node(n: 3).
              edge(a: 1, b: 2).
            rules
              covered(n: X) <- edge(a: X, b: Y).
              covered(n: X) <- edge(a: Y, b: X).
              isolated(n: X) <- node(n: X), not covered(n: X).
        "#,
        );
        let reg = Arc::new(MetricsRegistry::new());
        let (inst, _) = evaluate(
            &schema,
            &rules,
            &edb,
            Semantics::Stratified,
            opts_with(&reg),
        )
        .unwrap();
        assert_eq!(reg.counter("logres_compile_runs_total").get(), 1);
        assert_eq!(inst.assoc_len(Sym::new("isolated")), 1);
        assert!(inst.has_tuple(Sym::new("isolated"), &Value::tuple([("n", Value::Int(3))])));
    }

    #[test]
    fn fallback_reasons_are_counted_per_label() {
        // provenance: options force the interpreter.
        let (schema, edb, rules) = setup(&chain(4));
        let reg = Arc::new(MetricsRegistry::new());
        let mut opts = opts_with(&reg);
        opts.provenance = true;
        evaluate(&schema, &rules, &edb, Semantics::Inflationary, opts).unwrap();
        assert_eq!(
            reg.counter_with("logres_compile_fallbacks_total", "reason", "provenance")
                .get(),
            1
        );
        assert_eq!(reg.counter("logres_compile_runs_total").get(), 0);

        // fragment: oid invention through a class head.
        let (schema, edb, rules) = setup(
            r#"
            classes
              ip = (emp: string);
            associations
              pair = (emp: string);
            facts
              pair(emp: "e1").
            rules
              ip(self: X, C) <- pair(C).
        "#,
        );
        let reg = Arc::new(MetricsRegistry::new());
        evaluate(
            &schema,
            &rules,
            &edb,
            Semantics::Inflationary,
            opts_with(&reg),
        )
        .unwrap();
        assert_eq!(
            reg.counter_with("logres_compile_fallbacks_total", "reason", "fragment")
                .get(),
            1
        );

        // inflationary-negation: stratifiable, but the semantics differ.
        let (schema, edb, rules) = setup(
            r#"
            associations
              p = (d: integer);
              r = (d: integer);
              q = (d: integer);
            facts
              p(d: 1).
            rules
              q(d: X) <- p(d: X), not r(d: X).
        "#,
        );
        let reg = Arc::new(MetricsRegistry::new());
        evaluate(
            &schema,
            &rules,
            &edb,
            Semantics::Inflationary,
            opts_with(&reg),
        )
        .unwrap();
        assert_eq!(
            reg.counter_with(
                "logres_compile_fallbacks_total",
                "reason",
                "inflationary-negation"
            )
            .get(),
            1
        );

        // unstratifiable: negation through recursion.
        let (schema, edb, rules) = setup(
            r#"
            associations
              p = (d: integer);
              q = (d: integer);
            facts
              q(d: 1).
            rules
              p(d: X) <- q(d: X), not p(d: X).
        "#,
        );
        let reg = Arc::new(MetricsRegistry::new());
        evaluate(
            &schema,
            &rules,
            &edb,
            Semantics::Stratified,
            opts_with(&reg),
        )
        .unwrap();
        assert_eq!(
            reg.counter_with("logres_compile_fallbacks_total", "reason", "unstratifiable")
                .get(),
            1
        );
    }

    #[test]
    fn magic_guards_lower_to_semijoin_reducers() {
        // A guard literal whose variables are all bound earlier in the body
        // must become a SemiJoin, not a widening Join.
        let (schema, _, rules) = setup(
            r#"
            associations
              e = (a: integer, b: integer);
              g = (a: integer);
              p = (a: integer, b: integer);
            rules
              p(a: X, b: Y) <- e(a: X, b: Y), g(a: X).
        "#,
        );
        let program = compile_program(&schema, &rules, Semantics::Inflationary).unwrap();
        let plan = format!("{:?}", program.strata[0].steps[0].full);
        assert!(plan.contains("SemiJoin"), "expected a semijoin in {plan}");
    }

    #[test]
    fn join_tables_are_cached_across_rounds_pin() {
        // Satellite pin for the evaluator-caching bugfix: the number of hash
        // tables built must not scale with the number of semi-naive rounds.
        let run = |n: i64| {
            let (schema, edb, rules) = setup(&chain(n));
            let reg = Arc::new(MetricsRegistry::new());
            evaluate(
                &schema,
                &rules,
                &edb,
                Semantics::Inflationary,
                opts_with(&reg),
            )
            .unwrap();
            (
                reg.counter("logres_compile_rounds_total").get(),
                reg.counter("logres_compile_hash_builds_total").get(),
                reg.counter("logres_compile_probes_total").get(),
            )
        };
        let (rounds_small, builds_small, _) = run(16);
        let (rounds_big, builds_big, probes_big) = run(48);
        assert!(rounds_big > rounds_small, "longer chain, more rounds");
        assert_eq!(
            builds_small, builds_big,
            "hash builds must be independent of round count"
        );
        assert!(
            probes_big > rounds_big,
            "probing happens against cached tables every round"
        );
    }

    #[test]
    fn ground_seed_rules_compile_to_const_plans() {
        // Empty-body ground rules (the shape of magic-set demand seeds)
        // lower to unit-relation constants, keeping the whole rewritten
        // program on the compiled path.
        let (schema, edb, rules) = setup(
            r#"
            associations
              seed = (a: integer);
              e    = (a: integer, b: integer);
              p    = (a: integer, b: integer);
            facts
              e(a: 1, b: 2).
              e(a: 3, b: 4).
            rules
              seed(a: 1) <- .
              p(a: X, b: Y) <- seed(a: X), e(a: X, b: Y).
        "#,
        );
        let reg = Arc::new(MetricsRegistry::new());
        let (inst, _) = evaluate(
            &schema,
            &rules,
            &edb,
            Semantics::Inflationary,
            opts_with(&reg),
        )
        .unwrap();
        assert_eq!(reg.counter("logres_compile_runs_total").get(), 1);
        assert_eq!(inst.assoc_len(Sym::new("seed")), 1);
        assert_eq!(inst.assoc_len(Sym::new("p")), 1);
        assert!(inst.has_tuple(
            Sym::new("p"),
            &Value::tuple([("a", Value::Int(1)), ("b", Value::Int(2))])
        ));
    }

    #[test]
    fn plan_profile_attributes_rows_builds_and_materialization() {
        let (schema, edb, rules) = setup(&chain(12));
        let opts = EvalOptions {
            profile: true,
            ..EvalOptions::default()
        };
        let (_, report) = evaluate(&schema, &rules, &edb, Semantics::Inflationary, opts).unwrap();
        let profile = report.plan_profile.expect("compiled run was profiled");
        // Two rules: the base rule has one plan (full), the recursive rule
        // has full + delta[0].
        assert_eq!(profile.rules.len(), 3);
        let plans: Vec<&str> = profile.rules.iter().map(|r| r.plan.as_str()).collect();
        assert_eq!(plans, ["full", "full", "delta[0]"]);
        // Every plan ends with the driver's materialize pseudo-op whose
        // rows_out are the genuinely-new facts.
        let derived: u64 = profile
            .rules
            .iter()
            .map(|r| r.ops.last().expect("materialize op present"))
            .map(|m| {
                assert_eq!(m.op, "materialize");
                m.rows_out
            })
            .sum();
        assert_eq!(derived as usize, 12 * 13 / 2);
        // The delta plan's join carries the probe traffic; its stats are a
        // subset of the evaluator totals.
        let delta = &profile.rules[2];
        let join = delta
            .ops
            .iter()
            .find(|op| op.op == "join")
            .expect("delta plan joins @delta_tc with e");
        assert!(join.evals > 1, "one eval per semi-naive round: {join:?}");
        assert!(join.probes > 0, "{join:?}");
        assert!(join.rows_out > 0, "{join:?}");
        // Timing: inclusive covers exclusive for every op.
        for rp in &profile.rules {
            for op in &rp.ops {
                assert!(op.nanos >= op.self_nanos, "{op:?}");
            }
        }
        // A profiling-off run attaches nothing.
        let (_, report) = evaluate(
            &schema,
            &rules,
            &edb,
            Semantics::Inflationary,
            EvalOptions::default(),
        )
        .unwrap();
        assert!(report.plan_profile.is_none());
    }

    #[test]
    fn closure_plans_fuse_reshape_chains_into_emit_nodes() {
        // Tentpole pin: the micro-closure rule plans must carry the fused
        // emit reshape and no residual rename/project/extend chain — the
        // per-round operator churn E15 attributed the compiled-path gap to.
        let (schema, _, rules) = setup(&chain(16));
        let program = compile_program(&schema, &rules, Semantics::Inflationary).unwrap();
        for step in &program.strata[0].steps {
            for (label, plan) in std::iter::once(("full", &step.full))
                .chain(step.deltas.iter().map(|d| ("delta", d)))
            {
                let dbg = format!("{plan:?}");
                assert!(dbg.contains("Emit"), "{label} plan lost fusion: {dbg}");
                for residue in ["Rename", "Project", "Extend"] {
                    assert!(
                        !dbg.contains(residue),
                        "{label} plan kept a {residue} the emit should absorb: {dbg}"
                    );
                }
            }
        }
        // The recursive rule's delta plan probes straight out of the join:
        // its root is the emit and the emit's input is the join itself.
        let delta = &program.strata[0].steps[1].deltas[0];
        let algres::AlgExpr::Emit { input, .. } = delta else {
            panic!("delta plan root is not an emit: {delta:?}");
        };
        assert!(
            matches!(input.as_ref(), algres::AlgExpr::Join { .. }),
            "emit does not sit directly on the join: {delta:?}"
        );
    }

    #[test]
    fn fused_emit_profile_conserves_join_rows() {
        // EXPLAIN ANALYZE discipline for the fused node: the join's rows_out
        // must equal the emit's rows_in (nothing double-counted or lost) and
        // inclusive time must cover self time for both.
        let (schema, edb, rules) = setup(&chain(12));
        let opts = EvalOptions {
            profile: true,
            ..EvalOptions::default()
        };
        let (_, report) = evaluate(&schema, &rules, &edb, Semantics::Inflationary, opts).unwrap();
        let profile = report.plan_profile.expect("compiled run was profiled");
        let delta = &profile.rules[2];
        assert_eq!(delta.plan, "delta[0]");
        let emit = delta
            .ops
            .iter()
            .find(|op| op.op == "emit")
            .expect("emit op");
        let join = delta
            .ops
            .iter()
            .find(|op| op.op == "join")
            .expect("join op");
        assert_eq!(
            emit.rows_in, join.rows_out,
            "join pairs must flow 1:1 into the fused emit: {emit:?} vs {join:?}"
        );
        assert_eq!(emit.evals, join.evals, "{emit:?} vs {join:?}");
        // The full plan's join short-circuits in round 0, where `tc` is
        // still empty, and still counts as one evaluation, like its emit.
        let full = &profile.rules[1];
        assert_eq!(full.plan, "full");
        let evals = |op: &str| full.ops.iter().find(|o| o.op == op).expect(op).evals;
        assert_eq!((evals("emit"), evals("join")), (1, 1), "{full:?}");
        assert!(emit.rows_out > 0, "{emit:?}");
        assert!(emit.nanos >= emit.self_nanos, "{emit:?}");
        assert!(join.nanos >= join.self_nanos, "{join:?}");
        // The emit's self time is exactly its inclusive time minus the
        // join's — the probe-and-reshape pass, never negative.
        assert_eq!(
            emit.self_nanos,
            emit.nanos.saturating_sub(join.nanos),
            "emit self time double-counts its child: {emit:?} vs {join:?}"
        );
    }

    #[test]
    fn rule_labeled_compile_counters_are_additive() {
        let (schema, edb, rules) = setup(&chain(16));
        let reg = Arc::new(MetricsRegistry::new());
        evaluate(
            &schema,
            &rules,
            &edb,
            Semantics::Inflationary,
            opts_with(&reg),
        )
        .unwrap();
        for family in [
            "logres_compile_hash_builds_total",
            "logres_compile_probes_total",
            "logres_compile_memo_hits_total",
        ] {
            let total = reg.counter(family).get();
            let labeled: u64 = (0..rules.rules.len())
                .map(|i| reg.counter_with(family, "rule", &i.to_string()).get())
                .sum();
            assert_eq!(labeled, total, "{family}: rule series must sum to total");
        }
    }

    #[test]
    fn plan_op_metrics_are_emitted_only_when_profiling() {
        let (schema, edb, rules) = setup(&chain(8));
        let reg = Arc::new(MetricsRegistry::new());
        evaluate(
            &schema,
            &rules,
            &edb,
            Semantics::Inflationary,
            opts_with(&reg),
        )
        .unwrap();
        let snapshot = reg.counter_snapshot();
        assert!(
            !snapshot.iter().any(|(k, _)| k.contains("logres_plan_op_")),
            "no plan_op families without profiling: {snapshot:?}"
        );

        let reg = Arc::new(MetricsRegistry::new());
        let opts = EvalOptions {
            profile: true,
            ..opts_with(&reg)
        };
        evaluate(&schema, &rules, &edb, Semantics::Inflationary, opts).unwrap();
        let text = reg.render_text();
        assert!(
            text.contains(r#"logres_plan_op_probes_total{op="join",rule="1"}"#),
            "{text}"
        );
        assert!(
            text.contains(r#"logres_plan_op_rows_out_total{op="materialize",rule="0"}"#),
            "{text}"
        );
    }

    #[test]
    fn governor_budgets_apply_on_the_compiled_path() {
        let (schema, edb, rules) = setup(&chain(64));
        let opts = EvalOptions {
            deadline: Some(Duration::ZERO),
            ..EvalOptions::default()
        };
        match evaluate(&schema, &rules, &edb, Semantics::Inflationary, opts) {
            Err(EngineError::Cancelled { .. }) => {}
            other => panic!("expected cancellation, got {other:?}"),
        }
        let opts = EvalOptions {
            max_steps: 3,
            ..EvalOptions::default()
        };
        match evaluate(&schema, &rules, &edb, Semantics::Inflationary, opts) {
            Err(EngineError::NoFixpoint { steps: 3 }) => {}
            other => panic!("expected NoFixpoint, got {other:?}"),
        }
    }

    fn flow_of(
        schema: &Schema,
        rules: &RuleSet,
        edb: &Instance,
    ) -> logres_lang::analyze::FlowSummaries {
        let seeds = seeds_from_instance(schema, edb);
        infer(schema, rules, &seeds)
    }

    #[test]
    fn flow_prunes_statically_empty_rules_and_results_are_identical() {
        let (schema, edb, rules) = setup(
            r#"
            associations
              src   = (d: integer);
              never = (d: integer);
              out_t = (d: integer);
            facts
              src(d: 1).
              src(d: 2).
            rules
              never(d: X) <- src(d: X), X > 7.
              out_t(d: X) <- src(d: X).
        "#,
        );
        let summaries = flow_of(&schema, &rules, &edb);
        let program =
            compile_program_with(&schema, &rules, Semantics::Inflationary, Some(&summaries))
                .unwrap();
        let pruned: Vec<usize> = program
            .strata
            .iter()
            .flat_map(|s| s.pruned.iter().map(|(ri, _)| *ri))
            .collect();
        assert_eq!(pruned, vec![0], "the always-false rule is pruned");
        let text = crate::explain::render_program(&program, &rules);
        assert!(text.contains("pruned-by-flow"), "{text}");
        let json = crate::explain::render_program_json(&program, &rules);
        assert!(json.contains("\"pruned_by_flow\""), "{json}");
        // The pruned compiled run and the unpruned interpreter agree bit
        // for bit (the pruned rule could never fire).
        let (compiled, _) = evaluate(
            &schema,
            &rules,
            &edb,
            Semantics::Inflationary,
            EvalOptions::default(),
        )
        .unwrap();
        let (interp, _) = evaluate(
            &schema,
            &rules,
            &edb,
            Semantics::Inflationary,
            EvalOptions {
                compiled: false,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        assert_eq!(compiled, interp);
    }

    #[test]
    fn flow_orders_joins_by_cardinality_band() {
        let (schema, edb, rules) = setup(
            r#"
            associations
              many_e = (a: integer, b: integer);
              one_s  = (a: integer);
              p      = (a: integer, b: integer);
            facts
              many_e(a: 1, b: 2).
              many_e(a: 1, b: 3).
              many_e(a: 2, b: 4).
              one_s(a: 1).
            rules
              p(a: X, b: Y) <- many_e(a: X, b: Y), one_s(a: X).
        "#,
        );
        let summaries = flow_of(&schema, &rules, &edb);
        let program =
            compile_program_with(&schema, &rules, Semantics::Inflationary, Some(&summaries))
                .unwrap();
        let step = &program.strata[0].steps[0];
        assert!(
            step.notes
                .iter()
                .any(|n| n.starts_with("ordered-by-flow") && n.contains("[1, 0]")),
            "the at-most-one relation should lead the join: {:?}",
            step.notes
        );
        let (compiled, _) = evaluate(
            &schema,
            &rules,
            &edb,
            Semantics::Inflationary,
            EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(compiled.assoc_len(Sym::new("p")), 2);
        assert!(compiled.has_tuple(
            Sym::new("p"),
            &Value::tuple([("a", Value::Int(1)), ("b", Value::Int(2))])
        ));
    }

    #[test]
    fn flow_skips_statically_total_semijoin_guards() {
        let (schema, edb, rules) = setup(
            r#"
            associations
              big     = (a: integer, b: integer);
              allowed = (k: integer);
              out_p   = (a: integer);
            facts
              big(a: 1, b: 10).
              big(a: 2, b: 20).
              allowed(k: 1).
              allowed(k: 2).
              allowed(k: 3).
            rules
              out_p(a: X) <- big(a: X, b: Y), allowed(k: X).
        "#,
        );
        let summaries = flow_of(&schema, &rules, &edb);
        let program =
            compile_program_with(&schema, &rules, Semantics::Inflationary, Some(&summaries))
                .unwrap();
        let step = &program.strata[0].steps[0];
        assert!(
            step.notes
                .iter()
                .any(|n| n.contains("skip-semijoin-by-flow")),
            "the total guard should be elided: {:?}",
            step.notes
        );
        let plan = format!("{:?}", step.full);
        assert!(
            !plan.contains("SemiJoin") && !plan.contains("allowed"),
            "guard scan must be gone from the plan: {plan}"
        );
        // Eliding the reducer changes nothing about the answer.
        let (compiled, _) = evaluate(
            &schema,
            &rules,
            &edb,
            Semantics::Inflationary,
            EvalOptions::default(),
        )
        .unwrap();
        let (interp, _) = evaluate(
            &schema,
            &rules,
            &edb,
            Semantics::Inflationary,
            EvalOptions {
                compiled: false,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        assert_eq!(compiled, interp);
        assert_eq!(compiled.assoc_len(Sym::new("out_p")), 2);
    }

    #[test]
    fn compile_without_flow_emits_no_notes_or_pruning() {
        let (schema, _, rules) = setup(&chain(4));
        let program = compile_program(&schema, &rules, Semantics::Inflationary).unwrap();
        for s in &program.strata {
            assert!(s.pruned.is_empty());
            for step in &s.steps {
                assert!(step.notes.is_empty());
            }
        }
    }

    #[test]
    fn report_carries_per_rule_profiles_and_iterations() {
        let (schema, edb, rules) = setup(&chain(8));
        let (_, report) = evaluate(
            &schema,
            &rules,
            &edb,
            Semantics::Inflationary,
            EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(report.rule_profiles.len(), 2);
        assert!(report.rule_profiles.iter().all(|p| p.derived > 0));
        assert_eq!(report.steps, report.iterations.len());
        assert!(report.steps >= 8);
        assert_eq!(report.facts, 8 + 8 * 9 / 2);
    }

    /// A forest of `families` identical binary trees of seven edges each,
    /// with the `ancestor` closure over it.
    fn forest(families: usize) -> String {
        let mut src = String::from(
            "associations\n  parent = (par: string, chil: string);\n  ancestor = (anc: string, des: string);\nfacts\n",
        );
        for f in 0..families {
            for i in 1..8 {
                src.push_str(&format!(
                    "  parent(par: \"f{f}_{}\", chil: \"f{f}_{i}\").\n",
                    (i - 1) / 2
                ));
            }
        }
        src.push_str(
            "rules\n  ancestor(anc: X, des: Y) <- parent(par: X, chil: Y).\n  ancestor(anc: X, des: Z) <- parent(par: X, chil: Y), ancestor(anc: Y, des: Z).\n",
        );
        src
    }

    /// Answer `goal` over `src` on the demand path with metrics and the
    /// plan profile on.
    fn demand_run(
        src: &str,
        goal: &str,
    ) -> (
        crate::magic::AnswerRows,
        explain::PlanProfile,
        Arc<MetricsRegistry>,
    ) {
        let p = parse_program(&format!("{src}goal {goal}?\n")).expect("parses");
        let mut edb = Instance::new();
        load_facts(&p.schema, &mut edb, &p.facts, &mut OidGen::new()).expect("loads");
        let reg = Arc::new(MetricsRegistry::new());
        let opts = EvalOptions {
            profile: true,
            ..opts_with(&reg)
        };
        let goal = p.goal.expect("goal");
        let (rows, report) = crate::magic::answer_goal_demand(
            &p.schema,
            &p.rules,
            &edb,
            &goal,
            Semantics::Stratified,
            opts,
        )
        .expect("evaluates")
        .expect("bound goal rewrites");
        (rows, report.plan_profile.expect("ran compiled"), reg)
    }

    #[test]
    fn bound_goals_probe_the_edb_index_and_cost_the_same_at_any_size() {
        // The demanded cone of one family is the same whatever the number
        // of families: so must be the work.
        for goal in [
            "ancestor(anc: \"f0_0\", des: D)",
            "ancestor(anc: A, des: \"f0_7\")",
        ] {
            let counts: Vec<(crate::magic::AnswerRows, u64, u64)> = [16, 256]
                .into_iter()
                .map(|families| {
                    let (rows, profile, reg) = demand_run(&forest(families), goal);
                    let ops: Vec<&explain::OpProfile> =
                        profile.rules.iter().flat_map(|r| r.ops.iter()).collect();
                    for op in &ops {
                        if op.op == "scan" && op.detail == "parent" {
                            assert_eq!((op.evals, op.rows_out), (0, 0), "{goal}: {op:?}");
                        }
                        if op.access.contains("parent") {
                            assert!(op.access.starts_with("index parent."), "{op:?}");
                            assert!(!op.access.contains("hash"), "{goal}: {op:?}");
                            assert_eq!(op.hash_builds, 0, "{goal}: {op:?}");
                        }
                    }
                    assert!(
                        ops.iter().any(|op| op.access.starts_with("index parent.")),
                        "{goal}: no join probed the index"
                    );
                    (
                        rows,
                        reg.counter("logres_compile_probes_total").get(),
                        reg.counter("logres_compile_hash_builds_total").get(),
                    )
                })
                .collect();
            assert!(!counts[0].0.is_empty(), "{goal}");
            assert_eq!(counts[0], counts[1], "{goal}: work grew with the EDB");
        }
    }

    #[test]
    fn bound_goals_share_the_edb_extents_they_only_read() {
        // Demand evaluation starts from a clone of the EDB: `parent`, which
        // no rule derives, must come back as the EDB's own extent, so the
        // clone and its drop cost a refcount rather than a copy of the
        // relation, at any size.
        let parent = Sym::new("parent");
        for families in [16, 256] {
            let p = parse_program(&format!(
                "{}goal ancestor(anc: \"f0_0\", des: D)?\n",
                forest(families)
            ))
            .expect("parses");
            let mut edb = Instance::new();
            load_facts(&p.schema, &mut edb, &p.facts, &mut OidGen::new()).expect("loads");
            let (inst, _) = crate::magic::evaluate_demand(
                &p.schema,
                &p.rules,
                &edb,
                &p.goal.expect("goal"),
                Semantics::Stratified,
                EvalOptions::default(),
            )
            .expect("evaluates")
            .expect("bound goal rewrites");
            assert_eq!(inst.assoc_len(parent), 7 * families);
            assert!(inst.assoc_len(Sym::new("ancestor")) > 0);
            assert!(inst.shares_extent(&edb, parent), "{families} families");
        }
    }

    #[test]
    fn an_empty_magic_delta_builds_no_table_over_the_closure() {
        // E13's shape: in `tc <- @magic_tc, tc, e`, the delta plan on the
        // magic literal reads the seed in round 1 and nothing after it.
        let n = 32;
        let (rows, profile, _) = demand_run(&chain(n), "tc(a: 0, b: X)");
        assert_eq!(rows.len(), n as usize);
        let plan = profile
            .rules
            .iter()
            .find(|r| {
                r.plan == "delta[0]"
                    && r.ops.iter().any(|op| op.detail == "@delta_@magic_tc")
                    && r.ops.iter().any(|op| op.op == "scan" && op.detail == "tc")
            })
            .expect("delta[0] on the magic literal of the recursive rule");
        let scan_tc = plan
            .ops
            .iter()
            .find(|op| op.op == "scan" && op.detail == "tc")
            .expect("scan tc");
        let builds: u64 = plan.ops.iter().map(|op| op.hash_builds).sum();
        let evals = plan.ops[0].evals;
        assert!(evals > n as u64, "one evaluation per round: {plan:?}");
        assert_eq!((scan_tc.evals, builds), (1, 1), "{plan:?}");
    }

    #[test]
    fn predicates_with_stored_facts_and_rules_stay_off_the_index_path() {
        // `link` has a stored fact and a rule: it is derived, so joins read
        // the relation the rounds build, never the EDB's index.
        let mut src = String::from(
            "associations\n  e = (a: integer, b: integer);\n  blocked = (a: integer);\n  link = (a: integer, b: integer);\n  start = (a: integer);\n  out_l = (a: integer, b: integer);\nfacts\n  blocked(a: 3).\n  link(a: 100, b: 101).\n  start(a: 100).\n  start(a: 2).\n",
        );
        for i in 0..20 {
            src.push_str(&format!("  e(a: {i}, b: {}).\n", i + 1));
        }
        src.push_str(
            "rules\n  link(a: X, b: Y) <- e(a: X, b: Y), not blocked(a: X).\n  out_l(a: X, b: Y) <- start(a: X), link(a: X, b: Y).\n",
        );
        let (schema, edb, rules) = setup(&src);
        let (compiled, report) = evaluate(
            &schema,
            &rules,
            &edb,
            Semantics::Stratified,
            EvalOptions {
                profile: true,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        let profile = report.plan_profile.expect("ran compiled");
        let accesses: Vec<&str> = profile
            .rules
            .iter()
            .flat_map(|r| r.ops.iter())
            .map(|op| op.access.as_str())
            .filter(|a| !a.is_empty())
            .collect();
        assert!(accesses.iter().all(|a| !a.contains("link")), "{accesses:?}");
        let (interp, _) = evaluate(
            &schema,
            &rules,
            &edb,
            Semantics::Stratified,
            EvalOptions {
                compiled: false,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        assert_eq!(compiled, interp);
        let out_l = Sym::new("out_l");
        assert_eq!(compiled.assoc_len(out_l), 2);
        assert!(compiled.has_tuple(
            out_l,
            &Value::tuple([("a", Value::Int(100)), ("b", Value::Int(101))])
        ));
    }
}
