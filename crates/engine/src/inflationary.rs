//! The inflationary fixpoint driver: `F⁰ = E, F¹, …, Fᵏ = Fᵏ⁺¹`.
//!
//! The driver runs a list of strata, each a list of canonical rule indices,
//! one after the other to its fixpoint: whole-program inflationary
//! evaluation is one stratum holding every rule, and the stratified driver
//! ([`crate::stratified`]) passes its stratification. One
//! [`crate::Governor`] records the whole run.
//!
//! Termination is not guaranteed and not decidable (Appendix B), so the
//! run carries fuel: a step limit and a fact-count limit. Reaching either
//! reports an error instead of looping.

use std::sync::Arc;
use std::time::{Duration, Instant};

use logres_lang::RuleSet;
use logres_model::{Instance, Schema};

use crate::delta::OneStep;
use crate::error::EngineError;
use crate::governor::Governor;
use crate::metrics::MetricsRegistry;
use crate::provenance::Provenance;
use crate::trace::{self, TraceEvent, Tracer};

/// Fuel limits and execution knobs for an evaluation run.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Maximum number of rounds (one-step applications) the whole run may
    /// begin, counted across every stratum.
    pub max_steps: usize,
    /// Maximum number of stored facts, checked as each round begins.
    pub max_facts: usize,
    /// Ignored. Every driver matches its rules serially in canonical rule
    /// order; the field stays for callers that still set it, and any value
    /// produces the same instance, report, trace and counters.
    pub threads: usize,
    /// Wall-clock budget for the whole run, every stratum included. When it
    /// elapses the governor cancels cooperatively — the driver polls before
    /// each rule it matches, so within one rule match — and the driver
    /// returns [`EngineError::Cancelled`] carrying the partial report.
    pub deadline: Option<Duration>,
    /// Budget on the cumulative [`logres_model::Value::node_count`] of the
    /// facts the whole run derives — a machine-independent memory proxy
    /// checked at step boundaries.
    pub max_value_nodes: Option<usize>,
    /// Structured trace sink; `None` (the default) emits nothing and costs
    /// nothing.
    pub trace: Option<Arc<Tracer>>,
    /// Metrics registry the run reports into; `None` (the default) counts
    /// nothing and costs nothing on the hot paths. Counting metrics are
    /// deterministic: the same program, EDB and options count the same on
    /// every run; timing metrics are not.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Record derivation provenance (rule, stratum, step, ground premises)
    /// for every `Δ⁺` fact and invented oid, attached to the report as
    /// [`EvalReport::provenance`]. Off by default: it clones every derived
    /// fact and its premises.
    pub provenance: bool,
    /// Route [`crate::stratified::evaluate`] / demand evaluation through the
    /// compiled ALGRES plan executor ([`crate::plan`]) when the program fits
    /// the compilable fragment, falling back to the tuple-at-a-time
    /// interpreter (with a `logres_compile_fallbacks_total{reason=…}` count)
    /// when it does not. On by default; turn off to force the interpreted
    /// path — e.g. as the differential-testing oracle.
    pub compiled: bool,
    /// Collect a per-operator [`crate::explain::PlanProfile`] on the
    /// compiled path (EXPLAIN ANALYZE), attached to the report as
    /// [`EvalReport::plan_profile`]. Off by default: it adds a timer and a
    /// hash-map update around every operator evaluation. Has no effect on
    /// the interpreted path.
    pub profile: bool,
}

impl Default for EvalOptions {
    fn default() -> EvalOptions {
        EvalOptions {
            max_steps: 100_000,
            max_facts: 10_000_000,
            threads: 1,
            deadline: None,
            max_value_nodes: None,
            trace: None,
            metrics: None,
            provenance: false,
            compiled: true,
            profile: false,
        }
    }
}

/// Counters and wall-clock timings for one application of the one-step
/// operator (or one semi-naive round).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IterationStats {
    /// Satisfying body valuations found across all rules.
    pub firings: usize,
    /// Facts derived (`Δ⁺`, or newly inserted facts in a semi-naive round).
    pub derived: usize,
    /// Facts deleted (`Δ⁻`; always 0 for semi-naive).
    pub deleted: usize,
    /// Fresh oids invented this iteration.
    pub invented: usize,
    /// Nanoseconds spent matching bodies and instantiating heads.
    pub match_nanos: u64,
    /// Nanoseconds spent applying the composition to the instance.
    pub apply_nanos: u64,
}

/// Cumulative per-rule profiling counters across a whole run.
///
/// All fields except `match_nanos` are deterministic: the same program and
/// options produce the same counters on every run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleProfile {
    /// The rule, rendered by its `Display` impl.
    pub rule: String,
    /// Satisfying body valuations across all steps.
    pub firings: usize,
    /// Facts this rule contributed to `Δ⁺`.
    pub derived: usize,
    /// Facts this rule contributed to `Δ⁻`.
    pub deleted: usize,
    /// Fresh oids this rule invented.
    pub invented: usize,
    /// Nanoseconds spent matching this rule's body (timing field).
    pub match_nanos: u64,
}

/// What a run did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalReport {
    /// Rounds until the fixpoint (0 = the EDB was already closed). The
    /// interpreter does not count the round of each stratum that confirms
    /// its fixpoint; the compiled path counts every round; maintenance
    /// counts its delta rounds.
    pub steps: usize,
    /// Facts in the final instance.
    pub facts: usize,
    /// Set by the stratified driver when it fell back to whole-program
    /// inflationary evaluation.
    pub fallback_inflationary: bool,
    /// One entry per round (for the interpreter, including each stratum's
    /// final round that confirms the fixpoint by deriving nothing).
    pub iterations: Vec<IterationStats>,
    /// Cumulative per-rule counters, in canonical rule order.
    pub rule_profiles: Vec<RuleProfile>,
    /// On a cancelled run, the rule whose body was being matched when the
    /// governor tripped (if the abort landed inside a match phase).
    pub cancelled_in_rule: Option<String>,
    /// Derivation provenance, when the run had `EvalOptions::provenance`
    /// set (partial stores travel with cancelled runs too).
    pub provenance: Option<Provenance>,
    /// Per-operator runtime profile (EXPLAIN ANALYZE), when the run had
    /// [`EvalOptions::profile`] set and took the compiled path. `None` on
    /// interpreted runs — the interpreter has no operator tree to profile.
    pub plan_profile: Option<crate::explain::PlanProfile>,
}

/// Run the inflationary semantics of `rules` over `edb`; returns the
/// resulting instance (the paper's `I` with `(E, I) ∈ 7(R)`).
pub fn evaluate_inflationary(
    schema: &Schema,
    rules: &RuleSet,
    edb: &Instance,
    opts: EvalOptions,
) -> Result<(Instance, EvalReport), EngineError> {
    let all: Vec<usize> = (0..rules.rules.len()).collect();
    evaluate_strata(schema, rules, edb, &[all], &opts)
}

/// Run `strata` (lists of canonical rule indices, in evaluation order) one
/// after the other, each to its inflationary fixpoint, under one
/// [`Governor`]: one set of budgets, run-wide step numbers, one trace, and
/// one report whose profiles and provenance number rules canonically.
///
/// Each stratum starts a fresh invention memo and oid generator, which
/// resumes past the oids of the instance the stratum starts from.
pub(crate) fn evaluate_strata(
    schema: &Schema,
    rules: &RuleSet,
    edb: &Instance,
    strata: &[Vec<usize>],
    opts: &EvalOptions,
) -> Result<(Instance, EvalReport), EngineError> {
    let n = rules.rules.len();
    let mut gov = Governor::open("inflationary", opts, &rules.rules, n, edb.fact_count());
    if opts.provenance {
        gov.record_provenance(Provenance::new(rules, strata));
    }
    let mut inst = edb.clone();
    for stratum in strata {
        let mut step = OneStep::new(schema, rules, &inst);
        loop {
            let i = gov.begin_round(inst.fact_count())?;
            let match_start = Instant::now();
            let deltas = step.deltas_governed(&inst, stratum, &mut gov)?;
            let match_nanos = match_start.elapsed().as_nanos() as u64;
            gov.end_match(deltas.plus_nodes, match_nanos);
            if !deltas.cancelled && deltas.is_empty() {
                gov.confirm(IterationStats {
                    firings: deltas.firings,
                    match_nanos,
                    ..IterationStats::default()
                });
                break;
            }
            // Cooperative abort: the instance under construction is
            // discarded; the report of completed steps travels with the
            // error.
            gov.check(inst.fact_count())?;
            let before = inst.clone();
            let apply_start = Instant::now();
            step.apply(&mut inst, &deltas);
            let apply_nanos = apply_start.elapsed().as_nanos() as u64;
            if !deltas.minus.is_empty() {
                trace::emit(gov.tracer(), || TraceEvent::Deletion {
                    step: i,
                    count: deltas.minus.len(),
                });
            }
            let stats = IterationStats {
                firings: deltas.firings,
                derived: deltas.plus.len(),
                deleted: deltas.minus.len(),
                invented: deltas.invented,
                match_nanos,
                apply_nanos,
            };
            gov.end_round(stats, inst.fact_count());
            if inst == before {
                // Δ⁺ and Δ⁻ cancelled exactly: a fixpoint of the operator.
                break;
            }
        }
    }
    let report = gov.finish(inst.fact_count());
    Ok((inst, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::load_facts;
    use logres_lang::parse_program;
    use logres_model::{OidGen, Sym, Value};

    fn run(src: &str) -> (Schema, Instance, EvalReport) {
        let p = parse_program(src).expect("parses");
        logres_lang::check_program(&p).expect("checks");
        let mut edb = Instance::new();
        let mut gen = OidGen::new();
        load_facts(&p.schema, &mut edb, &p.facts, &mut gen).expect("loads");
        let (inst, report) =
            evaluate_inflationary(&p.schema, &p.rules, &edb, EvalOptions::default())
                .expect("evaluates");
        (p.schema, inst, report)
    }

    #[test]
    fn transitive_closure_of_a_chain() {
        let (_, inst, report) = run(r#"
            associations
              e  = (a: integer, b: integer);
              tc = (a: integer, b: integer);
            facts
              e(a: 1, b: 2).
              e(a: 2, b: 3).
              e(a: 3, b: 4).
            rules
              tc(a: X, b: Y) <- e(a: X, b: Y).
              tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).
        "#);
        assert_eq!(inst.assoc_len(Sym::new("tc")), 6);
        assert!(report.steps >= 3);
    }

    #[test]
    fn example_4_1_rules_as_triggers() {
        // E0 = {italian(sara)}; module adds luca, roman ugo, and the
        // propagation rule. Expected: italian = {sara, luca, ugo}.
        let (_, inst, _) = run(r#"
            associations
              italian = (name: string);
              roman   = (name: string);
            facts
              italian(name: "sara").
            rules
              italian(name: "luca") <- .
              roman(name: "ugo") <- .
              italian(name: X) <- roman(name: X).
        "#);
        assert_eq!(inst.assoc_len(Sym::new("italian")), 3);
        assert_eq!(inst.assoc_len(Sym::new("roman")), 1);
    }

    #[test]
    fn example_4_2_update_in_place() {
        // Add 1 to the second field of all tuples with an even first field.
        // `mod_t` records the already-updated tuples: the rewrite rules skip
        // them and the deletion removes the not-yet-protected originals.
        let (_, inst, _) = run(r#"
            associations
              p     = (d1: integer, d2: integer);
              mod_t = (d1: integer, d2: integer);
            facts
              p(d1: 1, d2: 1).
              p(d1: 2, d2: 2).
              p(d1: 3, d2: 3).
              p(d1: 4, d2: 4).
            rules
              p(d1: X, d2: Z) <- p(d1: X, d2: Y), even(X), Z = Y + 1,
                                 not mod_t(d1: X, d2: Y).
              mod_t(d1: X, d2: Z) <- p(d1: X, d2: Y), even(X), Z = Y + 1,
                                     not mod_t(d1: X, d2: Y).
              -p(Y) <- p(Y, d1: X), even(X), not mod_t(Y).
        "#);
        // Paper: El = {p(1,1), p(2,3), p(3,3), p(4,5)}.
        let p = Sym::new("p");
        let want = [(1, 1), (2, 3), (3, 3), (4, 5)];
        assert_eq!(inst.assoc_len(p), want.len());
        for (a, b) in want {
            assert!(
                inst.has_tuple(
                    p,
                    &Value::tuple([("d1", Value::Int(a)), ("d2", Value::Int(b))])
                ),
                "missing p({a},{b})"
            );
        }
    }

    #[test]
    fn powerset_of_example_3_3() {
        let (_, inst, _) = run(r#"
            associations
              r     = (d: integer);
              power = (s: {integer});
            facts
              r(d: 1).
              r(d: 2).
              r(d: 3).
            rules
              power(s: X) <- X = {}.
              power(s: X) <- r(d: Y), append(X, {}, Y).
              power(s: X) <- power(s: Y), power(s: Z), union(X, Y, Z).
        "#);
        // The powerset of a 3-element set has 8 elements.
        assert_eq!(inst.assoc_len(Sym::new("power")), 8);
    }

    #[test]
    fn descendants_with_data_functions_example_3_2() {
        let (_, inst, _) = run(r#"
            classes
              person = (name: string);
            associations
              parent   = (par: string, chil: string);
              ancestor = (anc: string, des: {string});
            functions
              desc: string -> {string};
            facts
              parent(par: "a", chil: "b").
              parent(par: "b", chil: "c").
            rules
              member(X, desc(Y)) <- parent(par: Y, chil: X).
              member(X, desc(Y)) <- parent(par: Y, chil: Z), member(X, T), T = desc(Z).
              ancestor(anc: X, des: Y) <- parent(par: X), Y = desc(X).
        "#);
        let desc = Sym::new("desc");
        assert_eq!(
            inst.fun_value(desc, &[Value::str("a")]),
            Value::set([Value::str("b"), Value::str("c")])
        );
        // ancestor(a) nests the full descendant set.
        let anc = Sym::new("ancestor");
        assert!(inst.has_tuple(
            anc,
            &Value::tuple([
                ("anc", Value::str("a")),
                ("des", Value::set([Value::str("b"), Value::str("c")]))
            ])
        ));
    }

    #[test]
    fn fuel_limits_stop_divergence() {
        // Unbounded invention: c(X) <- c(Y) with a fresh object each time a
        // new object appears would normally diverge; the attribute-equality
        // VD check stops *this* shape, so use a counter to genuinely
        // diverge.
        let p = parse_program(
            r#"
            associations
              n = (v: integer);
            facts
              n(v: 0).
            rules
              n(v: X) <- n(v: Y), X = Y + 1.
        "#,
        )
        .unwrap();
        let mut edb = Instance::new();
        let mut gen = OidGen::new();
        load_facts(&p.schema, &mut edb, &p.facts, &mut gen).unwrap();
        let err = evaluate_inflationary(
            &p.schema,
            &p.rules,
            &edb,
            EvalOptions {
                max_steps: 50,
                max_facts: 1_000_000,
                ..EvalOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::NoFixpoint { .. }));
    }

    #[test]
    fn empty_ruleset_returns_edb() {
        let (_, inst, report) = run(r#"
            associations
              p = (d: integer);
            facts
              p(d: 1).
        "#);
        assert_eq!(inst.assoc_len(Sym::new("p")), 1);
        assert_eq!(report.steps, 0);
    }

    #[test]
    fn determinate_up_to_oid_renaming() {
        // Two runs from isomorphic EDBs produce isomorphic instances
        // (Appendix B: LOGRES programs are determinate).
        let src = r#"
            classes
              ip = (emp: string, mgr: string);
            associations
              pair = (emp: string, mgr: string);
            facts
              pair(emp: "e1", mgr: "m1").
              pair(emp: "e2", mgr: "m2").
            rules
              ip(self: X, C) <- pair(C).
        "#;
        let (schema, i1, _) = run(src);
        let (_, i2, _) = run(src);
        assert!(i1.isomorphic(&schema, &i2));
    }
}
