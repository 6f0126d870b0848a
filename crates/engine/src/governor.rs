//! The record of one evaluation: its budgets, its rounds, its trace and its
//! report.
//!
//! Termination of the inflationary fixpoint is undecidable once rules invent
//! oids (Appendix B of the paper), so every driver runs under a [`Governor`]
//! built from its [`crate::EvalOptions`]. Each driver — the interpreter, the
//! compiled planner and incremental maintenance — opens one governor per
//! run, however many strata the run has, and begins rounds, ends rounds and
//! takes its cancellation error only through it. The governor owns:
//!
//! * every budget: `max_steps` (every round begun counts, in any stratum),
//!   `max_facts`, the value-node budget and the deadline;
//! * the run's round counter, so step numbers are run-wide;
//! * the run, round and cancellation trace events (`eval_start`,
//!   `step_start`, `step_end`, `budget`, `cancelled`, `eval_end`);
//! * the step metrics and the per-rule metrics;
//! * the [`crate::EvalReport`]: per-rule profiles in canonical rule order,
//!   the iterations, and the rule that was firing when a budget tripped.
//!
//! Every driver matches its rules one at a time in one serial loop and
//! polls the governor before each rule (`Governor::poll`): a deadline
//! abort therefore lands within one rule match, and the partial report
//! names the rule that was being matched. The governor also owns the run's
//! [`ProbeTally`], so matcher access-path counts reach the shared counters
//! once per run, on every exit path.
//!
//! Cancellation never corrupts state: the instance under construction is
//! discarded and the partial [`crate::EvalReport`] travels inside
//! [`crate::EngineError::Cancelled`].

use std::fmt;
use std::time::Instant;

use logres_lang::Rule;

use crate::error::EngineError;
use crate::inflationary::{EvalOptions, EvalReport, IterationStats, RuleProfile};
use crate::metrics::{EngineMetrics, ProbeTally};
use crate::provenance::Provenance;
use crate::trace::{self, TraceEvent, Tracer};

/// Why the governor stopped an evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CancelCause {
    /// The wall-clock deadline elapsed.
    Deadline {
        /// The configured budget, in milliseconds.
        budget_ms: u64,
    },
    /// The cumulative value-node budget was exhausted.
    ValueBudget {
        /// The configured node limit.
        limit: usize,
        /// Nodes charged when the limit was hit.
        used: usize,
    },
}

impl fmt::Display for CancelCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CancelCause::Deadline { budget_ms } => {
                write!(f, "deadline of {budget_ms}ms elapsed")
            }
            CancelCause::ValueBudget { limit, used } => {
                write!(
                    f,
                    "value-node budget exhausted ({used} nodes > limit {limit})"
                )
            }
        }
    }
}

/// The record of one evaluation run: budgets, rounds, trace and report.
///
/// A driver opens it once per run with [`Governor::open`], brackets every
/// round with `begin_round` and `end_round`, polls before each rule it
/// matches, folds each rule's share of a round in with `record_rule`,
/// closes each match phase with `end_match`, stops through `check`, and
/// takes the report from [`Governor::finish`].
pub struct Governor<'a> {
    opts: &'a EvalOptions,
    metrics: Option<EngineMetrics>,
    /// Matcher access-path decisions of the whole run, flushed into
    /// `metrics` when the governor drops: per-probe updates of the shared
    /// atomics measured about 10% overhead on E12.
    tally: ProbeTally,
    start: Instant,
    deadline: Option<Instant>,
    /// Latched once a poll observes the deadline passed, or `check` the
    /// value budget exhausted.
    tripped: bool,
    /// The rule whose body is being matched, named by a cancelled report.
    matching: Option<usize>,
    value_nodes: usize,
    /// Rounds begun so far, across every stratum of the run.
    rounds: usize,
    report: EvalReport,
}

impl<'a> Governor<'a> {
    /// Open the record of one run of `engine` over `rules`, starting from an
    /// instance of `facts` facts: starts the clock, opens a profile per
    /// rule, and emits `eval_start`. `live` is the number of rules the run
    /// evaluates (maintenance keeps a profile for every rule slot of its
    /// view, retracted ones included).
    pub fn open(
        engine: &'static str,
        opts: &'a EvalOptions,
        rules: &[Rule],
        live: usize,
        facts: usize,
    ) -> Governor<'a> {
        let start = Instant::now();
        let gov = Governor {
            opts,
            metrics: opts.metrics.as_ref().map(EngineMetrics::new),
            tally: ProbeTally::default(),
            start,
            deadline: opts.deadline.map(|d| start + d),
            tripped: false,
            matching: None,
            value_nodes: 0,
            rounds: 0,
            report: EvalReport {
                rule_profiles: rules
                    .iter()
                    .map(|r| RuleProfile {
                        rule: r.to_string(),
                        ..RuleProfile::default()
                    })
                    .collect(),
                ..EvalReport::default()
            },
        };
        trace::emit(gov.tracer(), || TraceEvent::EvalStart {
            engine,
            rules: live,
            facts,
        });
        gov
    }

    /// Poll before matching rule `rule`: returns whether the run has
    /// tripped, in which case the driver stops matching; otherwise records
    /// `rule` as the rule being matched. The check is a flag test plus a
    /// clock read when a deadline is set.
    pub(crate) fn poll(&mut self, rule: usize) -> bool {
        if self.tripped() {
            return true;
        }
        self.matching = Some(rule);
        false
    }

    /// Has the run tripped? A poll for a match phase that works fact by
    /// fact rather than rule by rule (maintenance's recount and rederive).
    /// Observing an expired deadline latches the flag.
    pub(crate) fn tripped(&mut self) -> bool {
        if !self.tripped && self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.tripped = true;
        }
        self.tripped
    }

    /// The run's probe tally, for the matcher to count into when the run
    /// counts.
    pub(crate) fn tally(&self) -> Option<&ProbeTally> {
        self.metrics.as_ref().map(|_| &self.tally)
    }

    /// The run's trace sink, for the events a driver emits inside a round.
    pub(crate) fn tracer(&self) -> Option<&'a Tracer> {
        self.opts.trace.as_deref()
    }

    /// The run-wide index of the current round.
    pub(crate) fn step(&self) -> usize {
        self.rounds.saturating_sub(1)
    }

    /// The run's provenance store, when it records one.
    pub(crate) fn provenance(&mut self) -> Option<&mut Provenance> {
        self.report.provenance.as_mut()
    }

    /// Record derivation provenance into `prov` for the rest of the run.
    pub(crate) fn record_provenance(&mut self, prov: Provenance) {
        self.report.provenance = Some(prov);
    }

    /// Rule `rule`'s cumulative profile, for a driver that tallies it
    /// itself (maintenance).
    pub(crate) fn profile(&mut self, rule: usize) -> &mut RuleProfile {
        &mut self.report.rule_profiles[rule]
    }

    /// Begin the next round: enforce the fact cap and `max_steps`, forget
    /// the rule last matched, and emit `step_start`. Every round begun
    /// counts against `max_steps`, whichever stratum it belongs to. Returns
    /// the round's run-wide index.
    pub(crate) fn begin_round(&mut self, facts: usize) -> Result<usize, EngineError> {
        if facts > self.opts.max_facts {
            return Err(EngineError::TooManyFacts {
                limit: self.opts.max_facts,
            });
        }
        if self.rounds >= self.opts.max_steps {
            return Err(EngineError::NoFixpoint {
                steps: self.opts.max_steps,
            });
        }
        let step = self.rounds;
        self.rounds += 1;
        self.matching = None;
        trace::emit(self.tracer(), || TraceEvent::StepStart { step, facts });
        Ok(step)
    }

    /// Fold rule `rule`'s share of the current round into its profile and
    /// the per-rule metrics, and emit `rule_fired` when it fired.
    pub(crate) fn record_rule(&mut self, rule: usize, stats: &IterationStats) {
        let profile = &mut self.report.rule_profiles[rule];
        profile.firings += stats.firings;
        profile.derived += stats.derived;
        profile.deleted += stats.deleted;
        profile.invented += stats.invented;
        profile.match_nanos += stats.match_nanos;
        if let Some(m) = &self.metrics {
            m.record_rule_step(
                rule,
                stats.firings as u64,
                stats.derived as u64,
                stats.deleted as u64,
                stats.invented as u64,
            );
        }
        if stats.firings > 0 {
            let step = self.step();
            trace::emit(self.tracer(), || TraceEvent::RuleFired {
                step,
                rule,
                firings: stats.firings,
                derived: stats.derived,
                deleted: stats.deleted,
                match_nanos: stats.match_nanos,
            });
        }
    }

    /// Charge `nodes` value nodes of derived-fact footprint against the
    /// budget.
    pub(crate) fn charge(&mut self, nodes: usize) {
        self.value_nodes = self.value_nodes.saturating_add(nodes);
        if let Some(m) = &self.metrics {
            m.value_nodes.add(nodes as u64);
        }
    }

    /// Close the current round's match phase: charge the `nodes` its new
    /// facts hold and count the round in the step metrics.
    pub(crate) fn end_match(&mut self, nodes: usize, match_nanos: u64) {
        self.charge(nodes);
        if let Some(m) = &self.metrics {
            m.steps.inc();
            m.step_match_ms.observe(match_nanos / 1_000_000);
            if let Some(budget) = self.opts.deadline {
                let left = (budget.as_millis() as u64).saturating_sub(self.elapsed_ms());
                m.deadline_headroom_ms.set(left);
            }
        }
    }

    /// Stop the run if a budget has tripped: the error carries the report
    /// so far (rounds ended, `facts`, profiles, provenance, and the rule
    /// being matched when a poll tripped) and the trace gets a `cancelled`
    /// event. The value budget is checked before the deadline, so a run
    /// that exhausts both reports the deterministic cause. A check that
    /// passes closes the match phase: no rule is being matched after it.
    pub(crate) fn check(&mut self, facts: usize) -> Result<(), EngineError> {
        let cause = match (self.opts.max_value_nodes, self.value_nodes) {
            (Some(limit), used) if used > limit => {
                self.tripped = true;
                CancelCause::ValueBudget { limit, used }
            }
            _ if self.tripped() => CancelCause::Deadline {
                budget_ms: self.opts.deadline.unwrap_or_default().as_millis() as u64,
            },
            _ => {
                self.matching = None;
                return Ok(());
            }
        };
        let mut partial = std::mem::take(&mut self.report);
        partial.facts = facts;
        partial.cancelled_in_rule = self
            .matching
            .and_then(|i| partial.rule_profiles.get(i))
            .map(|p| p.rule.clone());
        let step = self.step();
        trace::emit(self.tracer(), || TraceEvent::Cancelled {
            step,
            cause: cause.to_string(),
        });
        Err(EngineError::Cancelled {
            cause,
            partial: Box::new(partial),
        })
    }

    /// End the current round: emit `step_end` and `budget`, record its
    /// iteration, and count it in the report's `steps`.
    pub(crate) fn end_round(&mut self, stats: IterationStats, facts: usize) {
        let step = self.step();
        if let Some(m) = &self.metrics {
            m.step_apply_ms.observe(stats.apply_nanos / 1_000_000);
        }
        let tracer = self.tracer();
        trace::emit(tracer, || TraceEvent::StepEnd {
            step,
            firings: stats.firings,
            derived: stats.derived,
            deleted: stats.deleted,
            facts,
            match_nanos: stats.match_nanos,
            apply_nanos: stats.apply_nanos,
        });
        trace::emit(tracer, || TraceEvent::Budget {
            step,
            facts,
            value_nodes: self.value_nodes,
            elapsed_ms: self.elapsed_ms(),
        });
        self.report.iterations.push(stats);
        self.report.steps += 1;
    }

    /// End a round that confirmed its stratum's fixpoint by deriving
    /// nothing: its iteration is kept, but the interpreter neither emits
    /// `step_end` for it nor counts it in `steps`.
    pub(crate) fn confirm(&mut self, stats: IterationStats) {
        self.report.iterations.push(stats);
    }

    /// Close the run at its fixpoint: emit `eval_end` and return the report.
    pub fn finish(mut self, facts: usize) -> EvalReport {
        self.report.facts = facts;
        let steps = self.report.steps;
        trace::emit(self.tracer(), || TraceEvent::EvalEnd {
            steps,
            facts,
            fixpoint: true,
        });
        std::mem::take(&mut self.report)
    }

    fn elapsed_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }
}

impl Drop for Governor<'_> {
    /// Flush the run's probe tally, however the run ended.
    fn drop(&mut self) {
        if let Some(m) = &self.metrics {
            self.tally.flush(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn polls_name_the_rule_and_latch_an_expired_deadline() {
        let opts = EvalOptions::default();
        let rules: Vec<Rule> = logres_lang::parse_program(
            "associations\n  p = (d: integer);\nrules\n  p(d: 1) <- .\n  p(d: 2) <- .\n",
        )
        .expect("parses")
        .rules
        .rules;
        let mut g = Governor::open("test", &opts, &rules, 2, 0);
        assert!(!g.poll(1), "no deadline, no trip");
        // The deadline passes while rule 1 is being matched.
        g.deadline = Some(Instant::now() - Duration::from_millis(1));
        assert!(g.poll(0), "an expired deadline trips the next poll");
        assert!(g.tripped(), "and stays latched");
        let (cause, partial) = cause(g.check(0).unwrap_err());
        assert_eq!(cause, CancelCause::Deadline { budget_ms: 0 });
        // The tripped poll left the rule being matched in place.
        assert_eq!(partial.cancelled_in_rule.as_deref(), Some("p(d: 2) <- ."));
    }

    #[test]
    fn unlimited_run_never_trips() {
        let opts = EvalOptions::default();
        let mut g = Governor::open("test", &opts, &[], 0, 0);
        assert!(!g.poll(3));
        assert!(!g.tripped());
        assert!(g.check(0).is_ok());
        assert_eq!(g.matching, None, "a passing check closes the match phase");
    }

    fn cause(err: EngineError) -> (CancelCause, EvalReport) {
        match err {
            EngineError::Cancelled { cause, partial } => (cause, *partial),
            other => panic!("expected Cancelled, got {other}"),
        }
    }

    #[test]
    fn value_budget_trips_check() {
        let opts = EvalOptions {
            max_value_nodes: Some(10),
            ..EvalOptions::default()
        };
        let mut g = Governor::open("test", &opts, &[], 0, 0);
        g.charge(5);
        assert!(g.check(0).is_ok());
        g.charge(6);
        let (cause, partial) = cause(g.check(7).unwrap_err());
        assert_eq!(
            cause,
            CancelCause::ValueBudget {
                limit: 10,
                used: 11
            }
        );
        assert_eq!(partial.facts, 7);
        // Tripping the value budget also latches the flag later polls read.
        assert!(g.poll(0));
    }

    #[test]
    fn deadline_reported_with_budget() {
        let opts = EvalOptions {
            deadline: Some(Duration::from_millis(0)),
            ..EvalOptions::default()
        };
        let mut g = Governor::open("test", &opts, &[], 0, 0);
        std::thread::sleep(Duration::from_millis(2));
        let (cause, _) = cause(g.check(0).unwrap_err());
        assert_eq!(cause, CancelCause::Deadline { budget_ms: 0 });
    }

    #[test]
    fn every_round_begun_counts_against_max_steps() {
        let opts = EvalOptions {
            max_steps: 2,
            ..EvalOptions::default()
        };
        let mut g = Governor::open("test", &opts, &[], 0, 0);
        assert_eq!(g.begin_round(0).unwrap(), 0);
        g.confirm(IterationStats::default());
        assert_eq!(g.begin_round(0).unwrap(), 1);
        g.end_round(IterationStats::default(), 0);
        assert!(matches!(
            g.begin_round(0),
            Err(EngineError::NoFixpoint { steps: 2 })
        ));
        // The confirming round is kept as an iteration but not counted.
        let report = g.finish(0);
        assert_eq!((report.steps, report.iterations.len()), (1, 2));
    }
}
