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
//! The governor's [`CancelToken`] is shared with parallel match workers;
//! workers poll it between match tasks, which bounds the latency of a
//! deadline abort to one round boundary plus one in-flight rule match.
//!
//! Cancellation never corrupts state: the instance under construction is
//! discarded and the partial [`crate::EvalReport`] travels inside
//! [`crate::EngineError::Cancelled`].

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use logres_lang::Rule;

use crate::error::EngineError;
use crate::inflationary::{EvalOptions, EvalReport, IterationStats, RuleProfile};
use crate::metrics::EngineMetrics;
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

/// Sentinel for "no rule recorded" in [`CancelToken::last_item`].
const NO_ITEM: usize = usize::MAX;

/// A cheap, cloneable cancellation token shared between the driver and the
/// parallel match workers.
///
/// Workers call [`CancelToken::cancelled`] before claiming each match task;
/// the check is one atomic load on the fast path, plus a clock read when a
/// deadline is set. Workers also record which rule they are matching via
/// [`CancelToken::note_item`], so a cancelled run can report the rule that
/// was firing.
#[derive(Debug, Clone)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
    last_item: Arc<AtomicUsize>,
}

impl CancelToken {
    /// A token that never cancels (no deadline, never flagged).
    pub fn unlimited() -> CancelToken {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: None,
            last_item: Arc::new(AtomicUsize::new(NO_ITEM)),
        }
    }

    fn with_deadline(deadline: Option<Instant>) -> CancelToken {
        CancelToken {
            deadline,
            ..CancelToken::unlimited()
        }
    }

    /// Has the run been cancelled (explicitly, or by deadline expiry)?
    ///
    /// Observing an expired deadline latches the flag so later checks stay
    /// cheap and all clones agree.
    pub fn cancelled(&self) -> bool {
        if self.flag.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                self.flag.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Latch the cancellation flag.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Record that item (rule) `i` is being matched. Under races the highest
    /// index wins, keeping the value deterministic enough for diagnostics.
    pub fn note_item(&self, i: usize) {
        let mut cur = self.last_item.load(Ordering::Relaxed);
        while cur == NO_ITEM || cur < i {
            match self
                .last_item
                .compare_exchange_weak(cur, i, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The highest item index recorded via [`CancelToken::note_item`], if any.
    pub fn last_item(&self) -> Option<usize> {
        match self.last_item.load(Ordering::Relaxed) {
            NO_ITEM => None,
            i => Some(i),
        }
    }

    /// Reset the recorded item at a step boundary.
    pub fn reset_item(&self) {
        self.last_item.store(NO_ITEM, Ordering::Relaxed);
    }
}

/// The record of one evaluation run: budgets, rounds, trace and report.
///
/// A driver opens it once per run with [`Governor::open`], brackets every
/// round with `begin_round` and `end_round`, folds each rule's share of a
/// round in with `record_rule`, closes each match phase with `end_match`,
/// stops through `check`, and takes the report from [`Governor::finish`].
pub struct Governor<'a> {
    opts: &'a EvalOptions,
    metrics: Option<EngineMetrics>,
    start: Instant,
    token: CancelToken,
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
        let mut gov = Governor {
            opts,
            metrics: opts.metrics.as_ref().map(EngineMetrics::new),
            start,
            token: CancelToken::with_deadline(opts.deadline.map(|d| start + d)),
            value_nodes: 0,
            rounds: 0,
            report: EvalReport::default(),
        };
        gov.cover(rules);
        trace::emit(gov.tracer(), || TraceEvent::EvalStart {
            engine,
            rules: live,
            facts,
        });
        gov
    }

    /// Open profiles for the rules of `rules` past those already profiled
    /// (maintenance appends the rules an update adds).
    pub(crate) fn cover(&mut self, rules: &[Rule]) {
        let known = self.report.rule_profiles.len();
        self.report
            .rule_profiles
            .extend(rules.iter().skip(known).map(|r| RuleProfile {
                rule: r.to_string(),
                ..RuleProfile::default()
            }));
    }

    /// The cancellation token to hand to match workers.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// The run's trace sink, for the events a driver emits inside a round.
    pub(crate) fn tracer(&self) -> Option<&'a Tracer> {
        self.opts.trace.as_deref()
    }

    /// The run's metric handles, when it counts.
    pub(crate) fn metrics(&self) -> Option<&EngineMetrics> {
        self.metrics.as_ref()
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

    /// Begin the next round: enforce the fact cap and `max_steps`, reset
    /// the token's rule register, and emit `step_start`. Every round begun
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
        self.token.reset_item();
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
    /// the token last saw matched) and the trace gets a `cancelled` event.
    /// The value budget is checked before the token, so a run that
    /// exhausts both reports the deterministic cause.
    pub(crate) fn check(&mut self, facts: usize) -> Result<(), EngineError> {
        let cause = match (self.opts.max_value_nodes, self.value_nodes) {
            (Some(limit), used) if used > limit => {
                self.token.cancel();
                CancelCause::ValueBudget { limit, used }
            }
            _ if self.token.cancelled() => CancelCause::Deadline {
                budget_ms: self.opts.deadline.unwrap_or_default().as_millis() as u64,
            },
            _ => return Ok(()),
        };
        let mut partial = std::mem::take(&mut self.report);
        partial.facts = facts;
        partial.cancelled_in_rule = self
            .token
            .last_item()
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

    /// The error for a phase the token cut short: a task a worker skipped
    /// latched the token, so `check` stops the run.
    pub(crate) fn cancel(&mut self, facts: usize) -> EngineError {
        self.check(facts)
            .expect_err("a skipped task latched the cancellation token")
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
        self.report
    }

    fn elapsed_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_token_never_cancels() {
        let t = CancelToken::unlimited();
        assert!(!t.cancelled());
        assert_eq!(t.last_item(), None);
    }

    #[test]
    fn explicit_cancel_latches_across_clones() {
        let t = CancelToken::unlimited();
        let clone = t.clone();
        clone.cancel();
        assert!(t.cancelled());
    }

    #[test]
    fn expired_deadline_cancels() {
        let t = CancelToken::with_deadline(Some(Instant::now() - Duration::from_millis(1)));
        assert!(t.cancelled());
        // Latched: a second check is true without consulting the clock.
        assert!(t.cancelled());
    }

    #[test]
    fn note_item_keeps_highest() {
        let t = CancelToken::unlimited();
        t.note_item(3);
        t.note_item(1);
        assert_eq!(t.last_item(), Some(3));
        t.reset_item();
        assert_eq!(t.last_item(), None);
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
        // Tripping the value budget also latches the shared token.
        assert!(g.token().cancelled());
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
