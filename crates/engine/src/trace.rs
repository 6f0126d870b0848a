//! Structured evaluation tracing.
//!
//! Every driver emits [`TraceEvent`]s through an optional [`Tracer`] carried
//! in [`crate::EvalOptions`]: step boundaries, per-rule firings, oid
//! inventions, deletions, governor budget checkpoints, and cancellation.
//! Events either accumulate in memory (for tests and the REPL) or stream as
//! JSON lines to any writer (for offline analysis).
//!
//! Determinism contract: with the same program, EDB, and options, the event
//! *sequence* is identical on every run — every driver emits it from one
//! serial loop in canonical rule order — and only the timing fields
//! (`*_nanos`, `elapsed_ms`) may differ. [`TraceEvent::normalized`] zeroes
//! those fields so tests can compare traces across runs.

use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::inflationary::EvalOptions;

/// One structured evaluation event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// An evaluation run began.
    EvalStart {
        /// Which driver: `"inflationary"` (the interpreter, also per stratum
        /// of a stratified run), `"compiled"`, or `"maintain"` (a view
        /// build or update).
        engine: &'static str,
        /// Number of rules in the program.
        rules: usize,
        /// Facts in the starting instance.
        facts: usize,
    },
    /// A one-step application (or semi-naive round) began.
    StepStart {
        /// 0-based step index.
        step: usize,
        /// Facts before the step.
        facts: usize,
    },
    /// A rule produced at least one body valuation this step.
    RuleFired {
        /// Step index.
        step: usize,
        /// Canonical rule index.
        rule: usize,
        /// Satisfying body valuations.
        firings: usize,
        /// Facts the rule contributed to `Δ⁺` (after VD filtering).
        derived: usize,
        /// Facts the rule contributed to `Δ⁻`.
        deleted: usize,
        /// Nanoseconds spent matching this rule's body (timing field).
        match_nanos: u64,
    },
    /// A fresh oid was invented for a (rule, valuation) pair.
    Invention {
        /// Step index.
        step: usize,
        /// Canonical rule index.
        rule: usize,
        /// The invented oid.
        oid: u64,
    },
    /// Facts were deleted this step (`Δ⁻` applied).
    Deletion {
        /// Step index.
        step: usize,
        /// Number of deleted facts.
        count: usize,
    },
    /// A one-step application (or round) finished.
    StepEnd {
        /// Step index.
        step: usize,
        /// Valuations across all rules.
        firings: usize,
        /// `Δ⁺` size.
        derived: usize,
        /// `Δ⁻` size.
        deleted: usize,
        /// Facts after the step.
        facts: usize,
        /// Match-phase nanoseconds (timing field).
        match_nanos: u64,
        /// Apply-phase nanoseconds (timing field).
        apply_nanos: u64,
    },
    /// Governor budget checkpoint at a step boundary.
    Budget {
        /// Step index just completed.
        step: usize,
        /// Facts currently stored.
        facts: usize,
        /// Cumulative value nodes charged for derived facts.
        value_nodes: usize,
        /// Milliseconds since evaluation start (timing field).
        elapsed_ms: u64,
    },
    /// The governor cancelled the run.
    Cancelled {
        /// Step index at cancellation.
        step: usize,
        /// Human-readable cause.
        cause: String,
    },
    /// An evaluation run finished.
    EvalEnd {
        /// Steps taken.
        steps: usize,
        /// Facts in the final instance.
        facts: usize,
        /// Whether a fixpoint was confirmed (false on fallback paths that
        /// end a stratum early, true on a confirmed `Fᵏ = Fᵏ⁺¹`).
        fixpoint: bool,
    },
    /// An incremental-maintenance request left the supported fragment and
    /// fell back to full rederivation.
    Fallback {
        /// Why the module (or persistent program) was not maintainable.
        reason: String,
    },
}

impl TraceEvent {
    /// The event with all timing fields zeroed, for comparisons across runs
    /// (the determinism guarantee covers everything else).
    pub fn normalized(&self) -> TraceEvent {
        let mut ev = self.clone();
        match &mut ev {
            TraceEvent::RuleFired { match_nanos, .. } => *match_nanos = 0,
            TraceEvent::StepEnd {
                match_nanos,
                apply_nanos,
                ..
            } => {
                *match_nanos = 0;
                *apply_nanos = 0;
            }
            TraceEvent::Budget { elapsed_ms, .. } => *elapsed_ms = 0,
            _ => {}
        }
        ev
    }

    /// Render as one JSON object on a single line (hand-rolled; the
    /// workspace is registry-free, so no serde).
    pub fn to_json_line(&self) -> String {
        match self {
            TraceEvent::EvalStart {
                engine,
                rules,
                facts,
            } => format!(
                r#"{{"event":"eval_start","engine":"{engine}","rules":{rules},"facts":{facts}}}"#
            ),
            TraceEvent::StepStart { step, facts } => {
                format!(r#"{{"event":"step_start","step":{step},"facts":{facts}}}"#)
            }
            TraceEvent::RuleFired {
                step,
                rule,
                firings,
                derived,
                deleted,
                match_nanos,
            } => format!(
                r#"{{"event":"rule_fired","step":{step},"rule":{rule},"firings":{firings},"derived":{derived},"deleted":{deleted},"match_nanos":{match_nanos}}}"#
            ),
            TraceEvent::Invention { step, rule, oid } => {
                format!(r#"{{"event":"invention","step":{step},"rule":{rule},"oid":{oid}}}"#)
            }
            TraceEvent::Deletion { step, count } => {
                format!(r#"{{"event":"deletion","step":{step},"count":{count}}}"#)
            }
            TraceEvent::StepEnd {
                step,
                firings,
                derived,
                deleted,
                facts,
                match_nanos,
                apply_nanos,
            } => format!(
                r#"{{"event":"step_end","step":{step},"firings":{firings},"derived":{derived},"deleted":{deleted},"facts":{facts},"match_nanos":{match_nanos},"apply_nanos":{apply_nanos}}}"#
            ),
            TraceEvent::Budget {
                step,
                facts,
                value_nodes,
                elapsed_ms,
            } => format!(
                r#"{{"event":"budget","step":{step},"facts":{facts},"value_nodes":{value_nodes},"elapsed_ms":{elapsed_ms}}}"#
            ),
            TraceEvent::Cancelled { step, cause } => format!(
                r#"{{"event":"cancelled","step":{step},"cause":"{}"}}"#,
                cause.replace('\\', "\\\\").replace('"', "\\\"")
            ),
            TraceEvent::EvalEnd {
                steps,
                facts,
                fixpoint,
            } => format!(
                r#"{{"event":"eval_end","steps":{steps},"facts":{facts},"fixpoint":{fixpoint}}}"#
            ),
            TraceEvent::Fallback { reason } => format!(
                r#"{{"event":"fallback","reason":"{}"}}"#,
                reason.replace('\\', "\\\\").replace('"', "\\\"")
            ),
        }
    }
}

enum Sink {
    /// Collect events for later inspection.
    Memory(Vec<TraceEvent>),
    /// Stream each event as a JSON line.
    Json(Box<dyn Write + Send>),
}

/// A thread-safe trace sink shared by reference through [`crate::EvalOptions`].
pub struct Tracer {
    sink: Mutex<Sink>,
    /// Events lost to sink write errors. A JSON sink whose writer fails
    /// must not silently swallow the event: the loss is counted here and
    /// on the process-wide `logres_trace_dropped_events_total` metric.
    dropped: AtomicU64,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match &*self.sink.lock().unwrap() {
            Sink::Memory(evs) => format!("memory({} events)", evs.len()),
            Sink::Json(_) => "json".to_owned(),
        };
        write!(f, "Tracer({kind})")
    }
}

impl Tracer {
    fn with_sink(sink: Sink) -> Arc<Tracer> {
        Arc::new(Tracer {
            sink: Mutex::new(sink),
            dropped: AtomicU64::new(0),
        })
    }

    /// A sink that collects events in memory (drain with [`Tracer::events`]).
    pub fn memory() -> Arc<Tracer> {
        Tracer::with_sink(Sink::Memory(Vec::new()))
    }

    /// A sink that writes each event as one JSON line to `w`.
    pub fn json(w: impl Write + Send + 'static) -> Arc<Tracer> {
        Tracer::with_sink(Sink::Json(Box::new(w)))
    }

    /// Record one event.
    pub fn emit(&self, ev: TraceEvent) {
        match &mut *self.sink.lock().unwrap() {
            Sink::Memory(evs) => evs.push(ev),
            Sink::Json(w) => {
                if writeln!(w, "{}", ev.to_json_line()).is_err() {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    crate::metrics::MetricsRegistry::global()
                        .counter("logres_trace_dropped_events_total")
                        .inc();
                }
            }
        }
    }

    /// Snapshot the collected events (empty for JSON sinks).
    pub fn events(&self) -> Vec<TraceEvent> {
        match &*self.sink.lock().unwrap() {
            Sink::Memory(evs) => evs.clone(),
            Sink::Json(_) => Vec::new(),
        }
    }

    /// Events lost to sink write errors so far.
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// One-line sink summary including the drop count, for REPL/status
    /// output.
    pub fn summary(&self) -> String {
        let kind = match &*self.sink.lock().unwrap() {
            Sink::Memory(evs) => format!("memory sink, {} events", evs.len()),
            Sink::Json(_) => "json sink".to_owned(),
        };
        format!("{kind}, {} dropped", self.dropped_events())
    }
}

/// Emit through an optional tracer without building the event when tracing
/// is off.
pub(crate) fn emit(trace: Option<&Tracer>, ev: impl FnOnce() -> TraceEvent) {
    if let Some(t) = trace {
        t.emit(ev());
    }
}

/// Record a fallback: bump `family{reason=…}` in the evaluation's metrics
/// registry and emit a [`TraceEvent::Fallback`]. The compiled path counts
/// into `logres_compile_fallbacks_total`, incremental maintenance into
/// `logres_maintain_fallbacks_total`.
pub fn note_fallback(opts: &EvalOptions, family: &'static str, reason: &str) {
    if let Some(m) = &opts.metrics {
        m.counter_with(family, "reason", reason).inc();
    }
    emit(opts.trace.as_deref(), || TraceEvent::Fallback {
        reason: reason.to_owned(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_collects_in_order() {
        let t = Tracer::memory();
        t.emit(TraceEvent::StepStart { step: 0, facts: 1 });
        t.emit(TraceEvent::StepEnd {
            step: 0,
            firings: 2,
            derived: 1,
            deleted: 0,
            facts: 2,
            match_nanos: 5,
            apply_nanos: 7,
        });
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        assert!(matches!(evs[0], TraceEvent::StepStart { step: 0, .. }));
    }

    #[test]
    fn json_lines_are_valid_single_objects() {
        let ev = TraceEvent::RuleFired {
            step: 3,
            rule: 1,
            firings: 4,
            derived: 2,
            deleted: 0,
            match_nanos: 123,
        };
        let line = ev.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains(r#""event":"rule_fired""#));
        assert!(line.contains(r#""step":3"#));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn json_sink_streams_lines() {
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let t = Tracer::json(Shared(buf.clone()));
        t.emit(TraceEvent::StepStart { step: 0, facts: 0 });
        t.emit(TraceEvent::EvalEnd {
            steps: 1,
            facts: 0,
            fixpoint: true,
        });
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{')));
    }

    #[test]
    fn failing_json_sink_counts_dropped_events() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("sink closed"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let before = crate::metrics::MetricsRegistry::global()
            .counter("logres_trace_dropped_events_total")
            .get();
        let t = Tracer::json(Broken);
        t.emit(TraceEvent::StepStart { step: 0, facts: 0 });
        t.emit(TraceEvent::EvalEnd {
            steps: 1,
            facts: 0,
            fixpoint: true,
        });
        assert_eq!(t.dropped_events(), 2);
        assert!(t.summary().contains("2 dropped"));
        let after = crate::metrics::MetricsRegistry::global()
            .counter("logres_trace_dropped_events_total")
            .get();
        assert!(after >= before + 2);
    }

    #[test]
    fn healthy_sinks_drop_nothing() {
        let t = Tracer::memory();
        t.emit(TraceEvent::StepStart { step: 0, facts: 0 });
        assert_eq!(t.dropped_events(), 0);
        assert!(t.summary().contains("0 dropped"));
    }

    #[test]
    fn normalization_zeroes_timing_only() {
        let ev = TraceEvent::StepEnd {
            step: 1,
            firings: 2,
            derived: 3,
            deleted: 4,
            facts: 5,
            match_nanos: 99,
            apply_nanos: 100,
        };
        match ev.normalized() {
            TraceEvent::StepEnd {
                step,
                firings,
                derived,
                deleted,
                facts,
                match_nanos,
                apply_nanos,
            } => {
                assert_eq!((step, firings, derived, deleted, facts), (1, 2, 3, 4, 5));
                assert_eq!((match_nanos, apply_nanos), (0, 0));
            }
            other => panic!("unexpected {other:?}"),
        }
        let cancelled = TraceEvent::Cancelled {
            step: 0,
            cause: "x".into(),
        };
        assert_eq!(cancelled.normalized(), cancelled);
    }
}
