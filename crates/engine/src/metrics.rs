//! Metrics registry: lock-free counters, gauges, and fixed-bucket
//! histograms with Prometheus text-format exposition.
//!
//! Instrumentation sites register a metric once (taking a registration lock)
//! and then update it through an `Arc` handle with relaxed atomics, so the
//! evaluation hot paths never contend on a lock. A process-wide registry is
//! available through [`MetricsRegistry::global`]; evaluations can instead be
//! pointed at a private registry through `EvalOptions::metrics`, which keeps
//! concurrent test runs from observing each other's counts.
//!
//! Counting metrics (probe hits, firings, derivations, inventions) are part
//! of the determinism contract: with the same program, EDB, and options they
//! are bit-identical on every run, because every driver counts from one
//! serial loop over its rules in canonical order. Timing histograms and the
//! deadline-headroom gauge are explicitly exempt.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter (relaxed atomic).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can be set to arbitrary levels (relaxed atomic).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Overwrite the gauge value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket cumulative histogram over `u64` observations.
///
/// Bucket upper bounds are set at registration; an implicit `+Inf` bucket
/// catches the tail. Observations also accumulate into `_sum` and `_count`
/// series, matching the Prometheus histogram convention.
#[derive(Debug)]
pub struct Histogram {
    bounds: Box<[u64]>,
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        Histogram {
            bounds: bounds.into(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations recorded so far.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

/// Bucket bounds (milliseconds) used by the engine's timing histograms.
pub const MS_BUCKETS: [u64; 8] = [1, 5, 10, 50, 100, 500, 1000, 5000];

/// A series key: family name plus zero-or-more `(label, value)` pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: &'static str,
    labels: Vec<(&'static str, String)>,
}

impl Key {
    fn series(&self) -> String {
        if self.labels.is_empty() {
            self.name.to_owned()
        } else {
            let labels: Vec<String> = self
                .labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
                .collect();
            format!("{}{{{}}}", self.name, labels.join(","))
        }
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One-line help text per metric family, emitted as `# HELP` in the
/// exposition. Families not listed here fall back to a generic line.
fn help_for(name: &str) -> &'static str {
    match name {
        "logres_matcher_probe_hits_total" => "Index probes that found a bucket",
        "logres_matcher_probe_misses_total" => "Index probes whose key had no bucket",
        "logres_matcher_scan_fallbacks_total" => {
            "Association literals evaluated by full extension scan (no ground probe key)"
        }
        "logres_eval_steps_total" => "One-step applications (or semi-naive rounds) completed",
        "logres_firings_total" => "Satisfying body valuations across all rules",
        "logres_derived_facts_total" => "Facts contributed to delta-plus after VD filtering",
        "logres_deleted_facts_total" => "Facts contributed to delta-minus",
        "logres_invented_oids_total" => "Fresh oids invented for (rule, valuation) pairs",
        "logres_rule_firings_total" => "Satisfying body valuations, per rule",
        "logres_rule_derived_facts_total" => "Facts contributed to delta-plus, per rule",
        "logres_rule_deleted_facts_total" => "Facts contributed to delta-minus, per rule",
        "logres_rule_invented_oids_total" => "Fresh oids invented, per rule",
        "logres_governor_value_nodes_total" => "Value nodes charged against the governor budget",
        "logres_governor_deadline_headroom_ms" => {
            "Milliseconds left before the evaluation deadline (last step boundary)"
        }
        "logres_maintain_applies_total" => "Module applications served incrementally",
        "logres_maintain_fallbacks_total" => {
            "Module applications that fell back to full rederivation, by reason"
        }
        "logres_maintain_deleted_total" => "Facts removed (incl. overdeleted) during maintenance",
        "logres_maintain_rederived_total" => "Overdeleted facts restored by rederivation",
        "logres_maintain_inserted_total" => "Genuinely new facts added during maintenance",
        "logres_view_answers_total" => "Goal-only queries answered from the maintained view",
        "logres_persist_bytes_total" => "Bytes written by state serialisation",
        "logres_persist_oids_total" => "Oids written by state serialisation",
        "logres_trace_dropped_events_total" => "Trace events lost to sink write errors",
        "logres_step_match_ms" => "Per-step match-phase wall time in milliseconds",
        "logres_step_apply_ms" => "Per-step apply-phase wall time in milliseconds",
        "logres_plan_op_rows_in_total" => {
            "Rows fed into compiled-plan operator nodes, by operator and rule"
        }
        "logres_plan_op_rows_out_total" => {
            "Rows produced by compiled-plan operator nodes, by operator and rule"
        }
        "logres_plan_op_hash_builds_total" => {
            "Join hash tables built by compiled-plan operator nodes, by operator and rule"
        }
        "logres_plan_op_probes_total" => {
            "Hash-table probes by compiled-plan operator nodes, by operator and rule"
        }
        "logres_plan_op_memo_hits_total" => {
            "Compiled-plan operator evaluations answered from the memo, by operator and rule"
        }
        _ => "LOGRES engine metric",
    }
}

/// A registry of named metric families.
///
/// Registration (the `counter`/`gauge`/`histogram` methods) takes a mutex;
/// updates through the returned `Arc` handles are lock-free. Repeated
/// registration of the same key returns the same underlying metric.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<Key, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<Key, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<Key, Arc<Histogram>>>,
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MetricsRegistry({} counters, {} gauges, {} histograms)",
            self.counters.lock().unwrap().len(),
            self.gauges.lock().unwrap().len(),
            self.histograms.lock().unwrap().len()
        )
    }
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The process-wide registry shared by default instrumentation sites
    /// (persist accounting, trace-drop counting, the bench `--metrics` flag).
    pub fn global() -> &'static Arc<MetricsRegistry> {
        static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(MetricsRegistry::new()))
    }

    /// Register (or fetch) an unlabeled counter.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        self.counter_key(Key {
            name,
            labels: Vec::new(),
        })
    }

    /// Register (or fetch) a counter with one `label="value"` pair.
    pub fn counter_with(
        &self,
        name: &'static str,
        label: &'static str,
        value: &str,
    ) -> Arc<Counter> {
        self.counter_key(Key {
            name,
            labels: vec![(label, value.to_owned())],
        })
    }

    /// Register (or fetch) a counter with two label pairs, in the given
    /// order (exposition sorts families by full key, so pass labels in a
    /// fixed order — e.g. `op` before `rule` for `logres_plan_op_*`).
    pub fn counter_with2(
        &self,
        name: &'static str,
        label1: &'static str,
        value1: &str,
        label2: &'static str,
        value2: &str,
    ) -> Arc<Counter> {
        self.counter_key(Key {
            name,
            labels: vec![(label1, value1.to_owned()), (label2, value2.to_owned())],
        })
    }

    fn counter_key(&self, key: Key) -> Arc<Counter> {
        self.counters
            .lock()
            .unwrap()
            .entry(key)
            .or_default()
            .clone()
    }

    /// Register (or fetch) an unlabeled gauge.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        let key = Key {
            name,
            labels: Vec::new(),
        };
        self.gauges.lock().unwrap().entry(key).or_default().clone()
    }

    /// Register (or fetch) an unlabeled histogram with the given bucket
    /// upper bounds (an implicit `+Inf` bucket is always added).
    pub fn histogram(&self, name: &'static str, bounds: &[u64]) -> Arc<Histogram> {
        let key = Key {
            name,
            labels: Vec::new(),
        };
        self.histograms
            .lock()
            .unwrap()
            .entry(key)
            .or_insert_with(|| Arc::new(Histogram::new(bounds)))
            .clone()
    }

    /// All counter series and their values, sorted by series name.
    ///
    /// This is the determinism-test surface: it covers exactly the counting
    /// metrics (no gauges, no histograms), which must be bit-identical on
    /// every run.
    pub fn counter_snapshot(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, c)| (k.series(), c.get()))
            .collect()
    }

    /// Render every registered family in the Prometheus text exposition
    /// format: `# HELP` / `# TYPE` headers, then one `name{labels} value`
    /// line per series. Families are emitted in sorted name order and
    /// series in sorted label order, so the output is stable.
    pub fn render_text(&self) -> String {
        let mut families: BTreeMap<&'static str, (&'static str, Vec<String>)> = BTreeMap::new();
        for (key, c) in self.counters.lock().unwrap().iter() {
            families
                .entry(key.name)
                .or_insert(("counter", Vec::new()))
                .1
                .push(format!("{} {}", key.series(), c.get()));
        }
        for (key, g) in self.gauges.lock().unwrap().iter() {
            families
                .entry(key.name)
                .or_insert(("gauge", Vec::new()))
                .1
                .push(format!("{} {}", key.series(), g.get()));
        }
        for (key, h) in self.histograms.lock().unwrap().iter() {
            let lines = &mut families
                .entry(key.name)
                .or_insert(("histogram", Vec::new()))
                .1;
            let mut cumulative = 0u64;
            for (i, bound) in h.bounds.iter().enumerate() {
                cumulative += h.buckets[i].load(Ordering::Relaxed);
                lines.push(format!(
                    "{}_bucket{{le=\"{bound}\"}} {cumulative}",
                    key.name
                ));
            }
            cumulative += h.buckets[h.bounds.len()].load(Ordering::Relaxed);
            lines.push(format!("{}_bucket{{le=\"+Inf\"}} {cumulative}", key.name));
            lines.push(format!("{}_sum {}", key.name, h.sum()));
            lines.push(format!("{}_count {}", key.name, h.count()));
        }
        let mut out = String::new();
        for (name, (ty, lines)) in families {
            out.push_str(&format!("# HELP {name} {}\n", help_for(name)));
            out.push_str(&format!("# TYPE {name} {ty}\n"));
            for line in lines {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }
}

/// Pre-resolved handles for the engine's per-evaluation instrumentation.
///
/// Built once per evaluation from `EvalOptions::metrics`, then threaded by
/// reference into the matcher and the serial merge so the hot paths touch
/// only relaxed atomics — the registration mutex is taken only here and
/// when a per-rule labeled counter is first seen.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    registry: Arc<MetricsRegistry>,
    /// `logres_matcher_probe_hits_total`.
    pub probe_hits: Arc<Counter>,
    /// `logres_matcher_probe_misses_total`.
    pub probe_misses: Arc<Counter>,
    /// `logres_matcher_scan_fallbacks_total`.
    pub scan_fallbacks: Arc<Counter>,
    /// `logres_eval_steps_total`.
    pub steps: Arc<Counter>,
    /// `logres_firings_total`.
    pub firings: Arc<Counter>,
    /// `logres_derived_facts_total`.
    pub derived: Arc<Counter>,
    /// `logres_deleted_facts_total`.
    pub deleted: Arc<Counter>,
    /// `logres_invented_oids_total`.
    pub invented: Arc<Counter>,
    /// `logres_governor_value_nodes_total`.
    pub value_nodes: Arc<Counter>,
    /// `logres_governor_deadline_headroom_ms` (timing gauge, exempt from
    /// the determinism contract).
    pub deadline_headroom_ms: Arc<Gauge>,
    /// `logres_step_match_ms` (timing histogram, exempt).
    pub step_match_ms: Arc<Histogram>,
    /// `logres_step_apply_ms` (timing histogram, exempt).
    pub step_apply_ms: Arc<Histogram>,
}

impl EngineMetrics {
    /// Resolve every engine handle against `registry`.
    pub fn new(registry: &Arc<MetricsRegistry>) -> EngineMetrics {
        EngineMetrics {
            registry: registry.clone(),
            probe_hits: registry.counter("logres_matcher_probe_hits_total"),
            probe_misses: registry.counter("logres_matcher_probe_misses_total"),
            scan_fallbacks: registry.counter("logres_matcher_scan_fallbacks_total"),
            steps: registry.counter("logres_eval_steps_total"),
            firings: registry.counter("logres_firings_total"),
            derived: registry.counter("logres_derived_facts_total"),
            deleted: registry.counter("logres_deleted_facts_total"),
            invented: registry.counter("logres_invented_oids_total"),
            value_nodes: registry.counter("logres_governor_value_nodes_total"),
            deadline_headroom_ms: registry.gauge("logres_governor_deadline_headroom_ms"),
            step_match_ms: registry.histogram("logres_step_match_ms", &MS_BUCKETS),
            step_apply_ms: registry.histogram("logres_step_apply_ms", &MS_BUCKETS),
        }
    }

    /// Record one rule's contribution to a step: bumps the aggregate
    /// counters and the `rule="N"`-labeled per-rule families. Called from
    /// the serial merge once per (rule, step), never per fact.
    pub fn record_rule_step(
        &self,
        rule: usize,
        firings: u64,
        derived: u64,
        deleted: u64,
        invented: u64,
    ) {
        if firings == 0 && derived == 0 && deleted == 0 && invented == 0 {
            return;
        }
        self.firings.add(firings);
        self.derived.add(derived);
        self.deleted.add(deleted);
        self.invented.add(invented);
        let label = rule.to_string();
        let bump = |name, n: u64| {
            if n > 0 {
                self.registry.counter_with(name, "rule", &label).add(n);
            }
        };
        bump("logres_rule_firings_total", firings);
        bump("logres_rule_derived_facts_total", derived);
        bump("logres_rule_deleted_facts_total", deleted);
        bump("logres_rule_invented_oids_total", invented);
    }
}

/// A per-run tally of matcher access-path decisions.
///
/// The matcher is called once per (literal, candidate valuation) — millions
/// of times on a large closure — and an atomic add per probe measured about
/// 10% overhead on E12. Each run's [`crate::Governor`] instead owns one
/// plain-`Cell` tally, which the matcher counts into, and
/// [`ProbeTally::flush`]es it to the shared counters once, when the run
/// ends — however it ends. The flushed sums are identical to per-event
/// counting, so the determinism contract is unaffected.
#[derive(Debug, Default)]
pub struct ProbeTally {
    hits: std::cell::Cell<u64>,
    misses: std::cell::Cell<u64>,
    scans: std::cell::Cell<u64>,
}

impl ProbeTally {
    /// Count an index probe that found a bucket.
    pub fn hit(&self) {
        self.hits.set(self.hits.get() + 1);
    }

    /// Count an index probe whose key had no bucket.
    pub fn miss(&self) {
        self.misses.set(self.misses.get() + 1);
    }

    /// Count a literal evaluated by full extension scan.
    pub fn scan(&self) {
        self.scans.set(self.scans.get() + 1);
    }

    /// Add the accumulated counts to the shared handles and reset.
    pub fn flush(&self, m: &EngineMetrics) {
        for (cell, counter) in [
            (&self.hits, &m.probe_hits),
            (&self.misses, &m.probe_misses),
            (&self.scans, &m.scan_fallbacks),
        ] {
            let n = cell.take();
            if n > 0 {
                counter.add(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_once_and_accumulate() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("logres_firings_total");
        let b = reg.counter("logres_firings_total");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(
            reg.counter_snapshot(),
            vec![("logres_firings_total".to_owned(), 4)]
        );
    }

    #[test]
    fn labeled_series_are_distinct() {
        let reg = MetricsRegistry::new();
        reg.counter_with("logres_rule_firings_total", "rule", "0")
            .add(5);
        reg.counter_with("logres_rule_firings_total", "rule", "1")
            .add(7);
        let snap = reg.counter_snapshot();
        assert_eq!(
            snap,
            vec![
                ("logres_rule_firings_total{rule=\"0\"}".to_owned(), 5),
                ("logres_rule_firings_total{rule=\"1\"}".to_owned(), 7),
            ]
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("logres_step_match_ms", &[1, 10]);
        h.observe(0);
        h.observe(5);
        h.observe(100);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 105);
        let text = reg.render_text();
        assert!(text.contains("logres_step_match_ms_bucket{le=\"1\"} 1"));
        assert!(text.contains("logres_step_match_ms_bucket{le=\"10\"} 2"));
        assert!(text.contains("logres_step_match_ms_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("logres_step_match_ms_sum 105"));
        assert!(text.contains("logres_step_match_ms_count 3"));
    }

    #[test]
    fn exposition_has_help_and_type_per_family() {
        let reg = MetricsRegistry::new();
        reg.counter("logres_eval_steps_total").add(2);
        reg.gauge("logres_governor_deadline_headroom_ms").set(40);
        let text = reg.render_text();
        assert!(text.contains("# HELP logres_eval_steps_total "));
        assert!(text.contains("# TYPE logres_eval_steps_total counter\n"));
        assert!(text.contains("logres_eval_steps_total 2\n"));
        assert!(text.contains("# TYPE logres_governor_deadline_headroom_ms gauge\n"));
        assert!(text.contains("logres_governor_deadline_headroom_ms 40\n"));
    }
}
