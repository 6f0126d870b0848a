//! The traced replay: each benchmark op decomposed into the public calls
//! `Database` makes internally, with a span around every call into a layer.
//!
//! The replay keeps its own copy of the database state (and, for updates, its
//! own materialized view), so it can run beside a `Database` and be checked
//! against it op by op. Time spent between the spans (schema and rule
//! unions, clones, the commit) is the `core.database` remainder. Nothing
//! here instruments the program itself: every span wraps a `pub` function.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use logres::engine::{
    answer_goal, compile_program_with, evaluate, evaluate_seminaive, maintain, run_compiled,
    seminaive_applicable, EvalOptions, EvalReport, Semantics,
};
use logres::lang::analyze::{infer, plan_goal, seeds_from_instance};
use logres::lang::{Rule, RuleSet};
use logres::model::{Instance, Schema};
use logres::{persist, CoreError, DatabaseState, Module, Rows};

/// The layers a span can be charged to, named after crates and modules.
#[derive(Clone, Copy)]
pub enum Layer {
    Parse,
    Adorn,
    Flow,
    Compile,
    Run,
    Goal,
    Maintain,
    Check,
    Save,
}

const LAYERS: usize = 9;

/// Per-layer busy time and call counts, plus the counters the per-layer
/// metrics are ratios of.
#[derive(Default)]
pub struct Spans {
    nanos: [u64; LAYERS],
    calls: [u64; LAYERS],
    pub plans: u64,
    pub rewrites: u64,
    pub compile_fallbacks: u64,
    pub compiled_runs: u64,
    pub rounds: u64,
    pub firings: u64,
    pub derived: u64,
    pub rows_scanned: u64,
    pub hash_builds: u64,
    pub attributed_nanos: u64,
    pub compiled_run_nanos: u64,
    pub answer_rows: u64,
    pub updates: u64,
    pub added: u64,
}

impl Spans {
    fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.nanos[layer as usize] += start.elapsed().as_nanos() as u64;
        self.calls[layer as usize] += 1;
        out
    }

    pub fn ms(&self, layer: Layer) -> f64 {
        self.nanos[layer as usize] as f64 / 1e6
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }
}

/// A `Database` taken apart: its state, its view, its parse cache.
pub struct Replay {
    state: DatabaseState,
    semantics: Semantics,
    opts: EvalOptions,
    view: Option<maintain::MaterializedView>,
    parse_cache: HashMap<String, Arc<Module>>,
    pub spans: Spans,
}

fn union_schema(base: &Schema, module: &Module) -> Result<Schema, CoreError> {
    let mut s = base
        .union(&module.schema)
        .map_err(|e| CoreError::Model(vec![e]))?;
    s.validate().map_err(CoreError::Model)?;
    Ok(s)
}

impl Replay {
    pub fn new(state: DatabaseState, semantics: Semantics, opts: EvalOptions) -> Replay {
        Replay {
            state,
            semantics,
            opts,
            view: None,
            parse_cache: HashMap::new(),
            spans: Spans::default(),
        }
    }

    pub fn edb(&self) -> &Instance {
        &self.state.edb
    }

    /// Build the maintenance view up front, as `Database` does on its first
    /// maintained update. Returns the build time in milliseconds.
    pub fn build_view(&mut self) -> Result<f64, CoreError> {
        let start = Instant::now();
        let (view, _) = maintain::MaterializedView::build(
            &self.state.schema,
            &self.state.rules,
            &self.state.edb,
            &self.opts,
        )
        .map_err(CoreError::Engine)?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.view = Some(view);
        Ok(ms)
    }

    /// `Database::query`: parse, plan the goal, and answer it over the
    /// demanded part of the model, or over the full model when planning
    /// falls back.
    pub fn query(&mut self, src: &str) -> Result<Rows, CoreError> {
        let spans = &mut self.spans;
        let state = &self.state;
        let module = spans.time(Layer::Parse, || Module::parse(src, &state.schema))?;
        let goal = module
            .goal
            .as_ref()
            .expect("benchmark queries carry a goal");
        let schema = union_schema(&state.schema, &module)?;
        let rules = state.rules.union(&module.rules);
        let plan = spans.time(Layer::Adorn, || plan_goal(&schema, &rules, goal));
        spans.plans += 1;
        let inst = match plan.rewrite {
            Some(rw) => {
                spans.rewrites += 1;
                self.evaluate(&rw.schema, &rw.rules, true)?
            }
            None => {
                // The full RIDI application re-derives schema and rules.
                let schema = union_schema(&self.state.schema, &module)?;
                let rules = self.state.rules.union(&module.rules);
                self.evaluate(&schema, &rules, false)?
            }
        };
        let rows = self
            .spans
            .time(Layer::Goal, || answer_goal(&schema, &inst, goal))
            .map_err(CoreError::Engine)?;
        self.spans.answer_rows += rows.len() as u64;
        Ok(rows)
    }

    /// `try_evaluate_compiled` and its interpreter fallbacks, span by span.
    /// Compiled runs collect a plan profile for the `algres` counters.
    fn evaluate(
        &mut self,
        schema: &Schema,
        rules: &RuleSet,
        demand: bool,
    ) -> Result<Instance, CoreError> {
        let edb = &self.state.edb;
        let spans = &mut self.spans;
        let seeds = spans.time(Layer::Flow, || seeds_from_instance(schema, edb));
        let summaries = spans.time(Layer::Flow, || infer(schema, rules, &seeds));
        let compiled = spans.time(Layer::Compile, || {
            compile_program_with(schema, rules, self.semantics, Some(&summaries))
        });
        let (inst, report) = match compiled {
            Ok(program) => {
                let mut opts = self.opts.clone();
                opts.profile = true;
                let start = Instant::now();
                let out = spans.time(Layer::Run, || {
                    run_compiled(schema, &program, rules, edb, &opts)
                });
                spans.compiled_run_nanos += start.elapsed().as_nanos() as u64;
                spans.compiled_runs += 1;
                let (inst, report) = out.map_err(CoreError::Engine)?;
                if let Some(profile) = &report.plan_profile {
                    spans.attributed_nanos += profile.attributed_nanos();
                    for op in profile.rules.iter().flat_map(|r| r.ops.iter()) {
                        spans.hash_builds += op.hash_builds;
                        if op.op == "scan" {
                            spans.rows_scanned += op.rows_out;
                        }
                    }
                }
                (inst, report)
            }
            Err(_) => {
                spans.compile_fallbacks += 1;
                let mut opts = self.opts.clone();
                opts.compiled = false;
                let semantics = self.semantics;
                spans
                    .time(Layer::Run, || {
                        if demand && seminaive_applicable(schema, rules) {
                            evaluate_seminaive(schema, rules, edb, opts)
                        } else {
                            evaluate(schema, rules, edb, semantics, opts)
                        }
                    })
                    .map_err(CoreError::Engine)?
            }
        };
        self.tally(&report);
        Ok(inst)
    }

    fn tally(&mut self, report: &EvalReport) {
        self.spans.rounds += report.steps as u64;
        for it in &report.iterations {
            self.spans.firings += it.firings as u64;
            self.spans.derived += it.derived as u64;
        }
    }

    /// `Database::apply_source(src, Ridv)` on the maintained path: batch
    /// effect, incremental view update, delta consistency check, commit.
    /// Updates that would leave that path are an error here.
    pub fn apply_ridv(&mut self, src: &str) -> Result<(), CoreError> {
        let module = match self.parse_cache.get(src) {
            Some(m) => m.clone(),
            None => {
                let schema = &self.state.schema;
                let m = Arc::new(
                    self.spans
                        .time(Layer::Parse, || Module::parse(src, schema))?,
                );
                if self.parse_cache.len() >= 64 {
                    self.parse_cache.clear();
                }
                self.parse_cache.insert(src.to_owned(), m.clone());
                m
            }
        };
        let schema = union_schema(&self.state.schema, &module)?;
        let spans = &mut self.spans;
        let state = &self.state;
        let off_path = |why: &str| {
            CoreError::Lang(vec![logres::lang::LangError::new(
                Default::default(),
                format!("replay supports only maintained updates: {why}"),
            )])
        };
        if !spans.time(Layer::Maintain, || {
            maintain::maintainable(&schema, &state.rules)
        }) {
            return Err(off_path("fragment"));
        }
        let (ground, nonground): (Vec<&Rule>, Vec<&Rule>) = module
            .rules
            .rules
            .iter()
            .partition(|r| maintain::is_ground_batch_rule(&schema, r));
        if !nonground.is_empty() {
            return Err(off_path("nonground-rule"));
        }
        let effect = spans
            .time(Layer::Maintain, || {
                maintain::apply_batch(&schema, &ground, &state.edb)
            })
            .map_err(CoreError::Engine)?;
        let deleting: Vec<&Rule> = ground.iter().copied().filter(|r| r.head.negated).collect();
        let conflicts = spans
            .time(Layer::Maintain, || {
                maintain::batch_conflicts(&schema, &deleting, &effect)
            })
            .map_err(CoreError::Engine)?;
        if conflicts {
            return Err(off_path("conflict"));
        }
        let spec = maintain::UpdateSpec {
            inserts: effect.inserted,
            deletes: effect.deleted,
            ..maintain::UpdateSpec::default()
        };
        let rules = state.rules.clone();
        let constraints = state.constraints.clone();
        let mut view = self
            .view
            .take()
            .expect("view is built before the op stream");
        let result = spans
            .time(Layer::Maintain, || {
                maintain::apply_update(&schema, &mut view, &spec, &state.edb, &self.opts)
            })
            .map_err(CoreError::Engine)?;
        spans.updates += 1;
        spans.added += result.added.len() as u64;
        let candidate = DatabaseState {
            schema,
            rules,
            edb: Instance::new(),
            constraints,
        };
        let consistency = spans.time(Layer::Check, || {
            candidate.check_consistency_delta(view.instance(), &result.added)
        })?;
        if !consistency.is_consistent() {
            return Err(CoreError::Rejected {
                violations: consistency.violations,
            });
        }
        for f in &spec.deletes {
            self.state.edb.remove_fact(&candidate.schema, f);
        }
        for f in &spec.inserts {
            self.state.edb.insert_fact(&candidate.schema, f);
        }
        self.state.schema = candidate.schema;
        self.state.rules = candidate.rules;
        self.state.constraints = candidate.constraints;
        self.view = Some(view);
        Ok(())
    }

    /// `Database::save`.
    pub fn save(&mut self) -> String {
        let state = &self.state;
        self.spans.time(Layer::Save, || persist::save(state))
    }
}
