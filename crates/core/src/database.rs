//! The LOGRES database facade: owns a state `(E, R, S)` and applies modules
//! under the six modes of Section 4.1.
//!
//! "The evolution of a LOGRES database is obtained through sequences of
//! applications of update modules to existing LOGRES database states."
//! Modes of application also select the semantics given to rules —
//! "LOGRES modules and databases are parametric with respect to the
//! semantics of the rules they support" — so every application may override
//! the database's default semantics.
//!
//! Each application computes its mode's next `S`, `R` and stored denials
//! once, in one transition that writes out the Section 4.1 table; only `E′`
//! is left to the route. The full path computes `E′` by evaluation and
//! checks the whole candidate; the maintained path of the data-variant
//! modes computes it as an update over `E` and checks the delta. Both
//! commit through the same assignment. RIDI is the same pipeline with no
//! check and no commit, and a query runs it after (or instead of) the
//! demand-driven attempt, over the one transient state both share.

use std::sync::Arc;

use logres_engine::maintain::{self, MaterializedView, UpdateSpec};
use logres_engine::{
    answer_goal, compile_program_for, evaluate, load_facts, note_fallback, render_route,
    Derivation, EvalOptions, EvalReport, LiftedGoal, MetricsRegistry, PreparedGoal, Provenance,
    Semantics,
};
use logres_lang::analyze::{plan_goal, RuleShape};
use logres_lang::{parse_program, AnalysisInput, Diagnostic, Goal, Rule, RuleSet};
use logres_model::{
    integrity, Fact, Instance, IntegrityConstraint, Oid, PredKind, Schema, Sym, Value,
};
use rustc_hash::{FxHashMap, FxHashSet};

use crate::error::CoreError;
use crate::module::{Mode, Module};
use crate::state::DatabaseState;

/// Goal answers: one row per result, binding the goal variables in order.
pub type Rows = Vec<Vec<(Sym, Value)>>;

/// What a module application produced.
#[derive(Debug, Clone)]
pub struct ApplicationOutcome {
    /// The goal answer, for goal-answering modes with a goal.
    pub answer: Option<Rows>,
    /// Evaluation statistics.
    pub report: EvalReport,
}

/// A LOGRES database.
#[derive(Debug, Clone)]
pub struct Database {
    state: DatabaseState,
    semantics: Semantics,
    opts: EvalOptions,
    /// Materialized instance plus support graph for incremental
    /// maintenance of the data-variant modes; built lazily on the first
    /// maintainable update and invalidated whenever the state changes
    /// through any other path.
    view: Option<maintain::MaterializedView>,
    incremental: bool,
    /// Parsed-module cache for [`Database::apply_source`]: parsing and
    /// static checking run against the current schema, so the cache is
    /// cleared whenever an applied module carries schema equations of its
    /// own (the only way `S` changes between applications). Bounded; the
    /// common repeat-the-same-update workload (benchmark E5) parses once.
    parse_cache: FxHashMap<String, Arc<Module>>,
    /// Prepared goals of goal-only queries.
    goals: GoalMemo,
}

/// The prepared goals ([`PreparedGoal`]) of goal-only queries, each with
/// the EDB generation it was last validated at. An entry is keyed by its
/// lifted goal, compared structurally, and the semantics; never by source
/// text, span or address. A plan is a pure function of the schema, the
/// rules, the semantics and the flow seeds of `E`, so the memo is cleared
/// whenever `S` or `R` changes, and an entry validated before the current
/// generation recomputes its seeds before it runs, re-planning only if
/// they changed. Bounded like the parse cache.
#[derive(Debug, Clone, Default)]
struct GoalMemo {
    entries: Vec<(PreparedGoal, u64)>,
    /// Bumped by every commit and every `materialize`.
    generation: u64,
}

impl GoalMemo {
    /// The prepared goal for `lifted` over `state`: a memoised one, brought
    /// up to date with `E` when `E` may have changed since, or a new one.
    /// A memoised plan that runs as it is counts on
    /// `logres_magic_plan_reuses_total`.
    fn prepared(
        &mut self,
        state: &DatabaseState,
        lifted: &LiftedGoal<'_>,
        semantics: Semantics,
        opts: &EvalOptions,
    ) -> &PreparedGoal {
        let found = self
            .entries
            .iter()
            .position(|(p, _)| p.is_for(lifted, semantics));
        let Some(i) = found else {
            if self.entries.len() >= 64 {
                self.entries.clear();
            }
            let prepared =
                PreparedGoal::prepare(&state.schema, &state.rules, &state.edb, lifted, semantics);
            self.entries.push((prepared, self.generation));
            return &self.entries.last().expect("just pushed").0;
        };
        let (prepared, validated) = &mut self.entries[i];
        let kept = *validated == self.generation || prepared.refresh(&state.edb);
        *validated = self.generation;
        if let (true, true, Some(m)) = (kept, prepared.rewrites(), &opts.metrics) {
            m.counter("logres_magic_plan_reuses_total").inc();
        }
        prepared
    }
}

impl Database {
    /// An empty database over a validated schema.
    pub fn new(schema: Schema) -> Database {
        Database::from_state(DatabaseState::new(schema))
    }

    /// Bootstrap a database from a program text: schema sections define
    /// `S`, the facts section loads `E`, rule/constraint sections seed the
    /// persistent `R`.
    pub fn from_source(src: &str) -> Result<Database, CoreError> {
        let program = parse_program(src).map_err(CoreError::Lang)?;
        logres_lang::check_program(&program).map_err(CoreError::Lang)?;
        let mut edb = Instance::new();
        let mut gen = logres_model::OidGen::new();
        load_facts(&program.schema, &mut edb, &program.facts, &mut gen)
            .map_err(CoreError::Engine)?;
        Ok(Database::from_state(DatabaseState {
            schema: program.schema,
            rules: program.rules,
            edb,
            constraints: program.constraints,
        }))
    }

    /// Wrap an existing state (e.g. one restored by [`crate::persist::load`]).
    pub fn from_state(state: DatabaseState) -> Database {
        Database {
            state,
            semantics: Semantics::default(),
            opts: EvalOptions::default(),
            view: None,
            incremental: true,
            parse_cache: FxHashMap::default(),
            goals: GoalMemo::default(),
        }
    }

    /// The current persistent state.
    pub fn state(&self) -> &DatabaseState {
        &self.state
    }

    /// Serialize the full state `(E, R, S)` to text (see [`crate::persist`]).
    pub fn save(&self) -> String {
        crate::persist::save(&self.state)
    }

    /// Restore a database from [`Database::save`] output.
    pub fn load(text: &str) -> Result<Database, CoreError> {
        Ok(Database::from_state(crate::persist::load(text)?))
    }

    /// The schema `S`.
    pub fn schema(&self) -> &Schema {
        &self.state.schema
    }

    /// The extensional database `E`.
    pub fn edb(&self) -> &Instance {
        &self.state.edb
    }

    /// The persistent rules `R`.
    pub fn rules(&self) -> &RuleSet {
        &self.state.rules
    }

    /// Default semantics for rule evaluation.
    pub fn set_semantics(&mut self, semantics: Semantics) {
        self.semantics = semantics;
    }

    /// Fuel limits, governor budgets, and trace sink for evaluations.
    pub fn set_options(&mut self, opts: EvalOptions) {
        self.opts = opts;
    }

    /// Enable or disable incremental maintenance of the data-variant modes
    /// (on by default). When disabled, every RIDV/RADV/RDDV application
    /// takes the full-rederivation path; disabling also drops the
    /// materialized view.
    pub fn set_incremental(&mut self, incremental: bool) {
        self.incremental = incremental;
        if !incremental {
            self.view = None;
        }
    }

    /// The database's current evaluation options.
    pub fn options(&self) -> &EvalOptions {
        &self.opts
    }

    /// Attach a dedicated metrics registry to this database (idempotent)
    /// and return it. Every subsequent evaluation — queries, module
    /// applications, materialization — records its counters, gauges, and
    /// histograms there instead of only the process-wide registry.
    pub fn enable_metrics(&mut self) -> Arc<MetricsRegistry> {
        if self.opts.metrics.is_none() {
            self.opts.metrics = Some(Arc::new(MetricsRegistry::new()));
        }
        self.opts
            .metrics
            .clone()
            .expect("metrics registry was just attached")
    }

    /// Render the database's metrics in Prometheus text exposition format.
    /// Falls back to the process-wide registry when
    /// [`Database::enable_metrics`] was never called.
    pub fn metrics(&self) -> String {
        match &self.opts.metrics {
            Some(registry) => registry.render_text(),
            None => MetricsRegistry::global().render_text(),
        }
    }

    /// Run the whole-program static analyzer over the persistent state
    /// `(E, R, S)`: the Section 3.1 error checks (typing, safety) plus the
    /// `L001`–`L007` lint pass, computed on one shared dependency graph.
    /// A predicate or data function counts as extensionally defined when
    /// its stored extension in `E` is non-empty. When metrics are enabled
    /// ([`Database::enable_metrics`]), each diagnostic bumps
    /// `logres_check_diagnostics_total{code=...}`.
    pub fn check(&self) -> Vec<Diagnostic> {
        let state = &self.state;
        let mut edb: FxHashSet<Sym> = FxHashSet::default();
        for class in state.schema.classes() {
            if state.edb.class_len(class) > 0 {
                edb.insert(class);
            }
        }
        for assoc in state.schema.assocs() {
            if state.edb.assoc_len(assoc) > 0 {
                edb.insert(assoc);
            }
        }
        for (fun, _) in state.schema.functions_iter() {
            if state.edb.fun_args(fun).next().is_some() {
                edb.insert(fun);
            }
        }
        let diags = logres_lang::analyze::analyze(&AnalysisInput {
            schema: &state.schema,
            rules: &state.rules,
            constraints: &state.constraints,
            goal: None,
            facts: &[],
            edb,
        });
        if let Some(registry) = &self.opts.metrics {
            for d in &diags {
                registry
                    .counter_with("logres_check_diagnostics_total", "code", d.code)
                    .inc();
            }
        }
        diags
    }

    /// The opt-in abstract-interpretation flow pass (`L008`–`L011`) over the
    /// persistent state: whole-program value inference seeded from the
    /// stored extensions in `E`. Kept separate from [`Database::check`] so
    /// the default check's output stays stable; callers append these and
    /// re-sort with `sort_diagnostics`.
    pub fn check_flow(&self) -> Vec<Diagnostic> {
        let state = &self.state;
        let seeds = logres_lang::analyze::seeds_from_instance(&state.schema, &state.edb);
        let diags = logres_lang::analyze::infer(&state.schema, &state.rules, &seeds)
            .diagnostics(&state.rules);
        if let Some(registry) = &self.opts.metrics {
            for d in &diags {
                registry
                    .counter_with("logres_check_diagnostics_total", "code", d.code)
                    .inc();
            }
        }
        diags
    }

    /// Explain how `fact` enters the database instance: re-evaluate with
    /// provenance recording on and walk the first derivation of the fact
    /// back to its EDB leaves. `Ok(None)` means the fact is not in the
    /// instance at all; an EDB fact comes back as a leaf derivation.
    pub fn why(&self, fact: &Fact) -> Result<Option<Derivation>, CoreError> {
        let (inst, prov) = self.provenance()?;
        Ok(inst
            .contains_fact(&self.state.schema, fact)
            .then(|| prov.explain(fact)))
    }

    /// [`Database::why`] over a textual fact such as `tc(a: 1, b: 3)` or
    /// `emp(name: "smith")`, returning the rendered derivation chain (or a
    /// message explaining why there is nothing to show).
    pub fn why_source(&self, fact_src: &str) -> Result<String, CoreError> {
        let (inst, prov) = self.provenance()?;
        let Some(fact) = self.resolve_fact_src(fact_src, &inst)? else {
            return Ok(format!(
                "no fact matching `{}` in the instance",
                fact_src.trim()
            ));
        };
        if !inst.contains_fact(&self.state.schema, &fact) {
            return Ok(format!("{fact} is not in the instance"));
        }
        Ok(prov.explain(&fact).render())
    }

    /// The instance and its derivations: `(E, R)` re-evaluated with
    /// provenance recording on.
    fn provenance(&self) -> Result<(Instance, Provenance), CoreError> {
        let mut opts = self.opts.clone();
        opts.provenance = true;
        let (inst, report) = self
            .state
            .instance(self.semantics, opts)
            .map_err(CoreError::Engine)?;
        Ok((inst, report.provenance.unwrap_or_default()))
    }

    /// Parse a textual ground fact and resolve it against `inst`. Class
    /// facts name no oid in text form, so the smallest oid whose o-value
    /// agrees on every written attribute is chosen (deterministically).
    fn resolve_fact_src(&self, src: &str, inst: &Instance) -> Result<Option<Fact>, CoreError> {
        let lang_err = |msg: String| {
            CoreError::Lang(vec![logres_lang::LangError::new(Default::default(), msg)])
        };
        let schema = &self.state.schema;
        let trimmed = src.trim().trim_end_matches('.');
        let wrapped = format!("facts\n  {trimmed}.\n");
        let program = logres_lang::parse_rules(&wrapped, schema).map_err(CoreError::Lang)?;
        logres_lang::check_program(&program).map_err(CoreError::Lang)?;
        let Some(gf) = program.facts.first() else {
            return Err(lang_err(format!("expected a ground fact, got `{trimmed}`")));
        };
        match schema.kind(gf.pred) {
            Some(PredKind::Assoc) => Ok(Some(Fact::Assoc {
                assoc: gf.pred,
                tuple: Value::tuple(gf.args.iter().map(|(l, v)| (*l, v.clone()))),
            })),
            Some(PredKind::Class) => {
                let mut oids: Vec<Oid> = inst.oids_of(gf.pred).collect();
                oids.sort();
                for oid in oids {
                    if let Some(view) = inst.o_value_in(schema, gf.pred, oid) {
                        if gf.args.iter().all(|(l, v)| view.field(*l) == Some(v)) {
                            return Ok(Some(Fact::Class {
                                class: gf.pred,
                                oid,
                                value: view,
                            }));
                        }
                    }
                }
                Ok(None)
            }
            _ => Err(lang_err(format!(
                "`{}` is not a class or association of the schema",
                gf.pred
            ))),
        }
    }

    /// The referential integrity constraints generated from the current
    /// type equations (Section 2.1).
    pub fn integrity_constraints(&self) -> Vec<IntegrityConstraint> {
        integrity::generate(&self.state.schema)
    }

    /// Materialize the database instance: compute `I` from `(E, R)`.
    pub fn instance(&self) -> Result<(Instance, EvalReport), CoreError> {
        self.state
            .instance(self.semantics, self.opts.clone())
            .map_err(CoreError::Engine)
    }

    /// Make `E` coincide with the instance `I` (Section 4.2,
    /// "materializing the instance"): `E := I`. The rules stay in place, so
    /// they keep acting as triggers on later updates.
    pub fn materialize(&mut self) -> Result<EvalReport, CoreError> {
        let (inst, report) = self.instance()?;
        self.state.edb = inst;
        self.view = None;
        self.goals.generation += 1;
        Ok(report)
    }

    /// Parse and apply a module in one call. Repeated applications of the
    /// same source reuse the parsed (and statically checked) module from a
    /// cache that is invalidated whenever the schema can have changed.
    pub fn apply_source(&mut self, src: &str, mode: Mode) -> Result<ApplicationOutcome, CoreError> {
        let module = match self.parse_cache.get(src) {
            Some(m) => m.clone(),
            None => {
                let m = Arc::new(Module::parse(src, &self.state.schema)?);
                if self.parse_cache.len() >= 64 {
                    self.parse_cache.clear();
                }
                self.parse_cache.insert(src.to_owned(), m.clone());
                m
            }
        };
        self.apply(&module, mode)
    }

    /// Apply a module under the database's default semantics.
    pub fn apply(&mut self, module: &Module, mode: Mode) -> Result<ApplicationOutcome, CoreError> {
        self.apply_with(module, mode, self.semantics)
    }

    /// Does applying this module leave cached source→module parses valid?
    /// Only schema equations can invalidate them: parsing depends on `S`
    /// and nothing else, and `S` changes only when a module carries its own
    /// equations (unioned or differenced in by the persistent modes).
    fn module_carries_schema(module: &Module) -> bool {
        module.schema.classes().next().is_some()
            || module.schema.assocs().next().is_some()
            || module.schema.functions_iter().next().is_some()
    }

    /// Apply a module, overriding the rule semantics for this application.
    pub fn apply_with(
        &mut self,
        module: &Module,
        mode: Mode,
        semantics: Semantics,
    ) -> Result<ApplicationOutcome, CoreError> {
        if module.goal.is_some() && !mode.answers_goal() {
            return Err(CoreError::GoalNotAllowed(mode));
        }
        if mode != Mode::Ridi && Self::module_carries_schema(module) {
            self.parse_cache.clear();
        }
        let mut next = self.next_state(module, mode)?;
        if mode == Mode::Ridi {
            return self.ridi(module, &next, semantics);
        }
        let maintained = if mode.data_variant() && self.incremental {
            self.try_incremental(module, mode, semantics, &next)?
        } else {
            None
        };
        let (answer, report, view) = match maintained {
            // E′ is E patched in place by the checked update.
            Some((spec, view, report)) => {
                for f in &spec.deletes {
                    self.state.edb.remove_fact(&next.schema, f);
                }
                for f in &spec.inserts {
                    self.state.edb.insert_fact(&next.schema, f);
                }
                std::mem::swap(&mut next.edb, &mut self.state.edb);
                (None, report, Some(view))
            }
            // E′ by evaluation; the whole candidate instance must be
            // consistent (Section 4.1: the new instance must be defined).
            None => {
                let (edb, evaluated) = self.evaluate_edb(module, mode, semantics, &next.schema)?;
                next.edb = edb;
                let (inst, report) = next
                    .instance(semantics, self.opts.clone())
                    .map_err(CoreError::Engine)?;
                next.check_consistency(&inst)?.into_result()?;
                let answer = answer(&next.schema, &inst, module)?;
                (answer, evaluated.unwrap_or(report), None)
            }
        };
        self.state = next;
        self.view = view;
        self.goals.generation += 1;
        if mode != Mode::Ridv || !schema_free(&module.schema) {
            self.goals.entries.clear();
        }
        Ok(ApplicationOutcome { answer, report })
    }

    /// The state Section 4.1 gives `mode` next, less `E′`: `S′`, `R′` and
    /// the stored denials `D′`, over an empty EDB the route fills in.
    /// RIDI's is the transient state it evaluates and never commits.
    ///
    /// | mode | `S′` | `R′` | `D′` |
    /// |---|---|---|---|
    /// | RIDI | `S ∪ S_M` | `R ∪ R_M` | kept |
    /// | RIDV | `S ∪ S_M` | `R` | kept |
    /// | RADI, RADV | `S ∪ S_M` | `R ∪ R_M` | `D ∪ D_M` |
    /// | RDDI, RDDV | `S − S_M` | `R − R_M` | `D − D_M` |
    fn next_state(&self, module: &Module, mode: Mode) -> Result<DatabaseState, CoreError> {
        let state = &self.state;
        let schema = match mode {
            Mode::Rddi | Mode::Rddv => {
                let mut schema = state.schema.difference(&module.schema);
                schema.validate().map_err(CoreError::Model)?;
                schema
            }
            _ => self.union_schema(module)?,
        };
        let mut constraints = state.constraints.clone();
        let rules = match mode {
            Mode::Ridv => state.rules.clone(),
            Mode::Ridi => state.rules.union(&module.rules),
            Mode::Radi | Mode::Radv => {
                for d in &module.constraints {
                    if !constraints.contains(d) {
                        constraints.push(d.clone());
                    }
                }
                state.rules.union(&module.rules)
            }
            Mode::Rddi | Mode::Rddv => {
                constraints.retain(|d| !module.constraints.contains(d));
                state.rules.difference(&module.rules)
            }
        };
        Ok(DatabaseState {
            schema,
            rules,
            edb: Instance::new(),
            constraints,
        })
    }

    /// RIDI over its transient state `next`: evaluate `R ∪ R_M` over `E`
    /// with `S ∪ S_M` and answer the goal. Nothing is checked or committed.
    fn ridi(
        &self,
        module: &Module,
        next: &DatabaseState,
        semantics: Semantics,
    ) -> Result<ApplicationOutcome, CoreError> {
        let (inst, report) = evaluate(
            &next.schema,
            &next.rules,
            &self.state.edb,
            semantics,
            self.opts.clone(),
        )
        .map_err(CoreError::Engine)?;
        let answer = answer(&next.schema, &inst, module)?;
        Ok(ApplicationOutcome { answer, report })
    }

    /// `E′` by evaluation, with the report of the evaluation that made it.
    /// RADI and RDDI keep `E`. RIDV and RADV apply the module's rules to `E`
    /// (the paper's `S_M(EDB)`) under `schema`, their `S ∪ S_M`; RDDV
    /// removes `E_M`, the instance of `(∅, R_M)` under `S ∪ S_M`.
    fn evaluate_edb(
        &self,
        module: &Module,
        mode: Mode,
        semantics: Semantics,
        schema: &Schema,
    ) -> Result<(Instance, Option<EvalReport>), CoreError> {
        let eval = |schema: &Schema, edb: &Instance| {
            evaluate(schema, &module.rules, edb, semantics, self.opts.clone())
                .map_err(CoreError::Engine)
        };
        match mode {
            Mode::Ridv | Mode::Radv => eval(schema, &self.state.edb).map(|(e, r)| (e, Some(r))),
            Mode::Rddv => {
                let schema = self.union_schema(module)?;
                let (em, report) = eval(&schema, &Instance::new())?;
                let mut edb = self.state.edb.clone();
                for fact in em.facts(&schema) {
                    edb.remove_fact(&schema, &fact);
                }
                Ok((edb, Some(report)))
            }
            _ => Ok((self.state.edb.clone(), None)),
        }
    }

    /// Serve a data-variant application through the incremental maintenance
    /// engine ([`logres_engine::maintain`]) when the module and the
    /// persistent program lie in the supported fragment. `next` is the
    /// application's next state less `E′`; this route computes `E′` as an
    /// update over `E` instead of by evaluation, and checks the update
    /// against `next`'s schema and denials.
    ///
    /// `Ok(None)` means the caller must take the full rederivation path;
    /// the reason has already been recorded on the
    /// `logres_maintain_fallbacks_total` metric. `Ok(Some(..))` is the
    /// checked update, the view that already reflects it and the report,
    /// for the caller to commit. Rejections and engine failures leave the
    /// persistent state untouched (the stale view is discarded).
    fn try_incremental(
        &mut self,
        module: &Module,
        mode: Mode,
        semantics: Semantics,
        next: &DatabaseState,
    ) -> Result<Option<(UpdateSpec, MaterializedView, EvalReport)>, CoreError> {
        macro_rules! fall_back {
            ($reason:expr) => {{
                note_fallback(&self.opts, "logres_maintain_fallbacks_total", $reason);
                return Ok(None);
            }};
        }
        // Module schemas that introduce classes, isa edges, or renamings
        // can retype existing data; keep those on the full path. New
        // associations and domains only extend the schema.
        if module.schema.classes().next().is_some()
            || !module.schema.isa_edges().is_empty()
            || !module.schema.renames().is_empty()
        {
            fall_back!("schema");
        }
        // RDDV's next schema is `S − S_M`; its update runs under the
        // current `S`.
        let schema = match mode {
            Mode::Rddv => {
                // RDDV subtracts the module schema; dropping declarations
                // out from under stored data stays on the full path.
                if module.schema.assocs().next().is_some()
                    || module.schema.domains().next().is_some()
                {
                    fall_back!("schema");
                }
                &self.state.schema
            }
            _ => &next.schema,
        };
        // The persistent program must be maintainable for the view to
        // exist at all (no oid invention, no data functions, no negation).
        if !maintain::maintainable(schema, &self.state.rules) {
            fall_back!("fragment");
        }

        let (ground, nonground): (Vec<&Rule>, Vec<&Rule>) = module
            .rules
            .rules
            .iter()
            .partition(|r| maintain::is_ground_batch_rule(schema, r));

        let mut spec = UpdateSpec::default();
        // Profile entries for the module's own (transient) rules, merged
        // into the synthesized report so `:profile` covers them.
        let mut module_profiles: Vec<logres_engine::RuleProfile> = Vec::new();
        match mode {
            Mode::Ridv => {
                if !nonground.is_empty() {
                    fall_back!("nonground-rule");
                }
                let effect = match maintain::apply_batch(schema, &ground, &self.state.edb) {
                    Ok(e) => e,
                    Err(_) => fall_back!("batch"),
                };
                let deleting: Vec<&Rule> =
                    ground.iter().copied().filter(|r| r.head.negated).collect();
                match maintain::batch_conflicts(schema, &deleting, &effect) {
                    Ok(false) => {}
                    // A batch that inserts and deletes the same fact does
                    // not reach a one-step fixpoint; let the full path
                    // produce its verdict.
                    _ => fall_back!("conflict"),
                }
                spec.inserts = effect.inserted;
                spec.deletes = effect.deleted;
                module_profiles = effect.profiles;
            }
            Mode::Radv => {
                if module.rules.rules.iter().any(|r| r.head.negated) {
                    fall_back!("deleting-rule");
                }
                if !maintain::maintainable(schema, &next.rules) {
                    fall_back!("fragment");
                }
                spec.inserts = if nonground.is_empty() {
                    match maintain::apply_batch(schema, &ground, &self.state.edb) {
                        Ok(e) => {
                            module_profiles = e.profiles;
                            e.inserted
                        }
                        Err(_) => fall_back!("batch"),
                    }
                } else {
                    // The module's EDB effect is the full path's `E′`; the
                    // saving is skipping the candidate's full rederivation
                    // afterwards.
                    let evaluated = self.evaluate_edb(module, mode, semantics, schema);
                    let Ok((new_edb, Some(eval_report))) = evaluated else {
                        fall_back!("batch");
                    };
                    module_profiles = eval_report.rule_profiles;
                    new_edb
                        .facts(schema)
                        .into_iter()
                        .filter(|f| !self.state.edb.contains_fact(schema, f))
                        .collect()
                };
                spec.add_rules = module.rules.rules.clone();
            }
            Mode::Rddv => {
                let inserts: Vec<&Rule> =
                    ground.iter().copied().filter(|r| !r.head.negated).collect();
                let em_inserted = if inserts.is_empty() {
                    // E_M = ∅ only if no module rule can ever fire over the
                    // empty instance: require a positive stored-predicate
                    // literal in every non-ground body.
                    for r in &nonground {
                        if !RuleShape::of(schema, r).anchored {
                            fall_back!("em-unsafe");
                        }
                    }
                    Vec::new()
                } else {
                    // Ground insertions feeding other rules (or fighting
                    // ground deletions) make E_M hard to bound; punt.
                    if !nonground.is_empty() || inserts.len() != ground.len() {
                        fall_back!("mixed");
                    }
                    match maintain::apply_batch(schema, &inserts, &Instance::new()) {
                        Ok(e) => {
                            module_profiles = e.profiles;
                            e.inserted
                        }
                        Err(_) => fall_back!("batch"),
                    }
                };
                spec.deletes = em_inserted
                    .into_iter()
                    .filter(|f| self.state.edb.contains_fact(schema, f))
                    .collect();
                spec.remove_rules = module
                    .rules
                    .rules
                    .iter()
                    .filter(|r| self.state.rules.rules.contains(r))
                    .cloned()
                    .collect();
            }
            Mode::Ridi | Mode::Radi | Mode::Rddi => unreachable!("{mode:?} is not data-variant"),
        }

        if self.view.is_none() {
            // The initial materialization is internal bookkeeping, not a
            // user-visible evaluation: keep it out of the trace stream.
            let mut build_opts = self.opts.clone();
            build_opts.trace = None;
            let built =
                MaterializedView::build(schema, &self.state.rules, &self.state.edb, &build_opts);
            let (view, _) = match built {
                Ok(v) => v,
                Err(_) => fall_back!("build"),
            };
            // The delta consistency check assumes a consistent base.
            if !self
                .state
                .check_consistency(view.instance())?
                .is_consistent()
            {
                fall_back!("base-inconsistent");
            }
            self.view = Some(view);
        }

        let mut view = self.view.take().expect("view was just ensured");
        let mut result =
            maintain::apply_update(schema, &mut view, &spec, &self.state.edb, &self.opts)
                .map_err(CoreError::Engine)?;
        if !module_profiles.is_empty() {
            module_profiles.append(&mut result.report.rule_profiles);
            result.report.rule_profiles = module_profiles;
        }
        // Atomic rejection: the persistent state is untouched and the
        // mutated view is discarded.
        next.check_consistency_delta(view.instance(), &result.added)?
            .into_result()?;
        Ok(Some((spec, view, result.report)))
    }

    /// Evaluate a goal-only module (convenience for queries). Goals whose
    /// plan admits the magic-set rewrite are answered demand-first over the
    /// partial instance (bit-identical answers, see
    /// [`logres_engine::magic`]); every other goal falls back to a full
    /// transient (RIDI) application.
    pub fn query(&mut self, src: &str) -> Result<Rows, CoreError> {
        Ok(self.query_report(src)?.0)
    }

    /// [`Database::query`], also returning the evaluation report. Both the
    /// demand path and the full RIDI fallback report through the same
    /// [`EvalReport`] shape, so `:profile` and EXPLAIN ANALYZE see per-rule
    /// (and, with [`EvalOptions::profile`], per-operator) statistics
    /// whichever path answered. Both evaluate the one transient state
    /// `(S ∪ S_M, R ∪ R_M)`. The goal of a module that carries nothing else
    /// is prepared once per shape and memoised; any other goal is prepared
    /// afresh, through the same [`PreparedGoal`].
    pub fn query_report(&mut self, src: &str) -> Result<(Rows, EvalReport), CoreError> {
        let module = Module::parse(src, &self.state.schema)?;
        let goal_only = module.rules.is_empty() && schema_free(&module.schema);
        let next = if goal_only {
            None
        } else {
            Some(self.next_state(&module, Mode::Ridi)?)
        };
        if let Some(goal) = &module.goal {
            if let Some(answered) = self.answer_demand(goal, next.as_ref())? {
                return Ok(answered);
            }
        }
        let next = match next {
            Some(next) => next,
            None => self.next_state(&module, Mode::Ridi)?,
        };
        let outcome = self.ridi(&module, &next, self.semantics)?;
        Ok((outcome.answer.unwrap_or_default(), outcome.report))
    }

    /// The demand attempt of a query over `E`: the goal of a goal-only
    /// module (`next` is `None`, and the transient state is the persistent
    /// one) from the memo, any other against `next`, prepared afresh.
    fn answer_demand(
        &mut self,
        goal: &Goal,
        next: Option<&DatabaseState>,
    ) -> Result<Option<(Rows, EvalReport)>, CoreError> {
        let edb = &self.state.edb;
        let answered = match next {
            None => {
                let schema = &self.state.schema;
                let lifted = LiftedGoal::lift(schema, goal);
                let prepared =
                    self.goals
                        .prepared(&self.state, &lifted, self.semantics, &self.opts);
                prepared.answer(schema, edb, &lifted, &self.opts)
            }
            Some(next) => {
                let lifted = LiftedGoal::lift(&next.schema, goal);
                PreparedGoal::prepare(&next.schema, &next.rules, edb, &lifted, self.semantics)
                    .answer(&next.schema, edb, &lifted, &self.opts)
            }
        };
        answered.map_err(CoreError::Engine)
    }

    /// [`Database::query`] under one-off evaluation options (deadline,
    /// budgets, trace sink, profiling) without disturbing the database's
    /// defaults; returns the rows together with the evaluation report so
    /// callers can inspect profiles and budget consumption.
    pub fn query_with_options(
        &mut self,
        src: &str,
        opts: EvalOptions,
    ) -> Result<(Rows, EvalReport), CoreError> {
        let saved = std::mem::replace(&mut self.opts, opts);
        let result = self.query_report(src);
        self.opts = saved;
        result
    }

    /// Render the goal-directed evaluation plan for a query — adornments,
    /// demand predicates, the rewritten rules, or the reason (and exempt
    /// rules) for falling back to the full fixpoint — without evaluating
    /// anything.
    pub fn query_plan(&self, src: &str) -> Result<String, CoreError> {
        let module = Module::parse(src, &self.state.schema)?;
        let Some(goal) = &module.goal else {
            return Ok("no goal: nothing to plan\n".to_owned());
        };
        let next = self.next_state(&module, Mode::Ridi)?;
        let plan = plan_goal(&next.schema, &next.rules, goal);
        Ok(plan.render(&next.rules))
    }

    /// The program a module source's query evaluates, as deterministic
    /// indented text (EXPLAIN): for a goal whose plan admits the magic-set
    /// rewrite, the demand-rewritten program of its prepared goal, with the
    /// goal's constants read from `@goal`; otherwise the persistent rules
    /// unioned with the module's. Either is stratified, translated to ALGRES
    /// operator trees and planned with the flow summaries of the current
    /// EDB, exactly as the query runs it, so the `rule #N` numbering matches
    /// EXPLAIN ANALYZE's. When the query runs on the interpreter under the
    /// current options — the compiled path is off, provenance is on, or the
    /// program falls outside the compilable fragment — the reason is
    /// rendered instead. Nothing is evaluated.
    pub fn explain_goal(&self, src: &str) -> Result<String, CoreError> {
        let module = Module::parse(src, &self.state.schema)?;
        let next = self.next_state(&module, Mode::Ridi)?;
        let edb = &self.state.edb;
        Ok(match &module.goal {
            Some(goal) => {
                let lifted = LiftedGoal::lift(&next.schema, goal);
                PreparedGoal::prepare(&next.schema, &next.rules, edb, &lifted, self.semantics)
                    .explain(&next.schema, &next.rules, edb, &self.opts)
            }
            None => render_route(
                &compile_program_for(&next.schema, &next.rules, edb, self.semantics),
                &next.rules,
                &self.opts,
            ),
        })
    }

    /// EXPLAIN ANALYZE: evaluate the module source with per-operator
    /// profiling on and render the annotated plan — each operator with its
    /// evaluation count, rows in/out, hash builds, probes, memo hits, and
    /// inclusive/exclusive wall time, plus the driver's `materialize` step.
    /// Falls back to a message when the program ran on the interpreter
    /// (there is no operator tree to profile).
    pub fn explain_analyze_goal(&mut self, src: &str) -> Result<String, CoreError> {
        let mut opts = self.opts.clone();
        opts.profile = true;
        let (_, report) = self.query_with_options(src, opts)?;
        match report.plan_profile {
            Some(profile) => Ok(profile.render()),
            None => Ok(
                "no plan profile: the program ran on the interpreter, not the compiled path\n"
                    .to_owned(),
            ),
        }
    }

    // ----- helpers ----------------------------------------------------------

    fn union_schema(&self, module: &Module) -> Result<Schema, CoreError> {
        let mut s = self
            .state
            .schema
            .union(&module.schema)
            .map_err(|e| CoreError::Model(vec![e]))?;
        s.validate().map_err(CoreError::Model)?;
        Ok(s)
    }
}

/// Does a module's schema declare nothing, so that `S ∪ S_M` is `S`?
fn schema_free(schema: &Schema) -> bool {
    schema.classes().next().is_none()
        && schema.assocs().next().is_none()
        && schema.functions_iter().next().is_none()
        && schema.domains().next().is_none()
        && schema.isa_edges().is_empty()
        && schema.renames().is_empty()
}

/// The module goal's answer over `inst`, if the module has a goal.
fn answer(schema: &Schema, inst: &Instance, module: &Module) -> Result<Option<Rows>, CoreError> {
    let rows = module
        .goal
        .as_ref()
        .map(|goal| answer_goal(schema, inst, goal));
    rows.transpose().map_err(CoreError::Engine)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PEOPLE: &str = r#"
        associations
          parent   = (par: string, chil: string);
        facts
          parent(par: "adam", chil: "cain").
          parent(par: "cain", chil: "enoch").
    "#;

    #[test]
    fn apply_source_caches_parsed_modules_until_the_schema_changes() {
        let mut db = Database::from_source(PEOPLE).unwrap();
        let update = r#"rules parent(par: "enoch", chil: "irad") <- ."#;
        db.apply_source(update, Mode::Ridv).unwrap();
        db.apply_source(update, Mode::Ridv).unwrap();
        assert_eq!(db.parse_cache.len(), 1, "repeat applies parse once");

        // A module with its own equations changes `S`, so cached parses
        // (typed against the old schema) must be dropped.
        db.apply_source(
            r#"
            associations
              pet = (name: string);
            "#,
            Mode::Radi,
        )
        .unwrap();
        assert!(
            db.parse_cache.is_empty(),
            "schema-carrying module must invalidate the cache"
        );

        // Transient applications never change `S`: the cache survives.
        db.apply_source(update, Mode::Ridv).unwrap();
        db.apply_source(r#"goal parent(par: "adam", chil: C)?"#, Mode::Ridi)
            .unwrap();
        assert_eq!(db.parse_cache.len(), 2);
    }

    #[test]
    fn ridi_answers_queries_without_changing_state() {
        let mut db = Database::from_source(PEOPLE).unwrap();
        let rules_before = db.rules().len();
        let out = db
            .apply_source(
                r#"
                associations
                  ancestor = (anc: string, des: string);
                rules
                  ancestor(anc: X, des: Y) <- parent(par: X, chil: Y).
                  ancestor(anc: X, des: Z) <- parent(par: X, chil: Y),
                                              ancestor(anc: Y, des: Z).
                goal ancestor(anc: "adam", des: D)?
                "#,
                Mode::Ridi,
            )
            .unwrap();
        assert_eq!(out.answer.unwrap().len(), 2);
        // Nothing persisted: neither rules nor the ancestor association.
        assert_eq!(db.rules().len(), rules_before);
        assert!(db.schema().assoc_type(Sym::new("ancestor")).is_none());
    }

    #[test]
    fn radi_persists_rules_and_schema() {
        let mut db = Database::from_source(PEOPLE).unwrap();
        db.apply_source(
            r#"
            associations
              ancestor = (anc: string, des: string);
            rules
              ancestor(anc: X, des: Y) <- parent(par: X, chil: Y).
            "#,
            Mode::Radi,
        )
        .unwrap();
        assert_eq!(db.rules().len(), 1);
        assert!(db.schema().assoc_type(Sym::new("ancestor")).is_some());
        // The persisted rule now answers plain queries.
        let rows = db.query("goal ancestor(anc: X, des: Y)?").unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn rddi_removes_rules_again() {
        let mut db = Database::from_source(PEOPLE).unwrap();
        let module_src = r#"
            associations
              ancestor = (anc: string, des: string);
            rules
              ancestor(anc: X, des: Y) <- parent(par: X, chil: Y).
        "#;
        db.apply_source(module_src, Mode::Radi).unwrap();
        assert_eq!(db.rules().len(), 1);
        db.apply_source(module_src, Mode::Rddi).unwrap();
        assert_eq!(db.rules().len(), 0);
        assert!(db.schema().assoc_type(Sym::new("ancestor")).is_none());
    }

    #[test]
    fn ridv_updates_the_edb_in_place() {
        // Example 4.1 of the paper.
        let mut db = Database::from_source(
            r#"
            associations
              italian = (name: string);
              roman   = (name: string);
            facts
              italian(name: "sara").
            "#,
        )
        .unwrap();
        let out = db
            .apply_source(
                r#"
                rules
                  italian(name: "luca") <- .
                  roman(name: "ugo") <- .
                  italian(name: X) <- roman(name: X).
                "#,
                Mode::Ridv,
            )
            .unwrap();
        assert!(out.answer.is_none());
        assert_eq!(db.edb().assoc_len(Sym::new("italian")), 3);
        assert_eq!(db.edb().assoc_len(Sym::new("roman")), 1);
        // No rules persisted.
        assert_eq!(db.rules().len(), 0);
    }

    #[test]
    fn example_4_2_via_ridv_module() {
        let mut db = Database::from_source(
            r#"
            associations
              p = (d1: integer, d2: integer);
            facts
              p(d1: 1, d2: 1).
              p(d1: 2, d2: 2).
              p(d1: 3, d2: 3).
              p(d1: 4, d2: 4).
            "#,
        )
        .unwrap();
        db.apply_source(
            r#"
            associations
              mod_t = (d1: integer, d2: integer);
            rules
              p(d1: X, d2: Z) <- p(d1: X, d2: Y), even(X), Z = Y + 1,
                                 not mod_t(d1: X, d2: Y).
              mod_t(d1: X, d2: Z) <- p(d1: X, d2: Y), even(X), Z = Y + 1,
                                     not mod_t(d1: X, d2: Y).
              -p(Y) <- p(Y, d1: X), even(X), not mod_t(Y).
            "#,
            Mode::Ridv,
        )
        .unwrap();
        let p = Sym::new("p");
        assert_eq!(db.edb().assoc_len(p), 4);
        for (a, b) in [(1, 1), (2, 3), (3, 3), (4, 5)] {
            assert!(db.edb().has_tuple(
                p,
                &Value::tuple([("d1", Value::Int(a)), ("d2", Value::Int(b))])
            ));
        }
    }

    #[test]
    fn rddv_deletes_module_derivable_facts_and_rules() {
        let mut db = Database::from_source(
            r#"
            associations
              p = (d: integer);
            facts
              p(d: 1).
              p(d: 2).
            "#,
        )
        .unwrap();
        // The module derives p(1) from nothing; RDDV removes it and the rule.
        db.apply_source(
            r#"
            rules
              p(d: 1) <- .
            "#,
            Mode::Rddv,
        )
        .unwrap();
        assert_eq!(db.edb().assoc_len(Sym::new("p")), 1);
        assert!(db
            .edb()
            .has_tuple(Sym::new("p"), &Value::tuple([("d", Value::Int(2))])));
    }

    #[test]
    fn data_variant_modes_reject_goals() {
        let mut db = Database::from_source(PEOPLE).unwrap();
        let err = db
            .apply_source(
                r#"
                rules
                  parent(par: "x", chil: "y") <- .
                goal parent(par: X)?
                "#,
                Mode::Ridv,
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::GoalNotAllowed(Mode::Ridv)));
    }

    #[test]
    fn inconsistent_applications_are_rejected_atomically() {
        let mut db = Database::from_source(
            r#"
            associations
              married  = (who: string);
              divorced = (who: string);
            facts
              married(who: "x").
            constraints
              <- married(who: X), divorced(who: X).
            "#,
        )
        .unwrap();
        let before = db.edb().clone();
        let err = db
            .apply_source(
                r#"
                rules
                  divorced(who: "x") <- .
                "#,
                Mode::Ridv,
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::Rejected { .. }));
        // Atomicity: the EDB is unchanged.
        assert_eq!(db.edb(), &before);
    }

    #[test]
    fn referential_integrity_rejects_dangling_updates() {
        let mut db = Database::from_source(
            r#"
            classes
              team = (name: string);
            associations
              fixture = (h: team, g: team);
            "#,
        )
        .unwrap();
        // A module inserting a fixture with nil teams violates the
        // association referential constraint generated from the schema.
        let err = db
            .apply_source(
                r#"
                rules
                  fixture(h: X, g: Y) <- .
                "#,
                Mode::Ridv,
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::Rejected { .. }));
    }

    #[test]
    fn materialize_makes_e_coincide_with_i() {
        let mut db = Database::from_source(
            r#"
            associations
              e  = (a: integer, b: integer);
              tc = (a: integer, b: integer);
            facts
              e(a: 1, b: 2).
              e(a: 2, b: 3).
            rules
              tc(a: X, b: Y) <- e(a: X, b: Y).
              tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).
            "#,
        )
        .unwrap();
        assert_eq!(db.edb().assoc_len(Sym::new("tc")), 0);
        db.materialize().unwrap();
        assert_eq!(db.edb().assoc_len(Sym::new("tc")), 3);
    }

    #[test]
    fn semantics_override_is_per_application() {
        let mut db = Database::from_source(
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
            "#,
        )
        .unwrap();
        let module = Module::parse(
            r#"
            rules
              covered(n: X) <- edge(a: X, b: Y).
              covered(n: X) <- edge(a: Y, b: X).
              isolated(n: X) <- node(n: X), not covered(n: X).
            goal isolated(n: X)?
            "#,
            db.schema(),
        )
        .unwrap();
        let strat = db
            .apply_with(&module, Mode::Ridi, Semantics::Stratified)
            .unwrap();
        let infl = db
            .apply_with(&module, Mode::Ridi, Semantics::Inflationary)
            .unwrap();
        assert_eq!(strat.answer.unwrap().len(), 1);
        assert!(infl.answer.unwrap().len() > 1);
    }

    #[test]
    fn why_walks_a_derived_fact_to_edb() {
        let db = Database::from_source(
            r#"
            associations
              parent   = (par: string, chil: string);
              ancestor = (anc: string, des: string);
            facts
              parent(par: "adam", chil: "cain").
              parent(par: "cain", chil: "enoch").
            rules
              ancestor(anc: X, des: Y) <- parent(par: X, chil: Y).
              ancestor(anc: X, des: Z) <- parent(par: X, chil: Y),
                                          ancestor(anc: Y, des: Z).
            "#,
        )
        .unwrap();
        let fact = Fact::Assoc {
            assoc: Sym::new("ancestor"),
            tuple: Value::tuple([("anc", Value::str("adam")), ("des", Value::str("enoch"))]),
        };
        let d = db.why(&fact).unwrap().expect("fact is derived");
        assert!(!d.is_edb());
        assert_eq!(d.depth(), 3);
        assert_eq!(d.edb_leaves(), 2);
        // A fact naming an attribute twice is a type error, not a panic.
        assert!(db
            .why_source(r#"parent(par: "adam", par: "cain")"#)
            .is_err());
        // The textual form resolves to the same chain.
        let text = db
            .why_source(r#"ancestor(anc: "adam", des: "enoch")"#)
            .unwrap();
        assert!(text.contains("via rule #"), "text: {text}");
        assert_eq!(text.matches("[EDB]").count(), 2, "text: {text}");
        // An EDB fact is a leaf; an absent fact is None / a message.
        let edb = db
            .why_source(r#"parent(par: "adam", chil: "cain")"#)
            .unwrap();
        assert!(edb.contains("[EDB]"));
        let missing = db
            .why_source(r#"ancestor(anc: "enoch", des: "adam")"#)
            .unwrap();
        assert!(missing.contains("not in the instance"), "text: {missing}");
    }

    #[test]
    fn enable_metrics_records_evaluations() {
        let mut db = Database::from_source(PEOPLE).unwrap();
        let registry = db.enable_metrics();
        db.query("goal parent(par: X, chil: Y)?").unwrap();
        let snapshot = registry.counter_snapshot();
        let steps = snapshot
            .iter()
            .find(|(name, _)| name == "logres_eval_steps_total")
            .map(|(_, v)| *v)
            .unwrap_or_default();
        assert!(steps > 0, "snapshot: {snapshot:?}");
        assert!(db
            .metrics()
            .contains("# TYPE logres_eval_steps_total counter"));
        // Idempotent: a second call returns the same registry.
        let again = db.enable_metrics();
        assert!(Arc::ptr_eq(&registry, &again));
    }

    #[test]
    fn check_analyzes_the_persistent_state() {
        // A clean, rule-free database has nothing to report.
        let db = Database::from_source(PEOPLE).unwrap();
        assert!(db.check().is_empty());

        // `ghost` has no facts and no deriving rule: L001. The derivation
        // into `out_p` is never consulted by another rule or constraint:
        // L002.
        let mut db = Database::from_source(
            r#"
            associations
              src   = (d: integer);
              ghost = (d: integer);
              out_p = (d: integer);
            facts
              src(d: 1).
            rules
              out_p(d: X) <- src(d: X), ghost(d: X).
            "#,
        )
        .unwrap();
        db.enable_metrics();
        // Position-stable order: L002 anchors at the rule head, L001 at the
        // `ghost` body literal further right on the same line.
        let codes: Vec<&str> = db.check().iter().map(|d| d.code).collect();
        assert_eq!(codes, ["L002", "L001"]);
        let metrics = db.metrics();
        assert!(
            metrics.contains(r#"logres_check_diagnostics_total{code="L001"} 1"#),
            "{metrics}"
        );
        assert!(
            metrics.contains(r#"logres_check_diagnostics_total{code="L002"} 1"#),
            "{metrics}"
        );

        // Facts loaded for `ghost` silence L001: the EDB set comes from the
        // live extensions, not from any program text.
        db.apply_source("rules\n  ghost(d: 5) <- .", Mode::Ridv)
            .unwrap();
        let codes: Vec<&str> = db.check().iter().map(|d| d.code).collect();
        assert_eq!(codes, ["L002"]);
    }

    const ANCESTRY: &str = r#"
        associations
          parent   = (par: string, chil: string);
          ancestor = (anc: string, des: string);
        facts
          parent(par: "adam", chil: "cain").
          parent(par: "cain", chil: "enoch").
          parent(par: "eve", chil: "abel").
        rules
          ancestor(anc: X, des: Y) <- parent(par: X, chil: Y).
          ancestor(anc: X, des: Z) <- ancestor(anc: X, des: Y),
                                      parent(par: Y, chil: Z).
    "#;

    #[test]
    fn selective_queries_take_the_demand_path() {
        let mut db = Database::from_source(ANCESTRY).unwrap();
        let registry = db.enable_metrics();
        let rows = db.query(r#"goal ancestor(anc: "adam", des: D)?"#).unwrap();
        assert_eq!(rows.len(), 2);
        let snapshot = registry.counter_snapshot();
        let rewrites = snapshot
            .iter()
            .find(|(name, _)| name == "logres_magic_rewrites_total")
            .map(|(_, v)| *v)
            .unwrap_or_default();
        assert_eq!(rewrites, 1, "snapshot: {snapshot:?}");
        // An all-free goal falls back to the full fixpoint, with the same
        // transient semantics: nothing persists either way.
        let all = db.query("goal ancestor(anc: X, des: Y)?").unwrap();
        assert_eq!(all.len(), 4);
        assert_eq!(db.rules().len(), 2);
    }

    #[test]
    fn demand_and_full_answers_agree() {
        let mut db = Database::from_source(ANCESTRY).unwrap();
        let fast = db.query(r#"goal ancestor(anc: "adam", des: D)?"#).unwrap();
        // Forcing the full path through apply_source must give the same rows.
        let full = db
            .apply_source(r#"goal ancestor(anc: "adam", des: D)?"#, Mode::Ridi)
            .unwrap()
            .answer
            .unwrap();
        assert_eq!(fast, full);
    }

    #[test]
    fn query_plan_renders_rewrites_and_fallbacks() {
        let db = Database::from_source(ANCESTRY).unwrap();
        let plan = db
            .query_plan(r#"goal ancestor(anc: "adam", des: D)?"#)
            .unwrap();
        assert!(plan.contains("ancestor[anc: bound, des: free]"), "{plan}");
        assert!(plan.contains("@magic_ancestor"), "{plan}");
        let fallback = db.query_plan("goal ancestor(anc: X, des: Y)?").unwrap();
        assert!(fallback.contains("full fixpoint"), "{fallback}");
        let no_goal = db
            .query_plan("rules\n  parent(par: \"x\", chil: \"y\") <- .")
            .unwrap();
        assert!(no_goal.contains("nothing to plan"), "{no_goal}");
    }

    #[test]
    fn oid_invention_through_a_module() {
        // Example 3.4: IP objects created from interesting pairs.
        let mut db = Database::from_source(
            r#"
            classes
              emp  = (name: string, works: string);
              dept = (dname: string, depmgr: emp);
            associations
              pair = (employee: emp, manager: emp);
            "#,
        )
        .unwrap();
        db.apply_source(
            r#"
            rules
              emp(self: X, name: "smith", works: "d1") <- .
              emp(self: X, name: "smith", works: "d2") <- .
            "#,
            Mode::Ridv,
        )
        .unwrap();
        assert_eq!(db.edb().class_len(Sym::new("emp")), 2);
    }
}
