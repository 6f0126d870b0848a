//! Prepared goals: plan a goal once per shape, bind its constants per run.
//!
//! Successive point queries such as `ancestor(anc: "adam", des: D)` and
//! `ancestor(anc: "cain", des: D)` differ only in a constant, yet the magic
//! rewrite, the flow analysis and the compiler read only the goal's shape.
//! [`LiftedGoal::lift`] moves every constant of a predicate argument into
//! a leading literal over a one-row association `@goal`, whose columns
//! `c0, c1, …` take the declared types of the arguments they replace:
//!
//! ```text
//! goal ancestor(anc: "adam", des: D)?
//!   shape  @goal(c0: @c0), ancestor(anc: @c0, des: D)
//!   row    (c0: "adam")
//! ```
//!
//! The relation and its variables are `@`-named, so they cannot collide
//! with user names: the lexer rejects `@`. [`PreparedGoal::prepare`] runs
//! `plan_goal`, the flow analysis and the compiler on the shape once; each
//! run binds the row and executes the plan, and the goal as written is
//! answered over the result. The magic seed `@magic_ancestor(anc: "adam")
//! <- .` thus becomes `@magic_ancestor(anc: @c0) <- @goal(c0: @c0).`
//!
//! The flow seed of `@goal` is one row whose columns are ⊤ of their types
//! ([`seed_parameter`]), never the constants of one run: a plan that flow
//! pruned for one constant would answer the next one wrongly. The compiled
//! program is a pure function of the schema, the rules, the semantics and
//! the flow seeds, so a prepared goal stays valid while they do. A caller
//! that keeps one across changes to the EDB calls
//! [`PreparedGoal::refresh`], which recompiles only when the seeds changed.
//!
//! Both routes read the same plan. The compiled route binds the row in
//! [`run_compiled`](crate::run_compiled)'s environment, beside the EDB it
//! reads in place. The interpreter route (compiled path off, provenance on,
//! or a program outside the fragment) evaluates over a clone of the EDB
//! with the row inserted, so its `eval_start` counts that row; the row is
//! taken out of the instance it returns.

use std::borrow::Cow;
use std::collections::BTreeMap;

use algres::Relation;
use logres_lang::analyze::{
    infer, plan_goal, seed_parameter, seeds_from_instance, MagicRewrite, PredSummary,
};
use logres_lang::{Atom, BodyLiteral, Goal, PredArg, RuleSet, Term};
use logres_model::{Field, Instance, Schema, Sym, TypeDesc, Value};

use crate::error::EngineError;
use crate::explain::render_route;
use crate::goal::answer_goal;
use crate::inflationary::{EvalOptions, EvalReport};
use crate::magic::AnswerRows;
use crate::plan::{
    compile_program_for, compile_program_with, route, run_compiled_with, CompileUnsupported,
    CompiledProgram,
};
use crate::stratified::{interpret, Semantics};
use crate::trace::note_fallback;

/// The parameter relation of a lifted goal.
fn goal_relation() -> Sym {
    Sym::new("@goal")
}

/// A goal with the constants of its predicate arguments lifted out.
#[derive(Debug)]
pub struct LiftedGoal<'g> {
    goal: &'g Goal,
    shape: Goal,
    columns: Vec<Field>,
    row: Option<Value>,
}

impl<'g> LiftedGoal<'g> {
    /// Lift every constant argument `label: k` of a predicate literal whose
    /// declared type has `label` into column `cI` of `@goal`, and lead the
    /// goal with `@goal(c0: @c0, …)`. A goal without such constants is its
    /// own shape, with no `@goal` literal.
    pub fn lift(schema: &Schema, goal: &'g Goal) -> LiftedGoal<'g> {
        let mut shape = goal.clone();
        let mut columns = Vec::new();
        let mut row = Vec::new();
        if schema.kind(goal_relation()).is_none() {
            for lit in &mut shape.body {
                let Atom::Pred { pred, args, .. } = &mut lit.atom else {
                    continue;
                };
                let fields = schema.attributes(*pred).unwrap_or_default();
                for arg in args {
                    let PredArg::Labeled(label, Term::Const(k)) = arg else {
                        continue;
                    };
                    let Some(field) = fields.iter().find(|f| f.label == *label) else {
                        continue;
                    };
                    let col = Sym::new(&format!("c{}", columns.len()));
                    row.push((col, k.clone()));
                    columns.push(Field {
                        label: col,
                        ty: field.ty.clone(),
                    });
                    *arg = PredArg::Labeled(field.label, Term::Var(param_var(col)));
                }
            }
        }
        if !columns.is_empty() {
            let args = columns
                .iter()
                .map(|c| PredArg::Labeled(c.label, Term::Var(param_var(c.label))))
                .collect();
            let atom = Atom::Pred {
                pred: goal_relation(),
                args,
                span: goal.span,
            };
            shape.body.insert(
                0,
                BodyLiteral {
                    atom,
                    negated: false,
                },
            );
        }
        LiftedGoal {
            goal,
            shape,
            columns,
            row: (!row.is_empty()).then(|| Value::tuple(row)),
        }
    }
}

/// The variable that carries column `col` of `@goal`.
fn param_var(col: Sym) -> Sym {
    Sym::new(&format!("@{col}"))
}

/// A goal planned once for its shape: the magic rewrite of the lifted
/// goal, the flow seeds it was compiled from and the compiled program —
/// or the decision that the goal falls back to full evaluation.
#[derive(Debug, Clone)]
pub struct PreparedGoal {
    shape: Goal,
    semantics: Semantics,
    demand: Option<Demand>,
}

/// The demand-driven plan of a prepared goal.
#[derive(Debug, Clone)]
struct Demand {
    /// The rewrite of the lifted goal, over the schema extended with
    /// `@goal` (when anything was lifted) and the `@magic_*` relations.
    rewrite: MagicRewrite,
    /// Whether the rewrite reads the `@goal` parameter relation.
    lifted: bool,
    /// The flow seeds `compiled` was inferred from.
    seeds: BTreeMap<Sym, PredSummary>,
    compiled: Result<CompiledProgram, CompileUnsupported>,
}

/// The flow seeds of a rewrite over `edb`: its stored extensions, and
/// `@goal`, when the rewrite reads it, as a parameter relation.
fn seeds_over(rw: &MagicRewrite, lifted: bool, edb: &Instance) -> BTreeMap<Sym, PredSummary> {
    let mut seeds = seeds_from_instance(&rw.schema, edb);
    if lifted {
        seeds.insert(goal_relation(), seed_parameter(&rw.schema, goal_relation()));
    }
    seeds
}

/// The rewrite lowered with the flow summaries its seeds imply.
fn compile(
    rw: &MagicRewrite,
    seeds: &BTreeMap<Sym, PredSummary>,
    semantics: Semantics,
) -> Result<CompiledProgram, CompileUnsupported> {
    let flow = infer(&rw.schema, &rw.rules, seeds);
    compile_program_with(&rw.schema, &rw.rules, semantics, Some(&flow))
}

impl PreparedGoal {
    /// Plan `lifted`'s shape against `(schema, rules)`, and compile the
    /// rewrite with the flow summaries of `edb`. Nothing is evaluated.
    pub fn prepare(
        schema: &Schema,
        rules: &RuleSet,
        edb: &Instance,
        lifted: &LiftedGoal<'_>,
        semantics: Semantics,
    ) -> PreparedGoal {
        let lifting = !lifted.columns.is_empty();
        let plan = if lifting {
            let mut schema = schema.clone();
            schema
                .add_assoc(goal_relation(), TypeDesc::Tuple(lifted.columns.clone()))
                .expect("lifting checked that `@goal` is undeclared");
            plan_goal(&schema, rules, &lifted.shape)
        } else {
            plan_goal(schema, rules, &lifted.shape)
        };
        let demand = plan.rewrite.map(|rewrite| {
            let seeds = seeds_over(&rewrite, lifting, edb);
            let compiled = compile(&rewrite, &seeds, semantics);
            Demand {
                rewrite,
                lifted: lifting,
                seeds,
                compiled,
            }
        });
        PreparedGoal {
            shape: lifted.shape.clone(),
            semantics,
            demand,
        }
    }

    /// Was this goal prepared for `lifted`'s shape under `semantics`? The
    /// shapes compare structurally: source spans play no part.
    pub fn is_for(&self, lifted: &LiftedGoal<'_>, semantics: Semantics) -> bool {
        self.semantics == semantics
            && self.shape.body == lifted.shape.body
            && self.shape.vars == lifted.shape.vars
    }

    /// Does the goal run demand-driven? `false` when its plan fell back,
    /// and the caller evaluates the whole program.
    pub fn rewrites(&self) -> bool {
        self.demand.is_some()
    }

    /// Bring the plan up to date with `edb`, which may differ from the EDB
    /// it was compiled for: recompute the flow seeds and, only if they
    /// changed, infer and compile again. Returns whether the plan was
    /// kept. The schema and the rules must be the ones it was prepared
    /// against.
    pub fn refresh(&mut self, edb: &Instance) -> bool {
        let semantics = self.semantics;
        let Some(demand) = &mut self.demand else {
            return true;
        };
        let seeds = seeds_over(&demand.rewrite, demand.lifted, edb);
        if seeds == demand.seeds {
            return true;
        }
        demand.compiled = compile(&demand.rewrite, &seeds, semantics);
        demand.seeds = seeds;
        false
    }

    /// Run the plan over `edb` with `lifted`'s constants bound: the
    /// demanded part of the model, or `Ok(None)` when the goal falls back
    /// and the caller must evaluate the whole program. Each run records
    /// the `logres_magic_*` counters and any compile fallback, exactly as a
    /// goal planned afresh does.
    pub fn evaluate(
        &self,
        edb: &Instance,
        lifted: &LiftedGoal<'_>,
        opts: &EvalOptions,
    ) -> Result<Option<(Instance, EvalReport)>, EngineError> {
        let Some(demand) = &self.demand else {
            if let Some(m) = &opts.metrics {
                m.counter("logres_magic_fallbacks_total").inc();
            }
            return Ok(None);
        };
        let rw = &demand.rewrite;
        if let Some(m) = &opts.metrics {
            m.counter("logres_magic_rewrites_total").inc();
            m.counter("logres_magic_demand_rules_total")
                .add(rw.demand_rules as u64);
            m.counter("logres_magic_guarded_rules_total")
                .add(rw.guarded_rules as u64);
            m.counter("logres_magic_dropped_rules_total")
                .add(rw.dropped_rules as u64);
        }
        match route(&demand.compiled, opts) {
            Ok(program) => {
                let param = lifted.row.as_ref().map(|row| {
                    let cols = lifted.columns.iter().map(|c| c.label);
                    (goal_relation(), Relation::from_rows(cols, [row.clone()]))
                });
                run_compiled_with(&rw.schema, program, &rw.rules, edb, param, opts).map(Some)
            }
            Err(fallback) => {
                if let Some(u) = fallback {
                    note_fallback(opts, "logres_compile_fallbacks_total", u.reason);
                }
                let mut bound = Cow::Borrowed(edb);
                if let Some(row) = &lifted.row {
                    bound.to_mut().insert_assoc(goal_relation(), row.clone());
                }
                let (mut inst, report) =
                    interpret(&rw.schema, &rw.rules, &bound, self.semantics, opts.clone())?;
                if let Some(row) = &lifted.row {
                    inst.remove_assoc(goal_relation(), row);
                }
                Ok(Some((inst, report)))
            }
        }
    }

    /// [`PreparedGoal::evaluate`], then the goal as written answered over
    /// the demanded part of the model.
    pub fn answer(
        &self,
        schema: &Schema,
        edb: &Instance,
        lifted: &LiftedGoal<'_>,
        opts: &EvalOptions,
    ) -> Result<Option<(AnswerRows, EvalReport)>, EngineError> {
        match self.evaluate(edb, lifted, opts)? {
            Some((inst, report)) => Ok(Some((answer_goal(schema, &inst, lifted.goal)?, report))),
            None => Ok(None),
        }
    }

    /// EXPLAIN of the program a run under `opts` executes: the compiled
    /// rewrite, or — when the goal falls back — `(schema, rules)` lowered
    /// over `edb`; either one's notice instead when the run takes the
    /// interpreter.
    pub fn explain(
        &self,
        schema: &Schema,
        rules: &RuleSet,
        edb: &Instance,
        opts: &EvalOptions,
    ) -> String {
        match &self.demand {
            Some(demand) => render_route(&demand.compiled, &demand.rewrite.rules, opts),
            None => render_route(
                &compile_program_for(schema, rules, edb, self.semantics),
                rules,
                opts,
            ),
        }
    }
}
