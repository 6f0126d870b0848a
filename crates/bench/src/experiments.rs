//! Experiment runners E1–E16 (DESIGN.md §4): each returns a printable
//! [`Table`] whose rows are recorded in EXPERIMENTS.md.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use algres::{AggFun, AlgExpr, CmpOp, Pred as APred, Scalar};
use logres::engine::{
    answer_goal, compile_program, compile_program_with, env_from_instance, evaluate,
    evaluate_inflationary, load_facts, run_compiled, CompiledProgram, EvalOptions, LiftedGoal,
    MetricsRegistry, PreparedGoal,
};
use logres::lang::analyze::{flow_program, infer, render_all_json, seeds_from_instance};
use logres::lang::parse_program;
use logres::model::{integrity, Instance, OidGen, Sym, Value};
use logres::{Database, Mode, Semantics};

use crate::table::{fmt_duration, Table};
use crate::workloads::*;

fn time<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed(), r)
}

/// Best-of-`reps` wall time of each configuration of a comparison, for
/// measurements where a single shot on a shared runner is mostly
/// scheduler noise. Each repetition times every configuration once, in
/// order, so a transient machine stall lands on every variant rather than
/// on one column, and each result is dropped, untimed, before the next run
/// starts, so no variant runs against a heap an earlier one bloated. Only
/// the times come back: check the results untimed first.
fn best_times<C, R, const N: usize>(
    reps: usize,
    configs: &[C; N],
    mut run: impl FnMut(&C) -> R,
) -> [Duration; N] {
    let mut best = [Duration::MAX; N];
    for _ in 0..reps {
        for (slot, config) in best.iter_mut().zip(configs) {
            let (d, result) = time(|| run(config));
            drop(result);
            *slot = (*slot).min(d);
        }
    }
    best
}

static DEADLINE: OnceLock<Duration> = OnceLock::new();
static METRICS: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();

/// Give every experiment evaluation a wall-clock deadline (the `tables`
/// binary's `--deadline-ms` flag). Call once, before running experiments;
/// a tripped deadline aborts the run with [`logres::engine::EngineError::Cancelled`]
/// rather than hanging a sweep.
pub fn set_deadline(d: Duration) {
    let _ = DEADLINE.set(d);
}

/// Record metrics for every experiment evaluation on a shared registry
/// (the `tables` binary's `--metrics` flag). Call once, before running
/// experiments; returns the registry for rendering after the sweep.
pub fn enable_metrics() -> Arc<MetricsRegistry> {
    METRICS
        .get_or_init(|| Arc::new(MetricsRegistry::new()))
        .clone()
}

/// The options experiment evaluations run under: defaults, plus the
/// process-wide deadline when one was set via [`set_deadline`] and the
/// shared registry when [`enable_metrics`] was called.
pub fn bench_opts() -> EvalOptions {
    EvalOptions {
        deadline: DEADLINE.get().copied(),
        metrics: METRICS.get().cloned(),
        ..EvalOptions::default()
    }
}

fn loaded(src: &str) -> (logres::Schema, Instance, logres::lang::RuleSet) {
    let p = parse_program(src).expect("workload parses");
    let mut edb = Instance::new();
    let mut gen = OidGen::new();
    load_facts(&p.schema, &mut edb, &p.facts, &mut gen).expect("workload loads");
    (p.schema, edb, p.rules)
}

/// An experiment runner: regenerates one table.
pub type Runner = fn() -> Table;

/// All experiments by id.
pub fn all() -> Vec<(&'static str, Runner)> {
    vec![
        ("e1", e1_closure as Runner),
        ("e2", e2_powerset),
        ("e3", e3_invention),
        ("e4", e4_modes),
        ("e5", e5_updates),
        ("e6", e6_integrity),
        ("e7", e7_isa),
        ("e8", e8_semantics),
        ("e9", e9_nesting),
        ("e10", e10_football),
        ("e11", e11_governor),
        ("e12", e12_observability),
        ("e13", e13_goal_directed),
        ("e14", e14_compiled_path),
        ("e15", e15_plan_profiling),
        ("e16", e16_flow_analysis),
    ]
}

/// E1 — transitive closure: naive interpreter vs the ALGRES-compiled
/// planner, run with naive and with semi-naive (delta) rounds. Claim (paper
/// §1, §5): the "very liberal" ALGRES closure makes semi-naive evaluation a
/// drop-in; shape: delta rounds win by a factor growing with the recursion
/// depth. The naive-rounds program is the planner's own, with each recursive
/// rule's delta plans replaced by its full plan, so both compiled rows run
/// through the same `run_compiled`. Every row's `tc` size must equal the
/// naive interpreter's.
pub fn e1_closure() -> Table {
    let mut t = Table::new(
        "E1 — transitive closure over chains and random graphs",
        &["workload", "n", "engine", "time", "tc tuples"],
    );
    let opts = bench_opts();
    // `closed_form` skips the naive engines, too slow on long chains, and
    // checks the delta rounds against the chain's closure size instead.
    let mut run = |workload: &str, edges: Vec<(i64, i64)>, closed_form: Option<usize>| {
        let n = edges.len();
        let src = closure_program(&edges);
        let (schema, edb, rules) = loaded(&src);
        let tc = Sym::new("tc");
        let mut rows: Vec<(&str, Duration, usize)> = Vec::new();

        if closed_form.is_none() {
            let (d, (inst, _)) =
                time(|| evaluate_inflationary(&schema, &rules, &edb, opts.clone()).expect("naive"));
            rows.push(("interpreter (naive)", d, inst.assoc_len(tc)));
        }
        let delta = compile_program(&schema, &rules, Semantics::Stratified).expect("compiles");
        let mut programs = Vec::new();
        if closed_form.is_none() {
            programs.push(("compiled (naive rounds)", naive_rounds(&delta)));
        }
        programs.push(("compiled (delta rounds)", delta));
        for (name, program) in &programs {
            let (d, (out, _)) = time(|| {
                run_compiled(&schema, program, &rules, &edb, &opts).expect("compiled runs")
            });
            rows.push((*name, d, out.assoc_len(tc)));
        }

        let want = closed_form.unwrap_or(rows[0].2);
        for (engine, d, len) in rows {
            assert_eq!(
                len, want,
                "{engine} has the wrong closure size on {workload} n={n}"
            );
            t.row(vec![
                workload.into(),
                n.to_string(),
                engine.into(),
                fmt_duration(d),
                len.to_string(),
            ]);
        }
    };
    for n in [32, 64, 128] {
        run("chain", chain_edges(n), None);
    }
    for n in [256, 512] {
        run("chain", chain_edges(n), Some(n * (n + 1) / 2));
    }
    run("random(64 nodes)", random_edges(64, 128, 11), None);
    t
}

/// `program` with naive rounds: every recursive rule runs its full plan each
/// round instead of its semi-naive delta plans.
fn naive_rounds(program: &CompiledProgram) -> CompiledProgram {
    let mut naive = program.clone();
    for step in naive.strata.iter_mut().flat_map(|s| &mut s.steps) {
        if !step.deltas.is_empty() {
            step.deltas = vec![step.full.clone()];
        }
    }
    naive
}

/// E2 — the powerset program (Example 3.3): facts and runtime double with
/// every added element (exponential shape).
pub fn e2_powerset() -> Table {
    let mut t = Table::new(
        "E2 — powerset of {1..n} (Example 3.3)",
        &["n", "subsets", "time", "steps"],
    );
    for n in 4..=8 {
        let (schema, edb, rules) = loaded(&powerset_program(n));
        let (d, (inst, report)) = time(|| {
            evaluate_inflationary(&schema, &rules, &edb, bench_opts()).expect("powerset evaluates")
        });
        t.row(vec![
            n.to_string(),
            inst.assoc_len(Sym::new("power")).to_string(),
            fmt_duration(d),
            report.steps.to_string(),
        ]);
    }
    t
}

/// E3 — oid invention (Example 3.4): the association deduplicates pairs;
/// one IP object is invented per surviving tuple. Sweep the duplicate-name
/// ratio; claim (§2.1): associations give explicit duplicate control.
pub fn e3_invention() -> Table {
    let mut t = Table::new(
        "E3 — interesting pairs: dedup via association + oid invention",
        &["employees", "dup %", "pair tuples", "ip objects", "time"],
    );
    for (n, dup) in [(100, 10), (100, 50), (400, 10), (400, 50), (800, 25)] {
        let (schema, edb, rules) = loaded(&ip_program(n, dup, 42));
        let (d, (inst, _)) = time(|| {
            evaluate_inflationary(&schema, &rules, &edb, bench_opts()).expect("ip evaluates")
        });
        t.row(vec![
            n.to_string(),
            dup.to_string(),
            inst.assoc_len(Sym::new("pair")).to_string(),
            inst.class_len(Sym::new("ip")).to_string(),
            fmt_duration(d),
        ]);
    }
    t
}

/// E4 — the six module application modes on the same module and base
/// database (Section 4.1): cost of the mode, state deltas it leaves behind.
pub fn e4_modes() -> Table {
    let mut t = Table::new(
        "E4 — module application modes (ancestor module, 500-tuple base)",
        &["mode", "time", "rules after", "E tuples after", "answers"],
    );
    let base = parent_database(500);
    for mode in Mode::all() {
        let (mut db, module) = e4_setup(&base, mode);
        let (d, out) = time(|| db.apply(&module, mode).expect("mode applies"));
        let e_count: usize =
            db.edb().assoc_len(Sym::new("parent")) + db.edb().assoc_len(Sym::new("ancestor"));
        t.row(vec![
            format!("{mode:?}").to_uppercase(),
            fmt_duration(d),
            db.rules().len().to_string(),
            e_count.to_string(),
            out.answer
                .map_or_else(|| "—".into(), |a| a.len().to_string()),
        ]);
    }
    t
}

/// How many insert/delete cycles one E5 measurement runs. Each cycle is two
/// module applications (a singleton RIDV insert and the RDDV delete undoing
/// it), so the database returns to its starting state between cycles.
const E5_ROUNDS: usize = 16;

/// E5 — update throughput under the persistent ancestor view: incremental
/// maintenance (counting + Delete-and-Rederive behind RIDV/RDDV) vs full
/// rederivation of the instance on every update. Claim (DESIGN.md §11):
/// maintenance work is proportional to the change — one chain of the forest
/// — so updates/s should hold roughly flat while the full path degrades
/// linearly in n. The incremental path's first update builds the
/// maintained view, a one-time cost proportional to the instance, inside the
/// timed window; the last column, which no floor reads, times the same
/// cycles again with the view built.
pub fn e5_updates() -> Table {
    let mut t = Table::new(
        "E5 — singleton updates under the ancestor view: incremental vs full rederivation",
        &[
            "n",
            "strategy",
            "time",
            "updates/s",
            "E tuples after",
            "speedup",
            "updates/s, view built",
        ],
    );
    let mut speedup_512 = None;
    for n in [128usize, 512, 2_048] {
        let setup = |incremental: bool| -> Database {
            let mut db = Database::from_source(&parent_database(n)).expect("base loads");
            db.set_options(bench_opts());
            db.set_incremental(incremental);
            db.apply_source(ANCESTOR_MODULE, Mode::Radi)
                .expect("view installs");
            db
        };
        // Each cycle prepends a fresh edge to one chain (so the recursive
        // ancestor rules really fire) and then deletes it again.
        let cycle = |db: &mut Database, i: usize| {
            let root = (i % (n / 10).max(1)) * 1000;
            let ins = format!(r#"rules parent(par: "e5x", chil: "p{root}") <- ."#);
            let del = format!(r#"rules -parent(par: "e5x", chil: "p{root}") <- ."#);
            db.apply_source(&ins, Mode::Ridv).expect("insert applies");
            db.apply_source(&del, Mode::Ridv).expect("delete applies");
        };

        let mut inc = setup(true);
        let (d_inc, ()) = time(|| (0..E5_ROUNDS).for_each(|i| cycle(&mut inc, i)));
        let (d_built, ()) = time(|| (0..E5_ROUNDS).for_each(|i| cycle(&mut inc, i)));
        let mut full = setup(false);
        let (d_full, ()) = time(|| (0..E5_ROUNDS).for_each(|i| cycle(&mut full, i)));
        assert_eq!(
            inc.edb(),
            full.edb(),
            "incremental and full paths must agree after the cycles"
        );

        let updates = (2 * E5_ROUNDS) as f64;
        let speedup = d_full.as_secs_f64() / d_inc.as_secs_f64().max(f64::EPSILON);
        if n == 512 {
            speedup_512 = Some(speedup);
        }
        let e_after = inc.edb().assoc_len(Sym::new("parent"));
        t.row(vec![
            n.to_string(),
            "incremental".into(),
            fmt_duration(d_inc),
            format!("{:.0}", updates / d_inc.as_secs_f64().max(f64::EPSILON)),
            e_after.to_string(),
            format!("{speedup:.1}x"),
            format!("{:.0}", updates / d_built.as_secs_f64().max(f64::EPSILON)),
        ]);
        t.row(vec![
            n.to_string(),
            "full rederive".into(),
            fmt_duration(d_full),
            format!("{:.0}", updates / d_full.as_secs_f64().max(f64::EPSILON)),
            full.edb().assoc_len(Sym::new("parent")).to_string(),
            "—".into(),
            "—".into(),
        ]);
    }

    if let Ok(min) = std::env::var("LOGRES_E5_MIN_SPEEDUP") {
        let min: f64 = min.parse().expect("LOGRES_E5_MIN_SPEEDUP is a factor");
        let got = speedup_512.expect("n=512 rows ran");
        assert!(
            got >= min,
            "n=512 incremental speedup {got:.1}x is below LOGRES_E5_MIN_SPEEDUP={min}x"
        );
    }
    t
}

/// E6 — cost of the referential integrity constraints generated from type
/// equations (§2.1): insertion throughput with and without checking, with
/// a swept share of dangling references.
pub fn e6_integrity() -> Table {
    let mut t = Table::new(
        "E6 — generated referential integrity: checking cost and violations",
        &[
            "fixtures",
            "dangling %",
            "insert",
            "insert + check",
            "violations",
        ],
    );
    let schema = e6_schema();
    let constraints = integrity::generate(&schema);
    let teams = 64u64;

    for (n, dangling_pct) in [(2_000usize, 0usize), (2_000, 5), (8_000, 0), (8_000, 5)] {
        let mut base = Instance::new();
        for o in 0..teams {
            base.insert_object(
                &schema,
                Sym::new("team"),
                logres::Oid(o),
                Value::tuple([("name", Value::str(format!("t{o}")))]),
            );
        }
        let tuples: Vec<Value> = (0..n).map(|i| e6_fixture(i, teams, dangling_pct)).collect();

        let (d_plain, _) = time(|| {
            let mut i = base.clone();
            for tu in &tuples {
                i.insert_assoc(Sym::new("fixture"), tu.clone());
            }
            i
        });
        let (d_checked, violations) = time(|| {
            let mut i = base.clone();
            for tu in &tuples {
                i.insert_assoc(Sym::new("fixture"), tu.clone());
            }
            integrity::check(&schema, &i, &constraints).len()
        });
        t.row(vec![
            n.to_string(),
            dangling_pct.to_string(),
            fmt_duration(d_plain),
            fmt_duration(d_checked),
            violations.to_string(),
        ]);
    }
    t
}

/// E7 — generalization hierarchies: membership propagation π(C) ⊆ π(C′)
/// along isa chains of growing depth, and querying through the top class.
pub fn e7_isa() -> Table {
    let mut t = Table::new(
        "E7 — isa chains: object creation and superclass queries vs depth",
        &[
            "depth",
            "objects",
            "create+propagate",
            "top-class query",
            "π(c0) size",
        ],
    );
    for depth in [2usize, 4, 8, 12] {
        let n = 200;
        let (schema, edb, rules) = loaded(&isa_chain_program(depth, n));
        let (d_create, (inst, _)) = time(|| {
            evaluate_inflationary(&schema, &rules, &edb, bench_opts()).expect("objects create")
        });
        let goal_src = "goal c0(a0: V)?";
        let p = logres::lang::parse_rules(goal_src, &schema).expect("goal parses");
        let goal = p.goal.expect("has goal");
        let (d_query, rows) =
            time(|| logres::engine::answer_goal(&schema, &inst, &goal).expect("query runs"));
        t.row(vec![
            depth.to_string(),
            n.to_string(),
            fmt_duration(d_create),
            fmt_duration(d_query),
            inst.class_len(Sym::new("c0")).to_string(),
        ]);
        assert_eq!(rows.len(), n);
    }
    t
}

/// E8 — semantics parametricity (§3.1, §4.1): the same stratified program
/// under inflationary vs. stratified evaluation. Stratified is the intended
/// (perfect) model; inflationary fires negation eagerly and keeps the
/// extra tuples.
pub fn e8_semantics() -> Table {
    let mut t = Table::new(
        "E8 — inflationary vs stratified on k-strata negation programs",
        &["strata", "facts", "semantics", "time", "final-layer tuples"],
    );
    for k in [2usize, 4, 8] {
        let n = 256;
        let src = strata_program(k, n);
        let (schema, edb, rules) = loaded(&src);
        let last = Sym::new(&format!("l{k}"));
        for (sem, name) in [
            (Semantics::Inflationary, "inflationary"),
            (Semantics::Stratified, "stratified"),
        ] {
            let (d, (inst, _)) = time(|| {
                logres::engine::evaluate(&schema, &rules, &edb, sem, bench_opts())
                    .expect("evaluates")
            });
            t.row(vec![
                k.to_string(),
                n.to_string(),
                name.into(),
                fmt_duration(d),
                inst.assoc_len(last).to_string(),
            ]);
        }
    }
    t
}

/// E9 — building nested relations: data functions (Example 3.2, stratified)
/// vs the ALGRES `nest` operator over a pre-computed closure.
pub fn e9_nesting() -> Table {
    let mut t = Table::new(
        "E9 — nested ANCESTOR: data functions vs ALGRES nest",
        &["chain n", "method", "time", "nested rows"],
    );
    for n in [32usize, 64, 128] {
        // Method A: the paper's data-function program, perfect-model.
        let (schema, edb, rules) = loaded(&genealogy_program(n));
        let (d, (inst, _)) = time(|| {
            logres::engine::evaluate(&schema, &rules, &edb, Semantics::Stratified, bench_opts())
                .expect("genealogy evaluates")
        });
        t.row(vec![
            n.to_string(),
            "data functions".into(),
            fmt_duration(d),
            inst.assoc_len(Sym::new("ancestor")).to_string(),
        ]);

        // Method B: flat closure compiled to ALGRES, then one nest.
        let flat_src = closure_program(&(0..n as i64).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let (schema2, edb2, rules2) = loaded(&flat_src);
        let (d, nested_len) = time(|| {
            let compiled =
                compile_program(&schema2, &rules2, Semantics::Stratified).expect("compiles");
            let (out, _) = run_compiled(&schema2, &compiled, &rules2, &edb2, &bench_opts())
                .expect("closure runs");
            let env = env_from_instance(&schema2, &out);
            let nest = AlgExpr::Nest {
                input: Box::new(AlgExpr::Rel(Sym::new("tc"))),
                cols: vec![Sym::new("b")],
                into: Sym::new("des"),
            };
            algres::eval(&nest, &env).expect("nest runs").len()
        });
        t.row(vec![
            n.to_string(),
            "algres nest".into(),
            fmt_duration(d),
            nested_len.to_string(),
        ]);
    }
    t
}

/// E10 — the football workload (Example 2.1): a mixed query load through
/// the whole stack, plus the selection-pushdown ablation on the algebra.
pub fn e10_football() -> Table {
    let mut t = Table::new(
        "E10 — football league: end-to-end queries and pushdown ablation",
        &["teams", "games", "query", "time", "rows"],
    );
    for teams in [8usize, 12, 16] {
        let src = football_program(teams, 5);
        let schema_part = r#"
            classes
              team = (team_name: string, city: string);
            associations
              game = (h_team: team, g_team: team, day: integer,
                      home_goals: integer, guest_goals: integer);
        "#;
        let mut db = Database::from_source(schema_part).expect("schema loads");
        let rules_at = src.find("rules").expect("rules section");
        db.apply_source(&src[rules_at..], Mode::Ridv)
            .expect("league loads");
        let games = db.edb().assoc_len(Sym::new("game"));

        // Q1 (language): home wins of a specific team, joined back to the
        // class for the name.
        let (d, rows) = time(|| {
            db.query(
                r#"goal game(h_team: H, g_team: G, home_goals: HG, guest_goals: GG),
                        team(self: H, team_name: "t0"),
                        team(self: G, team_name: GN),
                        HG > GG?"#,
            )
            .expect("Q1 runs")
        });
        t.row(vec![
            teams.to_string(),
            games.to_string(),
            "Q1 home wins of t0 (language)".into(),
            fmt_duration(d),
            rows.len().to_string(),
        ]);

        // Q2 (algebra): per-team goal totals via grouped aggregation.
        let (inst, _) = db.instance().expect("instance");
        let env = env_from_instance(db.schema(), &inst);
        let agg = AlgExpr::Aggregate {
            input: Box::new(AlgExpr::Rel(Sym::new("game"))),
            group: vec![Sym::new("h_team")],
            agg: AggFun::Sum,
            on: Sym::new("home_goals"),
            into: Sym::new("total"),
        };
        let (d, rows) = time(|| algres::eval(&agg, &env).expect("Q2 runs").len());
        t.row(vec![
            teams.to_string(),
            games.to_string(),
            "Q2 goals per home team (algebra)".into(),
            fmt_duration(d),
            rows.to_string(),
        ]);

        // Q3 ablation: a selective predicate above a self-join, with and
        // without selection pushdown (catalog-aware, so the conjuncts sink
        // through the renames onto the base relation).
        let join = AlgExpr::Rel(Sym::new("game"))
            .rename("g_team", "mid")
            .rename("day", "day1")
            .rename("home_goals", "hg1")
            .rename("guest_goals", "gg1")
            .join(
                AlgExpr::Rel(Sym::new("game"))
                    .rename("h_team", "mid")
                    .rename("g_team", "far")
                    .rename("day", "day2")
                    .rename("home_goals", "hg2")
                    .rename("guest_goals", "gg2"),
            )
            .select(APred::And(
                Box::new(APred::Cmp(
                    CmpOp::Eq,
                    Scalar::col("day1"),
                    Scalar::Const(Value::Int(1)),
                )),
                Box::new(APred::Cmp(
                    CmpOp::Lt,
                    Scalar::col("day2"),
                    Scalar::Const(Value::Int(games as i64 / 2)),
                )),
            ));
        let (d_plain, n_plain) = time(|| algres::eval(&join, &env).expect("Q3 plain").len());
        let catalog = |name: Sym| env.get(name).map(|r| r.cols().to_vec());
        let optimized = algres::push_selections_with(join, &catalog);
        let (d_opt, n_opt) = time(|| algres::eval(&optimized, &env).expect("Q3 opt").len());
        assert_eq!(n_plain, n_opt);
        t.row(vec![
            teams.to_string(),
            games.to_string(),
            "Q3 2-hop self-join (no pushdown)".into(),
            fmt_duration(d_plain),
            n_plain.to_string(),
        ]);
        t.row(vec![
            teams.to_string(),
            games.to_string(),
            "Q3 2-hop self-join (pushdown)".into(),
            fmt_duration(d_opt),
            n_opt.to_string(),
        ]);
    }
    t
}

/// E11 — the evaluation governor (DESIGN.md §7): deadline and value-budget
/// cancellation over a diverging oid-inventing counter program, and the
/// overhead of running governed when no budget trips.
pub fn e11_governor() -> Table {
    let mut t = Table::new(
        "E11 — governor: cancellation on divergence, overhead when idle",
        &["workload", "budget", "outcome", "steps", "time"],
    );
    let diverging = r#"
        classes
          c = (n: integer);
        rules
          c(self: X, n: 0) <- .
          c(self: X, n: N) <- c(n: M), N = M + 1.
    "#;
    let (schema, edb, rules) = loaded(diverging);
    let mut run = |budget: String, opts: EvalOptions| {
        let (d, res) = time(|| evaluate_inflationary(&schema, &rules, &edb, opts));
        let (outcome, steps) = match res {
            Err(logres::engine::EngineError::Cancelled { cause, partial }) => {
                (cause.to_string(), partial.steps)
            }
            Ok((_, report)) => ("fixpoint".to_owned(), report.steps),
            Err(e) => (e.to_string(), 0),
        };
        t.row(vec![
            "counter (diverging)".into(),
            budget,
            outcome,
            steps.to_string(),
            fmt_duration(d),
        ]);
    };
    for ms in [5u64, 25, 100] {
        run(
            format!("{ms}ms"),
            EvalOptions {
                deadline: Some(Duration::from_millis(ms)),
                ..EvalOptions::default()
            },
        );
    }
    run(
        "2k nodes".to_owned(),
        EvalOptions {
            max_value_nodes: Some(2_000),
            ..EvalOptions::default()
        },
    );

    // Overhead: a terminating closure under a never-tripping deadline must
    // cost the same as an ungoverned run (and produce the same instance).
    let (schema2, edb2, rules2) = loaded(&closure_program(&chain_edges(128)));
    let closure = |opts: EvalOptions| {
        evaluate(&schema2, &rules2, &edb2, Semantics::Inflationary, opts).expect("closure runs")
    };
    let (d_plain, (inst_plain, report)) = time(|| closure(EvalOptions::default()));
    t.row(vec![
        "chain 128 (terminating)".into(),
        "none".into(),
        "fixpoint".into(),
        report.steps.to_string(),
        fmt_duration(d_plain),
    ]);
    let governed = EvalOptions {
        deadline: Some(Duration::from_secs(3_600)),
        max_value_nodes: Some(usize::MAX),
        ..EvalOptions::default()
    };
    let (d_gov, (inst_gov, report)) = time(|| closure(governed));
    assert_eq!(inst_plain, inst_gov, "governed run must not change results");
    t.row(vec![
        "chain 128 (terminating)".into(),
        "1h (never trips)".into(),
        "fixpoint".into(),
        report.steps.to_string(),
        fmt_duration(d_gov),
    ]);
    t
}

/// E12 — observability overhead: the E1 chain-128 closure with metrics
/// off, metrics on, and metrics + provenance on the inflationary
/// interpreter, and with metrics off and on along the production path
/// (`evaluate`, compiled), which has no provenance row because provenance
/// forces the interpreter (DESIGN.md §8). Claim: the pre-resolved atomic
/// counter handles keep the metrics-on, provenance-off overhead small
/// (target < 5% on this workload); provenance recording is the explicitly
/// expensive tier. Setting `LOGRES_E12_MAX_OVERHEAD=<pct>` turns the
/// combined metrics-on overhead into a hard failure (the CI smoke
/// threshold).
pub fn e12_observability() -> Table {
    let mut t = Table::new(
        "E12 — instrumentation overhead on the chain-128 closure",
        &["engine", "variant", "time", "overhead %"],
    );
    let (schema, edb, rules) = loaded(&closure_program(&chain_edges(128)));
    let metrics = || EvalOptions {
        metrics: Some(Arc::new(MetricsRegistry::new())),
        ..bench_opts()
    };
    // (engine, variant, options); each engine's baseline comes first.
    let configs = [
        ("inflationary", "baseline", bench_opts()),
        ("inflationary", "metrics", metrics()),
        (
            "inflationary",
            "metrics + provenance",
            EvalOptions {
                provenance: true,
                ..metrics()
            },
        ),
        ("compiled", "baseline", bench_opts()),
        ("compiled", "metrics", metrics()),
    ];
    let run = |engine: &str, opts: &EvalOptions| {
        let out = if engine == "compiled" {
            evaluate(&schema, &rules, &edb, Semantics::Inflationary, opts.clone())
        } else {
            evaluate_inflationary(&schema, &rules, &edb, opts.clone())
        };
        out.expect("closure runs").0
    };
    // Correctness first, untimed: every configuration produces the
    // interpreter's instance.
    let want = run("inflationary", &bench_opts());
    for (engine, variant, opts) in &configs {
        assert_eq!(
            run(engine, opts),
            want,
            "{engine} {variant} changed results"
        );
    }
    drop(want);
    let best = best_times(7, &configs, |(engine, _, opts)| run(engine, opts));
    let mut base = Duration::ZERO;
    for ((engine, variant, _), d) in configs.iter().zip(best) {
        let overhead = if *variant == "baseline" {
            base = d;
            "—".into()
        } else {
            overhead_pct(base, d)
        };
        t.row(vec![
            (*engine).into(),
            (*variant).into(),
            fmt_duration(d),
            overhead,
        ]);
    }

    if let Ok(max) = std::env::var("LOGRES_E12_MAX_OVERHEAD") {
        let max: f64 = max
            .parse()
            .expect("LOGRES_E12_MAX_OVERHEAD is a percentage");
        let base_total = (best[0] + best[3]).as_secs_f64();
        let metrics_total = (best[1] + best[4]).as_secs_f64();
        let pct = (metrics_total - base_total) / base_total * 100.0;
        assert!(
            pct <= max,
            "metrics-on overhead {pct:.1}% exceeds LOGRES_E12_MAX_OVERHEAD={max}%"
        );
    }
    t
}

/// E13 — goal-directed evaluation: the magic-set rewrite against the full
/// fixpoint on a selective closure query. Claim (DESIGN.md §10): for a goal
/// that binds the source of a transitive closure, demand-driven evaluation
/// touches only the reachable cone, so its advantage grows with the part of
/// the graph the goal never asks about.
pub fn e13_goal_directed() -> Table {
    let mut t = Table::new(
        "E13 — goal-directed (magic-set) vs full fixpoint, selective closure query",
        &[
            "workload",
            "n",
            "strategy",
            "time",
            "tc tuples",
            "answers",
            "speedup",
        ],
    );
    let opts = bench_opts();
    let mut chain_128_speedup = None;

    let mut run = |workload: &str, edges: Vec<(i64, i64)>| {
        let n = edges.len();
        let src = format!("{}\n        goal tc(a: 0, b: X)?", closure_program(&edges));
        let p = parse_program(&src).expect("workload parses");
        let mut edb = Instance::new();
        let mut gen = OidGen::new();
        load_facts(&p.schema, &mut edb, &p.facts, &mut gen).expect("workload loads");
        let goal = p.goal.as_ref().expect("workload has a goal");
        let tc = Sym::new("tc");

        // Full fixpoint: materialize the whole model, then answer the goal.
        // Demand-driven: plan the goal, evaluate only the demanded cone,
        // answer against the partial instance.
        let strategy = |demand: &bool| {
            let inst = if *demand {
                let lifted = LiftedGoal::lift(&p.schema, goal);
                PreparedGoal::prepare(&p.schema, &p.rules, &edb, &lifted, Semantics::Stratified)
                    .evaluate(&edb, &lifted, &opts)
                    .expect("demand evaluation runs")
                    .expect("selective goal rewrites")
                    .0
            } else {
                evaluate(
                    &p.schema,
                    &p.rules,
                    &edb,
                    Semantics::Stratified,
                    opts.clone(),
                )
                .expect("full evaluation runs")
                .0
            };
            let rows = answer_goal(&p.schema, &inst, goal).expect("goal answers");
            (inst, rows)
        };
        // Correctness first, untimed.
        let (full_inst, full_rows) = strategy(&false);
        let (magic_inst, magic_rows) = strategy(&true);
        assert_eq!(
            magic_rows, full_rows,
            "demand-driven answers must match the full fixpoint"
        );
        let (full_tc, magic_tc) = (full_inst.assoc_len(tc), magic_inst.assoc_len(tc));
        drop((full_inst, magic_inst));
        let [d_full, d_magic] = best_times(3, &[false, true], strategy);
        t.row(vec![
            workload.into(),
            n.to_string(),
            "full fixpoint".into(),
            fmt_duration(d_full),
            full_tc.to_string(),
            full_rows.len().to_string(),
            "—".into(),
        ]);
        let speedup = d_full.as_secs_f64() / d_magic.as_secs_f64().max(f64::EPSILON);
        if workload == "chain" && n == 128 {
            chain_128_speedup = Some(speedup);
        }
        t.row(vec![
            workload.into(),
            n.to_string(),
            "magic-set".into(),
            fmt_duration(d_magic),
            magic_tc.to_string(),
            magic_rows.len().to_string(),
            format!("{speedup:.1}x"),
        ]);
    };

    for n in [64usize, 128] {
        run("chain", chain_edges(n));
    }
    for n in [64usize, 128] {
        run("tree", tree_edges(n));
    }

    if let Ok(min) = std::env::var("LOGRES_E13_MIN_SPEEDUP") {
        let min: f64 = min.parse().expect("LOGRES_E13_MIN_SPEEDUP is a factor");
        let got = chain_128_speedup.expect("chain-128 row ran");
        assert!(
            got >= min,
            "chain-128 magic-set speedup {got:.1}x is below LOGRES_E13_MIN_SPEEDUP={min}x"
        );
    }
    t
}

/// E14 — the compiled production path (paper §5's translation-to-ALGRES).
/// The *same* `evaluate` call production makes runs once with
/// `EvalOptions::compiled` on (stratified planner → select–join–project
/// plans with fused emit reshapes, semi-naive delta rounds over a caching
/// evaluator) and once with it off (the tuple-at-a-time interpreter).
/// Claim: set-at-a-time plans win by ≥10× at n≥512
/// (`LOGRES_E14_MIN_SPEEDUP` turns that into a CI floor). Both paths must
/// produce the identical instance.
pub fn e14_compiled_path() -> Table {
    let mut t = Table::new(
        "E14 — compiled ALGRES plans vs interpreted evaluation (chain closure)",
        &["workload", "n", "path", "time", "tc tuples", "speedup"],
    );
    let tc = Sym::new("tc");
    let mut chain_512_speedup = None;
    for n in [64usize, 256, 512] {
        let src = closure_program(&chain_edges(n));
        let (schema, edb, rules) = loaded(&src);
        let interp_opts = EvalOptions {
            compiled: false,
            ..bench_opts()
        };
        // The interpreted row runs once: at n=512 it takes tens of seconds,
        // so its timed run is also the one the compiled instance is checked
        // against.
        let (d_interp, (interp_inst, _)) = time(|| {
            evaluate(&schema, &rules, &edb, Semantics::Inflationary, interp_opts)
                .expect("interpreted path evaluates")
        });
        let compiled = |_: &()| {
            evaluate(&schema, &rules, &edb, Semantics::Inflationary, bench_opts())
                .expect("compiled path evaluates")
                .0
        };
        // Correctness first, untimed.
        let comp_inst = compiled(&());
        assert_eq!(
            comp_inst.fact_count(),
            interp_inst.fact_count(),
            "compiled and interpreted instances must be identical"
        );
        for tuple in interp_inst.tuples_of(tc) {
            assert!(
                comp_inst.has_tuple(tc, tuple),
                "compiled instance is missing {tuple}"
            );
        }
        let (interp_tc, comp_tc) = (interp_inst.assoc_len(tc), comp_inst.assoc_len(tc));
        drop((interp_inst, comp_inst));
        // The n=64 compiled row finishes in single-digit milliseconds; take
        // the best of several runs so it measures the path, not the
        // scheduler.
        let [d_comp] = best_times(if n == 64 { 5 } else { 1 }, &[()], compiled);
        t.row(vec![
            "chain".into(),
            n.to_string(),
            "interpreted".into(),
            fmt_duration(d_interp),
            interp_tc.to_string(),
            "1.0x".into(),
        ]);
        let speedup = d_interp.as_secs_f64() / d_comp.as_secs_f64().max(f64::EPSILON);
        if n == 512 {
            chain_512_speedup = Some(speedup);
        }
        t.row(vec![
            "chain".into(),
            n.to_string(),
            "compiled (ALGRES plans)".into(),
            fmt_duration(d_comp),
            comp_tc.to_string(),
            format!("{speedup:.1}x"),
        ]);
    }

    if let Ok(min) = std::env::var("LOGRES_E14_MIN_SPEEDUP") {
        let min: f64 = min.parse().expect("LOGRES_E14_MIN_SPEEDUP is a factor");
        let got = chain_512_speedup.expect("chain-512 row ran");
        assert!(
            got >= min,
            "chain-512 compiled speedup {got:.1}x is below LOGRES_E14_MIN_SPEEDUP={min}x"
        );
    }
    t
}

/// E15 — EXPLAIN ANALYZE: price the per-operator profiler, then use it
/// (DESIGN.md §13). Part one times the compiled chain-256 closure in three
/// configurations — baseline, metrics-on / profile-off (the production
/// default; `LOGRES_E15_MAX_OVERHEAD=<pct>` turns its overhead into a hard
/// CI ceiling), and profile-on (priced but not gated: profiling is an
/// opt-in diagnostic). Part two points the profiler at the micro chain
/// closure — the workload whose profile attributed ~79% of round time to
/// the per-rule reshape chain and motivated the emit fusion — and ranks
/// operators by self time.
pub fn e15_plan_profiling() -> Table {
    let mut t = Table::new(
        "E15 — EXPLAIN ANALYZE: profiler price, then micro-closure attribution",
        &[
            "section",
            "variant / op",
            "time",
            "overhead / share",
            "detail",
        ],
    );

    // -- Part one: what the instrumentation costs on the compiled path. --
    let (schema, edb, rules) = loaded(&closure_program(&chain_edges(256)));
    let configs = [
        bench_opts(),
        EvalOptions {
            metrics: Some(Arc::new(MetricsRegistry::new())),
            ..bench_opts()
        },
        EvalOptions {
            metrics: Some(Arc::new(MetricsRegistry::new())),
            profile: true,
            ..bench_opts()
        },
    ];
    // Correctness first, untimed: all three configurations produce the
    // same instance.
    let insts: Vec<Instance> = configs
        .iter()
        .map(|opts| {
            evaluate(&schema, &rules, &edb, Semantics::Inflationary, opts.clone())
                .expect("compiled closure runs")
                .0
        })
        .collect();
    assert_eq!(insts[0], insts[1], "metrics must not change results");
    assert_eq!(insts[0], insts[2], "profiling must not change results");
    drop(insts);
    let [d_base, d_m, d_p] = best_times(7, &configs, |opts| {
        evaluate(&schema, &rules, &edb, Semantics::Inflationary, opts.clone())
            .expect("compiled closure runs")
    });
    t.row(vec![
        "price".into(),
        "baseline".into(),
        fmt_duration(d_base),
        "—".into(),
        "chain 256, compiled".into(),
    ]);
    t.row(vec![
        "price".into(),
        "metrics, profile off".into(),
        fmt_duration(d_m),
        overhead_pct(d_base, d_m),
        "production configuration".into(),
    ]);
    t.row(vec![
        "price".into(),
        "metrics + profile".into(),
        fmt_duration(d_p),
        overhead_pct(d_base, d_p),
        "EXPLAIN ANALYZE (opt-in)".into(),
    ]);

    if let Ok(max) = std::env::var("LOGRES_E15_MAX_OVERHEAD") {
        let max: f64 = max
            .parse()
            .expect("LOGRES_E15_MAX_OVERHEAD is a percentage");
        let base_s = d_base.as_secs_f64();
        let pct = (d_m.as_secs_f64() - base_s) / base_s * 100.0;
        assert!(
            pct <= max,
            "profile-off overhead {pct:.1}% exceeds LOGRES_E15_MAX_OVERHEAD={max}%"
        );
    }

    // -- Part two: attribute micro-closure round time to named operators. --
    // This profile is what indicted the per-rule reshape chain (extend /
    // project / rename) and motivated fusing it into the emit operator;
    // it now shows where the fused rounds actually spend their time.
    let n_micro = 48usize;
    let (schema, edb, rules) = loaded(&closure_program(&chain_edges(n_micro)));
    let profiled = EvalOptions {
        profile: true,
        ..bench_opts()
    };
    let (d_comp, (_, report)) = time(|| {
        evaluate(&schema, &rules, &edb, Semantics::Inflationary, profiled)
            .expect("compiled closure runs")
    });
    t.row(vec![
        "micro closure".into(),
        "compiled, profile on".into(),
        fmt_duration(d_comp),
        "—".into(),
        format!("chain {n_micro}"),
    ]);

    let profile = report.plan_profile.expect("compiled run yields a profile");
    let attributed = profile.attributed_nanos().max(1);
    for (op, self_nanos, detail) in op_self_times(&profile) {
        t.row(vec![
            "attribution".into(),
            op,
            fmt_duration(Duration::from_nanos(self_nanos)),
            format!(
                "{:.1}% of attributed",
                self_nanos as f64 / attributed as f64 * 100.0
            ),
            detail,
        ]);
    }
    t.row(vec![
        "attribution".into(),
        "total attributed".into(),
        fmt_duration(Duration::from_nanos(attributed)),
        format!(
            "{:.1}% of wall",
            attributed as f64 / (d_comp.as_nanos() as f64).max(1.0) * 100.0
        ),
        "Σ operator self time".into(),
    ]);
    t
}

/// E16 — the flow analyzer: price the whole-program abstract
/// interpretation, then cash it in on the compiled path (DESIGN.md §14).
/// Part one times `flow_program` over every shipped example module
/// (`LOGRES_E16_MAX_ANALYZER_MS=<ms>` turns the worst case into a hard CI
/// ceiling; the budget is <50 ms so running the pass per evaluation stays
/// in the noise). Part two compiles a dense two-hop workload with and
/// without the analyzer's summaries: flow prunes a statically-empty rule
/// and leads the join with the at-most-one `pick` relation, turning an
/// O(m³) intermediate into O(m²) — results are asserted bit-identical to
/// the no-flow plan and the interpreter first, then both plans are timed
/// interleaved (`LOGRES_E16_MIN_SPEEDUP=<factor>` gates the win).
pub fn e16_flow_analysis() -> Table {
    let mut t = Table::new(
        "E16 — flow analysis: analyzer price, then compiled-path payoff",
        &[
            "section",
            "workload / variant",
            "time",
            "speedup / budget",
            "detail",
        ],
    );

    // -- Part one: what the whole-program analyzer costs. --
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/modules");
    let mut modules: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .expect("examples/modules exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "lgr"))
        .collect();
    modules.sort();
    let mut worst = Duration::ZERO;
    for path in &modules {
        let text = std::fs::read_to_string(path).expect("example module reads");
        let program = parse_program(&text).expect("example module parses");
        // Correctness first, untimed: the fixpoint is deterministic.
        let diags = flow_program(&program);
        assert_eq!(
            render_all_json(&diags),
            render_all_json(&flow_program(&program)),
            "{} analyzes nondeterministically",
            path.display()
        );
        let [best] = best_times(7, &[&program], |program| flow_program(program));
        worst = worst.max(best);
        t.row(vec![
            "analyzer".into(),
            path.file_name().unwrap().to_string_lossy().into_owned(),
            fmt_duration(best),
            "—".into(),
            format!(
                "{} rules, {} flow diagnostics",
                program.rules.rules.len(),
                diags.len()
            ),
        ]);
    }

    // -- Part two: the payoff on the compiled path. --
    // A dense DAG two-hop join: `pick` holds one endpoint, `dead` can
    // never fire. Source order joins e ⋈ e2 first (O(m³) two-hop paths);
    // the flow order leads with the at-most-one `pick`.
    let m = 64i64;
    let mut src = String::from(
        "associations\n  e    = (a: integer, b: integer);\n  e2   = (a: integer, b: integer);\n  pick = (p: integer);\n  hop2 = (a: integer, b: integer);\n  dead = (a: integer, b: integer);\nfacts\n",
    );
    for i in 0..m {
        for j in (i + 1)..m {
            src.push_str(&format!("  e(a: {i}, b: {j}).\n  e2(a: {i}, b: {j}).\n"));
        }
    }
    src.push_str(&format!("  pick(p: {}).\n", m - 1));
    src.push_str(
        "rules\n  hop2(a: X, b: Z) <- e(a: X, b: Y), e2(a: Y, b: Z), pick(p: Z).\n  dead(a: X, b: Z) <- e(a: X, b: Y), e2(a: Y, b: Z), X > 100000.\ngoal hop2(a: A, b: B)?\n",
    );
    let (schema, edb, rules) = loaded(&src);
    let [best_an] = best_times(7, &[&edb], |edb| {
        infer(&schema, &rules, &seeds_from_instance(&schema, edb))
    });
    worst = worst.max(best_an);
    t.row(vec![
        "analyzer".into(),
        format!("dense two-hop, m={m}"),
        fmt_duration(best_an),
        "—".into(),
        format!("{} facts", edb.fact_count()),
    ]);
    if let Ok(max_ms) = std::env::var("LOGRES_E16_MAX_ANALYZER_MS") {
        let max_ms: u64 = max_ms
            .parse()
            .expect("LOGRES_E16_MAX_ANALYZER_MS is a millisecond count");
        assert!(
            worst <= Duration::from_millis(max_ms),
            "worst analyzer time {worst:?} exceeds LOGRES_E16_MAX_ANALYZER_MS={max_ms}"
        );
    }

    let seeds = seeds_from_instance(&schema, &edb);
    let summaries = infer(&schema, &rules, &seeds);
    let noflow =
        compile_program(&schema, &rules, Semantics::Inflationary).expect("workload compiles");
    let flowed = compile_program_with(&schema, &rules, Semantics::Inflationary, Some(&summaries))
        .expect("workload compiles with flow");
    let pruned: usize = flowed.strata.iter().map(|s| s.pruned.len()).sum();
    let reordered = flowed
        .strata
        .iter()
        .flat_map(|s| s.steps.iter())
        .flat_map(|st| st.notes.iter())
        .filter(|n| n.contains("ordered-by-flow"))
        .count();
    assert_eq!(
        pruned, 1,
        "flow must prune the statically-empty `dead` rule"
    );
    assert!(reordered >= 1, "flow must reorder the `hop2` join");

    // Correctness first, untimed: both plans and the interpreter agree.
    let opts = bench_opts();
    let (i_noflow, _) =
        run_compiled(&schema, &noflow, &rules, &edb, &opts).expect("no-flow plan runs");
    let (i_flow, _) = run_compiled(&schema, &flowed, &rules, &edb, &opts).expect("flow plan runs");
    let interp_opts = EvalOptions {
        compiled: false,
        ..bench_opts()
    };
    let (i_interp, _) = evaluate(&schema, &rules, &edb, Semantics::Inflationary, interp_opts)
        .expect("interpreter runs");
    assert_eq!(i_noflow, i_flow, "flow hints must not change results");
    assert_eq!(
        i_flow, i_interp,
        "compiled paths must match the interpreter"
    );
    let hop2 = i_flow.assoc_len(Sym::new("hop2"));
    assert_eq!(
        i_flow.assoc_len(Sym::new("dead")),
        0,
        "the pruned rule is genuinely empty"
    );
    drop((i_noflow, i_flow, i_interp));

    let [d_noflow, d_flow] = best_times(7, &[&noflow, &flowed], |program| {
        run_compiled(&schema, program, &rules, &edb, &opts).expect("compiled plan runs")
    });
    let speedup = d_noflow.as_secs_f64() / d_flow.as_secs_f64().max(f64::EPSILON);
    t.row(vec![
        "compiled".into(),
        "no flow".into(),
        fmt_duration(d_noflow),
        "1.0x".into(),
        format!("dense m={m}, {hop2} hop2 tuples"),
    ]);
    t.row(vec![
        "compiled".into(),
        "with flow".into(),
        fmt_duration(d_flow),
        format!("{speedup:.1}x"),
        format!("{pruned} rule pruned, {reordered} plans reordered"),
    ]);
    if let Ok(min) = std::env::var("LOGRES_E16_MIN_SPEEDUP") {
        let min: f64 = min.parse().expect("LOGRES_E16_MIN_SPEEDUP is a factor");
        assert!(
            speedup >= min,
            "flow speedup {speedup:.2}x below LOGRES_E16_MIN_SPEEDUP={min}"
        );
    }
    t
}

/// Aggregate a [`logres::PlanProfile`] by operator name: total self time
/// descending, with the highest-eval-count detail string as a sample.
fn op_self_times(profile: &logres::PlanProfile) -> Vec<(String, u64, String)> {
    let mut by_op: std::collections::BTreeMap<&str, (u64, u64, &str)> =
        std::collections::BTreeMap::new();
    for rp in &profile.rules {
        for op in &rp.ops {
            let slot = by_op.entry(&op.op).or_insert((0, 0, ""));
            slot.0 += op.self_nanos;
            if op.evals >= slot.1 {
                slot.1 = op.evals;
                slot.2 = &op.detail;
            }
        }
    }
    let mut out: Vec<(String, u64, String)> = by_op
        .into_iter()
        .map(|(op, (self_nanos, _, detail))| (op.to_string(), self_nanos, detail.to_string()))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

fn overhead_pct(base: Duration, variant: Duration) -> String {
    let base_s = base.as_secs_f64();
    if base_s <= 0.0 {
        return "—".into();
    }
    format!("{:+.1}", (variant.as_secs_f64() - base_s) / base_s * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke-run the cheap experiments end to end (the expensive sweeps are
    /// exercised by the `tables` binary).
    #[test]
    fn e2_powerset_shape_is_exponential() {
        let t = e2_powerset();
        // subsets column doubles each row: 16, 32, 64, 128, 256.
        let subsets: Vec<usize> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert_eq!(subsets, vec![16, 32, 64, 128, 256]);
    }

    #[test]
    fn e4_covers_all_six_modes() {
        let t = e4_modes();
        assert_eq!(t.rows.len(), 6);
        // RIDI/RADI report answers; data-variant and deleting rows don't.
        assert_ne!(t.rows[0][4], "—"); // RIDI
        assert_eq!(t.rows[2][4], "—"); // RDDI (no goal: the view is removed)
        assert_eq!(t.rows[3][4], "—"); // RIDV
    }

    #[test]
    fn e5_cycles_return_to_the_base_state() {
        let t = e5_updates();
        // Two strategies per n, and every insert/delete cycle nets out:
        // "E tuples after" is exactly n for every row.
        assert_eq!(t.rows.len(), 6);
        for (row, n) in t.rows.iter().zip([128, 128, 512, 512, 2_048, 2_048]) {
            assert_eq!(row[4], n.to_string(), "{row:?}");
        }
    }

    #[test]
    fn e6_counts_exactly_the_dangling_rows() {
        let t = e6_integrity();
        // 5% of 2000 = 100 dangling; 5% of 8000 = 400.
        assert_eq!(t.rows[1][4], "100");
        assert_eq!(t.rows[3][4], "400");
        assert_eq!(t.rows[0][4], "0");
    }

    #[test]
    fn e11_governor_cancels_divergence_and_idles_cheaply() {
        let t = e11_governor();
        // Three deadline rows + one value-budget row over the diverging
        // counter, then ungoverned/governed rows for the terminating chain.
        assert_eq!(t.rows.len(), 6);
        for row in &t.rows[..3] {
            assert!(row[2].contains("deadline"), "{row:?}");
        }
        assert!(
            t.rows[3][2].contains("value-node budget"),
            "{:?}",
            t.rows[3]
        );
        assert_eq!(t.rows[4][2], "fixpoint");
        assert_eq!(t.rows[5][2], "fixpoint");
        // Cancelled runs still report progress.
        assert!(t.rows[2][3].parse::<usize>().unwrap() > 0);
    }

    #[test]
    fn e12_is_registered_and_overhead_column_formats() {
        assert!(all().iter().any(|(id, _)| *id == "e12"));
        assert_eq!(
            overhead_pct(Duration::from_millis(100), Duration::from_millis(104)),
            "+4.0"
        );
        assert_eq!(overhead_pct(Duration::ZERO, Duration::from_millis(1)), "—");
    }

    #[test]
    fn e15_is_registered_and_attribution_ranks_by_self_time() {
        assert!(all().iter().any(|(id, _)| *id == "e15"));
        let mut profile = logres::PlanProfile::default();
        let op = |name: &str, self_nanos: u64, evals: u64, detail: &str| logres::OpProfile {
            op: name.into(),
            detail: detail.into(),
            self_nanos,
            evals,
            ..logres::OpProfile::default()
        };
        profile.rules.push(logres::RulePlanProfile {
            rule_index: 0,
            rule: "tc(a: X, b: Y) <- e(a: X, b: Y).".into(),
            plan: "full".into(),
            ops: vec![op("join", 10, 1, "first"), op("materialize", 100, 1, "tc")],
        });
        profile.rules.push(logres::RulePlanProfile {
            rule_index: 1,
            rule: "…".into(),
            plan: "delta[0]".into(),
            ops: vec![op("join", 30, 20, "delta"), op("scan", 5, 20, "@delta_tc")],
        });
        let ranked = op_self_times(&profile);
        let names: Vec<&str> = ranked.iter().map(|(op, _, _)| op.as_str()).collect();
        assert_eq!(names, ["materialize", "join", "scan"]);
        // join: 10 + 30 self-nanos, sampled detail from the 20-eval node.
        assert_eq!(ranked[1].1, 40);
        assert_eq!(ranked[1].2, "delta");
    }

    #[test]
    fn e16_analyzes_every_module_and_flow_pays_for_itself() {
        assert!(all().iter().any(|(id, _)| *id == "e16"));
        let t = e16_flow_analysis();
        // One analyzer row per shipped example module plus the dense
        // workload, then the two compiled variants (the runner itself
        // asserts result equality, the prune, and the reorder).
        assert!(
            t.rows.iter().filter(|r| r[0] == "analyzer").count() >= 7,
            "{:?}",
            t.rows
        );
        let compiled: Vec<_> = t.rows.iter().filter(|r| r[0] == "compiled").collect();
        assert_eq!(compiled.len(), 2);
        assert!(compiled[1][4].contains("1 rule pruned"), "{compiled:?}");
    }

    #[test]
    fn e8_stratified_halves_each_layer() {
        let t = e8_semantics();
        // k=2, n=256: perfect model leaves 64 tuples in l2 (two halvings).
        let stratified_row = &t.rows[1];
        assert_eq!(stratified_row[2], "stratified");
        assert_eq!(stratified_row[4], "64");
    }
}
