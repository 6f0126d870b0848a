//! The LOGRES benchmark: three seeded closed-loop workloads driven through
//! the public `logres` API by one client, engine `threads = 1`.
//!
//! ```text
//! logres-perfbench --workload <point-query|update-stream|bulk-derive>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures end to end: it prints every metric by name, unit
//! and sample count, then one JSON line with the metrics `BENCHMARK.json`
//! gates. Its latencies are scaled to a fixed host speed ([`host`]).
//! `--trace 1` replays the same op stream twice per op, once through
//! `Database` and once decomposed into per-layer calls ([`replay`]); it
//! checks the two agree and prints the per-layer metrics. Every answer is
//! checked against the BFS oracle in [`gen`] in both modes.

mod gen;
mod host;
mod replay;

use std::collections::{BTreeSet, VecDeque};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use logres::engine::{EvalOptions, Semantics};
use logres::{persist, Database, Mode, Rows, Sym, Value};

use gen::{Graph, PointQuery, Rng};
use replay::{Layer, Replay};

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    PointQuery,
    UpdateStream,
    BulkDerive,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "point-query" => Some(Workload::PointQuery),
            "update-stream" => Some(Workload::UpdateStream),
            "bulk-derive" => Some(Workload::BulkDerive),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

// ----- the op stream ----------------------------------------------------------

/// Updates between two `Database::save()` checkpoints.
const CHECKPOINT_EVERY: u64 = 64;
/// Inserted edges a stream keeps pending before it deletes the oldest.
const MAX_PENDING: usize = 8;
/// An end-to-end run sets up at least this many times and for at least this
/// long; `setup_s` is the median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 3.0;
/// Set-up time between two bursts of reference samples, and the samples in
/// a burst.
const SETUP_REF_EVERY_S: f64 = 0.01;
const SETUP_REF_BURST: usize = 3;

enum Op {
    Query(PointQuery),
    Update { text: String, delete: bool },
    Checkpoint,
    Derive,
}

/// The seeded op stream of one workload, with the oracle's graph kept in
/// step: every op is generated against the state all earlier ops leave.
struct Stream {
    workload: Workload,
    rng: Rng,
    graph: Graph,
    base_nodes: usize,
    next_fresh: u32,
    pending: VecDeque<(u32, u32)>,
    slot: u64,
    since_checkpoint: u64,
}

impl Stream {
    fn new(workload: Workload, seed: u64, graph: Graph) -> Stream {
        let base_nodes = graph.node_count();
        Stream {
            workload,
            // Distinct from the generator's stream for the same seed.
            rng: Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1)),
            graph,
            base_nodes,
            next_fresh: base_nodes as u32,
            pending: VecDeque::new(),
            slot: 0,
            since_checkpoint: 0,
        }
    }

    fn next(&mut self) -> Op {
        match self.workload {
            Workload::PointQuery => Op::Query(gen::point_query(
                &mut self.rng,
                &self.graph,
                self.base_nodes,
            )),
            Workload::BulkDerive => Op::Derive,
            Workload::UpdateStream => {
                if self.since_checkpoint == CHECKPOINT_EVERY {
                    self.since_checkpoint = 0;
                    return Op::Checkpoint;
                }
                self.slot += 1;
                if self.slot.is_multiple_of(8) {
                    return Op::Query(gen::point_query(
                        &mut self.rng,
                        &self.graph,
                        self.base_nodes,
                    ));
                }
                self.since_checkpoint += 1;
                // Once the queue is full, deletes and inserts alternate, so
                // every seed runs the same mix of the two update kinds.
                if self.pending.len() >= MAX_PENDING {
                    let (from, to) = self.pending.pop_front().expect("pending is non-empty");
                    self.graph.remove(from, to);
                    Op::Update {
                        text: gen::edge_update(from, to, true),
                        delete: true,
                    }
                } else {
                    let from = self.rng.below(self.base_nodes) as u32;
                    let to = self.next_fresh;
                    self.next_fresh += 1;
                    self.graph.add(from, to);
                    self.pending.push_back((from, to));
                    Op::Update {
                        text: gen::edge_update(from, to, false),
                        delete: false,
                    }
                }
            }
        }
    }
}

// ----- set-up -----------------------------------------------------------------

struct Input {
    text: String,
    graph: Graph,
    /// The oracle's `reach` rows (`bulk-derive` only).
    closure: Vec<(i64, i64)>,
}

fn input(workload: Workload, seed: u64) -> Input {
    match workload {
        Workload::BulkDerive => {
            let graph = gen::digraph(seed);
            Input {
                text: gen::digraph_source(&graph),
                closure: graph.closure(),
                graph,
            }
        }
        _ => {
            let graph = gen::forest(seed);
            Input {
                text: gen::forest_source(&graph),
                closure: Vec::new(),
                graph,
            }
        }
    }
}

fn semantics(workload: Workload) -> Semantics {
    match workload {
        Workload::BulkDerive => Semantics::Stratified,
        _ => Semantics::default(),
    }
}

fn eval_options() -> EvalOptions {
    EvalOptions {
        threads: 1,
        ..EvalOptions::default()
    }
}

/// Input text to a database ready for its first op: load, install the
/// view, and (for `update-stream`) one maintained insert and delete so the
/// lazy `MaterializedView` build happens here rather than in the first op.
fn setup(workload: Workload, text: &str) -> Result<Database, String> {
    let mut db = Database::from_source(text).map_err(|e| format!("load: {e}"))?;
    db.set_semantics(semantics(workload));
    db.set_options(eval_options());
    if workload != Workload::BulkDerive {
        db.apply_source(gen::ANCESTOR_VIEW, Mode::Radi)
            .map_err(|e| format!("view install: {e}"))?;
    }
    if workload == Workload::UpdateStream {
        // An edge to a node id the stream never reaches.
        let (from, to) = (0, u32::MAX);
        for delete in [false, true] {
            db.apply_source(&gen::edge_update(from, to, delete), Mode::Ridv)
                .map_err(|e| format!("warm-up update: {e}"))?;
        }
    }
    Ok(db)
}

// ----- checking ---------------------------------------------------------------

/// Do the rows of a one-variable `ancestor` goal name exactly `expected`?
fn rows_match_nodes(rows: &Rows, expected: &[u32]) -> bool {
    let mut got: Vec<u32> = Vec::with_capacity(rows.len());
    for row in rows {
        match row.as_slice() {
            [(_, Value::Str(s))] => match gen::node_id(s) {
                Some(id) => got.push(id),
                None => return false,
            },
            _ => return false,
        }
    }
    got.sort_unstable();
    got == expected
}

fn rows_match_pairs(rows: &Rows, expected: &[(i64, i64)]) -> bool {
    let mut got: Vec<(i64, i64)> = Vec::with_capacity(rows.len());
    for row in rows {
        match row.as_slice() {
            [(_, Value::Int(a)), (_, Value::Int(b))] => got.push((*a, *b)),
            _ => return false,
        }
    }
    got.sort_unstable();
    got == expected
}

/// Does the stored `parent` extension hold exactly the oracle's edges?
fn edb_matches(db: &Database, graph: &Graph) -> bool {
    let mut got = BTreeSet::new();
    for t in db.edb().tuples_of(Sym::new("parent")) {
        let field = |l: &str| {
            t.field(Sym::new(l))
                .and_then(Value::as_str)
                .and_then(gen::node_id)
        };
        match (field("par"), field("chil")) {
            (Some(a), Some(b)) => got.insert((a, b)),
            _ => return false,
        };
    }
    got == graph.edges()
}

// ----- measurement --------------------------------------------------------------

/// Linear-interpolated quantile `q` of the samples (0 when there are none).
fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What a run reports: the JSON line's fields plus human-readable lines.
struct Report {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Vec<(&'static str, f64, &'static str)>,
    lines: Vec<String>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A latency line with its sample count, flagging a percentile with fewer
/// than ten samples beyond it (below it, for a low percentile).
fn latency_line(name: &str, samples: &[f64], q: f64) -> String {
    let n = samples.len();
    let beyond = (q.min(1.0 - q) * n as f64).floor() as usize;
    let flag = if beyond < 10 {
        ", fewer than 10 samples beyond"
    } else {
        ""
    };
    let value = percentile(samples, q);
    format!("{name:<28} {value:>12.4} ms (n={n}{flag})")
}

fn end_to_end(args: &Args) -> Result<Report, String> {
    let input = input(args.workload, args.seed);
    let mut probe = host::Probe::spawn()?;
    let mut setup_raw: Vec<f64> = Vec::new();
    let mut setup_host: Vec<f64> = Vec::new();
    let mut since_ref = 0.0;
    let mut db = None;
    while setup_raw.len() < SETUP_MIN_REPS || setup_raw.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        drop(db.take());
        let start = Instant::now();
        db = Some(setup(args.workload, &input.text)?);
        let took = start.elapsed().as_secs_f64();
        setup_raw.push(took);
        since_ref += took;
        if since_ref >= SETUP_REF_EVERY_S {
            since_ref = 0.0;
            for _ in 0..SETUP_REF_BURST {
                setup_host.push(probe.sample()?);
            }
        }
    }
    let mut db = db.expect("set up at least once");
    let setup_scale = host::scale(&setup_host);
    let setup_s: Vec<f64> = setup_raw.iter().map(|s| s * setup_scale).collect();

    // Every latency is kept with the index of its op; `host[i]` is the
    // reference sample taken right after op `i`.
    let mut stream = Stream::new(args.workload, args.seed, input.graph);
    let (mut query, mut insert, mut delete, mut checkpoint) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut host: Vec<f64> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let phase = Instant::now();
    while phase.elapsed().as_secs_f64() < args.seconds {
        let at = host.len();
        attempted += 1;
        let ok = match stream.next() {
            Op::Query(q) => {
                let start = Instant::now();
                let rows = db.query(&q.text);
                query.push((at, ms(start)));
                rows.is_ok_and(|r| rows_match_nodes(&r, &q.expected))
            }
            Op::Derive => {
                let start = Instant::now();
                let rows = db.query(gen::REACH_GOAL);
                query.push((at, ms(start)));
                rows.is_ok_and(|r| rows_match_pairs(&r, &input.closure))
            }
            Op::Update {
                text,
                delete: is_delete,
            } => {
                let start = Instant::now();
                let out = db.apply_source(&text, Mode::Ridv);
                if is_delete { &mut delete } else { &mut insert }.push((at, ms(start)));
                out.is_ok()
            }
            Op::Checkpoint => {
                let start = Instant::now();
                let text = black_box(db.save());
                checkpoint.push((at, ms(start)));
                drop(text);
                true
            }
        };
        failed += u64::from(!ok);
        host.push(probe.sample()?);
    }
    // The final state must hold exactly the oracle's edges.
    if args.workload == Workload::UpdateStream && !edb_matches(&db, &stream.graph) {
        failed += 1;
    }

    let scales = host::rolling_scales(&host);
    let raw = |samples: &[(usize, f64)]| samples.iter().map(|&(_, t)| t).collect::<Vec<f64>>();
    let scaled = |samples: &[(usize, f64)]| {
        samples
            .iter()
            .map(|&(i, t)| t * scales[i])
            .collect::<Vec<f64>>()
    };
    let raw_query = raw(&query);
    let raw_update: Vec<f64> = raw(&insert).into_iter().chain(raw(&delete)).collect();
    let busy_s: f64 = raw_query
        .iter()
        .chain(&raw_update)
        .chain(&raw(&checkpoint))
        .sum::<f64>()
        / 1e3;
    let ops_per_s = ratio(attempted as f64, busy_s);
    let raw_op_p10 = match args.workload {
        Workload::UpdateStream => percentile(&raw(&insert), 0.1) + percentile(&raw(&delete), 0.1),
        _ => percentile(&raw_query, 0.1),
    };
    let (query, insert, delete, checkpoint) = (
        scaled(&query),
        scaled(&insert),
        scaled(&delete),
        scaled(&checkpoint),
    );
    let update: Vec<f64> = insert.iter().chain(&delete).copied().collect();
    // Inserts cost several times what deletes do, so any one percentile of
    // all updates describes only one of the two kinds: the defining op of
    // `update-stream` is an edge's whole life, one insert plus one delete.
    let op_p10 = match args.workload {
        Workload::UpdateStream => percentile(&insert, 0.1) + percentile(&delete, 0.1),
        _ => percentile(&query, 0.1),
    };
    let rss = peak_rss_mb();
    let error_rate = ratio(failed as f64, attempted as f64);

    let mut lines = vec![
        format!(
            "{:<28} {:>12.4} s (n={})",
            "setup_s",
            percentile(&setup_s, 0.5),
            setup_s.len()
        ),
        format!(
            "{:<28} {:>12.4} 1/s (n={attempted})",
            "ops_per_s", ops_per_s
        ),
    ];
    let kinds: [(&str, &[f64]); 5] = [
        ("query", &query),
        ("update", &update),
        ("insert", &insert),
        ("delete", &delete),
        ("checkpoint", &checkpoint),
    ];
    for (kind, samples) in kinds.into_iter().filter(|(_, s)| !s.is_empty()) {
        for (p, q) in [(10, 0.1), (50, 0.5), (90, 0.9)] {
            lines.push(latency_line(&format!("{kind}_p{p}_ms"), samples, q));
        }
    }
    if args.workload == Workload::BulkDerive {
        lines.push(format!(
            "{:<28} {:>12.4} s (n={})",
            "derive_s",
            percentile(&query, 0.5) / 1e3,
            query.len()
        ));
    }
    lines.push(format!("{:<28} {:>12.4} ms", "op_p10_ms", op_p10));
    // The unscaled figures and the reference the scaling read.
    lines.push(format!(
        "{:<28} {:>12.4} s",
        "setup_raw_s",
        percentile(&setup_raw, 0.5)
    ));
    lines.push(format!(
        "{:<28} {:>12.4} ms",
        "query_p10_raw_ms",
        percentile(&raw_query, 0.1)
    ));
    lines.push(format!("{:<28} {:>12.4} ms", "op_p10_raw_ms", raw_op_p10));
    lines.push(format!(
        "{:<28} {:>12.4} ms (n={}, nominal {})",
        "setup_host_ref_p50_ms",
        percentile(&setup_host, 0.5),
        setup_host.len(),
        host::NOMINAL_MS
    ));
    for (p, q) in [(10, 0.1), (50, 0.5), (90, 0.9)] {
        lines.push(latency_line(&format!("host_ref_p{p}_ms"), &host, q));
    }
    lines.push(format!("{:<28} {:>12.4} MB", "peak_rss_mb", rss));
    lines.push(format!(
        "{:<28} {:>12.4} ratio (failed {failed} of {attempted})",
        "error_rate", error_rate
    ));

    Ok(Report {
        attempted,
        failed,
        correct: failed == 0,
        metrics: vec![
            ("setup_s", percentile(&setup_s, 0.5), "s"),
            ("query_p10_ms", percentile(&query, 0.1), "ms"),
            ("op_p10_ms", op_p10, "ms"),
            ("peak_rss_mb", rss, "MB"),
        ],
        lines,
    })
}

/// Run `first` and `second` in the given order; return each result with
/// its wall time in nanoseconds.
fn timed_pair<A, B>(
    swap: bool,
    e2e: impl FnOnce() -> A,
    replay: impl FnOnce() -> B,
) -> ((A, u64), (B, u64)) {
    fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        (out, start.elapsed().as_nanos() as u64)
    }
    if swap {
        let b = timed(replay);
        (timed(e2e), b)
    } else {
        let a = timed(e2e);
        (a, timed(replay))
    }
}

fn traced(args: &Args) -> Result<Report, String> {
    let input = input(args.workload, args.seed);
    let mut db = setup(args.workload, &input.text)?;
    let mut replay = Replay::new(db.state().clone(), semantics(args.workload), eval_options());
    let view_build_ms = if args.workload == Workload::UpdateStream {
        replay
            .build_view()
            .map_err(|e| format!("replay view build: {e}"))?
    } else {
        0.0
    };
    // One save/load round trip of the set-up state for every workload.
    let start = Instant::now();
    let saved = persist::save(db.state());
    let mut save_ms = vec![ms(start)];
    let start = Instant::now();
    let loaded = persist::load(&saved).map_err(|e| format!("load of saved state: {e}"))?;
    let load_ms = ms(start);
    if loaded.edb != *db.edb() {
        return Err("fidelity: persist::load(save(state)) differs from the state".to_owned());
    }
    let bytes_per_fact = ratio(saved.len() as f64, db.edb().fact_count() as f64);
    drop((saved, loaded));

    let mut stream = Stream::new(args.workload, args.seed, input.graph);
    let (mut e2e_ns, mut replay_ns) = (0u64, 0u64);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let phase = Instant::now();
    while phase.elapsed().as_secs_f64() < args.seconds {
        let swap = attempted % 2 == 1;
        attempted += 1;
        let op = stream.next();
        let ok = match &op {
            Op::Query(_) | Op::Derive => {
                let text = match &op {
                    Op::Query(q) => q.text.as_str(),
                    _ => gen::REACH_GOAL,
                };
                let ((a, ta), (b, tb)) = timed_pair(swap, || db.query(text), || replay.query(text));
                e2e_ns += ta;
                replay_ns += tb;
                match (&a, &b) {
                    (Ok(x), Ok(y)) if x == y => {}
                    _ => {
                        return Err(format!(
                            "fidelity: `{text}` answered differently by the replay"
                        ))
                    }
                }
                let rows = a.expect("checked above");
                match &op {
                    Op::Query(q) => rows_match_nodes(&rows, &q.expected),
                    _ => rows_match_pairs(&rows, &input.closure),
                }
            }
            Op::Update { text, .. } => {
                let ((a, ta), (b, tb)) = timed_pair(
                    swap,
                    || db.apply_source(text, Mode::Ridv),
                    || replay.apply_ridv(text),
                );
                e2e_ns += ta;
                replay_ns += tb;
                if a.is_ok() != b.is_ok() || db.edb() != replay.edb() {
                    return Err(format!("fidelity: `{}` left different states", text.trim()));
                }
                a.is_ok()
            }
            Op::Checkpoint => {
                let ((a, ta), (b, tb)) = timed_pair(swap, || db.save(), || replay.save());
                e2e_ns += ta;
                replay_ns += tb;
                save_ms.push(tb as f64 / 1e6);
                if a != b {
                    return Err("fidelity: checkpoints differ".to_owned());
                }
                true
            }
        };
        failed += u64::from(!ok);
    }
    if args.workload == Workload::UpdateStream && !edb_matches(&db, &stream.graph) {
        failed += 1;
    }

    let s = &replay.spans;
    let ops = attempted as f64;
    let per_op = |layer: Layer| s.ms(layer) / ops;
    let replay_ms = replay_ns as f64 / 1e6;
    let metrics = vec![
        ("lang.parse.ms", per_op(Layer::Parse), "ms/op"),
        (
            "lang.parse.calls",
            s.calls(Layer::Parse) as f64 / ops,
            "calls/op",
        ),
        ("lang.adorn.ms", per_op(Layer::Adorn), "ms/op"),
        (
            "lang.adorn.rewrite_ratio",
            ratio(s.rewrites as f64, s.plans as f64),
            "ratio",
        ),
        ("lang.flow.ms", per_op(Layer::Flow), "ms/op"),
        ("engine.compile.ms", per_op(Layer::Compile), "ms/op"),
        (
            "engine.compile.fallbacks",
            ratio(s.compile_fallbacks as f64, s.calls(Layer::Compile) as f64),
            "ratio",
        ),
        ("engine.run.ms", per_op(Layer::Run), "ms/op"),
        (
            "engine.run.rounds",
            ratio(s.rounds as f64, s.calls(Layer::Run) as f64),
            "rounds/run",
        ),
        (
            "engine.run.derived_per_firing",
            ratio(s.derived as f64, s.firings as f64),
            "ratio",
        ),
        (
            "algres.rows_scanned_per_answer",
            ratio(s.rows_scanned as f64, s.answer_rows as f64),
            "rows/row",
        ),
        (
            "algres.hash_builds",
            ratio(s.hash_builds as f64, s.compiled_runs as f64),
            "builds/run",
        ),
        (
            "algres.attributed_share",
            ratio(s.attributed_nanos as f64, s.compiled_run_nanos as f64),
            "ratio",
        ),
        ("engine.goal.ms", per_op(Layer::Goal), "ms/op"),
        (
            "engine.goal.rows",
            ratio(s.answer_rows as f64, s.calls(Layer::Goal) as f64),
            "rows/call",
        ),
        ("engine.maintain.ms", per_op(Layer::Maintain), "ms/op"),
        (
            "engine.maintain.added_per_update",
            ratio(s.added as f64, s.updates as f64),
            "facts/update",
        ),
        ("engine.maintain.view_build_ms", view_build_ms, "ms"),
        ("core.state.check.ms", per_op(Layer::Check), "ms/op"),
        ("core.persist.save.ms", percentile(&save_ms, 0.5), "ms"),
        ("core.persist.load.ms", load_ms, "ms"),
        ("core.persist.bytes_per_fact", bytes_per_fact, "bytes/fact"),
        (
            "core.database.unattributed_share",
            ratio(
                (replay_ns - s.total_nanos().min(replay_ns)) as f64,
                replay_ns as f64,
            ),
            "ratio",
        ),
        (
            "trace.overhead_pct",
            (ratio(replay_ns as f64, e2e_ns as f64) - 1.0) * 100.0,
            "%",
        ),
    ];
    let mut lines = vec![format!(
        "traced replay: {attempted} ops, {:.1} ms through Database, {replay_ms:.1} ms replayed",
        e2e_ns as f64 / 1e6
    )];
    lines.extend(
        metrics
            .iter()
            .map(|(n, v, u)| format!("{n:<36} {v:>14.6} {u}")),
    );
    Ok(Report {
        attempted,
        failed,
        correct: failed == 0,
        metrics,
        lines,
    })
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(host::PROBE_FLAG) {
        return host::serve();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("logres-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    match report {
        Ok(r) => {
            for line in &r.lines {
                println!("{line}");
            }
            println!("{}", r.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("logres-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
