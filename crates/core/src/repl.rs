//! An interactive session driver: the "complete programming environment"
//! the paper's §5 plans ("tools supporting the design, debugging, and
//! monitoring of LOGRES databases and programs"), in miniature.
//!
//! [`Repl`] is the testable core; the `logres` binary wraps it around
//! stdin/stdout. Input is line-oriented:
//!
//! * `:commands` act immediately (`:help` lists them);
//! * anything else accumulates into a buffer that is applied as a module
//!   when an empty line arrives — with the current default mode, or RIDI
//!   automatically when the buffer is a pure goal.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use logres_engine::{EngineError, EvalReport, Tracer};
use logres_model::Sym;

use crate::database::Database;
use crate::error::CoreError;
use crate::module::Mode;
use crate::Semantics;

/// Outcome of feeding one line.
#[derive(Debug, PartialEq, Eq)]
pub enum Step {
    /// Text to show the user (possibly empty).
    Output(String),
    /// The session should end.
    Quit,
}

/// Where trace events go, if anywhere (`:trace`).
#[derive(Debug, Clone, PartialEq, Eq)]
enum TraceSetting {
    Off,
    /// In-memory sink, replaced per evaluation so `:trace show` reflects
    /// the latest run only.
    Memory,
    /// JSON lines appended to a file for the rest of the session.
    Json(String),
}

/// An interactive LOGRES session.
pub struct Repl {
    db: Option<Database>,
    mode: Mode,
    buffer: String,
    trace: TraceSetting,
    mem_tracer: Option<Arc<Tracer>>,
    last_report: Option<EvalReport>,
}

impl Default for Repl {
    fn default() -> Self {
        Repl::new()
    }
}

impl Repl {
    /// A session with no database loaded yet.
    pub fn new() -> Repl {
        Repl {
            db: None,
            mode: Mode::Ridv,
            buffer: String::new(),
            trace: TraceSetting::Off,
            mem_tracer: None,
            last_report: None,
        }
    }

    /// Access the underlying database (for tests and embedding).
    pub fn database(&self) -> Option<&Database> {
        self.db.as_ref()
    }

    /// Is multi-line input pending?
    pub fn pending(&self) -> bool {
        !self.buffer.trim().is_empty()
    }

    /// Feed one line of input.
    pub fn feed(&mut self, line: &str) -> Step {
        let trimmed = line.trim();
        if let Some(cmd) = trimmed.strip_prefix(':') {
            return self.command(cmd);
        }
        if trimmed.is_empty() {
            if self.pending() {
                let src = std::mem::take(&mut self.buffer);
                return Step::Output(self.apply(&src));
            }
            return Step::Output(String::new());
        }
        self.buffer.push_str(line);
        self.buffer.push('\n');
        // A goal terminator ends the unit immediately.
        if trimmed.ends_with('?') {
            let src = std::mem::take(&mut self.buffer);
            return Step::Output(self.apply(&src));
        }
        Step::Output(String::new())
    }

    fn command(&mut self, cmd: &str) -> Step {
        let mut parts = cmd.splitn(2, ' ');
        let name = parts.next().unwrap_or_default();
        let arg = parts.next().unwrap_or_default().trim();
        let out = match name {
            "quit" | "q" => return Step::Quit,
            "help" | "h" => HELP.to_owned(),
            "new" => {
                self.db = Some(
                    Database::from_source("")
                        .unwrap_or_else(|_| Database::new(logres_model::Schema::new())),
                );
                self.attach_metrics();
                self.sync_trace_sink();
                "empty database created".to_owned()
            }
            "load" => match std::fs::read_to_string(arg) {
                Ok(text) => match self.load_text(&text) {
                    Ok(msg) => msg,
                    Err(e) => format!("error: {e}"),
                },
                Err(e) => format!("error reading {arg}: {e}"),
            },
            "save" => match &self.db {
                Some(db) => match save_atomically(Path::new(arg), &db.save()) {
                    Ok(()) => format!("state saved to {arg}"),
                    Err(e) => format!("error writing {arg}: {e}"),
                },
                None => "no database loaded".to_owned(),
            },
            "mode" => match arg.to_lowercase().as_str() {
                "ridi" => self.set_mode(Mode::Ridi),
                "radi" => self.set_mode(Mode::Radi),
                "rddi" => self.set_mode(Mode::Rddi),
                "ridv" => self.set_mode(Mode::Ridv),
                "radv" => self.set_mode(Mode::Radv),
                "rddv" => self.set_mode(Mode::Rddv),
                "" => format!("current mode: {:?}", self.mode),
                other => format!("unknown mode `{other}` (ridi/radi/rddi/ridv/radv/rddv)"),
            },
            "semantics" => match (&mut self.db, arg.to_lowercase().as_str()) {
                (Some(db), "inflationary") => {
                    db.set_semantics(Semantics::Inflationary);
                    "semantics: inflationary".to_owned()
                }
                (Some(db), "stratified") => {
                    db.set_semantics(Semantics::Stratified);
                    "semantics: stratified".to_owned()
                }
                (Some(_), other) => {
                    format!("unknown semantics `{other}` (inflationary/stratified)")
                }
                (None, _) => "no database loaded".to_owned(),
            },
            "schema" => match &self.db {
                Some(db) => db.schema().to_string(),
                None => "no database loaded".to_owned(),
            },
            "rules" => match &self.db {
                Some(db) => {
                    if db.rules().is_empty() {
                        "(no persistent rules)".to_owned()
                    } else {
                        db.rules().to_string()
                    }
                }
                None => "no database loaded".to_owned(),
            },
            "facts" => match &self.db {
                Some(db) => facts_of(db, arg),
                None => "no database loaded".to_owned(),
            },
            "check" => match &self.db {
                Some(db) => {
                    // Static diagnostics first (only when there are any, so
                    // a clean database still reports the bare verdict),
                    // then the dynamic consistency report.
                    let mut s = String::new();
                    let mut diags = db.check();
                    diags.extend(db.check_flow());
                    logres_lang::analyze::sort_diagnostics(&mut diags);
                    if !diags.is_empty() {
                        s.push_str(&logres_lang::analyze::render_all_human(&diags, None));
                        s.push('\n');
                    }
                    match db.instance() {
                        Ok((inst, _)) => match db.state().check_consistency(&inst) {
                            Ok(report) if report.is_consistent() => s.push_str("consistent"),
                            Ok(report) => {
                                s.push_str("inconsistent:\n");
                                for v in report.violations {
                                    let _ = writeln!(s, "  {v}");
                                }
                            }
                            Err(e) => {
                                let _ = write!(s, "error: {e}");
                            }
                        },
                        Err(e) => {
                            let _ = write!(s, "error: {e}");
                        }
                    }
                    s
                }
                None => "no database loaded".to_owned(),
            },
            "materialize" => match &mut self.db {
                Some(db) => match db.materialize() {
                    Ok(report) => {
                        let msg = format!(
                            "materialized: {} facts in {} steps",
                            report.facts, report.steps
                        );
                        self.last_report = Some(report);
                        msg
                    }
                    Err(e) => format!("error: {e}"),
                },
                None => "no database loaded".to_owned(),
            },
            "trace" => self.trace_command(arg),
            "profile" => self.profile_command(),
            "deadline" => self.deadline_command(arg),
            "metrics" => match &self.db {
                Some(db) => db.metrics(),
                None => "no database loaded".to_owned(),
            },
            "why" => match &self.db {
                Some(_) if arg.is_empty() => {
                    "usage: :why <fact>   e.g. :why tc(a: 1, b: 3)".to_owned()
                }
                Some(db) => match db.why_source(arg) {
                    Ok(text) => text,
                    Err(e) => format!("error: {e}"),
                },
                None => "no database loaded".to_owned(),
            },
            "explain" => self.explain_command(),
            "explain-plan" => self.explain_plan_command(arg),
            "plan" => match &self.db {
                Some(_) if arg.is_empty() => {
                    "usage: :plan <goal>   e.g. :plan tc(a: 0, b: X)".to_owned()
                }
                Some(db) => {
                    // Accept both a bare goal body and full module source.
                    let src = if arg.contains("goal") {
                        arg.to_owned()
                    } else {
                        format!("goal {}?", arg.trim_end_matches('?'))
                    };
                    match db.query_plan(&src) {
                        Ok(text) => text,
                        Err(e) => format!("error: {e}"),
                    }
                }
                None => "no database loaded".to_owned(),
            },
            other => format!("unknown command `:{other}` (try :help)"),
        };
        Step::Output(out)
    }

    fn set_mode(&mut self, mode: Mode) -> String {
        self.mode = mode;
        format!("mode set to {mode:?}")
    }

    fn trace_command(&mut self, arg: &str) -> String {
        let mut words = arg.split_whitespace();
        match (words.next().unwrap_or_default(), words.next()) {
            ("", None) => match &self.trace {
                TraceSetting::Off => "trace: off".to_owned(),
                TraceSetting::Memory => "trace: on (in memory; :trace show)".to_owned(),
                TraceSetting::Json(path) => format!("trace: json lines to {path}"),
            },
            ("on", None) => {
                self.trace = TraceSetting::Memory;
                self.sync_trace_sink();
                "tracing on (in memory; :trace show after a run)".to_owned()
            }
            ("off", None) => {
                self.trace = TraceSetting::Off;
                self.mem_tracer = None;
                self.sync_trace_sink();
                "tracing off".to_owned()
            }
            ("json", Some(path)) => match std::fs::File::create(path) {
                Ok(file) => {
                    self.trace = TraceSetting::Json(path.to_owned());
                    self.mem_tracer = None;
                    if let Some(db) = &mut self.db {
                        let mut opts = db.options().clone();
                        opts.trace = Some(Tracer::json(file));
                        db.set_options(opts);
                    }
                    format!("tracing as JSON lines to {path}")
                }
                Err(e) => format!("error opening {path}: {e}"),
            },
            ("show", None) => match &self.mem_tracer {
                Some(t) => {
                    let events = t.events();
                    if events.is_empty() {
                        "(no trace events recorded yet)".to_owned()
                    } else {
                        let mut out = String::new();
                        for ev in events {
                            let _ = writeln!(out, "{}", ev.to_json_line());
                        }
                        out
                    }
                }
                None => "tracing is not on (use :trace on first)".to_owned(),
            },
            _ => "usage: :trace [on|off|show|json <file>]".to_owned(),
        }
    }

    /// Give a freshly created database its own metrics registry, so
    /// `:metrics` reflects this session rather than the whole process.
    fn attach_metrics(&mut self) {
        if let Some(db) = &mut self.db {
            db.enable_metrics();
        }
    }

    /// Point the database's trace sink at the current setting. For the
    /// in-memory setting this installs a *fresh* sink, so each evaluation
    /// starts with an empty event list.
    fn sync_trace_sink(&mut self) {
        let Some(db) = &mut self.db else { return };
        let mut opts = db.options().clone();
        opts.trace = match self.trace {
            TraceSetting::Off => None,
            TraceSetting::Memory => {
                let t = Tracer::memory();
                self.mem_tracer = Some(t.clone());
                Some(t)
            }
            // The JSON sink persists across runs; leave it in place.
            TraceSetting::Json(_) => return,
        };
        db.set_options(opts);
    }

    fn profile_command(&self) -> String {
        let Some(report) = &self.last_report else {
            return "no evaluation has run yet".to_owned();
        };
        let mut profiles: Vec<_> = report
            .rule_profiles
            .iter()
            .filter(|p| p.firings > 0 || p.deleted > 0 || p.match_nanos > 0)
            .collect();
        if profiles.is_empty() {
            return "no rule fired in the last evaluation".to_owned();
        }
        profiles.sort_by_key(|p| std::cmp::Reverse(p.match_nanos));
        let mut out = format!(
            "{:>8} {:>8} {:>8} {:>8} {:>10}  rule\n",
            "firings", "derived", "deleted", "invented", "match ms"
        );
        for p in profiles {
            let _ = writeln!(
                out,
                "{:>8} {:>8} {:>8} {:>8} {:>10.3}  {}",
                p.firings,
                p.derived,
                p.deleted,
                p.invented,
                p.match_nanos as f64 / 1.0e6,
                p.rule
            );
        }
        if let Some(rule) = &report.cancelled_in_rule {
            let _ = writeln!(out, "cancelled while matching: {rule}");
        }
        out
    }

    /// `:explain` — a static evaluation plan: the strata rules run in, and
    /// per body literal whether the matcher can probe an index or must
    /// scan. The per-literal plan is a textual-order approximation of the
    /// matcher's greedy scheduling, erring toward scans.
    fn explain_command(&self) -> String {
        let Some(db) = &self.db else {
            return "no database loaded".to_owned();
        };
        let rules = db.rules();
        if rules.is_empty() {
            return "(no persistent rules)".to_owned();
        }
        let mut out = String::new();
        let strata: Vec<Vec<usize>> = match logres_lang::stratify(rules) {
            logres_lang::Stratification::Stratified(s) => s,
            logres_lang::Stratification::Unstratifiable { .. } => {
                let _ = writeln!(out, "unstratifiable: evaluated whole-program inflationary");
                vec![(0..rules.rules.len()).collect()]
            }
        };
        for (i, stratum) in strata.iter().enumerate() {
            let _ = writeln!(out, "stratum {i}:");
            for &idx in stratum {
                let rule = &rules.rules[idx];
                let _ = writeln!(out, "  rule #{idx}: {rule}");
                for (pred, plan) in logres_engine::rule_access_plan(db.schema(), rule) {
                    let _ = writeln!(out, "    {pred}: {plan}");
                }
            }
        }
        out
    }

    /// `:explain-plan [analyze] [goal]` — the compiled ALGRES operator
    /// trees of the program the goal's query evaluates (EXPLAIN; the
    /// demand-rewritten program for a bound goal), or, with `analyze`, the
    /// same trees annotated with per-operator runtime counters from a
    /// profiled evaluation (EXPLAIN ANALYZE). With no goal, the persistent
    /// rules alone are explained (or, for `analyze`, evaluated).
    fn explain_plan_command(&mut self, arg: &str) -> String {
        let Some(db) = &mut self.db else {
            return "no database loaded".to_owned();
        };
        let (analyze, rest) = match arg.strip_prefix("analyze") {
            Some(rest) => (true, rest.trim()),
            None => (false, arg),
        };
        // Accept a bare goal body, full module source, or nothing.
        let src = if rest.is_empty() || rest.contains("goal") {
            rest.to_owned()
        } else {
            format!("goal {}?", rest.trim_end_matches('?'))
        };
        let rendered = if analyze {
            db.explain_analyze_goal(&src)
        } else {
            db.explain_goal(&src)
        };
        match rendered {
            Ok(text) => text,
            Err(e) => format!("error: {e}"),
        }
    }

    fn deadline_command(&mut self, arg: &str) -> String {
        let Some(db) = &mut self.db else {
            return "no database loaded".to_owned();
        };
        match arg {
            "" => match db.options().deadline {
                Some(d) => format!("deadline: {}ms", d.as_millis()),
                None => "deadline: none".to_owned(),
            },
            "off" => {
                let mut opts = db.options().clone();
                opts.deadline = None;
                db.set_options(opts);
                "deadline cleared".to_owned()
            }
            ms => match ms.parse::<u64>() {
                Ok(ms) => {
                    let mut opts = db.options().clone();
                    opts.deadline = Some(Duration::from_millis(ms));
                    db.set_options(opts);
                    format!("deadline set to {ms}ms")
                }
                Err(_) => "usage: :deadline <ms>|off".to_owned(),
            },
        }
    }

    /// Load either a saved state or a bootstrap program.
    fn load_text(&mut self, text: &str) -> Result<String, CoreError> {
        let msg = if text.trim_start().starts_with("%%logres-state") {
            self.db = Some(Database::load(text)?);
            "state restored"
        } else {
            self.db = Some(Database::from_source(text)?);
            "program loaded"
        };
        self.attach_metrics();
        self.sync_trace_sink();
        Ok(msg.to_owned())
    }

    fn apply(&mut self, src: &str) -> String {
        if self.db.is_none() {
            // A schema-bearing first input bootstraps the database.
            return match Database::from_source(src) {
                Ok(db) => {
                    self.db = Some(db);
                    self.attach_metrics();
                    self.sync_trace_sink();
                    "database created".to_owned()
                }
                Err(e) => format!("error: {e}"),
            };
        }
        self.sync_trace_sink();
        let db = self.db.as_mut().expect("checked above");
        let is_goal_only = src
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .all(|l| l.starts_with("goal") || l.ends_with('?') || !l.contains("<-"));
        let goalish = src.contains("goal") && is_goal_only;
        let mode = if goalish { Mode::Ridi } else { self.mode };
        match db.apply_source(src, mode) {
            Ok(outcome) => {
                let mut out = String::new();
                if let Some(rows) = outcome.answer {
                    if rows.is_empty() {
                        out.push_str("(no answers)\n");
                    }
                    for row in rows {
                        let cells: Vec<String> =
                            row.iter().map(|(v, val)| format!("{v} = {val}")).collect();
                        let _ = writeln!(out, "  {}", cells.join(", "));
                    }
                } else {
                    let _ = writeln!(
                        out,
                        "applied ({:?}): {} facts, {} steps",
                        mode, outcome.report.facts, outcome.report.steps
                    );
                }
                self.last_report = Some(outcome.report);
                out
            }
            Err(CoreError::Engine(EngineError::Cancelled { cause, partial })) => {
                let msg = format!(
                    "cancelled: {cause} (partial: {} steps, {} facts; :profile for details)",
                    partial.steps, partial.facts
                );
                self.last_report = Some(*partial);
                msg
            }
            Err(e) => format!("error: {e}"),
        }
    }
}

/// Write `text` to `path` so that a save cut off midway leaves the previous
/// file intact: the text goes to a temp file beside `path`, which is synced
/// to disk and then renamed over `path`. On error the temp file is removed
/// and `path` is left as it was.
fn save_atomically(path: &Path, text: &str) -> std::io::Result<()> {
    let Some(name) = path.file_name() else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "not a file path",
        ));
    };
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(".{}.tmp", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let written = std::fs::File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(text.as_bytes())?;
            f.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return written;
    }
    // Sync the directory too, so the rename itself survives a crash.
    #[cfg(unix)]
    {
        let dir = path
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
            .unwrap_or_else(|| Path::new("."));
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

fn facts_of(db: &Database, pred: &str) -> String {
    let Ok((inst, _)) = db.instance() else {
        return "error computing the instance".to_owned();
    };
    let p = Sym::new(&pred.to_lowercase());
    let mut out = String::new();
    match db.schema().kind(p) {
        Some(logres_model::PredKind::Assoc) => {
            let mut tuples: Vec<_> = inst.tuples_of(p).collect();
            tuples.sort();
            for t in tuples {
                let _ = writeln!(out, "  {p}{t}");
            }
        }
        Some(logres_model::PredKind::Class) => {
            let mut oids: Vec<_> = inst.oids_of(p).collect();
            oids.sort();
            for o in oids {
                if let Some(v) = inst.o_value_in(db.schema(), p, o) {
                    let _ = writeln!(out, "  {p}{v}");
                }
            }
        }
        _ => return format!("unknown predicate `{pred}`"),
    }
    if out.is_empty() {
        out.push_str("  (empty)\n");
    }
    out
}

const HELP: &str = "\
LOGRES interactive session
  :help                 this message
  :quit                 leave
  :load <file>          load a program or a saved state
  :save <file>          save the database state
  :mode [m]             show or set the module application mode
                        (ridi radi rddi ridv radv rddv; default ridv)
  :semantics <s>        inflationary | stratified
  :schema               print the schema
  :rules                print the persistent rules
  :facts <pred>         print a predicate's extension
  :check                static diagnostics (lints L001-L007 plus the
                        flow pass L008-L011) and the dynamic
                        consistency report
  :materialize          make E coincide with the instance I
  :trace [on|off|show|json <file>]
                        structured evaluation tracing (in memory, or as
                        JSON lines to a file)
  :profile              per-rule firing/derivation/invention/timing table
                        for the last evaluation, sorted by match time
                        (partial if the run was cancelled)
  :metrics              Prometheus text exposition of this session's
                        counters, gauges, and histograms
  :why <fact>           derivation chain of a fact in the instance, walked
                        back to its EDB leaves (e.g. :why tc(a: 1, b: 3))
  :explain              static plan: strata, and per body literal whether
                        the matcher probes an index or scans
  :plan <goal>          goal-directed plan: adornments, demand (magic)
                        predicates and the rewritten rules, or why the
                        goal falls back to the full fixpoint
  :explain-plan [analyze] [goal]
                        the compiled ALGRES operator trees the query
                        runs (EXPLAIN); with `analyze`, evaluate with
                        profiling and annotate every operator with rows,
                        builds, probes, memo hits, and wall time
                        (EXPLAIN ANALYZE)
  :deadline <ms>|off    wall-clock budget for evaluations; runs that
                        exceed it stop with a partial report
Anything else is module source: it accumulates until an empty line (or a
line ending in `?`) and is then applied — goals run as RIDI queries.";

#[cfg(test)]
mod tests {
    use super::*;

    fn out(step: Step) -> String {
        match step {
            Step::Output(s) => s,
            Step::Quit => panic!("unexpected quit"),
        }
    }

    fn feed_all(repl: &mut Repl, text: &str) -> String {
        let mut acc = String::new();
        for line in text.lines() {
            acc.push_str(&out(repl.feed(line)));
        }
        acc.push_str(&out(repl.feed("")));
        acc
    }

    #[test]
    fn bootstrap_update_and_query() {
        let mut repl = Repl::new();
        let msg = feed_all(
            &mut repl,
            "associations\n  parent = (par: string, chil: string);",
        );
        assert!(msg.contains("database created"), "{msg}");

        let msg = feed_all(&mut repl, "rules\n  parent(par: \"a\", chil: \"b\") <- .");
        assert!(msg.contains("applied (Ridv)"), "{msg}");

        let msg = out(repl.feed("goal parent(par: X, chil: Y)?"));
        assert!(msg.contains("X = \"a\""), "{msg}");
        assert!(msg.contains("Y = \"b\""), "{msg}");
    }

    #[test]
    fn commands_report_state() {
        let mut repl = Repl::new();
        feed_all(
            &mut repl,
            "associations\n  p = (d: integer);\nfacts\n  p(d: 1).",
        );
        let schema = out(repl.feed(":schema"));
        assert!(schema.contains("p = (d: integer);"), "{schema}");
        let facts = out(repl.feed(":facts p"));
        assert!(facts.contains("p(d: 1)"), "{facts}");
        let check = out(repl.feed(":check"));
        assert_eq!(check, "consistent");
        let mode = out(repl.feed(":mode ridi"));
        assert!(mode.contains("Ridi"));
        assert_eq!(repl.feed(":quit"), Step::Quit);
    }

    #[test]
    fn check_prepends_static_diagnostics() {
        let mut repl = Repl::new();
        feed_all(
            &mut repl,
            "associations\n  src = (d: integer);\n  ghost = (d: integer);\n  \
             out_p = (d: integer);\nfacts\n  src(d: 1).\nrules\n  \
             out_p(d: X) <- src(d: X), ghost(d: X).",
        );
        let check = out(repl.feed(":check"));
        assert!(check.contains("warning[L001]"), "{check}");
        assert!(check.contains("warning[L002]"), "{check}");
        assert!(check.contains("0 errors, 2 warnings"), "{check}");
        // The dynamic consistency verdict still follows.
        assert!(check.ends_with("consistent"), "{check}");
    }

    #[test]
    fn save_and_load_through_files() {
        let dir = std::env::temp_dir().join("logres_repl_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.lgr");
        let path_s = path.to_str().unwrap();

        let mut repl = Repl::new();
        feed_all(
            &mut repl,
            "associations\n  p = (d: integer);\nfacts\n  p(d: 7).",
        );
        let msg = out(repl.feed(&format!(":save {path_s}")));
        assert!(msg.contains("saved"), "{msg}");

        let mut repl2 = Repl::new();
        let msg = out(repl2.feed(&format!(":load {path_s}")));
        assert!(msg.contains("restored"), "{msg}");
        let facts = out(repl2.feed(":facts p"));
        assert!(facts.contains("p(d: 7)"), "{facts}");
        std::fs::remove_file(&path).ok();
    }

    /// A fresh, empty scratch directory for one test.
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn dir_entries(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn save_replaces_an_existing_file_and_leaves_no_temp_file() {
        let dir = scratch_dir("logres_repl_save_replace");
        let path = dir.join("state.lgr");
        std::fs::write(&path, "previous state").unwrap();

        let mut repl = Repl::new();
        feed_all(
            &mut repl,
            "associations\n  p = (d: integer);\nfacts\n  p(d: 7).",
        );
        let msg = out(repl.feed(&format!(":save {}", path.display())));
        assert!(msg.contains("saved"), "{msg}");
        let saved = std::fs::read_to_string(&path).unwrap();
        assert_eq!(saved, repl.database().unwrap().save());
        assert_eq!(dir_entries(&dir), ["state.lgr"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_into_a_missing_directory_reports_an_error_and_creates_nothing() {
        let dir = scratch_dir("logres_repl_save_missing");
        let path = dir.join("missing").join("state.lgr");

        let mut repl = Repl::new();
        feed_all(&mut repl, "associations\n  p = (d: integer);");
        let msg = out(repl.feed(&format!(":save {}", path.display())));
        assert!(msg.starts_with("error writing"), "{msg}");
        assert!(dir_entries(&dir).is_empty(), "{:?}", dir_entries(&dir));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_do_not_kill_the_session() {
        let mut repl = Repl::new();
        feed_all(&mut repl, "associations\n  p = (d: integer);");
        let msg = feed_all(&mut repl, "rules\n  nosuch(x: Y) <- p(d: Y).");
        assert!(msg.contains("error"), "{msg}");
        // Still usable afterwards.
        let msg = feed_all(&mut repl, "rules\n  p(d: 3) <- .");
        assert!(msg.contains("applied"), "{msg}");
    }

    #[test]
    fn unknown_commands_are_reported() {
        let mut repl = Repl::new();
        let msg = out(repl.feed(":frobnicate"));
        assert!(msg.contains("unknown command"));
        let help = out(repl.feed(":help"));
        assert!(help.contains(":materialize"));
        assert!(help.contains(":trace"));
        assert!(help.contains(":deadline"));
    }

    #[test]
    fn trace_and_profile_follow_an_evaluation() {
        let mut repl = Repl::new();
        feed_all(&mut repl, "associations\n  p = (d: integer);");
        let msg = out(repl.feed(":trace on"));
        assert!(msg.contains("tracing on"), "{msg}");

        feed_all(&mut repl, "rules\n  p(d: 1) <- .");
        let shown = out(repl.feed(":trace show"));
        assert!(shown.contains("\"event\":\"eval_start\""), "{shown}");
        assert!(shown.contains("\"event\":\"eval_end\""), "{shown}");

        let profile = out(repl.feed(":profile"));
        assert!(profile.contains("p(d: 1) <- ."), "{profile}");

        // Each run replaces the in-memory sink: show reflects the latest
        // run only (same event count as the first, not accumulated).
        feed_all(&mut repl, "rules\n  p(d: 2) <- .");
        let shown2 = out(repl.feed(":trace show"));
        assert_eq!(
            shown2.matches("\"event\":\"eval_start\"").count(),
            shown.matches("\"event\":\"eval_start\"").count()
        );

        let msg = out(repl.feed(":trace off"));
        assert!(msg.contains("tracing off"), "{msg}");
        let shown3 = out(repl.feed(":trace show"));
        assert!(shown3.contains("not on"), "{shown3}");
    }

    const GENEALOGY: &str = "associations\n  \
        parent = (par: string, chil: string);\n  \
        anc = (a: string, d: string);\n\
        facts\n  \
        parent(par: \"adam\", chil: \"cain\").\n  \
        parent(par: \"cain\", chil: \"enoch\").\n\
        rules\n  \
        anc(a: X, d: Y) <- parent(par: X, chil: Y).\n  \
        anc(a: X, d: Z) <- parent(par: X, chil: Y), anc(a: Y, d: Z).";

    #[test]
    fn metrics_command_renders_the_session_registry() {
        let mut repl = Repl::new();
        feed_all(&mut repl, GENEALOGY);
        out(repl.feed("goal anc(a: X, d: Y)?"));
        let metrics = out(repl.feed(":metrics"));
        assert!(
            metrics.contains("# TYPE logres_eval_steps_total counter"),
            "{metrics}"
        );
        assert!(metrics.contains("logres_firings_total"), "{metrics}");
        assert!(
            metrics.contains("# TYPE logres_step_match_ms histogram"),
            "{metrics}"
        );
    }

    #[test]
    fn why_walks_derivations_and_reports_misses() {
        let mut repl = Repl::new();
        feed_all(&mut repl, GENEALOGY);
        let why = out(repl.feed(":why anc(a: \"adam\", d: \"enoch\")"));
        assert!(why.contains("via rule #"), "{why}");
        assert_eq!(why.matches("[EDB]").count(), 2, "{why}");
        let edb = out(repl.feed(":why parent(par: \"adam\", chil: \"cain\")"));
        assert!(edb.contains("[EDB]"), "{edb}");
        let missing = out(repl.feed(":why anc(a: \"enoch\", d: \"adam\")"));
        assert!(missing.contains("not in the instance"), "{missing}");
        let usage = out(repl.feed(":why"));
        assert!(usage.contains("usage"), "{usage}");
    }

    #[test]
    fn explain_shows_strata_and_access_plans() {
        let mut repl = Repl::new();
        feed_all(&mut repl, GENEALOGY);
        let plan = out(repl.feed(":explain"));
        assert!(plan.contains("stratum 0:"), "{plan}");
        assert!(plan.contains("rule #0:"), "{plan}");
        // The recursive rule binds Y through parent before reaching anc,
        // so at least one literal probes an index while others scan.
        assert!(plan.contains("probe"), "{plan}");
        assert!(plan.contains("scan"), "{plan}");
    }

    #[test]
    fn plan_shows_rewrites_and_fallbacks() {
        let mut repl = Repl::new();
        feed_all(&mut repl, GENEALOGY);
        let plan = out(repl.feed(":plan anc(a: \"adam\", d: X)"));
        assert!(plan.contains("anc[a: bound, d: free]"), "{plan}");
        assert!(plan.contains("@magic_anc"), "{plan}");
        assert!(plan.contains("demand-driven"), "{plan}");
        // A full `goal …?` form works too, and all-free goals explain the
        // fallback.
        let fallback = out(repl.feed(":plan goal anc(a: X, d: Y)?"));
        assert!(fallback.contains("full fixpoint"), "{fallback}");
        let usage = out(repl.feed(":plan"));
        assert!(usage.contains("usage"), "{usage}");
    }

    #[test]
    fn explain_plan_renders_operator_trees_and_analyze_annotates_them() {
        let mut repl = Repl::new();
        feed_all(&mut repl, GENEALOGY);
        // EXPLAIN: the compiled operator trees of the persistent rules.
        let plan = out(repl.feed(":explain-plan"));
        assert!(plan.contains("stratum 0 derives anc"), "{plan}");
        assert!(plan.contains("delta[0]:"), "{plan}");
        assert!(plan.contains("scan @delta_anc"), "{plan}");
        // EXPLAIN ANALYZE: runtime counters per operator, including the
        // driver's materialize step.
        let analyzed = out(repl.feed(":explain-plan analyze anc(a: \"adam\", d: X)"));
        assert!(analyzed.contains("[evals="), "{analyzed}");
        assert!(analyzed.contains("materialize"), "{analyzed}");
        assert!(analyzed.contains("self="), "{analyzed}");
        // The bound goal's joins probe `parent`'s argument index instead of
        // hashing it: the access path shows, and no table is built.
        let indexed = analyzed
            .lines()
            .find(|l| l.contains("join via index parent."))
            .unwrap_or_else(|| panic!("no index join in {analyzed}"));
        assert!(indexed.contains("builds=0"), "{indexed}");
        let help = out(repl.feed(":help"));
        assert!(help.contains(":explain-plan"), "{help}");
    }

    #[test]
    fn profile_covers_compiled_path_evaluations() {
        let mut repl = Repl::new();
        feed_all(&mut repl, GENEALOGY);
        // This goal runs on the compiled path (positive, function-free
        // fragment); :profile must still show per-rule rows.
        out(repl.feed("goal anc(a: X, d: Y)?"));
        let profile = out(repl.feed(":profile"));
        assert!(profile.contains("anc(a: X, d: Y) <- "), "{profile}");
        assert!(profile.contains("firings"), "{profile}");
    }

    #[test]
    fn a_goal_line_after_a_maintained_update_reads_the_view() {
        let mut repl = Repl::new();
        feed_all(&mut repl, GENEALOGY);
        let msg = feed_all(
            &mut repl,
            "rules\n  parent(par: \"enoch\", chil: \"irad\") <- .",
        );
        assert!(msg.contains("applied (Ridv)"), "{msg}");
        let plan = out(repl.feed(":explain-plan anc(a: \"adam\", d: X)"));
        assert!(
            plan.starts_with("answered from the maintained view"),
            "{plan}"
        );
        let goal = "goal anc(a: \"adam\", d: X)?";
        let rows = out(repl.feed(goal));
        assert_eq!(
            out(repl.feed(":profile")),
            "no rule fired in the last evaluation"
        );
        let metrics = out(repl.feed(":metrics"));
        assert!(metrics.contains("logres_view_answers_total 1"), "{metrics}");
        // A fresh session over the same state, with no view, agrees.
        let state = repl.database().expect("loaded").state().clone();
        let mut fresh = Repl {
            db: Some(Database::from_state(state)),
            ..Repl::new()
        };
        assert_eq!(rows, out(fresh.feed(goal)));
        assert_eq!(rows.lines().count(), 3, "{rows}");
    }

    #[test]
    fn profile_reports_invented_oids() {
        let mut repl = Repl::new();
        feed_all(&mut repl, "classes\n  c = (n: integer);");
        feed_all(&mut repl, "rules\n  c(self: X, n: 0) <- .");
        let profile = out(repl.feed(":profile"));
        assert!(profile.contains("invented"), "{profile}");
        let row = profile
            .lines()
            .find(|l| l.contains("c(self: X, n: 0)"))
            .expect("rule row present");
        // firings derived deleted invented — one oid invented.
        assert!(row.split_whitespace().nth(3) == Some("1"), "{row}");
    }

    #[test]
    fn deadline_cancellation_reports_partially() {
        let mut repl = Repl::new();
        feed_all(&mut repl, "classes\n  c = (n: integer);");
        let msg = out(repl.feed(":deadline 30"));
        assert!(msg.contains("30ms"), "{msg}");

        // A diverging ruleset: every step invents a fresh oid.
        let msg = feed_all(
            &mut repl,
            "rules\n  c(self: X, n: 0) <- .\n  c(self: X, n: N) <- c(n: M), N = M + 1.",
        );
        assert!(msg.contains("cancelled"), "{msg}");
        assert!(msg.contains("deadline of 30ms"), "{msg}");

        let profile = out(repl.feed(":profile"));
        assert!(profile.contains("c(self: X, n: N)"), "{profile}");

        let msg = out(repl.feed(":deadline off"));
        assert!(msg.contains("cleared"), "{msg}");
    }
}
