//! EXPLAIN / EXPLAIN ANALYZE for compiled ALGRES plans.
//!
//! The compiled path (PR 7, [`crate::plan`]) is the production evaluator,
//! but trace events and metrics stop at the rule/step boundary: a slow round
//! is visible, the operator that made it slow is not. This module opens the
//! operator tree up:
//!
//! * **EXPLAIN** — [`render_program`] / [`render_program_json`] print a
//!   compiled program deterministically, one operator per line (indented
//!   text) or one fixed-key-order JSON object per line. The same program
//!   always renders byte-identically, so the output can be golden-pinned.
//! * **EXPLAIN ANALYZE** — [`PlanProfile`] carries the per-operator runtime
//!   counters an [`algres::Evaluator`] accumulates when profiling is on
//!   (rows in/out, hash builds, probes, memo hits, inclusive wall time,
//!   and for each join whether it hashed its right side or probed a stored
//!   association's index), plus a per-plan `materialize` pseudo-operator
//!   for the insert-into-instance loop of `run_compiled` — the step the
//!   evaluator never sees, and the main suspect for the compiled path's
//!   micro-closure overhead (E15).
//!
//! Determinism: the compiled driver is serial in canonical rule order, so
//! every counting field of a [`PlanProfile`] is the same on every run of a
//! program. The two timing fields (`nanos`, `self_nanos`) are exempt;
//! [`PlanProfile::normalized`] zeroes them so profiles can be compared
//! across runs, mirroring `TraceEvent::normalized`.

use algres::{AlgExpr, Evaluator, OpStats};
use logres_lang::RuleSet;
use rustc_hash::FxHashMap;

use crate::inflationary::EvalOptions;
use crate::plan::{CompileUnsupported, CompiledProgram, StratumPlan};

/// Direct children of an operator node, in evaluation order.
fn children(e: &AlgExpr) -> Vec<&AlgExpr> {
    e.children()
}

/// A one-line, deterministic operand summary for an operator node. Binary
/// operators render empty (their children carry the information); scans show
/// the relation name, so `@delta_*` redirections and `@magic_*` guards are
/// visible exactly where they are read.
fn node_detail(e: &AlgExpr) -> String {
    match e {
        AlgExpr::Rel(name) => name.to_string(),
        AlgExpr::Const(rel) => format!("{} rows", rel.len()),
        AlgExpr::Select { pred, .. } => pred.to_string(),
        AlgExpr::Project { cols, .. } => {
            let cols: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
            cols.join(", ")
        }
        AlgExpr::Rename { from, to, .. } => format!("{from} -> {to}"),
        AlgExpr::Extend { col, value, .. } => format!("{col} := {value}"),
        AlgExpr::Emit { pred, cols, .. } => {
            // The fused reshape: every absorbed stage is visible as the
            // output mapping plus the residual filter.
            let cols: Vec<String> = cols.iter().map(|(c, s)| format!("{c} := {s}")).collect();
            let mut detail = cols.join(", ");
            if !matches!(pred, algres::Pred::True) {
                detail.push_str(&format!(" where {pred}"));
            }
            detail
        }
        AlgExpr::Nest { cols, into, .. } => {
            let cols: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
            format!("{} into {into}", cols.join(", "))
        }
        AlgExpr::Unnest { col, .. } => col.to_string(),
        AlgExpr::Aggregate {
            group,
            agg,
            on,
            into,
            ..
        } => {
            let group: Vec<String> = group.iter().map(|c| c.to_string()).collect();
            format!("{agg}({on}) by {} into {into}", group.join(", "))
        }
        AlgExpr::Product { .. }
        | AlgExpr::Join { .. }
        | AlgExpr::Union { .. }
        | AlgExpr::Diff { .. }
        | AlgExpr::Intersect { .. }
        | AlgExpr::SemiJoin { .. }
        | AlgExpr::AntiJoin { .. } => String::new(),
    }
}

/// Pre-order walk: every node with its depth below the plan root.
fn walk<'a>(e: &'a AlgExpr, depth: usize, out: &mut Vec<(&'a AlgExpr, usize)>) {
    out.push((e, depth));
    for c in children(e) {
        walk(c, depth + 1, out);
    }
}

/// One line of plan text: `op detail` at two spaces per depth level.
fn op_line(e: &AlgExpr, depth: usize, indent: usize) -> String {
    let detail = node_detail(e);
    let pad = "  ".repeat(indent + depth);
    if detail.is_empty() {
        format!("{pad}{}", e.op_name())
    } else {
        format!("{pad}{} {detail}", e.op_name())
    }
}

/// JSON string escaping, matching `TraceEvent::to_json_line`.
fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The plans of one compiled step, labeled: the full plan first, then the
/// semi-naive delta variants.
fn step_plans(step: &crate::plan::CompiledStep) -> Vec<(String, &AlgExpr)> {
    let mut plans = vec![("full".to_owned(), &step.full)];
    for (i, d) in step.deltas.iter().enumerate() {
        plans.push((format!("delta[{i}]"), d));
    }
    plans
}

/// Render a compiled program as deterministic indented text: strata in
/// evaluation order, rules in original order, the full plan and every
/// semi-naive delta variant of each rule as an operator tree.
pub fn render_program(program: &CompiledProgram, rules: &RuleSet) -> String {
    let mut out = String::new();
    for (si, splan) in program.strata.iter().enumerate() {
        let idb: Vec<String> = splan.idb.iter().map(|p| p.to_string()).collect();
        out.push_str(&format!("stratum {si} derives {}\n", idb.join(", ")));
        for (ri, reason) in &splan.pruned {
            out.push_str(&format!("  rule #{ri}: {}\n", rules.rules[*ri]));
            out.push_str(&format!("    pruned-by-flow: {reason}\n"));
        }
        for step in &splan.steps {
            out.push_str(&format!(
                "  rule #{}: {}\n",
                step.rule_index, rules.rules[step.rule_index]
            ));
            for note in &step.notes {
                out.push_str(&format!("    {note}\n"));
            }
            for (label, plan) in step_plans(step) {
                out.push_str(&format!("    {label}:\n"));
                let mut nodes = Vec::new();
                walk(plan, 0, &mut nodes);
                for (node, depth) in nodes {
                    out.push_str(&op_line(node, depth, 3));
                    out.push('\n');
                }
            }
        }
    }
    out
}

/// Render a compiled program as JSON lines with a fixed key order: one
/// header object per stratum, one per rule, then one object per operator
/// node (pre-order, with its depth). Byte-identical for the same program,
/// so the output is golden-pinnable and greppable.
pub fn render_program_json(program: &CompiledProgram, rules: &RuleSet) -> String {
    let mut out = String::new();
    for (si, splan) in program.strata.iter().enumerate() {
        let idb: Vec<String> = splan
            .idb
            .iter()
            .map(|p| format!("\"{}\"", esc(&p.to_string())))
            .collect();
        out.push_str(&format!(
            "{{\"stratum\":{si},\"idb\":[{}]}}\n",
            idb.join(",")
        ));
        for (ri, reason) in &splan.pruned {
            out.push_str(&format!(
                "{{\"stratum\":{si},\"rule\":{ri},\"text\":\"{}\",\"pruned_by_flow\":\"{}\"}}\n",
                esc(&rules.rules[*ri].to_string()),
                esc(reason)
            ));
        }
        for step in &splan.steps {
            out.push_str(&format!(
                "{{\"stratum\":{si},\"rule\":{},\"text\":\"{}\"}}\n",
                step.rule_index,
                esc(&rules.rules[step.rule_index].to_string())
            ));
            for note in &step.notes {
                out.push_str(&format!(
                    "{{\"stratum\":{si},\"rule\":{},\"note\":\"{}\"}}\n",
                    step.rule_index,
                    esc(note)
                ));
            }
            for (label, plan) in step_plans(step) {
                let mut nodes = Vec::new();
                walk(plan, 0, &mut nodes);
                for (node, depth) in nodes {
                    out.push_str(&format!(
                        "{{\"stratum\":{si},\"rule\":{},\"plan\":\"{label}\",\"depth\":{depth},\"op\":\"{}\",\"detail\":\"{}\"}}\n",
                        step.rule_index,
                        node.op_name(),
                        esc(&node_detail(node))
                    ));
                }
            }
        }
    }
    out
}

/// EXPLAIN of the program a run under `opts` executes: the operator trees
/// of `program` when the run compiles; otherwise why the interpreter runs
/// it — the compiled path is off, or [`render_unsupported`]'s notice with
/// the reason the fallback counter records (`provenance`, or the
/// lowering's own reason).
pub fn render_route(
    program: &Result<CompiledProgram, CompileUnsupported>,
    rules: &RuleSet,
    opts: &EvalOptions,
) -> String {
    match crate::plan::route(program, opts) {
        Ok(program) => render_program(program, rules),
        Err(Some(u)) => render_unsupported(&u),
        Err(None) => "not compiled: the compiled path is off (EvalOptions::compiled = false)\n\
                      the tuple-at-a-time interpreter evaluates this program\n"
            .to_owned(),
    }
}

/// Render a compile failure the way EXPLAIN surfaces it: the fallback
/// reason label plus the human-readable detail, and which engine will run
/// instead.
pub fn render_unsupported(u: &CompileUnsupported) -> String {
    format!(
        "not compiled ({}): {}\nthe tuple-at-a-time interpreter evaluates this program\n",
        u.reason, u.detail
    )
}

/// One operator node of one compiled plan, annotated with runtime counters.
///
/// All count fields are deterministic (bit-identical on every run);
/// `nanos` (inclusive wall time) and `self_nanos` (inclusive minus
/// the children's inclusive time) are the only timing fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpProfile {
    /// Stable operator name (`AlgExpr::op_name`, or `materialize` for the
    /// driver's insert-into-instance pseudo-operator).
    pub op: String,
    /// Operand summary (relation name, predicate, column list, …).
    pub detail: String,
    /// Depth below the plan root (pre-order; `materialize` sits at 0).
    pub depth: usize,
    /// Times the node was evaluated (one per semi-naive round it ran in).
    pub evals: u64,
    /// Rows produced by the node's direct children, summed over all evals.
    pub rows_in: u64,
    /// Rows the node produced, summed over all evals.
    pub rows_out: u64,
    /// Hash tables built for the node's right side (joins only).
    pub hash_builds: u64,
    /// Probes against the node's hash table (joins only).
    pub probes: u64,
    /// Evaluations answered from the memo.
    pub memo_hits: u64,
    /// How a join, semijoin or antijoin read its right side, decided per
    /// evaluation at run time: `hash` (a hash table, built or cached),
    /// `index <assoc>.<label>` (probes of a stored association's argument
    /// index), both joined by `, ` when evaluations differed, or empty when
    /// every evaluation short-circuited on an empty left side (and for
    /// every other operator).
    pub access: String,
    /// Inclusive wall-clock nanoseconds (timing field).
    pub nanos: u64,
    /// Exclusive wall-clock nanoseconds: inclusive time minus the inclusive
    /// time of the direct children (timing field).
    pub self_nanos: u64,
}

/// The annotated operator list of one plan (full or delta) of one rule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RulePlanProfile {
    /// Index of the rule in the original rule set.
    pub rule_index: usize,
    /// The rule, rendered by its `Display` impl.
    pub rule: String,
    /// Which plan of the rule: `full` or `delta[i]`.
    pub plan: String,
    /// Operator nodes in pre-order, then the `materialize` pseudo-operator.
    pub ops: Vec<OpProfile>,
}

/// Per-operator runtime profile of one compiled evaluation (EXPLAIN
/// ANALYZE), attached to `EvalReport::plan_profile` when
/// `EvalOptions::profile` is on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanProfile {
    /// One entry per (rule, plan) pair, strata in evaluation order.
    pub rules: Vec<RulePlanProfile>,
}

impl PlanProfile {
    /// A copy with every timing field zeroed, leaving only the
    /// deterministic counters — profiles of the same program are then
    /// equal on every run (the `TraceEvent::normalized` discipline).
    pub fn normalized(&self) -> PlanProfile {
        PlanProfile {
            rules: self
                .rules
                .iter()
                .map(|rp| RulePlanProfile {
                    ops: rp
                        .ops
                        .iter()
                        .map(|op| OpProfile {
                            nanos: 0,
                            self_nanos: 0,
                            ..op.clone()
                        })
                        .collect(),
                    ..rp.clone()
                })
                .collect(),
        }
    }

    /// Total exclusive time attributed to named operators, in nanoseconds.
    /// Because exclusive times partition each plan's inclusive time, this is
    /// the share of rule wall time EXPLAIN ANALYZE can name an operator for.
    pub fn attributed_nanos(&self) -> u64 {
        self.rules
            .iter()
            .flat_map(|rp| rp.ops.iter())
            .map(|op| op.self_nanos)
            .sum()
    }

    /// Render as annotated EXPLAIN ANALYZE text: the plan trees of
    /// [`render_program`] with a bracketed stat suffix per operator.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for rp in &self.rules {
            out.push_str(&format!(
                "rule #{} ({}): {}\n",
                rp.rule_index, rp.plan, rp.rule
            ));
            for op in &rp.ops {
                let pad = "  ".repeat(op.depth + 1);
                let mut head = if op.detail.is_empty() {
                    op.op.clone()
                } else {
                    format!("{} {}", op.op, op.detail)
                };
                if !op.access.is_empty() {
                    head.push_str(&format!(" via {}", op.access));
                }
                let mut stats = format!("evals={} rows={}->{}", op.evals, op.rows_in, op.rows_out);
                if op.hash_builds > 0 || op.probes > 0 {
                    stats.push_str(&format!(" builds={} probes={}", op.hash_builds, op.probes));
                }
                if op.memo_hits > 0 {
                    stats.push_str(&format!(" memo={}", op.memo_hits));
                }
                stats.push_str(&format!(
                    " time={:.3}ms self={:.3}ms",
                    op.nanos as f64 / 1.0e6,
                    op.self_nanos as f64 / 1.0e6
                ));
                out.push_str(&format!("{pad}{head}  [{stats}]\n"));
            }
        }
        out
    }

    /// Render as JSON lines with a fixed key order, one object per
    /// operator. `nanos`/`self_nanos` are the only non-deterministic fields.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        for rp in &self.rules {
            for op in &rp.ops {
                out.push_str(&format!(
                    "{{\"rule\":{},\"plan\":\"{}\",\"depth\":{},\"op\":\"{}\",\"detail\":\"{}\",\"access\":\"{}\",\"evals\":{},\"rows_in\":{},\"rows_out\":{},\"hash_builds\":{},\"probes\":{},\"memo_hits\":{},\"nanos\":{},\"self_nanos\":{}}}\n",
                    rp.rule_index,
                    esc(&rp.plan),
                    op.depth,
                    esc(&op.op),
                    esc(&op.detail),
                    esc(&op.access),
                    op.evals,
                    op.rows_in,
                    op.rows_out,
                    op.hash_builds,
                    op.probes,
                    op.memo_hits,
                    op.nanos,
                    op.self_nanos
                ));
            }
        }
        out
    }
}

/// Counters for one plan's materialization loop — the compiled driver's
/// insert of derived rows into the instance, which happens outside the
/// evaluator and therefore outside [`algres::OpStats`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MaterializeStats {
    /// Times the plan's insert loop ran (one per round the plan fired in).
    pub evals: u64,
    /// Rows the plan produced (insert attempts).
    pub rows_in: u64,
    /// Rows that were genuinely new in the instance.
    pub rows_out: u64,
    /// Wall-clock nanoseconds spent inserting (timing field).
    pub nanos: u64,
}

/// [`OpProfile::access`] from a node's counters.
fn access_path(s: &OpStats) -> String {
    let index = s
        .index
        .map(|(assoc, label)| format!("index {assoc}.{label}"));
    match (index, s.hash_evals > 0) {
        (Some(index), true) => format!("{index}, hash"),
        (Some(index), false) => index,
        (None, true) => "hash".to_owned(),
        (None, false) => String::new(),
    }
}

/// Collect one stratum's per-operator profile from its evaluator session.
/// `inserts` is keyed by plan-root node identity, matching the evaluator's
/// own node keying.
pub(crate) fn profile_stratum(
    profile: &mut PlanProfile,
    splan: &StratumPlan,
    rules: &RuleSet,
    ev: &Evaluator<'_>,
    inserts: &FxHashMap<u64, MaterializeStats>,
) {
    for step in &splan.steps {
        for (label, plan) in step_plans(step) {
            let mut nodes = Vec::new();
            walk(plan, 0, &mut nodes);
            let mut ops: Vec<OpProfile> = nodes
                .iter()
                .map(|&(node, depth)| {
                    let s = ev.op_stats_for(node);
                    let child_nanos: u64 = children(node)
                        .into_iter()
                        .map(|c| ev.op_stats_for(c).nanos)
                        .sum();
                    OpProfile {
                        op: node.op_name().to_owned(),
                        detail: node_detail(node),
                        depth,
                        evals: s.evals,
                        rows_in: s.rows_in,
                        rows_out: s.rows_out,
                        hash_builds: s.hash_builds,
                        probes: s.probes,
                        memo_hits: s.memo_hits,
                        access: access_path(&s),
                        nanos: s.nanos,
                        self_nanos: s.nanos.saturating_sub(child_nanos),
                    }
                })
                .collect();
            let m = ev
                .node_id_of(plan)
                .and_then(|id| inserts.get(&id))
                .copied()
                .unwrap_or_default();
            ops.push(OpProfile {
                op: "materialize".to_owned(),
                detail: step.head.to_string(),
                depth: 0,
                evals: m.evals,
                rows_in: m.rows_in,
                rows_out: m.rows_out,
                nanos: m.nanos,
                self_nanos: m.nanos,
                ..OpProfile::default()
            });
            profile.rules.push(RulePlanProfile {
                rule_index: step.rule_index,
                rule: rules.rules[step.rule_index].to_string(),
                plan: label,
                ops,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::compile_program;
    use crate::stratified::Semantics;
    use logres_lang::parse_program;

    const CLOSURE: &str = r#"
        associations
          e  = (a: integer, b: integer);
          tc = (a: integer, b: integer);
        rules
          tc(a: X, b: Y) <- e(a: X, b: Y).
          tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).
    "#;

    #[test]
    fn explain_text_is_deterministic_and_shows_delta_plans() {
        let p = parse_program(CLOSURE).expect("parses");
        let program = compile_program(&p.schema, &p.rules, Semantics::Inflationary).unwrap();
        let a = render_program(&program, &p.rules);
        let b = render_program(&program, &p.rules);
        assert_eq!(a, b, "rendering must be deterministic");
        assert!(a.starts_with("stratum 0 derives"), "{a}");
        assert!(a.contains("rule #1"), "{a}");
        assert!(a.contains("delta[0]:"), "{a}");
        assert!(a.contains("scan @delta_tc"), "{a}");
        assert!(a.contains("join"), "{a}");
    }

    #[test]
    fn explain_json_lines_parse_shape_and_escape() {
        let p = parse_program(CLOSURE).expect("parses");
        let program = compile_program(&p.schema, &p.rules, Semantics::Inflationary).unwrap();
        let json = render_program_json(&program, &p.rules);
        for line in json.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(
            json.contains("\"op\":\"scan\",\"detail\":\"@delta_tc\""),
            "{json}"
        );
        assert!(json.contains("\"plan\":\"full\""), "{json}");
        assert_eq!(esc("a\"b\\c"), "a\\\"b\\\\c");
    }

    #[test]
    fn normalized_zeroes_all_timing_fields_and_only_those() {
        let profile = PlanProfile {
            rules: vec![RulePlanProfile {
                rule_index: 1,
                rule: "r".into(),
                plan: "full".into(),
                ops: vec![OpProfile {
                    op: "join".into(),
                    evals: 3,
                    rows_in: 10,
                    rows_out: 7,
                    hash_builds: 1,
                    probes: 10,
                    memo_hits: 2,
                    nanos: 12345,
                    self_nanos: 999,
                    ..OpProfile::default()
                }],
            }],
        };
        let n = profile.normalized();
        let op = &n.rules[0].ops[0];
        assert_eq!(op.nanos, 0);
        assert_eq!(op.self_nanos, 0);
        assert_eq!(op.evals, 3);
        assert_eq!(op.rows_in, 10);
        assert_eq!(op.rows_out, 7);
        assert_eq!(op.hash_builds, 1);
        assert_eq!(op.probes, 10);
        assert_eq!(op.memo_hits, 2);
        assert_eq!(profile.attributed_nanos(), 999);
        assert_eq!(n.attributed_nanos(), 0);
    }

    #[test]
    fn unsupported_renders_reason_and_detail() {
        let u = CompileUnsupported {
            reason: "fragment",
            detail: "data functions are not compiled".into(),
        };
        let text = render_unsupported(&u);
        assert!(text.contains("not compiled (fragment)"), "{text}");
        assert!(text.contains("data functions"), "{text}");
    }
}
