//! Differential soundness of the abstract-interpretation flow analyzer
//! (DESIGN.md §14): the per-predicate summaries `infer` computes are an
//! over-approximation of every reachable instance. For randomly generated
//! programs, every fact any engine derives — on both the compiled and the
//! interpreted path — must be admitted by the summary of its predicate. A single inadmissible fact would mean the
//! planner's flow-driven pruning could change results.

use proptest::prelude::*;

use logres::engine::{evaluate, load_facts, EvalOptions, Semantics};
use logres::lang::analyze::{infer, seeds_from_instance};
use logres::lang::parse_program;
use logres::model::{Instance, OidGen};
use logres_repro::generators::{closure_program, random_edges};

/// Evaluate `src` under `semantics`, compiled and interpreted, and assert
/// (a) every stored fact lies inside the flow summary and (b) both runs
/// produce the same instance — so a flow-driven
/// plan transformation (rule pruning, semijoin skip, reordering) that
/// changes results fails here even when the changed results still happen
/// to sit inside the over-approximating summary.
fn assert_flow_sound(src: &str, semantics: Semantics) {
    let p = parse_program(src).expect("generated program parses");
    let mut edb = Instance::new();
    let mut gen = OidGen::new();
    load_facts(&p.schema, &mut edb, &p.facts, &mut gen).expect("facts load");
    let seeds = seeds_from_instance(&p.schema, &edb);
    let summaries = infer(&p.schema, &p.rules, &seeds);
    let mut oracle: Option<Instance> = None;
    for compiled in [true, false] {
        let opts = EvalOptions {
            compiled,
            ..EvalOptions::default()
        };
        let (inst, _) = evaluate(&p.schema, &p.rules, &edb, semantics, opts).expect("evaluates");
        for assoc in p.schema.assocs() {
            for t in inst.tuples_of(assoc) {
                assert!(
                    summaries.admits(assoc, t),
                    "derived fact {assoc}{t} escapes the flow summary \
                     (compiled={compiled}):\n{src}"
                );
            }
        }
        match &oracle {
            None => oracle = Some(inst),
            Some(o) => assert_eq!(
                &inst, o,
                "instance diverges from the first run (compiled={compiled}):\n{src}"
            ),
        }
    }
}

/// Pinned regression for the semijoin-skip path: the guard predicate is a
/// single-column literal *narrowed by negation*, so its constant-set
/// summary over-approximates its true extension. Skipping the semijoin on
/// the strength of that summary would re-admit the blocked key.
#[test]
fn negation_narrowed_guard_is_not_skipped() {
    let src = r#"
        associations
          allowed = (k: integer);
          blocked = (k: integer);
          big     = (a: integer, b: integer);
          derived = (k: integer);
          out_p   = (a: integer);
        facts
          allowed(k: 1). allowed(k: 2). allowed(k: 3).
          blocked(k: 3).
          big(a: 1, b: 10). big(a: 2, b: 20). big(a: 3, b: 30).
        rules
          derived(k: X) <- allowed(k: X), not blocked(k: X).
          out_p(a: X) <- big(a: X, b: Y), derived(k: X).
        goal out_p(a: A)?
    "#;
    assert_flow_sound(src, Semantics::Stratified);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Recursive closure over random graphs: summaries must admit the whole
    /// transitive closure, not just the base edges.
    #[test]
    fn closure_stays_inside_the_summary(
        nodes in 2usize..10,
        extra in 0usize..12,
        seed in any::<u64>(),
    ) {
        let edges = random_edges(nodes, (extra % nodes.max(2)) + 1, seed);
        assert_flow_sound(&closure_program(&edges), Semantics::Inflationary);
    }

    /// Comparison guards and arithmetic: interval refinement must never cut
    /// off a value the concrete engine produces.
    #[test]
    fn guards_and_arithmetic_stay_inside_the_summary(
        vals in proptest::collection::btree_set(-50i64..50, 1..8),
        cut in -60i64..60,
    ) {
        let facts: String = vals.iter().map(|v| format!("  n(v: {v}).\n")).collect();
        let src = format!(
            r#"
            associations
              n    = (v: integer);
              high = (v: integer);
              twin = (v: integer, w: integer);
            facts
            {facts}
            rules
              high(v: X) <- n(v: X), X >= {cut}.
              twin(v: X, w: Y) <- n(v: X), Y = X + X.
            goal high(v: A), twin(v: A, w: B)?
            "#
        );
        assert_flow_sound(&src, Semantics::Inflationary);
    }

    /// Bounded counter recursion: the widened (unbounded) interval must
    /// still cover every tick the fixpoint actually reaches.
    #[test]
    fn widened_recursion_stays_inside_the_summary(
        start in -5i64..5,
        bound in 1i64..25,
        stride in 1i64..4,
    ) {
        let src = format!(
            r#"
            associations
              tick = (n: integer);
            facts
              tick(n: {start}).
            rules
              tick(n: Y) <- tick(n: X), X < {bound}, Y = X + {stride}.
            goal tick(n: A)?
            "#
        );
        assert_flow_sound(&src, Semantics::Inflationary);
    }

    /// Random instances of the negation-narrowed single-column guard shape
    /// (the semijoin-skip candidate): compiled and interpreted runs must
    /// agree bit-for-bit whatever the allowed/blocked/probe overlap is.
    #[test]
    fn negated_guard_semijoin_stays_sound(
        allowed in proptest::collection::btree_set(0i64..8, 1..6),
        blocked in proptest::collection::btree_set(0i64..8, 0..4),
        big in proptest::collection::btree_set((0i64..8, 0i64..40), 1..12),
    ) {
        let allowed_facts: String = allowed.iter().map(|k| format!("  allowed(k: {k}).\n")).collect();
        let blocked_facts: String = blocked.iter().map(|k| format!("  blocked(k: {k}).\n")).collect();
        let big_facts: String = big
            .iter()
            .map(|(a, b)| format!("  big(a: {a}, b: {b}).\n"))
            .collect();
        let src = format!(
            r#"
            associations
              allowed = (k: integer);
              blocked = (k: integer);
              big     = (a: integer, b: integer);
              derived = (k: integer);
              out_p   = (a: integer);
            facts
            {allowed_facts}{blocked_facts}{big_facts}
            rules
              derived(k: X) <- allowed(k: X), not blocked(k: X).
              out_p(a: X) <- big(a: X, b: Y), derived(k: X).
            goal out_p(a: A)?
            "#
        );
        assert_flow_sound(&src, Semantics::Stratified);
    }

    /// Stratified negation transfers as identity: the summary must cover
    /// the perfect model's negative stratum output.
    #[test]
    fn negation_stays_inside_the_summary(
        nodes in 2usize..8,
        seed in any::<u64>(),
    ) {
        let edges = random_edges(nodes, nodes.max(2) - 1, seed);
        let node_facts: String = (0..nodes as i64).map(|i| format!("  node(n: {i}).\n")).collect();
        let edge_facts: String = edges
            .iter()
            .map(|(a, b)| format!("  edge(a: {a}, b: {b}).\n"))
            .collect();
        let src = format!(
            r#"
            associations
              node     = (n: integer);
              edge     = (a: integer, b: integer);
              covered  = (n: integer);
              isolated = (n: integer);
            facts
            {node_facts}{edge_facts}
            rules
              covered(n: X) <- edge(a: X, b: Y).
              covered(n: X) <- edge(a: Y, b: X).
              isolated(n: X) <- node(n: X), not covered(n: X).
            goal isolated(n: A)?
            "#
        );
        assert_flow_sound(&src, Semantics::Stratified);
    }
}
