//! Property-based tests (proptest) for the invariants called out in
//! DESIGN.md §5.

use proptest::prelude::*;

use logres::engine::{
    apply_update, evaluate, evaluate_inflationary, load_facts, maintainable, EvalOptions,
    MaterializedView, Semantics, UpdateSpec,
};
use logres::lang::parse_program;
use logres::model::{Fact, Instance, Oid, OidGen, Schema, Sym, TypeDesc, Value};
use logres_repro::generators::{closure_program, reference_closure};

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// A schema with a small class hierarchy and a couple of domains, fixed so
/// that generated types can reference named types.
fn test_schema() -> Schema {
    let mut s = Schema::new();
    s.add_domain(
        "d_score",
        TypeDesc::tuple([("a", TypeDesc::Int), ("b", TypeDesc::Int)]),
    )
    .unwrap();
    s.add_class("c_person", TypeDesc::tuple([("name", TypeDesc::Str)]))
        .unwrap();
    s.add_class(
        "c_student",
        TypeDesc::tuple([
            ("person", TypeDesc::class("c_person")),
            ("school", TypeDesc::Str),
        ]),
    )
    .unwrap();
    s.add_isa("c_student", "c_person", None);
    s.validate().unwrap();
    s
}

fn arb_type() -> impl Strategy<Value = TypeDesc> {
    let leaf = prop_oneof![
        Just(TypeDesc::Int),
        Just(TypeDesc::Str),
        Just(TypeDesc::domain("d_score")),
        Just(TypeDesc::class("c_person")),
        Just(TypeDesc::class("c_student")),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(TypeDesc::set),
            inner.clone().prop_map(TypeDesc::multiset),
            inner.clone().prop_map(TypeDesc::seq),
            proptest::collection::vec(inner, 1..3).prop_map(|ts| {
                TypeDesc::tuple(
                    ts.into_iter()
                        .enumerate()
                        .map(|(i, t)| (format!("f{i}"), t))
                        .collect::<Vec<_>>(),
                )
            }),
        ]
    })
}

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Value::Int),
        "[a-z]{0,6}".prop_map(Value::str),
        (0u64..50).prop_map(|i| Value::Oid(Oid(i))),
        Just(Value::Nil),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::set),
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::multiset),
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::seq),
            proptest::collection::vec(inner, 1..4).prop_map(|vs| {
                Value::tuple(
                    vs.into_iter()
                        .enumerate()
                        .map(|(i, v)| (format!("f{i}"), v))
                        .collect::<Vec<_>>(),
                )
            }),
        ]
    })
}

// ---------------------------------------------------------------------------
// Refinement is a partial order
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn refinement_is_reflexive(t in arb_type()) {
        let s = test_schema();
        prop_assert!(s.refines(&t, &t), "{t} should refine itself");
    }

    #[test]
    fn refinement_is_transitive(t1 in arb_type(), t2 in arb_type(), t3 in arb_type()) {
        let s = test_schema();
        if s.refines(&t1, &t2) && s.refines(&t2, &t3) {
            prop_assert!(s.refines(&t1, &t3), "{t1} ≤ {t2} ≤ {t3} but not {t1} ≤ {t3}");
        }
    }

    /// Width subtyping: dropping a field of a tuple type yields a supertype.
    #[test]
    fn tuple_width_subtyping(t in arb_type(), extra in arb_type()) {
        let s = test_schema();
        let narrow = TypeDesc::tuple([("x", t.clone())]);
        let wide = TypeDesc::tuple([("x", t), ("y", extra)]);
        prop_assert!(s.refines(&wide, &narrow));
        // The converse can never hold: wide has strictly more fields.
        let narrow_refines_wide = s.refines(&narrow, &wide);
        prop_assert!(!narrow_refines_wide);
    }

    /// Collections are covariant in refinement.
    #[test]
    fn collection_covariance(t in arb_type()) {
        let s = test_schema();
        let sub = TypeDesc::class("c_student");
        let sup = TypeDesc::class("c_person");
        prop_assert!(s.refines(&TypeDesc::set(sub.clone()), &TypeDesc::set(sup.clone())));
        // Mixed constructors never refine.
        prop_assert!(!s.refines(&TypeDesc::set(t.clone()), &TypeDesc::seq(t.clone())));
        prop_assert!(!s.refines(&TypeDesc::multiset(t.clone()), &TypeDesc::set(t)));
    }
}

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Tuple equality is label-driven: any permutation of fields is equal.
    #[test]
    fn tuple_field_order_is_canonical(vs in proptest::collection::vec(arb_value(), 1..5)) {
        let fields: Vec<(String, Value)> = vs
            .into_iter()
            .enumerate()
            .map(|(i, v)| (format!("f{i}"), v))
            .collect();
        let forward = Value::tuple(fields.clone());
        let mut rev = fields;
        rev.reverse();
        let backward = Value::tuple(rev);
        prop_assert_eq!(forward, backward);
    }

    /// Renaming oids with an injective map and back is the identity.
    #[test]
    fn oid_renaming_round_trips(v in arb_value()) {
        let shifted = v.rename_oids(&|o| Oid(o.0 + 1000));
        let back = shifted.rename_oids(&|o| Oid(o.0 - 1000));
        prop_assert_eq!(v, back);
    }

    /// Projection keeps exactly the requested labels.
    #[test]
    fn projection_is_a_subtuple(vs in proptest::collection::vec(arb_value(), 2..5)) {
        let fields: Vec<(String, Value)> = vs
            .into_iter()
            .enumerate()
            .map(|(i, v)| (format!("f{i}"), v))
            .collect();
        let v = Value::tuple(fields.clone());
        let keep = vec![Sym::new("f0"), Sym::new("f1")];
        let p = v.project(&keep).expect("labels exist");
        let fs = p.as_tuple().unwrap();
        prop_assert_eq!(fs.len(), 2);
        for (l, inner) in fs {
            prop_assert_eq!(Some(inner), v.field(*l).as_ref().copied());
        }
    }

    /// Multiset length counts multiplicities; set length does not.
    #[test]
    fn multiset_vs_set_cardinality(v in arb_value(), n in 1usize..4) {
        let copies = vec![v.clone(); n];
        let set = Value::set(copies.clone());
        let multi = Value::multiset(copies);
        prop_assert_eq!(set.len(), Some(1));
        prop_assert_eq!(multi.len(), Some(n as u64));
    }
}

// ---------------------------------------------------------------------------
// The composition ⊕ (Appendix B)
// ---------------------------------------------------------------------------

fn small_instance(seed: u64) -> (Schema, Instance) {
    let mut s = Schema::new();
    s.add_class("c", TypeDesc::tuple([("n", TypeDesc::Int)]))
        .unwrap();
    s.add_assoc("a", TypeDesc::tuple([("v", TypeDesc::Int)]))
        .unwrap();
    s.validate().unwrap();
    let mut i = Instance::new();
    for k in 0..(seed % 5) {
        i.insert_object(
            &s,
            Sym::new("c"),
            Oid(k),
            Value::tuple([("n", Value::Int((seed as i64) + k as i64))]),
        );
        i.insert_assoc(Sym::new("a"), Value::tuple([("v", Value::Int(k as i64))]));
    }
    (s, i)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ⊕ is idempotent (G ⊕ G = G) and right-biased on o-values.
    #[test]
    fn compose_idempotent_and_right_biased(seed in 0u64..1000) {
        let (s, g) = small_instance(seed);
        prop_assert_eq!(g.compose(&g), g.clone());

        // Right bias: a conflicting o-value from the right wins.
        let mut right = Instance::new();
        if g.class_len(Sym::new("c")) > 0 {
            right.insert_object(
                &s,
                Sym::new("c"),
                Oid(0),
                Value::tuple([("n", Value::Int(-1))]),
            );
            let c = g.compose(&right);
            prop_assert_eq!(
                c.o_value(Oid(0)).unwrap().field(Sym::new("n")),
                Some(&Value::Int(-1))
            );
        }
    }

    /// ⊕ over disjoint oid sets is commutative (the bias only matters on
    /// conflicts).
    #[test]
    fn compose_commutes_when_disjoint(seed in 0u64..500) {
        let (s, g1) = small_instance(seed % 5);
        let mut g2 = Instance::new();
        g2.insert_object(
            &s,
            Sym::new("c"),
            Oid(100 + seed),
            Value::tuple([("n", Value::Int(7))]),
        );
        prop_assert_eq!(g1.compose(&g2), g2.compose(&g1));
    }
}

// ---------------------------------------------------------------------------
// Engine agreement on random programs
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The interpreter, the compiled path and a maintenance view build
    /// agree with a graph-theoretic reference on arbitrary small digraphs.
    #[test]
    fn closure_engines_match_reference(
        edges in proptest::collection::btree_set((0i64..8, 0i64..8), 1..20)
    ) {
        let edges: Vec<(i64, i64)> = edges.into_iter().filter(|(a, b)| a != b).collect();
        prop_assume!(!edges.is_empty());
        let src = closure_program(&edges);
        let p = parse_program(&src).unwrap();
        let mut edb = Instance::new();
        let mut gen = OidGen::new();
        load_facts(&p.schema, &mut edb, &p.facts, &mut gen).unwrap();
        let opts = EvalOptions::default();
        let (interp, _) = evaluate_inflationary(&p.schema, &p.rules, &edb, opts.clone()).unwrap();
        let (compiled, _) =
            evaluate(&p.schema, &p.rules, &edb, Semantics::Stratified, opts.clone()).unwrap();
        let (view, _) = MaterializedView::build(&p.schema, &p.rules, &edb, &opts).unwrap();
        let reference = reference_closure(&edges);
        let tc = Sym::new("tc");
        for inst in [&interp, &compiled, view.instance()] {
            prop_assert_eq!(inst.assoc_len(tc), reference.len());
            for &(a, b) in &reference {
                let t = Value::tuple([("a", Value::Int(a)), ("b", Value::Int(b))]);
                prop_assert!(inst.has_tuple(tc, &t));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Differential testing on random positive-fragment rule sets
// ---------------------------------------------------------------------------

/// Render a random positive association program from rule-template picks.
/// The three binary associations the random rule sets range over.
const P: [&str; 3] = ["p", "q", "r"];

/// The fact `P[pi](a: a, b: b)`.
fn pqr_fact(&(pi, a, b): &(usize, i64, i64)) -> Fact {
    Fact::Assoc {
        assoc: Sym::new(P[pi]),
        tuple: Value::tuple([("a", Value::Int(a)), ("b", Value::Int(b))]),
    }
}

/// Every template is positive, association-only and builtin-free, so the
/// whole program stays inside the semi-naive fragment, and the value domain
/// is finite (no arithmetic), so every program terminates.
fn ruleset_src(
    rules: &[(usize, usize, usize, usize)],
    facts: &std::collections::BTreeSet<(usize, i64, i64)>,
) -> String {
    let mut src = String::from(
        "associations\n  \
           p = (a: integer, b: integer);\n  \
           q = (a: integer, b: integer);\n  \
           r = (a: integer, b: integer);\nfacts\n",
    );
    for &(pi, a, b) in facts {
        src.push_str(&format!("  {}(a: {a}, b: {b}).\n", P[pi]));
    }
    src.push_str("rules\n");
    for &(t, h, b1, b2) in rules {
        let (h, b1, b2) = (P[h], P[b1], P[b2]);
        let line = match t {
            0 => format!("  {h}(a: X, b: Y) <- {b1}(a: X, b: Y).\n"),
            1 => format!("  {h}(a: Y, b: X) <- {b1}(a: X, b: Y).\n"),
            2 => format!("  {h}(a: X, b: Z) <- {b1}(a: X, b: Y), {b2}(a: Y, b: Z).\n"),
            3 => format!("  {h}(a: X, b: X) <- {b1}(a: X).\n"),
            _ => format!("  {h}(a: X, b: Y) <- {b1}(a: X, b: Y), {b2}(b: Y).\n"),
        };
        src.push_str(&line);
    }
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// On random positive rule sets the inflationary interpreter, the
    /// compiled path and a maintenance view build all produce the same
    /// instance, and the view records a derivation for every fact beyond
    /// the EDB. A random insert/delete batch over `p`, `q` and `r`, applied
    /// to the view with `apply_update`, then leaves the view itself equal
    /// to the fixpoint of the updated EDB, again with one recorded
    /// derivation per derived fact.
    #[test]
    fn random_positive_rulesets_agree(
        rules in proptest::collection::vec(
            (0usize..5, 0usize..3, 0usize..3, 0usize..3),
            1..5,
        ),
        facts in proptest::collection::btree_set(
            (0usize..3, 0i64..4, 0i64..4),
            1..12,
        ),
        inserts in proptest::collection::btree_set(
            (0usize..3, 0i64..4, 0i64..4),
            0..4,
        ),
        deletes in proptest::collection::vec(0usize..12, 0..4),
    ) {
        let src = ruleset_src(&rules, &facts);
        let p = parse_program(&src).unwrap();
        prop_assert!(maintainable(&p.schema, &p.rules));
        let mut edb = Instance::new();
        let mut gen = OidGen::new();
        load_facts(&p.schema, &mut edb, &p.facts, &mut gen).unwrap();
        let (infl, _) =
            evaluate_inflationary(&p.schema, &p.rules, &edb, EvalOptions::default()).unwrap();
        let (compiled, _) = evaluate(
            &p.schema, &p.rules, &edb, Semantics::Stratified, EvalOptions::default(),
        ).unwrap();
        prop_assert_eq!(&compiled, &infl, "compiled path disagrees on:\n{}", src);
        let opts = EvalOptions::default();
        let (mut view, _) = MaterializedView::build(&p.schema, &p.rules, &edb, &opts).unwrap();
        prop_assert_eq!(view.instance(), &infl, "view build disagrees on:\n{}", src);
        prop_assert_eq!(
            view.supported_count(), infl.fact_count() - edb.fact_count(),
            "view build misses a derivation on:\n{}", src
        );

        // Deletions name EDB facts; insertions range over the whole domain,
        // so they may repeat an EDB fact or make a derived one extensional.
        let edb_facts: Vec<&(usize, i64, i64)> = facts.iter().collect();
        let spec = UpdateSpec {
            inserts: inserts.iter().map(pqr_fact).collect(),
            deletes: deletes.iter().map(|&i| pqr_fact(edb_facts[i % edb_facts.len()])).collect(),
            ..UpdateSpec::default()
        };
        apply_update(&p.schema, &mut view, &spec, &edb, &opts).unwrap();
        let mut updated = edb.clone();
        for f in &spec.deletes {
            updated.remove_fact(&p.schema, f);
        }
        for f in &spec.inserts {
            updated.insert_fact(&p.schema, f);
        }
        let (want, _) =
            evaluate_inflationary(&p.schema, &p.rules, &updated, EvalOptions::default()).unwrap();
        prop_assert_eq!(
            view.instance(), &want,
            "maintained view disagrees after {:?} on:\n{}", spec, src
        );
        prop_assert_eq!(
            view.supported_count(), want.fact_count() - updated.fact_count(),
            "maintained view misses a derivation after {:?} on:\n{}", spec, src
        );
    }
}

// ---------------------------------------------------------------------------
// Schema module algebra
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (S ∪ S_M) − S_M = S when S_M is disjoint from S.
    #[test]
    fn schema_union_then_difference_restores(n in 0usize..4) {
        let mut base = Schema::new();
        base.add_assoc("keep", TypeDesc::tuple([("v", TypeDesc::Int)])).unwrap();
        base.validate().unwrap();

        let mut module = Schema::new();
        for i in 0..n {
            module
                .add_assoc(format!("m{i}").as_str(), TypeDesc::tuple([("v", TypeDesc::Int)]))
                .unwrap();
        }
        let mut union = base.union(&module).unwrap();
        union.validate().unwrap();
        let mut restored = union.difference(&module);
        restored.validate().unwrap();
        prop_assert_eq!(restored.to_string(), base.to_string());
    }
}

// ---------------------------------------------------------------------------
// Pretty-printer round-trip over the analyzer's fixture corpus
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// parse → pretty → parse is the identity on rules, constraints, and
    /// goal (modulo spans) for every program in the analyzer's fixture
    /// corpus, and re-analysis of the printed program yields the same
    /// diagnostic codes.
    #[test]
    fn pretty_printing_round_trips_over_fixture_corpus(
        idx in 0usize..logres::lang::analyze::fixtures::corpus().len()
    ) {
        let corpus = logres::lang::analyze::fixtures::corpus();
        let fx = &corpus[idx];
        let p1 = parse_program(&fx.source())
            .unwrap_or_else(|e| panic!("fixture `{}` fails to parse: {e:?}", fx.name));
        let printed: String = p1
            .rules
            .rules
            .iter()
            .map(|r| format!("  {r}\n"))
            .collect();
        let p2 = parse_program(&fx.rebuild(&printed))
            .unwrap_or_else(|e| panic!("fixture `{}` fails to re-parse after printing: {e:?}", fx.name));
        // Rule/Denial equality ignores spans; goals carry spans, so compare
        // their printed forms instead.
        prop_assert_eq!(&p1.rules, &p2.rules, "rules drift in `{}`", fx.name);
        prop_assert_eq!(&p1.constraints, &p2.constraints, "constraints drift in `{}`", fx.name);
        prop_assert_eq!(
            p1.goal.as_ref().map(ToString::to_string),
            p2.goal.as_ref().map(ToString::to_string),
            "goal drifts in `{}`", fx.name
        );
        let codes1: Vec<&str> = logres::lang::analyze_program(&p1).iter().map(|d| d.code).collect();
        let codes2: Vec<&str> = logres::lang::analyze_program(&p2).iter().map(|d| d.code).collect();
        prop_assert_eq!(codes1, codes2, "diagnostics drift in `{}`", fx.name);
    }
}

/// The integer extremes survive parse → pretty → parse: `i64::MIN` has no
/// positive counterpart (its magnitude overflows a bare literal), so the
/// lexer, the unary-minus folding in the parser, and the pretty-printer
/// must agree on it exactly. Facts carry the values into the EDB too.
#[test]
fn integer_extremes_round_trip_through_the_pretty_printer() {
    let src = format!(
        "associations\n  p = (d: integer);\n  q = (d: integer);\nfacts\n  p(d: {min}).\n  p(d: {max}).\nrules\n  q(d: {min}) <- p(d: {max}).",
        min = i64::MIN,
        max = i64::MAX,
    );
    let p1 = parse_program(&src).expect("extremes parse");
    let printed: String = p1.rules.rules.iter().map(|r| format!("  {r}\n")).collect();
    let rebuilt =
        format!("associations\n  p = (d: integer);\n  q = (d: integer);\nrules\n{printed}");
    let p2 = parse_program(&rebuilt).expect("printed extremes re-parse");
    assert_eq!(p1.rules, p2.rules, "rules drift on integer extremes");

    let mut edb = Instance::new();
    let mut gen = OidGen::new();
    load_facts(&p1.schema, &mut edb, &p1.facts, &mut gen).expect("extreme facts load");
    assert!(edb.has_tuple(
        Sym::new("p"),
        &Value::tuple([(Sym::new("d"), Value::Int(i64::MIN))]),
    ));
    assert!(edb.has_tuple(
        Sym::new("p"),
        &Value::tuple([(Sym::new("d"), Value::Int(i64::MAX))]),
    ));
}
