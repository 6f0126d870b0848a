//! The analyzer's fixture corpus: small, purpose-built programs that each
//! trigger exactly one diagnostic code (or none). Shared by the analyzer's
//! unit tests and by the parse → pretty → parse round-trip property test in
//! the workspace test suite, so every syntactic shape the lints reason about
//! is also exercised through the pretty-printer.
//!
//! Hidden from the public API: the corpus is a test asset, not a feature.

/// One corpus entry.
pub struct Fixture {
    /// Short identifier used in assertion messages.
    pub name: &'static str,
    /// Sections before `rules` (schema and facts).
    pub prefix: &'static str,
    /// The body of the `rules` section.
    pub rules: &'static str,
    /// Sections after `rules` (constraints and goal), possibly empty.
    pub suffix: &'static str,
    /// Diagnostic codes `analyze_program` must emit, in order.
    pub expect: &'static [&'static str],
}

impl Fixture {
    /// The full program source.
    pub fn source(&self) -> String {
        self.rebuild(self.rules)
    }

    /// The program with the `rules` section replaced (round-trip tests
    /// substitute the pretty-printed rules here).
    pub fn rebuild(&self, rules: &str) -> String {
        format!("{}\nrules\n{}\n{}", self.prefix, rules, self.suffix)
    }
}

/// The corpus. Every lint code appears at least once; the clean fixtures
/// cover the term grammar (tuples, collections, arithmetic, data functions,
/// builtins, negation, deletion, invention) for the round-trip test.
pub fn corpus() -> Vec<Fixture> {
    vec![
        Fixture {
            name: "clean_ancestor",
            prefix: r#"
                associations
                  parent   = (par: string, chil: string);
                  ancestor = (anc: string, des: string);
                facts
                  parent(par: "adam", chil: "cain").
                  parent(par: "cain", chil: "enoch").
            "#,
            rules: r#"
                ancestor(anc: X, des: Y) <- parent(par: X, chil: Y).
                ancestor(anc: X, des: Z) <- parent(par: X, chil: Y), ancestor(anc: Y, des: Z).
            "#,
            suffix: "goal ancestor(anc: A, des: A)?",
            expect: &[],
        },
        Fixture {
            name: "clean_negation",
            prefix: r#"
                associations
                  node     = (n: integer);
                  edge     = (a: integer, b: integer);
                  covered  = (n: integer);
                  isolated = (n: integer);
                facts
                  node(n: 1).
                  node(n: 2).
                  edge(a: 1, b: 1).
            "#,
            rules: r#"
                covered(n: X) <- edge(a: X, b: Y), node(n: Y).
                isolated(n: X) <- node(n: X), not covered(n: X).
            "#,
            suffix: "goal isolated(n: X)?",
            expect: &[],
        },
        Fixture {
            name: "clean_functions",
            prefix: r#"
                associations
                  parent   = (par: string, chil: string);
                  ancestor = (anc: string, des: {string});
                functions
                  desc: string -> {string};
                facts
                  parent(par: "adam", chil: "cain").
            "#,
            rules: r#"
                member(X, desc(Y)) <- parent(par: Y, chil: X).
                member(X, desc(Y)) <- parent(par: Y, chil: Z), member(X, T), T = desc(Z).
                ancestor(anc: X, des: S) <- parent(par: X), S = desc(X).
            "#,
            suffix: "goal ancestor(anc: A, des: D)?",
            expect: &[],
        },
        Fixture {
            name: "clean_collections_arithmetic",
            prefix: r#"
                associations
                  pool = (s: {integer});
                  stat = (n: integer);
                facts
                  pool(s: {1, 2, 3}).
            "#,
            rules: r#"
                stat(n: N) <- pool(s: S), sum(M, S), N = (M + 1) * 2 - 6 / 3.
                pool(s: X) <- pool(s: Y), pool(s: Z), union(X, Y, Z).
            "#,
            suffix: "goal stat(n: N)?",
            expect: &[],
        },
        Fixture {
            name: "clean_constraint_read",
            prefix: r#"
                associations
                  src     = (d: integer);
                  doubled = (d: integer);
                facts
                  src(d: 1).
            "#,
            rules: r#"
                doubled(d: Y) <- src(d: X), Y = X + X.
            "#,
            suffix: r#"
                constraints
                  <- doubled(d: X), doubled(d: Y), X < Y.
            "#,
            expect: &[],
        },
        Fixture {
            name: "l001_underivable_predicate",
            prefix: r#"
                associations
                  input = (d: integer);
                  ghost = (d: integer);
                  out_p = (d: integer);
                facts
                  input(d: 1).
            "#,
            rules: r#"
                out_p(d: X) <- input(d: X), ghost(d: X).
            "#,
            suffix: "goal out_p(d: X)?",
            expect: &["L001"],
        },
        Fixture {
            name: "l002_dead_derivation",
            prefix: r#"
                associations
                  src    = (d: integer);
                  sink   = (d: integer);
                  wanted = (d: integer);
                facts
                  src(d: 1).
            "#,
            rules: r#"
                sink(d: X) <- src(d: X).
                wanted(d: X) <- src(d: X), even(X).
            "#,
            suffix: "goal wanted(d: X)?",
            expect: &["L002"],
        },
        Fixture {
            name: "l003_invention_in_cycle",
            prefix: r#"
                classes
                  counter = (tag: integer);
                facts
                  counter(tag: 0).
            "#,
            rules: r#"
                counter(self: S, tag: N) <- counter(tag: M), N = M + 1.
            "#,
            suffix: "goal counter(tag: X)?",
            expect: &["L003"],
        },
        Fixture {
            name: "l003_tuple_variable_invention_in_cycle",
            prefix: r#"
                classes
                  node = (n: integer);
                associations
                  seed = (n: integer);
                  link = (n: integer);
                facts
                  seed(n: 0).
            "#,
            // `link` tuples carry no oid, so each one invents a `node`.
            rules: r#"
                link(n: N) <- seed(n: N).
                link(n: N) <- node(n: M), N = M + 1, M < 3.
                node(T) <- link(T).
            "#,
            suffix: "goal node(n: X)?",
            expect: &["L003"],
        },
        Fixture {
            name: "l004_derive_delete_conflict",
            prefix: r#"
                associations
                  base = (d: integer);
                  flag = (d: integer);
                facts
                  base(d: 1).
                  base(d: 2).
            "#,
            rules: r#"
                flag(d: X) <- base(d: X), even(X).
                -flag(d: X) <- base(d: X), odd(X).
            "#,
            suffix: "goal flag(d: X)?",
            expect: &["L004"],
        },
        Fixture {
            name: "l005_subsumed_rule",
            prefix: r#"
                associations
                  src   = (d: integer);
                  out_p = (d: integer);
                facts
                  src(d: 1).
            "#,
            rules: r#"
                out_p(d: X) <- src(d: X).
                out_p(d: Y) <- src(d: Y), even(Y).
            "#,
            suffix: "goal out_p(d: X)?",
            expect: &["L005"],
        },
        Fixture {
            name: "l005_duplicate_rule",
            prefix: r#"
                associations
                  src   = (d: integer);
                  out_p = (d: integer);
                facts
                  src(d: 1).
            "#,
            rules: r#"
                out_p(d: X) <- src(d: X).
                out_p(d: Z) <- src(d: Z).
            "#,
            suffix: "goal out_p(d: X)?",
            expect: &["L005"],
        },
        Fixture {
            name: "l006_singleton_variable",
            prefix: r#"
                associations
                  edge  = (a: integer, b: integer);
                  reach = (n: integer);
                facts
                  edge(a: 1, b: 2).
            "#,
            rules: r#"
                reach(n: X) <- edge(a: X, b: Y).
            "#,
            suffix: "goal reach(n: X)?",
            expect: &["L006"],
        },
        Fixture {
            name: "l007_unstratifiable",
            prefix: r#"
                associations
                  p = (d: integer);
                  q = (d: integer);
                facts
                  q(d: 1).
            "#,
            rules: r#"
                p(d: X) <- q(d: X), not p(d: X).
            "#,
            suffix: "goal p(d: X)?",
            expect: &["L007"],
        },
        Fixture {
            name: "e001_type_error",
            prefix: r#"
                associations
                  nums  = (d: integer);
                  names = (s: string);
                facts
                  nums(d: 1).
            "#,
            rules: r#"
                names(s: X) <- nums(d: X).
            "#,
            suffix: "goal names(s: X)?",
            expect: &["E001"],
        },
        Fixture {
            name: "e002_safety_error",
            prefix: r#"
                associations
                  p = (d: integer);
                  q = (d: integer);
                facts
                  p(d: 1).
            "#,
            rules: r#"
                q(d: X) <- not p(d: X).
            "#,
            suffix: "goal q(d: X)?",
            expect: &["E002"],
        },
    ]
}

/// The flow-analyzer corpus: programs that are clean under the base
/// analyzer (L001–L007) and exercise exactly the L008–L011 codes listed in
/// `expect` under the abstract-interpretation pass
/// (`analyze::flow::flow_program`).
pub fn flow_corpus() -> Vec<Fixture> {
    vec![
        Fixture {
            name: "flow_clean_closure",
            prefix: r#"
                associations
                  parent   = (par: string, chil: string);
                  ancestor = (anc: string, des: string);
                facts
                  parent(par: "adam", chil: "cain").
                  parent(par: "cain", chil: "enoch").
            "#,
            rules: r#"
                ancestor(anc: X, des: Y) <- parent(par: X, chil: Y).
                ancestor(anc: X, des: Z) <- parent(par: X, chil: Y), ancestor(anc: Y, des: Z).
            "#,
            suffix: "goal ancestor(anc: A, des: D)?",
            expect: &[],
        },
        Fixture {
            name: "flow_clean_aggregate_arithmetic",
            prefix: r#"
                associations
                  nums = (v: integer);
                  agg  = (n: integer);
                facts
                  nums(v: 1).
                  nums(v: 2).
            "#,
            // Small finite bounds: the `+`/`*` chain stays inside i64, so
            // no L010 — and no L009 from the defining equality.
            rules: r#"
                agg(n: N) <- nums(v: X), nums(v: M), N = (X + M) * 2.
            "#,
            suffix: "goal agg(n: N)?",
            expect: &[],
        },
        Fixture {
            name: "flow_l008_disjoint_consts",
            prefix: r#"
                associations
                  src   = (d: integer);
                  lo_w  = (d: integer);
                  hi_w  = (d: integer);
                  clash = (d: integer);
                facts
                  src(d: 1).
                  src(d: 2).
            "#,
            rules: r#"
                lo_w(d: X) <- src(d: X), X < 2.
                hi_w(d: X) <- src(d: X), X > 1.
                clash(d: X) <- lo_w(d: X), hi_w(d: X).
            "#,
            suffix: "goal clash(d: X)?",
            expect: &["L008"],
        },
        Fixture {
            name: "flow_l008_string_clash",
            prefix: r#"
                associations
                  tag_a = (t: string);
                  tag_b = (t: string);
                  both  = (t: string);
                facts
                  tag_a(t: "x").
                  tag_a(t: "y").
                  tag_b(t: "z").
            "#,
            // Disjoint string constant sets: the join meets to ⊥ — a case
            // the per-rule typechecker (same type on both sides) cannot see.
            rules: r#"
                both(t: T) <- tag_a(t: T), tag_b(t: T).
            "#,
            suffix: "goal both(t: X)?",
            expect: &["L008"],
        },
        Fixture {
            name: "flow_l009_always_false",
            prefix: r#"
                associations
                  src   = (d: integer);
                  never = (d: integer);
                facts
                  src(d: 1).
                  src(d: 2).
            "#,
            rules: r#"
                never(d: X) <- src(d: X), X > 7.
            "#,
            suffix: "goal never(d: X)?",
            expect: &["L009"],
        },
        Fixture {
            name: "flow_l009_always_true",
            prefix: r#"
                associations
                  src = (d: integer);
                  pos = (d: integer);
                facts
                  src(d: 1).
                  src(d: 2).
            "#,
            rules: r#"
                pos(d: X) <- src(d: X), X >= 1.
            "#,
            suffix: "goal pos(d: X)?",
            expect: &["L009"],
        },
        Fixture {
            name: "flow_l010_overflow",
            prefix: r#"
                associations
                  big  = (n: integer);
                  wide = (n: integer);
                facts
                  big(n: 4611686018427387904).
            "#,
            rules: r#"
                wide(n: Y) <- big(n: X), Y = X + X.
            "#,
            suffix: "goal wide(n: Y)?",
            expect: &["L010"],
        },
        Fixture {
            name: "flow_l011_growing_counter",
            prefix: r#"
                associations
                  step = (d: integer);
                  tick = (n: integer);
                facts
                  step(d: 1).
                  tick(n: 0).
            "#,
            rules: r#"
                tick(n: Y) <- tick(n: X), step(d: D), Y = X + D.
            "#,
            suffix: "goal tick(n: N)?",
            expect: &["L011"],
        },
    ]
}
