//! Synthetic workload generators for the experiment suite.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A chain `0 → 1 → … → n`.
pub fn chain_edges(n: usize) -> Vec<(i64, i64)> {
    (0..n as i64).map(|i| (i, i + 1)).collect()
}

/// A complete binary tree with `n` edges.
pub fn tree_edges(n: usize) -> Vec<(i64, i64)> {
    let mut out = Vec::with_capacity(n);
    let mut i = 0i64;
    while out.len() < n {
        out.push((i, 2 * i + 1));
        if out.len() < n {
            out.push((i, 2 * i + 2));
        }
        i += 1;
    }
    out
}

/// A seeded random digraph with `edges` distinct edges over `nodes`
/// vertices.
pub fn random_edges(nodes: usize, edges: usize, seed: u64) -> Vec<(i64, i64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::BTreeSet::new();
    while seen.len() < edges {
        let a = rng.gen_range(0..nodes as i64);
        let b = rng.gen_range(0..nodes as i64);
        if a != b {
            seen.insert((a, b));
        }
    }
    seen.into_iter().collect()
}

/// Transitive-closure program source over an edge list (associations `e`,
/// `tc`).
pub fn closure_program(edges: &[(i64, i64)]) -> String {
    let facts: String = edges
        .iter()
        .map(|(a, b)| format!("  e(a: {a}, b: {b}).\n"))
        .collect();
    format!(
        r#"
        associations
          e  = (a: integer, b: integer);
          tc = (a: integer, b: integer);
        facts
        {facts}
        rules
          tc(a: X, b: Y) <- e(a: X, b: Y).
          tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).
    "#
    )
}

/// The reference closure of an edge list, computed by plain DFS, for
/// cross-checking the engines.
pub fn reference_closure(edges: &[(i64, i64)]) -> std::collections::BTreeSet<(i64, i64)> {
    let mut adj: std::collections::BTreeMap<i64, Vec<i64>> = Default::default();
    let mut nodes: std::collections::BTreeSet<i64> = Default::default();
    for &(a, b) in edges {
        adj.entry(a).or_default().push(b);
        nodes.insert(a);
        nodes.insert(b);
    }
    let mut out = std::collections::BTreeSet::new();
    for &start in &nodes {
        let mut stack = adj.get(&start).cloned().unwrap_or_default();
        let mut seen = std::collections::BTreeSet::new();
        while let Some(x) = stack.pop() {
            if seen.insert(x) {
                out.insert((start, x));
                stack.extend(adj.get(&x).cloned().unwrap_or_default());
            }
        }
    }
    out
}

/// The powerset program of Example 3.3 over `{1..n}`.
pub fn powerset_program(n: usize) -> String {
    let facts: String = (1..=n).map(|i| format!("  r(d: {i}).\n")).collect();
    format!(
        r#"
        associations
          r     = (d: integer);
          power = (s: {{integer}});
        facts
        {facts}
        rules
          power(s: X) <- X = {{}}.
          power(s: X) <- r(d: Y), append(X, {{}}, Y).
          power(s: X) <- power(s: Y), power(s: Z), union(X, Y, Z).
    "#
    )
}

/// Employee/department data for the interesting-pair workload (Example
/// 3.4): `n` employees over `n/10` departments; `dup_pct` percent of
/// employees share their department manager's name (making the pair
/// "interesting").
pub fn ip_program(n: usize, dup_pct: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let depts = (n / 10).max(1);
    let mut src = String::from(
        r#"
        classes
          ip = (employee: string, manager: string);
        associations
          emp  = (ename: string, works: string);
          dept = (dname: string, depmgr: string);
          pair = (employee: string, manager: string);
        facts
    "#,
    );
    for d in 0..depts {
        src.push_str(&format!("  dept(dname: \"d{d}\", depmgr: \"mgr{d}\").\n",));
        src.push_str(&format!("  emp(ename: \"mgr{d}\", works: \"d{d}\").\n",));
    }
    for i in 0..n {
        let d = rng.gen_range(0..depts);
        let name = if rng.gen_range(0..100) < dup_pct {
            format!("mgr{d}") // same name as the department manager
        } else {
            format!("e{i}")
        };
        src.push_str(&format!("  emp(ename: \"{name}\", works: \"d{d}\").\n"));
    }
    src.push_str(
        r#"
        rules
          pair(employee: E, manager: M)
            <- emp(ename: E, works: D), dept(dname: D, depmgr: M), emp(ename: M).
          ip(self: X, C) <- pair(C).
    "#,
    );
    src
}

/// Base database of `n` parent tuples (a forest of chains of length 10),
/// for the module-mode and update experiments.
pub fn parent_database(n: usize) -> String {
    let mut facts = String::new();
    for i in 0..n {
        let root = (i / 10) * 1000;
        let step = i % 10;
        facts.push_str(&format!(
            "  parent(par: \"p{}\", chil: \"p{}\").\n",
            root + step,
            root + step + 1
        ));
    }
    format!(
        r#"
        associations
          parent = (par: string, chil: string);
        facts
        {facts}
    "#
    )
}

/// The ancestor view module used by E4.
pub const ANCESTOR_MODULE: &str = r#"
    associations
      ancestor = (anc: string, des: string);
    rules
      ancestor(anc: X, des: Y) <- parent(par: X, chil: Y).
      ancestor(anc: X, des: Z) <- parent(par: X, chil: Y),
                                  ancestor(anc: Y, des: Z).
"#;

/// Set up one E4 module application: a fresh base database (with the
/// ancestor module pre-installed for RDDI, which otherwise has nothing to
/// delete) and the module to apply — goal-bearing only for the two
/// goal-answering modes.
pub fn e4_setup(base: &str, mode: logres::Mode) -> (logres::Database, logres::Module) {
    use logres::Mode;
    let mut db = logres::Database::from_source(base).expect("base loads");
    if matches!(mode, Mode::Rddi) {
        db.apply_source(ANCESTOR_MODULE, Mode::Radi)
            .expect("pre-install for RDDI");
    }
    let src = if matches!(mode, Mode::Ridi | Mode::Radi) {
        format!("{ANCESTOR_MODULE}\ngoal ancestor(anc: \"p0\", des: D)?")
    } else {
        ANCESTOR_MODULE.to_owned()
    };
    let module = logres::Module::parse(&src, db.schema()).expect("module parses");
    (db, module)
}

/// The E6 fixture schema (teams + fixtures with a distinguishing day
/// column) and one generated fixture tuple, for the E6 experiment.
/// `dangling_pct` percent of tuples reference a non-existent guest team.
pub fn e6_schema() -> logres::Schema {
    let mut s = logres::Schema::new();
    s.add_class(
        "team",
        logres::TypeDesc::tuple([("name", logres::TypeDesc::Str)]),
    )
    .unwrap();
    s.add_assoc(
        "fixture",
        logres::TypeDesc::tuple([
            ("h", logres::TypeDesc::class("team")),
            ("g", logres::TypeDesc::class("team")),
            // Keeps every generated fixture distinct under set semantics.
            ("day", logres::TypeDesc::Int),
        ]),
    )
    .unwrap();
    s.validate().unwrap();
    s
}

/// One E6 fixture tuple (see [`e6_schema`]).
pub fn e6_fixture(i: usize, teams: u64, dangling_pct: usize) -> logres::Value {
    use logres::Value;
    let h = (i as u64 * 7) % teams;
    let g = if i % 100 < dangling_pct {
        teams + 1_000 + i as u64 // dangling reference
    } else {
        (i as u64 * 13) % teams
    };
    Value::tuple([
        ("h", Value::Oid(logres::Oid(h))),
        ("g", Value::Oid(logres::Oid(g))),
        ("day", Value::Int(i as i64)),
    ])
}

/// A schema with an isa chain of depth `d` (`c0` at the top) and `n`
/// objects inserted into the deepest class.
pub fn isa_chain_program(depth: usize, n: usize) -> String {
    let mut src = String::from("classes\n");
    src.push_str("  c0 = (a0: integer);\n");
    for i in 1..=depth {
        src.push_str(&format!(
            "  c{i} = (sup: c{}, a{i}: integer);\n  c{i} isa c{};\n",
            i - 1,
            i - 1
        ));
    }
    src.push_str("associations\n  seed = (v: integer);\nfacts\n");
    for v in 0..n {
        src.push_str(&format!("  seed(v: {v}).\n"));
    }
    src.push_str("rules\n");
    let attrs: String = (0..=depth)
        .map(|i| format!("a{i}: V"))
        .collect::<Vec<_>>()
        .join(", ");
    src.push_str(&format!("  c{depth}(self: X, {attrs}) <- seed(v: V).\n"));
    src
}

/// A stratified program with `k` negation strata over `n` base facts:
/// layer `i` marks and drops the lower half of what layer `i−1` kept, so
/// `|l_k| = n / 2^k`.
pub fn strata_program(k: usize, n: usize) -> String {
    let mut src = String::from("associations\n  l0 = (v: integer);\n");
    for i in 1..=k {
        src.push_str(&format!("  l{i} = (v: integer);\n"));
        src.push_str(&format!("  m{i} = (v: integer);\n"));
    }
    src.push_str("facts\n");
    for v in 0..n as i64 {
        src.push_str(&format!("  l0(v: {v}).\n"));
    }
    src.push_str("rules\n");
    let mut threshold = 0usize;
    for i in 1..=k {
        let prev = i - 1;
        threshold += n >> i; // lower half of the surviving range
        src.push_str(&format!(
            "  m{i}(v: X) <- l{prev}(v: X), X < {threshold}.\n"
        ));
        src.push_str(&format!("  l{i}(v: X) <- l{prev}(v: X), not m{i}(v: X).\n"));
    }
    src
}

/// The Example 3.2 genealogy program over a parent chain of length `n`
/// (data functions + nesting).
pub fn genealogy_program(n: usize) -> String {
    let facts: String = (0..n as i64)
        .map(|i| format!("  parent(par: \"p{i}\", chil: \"p{}\").\n", i + 1))
        .collect();
    format!(
        r#"
        associations
          parent   = (par: string, chil: string);
          ancestor = (anc: string, des: {{string}});
        functions
          desc: string -> {{string}};
        facts
        {facts}
        rules
          member(X, desc(Y)) <- parent(par: Y, chil: X).
          member(X, desc(Y)) <- parent(par: Y, chil: Z), member(X, T), T = desc(Z).
          ancestor(anc: X, des: Y) <- parent(par: X), Y = desc(X).
    "#
    )
}

/// A football league (Example 2.1 flavour): `teams` teams, each a class
/// object; a double round-robin of games as association tuples with
/// deterministic pseudo-random scores.
pub fn football_program(teams: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut src = String::from(
        r#"
        classes
          team = (team_name: string, city: string);
        associations
          game = (h_team: team, g_team: team, day: integer,
                  home_goals: integer, guest_goals: integer);
        rules
    "#,
    );
    for t in 0..teams {
        src.push_str(&format!(
            "  team(self: X, team_name: \"t{t}\", city: \"city{}\") <- .\n",
            t % 7
        ));
    }
    let mut day = 0;
    for h in 0..teams {
        for g in 0..teams {
            if h == g {
                continue;
            }
            day += 1;
            let hg = rng.gen_range(0..5);
            let gg = rng.gen_range(0..5);
            src.push_str(&format!(
                "  game(h_team: H, g_team: G, day: {day}, home_goals: {hg}, guest_goals: {gg}) \
                 <- team(H, team_name: \"t{h}\"), team(G, team_name: \"t{g}\").\n"
            ));
        }
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_produce_requested_sizes() {
        assert_eq!(chain_edges(5).len(), 5);
        assert_eq!(tree_edges(9).len(), 9);
        assert_eq!(random_edges(10, 15, 1).len(), 15);
    }

    #[test]
    fn programs_parse() {
        for src in [
            closure_program(&chain_edges(3)),
            powerset_program(3),
            ip_program(20, 25, 1),
            parent_database(20),
            isa_chain_program(3, 4),
            strata_program(3, 8),
            genealogy_program(4),
        ] {
            logres::lang::parse_program(&src).expect("workload parses");
        }
    }

    #[test]
    fn football_module_applies() {
        let mut db = logres::Database::from_source(
            r#"
            classes
              team = (team_name: string, city: string);
            associations
              game = (h_team: team, g_team: team, day: integer,
                      home_goals: integer, guest_goals: integer);
        "#,
        )
        .unwrap();
        // Strip the schema part of the generated program and apply the rules
        // as a module.
        let src = football_program(3, 7);
        let rules_at = src.find("rules").unwrap();
        db.apply_source(&src[rules_at..], logres::Mode::Ridv)
            .expect("league loads");
        assert_eq!(db.edb().class_len(logres::Sym::new("team")), 3);
        assert_eq!(db.edb().assoc_len(logres::Sym::new("game")), 6);
    }

    #[test]
    fn strata_program_layers_shrink() {
        let src = strata_program(2, 8);
        let mut db = logres::Database::from_source(&src).unwrap();
        db.set_semantics(logres::Semantics::Stratified);
        let (inst, _) = db.instance().unwrap();
        let l0 = inst.assoc_len(logres::Sym::new("l0"));
        let l1 = inst.assoc_len(logres::Sym::new("l1"));
        let l2 = inst.assoc_len(logres::Sym::new("l2"));
        assert_eq!(l0, 8);
        assert_eq!(l1, 4); // odd half survives
        assert!(l2 <= l1);
    }
}
