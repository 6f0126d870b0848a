//! Stratification analysis (Section 3.1).
//!
//! "Due to the use of negation and data functions, stratification properties
//! may be considered in order to obtain the model intended by the user. If
//! we use inflationary semantics within each stratum of a stratified
//! program, this yields the perfect model semantics. Whenever the program is
//! not stratified with respect to negation or data functions, it can also be
//! assigned a meaning, by computing it as a whole still under inflationary
//! semantics."
//!
//! The dependency graph itself lives in [`crate::analyze::graph`] (it is
//! shared with the whole-program lints); this module layers its condensation
//! into strata. A program is stratified iff no strict edge lies inside a
//! strongly connected component; strata follow the condensation's
//! longest-path order.

use logres_model::Sym;
use rustc_hash::FxHashSet;

use crate::analyze::graph::{DepGraph, EdgeKind};
use crate::ast::RuleSet;

/// Outcome of the analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stratification {
    /// Strata in evaluation order; each stratum lists rule indices into the
    /// analyzed [`RuleSet`].
    Stratified(Vec<Vec<usize>>),
    /// A strict (negation / data-function / deletion) edge is involved in a
    /// cycle through the named predicates; the program must be evaluated as
    /// a whole under inflationary semantics.
    Unstratifiable {
        /// The predicates of the offending strongly connected component,
        /// sorted by name so reports are stable across runs.
        cycle: Vec<Sym>,
    },
}

impl Stratification {
    /// Convenience: the strata if stratified.
    pub fn strata(&self) -> Option<&[Vec<usize>]> {
        match self {
            Stratification::Stratified(s) => Some(s),
            Stratification::Unstratifiable { .. } => None,
        }
    }
}

/// Analyze a rule set.
pub fn stratify(rules: &RuleSet) -> Stratification {
    let graph = DepGraph::build(&rules.rules);
    stratify_graph(rules, &graph)
}

/// Analyze a rule set against an already-built dependency graph (the
/// whole-program analyzer builds the graph once and shares it).
pub fn stratify_graph(rules: &RuleSet, graph: &DepGraph) -> Stratification {
    let sccs = graph.sccs();
    let comp_of = graph.component_of(&sccs);

    // Strict edge inside an SCC → unstratifiable. Scan edges in sorted order
    // and report the component's predicates sorted by name, so the cycle is
    // identical across runs regardless of hash-set iteration order.
    for (a, b, kind) in graph.sorted_edges() {
        if kind == EdgeKind::Strict && comp_of[a] == comp_of[b] {
            let mut cycle: Vec<Sym> = sccs[comp_of[a]].iter().map(|&v| graph.sym(v)).collect();
            cycle.sort();
            return Stratification::Unstratifiable { cycle };
        }
    }

    // Longest-path layering of the condensation: stratum(P) is 0 for EDB
    // components; each positive edge keeps the stratum, each strict edge
    // raises it by one.
    let nc = sccs.len();
    let mut comp_edges: FxHashSet<(usize, usize, EdgeKind)> = FxHashSet::default();
    for (a, b, kind) in graph.sorted_edges() {
        let (ca, cb) = (comp_of[a], comp_of[b]);
        if ca != cb || kind == EdgeKind::Strict {
            comp_edges.insert((ca, cb, kind));
        }
    }
    let mut level = vec![0usize; nc];
    // Relax |components| times (the condensation is a DAG, so this reaches
    // the longest-path fixpoint).
    for _ in 0..nc {
        let mut changed = false;
        for &(a, b, kind) in &comp_edges {
            let need = match kind {
                EdgeKind::Positive => level[a],
                EdgeKind::Strict => level[a] + 1,
            };
            if level[b] < need {
                level[b] = need;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let max_level = level.iter().copied().max().unwrap_or(0);
    let mut strata: Vec<Vec<usize>> = vec![Vec::new(); max_level + 1];
    for (ri, rule) in rules.rules.iter().enumerate() {
        let t = graph
            .node(rule.head.target())
            .expect("head target is a graph node");
        strata[level[comp_of[t]]].push(ri);
    }
    strata.retain(|s| !s.is_empty());
    if strata.is_empty() {
        strata.push(Vec::new());
    }
    Stratification::Stratified(strata)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn strat(src: &str) -> Stratification {
        let p = parse_program(src).expect("parses");
        stratify(&p.rules)
    }

    #[test]
    fn positive_recursion_is_one_stratum() {
        let s = strat(
            r#"
            associations
              parent   = (par: string, chil: string);
              ancestor = (anc: string, des: string);
            rules
              ancestor(anc: X, des: Y) <- parent(par: X, chil: Y).
              ancestor(anc: X, des: Z) <- parent(par: X, chil: Y), ancestor(anc: Y, des: Z).
        "#,
        );
        match s {
            Stratification::Stratified(strata) => {
                assert_eq!(strata.len(), 1);
                assert_eq!(strata[0].len(), 2);
            }
            _ => panic!("should be stratified"),
        }
    }

    #[test]
    fn negation_splits_strata() {
        let s = strat(
            r#"
            associations
              node    = (n: integer);
              edge    = (a: integer, b: integer);
              covered = (n: integer);
              isolated = (n: integer);
            rules
              covered(n: X) <- edge(a: X, b: Y).
              isolated(n: X) <- node(n: X), not covered(n: X).
        "#,
        );
        match s {
            Stratification::Stratified(strata) => {
                assert_eq!(strata.len(), 2);
            }
            _ => panic!("should be stratified"),
        }
    }

    #[test]
    fn negation_through_recursion_is_unstratifiable() {
        let s = strat(
            r#"
            associations
              p = (d: integer);
              q = (d: integer);
            rules
              p(d: X) <- q(d: X), not p(d: X).
        "#,
        );
        match s {
            Stratification::Unstratifiable { cycle } => {
                assert!(cycle.contains(&Sym::new("p")));
            }
            _ => panic!("should be unstratifiable"),
        }
    }

    #[test]
    fn unstratifiable_cycle_is_sorted_by_name() {
        let s = strat(
            r#"
            associations
              zeta  = (d: integer);
              alpha = (d: integer);
              mid   = (d: integer);
            rules
              zeta(d: X) <- alpha(d: X).
              mid(d: X) <- zeta(d: X).
              alpha(d: X) <- mid(d: X), not zeta(d: X).
        "#,
        );
        match s {
            Stratification::Unstratifiable { cycle } => {
                let names: Vec<&str> = cycle.iter().map(|s| s.as_str()).collect();
                assert_eq!(names, vec!["alpha", "mid", "zeta"]);
            }
            other => panic!("expected unstratifiable, got {other:?}"),
        }
    }

    #[test]
    fn example_3_2_stratifies_with_monotone_member_reads() {
        // Example 3.2: desc reads itself through `member(X, T), T = desc(Z)`
        // — an *element-wise* (monotone) read, so the recursion stays in one
        // stratum; the ancestor rule stores the whole set value and must
        // wait for desc to be complete.
        let s = strat(
            r#"
            classes
              person = (name: string);
            associations
              parent   = (par: person, chil: person);
              ancestor = (anc: person, des: {person});
            functions
              desc: person -> {person};
            rules
              member(X, desc(Y)) <- parent(par: Y, chil: X).
              member(X, desc(Y)) <- parent(par: Y, chil: Z), member(X, T), T = desc(Z).
              ancestor(anc: X, des: Y) <- parent(par: X), Y = desc(X).
        "#,
        );
        match s {
            Stratification::Stratified(strata) => {
                assert_eq!(strata.len(), 2);
                assert_eq!(strata[0], vec![0, 1]); // the member rules
                assert_eq!(strata[1], vec![2]); // the snapshotting rule
            }
            other => panic!("expected stratified, got {other:?}"),
        }
    }

    #[test]
    fn whole_value_function_reads_remain_strict() {
        // Storing the set into an association while ALSO defining the
        // function from that association is a genuine strict cycle.
        let s = strat(
            r#"
            functions
              f: string -> {string};
            associations
              snap = (k: string, v: {string});
            rules
              member(X, f(Y)) <- snap(k: Y, v: S), member(X, S).
              snap(k: Y, v: V) <- snap(k: Y, v: S), V = f(Y).
        "#,
        );
        assert!(matches!(s, Stratification::Unstratifiable { .. }));
    }

    #[test]
    fn nonrecursive_function_reads_are_stratified() {
        let s = strat(
            r#"
            classes
              person = (name: string);
            associations
              parent   = (par: person, chil: person);
              kids_of  = (p: person, kids: {person});
            functions
              children: person -> {person};
            rules
              member(X, children(Y)) <- parent(par: Y, chil: X).
              kids_of(p: X, kids: K) <- parent(par: X), K = children(X).
        "#,
        );
        match s {
            Stratification::Stratified(strata) => assert_eq!(strata.len(), 2),
            _ => panic!("should be stratified"),
        }
    }

    #[test]
    fn deleting_heads_run_after_their_producers() {
        let s = strat(
            r#"
            associations
              q     = (d: integer);
              p     = (d: integer);
              mark  = (d: integer);
            rules
              mark(d: X) <- q(d: X), even(X).
              -p(X) <- p(X), mark(X).
        "#,
        );
        match s {
            Stratification::Stratified(strata) => {
                assert_eq!(strata.len(), 2);
                // The deleting rule (index 1) is in the later stratum.
                assert_eq!(strata[1], vec![1]);
            }
            _ => panic!("should be stratified"),
        }
    }

    #[test]
    fn deletion_feeding_back_through_a_producer_is_unstratifiable() {
        // mark derives from p and p is deleted from mark: a strict cycle.
        // The paper's answer is to evaluate such modules as a whole under
        // inflationary semantics (Example 4.2 is exactly this shape).
        let s = strat(
            r#"
            associations
              p     = (d: integer);
              mark  = (d: integer);
            rules
              mark(d: X) <- p(d: X), even(X).
              -p(X) <- p(X), mark(X).
        "#,
        );
        assert!(matches!(s, Stratification::Unstratifiable { .. }));
    }

    #[test]
    fn empty_ruleset_is_trivially_stratified() {
        let s = stratify(&RuleSet::new());
        assert!(matches!(s, Stratification::Stratified(_)));
    }
}
