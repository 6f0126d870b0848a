//! The predicate-dependency graph shared by stratification, the
//! whole-program lints and incremental maintenance.
//!
//! Nodes are predicates (classes, associations) and data functions; edges
//! run from a body predicate (or read function) to the head target of each
//! rule that consults it:
//!
//! * a positive body literal adds a *positive* edge body-pred → head-target;
//! * a negated body literal adds a *strict* edge (the body predicate must be
//!   completely evaluated first);
//! * reading a data function (a `member` body literal or a function
//!   application term) adds a *strict* edge — a set value is only meaningful
//!   once the function's extension is complete — unless the value provably
//!   flows only into element-wise `member` reads, which are monotone;
//! * a rule with a negative (deleting) head adds *strict* edges from every
//!   body predicate to the deleted predicate.
//!
//! [`crate::stratify`](mod@crate::stratify) layers the graph's
//! condensation into strata; [`crate::analyze`] walks the same graph for
//! reachability, dead-code, and non-termination lints; incremental
//! maintenance runs its strata in the condensation's order. So the analyses
//! can never disagree about what depends on what.

use logres_model::Sym;
use rustc_hash::{FxHashMap, FxHashSet};

use crate::ast::{Atom, Rule};

/// How one predicate depends on another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Monotone: the consumer may fire again as the producer grows, so both
    /// can share a stratum (positive recursion).
    Positive,
    /// The producer must be completely evaluated first (negation, whole-set
    /// function reads, deletion).
    Strict,
}

/// A dependency graph over the predicates and data functions of a rule set.
#[derive(Debug, Clone)]
pub struct DepGraph {
    nodes: Vec<Sym>,
    index: FxHashMap<Sym, usize>,
    edges: FxHashSet<(usize, usize, EdgeKind)>,
}

impl DepGraph {
    /// Build the graph for a sequence of rules: a rule set's `rules`, or
    /// any subset of them.
    pub fn build<'a>(rules: impl IntoIterator<Item = &'a Rule>) -> DepGraph {
        let mut g = DepGraph {
            nodes: Vec::new(),
            index: FxHashMap::default(),
            edges: FxHashSet::default(),
        };
        for rule in rules {
            let target = rule.head.target();
            let t = g.add_node(target);
            let head_strict = rule.head.negated;
            let monotone = monotone_function_reads(rule);
            for lit in &rule.body {
                match &lit.atom {
                    Atom::Pred { pred, .. } => {
                        let p = g.add_node(*pred);
                        // A deleting head must run after the producers of the
                        // predicates it consults — except the deleted predicate
                        // itself, which it is allowed to read in place
                        // (`-p(X) <- p(X), mark(X)` — Example 4.2).
                        let kind = if lit.negated || (head_strict && *pred != target) {
                            EdgeKind::Strict
                        } else {
                            EdgeKind::Positive
                        };
                        g.edges.insert((p, t, kind));
                    }
                    Atom::Member { fun, .. } => {
                        let p = g.add_node(*fun);
                        // An element-wise read of a function is monotone (the
                        // rule fires again as the set grows) — it may stay in
                        // the function's stratum, like positive recursion. A
                        // *negated* member read needs completeness.
                        let kind = if lit.negated {
                            EdgeKind::Strict
                        } else {
                            EdgeKind::Positive
                        };
                        g.edges.insert((p, t, kind));
                    }
                    Atom::Builtin { .. } => {}
                }
                // Function applications inside any literal's terms: strict
                // (the set is used as a whole value) unless the value provably
                // flows only into element-wise `member` reads.
                for fun in lit.atom.functions() {
                    if matches!(&lit.atom, Atom::Member { fun: f, .. } if *f == fun) {
                        continue; // already added above
                    }
                    let p = g.add_node(fun);
                    let kind = if monotone.contains(&fun) && !lit.negated && !head_strict {
                        EdgeKind::Positive
                    } else {
                        EdgeKind::Strict
                    };
                    g.edges.insert((p, t, kind));
                }
            }
            // Functions read in the *head* terms (e.g. `ancestor(des: Y)` with
            // `Y = desc(X)` handles this in the body; a direct head FunApp also
            // forces completeness).
            for fun in rule.head.atom.functions() {
                if matches!(&rule.head.atom, Atom::Member { fun: f, .. } if *f == fun) {
                    continue; // the head *defines* this function
                }
                let p = g.add_node(fun);
                g.edges.insert((p, t, EdgeKind::Strict));
            }
        }
        g
    }

    fn add_node(&mut self, s: Sym) -> usize {
        match self.index.get(&s) {
            Some(&i) => i,
            None => {
                self.nodes.push(s);
                self.index.insert(s, self.nodes.len() - 1);
                self.nodes.len() - 1
            }
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the graph empty?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node index of a predicate, if it occurs in any rule.
    pub fn node(&self, s: Sym) -> Option<usize> {
        self.index.get(&s).copied()
    }

    /// The predicate at a node index.
    pub fn sym(&self, i: usize) -> Sym {
        self.nodes[i]
    }

    /// All edges, sorted by (source name, target name, kind) so iteration is
    /// deterministic across runs and platforms.
    pub fn sorted_edges(&self) -> Vec<(usize, usize, EdgeKind)> {
        let mut edges: Vec<_> = self.edges.iter().copied().collect();
        edges.sort_by_key(|&(a, b, kind)| (self.nodes[a].as_str(), self.nodes[b].as_str(), kind));
        edges
    }

    /// Does the graph contain the edge?
    pub fn has_edge(&self, from: usize, to: usize, kind: EdgeKind) -> bool {
        self.edges.contains(&(from, to, kind))
    }

    /// Strongly connected components (Tarjan, iterative), in reverse
    /// topological order of the condensation — consumers first.
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for &(a, b, _) in &self.edges {
            adj[a].push(b);
        }
        tarjan(self.nodes.len(), &adj)
    }

    /// For each node, the index of its component in `sccs`.
    pub fn component_of(&self, sccs: &[Vec<usize>]) -> Vec<usize> {
        let mut c = vec![0usize; self.nodes.len()];
        for (ci, comp) in sccs.iter().enumerate() {
            for &v in comp {
                c[v] = ci;
            }
        }
        c
    }

    /// Components that contain a cycle: more than one node, or a self edge
    /// of any kind. A predicate in such a component is (transitively)
    /// recursive.
    pub fn cyclic_components(&self, sccs: &[Vec<usize>], comp_of: &[usize]) -> Vec<bool> {
        let mut cyclic = vec![false; sccs.len()];
        for (ci, comp) in sccs.iter().enumerate() {
            if comp.len() > 1 {
                cyclic[ci] = true;
            }
        }
        for &(a, b, _) in &self.edges {
            if a == b {
                cyclic[comp_of[a]] = true;
            }
        }
        cyclic
    }
}

/// Functions whose value, in this rule, provably flows only into
/// element-wise `member` reads: every application occurs as
/// `V = f(args)` with a plain variable `V` whose only other uses are as the
/// collection argument of positive `member(…, V)` builtins. Such reads are
/// monotone in the function's extension.
fn monotone_function_reads(rule: &Rule) -> FxHashSet<Sym> {
    use crate::ast::{Builtin, Term};

    let mut good: FxHashSet<Sym> = FxHashSet::default();
    let mut bad: FxHashSet<Sym> = FxHashSet::default();

    for (li, lit) in rule.body.iter().enumerate() {
        match &lit.atom {
            Atom::Builtin {
                builtin: Builtin::Eq,
                args,
                ..
            } if !lit.negated => {
                let var_fun = match (&args[0], &args[1]) {
                    (Term::Var(v), Term::FunApp { fun, args: fargs })
                    | (Term::FunApp { fun, args: fargs }, Term::Var(v)) => {
                        // Nested applications inside the arguments are
                        // whole-value uses of *those* functions.
                        for a in fargs {
                            for f in a.functions() {
                                bad.insert(f);
                            }
                        }
                        Some((*v, *fun))
                    }
                    _ => None,
                };
                match var_fun {
                    Some((v, fun)) => {
                        if var_only_feeds_member(rule, v, li) {
                            good.insert(fun);
                        } else {
                            bad.insert(fun);
                        }
                    }
                    None => {
                        for f in lit.atom.functions() {
                            bad.insert(f);
                        }
                    }
                }
            }
            Atom::Member { .. } => {
                // The member target itself is handled separately; nested
                // applications in its terms are whole-value uses.
                for f in lit.atom.functions() {
                    if !matches!(&lit.atom, Atom::Member { fun, .. } if *fun == f) {
                        bad.insert(f);
                    }
                }
            }
            _ => {
                for f in lit.atom.functions() {
                    bad.insert(f);
                }
            }
        }
    }
    good.retain(|f| !bad.contains(f));
    good
}

/// Is every use of `v` (outside body literal `def_idx`) the collection
/// argument of a positive `member` builtin?
fn var_only_feeds_member(rule: &Rule, v: Sym, def_idx: usize) -> bool {
    use crate::ast::{Builtin, Term};
    let head_uses = rule.head.atom.vars().iter().filter(|x| **x == v).count();
    if head_uses > 0 {
        return false;
    }
    for (li, lit) in rule.body.iter().enumerate() {
        if li == def_idx {
            continue;
        }
        let uses = lit.atom.vars().iter().filter(|x| **x == v).count();
        if uses == 0 {
            continue;
        }
        let ok = !lit.negated
            && matches!(
                &lit.atom,
                Atom::Builtin {
                    builtin: Builtin::Member,
                    args,
                    ..
                } if args[1] == Term::Var(v)
                    && !args[0].vars().contains(&v)
            );
        if !ok {
            return false;
        }
    }
    true
}

/// Iterative Tarjan strongly-connected components.
fn tarjan(n: usize, adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct NodeState {
        index: i64,
        lowlink: i64,
        on_stack: bool,
    }
    let mut st = vec![
        NodeState {
            index: -1,
            lowlink: -1,
            on_stack: false
        };
        n
    ];
    let mut next_index = 0i64;
    let mut stack: Vec<usize> = Vec::new();
    let mut out: Vec<Vec<usize>> = Vec::new();

    for root in 0..n {
        if st[root].index != -1 {
            continue;
        }
        // Explicit DFS stack: (node, next child position).
        let mut dfs: Vec<(usize, usize)> = vec![(root, 0)];
        st[root].index = next_index;
        st[root].lowlink = next_index;
        next_index += 1;
        stack.push(root);
        st[root].on_stack = true;

        while let Some(&mut (v, ref mut ci)) = dfs.last_mut() {
            if *ci < adj[v].len() {
                let w = adj[v][*ci];
                *ci += 1;
                if st[w].index == -1 {
                    st[w].index = next_index;
                    st[w].lowlink = next_index;
                    next_index += 1;
                    stack.push(w);
                    st[w].on_stack = true;
                    dfs.push((w, 0));
                } else if st[w].on_stack {
                    st[v].lowlink = st[v].lowlink.min(st[w].index);
                }
            } else {
                dfs.pop();
                if let Some(&mut (u, _)) = dfs.last_mut() {
                    let vl = st[v].lowlink;
                    st[u].lowlink = st[u].lowlink.min(vl);
                }
                if st[v].lowlink == st[v].index {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        st[w].on_stack = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    out.push(comp);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn graph(src: &str) -> DepGraph {
        let p = parse_program(src).expect("parses");
        DepGraph::build(&p.rules.rules)
    }

    #[test]
    fn positive_and_strict_edges_are_distinguished() {
        let g = graph(
            r#"
            associations
              p = (d: integer);
              q = (d: integer);
              r = (d: integer);
            rules
              r(d: X) <- p(d: X), not q(d: X).
        "#,
        );
        let (p, q, r) = (
            g.node(Sym::new("p")).unwrap(),
            g.node(Sym::new("q")).unwrap(),
            g.node(Sym::new("r")).unwrap(),
        );
        assert!(g.has_edge(p, r, EdgeKind::Positive));
        assert!(g.has_edge(q, r, EdgeKind::Strict));
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn sorted_edges_are_name_ordered() {
        let g = graph(
            r#"
            associations
              b = (d: integer);
              a = (d: integer);
              c = (d: integer);
            rules
              c(d: X) <- b(d: X).
              c(d: X) <- a(d: X).
        "#,
        );
        let names: Vec<&str> = g
            .sorted_edges()
            .iter()
            .map(|&(from, _, _)| g.sym(from).as_str())
            .collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn cyclic_components_cover_self_loops_and_mutual_recursion() {
        let g = graph(
            r#"
            associations
              p = (d: integer);
              q = (d: integer);
              base = (d: integer);
            rules
              p(d: X) <- q(d: X).
              q(d: X) <- p(d: X).
              p(d: X) <- base(d: X).
        "#,
        );
        let sccs = g.sccs();
        let comp_of = g.component_of(&sccs);
        let cyclic = g.cyclic_components(&sccs, &comp_of);
        let p = g.node(Sym::new("p")).unwrap();
        let base = g.node(Sym::new("base")).unwrap();
        assert!(cyclic[comp_of[p]]);
        assert!(!cyclic[comp_of[base]]);
    }
}
