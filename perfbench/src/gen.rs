//! Seeded input generators and the independent reachability oracle.
//!
//! Every generator takes the seed as an argument and emits LOGRES source
//! text; the engine sees only that text. The oracle is plain breadth-first
//! search over the same edge lists and shares no code with any LOGRES
//! evaluator.

use std::collections::{BTreeSet, VecDeque};

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Families in the `parent` forest.
pub const FAMILIES: usize = 64;
/// Nodes per family; each family is a random recursive tree.
pub const FAMILY_SIZE: usize = 64;
/// Nodes of the `bulk-derive` digraph. Sized so that one derivation takes
/// about 0.15 s on a 2-vCPU machine and a 30-second run holds over a
/// hundred, enough for a steady 10th percentile.
pub const GRAPH_NODES: usize = 240;
/// Distinct edges of the `bulk-derive` digraph.
pub const GRAPH_EDGES: usize = 480;

/// Name of forest node `id` in the generated text.
pub fn node(id: u32) -> String {
    format!("p{id}")
}

/// Parse a node name back to its id.
pub fn node_id(name: &str) -> Option<u32> {
    name.strip_prefix('p')?.parse().ok()
}

/// A directed graph over dense `u32` ids, with both adjacency directions so
/// the oracle can walk descendants and ancestors.
pub struct Graph {
    children: Vec<Vec<u32>>,
    parents: Vec<Vec<u32>>,
}

impl Graph {
    pub fn with_nodes(n: usize) -> Graph {
        Graph {
            children: vec![Vec::new(); n],
            parents: vec![Vec::new(); n],
        }
    }

    fn grow(&mut self, id: u32) {
        let need = id as usize + 1;
        if self.children.len() < need {
            self.children.resize(need, Vec::new());
            self.parents.resize(need, Vec::new());
        }
    }

    pub fn add(&mut self, from: u32, to: u32) {
        self.grow(from.max(to));
        self.children[from as usize].push(to);
        self.parents[to as usize].push(from);
    }

    pub fn remove(&mut self, from: u32, to: u32) {
        self.children[from as usize].retain(|&c| c != to);
        self.parents[to as usize].retain(|&p| p != from);
    }

    pub fn node_count(&self) -> usize {
        self.children.len()
    }

    /// Every edge, sorted.
    pub fn edges(&self) -> BTreeSet<(u32, u32)> {
        let mut out = BTreeSet::new();
        for (from, cs) in self.children.iter().enumerate() {
            for &to in cs {
                out.insert((from as u32, to));
            }
        }
        out
    }

    /// Nodes reachable from `start` by one or more edges, sorted.
    pub fn descendants(&self, start: u32) -> Vec<u32> {
        bfs(&self.children, start)
    }

    /// Nodes that reach `start` by one or more edges, sorted.
    pub fn ancestors(&self, start: u32) -> Vec<u32> {
        bfs(&self.parents, start)
    }

    /// The full transitive closure as sorted `(from, to)` pairs.
    pub fn closure(&self) -> Vec<(i64, i64)> {
        let mut out = Vec::new();
        for from in 0..self.children.len() as u32 {
            for to in self.descendants(from) {
                out.push((i64::from(from), i64::from(to)));
            }
        }
        out
    }
}

fn bfs(adj: &[Vec<u32>], start: u32) -> Vec<u32> {
    let mut seen = vec![false; adj.len()];
    let mut queue = VecDeque::new();
    let mut out = Vec::new();
    queue.push_back(start);
    while let Some(n) = queue.pop_front() {
        for &m in &adj[n as usize] {
            if !seen[m as usize] {
                seen[m as usize] = true;
                out.push(m);
                queue.push_back(m);
            }
        }
    }
    out.sort_unstable();
    out
}

/// The `parent` forest: `FAMILIES` random recursive trees of `FAMILY_SIZE`
/// nodes (node `i` of a family hangs under a uniformly chosen earlier node).
pub fn forest(seed: u64) -> Graph {
    let mut rng = Rng::new(seed);
    let mut g = Graph::with_nodes(FAMILIES * FAMILY_SIZE);
    for f in 0..FAMILIES {
        let base = f * FAMILY_SIZE;
        for i in 1..FAMILY_SIZE {
            let parent = base + rng.below(i);
            g.add(parent as u32, (base + i) as u32);
        }
    }
    g
}

/// The database text holding the forest as `parent` facts.
pub fn forest_source(g: &Graph) -> String {
    let mut src = String::from("associations\n  parent = (par: string, chil: string);\nfacts\n");
    for (from, to) in g.edges() {
        src.push_str(&format!(
            "  parent(par: \"{}\", chil: \"{}\").\n",
            node(from),
            node(to)
        ));
    }
    src
}

/// The persistent `ancestor` view, installed with RADI.
pub const ANCESTOR_VIEW: &str = "\
associations
  ancestor = (anc: string, des: string);
rules
  ancestor(anc: X, des: Y) <- parent(par: X, chil: Y).
  ancestor(anc: X, des: Z) <- parent(par: X, chil: Y), ancestor(anc: Y, des: Z).
";

/// A bound `ancestor` point query and the oracle's answer for it. Half the
/// draws ask for the descendants of a node, half for its ancestors.
pub struct PointQuery {
    pub text: String,
    pub expected: Vec<u32>,
}

pub fn point_query(rng: &mut Rng, g: &Graph, nodes: usize) -> PointQuery {
    let x = rng.below(nodes) as u32;
    if rng.below(2) == 0 {
        PointQuery {
            text: format!("goal ancestor(anc: \"{}\", des: D)?", node(x)),
            expected: g.descendants(x),
        }
    } else {
        PointQuery {
            text: format!("goal ancestor(anc: A, des: \"{}\")?", node(x)),
            expected: g.ancestors(x),
        }
    }
}

/// RIDV module inserting (or, `delete`, removing) one `parent` edge.
pub fn edge_update(from: u32, to: u32, delete: bool) -> String {
    format!(
        "rules\n  {}parent(par: \"{}\", chil: \"{}\") <- .\n",
        if delete { "-" } else { "" },
        node(from),
        node(to)
    )
}

/// Closure size the `bulk-derive` digraph is drawn to, and the relative
/// window it must land in.
pub const CLOSURE_TARGET: usize = 35_500;
pub const CLOSURE_TOLERANCE: f64 = 0.01;

/// A seeded random digraph with `GRAPH_EDGES` distinct non-loop edges whose
/// transitive closure lies within `CLOSURE_TOLERANCE` of `CLOSURE_TARGET`.
/// Closure sizes of such graphs range over ±25% from draw to draw, and the
/// derivation's cost follows them, so draws outside the window are
/// rejected: seeds then change the graph but not the amount of work.
pub fn digraph(seed: u64) -> Graph {
    let mut rng = Rng::new(seed);
    loop {
        let mut g = Graph::with_nodes(GRAPH_NODES);
        let mut seen = BTreeSet::new();
        while seen.len() < GRAPH_EDGES {
            let a = rng.below(GRAPH_NODES) as u32;
            let b = rng.below(GRAPH_NODES) as u32;
            if a != b && seen.insert((a, b)) {
                g.add(a, b);
            }
        }
        let size = (0..GRAPH_NODES as u32)
            .map(|n| g.descendants(n).len())
            .sum::<usize>();
        if (size as f64 / CLOSURE_TARGET as f64 - 1.0).abs() <= CLOSURE_TOLERANCE {
            return g;
        }
    }
}

/// The `bulk-derive` program: closure, a cycle test over it, and an
/// antijoin stratum reading the cycle test.
pub fn digraph_source(g: &Graph) -> String {
    let mut src = String::from(
        "\
associations
  e      = (a: integer, b: integer);
  reach  = (a: integer, b: integer);
  cyclic = (a: integer);
  acyc   = (a: integer, b: integer);
rules
  reach(a: X, b: Y) <- e(a: X, b: Y).
  reach(a: X, b: Z) <- reach(a: X, b: Y), e(a: Y, b: Z).
  cyclic(a: X) <- reach(a: X, b: X).
  acyc(a: X, b: Y) <- e(a: X, b: Y), not cyclic(a: X).
facts
",
    );
    for (a, b) in g.edges() {
        src.push_str(&format!("  e(a: {a}, b: {b}).\n"));
    }
    src
}

/// The all-free goal `bulk-derive` repeats.
pub const REACH_GOAL: &str = "goal reach(a: A, b: B)?";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_seeded() {
        assert_eq!(forest(7).edges(), forest(7).edges());
        assert_ne!(forest(7).edges(), forest(8).edges());
        let g = digraph(3);
        assert_eq!(g.edges().len(), GRAPH_EDGES);
        let size = g.closure().len() as f64;
        assert!((size / CLOSURE_TARGET as f64 - 1.0).abs() <= CLOSURE_TOLERANCE);
        assert_eq!(forest(1).edges().len(), FAMILIES * (FAMILY_SIZE - 1));
    }

    #[test]
    fn oracle_walks_both_directions() {
        let mut g = Graph::with_nodes(4);
        g.add(0, 1);
        g.add(1, 2);
        g.add(2, 0);
        assert_eq!(g.descendants(0), vec![0, 1, 2]);
        assert_eq!(g.ancestors(3), Vec::<u32>::new());
        g.remove(2, 0);
        assert_eq!(g.ancestors(0), Vec::<u32>::new());
        assert_eq!(g.closure().len(), 3);
    }
}
