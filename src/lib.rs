//! Integration surface for the LOGRES reproduction: the workload
//! generators the cross-crate tests in `tests/` share with the experiment
//! suite, re-exported for ad-hoc experimentation.
//!
//! The real library lives in the `logres` crate (and its substrates
//! `logres-model`, `logres-lang`, `logres-engine`, `algres`).

pub mod generators {
    //! Synthetic workloads: edge sets, the closure program over them and
    //! its reference answer. One copy serves the experiment suite and the
    //! tests: these are `logres_bench::workloads`' generators.

    pub use logres_bench::workloads::{
        chain_edges, closure_program, random_edges, reference_closure, tree_edges,
    };
}

#[cfg(test)]
mod tests {
    use super::generators::*;

    #[test]
    fn chain_closure_size_is_triangular() {
        let edges = chain_edges(10);
        assert_eq!(reference_closure(&edges).len(), 11 * 10 / 2);
    }

    #[test]
    fn random_edges_are_distinct_and_seeded() {
        let a = random_edges(20, 30, 42);
        let b = random_edges(20, 30, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 30);
    }

    #[test]
    fn tree_edges_have_requested_count() {
        assert_eq!(tree_edges(7).len(), 7);
    }
}
