//! Vertex relabelling utilities.
//!
//! Compression ratios depend strongly on neighbour-ID locality (paper §VI-A2: "interval
//! encoding appears crucial for these graphs"). This module applies a vertex
//! permutation to a graph and provides a uniformly random one, which destroys the
//! locality a generator's ID order carries.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use crate::csr::{CsrGraph, CsrGraphBuilder};
use crate::traits::Graph;
use crate::NodeId;

/// Applies a permutation to a graph: vertex `u` of the input becomes `perm[u]` in the
/// output. `perm` must be a bijection on `0..n`.
pub fn apply_permutation(graph: &CsrGraph, perm: &[NodeId]) -> CsrGraph {
    assert_eq!(perm.len(), graph.n(), "permutation length must equal n");
    debug_assert!(is_permutation(perm));
    let mut node_weights = vec![1u64; graph.n()];
    let mut any_node_weight = false;
    for u in 0..graph.n() as NodeId {
        let w = graph.node_weight(u);
        node_weights[perm[u as usize] as usize] = w;
        any_node_weight |= w != 1;
    }
    let mut b = if any_node_weight {
        CsrGraphBuilder::with_node_weights(node_weights)
    } else {
        CsrGraphBuilder::new(graph.n())
    };
    for u in 0..graph.n() as NodeId {
        graph.for_each_neighbor(u, &mut |v, w| {
            if u < v {
                b.add_edge(perm[u as usize], perm[v as usize], w);
            }
        });
    }
    b.build()
}

/// Returns `true` if `perm` is a bijection on `0..perm.len()`.
pub fn is_permutation(perm: &[NodeId]) -> bool {
    let mut seen = vec![false; perm.len()];
    for &p in perm {
        let idx = p as usize;
        if idx >= perm.len() || seen[idx] {
            return false;
        }
        seen[idx] = true;
    }
    true
}

/// A uniformly random permutation. Used to destroy locality in ablation experiments.
pub fn random_order(n: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut perm: Vec<NodeId> = (0..n as NodeId).collect();
    perm.shuffle(&mut rng);
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn identity_permutation_preserves_graph() {
        let g = gen::grid2d(5, 5);
        let perm: Vec<NodeId> = (0..g.n() as NodeId).collect();
        let h = apply_permutation(&g, &perm);
        assert_eq!(g, h);
    }

    #[test]
    fn permutation_preserves_structure_metrics() {
        let g = gen::rhg_like(300, 8, 3.0, 1);
        let perm = random_order(g.n(), 9);
        let h = apply_permutation(&g, &perm);
        assert_eq!(g.n(), h.n());
        assert_eq!(g.m(), h.m());
        assert_eq!(g.max_degree(), h.max_degree());
        assert_eq!(g.total_edge_weight(), h.total_edge_weight());
        // Degrees are preserved pointwise through the permutation.
        for u in 0..g.n() as NodeId {
            assert_eq!(g.degree(u), h.degree(perm[u as usize]));
        }
    }

    #[test]
    fn is_permutation_detects_duplicates_and_out_of_range() {
        assert!(is_permutation(&[0, 1, 2]));
        assert!(!is_permutation(&[0, 1, 1]));
        assert!(!is_permutation(&[0, 1, 3]));
        assert!(is_permutation(&[]));
    }

    #[test]
    fn node_weights_travel_with_vertices() {
        let g = gen::with_random_node_weights(&gen::grid2d(4, 4), 5, 7);
        let perm = random_order(g.n(), 1);
        let h = apply_permutation(&g, &perm);
        for u in 0..g.n() as NodeId {
            assert_eq!(g.node_weight(u), h.node_weight(perm[u as usize]));
        }
    }
}
