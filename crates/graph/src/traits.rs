//! The [`Graph`] accessor trait.
//!
//! Every partitioning algorithm in this repository is generic over `G: Graph`, so the
//! same code runs on the uncompressed [`CsrGraph`](crate::csr::CsrGraph) and on the
//! [`CompressedGraph`](crate::compressed::CompressedGraph) with on-the-fly decoding —
//! exactly the property the paper needs ("iterating over a neighborhood by on-the-fly
//! decoding at speeds close to the uncompressed graph").
//!
//! Neighbourhood access uses a callback style (`for_each_neighbor`) rather than returning
//! iterators. This keeps the trait object-safe-free and avoids generic associated types
//! while letting the compressed implementation decode without allocating.

use crate::{EdgeWeight, NodeId, NodeWeight};

/// Read-only access to an undirected, possibly weighted graph.
///
/// Implementations must represent each undirected edge `{u, v}` as two directed
/// half-edges, one in each endpoint's neighbourhood. Self-loops are not allowed.
pub trait Graph: Sync {
    /// Number of vertices.
    fn n(&self) -> usize;

    /// Number of undirected edges (half the number of stored directed half-edges).
    fn m(&self) -> usize;

    /// Degree of vertex `u` (number of incident undirected edges).
    fn degree(&self, u: NodeId) -> usize;

    /// Weight of vertex `u`.
    fn node_weight(&self, u: NodeId) -> NodeWeight;

    /// Sum of all vertex weights.
    fn total_node_weight(&self) -> NodeWeight;

    /// Sum of all edge weights (each undirected edge counted once).
    fn total_edge_weight(&self) -> EdgeWeight;

    /// Invokes `f(v, w)` for every neighbour `v` of `u` with edge weight `w`.
    fn for_each_neighbor(&self, u: NodeId, f: &mut dyn FnMut(NodeId, EdgeWeight));

    /// Returns `true` if the graph stores non-uniform edge weights.
    fn is_edge_weighted(&self) -> bool {
        false
    }

    /// Returns `true` if the graph stores non-uniform node weights.
    fn is_node_weighted(&self) -> bool {
        false
    }

    /// Maximum degree over all vertices.
    fn max_degree(&self) -> usize {
        (0..self.n() as NodeId)
            .map(|u| self.degree(u))
            .max()
            .unwrap_or(0)
    }

    /// Sum of `min(degree(u), cap)` over all vertices — the memory bound of the sparse
    /// gain table (paper §V).
    fn total_capped_degree(&self, cap: usize) -> usize {
        (0..self.n() as NodeId)
            .map(|u| self.degree(u).min(cap))
            .sum()
    }

    /// Collects the neighbourhood of `u` into a vector of `(neighbor, weight)` pairs.
    ///
    /// Convenience for tests and small helper algorithms; hot code should prefer
    /// [`Graph::for_each_neighbor`].
    fn neighbors_vec(&self, u: NodeId) -> Vec<(NodeId, EdgeWeight)> {
        let mut out = Vec::with_capacity(self.degree(u));
        self.for_each_neighbor(u, &mut |v, w| out.push((v, w)));
        out
    }

    /// Weighted degree of `u`: the sum of weights of incident edges.
    fn weighted_degree(&self, u: NodeId) -> EdgeWeight {
        let mut total = 0;
        self.for_each_neighbor(u, &mut |_, w| total += w);
        total
    }

    /// Pours representation-level counters (page-cache hits/misses, bytes read,
    /// retried reads, ...) into an observability registry at the end of a run. The
    /// default for in-memory representations records nothing; the
    /// [`PagedGraph`](crate::store::PagedGraph) exports its settled cache statistics.
    fn record_obs_metrics(&self, _metrics: &obs::MetricsRegistry) {}
}

/// Blanket implementation so `&G` can be passed wherever a `Graph` is expected.
impl<G: Graph + ?Sized> Graph for &G {
    fn n(&self) -> usize {
        (**self).n()
    }
    fn m(&self) -> usize {
        (**self).m()
    }
    fn degree(&self, u: NodeId) -> usize {
        (**self).degree(u)
    }
    fn node_weight(&self, u: NodeId) -> NodeWeight {
        (**self).node_weight(u)
    }
    fn total_node_weight(&self) -> NodeWeight {
        (**self).total_node_weight()
    }
    fn total_edge_weight(&self) -> EdgeWeight {
        (**self).total_edge_weight()
    }
    fn for_each_neighbor(&self, u: NodeId, f: &mut dyn FnMut(NodeId, EdgeWeight)) {
        (**self).for_each_neighbor(u, f)
    }
    fn record_obs_metrics(&self, metrics: &obs::MetricsRegistry) {
        (**self).record_obs_metrics(metrics)
    }
    fn is_edge_weighted(&self) -> bool {
        (**self).is_edge_weighted()
    }
    fn is_node_weighted(&self) -> bool {
        (**self).is_node_weighted()
    }
    fn max_degree(&self) -> usize {
        (**self).max_degree()
    }
    fn total_capped_degree(&self, cap: usize) -> usize {
        (**self).total_capped_degree(cap)
    }
    fn neighbors_vec(&self, u: NodeId) -> Vec<(NodeId, EdgeWeight)> {
        (**self).neighbors_vec(u)
    }
    fn weighted_degree(&self, u: NodeId) -> EdgeWeight {
        (**self).weighted_degree(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraphBuilder;

    #[test]
    fn default_methods_work_through_reference() {
        let mut b = CsrGraphBuilder::new(3);
        b.add_edge(0, 1, 2);
        b.add_edge(1, 2, 3);
        let g = b.build();
        let gr: &dyn Fn() = &|| {};
        let _ = gr; // silence unused closure pattern
        let by_ref: &crate::csr::CsrGraph = &g;
        assert_eq!(by_ref.max_degree(), 2);
        assert_eq!(by_ref.weighted_degree(1), 5);
        assert_eq!(by_ref.total_capped_degree(1), 3);
        assert_eq!(by_ref.neighbors_vec(0), vec![(1, 2)]);
    }
}
