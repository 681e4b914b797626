//! Uncompressed compressed-sparse-row (CSR) graph representation.
//!
//! This is the baseline representation the paper starts from (§III): an edge array `E` of
//! size `2m` and an offset array `P` of size `n + 1` such that `E[P[u]..P[u+1]]` holds the
//! neighbours of `u`. Edge and node weights are stored in optional side arrays; the
//! common unweighted case pays no memory for them.

use crate::traits::Graph;
use crate::{Edge, EdgeId, EdgeWeight, NodeId, NodeWeight};

/// An undirected graph in CSR form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// Offsets into `adjacency`; length `n + 1`.
    xadj: Vec<EdgeId>,
    /// Concatenated neighbourhoods; length `2m`.
    adjacency: Vec<NodeId>,
    /// Edge weights parallel to `adjacency`, or empty if all weights are 1.
    edge_weights: Vec<EdgeWeight>,
    /// Node weights, or empty if all weights are 1.
    node_weights: Vec<NodeWeight>,
    total_node_weight: NodeWeight,
    total_edge_weight: EdgeWeight,
    max_degree: usize,
}

impl CsrGraph {
    /// Builds a CSR graph directly from its raw arrays.
    ///
    /// `edge_weights` must be empty or have the same length as `adjacency`;
    /// `node_weights` must be empty or have length `xadj.len() - 1`.
    ///
    /// # Panics
    /// Panics if the arrays are structurally inconsistent (offsets not monotone, neighbour
    /// IDs out of range, mismatched weight array lengths, or self-loops).
    pub fn from_parts(
        xadj: Vec<EdgeId>,
        adjacency: Vec<NodeId>,
        edge_weights: Vec<EdgeWeight>,
        node_weights: Vec<NodeWeight>,
    ) -> Self {
        assert!(!xadj.is_empty(), "xadj must contain at least one offset");
        let n = xadj.len() - 1;
        crate::ids::assert_node_count(n, "CsrGraph::from_parts");
        assert_eq!(
            *xadj.last().unwrap() as usize,
            adjacency.len(),
            "last offset must equal the adjacency length"
        );
        assert!(
            edge_weights.is_empty() || edge_weights.len() == adjacency.len(),
            "edge weight array length mismatch"
        );
        assert!(
            node_weights.is_empty() || node_weights.len() == n,
            "node weight array length mismatch"
        );
        let mut max_degree = 0usize;
        for u in 0..n {
            assert!(xadj[u] <= xadj[u + 1], "offsets must be non-decreasing");
            let deg = (xadj[u + 1] - xadj[u]) as usize;
            max_degree = max_degree.max(deg);
            for &v in &adjacency[xadj[u] as usize..xadj[u + 1] as usize] {
                assert!((v as usize) < n, "neighbor id {} out of range", v);
                assert_ne!(v as usize, u, "self-loop at vertex {}", u);
            }
        }
        let total_edge_weight = if edge_weights.is_empty() {
            (adjacency.len() / 2) as EdgeWeight
        } else {
            edge_weights.iter().sum::<EdgeWeight>() / 2
        };
        let total_node_weight = if node_weights.is_empty() {
            n as NodeWeight
        } else {
            node_weights.iter().sum()
        };
        Self {
            xadj,
            adjacency,
            edge_weights,
            node_weights,
            total_node_weight,
            total_edge_weight,
            max_degree,
        }
    }

    /// Returns the offset array `P` (length `n + 1`).
    pub fn xadj(&self) -> &[EdgeId] {
        &self.xadj
    }

    /// Returns the adjacency array `E` (length `2m`).
    pub fn adjacency(&self) -> &[NodeId] {
        &self.adjacency
    }

    /// Returns the raw edge weight array (empty for unweighted graphs).
    pub fn raw_edge_weights(&self) -> &[EdgeWeight] {
        &self.edge_weights
    }

    /// Returns the raw node weight array (empty for uniformly weighted graphs).
    pub fn raw_node_weights(&self) -> &[NodeWeight] {
        &self.node_weights
    }

    /// Returns the first edge ID (index into the adjacency array) of `u`'s neighbourhood.
    pub fn first_edge(&self, u: NodeId) -> EdgeId {
        self.xadj[u as usize]
    }

    /// Returns the neighbours of `u` as a slice.
    pub fn neighbors_slice(&self, u: NodeId) -> &[NodeId] {
        &self.adjacency[self.xadj[u as usize] as usize..self.xadj[u as usize + 1] as usize]
    }

    /// Returns the edge weight of the half-edge with index `e`.
    pub fn edge_weight(&self, e: EdgeId) -> EdgeWeight {
        if self.edge_weights.is_empty() {
            1
        } else {
            self.edge_weights[e as usize]
        }
    }

    /// Number of bytes the CSR arrays occupy (the "uncompressed size" used when reporting
    /// compression ratios).
    pub fn size_in_bytes(&self) -> usize {
        self.xadj.len() * std::mem::size_of::<EdgeId>()
            + self.adjacency.len() * std::mem::size_of::<NodeId>()
            + self.edge_weights.len() * std::mem::size_of::<EdgeWeight>()
            + self.node_weights.len() * std::mem::size_of::<NodeWeight>()
    }

    /// Number of bytes the CSR arrays hold allocated: [`Self::size_in_bytes`] plus
    /// whatever spare capacity the vectors handed to [`Self::from_parts`] carried.
    pub fn allocated_bytes(&self) -> usize {
        self.xadj.capacity() * std::mem::size_of::<EdgeId>()
            + self.adjacency.capacity() * std::mem::size_of::<NodeId>()
            + self.edge_weights.capacity() * std::mem::size_of::<EdgeWeight>()
            + self.node_weights.capacity() * std::mem::size_of::<NodeWeight>()
    }

    /// Returns a copy of this graph with every neighbourhood sorted by neighbour ID.
    /// Sorted neighbourhoods maximise the effect of gap/interval encoding.
    pub fn sorted(&self) -> CsrGraph {
        let n = self.n();
        let mut adjacency = Vec::with_capacity(self.adjacency.len());
        let mut edge_weights = Vec::with_capacity(self.edge_weights.len());
        for u in 0..n as NodeId {
            let mut nbrs = self.neighbors_vec(u);
            nbrs.sort_unstable_by_key(|&(v, _)| v);
            for (v, w) in nbrs {
                adjacency.push(v);
                if !self.edge_weights.is_empty() {
                    edge_weights.push(w);
                }
            }
        }
        CsrGraph::from_parts(
            self.xadj.clone(),
            adjacency,
            edge_weights,
            self.node_weights.clone(),
        )
    }

    /// Checks the symmetry invariant: every half-edge `(u, v)` has a reverse `(v, u)` with
    /// the same weight. Intended for tests and debug assertions; runs in `O(m log d)`.
    pub fn is_symmetric(&self) -> bool {
        for u in 0..self.n() as NodeId {
            let mut ok = true;
            self.for_each_neighbor(u, &mut |v, w| {
                let mut found = false;
                self.for_each_neighbor(v, &mut |x, wx| {
                    if x == u && wx == w {
                        found = true;
                    }
                });
                ok &= found;
            });
            if !ok {
                return false;
            }
        }
        true
    }
}

impl Graph for CsrGraph {
    fn n(&self) -> usize {
        self.xadj.len() - 1
    }

    fn m(&self) -> usize {
        self.adjacency.len() / 2
    }

    fn degree(&self, u: NodeId) -> usize {
        (self.xadj[u as usize + 1] - self.xadj[u as usize]) as usize
    }

    fn node_weight(&self, u: NodeId) -> NodeWeight {
        if self.node_weights.is_empty() {
            1
        } else {
            self.node_weights[u as usize]
        }
    }

    fn total_node_weight(&self) -> NodeWeight {
        self.total_node_weight
    }

    fn total_edge_weight(&self) -> EdgeWeight {
        self.total_edge_weight
    }

    fn for_each_neighbor(&self, u: NodeId, f: &mut dyn FnMut(NodeId, EdgeWeight)) {
        let begin = self.xadj[u as usize] as usize;
        let end = self.xadj[u as usize + 1] as usize;
        if self.edge_weights.is_empty() {
            for &v in &self.adjacency[begin..end] {
                f(v, 1);
            }
        } else {
            for e in begin..end {
                f(self.adjacency[e], self.edge_weights[e]);
            }
        }
    }

    fn is_edge_weighted(&self) -> bool {
        !self.edge_weights.is_empty()
    }

    fn is_node_weighted(&self) -> bool {
        !self.node_weights.is_empty()
    }

    fn max_degree(&self) -> usize {
        self.max_degree
    }
}

/// Incremental builder that collects undirected edges and produces a validated
/// [`CsrGraph`].
///
/// Duplicate edges are merged by summing their weights; self-loops are dropped. Both
/// behaviours match how the paper's instances were prepared ("converted to undirected
/// graphs by adding missing reverse edges and removing any self-loops").
#[derive(Debug, Clone)]
pub struct CsrGraphBuilder {
    n: usize,
    edges: Vec<Edge>,
    node_weights: Vec<NodeWeight>,
}

impl CsrGraphBuilder {
    /// Creates a builder for a graph with `n` vertices, all of weight 1.
    pub fn new(n: usize) -> Self {
        crate::ids::assert_node_count(n, "CsrGraphBuilder");
        Self {
            n,
            edges: Vec::new(),
            node_weights: Vec::new(),
        }
    }

    /// Creates a builder with explicit node weights.
    pub fn with_node_weights(node_weights: Vec<NodeWeight>) -> Self {
        crate::ids::assert_node_count(node_weights.len(), "CsrGraphBuilder");
        Self {
            n: node_weights.len(),
            edges: Vec::new(),
            node_weights,
        }
    }

    /// Number of vertices of the graph being built.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds an undirected edge `{u, v}` with the given weight. Self-loops are ignored.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, weight: EdgeWeight) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge endpoint out of range"
        );
        if u == v {
            return;
        }
        self.edges.push(Edge::weighted(u, v, weight));
    }

    /// Sets the weight of vertex `u`.
    pub fn set_node_weight(&mut self, u: NodeId, weight: NodeWeight) {
        if self.node_weights.is_empty() {
            self.node_weights = vec![1; self.n];
        }
        self.node_weights[u as usize] = weight;
    }

    /// Finalises the builder into a CSR graph with sorted neighbourhoods.
    pub fn build(self) -> CsrGraph {
        let n = self.n;
        // Deduplicate undirected edges, merging parallel edges by weight.
        let mut canonical: std::collections::HashMap<(NodeId, NodeId), EdgeWeight> =
            std::collections::HashMap::with_capacity(self.edges.len());
        for e in &self.edges {
            let key = if e.u < e.v { (e.u, e.v) } else { (e.v, e.u) };
            *canonical.entry(key).or_insert(0) += e.weight;
        }
        let weighted = canonical.values().any(|&w| w != 1);

        let mut degrees = vec![0u64; n];
        for &(u, v) in canonical.keys() {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        let mut xadj = Vec::with_capacity(n + 1);
        let mut acc = 0u64;
        xadj.push(0);
        for &d in &degrees {
            acc += d;
            xadj.push(acc);
        }
        let total_half_edges = acc as usize;
        let mut adjacency = vec![0 as NodeId; total_half_edges];
        let mut edge_weights = if weighted {
            vec![0 as EdgeWeight; total_half_edges]
        } else {
            Vec::new()
        };
        let mut cursor: Vec<u64> = xadj[..n].to_vec();
        let mut sorted_edges: Vec<((NodeId, NodeId), EdgeWeight)> = canonical.into_iter().collect();
        sorted_edges.sort_unstable_by_key(|&((u, v), _)| (u, v));
        for ((u, v), w) in sorted_edges {
            let pu = cursor[u as usize] as usize;
            adjacency[pu] = v;
            if weighted {
                edge_weights[pu] = w;
            }
            cursor[u as usize] += 1;
            let pv = cursor[v as usize] as usize;
            adjacency[pv] = u;
            if weighted {
                edge_weights[pv] = w;
            }
            cursor[v as usize] += 1;
        }
        let graph = CsrGraph::from_parts(xadj, adjacency, edge_weights, self.node_weights);
        graph.sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> CsrGraph {
        let mut b = CsrGraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 0, 1);
        b.build()
    }

    #[test]
    fn triangle_structure() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.total_edge_weight(), 3);
        assert_eq!(g.total_node_weight(), 3);
        assert!(g.is_symmetric());
        assert!(!g.is_edge_weighted());
        assert!(!g.is_node_weighted());
    }

    #[test]
    fn duplicate_edges_merge_weights() {
        let mut b = CsrGraphBuilder::new(2);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 0, 2);
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.total_edge_weight(), 3);
        assert!(g.is_edge_weighted());
        assert_eq!(g.neighbors_vec(0), vec![(1, 3)]);
    }

    #[test]
    fn self_loops_are_dropped() {
        let mut b = CsrGraphBuilder::new(2);
        b.add_edge(0, 0, 5);
        b.add_edge(0, 1, 1);
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn node_weights_are_respected() {
        let mut b = CsrGraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.set_node_weight(2, 10);
        let g = b.build();
        assert_eq!(g.node_weight(2), 10);
        assert_eq!(g.node_weight(0), 1);
        assert_eq!(g.total_node_weight(), 12);
        assert!(g.is_node_weighted());
    }

    #[test]
    fn neighborhoods_are_sorted() {
        let mut b = CsrGraphBuilder::new(5);
        b.add_edge(0, 4, 1);
        b.add_edge(0, 2, 1);
        b.add_edge(0, 3, 1);
        b.add_edge(0, 1, 1);
        let g = b.build();
        assert_eq!(g.neighbors_slice(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn isolated_vertices_have_zero_degree() {
        let mut b = CsrGraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        let g = b.build();
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.neighbors_vec(3), vec![]);
    }

    #[test]
    fn size_in_bytes_counts_all_arrays() {
        let g = triangle();
        // 4 offsets * 8 bytes + 6 adjacency entries at the active id width.
        assert_eq!(g.size_in_bytes(), 4 * 8 + 6 * std::mem::size_of::<NodeId>());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = CsrGraphBuilder::new(2);
        b.add_edge(0, 5, 1);
    }

    #[test]
    fn first_edge_and_edge_weight_access() {
        let g = triangle();
        assert_eq!(g.first_edge(0), 0);
        assert_eq!(g.first_edge(1), 2);
        assert_eq!(g.edge_weight(0), 1);
    }

    #[test]
    fn empty_graph() {
        let b = CsrGraphBuilder::new(0);
        let g = b.build();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
    }
}
