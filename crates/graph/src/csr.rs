//! Uncompressed compressed-sparse-row (CSR) graph representation.
//!
//! This is the baseline representation the paper starts from (§III): an edge array `E` of
//! size `2m` and an offset array `P` of size `n + 1` such that `E[P[u]..P[u+1]]` holds the
//! neighbours of `u`. Edge and node weights are stored in optional side arrays; the
//! common unweighted case pays no memory for them.
//!
//! The edge weights are a [`PackedArray`]: each half-edge's weight in the fewest whole
//! bytes that hold the heaviest one. Coarse levels aggregate small weights — the
//! heaviest edge of a coarse R-MAT level weighs a few dozen — so a half-edge of such a
//! level costs `id + 1` bytes of adjacency and weight rather than `id + 8`. The data
//! fixes the width: there is no setting, and a weight of any `u64` value round-trips.
//! Offsets (`xadj`) and node weights stay plain `u64`.
//!
//! Compression ratios are measured against a *plain* CSR, [`plain_csr_bytes`]: the same
//! arrays with every edge weight in a full `EdgeWeight`, as the paper's uncompressed
//! baseline stores them. [`CsrGraph::size_in_bytes`] is what a graph holds resident.

use crate::packed::PackedArray;
use crate::traits::Graph;
use crate::{Edge, EdgeId, EdgeWeight, NodeId, NodeWeight};

/// An undirected graph in CSR form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// Offsets into `adjacency`; length `n + 1`.
    xadj: Vec<EdgeId>,
    /// Concatenated neighbourhoods; length `2m`.
    adjacency: Vec<NodeId>,
    /// Edge weights parallel to `adjacency`, packed at the width of the heaviest, or
    /// `None` if all weights are 1.
    edge_weights: Option<PackedArray>,
    /// Node weights, or empty if all weights are 1.
    node_weights: Vec<NodeWeight>,
    total_node_weight: NodeWeight,
    total_edge_weight: EdgeWeight,
    max_degree: usize,
}

/// Bytes of a plain CSR with `n` vertices and `m` edges: `n + 1` offsets, `2m` neighbour
/// ids, and `2m` full-width edge weights and `n` node weights where the graph carries
/// them. The fixed reference of every compression ratio, shared by
/// [`CsrGraph::plain_size_in_bytes`] and
/// [`TpgMeta::csr_size_in_bytes`](crate::store::TpgMeta::csr_size_in_bytes).
pub fn plain_csr_bytes(n: usize, m: usize, edge_weighted: bool, node_weighted: bool) -> usize {
    let half_edges = 2 * m;
    (n + 1) * std::mem::size_of::<EdgeId>()
        + half_edges * std::mem::size_of::<NodeId>()
        + if edge_weighted {
            half_edges * std::mem::size_of::<EdgeWeight>()
        } else {
            0
        }
        + if node_weighted {
            n * std::mem::size_of::<NodeWeight>()
        } else {
            0
        }
}

impl CsrGraph {
    /// Builds a CSR graph directly from its raw arrays, packing the edge weights once.
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
        let edge_weights = (!edge_weights.is_empty()).then(|| {
            let max = edge_weights.iter().copied().max().unwrap_or(0);
            PackedArray::pack(max, edge_weights.into_iter())
        });
        Self::from_packed_parts(xadj, adjacency, edge_weights, node_weights)
    }

    /// [`Self::from_parts`] with the edge weights already packed (`None`: all 1), as
    /// one-pass contraction writes them.
    ///
    /// # Panics
    /// As [`Self::from_parts`].
    pub fn from_packed_parts(
        xadj: Vec<EdgeId>,
        adjacency: Vec<NodeId>,
        edge_weights: Option<PackedArray>,
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
            edge_weights
                .as_ref()
                .is_none_or(|weights| weights.len() == adjacency.len()),
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
        let total_edge_weight = match &edge_weights {
            None => (adjacency.len() / 2) as EdgeWeight,
            Some(weights) => {
                (0..weights.len())
                    .map(|e| weights.get(e))
                    .sum::<EdgeWeight>()
                    / 2
            }
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

    /// Returns the raw node weight array (empty for uniformly weighted graphs).
    pub fn raw_node_weights(&self) -> &[NodeWeight] {
        &self.node_weights
    }

    /// Moves the node weights out (empty for uniformly weighted graphs), leaving every
    /// vertex weighing 1.
    pub(crate) fn take_node_weights(&mut self) -> Vec<NodeWeight> {
        self.total_node_weight = self.n() as NodeWeight;
        std::mem::take(&mut self.node_weights)
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
        self.edge_weights
            .as_ref()
            .map_or(1, |weights| weights.get(e as usize))
    }

    /// Number of bytes the CSR arrays occupy, the edge weights packed: what the graph
    /// holds resident and what a run charges for it.
    pub fn size_in_bytes(&self) -> usize {
        self.xadj.len() * std::mem::size_of::<EdgeId>()
            + self.adjacency.len() * std::mem::size_of::<NodeId>()
            + self.edge_weight_bytes()
            + self.node_weights.len() * std::mem::size_of::<NodeWeight>()
    }

    /// Number of bytes the CSR arrays hold allocated: [`Self::size_in_bytes`] plus
    /// whatever spare capacity the vectors handed to [`Self::from_parts`] carried (the
    /// packed edge weights never carry any).
    pub fn allocated_bytes(&self) -> usize {
        self.xadj.capacity() * std::mem::size_of::<EdgeId>()
            + self.adjacency.capacity() * std::mem::size_of::<NodeId>()
            + self.edge_weight_bytes()
            + self.node_weights.capacity() * std::mem::size_of::<NodeWeight>()
    }

    /// Bytes of this graph as a plain CSR ([`plain_csr_bytes`]), the "uncompressed size"
    /// that compression ratios are reported against.
    pub fn plain_size_in_bytes(&self) -> usize {
        plain_csr_bytes(
            self.n(),
            self.m(),
            self.is_edge_weighted(),
            !self.node_weights.is_empty(),
        )
    }

    /// Bytes of the packed edge weights, tail padding included (0 if unweighted).
    fn edge_weight_bytes(&self) -> usize {
        self.edge_weights
            .as_ref()
            .map_or(0, PackedArray::size_in_bytes)
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
        match &self.edge_weights {
            None => {
                for &v in &self.adjacency[begin..end] {
                    f(v, 1);
                }
            }
            Some(weights) => {
                for e in begin..end {
                    f(self.adjacency[e], weights.get(e));
                }
            }
        }
    }

    fn is_edge_weighted(&self) -> bool {
        self.edge_weights.is_some()
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

    /// Finalises the builder into a CSR graph with sorted neighbourhoods: a counting
    /// sort of both orientations of every edge added, by source, then one sort and
    /// duplicate merge per neighbourhood (see `aggregate_half_edges`).
    pub fn build(self) -> CsrGraph {
        let Self {
            n,
            edges,
            node_weights,
        } = self;
        let mut aggregated = FlatAdjacency::default();
        let Ok(()) = aggregate_half_edges(0, n, edges.as_slice(), &mut aggregated);
        drop(edges);
        let FlatAdjacency { starts, entries } = aggregated;
        let adjacency = entries.iter().map(|&(v, _)| v).collect();
        let edge_weights = if entries.iter().any(|&(_, w)| w != 1) {
            entries.iter().map(|&(_, w)| w).collect()
        } else {
            Vec::new()
        };
        CsrGraph::from_parts(starts, adjacency, edge_weights, node_weights)
    }
}

/// The aggregated adjacency of a vertex range in flat form:
/// `entries[starts[i]..starts[i + 1]]` is the neighbourhood of the range's `i`-th vertex,
/// sorted by neighbour id and free of duplicates.
#[derive(Default)]
pub(crate) struct FlatAdjacency {
    pub(crate) starts: Vec<EdgeId>,
    pub(crate) entries: Vec<(NodeId, EdgeWeight)>,
}

impl FlatAdjacency {
    /// Number of vertices in the range.
    pub(crate) fn vertex_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// The neighbourhood of the range's `i`-th vertex.
    pub(crate) fn neighbors(&self, i: usize) -> &[(NodeId, EdgeWeight)] {
        &self.entries[self.starts[i] as usize..self.starts[i + 1] as usize]
    }
}

/// Half-edges `(source, target, weight)` that [`aggregate_half_edges`] walks twice:
/// once to count each source's half-edges, once to scatter them.
pub(crate) trait HalfEdges {
    /// What a walk can fail with.
    type Error;

    /// Calls `f` on every half-edge.
    fn for_each(&self, f: impl FnMut(NodeId, NodeId, EdgeWeight)) -> Result<(), Self::Error>;
}

/// An undirected edge list is both orientations of every edge.
impl HalfEdges for [Edge] {
    type Error = std::convert::Infallible;

    fn for_each(&self, mut f: impl FnMut(NodeId, NodeId, EdgeWeight)) -> Result<(), Self::Error> {
        for e in self {
            f(e.u, e.v, e.weight);
            f(e.v, e.u, e.weight);
        }
        Ok(())
    }
}

/// Aggregates the half-edges whose sources lie in `lo..lo + span` into sorted,
/// duplicate-merged neighbourhoods, written over `into`'s buffers: the one aggregation
/// of [`CsrGraphBuilder::build`] (one range over every vertex) and of the streaming
/// builder's spill buckets (one buffer for all of them).
///
/// A counting sort by source scatters the half-edges into one flat array. Each
/// neighbourhood is then sorted by target, and repeated targets are merged by summing
/// their weights while the array is compacted in place: `O(B + Σ d log d)` time for `B`
/// half-edges, and nothing held beyond the `B` entries and `span + 1` offsets.
pub(crate) fn aggregate_half_edges<H: HalfEdges + ?Sized>(
    lo: usize,
    span: usize,
    half_edges: &H,
    into: &mut FlatAdjacency,
) -> Result<(), H::Error> {
    let FlatAdjacency { starts, entries } = into;
    // Count each source's half-edges one slot to the right, then turn the counts into
    // starts shifted by one: `starts[i + 1]` is the first slot of vertex `i`, and the
    // scatter advances it to the vertex's end, which is where vertex `i + 1` starts.
    starts.clear();
    starts.resize(span + 1, 0);
    half_edges.for_each(|src, _, _| {
        debug_assert!((lo..lo + span).contains(&(src as usize)));
        starts[src as usize - lo + 1] += 1;
    })?;
    let mut total = 0;
    for start in &mut starts[1..] {
        let count = *start;
        *start = total;
        total += count;
    }
    entries.clear();
    entries.resize(total as usize, (0, 0));
    half_edges.for_each(|src, dst, weight| {
        let slot = &mut starts[src as usize - lo + 1];
        entries[*slot as usize] = (dst, weight);
        *slot += 1;
    })?;
    // Sort and merge each neighbourhood, writing it behind the previous merged one.
    let (mut begin, mut write) = (0usize, 0usize);
    for i in 0..span {
        let end = starts[i + 1] as usize;
        entries[begin..end].sort_unstable_by_key(|&(v, _)| v);
        let first = write;
        for read in begin..end {
            let (v, weight) = entries[read];
            if write > first && entries[write - 1].0 == v {
                entries[write - 1].1 += weight;
            } else {
                entries[write] = (v, weight);
                write += 1;
            }
        }
        starts[i + 1] = write as EdgeId;
        begin = end;
    }
    entries.truncate(write);
    Ok(())
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
        assert_eq!(g.plain_size_in_bytes(), g.size_in_bytes());
    }

    #[test]
    fn the_plain_size_prices_full_width_weights() {
        // The triangle with weights 5, 7, 300: packed at 2 bytes a half-edge, plain at 8.
        let g = CsrGraph::from_parts(
            vec![0, 2, 4, 6],
            vec![1, 2, 0, 2, 0, 1],
            vec![5, 7, 5, 300, 7, 300],
            vec![1, 2, 3],
        );
        let ids_and_offsets = 4 * 8 + 6 * std::mem::size_of::<NodeId>();
        assert_eq!(
            g.size_in_bytes(),
            ids_and_offsets + 6 * 2 + crate::packed::TAIL_PADDING + 3 * 8
        );
        assert_eq!(g.plain_size_in_bytes(), ids_and_offsets + 6 * 8 + 3 * 8);
        assert_eq!(
            g.plain_size_in_bytes(),
            plain_csr_bytes(g.n(), g.m(), true, true)
        );
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

    /// The hash-map build `CsrGraphBuilder::build` replaced, kept as its oracle: merge
    /// the canonical `(min, max)` pairs in a `HashMap`, scatter them into CSR in key
    /// order, then sort every neighbourhood.
    fn hash_map_build(builder: CsrGraphBuilder) -> CsrGraph {
        let n = builder.n;
        let mut canonical: std::collections::HashMap<(NodeId, NodeId), EdgeWeight> =
            std::collections::HashMap::with_capacity(builder.edges.len());
        for e in &builder.edges {
            let key = if e.u < e.v { (e.u, e.v) } else { (e.v, e.u) };
            *canonical.entry(key).or_insert(0) += e.weight;
        }
        let weighted = canonical.values().any(|&w| w != 1);
        let mut degrees = vec![0u64; n];
        for &(u, v) in canonical.keys() {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        let mut xadj = vec![0u64];
        for &d in &degrees {
            xadj.push(xadj.last().unwrap() + d);
        }
        let total_half_edges = xadj[n] as usize;
        let mut adjacency = vec![0 as NodeId; total_half_edges];
        let mut edge_weights = vec![0 as EdgeWeight; if weighted { total_half_edges } else { 0 }];
        let mut cursor: Vec<u64> = xadj[..n].to_vec();
        let mut sorted_edges: Vec<((NodeId, NodeId), EdgeWeight)> = canonical.into_iter().collect();
        sorted_edges.sort_unstable_by_key(|&((u, v), _)| (u, v));
        for ((u, v), w) in sorted_edges {
            for (from, to) in [(u, v), (v, u)] {
                let slot = cursor[from as usize] as usize;
                adjacency[slot] = to;
                if weighted {
                    edge_weights[slot] = w;
                }
                cursor[from as usize] += 1;
            }
        }
        let unsorted = CsrGraph::from_parts(xadj, adjacency, edge_weights, builder.node_weights);
        let (mut adjacency, mut edge_weights) = (Vec::new(), Vec::new());
        for u in 0..n as NodeId {
            let mut nbrs = unsorted.neighbors_vec(u);
            nbrs.sort_unstable_by_key(|&(v, _)| v);
            for (v, w) in nbrs {
                adjacency.push(v);
                if weighted {
                    edge_weights.push(w);
                }
            }
        }
        CsrGraph::from_parts(
            unsorted.xadj.clone(),
            adjacency,
            edge_weights,
            unsorted.node_weights.clone(),
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        #[test]
        fn prop_build_equals_the_hash_map_build(
            n in 0usize..40,
            edges in proptest::collection::vec((0u32..40, 0u32..40, 0u64..4), 0..200),
            weights in 0u32..3,
            node_weights in proptest::collection::vec(0u64..5, 0..40),
            node_weighted in proptest::bool::ANY,
        ) {
            // `weights`: 0 = unit and simple (an unweighted graph), 1 = unit with
            // repeats (merged weights > 1), 2 = explicit weights 0..=3 with repeats.
            // Both orientations, repeats and self-loops all occur among 200 draws.
            let mut b = if node_weighted {
                CsrGraphBuilder::with_node_weights(
                    (0..n).map(|i| node_weights.get(i).copied().unwrap_or(1)).collect(),
                )
            } else {
                CsrGraphBuilder::new(n)
            };
            let mut seen = std::collections::HashSet::new();
            for &(u, v, w) in edges.iter().filter(|_| n > 0) {
                let (u, v) = (NodeId::from(u) % n as NodeId, NodeId::from(v) % n as NodeId);
                match weights {
                    0 if seen.insert((u.min(v), u.max(v))) => b.add_edge(u, v, 1),
                    0 => {}
                    1 => b.add_edge(u, v, 1),
                    _ => b.add_edge(u, v, w),
                }
            }
            let (built, oracle) = (b.clone().build(), hash_map_build(b));
            proptest::prop_assert_eq!(built.xadj(), oracle.xadj());
            proptest::prop_assert_eq!(built.adjacency(), oracle.adjacency());
            proptest::prop_assert_eq!(built.is_edge_weighted(), oracle.is_edge_weighted());
            for e in 0..built.adjacency().len() as EdgeId {
                proptest::prop_assert_eq!(built.edge_weight(e), oracle.edge_weight(e));
            }
            proptest::prop_assert_eq!(built.raw_node_weights(), oracle.raw_node_weights());
            proptest::prop_assert_eq!(built, oracle);
        }
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
