//! The workspace of the recursive-bisection engine, which lives exactly as long as the
//! initial-partitioning stage: [`InitialPartitioningScratch::new`] allocates it for the
//! coarsest graph when the stage starts and it is freed — buffers, pools and memory
//! charge — when the stage returns, since nothing after the stage reads it.
//!
//! The root bisection reads the coarsest graph in place through a [`WholeGraph`], which
//! adds only the weighted degrees, the half-edge count and the totals an extraction would
//! have cached. The `2k - 2` nodes below it reuse
//!
//! * a single **epoch-tagged membership map** shared by every tree node: each bisection
//!   claims a fresh epoch from a monotonic counter and tags its vertices with
//!   `(epoch, local id)`, so membership tests never require clearing and concurrent
//!   sibling subtrees (which touch disjoint vertex sets) cannot observe each other's
//!   entries as their own;
//! * a pool of [`BisectionWorkspace`]s holding raw CSR buffers that induced subgraphs
//!   are extracted into directly (the global vertex order is ascending, so extracted
//!   neighbourhoods stay sorted for free). An extraction sizes its buffers once, by the
//!   summed degree of its vertices, and packs its edge weights at the width of the
//!   coarsest graph's heaviest edge;
//! * a pool of [`AttemptWorkspace`]s holding the side/gain/queue buffers of one
//!   greedy-growing + 2-way-FM portfolio attempt — all of them vertex-indexed.
//!
//! The root bisection and the extracted ones run the same portfolio on the one view type,
//! [`SubgraphView`]. Both pools are [`Pool`]s: a task leases a workspace and the lease
//! parks it again when the task drops it, so the number of live workspaces is bounded by
//! the number of running tasks (≤ thread count), not by the tree size. A buffer too small
//! for an extraction is replaced, never grown; the root's children (the largest
//! extracted subgraphs) size them and the rest of the tree runs allocation-free. The
//! membership map and the tree permutation are charged to the memory accounting; the
//! pooled workspaces and the root's weighted degrees are not, and the run report's
//! `initial_workspace_bytes` gauge shows what they held.

use std::sync::atomic::{AtomicU64, Ordering};

use graph::packed::PackedArray;
use graph::traits::Graph;
use graph::{AtomicNodeId, EdgeId, EdgeWeight, NodeId, NodeWeight};
use memtrack::MemoryScope;

use super::bipartition::{FmWork, TwoWay};
use crate::heap::AddressableMaxHeap;
use crate::scratch::Pool;

/// The workspace of one bisection tree, shared by all its nodes (see the module docs).
#[derive(Debug)]
pub struct InitialPartitioningScratch {
    /// Per global vertex: the epoch of the bisection that last tagged it. A vertex
    /// belongs to the subgraph of the bisection holding `epoch` iff the entry matches;
    /// stale entries from earlier (or concurrent sibling) bisections never match
    /// because epochs are unique. The epoch store/load pair carries release/acquire
    /// ordering so a matching epoch guarantees the corresponding local ID is visible.
    local_epoch: Vec<AtomicU64>,
    /// Per global vertex: the local ID under `local_epoch[u]`.
    local_id: Vec<AtomicNodeId>,
    /// Monotonic epoch source; 0 is reserved for "never written".
    epoch: AtomicU64,
    /// The vertex permutation the bisection tree partitions in place; child recursions
    /// operate on disjoint subslices of this single buffer.
    pub(crate) tree_vertices: Vec<NodeId>,
    /// Pool of induced-subgraph buffers.
    pub(crate) bisections: Pool<BisectionWorkspace>,
    /// Pool of portfolio-attempt buffers.
    pub(crate) attempts: Pool<AttemptWorkspace>,
    /// Charge of [`Self::memory_bytes`] against the global memory accounting, released
    /// when the workspace drops.
    _charge: MemoryScope<'static>,
}

impl InitialPartitioningScratch {
    /// The workspace of a bisection tree over the `n` vertices of the coarsest graph:
    /// the membership map and the tree permutation `0..n`, charged until it drops.
    pub fn new(n: usize) -> Self {
        let mut local_epoch = Vec::with_capacity(n);
        local_epoch.resize_with(n, || AtomicU64::new(0));
        let mut local_id = Vec::with_capacity(n);
        local_id.resize_with(n, || AtomicNodeId::new(0));
        let mut scratch = Self {
            local_epoch,
            local_id,
            epoch: AtomicU64::new(0),
            tree_vertices: (0..n as NodeId).collect(),
            bisections: Pool::new(),
            attempts: Pool::new(),
            _charge: MemoryScope::charge_global(0),
        };
        scratch._charge.grow(scratch.memory_bytes());
        scratch
    }

    /// Claims a fresh, globally unique epoch for one bisection node.
    pub(crate) fn next_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Tags `vertices[local] = u` with `epoch` in the membership map.
    ///
    /// The local ID is published *before* the epoch (release): a reader that observes
    /// the matching epoch (acquire) therefore observes the matching local ID. Slots are
    /// only ever written by the one task whose vertex set contains them — concurrent
    /// sibling subtrees touch disjoint sets — so a racing reader under a different
    /// epoch can at worst observe a foreign epoch value, which never matches its own.
    pub(crate) fn tag_members(&self, epoch: u64, vertices: &[NodeId]) {
        for (local, &u) in vertices.iter().enumerate() {
            self.local_id[u as usize].store(local as NodeId, Ordering::Relaxed);
            self.local_epoch[u as usize].store(epoch, Ordering::Release);
        }
    }

    /// Returns `u`'s local ID under `epoch`, or `None` if `u` is outside the subgraph.
    #[inline]
    pub(crate) fn local(&self, epoch: u64, u: NodeId) -> Option<NodeId> {
        (self.local_epoch[u as usize].load(Ordering::Acquire) == epoch)
            .then(|| self.local_id[u as usize].load(Ordering::Relaxed))
    }

    /// Heap bytes of the node-indexed structures (membership map + tree permutation):
    /// what the workspace charges.
    ///
    /// The pooled workspace buffers are *not* part of this figure: they are working
    /// memory sized by the largest task rather than node-indexed state, and are excluded
    /// from the charge. [`Self::pool_bytes`] exposes their current footprint for
    /// introspection.
    pub fn memory_bytes(&self) -> usize {
        self.local_epoch.len() * std::mem::size_of::<AtomicU64>()
            + self.local_id.len() * std::mem::size_of::<AtomicNodeId>()
            + self.tree_vertices.capacity() * std::mem::size_of::<NodeId>()
    }

    /// Heap bytes currently parked in the workspace pools.
    pub fn pool_bytes(&self) -> usize {
        self.bisections.parked_sum(BisectionWorkspace::memory_bytes)
            + self.attempts.parked_sum(AttemptWorkspace::memory_bytes)
    }
}

/// Empties `buffer` and makes room for exactly `len` entries. A buffer too small is
/// replaced rather than grown: the old one is freed before the new one is allocated, and
/// nothing is copied or over-allocated.
fn reset_exact<T>(buffer: &mut Vec<T>, len: usize) {
    buffer.clear();
    if buffer.capacity() < len {
        *buffer = Vec::new();
        buffer.reserve_exact(len);
    }
}

/// Buffers of one bisection-tree node below the root: the induced subgraph in raw CSR
/// form.
#[derive(Debug, Default)]
pub struct BisectionWorkspace {
    /// CSR offsets of the induced subgraph; length `n_sub + 1`.
    pub(crate) xadj: Vec<EdgeId>,
    /// CSR neighbour array (local IDs).
    pub(crate) adjacency: Vec<NodeId>,
    /// Edge weights parallel to `adjacency`, packed at the width of the tree's heaviest
    /// edge; its length is the room reserved, `adjacency.len()` the entries in use.
    pub(crate) edge_weights: PackedArray,
    /// Node weights of the subgraph vertices.
    pub(crate) node_weights: Vec<NodeWeight>,
    /// Weighted degrees: the start gains of an attempt, and FM's boundary test.
    pub(crate) weighted_degrees: Vec<EdgeWeight>,
    /// Total node weight (cached at extraction).
    pub(crate) total_node_weight: NodeWeight,
    /// Total edge weight (cached at extraction; undirected edges counted once).
    pub(crate) total_edge_weight: EdgeWeight,
}

impl BisectionWorkspace {
    /// Heap bytes held by the workspace buffers.
    pub fn memory_bytes(&self) -> usize {
        self.xadj.capacity() * std::mem::size_of::<EdgeId>()
            + self.adjacency.capacity() * std::mem::size_of::<NodeId>()
            + self.edge_weights.size_in_bytes()
            + self.node_weights.capacity() * std::mem::size_of::<NodeWeight>()
            + self.weighted_degrees.capacity() * std::mem::size_of::<EdgeWeight>()
    }

    /// Extracts the subgraph induced by `vertices` into this workspace's buffers. No edge
    /// of `graph` may weigh more than `heaviest_edge`, which sets the packed weight width.
    ///
    /// `vertices` must be ascending (the bisection tree maintains this invariant by
    /// partitioning stably), so extracted neighbourhoods remain sorted by local ID
    /// whenever the input graph's neighbourhoods are sorted by global ID.
    ///
    /// The buffers are sized once, before anything is written: the edge arrays by the
    /// summed degree of `vertices`, which bounds the internal half-edges. A buffer already
    /// large enough is reused, so deeper bisections of the same tree allocate nothing.
    pub(crate) fn extract(
        &mut self,
        graph: &dyn Graph,
        vertices: &[NodeId],
        scratch: &InitialPartitioningScratch,
        heaviest_edge: EdgeWeight,
    ) {
        let n_sub = vertices.len();
        let epoch = scratch.next_epoch();
        scratch.tag_members(epoch, vertices);

        let half_edge_bound: usize = vertices.iter().map(|&u| graph.degree(u)).sum();
        reset_exact(&mut self.xadj, n_sub + 1);
        reset_exact(&mut self.node_weights, n_sub);
        reset_exact(&mut self.weighted_degrees, n_sub);
        reset_exact(&mut self.adjacency, half_edge_bound);
        // One tree extracts at one width, so the room reserved is all that can fall short.
        if self.edge_weights.len() < half_edge_bound {
            self.edge_weights = PackedArray::default();
            self.edge_weights = PackedArray::zeroed(half_edge_bound, heaviest_edge);
        }

        // Single pass: neighbourhoods are appended directly and each vertex's offset is
        // recorded afterwards, so every half-edge pays exactly one membership lookup.
        let mut total_node_weight: NodeWeight = 0;
        let mut total_edge_weight: EdgeWeight = 0;
        self.xadj.push(0);
        for &u in vertices {
            let adjacency = &mut self.adjacency;
            let edge_weights = &mut self.edge_weights;
            let mut weighted_degree: EdgeWeight = 0;
            graph.for_each_neighbor(u, &mut |v, w| {
                if let Some(local) = scratch.local(epoch, v) {
                    edge_weights.set(adjacency.len(), w);
                    adjacency.push(local);
                    weighted_degree += w;
                }
            });
            total_edge_weight += weighted_degree;
            self.weighted_degrees.push(weighted_degree);
            self.xadj.push(self.adjacency.len() as EdgeId);
            let w = graph.node_weight(u);
            total_node_weight += w;
            self.node_weights.push(w);
        }
        self.total_node_weight = total_node_weight;
        self.total_edge_weight = total_edge_weight / 2;
    }

    /// A [`Graph`] view of the extracted subgraph.
    pub(crate) fn view(&self) -> SubgraphView<'_> {
        SubgraphView::Extracted(self)
    }
}

/// What the root bisection reads besides the graph itself: the figures an extraction of
/// every vertex would have cached, counted in one pass over the graph.
pub struct WholeGraph<'a> {
    graph: &'a dyn Graph,
    /// Weighted degree of every vertex: the start gains of an attempt, and FM's boundary
    /// test.
    weighted_degrees: Vec<EdgeWeight>,
    /// Summed degree: the half-edges of the graph.
    half_edges: usize,
    total_node_weight: NodeWeight,
    /// Undirected edges counted once.
    total_edge_weight: EdgeWeight,
    /// The weight of the heaviest edge, which bounds every subgraph's edge weights.
    heaviest_edge: EdgeWeight,
}

impl<'a> WholeGraph<'a> {
    /// Counts the weighted degrees, half-edges, totals and heaviest edge of `graph`.
    pub fn new(graph: &'a dyn Graph) -> Self {
        let n = graph.n();
        let mut weighted_degrees = Vec::with_capacity(n);
        let (mut half_edges, mut total_node_weight) = (0, 0);
        let (mut total_edge_weight, mut heaviest_edge) = (0, 0);
        for u in 0..n as NodeId {
            let mut weighted_degree: EdgeWeight = 0;
            graph.for_each_neighbor(u, &mut |_, w| {
                weighted_degree += w;
                heaviest_edge = heaviest_edge.max(w);
                half_edges += 1;
            });
            weighted_degrees.push(weighted_degree);
            total_edge_weight += weighted_degree;
            total_node_weight += graph.node_weight(u);
        }
        Self {
            graph,
            weighted_degrees,
            half_edges,
            total_node_weight,
            total_edge_weight: total_edge_weight / 2,
            heaviest_edge,
        }
    }

    /// The weight of the heaviest edge: every extraction from the graph packs its edge
    /// weights at its width.
    pub fn heaviest_edge(&self) -> EdgeWeight {
        self.heaviest_edge
    }

    /// Heap bytes held beside the graph: the weighted degrees.
    pub fn memory_bytes(&self) -> usize {
        self.weighted_degrees.capacity() * std::mem::size_of::<EdgeWeight>()
    }

    /// A [`Graph`] view of the whole graph.
    pub(crate) fn view(&self) -> SubgraphView<'_> {
        SubgraphView::Whole(self)
    }
}

/// The [`Graph`] the bipartition routines run on: the whole graph, read in place at the
/// root of the bisection tree, or a subgraph extracted into a [`BisectionWorkspace`]
/// below it. Both variants answer with the same local IDs, neighbourhoods and totals, so
/// the root's bisection is that of an extraction of every vertex, and the portfolio and
/// the bipartition routines compile once for every graph representation.
pub enum SubgraphView<'a> {
    /// The whole graph: local IDs are global IDs.
    Whole(&'a WholeGraph<'a>),
    /// An induced subgraph: local IDs are positions in its vertex slice.
    Extracted(&'a BisectionWorkspace),
}

impl SubgraphView<'_> {
    /// The half-edges of the subgraph (its summed degree): what a portfolio attempt's
    /// cost follows.
    pub fn half_edges(&self) -> usize {
        match self {
            Self::Whole(whole) => whole.half_edges,
            Self::Extracted(ws) => ws.adjacency.len(),
        }
    }
}

impl Graph for SubgraphView<'_> {
    fn n(&self) -> usize {
        match self {
            Self::Whole(whole) => whole.weighted_degrees.len(),
            Self::Extracted(ws) => ws.xadj.len().saturating_sub(1),
        }
    }

    fn m(&self) -> usize {
        self.half_edges() / 2
    }

    fn degree(&self, u: NodeId) -> usize {
        match self {
            Self::Whole(whole) => whole.graph.degree(u),
            Self::Extracted(ws) => (ws.xadj[u as usize + 1] - ws.xadj[u as usize]) as usize,
        }
    }

    fn node_weight(&self, u: NodeId) -> NodeWeight {
        match self {
            Self::Whole(whole) => whole.graph.node_weight(u),
            Self::Extracted(ws) => ws.node_weights[u as usize],
        }
    }

    fn total_node_weight(&self) -> NodeWeight {
        match self {
            Self::Whole(whole) => whole.total_node_weight,
            Self::Extracted(ws) => ws.total_node_weight,
        }
    }

    fn total_edge_weight(&self) -> EdgeWeight {
        match self {
            Self::Whole(whole) => whole.total_edge_weight,
            Self::Extracted(ws) => ws.total_edge_weight,
        }
    }

    fn for_each_neighbor(&self, u: NodeId, f: &mut dyn FnMut(NodeId, EdgeWeight)) {
        match self {
            Self::Whole(whole) => whole.graph.for_each_neighbor(u, f),
            Self::Extracted(ws) => {
                let begin = ws.xadj[u as usize] as usize;
                let end = ws.xadj[u as usize + 1] as usize;
                for e in begin..end {
                    f(ws.adjacency[e], ws.edge_weights.get(e));
                }
            }
        }
    }

    fn is_edge_weighted(&self) -> bool {
        true
    }

    fn is_node_weighted(&self) -> bool {
        true
    }

    fn weighted_degree(&self, u: NodeId) -> EdgeWeight {
        match self {
            Self::Whole(whole) => whole.weighted_degrees[u as usize],
            Self::Extracted(ws) => ws.weighted_degrees[u as usize],
        }
    }
}

/// Buffers of one greedy-growing + 2-way-FM portfolio attempt, every one of them indexed
/// by vertex. The attempt's resulting bipartition lives in `AttemptWorkspace::part`, so the
/// winning attempt's workspace doubles as the result carrier — no copy on the way out.
#[derive(Debug, Default)]
pub struct AttemptWorkspace {
    /// The bipartition with its weights, cut and gains.
    pub(crate) part: TwoWay,
    /// Restart order for greedy growing (shuffled per attempt).
    pub(crate) order: Vec<NodeId>,
    /// Growing: the frontier, keyed by connection weight to block 0. FM: the unlocked
    /// boundary vertices, keyed by gain.
    pub(crate) queue: AddressableMaxHeap,
    /// FM: vertices already moved in the current pass (all `false` between passes).
    pub(crate) locked: Vec<bool>,
    /// FM: move log for best-prefix rollback.
    pub(crate) moves: Vec<NodeId>,
    /// Growing: half-edges its flips decoded (the degree of every vertex grown into block 0).
    pub(crate) grow_half_edges: u64,
    /// FM: work counters of the current attempt.
    pub(crate) fm: FmWork,
}

impl AttemptWorkspace {
    /// Starts an attempt on `graph`: everything in block 1, nothing queued or locked.
    pub(crate) fn reset(&mut self, graph: &impl Graph) {
        self.part.reset(graph);
        self.queue.reset(graph.n());
        self.locked.clear();
        self.locked.resize(graph.n(), false);
        self.grow_half_edges = 0;
        self.fm = FmWork::default();
    }

    /// Heap bytes held by the workspace buffers.
    pub fn memory_bytes(&self) -> usize {
        self.part.side.capacity()
            + self.part.gains.capacity() * std::mem::size_of::<i64>()
            + self.locked.capacity()
            + self.order.capacity() * std::mem::size_of::<NodeId>()
            + self.moves.capacity() * std::mem::size_of::<NodeId>()
            + self.queue.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{gen, CompressedGraph, CompressionConfig};

    #[test]
    fn epoch_tags_keep_stale_entries_invisible() {
        let scratch = InitialPartitioningScratch::new(10);
        let e1 = scratch.next_epoch();
        scratch.tag_members(e1, &[2, 5, 7]);
        assert_eq!(scratch.local(e1, 5), Some(1));
        assert_eq!(scratch.local(e1, 3), None);
        // A later bisection over an overlapping set must not see e1's entries.
        let e2 = scratch.next_epoch();
        scratch.tag_members(e2, &[5]);
        assert_eq!(scratch.local(e2, 5), Some(0));
        assert_eq!(
            scratch.local(e2, 2),
            None,
            "stale entry from epoch 1 leaked"
        );
        assert_eq!(scratch.local(e1, 2), Some(0), "old epoch still addressable");
    }

    /// The heaviest edge of `g`, as the root of a bisection tree finds it.
    fn heaviest_edge(g: &dyn Graph) -> EdgeWeight {
        WholeGraph::new(g).heaviest_edge()
    }

    #[test]
    fn extract_matches_the_reference_extraction() {
        let unweighted = gen::rgg2d(300, 8, 11);
        // Edge weights beyond 2³² pack at five bytes.
        let heavy = gen::with_random_edge_weights(&unweighted, 1 << 40, 5);
        assert!(heaviest_edge(&heavy) >= 1 << 32);
        for g in [unweighted, heavy] {
            let vertices: Vec<NodeId> = (0..g.n() as NodeId).filter(|u| u % 3 != 0).collect();
            let reference = crate::initial::tests::induced_subgraph(&g, &vertices);
            let scratch = InitialPartitioningScratch::new(g.n());
            let mut ws = scratch.bisections.checkout();
            ws.extract(&g, &vertices, &scratch, heaviest_edge(&g));
            let view = ws.view();
            assert_eq!(view.n(), reference.n());
            assert_eq!(view.m(), reference.m());
            assert_eq!(view.total_node_weight(), reference.total_node_weight());
            assert_eq!(view.total_edge_weight(), reference.total_edge_weight());
            for u in 0..reference.n() as NodeId {
                assert_eq!(
                    view.neighbors_vec(u),
                    reference.neighbors_vec(u),
                    "vertex {u}"
                );
            }
        }
    }

    #[test]
    fn extraction_reserves_the_summed_degree_once() {
        let g = gen::weblike(10, 8, 3);
        let scratch = InitialPartitioningScratch::new(g.n());
        let mut ws = scratch.bisections.checkout();
        let all: Vec<NodeId> = (0..g.n() as NodeId).collect();
        let heaviest = heaviest_edge(&g);
        ws.extract(&g, &all[..g.n() / 2], &scratch, heaviest);
        let bound: usize = (0..g.n() as NodeId / 2).map(|u| g.degree(u)).sum();
        assert_eq!(ws.adjacency.capacity(), bound);
        assert_eq!(ws.edge_weights.len(), bound);
        assert_eq!(ws.xadj.capacity(), g.n() / 2 + 1);
        // A smaller subgraph fits: nothing is reallocated.
        let bytes = ws.memory_bytes();
        ws.extract(&g, &all[..g.n() / 4], &scratch, heaviest);
        assert_eq!(ws.memory_bytes(), bytes);
    }

    #[test]
    fn the_whole_graph_view_answers_as_the_extraction_of_every_vertex() {
        let g = gen::with_random_node_weights(
            &gen::with_random_edge_weights(&gen::rgg2d(400, 8, 3), 1_000, 4),
            9,
            5,
        );
        assert!(g.is_node_weighted() && g.is_edge_weighted());
        let compressed = CompressedGraph::from_csr(&g, &CompressionConfig::default());
        let all: Vec<NodeId> = (0..g.n() as NodeId).collect();
        for graph in [&g as &dyn Graph, &compressed] {
            let whole = WholeGraph::new(graph);
            let scratch = InitialPartitioningScratch::new(g.n());
            let mut ws = scratch.bisections.checkout();
            ws.extract(graph, &all, &scratch, whole.heaviest_edge());
            let (root, extracted) = (whole.view(), ws.view());
            assert_eq!(root.n(), extracted.n());
            assert_eq!(root.m(), extracted.m());
            assert_eq!(root.half_edges(), extracted.half_edges());
            assert_eq!(root.half_edges(), 2 * g.m());
            assert_eq!(root.total_node_weight(), extracted.total_node_weight());
            assert_eq!(root.total_edge_weight(), extracted.total_edge_weight());
            for u in all.iter().copied() {
                assert_eq!(root.degree(u), extracted.degree(u), "vertex {u}");
                assert_eq!(root.node_weight(u), extracted.node_weight(u));
                assert_eq!(root.weighted_degree(u), extracted.weighted_degree(u));
                assert_eq!(root.neighbors_vec(u), extracted.neighbors_vec(u));
            }
        }
    }

    #[test]
    fn pools_reuse_workspace_buffers() {
        let scratch = InitialPartitioningScratch::new(0);
        let mut ws = scratch.attempts.checkout();
        ws.order.reserve(1000);
        let capacity = ws.order.capacity();
        assert_eq!(scratch.pool_bytes(), 0, "a leased workspace is not parked");
        drop(ws);
        assert!(scratch.pool_bytes() >= capacity * std::mem::size_of::<NodeId>());
        let ws = scratch.attempts.checkout();
        assert_eq!(
            ws.order.capacity(),
            capacity,
            "pooled buffer must come back"
        );
    }
}
