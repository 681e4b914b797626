//! What the work-bound tests (`fm_work_bound`, `initial_fm_work_bound`,
//! `uncoarsening_work_bound`, the clustering ones of `pipeline_integration`) share: a graph
//! wrapper that counts neighbourhood decodes, and the instance the two FM tests run on.
use std::sync::atomic::{AtomicU64, Ordering};

use graph::traits::Graph;
use graph::{gen, CsrGraph, CsrGraphBuilder, EdgeWeight, NodeId, NodeWeight};

/// Counts what [`Graph::for_each_neighbor`] hands out: half-edges in total and calls per
/// vertex. Weighted degrees come from a table, as they do on the subgraph view the
/// bisection tree runs on (recorded while the subgraph is extracted); the trait's default
/// would decode a neighbourhood per lookup.
pub struct CountingGraph {
    inner: CsrGraph,
    weighted_degrees: Vec<EdgeWeight>,
    half_edges: AtomicU64,
    calls: Vec<AtomicU64>,
}

impl CountingGraph {
    pub fn new(inner: CsrGraph) -> Self {
        Self {
            weighted_degrees: (0..inner.n() as NodeId)
                .map(|u| inner.weighted_degree(u))
                .collect(),
            calls: (0..inner.n()).map(|_| AtomicU64::new(0)).collect(),
            half_edges: AtomicU64::new(0),
            inner,
        }
    }

    /// Half-edges handed out so far.
    pub fn half_edges(&self) -> u64 {
        self.half_edges.load(Ordering::Relaxed)
    }

    /// How often `u`'s neighbourhood was decoded so far.
    pub fn calls(&self, u: NodeId) -> u64 {
        self.calls[u as usize].load(Ordering::Relaxed)
    }

    /// The `count` largest degrees summed, each vertex counted at most `repeats` times:
    /// an upper bound on `Σ deg(moved)` for `count` moves in `repeats` passes, which
    /// the refiners do not report themselves.
    #[allow(dead_code)] // not every test binary bounds a sum of degrees
    pub fn largest_degrees(&self, count: usize, repeats: usize) -> u64 {
        let mut degrees: Vec<u64> = (0..self.n() as NodeId)
            .map(|u| self.degree(u) as u64)
            .collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        degrees
            .iter()
            .flat_map(|&d| std::iter::repeat_n(d, repeats))
            .take(count)
            .sum()
    }
}

impl Graph for CountingGraph {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn m(&self) -> usize {
        self.inner.m()
    }
    fn degree(&self, u: NodeId) -> usize {
        self.inner.degree(u)
    }
    fn node_weight(&self, u: NodeId) -> NodeWeight {
        self.inner.node_weight(u)
    }
    fn total_node_weight(&self) -> NodeWeight {
        self.inner.total_node_weight()
    }
    fn total_edge_weight(&self) -> EdgeWeight {
        self.inner.total_edge_weight()
    }
    fn for_each_neighbor(&self, u: NodeId, f: &mut dyn FnMut(NodeId, EdgeWeight)) {
        self.calls[u as usize].fetch_add(1, Ordering::Relaxed);
        self.half_edges
            .fetch_add(self.inner.degree(u) as u64, Ordering::Relaxed);
        self.inner.for_each_neighbor(u, f);
    }
    fn weighted_degree(&self, u: NodeId) -> EdgeWeight {
        self.weighted_degrees[u as usize]
    }
    fn is_edge_weighted(&self) -> bool {
        self.inner.is_edge_weighted()
    }
    fn is_node_weighted(&self) -> bool {
        self.inner.is_node_weighted()
    }
}

#[allow(dead_code)] // not every test binary runs on the FM instance
pub const SPOKES: usize = 3_000;

/// `weblike(12, 8)` plus a hub whose `SPOKES` spokes each also touch one web vertex, so
/// spokes have a reason to move and every spoke move changes the hub's gains.
#[allow(dead_code)]
pub fn hub_and_spokes_on_weblike() -> (CsrGraph, NodeId) {
    let web = gen::weblike(12, 8, 3);
    let hub = web.n() as NodeId;
    let mut builder = CsrGraphBuilder::new(web.n() + 1 + SPOKES);
    for u in 0..web.n() as NodeId {
        web.for_each_neighbor(u, &mut |v, w| {
            if u < v {
                builder.add_edge(u, v, w);
            }
        });
    }
    for i in 0..SPOKES as NodeId {
        let spoke = hub + 1 + i;
        builder.add_edge(hub, spoke, 1);
        builder.add_edge(spoke, i % hub, 1);
    }
    (builder.build(), hub)
}
