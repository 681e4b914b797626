//! Work bound of k-way FM on the sparse gain table: the move loop answers gain queries
//! from table rows, so a vertex's neighbourhood is decoded when the table is built, when
//! the vertex itself moves, and for the final cut — never because a neighbour moved. The
//! count below is exact and timing-free. A query that walks the neighbourhood instead
//! decodes the hub once per spoke move, quadratic in the hub degree, and fails it.
use std::sync::atomic::{AtomicU64, Ordering};

use graph::traits::Graph;
use graph::{gen, CsrGraph, CsrGraphBuilder, EdgeWeight, NodeId, NodeWeight};
use terapart::refinement::kway_fm_refine;
use terapart::{BlockId, GainTableKind, Partition};

/// Counts what [`Graph::for_each_neighbor`] hands out: half-edges in total and calls per
/// vertex.
struct CountingGraph {
    inner: CsrGraph,
    half_edges: AtomicU64,
    calls: Vec<AtomicU64>,
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
}

const SPOKES: usize = 3_000;

/// `weblike(12, 8)` plus a hub whose `SPOKES` spokes each also touch one web vertex, so
/// spokes have a reason to move and every spoke move changes the hub's row.
fn hub_and_spokes_on_weblike() -> (CsrGraph, NodeId) {
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

#[test]
fn kway_fm_decodes_neighbourhoods_in_proportion_to_the_vertices_it_moves() {
    let (inner, hub) = hub_and_spokes_on_weblike();
    let k = 8;
    let assignment: Vec<BlockId> = (0..inner.n() as u32)
        .map(|u| (u.wrapping_mul(2_654_435_761) >> 8) % k as u32)
        .collect();
    let mut partition = Partition::from_assignment(&inner, k, 0.1, assignment);
    let graph = CountingGraph {
        calls: (0..inner.n()).map(|_| AtomicU64::new(0)).collect(),
        half_edges: AtomicU64::new(0),
        inner,
    };
    let stats = kway_fm_refine(&graph, &mut partition, GainTableKind::Sparse, 6, 96);
    let applied = stats.moves + stats.moves_rolled_back;
    assert!(applied > SPOKES / 2, "the instance must move many vertices");

    // Per pass a vertex moves at most once: its neighbourhood is decoded to update its
    // neighbours' rows, to re-insert them, and once more if the move is rolled back.
    // Beyond that: one sweep to build the table, one for the final cut, and in debug
    // builds the sampled row check of each pass.
    let passes = stats.passes as u64;
    let hub_calls = graph.calls[hub as usize].load(Ordering::Relaxed);
    assert!(
        hub_calls <= 2 + 4 * passes,
        "the hub was decoded {hub_calls} times in {passes} passes: once per spoke move?"
    );

    // Σ deg(moved) is not reported; the `applied` largest degrees, each vertex at most
    // once per pass, bound it from above using only what `FmStats` does report.
    let mut degrees: Vec<u64> = (0..graph.n() as NodeId)
        .map(|u| graph.degree(u) as u64)
        .collect();
    degrees.sort_unstable_by(|a, b| b.cmp(a));
    let moved_degree: u64 = degrees
        .iter()
        .flat_map(|&d| std::iter::repeat_n(d, stats.passes))
        .take(applied)
        .sum();
    let half_edges = 2 * graph.m() as u64;
    let decoded = graph.half_edges.load(Ordering::Relaxed);
    let bound = 3 * (passes * half_edges + moved_degree);
    assert!(
        decoded <= bound,
        "decoded {decoded} half-edges > 3 · ({passes} passes · {half_edges} + {moved_degree})"
    );
}
