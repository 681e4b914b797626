//! Work bound of k-way FM on the sparse gain table: the move loop answers gain queries
//! from table rows, so a vertex's neighbourhood is decoded when the table is built, when
//! the vertex itself moves, and for the final cut — never because a neighbour moved. The
//! count below is exact and timing-free. A query that walks the neighbourhood instead
//! decodes the hub once per spoke move, quadratic in the hub degree, and fails it.
mod common;

use common::{hub_and_spokes_on_weblike, CountingGraph, SPOKES};
use graph::traits::Graph;
use terapart::refinement::kway_fm_refine;
use terapart::{BlockId, GainTableKind, Partition};

#[test]
fn kway_fm_decodes_neighbourhoods_in_proportion_to_the_vertices_it_moves() {
    let (inner, hub) = hub_and_spokes_on_weblike();
    let k = 8;
    let assignment: Vec<BlockId> = (0..inner.n() as u32)
        .map(|u| (u.wrapping_mul(2_654_435_761) >> 8) % k as u32)
        .collect();
    let mut partition = Partition::from_assignment(&inner, k, 0.1, assignment);
    let graph = CountingGraph::new(inner);
    let stats = kway_fm_refine(&graph, &mut partition, GainTableKind::Sparse, 6, 96);
    let applied = stats.moves + stats.moves_rolled_back;
    assert!(applied > SPOKES / 2, "the instance must move many vertices");

    // Per pass a vertex moves at most once: its neighbourhood is decoded to update its
    // neighbours' rows, to re-insert them, and once more if the move is rolled back.
    // Beyond that: one sweep to build the table, one for the final cut, and in debug
    // builds the sampled row check of each pass.
    let passes = stats.passes as u64;
    let hub_calls = graph.calls(hub);
    assert!(
        hub_calls <= 2 + 4 * passes,
        "the hub was decoded {hub_calls} times in {passes} passes: once per spoke move?"
    );

    // Σ deg(moved) is not reported; the `applied` largest degrees, each vertex at most
    // once per pass, bound it from above using only what `FmStats` does report.
    let moved_degree = graph.largest_degrees(applied, stats.passes);
    let half_edges = 2 * graph.m() as u64;
    let decoded = graph.half_edges();
    let bound = 3 * (passes * half_edges + moved_degree);
    assert!(
        decoded <= bound,
        "decoded {decoded} half-edges > 3 · ({passes} passes · {half_edges} + {moved_degree})"
    );
}
