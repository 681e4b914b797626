//! Work bound of one initial-bipartitioning attempt: a neighbourhood is decoded only
//! because its vertex changes sides — grown into block 0, moved by FM, or moved back by
//! FM's rollback — never per pass, and never to recount gains or the cut. The count below
//! is exact and timing-free. A 2-way FM that recomputes the gains per pass and moves every
//! vertex before rolling nearly all of it back decodes `2 · 2m` per pass on its own and
//! fails it.
mod common;

use common::{hub_and_spokes_on_weblike, CountingGraph};
use graph::traits::Graph;
use terapart::initial::bipartition::bipartition;

const FM_PASSES: usize = 3;
/// `STOP_AFTER` of `initial/bipartition.rs`: the moves a pass may make past its best prefix.
const STOP_AFTER: u64 = 200;

#[test]
fn one_attempt_decodes_neighbourhoods_in_proportion_to_the_vertices_it_moves() {
    let (inner, hub) = hub_and_spokes_on_weblike();
    let graph = CountingGraph::new(inner);
    let total = graph.total_node_weight();
    let limit = total / 2 + total / 20;
    let result = bipartition(&graph, total / 2, [limit, limit], FM_PASSES, 7);
    let fm = result.fm;
    assert!(
        fm.moves_kept > 100,
        "the instance must give FM work: {fm:?}"
    );

    // A pass stops `STOP_AFTER` moves after its last new best prefix.
    assert!(fm.passes <= FM_PASSES as u64);
    assert!(
        fm.moves_tried <= fm.moves_kept + STOP_AFTER * fm.passes,
        "passes ran on after they stopped improving: {fm:?}"
    );

    // Growing decodes a vertex at most once; a pass decodes it once if it moves and once
    // more if that move is rolled back.
    let hub_calls = graph.calls(hub);
    assert!(
        hub_calls <= 1 + 2 * fm.passes,
        "the hub was decoded {hub_calls} times in {} passes",
        fm.passes
    );

    // Σ deg(moved) is not reported; the `moves_tried` largest degrees, each vertex at most
    // once per pass, bound it from above.
    let moved_degree = graph.largest_degrees(fm.moves_tried as usize, fm.passes as usize);
    let half_edges = 2 * graph.m() as u64;
    let decoded = graph.half_edges();
    assert!(
        decoded <= half_edges + 2 * moved_degree,
        "decoded {decoded} half-edges > {half_edges} + 2 · {moved_degree} ({fm:?})"
    );
    // The bound above is loose where hubs could have moved; this one is not: growing and
    // all the FM passes together cost less than a single pass used to (a gain sweep plus a
    // move of every vertex, `2 · 2m`).
    assert!(
        decoded <= 2 * half_edges,
        "decoded {decoded} half-edges in {} passes over {half_edges}",
        fm.passes
    );
}
