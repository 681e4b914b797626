//! Neighbourhood decode must not touch the heap: with the tracking allocator installed,
//! a full `for_each_neighbor` sweep over a compressed graph never raises the live heap
//! bytes above their value before the sweep. The one `#[test]` of this binary, because
//! it reads `memtrack::global()` (see `store_memory_accounting.rs`).

use graph::traits::Graph;
use graph::{gen, CompressedGraph, CompressionConfig, NodeId};

#[global_allocator]
static ALLOC: memtrack::TrackingAllocator = memtrack::TrackingAllocator::system();

#[test]
fn for_each_neighbor_allocates_nothing() {
    let config = CompressionConfig::default();
    // rgg2d has interval runs and residuals; the star's hub is one walk of 12 500
    // neighbours. The weighted copies read a weight behind every id.
    let mesh = gen::rgg2d(4_000, 12, 5);
    let star = gen::star(12_501);
    assert_eq!(star.max_degree(), 12_500);
    let weighted_mesh = gen::with_random_edge_weights(&mesh, 1_000, 7);
    let weighted_star = gen::with_random_edge_weights(&star, 1_000, 7);
    for csr in [&mesh, &weighted_mesh, &star, &weighted_star] {
        let compressed = CompressedGraph::from_csr(csr, &config);
        assert_eq!(compressed.is_edge_weighted(), csr.is_edge_weighted());

        let mut half_edges = 0usize;
        let mut weight_sum = 0u64;
        let before = memtrack::global().current();
        memtrack::global().reset_peak();
        for u in 0..compressed.n() as NodeId {
            compressed.for_each_neighbor(u, &mut |_, w| {
                half_edges += 1;
                weight_sum += w;
            });
        }
        let peak = memtrack::global().peak();
        assert_eq!(half_edges, 2 * csr.m());
        assert_eq!(weight_sum, 2 * csr.total_edge_weight());
        assert!(
            peak <= before,
            "decode allocated: live heap bytes rose from {before} to {peak} during the sweep"
        );
    }
}
