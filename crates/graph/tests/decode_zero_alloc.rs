//! Neighbourhood decode must not touch the heap: with the tracking allocator installed,
//! a full `for_each_neighbor` sweep over a compressed graph never raises the live heap
//! bytes above their value before the sweep. The one `#[test]` of this binary, because
//! it reads `memtrack::global()` (see `store_memory_accounting.rs`).

use graph::compressed::HIGH_DEGREE_THRESHOLD;
use graph::traits::Graph;
use graph::{gen, CompressedGraph, CompressionConfig, NodeId};

#[global_allocator]
static ALLOC: memtrack::TrackingAllocator = memtrack::TrackingAllocator::system();

#[test]
fn for_each_neighbor_allocates_nothing() {
    let config = CompressionConfig::default();
    // rgg2d has interval runs and residuals, each neighbourhood one chunk; the star's hub
    // lies above the threshold, so it is decoded chunk by chunk. The weighted copies read
    // a weight behind every id.
    let mesh = gen::rgg2d(4_000, 12, 5);
    let star = gen::star(HIGH_DEGREE_THRESHOLD + 2_500);
    assert!(mesh.max_degree() <= HIGH_DEGREE_THRESHOLD);
    assert!(star.max_degree() > HIGH_DEGREE_THRESHOLD);
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
