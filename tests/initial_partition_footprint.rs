//! Initial partitioning holds the coarsest graph once. The root bisection reads the graph
//! in place, and every deeper bisection extracts its subgraph into buffers sized once by
//! the summed degree of its vertices, with edge weights packed at the width of the
//! heaviest edge. What the stage allocates beyond its entry — membership map, tree
//! permutation, the root's weighted degrees, the extraction and attempt workspaces and
//! the returned partition — is bounded here against the coarsest `CsrGraph`'s own bytes.
//!
//! Measured at one thread: `weblike(15, 8)` at k = 64 allocates 1.46x its coarsest graph
//! (1 061 668 B) and `rgg2d(60 000, 8)` at k = 64 2.28x (123 984 B: with two edges a
//! vertex, the vertex-indexed attempt workspaces weigh more there). An extraction of the
//! root — a second copy of the coarsest graph at 4-byte ids and 8-byte weights, grown by
//! doubling — put them at 3.60x and 3.96x.
//!
//! The bytes are counted by this binary's own allocator (`common/counting_alloc.rs`)
//! rather than the memory accounting, which sees only what is charged: the workspace
//! pools are not. It is the only `#[test]` of its binary, so no sibling test allocates
//! during the reading.

use graph::traits::Graph;
use graph::{gen, CsrGraph};
use memtrack::PhaseTracker;
use terapart::{coarsening, initial_partition, PartitionerConfig, Preset};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

/// Coarsens `input` as the `fast` preset does at `k` blocks and one thread, then returns
/// what `initial_partition` allocated beyond its entry, over the coarsest graph's bytes.
fn peak_over_the_coarsest_graph(input: &CsrGraph, k: usize) -> f64 {
    let config = PartitionerConfig::preset(Preset::Fast, k).with_threads(1);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    pool.install(|| {
        let hierarchy = coarsening::coarsen(input, &config, &PhaseTracker::new());
        let coarsest = hierarchy.coarsest().unwrap_or(input);
        let (partition, peak) = counting_alloc::peak_beyond_entry(|| {
            initial_partition(coarsest, k, config.epsilon, &config.initial, config.seed)
        });
        assert!(partition.is_complete());
        let csr_bytes = coarsest.size_in_bytes();
        let factor = peak as f64 / csr_bytes as f64;
        println!(
            "k = {k}: the coarsest graph has {} vertices, {} edges, {csr_bytes} B; \
             initial partitioning allocates {peak} B beyond its entry = {factor:.2}x",
            coarsest.n(),
            coarsest.m()
        );
        factor
    })
}

#[test]
fn initial_partitioning_holds_the_coarsest_graph_once() {
    // R-MAT: coarsening stalls at depth 1 and leaves a core of ~190 k half-edges, whose
    // root bisection keeps nearly all of them on one side.
    let web = peak_over_the_coarsest_graph(&gen::weblike(15, 8, 3), 64);
    assert!(
        web <= 1.6,
        "weblike(15, 8): {web:.2}x the coarsest CSR; is the root extracted again?"
    );
    let mesh = peak_over_the_coarsest_graph(&gen::rgg2d(60_000, 8, 3), 64);
    assert!(mesh <= 2.5, "rgg2d(60 000, 8): {mesh:.2}x the coarsest CSR");
}
