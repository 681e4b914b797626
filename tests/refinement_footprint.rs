//! Refinement moves vertices in the partition it is handed: label propagation's workers
//! through an atomic view of the partition's own assignment and block weights, k-way FM
//! in those arrays directly, rolling its move log back there. Neither holds a second
//! copy of the assignment, so what `refinement::refine` allocates beyond its entry is
//! LP's outgoing boundary bitset and rating maps, plus, with FM, its gain table and its
//! per-vertex queue state (target, lock flag and heap position).
//!
//! Measured on `rgg2d(60 000, 8)` at k = 16, one thread, from `fast`'s partition:
//! `fast` allocates 0.42 B per vertex (0.46 with 8-byte ids) and `default` 16.09 B
//! (20.85). While LP worked on an atomic copy of the assignment and FM on a `Vec` copy,
//! both committed back, they read 4.42 (4.46) and 20.09 (24.85).
//!
//! The bytes are counted by this binary's own allocator (`common/counting_alloc.rs`):
//! the memory accounting does not see the copies, which nobody charged. It is the only
//! `#[test]` of its binary, so no sibling test allocates during the reading.

use graph::gen;
use graph::traits::Graph;
use graph::NodeId;
use terapart::{partition, refinement, Partition, PartitionerConfig, Preset};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

/// Bytes per vertex `preset`'s refinement allocates beyond its entry when it refines a
/// copy of `start` on `graph` with seed 7.
fn refinement_bytes_per_vertex(graph: &graph::CsrGraph, start: &Partition, preset: Preset) -> f64 {
    let config = PartitionerConfig::preset(preset, start.k()).with_threads(1);
    let mut refined = start.clone();
    let (stats, peak) = counting_alloc::peak_beyond_entry(|| {
        refinement::refine(graph, &mut refined, &config.refinement, 7)
    });
    assert!(refined.is_balanced());
    let per_vertex = peak as f64 / graph.n() as f64;
    println!(
        "{preset:?}: refinement allocates {peak} B beyond its entry = {per_vertex:.2} B per \
         vertex ({} LP and {} FM moves)",
        stats.lp_moves, stats.fm_moves
    );
    per_vertex
}

#[test]
fn refinement_holds_no_copy_of_the_assignment() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    pool.install(|| {
        let graph = gen::rgg2d(60_000, 8, 3);
        let fast = PartitionerConfig::preset(Preset::Fast, 16).with_threads(1);
        let start = partition(&graph, &fast).partition;

        let lp = refinement_bytes_per_vertex(&graph, &start, Preset::Fast);
        assert!(
            lp <= 1.0,
            "fast's refinement allocates {lp:.2} B per vertex; a copy of the assignment is 4"
        );
        let fm = refinement_bytes_per_vertex(&graph, &start, Preset::Default);
        let fm_bound = if std::mem::size_of::<NodeId>() == 4 {
            17.0
        } else {
            22.0
        };
        assert!(
            fm <= fm_bound,
            "default's refinement allocates {fm:.2} B per vertex, over {fm_bound}"
        );
    });
}
