//! Every weight at the width its bound needs, on the mesh of the benchmark's
//! coarsening-bound workload at a quarter of its size: `rgg2d(60 000, 8)`, `fast`,
//! k = 16, one thread. Level 0's clustering keeps a label and a 2-byte cluster weight per
//! vertex (its weight limit is below `u16::MAX`), and every coarse level packs its node
//! weights at the width of its cluster-weight limit or of its heaviest fine vertex,
//! whichever is heavier. This reads the memory accounting's peak, so it is the only
//! `#[test]` of its binary: a sibling test allocating concurrently would move the reading.

use graph::packed::{width_for, TAIL_PADDING};
use graph::traits::Graph;
use graph::{gen, CompressedGraph, CompressionConfig, NodeId, NodeWeight};
use memtrack::PhaseTracker;
use terapart::coarsening::{self, max_cluster_weight};
use terapart::{partition, PartitionerConfig, Preset};

/// The weight of the heaviest vertex of `graph`.
fn heaviest(graph: &impl Graph) -> NodeWeight {
    (0..graph.n() as NodeId)
        .map(|u| graph.node_weight(u))
        .max()
        .unwrap_or(0)
}

#[test]
fn every_weight_takes_the_width_its_bound_needs() {
    let n = 60_000;
    let k = 16;
    let csr = gen::rgg2d(n, 8, 3);
    let input = CompressedGraph::from_csr(&csr, &CompressionConfig::default());
    drop(csr);
    let config = PartitionerConfig::preset(Preset::Fast, k).with_threads(1);
    let result = partition(&input, &config);
    assert!(result.partition.is_balanced());

    // Labels, 2-byte cluster weights, the two frontier bitsets and the workers' rating
    // tables: measured 6.40 B per vertex with 4-byte ids and 10.47 B with 8-byte ids
    // (8.40 / 12.47 with 4-byte cluster weights).
    let cluster = result
        .phase_reports
        .iter()
        .find(|report| report.name == "cluster" && report.level == 0)
        .expect("level 0 is clustered");
    let per_vertex = cluster.auxiliary_bytes() as f64 / n as f64;
    println!("cluster@0 charges {per_vertex:.2} B per vertex beyond its entry");
    let bound = if std::mem::size_of::<NodeId>() == 4 {
        6.6
    } else {
        10.8
    };
    assert!(
        per_vertex <= bound,
        "cluster@0 charges {per_vertex:.2} B per vertex, over {bound}"
    );

    // Every coarse level stores n′ node weights at the width contraction fixed before
    // writing it: 1 byte on this mesh (every level's limit is 94), where a `u64` per
    // vertex took 8.
    let coarsening = &config.coarsening;
    let hierarchy = coarsening::coarsen(&input, &config, &PhaseTracker::new());
    assert!(hierarchy.depth() >= 2, "depth {}", hierarchy.depth());
    let mut fine: &dyn Graph = &input;
    for (level, coarse) in hierarchy.levels.iter().map(|l| &l.coarse).enumerate() {
        let limit = max_cluster_weight(
            fine.total_node_weight(),
            k,
            coarsening.contraction_limit,
            coarsening.max_cluster_weight_fraction,
        );
        let width = width_for(limit.max(heaviest(&fine)));
        let weights = coarse
            .compressed()
            .node_weights()
            .expect("a coarse level is node-weighted");
        println!(
            "level {}: {} coarse vertices, limit {limit}, {} B of node weights at {} B each",
            level + 1,
            coarse.n(),
            weights.size_in_bytes(),
            weights.width()
        );
        assert_eq!(weights.width(), width, "level {}", level + 1);
        assert!(width <= 2, "level {}: {width} B a weight", level + 1);
        assert_eq!(
            coarse.compressed().node_weight_bytes(),
            coarse.n() * width + TAIL_PADDING,
            "level {}",
            level + 1
        );
        fine = coarse;
    }
}
