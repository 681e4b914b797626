//! What a `Partition` says about itself stays true through every stage that carries or
//! changes it: after `project`, label propagation, k-way FM and
//! the rebalancer — at one and at two threads, from a known and from an
//! unknown starting state — the tracked cut equals a full recount, the block weights
//! equal a recount, and every vertex with a neighbour in another block is a boundary
//! candidate ([`Partition::check_tracked_state`] is that oracle).
use graph::traits::Graph;
use graph::{CsrGraph, CsrGraphBuilder, NodeId};
use proptest::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use terapart::coarsening::{contract, Clustering};
use terapart::refinement::{kway_fm_refine, lp_refine_with_scratch, rebalance};
use terapart::{
    BlockId, ClusterId, ContractionAlgorithm, GainTableKind, HierarchyScratch, Partition,
};

/// A sparse random graph with node and edge weights, a hub adjacent to every third
/// vertex, and a tail of isolated vertices.
fn random_graph(rng: &mut ChaCha8Rng) -> CsrGraph {
    let connected = rng.gen_range(24..160usize);
    let n = connected + rng.gen_range(0..12usize);
    let mut builder =
        CsrGraphBuilder::with_node_weights((0..n).map(|_| rng.gen_range(1..=4)).collect());
    for v in 1..connected as NodeId {
        if v % 3 == 0 {
            builder.add_edge(0, v, rng.gen_range(1..=9));
        }
        for _ in 0..rng.gen_range(1..4u32) {
            let other = rng.gen_range(1..connected as NodeId);
            if other != v {
                builder.add_edge(v, other, rng.gen_range(1..=9));
            }
        }
    }
    builder.build()
}

fn random_partition(graph: &CsrGraph, k: usize, epsilon: f64, rng: &mut ChaCha8Rng) -> Partition {
    let assignment = (0..graph.n())
        .map(|_| rng.gen_range(0..k as BlockId))
        .collect();
    Partition::from_assignment(graph, k, epsilon, assignment)
}

#[track_caller]
fn check(partition: &Partition, graph: &CsrGraph, stage: &str) {
    if let Err(violation) = partition.check_tracked_state(graph) {
        panic!("after {stage}: {violation}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn prop_every_stage_leaves_cut_weights_and_boundary_exact(
        seed in any::<u64>(),
        k in 2usize..9,
        threads in 1usize..3,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let fine = random_graph(&mut rng);
        let kind = [GainTableKind::None, GainTableKind::Dense, GainTableKind::Sparse]
            [rng.gen_range(0..3usize)];
        let epsilon = [0.03, 0.5][rng.gen_range(0..2usize)];
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| {
            let mut scratch = HierarchyScratch::new();
            let lp_seed = rng.gen_range(0..1u64 << 32);

            // A real contraction (random clusters, adjacent or not), a coarse partition
            // with known state, and its projection.
            let groups = rng.gen_range(2..fine.n() / 2) as ClusterId;
            let clustering = Clustering::from_labels(
                (0..fine.n()).map(|_| rng.gen_range(0..groups)).collect(),
            );
            let contracted = contract(&fine, &clustering, ContractionAlgorithm::OnePass, 64);
            let coarse = &contracted.coarse;
            let mut partition = random_partition(coarse, k, epsilon, &mut rng);
            lp_refine_with_scratch(coarse, &mut partition, 2, lp_seed, &mut scratch);
            check(&partition, coarse, "label propagation on the coarse graph");
            prop_assert!(partition.tracked_cut().is_some());
            prop_assert!(partition.boundary_candidates().is_some());
            let coarse_cut = partition.edge_cut();
            let mut partition = partition.project(&fine, &contracted.mapping);
            prop_assert_eq!(partition.edge_cut(), coarse_cut);
            check(&partition, &fine, "project");

            // Every refiner from the known state the previous one left ...
            lp_refine_with_scratch(&fine, &mut partition, 3, lp_seed, &mut scratch);
            check(&partition, &fine, "label propagation");
            rebalance(&fine, &mut partition);
            check(&partition, &fine, "rebalance");
            kway_fm_refine(&fine, &mut partition, kind, 3, 32);
            check(&partition, &fine, "k-way FM");
            prop_assert!(partition.boundary_candidates().is_some());

            // ... and from a state nobody knows anything about.
            let start = random_partition(&fine, k, epsilon, &mut rng);
            for stage in 0..3 {
                let mut partition = start.clone();
                match stage {
                    0 => {
                        lp_refine_with_scratch(&fine, &mut partition, 3, lp_seed, &mut scratch);
                        prop_assert!(partition.boundary_candidates().is_some());
                    }
                    1 => { rebalance(&fine, &mut partition); }
                    _ => { kway_fm_refine(&fine, &mut partition, kind, 3, 32); }
                }
                check(&partition, &fine, "a refiner on an unknown state");
                prop_assert!(stage == 1 || partition.tracked_cut().is_some());
            }
        });
    }
}
