//! Cross-crate integration tests: the full partitioning pipeline exercised through the
//! public APIs of the graph, terapart and memtrack crates together.
mod common;

use common::CountingGraph;
use graph::traits::Graph;
use graph::{gen, CompressedGraph, CompressionConfig, CsrGraphBuilder, NodeId};
use memtrack::MemoryScope;
use proptest::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use terapart::coarsening::cluster;
use terapart::{partition, CoarseningConfig, PartitionerConfig};

/// Every rung of the configuration ladder, on the CSR input up to two-phase LP and on
/// the compressed input from there on, produces a complete, balanced partition whose
/// cut is far below the expected cut of a random partition.
#[test]
fn configuration_ladder_end_to_end() {
    let graph = gen::rgg2d(3_000, 12, 21);
    let compressed = CompressedGraph::from_csr(&graph, &CompressionConfig::default());
    let k = 8;
    let random_cut = graph.m() as f64 * (k as f64 - 1.0) / k as f64;
    let on_csr = |config: PartitionerConfig| partition(&graph, &config.with_threads(2));
    let on_compressed = |config: PartitionerConfig| partition(&compressed, &config.with_threads(2));
    for result in [
        on_csr(PartitionerConfig::kaminpar(k)),
        on_csr(PartitionerConfig::kaminpar_two_phase_lp(k)),
        on_compressed(PartitionerConfig::kaminpar_two_phase_lp(k)),
        on_compressed(PartitionerConfig::terapart(k)),
        on_compressed(PartitionerConfig::terapart_fm(k)),
    ] {
        assert!(result.partition.is_complete());
        assert!(
            result.partition.is_balanced(),
            "imbalance {}",
            result.imbalance
        );
        assert!(
            (result.edge_cut as f64) < 0.5 * random_cut,
            "cut {} not much better than random {}",
            result.edge_cut,
            random_cut
        );
    }
}

/// The headline memory claim, at laptop scale: the full TeraPart configuration on the
/// compressed input never uses more accounted memory than the KaMinPar baseline on the
/// CSR input, each input charged for its run, on a memory-relevant instance.
#[test]
fn terapart_peak_memory_is_not_worse_than_kaminpar() {
    let graph = gen::weblike(13, 12, 5);
    let k = 64;
    let kaminpar = {
        let _input = MemoryScope::charge_global(graph.size_in_bytes());
        partition(&graph, &PartitionerConfig::kaminpar(k).with_threads(2))
    };
    let terapart_run = {
        let compressed = CompressedGraph::from_csr(&graph, &CompressionConfig::default());
        let _input = MemoryScope::charge_global(compressed.size_in_bytes());
        partition(&compressed, &PartitionerConfig::terapart(k).with_threads(2))
    };
    assert!(
        terapart_run.peak_memory_bytes <= kaminpar.peak_memory_bytes,
        "TeraPart peak {} exceeds KaMinPar peak {}",
        terapart_run.peak_memory_bytes,
        kaminpar.peak_memory_bytes
    );
    // Quality is preserved (the paper reports cuts within 0.03% on average; allow slack
    // at this scale).
    let ratio = terapart_run.edge_cut.max(1) as f64 / kaminpar.edge_cut.max(1) as f64;
    assert!(
        (0.8..1.25).contains(&ratio),
        "cut ratio {} too far from 1",
        ratio
    );
}

/// Partitioning the compressed representation gives the same quality class as CSR.
#[test]
fn compressed_representation_is_equivalent_for_partitioning() {
    let csr = gen::rgg2d(2_500, 14, 33);
    let compressed = CompressedGraph::from_csr(&csr, &CompressionConfig::default());
    let config = PartitionerConfig::kaminpar_two_phase_lp(8)
        .with_threads(2)
        .with_seed(11);
    let a = partition(&csr, &config);
    let b = partition(&compressed, &config);
    assert!(a.partition.is_balanced() && b.partition.is_balanced());
    let ratio = a.edge_cut.max(1) as f64 / b.edge_cut.max(1) as f64;
    assert!((0.75..1.35).contains(&ratio), "cut ratio {}", ratio);
}

/// Multilevel partitioning beats the single-level and streaming baselines on structured
/// graphs — the central claim of the paper's comparisons.
#[test]
fn multilevel_beats_single_level_and_streaming() {
    let graph = gen::rgg2d(2_500, 16, 44);
    let k = 8;
    let multilevel = partition(&graph, &PartitionerConfig::terapart(k).with_threads(2));
    let single = baselines::xtrapulp_partition(&graph, k, 0.03, 1);
    let streaming = baselines::heistream_partition(&graph, k, 0.03, 256, 1);
    assert!(multilevel.edge_cut < single.edge_cut);
    assert!(multilevel.edge_cut <= streaming.edge_cut);
}

/// Every level-sized buffer of coarsening — contraction's buckets, label propagation's
/// visit order and frontier bitsets, two-hop matching's tables — belongs to its phase
/// and is freed when the phase returns: across a deep hierarchy the arena is left
/// holding nothing but what outlives a phase, which before initial partitioning is
/// nothing it charges.
#[test]
fn coarsening_leaves_no_level_sized_buffer_behind() {
    use terapart::coarsening::coarsen_with_scratch;
    use terapart::HierarchyScratch;

    let graph = gen::rgg2d(20_000, 10, 9);
    let config = PartitionerConfig::terapart(4).with_threads(1);
    let tracker = memtrack::PhaseTracker::new();
    let mut scratch = HierarchyScratch::new();
    let hierarchy = one_thread(|| coarsen_with_scratch(&graph, &config, &tracker, &mut scratch));
    assert!(
        hierarchy.depth() >= 3,
        "need a deep hierarchy, got {}",
        hierarchy.depth()
    );
    assert_eq!(scratch.memory_bytes(), 0);
}

/// The distributed (simulated) partitioner agrees with the shared-memory one on quality
/// class and produces less per-PE memory with compressed shards.
#[test]
fn distributed_partitioner_matches_shared_memory_quality_class() {
    let graph = gen::rgg2d(2_000, 12, 55);
    let k = 8;
    let shared = partition(&graph, &PartitionerConfig::terapart(k).with_threads(2));
    let dist = xterapart::dist_partition(&graph, &xterapart::DistPartitionConfig::xterapart(k, 3));
    assert!(dist.balanced);
    assert!(
        (dist.edge_cut as f64) < 3.0 * shared.edge_cut.max(1) as f64,
        "distributed cut {} far worse than shared-memory {}",
        dist.edge_cut,
        shared.edge_cut
    );
}

fn one_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build();
    pool.expect("a one-thread pool").install(f)
}

/// On the unit-weight input graph every edge is contractible, which label propagation
/// knows without looking: clustering decodes exactly the half-edges its rounds visit,
/// once per visit — a move marks the neighbour ids its visit kept (the count pins the
/// visit order as a golden cut does).
#[test]
fn clustering_a_unit_weight_graph_decodes_nothing_to_find_its_movable_vertices() {
    let graph = CountingGraph::new(gen::rgg2d(4_000, 8, 3));
    assert!(!graph.is_node_weighted());
    let clustering = one_thread(|| cluster(&graph, &CoarseningConfig::default(), 16, 7));
    assert!(clustering.num_clusters < graph.n() / 2);
    // A count over the edges would have added 2m = 31 318 to it, decoding each moved
    // vertex again to mark its neighbours 32 764.
    assert_eq!(graph.half_edges(), 88_572);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    // A vertex without a contractible edge (`w(u) + w(v) > limit` for every neighbour
    // `v`) costs one decode — the count that finds it — and ends as the singleton it
    // started as; everything else is clustered within the limit.
    #[test]
    fn prop_clustering_never_visits_a_vertex_without_a_contractible_edge(
        n in 8usize..200,
        avg_degree in 1usize..8,
        limit in 2u64..14,
        frontier in proptest::bool::ANY,
        seed in 0u64..100_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut builder =
            CsrGraphBuilder::with_node_weights((0..n).map(|_| rng.gen_range(1..=9)).collect());
        for _ in 0..n * avg_degree / 2 {
            let (u, v) = (rng.gen_range(0..n as NodeId), rng.gen_range(0..n as NodeId));
            builder.add_edge(u, v, rng.gen_range(1..=5)); // ignores self-loops
        }
        let graph = CountingGraph::new(builder.build());
        let config = CoarseningConfig { lp_frontier: frontier, ..Default::default() };
        let clustering = one_thread(|| cluster(&graph, &config, limit, seed));

        let movable = |u: NodeId| {
            let fits = |&(v, _): &(NodeId, u64)| graph.node_weight(u) + graph.node_weight(v) <= limit;
            graph.neighbors_vec(u).iter().any(fits)
        };
        let weights = clustering.cluster_weights(&graph);
        prop_assert_eq!(weights.iter().sum::<u64>(), graph.total_node_weight());
        let mut sizes = vec![0usize; n];
        for &label in &clustering.label {
            sizes[label as usize] += 1;
        }
        for u in 0..n as NodeId {
            let label = clustering.label[u as usize] as usize;
            prop_assert!(weights[label] <= limit || sizes[label] == 1);
            // One call is `movable`'s own, just above.
            if !movable(u) {
                prop_assert_eq!((label, sizes[label]), (u as usize, 1));
                if frontier {
                    prop_assert_eq!(graph.calls(u), 2, "vertex {} was visited", u);
                }
            }
        }
    }
}
