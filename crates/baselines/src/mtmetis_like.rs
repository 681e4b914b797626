//! A matching-based multilevel partitioner standing in for Mt-METIS.
//!
//! METIS-family partitioners coarsen by *heavy-edge matching* (pairs of vertices joined by
//! heavy edges are contracted) instead of label propagation clustering, partition the
//! coarsest graph by recursive bisection and refine with greedy boundary moves. Two
//! further characteristics from the paper's experiments are modelled: the algorithm uses
//! noticeably more auxiliary memory than KaMinPar (it keeps per-level matching arrays and
//! a second copy of each coarse graph), and it does not strictly enforce the balance
//! constraint during refinement, so a fraction of its partitions end up imbalanced
//! (Figure 4, "Mt-METIS does not always respect the balance constraint").

use std::time::Instant;

use graph::csr::CsrGraph;
use graph::traits::Graph;
use graph::{NodeId, NodeWeight};
use memtrack::MemoryScope;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use terapart::coarsening::lp_clustering::Clustering;
use terapart::coarsening::{contract, ContractionResult};
use terapart::context::{ContractionAlgorithm, InitialPartitioningConfig};
use terapart::initial::initial_partition;
use terapart::partition::{BlockId, Partition};

use crate::BaselineResult;

/// Computes a heavy-edge matching: vertices are visited in random order and matched with
/// their unmatched neighbour of maximum edge weight (subject to the weight limit).
pub fn heavy_edge_matching(
    graph: &impl Graph,
    max_pair_weight: NodeWeight,
    seed: u64,
) -> Clustering {
    let n = graph.n();
    let mut mate: Vec<NodeId> = (0..n as NodeId).collect();
    let mut matched = vec![false; n];
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    for &u in &order {
        if matched[u as usize] {
            continue;
        }
        let mut best: Option<(NodeId, u64)> = None;
        graph.for_each_neighbor(u, &mut |v, w| {
            if matched[v as usize] || v == u {
                return;
            }
            if graph.node_weight(u) + graph.node_weight(v) > max_pair_weight {
                return;
            }
            best = match best {
                None => Some((v, w)),
                Some((_, bw)) if w > bw => Some((v, w)),
                other => other,
            };
        });
        if let Some((v, _)) = best {
            matched[u as usize] = true;
            matched[v as usize] = true;
            mate[v as usize] = u;
            mate[u as usize] = u;
        }
    }
    Clustering::from_labels(mate)
}

/// Partitions `graph` into `k` blocks with the matching-based multilevel scheme.
pub fn mtmetis_partition(graph: &CsrGraph, k: usize, epsilon: f64, seed: u64) -> BaselineResult {
    let start = Instant::now();
    let mut aux_bytes = 0usize;

    // ---- Coarsening by repeated heavy-edge matching. ----
    let max_pair_weight = (graph.total_node_weight() / (20 * k as u64).max(1)).max(2);
    let mut hierarchy: Vec<ContractionResult> = Vec::new();
    let mut current: CsrGraph = graph.clone();
    let mut charges = Vec::new();
    let mut level = 0;
    while current.n() > 30 * k && level < 40 {
        let matching = heavy_edge_matching(&current, max_pair_weight, seed ^ level as u64);
        // Matching halves the graph at best; stop when it stalls.
        if matching.num_clusters as f64 > 0.97 * current.n() as f64 {
            break;
        }
        // Matching arrays + a buffered copy of the coarse graph: this is the extra
        // auxiliary memory Mt-METIS pays relative to KaMinPar (Figure 4, middle).
        let result = contract(&current, &matching, ContractionAlgorithm::Buffered, 4096);
        aux_bytes += current.n() * 8 + 2 * result.coarse.size_in_bytes();
        charges.push(MemoryScope::charge_global(
            current.n() * 8 + 2 * result.coarse.size_in_bytes(),
        ));
        current = result.coarse.clone();
        hierarchy.push(result);
        level += 1;
    }

    // ---- Initial partitioning by recursive bisection. ----
    let config = InitialPartitioningConfig {
        attempts: 3,
        fm_passes: 3,
        ..InitialPartitioningConfig::default()
    };
    let mut partition = initial_partition(&current, k, epsilon, &config, seed);

    // ---- Uncoarsening with greedy boundary refinement (no strict balance enforcement). --
    for level in hierarchy.iter().rev() {
        let finer: &CsrGraph = if std::ptr::eq(level, &hierarchy[0]) {
            graph
        } else {
            // The graph one level finer than `level.coarse` is the coarse graph of the
            // previous hierarchy entry; find it by position.
            let idx = hierarchy
                .iter()
                .position(|l| std::ptr::eq(l, level))
                .unwrap();
            &hierarchy[idx - 1].coarse
        };
        partition = partition.project(finer, &level.mapping);
        greedy_refine(finer, &mut partition, 3);
    }
    if hierarchy.is_empty() {
        greedy_refine(graph, &mut partition, 3);
    }
    drop(charges);

    crate::finish(
        graph,
        k,
        epsilon,
        partition.assignment().to_vec(),
        start,
        aux_bytes,
    )
}

/// Greedy boundary refinement that allows up to 10% overload per block — modelling
/// METIS-style refinement that trades balance for cut.
fn greedy_refine(graph: &impl Graph, partition: &mut Partition, rounds: usize) {
    let relaxed_limit = (partition.max_block_weight() as f64 * 1.10).ceil() as NodeWeight;
    for _ in 0..rounds {
        let mut moved = 0;
        for u in 0..graph.n() as NodeId {
            let from = partition.block(u);
            let mut per_block: Vec<(BlockId, u64)> = Vec::new();
            graph.for_each_neighbor(u, &mut |v, w| {
                let b = partition.block(v);
                if let Some(e) = per_block.iter_mut().find(|(pb, _)| *pb == b) {
                    e.1 += w;
                } else {
                    per_block.push((b, w));
                }
            });
            let current_affinity = per_block
                .iter()
                .find(|(b, _)| *b == from)
                .map(|&(_, w)| w)
                .unwrap_or(0);
            let node_weight = graph.node_weight(u);
            if let Some(&(target, _)) = per_block
                .iter()
                .filter(|&&(b, w)| {
                    b != from
                        && w > current_affinity
                        && partition.block_weight(b) + node_weight <= relaxed_limit
                })
                .max_by_key(|&&(_, w)| w)
            {
                partition.move_vertex(u, target, node_weight);
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen;

    #[test]
    fn matching_pairs_are_disjoint_and_weight_bounded() {
        let g = gen::with_random_edge_weights(&gen::grid2d(10, 10), 5, 1);
        let matching = heavy_edge_matching(&g, 2, 3);
        let weights = matching.cluster_weights(&g);
        assert!(weights.iter().all(|&w| w <= 2));
        // A matching at least halves a grid's vertex count minus unmatched boundary.
        assert!(matching.num_clusters <= g.n());
        assert!(matching.num_clusters >= g.n() / 2);
    }

    #[test]
    fn partitions_are_complete_and_reasonable() {
        let g = gen::rgg2d(1000, 10, 7);
        let result = mtmetis_partition(&g, 8, 0.03, 1);
        assert_eq!(result.assignment.len(), g.n());
        assert!(result.assignment.iter().all(|&b| (b as usize) < 8));
        assert!(result.edge_cut > 0);
        assert!((result.edge_cut as f64) < 0.5 * g.m() as f64);
        assert!(result.peak_memory_bytes > 0);
    }

    #[test]
    fn uses_more_auxiliary_memory_than_terapart() {
        let g = gen::rgg2d(2000, 12, 2);
        let mtmetis = mtmetis_partition(&g, 8, 0.03, 1);
        let tp = terapart::partition(
            &g,
            &terapart::PartitionerConfig::terapart(8).with_threads(1),
        );
        // The matching arrays + double-stored coarse graphs exceed TeraPart's auxiliary
        // footprint (which excludes the input graph itself here).
        assert!(
            mtmetis.peak_memory_bytes > tp.refinement.gain_table_bytes,
            "expected Mt-METIS-like memory to be substantial"
        );
    }

    #[test]
    fn may_trade_balance_for_cut_but_stays_close() {
        let g = gen::rhg_like(1200, 10, 3.0, 5);
        let result = mtmetis_partition(&g, 4, 0.03, 2);
        // The relaxed refinement keeps imbalance under ~10% even when the strict 3%
        // constraint is violated.
        assert!(
            result.imbalance < 0.35,
            "imbalance {} too extreme",
            result.imbalance
        );
    }
}
