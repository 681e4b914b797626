//! The coarsening stage of the multilevel framework.
//!
//! Coarsening repeatedly (1) computes a size-constrained label propagation clustering
//! ([`lp_clustering`]), (2) on a level that does not halve, merges leftover singletons
//! via two-hop clustering ([`two_hop`]) and (3) contracts the clustering
//! ([`mod@contract`]) until the graph is small enough for initial partitioning, too few
//! of its edges can be contracted under the cluster-weight limit
//! ([`MIN_CONTRACTIBLE_SHARE`]) or it stops shrinking ([`MIN_SHRINK_FACTOR`]). The
//! resulting [`Hierarchy`] records every coarse graph together with the fine-to-coarse vertex mapping needed to
//! project partitions back up during uncoarsening, which pops each level once it has
//! projected past it.

pub mod contract;
pub mod lp_clustering;
pub mod rating_map;
pub mod two_hop;

pub use contract::{contract, contract_with_scratch, ContractionResult};
pub use lp_clustering::{cluster, cluster_with_scratch, Clustering};
pub use two_hop::{pack_isolated_vertices, two_hop_clustering};

use graph::csr::CsrGraph;
use graph::traits::Graph;
use graph::{NodeId, NodeWeight};
use memtrack::{MemoryScope, PhaseTracker};

use obs::{Counter, SpanKind};

use crate::context::{ContractionAlgorithm, PartitionerConfig};
use crate::partitioner::{obs_phase, obs_phase_with};
use crate::scratch::HierarchyScratch;

/// One level of the multilevel hierarchy.
#[derive(Debug)]
pub struct Level {
    /// The coarse graph produced at this level.
    pub coarse: CsrGraph,
    /// Maps each vertex of the *finer* graph (the input graph for the first level) to
    /// its coarse vertex in [`Level::coarse`].
    pub mapping: Vec<NodeId>,
    /// Memory charge of the coarse graph, released when the level drops.
    _charge: MemoryScope<'static>,
}

/// The full coarsening hierarchy, from the first coarse graph down to the coarsest one.
#[derive(Debug, Default)]
pub struct Hierarchy {
    /// Levels in coarsening order: `levels[0]` was contracted from the input graph.
    pub levels: Vec<Level>,
}

impl Hierarchy {
    /// Returns the coarsest graph, or `None` if no coarsening step was performed.
    pub fn coarsest(&self) -> Option<&CsrGraph> {
        self.levels.last().map(|l| &l.coarse)
    }

    /// Number of coarsening levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }
}

/// Maximum cluster weight used on a level, following the KaMinPar rule: clusters may not
/// exceed a fraction of the average block weight of the final partition, so coarse
/// vertices always fit into blocks.
pub fn max_cluster_weight(
    total_node_weight: NodeWeight,
    k: usize,
    contraction_limit: usize,
    fraction: f64,
) -> NodeWeight {
    let denominator = (contraction_limit * k).max(1) as f64;
    ((total_node_weight as f64 * fraction / denominator).ceil() as NodeWeight).max(1)
}

/// The two-hop stage runs on a level where label propagation leaves more than
/// `n / 2` clusters (KaMinPar's threshold): a level that halves is not stalling.
const TWO_HOP_DIVISOR: usize = 2;

/// Coarsening stops at a level whose clustering leaves more than this fraction of the
/// vertices as clusters: contracting it would cost a coarse graph and gain next to nothing.
pub const MIN_SHRINK_FACTOR: f64 = 0.95;

/// Coarsening stops at a node-weighted level on which fewer than this share of the
/// half-edges are contractible (`w(u) + w(v) ≤ max_cluster_weight`), decided from the
/// count label propagation takes before its first round: the level runs no round, no
/// two-hop matching and no contraction. On power-law graphs the dense core reaches the
/// weight limit after one contraction and the next levels stall (Safro, Sanders, Schulz,
/// *Advanced Coarsening Schemes*): on `weblike(15, 8)` at k = 64 levels 1 and 2 had
/// 9 % and 0.07 % of their half-edges contractible, removed 4.8 % and 3.4 % of the
/// edges, and their coarse graphs were 4.3 MB of the run's 7.55 MB peak. The
/// unit-weight input graph is never counted, so it is never given up.
pub const MIN_CONTRACTIBLE_SHARE: f64 = 0.125;

/// Runs the full coarsening stage on `graph` with a fresh worker pool. Prefer
/// [`coarsen_with_scratch`] when the caller owns an arena for the whole run.
pub fn coarsen(
    graph: &impl Graph,
    config: &PartitionerConfig,
    tracker: &PhaseTracker,
) -> Hierarchy {
    let mut scratch = HierarchyScratch::new();
    coarsen_with_scratch(graph, config, tracker, &mut scratch)
}

/// Runs the full coarsening stage on `graph`, leasing per-worker buffers from
/// `scratch`. Every level-sized buffer belongs to the clustering or contraction of its
/// level and is freed when that phase returns: what stays behind is the hierarchy.
///
/// Phases are reported to `tracker` (clustering and contraction separately per level,
/// mirroring the breakdown of Figure 2).
pub fn coarsen_with_scratch(
    graph: &impl Graph,
    config: &PartitionerConfig,
    tracker: &PhaseTracker,
    scratch: &mut HierarchyScratch,
) -> Hierarchy {
    let stop_at = (config.coarsening.contraction_limit * config.k).max(1);
    let mut hierarchy = Hierarchy::default();

    // Level 0 runs on the (possibly compressed) input graph; subsequent levels run on a
    // borrow of the previous level's uncompressed coarse CSR graph, which the hierarchy
    // owns (and charges) exactly once.
    // Safety valve: the hierarchy can never be deeper than log2(n) levels on sane inputs;
    // stop after a generous bound to guarantee termination.
    for level in 0..=64usize {
        let next = match hierarchy.levels.last() {
            None => coarsen_level(graph, config, tracker, scratch, level, stop_at),
            Some(finer) => coarsen_level(&finer.coarse, config, tracker, scratch, level, stop_at),
        };
        let Some(result) = next else {
            break;
        };
        hierarchy.levels.push(Level {
            _charge: MemoryScope::charge_global(result.coarse.size_in_bytes()),
            coarse: result.coarse,
            mapping: result.mapping,
        });
    }
    hierarchy
}

/// Clusters and contracts one level of `graph`; `None` once `graph` is small enough, too
/// few of its half-edges are contractible or its clustering no longer shrinks it.
fn coarsen_level(
    graph: &impl Graph,
    config: &PartitionerConfig,
    tracker: &PhaseTracker,
    scratch: &mut HierarchyScratch,
    level: usize,
    stop_at: usize,
) -> Option<ContractionResult> {
    let coarsening = &config.coarsening;
    let n = graph.n();
    if n <= stop_at {
        return None;
    }
    let limit = max_cluster_weight(
        graph.total_node_weight(),
        config.k,
        coarsening.contraction_limit,
        coarsening.max_cluster_weight_fraction,
    );
    let seed = config.seed ^ ((level as u64 + 1) << 32);
    let obs = scratch.obs.clone();
    let mut level_span = obs.span_at(SpanKind::Level, "coarsen_level", level as u64);
    level_span.attr("fine_nodes", n as u64);
    let shrinks = |c: &Clustering| c.num_clusters as f64 <= MIN_SHRINK_FACTOR * n as f64;
    let min_contractible = (MIN_CONTRACTIBLE_SHARE * (2 * graph.m()) as f64).ceil() as u64;
    let cluster = || {
        let (clustering, counted) =
            lp_clustering::cluster_level(graph, coarsening, limit, seed, min_contractible, scratch);
        let clustering = clustering.map(|mut c| {
            if c.num_clusters > n / TWO_HOP_DIVISOR {
                // Packing isolated vertices is free of cut; matching singletons that
                // merely share a neighbour is not, and waits until the level would be
                // given up.
                pack_isolated_vertices(graph, &mut c, limit);
                if !shrinks(&c) {
                    two_hop_clustering(graph, &mut c, limit);
                }
            }
            c
        });
        (clustering, counted)
    };
    // Why a level stalls is on its span: how much the weight limit left LP to contract
    // (absent where every edge is contractible without a count).
    let annotate = |(_, counted): &(Option<Clustering>, Option<(u64, usize)>),
                    span: &mut obs::SpanGuard| {
        if let Some((contractible_half_edges, movable)) = *counted {
            span.attr("contractible_half_edges", contractible_half_edges);
            span.attr("movable", movable as u64);
        }
    };
    let (clustering, _) = obs_phase_with(&obs, tracker, "cluster", level, cluster, annotate);
    let clustering = clustering.filter(shrinks)?;
    let result = obs_phase(&obs, tracker, "contract", level, || {
        contract::contract_with_scratch(
            graph,
            &clustering,
            coarsening.contraction,
            coarsening.bump_threshold,
            scratch,
        )
    });
    level_span.attr("coarse_nodes", result.coarse.n() as u64);
    level_span.attr("coarse_edges", result.coarse.m() as u64);
    // Edge-array slots contraction reserved against those it wrote (and kept resident):
    // one-pass reserves the upper bound 2m, buffered allocates what it has counted.
    let committed = 2 * result.coarse.m() as u64;
    let reserved = match coarsening.contraction {
        ContractionAlgorithm::OnePass => 2 * graph.m() as u64,
        ContractionAlgorithm::Buffered => committed,
    };
    level_span.attr("reserved_half_edges", reserved);
    level_span.attr("committed_half_edges", committed);
    drop(level_span);
    obs.add(Counter::CoarseningLevels, 1);
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen;

    #[test]
    fn max_cluster_weight_is_at_least_one() {
        assert_eq!(max_cluster_weight(10, 1000, 40, 1.0), 1);
        assert!(max_cluster_weight(1_000_000, 8, 40, 1.0) > 1);
        assert_eq!(max_cluster_weight(0, 4, 40, 1.0), 1);
    }

    #[test]
    fn coarsening_produces_a_shrinking_hierarchy() {
        let g = gen::grid2d(40, 40);
        let config = PartitionerConfig::terapart(4);
        let tracker = PhaseTracker::new();
        let hierarchy = coarsen(&g, &config, &tracker);
        assert!(
            hierarchy.depth() >= 1,
            "expected at least one coarsening level"
        );
        // Graph sizes strictly decrease along the hierarchy.
        let mut prev_n = g.n();
        for level in &hierarchy.levels {
            assert!(level.coarse.n() < prev_n);
            assert_eq!(level.coarse.total_node_weight(), g.total_node_weight());
            prev_n = level.coarse.n();
        }
        // The coarsest graph respects the contraction limit within a factor (coarsening
        // stops once it cannot shrink below it).
        let coarsest = hierarchy.coarsest().unwrap();
        assert!(coarsest.n() <= g.n() / 2);
        // Phases were recorded for clustering and contraction.
        assert!(tracker.peak_of("cluster").is_some());
        assert!(tracker.peak_of("contract").is_some());
    }

    #[test]
    fn mappings_compose_and_cover_all_vertices() {
        let g = gen::rgg2d(1500, 10, 2);
        let config = PartitionerConfig::terapart(2);
        let tracker = PhaseTracker::new();
        let hierarchy = coarsen(&g, &config, &tracker);
        assert!(hierarchy.depth() >= 1);
        // First mapping covers the input graph.
        assert_eq!(hierarchy.levels[0].mapping.len(), g.n());
        for (i, level) in hierarchy.levels.iter().enumerate() {
            let coarse_n = level.coarse.n();
            assert!(level.mapping.iter().all(|&c| (c as usize) < coarse_n));
            if i + 1 < hierarchy.levels.len() {
                assert_eq!(hierarchy.levels[i + 1].mapping.len(), coarse_n);
            }
        }
    }

    #[test]
    fn small_graphs_are_not_coarsened() {
        let g = gen::grid2d(4, 4);
        let config = PartitionerConfig::terapart(8);
        let tracker = PhaseTracker::new();
        let hierarchy = coarsen(&g, &config, &tracker);
        assert_eq!(hierarchy.depth(), 0);
        assert!(hierarchy.coarsest().is_none());
    }

    #[test]
    fn a_level_with_fewer_than_an_eighth_of_its_half_edges_contractible_is_given_up() {
        // A 64-cycle (128 half-edges) whose run of `light` consecutive vertices weighs 1
        // each and the rest 1 000 each, under a limit of ~280: only the run's `light - 1`
        // inner edges are contractible. 7 edges are 14 half-edges, below 128 / 8 = 16;
        // 8 edges are exactly an eighth, which is not fewer.
        let run = |light: usize| {
            let weights = (0..64).map(|u| if u < light { 1 } else { 1_000 }).collect();
            let mut builder = graph::CsrGraphBuilder::with_node_weights(weights);
            for u in 0..64 {
                builder.add_edge(u, (u + 1) % 64, 1);
            }
            let g = builder.build();
            let mut config = PartitionerConfig::terapart(2);
            config.coarsening.contraction_limit = 1;
            config.coarsening.max_cluster_weight_fraction = 0.01;
            let mut scratch = HierarchyScratch::new();
            let (obs, recorder) = obs::ObsHandle::recording();
            scratch.obs = obs;
            let level = coarsen_level(&g, &config, &PhaseTracker::new(), &mut scratch, 1, 2);
            let rounds = recorder.metrics().get(Counter::LpClusterRounds);
            (level.map(|result| result.coarse.n()), rounds)
        };

        assert_eq!(run(8), (None, 0));
        let (coarse_n, rounds) = run(9);
        assert!(coarse_n.is_some_and(|n| n < 64), "the level was contracted");
        assert!(rounds > 0);
    }

    #[test]
    fn kaminpar_and_terapart_configs_both_coarsen() {
        let g = gen::rhg_like(2000, 8, 3.0, 11);
        for config in [
            PartitionerConfig::kaminpar(4),
            PartitionerConfig::terapart(4),
        ] {
            let tracker = PhaseTracker::new();
            let hierarchy = coarsen(&g, &config, &tracker);
            assert!(
                hierarchy.depth() >= 1,
                "no coarsening for {:?}",
                config.coarsening.lp_mode
            );
            let coarsest = hierarchy.coarsest().unwrap();
            assert!(coarsest.n() < g.n());
            assert_eq!(coarsest.total_node_weight(), g.total_node_weight());
        }
    }
}
