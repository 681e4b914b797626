//! The refinement stage of the multilevel framework (uncoarsening).
//!
//! After the partition of a coarse graph is projected to the next finer graph, it is
//! improved by local search: size-constrained label propagation refinement
//! ([`mod@lp_refine`]) always runs; under
//! [`RefinementAlgorithm::KWayFmWithLabelPropagation`] (TeraPart-FM, the `default` /
//! `strong` presets) it is followed by hill-climbing k-way FM ([`kway_fm`]) on the §V
//! gain caches ([`gain_table`]). A greedy [`fn@rebalance`] pass repairs any residual
//! balance violations.

pub mod gain_table;
pub mod kway_fm;
pub mod lp_refine;
pub mod rebalance;

pub use gain_table::GainCache;
pub use kway_fm::{kway_fm_refine, FmStats};
pub use lp_refine::{lp_refine, lp_refine_with_scratch, LpRefineStats};
pub use rebalance::rebalance;

use graph::traits::Graph;

use crate::context::{RefinementAlgorithm, RefinementConfig};
use crate::partition::Partition;
use crate::scratch::HierarchyScratch;

/// Statistics of one refinement invocation (one level of uncoarsening).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefinementStats {
    /// Vertex moves performed by label propagation refinement.
    pub lp_moves: usize,
    /// Vertex moves performed by FM refinement.
    pub fm_moves: usize,
    /// Vertex moves performed by the rebalancer.
    pub rebalance_moves: usize,
    /// Heap bytes of the FM gain table at its peak (0 when FM refinement is disabled).
    pub gain_table_bytes: usize,
    /// Gain-table rows FM built from the boundary superset (0 without FM).
    pub gain_rows_built: usize,
    /// Gain-table rows FM appended for vertices its moves put on the boundary.
    pub gain_rows_added: usize,
    /// Vertices label propagation started from: the size of the partition's boundary
    /// superset on entry, or every vertex while that was unknown.
    pub lp_candidates: usize,
    /// Vertices label propagation visited, summed over its rounds.
    pub lp_visited: usize,
    /// Size of the partition's boundary superset on exit (every vertex while unknown).
    pub boundary: usize,
}

impl RefinementStats {
    /// Adds one level's statistics to a run's: counts and rows sum, the gain table keeps
    /// its largest footprint, and `boundary` becomes `level`'s — the input level's once
    /// the walk has merged every level.
    pub fn merge(&mut self, level: &RefinementStats) {
        self.lp_moves += level.lp_moves;
        self.fm_moves += level.fm_moves;
        self.rebalance_moves += level.rebalance_moves;
        self.gain_table_bytes = self.gain_table_bytes.max(level.gain_table_bytes);
        self.gain_rows_built += level.gain_rows_built;
        self.gain_rows_added += level.gain_rows_added;
        self.lp_candidates += level.lp_candidates;
        self.lp_visited += level.lp_visited;
        self.boundary = level.boundary;
    }
}

/// Refines `partition` on `graph` according to `config` with a fresh worker pool. Inside
/// a run this is the refinement of
/// [`RunContext::uncoarsen_step`](crate::partitioner::RunContext::uncoarsen_step).
pub fn refine(
    graph: &impl Graph,
    partition: &mut Partition,
    config: &RefinementConfig,
    seed: u64,
) -> RefinementStats {
    let mut scratch = HierarchyScratch::new();
    refine_with_scratch(graph, partition, config, seed, &mut scratch)
}

/// Whether some block can take one more vertex: node weights are at least 1, so where
/// every block's weight + 1 exceeds the limit no move of label propagation or k-way FM
/// is feasible.
fn some_block_has_room(partition: &Partition) -> bool {
    let max = partition.max_block_weight();
    partition.block_weights().iter().any(|&weight| weight < max)
}

/// Refines `partition` on `graph` according to `config`, leasing per-worker buffers
/// from `scratch`. Where no block has room for a vertex, label propagation and k-way FM
/// could not move one: both are skipped, and so is FM's gain table. The rebalancer
/// keeps its own check.
/// Returns per-algorithm move counts and the gain-table footprint.
pub(crate) fn refine_with_scratch(
    graph: &impl Graph,
    partition: &mut Partition,
    config: &RefinementConfig,
    seed: u64,
    scratch: &mut HierarchyScratch,
) -> RefinementStats {
    let obs = scratch.obs.clone();
    let mut stats = if some_block_has_room(partition) {
        improve(graph, partition, config, seed, scratch)
    } else {
        RefinementStats::default()
    };
    if !partition.is_balanced() {
        stats.rebalance_moves = rebalance(graph, partition);
        obs.add(obs::Counter::RebalanceMoves, stats.rebalance_moves as u64);
    }
    stats.boundary = partition.boundary_candidates().unwrap_or(graph.n());
    stats
}

/// Label propagation, then (with [`RefinementAlgorithm::KWayFmWithLabelPropagation`])
/// k-way FM: the moves that improve the cut.
fn improve(
    graph: &impl Graph,
    partition: &mut Partition,
    config: &RefinementConfig,
    seed: u64,
    scratch: &mut HierarchyScratch,
) -> RefinementStats {
    let obs = scratch.obs.clone();
    let lp_stats = lp_refine_with_scratch(graph, partition, config.lp_rounds, seed, scratch);
    let mut stats = RefinementStats {
        lp_moves: lp_stats.moves,
        lp_candidates: lp_stats.visited_per_round.first().copied().unwrap_or(0),
        lp_visited: lp_stats.visited_per_round.iter().sum(),
        ..Default::default()
    };
    match config.algorithm {
        RefinementAlgorithm::LabelPropagation => {}
        RefinementAlgorithm::KWayFmWithLabelPropagation => {
            let fm_stats = kway_fm::kway_fm_refine_obs(
                graph,
                partition,
                config.gain_table,
                config.fm_passes,
                config.fm_adverse_limit,
                &obs,
            );
            stats.fm_moves = fm_stats.moves;
            stats.gain_table_bytes = fm_stats.gain_table_bytes;
            stats.gain_rows_built = fm_stats.rows_built;
            stats.gain_rows_added = fm_stats.rows_added;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::GainTableKind;
    use crate::partition::BlockId;
    use graph::gen;

    fn scrambled(graph: &impl Graph, k: usize) -> Partition {
        let assignment: Vec<BlockId> = (0..graph.n() as u32)
            .map(|u| (u.wrapping_mul(2_654_435_761) >> 8) % k as u32)
            .collect();
        Partition::from_assignment(graph, k, 0.1, assignment)
    }

    #[test]
    fn lp_only_configuration_runs_no_fm() {
        let g = gen::grid2d(12, 12);
        let mut p = scrambled(&g, 4);
        let config = RefinementConfig {
            algorithm: RefinementAlgorithm::LabelPropagation,
            ..Default::default()
        };
        let stats = refine(&g, &mut p, &config, 1);
        assert!(stats.lp_moves > 0);
        assert_eq!(stats.fm_moves, 0);
        assert_eq!(stats.gain_table_bytes, 0);
        assert!(p.is_balanced());
    }

    #[test]
    fn fm_configuration_improves_over_lp_alone() {
        let g = gen::rgg2d(600, 10, 7);
        let config_lp = RefinementConfig {
            algorithm: RefinementAlgorithm::LabelPropagation,
            ..Default::default()
        };
        let config_fm = RefinementConfig {
            algorithm: RefinementAlgorithm::KWayFmWithLabelPropagation,
            gain_table: GainTableKind::Sparse,
            ..Default::default()
        };
        let mut p_lp = scrambled(&g, 4);
        let mut p_fm = scrambled(&g, 4);
        refine(&g, &mut p_lp, &config_lp, 3);
        let stats = refine(&g, &mut p_fm, &config_fm, 3);
        assert!(stats.gain_table_bytes > 0);
        assert!(
            p_fm.edge_cut_on(&g) <= p_lp.edge_cut_on(&g),
            "FM should not be worse than LP alone: {} vs {}",
            p_fm.edge_cut_on(&g),
            p_lp.edge_cut_on(&g)
        );
    }

    #[test]
    fn a_partition_without_room_is_left_as_it_is_and_builds_no_gain_table() {
        // weblike(14, 8) at k = 512 is not coarsened (16 384 vertices <= 40 * 512): the
        // recursive bisection of the input fills every block up to its limit.
        let g = gen::weblike(14, 8, 3);
        let config =
            crate::context::PartitionerConfig::preset(crate::context::Preset::Default, 512);
        let initial = crate::initial::initial_partition(
            &g,
            512,
            config.epsilon,
            &config.initial,
            config.seed,
        );
        assert!(!some_block_has_room(&initial));
        assert!(initial.is_balanced());

        let mut refined = initial.clone();
        let stats = refine(&g, &mut refined, &config.refinement, 5);
        assert_eq!(stats.gain_table_bytes, 0);
        assert_eq!(
            (stats.lp_moves, stats.fm_moves, stats.rebalance_moves),
            (0, 0, 0)
        );

        // Label propagation and FM, run anyway, move nothing either, but build the table.
        let mut improved = initial.clone();
        let tried = improve(
            &g,
            &mut improved,
            &config.refinement,
            5,
            &mut HierarchyScratch::new(),
        );
        assert!(tried.gain_table_bytes > 0);
        assert_eq!((tried.lp_moves, tried.fm_moves), (0, 0));
        assert_eq!(refined.assignment(), improved.assignment());
        assert_eq!(refined.assignment(), initial.assignment());
        assert_eq!(refined.edge_cut_on(&g), improved.edge_cut());
    }

    #[test]
    fn refinement_repairs_imbalance() {
        let g = gen::grid2d(10, 10);
        let assignment: Vec<BlockId> = (0..100u32).map(|u| if u < 80 { 0 } else { 1 }).collect();
        let mut p = Partition::from_assignment(&g, 2, 0.05, assignment);
        assert!(!p.is_balanced());
        let stats = refine(&g, &mut p, &RefinementConfig::default(), 2);
        assert!(p.is_balanced(), "imbalance {} remains", p.imbalance());
        assert!(stats.lp_moves + stats.rebalance_moves > 0);
    }
}
