//! Parallel k-way FM-style refinement backed by a gain cache (paper §V / Figure 7).
//!
//! The refinement repeatedly collects the boundary vertices, orders them by their best
//! move gain (highest first) and applies positive-gain moves in parallel, keeping the
//! gain cache consistent after every move. This is the "localized k-way FM" role in the
//! TeraPart-FM configuration; compared to full FM with hill-climbing and rollback it only
//! applies non-negative-gain moves, which preserves the paper's qualitative behaviour
//! (FM on top of LP refinement lowers the cut, and the choice of gain table affects
//! memory and speed but not quality) while staying simple enough to verify.
//!
//! The gain cache variants are exactly the paper's: none (recompute), dense `O(nk)`, and
//! the space-efficient `O(m)` sparse table. Their memory is charged to the global memory
//! accounting so the Figure 7 peak-memory comparison can be reproduced.

use std::sync::atomic::Ordering;

use graph::traits::Graph;
use graph::{EdgeWeight, NodeId};
use memtrack::MemoryScope;
use obs::{Counter, ObsHandle, SpanKind};
use rayon::prelude::*;

use crate::context::GainTableKind;
use crate::partition::{BlockId, Partition};

use super::gain_table::GainCache;
use super::lp_refine::AtomicPartition;

/// Statistics of one FM refinement invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FmStats {
    /// Number of vertex moves applied.
    pub moves: usize,
    /// Heap bytes used by the gain cache.
    pub gain_table_bytes: usize,
    /// Number of refinement passes executed.
    pub passes: usize,
    /// Moves applied and later undone by hill-climbing rollback. Always 0 for this
    /// batched scheme (it only applies positive-gain moves); the priority-queue k-way
    /// FM ([`kway_fm`](super::kway_fm)) reports its rolled-back tails here.
    pub moves_rolled_back: usize,
}

/// Runs FM refinement on `partition` with the given gain-table kind, using a throwaway
/// candidate buffer. Prefer [`fm_refine_with_candidates`] inside the pipeline.
pub fn fm_refine(
    graph: &impl Graph,
    partition: &mut Partition,
    gain_table: GainTableKind,
    max_passes: usize,
    fraction: f64,
) -> FmStats {
    let mut candidates = Vec::new();
    fm_refine_with_candidates(
        graph,
        partition,
        gain_table,
        max_passes,
        fraction,
        &mut candidates,
    )
}

/// Runs FM refinement on `partition`, collecting each pass's boundary-move candidates
/// into `candidates` — a scratch buffer whose capacity is reused across passes and (via
/// [`HierarchyScratch`](crate::scratch::HierarchyScratch)) across hierarchy levels,
/// instead of a fresh `Vec` per pass.
pub fn fm_refine_with_candidates(
    graph: &impl Graph,
    partition: &mut Partition,
    gain_table: GainTableKind,
    max_passes: usize,
    fraction: f64,
    candidates: &mut Vec<(i64, NodeId, BlockId)>,
) -> FmStats {
    fm_refine_obs(
        graph,
        partition,
        gain_table,
        max_passes,
        fraction,
        candidates,
        &ObsHandle::noop(),
    )
}

/// [`fm_refine_with_candidates`] with an observability handle: each pass is a `fm_pass`
/// round span and the pass/move totals feed the unified counter registry.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fm_refine_obs(
    graph: &impl Graph,
    partition: &mut Partition,
    gain_table: GainTableKind,
    max_passes: usize,
    fraction: f64,
    candidates: &mut Vec<(i64, NodeId, BlockId)>,
    obs: &ObsHandle,
) -> FmStats {
    let n = graph.n();
    if n == 0 || partition.k() <= 1 {
        return FmStats::default();
    }
    let k = partition.k();
    // Moves are applied one after the other with re-validated gains, so the cut follows
    // from their sum.
    let cut_before = partition.tracked_or_recounted_cut(graph);
    let boundary = partition.take_boundary();
    let mut cut_gain = 0i64;
    let state = AtomicPartition::from_partition(partition);

    let cache = GainCache::new(gain_table, graph, &state.assignment, k);
    let gain_table_bytes = cache.memory_bytes();
    // Charge the gain table to the memory accounting for the duration of refinement —
    // this is the quantity Figure 7 (middle) compares across the three variants.
    let _scope = MemoryScope::charge_global(gain_table_bytes);

    obs.gauge_max(Counter::GainTableBytes, gain_table_bytes as u64);

    let mut total_moves = 0usize;
    let mut passes = 0usize;
    for pass in 0..max_passes {
        let mut pass_span = obs.span_at(SpanKind::Round, "fm_pass", pass as u64);
        passes += 1;
        obs.add(Counter::FmPasses, 1);
        // Collect boundary vertices together with their best move, reusing the scratch
        // buffer's capacity (order-preserving, so the sort below sees the same input as
        // a fresh collect would produce).
        (0..n as NodeId)
            .into_par_iter()
            .filter_map(|u| {
                let node_weight = graph.node_weight(u);
                let admits = |to: BlockId| {
                    state.block_weights[to as usize].load(Ordering::Relaxed) + node_weight
                        <= state.max_block_weight
                };
                let from = state.block(u);
                let (gain, to) = cache.best_move(graph, &state.assignment, u, from, admits)?;
                (gain > 0).then_some((gain, u, to))
            })
            .collect_into_vec(candidates);
        pass_span.attr("candidates", candidates.len() as u64);
        obs.add(Counter::FmGainQueries, n as u64);
        if candidates.is_empty() {
            break;
        }
        // Highest gains first: mimics FM's priority-queue ordering.
        candidates.par_sort_unstable_by_key(|&(gain, u, _)| (std::cmp::Reverse(gain), u));
        let limit = ((candidates.len() as f64) * fraction.clamp(0.0, 1.0)).ceil() as usize;
        let mut pass_moves = 0usize;
        // Moves are applied sequentially in gain order: gains are re-validated against
        // the current assignment right before each move, so every applied move strictly
        // decreases the cut (gain collection above is the parallel part — a
        // simplification relative to the paper's localized parallel FM; the k-way FM of
        // docs/ARCHITECTURE.md § "Quality presets and k-way FM refinement" is the
        // priority-queue variant).
        let tried = &candidates[..limit.min(candidates.len())];
        obs.add(Counter::FmMovesTried, tried.len() as u64);
        for &(_, u, to) in tried {
            let from = state.block(u);
            if from == to {
                continue;
            }
            let gain = cache.affinity(graph, &state.assignment, u, to) as i64
                - cache.affinity(graph, &state.assignment, u, from) as i64;
            if gain <= 0 {
                continue;
            }
            let node_weight = graph.node_weight(u);
            if state.try_move(u, node_weight, to) {
                cache.apply_move(graph, u, from, to);
                if let Some(boundary) = &boundary {
                    boundary.mark_move(graph, u);
                }
                cut_gain += gain;
                pass_moves += 1;
            }
        }
        cache.debug_check_sample(graph, &state.assignment);
        pass_span.attr("moves", pass_moves as u64);
        obs.add(Counter::FmMovesAccepted, pass_moves as u64);
        total_moves += pass_moves;
        if pass_moves == 0 {
            break;
        }
    }

    let cut = (cut_before as i64 - cut_gain) as EdgeWeight;
    state.commit_to(partition, Some(cut), boundary);
    FmStats {
        moves: total_moves,
        gain_table_bytes,
        passes,
        moves_rolled_back: 0,
    }
}

/// Recomputes the edge cut improvement achievable by a single vertex move; used by tests
/// to validate the gain definition.
pub fn move_gain(graph: &impl Graph, partition: &Partition, u: NodeId, to: BlockId) -> i64 {
    let from = partition.block(u);
    let mut to_affinity: EdgeWeight = 0;
    let mut from_affinity: EdgeWeight = 0;
    graph.for_each_neighbor(u, &mut |v, w| {
        let b = partition.block(v);
        if b == to {
            to_affinity += w;
        }
        if b == from {
            from_affinity += w;
        }
    });
    to_affinity as i64 - from_affinity as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen;

    /// A balanced but low-quality pseudo-random starting partition.
    fn scrambled_partition(graph: &impl Graph, k: usize, epsilon: f64) -> Partition {
        let assignment: Vec<BlockId> = (0..graph.n() as u32)
            .map(|u| (u.wrapping_mul(2_654_435_761) >> 8) % k as u32)
            .collect();
        Partition::from_assignment(graph, k, epsilon, assignment)
    }

    #[test]
    fn fm_improves_cut_with_every_gain_table_kind() {
        let g = gen::grid2d(16, 16);
        for kind in [
            GainTableKind::None,
            GainTableKind::Dense,
            GainTableKind::Sparse,
        ] {
            let mut p = scrambled_partition(&g, 4, 0.25);
            let before = p.edge_cut_on(&g);
            let stats = fm_refine(&g, &mut p, kind, 8, 1.0);
            let after = p.edge_cut_on(&g);
            assert!(stats.moves > 0, "{:?}: no moves", kind);
            assert!(after < before, "{:?}: cut {} -> {}", kind, before, after);
            assert!(p.is_balanced(), "{:?}: imbalance {}", kind, p.imbalance());
        }
    }

    #[test]
    fn all_gain_tables_reach_similar_quality() {
        let g = gen::rgg2d(800, 10, 5);
        let mut cuts = Vec::new();
        for kind in [
            GainTableKind::None,
            GainTableKind::Dense,
            GainTableKind::Sparse,
        ] {
            let mut p = scrambled_partition(&g, 8, 0.25);
            fm_refine(&g, &mut p, kind, 6, 1.0);
            cuts.push(p.edge_cut_on(&g) as f64);
        }
        let min = cuts.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = cuts.iter().cloned().fold(0.0, f64::max);
        assert!(
            max / min < 1.3,
            "gain table kinds diverge in quality: {:?}",
            cuts
        );
    }

    #[test]
    fn gain_table_memory_ordering_matches_the_paper() {
        let g = gen::grid2d(24, 24);
        let k = 64;
        let mut sizes = std::collections::HashMap::new();
        for kind in [
            GainTableKind::None,
            GainTableKind::Dense,
            GainTableKind::Sparse,
        ] {
            let mut p = scrambled_partition(&g, k, 0.5);
            let stats = fm_refine(&g, &mut p, kind, 1, 1.0);
            sizes.insert(format!("{:?}", kind), stats.gain_table_bytes);
        }
        assert_eq!(sizes["None"], 0);
        assert!(sizes["Sparse"] > 0);
        assert!(
            sizes["Sparse"] < sizes["Dense"] / 4,
            "sparse table should be much smaller: {:?}",
            sizes
        );
    }

    #[test]
    fn move_gain_matches_cut_delta() {
        let g = gen::grid2d(6, 6);
        let p = scrambled_partition(&g, 3, 0.5);
        let before = p.edge_cut_on(&g);
        for u in [0 as NodeId, 7, 17, 35] {
            for to in 0..3 as BlockId {
                if to == p.block(u) {
                    continue;
                }
                let gain = move_gain(&g, &p, u, to);
                let mut moved = p.clone();
                moved.move_vertex(u, to, g.node_weight(u));
                let after = moved.edge_cut_on(&g);
                assert_eq!(before as i64 - after as i64, gain, "vertex {} to {}", u, to);
            }
        }
    }

    #[test]
    fn fm_is_a_noop_on_an_optimal_partition() {
        let g = gen::clique_chain(2, 10);
        let assignment: Vec<BlockId> = (0..20u32).map(|u| if u < 10 { 0 } else { 1 }).collect();
        let mut p = Partition::from_assignment(&g, 2, 0.03, assignment);
        let stats = fm_refine(&g, &mut p, GainTableKind::Sparse, 4, 1.0);
        assert_eq!(stats.moves, 0);
        assert_eq!(p.edge_cut_on(&g), 1);
    }

    #[test]
    fn empty_or_single_block_inputs() {
        let g = gen::path(5);
        let mut p = Partition::from_assignment(&g, 1, 0.03, vec![0; 5]);
        let stats = fm_refine(&g, &mut p, GainTableKind::Dense, 3, 1.0);
        assert_eq!(stats.moves, 0);
        assert_eq!(stats.passes, 0);
    }
}
