//! Size-constrained label propagation refinement (paper §II-B).
//!
//! This is KaMinPar's default refinement algorithm and the refinement used by
//! TeraPart-LP. Starting from the projected partition, vertices are visited in parallel
//! and moved to the adjacent block with the strongest connection, provided the move
//! strictly improves the connection weight and the target block stays within the balance
//! constraint. Its auxiliary memory is proportional to `k` (per-thread block-rating
//! maps), which the paper notes is negligible compared to the clustering stage. The
//! workers move vertices in the partition itself, through an atomic view of its
//! assignment and block weights (`AtomicPartition`); nothing is copied or committed
//! back.
//!
//! Rounds after the first are frontier-driven: a vertex is revisited if it was adjacent
//! to a move of the previous round (its affinities changed), if its move lost a race, or
//! if its balance-blocked move became feasible — feasibility depends on global block
//! weights, so a vertex whose best improving block was full is kept as a waiter (with
//! its weight and target) across rounds and reactivated in whichever round the move
//! first fits again. On a converging instance the active set shrinks every round and
//! the refinement cost drops from `O(rounds · m)` to `O(m + moved-region work)`.
//! The round loop (collect/shuffle/run/swap plus stop criteria) is the shared driver of
//! `crate::lp_rounds`, instantiated here with the balance-waiter semantics.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use graph::traits::Graph;
use graph::{NodeId, NodeWeight};
use memtrack::MemoryScope;

use crate::coarsening::rating_map::FixedCapacityHashMap;
use crate::lp_rounds::{drive_lp_rounds, LpRoundSemantics, RoundWork, VisitOrder};
use crate::partition::{BlockId, BoundarySet, Partition};
use crate::scratch::{AtomicBitset, HierarchyScratch, Pool, WorkerScratch};

// The atomic view reinterprets the partition's own arrays in place: each atomic must
// have its plain type's size and alignment.
const _: () = {
    use std::mem::{align_of, size_of};
    assert!(size_of::<AtomicU32>() == size_of::<BlockId>());
    assert!(align_of::<AtomicU32>() == align_of::<BlockId>());
    assert!(size_of::<AtomicU64>() == size_of::<NodeWeight>());
    assert!(align_of::<AtomicU64>() == align_of::<NodeWeight>());
};

/// The partition's assignment and block weights as atomics, borrowed for the duration of
/// one refinement: the workers move vertices in the partition itself.
pub(crate) struct AtomicPartition<'a> {
    pub assignment: &'a [AtomicU32],
    pub block_weights: &'a [AtomicU64],
    pub max_block_weight: NodeWeight,
}

impl<'a> AtomicPartition<'a> {
    pub fn new(
        assignment: &'a mut [BlockId],
        block_weights: &'a mut [NodeWeight],
        max_block_weight: NodeWeight,
    ) -> Self {
        // SAFETY: `AtomicU32` / `AtomicU64` have the bit validity of `u32` / `u64`, and
        // the size and alignment of `BlockId` / `NodeWeight` (asserted above), so the
        // casts keep every element in bounds and aligned; the exclusive borrows guarantee
        // that nothing reads or writes the arrays non-atomically while the view lives.
        unsafe {
            Self {
                assignment: &*(assignment as *mut [BlockId] as *const [AtomicU32]),
                block_weights: &*(block_weights as *mut [NodeWeight] as *const [AtomicU64]),
                max_block_weight,
            }
        }
    }

    pub fn block(&self, u: NodeId) -> BlockId {
        self.assignment[u as usize].load(Ordering::Relaxed)
    }

    /// Attempts to move `u` to `target`, enforcing the balance constraint on the target
    /// block with a CAS loop. Returns `true` on success.
    pub fn try_move(&self, u: NodeId, node_weight: NodeWeight, target: BlockId) -> bool {
        let source = self.block(u);
        if source == target {
            return false;
        }
        let target_weight = &self.block_weights[target as usize];
        let mut observed = target_weight.load(Ordering::Relaxed);
        loop {
            if observed + node_weight > self.max_block_weight {
                return false;
            }
            match target_weight.compare_exchange_weak(
                observed,
                observed + node_weight,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => observed = actual,
            }
        }
        self.block_weights[source as usize].fetch_sub(node_weight, Ordering::Relaxed);
        self.assignment[u as usize].store(target, Ordering::Relaxed);
        true
    }
}

/// Statistics of one label propagation refinement invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LpRefineStats {
    /// Total vertex moves performed.
    pub moves: usize,
    /// Rounds actually executed (may be fewer than requested on convergence).
    pub rounds: usize,
    /// Number of vertices visited in each executed round: entry 0 is the size of the
    /// partition's boundary superset (the full vertex count while that is unknown) and
    /// later entries are the active-set sizes.
    pub visited_per_round: Vec<usize>,
}

/// Runs up to `rounds` rounds of size-constrained label propagation refinement on
/// `partition` with a fresh worker pool. Returns the number of vertex moves performed.
/// Its one caller outside the tests is the single-level `xtrapulp_like` baseline; the
/// multilevel pipeline calls [`lp_refine_with_scratch`].
pub fn lp_refine(graph: &impl Graph, partition: &mut Partition, rounds: usize, seed: u64) -> usize {
    let mut scratch = HierarchyScratch::new();
    lp_refine_with_scratch(graph, partition, rounds, seed, &mut scratch).moves
}

/// Runs label propagation refinement, leasing per-worker rating tables from `scratch`.
/// Round 0 visits the partition's boundary superset — a vertex outside it has no
/// neighbour in another block and nothing to gain — or every vertex while it is unknown,
/// and later rounds only the vertices whose neighbourhood changed in the previous round.
///
/// The partition leaves with an exact tracked cut and a boundary superset
/// re-tightened to `{u visited : u had a neighbour in another block} ∪ {u ∪ N(u) : u
/// moved}`. Bits are only ever set, by whichever thread sees the reason first, so the
/// set is a superset of the boundary at any thread count; moves race, so the cut is
/// recounted — over that set, not over the graph.
pub fn lp_refine_with_scratch(
    graph: &impl Graph,
    partition: &mut Partition,
    rounds: usize,
    seed: u64,
    scratch: &mut HierarchyScratch,
) -> LpRefineStats {
    let n = graph.n();
    if n == 0 || partition.k() <= 1 || rounds == 0 {
        return LpRefineStats::default();
    }
    let k = partition.k();
    let max_block_weight = partition.max_block_weight();
    let (assignment, block_weights, boundary_slot) = partition.refiner_state();
    let state = AtomicPartition::new(assignment, block_weights, max_block_weight);
    // Round 0 starts from the incoming superset; the outgoing one is collected apart
    // from it, so that it shrinks to what this level still finds on the boundary.
    let start = boundary_slot.take();
    let boundary = BoundarySet::empty(n);
    // Account the per-worker rating maps (one per thread, reused via the arena's worker
    // pool) for the duration of the refinement, mirroring the clustering stage's
    // accounting.
    let table_limit = k.min(1 + graph.max_degree());
    let _ratings_scope = MemoryScope::charge_global(
        rayon::current_num_threads().max(1) * FixedCapacityHashMap::new(table_limit).memory_bytes(),
    );

    /// Refinement semantics for the shared driver: historical `seed ^ (round << 17)`
    /// shuffle seeds, balance-blocked movers carried across rounds as waiters, and a
    /// stop only on a move-free round whose next active set is empty.
    struct RefinementRounds<'a, G: Graph> {
        graph: &'a G,
        state: &'a AtomicPartition<'a>,
        /// The outgoing boundary superset (set-only).
        boundary: &'a AtomicBitset,
        k: usize,
        seed: u64,
        /// Vertices whose best improving move was rejected by the balance constraint,
        /// carried across rounds: `(vertex, blocked target block, vertex weight)`.
        waiters: Vec<(NodeId, BlockId, NodeWeight)>,
        /// Waiters registered by the round just run, consumed by `after_round`.
        newly_blocked: Vec<(NodeId, BlockId, NodeWeight)>,
        /// The arena's per-worker buffer pool.
        workers: &'a Pool<WorkerScratch>,
    }

    impl<G: Graph> LpRoundSemantics for RefinementRounds<'_, G> {
        fn round_seed(&self, round: usize) -> u64 {
            self.seed ^ (round as u64) << 17
        }

        fn obs_counters(&self) -> (obs::Counter, obs::Counter) {
            (obs::Counter::LpRefineRounds, obs::Counter::LpRefineMoves)
        }

        fn run_round(&mut self, order: &VisitOrder<'_>, frontier: &AtomicBitset) -> RoundWork {
            let (work, newly_blocked) = run_round(
                self.graph,
                self.state,
                self.k,
                order,
                frontier,
                self.boundary,
                self.workers,
            );
            self.newly_blocked = newly_blocked;
            work
        }

        fn has_pending_waiters(&self) -> bool {
            !self.waiters.is_empty()
        }

        fn after_round(&mut self, next_active: &AtomicBitset) {
            // Feasibility depends on global block weights, not the neighbourhood: a
            // waiter is reactivated in whichever round its recorded move first fits
            // again (and then leaves the list — if still unlucky, the revisit
            // re-registers it).
            let mut newly_blocked = std::mem::take(&mut self.newly_blocked);
            self.waiters.append(&mut newly_blocked);
            let state = self.state;
            self.waiters.retain(|&(u, block, weight)| {
                let fits = state.block_weights[block as usize].load(Ordering::Relaxed) + weight
                    <= state.max_block_weight;
                if fits {
                    next_active.set(u as usize);
                }
                !fits
            });
        }

        fn should_stop(
            &mut self,
            moved: usize,
            next_round_has_work: &mut dyn FnMut() -> bool,
        ) -> bool {
            // Stop on a move-free round — unless a reactivated waiter is queued for
            // the next round.
            moved == 0 && !next_round_has_work()
        }
    }

    let mut semantics = RefinementRounds {
        graph,
        state: &state,
        boundary: boundary.bits(),
        k,
        seed,
        waiters: Vec::new(),
        newly_blocked: Vec::new(),
        workers: &scratch.workers,
    };
    let driven = drive_lp_rounds(
        n,
        rounds,
        start.as_ref().map(BoundarySet::bits),
        &scratch.obs,
        &mut semantics,
    );
    scratch.obs.add(
        obs::Counter::LpRefineVisited,
        driven.visited_per_round.iter().sum::<usize>() as u64,
    );
    *boundary_slot = Some(boundary);
    partition.recount_cut(graph);
    LpRefineStats {
        moves: driven.moves,
        rounds: driven.rounds,
        visited_per_round: driven.visited_per_round,
    }
}

/// One parallel round over `order`, marking the next round's `frontier`; returns its
/// moves and decoded half-edges and the balance-blocked waiters: `(vertex, blocked
/// target block, weight)` of every vertex whose improving move was rejected only because
/// the target block was full. Only the highest-affinity blocked block is recorded per
/// vertex — tracking all of them would grow the list without changing behaviour
/// materially, since a revisit recomputes the full candidate set anyway.
///
/// `boundary` receives every visited vertex that has a neighbour in another block and
/// every mover with its neighbourhood.
fn run_round(
    graph: &impl Graph,
    state: &AtomicPartition<'_>,
    k: usize,
    order: &VisitOrder<'_>,
    frontier: &AtomicBitset,
    boundary: &AtomicBitset,
    workers: &Pool<WorkerScratch>,
) -> (RoundWork, Vec<(NodeId, BlockId, NodeWeight)>) {
    let table_limit = k.min(1 + graph.max_degree());
    type Waiters = Vec<(NodeId, BlockId, NodeWeight)>;
    let visit_range = |(work, blocked): &mut (RoundWork, Waiters), range: &[NodeId]| {
        // Reuse a pooled worker's rating map across ranges (and across calls); the lease
        // returns it to the arena's pool when the range is done.
        let mut worker = workers.checkout();
        let ratings = worker.rating_table(table_limit);
        for &u in range {
            let current = state.block(u);
            ratings.clear();
            let mut has_external = false;
            graph.for_each_neighbor(u, &mut |v, w| {
                work.half_edges += 1;
                let block = state.block(v);
                // The rating table is keyed by NodeId; block ids (< k) always fit.
                ratings.add(NodeId::from(block), w);
                has_external |= block != current;
            });
            if !has_external {
                continue;
            }
            boundary.set(u as usize);
            let node_weight = graph.node_weight(u);
            let current_affinity = ratings.get(NodeId::from(current));
            // Choose the feasible block with the highest affinity; move only on a
            // strict improvement to avoid oscillation.
            let mut best: Option<(BlockId, u64)> = None;
            let mut blocked_best: Option<(BlockId, u64)> = None;
            for (block, affinity) in ratings.iter() {
                // Narrowing back from the NodeId-keyed table is lossless: only
                // block ids below k were inserted.
                let block = block as BlockId;
                if block == current || affinity <= current_affinity {
                    continue;
                }
                let feasible = state.block_weights[block as usize].load(Ordering::Relaxed)
                    + node_weight
                    <= state.max_block_weight;
                let slot = if feasible {
                    &mut best
                } else {
                    &mut blocked_best
                };
                *slot = match *slot {
                    None => Some((block, affinity)),
                    Some((_, bw)) if affinity > bw => Some((block, affinity)),
                    other => other,
                };
            }
            match best {
                Some((target, _)) => {
                    if state.try_move(u, node_weight, target) {
                        work.moves += 1;
                        // The move can put any neighbour on the boundary (or take
                        // it off, which a superset need not notice).
                        graph.for_each_neighbor(u, &mut |v, _| {
                            work.half_edges += 1;
                            boundary.set(v as usize);
                            frontier.set(v as usize);
                        });
                        frontier.set(u as usize);
                    } else {
                        // The move raced against a concurrent one filling the
                        // target: keep u active so the next round retries it.
                        frontier.set(u as usize);
                    }
                }
                None => {
                    // An improving move may exist behind the balance constraint;
                    // record the waiter so the caller reactivates u if that block
                    // frees capacity (feasibility is global, not neighbourhood-local).
                    if let Some((block, _)) = blocked_best {
                        blocked.push((u, block, node_weight));
                    }
                }
            }
        }
    };
    order.fold(
        Default::default,
        visit_range,
        |(left, mut blocked), (right, mut more)| {
            blocked.append(&mut more);
            (left + right, blocked)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen;

    #[test]
    fn refinement_never_worsens_the_cut() {
        let g = gen::grid2d(16, 16);
        // A poor (pseudo-random but balanced) initial partition.
        let assignment: Vec<BlockId> = (0..g.n() as u32)
            .map(|u| (u.wrapping_mul(2_654_435_761) >> 8) % 4)
            .collect();
        let mut p = Partition::from_assignment(&g, 4, 0.1, assignment);
        let before = p.edge_cut_on(&g);
        let moves = lp_refine(&g, &mut p, 5, 1);
        let after = p.edge_cut_on(&g);
        assert!(moves > 0, "expected some improving moves");
        assert!(
            after < before,
            "cut did not improve: {} -> {}",
            before,
            after
        );
        assert!(p.is_balanced() || p.imbalance() <= 0.1 + 1e-9);
    }

    #[test]
    fn balance_constraint_is_never_violated_by_moves() {
        let g = gen::complete(20);
        let assignment: Vec<BlockId> = (0..20u32).map(|u| u % 4).collect();
        let mut p = Partition::from_assignment(&g, 4, 0.0, assignment);
        let max = p.max_block_weight();
        lp_refine(&g, &mut p, 5, 3);
        assert!(p.block_weights().iter().all(|&w| w <= max));
        assert_eq!(p.block_weights().iter().sum::<NodeWeight>(), 20);
    }

    #[test]
    fn perfect_partition_stays_untouched() {
        // Two cliques, perfectly split: no move can improve the single-bridge cut.
        let g = gen::clique_chain(2, 8);
        let assignment: Vec<BlockId> = (0..16u32).map(|u| if u < 8 { 0 } else { 1 }).collect();
        let mut p = Partition::from_assignment(&g, 2, 0.03, assignment.clone());
        lp_refine(&g, &mut p, 3, 5);
        assert_eq!(p.edge_cut_on(&g), 1);
        assert_eq!(p.assignment(), assignment.as_slice());
    }

    #[test]
    fn single_block_is_a_noop() {
        let g = gen::path(10);
        let mut p = Partition::from_assignment(&g, 1, 0.03, vec![0; 10]);
        assert_eq!(lp_refine(&g, &mut p, 3, 1), 0);
        assert_eq!(p.edge_cut_on(&g), 0);
    }

    #[test]
    fn works_on_compressed_graphs() {
        let csr = gen::grid2d(12, 12);
        let compressed =
            graph::CompressedGraph::from_csr(&csr, &graph::CompressionConfig::default());
        let assignment: Vec<BlockId> = (0..csr.n() as u32).map(|u| u % 2).collect();
        let mut p_csr = Partition::from_assignment(&csr, 2, 0.1, assignment.clone());
        let mut p_comp = Partition::from_assignment(&compressed, 2, 0.1, assignment);
        lp_refine(&csr, &mut p_csr, 3, 9);
        lp_refine(&compressed, &mut p_comp, 3, 9);
        // Both representations should allow substantial improvement over the stripes.
        assert!(p_csr.edge_cut_on(&csr) < 100);
        assert!(p_comp.edge_cut_on(&compressed) < 100);
    }

    /// The acceptance property of the frontier rewrite: after the full first round, no
    /// further full-vertex sweep happens, and on a converging instance the active set
    /// shrinks monotonically.
    #[test]
    fn frontier_never_rescans_converged_regions() {
        // Four vertical stripes on a grid are locally optimal almost everywhere; flip a
        // thin column of vertices into the wrong block. Strict-improvement LP unzips the
        // protrusion from its ends over several rounds, so only that region has work.
        let g = gen::grid2d(32, 32);
        let n = g.n();
        let mut assignment: Vec<BlockId> = (0..n as u32).map(|u| (u % 32) / 8).collect();
        for row in 0..6 {
            assignment[row * 32] = 1; // column 0 belongs to stripe 0
        }
        let mut p = Partition::from_assignment(&g, 4, 0.1, assignment);
        // Single-thread pool for a deterministic move schedule.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let mut scratch = HierarchyScratch::new();
        let stats = pool.install(|| lp_refine_with_scratch(&g, &mut p, 8, 1, &mut scratch));
        assert!(
            stats.rounds >= 2,
            "expected several rounds, got {:?}",
            stats
        );
        assert_eq!(
            stats.visited_per_round[0], n,
            "round 0 must sweep all vertices"
        );
        // No full-vertex sweep after the first round: only the perturbed region and the
        // stripe boundaries it touches stay active.
        for (round, &visited) in stats.visited_per_round.iter().enumerate().skip(1) {
            assert!(
                visited < n / 4,
                "round {} visited {} of {} vertices — the converged stripes were rescanned",
                round,
                visited,
                n
            );
        }
        // Monotonically shrinking active set on this converging instance.
        for w in stats.visited_per_round.windows(2) {
            assert!(
                w[1] <= w[0],
                "active set grew: {:?}",
                stats.visited_per_round
            );
        }
        assert!(p.is_balanced() || p.imbalance() <= 0.1 + 1e-9);
    }

    /// A second call knows the boundary the first one left: round 0 visits that, not V,
    /// and the set it leaves is again a superset of the true boundary with an exact cut.
    #[test]
    fn a_known_boundary_is_where_round_zero_starts() {
        let g = gen::grid2d(32, 32);
        let n = g.n();
        let assignment: Vec<BlockId> = (0..n as u32).map(|u| (u % 32) / 8).collect();
        let mut p = Partition::from_assignment(&g, 4, 0.1, assignment);
        let mut scratch = HierarchyScratch::new();
        let first = lp_refine_with_scratch(&g, &mut p, 8, 1, &mut scratch);
        assert_eq!(
            first.visited_per_round[0], n,
            "unknown boundary: a full sweep"
        );
        // Three stripe borders, two columns each.
        assert_eq!(p.boundary_candidates(), Some(3 * 2 * 32));
        assert_eq!(p.edge_cut(), 3 * 32);
        let second = lp_refine_with_scratch(&g, &mut p, 8, 2, &mut scratch);
        assert_eq!(second.visited_per_round, [3 * 2 * 32]);
        p.check_tracked_state(&g).unwrap();
    }

    #[test]
    fn zero_rounds_leave_the_partition_alone() {
        let g = gen::grid2d(8, 8);
        let mut p = Partition::from_assignment(&g, 2, 0.1, (0..64u32).map(|u| u % 2).collect());
        let mut scratch = HierarchyScratch::new();
        let stats = lp_refine_with_scratch(&g, &mut p, 0, 1, &mut scratch);
        assert_eq!(stats, LpRefineStats::default());
        assert_eq!(
            p.boundary_candidates(),
            None,
            "nothing was visited: still unknown"
        );
        assert_eq!(p.tracked_cut(), None);
    }
}
