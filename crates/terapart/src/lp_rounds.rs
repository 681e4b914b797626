//! The shared frontier round-driver of label propagation.
//!
//! Clustering ([`cluster_with_scratch`]) and LP refinement ([`lp_refine_with_scratch`])
//! run the same outer loop: build the round's visit order from the active set (in round
//! 0 the caller's start set, or every vertex if it has none or the frontier is
//! disabled) with a round-derived seed
//! ([`build_visit_order`]), run one parallel round that marks the next round's frontier,
//! swap the frontier bitsets and evaluate a stop criterion. A round is handed its own
//! active set beside the next round's frontier, so clustering can tell a neighbour the
//! round has still to visit from one it has visited already; refinement ignores it.
//! The driver owns the visit order, its range permutation and both bitsets for one
//! stage: they are allocated for the stage's graph, charged to the memory accounting
//! while it runs and freed when it returns. The loop used to be
//! implemented twice with deliberately different *waiter* semantics; this module hosts
//! the single driver, parameterised over those semantics through
//! [`LpRoundSemantics`]:
//!
//! * clustering queues a vertex only when a neighbour moves, after the vertex's visit,
//!   into a cluster other than its own, or when the vertex's own move lost a race; it
//!   retries nothing beyond the frontier — a vertex whose best move was rejected by the
//!   cluster weight constraint is dropped (full clusters rarely shrink during
//!   clustering, and tracking per-cluster capacity changes would cost `O(n)` per round),
//!   and a move-free round always terminates the loop;
//! * refinement keeps balance-blocked movers as *waiters* across rounds (feasibility
//!   depends on global block weights, not the neighbourhood), reactivates them in
//!   whichever round their move first fits again, and only stops on a move-free round
//!   whose next active set is empty.
//!
//! [`cluster_with_scratch`]: crate::coarsening::cluster_with_scratch
//! [`lp_refine_with_scratch`]: crate::refinement::lp_refine_with_scratch

use graph::NodeId;
use memtrack::MemoryScope;
use obs::{Counter, ObsHandle, SpanKind};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use crate::scratch::AtomicBitset;

/// Aggregate outcome of a driven sequence of rounds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RoundStats {
    /// Rounds actually executed (may be fewer than requested on convergence).
    pub rounds: usize,
    /// Total moves across all rounds.
    pub moves: usize,
    /// Number of vertices visited in each executed round.
    pub visited_per_round: Vec<usize>,
}

/// What one round did: its moves and the half-edges it decoded (rating and marking
/// decodes alike), for the round's `lp_round` span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RoundWork {
    pub moves: usize,
    pub half_edges: u64,
}

/// The algorithm-specific half of the round loop (see the module docs).
pub(crate) trait LpRoundSemantics {
    /// Seed of the round's shuffle RNG (each caller keeps its historical mixing so
    /// results stay bit-identical to the pre-unification implementations).
    fn round_seed(&self, round: usize) -> u64;

    /// The `(rounds, moves)` counter pair the driver bumps per executed round, so the
    /// unified registry distinguishes clustering rounds from refinement rounds.
    fn obs_counters(&self) -> (Counter, Counter);

    /// Runs one parallel round over `order`, marking changed neighbourhoods in
    /// `frontier` (when enabled), and returns its moves and decoded half-edges.
    /// `active` is the set `order` was built from, every vertex on a full sweep. With the
    /// frontier on the round may clear its bits: the driver clears it before it becomes
    /// a frontier. A full sweep reuses it, so without the frontier it must stay intact.
    fn run_round(
        &mut self,
        order: &[NodeId],
        active: &AtomicBitset,
        frontier: Option<&AtomicBitset>,
    ) -> RoundWork;

    /// Whether vertices carried across rounds *outside* the frontier bitsets (waiters)
    /// may still produce work; an empty collected frontier only ends the loop when this
    /// is `false`.
    fn has_pending_waiters(&self) -> bool {
        false
    }

    /// Called between rounds while the frontier is enabled: register this round's
    /// blocked movers and reactivate waiters by setting bits in `next_active`.
    fn after_round(&mut self, _next_active: &AtomicBitset) {}

    /// Whether the loop should stop after a round with `moved` moves.
    /// `next_round_has_work` lazily reports whether the upcoming round's active set is
    /// non-empty (always `false` without the frontier); the default — stop on any
    /// move-free round — is the clustering criterion.
    fn should_stop(
        &mut self,
        moved: usize,
        _next_round_has_work: &mut dyn FnMut() -> bool,
    ) -> bool {
        moved == 0
    }
}

/// Vertex ids per visit-order chunk: four [`AtomicBitset`] words. Measured on
/// `rgg2d(250 000, 8)` (`fast`, k = 16): 64 to 4 096 ids all run within 15 % of each
/// other, but only up to 256 does the mean cut stay within 1 % of a global shuffle
/// (table in `docs/ARCHITECTURE.md`).
pub(crate) const VISIT_CHUNK: usize = 256;

/// Builds one round's visit order: the set bits of `active` below `n`, randomised
/// chunk by chunk. The id ranges `[256 i, 256 (i + 1))` are taken in a shuffled order
/// and the active vertices of each range are appended and shuffled among themselves,
/// so consecutive visits touch neighbouring offsets, encoded bytes, labels and — on a
/// paged store — pages, while the order stays random at both scales. A function of
/// `seed` and the active set only; `chunks` is the reusable range permutation.
pub(crate) fn build_visit_order(
    n: usize,
    active: &AtomicBitset,
    seed: u64,
    chunks: &mut Vec<NodeId>,
    order: &mut Vec<NodeId>,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    chunks.clear();
    chunks.extend(0..n.div_ceil(VISIT_CHUNK) as NodeId);
    chunks.shuffle(&mut rng);
    order.clear();
    for &chunk in chunks.iter() {
        let start = chunk as usize * VISIT_CHUNK;
        let first = order.len();
        active.collect_range_into(start, (start + VISIT_CHUNK).min(n), order);
        order[first..].shuffle(&mut rng);
    }
}

/// Drives up to `max_rounds` label propagation rounds over a graph with `n` vertices,
/// on a visit order and a frontier bitset pair of its own, and reports each round to
/// `obs`.
///
/// Round 0 visits the vertices of `start` — the caller's proof that nobody else has
/// work, e.g. a partition's boundary superset — or every vertex when there is none.
/// Without the frontier every round is a full sweep and `start` is ignored.
pub(crate) fn drive_lp_rounds<S: LpRoundSemantics>(
    n: usize,
    max_rounds: usize,
    use_frontier: bool,
    start: Option<&AtomicBitset>,
    obs: &ObsHandle,
    semantics: &mut S,
) -> RoundStats {
    let mut stats = RoundStats::default();
    if n == 0 {
        return stats;
    }
    let (rounds_counter, moves_counter) = semantics.obs_counters();
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    let mut chunks: Vec<NodeId> = Vec::with_capacity(n.div_ceil(VISIT_CHUNK));
    let (mut active, mut next_active) = (AtomicBitset::new(), AtomicBitset::new());
    active.ensure_len(n);
    next_active.ensure_len(n);
    let _charge = MemoryScope::charge_global(
        (order.capacity() + chunks.capacity()) * std::mem::size_of::<NodeId>()
            + active.memory_bytes()
            + next_active.memory_bytes(),
    );
    // A full sweep is the all-bits-set case of the frontier: without a start set
    // round 0 begins from it, and without the frontier nothing ever replaces it.
    match start {
        Some(start) if use_frontier => active.copy_from(start, n),
        _ => active.set_all(n),
    }
    for round in 0..max_rounds {
        build_visit_order(
            n,
            &active,
            semantics.round_seed(round),
            &mut chunks,
            &mut order,
        );
        if order.is_empty() && !semantics.has_pending_waiters() {
            break;
        }
        let mut round_span = obs.span_at(SpanKind::Round, "lp_round", round as u64);
        let frontier = if use_frontier {
            next_active.clear_range(n);
            Some(&next_active)
        } else {
            None
        };
        let work = semantics.run_round(&order, &active, frontier);
        let moved = work.moves;
        if frontier.is_some() {
            semantics.after_round(&next_active);
        }
        round_span.attr("visited", order.len() as u64);
        round_span.attr("moves", moved as u64);
        round_span.attr("half_edges", work.half_edges);
        drop(round_span);
        obs.add(rounds_counter, 1);
        obs.add(moves_counter, moved as u64);
        stats.rounds += 1;
        stats.visited_per_round.push(order.len());
        stats.moves += moved;
        if use_frontier {
            std::mem::swap(&mut active, &mut next_active);
        }
        let mut next_round_has_work = || use_frontier && active.count(n) > 0;
        if semantics.should_stop(moved, &mut next_round_has_work) {
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Minimal semantics that "moves" a shrinking set of vertices and records the
    /// driver's scheduling decisions.
    struct Recording {
        seed: u64,
        rounds_run: usize,
        visited: Vec<Vec<NodeId>>,
        moves_per_round: Vec<usize>,
    }

    impl LpRoundSemantics for Recording {
        fn round_seed(&self, round: usize) -> u64 {
            self.seed ^ round as u64
        }

        fn obs_counters(&self) -> (Counter, Counter) {
            (Counter::LpClusterRounds, Counter::LpClusterMoves)
        }

        fn run_round(
            &mut self,
            order: &[NodeId],
            _active: &AtomicBitset,
            frontier: Option<&AtomicBitset>,
        ) -> RoundWork {
            let mut sorted = order.to_vec();
            sorted.sort_unstable();
            self.visited.push(sorted);
            let moves = self
                .moves_per_round
                .get(self.rounds_run)
                .copied()
                .unwrap_or(0);
            if let Some(bits) = frontier {
                // Mark `moves` vertices active for the next round.
                for &u in order.iter().take(moves) {
                    bits.set(u as usize);
                }
            }
            self.rounds_run += 1;
            RoundWork {
                moves,
                half_edges: 0,
            }
        }
    }

    #[test]
    fn full_sweep_when_frontier_disabled() {
        let mut semantics = Recording {
            seed: 7,
            rounds_run: 0,
            visited: Vec::new(),
            moves_per_round: vec![3, 2, 1],
        };
        let stats = drive_lp_rounds(10, 3, false, None, &ObsHandle::noop(), &mut semantics);
        assert_eq!(stats.rounds, 3);
        assert_eq!(stats.moves, 6);
        for round in &semantics.visited {
            assert_eq!(round.len(), 10, "sweep rounds must visit every vertex");
        }
    }

    #[test]
    fn frontier_rounds_shrink_to_marked_vertices() {
        let mut semantics = Recording {
            seed: 7,
            rounds_run: 0,
            visited: Vec::new(),
            moves_per_round: vec![4, 2, 1],
        };
        let stats = drive_lp_rounds(16, 5, true, None, &ObsHandle::noop(), &mut semantics);
        assert_eq!(stats.visited_per_round[0], 16);
        assert_eq!(stats.visited_per_round[1], 4);
        assert_eq!(stats.visited_per_round[2], 2);
        assert!(stats.rounds >= 3);
    }

    #[test]
    fn a_start_set_replaces_the_sweep_of_round_zero_only_with_the_frontier() {
        let mut start = AtomicBitset::new();
        start.ensure_len(16);
        for u in [3, 4, 11] {
            start.set(u);
        }
        let run = |frontier: bool| {
            let mut semantics = Recording {
                seed: 7,
                rounds_run: 0,
                visited: Vec::new(),
                moves_per_round: vec![2, 1],
            };
            drive_lp_rounds(
                16,
                5,
                frontier,
                Some(&start),
                &ObsHandle::noop(),
                &mut semantics,
            );
            semantics.visited
        };
        let visited = run(true);
        assert_eq!(visited[0], vec![3, 4, 11]);
        assert_eq!(visited[1].len(), 2, "later rounds follow the marks as ever");
        assert!(run(false).iter().all(|round| round.len() == 16));
    }

    #[test]
    fn default_stop_is_first_move_free_round() {
        let mut semantics = Recording {
            seed: 1,
            rounds_run: 0,
            visited: Vec::new(),
            moves_per_round: vec![2, 0, 5],
        };
        let stats = drive_lp_rounds(8, 5, true, None, &ObsHandle::noop(), &mut semantics);
        assert_eq!(stats.rounds, 2, "must stop at the move-free round");
        assert_eq!(stats.moves, 2);
    }

    /// Semantics that records every round's raw visit order and marks a scripted set
    /// of vertices for the next round; it always reports a move, so only an empty
    /// frontier (or `max_rounds`) ends the loop.
    struct Scripted {
        seed: u64,
        marks_per_round: Vec<Vec<NodeId>>,
        orders: Vec<Vec<NodeId>>,
    }

    impl LpRoundSemantics for Scripted {
        fn round_seed(&self, round: usize) -> u64 {
            self.seed ^ round as u64
        }

        fn obs_counters(&self) -> (Counter, Counter) {
            (Counter::LpClusterRounds, Counter::LpClusterMoves)
        }

        fn run_round(
            &mut self,
            order: &[NodeId],
            _active: &AtomicBitset,
            frontier: Option<&AtomicBitset>,
        ) -> RoundWork {
            if let (Some(bits), Some(marks)) =
                (frontier, self.marks_per_round.get(self.orders.len()))
            {
                for &u in marks {
                    bits.set(u as usize);
                }
            }
            self.orders.push(order.to_vec());
            RoundWork {
                moves: 1,
                half_edges: 0,
            }
        }

        fn should_stop(&mut self, _moved: usize, _has_work: &mut dyn FnMut() -> bool) -> bool {
            false
        }
    }

    fn run_scripted(
        n: usize,
        frontier: bool,
        seed: u64,
        marks_per_round: &[Vec<NodeId>],
    ) -> Vec<Vec<NodeId>> {
        let mut semantics = Scripted {
            seed,
            marks_per_round: marks_per_round.to_vec(),
            orders: Vec::new(),
        };
        let stats = drive_lp_rounds(
            n,
            MAX_ROUNDS,
            frontier,
            None,
            &ObsHandle::noop(),
            &mut semantics,
        );
        assert_eq!(stats.rounds, semantics.orders.len());
        semantics.orders
    }

    const MAX_ROUNDS: usize = 6;
    const SIZES: [usize; 6] = [0, 1, 255, 256, 257, 10_007];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_every_round_visits_exactly_its_active_set_range_by_range(
            size in 0usize..SIZES.len(),
            frontier in proptest::bool::ANY,
            seed in any::<u64>(),
            raw_marks in proptest::collection::vec(any::<u64>(), 0..600),
        ) {
            let n = SIZES[size];
            // Three scripted frontiers of arbitrary density, then an empty one.
            let marks_per_round: Vec<Vec<NodeId>> = raw_marks
                .chunks((raw_marks.len() / 3).max(1))
                .take(3)
                .map(|c| c.iter().map(|&m| (m % n.max(1) as u64) as NodeId).collect())
                .collect();
            let orders = run_scripted(n, frontier, seed, &marks_per_round);
            prop_assert_eq!(
                &orders,
                &run_scripted(n, frontier, seed, &marks_per_round),
                "the order is a function of seed, round and active set"
            );
            // Which sets the driver had to visit: everything in round 0 and on full
            // sweeps, the previous round's marks otherwise — and nothing after an empty
            // frontier, because no waiter is pending (nor anything at all when n = 0).
            let all: Vec<NodeId> = (0..n as NodeId).collect();
            let mut expected: Vec<Vec<NodeId>> = Vec::new();
            for round in 0..MAX_ROUNDS {
                let mut set = match round.checked_sub(1).map(|r| marks_per_round.get(r)) {
                    Some(Some(marks)) if frontier => marks.clone(),
                    Some(None) if frontier => Vec::new(),
                    _ => all.clone(),
                };
                set.sort_unstable();
                set.dedup();
                if set.is_empty() {
                    break;
                }
                expected.push(set);
            }
            prop_assert_eq!(orders.len(), expected.len(), "rounds run");
            for (order, expected) in orders.iter().zip(&expected) {
                let mut sorted = order.clone();
                sorted.sort_unstable();
                prop_assert_eq!(&sorted, expected, "a permutation of exactly the active set");
                // Ids of one range are contiguous in the order.
                let range = |u: NodeId| u as usize / VISIT_CHUNK;
                let switches = order.windows(2).filter(|w| range(w[0]) != range(w[1])).count();
                let mut ranges: Vec<usize> = expected.iter().map(|&u| range(u)).collect();
                ranges.dedup();
                prop_assert_eq!(switches, ranges.len() - 1, "range switches");
            }
        }
    }

    #[test]
    fn the_order_is_random_within_and_across_ranges() {
        let n = 4 * VISIT_CHUNK;
        let mut active = AtomicBitset::new();
        active.ensure_len(n);
        active.set_all(n);
        let (mut chunks, mut order) = (Vec::new(), Vec::new());
        let mut distinct_range_orders = std::collections::HashSet::new();
        for seed in 0..8 {
            build_visit_order(n, &active, seed, &mut chunks, &mut order);
            assert!(
                order[..VISIT_CHUNK].windows(2).any(|w| w[0] > w[1]),
                "a range's members must be shuffled"
            );
            distinct_range_orders.insert(chunks.clone());
        }
        assert!(distinct_range_orders.len() > 1, "ranges must be shuffled");
    }

    /// Semantics with a waiter that keeps the loop alive across an empty frontier.
    struct OneWaiter {
        pending: bool,
        rounds_run: usize,
    }

    impl LpRoundSemantics for OneWaiter {
        fn round_seed(&self, round: usize) -> u64 {
            round as u64
        }

        fn obs_counters(&self) -> (Counter, Counter) {
            (Counter::LpRefineRounds, Counter::LpRefineMoves)
        }

        fn run_round(
            &mut self,
            _order: &[NodeId],
            _active: &AtomicBitset,
            _frontier: Option<&AtomicBitset>,
        ) -> RoundWork {
            self.rounds_run += 1;
            // Round 0 performs a move but marks nothing; the waiter reactivates later.
            RoundWork {
                moves: usize::from(self.rounds_run == 1 || self.rounds_run == 3),
                half_edges: 0,
            }
        }

        fn has_pending_waiters(&self) -> bool {
            self.pending
        }

        fn after_round(&mut self, next_active: &AtomicBitset) {
            if self.rounds_run == 2 && self.pending {
                // The waiter's move became feasible: reactivate it.
                next_active.set(5);
                self.pending = false;
            }
        }

        fn should_stop(
            &mut self,
            moved: usize,
            next_round_has_work: &mut dyn FnMut() -> bool,
        ) -> bool {
            moved == 0 && !next_round_has_work() && !self.pending
        }
    }

    #[test]
    fn waiters_keep_the_loop_alive_and_reactivate() {
        let mut semantics = OneWaiter {
            pending: true,
            rounds_run: 0,
        };
        let stats = drive_lp_rounds(8, 6, true, None, &ObsHandle::noop(), &mut semantics);
        // Round 0 (full), round 1 (empty order but pending waiter), round 2 (the
        // reactivated waiter), round 3 onwards stops.
        assert!(stats.rounds >= 3, "waiter rounds missing: {:?}", stats);
        assert_eq!(stats.visited_per_round[2], 1, "reactivated waiter only");
        assert!(!semantics.pending);
    }
}
