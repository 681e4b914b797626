//! The shared frontier round-driver of label propagation.
//!
//! Clustering ([`cluster_with_scratch`]) and LP refinement ([`lp_refine_with_scratch`])
//! run the same outer loop: derive the round's visit order from the active set (in
//! round 0 the caller's start set, or every vertex if it has none) and a round-derived
//! seed ([`VisitOrder`]), run one parallel round over it that marks the next round's
//! frontier, swap the frontier bitsets and evaluate a stop criterion. A round is handed
//! its own active set beside the next round's frontier, so clustering can tell a
//! neighbour the round has still to visit from one it has visited already; refinement
//! ignores it. The order is never materialised: the driver stores
//! only the shuffled range permutation, and the round collects and shuffles the active
//! ids of one 256-id range when it reaches it. The driver owns that permutation and both
//! bitsets for one stage: they are allocated for the stage's graph, charged to the
//! memory accounting while it runs and freed when it returns. The loop used to be
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

impl std::ops::Add for RoundWork {
    type Output = Self;

    fn add(self, other: Self) -> Self {
        Self {
            moves: self.moves + other.moves,
            half_edges: self.half_edges + other.half_edges,
        }
    }
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
    /// `frontier`, and returns its moves and decoded half-edges.
    /// [`VisitOrder::active`] is the set the order walks. The round may clear the bit of
    /// a vertex it has visited (and set it again while that vertex is still to be
    /// visited): the driver clears the set before it becomes a frontier.
    fn run_round(&mut self, order: &VisitOrder<'_>, frontier: &AtomicBitset) -> RoundWork;

    /// Whether vertices carried across rounds *outside* the frontier bitsets (waiters)
    /// may still produce work; an empty collected frontier only ends the loop when this
    /// is `false`.
    fn has_pending_waiters(&self) -> bool {
        false
    }

    /// Called after every round: register this round's blocked movers and reactivate
    /// waiters by setting bits in `next_active`.
    fn after_round(&mut self, _next_active: &AtomicBitset) {}

    /// Whether the loop should stop after a round with `moved` moves.
    /// `next_round_has_work` lazily reports whether the upcoming round's active set is
    /// non-empty; the default — stop on any move-free round — is the clustering
    /// criterion.
    fn should_stop(
        &mut self,
        moved: usize,
        _next_round_has_work: &mut dyn FnMut() -> bool,
    ) -> bool {
        moved == 0
    }
}

/// Vertex ids per visit-order range: four [`AtomicBitset`] words. Measured on
/// `rgg2d(250 000, 8)` (`fast`, k = 16): 64 to 4 096 ids all run within 15 % of each
/// other, but only up to 256 does the mean cut stay within 1 % of a global shuffle
/// (table in `docs/ARCHITECTURE.md`).
pub(crate) const VISIT_CHUNK: usize = 256;

/// A part of a round with fewer visits than this runs on the calling thread rather
/// than being split between two (the rayon shim's sequential threshold).
const MIN_SPLIT_VISITS: usize = 4096;

/// One round's visit order: the set bits of `active` below `n`, randomised range by
/// range. The id ranges `[256 i, 256 (i + 1))` are taken in a shuffled order and the
/// active vertices of each range are shuffled among themselves, so consecutive visits
/// touch neighbouring offsets, encoded bytes, labels and — on a paged store — pages,
/// while the order stays random at both scales. A function of the seed and the active
/// set only.
///
/// Only the range permutation is stored. [`Self::fold`] collects a range's active ids
/// into a 256-id buffer when the walk reaches it and shuffles them with the stream the
/// permutation shuffle left off at, so the sequence is the one a materialised order
/// would hold. Collecting late is sound because a round only ever clears or re-sets the
/// bit of the vertex it is visiting, which lies in a range already collected.
pub(crate) struct VisitOrder<'a> {
    n: usize,
    active: &'a AtomicBitset,
    /// The shuffled range permutation.
    ranges: &'a [NodeId],
    /// The stream right after the permutation shuffle.
    rng: ChaCha8Rng,
    /// Number of active vertices below `n`.
    visits: usize,
    /// A part of the walk with fewer visits is not split.
    min_split: usize,
}

impl<'a> VisitOrder<'a> {
    /// The order of `active` under `seed`, shuffling the range permutation into
    /// `ranges` (a buffer reused across rounds).
    pub(crate) fn new(
        n: usize,
        active: &'a AtomicBitset,
        seed: u64,
        ranges: &'a mut Vec<NodeId>,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        ranges.clear();
        ranges.extend(0..n.div_ceil(VISIT_CHUNK) as NodeId);
        ranges.shuffle(&mut rng);
        Self {
            n,
            active,
            ranges,
            rng,
            visits: active.count_range(0, n),
            min_split: MIN_SPLIT_VISITS,
        }
    }

    /// The active set the order walks.
    pub(crate) fn active(&self) -> &'a AtomicBitset {
        self.active
    }

    /// Number of vertices the order visits.
    pub(crate) fn len(&self) -> usize {
        self.visits
    }

    /// Active vertices of range `range`.
    fn range_count(&self, range: NodeId) -> usize {
        let start = range as usize * VISIT_CHUNK;
        self.active
            .count_range(start, (start + VISIT_CHUNK).min(self.n))
    }

    /// Walks the order: `visit(acc, ids)` gets the shuffled active ids of each
    /// non-empty range in turn. While the thread budget is above one, the range
    /// permutation is split with `rayon::join` at the share of the visits that matches
    /// the share of threads the left half gets (the midpoint at an even budget), taken
    /// from popcounts; the right half replays the stream by the draws the left half
    /// consumes (a shuffle of `c` ids draws `c − 1` times). Each part folds into an
    /// accumulator of its own, from `init`, and `combine` joins a left part's with the
    /// right one's, so an order-preserving `combine` sees the visits in order. At one
    /// thread nothing is split or replayed.
    pub(crate) fn fold<A: Send>(
        &self,
        init: impl Fn() -> A + Sync,
        visit: impl Fn(&mut A, &[NodeId]) + Sync,
        combine: impl Fn(A, A) -> A + Sync,
    ) -> A {
        let rng = self.rng.clone();
        self.fold_part(self.ranges, rng, self.visits, &init, &visit, &combine)
    }

    /// [`Self::fold`] over `ranges`, a part of the permutation with `visits` visits whose
    /// first shuffle draws from `rng`.
    fn fold_part<A: Send>(
        &self,
        ranges: &[NodeId],
        mut rng: ChaCha8Rng,
        visits: usize,
        init: &(impl Fn() -> A + Sync),
        visit: &(impl Fn(&mut A, &[NodeId]) + Sync),
        combine: &(impl Fn(A, A) -> A + Sync),
    ) -> A {
        let threads = rayon::current_num_threads();
        if threads > 1 && visits >= self.min_split.max(2) && ranges.len() > 1 {
            // `join` keeps the larger half of the budget on the left.
            let left_share = visits * (threads - threads / 2) / threads;
            let (mut mid, mut left_visits, mut left_draws) = (0, 0, 0);
            while mid < ranges.len() - 1 && left_visits < left_share {
                let count = self.range_count(ranges[mid]);
                left_visits += count;
                left_draws += count.saturating_sub(1);
                mid += 1;
            }
            let right_rng = rng.clone();
            let (left, right) = rayon::join(
                || self.fold_part(&ranges[..mid], rng, left_visits, init, visit, combine),
                || {
                    let mut rng = right_rng;
                    for _ in 0..left_draws {
                        rng.next_u64();
                    }
                    let visits = visits - left_visits;
                    self.fold_part(&ranges[mid..], rng, visits, init, visit, combine)
                },
            );
            return combine(left, right);
        }
        let mut acc = init();
        let mut ids = Vec::with_capacity(VISIT_CHUNK);
        for &range in ranges {
            let start = range as usize * VISIT_CHUNK;
            ids.clear();
            self.active
                .collect_range_into(start, (start + VISIT_CHUNK).min(self.n), &mut ids);
            if !ids.is_empty() {
                ids.shuffle(&mut rng);
                visit(&mut acc, &ids);
            }
        }
        acc
    }
}

/// Drives up to `max_rounds` label propagation rounds over a graph with `n` vertices,
/// on a range permutation and a frontier bitset pair of its own, and reports each round
/// to `obs`.
///
/// Round 0 visits the vertices of `start` — the caller's proof that nobody else has
/// work, e.g. a partition's boundary superset — or every vertex when there is none.
/// Every later round visits the frontier the previous one marked.
pub(crate) fn drive_lp_rounds<S: LpRoundSemantics>(
    n: usize,
    max_rounds: usize,
    start: Option<&AtomicBitset>,
    obs: &ObsHandle,
    semantics: &mut S,
) -> RoundStats {
    let mut stats = RoundStats::default();
    if n == 0 {
        return stats;
    }
    let (rounds_counter, moves_counter) = semantics.obs_counters();
    let mut ranges: Vec<NodeId> = Vec::with_capacity(n.div_ceil(VISIT_CHUNK));
    let (mut active, mut next_active) = (AtomicBitset::new(), AtomicBitset::new());
    active.ensure_len(n);
    next_active.ensure_len(n);
    let _charge = MemoryScope::charge_global(
        ranges.capacity() * std::mem::size_of::<NodeId>()
            + active.memory_bytes()
            + next_active.memory_bytes(),
    );
    match start {
        Some(start) => active.copy_from(start, n),
        None => active.set_all(n),
    }
    for round in 0..max_rounds {
        let order = VisitOrder::new(n, &active, semantics.round_seed(round), &mut ranges);
        let visited = order.len();
        if visited == 0 && !semantics.has_pending_waiters() {
            break;
        }
        let mut round_span = obs.span_at(SpanKind::Round, "lp_round", round as u64);
        next_active.clear_range(n);
        let work = semantics.run_round(&order, &next_active);
        let moved = work.moves;
        semantics.after_round(&next_active);
        round_span.attr("visited", visited as u64);
        round_span.attr("moves", moved as u64);
        round_span.attr("half_edges", work.half_edges);
        drop(round_span);
        obs.add(rounds_counter, 1);
        obs.add(moves_counter, moved as u64);
        stats.rounds += 1;
        stats.visited_per_round.push(visited);
        stats.moves += moved;
        std::mem::swap(&mut active, &mut next_active);
        let mut next_round_has_work = || active.count(n) > 0;
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

    /// The order [`VisitOrder`] generates, materialised: the set bits of `active` below
    /// `n`, the ranges taken in the shuffled order of `chunks`, each range shuffled.
    fn build_visit_order(
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

    /// The sequence `order` walks, split as a round splits it, or at every part of at
    /// least two visits where `min_split` is 1.
    fn sequence(order: &VisitOrder<'_>, min_split: usize) -> Vec<NodeId> {
        let order = VisitOrder {
            rng: order.rng.clone(),
            min_split,
            ..*order
        };
        order.fold(
            Vec::new,
            |acc, ids| acc.extend_from_slice(ids),
            |mut left, right| {
                left.extend(right);
                left
            },
        )
    }

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

        fn run_round(&mut self, order: &VisitOrder<'_>, frontier: &AtomicBitset) -> RoundWork {
            let order = sequence(order, MIN_SPLIT_VISITS);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            self.visited.push(sorted);
            let moves = self
                .moves_per_round
                .get(self.rounds_run)
                .copied()
                .unwrap_or(0);
            // Mark `moves` vertices active for the next round.
            for &u in order.iter().take(moves) {
                frontier.set(u as usize);
            }
            self.rounds_run += 1;
            RoundWork {
                moves,
                half_edges: 0,
            }
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
        let stats = drive_lp_rounds(16, 5, None, &ObsHandle::noop(), &mut semantics);
        assert_eq!(stats.visited_per_round[0], 16);
        assert_eq!(stats.visited_per_round[1], 4);
        assert_eq!(stats.visited_per_round[2], 2);
        assert!(stats.rounds >= 3);
    }

    #[test]
    fn a_start_set_replaces_the_sweep_of_round_zero() {
        let mut start = AtomicBitset::new();
        start.ensure_len(16);
        for u in [3, 4, 11] {
            start.set(u);
        }
        let mut semantics = Recording {
            seed: 7,
            rounds_run: 0,
            visited: Vec::new(),
            moves_per_round: vec![2, 1],
        };
        drive_lp_rounds(16, 5, Some(&start), &ObsHandle::noop(), &mut semantics);
        let visited = semantics.visited;
        assert_eq!(visited[0], vec![3, 4, 11]);
        assert_eq!(visited[1].len(), 2, "later rounds follow the marks as ever");
    }

    #[test]
    fn default_stop_is_first_move_free_round() {
        let mut semantics = Recording {
            seed: 1,
            rounds_run: 0,
            visited: Vec::new(),
            moves_per_round: vec![2, 0, 5],
        };
        let stats = drive_lp_rounds(8, 5, None, &ObsHandle::noop(), &mut semantics);
        assert_eq!(stats.rounds, 2, "must stop at the move-free round");
        assert_eq!(stats.moves, 2);
    }

    /// Semantics that records every round's visit sequence and marks a scripted set
    /// of vertices for the next round; it always reports a move, so only an empty
    /// frontier (or `max_rounds`) ends the loop. Every round also checks the sequence
    /// against the materialised oracle, walked whole and split at every part.
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

        fn run_round(&mut self, order: &VisitOrder<'_>, frontier: &AtomicBitset) -> RoundWork {
            let round = self.orders.len();
            let (mut chunks, mut oracle) = (Vec::new(), Vec::new());
            let seed = self.round_seed(round);
            build_visit_order(order.n, order.active(), seed, &mut chunks, &mut oracle);
            let walked = sequence(order, MIN_SPLIT_VISITS);
            let threads = rayon::current_num_threads();
            assert_eq!(walked, oracle, "round {round}, {threads} threads");
            assert_eq!(
                sequence(order, 1),
                oracle,
                "split everywhere, {threads} threads"
            );
            assert_eq!(order.len(), oracle.len(), "visits == the active count");
            for &u in self.marks_per_round.get(round).into_iter().flatten() {
                frontier.set(u as usize);
            }
            self.orders.push(walked);
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
        seed: u64,
        marks_per_round: &[Vec<NodeId>],
        threads: usize,
    ) -> Vec<Vec<NodeId>> {
        let mut semantics = Scripted {
            seed,
            marks_per_round: marks_per_round.to_vec(),
            orders: Vec::new(),
        };
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let stats = pool
            .install(|| drive_lp_rounds(n, MAX_ROUNDS, None, &ObsHandle::noop(), &mut semantics));
        assert_eq!(stats.rounds, semantics.orders.len());
        let lengths: Vec<usize> = semantics.orders.iter().map(Vec::len).collect();
        assert_eq!(
            stats.visited_per_round, lengths,
            "visited == the sequence walked"
        );
        semantics.orders
    }

    const MAX_ROUNDS: usize = 6;
    const SIZES: [usize; 6] = [0, 1, 255, 256, 257, 10_007];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_every_round_visits_exactly_its_active_set_range_by_range(
            size in 0usize..SIZES.len(),
            seed in any::<u64>(),
            raw_marks in proptest::collection::vec(any::<u64>(), 0..6000),
            threads in 1usize..5,
        ) {
            let n = SIZES[size];
            // Three scripted frontiers of arbitrary density, then an empty one.
            let marks_per_round: Vec<Vec<NodeId>> = raw_marks
                .chunks((raw_marks.len() / 3).max(1))
                .take(3)
                .map(|c| c.iter().map(|&m| (m % n.max(1) as u64) as NodeId).collect())
                .collect();
            // Each round checks its sequence against the oracle (`Scripted`), at every
            // thread count; across thread counts the sequences must agree too.
            let orders = run_scripted(n, seed, &marks_per_round, threads);
            prop_assert_eq!(
                &orders,
                &run_scripted(n, seed, &marks_per_round, 1),
                "the order is a function of seed, round and active set"
            );
            // Which sets the driver had to visit: everything in round 0, the previous
            // round's marks afterwards — and nothing after an empty frontier, because no
            // waiter is pending (nor anything at all when n = 0).
            let mut expected: Vec<Vec<NodeId>> = Vec::new();
            for round in 0..MAX_ROUNDS {
                let mut set = match round.checked_sub(1) {
                    None => (0..n as NodeId).collect(),
                    Some(r) => marks_per_round.get(r).cloned().unwrap_or_default(),
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

        fn run_round(&mut self, _order: &VisitOrder<'_>, _frontier: &AtomicBitset) -> RoundWork {
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
        let stats = drive_lp_rounds(8, 6, None, &ObsHandle::noop(), &mut semantics);
        // Round 0 (full), round 1 (empty order but pending waiter), round 2 (the
        // reactivated waiter), round 3 onwards stops.
        assert!(stats.rounds >= 3, "waiter rounds missing: {:?}", stats);
        assert_eq!(stats.visited_per_round[2], 1, "reactivated waiter only");
        assert!(!semantics.pending);
    }
}
