//! K-way FM refinement: the Fiduccia–Mattheyses local search over all `k` blocks on
//! top of the paper's gain tables (§V) — the FM of TeraPart-FM and of the `default` /
//! `strong` presets, and the only FM refiner of the crate.
//!
//! A pass queues every vertex that has a feasible move under its best one, keyed by
//! gain, and pops them in gain order. Moves with *negative* gain are allowed (hill
//! climbing) and the pass is rolled back to the best prefix seen, so the search leaves
//! local minima that a positive-gain-only scheme — label propagation — is stuck in.
//! Gains come from a [`GainCache`] (none / dense `O(nk)` / sparse `O(m)`, rows for the
//! boundary only) and are maintained incrementally after every move. The queue is the
//! crate's one `AddressableMaxHeap`, shared with the 2-way FM of the initial partitioner
//! ([`crate::initial::bipartition`]): a vertex is in it at most once, so it never holds
//! more than `n` entries; moving `u` re-keys each unlocked neighbour under its new best
//! move, or takes it out when it has none left.
//!
//! Moves apply to the partition's own assignment and block weights, and a rollback
//! replays the pass's move log backwards in them: there is no copy of the assignment to
//! commit. The tracked cut is set from the gains of the kept prefixes. Besides the gain
//! cache FM holds 9 bytes a vertex: the queued target (4), the lock flag (1) and the
//! heap's position index (4, a vertex id at the default width).
//!
//! # Determinism
//!
//! The candidate seeding is parallel (order-preserving) and only reads the assignment
//! and the gain cache; the move loop, their one writer, is sequential. The heap orders
//! its entries by `(gain, vertex)`, a total order, so for a fixed seed the applied move
//! sequence — and therefore the refined partition — is bit-identical at any thread
//! count and on any graph representation that decodes the same neighbourhoods (CSR,
//! compressed, paged). This matches the determinism invariant of initial partitioning
//! and makes the algorithm usable in golden-cut regression tests.

use graph::traits::Graph;
use graph::{EdgeWeight, NodeId, NodeWeight};
use obs::{Counter, ObsHandle, SpanKind};
use rayon::prelude::*;

use crate::context::GainTableKind;
use crate::heap::AddressableMaxHeap;
use crate::partition::{BlockId, BoundarySet, Partition};

use super::gain_table::GainCache;

/// Statistics of one FM refinement invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FmStats {
    /// Number of vertex moves kept (inside a pass's best prefix).
    pub moves: usize,
    /// Heap bytes of the gain cache at its peak, which is its size when FM ends: rows
    /// are only ever appended.
    pub gain_table_bytes: usize,
    /// Gain-table rows built from the boundary superset FM started from.
    pub rows_built: usize,
    /// Gain-table rows appended for vertices that moves put on the boundary.
    pub rows_added: usize,
    /// Number of refinement passes executed.
    pub passes: usize,
    /// Moves applied and later undone by hill-climbing rollback.
    pub moves_rolled_back: usize,
    /// Most entries the move queue held at any time: one per vertex, so at most `n`.
    pub queue_peak: usize,
}

/// Best feasible move of `u` under the current assignment: the adjacent block with the
/// highest affinity gain whose weight constraint admits `u` (ties broken towards the
/// lower block ID), read off `u`'s gain-table row. Moves that would empty the source
/// block are rejected so the partition keeps exactly `k` non-empty blocks.
fn best_feasible_move(
    graph: &impl Graph,
    cache: &GainCache,
    assignment: &[BlockId],
    block_weights: &[NodeWeight],
    max_block_weight: NodeWeight,
    u: NodeId,
) -> Option<(i64, BlockId)> {
    let from = assignment[u as usize];
    let node_weight = graph.node_weight(u);
    if block_weights[from as usize] <= node_weight {
        return None;
    }
    cache.best_move(graph, assignment, u, from, |to| {
        block_weights[to as usize] + node_weight <= max_block_weight
    })
}

/// Runs k-way FM refinement on `partition`.
///
/// Each pass seeds the queue with every vertex's best feasible move, then pops them in
/// gain order: a popped move is re-validated (a block may have filled up or drained
/// since it was queued) and re-queued if it changed, otherwise applied — also when the
/// gain is negative. A pass records the prefix of the move sequence with the best total
/// gain and rolls back everything after it; it stops once `adverse_limit` consecutive
/// moves fail to produce a new best prefix (bounded hill climbing). Passes repeat up to
/// `max_passes` times or until a pass keeps no move.
pub fn kway_fm_refine(
    graph: &impl Graph,
    partition: &mut Partition,
    gain_table: GainTableKind,
    max_passes: usize,
    adverse_limit: usize,
) -> FmStats {
    kway_fm_refine_obs(
        graph,
        partition,
        gain_table,
        max_passes,
        adverse_limit,
        &ObsHandle::noop(),
    )
}

/// [`kway_fm_refine`] with an observability handle: each pass is an `fm_pass` round
/// span (with accepted/rolled-back move attributes) and the totals feed the unified
/// counter registry.
pub(crate) fn kway_fm_refine_obs(
    graph: &impl Graph,
    partition: &mut Partition,
    gain_table: GainTableKind,
    max_passes: usize,
    adverse_limit: usize,
    obs: &ObsHandle,
) -> FmStats {
    let n = graph.n();
    let k = partition.k();
    if n == 0 || k <= 1 || max_passes == 0 {
        return FmStats::default();
    }
    let max_block_weight = partition.max_block_weight();
    // Gains are exact deltas of a sequential move sequence: the cut follows from the
    // kept prefixes.
    let cut_before = partition.tracked_or_recounted_cut(graph);
    let mut kept_gain = 0i64;
    let (assignment, block_weights, boundary) = partition.refiner_state();
    let boundary = boundary.as_ref();

    // Charges itself for the duration of refinement: the quantity Figure 7 (middle)
    // compares across the three gain-table kinds.
    let mut cache = GainCache::new(
        gain_table,
        graph,
        assignment,
        k,
        boundary.map(BoundarySet::bits),
    );

    let mut heap = AddressableMaxHeap::default();
    // The block a queued vertex's key is the gain towards.
    let mut target: Vec<BlockId> = vec![0; n];
    let mut locked: Vec<bool> = vec![false; n];
    let mut seeds: Vec<(i64, NodeId, BlockId)> = Vec::new();
    let mut move_log: Vec<(NodeId, BlockId, BlockId)> = Vec::new();

    let best_move =
        |cache: &GainCache, assignment: &[BlockId], block_weights: &[NodeWeight], u: NodeId| {
            best_feasible_move(graph, cache, assignment, block_weights, max_block_weight, u)
        };

    let mut total_moves = 0usize;
    let mut total_rolled_back = 0usize;
    let mut passes = 0usize;
    let mut queue_peak = 0usize;
    for pass in 0..max_passes {
        let mut pass_span = obs.span_at(SpanKind::Round, "fm_pass", pass as u64);
        passes += 1;
        obs.add(Counter::FmPasses, 1);
        // Parallel, order-preserving seeding; the heap's total order makes the pop
        // sequence independent of the insertion order anyway.
        (0..n as NodeId)
            .into_par_iter()
            .filter_map(|u| {
                best_move(&cache, assignment, block_weights, u).map(|(gain, to)| (gain, u, to))
            })
            .collect_into_vec(&mut seeds);
        // One gain query per seeded vertex, per re-validated pop and per re-keyed
        // neighbour; `tried` counts the pops.
        let mut queries = n;
        let mut tried = 0usize;
        if seeds.is_empty() {
            obs.add(Counter::FmGainQueries, queries as u64);
            break;
        }
        let queued = seeds.iter().map(|&(gain, u, to)| {
            target[u as usize] = to;
            (gain, u)
        });
        heap.heapify(n, queued);
        queue_peak = queue_peak.max(heap.len());
        move_log.clear();
        let mut total_gain = 0i64;
        let mut best_gain = 0i64;
        let mut best_len = 0usize;
        let mut since_best = 0usize;
        while let Some((gain, u)) = heap.pop() {
            if since_best > adverse_limit {
                break;
            }
            let to = target[u as usize];
            tried += 1;
            queries += 1;
            let Some((current_gain, current_to)) = best_move(&cache, assignment, block_weights, u)
            else {
                continue;
            };
            if (current_gain, current_to) != (gain, to) {
                // No neighbour moved, but a block filled up or drained: queue the
                // corrected move and retry later.
                target[u as usize] = current_to;
                heap.push_or_update(u, current_gain);
                continue;
            }
            let from = assignment[u as usize];
            let node_weight = graph.node_weight(u);
            assignment[u as usize] = to;
            block_weights[from as usize] -= node_weight;
            block_weights[to as usize] += node_weight;
            cache.apply_move(graph, assignment, u, from, to);
            locked[u as usize] = true;
            move_log.push((u, from, to));
            total_gain += gain;
            since_best += 1;
            if total_gain > best_gain {
                best_gain = total_gain;
                best_len = move_log.len();
                since_best = 0;
            }
            if let Some(boundary) = &boundary {
                boundary.mark(u);
            }
            graph.for_each_neighbor(u, &mut |v, _| {
                // Rolled back or not, a superset may keep the mark.
                if let Some(boundary) = &boundary {
                    boundary.mark(v);
                }
                if !locked[v as usize] {
                    queries += 1;
                    match best_move(&cache, assignment, block_weights, v) {
                        Some((gv, tv)) => {
                            target[v as usize] = tv;
                            heap.push_or_update(v, gv);
                        }
                        None => heap.remove(v),
                    }
                }
            });
            queue_peak = queue_peak.max(heap.len());
        }
        // Roll back the adverse tail: keep only the best prefix of the move sequence.
        let rolled_back = move_log.len() - best_len;
        for &(u, from, to) in move_log[best_len..].iter().rev() {
            let node_weight = graph.node_weight(u);
            assignment[u as usize] = from;
            block_weights[to as usize] -= node_weight;
            block_weights[from as usize] += node_weight;
            cache.apply_move(graph, assignment, u, to, from);
        }
        cache.debug_check_sample(graph, assignment);
        pass_span.attr("moves", best_len as u64);
        pass_span.attr("rolled_back", rolled_back as u64);
        pass_span.attr("tried", tried as u64);
        obs.add(Counter::FmMovesTried, tried as u64);
        obs.add(Counter::FmGainQueries, queries as u64);
        obs.add(Counter::FmMovesAccepted, best_len as u64);
        obs.add(Counter::FmMovesRolledBack, rolled_back as u64);
        total_moves += best_len;
        total_rolled_back += rolled_back;
        kept_gain += best_gain;
        for l in locked.iter_mut() {
            *l = false;
        }
        if best_len == 0 {
            break;
        }
    }

    let gain_table_bytes = cache.memory_bytes();
    obs.gauge_max(Counter::GainTableBytes, gain_table_bytes as u64);
    let (rows_built, rows_added) = cache.rows();
    partition.set_tracked_cut((cut_before as i64 - kept_gain) as EdgeWeight);
    FmStats {
        moves: total_moves,
        gain_table_bytes,
        rows_built,
        rows_added,
        passes,
        moves_rolled_back: total_rolled_back,
        queue_peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen;
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn scrambled(graph: &impl Graph, k: usize, epsilon: f64) -> Partition {
        let assignment: Vec<BlockId> = (0..graph.n() as u32)
            .map(|u| (u.wrapping_mul(2_654_435_761) >> 8) % k as u32)
            .collect();
        Partition::from_assignment(graph, k, epsilon, assignment)
    }

    /// The neighbourhood-scanning query `best_feasible_move` replaced, kept as the oracle:
    /// collect the adjacent blocks by walking `u`'s edges, then probe the cache per block.
    fn best_feasible_move_by_scan(
        graph: &impl Graph,
        cache: &GainCache,
        assignment: &[BlockId],
        block_weights: &[NodeWeight],
        max_block_weight: NodeWeight,
        u: NodeId,
    ) -> Option<(i64, BlockId)> {
        let from = assignment[u as usize];
        let node_weight = graph.node_weight(u);
        if block_weights[from as usize] <= node_weight {
            return None;
        }
        let mut adjacent: Vec<BlockId> = Vec::new();
        graph.for_each_neighbor(u, &mut |v, _| {
            let b = assignment[v as usize];
            if b != from && !adjacent.contains(&b) {
                adjacent.push(b);
            }
        });
        if adjacent.is_empty() {
            return None;
        }
        let from_affinity = cache.affinity(graph, assignment, u, from) as i64;
        let mut best: Option<(i64, BlockId)> = None;
        for &to in &adjacent {
            if block_weights[to as usize] + node_weight > max_block_weight {
                continue;
            }
            let gain = cache.affinity(graph, assignment, u, to) as i64 - from_affinity;
            let better = match best {
                None => true,
                Some((bg, bt)) => gain > bg || (gain == bg && to < bt),
            };
            if better {
                best = Some((gain, to));
            }
        }
        best
    }

    const KINDS: [GainTableKind; 3] = [
        GainTableKind::None,
        GainTableKind::Dense,
        GainTableKind::Sparse,
    ];

    /// Every row of a table cache holds exactly the affinities recounted from the graph,
    /// and every vertex with a neighbour in another block has a row.
    fn check_rows(graph: &impl Graph, cache: &GainCache, assignment: &[BlockId], k: usize) {
        let GainCache::Table(table) = cache else {
            return;
        };
        for u in 0..graph.n() as NodeId {
            let mut expected: Vec<EdgeWeight> = vec![0; k];
            graph.for_each_neighbor(u, &mut |v, w| {
                expected[assignment[v as usize] as usize] += w
            });
            let own = assignment[u as usize] as usize;
            let boundary = (0..k).any(|b| b != own && expected[b] > 0);
            let row: Option<Vec<EdgeWeight>> =
                (0..k).map(|b| table.affinity(u, b as BlockId)).collect();
            match row {
                Some(row) => prop_assert_eq!(row, expected, "row of vertex {}", u),
                None => prop_assert!(!boundary, "boundary vertex {} has no row", u),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn prop_table_row_query_equals_the_neighbourhood_scan(
            seed in any::<u64>(),
            k in 2usize..20,
            slack in 0u64..6,
            width in 0usize..3,
        ) {
            // Sparse random graph under a hub adjacent to everyone: vertices on both
            // sides of deg > k (and of the hash-row / dense-row split) for every k drawn.
            // Unscaled, the total edge weight fits beside a block id in a 2-byte slot;
            // scaled by 2^14 only in a 4-byte one, by 2^30 only in an 8-byte one.
            let n = 48;
            let scale: EdgeWeight = [1, 1 << 14, 1 << 30][width];
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut builder = graph::CsrGraphBuilder::with_node_weights(
                (0..n).map(|_| rng.gen_range(1..=3)).collect(),
            );
            for v in 1..n as NodeId {
                builder.add_edge(0, v, scale * rng.gen_range(1..=9u64));
                let other = (v + rng.gen_range(1..n as NodeId)) % n as NodeId;
                builder.add_edge(v, other, scale * rng.gen_range(1..=9u64));
            }
            let g = builder.build();
            // Few blocks per vertex on average, so that some vertices start interior.
            let blocks = rng.gen_range(2..=k) as BlockId;
            let mut assignment: Vec<BlockId> =
                (0..n).map(|_| rng.gen_range(0..blocks)).collect();
            let mut block_weights = vec![0; k];
            for u in 0..n {
                block_weights[assignment[u] as usize] += g.node_weight(u as NodeId);
            }
            // Tight enough that some targets are infeasible from the start.
            let max_block_weight = *block_weights.iter().max().unwrap() + slack;
            // The tables start from a boundary superset: the boundary plus a random third
            // of the other vertices.
            let mut candidates = crate::scratch::AtomicBitset::new();
            candidates.ensure_len(n);
            for u in 0..n as NodeId {
                let mut boundary = false;
                g.for_each_neighbor(u, &mut |v, _| {
                    boundary |= assignment[v as usize] != assignment[u as usize];
                });
                if boundary || rng.gen_bool(0.3) {
                    candidates.set(u as usize);
                }
            }
            let mut caches =
                KINDS.map(|kind| GainCache::new(kind, &g, &assignment, k, Some(&candidates)));
            for cache in &caches[1..] {
                let GainCache::Table(table) = cache else { unreachable!("a table kind") };
                prop_assert_eq!(table.slot_bytes(), [2, 4, 8][width]);
            }
            let agree = |caches: &[GainCache], assignment: &[BlockId], bw: &[NodeWeight], u| {
                let expected = best_feasible_move_by_scan(
                    &g, &caches[1], assignment, bw, max_block_weight, u,
                );
                for cache in caches {
                    let got = best_feasible_move(&g, cache, assignment, bw, max_block_weight, u);
                    prop_assert_eq!(got, expected, "vertex {} with k = {}", u, k);
                }
                expected
            };
            let apply = |caches: &mut [GainCache],
                         assignment: &mut [BlockId],
                         bw: &mut [NodeWeight],
                         (u, from, to): (NodeId, BlockId, BlockId)| {
                assignment[u as usize] = to;
                bw[from as usize] -= g.node_weight(u);
                bw[to as usize] += g.node_weight(u);
                for cache in caches.iter_mut() {
                    cache.apply_move(&g, assignment, u, from, to);
                }
                for cache in caches.iter() {
                    check_rows(&g, cache, assignment, k);
                }
            };
            for cache in &caches {
                check_rows(&g, cache, &assignment, k);
            }
            let mut log: Vec<(NodeId, BlockId, BlockId)> = Vec::new();
            for _ in 0..200 {
                let u = rng.gen_range(0..n as NodeId);
                if let Some((_, to)) = agree(&caches, &assignment, &block_weights, u) {
                    let from = assignment[u as usize];
                    apply(&mut caches, &mut assignment, &mut block_weights, (u, from, to));
                    log.push((u, from, to));
                }
                if rng.gen_bool(0.1) {
                    // Roll back a random tail, as a pass does.
                    for (u, from, to) in log.drain(rng.gen_range(0..=log.len())..).rev() {
                        apply(&mut caches, &mut assignment, &mut block_weights, (u, to, from));
                    }
                }
            }
            for u in 0..n as NodeId {
                agree(&caches, &assignment, &block_weights, u);
            }
        }
    }

    #[test]
    fn improves_cut_with_every_gain_table_kind() {
        let g = gen::grid2d(16, 16);
        for kind in KINDS {
            let mut p = scrambled(&g, 4, 0.25);
            let before = p.edge_cut_on(&g);
            let stats = kway_fm_refine(&g, &mut p, kind, 8, 64);
            let after = p.edge_cut_on(&g);
            assert!(stats.moves > 0, "{:?}: no moves", kind);
            assert!(after < before, "{:?}: cut {} -> {}", kind, before, after);
            assert!(p.is_balanced(), "{:?}: imbalance {}", kind, p.imbalance());
        }
    }

    #[test]
    fn every_gain_table_kind_makes_the_same_moves() {
        // The table decides what a gain query costs, not what it answers.
        let g = gen::rgg2d(800, 10, 5);
        let refined = KINDS.map(|kind| {
            let mut p = scrambled(&g, 8, 0.25);
            let stats = kway_fm_refine(&g, &mut p, kind, 6, 64);
            (p.assignment().to_vec(), stats.moves)
        });
        assert!(refined[0].1 > 0);
        assert_eq!(refined[0], refined[1], "none vs dense");
        assert_eq!(refined[0], refined[2], "none vs sparse");
    }

    /// A graph that does not report its heaviest weighted degree, so a gain table bounds
    /// its affinities by the total edge weight, as on a graph opened from a container.
    struct TotalWeightBound<'g>(&'g graph::CsrGraph);

    impl Graph for TotalWeightBound<'_> {
        fn n(&self) -> usize {
            self.0.n()
        }
        fn m(&self) -> usize {
            self.0.m()
        }
        fn degree(&self, u: NodeId) -> usize {
            self.0.degree(u)
        }
        fn node_weight(&self, u: NodeId) -> NodeWeight {
            self.0.node_weight(u)
        }
        fn total_node_weight(&self) -> NodeWeight {
            self.0.total_node_weight()
        }
        fn total_edge_weight(&self) -> EdgeWeight {
            self.0.total_edge_weight()
        }
        fn for_each_neighbor(&self, u: NodeId, f: &mut dyn FnMut(NodeId, EdgeWeight)) {
            self.0.for_each_neighbor(u, f)
        }
        fn is_edge_weighted(&self) -> bool {
            self.0.is_edge_weighted()
        }
        fn max_degree(&self) -> usize {
            self.0.max_degree()
        }
    }

    #[test]
    fn slots_sized_by_the_heaviest_weighted_degree_make_the_moves_of_wider_ones() {
        // k = 16 leaves 12 value bits beside the block id in a 2-byte slot. The total
        // edge weight needs more, the heaviest weighted degree does not: the tables take
        // 2-byte slots, and 4-byte ones where only the total bounds an affinity.
        let g = gen::with_random_edge_weights(&gen::rgg2d(800, 10, 5), 9, 3);
        let k = 16;
        assert!(
            g.total_edge_weight() >= 1 << 12,
            "{}",
            g.total_edge_weight()
        );
        assert!(g.max_weighted_degree() < 1 << 12);
        let by_total = TotalWeightBound(&g);
        for kind in [GainTableKind::Dense, GainTableKind::Sparse] {
            let start = scrambled(&g, k, 0.25);
            let slots = |graph: &dyn Graph| {
                let GainCache::Table(table) =
                    GainCache::new(kind, &graph, start.assignment(), k, None)
                else {
                    unreachable!("a table kind");
                };
                table.slot_bytes()
            };
            assert_eq!(slots(&g), 2, "{kind:?}");
            assert_eq!(slots(&by_total), 4, "{kind:?}");
            // The same moves, kept and rolled back alike, from a table half the size.
            let refined = |graph: &dyn Graph| {
                let mut p = start.clone();
                let stats = kway_fm_refine(&graph, &mut p, kind, 6, 64);
                let bytes = stats.gain_table_bytes;
                let stats = FmStats {
                    gain_table_bytes: 0,
                    ..stats
                };
                ((p.assignment().to_vec(), stats), bytes)
            };
            let ((narrow, narrow_bytes), (wide, wide_bytes)) = (refined(&g), refined(&by_total));
            assert!(narrow.1.moves > 0, "{kind:?}");
            assert_eq!(narrow, wide, "{kind:?}");
            assert!(
                narrow_bytes < wide_bytes,
                "{kind:?}: {narrow_bytes} B, {wide_bytes} B"
            );
        }
    }

    #[test]
    fn gain_table_memory_ordering_matches_the_paper() {
        // Figure 7 (middle): no table < sparse `O(m)` < dense `O(nk)`.
        let g = gen::grid2d(24, 24);
        let [none, dense, sparse] = KINDS.map(|kind| {
            let mut p = scrambled(&g, 64, 0.5);
            kway_fm_refine(&g, &mut p, kind, 1, 64).gain_table_bytes
        });
        assert_eq!(none, 0);
        assert!(sparse > 0);
        assert!(
            sparse < dense / 4,
            "sparse table should be much smaller: {sparse} vs {dense}"
        );
    }

    #[test]
    fn a_pass_never_queues_more_than_n_entries() {
        // One entry per vertex, re-keyed in place. (A heap with lazy deletion pushes one
        // more per re-keyed neighbour: on this input, n seeds plus ~deg per move.)
        let g = gen::rgg2d(800, 10, 5);
        let mut p = scrambled(&g, 8, 0.25);
        let stats = kway_fm_refine(&g, &mut p, GainTableKind::Sparse, 6, 64);
        assert!(stats.moves + stats.moves_rolled_back > g.n() / 2);
        assert!(stats.queue_peak > 0);
        assert!(
            stats.queue_peak <= g.n(),
            "{} entries for {} vertices",
            stats.queue_peak,
            g.n()
        );
    }

    #[test]
    fn untangles_an_alternating_clique_bisection() {
        let g = gen::clique_chain(2, 8);
        let assignment: Vec<BlockId> = (0..16u32).map(|u| if u % 2 == 0 { 0 } else { 1 }).collect();
        let mut p = Partition::from_assignment(&g, 2, 0.3, assignment);
        let before = p.edge_cut_on(&g);
        let stats = kway_fm_refine(&g, &mut p, GainTableKind::Sparse, 8, 64);
        let after = p.edge_cut_on(&g);
        assert!(stats.moves > 0);
        assert!(after < before, "cut {} -> {}", before, after);
        assert!(p.is_balanced());
    }

    #[test]
    fn zero_gain_plateau_is_escaped_by_hill_climbing() {
        // A cycle cut into four arcs of equal length: every boundary move has gain 0
        // (one neighbour per side), so a positive-gain-only scheme is frozen at cut 4.
        // Sliding arc boundaries via zero-gain moves merges arcs and reaches a lower
        // cut; only the rollback-to-best-prefix discipline can keep such a sequence.
        let g = gen::cycle(16);
        let assignment: Vec<BlockId> = (0..16u32).map(|u| (u / 4) % 2).collect();
        let mut p = Partition::from_assignment(&g, 2, 0.6, assignment);
        assert_eq!(p.edge_cut_on(&g), 4);
        kway_fm_refine(&g, &mut p, GainTableKind::Sparse, 8, 64);
        let after = p.edge_cut_on(&g);
        assert!(after < 4, "plateau not escaped: cut still {}", after);
        assert!(p.is_balanced());
    }

    #[test]
    fn respects_the_balance_constraint() {
        let g = gen::star(101);
        let assignment: Vec<BlockId> = (0..101u32).map(|u| u % 4).collect();
        let mut p = Partition::from_assignment(&g, 4, 0.03, assignment);
        kway_fm_refine(&g, &mut p, GainTableKind::Sparse, 4, 64);
        assert!(p.is_balanced(), "imbalance {}", p.imbalance());
    }

    #[test]
    fn never_empties_a_block() {
        let g = gen::grid2d(8, 8);
        let mut p = scrambled(&g, 8, 0.5);
        kway_fm_refine(&g, &mut p, GainTableKind::Dense, 6, 64);
        for b in 0..8u32 {
            assert!(p.block_weight(b) > 0, "block {} emptied", b);
        }
    }

    #[test]
    fn noop_on_an_optimal_partition_and_degenerate_inputs() {
        let g = gen::clique_chain(2, 10);
        let assignment: Vec<BlockId> = (0..20u32).map(|u| if u < 10 { 0 } else { 1 }).collect();
        let mut p = Partition::from_assignment(&g, 2, 0.03, assignment);
        let stats = kway_fm_refine(&g, &mut p, GainTableKind::Sparse, 4, 64);
        assert_eq!(stats.moves, 0);
        assert_eq!(p.edge_cut_on(&g), 1);

        let path = gen::path(5);
        let mut single = Partition::from_assignment(&path, 1, 0.03, vec![0; 5]);
        let stats = kway_fm_refine(&path, &mut single, GainTableKind::Dense, 3, 64);
        assert_eq!(stats.moves, 0);
        assert_eq!(stats.passes, 0);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // Seeding reads the cache from every thread: the table-less cache's shared row
        // pool and the dense rows included.
        let g = gen::rgg2d(600, 10, 9);
        let refine = |kind: GainTableKind, threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut p = scrambled(&g, 6, 0.1);
            pool.install(|| kway_fm_refine(&g, &mut p, kind, 4, 64));
            p.assignment().to_vec()
        };
        for kind in KINDS {
            let reference = refine(kind, 1);
            for threads in [2, 4] {
                assert_eq!(
                    refine(kind, threads),
                    reference,
                    "{kind:?}: {threads} threads diverged"
                );
            }
        }
    }
}
