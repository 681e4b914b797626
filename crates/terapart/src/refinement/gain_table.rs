//! Gain tables for FM refinement (paper §V).
//!
//! A gain table caches, for vertex `u` and block `V_i`, the *affinity*
//! `ω(u, V_i) = Σ_{(u,v) ∈ E, v ∈ V_i} ω(u, v)`. The gain of moving `u` from its block to
//! `V_i` is then `ω(u, V_i) − ω(u, Π(u))` without touching the graph. After a move, the
//! affinities of the moved vertex's neighbours are updated.
//!
//! Three variants are provided, matching Figure 7 of the paper:
//!
//! * [`GainTableKind::None`] — no cache; every query accumulates the neighbourhood
//!   into a pooled `k`-entry row (slow but `O(k)` extra memory per querying thread).
//! * [`GainTableKind::Dense`] — the standard table: a row of `k` affinities per vertex
//!   (`O(nk)` memory).
//! * [`GainTableKind::Sparse`] — the space-efficient table: a vertex whose hash row
//!   would need `k` or more slots (in particular every `deg(v) > k`) keeps the dense row;
//!   every other vertex keeps a fixed-capacity linear-probing row of `deg(v) + 1` slots
//!   rounded up to a power of two, each slot one word packing block id and affinity.
//!   Entries whose value drops to zero are removed by backward-shift deletion, keeping
//!   probe sequences intact (`O(m)` memory in total).
//!
//! Both tables are one [`GainTable`] in the paper's flat layout (an offset array and a
//! slot array carved into per-vertex rows), and [`GainCache::best_move`] — the one query
//! FM asks — enumerates `u`'s row instead of `u`'s neighbourhood.
//!
//! A cache has one writer: [`GainCache::apply_move`] takes `&mut self`, so the borrow
//! checker proves that no query runs while a row changes. Queries take `&self` and may
//! run in parallel between moves (FM seeds its queue that way).

use graph::traits::Graph;
use graph::{EdgeWeight, NodeId};

use crate::context::GainTableKind;
use crate::partition::BlockId;
use crate::scratch::Pool;

/// A gain cache initialised for a specific graph and partition assignment.
#[derive(Debug)]
pub enum GainCache {
    /// Gains recomputed from the neighbourhood on every query, into a zeroed `k`-entry
    /// row leased from `rows`: one per concurrently querying thread, allocated on first
    /// use and parked zeroed.
    None {
        k: usize,
        rows: Pool<Vec<EdgeWeight>>,
    },
    /// Dense `n × k` or sparse `O(m)` affinity table.
    Table(GainTable),
}

impl GainCache {
    /// Builds a gain cache of the requested kind from the current assignment.
    pub fn new(kind: GainTableKind, graph: &impl Graph, assignment: &[BlockId], k: usize) -> Self {
        match kind {
            GainTableKind::None => GainCache::None {
                k,
                rows: Pool::new(),
            },
            GainTableKind::Dense => GainCache::Table(GainTable::new(graph, assignment, k, false)),
            GainTableKind::Sparse => GainCache::Table(GainTable::new(graph, assignment, k, true)),
        }
    }

    /// The best move of `u` out of block `from`: among the blocks `u` has a non-zero
    /// affinity to and that `admits` accepts, the one with the highest gain (= highest
    /// affinity, the source affinity being common to all targets), ties broken towards
    /// the lower block id — a total order, so the result does not depend on the order in
    /// which a row yields its entries. Returns `(gain, target)`, or `None` if no adjacent
    /// block is admissible. Allocation-free; only the table-less variant reads `graph`.
    pub fn best_move(
        &self,
        graph: &impl Graph,
        assignment: &[BlockId],
        u: NodeId,
        from: BlockId,
        admits: impl Fn(BlockId) -> bool,
    ) -> Option<(i64, BlockId)> {
        let mut from_affinity = 0;
        let mut best: Option<(EdgeWeight, BlockId)> = None;
        let mut visit = |block: BlockId, affinity: EdgeWeight| {
            if affinity == 0 {
                return; // an empty slot or a non-adjacent block, whatever id comes with it
            }
            if block == from {
                from_affinity = affinity;
            } else if best.is_none_or(|(a, b)| affinity > a || (affinity == a && block < b))
                && admits(block)
            {
                best = Some((affinity, block));
            }
        };
        match self {
            GainCache::None { k, rows } => {
                let mut row = rows.checkout();
                row.resize(*k, 0);
                graph.for_each_neighbor(u, &mut |v, w| {
                    row[assignment[v as usize] as usize] += w;
                });
                for (block, affinity) in row.iter_mut().enumerate() {
                    visit(block as BlockId, std::mem::take(affinity));
                }
            }
            GainCache::Table(table) => table.scan_row(u, visit),
        }
        best.map(|(affinity, to)| (affinity as i64 - from_affinity as i64, to))
    }

    /// Affinity of `u` towards `block` under the current `assignment`.
    pub fn affinity(
        &self,
        graph: &impl Graph,
        assignment: &[BlockId],
        u: NodeId,
        block: BlockId,
    ) -> EdgeWeight {
        match self {
            GainCache::None { .. } => {
                let mut total = 0;
                graph.for_each_neighbor(u, &mut |v, w| {
                    if assignment[v as usize] == block {
                        total += w;
                    }
                });
                total
            }
            GainCache::Table(table) => table.affinity(u, block),
        }
    }

    /// Updates the cache after `u` moved from block `from` to block `to`: for every
    /// neighbour `v` of `u`, `ω(v, from)` decreases and `ω(v, to)` increases by the
    /// connecting edge weight.
    pub fn apply_move(&mut self, graph: &impl Graph, u: NodeId, from: BlockId, to: BlockId) {
        if let GainCache::Table(table) = self {
            if from != to {
                graph.for_each_neighbor(u, &mut |v, w| table.update(v, from, to, w));
            }
        }
    }

    /// Debug builds only: panics unless a sample of rows (every `⌈n/64⌉`-th vertex) holds
    /// exactly the affinities recomputed from the graph. FM calls it after every pass.
    pub(super) fn debug_check_sample(&self, graph: &impl Graph, assignment: &[BlockId]) {
        let GainCache::Table(table) = self else {
            return;
        };
        if !cfg!(debug_assertions) {
            return;
        }
        let mut expected: Vec<EdgeWeight> = vec![0; table.k];
        for u in (0..graph.n() as NodeId).step_by((graph.n() / 64).max(1)) {
            graph.for_each_neighbor(u, &mut |v, w| {
                expected[assignment[v as usize] as usize] += w;
            });
            for (block, want) in expected.iter_mut().enumerate() {
                assert_eq!(
                    table.affinity(u, block as BlockId),
                    std::mem::take(want),
                    "gain table row of vertex {u} drifted from the graph at block {block}"
                );
            }
        }
    }

    /// Number of heap bytes occupied by the cache (reported in Figure 7).
    pub fn memory_bytes(&self) -> usize {
        match self {
            GainCache::None { .. } => 0,
            GainCache::Table(table) => table.memory_bytes(),
        }
    }
}

/// The flat affinity table behind both table kinds: two allocations for any `n`.
#[derive(Debug)]
pub struct GainTable {
    k: usize,
    /// Low bits of a hash-row slot that hold the affinity; the block id sits above them.
    /// An all-zero word is an empty slot (stored affinities are never zero).
    value_bits: u32,
    /// Row `u` is `slots[offsets[u]..offsets[u + 1]]`: a dense row of `k` affinities iff
    /// it has `k` slots, a hash row otherwise.
    offsets: Vec<usize>,
    slots: Vec<u64>,
}

/// Home slot of `block` in a power-of-two row (masked by the caller).
fn home_slot(block: BlockId) -> usize {
    ((block as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize
}

impl GainTable {
    /// Builds the table from the current assignment; `sparse` selects `Θ(deg)` hash rows
    /// where they are smaller than the `k` slots every row of the dense table has.
    pub fn new(graph: &impl Graph, assignment: &[BlockId], k: usize, sparse: bool) -> Self {
        let n = graph.n();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for u in 0..n as NodeId {
            // A vertex is adjacent to at most deg(v) blocks, so deg(v) + 1 slots always
            // leave the empty slot that ends a probe sequence; from k slots on, a dense
            // row is no larger. Isolated vertices need no row.
            let slots = match graph.degree(u) {
                _ if !sparse => k,
                0 => 0,
                degree => (degree + 1).next_power_of_two().min(k),
            };
            offsets.push(offsets[u as usize] + slots);
        }
        let key_bits = (usize::BITS - k.saturating_sub(1).leading_zeros()).max(1);
        let mut table = Self {
            k,
            value_bits: u64::BITS - key_bits,
            slots: vec![0; offsets[n]],
            offsets,
        };
        for u in 0..n as NodeId {
            let dense = table.row(u).len() == k;
            graph.for_each_neighbor(u, &mut |v, w| {
                let block = assignment[v as usize];
                if dense {
                    table.row_mut(u)[block as usize] += w;
                } else {
                    table.hash_add(u, block, w);
                }
            });
        }
        table
    }

    fn row(&self, u: NodeId) -> &[u64] {
        &self.slots[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    fn row_mut(&mut self, u: NodeId) -> &mut [u64] {
        &mut self.slots[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    fn unpack(&self, word: u64) -> (BlockId, EdgeWeight) {
        let block = (word >> self.value_bits) as BlockId;
        (block, word & ((1 << self.value_bits) - 1))
    }

    /// Probes the hash `row` for `block`: the slot holding it, or the empty slot that
    /// ends its probe sequence, with the slot's word.
    fn probe(&self, row: &[u64], block: BlockId) -> (usize, u64) {
        let mask = row.len() - 1;
        let mut slot = home_slot(block) & mask;
        for _ in 0..row.len() {
            let word = row[slot];
            if word == 0 || self.unpack(word).0 == block {
                return (slot, word);
            }
            slot = (slot + 1) & mask;
        }
        panic!("gain table row overflow: a vertex is adjacent to more blocks than its capacity");
    }

    fn hash_add(&mut self, u: NodeId, block: BlockId, weight: EdgeWeight) {
        let (slot, word) = self.probe(self.row(u), block);
        let affinity = self.unpack(word).1 + weight;
        assert!(
            affinity >> self.value_bits == 0,
            "affinity {affinity} does not fit beside a block id of k = {}",
            self.k
        );
        let word = (block as u64) << self.value_bits | affinity;
        self.row_mut(u)[slot] = word;
    }

    fn hash_sub(&mut self, u: NodeId, block: BlockId, weight: EdgeWeight) {
        let (slot, word) = self.probe(self.row(u), block);
        if word == 0 {
            // Only a table that no longer mirrors the assignment decrements an absent
            // entry: fatal wherever assertions are on, tolerated in a release run.
            if cfg!(any(test, debug_assertions)) {
                panic!("gain table: decrement of absent block {block}");
            }
            return;
        }
        let affinity = (self.unpack(word).1)
            .checked_sub(weight)
            .expect("affinity must stay non-negative");
        let value_bits = self.value_bits;
        let row = self.row_mut(u);
        if affinity != 0 {
            row[slot] = word - weight;
            return;
        }
        // Backward-shift deletion (paper §V): later entries of the probe sequence move
        // up into the hole unless their home slot lies cyclically within (hole, next].
        let mask = row.len() - 1;
        let (mut hole, mut next) = (slot, (slot + 1) & mask);
        while row[next] != 0 {
            let home = home_slot((row[next] >> value_bits) as BlockId);
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(hole) & mask) {
                row[hole] = row[next];
                hole = next;
            }
            next = (next + 1) & mask;
        }
        row[hole] = 0;
    }

    /// Affinity of `u` towards `block`.
    pub fn affinity(&self, u: NodeId, block: BlockId) -> EdgeWeight {
        let row = self.row(u);
        if row.len() == self.k {
            row[block as usize]
        } else if row.is_empty() {
            0
        } else {
            self.unpack(self.probe(row, block).1).1
        }
    }

    /// Applies the affinity delta for neighbour `v` after a move `from → to`.
    /// Decrementing first keeps a hash row within the `deg(v)` entries its capacity is
    /// sized for.
    pub fn update(&mut self, v: NodeId, from: BlockId, to: BlockId, weight: EdgeWeight) {
        if self.row(v).len() == self.k {
            let row = self.row_mut(v);
            row[from as usize] -= weight;
            row[to as usize] += weight;
        } else {
            self.hash_sub(v, from, weight);
            self.hash_add(v, to, weight);
        }
    }

    /// Hands every slot of `u`'s row to `f` as `(block, affinity)`; empty slots and
    /// absent blocks come out with affinity zero.
    fn scan_row(&self, u: NodeId, mut f: impl FnMut(BlockId, EdgeWeight)) {
        let row = self.row(u);
        if row.len() == self.k {
            for (block, &affinity) in row.iter().enumerate() {
                f(block as BlockId, affinity);
            }
        } else {
            for &word in row {
                let (block, affinity) = self.unpack(word);
                f(block, affinity);
            }
        }
    }

    /// Heap bytes used by the table: offsets and slots.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.slots.len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// Brute-force affinity used as the ground truth.
    fn reference_affinity(
        graph: &impl Graph,
        assignment: &[BlockId],
        u: NodeId,
        block: BlockId,
    ) -> EdgeWeight {
        let mut total = 0;
        graph.for_each_neighbor(u, &mut |v, w| {
            if assignment[v as usize] == block {
                total += w;
            }
        });
        total
    }

    fn check_all_affinities(
        graph: &impl Graph,
        assignment: &[BlockId],
        cache: &GainCache,
        k: usize,
    ) {
        for u in 0..graph.n() as NodeId {
            for b in 0..k as BlockId {
                assert_eq!(
                    cache.affinity(graph, assignment, u, b),
                    reference_affinity(graph, assignment, u, b),
                    "affinity mismatch at vertex {} block {}",
                    u,
                    b
                );
            }
        }
    }

    #[test]
    fn all_kinds_agree_with_reference_initially() {
        let g = gen::with_random_edge_weights(&gen::grid2d(8, 8), 5, 1);
        let k = 4;
        let assignment: Vec<BlockId> = (0..g.n() as u32).map(|u| u % k as u32).collect();
        for kind in [
            GainTableKind::None,
            GainTableKind::Dense,
            GainTableKind::Sparse,
        ] {
            let cache = GainCache::new(kind, &g, &assignment, k);
            check_all_affinities(&g, &assignment, &cache, k);
        }
    }

    #[test]
    fn the_table_less_cache_parks_its_rows_zeroed() {
        let g = gen::with_random_edge_weights(&gen::grid2d(12, 12), 5, 3);
        let k = 5;
        let assignment: Vec<BlockId> = (0..g.n() as u32).map(|u| u % k as u32).collect();
        let cache = GainCache::new(GainTableKind::None, &g, &assignment, k);
        let sweep = || -> Vec<Option<(i64, BlockId)>> {
            (0..g.n() as NodeId)
                .map(|u| cache.best_move(&g, &assignment, u, assignment[u as usize], |_| true))
                .collect()
        };
        let sequential = sweep();
        std::thread::scope(|s| {
            let threads: Vec<_> = (0..4).map(|_| s.spawn(sweep)).collect();
            for t in threads {
                assert_eq!(t.join().unwrap(), sequential);
            }
        });
        let GainCache::None { rows, .. } = &cache else {
            unreachable!("built as GainTableKind::None");
        };
        assert!(rows.parked_count() >= 1);
        assert_eq!(
            rows.parked_sum(|row| row.iter().filter(|&&a| a != 0).count()),
            0
        );
        assert!(
            rows.high_water() <= 4,
            "{} rows leased at once",
            rows.high_water()
        );
    }

    #[test]
    fn caches_stay_consistent_under_random_moves() {
        let g = gen::with_random_edge_weights(&gen::erdos_renyi(60, 300, 7), 9, 2);
        let k = 6;
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let mut assignment: Vec<BlockId> = (0..g.n() as u32).map(|u| u % k as u32).collect();
        let mut dense = GainCache::new(GainTableKind::Dense, &g, &assignment, k);
        let mut sparse = GainCache::new(GainTableKind::Sparse, &g, &assignment, k);
        for _ in 0..200 {
            let u = rng.gen_range(0..g.n()) as NodeId;
            let from = assignment[u as usize];
            let to = rng.gen_range(0..k as BlockId);
            if from == to {
                continue;
            }
            assignment[u as usize] = to;
            dense.apply_move(&g, u, from, to);
            sparse.apply_move(&g, u, from, to);
        }
        check_all_affinities(&g, &assignment, &dense, k);
        check_all_affinities(&g, &assignment, &sparse, k);
    }

    #[test]
    fn sparse_table_uses_less_memory_than_dense_for_large_k() {
        let g = gen::grid2d(30, 30); // max degree 4, so deg << k
        let k = 128;
        let assignment: Vec<BlockId> = (0..g.n() as u32).map(|u| u % k as u32).collect();
        let dense = GainCache::new(GainTableKind::Dense, &g, &assignment, k);
        let sparse = GainCache::new(GainTableKind::Sparse, &g, &assignment, k);
        assert!(dense.memory_bytes() >= g.n() * k * 8);
        assert!(
            sparse.memory_bytes() * 4 < dense.memory_bytes(),
            "sparse table not substantially smaller: {} vs {}",
            sparse.memory_bytes(),
            dense.memory_bytes()
        );
        assert_eq!(
            GainCache::new(GainTableKind::None, &g, &assignment, k).memory_bytes(),
            0
        );
    }

    #[test]
    fn high_degree_vertices_fall_back_to_dense_rows() {
        let g = gen::star(64);
        let k = 4; // hub degree 63 > k
        let assignment: Vec<BlockId> = (0..g.n() as u32).map(|u| u % k as u32).collect();
        let sparse = GainCache::new(GainTableKind::Sparse, &g, &assignment, k);
        check_all_affinities(&g, &assignment, &sparse, k);
    }

    /// A star whose hub (deg 6 < k = 16) owns one 8-slot hash row; moving the leaves
    /// around at random fills, collides and drains that row.
    fn star_hub_row() -> (graph::CsrGraph, Vec<BlockId>, GainTable) {
        let g = gen::star(7);
        let assignment = vec![0, 1, 2, 3, 4, 5, 6];
        let table = GainTable::new(&g, &assignment, 16, true);
        assert_eq!(table.row(0).len(), 8);
        (g, assignment, table)
    }

    #[test]
    fn backward_shift_deletion_keeps_lookups_correct() {
        let (g, mut assignment, mut table) = star_hub_row();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..2_000 {
            let leaf = rng.gen_range(1..7) as NodeId;
            let from = assignment[leaf as usize];
            let to = rng.gen_range(0..16 as BlockId);
            if from == to {
                continue;
            }
            assignment[leaf as usize] = to;
            table.update(0, from, to, 1);
            for b in 0..16 as BlockId {
                assert_eq!(
                    table.affinity(0, b),
                    reference_affinity(&g, &assignment, 0, b)
                );
            }
            let live = table.row(0).iter().filter(|&&word| word != 0);
            assert!(live.count() <= 6, "a drained entry stayed in the row");
        }
    }

    #[test]
    #[should_panic(expected = "decrement of absent block")]
    fn decrementing_an_absent_entry_is_a_hard_failure_under_test() {
        let (_, _, mut table) = star_hub_row();
        table.update(0, 9, 3, 1);
    }

    #[test]
    fn sparse_bytes_are_offsets_plus_slots() {
        // Path 0-1-2-3 plus the isolated vertex 4, k = 8: the ends (deg 1) get 2 slots,
        // the inner vertices (deg 2) 4, the isolated vertex none.
        let mut b = graph::CsrGraphBuilder::new(5);
        for u in 0..3 {
            b.add_edge(u, u + 1, 1);
        }
        let g = b.build();
        let table = GainTable::new(&g, &[0, 1, 2, 3, 4], 8, true);
        let rows: Vec<usize> = (0..5).map(|u| table.row(u).len()).collect();
        assert_eq!(rows, [2, 4, 4, 2, 0]);
        assert_eq!(table.memory_bytes(), 6 * 8 + 12 * 8);
        // From k slots on a row is dense: deg 3 would need 4 hash slots, k = 4 are no more.
        let star = gen::star(4);
        let table = GainTable::new(&star, &[0, 1, 2, 3], 4, true);
        assert_eq!(table.row(0).len(), 4);
        assert_eq!(table.affinity(0, 3), 1);
    }
}
