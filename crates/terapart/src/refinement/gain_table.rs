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
//! * [`GainTableKind::Dense`] — the standard table: a row of `k` affinities per boundary
//!   vertex (`O(nk)` memory).
//! * [`GainTableKind::Sparse`] — the space-efficient table: a vertex whose hash row
//!   would need `k` or more slots keeps the dense row; every other vertex keeps a
//!   linear-probing row, each slot one word packing block id and affinity, of a power of
//!   two slots: room for the blocks it touches when the row is built and one empty slot,
//!   never more than `deg(v) + 1` rounded up (it can hold no more than `deg(v)` blocks).
//!   A move that would fill a row's last empty slot moves the row to one of twice the
//!   slots first. Entries whose value drops to zero are removed by backward-shift
//!   deletion, keeping probe sequences intact (`O(m)` memory in total).
//!
//! Both tables are one [`GainTable`] in the paper's flat layout (a per-vertex row handle
//! and a slot arena carved into rows), and [`GainCache::best_move`] — the one query FM
//! asks — enumerates `u`'s row instead of `u`'s neighbourhood.
//!
//! # Rows for the boundary only
//!
//! A vertex whose neighbours all share its block has no move with a non-zero affinity,
//! so FM never needs its row (Sanders–Schulz, *Engineering Multilevel Graph Partitioning
//! Algorithms*; TeraPart-FM keeps the table to the boundary for the same reason):
//!
//! * the table is built with rows for the boundary vertices among the candidates FM
//!   hands it — the partition's boundary superset, or every vertex while that is
//!   unknown;
//! * a move can make boundary only the neighbours in the block the mover left. Such a
//!   vertex gets a row appended to the arena, filled by one scan of its neighbourhood
//!   against the current assignment (so the move's own delta is not applied to it);
//! * a vertex without a row has no move: [`GainCache::best_move`] returns `None`, and
//!   [`GainCache::affinity`] (tests and the debug check) answers by a scan.
//!
//! Rows are never freed, so the arena only grows (a grown row leaves its old slots
//! behind); its capacity grows by an eighth at a time and the table's memory charge
//! follows it. The table's size at the end of FM is
//! therefore its peak.
//!
//! # Slot width
//!
//! An affinity never exceeds its vertex's weighted degree, so never the graph's heaviest
//! weighted degree ([`Graph::max_weighted_degree`]): the encoder counts it as it writes
//! every neighbourhood (a CSR graph as it is built), so the bound costs no scan here, and
//! on a graph without edge weights it is the maximum degree. When that bound fits beside
//! a block id in 16 bits, every slot is 2 bytes wide, in 32 bits 4 bytes, otherwise 8 —
//! chosen once per table, for dense and hash rows alike (`Slots`). Every coarse level is
//! edge-weighted, and its heaviest weighted degree is far below its total edge weight:
//! `rhg_like(6 000, 8)`'s levels take 2-byte slots at k = 16 where a bound by the total
//! edge weight gave them 4. A graph opened from a `.tpg` container bounds it by its total
//! edge weight (the header does not store it). A row's handle packs its arena offset
//! above its length class (dense, or a hash row of `2^c` slots) in a [`PackedArray`]
//! sized by the most slots the arena could ever hold, so a query decodes nothing but the
//! handle.
//!
//! A cache has one writer: [`GainCache::apply_move`] takes `&mut self`, so the borrow
//! checker proves that no query runs while a row changes. Queries take `&self` and may
//! run in parallel between moves (FM seeds its queue that way).

use graph::packed::PackedArray;
use graph::traits::Graph;
use graph::{EdgeWeight, NodeId};
use memtrack::MemoryScope;

use crate::context::GainTableKind;
use crate::partition::BlockId;
use crate::scratch::{AtomicBitset, Pool};

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
    /// Dense or sparse affinity table over the boundary vertices.
    Table(GainTable),
}

impl GainCache {
    /// Builds a gain cache of the requested kind from the current assignment, with rows
    /// for the boundary vertices among `candidates` (every vertex when `None`); a
    /// candidate set must contain every boundary vertex.
    pub fn new(
        kind: GainTableKind,
        graph: &impl Graph,
        assignment: &[BlockId],
        k: usize,
        candidates: Option<&AtomicBitset>,
    ) -> Self {
        let table = |sparse| GainTable::new(graph, assignment, k, sparse, candidates);
        match kind {
            GainTableKind::None => GainCache::None {
                k,
                rows: Pool::new(),
            },
            GainTableKind::Dense => GainCache::Table(table(false)),
            GainTableKind::Sparse => GainCache::Table(table(true)),
        }
    }

    /// The best move of `u` out of block `from`: among the blocks `u` has a non-zero
    /// affinity to and that `admits` accepts, the one with the highest gain (= highest
    /// affinity, the source affinity being common to all targets), ties broken towards
    /// the lower block id — a total order, so the result does not depend on the order in
    /// which a row yields its entries. Returns `(gain, target)`, or `None` if no adjacent
    /// block is admissible (in particular for a vertex without a row). Allocation-free;
    /// only the table-less variant reads `graph`.
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

    /// Affinity of `u` towards `block` under the current `assignment`: read off `u`'s
    /// row, or counted from its neighbourhood when it has none.
    pub fn affinity(
        &self,
        graph: &impl Graph,
        assignment: &[BlockId],
        u: NodeId,
        block: BlockId,
    ) -> EdgeWeight {
        match self {
            GainCache::Table(table) => table.affinity(u, block),
            GainCache::None { .. } => None,
        }
        .unwrap_or_else(|| {
            let mut total = 0;
            graph.for_each_neighbor(u, &mut |v, w| {
                if assignment[v as usize] == block {
                    total += w;
                }
            });
            total
        })
    }

    /// Updates the cache after `u` moved from block `from` to block `to`; `assignment`
    /// already has `u` in `to`. For every neighbour `v` of `u` with a row, `ω(v, from)`
    /// decreases and `ω(v, to)` increases by the connecting edge weight; a neighbour
    /// without one (it just became boundary) gets a row counted from `assignment`.
    pub fn apply_move(
        &mut self,
        graph: &impl Graph,
        assignment: &[BlockId],
        u: NodeId,
        from: BlockId,
        to: BlockId,
    ) {
        if let GainCache::Table(table) = self {
            if from != to {
                table.apply_move(graph, assignment, u, from, to);
            }
        }
    }

    /// Debug builds only: panics unless a sample of vertices (every `⌈n/64⌉`-th) agrees
    /// with the graph — a row holds exactly the affinities recomputed from it, and a
    /// vertex without a row has no neighbour in another block. FM calls it after every
    /// pass.
    pub(super) fn debug_check_sample(&self, graph: &impl Graph, assignment: &[BlockId]) {
        let GainCache::Table(table) = self else {
            return;
        };
        if !cfg!(debug_assertions) {
            return;
        }
        let mut expected: Vec<EdgeWeight> = vec![0; table.k()];
        for u in (0..graph.n() as NodeId).step_by((graph.n() / 64).max(1)) {
            graph.for_each_neighbor(u, &mut |v, w| {
                expected[assignment[v as usize] as usize] += w;
            });
            let own = assignment[u as usize] as usize;
            for (block, want) in expected.iter_mut().enumerate() {
                let want = std::mem::take(want);
                match table.affinity(u, block as BlockId) {
                    Some(got) => assert_eq!(
                        got, want,
                        "gain table row of vertex {u} drifted from the graph at block {block}"
                    ),
                    None => assert!(
                        block == own || want == 0,
                        "boundary vertex {u} (a neighbour in block {block}) has no gain table row"
                    ),
                }
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

    /// Rows the table was built with and rows it appended since (`(0, 0)` without a
    /// table).
    pub fn rows(&self) -> (usize, usize) {
        match self {
            GainCache::None { .. } => (0, 0),
            GainCache::Table(table) => (table.rows_built, table.rows_added),
        }
    }
}

/// The flat affinity table behind both table kinds: a row handle per vertex and one slot
/// arena, whatever `n`.
#[derive(Debug)]
pub struct GainTable {
    layout: RowLayout,
    /// Hash rows, sized by the blocks a vertex touches, where they are below `k`; dense
    /// rows only otherwise.
    sparse: bool,
    /// Row handles, one per vertex: 0 for "no row", otherwise the row's arena offset
    /// shifted above `class_bits` bits of length class. Class `dense_class` is a dense row
    /// of `k` slots, a smaller class `c ≥ 1` a hash row of `2^c` slots.
    handles: PackedArray,
    class_bits: u32,
    dense_class: u32,
    slots: Slots,
    /// Counting buffers of one row fill: a `k`-entry sum per block, the blocks touched,
    /// and the neighbours of a move that still need a row.
    sums: Vec<EdgeWeight>,
    touched: Vec<BlockId>,
    pending: Vec<NodeId>,
    /// Rows built from the candidates, and rows appended by moves since.
    rows_built: usize,
    rows_added: usize,
    /// Charge of [`Self::memory_bytes`], grown with the arena.
    charge: MemoryScope<'static>,
}

/// The slot arena at the width chosen for the table: the narrowest of 2, 4 and 8 bytes
/// whose slot holds the table's affinity bound beside a block id.
#[derive(Debug)]
enum Slots {
    Half(Vec<u16>),
    Narrow(Vec<u32>),
    Wide(Vec<u64>),
}

/// Evaluates `$body` with `$s` bound to the arena's `Vec` at its width — one dispatch per
/// row, so each row operation compiles for its slot type.
macro_rules! with_slots {
    ($slots:expr, |$s:ident| $body:expr) => {
        match $slots {
            Slots::Half($s) => $body,
            Slots::Narrow($s) => $body,
            Slots::Wide($s) => $body,
        }
    };
}

/// A slot of the arena: one hash-row word or one dense affinity.
trait Slot: Copy + Into<u64> {
    /// The slot holding `word`, which fits its width.
    fn from_word(word: u64) -> Self;
}

impl Slot for u16 {
    #[inline]
    fn from_word(word: u64) -> Self {
        word as u16
    }
}

impl Slot for u32 {
    #[inline]
    fn from_word(word: u64) -> Self {
        word as u32
    }
}

impl Slot for u64 {
    #[inline]
    fn from_word(word: u64) -> Self {
        word
    }
}

/// Home slot of `block` in a power-of-two row (masked by the caller).
fn home_slot(block: BlockId) -> usize {
    ((block as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize
}

/// How a row is read: `k` slots are a dense row, fewer a hash row whose words hold the
/// affinity in the low `value_bits` bits and the block id above them. An all-zero word
/// is an empty slot (stored affinities are never zero).
#[derive(Debug, Clone, Copy)]
struct RowLayout {
    k: usize,
    value_bits: u32,
}

impl RowLayout {
    fn unpack(self, word: u64) -> (BlockId, EdgeWeight) {
        let block = (word >> self.value_bits) as BlockId;
        (block, word & ((1 << self.value_bits) - 1))
    }

    /// Probes the hash `row` for `block`: the slot holding it, or the empty slot that
    /// ends its probe sequence, with the slot's word.
    fn probe<W: Slot>(self, row: &[W], block: BlockId) -> (usize, u64) {
        let mask = row.len() - 1;
        let mut slot = home_slot(block) & mask;
        for _ in 0..row.len() {
            let word = row[slot].into();
            if word == 0 || self.unpack(word).0 == block {
                return (slot, word);
            }
            slot = (slot + 1) & mask;
        }
        panic!("gain table row overflow: a vertex is adjacent to more blocks than its capacity");
    }

    fn affinity<W: Slot>(self, row: &[W], block: BlockId) -> EdgeWeight {
        if row.len() == self.k {
            row[block as usize].into()
        } else {
            self.unpack(self.probe(row, block).1).1
        }
    }

    /// Adds `weight` to `block`'s affinity. Panics if the sum does not fit the width the
    /// table chose from the total edge weight (a graph understating it).
    fn add<W: Slot>(self, row: &mut [W], block: BlockId, weight: EdgeWeight) {
        if row.len() == self.k {
            let affinity = self.fitting(row[block as usize].into() + weight);
            row[block as usize] = W::from_word(affinity);
            return;
        }
        let (slot, word) = self.probe(row, block);
        let affinity = self.fitting(self.unpack(word).1 + weight);
        row[slot] = W::from_word((block as u64) << self.value_bits | affinity);
    }

    /// [`Self::add`], unless `block` is absent from the hash `row` and taking it would
    /// leave no empty slot to end a probe sequence: then the row is left as it is and
    /// this returns `false`.
    fn try_add<W: Slot>(self, row: &mut [W], block: BlockId, weight: EdgeWeight) -> bool {
        if row.len() != self.k && self.probe(row, block).1 == 0 {
            let occupied = row.iter().filter(|&&word| word.into() != 0).count();
            if occupied + 2 > row.len() {
                return false;
            }
        }
        self.add(row, block, weight);
        true
    }

    fn fitting(self, affinity: EdgeWeight) -> EdgeWeight {
        assert!(
            affinity >> self.value_bits == 0,
            "affinity {affinity} does not fit beside a block id of k = {}",
            self.k
        );
        affinity
    }

    fn sub<W: Slot>(self, row: &mut [W], block: BlockId, weight: EdgeWeight) {
        if row.len() == self.k {
            row[block as usize] = W::from_word(row[block as usize].into() - weight);
            return;
        }
        let (slot, word) = self.probe(row, block);
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
        if affinity != 0 {
            row[slot] = W::from_word(word - weight);
            return;
        }
        // Backward-shift deletion (paper §V): later entries of the probe sequence move
        // up into the hole unless their home slot lies cyclically within (hole, next].
        let mask = row.len() - 1;
        let (mut hole, mut next) = (slot, (slot + 1) & mask);
        while row[next].into() != 0 {
            let home = home_slot(self.unpack(row[next].into()).0);
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(hole) & mask) {
                row[hole] = row[next];
                hole = next;
            }
            next = (next + 1) & mask;
        }
        row[hole] = W::from_word(0);
    }

    /// Hands every slot of `row` to `f` as `(block, affinity)`; empty slots and absent
    /// blocks come out with affinity zero.
    fn scan<W: Slot>(self, row: &[W], f: &mut impl FnMut(BlockId, EdgeWeight)) {
        if row.len() == self.k {
            for (block, &affinity) in row.iter().enumerate() {
                f(block as BlockId, affinity.into());
            }
        } else {
            for &word in row {
                let (block, affinity) = self.unpack(word.into());
                f(block, affinity);
            }
        }
    }
}

impl GainTable {
    /// Builds the table from the current assignment with a row for every boundary vertex
    /// among `candidates` (all vertices when `None`); `sparse` selects `Θ(deg)` hash rows
    /// where they are smaller than the `k` slots every row of the dense table has.
    pub fn new(
        graph: &impl Graph,
        assignment: &[BlockId],
        k: usize,
        sparse: bool,
        candidates: Option<&AtomicBitset>,
    ) -> Self {
        let n = graph.n();
        let key_bits = (usize::BITS - k.saturating_sub(1).leading_zeros()).max(1);
        let most_affinity = graph.max_weighted_degree();
        let fits =
            |slot_bits: u32| slot_bits > key_bits && most_affinity >> (slot_bits - key_bits) == 0;
        let (slots, slot_bits) = if fits(u16::BITS) {
            (Slots::Half(Vec::new()), u16::BITS)
        } else if fits(u32::BITS) {
            (Slots::Narrow(Vec::new()), u32::BITS)
        } else {
            (Slots::Wide(Vec::new()), u64::BITS)
        };
        let dense_class = k.next_power_of_two().trailing_zeros().max(1);
        let class_bits = u32::BITS - dense_class.leading_zeros();
        // A vertex holds one row at a time. A dense table's is k slots; a sparse table's
        // hash rows double from at least 2 slots up to at most 2d + 2 (degree d) or k,
        // so the rows a vertex ever held sum to under 2k and under 4d + 4. No row starts
        // beyond that many slots.
        let most_slots = if sparse {
            (2 * n * k).min(8 * graph.m() + 4 * n)
        } else {
            n * k
        };
        let mut table = Self {
            layout: RowLayout {
                k,
                value_bits: slot_bits - key_bits,
            },
            sparse,
            handles: PackedArray::zeroed(n, (most_slots as u64) << class_bits),
            class_bits,
            dense_class,
            slots,
            sums: vec![0; k],
            touched: Vec::new(),
            pending: Vec::new(),
            rows_built: 0,
            rows_added: 0,
            charge: MemoryScope::charge_global(0),
        };
        let mut built = 0;
        match candidates {
            Some(bits) => {
                for word in 0..n.div_ceil(64) {
                    bits.for_each_in_word(word, |u| {
                        built += usize::from(table.push_row(graph, assignment, u as NodeId));
                    });
                }
            }
            None => {
                for u in 0..n as NodeId {
                    built += usize::from(table.push_row(graph, assignment, u));
                }
            }
        }
        table.rows_built = built;
        table.recharge();
        table
    }

    fn k(&self) -> usize {
        self.layout.k
    }

    /// Arena offset and length of `u`'s row, `None` if it has none.
    #[inline]
    fn row(&self, u: NodeId) -> Option<(usize, usize)> {
        let handle = self.handles.get(u as usize);
        if handle == 0 {
            return None;
        }
        let class = (handle & ((1 << self.class_bits) - 1)) as u32;
        let len = if class == self.dense_class {
            self.k()
        } else {
            1 << class
        };
        Some(((handle >> self.class_bits) as usize, len))
    }

    /// Gives `u` a row if it has none and is on the boundary, counted from `assignment`
    /// by one scan of its neighbourhood. Returns whether it appended one.
    fn push_row(&mut self, graph: &impl Graph, assignment: &[BlockId], u: NodeId) -> bool {
        if self.row(u).is_some() {
            return false;
        }
        let (sums, touched) = (&mut self.sums, &mut self.touched);
        let mut degree = 0usize;
        graph.for_each_neighbor(u, &mut |v, w| {
            let block = assignment[v as usize];
            if sums[block as usize] == 0 {
                touched.push(block);
            }
            sums[block as usize] += w;
            degree += 1;
        });
        let own = assignment[u as usize];
        let boundary = touched.iter().any(|&block| block != own);
        if boundary {
            // A hash row starts with room for the blocks `u` touches and one empty slot,
            // and never needs more than `deg + 1` slots: it holds at most `deg` blocks.
            let len = if self.sparse {
                (touched.len() + 1)
                    .next_power_of_two()
                    .min((degree + 1).next_power_of_two())
            } else {
                self.k()
            };
            self.fill_new_row(u, len);
        }
        self.clear_sums();
        boundary
    }

    /// Appends a row of `len` slots (dense from `k` on) for `u` to the arena, filled with
    /// the affinities `sums` holds for the `touched` blocks, and points `u`'s handle at it.
    fn fill_new_row(&mut self, u: NodeId, len: usize) {
        let k = self.k();
        let (len, class) = if len >= k {
            (k, self.dense_class)
        } else {
            (len, len.trailing_zeros())
        };
        let layout = self.layout;
        let (sums, touched) = (&self.sums, &self.touched);
        with_slots!(&mut self.slots, |slots| {
            let start = slots.len();
            if slots.capacity() - start < len {
                slots.reserve_exact(len.max(slots.capacity() / 8));
            }
            slots.resize(start + len, 0);
            let handle = (start as u64) << self.class_bits | u64::from(class);
            self.handles.set(u as usize, handle);
            let row = &mut slots[start..];
            for &block in touched.iter() {
                layout.add(row, block, sums[block as usize]);
            }
        });
    }

    /// Empties the counting buffers of one row fill.
    fn clear_sums(&mut self) {
        for block in self.touched.drain(..) {
            self.sums[block as usize] = 0;
        }
    }

    /// Moves `v`'s full hash row at `(start, len)` to a new one of twice the slots (dense
    /// from `k` on) at the end of the arena. The old slots are abandoned, like every row
    /// of the arena they are never reused.
    fn grow_row(&mut self, v: NodeId, (start, len): (usize, usize)) {
        let layout = self.layout;
        let (sums, touched) = (&mut self.sums, &mut self.touched);
        with_slots!(&self.slots, |slots| layout.scan(
            &slots[start..start + len],
            &mut |block, affinity| {
                if affinity != 0 {
                    sums[block as usize] = affinity;
                    touched.push(block);
                }
            }
        ));
        self.fill_new_row(v, 2 * len);
        self.clear_sums();
    }

    /// Grows the memory charge to the table's current footprint.
    fn recharge(&mut self) {
        let bytes = self.memory_bytes();
        self.charge.grow(bytes.saturating_sub(self.charge.bytes()));
    }

    /// Affinity of `u` towards `block`, `None` if `u` has no row.
    pub fn affinity(&self, u: NodeId, block: BlockId) -> Option<EdgeWeight> {
        let (start, len) = self.row(u)?;
        let layout = self.layout;
        Some(with_slots!(&self.slots, |slots| layout
            .affinity(&slots[start..start + len], block)))
    }

    /// Applies the move of `u` from `from` to `to` (`assignment` has `u` in `to`):
    /// the delta to every neighbour with a row, and a row to every neighbour (and to `u`)
    /// that has none. Those rows are counted after the deltas, so a neighbour that
    /// appears more than once in `u`'s neighbourhood is not counted twice.
    fn apply_move(
        &mut self,
        graph: &impl Graph,
        assignment: &[BlockId],
        u: NodeId,
        from: BlockId,
        to: BlockId,
    ) {
        self.pending.push(u);
        graph.for_each_neighbor(u, &mut |v, w| match self.row(v) {
            Some(row) => self.update(v, row, from, to, w),
            None => self.pending.push(v),
        });
        let mut pending = std::mem::take(&mut self.pending);
        let added: usize = pending
            .drain(..)
            .map(|v| usize::from(self.push_row(graph, assignment, v)))
            .sum();
        self.pending = pending;
        self.rows_added += added;
        self.recharge();
    }

    /// Applies the affinity delta of a move `from → to` over an edge of `weight` to
    /// `v`'s row at `(start, len)`. Decrementing first keeps a hash row within the
    /// `deg(v)` entries its largest size is sized for; a hash row that `to` would leave
    /// without an empty slot grows first ([`Self::grow_row`]).
    fn update(
        &mut self,
        v: NodeId,
        (start, len): (usize, usize),
        from: BlockId,
        to: BlockId,
        weight: EdgeWeight,
    ) {
        let layout = self.layout;
        let added = with_slots!(&mut self.slots, |slots| {
            let row = &mut slots[start..start + len];
            layout.sub(row, from, weight);
            layout.try_add(row, to, weight)
        });
        if !added {
            self.grow_row(v, (start, len));
            let (start, len) = self.row(v).expect("a grown row");
            with_slots!(&mut self.slots, |slots| layout.add(
                &mut slots[start..start + len],
                to,
                weight
            ));
        }
    }

    /// Hands every slot of `u`'s row to `f` as `(block, affinity)`; empty slots and
    /// absent blocks come out with affinity zero. A vertex without a row yields nothing.
    fn scan_row(&self, u: NodeId, mut f: impl FnMut(BlockId, EdgeWeight)) {
        if let Some((start, len)) = self.row(u) {
            let layout = self.layout;
            with_slots!(&self.slots, |slots| layout
                .scan(&slots[start..start + len], &mut f));
        }
    }

    /// Bytes of one slot: 2, 4 or 8, by the table's affinity bound.
    #[cfg(test)]
    pub(crate) fn slot_bytes(&self) -> usize {
        match self.slots {
            Slots::Half(_) => 2,
            Slots::Narrow(_) => 4,
            Slots::Wide(_) => 8,
        }
    }

    /// Heap bytes used by the table: row handles, the arena's capacity and the counting
    /// buffers.
    pub fn memory_bytes(&self) -> usize {
        let arena = match &self.slots {
            Slots::Half(slots) => slots.capacity() * std::mem::size_of::<u16>(),
            Slots::Narrow(slots) => slots.capacity() * std::mem::size_of::<u32>(),
            Slots::Wide(slots) => slots.capacity() * std::mem::size_of::<u64>(),
        };
        self.handles.size_in_bytes()
            + arena
            + self.sums.capacity() * std::mem::size_of::<EdgeWeight>()
            + self.touched.capacity() * std::mem::size_of::<BlockId>()
            + self.pending.capacity() * std::mem::size_of::<NodeId>()
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

    /// The words of `u`'s row, widened.
    fn row_words(table: &GainTable, u: NodeId) -> Vec<u64> {
        fn widened<W: Slot>(row: &[W]) -> Vec<u64> {
            row.iter().map(|&word| word.into()).collect()
        }
        let (start, len) = table.row(u).expect("a row");
        with_slots!(&table.slots, |slots| widened(&slots[start..start + len]))
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
            let cache = GainCache::new(kind, &g, &assignment, k, None);
            check_all_affinities(&g, &assignment, &cache, k);
        }
    }

    #[test]
    fn the_table_less_cache_parks_its_rows_zeroed() {
        let g = gen::with_random_edge_weights(&gen::grid2d(12, 12), 5, 3);
        let k = 5;
        let assignment: Vec<BlockId> = (0..g.n() as u32).map(|u| u % k as u32).collect();
        let cache = GainCache::new(GainTableKind::None, &g, &assignment, k, None);
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
        let mut dense = GainCache::new(GainTableKind::Dense, &g, &assignment, k, None);
        let mut sparse = GainCache::new(GainTableKind::Sparse, &g, &assignment, k, None);
        for _ in 0..200 {
            let u = rng.gen_range(0..g.n()) as NodeId;
            let from = assignment[u as usize];
            let to = rng.gen_range(0..k as BlockId);
            if from == to {
                continue;
            }
            assignment[u as usize] = to;
            dense.apply_move(&g, &assignment, u, from, to);
            sparse.apply_move(&g, &assignment, u, from, to);
        }
        check_all_affinities(&g, &assignment, &dense, k);
        check_all_affinities(&g, &assignment, &sparse, k);
    }

    #[test]
    fn sparse_table_uses_less_memory_than_dense_for_large_k() {
        let g = gen::grid2d(30, 30); // max degree 4, so deg << k
        let k = 128;
        let assignment: Vec<BlockId> = (0..g.n() as u32).map(|u| u % k as u32).collect();
        let dense = GainCache::new(GainTableKind::Dense, &g, &assignment, k, None);
        let sparse = GainCache::new(GainTableKind::Sparse, &g, &assignment, k, None);
        // Every vertex is on the boundary, and unit weights of degree 4 take 2-byte slots.
        assert!(dense.memory_bytes() >= g.n() * k * 2);
        assert!(
            sparse.memory_bytes() * 4 < dense.memory_bytes(),
            "sparse table not substantially smaller: {} vs {}",
            sparse.memory_bytes(),
            dense.memory_bytes()
        );
        assert_eq!(
            GainCache::new(GainTableKind::None, &g, &assignment, k, None).memory_bytes(),
            0
        );
    }

    #[test]
    fn high_degree_vertices_fall_back_to_dense_rows() {
        let g = gen::star(64);
        let k = 4; // hub degree 63 > k
        let assignment: Vec<BlockId> = (0..g.n() as u32).map(|u| u % k as u32).collect();
        let sparse = GainCache::new(GainTableKind::Sparse, &g, &assignment, k, None);
        check_all_affinities(&g, &assignment, &sparse, k);
    }

    /// A star whose hub (deg 6 < k = 16) owns one 8-slot hash row; moving the leaves
    /// around at random fills, collides and drains that row.
    fn star_hub_row() -> (graph::CsrGraph, Vec<BlockId>, GainTable) {
        let g = gen::star(7);
        let assignment = vec![0, 1, 2, 3, 4, 5, 6];
        let table = GainTable::new(&g, &assignment, 16, true, None);
        assert_eq!(table.row(0).map(|(_, len)| len), Some(8));
        (g, assignment, table)
    }

    #[test]
    fn backward_shift_deletion_keeps_lookups_correct() {
        let (g, mut assignment, mut table) = star_hub_row();
        let hub = table.row(0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..2_000 {
            let leaf = rng.gen_range(1..7) as NodeId;
            let from = assignment[leaf as usize];
            let to = rng.gen_range(0..16 as BlockId);
            if from == to {
                continue;
            }
            assignment[leaf as usize] = to;
            table.update(0, hub, from, to, 1);
            for b in 0..16 as BlockId {
                assert_eq!(
                    table.affinity(0, b),
                    Some(reference_affinity(&g, &assignment, 0, b))
                );
            }
            let live = row_words(&table, 0).into_iter().filter(|&word| word != 0);
            assert!(live.count() <= 6, "a drained entry stayed in the row");
        }
    }

    #[test]
    #[should_panic(expected = "decrement of absent block")]
    fn decrementing_an_absent_entry_is_a_hard_failure_under_test() {
        let (_, _, mut table) = star_hub_row();
        table.update(0, table.row(0).unwrap(), 9, 3, 1);
    }

    #[test]
    fn a_row_grows_when_a_move_would_fill_it() {
        // A star of 12 leaves, k = 32: the hub (block 0) touches blocks 0 and 1, so its
        // hash row starts at 4 slots, and can grow to 16 (deg + 1 = 13, rounded up).
        let g = gen::star(13);
        let mut assignment = vec![0; 13];
        assignment[1] = 1;
        let k = 32;
        let mut cache = GainCache::new(GainTableKind::Sparse, &g, &assignment, k, None);
        let row_len = |cache: &GainCache| match cache {
            GainCache::Table(table) => table.row(0).map(|(_, len)| len),
            GainCache::None { .. } => unreachable!("a sparse table"),
        };
        assert_eq!(row_len(&cache), Some(4));
        // Leaves 2, 3, ... join blocks 2, 3, ...: the third block fills the last empty
        // slot of 4, the seventh that of 8.
        let mut lengths = Vec::new();
        for leaf in 2..13 {
            assignment[leaf] = leaf as BlockId;
            cache.apply_move(&g, &assignment, leaf as NodeId, 0, leaf as BlockId);
            lengths.push(row_len(&cache).unwrap());
            check_all_affinities(&g, &assignment, &cache, k);
        }
        assert_eq!(lengths, [4, 8, 8, 8, 8, 16, 16, 16, 16, 16, 16]);
        // Moving them all back drains the row, which keeps its size.
        for leaf in 2..13 {
            let from = assignment[leaf];
            assignment[leaf] = 0;
            cache.apply_move(&g, &assignment, leaf as NodeId, from, 0);
        }
        check_all_affinities(&g, &assignment, &cache, k);
        assert_eq!(row_len(&cache), Some(16));
        cache.debug_check_sample(&g, &assignment);
    }

    /// Path 0-1-2-3 plus the isolated vertex 4.
    fn path_and_a_point(weight: EdgeWeight) -> graph::CsrGraph {
        let mut b = graph::CsrGraphBuilder::new(5);
        for u in 0..3 {
            b.add_edge(u, u + 1, weight);
        }
        b.build()
    }

    #[test]
    fn rows_are_sized_by_degree_and_built_for_the_boundary_only() {
        // Every connected vertex on the boundary, k = 8: the ends (deg 1) get 2 slots,
        // the inner vertices (deg 2) 4, the isolated vertex none; the arena holds
        // exactly those 12 slots of 2 bytes (unit weights, degree 2).
        let g = path_and_a_point(1);
        let table = GainTable::new(&g, &[0, 1, 2, 3, 4], 8, true, None);
        let rows: Vec<Option<usize>> = (0..5).map(|u| table.row(u).map(|(_, len)| len)).collect();
        assert_eq!(rows, [Some(2), Some(4), Some(4), Some(2), None]);
        assert_eq!((table.slot_bytes(), table.rows_built), (2, 4));
        assert_eq!(table.memory_bytes() - table.handles.size_in_bytes(), {
            12 * 2
                + table.sums.capacity() * std::mem::size_of::<EdgeWeight>()
                + table.touched.capacity() * std::mem::size_of::<BlockId>()
        });
        // From k slots on a row is dense: deg 3 would need 4 hash slots, k = 4 are no more.
        let star = gen::star(4);
        let table = GainTable::new(&star, &[0, 1, 2, 3], 4, true, None);
        assert_eq!(table.row(0).map(|(_, len)| len), Some(4));
        assert_eq!(table.affinity(0, 3), Some(1));

        // Blocks {0, 1} | {2, 3}: only 1 and 2 are on the boundary, whatever the
        // candidates say, and a vertex outside the candidates gets no row.
        let assignment = [0, 0, 1, 1, 0];
        let table = GainTable::new(&g, &assignment, 8, true, None);
        let with_row: Vec<NodeId> = (0..5).filter(|&u| table.row(u).is_some()).collect();
        assert_eq!(with_row, [1, 2]);
        let mut candidates = AtomicBitset::new();
        candidates.ensure_len(5);
        [0, 1, 3].into_iter().for_each(|u| candidates.set(u));
        let table = GainTable::new(&g, &assignment, 8, true, Some(&candidates));
        let with_row: Vec<NodeId> = (0..5).filter(|&u| table.row(u).is_some()).collect();
        assert_eq!(with_row, [1]);
    }

    #[test]
    fn a_move_gives_the_neighbours_it_puts_on_the_boundary_a_row() {
        let g = path_and_a_point(3);
        let mut assignment = vec![0, 0, 1, 1, 0];
        let mut cache = GainCache::new(GainTableKind::Sparse, &g, &assignment, 4, None);
        assert_eq!(cache.rows(), (2, 0));
        // Vertex 3 has no row: no move, and its affinity is counted from the graph.
        assert_eq!(cache.best_move(&g, &assignment, 3, 1, |_| true), None);
        assert_eq!(cache.affinity(&g, &assignment, 3, 1), 3);
        // 2 joins block 0: 3 is now on the boundary and gets a row counted after the move.
        assignment[2] = 0;
        cache.apply_move(&g, &assignment, 2, 1, 0);
        assert_eq!(cache.rows(), (2, 1));
        assert_eq!(
            cache.best_move(&g, &assignment, 3, 1, |_| true),
            Some((3, 0))
        );
        check_all_affinities(&g, &assignment, &cache, 4);
        // Moved back, every row stays and still mirrors the assignment.
        assignment[2] = 1;
        cache.apply_move(&g, &assignment, 2, 0, 1);
        assert_eq!(cache.rows(), (2, 1));
        check_all_affinities(&g, &assignment, &cache, 4);
        cache.debug_check_sample(&g, &assignment);
    }

    #[test]
    fn slots_widen_only_when_the_total_edge_weight_needs_it() {
        // k = 8 leaves 13 / 29 value bits beside a 3-bit block id in 2 / 4 bytes: a total
        // edge weight of 3 · (2^13 / 3) fits 2, 3 · 2^13 and 3 · (2^29 / 3) fit 4, 3 · 2^29
        // needs 8.
        for (weight, bytes) in [
            ((1 << 13) / 3, 2),
            (1 << 13, 4),
            ((1 << 29) / 3, 4),
            (1 << 29, 8),
        ] {
            let g = path_and_a_point(weight);
            let assignment = [0, 1, 2, 3, 4];
            for kind in [GainTableKind::Dense, GainTableKind::Sparse] {
                let GainCache::Table(table) = GainCache::new(kind, &g, &assignment, 8, None) else {
                    unreachable!("a table kind");
                };
                assert_eq!(table.slot_bytes(), bytes, "{kind:?}, edge weight {weight}");
                assert_eq!(table.affinity(1, 2), Some(weight));
            }
        }
    }

    #[test]
    fn without_edge_weights_the_maximum_degree_sets_the_slot_width() {
        // k = 8: a unit-weight affinity is at most the degree, and 13 value bits hold a
        // degree below 2^13. A star's hub of degree 2^13 - 1 fits 2-byte slots, one of
        // degree 2^13 needs 4, though its total edge weight is the same order.
        for (leaves, bytes) in [((1 << 13) - 1, 2), (1 << 13, 4)] {
            let g = gen::star(leaves + 1);
            assert!(!g.is_edge_weighted());
            let assignment: Vec<BlockId> = (0..g.n() as BlockId).map(|u| u % 8).collect();
            let table = GainTable::new(&g, &assignment, 8, true, None);
            assert_eq!(table.slot_bytes(), bytes, "{leaves} leaves");
            assert_eq!(
                table.affinity(0, 1),
                Some(reference_affinity(&g, &assignment, 0, 1))
            );
        }
    }
}
