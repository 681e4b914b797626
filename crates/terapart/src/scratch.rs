//! What one partitioning run keeps between its phases, and the lending pools it keeps it
//! in.
//!
//! Level-sized auxiliary memory is *phase-owned*: contraction allocates its cluster
//! buckets and per-coarse-vertex buffers for its own level, the label-propagation round
//! driver the range permutation and frontier bitsets of one stage, and each frees them — and
//! releases their `memtrack` charge — when it returns. No buffer's contents carry
//! from one phase to the next, so nothing level-sized is worth keeping: an arena sized
//! by level 0 would hold level 0's buckets and bitsets through every later phase
//! and put the run's peak in the refinement of level 0.
//!
//! Initial partitioning's membership map, tree permutation and workspace pools are the
//! same: they belong to that stage ([`crate::initial::scratch`]) and are freed when it
//! returns.
//!
//! [`HierarchyScratch`] keeps only what outlives a phase: the pool of per-worker hot-loop
//! buffers (`WorkerScratch`, at most one per running chunk) and the run's observability
//! handle. An engine parks it between requests ([`crate::engine::ScratchPool`]).

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use graph::NodeId;
use parking_lot::Mutex;
use rayon::prelude::*;

use crate::coarsening::contract::Batch;
use crate::coarsening::rating_map::FixedCapacityHashMap;

/// A fixed-capacity concurrent bitset with relaxed atomics.
///
/// Used as the label-propagation frontier: `set` is called concurrently by worker
/// threads marking vertices whose neighbourhood changed, and clustering's visits `unset`
/// their own bit of the round's active set; collection and clearing of whole ranges
/// happen between rounds, outside the parallel section.
#[derive(Debug, Default)]
pub struct AtomicBitset {
    words: Vec<AtomicU64>,
}

impl AtomicBitset {
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the bitset to hold at least `bits` bits. Does not shrink.
    pub fn ensure_len(&mut self, bits: usize) {
        let words = bits.div_ceil(64);
        if words > self.words.len() {
            self.words.resize_with(words, || AtomicU64::new(0));
        }
    }

    /// Sets bit `i`. Callable concurrently. Tests the bit first: a move marks its whole
    /// neighbourhood and most of those bits are set already, so the plain load saves
    /// the read-modify-write (and the exclusive cache line) in the common case.
    #[inline]
    pub fn set(&self, i: usize) {
        let word = &self.words[i / 64];
        let mask = 1 << (i % 64);
        if word.load(Ordering::Relaxed) & mask == 0 {
            word.fetch_or(mask, Ordering::Relaxed);
        }
    }

    /// Clears bit `i`. Callable concurrently.
    #[inline]
    pub fn unset(&self, i: usize) {
        self.words[i / 64].fetch_and(!(1 << (i % 64)), Ordering::Relaxed);
    }

    /// Tests bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        (self.words[i / 64].load(Ordering::Relaxed) >> (i % 64)) & 1 == 1
    }

    /// Clears the first `bits` bits.
    pub fn clear_range(&self, bits: usize) {
        for word in &self.words[..bits.div_ceil(64).min(self.words.len())] {
            word.store(0, Ordering::Relaxed);
        }
    }

    /// Sets exactly the first `bits` bits (the bitset must hold at least that many).
    pub fn set_all(&self, bits: usize) {
        for word in &self.words[..bits / 64] {
            word.store(u64::MAX, Ordering::Relaxed);
        }
        if !bits.is_multiple_of(64) {
            self.words[bits / 64].store((1 << (bits % 64)) - 1, Ordering::Relaxed);
        }
    }

    /// Overwrites the first `bits` bits (rounded up to whole words) with those of
    /// `other`, which must hold at least as many.
    pub fn copy_from(&self, other: &AtomicBitset, bits: usize) {
        let words = bits.div_ceil(64);
        for (word, source) in self.words[..words].iter().zip(&other.words[..words]) {
            word.store(source.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Clears every bit that is not set in `other`, over the words `other` holds. Not for
    /// use while bits are being set.
    pub fn intersect_with(&self, other: &AtomicBitset) {
        for (word, mask) in self.words.iter().zip(&other.words) {
            word.store(
                word.load(Ordering::Relaxed) & mask.load(Ordering::Relaxed),
                Ordering::Relaxed,
            );
        }
    }

    /// Overwrites the first `bits` bits with `bit(i)`, whole words at a time, in parallel.
    pub fn fill_with(&self, bits: usize, bit: impl Fn(usize) -> bool + Sync) {
        const WORDS_PER_TASK: usize = 64;
        self.words[..bits.div_ceil(64)]
            .par_chunks(WORDS_PER_TASK)
            .enumerate()
            .for_each(|(task, words)| {
                for (w, word) in words.iter().enumerate() {
                    let base = (task * WORDS_PER_TASK + w) * 64;
                    let value = (base..(base + 64).min(bits))
                        .fold(0u64, |value, i| value | u64::from(bit(i)) << (i - base));
                    word.store(value, Ordering::Relaxed);
                }
            });
    }

    /// Calls `f(i)` for every set bit `i` of the `word`-th 64-bit word, in increasing
    /// order.
    pub fn for_each_in_word(&self, word: usize, mut f: impl FnMut(usize)) {
        let mut w = self.word(word);
        while w != 0 {
            f(word * 64 + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }

    /// Number of set bits among the first `bits` bits.
    pub fn count(&self, bits: usize) -> usize {
        self.words[..bits.div_ceil(64).min(self.words.len())]
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Number of set bits in `[start, end)`; `start` must be a multiple of 64.
    pub(crate) fn count_range(&self, start: usize, end: usize) -> usize {
        debug_assert!(start.is_multiple_of(64));
        (start / 64..end.div_ceil(64).min(self.words.len()))
            .map(|w| {
                let below_end = match end - w * 64 {
                    64.. => u64::MAX,
                    bits => (1 << bits) - 1,
                };
                (self.word(w) & below_end).count_ones() as usize
            })
            .sum()
    }

    /// The `w`-th 64-bit word: bits `64 w .. 64 w + 64`, lowest first.
    #[inline]
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.words[w].load(Ordering::Relaxed)
    }

    /// Appends the indices of all set bits in `[start, end)` to `out`, in increasing
    /// order. `start` must be a multiple of 64.
    pub fn collect_range_into(&self, start: usize, end: usize, out: &mut Vec<NodeId>) {
        debug_assert!(start.is_multiple_of(64));
        let first = start / 64;
        let last = end.div_ceil(64).min(self.words.len());
        for word in first..last {
            self.for_each_in_word(word, |i| {
                if i < end {
                    out.push(i as NodeId);
                }
            });
        }
    }

    /// Heap bytes held by the bitset.
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<AtomicU64>()
    }
}

/// Per-worker reusable buffers of the parallel hot loops.
///
/// Threads are anonymous (the scheduler hands out index ranges, not identities), so a
/// worker leases one of these from [`HierarchyScratch::workers`] for the chunk it is on
/// and the lease parks it again when the chunk is done. `thread_local!` statics would pin
/// the buffers to OS threads for the *process* lifetime — wrong for a reentrant engine,
/// where every request would grow every thread's statics to its own high-water mark and
/// nothing would ever be released. Owned by the arena, the buffers are scoped to one
/// request, and co-tenant requests never see (or pay for) each other's.
#[derive(Default)]
pub(crate) struct WorkerScratch {
    /// Packed `(target << 32) | position` sort keys of the contraction neighbourhood
    /// sort (narrow-id fast path).
    pub(crate) sort_keys: Vec<u64>,
    /// `(target, position)` sort pairs — the wide-id fallback of the same sort.
    pub(crate) sort_pairs: Vec<(NodeId, u64)>,
    /// Copy of the packed edge-weight bytes backing the permutation gather of the
    /// neighbourhood sort.
    pub(crate) sort_wts: Vec<u8>,
    /// The rating table of LP clustering (capacity `bump_threshold`) and LP refinement
    /// (capacity from `(k, max_degree)`), handed out by [`Self::rating_table`].
    ratings: Option<FixedCapacityHashMap>,
    /// The neighbour ids an LP clustering visit decoded, kept so a move marks them
    /// without decoding the neighbourhood again (`bump_threshold` of them), handed out
    /// by [`Self::neighbor_ids`].
    neighbor_ids: Vec<NodeId>,
    /// Contraction phase 1 aggregation state: rating table plus the vertex/edge batch
    /// flushed into the shared coarse arrays.
    pub(crate) agg: Option<(FixedCapacityHashMap, Batch)>,
}

impl WorkerScratch {
    /// The worker's rating table, emptied; re-created only when `limit` differs from
    /// the one it was built with.
    pub(crate) fn rating_table(&mut self, limit: usize) -> &mut FixedCapacityHashMap {
        emptied_table(&mut self.ratings, limit)
    }

    /// The worker's neighbour-id buffer of `limit` ids.
    pub(crate) fn neighbor_ids(&mut self, limit: usize) -> &mut [NodeId] {
        if self.neighbor_ids.len() != limit {
            self.neighbor_ids = vec![0; limit];
        }
        &mut self.neighbor_ids
    }

    /// [`Self::rating_table`] and [`Self::neighbor_ids`] at once, for LP clustering.
    pub(crate) fn rating_table_and_neighbor_ids(
        &mut self,
        limit: usize,
    ) -> (&mut FixedCapacityHashMap, &mut [NodeId]) {
        self.neighbor_ids(limit);
        (
            emptied_table(&mut self.ratings, limit),
            &mut self.neighbor_ids,
        )
    }

    /// Heap bytes held by the worker's buffers.
    pub(crate) fn memory_bytes(&self) -> usize {
        let table = |t: &FixedCapacityHashMap| t.memory_bytes();
        self.sort_keys.capacity() * std::mem::size_of::<u64>()
            + self.sort_pairs.capacity() * std::mem::size_of::<(NodeId, u64)>()
            + self.sort_wts.capacity()
            + self.ratings.as_ref().map_or(0, table)
            + self.neighbor_ids.capacity() * std::mem::size_of::<NodeId>()
            + self
                .agg
                .as_ref()
                .map_or(0, |(t, batch)| table(t) + batch.memory_bytes())
    }
}

/// [`WorkerScratch::rating_table`] on the field alone, so a caller can borrow another
/// field beside it.
fn emptied_table(
    table: &mut Option<FixedCapacityHashMap>,
    limit: usize,
) -> &mut FixedCapacityHashMap {
    if table.as_ref().is_some_and(|t| t.limit() != limit) {
        *table = None;
    }
    let table = table.get_or_insert_with(|| FixedCapacityHashMap::new(limit));
    table.clear();
    table
}

/// A lending pool: the one way this crate hands a reusable buffer to whoever needs it
/// for a while — a request its arena ([`crate::engine::ScratchPool`]), a worker its
/// per-chunk buffers (the arena's `workers`), a bisection-tree task its workspace
/// ([`crate::initial::scratch`]), a thread of the KaMinPar baseline its O(n) rating map,
/// a gain query without a gain table its `k`-entry row.
///
/// [`checkout`](Self::checkout) pops a parked item or builds a fresh one; the
/// [`Lease`] parks it again when it drops, also on unwind. Items only ever grow, so a
/// parked item sized by one user serves the next allocation-free, and an item is built
/// only while none is parked, so the pool grows to the largest number of simultaneous
/// leases ([`high_water`](Self::high_water)) and no further — which is what the memory
/// behind it scales with: 8 sequential requests on one engine cost one arena, not eight.
/// Lock-held time is a single `Vec` push or pop.
pub struct Pool<T> {
    // Boxed so checkout/park under the lock move a pointer, not the item.
    #[allow(clippy::vec_box)]
    parked: Mutex<Vec<Box<T>>>,
    live: AtomicUsize,
    high_water: AtomicUsize,
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Self::filled([])
    }
}

impl<T> Pool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A pool that starts out with `items` parked.
    pub(crate) fn filled(items: impl IntoIterator<Item = T>) -> Self {
        Self {
            parked: Mutex::new(items.into_iter().map(Box::new).collect()),
            live: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
        }
    }

    /// Leases an item: the most recently parked one, or a fresh `T::default()` when
    /// none is parked.
    pub fn checkout(&self) -> Lease<'_, T>
    where
        T: Default,
    {
        let item = self.parked.lock().pop().unwrap_or_default();
        let live = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(live, Ordering::Relaxed);
        Lease {
            pool: self,
            item: Some(item),
        }
    }

    /// Maximum number of simultaneously leased items ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Number of items currently parked (idle).
    pub fn parked_count(&self) -> usize {
        self.parked.lock().len()
    }

    /// Sum of `measure` over the parked items.
    pub fn parked_sum(&self, measure: impl Fn(&T) -> usize) -> usize {
        self.parked.lock().iter().map(|item| measure(item)).sum()
    }
}

impl<T> fmt::Debug for Pool<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pool")
            .field("parked", &self.parked_count())
            .field("live", &self.live.load(Ordering::Relaxed))
            .field("high_water", &self.high_water())
            .finish()
    }
}

/// An item leased from a [`Pool`]; derefs to it and parks it again on drop.
pub struct Lease<'a, T> {
    pool: &'a Pool<T>,
    item: Option<Box<T>>,
}

impl<T> Deref for Lease<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.item.as_deref().unwrap_or_else(|| unreachable!())
    }
}

impl<T> DerefMut for Lease<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.item.as_deref_mut().unwrap_or_else(|| unreachable!())
    }
}

impl<T> Drop for Lease<'_, T> {
    fn drop(&mut self) {
        if let Some(item) = self.item.take() {
            self.pool.live.fetch_sub(1, Ordering::Relaxed);
            self.pool.parked.lock().push(item);
        }
    }
}

/// What one partitioning run keeps between its phases (see the module docs).
#[derive(Debug, Default)]
pub struct HierarchyScratch {
    /// Observability sink of the current run (noop unless the run records). Threaded
    /// through the scratch arena so the phase implementations can open round-level
    /// spans and bump counters without widening every signature.
    pub(crate) obs: obs::ObsHandle,
    /// Pool of per-worker buffers backing the parallel hot loops (see
    /// [`WorkerScratch`]). Uncharged: like the thread-locals it replaces, the worker
    /// buffers are transient hot-loop state whose committed size the phases charge
    /// (estimated) per level.
    pub(crate) workers: Pool<WorkerScratch>,
}

impl HierarchyScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes a parked arena holds: its parked worker buffers.
    pub(crate) fn parked_bytes(&self) -> usize {
        self.workers.parked_sum(WorkerScratch::memory_bytes)
    }
}

/// A raw mutable slice shareable across the workers of one parallel loop.
///
/// # Safety contract
/// Callers must guarantee that concurrent writes target disjoint indices (e.g. positions
/// handed out by an atomic cursor, or per-vertex CSR segments, which never overlap).
pub(crate) struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Send for SharedSlice<'_, T> {}
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    pub fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Writes `value` to index `i`.
    ///
    /// # Safety
    /// `i` must be in bounds and not written concurrently by another worker.
    #[inline]
    pub unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        unsafe { self.ptr.add(i).write(value) };
    }

    /// Reborrows the subrange `[start, end)` as a mutable slice.
    ///
    /// # Safety
    /// The range must be in bounds and disjoint from every range accessed concurrently
    /// (which also justifies handing out `&mut` through `&self`: disjointness makes the
    /// aliasing impossible that the lint guards against).
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, start: usize, end: usize) -> &mut [T] {
        debug_assert!(start <= end && end <= self.len);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), end - start) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_set_get_collect() {
        let mut bs = AtomicBitset::new();
        bs.ensure_len(200);
        bs.set(0);
        bs.set(63);
        bs.set(64);
        bs.set(199);
        assert!(bs.get(63) && bs.get(64) && !bs.get(65));
        assert_eq!(bs.count(200), 4);
        bs.set(64);
        assert_eq!(bs.count(200), 4, "setting a set bit changes nothing");
        let mut out = Vec::new();
        bs.collect_range_into(0, 200, &mut out);
        assert_eq!(out, vec![0, 63, 64, 199]);
        bs.clear_range(200);
        assert_eq!(bs.count(200), 0);
    }

    #[test]
    fn bitset_count_range_counts_exactly_the_range() {
        let mut bs = AtomicBitset::new();
        bs.ensure_len(300);
        for i in [0, 63, 64, 127, 128, 255, 256, 299] {
            bs.set(i);
        }
        assert_eq!(bs.count_range(0, 300), 8);
        assert_eq!(bs.count_range(0, 0), 0);
        assert_eq!(bs.count_range(0, 63), 1);
        assert_eq!(bs.count_range(0, 64), 2);
        assert_eq!(bs.count_range(64, 128), 2);
        assert_eq!(bs.count_range(128, 256), 2);
        assert_eq!(bs.count_range(256, 299), 1);
        assert_eq!(
            bs.count_range(256, 512),
            2,
            "the end is clipped to the words held"
        );
    }

    #[test]
    fn bitset_collect_respects_the_range() {
        let mut bs = AtomicBitset::new();
        bs.ensure_len(256);
        for i in [10, 100, 130, 255] {
            bs.set(i);
        }
        let mut out = Vec::new();
        bs.collect_range_into(0, 64, &mut out);
        assert_eq!(out, vec![10]);
        out.clear();
        bs.collect_range_into(64, 131, &mut out);
        assert_eq!(out, vec![100, 130]);
    }

    #[test]
    fn bitset_intersection_clears_what_the_other_lacks() {
        let (mut a, mut b) = (AtomicBitset::new(), AtomicBitset::new());
        a.ensure_len(256);
        b.ensure_len(128);
        for i in [3, 64, 100, 127, 200] {
            a.set(i);
        }
        for i in [3, 100, 101] {
            b.set(i);
        }
        a.intersect_with(&b);
        let mut out = Vec::new();
        a.collect_range_into(0, 256, &mut out);
        // Bit 200 lies beyond the words `b` holds.
        assert_eq!(out, vec![3, 100, 200]);
    }

    #[test]
    fn bitset_set_all_sets_exactly_the_prefix() {
        let mut bs = AtomicBitset::new();
        bs.ensure_len(256);
        for bits in [0, 1, 64, 100, 256] {
            bs.clear_range(256);
            bs.set_all(bits);
            assert_eq!(bs.count(256), bits);
            assert!(bits == 0 || bs.get(bits - 1));
            assert!(bits == 256 || !bs.get(bits));
        }
    }

    #[test]
    fn a_lease_parks_on_drop_and_on_unwind_and_the_item_keeps_its_capacity() {
        let pool: Pool<WorkerScratch> = Pool::new();
        {
            let mut a = pool.checkout();
            a.sort_keys.reserve(128);
            let _b = pool.checkout();
            assert_eq!(pool.parked_count(), 0, "leases are live, nothing parked");
        }
        assert_eq!(pool.parked_count(), 2, "dropped leases park their buffers");
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _c = pool.checkout();
            let _d = pool.checkout();
            assert_eq!(pool.parked_count(), 0);
            panic!("a task fails while holding two leases");
        }));
        assert!(unwound.is_err());
        assert_eq!(pool.parked_count(), 2, "an unwinding lease parks as well");
        assert_eq!(pool.high_water(), 2);
        assert!(
            pool.parked_sum(WorkerScratch::memory_bytes) >= 128 * 8,
            "a reused buffer keeps its grown capacity"
        );
    }

    #[test]
    fn high_water_is_the_largest_number_of_simultaneous_leases() {
        let pool: Pool<Vec<u8>> = Pool::filled([vec![1], vec![2]]);
        for _ in 0..3 {
            drop(pool.checkout());
        }
        assert_eq!(pool.high_water(), 1, "sequential leases never overlap");
        assert_eq!(pool.parked_count(), 2, "and build nothing new");
        // All four threads hold a lease at the barrier; none is released before.
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let lease = pool.checkout();
                    barrier.wait();
                    drop(lease);
                });
            }
        });
        assert_eq!(pool.high_water(), 4);
        assert_eq!(pool.parked_count(), 4, "two were parked, two were built");
        drop(pool.checkout());
        assert_eq!(pool.high_water(), 4, "the mark never falls");
    }

    #[test]
    fn shared_slice_writes_land() {
        let mut data = vec![0u32; 8];
        {
            let shared = SharedSlice::new(&mut data);
            unsafe {
                shared.write(3, 7);
                let sub = shared.slice_mut(5, 8);
                sub[0] = 9;
            }
        }
        assert_eq!(data[3], 7);
        assert_eq!(data[5], 9);
    }
}
