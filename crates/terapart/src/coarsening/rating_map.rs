//! Rating maps: the data structures that aggregate edge weights per cluster (paper §IV-A1).
//!
//! Label propagation needs, for every visited vertex, the total edge weight towards each
//! neighbouring cluster. Three implementations with different memory/speed trade-offs are
//! provided:
//!
//! * [`FixedCapacityHashMap`] — a small open-addressing table without dynamic growth.
//!   Insertion reports when the number of *distinct* keys reaches the bump threshold, at
//!   which point the caller defers the vertex to the second phase. Used by two-phase
//!   label propagation and two-phase contraction.
//! * [`SparseRatingMap`] — the classic `O(n)` sparse array plus a list of touched
//!   entries for `O(touched)` reset. One instance per thread reproduces the original
//!   KaMinPar memory behaviour (`O(n·p)`).
//! * [`AtomicSparseArray`] — a single shared `O(n)` array with atomic fetch-add updates
//!   and per-thread touched lists, used by the second phase where parallelism is over
//!   the edges of one vertex.

use std::sync::atomic::{AtomicU64, Ordering};

use graph::{EdgeWeight, NodeId};

/// A fixed-capacity open-addressing hash map from cluster IDs to ratings.
///
/// The capacity is fixed at construction; the map never grows. [`FixedCapacityHashMap::add`]
/// returns `false` once the number of distinct keys would exceed the configured limit,
/// signalling that the vertex must be bumped to the second phase.
///
/// Occupied slots are tracked in a touched list so that [`FixedCapacityHashMap::clear`]
/// and [`FixedCapacityHashMap::iter`] cost `O(distinct keys)` instead of `O(capacity)`.
/// The map is cleared once per visited vertex (label propagation) or cluster
/// (contraction), so with the paper's large bump thresholds the full-capacity reset of
/// the original implementation dominated the entire hot loop.
#[derive(Debug, Clone)]
pub struct FixedCapacityHashMap {
    keys: Vec<NodeId>,
    values: Vec<EdgeWeight>,
    /// Slots currently occupied, in insertion order (`len()` == `touched.len()`).
    touched: Vec<u32>,
    /// Maximum number of distinct keys before `add` reports an overflow.
    limit: usize,
    mask: usize,
}

/// Sentinel marking an empty slot.
const EMPTY_KEY: NodeId = NodeId::MAX;

impl FixedCapacityHashMap {
    /// Creates a map that accepts up to `limit` distinct keys. The underlying table is
    /// sized to twice the limit (rounded to a power of two) to keep probe sequences short.
    pub fn new(limit: usize) -> Self {
        let capacity = (2 * limit.max(1)).next_power_of_two();
        Self {
            keys: vec![EMPTY_KEY; capacity],
            values: vec![0; capacity],
            touched: Vec::with_capacity(limit.max(1)),
            limit: limit.max(1),
            mask: capacity - 1,
        }
    }

    /// Number of distinct keys stored.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// The distinct-key limit this map was constructed with.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Returns `true` if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Number of bytes of heap memory the table occupies (for memory accounting).
    pub fn memory_bytes(&self) -> usize {
        self.keys.len() * std::mem::size_of::<NodeId>()
            + self.values.len() * std::mem::size_of::<EdgeWeight>()
            + self.touched.capacity() * std::mem::size_of::<u32>()
    }

    #[inline]
    fn slot_of(&self, key: NodeId) -> usize {
        // Multiplicative hashing (Fibonacci constant); good enough for cluster IDs.
        (graph::ids::widen(key).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask
    }

    /// Adds `weight` to the rating of `key`. Returns `false` if the key is new and the
    /// distinct-key limit has already been reached (the value is *not* inserted).
    pub fn add(&mut self, key: NodeId, weight: EdgeWeight) -> bool {
        let mut slot = self.slot_of(key);
        loop {
            if self.keys[slot] == key {
                self.values[slot] += weight;
                return true;
            }
            if self.keys[slot] == EMPTY_KEY {
                if self.touched.len() >= self.limit {
                    return false;
                }
                self.keys[slot] = key;
                self.values[slot] = weight;
                self.touched.push(slot as u32);
                return true;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Returns the rating of `key`, or 0 if absent.
    pub fn get(&self, key: NodeId) -> EdgeWeight {
        let mut slot = self.slot_of(key);
        loop {
            if self.keys[slot] == key {
                return self.values[slot];
            }
            if self.keys[slot] == EMPTY_KEY {
                return 0;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Iterates over all `(key, rating)` entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_ {
        self.touched
            .iter()
            .map(|&slot| (self.keys[slot as usize], self.values[slot as usize]))
    }

    /// Removes all entries in `O(distinct keys)`, keeping the allocated capacity.
    pub fn clear(&mut self) {
        for &slot in &self.touched {
            self.keys[slot as usize] = EMPTY_KEY;
            self.values[slot as usize] = 0;
        }
        self.touched.clear();
    }
}

/// The classic sparse-array rating map: a dense array indexed by cluster ID plus the list
/// of touched entries used for resetting.
#[derive(Debug, Clone, Default)]
pub struct SparseRatingMap {
    ratings: Vec<EdgeWeight>,
    touched: Vec<NodeId>,
}

impl SparseRatingMap {
    /// Creates a rating map for cluster IDs in `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            ratings: vec![0; n],
            touched: Vec::new(),
        }
    }

    /// Number of bytes of heap memory the map occupies (for memory accounting).
    pub fn memory_bytes(&self) -> usize {
        self.ratings.len() * std::mem::size_of::<EdgeWeight>()
            + self.touched.capacity() * std::mem::size_of::<NodeId>()
    }

    /// Adds `weight` to the rating of `key`.
    pub fn add(&mut self, key: NodeId, weight: EdgeWeight) {
        if self.ratings[key as usize] == 0 {
            self.touched.push(key);
        }
        self.ratings[key as usize] += weight;
    }

    /// Returns the rating of `key`.
    pub fn get(&self, key: NodeId) -> EdgeWeight {
        self.ratings[key as usize]
    }

    /// Number of distinct touched keys.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// Returns `true` if nothing has been touched since the last reset.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Iterates over all touched `(key, rating)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_ {
        self.touched.iter().map(|&k| (k, self.ratings[k as usize]))
    }

    /// Resets all touched entries in `O(touched)`.
    pub fn clear(&mut self) {
        for &k in &self.touched {
            self.ratings[k as usize] = 0;
        }
        self.touched.clear();
    }
}

/// A single shared sparse array with atomic accumulation, used by the second phase of
/// two-phase label propagation (paper Algorithm 2, lines 8–22).
///
/// Threads add contributions with [`AtomicSparseArray::add`]; the return value tells the
/// caller whether it was the thread that raised the entry from zero, in which case it must
/// record the key in its thread-local touched list so the union of the lists contains each
/// touched key exactly once.
#[derive(Debug)]
pub struct AtomicSparseArray {
    ratings: Vec<AtomicU64>,
}

impl AtomicSparseArray {
    /// Creates a zero-initialised array for cluster IDs in `0..n`.
    pub fn new(n: usize) -> Self {
        let mut ratings = Vec::with_capacity(n);
        ratings.resize_with(n, || AtomicU64::new(0));
        Self { ratings }
    }

    /// Number of bytes of heap memory the array occupies.
    pub fn memory_bytes(&self) -> usize {
        self.ratings.len() * std::mem::size_of::<AtomicU64>()
    }

    /// Atomically adds `weight` to the rating of `key`. Returns `true` if this call
    /// raised the rating from zero (i.e. the caller is responsible for tracking `key`).
    pub fn add(&self, key: NodeId, weight: EdgeWeight) -> bool {
        let prev = self.ratings[key as usize].fetch_add(weight, Ordering::Relaxed);
        prev == 0
    }

    /// Reads the rating of `key`.
    pub fn get(&self, key: NodeId) -> EdgeWeight {
        self.ratings[key as usize].load(Ordering::Relaxed)
    }

    /// Resets the given keys to zero (called with the union of the touched lists).
    pub fn reset(&self, keys: &[NodeId]) {
        for &k in keys {
            self.ratings[k as usize].store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_capacity_accumulates_and_overflows() {
        let mut map = FixedCapacityHashMap::new(3);
        assert!(map.add(10, 5));
        assert!(map.add(20, 1));
        assert!(map.add(10, 2));
        assert_eq!(map.get(10), 7);
        assert_eq!(map.get(20), 1);
        assert_eq!(map.len(), 2);
        assert!(map.add(30, 1));
        // A fourth distinct key exceeds the limit.
        assert!(!map.add(40, 1));
        // Existing keys can still be updated after the overflow signal.
        assert!(map.add(30, 2));
        assert_eq!(map.get(30), 3);
        assert_eq!(map.get(40), 0);
    }

    #[test]
    fn fixed_capacity_clear_empties_the_map() {
        let mut map = FixedCapacityHashMap::new(8);
        map.add(1, 5);
        map.add(2, 9);
        map.add(3, 9);
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.get(2), 0);
        assert_eq!(map.iter().count(), 0);
        assert!(map.memory_bytes() > 0);
    }

    #[test]
    fn fixed_capacity_handles_colliding_keys() {
        let mut map = FixedCapacityHashMap::new(64);
        for i in 0..64 as NodeId {
            assert!(map.add(i * 1024, 1));
        }
        assert_eq!(map.len(), 64);
        for i in 0..64 as NodeId {
            assert_eq!(map.get(i * 1024), 1);
        }
    }

    #[test]
    fn sparse_map_accumulates_and_resets() {
        let mut map = SparseRatingMap::new(100);
        map.add(5, 3);
        map.add(7, 1);
        map.add(5, 4);
        assert_eq!(map.get(5), 7);
        assert_eq!(map.len(), 2);
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.get(5), 0);
        assert!(map.memory_bytes() >= 800);
    }

    #[test]
    fn sparse_and_fixed_maps_agree() {
        let updates: [(NodeId, u64); 5] = [(3, 2), (9, 1), (3, 5), (0, 7), (9, 1)];
        let mut sparse = SparseRatingMap::new(16);
        let mut fixed = FixedCapacityHashMap::new(16);
        for &(k, w) in &updates {
            sparse.add(k, w);
            fixed.add(k, w);
        }
        let mut a: Vec<_> = sparse.iter().collect();
        let mut b: Vec<_> = fixed.iter().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn atomic_array_tracks_first_touch() {
        let array = AtomicSparseArray::new(10);
        assert!(array.add(3, 5));
        assert!(!array.add(3, 2));
        assert!(array.add(7, 1));
        assert_eq!(array.get(3), 7);
        assert_eq!(array.get(7), 1);
        array.reset(&[3, 7]);
        assert_eq!(array.get(3), 0);
        assert_eq!(array.get(7), 0);
        assert!(array.memory_bytes() >= 80);
    }

    #[test]
    fn atomic_array_concurrent_accumulation() {
        use std::sync::Arc;
        let array = Arc::new(AtomicSparseArray::new(4));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let array = Arc::clone(&array);
            handles.push(std::thread::spawn(move || {
                let mut first_touches = 0;
                for _ in 0..1000 {
                    if array.add(2, 1) {
                        first_touches += 1;
                    }
                }
                first_touches
            }));
        }
        let total_first: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(
            total_first, 1,
            "exactly one thread observes the zero-to-nonzero transition"
        );
        assert_eq!(array.get(2), 4000);
    }
}
