//! The one move queue both FM searches pop from: the 2-way FM and greedy growing of
//! initial partitioning ([`crate::initial::bipartition`]) and the k-way FM of refinement
//! ([`crate::refinement::kway_fm`]).

use graph::NodeId;

/// Addressable binary max-heap over the vertices `0..n`: every vertex is in it at most
/// once and its key can be changed in place, so the heap never exceeds `n` entries.
/// Entries are ordered by `(key, vertex id)` — a total order, so the pop sequence
/// depends on the operations alone, never on how ties happen to sit in the array.
#[derive(Debug, Default)]
pub(crate) struct AddressableMaxHeap {
    entries: Vec<(i64, NodeId)>,
    /// Index of each vertex in `entries`, or `ABSENT`.
    position: Vec<NodeId>,
}

const ABSENT: NodeId = NodeId::MAX;

impl AddressableMaxHeap {
    /// Empties the heap and sizes it for the vertices `0..n`; costs the entries left.
    pub(crate) fn reset(&mut self, n: usize) {
        for &(_, v) in &self.entries {
            self.position[v as usize] = ABSENT;
        }
        self.entries.clear();
        self.position.resize(n, ABSENT);
    }

    /// Replaces the content by `items` (distinct vertices) in `O(len)`.
    pub(crate) fn heapify(&mut self, n: usize, items: impl Iterator<Item = (i64, NodeId)>) {
        self.reset(n);
        self.entries.extend(items);
        for (i, &(_, v)) in self.entries.iter().enumerate() {
            self.position[v as usize] = i as NodeId;
        }
        for i in (0..self.entries.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    /// Number of vertices in the heap.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The key of `v`, if it is in the heap.
    pub(crate) fn key(&self, v: NodeId) -> Option<i64> {
        let i = self.position[v as usize];
        (i != ABSENT).then(|| self.entries[i as usize].0)
    }

    /// Inserts `v` with `key`, or moves it to `key` if it is already in the heap.
    pub(crate) fn push_or_update(&mut self, v: NodeId, key: i64) {
        let i = self.position[v as usize];
        if i == ABSENT {
            self.entries.push((key, v));
            self.sift_up(self.entries.len() - 1);
        } else {
            let raised = key > self.entries[i as usize].0;
            self.entries[i as usize].0 = key;
            self.sift(i as usize, raised);
        }
    }

    /// Takes `v` out of the heap, if it is in it: the last entry fills its place.
    pub(crate) fn remove(&mut self, v: NodeId) {
        let i = self.position[v as usize];
        if i == ABSENT {
            return;
        }
        self.position[v as usize] = ABSENT;
        let last = self
            .entries
            .pop()
            .expect("a vertex with a position has an entry");
        if last.1 != v {
            let raised = last > self.entries[i as usize];
            self.entries[i as usize] = last;
            self.sift(i as usize, raised);
        }
    }

    /// Removes and returns the largest `(key, vertex)`.
    pub(crate) fn pop(&mut self) -> Option<(i64, NodeId)> {
        let last = self.entries.pop()?;
        let Some(&top) = self.entries.first() else {
            self.position[last.1 as usize] = ABSENT;
            return Some(last);
        };
        self.position[top.1 as usize] = ABSENT;
        self.entries[0] = last;
        self.sift_down(0);
        Some(top)
    }

    /// Puts the entry at `i` back in order after its key was `raised` or lowered.
    fn sift(&mut self, i: usize, raised: bool) {
        if raised {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    /// Moves the entry at `i` towards the root until its parent is larger.
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.entries[i];
        while i > 0 && self.entries[(i - 1) / 2] < entry {
            self.place(i, self.entries[(i - 1) / 2]);
            i = (i - 1) / 2;
        }
        self.place(i, entry);
    }

    /// Moves the entry at `i` towards the leaves until both children are smaller.
    fn sift_down(&mut self, mut i: usize) {
        let entry = self.entries[i];
        loop {
            let mut child = 2 * i + 1;
            if child + 1 < self.entries.len() && self.entries[child + 1] > self.entries[child] {
                child += 1;
            }
            if child >= self.entries.len() || self.entries[child] < entry {
                break;
            }
            self.place(i, self.entries[child]);
            i = child;
        }
        self.place(i, entry);
    }

    fn place(&mut self, i: usize, entry: (i64, NodeId)) {
        self.entries[i] = entry;
        self.position[entry.1 as usize] = i as NodeId;
    }

    /// Heap bytes held by the two arrays.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(i64, NodeId)>()
            + self.position.capacity() * std::mem::size_of::<NodeId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_moves_keys_up_and_down_in_place() {
        let mut heap = AddressableMaxHeap::default();
        heap.reset(8);
        for (v, key) in [(0, 5), (1, 9), (2, 7), (3, 1)] {
            heap.push_or_update(v, key);
        }
        heap.push_or_update(3, 20); // up, past everything
        heap.push_or_update(1, -4); // down, below everything
        assert_eq!(heap.key(3), Some(20));
        assert_eq!(heap.key(5), None);
        let popped: Vec<_> = std::iter::from_fn(|| heap.pop()).collect();
        assert_eq!(popped, [(20, 3), (7, 2), (5, 0), (-4, 1)]);
        assert_eq!(heap.key(3), None, "a popped vertex is gone");
        assert!(heap.memory_bytes() >= 8 * std::mem::size_of::<NodeId>());
    }

    #[test]
    fn heap_pops_equal_keys_by_vertex_id() {
        let mut heap = AddressableMaxHeap::default();
        for order in [[4, 1, 3, 0, 2], [0, 1, 2, 3, 4], [2, 4, 0, 3, 1]] {
            heap.heapify(5, order.iter().map(|&v| (7, v)));
            let bulk: Vec<_> = std::iter::from_fn(|| heap.pop()).collect();
            for &v in &order {
                heap.push_or_update(v, 7);
            }
            let pushed: Vec<_> = std::iter::from_fn(|| heap.pop()).collect();
            assert_eq!(bulk, [(7, 4), (7, 3), (7, 2), (7, 1), (7, 0)]);
            assert_eq!(pushed, bulk);
        }
    }

    #[test]
    fn heap_agrees_with_a_sorted_vec_model() {
        use rand::prelude::*;
        let n = 50;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        let mut heap = AddressableMaxHeap::default();
        heap.reset(n);
        let mut model: Vec<(i64, NodeId)> = Vec::new(); // ascending
        for step in 0..3_000 {
            match rng.gen_range(0..12u32) {
                0..=5 => {
                    let (v, key) = (rng.gen_range(0..n as NodeId), rng.gen_range(-8..8i64));
                    heap.push_or_update(v, key);
                    model.retain(|&(_, other)| other != v);
                    model.push((key, v));
                    model.sort_unstable();
                }
                6..=8 => assert_eq!(heap.pop(), model.pop(), "step {step}"),
                // Present or not: removing an absent vertex changes nothing.
                9..=10 => {
                    let v = rng.gen_range(0..n as NodeId);
                    heap.remove(v);
                    model.retain(|&(_, other)| other != v);
                }
                _ if step % 7 == 0 => {
                    model.truncate(rng.gen_range(0..n));
                    heap.heapify(n, model.iter().copied());
                }
                _ => {}
            }
            assert_eq!(heap.len(), model.len(), "step {step}");
            let v = rng.gen_range(0..n as NodeId);
            let expected = model.iter().find(|&&(_, other)| other == v);
            assert_eq!(heap.key(v), expected.map(|&(key, _)| key), "step {step}");
        }
        // What is left comes out in model order: `remove` kept the heap property.
        model.reverse();
        assert_eq!(std::iter::from_fn(|| heap.pop()).collect::<Vec<_>>(), model);
    }
}
