//! Reserve-vs-commit vector: a portable model of virtual-memory overcommitment.
//!
//! TeraPart's single-pass graph compression (paper §III-B) and one-pass contraction
//! (§IV-B) both need an output array whose final size is unknown until the data has been
//! produced. The paper solves this by *overcommitting*: it reserves an upper bound of
//! virtual address space and relies on the OS to back only the touched pages with
//! physical memory, so peak memory is proportional to the bytes actually written.
//!
//! [`ReservedVec`] reproduces that accounting model portably. It allocates the upper
//! bound up front (so pushes never reallocate and never invalidate concurrently-computed
//! offsets — the property the algorithms rely on), but charges the memory counters only
//! for *committed* bytes, in page-sized granules, exactly as the OS would back pages on
//! first touch.

use crate::counter::{global, MemoryCounter};

/// Size of one accounting granule ("page") in bytes.
pub const PAGE_SIZE: usize = 4096;

/// A fixed-reservation, grow-only vector with page-granular commit accounting.
///
/// The reservation is immutable after construction: `push`/`extend` panic if the
/// reservation would be exceeded, mirroring the paper's requirement that the reserved
/// upper bound is a true upper bound (2m for the coarse edge array, the worst-case
/// compressed size for the compressed edge array).
#[derive(Debug)]
pub struct ReservedVec<T> {
    data: Vec<T>,
    reserved: usize,
    committed_bytes: usize,
    counter: &'static MemoryCounter,
}

impl<T> ReservedVec<T> {
    /// Reserves space for `reserved` elements without charging them to the memory
    /// counters. Only committed (written) elements are charged, rounded up to pages.
    pub fn with_reservation(reserved: usize) -> Self {
        Self {
            data: Vec::with_capacity(reserved),
            reserved,
            committed_bytes: 0,
            counter: global(),
        }
    }

    /// Number of elements the reservation can hold.
    pub fn reserved(&self) -> usize {
        self.reserved
    }

    /// Number of elements currently committed (written).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if no elements have been committed yet.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes charged to the memory counter for this vector (committed pages).
    pub fn committed_bytes(&self) -> usize {
        self.committed_bytes
    }

    /// Bytes that would be charged if the full reservation were committed.
    pub fn reserved_bytes(&self) -> usize {
        self.reserved * std::mem::size_of::<T>()
    }

    /// Appends a single element. Panics if the reservation is exhausted.
    pub fn push(&mut self, value: T) {
        assert!(
            self.data.len() < self.reserved,
            "ReservedVec overflow: reservation of {} elements exhausted",
            self.reserved
        );
        self.data.push(value);
        self.recommit();
    }

    /// Appends all elements from `values`. Panics if the reservation is exceeded.
    pub fn extend_from_slice(&mut self, values: &[T])
    where
        T: Clone,
    {
        assert!(
            self.data.len() + values.len() <= self.reserved,
            "ReservedVec overflow: {} + {} > reservation {}",
            self.data.len(),
            values.len(),
            self.reserved
        );
        self.data.extend_from_slice(values);
        self.recommit();
    }

    /// Returns the committed elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Shrinks the underlying allocation to the committed length and returns the plain
    /// `Vec`. The committed bytes stay charged to the regular allocator accounting from
    /// here on (the scope charge is released).
    pub fn into_vec(mut self) -> Vec<T> {
        let mut data = std::mem::take(&mut self.data);
        data.shrink_to_fit();
        data
    }

    fn recommit(&mut self) {
        let used = self.data.len() * std::mem::size_of::<T>();
        let committed = used.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        if committed > self.committed_bytes {
            self.counter.add(committed - self.committed_bytes);
            self.committed_bytes = committed;
        }
    }
}

impl<T> Drop for ReservedVec<T> {
    fn drop(&mut self) {
        self.counter.sub(self.committed_bytes);
    }
}

impl<T> std::ops::Index<usize> for ReservedVec<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        &self.data[index]
    }
}

impl<T> std::ops::IndexMut<usize> for ReservedVec<T> {
    fn index_mut(&mut self, index: usize) -> &mut T {
        &mut self.data[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_bytes_grow_with_pages() {
        let _global = crate::lock_global();
        let mut v: ReservedVec<u64> = ReservedVec::with_reservation(10_000);
        assert_eq!(v.committed_bytes(), 0);
        v.push(1);
        assert_eq!(v.committed_bytes(), PAGE_SIZE);
        // 512 u64 = 4096 bytes fill exactly one page.
        for i in 1..512u64 {
            v.push(i);
        }
        assert_eq!(v.committed_bytes(), PAGE_SIZE);
        v.push(512);
        assert_eq!(v.committed_bytes(), 2 * PAGE_SIZE);
        assert_eq!(v.len(), 513);
        assert!(v.reserved_bytes() >= 80_000);
    }

    #[test]
    fn extend_and_index() {
        let _global = crate::lock_global();
        let mut v: ReservedVec<u32> = ReservedVec::with_reservation(100);
        v.extend_from_slice(&[1, 2, 3]);
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        assert_eq!(v[0], 1);
        v[0] = 7;
        assert_eq!(v.as_slice()[0], 7);
        assert!(!v.is_empty());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn push_past_reservation_panics() {
        let _global = crate::lock_global();
        let mut v: ReservedVec<u8> = ReservedVec::with_reservation(2);
        v.push(1);
        v.push(2);
        v.push(3);
    }

    #[test]
    fn into_vec_shrinks() {
        let _global = crate::lock_global();
        let mut v: ReservedVec<u16> = ReservedVec::with_reservation(1_000_000);
        v.extend_from_slice(&[5, 6, 7]);
        let plain = v.into_vec();
        assert_eq!(plain, vec![5, 6, 7]);
        assert!(plain.capacity() < 1_000_000);
    }

    #[test]
    fn drop_releases_committed_charge() {
        let _global = crate::lock_global();
        let before = global().current();
        {
            let mut v: ReservedVec<u64> = ReservedVec::with_reservation(100_000);
            for i in 0..50_000u64 {
                v.push(i);
            }
            assert!(global().current() >= before + 50_000 * 8 / PAGE_SIZE * PAGE_SIZE);
        }
        assert!(global().current() <= before + PAGE_SIZE);
    }

    #[test]
    fn reservation_never_reallocates() {
        let _global = crate::lock_global();
        let mut v: ReservedVec<u32> = ReservedVec::with_reservation(10_000);
        v.push(0);
        let ptr_before = v.as_slice().as_ptr();
        for i in 1..10_000u32 {
            v.push(i);
        }
        assert_eq!(ptr_before, v.as_slice().as_ptr());
    }
}
