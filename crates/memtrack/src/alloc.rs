//! A tracking global allocator.
//!
//! Wraps any [`GlobalAlloc`] (usually [`std::alloc::System`]) and charges every
//! allocation to the process-global [`MemoryCounter`](crate::counter::MemoryCounter).
//! Binaries that want RSS-like peak measurements install it as:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: memtrack::TrackingAllocator = memtrack::TrackingAllocator::system();
//! ```
//!
//! The overhead is two relaxed atomic operations per allocation, which is negligible next
//! to the allocator itself. Library code never depends on the allocator being installed:
//! the partitioner additionally performs data-structure-level accounting through
//! [`MemoryScope`](crate::counter::MemoryScope) and [`ReservedVec`](crate::reserve::ReservedVec),
//! so peak-memory experiments work in both setups.

use std::alloc::{GlobalAlloc, Layout, System};

use crate::counter::global;

/// A global allocator wrapper that records live heap bytes in the global counter.
pub struct TrackingAllocator<A = System> {
    inner: A,
}

impl TrackingAllocator<System> {
    /// Creates a tracking allocator backed by the system allocator.
    pub const fn system() -> Self {
        Self { inner: System }
    }
}

// SAFETY: all allocation calls are forwarded verbatim to the inner allocator; the only
// extra work is atomic bookkeeping which cannot violate the GlobalAlloc contract.
unsafe impl<A: GlobalAlloc> GlobalAlloc for TrackingAllocator<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = self.inner.alloc(layout);
        if !ptr.is_null() {
            global().add(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.inner.dealloc(ptr, layout);
        global().sub(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = self.inner.alloc_zeroed(layout);
        if !ptr.is_null() {
            global().add(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = self.inner.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                global().add(new_size - layout.size());
            } else {
                global().sub(layout.size() - new_size);
            }
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout};

    // The tests exercise the allocator directly (not installed globally) so that the
    // accounting logic is verified without interfering with the test harness allocator.
    #[test]
    fn alloc_and_dealloc_are_balanced() {
        let _global = crate::lock_global();
        let alloc = TrackingAllocator::system();
        let layout = Layout::from_size_align(4096, 8).unwrap();
        let before = global().current();
        unsafe {
            let ptr = alloc.alloc(layout);
            assert!(!ptr.is_null());
            assert!(global().current() >= before + 4096);
            alloc.dealloc(ptr, layout);
        }
        // Other threads may allocate concurrently; we only check that our own 4096 bytes
        // were released again.
        assert!(global().current() <= before + 4096);
    }

    #[test]
    fn alloc_zeroed_counts() {
        let _global = crate::lock_global();
        let alloc = TrackingAllocator::system();
        let layout = Layout::from_size_align(1024, 8).unwrap();
        let before = global().peak();
        unsafe {
            let ptr = alloc.alloc_zeroed(layout);
            assert!(!ptr.is_null());
            assert!(std::slice::from_raw_parts(ptr, 1024)
                .iter()
                .all(|&b| b == 0));
            alloc.dealloc(ptr, layout);
        }
        assert!(global().peak() >= before);
    }

    #[test]
    fn realloc_adjusts_charge() {
        let _global = crate::lock_global();
        let alloc = TrackingAllocator::system();
        let layout = Layout::from_size_align(100, 8).unwrap();
        unsafe {
            let ptr = alloc.alloc(layout);
            assert!(!ptr.is_null());
            let grown = alloc.realloc(ptr, layout, 400);
            assert!(!grown.is_null());
            let new_layout = Layout::from_size_align(400, 8).unwrap();
            alloc.dealloc(grown, new_layout);
        }
    }
}
