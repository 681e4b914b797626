//! Current/peak memory counters with relaxed atomic updates.
//!
//! A [`MemoryCounter`] tracks a monotone peak over a current value that can grow and
//! shrink. The process-global counter ([`global`]) is fed either by the
//! [`TrackingAllocator`](crate::alloc::TrackingAllocator) (if installed as the global
//! allocator) or by explicit data-structure accounting through [`MemoryScope`].

use std::sync::atomic::{AtomicUsize, Ordering};

/// A thread-safe current/peak byte counter.
///
/// `add`/`sub` use relaxed atomics; the peak is maintained with a compare-exchange loop.
/// The counter saturates at zero on underflow instead of wrapping, so imbalanced
/// accounting (e.g. freeing bytes that were charged to a different counter) cannot
/// poison later measurements.
#[derive(Debug, Default)]
pub struct MemoryCounter {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl MemoryCounter {
    /// Creates a counter with zero current and peak bytes.
    pub const fn new() -> Self {
        Self {
            current: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Charges `bytes` to the counter and updates the peak if necessary.
    pub fn add(&self, bytes: usize) {
        if bytes == 0 {
            return;
        }
        let new = self.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.update_peak(new);
    }

    /// Releases `bytes` from the counter, saturating at zero.
    pub fn sub(&self, bytes: usize) {
        if bytes == 0 {
            return;
        }
        let mut cur = self.current.load(Ordering::Relaxed);
        loop {
            let new = cur.saturating_sub(bytes);
            match self
                .current
                .compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Returns the number of currently charged bytes.
    pub fn current(&self) -> usize {
        self.current.load(Ordering::Relaxed)
    }

    /// Returns the largest value `current` has ever reached.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Resets the peak to the current value. Useful for measuring the peak of a single
    /// algorithm phase without restarting the process.
    pub fn reset_peak(&self) {
        self.peak
            .store(self.current.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Resets both current and peak to zero.
    pub fn reset(&self) {
        self.current.store(0, Ordering::Relaxed);
        self.peak.store(0, Ordering::Relaxed);
    }

    fn update_peak(&self, candidate: usize) {
        let mut peak = self.peak.load(Ordering::Relaxed);
        while candidate > peak {
            match self.peak.compare_exchange_weak(
                peak,
                candidate,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => peak = actual,
            }
        }
    }
}

static GLOBAL_COUNTER: MemoryCounter = MemoryCounter::new();

/// Returns the process-global memory counter.
///
/// All `memtrack`-aware data structures (and the optional tracking allocator) charge their
/// bytes here, so `global().peak()` is the quantity reported as "peak memory" by the
/// experiment harness.
pub fn global() -> &'static MemoryCounter {
    &GLOBAL_COUNTER
}

/// An RAII accounting scope: charges a fixed number of bytes to a counter on creation and
/// releases them on drop.
///
/// This is the building block for *data-structure level* accounting, used where the
/// tracking allocator is not installed (e.g. under Criterion, which manages its own
/// allocator) or where the paper counts logical rather than physical bytes.
#[derive(Debug)]
pub struct MemoryScope<'a> {
    counter: &'a MemoryCounter,
    bytes: usize,
}

impl<'a> MemoryScope<'a> {
    /// Charges `bytes` to `counter` for the lifetime of the returned scope.
    pub fn charge(counter: &'a MemoryCounter, bytes: usize) -> Self {
        counter.add(bytes);
        Self { counter, bytes }
    }

    /// A scope for `bytes` already charged to `counter`, released when it drops.
    pub(crate) fn adopt(counter: &'a MemoryCounter, bytes: usize) -> Self {
        Self { counter, bytes }
    }

    /// Takes over the charge of `other`, a scope on the same counter, without touching
    /// the counter.
    pub fn merge(&mut self, mut other: MemoryScope<'a>) {
        assert!(
            std::ptr::eq(self.counter, other.counter),
            "merged scopes charge different counters"
        );
        self.bytes += std::mem::take(&mut other.bytes);
    }

    /// Charges `bytes` to the process-global counter.
    pub fn charge_global(bytes: usize) -> MemoryScope<'static> {
        MemoryScope::charge(global(), bytes)
    }

    /// Grows the charge of this scope by `additional` bytes.
    pub fn grow(&mut self, additional: usize) {
        self.counter.add(additional);
        self.bytes += additional;
    }

    /// Shrinks the charge of this scope by `fewer` bytes (saturating).
    pub fn shrink(&mut self, fewer: usize) {
        let released = fewer.min(self.bytes);
        self.counter.sub(released);
        self.bytes -= released;
    }

    /// Number of bytes currently charged by this scope.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Drop for MemoryScope<'_> {
    fn drop(&mut self) {
        self.counter.sub(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn add_sub_and_peak() {
        let c = MemoryCounter::new();
        c.add(100);
        c.add(50);
        assert_eq!(c.current(), 150);
        assert_eq!(c.peak(), 150);
        c.sub(120);
        assert_eq!(c.current(), 30);
        assert_eq!(c.peak(), 150);
        c.add(10);
        assert_eq!(c.peak(), 150);
    }

    #[test]
    fn sub_saturates_at_zero() {
        let c = MemoryCounter::new();
        c.add(10);
        c.sub(100);
        assert_eq!(c.current(), 0);
    }

    #[test]
    fn reset_peak_keeps_current() {
        let c = MemoryCounter::new();
        c.add(100);
        c.sub(60);
        c.reset_peak();
        assert_eq!(c.peak(), 40);
        c.add(10);
        assert_eq!(c.peak(), 50);
    }

    #[test]
    fn zero_is_a_noop() {
        let c = MemoryCounter::new();
        c.add(0);
        c.sub(0);
        assert_eq!(c.current(), 0);
        assert_eq!(c.peak(), 0);
    }

    #[test]
    fn scope_releases_on_drop() {
        let c = MemoryCounter::new();
        {
            let mut scope = MemoryScope::charge(&c, 1000);
            assert_eq!(c.current(), 1000);
            scope.grow(500);
            assert_eq!(c.current(), 1500);
            scope.shrink(200);
            assert_eq!(c.current(), 1300);
            assert_eq!(scope.bytes(), 1300);
        }
        assert_eq!(c.current(), 0);
        assert_eq!(c.peak(), 1500);
    }

    #[test]
    fn a_merged_scope_moves_its_charge_without_touching_the_counter() {
        let c = MemoryCounter::new();
        let mut scope = MemoryScope::charge(&c, 100);
        scope.merge(MemoryScope::charge(&c, 30));
        assert_eq!((scope.bytes(), c.current()), (130, 130));
        drop(scope);
        assert_eq!((c.current(), c.peak()), (0, 130));
    }

    #[test]
    fn scope_shrink_saturates() {
        let c = MemoryCounter::new();
        let mut scope = MemoryScope::charge(&c, 10);
        scope.shrink(100);
        assert_eq!(scope.bytes(), 0);
        assert_eq!(c.current(), 0);
    }

    #[test]
    fn concurrent_updates_preserve_balance() {
        let c = Arc::new(MemoryCounter::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || {
                for _ in 0..10_000 {
                    c.add(16);
                    c.sub(16);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.current(), 0);
        assert!(c.peak() >= 16);
    }

    #[test]
    fn global_counter_is_shared() {
        let _global = crate::lock_global();
        let before = global().current();
        let scope = MemoryScope::charge_global(4096);
        assert!(global().current() >= before + 4096);
        drop(scope);
    }
}
