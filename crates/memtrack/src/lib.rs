//! Memory-accounting substrate for the TeraPart reproduction.
//!
//! The TeraPart paper's headline results are *peak memory* reductions (Figures 1, 2, 4, 6
//! and 7). Reproducing those figures requires a way to measure the peak heap footprint of
//! the partitioner's data structures. This crate provides three cooperating pieces:
//!
//! * [`TrackingAllocator`] — a global allocator wrapper that counts every allocation and
//!   deallocation and maintains the current and peak number of live heap bytes.
//! * [`counter`] — process-global and scoped [`counter::MemoryCounter`]s with relaxed
//!   atomic updates, cheap enough to leave enabled in release builds.
//! * [`phase`] — a [`phase::PhaseTracker`] that attributes peak memory to named algorithm
//!   phases (clustering, contraction, refinement, ...), reproducing the per-phase memory
//!   breakdown of Figure 2.
//! * [`reserve`] — [`reserve::ReservedVec`], a vector that distinguishes *reserved* from
//!   *committed* capacity. The paper relies on OS virtual-memory overcommit ("allocate an
//!   upper bound, only touched pages cost physical memory"); `ReservedVec` reproduces the
//!   same accounting model portably: only committed bytes are charged to the counters.
//!
//! # Example
//!
//! ```
//! use memtrack::counter::MemoryCounter;
//!
//! let counter = MemoryCounter::new();
//! counter.add(1024);
//! counter.add(2048);
//! counter.sub(1024);
//! assert_eq!(counter.current(), 2048);
//! assert_eq!(counter.peak(), 3072);
//! ```

pub mod alloc;
pub mod counter;
pub mod phase;
pub mod reserve;

pub use alloc::TrackingAllocator;
pub use counter::{global, MemoryCounter, MemoryScope};
pub use phase::{PhaseHandle, PhaseReport, PhaseTracker};
pub use reserve::ReservedVec;

/// Number of bytes in one binary mebibyte. Used by reporting helpers.
pub const MIB: usize = 1024 * 1024;

/// Number of bytes in one binary gibibyte. Used by reporting helpers.
pub const GIB: usize = 1024 * 1024 * 1024;

/// Formats a byte count as a human-readable string with binary units.
///
/// ```
/// assert_eq!(memtrack::format_bytes(512), "512 B");
/// assert_eq!(memtrack::format_bytes(2048), "2.00 KiB");
/// assert_eq!(memtrack::format_bytes(3 * 1024 * 1024), "3.00 MiB");
/// ```
pub fn format_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{} {}", bytes, UNITS[unit])
    } else {
        format!("{:.2} {}", value, UNITS[unit])
    }
}

/// Serialises this crate's unit tests that charge, release or read [`global()`]: they
/// share one process, and a concurrent charge, release or `reset_peak` (every
/// [`PhaseTracker`] phase does one) breaks another test's before/after deltas.
#[cfg(test)]
pub(crate) fn lock_global() -> std::sync::MutexGuard<'static, ()> {
    static GLOBAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A `should_panic` test poisons the lock; the counter itself is still consistent.
    GLOBAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_bytes_units() {
        assert_eq!(format_bytes(0), "0 B");
        assert_eq!(format_bytes(1023), "1023 B");
        assert_eq!(format_bytes(1024), "1.00 KiB");
        assert_eq!(format_bytes(1536), "1.50 KiB");
        assert_eq!(format_bytes(GIB), "1.00 GiB");
    }
}
