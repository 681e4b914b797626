//! The typed counter/gauge registry.
//!
//! One fixed-size array of atomics, indexed by the [`Counter`] enum. Sums use
//! `fetch_add` and maxima use `fetch_max`, both with relaxed ordering — every update is
//! commutative, so totals are independent of thread interleaving and the registry never
//! perturbs determinism.

use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! counters {
    ($(($variant:ident, $name:literal, $kind:ident)),+ $(,)?) => {
        /// Every metric the pipeline records, as a typed index into [`MetricsRegistry`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Counter {
            $($variant),+
        }

        impl Counter {
            /// All counters, in declaration (= export) order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant),+];

            /// The number of counters (size of the registry's cell array).
            pub const COUNT: usize = Counter::ALL.len();

            /// Stable snake_case name used in JSON exports and summary tables.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name),+
                }
            }

            /// Whether updates accumulate (`Sum`) or keep the maximum (`Max`).
            pub fn kind(self) -> CounterKind {
                match self {
                    $(Counter::$variant => CounterKind::$kind),+
                }
            }
        }
    };
}

counters! {
    // Label propagation: clustering (coarsening) side.
    (LpClusterRounds, "lp_cluster_rounds", Sum),
    (LpClusterMoves, "lp_cluster_moves", Sum),
    // Label propagation: refinement side.
    (LpRefineRounds, "lp_refine_rounds", Sum),
    (LpRefineMoves, "lp_refine_moves", Sum),
    (LpRefineVisited, "lp_refine_visited", Sum),
    // k-way FM refinement.
    (FmPasses, "fm_passes", Sum),
    (FmGainQueries, "fm_gain_queries", Sum),
    (FmMovesTried, "fm_moves_tried", Sum),
    (FmMovesAccepted, "fm_moves_accepted", Sum),
    (FmMovesRolledBack, "fm_moves_rolled_back", Sum),
    (RebalanceMoves, "rebalance_moves", Sum),
    // Coarsening shape.
    (CoarseningLevels, "coarsening_levels", Sum),
    // Initial partitioning portfolio.
    (InitialBisections, "initial_bisections", Sum),
    (InitialAttempts, "initial_attempts", Sum),
    (InitialGrowHalfEdges, "initial_grow_half_edges", Sum),
    (InitialFmPasses, "initial_fm_passes", Sum),
    (InitialFmMovesTried, "initial_fm_moves_tried", Sum),
    (InitialFmMovesKept, "initial_fm_moves_kept", Sum),
    (InitialFmHalfEdges, "initial_fm_half_edges", Sum),
    (InitialExtractHalfEdges, "initial_extract_half_edges", Sum),
    // Paged store cache.
    (CacheHits, "cache_hits", Sum),
    (CacheMisses, "cache_misses", Sum),
    (CacheBytesRead, "cache_bytes_read", Sum),
    (CacheVerifiedBytes, "cache_verified_bytes", Sum),
    (CacheRetriedReads, "cache_retried_reads", Sum),
    (CacheChecksumFailures, "cache_checksum_failures", Sum),
    // Mmap store backend.
    (MmapOpens, "mmap_opens", Sum),
    (MmapMappedBytes, "mmap_mapped_bytes", Max),
    (MmapOffsetIndexBytes, "mmap_offset_index_bytes", Max),
    (MmapOpenRetriedReads, "mmap_open_retried_reads", Sum),
    // Memory gauges (peaks, not sums).
    (GainTableBytes, "gain_table_bytes", Max),
    // What initial partitioning held uncharged when it returned: its parked workspace
    // pools plus the root bisection's weighted degrees.
    (InitialWorkspaceBytes, "initial_workspace_bytes", Max),
    (PeakMemoryBytes, "peak_memory_bytes", Max),
}

/// Aggregation discipline of a [`Counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// Updates accumulate; order-independent by commutativity of addition.
    Sum,
    /// Updates keep the running maximum (a gauge peak).
    Max,
}

/// Fixed-size registry of atomic cells, one per [`Counter`].
#[derive(Debug)]
pub struct MetricsRegistry {
    cells: [AtomicU64; Counter::COUNT],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self {
            cells: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl MetricsRegistry {
    /// Creates a registry with all cells at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to a sum counter (callable from any thread).
    pub fn add(&self, counter: Counter, delta: u64) {
        debug_assert_eq!(counter.kind(), CounterKind::Sum);
        if delta != 0 {
            self.cells[counter as usize].fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Raises a max gauge to at least `value` (callable from any thread).
    pub fn record_max(&self, counter: Counter, value: u64) {
        debug_assert_eq!(counter.kind(), CounterKind::Max);
        self.cells[counter as usize].fetch_max(value, Ordering::Relaxed);
    }

    /// Current value of one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.cells[counter as usize].load(Ordering::Relaxed)
    }

    /// All counters with a non-zero value, in declaration order.
    pub fn snapshot(&self) -> Vec<(Counter, u64)> {
        Counter::ALL
            .iter()
            .map(|&c| (c, self.get(c)))
            .filter(|&(_, v)| v != 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_accumulate_and_maxes_keep_peak() {
        let m = MetricsRegistry::new();
        m.add(Counter::LpClusterMoves, 3);
        m.add(Counter::LpClusterMoves, 4);
        m.record_max(Counter::PeakMemoryBytes, 100);
        m.record_max(Counter::PeakMemoryBytes, 50);
        assert_eq!(m.get(Counter::LpClusterMoves), 7);
        assert_eq!(m.get(Counter::PeakMemoryBytes), 100);
    }

    #[test]
    fn snapshot_skips_zeroes_and_preserves_order() {
        let m = MetricsRegistry::new();
        m.add(Counter::FmPasses, 2);
        m.add(Counter::CacheHits, 9);
        let snap = m.snapshot();
        assert_eq!(
            snap,
            vec![(Counter::FmPasses, 2), (Counter::CacheHits, 9)],
            "declaration order, zero cells omitted"
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
    }
}
