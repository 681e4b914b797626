//! TeraPart: memory-efficient shared-memory multilevel graph partitioning.
//!
//! This crate is the reproduction of the paper's primary contribution. It implements a
//! KaMinPar-style multilevel partitioning pipeline — coarsening by size-constrained label
//! propagation, recursive-bisection initial partitioning on the coarsest graph, and
//! refinement level by level — together with the three TeraPart optimizations:
//!
//! 1. **Two-phase label propagation** clustering ([`coarsening::lp_clustering`]), which
//!    replaces the per-thread `O(n)` rating maps with small fixed-capacity hash tables and
//!    a single shared sparse array for "bumped" high-fanout vertices — `O(n + p·T_bump)`
//!    auxiliary memory instead of `O(n·p)` (paper §IV-A).
//! 2. **One-pass contraction** ([`mod@coarsening::contract`]), which writes the coarse graph's
//!    CSR arrays directly using an atomically updated dual counter instead of buffering
//!    the coarse edges twice (paper §IV-B).
//! 3. **Space-efficient gain tables** for parallel FM refinement
//!    ([`refinement::gain_table`]), using `O(m)` instead of `O(nk)` memory (paper §V).
//!
//! On top of these, the partitioner can run on either the uncompressed
//! [`CsrGraph`](graph::CsrGraph) or the compressed
//! [`CompressedGraph`](graph::CompressedGraph) (paper §III), because every algorithm is
//! generic over [`graph::Graph`]: the type of the input is its representation, and
//! [`partition()`] and [`PartitionEngine`] take either. [`partition_ondisk`] reads a `.tpg`
//! container through a page cache instead.
//!
//! # Performance invariants
//!
//! * **Phase-owned auxiliary memory.** Every level-sized buffer belongs to the phase
//!   that reads it and is freed, with its `memtrack` charge, when that phase returns:
//!   contraction's cluster buckets and per-coarse-vertex buffers (only the member array
//!   is `n` ids long: everything per cluster is indexed by label rank, `n′` entries,
//!   beside an `n`-bit label set), label propagation's range permutation and frontier
//!   bitsets (the visit order is generated range by range while the round runs, never
//!   stored), and each coarse level, which uncoarsening pops once it has projected past
//!   it; and initial partitioning's membership map and tree permutation, which every
//!   node of the bisection tree reuses. The first coarsening level therefore sets the
//!   peak. What outlives a phase is one [`HierarchyScratch`] per run: the pooled
//!   per-worker hot-loop buffers. The coarse edge arrays are reserved for `2m` slots per level without being
//!   filled; one-pass contraction writes the `2m′` it needs and hands exactly those to
//!   the coarse graph.
//! * **Edge weights at the width of the heaviest.** A coarse level's CSR stores its edge
//!   weights packed ([`graph::packed::PackedArray`]): one-pass contraction reserves them
//!   at the width of the fine graph's total edge weight
//!   ([`coarsening::reserved_weight_width`]), writes exactly that many bytes per weight,
//!   and narrows them in place to the width of the heaviest coarse edge. No 8-byte
//!   weight array is built; on R-MAT, where the level-1 CSR sets the run peak, that
//!   halves the peak.
//! * **The hierarchy is held compressed.** A coarse level is CSR while it is the newest
//!   level, for its clustering; once coarsening contracts it, it is re-encoded as a
//!   [`CompressedGraph`](graph::CompressedGraph) in its own `compress_level` phase
//!   ([`coarsening::CoarseGraph`]). Every held level but the coarsest is compressed, so
//!   on R-MAT, where the hierarchy barely shrinks, the held levels cost about half their
//!   CSR bytes.
//! * **Frontier-driven label propagation.** After the full first round, clustering and
//!   refinement revisit only vertices whose neighbourhood changed.
//! * **Deterministic parallel initial partitioning.** The recursive-bisection portfolio
//!   ([`initial`]) forks child recursions and portfolio attempts in parallel, yet a
//!   fixed seed produces a bit-identical assignment at any thread count: RNG streams
//!   derive from the seed's path through the bisection tree and the portfolio winner is
//!   selected by a total order. (Full-pipeline results still vary with the thread count
//!   because parallel label propagation applies moves in scheduling order.)
//!
//! # Quick start
//!
//! ```
//! use graph::gen;
//! use terapart::{PartitionerConfig, partition};
//!
//! let g = gen::grid2d(32, 32);
//! let config = PartitionerConfig::terapart(8); // 8 blocks, TeraPart optimizations on
//! let result = partition(&g, &config);
//! assert!(result.partition.is_balanced());
//! assert!(result.partition.edge_cut() > 0);
//! ```

pub mod coarsening;
pub mod context;
pub mod dual_counter;
pub mod engine;
pub mod error;
pub(crate) mod heap;
pub mod initial;
pub(crate) mod lp_rounds;
pub mod partition;
pub mod partitioner;
pub mod refinement;
pub mod scratch;

pub use context::{
    CoarseningConfig, ContractionAlgorithm, GainTableKind, InitialPartitioningConfig,
    LabelPropagationMode, ObsConfig, OnDiskConfig, PartitionerConfig, Preset, RefinementAlgorithm,
    RefinementConfig,
};
pub use engine::{EngineConfig, PartitionEngine, PartitionRequest, ScratchPool};
pub use error::PartitionError;
pub use initial::initial_partition;
pub use partition::{BlockId, Partition};
pub use partitioner::{partition, partition_ondisk, PartitionResult, RunContext};
pub use scratch::{AtomicBitset, HierarchyScratch};

/// Retry/backoff policy of the on-disk page cache, re-exported for
/// [`PartitionerConfig::with_retry`].
pub use graph::store::RetryPolicy;

/// The shared-store surface of the engine API, re-exported from [`graph`]: the
/// `Arc`-shareable unified store handle, its per-request session view (poison
/// protocol), and the deduplicating open-store registry an engine owns.
pub use graph::store::{StoreHandle, StoreRegistry, StoreSession};

/// Observability surface, re-exported for [`PartitionerConfig::with_run_report`]: the
/// typed counter registry, the structured run report attached to
/// [`PartitionResult::run_report`], and the exporter that writes that report as a
/// Chrome trace-event file.
pub use obs::{write_chrome_trace, Counter, RunReport};

/// Identifier of a cluster during coarsening (clusters become coarse vertices).
/// Re-exported from [`graph::ids`]: the width follows the `wide-ids` feature.
pub use graph::ids::ClusterId;
