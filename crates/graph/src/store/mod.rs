//! External-memory graph store: the `.tpg` on-disk container and the page-cache-backed
//! [`PagedGraph`].
//!
//! The paper's headline claim — partitioning tera-scale graphs on a single machine —
//! rests on keeping the *input* in a compressed representation whose footprint the rest
//! of the pipeline never exceeds (TeraPart §III). This module family pushes that one
//! step further: the compressed neighbourhood bytes live **on disk** and the partitioner
//! touches them through a fixed-budget page cache, so the accounted in-memory footprint
//! of the input drops from "compressed size" to "offset index + node weights + page
//! budget". The semi-external regime this implements keeps the `O(n)` per-vertex arrays
//! in memory and streams the `O(m)` adjacency from disk — the classic trade-off of
//! semi-external graph algorithms.
//!
//! Five cooperating pieces:
//!
//! * [`container`] — the `.tpg` container format: a fixed header, the varint/gap/interval
//!   encoded neighbourhood sections (byte-identical to [`CompressedGraph`]'s in-memory
//!   encoding), an offset index of one VarInt byte length per vertex and optional node
//!   weights. [`TpgWriter`]
//!   streams a graph into the container in one bounded-memory pass (`O(n + max_degree)`
//!   live bytes, never `O(m)`).
//! * [`paged`] — [`PagedGraph`], a [`Graph`](crate::traits::Graph) implementation that
//!   decodes neighbourhoods out of a sharded, memtrack-charged page cache backed by pure
//!   positional reads (`pread`-style, no mmap). Iteration order is bit-identical to the
//!   in-memory [`CompressedGraph`], so a fixed-seed partitioning run produces the same
//!   partition from either representation.
//! * [`mmap`] — [`MmapGraph`], the zero-copy fast path: a [`CompressedGraph`] whose
//!   bytes are a read-only mapping of the container, charged to the memory accounting
//!   while it is open. Neighbourhoods decode in place — no frame copies, no shard
//!   locks. Selected via [`OnDiskBackend`].
//! * [`stream`] — bounded-memory streaming instance generation: an external
//!   bucket-spilling builder that accepts arbitrary edge streams and produces a `.tpg`
//!   without ever materialising the full adjacency, plus streaming variants of the
//!   R-MAT and random-geometric generators that feed it chunk by chunk.
//! * [`handle`] / [`registry`] — the engine/session split: [`StoreHandle`] unifies the
//!   two on-disk representations behind one `Arc`-shareable type whose per-request
//!   [`StoreSession`] views carry the poison protocol, and [`StoreRegistry`]
//!   deduplicates opens by `(path, options)` so concurrent requests share one open
//!   store (and one memory charge).
//!
//! A resident store is a [`CompressedGraph`]: [`read_tpg_compressed`] loads the data
//! section onto the heap, [`MmapGraph`] maps it. Both come out of one verified open,
//! and one `Graph` impl then decodes every resident byte source. Every store — the two
//! resident ones and [`PagedGraph`] — looks neighbourhoods up in the one
//! [`PackedArray`](crate::packed::PackedArray) the container's decoder prefix-sums the
//! VarInt lengths into: a lookup is one load and a mask.
//!
//! [`CompressedGraph`]: crate::compressed::CompressedGraph

// The storage layer must degrade structurally — poison, `IoError`, retry — never by
// panicking mid-pipeline, so unwrap/expect are banned outside test modules (which
// opt back in with `#![allow]`).
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod backend;
pub mod container;
pub mod handle;
pub mod mmap;
pub mod paged;
mod poison;
pub mod registry;
pub mod stream;

pub use backend::{
    read_full_at, FaultPlan, FaultStats, FaultyBackend, FileBackend, StorageBackend,
};
pub use container::{
    read_tpg, read_tpg_compressed, read_tpg_meta, write_tpg_from_binary, write_tpg_from_graph,
    write_tpg_from_metis, TpgMeta, TpgSummary, TpgWriter,
};
pub use handle::{StoreHandle, StoreSession};
pub use mmap::MmapGraph;
pub use paged::{CacheStatsSnapshot, OnDiskBackend, PagedGraph, PagedGraphOptions, RetryPolicy};
pub use poison::FatalIoError;
pub use registry::StoreRegistry;
pub use stream::{
    stream_rgg2d_to_tpg, stream_rgg3d_to_tpg, stream_rmat_to_tpg, SpillStats, StreamingTpgBuilder,
    MAX_SPILL_BUCKETS,
};
