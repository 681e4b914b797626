//! [`MmapGraph`]: the zero-copy store backend — a [`CompressedGraph`] whose bytes are a
//! read-only memory mapping of a `.tpg` container.
//!
//! Where [`PagedGraph`](crate::store::PagedGraph) pays a shard lock and a frame copy
//! per neighbourhood access in exchange for a strict resident-memory budget, this
//! backend maps the container's header and data section read-only and decodes in
//! place: no frame copies, no locks, no per-access bookkeeping. Residency is delegated
//! to the OS page cache, so the accounted footprint is the full mapping — the
//! fits-in-RAM fast path of [`OnDiskBackend`](crate::store::OnDiskBackend) (webgraph
//! idiom: memory-mapped compressed adjacency plus an offset index).
//!
//! There is one resident layout and one decoder: an [`MmapGraph`] owns a
//! [`CompressedGraph`] whose bytes are a mapped file instead of a heap buffer, plus the
//! memory charge for it. Its [`Graph`] impl delegates. This module holds only the
//! mapping itself — `MappedFile`, its `unsafe` code and the `mmap`/`munmap` bindings.
//!
//! # Integrity and fault tolerance
//!
//! Everything is verified *at open*, by the one resident open the eager
//! [`read_tpg_compressed`](crate::store::read_tpg_compressed) runs too, through
//! [`StorageBackend::read_at`]: header crc, offset-index crc (plus strict
//! monotonicity, so in-place decoding can never run out of the data section),
//! node-weight crc, and the entire data section against the footer's per-block crcs,
//! chunk by chunk with the same per-section retry policy the paged open uses. Because
//! every verification byte flows through the backend trait, injected fault schedules
//! ([`FaultyBackend`]) exercise this path exactly like the paged one: transient faults
//! heal through retries, persistent corruption surfaces as a structured [`IoError`]
//! from `open` — never a panic. After a successful open there are no further I/O
//! error paths, so the type needs no poison protocol.
//!
//! Backends that are not plain files (the fault injector, in-memory stores) do not
//! expose a mappable [`File`]; for those the verified data section is loaded on the
//! heap instead, keeping behaviour identical minus the zero-copy property.
//!
//! [`FaultyBackend`]: crate::store::backend::FaultyBackend
//! [`StorageBackend::read_at`]: crate::store::backend::StorageBackend::read_at

use std::fs::File;
use std::path::Path;

use memtrack::MemoryScope;

use crate::compressed::{Bytes, CompressedGraph};
use crate::io::IoError;
use crate::store::backend::{FileBackend, StorageBackend};
use crate::store::container::{read_resident, TpgMeta};
use crate::store::paged::PagedGraphOptions;
use crate::traits::Graph;
use crate::{EdgeWeight, NodeId, NodeWeight};

/// Raw `mmap`/`munmap` bindings (no libc crate in the dependency-free build). The
/// `off_t` argument is declared `i64`, which matches every 64-bit unix ABI — the
/// mapping path is gated accordingly, with the heap fallback everywhere else.
#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 0x1;
    pub const MAP_PRIVATE: c_int = 0x2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// A read-only mapping of a container file's header and data section, unmapped on
/// drop: the bytes of a mapped [`CompressedGraph`]. Its fields are private to this
/// module: only [`try_map`] builds one, from a successful `mmap` of the first
/// `data_offset + data_len` bytes of a file.
#[cfg(all(unix, target_pointer_width = "64"))]
pub(crate) struct MappedFile {
    ptr: std::ptr::NonNull<u8>,
    /// Length of the whole mapping: `data_offset + data_len`.
    len: usize,
    /// Offset of the data section within the mapping.
    data_offset: usize,
    /// Length of the data section.
    data_len: usize,
}

// SAFETY: the mapped bytes are PROT_READ and owned by this value until its drop unmaps
// them; the three lengths are plain integers. Moving or sharing it between threads
// therefore cannot race.
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Send for MappedFile {}
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Sync for MappedFile {}

#[cfg(all(unix, target_pointer_width = "64"))]
impl Drop for MappedFile {
    fn drop(&mut self) {
        // A failing munmap leaks address space but cannot corrupt anything; there is
        // no meaningful recovery in a destructor.
        // SAFETY: `ptr` and `len` are exactly what `mmap` returned and was given, and
        // nothing borrows the bytes past this value's lifetime.
        unsafe {
            sys::munmap(self.ptr.as_ptr().cast(), self.len);
        }
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
impl MappedFile {
    /// The data section.
    #[inline]
    pub(crate) fn data(&self) -> &[u8] {
        // SAFETY: `try_map` mapped at least `data_offset + data_len` bytes, which stay
        // mapped and unwritten while `self` lives.
        unsafe {
            std::slice::from_raw_parts(self.ptr.as_ptr().add(self.data_offset), self.data_len)
        }
    }

    /// Length of the whole mapping: the bytes it pins.
    pub(crate) fn mapped_len(&self) -> usize {
        self.len
    }
}

/// Maps the header and data section read-only as a graph's [`Bytes`], or returns
/// `None` (the caller loads the data section onto the heap instead) if the platform has
/// no mapping binding or the kernel refuses the mapping. The sections behind the data
/// are held on the heap by the graph, so mapping them too would pin them twice.
pub(crate) fn try_map(file: &File, meta: &TpgMeta) -> Option<Bytes> {
    #[cfg(all(unix, target_pointer_width = "64"))]
    {
        use std::os::unix::io::AsRawFd;
        let len = meta.data_start() as usize + meta.data_len as usize;
        if (file.metadata().ok()?.len() as usize) < len {
            return None;
        }
        // SAFETY: a fresh read-only private mapping of an open file descriptor; the
        // kernel picks the address, and failure is checked below.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return None;
        }
        Some(Bytes::Mapped(MappedFile {
            ptr: std::ptr::NonNull::new(ptr.cast::<u8>())?,
            len,
            data_offset: meta.data_start() as usize,
            data_len: meta.data_len as usize,
        }))
    }
    #[cfg(not(all(unix, target_pointer_width = "64")))]
    {
        let _ = (file, meta);
        None
    }
}

/// A graph stored in a `.tpg` container, decoded in place from a read-only memory
/// mapping (see the module docs): a [`CompressedGraph`] over the mapping, charged to
/// the global memory accounting while it is open. Fully verified at open; infallible
/// afterwards, so unlike [`PagedGraph`](crate::store::PagedGraph) it carries no poison
/// protocol and no cache statistics.
pub struct MmapGraph {
    graph: CompressedGraph,
    /// The graph's bytes — mapping or heap copy, offset index, node weights — charged
    /// to the global memory accounting until drop.
    charge: MemoryScope<'static>,
    /// Open-time reads retried under the retry policy (exported to obs).
    open_retries: u64,
}

impl std::fmt::Debug for MmapGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapGraph")
            .field("n", &self.graph.n())
            .field("m", &self.graph.m())
            .field("mmap", &self.is_mmap())
            .finish()
    }
}

impl MmapGraph {
    /// Opens a `.tpg` container with default options.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, IoError> {
        Self::open_with_options(path, &PagedGraphOptions::default())
    }

    /// Opens a `.tpg` container; of `options` only the [`retry`] policy applies (it
    /// governs the open-time verification reads).
    ///
    /// [`retry`]: PagedGraphOptions::retry
    pub fn open_with_options(
        path: impl AsRef<Path>,
        options: &PagedGraphOptions,
    ) -> Result<Self, IoError> {
        Self::open_with_backend(Box::new(FileBackend::open(path)?), options)
    }

    /// Opens a `.tpg` container through a caller-provided backend — the seam the
    /// fault-injection harness uses. Backends that do not expose a mappable file
    /// (the fault injector among them) are served by the heap fallback, so the
    /// injected fault schedule covers every byte of the open, data section included.
    pub fn open_with_backend(
        backend: Box<dyn StorageBackend>,
        options: &PagedGraphOptions,
    ) -> Result<Self, IoError> {
        let mut open_retries = 0u64;
        let graph = read_resident(backend.as_ref(), &options.retry, &mut open_retries, true)?;
        Ok(Self {
            charge: MemoryScope::charge_global(graph.size_in_bytes()),
            graph,
            open_retries,
        })
    }

    /// Whether neighbourhoods decode from a real memory mapping (`false`: the heap
    /// fallback for file-less backends and unsupported platforms).
    pub fn is_mmap(&self) -> bool {
        self.graph.bytes().is_mapped()
    }

    /// Bytes charged to the memory accounting: the mapping (header and data section)
    /// or heap copy (data section), plus the offset index and node weights.
    pub fn accounted_bytes(&self) -> usize {
        self.charge.bytes()
    }
}

impl Graph for MmapGraph {
    fn n(&self) -> usize {
        self.graph.n()
    }

    fn m(&self) -> usize {
        self.graph.m()
    }

    fn degree(&self, u: NodeId) -> usize {
        self.graph.degree(u)
    }

    fn node_weight(&self, u: NodeId) -> NodeWeight {
        self.graph.node_weight(u)
    }

    fn total_node_weight(&self) -> NodeWeight {
        self.graph.total_node_weight()
    }

    fn total_edge_weight(&self) -> EdgeWeight {
        self.graph.total_edge_weight()
    }

    fn for_each_neighbor(&self, u: NodeId, f: &mut dyn FnMut(NodeId, EdgeWeight)) {
        self.graph.for_each_neighbor(u, f);
    }

    fn is_edge_weighted(&self) -> bool {
        self.graph.is_edge_weighted()
    }

    fn is_node_weighted(&self) -> bool {
        self.graph.is_node_weighted()
    }

    fn max_degree(&self) -> usize {
        self.graph.max_degree()
    }

    fn max_weighted_degree(&self) -> EdgeWeight {
        self.graph.max_weighted_degree()
    }

    fn record_obs_metrics(&self, metrics: &obs::MetricsRegistry) {
        use obs::Counter;
        metrics.add(Counter::MmapOpens, 1);
        metrics.record_max(
            Counter::MmapMappedBytes,
            self.graph.bytes().size_in_bytes() as u64,
        );
        metrics.record_max(
            Counter::MmapOffsetIndexBytes,
            self.graph.offset_index_bytes() as u64,
        );
        metrics.add(Counter::MmapOpenRetriedReads, self.open_retries);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::compressed::CompressionConfig;
    use crate::gen;
    use crate::store::backend::{FaultPlan, FaultyBackend};
    use crate::store::container::{read_tpg_compressed, write_tpg_from_graph};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "terapart_mmap_test_{}_{}",
            std::process::id(),
            name
        ));
        p
    }

    fn assert_matches(graph: &dyn Graph, reference: &impl Graph) {
        assert_eq!(graph.n(), reference.n());
        assert_eq!(graph.m(), reference.m());
        assert_eq!(graph.total_node_weight(), reference.total_node_weight());
        assert_eq!(graph.total_edge_weight(), reference.total_edge_weight());
        assert_eq!(graph.max_degree(), reference.max_degree());
        for u in 0..reference.n() as NodeId {
            assert_eq!(graph.degree(u), reference.degree(u), "degree of {}", u);
            assert_eq!(graph.node_weight(u), reference.node_weight(u));
            assert_eq!(
                graph.neighbors_vec(u),
                reference.neighbors_vec(u),
                "neighbourhood of {}",
                u
            );
        }
    }

    /// The three resident opens — loaded, mapped, and the heap fallback of a backend
    /// without a file — decode the same bytes identically, and each charges exactly its
    /// data (with the header in front when mapped) plus the offset index and node
    /// weights, packed at one byte a vertex (the heaviest weighs at most 6).
    #[test]
    fn mmap_iteration_is_identical_to_compressed() {
        let csr = gen::with_random_node_weights(
            &gen::with_random_edge_weights(&gen::weblike(10, 8, 2), 30, 4),
            6,
            9,
        );
        let config = CompressionConfig::default();
        let compressed = CompressedGraph::from_csr(&csr, &config);
        let path = tmp("identical.tpg");
        write_tpg_from_graph(&csr, &path, &config).unwrap();

        let loaded = read_tpg_compressed(&path).unwrap();
        let mapped = MmapGraph::open(&path).unwrap();
        // A fault injector with an empty plan exposes no file: the heap fallback.
        let no_file = FaultyBackend::new(FileBackend::open(&path).unwrap(), FaultPlan::default());
        let fallback =
            MmapGraph::open_with_backend(Box::new(no_file), &PagedGraphOptions::default()).unwrap();
        assert!(mapped.is_mmap() || cfg!(not(unix)));
        assert!(!fallback.is_mmap());

        let data_len = compressed.encoded_data_bytes();
        let weights = csr.n() + crate::packed::TAIL_PADDING;
        assert_eq!(compressed.node_weight_bytes(), weights);
        let index_and_weights = compressed.offset_index_bytes() + weights;
        for graph in [&loaded as &dyn Graph, &mapped, &fallback] {
            assert_matches(graph, &compressed);
        }
        for graph in [&loaded, &mapped.graph, &fallback.graph] {
            assert_eq!(graph.encoded_data_bytes(), data_len);
        }
        assert_eq!(loaded.size_in_bytes(), data_len + index_and_weights);
        let header = crate::store::container::TPG_HEADER_LEN as usize;
        let mapped_len = data_len + if mapped.is_mmap() { header } else { 0 };
        assert_eq!(mapped.accounted_bytes(), mapped_len + index_and_weights);
        assert_eq!(fallback.accounted_bytes(), data_len + index_and_weights);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_graph_opens_and_decodes() {
        let csr = gen::grid2d(1, 1); // single vertex, no edges
        let path = tmp("empty.tpg");
        write_tpg_from_graph(&csr, &path, &CompressionConfig::default()).unwrap();
        let mmap = MmapGraph::open(&path).unwrap();
        assert_eq!(mmap.n(), 1);
        assert_eq!(mmap.degree(0), 0);
        assert!(mmap.neighbors_vec(0).is_empty());
        std::fs::remove_file(path).ok();
    }
}
