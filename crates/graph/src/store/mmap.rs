//! [`MmapGraph`]: the zero-copy store backend — a [`Graph`] decoding neighbourhoods
//! straight out of a memory mapping of a `.tpg` container.
//!
//! Where [`PagedGraph`](crate::store::PagedGraph) pays a shard lock and a frame copy
//! per neighbourhood access in exchange for a strict resident-memory budget, this
//! backend maps the whole container read-only and decodes in place: no frame copies,
//! no locks, no per-access bookkeeping. Residency is delegated to the OS page cache,
//! so the accounted footprint is the full mapping — the fits-in-RAM fast path of
//! [`OnDiskBackend`](crate::store::OnDiskBackend) (webgraph idiom: memory-mapped
//! compressed adjacency plus an Elias-Fano offset index).
//!
//! # Integrity and fault tolerance
//!
//! Everything is verified *at open*, through [`StorageBackend::read_at`] — header
//! crc, offset-index crc (plus monotonicity, so in-place decoding can never run out
//! of the data section), node-weight crc, and the entire data section against the
//! footer's per-block crcs, chunk by chunk with the same per-section retry policy the
//! paged open uses. Because every verification byte flows through the
//! backend trait, injected fault schedules ([`FaultyBackend`]) exercise this path
//! exactly like the paged one: transient faults heal through retries, persistent
//! corruption surfaces as a structured [`IoError`] from `open` — never a panic. After
//! a successful open there are no further I/O error paths, so the type needs no
//! poison protocol.
//!
//! Backends that are not plain files (the fault injector, in-memory stores) do not
//! expose a mappable [`File`]; for those the verified data section is materialised on
//! the heap instead, keeping behaviour identical minus the zero-copy property.
//!
//! [`FaultyBackend`]: crate::store::backend::FaultyBackend
//! [`StorageBackend::read_at`]: crate::store::backend::StorageBackend::read_at

use std::fs::File;
use std::path::{Path, PathBuf};

use crate::compressed::{decode_neighborhood, decode_neighborhood_header, CompressionConfig};
use crate::io::IoError;
use crate::store::backend::{FileBackend, StorageBackend};
use crate::store::container::{
    read_tpg_index_backend, read_tpg_meta_backend, retry_section, verify_or_load_data, TpgMeta,
};
use crate::store::elias_fano::EliasFanoIndex;
use crate::store::paged::PagedGraphOptions;
use crate::traits::Graph;
use crate::{EdgeId, EdgeWeight, NodeId, NodeWeight};

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

/// The bytes behind an open [`MmapGraph`]: a read-only mapping of the whole container
/// file, or a heap copy of the data section for backends that are not plain files
/// (and platforms without the mmap binding).
enum Mapping {
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mmap {
        ptr: std::ptr::NonNull<u8>,
        /// Length of the whole mapping (the full file).
        len: usize,
        /// Offset of the data section within the mapping.
        data_offset: usize,
        /// Length of the data section.
        data_len: usize,
    },
    Heap(Vec<u8>),
}

// The mapping is immutable after construction (PROT_READ, or a never-mutated Vec),
// so shared references from any thread are sound.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps the whole file read-only, or returns `None` (falling back to the heap
    /// path) if the platform has no mapping binding or the kernel refuses the mapping.
    fn try_map(file: &File, meta: &TpgMeta) -> Option<Mapping> {
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            use std::os::unix::io::AsRawFd;
            let len = file.metadata().ok()?.len() as usize;
            let needed = meta.data_start() as usize + meta.data_len as usize;
            if len < needed || len == 0 {
                return None;
            }
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
            let ptr = std::ptr::NonNull::new(ptr.cast::<u8>())?;
            Some(Mapping::Mmap {
                ptr,
                len,
                data_offset: meta.data_start() as usize,
                data_len: meta.data_len as usize,
            })
        }
        #[cfg(not(all(unix, target_pointer_width = "64")))]
        {
            let _ = (file, meta);
            None
        }
    }

    /// The data section.
    fn data(&self) -> &[u8] {
        match self {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Mapping::Mmap {
                ptr,
                data_offset,
                data_len,
                ..
            } => unsafe { std::slice::from_raw_parts(ptr.as_ptr().add(*data_offset), *data_len) },
            Mapping::Heap(data) => data,
        }
    }

    /// Bytes this mapping pins (charged to the memory accounting): the whole file
    /// for a real mapping, the data section for the heap fallback.
    fn size_in_bytes(&self) -> usize {
        match self {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Mapping::Mmap { len, .. } => *len,
            Mapping::Heap(data) => data.len(),
        }
    }

    /// Whether this is a real memory mapping (vs the heap fallback).
    fn is_mmap(&self) -> bool {
        match self {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Mapping::Mmap { .. } => true,
            Mapping::Heap(_) => false,
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        if let Mapping::Mmap { ptr, len, .. } = self {
            // A failing munmap leaks address space but cannot corrupt anything;
            // there is no meaningful recovery in a destructor.
            unsafe {
                sys::munmap(ptr.as_ptr().cast(), *len);
            }
        }
    }
}

/// A graph stored in a `.tpg` container, decoded in place from a read-only memory
/// mapping (see the module docs). Fully verified at open; infallible afterwards, so
/// unlike [`PagedGraph`](crate::store::PagedGraph) it carries no poison protocol and
/// no cache statistics.
pub struct MmapGraph {
    meta: TpgMeta,
    path: PathBuf,
    offsets: EliasFanoIndex,
    node_weights: Vec<NodeWeight>,
    mapping: Mapping,
    /// Bytes charged to the global memory accounting, released on drop.
    charged: usize,
    /// Open-time reads retried under the retry policy (exported to obs).
    open_retries: u64,
}

impl std::fmt::Debug for MmapGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapGraph")
            .field("path", &self.path)
            .field("n", &self.meta.n)
            .field("m", &self.meta.m)
            .field("mmap", &self.mapping.is_mmap())
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
        let path = path.as_ref().to_path_buf();
        let backend = FileBackend::open(&path)?;
        Self::open_backend_at(Box::new(backend), path, options)
    }

    /// Opens a `.tpg` container through a caller-provided backend — the seam the
    /// fault-injection harness uses. Backends that do not expose a mappable file
    /// (the fault injector among them) are served by the heap fallback, so the
    /// injected fault schedule covers every byte of the open, data section included.
    pub fn open_with_backend(
        backend: Box<dyn StorageBackend>,
        options: &PagedGraphOptions,
    ) -> Result<Self, IoError> {
        Self::open_backend_at(backend, PathBuf::from("<storage backend>"), options)
    }

    fn open_backend_at(
        backend: Box<dyn StorageBackend>,
        path: PathBuf,
        options: &PagedGraphOptions,
    ) -> Result<Self, IoError> {
        // Same open discipline as the paged backend: each verified section is its
        // own retry unit, and format/corruption errors retry too (a corrupt read
        // parses into nonsense only a clean re-read can acquit).
        let mut open_retries = 0u64;
        let meta = retry_section(&options.retry, &mut open_retries, || {
            read_tpg_meta_backend(backend.as_ref())
        })?;
        let (offsets, node_weights, checksums) =
            read_tpg_index_backend(backend.as_ref(), &meta, &options.retry, &mut open_retries)?;
        // In-place decoding has no per-access range checks; it relies on the index read
        // above having been proven monotone within (and covering) the data section.
        // Verify the whole data section through the backend (block crcs, per-chunk
        // retry). For a plain-file backend the verified bytes are then mapped
        // zero-copy; anything else keeps the verified heap copy.
        let mapped = match backend.as_file() {
            Some(file) => {
                verify_or_load_data(
                    backend.as_ref(),
                    &meta,
                    &checksums,
                    &options.retry,
                    &mut open_retries,
                    None,
                )?;
                Mapping::try_map(file, &meta)
            }
            None => None,
        };
        let mapping = match mapped {
            Some(mapping) => mapping,
            None => {
                let mut data = Vec::new();
                verify_or_load_data(
                    backend.as_ref(),
                    &meta,
                    &checksums,
                    &options.retry,
                    &mut open_retries,
                    Some(&mut data),
                )?;
                Mapping::Heap(data)
            }
        };
        let charged = mapping.size_in_bytes()
            + offsets.size_in_bytes()
            + node_weights.len() * std::mem::size_of::<NodeWeight>();
        memtrack::global().add(charged);
        Ok(Self {
            meta,
            path,
            offsets,
            node_weights,
            mapping,
            charged,
            open_retries,
        })
    }

    /// The container header this graph was opened from.
    pub fn meta(&self) -> &TpgMeta {
        &self.meta
    }

    /// Path of the backing container file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The compression configuration of the stored neighbourhoods.
    pub fn config(&self) -> &CompressionConfig {
        &self.meta.config
    }

    /// Whether neighbourhoods decode from a real memory mapping (`false`: the heap
    /// fallback for file-less backends and unsupported platforms).
    pub fn is_mmap(&self) -> bool {
        self.mapping.is_mmap()
    }

    /// Bytes charged to the memory accounting: the mapping (whole file) or heap copy
    /// (data section), plus the offset index and node weights.
    pub fn accounted_bytes(&self) -> usize {
        self.charged
    }

    /// Size in bytes of the uncompressed CSR form of the stored graph.
    pub fn csr_size_in_bytes(&self) -> usize {
        self.meta.csr_size_in_bytes()
    }

    fn data(&self) -> &[u8] {
        self.mapping.data()
    }

    /// Decoded header `(first_edge, degree)` of `u`'s neighbourhood.
    fn header(&self, u: NodeId) -> (EdgeId, usize) {
        let (start, end) = self.offsets.pair(u as usize);
        if start == end {
            return (0, 0);
        }
        let (first_edge, degree, _) = decode_neighborhood_header(self.data(), start as usize);
        (first_edge, degree)
    }

    /// ID of the first half-edge of `u`'s neighbourhood.
    pub fn first_edge(&self, u: NodeId) -> EdgeId {
        self.header(u).0
    }
}

impl Drop for MmapGraph {
    fn drop(&mut self) {
        memtrack::global().sub(self.charged);
    }
}

impl Graph for MmapGraph {
    fn n(&self) -> usize {
        self.meta.n
    }

    fn m(&self) -> usize {
        self.meta.m
    }

    fn degree(&self, u: NodeId) -> usize {
        self.header(u).1
    }

    fn node_weight(&self, u: NodeId) -> NodeWeight {
        if self.node_weights.is_empty() {
            1
        } else {
            self.node_weights[u as usize]
        }
    }

    fn total_node_weight(&self) -> NodeWeight {
        self.meta.total_node_weight
    }

    fn total_edge_weight(&self) -> EdgeWeight {
        self.meta.total_edge_weight
    }

    fn for_each_neighbor(&self, u: NodeId, f: &mut dyn FnMut(NodeId, EdgeWeight)) {
        let (start, end) = self.offsets.pair(u as usize);
        if start == end {
            return;
        }
        // Same decode routine, same byte stream, same order as CompressedGraph and
        // PagedGraph — which is what keeps fixed-seed runs bit-identical across
        // backends.
        decode_neighborhood(
            self.data(),
            start as usize,
            u,
            self.meta.edge_weighted,
            &self.meta.config,
            f,
        );
    }

    fn is_edge_weighted(&self) -> bool {
        self.meta.edge_weighted
    }

    fn is_node_weighted(&self) -> bool {
        !self.node_weights.is_empty()
    }

    fn max_degree(&self) -> usize {
        self.meta.max_degree
    }

    fn record_obs_metrics(&self, metrics: &obs::MetricsRegistry) {
        use obs::Counter;
        metrics.add(Counter::MmapOpens, 1);
        metrics.record_max(
            Counter::MmapMappedBytes,
            self.mapping.size_in_bytes() as u64,
        );
        metrics.record_max(
            Counter::MmapOffsetIndexBytes,
            self.offsets.size_in_bytes() as u64,
        );
        metrics.add(Counter::MmapOpenRetriedReads, self.open_retries);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::compressed::CompressedGraph;
    use crate::gen;
    use crate::store::container::write_tpg_from_graph;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "terapart_mmap_test_{}_{}",
            std::process::id(),
            name
        ));
        p
    }

    fn assert_matches(mmap: &MmapGraph, reference: &impl Graph) {
        assert_eq!(mmap.n(), reference.n());
        assert_eq!(mmap.m(), reference.m());
        assert_eq!(mmap.total_node_weight(), reference.total_node_weight());
        assert_eq!(mmap.total_edge_weight(), reference.total_edge_weight());
        assert_eq!(mmap.max_degree(), reference.max_degree());
        for u in 0..reference.n() as NodeId {
            assert_eq!(mmap.degree(u), reference.degree(u), "degree of {}", u);
            assert_eq!(mmap.node_weight(u), reference.node_weight(u));
            assert_eq!(
                mmap.neighbors_vec(u),
                reference.neighbors_vec(u),
                "neighbourhood of {}",
                u
            );
        }
    }

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
        let mmap = MmapGraph::open(&path).unwrap();
        assert!(mmap.is_mmap() || cfg!(not(unix)));
        assert_matches(&mmap, &compressed);
        assert_eq!(mmap.first_edge(3), compressed.first_edge(3));
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
