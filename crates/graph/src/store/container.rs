//! The `.tpg` on-disk container format and its streaming writer.
//!
//! # Layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "TPGS"
//! 4       4     version (u32, always 7 — the reader accepts nothing else)
//! 8       4     flags   (bit 0: edge weighted, bit 1: node weighted,
//!                        bit 2: interval encoding; every other bit must be zero)
//! 12      1     id width in bytes the writer was built with (4 or 8)
//! 13      1     log2 of the checksum block length B
//! 14      2     reserved (zero)
//! 16      8     n (vertices)
//! 24      8     m (undirected edges)
//! 32      8     total node weight
//! 40      8     total edge weight
//! 48      8     max degree
//! 56      8     data section length in bytes
//! 64      8     offset index length in bytes, within [n, 10·n]
//! 72      —     data section: concatenated encoded neighbourhoods, each its degree
//!               and one interval/residual walk (identical byte format to the
//!               in-memory CompressedGraph, whose interval length is a constant of
//!               the format and not recorded here)
//! …       —     offset index: the byte length of each of the n neighbourhoods, in
//!               vertex order, as a VarInt (`crate::varint`); their prefix sums are the
//!               offsets into the data section every store looks neighbourhoods up in
//! …       —     node weights: n u64 values, present iff flag bit 1 is set
//! …       —     checksum footer:
//!                 magic "TPGC" (4 bytes)
//!                 per-block crc32 of the data section, ceil(data_len / B) u32 values
//!                 crc32 of the offset index (4 bytes)
//!                 crc32 of the node-weight section (4 bytes; crc of zero bytes when
//!                   the section is absent)
//!                 crc32 of the final 72-byte header (4 bytes)
//! ```
//!
//! The offset index, node weights and checksum footer sit *after* the data section so
//! [`TpgWriter`] can stream neighbourhoods straight to disk behind a fixed-size header
//! placeholder and only write the header once, at [`TpgWriter::finish`], when the
//! totals (and the header checksum) are known. The writer's live memory is the offset
//! index under construction, in the VarInt bytes it is written as, plus one encode
//! buffer and one crc per data block — `O(n + max_degree + data_len / B)` bytes, never
//! `O(m)` — which is what lets instances larger than the memory be produced and
//! consumed.
//!
//! Version 7 dropped two fields of every neighbourhood that no reader used: the ID of
//! its first half-edge, and the table of chunk lengths in front of a neighbourhood of
//! more than 10 000 neighbours, which was split into chunks of 1 000. Version 6 and
//! older files are refused with a request to regenerate them.
//!
//! # Fault tolerance
//!
//! Every section of a container is covered by a crc32: the data section at block
//! granularity (so the paged reader can verify exactly the pages it touches), the
//! offset index, the node weights and the header itself. Verification failures surface
//! as [`IoError::Corrupt`] — never a panic and never a silently wrong graph. The
//! writer is crash-safe: it streams into a hidden temp file in the destination
//! directory and atomically renames it over the destination only after `fsync`
//! succeeds, so a crashed or failed write can never leave a truncated `.tpg` under the
//! destination name.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::checksum::{crc32, Crc32};
use crate::compressed::{
    Bytes, CompressedGraph, CompressionConfig, EncodedSection, SectionEncoder,
    MIN_NEIGHBORHOOD_BYTES,
};
use crate::csr::{plain_csr_bytes, CsrGraph};
use crate::ids::{self, IdWidth};
use crate::io::{
    checked_node_count, open_error_is_retryable, read_exact_u32, read_exact_u64, BinaryReader,
    IoError, MetisReader, VertexStream,
};
use crate::packed::{store, width_for, PackedArray, TAIL_PADDING};
use crate::store::backend::{read_full_at, FileBackend, StorageBackend};
use crate::store::mmap::try_map;
use crate::store::paged::RetryPolicy;
use crate::traits::Graph;
use crate::varint::{try_decode_varint, MAX_VARINT_LEN};
use crate::{EdgeId, EdgeWeight, NodeId, NodeWeight};

/// Magic bytes of the `.tpg` container.
pub const TPG_MAGIC: &[u8; 4] = b"TPGS";
/// Container format version: the only one the writer emits and the reader accepts.
/// Every container in this repository is regenerable, so files stamped with an
/// earlier version are rejected rather than upgraded.
pub const TPG_VERSION: u32 = 7;
/// Size of the fixed header in bytes.
pub const TPG_HEADER_LEN: u64 = 72;
/// Magic bytes of the checksum footer.
pub const TPG_FOOTER_MAGIC: &[u8; 4] = b"TPGC";
/// Default checksum block length of the data section: 4 KiB, the OS page and the
/// smallest page the paged reader is run with. The paged reader rounds its page size up
/// to whole blocks, so a page miss reads and verifies exactly its own page. The footer
/// costs 4 B per block (0.1 % of the data section). Readers accept any block length the
/// header records.
pub const TPG_CHECKSUM_BLOCK_LEN: usize = 4 * 1024;
/// Admissible log2 range of the checksum block length (64 B .. 1 GiB).
const TPG_BLOCK_LOG2_RANGE: std::ops::RangeInclusive<u32> = 6..=30;

const FLAG_EDGE_WEIGHTED: u32 = 1 << 0;
const FLAG_NODE_WEIGHTED: u32 = 1 << 1;
const FLAG_INTERVALS: u32 = 1 << 2;
/// Every flag bit the format defines; a header with any other bit set is rejected.
const KNOWN_FLAGS: u32 = FLAG_EDGE_WEIGHTED | FLAG_NODE_WEIGHTED | FLAG_INTERVALS;

/// Parsed `.tpg` header plus derived section positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TpgMeta {
    /// ID width in bytes the writer was built with (4 or 8). Advisory: the data
    /// section is VarInt-encoded and therefore width-agnostic, so any file whose
    /// vertex count fits the active build's width can be read regardless of this
    /// value.
    pub id_width: u8,
    /// Number of vertices.
    pub n: usize,
    /// Number of undirected edges.
    pub m: usize,
    /// Whether the graph carries non-uniform edge weights.
    pub edge_weighted: bool,
    /// Whether the graph carries non-uniform node weights.
    pub node_weighted: bool,
    /// Sum of all node weights.
    pub total_node_weight: NodeWeight,
    /// Sum of all edge weights (each undirected edge counted once).
    pub total_edge_weight: EdgeWeight,
    /// Maximum vertex degree.
    pub max_degree: usize,
    /// Compression configuration the data section was encoded with (whether it holds
    /// intervals).
    pub config: CompressionConfig,
    /// Length of the encoded data section in bytes.
    pub data_len: u64,
    /// Length of the offset-index section in bytes: one VarInt per vertex, so within
    /// `[n, 10·n]`.
    pub index_len: u64,
    /// Checksum block length of the data section.
    pub checksum_block_len: u32,
}

impl TpgMeta {
    /// Byte offset of the data section within the file.
    pub fn data_start(&self) -> u64 {
        TPG_HEADER_LEN
    }

    /// Byte offset of the offset index within the file.
    pub fn offsets_start(&self) -> u64 {
        TPG_HEADER_LEN + self.data_len
    }

    /// Byte offset of the node-weight section within the file (meaningful only when
    /// `node_weighted`).
    pub fn node_weights_start(&self) -> u64 {
        self.offsets_start() + self.index_len
    }

    /// Number of checksum blocks covering the data section.
    pub fn checksum_block_count(&self) -> u64 {
        self.data_len.div_ceil(u64::from(self.checksum_block_len))
    }

    /// Byte offset of the checksum footer.
    pub fn footer_start(&self) -> u64 {
        self.node_weights_start()
            + if self.node_weighted {
                8 * self.n as u64
            } else {
                0
            }
    }

    /// Length of the checksum footer in bytes.
    pub fn footer_len(&self) -> u64 {
        4 + 4 * self.checksum_block_count() + 12
    }

    /// Byte offset of the stored header crc32 (the last 4 bytes of the footer).
    pub(crate) fn header_crc_pos(&self) -> u64 {
        self.footer_start() + self.footer_len() - 4
    }

    /// Size in bytes of the stored graph as a plain, uncompressed CSR
    /// ([`plain_csr_bytes`]) — the reference point of the memory-ladder experiments.
    pub fn csr_size_in_bytes(&self) -> usize {
        plain_csr_bytes(self.n, self.m, self.edge_weighted, self.node_weighted)
    }
}

/// Summary returned by [`TpgWriter::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TpgSummary {
    /// Number of vertices written.
    pub n: usize,
    /// Number of undirected edges written.
    pub m: usize,
    /// Bytes of the encoded data section.
    pub data_bytes: u64,
    /// Total size of the container file.
    pub file_bytes: u64,
}

/// Flush threshold of the writer's append buffer.
const WRITER_FLUSH_LEN: usize = 256 * 1024;

/// Process-wide counter making concurrent writers' temp-file names unique.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Hidden temp-file path in the destination's directory (same filesystem, so the
/// commit rename is atomic).
fn temp_path_for(dst: &Path) -> Result<PathBuf, IoError> {
    let name = dst
        .file_name()
        .ok_or_else(|| IoError::Format(format!(".tpg path {:?} has no file name", dst)))?;
    let id = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    Ok(dst.with_file_name(format!(
        ".{}.tmp.{}.{}",
        name.to_string_lossy(),
        std::process::id(),
        id
    )))
}

/// The container file on its way to disk: an append buffer in front of the backend,
/// and the streaming per-block crc of the data section.
struct FileSink {
    out: Box<dyn StorageBackend>,
    /// Append buffer between the encode path and the backend.
    buf: Vec<u8>,
    /// Checksum block length of the data section.
    block_len: usize,
    /// Completed per-block crc32 values of the data section.
    block_crcs: Vec<u32>,
    /// Streaming crc of the block currently being filled.
    block_crc: Crc32,
    /// Bytes absorbed into `block_crc` so far.
    block_fill: usize,
}

impl FileSink {
    /// Buffers `bytes` for appending; flushes to the backend past the threshold.
    fn write(&mut self, bytes: &[u8]) -> Result<(), IoError> {
        self.buf.extend_from_slice(bytes);
        if self.buf.len() >= WRITER_FLUSH_LEN {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), IoError> {
        if !self.buf.is_empty() {
            self.out.append(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Appends data-section bytes, folding them into the per-block streaming crc: the
    /// one pass of the crc over every data byte.
    fn write_data(&mut self, bytes: &[u8]) -> Result<(), IoError> {
        let mut rest = bytes;
        while !rest.is_empty() {
            let room = self.block_len - self.block_fill;
            let take = room.min(rest.len());
            self.block_crc.update(&rest[..take]);
            self.block_fill += take;
            if self.block_fill == self.block_len {
                self.block_crcs.push(self.block_crc.take());
                self.block_fill = 0;
            }
            rest = &rest[take..];
        }
        self.write(bytes)
    }
}

/// Streaming `.tpg` writer: feed neighbourhoods in vertex order, then [`finish`].
///
/// Each neighbourhood arrives through [`push_neighborhood`], is encoded here, streams
/// its bytes to the data section and is committed to the running totals through
/// `EncodedSection::absorb`, which appends its length to the offset index as the
/// VarInt [`finish`] writes.
///
/// The path-based constructor is crash-safe: bytes stream into a hidden temp file next
/// to the destination and the destination only comes into existence through an atomic
/// rename after a successful `fsync` in [`finish`]. Dropping an unfinished writer (or
/// any error path) removes the temp file, so no partial container ever leaks.
///
/// [`finish`]: TpgWriter::finish
/// [`push_neighborhood`]: TpgWriter::push_neighborhood
pub struct TpgWriter {
    file: FileSink,
    /// Temp and destination paths of the crash-safe path-based writer; `None` when
    /// writing to a caller-provided backend.
    paths: Option<(PathBuf, PathBuf)>,
    committed: bool,
    n: usize,
    /// What the committed neighbourhoods add up to, and their lengths; their bytes are
    /// already on disk.
    totals: EncodedSection,
    /// Encodes each pushed neighbourhood (and holds the config and the edge-weight
    /// flag).
    encoder: SectionEncoder,
}

impl TpgWriter {
    /// Creates a writer for a graph with `n` vertices at `path`. `edge_weighted`
    /// declares whether the neighbourhoods that will be pushed carry meaningful weights.
    pub fn create(
        path: impl AsRef<Path>,
        n: usize,
        edge_weighted: bool,
        config: &CompressionConfig,
    ) -> Result<Self, IoError> {
        let dst = path.as_ref().to_path_buf();
        let tmp = temp_path_for(&dst)?;
        let backend = FileBackend::create(&tmp)?;
        Self::with_backend(
            Box::new(backend),
            Some((tmp, dst)),
            n,
            edge_weighted,
            config,
        )
    }

    /// Creates a writer streaming into a caller-provided backend (no temp file or
    /// commit rename — the fault-injection seam). The backend must be empty.
    pub fn create_with_backend(
        out: Box<dyn StorageBackend>,
        n: usize,
        edge_weighted: bool,
        config: &CompressionConfig,
    ) -> Result<Self, IoError> {
        Self::with_backend(out, None, n, edge_weighted, config)
    }

    fn with_backend(
        out: Box<dyn StorageBackend>,
        paths: Option<(PathBuf, PathBuf)>,
        n: usize,
        edge_weighted: bool,
        config: &CompressionConfig,
    ) -> Result<Self, IoError> {
        checked_node_count(n, ".tpg vertex count")?;
        Ok(Self {
            file: FileSink {
                out,
                // Placeholder header, overwritten in `finish` once the totals are known.
                buf: vec![0u8; TPG_HEADER_LEN as usize],
                block_len: TPG_CHECKSUM_BLOCK_LEN,
                block_crcs: Vec::new(),
                block_crc: Crc32::new(),
                block_fill: 0,
            },
            paths,
            committed: false,
            n,
            totals: EncodedSection::with_capacity(0, n),
            encoder: SectionEncoder::new(0, edge_weighted, config),
        })
    }

    /// Overrides the checksum block length (must be a power of two in the format's
    /// admissible range, before any neighbourhood is pushed). Smaller blocks mean
    /// finer-grained corruption detection at the cost of a larger footer.
    pub fn with_checksum_block_len(mut self, block_len: usize) -> Self {
        assert!(
            block_len.is_power_of_two()
                && TPG_BLOCK_LOG2_RANGE.contains(&block_len.trailing_zeros()),
            "checksum block length {} not a power of two in 2^{}..=2^{}",
            block_len,
            TPG_BLOCK_LOG2_RANGE.start(),
            TPG_BLOCK_LOG2_RANGE.end(),
        );
        assert_eq!(
            self.totals.vertices, 0,
            "checksum block length must be set before pushing neighbourhoods"
        );
        self.file.block_len = block_len;
        self
    }

    /// Appends the neighbourhood of the next vertex (vertices must be pushed in ID
    /// order). `neighbors` must be sorted by neighbour ID and free of duplicates and
    /// self-loops; `node_weight` is the vertex's weight (1 for uniform graphs).
    pub fn push_neighborhood(
        &mut self,
        u: NodeId,
        neighbors: &[(NodeId, EdgeWeight)],
        node_weight: NodeWeight,
    ) -> Result<(), IoError> {
        let next = self.totals.vertices;
        assert_eq!(
            u as usize, next,
            "neighbourhoods must be pushed in vertex order"
        );
        assert!(next < self.n, "vertex {} out of range", u);
        self.encoder.restart(next);
        self.encoder.push_neighborhood(u, neighbors, node_weight);
        self.file.write_data(&self.encoder.section.bytes)?;
        self.totals.absorb(&self.encoder.section);
        Ok(())
    }

    /// Pushes every neighbourhood of `graph` (sorted, so the container is canonical
    /// regardless of the source's iteration order) into a writer that has none yet,
    /// then [`finish`](TpgWriter::finish)es it.
    pub fn write_graph(mut self, graph: &impl Graph) -> Result<TpgSummary, IoError> {
        let mut nbrs = Vec::new();
        for u in 0..graph.n() as NodeId {
            nbrs.clear();
            graph.for_each_neighbor(u, &mut |v, w| nbrs.push((v, w)));
            nbrs.sort_unstable_by_key(|&(v, _)| v);
            self.push_neighborhood(u, &nbrs, graph.node_weight(u))?;
        }
        self.finish()
    }

    /// Writes the offset index, node weights and checksum footer, writes the header,
    /// syncs the file and — for path-based writers — atomically renames the temp file
    /// over the destination.
    pub fn finish(mut self) -> Result<TpgSummary, IoError> {
        let totals = std::mem::take(&mut self.totals);
        assert_eq!(
            totals.vertices, self.n,
            "expected {} vertices, got {}",
            self.n, totals.vertices
        );
        let data_len = totals.data_len;
        let file = &mut self.file;
        // Seal the final partial data block.
        if file.block_fill > 0 {
            file.block_crcs.push(file.block_crc.take());
            file.block_fill = 0;
        }
        let index = &totals.lengths;
        file.write(index)?;
        // The node weights are empty iff every weight is 1.
        let node_weighted = !totals.node_weights.is_empty();
        let mut weights_crc = Crc32::new();
        for &w in &totals.node_weights {
            let bytes = w.to_le_bytes();
            weights_crc.update(&bytes);
            file.write(&bytes)?;
        }
        let mut flags = 0;
        if self.encoder.edge_weighted {
            flags |= FLAG_EDGE_WEIGHTED;
        }
        if node_weighted {
            flags |= FLAG_NODE_WEIGHTED;
        }
        if self.encoder.config.enable_intervals {
            flags |= FLAG_INTERVALS;
        }
        let mut header = Vec::with_capacity(TPG_HEADER_LEN as usize);
        header.extend_from_slice(TPG_MAGIC);
        header.extend_from_slice(&TPG_VERSION.to_le_bytes());
        header.extend_from_slice(&flags.to_le_bytes());
        // Byte 0 the writer's id width, byte 1 the log2 of the checksum block length,
        // two reserved zero bytes.
        let block_log2 = file.block_len.trailing_zeros() as u8;
        header.extend_from_slice(&[ids::NODE_ID_BYTES, block_log2, 0, 0]);
        header.extend_from_slice(&(self.n as u64).to_le_bytes());
        header.extend_from_slice(&((totals.half_edges / 2) as u64).to_le_bytes());
        header.extend_from_slice(&totals.total_node_weight.to_le_bytes());
        header.extend_from_slice(&(totals.total_edge_weight / 2).to_le_bytes());
        header.extend_from_slice(&(totals.max_degree as u64).to_le_bytes());
        header.extend_from_slice(&data_len.to_le_bytes());
        header.extend_from_slice(&(index.len() as u64).to_le_bytes());
        debug_assert_eq!(header.len() as u64, TPG_HEADER_LEN);
        // Checksum footer: per-block data crcs, section crcs, then the header crc
        // (computable only now that the header bytes are final).
        let block_crcs = std::mem::take(&mut file.block_crcs);
        file.write(TPG_FOOTER_MAGIC)?;
        for &c in &block_crcs {
            file.write(&c.to_le_bytes())?;
        }
        file.write(&crc32(index).to_le_bytes())?;
        file.write(&weights_crc.finalize().to_le_bytes())?;
        file.write(&crc32(&header).to_le_bytes())?;
        file.flush()?;
        file.out.write_at(0, &header)?;
        // fsync before the commit rename: the destination name must never refer to
        // bytes that could still be lost in the page cache.
        file.out.sync()?;
        let file_bytes = file.out.len()?;
        if let Some((tmp, dst)) = self.paths.take() {
            std::fs::rename(&tmp, &dst)?;
        }
        self.committed = true;
        Ok(TpgSummary {
            n: self.n,
            m: totals.half_edges / 2,
            data_bytes: data_len,
            file_bytes,
        })
    }
}

impl Drop for TpgWriter {
    fn drop(&mut self) {
        // An unfinished (or failed) path-based writer removes its temp file so error
        // paths never leak partial containers.
        if !self.committed {
            if let Some((tmp, _)) = &self.paths {
                let _ = std::fs::remove_file(tmp);
            }
        }
    }
}

/// Reads and validates the header of a `.tpg` file (including the stored header crc32).
pub fn read_tpg_meta(path: impl AsRef<Path>) -> Result<TpgMeta, IoError> {
    let backend = FileBackend::open(path)?;
    read_tpg_meta_backend(&backend)
}

/// Backend-generic [`read_tpg_meta`]: parses the header and verifies it against the
/// crc32 stored in the checksum footer, so any flipped header bit — including one in
/// the version or length fields the footer position itself is derived from — surfaces
/// as a structured error rather than garbage section offsets.
pub fn read_tpg_meta_backend(backend: &dyn StorageBackend) -> Result<TpgMeta, IoError> {
    let mut header = [0u8; TPG_HEADER_LEN as usize];
    read_full_at(backend, &mut header, 0)?;
    let meta = read_meta_from(&mut &header[..])?;
    let mut stored = [0u8; 4];
    read_full_at(backend, &mut stored, meta.header_crc_pos())?;
    let stored = u32::from_le_bytes(stored);
    let computed = crc32(&header);
    if computed != stored {
        return Err(IoError::Corrupt(format!(
            ".tpg header checksum mismatch: stored {:#010x}, computed {:#010x}",
            stored, computed
        )));
    }
    Ok(meta)
}

fn read_meta_from(r: &mut impl Read) -> Result<TpgMeta, IoError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != TPG_MAGIC {
        return Err(IoError::Format("bad .tpg magic".into()));
    }
    let version = read_exact_u32(r)?;
    if version != TPG_VERSION {
        return Err(IoError::Format(format!(
            "unsupported .tpg version {} (this build reads version {} only; \
             regenerate the container)",
            version, TPG_VERSION
        )));
    }
    let flags = read_exact_u32(r)?;
    if flags & !KNOWN_FLAGS != 0 {
        return Err(IoError::Format(format!(
            "unknown .tpg flag bits {:#x} (this build defines bits 0-2 only)",
            flags & !KNOWN_FLAGS
        )));
    }
    // Byte 0: the writer's id width; byte 1: log2 of the checksum block length; the
    // remaining two bytes are reserved and must be zero.
    let reserved = read_exact_u32(r)?;
    let id_width = match (reserved & 0xff) as u8 {
        w @ (<u32 as IdWidth>::BYTES | <u64 as IdWidth>::BYTES) => w,
        other => {
            return Err(IoError::Format(format!(
                "unsupported .tpg id width {} bytes",
                other
            )))
        }
    };
    let block_log2 = (reserved >> 8) & 0xff;
    if !TPG_BLOCK_LOG2_RANGE.contains(&block_log2) {
        return Err(IoError::Format(format!(
            "unsupported .tpg checksum block length 2^{}",
            block_log2
        )));
    }
    if reserved >> 16 != 0 {
        return Err(IoError::Format(format!(
            "non-zero reserved bytes {:#x} in the .tpg header",
            reserved >> 16
        )));
    }
    let n = read_exact_u64(r)? as usize;
    // The data section is width-agnostic (VarInt gaps), so the only hard requirement
    // is that every vertex id is representable at the *active* width.
    checked_node_count(n, ".tpg vertex count")?;
    let m = read_exact_u64(r)? as usize;
    let total_node_weight = read_exact_u64(r)?;
    let total_edge_weight = read_exact_u64(r)?;
    let max_degree = read_exact_u64(r)? as usize;
    let data_len = read_exact_u64(r)?;
    let index_len = read_exact_u64(r)?;
    let max_index_len = (n as u64).saturating_mul(MAX_VARINT_LEN as u64);
    if !(n as u64..=max_index_len).contains(&index_len) {
        return Err(IoError::Format(format!(
            ".tpg offset index of {} bytes for {} vertices: outside [n, {}·n]",
            index_len, n, MAX_VARINT_LEN
        )));
    }
    Ok(TpgMeta {
        id_width,
        n,
        m,
        edge_weighted: flags & FLAG_EDGE_WEIGHTED != 0,
        node_weighted: flags & FLAG_NODE_WEIGHTED != 0,
        total_node_weight,
        total_edge_weight,
        max_degree,
        config: CompressionConfig {
            enable_intervals: flags & FLAG_INTERVALS != 0,
        },
        data_len,
        index_len,
        checksum_block_len: 1u32 << block_log2,
    })
}

/// The per-block data-section checksums of an open container, held by readers that
/// verify pages incrementally (the paged graph).
#[derive(Debug, Clone)]
pub(crate) struct TpgChecksums {
    /// Block length the data section was checksummed at.
    pub(crate) block_len: u32,
    /// crc32 of each `block_len`-sized data block (the last one may be shorter).
    pub(crate) blocks: Vec<u32>,
}

/// Decodes a little-endian u32 from the first 4 bytes of `bytes`.
fn le_u32(bytes: &[u8]) -> u32 {
    let mut raw = [0u8; 4];
    raw.copy_from_slice(&bytes[..4]);
    u32::from_le_bytes(raw)
}

/// Decodes a little-endian u64 from the first 8 bytes of `bytes`.
fn le_u64(bytes: &[u8]) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(raw)
}

/// Chunk size of the section readers: large enough to amortise syscalls, small enough
/// to keep the transient buffer out of the accounted budget's way.
const SECTION_READ_CHUNK: usize = 64 * 1024;

/// Reads `count` little-endian u64 values starting at `start`, folding the raw bytes
/// into `crc`.
fn read_u64_section(
    backend: &dyn StorageBackend,
    start: u64,
    count: usize,
    crc: &mut Crc32,
) -> Result<Vec<u64>, IoError> {
    let mut out = Vec::with_capacity(count);
    let mut chunk = vec![0u8; SECTION_READ_CHUNK.min(count.max(1) * 8)];
    let mut offset = start;
    let mut remaining = count;
    while remaining > 0 {
        let take = remaining.min(chunk.len() / 8);
        let bytes = &mut chunk[..take * 8];
        read_full_at(backend, bytes, offset)?;
        crc.update(bytes);
        for i in 0..take {
            out.push(le_u64(&bytes[i * 8..]));
        }
        offset += (take * 8) as u64;
        remaining -= take;
    }
    Ok(out)
}

/// Reads `count` little-endian u32 values starting at `start`.
fn read_u32_section(
    backend: &dyn StorageBackend,
    start: u64,
    count: usize,
) -> Result<Vec<u32>, IoError> {
    let mut out = Vec::with_capacity(count);
    let mut chunk = vec![0u8; SECTION_READ_CHUNK.min(count.max(1) * 4)];
    let mut offset = start;
    let mut remaining = count;
    while remaining > 0 {
        let take = remaining.min(chunk.len() / 4);
        let bytes = &mut chunk[..take * 4];
        read_full_at(backend, bytes, offset)?;
        for i in 0..take {
            out.push(le_u32(&bytes[i * 4..]));
        }
        offset += (take * 4) as u64;
        remaining -= take;
    }
    Ok(out)
}

/// Offset index, node weights and checksum footer of an open container.
pub(crate) type TpgIndexParts = (PackedArray, Vec<NodeWeight>, TpgChecksums);

/// Runs `op` under `retry`: a failure `is_transient` admits is re-attempted after an
/// exponential backoff, up to `retry.max_retries` times, calling `on_retry` before
/// each re-attempt. The one retry loop of the store layer — open-time section reads
/// and page faults differ only in which errors they consider worth a second look.
pub(crate) fn retry_with_backoff<T, E>(
    retry: &RetryPolicy,
    is_transient: impl Fn(&E) -> bool,
    mut on_retry: impl FnMut(),
    mut op: impl FnMut() -> Result<T, E>,
) -> Result<T, E> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                if attempt >= retry.max_retries || !is_transient(&e) {
                    return Err(e);
                }
                on_retry();
                std::thread::sleep(retry.delay_for(attempt));
                attempt += 1;
            }
        }
    }
}

/// Runs one retryable unit of the open path under `retry`, re-attempting every
/// failure [`open_error_is_retryable`] admits (transient I/O *and* checksum or
/// format errors — corrupt reads parse into arbitrary nonsense, so only a clean
/// re-read can acquit the bytes). Retries taken are added to `retries`.
pub(crate) fn retry_section<T>(
    retry: &RetryPolicy,
    retries: &mut u64,
    op: impl FnMut() -> Result<T, IoError>,
) -> Result<T, IoError> {
    retry_with_backoff(retry, open_error_is_retryable, || *retries += 1, op)
}

/// Decodes the offset-index section — one VarInt byte length per vertex — into the
/// `n + 1` packed offsets every store looks neighbourhoods up in, proving what the stores
/// then read without a range check: every length is a well-formed VarInt of at least the
/// [`MIN_NEIGHBORHOOD_BYTES`] of a neighbourhood's degree, and the lengths use up the
/// section exactly and sum to `data_len`. A length of zero would let a vertex start at
/// `data_len`, which the stores would read as degree 0 or past the data section.
pub(crate) fn decode_offset_index(
    section: &[u8],
    n: usize,
    data_len: u64,
) -> Result<PackedArray, IoError> {
    let width = width_for(data_len);
    let mut offsets = Vec::with_capacity((n + 1) * width + TAIL_PADDING);
    offsets.resize((n + 1) * width, 0);
    let (mut pos, mut end) = (0, 0u64);
    for (u, entry) in offsets.chunks_exact_mut(width).skip(1).enumerate() {
        let (len, next) = try_decode_varint(section, pos).ok_or_else(|| {
            IoError::Format(format!(
                "offset index: the length of vertex {} is not a VarInt of at most {} bytes",
                u, MAX_VARINT_LEN
            ))
        })?;
        if len < MIN_NEIGHBORHOOD_BYTES || len > data_len - end {
            return Err(IoError::Format(format!(
                "offset index gives vertex {} {} bytes, fewer than a degree \
                 or more than the data section has left",
                u, len
            )));
        }
        end += len;
        pos = next;
        store(entry, end);
    }
    if pos != section.len() || end != data_len {
        return Err(IoError::Format(format!(
            "offset index lengths use {} of its {} bytes and cover {} of the {}-byte data \
             section",
            pos,
            section.len(),
            end,
            data_len
        )));
    }
    Ok(PackedArray::narrowed(offsets, width, data_len))
}

/// Reads the offset index, (optional) node weights and the checksum footer of an open
/// `.tpg` container, verifying the index and weight sections against their stored crcs.
///
/// Each section is read, verified and *retried* as its own unit (footer first, so the
/// stored crcs are in hand when the sections they cover arrive): under a flaky
/// backend, a fault in one section only re-reads that section, which keeps the
/// whole-open success probability high where an all-or-nothing retry of the full
/// header/index chain would almost never see a fault-free pass. Retries taken are
/// added to `retries`.
pub(crate) fn read_tpg_index_backend(
    backend: &dyn StorageBackend,
    meta: &TpgMeta,
    retry: &RetryPolicy,
    retries: &mut u64,
) -> Result<TpgIndexParts, IoError> {
    // Footer first: magic, per-block data crcs and the stored section crcs.
    let (checksums, stored_offsets, stored_weights) = retry_section(retry, retries, || {
        let mut pos = meta.footer_start();
        let mut magic = [0u8; 4];
        read_full_at(backend, &mut magic, pos)?;
        if &magic != TPG_FOOTER_MAGIC {
            return Err(IoError::Format("missing .tpg checksum footer".into()));
        }
        pos += 4;
        let count = meta.checksum_block_count() as usize;
        let blocks = read_u32_section(backend, pos, count)?;
        pos += 4 * count as u64;
        let mut tail = [0u8; 12];
        read_full_at(backend, &mut tail, pos)?;
        // tail[8..12] is the header crc, verified at meta-read time.
        Ok((
            TpgChecksums {
                block_len: meta.checksum_block_len,
                blocks,
            },
            le_u32(&tail[0..]),
            le_u32(&tail[4..]),
        ))
    })?;

    let offsets = retry_section(retry, retries, || {
        let mut section = vec![0u8; meta.index_len as usize];
        read_full_at(backend, &mut section, meta.offsets_start())?;
        let computed = crc32(&section);
        if computed != stored_offsets {
            return Err(IoError::Corrupt(format!(
                ".tpg offset index checksum mismatch: stored {:#010x}, computed {:#010x}",
                stored_offsets, computed
            )));
        }
        decode_offset_index(&section, meta.n, meta.data_len)
    })?;

    let node_weights = retry_section(retry, retries, || {
        let mut crc = Crc32::new();
        let weights = if meta.node_weighted {
            read_u64_section(backend, meta.node_weights_start(), meta.n, &mut crc)?
        } else {
            Vec::new()
        };
        let computed = crc.finalize();
        if computed != stored_weights {
            return Err(IoError::Corrupt(format!(
                ".tpg node-weight checksum mismatch: stored {:#010x}, computed {:#010x}",
                stored_weights, computed
            )));
        }
        Ok(weights)
    })?;

    Ok((offsets, node_weights, checksums))
}

/// The first data block of a verified range whose bytes disagree with its stored crc.
#[derive(Debug)]
pub(crate) struct ChecksumMismatch {
    block: u64,
    stored: u32,
    computed: u32,
}

impl std::fmt::Display for ChecksumMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            ".tpg data block {} checksum mismatch: stored {:#010x}, computed {:#010x}",
            self.block, self.stored, self.computed
        )
    }
}

impl std::error::Error for ChecksumMismatch {}

impl From<ChecksumMismatch> for IoError {
    fn from(mismatch: ChecksumMismatch) -> Self {
        IoError::Corrupt(mismatch.to_string())
    }
}

/// Verifies a data-section slice starting at block-aligned byte offset `start`
/// against the per-block crcs. The slice must lie inside the data section, which the
/// footer covers block for block; a partial trailing chunk is only admissible at the
/// end of the section, where the writer checksummed the short block as-is.
pub(crate) fn verify_blocks(
    data: &[u8],
    start: u64,
    checksums: &TpgChecksums,
) -> Result<(), ChecksumMismatch> {
    let block_len = checksums.block_len as usize;
    debug_assert_eq!(start % block_len as u64, 0);
    let first = (start / block_len as u64) as usize;
    for (i, chunk) in data.chunks(block_len).enumerate() {
        let block = first + i;
        let (stored, computed) = (checksums.blocks[block], crc32(chunk));
        if computed != stored {
            return Err(ChecksumMismatch {
                block: block as u64,
                stored,
                computed,
            });
        }
    }
    Ok(())
}

/// Verification chunk target of [`verify_or_load_data`], rounded down to a whole
/// number of checksum blocks.
const DATA_VERIFY_CHUNK: usize = 1024 * 1024;

/// Streams the data section of an open container through the backend in
/// checksum-block-aligned chunks, verifying each chunk against the footer's per-block
/// crcs and optionally loading the bytes into `sink` (a [`read_resident`] that does not
/// map), each chunk read straight into its place. Each chunk is its own retry unit, so a
/// transient fault re-reads only the chunk it hit — and because every byte flows through
/// [`StorageBackend::read_at`], injected fault schedules apply to this path exactly as
/// they do to the paged reader.
pub(crate) fn verify_or_load_data(
    backend: &dyn StorageBackend,
    meta: &TpgMeta,
    checksums: &TpgChecksums,
    retry: &RetryPolicy,
    retries: &mut u64,
    sink: Option<&mut Vec<u8>>,
) -> Result<(), IoError> {
    let block_len = u64::from(checksums.block_len);
    let step = block_len * (DATA_VERIFY_CHUNK as u64 / block_len).max(1);
    let loading = sink.is_some();
    let mut scratch = Vec::new();
    let buf = match sink {
        Some(out) => {
            *out = vec![0u8; meta.data_len as usize];
            out
        }
        None => {
            scratch.resize(step.min(meta.data_len) as usize, 0);
            &mut scratch
        }
    };
    let mut pos = 0u64;
    while pos < meta.data_len {
        let take = step.min(meta.data_len - pos) as usize;
        let at = if loading { pos as usize } else { 0 };
        retry_section(retry, retries, || {
            let bytes = &mut buf[at..at + take];
            read_full_at(backend, bytes, meta.data_start() + pos)?;
            Ok(verify_blocks(bytes, pos, checksums)?)
        })?;
        pos += take as u64;
    }
    Ok(())
}

/// Writes any [`Graph`] into a `.tpg` container. Neighbourhoods are sorted before
/// encoding, so the container is canonical regardless of the source's iteration order.
pub fn write_tpg_from_graph(
    graph: &impl Graph,
    path: impl AsRef<Path>,
    config: &CompressionConfig,
) -> Result<TpgSummary, IoError> {
    TpgWriter::create(path, graph.n(), graph.is_edge_weighted(), config)?.write_graph(graph)
}

/// Converts a METIS text file into a `.tpg` container in one streaming pass: each vertex
/// line is parsed, validated and cleaned by the one METIS reader (see [`crate::io`])
/// and encoded immediately, so no uncompressed adjacency is ever materialised.
pub fn write_tpg_from_metis(
    src: impl AsRef<Path>,
    dst: impl AsRef<Path>,
    config: &CompressionConfig,
) -> Result<TpgSummary, IoError> {
    write_tpg_from_stream(MetisReader::open(src)?, dst, config)
}

/// Converts a binary graph file (see [`crate::io::write_binary`]) into a `.tpg`
/// container with bounded memory: the one binary reader ([`BinaryReader`]) holds
/// `O(n)` and streams the adjacency and its edge weights through two cursors.
pub fn write_tpg_from_binary(
    src: impl AsRef<Path>,
    dst: impl AsRef<Path>,
    config: &CompressionConfig,
) -> Result<TpgSummary, IoError> {
    write_tpg_from_stream(&BinaryReader::open(src)?, dst, config)
}

/// Encodes a validated vertex stream into a `.tpg` container at `dst`. A stream that
/// fails — even after its last vertex — drops the writer, so nothing is published.
fn write_tpg_from_stream(
    input: impl VertexStream,
    dst: impl AsRef<Path>,
    config: &CompressionConfig,
) -> Result<TpgSummary, IoError> {
    let header = input.header();
    let mut writer = TpgWriter::create(dst, header.n, header.edge_weighted, config)?;
    input.stream(&mut |u, node_weight, neighbors| {
        writer.push_neighborhood(u, neighbors, node_weight)
    })?;
    writer.finish()
}

/// Materialises a `.tpg` container as an in-memory [`CsrGraph`] (sequential full read).
/// Intended for tests, instance inspection and the in-memory experiment binaries; the
/// partitioner itself should open a [`PagedGraph`](crate::store::PagedGraph) instead.
pub fn read_tpg(path: impl AsRef<Path>) -> Result<CsrGraph, IoError> {
    let compressed = read_tpg_compressed(path)?;
    let n = compressed.n();
    let mut xadj: Vec<EdgeId> = Vec::with_capacity(n + 1);
    let mut adjacency: Vec<NodeId> = Vec::new();
    let mut edge_weights: Vec<EdgeWeight> = Vec::new();
    let edge_weighted = compressed.is_edge_weighted();
    xadj.push(0);
    for u in 0..n as NodeId {
        let mut nbrs = compressed.neighbors_vec(u);
        nbrs.sort_unstable_by_key(|&(v, _)| v);
        for (v, w) in nbrs {
            adjacency.push(v);
            if edge_weighted {
                edge_weights.push(w);
            }
        }
        xadj.push(adjacency.len() as EdgeId);
    }
    let node_weights = if compressed.is_node_weighted() {
        (0..n as NodeId)
            .map(|u| compressed.node_weight(u))
            .collect()
    } else {
        Vec::new()
    };
    Ok(CsrGraph::from_parts(
        xadj,
        adjacency,
        edge_weights,
        node_weights,
    ))
}

/// Loads a `.tpg` container fully into memory as a [`CompressedGraph`]. The data section
/// is used verbatim, so the result iterates neighbourhoods in exactly the order a
/// [`PagedGraph`](crate::store::PagedGraph) over the same file would — the property the
/// bit-identical on-disk partitioning tests rely on.
pub fn read_tpg_compressed(path: impl AsRef<Path>) -> Result<CompressedGraph, IoError> {
    let backend = FileBackend::open(&path)?;
    read_tpg_compressed_backend(&backend)
}

/// Backend-generic [`read_tpg_compressed`]; every section is verified against the
/// checksum footer before the graph is handed out. The eager reader surfaces the first
/// failure; retrying is the stores' job.
pub fn read_tpg_compressed_backend(
    backend: &dyn StorageBackend,
) -> Result<CompressedGraph, IoError> {
    read_resident(backend, &RetryPolicy::disabled(), &mut 0, false)
}

/// The one open of a resident [`CompressedGraph`], behind [`read_tpg_compressed`] and
/// [`MmapGraph`](crate::store::MmapGraph): header, offset index (proven strictly
/// increasing within the data section, so decoding needs no range checks; the same
/// packed array the paged store looks up) and node weights, then the whole data
/// section against the footer's block crcs. Each section is its own retry unit under
/// `retry`; retries taken are added to `retries`. With `map` and a plain-file backend
/// the verified bytes are mapped; otherwise, or if the kernel refuses the mapping, they
/// are loaded onto the heap as they are verified.
pub(crate) fn read_resident(
    backend: &dyn StorageBackend,
    retry: &RetryPolicy,
    retries: &mut u64,
    map: bool,
) -> Result<CompressedGraph, IoError> {
    let meta = retry_section(retry, retries, || read_tpg_meta_backend(backend))?;
    let (offsets, node_weights, checksums) =
        read_tpg_index_backend(backend, &meta, retry, retries)?;
    let mapped = match backend.as_file().filter(|_| map) {
        Some(file) => {
            verify_or_load_data(backend, &meta, &checksums, retry, retries, None)?;
            try_map(file, &meta)
        }
        None => None,
    };
    let data = match mapped {
        Some(mapping) => mapping,
        None => {
            let mut data = Vec::new();
            verify_or_load_data(backend, &meta, &checksums, retry, retries, Some(&mut data))?;
            Bytes::Heap(data)
        }
    };
    Ok(CompressedGraph::from_encoded_parts(
        meta.n,
        meta.m,
        offsets,
        data,
        node_weights,
        meta.edge_weighted,
        meta.total_node_weight,
        meta.total_edge_weight,
        meta.max_degree,
        meta.config,
    ))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::compressed::CompressionConfig;
    use crate::gen;
    use crate::io::{write_binary, write_metis};
    use crate::varint::encode_varint;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "terapart_store_test_{}_{}",
            std::process::id(),
            name
        ));
        p
    }

    fn assert_graph_eq(a: &CsrGraph, b: &CsrGraph) {
        assert_eq!(a.n(), b.n());
        assert_eq!(a.m(), b.m());
        assert_eq!(a.total_node_weight(), b.total_node_weight());
        assert_eq!(a.total_edge_weight(), b.total_edge_weight());
        for u in 0..a.n() as NodeId {
            let mut na = a.neighbors_vec(u);
            let mut nb = b.neighbors_vec(u);
            na.sort_unstable();
            nb.sort_unstable();
            assert_eq!(na, nb, "vertex {}", u);
            assert_eq!(a.node_weight(u), b.node_weight(u));
        }
    }

    #[test]
    fn container_round_trip_unweighted() {
        let g = gen::grid2d(13, 9);
        let path = tmp("roundtrip_unweighted.tpg");
        let summary = write_tpg_from_graph(&g, &path, &CompressionConfig::default()).unwrap();
        assert_eq!(summary.n, g.n());
        assert_eq!(summary.m, g.m());
        let meta = read_tpg_meta(&path).unwrap();
        assert_eq!(meta.n, g.n());
        assert_eq!(meta.m, g.m());
        assert!(!meta.edge_weighted && !meta.node_weighted);
        assert_eq!(meta.max_degree, g.max_degree());
        assert_eq!(meta.csr_size_in_bytes(), g.plain_size_in_bytes());
        let h = read_tpg(&path).unwrap();
        assert_graph_eq(&g, &h);

        // Layout pin of the resident offset index: the ~3.2 MB data section of
        // rgg2d(250 000, 8) packs every offset into 3 bytes, plus 8 bytes of tail
        // padding — read from the container and encoded in memory alike.
        let big = gen::rgg2d(250_000, 8, 1);
        let config = CompressionConfig::default();
        write_tpg_from_graph(&big, &path, &config).unwrap();
        let meta = read_tpg_meta(&path).unwrap();
        let packed = meta.data_len as usize + 3 * (meta.n + 1) + 8;
        assert_eq!(read_tpg_compressed(&path).unwrap().size_in_bytes(), packed);
        assert_eq!(
            CompressedGraph::from_csr(&big, &config).size_in_bytes(),
            packed
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn container_round_trip_weighted() {
        let g = gen::with_random_node_weights(
            &gen::with_random_edge_weights(&gen::rhg_like(300, 8, 3.0, 5), 9, 6),
            5,
            7,
        );
        let path = tmp("roundtrip_weighted.tpg");
        write_tpg_from_graph(&g, &path, &CompressionConfig::default()).unwrap();
        let meta = read_tpg_meta(&path).unwrap();
        assert!(meta.edge_weighted && meta.node_weighted);
        let h = read_tpg(&path).unwrap();
        assert_graph_eq(&g, &h);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn written_container_bytes_and_checksums_match_the_recorded_digest() {
        // Pins the writer's output — header, data, offset index, node weights and every
        // crc of the footer — against an FNV-1a digest: a checksum kernel that computed
        // different checksums would still round-trip against itself, but not produce
        // these bytes. First recorded before CRC-32 was rewritten to slice by 8,
        // re-recorded at container version 5 (VarInt offset index, 96-byte header), at
        // version 6 (72-byte header, each weight behind its id: the data section and
        // index keep their lengths, the file is 24 bytes shorter) and at version 7 (no
        // first-edge id in front of a neighbourhood: 707 362 -> 648 856 bytes), the
        // checksum kernel unchanged. The digest is taken at 64 KiB checksum blocks, so
        // the container is written at that length.
        let g = gen::with_random_node_weights(
            &gen::with_random_edge_weights(&gen::rgg2d(20_000, 12, 21), 30, 8),
            6,
            9,
        );
        let path = tmp("recorded_digest.tpg");
        let block_len = 64 * 1024;
        let config = CompressionConfig::default();
        let summary = TpgWriter::create(&path, g.n(), g.is_edge_weighted(), &config)
            .unwrap()
            .with_checksum_block_len(block_len)
            .write_graph(&g)
            .unwrap();
        assert!(summary.data_bytes > 2 * block_len as u64);
        let bytes = std::fs::read(&path).unwrap();
        let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        let recorded = match crate::ids::NODE_ID_BYTES {
            4 => 0x0aba_5843_1e8a_20f1u64,
            _ => 0xcd20_624f_11e5_a83fu64,
        };
        assert_eq!(
            (bytes.len(), digest),
            (648_856usize, recorded),
            "digest {:#018x}",
            digest
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn container_data_section_matches_in_memory_encoding() {
        // The on-disk data must be byte-identical to CompressedGraph::from_csr so that
        // paged iteration is bit-identical to the in-memory compressed path.
        let g = gen::weblike(9, 8, 3);
        let config = CompressionConfig::default();
        let path = tmp("matches_in_memory.tpg");
        let summary = write_tpg_from_graph(&g, &path, &config).unwrap();
        let reference = CompressedGraph::from_csr(&g, &config);
        assert_eq!(summary.data_bytes as usize, reference.encoded_data_bytes());
        let loaded = read_tpg_compressed(&path).unwrap();
        assert_eq!(loaded.encoded_data_bytes(), reference.encoded_data_bytes());
        for u in 0..g.n() as NodeId {
            assert_eq!(loaded.neighbors_vec(u), reference.neighbors_vec(u));
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn hubs_across_the_old_chunk_boundaries_read_back_alike_through_every_store() {
        // Hubs of 9 998-12 007 neighbours, on both sides of the 10 000 above which
        // version 6 split a neighbourhood into chunks of 1 000, laid out so that runs
        // cross the old chunk edges: each is one walk now. With and without intervals
        // and edge weights, every open of one container decodes each neighbourhood to
        // the sequence a reference decoder reads from the in-memory encoding, the paged
        // store through a cache of a few small pages.
        let path = tmp("hubs.tpg");
        let cases = [
            (9_998, 0, true, CompressionConfig::default()),
            (10_000, 1, false, CompressionConfig::default()),
            (10_001, 2, true, CompressionConfig::gap_only()),
            (11_000, 3, true, CompressionConfig::default()),
            (12_007, 4, false, CompressionConfig::gap_only()),
        ];
        for (degree, slot, weighted, config) in cases {
            let g = crate::compressed::tests::hub_graph(
                degree,
                &crate::compressed::tests::HUB_RUNS,
                slot,
                weighted,
            );
            TpgWriter::create(&path, g.n(), weighted, &config)
                .unwrap()
                .with_checksum_block_len(256)
                .write_graph(&g)
                .unwrap();
            let compressed = CompressedGraph::from_csr(&g, &config);
            let loaded = read_tpg_compressed(&path).unwrap();
            let mmap = crate::store::MmapGraph::open(&path).unwrap();
            let paged = crate::store::PagedGraph::open_with_options(
                &path,
                &crate::store::PagedGraphOptions {
                    page_size: 256,
                    budget_bytes: 4 * 256,
                    ..crate::store::PagedGraphOptions::default()
                },
            )
            .unwrap();
            assert_eq!(compressed.max_degree(), degree);
            for u in 0..g.n() as NodeId {
                let expected = crate::compressed::tests::reference_neighbors(&compressed, u);
                let mut sorted = expected.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, g.neighbors_vec(u), "reference {}", u);
                assert_eq!(compressed.neighbors_vec(u), expected, "in memory {}", u);
                assert_eq!(
                    loaded.neighbors_vec(u),
                    expected,
                    "read_tpg_compressed {}",
                    u
                );
                assert_eq!(mmap.neighbors_vec(u), expected, "mmap {}", u);
                assert_eq!(paged.neighbors_vec(u), expected, "paged {}", u);
                assert_eq!(paged.degree(u), g.degree(u), "paged degree {}", u);
            }
            assert!(paged.cache_stats().evictions > 0);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn metis_to_tpg_matches_graph_to_tpg() {
        let g = gen::with_random_edge_weights(&gen::rgg2d(400, 10, 8), 7, 9);
        let metis = tmp("via_metis.graph");
        write_metis(&g, &metis).unwrap();
        let direct = tmp("direct.tpg");
        let via_metis = tmp("via_metis.tpg");
        let config = CompressionConfig::default();
        let a = write_tpg_from_graph(&g, &direct, &config).unwrap();
        let b = write_tpg_from_metis(&metis, &via_metis, &config).unwrap();
        assert_eq!(a, b);
        assert_graph_eq(&read_tpg(&direct).unwrap(), &read_tpg(&via_metis).unwrap());
        for p in [metis, direct, via_metis] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn binary_to_tpg_two_cursor_pass_matches() {
        // Weighted graphs exercise the two-cursor (adjacency + weights) read.
        let g = gen::with_random_edge_weights(&gen::weblike(9, 6, 4), 50, 10);
        let bin = tmp("via_binary.bin");
        write_binary(&g, &bin).unwrap();
        let direct = tmp("direct_b.tpg");
        let via_bin = tmp("via_binary.tpg");
        let config = CompressionConfig::default();
        let a = write_tpg_from_graph(&g, &direct, &config).unwrap();
        let b = write_tpg_from_binary(&bin, &via_bin, &config).unwrap();
        assert_eq!(a, b);
        assert_graph_eq(&read_tpg(&direct).unwrap(), &read_tpg(&via_bin).unwrap());
        for p in [bin, direct, via_bin] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn bad_magic_and_truncated_files_are_rejected() {
        let path = tmp("bad.tpg");
        std::fs::write(&path, b"XXXX").unwrap();
        assert!(read_tpg_meta(&path).is_err());
        std::fs::write(&path, b"TP").unwrap();
        assert!(read_tpg_meta(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    /// Recomputes and re-stamps the header crc after the test patched header bytes,
    /// so the patch under test (not the checksum) decides the outcome.
    fn restamp_header_crc(bytes: &mut [u8], meta: &TpgMeta) {
        let crc = crate::checksum::crc32(&bytes[..TPG_HEADER_LEN as usize]);
        let pos = meta.header_crc_pos() as usize;
        bytes[pos..pos + 4].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn headers_record_and_validate_the_id_width() {
        let g = gen::grid2d(5, 4);
        let path = tmp("width_byte.tpg");
        write_tpg_from_graph(&g, &path, &CompressionConfig::default()).unwrap();
        let meta = read_tpg_meta(&path).unwrap();
        assert_eq!(meta.id_width, ids::NODE_ID_BYTES);
        // A file claiming the *other* supported width stays readable: the data section
        // is VarInt-encoded, so the recorded width is advisory provenance.
        let mut bytes = std::fs::read(&path).unwrap();
        let other_width = if ids::NODE_ID_BYTES == 4 { 8u8 } else { 4u8 };
        bytes[12] = other_width;
        restamp_header_crc(&mut bytes, &meta);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_tpg_meta(&path).unwrap().id_width, other_width);
        assert_graph_eq(&read_tpg(&path).unwrap(), &g);
        // An unsupported width byte is rejected loudly even with a valid checksum.
        bytes[12] = 3;
        restamp_header_crc(&mut bytes, &meta);
        std::fs::write(&path, &bytes).unwrap();
        let err = read_tpg_meta(&path).unwrap_err().to_string();
        assert!(err.contains("id width"), "unexpected error: {}", err);
        // Non-zero bytes in the still-reserved remainder are rejected too.
        bytes[12] = ids::NODE_ID_BYTES;
        bytes[14] = 1;
        restamp_header_crc(&mut bytes, &meta);
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_tpg_meta(&path).is_err());
        // A patched header *without* a matching re-stamp is caught by the header crc.
        bytes[14] = 0;
        bytes[12] = other_width;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_tpg_meta(&path).unwrap_err();
        assert!(
            matches!(&err, IoError::Corrupt(msg) if msg.contains("header checksum")),
            "unexpected error: {}",
            err
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn retired_versions_and_plain_offset_headers_are_format_errors() {
        // Versions 1-6 (v6: a first-edge id in front of every neighbourhood and a chunk
        // table in front of every hub; v5: a 96-byte header recording the chunk
        // parameters) and a header with a flag bit v7 does not define have no reader.
        // Every entry point must say so with a structured `Format` error (crc
        // re-stamped, so it is the version/flag check that decides) — never a panic,
        // and never an attempt to interpret the sections under the wrong layout.
        let g = gen::grid2d(6, 5);
        let path = tmp("retired_headers.tpg");
        write_tpg_from_graph(&g, &path, &CompressionConfig::default()).unwrap();
        let meta = read_tpg_meta(&path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let mut stale = Vec::new();
        assert_eq!(TPG_VERSION, 7);
        for version in 1u32..TPG_VERSION {
            let mut bytes = clean.clone();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            stale.push((format!("v{}", version), bytes, "regenerate the container"));
        }
        for bit in [3, 7, 31] {
            let mut bytes = clean.clone();
            let flags = le_u32(&bytes[8..]) | 1 << bit;
            bytes[8..12].copy_from_slice(&flags.to_le_bytes());
            stale.push((
                format!("v{} with flag bit {}", TPG_VERSION, bit),
                bytes,
                "unknown .tpg flag",
            ));
        }
        for (label, mut bytes, needle) in stale {
            restamp_header_crc(&mut bytes, &meta);
            std::fs::write(&path, &bytes).unwrap();
            let errors = [
                read_tpg_meta(&path).unwrap_err(),
                read_tpg_compressed(&path).unwrap_err(),
                crate::store::PagedGraph::open(&path).unwrap_err(),
                crate::store::MmapGraph::open(&path).unwrap_err(),
            ];
            for err in errors {
                assert!(
                    matches!(&err, IoError::Format(msg) if msg.contains(needle)),
                    "{}: unexpected error: {}",
                    label,
                    err
                );
            }
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn tampered_offset_index_is_rejected_at_open_by_every_reader() {
        // A "bad writer": the VarInt lengths are wrong but their crc vouches for them.
        // No reader range-checks per access against anything but the index they decode
        // to (the mmap one decodes in place), so it must be refused at open — as a
        // structured error, not a panic and not an out-of-bounds read later.
        let g = gen::grid2d(12, 12);
        let path = tmp("tampered_offsets.tpg");
        write_tpg_from_graph(&g, &path, &CompressionConfig::default()).unwrap();
        let meta = read_tpg_meta(&path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let (start, n) = (meta.offsets_start() as usize, meta.n);
        let section = &clean[start..start + meta.index_len as usize];
        let mut lengths = Vec::new();
        let mut pos = 0;
        while pos < section.len() {
            let (len, next) = crate::varint::decode_varint(section, pos);
            lengths.push(len);
            pos = next;
        }
        assert_eq!(lengths.len(), n);
        assert!(lengths.iter().all(|&len| len > MIN_NEIGHBORHOOD_BYTES));
        // The container with `index` as its offset-index section: the header's length
        // field, the section crc and the header crc re-stamped to vouch for it.
        let with_index = |index: &[u8]| {
            let mut bytes = clean[..start].to_vec();
            bytes.extend_from_slice(index);
            bytes.extend_from_slice(&clean[start + section.len()..]);
            bytes[64..72].copy_from_slice(&(index.len() as u64).to_le_bytes());
            let tampered = read_meta_from(&mut &bytes[..TPG_HEADER_LEN as usize]).unwrap();
            let crc_pos =
                tampered.footer_start() as usize + 4 + 4 * meta.checksum_block_count() as usize;
            bytes[crc_pos..crc_pos + 4].copy_from_slice(&crc32(index).to_le_bytes());
            restamp_header_crc(&mut bytes, &tampered);
            bytes
        };
        let encoded = |lengths: &[u64]| {
            let mut index = Vec::new();
            for &len in lengths {
                encode_varint(len, &mut index);
            }
            with_index(&index)
        };
        let retold = |edit: &dyn Fn(&mut Vec<u64>)| {
            let mut lengths = lengths.clone();
            edit(&mut lengths);
            encoded(&lengths)
        };
        let mut unterminated = section.to_vec();
        *unterminated.last_mut().unwrap() |= 0x80;
        // The last length as eleven bytes: ten with the continuation bit, then a zero.
        let mut eleven_bytes = section[..section.len() - 1].to_vec();
        let last = lengths[n - 1];
        eleven_bytes.extend((0..10).map(|i| 0x80 | ((last >> (7 * i)) & 0x7f) as u8));
        eleven_bytes.push(0);
        let header_len = |index_len: u64| {
            let mut bytes = clean.clone();
            bytes[64..72].copy_from_slice(&index_len.to_le_bytes());
            restamp_header_crc(&mut bytes, &meta);
            bytes
        };
        let tampers = [
            (
                "a length below the degree's byte",
                retold(&|l| {
                    l[1] += l[0];
                    l[0] = 0;
                }),
            ),
            ("lengths past data_len", retold(&|l| l[n - 1] += 1)),
            ("lengths short of data_len", retold(&|l| l[n - 1] -= 1)),
            ("an unterminated VarInt", with_index(&unterminated)),
            ("an 11-byte VarInt", with_index(&eleven_bytes)),
            (
                "a zero-length last vertex",
                retold(&|l| {
                    l[n - 2] += l[n - 1];
                    l[n - 1] = 0;
                }),
            ),
            ("index_len below n", header_len(n as u64 - 1)),
            ("index_len above 10·n", header_len(10 * n as u64 + 1)),
        ];
        for (label, bytes) in tampers {
            std::fs::write(&path, &bytes).unwrap();
            let errors = [
                read_tpg_compressed(&path).unwrap_err(),
                crate::store::PagedGraph::open(&path).unwrap_err(),
                crate::store::MmapGraph::open(&path).unwrap_err(),
            ];
            for err in errors {
                assert!(
                    matches!(&err, IoError::Format(msg) if msg.contains("offset index")),
                    "{}: unexpected error: {}",
                    label,
                    err
                );
            }
        }
        // The splice itself is sound: the untouched lengths re-encode to a clean file.
        assert_eq!(encoded(&lengths), clean);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_and_isolated_vertices_survive() {
        let mut b = crate::csr::CsrGraphBuilder::new(5);
        b.add_edge(0, 3, 2);
        let g = b.build();
        let path = tmp("isolated.tpg");
        write_tpg_from_graph(&g, &path, &CompressionConfig::default()).unwrap();
        let h = read_tpg(&path).unwrap();
        assert_graph_eq(&g, &h);
        assert_eq!(h.degree(1), 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn an_all_isolated_graph_opens_at_every_path() {
        // Every neighbourhood is one byte, its degree 0: the offset index holds n
        // lengths of 1 and the data section n zero bytes, the least the index check
        // admits.
        let n = 37;
        let g = crate::csr::CsrGraphBuilder::new(n).build();
        let path = tmp("all_isolated.tpg");
        let summary = write_tpg_from_graph(&g, &path, &CompressionConfig::default()).unwrap();
        let meta = read_tpg_meta(&path).unwrap();
        assert_eq!(
            (summary.data_bytes, meta.data_len, meta.index_len),
            (37, 37, 37)
        );
        let bytes = std::fs::read(&path).unwrap();
        let data = &bytes[meta.data_start() as usize..meta.offsets_start() as usize];
        let index = &bytes[meta.offsets_start() as usize..meta.node_weights_start() as usize];
        assert!(data.iter().all(|&b| b == 0) && index.iter().all(|&b| b == 1));
        let compressed = read_tpg_compressed(&path).unwrap();
        let paged = crate::store::PagedGraph::open(&path).unwrap();
        let mmap = crate::store::MmapGraph::open(&path).unwrap();
        let stores: [&dyn Graph; 3] = [&compressed, &paged, &mmap];
        for store in stores {
            assert_eq!((store.n(), store.m()), (n, 0));
            for u in 0..n as NodeId {
                assert_eq!(store.degree(u), 0);
                assert!(store.neighbors_vec(u).is_empty());
            }
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupted_data_blocks_are_detected_on_read() {
        let g = gen::weblike(8, 6, 3);
        let path = tmp("bitrot.tpg");
        write_tpg_from_graph(&g, &path, &CompressionConfig::default()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit in the middle of the data section.
        let mid = TPG_HEADER_LEN as usize + (bytes.len() - TPG_HEADER_LEN as usize) / 4;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_tpg_compressed(&path).unwrap_err();
        assert!(
            matches!(&err, IoError::Corrupt(msg) if msg.contains("block")),
            "unexpected error: {}",
            err
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn small_checksum_blocks_round_trip_and_detect_corruption() {
        // A 64-byte block length forces many blocks even on a small instance,
        // exercising block sealing inside `write_data` and the multi-block footer.
        let g = gen::with_random_node_weights(&gen::weblike(8, 7, 9), 4, 2);
        let config = CompressionConfig::default();
        let path = tmp("small_blocks.tpg");
        TpgWriter::create(&path, g.n(), g.is_edge_weighted(), &config)
            .unwrap()
            .with_checksum_block_len(64)
            .write_graph(&g)
            .unwrap();
        let meta = read_tpg_meta(&path).unwrap();
        assert_eq!(meta.checksum_block_len, 64);
        assert!(meta.checksum_block_count() > 4, "expected many blocks");
        assert_graph_eq(&read_tpg(&path).unwrap(), &g);
        // Corrupt the final (short) block: it is covered too.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = (TPG_HEADER_LEN + meta.data_len) as usize - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_tpg_compressed(&path).unwrap_err(),
            IoError::Corrupt(_)
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn unfinished_writers_leave_no_files_behind() {
        let dir = std::env::temp_dir();
        let path = tmp("abandoned.tpg");
        let tmp_prefix = format!(".{}.tmp.", path.file_name().unwrap().to_string_lossy());
        let stale_tmps = |dir: &std::path::Path| {
            std::fs::read_dir(dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().starts_with(&tmp_prefix))
                .count()
        };
        {
            let mut writer =
                TpgWriter::create(&path, 4, false, &CompressionConfig::default()).unwrap();
            writer.push_neighborhood(0, &[(1, 1)], 1).unwrap();
            assert_eq!(stale_tmps(&dir), 1, "writer works through a temp file");
            // Dropped without `finish()`: simulates a crash/error mid-write.
        }
        assert_eq!(stale_tmps(&dir), 0, "temp file must be cleaned up on drop");
        assert!(
            !path.exists(),
            "the destination must not exist after an abandoned write"
        );
    }

    #[test]
    fn finished_writers_publish_atomically_and_keep_no_temp() {
        let dir = std::env::temp_dir();
        let path = tmp("published.tpg");
        let g = gen::grid2d(4, 4);
        write_tpg_from_graph(&g, &path, &CompressionConfig::default()).unwrap();
        let tmp_prefix = format!(".{}.tmp.", path.file_name().unwrap().to_string_lossy());
        let leftovers = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(&tmp_prefix))
            .count();
        assert_eq!(leftovers, 0, "no temp files after a committed write");
        assert_graph_eq(&read_tpg(&path).unwrap(), &g);
        std::fs::remove_file(path).ok();
    }
}
