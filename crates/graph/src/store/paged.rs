//! [`PagedGraph`]: a [`Graph`] backed by a `.tpg` container through a fixed-budget,
//! sharded page cache.
//!
//! The semi-external layout keeps the `O(n)` arrays (offset index, node weights) in
//! memory and leaves the `O(m)` encoded neighbourhood bytes on disk. Neighbourhood
//! accesses copy the needed byte range out of cached pages into a thread-local buffer
//! and decode with the same routine the in-memory [`CompressedGraph`] uses, so
//! iteration order — and therefore a fixed-seed partitioning run — is bit-identical
//! across the two representations.
//!
//! The cache is sharded by page index; each shard owns a fixed number of page frames
//! and evicts with the CLOCK (second-chance) policy. Pages are filled with positional
//! reads (`pread`-style via `FileExt`), so no seeks are shared between threads and no
//! memory mapping is involved. A page is a whole number of the container's checksum
//! blocks, so a miss reads its page straight into the frame and verifies exactly those
//! bytes against the footer's crcs. Frames are charged to the global memory accounting
//! as they are first allocated, the semi-external arrays at open — the accounted footprint
//! of an open `PagedGraph` is `offset index + node weights + committed page budget`,
//! which the memory-ladder experiments compare against the uncompressed CSR size.
//!
//! [`CompressedGraph`]: crate::compressed::CompressedGraph

use std::cell::RefCell;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use memtrack::MemoryScope;
use parking_lot::Mutex;

use crate::compressed::{decode_degree, decode_neighborhood, CompressionConfig};
use crate::io::{io_error_is_transient, IoError};
use crate::packed::PackedArray;
use crate::store::backend::{read_full_at, FileBackend, StorageBackend};
use crate::store::container::{
    read_tpg_index_backend, read_tpg_meta_backend, retry_section, retry_with_backoff,
    verify_blocks, ChecksumMismatch, TpgChecksums, TpgMeta,
};
use crate::store::poison::{FatalIoError, Poison};
use crate::traits::Graph;
use crate::varint::MAX_VARINT_LEN;
use crate::{EdgeWeight, NodeId, NodeWeight};

/// Bounded retry with exponential backoff for transient read failures (`EIO`,
/// interrupted syscalls, checksum mismatches that heal on a clean re-read).
///
/// `max_retries` counts *additional* attempts after the first failure; 0 disables
/// retrying. The delay before retry `i` is `base_delay << i`, capped at `max_delay`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetryPolicy {
    /// Additional attempts after the first failure (0 = fail immediately).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Upper bound of the exponential backoff.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// No retrying: every read failure surfaces immediately.
    pub fn disabled() -> Self {
        Self {
            max_retries: 0,
            ..Self::default()
        }
    }

    /// Backoff before retry number `attempt` (0-based).
    pub fn delay_for(&self, attempt: u32) -> Duration {
        self.base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_delay)
    }
}

/// Which store implementation the on-disk entry points open a `.tpg` container
/// with. Fixed-seed results are bit-identical across backends — both decode with the
/// same routine in the same order — so the choice is purely a speed/footprint
/// trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OnDiskBackend {
    /// The strict-budget sharded CLOCK page cache ([`PagedGraph`]): resident bytes
    /// never exceed `offset index + node weights + page budget`, suitable for
    /// containers larger than RAM.
    #[default]
    Paged,
    /// The zero-copy mmap fast path ([`MmapGraph`](crate::store::MmapGraph)):
    /// neighbourhoods decode straight out of a read-only memory mapping — no frame
    /// copies, no shard locks, no per-access bookkeeping — with residency delegated
    /// to the OS page cache. The fits-in-RAM choice.
    Mmap,
}

/// Tuning knobs of the page cache behind a [`PagedGraph`].
///
/// `Hash`/`Eq` make the options usable as part of a registry key: the open-store
/// registry ([`StoreRegistry`](crate::store::StoreRegistry)) deduplicates opens by
/// `(path, options)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PagedGraphOptions {
    /// Bytes per cache page, rounded up to whole checksum blocks of the opened
    /// container (4 KiB for the writer's default), so every miss reads and verifies
    /// exactly its own page; never more than the container's data section. Smaller
    /// pages waste less budget on cold neighbourhoods; larger pages amortise syscalls
    /// on sequential sweeps.
    pub page_size: usize,
    /// Total page-cache budget in bytes. The cache holds `max(budget_bytes /
    /// page_size, 8)` frames of the rounded page size, rounded up to a whole number in
    /// each of its 8 shards.
    pub budget_bytes: usize,
    /// Has no effect: the page cache reads only what a lookup faults. The field is
    /// kept for callers that still spell it in a struct literal.
    pub prefetch: bool,
    /// Retry policy for transient read failures (applies to page faults and the
    /// open-time index read).
    pub retry: RetryPolicy,
    /// Store implementation the on-disk entry points (`partition_ondisk`) open the
    /// container with. The page-cache knobs above only apply to [`Paged`]; the
    /// [`Mmap`] backend shares `retry` for its open-time verification reads.
    ///
    /// [`Paged`]: OnDiskBackend::Paged
    /// [`Mmap`]: OnDiskBackend::Mmap
    pub backend: OnDiskBackend,
}

impl Default for PagedGraphOptions {
    fn default() -> Self {
        Self {
            page_size: 64 * 1024,
            budget_bytes: 8 * 1024 * 1024,
            prefetch: false,
            retry: RetryPolicy::default(),
            backend: OnDiskBackend::Paged,
        }
    }
}

impl PagedGraphOptions {
    /// Options with the given total budget and the default page size.
    pub fn with_budget(budget_bytes: usize) -> Self {
        Self {
            budget_bytes,
            ..Self::default()
        }
    }
}

/// Point-in-time counters of one page cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStatsSnapshot {
    /// Page lookups served from a resident frame.
    pub hits: u64,
    /// Page lookups that required a disk read.
    pub misses: u64,
    /// Frames whose previous page was evicted to serve a miss.
    pub evictions: u64,
    /// Bytes the successful attempts of page faults read from disk: each faulted page
    /// whole, and nothing else — `misses × page_size`, less what the misses of the
    /// short last page of the data section did not need.
    pub bytes_read: u64,
    /// Bytes page-fault attempts read and handed to the block verifier, failed and
    /// retried attempts included; equal to `bytes_read` on a run without faults.
    /// `verified_bytes / misses` is what one miss pays in checksum work — the larger
    /// part of `store.miss_us` once the file is in the OS cache.
    pub verified_bytes: u64,
    /// Read attempts repeated after a transient failure (see
    /// [`PagedGraphOptions::retry`]).
    pub retried_reads: u64,
    /// Checksum verification failures observed (each failed attempt counts; a
    /// mismatch healed by a retry still shows up here).
    pub checksum_failures: u64,
    /// The cache's page size after rounding [`PagedGraphOptions::page_size`] up to
    /// whole checksum blocks (at most the data section): the unit of `bytes_read`. Not
    /// a counter.
    pub page_size: u64,
}

impl CacheStatsSnapshot {
    /// Fraction of lookups served from memory.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Pours this snapshot into an observability registry, making the snapshot a view
    /// over the unified counter set rather than a parallel ad-hoc struct.
    pub fn export_into(&self, metrics: &obs::MetricsRegistry) {
        use obs::Counter;
        metrics.add(Counter::CacheHits, self.hits);
        metrics.add(Counter::CacheMisses, self.misses);
        metrics.add(Counter::CacheBytesRead, self.bytes_read);
        metrics.add(Counter::CacheVerifiedBytes, self.verified_bytes);
        metrics.add(Counter::CacheRetriedReads, self.retried_reads);
        metrics.add(Counter::CacheChecksumFailures, self.checksum_failures);
    }
}

#[derive(Default)]
struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bytes_read: AtomicU64,
    verified_bytes: AtomicU64,
    retried_reads: AtomicU64,
    checksum_failures: AtomicU64,
}

struct Frame {
    page: u64,
    len: u32,
    referenced: bool,
    data: Box<[u8]>,
}

struct Shard {
    map: HashMap<u64, usize>,
    frames: Vec<Frame>,
    capacity: usize,
    hand: usize,
}

/// Whether `e` carries a [`ChecksumMismatch`]. A page fault wraps one in an
/// [`io::Error`] of kind `InvalidData` so the retry predicate can recognise it
/// (checksum mismatches are retryable — a transient in-flight flip heals on a clean
/// re-read — while every other `InvalidData` is structural).
fn is_checksum_mismatch(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|p| p.is::<ChecksumMismatch>())
}

/// Retryability of a read error inside the page cache's retry loop.
fn read_error_is_transient(e: &io::Error) -> bool {
    is_checksum_mismatch(e) || io_error_is_transient(e)
}

/// Number of independently locked shards of a page cache; page `p` lives in shard
/// `p % PAGE_CACHE_SHARDS`.
const PAGE_CACHE_SHARDS: usize = 8;

/// Sharded CLOCK page cache over the data section of one `.tpg` file.
struct PageCache {
    backend: Box<dyn StorageBackend>,
    data_start: u64,
    data_len: u64,
    /// A whole number of checksum blocks, or the whole data section if that is shorter,
    /// so every page is its own verification unit.
    page_size: usize,
    shards: Vec<Mutex<Shard>>,
    stats: CacheStats,
    /// Bytes charged to the global memory accounting for allocated frames.
    charged: AtomicUsize,
    /// Per-block crcs of the data section: every disk read is verified against them.
    checksums: TpgChecksums,
    /// Retry policy for transient read failures.
    retry: RetryPolicy,
}

impl PageCache {
    fn new(
        backend: Box<dyn StorageBackend>,
        data_start: u64,
        data_len: u64,
        checksums: TpgChecksums,
        options: &PagedGraphOptions,
    ) -> Self {
        // Capped at the data section: a frame never outgrows the file, whatever block
        // length (up to 1 GiB) the header records.
        let page_size = options
            .page_size
            .max(1)
            .next_multiple_of(checksums.block_len as usize)
            .min(data_len.max(1) as usize);
        let total_frames = (options.budget_bytes / page_size).max(PAGE_CACHE_SHARDS);
        let per_shard = total_frames.div_ceil(PAGE_CACHE_SHARDS);
        let shards: Vec<Mutex<Shard>> = (0..PAGE_CACHE_SHARDS)
            .map(|_| {
                Mutex::new(Shard {
                    map: HashMap::new(),
                    frames: Vec::new(),
                    capacity: per_shard,
                    hand: 0,
                })
            })
            .collect();
        Self {
            backend,
            data_start,
            data_len,
            page_size,
            shards,
            stats: CacheStats::default(),
            charged: AtomicUsize::new(0),
            checksums,
            retry: options.retry,
        }
    }

    /// One attempt at reading the page that starts at data-section offset `offset`
    /// straight into `dest` and verifying it in place. A page is a whole number of
    /// checksum blocks (the last page: the rest of the section), so the bytes read are
    /// exactly the bytes the footer's crcs vouch for.
    fn try_read_verified(&self, dest: &mut [u8], offset: u64) -> io::Result<()> {
        read_full_at(self.backend.as_ref(), dest, self.data_start + offset)?;
        self.stats
            .verified_bytes
            .fetch_add(dest.len() as u64, Ordering::Relaxed);
        verify_blocks(dest, offset, &self.checksums).map_err(|mismatch| {
            self.stats.checksum_failures.fetch_add(1, Ordering::Relaxed);
            io::Error::new(io::ErrorKind::InvalidData, mismatch)
        })
    }

    /// Reads and verifies the page at data-section offset `offset` into `dest`,
    /// retrying transient failures per [`PagedGraphOptions::retry`] with exponential
    /// backoff. Every page fault's disk read funnels through here.
    fn read_verified(&self, dest: &mut [u8], offset: u64) -> io::Result<()> {
        retry_with_backoff(
            &self.retry,
            read_error_is_transient,
            || {
                self.stats.retried_reads.fetch_add(1, Ordering::Relaxed);
            },
            || self.try_read_verified(dest, offset),
        )
    }

    fn shard_of(&self, page: u64) -> &Mutex<Shard> {
        &self.shards[(page as usize) % PAGE_CACHE_SHARDS]
    }

    /// Bytes of `page` within the data section, or an `UnexpectedEof`-style error for
    /// a page at or beyond the section's end (a corrupted or truncated container —
    /// never a wrapped subtraction).
    fn page_len(&self, page: u64) -> io::Result<usize> {
        match page
            .checked_mul(self.page_size as u64)
            .and_then(|offset| self.data_len.checked_sub(offset))
        {
            Some(remaining) if remaining > 0 => Ok(remaining.min(self.page_size as u64) as usize),
            _ => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "page {} starts at or beyond the {}-byte data section (corrupted or \
                     truncated .tpg container)",
                    page, self.data_len
                ),
            )),
        }
    }

    /// Returns the index of a frame to (re)use in `s`: a freshly allocated one while
    /// the shard is below capacity (charged to the accounting), else the CLOCK
    /// second-chance victim. Any previous occupant is unmapped and counted as an
    /// eviction; the caller installs the new page.
    fn claim_frame(&self, s: &mut Shard) -> usize {
        let idx = if s.frames.len() < s.capacity {
            s.frames.push(Frame {
                page: u64::MAX,
                len: 0,
                referenced: false,
                data: vec![0u8; self.page_size].into_boxed_slice(),
            });
            // Charge the frame the moment it is first committed, so the accounting
            // reflects touched pages rather than the configured upper bound (the
            // overcommit model of the rest of the code base).
            self.charged.fetch_add(self.page_size, Ordering::Relaxed);
            memtrack::global().add(self.page_size);
            s.frames.len() - 1
        } else {
            // CLOCK second-chance scan.
            loop {
                let hand = s.hand;
                s.hand = (s.hand + 1) % s.frames.len();
                if s.frames[hand].referenced {
                    s.frames[hand].referenced = false;
                } else {
                    break hand;
                }
            }
        };
        if s.frames[idx].page != u64::MAX {
            let old = s.frames[idx].page;
            s.map.remove(&old);
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
        idx
    }

    /// Runs `f` on the bytes of `page` while the owning shard is locked. The page is
    /// faulted in (possibly evicting another) if it is not resident.
    fn with_page<R>(&self, page: u64, f: impl FnOnce(&[u8]) -> R) -> io::Result<R> {
        let mut s = self.shard_of(page).lock();
        if let Some(&idx) = s.map.get(&page) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            let frame = &mut s.frames[idx];
            frame.referenced = true;
            return Ok(f(&frame.data[..frame.len as usize]));
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        // Validate the page before claiming a frame, so a corrupted offset cannot
        // pollute the cache (or wrap the length arithmetic) on its way to the error.
        let len = self.page_len(page)?;
        let offset = page * self.page_size as u64;
        let idx = self.claim_frame(&mut s);
        let frame = &mut s.frames[idx];
        // The victim's page is unmapped already: empty the frame before the read, so a
        // failed read leaves a free frame rather than one claiming the old page.
        frame.page = u64::MAX;
        frame.len = 0;
        self.read_verified(&mut frame.data[..len], offset)?;
        frame.page = page;
        frame.len = len as u32;
        frame.referenced = true;
        self.stats
            .bytes_read
            .fetch_add(len as u64, Ordering::Relaxed);
        s.map.insert(page, idx);
        let frame = &s.frames[idx];
        Ok(f(&frame.data[..frame.len as usize]))
    }

    /// Copies the byte range `[start, end)` of the data section into `out` (cleared
    /// first), faulting pages as needed.
    fn read_range(&self, start: u64, end: u64, out: &mut Vec<u8>) -> io::Result<()> {
        if start > end || end > self.data_len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "byte range [{}, {}) outside the {}-byte data section (corrupted \
                     offset index?)",
                    start, end, self.data_len
                ),
            ));
        }
        out.clear();
        out.reserve((end - start) as usize);
        let ps = self.page_size as u64;
        let mut pos = start;
        while pos < end {
            let page = pos / ps;
            let offset_in_page = (pos % ps) as usize;
            let take = (end - pos).min(ps - pos % ps) as usize;
            self.with_page(page, |data| {
                out.extend_from_slice(&data[offset_in_page..offset_in_page + take]);
            })?;
            pos += take as u64;
        }
        Ok(())
    }

    fn snapshot(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            bytes_read: self.stats.bytes_read.load(Ordering::Relaxed),
            verified_bytes: self.stats.verified_bytes.load(Ordering::Relaxed),
            retried_reads: self.stats.retried_reads.load(Ordering::Relaxed),
            checksum_failures: self.stats.checksum_failures.load(Ordering::Relaxed),
            page_size: self.page_size as u64,
        }
    }
}

impl Drop for PageCache {
    fn drop(&mut self) {
        memtrack::global().sub(self.charged.load(Ordering::Relaxed));
    }
}

thread_local! {
    /// Per-thread neighbourhood assembly buffer. `try_borrow_mut` guards against nested
    /// neighbourhood iteration (e.g. symmetry checks), which falls back to a fresh
    /// buffer instead of deadlocking on the `RefCell`.
    static DECODE_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

fn with_decode_buf<R>(f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
    DECODE_BUF.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => f(&mut buf),
        Err(_) => f(&mut Vec::new()),
    })
}

/// A graph stored in a `.tpg` container on disk, accessed through a fixed-budget page
/// cache. Implements [`Graph`], so the full multilevel pipeline runs against it
/// unchanged.
///
/// # Failure protocol
///
/// [`Graph`] accessors cannot return `Result`s, so a read that still fails after
/// checksum verification and retries **poisons** the graph instead of panicking: the
/// first fatal error is stored, and every subsequent accessor returns empty
/// neighbourhoods (degree 0) without touching the disk again. The pipeline thereby
/// degrades to computing on a partial graph and terminates normally; the driver must
/// call [`take_fatal_error`](PagedGraph::take_fatal_error) afterwards and discard the
/// result if the graph poisoned mid-run (which is what `partition_ondisk` does,
/// surfacing a structured error).
pub struct PagedGraph {
    meta: TpgMeta,
    path: PathBuf,
    /// Byte offset of each vertex's encoded neighbourhood within the data section,
    /// then its end: `n + 1` entries, packed.
    offsets: PackedArray,
    /// Node weights, empty when uniform.
    node_weights: Vec<NodeWeight>,
    /// Boxed: the cache is by far the largest member, and `PagedGraph` is a variant
    /// of the by-value `StoreHandle` enum.
    cache: Box<PageCache>,
    /// The semi-external arrays' charge to the global memory accounting, released on
    /// drop.
    resident_charge: MemoryScope<'static>,
    /// The poison protocol (see the type-level docs).
    poison: Poison,
}

impl std::fmt::Debug for PagedGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedGraph")
            .field("path", &self.path)
            .field("n", &self.meta.n)
            .field("m", &self.meta.m)
            .field("page_size", &self.cache.page_size)
            .finish()
    }
}

impl PagedGraph {
    /// Opens a `.tpg` container with default cache options.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, IoError> {
        Self::open_with_options(path, &PagedGraphOptions::default())
    }

    /// Opens a `.tpg` container with the given page-cache options.
    pub fn open_with_options(
        path: impl AsRef<Path>,
        options: &PagedGraphOptions,
    ) -> Result<Self, IoError> {
        let path = path.as_ref().to_path_buf();
        let backend = FileBackend::open(&path)?;
        Self::open_backend_at(Box::new(backend), path, options)
    }

    /// Opens a `.tpg` container through a caller-provided backend — the seam the
    /// fault-injection harness uses to put a [`FaultyBackend`] under the whole
    /// pipeline.
    ///
    /// [`FaultyBackend`]: crate::store::backend::FaultyBackend
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
        // The open-time reads (header, offset index, node weights, checksum footer)
        // retry under the same policy as page faults, each verified section as its
        // own retry unit (see `read_tpg_index_backend`); the retries are folded into
        // the cache's counter afterwards. Unlike page faults, open also retries on
        // format/corruption/EOF errors: a bit flip in the header read parses into
        // arbitrary nonsense (bad version, absurd counts, out-of-range crc
        // positions) *before* the header checksum can be verified, and only a clean
        // re-read distinguishes that from a genuinely malformed file.
        let mut open_retries = 0u64;
        let meta = retry_section(&options.retry, &mut open_retries, || {
            read_tpg_meta_backend(backend.as_ref())
        })?;
        let (offsets, node_weights, checksums) =
            read_tpg_index_backend(backend.as_ref(), &meta, &options.retry, &mut open_retries)?;
        let resident_charge = MemoryScope::charge_global(
            offsets.size_in_bytes()
                + node_weights.len() * std::mem::size_of::<NodeWeight>()
                + checksums.blocks.len() * std::mem::size_of::<u32>(),
        );
        let cache = Box::new(PageCache::new(
            backend,
            meta.data_start(),
            meta.data_len,
            checksums,
            options,
        ));
        cache
            .stats
            .retried_reads
            .fetch_add(open_retries, Ordering::Relaxed);
        Ok(Self {
            meta,
            path,
            offsets,
            node_weights,
            cache,
            resident_charge,
            poison: Poison::default(),
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

    /// Current page-cache counters.
    pub fn cache_stats(&self) -> CacheStatsSnapshot {
        self.cache.snapshot()
    }

    /// Bytes currently charged to the memory accounting for this graph: the
    /// semi-external arrays plus all committed page frames.
    pub fn accounted_bytes(&self) -> usize {
        self.resident_charge.bytes() + self.cache.charged.load(Ordering::Relaxed)
    }

    /// Size in bytes of the uncompressed CSR form of the stored graph.
    pub fn csr_size_in_bytes(&self) -> usize {
        self.meta.csr_size_in_bytes()
    }

    /// Whether a fatal read error has poisoned this graph (accessors now return empty
    /// neighbourhoods without touching the disk).
    pub fn is_poisoned(&self) -> bool {
        self.poison.is_poisoned()
    }

    /// Takes the first fatal error if the graph poisoned itself (leaving the graph
    /// poisoned). Drivers call this after a run to decide whether the result is valid.
    pub fn take_fatal_error(&self) -> Option<FatalIoError> {
        self.poison.take_fatal_error()
    }

    /// Installs a callback that captures ambient context (e.g. the active pipeline
    /// phase) the moment the graph poisons itself; the captured string travels in
    /// [`FatalIoError::context`]. Replaces any previous observer.
    pub fn set_fault_observer(&self, observe: impl Fn() -> String + Send + Sync + 'static) {
        self.poison.set_fault_observer(observe);
    }

    /// Byte range of `u`'s encoded neighbourhood within the data section.
    fn range(&self, u: NodeId) -> (u64, u64) {
        let u = u as usize;
        (self.offsets.get(u), self.offsets.get(u + 1))
    }

    /// Decoded header of `u`'s neighbourhood, its degree, surfacing read failures as
    /// `Err` instead of engaging the built-in poison protocol. This is the seam
    /// per-session views ([`StoreSession`](crate::store::StoreSession)) read through, so
    /// one session's unrecoverable fault stays confined to that session.
    pub fn try_header(&self, u: NodeId) -> io::Result<usize> {
        let (start, end) = self.range(u);
        let end = end.min(start + MAX_VARINT_LEN as u64);
        with_decode_buf(|buf| {
            self.cache.read_range(start, end, buf)?;
            Ok(decode_degree(buf, 0).0)
        })
    }

    /// Iterates `u`'s neighbourhood, surfacing read failures as `Err` instead of
    /// engaging the built-in poison protocol (the per-session counterpart of
    /// [`Graph::for_each_neighbor`]).
    pub fn try_for_each_neighbor(
        &self,
        u: NodeId,
        f: &mut dyn FnMut(NodeId, EdgeWeight),
    ) -> io::Result<()> {
        let (start, end) = self.range(u);
        with_decode_buf(|buf| {
            self.cache.read_range(start, end, buf)?;
            decode_neighborhood(buf, 0, u, self.meta.edge_weighted, &self.meta.config, f);
            Ok(())
        })
    }
}

impl Graph for PagedGraph {
    fn n(&self) -> usize {
        self.meta.n
    }

    fn m(&self) -> usize {
        self.meta.m
    }

    fn degree(&self, u: NodeId) -> usize {
        // Only the degree's bytes are fetched; a poisoned graph reads 0.
        self.poison.read(|| self.try_header(u))
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
        self.poison.read(|| self.try_for_each_neighbor(u, f));
    }

    fn is_edge_weighted(&self) -> bool {
        self.meta.edge_weighted
    }

    fn is_node_weighted(&self) -> bool {
        !self.node_weights.is_empty()
    }

    fn record_obs_metrics(&self, metrics: &obs::MetricsRegistry) {
        self.cache_stats().export_into(metrics);
    }

    fn max_degree(&self) -> usize {
        self.meta.max_degree
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::compressed::tests::{hub_graph, hub_graph_builder, HUB_RUNS};
    use crate::compressed::CompressedGraph;
    use crate::gen;
    use crate::store::backend::{FaultPlan, FaultyBackend};
    use crate::store::container::{write_tpg_from_graph, TpgSummary, TpgWriter};
    use proptest::prelude::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "terapart_paged_test_{}_{}",
            std::process::id(),
            name
        ));
        p
    }

    /// Writes `graph` with `block_len`-byte checksum blocks: pages below the default
    /// 4 KiB block stay that small only in a container whose blocks are no larger.
    fn write_with_blocks(
        graph: &impl Graph,
        path: &Path,
        config: &CompressionConfig,
        block_len: usize,
    ) -> TpgSummary {
        TpgWriter::create(path, graph.n(), graph.is_edge_weighted(), config)
            .unwrap()
            .with_checksum_block_len(block_len)
            .write_graph(graph)
            .unwrap()
    }

    /// 64-byte pages, for containers written with 64-byte blocks.
    fn tiny_options() -> PagedGraphOptions {
        PagedGraphOptions {
            page_size: 64,
            budget_bytes: 256,
            ..PagedGraphOptions::default()
        }
    }

    fn assert_matches_graph(paged: &PagedGraph, reference: &impl Graph) {
        assert_eq!(paged.n(), reference.n());
        assert_eq!(paged.m(), reference.m());
        assert_eq!(paged.total_node_weight(), reference.total_node_weight());
        assert_eq!(paged.total_edge_weight(), reference.total_edge_weight());
        assert_eq!(paged.max_degree(), reference.max_degree());
        for u in 0..reference.n() as NodeId {
            assert_eq!(paged.degree(u), reference.degree(u), "degree of {}", u);
            assert_eq!(paged.node_weight(u), reference.node_weight(u));
            // Iteration order must match exactly (not just as sets): partitioning
            // determinism depends on it.
            assert_eq!(
                paged.neighbors_vec(u),
                reference.neighbors_vec(u),
                "neighbourhood of {}",
                u
            );
        }
    }

    /// Right after open, before any page is faulted, a paged store charges exactly its
    /// resident arrays: the packed offset index (`n + 1` entries of the data section's
    /// width plus 8 bytes of tail padding), 8 bytes per node weight and 4 per
    /// data-block crc — the sum the resident stores pin in `store::mmap`.
    #[test]
    fn an_open_paged_store_charges_exactly_its_resident_arrays() {
        let csr = gen::with_random_node_weights(&gen::weblike(10, 8, 2), 6, 9);
        let path = tmp("resident_charge.tpg");
        write_tpg_from_graph(&csr, &path, &CompressionConfig::default()).unwrap();
        let paged = PagedGraph::open(&path).unwrap();
        let meta = paged.meta();
        assert!(meta.node_weighted && meta.checksum_block_count() > 1);
        let index = (meta.n + 1) * crate::packed::width_for(meta.data_len) + 8;
        let blocks = meta.checksum_block_count() as usize;
        assert_eq!(paged.accounted_bytes(), index + 8 * meta.n + 4 * blocks);
        drop(paged);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn paged_iteration_is_identical_to_compressed_and_csr() {
        let csr = gen::weblike(10, 8, 2);
        let config = CompressionConfig::default();
        let compressed = CompressedGraph::from_csr(&csr, &config);
        let path = tmp("identical.tpg");
        write_with_blocks(&csr, &path, &config, 64);
        let paged = PagedGraph::open_with_options(&path, &tiny_options()).unwrap();
        assert_matches_graph(&paged, &compressed);
        // CSR neighbourhoods are sorted; compare as sets against the paged view.
        for u in 0..csr.n() as NodeId {
            let mut a = paged.neighbors_vec(u);
            a.sort_unstable();
            assert_eq!(a, csr.neighbors_vec(u));
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn tiny_budget_forces_eviction_but_stays_correct() {
        let csr = gen::rgg2d(1500, 12, 5);
        let path = tmp("eviction.tpg");
        let summary = write_with_blocks(&csr, &path, &CompressionConfig::default(), 64);
        let options = tiny_options();
        assert!(
            (summary.data_bytes as usize) > options.budget_bytes * 4,
            "instance too small to stress the cache: {} data bytes",
            summary.data_bytes
        );
        let paged = PagedGraph::open_with_options(&path, &options).unwrap();
        // Two full sweeps: the second must re-fault pages (the working set exceeds the
        // budget), yet decode identical neighbourhoods.
        let first: Vec<Vec<(NodeId, EdgeWeight)>> = (0..csr.n() as NodeId)
            .map(|u| paged.neighbors_vec(u))
            .collect();
        let stats_after_first = paged.cache_stats();
        assert!(
            stats_after_first.evictions > 0,
            "no evictions at tiny budget"
        );
        for u in 0..csr.n() as NodeId {
            assert_eq!(paged.neighbors_vec(u), first[u as usize]);
        }
        // The committed frames never exceed the configured budget (rounded up to one
        // frame per shard).
        let max_frames = (options.budget_bytes / options.page_size).max(PAGE_CACHE_SHARDS);
        assert!(paged.cache.charged.load(Ordering::Relaxed) <= max_frames * options.page_size);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn weighted_graphs_decode_through_pages() {
        let csr = gen::with_random_node_weights(
            &gen::with_random_edge_weights(&gen::rhg_like(600, 10, 2.8, 7), 30, 8),
            6,
            9,
        );
        let config = CompressionConfig::default();
        let compressed = CompressedGraph::from_csr(&csr, &config);
        let path = tmp("weighted.tpg");
        write_with_blocks(&csr, &path, &config, 64);
        let paged = PagedGraph::open_with_options(&path, &tiny_options()).unwrap();
        assert!(paged.is_edge_weighted() && paged.is_node_weighted());
        assert_matches_graph(&paged, &compressed);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn a_hub_neighbourhood_spans_pages() {
        let degree = 11_500;
        let csr = hub_graph(degree, &HUB_RUNS, 4, true);
        let config = CompressionConfig::default();
        let compressed = CompressedGraph::from_csr(&csr, &config);
        let path = tmp("hub.tpg");
        write_with_blocks(&csr, &path, &config, 128);
        // Page size far below the hub neighbourhood size: the decode buffer must be
        // assembled from many pages.
        let paged = PagedGraph::open_with_options(
            &path,
            &PagedGraphOptions {
                page_size: 128,
                budget_bytes: 1024,
                ..PagedGraphOptions::default()
            },
        )
        .unwrap();
        assert_matches_graph(&paged, &compressed);
        assert_eq!(paged.degree(csr.n() as NodeId - 1), degree);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn out_of_bounds_pages_are_clean_errors_not_underflow() {
        // A page index past the data section used to compute `data_len - offset`,
        // underflowing (wrapping in release) before the read could fail. It must be a
        // structured `UnexpectedEof`-style error instead.
        let csr = gen::grid2d(10, 10);
        let path = tmp("oob_page.tpg");
        write_with_blocks(&csr, &path, &CompressionConfig::default(), 64);
        let paged = PagedGraph::open_with_options(&path, &tiny_options()).unwrap();
        let beyond = paged.cache.data_len / paged.cache.page_size as u64 + 3;
        let err = paged.cache.with_page(beyond, |_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            err.to_string().contains("data section"),
            "unexpected error: {}",
            err
        );
        // Same for a page so large that `page * page_size` itself would overflow.
        let err = paged.cache.with_page(u64::MAX / 2, |_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // And for a byte range beyond the section (a corrupted offset index).
        let mut buf = Vec::new();
        let err = paged
            .cache
            .read_range(0, paged.cache.data_len + 17, &mut buf)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // The cache stays fully usable after the rejected accesses.
        assert_eq!(paged.neighbors_vec(0).len(), paged.degree(0));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn a_small_page_is_rounded_up_to_whole_blocks_and_verified_whole() {
        // A page below the container's 4 KiB checksum block becomes one block: a miss
        // reads and verifies exactly its rounded page, and the check covers the bytes of
        // that page nobody asked for.
        let csr = gen::rgg2d(20_000, 12, 21);
        let path = tmp("rounded_pages.tpg");
        write_tpg_from_graph(&csr, &path, &CompressionConfig::default()).unwrap();
        let options = PagedGraphOptions {
            page_size: 1000,
            budget_bytes: 1 << 20,
            retry: RetryPolicy::disabled(),
            ..PagedGraphOptions::default()
        };
        let paged = PagedGraph::open_with_options(&path, &options).unwrap();
        let (page, data_len) = (4096u64, paged.cache.data_len);
        assert_eq!(u64::from(paged.cache.checksums.block_len), page);
        assert_eq!(paged.cache_stats().page_size, page);
        assert!(data_len > 5 * page && data_len % page != 0);
        // Cold and unaligned: the middle of page 3, then the short last page.
        let mut buf = Vec::new();
        let middle = (3 * page + 1000, 3 * page + 2000);
        paged
            .cache
            .read_range(middle.0, middle.1, &mut buf)
            .unwrap();
        paged
            .cache
            .read_range(data_len - 10, data_len, &mut buf)
            .unwrap();
        let stats = paged.cache_stats();
        assert_eq!((stats.misses, stats.hits), (2, 0));
        assert_eq!(stats.bytes_read, page + data_len % page);
        assert_eq!(stats.verified_bytes, stats.bytes_read);
        assert_eq!(stats.checksum_failures, 0);

        // One flipped byte anywhere in page 3 fails the read of its middle; page 4 is
        // intact and still readable.
        let clean = std::fs::read(&path).unwrap();
        let corrupt_path = tmp("rounded_pages_corrupt.tpg");
        for at in [3 * page, 3 * page + 1500, 4 * page - 1] {
            let mut bytes = clean.clone();
            bytes[(paged.meta().data_start() + at) as usize] ^= 0x10;
            std::fs::write(&corrupt_path, &bytes).unwrap();
            let corrupt = PagedGraph::open_with_options(&corrupt_path, &options).unwrap();
            let err = corrupt
                .cache
                .read_range(middle.0, middle.1, &mut buf)
                .unwrap_err();
            assert!(is_checksum_mismatch(&err), "flip at {}: {}", at, err);
            assert_eq!(corrupt.cache_stats().checksum_failures, 1);
            corrupt
                .cache
                .read_range(4 * page, 4 * page + 10, &mut buf)
                .unwrap();
        }
        std::fs::remove_file(path).ok();
        std::fs::remove_file(corrupt_path).ok();
    }

    #[test]
    fn a_container_with_64_kib_blocks_decodes_identically_under_4_kib_pages() {
        // Readers accept any block length: 4 KiB pages over a 64 KiB-block container
        // are rounded up to 64 KiB, evict, and decode what the in-memory graph decodes.
        let csr = gen::rgg2d(48_000, 12, 21);
        let config = CompressionConfig::default();
        let path = tmp("old_geometry.tpg");
        write_with_blocks(&csr, &path, &config, 64 * 1024);
        let options = PagedGraphOptions {
            page_size: 4096,
            budget_bytes: 128 * 1024,
            ..PagedGraphOptions::default()
        };
        let paged = PagedGraph::open_with_options(&path, &options).unwrap();
        assert_eq!(paged.cache_stats().page_size, 64 * 1024);
        // One frame a shard: pages 0 and 8 compete for shard 0.
        assert!(paged.cache.data_len > 8 * 64 * 1024);
        assert_matches_graph(&paged, &CompressedGraph::from_csr(&csr, &config));
        let stats = paged.cache_stats();
        assert!(stats.evictions > 0, "one frame a shard evicts: {:?}", stats);
        assert_eq!(stats.verified_bytes, stats.bytes_read);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn a_page_never_outgrows_the_data_section() {
        // The largest block length the format admits is 1 GiB; one such block covers a
        // small container whole, and its page is the data section, not a 1 GiB frame.
        let csr = gen::grid2d(30, 30);
        let config = CompressionConfig::default();
        let path = tmp("huge_blocks.tpg");
        write_with_blocks(&csr, &path, &config, 1 << 30);
        let paged = PagedGraph::open(&path).unwrap();
        assert_eq!(paged.cache.page_size as u64, paged.cache.data_len);
        assert_matches_graph(&paged, &CompressedGraph::from_csr(&csr, &config));
        assert!(paged.accounted_bytes() < 1 << 20);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn a_failed_miss_leaves_an_empty_frame_not_a_stale_one() {
        // Two 64-byte frames a shard over a 64-byte-block container; pages 0, 8 and 16
        // share shard 0. The fault plan (seed 19, period 16) fails read op 2 alone among
        // this test's reads: the miss of page 16, after it has claimed page 0's frame.
        let csr = gen::grid2d(20, 20);
        let path = tmp("stale_frame.tpg");
        write_with_blocks(&csr, &path, &CompressionConfig::default(), 64);
        let file = FileBackend::open(&path).unwrap();
        let meta = read_tpg_meta_backend(&file).unwrap();
        assert!(meta.data_len > 16 * 64, "page 16 must exist");
        let (_, _, checksums) =
            read_tpg_index_backend(&file, &meta, &RetryPolicy::disabled(), &mut 0).unwrap();
        let plan = FaultPlan {
            seed: 19,
            eio_period: 16,
            ..FaultPlan::default()
        };
        let faulty = FaultyBackend::new(file, plan);
        let faults = faulty.stats();
        let options = PagedGraphOptions {
            page_size: 64,
            budget_bytes: 2 * PAGE_CACHE_SHARDS * 64,
            retry: RetryPolicy::disabled(),
            ..PagedGraphOptions::default()
        };
        let cache = PageCache::new(
            Box::new(faulty),
            meta.data_start(),
            meta.data_len,
            checksums,
            &options,
        );
        cache.with_page(0, |_| ()).unwrap();
        cache.with_page(8, |_| ()).unwrap();
        // Page 16 evicts page 0 from frame 0, and its read fails.
        assert!(cache.with_page(16, |_| ()).is_err());
        // Page 0 faults back into frame 1 (evicting page 8); page 8 then reclaims
        // frame 0, which must hold nothing rather than still claim page 0.
        cache.with_page(0, |_| ()).unwrap();
        cache.with_page(8, |_| ()).unwrap();
        let before = cache.snapshot();
        cache.with_page(0, |_| ()).unwrap();
        let after = cache.snapshot();
        assert_eq!(after.hits - before.hits, 1, "page 0 lost its mapping");
        assert_eq!(after.evictions, 2, "an empty frame was counted as evicted");
        assert_eq!(after.misses, 5);
        assert_eq!(faults.eio.load(Ordering::Relaxed), 1);
        std::fs::remove_file(path).ok();
    }

    /// Body of the backend equivalence property below, out of the macro so the shim's
    /// token-muncher stays shallow.
    fn check_three_way_equivalence(
        hub: (usize, usize),
        edges: Vec<(u32, u32, u64)>,
        intervals: bool,
        page_size: usize,
    ) {
        // A hub of 9 998-12 007 neighbours, its other vertices leaves,
        // plus random weighted edges among the first 400 vertices.
        let (degree, slot) = hub;
        let (mut b, _) = hub_graph_builder(degree, &HUB_RUNS, slot);
        let n = b.n();
        for (u, v, w) in edges {
            let (u, v) = (NodeId::from(u), NodeId::from(v));
            if u != v {
                b.add_edge(u, v, w);
            }
        }
        let csr = b.build();
        let config = CompressionConfig {
            enable_intervals: intervals,
        };
        let compressed = CompressedGraph::from_csr(&csr, &config);
        let path = tmp(&format!("prop_{}_{}", degree, page_size));
        write_with_blocks(&csr, &path, &config, 64);
        let paged = PagedGraph::open_with_options(
            &path,
            &PagedGraphOptions {
                page_size,
                budget_bytes: page_size * 3,
                ..PagedGraphOptions::default()
            },
        )
        .unwrap();
        let mmap = crate::store::mmap::MmapGraph::open(&path).unwrap();
        assert_eq!(paged.n(), csr.n());
        assert_eq!(paged.m(), csr.m());
        assert_eq!(mmap.n(), csr.n());
        assert_eq!(mmap.m(), csr.m());
        for u in 0..n as NodeId {
            assert_eq!(paged.degree(u), csr.degree(u));
            assert_eq!(mmap.degree(u), compressed.degree(u));
            let reference = compressed.neighbors_vec(u);
            assert_eq!(paged.neighbors_vec(u), reference);
            assert_eq!(
                mmap.neighbors_vec(u),
                reference,
                "mmap neighbourhood of {}",
                u
            );
            let mut sorted = paged.neighbors_vec(u);
            sorted.sort_unstable();
            assert_eq!(sorted, csr.neighbors_vec(u));
        }
        // One frame a shard: once page 8 exists, it and page 0 compete for shard 0.
        let stats = paged.cache_stats();
        if paged.cache.data_len > PAGE_CACHE_SHARDS as u64 * stats.page_size {
            assert!(stats.evictions > 0, "one frame a shard evicts: {:?}", stats);
        }
        std::fs::remove_file(path).ok();
    }

    // Paged and mmap neighbour iteration ≡ in-memory compressed ≡ CSR, on random
    // graphs, under a pathologically small page cache: one frame in each of the 8
    // shards, over graphs of hundreds of pages, so a sweep evicts.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_paged_equals_compressed_equals_csr(
            hub in (
                9_998usize..12_008,
                0usize..5,
            ),
            edges in proptest::collection::vec((0u32..400, 0u32..400, 1u64..9), 0..2000),
            intervals in proptest::bool::ANY,
            page_size in 64usize..192,
        ) {
            check_three_way_equivalence(hub, edges, intervals, page_size);
        }
    }
}
