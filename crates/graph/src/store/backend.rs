//! The injectable storage seam under [`PagedGraph`] and [`TpgWriter`]: positional
//! reads, appends and fsync behind a small object-safe trait, with a real-file
//! implementation and a deterministic fault injector for robustness tests.
//!
//! [`PagedGraph`]: crate::store::PagedGraph
//! [`TpgWriter`]: crate::store::TpgWriter

use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Positional storage used by the `.tpg` reader and writer. All methods take `&self`
/// so one backend can serve concurrent readers (the page-cache shards); writers are
/// single-owner by construction.
pub trait StorageBackend: Send + Sync + std::fmt::Debug {
    /// Reads up to `buf.len()` bytes at `offset`, returning how many were read.
    /// Short reads are legal (callers loop); `Ok(0)` means end of file.
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize>;

    /// Appends `buf` at the current end of the store.
    fn append(&self, buf: &[u8]) -> io::Result<()>;

    /// Writes `buf` at an absolute offset (used to patch the header at finish).
    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<()>;

    /// Durably flushes all written data to the underlying medium.
    fn sync(&self) -> io::Result<()>;

    /// Current length of the store in bytes.
    fn len(&self) -> io::Result<u64>;

    /// Whether the store is empty.
    fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }

    /// The underlying [`File`], if this backend is a plain file whose bytes may be
    /// memory-mapped directly. Fault-injecting and in-memory backends return `None`
    /// (the default), which routes the mmap store onto its heap fallback so every
    /// byte keeps flowing through [`read_at`](Self::read_at) — the seam the fault
    /// schedules hook.
    fn as_file(&self) -> Option<&File> {
        None
    }
}

/// Reads exactly `buf.len()` bytes at `offset`, looping over short reads. Fails with
/// [`io::ErrorKind::UnexpectedEof`] if the store ends first. This is the only place
/// short reads are resolved, so every backend read funnels through one code path.
pub fn read_full_at(
    backend: &dyn StorageBackend,
    mut buf: &mut [u8],
    mut offset: u64,
) -> io::Result<()> {
    while !buf.is_empty() {
        match backend.read_at(buf, offset) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!(
                        "storage ended {} bytes short at offset {}",
                        buf.len(),
                        offset
                    ),
                ))
            }
            Ok(read) => {
                buf = &mut buf[read..];
                offset += read as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The production backend: a plain [`File`] accessed with positional reads (no shared
/// cursor) and appends tracked by an explicit tail position.
#[derive(Debug)]
pub struct FileBackend {
    file: File,
    append_pos: AtomicU64,
}

impl FileBackend {
    /// Opens an existing file read-only.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Ok(Self {
            file,
            append_pos: AtomicU64::new(len),
        })
    }

    /// Creates (truncating) a file for writing.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self {
            file,
            append_pos: AtomicU64::new(0),
        })
    }

    fn write_all_at(&self, offset: u64, buf: &[u8]) -> io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.write_all_at(buf, offset)
        }
        #[cfg(windows)]
        {
            use std::os::windows::fs::FileExt;
            let mut done = 0;
            while done < buf.len() {
                done += self.file.seek_write(&buf[done..], offset + done as u64)?;
            }
            Ok(())
        }
    }
}

impl StorageBackend for FileBackend {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_at(buf, offset)
        }
        #[cfg(windows)]
        {
            use std::os::windows::fs::FileExt;
            self.file.seek_read(buf, offset)
        }
    }

    fn append(&self, buf: &[u8]) -> io::Result<()> {
        let pos = self.append_pos.load(Ordering::Relaxed);
        self.write_all_at(pos, buf)?;
        self.append_pos
            .store(pos + buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<()> {
        self.write_all_at(offset, buf)
    }

    fn sync(&self) -> io::Result<()> {
        self.file.sync_all()
    }

    fn as_file(&self) -> Option<&File> {
        Some(&self.file)
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }
}

/// Deterministic, seedable fault schedule for a [`FaultyBackend`].
///
/// Faults fire on a fixed modular schedule keyed by per-kind operation counters: read
/// operation number `op` suffers a fault of a given kind iff its period `p` is non-zero
/// and `op % p == phase(seed, kind)`. Two consecutive operations therefore never hit
/// the same fault kind (for `p >= 2`), which is what makes a **single** retry
/// sufficient against transient faults — the property the retry/backoff tests pin
/// down. `fail_reads_from` models a permanent outage instead: every read from that
/// operation number on fails, exhausting any retry budget.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the per-kind schedule phases.
    pub seed: u64,
    /// Every `eio_period`-th read fails with a transient `EIO` (0 = never).
    pub eio_period: u64,
    /// Every `short_read_period`-th read returns only half the requested bytes
    /// (0 = never). Exercises the short-read resolution loop.
    pub short_read_period: u64,
    /// Every `bit_flip_period`-th read flips one bit of the *returned* bytes
    /// (0 = never). The file itself stays intact, so a checksum-triggered re-read
    /// observes clean data — the transient-corruption case.
    pub bit_flip_period: u64,
    /// Every `write_fail_period`-th append/patch fails with `EIO` (0 = never).
    pub write_fail_period: u64,
    /// Every `sync_fail_period`-th fsync fails with `EIO` (0 = never).
    pub sync_fail_period: u64,
    /// Permanent outage: every read operation numbered `>= n` fails with `EIO`.
    pub fail_reads_from: Option<u64>,
}

impl FaultPlan {
    /// A plan with only transient faults (EIO + short reads + bit flips) at moderate
    /// periods — every run under it must heal through retries.
    pub fn transient(seed: u64) -> Self {
        Self {
            seed,
            eio_period: 5,
            short_read_period: 3,
            bit_flip_period: 7,
            ..Self::default()
        }
    }
}

/// Counters of the faults a [`FaultyBackend`] actually injected, shared with the test
/// that owns the plan (the backend itself is consumed by the graph/writer).
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Transient `EIO` read failures injected.
    pub eio: AtomicU64,
    /// Short reads injected.
    pub short_reads: AtomicU64,
    /// Bit flips injected into returned read buffers.
    pub bit_flips: AtomicU64,
    /// Write failures injected.
    pub write_failures: AtomicU64,
    /// Fsync failures injected.
    pub sync_failures: AtomicU64,
    /// Reads refused by the permanent-outage rule.
    pub outage_reads: AtomicU64,
}

impl FaultStats {
    /// Total number of injected faults of any kind.
    pub fn total(&self) -> u64 {
        self.eio.load(Ordering::Relaxed)
            + self.short_reads.load(Ordering::Relaxed)
            + self.bit_flips.load(Ordering::Relaxed)
            + self.write_failures.load(Ordering::Relaxed)
            + self.sync_failures.load(Ordering::Relaxed)
            + self.outage_reads.load(Ordering::Relaxed)
    }
}

/// SplitMix64: cheap, well-distributed mixer for the schedule phases and flip
/// positions.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn transient_eio(context: &str) -> io::Error {
    // Raw EIO: surfaces with an `Uncategorized` kind, exactly like a real disk error,
    // so the retry classification is tested against what production would see.
    io::Error::new(
        io::Error::from_raw_os_error(5).kind(),
        format!("injected transient I/O fault ({})", context),
    )
}

/// A [`StorageBackend`] decorator that injects faults on the deterministic schedule of
/// a [`FaultPlan`]. Wraps any backend (usually a [`FileBackend`]).
#[derive(Debug)]
pub struct FaultyBackend<B> {
    inner: B,
    plan: FaultPlan,
    read_ops: AtomicU64,
    write_ops: AtomicU64,
    sync_ops: AtomicU64,
    stats: Arc<FaultStats>,
}

impl<B: StorageBackend> FaultyBackend<B> {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            read_ops: AtomicU64::new(0),
            write_ops: AtomicU64::new(0),
            sync_ops: AtomicU64::new(0),
            stats: Arc::new(FaultStats::default()),
        }
    }

    /// Handle to the injected-fault counters; stays valid after the backend is moved
    /// into a graph or writer.
    pub fn stats(&self) -> Arc<FaultStats> {
        Arc::clone(&self.stats)
    }

    /// Whether fault kind `kind` fires on operation number `op` under period `period`.
    fn fires(&self, kind: u64, op: u64, period: u64) -> bool {
        period != 0 && op % period == mix(self.plan.seed ^ kind) % period
    }
}

impl<B: StorageBackend> StorageBackend for FaultyBackend<B> {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        let op = self.read_ops.fetch_add(1, Ordering::Relaxed);
        if self.plan.fail_reads_from.is_some_and(|from| op >= from) {
            self.stats.outage_reads.fetch_add(1, Ordering::Relaxed);
            return Err(transient_eio("permanent outage"));
        }
        if self.fires(1, op, self.plan.eio_period) {
            self.stats.eio.fetch_add(1, Ordering::Relaxed);
            return Err(transient_eio(&format!("read op {}", op)));
        }
        if buf.len() > 1 && self.fires(2, op, self.plan.short_read_period) {
            self.stats.short_reads.fetch_add(1, Ordering::Relaxed);
            let half = buf.len() / 2;
            return self.inner.read_at(&mut buf[..half], offset);
        }
        let read = self.inner.read_at(buf, offset)?;
        if read > 0 && self.fires(3, op, self.plan.bit_flip_period) {
            let h = mix(self.plan.seed ^ op.rotate_left(17));
            buf[(h as usize) % read] ^= 1 << ((h >> 32) % 8);
            self.stats.bit_flips.fetch_add(1, Ordering::Relaxed);
        }
        Ok(read)
    }

    fn append(&self, buf: &[u8]) -> io::Result<()> {
        let op = self.write_ops.fetch_add(1, Ordering::Relaxed);
        if self.fires(4, op, self.plan.write_fail_period) {
            self.stats.write_failures.fetch_add(1, Ordering::Relaxed);
            return Err(transient_eio(&format!("append op {}", op)));
        }
        self.inner.append(buf)
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<()> {
        let op = self.write_ops.fetch_add(1, Ordering::Relaxed);
        if self.fires(4, op, self.plan.write_fail_period) {
            self.stats.write_failures.fetch_add(1, Ordering::Relaxed);
            return Err(transient_eio(&format!("write op {}", op)));
        }
        self.inner.write_at(offset, buf)
    }

    fn sync(&self) -> io::Result<()> {
        let op = self.sync_ops.fetch_add(1, Ordering::Relaxed);
        if self.fires(5, op, self.plan.sync_fail_period) {
            self.stats.sync_failures.fetch_add(1, Ordering::Relaxed);
            return Err(transient_eio(&format!("fsync op {}", op)));
        }
        self.inner.sync()
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "terapart_backend_test_{}_{}",
            std::process::id(),
            name
        ))
    }

    #[test]
    fn file_backend_append_then_read_round_trips() {
        let path = tmp("roundtrip.bin");
        let backend = FileBackend::create(&path).unwrap();
        backend.append(b"hello ").unwrap();
        backend.append(b"world").unwrap();
        backend.write_at(0, b"HELLO").unwrap();
        backend.sync().unwrap();
        assert_eq!(backend.len().unwrap(), 11);
        let mut buf = [0u8; 11];
        read_full_at(&backend, &mut buf, 0).unwrap();
        assert_eq!(&buf, b"HELLO world");
        // Reading past the end is a clean UnexpectedEof through the resolution loop.
        let mut long = [0u8; 16];
        let err = read_full_at(&backend, &mut long, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fault_schedule_is_deterministic_and_seed_dependent() {
        let path = tmp("deterministic.bin");
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &data).unwrap();
        let run = |seed: u64| -> Vec<Result<Vec<u8>, String>> {
            let backend = FaultyBackend::new(
                FileBackend::open(&path).unwrap(),
                FaultPlan::transient(seed),
            );
            (0..32)
                .map(|i| {
                    let mut buf = vec![0u8; 64];
                    match backend.read_at(&mut buf, (i * 64) as u64) {
                        Ok(k) => Ok(buf[..k].to_vec()),
                        Err(e) => Err(e.to_string()),
                    }
                })
                .collect()
        };
        assert_eq!(run(7), run(7), "same seed must replay identically");
        assert_ne!(run(7), run(8), "different seeds must differ");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn transient_faults_heal_on_the_next_operation() {
        // The schedule guarantee the retry layer builds on: the same fault kind never
        // fires on two consecutive operation numbers (period >= 2).
        let path = tmp("heal.bin");
        std::fs::write(&path, vec![0xABu8; 1024]).unwrap();
        for seed in 0..16u64 {
            let backend = FaultyBackend::new(
                FileBackend::open(&path).unwrap(),
                FaultPlan::transient(seed),
            );
            let mut previous_failed = false;
            for _ in 0..64 {
                let mut buf = [0u8; 16];
                let failed = backend.read_at(&mut buf, 0).is_err();
                assert!(
                    !(failed && previous_failed),
                    "EIO fired on two consecutive ops at seed {}",
                    seed
                );
                previous_failed = failed;
            }
            assert!(backend.stats().eio.load(Ordering::Relaxed) > 0);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bit_flips_corrupt_only_the_returned_buffer() {
        let path = tmp("flips.bin");
        let data = vec![0u8; 256];
        std::fs::write(&path, &data).unwrap();
        let backend = FaultyBackend::new(
            FileBackend::open(&path).unwrap(),
            FaultPlan {
                seed: 3,
                bit_flip_period: 2,
                ..FaultPlan::default()
            },
        );
        let mut flipped = 0;
        for _ in 0..16 {
            let mut buf = [0u8; 256];
            backend.read_at(&mut buf, 0).unwrap();
            if buf.iter().any(|&b| b != 0) {
                flipped += 1;
            }
        }
        assert!(flipped > 0, "no flips injected");
        assert_eq!(backend.stats().bit_flips.load(Ordering::Relaxed), flipped);
        // The file on disk is untouched.
        assert_eq!(std::fs::read(&path).unwrap(), data);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn outage_fails_every_read_from_its_operation_on() {
        let path = tmp("outage.bin");
        std::fs::write(&path, vec![1u8; 1024]).unwrap();
        let backend = FaultyBackend::new(
            FileBackend::open(&path).unwrap(),
            FaultPlan {
                fail_reads_from: Some(4),
                ..FaultPlan::default()
            },
        );
        let mut buf = [0u8; 64];
        for _ in 0..4 {
            backend.read_at(&mut buf, 0).unwrap();
        }
        for _ in 0..4 {
            assert!(backend.read_at(&mut buf, 0).is_err());
        }
        assert_eq!(backend.stats().outage_reads.load(Ordering::Relaxed), 4);
        std::fs::remove_file(path).ok();
    }
}
