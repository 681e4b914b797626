//! The `.tpg` writer holds the offset index as the VarInt lengths it writes, not as an
//! offset a vertex: with the tracking allocator installed, pushing the 2^20
//! neighbourhoods of a 1 024 x 1 024 torus (generated on the fly, each four neighbours)
//! into a writer whose backend discards the bytes peaks at most 1.5 bytes a vertex above
//! the live bytes before it, `finish` included. One byte a vertex is the index; the rest
//! is the append buffer, which `finish` bypasses for the index itself (2.02 bytes while
//! the index was copied into it). An index of `u64` offsets alone would be 8. The one `#[test]`
//! of this binary, because it reads `memtrack::global()` (see
//! `store_memory_accounting.rs`).
//!
//! Run with `-- --nocapture` to print the bytes per vertex.

use std::sync::atomic::{AtomicU64, Ordering};

use graph::store::{StorageBackend, TpgWriter};
use graph::{CompressionConfig, NodeId};

#[global_allocator]
static ALLOC: memtrack::TrackingAllocator = memtrack::TrackingAllocator::system();

const SIDE: usize = 1 << 10;
const N: usize = SIDE * SIDE;

/// A backend that keeps only its length: the container's bytes leave the heap as they
/// are written.
#[derive(Debug, Default)]
struct Discard {
    len: AtomicU64,
}

impl StorageBackend for Discard {
    fn read_at(&self, _buf: &mut [u8], _offset: u64) -> std::io::Result<usize> {
        Ok(0)
    }

    fn append(&self, buf: &[u8]) -> std::io::Result<()> {
        self.len.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn write_at(&self, _offset: u64, _buf: &[u8]) -> std::io::Result<()> {
        Ok(())
    }

    fn sync(&self) -> std::io::Result<()> {
        Ok(())
    }

    fn len(&self) -> std::io::Result<u64> {
        Ok(self.len.load(Ordering::Relaxed))
    }
}

/// The four torus neighbours of `u`, sorted by id.
fn torus_neighbors(u: usize, out: &mut Vec<(NodeId, u64)>) {
    let (row, col) = (u / SIDE, u % SIDE);
    out.clear();
    for (r, c) in [
        ((row + SIDE - 1) % SIDE, col),
        (row, (col + SIDE - 1) % SIDE),
        (row, (col + 1) % SIDE),
        ((row + 1) % SIDE, col),
    ] {
        out.push(((r * SIDE + c) as NodeId, 1));
    }
    out.sort_unstable();
}

#[test]
fn the_writer_holds_one_varint_length_a_vertex() {
    let mut neighbors = Vec::with_capacity(4);
    let before = memtrack::global().current();
    memtrack::global().reset_peak();
    let mut writer = TpgWriter::create_with_backend(
        Box::new(Discard::default()),
        N,
        false,
        &CompressionConfig::default(),
    )
    .unwrap();
    for u in 0..N {
        torus_neighbors(u, &mut neighbors);
        writer
            .push_neighborhood(u as NodeId, &neighbors, 1)
            .unwrap();
    }
    let summary = writer.finish().unwrap();
    let peak = memtrack::global().peak();
    let per_vertex = peak.saturating_sub(before) as f64 / N as f64;
    println!(
        "torus {SIDE} x {SIDE}: {} data bytes, {} file bytes, writer peak {per_vertex:.2} B per vertex",
        summary.data_bytes, summary.file_bytes
    );
    assert_eq!((summary.n, summary.m), (N, 2 * N));
    assert!(
        per_vertex <= 1.5,
        "the writer peaked at {per_vertex:.2} B per vertex, above 1.5"
    );
}
