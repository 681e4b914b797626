//! Corruption-robustness property tests of the `.tpg` container.
//!
//! Every byte of a container is covered by some crc32 — the header crc, the
//! offset-index crc (over the VarInt neighbourhood lengths), the node-weight crc, or a
//! per-block data crc (stored block crcs are themselves verified against the recomputed
//! block on read, so a flip in the *stored* checksum is caught exactly like a flip in
//! the data it covers). These properties assert
//! the consequence: flipping any single byte of a valid container, or
//! truncating it anywhere, yields a structured [`IoError`] — from the eager
//! decode path, from the lazily verifying [`PagedGraph`], and from the
//! everything-verified-at-open [`MmapGraph`] — and never a panic. They run at both
//! id widths via the `wide-ids` feature.

use std::sync::{Arc, Mutex, OnceLock};

use graph::store::container::read_tpg_compressed_backend;
use graph::store::{MmapGraph, RetryPolicy, StorageBackend, TpgWriter};
use graph::traits::Graph;
use graph::{gen, CompressionConfig, NodeId, PagedGraph, PagedGraphOptions};
use proptest::prelude::*;

/// A byte-vector storage backend: lets each property case corrupt an in-memory
/// copy of the fixture without touching the filesystem.
#[derive(Debug, Clone, Default)]
struct MemBackend {
    data: Arc<Mutex<Vec<u8>>>,
}

impl MemBackend {
    fn with_bytes(bytes: Vec<u8>) -> Self {
        Self {
            data: Arc::new(Mutex::new(bytes)),
        }
    }
}

impl StorageBackend for MemBackend {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
        let data = self.data.lock().unwrap();
        let start = (offset as usize).min(data.len());
        let n = buf.len().min(data.len() - start);
        buf[..n].copy_from_slice(&data[start..start + n]);
        Ok(n)
    }

    fn append(&self, buf: &[u8]) -> std::io::Result<()> {
        self.data.lock().unwrap().extend_from_slice(buf);
        Ok(())
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> std::io::Result<()> {
        let mut data = self.data.lock().unwrap();
        let end = offset as usize + buf.len();
        if data.len() < end {
            data.resize(end, 0);
        }
        data[offset as usize..end].copy_from_slice(buf);
        Ok(())
    }

    fn sync(&self) -> std::io::Result<()> {
        Ok(())
    }

    fn len(&self) -> std::io::Result<u64> {
        Ok(self.data.lock().unwrap().len() as u64)
    }
}

fn build_fixture() -> Vec<u8> {
    let g = gen::with_random_node_weights(&gen::weblike(9, 8, 5), 4, 2);
    let out = MemBackend::default();
    TpgWriter::create_with_backend(
        Box::new(out.clone()),
        g.n(),
        g.is_edge_weighted(),
        &CompressionConfig::default(),
    )
    .unwrap()
    .with_checksum_block_len(256)
    .write_graph(&g)
    .unwrap();
    let bytes = out.data.lock().unwrap().clone();
    assert!(bytes.len() > 512, "fixture too small to be interesting");
    bytes
}

/// A valid container (node- and edge-weighted, 256-byte checksum blocks so the
/// footer holds many block crcs), built once.
fn fixture() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(build_fixture)
}

/// Retries re-read the same corrupt bytes, so disable them to keep cases fast.
fn paged_options() -> PagedGraphOptions {
    PagedGraphOptions {
        retry: RetryPolicy::disabled(),
        ..PagedGraphOptions::with_budget(32 * 1024)
    }
}

/// Opens the corrupted container as a `PagedGraph` and asserts the corruption
/// cannot go unnoticed: either the open fails, or the first full neighbourhood
/// sweep poisons the graph with a fatal error. Nothing may panic.
fn assert_paged_detects(bytes: Vec<u8>, what: &str) {
    match PagedGraph::open_with_backend(Box::new(MemBackend::with_bytes(bytes)), &paged_options()) {
        Err(_) => {}
        Ok(paged) => {
            for u in 0..paged.n() as NodeId {
                paged.for_each_neighbor(u, &mut |_, _| {});
            }
            assert!(
                paged.take_fatal_error().is_some(),
                "{} survived a full PagedGraph sweep undetected",
                what
            );
            assert!(paged.is_poisoned());
        }
    }
}

/// The mmap backend verifies *everything* at open (it has no lazy verification
/// to fall back on), so a corrupted container must simply refuse to open.
fn assert_mmap_detects(bytes: Vec<u8>, what: &str) {
    assert!(
        MmapGraph::open_with_backend(Box::new(MemBackend::with_bytes(bytes)), &paged_options())
            .is_err(),
        "{} opened as an MmapGraph undetected",
        what
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Any single corrupted byte — header, data, offset index, node weights or
    // footer — turns every read path into an error, never a panic and never a
    // silently wrong graph.
    #[test]
    fn prop_single_byte_corruption_is_always_detected(
        pos_seed in any::<u64>(),
        mask in 1u32..256,
    ) {
        let clean = fixture();
        let pos = (pos_seed % clean.len() as u64) as usize;
        let mut bytes = clean.to_vec();
        bytes[pos] ^= mask as u8;
        let what = format!("flip of byte {} (mask {:#04x})", pos, mask);

        let eager = read_tpg_compressed_backend(&MemBackend::with_bytes(bytes.clone()));
        prop_assert!(eager.is_err(), "{} decoded eagerly without error", what);
        assert_paged_detects(bytes.clone(), &what);
        assert_mmap_detects(bytes, &what);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Truncating the container anywhere — even one byte — fails every read
    // path: the trailing header crc (and below 88 bytes, the header itself)
    // can no longer be read.
    #[test]
    fn prop_truncations_fail_to_open(cut_seed in any::<u64>()) {
        let clean = fixture();
        let keep = (cut_seed % clean.len() as u64) as usize;
        let bytes = clean[..keep].to_vec();
        let what = format!("container truncated to {} of {} bytes", keep, clean.len());

        prop_assert!(
            read_tpg_compressed_backend(&MemBackend::with_bytes(bytes.clone())).is_err(),
            "{} decoded eagerly",
            what
        );
        prop_assert!(
            PagedGraph::open_with_backend(
                Box::new(MemBackend::with_bytes(bytes.clone())),
                &paged_options()
            )
            .is_err(),
            "{} opened as a PagedGraph",
            what
        );
        assert_mmap_detects(bytes, &what);
    }
}
