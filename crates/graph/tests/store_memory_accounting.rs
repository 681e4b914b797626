//! The store layer's charges against `memtrack::global()`, checked from the one
//! `#[test]` of this binary so it owns its process: the assertions compare the global
//! balance before and after, which any concurrently running test that opens a store
//! would disturb. A quarantine, not the fix — the fix is ROADMAP item 1 (memory as a
//! per-run fact rather than a process-global one).

use graph::store::{write_tpg_from_graph, MmapGraph, StoreRegistry, TpgWriter};
use graph::traits::Graph;
use graph::{gen, CompressionConfig, NodeId, PagedGraph, PagedGraphOptions};

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "terapart_store_accounting_{}_{}",
        std::process::id(),
        name
    ))
}

#[test]
fn store_charges_are_taken_once_and_released() {
    paged_graph_charges_resident_arrays_and_frames();
    mmap_graph_charges_its_mapping();
    registry_dedup_charges_once_and_reopens_after_close();
}

fn paged_graph_charges_resident_arrays_and_frames() {
    let csr = gen::grid2d(40, 40);
    let path = tmp("paged.tpg");
    // 64-byte checksum blocks, so the 64-byte pages below are not rounded up.
    TpgWriter::create(&path, csr.n(), false, &CompressionConfig::default())
        .unwrap()
        .with_checksum_block_len(64)
        .write_graph(&csr)
        .unwrap();
    let options = PagedGraphOptions {
        page_size: 64,
        budget_bytes: 256,
        ..PagedGraphOptions::default()
    };
    let before = memtrack::global().current();
    {
        let paged = PagedGraph::open_with_options(&path, &options).unwrap();
        // The semi-external arrays (offset index, block crcs) are charged at open.
        let resident = paged.accounted_bytes();
        assert!(resident > 0);
        assert!(memtrack::global().current() >= before + resident);
        // Touch everything so frames get committed and charged.
        for u in 0..csr.n() as NodeId {
            paged.for_each_neighbor(u, &mut |_, _| {});
        }
        assert!(paged.accounted_bytes() >= resident + options.page_size);
        assert!(memtrack::global().current() >= before + paged.accounted_bytes());
    }
    assert!(
        memtrack::global().current() <= before,
        "paged graph charge not fully released"
    );
    std::fs::remove_file(path).ok();
}

fn mmap_graph_charges_its_mapping() {
    let csr = gen::grid2d(40, 40);
    let path = tmp("mmap.tpg");
    write_tpg_from_graph(&csr, &path, &CompressionConfig::default()).unwrap();
    let before = memtrack::global().current();
    {
        let mmap = MmapGraph::open(&path).unwrap();
        assert!(mmap.accounted_bytes() > 0);
        assert!(memtrack::global().current() >= before + mmap.accounted_bytes());
    }
    assert!(
        memtrack::global().current() <= before,
        "mmap graph charge not fully released"
    );
    std::fs::remove_file(path).ok();
}

fn registry_dedup_charges_once_and_reopens_after_close() {
    let csr = gen::grid2d(24, 24);
    let path = tmp("charge_once.tpg");
    write_tpg_from_graph(&csr, &path, &CompressionConfig::default()).unwrap();
    let registry = StoreRegistry::new();
    let options = PagedGraphOptions::default();
    let before = memtrack::global().current();
    let a = registry.open(&path, &options).unwrap();
    let after_one = memtrack::global().current();
    let b = registry.open(&path, &options).unwrap();
    assert_eq!(
        memtrack::global().current(),
        after_one,
        "the deduplicated open must not charge a second time"
    );
    drop((a, b));
    assert!(
        memtrack::global().current() <= before,
        "closing the last handle must release the store's charge"
    );
    // A fresh open after the close works and is a new store.
    let c = registry.open(&path, &options).unwrap();
    assert_eq!(registry.open_count(), 1);
    drop(c);
    std::fs::remove_file(path).ok();
}
