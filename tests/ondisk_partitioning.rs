//! Integration tests of the external-memory graph store: the acceptance criteria of the
//! on-disk subsystem exercised through the public APIs of graph and terapart. (The
//! memory-bound acceptance tests read the process-global memtrack counter and live in
//! `global_memtrack.rs`, where they own their process.)

use graph::store::{read_tpg_compressed, read_tpg_meta, stream_rgg2d_to_tpg, OnDiskBackend};
use graph::traits::Graph;
use graph::{PagedGraph, PagedGraphOptions};
use terapart::{partition, partition_ondisk, PartitionerConfig};

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "terapart_ondisk_it_{}_{}",
        std::process::id(),
        name
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Tiny-page-budget stress: a budget far below the container size forces continuous
/// eviction, yet the fixed-seed result stays bit-identical to the in-memory path.
#[test]
fn starved_page_cache_still_partitions_identically() {
    let dir = scratch_dir("starved");
    let path = dir.join("instance.tpg");
    stream_rgg2d_to_tpg(12_000, 16, 13, &path, &dir, 4, &Default::default()).unwrap();
    let meta = read_tpg_meta(&path).unwrap();

    // A cache of a few 4 KiB pages against a data section dozens of times larger.
    let budget = 16 * 1024;
    assert!(meta.data_len as usize > 8 * budget);
    let mut config = PartitionerConfig::terapart(4).with_threads(1).with_seed(9);
    config.ondisk.page_size = 4 * 1024;
    config.ondisk.budget_bytes = budget;

    let reference = partition(&read_tpg_compressed(&path).unwrap(), &config);
    let starved = partition_ondisk(&path, &config).unwrap();
    assert_eq!(starved.edge_cut, reference.edge_cut);
    assert_eq!(
        starved.partition.assignment(),
        reference.partition.assignment()
    );

    // Confirm the budget actually starved the cache (evictions happened) by replaying
    // the access pattern's first sweep on a directly opened PagedGraph.
    let paged = PagedGraph::open_with_options(
        &path,
        &PagedGraphOptions {
            page_size: 4 * 1024,
            budget_bytes: budget,
            ..PagedGraphOptions::default()
        },
    )
    .unwrap();
    for u in 0..paged.n() as graph::NodeId {
        paged.for_each_neighbor(u, &mut |_, _| {});
    }
    let stats = paged.cache_stats();
    assert!(
        stats.evictions > 0,
        "budget {} did not force eviction: {:?}",
        budget,
        stats
    );
    std::fs::remove_dir_all(dir).ok();
}

/// `PagedGraphOptions::prefetch` is inert: a fixed-seed on-disk run with it set makes
/// the same page reads as one without — same cut, same assignment, same counters.
#[test]
fn the_prefetch_field_changes_nothing() {
    let dir = scratch_dir("prefetch_identity");
    let path = dir.join("instance.tpg");
    stream_rgg2d_to_tpg(15_000, 14, 33, &path, &dir, 4, &Default::default()).unwrap();

    let mut off = PartitionerConfig::terapart(8)
        .with_threads(1)
        .with_seed(7)
        .with_page_budget(96 * 1024);
    off.ondisk.page_size = 4 * 1024;
    off.ondisk.prefetch = false;
    let mut on = off.clone();
    on.ondisk.prefetch = true;
    let off = partition_ondisk(&path, &off).unwrap();
    let on = partition_ondisk(&path, &on).unwrap();

    assert_eq!(on.edge_cut, off.edge_cut);
    assert_eq!(on.partition.assignment(), off.partition.assignment());
    let off_stats = off.cache_stats.expect("on-disk runs expose cache stats");
    let on_stats = on.cache_stats.expect("on-disk runs expose cache stats");
    assert!(
        off_stats.evictions > 0,
        "the budget never evicted: {:?}",
        off_stats
    );
    assert_eq!(on_stats, off_stats);
    std::fs::remove_dir_all(dir).ok();
}

/// The mmap fast path is a pure representation change: fixed-seed runs through the
/// `Mmap` backend produce partitions bit-identical to the paged backend and the
/// in-memory compressed path.
#[test]
fn mmap_backend_runs_are_bit_identical_across_backends() {
    let dir = scratch_dir("mmap_identity");
    let path = dir.join("instance.tpg");
    stream_rgg2d_to_tpg(15_000, 14, 51, &path, &dir, 4, &Default::default()).unwrap();

    let base = PartitionerConfig::terapart(8)
        .with_threads(1)
        .with_seed(11)
        .with_page_budget(96 * 1024);
    let reference = partition(&read_tpg_compressed(&path).unwrap(), &base);
    let paged = partition_ondisk(&path, &base).unwrap();
    let mmap = partition_ondisk(&path, &base.with_store_backend(OnDiskBackend::Mmap)).unwrap();
    assert_eq!(mmap.edge_cut, reference.edge_cut);
    assert_eq!(paged.edge_cut, reference.edge_cut);
    assert_eq!(
        mmap.partition.assignment(),
        reference.partition.assignment(),
        "mmap-backend partition must be bit-identical to the in-memory compressed path"
    );
    assert_eq!(
        paged.partition.assignment(),
        reference.partition.assignment()
    );

    // The VarInt offset index undercuts what plain u64 offsets would cost.
    let meta = read_tpg_meta(&path).unwrap();
    assert!(
        meta.index_len < 8 * (meta.n as u64 + 1),
        "VarInt offset lengths ({} B) not smaller than plain u64s for {} vertices",
        meta.index_len,
        meta.n
    );
    std::fs::remove_dir_all(dir).ok();
}

/// The paged view and the materialised view of the same container expose the same
/// graph to the partitioner-facing accessors.
#[test]
fn paged_and_materialized_views_agree() {
    let dir = scratch_dir("views");
    let path = dir.join("instance.tpg");
    let g = graph::gen::weblike(11, 10, 3);
    graph::store::write_tpg_from_graph(&g, &path, &Default::default()).unwrap();
    let paged =
        PagedGraph::open_with_options(&path, &PagedGraphOptions::with_budget(64 * 1024)).unwrap();
    let materialized = graph::store::read_tpg(&path).unwrap();
    assert_eq!(paged.n(), materialized.n());
    assert_eq!(paged.m(), materialized.m());
    assert_eq!(paged.total_edge_weight(), materialized.total_edge_weight());
    assert_eq!(paged.max_degree(), materialized.max_degree());
    assert_eq!(
        paged.total_capped_degree(8),
        materialized.total_capped_degree(8)
    );
    for u in (0..paged.n() as graph::NodeId).step_by(37) {
        let mut a = paged.neighbors_vec(u);
        a.sort_unstable();
        assert_eq!(a, materialized.neighbors_vec(u));
    }
    std::fs::remove_dir_all(dir).ok();
}
