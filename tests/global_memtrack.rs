//! Every tier-1 test that reads the process-global memtrack counter, run from the one
//! `#[test]` of this binary so it owns its process: a sibling test charging
//! `memtrack::global()` concurrently would pollute the peaks and balances asserted
//! here (which is how the on-disk memory bound used to fail under the default
//! multi-threaded runner). This is a quarantine, not the fix — the fix is the ROADMAP
//! item "Memory is a per-run fact", one tracker per run instead of a process-global one.

use graph::store::{read_tpg_compressed, read_tpg_meta, stream_rgg2d_to_tpg};
use graph::traits::Graph;
use graph::MmapGraph;
use terapart::coarsening::rating_map::SparseRatingMap;
use terapart::{
    initial_partition, partition, partition_ondisk, CoarseningConfig, InitialPartitioningConfig,
    LabelPropagationMode, PartitionerConfig,
};

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "terapart_global_memtrack_{}_{}",
        std::process::id(),
        name
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn global_counter_readers_run_alone_in_their_process() {
    ondisk_run_is_bit_identical_and_stays_below_csr_memory();
    mmap_view_accounts_its_mapping_and_agrees_with_materialized();
    reserve_commit_accounting_is_visible_globally();
    initial_partitioning_frees_its_workspace_when_it_returns();
    baseline_lp_charges_one_rating_map_per_thread();
}

/// The tentpole acceptance test: a generated instance whose uncompressed CSR exceeds
/// the configured page budget partitions on disk with (a) peak accounted memory below
/// the CSR byte size and (b) a partition bit-identical (fixed seed, single thread) to
/// the in-memory `CompressedGraph` path.
fn ondisk_run_is_bit_identical_and_stays_below_csr_memory() {
    let dir = scratch_dir("acceptance");
    let path = dir.join("instance.tpg");
    // Streamed geometric instance: never materialised during generation either.
    stream_rgg2d_to_tpg(30_000, 18, 77, &path, &dir, 8, &Default::default()).unwrap();
    let meta = read_tpg_meta(&path).unwrap();
    let csr_bytes = meta.csr_size_in_bytes();

    let page_budget = 128 * 1024;
    assert!(
        csr_bytes > 8 * page_budget,
        "instance CSR ({} B) must far exceed the page budget ({} B)",
        csr_bytes,
        page_budget
    );

    let config = PartitionerConfig::terapart(8)
        .with_threads(1)
        .with_seed(5)
        .with_page_budget(page_budget);

    // In-memory reference: the compressed graph loaded from the very same container.
    let reference = partition(&read_tpg_compressed(&path).unwrap(), &config);

    memtrack::global().reset_peak();
    let ondisk = partition_ondisk(&path, &config).unwrap();

    assert_eq!(ondisk.edge_cut, reference.edge_cut);
    assert_eq!(
        ondisk.partition.assignment(),
        reference.partition.assignment(),
        "on-disk partition must be bit-identical to the in-memory compressed path"
    );
    assert!(ondisk.partition.is_balanced());
    assert!(
        ondisk.peak_memory_bytes < csr_bytes,
        "peak accounted memory {} B not below the uncompressed CSR size {} B",
        ondisk.peak_memory_bytes,
        csr_bytes
    );
    std::fs::remove_dir_all(dir).ok();
}

/// The mmap view charges its full mapping to the memory accounting and releases it
/// on drop; the zero-copy decode agrees with the materialised view.
fn mmap_view_accounts_its_mapping_and_agrees_with_materialized() {
    let dir = scratch_dir("mmap_views");
    let path = dir.join("instance.tpg");
    let g = graph::gen::weblike(11, 10, 3);
    graph::store::write_tpg_from_graph(&g, &path, &Default::default()).unwrap();
    let materialized = graph::store::read_tpg(&path).unwrap();
    let before = memtrack::global().current();
    {
        let mmap = MmapGraph::open(&path).unwrap();
        assert!(
            memtrack::global().current() >= before + mmap.accounted_bytes(),
            "mapping not charged to the global memory accounting"
        );
        assert_eq!(mmap.n(), materialized.n());
        assert_eq!(mmap.m(), materialized.m());
        assert_eq!(mmap.total_edge_weight(), materialized.total_edge_weight());
        assert_eq!(mmap.max_degree(), materialized.max_degree());
        for u in (0..mmap.n() as graph::NodeId).step_by(37) {
            let mut a = mmap.neighbors_vec(u);
            a.sort_unstable();
            assert_eq!(a, materialized.neighbors_vec(u));
        }
    }
    assert!(
        memtrack::global().current() <= before,
        "mapping charge not released on drop"
    );
    std::fs::remove_dir_all(dir).ok();
}

/// ReservedVec's commit accounting feeds the same global counter the partitioner uses.
fn reserve_commit_accounting_is_visible_globally() {
    let before = memtrack::global().current();
    let mut reserved: memtrack::ReservedVec<u64> = memtrack::ReservedVec::with_reservation(1 << 20);
    for i in 0..10_000u64 {
        reserved.push(i);
    }
    assert!(memtrack::global().current() >= before + 10_000 * 8 / 4096 * 4096);
    assert!(reserved.committed_bytes() < reserved.reserved_bytes());
    drop(reserved);
    assert!(memtrack::global().current() <= before + 4096);
}

/// Initial partitioning charges its workspace — the membership map (an 8-byte epoch and
/// an id per vertex) and the tree permutation — while it runs, and frees it, charge and
/// all, when it returns. (Lived in `terapart::scratch`'s unit tests, where sibling tests
/// that build arenas of their own made the balance flake.)
fn initial_partitioning_frees_its_workspace_when_it_returns() {
    let g = graph::gen::rgg2d(4_096, 8, 3);
    let before = memtrack::global().current();
    memtrack::global().reset_peak();
    let config = InitialPartitioningConfig::default();
    initial_partition(&g, 4, 0.03, &config, 1);
    let workspace = g.n() * (8 + 2 * std::mem::size_of::<graph::NodeId>());
    assert!(memtrack::global().peak() >= before + workspace);
    assert!(memtrack::global().current() <= before + 64);
}

/// The KaMinPar-baseline LP keeps one O(n) rating map per thread (the paper's Figure 2
/// culprit) and charges all of them, however the maps reach the threads: going from one
/// thread to four adds exactly three maps — and three of the `bump_threshold`-id buffers
/// a visit keeps its neighbours in — to the clustering phase's auxiliary memory.
fn baseline_lp_charges_one_rating_map_per_thread() {
    let g = graph::gen::rgg2d(20_000, 8, 3);
    let config = CoarseningConfig {
        lp_mode: LabelPropagationMode::PerThreadRatingMaps,
        ..CoarseningConfig::default()
    };
    let auxiliary_bytes = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let tracker = memtrack::PhaseTracker::new();
        pool.install(|| {
            tracker.run("cluster", 0, || {
                terapart::coarsening::cluster(&g, &config, 16, 5)
            })
        });
        tracker.reports()[0].auxiliary_bytes()
    };
    let one_map = SparseRatingMap::new(g.n()).memory_bytes();
    let one_id_buffer = config.bump_threshold * std::mem::size_of::<graph::NodeId>();
    assert_eq!(
        auxiliary_bytes(4) - auxiliary_bytes(1),
        3 * (one_map + one_id_buffer)
    );
}
