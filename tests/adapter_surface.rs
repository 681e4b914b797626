//! The public surface `benchmark/src/adapter.rs` calls, pinned where tier-1 compiles it.
//!
//! `benchmark/` is a frozen crate with a workspace of its own, so
//! `cargo build --release && cargo test -q` never builds it and an API change that
//! breaks it would surface only in CI's "Frozen benchmark driver" step. Every item the
//! adapter names is coerced here to the signature the adapter uses it with; deleting or
//! re-typing one fails this file's build.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use graph::io::IoError;
use graph::store::{write_tpg_from_graph, OnDiskBackend, PagedGraph, PagedGraphOptions};
use graph::traits::Graph;
use graph::{gen, CompressedGraph, CsrGraph, NodeId};
use memtrack::PhaseTracker;
use terapart::coarsening::{self, Clustering, ContractionResult, Hierarchy};
use terapart::refinement::{self, RefinementStats};
use terapart::{
    partition_ondisk, CoarseningConfig, ContractionAlgorithm, EngineConfig,
    InitialPartitioningConfig, Partition, PartitionEngine, PartitionError, PartitionRequest,
    PartitionResult, PartitionerConfig, Preset, RefinementConfig, ScratchPool, StoreHandle,
};

/// Never called: the coercions are checked when the test binary is compiled. The
/// adapter passes every layer its `&'g dyn Graph` by reference, hence `&&'g dyn Graph`.
#[allow(dead_code)]
fn the_adapter_compiles_against_these<'g>(_: &'g dyn Graph, mut config: PartitionerConfig) {
    type Engine = PartitionEngine;
    type Request = PartitionRequest;
    type Run = Result<PartitionResult, PartitionError>;

    let _: fn(EngineConfig) -> Engine = Engine::with_config;
    let _: fn(&Engine) -> &EngineConfig = Engine::config;
    let _: fn(&Engine, &'g Path) -> Result<Arc<StoreHandle>, IoError> = Engine::open_store;
    let _: fn(&Engine, &'g PathBuf) -> Result<Arc<StoreHandle>, IoError> = Engine::open_store;
    let _: fn(&Engine, &CompressedGraph, &Request) -> PartitionResult = Engine::partition;
    let _: fn(&Engine, &'g PathBuf, &Request) -> Run = Engine::partition_path;
    let _: fn(&Engine, &StoreHandle, &Request) -> Run = Engine::partition_store;
    let _: fn(&Engine) -> &ScratchPool = Engine::scratch_pool;
    let _: fn(&ScratchPool) -> usize = ScratchPool::high_water;
    let _: fn(&ScratchPool) -> usize = ScratchPool::parked_bytes;
    let _: fn(&PartitionError) -> String = ToString::to_string;

    let _: fn(&PartitionerConfig) -> EngineConfig = EngineConfig::from_partitioner;
    let _: fn(&PartitionerConfig) -> Request = Request::from_config;
    let _: fn(Request, u64) -> Request = Request::with_seed;
    let _: fn(&Request, &EngineConfig) -> PartitionerConfig = Request::effective_config;
    let _: fn(&Request) -> Request = Clone::clone;
    Request::from_config(&config).obs.record = true;

    let _: fn(Preset, usize) -> PartitionerConfig = PartitionerConfig::preset;
    let _: fn(PartitionerConfig, usize) -> PartitionerConfig = PartitionerConfig::with_threads;
    let _: fn(PartitionerConfig, f64) -> PartitionerConfig = PartitionerConfig::with_epsilon;
    let _: fn(PartitionerConfig, u64) -> PartitionerConfig = PartitionerConfig::with_seed;
    config.ondisk = PagedGraphOptions {
        page_size: 4096,
        budget_bytes: 1 << 20,
        prefetch: false,
        backend: OnDiskBackend::Paged,
        ..PagedGraphOptions::default()
    };
    config.ondisk.backend = OnDiskBackend::Mmap;

    let _: fn(u64, usize, usize, f64) -> u64 = coarsening::max_cluster_weight;
    let _: fn(&&'g dyn Graph, &CoarseningConfig, u64, u64) -> Clustering = coarsening::cluster;
    let _: fn(&&'g dyn Graph, &Clustering, ContractionAlgorithm, usize) -> ContractionResult =
        coarsening::contract;
    let _: fn(&&'g dyn Graph, &PartitionerConfig, &PhaseTracker) -> Hierarchy = coarsening::coarsen;
    let _: fn(&CsrGraph, usize, f64, &InitialPartitioningConfig, u64) -> Partition =
        terapart::initial_partition;
    let _: fn(&&'g dyn Graph, &mut Partition, &RefinementConfig, u64) -> RefinementStats =
        refinement::refine;
    let _: fn(&Partition, &&'g dyn Graph, &[NodeId]) -> Partition = Partition::project;
    let _: fn(&Partition, &&'g dyn Graph) -> u64 = Partition::edge_cut_on;
    let _: fn(u64, usize, f64) -> u64 = Partition::compute_max_block_weight;

    // The thread shim, as `adapter::in_pool` and `adapter::shim_call_costs_us` use it.
    use rayon::prelude::*;
    let pool: rayon::ThreadPool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("thread pool");
    let _: (u32, u32) = pool.install(|| {
        (0..1u32 << 16).into_par_iter().for_each(|i: u32| {
            std::hint::black_box(i);
        });
        rayon::join(|| 1u32, || 2u32)
    });
}

/// The route a caller with its own `PagedGraph` takes (the fault harness, with a
/// `FaultyBackend`): wrapping it in `StoreHandle::Paged` is the run `partition_ondisk`
/// does on the same file, cache statistics included.
#[test]
fn a_caller_owned_paged_graph_runs_through_partition_store() {
    let dir = std::env::temp_dir().join(format!("terapart_adapter_surface_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("instance.tpg");
    write_tpg_from_graph(&gen::rgg2d(3_000, 10, 5), &path, &Default::default()).unwrap();
    let config = PartitionerConfig::terapart(4)
        .with_threads(1)
        .with_seed(11)
        .with_page_budget(64 * 1024);
    let reference = partition_ondisk(&path, &config).unwrap();

    let store = StoreHandle::Paged(PagedGraph::open_with_options(&path, &config.ondisk).unwrap());
    let engine = PartitionEngine::with_config(EngineConfig::from_partitioner(&config));
    let run = engine
        .partition_store(&store, &PartitionRequest::from_config(&config))
        .unwrap();
    assert!(run.cache_stats.is_some());
    assert_eq!(run.edge_cut, reference.edge_cut);
    assert_eq!(run.partition.assignment(), reference.partition.assignment());
    std::fs::remove_dir_all(dir).ok();
}
