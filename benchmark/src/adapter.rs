//! The only module that calls into the repository. Everything the benchmark measures
//! goes through the public surface ROADMAP item 4 names as the survivor:
//! `PartitionEngine::{partition, partition_path, open_store, partition_store}` and
//! `PartitionerConfig::preset` → `PartitionRequest::from_config`; the traced run adds
//! the public per-layer functions (`coarsening`, `initial`, `refinement`, the stores).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use graph::store::{MmapGraph, OnDiskBackend, PagedGraph, PagedGraphOptions, StoreHandle};
use graph::{CompressedGraph, CompressionConfig, CsrGraph};
use memtrack::PhaseTracker;
use terapart::coarsening::{self, Clustering, ContractionResult, Hierarchy};
use terapart::refinement::{self, RefinementStats};
use terapart::{EngineConfig, Partition, PartitionEngine, PartitionRequest, PartitionResult};

use crate::spec::{derive_seed, Access, Family, Instance, Workload, EPSILON};

pub use graph::traits::Graph;
pub use graph::NodeId;
pub use terapart::{BlockId, PartitionerConfig};

const PAGED_HALF_PAGE_SIZE: usize = 4096;

pub fn generate(instance: &Instance, seed: u64, smoke: bool) -> CsrGraph {
    let seed = derive_seed(seed, instance.name, 0);
    let n = instance.nodes(smoke);
    match instance.family {
        Family::Rgg2d => graph::gen::rgg2d(n, 8, seed),
        Family::Rmat => graph::gen::weblike(n.ilog2(), 8, seed),
    }
}

#[derive(Debug, Clone, Copy)]
pub struct ContainerInfo {
    pub m: usize,
    pub file_bytes: u64,
}

pub fn write_container(graph: &CsrGraph, path: &Path) -> Result<ContainerInfo, String> {
    let summary = graph::store::write_tpg_from_graph(graph, path, &CompressionConfig::default())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(ContainerInfo {
        m: summary.m,
        file_bytes: summary.file_bytes,
    })
}

/// The flat configuration of one request of `workload`. The engine and the request are
/// both derived from it, exactly as the repository's own `partition*` wrappers do.
pub fn config(
    workload: &Workload,
    container: &Path,
    tmax: usize,
    seed: u64,
) -> Result<PartitionerConfig, String> {
    let mut config = PartitionerConfig::preset(workload.preset, workload.k)
        .with_threads(workload.num_threads(tmax))
        .with_epsilon(EPSILON)
        .with_seed(seed);
    match workload.access {
        Access::Compressed => {}
        Access::PagedHalf => {
            let meta = graph::store::read_tpg_meta(container)
                .map_err(|e| format!("reading the header of {}: {e}", container.display()))?;
            config.ondisk = PagedGraphOptions {
                page_size: PAGED_HALF_PAGE_SIZE,
                budget_bytes: (meta.data_len / 2) as usize,
                prefetch: false,
                backend: OnDiskBackend::Paged,
                ..PagedGraphOptions::default()
            };
        }
        Access::SharedMmap => config.ondisk.backend = OnDiskBackend::Mmap,
    }
    Ok(config)
}

pub fn engine(config: &PartitionerConfig) -> PartitionEngine {
    PartitionEngine::with_config(EngineConfig::from_partitioner(config))
}

/// The requests of one batch: `sessions × requests_per_session`, each with its own seed.
pub fn requests(workload: &Workload, config: &PartitionerConfig) -> Vec<PartitionRequest> {
    (0..workload.sessions * workload.requests_per_session)
        .map(|j| {
            PartitionRequest::from_config(config).with_seed(derive_seed(
                config.seed,
                "request",
                j as u64,
            ))
        })
        .collect()
}

/// The flat configuration `request` resolves to on `engine`: what the pipeline layers of
/// that request are called with.
pub fn effective_config(engine: &PartitionEngine, request: &PartitionRequest) -> PartitionerConfig {
    request.effective_config(engine.config())
}

/// An opened input, in the form the workload's access mode hands it to the engine.
pub enum Source {
    InMemory(CompressedGraph),
    Path(PathBuf),
    Shared(Arc<StoreHandle>),
}

pub fn open_source(
    engine: &PartitionEngine,
    workload: &Workload,
    container: &Path,
) -> Result<Source, String> {
    Ok(match workload.access {
        Access::Compressed => Source::InMemory(open_compressed(container)?),
        Access::PagedHalf => Source::Path(container.to_path_buf()),
        Access::SharedMmap => Source::Shared(
            engine
                .open_store(container)
                .map_err(|e| format!("opening {}: {e}", container.display()))?,
        ),
    })
}

pub fn partition(
    engine: &PartitionEngine,
    source: &Source,
    request: &PartitionRequest,
) -> Result<PartitionResult, String> {
    match source {
        Source::InMemory(graph) => Ok(engine.partition(graph, request)),
        Source::Path(path) => engine
            .partition_path(path, request)
            .map_err(|e| e.to_string()),
        Source::Shared(store) => engine
            .partition_store(store, request)
            .map_err(|e| e.to_string()),
    }
}

/// Sends `requests` from `sessions` OS threads, each thread working through its share
/// one request after the other (a closed loop). Results come back in request order.
pub fn run_batch(
    engine: &PartitionEngine,
    source: &Source,
    requests: &[PartitionRequest],
    sessions: usize,
) -> Vec<Result<PartitionResult, String>> {
    if sessions <= 1 {
        return requests
            .iter()
            .map(|r| partition(engine, source, r))
            .collect();
    }
    let per_session = requests.len().div_ceil(sessions);
    std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .chunks(per_session)
            .map(|share| {
                scope.spawn(move || {
                    share
                        .iter()
                        .map(|r| partition(engine, source, r))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a session thread panicked"))
            .collect()
    })
}

/// `(high-water mark of simultaneous checkouts, bytes of the parked arenas)` of the
/// engine's scratch pool.
pub fn scratch_pool_stats(engine: &PartitionEngine) -> (usize, usize) {
    let pool = engine.scratch_pool();
    (pool.high_water(), pool.parked_bytes())
}

/// Runs `f` on the graph behind `source` as the partitioner sees it: the compressed
/// graph itself, or a per-request session of the open store.
pub fn with_graph<T>(
    engine: &PartitionEngine,
    source: &Source,
    f: impl FnOnce(&dyn Graph) -> T,
) -> Result<T, String> {
    match source {
        Source::InMemory(graph) => Ok(f(graph)),
        Source::Path(path) => {
            let store = engine
                .open_store(path)
                .map_err(|e| format!("opening {}: {e}", path.display()))?;
            let session = store.session();
            Ok(f(&session))
        }
        Source::Shared(store) => Ok(f(&store.session())),
    }
}

pub fn max_block_weight(graph: &dyn Graph, k: usize) -> u64 {
    Partition::compute_max_block_weight(graph.total_node_weight(), k, EPSILON)
}

// ---- store layer, one representation at a time (verification, traced run) ----

pub fn open_compressed(container: &Path) -> Result<CompressedGraph, String> {
    graph::store::read_tpg_compressed(container)
        .map_err(|e| format!("opening {}: {e}", container.display()))
}

/// The container as uncompressed CSR, and the bytes that representation takes.
pub fn open_csr(container: &Path) -> Result<(CsrGraph, usize), String> {
    let csr = graph::store::read_tpg(container).map_err(|e| e.to_string())?;
    let bytes = csr.size_in_bytes();
    Ok((csr, bytes))
}

pub fn open_mmap(container: &Path) -> Result<MmapGraph, String> {
    MmapGraph::open(container).map_err(|e| e.to_string())
}

/// A `PagedGraph` whose budget holds the whole file, so after one sweep every lookup
/// hits: the page-cache bookkeeping without the I/O.
pub fn open_paged_fit(container: &Path, file_bytes: u64) -> Result<PagedGraph, String> {
    let options = PagedGraphOptions::with_budget(file_bytes as usize + (1 << 20));
    PagedGraph::open_with_options(container, &options).map_err(|e| e.to_string())
}

// ---- pipeline layers, called one by one (traced run) ----

/// Seeds and limits below mirror `coarsening::coarsen_with_scratch` and the
/// uncoarsening loop of `partitioner.rs`, so that at one thread the rebuilt pipeline
/// reaches the same cut as the real request.
pub fn cluster_input_level(graph: &dyn Graph, config: &PartitionerConfig) -> Clustering {
    let c = &config.coarsening;
    let limit = coarsening::max_cluster_weight(
        graph.total_node_weight(),
        config.k,
        c.contraction_limit,
        c.max_cluster_weight_fraction,
    );
    coarsening::cluster(&graph, c, limit, config.seed ^ (1 << 32))
}

pub fn contract_input_level(
    graph: &dyn Graph,
    clustering: &Clustering,
    config: &PartitionerConfig,
) -> ContractionResult {
    let c = &config.coarsening;
    coarsening::contract(&graph, clustering, c.contraction, c.bump_threshold)
}

pub fn coarsen(graph: &dyn Graph, config: &PartitionerConfig) -> Hierarchy {
    coarsening::coarsen(&graph, config, &PhaseTracker::new())
}

pub fn initial_partition(coarsest: &CsrGraph, config: &PartitionerConfig) -> Partition {
    terapart::initial_partition(
        coarsest,
        config.k,
        config.epsilon,
        &config.initial,
        config.seed,
    )
}

/// `level` counts as in the hierarchy: `depth` is the coarsest graph, 0 the input.
pub fn refine(
    graph: &dyn Graph,
    partition: &mut Partition,
    config: &PartitionerConfig,
    level: usize,
    depth: usize,
) -> RefinementStats {
    let seed = if level == depth {
        config.seed ^ 0xC0A53
    } else {
        config.seed ^ level as u64
    };
    refinement::refine(&graph, partition, &config.refinement, seed)
}

pub fn project(partition: &Partition, fine: &dyn Graph, mapping: &[NodeId]) -> Partition {
    partition.project(&fine, mapping)
}

pub fn edge_cut(partition: &Partition, graph: &dyn Graph) -> u64 {
    partition.edge_cut_on(&graph)
}

pub fn with_run_report(request: &PartitionRequest) -> PartitionRequest {
    let mut request = request.clone();
    request.obs.record = true;
    request
}

pub fn in_pool<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("building the shim thread pool cannot fail")
        .install(f)
}

/// Median cost in µs of an empty parallel loop over 2^16 indices and of an empty
/// `join`, inside a pool of `threads` threads: what the shim charges per call.
pub fn shim_call_costs_us(threads: usize) -> (f64, f64) {
    use rayon::prelude::*;
    use std::hint::black_box;
    use std::time::Instant;
    const CALLS: usize = 1000;
    in_pool(threads, || {
        let mut par = Vec::with_capacity(CALLS);
        let mut join = Vec::with_capacity(CALLS);
        for _ in 0..CALLS {
            let t = Instant::now();
            (0..1u32 << 16).into_par_iter().for_each(|i| {
                black_box(i);
            });
            par.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            black_box(rayon::join(|| black_box(1u32), || black_box(2u32)));
            join.push(t.elapsed().as_secs_f64() * 1e6);
        }
        (
            crate::stats::median(&mut par),
            crate::stats::median(&mut join),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::INSTANCES;

    fn fingerprint(graph: &CsrGraph) -> (usize, usize, u64) {
        let mut hash = 0u64;
        for u in 0..graph.n() {
            graph.for_each_neighbor(u as NodeId, &mut |v, w| {
                hash = hash.rotate_left(5) ^ (u64::from(v) << 8) ^ w;
            });
        }
        (graph.n(), graph.m(), hash)
    }

    #[test]
    fn the_seed_alone_determines_every_instance() {
        for instance in &INSTANCES {
            let a = fingerprint(&generate(instance, 7, true));
            assert_eq!(
                a,
                fingerprint(&generate(instance, 7, true)),
                "{}",
                instance.name
            );
            assert_ne!(
                a,
                fingerprint(&generate(instance, 8, true)),
                "{}",
                instance.name
            );
            assert_eq!(a.0, instance.nodes(true));
        }
    }
}
