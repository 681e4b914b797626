//! The reentrant partitioning core: [`PartitionEngine`] + [`PartitionRequest`].
//!
//! Every run goes through an engine. A service partitioning many graphs (or the same
//! graph many times — seed portfolios, k sweeps, quality ladders) holds one; the three
//! one-shot functions in [`crate::partitioner`] build an ephemeral one per call:
//!
//! * an open-store registry ([`graph::StoreRegistry`]) deduplicates container opens by
//!   `(path, options)` — N concurrent requests against one graph share one page cache
//!   or mapping and one memory charge;
//! * a [`ScratchPool`] checks out [`HierarchyScratch`] arenas per request and parks
//!   them again afterwards, so a warmed engine reuses the per-worker hot-loop buffers,
//!   and N concurrent requests peak at `max(simultaneous)` arenas rather than N
//!   (level-sized buffers belong to the phase that reads them and are never parked);
//! * each request reads the store through its own [`graph::StoreSession`], which
//!   carries the poison protocol: an unrecoverable storage fault fails *that* request
//!   with a structured [`PartitionError`] and leaves co-tenant sessions, the store and
//!   the registry healthy.
//!
//! The engine has three entry points, one per form the input arrives in —
//! [`partition`](PartitionEngine::partition) (any in-memory [`Graph`]: the input's type
//! is its representation, so a [`graph::CompressedGraph`] runs the compressed pipeline),
//! [`partition_path`](PartitionEngine::partition_path) and
//! [`partition_store`](PartitionEngine::partition_store) — and each returns the run as
//! one [`PartitionResult`]: cut, time, peak bytes and the per-phase breakdown. The stores
//! charge themselves to the memory accounting when they open; a caller that wants an
//! in-memory input counted in `peak_memory_bytes` charges it
//! ([`memtrack::MemoryScope::charge_global`]) for the duration of the run.
//!
//! Engine-level knobs (store geometry) live in [`EngineConfig`];
//! request-level knobs (k, epsilon, seed, threads, stage settings, observability) live
//! in [`PartitionRequest`]. A request joined with the engine's knobs is exactly the
//! [`PartitionerConfig`] it was split from, so fixed-seed results are bit-identical
//! across the one-shots and the engine — and across sequential vs. concurrent
//! execution, since sessions share no mutable algorithmic state.

use std::path::Path;

use graph::io::IoError;
use graph::store::{StoreHandle, StoreRegistry};
use graph::traits::Graph;
use memtrack::PhaseTracker;

use crate::context::{
    CoarseningConfig, InitialPartitioningConfig, ObsConfig, OnDiskConfig, PartitionerConfig,
    RefinementConfig,
};
use crate::error::PartitionError;
use crate::partitioner::{
    obs_phase, partition_with_session, ObsSession, PartitionResult, RunContext,
};
use crate::scratch::{HierarchyScratch, Pool};

/// Engine-level configuration: the knobs that outlive any single request because they
/// describe the *environment* (store geometry) rather than one partitioning problem.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineConfig {
    /// Store geometry for path-based requests: backend, page size, cache budget and
    /// retry policy. Also the registry key — requests resolved with
    /// different on-disk options deliberately do not share a store.
    pub ondisk: OnDiskConfig,
}

impl EngineConfig {
    /// Extracts the engine-level knobs from a flat [`PartitionerConfig`] — the
    /// path the one-shot `partition*` functions use.
    pub fn from_partitioner(config: &PartitionerConfig) -> Self {
        Self {
            ondisk: config.ondisk.clone(),
        }
    }
}

/// One partitioning problem posed to a [`PartitionEngine`]: the request-level half of
/// the former [`PartitionerConfig`]. Everything here scopes to a single run.
#[derive(Debug, Clone)]
pub struct PartitionRequest {
    /// Number of blocks.
    pub k: usize,
    /// Balance constraint ε.
    pub epsilon: f64,
    /// Seed of the run's deterministic RNG streams.
    pub seed: u64,
    /// Worker threads of this request.
    pub num_threads: usize,
    /// Coarsening settings of this request.
    pub coarsening: CoarseningConfig,
    /// Initial-partitioning settings of this request.
    pub initial: InitialPartitioningConfig,
    /// Refinement settings of this request.
    pub refinement: RefinementConfig,
    /// Observability: run-report recording.
    pub obs: ObsConfig,
}

impl PartitionRequest {
    /// Extracts the request-level half of a flat [`PartitionerConfig`]; resolving it
    /// against [`EngineConfig::from_partitioner`] of the same config reproduces the
    /// config exactly.
    pub fn from_config(config: &PartitionerConfig) -> Self {
        Self {
            k: config.k,
            epsilon: config.epsilon,
            seed: config.seed,
            num_threads: config.num_threads,
            coarsening: config.coarsening.clone(),
            initial: config.initial.clone(),
            refinement: config.refinement.clone(),
            obs: config.obs.clone(),
        }
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the balance constraint.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the thread count of this request.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.num_threads = threads;
        self
    }

    /// Joins the request with the engine's knobs into the flat [`PartitionerConfig`]
    /// the pipeline runs on. Bit-identity across the one-shot functions and the engine
    /// API rests on this being a verbatim field mapping.
    pub fn effective_config(&self, engine: &EngineConfig) -> PartitionerConfig {
        PartitionerConfig {
            k: self.k,
            epsilon: self.epsilon,
            num_threads: self.num_threads,
            seed: self.seed,
            coarsening: self.coarsening.clone(),
            initial: self.initial.clone(),
            refinement: self.refinement.clone(),
            ondisk: engine.ondisk.clone(),
            obs: self.obs.clone(),
        }
    }
}

/// The engine's pool of [`HierarchyScratch`] arenas: one leased per request, never
/// shared (the pipeline mutates it throughout), parked again when the request ends. Its
/// [`high_water`](Pool::high_water) is the maximum number of requests that ever ran at
/// once, which is what peak auxiliary memory scales with (see [`Pool`]).
pub type ScratchPool = Pool<HierarchyScratch>;

impl Pool<HierarchyScratch> {
    /// Number of arenas currently parked (idle).
    pub fn parked_arenas(&self) -> usize {
        self.parked_count()
    }

    /// Total bytes the parked arenas hold: their parked worker buffers.
    pub fn parked_bytes(&self) -> usize {
        self.parked_sum(HierarchyScratch::parked_bytes)
    }
}

/// The long-lived partitioning engine (see the module docs).
///
/// `&PartitionEngine` is `Sync`: concurrent requests from multiple threads are the
/// intended use. Each request checks out its own scratch arena and store session, so
/// requests share *immutable* state only (the open stores, the engine config) and a
/// fixed-seed request returns the same partition whether it runs alone or next to
/// seven co-tenants.
#[derive(Debug, Default)]
pub struct PartitionEngine {
    config: EngineConfig,
    registry: StoreRegistry,
    pool: ScratchPool,
}

impl PartitionEngine {
    /// An engine with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine with the given configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        Self {
            config,
            registry: StoreRegistry::new(),
            pool: ScratchPool::new(),
        }
    }

    /// The engine-level configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The engine's open-store registry.
    pub fn registry(&self) -> &StoreRegistry {
        &self.registry
    }

    /// The engine's scratch-arena pool.
    pub fn scratch_pool(&self) -> &ScratchPool {
        &self.pool
    }

    /// Opens (or returns the already-open handle of) the `.tpg` container at `path`
    /// with the engine's on-disk options. Sessions created from the returned handle
    /// can be partitioned with [`Self::partition_store`].
    pub fn open_store(
        &self,
        path: impl AsRef<Path>,
    ) -> Result<std::sync::Arc<StoreHandle>, IoError> {
        self.registry.open(path, &self.config.ondisk)
    }

    /// Partitions any in-memory [`Graph`] representation as it is passed in.
    pub fn partition(&self, graph: &impl Graph, request: &PartitionRequest) -> PartitionResult {
        self.run(request, |run, obs| partition_with_session(graph, run, obs))
    }

    /// Partitions the `.tpg` container at `path`, opening it through the engine's
    /// registry (deduplicated against other requests for the same container; the open
    /// or registry hit is reported as the `open_store` phase) and reading it through a
    /// per-request session. See [`crate::partition_ondisk`] for the semantics and
    /// error contract.
    pub fn partition_path(
        &self,
        path: impl AsRef<Path>,
        request: &PartitionRequest,
    ) -> Result<PartitionResult, PartitionError> {
        self.run(request, |run, obs| {
            let store = obs_phase(&obs.handle, run.tracker, "open_store", 0, || {
                self.registry.open(path, &run.config.ondisk)
            })
            .map_err(|e| {
                PartitionError::new(Some("open_store@0".into()), "opening the .tpg container", e)
            })?;
            run_store(&store, run, obs)
        })
    }

    /// Partitions an already-open store: the shared handle [`Self::open_store`]
    /// returned, or one the caller built itself (e.g. a [`StoreHandle::Paged`] over a
    /// custom backend, as the fault-injection harness does). Each call creates its own
    /// [`StoreSession`](graph::StoreSession), so concurrent calls against one
    /// `Arc<StoreHandle>` are isolated: a storage fault fails only the session that hit
    /// it.
    pub fn partition_store(
        &self,
        store: &StoreHandle,
        request: &PartitionRequest,
    ) -> Result<PartitionResult, PartitionError> {
        self.run(request, |run, obs| run_store(store, run, obs))
    }

    /// One request from start to finish, shared by the three `partition*` methods:
    /// resolves `request` against the engine's knobs, creates the request's phase
    /// tracker and observability session and leases an arena from the pool for `body`.
    fn run<T>(
        &self,
        request: &PartitionRequest,
        body: impl FnOnce(RunContext, ObsSession) -> T,
    ) -> T {
        let config = request.effective_config(&self.config);
        let tracker = PhaseTracker::new();
        let obs = ObsSession::new(&config);
        let mut scratch = self.pool.checkout();
        let run = RunContext {
            config: &config,
            tracker: &tracker,
            scratch: &mut scratch,
        };
        let result = body(run, obs);
        // A parked arena must not keep this request's recording sink (and its
        // `Arc<Recorder>`) alive. (If `body` unwinds, the sink stays until the next request
        // on this arena replaces it.)
        scratch.obs = obs::ObsHandle::noop();
        result
    }
}

/// Runs the pipeline against a per-request session of `store`. The fault observer
/// labels any mid-run storage fault with the pipeline phase it interrupted; a poisoned
/// session discards its partial result and surfaces the first fatal error. Only the
/// session is poisoned — the underlying store and its other sessions are untouched.
fn run_store(
    store: &StoreHandle,
    run: RunContext,
    obs: ObsSession,
) -> Result<PartitionResult, PartitionError> {
    let session = store.session();
    let phases = run.tracker.phase_handle();
    session.set_fault_observer(move || phases.current().unwrap_or_default());
    let mut result = partition_with_session(&session, run, obs);
    if let Some(fatal) = session.take_fatal_error() {
        return Err(PartitionError::new(
            fatal.context,
            "reading the .tpg container mid-pipeline",
            IoError::Io(fatal.error),
        ));
    }
    result.cache_stats = store.cache_stats();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::{one_shot, partition};
    use graph::gen;
    use graph::store::RetryPolicy;

    #[test]
    fn scratch_pool_reuses_one_arena_across_sequential_checkouts() {
        let pool = ScratchPool::new();
        {
            // A worker's chunk grows a buffer, and the arena parks it with its lease.
            let lease = pool.checkout();
            lease.workers.checkout().neighbor_ids(4096);
        }
        assert_eq!(pool.parked_arenas(), 1);
        assert_eq!(pool.high_water(), 1);
        let first_bytes = pool.parked_bytes();
        assert!(first_bytes >= 4096 * std::mem::size_of::<graph::NodeId>());
        {
            let lease = pool.checkout();
            // The parked (already sized) arena came back.
            assert_eq!(lease.parked_bytes(), first_bytes);
            assert_eq!(pool.parked_arenas(), 0);
        }
        assert_eq!(pool.high_water(), 1, "sequential checkouts never overlap");
    }

    #[test]
    fn engine_matches_free_function_bit_for_bit() {
        let g = gen::erdos_renyi(600, 2500, 13);
        let config = PartitionerConfig::terapart(4).with_threads(1).with_seed(42);
        let reference = partition(&g, &config);
        let (engine, request) = one_shot(&config);
        let a = engine.partition(&g, &request);
        // A second run on the warmed engine reuses the parked arena and still matches.
        let b = engine.partition(&g, &request);
        assert_eq!(a.edge_cut, reference.edge_cut);
        assert_eq!(a.partition.assignment(), reference.partition.assignment());
        assert_eq!(b.partition.assignment(), reference.partition.assignment());
        assert_eq!(engine.scratch_pool().high_water(), 1);
        assert_eq!(engine.scratch_pool().parked_arenas(), 1);
    }

    #[test]
    fn request_resolution_round_trips_the_flat_config() {
        let mut custom_store = PartitionerConfig::terapart(5)
            .with_page_budget(96 * 1024)
            .with_retry(RetryPolicy::disabled());
        custom_store.ondisk.page_size = 8 * 1024;
        custom_store.ondisk.prefetch = true;
        for config in [
            PartitionerConfig::terapart_fm(12)
                .with_threads(3)
                .with_seed(99)
                .with_epsilon(0.07),
            PartitionerConfig::preset(crate::Preset::Strong, 7).with_run_report(true),
            custom_store,
        ] {
            let engine = EngineConfig::from_partitioner(&config);
            let request = PartitionRequest::from_config(&config);
            assert_eq!(request.effective_config(&engine), config);
        }
    }
}
