//! [`StoreHandle`] and [`StoreSession`]: the engine/session split at the storage layer.
//!
//! A partitioning *engine* keeps graphs open and shares them across concurrent
//! requests; a *session* is one request's view of one store. The split assigns every
//! piece of state to exactly one side:
//!
//! * [`StoreHandle`] — the **shared, immutable** side: either on-disk graph
//!   representation behind one `Arc`-shareable, [`Sync`] type. All read access is
//!   lock-free or internally synchronised (the paged backend's page cache), so any
//!   number of sessions may read one handle concurrently.
//! * [`StoreSession`] — the **per-request** side: a cheap view with a poison state of
//!   its own (the protocol a [`PagedGraph`] read directly runs on itself). A session
//!   reads the paged store through its fault-neutral accessors
//!   ([`PagedGraph::try_header`] / [`PagedGraph::try_for_each_neighbor`]) and records
//!   the first unrecoverable fault *on the session*, so one request's disk failure
//!   never poisons the shared store out from under its co-tenants.
//!
//! The mmap representation is infallible after construction, so its sessions are plain
//! pass-throughs; the protocol only does work on the paged variant. In-memory graphs
//! need no handle: the engine takes them as `&impl Graph`.

use std::path::Path;

use crate::io::IoError;
use crate::store::mmap::MmapGraph;
use crate::store::paged::{CacheStatsSnapshot, OnDiskBackend, PagedGraph, PagedGraphOptions};
use crate::store::poison::{FatalIoError, Poison};
use crate::traits::Graph;
use crate::{EdgeWeight, NodeId, NodeWeight};

/// One open on-disk graph store, in whichever representation it was opened:
/// shareable (`Arc<StoreHandle>`), [`Sync`], and readable by any number of concurrent
/// [`StoreSession`]s. See the module docs for the engine/session split.
///
/// A handle is not itself a [`Graph`]: it is read through [`session`](Self::session),
/// so a read fault poisons that one session and never the shared store.
#[derive(Debug)]
pub enum StoreHandle {
    /// On-disk container behind the strict-budget page cache.
    Paged(PagedGraph),
    /// On-disk container behind a read-only memory mapping.
    Mmap(MmapGraph),
}

impl StoreHandle {
    /// Opens a `.tpg` container with the backend selected by
    /// [`options.backend`](PagedGraphOptions::backend). This is the open the
    /// [`StoreRegistry`](crate::store::StoreRegistry) deduplicates.
    pub fn open(path: impl AsRef<Path>, options: &PagedGraphOptions) -> Result<Self, IoError> {
        match options.backend {
            OnDiskBackend::Paged => Ok(Self::Paged(PagedGraph::open_with_options(path, options)?)),
            OnDiskBackend::Mmap => Ok(Self::Mmap(MmapGraph::open_with_options(path, options)?)),
        }
    }

    /// Starts a per-request session view of this store (see [`StoreSession`]).
    pub fn session(&self) -> StoreSession<'_> {
        match self {
            StoreHandle::Paged(g) => StoreSession::paged(g),
            StoreHandle::Mmap(g) => StoreSession::infallible(g),
        }
    }

    /// The paged store behind this handle, if that is the representation.
    pub fn as_paged(&self) -> Option<&PagedGraph> {
        match self {
            StoreHandle::Paged(g) => Some(g),
            _ => None,
        }
    }

    /// Bytes this store stands for in the memory accounting: what it has charged itself
    /// (resident arrays plus committed frames, or the mapping).
    pub fn accounted_bytes(&self) -> usize {
        match self {
            StoreHandle::Paged(g) => g.accounted_bytes(),
            StoreHandle::Mmap(g) => g.accounted_bytes(),
        }
    }

    /// Current page-cache counters (on-disk paged representation only).
    pub fn cache_stats(&self) -> Option<CacheStatsSnapshot> {
        self.as_paged().map(|g| g.cache_stats())
    }
}

/// What a session reads through: the fallible paged store (routed through its
/// fault-neutral accessors) or an infallible representation.
enum StoreRef<'a> {
    /// Representations with no post-open I/O error paths: plain pass-through.
    Infallible(&'a dyn Graph),
    /// The paged store: reads go through [`PagedGraph::try_header`] /
    /// [`PagedGraph::try_for_each_neighbor`] so faults land on the session.
    Paged(&'a PagedGraph),
}

/// One request's view of a [`StoreHandle`] — a [`Graph`] carrying the per-request
/// poison protocol.
///
/// Reads against the paged representation surface unrecoverable faults *here*: the
/// first fatal error (with the installed observer's context) is kept, the session
/// flips to the poisoned state, and every later accessor returns empty neighbourhoods
/// without touching the disk — exactly the degradation contract [`PagedGraph`]
/// documents, scoped to one request. The shared store, and with it every co-tenant
/// session, stays healthy.
pub struct StoreSession<'a> {
    store: StoreRef<'a>,
    poison: Poison,
}

impl<'a> StoreSession<'a> {
    /// A session over a representation with no post-open I/O error paths.
    pub fn infallible(graph: &'a (impl Graph + 'a)) -> Self {
        Self::from_ref(StoreRef::Infallible(graph))
    }

    /// A session over a paged store (reads route through the fault-neutral
    /// accessors; faults poison this session, not the store).
    pub fn paged(graph: &'a PagedGraph) -> Self {
        Self::from_ref(StoreRef::Paged(graph))
    }

    fn from_ref(store: StoreRef<'a>) -> Self {
        Self {
            store,
            poison: Poison::default(),
        }
    }

    fn as_graph(&self) -> &dyn Graph {
        match &self.store {
            StoreRef::Infallible(g) => *g,
            StoreRef::Paged(g) => *g,
        }
    }

    /// Whether a fatal read error has poisoned this session (accessors now return
    /// empty neighbourhoods without touching the disk).
    pub fn is_poisoned(&self) -> bool {
        self.poison.is_poisoned()
    }

    /// Takes the first fatal error if the session poisoned itself (leaving the
    /// session poisoned). Drivers call this after a run to decide whether the result
    /// is valid.
    pub fn take_fatal_error(&self) -> Option<FatalIoError> {
        self.poison.take_fatal_error()
    }

    /// Installs a callback that captures ambient context (e.g. the active pipeline
    /// phase) the moment the session poisons itself; the captured string travels in
    /// [`FatalIoError::context`]. Replaces any previous observer.
    pub fn set_fault_observer(&self, observe: impl Fn() -> String + Send + Sync + 'static) {
        self.poison.set_fault_observer(observe);
    }
}

impl Graph for StoreSession<'_> {
    fn n(&self) -> usize {
        self.as_graph().n()
    }
    fn m(&self) -> usize {
        self.as_graph().m()
    }

    fn degree(&self, u: NodeId) -> usize {
        match &self.store {
            StoreRef::Infallible(g) => g.degree(u),
            StoreRef::Paged(g) => self.poison.read(|| g.try_header(u)),
        }
    }

    fn node_weight(&self, u: NodeId) -> NodeWeight {
        self.as_graph().node_weight(u)
    }
    fn total_node_weight(&self) -> NodeWeight {
        self.as_graph().total_node_weight()
    }
    fn total_edge_weight(&self) -> EdgeWeight {
        self.as_graph().total_edge_weight()
    }

    fn for_each_neighbor(&self, u: NodeId, f: &mut dyn FnMut(NodeId, EdgeWeight)) {
        match &self.store {
            StoreRef::Infallible(g) => g.for_each_neighbor(u, f),
            StoreRef::Paged(g) => self.poison.read(|| g.try_for_each_neighbor(u, f)),
        }
    }

    fn is_edge_weighted(&self) -> bool {
        self.as_graph().is_edge_weighted()
    }
    fn is_node_weighted(&self) -> bool {
        self.as_graph().is_node_weighted()
    }
    fn max_degree(&self) -> usize {
        self.as_graph().max_degree()
    }
    fn record_obs_metrics(&self, metrics: &obs::MetricsRegistry) {
        self.as_graph().record_obs_metrics(metrics)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::compressed::CompressionConfig;
    use crate::gen;
    use crate::store::backend::{FaultPlan, FaultyBackend, FileBackend};
    use crate::store::container::{write_tpg_from_graph, TpgWriter};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "terapart_handle_test_{}_{}",
            std::process::id(),
            name
        ));
        p
    }

    #[test]
    fn a_session_reads_every_representation() {
        let csr = gen::with_random_edge_weights(&gen::grid2d(9, 7), 5, 3);
        let config = CompressionConfig::default();
        let path = tmp("forwarding.tpg");
        write_tpg_from_graph(&csr, &path, &config).unwrap();
        let handles = [
            StoreHandle::open(&path, &PagedGraphOptions::default()).unwrap(),
            StoreHandle::open(
                &path,
                &PagedGraphOptions {
                    backend: OnDiskBackend::Mmap,
                    ..PagedGraphOptions::default()
                },
            )
            .unwrap(),
        ];
        assert!(matches!(handles[0], StoreHandle::Paged(_)));
        assert!(matches!(handles[1], StoreHandle::Mmap(_)));
        for handle in &handles {
            let session = handle.session();
            assert_eq!(session.n(), csr.n());
            assert_eq!(session.m(), csr.m());
            assert_eq!(session.max_degree(), csr.max_degree());
            for u in 0..csr.n() as NodeId {
                assert_eq!(session.degree(u), csr.degree(u));
                assert_eq!(session.neighbors_vec(u), csr.neighbors_vec(u));
            }
            assert!(!session.is_poisoned());
            assert!(session.take_fatal_error().is_none());
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn session_fault_poisons_the_session_but_not_the_store_or_cotenants() {
        let csr = gen::grid2d(64, 64);
        let path = tmp("session_poison.tpg");
        TpgWriter::create(&path, csr.n(), false, &CompressionConfig::default())
            .unwrap()
            .with_checksum_block_len(256)
            .write_graph(&csr)
            .unwrap();
        // A tiny cache of 256-byte pages (over 256-byte blocks) so sweeps keep
        // faulting pages in; reads fail permanently once the open (a handful of
        // operations) is past.
        let backend = FileBackend::open(&path).unwrap();
        let plan = FaultPlan {
            fail_reads_from: Some(50),
            ..FaultPlan::default()
        };
        let faulty = FaultyBackend::new(backend, plan);
        let options = PagedGraphOptions {
            page_size: 256,
            budget_bytes: 1024,
            retry: crate::store::RetryPolicy::disabled(),
            ..PagedGraphOptions::default()
        };
        let paged = PagedGraph::open_with_backend(Box::new(faulty), &options).unwrap();
        let handle = StoreHandle::Paged(paged);

        // Session A sweeps until the injected outage poisons it.
        let a = handle.session();
        a.set_fault_observer(|| "session-a".to_string());
        for _ in 0..8 {
            for u in 0..csr.n() as NodeId {
                let _ = a.neighbors_vec(u);
            }
            if a.is_poisoned() {
                break;
            }
        }
        assert!(a.is_poisoned(), "the outage must surface in session A");
        let fatal = a.take_fatal_error().unwrap();
        assert_eq!(fatal.context.as_deref(), Some("session-a"));

        // The shared store never engaged its own poison protocol...
        let paged = handle.as_paged().unwrap();
        assert!(!paged.is_poisoned());
        assert!(paged.take_fatal_error().is_none());
        // ...and a fresh co-tenant session starts healthy (the injected plan has
        // exhausted its healthy reads, so it may fault too — but independently).
        let b = handle.session();
        assert!(!b.is_poisoned());
        std::fs::remove_file(path).ok();
    }
}
