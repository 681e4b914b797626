//! Label propagation clustering — original and two-phase variants (paper §IV-A).
//!
//! Starting from singleton clusters, vertices are visited in random order in parallel;
//! a vertex joins the neighbouring cluster with the highest total connecting edge weight,
//! subject to a maximum cluster weight (size-constrained clustering, as in KaMinPar).
//!
//! The two variants differ only in how the per-vertex rating aggregation is backed:
//!
//! * [`LabelPropagationMode::PerThreadRatingMaps`]: every worker thread owns an `O(n)`
//!   sparse array (the original scheme, `O(n·p)` auxiliary memory in total).
//! * [`LabelPropagationMode::TwoPhase`]: phase one processes all vertices with small
//!   fixed-capacity hash tables and *bumps* vertices whose neighbourhood touches at least
//!   `T_bump` distinct clusters; phase two processes the bumped vertices one at a time
//!   with a single shared atomic sparse array and parallelism over their edges
//!   (`O(n + p·T_bump)` auxiliary memory).
//!
//! Rounds after the first are frontier-driven (active-set scheduling, in the spirit of
//! Sanders & Schulz's active-set local search): a vertex is revisited only if a label it
//! has not yet seen changed against it, or if its move lost a race. A visit clears its
//! vertex's bit in the round's active set, so a set bit is a vertex the round has still
//! to visit. A move from cluster A to cluster B queues a neighbour for the next round
//! unless that neighbour is still pending this round (its visit will read the new label)
//! or is already in B (the move only added rating to its own cluster); the mover does not
//! queue itself, its neighbours do if they change later. Vertices whose best move was
//! rejected by the cluster weight constraint are deliberately *not* retained: tracking
//! per-cluster capacity changes would cost `O(n)` per round (the label space is the
//! vertex set), and full clusters rarely shrink during clustering, so the retry value
//! would be negligible here — unlike in LP *refinement*, where the analogous waiters are
//! tracked per block. Converged regions are never rescanned. The
//! round loop itself (collect/shuffle/run/swap plus stop criteria) is the shared driver
//! of `crate::lp_rounds`, instantiated here with the no-waiter semantics, which owns the
//! frontier bitsets and the visit order's range permutation for the stage.
//! A visit decodes its vertex's neighbourhood once: the worker keeps the neighbour ids
//! (up to `bump_threshold` of them) while rating, and a move marks the frontier from
//! them; only a longer neighbourhood is decoded a second time.
//!
//! What the rounds visit is bounded by what the size constraint still allows. An edge
//! `(u, v)` is *contractible* if `w(u) + w(v) ≤ max_cluster_weight` and a vertex is
//! *movable* if it has one; on a node-weighted graph (every coarse level) the movable
//! vertices are found in one pass over the edges before round 0, round 0 starts from
//! them, later frontiers are cut down to them, and a level without any returns the
//! singleton clustering without a round. The same count lets coarsening give a level up
//! before its first round ([`MIN_CONTRACTIBLE_SHARE`]): on R-MAT the dense core sits at
//! the weight limit after one contraction, and the level after it is never clustered.
//! The unit-weight input graph is "all movable" without a decode.
//!
//! A run's auxiliary state is a label and a cluster weight per vertex. The weights are
//! stored at the width the level's `max_cluster_weight` needs: 4-byte atomics while the
//! limit is below `u32::MAX` (it is a small fraction of a block's weight), 8-byte ones
//! otherwise. The width is derived from the limit once per run; one code path serves
//! both.
//!
//! [`MIN_CONTRACTIBLE_SHARE`]: super::MIN_CONTRACTIBLE_SHARE

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use graph::traits::Graph;
use graph::{AtomicNodeId, EdgeWeight, NodeId, NodeWeight};
use memtrack::MemoryScope;
use rayon::prelude::*;

use crate::context::{CoarseningConfig, LabelPropagationMode};
use crate::lp_rounds::{drive_lp_rounds, LpRoundSemantics, RoundWork, VisitOrder};
use crate::scratch::{AtomicBitset, HierarchyScratch, Pool, WorkerScratch};
use crate::ClusterId;

use super::label_set::LabelSet;
use super::rating_map::{AtomicSparseArray, FixedCapacityHashMap, SparseRatingMap};

/// A disjoint clustering of the vertices of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    /// `label[u]` is the cluster ID of vertex `u`. Cluster IDs are vertex IDs but are
    /// otherwise opaque labels: they need not be consecutive.
    pub label: Vec<ClusterId>,
    /// Number of distinct cluster labels.
    pub num_clusters: usize,
}

impl Clustering {
    /// Computes the number of distinct labels and builds the `Clustering`.
    ///
    /// Labels must be vertex IDs of the clustered graph, i.e. `label[u] < label.len()`.
    /// The distinct labels are counted in parallel: marked in an `n`-bit set, whose
    /// per-word popcounts are summed (the label set contraction ranks labels with).
    pub fn from_labels(label: Vec<ClusterId>) -> Self {
        let num_clusters = LabelSet::of(&label).len();
        Self {
            label,
            num_clusters,
        }
    }

    /// Returns the singleton clustering (every vertex its own cluster).
    pub fn singletons(n: usize) -> Self {
        Self {
            label: (0..n as ClusterId).collect(),
            num_clusters: n,
        }
    }

    /// Total weight of every cluster, indexed by cluster label.
    pub fn cluster_weights(&self, graph: &impl Graph) -> Vec<NodeWeight> {
        let mut weights = vec![0; self.label.len()];
        for (u, &l) in self.label.iter().enumerate() {
            weights[l as usize] += graph.node_weight(u as NodeId);
        }
        weights
    }
}

/// The cluster weights of one clustering run, stored at the width its
/// `max_cluster_weight` needs. No stored weight exceeds `max_cluster_weight + 1` (see
/// [`Self::singletons`]), so below a limit of `u32::MAX` a weight takes 4 bytes. Sums and
/// comparisons are made in `u64`. One enum rather than a type parameter keeps a
/// single instance of the clustering code; every access branches on the width, the same
/// way for the whole run.
enum ClusterWeights {
    Narrow(Vec<AtomicU32>),
    Wide(Vec<AtomicU64>),
}

impl ClusterWeights {
    /// The singleton clusters of `graph`. A vertex heavier than `max_cluster_weight`
    /// starts at `max_cluster_weight + 1`, saturated: every feasibility test reads its
    /// cluster as over the limit, as its own weight would, so nothing joins it, and it
    /// cannot move either, so nothing is ever subtracted from it.
    fn singletons(graph: &impl Graph, max_cluster_weight: NodeWeight) -> Self {
        let saturated = max_cluster_weight.saturating_add(1);
        let weights = (0..graph.n() as NodeId).map(|u| graph.node_weight(u).min(saturated));
        if max_cluster_weight < NodeWeight::from(u32::MAX) {
            Self::Narrow(weights.map(|w| AtomicU32::new(w as u32)).collect())
        } else {
            Self::Wide(weights.map(AtomicU64::new).collect())
        }
    }

    fn memory_bytes(&self) -> usize {
        match self {
            Self::Narrow(cells) => std::mem::size_of_val(cells.as_slice()),
            Self::Wide(cells) => std::mem::size_of_val(cells.as_slice()),
        }
    }

    #[inline]
    fn get(&self, c: ClusterId) -> NodeWeight {
        match self {
            Self::Narrow(cells) => NodeWeight::from(cells[c as usize].load(Ordering::Relaxed)),
            Self::Wide(cells) => cells[c as usize].load(Ordering::Relaxed),
        }
    }

    /// Adds `w` to cluster `c` unless the sum would exceed `limit` (a CAS loop, so the
    /// limit is never exceeded); returns whether it did.
    #[inline]
    fn try_add(&self, c: ClusterId, w: NodeWeight, limit: NodeWeight) -> bool {
        let add = |weight: NodeWeight| Some(weight + w).filter(|&sum| sum <= limit);
        let relaxed = Ordering::Relaxed;
        match self {
            Self::Narrow(cells) => cells[c as usize]
                .fetch_update(relaxed, relaxed, |weight| {
                    add(weight.into()).map(|sum| sum as u32)
                })
                .is_ok(),
            Self::Wide(cells) => cells[c as usize]
                .fetch_update(relaxed, relaxed, add)
                .is_ok(),
        }
    }

    #[inline]
    fn subtract(&self, c: ClusterId, w: NodeWeight) {
        match self {
            Self::Narrow(cells) => {
                cells[c as usize].fetch_sub(w as u32, Ordering::Relaxed);
            }
            Self::Wide(cells) => {
                cells[c as usize].fetch_sub(w, Ordering::Relaxed);
            }
        }
    }
}

/// Shared mutable state of one clustering run.
struct ClusteringState {
    labels: Vec<AtomicNodeId>,
    cluster_weights: ClusterWeights,
    max_cluster_weight: NodeWeight,
}

impl ClusteringState {
    fn new(graph: &impl Graph, max_cluster_weight: NodeWeight) -> Self {
        let n = graph.n();
        let labels: Vec<AtomicNodeId> = (0..n as NodeId).map(AtomicNodeId::new).collect();
        let cluster_weights = ClusterWeights::singletons(graph, max_cluster_weight);
        Self {
            labels,
            cluster_weights,
            max_cluster_weight,
        }
    }

    /// Heap bytes of the label and cluster-weight arrays.
    fn memory_bytes(&self) -> usize {
        self.labels.len() * std::mem::size_of::<AtomicNodeId>()
            + self.cluster_weights.memory_bytes()
    }

    #[inline]
    fn label(&self, u: NodeId) -> ClusterId {
        self.labels[u as usize].load(Ordering::Relaxed)
    }

    /// Tries to move `u` (weight `w`) from its current cluster to `target`; returns
    /// `true` on success. The maximum cluster weight is never exceeded.
    fn try_move(&self, u: NodeId, w: NodeWeight, target: ClusterId) -> bool {
        let current = self.label(u);
        if current == target
            || !self
                .cluster_weights
                .try_add(target, w, self.max_cluster_weight)
        {
            return false;
        }
        self.cluster_weights.subtract(current, w);
        self.labels[u as usize].store(target, Ordering::Relaxed);
        true
    }

    fn into_clustering(self) -> Clustering {
        let label: Vec<ClusterId> = self.labels.into_iter().map(|a| a.into_inner()).collect();
        Clustering::from_labels(label)
    }
}

/// Selects the best feasible target cluster among the rated candidates.
///
/// The best cluster is the one with the maximum rating whose weight constraint admits
/// `u`; ties are broken in favour of the current cluster to avoid oscillation.
fn select_target(
    ratings: impl Iterator<Item = (ClusterId, u64)>,
    current: ClusterId,
    node_weight: NodeWeight,
    state: &ClusteringState,
) -> Option<ClusterId> {
    let mut best: Option<(ClusterId, u64)> = None;
    for (c, r) in ratings {
        let feasible =
            c == current || state.cluster_weights.get(c) + node_weight <= state.max_cluster_weight;
        if !feasible {
            continue;
        }
        best = match best {
            None => Some((c, r)),
            Some((bc, br)) => {
                if r > br || (r == br && c == current && bc != current) {
                    Some((c, r))
                } else {
                    Some((bc, br))
                }
            }
        };
    }
    match best {
        Some((c, _)) if c != current => Some(c),
        _ => None,
    }
}

/// Decodes the neighbourhood of `u` once, handing every neighbour to `rate`, and keeps
/// the ids in `kept` so a move can mark them without a second decode. Returns the degree
/// and the ids when they are the whole neighbourhood, `None` when it was longer than
/// `kept`.
#[inline]
fn visit_neighbors<'k>(
    graph: &impl Graph,
    u: NodeId,
    kept: &'k mut [NodeId],
    mut rate: impl FnMut(NodeId, EdgeWeight),
) -> (usize, Option<&'k [NodeId]>) {
    let mut degree = 0;
    graph.for_each_neighbor(u, &mut |v, w| {
        if let Some(slot) = kept.get_mut(degree) {
            *slot = v;
        }
        degree += 1;
        rate(v, w);
    });
    let kept: &'k [NodeId] = kept;
    (degree, kept.get(..degree))
}

/// The two bitsets of a frontier round: `pending`, the round's active set, holds the
/// vertices the round has still to visit (a visit clears its own bit), and `next`
/// collects the next round's active set.
#[derive(Clone, Copy)]
struct Frontier<'a> {
    pending: &'a AtomicBitset,
    next: &'a AtomicBitset,
}

impl Frontier<'_> {
    /// Starts the visit of `u`: from here on `u` reads the labels it rates, so a later
    /// change is one it has not seen.
    #[inline]
    fn visit(&self, u: NodeId) {
        self.pending.unset(u as usize);
    }

    /// Queues `v`, a neighbour of a vertex that just moved into cluster `target`, unless
    /// the move cannot change `v`'s choice: a `v` still pending reads the new label on
    /// its visit this round, and a `v` already in `target` only gained rating for its own
    /// cluster.
    ///
    /// At more than one thread the pending test races with `v`'s concurrent visit. The
    /// race can only drop a revisit, which parallel LP's scheduling-order
    /// nondeterminism already allows.
    #[inline]
    fn queue_neighbor(&self, state: &ClusteringState, v: NodeId, target: ClusterId) {
        if !self.pending.get(v as usize) && state.label(v) != target {
            self.next.set(v as usize);
        }
    }
}

/// Queues the neighbours of `u`, which just moved into `target`, through
/// [`Frontier::queue_neighbor`]: the ids its visit kept, or a second decode where
/// [`visit_neighbors`] could not keep them all. Returns the half-edges that decode cost.
#[inline]
fn mark_neighbors(
    graph: &impl Graph,
    state: &ClusteringState,
    frontier: Frontier<'_>,
    u: NodeId,
    target: ClusterId,
    kept: Option<&[NodeId]>,
) -> u64 {
    match kept {
        Some(ids) => {
            ids.iter()
                .for_each(|&v| frontier.queue_neighbor(state, v, target));
            0
        }
        None => {
            let mut decoded = 0;
            graph.for_each_neighbor(u, &mut |v, _| {
                decoded += 1;
                frontier.queue_neighbor(state, v, target);
            });
            decoded
        }
    }
}

/// Applies the outcome of [`select_target`] for `u`: performs the move and hands it to
/// `mark_neighbors` to queue the neighbours it changed a label for. A mover does not
/// queue itself; a move that lost a race against a concurrent one queues `u` alone, so
/// the next round retries it. Returns whether `u` moved; callers count per chunk and
/// publish once, not per move.
#[inline]
fn apply_selection<'f>(
    state: &ClusteringState,
    frontier: Frontier<'f>,
    u: NodeId,
    node_weight: NodeWeight,
    target: Option<ClusterId>,
    mark_neighbors: impl FnOnce(Frontier<'f>, ClusterId),
) -> bool {
    let Some(target) = target else {
        return false;
    };
    let moved = state.try_move(u, node_weight, target);
    if moved {
        mark_neighbors(frontier, target);
    } else {
        frontier.next.set(u as usize);
    }
    moved
}

/// What the size constraint leaves label propagation to do on a node-weighted graph: an
/// edge `(u, v)` is *contractible* if `w(u) + w(v) ≤ max_cluster_weight`, a vertex is
/// *movable* if it has a contractible edge. Cluster weights are at least member weights,
/// so a vertex without one can neither move nor be joined, in any round: it ends the
/// clustering as the singleton it started as, visited or not.
struct Movable {
    /// One bit per vertex.
    bits: AtomicBitset,
    /// Number of movable vertices.
    vertices: usize,
    contractible_half_edges: u64,
}

impl Movable {
    /// Counts the contractible half-edges of `graph` in one parallel pass over its
    /// edges. `None` stands for "every vertex": unit weights under a limit of at least 2
    /// make every edge contractible, so the (possibly compressed) input graph of level 0
    /// is never decoded for this. Its isolated vertices are visited as before.
    fn of(graph: &impl Graph, max_cluster_weight: NodeWeight) -> Option<Self> {
        if !graph.is_node_weighted() && max_cluster_weight >= 2 {
            return None;
        }
        let n = graph.n();
        let mut bits = AtomicBitset::new();
        bits.ensure_len(n);
        let contractible_half_edges = AtomicU64::new(0);
        bits.fill_with(n, |u| {
            let u = u as NodeId;
            let weight = graph.node_weight(u);
            let mut contractible = 0u64;
            graph.for_each_neighbor(u, &mut |v, _| {
                contractible += u64::from(weight + graph.node_weight(v) <= max_cluster_weight);
            });
            if contractible > 0 {
                contractible_half_edges.fetch_add(contractible, Ordering::Relaxed);
            }
            contractible > 0
        });
        Some(Self {
            vertices: bits.count(n),
            bits,
            contractible_half_edges: contractible_half_edges.into_inner(),
        })
    }
}

/// Runs label propagation clustering on `graph` with a fresh worker pool. Prefer
/// [`cluster_with_scratch`] inside the multilevel pipeline.
pub fn cluster(
    graph: &impl Graph,
    config: &CoarseningConfig,
    max_cluster_weight: NodeWeight,
    seed: u64,
) -> Clustering {
    let mut scratch = HierarchyScratch::new();
    cluster_with_scratch(graph, config, max_cluster_weight, seed, &mut scratch)
}

/// Runs label propagation clustering on `graph` and returns the resulting clustering.
///
/// `max_cluster_weight` is the size constraint; `seed` controls the random visit order.
/// The function must be called from within the partitioner's rayon thread pool (or any
/// pool); it sizes its leased per-chunk state by `rayon::current_num_threads()` and
/// leases it from `scratch`'s worker pool.
///
/// Only movable vertices — those with an edge `(u, v)` such that `w(u) + w(v) ≤
/// max_cluster_weight`, see the module docs — are ever visited: round 0 starts from
/// them, every later frontier is cut down to them, and a graph without such an edge gets
/// the singleton clustering without a round.
pub fn cluster_with_scratch(
    graph: &impl Graph,
    config: &CoarseningConfig,
    max_cluster_weight: NodeWeight,
    seed: u64,
    scratch: &mut HierarchyScratch,
) -> Clustering {
    let movable = Movable::of(graph, max_cluster_weight);
    cluster_movable(graph, config, max_cluster_weight, seed, movable, scratch)
}

/// [`cluster_with_scratch`] on one coarsening level: a counted level with fewer than
/// `min_contractible_half_edges` contractible half-edges is given up before its first
/// round (`None`). Also hands back for the level's `cluster` span what it counted:
/// `(contractible half-edges, movable vertices)`, `None` where every vertex is movable
/// without a count — such a level is never given up.
pub(crate) fn cluster_level(
    graph: &impl Graph,
    config: &CoarseningConfig,
    max_cluster_weight: NodeWeight,
    seed: u64,
    min_contractible_half_edges: u64,
    scratch: &mut HierarchyScratch,
) -> (Option<Clustering>, Option<(u64, usize)>) {
    let movable = Movable::of(graph, max_cluster_weight);
    let counted = movable
        .as_ref()
        .map(|m| (m.contractible_half_edges, m.vertices));
    if counted.is_some_and(|(half_edges, _)| half_edges < min_contractible_half_edges) {
        return (None, counted);
    }
    let clustering = cluster_movable(graph, config, max_cluster_weight, seed, movable, scratch);
    (Some(clustering), counted)
}

/// The rounds of [`cluster_with_scratch`], from the vertices `movable` counted (all of
/// them where it is `None`).
fn cluster_movable(
    graph: &impl Graph,
    config: &CoarseningConfig,
    max_cluster_weight: NodeWeight,
    seed: u64,
    movable: Option<Movable>,
    scratch: &mut HierarchyScratch,
) -> Clustering {
    let n = graph.n();
    if n == 0 || movable.as_ref().is_some_and(|m| m.vertices == 0) {
        return Clustering::singletons(n);
    }
    let _movable_scope =
        MemoryScope::charge_global(movable.as_ref().map_or(0, |m| m.bits.memory_bytes()));
    let start = movable.as_ref().map(|m| &m.bits);
    let state = ClusteringState::new(graph, max_cluster_weight);
    let _state_scope = MemoryScope::charge_global(state.memory_bytes());
    let num_threads = rayon::current_num_threads().max(1);

    /// Clustering semantics for the shared driver: historical `seed ^ round` shuffle
    /// seeds, no waiters, stop on the first move-free round (the trait defaults).
    struct ClusteringRounds<'r> {
        seed: u64,
        /// The movable vertices, where they are a counted subset.
        movable: Option<&'r AtomicBitset>,
        run: &'r mut dyn FnMut(&VisitOrder<'_>, Frontier<'_>) -> RoundWork,
    }

    impl LpRoundSemantics for ClusteringRounds<'_> {
        fn round_seed(&self, round: usize) -> u64 {
            self.seed ^ round as u64
        }

        fn obs_counters(&self) -> (obs::Counter, obs::Counter) {
            (obs::Counter::LpClusterRounds, obs::Counter::LpClusterMoves)
        }

        fn run_round(&mut self, order: &VisitOrder<'_>, next: &AtomicBitset) -> RoundWork {
            let frontier = Frontier {
                pending: order.active(),
                next,
            };
            (self.run)(order, frontier)
        }

        fn after_round(&mut self, next_active: &AtomicBitset) {
            // A move marks neighbours whatever their weight; the ones that cannot move
            // drop out here, one pass over n / 64 words, instead of being tested per mark.
            if let Some(movable) = self.movable {
                next_active.intersect_with(movable);
            }
        }
    }
    // Each running chunk keeps the neighbour ids of its current visit.
    let kept_ids_bytes = num_threads * config.bump_threshold * std::mem::size_of::<NodeId>();
    let workers = &scratch.workers;

    match config.lp_mode {
        LabelPropagationMode::PerThreadRatingMaps => {
            // Auxiliary memory: one O(n) rating map per thread (the Figure 2 culprit),
            // all built and charged up front. At most `num_threads` chunks run at once,
            // so a lease always finds one of them parked.
            let maps = Pool::filled((0..num_threads).map(|_| SparseRatingMap::new(n)));
            let _scope = MemoryScope::charge_global(
                maps.parked_sum(SparseRatingMap::memory_bytes) + kept_ids_bytes,
            );
            let mut run = |order: &VisitOrder<'_>, frontier: Frontier<'_>| {
                run_round_per_thread_maps(graph, &state, &maps, config, workers, order, frontier)
            };
            let mut semantics = ClusteringRounds {
                seed,
                movable: start,
                run: &mut run,
            };
            drive_lp_rounds(n, config.lp_rounds, start, &scratch.obs, &mut semantics);
        }
        LabelPropagationMode::TwoPhase => {
            // Auxiliary memory: p fixed-capacity hash tables, plus one shared O(n) array
            // from the first bumped vertex on.
            let _scope = MemoryScope::charge_global(
                num_threads * FixedCapacityHashMap::new(config.bump_threshold).memory_bytes()
                    + kept_ids_bytes,
            );
            let mut shared = None;
            let mut run = |order: &VisitOrder<'_>, frontier: Frontier<'_>| {
                run_round_two_phase(graph, &state, config, &mut shared, workers, order, frontier)
            };
            let mut semantics = ClusteringRounds {
                seed,
                movable: start,
                run: &mut run,
            };
            drive_lp_rounds(n, config.lp_rounds, start, &scratch.obs, &mut semantics);
        }
    }

    state.into_clustering()
}

/// One round of the original algorithm: every range of the walk holds a full sparse
/// rating map, one of the `num_threads` in `maps`.
fn run_round_per_thread_maps(
    graph: &impl Graph,
    state: &ClusteringState,
    maps: &Pool<SparseRatingMap>,
    config: &CoarseningConfig,
    workers: &Pool<WorkerScratch>,
    order: &VisitOrder<'_>,
    frontier: Frontier<'_>,
) -> RoundWork {
    let visit_range = |work: &mut RoundWork, range: &[NodeId]| {
        let mut map = maps.checkout();
        let mut worker = workers.checkout();
        let ids = worker.neighbor_ids(config.bump_threshold);
        for &u in range {
            frontier.visit(u);
            let node_weight = graph.node_weight(u);
            map.clear();
            let (degree, kept) = visit_neighbors(graph, u, ids, |v, w| {
                map.add(state.label(v), w);
            });
            work.half_edges += degree as u64;
            let current = state.label(u);
            let target = select_target(map.iter(), current, node_weight, state);
            let mark = |frontier, target| {
                work.half_edges += mark_neighbors(graph, state, frontier, u, target, kept);
            };
            if apply_selection(state, frontier, u, node_weight, target, mark) {
                work.moves += 1;
            }
        }
    };
    order.fold(RoundWork::default, visit_range, |a, b| a + b)
}

/// One round of two-phase label propagation (paper Algorithm 2). `shared` is the second
/// phase's O(n) rating array with its memory charge; the (sequential) second phase builds
/// it for the first bumped vertex of the clustering call and later rounds reuse it, so a
/// graph without high-degree vertices never pays for it.
fn run_round_two_phase(
    graph: &impl Graph,
    state: &ClusteringState,
    config: &CoarseningConfig,
    shared: &mut Option<(AtomicSparseArray, MemoryScope<'static>)>,
    workers: &Pool<WorkerScratch>,
    order: &VisitOrder<'_>,
    frontier: Frontier<'_>,
) -> RoundWork {
    // ---- First phase: small fixed-capacity hash tables, bump on overflow. ----
    let visit_range = |(work, bumped): &mut (RoundWork, Vec<NodeId>), range: &[NodeId]| {
        // The rating table comes from the arena's worker pool (as in LP refinement and
        // contraction), not from the allocator once per range.
        let mut worker = workers.checkout();
        let (map, ids) = worker.rating_table_and_neighbor_ids(config.bump_threshold);
        for &u in range {
            frontier.visit(u);
            let node_weight = graph.node_weight(u);
            map.clear();
            let mut overflow = false;
            let (degree, kept) = visit_neighbors(graph, u, ids, |v, w| {
                if !overflow && !map.add(state.label(v), w) {
                    overflow = true;
                }
            });
            work.half_edges += degree as u64;
            if overflow {
                // Still pending: its visit is the second phase's.
                frontier.pending.set(u as usize);
                bumped.push(u);
                continue;
            }
            let current = state.label(u);
            let target = select_target(map.iter(), current, node_weight, state);
            let mark = |frontier, target| {
                work.half_edges += mark_neighbors(graph, state, frontier, u, target, kept);
            };
            if apply_selection(state, frontier, u, node_weight, target, mark) {
                work.moves += 1;
            }
        }
    };
    let (mut work, bumped) = order.fold(
        Default::default,
        visit_range,
        |(left, mut bumped), (right, mut more)| {
            bumped.append(&mut more);
            (left + right, bumped)
        },
    );

    // ---- Second phase: bumped vertices sequentially, parallelism over their edges. ----
    if bumped.is_empty() {
        return work;
    }
    let (shared, _) = shared.get_or_insert_with(|| {
        let array = AtomicSparseArray::new(graph.n());
        let charge = MemoryScope::charge_global(array.memory_bytes());
        (array, charge)
    });
    let shared = &*shared;
    for &u in &bumped {
        frontier.visit(u);
        let node_weight = graph.node_weight(u);
        let neighbors = graph.neighbors_vec(u);
        work.half_edges += neighbors.len() as u64;
        // Parallel aggregation into the shared array, buffered through per-chunk hash
        // tables to reduce atomic contention (paper Algorithm 2, FlushRatingMap).
        let touched: Vec<NodeId> = neighbors
            .par_chunks(1024)
            .map(|chunk| {
                let mut worker = workers.checkout();
                let buffer = worker.rating_table(config.bump_threshold);
                let mut touched = Vec::new();
                for &(v, w) in chunk {
                    let c = state.label(v);
                    if !buffer.add(c, w) {
                        flush(buffer, shared, &mut touched);
                        buffer.add(c, w);
                    }
                }
                flush(buffer, shared, &mut touched);
                touched
            })
            .reduce(Vec::new, |mut a, mut b| {
                a.append(&mut b);
                a
            });
        let current = state.label(u);
        let target = select_target(
            touched.iter().map(|&c| (c, shared.get(c))),
            current,
            node_weight,
            state,
        );
        shared.reset(&touched);
        let mark = |frontier: Frontier<'_>, target| {
            for &(v, _) in &neighbors {
                frontier.queue_neighbor(state, v, target);
            }
        };
        if apply_selection(state, frontier, u, node_weight, target, mark) {
            work.moves += 1;
        }
    }
    work
}

/// Applies the entries of `buffer` to the shared array and records newly touched keys.
fn flush(buffer: &mut FixedCapacityHashMap, shared: &AtomicSparseArray, touched: &mut Vec<NodeId>) {
    for (c, w) in buffer.iter() {
        if shared.add(c, w) {
            touched.push(c);
        }
    }
    buffer.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen;

    fn run(graph: &impl Graph, mode: LabelPropagationMode, max_weight: NodeWeight) -> Clustering {
        let config = CoarseningConfig {
            lp_mode: mode,
            bump_threshold: 8,
            ..Default::default()
        };
        cluster(graph, &config, max_weight, 42)
    }

    fn check_invariants(graph: &impl Graph, clustering: &Clustering, max_weight: NodeWeight) {
        assert_eq!(clustering.label.len(), graph.n());
        let weights = clustering.cluster_weights(graph);
        for (c, &w) in weights.iter().enumerate() {
            assert!(
                w <= max_weight || {
                    // A cluster may exceed the limit only if it consists of a single
                    // vertex that is itself heavier than the limit.
                    let members: Vec<_> = clustering
                        .label
                        .iter()
                        .enumerate()
                        .filter(|&(_, &l)| l as usize == c)
                        .collect();
                    members.len() == 1
                },
                "cluster {} exceeds the weight limit: {} > {}",
                c,
                w,
                max_weight
            );
        }
        let total: NodeWeight = weights.iter().sum();
        assert_eq!(total, graph.total_node_weight());
    }

    #[test]
    fn clusters_shrink_a_grid() {
        let g = gen::grid2d(20, 20);
        for mode in [
            LabelPropagationMode::PerThreadRatingMaps,
            LabelPropagationMode::TwoPhase,
        ] {
            let clustering = run(&g, mode, 8);
            check_invariants(&g, &clustering, 8);
            assert!(
                clustering.num_clusters < g.n() / 2,
                "{:?}: expected the grid to shrink, got {} clusters",
                mode,
                clustering.num_clusters
            );
        }
    }

    #[test]
    fn cliques_collapse_into_single_clusters() {
        // Three cliques of 8 vertices connected by bridges: LP should discover them.
        let g = gen::clique_chain(3, 8);
        let clustering = run(&g, LabelPropagationMode::TwoPhase, 8);
        check_invariants(&g, &clustering, 8);
        assert!(
            clustering.num_clusters <= 6,
            "got {} clusters",
            clustering.num_clusters
        );
        // Vertices of the same clique should mostly share a label.
        for clique in 0..3 {
            let labels: std::collections::HashSet<_> = (clique * 8..(clique + 1) * 8)
                .map(|u| clustering.label[u])
                .collect();
            assert!(
                labels.len() <= 2,
                "clique {} split into {} clusters",
                clique,
                labels.len()
            );
        }
    }

    #[test]
    fn max_cluster_weight_is_respected() {
        let g = gen::complete(32);
        for mode in [
            LabelPropagationMode::PerThreadRatingMaps,
            LabelPropagationMode::TwoPhase,
        ] {
            let clustering = run(&g, mode, 4);
            check_invariants(&g, &clustering, 4);
            assert!(clustering.num_clusters >= 8);
        }
    }

    #[test]
    fn two_phase_handles_high_degree_hubs() {
        // Star graph: the hub has degree 400 but its neighbours form at most a handful of
        // clusters; the leaves' neighbourhoods are tiny. Use a tiny bump threshold so the
        // second phase actually runs.
        let g = gen::star(401);
        let config = CoarseningConfig {
            lp_mode: LabelPropagationMode::TwoPhase,
            bump_threshold: 4,
            lp_rounds: 2,
            ..Default::default()
        };
        let clustering = cluster(&g, &config, 64, 7);
        check_invariants(&g, &clustering, 64);
        assert!(clustering.num_clusters < g.n());
    }

    #[test]
    fn both_modes_produce_comparable_quality() {
        let g = gen::rgg2d(1200, 12, 3);
        let a = run(&g, LabelPropagationMode::PerThreadRatingMaps, 16);
        let b = run(&g, LabelPropagationMode::TwoPhase, 16);
        check_invariants(&g, &a, 16);
        check_invariants(&g, &b, 16);
        let ratio = a.num_clusters as f64 / b.num_clusters as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "cluster counts diverge too much: {} vs {}",
            a.num_clusters,
            b.num_clusters
        );
    }

    #[test]
    fn the_baseline_leases_its_rating_maps_and_never_builds_more_than_one_per_thread() {
        let g = gen::rgg2d(20_000, 8, 7);
        let threads = 4;
        let state = ClusteringState::new(&g, 16);
        let maps = Pool::filled((0..threads).map(|_| SparseRatingMap::new(g.n())));
        let (config, workers) = (CoarseningConfig::default(), Pool::new());
        let (all, next) = pending_frontier(g.n());
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let moved: usize = pool.install(|| {
            (0..3)
                .map(|round| {
                    // A round's visits clear their bits: every round starts from all.
                    all.set_all(g.n());
                    let mut ranges = Vec::new();
                    let order = VisitOrder::new(g.n(), &all, round, &mut ranges);
                    let frontier = Frontier {
                        pending: &all,
                        next: &next,
                    };
                    run_round_per_thread_maps(
                        &g, &state, &maps, &config, &workers, &order, frontier,
                    )
                    .moves
                })
                .sum()
        });
        assert!(moved > 0);
        assert!((1..=threads).contains(&maps.high_water()));
        // A lease that found the pool empty would have parked a fifth, zero-length map.
        assert_eq!(maps.parked_count(), threads);
        check_invariants(&g, &state.into_clustering(), 16);
    }

    #[test]
    fn a_graph_without_a_contractible_edge_runs_no_round() {
        // Every weight is at least 1, so no two vertices fit under a limit of 1.
        let g = gen::with_random_node_weights(&gen::rgg2d(600, 8, 5), 4, 11);
        for lp_mode in [
            LabelPropagationMode::TwoPhase,
            LabelPropagationMode::PerThreadRatingMaps,
        ] {
            let config = CoarseningConfig {
                lp_mode,
                ..Default::default()
            };
            let mut scratch = HierarchyScratch::new();
            let (obs, recorder) = obs::ObsHandle::recording();
            scratch.obs = obs;
            // Nothing gives the level up (a floor of 0), and still no round runs.
            let (clustering, counted) = cluster_level(&g, &config, 1, 3, 0, &mut scratch);
            assert_eq!(counted, Some((0, 0)));
            assert_eq!(clustering, Some(Clustering::singletons(g.n())));
            assert_eq!(recorder.metrics().get(obs::Counter::LpClusterRounds), 0);

            // The same graph under a limit that admits some edges does run rounds.
            let (clustering, counted) = cluster_level(&g, &config, 4, 3, 0, &mut scratch);
            let clustering = clustering.expect("a floor of 0 gives nothing up");
            let (half_edges, movable) = counted.expect("a node-weighted graph is counted");
            assert!(half_edges > 0 && half_edges < 2 * g.m() as u64);
            assert!(movable > 0 && movable < g.n());
            assert!(clustering.num_clusters < g.n());
            assert!(recorder.metrics().get(obs::Counter::LpClusterRounds) > 0);
            check_invariants(&g, &clustering, 4);
        }
    }

    /// Counts the half-edges [`Graph::for_each_neighbor`] hands out.
    struct CountingGraph {
        inner: graph::CsrGraph,
        half_edges: AtomicU64,
    }

    impl Graph for CountingGraph {
        fn n(&self) -> usize {
            self.inner.n()
        }
        fn m(&self) -> usize {
            self.inner.m()
        }
        fn degree(&self, u: NodeId) -> usize {
            self.inner.degree(u)
        }
        fn node_weight(&self, u: NodeId) -> NodeWeight {
            self.inner.node_weight(u)
        }
        fn total_node_weight(&self) -> NodeWeight {
            self.inner.total_node_weight()
        }
        fn total_edge_weight(&self) -> EdgeWeight {
            self.inner.total_edge_weight()
        }
        fn for_each_neighbor(&self, u: NodeId, f: &mut dyn FnMut(NodeId, EdgeWeight)) {
            let degree = self.inner.degree(u) as u64;
            self.half_edges.fetch_add(degree, Ordering::Relaxed);
            self.inner.for_each_neighbor(u, f);
        }
    }

    /// The bitsets of a one-round frontier over `n` vertices, every vertex pending.
    fn pending_frontier(n: usize) -> (AtomicBitset, AtomicBitset) {
        let (mut pending, mut next) = (AtomicBitset::new(), AtomicBitset::new());
        pending.ensure_len(n);
        next.ensure_len(n);
        pending.set_all(n);
        (pending, next)
    }

    #[test]
    fn a_move_queues_only_the_visited_neighbours_outside_its_target() {
        // Vertex 0 is the centre of a star with leaves 1..=4. Leaf 1 is the target
        // cluster, leaf 2 is still pending, leaf 3 was visited and is a singleton, leaf
        // 4 was visited and has joined the target already.
        let g = gen::star(5);
        let state = ClusteringState::new(&g, 3);
        let (pending, next) = pending_frontier(g.n());
        let frontier = Frontier {
            pending: &pending,
            next: &next,
        };
        for v in [1, 3, 4] {
            frontier.visit(v);
        }
        assert!(state.try_move(4, 1, 1));
        frontier.visit(0);
        let kept: Vec<NodeId> = (1..5).collect();
        let mark = |frontier, target| {
            assert_eq!(
                mark_neighbors(&g, &state, frontier, 0, target, Some(&kept)),
                0
            );
        };
        assert!(apply_selection(&state, frontier, 0, 1, Some(1), mark));
        assert_eq!(state.label(0), 1);
        let queued: Vec<usize> = (0..g.n()).filter(|&v| next.get(v)).collect();
        assert_eq!(
            queued,
            vec![3],
            "not the mover, not the target's members, not the pending leaf"
        );

        // Cluster 1 is full now (weight 3): leaf 2's move into it fails and queues leaf 2
        // alone.
        next.clear_range(g.n());
        frontier.visit(2);
        let mark = |_, _| panic!("a failed move marks no neighbour");
        let moved = apply_selection(&state, frontier, 2, 1, Some(1), mark);
        assert!(!moved);
        let queued: Vec<usize> = (0..g.n()).filter(|&v| next.get(v)).collect();
        assert_eq!(queued, vec![2]);
    }

    #[test]
    fn a_move_that_keeps_too_few_ids_queues_from_a_second_decode() {
        let g = gen::star(5);
        let state = ClusteringState::new(&g, 4);
        let (pending, next) = pending_frontier(g.n());
        let frontier = Frontier {
            pending: &pending,
            next: &next,
        };
        (0..5).for_each(|v| frontier.visit(v));
        assert!(state.try_move(0, 1, 2));
        assert_eq!(mark_neighbors(&g, &state, frontier, 0, 2, None), 4);
        let queued: Vec<usize> = (0..g.n()).filter(|&v| next.get(v)).collect();
        assert_eq!(queued, vec![1, 3, 4]);
    }

    #[test]
    fn the_round_after_the_sweep_revisits_at_most_three_fifths_of_it() {
        let g = gen::rgg2d(20_000, 8, 7);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let mut scratch = HierarchyScratch::new();
        let (obs, recorder) = obs::ObsHandle::recording();
        scratch.obs = obs;
        let config = CoarseningConfig::default();
        pool.install(|| cluster_with_scratch(&g, &config, 32, 7, &mut scratch));
        let report = recorder.finish_report();
        let visits: Vec<u64> = report
            .all_spans()
            .into_iter()
            .filter(|span| span.name == "lp_round")
            .filter_map(|span| span.attr("visited"))
            .collect();
        assert_eq!(visits[0], g.n() as u64);
        assert!(
            visits[1] * 5 <= visits[0] * 3,
            "round 1 revisits {} of {}",
            visits[1],
            visits[0]
        );
    }

    #[test]
    fn a_visit_decodes_its_neighbourhood_once_whether_it_moves_or_not() {
        // On a 2-regular graph every decode hands out 2 half-edges: rating a vertex and,
        // if it moves, marking its neighbours together cost 2 per visit.
        for lp_mode in [
            LabelPropagationMode::TwoPhase,
            LabelPropagationMode::PerThreadRatingMaps,
        ] {
            let graph = CountingGraph {
                inner: gen::cycle(3_000),
                half_edges: AtomicU64::new(0),
            };
            let config = CoarseningConfig {
                lp_mode,
                ..Default::default()
            };
            let mut scratch = HierarchyScratch::new();
            let (obs, recorder) = obs::ObsHandle::recording();
            scratch.obs = obs;
            let clustering = cluster_with_scratch(&graph, &config, 16, 7, &mut scratch);
            assert!(clustering.num_clusters < graph.n() / 2);
            let report = recorder.finish_report();
            let rounds: Vec<_> = report
                .all_spans()
                .into_iter()
                .filter(|span| span.name == "lp_round")
                .collect();
            assert!(
                rounds.len() > 1,
                "{lp_mode:?}: a frontier round follows the sweep"
            );
            let visits: u64 = rounds.iter().filter_map(|span| span.attr("visited")).sum();
            let half_edges: u64 = rounds
                .iter()
                .filter_map(|span| span.attr("half_edges"))
                .sum();
            let decoded = graph.half_edges.into_inner();
            assert_eq!(decoded, 2 * visits, "{lp_mode:?}");
            assert_eq!(
                decoded, half_edges,
                "{lp_mode:?}: the spans count every decode"
            );
        }
    }

    #[test]
    fn unit_weights_are_all_movable_without_a_count() {
        let g = gen::rgg2d(600, 8, 5);
        assert!(Movable::of(&g, 2).is_none());
        // Under a limit of 1 nothing fits, and the count says so.
        let nothing = Movable::of(&g, 1).expect("counted");
        assert_eq!((nothing.vertices, nothing.contractible_half_edges), (0, 0));
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let empty = graph::CsrGraphBuilder::new(0).build();
        let c = run(&empty, LabelPropagationMode::TwoPhase, 10);
        assert_eq!(c.num_clusters, 0);

        let single = graph::CsrGraphBuilder::new(1).build();
        let c = run(&single, LabelPropagationMode::TwoPhase, 10);
        assert_eq!(c.num_clusters, 1);
        assert_eq!(c.label, vec![0]);
    }

    #[test]
    fn singleton_clustering_helper() {
        let c = Clustering::singletons(5);
        assert_eq!(c.num_clusters, 5);
        assert_eq!(c.label, vec![0, 1, 2, 3, 4]);
        let g = gen::path(5);
        assert_eq!(c.cluster_weights(&g), vec![1, 1, 1, 1, 1]);
    }

    #[test]
    fn from_labels_counts_non_consecutive_labels() {
        // Labels need not be consecutive; a label's vertex need not carry its own label
        // (vertex 6 has label 1, yet label 6 names another cluster).
        let c = Clustering::from_labels(vec![3, 3, 6, 6, 1, 3, 1]);
        assert_eq!(c.num_clusters, 3);
        assert_eq!(c.label, vec![3, 3, 6, 6, 1, 3, 1]);

        let c = Clustering::from_labels(vec![0; 6]);
        assert_eq!(c.num_clusters, 1);

        let c = Clustering::from_labels(Vec::new());
        assert_eq!(c.num_clusters, 0);
    }

    #[test]
    fn from_labels_counts_in_parallel_as_a_sequential_count_does() {
        // Several marking tasks and label words: labels drawn from a quarter of the
        // space, so most of it is empty, at one to three threads.
        let n = (1 << 16) + 77;
        let label: Vec<ClusterId> = (0..n)
            .map(|u| ((u * 7919) % (n / 4)) as ClusterId)
            .collect();
        let mut distinct = label.clone();
        distinct.sort_unstable();
        distinct.dedup();
        for threads in [1, 2, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let c = pool.install(|| Clustering::from_labels(label.clone()));
            assert_eq!(c.num_clusters, distinct.len(), "{threads} threads");
            assert_eq!(c.label, label);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_labels_refuses_a_label_outside_the_vertex_set() {
        Clustering::from_labels(vec![0, 4, 1, 2]);
    }

    /// `graph` with node weights `weights`.
    fn reweighted(graph: &graph::CsrGraph, weights: Vec<NodeWeight>) -> graph::CsrGraph {
        let mut builder = graph::CsrGraphBuilder::with_node_weights(weights);
        for u in 0..graph.n() as NodeId {
            graph.for_each_neighbor(u, &mut |v, w| {
                if u < v {
                    builder.add_edge(u, v, w);
                }
            });
        }
        builder.build()
    }

    #[test]
    fn eight_byte_cluster_weights_find_the_clustering_of_four_byte_ones() {
        // Scaling every node weight and the limit by 2^32 answers every feasibility test
        // as before but forces 8-byte cells: in 4-byte ones every scaled weight would
        // truncate to 0. Vertex 17 is heavier than the limit: it starts saturated at 13
        // in the 4-byte cells and at its own weight in the 8-byte ones.
        let base = gen::with_random_node_weights(&gen::rgg2d(3_000, 8, 5), 3, 9);
        let mut weights: Vec<NodeWeight> = (0..base.n() as NodeId)
            .map(|u| base.node_weight(u))
            .collect();
        weights[17] = 40;
        let limit: NodeWeight = 12;
        let unit = reweighted(&base, weights.clone());
        let scaled = reweighted(&base, weights.iter().map(|&w| w << 32).collect());
        assert!(limit << 32 >= NodeWeight::from(u32::MAX));
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        for lp_mode in [
            LabelPropagationMode::TwoPhase,
            LabelPropagationMode::PerThreadRatingMaps,
        ] {
            let config = CoarseningConfig {
                lp_mode,
                bump_threshold: 8,
                ..Default::default()
            };
            let (narrow, wide) = pool.install(|| {
                (
                    cluster(&unit, &config, limit, 11),
                    cluster(&scaled, &config, limit << 32, 11),
                )
            });
            assert_eq!(narrow, wide, "{lp_mode:?}");
            check_invariants(&unit, &narrow, limit);
            assert!(narrow.num_clusters < unit.n() / 2, "{lp_mode:?}");
            let joined_17: Vec<usize> = (0..unit.n()).filter(|&u| narrow.label[u] == 17).collect();
            assert_eq!(joined_17, vec![17], "the heavy vertex stays a singleton");
        }
    }

    #[test]
    fn the_state_charges_the_cell_width_it_uses() {
        let g = gen::rgg2d(600, 8, 5);
        let (n, id) = (g.n(), std::mem::size_of::<NodeId>());
        // The largest limit whose saturation mark, `limit + 1`, fits in 4 bytes.
        let narrow = ClusteringState::new(&g, NodeWeight::from(u32::MAX) - 1);
        assert!(matches!(narrow.cluster_weights, ClusterWeights::Narrow(_)));
        assert_eq!(narrow.memory_bytes(), n * (id + 4));
        let wide = ClusteringState::new(&g, NodeWeight::from(u32::MAX));
        assert!(matches!(wide.cluster_weights, ClusterWeights::Wide(_)));
        assert_eq!(wide.memory_bytes(), n * (id + 8));
    }

    #[test]
    fn a_vertex_heavier_than_the_limit_starts_saturated_and_never_moves() {
        // Vertex 1 weighs 2^32, which 4 bytes would store as 0.
        let g = reweighted(&gen::path(3), vec![1, 1 << 32, 1]);
        let state = ClusteringState::new(&g, 3);
        assert!(matches!(state.cluster_weights, ClusterWeights::Narrow(_)));
        assert_eq!(state.cluster_weights.get(1), 4);
        assert!(!state.try_move(1, g.node_weight(1), 0));
        assert!(!state.try_move(0, 1, 1));
        assert!(state.try_move(0, 1, 2));
        assert_eq!(
            (0..3)
                .map(|c| state.cluster_weights.get(c))
                .collect::<Vec<_>>(),
            vec![0, 4, 2]
        );
    }

    #[test]
    fn deterministic_for_fixed_seed_single_thread() {
        let g = gen::erdos_renyi(300, 900, 5);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let config = CoarseningConfig::default();
        let a = pool.install(|| cluster(&g, &config, 8, 123));
        let b = pool.install(|| cluster(&g, &config, 8, 123));
        assert_eq!(a, b);
    }
}
