//! The coarsening stage of the multilevel framework.
//!
//! Coarsening repeatedly (1) computes a size-constrained label propagation clustering
//! ([`lp_clustering`]), (2) on a level that does not halve, merges leftover singletons
//! via two-hop clustering ([`two_hop`]) and (3) contracts the clustering
//! ([`mod@contract`]) until the graph is small enough for initial partitioning, too few
//! of its edges can be contracted under the cluster-weight limit
//! ([`MIN_CONTRACTIBLE_SHARE`]) or it stops shrinking ([`MIN_SHRINK_FACTOR`]). The
//! resulting [`Hierarchy`] records every coarse graph together with the fine-to-coarse vertex mapping needed to
//! project partitions back up during uncoarsening, which pops each level once it has
//! projected past it. Contraction writes every coarse graph compressed ([`CoarseGraph`]),
//! so every level, the coarsest included, is clustered, partitioned, projected onto and
//! refined in the form it was born in.

pub mod contract;
mod label_set;
pub mod lp_clustering;
pub mod rating_map;
pub mod two_hop;

pub use contract::{contract, contract_with_scratch, reserved_bytes, ContractionResult};
pub use lp_clustering::{cluster, cluster_with_scratch, Clustering};
pub use two_hop::{pack_isolated_vertices, two_hop_clustering};

use std::sync::OnceLock;

use graph::csr::CsrGraph;
use graph::traits::Graph;
use graph::{CompressedGraph, EdgeWeight, NodeId, NodeWeight};
use memtrack::{MemoryScope, PhaseTracker};

use obs::{Counter, SpanKind};

use crate::context::PartitionerConfig;
use crate::partitioner::{obs_phase_with, RunContext};
use crate::scratch::HierarchyScratch;

/// The graph of one hierarchy level: the compressed graph contraction wrote, charged to
/// the memory accounting from the moment its bytes were written until it drops.
/// Clustering, contraction, initial partitioning, projection and refinement all read it
/// as it is.
#[derive(Debug)]
pub struct CoarseGraph {
    graph: CompressedGraph,
    charge: MemoryScope<'static>,
}

impl CoarseGraph {
    /// A graph and the charge of its bytes, as [`graph::compressed::GraphWriter::finish`]
    /// returns them.
    pub(crate) fn new((graph, charge): (CompressedGraph, MemoryScope<'static>)) -> Self {
        Self { graph, charge }
    }

    /// Bytes the level holds and is charged for: its
    /// [`CompressedGraph::size_in_bytes`].
    pub fn size_in_bytes(&self) -> usize {
        self.charge.bytes()
    }

    /// The compressed graph.
    pub fn compressed(&self) -> &CompressedGraph {
        &self.graph
    }
}

impl Graph for CoarseGraph {
    fn n(&self) -> usize {
        self.graph.n()
    }

    fn m(&self) -> usize {
        self.graph.m()
    }

    fn degree(&self, u: NodeId) -> usize {
        self.graph.degree(u)
    }

    fn node_weight(&self, u: NodeId) -> NodeWeight {
        self.graph.node_weight(u)
    }

    fn total_node_weight(&self) -> NodeWeight {
        self.graph.total_node_weight()
    }

    fn total_edge_weight(&self) -> EdgeWeight {
        self.graph.total_edge_weight()
    }

    fn for_each_neighbor(&self, u: NodeId, f: &mut dyn FnMut(NodeId, EdgeWeight)) {
        self.graph.for_each_neighbor(u, f)
    }

    fn is_edge_weighted(&self) -> bool {
        self.graph.is_edge_weighted()
    }

    fn is_node_weighted(&self) -> bool {
        self.graph.is_node_weighted()
    }

    fn max_degree(&self) -> usize {
        self.graph.max_degree()
    }

    fn max_weighted_degree(&self) -> EdgeWeight {
        self.graph.max_weighted_degree()
    }
}

/// One level of the multilevel hierarchy.
#[derive(Debug)]
pub struct Level {
    /// The coarse graph produced at this level.
    pub coarse: CoarseGraph,
    /// Maps each vertex of the *finer* graph (the input graph for the first level) to
    /// its coarse vertex in [`Level::coarse`].
    pub mapping: Vec<NodeId>,
    /// [`Level::coarse`] decoded into a CSR graph, charged, once
    /// [`Hierarchy::coarsest`] has asked for it.
    decoded: OnceLock<(CsrGraph, MemoryScope<'static>)>,
}

impl From<ContractionResult> for Level {
    fn from(result: ContractionResult) -> Self {
        Self {
            coarse: result.coarse,
            mapping: result.mapping,
            decoded: OnceLock::new(),
        }
    }
}

/// `graph` decoded into a CSR graph in its own neighbour order, so anything that reads
/// one reads the other alike.
pub(crate) fn decode_csr(graph: &impl Graph) -> CsrGraph {
    let n = graph.n();
    let mut xadj = Vec::with_capacity(n + 1);
    let mut adjacency = Vec::with_capacity(2 * graph.m());
    let mut weights = Vec::with_capacity(2 * graph.m());
    xadj.push(0);
    for u in 0..n as NodeId {
        graph.for_each_neighbor(u, &mut |v, w| {
            adjacency.push(v);
            weights.push(w);
        });
        xadj.push(adjacency.len() as graph::EdgeId);
    }
    let node_weights = match graph.is_node_weighted() {
        true => (0..n as NodeId).map(|u| graph.node_weight(u)).collect(),
        false => Vec::new(),
    };
    CsrGraph::from_parts(xadj, adjacency, weights, node_weights)
}

/// The full coarsening hierarchy, from the first coarse graph down to the coarsest one.
#[derive(Debug, Default)]
pub struct Hierarchy {
    /// Levels in coarsening order: `levels[0]` was contracted from the input graph.
    pub levels: Vec<Level>,
}

impl Hierarchy {
    /// The coarsest graph as a CSR graph, or `None` if no coarsening step was performed:
    /// the deepest level held, decoded on the first call into a copy that is cached (and
    /// charged) with the level. For callers that need a [`CsrGraph`]; the pipeline reads
    /// every level compressed, through [`Hierarchy::deepest`].
    pub fn coarsest(&self) -> Option<&CsrGraph> {
        self.levels.last().map(|level| {
            &level
                .decoded
                .get_or_init(|| {
                    let csr = decode_csr(&level.coarse);
                    let charge = MemoryScope::charge_global(csr.size_in_bytes());
                    (csr, charge)
                })
                .0
        })
    }

    /// The graph of the deepest level the hierarchy still holds: the coarsest graph
    /// before uncoarsening pops a level, then every finer one in turn. `None` once every
    /// level is popped (or none was built): the walk has reached the input.
    pub fn deepest(&self) -> Option<&CoarseGraph> {
        self.levels.last().map(|l| &l.coarse)
    }

    /// Number of coarsening levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }
}

/// Maximum cluster weight used on a level, following the KaMinPar rule: clusters may not
/// exceed a fraction of the average block weight of the final partition, so coarse
/// vertices always fit into blocks.
pub fn max_cluster_weight(
    total_node_weight: NodeWeight,
    k: usize,
    contraction_limit: usize,
    fraction: f64,
) -> NodeWeight {
    let denominator = (contraction_limit * k).max(1) as f64;
    ((total_node_weight as f64 * fraction / denominator).ceil() as NodeWeight).max(1)
}

/// The two-hop stage runs on a level where label propagation leaves more than
/// `n / 2` clusters (KaMinPar's threshold): a level that halves is not stalling.
const TWO_HOP_DIVISOR: usize = 2;

/// Coarsening stops at a level whose clustering leaves more than this fraction of the
/// vertices as clusters: contracting it would cost a coarse graph and gain next to nothing.
pub const MIN_SHRINK_FACTOR: f64 = 0.95;

/// Coarsening stops at a node-weighted level on which fewer than this share of the
/// half-edges are contractible (`w(u) + w(v) ≤ max_cluster_weight`), decided from the
/// count label propagation takes before its first round: the level runs no round, no
/// two-hop matching and no contraction. On power-law graphs the dense core reaches the
/// weight limit after one contraction and the next levels stall (Safro, Sanders, Schulz,
/// *Advanced Coarsening Schemes*): on `weblike(15, 8)` at k = 64 levels 1 and 2 had
/// 9 % and 0.07 % of their half-edges contractible, removed 4.8 % and 3.4 % of the
/// edges, and their coarse graphs were 4.3 MB of the run's 7.55 MB peak. The
/// unit-weight input graph is never counted, so it is never given up.
pub const MIN_CONTRACTIBLE_SHARE: f64 = 0.125;

/// Runs the coarsening step ([`RunContext::coarsen`]) on `graph` with a fresh scratch
/// arena, reporting its phases to `tracker`.
pub fn coarsen(
    graph: &impl Graph,
    config: &PartitionerConfig,
    tracker: &PhaseTracker,
) -> Hierarchy {
    RunContext {
        config,
        tracker,
        scratch: &mut HierarchyScratch::new(),
    }
    .coarsen(graph)
}

/// Clusters and contracts `graph`, the graph of `level` (the input, or the deepest level
/// of the hierarchy); `None` once it is small enough, too few of its half-edges are
/// contractible or its clustering no longer shrinks it. The `contract` span carries the
/// bytes the coarse graph was reserved (`reserved_bytes`) and holds (`coarse_bytes`).
pub(crate) fn coarsen_level(
    graph: &impl Graph,
    level: usize,
    run: &mut RunContext,
) -> Option<ContractionResult> {
    let (config, tracker) = (run.config, run.tracker);
    let coarsening = &config.coarsening;
    let n = graph.n();
    if n <= (coarsening.contraction_limit * config.k).max(1) {
        return None;
    }
    let limit = max_cluster_weight(
        graph.total_node_weight(),
        config.k,
        coarsening.contraction_limit,
        coarsening.max_cluster_weight_fraction,
    );
    let seed = config.seed ^ ((level as u64 + 1) << 32);
    let obs = run.scratch.obs.clone();
    let mut level_span = obs.span_at(SpanKind::Level, "coarsen_level", level as u64);
    level_span.attr("fine_nodes", n as u64);
    let shrinks = |c: &Clustering| c.num_clusters as f64 <= MIN_SHRINK_FACTOR * n as f64;
    let min_contractible = (MIN_CONTRACTIBLE_SHARE * (2 * graph.m()) as f64).ceil() as u64;
    let scratch = &mut *run.scratch;
    let cluster = || {
        let (clustering, counted) =
            lp_clustering::cluster_level(graph, coarsening, limit, seed, min_contractible, scratch);
        let clustering = clustering.map(|mut c| {
            if c.num_clusters > n / TWO_HOP_DIVISOR {
                // Packing isolated vertices is free of cut; matching singletons that
                // merely share a neighbour is not, and waits until the level would be
                // given up.
                pack_isolated_vertices(graph, &mut c, limit);
                if !shrinks(&c) {
                    two_hop_clustering(graph, &mut c, limit);
                }
            }
            c
        });
        (clustering, counted)
    };
    // Why a level stalls is on its span: how much the weight limit left LP to contract
    // (absent where every edge is contractible without a count).
    let annotate = |(_, counted): &(Option<Clustering>, Option<(u64, usize)>),
                    span: &mut obs::SpanGuard| {
        if let Some((contractible_half_edges, movable)) = *counted {
            span.attr("contractible_half_edges", contractible_half_edges);
            span.attr("movable", movable as u64);
        }
    };
    let (clustering, _) = obs_phase_with(&obs, tracker, "cluster", level, cluster, annotate);
    let clustering = clustering.filter(shrinks)?;
    let reserved = reserved_bytes(graph, clustering.num_clusters);
    let result = obs_phase_with(
        &obs,
        tracker,
        "contract",
        level,
        || {
            contract::contract_with_scratch(
                graph,
                &clustering,
                coarsening.contraction,
                coarsening.bump_threshold,
                limit,
                run.scratch,
            )
        },
        |result, span| {
            span.attr("reserved_bytes", reserved as u64);
            span.attr("coarse_bytes", result.coarse.size_in_bytes() as u64);
        },
    );
    level_span.attr("coarse_nodes", result.coarse.n() as u64);
    level_span.attr("coarse_edges", result.coarse.m() as u64);
    drop(level_span);
    obs.add(Counter::CoarseningLevels, 1);
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen;

    #[test]
    fn max_cluster_weight_is_at_least_one() {
        assert_eq!(max_cluster_weight(10, 1000, 40, 1.0), 1);
        assert!(max_cluster_weight(1_000_000, 8, 40, 1.0) > 1);
        assert_eq!(max_cluster_weight(0, 4, 40, 1.0), 1);
    }

    #[test]
    fn coarsening_produces_a_shrinking_hierarchy() {
        let g = gen::grid2d(40, 40);
        let config = PartitionerConfig::terapart(4);
        let tracker = PhaseTracker::new();
        let hierarchy = coarsen(&g, &config, &tracker);
        assert!(
            hierarchy.depth() >= 1,
            "expected at least one coarsening level"
        );
        // Graph sizes strictly decrease along the hierarchy.
        let mut prev_n = g.n();
        for level in &hierarchy.levels {
            assert!(level.coarse.n() < prev_n);
            assert_eq!(level.coarse.total_node_weight(), g.total_node_weight());
            prev_n = level.coarse.n();
        }
        // The coarsest graph respects the contraction limit within a factor (coarsening
        // stops once it cannot shrink below it).
        let coarsest = hierarchy.coarsest().unwrap();
        assert!(coarsest.n() <= g.n() / 2);
        // Phases were recorded for clustering and contraction.
        assert!(tracker.peak_of("cluster").is_some());
        assert!(tracker.peak_of("contract").is_some());
    }

    #[test]
    fn mappings_compose_and_cover_all_vertices() {
        let g = gen::rgg2d(1500, 10, 2);
        let config = PartitionerConfig::terapart(2);
        let tracker = PhaseTracker::new();
        let hierarchy = coarsen(&g, &config, &tracker);
        assert!(hierarchy.depth() >= 1);
        // First mapping covers the input graph.
        assert_eq!(hierarchy.levels[0].mapping.len(), g.n());
        for (i, level) in hierarchy.levels.iter().enumerate() {
            let coarse_n = level.coarse.n();
            assert!(level.mapping.iter().all(|&c| (c as usize) < coarse_n));
            if i + 1 < hierarchy.levels.len() {
                assert_eq!(hierarchy.levels[i + 1].mapping.len(), coarse_n);
            }
        }
    }

    #[test]
    fn small_graphs_are_not_coarsened() {
        let g = gen::grid2d(4, 4);
        let config = PartitionerConfig::terapart(8);
        let tracker = PhaseTracker::new();
        let hierarchy = coarsen(&g, &config, &tracker);
        assert_eq!(hierarchy.depth(), 0);
        assert!(hierarchy.coarsest().is_none());
    }

    #[test]
    fn a_level_with_fewer_than_an_eighth_of_its_half_edges_contractible_is_given_up() {
        // A 64-cycle (128 half-edges) whose run of `light` consecutive vertices weighs 1
        // each and the rest 1 000 each, under a limit of ~280: only the run's `light - 1`
        // inner edges are contractible. 7 edges are 14 half-edges, below 128 / 8 = 16;
        // 8 edges are exactly an eighth, which is not fewer.
        let run = |light: usize| {
            let weights = (0..64).map(|u| if u < light { 1 } else { 1_000 }).collect();
            let mut builder = graph::CsrGraphBuilder::with_node_weights(weights);
            for u in 0..64 {
                builder.add_edge(u, (u + 1) % 64, 1);
            }
            let g = builder.build();
            let mut config = PartitionerConfig::terapart(2);
            config.coarsening.contraction_limit = 1;
            config.coarsening.max_cluster_weight_fraction = 0.01;
            let mut scratch = HierarchyScratch::new();
            let (obs, recorder) = obs::ObsHandle::recording();
            scratch.obs = obs;
            let tracker = PhaseTracker::new();
            let mut run = RunContext {
                config: &config,
                tracker: &tracker,
                scratch: &mut scratch,
            };
            let level = coarsen_level(&g, 1, &mut run);
            let rounds = recorder.metrics().get(Counter::LpClusterRounds);
            (level.map(|result| result.coarse.n()), rounds)
        };

        assert_eq!(run(8), (None, 0));
        let (coarse_n, rounds) = run(9);
        assert!(coarse_n.is_some_and(|n| n < 64), "the level was contracted");
        assert!(rounds > 0);
    }

    #[test]
    fn the_coarsest_csr_is_the_deepest_level_decoded_once() {
        let g = gen::with_random_edge_weights(&gen::rhg_like(2000, 8, 3.0, 5), 9, 2);
        let hierarchy = coarsen(&g, &PartitionerConfig::terapart(4), &PhaseTracker::new());
        let deepest = hierarchy.deepest().expect("a coarsened graph");
        let csr = hierarchy.coarsest().unwrap();
        assert!(
            std::ptr::eq(csr, hierarchy.coarsest().unwrap()),
            "decoded twice"
        );
        assert_eq!((csr.n(), csr.m()), (deepest.n(), deepest.m()));
        for u in 0..csr.n() as NodeId {
            assert_eq!(csr.node_weight(u), deepest.node_weight(u));
            assert_eq!(csr.neighbors_vec(u), deepest.neighbors_vec(u));
        }
    }

    #[test]
    fn kaminpar_and_terapart_configs_both_coarsen() {
        let g = gen::rhg_like(2000, 8, 3.0, 11);
        for config in [
            PartitionerConfig::kaminpar(4),
            PartitionerConfig::terapart(4),
        ] {
            let tracker = PhaseTracker::new();
            let hierarchy = coarsen(&g, &config, &tracker);
            assert!(
                hierarchy.depth() >= 1,
                "no coarsening for {:?}",
                config.coarsening.lp_mode
            );
            let coarsest = hierarchy.coarsest().unwrap();
            assert!(coarsest.n() < g.n());
            assert_eq!(coarsest.total_node_weight(), g.total_node_weight());
        }
    }
}
