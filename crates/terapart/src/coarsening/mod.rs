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
//! projected past it.

pub mod contract;
mod label_set;
pub mod lp_clustering;
pub mod rating_map;
pub mod two_hop;

pub use contract::{contract, contract_with_scratch, reserved_weight_width, ContractionResult};
pub use lp_clustering::{cluster, cluster_with_scratch, Clustering};
pub use two_hop::{pack_isolated_vertices, two_hop_clustering};

use graph::csr::CsrGraph;
use graph::traits::Graph;
use graph::{CompressedGraph, CompressionConfig, EdgeWeight, NodeId, NodeWeight};
use memtrack::{MemoryScope, PhaseTracker};

use obs::{Counter, SpanKind};

use crate::context::{ContractionAlgorithm, PartitionerConfig};
use crate::partitioner::{obs_phase, obs_phase_with, RunContext};
use crate::scratch::HierarchyScratch;

/// The graph of one hierarchy level, in one of two representations behind one
/// [`Graph`] type: the CSR contraction built while it is the newest level, which its
/// label propagation clustering reads, and from the moment coarsening decides to contract
/// it on the same graph re-encoded compressed (the `compress_level` phase), which
/// contraction, projection and the level's refinement read. Every level but the coarsest
/// is therefore held compressed. The graph's memory charge follows its representation
/// and is released when it drops.
#[derive(Debug)]
pub struct CoarseGraph {
    repr: Repr,
    charge: MemoryScope<'static>,
}

#[derive(Debug)]
enum Repr {
    Csr(CsrGraph),
    Compressed(CompressedGraph),
}

impl CoarseGraph {
    /// `csr` as contraction built it, charged until it drops or is compressed.
    pub(crate) fn charged(csr: CsrGraph) -> Self {
        Self {
            charge: MemoryScope::charge_global(csr.size_in_bytes()),
            repr: Repr::Csr(csr),
        }
    }

    /// The CSR graph, or `None` once the level is held compressed.
    pub fn as_csr(&self) -> Option<&CsrGraph> {
        match &self.repr {
            Repr::Csr(csr) => Some(csr),
            Repr::Compressed(_) => None,
        }
    }

    /// Re-encodes a CSR level compressed (gap encoding only), as the `compress_level`
    /// phase of `level`. The node weights move from the CSR into the compressed graph;
    /// its other bytes are charged while the CSR still is, so the phase's peak counts
    /// both graphs, then the CSR and its charge are freed. The phase's span carries
    /// `csr_bytes` and `compressed_bytes`. A level already compressed is left as it is.
    pub(crate) fn compress(&mut self, level: usize, run: &RunContext) {
        let Repr::Csr(csr) = &mut self.repr else {
            return;
        };
        let csr_bytes = csr.size_in_bytes();
        let node_weight_bytes = std::mem::size_of_val(csr.raw_node_weights());
        let (compressed, charge) = obs_phase_with(
            &run.scratch.obs,
            run.tracker,
            "compress_level",
            level,
            || {
                // A coarse level's ids are cluster ranks: runs of consecutive ids are rare,
                // and interval encoding tripled the re-encode time of `weblike(14, 8)`'s
                // level 1 to save 2.4 % of its bytes.
                let config = CompressionConfig::gap_only();
                let compressed = CompressedGraph::from_csr_taking_node_weights(csr, &config);
                let charge =
                    MemoryScope::charge_global(compressed.size_in_bytes() - node_weight_bytes);
                (compressed, charge)
            },
            |(compressed, _), span| {
                span.attr("csr_bytes", csr_bytes as u64);
                span.attr("compressed_bytes", compressed.size_in_bytes() as u64);
            },
        );
        // The CSR and its charge go; the node weights are charged with the graph that
        // now holds them.
        self.repr = Repr::Compressed(compressed);
        self.charge = charge;
        self.charge.grow(node_weight_bytes);
    }
}

impl Graph for CoarseGraph {
    fn n(&self) -> usize {
        match &self.repr {
            Repr::Csr(g) => g.n(),
            Repr::Compressed(g) => g.n(),
        }
    }

    fn m(&self) -> usize {
        match &self.repr {
            Repr::Csr(g) => g.m(),
            Repr::Compressed(g) => g.m(),
        }
    }

    fn degree(&self, u: NodeId) -> usize {
        match &self.repr {
            Repr::Csr(g) => g.degree(u),
            Repr::Compressed(g) => g.degree(u),
        }
    }

    fn node_weight(&self, u: NodeId) -> NodeWeight {
        match &self.repr {
            Repr::Csr(g) => g.node_weight(u),
            Repr::Compressed(g) => g.node_weight(u),
        }
    }

    fn total_node_weight(&self) -> NodeWeight {
        match &self.repr {
            Repr::Csr(g) => g.total_node_weight(),
            Repr::Compressed(g) => g.total_node_weight(),
        }
    }

    fn total_edge_weight(&self) -> EdgeWeight {
        match &self.repr {
            Repr::Csr(g) => g.total_edge_weight(),
            Repr::Compressed(g) => g.total_edge_weight(),
        }
    }

    fn for_each_neighbor(&self, u: NodeId, f: &mut dyn FnMut(NodeId, EdgeWeight)) {
        match &self.repr {
            Repr::Csr(g) => g.for_each_neighbor(u, f),
            Repr::Compressed(g) => g.for_each_neighbor(u, f),
        }
    }

    fn is_edge_weighted(&self) -> bool {
        match &self.repr {
            Repr::Csr(g) => g.is_edge_weighted(),
            Repr::Compressed(g) => g.is_edge_weighted(),
        }
    }

    fn is_node_weighted(&self) -> bool {
        match &self.repr {
            Repr::Csr(g) => g.is_node_weighted(),
            Repr::Compressed(g) => g.is_node_weighted(),
        }
    }

    fn max_degree(&self) -> usize {
        match &self.repr {
            Repr::Csr(g) => g.max_degree(),
            Repr::Compressed(g) => g.max_degree(),
        }
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
}

impl Level {
    /// The level `result` contracted, its coarse graph charged until the level drops.
    pub(crate) fn charged(result: ContractionResult) -> Self {
        Self {
            coarse: CoarseGraph::charged(result.coarse),
            mapping: result.mapping,
        }
    }
}

/// The full coarsening hierarchy, from the first coarse graph down to the coarsest one.
#[derive(Debug, Default)]
pub struct Hierarchy {
    /// Levels in coarsening order: `levels[0]` was contracted from the input graph.
    pub levels: Vec<Level>,
}

impl Hierarchy {
    /// Returns the coarsest graph, or `None` if no coarsening step was performed. The
    /// coarsest level is never contracted, so it is CSR; once uncoarsening has popped
    /// it, the last level held is compressed and this panics — walk the levels with
    /// [`Hierarchy::deepest`].
    pub fn coarsest(&self) -> Option<&CsrGraph> {
        self.levels.last().map(|l| {
            l.coarse
                .as_csr()
                .expect("the last level held is compressed: the coarsest one was popped")
        })
    }

    /// The graph of the deepest level the hierarchy still holds, in whichever
    /// representation it is held: the coarsest graph before uncoarsening pops a level,
    /// then every finer one in turn. `None` once every level is popped (or none was
    /// built): the walk has reached the input.
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

/// The graph a coarsening step clusters and contracts: the input, read in place, or the
/// deepest level of the hierarchy, which [`Finer::hold`] re-encodes compressed once it
/// is certain to be contracted.
pub(crate) trait Finer {
    /// The graph's representation.
    type Graph: Graph;

    /// The graph as it is held now.
    fn graph(&self) -> &Self::Graph;

    /// Called once the graph of `level` is certain to be contracted, before contraction.
    fn hold(&mut self, _level: usize, _run: &RunContext) {}
}

impl<G: Graph> Finer for &G {
    type Graph = G;

    fn graph(&self) -> &G {
        self
    }
}

impl Finer for &mut CoarseGraph {
    type Graph = CoarseGraph;

    fn graph(&self) -> &CoarseGraph {
        self
    }

    fn hold(&mut self, level: usize, run: &RunContext) {
        self.compress(level, run);
    }
}

/// Clusters and contracts one level of `finer`'s graph, the graph of `level`; `None`
/// once it is small enough, too few of its half-edges are contractible or its
/// clustering no longer shrinks it. Clustering reads the graph as it is held; once the
/// level is certain to be contracted, [`Finer::hold`] gets it (a hierarchy level is
/// re-encoded compressed there, [`CoarseGraph::compress`]), and contraction reads it as
/// it is held then.
pub(crate) fn coarsen_level(
    mut finer: impl Finer,
    level: usize,
    run: &mut RunContext,
) -> Option<ContractionResult> {
    let graph = finer.graph();
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
    let fine_m = graph.m();
    finer.hold(level, run);
    let result = obs_phase(&obs, tracker, "contract", level, || {
        contract::contract_with_scratch(
            finer.graph(),
            &clustering,
            coarsening.contraction,
            coarsening.bump_threshold,
            run.scratch,
        )
    });
    level_span.attr("coarse_nodes", result.coarse.n() as u64);
    level_span.attr("coarse_edges", result.coarse.m() as u64);
    // Edge-array slots contraction reserved against those it wrote (and kept resident):
    // one-pass reserves the upper bound 2m, buffered allocates what it has counted.
    let committed = 2 * result.coarse.m() as u64;
    let reserved = match coarsening.contraction {
        ContractionAlgorithm::OnePass => 2 * fine_m as u64,
        ContractionAlgorithm::Buffered => committed,
    };
    level_span.attr("reserved_half_edges", reserved);
    level_span.attr("committed_half_edges", committed);
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
