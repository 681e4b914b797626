//! Initial partitioning of the coarsest graph.
//!
//! KaMinPar partitions the coarsest graph with a portfolio of randomized greedy graph
//! growing heuristics refined by 2-way FM (paper §II-B), recursing to obtain `k` blocks.
//! The coarsest graph has `O(contraction_limit · k)` vertices, so the stage is cheap in
//! memory — but it sits on the critical path, so this implementation treats it the way
//! the paper treats every other phase: **task-parallel** and **allocation-free**.
//! It reads any [`Graph`] representation: when nothing coarsens, the coarsest graph is
//! the input itself, compressed or paged, and is read in place.
//!
//! * The two child recursions of each bisection and the independent portfolio attempts
//!   run in parallel via [`rayon::join`], with the thread budget split between branches.
//! * The whole bisection tree works on **one** vertex permutation
//!   (`InitialPartitioningScratch::tree_vertices`): each bisection stably partitions its
//!   slice in place and recurses on the two disjoint subslices, so no per-node vertex
//!   lists are ever allocated.
//! * Induced subgraphs are extracted into pooled raw-CSR buffers through an
//!   epoch-tagged membership map (see [`scratch`]).
//! * Results are **bit-identical for a fixed seed at any thread count**: every subtree
//!   derives its RNG stream from the root seed and its path in the bisection tree,
//!   every attempt from the subtree seed and its attempt index, and the portfolio
//!   winner is selected by a total order (`balanced`, `cut`, attempt index`) that does
//!   not depend on completion order.
//!
//! **The portfolio's budget is counted in half-edges**, the unit the 2-way FM's
//! [`bipartition::PATIENCE`] counts in. A bisection runs all `attempts` on a subgraph of
//! up to [`PORTFOLIO_HALF_EDGES`] (2¹⁵) half-edges and proportionally fewer on a larger
//! one, at least one ([`portfolio_attempts`]). KaMinPar's coarsest graph is small enough
//! that the budget never binds; a power-law core that stalls coarsening is not. On
//! `weblike(15, 8)` at k = 64 the coarsest graph keeps ~190 k half-edges, and the
//! root-level attempts (growing over half of it, FM over a boundary of nearly every
//! vertex) finish within a fraction of a percent of each other. There the budget removes
//! 9 of 252 attempts, all near the root, which is a third of the initial-partitioning
//! time; no family's cut got worse by more than 0.2 % (16 seeds). Mesh coarsest graphs
//! at k = 8–16 have 2–9 k half-edges, so their bisections are unchanged; meshes meet the
//! budget only at large k.

pub mod bipartition;
pub mod scratch;

use graph::traits::Graph;
use graph::{EdgeWeight, NodeId, NodeWeight};

use crate::context::InitialPartitioningConfig;
use crate::partition::{BlockId, Partition};
use crate::scratch::{HierarchyScratch, Lease, SharedSlice};

pub use bipartition::{Bipartition, FmWork};

use bipartition::{bipartition_into, cut_of};
use scratch::{AttemptWorkspace, InitialPartitioningScratch, SubgraphView};

/// Computes an initial `k`-way partition of `graph` via recursive bisection, using a
/// throwaway scratch arena. Prefer [`initial_partition_with_scratch`] inside the
/// multilevel pipeline.
pub fn initial_partition(
    graph: &impl Graph,
    k: usize,
    epsilon: f64,
    config: &InitialPartitioningConfig,
    seed: u64,
) -> Partition {
    let mut scratch = HierarchyScratch::new();
    initial_partition_with_scratch(graph, k, epsilon, config, seed, &mut scratch)
}

/// Computes an initial `k`-way partition of `graph` via parallel recursive bisection,
/// reusing the initial-partitioning region of `scratch` across the whole bisection tree.
pub fn initial_partition_with_scratch(
    graph: &impl Graph,
    k: usize,
    epsilon: f64,
    config: &InitialPartitioningConfig,
    seed: u64,
    scratch: &mut HierarchyScratch,
) -> Partition {
    assert!(k >= 1);
    let n = graph.n();
    let mut assignment: Vec<BlockId> = vec![0; n];
    if k > 1 && n > 0 {
        scratch.initial.ensure(n);
        // The tree permutation is partitioned in place; take it out of the scratch so
        // the recursion can hold `&mut` slices of it alongside `&scratch.initial`.
        let mut vertices = std::mem::take(&mut scratch.initial.tree_vertices);
        vertices.clear();
        vertices.extend(0..n as NodeId);
        let tree = BisectionTree {
            graph,
            config,
            assignment: SharedSlice::new(&mut assignment),
            scratch: &scratch.initial,
            obs: &scratch.obs,
        };
        let lmax = Partition::compute_max_block_weight(graph.total_node_weight(), k, epsilon);
        tree.recurse(&mut vertices, 0, k, lmax, seed);
        scratch.initial.tree_vertices = vertices;
        // The pooled workspaces have no user past this point; free them so the standing
        // footprint through uncoarsening stays node-indexed (see `release_pools`).
        scratch.initial.release_pools();
    }
    // Recursive bisection has no deltas to offer: this is the one full count of a
    // request. Every later stage moves the cut by its gains or recounts it over the
    // boundary. The boundary itself stays unknown; the first refinement round on this
    // graph is a full sweep anyway and leaves an exact one behind.
    let mut partition = Partition::from_assignment(graph, k, epsilon, assignment);
    partition.set_tracked_cut(partition.edge_cut_on(graph));
    partition
}

/// Minimum subgraph size (in vertices) for running the two child recursions of a
/// bisection, and its independent portfolio attempts, as parallel tasks (the rayon shim's
/// `join`); smaller bisections run sequentially on the current thread, since task-spawn
/// overhead would dwarf the work. Has no effect on results: every subtree's RNG stream is
/// derived from the seed path rather than from scheduling, so a fixed seed gives a
/// bit-identical partition at any thread count.
const PARALLEL_GRAIN: usize = 1024;

/// Whether a task over `len` vertices is worth a parallel fork.
fn should_fork(len: usize) -> bool {
    len >= PARALLEL_GRAIN && rayon::current_num_threads() > 1
}

/// The half-edges one bisection's portfolio may spend `attempts` on in full: a subgraph of
/// `m_sub` half-edges beyond it runs `⌈attempts · PORTFOLIO_HALF_EDGES / m_sub⌉` attempts
/// (at least one; see [`portfolio_attempts`]), since an attempt's cost follows `m_sub`.
/// A constant, not a setting: every mesh coarsest graph at k = 8–16 is below it, so their
/// cuts are those of the full portfolio.
pub const PORTFOLIO_HALF_EDGES: usize = 1 << 15;

/// How many of `attempts` portfolio attempts a bisection of a subgraph with `m_sub`
/// half-edges runs: all of them up to [`PORTFOLIO_HALF_EDGES`], proportionally fewer
/// beyond, never none. A function of the subgraph alone, so results stay bit-identical at
/// any thread count.
pub fn portfolio_attempts(attempts: usize, m_sub: usize) -> usize {
    let attempts = attempts.max(1);
    if m_sub <= PORTFOLIO_HALF_EDGES {
        attempts
    } else {
        (attempts * PORTFOLIO_HALF_EDGES).div_ceil(m_sub)
    }
}

/// What every node of one request's bisection tree shares.
struct BisectionTree<'a, G: Graph> {
    graph: &'a G,
    config: &'a InitialPartitioningConfig,
    assignment: SharedSlice<'a, BlockId>,
    scratch: &'a InitialPartitioningScratch,
    /// Counter sums are scheduling-independent, so any task of the tree may bump them.
    obs: &'a obs::ObsHandle,
}

impl<G: Graph> BisectionTree<'_, G> {
    /// Recursively bisects the subgraph induced by the `vertices` slice into blocks
    /// `[first_block, first_block + k)`, writing the result through `assignment`.
    ///
    /// The slice is stably partitioned in place by the chosen bipartition, so the two
    /// child recursions operate on disjoint subslices (and disjoint `assignment`
    /// indices), which is what makes the parallel fork sound.
    ///
    /// `lmax` is the block-weight limit of the whole request, handed down as an argument
    /// because it belongs to the request: sessions with different `k` run concurrently.
    fn recurse(
        &self,
        vertices: &mut [NodeId],
        first_block: usize,
        k: usize,
        lmax: NodeWeight,
        seed: u64,
    ) {
        if k == 1 || vertices.is_empty() {
            for &u in vertices.iter() {
                // SAFETY: sibling recursions hold disjoint vertex sets, so each index is
                // written by exactly one task.
                unsafe { self.assignment.write(u as usize, first_block as BlockId) };
            }
            return;
        }
        let scratch = self.scratch;
        let mut ws = scratch.bisections.checkout();
        ws.extract(self.graph, vertices, scratch);
        let total = ws.total_node_weight;
        let k0 = k.div_ceil(2);
        let k1 = k - k0;
        // What `lmax` leaves over the perfectly balanced split is shared out evenly among
        // the ⌈log₂ k⌉ bisection levels still to come (all of it at k = 2), so the slack
        // of the levels multiplies up to the request's ε instead of compounding beyond
        // it. A side of kᵢ blocks never gets more than `kᵢ · lmax`, nor less than its share.
        let levels = k.next_power_of_two().trailing_zeros() as f64;
        let slack = 1.0 + (lmax as f64 * k as f64 / total as f64 - 1.0).max(0.0) / levels;
        let side_max = |ki: usize| {
            let share = total as f64 * ki as f64 / k as f64;
            let relaxed = ((share * slack).ceil() as NodeWeight).min(lmax * ki as NodeWeight);
            relaxed.max(share.ceil() as NodeWeight).max(1)
        };
        let portfolio = Portfolio {
            sub: &ws.view(),
            target0: (total as f64 * k0 as f64 / k as f64).round() as NodeWeight,
            max_weight: [side_max(k0), side_max(k1)],
            config: self.config,
            seed,
            scratch,
            obs: self.obs,
        };
        let attempts = portfolio_attempts(self.config.attempts, ws.adjacency.len());
        let (_, best) = portfolio.run(0, attempts);
        self.obs.add(obs::Counter::InitialBisections, 1);

        // Stable in-place partition of the slice: side-0 vertices first, side-1 after,
        // relative order preserved on both sides (keeps the slices ascending, which the
        // subgraph extraction relies on).
        ws.right_tmp.clear();
        let mut write = 0usize;
        for local in 0..vertices.len() {
            let u = vertices[local];
            if best.part.side[local] {
                ws.right_tmp.push(u);
            } else {
                vertices[write] = u;
                write += 1;
            }
        }
        vertices[write..].copy_from_slice(&ws.right_tmp);
        // Parked before the recursion, so the children lease these two again.
        drop(best);
        drop(ws);

        let (left, right) = vertices.split_at_mut(write);
        let seed0 = seed.wrapping_mul(31).wrapping_add(1);
        let seed1 = seed.wrapping_mul(31).wrapping_add(2);
        if should_fork(left.len().min(right.len())) {
            rayon::join(
                || self.recurse(left, first_block, k0, lmax, seed0),
                || self.recurse(right, first_block + k0, k1, lmax, seed1),
            );
        } else {
            self.recurse(left, first_block, k0, lmax, seed0);
            self.recurse(right, first_block + k0, k1, lmax, seed1);
        }
    }
}

/// Portfolio-selection key: balanced results beat imbalanced ones, then lower cut wins,
/// then the lower attempt index — a total order, so the winner is independent of the
/// order in which parallel attempts complete.
type AttemptKey = (bool, EdgeWeight, usize);

/// The portfolio of one bisection: the subgraph and what all attempts on it share. The
/// winner's lease borrows the pool (`'s`), not the subgraph.
struct Portfolio<'a, 's> {
    sub: &'a SubgraphView<'a>,
    target0: NodeWeight,
    max_weight: [NodeWeight; 2],
    config: &'a InitialPartitioningConfig,
    seed: u64,
    scratch: &'s InitialPartitioningScratch,
    obs: &'a obs::ObsHandle,
}

impl<'s> Portfolio<'_, 's> {
    /// Runs attempts `[begin, end)`, forking the range in half while the subgraph is
    /// large enough, and returns the winner by [`AttemptKey`] in its workspace (the best
    /// balanced result or, failing that, the result with the lowest cut).
    fn run(&self, begin: usize, end: usize) -> (AttemptKey, Lease<'s, AttemptWorkspace>) {
        let (sub, max_weight, scratch) = (self.sub, self.max_weight, self.scratch);
        if end - begin > 1 && should_fork(sub.n()) {
            let mid = begin + (end - begin) / 2;
            let (a, b) = rayon::join(|| self.run(begin, mid), || self.run(mid, end));
            return if a.0 <= b.0 { a } else { b };
        }
        let mut best: Option<(AttemptKey, Lease<'s, AttemptWorkspace>)> = None;
        let mut ws = scratch.attempts.checkout();
        for attempt in begin..end {
            let attempt_seed = self.seed ^ (attempt as u64).wrapping_mul(0x9E37_79B9);
            bipartition_into(
                sub,
                self.target0,
                max_weight,
                self.config.fm_passes,
                attempt_seed,
                &mut ws,
            );
            debug_assert_eq!(ws.part.cut, cut_of(sub, &ws.part.side));
            for (counter, value) in [
                (obs::Counter::InitialGrowHalfEdges, ws.grow_half_edges),
                (obs::Counter::InitialFmPasses, ws.fm.passes),
                (obs::Counter::InitialFmMovesTried, ws.fm.moves_tried),
                (obs::Counter::InitialFmMovesKept, ws.fm.moves_kept),
                (obs::Counter::InitialFmHalfEdges, ws.fm.half_edges),
            ] {
                self.obs.add(counter, value);
            }
            let [weight0, weight1] = ws.part.weights;
            let balanced = weight0 <= max_weight[0] && weight1 <= max_weight[1];
            let key: AttemptKey = (!balanced, ws.part.cut, attempt);
            match &best {
                Some((best_key, _)) if *best_key <= key => {} // keep the incumbent
                _ => {
                    // The candidate wins: swap it in and reuse the loser as the next buffer.
                    let loser = match best.take() {
                        Some((_, prev)) => prev,
                        None => scratch.attempts.checkout(),
                    };
                    best = Some((key, std::mem::replace(&mut ws, loser)));
                }
            }
        }
        let attempts = (end - begin) as u64;
        self.obs.add(obs::Counter::InitialAttempts, attempts);
        best.expect("at least one bisection attempt")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::csr::CsrGraph;
    use graph::gen;
    use proptest::prelude::*;

    /// Extracts the subgraph induced by `vertices` (renumbered to `0..vertices.len()`)
    /// through the validating builder path: the reference the scratch-backed extraction
    /// ([`scratch::BisectionWorkspace`]) is tested against.
    pub(crate) fn induced_subgraph(graph: &CsrGraph, vertices: &[NodeId]) -> CsrGraph {
        let mut local_of = vec![NodeId::MAX; graph.n()];
        for (local, &u) in vertices.iter().enumerate() {
            local_of[u as usize] = local as NodeId;
        }
        let node_weights = vertices.iter().map(|&u| graph.node_weight(u)).collect();
        let mut builder = graph::CsrGraphBuilder::with_node_weights(node_weights);
        for (local, &u) in vertices.iter().enumerate() {
            graph.for_each_neighbor(u, &mut |v, w| {
                let lv = local_of[v as usize];
                if lv != NodeId::MAX && (local as NodeId) < lv {
                    builder.add_edge(local as NodeId, lv, w);
                }
            });
        }
        builder.build()
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = gen::grid2d(4, 4);
        let vertices: Vec<NodeId> = vec![0, 1, 2, 3]; // the first row
        let sub = induced_subgraph(&g, &vertices);
        assert_eq!(sub.n(), 4);
        assert_eq!(sub.m(), 3); // a path along the row
        assert_eq!(sub.total_node_weight(), 4);
    }

    #[test]
    fn initial_partition_is_complete_and_balanced() {
        let config = InitialPartitioningConfig::default();
        for (g, ks) in [
            (gen::grid2d(12, 12), &[2, 3, 4, 7, 8][..]),
            (gen::weblike(12, 8, 3), &[16, 64][..]),
        ] {
            let heaviest_node = (0..g.n() as NodeId).map(|u| g.node_weight(u)).max();
            for &k in ks {
                let p = initial_partition(&g, k, 0.05, &config, 1);
                assert_eq!(p.k(), k);
                assert!(p.is_complete());
                assert_eq!(
                    p.block_weights().iter().sum::<NodeWeight>(),
                    g.total_node_weight()
                );
                // The slack of the bisection levels must not compound: growing may
                // overshoot a limit by its last vertex, and that is all.
                let heaviest_block = p.block_weights().iter().max().copied().unwrap();
                assert!(
                    heaviest_block <= p.max_block_weight() + heaviest_node.unwrap(),
                    "k = {k}: block weights {:?} against a limit of {}",
                    p.block_weights(),
                    p.max_block_weight()
                );
                assert!(p.edge_cut_on(&g) > 0);
            }
        }
    }

    #[test]
    fn k_equals_one_puts_everything_in_one_block() {
        let g = gen::path(10);
        let p = initial_partition(&g, 1, 0.03, &InitialPartitioningConfig::default(), 3);
        assert!(p.assignment().iter().all(|&b| b == 0));
        assert_eq!(p.edge_cut_on(&g), 0);
    }

    #[test]
    fn clique_chain_is_cut_at_the_bridges() {
        // Four cliques of 8 vertices, k = 4: the ideal partition cuts the 3 bridges.
        let g = gen::clique_chain(4, 8);
        let p = initial_partition(
            &g,
            4,
            0.10,
            &InitialPartitioningConfig {
                attempts: 8,
                fm_passes: 4,
            },
            5,
        );
        let cut = p.edge_cut_on(&g);
        assert!(cut <= 12, "cut {} far from the optimum of 3", cut);
        assert!(p.imbalance() < 0.2);
    }

    #[test]
    fn weighted_graphs_are_balanced_by_weight() {
        let g = gen::with_random_node_weights(&gen::grid2d(10, 10), 5, 9);
        let p = initial_partition(&g, 4, 0.1, &InitialPartitioningConfig::default(), 2);
        assert!(p.is_complete());
        let max = p.block_weights().iter().max().copied().unwrap();
        let avg = g.total_node_weight() / 4;
        assert!(
            max as f64 <= 1.5 * avg as f64,
            "max block {} vs avg {}",
            max,
            avg
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = gen::erdos_renyi(200, 800, 3);
        let config = InitialPartitioningConfig::default();
        let a = initial_partition(&g, 6, 0.03, &config, 42);
        let b = initial_partition(&g, 6, 0.03, &config, 42);
        assert_eq!(a.assignment(), b.assignment());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // The tentpole guarantee: the parallel portfolio/recursion produces the same
        // assignment at every thread count, because RNG streams derive from the seed
        // path and the portfolio winner is selected by a total order. The instance is
        // large enough that the root's children and their portfolios fork too.
        let g = gen::rgg2d(8_000, 10, 13);
        assert!(g.n() / 4 >= PARALLEL_GRAIN);
        let config = InitialPartitioningConfig::default();
        let reference = {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .unwrap();
            pool.install(|| initial_partition(&g, 8, 0.03, &config, 99))
        };
        for threads in [2, 3, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let p = pool.install(|| initial_partition(&g, 8, 0.03, &config, 99));
            assert_eq!(
                p.assignment(),
                reference.assignment(),
                "assignment diverged at {} threads",
                threads
            );
        }
    }

    #[test]
    fn the_portfolio_budget_runs_every_attempt_up_to_its_half_edges_and_never_none() {
        for attempts in [1, 4, 8] {
            for m_sub in [0, PORTFOLIO_HALF_EDGES] {
                assert_eq!(portfolio_attempts(attempts, m_sub), attempts);
            }
            let just_over = portfolio_attempts(attempts, PORTFOLIO_HALF_EDGES + 1);
            assert_eq!(just_over, attempts, "⌈a · 2¹⁵ / (2¹⁵ + 1)⌉ is still a");
            assert_eq!(
                portfolio_attempts(attempts, 2 * PORTFOLIO_HALF_EDGES),
                attempts.div_ceil(2)
            );
            assert_eq!(portfolio_attempts(attempts, 1 << 20), 1);
        }
        assert_eq!(
            portfolio_attempts(0, 0),
            1,
            "a config of 0 attempts runs one"
        );
        assert_eq!(portfolio_attempts(0, 1 << 20), 1);
    }

    #[test]
    fn deterministic_across_thread_counts_where_the_budget_binds() {
        // The root bisection of weblike(13, 8) runs fewer than the configured attempts:
        // the budget must not depend on the schedule either.
        let g = gen::weblike(13, 8, 3);
        assert!(g.n() / 4 >= PARALLEL_GRAIN);
        let config = InitialPartitioningConfig::default();
        assert!(portfolio_attempts(config.attempts, 2 * g.m()) < config.attempts);
        let run = |threads| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| initial_partition(&g, 8, 0.03, &config, 7))
        };
        let reference = run(1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(
                run(threads).assignment(),
                reference.assignment(),
                "assignment diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn scratch_reuse_across_runs_is_deterministic() {
        // One arena serving several runs must not leak state between them.
        let g = gen::erdos_renyi(500, 2_500, 7);
        let config = InitialPartitioningConfig::default();
        let mut scratch = HierarchyScratch::new();
        let a = initial_partition_with_scratch(&g, 6, 0.03, &config, 11, &mut scratch);
        let b = initial_partition_with_scratch(&g, 6, 0.03, &config, 11, &mut scratch);
        assert_eq!(a.assignment(), b.assignment());
        // And a different k through the same arena still works.
        let c = initial_partition_with_scratch(&g, 3, 0.05, &config, 12, &mut scratch);
        assert!(c.is_complete());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_scratch_extraction_matches_builder_path(
            n in 8usize..120,
            extra_edges in 0usize..300,
            keep_modulus in 2u32..5,
            graph_seed in 0u64..1_000,
        ) {
            let g = gen::erdos_renyi(n, n + extra_edges, graph_seed);
            let vertices: Vec<NodeId> = (0..g.n() as NodeId)
                .filter(|u| u % NodeId::from(keep_modulus) != 0)
                .collect();
            let reference = induced_subgraph(&g, &vertices);
            let mut ip = InitialPartitioningScratch::default();
            ip.ensure(g.n());
            let mut ws = ip.bisections.checkout();
            ws.extract(&g, &vertices, &ip);
            let view = ws.view();
            prop_assert_eq!(view.n(), reference.n());
            prop_assert_eq!(view.m(), reference.m());
            prop_assert_eq!(view.total_node_weight(), reference.total_node_weight());
            prop_assert_eq!(view.total_edge_weight(), reference.total_edge_weight());
            for u in 0..reference.n() as NodeId {
                prop_assert_eq!(view.neighbors_vec(u), reference.neighbors_vec(u));
                prop_assert_eq!(view.node_weight(u), reference.node_weight(u));
                prop_assert_eq!(view.degree(u), reference.degree(u));
            }
        }
    }

    // Compile-time check that the Bipartition re-export stays public API.
    #[allow(dead_code)]
    fn bipartition_type_is_reexported(b: Bipartition) -> Vec<bool> {
        b.side
    }
}
