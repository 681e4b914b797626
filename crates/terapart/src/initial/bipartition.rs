//! 2-way initial partitioning: greedy graph growing plus 2-way FM refinement, the two
//! routines of the bisection portfolio (paper §II-B). Each runs on one (sub)graph of the
//! coarsest level; [`super`] invokes them with different seeds and keeps the best result.
//!
//! All state lives in an [`AttemptWorkspace`] checked out from the scratch pool, so
//! repeated attempts are allocation-free: the `*_into` functions are the hot path, and the
//! plain wrappers ([`greedy_graph_growing`], [`bipartition`]) exist for tests and
//! standalone use.
//!
//! An attempt's cost follows the vertices it moves. It starts with everything in block 1,
//! where every gain is known without looking at an edge, and from there growing, FM and
//! FM's rollback all change sides through `TwoWay::flip`, which keeps gains, cut and
//! weights exact: nothing is swept or recounted, within a pass or between passes. A pass
//! queues only boundary vertices and stops once the moves since its last new best prefix
//! have touched [`PATIENCE`] half-edges. Both routines share one addressable queue
//! (`AddressableMaxHeap`): a vertex is in it at most once and its key changes in place, so
//! the workspace is `O(n)`.
//!
//! The stop rule counts half-edges because that is what a move costs: a flip decodes the
//! moved vertex's neighbourhood and its rollback decodes it again. FM pops the highest
//! gains first, and on a skewed-degree graph those are hubs, so a rule that counts moves
//! lets a pass spend `moves · deg(hub)` on a suffix it then rolls back (on `weblike(15, 8)`,
//! k = 64, 23 369 of 26 346 tried moves under the old 200-move rule). Measured for the
//! issue that introduced this rule, not taken: Osipov–Sanders' adaptive stop (*n-Level
//! Graph Partitioning*, α = 1, β = ln n) cuts the FM time on `weblike(15)` by 76 % but
//! costs +4.2 % cut on `rgg2d(60 000, 8)` and +8 % on `grid3d(20³)`; the fixed budget
//! leaves the mesh cuts where they were.

use graph::traits::Graph;
use graph::{EdgeWeight, NodeId, NodeWeight};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use super::scratch::AttemptWorkspace;

/// A pass ends once the moves made since its last new best prefix have touched this many
/// half-edges (the summed degree of the moved vertices): 200 moves at the degree 8 of the
/// meshes the move-count rule it replaces was tuned on. A constant, not a setting: the
/// mesh golden cuts are bit-identical to that rule's, and on `weblike(15, 8)`, k = 64, the
/// passes try 16 853 moves instead of 26 346 for cuts within ±0.3 % (16 seeds).
pub const PATIENCE: u64 = 1_600;

/// What the 2-way FM passes of one attempt did: the work (`moves_tried`, `half_edges`)
/// against what survived the rollbacks (`moves_kept`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FmWork {
    /// FM passes run.
    pub passes: u64,
    /// Moves applied during the passes, including those rolled back afterwards.
    pub moves_tried: u64,
    /// Moves inside a pass's best prefix.
    pub moves_kept: u64,
    /// Half-edges the passes' flips decoded: the degree of every moved vertex, and once
    /// more for every move rolled back.
    pub half_edges: u64,
}

/// A bipartition represented as a boolean per vertex (`true` = block 1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bipartition {
    /// Side of each vertex.
    pub side: Vec<bool>,
    /// Total node weight on side 0.
    pub weight0: NodeWeight,
    /// Total node weight on side 1.
    pub weight1: NodeWeight,
    /// Half-edges greedy growing decoded: the degree of every vertex it grew into block 0.
    pub grow_half_edges: u64,
    /// What the FM passes that produced it did (zero if none ran).
    pub fm: FmWork,
}

impl Bipartition {
    /// Computes the edge cut of the bipartition on `graph`.
    pub fn cut(&self, graph: &impl Graph) -> EdgeWeight {
        cut_of(graph, &self.side)
    }

    fn take_from(ws: &mut AttemptWorkspace) -> Self {
        Self {
            side: std::mem::take(&mut ws.part.side),
            weight0: ws.part.weights[0],
            weight1: ws.part.weights[1],
            grow_half_edges: ws.grow_half_edges,
            fm: ws.fm,
        }
    }
}

/// Edge cut of the side assignment on `graph` (each undirected edge counted once). The
/// attempts track their cut; this recount is the oracle they are checked against.
pub(crate) fn cut_of(graph: &impl Graph, side: &[bool]) -> EdgeWeight {
    let mut cut = 0;
    for u in 0..graph.n() as NodeId {
        graph.for_each_neighbor(u, &mut |v, w| {
            if u < v && side[u as usize] != side[v as usize] {
                cut += w;
            }
        });
    }
    cut
}

/// A side per vertex (`true` = block 1) together with what growing and FM need to know
/// about it, all of it exact after every [`TwoWay::flip`].
#[derive(Debug, Default)]
pub(crate) struct TwoWay {
    pub(crate) side: Vec<bool>,
    /// Total node weight of the two sides.
    pub(crate) weights: [NodeWeight; 2],
    pub(crate) cut: EdgeWeight,
    /// Per vertex: incident weight towards the other side minus towards its own, i.e.
    /// by how much moving it would lower the cut.
    pub(crate) gains: Vec<i64>,
}

impl TwoWay {
    /// Puts every vertex into block 1: nothing is cut and every gain is minus the
    /// weighted degree, so this reads no edge where `weighted_degree` is a lookup (as it
    /// is on the subgraph view).
    pub(crate) fn reset(&mut self, graph: &impl Graph) {
        let n = graph.n();
        self.side.clear();
        self.side.resize(n, true);
        self.weights = [0, graph.total_node_weight()];
        self.cut = 0;
        self.gains.clear();
        let start_gain = |u| -(graph.weighted_degree(u) as i64);
        self.gains.extend((0..n as NodeId).map(start_gain));
    }

    /// Moves `u` to the other side. An edge to `u` was internal for neighbours on its old
    /// side (now external: their gain rises by `2w`) and external for neighbours on its
    /// new side (now internal: `-2w`); `changed(v, gain, delta)` sees every neighbour with
    /// its new gain and that difference. Rolling a move back is the same operation.
    pub(crate) fn flip(
        &mut self,
        graph: &impl Graph,
        u: NodeId,
        mut changed: impl FnMut(NodeId, i64, i64),
    ) {
        let (to, weight) = (!self.side[u as usize], graph.node_weight(u));
        self.side[u as usize] = to;
        self.weights[!to as usize] -= weight;
        self.weights[to as usize] += weight;
        self.cut = (self.cut as i64 - self.gains[u as usize]) as EdgeWeight;
        self.gains[u as usize] = -self.gains[u as usize];
        graph.for_each_neighbor(u, &mut |v, w| {
            let delta = 2 * w as i64;
            let delta = if self.side[v as usize] == to {
                -delta
            } else {
                delta
            };
            self.gains[v as usize] += delta;
            changed(v, self.gains[v as usize], delta);
        });
    }
}

/// Grows block 0 greedily from a random seed vertex until it reaches `target_weight0`;
/// the remaining vertices form block 1. The result is left in `ws.part`.
///
/// Frontier vertices are picked by the strength of their connection to the growing block:
/// the key of a frontier vertex is (twice) the summed weight of its edges into block 0.
/// Disconnected graphs are handled by restarting from a fresh random unassigned vertex
/// whenever the frontier runs dry.
pub(crate) fn greedy_graph_growing_into(
    graph: &impl Graph,
    target_weight0: NodeWeight,
    seed: u64,
    ws: &mut AttemptWorkspace,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    ws.reset(graph);
    ws.order.clear();
    ws.order.extend(0..graph.n() as NodeId);
    ws.order.shuffle(&mut rng);
    let mut restarts = ws.order.iter();

    while ws.part.weights[0] < target_weight0 {
        let u = match ws.queue.pop() {
            Some((_, u)) => u,
            // Frontier exhausted: restart from an arbitrary unassigned vertex.
            None => match restarts.find(|&&u| ws.part.side[u as usize]) {
                Some(&u) => u,
                None => break, // every vertex assigned
            },
        };
        let queue = &mut ws.queue;
        ws.part.flip(graph, u, |v, _, delta| {
            // The edge became external, so `v` is in block 1: on the frontier.
            if delta > 0 {
                queue.push_or_update(v, queue.key(v).unwrap_or(0) + delta);
            }
        });
        ws.grow_half_edges += graph.degree(u) as u64;
    }
}

/// One pass of 2-way FM refinement with rollback to the best observed prefix, operating
/// in place on `ws.part`.
///
/// Beyond `O(n)` to find the boundary (`gain > -weighted degree`) the cost is one
/// neighbourhood per move and one per rolled-back move, and the rolled-back moves have
/// fewer than [`PATIENCE`] half-edges plus the last one's degree between them.
///
/// Returns the cut improvement achieved by the pass (0 if no improvement was possible;
/// the bipartition is then left exactly as it was).
pub(crate) fn fm_pass_into(
    graph: &impl Graph,
    max_weight: [NodeWeight; 2],
    ws: &mut AttemptWorkspace,
) -> EdgeWeight {
    let AttemptWorkspace {
        part,
        queue,
        locked,
        moves,
        ..
    } = ws;
    let boundary = (0..graph.n() as NodeId)
        .map(|u| (part.gains[u as usize], u))
        .filter(|&(gain, u)| gain > -(graph.weighted_degree(u) as i64));
    queue.heapify(graph.n(), boundary);

    let start_cut = part.cut;
    let (mut best_cut, mut best_prefix) = (start_cut, 0usize);
    // Half-edges of all moves so far, and of those past the best prefix.
    let (mut flipped, mut since_best) = (0u64, 0u64);
    moves.clear();
    while let Some((_, u)) = queue.pop() {
        let to = !part.side[u as usize] as usize;
        if part.weights[to] + graph.node_weight(u) > max_weight[to] {
            continue; // comes back into the queue if a neighbour's move changes its gain
        }
        locked[u as usize] = true;
        moves.push(u);
        part.flip(graph, u, |v, gain, _| {
            if !locked[v as usize] {
                queue.push_or_update(v, gain);
            }
        });
        let degree = graph.degree(u) as u64;
        flipped += degree;
        if part.cut < best_cut {
            (best_cut, best_prefix, since_best) = (part.cut, moves.len(), 0);
        } else {
            since_best += degree;
            if since_best >= PATIENCE {
                break;
            }
        }
    }

    // Roll back to the best prefix (all the way to the start if nothing improved).
    for &u in moves[best_prefix..].iter().rev() {
        part.flip(graph, u, |_, _, _| {});
    }
    for &u in moves.iter() {
        locked[u as usize] = false;
    }
    ws.fm.passes += 1;
    ws.fm.moves_tried += moves.len() as u64;
    ws.fm.moves_kept += best_prefix as u64;
    // The rollback above decoded the suffix a second time.
    ws.fm.half_edges += flipped + since_best;
    start_cut - best_cut
}

/// Produces a refined bipartition in `ws`: greedy growing followed by up to `fm_passes`
/// FM passes (stopping early once a pass yields no improvement).
pub(crate) fn bipartition_into(
    graph: &impl Graph,
    target_weight0: NodeWeight,
    max_weight: [NodeWeight; 2],
    fm_passes: usize,
    seed: u64,
    ws: &mut AttemptWorkspace,
) {
    greedy_graph_growing_into(graph, target_weight0, seed, ws);
    for _ in 0..fm_passes {
        if fm_pass_into(graph, max_weight, ws) == 0 {
            break;
        }
    }
}

/// Standalone wrapper over `greedy_graph_growing_into` with a fresh workspace.
pub fn greedy_graph_growing(
    graph: &impl Graph,
    target_weight0: NodeWeight,
    seed: u64,
) -> Bipartition {
    let mut ws = AttemptWorkspace::default();
    greedy_graph_growing_into(graph, target_weight0, seed, &mut ws);
    Bipartition::take_from(&mut ws)
}

/// Standalone wrapper over `bipartition_into` with a fresh workspace.
pub fn bipartition(
    graph: &impl Graph,
    target_weight0: NodeWeight,
    max_weight: [NodeWeight; 2],
    fm_passes: usize,
    seed: u64,
) -> Bipartition {
    let mut ws = AttemptWorkspace::default();
    bipartition_into(graph, target_weight0, max_weight, fm_passes, seed, &mut ws);
    Bipartition::take_from(&mut ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen;
    use proptest::prelude::*;

    #[test]
    fn growing_hits_the_target_weight() {
        let g = gen::grid2d(10, 10);
        let b = greedy_graph_growing(&g, 50, 3);
        assert!(b.weight0 >= 50);
        assert!(b.weight0 <= 55, "block 0 overshoots: {}", b.weight0);
        assert_eq!(b.weight0 + b.weight1, 100);
        assert_eq!(b.side.iter().filter(|&&s| !s).count() as u64, b.weight0);
    }

    #[test]
    fn growing_handles_disconnected_graphs() {
        // Two disjoint cliques: growing must restart to fill the target.
        let g = gen::clique_chain(2, 10);
        // Remove the bridge by building the graph manually.
        let mut builder = graph::CsrGraphBuilder::new(20);
        for c in 0..2 {
            for i in 0..10 {
                for j in (i + 1)..10 {
                    builder.add_edge((c * 10 + i) as NodeId, (c * 10 + j) as NodeId, 1);
                }
            }
        }
        let disconnected = builder.build();
        let b = greedy_graph_growing(&disconnected, 15, 1);
        assert!(b.weight0 >= 15);
        assert!(g.n() == 20);
    }

    #[test]
    fn growing_keys_the_frontier_by_the_whole_connection() {
        // Keyed by the heaviest single edge (every edge weighs 1 here) the frontier is
        // popped in id order and the block grows ragged: mean cut 226.6 over these seeds.
        let g = gen::rgg2d(2_000, 8, 5);
        let cuts =
            (0..16).map(|seed| greedy_graph_growing(&g, g.total_node_weight() / 2, seed).cut(&g));
        let mean = cuts.sum::<EdgeWeight>() as f64 / 16.0;
        assert!(mean <= 150.0, "mean cut of growing alone: {mean}");
    }

    #[test]
    fn growing_reports_the_degrees_of_the_vertices_it_grew() {
        let g = gen::weblike(10, 8, 3);
        for seed in [1, 2] {
            let b = greedy_graph_growing(&g, g.total_node_weight() / 2, seed);
            let grown: u64 = (0..g.n() as NodeId)
                .filter(|&u| !b.side[u as usize])
                .map(|u| g.degree(u) as u64)
                .sum();
            assert_eq!(b.grow_half_edges, grown, "seed {seed}");
        }
    }

    /// A workspace holding `side`, reached by flipping out of the all-in-block-1 start.
    fn workspace_with(graph: &impl Graph, side: &[bool]) -> AttemptWorkspace {
        let mut ws = AttemptWorkspace::default();
        ws.reset(graph);
        for u in (0..graph.n() as NodeId).filter(|&u| !side[u as usize]) {
            ws.part.flip(graph, u, |_, _, _| {});
        }
        ws
    }

    #[test]
    fn fm_improves_a_bad_bipartition() {
        // Two cliques joined by one bridge; the optimal bisection cuts only the bridge.
        let g = gen::clique_chain(2, 8);
        // Start from an interleaved (bad) assignment.
        let side: Vec<bool> = (0..16).map(|u| u % 2 == 0).collect();
        let mut ws = workspace_with(&g, &side);
        let initial_cut = cut_of(&g, &side);
        assert_eq!(ws.part.cut, initial_cut);
        let mut improved = 0;
        for _ in 0..5 {
            let delta = fm_pass_into(&g, [9, 9], &mut ws);
            improved += delta;
            if delta == 0 {
                break;
            }
        }
        let final_cut = cut_of(&g, &ws.part.side);
        assert_eq!(initial_cut - improved, final_cut);
        assert_eq!(
            final_cut, 1,
            "FM should find the single-bridge cut, got {}",
            final_cut
        );
        assert!(ws.part.weights.iter().all(|&weight| weight <= 9));
    }

    #[test]
    fn fm_respects_balance_constraint() {
        let g = gen::complete(10);
        let side: Vec<bool> = (0..10).map(|u| u >= 5).collect();
        let mut ws = workspace_with(&g, &side);
        fm_pass_into(&g, [6, 6], &mut ws);
        assert!(ws.part.weights.iter().all(|&weight| weight <= 6));
        assert_eq!(ws.part.weights.iter().sum::<NodeWeight>(), 10);
    }

    #[test]
    fn fm_leaves_the_bipartition_untouched_when_nothing_improves() {
        let g = gen::clique_chain(2, 10);
        let side: Vec<bool> = (0..20).map(|u| u >= 10).collect();
        let mut ws = workspace_with(&g, &side);
        let improvement = fm_pass_into(&g, [11, 11], &mut ws);
        assert_eq!(improvement, 0);
        assert_eq!(
            ws.part.side, side,
            "no-improvement pass must roll back fully"
        );
        assert_eq!(ws.part.weights, [10, 10]);
    }

    #[test]
    fn bipartition_end_to_end_is_balanced_and_low_cut() {
        let g = gen::grid2d(12, 12);
        let total = g.total_node_weight();
        let b = bipartition(&g, total / 2, [80, 80], 3, 7);
        assert!(b.weight0 <= 80 && b.weight1 <= 80);
        // A 12x12 grid has a bisection of width 12; allow some slack.
        assert!(b.cut(&g) <= 30, "cut too high: {}", b.cut(&g));
    }

    #[test]
    fn zero_target_puts_everything_in_block_one() {
        let g = gen::path(5);
        let b = greedy_graph_growing(&g, 0, 1);
        assert_eq!(b.weight0, 0);
        assert!(b.side.iter().all(|&s| s));
    }

    #[test]
    fn workspace_reuse_is_equivalent_to_fresh_workspaces() {
        // The same seeds through one reused workspace must reproduce the standalone
        // results exactly — reused buffers must not leak state between attempts.
        let g = gen::rgg2d(400, 9, 17);
        let total = g.total_node_weight();
        let max = [total, total];
        let mut ws = AttemptWorkspace::default();
        for seed in [1u64, 7, 42, 1_000_003] {
            bipartition_into(&g, total / 2, max, 3, seed, &mut ws);
            let fresh = bipartition(&g, total / 2, max, 3, seed);
            assert_eq!(ws.part.side, fresh.side, "seed {seed}");
            assert_eq!(ws.part.weights, [fresh.weight0, fresh.weight1]);
        }
    }

    /// The gains as [`TwoWay`] defines them, recomputed from the graph.
    fn gains_of(graph: &impl Graph, side: &[bool]) -> Vec<i64> {
        (0..graph.n() as NodeId)
            .map(|u| {
                let mut gain = 0i64;
                graph.for_each_neighbor(u, &mut |v, w| {
                    let internal = side[v as usize] == side[u as usize];
                    gain += if internal { -(w as i64) } else { w as i64 };
                });
                gain
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_fm_passes_keep_gains_cut_and_weights_exact(
            n in 4usize..60,
            edges in 0usize..200,
            spokes in 0usize..40,
            isolated in 0usize..4,
            room in 0u64..5,
            passes in 1usize..5,
            seed in 0u64..100_000,
        ) {
            // Weighted random graph on 0..n, a hub (vertex n) and isolated vertices after it.
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let total_n = n + 1 + isolated;
            let node_weights = (0..total_n).map(|_| rng.gen_range(1..5u64)).collect();
            let mut builder = graph::CsrGraphBuilder::with_node_weights(node_weights);
            for _ in 0..edges {
                let (u, v) = (rng.gen_range(0..n as NodeId), rng.gen_range(0..n as NodeId));
                builder.add_edge(u, v, rng.gen_range(1..6u64)); // ignores self-loops
            }
            for _ in 0..spokes {
                builder.add_edge(n as NodeId, rng.gen_range(0..n as NodeId), rng.gen_range(1..6u64));
            }
            let g = builder.build();

            let start: Vec<bool> = (0..total_n).map(|_| rng.gen_bool(0.5)).collect();
            let mut ws = workspace_with(&g, &start);
            let weights_of = |side: &[bool]| {
                let mut weights = [0; 2];
                for (u, &s) in side.iter().enumerate() {
                    weights[s as usize] += g.node_weight(u as NodeId);
                }
                weights
            };
            // Node weights go up to 4, so `room < 4` blocks some of the moves.
            let max_weight = ws.part.weights.map(|weight| weight + room);
            for pass in 0..=passes {
                let (before, cut_before) = (ws.part.side.clone(), ws.part.cut);
                // Pass 0 checks the start: what growing's flips leave behind.
                let improvement = match pass {
                    0 => 0,
                    _ => fm_pass_into(&g, max_weight, &mut ws),
                };
                prop_assert_eq!(&ws.part.gains, &gains_of(&g, &ws.part.side));
                prop_assert_eq!(ws.part.cut, cut_of(&g, &ws.part.side));
                prop_assert_eq!(ws.part.cut + improvement, cut_before);
                prop_assert_eq!(ws.part.weights, weights_of(&ws.part.side));
                prop_assert!(ws.part.weights[0] <= max_weight[0]);
                prop_assert!(ws.part.weights[1] <= max_weight[1]);
                prop_assert!(ws.locked.iter().all(|&locked| !locked));
                if improvement == 0 {
                    prop_assert_eq!(&ws.part.side, &before);
                }
            }
            prop_assert!(ws.fm.moves_kept <= ws.fm.moves_tried);
        }
    }
}
