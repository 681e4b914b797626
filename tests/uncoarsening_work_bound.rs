//! Work bound of the last uncoarsening level, the one that runs on the input graph: a
//! neighbourhood is decoded because its vertex is a boundary candidate, because a
//! neighbour moved, or because it moved itself — never because the level exists.
//! Projection decodes nothing and the final evaluation reads the tracked cut. The count
//! below is exact and timing-free; sweeping refinement (round 0 over all of V, a cut
//! recount after it and another under `evaluate`) decodes `3 · 2m` and fails it.
//!
//! Every decode on the level is one of four, with `B₀` the boundary superset the
//! projection hands over and `B₁` the one refinement leaves behind:
//!
//! * round 0 of label propagation visits each `u ∈ B₀` once;
//! * rounds ≥ 1 visit whom a move marked;
//! * a mover's neighbourhood is walked once more to mark it;
//! * moves race, so the cut is recounted — over `B₁`.
//!
//! Hence `decoded ≤ Σ_{B₀} deg + Σ_{visited later} deg + Σ_{moved} deg + Σ_{B₁} deg`.
//! `B₁ ⊆ B₀ ∪ marks`, and marks are visited in the next round unless the rounds run out,
//! so on a converging instance this is at most `2 · (Σ_{B₀} deg + Σ_{visited later} deg)
//! + Σ_{moved} deg`. A vertex outside `B₀ ∪ B₁` is never decoded at all.
mod common;

use common::CountingGraph;
use graph::traits::Graph;
use graph::{gen, CsrGraph, NodeId};
use memtrack::PhaseTracker;
use terapart::partitioner::refinement_seed;
use terapart::refinement::refine;
use terapart::{HierarchyScratch, PartitionerConfig, Preset, RunContext};

const K: usize = 16;

fn level_zero_decodes_only_the_boundary(inner: CsrGraph) {
    let config = PartitionerConfig::preset(Preset::Fast, K)
        .with_threads(1)
        .with_seed(7);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    pool.install(|| {
        // Every level above 0 runs through the pipeline's own steps, on the coarse graphs
        // as the hierarchy holds them.
        let tracker = PhaseTracker::new();
        let mut scratch = HierarchyScratch::new();
        let mut run = RunContext {
            config: &config,
            tracker: &tracker,
            scratch: &mut scratch,
        };
        let mut hierarchy = run.coarsen(&inner);
        let depth = hierarchy.depth();
        assert!(depth >= 2, "the instance must coarsen: {depth} levels");
        let mut partition = run.initial_step(hierarchy.deepest().unwrap(), depth);
        let mut coarser = None;
        for level in (1..=depth).rev() {
            let graph = hierarchy.deepest().unwrap();
            run.uncoarsen_step(graph, &mut partition, coarser, level, depth);
            coarser = hierarchy.levels.pop();
        }
        let mapping = coarser.unwrap().mapping;

        // Level 0 through the counting wrapper: project, refine, evaluate.
        let graph = CountingGraph::new(inner);
        let n = graph.n();
        let degree_of = |candidate: &dyn Fn(NodeId) -> bool| -> u64 {
            (0..n as NodeId)
                .filter(|&u| candidate(u))
                .map(|u| graph.degree(u) as u64)
                .sum()
        };
        let mut partition = partition.project(&graph, &mapping);
        assert_eq!(graph.half_edges(), 0, "projection decodes nothing");
        let coarse_cut = partition.edge_cut();
        let before = partition.clone();
        let start_degree = degree_of(&|u| before.is_boundary_candidate(u));

        // Level 0's refinement as its step runs it, without the step's debug-profile
        // level check, which decodes the whole level and is not part of its work.
        let seed = refinement_seed(config.seed, 0, depth);
        let stats = refine(&graph, &mut partition, &config.refinement, seed);
        let cut = partition.edge_cut();
        let decoded = graph.half_edges();

        assert_eq!(
            stats.rebalance_moves, 0,
            "the projected partition is balanced"
        );
        assert!(decoded >= start_degree, "round 0 visits all of B₀");
        assert!(cut <= coarse_cut);
        assert_eq!(stats.lp_candidates, before.boundary_candidates().unwrap());
        assert!(
            stats.lp_candidates < n / 4,
            "round 0 visited {} of {n} vertices",
            stats.lp_candidates
        );

        // Σ deg of the later visits and of the movers is not reported; the largest
        // degrees, each vertex at most once per round, bound both from above.
        let rounds = config.refinement.lp_rounds;
        let later_degree =
            graph.largest_degrees(stats.lp_visited - stats.lp_candidates, rounds - 1);
        let moved_degree = graph.largest_degrees(stats.lp_moves, rounds);
        let end_degree = degree_of(&|u| partition.is_boundary_candidate(u));
        let bound = start_degree + later_degree + moved_degree + end_degree;
        assert!(
            decoded <= bound,
            "decoded {decoded} half-edges > {start_degree} (B₀) + {later_degree} (later \
             visits) + {moved_degree} (moved) + {end_degree} (B₁)"
        );
        // The refinement converged, so the recount over B₁ is covered by the visits.
        assert!(bound <= 2 * (start_degree + later_degree) + moved_degree);
        let half_edges = 2 * graph.m() as u64;
        assert!(
            2 * bound < half_edges,
            "the level may decode {bound} of {half_edges} half-edges"
        );
        for u in 0..n as NodeId {
            assert!(
                graph.calls(u) == 0
                    || before.is_boundary_candidate(u)
                    || partition.is_boundary_candidate(u),
                "vertex {u} was decoded although it was never near the boundary"
            );
        }

        // And the tracked state it ends on is the truth (this recount is not part of
        // the level).
        partition.check_tracked_state(&graph).unwrap();
    });
}

#[test]
fn the_last_level_of_a_grid_decodes_only_its_boundary() {
    level_zero_decodes_only_the_boundary(gen::grid2d(300, 300));
}

#[test]
fn the_last_level_of_a_geometric_graph_decodes_only_its_boundary() {
    level_zero_decodes_only_the_boundary(gen::rgg2d(60_000, 8, 11));
}
