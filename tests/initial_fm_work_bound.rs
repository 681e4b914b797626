//! Work bound of one initial-bipartitioning attempt, in the unit its stop rule counts in:
//! half-edges. A neighbourhood is decoded only because its vertex changes sides — grown
//! into block 0, moved by FM, or moved back by FM's rollback — never per pass, and never to
//! recount gains or the cut; and what a pass decodes past its best prefix is bounded by
//! `PATIENCE` plus one neighbourhood, whatever the degrees of the vertices it pops (a rule
//! that counts moves bounds it by `moves · max degree` only). The counts below are exact and
//! timing-free. A 2-way FM that recomputes the gains per pass, or a `FmWork::half_edges`
//! that misses a decode, fails them.
//!
//! The number of attempts is bounded in the same unit: a bisection's portfolio runs fewer
//! of them on a subgraph beyond `initial::PORTFOLIO_HALF_EDGES`, read here off the run
//! report's counters.
mod common;

use common::{hub_and_spokes_on_weblike, CountingGraph};
use graph::traits::Graph;
use graph::{gen, CsrGraph, NodeId};
use terapart::initial::bipartition::{bipartition, PATIENCE};
use terapart::{partition_csr, Counter, PartitionerConfig, Preset};

const FM_PASSES: usize = 3;
/// `InitialPartitioningConfig::attempts` of the `fast` preset.
const ATTEMPTS: u64 = 4;

#[test]
fn one_attempt_decodes_neighbourhoods_in_proportion_to_the_vertices_it_moves() {
    let (inner, hub) = hub_and_spokes_on_weblike();
    let graph = CountingGraph::new(inner);
    let total = graph.total_node_weight();
    let limit = total / 2 + total / 20;
    let half_edges = 2 * graph.m() as u64;
    let max_degree = graph.largest_degrees(1, 1);

    // The same attempt cut off after 0, 1, … passes: run `p` repeats run `p - 1` and adds
    // one pass, so the differences are that pass's work and its kept moves.
    let runs: Vec<_> = (0..=FM_PASSES)
        .map(|passes| {
            let (decoded, hub_calls) = (graph.half_edges(), graph.calls(hub));
            let result = bipartition(&graph, total / 2, [limit, limit], passes, 7);
            let decoded = graph.half_edges() - decoded;
            (result, decoded, graph.calls(hub) - hub_calls)
        })
        .collect();

    // Growing decodes a vertex at most once, reports all of it, and FM has not run.
    let (grown, grown_decoded, _) = &runs[0];
    assert_eq!(grown.fm.half_edges, 0);
    assert_eq!(*grown_decoded, grown.grow_half_edges);
    assert!(*grown_decoded <= half_edges);

    let mut stopped_by_the_rule = 0;
    for pair in runs.windows(2) {
        let ((before, decoded_before, _), (after, decoded_after, hub_calls)) = (&pair[0], &pair[1]);
        if after.fm.passes == before.fm.passes {
            break; // the pass before found nothing, so this one never ran
        }
        // Everything the pass decoded is a flip, and `FmWork` reports it.
        let pass_half_edges = after.fm.half_edges - before.fm.half_edges;
        assert_eq!(decoded_after - decoded_before, pass_half_edges);

        // A vertex moves at most once per pass, so the kept moves are the vertices whose
        // side changed; the rest of the pass was decoded once forwards and once back.
        let kept: Vec<NodeId> = (0..graph.n() as NodeId)
            .filter(|&u| before.side[u as usize] != after.side[u as usize])
            .collect();
        assert_eq!(
            kept.len() as u64,
            after.fm.moves_kept - before.fm.moves_kept
        );
        let kept_half_edges: u64 = kept.iter().map(|&u| graph.degree(u) as u64).sum();
        let past_best = pass_half_edges - kept_half_edges;
        assert_eq!(past_best % 2, 0, "the rollback decodes what the suffix did");
        assert!(
            past_best / 2 < PATIENCE + max_degree,
            "a pass ran {} half-edges past its best prefix",
            past_best / 2
        );
        stopped_by_the_rule += u64::from(past_best / 2 >= PATIENCE);

        // Growing decodes the hub at most once; a pass once if it moves and once more if
        // that move is rolled back.
        assert!(
            *hub_calls <= 1 + 2 * after.fm.passes,
            "the hub was decoded {hub_calls} times in {} passes",
            after.fm.passes
        );
    }

    let (full, decoded, _) = runs.last().expect("FM_PASSES + 1 runs");
    assert_eq!(*decoded, full.grow_half_edges + full.fm.half_edges);
    assert!(
        full.fm.moves_kept > 100,
        "the instance must give FM work: {:?}",
        full.fm
    );
    assert!(
        stopped_by_the_rule > 0,
        "the instance must make a pass run out of patience: {:?}",
        full.fm
    );
    // Growing and all the FM passes together cost less than a single pass used to (a gain
    // sweep plus a move of every vertex, `2 · 2m`).
    assert!(
        *decoded <= 2 * half_edges,
        "decoded {decoded} half-edges in {} passes over {half_edges}",
        full.fm.passes
    );
}

/// `(InitialBisections, InitialAttempts)` of a one-thread `fast` run at `k`.
fn portfolio_of(graph: &CsrGraph, k: usize) -> (u64, u64) {
    let config = PartitionerConfig::preset(Preset::Fast, k)
        .with_threads(1)
        .with_run_report(true);
    assert_eq!(config.initial.attempts, ATTEMPTS as usize);
    let result = partition_csr(graph, &config);
    let report = result.run_report.expect("the run recorded");
    let bisections = report.counter(Counter::InitialBisections);
    assert_eq!(bisections, k as u64 - 1);
    (bisections, report.counter(Counter::InitialAttempts))
}

/// A bisection prices its portfolio in half-edges (`PORTFOLIO_HALF_EDGES`): the stalled
/// R-MAT core of `weblike(15, 8)` keeps a coarsest graph of ~190 k half-edges, so its
/// bisections near the root run fewer attempts; a mesh coarsest graph at k = 16 is far
/// below the budget and runs every attempt of every bisection.
#[test]
fn the_portfolio_runs_fewer_attempts_only_beyond_its_half_edge_budget() {
    let (bisections, attempts) = portfolio_of(&gen::weblike(15, 8, 3), 64);
    assert!(
        attempts < ATTEMPTS * bisections,
        "the stalled core ran the whole portfolio: {attempts} attempts in {bisections} bisections"
    );
    let (bisections, attempts) = portfolio_of(&gen::rgg2d(60_000, 8, 3), 16);
    assert_eq!(attempts, ATTEMPTS * bisections, "a mesh lost attempts");
}
