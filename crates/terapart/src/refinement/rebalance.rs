//! Greedy rebalancing of overloaded blocks.
//!
//! The distributed version of KaMinPar repairs balance violations in a dedicated
//! rebalancing step (paper §II-B); the shared-memory partitioner uses the same routine as
//! a safety net after projection, since a coarse-level partition that was balanced with
//! respect to coarse vertex weights can exceed the fine-level constraint slightly.
//!
//! Vertices are moved out of overloaded blocks in order of increasing *loss* (the cut
//! increase caused by the move) into the best feasible block, until every block respects
//! the constraint or no further move is possible.
//!
//! An overloaded block's vertices are scanned once and queued by their loss; a popped
//! entry is re-evaluated against the current state and re-queued if it went stale (its
//! target filled up), and a move re-queues the mover's neighbours in the block, whose
//! losses it changed. The loss is the cut delta, so the partition's tracked cut and
//! boundary superset stay exact without a closing recount.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use graph::traits::Graph;
use graph::{EdgeWeight, NodeId};

use crate::partition::{BlockId, Partition};

/// The cheapest feasible move of `u` out of its block: `(loss, target)`, lowest target
/// on ties. Every other block is a candidate — a vertex without external neighbours can
/// still be moved, at a loss equal to its internal weight. `affinity` is a zeroed
/// scratch row of `k` entries and is zeroed again on return.
fn cheapest_move(
    graph: &impl Graph,
    partition: &Partition,
    u: NodeId,
    affinity: &mut [EdgeWeight],
) -> Option<(i64, BlockId)> {
    let from = partition.block(u);
    let node_weight = graph.node_weight(u);
    graph.for_each_neighbor(u, &mut |v, w| affinity[partition.block(v) as usize] += w);
    let internal = affinity[from as usize] as i64;
    let best = (0..partition.k() as BlockId)
        .filter(|&to| {
            to != from && partition.block_weight(to) + node_weight <= partition.max_block_weight()
        })
        .map(|to| (internal - affinity[to as usize] as i64, to))
        .min();
    affinity.fill(0);
    best
}

/// Rebalances `partition` in place. Returns the number of vertices moved.
pub fn rebalance(graph: &impl Graph, partition: &mut Partition) -> usize {
    let max_weight = partition.max_block_weight();
    let k = partition.k();
    if k <= 1 {
        return 0;
    }
    debug_assert!(partition.is_complete());
    let mut moved = 0usize;
    let mut affinity: Vec<EdgeWeight> = vec![0; k];
    let mut neighbours: Vec<NodeId> = Vec::new();
    // Min-heap of `(loss, vertex, target)`; the vertex breaks ties towards the lower id.
    let mut queue: BinaryHeap<Reverse<(i64, NodeId, BlockId)>> = BinaryHeap::new();
    // Bounded by n moves overall to guarantee termination.
    let mut budget = graph.n();
    loop {
        let (heaviest, weight) = partition.heaviest_block();
        if weight <= max_weight {
            break;
        }
        queue.clear();
        for u in 0..graph.n() as NodeId {
            if partition.block(u) == heaviest {
                if let Some((loss, to)) = cheapest_move(graph, partition, u, &mut affinity) {
                    queue.push(Reverse((loss, u, to)));
                }
            }
        }
        while partition.block_weight(heaviest) > max_weight && budget > 0 {
            let Some(Reverse((loss, u, to))) = queue.pop() else {
                break;
            };
            if partition.block(u) != heaviest {
                continue;
            }
            // Targets only grow heavier while this block drains, so a vertex without a
            // feasible move now will not get one later.
            let Some(current) = cheapest_move(graph, partition, u, &mut affinity) else {
                continue;
            };
            if current != (loss, to) {
                queue.push(Reverse((current.0, u, current.1)));
                continue;
            }
            partition.move_vertex_tracked(graph, u, to, -loss);
            moved += 1;
            budget -= 1;
            // The move made u's neighbours in the block cheaper to move.
            neighbours.clear();
            graph.for_each_neighbor(u, &mut |v, _| {
                if partition.block(v) == heaviest {
                    neighbours.push(v);
                }
            });
            for &v in &neighbours {
                if let Some((loss, to)) = cheapest_move(graph, partition, v, &mut affinity) {
                    queue.push(Reverse((loss, v, to)));
                }
            }
        }
        if partition.block_weight(heaviest) > max_weight {
            break; // no feasible move is left, or the budget is spent
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen;
    use graph::NodeWeight;

    #[test]
    fn rebalances_an_overloaded_block() {
        let g = gen::grid2d(8, 8);
        // Put 3/4 of the vertices into block 0.
        let assignment: Vec<BlockId> = (0..64u32).map(|u| if u < 48 { 0 } else { 1 }).collect();
        let mut p = Partition::from_assignment(&g, 2, 0.03, assignment);
        assert!(!p.is_balanced());
        let moved = rebalance(&g, &mut p);
        assert!(moved > 0);
        assert!(p.is_balanced(), "still imbalanced: {:?}", p.block_weights());
        assert_eq!(p.block_weights().iter().sum::<NodeWeight>(), 64);
    }

    #[test]
    fn balanced_partition_is_untouched() {
        let g = gen::grid2d(4, 4);
        let assignment: Vec<BlockId> = (0..16u32).map(|u| u % 2).collect();
        let mut p = Partition::from_assignment(&g, 2, 0.1, assignment.clone());
        assert!(p.is_balanced());
        assert_eq!(rebalance(&g, &mut p), 0);
        assert_eq!(p.assignment(), assignment.as_slice());
    }

    #[test]
    fn prefers_low_loss_moves() {
        // Two cliques; block 0 holds clique A plus two vertices of clique B. Rebalancing
        // (with a tight constraint) should move the clique-B vertices back, not split
        // clique A.
        let g = gen::clique_chain(2, 6);
        let mut assignment: Vec<BlockId> = (0..12u32).map(|u| if u < 6 { 0 } else { 1 }).collect();
        assignment[6] = 0;
        assignment[7] = 0;
        let mut p = Partition::from_assignment(&g, 2, 0.0, assignment);
        assert!(!p.is_balanced());
        rebalance(&g, &mut p);
        assert!(p.is_balanced());
        // Clique A stays intact in block 0.
        for u in 0..6 {
            assert_eq!(p.block(u), 0);
        }
    }

    #[test]
    fn gives_up_when_no_move_is_feasible() {
        // A single huge vertex cannot be balanced no matter what.
        let base = gen::path(3);
        let g = {
            let mut b = graph::CsrGraphBuilder::with_node_weights(vec![100, 1, 1]);
            use graph::traits::Graph as _;
            for u in 0..base.n() as NodeId {
                base.for_each_neighbor(u, &mut |v, w| {
                    if u < v {
                        b.add_edge(u, v, w);
                    }
                });
            }
            b.build()
        };
        let mut p = Partition::from_assignment(&g, 2, 0.03, vec![0, 1, 1]);
        assert!(!p.is_balanced());
        rebalance(&g, &mut p);
        // The partition is still infeasible but the routine terminated.
        assert!(!p.is_balanced());
    }

    #[test]
    fn single_block_is_a_noop() {
        let g = gen::path(4);
        let mut p = Partition::from_assignment(&g, 1, 0.0, vec![0; 4]);
        assert_eq!(rebalance(&g, &mut p), 0);
    }
}
