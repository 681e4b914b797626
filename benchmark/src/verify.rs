//! Checks a partition from outside: nothing here trusts what the run reports.

use crate::adapter::{max_block_weight, BlockId, Graph, NodeId};

/// The cut of `assignment`, recounted with the benchmark's own loop.
pub fn recount_cut(graph: &dyn Graph, assignment: &[BlockId]) -> u64 {
    let mut twice = 0u64;
    for u in 0..graph.n() {
        graph.for_each_neighbor(u as NodeId, &mut |v, w| {
            if assignment[u] != assignment[v as usize] {
                twice += w;
            }
        });
    }
    twice / 2
}

/// `Ok` if `assignment` is a feasible `k`-way partition of `graph` whose cut is
/// `reported_cut`; otherwise the first violated condition.
pub fn verify_partition(
    graph: &dyn Graph,
    assignment: &[BlockId],
    k: usize,
    reported_cut: u64,
) -> Result<(), String> {
    if assignment.len() != graph.n() {
        return Err(format!(
            "assignment covers {} of {} vertices",
            assignment.len(),
            graph.n()
        ));
    }
    let mut weights = vec![0u64; k];
    for (u, &block) in assignment.iter().enumerate() {
        let Some(weight) = weights.get_mut(block as usize) else {
            return Err(format!("vertex {u} is in block {block}, but k = {k}"));
        };
        *weight += graph.node_weight(u as NodeId);
    }
    if let Some(empty) = weights.iter().position(|&w| w == 0) {
        return Err(format!("block {empty} is empty"));
    }
    let limit = max_block_weight(graph, k);
    if let Some((block, &weight)) = weights.iter().enumerate().max_by_key(|(_, &w)| w) {
        if weight > limit {
            return Err(format!(
                "block {block} weighs {weight}, the limit is {limit}"
            ));
        }
    }
    let cut = recount_cut(graph, assignment);
    if cut != reported_cut {
        return Err(format!("reported cut {reported_cut}, recounted {cut}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An 8-cycle split into two arcs of four: cut 2.
    fn cycle_and_halves() -> (graph::CsrGraph, Vec<BlockId>) {
        (graph::gen::cycle(8), vec![0, 0, 0, 0, 1, 1, 1, 1])
    }

    #[test]
    fn accepts_a_feasible_partition_with_the_right_cut() {
        let (g, halves) = cycle_and_halves();
        assert_eq!(recount_cut(&g, &halves), 2);
        assert_eq!(verify_partition(&g, &halves, 2, 2), Ok(()));
    }

    #[test]
    fn rejects_deliberately_broken_partitions() {
        let (g, halves) = cycle_and_halves();
        let wrong_cut = verify_partition(&g, &halves, 2, 3).unwrap_err();
        assert!(wrong_cut.contains("recounted 2"), "{wrong_cut}");
        let empty_block = verify_partition(&g, &[0; 8], 2, 0).unwrap_err();
        assert!(empty_block.contains("block 1 is empty"), "{empty_block}");
        // 7 + 1 of 8 unit weights: the limit is floor(1.03 * 4) = 4.
        let overweight = verify_partition(&g, &[0, 0, 0, 0, 0, 0, 0, 1], 2, 2).unwrap_err();
        assert!(overweight.contains("the limit is 4"), "{overweight}");
        let out_of_range = verify_partition(&g, &[0, 0, 0, 0, 1, 1, 1, 2], 2, 2).unwrap_err();
        assert!(out_of_range.contains("k = 2"), "{out_of_range}");
        let short = verify_partition(&g, &halves[..7], 2, 2).unwrap_err();
        assert!(short.contains("7 of 8"), "{short}");
    }
}
