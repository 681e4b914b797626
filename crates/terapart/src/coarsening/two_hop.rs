//! Two-hop clustering for irregular graphs (paper §II-B, following LaSalle et al.).
//!
//! Label propagation can stall on graphs with many low-degree vertices whose neighbours
//! all belong to full or unattractive clusters: most vertices stay singletons and the
//! coarsening makes no progress. KaMinPar counters this with *two-hop matching*: two
//! singleton clusters that share a preferred neighbouring cluster (i.e. are two hops
//! apart; preferred by their heaviest single edge) are merged with each other instead
//! ([`two_hop_clustering`]).
//!
//! Vertices without any neighbour are the extreme case: label propagation cannot move
//! them and no singleton favours them, so they are packed with each other
//! ([`pack_isolated_vertices`]). Left alone they are dragged as singletons through every
//! level, every bisection and every refinement — on `weblike(15, 8)` 15 210 of the
//! 17 051 vertices of the coarsest graph were isolated, while its connected core had
//! long been below the contraction limit.

use graph::ids::INVALID_NODE;
use graph::traits::Graph;
use graph::{NodeId, NodeWeight};
use memtrack::MemoryScope;

use super::lp_clustering::Clustering;
use crate::ClusterId;

/// Packs the isolated (degree-0) vertices into clusters of at most `max_cluster_weight`:
/// in id order, each joins the cluster that is currently open or, if it does not fit,
/// opens the next one. Deterministic, no memory, and no cut: an isolated vertex has no
/// edge to cut.
///
/// `clustering` must be what label propagation leaves: an isolated vertex is alone in
/// its cluster (nobody is adjacent to it, so nobody joined it).
///
/// Returns the number of merges performed. The clustering is modified in place.
pub fn pack_isolated_vertices(
    graph: &impl Graph,
    clustering: &mut Clustering,
    max_cluster_weight: NodeWeight,
) -> usize {
    let label = &mut clustering.label;
    debug_assert!(
        (0..graph.n()).all(|v| { label[v] as usize == v || graph.degree(label[v] as NodeId) > 0 })
    );
    let mut merged = 0usize;
    // The open cluster and its weight.
    let mut open: Option<(ClusterId, NodeWeight)> = None;
    for u in 0..graph.n() as NodeId {
        if graph.degree(u) > 0 {
            continue;
        }
        let node_weight = graph.node_weight(u);
        match &mut open {
            Some((cluster, weight)) if *weight + node_weight <= max_cluster_weight => {
                *weight += node_weight;
                label[u as usize] = *cluster;
                merged += 1;
            }
            _ => open = Some((u, node_weight)),
        }
    }
    clustering.num_clusters -= merged;
    merged
}

/// Merges singleton clusters that favour the same neighbouring cluster, as long as the
/// merged weight respects `max_cluster_weight`. A singleton favours the cluster at the
/// other end of its **heaviest single edge** (first one on a tie) — not the cluster with
/// the largest accumulated connection: several lighter edges into one cluster do not add
/// up. Measured with the accumulated weight instead: no cut changed on `weblike(14)` /
/// `rgg2d-6k`, +0.1 % on `weblike(15)`, so the cheaper rule stays. One sequential pass in
/// id order: deterministic.
///
/// The cluster weights and the favoured-cluster table are label-indexed; they are
/// allocated for the call, charged to the memory accounting while it runs and freed
/// when it returns.
///
/// Returns the number of merges performed. The clustering is modified in place.
pub fn two_hop_clustering(
    graph: &impl Graph,
    clustering: &mut Clustering,
    max_cluster_weight: NodeWeight,
) -> usize {
    let n = graph.n();
    if n == 0 {
        return 0;
    }
    // weights[c]: weight of cluster c, merges included. favored[c]: a singleton whose
    // heaviest edge leads into cluster c and that later singletons may still join.
    let mut weights: Vec<NodeWeight> = vec![0; n];
    let mut favored: Vec<NodeId> = vec![INVALID_NODE; n];
    let _charge = MemoryScope::charge_global(
        n * (std::mem::size_of::<NodeWeight>() + std::mem::size_of::<NodeId>()),
    );
    let label = &mut clustering.label;
    for u in 0..n {
        weights[label[u] as usize] += graph.node_weight(u as NodeId);
    }

    let mut merged = 0usize;
    for u in 0..n as NodeId {
        // A singleton is the only member of its cluster: it carries its own label and
        // the cluster weighs what it weighs. A cluster only grows after its leader has
        // been visited (as somebody's partner), so the test sees the weight LP left.
        let node_weight = graph.node_weight(u);
        if label[u as usize] != u || weights[u as usize] != node_weight {
            continue;
        }
        // The neighbouring cluster at the other end of u's heaviest edge.
        let mut best: Option<(ClusterId, u64)> = None;
        graph.for_each_neighbor(u, &mut |v, w| {
            let c = label[v as usize];
            if c == u {
                return;
            }
            best = match best {
                None => Some((c, w)),
                Some((_, bw)) if w > bw => Some((c, w)),
                other => other,
            };
        });
        let Some((target, _)) = best else { continue };
        let slot = &mut favored[target as usize];
        let partner = *slot;
        if partner != INVALID_NODE && partner != u {
            let cluster = label[partner as usize];
            let weight = &mut weights[cluster as usize];
            if *weight + node_weight <= max_cluster_weight {
                // The partner slot stays occupied so further singletons favouring the
                // same cluster keep joining it until the weight limit is reached.
                *weight += node_weight;
                label[u as usize] = cluster;
                merged += 1;
                continue;
            }
        }
        *slot = u;
    }
    if merged > 0 {
        *clustering = Clustering::from_labels(std::mem::take(&mut clustering.label));
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen;

    #[test]
    fn merges_leaves_of_a_star() {
        // In a star graph, LP with a tight weight limit leaves the leaves as singletons:
        // their only neighbour is the hub, whose cluster fills up immediately. Two-hop
        // clustering should merge leaves with each other.
        let g = gen::star(101);
        let mut clustering = Clustering::singletons(g.n());
        let before = clustering.num_clusters;
        let merged = two_hop_clustering(&g, &mut clustering, 10);
        assert!(merged > 0, "expected some two-hop merges");
        assert!(clustering.num_clusters < before);
        // Cluster weights stay within the limit.
        let weights = clustering.cluster_weights(&g);
        assert!(weights.iter().all(|&w| w <= 10));
    }

    #[test]
    fn respects_weight_limit() {
        let g = gen::star(20);
        let mut clustering = Clustering::singletons(g.n());
        two_hop_clustering(&g, &mut clustering, 2);
        let weights = clustering.cluster_weights(&g);
        assert!(weights.iter().all(|&w| w <= 2));
    }

    #[test]
    fn no_merges_when_no_singletons() {
        let g = gen::path(6);
        // All vertices already share one cluster: nothing to merge.
        let mut clustering = Clustering::from_labels(vec![0, 0, 0, 0, 0, 0]);
        let merged = two_hop_clustering(&g, &mut clustering, 100);
        assert_eq!(merged, 0);
        assert_eq!(clustering.num_clusters, 1);
    }

    #[test]
    fn total_weight_is_preserved() {
        let g = gen::rhg_like(400, 6, 3.0, 3);
        let mut clustering = Clustering::singletons(g.n());
        two_hop_clustering(&g, &mut clustering, 4);
        let weights = clustering.cluster_weights(&g);
        assert_eq!(weights.iter().sum::<NodeWeight>(), g.total_node_weight());
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let g = graph::CsrGraphBuilder::new(0).build();
        let mut clustering = Clustering::singletons(0);
        assert_eq!(two_hop_clustering(&g, &mut clustering, 1), 0);
    }

    #[test]
    fn isolated_vertices_pack_up_to_the_limit_and_no_further() {
        // A path 0-1-2 plus seven isolated vertices 3..10 of weights 1, 2, 1, 3, 1, 1, 1.
        let mut builder =
            graph::CsrGraphBuilder::with_node_weights(vec![1, 1, 1, 1, 2, 1, 3, 1, 1, 1]);
        builder.add_edge(0, 1, 1);
        builder.add_edge(1, 2, 1);
        let g = builder.build();
        let mut clustering = Clustering::singletons(10);
        let merged = pack_isolated_vertices(&g, &mut clustering, 4);
        // Id order, into the open cluster: {3, 4, 5} weighs 4 and is full, 6 (weight 3)
        // opens the next, which takes 7 and is full; {8, 9} is the last.
        assert_eq!(clustering.label, [0, 1, 2, 3, 3, 3, 6, 6, 8, 8]);
        assert_eq!(merged, 4);
        assert_eq!(clustering.num_clusters, 3 + 3);
        assert_eq!(
            clustering,
            Clustering::from_labels(clustering.label.clone())
        );
        let weights = clustering.cluster_weights(&g);
        assert!(weights.iter().all(|&w| w <= 4), "{weights:?}");
        assert_eq!(weights.iter().sum::<NodeWeight>(), g.total_node_weight());
        // Two-hop matching has nothing to say about them: no neighbour, no favourite.
        let packed = clustering.label[3..].to_vec();
        two_hop_clustering(&g, &mut clustering, 4);
        assert_eq!(clustering.label[3..], packed);
    }

    #[test]
    fn an_isolated_vertex_heavier_than_the_limit_stays_alone() {
        let g = graph::CsrGraphBuilder::with_node_weights(vec![1, 9, 1, 1]).build();
        let mut clustering = Clustering::singletons(4);
        pack_isolated_vertices(&g, &mut clustering, 3);
        // Nothing fits beside vertex 1, so it closes the open cluster without joining.
        assert_eq!(clustering.label, [0, 1, 2, 2]);
        assert_eq!(clustering.num_clusters, 3);
    }

    #[test]
    fn low_degree_vertices_merge_only_with_same_favored_cluster() {
        // Two stars whose hubs are connected: 0-(1,2) and 3-(4,5). The leaves of hub 0
        // favour cluster 0, the leaves of hub 3 favour cluster 3; two-hop matching may
        // merge leaves within a star but never across the two stars.
        let mut builder = graph::CsrGraphBuilder::new(6);
        builder.add_edge(0, 1, 2);
        builder.add_edge(0, 2, 2);
        builder.add_edge(3, 4, 2);
        builder.add_edge(3, 5, 2);
        builder.add_edge(0, 3, 1);
        let g = builder.build();
        let mut clustering = Clustering::singletons(6);
        let merged = two_hop_clustering(&g, &mut clustering, 2);
        assert!(
            merged >= 2,
            "expected both leaf pairs to merge, got {}",
            merged
        );
        assert_eq!(
            clustering.label[1], clustering.label[2],
            "star-0 leaves should merge"
        );
        assert_eq!(
            clustering.label[4], clustering.label[5],
            "star-3 leaves should merge"
        );
        assert_ne!(
            clustering.label[1], clustering.label[4],
            "leaves of different stars favour different clusters and must not merge"
        );
        let weights = clustering.cluster_weights(&g);
        assert!(weights.iter().all(|&w| w <= 2));
    }

    #[test]
    fn merging_reduces_singletons_enough_for_coarsening_to_progress() {
        // The coarsening driver invokes two-hop matching exactly when LP leaves too many
        // singletons; on a star the post-merge cluster count must fall below the shrink
        // threshold that triggered it.
        let g = gen::star(1_001);
        let mut clustering = Clustering::singletons(g.n());
        two_hop_clustering(&g, &mut clustering, 8);
        assert!(
            (clustering.num_clusters as f64) < 0.6 * g.n() as f64,
            "two-hop left {} of {} clusters",
            clustering.num_clusters,
            g.n()
        );
    }
}
