//! Cluster contraction: buffered (baseline) and one-pass (TeraPart) algorithms
//! (paper §IV-B).
//!
//! Given a clustering, contraction builds the coarse graph whose vertices are the
//! clusters and whose edge weights aggregate the fine edge weights between clusters. The
//! coarse graph is born compressed: coarse vertex `c` is the cluster whose label has rank
//! `c` among the populated labels (`LabelSet`), so the id of every neighbour is known the
//! moment a neighbourhood is aggregated. Each neighbourhood is sorted by id and encoded
//! gap-only ([`SectionEncoder`](graph::compressed::SectionEncoder)) into the bytes of the
//! coarse [`CompressedGraph`](graph::CompressedGraph), through the ordered packet commit
//! of parallel compression ([`commit_in_packet_order`]): workers claim packets of
//! [`PACKET_LEN`] consecutive coarse vertices, encode them into buffers of their own and
//! commit them in packet order. The bytes land in a reservation of [`reserved_bytes`] that
//! charges the pages they reach as they are written ([`GraphWriter`], the paper's
//! overcommit), so the `contract` phase's peak includes the level it builds, and the
//! level keeps that charge ([`CoarseGraph`]) until it drops. No coarse level is ever held
//! as CSR, and the numbering does not depend on the number of threads. The coarse node
//! weights are packed at a width fixed before the first packet is written: that of the
//! heavier of the cluster-weight limit and the heaviest fine vertex (a cluster of two or
//! more members is within the limit, a singleton weighs its vertex), 2 bytes a coarse
//! vertex on a mesh at k = 16 where 8 bytes were.
//!
//! * [`ContractionAlgorithm::Buffered`] aggregates every coarse neighbourhood into a
//!   buffer of its own first, then encodes the buffers — the coarse graph is held twice
//!   at the peak.
//! * [`ContractionAlgorithm::OnePass`] aggregates each neighbourhood in a worker's
//!   fixed-capacity table and encodes it at once. A cluster whose coarse neighbourhood
//!   exceeds the bump threshold is aggregated in a `SparseRatingMap` of `n′` entries
//!   shared by all workers, one bumped cluster at a time.
//!
//! The per-vertex auxiliary state belongs to the one contraction that uses it: allocated
//! for its level, charged to the memory accounting while it lives and freed when the
//! contraction returns. The vertices of each cluster are grouped with a flat two-pass
//! counting sort by rank (parallel count → blocked prefix sum → parallel scatter) into a
//! CSR-style `(offsets, members)` layout (`ClusterBuckets`), sized by `n′` but for the
//! `n` members, whose array becomes the fine-to-coarse mapping at the end. Only the
//! per-worker aggregation tables and neighbourhood buffers come from the run's
//! [`HierarchyScratch`] pool.

use std::sync::atomic::Ordering;

use graph::builder::{commit_in_packet_order, Packet};
use graph::compressed::GraphWriter;
use graph::ids;
use graph::traits::Graph;
use graph::varint::varint_len;
use graph::{AtomicNodeId, CompressionConfig, EdgeWeight, NodeId, NodeWeight};
use memtrack::MemoryScope;
use parking_lot::Mutex;
use rayon::prelude::*;

use crate::context::ContractionAlgorithm;
use crate::scratch::{HierarchyScratch, SharedSlice};
use crate::ClusterId;

use super::label_set::LabelSet;
use super::lp_clustering::Clustering;
use super::rating_map::{FixedCapacityHashMap, SparseRatingMap};
use super::CoarseGraph;

/// Result of contracting a clustering.
#[derive(Debug)]
pub struct ContractionResult {
    /// The coarse graph, compressed and charged. Coarse vertex weights are the summed
    /// weights of the cluster members; coarse edge weights aggregate all fine edges
    /// between the two clusters.
    pub coarse: CoarseGraph,
    /// `mapping[u]` is the coarse vertex that fine vertex `u` was contracted into.
    pub mapping: Vec<NodeId>,
}

/// Coarse vertices per packet of the ordered commit.
pub const PACKET_LEN: usize = 64;

/// Label-space block size of the parallel prefix sum in the bucket construction.
const LABEL_BLOCK: usize = 8192;

/// Contracts `clustering` on `graph` using the selected algorithm, with a fresh worker
/// pool. Prefer [`contract_with_scratch`] inside the multilevel pipeline, where one pool
/// serves every level. Without the clustering's weight limit, the coarse node weights
/// are packed at the width of the graph's total node weight.
pub fn contract(
    graph: &impl Graph,
    clustering: &Clustering,
    algorithm: ContractionAlgorithm,
    bump_threshold: usize,
) -> ContractionResult {
    let mut scratch = HierarchyScratch::new();
    let heaviest = graph.total_node_weight();
    contract_at(
        graph,
        clustering,
        algorithm,
        bump_threshold,
        heaviest,
        &mut scratch,
    )
}

/// Contracts `clustering` on `graph`, leasing per-worker buffers from `scratch`.
/// `max_cluster_weight` bounds every cluster of more than one vertex (the clustering's
/// weight limit); the coarse node weights are packed at the width of it or of the
/// heaviest vertex of `graph`, whichever is heavier.
pub fn contract_with_scratch(
    graph: &impl Graph,
    clustering: &Clustering,
    algorithm: ContractionAlgorithm,
    bump_threshold: usize,
    max_cluster_weight: NodeWeight,
    scratch: &mut HierarchyScratch,
) -> ContractionResult {
    let heaviest = max_cluster_weight.max(heaviest_node(graph));
    contract_at(
        graph,
        clustering,
        algorithm,
        bump_threshold,
        heaviest,
        scratch,
    )
}

/// The weight of the heaviest vertex of `graph`.
fn heaviest_node(graph: &impl Graph) -> NodeWeight {
    match graph.is_node_weighted() {
        true => (0..graph.n() as NodeId)
            .map(|u| graph.node_weight(u))
            .max()
            .unwrap_or(0),
        false => 1,
    }
}

/// Contraction whose coarse vertices weigh at most `heaviest`.
fn contract_at(
    graph: &impl Graph,
    clustering: &Clustering,
    algorithm: ContractionAlgorithm,
    bump_threshold: usize,
    heaviest: NodeWeight,
    scratch: &mut HierarchyScratch,
) -> ContractionResult {
    match algorithm {
        ContractionAlgorithm::Buffered => contract_buffered(graph, clustering, heaviest, scratch),
        ContractionAlgorithm::OnePass => {
            contract_one_pass(graph, clustering, bump_threshold, heaviest, scratch)
        }
    }
}

/// Bytes contraction reserves for the encoded neighbourhoods of `graph` contracted into
/// `n_coarse` clusters; only the pages the written ones reach are ever resident or
/// charged. A coarse graph has at most the `2m` half-edges of `graph`; a neighbourhood is
/// its degree (below `n_coarse`), then per half-edge a gap (the first one zigzag-signed,
/// so below `2 · n_coarse`) and a zigzag weight delta (below twice the total edge
/// weight, which bounds every coarse edge).
///
/// The bound trusts `total_edge_weight()`, which a `.tpg`-backed store reads from the
/// container header. If the header understates the edges, a contraction that outgrows
/// the reservation panics; it never writes past it.
pub fn reserved_bytes(graph: &impl Graph, n_coarse: usize) -> usize {
    let gap = varint_len(2 * n_coarse as u64);
    let weight = varint_len(2 * graph.total_edge_weight());
    n_coarse * varint_len(n_coarse as u64) + 2 * graph.m() * (gap + weight)
}

/// `len` atomics holding 0: a buffer the workers of one contraction write concurrently.
fn zeroed<T: Default>(len: usize) -> Vec<T> {
    std::iter::repeat_with(T::default).take(len).collect()
}

/// The vertices of each cluster label grouped into a flat CSR-style layout, owned by one
/// contraction and charged to the memory accounting while it lives. Bucket `b` is the
/// cluster whose label has rank `b` in the clustering's [`LabelSet`], which is coarse
/// vertex `b`: `members[offsets[b]..offsets[b + 1]]` are its fine vertices.
struct ClusterBuckets {
    labels: LabelSet,
    offsets: Vec<NodeId>,
    members: Vec<NodeId>,
    charge: MemoryScope<'static>,
}

impl ClusterBuckets {
    /// Counting sort by label rank: the populated labels are marked and ranked
    /// ([`LabelSet`]), then a parallel count per rank, a blocked parallel prefix sum
    /// over the `n′` counts, and a parallel scatter of the vertices through per-rank
    /// atomic cursors, which are freed once spent.
    fn build(clustering: &Clustering) -> Self {
        let labels = &clustering.label[..];
        let n = labels.len();
        let id = std::mem::size_of::<NodeId>();
        let set = LabelSet::of(labels);
        let n_coarse = set.len();
        // Per bucket: member count in pass 1, then the write cursor of the scatter.
        let heads: Vec<AtomicNodeId> = zeroed(n_coarse);
        let mut members: Vec<NodeId> = vec![0; n];
        let mut offsets: Vec<NodeId> = vec![0; n_coarse + 1];
        let mut charge = MemoryScope::charge_global((n + 2 * n_coarse + 1) * id);

        // ---- Pass 1: count members per bucket (heads[b] = |bucket b|). ----
        labels.par_chunks(LABEL_BLOCK).for_each(|chunk| {
            for &l in chunk {
                heads[set.rank(l) as usize].fetch_add(1, Ordering::Relaxed);
            }
        });

        // ---- Pass 2: blocked prefix sum over the bucket sizes. ----
        // Records the bucket boundaries and turns heads[b] into the bucket's write
        // cursor for the scatter pass; writes to disjoint index ranges per block.
        let block_totals: Vec<NodeId> = heads
            .par_chunks(LABEL_BLOCK)
            .map(|chunk| chunk.iter().map(|head| head.load(Ordering::Relaxed)).sum())
            .collect();
        let mut offset_base: NodeId = 0;
        let block_bases: Vec<NodeId> = block_totals
            .iter()
            .map(|&members| {
                let base = offset_base;
                offset_base += members;
                base
            })
            .collect();
        debug_assert_eq!(offset_base as usize, n);
        offsets[n_coarse] = ids::nid_count(n);
        offsets[..n_coarse]
            .par_chunks_mut(LABEL_BLOCK)
            .enumerate()
            .for_each(|(block, chunk)| {
                let mut offset = block_bases[block];
                let heads = &heads[block * LABEL_BLOCK..];
                for (start, head) in chunk.iter_mut().zip(heads) {
                    *start = offset;
                    offset += head.swap(offset, Ordering::Relaxed);
                }
            });

        // ---- Pass 3: scatter the vertices through the per-bucket cursors. ----
        {
            let members = SharedSlice::new(&mut members);
            labels
                .par_chunks(LABEL_BLOCK)
                .enumerate()
                .for_each(|(block, chunk)| {
                    let base = (block * LABEL_BLOCK) as NodeId;
                    for (i, &l) in chunk.iter().enumerate() {
                        let cursor = &heads[set.rank(l) as usize];
                        let position = cursor.fetch_add(1, Ordering::Relaxed);
                        // SAFETY: the atomic cursor hands out each position exactly once.
                        unsafe { members.write(position as usize, base + i as NodeId) };
                    }
                });
        }
        drop(heads);
        charge.shrink(n_coarse * id);
        Self {
            labels: set,
            offsets,
            members,
            charge,
        }
    }

    /// Number of coarse vertices.
    fn n_coarse(&self) -> usize {
        self.labels.len()
    }

    /// The fine vertices of coarse vertex `b`.
    fn members_of(&self, b: usize) -> &[NodeId] {
        &self.members[self.offsets[b] as usize..self.offsets[b + 1] as usize]
    }

    /// The coarse vertex of the cluster labelled `label`: the label's rank.
    #[inline]
    fn coarse_of(&self, label: ClusterId) -> NodeId {
        self.labels.rank(label)
    }

    /// The fine-to-coarse mapping, `mapping[u] = coarse_of(labels[u])`, written into the
    /// `members` array once the members are no longer needed: both hold one id per fine
    /// vertex, so the mapping costs no allocation of its own.
    fn take_members_as_mapping(&mut self, labels: &[ClusterId]) -> Vec<NodeId> {
        let mut mapping = std::mem::take(&mut self.members);
        self.charge
            .shrink(std::mem::size_of_val(mapping.as_slice()));
        mapping
            .par_chunks_mut(LABEL_BLOCK)
            .enumerate()
            .for_each(|(block, chunk)| {
                let labels = &labels[block * LABEL_BLOCK..];
                for (coarse, &label) in chunk.iter_mut().zip(labels) {
                    *coarse = self.coarse_of(label);
                }
            });
        mapping
    }

    /// Heap bytes of the two arrays and the label set.
    #[cfg(test)]
    fn memory_bytes(&self) -> usize {
        (self.offsets.len() + self.members.len()) * std::mem::size_of::<NodeId>()
            + self.labels.memory_bytes()
    }
}

/// Writes the coarse graph of `buckets`, whose neighbourhoods `aggregate` yields: given
/// coarse vertex `b`, a worker's rating table (`bump_threshold` keys) and its emptied
/// neighbourhood buffer, it fills the buffer with `b`'s `(coarse neighbour, weight)`
/// pairs, each neighbour once, and returns `b`'s node weight, at most `heaviest`. The
/// neighbourhoods are sorted and encoded gap-only in packets of [`PACKET_LEN`],
/// committed in order ([`commit_in_packet_order`]) into a reservation of
/// [`reserved_bytes`].
fn write_coarse_graph(
    graph: &impl Graph,
    buckets: &ClusterBuckets,
    bump_threshold: usize,
    heaviest: NodeWeight,
    scratch: &HierarchyScratch,
    aggregate: impl Fn(usize, &mut FixedCapacityHashMap, &mut Vec<(NodeId, EdgeWeight)>) -> NodeWeight
        + Sync,
) -> CoarseGraph {
    let n_coarse = buckets.n_coarse();
    // A coarse level's ids are cluster ranks: runs of consecutive ids are rare, and
    // interval encoding tripled the encode time of `weblike(14, 8)`'s level 1 to save
    // 2.4 % of its bytes.
    let writer = GraphWriter::new(
        n_coarse,
        reserved_bytes(graph, n_coarse),
        true,
        Some(heaviest),
        &CompressionConfig::gap_only(),
    );
    let packets: Vec<Packet> = (0..n_coarse)
        .step_by(PACKET_LEN)
        .map(|begin| Packet {
            begin: begin as NodeId,
            end: (begin + PACKET_LEN).min(n_coarse) as NodeId,
        })
        .collect();
    let threads = rayon::current_num_threads().max(1);
    // The workers' tables and neighbourhood buffers, for as long as they aggregate.
    let _worker_charge = MemoryScope::charge_global(
        threads
            * (FixedCapacityHashMap::new(bump_threshold).memory_bytes()
                + bump_threshold * std::mem::size_of::<(NodeId, EdgeWeight)>()),
    );
    let writer = commit_in_packet_order(
        writer,
        &packets,
        threads,
        || scratch.workers.checkout(),
        |packet, worker, encoder| {
            let (table, neighbors) = worker.contraction_buffers(bump_threshold);
            for b in packet.begin..packet.end {
                neighbors.clear();
                let weight = aggregate(b as usize, table, neighbors);
                neighbors.sort_unstable_by_key(|&(v, _)| v);
                encoder.push_neighborhood(b, neighbors, weight);
            }
        },
    );
    CoarseGraph::new(writer.finish())
}

/// Baseline contraction: aggregate every coarse neighbourhood into a buffer of its own,
/// then encode the buffers.
fn contract_buffered(
    graph: &impl Graph,
    clustering: &Clustering,
    heaviest: NodeWeight,
    scratch: &HierarchyScratch,
) -> ContractionResult {
    let mut buckets = ClusterBuckets::build(clustering);
    // Aggregate each coarse neighbourhood into its own buffer (this is the transient
    // second copy of the coarse graph that one-pass contraction eliminates).
    let buffers: Vec<(NodeWeight, Vec<(NodeId, EdgeWeight)>)> = (0..buckets.n_coarse())
        .into_par_iter()
        .map(|coarse| {
            let mut ratings: std::collections::HashMap<NodeId, EdgeWeight> =
                std::collections::HashMap::new();
            let mut weight: NodeWeight = 0;
            for &u in buckets.members_of(coarse) {
                weight += graph.node_weight(u);
                graph.for_each_neighbor(u, &mut |v, w| {
                    let target = buckets.coarse_of(clustering.label[v as usize]);
                    if target != coarse as NodeId {
                        *ratings.entry(target).or_insert(0) += w;
                    }
                });
            }
            (weight, ratings.into_iter().collect())
        })
        .collect();
    // Charge the transient buffers to the memory accounting: this is the extra copy of
    // the coarse graph that the paper's Figure 2 attributes to "Contraction".
    let buffer_bytes: usize = buffers
        .iter()
        .map(|(_, edges)| {
            edges.len() * (std::mem::size_of::<NodeId>() + std::mem::size_of::<EdgeWeight>())
        })
        .sum();
    let _scope = MemoryScope::charge_global(buffer_bytes);
    let coarse = write_coarse_graph(graph, &buckets, 0, heaviest, scratch, |b, _, neighbors| {
        let (weight, edges) = &buffers[b];
        neighbors.extend_from_slice(edges);
        *weight
    });
    let mapping = buckets.take_members_as_mapping(&clustering.label);
    ContractionResult { coarse, mapping }
}

/// One-pass contraction (paper §IV-B2): every coarse neighbourhood is aggregated and
/// encoded straight into the coarse graph's bytes, of which only the written ones are
/// ever resident.
fn contract_one_pass(
    graph: &impl Graph,
    clustering: &Clustering,
    bump_threshold: usize,
    heaviest: NodeWeight,
    scratch: &HierarchyScratch,
) -> ContractionResult {
    let mut buckets = ClusterBuckets::build(clustering);
    let n_coarse = buckets.n_coarse();
    let label = &clustering.label;
    // The rating map of the bumped clusters, built (and charged) at the first one.
    let bumped: Mutex<Option<(SparseRatingMap, MemoryScope<'static>)>> = Mutex::new(None);
    let coarse = write_coarse_graph(
        graph,
        &buckets,
        bump_threshold,
        heaviest,
        scratch,
        |b, table, neighbors| {
            let coarse = b as NodeId;
            let members = buckets.members_of(b);
            // The table is keyed by label: a neighbourhood's distinct labels are ranked
            // once each, not once per fine half-edge.
            let own = label[members[0] as usize];
            table.clear();
            let mut weight: NodeWeight = 0;
            let mut overflow = false;
            for &u in members {
                weight += graph.node_weight(u);
                graph.for_each_neighbor(u, &mut |v, w| {
                    let target = label[v as usize];
                    if !overflow && target != own && !table.add(target, w) {
                        overflow = true;
                    }
                });
                if overflow {
                    break;
                }
            }
            if !overflow {
                neighbors.extend(table.iter().map(|(l, w)| (buckets.coarse_of(l), w)));
                return weight;
            }
            // A bumped cluster: aggregated again, in the shared map, one at a time.
            let mut bumped = bumped.lock();
            let (map, _) = bumped.get_or_insert_with(|| {
                let map = SparseRatingMap::new(n_coarse);
                let charge = MemoryScope::charge_global(map.memory_bytes());
                (map, charge)
            });
            weight = 0;
            for &u in members {
                weight += graph.node_weight(u);
                graph.for_each_neighbor(u, &mut |v, w| {
                    let target = buckets.coarse_of(label[v as usize]);
                    if target != coarse {
                        map.add(target, w);
                    }
                });
            }
            neighbors.extend(map.iter());
            map.clear();
            weight
        },
    );
    let mapping = buckets.take_members_as_mapping(label);
    ContractionResult { coarse, mapping }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarsening::lp_clustering;
    use crate::context::CoarseningConfig;
    use graph::csr::CsrGraph;
    use graph::gen;
    use std::collections::HashMap;

    /// Computes the total weight of fine edges whose endpoints lie in different clusters.
    fn inter_cluster_weight(graph: &impl Graph, clustering: &Clustering) -> EdgeWeight {
        let mut total = 0;
        for u in 0..graph.n() as NodeId {
            graph.for_each_neighbor(u, &mut |v, w| {
                if u < v && clustering.label[u as usize] != clustering.label[v as usize] {
                    total += w;
                }
            });
        }
        total
    }

    fn check_contraction(graph: &impl Graph, clustering: &Clustering, result: &ContractionResult) {
        let coarse = &result.coarse;
        assert_eq!(coarse.n(), clustering.num_clusters);
        assert_eq!(result.mapping.len(), graph.n());
        // Node weight is preserved exactly.
        assert_eq!(coarse.total_node_weight(), graph.total_node_weight());
        // Coarse edge weight equals the weight of inter-cluster fine edges.
        assert_eq!(
            coarse.total_edge_weight(),
            inter_cluster_weight(graph, clustering)
        );
        // The mapping is consistent: two fine vertices share a coarse vertex iff they
        // share a cluster label.
        for u in 0..graph.n() {
            for v in (u + 1)..graph.n().min(u + 50) {
                let same_cluster = clustering.label[u] == clustering.label[v];
                let same_coarse = result.mapping[u] == result.mapping[v];
                assert_eq!(same_cluster, same_coarse, "vertices {} and {}", u, v);
            }
        }
        // Coarse node weights equal the summed fine weights per coarse vertex.
        let mut expected = vec![0u64; coarse.n()];
        for u in 0..graph.n() {
            expected[result.mapping[u] as usize] += graph.node_weight(u as NodeId);
        }
        for c in 0..coarse.n() as NodeId {
            assert_eq!(coarse.node_weight(c), expected[c as usize]);
        }
        // The coarse graph must be symmetric, and its neighbourhoods sorted by id.
        assert!(super::super::decode_csr(coarse).is_symmetric());
        for c in 0..coarse.n() as NodeId {
            let neighbors = coarse.neighbors_vec(c);
            assert!(neighbors.windows(2).all(|w| w[0].0 < w[1].0), "vertex {c}");
        }
    }

    fn lp_clustering_for(graph: &impl Graph, max_weight: NodeWeight) -> Clustering {
        let config = CoarseningConfig {
            bump_threshold: 8,
            ..Default::default()
        };
        lp_clustering::cluster(graph, &config, max_weight, 7)
    }

    #[test]
    fn singleton_clustering_reproduces_the_graph() {
        let g = gen::with_random_edge_weights(&gen::grid2d(8, 8), 5, 3);
        let clustering = Clustering::singletons(g.n());
        for algorithm in [
            ContractionAlgorithm::Buffered,
            ContractionAlgorithm::OnePass,
        ] {
            let result = contract(&g, &clustering, algorithm, 16);
            check_contraction(&g, &clustering, &result);
            assert_eq!(result.coarse.n(), g.n());
            assert_eq!(result.coarse.m(), g.m());
            assert_eq!(result.coarse.total_edge_weight(), g.total_edge_weight());
        }
    }

    #[test]
    fn everything_in_one_cluster_gives_a_single_vertex() {
        let g = gen::complete(10);
        let clustering = Clustering::from_labels(vec![3; 10]);
        for algorithm in [
            ContractionAlgorithm::Buffered,
            ContractionAlgorithm::OnePass,
        ] {
            let result = contract(&g, &clustering, algorithm, 16);
            assert_eq!(result.coarse.n(), 1);
            assert_eq!(result.coarse.m(), 0);
            assert_eq!(result.coarse.node_weight(0), 10);
            assert!(result.mapping.iter().all(|&c| c == 0));
        }
    }

    /// Asserts that `a` and `b` are the same contraction: the same mapping, and the same
    /// node weight and decoded neighbourhood at every coarse vertex.
    fn assert_equal(a: &ContractionResult, b: &ContractionResult, name: &str) {
        assert_eq!(a.coarse.n(), b.coarse.n(), "{}", name);
        assert_eq!(a.coarse.m(), b.coarse.m(), "{}", name);
        assert_eq!(a.mapping, b.mapping, "{}", name);
        for c in 0..a.coarse.n() as NodeId {
            assert_eq!(a.coarse.node_weight(c), b.coarse.node_weight(c), "{}", name);
            assert_eq!(
                a.coarse.neighbors_vec(c),
                b.coarse.neighbors_vec(c),
                "{}",
                name
            );
        }
        assert_eq!(
            a.coarse.compressed().encoded_data_bytes(),
            b.coarse.compressed().encoded_data_bytes(),
            "{}",
            name
        );
    }

    /// `graph` with `extra` added to every edge weight.
    fn heavier(graph: &CsrGraph, extra: EdgeWeight) -> CsrGraph {
        let mut builder = graph::CsrGraphBuilder::new(graph.n());
        for u in 0..graph.n() as NodeId {
            graph.for_each_neighbor(u, &mut |v, w| {
                if u < v {
                    builder.add_edge(u, v, w + extra);
                }
            });
        }
        builder.build()
    }

    /// A clustering of `n > 3 · LABEL_BLOCK` vertices, built by hand: labels 0 and
    /// `n − 1` are empty, and so is the whole second label block, whose vertices joined
    /// clusters of the third; vertex 5 left its own label for label 9, while vertices 6
    /// and 7 hold label 5; every other vertex is a singleton.
    fn hand_built_clustering(n: usize) -> Clustering {
        assert!(n > 3 * LABEL_BLOCK);
        let mut label: Vec<ClusterId> = (0..n as ClusterId).collect();
        label[0] = 1;
        label[n - 1] = (n - 2) as ClusterId;
        label[5] = 9;
        label[6] = 5;
        label[7] = 5;
        for (u, l) in label.iter_mut().enumerate() {
            if (LABEL_BLOCK..2 * LABEL_BLOCK).contains(&u) {
                *l = (2 * LABEL_BLOCK + u % 7) as ClusterId;
            }
        }
        Clustering::from_labels(label)
    }

    #[test]
    fn buckets_indexed_by_rank_agree_with_a_hash_map_oracle() {
        let n = 3 * LABEL_BLOCK + 100;
        let clustering = hand_built_clustering(n);
        // The oracle: label -> its members, in vertex order.
        let mut clusters: HashMap<ClusterId, Vec<NodeId>> = HashMap::new();
        for (u, &l) in clustering.label.iter().enumerate() {
            clusters.entry(l).or_default().push(u as NodeId);
        }
        let mut leaders: Vec<ClusterId> = clusters.keys().copied().collect();
        leaders.sort_unstable();
        for empty in [0, LABEL_BLOCK, 2 * LABEL_BLOCK - 1, n - 1] {
            assert!(!clusters.contains_key(&(empty as ClusterId)));
        }
        assert_eq!(clusters[&5], vec![6, 7]);
        assert_eq!(clusters[&9], vec![5, 9]);
        for threads in [1, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let buckets = pool.install(|| ClusterBuckets::build(&clustering));
            assert_eq!(buckets.labels.labels(), leaders, "{threads} threads");
            let mut offset = 0;
            for (b, leader) in leaders.iter().enumerate() {
                assert_eq!(buckets.offsets[b] as usize, offset, "{threads} threads");
                let mut members = buckets.members_of(b).to_vec();
                members.sort_unstable();
                assert_eq!(members, clusters[leader], "{threads} threads");
                offset += members.len();
            }
            assert_eq!(buckets.offsets[leaders.len()] as usize, n);
            // A populated label's coarse vertex is its index among the leaders.
            for (b, &leader) in leaders.iter().enumerate() {
                assert_eq!(buckets.coarse_of(leader) as usize, b, "{threads} threads");
            }
            let mapping: Vec<NodeId> = clustering
                .label
                .iter()
                .map(|&l| leaders.binary_search(&l).unwrap() as NodeId)
                .collect();
            let mut buckets = buckets;
            assert_eq!(
                buckets.take_members_as_mapping(&clustering.label),
                mapping,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn both_algorithms_produce_equivalent_graphs() {
        // Coarse vertices are label ranks, so both algorithms give one graph at any thread
        // count and bump threshold. "heavy" weighs every edge at least 2^33, so nothing
        // may truncate the weights. The "rgg" instance is large enough (n′ > 4096 at
        // cluster weight 3) for the packets to really spread over two threads. The last
        // clustering is built by hand, with empty labels at both ends and an empty label
        // block.
        let weighted = gen::with_random_edge_weights(&gen::erdos_renyi(300, 1200, 2), 9, 4);
        let clustered = [
            ("grid", gen::grid2d(15, 15), 8),
            ("powerlaw", gen::rhg_like(600, 8, 3.0, 5), 8),
            ("weighted", weighted.clone(), 8),
            ("heavy", heavier(&weighted, 1 << 33), 8),
            ("rgg", gen::rgg2d(20_000, 10, 3), 3),
        ]
        .map(|(name, g, max_weight)| {
            let clustering = lp_clustering_for(&g, max_weight);
            (name, g, clustering)
        });
        let hand_built_n = 3 * LABEL_BLOCK + 100;
        let hand_built = (
            "hand-built",
            gen::rgg2d(hand_built_n, 8, 4),
            hand_built_clustering(hand_built_n),
        );
        for (name, g, clustering) in clustered.into_iter().chain([hand_built]) {
            let reference = contract(&g, &clustering, ContractionAlgorithm::Buffered, 16);
            check_contraction(&g, &clustering, &reference);
            // Threshold 4 sends most clusters of these instances through the bumped
            // (shared sparse-map) path.
            for (threads, bump_threshold) in [(1, 16), (1, 4), (2, 16), (2, 4)] {
                let name = format!("{name}, {threads} threads, bump threshold {bump_threshold}");
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                for algorithm in [
                    ContractionAlgorithm::Buffered,
                    ContractionAlgorithm::OnePass,
                ] {
                    let result =
                        pool.install(|| contract(&g, &clustering, algorithm, bump_threshold));
                    assert_equal(&result, &reference, &format!("{name}, {algorithm:?}"));
                }
            }
            if name == "heavy" {
                let coarse = &reference.coarse;
                assert!(coarse.m() > 0, "{name}");
                for c in 0..coarse.n() as NodeId {
                    coarse.for_each_neighbor(c, &mut |_, w| {
                        assert!(w >= 1 << 33, "{name}: a coarse weight lost its high bytes")
                    });
                }
            }
        }
    }

    #[test]
    fn one_pass_handles_high_fanout_clusters_via_second_phase() {
        // Clustering the star's leaves into many tiny clusters gives the hub cluster a
        // huge coarse degree, forcing the bump path with a tiny threshold.
        let g = gen::star(300);
        let labels: Vec<ClusterId> = (0..300 as ClusterId)
            .map(|u| if u == 0 { 0 } else { u })
            .collect();
        let clustering = Clustering::from_labels(labels);
        let result = contract(&g, &clustering, ContractionAlgorithm::OnePass, 4);
        check_contraction(&g, &clustering, &result);
        assert_eq!(result.coarse.n(), 300);
        assert_eq!(result.coarse.max_degree(), 299);
    }

    #[test]
    fn contraction_after_real_clustering_shrinks_the_graph() {
        let g = gen::rgg2d(1000, 10, 9);
        let clustering = lp_clustering_for(&g, 8);
        let result = contract(&g, &clustering, ContractionAlgorithm::OnePass, 32);
        check_contraction(&g, &clustering, &result);
        assert!(
            result.coarse.n() < g.n() / 2,
            "coarse graph too large: {}",
            result.coarse.n()
        );
        assert!(result.coarse.m() <= g.m());
    }

    #[test]
    fn empty_graph_contracts_to_empty_graph() {
        let g = graph::CsrGraphBuilder::new(0).build();
        let clustering = Clustering::singletons(0);
        for algorithm in [
            ContractionAlgorithm::Buffered,
            ContractionAlgorithm::OnePass,
        ] {
            let result = contract(&g, &clustering, algorithm, 8);
            assert_eq!(result.coarse.n(), 0);
            assert_eq!(result.coarse.m(), 0);
        }
    }

    #[test]
    fn flat_buckets_partition_the_vertex_set() {
        let g = gen::rgg2d(800, 9, 4);
        let clustering = lp_clustering_for(&g, 8);
        let buckets = ClusterBuckets::build(&clustering);
        let n_coarse = buckets.n_coarse();
        assert_eq!(n_coarse, clustering.num_clusters);
        assert_eq!(buckets.offsets[0], 0);
        assert_eq!(buckets.offsets[n_coarse] as usize, g.n());
        let leaders = buckets.labels.labels();
        let mut seen = vec![false; g.n()];
        for (b, &leader) in leaders.iter().enumerate() {
            assert!(!buckets.members_of(b).is_empty(), "bucket {} is empty", b);
            for &u in buckets.members_of(b) {
                assert!(!seen[u as usize], "vertex {} scattered twice", u);
                seen[u as usize] = true;
                assert_eq!(clustering.label[u as usize], leader);
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Leaders are the distinct labels in increasing order.
        assert!(leaders.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn each_level_sizes_its_own_buckets() {
        // Contract three shrinking levels through one arena: every level stays valid and
        // builds buckets sized by itself rather than by the first level.
        let g = gen::rgg2d(1500, 12, 6);
        let mut scratch = HierarchyScratch::new();
        let mut coarse: Option<CoarseGraph> = None;
        let mut bucket_bytes = Vec::new();
        for _ in 0..3 {
            let current: &dyn Graph = match &coarse {
                Some(coarse) => coarse,
                None => &g,
            };
            let clustering = lp_clustering_for(&current, 8);
            if clustering.num_clusters == current.n() {
                break;
            }
            bucket_bytes.push(ClusterBuckets::build(&clustering).memory_bytes());
            let result = contract_with_scratch(
                &current,
                &clustering,
                ContractionAlgorithm::OnePass,
                16,
                8,
                &mut scratch,
            );
            check_contraction(&current, &clustering, &result);
            coarse = Some(result.coarse);
        }
        assert!(bucket_bytes.len() >= 2, "fewer than two levels contracted");
        assert!(
            bucket_bytes.windows(2).all(|w| w[1] < w[0]),
            "bucket bytes {bucket_bytes:?} do not shrink with the levels"
        );
    }

    #[test]
    fn one_pass_sizes_coarse_vertex_buffers_by_the_coarse_graph() {
        let g = gen::rgg2d(6000, 12, 8);
        let clustering = lp_clustering_for(&g, 24);
        let (n, n_coarse) = (g.n(), clustering.num_clusters);
        assert!(n_coarse * 8 < n, "n′ = {} is not ≪ n = {}", n_coarse, n);
        // Members are indexed by fine vertex, offsets by coarse vertex; the label set's n
        // bits and per-word counts rank the labels.
        let buckets = ClusterBuckets::build(&clustering);
        assert_eq!(buckets.n_coarse(), n_coarse);
        let id = std::mem::size_of::<NodeId>();
        let rank_bytes = n.div_ceil(64) * (8 + id);
        assert_eq!(
            buckets.memory_bytes(),
            n * id + (n_coarse + 1) * id + rank_bytes
        );
        // The coarse graph is charged at exactly its size, far below the reservation.
        let result = contract(&g, &clustering, ContractionAlgorithm::OnePass, 16);
        check_contraction(&g, &clustering, &result);
        assert_eq!(
            result.coarse.size_in_bytes(),
            result.coarse.compressed().size_in_bytes()
        );
        assert!(result.coarse.compressed().encoded_data_bytes() < reserved_bytes(&g, n_coarse) / 4);
    }
}
