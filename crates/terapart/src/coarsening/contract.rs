//! Cluster contraction: buffered (baseline) and one-pass (TeraPart) algorithms
//! (paper §IV-B).
//!
//! Given a clustering, contraction builds the coarse graph whose vertices are the
//! clusters and whose edge weights aggregate the fine edge weights between clusters.
//!
//! * [`ContractionAlgorithm::Buffered`] aggregates the coarse neighbourhoods into
//!   per-cluster buffers, computes the degree prefix sum, and then copies the buffers
//!   into the CSR arrays — the coarse graph is held in memory twice at the peak.
//! * [`ContractionAlgorithm::OnePass`] appends each coarse neighbourhood directly to the
//!   coarse edge arrays as soon as it has been aggregated. The arrays are the ones the
//!   coarse graph will own: `Vec`s *reserved* for the upper bound of `2m` entries and
//!   never filled, so only the pages that receive one of the `2m′` committed entries
//!   are ever resident (the paper's overcommit; [`memtrack::ReservedVec`] models the
//!   same thing for the compressed edge array). The write position and the new coarse
//!   vertex ID are obtained from a single atomic transaction on the [`DualCounter`];
//!   vertex IDs are assigned in commit order, so the neighbourhoods of consecutive
//!   coarse IDs are consecutive in the edge array and no shuffling is needed. At the
//!   very end endpoints are remapped from old cluster labels to new coarse IDs and the
//!   neighbourhoods sorted, both in place, and the arrays are cut to their committed
//!   length — the coarse edges are never copied. The edge weights are written packed at
//!   [`reserved_weight_width`] bytes each and narrowed in place to the width of the
//!   heaviest coarse edge, the width the coarse CSR keeps them at.
//!
//! Buffered contraction aggregates each cluster's coarse neighbourhood in a
//! `std::collections::HashMap` of its own. One-pass contraction uses the two-phase
//! aggregation idea: clusters whose coarse neighbourhood exceeds the bump threshold are
//! deferred to a sequential second phase that may use an `O(n)` rating map.
//!
//! The per-vertex auxiliary state belongs to the one contraction that uses it: allocated
//! for its level, charged to the memory accounting while it lives and freed when the
//! contraction returns. Everything per cluster is indexed by the rank of its label among
//! the populated labels (`LabelSet`), so it is sized by `n′`, which the label set knows
//! before any of it is touched; only the member array holds `n` ids. The vertices of
//! each cluster are grouped with a flat two-pass counting sort by rank (parallel count →
//! blocked prefix sum → parallel scatter, whose spent cursors become the coarse-id
//! remap) into a CSR-style `(offsets, members)` layout (`ClusterBuckets`), replacing the
//! seed's `Vec<Vec<NodeId>>` bucket structure and its one-allocation-per-coarse-vertex
//! cost. Only the per-worker aggregation tables and sort buffers come from the run's
//! [`HierarchyScratch`] pool.

use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};

use graph::csr::CsrGraph;
use graph::ids;
use graph::packed::{self, PackedArray};
use graph::traits::Graph;
use graph::{AtomicNodeId, EdgeId, EdgeWeight, NodeId, NodeWeight};
use memtrack::MemoryScope;
use rayon::prelude::*;

use crate::context::ContractionAlgorithm;
use crate::dual_counter::DualCounter;
use crate::scratch::{HierarchyScratch, Pool, SharedSlice, WorkerScratch};
use crate::ClusterId;

use super::label_set::LabelSet;
use super::lp_clustering::Clustering;
use super::rating_map::{FixedCapacityHashMap, SparseRatingMap};

/// Result of contracting a clustering.
#[derive(Debug, Clone)]
pub struct ContractionResult {
    /// The coarse graph. Coarse vertex weights are the summed weights of the cluster
    /// members; coarse edge weights aggregate all fine edges between the two clusters.
    pub coarse: CsrGraph,
    /// `mapping[u]` is the coarse vertex that fine vertex `u` was contracted into.
    pub mapping: Vec<NodeId>,
}

/// Number of fine half-edges batched per dual-counter transaction in one-pass
/// contraction (reduces contention on the atomic counter, paper §IV-B2).
const BATCH_EDGE_CAPACITY: usize = 4096;

/// Label-space block size of the parallel prefix sum in the bucket construction.
const LABEL_BLOCK: usize = 8192;

/// Contracts `clustering` on `graph` using the selected algorithm, with a fresh worker
/// pool. Prefer [`contract_with_scratch`] inside the multilevel pipeline, where one pool
/// serves every level.
pub fn contract(
    graph: &impl Graph,
    clustering: &Clustering,
    algorithm: ContractionAlgorithm,
    bump_threshold: usize,
) -> ContractionResult {
    let mut scratch = HierarchyScratch::new();
    contract_with_scratch(graph, clustering, algorithm, bump_threshold, &mut scratch)
}

/// Contracts `clustering` on `graph`, leasing per-worker buffers from `scratch`.
pub fn contract_with_scratch(
    graph: &impl Graph,
    clustering: &Clustering,
    algorithm: ContractionAlgorithm,
    bump_threshold: usize,
    scratch: &mut HierarchyScratch,
) -> ContractionResult {
    match algorithm {
        ContractionAlgorithm::Buffered => contract_buffered(graph, clustering),
        ContractionAlgorithm::OnePass => {
            contract_one_pass(graph, clustering, bump_threshold, scratch)
        }
    }
}

/// `len` atomics holding 0: a buffer the workers of one contraction write concurrently.
fn zeroed<T: Default>(len: usize) -> Vec<T> {
    std::iter::repeat_with(T::default).take(len).collect()
}

/// The vertices of each cluster label grouped into a flat CSR-style layout, owned by one
/// contraction and charged to the memory accounting while it lives. Bucket `b` is the
/// cluster whose label has rank `b` in the clustering's [`LabelSet`], so every array
/// but `members` has `n′` entries:
///
/// * `leaders[b]` is the cluster label of bucket `b`;
/// * `members[offsets[b]..offsets[b + 1]]` are the fine vertices of bucket `b`;
/// * `remap[b]` is the coarse vertex of bucket `b`: `b` itself after the build, the
///   commit order once one-pass contraction has renumbered it. A label's coarse vertex
///   is `remap[rank(label)]` ([`Self::coarse_of`]). It is the construction's per-bucket
///   count array, reused.
struct ClusterBuckets {
    labels: LabelSet,
    offsets: Vec<NodeId>,
    members: Vec<NodeId>,
    leaders: Vec<ClusterId>,
    remap: Vec<AtomicNodeId>,
    charge: MemoryScope<'static>,
}

impl ClusterBuckets {
    /// Counting sort by label rank: the populated labels are marked and ranked
    /// ([`LabelSet`]), then a parallel count per rank, a blocked parallel prefix sum
    /// over the `n′` counts, and a parallel scatter of the vertices through per-rank
    /// atomic cursors. Ranks follow label order, so they are the coarse IDs, and the
    /// leaders are read off the label set in order.
    fn build(clustering: &Clustering) -> Self {
        let labels = &clustering.label[..];
        let n = labels.len();
        let id = std::mem::size_of::<NodeId>();
        let set = LabelSet::of(labels);
        let n_coarse = set.len();
        // Per bucket: member count in pass 1, the write cursor of the scatter, then the
        // bucket's coarse ID.
        let heads: Vec<AtomicNodeId> = zeroed(n_coarse);
        let mut members: Vec<NodeId> = vec![0; n];
        let mut offsets: Vec<NodeId> = vec![0; n_coarse + 1];
        let leaders = set.labels();
        let charge = MemoryScope::charge_global((n + 3 * n_coarse + 1) * id);

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

        // The spent cursors become the identity remap: bucket b is coarse vertex b.
        heads
            .par_chunks(LABEL_BLOCK)
            .enumerate()
            .for_each(|(block, chunk)| {
                for (i, head) in chunk.iter().enumerate() {
                    head.store((block * LABEL_BLOCK + i) as NodeId, Ordering::Relaxed);
                }
            });
        Self {
            labels: set,
            offsets,
            members,
            leaders,
            remap: heads,
            charge,
        }
    }

    /// Number of coarse vertices.
    fn n_coarse(&self) -> usize {
        self.leaders.len()
    }

    /// The fine vertices of coarse vertex `b`.
    fn members_of(&self, b: usize) -> &[NodeId] {
        &self.members[self.offsets[b] as usize..self.offsets[b + 1] as usize]
    }

    /// The coarse vertex of the cluster labelled `label`.
    #[inline]
    fn coarse_of(&self, label: ClusterId) -> NodeId {
        self.remap[self.labels.rank(label) as usize].load(Ordering::Relaxed)
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

    /// Heap bytes of the four arrays and the label set.
    #[cfg(test)]
    fn memory_bytes(&self) -> usize {
        (self.offsets.len() + self.members.len() + self.leaders.len() + self.remap.len())
            * std::mem::size_of::<NodeId>()
            + self.labels.memory_bytes()
    }
}

/// Baseline contraction: aggregate into per-cluster buffers, then copy into CSR arrays.
fn contract_buffered(graph: &impl Graph, clustering: &Clustering) -> ContractionResult {
    let n = graph.n();
    if n == 0 {
        return ContractionResult {
            coarse: graph::CsrGraphBuilder::new(0).build(),
            mapping: Vec::new(),
        };
    }
    let buckets = ClusterBuckets::build(clustering);
    let n_coarse = buckets.n_coarse();
    let mapping: Vec<NodeId> = (0..n)
        .into_par_iter()
        .map(|u| buckets.coarse_of(clustering.label[u]))
        .collect();

    // Aggregate each coarse neighbourhood into its own buffer (this is the transient
    // second copy of the coarse graph that one-pass contraction eliminates).
    let buffers: Vec<(NodeWeight, Vec<(NodeId, EdgeWeight)>)> = (0..n_coarse)
        .into_par_iter()
        .map(|coarse| {
            let cluster = buckets.members_of(coarse);
            let mut ratings: std::collections::HashMap<NodeId, EdgeWeight> =
                std::collections::HashMap::new();
            let mut weight: NodeWeight = 0;
            for &u in cluster {
                weight += graph.node_weight(u);
                graph.for_each_neighbor(u, &mut |v, w| {
                    let target = mapping[v as usize];
                    if target != coarse as NodeId {
                        *ratings.entry(target).or_insert(0) += w;
                    }
                });
            }
            let mut edges: Vec<(NodeId, EdgeWeight)> = ratings.into_iter().collect();
            edges.sort_unstable_by_key(|&(v, _)| v);
            (weight, edges)
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

    // Prefix sum over degrees, then copy the buffers into the CSR arrays.
    let mut xadj: Vec<EdgeId> = Vec::with_capacity(n_coarse + 1);
    xadj.push(0);
    let mut acc: EdgeId = 0;
    for (_, edges) in &buffers {
        acc += edges.len() as EdgeId;
        xadj.push(acc);
    }
    let mut adjacency: Vec<NodeId> = Vec::with_capacity(acc as usize);
    let mut edge_weights: Vec<EdgeWeight> = Vec::with_capacity(acc as usize);
    let mut node_weights: Vec<NodeWeight> = Vec::with_capacity(n_coarse);
    for (weight, edges) in &buffers {
        node_weights.push(*weight);
        for &(v, w) in edges {
            adjacency.push(v);
            edge_weights.push(w);
        }
    }
    let coarse = CsrGraph::from_parts(xadj, adjacency, edge_weights, node_weights);
    ContractionResult { coarse, mapping }
}

/// A buffered batch of aggregated coarse neighbourhoods awaiting a dual-counter
/// transaction. Leased per chunk as part of a
/// [`WorkerScratch`](crate::scratch::WorkerScratch), so the per-chunk table/batch
/// allocations of the seed implementation disappear without pinning the buffers to OS
/// threads for the process lifetime.
pub(crate) struct Batch {
    /// (bucket, node weight, number of edges) per coarse vertex in the batch.
    vertices: Vec<(NodeId, NodeWeight, u32)>,
    /// Concatenated (old target label, weight) pairs.
    edges: Vec<(ClusterId, EdgeWeight)>,
}

impl Batch {
    pub(crate) fn new() -> Self {
        Self {
            vertices: Vec::new(),
            edges: Vec::with_capacity(BATCH_EDGE_CAPACITY),
        }
    }

    fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Heap bytes held by the batch.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.vertices.capacity() * std::mem::size_of::<(NodeId, NodeWeight, u32)>()
            + self.edges.capacity() * std::mem::size_of::<(ClusterId, EdgeWeight)>()
    }
}

/// Bytes per coarse edge weight that one-pass contraction reserves when it contracts
/// `graph`: the packed width of `graph`'s total edge weight, which bounds the weight of
/// every coarse edge (the sum of the fine edges between two clusters). Contraction
/// narrows the written weights to the width of the heaviest before it returns.
///
/// The width trusts `total_edge_weight()`. An in-memory graph sums it from its edges; a
/// `.tpg`-backed store reads it from the container header, which the header crc guards
/// against corruption but nothing checks against the data section. If it understates
/// the edges, contraction panics ("does not fit") instead of returning truncated
/// weights: the heaviest edge is tracked at full width and checked when the weights
/// are narrowed.
pub fn reserved_weight_width(graph: &impl Graph) -> usize {
    packed::width_for(graph.total_edge_weight())
}

/// What the workers of one-pass contraction write concurrently: the per-coarse-vertex
/// buffers, the buckets' remap and the reserved, still uninitialised coarse edge arrays.
struct OnePassOutput<'a> {
    dual: DualCounter,
    starts: &'a [AtomicU64],
    node_weights: &'a [AtomicU64],
    remap: &'a [AtomicNodeId],
    reserved_half_edges: usize,
    coarse_targets: SharedSlice<'a, MaybeUninit<NodeId>>,
    /// The coarse edge weights, `weight_width` bytes each.
    coarse_weights: SharedSlice<'a, MaybeUninit<u8>>,
    weight_width: usize,
    /// The heaviest coarse edge committed so far.
    max_weight: AtomicU64,
}

impl OnePassOutput<'_> {
    /// One dual-counter transaction: claims the next `edges` slots of the edge arrays and
    /// the next `vertices` coarse IDs and returns the first of each. The claimed ranges
    /// are disjoint and contiguous from 0. A clustering of the contracted graph commits
    /// at most one entry per fine half-edge; the unchecked writes of [`Self::commit`]
    /// rest on this check, made once per transaction.
    fn claim(&self, edges: usize, vertices: usize) -> (usize, usize) {
        let (d_prev, s_prev) = self.dual.fetch_add(edges as u64, vertices as u64);
        assert!(
            d_prev as usize + edges <= self.reserved_half_edges
                && s_prev as usize + vertices <= self.starts.len(),
            "one-pass contraction overran its reservation of {} half-edges / {} vertices",
            self.reserved_half_edges,
            self.starts.len()
        );
        (d_prev as usize, s_prev as usize)
    }

    /// Commits coarse vertex `coarse_id` (contracted from bucket `bucket`): its `edges`
    /// (old target labels until the final remap) go to the slots from `first_edge` on.
    /// Returns the heaviest of the edges.
    ///
    /// # Safety
    /// `coarse_id` and `[first_edge, first_edge + edges.count())` must lie inside what one
    /// [`Self::claim`] of the calling worker returned, and be committed only once.
    unsafe fn commit(
        &self,
        coarse_id: usize,
        first_edge: usize,
        bucket: usize,
        weight: NodeWeight,
        edges: impl Iterator<Item = (ClusterId, EdgeWeight)>,
    ) -> EdgeWeight {
        self.starts[coarse_id].store(first_edge as u64, Ordering::Relaxed);
        self.node_weights[coarse_id].store(weight, Ordering::Relaxed);
        self.remap[bucket].store(coarse_id as NodeId, Ordering::Relaxed);
        // SAFETY: the caller's contract.
        graph::with_width!(self.weight_width, |W| unsafe {
            self.write_edges::<W>(first_edge, edges)
        })
    }

    /// The edge loop of [`Self::commit`], at weight width `W`; returns the heaviest edge.
    ///
    /// # Safety
    /// As [`Self::commit`].
    unsafe fn write_edges<const W: usize>(
        &self,
        first_edge: usize,
        edges: impl Iterator<Item = (ClusterId, EdgeWeight)>,
    ) -> EdgeWeight {
        debug_assert_eq!(W, self.weight_width);
        let mut max_weight = 0;
        for (e, (target, w)) in (first_edge..).zip(edges) {
            // SAFETY: in bounds and written by no other worker, by the caller's contract.
            // The weight store writes exactly the `W` bytes of slot `e`: a wider store
            // would reach into the next slot, which may be another worker's.
            unsafe {
                self.coarse_targets.write(e, MaybeUninit::new(target));
                packed::store_uninit(self.coarse_weights.slice_mut(e * W, (e + 1) * W), w);
            }
            max_weight = max_weight.max(w);
        }
        max_weight
    }

    /// Records that edges up to `weight` were committed.
    fn saw_weight(&self, weight: EdgeWeight) {
        self.max_weight.fetch_max(weight, Ordering::Relaxed);
    }
}

/// One-pass contraction (paper §IV-B2): the coarse edge arrays are built in place in a
/// reservation of `2m` entries of which only the `2m′` written ones are ever resident.
/// The weights are reserved at [`reserved_weight_width`] bytes each and narrowed to the
/// width of the heaviest coarse edge at the end, so no 8-byte weight array is built.
fn contract_one_pass(
    graph: &impl Graph,
    clustering: &Clustering,
    bump_threshold: usize,
    scratch: &mut HierarchyScratch,
) -> ContractionResult {
    let n = graph.n();
    if n == 0 {
        return ContractionResult {
            coarse: graph::CsrGraphBuilder::new(0).build(),
            mapping: Vec::new(),
        };
    }
    let mut buckets = ClusterBuckets::build(clustering);
    let n_coarse = buckets.n_coarse();
    // Per coarse vertex: neighbourhood start in the edge arrays, aggregated node weight.
    let starts: Vec<AtomicU64> = zeroed(n_coarse);
    let coarse_node_weights: Vec<AtomicU64> = zeroed(n_coarse);
    let _vertex_charge =
        MemoryScope::charge_global(2 * n_coarse * std::mem::size_of::<AtomicU64>());
    // Reserved, not filled: an untouched page of the capacity is never backed. The
    // weights' reservation leaves room for the packed array's tail padding.
    let reserved_half_edges = 2 * graph.m();
    let width = reserved_weight_width(graph);
    let mut adjacency: Vec<NodeId> = Vec::with_capacity(reserved_half_edges);
    let mut edge_weights: Vec<u8> =
        Vec::with_capacity(reserved_half_edges * width + packed::TAIL_PADDING);

    let leaders = &buckets.leaders;
    let remap = &buckets.remap;
    let workers = &scratch.workers;
    let output = OnePassOutput {
        dual: DualCounter::new(),
        starts: &starts,
        node_weights: &coarse_node_weights,
        remap,
        reserved_half_edges,
        coarse_targets: SharedSlice::new(
            &mut adjacency.spare_capacity_mut()[..reserved_half_edges],
        ),
        coarse_weights: SharedSlice::new(
            &mut edge_weights.spare_capacity_mut()[..reserved_half_edges * width],
        ),
        weight_width: width,
        max_weight: AtomicU64::new(0),
    };
    let flush_batch = |batch: &mut Batch| {
        if batch.is_empty() {
            return;
        }
        let (mut first_edge, first_vertex) = output.claim(batch.edges.len(), batch.vertices.len());
        let mut edges = batch.edges.iter().copied();
        let mut max_weight = 0;
        for (i, &(bucket, weight, len)) in batch.vertices.iter().enumerate() {
            let len = len as usize;
            // SAFETY: the batch's vertices split the claimed edge range in order:
            // `batch.edges.len()` is the sum of their `len`s.
            let heaviest = unsafe {
                output.commit(
                    first_vertex + i,
                    first_edge,
                    bucket as usize,
                    weight,
                    edges.by_ref().take(len),
                )
            };
            max_weight = max_weight.max(heaviest);
            first_edge += len;
        }
        output.saw_weight(max_weight);
        batch.vertices.clear();
        batch.edges.clear();
    };

    // ---- First phase: clusters in parallel, fixed-capacity hash tables, batching. ----
    // Account the per-worker aggregation state (rating table + dual-counter batch,
    // reused via the arena's worker pool) for the duration of the phase.
    let _agg_scope = MemoryScope::charge_global(
        rayon::current_num_threads().max(1)
            * (FixedCapacityHashMap::new(bump_threshold).memory_bytes()
                + BATCH_EDGE_CAPACITY * std::mem::size_of::<(ClusterId, EdgeWeight)>()),
    );
    let bumped: Vec<usize> = leaders
        .par_chunks(64)
        .enumerate()
        .map(|(chunk_index, chunk)| {
            // Reuse a pooled worker's table and batch across chunks (and across calls);
            // the lease returns them to the arena's pool when the chunk is done.
            let mut worker = workers.checkout();
            let needs_new = match &worker.agg {
                Some((table, _)) => table.limit() != bump_threshold,
                None => true,
            };
            if needs_new {
                worker.agg = Some((FixedCapacityHashMap::new(bump_threshold), Batch::new()));
            }
            let Some((table, batch)) = worker.agg.as_mut() else {
                unreachable!()
            };
            table.clear();
            let mut bumped = Vec::new();
            for (i, &label) in chunk.iter().enumerate() {
                let idx = chunk_index * 64 + i;
                table.clear();
                let mut weight: NodeWeight = 0;
                let mut overflow = false;
                for &u in buckets.members_of(idx) {
                    weight += graph.node_weight(u);
                    graph.for_each_neighbor(u, &mut |v, w| {
                        let target_label = clustering.label[v as usize];
                        if !overflow && target_label != label && !table.add(target_label, w) {
                            overflow = true;
                        }
                    });
                    if overflow {
                        break;
                    }
                }
                if overflow {
                    bumped.push(idx);
                    continue;
                }
                let len = table.len() as u32;
                if batch.edges.len() + len as usize > BATCH_EDGE_CAPACITY && !batch.is_empty() {
                    flush_batch(batch);
                }
                batch.vertices.push((idx as NodeId, weight, len));
                batch.edges.extend(table.iter());
                if batch.edges.len() >= BATCH_EDGE_CAPACITY {
                    flush_batch(batch);
                }
            }
            flush_batch(batch);
            bumped
        })
        .reduce(Vec::new, |mut a, mut b| {
            a.append(&mut b);
            a
        });
    // ---- Second phase: bumped high-fanout clusters sequentially with a sparse map. ----
    if !bumped.is_empty() {
        let mut map = SparseRatingMap::new(n);
        let _scope = MemoryScope::charge_global(map.memory_bytes());
        for &idx in &bumped {
            let label = leaders[idx];
            map.clear();
            let mut weight: NodeWeight = 0;
            for &u in buckets.members_of(idx) {
                weight += graph.node_weight(u);
                graph.for_each_neighbor(u, &mut |v, w| {
                    let target_label = clustering.label[v as usize];
                    if target_label != label {
                        map.add(target_label, w);
                    }
                });
            }
            let (first_edge, coarse_id) = output.claim(map.len(), 1);
            // SAFETY: `map.iter()` yields `map.len()` entries, the range just claimed.
            let heaviest = unsafe { output.commit(coarse_id, first_edge, idx, weight, map.iter()) };
            output.saw_weight(heaviest);
        }
    }
    let (total_edges, total_vertices) = output.dual.load();
    let max_weight = output.max_weight.into_inner();
    let m_half = total_edges as usize;
    assert_eq!(total_vertices as usize, n_coarse);
    // SAFETY: the transactions claimed `[0, m_half)` in disjoint contiguous ranges
    // (`DualCounter::fetch_add` returns the running totals), `claim` bounded each by the
    // capacity, and every transaction wrote all of its range in both arrays (`width`
    // bytes per weight) before the loops above ended.
    unsafe {
        adjacency.set_len(m_half);
        edge_weights.set_len(m_half * width);
    }
    // Give back the part of the reservation that was never written; the weights give
    // theirs back once narrowed.
    adjacency.shrink_to_fit();

    // ---- Assemble the CSR: offsets and node weights, labels -> coarse IDs. ----
    let xadj: Vec<EdgeId> = (0..n_coarse + 1)
        .into_par_iter()
        .map(|c| match starts.get(c) {
            Some(start) => start.load(Ordering::Relaxed),
            None => m_half as EdgeId,
        })
        .collect();
    // The starts are monotone because coarse IDs are assigned in commit order.
    debug_assert!(xadj.windows(2).all(|w| w[0] <= w[1]));
    let node_weights: Vec<NodeWeight> = (0..n_coarse)
        .into_par_iter()
        .map(|c| coarse_node_weights[c].load(Ordering::Relaxed))
        .collect();
    adjacency.par_chunks_mut(LABEL_BLOCK).for_each(|chunk| {
        for target in chunk {
            *target = buckets.coarse_of(*target);
        }
    });

    // Sort each coarse neighbourhood by target ID for deterministic downstream
    // behaviour, in parallel over the (disjoint) CSR segments.
    graph::with_width!(width, |W| sort_neighbourhoods::<W>(
        &xadj,
        &mut adjacency,
        &mut edge_weights,
        workers
    ));

    // An edgeless coarse graph is unweighted, as `from_parts` makes it.
    let edge_weights = (m_half > 0).then(|| PackedArray::narrowed(edge_weights, width, max_weight));
    let coarse = CsrGraph::from_packed_parts(xadj, adjacency, edge_weights, node_weights);
    let mapping = buckets.take_members_as_mapping(&clustering.label);
    ContractionResult { coarse, mapping }
}

/// Neighbourhoods of at most this many entries are insertion-sorted with their weights
/// unpacked on the stack.
const SHORT_SEGMENT: usize = 32;

/// Sorts each coarse neighbourhood `adjacency[xadj[c]..xadj[c + 1]]` by target ID, its
/// weights (`W` bytes each) along, in parallel over the disjoint segments. Coarse degrees
/// are mostly tiny, so short segments use an in-place insertion sort of the targets beside
/// their unpacked weights; only long segments go through a pooled per-worker key buffer.
/// Weights are read and written `W` bytes at a time, never beyond their segment.
fn sort_neighbourhoods<const W: usize>(
    xadj: &[EdgeId],
    adjacency: &mut [NodeId],
    weights: &mut [u8],
    workers: &Pool<WorkerScratch>,
) {
    let n_coarse = xadj.len() - 1;
    let adj_shared = SharedSlice::new(adjacency);
    let wts_shared = SharedSlice::new(weights);
    (0..n_coarse).into_par_iter().for_each(|c| {
        let begin = xadj[c] as usize;
        let end = xadj[c + 1] as usize;
        let len = end - begin;
        if len <= 1 {
            return;
        }
        // SAFETY: CSR segments of distinct coarse vertices never overlap.
        let adj = unsafe { adj_shared.slice_mut(begin, end) };
        let wts = unsafe { wts_shared.slice_mut(begin * W, end * W) };
        if len <= SHORT_SEGMENT {
            let mut unpacked = [0 as EdgeWeight; SHORT_SEGMENT];
            for (w, entry) in unpacked.iter_mut().zip(wts.chunks_exact(W)) {
                *w = packed::load(entry);
            }
            let unpacked = &mut unpacked[..len];
            for i in 1..len {
                let (v, w) = (adj[i], unpacked[i]);
                let mut j = i;
                while j > 0 && adj[j - 1] > v {
                    adj[j] = adj[j - 1];
                    unpacked[j] = unpacked[j - 1];
                    j -= 1;
                }
                adj[j] = v;
                unpacked[j] = w;
            }
            for (entry, &w) in wts.chunks_exact_mut(W).zip(unpacked.iter()) {
                packed::store(entry, w);
            }
        } else {
            // Fast path: sort packed 64-bit (target, position) keys — branchless
            // integer comparisons, no 16-byte pair shuffling — then gather the
            // weights through the recorded positions. Valid whenever both halves
            // fit 32 bits, which is always true at the default id width; wide builds
            // verify it per segment (cheap relative to the sort) and fall back to
            // a (target, position) pair sort with the identical resulting order.
            const LOW_32: u64 = 0xFFFF_FFFF;
            let fits_packed = NodeId::BITS == 32
                || (len as u64 <= LOW_32 && adj.iter().all(|&v| ids::widen(v) <= LOW_32));
            let mut worker = workers.checkout();
            let worker = &mut *worker;
            let wts_copy = &mut worker.sort_wts;
            wts_copy.clear();
            wts_copy.extend_from_slice(wts);
            let weight_at = |position: usize| &wts_copy[position * W..(position + 1) * W];
            if fits_packed {
                let keys = &mut worker.sort_keys;
                keys.clear();
                keys.extend(
                    adj.iter()
                        .enumerate()
                        .map(|(i, &v)| (ids::widen(v) << 32) | i as u64),
                );
                keys.sort_unstable();
                for ((target, entry), &key) in
                    adj.iter_mut().zip(wts.chunks_exact_mut(W)).zip(keys.iter())
                {
                    *target = (key >> 32) as NodeId;
                    entry.copy_from_slice(weight_at((key & LOW_32) as usize));
                }
            } else {
                let pairs = &mut worker.sort_pairs;
                pairs.clear();
                pairs.extend(adj.iter().enumerate().map(|(i, &v)| (v, i as u64)));
                pairs.sort_unstable();
                for ((target, entry), &(v, position)) in adj
                    .iter_mut()
                    .zip(wts.chunks_exact_mut(W))
                    .zip(pairs.iter())
                {
                    *target = v;
                    entry.copy_from_slice(weight_at(position as usize));
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarsening::lp_clustering;
    use crate::context::CoarseningConfig;
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
        // The coarse graph must be symmetric.
        assert!(coarse.is_symmetric());
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

    /// Asserts that `a` and `b` are the same contraction up to the numbering of the
    /// coarse vertices: the renumbering is read off the two fine-to-coarse mappings, and
    /// under it node weights and whole (sorted) neighbourhoods must agree.
    fn assert_equal_up_to_renumbering(a: &ContractionResult, b: &ContractionResult, name: &str) {
        assert_eq!(a.coarse.n(), b.coarse.n(), "{}", name);
        assert_eq!(a.coarse.m(), b.coarse.m(), "{}", name);
        let mut a_to_b = vec![ids::INVALID_NODE; a.coarse.n()];
        for (&in_a, &in_b) in a.mapping.iter().zip(&b.mapping) {
            let slot = &mut a_to_b[in_a as usize];
            assert!(*slot == ids::INVALID_NODE || *slot == in_b, "{}", name);
            *slot = in_b;
        }
        for c in 0..a.coarse.n() as NodeId {
            let image = a_to_b[c as usize];
            assert_eq!(
                a.coarse.node_weight(c),
                b.coarse.node_weight(image),
                "{}",
                name
            );
            let mut renumbered: Vec<(NodeId, EdgeWeight)> = a
                .coarse
                .neighbors_vec(c)
                .into_iter()
                .map(|(v, w)| (a_to_b[v as usize], w))
                .collect();
            renumbered.sort_unstable();
            assert_eq!(renumbered, b.coarse.neighbors_vec(image), "{}", name);
        }
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
            assert_eq!(buckets.leaders, leaders, "{threads} threads");
            let mut offset = 0;
            for (b, leader) in leaders.iter().enumerate() {
                assert_eq!(buckets.offsets[b] as usize, offset, "{threads} threads");
                let mut members = buckets.members_of(b).to_vec();
                members.sort_unstable();
                assert_eq!(members, clusters[leader], "{threads} threads");
                offset += members.len();
            }
            assert_eq!(buckets.offsets[leaders.len()] as usize, n);
            // A populated label's rank is its index among the leaders, and its coarse
            // vertex is that bucket until a one-pass commit renumbers it.
            assert_eq!(buckets.remap.len(), leaders.len(), "{threads} threads");
            for (b, &leader) in leaders.iter().enumerate() {
                assert_eq!(buckets.labels.rank(leader) as usize, b, "{threads} threads");
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
        // "heavy" weighs every edge at least 2^33: one-pass reserves 5 bytes or more per
        // weight and the coarse weights stay that wide, so nothing may truncate them. The
        // "rgg" instance is large enough (n′ > 4096 at cluster weight 3) for the parallel
        // loops to really split at two threads, where one-pass numbers the coarse
        // vertices in commit order. The last clustering is built by hand, with empty
        // labels at both ends and an empty label block.
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
            // Threshold 4 sends most clusters of these instances through the bumped
            // (sequential, sparse-map) second phase.
            for (threads, bump_threshold) in [(1, 16), (1, 4), (2, 16), (2, 4)] {
                let name = format!("{name}, {threads} threads, bump threshold {bump_threshold}");
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let (buffered, one_pass) = pool.install(|| {
                    let with = |algorithm| contract(&g, &clustering, algorithm, bump_threshold);
                    (
                        with(ContractionAlgorithm::Buffered),
                        with(ContractionAlgorithm::OnePass),
                    )
                });
                check_contraction(&g, &clustering, &buffered);
                check_contraction(&g, &clustering, &one_pass);
                assert_equal_up_to_renumbering(&one_pass, &buffered, &name);
                if name.starts_with("heavy") {
                    assert!(reserved_weight_width(&g) >= 5, "{name}");
                    let coarse = &one_pass.coarse;
                    assert!(coarse.m() > 0, "{name}");
                    assert!(
                        (0..2 * coarse.m() as EdgeId).all(|e| coarse.edge_weight(e) >= 1 << 33),
                        "{name}: a coarse weight lost its high bytes"
                    );
                }
            }
        }
    }

    /// `graph` reporting `total_edge_weight` in place of its own, as a graph read from a
    /// container whose header understates the total would.
    struct Understated<'a> {
        graph: &'a CsrGraph,
        total_edge_weight: EdgeWeight,
    }

    impl Graph for Understated<'_> {
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
            self.total_edge_weight
        }
        fn for_each_neighbor(&self, u: NodeId, f: &mut dyn FnMut(NodeId, EdgeWeight)) {
            self.graph.for_each_neighbor(u, f)
        }
        fn is_edge_weighted(&self) -> bool {
            true
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn an_understated_total_edge_weight_panics_instead_of_truncating() {
        // Every weight is at least 300, two bytes; a total of 255 reserves one.
        let g = heavier(
            &gen::with_random_edge_weights(&gen::grid2d(8, 8), 9, 3),
            300,
        );
        let understated = Understated {
            graph: &g,
            total_edge_weight: 255,
        };
        assert_eq!(reserved_weight_width(&understated), 1);
        let clustering = Clustering::singletons(g.n());
        contract(&understated, &clustering, ContractionAlgorithm::OnePass, 16);
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
        let mut seen = vec![false; g.n()];
        for b in 0..n_coarse {
            assert!(!buckets.members_of(b).is_empty(), "bucket {} is empty", b);
            let leader = buckets.leaders[b];
            for &u in buckets.members_of(b) {
                assert!(!seen[u as usize], "vertex {} scattered twice", u);
                seen[u as usize] = true;
                assert_eq!(clustering.label[u as usize], leader);
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Leaders are the distinct labels in increasing order.
        assert!(buckets.leaders.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn each_level_sizes_its_own_buckets() {
        // Contract three shrinking levels through one arena: every level stays valid and
        // builds buckets sized by itself rather than by the first level.
        let g = gen::rgg2d(1500, 12, 6);
        let mut scratch = HierarchyScratch::new();
        let mut current = g.clone();
        let mut bucket_bytes = Vec::new();
        for _ in 0..3 {
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
                &mut scratch,
            );
            check_contraction(&current, &clustering, &result);
            current = result.coarse;
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
        // Members are indexed by fine vertex; offsets, leaders and the remap by coarse
        // vertex (the counting cursors became the remap); the label set's n bits and
        // per-word counts rank the labels.
        let buckets = ClusterBuckets::build(&clustering);
        assert_eq!(buckets.n_coarse(), n_coarse);
        let id = std::mem::size_of::<NodeId>();
        let rank_bytes = n.div_ceil(64) * (8 + id);
        assert_eq!(
            buckets.memory_bytes(),
            (n + n_coarse) * id + (2 * n_coarse + 1) * id + rank_bytes
        );
        // One-pass hands out exactly n′ coarse IDs, each a slot of the n′-sized starts
        // and node weights (`OnePassOutput::claim` asserts the bound).
        let result = contract(&g, &clustering, ContractionAlgorithm::OnePass, 16);
        check_contraction(&g, &clustering, &result);
        // The reservation of 2m edge slots was cut back to the 2m′ committed ones.
        assert_eq!(
            result.coarse.allocated_bytes(),
            result.coarse.size_in_bytes()
        );
    }
}
