//! k-way partitions and their quality metrics.
//!
//! A [`Partition`] assigns every vertex to one of `k` blocks and maintains the block
//! weights incrementally, so balance checks and vertex moves are `O(1)`. The quality
//! metrics (edge cut, imbalance) follow the definitions in the paper's introduction:
//! blocks must satisfy `|V_i| ≤ (1 + ε) · ⌈|V| / k⌉` (weighted), and the edge cut is the
//! total weight of edges whose endpoints lie in different blocks.
//!
//! # Tracked state
//!
//! Besides the assignment a partition carries the two facts every refiner needs and none
//! should have to rediscover by sweeping the graph:
//!
//! * the **tracked cut** — `Some(cut)` once somebody counted it, kept exact by the
//!   refiners through the deltas of their moves, `None` ("unknown") otherwise;
//! * a **boundary superset** `B`, one bit per vertex, with the invariant *every vertex
//!   that has a neighbour in another block has its bit set*. "Unknown" stands for all
//!   ones. Because every cut edge has both endpoints in `B`, the cut can be recounted
//!   over `B` alone ([`Partition::recount_cut`]).
//!
//! Both survive [`Partition::project`] without touching the fine graph: projection
//! preserves the cut and the block weights, and a fine vertex can only be on the boundary
//! if its coarse vertex is. [`Partition::edge_cut_on`] stays the independent oracle that
//! tests and `debug_assert!`s check the tracked state against
//! ([`Partition::check_tracked_state`]).

use graph::traits::Graph;
use graph::{EdgeWeight, NodeId, NodeWeight};
use memtrack::MemoryScope;
use rayon::prelude::*;

use crate::scratch::AtomicBitset;

/// Identifier of a partition block, in `0..k`.
pub type BlockId = u32;

/// Sentinel for "not assigned to any block yet".
pub const INVALID_BLOCK: BlockId = BlockId::MAX;

/// The boundary superset of a [`Partition`]: one bit per vertex, charged to the memory
/// accounting for as long as the partition holds it. Bits are only ever *set* while a
/// refiner runs (concurrently, in label propagation), which is what keeps the set a
/// superset of the boundary whatever the order of the moves.
#[derive(Debug)]
pub(crate) struct BoundarySet {
    bits: AtomicBitset,
    n: usize,
    _charge: MemoryScope<'static>,
}

impl BoundarySet {
    /// The empty set over `n` vertices.
    pub(crate) fn empty(n: usize) -> Self {
        let mut bits = AtomicBitset::new();
        bits.ensure_len(n);
        Self {
            _charge: MemoryScope::charge_global(bits.memory_bytes()),
            bits,
            n,
        }
    }

    pub(crate) fn bits(&self) -> &AtomicBitset {
        &self.bits
    }

    #[inline]
    pub(crate) fn mark(&self, v: NodeId) {
        self.bits.set(v as usize);
    }

    /// Marks `u` and its neighbours: everyone whose boundary status a move of `u` can
    /// change.
    pub(crate) fn mark_move(&self, graph: &impl Graph, u: NodeId) {
        self.mark(u);
        graph.for_each_neighbor(u, &mut |v, _| self.mark(v));
    }

    fn len(&self) -> usize {
        self.bits.count(self.n)
    }
}

impl Clone for BoundarySet {
    fn clone(&self) -> Self {
        let copy = Self::empty(self.n);
        copy.bits.copy_from(&self.bits, self.n);
        copy
    }
}

/// A `k`-way assignment of vertices to blocks with cached block weights, a tracked edge
/// cut and a superset of the boundary (see the module docs).
#[derive(Debug, Clone)]
pub struct Partition {
    k: usize,
    epsilon: f64,
    assignment: Vec<BlockId>,
    block_weights: Vec<NodeWeight>,
    max_block_weight: NodeWeight,
    total_node_weight: NodeWeight,
    /// The edge cut, exact whenever it is `Some`.
    cut: Option<EdgeWeight>,
    /// Superset of the boundary; `None` is "unknown", i.e. every vertex.
    boundary: Option<BoundarySet>,
}

impl Partition {
    /// Creates an empty partition (all vertices unassigned) for a graph with the given
    /// total node weight.
    pub fn unassigned(n: usize, k: usize, epsilon: f64, total_node_weight: NodeWeight) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        let max_block_weight = Self::compute_max_block_weight(total_node_weight, k, epsilon);
        Self {
            k,
            epsilon,
            assignment: vec![INVALID_BLOCK; n],
            block_weights: vec![0; k],
            max_block_weight,
            total_node_weight,
            cut: None,
            boundary: None,
        }
    }

    /// Creates a partition from an existing assignment vector. Its cut and boundary are
    /// unknown until a refiner or [`Partition::recount_cut`] establishes them.
    pub fn from_assignment(
        graph: &impl Graph,
        k: usize,
        epsilon: f64,
        assignment: Vec<BlockId>,
    ) -> Self {
        assert_eq!(assignment.len(), graph.n());
        let mut p = Self::unassigned(graph.n(), k, epsilon, graph.total_node_weight());
        for (u, &b) in assignment.iter().enumerate() {
            if b != INVALID_BLOCK {
                assert!((b as usize) < k, "block {} out of range", b);
                p.block_weights[b as usize] += graph.node_weight(u as NodeId);
            }
        }
        p.assignment = assignment;
        p
    }

    /// The balance constraint `L_max = (1 + ε) · ⌈W / k⌉` used throughout the paper, where
    /// `W` is the total node weight. Always at least `⌈W / k⌉` so a perfectly balanced
    /// partition is feasible.
    pub fn compute_max_block_weight(total: NodeWeight, k: usize, epsilon: f64) -> NodeWeight {
        let perfect = (total as f64 / k as f64).ceil();
        ((1.0 + epsilon) * perfect).floor().max(perfect) as NodeWeight
    }

    /// Number of blocks.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The imbalance parameter ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of vertices covered by this partition.
    pub fn n(&self) -> usize {
        self.assignment.len()
    }

    /// Maximum admissible block weight.
    pub fn max_block_weight(&self) -> NodeWeight {
        self.max_block_weight
    }

    /// Total node weight of the underlying graph.
    pub fn total_node_weight(&self) -> NodeWeight {
        self.total_node_weight
    }

    /// Block of vertex `u`, or [`INVALID_BLOCK`] if unassigned.
    pub fn block(&self, u: NodeId) -> BlockId {
        self.assignment[u as usize]
    }

    /// Weight currently assigned to block `b`.
    pub fn block_weight(&self, b: BlockId) -> NodeWeight {
        self.block_weights[b as usize]
    }

    /// All block weights.
    pub fn block_weights(&self) -> &[NodeWeight] {
        &self.block_weights
    }

    /// Raw assignment array.
    pub fn assignment(&self) -> &[BlockId] {
        &self.assignment
    }

    /// Returns `true` if every vertex has been assigned a block.
    pub fn is_complete(&self) -> bool {
        self.assignment.iter().all(|&b| b != INVALID_BLOCK)
    }

    /// Assigns vertex `u` (previously unassigned) to block `b`. The tracked cut and
    /// boundary become unknown.
    pub fn assign(&mut self, u: NodeId, b: BlockId, node_weight: NodeWeight) {
        debug_assert_eq!(
            self.assignment[u as usize], INVALID_BLOCK,
            "vertex already assigned"
        );
        debug_assert!((b as usize) < self.k);
        self.assignment[u as usize] = b;
        self.block_weights[b as usize] += node_weight;
        self.forget_tracked_state();
    }

    /// Moves vertex `u` from its current block to `target`, updating block weights. The
    /// caller says nothing about the graph, so the tracked cut and boundary become
    /// unknown; [`Partition::move_vertex_tracked`] keeps them.
    pub fn move_vertex(&mut self, u: NodeId, target: BlockId, node_weight: NodeWeight) {
        if self.relocate(u, target, node_weight) {
            self.forget_tracked_state();
        }
    }

    /// Moves vertex `u` to `target` and keeps the tracked state exact: `gain` is the
    /// decrease of the cut the move causes (connection of `u` to `target` minus its
    /// connection to its current block), and `u` and its neighbours join the boundary
    /// superset.
    pub fn move_vertex_tracked(
        &mut self,
        graph: &impl Graph,
        u: NodeId,
        target: BlockId,
        gain: i64,
    ) {
        if self.relocate(u, target, graph.node_weight(u)) {
            self.cut = self.cut.map(|cut| (cut as i64 - gain) as EdgeWeight);
            if let Some(boundary) = &self.boundary {
                boundary.mark_move(graph, u);
            }
        }
    }

    /// Reassigns `u` and shifts its weight; `false` if it already is in `target`.
    fn relocate(&mut self, u: NodeId, target: BlockId, node_weight: NodeWeight) -> bool {
        let source = self.assignment[u as usize];
        debug_assert_ne!(source, INVALID_BLOCK);
        if source == target {
            return false;
        }
        self.block_weights[source as usize] -= node_weight;
        self.block_weights[target as usize] += node_weight;
        self.assignment[u as usize] = target;
        true
    }

    fn forget_tracked_state(&mut self) {
        self.cut = None;
        self.boundary = None;
    }

    /// Edge cut of this partition on `graph`: total weight of edges crossing blocks,
    /// counted by a sequential sweep over the whole graph. This is the oracle the tracked
    /// cut is verified against, not something the pipeline calls per level.
    pub fn edge_cut_on(&self, graph: &impl Graph) -> EdgeWeight {
        (0..graph.n() as NodeId)
            .map(|u| self.cut_edges_above(graph, u))
            .sum()
    }

    /// Weight of the cut edges `{u, v}` with `u < v`.
    fn cut_edges_above(&self, graph: &impl Graph, u: NodeId) -> EdgeWeight {
        let bu = self.assignment[u as usize];
        let mut cut: EdgeWeight = 0;
        graph.for_each_neighbor(u, &mut |v, w| {
            if u < v && bu != self.assignment[v as usize] {
                cut += w;
            }
        });
        cut
    }

    /// The tracked edge cut, `None` while nobody has counted it.
    pub fn tracked_cut(&self) -> Option<EdgeWeight> {
        self.cut
    }

    /// The tracked edge cut.
    ///
    /// # Panics
    ///
    /// If the cut is unknown: the partition came from [`Partition::from_assignment`] or
    /// was changed through [`Partition::move_vertex`] and nothing has counted its cut
    /// since. Use [`Partition::recount_cut`] or [`Partition::edge_cut_on`] then.
    pub fn edge_cut(&self) -> EdgeWeight {
        self.cut
            .expect("the edge cut of this partition is unknown: count it with recount_cut")
    }

    /// Declares `cut` to be the edge cut of this partition.
    pub fn set_tracked_cut(&mut self, cut: EdgeWeight) {
        self.cut = Some(cut);
    }

    /// Counts the cut over the boundary superset only — exact, because both endpoints
    /// of a cut edge are in it — or over every vertex while the boundary is unknown;
    /// in parallel. Stores the result as the tracked cut and returns it.
    pub fn recount_cut(&mut self, graph: &impl Graph) -> EdgeWeight {
        let n = self.n();
        let cut = match &self.boundary {
            None => (0..n as NodeId)
                .into_par_iter()
                .map(|u| self.cut_edges_above(graph, u))
                .sum(),
            Some(boundary) => (0..n.div_ceil(64))
                .into_par_iter()
                .map(|word| {
                    let mut cut: EdgeWeight = 0;
                    boundary.bits.for_each_in_word(word, |u| {
                        cut += self.cut_edges_above(graph, u as NodeId)
                    });
                    cut
                })
                .sum(),
        };
        self.cut = Some(cut);
        cut
    }

    /// The tracked cut, counted now ([`Partition::recount_cut`]) if nobody has yet: where
    /// a refiner that keeps the cut by its gains starts from.
    pub(crate) fn tracked_or_recounted_cut(&mut self, graph: &impl Graph) -> EdgeWeight {
        match self.cut {
            Some(cut) => cut,
            None => self.recount_cut(graph),
        }
    }

    /// Size of the boundary superset, `None` while it is unknown (every vertex).
    pub fn boundary_candidates(&self) -> Option<usize> {
        self.boundary.as_ref().map(BoundarySet::len)
    }

    /// Whether `u` may have a neighbour in another block: `false` proves it has none.
    pub fn is_boundary_candidate(&self, u: NodeId) -> bool {
        self.boundary
            .as_ref()
            .is_none_or(|b| b.bits.get(u as usize))
    }

    /// Checks the tracked state against `graph` by full recounts: the tracked cut (if
    /// known) equals [`Partition::edge_cut_on`], the block weights equal the sums of
    /// their vertices' weights, and every vertex with a neighbour in another block is a
    /// boundary candidate. What tests and the pipeline's `debug_assert!`s call.
    pub fn check_tracked_state(&self, graph: &impl Graph) -> Result<(), String> {
        if self.n() != graph.n() {
            return Err(format!("{} vertices on a graph of {}", self.n(), graph.n()));
        }
        let recount = self.edge_cut_on(graph);
        if self.cut.is_some_and(|cut| cut != recount) {
            return Err(format!("tracked cut {:?}, recount {recount}", self.cut));
        }
        let mut weights = vec![0; self.k];
        for u in 0..graph.n() as NodeId {
            let block = self.block(u);
            if block != INVALID_BLOCK {
                weights[block as usize] += graph.node_weight(u);
            }
            let mut external = false;
            graph.for_each_neighbor(u, &mut |v, _| external |= self.block(v) != block);
            if external && !self.is_boundary_candidate(u) {
                return Err(format!("boundary vertex {u} is not a candidate"));
            }
        }
        if weights != self.block_weights {
            return Err(format!(
                "block weights {:?}, recount {weights:?}",
                self.block_weights
            ));
        }
        Ok(())
    }

    /// Hands the boundary superset to a refiner, which marks its moves in it and gives
    /// it back through [`Partition::commit`].
    pub(crate) fn take_boundary(&mut self) -> Option<BoundarySet> {
        self.boundary.take()
    }

    /// Installs what a refiner that worked on its own copy of the state ends on. `cut`
    /// and `boundary` must be exact for `assignment` (or `None`), `block_weights` its
    /// block weights.
    pub(crate) fn commit(
        &mut self,
        assignment: Vec<BlockId>,
        block_weights: Vec<NodeWeight>,
        cut: Option<EdgeWeight>,
        boundary: Option<BoundarySet>,
    ) {
        debug_assert_eq!(assignment.len(), self.assignment.len());
        debug_assert_eq!(block_weights.len(), self.k);
        self.assignment = assignment;
        self.block_weights = block_weights;
        self.cut = cut;
        self.boundary = boundary;
    }

    /// Imbalance of the partition: `max_i w(V_i) / ⌈W / k⌉ - 1`.
    pub fn imbalance(&self) -> f64 {
        let perfect = (self.total_node_weight as f64 / self.k as f64).ceil();
        if perfect == 0.0 {
            return 0.0;
        }
        let max = self.block_weights.iter().copied().max().unwrap_or(0) as f64;
        max / perfect - 1.0
    }

    /// Returns `true` if every block respects the balance constraint.
    pub fn is_balanced(&self) -> bool {
        self.block_weights
            .iter()
            .all(|&w| w <= self.max_block_weight)
    }

    /// Returns the heaviest block and its weight.
    pub fn heaviest_block(&self) -> (BlockId, NodeWeight) {
        let (b, &w) = self
            .block_weights
            .iter()
            .enumerate()
            .max_by_key(|&(_, &w)| w)
            .expect("partition has at least one block");
        (b as BlockId, w)
    }

    /// Number of vertices in each block (unweighted sizes).
    pub fn block_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k];
        for &b in &self.assignment {
            if b != INVALID_BLOCK {
                sizes[b as usize] += 1;
            }
        }
        sizes
    }

    /// Projects this partition of a coarse graph onto the finer graph it was contracted
    /// from: fine vertex `u` belongs to the block of its coarse vertex `mapping[u]`.
    ///
    /// Contraction sums node weights per cluster and drops only intra-cluster edges, so
    /// block weights and cut carry over unchanged; and a fine vertex has a neighbour in
    /// another block only if its coarse vertex has one, so it inherits that vertex's
    /// boundary bit. Nothing of `fine_graph` is decoded.
    pub fn project(&self, fine_graph: &impl Graph, mapping: &[NodeId]) -> Partition {
        assert_eq!(mapping.len(), fine_graph.n());
        let boundary = self.boundary.as_ref().map(|coarse| {
            let fine = BoundarySet::empty(mapping.len());
            fine.bits
                .fill_with(mapping.len(), |u| coarse.bits.get(mapping[u] as usize));
            fine
        });
        Partition {
            assignment: mapping
                .par_iter()
                .map(|&coarse| self.assignment[coarse as usize])
                .collect(),
            block_weights: self.block_weights.clone(),
            boundary,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen;

    #[test]
    fn max_block_weight_formula() {
        // 100 vertices, k = 4, eps = 3% -> ceil(25) * 1.03 = 25.75 -> 25
        assert_eq!(Partition::compute_max_block_weight(100, 4, 0.03), 25);
        // eps = 10% -> 27
        assert_eq!(Partition::compute_max_block_weight(100, 4, 0.10), 27);
        // Never below the perfect balance.
        assert_eq!(Partition::compute_max_block_weight(10, 3, 0.0), 4);
    }

    #[test]
    fn assignment_and_weights() {
        let g = gen::path(6);
        let mut p = Partition::unassigned(6, 2, 0.0, g.total_node_weight());
        for u in 0..3 {
            p.assign(u, 0, 1);
        }
        for u in 3..6 {
            p.assign(u as NodeId, 1, 1);
        }
        assert!(p.is_complete());
        assert_eq!(p.block_weight(0), 3);
        assert_eq!(p.block_weight(1), 3);
        assert!(p.is_balanced());
        assert_eq!(p.edge_cut_on(&g), 1);
        assert_eq!(p.block_sizes(), vec![3, 3]);
    }

    #[test]
    fn move_vertex_updates_weights_and_forgets_the_cut() {
        let g = gen::path(4);
        let mut p = Partition::from_assignment(&g, 2, 1.0, vec![0, 0, 1, 1]);
        assert_eq!(p.recount_cut(&g), 1);
        p.move_vertex(1, 1, 1);
        assert_eq!(p.block_weight(0), 1);
        assert_eq!(p.block_weight(1), 3);
        assert_eq!(p.edge_cut_on(&g), 1);
        assert_eq!(
            p.tracked_cut(),
            None,
            "an untracked move leaves no stale cut"
        );
        // Moving a vertex to its own block is a no-op, also for the tracked state.
        p.recount_cut(&g);
        p.move_vertex(1, 1, 1);
        assert_eq!(p.block_weight(1), 3);
        assert_eq!(p.tracked_cut(), Some(1));
    }

    #[test]
    fn tracked_moves_keep_cut_and_boundary_exact() {
        let g = gen::grid2d(6, 6);
        let assignment: Vec<BlockId> = (0..36u32).map(|u| (u % 6) / 2).collect();
        let mut p = Partition::from_assignment(&g, 3, 1.0, assignment);
        // Columns 1 to 4 are the boundary; column 5 makes it a proper superset.
        let boundary = BoundarySet::empty(g.n());
        (0..36)
            .filter(|u| u % 6 != 0)
            .for_each(|u| boundary.mark(u));
        p.boundary = Some(boundary);
        p.recount_cut(&g);
        p.check_tracked_state(&g).unwrap();
        for (u, to) in [(7 as NodeId, 2 as BlockId), (8, 0), (0, 1), (7, 0), (35, 0)] {
            let from = p.block(u);
            let mut gain = 0i64;
            g.for_each_neighbor(u, &mut |v, w| {
                gain += i64::from(p.block(v) == to) * w as i64;
                gain -= i64::from(p.block(v) == from) * w as i64;
            });
            p.move_vertex_tracked(&g, u, to, gain);
            p.check_tracked_state(&g).unwrap();
        }
        assert!(p.boundary_candidates().unwrap() < g.n());
    }

    #[test]
    fn recount_over_the_boundary_equals_the_full_sweep() {
        let g = gen::with_random_edge_weights(&gen::rgg2d(3_000, 8, 5), 9, 1);
        let assignment: Vec<BlockId> = (0..g.n() as u32).map(|u| u * 4 / g.n() as u32).collect();
        let mut p = Partition::from_assignment(&g, 4, 1.0, assignment);
        let full = p.recount_cut(&g);
        assert_eq!(full, p.edge_cut_on(&g));
        let exact = BoundarySet::empty(g.n());
        for u in 0..g.n() as NodeId {
            g.for_each_neighbor(u, &mut |v, _| {
                if p.block(u) != p.block(v) {
                    exact.mark(u);
                }
            });
        }
        p.boundary = Some(exact);
        p.cut = None;
        assert_eq!(p.recount_cut(&g), full);
        p.check_tracked_state(&g).unwrap();
        // A missing boundary vertex is what the check exists to catch.
        let u = (0..g.n() as NodeId)
            .find(|&u| p.is_boundary_candidate(u))
            .unwrap();
        let without = BoundarySet::empty(g.n());
        (0..g.n() as NodeId)
            .filter(|&v| v != u && p.is_boundary_candidate(v))
            .for_each(|v| without.mark(v));
        p.boundary = Some(without);
        assert!(p.check_tracked_state(&g).is_err());
    }

    #[test]
    fn imbalance_and_heaviest() {
        let g = gen::complete(8);
        let p = Partition::from_assignment(&g, 2, 0.03, vec![0, 0, 0, 0, 0, 0, 1, 1]);
        assert!((p.imbalance() - 0.5).abs() < 1e-9);
        assert!(!p.is_balanced());
        assert_eq!(p.heaviest_block(), (0, 6));
    }

    #[test]
    fn projection_through_mapping() {
        let fine = gen::grid2d(2, 4); // 8 vertices
        let coarse_assignment = vec![0, 1, 1, 0];
        // Fine vertices map pairwise onto coarse vertices of weight 2.
        let coarse = {
            let mut b = graph::CsrGraphBuilder::with_node_weights(vec![2; 4]);
            for u in 0..3 {
                b.add_edge(u, u + 1, 2);
            }
            b.build()
        };
        let coarse_partition = Partition::from_assignment(&coarse, 2, 0.5, coarse_assignment);
        let mapping = vec![0, 0, 1, 1, 2, 2, 3, 3];
        let fine_partition = coarse_partition.project(&fine, &mapping);
        assert_eq!(fine_partition.block(0), 0);
        assert_eq!(fine_partition.block(2), 1);
        assert_eq!(fine_partition.block(7), 0);
        assert_eq!(fine_partition.block_weight(0), 4);
        assert_eq!(fine_partition.block_weight(1), 4);
        assert_eq!(fine_partition.tracked_cut(), None, "unknown stays unknown");
        fine_partition.check_tracked_state(&fine).unwrap();
    }

    #[test]
    fn projection_carries_cut_weights_and_boundary_through_a_real_contraction() {
        let fine = gen::grid2d(8, 8);
        // Contract 2x2 tiles; cut the coarse 4x4 grid into left and right halves.
        let mapping: Vec<NodeId> = (0..64).map(|u| (u / 8 / 2) * 4 + (u % 8) / 2).collect();
        let clustering = crate::coarsening::Clustering::from_labels(
            (0..64 as NodeId)
                .map(|u| (u / 8 / 2 * 2) * 8 + (u % 8) / 2 * 2)
                .collect(),
        );
        let contracted = crate::coarsening::contract(
            &fine,
            &clustering,
            crate::context::ContractionAlgorithm::OnePass,
            4096,
        );
        assert_eq!(contracted.mapping, mapping);
        let coarse = contracted.coarse;
        let mut coarse_partition = Partition::from_assignment(
            &coarse,
            2,
            0.1,
            (0..16u32).map(|c| u32::from(c % 4 >= 2)).collect(),
        );
        let boundary = BoundarySet::empty(16);
        (0..16)
            .filter(|c| c % 4 == 1 || c % 4 == 2)
            .for_each(|c| boundary.mark(c));
        coarse_partition.boundary = Some(boundary);
        coarse_partition.recount_cut(&coarse);
        coarse_partition.check_tracked_state(&coarse).unwrap();

        let projected = coarse_partition.project(&fine, &mapping);
        assert_eq!(projected.tracked_cut(), Some(8));
        assert_eq!(projected.block_weights(), &[32, 32]);
        assert_eq!(projected.boundary_candidates(), Some(32));
        projected.check_tracked_state(&fine).unwrap();
    }

    #[test]
    fn an_unknown_cut_is_not_zero() {
        let g = gen::path(4);
        let mut p = Partition::from_assignment(&g, 2, 1.0, vec![0, 0, 1, 1]);
        assert_eq!(p.tracked_cut(), None);
        assert_eq!(p.boundary_candidates(), None);
        assert!(p.is_boundary_candidate(0), "unknown means everyone");
        assert_eq!(p.recount_cut(&g), 1);
        assert_eq!(p.edge_cut(), 1);
        p.set_tracked_cut(1);
        assert_eq!(p.clone().edge_cut(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown")]
    fn reading_an_unknown_cut_panics() {
        let g = gen::path(4);
        Partition::from_assignment(&g, 2, 1.0, vec![0, 0, 1, 1]).edge_cut();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_block_panics() {
        let g = gen::path(2);
        let _ = Partition::from_assignment(&g, 2, 0.0, vec![0, 5]);
    }
}
