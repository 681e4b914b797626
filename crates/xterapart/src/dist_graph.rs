//! Distributed graph: edge-balanced sharding with ghost vertices (paper §II-B).
//!
//! The input graph is split into `p` shards of consecutive vertices with roughly equal
//! numbers of edges. Each shard stores the neighbourhoods of its *owned* vertices;
//! endpoints owned by other PEs are *ghost vertices* — they are known by global ID and
//! their labels/blocks are replicated and refreshed through message exchange, but their
//! neighbourhoods are not stored. Shards can hold their adjacency either uncompressed
//! (DKaMinPar) or gap/VarInt-compressed (XTeraPart); the per-PE memory footprint of the
//! two options is what Figure 8 compares.

use graph::csr::CsrGraph;
use graph::traits::Graph;
use graph::varint::{decode_signed_varint, decode_varint, encode_signed_varint, encode_varint};
use graph::{EdgeWeight, NodeId, NodeWeight};

/// Storage backend of one shard's adjacency.
#[derive(Debug, Clone)]
pub enum ShardStorage {
    /// Plain CSR-style arrays with global neighbour IDs.
    Uncompressed {
        /// Offsets into `adjacency`, one per owned vertex plus one.
        xadj: Vec<u64>,
        /// Global neighbour IDs.
        adjacency: Vec<NodeId>,
        /// Edge weights (empty when the graph is unweighted).
        weights: Vec<EdgeWeight>,
    },
    /// Gap + VarInt encoded neighbourhoods (gap-encoded relative to the owned vertex's
    /// global ID, weights as signed deltas). Interval encoding is omitted in the
    /// distributed shards.
    Compressed {
        /// Byte offset of each owned vertex's encoded neighbourhood.
        offsets: Vec<u64>,
        /// Encoded neighbourhood bytes.
        data: Vec<u8>,
        /// Degrees of the owned vertices.
        degrees: Vec<NodeId>,
        /// Whether edge weights are stored.
        weighted: bool,
    },
}

/// One PE's part of the distributed graph.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Rank of the owning PE.
    pub pe: usize,
    /// First owned global vertex (inclusive).
    pub begin: NodeId,
    /// One past the last owned global vertex (exclusive).
    pub end: NodeId,
    /// Adjacency storage for owned vertices.
    pub storage: ShardStorage,
    /// Node weights of owned vertices.
    pub node_weights: Vec<NodeWeight>,
    /// Global IDs of ghost vertices (neighbours owned by other PEs), sorted.
    pub ghosts: Vec<NodeId>,
}

impl Shard {
    /// Number of owned vertices.
    pub fn num_owned(&self) -> usize {
        (self.end - self.begin) as usize
    }

    /// Returns `true` if this shard owns global vertex `u`.
    pub fn owns(&self, u: NodeId) -> bool {
        u >= self.begin && u < self.end
    }

    /// Weight of owned global vertex `u`.
    pub fn node_weight(&self, u: NodeId) -> NodeWeight {
        self.node_weights[(u - self.begin) as usize]
    }

    /// Degree of owned global vertex `u`.
    pub fn degree(&self, u: NodeId) -> usize {
        let local = (u - self.begin) as usize;
        match &self.storage {
            ShardStorage::Uncompressed { xadj, .. } => (xadj[local + 1] - xadj[local]) as usize,
            ShardStorage::Compressed { degrees, .. } => degrees[local] as usize,
        }
    }

    /// Invokes `f(global_neighbor, weight)` for every neighbour of owned vertex `u`.
    pub fn for_each_neighbor(&self, u: NodeId, f: &mut dyn FnMut(NodeId, EdgeWeight)) {
        let local = (u - self.begin) as usize;
        match &self.storage {
            ShardStorage::Uncompressed {
                xadj,
                adjacency,
                weights,
            } => {
                for e in xadj[local] as usize..xadj[local + 1] as usize {
                    let w = if weights.is_empty() { 1 } else { weights[e] };
                    f(adjacency[e], w);
                }
            }
            ShardStorage::Compressed {
                offsets,
                data,
                degrees,
                weighted,
            } => {
                let mut pos = offsets[local] as usize;
                let degree = degrees[local] as usize;
                let mut prev = u as i64;
                let mut ids = Vec::with_capacity(degree);
                for i in 0..degree {
                    let v = if i == 0 {
                        let (delta, p) = decode_signed_varint(data, pos);
                        pos = p;
                        (u as i64) + delta
                    } else {
                        let (gap, p) = decode_varint(data, pos);
                        pos = p;
                        prev + gap as i64 + 1
                    };
                    prev = v;
                    ids.push(v as NodeId);
                }
                if *weighted {
                    let mut prev_w = 0i64;
                    for &v in &ids {
                        let (delta, p) = decode_signed_varint(data, pos);
                        pos = p;
                        prev_w += delta;
                        f(v, prev_w as EdgeWeight);
                    }
                } else {
                    for &v in &ids {
                        f(v, 1);
                    }
                }
            }
        }
    }

    /// Bytes of memory used by this shard (adjacency storage, node weights and the ghost
    /// table) — the per-PE memory the distributed experiments report.
    pub fn memory_bytes(&self) -> usize {
        let storage = match &self.storage {
            ShardStorage::Uncompressed {
                xadj,
                adjacency,
                weights,
            } => xadj.len() * 8 + adjacency.len() * 4 + weights.len() * 8,
            ShardStorage::Compressed {
                offsets,
                data,
                degrees,
                ..
            } => offsets.len() * 8 + data.len() + degrees.len() * std::mem::size_of::<NodeId>(),
        };
        storage + self.node_weights.len() * 8 + self.ghosts.len() * 4
    }
}

/// The distributed graph: one shard per PE plus the global metadata every PE knows.
#[derive(Debug, Clone)]
pub struct DistGraph {
    /// Per-PE shards, indexed by rank.
    pub shards: Vec<Shard>,
    /// Global number of vertices.
    pub n: usize,
    /// Global number of undirected edges.
    pub m: usize,
    /// Range boundaries: PE `i` owns vertices `[boundaries[i], boundaries[i + 1])`.
    pub boundaries: Vec<NodeId>,
    /// Global total node weight.
    pub total_node_weight: NodeWeight,
}

impl DistGraph {
    /// Shards `graph` across `num_pes` PEs, balancing the number of edges per shard.
    /// When `compressed` is set, each shard stores its adjacency gap/VarInt-encoded
    /// (the XTeraPart configuration).
    pub fn shard(graph: &CsrGraph, num_pes: usize, compressed: bool) -> Self {
        assert!(num_pes >= 1);
        let n = graph.n();
        let total_half_edges = 2 * graph.m();
        let target = total_half_edges.div_ceil(num_pes).max(1);
        // Contiguous ranges with roughly `target` half-edges each.
        let mut boundaries: Vec<NodeId> = vec![0];
        let mut acc = 0usize;
        for u in 0..n as NodeId {
            acc += graph.degree(u);
            if acc >= target && (boundaries.len() as usize) < num_pes {
                boundaries.push(u + 1);
                acc = 0;
            }
        }
        while boundaries.len() < num_pes {
            boundaries.push(n as NodeId);
        }
        boundaries.push(n as NodeId);

        let weighted = graph.is_edge_weighted();
        let shards: Vec<Shard> = (0..num_pes)
            .map(|pe| {
                let begin = boundaries[pe];
                let end = boundaries[pe + 1];
                let mut ghosts: Vec<NodeId> = Vec::new();
                let node_weights: Vec<NodeWeight> =
                    (begin..end).map(|u| graph.node_weight(u)).collect();
                let storage = if compressed {
                    let mut offsets = Vec::with_capacity((end - begin) as usize);
                    let mut degrees = Vec::with_capacity((end - begin) as usize);
                    let mut data = Vec::new();
                    for u in begin..end {
                        offsets.push(data.len() as u64);
                        let mut nbrs = graph.neighbors_vec(u);
                        nbrs.sort_unstable_by_key(|&(v, _)| v);
                        degrees.push(graph::ids::nid_count(nbrs.len()));
                        let mut prev = u as i64;
                        for (i, &(v, _)) in nbrs.iter().enumerate() {
                            if i == 0 {
                                encode_signed_varint((v as i64) - prev, &mut data);
                            } else {
                                encode_varint(((v as i64) - prev - 1) as u64, &mut data);
                            }
                            prev = v as i64;
                            if v < begin || v >= end {
                                ghosts.push(v);
                            }
                        }
                        if weighted {
                            let mut prev_w = 0i64;
                            for &(_, w) in &nbrs {
                                encode_signed_varint(w as i64 - prev_w, &mut data);
                                prev_w = w as i64;
                            }
                        }
                    }
                    ShardStorage::Compressed {
                        offsets,
                        data,
                        degrees,
                        weighted,
                    }
                } else {
                    let mut xadj = vec![0u64];
                    let mut adjacency = Vec::new();
                    let mut weights = Vec::new();
                    for u in begin..end {
                        graph.for_each_neighbor(u, &mut |v, w| {
                            adjacency.push(v);
                            if weighted {
                                weights.push(w);
                            }
                            if v < begin || v >= end {
                                ghosts.push(v);
                            }
                        });
                        xadj.push(adjacency.len() as u64);
                    }
                    ShardStorage::Uncompressed {
                        xadj,
                        adjacency,
                        weights,
                    }
                };
                ghosts.sort_unstable();
                ghosts.dedup();
                Shard {
                    pe,
                    begin,
                    end,
                    storage,
                    node_weights,
                    ghosts,
                }
            })
            .collect();

        Self {
            shards,
            n,
            m: graph.m(),
            boundaries,
            total_node_weight: graph.total_node_weight(),
        }
    }

    /// Rank of the PE owning global vertex `u`.
    pub fn owner(&self, u: NodeId) -> usize {
        // boundaries is small (p + 1 entries): binary search.
        match self.boundaries.binary_search(&u) {
            Ok(i) => i.min(self.shards.len() - 1),
            Err(i) => i - 1,
        }
    }

    /// Maximum per-PE memory in bytes (the quantity limiting scalability in Figure 8).
    pub fn max_pe_memory(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.memory_bytes())
            .max()
            .unwrap_or(0)
    }

    /// Total memory across PEs.
    pub fn total_memory(&self) -> usize {
        self.shards.iter().map(|s| s.memory_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen;

    fn check_sharding(graph: &CsrGraph, dist: &DistGraph) {
        // Every vertex is owned by exactly one PE and the ranges tile [0, n).
        assert_eq!(dist.boundaries[0], 0);
        assert_eq!(*dist.boundaries.last().unwrap() as usize, graph.n());
        let total_owned: usize = dist.shards.iter().map(|s| s.num_owned()).sum();
        assert_eq!(total_owned, graph.n());
        // Shard adjacency reproduces the original neighbourhoods.
        for shard in &dist.shards {
            for u in shard.begin..shard.end {
                assert_eq!(shard.degree(u), graph.degree(u));
                assert_eq!(shard.node_weight(u), graph.node_weight(u));
                let mut a = graph.neighbors_vec(u);
                let mut b = Vec::new();
                shard.for_each_neighbor(u, &mut |v, w| b.push((v, w)));
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "neighborhood mismatch at {}", u);
                assert_eq!(dist.owner(u), shard.pe);
            }
            // Ghosts are exactly the externally owned neighbours.
            for &g in &shard.ghosts {
                assert!(!shard.owns(g));
            }
        }
    }

    #[test]
    fn sharding_preserves_the_graph_uncompressed_and_compressed() {
        let g = gen::rgg2d(800, 10, 3);
        for compressed in [false, true] {
            let dist = DistGraph::shard(&g, 4, compressed);
            assert_eq!(dist.shards.len(), 4);
            check_sharding(&g, &dist);
        }
    }

    #[test]
    fn weighted_graphs_shard_correctly() {
        let g = gen::with_random_edge_weights(&gen::erdos_renyi(200, 800, 1), 7, 2);
        let dist = DistGraph::shard(&g, 3, true);
        check_sharding(&g, &dist);
    }

    #[test]
    fn compression_reduces_per_pe_memory() {
        let g = gen::rgg2d(3000, 24, 5);
        let plain = DistGraph::shard(&g, 4, false);
        let compressed = DistGraph::shard(&g, 4, true);
        assert!(
            compressed.max_pe_memory() < plain.max_pe_memory(),
            "compressed shards should be smaller: {} vs {}",
            compressed.max_pe_memory(),
            plain.max_pe_memory()
        );
        assert!(compressed.total_memory() < plain.total_memory());
    }

    #[test]
    fn edge_balance_across_pes() {
        let g = gen::rhg_like(2000, 12, 3.0, 7);
        let dist = DistGraph::shard(&g, 4, false);
        let edges_per_pe: Vec<usize> = dist
            .shards
            .iter()
            .map(|s| (s.begin..s.end).map(|u| s.degree(u)).sum())
            .collect();
        let max = *edges_per_pe.iter().max().unwrap();
        let avg = edges_per_pe.iter().sum::<usize>() / edges_per_pe.len();
        assert!(
            max <= 2 * avg + g.max_degree(),
            "imbalanced shards: {:?}",
            edges_per_pe
        );
    }

    #[test]
    fn single_pe_owns_everything() {
        let g = gen::grid2d(5, 5);
        let dist = DistGraph::shard(&g, 1, false);
        assert_eq!(dist.shards[0].num_owned(), 25);
        assert!(dist.shards[0].ghosts.is_empty());
        check_sharding(&g, &dist);
    }

    #[test]
    fn more_pes_than_interesting_vertices() {
        let g = gen::path(6);
        let dist = DistGraph::shard(&g, 8, false);
        check_sharding(&g, &dist);
        assert_eq!(dist.shards.len(), 8);
    }
}
