//! Graph substrate for the TeraPart reproduction.
//!
//! This crate provides everything the partitioner needs below the algorithmic layer:
//!
//! * [`csr`] — the uncompressed compressed-sparse-row ([`CsrGraph`]) representation and a
//!   validating builder.
//! * [`varint`] — the VarInt / zigzag byte codecs used by the compressed representation
//!   (paper §III-A).
//! * [`compressed`] — the gap + interval + VarInt encoded [`CompressedGraph`] with
//!   on-the-fly neighbourhood decoding and high-degree chunking (paper §III-A).
//! * [`builder`] — parallel single-pass compression with ordered packet commit
//!   (paper §III-B).
//! * [`traits`] — the [`Graph`] accessor trait that lets every algorithm run unchanged on
//!   either representation.
//! * [`gen`] — synthetic graph generators standing in for the paper's benchmark sets
//!   (random geometric `rgg2d`, power-law `rhg`-like, web-like R-MAT, meshes, ...).
//! * [`io`] — METIS text and binary formats, including a streaming loader that compresses
//!   during the single input pass.
//! * [`store`] — the external-memory graph store: the `.tpg` on-disk container, the
//!   page-cache-backed [`PagedGraph`] and bounded-memory streaming instance generation.
//! * [`permute`] — vertex relabelling: applies a permutation (e.g. a random one, which
//!   destroys the neighbour-ID locality that interval encoding exploits).
//! * [`stats`] — instance statistics for Table I / Figure 9.
//!
//! # Quick example
//!
//! ```
//! use graph::gen;
//! use graph::traits::Graph;
//! use graph::compressed::CompressedGraph;
//!
//! let csr = gen::grid2d(16, 16);
//! let compressed = CompressedGraph::from_csr(&csr, &Default::default());
//! assert_eq!(csr.n(), compressed.n());
//! assert_eq!(csr.m(), compressed.m());
//! // Both representations expose identical neighbourhoods.
//! assert_eq!(csr.neighbors_vec(0), compressed.neighbors_vec(0));
//! ```

pub mod builder;
pub mod checksum;
pub mod compressed;
pub mod csr;
pub mod gen;
pub mod ids;
pub mod io;
pub mod permute;
pub mod stats;
pub mod store;
pub mod traits;
pub mod varint;

pub use compressed::{CompressedGraph, CompressionConfig};
pub use csr::{CsrGraph, CsrGraphBuilder};
pub use ids::{AtomicNodeId, ClusterId, NodeId};
pub use store::{
    MmapGraph, OnDiskBackend, PagedGraph, PagedGraphOptions, StoreHandle, StoreRegistry,
    StoreSession,
};
pub use traits::Graph;

/// Identifier of a directed half-edge (an index into the adjacency array). Always
/// 64-bit: the half-edge count of a graph whose vertex count fits 32 bits can still
/// exceed 2^32 (see [`ids`] for the width contract).
pub type EdgeId = u64;

/// Weight of a vertex (always ≥ 1 for valid graphs).
pub type NodeWeight = u64;

/// Weight of an edge (always ≥ 1 for valid graphs).
pub type EdgeWeight = u64;

/// An undirected edge given by its two endpoints and a weight, used by builders and
/// generators before the CSR arrays exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// First endpoint.
    pub u: NodeId,
    /// Second endpoint.
    pub v: NodeId,
    /// Edge weight.
    pub weight: EdgeWeight,
}

impl Edge {
    /// Creates an unweighted (weight 1) edge.
    pub fn new(u: NodeId, v: NodeId) -> Self {
        Self { u, v, weight: 1 }
    }

    /// Creates a weighted edge.
    pub fn weighted(u: NodeId, v: NodeId, weight: EdgeWeight) -> Self {
        Self { u, v, weight }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_constructors() {
        let e = Edge::new(1, 2);
        assert_eq!(e.weight, 1);
        let w = Edge::weighted(3, 4, 7);
        assert_eq!((w.u, w.v, w.weight), (3, 4, 7));
    }
}
