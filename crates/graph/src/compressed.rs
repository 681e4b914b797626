//! Compressed graph representation with on-the-fly neighbourhood decoding (paper §III-A).
//!
//! The encoding follows the paper: neighbourhoods are sorted by neighbour ID and stored as
//! *gaps* (differences between consecutive IDs) encoded as VarInts; runs of at least
//! [`CompressionConfig::min_interval_len`] consecutive IDs are stored as *intervals*
//! `(left, length)` instead of individual gaps; the first gap of a neighbourhood is taken
//! relative to the vertex's own ID and may be negative, so it uses zigzag encoding. Edge
//! weights, when present, are stored as signed deltas interleaved with each chunk. To
//! allow parallel iteration over very large neighbourhoods, the neighbour list of a vertex
//! whose degree exceeds [`CompressionConfig::high_degree_threshold`] is split into chunks
//! of [`CompressionConfig::chunk_len`] neighbours that are encoded and decoded
//! independently.
//!
//! Every neighbourhood additionally starts with the ID of its first half-edge, so edge IDs
//! can be recovered during iteration (several KaMinPar components index per-edge arrays).
//!
//! [`SectionEncoder`] is the one writer of this format: every path that produces
//! encoded neighbourhoods — [`CompressedGraph::from_csr`], the streaming readers of
//! [`crate::io`], the packets of [`compress_csr_parallel`](crate::builder::compress_csr_parallel)
//! and the `.tpg` writer — appends through it, and its [`EncodedSection`] is the one
//! place that counts first edges, offsets, half-edges, the maximum degree and the
//! weight totals.

use crate::csr::CsrGraph;
use crate::packed::PackedArray;
#[cfg(all(unix, target_pointer_width = "64"))]
use crate::store::mmap::MappedFile;
use crate::traits::Graph;
use crate::varint::{decode_signed_varint, decode_varint, encode_signed_varint, encode_varint};
use crate::{EdgeId, EdgeWeight, NodeId, NodeWeight};

/// Tuning knobs of the compression scheme. The edge weights of a weighted graph are
/// always stored (signed-delta VarInts behind each chunk's ids).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressionConfig {
    /// Enables interval encoding of consecutive-ID runs. Disabling it yields the
    /// "gap encoding only" configuration of Figure 6 (right) / Figure 10.
    pub enable_intervals: bool,
    /// Degree above which a neighbourhood is split into independently decodable chunks.
    /// The paper uses 10 000.
    pub high_degree_threshold: usize,
    /// Number of neighbours per chunk for high-degree vertices. The paper uses 1 000.
    pub chunk_len: usize,
    /// Minimum length of a consecutive run to be stored as an interval. The paper uses 3.
    pub min_interval_len: usize,
}

impl Default for CompressionConfig {
    fn default() -> Self {
        Self {
            enable_intervals: true,
            high_degree_threshold: 10_000,
            chunk_len: 1_000,
            min_interval_len: 3,
        }
    }
}

impl CompressionConfig {
    /// Configuration with interval encoding disabled (gap encoding only).
    pub fn gap_only() -> Self {
        Self {
            enable_intervals: false,
            ..Self::default()
        }
    }
}

/// The encoded neighbourhoods of a [`CompressedGraph`]: the bytes an in-memory
/// constructor encoded or a load copied onto the heap, or the data section of a
/// read-only mapping of a whole `.tpg` container (platforms without the mapping binding
/// only ever hold the heap form).
pub(crate) enum Bytes {
    Heap(Vec<u8>),
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(MappedFile),
}

impl Bytes {
    /// The encoded neighbourhoods.
    #[inline]
    fn as_slice(&self) -> &[u8] {
        match self {
            Bytes::Heap(data) => data,
            #[cfg(all(unix, target_pointer_width = "64"))]
            Bytes::Mapped(file) => file.data(),
        }
    }

    /// Bytes these pin: the data section on the heap, the whole file when mapped.
    pub(crate) fn size_in_bytes(&self) -> usize {
        match self {
            Bytes::Heap(data) => data.len(),
            #[cfg(all(unix, target_pointer_width = "64"))]
            Bytes::Mapped(file) => file.file_len(),
        }
    }

    /// Whether this is a real memory mapping (vs the heap).
    pub(crate) fn is_mapped(&self) -> bool {
        match self {
            Bytes::Heap(_) => false,
            #[cfg(all(unix, target_pointer_width = "64"))]
            Bytes::Mapped(_) => true,
        }
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bytes")
            .field("mapped", &self.is_mapped())
            .field("len", &self.size_in_bytes())
            .finish()
    }
}

/// A graph stored in the compressed byte format with per-vertex byte offsets.
///
/// The one resident decoder of the format: its bytes are a heap buffer or, in an
/// [`MmapGraph`](crate::store::MmapGraph), a read-only mapping of a `.tpg` container.
#[derive(Debug)]
pub struct CompressedGraph {
    n: usize,
    m: usize,
    /// Byte offset of each vertex's encoded neighbourhood; `n + 1` entries, packed. The
    /// `.tpg` container stores the same offsets Elias–Fano encoded; reading one expands
    /// them into this index once.
    offsets: PackedArray,
    /// Concatenated encoded neighbourhoods: on the heap for every in-memory constructor
    /// and for `read_tpg_compressed`, the container's mapped data section in an
    /// [`MmapGraph`](crate::store::MmapGraph).
    data: Bytes,
    /// Node weights, empty when uniform.
    node_weights: Vec<NodeWeight>,
    edge_weighted: bool,
    total_node_weight: NodeWeight,
    total_edge_weight: EdgeWeight,
    max_degree: usize,
    config: CompressionConfig,
}

/// A [`NodeId`] as the signed 64-bit domain the gap codec computes in. Lossless at both
/// widths: valid ids stay below the reserved top bit (see [`crate::ids`]), i.e. below
/// 2^63 even in the wide regime.
#[inline]
fn sid(v: NodeId) -> i64 {
    v as i64
}

/// One encoded run of consecutive vertex neighbourhoods and everything a graph header
/// counts about it: the bytes, each neighbourhood's offset, the half-edges, the maximum
/// degree, the edge- and node-weight totals and the node weights.
///
/// A [`SectionEncoder`] fills it. A section that starts at vertex 0 and covers every
/// vertex is a whole graph; shorter ones are the packets of the one ordered-commit
/// path, [`compress_csr_parallel`](crate::builder::compress_csr_parallel), whose
/// committer absorbs their counts in vertex order. The committed byte stream is
/// identical to pushing the same neighbourhoods one by one.
#[derive(Debug, Default)]
pub struct EncodedSection {
    /// First vertex of the section.
    pub(crate) first_vertex: usize,
    /// The half-edge ID the section's first neighbourhood was encoded against (the
    /// neighbourhood header embeds the absolute first-edge ID, so a section encoded
    /// against the wrong prefix cannot be patched after the fact).
    pub(crate) base_first_edge: EdgeId,
    /// Concatenated encoded neighbourhoods.
    pub(crate) bytes: Vec<u8>,
    /// Start of each neighbourhood relative to the section start, then its end:
    /// one entry more than the section has vertices.
    pub(crate) offsets: Vec<u64>,
    /// Node weight of each vertex; empty while every weight so far is 1.
    pub(crate) node_weights: Vec<NodeWeight>,
    /// Sum of the node weights.
    pub(crate) total_node_weight: NodeWeight,
    /// Half-edges (directed neighbour entries) in the section.
    pub(crate) half_edges: usize,
    /// Sum of all neighbour weights (each half-edge counted once).
    pub(crate) total_edge_weight: EdgeWeight,
    /// Maximum degree within the section.
    pub(crate) max_degree: usize,
}

impl EncodedSection {
    /// An empty section starting at `first_vertex` / half-edge `base_first_edge`, with
    /// room for the offsets of `vertices` neighbourhoods.
    pub(crate) fn with_capacity(
        first_vertex: usize,
        base_first_edge: EdgeId,
        vertices: usize,
    ) -> Self {
        let mut offsets = Vec::with_capacity(vertices + 1);
        offsets.push(0);
        Self {
            first_vertex,
            base_first_edge,
            offsets,
            ..Self::default()
        }
    }

    /// Number of vertices encoded into the section.
    pub(crate) fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The first half-edge ID of the next neighbourhood.
    pub(crate) fn next_first_edge(&self) -> EdgeId {
        self.base_first_edge + self.half_edges as EdgeId
    }

    /// Byte length of the encoded neighbourhoods, committed or not.
    pub(crate) fn data_len(&self) -> u64 {
        self.offsets[self.vertex_count()]
    }

    /// Appends `node_weight` for the next vertex, materialising the all-ones prefix
    /// the first time a weight differs from 1.
    fn push_node_weight(&mut self, node_weight: NodeWeight, vertices: usize) {
        if node_weight != 1 || !self.node_weights.is_empty() {
            self.node_weights.resize(vertices, 1);
            self.node_weights.push(node_weight);
        }
        self.total_node_weight += node_weight;
    }

    /// Adds the counts of `next` — the section that follows this one — to this one's.
    /// Its bytes are the committer's to place: they belong right behind this section's.
    pub(crate) fn absorb(&mut self, next: &EncodedSection) {
        debug_assert_eq!(next.first_vertex, self.first_vertex + self.vertex_count());
        debug_assert_eq!(next.base_first_edge, self.next_first_edge());
        let (vertices, end) = (self.vertex_count(), self.data_len());
        if !next.node_weights.is_empty() || !self.node_weights.is_empty() {
            self.node_weights.resize(vertices, 1);
            self.node_weights.extend_from_slice(&next.node_weights);
            self.node_weights.resize(vertices + next.vertex_count(), 1);
        }
        self.offsets
            .extend(next.offsets[1..].iter().map(|&offset| end + offset));
        self.total_node_weight += next.total_node_weight;
        self.half_edges += next.half_edges;
        self.total_edge_weight += next.total_edge_weight;
        self.max_degree = self.max_degree.max(next.max_degree);
    }

    /// The graph whose neighbourhoods `data` holds and this section (starting at vertex
    /// 0) counted, its offsets packed once into a [`PackedArray`]. `node_weighted`
    /// keeps a weight array even when every weight is 1.
    pub(crate) fn into_graph(
        self,
        data: Vec<u8>,
        edge_weighted: bool,
        node_weighted: bool,
        config: CompressionConfig,
    ) -> CompressedGraph {
        debug_assert_eq!(self.first_vertex, 0);
        let (n, data_len) = (self.vertex_count(), self.data_len());
        let node_weights = match (node_weighted, self.node_weights.is_empty()) {
            (true, true) => vec![1; n],
            _ => self.node_weights,
        };
        debug_assert!(node_weighted || node_weights.is_empty());
        CompressedGraph::from_encoded_parts(
            n,
            self.half_edges / 2,
            PackedArray::pack(data_len, self.offsets.into_iter()),
            Bytes::Heap(data),
            node_weights,
            edge_weighted,
            self.total_node_weight,
            self.total_edge_weight / 2,
            self.max_degree,
            config,
        )
    }
}

/// Appends neighbourhoods, in vertex order, to an [`EncodedSection`] — the one caller
/// of the neighbourhood codec's encoder.
///
/// `base_first_edge` must equal the number of half-edges of all vertices preceding
/// `first_vertex` in the final graph: a packet reads it off the CSR offsets, the
/// `.tpg` writer off its running totals. Edge weights are stored iff `edge_weighted`.
pub struct SectionEncoder {
    pub(crate) config: CompressionConfig,
    pub(crate) edge_weighted: bool,
    /// The neighbourhoods encoded so far; read or moved out as is by the committer.
    pub(crate) section: EncodedSection,
}

impl SectionEncoder {
    /// Creates an encoder for the vertex run starting at `first_vertex`, whose first
    /// neighbourhood begins at half-edge `base_first_edge`. `edge_weighted` and
    /// `config` must match whatever the section is committed to.
    pub fn new(
        first_vertex: NodeId,
        base_first_edge: EdgeId,
        edge_weighted: bool,
        config: &CompressionConfig,
    ) -> Self {
        Self {
            config: config.clone(),
            edge_weighted,
            section: EncodedSection::with_capacity(first_vertex as usize, base_first_edge, 0),
        }
    }

    /// An encoder for a whole graph of `n` vertices, offsets reserved up front.
    pub(crate) fn for_graph(n: usize, edge_weighted: bool, config: &CompressionConfig) -> Self {
        Self {
            config: config.clone(),
            edge_weighted,
            section: EncodedSection::with_capacity(0, 0, n),
        }
    }

    /// Appends the next vertex's neighbourhood: vertices in ID order, `neighbors`
    /// sorted by neighbour ID and free of duplicates and self-loops; `node_weight` is
    /// the vertex's weight (1 for uniform graphs).
    pub fn push_neighborhood(
        &mut self,
        u: NodeId,
        neighbors: &[(NodeId, EdgeWeight)],
        node_weight: NodeWeight,
    ) {
        let section = &mut self.section;
        let vertices = section.vertex_count();
        assert_eq!(
            u as usize,
            section.first_vertex + vertices,
            "section neighbourhoods must be pushed in vertex order"
        );
        encode_neighborhood(
            u,
            section.next_first_edge(),
            neighbors,
            self.edge_weighted,
            &self.config,
            &mut section.bytes,
        );
        section.offsets.push(section.bytes.len() as u64);
        section.push_node_weight(node_weight, vertices);
        section.half_edges += neighbors.len();
        section.max_degree = section.max_degree.max(neighbors.len());
        section.total_edge_weight += neighbors.iter().map(|&(_, w)| w).sum::<EdgeWeight>();
    }

    /// Empties the encoder for a run starting at `first_vertex` / `base_first_edge`,
    /// keeping its buffers.
    pub(crate) fn restart(&mut self, first_vertex: usize, base_first_edge: EdgeId) {
        let old = std::mem::take(&mut self.section);
        let (mut bytes, mut offsets, mut node_weights) = (old.bytes, old.offsets, old.node_weights);
        bytes.clear();
        offsets.truncate(1);
        node_weights.clear();
        self.section = EncodedSection {
            first_vertex,
            base_first_edge,
            bytes,
            offsets,
            node_weights,
            ..EncodedSection::default()
        };
    }

    /// The graph encoded so far (it must start at vertex 0 and cover every vertex).
    /// `node_weighted` keeps a weight array even when every weight is 1.
    pub(crate) fn into_graph(mut self, node_weighted: bool) -> CompressedGraph {
        let data = std::mem::take(&mut self.section.bytes);
        self.section
            .into_graph(data, self.edge_weighted, node_weighted, self.config)
    }
}

/// Encodes one neighbourhood into `out`.
///
/// `first_edge` is the ID of the first half-edge of the neighbourhood, `u` the vertex the
/// neighbourhood belongs to, and `neighbors` its `(neighbor, weight)` pairs sorted by
/// neighbour ID. `weighted` selects whether weights are stored.
fn encode_neighborhood(
    u: NodeId,
    first_edge: EdgeId,
    neighbors: &[(NodeId, EdgeWeight)],
    weighted: bool,
    config: &CompressionConfig,
    out: &mut Vec<u8>,
) {
    debug_assert!(
        neighbors.windows(2).all(|w| w[0].0 < w[1].0),
        "neighbors must be sorted"
    );
    encode_varint(first_edge, out);
    encode_varint(neighbors.len() as u64, out);
    if neighbors.is_empty() {
        return;
    }
    let chunked = neighbors.len() > config.high_degree_threshold;
    if !chunked {
        encode_chunk(u, neighbors, weighted, config, out);
        return;
    }
    let chunks: Vec<&[(NodeId, EdgeWeight)]> = neighbors.chunks(config.chunk_len).collect();
    encode_varint(chunks.len() as u64, out);
    // Encode each chunk into a scratch buffer first so the chunk byte lengths can be
    // written as a header, allowing chunks to be located (and decoded in parallel)
    // without decoding their predecessors.
    let mut encoded_chunks: Vec<Vec<u8>> = Vec::with_capacity(chunks.len());
    for chunk in &chunks {
        let mut buf = Vec::new();
        encode_chunk(u, chunk, weighted, config, &mut buf);
        encoded_chunks.push(buf);
    }
    for buf in &encoded_chunks {
        encode_varint(buf.len() as u64, out);
    }
    for buf in &encoded_chunks {
        out.extend_from_slice(buf);
    }
}

/// Encodes a single chunk of a neighbourhood (gap + interval + optional weights).
fn encode_chunk(
    u: NodeId,
    neighbors: &[(NodeId, EdgeWeight)],
    weighted: bool,
    config: &CompressionConfig,
    out: &mut Vec<u8>,
) {
    // Identify interval runs of consecutive IDs.
    let ids: Vec<NodeId> = neighbors.iter().map(|&(v, _)| v).collect();
    let mut intervals: Vec<(NodeId, usize)> = Vec::new();
    let mut residuals: Vec<NodeId> = Vec::new();
    // `order` records, for each neighbour position in decode order (intervals first, then
    // residuals), the index into `neighbors` — used to emit the weights in decode order.
    let mut interval_order: Vec<usize> = Vec::new();
    let mut residual_order: Vec<usize> = Vec::new();
    if config.enable_intervals {
        let mut i = 0;
        while i < ids.len() {
            let mut j = i + 1;
            while j < ids.len() && ids[j] == ids[j - 1] + 1 {
                j += 1;
            }
            let run = j - i;
            if run >= config.min_interval_len {
                intervals.push((ids[i], run));
                interval_order.extend(i..j);
            } else {
                residuals.extend_from_slice(&ids[i..j]);
                residual_order.extend(i..j);
            }
            i = j;
        }
    } else {
        residuals.extend_from_slice(&ids);
        residual_order.extend(0..ids.len());
    }

    if config.enable_intervals {
        encode_varint(intervals.len() as u64, out);
        let mut prev_end: i64 = sid(u);
        for (k, &(left, len)) in intervals.iter().enumerate() {
            if k == 0 {
                encode_signed_varint(sid(left) - sid(u), out);
            } else {
                encode_varint((sid(left) - prev_end) as u64, out);
            }
            encode_varint((len - config.min_interval_len) as u64, out);
            prev_end = sid(left) + len as i64;
        }
    }

    // Residual gaps: first gap is signed relative to u, later gaps are strictly positive
    // (stored minus one).
    let mut prev: i64 = sid(u);
    for (k, &v) in residuals.iter().enumerate() {
        if k == 0 {
            encode_signed_varint(sid(v) - prev, out);
        } else {
            encode_varint((sid(v) - prev - 1) as u64, out);
        }
        prev = sid(v);
    }

    if weighted {
        let mut prev_weight: i64 = 0;
        for &idx in interval_order.iter().chain(residual_order.iter()) {
            let w = neighbors[idx].1 as i64;
            encode_signed_varint(w - prev_weight, out);
            prev_weight = w;
        }
    }
}

/// Decodes the id section of a chunk of `count` neighbours starting at `data[pos]`,
/// streaming every neighbour id into `emit` as it is decoded: the members of the
/// intervals first, then the residuals. Returns the position right after the section.
#[inline]
fn decode_ids(
    data: &[u8],
    mut pos: usize,
    u: NodeId,
    count: usize,
    config: &CompressionConfig,
    mut emit: impl FnMut(NodeId),
) -> usize {
    let mut in_intervals = 0usize;
    if config.enable_intervals {
        let (interval_count, p) = decode_varint(data, pos);
        pos = p;
        let mut prev_end: i64 = sid(u);
        for k in 0..interval_count {
            let left = if k == 0 {
                let (delta, p) = decode_signed_varint(data, pos);
                pos = p;
                sid(u) + delta
            } else {
                let (delta, p) = decode_varint(data, pos);
                pos = p;
                prev_end + delta as i64
            };
            let (len_raw, p) = decode_varint(data, pos);
            pos = p;
            let len = len_raw as usize + config.min_interval_len;
            for offset in 0..len as i64 {
                emit((left + offset) as NodeId);
            }
            in_intervals += len;
            prev_end = left + len as i64;
        }
    }
    let mut prev: i64 = sid(u);
    for k in 0..count - in_intervals {
        let v = if k == 0 {
            let (delta, p) = decode_signed_varint(data, pos);
            pos = p;
            prev + delta
        } else {
            let (gap, p) = decode_varint(data, pos);
            pos = p;
            prev + gap as i64 + 1
        };
        emit(v as NodeId);
        prev = v;
    }
    pos
}

/// Decodes a single chunk, invoking `f(neighbor, weight)` for every neighbour in the
/// order of [`decode_ids`], which is the order the weights were written in.
///
/// Nothing is buffered and nothing is allocated. A weighted chunk stores its weight
/// deltas *after* the id section, so it is decoded with two cursors: one walk over the
/// id section finds where the deltas begin, then ids and weights advance in lockstep.
fn decode_chunk(
    data: &[u8],
    pos: usize,
    u: NodeId,
    count: usize,
    weighted: bool,
    config: &CompressionConfig,
    f: &mut dyn FnMut(NodeId, EdgeWeight),
) {
    if !weighted {
        decode_ids(data, pos, u, count, config, |v| f(v, 1));
        return;
    }
    let mut weight_pos = decode_ids(data, pos, u, count, config, |_| {});
    let mut prev_weight: i64 = 0;
    decode_ids(data, pos, u, count, config, |v| {
        let (delta, p) = decode_signed_varint(data, weight_pos);
        weight_pos = p;
        prev_weight += delta;
        f(v, prev_weight as EdgeWeight);
    });
}

/// Fewest bytes an encoded neighbourhood takes: the two header varints (first edge,
/// degree). A valid offset index therefore climbs by at least this much per vertex.
pub(crate) const MIN_NEIGHBORHOOD_BYTES: u64 = 2;

/// Decodes the fixed header of an encoded neighbourhood: `(first_edge, degree, pos)`
/// where `pos` is the byte position right after the header.
#[inline]
pub(crate) fn decode_neighborhood_header(data: &[u8], pos: usize) -> (EdgeId, usize, usize) {
    let (first_edge, pos) = decode_varint(data, pos);
    let (degree, pos) = decode_varint(data, pos);
    (first_edge, degree as usize, pos)
}

/// Decodes one encoded neighbourhood of vertex `u` starting at `data[pos]`, invoking
/// `f(neighbor, weight)` for every neighbour.
///
/// This is the single decoding routine shared by the in-memory [`CompressedGraph`] and
/// the on-disk [`PagedGraph`](crate::store::PagedGraph): both store neighbourhoods in
/// the identical byte format, so neighbour iteration order — and therefore every
/// downstream partitioning decision — is bit-identical across the two representations.
pub(crate) fn decode_neighborhood(
    data: &[u8],
    pos: usize,
    u: NodeId,
    weighted: bool,
    config: &CompressionConfig,
    f: &mut dyn FnMut(NodeId, EdgeWeight),
) {
    let (_, degree, mut pos) = decode_neighborhood_header(data, pos);
    if degree == 0 {
        return;
    }
    if degree <= config.high_degree_threshold {
        decode_chunk(data, pos, u, degree, weighted, config, f);
        return;
    }
    // Two cursors again: `pos` walks the chunk-length header while `chunk_pos` walks the
    // chunks behind it.
    let (num_chunks, p) = decode_varint(data, pos);
    pos = p;
    let mut chunk_pos = pos;
    for _ in 0..num_chunks {
        chunk_pos = decode_varint(data, chunk_pos).1;
    }
    let mut remaining = degree;
    for _ in 0..num_chunks {
        let (len, p) = decode_varint(data, pos);
        pos = p;
        let count = remaining.min(config.chunk_len);
        decode_chunk(data, chunk_pos, u, count, weighted, config, f);
        chunk_pos += len as usize;
        remaining -= count;
    }
}

impl CompressedGraph {
    /// Compresses a CSR graph. Neighbourhoods are sorted internally before encoding.
    /// The plain sequential loop — the reference the parallel builder is tested against.
    pub fn from_csr(csr: &CsrGraph, config: &CompressionConfig) -> Self {
        let mut encoder = SectionEncoder::for_graph(csr.n(), csr.is_edge_weighted(), config);
        for u in 0..csr.n() as NodeId {
            let mut nbrs = csr.neighbors_vec(u);
            nbrs.sort_unstable_by_key(|&(v, _)| v);
            encoder.push_neighborhood(u, &nbrs, csr.node_weight(u));
        }
        encoder.into_graph(csr.is_node_weighted())
    }

    /// Assembles a compressed graph from pre-encoded parts.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_encoded_parts(
        n: usize,
        m: usize,
        offsets: PackedArray,
        data: Bytes,
        node_weights: Vec<NodeWeight>,
        edge_weighted: bool,
        total_node_weight: NodeWeight,
        total_edge_weight: EdgeWeight,
        max_degree: usize,
        config: CompressionConfig,
    ) -> Self {
        assert_eq!(offsets.len(), n + 1);
        Self {
            n,
            m,
            offsets,
            data,
            node_weights,
            edge_weighted,
            total_node_weight,
            total_edge_weight,
            max_degree,
            config,
        }
    }

    /// Number of bytes used by the encoded adjacency data (the whole file when it is
    /// mapped), the offset index and the node weights.
    pub fn size_in_bytes(&self) -> usize {
        self.data.size_in_bytes()
            + self.offsets.size_in_bytes()
            + self.node_weights.len() * std::mem::size_of::<NodeWeight>()
    }

    /// Number of bytes used by the encoded adjacency data alone.
    pub fn encoded_data_bytes(&self) -> usize {
        self.data.as_slice().len()
    }

    /// Ratio of the plain CSR size ([`CsrGraph::plain_size_in_bytes`]) to this graph's
    /// size ("compression ratio" in Figures 6 and 10). Values above 1 mean the compressed
    /// form is smaller.
    pub fn compression_ratio(&self, csr: &CsrGraph) -> f64 {
        csr.plain_size_in_bytes() as f64 / self.size_in_bytes() as f64
    }

    /// Average number of bytes per stored half-edge.
    pub fn bytes_per_edge(&self) -> f64 {
        if self.m == 0 {
            0.0
        } else {
            self.encoded_data_bytes() as f64 / (2.0 * self.m as f64)
        }
    }

    /// The configuration the graph was encoded with.
    pub fn config(&self) -> &CompressionConfig {
        &self.config
    }

    /// ID of the first half-edge of `u`'s neighbourhood.
    pub fn first_edge(&self, u: NodeId) -> EdgeId {
        self.decode_header(u).0
    }

    /// `(first_edge, degree, pos)` of `u`'s neighbourhood (see
    /// [`decode_neighborhood_header`]).
    fn decode_header(&self, u: NodeId) -> (EdgeId, usize, usize) {
        decode_neighborhood_header(self.data.as_slice(), self.offsets.get(u as usize) as usize)
    }

    /// The bytes behind the graph: heap or mapping.
    pub(crate) fn bytes(&self) -> &Bytes {
        &self.data
    }

    /// Bytes of the packed offset index.
    pub(crate) fn offset_index_bytes(&self) -> usize {
        self.offsets.size_in_bytes()
    }
}

impl Graph for CompressedGraph {
    fn n(&self) -> usize {
        self.n
    }

    fn m(&self) -> usize {
        self.m
    }

    fn degree(&self, u: NodeId) -> usize {
        self.decode_header(u).1
    }

    fn node_weight(&self, u: NodeId) -> NodeWeight {
        if self.node_weights.is_empty() {
            1
        } else {
            self.node_weights[u as usize]
        }
    }

    fn total_node_weight(&self) -> NodeWeight {
        self.total_node_weight
    }

    fn total_edge_weight(&self) -> EdgeWeight {
        self.total_edge_weight
    }

    fn for_each_neighbor(&self, u: NodeId, f: &mut dyn FnMut(NodeId, EdgeWeight)) {
        decode_neighborhood(
            self.data.as_slice(),
            self.offsets.get(u as usize) as usize,
            u,
            self.edge_weighted,
            &self.config,
            f,
        );
    }

    fn is_edge_weighted(&self) -> bool {
        self.edge_weighted
    }

    fn is_node_weighted(&self) -> bool {
        !self.node_weights.is_empty()
    }

    fn max_degree(&self) -> usize {
        self.max_degree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraphBuilder;
    use crate::gen;
    use proptest::prelude::*;

    fn assert_same_graph(csr: &CsrGraph, compressed: &CompressedGraph) {
        assert_eq!(csr.n(), compressed.n());
        assert_eq!(csr.m(), compressed.m());
        assert_eq!(csr.total_edge_weight(), compressed.total_edge_weight());
        assert_eq!(csr.total_node_weight(), compressed.total_node_weight());
        assert_eq!(csr.max_degree(), compressed.max_degree());
        for u in 0..csr.n() as NodeId {
            assert_eq!(
                csr.degree(u),
                compressed.degree(u),
                "degree mismatch at {}",
                u
            );
            assert_eq!(csr.node_weight(u), compressed.node_weight(u));
            let mut a = csr.neighbors_vec(u);
            let mut b = compressed.neighbors_vec(u);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "neighborhood mismatch at {}", u);
        }
    }

    #[test]
    fn round_trip_small_graph() {
        let mut b = CsrGraphBuilder::new(6);
        b.add_edge(0, 1, 1);
        b.add_edge(0, 2, 1);
        b.add_edge(0, 3, 1);
        b.add_edge(0, 5, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(4, 5, 1);
        let csr = b.build();
        let compressed = CompressedGraph::from_csr(&csr, &CompressionConfig::default());
        assert_same_graph(&csr, &compressed);
    }

    #[test]
    fn round_trip_weighted_graph() {
        let mut b = CsrGraphBuilder::new(5);
        b.add_edge(0, 1, 10);
        b.add_edge(0, 2, 3);
        b.add_edge(1, 2, 100);
        b.add_edge(3, 4, 7);
        b.add_edge(0, 4, 1);
        let csr = b.build();
        let compressed = CompressedGraph::from_csr(&csr, &CompressionConfig::default());
        assert!(compressed.is_edge_weighted());
        assert_same_graph(&csr, &compressed);
    }

    #[test]
    fn round_trip_grid_and_powerlaw() {
        let grid = gen::grid2d(20, 20);
        let compressed = CompressedGraph::from_csr(&grid, &CompressionConfig::default());
        assert_same_graph(&grid, &compressed);

        let pl = gen::rhg_like(500, 8, 3.0, 42);
        let compressed = CompressedGraph::from_csr(&pl, &CompressionConfig::default());
        assert_same_graph(&pl, &compressed);
    }

    #[test]
    fn gap_only_round_trips_and_is_larger_on_local_graphs() {
        // A complete graph has perfectly consecutive neighbourhoods, which is where
        // interval encoding shines.
        let g = gen::complete(64);
        let with_intervals = CompressedGraph::from_csr(&g, &CompressionConfig::default());
        let gap_only = CompressedGraph::from_csr(&g, &CompressionConfig::gap_only());
        assert_same_graph(&g, &with_intervals);
        assert_same_graph(&g, &gap_only);
        assert!(
            with_intervals.encoded_data_bytes() < gap_only.encoded_data_bytes(),
            "interval encoding should be smaller on a complete graph: {} vs {}",
            with_intervals.encoded_data_bytes(),
            gap_only.encoded_data_bytes()
        );
    }

    #[test]
    fn high_degree_vertices_are_chunked() {
        // A star graph with a hub whose degree exceeds the (lowered) threshold.
        let config = CompressionConfig {
            high_degree_threshold: 50,
            chunk_len: 16,
            ..CompressionConfig::default()
        };
        let g = gen::star(201);
        let compressed = CompressedGraph::from_csr(&g, &config);
        assert_same_graph(&g, &compressed);
        assert_eq!(compressed.degree(0), 200);
    }

    #[test]
    fn compression_ratio_exceeds_one_on_structured_graphs() {
        let g = gen::grid2d(50, 50);
        let compressed = CompressedGraph::from_csr(&g, &CompressionConfig::default());
        assert!(compressed.compression_ratio(&g) > 1.0);
        assert!(compressed.bytes_per_edge() < 8.0);
    }

    #[test]
    fn edge_ids_are_consecutive() {
        let g = gen::grid2d(8, 8);
        let compressed = CompressedGraph::from_csr(&g, &CompressionConfig::default());
        let mut expected: EdgeId = 0;
        for u in 0..g.n() as NodeId {
            assert_eq!(compressed.first_edge(u), expected);
            expected += g.degree(u) as EdgeId;
        }
    }

    #[test]
    fn empty_and_isolated_vertices() {
        let mut b = CsrGraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        let csr = b.build();
        let compressed = CompressedGraph::from_csr(&csr, &CompressionConfig::default());
        assert_eq!(compressed.degree(2), 0);
        assert_eq!(compressed.neighbors_vec(2), vec![]);
    }

    #[test]
    fn chunked_high_degree_weighted_round_trip() {
        // A weighted hub graph whose hub degree far exceeds `high_degree_threshold`, so
        // the hub neighbourhood is split into independently decodable chunks; edge
        // weights must survive the chunked encode/decode path exactly.
        let star = gen::star(600);
        let csr = gen::with_random_edge_weights(&star, 1_000, 7);
        let config = CompressionConfig {
            high_degree_threshold: 128,
            chunk_len: 50,
            ..CompressionConfig::default()
        };
        assert!(
            csr.max_degree() > config.high_degree_threshold,
            "hub degree {} does not cross the threshold",
            csr.max_degree()
        );
        let compressed = CompressedGraph::from_csr(&csr, &config);
        assert_same_graph(&csr, &compressed);

        // Same but with interval encoding off (gap-only) and node weights on top: the
        // chunk framing must be independent of the inner encoding.
        let weighted = gen::with_random_node_weights(&csr, 9, 11);
        let gap_only = CompressionConfig {
            enable_intervals: false,
            high_degree_threshold: 100,
            chunk_len: 33,
            ..CompressionConfig::default()
        };
        let compressed = CompressedGraph::from_csr(&weighted, &gap_only);
        assert_same_graph(&weighted, &compressed);
    }

    /// The decoder this module used before the streaming one: collects the ids of a
    /// chunk into a `Vec`, then pairs them with the weights. Kept as the reference the
    /// streaming decoder must equal in *sequence*, not just as a set.
    fn reference_decode_chunk(
        data: &[u8],
        mut pos: usize,
        u: NodeId,
        count: usize,
        weighted: bool,
        config: &CompressionConfig,
        out: &mut Vec<(NodeId, EdgeWeight)>,
    ) {
        let mut ids: Vec<NodeId> = Vec::with_capacity(count);
        if config.enable_intervals {
            let (interval_count, p) = decode_varint(data, pos);
            pos = p;
            let mut prev_end: i64 = sid(u);
            for k in 0..interval_count {
                let left = if k == 0 {
                    let (delta, p) = decode_signed_varint(data, pos);
                    pos = p;
                    sid(u) + delta
                } else {
                    let (delta, p) = decode_varint(data, pos);
                    pos = p;
                    prev_end + delta as i64
                };
                let (len_raw, p) = decode_varint(data, pos);
                pos = p;
                let len = len_raw as usize + config.min_interval_len;
                for offset in 0..len {
                    ids.push((left + offset as i64) as NodeId);
                }
                prev_end = left + len as i64;
            }
        }
        let residual_count = count - ids.len();
        let mut prev: i64 = sid(u);
        for k in 0..residual_count {
            let v = if k == 0 {
                let (delta, p) = decode_signed_varint(data, pos);
                pos = p;
                prev + delta
            } else {
                let (gap, p) = decode_varint(data, pos);
                pos = p;
                prev + gap as i64 + 1
            };
            ids.push(v as NodeId);
            prev = v;
        }
        let mut prev_weight: i64 = 0;
        for &v in &ids {
            if weighted {
                let (delta, p) = decode_signed_varint(data, pos);
                pos = p;
                prev_weight += delta;
                out.push((v, prev_weight as EdgeWeight));
            } else {
                out.push((v, 1));
            }
        }
    }

    /// Reference decode of `u`'s whole neighbourhood (chunk framing included).
    fn reference_neighbors(g: &CompressedGraph, u: NodeId) -> Vec<(NodeId, EdgeWeight)> {
        let weighted = g.edge_weighted;
        let (_, degree, mut pos) = g.decode_header(u);
        let data = g.data.as_slice();
        let mut out = Vec::new();
        if degree == 0 {
            return out;
        }
        if degree <= g.config.high_degree_threshold {
            reference_decode_chunk(data, pos, u, degree, weighted, &g.config, &mut out);
            return out;
        }
        let (num_chunks, p) = decode_varint(data, pos);
        pos = p;
        let mut chunk_lens = Vec::new();
        for _ in 0..num_chunks {
            let (len, p) = decode_varint(data, pos);
            pos = p;
            chunk_lens.push(len as usize);
        }
        let mut remaining = degree;
        for len in chunk_lens {
            let count = remaining.min(g.config.chunk_len);
            reference_decode_chunk(data, pos, u, count, weighted, &g.config, &mut out);
            pos += len;
            remaining -= count;
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_compressed_equals_csr(
            n in 2usize..60,
            edges in proptest::collection::vec((0u32..60, 0u32..60, 1u64..20), 0..400),
            intervals in proptest::bool::ANY,
            weighted in proptest::bool::ANY,
        ) {
            // Degrees land on both sides of `high_degree_threshold` (8): up to 400 edges
            // over fewer than 60 vertices. An unweighted case needs every merged weight to
            // stay 1, so it drops parallel edges.
            let mut b = CsrGraphBuilder::new(n);
            let mut seen = std::collections::HashSet::new();
            for (u, v, w) in edges {
                let (u, v) = (NodeId::from(u % n as u32), NodeId::from(v % n as u32));
                if u == v {
                    continue;
                }
                if weighted {
                    b.add_edge(u, v, w);
                } else if seen.insert((u.min(v), u.max(v))) {
                    b.add_edge(u, v, 1);
                }
            }
            let csr = b.build();
            let config = CompressionConfig {
                enable_intervals: intervals,
                high_degree_threshold: 8,
                chunk_len: 4,
                ..CompressionConfig::default()
            };
            let compressed = CompressedGraph::from_csr(&csr, &config);
            assert_same_graph(&csr, &compressed);
            for u in 0..n as NodeId {
                prop_assert_eq!(
                    compressed.neighbors_vec(u),
                    reference_neighbors(&compressed, u),
                    "streaming decoder left the reference sequence at vertex {}", u
                );
            }
        }
    }
}
