//! Compressed graph representation with on-the-fly neighbourhood decoding (paper §III-A).
//!
//! The encoding follows the paper: neighbourhoods are sorted by neighbour ID and stored as
//! *gaps* (differences between consecutive IDs) encoded as VarInts; runs of at least
//! [`MIN_INTERVAL_LEN`] consecutive IDs are stored as *intervals* `(left, length)` instead
//! of individual gaps; the first gap of a neighbourhood is taken relative to the vertex's
//! own ID and may be negative, so it uses zigzag encoding. Edge weights, when present, are
//! stored as signed deltas, each right behind its id (an interval's behind its header).
//! A neighbourhood is its degree followed by that one interval/residual walk, whatever
//! the degree, so it is decoded in one pass over its bytes. The interval length is a
//! constant of the format, as in KaMinPar's compressed graph; the one choice left to a
//! caller is [`CompressionConfig::enable_intervals`].
//!
//! The paper's layout writes two more things into a neighbourhood, for KaMinPar
//! components this reproduction does not have: the ID of its first half-edge (for
//! per-edge arrays) and, above 10 000 neighbours, a table of chunk lengths (for decoding
//! one hub in parallel). Nothing here reads either, so neither is written, and a
//! neighbourhood's bytes do not depend on how many half-edges precede it.
//!
//! [`SectionEncoder`] is the one writer of this format: every path that produces
//! encoded neighbourhoods — [`CompressedGraph::from_csr`], the streaming readers of
//! [`crate::io`], the packets of [`compress_csr_parallel`](crate::builder::compress_csr_parallel)
//! and the `.tpg` writer — appends through it, and its [`EncodedSection`] is the one
//! place that counts neighbourhood lengths, half-edges, the maximum degree, the heaviest
//! weighted degree and the weight totals.
//!
//! A graph's node weights are a [`PackedArray`] at the width of its heaviest vertex, or
//! of the bound a [`GraphWriter`] was given for it: a coarse level whose cluster-weight
//! limit is 391 stores two bytes a vertex. The heaviest weighted degree the encoder
//! counted bounds every affinity the FM gain table stores, which sizes its slots; a
//! graph opened from a `.tpg` container, whose header does not store it, bounds it by
//! its total edge weight ([`Graph::max_weighted_degree`]).

use crate::csr::CsrGraph;
use crate::packed::PackedArray;
use crate::store::container::decode_offset_index;
#[cfg(all(unix, target_pointer_width = "64"))]
use crate::store::mmap::MappedFile;
use crate::traits::Graph;
use crate::varint::{decode_signed_varint, decode_varint, encode_signed_varint, encode_varint};
use crate::{EdgeWeight, NodeId, NodeWeight};
use memtrack::{MemoryScope, ReservedVec};

/// Fewest consecutive ids stored as an interval (the paper's 3).
pub const MIN_INTERVAL_LEN: usize = 3;

/// The one choice of the compression scheme. The edge weights of a weighted graph are
/// always stored (a signed-delta VarInt behind each id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressionConfig {
    /// Enables interval encoding of consecutive-ID runs. Disabling it yields the
    /// "gap encoding only" configuration of Figure 6 (right) / Figure 10.
    pub enable_intervals: bool,
}

impl Default for CompressionConfig {
    fn default() -> Self {
        Self {
            enable_intervals: true,
        }
    }
}

impl CompressionConfig {
    /// Configuration with interval encoding disabled (gap encoding only).
    pub fn gap_only() -> Self {
        Self {
            enable_intervals: false,
        }
    }
}

/// The encoded neighbourhoods of a [`CompressedGraph`]: the bytes an in-memory
/// constructor encoded or a load copied onto the heap, or the data section of a
/// read-only mapping of a `.tpg` container (platforms without the mapping binding
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

    /// Bytes these pin: the data section on the heap, the header and data section when
    /// mapped.
    pub(crate) fn size_in_bytes(&self) -> usize {
        match self {
            Bytes::Heap(data) => data.len(),
            #[cfg(all(unix, target_pointer_width = "64"))]
            Bytes::Mapped(file) => file.mapped_len(),
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
    /// `.tpg` container stores each neighbourhood's length as a VarInt; reading one
    /// prefix-sums them into this index.
    offsets: PackedArray,
    /// Concatenated encoded neighbourhoods: on the heap for every in-memory constructor
    /// and for `read_tpg_compressed`, the container's mapped data section in an
    /// [`MmapGraph`](crate::store::MmapGraph).
    data: Bytes,
    /// Node weights, packed; `None` when uniform.
    node_weights: Option<PackedArray>,
    edge_weighted: bool,
    total_node_weight: NodeWeight,
    total_edge_weight: EdgeWeight,
    max_degree: usize,
    /// [`Graph::max_weighted_degree`]: the heaviest weighted degree where the encoder
    /// counted it, else its bound.
    max_weighted_degree: EdgeWeight,
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
/// counts about it: the bytes, each neighbourhood's length, the half-edges, the maximum
/// degree and weighted degree, the edge- and node-weight totals and the node weights.
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
    /// Concatenated encoded neighbourhoods.
    pub(crate) bytes: Vec<u8>,
    /// The byte length of each neighbourhood as a VarInt, in vertex order: the offset
    /// index as the `.tpg` container stores it, one byte or more a vertex.
    pub(crate) lengths: Vec<u8>,
    /// Number of neighbourhoods in the section.
    pub(crate) vertices: usize,
    /// Byte length of the encoded neighbourhoods, committed or not.
    pub(crate) data_len: u64,
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
    /// Heaviest weighted degree within the section.
    pub(crate) max_weighted_degree: EdgeWeight,
}

impl EncodedSection {
    /// An empty section starting at `first_vertex`, with room for the lengths of
    /// `vertices` neighbourhoods at one byte each.
    pub(crate) fn with_capacity(first_vertex: usize, vertices: usize) -> Self {
        Self {
            first_vertex,
            lengths: Vec::with_capacity(vertices),
            ..Self::default()
        }
    }

    /// Appends `node_weight` for the next vertex, materialising the all-ones prefix
    /// the first time a weight differs from 1.
    fn push_node_weight(&mut self, node_weight: NodeWeight) {
        if node_weight != 1 || !self.node_weights.is_empty() {
            self.node_weights.resize(self.vertices, 1);
            self.node_weights.push(node_weight);
        }
        self.total_node_weight += node_weight;
    }

    /// Adds the counts and node weights of `next` — the section that follows this one —
    /// to this one's. Its bytes are the committer's to place: they belong right behind
    /// this section's.
    pub(crate) fn absorb(&mut self, next: &EncodedSection) {
        let vertices = self.vertices;
        if !next.node_weights.is_empty() || !self.node_weights.is_empty() {
            self.node_weights.resize(vertices, 1);
            self.node_weights.extend_from_slice(&next.node_weights);
            self.node_weights.resize(vertices + next.vertices, 1);
        }
        self.absorb_counts(next);
    }

    /// [`Self::absorb`] without the node weights, which a [`GraphWriter`] packs itself.
    fn absorb_counts(&mut self, next: &EncodedSection) {
        debug_assert_eq!(next.first_vertex, self.first_vertex + self.vertices);
        self.lengths.extend_from_slice(&next.lengths);
        self.vertices += next.vertices;
        self.data_len += next.data_len;
        self.total_node_weight += next.total_node_weight;
        self.half_edges += next.half_edges;
        self.total_edge_weight += next.total_edge_weight;
        self.max_degree = self.max_degree.max(next.max_degree);
        self.max_weighted_degree = self.max_weighted_degree.max(next.max_weighted_degree);
    }

    /// The graph whose neighbourhoods `data` holds and this section (starting at vertex
    /// 0) counted, with `node_weights` (`None`: every vertex weighs 1), its lengths
    /// prefix-summed once into a [`PackedArray`] of offsets by the decoder every `.tpg`
    /// open runs.
    pub(crate) fn into_graph(
        self,
        data: Vec<u8>,
        edge_weighted: bool,
        node_weights: Option<PackedArray>,
        config: CompressionConfig,
    ) -> CompressedGraph {
        debug_assert_eq!(self.first_vertex, 0);
        let n = self.vertices;
        let offsets = decode_offset_index(&self.lengths, n, self.data_len)
            .expect("an encoder's own lengths form a valid offset index");
        CompressedGraph::from_encoded_parts(
            n,
            self.half_edges / 2,
            offsets,
            Bytes::Heap(data),
            node_weights,
            edge_weighted,
            self.total_node_weight,
            self.total_edge_weight / 2,
            self.max_degree,
            Some(self.max_weighted_degree),
            config,
        )
    }
}

/// Appends neighbourhoods, in vertex order, to an [`EncodedSection`] — the one caller
/// of the neighbourhood codec's encoder. Edge weights are stored iff `edge_weighted`.
pub struct SectionEncoder {
    pub(crate) config: CompressionConfig,
    pub(crate) edge_weighted: bool,
    /// The neighbourhoods encoded so far; read or moved out as is by the committer.
    pub(crate) section: EncodedSection,
    /// The intervals of the neighbourhood being encoded, kept between neighbourhoods.
    intervals: Vec<(usize, usize)>,
}

impl SectionEncoder {
    /// Creates an encoder for the vertex run starting at `first_vertex`. `edge_weighted`
    /// and `config` must match whatever the section is committed to.
    pub fn new(first_vertex: NodeId, edge_weighted: bool, config: &CompressionConfig) -> Self {
        Self::with_capacity(first_vertex as usize, 0, edge_weighted, config)
    }

    /// An encoder for a whole graph of `n` vertices, its lengths reserved up front.
    pub(crate) fn for_graph(n: usize, edge_weighted: bool, config: &CompressionConfig) -> Self {
        Self::with_capacity(0, n, edge_weighted, config)
    }

    fn with_capacity(
        first_vertex: usize,
        vertices: usize,
        edge_weighted: bool,
        config: &CompressionConfig,
    ) -> Self {
        Self {
            config: config.clone(),
            edge_weighted,
            section: EncodedSection::with_capacity(first_vertex, vertices),
            intervals: Vec::new(),
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
        assert_eq!(
            u as usize,
            section.first_vertex + section.vertices,
            "section neighbourhoods must be pushed in vertex order"
        );
        let start = section.bytes.len();
        encode_neighborhood(
            u,
            neighbors,
            self.edge_weighted,
            self.config.enable_intervals,
            &mut self.intervals,
            &mut section.bytes,
        );
        let len = (section.bytes.len() - start) as u64;
        encode_varint(len, &mut section.lengths);
        section.push_node_weight(node_weight);
        section.vertices += 1;
        section.data_len += len;
        section.half_edges += neighbors.len();
        section.max_degree = section.max_degree.max(neighbors.len());
        let weighted_degree: EdgeWeight = neighbors.iter().map(|&(_, w)| w).sum();
        section.total_edge_weight += weighted_degree;
        section.max_weighted_degree = section.max_weighted_degree.max(weighted_degree);
    }

    /// Empties the encoder for a run starting at `first_vertex`, keeping its buffers.
    pub fn restart(&mut self, first_vertex: usize) {
        let old = std::mem::take(&mut self.section);
        let (mut bytes, mut lengths, mut node_weights) = (old.bytes, old.lengths, old.node_weights);
        bytes.clear();
        lengths.clear();
        node_weights.clear();
        self.section = EncodedSection {
            first_vertex,
            bytes,
            lengths,
            node_weights,
            ..EncodedSection::default()
        };
    }

    /// The graph encoded so far (it must start at vertex 0 and cover every vertex), its
    /// node weights packed at the width of the heaviest. `node_weighted` keeps a weight
    /// array even when every weight is 1.
    pub(crate) fn into_graph(mut self, node_weighted: bool) -> CompressedGraph {
        let data = std::mem::take(&mut self.section.bytes);
        let weights = std::mem::take(&mut self.section.node_weights);
        let n = self.section.vertices;
        let node_weights = match weights.iter().max() {
            Some(&max) => Some(PackedArray::pack(max, weights.into_iter())),
            None => node_weighted.then(|| PackedArray::pack(1, (0..n).map(|_| 1))),
        };
        self.section
            .into_graph(data, self.edge_weighted, node_weights, self.config)
    }
}

/// Commits the sections of [`SectionEncoder`]s, in vertex order, into one
/// [`CompressedGraph`] that is charged to the memory accounting while it is written: the
/// committer of the ordered packet commit
/// ([`commit_in_packet_order`](crate::builder::commit_in_packet_order)).
///
/// The neighbourhood bytes go into a [`ReservedVec`] of the caller's upper bound, which
/// charges the pages the bytes reach as they are written; the offset index (one VarInt
/// length a vertex until [`Self::finish`]) is charged at its capacity, the node weights
/// at their packed size from the start. [`Self::finish`] hands the graph on with one
/// charge of exactly its [`CompressedGraph::size_in_bytes`].
pub struct GraphWriter {
    data: ReservedVec<u8>,
    /// The committed sections' counts; their node weights go to `node_weights`.
    totals: EncodedSection,
    /// One entry per vertex at the width of the bound the writer was given.
    node_weights: Option<PackedArray>,
    edge_weighted: bool,
    config: CompressionConfig,
    /// The lengths' capacity and the node weights' bytes.
    charge: MemoryScope<'static>,
}

impl GraphWriter {
    /// A writer of an `n`-vertex graph whose encoded neighbourhoods take at most
    /// `reserved_bytes` (a commit past them panics). `heaviest_node` bounds every node
    /// weight the sections carry and fixes the width of the packed weight array, one
    /// entry per vertex, kept even when every weight is 1; `None` writes a graph without
    /// node weights, whose every vertex must weigh 1. Sections must be encoded with
    /// `edge_weighted` and `config` ([`Self::encoder`]).
    pub fn new(
        n: usize,
        reserved_bytes: usize,
        edge_weighted: bool,
        heaviest_node: Option<NodeWeight>,
        config: &CompressionConfig,
    ) -> Self {
        let mut writer = Self {
            data: ReservedVec::with_reservation(reserved_bytes),
            totals: EncodedSection::with_capacity(0, n),
            node_weights: heaviest_node.map(|bound| PackedArray::zeroed(n, bound)),
            edge_weighted,
            config: config.clone(),
            charge: MemoryScope::charge_global(0),
        };
        writer.recharge();
        writer
    }

    /// An encoder of sections this writer commits, starting at vertex 0.
    pub fn encoder(&self) -> SectionEncoder {
        SectionEncoder::new(0, self.edge_weighted, &self.config)
    }

    /// Appends the section `encoder` holds, which must start right behind the last one
    /// committed.
    pub fn commit(&mut self, encoder: &SectionEncoder) {
        let section = &encoder.section;
        assert_eq!(
            section.first_vertex, self.totals.vertices,
            "sections must be committed in vertex order"
        );
        debug_assert_eq!(encoder.edge_weighted, self.edge_weighted);
        match &mut self.node_weights {
            Some(weights) => {
                let first = section.first_vertex;
                for (i, &w) in section.node_weights.iter().enumerate() {
                    weights.set(first + i, w);
                }
                // A section whose every weight is 1 stores none.
                for i in section.node_weights.len()..section.vertices {
                    weights.set(first + i, 1);
                }
            }
            None => assert!(
                section.node_weights.is_empty(),
                "a node weight other than 1 in a graph written without node weights"
            ),
        }
        self.data.extend_from_slice(&section.bytes);
        self.totals.absorb_counts(section);
        self.recharge();
    }

    /// Fits the charge to the lengths' capacity and the node weights' bytes.
    fn recharge(&mut self) {
        let bytes = self.totals.lengths.capacity()
            + self
                .node_weights
                .as_ref()
                .map_or(0, PackedArray::size_in_bytes);
        match bytes.checked_sub(self.charge.bytes()) {
            Some(more) => self.charge.grow(more),
            None => self.charge.shrink(self.charge.bytes() - bytes),
        }
    }

    /// The graph committed so far (it must cover every vertex), with its charge. The
    /// offset index is built from the lengths while both are charged, so the handover
    /// never under-counts.
    pub fn finish(self) -> (CompressedGraph, MemoryScope<'static>) {
        let Self {
            data,
            totals,
            node_weights,
            edge_weighted,
            config,
            mut charge,
        } = self;
        let (data, data_charge) = data.into_charged_vec();
        charge.merge(data_charge);
        charge.grow((totals.vertices + 1) * crate::packed::width_for(totals.data_len));
        let graph = totals.into_graph(data, edge_weighted, node_weights, config);
        let held = charge.bytes();
        let size = graph.size_in_bytes();
        if held > size {
            charge.shrink(held - size);
        } else {
            charge.grow(size - held);
        }
        (graph, charge)
    }
}

/// Encodes the neighbourhood of `u` into `out` in decode order: its degree, then the
/// intervals, each header followed (weighted) by the weights of its members, then the
/// residual gaps, each followed by its weight. `neighbors` are `u`'s `(neighbor, weight)`
/// pairs sorted by neighbour ID; `weighted` selects whether weights are stored,
/// `enable_intervals` whether runs become intervals.
///
/// One walk over the ids finds the intervals, the maximal runs of at least
/// [`MIN_INTERVAL_LEN`] consecutive ids, as `(start, end)` index pairs into `intervals`
/// (the encoder's reusable buffer); both sections are written from that list, and the
/// residuals are the ids between the intervals. Weights are signed deltas, each from the
/// weight written before it.
fn encode_neighborhood(
    u: NodeId,
    neighbors: &[(NodeId, EdgeWeight)],
    weighted: bool,
    enable_intervals: bool,
    intervals: &mut Vec<(usize, usize)>,
    out: &mut Vec<u8>,
) {
    debug_assert!(
        neighbors.windows(2).all(|w| w[0].0 < w[1].0),
        "neighbors must be sorted"
    );
    encode_varint(neighbors.len() as u64, out);
    if neighbors.is_empty() {
        return;
    }
    let mut prev_weight: i64 = 0;
    let mut encode_weight = |w: EdgeWeight, out: &mut Vec<u8>| {
        if weighted {
            encode_signed_varint(w as i64 - prev_weight, out);
            prev_weight = w as i64;
        }
    };
    intervals.clear();
    if enable_intervals {
        let mut start = 0;
        for i in 1..=neighbors.len() {
            if i == neighbors.len() || neighbors[i].0 != neighbors[i - 1].0 + 1 {
                if i - start >= MIN_INTERVAL_LEN {
                    intervals.push((start, i));
                }
                start = i;
            }
        }
        encode_varint(intervals.len() as u64, out);
        let mut prev_end: Option<i64> = None;
        for &(start, end) in intervals.iter() {
            let left = sid(neighbors[start].0);
            match prev_end {
                None => encode_signed_varint(left - sid(u), out),
                Some(prev_end) => encode_varint((left - prev_end) as u64, out),
            };
            encode_varint((end - start - MIN_INTERVAL_LEN) as u64, out);
            for &(_, w) in &neighbors[start..end] {
                encode_weight(w, out);
            }
            prev_end = Some(left + (end - start) as i64);
        }
    }
    // Residual gaps, what lies before, between and after the intervals: the first gap
    // is signed relative to u, later gaps are strictly positive (stored minus one).
    let mut prev: Option<i64> = None;
    let mut begin = 0;
    let past_the_end = (neighbors.len(), neighbors.len());
    for &(start, end) in intervals.iter().chain([&past_the_end]) {
        for &(v, w) in &neighbors[begin..start] {
            match prev {
                None => encode_signed_varint(sid(v) - sid(u), out),
                Some(prev) => encode_varint((sid(v) - prev - 1) as u64, out),
            };
            encode_weight(w, out);
            prev = Some(sid(v));
        }
        begin = end;
    }
}

/// Fewest bytes an encoded neighbourhood takes: its degree VarInt, the whole encoding
/// of an isolated vertex. A valid offset index therefore climbs by at least this much
/// per vertex.
pub(crate) const MIN_NEIGHBORHOOD_BYTES: u64 = 1;

/// Decodes the degree of the neighbourhood encoded at `data[pos]`, its whole header:
/// `(degree, pos)` where `pos` is the byte position right after it.
#[inline]
pub(crate) fn decode_degree(data: &[u8], pos: usize) -> (usize, usize) {
    let (degree, pos) = decode_varint(data, pos);
    (degree as usize, pos)
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
    if weighted {
        decode_walk::<true>(data, pos, u, config.enable_intervals, f);
    } else {
        decode_walk::<false>(data, pos, u, config.enable_intervals, f);
    }
}

/// [`decode_neighborhood`] at a fixed weightedness: reports the members of the intervals
/// first, then the residuals, the order the weights were written in.
///
/// Every byte is read once, nothing is buffered and nothing is allocated. The loop is
/// monomorphic in `WEIGHTED`: a weighted neighbourhood reads the delta behind each id,
/// an unweighted one reports weight 1 without a branch per id.
fn decode_walk<const WEIGHTED: bool>(
    data: &[u8],
    pos: usize,
    u: NodeId,
    intervals: bool,
    f: &mut dyn FnMut(NodeId, EdgeWeight),
) {
    let (degree, mut pos) = decode_degree(data, pos);
    if degree == 0 {
        return;
    }
    let mut prev_weight: i64 = 0;
    let mut next_weight = |pos: &mut usize| -> EdgeWeight {
        if WEIGHTED {
            let (delta, p) = decode_signed_varint(data, *pos);
            *pos = p;
            prev_weight += delta;
            prev_weight as EdgeWeight
        } else {
            1
        }
    };
    let mut in_intervals = 0usize;
    if intervals {
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
            let len = len_raw as usize + MIN_INTERVAL_LEN;
            for offset in 0..len as i64 {
                let w = next_weight(&mut pos);
                f((left + offset) as NodeId, w);
            }
            in_intervals += len;
            prev_end = left + len as i64;
        }
    }
    let mut prev: i64 = sid(u);
    for k in 0..degree - in_intervals {
        let v = if k == 0 {
            let (delta, p) = decode_signed_varint(data, pos);
            pos = p;
            prev + delta
        } else {
            let (gap, p) = decode_varint(data, pos);
            pos = p;
            prev + gap as i64 + 1
        };
        let w = next_weight(&mut pos);
        f(v as NodeId, w);
        prev = v;
    }
}

impl CompressedGraph {
    /// Compresses a CSR graph. Neighbourhoods are sorted internally before encoding.
    /// The plain sequential loop — the reference the parallel builder is tested against.
    pub fn from_csr(csr: &CsrGraph, config: &CompressionConfig) -> Self {
        let mut encoder = SectionEncoder::for_graph(csr.n(), csr.is_edge_weighted(), config);
        let mut nbrs = Vec::with_capacity(csr.max_degree());
        for u in 0..csr.n() as NodeId {
            nbrs.clear();
            csr.for_each_neighbor(u, &mut |v, w| nbrs.push((v, w)));
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
        node_weights: Option<PackedArray>,
        edge_weighted: bool,
        total_node_weight: NodeWeight,
        total_edge_weight: EdgeWeight,
        max_degree: usize,
        max_weighted_degree: Option<EdgeWeight>,
        config: CompressionConfig,
    ) -> Self {
        assert_eq!(offsets.len(), n + 1);
        assert!(node_weights.as_ref().is_none_or(|w| w.len() == n));
        let max_weighted_degree = match (edge_weighted, max_weighted_degree) {
            (false, _) => max_degree as EdgeWeight,
            (true, Some(counted)) => counted,
            (true, None) => total_edge_weight,
        };
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
            max_weighted_degree,
            config,
        }
    }

    /// Number of bytes used by the encoded adjacency data (with the container header
    /// in front when it is mapped), the offset index and the node weights.
    pub fn size_in_bytes(&self) -> usize {
        self.data.size_in_bytes() + self.offsets.size_in_bytes() + self.node_weight_bytes()
    }

    /// Bytes of the packed node weights (0 when uniform).
    pub fn node_weight_bytes(&self) -> usize {
        self.node_weights
            .as_ref()
            .map_or(0, PackedArray::size_in_bytes)
    }

    /// The packed node weights, `None` when every vertex weighs 1.
    pub fn node_weights(&self) -> Option<&PackedArray> {
        self.node_weights.as_ref()
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

    /// `(degree, pos)` of `u`'s neighbourhood (see [`decode_degree`]).
    fn decode_header(&self, u: NodeId) -> (usize, usize) {
        decode_degree(self.data.as_slice(), self.offsets.get(u as usize) as usize)
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
        self.decode_header(u).0
    }

    fn node_weight(&self, u: NodeId) -> NodeWeight {
        match &self.node_weights {
            Some(weights) => weights.get(u as usize),
            None => 1,
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
        self.node_weights.is_some()
    }

    fn max_degree(&self) -> usize {
        self.max_degree
    }

    fn max_weighted_degree(&self) -> EdgeWeight {
        self.max_weighted_degree
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::csr::CsrGraphBuilder;
    use crate::gen;
    use proptest::prelude::*;

    /// A graph on which one vertex, the hub, has `degree` neighbours laid out by
    /// `runs`: cycling through the `(run, skip)` pairs (every `run` at least 1), the hub
    /// takes `run` consecutive ids, then leaves `skip` out, so its neighbourhood mixes
    /// intervals of every length with residual gaps. `slot` in `0..=4` puts the hub
    /// first, at a quarter, the middle, three quarters or last, so its first gap is
    /// positive or negative. Every other vertex is a leaf of the hub. Returns the
    /// builder, for more edges, and the hub.
    pub(crate) fn hub_graph_builder(
        degree: usize,
        runs: &[(usize, usize)],
        slot: usize,
    ) -> (CsrGraphBuilder, NodeId) {
        let mut compact = Vec::with_capacity(degree);
        let mut next = 0usize;
        for &(run, skip) in runs.iter().cycle() {
            if compact.len() == degree {
                break;
            }
            for _ in 0..run.min(degree - compact.len()) {
                compact.push(next);
                next += 1;
            }
            next += skip;
        }
        let n = next + 1;
        let hub = slot * (n - 1) / 4;
        let mut builder = CsrGraphBuilder::new(n);
        for c in compact {
            let v = if c < hub { c } else { c + 1 };
            builder.add_edge(crate::ids::nid(hub), crate::ids::nid(v), 1);
        }
        (builder, crate::ids::nid(hub))
    }

    /// [`hub_graph_builder`]'s graph, built, with random edge weights in `1..=1000` when
    /// `weighted`.
    pub(crate) fn hub_graph(
        degree: usize,
        runs: &[(usize, usize)],
        slot: usize,
        weighted: bool,
    ) -> CsrGraph {
        let csr = hub_graph_builder(degree, runs, slot).0.build();
        if weighted {
            gen::with_random_edge_weights(&csr, 1_000, degree as u64)
        } else {
            csr
        }
    }

    /// Hub layouts of the tests: single ids, short and long intervals, a run of 1 700
    /// consecutive ids.
    pub(crate) const HUB_RUNS: [(usize, usize); 6] =
        [(1, 1), (5, 0), (2, 3), (1_700, 1), (3, 2), (1, 40)];

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
    fn a_writer_commits_sections_into_the_graph_from_csr_encodes() {
        let weighted = gen::with_random_node_weights(
            &gen::with_random_edge_weights(&gen::rhg_like(500, 8, 3.0, 42), 30, 8),
            6,
            9,
        );
        for csr in [weighted, gen::grid2d(12, 12)] {
            let config = CompressionConfig::gap_only();
            let reference = CompressedGraph::from_csr(&csr, &config);
            let bound = crate::builder::compressed_size_upper_bound(&csr);
            for split in [0, 1, 77, csr.n()] {
                let mut writer = GraphWriter::new(
                    csr.n(),
                    bound,
                    csr.is_edge_weighted(),
                    csr.heaviest_node(),
                    &config,
                );
                let mut encoder = writer.encoder();
                for range in [0..split, split..csr.n()] {
                    encoder.restart(range.start);
                    for u in range {
                        let nbrs = csr.neighbors_vec(u as NodeId);
                        encoder.push_neighborhood(u as NodeId, &nbrs, csr.node_weight(u as NodeId));
                    }
                    writer.commit(&encoder);
                }
                let (written, charge) = writer.finish();
                assert_same_graph(&csr, &written);
                assert_eq!(written.data.as_slice(), reference.data.as_slice());
                assert_eq!(written.is_node_weighted(), csr.is_node_weighted());
                assert_eq!(charge.bytes(), written.size_in_bytes());
                assert_eq!(written.size_in_bytes(), reference.size_in_bytes());
            }
        }
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
    fn a_weighted_neighbourhood_writes_each_weight_behind_its_id() {
        // Vertex 0's neighbours 5, 6, 7 form an interval and 10 is a residual: the
        // interval's header is followed by its three weight deltas, the residual's gap
        // by its own. Signed values are zigzag-coded (5 -> 10, -5 -> 9).
        let mut b = CsrGraphBuilder::new(11);
        for (v, w) in [(5, 7), (6, 9), (7, 4), (10, 4)] {
            b.add_edge(0, v, w);
        }
        let compressed = CompressedGraph::from_csr(&b.build(), &CompressionConfig::default());
        let (start, end) = (compressed.offsets.get(0), compressed.offsets.get(1));
        let degree = [4];
        let interval = [1, 10, 0, 14, 4, 9];
        let residual = [20, 0];
        assert_eq!(
            &compressed.data.as_slice()[start as usize..end as usize],
            [&degree[..], &interval, &residual].concat()
        );
        assert_eq!(
            compressed.neighbors_vec(0),
            vec![(5, 7), (6, 9), (7, 4), (10, 4)]
        );
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
    fn compression_ratio_exceeds_one_on_structured_graphs() {
        let g = gen::grid2d(50, 50);
        let compressed = CompressedGraph::from_csr(&g, &CompressionConfig::default());
        assert!(compressed.compression_ratio(&g) > 1.0);
        assert!(compressed.bytes_per_edge() < 8.0);
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
    fn weighted_star_round_trip() {
        // A weighted star whose hub has 12 500 neighbours, one walk of one interval:
        // edge weights must survive the encode/decode path exactly.
        let star = gen::star(12_501);
        let csr = gen::with_random_edge_weights(&star, 1_000, 7);
        assert_eq!(csr.max_degree(), 12_500);
        let compressed = CompressedGraph::from_csr(&csr, &CompressionConfig::default());
        assert_same_graph(&csr, &compressed);

        // Same but with interval encoding off (gap-only) and node weights on top.
        let weighted = gen::with_random_node_weights(&csr, 9, 11);
        let compressed = CompressedGraph::from_csr(&weighted, &CompressionConfig::gap_only());
        assert_same_graph(&weighted, &compressed);
    }

    /// A decoder of `u`'s neighbourhood written apart from the streaming one, against
    /// the layout as documented: weightedness at run time, and the pairs collected into a
    /// vector. The streaming decoder must equal it in *sequence*, not just as a set, and
    /// it must end where the offset index says the neighbourhood ends.
    pub(crate) fn reference_neighbors(g: &CompressedGraph, u: NodeId) -> Vec<(NodeId, EdgeWeight)> {
        let (weighted, intervals) = (g.edge_weighted, g.config.enable_intervals);
        let data = g.data.as_slice();
        let (degree, mut pos) = g.decode_header(u);
        let mut out = Vec::with_capacity(degree);
        if degree == 0 {
            return out;
        }
        let mut prev_weight: i64 = 0;
        let mut read_weight = |pos: &mut usize| {
            if !weighted {
                return 1;
            }
            let (delta, p) = decode_signed_varint(data, *pos);
            *pos = p;
            prev_weight += delta;
            prev_weight as EdgeWeight
        };
        if intervals {
            let (interval_count, p) = decode_varint(data, pos);
            pos = p;
            let mut prev_end: i64 = sid(u);
            for k in 0..interval_count {
                let (left, p) = if k == 0 {
                    let (delta, p) = decode_signed_varint(data, pos);
                    (sid(u) + delta, p)
                } else {
                    let (delta, p) = decode_varint(data, pos);
                    (prev_end + delta as i64, p)
                };
                let (len_raw, p) = decode_varint(data, p);
                pos = p;
                let len = len_raw as i64 + MIN_INTERVAL_LEN as i64;
                for v in left..left + len {
                    let w = read_weight(&mut pos);
                    out.push((v as NodeId, w));
                }
                prev_end = left + len;
            }
        }
        let mut prev: i64 = sid(u);
        for k in 0..degree - out.len() {
            let (v, p) = if k == 0 {
                let (delta, p) = decode_signed_varint(data, pos);
                (prev + delta, p)
            } else {
                let (gap, p) = decode_varint(data, pos);
                (prev + gap as i64 + 1, p)
            };
            pos = p;
            let w = read_weight(&mut pos);
            out.push((v as NodeId, w));
            prev = v;
        }
        assert_eq!(
            pos as u64,
            g.offsets.get(u as usize + 1),
            "neighbourhood of vertex {} ends off its offset",
            u
        );
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_compressed_equals_csr(
            hub in (
                60usize..3_000,
                0usize..5,
                proptest::collection::vec((0usize..64, 0usize..4), 1..16),
            ),
            edges in proptest::collection::vec((0u32..60, 0u32..60), 0..400),
            intervals in proptest::bool::ANY,
            weighted in proptest::bool::ANY,
        ) {
            // A hub laid out by random runs (mostly 1-8 ids, sometimes 500-2 000, so most
            // of it can be one interval), next to random edges among the first 60
            // vertices. Edges at the hub are left out:
            // every hub edge already exists, and the weights are drawn once built.
            let (degree, slot, codes) = hub;
            let runs: Vec<(usize, usize)> = codes
                .into_iter()
                .map(|(code, skip)| {
                    let run = if code < 60 { 1 + code % 8 } else { 500 * (code - 59) };
                    (run, skip)
                })
                .collect();
            let (mut b, hub) = hub_graph_builder(degree, &runs, slot);
            let mut seen = std::collections::HashSet::new();
            for (u, v) in edges {
                let (u, v) = (NodeId::from(u), NodeId::from(v));
                if u != v && u != hub && v != hub && seen.insert((u.min(v), u.max(v))) {
                    b.add_edge(u, v, 1);
                }
            }
            let mut csr = b.build();
            if weighted {
                csr = gen::with_random_edge_weights(&csr, 1_000, degree as u64);
            }
            let config = CompressionConfig {
                enable_intervals: intervals,
            };
            let compressed = CompressedGraph::from_csr(&csr, &config);
            assert_same_graph(&csr, &compressed);
            for u in 0..csr.n() as NodeId {
                prop_assert_eq!(
                    compressed.neighbors_vec(u),
                    reference_neighbors(&compressed, u),
                    "streaming decoder left the reference sequence at vertex {}", u
                );
            }
        }
    }
}
