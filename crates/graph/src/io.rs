//! Graph I/O: METIS text format, a simple binary format, and streaming compression.
//!
//! Each input format has one reader, and nothing else parses it: `MetisReader` for METIS
//! text, [`BinaryReader`] for the binary format. Both are vertex streams that validate
//! as they go and hand every sink the same contract — vertices in ID order, each
//! neighbourhood sorted by neighbour ID with self-loops dropped and duplicates merged by
//! summing their weights (a file without edge weights cannot hold the sum, so there a
//! duplicate is an error), every ID below `n`, weight totals within 64 bits. After the
//! last vertex both prove that every half-edge `(u, v, w)` has its reverse `(v, u, w)`
//! (a wrapping hash balance, `O(1)` space) and that the header's counts match the file.
//! Malformed input therefore ends in [`IoError::Format`] — never a panic, and never a
//! different graph depending on which reader was asked.
//!
//! Three sinks consume a stream: [`read_metis`] / [`read_binary`] build a [`CsrGraph`];
//! [`read_metis_compressed`] / [`read_binary_compressed`] encode a [`CompressedGraph`]
//! while parsing, the paper's single streaming pass (§III-B) in which the uncompressed
//! graph never exists in memory; and [`crate::store::write_tpg_from_metis`] /
//! [`crate::store::write_tpg_from_binary`] encode straight into a `.tpg` container. The
//! binary reader keeps the header, `xadj` and the node weights (`O(n)`) and streams the
//! adjacency and its edge weights through two file cursors, so both compressing paths
//! hold `O(n)` plus one neighbourhood, weighted or not; the METIS reader holds one line.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Lines, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;

use crate::compressed::{CompressedGraph, CompressionConfig, SectionEncoder};
use crate::csr::CsrGraph;
use crate::ids;
use crate::traits::Graph;
use crate::{EdgeId, EdgeWeight, NodeId, NodeWeight};

/// Magic bytes of the binary graph format.
const BINARY_MAGIC: &[u8; 4] = b"TPGB";
/// Version of the binary graph format.
const BINARY_VERSION: u32 = 1;
/// Bytes of the binary header: magic, version, n, half-edge count, flags.
const BINARY_HEADER_LEN: u64 = 4 + 4 + 8 + 8 + 4;

/// Errors produced by the I/O routines.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is syntactically or semantically malformed.
    Format(String),
    /// The bytes were read successfully but failed checksum verification. Unlike
    /// [`IoError::Format`] this is treated as *transient* by retrying readers: a bit
    /// flipped in flight (bus, cable, controller) heals on a clean re-read, while
    /// persistent on-disk corruption exhausts the retry budget and still surfaces
    /// structurally.
    Corrupt(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {}", e),
            IoError::Format(msg) => write!(f, "format error: {}", msg),
            IoError::Corrupt(msg) => write!(f, "corruption detected: {}", msg),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl IoError {
    /// `true` when retrying the failed operation could plausibly succeed: transient
    /// I/O errors (interrupted syscalls, `EIO` from a momentarily unhappy device) and
    /// checksum mismatches. Structural errors — malformed files, out-of-range reads,
    /// missing paths, permission failures — are permanent and retrying them only
    /// delays the structured failure.
    pub fn is_transient(&self) -> bool {
        match self {
            IoError::Io(e) => io_error_is_transient(e),
            IoError::Format(_) => false,
            IoError::Corrupt(_) => true,
        }
    }
}

/// Retryability of an open-time failure — wider than [`IoError::is_transient`]:
/// a corrupted header or index *read* parses into arbitrary format/EOF errors
/// before any checksum can vouch for the bytes, and only a clean re-read
/// distinguishes that from a genuinely malformed file. Everything except the
/// errors that describe the request rather than the data (missing path,
/// permissions, invalid arguments) is worth the retry budget; retrying a truly
/// bad file costs a few extra small reads before the same structured error.
pub(crate) fn open_error_is_retryable(e: &IoError) -> bool {
    match e {
        IoError::Format(_) | IoError::Corrupt(_) => true,
        IoError::Io(err) => !matches!(
            err.kind(),
            io::ErrorKind::NotFound
                | io::ErrorKind::PermissionDenied
                | io::ErrorKind::InvalidInput
                | io::ErrorKind::Unsupported
        ),
    }
}

/// Retryability of a raw [`io::Error`]: everything except the kinds that describe a
/// structural property of the file or the request (which no retry can change).
pub(crate) fn io_error_is_transient(e: &io::Error) -> bool {
    !matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::NotFound
            | io::ErrorKind::PermissionDenied
            | io::ErrorKind::InvalidInput
            | io::ErrorKind::InvalidData
            | io::ErrorKind::Unsupported
    )
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Checked conversion of a vertex count read from a file into the active ID width,
/// failing loudly — naming the offending count — instead of truncating.
pub(crate) fn checked_node_count(n: usize, what: &str) -> Result<usize, IoError> {
    if ids::node_count_supported(n) {
        Ok(n)
    } else {
        Err(IoError::Format(format!(
            "{} {} exceeds the {}-bit NodeId limit of {} (rebuild with `--features wide-ids`)",
            what,
            n,
            NodeId::BITS,
            ids::MAX_NODE_COUNT,
        )))
    }
}

/// Checked narrowing of a [`NodeId`] into the 32-bit on-disk binary format, failing
/// loudly — naming the offending id — instead of truncating. (At the default width the
/// conversion is the identity; the `try_from` spelling keeps one code path per width.)
#[allow(clippy::useless_conversion)]
fn checked_binary_id(value: NodeId, what: &str) -> Result<u32, IoError> {
    u32::try_from(value).map_err(|_| {
        IoError::Format(format!(
            "{} {} does not fit the 32-bit on-disk binary format (use the .tpg container \
             for 64-bit instances)",
            what, value,
        ))
    })
}

/// What a graph file declares before its first neighbourhood.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphHeader {
    /// Number of vertices.
    pub n: usize,
    /// Number of undirected edges the header declares.
    pub m: usize,
    /// Whether the file carries node weights.
    pub node_weighted: bool,
    /// Whether the file carries edge weights.
    pub edge_weighted: bool,
}

/// Receives the vertices of a validated stream: `(u, node_weight, neighbors)` in vertex
/// order, under the contract of the module docs.
pub type VertexSink<'a> =
    dyn FnMut(NodeId, NodeWeight, &[(NodeId, EdgeWeight)]) -> Result<(), IoError> + 'a;

/// The reader of one input format. The checks that need the whole file run after the
/// last vertex, so a stream can fail after its sink saw every vertex: a sink publishes
/// nothing before [`stream`](Self::stream) returned `Ok`.
pub(crate) trait VertexStream {
    /// The header, read at open.
    fn header(&self) -> GraphHeader;
    /// Streams every vertex into `sink`.
    fn stream(self, sink: &mut VertexSink<'_>) -> Result<(), IoError>;
}

/// The checks both readers run on every neighbourhood, kept in `O(1)` space beyond the
/// neighbourhood itself.
#[derive(Default)]
struct NeighborhoodCheck {
    edge_weighted: bool,
    half_edges: usize,
    edge_weight: EdgeWeight,
    node_weight: NodeWeight,
    /// Wrapping sum of `edge_hash(min, max, w)` over all half-edges, added from the
    /// smaller endpoint and subtracted from the larger: 0 iff (up to a 2^-64 chance)
    /// every half-edge has its reverse of the same weight.
    balance: u64,
}

impl NeighborhoodCheck {
    /// Brings `u`'s neighbourhood (ids already below `n`) into the stream contract:
    /// self-loops dropped, sorted, duplicates merged; and counts it.
    fn clean(
        &mut self,
        u: NodeId,
        node_weight: NodeWeight,
        nbrs: &mut Vec<(NodeId, EdgeWeight)>,
    ) -> Result<(), IoError> {
        self.node_weight = checked_total(self.node_weight, node_weight, "node weights")?;
        nbrs.retain(|&(v, _)| v != u);
        nbrs.sort_unstable_by_key(|&(v, _)| v);
        let mut kept = 0;
        for i in 0..nbrs.len() {
            let (v, w) = nbrs[i];
            if kept > 0 && nbrs[kept - 1].0 == v {
                if !self.edge_weighted {
                    return Err(IoError::Format(format!(
                        "vertex {} lists neighbor {} twice in a file without edge weights",
                        u, v
                    )));
                }
                nbrs[kept - 1].1 = checked_total(nbrs[kept - 1].1, w, "edge weights")?;
            } else {
                nbrs[kept] = (v, w);
                kept += 1;
            }
        }
        nbrs.truncate(kept);
        for &(v, w) in nbrs.iter() {
            self.edge_weight = checked_total(self.edge_weight, w, "edge weights")?;
            let h = edge_hash(u.min(v), u.max(v), w);
            self.balance = if u < v {
                self.balance.wrapping_add(h)
            } else {
                self.balance.wrapping_sub(h)
            };
        }
        self.half_edges += nbrs.len();
        Ok(())
    }

    /// After the last vertex: the number of undirected edges, if every half-edge has its
    /// reverse.
    fn finish(&self) -> Result<usize, IoError> {
        if self.balance != 0 {
            return Err(IoError::Format(
                "one-sided edge: some neighbor entry (u, v, w) has no reverse entry (v, u, w)"
                    .into(),
            ));
        }
        Ok(self.half_edges / 2)
    }
}

fn checked_total(total: u64, add: u64, what: &str) -> Result<u64, IoError> {
    total
        .checked_add(add)
        .ok_or_else(|| IoError::Format(format!("the {} overflow 64 bits", what)))
}

/// A 64-bit hash of the weighted edge `{a, b}`: splitmix64's finaliser folded over the
/// three fields.
fn edge_hash(a: NodeId, b: NodeId, w: EdgeWeight) -> u64 {
    fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
    mix(mix(mix(ids::widen(a)) ^ ids::widen(b)) ^ w)
}

/// Materialises a validated stream as a [`CsrGraph`]. Like every `CsrGraph`, it keeps
/// no edge-weight array when all weights are 1.
fn read_csr(input: impl VertexStream) -> Result<CsrGraph, IoError> {
    let header = input.header();
    let mut xadj = Vec::with_capacity(header.n + 1);
    xadj.push(0);
    let mut adjacency = Vec::with_capacity(2 * header.m);
    let mut edge_weights = Vec::with_capacity(if header.edge_weighted {
        2 * header.m
    } else {
        0
    });
    let mut node_weights = Vec::with_capacity(if header.node_weighted { header.n } else { 0 });
    input.stream(&mut |_, node_weight, neighbors| {
        for &(v, w) in neighbors {
            adjacency.push(v);
            if header.edge_weighted {
                edge_weights.push(w);
            }
        }
        xadj.push(adjacency.len() as EdgeId);
        if header.node_weighted {
            node_weights.push(node_weight);
        }
        Ok(())
    })?;
    if edge_weights.iter().all(|&w| w == 1) {
        edge_weights = Vec::new();
    }
    Ok(CsrGraph::from_parts(
        xadj,
        adjacency,
        edge_weights,
        node_weights,
    ))
}

/// Encodes a validated stream as it is read.
fn read_compressed(
    input: impl VertexStream,
    config: &CompressionConfig,
) -> Result<CompressedGraph, IoError> {
    let header = input.header();
    let mut encoder = SectionEncoder::for_graph(header.n, header.edge_weighted, config);
    input.stream(&mut |u, node_weight, neighbors| {
        encoder.push_neighborhood(u, neighbors, node_weight);
        Ok(())
    })?;
    Ok(encoder.into_graph(header.node_weighted))
}

/// Writes `graph` in the METIS text format.
///
/// The header is `n m [fmt]` where `fmt` is `1` for edge weights, `10` for node weights,
/// `11` for both. Vertex lines list neighbours 1-indexed, each followed by its edge
/// weight when edge weights are present.
pub fn write_metis(graph: &CsrGraph, path: impl AsRef<Path>) -> Result<(), IoError> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    let fmt = match (graph.is_node_weighted(), graph.is_edge_weighted()) {
        (false, false) => String::new(),
        (false, true) => " 1".to_string(),
        (true, false) => " 10".to_string(),
        (true, true) => " 11".to_string(),
    };
    writeln!(w, "{} {}{}", graph.n(), graph.m(), fmt)?;
    for u in 0..graph.n() as NodeId {
        let mut line = String::new();
        if graph.is_node_weighted() {
            line.push_str(&format!("{} ", graph.node_weight(u)));
        }
        graph.for_each_neighbor(u, &mut |v, wt| {
            line.push_str(&format!("{} ", v + 1));
            if graph.is_edge_weighted() {
                line.push_str(&format!("{} ", wt));
            }
        });
        writeln!(w, "{}", line.trim_end())?;
    }
    Ok(())
}

/// The one METIS reader: the header at open, then one line per vertex.
pub(crate) struct MetisReader {
    header: GraphHeader,
    lines: Lines<BufReader<File>>,
}

impl MetisReader {
    pub(crate) fn open(path: impl AsRef<Path>) -> Result<Self, IoError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut lines = BufReader::new(file).lines();
        let line =
            next_metis_line(&mut lines).ok_or_else(|| IoError::Format("empty file".into()))??;
        let mut tokens = line.split_whitespace();
        let n = parse_token(tokens.next(), "vertex count")?;
        let m: usize = parse_token(tokens.next(), "edge count")?;
        let (node_weighted, edge_weighted) = match tokens.next().unwrap_or("0") {
            "0" | "00" => (false, false),
            "1" | "01" => (false, true),
            "10" => (true, false),
            "11" => (true, true),
            other => {
                return Err(IoError::Format(format!(
                    "unsupported fmt field '{}'",
                    other
                )))
            }
        };
        checked_node_count(n, "METIS vertex count")?;
        // Every vertex takes a line and every one of the 2m half-edges at least a digit
        // and a separator: a header claiming more is not this file's, and it would size
        // the readers' buffers.
        if n as u64 > len || (m as u64).saturating_mul(4) > len + 1 {
            return Err(IoError::Format(format!(
                "header claims {} vertices and {} edges, more than a {}-byte file holds",
                n, m, len
            )));
        }
        Ok(Self {
            header: GraphHeader {
                n,
                m,
                node_weighted,
                edge_weighted,
            },
            lines,
        })
    }
}

impl VertexStream for MetisReader {
    fn header(&self) -> GraphHeader {
        self.header
    }

    fn stream(mut self, sink: &mut VertexSink<'_>) -> Result<(), IoError> {
        let GraphHeader {
            n,
            m,
            node_weighted,
            edge_weighted,
        } = self.header;
        let mut check = NeighborhoodCheck {
            edge_weighted,
            ..NeighborhoodCheck::default()
        };
        let mut nbrs = Vec::new();
        for u in 0..n {
            let line = next_metis_line(&mut self.lines)
                .ok_or_else(|| IoError::Format(format!("missing line for vertex {}", u + 1)))??;
            let mut tokens = line.split_whitespace();
            let node_weight = match node_weighted {
                true => parse_token(tokens.next(), "node weight")?,
                false => 1,
            };
            nbrs.clear();
            while let Some(token) = tokens.next() {
                let v: usize = token
                    .parse()
                    .map_err(|_| IoError::Format(format!("invalid neighbor '{}'", token)))?;
                if v == 0 || v > n {
                    return Err(IoError::Format(format!("neighbor {} out of range", v)));
                }
                let weight = match edge_weighted {
                    true => parse_token(tokens.next(), "edge weight")?,
                    false => 1,
                };
                nbrs.push((ids::nid(v - 1), weight));
            }
            let u = ids::nid(u);
            check.clean(u, node_weight, &mut nbrs)?;
            sink(u, node_weight, &nbrs)?;
        }
        let edges = check.finish()?;
        if edges != m {
            return Err(IoError::Format(format!(
                "edge count mismatch: header says {}, file contains {}",
                m, edges
            )));
        }
        Ok(())
    }
}

/// The next line that is not a `%` comment.
fn next_metis_line(lines: &mut Lines<BufReader<File>>) -> Option<io::Result<String>> {
    lines.find(|line| {
        line.as_ref()
            .map_or(true, |s| !s.trim_start().starts_with('%'))
    })
}

fn parse_token<T: FromStr>(token: Option<&str>, what: &str) -> Result<T, IoError> {
    token
        .ok_or_else(|| IoError::Format(format!("missing {}", what)))?
        .parse()
        .map_err(|_| IoError::Format(format!("invalid {}", what)))
}

/// Reads a graph in the METIS text format into a CSR graph.
pub fn read_metis(path: impl AsRef<Path>) -> Result<CsrGraph, IoError> {
    read_csr(MetisReader::open(path)?)
}

/// Reads a METIS file and compresses it on the fly in a single pass: each vertex line is
/// parsed and its neighbourhood immediately encoded, so no uncompressed adjacency array is
/// ever materialised.
pub fn read_metis_compressed(
    path: impl AsRef<Path>,
    config: &CompressionConfig,
) -> Result<CompressedGraph, IoError> {
    read_compressed(MetisReader::open(path)?, config)
}

/// Writes `graph` in the binary format (`TPGB` magic, little-endian arrays).
pub fn write_binary(graph: &CsrGraph, path: impl AsRef<Path>) -> Result<(), IoError> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    w.write_all(BINARY_MAGIC)?;
    w.write_all(&BINARY_VERSION.to_le_bytes())?;
    w.write_all(&(graph.n() as u64).to_le_bytes())?;
    w.write_all(&(graph.adjacency().len() as u64).to_le_bytes())?;
    let flags: u32 = (graph.is_edge_weighted() as u32) | ((graph.is_node_weighted() as u32) << 1);
    w.write_all(&flags.to_le_bytes())?;
    for &offset in graph.xadj() {
        w.write_all(&offset.to_le_bytes())?;
    }
    for &v in graph.adjacency() {
        w.write_all(&checked_binary_id(v, "adjacency entry")?.to_le_bytes())?;
    }
    if graph.is_edge_weighted() {
        for e in 0..graph.adjacency().len() as EdgeId {
            w.write_all(&graph.edge_weight(e).to_le_bytes())?;
        }
    }
    if graph.is_node_weighted() {
        for &nw in graph.raw_node_weights() {
            w.write_all(&nw.to_le_bytes())?;
        }
    }
    Ok(())
}

pub(crate) fn read_exact_u64(r: &mut impl Read) -> Result<u64, IoError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

pub(crate) fn read_exact_u32(r: &mut impl Read) -> Result<u32, IoError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// The one reader of the binary format ([`write_binary`]). [`open`](Self::open) reads
/// and validates the header, `xadj` and the node weights — `O(n)` — and every
/// [`for_each_vertex`](Self::for_each_vertex) pass streams the adjacency and its edge
/// weights through two file cursors, one neighbourhood at a time.
#[derive(Debug)]
pub struct BinaryReader {
    path: PathBuf,
    header: GraphHeader,
    xadj: Vec<EdgeId>,
    node_weights: Vec<NodeWeight>,
}

impl BinaryReader {
    /// Opens a binary graph file, checking its magic, version, flags, length and
    /// `xadj` before anything is sized by them.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, IoError> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        let mut r = BufReader::new(file);
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != BINARY_MAGIC {
            return Err(IoError::Format("bad magic".into()));
        }
        let version = read_exact_u32(&mut r)?;
        if version != BINARY_VERSION {
            return Err(IoError::Format(format!("unsupported version {}", version)));
        }
        let n = checked_node_count(read_exact_u64(&mut r)? as usize, "binary vertex count")?;
        let half_edges = read_exact_u64(&mut r)?;
        let flags = read_exact_u32(&mut r)?;
        if flags > 3 {
            return Err(IoError::Format(format!("unsupported flags {:#x}", flags)));
        }
        let (edge_weighted, node_weighted) = (flags & 1 != 0, flags & 2 != 0);
        // Every section's length follows from the header, so the file's length must too.
        let sections = [
            (n as u64 + 1, 8),
            (half_edges, 4),
            (if edge_weighted { half_edges } else { 0 }, 8),
            (if node_weighted { n as u64 } else { 0 }, 8),
        ];
        let expected = sections
            .iter()
            .try_fold(BINARY_HEADER_LEN, |len, &(count, width)| {
                count.checked_mul(width)?.checked_add(len)
            });
        if expected != Some(file_len) {
            return Err(IoError::Format(format!(
                "binary file is {} bytes, its header describes {:?}",
                file_len, expected
            )));
        }
        let xadj = (0..=n)
            .map(|_| read_exact_u64(&mut r))
            .collect::<Result<Vec<EdgeId>, _>>()?;
        if xadj[0] != 0 || xadj[n] != half_edges || xadj.windows(2).any(|w| w[0] > w[1]) {
            return Err(IoError::Format(format!(
                "xadj does not rise monotonically from 0 to the header's {} half-edges",
                half_edges
            )));
        }
        let node_weights = if node_weighted {
            r.seek(SeekFrom::Start(file_len - 8 * n as u64))?;
            (0..n)
                .map(|_| read_exact_u64(&mut r))
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        Ok(Self {
            path,
            header: GraphHeader {
                n,
                m: (half_edges / 2) as usize,
                node_weighted,
                edge_weighted,
            },
            xadj,
            node_weights,
        })
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.header.n
    }

    /// Weight of vertex `u`.
    pub fn node_weight(&self, u: NodeId) -> NodeWeight {
        self.node_weights.get(u as usize).copied().unwrap_or(1)
    }

    /// One pass over the adjacency: every vertex into `sink`, under the contract of the
    /// module docs.
    pub fn for_each_vertex(&self, sink: &mut VertexSink<'_>) -> Result<(), IoError> {
        let GraphHeader {
            n, edge_weighted, ..
        } = self.header;
        let cursor = |start: u64| -> Result<BufReader<File>, IoError> {
            let mut r = BufReader::new(File::open(&self.path)?);
            r.seek(SeekFrom::Start(start))?;
            Ok(r)
        };
        let adjacency_start = BINARY_HEADER_LEN + 8 * (n as u64 + 1);
        let mut targets = cursor(adjacency_start)?;
        let mut weights = match edge_weighted {
            true => Some(cursor(adjacency_start + 4 * self.xadj[n])?),
            false => None,
        };
        let mut check = NeighborhoodCheck {
            edge_weighted,
            ..NeighborhoodCheck::default()
        };
        let mut nbrs = Vec::new();
        for u in 0..n {
            nbrs.clear();
            for _ in self.xadj[u]..self.xadj[u + 1] {
                let v = read_exact_u32(&mut targets)?;
                let weight = match weights.as_mut() {
                    Some(r) => read_exact_u64(r)?,
                    None => 1,
                };
                if v as usize >= n {
                    return Err(IoError::Format(format!("neighbor {} out of range", v)));
                }
                nbrs.push((NodeId::from(v), weight));
            }
            let u = ids::nid(u);
            check.clean(u, self.node_weight(u), &mut nbrs)?;
            sink(u, self.node_weight(u), &nbrs)?;
        }
        check.finish().map(drop)
    }
}

impl VertexStream for &BinaryReader {
    fn header(&self) -> GraphHeader {
        self.header
    }

    fn stream(self, sink: &mut VertexSink<'_>) -> Result<(), IoError> {
        self.for_each_vertex(sink)
    }
}

/// Reads a graph written by [`write_binary`].
pub fn read_binary(path: impl AsRef<Path>) -> Result<CsrGraph, IoError> {
    read_csr(&BinaryReader::open(path)?)
}

/// Reads a binary graph and compresses it on the fly, one neighbourhood at a time —
/// the flow of the huge-graph experiments: `O(n)` plus one neighbourhood in memory,
/// weighted or not.
pub fn read_binary_compressed(
    path: impl AsRef<Path>,
    config: &CompressionConfig,
) -> Result<CompressedGraph, IoError> {
    read_compressed(&BinaryReader::open(path)?, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("terapart_io_test_{}_{}", std::process::id(), name));
        p
    }

    fn assert_graph_eq_sorted(a: &CsrGraph, b: &CsrGraph) {
        assert_eq!(a.n(), b.n());
        assert_eq!(a.m(), b.m());
        for u in 0..a.n() as NodeId {
            let mut na = a.neighbors_vec(u);
            let mut nb = b.neighbors_vec(u);
            na.sort_unstable();
            nb.sort_unstable();
            assert_eq!(na, nb, "vertex {}", u);
            assert_eq!(a.node_weight(u), b.node_weight(u));
        }
    }

    #[test]
    fn metis_round_trip_unweighted() {
        let g = gen::grid2d(7, 5);
        let path = tmp("metis_unweighted.graph");
        write_metis(&g, &path).unwrap();
        let h = read_metis(&path).unwrap();
        assert_graph_eq_sorted(&g, &h);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn metis_round_trip_weighted() {
        let g = gen::with_random_edge_weights(&gen::erdos_renyi(50, 200, 1), 9, 2);
        let g = gen::with_random_node_weights(&g, 4, 3);
        let path = tmp("metis_weighted.graph");
        write_metis(&g, &path).unwrap();
        let h = read_metis(&path).unwrap();
        assert!(h.is_edge_weighted());
        assert!(h.is_node_weighted());
        assert_graph_eq_sorted(&g, &h);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn metis_streaming_compression_matches_two_pass() {
        let g = gen::rhg_like(400, 8, 3.0, 4);
        let path = tmp("metis_stream.graph");
        write_metis(&g, &path).unwrap();
        let config = CompressionConfig::default();
        let streamed = read_metis_compressed(&path, &config).unwrap();
        let csr = read_metis(&path).unwrap();
        let reference = CompressedGraph::from_csr(&csr, &config);
        assert_eq!(streamed.n(), reference.n());
        assert_eq!(streamed.m(), reference.m());
        assert_eq!(
            streamed.encoded_data_bytes(),
            reference.encoded_data_bytes()
        );
        for u in 0..csr.n() as NodeId {
            assert_eq!(streamed.neighbors_vec(u), reference.neighbors_vec(u));
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn binary_round_trip() {
        let g = gen::with_random_edge_weights(&gen::grid2d(10, 10), 7, 5);
        let path = tmp("binary.bin");
        write_binary(&g, &path).unwrap();
        let h = read_binary(&path).unwrap();
        assert_eq!(g, h);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn binary_streaming_compression_matches() {
        let g = gen::weblike(9, 6, 8);
        let path = tmp("binary_stream.bin");
        write_binary(&g, &path).unwrap();
        let config = CompressionConfig::default();
        let streamed = read_binary_compressed(&path, &config).unwrap();
        let reference = CompressedGraph::from_csr(&g, &config);
        assert_eq!(streamed.m(), reference.m());
        for u in 0..g.n() as NodeId {
            assert_eq!(streamed.neighbors_vec(u), reference.neighbors_vec(u));
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn metis_self_loops_dropped_and_duplicates_merged() {
        // Vertex 1's line lists itself (a self-loop) and vertex 2 twice with weights 2
        // and 3: the streamed reader must drop the loop and sum the duplicate to 5,
        // matching the CsrGraphBuilder semantics of the two-pass path.
        let path = tmp("selfloop_dups.graph");
        std::fs::write(&path, "2 1 1\n1 7 2 2 2 3\n1 5\n").unwrap();
        let g = read_metis_compressed(&path, &CompressionConfig::default()).unwrap();
        assert_eq!(g.n(), 2);
        assert_eq!(g.m(), 1);
        assert_eq!(g.neighbors_vec(0), vec![(1, 5)]);
        assert_eq!(g.neighbors_vec(1), vec![(0, 5)]);
        // The .tpg converter shares the parser, so the container round-trips cleanly
        // (previously this panicked in CsrGraph::from_parts on the self-loop).
        let tpg = tmp("selfloop_dups.tpg");
        crate::store::write_tpg_from_metis(&path, &tpg, &CompressionConfig::default()).unwrap();
        let h = crate::store::read_tpg(&tpg).unwrap();
        assert_eq!(h.m(), 1);
        assert_eq!(h.neighbors_vec(0), vec![(1, 5)]);
        std::fs::remove_file(path).ok();
        std::fs::remove_file(tpg).ok();
    }

    #[test]
    fn malformed_files_are_rejected() {
        let path = tmp("malformed.graph");
        std::fs::write(&path, "not a graph\n").unwrap();
        assert!(read_metis(&path).is_err());
        std::fs::write(&path, "3 2\n2 3\n1\n").unwrap();
        // Vertex 3's line is missing.
        assert!(read_metis(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let path = tmp("bad_magic.bin");
        std::fs::write(&path, b"XXXX0000000000000000").unwrap();
        assert!(read_binary(&path).is_err());
        std::fs::remove_file(path).ok();
    }
}
