//! [`PackedArray`]: the crate's one array of unsigned integers packed at a fixed byte
//! width — the fewest whole bytes that hold its largest entry.
//!
//! It backs two things:
//!
//! * the per-vertex byte offsets of a [`CompressedGraph`](crate::CompressedGraph) — the
//!   one resident compressed store, whether its bytes are on the heap or mapped by an
//!   [`MmapGraph`](crate::store::MmapGraph) — which looks up the start of a
//!   neighbourhood once per `degree` / `for_each_neighbor` call. Plain `u64` offsets cost 8 bytes per
//!   vertex; the `.tpg` container's Elias–Fano form costs under one byte but a sampled
//!   `select1` per lookup. Packed, 16 MiB of encoded data needs 3 bytes an offset;
//! * the edge weights of a [`CsrGraph`](crate::CsrGraph), where a coarse level whose
//!   heaviest edge weighs 31 stores one byte per half-edge instead of eight.
//!
//! Every entry is stored little-endian in `width` bytes and read back with a single
//! 8-byte load and a mask: the array ends in [`TAIL_PADDING`] zero bytes, so the load of
//! the last entry stays inside it. Writers that fill entries concurrently (one-pass
//! contraction) use [`store_uninit`] / [`store`], which write exactly `width` bytes, and
//! hand the filled bytes over with [`PackedArray::narrowed`].

use std::mem::MaybeUninit;

/// Zero bytes behind the last entry: an 8-byte load at any entry stays in bounds.
pub const TAIL_PADDING: usize = 8;

/// The width rule: bytes per entry of an array whose largest entry is `max`, 1–8.
pub fn width_for(max: u64) -> usize {
    (max.checked_ilog2().unwrap_or(0) as usize / 8) + 1
}

/// The low `8 · width` bits.
fn mask_of(width: usize) -> u64 {
    u64::MAX >> (64 - 8 * width)
}

/// Evaluates `$body` with the constant `$n` equal to the packed width `$width` (1–8).
///
/// [`load`], [`store`] and [`store_uninit`] dispatch on their entry's length; a loop over
/// many entries should be monomorphised over the width with this macro instead — one
/// dispatch per loop — so that each entry compiles to fixed-size moves (a loop that
/// dispatches per entry runs several times slower):
///
/// ```
/// fn sum<const W: usize>(bytes: &[u8]) -> u64 {
///     bytes.chunks_exact(W).map(graph::packed::load).sum()
/// }
/// let bytes = [1, 0, 2, 0];
/// let width = 2;
/// assert_eq!(graph::with_width!(width, |W| sum::<W>(&bytes)), 3);
/// ```
#[macro_export]
macro_rules! with_width {
    ($width:expr, |$n:ident| $body:expr) => {
        match $width {
            1 => {
                const $n: usize = 1;
                $body
            }
            2 => {
                const $n: usize = 2;
                $body
            }
            3 => {
                const $n: usize = 3;
                $body
            }
            4 => {
                const $n: usize = 4;
                $body
            }
            5 => {
                const $n: usize = 5;
                $body
            }
            6 => {
                const $n: usize = 6;
                $body
            }
            7 => {
                const $n: usize = 7;
                $body
            }
            8 => {
                const $n: usize = 8;
                $body
            }
            width => unreachable!("packed width {} outside 1–8", width),
        }
    };
}

/// Reads the entry stored in `entry` (its `width` bytes, little-endian), touching no byte
/// outside it.
#[inline(always)]
pub fn load(entry: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    with_width!(entry.len(), |N| word[..N].copy_from_slice(&entry[..N]));
    u64::from_le_bytes(word)
}

/// Writes the low `entry.len()` bytes of `value` into `entry` — exactly those bytes, so a
/// neighbouring entry another worker writes is never touched.
#[inline(always)]
pub fn store(entry: &mut [u8], value: u64) {
    debug_assert!(
        value <= mask_of(entry.len()),
        "{} does not fit in {} bytes",
        value,
        entry.len()
    );
    let bytes = value.to_le_bytes();
    with_width!(entry.len(), |N| entry[..N].copy_from_slice(&bytes[..N]));
}

/// [`store`] into bytes not yet initialised (a reservation being filled).
#[inline(always)]
pub fn store_uninit(entry: &mut [MaybeUninit<u8>], value: u64) {
    debug_assert!(
        value <= mask_of(entry.len()),
        "{} does not fit in {} bytes",
        value,
        entry.len()
    );
    let bytes = value.to_le_bytes().map(MaybeUninit::new);
    with_width!(entry.len(), |N| entry[..N].copy_from_slice(&bytes[..N]));
}

/// Repacks the first `len` entries of `bytes` from `W` to `N < W` bytes each, front to
/// back: entry `i` moves from `i · W` to `i · N`, onto bytes already read.
fn narrow_entries<const W: usize, const N: usize>(bytes: &mut [u8], len: usize) {
    for i in 0..len {
        let value = load(&bytes[i * W..(i + 1) * W]);
        store(&mut bytes[i * N..(i + 1) * N], value);
    }
}

/// A sequence of unsigned integers, each stored in `width` little-endian bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedArray {
    /// Bytes per entry, 1–8.
    width: usize,
    /// The low `8 · width` bits.
    mask: u64,
    /// The entries, `width` bytes each, then [`TAIL_PADDING`] zero bytes.
    bytes: Box<[u8]>,
}

impl PackedArray {
    /// Packs `values`, none of which may exceed `max` (which fixes the width).
    pub(crate) fn pack(max: u64, values: impl ExactSizeIterator<Item = u64>) -> Self {
        let width = width_for(max);
        let len = values.len();
        let mut bytes = vec![0u8; len * width + TAIL_PADDING].into_boxed_slice();
        let mut packed = 0;
        with_width!(width, |W| for (i, value) in values.enumerate() {
            assert!(value <= max, "value {} beyond {}", value, max);
            store(&mut bytes[i * W..(i + 1) * W], value);
            packed += 1;
        });
        assert_eq!(packed, len, "value iterator yielded a different count");
        Self {
            width,
            mask: mask_of(width),
            bytes,
        }
    }

    /// Takes `bytes` holding entries of `width` bytes each (written with [`store`] /
    /// [`store_uninit`]), none above `max`, and narrows them in place to
    /// [`width_for`]`(max)`. The forward pass is safe because an entry only moves toward
    /// the front, onto bytes already read. Then appends the tail padding and gives back
    /// the spare capacity — reserve `TAIL_PADDING` bytes beyond the entries for the
    /// padding not to reallocate.
    pub fn narrowed(mut bytes: Vec<u8>, width: usize, max: u64) -> Self {
        assert_eq!(bytes.len() % width, 0, "a partial entry of width {}", width);
        let narrow = width_for(max);
        assert!(
            narrow <= width,
            "maximum {} does not fit the {} bytes it was written at",
            max,
            width
        );
        let len = bytes.len() / width;
        if narrow < width {
            with_width!(width, |W| with_width!(narrow, |N| narrow_entries::<W, N>(
                &mut bytes, len
            )));
            bytes.truncate(len * narrow);
        }
        bytes.extend_from_slice(&[0; TAIL_PADDING]);
        Self {
            width: narrow,
            mask: mask_of(narrow),
            bytes: bytes.into_boxed_slice(),
        }
    }

    /// The `i`-th entry (`i < len`): one bounds-checked 8-byte load and a mask.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len(), "entry {} of {}", i, self.len());
        let pos = i * self.width;
        let mut word = [0u8; 8];
        word.copy_from_slice(&self.bytes[pos..pos + 8]);
        u64::from_le_bytes(word) & self.mask
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        (self.bytes.len() - TAIL_PADDING) / self.width
    }

    /// In-memory footprint: the packed entries plus the tail padding.
    pub(crate) fn size_in_bytes(&self) -> usize {
        self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Graph;
    use crate::{CsrGraph, CsrGraphBuilder, EdgeWeight, NodeId};
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashMap;

    fn assert_packs(values: &[u64]) {
        let max = values.iter().copied().max().unwrap_or(0);
        let array = PackedArray::pack(max, values.iter().copied());
        assert_eq!(array.len(), values.len());
        let got: Vec<u64> = (0..values.len()).map(|i| array.get(i)).collect();
        assert_eq!(got, values, "width {}", array.width);
        assert_eq!(
            array.size_in_bytes(),
            values.len() * array.width + TAIL_PADDING
        );
    }

    /// `values` written at `width` through [`store_uninit`] into a reservation, as
    /// one-pass contraction writes them, then [`PackedArray::narrowed`].
    fn written_then_narrowed(values: &[u64], width: usize) -> PackedArray {
        let mut bytes: Vec<u8> = Vec::with_capacity(values.len() * width + TAIL_PADDING);
        for (entry, &value) in bytes.spare_capacity_mut()[..values.len() * width]
            .chunks_exact_mut(width)
            .zip(values)
        {
            store_uninit(entry, value);
        }
        // SAFETY: every byte of the first `len · width` was written just above.
        unsafe { bytes.set_len(values.len() * width) };
        let max = values.iter().copied().max().unwrap_or(0);
        PackedArray::narrowed(bytes, width, max)
    }

    #[test]
    fn width_is_the_bytes_of_the_largest_value() {
        for (max, width) in [
            (0, 1),
            (255, 1),
            (256, 2),
            ((1 << 16) - 1, 2),
            (1 << 16, 3),
            ((1 << 24) - 1, 3),
            (1 << 24, 4),
            (1 << 32, 5),
            (u64::MAX, 8),
        ] {
            assert_eq!(width_for(max), width);
            assert_eq!(PackedArray::pack(max, [0, max].into_iter()).width, width);
            assert_packs(&[0, max]);
        }
    }

    #[test]
    fn the_last_entry_reads_only_padding_beyond_the_data() {
        // Entries 0..n of width 2 fill bytes 0..2(n + 1); the load of entry n covers
        // its 2 bytes and 6 of the 8 padding bytes, which must be zero.
        let values: Vec<u64> = (0..=100u64).map(|i| i * 600).collect();
        let array = PackedArray::pack(60_000, values.iter().copied());
        assert_eq!(array.width, 2);
        assert_eq!(array.get(100), 60_000);
        let tail = &array.bytes[101 * 2..];
        assert_eq!(tail, [0u8; TAIL_PADDING]);
    }

    #[test]
    fn a_single_entry_array_works() {
        // The offset index of an empty graph: n = 0, one offset 0.
        let array = PackedArray::pack(0, [0].into_iter());
        assert_eq!((array.len(), array.width, array.get(0)), (1, 1, 0));
        assert_eq!(array.size_in_bytes(), 1 + TAIL_PADDING);
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn a_value_beyond_the_maximum_is_refused() {
        PackedArray::pack(255, [0, 256].into_iter());
    }

    #[test]
    fn store_writes_exactly_its_width() {
        for width in 1..=8 {
            let mut bytes = [0xAAu8; 10];
            store(&mut bytes[1..1 + width], mask_of(width));
            assert_eq!(bytes[0], 0xAA, "width {width} wrote before its entry");
            assert!(bytes[1..1 + width].iter().all(|&b| b == 0xFF));
            assert!(
                bytes[1 + width..].iter().all(|&b| b == 0xAA),
                "width {width} wrote past its entry"
            );
            assert_eq!(load(&bytes[1..1 + width]), mask_of(width));
        }
    }

    #[test]
    fn narrowing_keeps_every_value_and_the_padding() {
        let values: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 300).collect();
        for width in 2..=8 {
            let array = written_then_narrowed(&values, width);
            assert_eq!(array.width, 2, "300 needs two bytes");
            assert_eq!(array, PackedArray::pack(299, values.iter().copied()));
        }
        // Nothing to narrow: the written width is already the width of the maximum.
        let array = written_then_narrowed(&values, 2);
        assert_eq!(array.size_in_bytes(), 500 * 2 + TAIL_PADDING);
        // An empty array narrows to one byte and keeps its padding.
        let empty = written_then_narrowed(&[], 5);
        assert_eq!((empty.len(), empty.width, empty.size_in_bytes()), (0, 1, 8));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn a_maximum_wider_than_the_written_width_is_refused() {
        PackedArray::narrowed(vec![0; 4], 1, 256);
    }

    /// Last values at the edges of the byte classes.
    const BOUNDARIES: [u64; 6] = [255, 256, 1 << 16, (1 << 24) - 1, 1 << 24, 1 << 32];

    /// A random graph on `n` vertices whose edge weights all need exactly `width` bytes,
    /// small enough that twice the total weight fits a `u64` at width 8, and the weight
    /// of each of its edges `{u, v}` (`u < v`).
    fn csr_with_weights_of_width(
        n: usize,
        edges: usize,
        width: usize,
        seed: u64,
    ) -> (CsrGraph, HashMap<(NodeId, NodeId), EdgeWeight>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Width 1 starts at 2: a reader drops weights that are all 1.
        let low = if width == 1 {
            2
        } else {
            1u64 << (8 * (width - 1))
        };
        let high = if width == 8 { 1 << 57 } else { mask_of(width) };
        let mut builder = CsrGraphBuilder::new(n);
        let mut weights = HashMap::new();
        for _ in 0..edges {
            let (u, v) = (rng.gen_range(0..n) as NodeId, rng.gen_range(0..n) as NodeId);
            let key = (u.min(v), u.max(v));
            // Distinct pairs only: the builder sums duplicates, which could leave the class.
            if u != v && !weights.contains_key(&key) {
                let w = rng.gen_range(low..=high);
                weights.insert(key, w);
                builder.add_edge(u, v, w);
            }
        }
        (builder.build(), weights)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Against the `Vec<u64>` the array replaces, at every width 1–8: the deltas are
        // scaled so the values spread over the byte class of `width`, and a case ends on
        // the top of that class or, for `boundary < 6`, on one of the `BOUNDARIES`.
        // Packed sequentially and written at a wider width then narrowed, alike.
        #[test]
        fn prop_packed_equals_plain_offsets(
            width in 1usize..9,
            deltas in proptest::collection::vec(0u64..1_000, 0..300),
            boundary in 0usize..12,
            spare in 0usize..8,
        ) {
            let top = mask_of(width);
            let scale = (top >> 10).max(1);
            let mut values = vec![0u64];
            let mut acc = 0u64;
            for d in deltas {
                acc = acc.saturating_add(d.saturating_mul(scale)).min(top);
                values.push(acc);
            }
            values.push(BOUNDARIES.get(boundary).map_or(top, |&b| b.max(acc)));
            assert_packs(&values);
            let max = *values.iter().max().unwrap();
            let written = (width_for(max) + spare).min(8);
            prop_assert_eq!(
                written_then_narrowed(&values, written),
                PackedArray::pack(max, values.iter().copied())
            );
        }

        // A CSR whose weights need `width` bytes keeps them exact through every reader
        // of the weights and through the binary format, and counts `width` bytes per
        // half-edge.
        #[test]
        fn prop_csr_edge_weights_round_trip_at_every_width(
            width in 1usize..9,
            n in 2usize..40,
            edges in 1usize..60,
            seed in 0u64..1_000,
        ) {
            let (g, weights) = csr_with_weights_of_width(n, edges, width, seed);
            let half_edges = g.adjacency().len();
            prop_assert_eq!(half_edges, 2 * weights.len());
            prop_assert_eq!(g.total_edge_weight(), weights.values().sum::<EdgeWeight>());
            for u in 0..g.n() as NodeId {
                let mut e = g.first_edge(u);
                g.for_each_neighbor(u, &mut |v, w| {
                    prop_assert_eq!(w, weights[&(u.min(v), u.max(v))]);
                    prop_assert_eq!(g.edge_weight(e), w);
                    e += 1;
                });
            }
            prop_assert_eq!(
                g.size_in_bytes(),
                g.xadj().len() * 8
                    + std::mem::size_of_val(g.adjacency())
                    + if half_edges == 0 { 0 } else { half_edges * width + TAIL_PADDING }
            );
            prop_assert_eq!(g.allocated_bytes(), g.size_in_bytes());

            let path = std::env::temp_dir().join(format!(
                "graph_packed_{}_{}_{}_{}_{}.bin",
                std::process::id(), width, n, edges, seed
            ));
            crate::io::write_binary(&g, &path).unwrap();
            let read = crate::io::read_binary(&path);
            std::fs::remove_file(&path).ok();
            prop_assert_eq!(read.unwrap(), g);
        }
    }
}
