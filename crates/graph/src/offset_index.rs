//! [`OffsetIndex`]: the per-vertex byte offsets of a resident compressed store, packed
//! at a fixed byte width.
//!
//! The resident stores — the in-memory [`CompressedGraph`](crate::CompressedGraph) and
//! the memory-mapped [`MmapGraph`](crate::store::MmapGraph) — look up the start of a
//! neighbourhood once per `degree` / `for_each_neighbor` call, so the lookup sits on the
//! decode path. Plain `u64` offsets cost 8 bytes per vertex; the `.tpg` container's
//! Elias–Fano form costs under one byte but a sampled `select1` per lookup. This index
//! stores every offset little-endian in the fewest whole bytes that hold the largest
//! (3 bytes for up to 16 MiB of encoded data) and reads one back with a single 8-byte
//! load and a mask: the array ends in 8 zero bytes, so the load of the last entry
//! stays inside it.

/// Zero bytes behind the last entry: an 8-byte load at any entry stays in bounds.
const TAIL_PADDING: usize = 8;

/// A monotone sequence of byte offsets, each stored in `width` little-endian bytes.
#[derive(Debug, Clone)]
pub(crate) struct OffsetIndex {
    /// Bytes per entry, 1–8.
    width: usize,
    /// The low `8 · width` bits.
    mask: u64,
    /// The entries, `width` bytes each, then [`TAIL_PADDING`] zero bytes.
    bytes: Box<[u8]>,
}

impl OffsetIndex {
    /// Packs `offsets`, none of which may exceed `max` (the data length, which fixes
    /// the width).
    pub(crate) fn pack(max: u64, offsets: impl ExactSizeIterator<Item = u64>) -> Self {
        let width = (max.checked_ilog2().unwrap_or(0) as usize / 8) + 1;
        let mask = u64::MAX >> (64 - 8 * width);
        let len = offsets.len();
        let mut bytes = vec![0u8; len * width + TAIL_PADDING].into_boxed_slice();
        let mut packed = 0;
        for (i, offset) in offsets.enumerate() {
            assert!(offset <= max, "offset {} beyond {}", offset, max);
            // All eight bytes: the ones above `width` are zero and land on the next
            // entry (written after this one) or on the padding.
            bytes[i * width..i * width + 8].copy_from_slice(&offset.to_le_bytes());
            packed += 1;
        }
        assert_eq!(packed, len, "offset iterator yielded a different count");
        Self { width, mask, bytes }
    }

    /// The `i`-th offset (`i < len`): one bounds-checked 8-byte load and a mask.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len(), "offset {} of {}", i, self.len());
        let pos = i * self.width;
        let mut word = [0u8; 8];
        word.copy_from_slice(&self.bytes[pos..pos + 8]);
        u64::from_le_bytes(word) & self.mask
    }

    /// Number of offsets.
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
    use proptest::prelude::*;

    fn assert_packs(values: &[u64]) {
        let max = values.last().copied().unwrap_or(0);
        let index = OffsetIndex::pack(max, values.iter().copied());
        assert_eq!(index.len(), values.len());
        let got: Vec<u64> = (0..values.len()).map(|i| index.get(i)).collect();
        assert_eq!(got, values, "width {}", index.width);
        assert_eq!(
            index.size_in_bytes(),
            values.len() * index.width + TAIL_PADDING
        );
    }

    #[test]
    fn width_is_the_bytes_of_the_largest_offset() {
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
            assert_eq!(OffsetIndex::pack(max, [0, max].into_iter()).width, width);
            assert_packs(&[0, max]);
        }
    }

    #[test]
    fn the_last_entry_reads_only_padding_beyond_the_data() {
        // Entries 0..n of width 2 fill bytes 0..2(n + 1); the load of entry n covers
        // its 2 bytes and 6 of the 8 padding bytes, which must be zero.
        let values: Vec<u64> = (0..=100u64).map(|i| i * 600).collect();
        let index = OffsetIndex::pack(60_000, values.iter().copied());
        assert_eq!(index.width, 2);
        assert_eq!(index.get(100), 60_000);
        let tail = &index.bytes[101 * 2..];
        assert_eq!(tail, [0u8; TAIL_PADDING]);
    }

    #[test]
    fn a_single_entry_index_works() {
        // The index of an empty graph: n = 0, one offset 0.
        let index = OffsetIndex::pack(0, [0].into_iter());
        assert_eq!((index.len(), index.width, index.get(0)), (1, 1, 0));
        assert_eq!(index.size_in_bytes(), 1 + TAIL_PADDING);
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn an_offset_beyond_the_maximum_is_refused() {
        OffsetIndex::pack(255, [0, 256].into_iter());
    }

    /// Last offsets at the edges of the byte classes.
    const BOUNDARIES: [u64; 6] = [255, 256, 1 << 16, (1 << 24) - 1, 1 << 24, 1 << 32];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Against the `Vec<u64>` the index replaces, at every width 1–8: the deltas are
        // scaled so the offsets spread over the byte class of `width`, and a case ends on
        // the top of that class or, for `boundary < 6`, on one of the `BOUNDARIES`.
        #[test]
        fn prop_packed_equals_plain_offsets(
            width in 1usize..9,
            deltas in proptest::collection::vec(0u64..1_000, 0..300),
            boundary in 0usize..12,
        ) {
            let top = u64::MAX >> (64 - 8 * width);
            let scale = (top >> 10).max(1);
            let mut values = vec![0u64];
            let mut acc = 0u64;
            for d in deltas {
                acc = acc.saturating_add(d.saturating_mul(scale)).min(top);
                values.push(acc);
            }
            values.push(BOUNDARIES.get(boundary).map_or(top, |&b| b.max(acc)));
            assert_packs(&values);
        }
    }
}
