//! Elias–Fano encoding of the `.tpg` offset index: the [`EliasFanoIndex`] both store
//! backends read neighbourhood byte ranges from.
//!
//! The offset index of a `.tpg` container is a monotone sequence of `n + 1` byte
//! positions into the data section. Stored plainly it would cost 8 bytes per vertex;
//! the Elias–Fano representation stores the same sequence in roughly
//! `2 + log2(data_len / (n + 1))` bits per entry — within half a bit per element of
//! the information-theoretic minimum for a monotone sequence (the webgraph idiom:
//! memory-mapped adjacency plus a compressed offset index).
//!
//! # Layout
//!
//! For `count` values over universe `[0, universe]` the low `l` bits of every value
//! (`l = floor(log2(universe / count))`, 0 when the quotient vanishes) are packed
//! LSB-first into little-endian u64 words; the high parts are stored as a unary
//! (negated) bit vector with a set bit at position `i + (v_i >> l)` for the `i`-th
//! value. Both word counts derive from `count` and `universe` alone, so a reader can
//! locate every following container section from the header without decoding the
//! index first (see [`ef_section_bytes`]).
//!
//! # Lookups
//!
//! * Random access — [`EliasFanoIndex::get`] — is a sampled `select1` over the upper
//!   bits: the position of every `SELECT_QUANTUM`-th set bit is kept, and a query
//!   popcount-scans at most a few words from the preceding sample, then selects within
//!   the word.
//! * Sequential access — [`EliasFanoIndex::iter`] — never selects: one cursor walks the
//!   set bits of the upper array in order (`word &= word - 1`) and reads the low bits at
//!   `i · l`, a handful of cycles per value. Validation at open and the expansion of
//!   the index into plain offsets both run over it.
//! * `pair(i)`, the byte range of vertex `i`'s neighbourhood that the mmap and paged
//!   backends fetch once per `for_each_neighbor` / `degree`, positions the same cursor
//!   with *one* `select1(i)` and takes two values from it — the second is "the next set
//!   bit", not a second select.

use crate::io::IoError;

/// Set bits between consecutive select samples. The upper bit vector holds
/// `count + (universe >> l)` bits for `count` set bits, and `universe >> l` is below
/// `2 * count` by the choice of `l`, so a quantum of 64 set bits spans at most ~3
/// words of scan per lookup.
const SELECT_QUANTUM: usize = 64;

/// Number of low bits stored explicitly per value: `floor(log2(universe / count))`,
/// or 0 when the quotient vanishes.
pub fn ef_low_bits(count: u64, universe: u64) -> u32 {
    if count == 0 {
        return 0;
    }
    let per = universe / count;
    if per == 0 {
        0
    } else {
        per.ilog2()
    }
}

/// Little-endian u64 words of the packed low-bits array.
pub fn ef_lower_words(count: u64, universe: u64) -> u64 {
    (count * u64::from(ef_low_bits(count, universe))).div_ceil(64)
}

/// Little-endian u64 words of the unary upper-bits array.
pub fn ef_upper_words(count: u64, universe: u64) -> u64 {
    let l = ef_low_bits(count, universe);
    (count + (universe >> l)).div_ceil(64)
}

/// On-disk size in bytes of the Elias–Fano section for `count` monotone values over
/// `[0, universe]`. Derivable from the `.tpg` header alone (`count = n + 1`,
/// `universe = data_len`), which is what keeps the node-weight and footer offsets of
/// a container computable without reading the index.
pub fn ef_section_bytes(count: u64, universe: u64) -> u64 {
    8 * (ef_lower_words(count, universe) + ef_upper_words(count, universe))
}

/// A monotone sequence in Elias–Fano representation with sampled `select1` lookup
/// and a sequential cursor.
#[derive(Debug, Clone)]
pub struct EliasFanoIndex {
    count: usize,
    universe: u64,
    low_bits: u32,
    /// Packed low bits, `low_bits` per value, LSB-first.
    lower: Box<[u64]>,
    /// Unary upper bits: bit `i + (v_i >> low_bits)` is set for the `i`-th value.
    upper: Box<[u64]>,
    /// Bit position of every [`SELECT_QUANTUM`]-th set bit of `upper` (in-memory
    /// acceleration only, never stored).
    select: Box<[u64]>,
}

/// Position of the `k`-th (0-based) set bit of `word`; `word` must have more than
/// `k` set bits.
fn select_in_word(mut word: u64, mut k: u32) -> u64 {
    loop {
        let bit = word.trailing_zeros();
        if k == 0 {
            return u64::from(bit);
        }
        word &= word - 1;
        k -= 1;
    }
}

impl EliasFanoIndex {
    /// Encodes a sorted slice of values over `[0, universe]`.
    pub fn encode(values: &[u64], universe: u64) -> Self {
        let count = values.len();
        let l = ef_low_bits(count as u64, universe);
        let mut lower = vec![0u64; ef_lower_words(count as u64, universe) as usize];
        let mut upper = vec![0u64; ef_upper_words(count as u64, universe) as usize];
        for (i, &v) in values.iter().enumerate() {
            debug_assert!(v <= universe, "value {} beyond universe {}", v, universe);
            debug_assert!(i == 0 || values[i - 1] <= v, "values must be sorted");
            if l > 0 {
                let low = v & ((1u64 << l) - 1);
                let pos = i as u64 * u64::from(l);
                let (w, s) = ((pos / 64) as usize, (pos % 64) as u32);
                lower[w] |= low << s;
                if s + l > 64 {
                    lower[w + 1] |= low >> (64 - s);
                }
            }
            let hi = i as u64 + (v >> l);
            upper[(hi / 64) as usize] |= 1u64 << (hi % 64);
        }
        Self::with_select(count, universe, l, lower.into(), upper.into())
    }

    /// Rebuilds an index from the words read back from a container. Validates shape
    /// (word count, exactly `count` set upper bits) and semantics (monotone values
    /// within the universe), so lookups on the returned index can never scan out of
    /// bounds — a corrupted-but-plausible section becomes a structured error here,
    /// never a panic later.
    pub fn from_words(count: usize, universe: u64, mut words: Vec<u64>) -> Result<Self, IoError> {
        let lower_words = ef_lower_words(count as u64, universe) as usize;
        let upper_words = ef_upper_words(count as u64, universe) as usize;
        if words.len() != lower_words + upper_words {
            return Err(IoError::Format(format!(
                ".tpg Elias-Fano offset index holds {} words, expected {}",
                words.len(),
                lower_words + upper_words
            )));
        }
        let upper: Box<[u64]> = words[lower_words..].into();
        words.truncate(lower_words);
        let ones: u64 = upper.iter().map(|w| u64::from(w.count_ones())).sum();
        if ones != count as u64 {
            return Err(IoError::Format(format!(
                ".tpg Elias-Fano offset index has {} upper bits set, expected {}",
                ones, count
            )));
        }
        let l = ef_low_bits(count as u64, universe);
        let index = Self::with_select(count, universe, l, words.into(), upper);
        let mut prev = 0u64;
        for (i, v) in index.iter().enumerate() {
            if v < prev || v > universe {
                return Err(IoError::Format(format!(
                    ".tpg Elias-Fano offset index is not monotone at entry {}",
                    i
                )));
            }
            prev = v;
        }
        Ok(index)
    }

    fn with_select(
        count: usize,
        universe: u64,
        low_bits: u32,
        lower: Box<[u64]>,
        upper: Box<[u64]>,
    ) -> Self {
        let mut select = Vec::with_capacity(count / SELECT_QUANTUM + 1);
        let mut rank = 0usize;
        for (w, &bits) in upper.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                if rank.is_multiple_of(SELECT_QUANTUM) {
                    select.push(w as u64 * 64 + u64::from(bits.trailing_zeros()));
                }
                rank += 1;
                bits &= bits - 1;
            }
        }
        Self {
            count,
            universe,
            low_bits,
            lower,
            upper,
            select: select.into(),
        }
    }

    /// Number of encoded values.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the index holds no values.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The upper bound of the encoded universe.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// Position of the `i`-th set bit of the upper array. The construction-time
    /// validation guarantees at least `count` set bits, so the scan cannot overrun
    /// for `i < count`.
    fn select1(&self, i: usize) -> u64 {
        let sample = self.select[i / SELECT_QUANTUM];
        let mut word_idx = (sample / 64) as usize;
        let mut remaining = (i % SELECT_QUANTUM) as u32;
        // The sample bit itself is the (i - remaining)-th set bit; mask off the bits
        // below it and scan forward.
        let mut word = self.upper[word_idx] & (u64::MAX << (sample % 64));
        loop {
            let ones = word.count_ones();
            if remaining < ones {
                return word_idx as u64 * 64 + select_in_word(word, remaining);
            }
            remaining -= ones;
            word_idx += 1;
            word = self.upper[word_idx];
        }
    }

    /// The explicitly stored low bits of the `i`-th value.
    fn low(&self, i: usize) -> u64 {
        if self.low_bits == 0 {
            return 0;
        }
        let pos = i as u64 * u64::from(self.low_bits);
        let (w, s) = ((pos / 64) as usize, (pos % 64) as u32);
        let mut low = self.lower[w] >> s;
        if s + self.low_bits > 64 {
            low |= self.lower[w + 1] << (64 - s);
        }
        low & ((1u64 << self.low_bits) - 1)
    }

    /// The `i`-th value (`i < len()`), by random access: one sampled select.
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.count, "index {} out of {} values", i, self.count);
        let hi = self.select1(i) - i as u64;
        (hi << self.low_bits) | self.low(i)
    }

    /// A cursor whose next value is the `i`-th (`i <= len()`): one sampled select to
    /// find its set bit, none afterwards.
    fn cursor(&self, i: usize) -> Iter<'_> {
        let (word_idx, word) = if i < self.count {
            let pos = self.select1(i);
            let word_idx = (pos / 64) as usize;
            (word_idx, self.upper[word_idx] & (u64::MAX << (pos % 64)))
        } else {
            (0, 0)
        };
        Iter {
            index: self,
            next: i,
            word_idx,
            word,
        }
    }

    /// All values in order, without a select per value (see the module docs).
    pub fn iter(&self) -> Iter<'_> {
        self.cursor(0)
    }

    /// The byte range `[get(i), get(i + 1))` of vertex `i`'s encoded neighbourhood:
    /// one select, then the next set bit.
    pub(crate) fn pair(&self, i: usize) -> (u64, u64) {
        debug_assert!(
            i + 1 < self.count,
            "pair {} out of {} values",
            i,
            self.count
        );
        let mut cursor = self.cursor(i);
        (cursor.advance(), cursor.advance())
    }

    /// The packed low-bits words, in storage order.
    pub fn lower_words(&self) -> &[u64] {
        &self.lower
    }

    /// The unary upper-bits words, in storage order.
    pub fn upper_words(&self) -> &[u64] {
        &self.upper
    }

    /// In-memory footprint (stored words plus the select samples).
    pub fn size_in_bytes(&self) -> usize {
        (self.lower.len() + self.upper.len() + self.select.len()) * std::mem::size_of::<u64>()
    }
}

/// Sequential cursor over the values of an [`EliasFanoIndex`]: holds the not yet
/// consumed set bits of the current upper word.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    index: &'a EliasFanoIndex,
    /// Index of the value the next call yields.
    next: usize,
    word_idx: usize,
    /// Bits of `upper[word_idx]` at and above the next value's set bit.
    word: u64,
}

impl Iter<'_> {
    /// The next value; the caller guarantees `next < count`. Construction-time
    /// validation put exactly `count` set bits into `upper`, so the word scan finds
    /// one before the array ends.
    fn advance(&mut self) -> u64 {
        while self.word == 0 {
            self.word_idx += 1;
            self.word = self.index.upper[self.word_idx];
        }
        let pos = self.word_idx as u64 * 64 + u64::from(self.word.trailing_zeros());
        self.word &= self.word - 1;
        let i = self.next;
        self.next += 1;
        ((pos - i as u64) << self.index.low_bits) | self.index.low(i)
    }
}

impl Iterator for Iter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        (self.next < self.index.count).then(|| self.advance())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.index.count - self.next;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use proptest::prelude::*;

    fn roundtrip(values: &[u64], universe: u64) {
        let encoded = EliasFanoIndex::encode(values, universe);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(encoded.get(i), v, "entry {} of {:?}", i, values);
        }
        // Through the storage words, as a reader would rebuild it.
        let words: Vec<u64> = encoded
            .lower_words()
            .iter()
            .chain(encoded.upper_words())
            .copied()
            .collect();
        let decoded = EliasFanoIndex::from_words(values.len(), universe, words).unwrap();
        let as_vec: Vec<u64> = (0..decoded.len()).map(|i| decoded.get(i)).collect();
        assert_eq!(as_vec, values);
        // The sequential cursor and `pair` against random access.
        assert_eq!(decoded.iter().len(), values.len());
        assert_eq!(decoded.iter().collect::<Vec<u64>>(), values);
        for i in 0..values.len().saturating_sub(1) {
            assert_eq!(decoded.pair(i), (values[i], values[i + 1]), "pair {}", i);
        }
    }

    #[test]
    fn boundary_sequences_round_trip() {
        // Empty graph: the offset index still has one entry (0) over universe 0.
        roundtrip(&[0], 0);
        // Single node, empty and non-empty neighbourhood.
        roundtrip(&[0, 0], 0);
        roundtrip(&[0, 17], 17);
        // Repeated values (runs of empty neighbourhoods).
        roundtrip(&[0, 0, 0, 5, 5, 5, 9], 9);
        // A max-degree node: one giant step dominating the universe.
        roundtrip(&[0, 1, 1_000_000, 1_000_001], 1_000_001);
        // Dense consecutive values.
        let dense: Vec<u64> = (0..1000).collect();
        roundtrip(&dense, 999);
        // Sparse values over a huge universe (forces a large low-bit width).
        roundtrip(&[0, 1 << 40, (1 << 50) + 3, u64::MAX / 2], u64::MAX / 2);
    }

    /// Bit positions of the set bits of `index`'s upper array.
    fn upper_positions(index: &EliasFanoIndex) -> Vec<u64> {
        (0..index.upper_words().len() as u64 * 64)
            .filter(|p| index.upper_words()[(p / 64) as usize] >> (p % 64) & 1 == 1)
            .collect()
    }

    #[test]
    fn cursor_and_pair_cross_word_boundaries() {
        // No low bits (universe below count): value i sits at upper bit i + v_i, so
        // entries 40 and 41 land on bits 63 and 64 — `pair(40)` starts on the last bit
        // of a word and must find its partner in the next one.
        let mut values = vec![0u64; 40];
        values.extend([23, 23]);
        values.extend(std::iter::repeat_n(50, 58));
        let encoded = EliasFanoIndex::encode(&values, 50);
        assert_eq!(encoded.low_bits, 0);
        assert_eq!(upper_positions(&encoded)[40..42], [63, 64]);
        roundtrip(&values, 50);
        // A run of isolated vertices, then one giant step: the set bits of entries 149
        // and 150 are separated by whole zero words.
        let mut values = vec![0u64; 150];
        values.extend(std::iter::repeat_n(1 << 30, 150));
        let encoded = EliasFanoIndex::encode(&values, 1 << 30);
        let positions = upper_positions(&encoded);
        assert!(
            positions[150] - positions[149] > 128,
            "{:?}",
            &positions[149..151]
        );
        roundtrip(&values, 1 << 30);
        // One value: nothing to pair, the cursor yields it and stops.
        let single = EliasFanoIndex::encode(&[7], 7);
        assert_eq!(single.iter().collect::<Vec<_>>(), [7]);
        // No value at all.
        assert_eq!(EliasFanoIndex::encode(&[], 0).iter().next(), None);
    }

    #[test]
    fn section_bytes_match_encoding_and_beat_plain_offsets() {
        // A typical offsets shape: ~5 bytes per neighbourhood.
        let values: Vec<u64> = (0..10_001u64).map(|i| i * 5).collect();
        let universe = *values.last().unwrap();
        let encoded = EliasFanoIndex::encode(&values, universe);
        let bytes = ef_section_bytes(values.len() as u64, universe);
        assert_eq!(
            bytes as usize,
            (encoded.lower_words().len() + encoded.upper_words().len()) * 8
        );
        let plain = 8 * values.len() as u64;
        assert!(
            bytes * 2 < plain,
            "Elias-Fano section {} not substantially below plain {}",
            bytes,
            plain
        );
    }

    #[test]
    fn corrupt_words_are_structured_errors() {
        let values: Vec<u64> = (0..257u64).map(|i| i * 3).collect();
        let universe = *values.last().unwrap();
        let encoded = EliasFanoIndex::encode(&values, universe);
        let words: Vec<u64> = encoded
            .lower_words()
            .iter()
            .chain(encoded.upper_words())
            .copied()
            .collect();
        // Wrong word count.
        assert!(EliasFanoIndex::from_words(values.len(), universe, words[1..].to_vec()).is_err());
        // Flipping an upper bit changes the set-bit count.
        let mut flipped = words.clone();
        let upper_start = encoded.lower_words().len();
        flipped[upper_start] ^= 1 << 7;
        assert!(EliasFanoIndex::from_words(values.len(), universe, flipped).is_err());
        // A low bit cleared inside a run of equal values breaks monotonicity while the
        // shape stays valid: [0, 5, 5, 9] over 9 stores one low bit per entry.
        let run = EliasFanoIndex::encode(&[0, 5, 5, 9], 9);
        assert_eq!(run.lower_words(), [0b1110]);
        let mut words = vec![0b1010];
        words.extend_from_slice(run.upper_words());
        assert!(EliasFanoIndex::from_words(4, 9, words).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Arbitrary monotone sequences (built from deltas) round-trip through encode
        // and through the storage words, including a universe strictly larger than
        // the last value.
        #[test]
        fn prop_monotone_sequences_round_trip(
            deltas in proptest::collection::vec(0u64..10_000, 1..300),
            slack in 0u64..1000,
        ) {
            let mut values = Vec::with_capacity(deltas.len());
            let mut acc = 0u64;
            for d in deltas {
                acc += d;
                values.push(acc);
            }
            roundtrip(&values, acc + slack);
        }

        // The shapes an offset index really has: runs of equal values (isolated
        // vertices), unit steps, and the occasional giant neighbourhood that moves the
        // next set bit several upper words on; `dense` squeezes the universe below the
        // count, which stores no low bits at all. `roundtrip` checks `iter()` and
        // every `pair(i)` against `get`.
        #[test]
        fn prop_cursor_and_pair_equal_random_access(
            steps in proptest::collection::vec((0u32..8, 0u64..5000), 1..400),
            dense in proptest::bool::ANY,
            slack in 0u64..3,
        ) {
            let mut values = Vec::with_capacity(steps.len());
            let mut acc = 0u64;
            for (kind, delta) in steps {
                acc += match kind {
                    0..=2 => 0,
                    _ if dense => delta % 2,
                    3..=6 => 1 + delta % 4,
                    _ => delta * 1000,
                };
                values.push(acc);
            }
            let universe = if dense { acc } else { acc + slack };
            if dense {
                prop_assert_eq!(ef_low_bits(values.len() as u64, universe), 0);
            }
            roundtrip(&values, universe);
        }
    }
}
