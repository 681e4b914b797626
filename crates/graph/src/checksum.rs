//! Streaming CRC-32 (IEEE 802.3 polynomial) used by the `.tpg` container.
//!
//! The build environment has no cargo registry, so the checksum is implemented here
//! rather than pulled from `crc32fast`. A single 256-entry table (built at compile
//! time) keeps the hot loop at one table lookup per byte, which is plenty for the
//! container's block granularity: checksumming is amortised against disk reads, not
//! against in-memory decoding.

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

static TABLE: [u32; 256] = build_table();

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

    /// Absorbs `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        for &b in bytes {
            state = (state >> 8) ^ TABLE[((state ^ u32::from(b)) & 0xff) as usize];
        }
        self.state = state;
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
