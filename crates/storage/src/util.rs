//! Small self-contained utilities: CRC-32 (for WAL record integrity) and
//! the size of a standard B-tree.

/// CRC-32 (IEEE 802.3 polynomial, reflected), eight bytes a step.
///
/// Hand-rolled so the WAL has zero external dependencies; matches the
/// standard `crc32` used by gzip/PNG, which makes records inspectable with
/// stock tooling. Slicing-by-8: one table per byte position of a word,
/// so each eight bytes take eight independent lookups instead of a
/// chain of eight dependent ones; the tail is done a byte at a time.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = u32::from_le_bytes(word[..4].try_into().expect("four bytes")) ^ crc;
        let hi = u32::from_le_bytes(word[4..].try_into().expect("four bytes"));
        let t = |k: usize, x: u32, shift: u32| CRC_TABLES[k][(x >> shift & 0xFF) as usize];
        crc = t(7, lo, 0)
            ^ t(6, lo, 8)
            ^ t(5, lo, 16)
            ^ t(4, lo, 24)
            ^ t(3, hi, 0)
            ^ t(2, hi, 8)
            ^ t(1, hi, 16)
            ^ t(0, hi, 24);
    }
    for &b in words.remainder() {
        crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// `CRC_TABLES[0]` is the byte-at-a-time table; `CRC_TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Heap bytes of a `BTreeMap`/`BTreeSet` of `len` entries whose key and
/// value together take `slot` bytes. The standard tree does not say how
/// many nodes it has, so this counts them for the shape this engine
/// builds: keys that arrive in ascending order (row ids, timestamp
/// suffixes), where every split leaves six entries behind and sends one
/// up — seven entries a node. Random arrival packs a little tighter.
/// A node is two words of bookkeeping and eleven slots; a node with
/// children adds twelve pointers.
pub(crate) fn btree_bytes(len: usize, slot: usize) -> usize {
    let word = std::mem::size_of::<usize>();
    let mut nodes = len.div_ceil(7);
    let mut bytes = nodes * (2 * word + 11 * slot);
    while nodes > 1 {
        nodes = nodes.div_ceil(7);
        bytes += nodes * (2 * word + 11 * slot + 12 * word);
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The CRC a byte at a time, straight from the polynomial: what the
    /// eight-byte step must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn eight_bytes_a_step_equals_a_byte_at_a_time() {
        // Every length from 0 to 1 024 at every start offset from 0 to 7,
        // so each word alignment and each tail length is crossed.
        let data: Vec<u8> = (0..1_040u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=1_024 {
                let bytes = &data[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "{len} bytes from offset {start}"
                );
            }
        }
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }
}
