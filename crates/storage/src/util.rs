//! Small self-contained utilities: CRC-32 (for WAL record integrity) and
//! the size of a standard B-tree.

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.
///
/// Hand-rolled so the WAL has zero external dependencies; matches the
/// standard `crc32` used by gzip/PNG, which makes records inspectable with
/// stock tooling.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        let idx = ((crc ^ b as u32) & 0xFF) as usize;
        crc = CRC_TABLE[idx] ^ (crc >> 8);
    }
    !crc
}

const CRC_TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = c;
        i += 1;
    }
    table
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

    #[test]
    fn sensitive_to_single_bit_flips() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }
}
