//! CRC-32 (IEEE 802.3) checksums, shared by the WAL record format and the
//! recovery manager's dump format for torn-write detection.

/// Computes the CRC-32 (IEEE, reflected, init `!0`, final xor `!0`) of
/// `bytes` — the same polynomial zlib and Ethernet use.
///
/// # Example
///
/// ```rust
/// // Standard check value for "123456789".
/// assert_eq!(twob_sim::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(!0u32, bytes) ^ !0u32
}

/// Streaming form: feed chunks into a running state initialized with
/// `!0u32`, and finish by xoring with `!0u32`.
///
/// Slice-by-8: eight bytes per step through `CRC_TABLES`, the remainder
/// one byte at a time through the first table.
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = state;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// `CRC_TABLES[0][b]` is the reflected CRC step of byte `b`, and
/// `CRC_TABLES[k][b]` the same byte followed by `k` zero bytes: 8 KiB,
/// built at compile time from the IEEE polynomial `0xEDB8_8320`.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// Computes the 64-bit FNV-1a hash of `bytes`.
///
/// Used where a wider, cheap, dependency-free digest is wanted — e.g. the
/// engines' canonical `state_digest()` — while CRC-32 stays the on-media
/// record checksum. Not cryptographic; it detects divergence, not tampering.
///
/// # Example
///
/// ```rust
/// // Standard FNV-1a test vectors.
/// assert_eq!(twob_sim::fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
/// assert_eq!(twob_sim::fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(FNV_BASIS, bytes)
}

/// Streaming form of [`fnv1a64`]: feed chunks into a running state
/// initialized with the FNV offset basis (`0xCBF2_9CE4_8422_2325`).
pub fn fnv1a64_update(state: u64, bytes: &[u8]) -> u64 {
    let mut hash = state;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The FNV-1a 64-bit offset basis: the initial state of [`fnv1a64`] and
/// of every digest folded with [`mix`].
pub const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Folds one 64-bit word into an order-sensitive digest: an FNV-1a step
/// over the whole word, then a rotation so equal words at different
/// positions do not cancel. The one fold behind the sharded calendar's
/// completion digests, the serving driver's completion log and the
/// replication stacks' commit digests, which is what lets those logs be
/// compared hash for hash.
#[inline]
pub fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME).rotate_left(23)
}

/// Folds `bytes` into a [`mix`] digest as little-endian 8-byte words, the
/// last one zero-padded.
#[inline]
pub fn mix_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for chunk in bytes.chunks(8) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        h = mix(h, u64::from_le_bytes(buf));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn fnv_streaming_matches_one_shot() {
        let data = b"hello, streaming world";
        let mut state = 0xCBF2_9CE4_8422_2325u64;
        for chunk in data.chunks(5) {
            state = fnv1a64_update(state, chunk);
        }
        assert_eq!(state, fnv1a64(data));
    }

    #[test]
    fn mix_is_order_sensitive_and_bytes_fold_as_padded_words() {
        let h = mix(mix(FNV_BASIS, 1), 2);
        assert_ne!(h, mix(mix(FNV_BASIS, 2), 1));
        // Pinned: every tracked digest in the workspace folds through this.
        assert_eq!(mix(FNV_BASIS, 0), 0xA643_00DB_EFD7_B1DE);
        let bytes = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];
        let words = [0x0807_0605_0403_0201, 0x000B_0A09];
        assert_eq!(
            mix_bytes(FNV_BASIS, &bytes),
            words.iter().fold(FNV_BASIS, |h, &w| mix(h, w))
        );
        assert_eq!(mix_bytes(h, &[]), h);
    }

    #[test]
    fn fnv_detects_single_bit_flip() {
        let mut data = vec![0xA5u8; 64];
        let clean = fnv1a64(&data);
        data[31] ^= 0x10;
        assert_ne!(fnv1a64(&data), clean);
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"hello, streaming world";
        let mut state = !0u32;
        for chunk in data.chunks(5) {
            state = crc32_update(state, chunk);
        }
        assert_eq!(state ^ !0u32, crc32(data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0x5Au8; 64];
        let clean = crc32(&data);
        data[17] ^= 0x04;
        assert_ne!(crc32(&data), clean);
    }
}
