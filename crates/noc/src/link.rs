//! CRC-32, the link check of the protected mesh.
//!
//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) detects every
//! error burst of 32 bits or fewer, which covers the whole
//! [`secbus_fault::FaultKind::LinkBitFlip`] surface (a 32-bit XOR on one
//! flit). That is why the protected [`Mesh`](crate::network::Mesh)
//! treats every injected flip as caught and retransmitted. The mesh also
//! stamps each packet's address and data with this CRC at injection and
//! compares at delivery, the ground truth behind the S-15 soak's "zero
//! undetected corruptions".

/// The reflected polynomial's remainder for every byte value, built at
/// compile time: one lookup per input byte replaces eight shift steps.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3), one table lookup per byte. Detects all error
/// bursts of length ≤ 32 bits.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[usize::from((crc as u8) ^ b)];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use secbus_sim::SimRng;

    /// The bit-serial definition, kept as the oracle for the table.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn table_crc_matches_the_bit_serial_oracle() {
        let mut rng = SimRng::new(0xC3C3);
        for len in 0..=64 {
            for _ in 0..16 {
                let mut bytes = vec![0u8; len];
                rng.fill_bytes(&mut bytes);
                assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "{bytes:02x?}");
            }
        }
        // The mesh's content stamps: address then data, little-endian.
        for _ in 0..10_000 {
            let (addr, data) = (rng.next_u32(), rng.next_u32());
            let mut stamp = [0u8; 8];
            stamp[..4].copy_from_slice(&addr.to_le_bytes());
            stamp[4..].copy_from_slice(&data.to_le_bytes());
            assert_eq!(crc32(&stamp), crc32_bitwise(&stamp), "{addr:#x} {data:#x}");
        }
    }

    #[test]
    fn any_single_word_burst_is_detected() {
        // CRC-32 detects every burst of ≤32 bits: sweep a pile of XOR
        // patterns including single bits, dense words and boundary cases,
        // into either word of the mesh's 8-byte (address, data) stamp.
        let clean = [0xA5u8; 8];
        let stamp = crc32(&clean);
        let mut patterns: Vec<u32> = (0..32).map(|b| 1u32 << b).collect();
        patterns.extend([0xFFFF_FFFF, 0xDEAD_BEEF, 0x8000_0001, 0x0101_0101]);
        for xor in patterns {
            for word in [0..4, 4..8] {
                let mut hit = clean;
                for (byte, x) in hit[word.clone()].iter_mut().zip(xor.to_le_bytes()) {
                    *byte ^= x;
                }
                assert_ne!(crc32(&hit), stamp, "xor {xor:#010x} into {word:?} escaped");
            }
        }
    }
}
