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

/// CRC-32 (IEEE 802.3), bit-serial, table-free. Detects all error bursts
/// of length ≤ 32 bits.
pub fn crc32(bytes: &[u8]) -> u32 {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
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
