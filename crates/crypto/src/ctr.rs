//! Address- and timestamp-bound counter-mode ciphering.
//!
//! The Confidentiality Core encrypts external-memory blocks with AES-128 in
//! a counter-like mode whose keystream input is `(block address, time-stamp
//! tag)`:
//!
//! * binding the **address** into the keystream defeats *relocation*
//!   attacks — ciphertext copied to a different address decrypts to junk
//!   ("memory addresses are controlled to protect the system against
//!   relocation attacks");
//! * binding the **time-stamp** defeats *replay* — an old ciphertext
//!   re-written to its own address decrypts under the wrong tag.
//!
//! Spoofing (random ciphertext) and the two attacks above still need the
//! Integrity Core to be *detected*; ciphering alone only guarantees the
//! attacker cannot choose the resulting plaintext.

use crate::aes::Aes128;
use crate::backend::CryptoBackend;

/// AES block size in bytes.
pub const BLOCK_BYTES: usize = 16;

/// Keystream blocks generated per batched AES pass. A stack buffer of
/// this many blocks keeps the burst path allocation-free while still
/// amortising the round-key loads across a whole batch.
const KEYSTREAM_BATCH: usize = 16;

/// The Confidentiality Core's cipher: AES-128 in address/timestamp-tweaked
/// counter mode.
#[derive(Debug, Clone)]
pub struct MemoryCipher {
    aes: Aes128,
}

impl MemoryCipher {
    /// Create a cipher from the policy's 128-bit Cryptographic Key (CK),
    /// on the process-wide active backend.
    pub fn new(key: &[u8; 16]) -> Self {
        MemoryCipher {
            aes: Aes128::new(key),
        }
    }

    /// Create a cipher on an explicit backend (test and benchmark seam —
    /// keystreams are bit-identical either way).
    pub fn with_backend(key: &[u8; 16], backend: CryptoBackend) -> Self {
        MemoryCipher {
            aes: Aes128::with_backend(key, backend),
        }
    }

    /// The backend the underlying AES actually runs batches on.
    pub fn backend(&self) -> CryptoBackend {
        self.aes.backend()
    }

    /// Keystream block for (16-byte-aligned) block index `block` under
    /// time-stamp `timestamp`.
    ///
    /// On the accelerated backend the one block goes through the batch
    /// seam ([`Aes128::encrypt_blocks`], one AES-NI lane); the software
    /// backend keeps the single-block reference
    /// [`Aes128::encrypt_block`], which the per-block baselines of the
    /// host benchmarks time.
    #[inline]
    fn keystream(&self, block: u64, timestamp: u64) -> [u8; BLOCK_BYTES] {
        let mut input = [0u8; BLOCK_BYTES];
        input[..8].copy_from_slice(&block.to_be_bytes());
        input[8..].copy_from_slice(&timestamp.to_be_bytes());
        match self.aes.backend() {
            CryptoBackend::Accel => self.aes.encrypt_blocks(&mut input),
            CryptoBackend::Soft => self.aes.encrypt_block(&mut input),
        }
        input
    }

    /// Encrypt or decrypt (XOR is symmetric) `buf` in place.
    ///
    /// `addr` is the byte address of `buf[0]` in the external memory;
    /// `timestamp` is the tag the data is sealed under. Each 16-byte chunk
    /// uses its own block index, so bulk regions stream chunk-independent.
    ///
    /// # Panics
    /// Panics unless `addr` and `buf.len()` are multiples of 16 — the LCF
    /// always ciphers whole protection blocks.
    pub fn apply(&self, addr: u64, timestamp: u64, buf: &mut [u8]) {
        assert!(
            addr.is_multiple_of(BLOCK_BYTES as u64),
            "cipher address must be 16-byte aligned"
        );
        assert!(
            buf.len().is_multiple_of(BLOCK_BYTES),
            "cipher length must be a multiple of 16"
        );
        if buf.len() == BLOCK_BYTES {
            // Single-block path (every LCF access): no batching setup.
            let ks = self.keystream(addr / BLOCK_BYTES as u64, timestamp);
            for (b, k) in buf.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            return;
        }
        self.xor_keystream(addr, timestamp, buf);
    }

    /// XOR the keystream starting at `addr` into `buf`, tolerating a
    /// partial final block: the last keystream block is generated whole
    /// and truncated to the tail, exactly as a hardware CTR datapath
    /// discards unused keystream bytes. `addr` must still be 16-byte
    /// aligned (it fixes the counter origin); `buf` may be any length,
    /// including empty.
    ///
    /// [`apply`](Self::apply) — the LCF's whole-protection-block
    /// contract — is this routine plus the length assertion, so for
    /// multiple-of-16 lengths the two are byte-identical.
    pub fn xor_keystream(&self, addr: u64, timestamp: u64, buf: &mut [u8]) {
        assert!(
            addr.is_multiple_of(BLOCK_BYTES as u64),
            "cipher address must be 16-byte aligned"
        );
        // Burst path: fill a batch of counter inputs and cipher them in
        // one [`Aes128::encrypt_blocks`] pass (key-schedule reuse,
        // multi-lane AES-NI when available), then XOR. The counter is a
        // full 64-bit block index — carries across any 32-bit word
        // boundary are native `u64` arithmetic, and the batched AES is
        // plain ECB over these serialized counters, so per-block and
        // batched paths cannot diverge at a wrap. Stack buffer — the
        // hot path never allocates.
        let mut ks = [0u8; KEYSTREAM_BATCH * BLOCK_BYTES];
        let mut block = addr / BLOCK_BYTES as u64;
        for batch in buf.chunks_mut(KEYSTREAM_BATCH * BLOCK_BYTES) {
            let ks = &mut ks[..batch.len().div_ceil(BLOCK_BYTES) * BLOCK_BYTES];
            for input in ks.chunks_exact_mut(BLOCK_BYTES) {
                input[..8].copy_from_slice(&block.to_be_bytes());
                input[8..].copy_from_slice(&timestamp.to_be_bytes());
                block += 1;
            }
            self.aes.encrypt_blocks(ks);
            for (b, k) in batch.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }

    /// Convenience: encrypt a copy of a single 16-byte block.
    pub fn seal_block(
        &self,
        addr: u64,
        timestamp: u64,
        plain: &[u8; BLOCK_BYTES],
    ) -> [u8; BLOCK_BYTES] {
        let mut out = *plain;
        self.apply(addr, timestamp, &mut out);
        out
    }

    /// Convenience: decrypt a copy of a single 16-byte block.
    pub fn open_block(
        &self,
        addr: u64,
        timestamp: u64,
        cipher: &[u8; BLOCK_BYTES],
    ) -> [u8; BLOCK_BYTES] {
        // XOR keystream is its own inverse.
        self.seal_block(addr, timestamp, cipher)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: [u8; 16] = [0x42; 16];

    #[test]
    fn roundtrip() {
        let c = MemoryCipher::new(&KEY);
        let plain = *b"external memory!";
        let sealed = c.seal_block(0x1000, 3, &plain);
        assert_ne!(sealed, plain);
        assert_eq!(c.open_block(0x1000, 3, &sealed), plain);
    }

    #[test]
    fn relocation_changes_plaintext() {
        // Same ciphertext moved to a different address decrypts to junk.
        let c = MemoryCipher::new(&KEY);
        let plain = *b"sensitive config";
        let sealed = c.seal_block(0x1000, 1, &plain);
        let relocated = c.open_block(0x2000, 1, &sealed);
        assert_ne!(relocated, plain);
    }

    #[test]
    fn replay_changes_plaintext() {
        // Old ciphertext under a newer timestamp decrypts to junk.
        let c = MemoryCipher::new(&KEY);
        let plain = *b"counter v1 data!";
        let sealed_v1 = c.seal_block(0x1000, 1, &plain);
        let replayed = c.open_block(0x1000, 2, &sealed_v1);
        assert_ne!(replayed, plain);
    }

    #[test]
    fn multi_block_regions_use_distinct_keystreams() {
        let c = MemoryCipher::new(&KEY);
        let mut buf = [0u8; 64]; // identical plaintext blocks
        c.apply(0x4000, 0, &mut buf);
        let blocks: Vec<&[u8]> = buf.chunks_exact(16).collect();
        for i in 0..blocks.len() {
            for j in i + 1..blocks.len() {
                assert_ne!(blocks[i], blocks[j], "blocks {i} and {j} share keystream");
            }
        }
    }

    #[test]
    fn bulk_apply_matches_per_block() {
        let c = MemoryCipher::new(&KEY);
        let mut bulk = [0xa5u8; 48];
        c.apply(0x9000, 7, &mut bulk);
        for i in 0..3 {
            let sealed = c.seal_block(0x9000 + 16 * i as u64, 7, &[0xa5; 16]);
            assert_eq!(&bulk[16 * i..16 * (i + 1)], &sealed);
        }
    }

    #[test]
    fn different_keys_differ() {
        let a = MemoryCipher::new(&[1; 16]);
        let b = MemoryCipher::new(&[2; 16]);
        assert_ne!(a.seal_block(0, 0, &[0; 16]), b.seal_block(0, 0, &[0; 16]));
    }

    /// The batched burst path matches the per-block reference across
    /// batch boundaries (lengths below, at and above [`KEYSTREAM_BATCH`]).
    #[test]
    fn batched_bursts_match_per_block_across_batch_boundaries() {
        let c = MemoryCipher::new(&KEY);
        for blocks in [1usize, 2, 15, 16, 17, 33, 40] {
            let mut bulk = vec![0x5au8; BLOCK_BYTES * blocks];
            c.apply(0x2_0000, 11, &mut bulk);
            for i in 0..blocks {
                let sealed = c.seal_block(0x2_0000 + (BLOCK_BYTES * i) as u64, 11, &[0x5a; 16]);
                assert_eq!(
                    &bulk[BLOCK_BYTES * i..BLOCK_BYTES * (i + 1)],
                    &sealed,
                    "block {i} of {blocks}"
                );
            }
        }
    }

    /// Regression (issue 10 satellite): a burst whose block counter
    /// crosses a 32-bit low-word wrap — base block `u32::MAX - 2`, 8
    /// blocks — must match the per-block reference on every block. A
    /// batched path that incremented only the counter's low 32-bit word
    /// (the classic SIMD CTR bug) would diverge from block 3 onward.
    #[test]
    fn burst_across_counter_low_word_wrap_matches_per_block() {
        let addr = (u64::from(u32::MAX) - 2) * BLOCK_BYTES as u64;
        for backend in [CryptoBackend::Soft, CryptoBackend::Accel] {
            let c = MemoryCipher::with_backend(&KEY, backend);
            let mut bulk = [0x3cu8; BLOCK_BYTES * 8];
            c.apply(addr, 9, &mut bulk);
            for i in 0..8 {
                let sealed = c.seal_block(addr + (BLOCK_BYTES * i) as u64, 9, &[0x3c; 16]);
                assert_eq!(
                    &bulk[BLOCK_BYTES * i..BLOCK_BYTES * (i + 1)],
                    &sealed,
                    "{} backend, block {i} across the u32 wrap",
                    c.backend().name()
                );
            }
        }
    }

    /// Cross-backend: bursts cipher byte-identically whichever backend
    /// the cipher was built on, for lengths below/at/above both the
    /// keystream batch and the AES-NI lane width.
    #[test]
    fn backends_produce_identical_bursts() {
        let soft = MemoryCipher::with_backend(&KEY, CryptoBackend::Soft);
        let accel = MemoryCipher::with_backend(&KEY, CryptoBackend::Accel);
        for blocks in [1usize, 2, 7, 8, 9, 15, 16, 17, 40] {
            let mut a = vec![0xc7u8; BLOCK_BYTES * blocks];
            let mut b = a.clone();
            soft.apply(0x6000, 5, &mut a);
            accel.apply(0x6000, 5, &mut b);
            assert_eq!(a, b, "{blocks} blocks");
        }
    }

    /// The tail-tolerant keystream API equals `apply` on the shared
    /// whole-block prefix and truncates the final keystream block.
    #[test]
    fn xor_keystream_tail_is_truncated_whole_block_keystream() {
        let c = MemoryCipher::new(&KEY);
        for len in [0usize, 1, 15, 17, 31, 33, 100, 255] {
            let rounded = len.div_ceil(BLOCK_BYTES) * BLOCK_BYTES;
            let mut whole = vec![0u8; rounded];
            if rounded > 0 {
                c.apply(0x8000, 3, &mut whole);
            }
            let mut tail = vec![0u8; len];
            c.xor_keystream(0x8000, 3, &mut tail);
            assert_eq!(tail, whole[..len], "len {len}");
            // And it is involutive at every length.
            c.xor_keystream(0x8000, 3, &mut tail);
            assert!(tail.iter().all(|&b| b == 0), "len {len} roundtrip");
        }
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn unaligned_address_panics() {
        MemoryCipher::new(&KEY).apply(0x1001, 0, &mut [0; 16]);
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn partial_block_panics() {
        MemoryCipher::new(&KEY).apply(0x1000, 0, &mut [0; 15]);
    }

    /// Randomized: applying the keystream twice restores the plaintext for
    /// arbitrary keys, block addresses, timestamps and lengths.
    #[test]
    fn apply_is_involutive() {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || crate::test_rng::splitmix64(&mut state);
        for _ in 0..256 {
            let mut key = [0u8; 16];
            for b in key.iter_mut() {
                *b = next() as u8;
            }
            let c = MemoryCipher::new(&key);
            let addr = (next() % 1_000_000) * 16;
            let ts = next();
            let blocks = 1 + (next() % 7) as usize;
            let mut buf: Vec<u8> = (0..blocks).flat_map(|_| [next() as u8; 16]).collect();
            let original = buf.clone();
            c.apply(addr, ts, &mut buf);
            assert_ne!(buf, original, "keystream must change the data");
            c.apply(addr, ts, &mut buf);
            assert_eq!(buf, original);
        }
    }
}
