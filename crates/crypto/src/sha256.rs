//! SHA-256 (FIPS-180-4), implemented from scratch.
//!
//! The hash function underneath the Integrity Core's hash tree. Streaming
//! interface ([`Sha256`]) plus a one-shot helper ([`sha256`]).
//!
//! Hashers constructed via [`Sha256::new`] consult [`crate::backend`]
//! and, when the host exposes the SHA extensions, run whole 64-byte
//! blocks through the SHA-NI compression in
//! `backend::shani` — same FIPS-180-4 rounds executed by dedicated
//! instructions, so digests are bit-identical to the software path
//! (the scalar `Sha256::compress` below, which stays the
//! always-available reference).

use crate::backend::{self, CryptoBackend};

/// Initial hash values (first 32 bits of the fractional parts of the square
/// roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants (cube roots of the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// A 32-byte digest.
pub type Digest = [u8; 32];

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    total_bytes: u64,
    use_shani: bool,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher on the process-wide active backend (see
    /// [`crate::backend::active`]).
    pub fn new() -> Self {
        Self::with_backend(backend::active())
    }

    /// A fresh hasher on an explicit backend. Requesting
    /// [`CryptoBackend::Accel`] on a host without the SHA extensions
    /// degrades to the software compression — never to wrong output.
    pub fn with_backend(backend: CryptoBackend) -> Self {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffered: 0,
            total_bytes: 0,
            use_shani: backend::effective_caps(backend).shani,
        }
    }

    /// The backend this hasher actually compresses with.
    pub fn backend(&self) -> CryptoBackend {
        if self.use_shani {
            CryptoBackend::Accel
        } else {
            CryptoBackend::Soft
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_bytes += data.len() as u64;
        let mut rest = data;
        if self.buffered > 0 {
            let take = rest.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress_run(&block);
                self.buffered = 0;
            }
        }
        let whole = rest.len() / 64 * 64;
        if whole > 0 {
            // One dispatch for the entire run of full blocks: the SHA-NI
            // path keeps the working state in registers across blocks.
            let (blocks, tail) = rest.split_at(whole);
            self.compress_run(blocks);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// Compress a run of whole 64-byte blocks on the selected backend.
    fn compress_run(&mut self, blocks: &[u8]) {
        debug_assert!(blocks.len().is_multiple_of(64));
        #[cfg(target_arch = "x86_64")]
        if self.use_shani {
            // SAFETY: `use_shani` is only ever set from
            // `backend::effective_caps`, which requires the runtime
            // probe for sha/ssse3/sse4.1 to have passed.
            unsafe { backend::shani::compress_blocks(&mut self.state, blocks, &K) };
            return;
        }
        for block in blocks.chunks_exact(64) {
            self.compress(block.try_into().unwrap());
        }
    }

    /// Finish and produce the digest.
    pub fn finalize(self) -> Digest {
        let n = self.buffered;
        let mut tail = [0u8; 128];
        tail[..n].copy_from_slice(&self.buffer[..n]);
        let bit_len = self.total_bytes * 8;
        self.finish(tail, n, bit_len)
    }

    /// Pad the message's last `n` bytes, which sit at the front of an
    /// otherwise zero `tail`, and produce the digest of a message of
    /// `bit_len` bits in total. The padding is written in place: `0x80`,
    /// the zero fill, then the 64-bit big-endian length. Up to 55 tail
    /// bytes leave room for it in one block; from 56 on it spills into a
    /// second. Either way one [`compress_run`](Self::compress_run)
    /// dispatch compresses everything.
    pub(crate) fn finish(mut self, mut tail: [u8; 128], n: usize, bit_len: u64) -> Digest {
        debug_assert!(n < 120 && tail[n..].iter().all(|&b| b == 0));
        tail[n] = 0x80;
        let len = if n < 56 { 64 } else { 128 };
        tail[len - 8..len].copy_from_slice(&bit_len.to_be_bytes());
        self.compress_run(&tail[..len]);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// One-shot SHA-256 on the process-wide active backend.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 on an explicit backend (test and benchmark seam).
pub fn sha256_with(data: &[u8], backend: CryptoBackend) -> Digest {
    let mut h = Sha256::with_backend(backend);
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &Digest) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_string_vector() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        // FIPS-180-4 "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 55/56/64-byte padding edges must all differ
        // and be stable.
        let digests: Vec<Digest> = (50..70).map(|n| sha256(&vec![0xabu8; n])).collect();
        for (i, a) in digests.iter().enumerate() {
            for b in digests.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    /// Cross-backend: the SHA-NI compression (when the host has it)
    /// produces the same digest as the scalar reference for the FIPS
    /// vectors and for lengths straddling the 64-byte block boundary.
    /// Hosts without the extensions degrade Accel to Soft, so the
    /// comparison stays valid (if vacuous) everywhere.
    #[test]
    fn accel_matches_soft_across_block_boundaries() {
        let known = [
            (
                &b""[..],
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                &b"abc"[..],
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                &b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"[..],
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for (input, expect) in known {
            assert_eq!(hex(&sha256_with(input, CryptoBackend::Accel)), expect);
            assert_eq!(hex(&sha256_with(input, CryptoBackend::Soft)), expect);
        }
        // Every length around the block boundary, 0..=200 bytes: covers
        // 63/64/65, 127/128/129 and all the padding edges in between.
        let data: Vec<u8> = (0..=255u8).cycle().take(201).collect();
        for len in 0..=200 {
            assert_eq!(
                sha256_with(&data[..len], CryptoBackend::Soft),
                sha256_with(&data[..len], CryptoBackend::Accel),
                "len {len}"
            );
        }
        // Streaming straddles: feed a 3-block message in two pieces cut
        // at/around block boundaries so the accel path sees buffered
        // bytes, partial blocks and multi-block runs in one life.
        let msg: Vec<u8> = (0..192u8).collect();
        for cut in [0usize, 1, 63, 64, 65, 127, 128, 129, 191, 192] {
            let mut h = Sha256::with_backend(CryptoBackend::Accel);
            h.update(&msg[..cut]);
            h.update(&msg[cut..]);
            assert_eq!(
                h.finalize(),
                sha256_with(&msg, CryptoBackend::Soft),
                "cut {cut}"
            );
        }
    }

    /// Randomized: hashing is deterministic and streaming in two arbitrary
    /// pieces matches the one-shot digest, across random lengths and cuts.
    #[test]
    fn deterministic_and_streaming_equivalence() {
        let mut state = 0x5eed_5eed_5eed_5eedu64;
        for _ in 0..200 {
            let len = (crate::test_rng::splitmix64(&mut state) % 2048) as usize;
            let mut data = vec![0u8; len];
            crate::test_rng::fill(&mut state, &mut data);
            assert_eq!(sha256(&data), sha256(&data));
            let cut = if len == 0 {
                0
            } else {
                (crate::test_rng::splitmix64(&mut state) % (len as u64 + 1)) as usize
            };
            let mut h = Sha256::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            assert_eq!(h.finalize(), sha256(&data));
        }
    }
}
