//! # secbus-crypto — the cryptographic cores of the Local Ciphering Firewall
//!
//! The paper's Local Ciphering Firewall (LCF) contains two hardware cores:
//!
//! * a **Confidentiality Core** "based on a AES (Advanced Encryption
//!   Standard) algorithm with 128-bits key" — here [`aes`] (from-scratch
//!   FIPS-197 AES-128) driven in counter mode by [`ctr::MemoryCipher`],
//!   whose keystream is bound to the physical block address (relocation
//!   protection) and a per-block timestamp (replay protection), matching
//!   the paper's "time stamp tags … memory addresses are controlled";
//! * an **Integrity Core** "based on hash-trees" — here [`mod@sha256`]
//!   (from-scratch FIPS-180-4) feeding a [`merkle::MerkleTree`] whose root
//!   lives on-chip, so any external tampering (spoofing, replay,
//!   relocation) fails path verification.
//!
//! Everything is implemented from first principles — no external crypto
//! crates — and validated against the official test vectors in the unit
//! tests. These are functional models: the *timing* of the cores (11-cycle
//! AES latency, 20-cycle integrity latency, Table II) is modelled by
//! `secbus-core`'s pipeline wrappers, not here.
//!
//! ## Backends
//!
//! The hot paths (batched AES and SHA-256 compression, which every
//! Merkle build and path walk runs on) dispatch through [`backend`]: a
//! runtime probe selects AES-NI/SHA-NI intrinsics when the host has
//! them, with the from-scratch software implementations as the
//! always-available fallback (and the reference the accelerated paths
//! are tested bit-identical against). Set `SECBUS_CRYPTO_BACKEND=soft`
//! (or `accel`) to override the probe, the same pattern as
//! `SECBUS_SIM_CORE`.
//!
//! Bulk work is batched so the hardware stays busy. A tree build
//! hashes two leaves, or two sibling nodes, per compression call, and
//! SHA-NI interleaves the two streams ([`sha256_pair_with`] is the
//! public seam). A run of blocks with different time-stamps is ciphered
//! in one keystream pass ([`MemoryCipher::apply_tagged`]), eight AES-NI
//! lanes at a time. The crate starts no threads: a tree builds on the
//! caller's thread, leaf level first and then level by level.

pub mod aes;
pub mod backend;
pub mod ctr;
pub mod journal;
pub mod kdf;
pub mod merkle;
pub mod sha256;
pub mod timestamp;

pub use aes::Aes128;
pub use backend::{active as active_backend, host_caps, CryptoBackend, HwCaps};
pub use ctr::MemoryCipher;
pub use journal::{
    IntentRecord, JournalReplay, MonotonicCounter, RegionImage, SecureStateImage, WriteAheadJournal,
};
pub use kdf::{derive_key_set, derive_region_key};
pub use merkle::{CachedVerify, MerkleTree, NodeCache};
pub use sha256::{sha256, sha256_pair_with, sha256_with, Sha256};
pub use timestamp::TimestampTable;

/// Deterministic randomness for this crate's randomized tests (the crate
/// itself is dependency-free, including in test configuration).
#[cfg(test)]
pub(crate) mod test_rng {
    /// SplitMix64 step — statistically strong enough for test fuzzing and
    /// identical on every platform.
    pub fn splitmix64(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fill a buffer with pseudo-random bytes.
    pub fn fill(state: &mut u64, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = splitmix64(state).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}
