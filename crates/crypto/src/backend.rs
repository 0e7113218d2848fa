//! Runtime-selected crypto backends: the software reference vs the
//! host's AES-NI / SHA-NI instructions.
//!
//! The paper's Cryptographic Core and Integrity Core are hardware
//! blocks; this module is the software model's answer to "as fast as
//! the hardware allows". Every primitive keeps its from-scratch
//! software implementation as the always-available reference, and the
//! hot batched paths ([`crate::Aes128::encrypt_blocks`],
//! [`crate::Sha256`]'s block compression, one message at a time or two
//! interleaved) dispatch to `std::arch::x86_64` intrinsics when the
//! host CPU has them. Outputs
//! are **bit-identical** by construction — AES-NI executes the same
//! FIPS-197 rounds over the same round keys, SHA-NI the same FIPS-180-4
//! compression over the same schedule — and the cross-backend
//! equivalence suite (`tests/crypto_backends.rs` plus this crate's unit
//! tests) proves it on randomized inputs.
//!
//! Selection mirrors the `SECBUS_SIM_CORE` pattern from the simulator
//! core: the `SECBUS_CRYPTO_BACKEND` environment variable forces `soft`
//! or `accel`, anything else (including unset) auto-detects. The
//! resolution is pure ([`resolve`]) so tests never mutate process
//! environment; the process-wide choice is read once and cached
//! ([`active`]). Requesting `accel` on a host without the instructions
//! falls back to [`CryptoBackend::Soft`] — detection can never select
//! a backend the CPU cannot execute.

use std::sync::OnceLock;

/// Which implementation family the hot paths dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoBackend {
    /// The from-scratch byte-oriented reference (always available).
    Soft,
    /// Hardware instructions (AES-NI and/or SHA-NI), per-primitive
    /// gated on what the host actually supports.
    Accel,
}

impl CryptoBackend {
    /// Stable lowercase name (used in reports and `secbus backends`).
    pub fn name(self) -> &'static str {
        match self {
            CryptoBackend::Soft => "soft",
            CryptoBackend::Accel => "accel",
        }
    }
}

/// What the host CPU offers. On non-x86_64 targets both are `false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HwCaps {
    /// AES-NI (`aesenc`/`aesenclast`) available.
    pub aesni: bool,
    /// SHA-NI (`sha256rnds2`/`sha256msg1`/`sha256msg2`) available, plus
    /// the SSSE3/SSE4.1 shuffles the state massaging needs.
    pub shani: bool,
}

impl HwCaps {
    /// Any hardware primitive at all?
    pub fn any(self) -> bool {
        self.aesni || self.shani
    }
}

/// Probe the host CPU once. Pure read — no environment involved.
pub fn host_caps() -> HwCaps {
    #[cfg(target_arch = "x86_64")]
    {
        HwCaps {
            aesni: std::arch::is_x86_feature_detected!("aes"),
            shani: std::arch::is_x86_feature_detected!("sha")
                && std::arch::is_x86_feature_detected!("ssse3")
                && std::arch::is_x86_feature_detected!("sse4.1"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        HwCaps::default()
    }
}

/// Resolve a backend request against the host capabilities.
///
/// * `Some("soft")` forces the software reference;
/// * `Some("accel")` (or `"hw"`, `"hard"`) requests hardware but falls
///   back to soft when the CPU has neither AES-NI nor SHA-NI — the
///   resolver never selects a backend the host cannot run;
/// * anything else (including `None` / `"auto"`) auto-detects.
///
/// Pure function of its inputs so the dispatch table is unit-testable
/// without touching process environment.
pub fn resolve(request: Option<&str>, caps: HwCaps) -> CryptoBackend {
    let want_accel = match request {
        Some(v) if v.eq_ignore_ascii_case("soft") => false,
        Some(v)
            if v.eq_ignore_ascii_case("accel")
                || v.eq_ignore_ascii_case("hw")
                || v.eq_ignore_ascii_case("hard") =>
        {
            true
        }
        _ => true, // auto: take the hardware when it exists
    };
    if want_accel && caps.any() {
        CryptoBackend::Accel
    } else {
        CryptoBackend::Soft
    }
}

/// The process-wide backend: `SECBUS_CRYPTO_BACKEND` resolved against
/// [`host_caps`], read once and cached (so the hot paths pay one branch
/// on a loaded bool, not an env lookup per burst).
pub fn active() -> CryptoBackend {
    static ACTIVE: OnceLock<CryptoBackend> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        resolve(
            std::env::var("SECBUS_CRYPTO_BACKEND").ok().as_deref(),
            host_caps(),
        )
    })
}

/// The capabilities a given backend may actually use: [`host_caps`]
/// under [`CryptoBackend::Accel`], nothing under soft.
pub fn effective_caps(backend: CryptoBackend) -> HwCaps {
    match backend {
        CryptoBackend::Soft => HwCaps::default(),
        CryptoBackend::Accel => host_caps(),
    }
}

/// AES-128 block encryption through AES-NI, multi-lane.
///
/// `aesenc` performs exactly one FIPS-197 round (ShiftRows, SubBytes,
/// MixColumns, AddRoundKey), so feeding it the *same* expanded round
/// keys as the software path produces bit-identical ciphertext. Eight
/// independent blocks are kept in flight per round so the `AESENC`
/// pipeline (latency ~4 cycles, throughput 1/cycle on current cores)
/// stays full — that is the whole "multi-lane CTR" trick: CTR keystream
/// blocks are independent, so the lane count is free parallelism.
#[cfg(target_arch = "x86_64")]
pub(crate) mod aesni {
    use std::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_storeu_si128,
        _mm_xor_si128,
    };

    /// Independent blocks in flight per round loop.
    pub(crate) const LANES: usize = 8;

    /// Encrypt every 16-byte block of `buf` in place with AES-NI.
    ///
    /// # Safety
    /// The caller must have verified AES-NI support (`HwCaps::aesni`).
    /// `buf.len()` must be a multiple of 16 (checked by the safe
    /// dispatch wrapper in [`crate::Aes128::encrypt_blocks`]).
    #[target_feature(enable = "aes")]
    pub(crate) unsafe fn encrypt_blocks(round_keys: &[[u8; 16]; 11], buf: &mut [u8]) {
        debug_assert!(buf.len().is_multiple_of(16));
        let rk: [__m128i; 11] =
            core::array::from_fn(|i| _mm_loadu_si128(round_keys[i].as_ptr().cast()));
        let mut lanes = buf.chunks_exact_mut(16 * LANES);
        for chunk in &mut lanes {
            let mut s: [__m128i; LANES] = core::array::from_fn(|l| {
                _mm_xor_si128(_mm_loadu_si128(chunk.as_ptr().add(16 * l).cast()), rk[0])
            });
            // Round-major: all lanes step through round r before any
            // lane sees round r+1, so consecutive `aesenc`s never
            // depend on each other and the pipeline stays full.
            for key in &rk[1..10] {
                for lane in &mut s {
                    *lane = _mm_aesenc_si128(*lane, *key);
                }
            }
            for (l, lane) in s.into_iter().enumerate() {
                let out = _mm_aesenclast_si128(lane, rk[10]);
                _mm_storeu_si128(chunk.as_mut_ptr().add(16 * l).cast(), out);
            }
        }
        // Lane remainder (blocks % LANES != 0): one block at a time,
        // same rounds, same keys — still bit-identical.
        for block in lanes.into_remainder().chunks_exact_mut(16) {
            let mut s = _mm_xor_si128(_mm_loadu_si128(block.as_ptr().cast()), rk[0]);
            for key in &rk[1..10] {
                s = _mm_aesenc_si128(s, *key);
            }
            s = _mm_aesenclast_si128(s, rk[10]);
            _mm_storeu_si128(block.as_mut_ptr().cast(), s);
        }
    }
}

/// SHA-256 compression through the SHA extensions.
///
/// A port of the canonical x86 SHA-NI compression flow: state lives in
/// two lanes as (ABEF, CDGH), each `sha256rnds2` executes two rounds,
/// and the message schedule advances four words at a time with
/// `sha256msg1`/`sha256msg2`. Identical arithmetic to the software
/// [`crate::sha256`] compression, hence identical digests.
///
/// One kernel, [`compress_blocks`], serves one stream and two. A
/// stream's rounds form one dependency chain, each `sha256rnds2`
/// waiting on the one before, so one stream leaves part of every
/// round's latency unused; a second, independent message interleaved
/// quad by quad fills it. The Merkle builder hashes leaves and sibling
/// nodes in such pairs. On the Xeon the benchmark runs on, two streams
/// take about 42 ns per block against 52 ns for one; three or four
/// streams measured no faster than two.
#[cfg(target_arch = "x86_64")]
pub(crate) mod shani {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Compress `N` equal-length runs of 64-byte blocks, `runs[s]` into
    /// `states[s]`: one stream (`N = 1`, every `Sha256` hasher) or two
    /// (`N = 2`, the Merkle builder's pairs). The streams advance
    /// together, quad by quad, so their round chains are independent
    /// work for the out-of-order core; every stream executes exactly
    /// the one-stream instruction sequence on its own registers.
    ///
    /// # Safety
    /// The caller must have verified SHA-NI + SSSE3 + SSE4.1 support
    /// (`HwCaps::shani`). Every run's length must be the same multiple
    /// of 64 (checked by the safe dispatch wrappers in
    /// [`crate::Sha256`]).
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(crate) unsafe fn compress_blocks<const N: usize>(
        states: [&mut [u32; 8]; N],
        runs: [&[u8]; N],
        k: &[u32; 64],
    ) {
        let len = runs[0].len();
        debug_assert!(len.is_multiple_of(64) && runs.iter().all(|r| r.len() == len));
        // Big-endian 32-bit loads: byte-swap each dword lane.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0bu64 as i64, 0x0405_0607_0001_0203);
        let kq: [__m128i; 16] = core::array::from_fn(|q| load(&k[4 * q..4 * q + 4]));
        let mut st: [[__m128i; 2]; N] = core::array::from_fn(|s| load_state(states[s]));

        for at in (0..len).step_by(64) {
            let save = st;
            // First four message quads: loaded and byte-swapped.
            let mut m: [[__m128i; 4]; N] = core::array::from_fn(|s| {
                let block = &runs[s][at..at + 64];
                core::array::from_fn(|q| _mm_shuffle_epi8(load(&block[16 * q..16 * q + 16]), bswap))
            });
            for q in 0..16 {
                for s in 0..N {
                    let m = &mut m[s];
                    if q >= 4 {
                        // W[4q..4q+4] = msg2(msg1(m0, m1) + alignr(m3, m2, 4), m3):
                        // sigma0 over W[i-15], the W[i-7] adds, then
                        // sigma1 over W[i-2] — the FIPS-180-4
                        // recurrence, four words at a time.
                        let w = _mm_sha256msg2_epu32(
                            _mm_add_epi32(
                                _mm_sha256msg1_epu32(m[0], m[1]),
                                _mm_alignr_epi8(m[3], m[2], 4),
                            ),
                            m[3],
                        );
                        *m = [m[1], m[2], m[3], w];
                    }
                    let quad = if q < 4 { m[q] } else { m[3] };
                    let wk = _mm_add_epi32(quad, kq[q]);
                    let [state0, state1] = &mut st[s];
                    *state1 = _mm_sha256rnds2_epu32(*state1, *state0, wk);
                    *state0 = _mm_sha256rnds2_epu32(*state0, *state1, _mm_shuffle_epi32(wk, 0x0E));
                }
            }
            for (s, saved) in st.iter_mut().zip(save) {
                *s = [_mm_add_epi32(s[0], saved[0]), _mm_add_epi32(s[1], saved[1])];
            }
        }
        for (state, s) in states.into_iter().zip(st) {
            store_state(state, s);
        }
    }

    /// Load 16 bytes (four `u32`s or a message quad) unaligned.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn load<T>(from: &[T]) -> __m128i {
        assert_eq!(size_of_val(from), 16);
        // SAFETY: `from` spans exactly 16 readable bytes (asserted) and
        // `loadu` has no alignment requirement. The load is SSE2, which
        // x86_64 always has; the SHA-NI/SSSE3/SSE4.1 instructions around
        // it run only behind the `HwCaps::shani` probe that every entry
        // into this module requires.
        unsafe { _mm_loadu_si128(from.as_ptr().cast()) }
    }

    /// `[a, b, c, d, e, f, g, h]` -> the (ABEF, CDGH) register pair.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn load_state(state: &[u32; 8]) -> [__m128i; 2] {
        let cdab = _mm_shuffle_epi32(load(&state[..4]), 0xB1);
        let ghef = _mm_shuffle_epi32(load(&state[4..]), 0x1B);
        [
            _mm_alignr_epi8(cdab, ghef, 8),
            _mm_blend_epi16(ghef, cdab, 0xF0),
        ]
    }

    /// (ABEF, CDGH) -> `[a..d]`, `[e..h]`.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn store_state(state: &mut [u32; 8], [abef, cdgh]: [__m128i; 2]) {
        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        // SAFETY: `state` is 32 writable bytes and `storeu` has no
        // alignment requirement. The stores are SSE2, which x86_64
        // always has; the SSE4.1 blend runs only behind the
        // `HwCaps::shani` probe that every entry into this module
        // requires.
        unsafe {
            _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xF0));
            _mm_storeu_si128(
                state.as_mut_ptr().add(4).cast(),
                _mm_alignr_epi8(dchg, feba, 8),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The resolver never hands out a backend the host cannot run: with
    /// no hardware capabilities every request — including an explicit
    /// `accel` — resolves to soft.
    #[test]
    fn resolve_never_selects_unsupported_backend() {
        let none = HwCaps::default();
        for req in [
            None,
            Some("accel"),
            Some("hw"),
            Some("hard"),
            Some("auto"),
            Some("soft"),
            Some("ACCEL"),
            Some("garbage"),
        ] {
            assert_eq!(
                resolve(req, none),
                CryptoBackend::Soft,
                "request {req:?} on a capability-less host must resolve soft"
            );
        }
        // And whatever this host supports, the resolved backend's
        // effective capabilities are a subset of the host's.
        let active = resolve(None, host_caps());
        let eff = effective_caps(active);
        assert!(!eff.aesni || host_caps().aesni);
        assert!(!eff.shani || host_caps().shani);
    }

    #[test]
    fn resolve_honors_explicit_requests_when_capable() {
        let caps = HwCaps {
            aesni: true,
            shani: true,
        };
        assert_eq!(resolve(Some("soft"), caps), CryptoBackend::Soft);
        assert_eq!(resolve(Some("SOFT"), caps), CryptoBackend::Soft);
        assert_eq!(resolve(Some("accel"), caps), CryptoBackend::Accel);
        assert_eq!(resolve(None, caps), CryptoBackend::Accel);
        assert_eq!(resolve(Some("auto"), caps), CryptoBackend::Accel);
    }

    #[test]
    fn soft_backend_uses_no_hardware() {
        assert_eq!(effective_caps(CryptoBackend::Soft), HwCaps::default());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(CryptoBackend::Soft.name(), "soft");
        assert_eq!(CryptoBackend::Accel.name(), "accel");
    }

    /// `active()` is consistent with a fresh resolution of the same
    /// inputs (it may have been initialized earlier in the process, but
    /// both reads go through the same pure resolver).
    #[test]
    fn active_matches_pure_resolution() {
        let expect = resolve(
            std::env::var("SECBUS_CRYPTO_BACKEND").ok().as_deref(),
            host_caps(),
        );
        assert_eq!(active(), expect);
        assert_eq!(active(), active());
    }
}
