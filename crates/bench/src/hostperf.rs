//! S-22: host-side crypto throughput across backends — the measurement
//! logic behind `perf_soak`'s `host` section.
//!
//! The paper's Cryptographic Core and Integrity Core are hardware
//! blocks; this module prices how close the software model's hot paths
//! get to "as fast as the hardware allows" on the *host*:
//!
//! * **CTR ciphering** — the per-16-byte software reference loop vs the
//!   batched keystream on the soft backend vs the batched keystream on
//!   the accel (AES-NI multi-lane) backend, in GB/s;
//! * **SHA-256** — bulk hashing on the soft vs accel (SHA-NI) backend;
//! * **Merkle** — one tree build, the serial builder on the active
//!   backend, in nanoseconds: over precomputed leaf digests, and as a
//!   whole region build that also hashes the leaves from 16-byte blocks,
//!   the way a recovery's `region_tree` does.
//!
//! Every optimized path is also checked byte-identical against its
//! reference inside the measurement ([`HostPerf::outputs_match`]), so a
//! fast-but-wrong backend can never post a number.
//!
//! Timing discipline follows [`crate::perf::compare_cc`] and shares its
//! clock: process CPU time where available (immune to preemption), wall
//! clock as the fallback, all paths timed back-to-back in paired rounds.
//! The cipher and hash windows are reported from the median round (by
//! the headline accel-vs-per-block ratio), so slow frequency drift
//! cancels out of every ratio; each Merkle build, which no ratio reads,
//! is the median of the rounds' own build times. Each cipher and hash
//! path gets its own rep count so that even the multi-GB/s windows stay
//! long enough for the 100 Hz CPU clock; each kind of Merkle build
//! repeats for 100 ticks of the wall clock.

use std::time::{Duration, Instant};

use secbus_crypto::merkle::{leaf_digest, leaf_digests};
use secbus_crypto::{host_caps, sha256_with, CryptoBackend, MemoryCipher, MerkleTree};

use crate::perf::{timed, CPU_TICK_NS};

/// Wall-clock length of each timed Merkle window: 100 ticks of the CPU
/// clock, so one tick is at most 1% of the reading.
const MERKLE_WINDOW: Duration = Duration::from_nanos(100 * CPU_TICK_NS);

/// Shape of the host-throughput workload.
#[derive(Debug, Clone, Copy)]
pub struct HostWorkload {
    /// Bytes per cipher/hash burst (the working buffer size).
    pub burst_bytes: usize,
    /// Total bytes through the per-block soft CTR reference.
    pub ctr_per_block_bytes: usize,
    /// Total bytes through the batched soft CTR path.
    pub ctr_soft_bytes: usize,
    /// Total bytes through the batched accel CTR path.
    pub ctr_accel_bytes: usize,
    /// Total bytes through soft SHA-256.
    pub sha_soft_bytes: usize,
    /// Total bytes through accel SHA-256.
    pub sha_accel_bytes: usize,
    /// Leaves in the timed Merkle build.
    pub merkle_leaves: usize,
    /// Paired timing rounds (medians are reported).
    pub rounds: usize,
}

impl HostWorkload {
    /// Baseline-recording sizes: every window comfortably past the CPU
    /// clock granularity even at multi-GB/s.
    pub fn full() -> Self {
        HostWorkload {
            burst_bytes: 64 * 1024,
            ctr_per_block_bytes: 48 << 20,
            ctr_soft_bytes: 96 << 20,
            ctr_accel_bytes: 768 << 20,
            sha_soft_bytes: 96 << 20,
            sha_accel_bytes: 512 << 20,
            merkle_leaves: 1 << 15,
            rounds: 5,
        }
    }

    /// CI sizes. The windows shrink but stay tens of milliseconds —
    /// ratios (which is all the gates compare) survive; absolute GB/s
    /// get noisier, which the trajectory consumers know.
    pub fn smoke() -> Self {
        HostWorkload {
            burst_bytes: 64 * 1024,
            ctr_per_block_bytes: 16 << 20,
            ctr_soft_bytes: 32 << 20,
            ctr_accel_bytes: 256 << 20,
            sha_soft_bytes: 32 << 20,
            sha_accel_bytes: 192 << 20,
            merkle_leaves: 1 << 14,
            rounds: 3,
        }
    }
}

/// One timed path: total bytes moved in total nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Throughput {
    /// Payload bytes processed.
    pub bytes: u64,
    /// Host (CPU-time preferred) nanoseconds.
    pub ns: u64,
}

impl Throughput {
    /// Gigabytes (1e9) per second.
    pub fn gbps(&self) -> f64 {
        self.bytes as f64 / self.ns.max(1) as f64
    }
}

/// The measured host-throughput comparison.
#[derive(Debug, Clone, Copy)]
pub struct HostPerf {
    /// Host has AES-NI.
    pub aesni: bool,
    /// Host has the SHA extensions.
    pub shani: bool,
    /// Per-16-byte-block CTR on the software backend (the reference
    /// the ≥10x acceptance gate is measured against).
    pub ctr_per_block_soft: Throughput,
    /// Batched CTR on the software backend.
    pub ctr_batched_soft: Throughput,
    /// Batched CTR on the accel backend (AES-NI multi-lane; identical
    /// to soft when the host lacks it).
    pub ctr_batched_accel: Throughput,
    /// Bulk SHA-256 on the software backend.
    pub sha_soft: Throughput,
    /// Bulk SHA-256 on the accel backend.
    pub sha_accel: Throughput,
    /// Leaves in the timed Merkle build.
    pub merkle_leaves: usize,
    /// One tree build ([`MerkleTree::build`]), nanoseconds: the median
    /// over the rounds.
    pub merkle_build_ns: u64,
    /// One whole region build ([`MerkleTree::from_fn`] over
    /// [`leaf_digests`] of 16-byte blocks), nanoseconds: the median over
    /// the rounds.
    pub merkle_region_build_ns: u64,
    /// Every optimized path matched its reference byte-for-byte:
    /// soft/accel ciphertext and soft/accel digests.
    pub outputs_match: bool,
}

impl HostPerf {
    /// The headline ratio: batched accel CTR over the per-block soft
    /// reference — the "≥10x on AES-NI hosts" acceptance number.
    pub fn ctr_accel_vs_per_block(&self) -> f64 {
        self.ctr_batched_accel.gbps() / self.ctr_per_block_soft.gbps().max(f64::MIN_POSITIVE)
    }

    /// Batched soft CTR over the per-block soft reference (what
    /// batching alone buys, no hardware involved).
    pub fn ctr_batched_vs_per_block(&self) -> f64 {
        self.ctr_batched_soft.gbps() / self.ctr_per_block_soft.gbps().max(f64::MIN_POSITIVE)
    }

    /// Accel SHA-256 over soft SHA-256.
    pub fn sha_speedup(&self) -> f64 {
        self.sha_accel.gbps() / self.sha_soft.gbps().max(f64::MIN_POSITIVE)
    }
}

/// One paired timing round: every path timed back-to-back, host
/// nanoseconds per window (`build_ns` and `region_build_ns` are per
/// build).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Round {
    per_block_ns: u64,
    soft_ns: u64,
    accel_ns: u64,
    sha_soft_ns: u64,
    sha_accel_ns: u64,
    build_ns: u64,
    region_build_ns: u64,
}

/// The round to report from non-empty `rounds`: the cipher and hash
/// windows of the round that is median by the headline ratio, and the
/// median of every round's own time for each kind of Merkle build.
fn select_round(mut rounds: Vec<Round>) -> Round {
    let median = |build: fn(&Round) -> u64| {
        let mut builds: Vec<u64> = rounds.iter().map(build).collect();
        builds.sort_unstable();
        builds[builds.len() / 2]
    };
    let (build_ns, region_build_ns) = (median(|r| r.build_ns), median(|r| r.region_build_ns));
    // Median by (per-block ns/byte) / (accel ns/byte): every round moves
    // the same bytes, so the windows cross-multiply in integers.
    // Tie-break by accel window length for determinism.
    rounds.sort_by(|a, b| {
        (u128::from(a.per_block_ns) * u128::from(b.accel_ns))
            .cmp(&(u128::from(b.per_block_ns) * u128::from(a.accel_ns)))
            .then(a.accel_ns.cmp(&b.accel_ns))
    });
    Round {
        build_ns,
        region_build_ns,
        ..rounds[rounds.len() / 2]
    }
}

/// Host nanoseconds per `build`, from a window that repeats it until the
/// window spans [`MERKLE_WINDOW`] on the wall clock: one build is far
/// shorter than a CPU-clock tick.
fn per_build_ns(build: &mut dyn FnMut()) -> u64 {
    let mut builds = 0u64;
    let window_ns = timed(&mut || {
        let start = Instant::now();
        while start.elapsed() < MERKLE_WINDOW {
            build();
            builds += 1;
        }
    });
    window_ns / builds
}

/// Measure the host-throughput comparison.
pub fn measure_host(w: &HostWorkload) -> HostPerf {
    let caps = host_caps();
    let key = b"s22-host-perfkey";
    let soft = MemoryCipher::with_backend(key, CryptoBackend::Soft);
    let accel = MemoryCipher::with_backend(key, CryptoBackend::Accel);
    let addr = 0x4000_0000u64;

    // Correctness witnesses first — a fast-but-wrong path must never
    // post a number.
    let mut outputs_match = true;
    {
        let mut a = vec![0x5au8; w.burst_bytes];
        let mut b = a.clone();
        soft.apply(addr, 7, &mut a);
        accel.apply(addr, 7, &mut b);
        let mut per_block = vec![0x5au8; w.burst_bytes];
        for (i, chunk) in per_block.chunks_mut(16).enumerate() {
            soft.apply(addr + 16 * i as u64, 7, chunk);
        }
        outputs_match &= a == b && a == per_block;
        let data = vec![0xc3u8; w.burst_bytes + 13]; // straddle a block edge
        outputs_match &=
            sha256_with(&data, CryptoBackend::Soft) == sha256_with(&data, CryptoBackend::Accel);
    }

    let leaves: Vec<_> = (0..w.merkle_leaves)
        .map(|i| leaf_digest(i as u64, 0, &(i as u64).to_le_bytes()))
        .collect();
    // A region's worth of 16-byte blocks with their time stamps.
    let blocks: Vec<u8> = (0..w.merkle_leaves * 16).map(|i| i as u8).collect();
    let tags: Vec<u64> = (0..w.merkle_leaves as u64).collect();

    let reps = |total: usize| (total / w.burst_bytes).max(1) as u32;
    let mut buf = vec![0xa5u8; w.burst_bytes];

    let rounds: Vec<Round> = (0..w.rounds.max(1))
        .map(|_| {
            let per_block_ns = timed(&mut || {
                for _ in 0..reps(w.ctr_per_block_bytes) {
                    for (i, chunk) in buf.chunks_mut(16).enumerate() {
                        soft.apply(addr + 16 * i as u64, 3, chunk);
                    }
                }
            });
            let soft_ns = timed(&mut || {
                for _ in 0..reps(w.ctr_soft_bytes) {
                    soft.apply(addr, 3, &mut buf);
                }
            });
            let accel_ns = timed(&mut || {
                for _ in 0..reps(w.ctr_accel_bytes) {
                    accel.apply(addr, 3, &mut buf);
                }
            });
            let sha_soft_ns = timed(&mut || {
                for _ in 0..reps(w.sha_soft_bytes) {
                    std::hint::black_box(sha256_with(&buf, CryptoBackend::Soft));
                }
            });
            let sha_accel_ns = timed(&mut || {
                for _ in 0..reps(w.sha_accel_bytes) {
                    std::hint::black_box(sha256_with(&buf, CryptoBackend::Accel));
                }
            });
            let build_ns = per_build_ns(&mut || {
                std::hint::black_box(MerkleTree::build(std::hint::black_box(&leaves)));
            });
            let region_build_ns = per_build_ns(&mut || {
                let (blocks, tags) = std::hint::black_box((&blocks, &tags));
                std::hint::black_box(MerkleTree::from_fn(tags.len(), |level| {
                    leaf_digests(blocks, tags, level)
                }));
            });
            Round {
                per_block_ns,
                soft_ns,
                accel_ns,
                sha_soft_ns,
                sha_accel_ns,
                build_ns,
                region_build_ns,
            }
        })
        .collect();
    let r = select_round(rounds);

    HostPerf {
        aesni: caps.aesni,
        shani: caps.shani,
        ctr_per_block_soft: Throughput {
            bytes: u64::from(reps(w.ctr_per_block_bytes)) * w.burst_bytes as u64,
            ns: r.per_block_ns,
        },
        ctr_batched_soft: Throughput {
            bytes: u64::from(reps(w.ctr_soft_bytes)) * w.burst_bytes as u64,
            ns: r.soft_ns,
        },
        ctr_batched_accel: Throughput {
            bytes: u64::from(reps(w.ctr_accel_bytes)) * w.burst_bytes as u64,
            ns: r.accel_ns,
        },
        sha_soft: Throughput {
            bytes: u64::from(reps(w.sha_soft_bytes)) * w.burst_bytes as u64,
            ns: r.sha_soft_ns,
        },
        sha_accel: Throughput {
            bytes: u64::from(reps(w.sha_accel_bytes)) * w.burst_bytes as u64,
            ns: r.sha_accel_ns,
        },
        merkle_leaves: w.merkle_leaves,
        merkle_build_ns: r.build_ns,
        merkle_region_build_ns: r.region_build_ns,
        outputs_match,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny workload end-to-end: outputs match, every window is
    /// nonzero, and the speedup accessors are finite.
    #[test]
    fn tiny_workload_measures_and_matches() {
        let w = HostWorkload {
            burst_bytes: 4096,
            ctr_per_block_bytes: 64 * 1024,
            ctr_soft_bytes: 64 * 1024,
            ctr_accel_bytes: 64 * 1024,
            sha_soft_bytes: 64 * 1024,
            sha_accel_bytes: 64 * 1024,
            merkle_leaves: 256,
            rounds: 1,
        };
        let p = measure_host(&w);
        assert!(p.outputs_match, "cross-backend outputs diverged");
        assert!(p.ctr_per_block_soft.ns > 0 && p.ctr_batched_accel.ns > 0);
        assert!(p.ctr_accel_vs_per_block().is_finite());
        assert!(p.sha_speedup().is_finite());
        assert!(p.merkle_build_ns > 0);
        assert!(p.merkle_region_build_ns > 0);
        // Capability flags agree with the crypto crate's probe.
        let caps = host_caps();
        assert_eq!(p.aesni, caps.aesni);
        assert_eq!(p.shani, caps.shani);
    }

    /// Each Merkle figure is the median of the rounds' own build times,
    /// not the build time of the round that is median by the CTR ratio.
    #[test]
    fn merkle_build_is_the_median_build_not_the_ctr_median_rounds() {
        let round = |per_block_ns, accel_ns, build_ns, region_build_ns| Round {
            per_block_ns,
            soft_ns: 10 * per_block_ns,
            accel_ns,
            sha_soft_ns: 20 * per_block_ns,
            sha_accel_ns: 30 * per_block_ns,
            build_ns,
            region_build_ns,
        };
        // CTR ratios 2, 4 and 3: the third round is the median by ratio,
        // and it has the largest build time and the smallest region
        // build time.
        let median = round(3_000, 1_000, 9_000, 2_000);
        let rounds = vec![
            round(2_000, 1_000, 5_000, 6_000),
            round(4_000, 1_000, 7_000, 4_000),
            median,
        ];
        let r = select_round(rounds);
        assert_eq!(r.build_ns, 7_000, "the median build time");
        assert_eq!(r.region_build_ns, 4_000, "the median region build time");
        assert_eq!(
            Round {
                build_ns: median.build_ns,
                region_build_ns: median.region_build_ns,
                ..r
            },
            median,
            "every other window from the CTR-median round"
        );
    }

    #[test]
    fn throughput_gbps_is_bytes_per_ns() {
        let t = Throughput {
            bytes: 2_000_000_000,
            ns: 1_000_000_000,
        };
        assert!((t.gbps() - 2.0).abs() < 1e-9);
    }
}
