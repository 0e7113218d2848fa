//! S-16: Integrity-Core hot-path performance — the measurement logic
//! behind the `perf_soak` binary.
//!
//! Three comparisons, each pairing an optimized path against its
//! reference with *identical* security outcomes:
//!
//! 1. **Cached vs uncached IC** (simulated cycles): the same
//!    deterministic read-heavy workload runs against the case-study LCF
//!    policies twice — with and without the AEGIS-style trusted-node
//!    cache — under a [`CryptoTiming`] that charges per tree level.
//!    Every access result, alert and final Merkle root is folded into an
//!    outcome digest, so "zero differences" is a single byte comparison.
//! 2. **Batched vs per-block CC** (host wall-time): the same burst is
//!    ciphered through [`MemoryCipher::apply`]'s batched keystream and
//!    through a per-16-byte reference loop.
//! 3. **Serial vs parallel harness** (host wall-time): the same cell
//!    list runs through [`par_map_with`] with one worker and with all of
//!    them; outputs must be identical, only the wall clock may differ.

use std::time::Instant;

use secbus_bus::{MasterId, Op, Transaction, TxnId, Width};
use secbus_core::{CryptoTiming, FirewallId, LocalCipheringFirewall};
use secbus_crypto::sha256::Digest;
use secbus_crypto::{CryptoBackend, MemoryCipher, Sha256};
use secbus_mem::ExternalDdr;
use secbus_sim::{Cycle, SimCore, SimRng};
use secbus_soc::casestudy::{lcf_policies, DDR_BASE, DDR_LEN, DDR_PRIVATE_BASE, DDR_PRIVATE_LEN};

use crate::par_map_with;

/// State key for the checkpoint that exposes the final Merkle roots.
const STATE_KEY: [u8; 16] = *b"s16-perf-state.!";

/// Shape of the read-heavy IC workload.
#[derive(Debug, Clone, Copy)]
pub struct IcWorkload {
    /// Total accesses against the integrity-protected region.
    pub accesses: u64,
    /// Distinct blocks in the hot set (cache-friendly working set).
    pub hot_blocks: u64,
    /// Per-mille of accesses that are writes (the rest read).
    pub write_permille: u64,
    /// Per-mille of accesses aimed at the hot set (the rest uniform).
    pub hot_permille: u64,
    /// Inject one external tamper every this many accesses (0 = none) —
    /// the alert streams must still be identical.
    pub tamper_every: u64,
    /// Trusted-node cache entries for the cached variant.
    pub cache_entries: usize,
    /// Per-tree-level IC cycle cost ([`CryptoTiming::with_tree_cost`]);
    /// the paper's Table II charges a flat latency, which would make the
    /// cache's saving invisible in simulated cycles.
    pub per_level_cycles: u64,
    /// Workload seed.
    pub seed: u64,
}

impl IcWorkload {
    /// The default S-16 workload (full-size sweep).
    pub fn full(seed: u64) -> Self {
        IcWorkload {
            accesses: 20_000,
            hot_blocks: 64,
            write_permille: 100,
            hot_permille: 900,
            tamper_every: 4_001,
            cache_entries: 128,
            per_level_cycles: 8,
            seed,
        }
    }

    /// CI-sized variant (same shape, ~10× smaller).
    pub fn smoke(seed: u64) -> Self {
        IcWorkload {
            accesses: 2_000,
            tamper_every: 401,
            ..IcWorkload::full(seed)
        }
    }
}

/// One variant's run: cost counters plus the outcome digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcRun {
    /// Total simulated Integrity-Core cycles (`lcf.ic_cycles`).
    pub ic_cycles: u64,
    /// Node-cache hits (0 for the uncached variant).
    pub cache_hits: u64,
    /// Node-cache misses (0 for the uncached variant).
    pub cache_misses: u64,
    /// Simulated cycles the cache saved vs full root walks.
    pub cycles_saved: u64,
    /// Accesses denied (integrity mismatches from the tampering).
    pub denied: u64,
    /// Alerts raised.
    pub alerts: u64,
    /// SHA-256 over every access result, every alert and every final
    /// region root — the "zero differences" witness.
    pub outcome: Digest,
}

/// The cached/uncached comparison.
#[derive(Debug, Clone, Copy)]
pub struct IcPerf {
    pub uncached: IcRun,
    pub cached: IcRun,
}

impl IcPerf {
    /// Simulated IC cycle reduction (uncached / cached).
    pub fn speedup(&self) -> f64 {
        self.uncached.ic_cycles as f64 / self.cached.ic_cycles.max(1) as f64
    }

    /// Identical data, verdicts, alerts and roots?
    pub fn equivalent(&self) -> bool {
        self.uncached.outcome == self.cached.outcome
            && self.uncached.denied == self.cached.denied
            && self.uncached.alerts == self.cached.alerts
    }
}

fn txn(i: u64, op: Op, addr: u32, data: u32) -> Transaction {
    Transaction {
        id: TxnId(i),
        master: MasterId(0),
        op,
        addr,
        width: Width::Word,
        data,
        burst: 1,
        issued_at: Cycle(i),
    }
}

/// Run the workload once. The two variants differ only in whether
/// [`LocalCipheringFirewall::enable_ic_cache`] ran — everything else,
/// including the fault schedule, is bit-identical.
fn run_ic_variant(w: &IcWorkload, cached: bool) -> IcRun {
    let timing = CryptoTiming::with_tree_cost(w.per_level_cycles);
    let mut lcf =
        LocalCipheringFirewall::new(FirewallId(0), "LCF s16", lcf_policies(), DDR_BASE, timing);
    if cached {
        lcf.enable_ic_cache(w.cache_entries);
    }
    // Large interval: the journal only exists to expose the final roots
    // through an authenticated checkpoint at the end.
    lcf.enable_journal(u64::MAX, STATE_KEY);
    let mut ddr = ExternalDdr::new(DDR_LEN);
    let mut rng = SimRng::new(w.seed).derive("s16-ic");
    let mut boot = vec![0u8; DDR_PRIVATE_LEN as usize];
    rng.fill_bytes(&mut boot);
    ddr.load(DDR_PRIVATE_BASE - DDR_BASE, &boot);
    lcf.seal(&mut ddr);

    let region_blocks = u64::from(DDR_PRIVATE_LEN) / 16;
    let mut hasher = Sha256::new();
    let mut denied = 0u64;
    for i in 0..w.accesses {
        if w.tamper_every > 0 && i > 0 && i.is_multiple_of(w.tamper_every) {
            // External tampering while the bus is quiet: flip one bit of
            // a hot block's ciphertext behind the LCF's back.
            let block = rng.below(w.hot_blocks) * 16;
            let offset = (DDR_PRIVATE_BASE - DDR_BASE) + block as u32 + rng.below(16) as u32;
            let mut byte = [ddr.snoop(offset, 1)[0]];
            byte[0] ^= 1 << rng.below(8);
            ddr.tamper(offset, &byte);
        }
        let block = if rng.below(1000) < w.hot_permille {
            rng.below(w.hot_blocks)
        } else {
            rng.below(region_blocks)
        };
        let addr = DDR_PRIVATE_BASE + (block * 16) as u32 + 4 * rng.below(4) as u32;
        let write = rng.below(1000) < w.write_permille;
        let t = if write {
            txn(i, Op::Write, addr, rng.next_u32())
        } else {
            txn(i, Op::Read, addr, 0)
        };
        hasher.update(&addr.to_le_bytes());
        match lcf.handle(&mut ddr, &t, Cycle(i)) {
            Ok(access) => hasher.update(&access.data.to_le_bytes()),
            Err((violation, _)) => {
                denied += 1;
                hasher.update(violation.mnemonic().as_bytes());
            }
        }
    }

    let alerts = lcf.drain_alerts();
    for alert in &alerts {
        hasher.update(alert.violation.mnemonic().as_bytes());
        hasher.update(&alert.txn.addr.to_le_bytes());
        hasher.update(&alert.at.get().to_le_bytes());
    }
    lcf.force_checkpoint();
    let image = lcf.persistent_state().expect("journal enabled").image;
    for region in &image.regions {
        if let Some(root) = region.root {
            hasher.update(&root);
        }
    }

    let stats = lcf.stats();
    IcRun {
        ic_cycles: stats.counter("lcf.ic_cycles"),
        cache_hits: stats.counter("lcf.ic_cache_hits"),
        cache_misses: stats.counter("lcf.ic_cache_misses"),
        cycles_saved: stats.counter("lcf.ic_cycles_saved"),
        denied,
        alerts: alerts.len() as u64,
        outcome: hasher.finalize(),
    }
}

/// Run the read-heavy workload uncached and cached and compare.
pub fn compare_ic(w: &IcWorkload) -> IcPerf {
    IcPerf {
        uncached: run_ic_variant(w, false),
        cached: run_ic_variant(w, true),
    }
}

/// The batched/per-block Confidentiality-Core comparison.
#[derive(Debug, Clone, Copy)]
pub struct CcPerf {
    /// Host nanoseconds for the per-16-byte reference loop.
    pub per_block_ns: u64,
    /// Host nanoseconds for the batched keystream path.
    pub batched_ns: u64,
    /// Ciphertext equality between the two paths.
    pub outputs_match: bool,
}

impl CcPerf {
    /// Host wall-time reduction (per-block / batched).
    pub fn speedup(&self) -> f64 {
        self.per_block_ns as f64 / self.batched_ns.max(1) as f64
    }
}

/// Host nanoseconds `work` took: process CPU time (user + system, from
/// `/proc/self/stat`) where it is readable and advanced, wall clock
/// otherwise (off Linux, or a window shorter than one CPU-clock tick).
/// CPU time assumes the near-universal 100 Hz kernel tick — and since
/// every caller only reads it as a ratio of two same-unit readings, the
/// tick rate cancels anyway.
pub(crate) fn timed(work: &mut dyn FnMut()) -> u64 {
    let cpu_ns = || -> Option<u64> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // comm (field 2) may contain spaces; fields are stable after the ')'.
        let mut fields = stat[stat.rfind(')')? + 1..].split_whitespace();
        let utime: u64 = fields.nth(11)?.parse().ok()?;
        let stime: u64 = fields.next()?.parse().ok()?;
        Some((utime + stime) * 10_000_000)
    };
    let wall = Instant::now();
    let cpu = cpu_ns();
    work();
    match (cpu, cpu_ns()) {
        (Some(before), Some(after)) if after > before => after - before,
        _ => wall.elapsed().as_nanos() as u64,
    }
}

/// Cipher `burst_bytes`-byte bursts `reps` times through both paths.
///
/// Pinned to the **soft** backend on purpose: this comparison prices
/// what batching alone buys (key-schedule reuse vs per-block setup), so
/// its ratio must stay comparable across hosts with and without AES-NI
/// — the hardware story lives in `hostperf`'s section, whose gates skip
/// where the hardware is absent.
pub fn compare_cc(burst_bytes: usize, reps: u32) -> CcPerf {
    assert!(burst_bytes.is_multiple_of(16) && burst_bytes >= 32);
    let cipher = MemoryCipher::with_backend(b"s16-cc-perf-key!", CryptoBackend::Soft);
    let addr = u64::from(DDR_PRIVATE_BASE);

    // Correctness first: both paths must produce the same ciphertext.
    let mut batched = vec![0x5au8; burst_bytes];
    cipher.apply(addr, 7, &mut batched);
    let mut per_block = vec![0x5au8; burst_bytes];
    for (i, chunk) in per_block.chunks_mut(16).enumerate() {
        cipher.apply(addr + 16 * i as u64, 7, chunk);
    }
    let outputs_match = batched == per_block;

    // Both paths are single-threaded pure compute, but shared CI hosts
    // make a single timing nearly meaningless: wall clock swings 2x with
    // scheduler throttling, and even process CPU time drifts ~10% with
    // frequency scaling. So: measure CPU time where available (immune to
    // preemption), time the two paths back-to-back in *paired* rounds
    // (slow frequency drift then cancels in the ratio), and report the
    // median round by ratio.
    let mut buf = vec![0xa5u8; burst_bytes];
    let mut rounds: Vec<(u64, u64)> = (0..5)
        .map(|_| {
            let batched_ns = timed(&mut || {
                for _ in 0..reps {
                    cipher.apply(addr, 3, &mut buf);
                }
            });
            let per_block_ns = timed(&mut || {
                for _ in 0..reps {
                    for (i, chunk) in buf.chunks_mut(16).enumerate() {
                        cipher.apply(addr + 16 * i as u64, 3, chunk);
                    }
                }
            });
            (per_block_ns, batched_ns)
        })
        .collect();
    // Median by per-block/batched ratio, compared in cross-multiplied
    // integers.
    rounds.sort_by(|a, b| (a.0 * b.1).cmp(&(b.0 * a.1)));
    let (per_block_ns, batched_ns) = rounds[2];

    CcPerf {
        per_block_ns,
        batched_ns,
        outputs_match,
    }
}

/// The serial/parallel harness comparison.
#[derive(Debug, Clone, Copy)]
pub struct HarnessPerf {
    /// Worker threads the parallel run used.
    pub threads: usize,
    /// Host nanoseconds for the one-worker run.
    pub serial_ns: u64,
    /// Host nanoseconds for the all-workers run.
    pub parallel_ns: u64,
    /// Were the merged results byte-identical?
    pub identical: bool,
}

impl HarnessPerf {
    /// Host wall-time reduction (serial / parallel). ~1.0 on a one-core
    /// host — the merge determinism still holds there.
    pub fn speedup(&self) -> f64 {
        self.serial_ns as f64 / self.parallel_ns.max(1) as f64
    }
}

/// Run `cells` independent sweep cells (seeded copies of the smoke IC
/// workload) through [`par_map_with`] serially and with all workers.
pub fn compare_harness(cells: u64, accesses: u64) -> HarnessPerf {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let specs: Vec<u64> = (0..cells).collect();
    let cell = |seed: u64| {
        let w = IcWorkload {
            accesses,
            ..IcWorkload::full(0x516_0000 + seed)
        };
        run_ic_variant(&w, true)
    };

    let start = Instant::now();
    let serial = par_map_with(1, specs.clone(), cell);
    let serial_ns = start.elapsed().as_nanos() as u64;

    let start = Instant::now();
    let parallel = par_map_with(threads, specs, cell);
    let parallel_ns = start.elapsed().as_nanos() as u64;

    HarnessPerf {
        threads,
        serial_ns,
        parallel_ns,
        identical: serial == parallel,
    }
}

/// One simulator-core timing of a fixed SoC workload.
#[derive(Debug, Clone, Copy)]
pub struct SimRun {
    /// Simulated cycles covered.
    pub sim_cycles: u64,
    /// Ticks actually executed — equal to `sim_cycles` on the stepped
    /// core; the number of *events* on the event core.
    pub ticks: u64,
    /// Host nanoseconds for the run (CPU time where available).
    pub host_ns: u64,
}

impl SimRun {
    /// Host-side simulated-cycle throughput.
    pub fn cycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 * 1e9 / self.host_ns.max(1) as f64
    }

    /// Host-side executed-tick (event) throughput.
    pub fn events_per_sec(&self) -> f64 {
        self.ticks as f64 * 1e9 / self.host_ns.max(1) as f64
    }
}

/// Stepped vs event core on one workload.
#[derive(Debug, Clone, Copy)]
pub struct SimPair {
    pub stepped: SimRun,
    pub event: SimRun,
    /// Metrics snapshots byte-identical between the cores?
    pub identical: bool,
}

impl SimPair {
    /// Host wall-time reduction (stepped / event).
    pub fn speedup(&self) -> f64 {
        self.stepped.host_ns as f64 / self.event.host_ns.max(1) as f64
    }

    /// Fraction of cycles the event core skipped.
    pub fn skip_fraction(&self) -> f64 {
        1.0 - self.event.ticks as f64 / self.event.sim_cycles.max(1) as f64
    }
}

/// The S-21 simulator-core comparison (stepped vs event-driven run loop).
#[derive(Debug, Clone, Copy)]
pub struct SimPerf {
    /// Halting case-study programs with a long quiet tail: mostly idle,
    /// the regime the event core exists for.
    pub idle: SimPair,
    /// An open-loop flood source issuing on every single cycle of the
    /// run: zero skippable cycles, so this prices the pure overhead of
    /// the event core's quiescence checks.
    pub saturated: SimPair,
}

/// Time `soc.run(cycles)` under `core`; returns the run sample and the
/// final metrics snapshot (the equivalence witness).
///
/// Wall clock, not process CPU time: these runs last a few
/// milliseconds, so the 100 Hz CPU clock's 10 ms quanta would swamp
/// the reading (one side rounding to a whole tick while the other
/// reads zero inverts the ratio). Scheduler noise at this scale is
/// handled by the paired-round median in [`compare_sim_workload`].
fn run_sim_variant(mut soc: secbus_soc::Soc, core: SimCore, cycles: u64) -> (SimRun, String) {
    soc.set_sim_core(core);
    let wall = Instant::now();
    soc.run(cycles);
    let host_ns = wall.elapsed().as_nanos() as u64;
    (
        SimRun {
            sim_cycles: cycles,
            ticks: soc.ticks_executed(),
            host_ns,
        },
        soc.metrics_json(),
    )
}

/// Compare the cores on one workload: paired rounds, median by speedup
/// ratio (same discipline as [`compare_cc`] — slow host-frequency drift
/// cancels in the ratio).
fn compare_sim_workload(build: &dyn Fn() -> secbus_soc::Soc, cycles: u64) -> SimPair {
    let mut rounds: Vec<(SimRun, SimRun, bool)> = (0..3)
        .map(|_| {
            let (stepped, stepped_metrics) = run_sim_variant(build(), SimCore::Stepped, cycles);
            let (event, event_metrics) = run_sim_variant(build(), SimCore::Event, cycles);
            (stepped, event, stepped_metrics == event_metrics)
        })
        .collect();
    rounds.sort_by(|a, b| {
        (u128::from(a.0.host_ns) * u128::from(b.1.host_ns.max(1)))
            .cmp(&(u128::from(b.0.host_ns) * u128::from(a.1.host_ns.max(1))))
    });
    let (stepped, event, _) = rounds[1];
    SimPair {
        stepped,
        event,
        identical: rounds.iter().all(|r| r.2),
    }
}

/// Run the stepped/event comparison on the idle-heavy case study and a
/// saturated open-loop flood (`idle_cycles` / `saturated_cycles` long).
pub fn compare_sim(idle_cycles: u64, saturated_cycles: u64) -> SimPerf {
    use secbus_cpu::{OpenLoopConfig, OpenLoopMaster};
    use secbus_soc::{case_study, CaseStudyConfig, SocBuilder};

    // Halting programs, finite IP streams: activity dies out early and
    // the tail is pure idle.
    let idle = compare_sim_workload(&|| case_study(CaseStudyConfig::default()), idle_cycles);
    // An open-loop source whose issue window covers the whole run is
    // `Wake::Now` on every cycle, so the event core can never skip: the
    // bare (cheapest-per-tick) soc makes the quiescence-check overhead
    // proportionally largest — the conservative pricing.
    let saturated = compare_sim_workload(
        &|| {
            let rng = SimRng::new(0x516).derive("s21.saturated");
            let source = OpenLoopMaster::new(
                "flood",
                OpenLoopConfig {
                    window: (DDR_BASE, 0x100),
                    read_ratio: 0.75,
                    per_tick: 1,
                    until: saturated_cycles,
                },
                rng,
            );
            SocBuilder::new()
                .add_master(Box::new(source))
                .set_ddr(
                    "ddr",
                    secbus_bus::AddrRange::new(DDR_BASE, 0x1000),
                    ExternalDdr::new(0x1000),
                    None,
                )
                .build()
        },
        saturated_cycles,
    );
    SimPerf { idle, saturated }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cached variant must be outcome-identical and strictly cheaper
    /// in simulated IC cycles on the hot-set workload.
    #[test]
    fn cached_ic_is_equivalent_and_cheaper() {
        let perf = compare_ic(&IcWorkload::smoke(0xD15C));
        assert!(perf.equivalent(), "cached IC diverged from uncached");
        assert!(perf.uncached.alerts > 0, "tampering must raise alerts");
        assert!(perf.cached.cache_hits > 0, "hot set must hit the cache");
        assert!(
            perf.speedup() >= 2.0,
            "expected >= 2x IC cycle reduction, got {:.2}x",
            perf.speedup()
        );
        assert_eq!(
            perf.cached.ic_cycles + perf.cached.cycles_saved,
            perf.uncached.ic_cycles,
            "saved cycles must account exactly for the difference"
        );
    }

    /// Under the paper's flat Table II timing the cache must change
    /// *nothing* — identical outcomes and identical charged cycles.
    #[test]
    fn paper_timing_is_cost_neutral() {
        let w = IcWorkload {
            per_level_cycles: 0,
            ..IcWorkload::smoke(0xD15D)
        };
        let perf = compare_ic(&w);
        assert!(perf.equivalent());
        assert_eq!(perf.uncached.ic_cycles, perf.cached.ic_cycles);
        assert_eq!(perf.cached.cycles_saved, 0);
    }

    #[test]
    fn batched_cc_matches_per_block() {
        let perf = compare_cc(1024, 2);
        assert!(perf.outputs_match);
    }

    #[test]
    fn harness_results_are_identical_across_thread_counts() {
        let perf = compare_harness(3, 64);
        assert!(perf.identical);
    }

    #[test]
    fn sim_cores_agree_and_event_core_skips_the_idle_tail() {
        let perf = compare_sim(30_000, 3_000);
        assert!(perf.idle.identical, "idle workload metrics diverged");
        assert!(perf.saturated.identical, "saturated metrics diverged");
        assert_eq!(perf.idle.stepped.ticks, perf.idle.stepped.sim_cycles);
        assert!(
            perf.idle.skip_fraction() > 0.5,
            "idle tail must mostly skip: {:.2}",
            perf.idle.skip_fraction()
        );
        assert_eq!(
            perf.saturated.event.ticks, perf.saturated.event.sim_cycles,
            "an open-loop flood issuing every cycle leaves nothing to skip"
        );
    }
}
