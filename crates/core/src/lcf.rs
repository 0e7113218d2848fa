//! The Local Ciphering Firewall (LCF): LF + Confidentiality + Integrity.
//!
//! > "Local Ciphering Firewall (LCF) monitors the exchanges between
//! > internal IPs and the external memory. The main feature of LCF is the
//! > protection of the external memory in terms of confidentiality and
//! > integrity."
//!
//! Structure: an embedded [`LocalFirewall`] performs the same Security
//! Builder checks as any LF; on top of it, per-region **Confidentiality
//! Cores** (AES-128 counter mode bound to address + time-stamp) and the
//! **Integrity Core** (SHA-256 hash tree keyed by block index and
//! time-stamp) protect the stored bits. Regions come straight from the
//! external policies' CM/IM modes, so the three protection levels of the
//! threat model exist side by side:
//!
//! * **unprotected** — the deliberate cost-saving hole attackers exploit;
//! * **cipher-only** — confidential, but blind tampering (DoS) is not
//!   *detected*, only garbled;
//! * **cipher + integrity** — replay / relocation / spoofing all caught.
//!
//! ## Timing
//!
//! Table II gives the cores' pipeline latencies (CC 11 cycles, IC 20
//! cycles) and sustained throughputs (450 / 131 Mb/s). [`CryptoTiming`]
//! carries both: single-block accesses are charged the pipeline latency;
//! streaming transfers additionally pay the sustained rate
//! ([`CryptoTiming::cc_stream_cycles`] / [`CryptoTiming::ic_stream_cycles`]),
//! which is what the Table II bench measures at the 100 MHz system clock.

use secbus_bus::{Op, Transaction};
use secbus_crypto::merkle::leaf_digest;
use secbus_crypto::sha256::Digest;
use secbus_crypto::{
    CryptoBackend, IntentRecord, MemoryCipher, MerkleTree, MonotonicCounter, NodeCache,
    RegionImage, SecureStateImage, TimestampTable, WriteAheadJournal,
};
use secbus_mem::{ExternalDdr, MemDevice};
use secbus_sim::{stat_keys, Cycle, Stats, TraceEvent, Tracer};

use crate::alert::Alert;
use crate::checker::Violation;
use crate::config::ConfigMemory;
use crate::firewall::{FirewallId, LocalFirewall, SbTiming};
use crate::policy::{ConfidentialityMode, IntegrityMode, SecurityPolicy};
use crate::recovery::{PersistentState, RecoveryOutcome, RecoveryReport, TamperEvidence};

/// Protection granularity: one AES block.
pub const PROTECTION_BLOCK: u32 = 16;

/// Modeled cycles for one persistence operation (journal append, commit
/// mark, image slot write) on the LCF's NVRAM-backed state store.
pub const JOURNAL_PERSIST_CYCLES: u64 = 4;

/// Protection level of an external-memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protection {
    /// Plaintext, unauthenticated.
    None,
    /// Ciphered (CC), not authenticated.
    CipherOnly,
    /// Ciphered (CC) and hash-tree authenticated (IC).
    CipherIntegrity,
}

impl Protection {
    fn of(policy: &SecurityPolicy) -> Protection {
        match (policy.cm, policy.im) {
            (ConfidentialityMode::Bypass, _) => Protection::None,
            (ConfidentialityMode::Encrypt, IntegrityMode::Bypass) => Protection::CipherOnly,
            (ConfidentialityMode::Encrypt, IntegrityMode::Verify) => Protection::CipherIntegrity,
        }
    }
}

/// Latency/throughput parameters of the crypto cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CryptoTiming {
    /// Confidentiality Core pipeline latency (Table II: 11 cycles).
    pub cc_latency: u64,
    /// CC sustained rate in millibits per cycle (4500 = 4.5 b/cycle =
    /// 450 Mb/s at 100 MHz).
    pub cc_millibits_per_cycle: u64,
    /// Integrity Core pipeline latency (Table II: 20 cycles).
    pub ic_latency: u64,
    /// IC sustained rate in millibits per cycle (1310 = 131 Mb/s @100 MHz).
    pub ic_millibits_per_cycle: u64,
    /// Extra IC cycles per hash-tree level traversed (0 = the paper's
    /// flat 20-cycle pipeline, which amortises the tree walk; nonzero
    /// exposes the depth dependence for the tree-scaling ablation).
    pub ic_per_level_cycles: u64,
}

impl CryptoTiming {
    /// The paper's Table II calibration.
    pub const PAPER: CryptoTiming = CryptoTiming {
        cc_latency: 11,
        cc_millibits_per_cycle: 4500,
        ic_latency: 20,
        ic_millibits_per_cycle: 1310,
        ic_per_level_cycles: 0,
    };

    /// Table II timing with an explicit per-tree-level cost (ablation).
    pub fn with_tree_cost(per_level: u64) -> CryptoTiming {
        CryptoTiming {
            ic_per_level_cycles: per_level,
            ..CryptoTiming::PAPER
        }
    }

    /// IC cycles for one block verification against a tree of `levels`.
    pub fn ic_verify_cycles(&self, levels: u32) -> u64 {
        self.ic_latency + self.ic_per_level_cycles * u64::from(levels)
    }

    /// Cycles for the CC to stream `bits` bits (latency + sustained rate).
    pub fn cc_stream_cycles(&self, bits: u64) -> u64 {
        self.cc_latency + (bits * 1000).div_ceil(self.cc_millibits_per_cycle)
    }

    /// Cycles for the IC to stream `bits` bits (latency + sustained rate).
    pub fn ic_stream_cycles(&self, bits: u64) -> u64 {
        self.ic_latency + (bits * 1000).div_ceil(self.ic_millibits_per_cycle)
    }
}

impl Default for CryptoTiming {
    fn default() -> Self {
        CryptoTiming::PAPER
    }
}

/// Fail-secure degradation policy when the Integrity Core itself fails
/// (transient mis-computation, glitched verdict) — per region, because the
/// right trade-off is data-dependent: key material must never leave the
/// chip on a doubtful verdict, while a frame buffer may prefer liveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IcFailureMode {
    /// Refuse the access (the default): a failed or doubtful verification
    /// blocks the data exactly like a genuine integrity violation.
    #[default]
    BlockReads,
    /// Serve the data anyway but raise the [`Violation::IntegrityMismatch`]
    /// alert — degraded operation for availability-critical regions.
    ServeWithAlert,
}

/// Explicit region configuration (derived from external policies).
#[derive(Debug, Clone)]
pub struct LcfRegionConfig {
    /// Bus-address range of the region.
    pub base: u32,
    /// Region length in bytes (multiple of [`PROTECTION_BLOCK`]).
    pub len: u32,
    /// Protection level.
    pub protection: Protection,
    /// AES key when ciphered.
    pub key: Option<[u8; 16]>,
    /// What to do when integrity verification cannot be trusted.
    pub ic_failure: IcFailureMode,
}

struct Region {
    base: u32,
    len: u32,
    protection: Protection,
    cipher: Option<MemoryCipher>,
    tree: Option<MerkleTree>,
    timestamps: TimestampTable,
    ic_failure: IcFailureMode,
    /// AEGIS-style trusted interior-node cache (cost model only — the
    /// verdict is identical to an uncached root walk).
    ic_cache: Option<NodeCache>,
}

impl Region {
    fn contains(&self, addr: u32) -> bool {
        addr >= self.base && u64::from(addr) < u64::from(self.base) + u64::from(self.len)
    }

    fn block_index(&self, addr: u32) -> usize {
        ((addr - self.base) / PROTECTION_BLOCK) as usize
    }
}

/// Why a re-key request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RekeyError {
    /// No LCF region covers the address.
    NoRegion,
    /// The region is unprotected (there is no key to roll).
    NotCiphered,
}

impl std::fmt::Display for RekeyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RekeyError::NoRegion => "no LCF region covers this address",
            RekeyError::NotCiphered => "region is not ciphered",
        })
    }
}

impl std::error::Error for RekeyError {}

/// A successful LCF access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LcfAccess {
    /// Read data (0 for writes).
    pub data: u32,
    /// Total cycles charged: SB check + DDR + crypto cores.
    pub latency: u64,
}

/// The crash-consistency state of a journaling LCF: the on-chip key and
/// counter plus the persisted image/journal pair.
struct JournalState {
    key: [u8; 16],
    /// Commits between checkpoints (journal-fold interval).
    interval: u64,
    commits_since: u64,
    image: SecureStateImage,
    journal: WriteAheadJournal,
    counter: MonotonicCounter,
}

stat_keys! {
    /// The LCF's per-access crypto and journal counters, kept in fixed
    /// [`Stats`] slots.
    pub enum LcfCounter {
        BrownoutSkippedVerifies => "lcf.brownout_skipped_verifies",
        CcBytesCiphered => "lcf.cc_bytes_ciphered",
        IcCacheHits => "lcf.ic_cache_hits",
        IcCacheMisses => "lcf.ic_cache_misses",
        IcCycles => "lcf.ic_cycles",
        IcCyclesSaved => "lcf.ic_cycles_saved",
        JournalAppends => "lcf.journal_appends",
        JournalCommits => "lcf.journal_commits",
        ProtectedReads => "lcf.protected_reads",
        ProtectedWrites => "lcf.protected_writes",
        UnprotectedAccesses => "lcf.unprotected_accesses",
    }
}

stat_keys! {
    /// The LCF's per-access histograms, kept in fixed [`Stats`] slots.
    pub enum LcfHistogram {
        IcVerifyCycles => "lcf.ic_verify_cycles",
    }
}

/// The Local Ciphering Firewall guarding the external memory.
pub struct LocalCipheringFirewall {
    fw: LocalFirewall,
    timing: CryptoTiming,
    /// Bus address at which the DDR device is mapped (bus addr − base =
    /// device offset).
    ddr_base: u32,
    regions: Vec<Region>,
    sealed: bool,
    stats: Stats,
    /// Fault injection: the next IC verification returns the wrong verdict.
    ic_glitch: bool,
    /// Fault injection: the next CC pass produces garbled output.
    cc_glitch: bool,
    /// Crash-consistency layer (None = the paper's volatile-only model).
    journal: Option<JournalState>,
    /// Set when power died mid-burst (torn write): no further accesses
    /// happen on this boot.
    crashed: bool,
    /// Trusted-node cache capacity per integrity region (None = the
    /// paper's uncached root walk). Fresh caches are issued wherever a
    /// tree is (re)built.
    ic_cache_entries: Option<usize>,
    /// Last-hit region slot: bursts overwhelmingly land in the region of
    /// the previous access, so try it before the binary search.
    last_region: Option<usize>,
    /// Brownout (graceful degradation under overload): read-path
    /// integrity verification is skipped — the cheaper
    /// [`Protection::CipherOnly`] posture — while the cipher stays on
    /// and every write still updates the tree, so re-tightening after
    /// the burst drains is sound and tampering during the brownout is
    /// still caught by the first post-brownout verify.
    brownout: bool,
    /// Observability spine, if attached.
    tracer: Option<Tracer>,
}

/// The declared-safe degradation lattice: under overload a region may
/// step down exactly one posture, from full integrity verification to
/// cipher-only. Ciphering is never dropped — there is no edge to
/// [`Protection::None`], so a brownout can weaken freshness checking but
/// never expose plaintext or lift enforcement entirely.
pub fn brownout_posture(p: Protection) -> Protection {
    match p {
        Protection::CipherIntegrity => Protection::CipherOnly,
        // Already at (or below) the cipher floor: no further step exists.
        other => other,
    }
}

impl LocalCipheringFirewall {
    /// Build an LCF from external policies. Every policy with
    /// `cm == Encrypt` becomes a protected region; its range must be
    /// 16-byte aligned and sized.
    pub fn new(
        id: FirewallId,
        label: impl Into<String>,
        config: ConfigMemory,
        ddr_base: u32,
        timing: CryptoTiming,
    ) -> Self {
        let regions: Vec<Region> = config
            .policies()
            .iter()
            .map(|p| {
                let protection = Protection::of(p);
                if protection != Protection::None {
                    assert!(
                        p.region.base % PROTECTION_BLOCK == 0
                            && p.region.len % PROTECTION_BLOCK == 0,
                        "protected region must be 16-byte aligned and sized"
                    );
                }
                let blocks = (p.region.len / PROTECTION_BLOCK).max(1) as usize;
                Region {
                    base: p.region.base,
                    len: p.region.len,
                    protection,
                    cipher: p.key.as_ref().map(MemoryCipher::new),
                    tree: None, // built at seal time
                    timestamps: TimestampTable::new(blocks),
                    ic_failure: IcFailureMode::default(),
                    ic_cache: None,
                }
            })
            .collect();
        debug_assert!(
            regions.windows(2).all(|w| w[0].base < w[1].base),
            "ConfigMemory keeps policies sorted and non-overlapping"
        );
        LocalCipheringFirewall {
            fw: LocalFirewall::new(id, label, config),
            timing,
            ddr_base,
            regions,
            sealed: false,
            stats: Stats::slotted(LcfCounter::KEYS, LcfHistogram::KEYS),
            ic_glitch: false,
            cc_glitch: false,
            journal: None,
            crashed: false,
            ic_cache_entries: None,
            last_region: None,
            brownout: false,
            tracer: None,
        }
    }

    /// Enter or leave the brownout posture (see [`brownout_posture`]).
    /// The SecurityMonitor drives this from its overload hysteresis; the
    /// LCF itself just applies the cheaper read path while set.
    pub fn set_brownout(&mut self, on: bool) {
        self.brownout = on;
    }

    /// Whether the brownout posture is active.
    pub fn brownout(&self) -> bool {
        self.brownout
    }

    /// Attach the observability spine to the LCF and its embedded
    /// firewall: records cipher, IC-verify, and journal-commit events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.fw.set_tracer(tracer.clone());
        self.tracer = Some(tracer);
    }

    /// Turn on the AEGIS-style Integrity-Core node cache: every
    /// integrity-protected region gets a bounded LRU cache of `entries`
    /// trusted interior nodes, so a verification stops at the first
    /// cached ancestor instead of walking to the root. This is purely a
    /// *cost* model — the volatile tree stays fully current and the
    /// cache is kept coherent on writes, so verdicts, roots and alerts
    /// are identical to the uncached walk. May be called at any time;
    /// existing caches are reset.
    pub fn enable_ic_cache(&mut self, entries: usize) {
        assert!(entries > 0, "IC node cache needs a positive capacity");
        self.ic_cache_entries = Some(entries);
        for region in &mut self.regions {
            if region.protection == Protection::CipherIntegrity {
                region.ic_cache = Some(NodeCache::new(entries));
            }
        }
    }

    /// Whether the Integrity-Core node cache is enabled.
    pub fn ic_cache_enabled(&self) -> bool {
        self.ic_cache_entries.is_some()
    }

    /// Turn on the crash-consistency layer: a write-ahead journal with
    /// shadow-root two-phase commit, folded into a MAC-sealed
    /// [`SecureStateImage`] every `interval` commits, guarded by a
    /// monotonic anti-rollback counter. `state_key` never leaves the
    /// chip. Call before [`LocalCipheringFirewall::seal`] (the seal then
    /// takes the initial checkpoint); enabling after seal checkpoints
    /// immediately.
    pub fn enable_journal(&mut self, interval: u64, state_key: [u8; 16]) {
        assert!(interval > 0, "checkpoint interval must be positive");
        self.journal = Some(JournalState {
            key: state_key,
            interval,
            commits_since: 0,
            image: SecureStateImage::seal(&state_key, 0, Vec::new()),
            journal: WriteAheadJournal::new(state_key),
            counter: MonotonicCounter::new(),
        });
        if self.sealed {
            self.checkpoint_inner();
        }
    }

    /// Whether the crash-consistency layer is on.
    pub fn journal_enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// Whether a torn burst killed this boot (power died mid-write).
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// The persisted surface (image + journal) as it would be found
    /// after a power cut. `None` when journaling is off.
    pub fn persistent_state(&self) -> Option<PersistentState> {
        self.journal.as_ref().map(|js| PersistentState {
            image: js.image.clone(),
            journal: js.journal.clone(),
        })
    }

    /// The on-chip monotonic counter (survives power cuts by
    /// construction). `None` when journaling is off.
    pub fn anti_rollback_counter(&self) -> Option<&MonotonicCounter> {
        self.journal.as_ref().map(|js| &js.counter)
    }

    /// Force a checkpoint now (SoC-level secure-state capture). Returns
    /// the modeled cycles, 0 when journaling is off.
    pub fn force_checkpoint(&mut self) -> u64 {
        if self.journal.is_some() && self.sealed {
            self.checkpoint_inner()
        } else {
            0
        }
    }

    /// Fold the current volatile state into a fresh image, ratchet the
    /// counter, truncate the journal.
    fn checkpoint_inner(&mut self) -> u64 {
        let regions: Vec<RegionImage> = self
            .regions
            .iter()
            .map(|r| match r.protection {
                Protection::None => RegionImage {
                    root: None,
                    timestamps: Vec::new(),
                },
                _ => RegionImage {
                    root: r.tree.as_ref().map(|t| t.root()),
                    timestamps: r.timestamps.tags().to_vec(),
                },
            })
            .collect();
        let js = self.journal.as_mut().expect("checkpoint without journal");
        let seq = js.counter.value() + 1;
        js.image = SecureStateImage::seal(&js.key, seq, regions);
        let ratcheted = js.counter.ratchet_to(seq);
        debug_assert!(ratcheted, "counter+1 is always forward");
        js.journal.truncate();
        js.commits_since = 0;
        self.stats.incr("lcf.checkpoints");
        // One image-slot write plus the counter ratchet.
        JOURNAL_PERSIST_CYCLES * 2
    }

    /// Fault injection: the next hash-tree verification flips its verdict
    /// (a clean block looks tampered; a tampered one looks clean).
    pub fn inject_ic_glitch(&mut self) {
        self.ic_glitch = true;
    }

    /// Fault injection: the next cipher pass garbles its output.
    pub fn inject_cc_glitch(&mut self) {
        self.cc_glitch = true;
    }

    /// Set the IC-failure degradation mode of the region containing
    /// `addr`. Returns `false` if no region covers it.
    pub fn set_ic_failure_mode(&mut self, addr: u32, mode: IcFailureMode) -> bool {
        match self.region_of(addr) {
            Some(i) => {
                self.regions[i].ic_failure = mode;
                true
            }
            None => false,
        }
    }

    /// The current region layout as passive configs (reports, recovery).
    pub fn region_configs(&self) -> Vec<LcfRegionConfig> {
        self.regions
            .iter()
            .map(|r| LcfRegionConfig {
                base: r.base,
                len: r.len,
                protection: r.protection,
                key: None, // keys never leave the sealed state
                ic_failure: r.ic_failure,
            })
            .collect()
    }

    /// Override the embedded Security Builder timing.
    pub fn with_sb_timing(mut self, timing: SbTiming) -> Self {
        self.fw = std::mem::replace(
            &mut self.fw,
            LocalFirewall::new(FirewallId(0), "", ConfigMemory::new()),
        )
        .with_timing(timing);
        self
    }

    /// Seal the external memory: encrypt every protected region's current
    /// (boot-image) contents in place and build the integrity trees.
    /// Returns the cycles the operation would take (boot-time cost).
    pub fn seal(&mut self, ddr: &mut ExternalDdr) -> u64 {
        assert!(!self.sealed, "seal() must run exactly once");
        let cache_entries = self.ic_cache_entries;
        let mut cycles = 0;
        for region in &mut self.regions {
            if region.protection == Protection::None {
                continue;
            }
            let cipher = region.cipher.as_ref().expect("protected region has a key");
            let dev_off = region.base - self.ddr_base;
            let mut buf = ddr.snoop(dev_off, region.len).to_vec();
            cipher.apply(u64::from(region.base), 0, &mut buf);
            self.stats
                .add("lcf.cc_bytes_ciphered", u64::from(region.len));
            cycles += self.timing.cc_stream_cycles(u64::from(region.len) * 8);
            ddr.tamper(dev_off, &buf);
            if region.protection == Protection::CipherIntegrity {
                let leaves: Vec<_> = buf
                    .chunks_exact(PROTECTION_BLOCK as usize)
                    .enumerate()
                    .map(|(i, chunk)| leaf_digest(i as u64, 0, chunk))
                    .collect();
                region.tree = Some(MerkleTree::build(&leaves));
                region.ic_cache = cache_entries.map(NodeCache::new);
                cycles += self.timing.ic_stream_cycles(u64::from(region.len) * 8);
            }
        }
        self.sealed = true;
        if self.journal.is_some() {
            cycles += self.checkpoint_inner();
        }
        self.stats.add("lcf.seal_cycles", cycles);
        cycles
    }

    /// Whether [`LocalCipheringFirewall::seal`] has run.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Index of the region containing `addr`: the last-hit slot first
    /// (bursts overwhelmingly stay in one region), then a binary search
    /// over the base-sorted, non-overlapping region table.
    fn region_of(&mut self, addr: u32) -> Option<usize> {
        if let Some(i) = self.last_region {
            if self.regions[i].contains(addr) {
                return Some(i);
            }
        }
        let found = Self::region_index(&self.regions, addr);
        if found.is_some() {
            self.last_region = found;
        }
        found
    }

    /// Binary search over regions sorted by base (the order
    /// [`ConfigMemory`] maintains for its policies).
    fn region_index(regions: &[Region], addr: u32) -> Option<usize> {
        let idx = regions.partition_point(|r| r.base <= addr);
        idx.checked_sub(1).filter(|&i| regions[i].contains(addr))
    }

    /// Handle one transaction against the external memory.
    ///
    /// On a violation (policy or integrity) the access is discarded and
    /// `Err((violation, cycles_spent))` is returned; the data never moves.
    pub fn handle(
        &mut self,
        ddr: &mut ExternalDdr,
        txn: &Transaction,
        now: Cycle,
    ) -> Result<LcfAccess, (Violation, u64)> {
        debug_assert!(self.sealed, "handle() before seal()");
        let decision = self.fw.check(txn, now);
        let mut latency = decision.latency;
        if !decision.allowed {
            return Err((
                decision.violation.expect("denied without violation"),
                latency,
            ));
        }

        let Some(region_idx) = self.region_of(txn.addr) else {
            // A policy allowed it but no region covers it — treat like an
            // unprotected direct access (policy region == crypto region by
            // construction, so this only happens for Protection::None).
            return self.direct_access(ddr, txn, latency);
        };
        if self.regions[region_idx].protection == Protection::None {
            return self.direct_access(ddr, txn, latency);
        }

        // Protected path: operate on the containing 16-byte block.
        let block_bus_addr = txn.addr & !(PROTECTION_BLOCK - 1);
        let dev_off = block_bus_addr - self.ddr_base;
        latency += ddr.latency(dev_off, txn.op == Op::Write);

        let region = &mut self.regions[region_idx];
        let block_idx = region.block_index(txn.addr);
        let ts = region.timestamps.get(block_idx);
        let mut block: [u8; 16] = ddr
            .snoop(dev_off, PROTECTION_BLOCK)
            .try_into()
            .expect("16-byte block");

        // Integrity Core: verify the stored ciphertext against the tree.
        // Under brownout the read-path verification (and its IC cycles)
        // is skipped — the CipherOnly posture — while writes below still
        // keep the tree current, so leaving the brownout restores full
        // verification with no rebuild, and a tamper landed during the
        // brownout fails the first post-brownout verify of its block.
        if region.protection == Protection::CipherIntegrity && self.brownout {
            self.stats.incr_slot(LcfCounter::BrownoutSkippedVerifies);
        } else if region.protection == Protection::CipherIntegrity {
            let expected = leaf_digest(block_idx as u64, ts, &block);
            let tree = region.tree.as_ref().expect("integrity region has a tree");
            let full_levels = tree.height();
            let (raw_verdict, levels, cache_hit) = match region.ic_cache.as_mut() {
                Some(cache) => {
                    let v = tree.verify_leaf_cached(block_idx, &expected, cache);
                    self.stats.incr_slot(if v.cache_hit {
                        LcfCounter::IcCacheHits
                    } else {
                        LcfCounter::IcCacheMisses
                    });
                    (v.verified, v.levels_hashed, v.cache_hit)
                }
                None => (tree.verify_leaf(block_idx, &expected), full_levels, false),
            };
            let charged = self.timing.ic_verify_cycles(levels);
            latency += charged;
            self.stats.add_slot(LcfCounter::IcCycles, charged);
            self.stats
                .record_slot(LcfHistogram::IcVerifyCycles, charged);
            if let Some(t) = &self.tracer {
                t.record(
                    now,
                    TraceEvent::IcVerify {
                        txn: txn.id.0,
                        cycles: charged,
                        cache_hit,
                    },
                );
            }
            if region.ic_cache.is_some() {
                self.stats.add_slot(
                    LcfCounter::IcCyclesSaved,
                    self.timing.ic_verify_cycles(full_levels) - charged,
                );
            }
            let mut verified = raw_verdict;
            if self.ic_glitch {
                // Transient IC mis-computation: the verdict is inverted
                // for this one verification.
                self.ic_glitch = false;
                self.stats.incr("lcf.fault.ic_glitches");
                verified = !verified;
            }
            if !verified {
                self.stats.incr("lcf.integrity_failures");
                match region.ic_failure {
                    IcFailureMode::BlockReads => {
                        let d = self
                            .fw
                            .note_violation(txn, Violation::IntegrityMismatch, now);
                        debug_assert!(!d.allowed);
                        return Err((Violation::IntegrityMismatch, latency));
                    }
                    IcFailureMode::ServeWithAlert => {
                        // Degraded operation: keep the region live, but the
                        // monitor hears about every doubtful serve.
                        self.stats.incr("lcf.degraded_serves");
                        self.fw.raise_alert(txn, Violation::IntegrityMismatch, now);
                    }
                }
            }
        }

        // Confidentiality Core: decrypt.
        latency += self.timing.cc_latency;
        if let Some(t) = &self.tracer {
            t.record(
                now,
                TraceEvent::CcCipher {
                    txn: txn.id.0,
                    encrypt: false,
                    latency: self.timing.cc_latency,
                },
            );
        }
        let cipher = region.cipher.as_ref().expect("ciphered region has a key");
        let mut plain = block;
        cipher.apply(u64::from(block_bus_addr), ts, &mut plain);
        self.stats
            .add_slot(LcfCounter::CcBytesCiphered, u64::from(PROTECTION_BLOCK));
        if self.cc_glitch {
            // Transient CC mis-computation: the decrypted block is garbled.
            self.cc_glitch = false;
            self.stats.incr("lcf.fault.cc_glitches");
            for b in &mut plain {
                *b ^= 0xA5;
            }
        }

        let offset_in_block = (txn.addr - block_bus_addr) as usize;
        match txn.op {
            Op::Read => {
                let mut raw = [0u8; 4];
                let n = txn.width.bytes() as usize;
                raw[..n].copy_from_slice(&plain[offset_in_block..offset_in_block + n]);
                self.stats.incr_slot(LcfCounter::ProtectedReads);
                Ok(LcfAccess {
                    data: u32::from_le_bytes(raw),
                    latency,
                })
            }
            Op::Write => {
                // Read-modify-write: patch, bump the time-stamp, re-seal.
                let n = txn.width.bytes() as usize;
                plain[offset_in_block..offset_in_block + n]
                    .copy_from_slice(&txn.data.to_le_bytes()[..n]);
                let new_ts = region.timestamps.bump(block_idx);
                block = plain;
                cipher.apply(u64::from(block_bus_addr), new_ts, &mut block);
                self.stats
                    .add_slot(LcfCounter::CcBytesCiphered, u64::from(PROTECTION_BLOCK));
                latency += self.timing.cc_latency; // re-encryption pass
                if let Some(t) = &self.tracer {
                    t.record(
                        now,
                        TraceEvent::CcCipher {
                            txn: txn.id.0,
                            encrypt: true,
                            latency: self.timing.cc_latency,
                        },
                    );
                }

                // Volatile tree update *before* the DDR burst: the
                // shadow root must exist when the journal intent is
                // persisted, so recovery always has a post-state root.
                let mut new_root = None;
                if region.protection == Protection::CipherIntegrity {
                    let new_leaf = leaf_digest(block_idx as u64, new_ts, &block);
                    let tree = region.tree.as_mut().expect("integrity region has a tree");
                    let full_levels = tree.height();
                    let levels = match region.ic_cache.as_mut() {
                        Some(cache) => tree.update_leaf_cached(block_idx, new_leaf, cache),
                        None => tree.update_leaf(block_idx, new_leaf),
                    };
                    let charged = self.timing.ic_verify_cycles(levels);
                    latency += charged;
                    self.stats.add_slot(LcfCounter::IcCycles, charged);
                    self.stats
                        .record_slot(LcfHistogram::IcVerifyCycles, charged);
                    if region.ic_cache.is_some() {
                        self.stats.add_slot(
                            LcfCounter::IcCyclesSaved,
                            self.timing.ic_verify_cycles(full_levels) - charged,
                        );
                    }
                    if let Some(t) = &self.tracer {
                        t.record(
                            now,
                            TraceEvent::IcVerify {
                                txn: txn.id.0,
                                cycles: charged,
                                cache_hit: levels < full_levels,
                            },
                        );
                    }
                    new_root = Some(tree.root());
                }

                // Phase 1: persist the intent before any DDR bit moves.
                let write_id = match self.journal.as_mut() {
                    Some(js) => {
                        let id = js.journal.begin(IntentRecord {
                            seq: js.image.seq,
                            write_id: 0, // assigned by the journal
                            region: region_idx,
                            block: block_idx,
                            new_ts,
                            new_leaf: leaf_digest(block_idx as u64, new_ts, &block),
                            new_root,
                        });
                        latency += JOURNAL_PERSIST_CYCLES;
                        self.stats.incr_slot(LcfCounter::JournalAppends);
                        Some(id)
                    }
                    None => None,
                };

                // The DDR burst — the one window a torn write can hit.
                if let Some(keep) = ddr.take_tear() {
                    // Power died mid-burst: a prefix lands, the rest of
                    // the block keeps its old bits, and the commit mark
                    // is never written.
                    let keep = (keep as usize).min(block.len());
                    ddr.tamper(dev_off, &block[..keep]);
                    self.crashed = true;
                    self.stats.incr("lcf.torn_bursts");
                    return Ok(LcfAccess { data: 0, latency });
                }
                ddr.tamper(dev_off, &block);
                latency += ddr.latency(dev_off, true);

                // Phase 2: the commit mark, and maybe a checkpoint fold.
                if let Some(id) = write_id {
                    let js = self.journal.as_mut().expect("journal present in phase 1");
                    js.journal.commit(id);
                    js.commits_since += 1;
                    latency += JOURNAL_PERSIST_CYCLES;
                    self.stats.incr_slot(LcfCounter::JournalCommits);
                    if let Some(t) = &self.tracer {
                        t.record(now, TraceEvent::JournalCommit { txn: txn.id.0 });
                    }
                    let due = js.commits_since >= js.interval;
                    if due {
                        latency += self.checkpoint_inner();
                    }
                }

                self.stats.incr_slot(LcfCounter::ProtectedWrites);
                Ok(LcfAccess { data: 0, latency })
            }
        }
    }

    fn direct_access(
        &mut self,
        ddr: &mut ExternalDdr,
        txn: &Transaction,
        mut latency: u64,
    ) -> Result<LcfAccess, (Violation, u64)> {
        use secbus_mem::MemDevice;
        let dev_off = txn.addr - self.ddr_base;
        latency += ddr.latency(dev_off, txn.op == Op::Write);
        self.stats.incr_slot(LcfCounter::UnprotectedAccesses);
        match txn.op {
            Op::Read => match ddr.read(dev_off, txn.width) {
                Ok(data) => Ok(LcfAccess { data, latency }),
                Err(_) => Err((Violation::RegionOverrun, latency)),
            },
            Op::Write => match ddr.write(dev_off, txn.width, txn.data) {
                Ok(()) => Ok(LcfAccess { data: 0, latency }),
                Err(_) => Err((Violation::RegionOverrun, latency)),
            },
        }
    }

    /// Roll the Cryptographic Key of the region containing `region_addr`
    /// to `new_key`: every protection block is decrypted under the old key
    /// and re-sealed under the new one, and the integrity tree is rebuilt
    /// over the fresh ciphertext. Returns the cycles the operation costs
    /// (one CC stream pass per direction plus an IC rebuild), or an error
    /// if the address is not inside a ciphered region.
    ///
    /// This is the CK half of the paper's §VI "reconfiguration of security
    /// services": after a suspected key compromise the region is re-keyed
    /// in place without rebooting the system.
    pub fn rekey(
        &mut self,
        ddr: &mut ExternalDdr,
        region_addr: u32,
        new_key: [u8; 16],
    ) -> Result<u64, RekeyError> {
        debug_assert!(self.sealed, "rekey() before seal()");
        let ddr_base = self.ddr_base;
        let timing = self.timing;
        let region_idx = self.region_of(region_addr).ok_or(RekeyError::NoRegion)?;
        let region = &mut self.regions[region_idx];
        if region.protection == Protection::None {
            return Err(RekeyError::NotCiphered);
        }
        let old_cipher = region.cipher.as_ref().expect("ciphered region has a key");
        let new_cipher = MemoryCipher::new(&new_key);
        let dev_off = region.base - ddr_base;
        let mut cycles = 0;

        let mut new_leaves = Vec::new();
        let blocks = (region.len / PROTECTION_BLOCK) as usize;
        for i in 0..blocks {
            let block_off = dev_off + i as u32 * PROTECTION_BLOCK;
            let bus_addr = u64::from(region.base) + u64::from(i as u32 * PROTECTION_BLOCK);
            let ts = region.timestamps.get(i);
            let mut block: [u8; 16] = ddr
                .snoop(block_off, PROTECTION_BLOCK)
                .try_into()
                .expect("16-byte block");
            old_cipher.apply(bus_addr, ts, &mut block); // decrypt
            new_cipher.apply(bus_addr, ts, &mut block); // re-encrypt
            ddr.tamper(block_off, &block);
            if region.protection == Protection::CipherIntegrity {
                new_leaves.push(leaf_digest(i as u64, ts, &block));
            }
        }
        cycles += 2 * timing.cc_stream_cycles(u64::from(region.len) * 8);
        if region.protection == Protection::CipherIntegrity {
            region.tree = Some(MerkleTree::build(&new_leaves));
            region.ic_cache = self.ic_cache_entries.map(NodeCache::new);
            cycles += timing.ic_stream_cycles(u64::from(region.len) * 8);
        }
        region.cipher = Some(new_cipher);
        self.stats
            .add("lcf.cc_bytes_ciphered", 2 * u64::from(region.len));
        self.stats.incr("lcf.rekeys");
        self.stats.add("lcf.rekey_cycles", cycles);
        Ok(cycles)
    }

    /// Rebuild the integrity tree of the region containing `region_addr`
    /// from the ciphertext currently in memory (quarantine recovery: after
    /// a burst of faults the tree state is re-baselined rather than left
    /// permanently poisoned). Returns the IC cycles the rebuild costs;
    /// cipher-only regions rebuild nothing and cost 0.
    ///
    /// Note the trust consequence: whatever is in external memory at
    /// rebuild time becomes the new baseline. Tampering *after* the
    /// rebuild is detected as usual, but the rebuild itself cannot tell a
    /// fault-garbled block from a genuine one — which is why the SoC only
    /// triggers it as part of an explicit quarantine-recovery policy.
    pub fn rebuild_region(
        &mut self,
        ddr: &mut ExternalDdr,
        region_addr: u32,
    ) -> Result<u64, RekeyError> {
        debug_assert!(self.sealed, "rebuild_region() before seal()");
        let ddr_base = self.ddr_base;
        let timing = self.timing;
        let region_idx = self.region_of(region_addr).ok_or(RekeyError::NoRegion)?;
        let region = &mut self.regions[region_idx];
        if region.protection == Protection::None {
            return Err(RekeyError::NotCiphered);
        }
        if region.protection != Protection::CipherIntegrity {
            return Ok(0);
        }
        let dev_off = region.base - ddr_base;
        let blocks = (region.len / PROTECTION_BLOCK) as usize;
        let leaves: Vec<_> = (0..blocks)
            .map(|i| {
                let block: [u8; 16] = ddr
                    .snoop(dev_off + i as u32 * PROTECTION_BLOCK, PROTECTION_BLOCK)
                    .try_into()
                    .expect("16-byte block");
                leaf_digest(i as u64, region.timestamps.get(i), &block)
            })
            .collect();
        region.tree = Some(MerkleTree::build(&leaves));
        region.ic_cache = self.ic_cache_entries.map(NodeCache::new);
        let cycles = timing.ic_stream_cycles(u64::from(region.len) * 8);
        self.stats.incr("lcf.tree_rebuilds");
        self.stats.add("lcf.rebuild_cycles", cycles);
        Ok(cycles)
    }

    /// The protection level at `addr`, if a region covers it.
    pub fn protection_at(&self, addr: u32) -> Option<Protection> {
        Self::region_index(&self.regions, addr).map(|i| self.regions[i].protection)
    }

    /// Number of protection blocks in region `idx` (0 for unprotected).
    fn region_blocks(region: &Region) -> usize {
        match region.protection {
            Protection::None => 0,
            _ => (region.len / PROTECTION_BLOCK).max(1) as usize,
        }
    }

    /// Does the image's shape match this LCF's region layout?
    fn image_shape_ok(&self, image: &SecureStateImage) -> bool {
        image.regions.len() == self.regions.len()
            && self.regions.iter().zip(&image.regions).all(|(r, ri)| {
                ri.timestamps.len() == Self::region_blocks(r)
                    && ri.root.is_some() == (r.protection == Protection::CipherIntegrity)
            })
    }

    /// Build placeholder volatile state from whatever is in DDR (used on
    /// a quarantined boot so the object stays consistent while blocked).
    fn adopt_ddr_state(&mut self, ddr: &ExternalDdr) {
        let ddr_base = self.ddr_base;
        let cache_entries = self.ic_cache_entries;
        for region in &mut self.regions {
            if region.protection != Protection::CipherIntegrity {
                continue;
            }
            let dev_off = region.base - ddr_base;
            let leaves: Vec<Digest> = (0..Self::region_blocks(region))
                .map(|i| {
                    let block: [u8; 16] = ddr
                        .snoop(dev_off + i as u32 * PROTECTION_BLOCK, PROTECTION_BLOCK)
                        .try_into()
                        .expect("16-byte block");
                    leaf_digest(i as u64, region.timestamps.get(i), &block)
                })
                .collect();
            region.tree = Some(MerkleTree::build(&leaves));
            region.ic_cache = cache_entries.map(NodeCache::new);
        }
    }

    /// Fail-secure end of a recovery boot: adopt placeholder state,
    /// block the firewall, record why.
    fn quarantine_boot(
        &mut self,
        ddr: &ExternalDdr,
        mut report: RecoveryReport,
        evidence: TamperEvidence,
    ) -> RecoveryReport {
        self.adopt_ddr_state(ddr);
        self.sealed = true;
        self.fw.block();
        self.stats.incr("lcf.recovery_quarantines");
        self.stats
            .incr(&format!("lcf.recovery_quarantine.{}", evidence.mnemonic()));
        report.outcome = RecoveryOutcome::Quarantined(evidence);
        report
    }

    /// Boot-time recovery: reconstruct the secure state from the
    /// persisted surface instead of sealing a fresh boot image.
    ///
    /// This replaces [`LocalCipheringFirewall::seal`] on a resume boot:
    /// `ddr` holds the ciphertext that survived the power cut, `state`
    /// is the (attacker-reachable) image + journal, `state_key` is the
    /// on-chip key and `counter` the on-chip anti-rollback ratchet
    /// (`None` models a journal-less design, which skips the rollback
    /// check and has no journal to replay).
    ///
    /// The procedure distinguishes crash artifacts from tampering:
    ///
    /// 1. authenticate the image (MAC + shape) — else quarantine;
    /// 2. compare `image.seq` with the counter — behind = rollback
    ///    attack, far ahead = forgery, one ahead = crash mid-checkpoint
    ///    (ratchet and continue);
    /// 3. replay the journal under *our* key: a torn tail is discarded
    ///    (crash artifact), a protocol violation is forgery;
    /// 4. fold committed records into the image state; the at-most-one
    ///    dangling intent is resolved against DDR via Merkle-proof
    ///    surgery — burst absent → roll back, complete → roll forward,
    ///    half-landed with every *other* block consistent → repair the
    ///    single torn block (bounded, logged data loss); anything else
    ///    is tampering;
    /// 5. rebuild the volatile trees and, when a counter was supplied,
    ///    open a fresh checkpoint epoch.
    ///
    /// On success the region state is live; on quarantine the embedded
    /// firewall is blocked and every access is refused until an
    /// explicit administrative release.
    pub fn recover_from(
        &mut self,
        ddr: &mut ExternalDdr,
        state: &PersistentState,
        state_key: [u8; 16],
        counter: Option<MonotonicCounter>,
        interval: u64,
    ) -> RecoveryReport {
        assert!(
            !self.sealed,
            "recover_from() replaces seal() on a resume boot"
        );
        let mut report = RecoveryReport {
            outcome: RecoveryOutcome::Clean,
            replayed: 0,
            rolled_forward: 0,
            rolled_back: 0,
            repaired_blocks: 0,
            torn_discarded: 0,
            stale_discarded: 0,
            cycles: 0,
        };

        // 1. Authenticate the image.
        if !state.image.verify(&state_key) || !self.image_shape_ok(&state.image) {
            return self.quarantine_boot(ddr, report, TamperEvidence::BadImage);
        }

        // 2. Anti-rollback.
        let mut counter = counter;
        if let Some(c) = counter.as_mut() {
            if state.image.seq < c.value() {
                return self.quarantine_boot(ddr, report, TamperEvidence::RolledBackImage);
            }
            if state.image.seq > c.value() + 1 {
                return self.quarantine_boot(ddr, report, TamperEvidence::ForgedSequence);
            }
            // Equal, or one ahead (crash between image write and
            // ratchet): bring the ratchet up to date.
            c.ratchet_to(state.image.seq);
        }

        // 3. Replay the journal under OUR key — never the journal's.
        let replay = state.journal.replay_with(&state_key);
        report.torn_discarded = replay.torn_discarded as u64;
        report.cycles += JOURNAL_PERSIST_CYCLES * state.journal.len() as u64;
        if replay.forged {
            return self.quarantine_boot(ddr, report, TamperEvidence::ForgedJournal);
        }

        // 4a. Fold records into the image state.
        let mut ts: Vec<Vec<u64>> = state
            .image
            .regions
            .iter()
            .map(|r| r.timestamps.clone())
            .collect();
        let mut roots: Vec<Option<Digest>> = state.image.regions.iter().map(|r| r.root).collect();
        let mut dangling: Option<IntentRecord> = None;
        for (rec, committed) in &replay.writes {
            if rec.seq < state.image.seq {
                // Folded into the image by the checkpoint that bumped
                // seq; a crash between ratchet and truncate leaves them.
                report.stale_discarded += 1;
                continue;
            }
            let in_range = rec.seq == state.image.seq
                && rec.region < self.regions.len()
                && rec.block < ts[rec.region].len()
                && (self.regions[rec.region].protection == Protection::CipherIntegrity)
                    == rec.new_root.is_some();
            if !in_range {
                return self.quarantine_boot(ddr, report, TamperEvidence::ForgedJournal);
            }
            if *committed {
                ts[rec.region][rec.block] = rec.new_ts;
                if let Some(r) = rec.new_root {
                    roots[rec.region] = Some(r);
                }
                report.replayed += 1;
            } else {
                // replay() guarantees only the final write can dangle.
                dangling = Some(rec.clone());
            }
        }

        // 4b. Reconcile every region with the DDR contents. Each
        // integrity region's tree is built from DDR exactly once here and
        // kept for installation in 5b (with at most one leaf patched),
        // instead of being rebuilt from scratch a second time.
        let ddr_base = self.ddr_base;
        let timing = self.timing;
        let mut repairs: Vec<(usize, usize, u64)> = Vec::new();
        let mut rebuilt: Vec<Option<MerkleTree>> = (0..self.regions.len()).map(|_| None).collect();
        let mut evidence: Option<TamperEvidence> = None;
        for (idx, region) in self.regions.iter().enumerate() {
            let in_flight = dangling.as_ref().filter(|r| r.region == idx);
            match region.protection {
                Protection::None => {}
                Protection::CipherOnly => {
                    if in_flight.is_some() {
                        // No tree: whether the burst landed is not
                        // observable. Roll back deterministically — the
                        // write was never acknowledged; if the burst did
                        // land the block reads garbled, which is inside
                        // the cipher-only threat model.
                        report.rolled_back += 1;
                    }
                }
                Protection::CipherIntegrity => {
                    let expected_root = roots[idx].expect("shape-checked above");
                    let dev_off = region.base - ddr_base;
                    let blocks = Self::region_blocks(region);
                    let leaf_at = |i: usize, t: u64| {
                        let block: [u8; 16] = ddr
                            .snoop(dev_off + i as u32 * PROTECTION_BLOCK, PROTECTION_BLOCK)
                            .try_into()
                            .expect("16-byte block");
                        leaf_digest(i as u64, t, &block)
                    };
                    let ddr_leaves: Vec<Digest> =
                        (0..blocks).map(|i| leaf_at(i, ts[idx][i])).collect();
                    report.cycles += timing.ic_stream_cycles(u64::from(region.len) * 8);
                    let mut ddr_tree = MerkleTree::build(&ddr_leaves);
                    let Some(rec) = in_flight else {
                        if ddr_tree.root() != expected_root {
                            evidence = Some(TamperEvidence::RootMismatch { region: idx });
                            break;
                        }
                        rebuilt[idx] = Some(ddr_tree);
                        continue;
                    };
                    // One write was in flight at the crash. Its sibling
                    // path is a function of the OTHER blocks only, so it
                    // can arbitrate all three crash windows.
                    let b = rec.block;
                    let shadow_root = rec.new_root.expect("checked in 4a");
                    let path = ddr_tree.proof(b);
                    let ddr_leaf_old = ddr_leaves[b];
                    let ddr_leaf_new = leaf_at(b, rec.new_ts);
                    let others_match_shadow =
                        MerkleTree::verify_proof(&shadow_root, b, &rec.new_leaf, &path);
                    if MerkleTree::verify_proof(&expected_root, b, &ddr_leaf_old, &path) {
                        // Burst never started: pre-state intact.
                        report.rolled_back += 1;
                    } else if ddr_leaf_new == rec.new_leaf && others_match_shadow {
                        // Burst completed: finish the commit.
                        ts[idx][b] = rec.new_ts;
                        roots[idx] = Some(shadow_root);
                        report.rolled_forward += 1;
                        ddr_tree.update_leaf(b, rec.new_leaf);
                    } else if others_match_shadow {
                        // Every block EXCEPT the in-flight one is
                        // consistent with the shadow root: the burst
                        // half-landed. Crash artifact, confined to block
                        // `b` — repair it, count the loss. The stored
                        // tree gets its `b` leaf patched in 5a once the
                        // repaired ciphertext exists.
                        repairs.push((idx, b, rec.new_ts));
                        ts[idx][b] = rec.new_ts;
                        report.repaired_blocks += 1;
                    } else {
                        // Neither pre- nor post-state explains the other
                        // blocks: tampering, not a crash.
                        evidence = Some(TamperEvidence::RootMismatch { region: idx });
                        break;
                    }
                    rebuilt[idx] = Some(ddr_tree);
                }
            }
        }
        if let Some(ev) = evidence {
            return self.quarantine_boot(ddr, report, ev);
        }

        // 5a. Repair torn blocks: deterministic re-initialization (zero
        // plaintext sealed under the recorded tag). The content is lost
        // — and logged — but confidentiality and freshness are not.
        for &(ridx, b, new_ts) in &repairs {
            let region = &self.regions[ridx];
            let cipher = region.cipher.as_ref().expect("integrity region has a key");
            let dev_off = region.base - ddr_base + b as u32 * PROTECTION_BLOCK;
            let bus_addr = u64::from(region.base) + u64::from(b as u32 * PROTECTION_BLOCK);
            let mut block = [0u8; PROTECTION_BLOCK as usize];
            cipher.apply(bus_addr, new_ts, &mut block);
            ddr.tamper(dev_off, &block);
            rebuilt[ridx]
                .as_mut()
                .expect("repaired region was reconciled in 4b")
                .update_leaf(b, leaf_digest(b as u64, new_ts, &block));
            report.cycles += timing.cc_latency + JOURNAL_PERSIST_CYCLES;
        }

        // 5b. Install the recovered volatile state — the trees built
        // during reconciliation, not a second from-scratch rebuild.
        let cache_entries = self.ic_cache_entries;
        for (idx, region) in self.regions.iter_mut().enumerate() {
            if region.protection == Protection::None {
                continue;
            }
            region.timestamps = TimestampTable::from_tags(ts[idx].clone());
            if region.protection == Protection::CipherIntegrity {
                let tree = rebuilt[idx]
                    .take()
                    .expect("integrity region was reconciled in 4b");
                debug_assert!(
                    !repairs.is_empty() || roots[idx].is_none_or(|r| r == tree.root()),
                    "non-repaired region must reproduce its authenticated root"
                );
                region.tree = Some(tree);
                region.ic_cache = cache_entries.map(NodeCache::new);
            }
        }
        self.sealed = true;
        let disturbed = report.rolled_forward
            + report.rolled_back
            + report.repaired_blocks
            + report.torn_discarded
            + report.stale_discarded;
        report.outcome = if disturbed > 0 {
            RecoveryOutcome::Repaired
        } else {
            RecoveryOutcome::Clean
        };
        self.stats.incr("lcf.recoveries");
        if report.repaired_blocks > 0 {
            self.stats
                .add("lcf.recovery_repaired_blocks", report.repaired_blocks);
        }

        // 5c. Open a fresh checkpoint epoch under the surviving counter.
        if let Some(c) = counter {
            self.journal = Some(JournalState {
                key: state_key,
                interval,
                commits_since: 0,
                image: SecureStateImage::seal(&state_key, 0, Vec::new()),
                journal: WriteAheadJournal::new(state_key),
                counter: c,
            });
            report.cycles += self.checkpoint_inner();
        }
        report
    }

    /// Alerts raised since the last drain (policy + integrity).
    pub fn drain_alerts(&mut self) -> Vec<Alert> {
        self.fw.drain_alerts()
    }

    /// Move the embedded firewall's pending alerts onto the end of `out`
    /// (see [`LocalFirewall::drain_alerts_into`]).
    pub fn drain_alerts_into(&mut self, out: &mut Vec<Alert>) {
        self.fw.drain_alerts_into(out);
    }

    /// Whether alerts are waiting to be drained (event-core skip check).
    pub fn has_pending_alerts(&self) -> bool {
        self.fw.has_pending_alerts()
    }

    /// The embedded Local Firewall (policy table, id, block state).
    pub fn firewall(&self) -> &LocalFirewall {
        &self.fw
    }

    /// Mutable access to the embedded firewall (reconfiguration, blocking).
    pub fn firewall_mut(&mut self) -> &mut LocalFirewall {
        &mut self.fw
    }

    /// The crypto timing parameters in force.
    pub fn timing(&self) -> CryptoTiming {
        self.timing
    }

    /// LCF-specific statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The crypto backend the Confidentiality Core's batched hot path
    /// actually runs on (`soft` or `accel`).
    ///
    /// Deliberately an accessor and **not** a [`Stats`] counter: backend
    /// identity is host trivia, and keeping it out of the stats keeps
    /// metrics snapshots — and therefore every soak JSON — byte-identical
    /// whichever backend the host selected (the `ticks_executed` rule).
    pub fn cc_backend(&self) -> CryptoBackend {
        self.regions
            .iter()
            .find_map(|r| r.cipher.as_ref().map(MemoryCipher::backend))
            .unwrap_or_else(secbus_crypto::active_backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AdfSet, Rwa};
    use secbus_bus::{AddrRange, MasterId, TxnId, Width};

    const DDR_BASE: u32 = 0x8000_0000;
    const KEY: [u8; 16] = [0xAA; 16];

    fn make_unsealed() -> (LocalCipheringFirewall, ExternalDdr) {
        // 0x000..0x100: cipher+integrity, rw
        // 0x100..0x200: cipher only, rw
        // 0x200..0x300: unprotected, rw
        // 0x300..0x400: cipher+integrity, read-only
        let config = ConfigMemory::with_policies(vec![
            SecurityPolicy::external(
                1,
                AddrRange::new(DDR_BASE, 0x100),
                Rwa::ReadWrite,
                AdfSet::ALL,
                ConfidentialityMode::Encrypt,
                IntegrityMode::Verify,
                Some(KEY),
            ),
            SecurityPolicy::external(
                2,
                AddrRange::new(DDR_BASE + 0x100, 0x100),
                Rwa::ReadWrite,
                AdfSet::ALL,
                ConfidentialityMode::Encrypt,
                IntegrityMode::Bypass,
                Some([0xBB; 16]),
            ),
            SecurityPolicy::external(
                3,
                AddrRange::new(DDR_BASE + 0x200, 0x100),
                Rwa::ReadWrite,
                AdfSet::ALL,
                ConfidentialityMode::Bypass,
                IntegrityMode::Bypass,
                None,
            ),
            SecurityPolicy::external(
                4,
                AddrRange::new(DDR_BASE + 0x300, 0x100),
                Rwa::ReadOnly,
                AdfSet::ALL,
                ConfidentialityMode::Encrypt,
                IntegrityMode::Verify,
                Some(KEY),
            ),
        ])
        .unwrap();
        let mut ddr = ExternalDdr::new(0x1000);
        // Recognisable boot image.
        for i in 0..0x400u32 {
            ddr.load(i, &[(i % 251) as u8]);
        }
        let lcf = LocalCipheringFirewall::new(
            FirewallId(9),
            "LCF ext-mem",
            config,
            DDR_BASE,
            CryptoTiming::PAPER,
        );
        (lcf, ddr)
    }

    fn make_lcf() -> (LocalCipheringFirewall, ExternalDdr) {
        let (mut lcf, mut ddr) = make_unsealed();
        lcf.seal(&mut ddr);
        (lcf, ddr)
    }

    const STATE_KEY: [u8; 16] = [0xCC; 16];

    /// A journaled LCF (checkpoint every `interval` commits), sealed.
    fn make_journaled(interval: u64) -> (LocalCipheringFirewall, ExternalDdr) {
        let (mut lcf, mut ddr) = make_unsealed();
        lcf.enable_journal(interval, STATE_KEY);
        lcf.seal(&mut ddr);
        (lcf, ddr)
    }

    /// Model a reboot: capture the persisted surface + on-chip counter,
    /// build a fresh (unsealed) LCF and recover on the surviving DDR.
    fn reboot_and_recover(
        lcf: &LocalCipheringFirewall,
        ddr: &mut ExternalDdr,
        state: &PersistentState,
    ) -> (LocalCipheringFirewall, RecoveryReport) {
        let counter = lcf.anti_rollback_counter().expect("journaled").clone();
        let (mut fresh, _) = make_unsealed();
        let report = fresh.recover_from(ddr, state, STATE_KEY, Some(counter), 1024);
        (fresh, report)
    }

    fn txn(op: Op, addr: u32, width: Width, data: u32) -> Transaction {
        Transaction {
            id: TxnId(0),
            master: MasterId(0),
            op,
            addr,
            width,
            data,
            burst: 1,
            issued_at: Cycle(0),
        }
    }

    #[test]
    fn seal_encrypts_protected_regions_only() {
        let (_lcf, ddr) = make_lcf();
        // Protected region bytes no longer equal the boot image...
        assert_ne!(
            ddr.snoop(0, 16),
            &(0..16).map(|i| (i % 251) as u8).collect::<Vec<_>>()[..]
        );
        // ...but the unprotected region is untouched plaintext.
        let expect: Vec<u8> = (0x200..0x210).map(|i| (i % 251) as u8).collect();
        assert_eq!(ddr.snoop(0x200, 16), &expect[..]);
    }

    #[test]
    fn read_decrypts_sealed_contents() {
        let (mut lcf, mut ddr) = make_lcf();
        let r = lcf
            .handle(
                &mut ddr,
                &txn(Op::Read, DDR_BASE + 4, Width::Byte, 0),
                Cycle(0),
            )
            .unwrap();
        assert_eq!(r.data, 4);
        // SB (12) + DDR + IC (20) + CC (11) at least.
        assert!(r.latency >= 12 + 20 + 11, "latency {}", r.latency);
    }

    #[test]
    fn write_then_read_roundtrip_protected() {
        let (mut lcf, mut ddr) = make_lcf();
        let addr = DDR_BASE + 0x20;
        lcf.handle(
            &mut ddr,
            &txn(Op::Write, addr, Width::Word, 0xfeed_f00d),
            Cycle(1),
        )
        .unwrap();
        let r = lcf
            .handle(&mut ddr, &txn(Op::Read, addr, Width::Word, 0), Cycle(2))
            .unwrap();
        assert_eq!(r.data, 0xfeed_f00d);
        // The stored ciphertext is NOT the plaintext.
        assert_ne!(ddr.snoop(0x20, 4), &0xfeed_f00du32.to_le_bytes());
    }

    #[test]
    fn cipher_only_region_roundtrips() {
        let (mut lcf, mut ddr) = make_lcf();
        let addr = DDR_BASE + 0x140;
        lcf.handle(
            &mut ddr,
            &txn(Op::Write, addr, Width::Half, 0xbeef),
            Cycle(0),
        )
        .unwrap();
        let r = lcf
            .handle(&mut ddr, &txn(Op::Read, addr, Width::Half, 0), Cycle(1))
            .unwrap();
        assert_eq!(r.data, 0xbeef);
    }

    #[test]
    fn unprotected_region_is_plain_and_cheap() {
        let (mut lcf, mut ddr) = make_lcf();
        let addr = DDR_BASE + 0x240;
        lcf.handle(&mut ddr, &txn(Op::Write, addr, Width::Word, 77), Cycle(0))
            .unwrap();
        assert_eq!(ddr.snoop(0x240, 4), &77u32.to_le_bytes());
        let r = lcf
            .handle(&mut ddr, &txn(Op::Read, addr, Width::Word, 0), Cycle(1))
            .unwrap();
        assert_eq!(r.data, 77);
        // No crypto charge: latency < SB + IC.
        assert!(r.latency < 12 + 20, "latency {}", r.latency);
    }

    #[test]
    fn tampering_integrity_region_is_detected() {
        let (mut lcf, mut ddr) = make_lcf();
        // Attacker flips one stored bit in the protected region.
        let mut b = ddr.snoop(0x40, 16).to_vec();
        b[3] ^= 0x80;
        ddr.tamper(0x40, &b);
        let err = lcf
            .handle(
                &mut ddr,
                &txn(Op::Read, DDR_BASE + 0x40, Width::Word, 0),
                Cycle(5),
            )
            .unwrap_err();
        assert_eq!(err.0, Violation::IntegrityMismatch);
        assert_eq!(lcf.stats().counter("lcf.integrity_failures"), 1);
        let alerts = lcf.drain_alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].violation, Violation::IntegrityMismatch);
    }

    #[test]
    fn replayed_block_is_detected() {
        let (mut lcf, mut ddr) = make_lcf();
        let addr = DDR_BASE + 0x10;
        // Genuine v1 ciphertext.
        lcf.handle(&mut ddr, &txn(Op::Write, addr, Width::Word, 1), Cycle(0))
            .unwrap();
        let old = ddr.snoop(0x10, 16).to_vec();
        // Genuine v2 write.
        lcf.handle(&mut ddr, &txn(Op::Write, addr, Width::Word, 2), Cycle(1))
            .unwrap();
        // Attacker replays v1 ciphertext.
        ddr.tamper(0x10, &old);
        let err = lcf
            .handle(&mut ddr, &txn(Op::Read, addr, Width::Word, 0), Cycle(2))
            .unwrap_err();
        assert_eq!(err.0, Violation::IntegrityMismatch);
    }

    #[test]
    fn relocated_block_is_detected() {
        let (mut lcf, mut ddr) = make_lcf();
        // Copy ciphertext block 0x00 over block 0x40 (same region).
        let src = ddr.snoop(0x00, 16).to_vec();
        ddr.tamper(0x40, &src);
        let err = lcf
            .handle(
                &mut ddr,
                &txn(Op::Read, DDR_BASE + 0x40, Width::Word, 0),
                Cycle(0),
            )
            .unwrap_err();
        assert_eq!(err.0, Violation::IntegrityMismatch);
    }

    #[test]
    fn cipher_only_tamper_garbles_but_is_not_detected() {
        let (mut lcf, mut ddr) = make_lcf();
        let addr = DDR_BASE + 0x100;
        lcf.handle(
            &mut ddr,
            &txn(Op::Write, addr, Width::Word, 0x1234_5678),
            Cycle(0),
        )
        .unwrap();
        let mut b = ddr.snoop(0x100, 16).to_vec();
        b[0] ^= 0xff;
        ddr.tamper(0x100, &b);
        // The read "succeeds" (no integrity core on this region)…
        let r = lcf
            .handle(&mut ddr, &txn(Op::Read, addr, Width::Word, 0), Cycle(1))
            .unwrap();
        // …but the attacker could not choose the plaintext: it is garbled.
        assert_ne!(r.data, 0x1234_5678);
        assert_ne!(r.data, 0x1234_56FF);
    }

    #[test]
    fn readonly_policy_blocks_writes_before_crypto() {
        let (mut lcf, mut ddr) = make_lcf();
        let err = lcf
            .handle(
                &mut ddr,
                &txn(Op::Write, DDR_BASE + 0x300, Width::Word, 9),
                Cycle(0),
            )
            .unwrap_err();
        assert_eq!(err.0, Violation::UnauthorizedWrite);
        assert_eq!(err.1, 12, "discarded after the SB check only");
    }

    #[test]
    fn unmapped_address_denied() {
        let (mut lcf, mut ddr) = make_lcf();
        let err = lcf
            .handle(
                &mut ddr,
                &txn(Op::Read, DDR_BASE + 0x800, Width::Word, 0),
                Cycle(0),
            )
            .unwrap_err();
        assert_eq!(err.0, Violation::NoPolicy);
    }

    #[test]
    fn stream_cycle_model_matches_table2_throughput() {
        let t = CryptoTiming::PAPER;
        // 1 MiB stream at 100 MHz: throughput must come out at the paper's
        // numbers (± the latency term, negligible at this size).
        let bits = 8 * 1024 * 1024 * 8u64;
        let cc_mbps = bits as f64 / (t.cc_stream_cycles(bits) as f64 / 100e6) / 1e6;
        let ic_mbps = bits as f64 / (t.ic_stream_cycles(bits) as f64 / 100e6) / 1e6;
        assert!((cc_mbps - 450.0).abs() < 1.0, "CC {cc_mbps} Mb/s");
        assert!((ic_mbps - 131.0).abs() < 1.0, "IC {ic_mbps} Mb/s");
    }

    #[test]
    fn protection_levels_reported() {
        let (lcf, _) = make_lcf();
        assert_eq!(
            lcf.protection_at(DDR_BASE),
            Some(Protection::CipherIntegrity)
        );
        assert_eq!(
            lcf.protection_at(DDR_BASE + 0x180),
            Some(Protection::CipherOnly)
        );
        assert_eq!(lcf.protection_at(DDR_BASE + 0x2ff), Some(Protection::None));
        assert_eq!(lcf.protection_at(DDR_BASE + 0x900), None);
    }

    #[test]
    fn per_level_tree_cost_scales_with_region_size() {
        let make = |len: u32| {
            let config = ConfigMemory::with_policies(vec![SecurityPolicy::external(
                1,
                AddrRange::new(DDR_BASE, len),
                Rwa::ReadWrite,
                AdfSet::ALL,
                ConfidentialityMode::Encrypt,
                IntegrityMode::Verify,
                Some(KEY),
            )])
            .unwrap();
            let mut ddr = ExternalDdr::new(len);
            let mut lcf = LocalCipheringFirewall::new(
                FirewallId(0),
                "LCF",
                config,
                DDR_BASE,
                CryptoTiming::with_tree_cost(2),
            );
            lcf.seal(&mut ddr);
            (lcf, ddr)
        };
        let (mut small, mut sddr) = make(0x100); // 16 blocks -> 4 levels
        let (mut big, mut bddr) = make(0x10000); // 4096 blocks -> 12 levels
        let rs = small
            .handle(
                &mut sddr,
                &txn(Op::Read, DDR_BASE, Width::Word, 0),
                Cycle(0),
            )
            .unwrap();
        let rb = big
            .handle(
                &mut bddr,
                &txn(Op::Read, DDR_BASE, Width::Word, 0),
                Cycle(0),
            )
            .unwrap();
        assert!(
            rb.latency > rs.latency,
            "deeper tree must cost more: {} vs {}",
            rb.latency,
            rs.latency
        );
        assert_eq!(rb.latency - rs.latency, 2 * (12 - 4));
    }

    #[test]
    fn paper_timing_has_flat_ic_cost() {
        assert_eq!(CryptoTiming::PAPER.ic_verify_cycles(4), 20);
        assert_eq!(CryptoTiming::PAPER.ic_verify_cycles(20), 20);
        assert_eq!(CryptoTiming::with_tree_cost(3).ic_verify_cycles(10), 50);
    }

    #[test]
    fn rekey_preserves_data_and_changes_ciphertext() {
        let (mut lcf, mut ddr) = make_lcf();
        let addr = DDR_BASE + 0x30;
        lcf.handle(
            &mut ddr,
            &txn(Op::Write, addr, Width::Word, 0xabc0_0123),
            Cycle(0),
        )
        .unwrap();
        let old_ct = ddr.snoop(0x30, 16).to_vec();
        let cycles = lcf.rekey(&mut ddr, DDR_BASE, *b"fresh-new-key-01").unwrap();
        assert!(cycles > 0);
        // Ciphertext rotated…
        assert_ne!(ddr.snoop(0x30, 16), &old_ct[..]);
        // …but the plaintext still reads back, integrity intact.
        let r = lcf
            .handle(&mut ddr, &txn(Op::Read, addr, Width::Word, 0), Cycle(1))
            .unwrap();
        assert_eq!(r.data, 0xabc0_0123);
        assert_eq!(lcf.stats().counter("lcf.rekeys"), 1);
    }

    #[test]
    fn rekey_invalidates_old_key_snapshots() {
        // An attacker who captured ciphertext (or even the OLD key) cannot
        // replay it after the roll: the tree covers the new ciphertext.
        let (mut lcf, mut ddr) = make_lcf();
        let addr = DDR_BASE + 0x50;
        lcf.handle(&mut ddr, &txn(Op::Write, addr, Width::Word, 7), Cycle(0))
            .unwrap();
        let snapshot = ddr.snoop(0x50, 16).to_vec();
        lcf.rekey(&mut ddr, DDR_BASE, *b"fresh-new-key-02").unwrap();
        ddr.tamper(0x50, &snapshot); // replay pre-rekey ciphertext
        let err = lcf
            .handle(&mut ddr, &txn(Op::Read, addr, Width::Word, 0), Cycle(1))
            .unwrap_err();
        assert_eq!(err.0, Violation::IntegrityMismatch);
    }

    #[test]
    fn rekey_cipher_only_region_roundtrips() {
        let (mut lcf, mut ddr) = make_lcf();
        let addr = DDR_BASE + 0x180;
        lcf.handle(
            &mut ddr,
            &txn(Op::Write, addr, Width::Word, 0x51ca_ffee),
            Cycle(0),
        )
        .unwrap();
        lcf.rekey(&mut ddr, DDR_CIPHER_BASE_TEST, *b"fresh-new-key-03")
            .unwrap();
        let r = lcf
            .handle(&mut ddr, &txn(Op::Read, addr, Width::Word, 0), Cycle(1))
            .unwrap();
        assert_eq!(r.data, 0x51ca_ffee);
    }

    #[test]
    fn rekey_refuses_unprotected_and_unmapped() {
        let (mut lcf, mut ddr) = make_lcf();
        assert_eq!(
            lcf.rekey(&mut ddr, DDR_BASE + 0x240, [0; 16]),
            Err(RekeyError::NotCiphered)
        );
        assert_eq!(
            lcf.rekey(&mut ddr, DDR_BASE + 0x900, [0; 16]),
            Err(RekeyError::NoRegion)
        );
        assert!(RekeyError::NoRegion.to_string().contains("no LCF region"));
    }

    const DDR_CIPHER_BASE_TEST: u32 = DDR_BASE + 0x100;

    #[test]
    #[should_panic(expected = "exactly once")]
    fn double_seal_panics() {
        let (mut lcf, mut ddr) = make_lcf();
        lcf.seal(&mut ddr);
    }

    #[test]
    fn ic_glitch_fails_a_clean_read_once() {
        let (mut lcf, mut ddr) = make_lcf();
        let t = txn(Op::Read, DDR_BASE + 4, Width::Word, 0);
        lcf.inject_ic_glitch();
        let err = lcf.handle(&mut ddr, &t, Cycle(0)).unwrap_err();
        assert_eq!(
            err.0,
            Violation::IntegrityMismatch,
            "glitched verdict blocks the read"
        );
        assert_eq!(lcf.stats().counter("lcf.fault.ic_glitches"), 1);
        // One-shot: the next verification is honest again.
        assert!(lcf.handle(&mut ddr, &t, Cycle(1)).is_ok());
    }

    #[test]
    fn ic_glitch_can_mask_real_tampering() {
        let (mut lcf, mut ddr) = make_lcf();
        let mut b = ddr.snoop(0x40, 16).to_vec();
        b[0] ^= 1;
        ddr.tamper(0x40, &b);
        let t = txn(Op::Read, DDR_BASE + 0x40, Width::Word, 0);
        lcf.inject_ic_glitch();
        // False negative: the inverted verdict lets the tampered block by
        // (served garbled, since the ciphertext no longer matches).
        assert!(lcf.handle(&mut ddr, &t, Cycle(0)).is_ok());
        // Without the glitch the tampering is caught as usual.
        assert_eq!(
            lcf.handle(&mut ddr, &t, Cycle(1)).unwrap_err().0,
            Violation::IntegrityMismatch
        );
    }

    #[test]
    fn serve_with_alert_keeps_the_region_live() {
        let (mut lcf, mut ddr) = make_lcf();
        assert!(lcf.set_ic_failure_mode(DDR_BASE, IcFailureMode::ServeWithAlert));
        assert!(!lcf.set_ic_failure_mode(DDR_BASE + 0x900, IcFailureMode::ServeWithAlert));
        lcf.inject_ic_glitch();
        let r = lcf
            .handle(
                &mut ddr,
                &txn(Op::Read, DDR_BASE + 4, Width::Byte, 0),
                Cycle(0),
            )
            .expect("degraded mode serves the data");
        assert_eq!(
            r.data, 4,
            "clean block decrypts correctly despite the doubtful verdict"
        );
        assert_eq!(lcf.stats().counter("lcf.degraded_serves"), 1);
        let alerts = lcf.drain_alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].violation, Violation::IntegrityMismatch);
        assert_eq!(
            lcf.region_configs()[0].ic_failure,
            IcFailureMode::ServeWithAlert,
            "mode visible in the region configs"
        );
    }

    #[test]
    fn cc_glitch_garbles_one_read() {
        let (mut lcf, mut ddr) = make_lcf();
        let t = txn(Op::Read, DDR_BASE + 4, Width::Byte, 0);
        lcf.inject_cc_glitch();
        let r = lcf.handle(&mut ddr, &t, Cycle(0)).unwrap();
        assert_eq!(r.data, 4 ^ 0xA5, "garbled by the glitched cipher pass");
        assert_eq!(lcf.stats().counter("lcf.fault.cc_glitches"), 1);
        let r = lcf.handle(&mut ddr, &t, Cycle(1)).unwrap();
        assert_eq!(r.data, 4, "one-shot: next pass is clean");
    }

    #[test]
    fn rebuild_recovers_a_poisoned_tree() {
        let (mut lcf, mut ddr) = make_lcf();
        // Fault garbles a stored block (e.g. an SEU on the raw DDR): every
        // read of it now fails integrity — the region is effectively dead.
        let mut b = ddr.snoop(0x60, 16).to_vec();
        b[5] ^= 0x10;
        ddr.tamper(0x60, &b);
        let t = txn(Op::Read, DDR_BASE + 0x60, Width::Word, 0);
        assert!(lcf.handle(&mut ddr, &t, Cycle(0)).is_err());
        // Recovery: re-baseline the tree over the current ciphertext.
        let cycles = lcf.rebuild_region(&mut ddr, DDR_BASE).unwrap();
        assert!(cycles > 0);
        assert!(
            lcf.handle(&mut ddr, &t, Cycle(1)).is_ok(),
            "region live again"
        );
        assert_eq!(lcf.stats().counter("lcf.tree_rebuilds"), 1);
        // Tampering after the rebuild is still detected.
        let mut b = ddr.snoop(0x60, 16).to_vec();
        b[0] ^= 2;
        ddr.tamper(0x60, &b);
        assert_eq!(
            lcf.handle(&mut ddr, &t, Cycle(2)).unwrap_err().0,
            Violation::IntegrityMismatch
        );
    }

    #[test]
    fn rebuild_respects_region_kinds() {
        let (mut lcf, mut ddr) = make_lcf();
        assert_eq!(
            lcf.rebuild_region(&mut ddr, DDR_CIPHER_BASE_TEST),
            Ok(0),
            "cipher-only"
        );
        assert_eq!(
            lcf.rebuild_region(&mut ddr, DDR_BASE + 0x240),
            Err(RekeyError::NotCiphered)
        );
        assert_eq!(
            lcf.rebuild_region(&mut ddr, DDR_BASE + 0x900),
            Err(RekeyError::NoRegion)
        );
    }

    // ---- crash consistency: journal, checkpoints, recovery ----

    #[test]
    fn journaled_write_is_two_phase() {
        let (mut lcf, mut ddr) = make_journaled(1024);
        assert!(lcf.journal_enabled());
        let addr = DDR_BASE + 0x20;
        lcf.handle(
            &mut ddr,
            &txn(Op::Write, addr, Width::Word, 0xfeed_f00d),
            Cycle(1),
        )
        .unwrap();
        assert_eq!(lcf.stats().counter("lcf.journal_appends"), 1);
        assert_eq!(lcf.stats().counter("lcf.journal_commits"), 1);
        // Intent + commit mark.
        assert_eq!(lcf.persistent_state().unwrap().journal.len(), 2);
        let r = lcf
            .handle(&mut ddr, &txn(Op::Read, addr, Width::Word, 0), Cycle(2))
            .unwrap();
        assert_eq!(r.data, 0xfeed_f00d);
    }

    #[test]
    fn checkpoint_folds_the_journal() {
        let (mut lcf, mut ddr) = make_journaled(2);
        // Seal performed the initial checkpoint (seq 1).
        assert_eq!(lcf.persistent_state().unwrap().image.seq, 1);
        lcf.handle(
            &mut ddr,
            &txn(Op::Write, DDR_BASE + 0x10, Width::Word, 1),
            Cycle(0),
        )
        .unwrap();
        assert_eq!(lcf.persistent_state().unwrap().journal.len(), 2);
        lcf.handle(
            &mut ddr,
            &txn(Op::Write, DDR_BASE + 0x14, Width::Word, 2),
            Cycle(1),
        )
        .unwrap();
        // Second commit hit the interval: journal folded into image seq 2.
        let state = lcf.persistent_state().unwrap();
        assert!(state.journal.is_empty());
        assert_eq!(state.image.seq, 2);
        assert_eq!(lcf.anti_rollback_counter().unwrap().value(), 2);
        assert_eq!(lcf.stats().counter("lcf.checkpoints"), 2);
    }

    #[test]
    fn recovery_from_checkpoint_is_clean() {
        let (mut lcf, mut ddr) = make_journaled(1024);
        lcf.handle(
            &mut ddr,
            &txn(Op::Write, DDR_BASE + 0x30, Width::Word, 42),
            Cycle(0),
        )
        .unwrap();
        lcf.force_checkpoint();
        let state = lcf.persistent_state().unwrap();
        let (mut fresh, report) = reboot_and_recover(&lcf, &mut ddr, &state);
        assert_eq!(report.outcome, RecoveryOutcome::Clean);
        assert!(report.cycles > 0);
        let r = fresh.handle(
            &mut ddr,
            &txn(Op::Read, DDR_BASE + 0x30, Width::Word, 0),
            Cycle(1),
        );
        assert_eq!(r.unwrap().data, 42);
        assert_eq!(fresh.stats().counter("lcf.recoveries"), 1);
    }

    #[test]
    fn recovery_replays_committed_journal_writes() {
        let (mut lcf, mut ddr) = make_journaled(1024);
        for (i, v) in [(0u32, 7u32), (4, 8), (0x44, 9)] {
            lcf.handle(
                &mut ddr,
                &txn(Op::Write, DDR_BASE + i, Width::Word, v),
                Cycle(0),
            )
            .unwrap();
        }
        let state = lcf.persistent_state().unwrap();
        assert!(!state.journal.is_empty(), "no checkpoint since the writes");
        let (mut fresh, report) = reboot_and_recover(&lcf, &mut ddr, &state);
        assert_eq!(
            report.outcome,
            RecoveryOutcome::Clean,
            "all writes committed"
        );
        assert_eq!(report.replayed, 3);
        for (i, v) in [(0u32, 7u32), (4, 8), (0x44, 9)] {
            let r = fresh.handle(
                &mut ddr,
                &txn(Op::Read, DDR_BASE + i, Width::Word, 0),
                Cycle(1),
            );
            assert_eq!(r.unwrap().data, v);
        }
    }

    #[test]
    fn recovery_rolls_forward_a_dangling_intent_whose_burst_landed() {
        let (mut lcf, mut ddr) = make_journaled(1024);
        lcf.handle(
            &mut ddr,
            &txn(Op::Write, DDR_BASE + 0x50, Width::Word, 0xd00d),
            Cycle(0),
        )
        .unwrap();
        let mut state = lcf.persistent_state().unwrap();
        // Crash between the DDR burst and the commit mark.
        state.journal.drop_tail(1);
        let (mut fresh, report) = reboot_and_recover(&lcf, &mut ddr, &state);
        assert_eq!(report.outcome, RecoveryOutcome::Repaired);
        assert_eq!(report.rolled_forward, 1);
        assert_eq!(report.repaired_blocks, 0);
        let r = fresh.handle(
            &mut ddr,
            &txn(Op::Read, DDR_BASE + 0x50, Width::Word, 0),
            Cycle(1),
        );
        assert_eq!(r.unwrap().data, 0xd00d);
    }

    #[test]
    fn recovery_rolls_back_a_dangling_intent_whose_burst_never_started() {
        let (mut lcf, mut ddr) = make_journaled(1024);
        lcf.handle(
            &mut ddr,
            &txn(Op::Write, DDR_BASE + 0x50, Width::Word, 1),
            Cycle(0),
        )
        .unwrap();
        lcf.force_checkpoint();
        let pre = ddr.snoop(0x50, 16).to_vec();
        lcf.handle(
            &mut ddr,
            &txn(Op::Write, DDR_BASE + 0x50, Width::Word, 2),
            Cycle(1),
        )
        .unwrap();
        let mut state = lcf.persistent_state().unwrap();
        // Crash after the intent persisted but before the burst: undo the
        // DDR write and drop the commit mark.
        ddr.tamper(0x50, &pre);
        state.journal.drop_tail(1);
        let (mut fresh, report) = reboot_and_recover(&lcf, &mut ddr, &state);
        assert_eq!(report.outcome, RecoveryOutcome::Repaired);
        assert_eq!(report.rolled_back, 1);
        let r = fresh.handle(
            &mut ddr,
            &txn(Op::Read, DDR_BASE + 0x50, Width::Word, 0),
            Cycle(2),
        );
        assert_eq!(r.unwrap().data, 1, "pre-crash value back in force");
    }

    #[test]
    fn torn_burst_is_repaired_not_quarantined() {
        let (mut lcf, mut ddr) = make_journaled(1024);
        lcf.handle(
            &mut ddr,
            &txn(Op::Write, DDR_BASE + 0x70, Width::Word, 5),
            Cycle(0),
        )
        .unwrap();
        // Power dies mid-burst on the next store: only 6 bytes land.
        ddr.tear_next_store(6);
        lcf.handle(
            &mut ddr,
            &txn(Op::Write, DDR_BASE + 0x70, Width::Word, 6),
            Cycle(1),
        )
        .unwrap();
        assert!(lcf.crashed());
        assert_eq!(lcf.stats().counter("lcf.torn_bursts"), 1);
        let state = lcf.persistent_state().unwrap();
        let (mut fresh, report) = reboot_and_recover(&lcf, &mut ddr, &state);
        assert_eq!(report.outcome, RecoveryOutcome::Repaired);
        assert_eq!(
            report.repaired_blocks, 1,
            "torn block repaired, not quarantined"
        );
        assert!(!report.is_quarantined());
        // The block was deterministically re-initialized (bounded loss)
        // and the region is fully live again.
        let r = fresh.handle(
            &mut ddr,
            &txn(Op::Read, DDR_BASE + 0x70, Width::Word, 0),
            Cycle(2),
        );
        assert_eq!(r.unwrap().data, 0, "repaired block reads as zero fill");
        let r2 = fresh.handle(
            &mut ddr,
            &txn(Op::Read, DDR_BASE + 0x40, Width::Word, 0),
            Cycle(3),
        );
        assert!(r2.is_ok(), "other blocks unaffected");
    }

    #[test]
    fn recovery_quarantines_a_rolled_back_image() {
        let (mut lcf, mut ddr) = make_journaled(1024);
        lcf.handle(
            &mut ddr,
            &txn(Op::Write, DDR_BASE, Width::Word, 1),
            Cycle(0),
        )
        .unwrap();
        lcf.force_checkpoint();
        let old_state = lcf.persistent_state().unwrap();
        lcf.handle(
            &mut ddr,
            &txn(Op::Write, DDR_BASE, Width::Word, 2),
            Cycle(1),
        )
        .unwrap();
        lcf.force_checkpoint();
        // Attacker restores the older (validly MAC'd) image + journal.
        let (mut fresh, report) = reboot_and_recover(&lcf, &mut ddr, &old_state);
        assert_eq!(
            report.outcome,
            RecoveryOutcome::Quarantined(TamperEvidence::RolledBackImage)
        );
        // Quarantine blocks the embedded firewall outright.
        let r = fresh.handle(
            &mut ddr,
            &txn(Op::Read, DDR_BASE + 0x240, Width::Word, 0),
            Cycle(2),
        );
        assert!(r.is_err(), "quarantined LCF refuses even unprotected reads");
        assert_eq!(fresh.stats().counter("lcf.recovery_quarantines"), 1);
        assert_eq!(
            fresh
                .stats()
                .counter("lcf.recovery_quarantine.rolled_back_image"),
            1
        );
    }

    #[test]
    fn recovery_quarantines_a_doctored_image() {
        let (mut lcf, mut ddr) = make_journaled(1024);
        lcf.force_checkpoint();
        let mut state = lcf.persistent_state().unwrap();
        // Attacker edits the image without the key: MAC no longer holds.
        state.image.seq += 1;
        let (_fresh, report) = reboot_and_recover(&lcf, &mut ddr, &state);
        assert_eq!(
            report.outcome,
            RecoveryOutcome::Quarantined(TamperEvidence::BadImage)
        );
    }

    #[test]
    fn recovery_quarantines_offline_ddr_tampering() {
        let (mut lcf, mut ddr) = make_journaled(1024);
        lcf.handle(
            &mut ddr,
            &txn(Op::Write, DDR_BASE + 0x10, Width::Word, 3),
            Cycle(0),
        )
        .unwrap();
        lcf.force_checkpoint();
        let state = lcf.persistent_state().unwrap();
        // While power is off, the attacker flips a stored bit.
        let mut b = ddr.snoop(0x80, 16).to_vec();
        b[0] ^= 1;
        ddr.tamper(0x80, &b);
        let (_fresh, report) = reboot_and_recover(&lcf, &mut ddr, &state);
        assert_eq!(
            report.outcome,
            RecoveryOutcome::Quarantined(TamperEvidence::RootMismatch { region: 0 })
        );
    }

    #[test]
    fn recovery_discards_a_torn_journal_tail() {
        let (mut lcf, mut ddr) = make_journaled(1024);
        lcf.handle(
            &mut ddr,
            &txn(Op::Write, DDR_BASE + 0x10, Width::Word, 3),
            Cycle(0),
        )
        .unwrap();
        let pre = ddr.snoop(0x10, 16).to_vec();
        lcf.handle(
            &mut ddr,
            &txn(Op::Write, DDR_BASE + 0x10, Width::Word, 4),
            Cycle(1),
        )
        .unwrap();
        let mut state = lcf.persistent_state().unwrap();
        // Crash tore the intent append itself; its burst never ran.
        ddr.tamper(0x10, &pre);
        state.journal.drop_tail(1); // commit mark
        state.journal.corrupt_entry(state.journal.len() - 1); // torn intent
        let (mut fresh, report) = reboot_and_recover(&lcf, &mut ddr, &state);
        assert_eq!(report.outcome, RecoveryOutcome::Repaired);
        assert_eq!(report.torn_discarded, 1);
        assert_eq!(report.replayed, 1, "first write survives");
        let r = fresh.handle(
            &mut ddr,
            &txn(Op::Read, DDR_BASE + 0x10, Width::Word, 0),
            Cycle(2),
        );
        assert_eq!(r.unwrap().data, 3);
    }

    #[test]
    fn journal_off_recovery_false_alarms_on_legitimate_writes() {
        // The ablation the journal exists to fix: persist only a seal-time
        // image, write normally, crash — recovery cannot tell legitimate
        // post-image writes from tampering.
        let (mut lcf, mut ddr) = make_journaled(1024);
        let stale = lcf.persistent_state().unwrap(); // journal empty: image only
        lcf.handle(
            &mut ddr,
            &txn(Op::Write, DDR_BASE + 0x10, Width::Word, 9),
            Cycle(0),
        )
        .unwrap();
        let (_fresh, report) = reboot_and_recover(&lcf, &mut ddr, &stale);
        assert_eq!(
            report.outcome,
            RecoveryOutcome::Quarantined(TamperEvidence::RootMismatch { region: 0 }),
            "journal-off boot cannot explain its own legitimate writes"
        );
    }

    #[test]
    fn brownout_lattice_never_reaches_bypass() {
        assert_eq!(
            brownout_posture(Protection::CipherIntegrity),
            Protection::CipherOnly
        );
        // The lattice has no edge that drops the cipher.
        assert_eq!(
            brownout_posture(Protection::CipherOnly),
            Protection::CipherOnly
        );
        assert_eq!(brownout_posture(Protection::None), Protection::None);
        // Iterating the lattice from full protection can never lift the
        // cipher, no matter how long the overload lasts.
        let mut p = Protection::CipherIntegrity;
        for _ in 0..10 {
            p = brownout_posture(p);
            assert_ne!(p, Protection::None);
        }
    }

    #[test]
    fn brownout_skips_read_verify_but_keeps_the_cipher() {
        let (mut lcf, mut ddr) = make_lcf();
        let addr = DDR_BASE + 0x10;
        lcf.handle(
            &mut ddr,
            &txn(Op::Write, addr, Width::Word, 0xFEED_BEEF),
            Cycle(0),
        )
        .unwrap();
        let full = lcf
            .handle(&mut ddr, &txn(Op::Read, addr, Width::Word, 0), Cycle(1))
            .unwrap();
        lcf.set_brownout(true);
        let cheap = lcf
            .handle(&mut ddr, &txn(Op::Read, addr, Width::Word, 0), Cycle(2))
            .unwrap();
        assert_eq!(cheap.data, 0xFEED_BEEF, "cipher still on: data intact");
        assert!(
            cheap.latency < full.latency,
            "brownout must be cheaper: {} vs {}",
            cheap.latency,
            full.latency
        );
        assert_eq!(lcf.stats().counter("lcf.brownout_skipped_verifies"), 1);
        // Ciphertext in DDR is still not plaintext.
        assert_ne!(ddr.snoop(0x10, 4), 0xFEED_BEEFu32.to_le_bytes());
    }

    #[test]
    fn writes_during_brownout_keep_the_tree_current() {
        let (mut lcf, mut ddr) = make_lcf();
        let addr = DDR_BASE + 0x20;
        lcf.set_brownout(true);
        lcf.handle(
            &mut ddr,
            &txn(Op::Write, addr, Width::Word, 0x1234_5678),
            Cycle(0),
        )
        .unwrap();
        // Re-tighten: the very next verified read must pass (the write
        // updated the tree even while verification was off).
        lcf.set_brownout(false);
        let r = lcf
            .handle(&mut ddr, &txn(Op::Read, addr, Width::Word, 0), Cycle(1))
            .unwrap();
        assert_eq!(r.data, 0x1234_5678);
        assert_eq!(lcf.stats().counter("lcf.integrity_failures"), 0);
    }

    #[test]
    fn tamper_during_brownout_is_caught_after_exit() {
        let (mut lcf, mut ddr) = make_lcf();
        let addr = DDR_BASE + 0x40;
        lcf.set_brownout(true);
        // Attacker flips stored ciphertext while verification is off: the
        // brownout read serves it without noticing (the accepted risk)...
        ddr.tamper(0x40, &[0xFF; 16]);
        lcf.handle(&mut ddr, &txn(Op::Read, addr, Width::Word, 0), Cycle(0))
            .unwrap();
        assert_eq!(lcf.stats().counter("lcf.integrity_failures"), 0);
        // ...but the first verified read after re-tightening catches it.
        lcf.set_brownout(false);
        let err = lcf
            .handle(&mut ddr, &txn(Op::Read, addr, Width::Word, 0), Cycle(1))
            .unwrap_err();
        assert_eq!(err.0, Violation::IntegrityMismatch);
        assert_eq!(lcf.stats().counter("lcf.integrity_failures"), 1);
    }
}
