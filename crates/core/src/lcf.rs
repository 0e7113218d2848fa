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
use secbus_crypto::merkle::{leaf_digest, leaf_digests};
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
use crate::firewall::{FirewallId, LocalFirewall};
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

struct Region {
    base: u32,
    len: u32,
    protection: Protection,
    cipher: Option<MemoryCipher>,
    tree: Option<MerkleTree>,
    timestamps: TimestampTable,
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

    /// Install `tree` as the region's integrity tree with a fresh IC node
    /// cache of `cache_entries` (None: the uncached root walk), so no
    /// cached node outlives the tree that vouched for it.
    fn install_tree(&mut self, tree: MerkleTree, cache_entries: Option<usize>) {
        self.tree = Some(tree);
        self.ic_cache = cache_entries.map(NodeCache::new);
    }

    /// Cipher the region's bytes in `ddr` (whose bus address `ddr_base`
    /// is device offset 0) in place, one stack chunk at a time: snoop
    /// the chunk, decrypt it under `old` when the region already holds
    /// ciphertext, encrypt it under `new`, and write it back. Every
    /// block is ciphered under its own time-stamp both ways. Seal is the
    /// pass with no old key; a re-key, the pass with one.
    fn cipher_in_place(
        &self,
        ddr: &mut ExternalDdr,
        ddr_base: u32,
        old: Option<&MemoryCipher>,
        new: &MemoryCipher,
    ) {
        const BLOCK: usize = PROTECTION_BLOCK as usize;
        let mut chunk = [0u8; CIPHER_CHUNK_BLOCKS * BLOCK];
        let tags = self.timestamps.tags();
        for (c, tags) in tags.chunks(CIPHER_CHUNK_BLOCKS).enumerate() {
            let addr = self.base + (c * CIPHER_CHUNK_BLOCKS * BLOCK) as u32;
            let buf = &mut chunk[..tags.len() * BLOCK];
            buf.copy_from_slice(ddr.snoop(addr - ddr_base, buf.len() as u32));
            if let Some(old) = old {
                old.apply_tagged(u64::from(addr), tags, buf);
            }
            new.apply_tagged(u64::from(addr), tags, buf);
            ddr.tamper(addr - ddr_base, buf);
        }
    }
}

/// Protection blocks in a region of `len` bytes: the length of its
/// time-stamp table, and so of its integrity tree (0 when unprotected).
fn region_blocks(protection: Protection, len: u32) -> usize {
    match protection {
        Protection::None => 0,
        _ => (len / PROTECTION_BLOCK) as usize,
    }
}

/// The integrity tree over the region whose ciphertext starts at device
/// offset `dev_off`: leaf `i` hashes block `i` as stored in `ddr`, bound
/// to its index and its time-stamp `tags[i]`.
fn region_tree(ddr: &ExternalDdr, dev_off: u32, tags: &[u64]) -> MerkleTree {
    let blocks = ddr.snoop(dev_off, tags.len() as u32 * PROTECTION_BLOCK);
    MerkleTree::from_fn(tags.len(), |level| leaf_digests(blocks, tags, level))
}

/// Protection blocks per stack chunk of [`Region::cipher_in_place`]
/// (1 KiB).
const CIPHER_CHUNK_BLOCKS: usize = 64;

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
                Region {
                    base: p.region.base,
                    len: p.region.len,
                    protection,
                    cipher: p.key.as_ref().map(MemoryCipher::new),
                    tree: None, // built at seal time
                    timestamps: TimestampTable::new(region_blocks(protection, p.region.len)),
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
    #[inline]
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

    /// Seal the external memory: encrypt every protected region's current
    /// (boot-image) contents in place and build the integrity trees.
    /// Returns the cycles the operation would take (boot-time cost).
    pub fn seal(&mut self, ddr: &mut ExternalDdr) -> u64 {
        assert!(!self.sealed, "seal() must run exactly once");
        let mut cycles = 0;
        for idx in 0..self.regions.len() {
            let region = &self.regions[idx];
            if region.protection == Protection::None {
                continue;
            }
            let cipher = region.cipher.as_ref().expect("protected region has a key");
            debug_assert!(
                region.timestamps.total_writes() == 0,
                "a boot image is unwritten"
            );
            region.cipher_in_place(ddr, self.ddr_base, None, cipher);
            self.stats
                .add("lcf.cc_bytes_ciphered", u64::from(region.len));
            cycles += self.timing.cc_stream_cycles(u64::from(region.len) * 8);
            if region.protection == Protection::CipherIntegrity {
                cycles += self.timing.ic_stream_cycles(u64::from(region.len) * 8);
            }
            self.rebuild_tree(ddr, idx);
        }
        self.sealed = true;
        if self.journal.is_some() {
            cycles += self.checkpoint_inner();
        }
        self.stats.add("lcf.seal_cycles", cycles);
        cycles
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
            let (raw_verdict, levels) = match region.ic_cache.as_mut() {
                Some(cache) => {
                    let v = tree.verify_leaf_cached(block_idx, &expected, cache);
                    self.stats.incr_slot(if v.cache_hit {
                        LcfCounter::IcCacheHits
                    } else {
                        LcfCounter::IcCacheMisses
                    });
                    (v.verified, v.levels_hashed)
                }
                None => (tree.verify_leaf(block_idx, &expected), full_levels),
            };
            let cached = region.ic_cache.is_some();
            latency += self.charge_ic(txn, now, levels, full_levels, cached);
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
                let d = self
                    .fw
                    .note_violation(txn, Violation::IntegrityMismatch, now);
                debug_assert!(!d.allowed);
                return Err((Violation::IntegrityMismatch, latency));
            }
        }

        // Confidentiality Core: decrypt.
        let region = &mut self.regions[region_idx];
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
                // The new leaf is hashed once, for the tree and the intent.
                let integrity = region.protection == Protection::CipherIntegrity;
                let new_leaf = (integrity || self.journal.is_some())
                    .then(|| leaf_digest(block_idx as u64, new_ts, &block));
                let mut new_root = None;
                if let Some(leaf) = new_leaf.filter(|_| integrity) {
                    let tree = region.tree.as_mut().expect("integrity region has a tree");
                    let full_levels = tree.height();
                    let levels = match region.ic_cache.as_mut() {
                        Some(cache) => tree.update_leaf_cached(block_idx, leaf, cache),
                        None => tree.update_leaf(block_idx, leaf),
                    };
                    new_root = Some(tree.root());
                    let cached = region.ic_cache.is_some();
                    latency += self.charge_ic(txn, now, levels, full_levels, cached);
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
                            new_leaf: new_leaf.expect("hashed for the journal"),
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

    /// Charge one Integrity-Core pass that hashed `levels` of a tree
    /// `full_levels` high: the cycle counter and histogram, the cycles a
    /// node cache saved (only when the region is `cached`) and an
    /// `IcVerify` event. Returns the cycles to add to the latency.
    fn charge_ic(
        &mut self,
        txn: &Transaction,
        now: Cycle,
        levels: u32,
        full_levels: u32,
        cached: bool,
    ) -> u64 {
        let charged = self.timing.ic_verify_cycles(levels);
        self.stats.add_slot(LcfCounter::IcCycles, charged);
        self.stats
            .record_slot(LcfHistogram::IcVerifyCycles, charged);
        if cached {
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
                    // A walk that stopped short of the root hit the cache.
                    cache_hit: levels < full_levels,
                },
            );
        }
        charged
    }

    fn direct_access(
        &mut self,
        ddr: &mut ExternalDdr,
        txn: &Transaction,
        sb_latency: u64,
    ) -> Result<LcfAccess, (Violation, u64)> {
        let (ddr_latency, read) = ddr.access(txn.addr - self.ddr_base, txn);
        let latency = sb_latency + ddr_latency;
        self.stats.incr_slot(LcfCounter::UnprotectedAccesses);
        match read {
            Ok(data) => Ok(LcfAccess { data, latency }),
            Err(_) => Err((Violation::RegionOverrun, latency)),
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
        let idx = self.region_of(region_addr).ok_or(RekeyError::NoRegion)?;
        if self.regions[idx].protection == Protection::None {
            return Err(RekeyError::NotCiphered);
        }
        let cycles = self.recipher(ddr, idx, new_key);
        self.rebuild_tree(ddr, idx);
        Ok(cycles)
    }

    /// Quarantine recovery: walk every ciphered region in address order,
    /// rebuild its integrity tree from the ciphertext currently in memory
    /// and, when `next_key` yields a key (it is asked once per ciphered
    /// region), re-key it in place as [`LocalCipheringFirewall::rekey`]
    /// does. After a burst of faults the tree state is re-baselined
    /// rather than left permanently poisoned. Returns the modelled
    /// cycles.
    ///
    /// The modelled hardware rebuilds and then re-keys, and is charged
    /// and counted for both (`lcf.tree_rebuilds`, `lcf.rebuild_cycles`,
    /// then `lcf.rekeys`, `lcf.rekey_cycles`); the host builds each tree
    /// once, over the final ciphertext.
    ///
    /// Note the trust consequence: whatever is in external memory at
    /// recovery time becomes the new baseline. Tampering *after* it is
    /// detected as usual, but the rebuild itself cannot tell a
    /// fault-garbled block from a genuine one — which is why the SoC only
    /// triggers it as part of an explicit quarantine-recovery policy.
    pub fn recover_regions(
        &mut self,
        ddr: &mut ExternalDdr,
        mut next_key: impl FnMut() -> Option<[u8; 16]>,
    ) -> u64 {
        debug_assert!(self.sealed, "recover_regions() before seal()");
        let mut cycles = 0;
        for idx in 0..self.regions.len() {
            let region = &self.regions[idx];
            if region.protection == Protection::None {
                continue;
            }
            if region.protection == Protection::CipherIntegrity {
                let rebuild = self.timing.ic_stream_cycles(u64::from(region.len) * 8);
                self.stats.incr("lcf.tree_rebuilds");
                self.stats.add("lcf.rebuild_cycles", rebuild);
                cycles += rebuild;
            }
            if let Some(key) = next_key() {
                cycles += self.recipher(ddr, idx, key);
            }
            self.rebuild_tree(ddr, idx);
        }
        cycles
    }

    /// Re-cipher ciphered region `idx` in place under `new_key`, one
    /// stack chunk at a time ([`Region::cipher_in_place`]): decrypt
    /// under the old key, re-encrypt under the new one, each block under
    /// its own address and time-stamp. Charges and counts a re-key (one
    /// CC stream pass per direction, plus the IC rebuild on an integrity
    /// region) and returns its cycles; the caller rebuilds the tree.
    fn recipher(&mut self, ddr: &mut ExternalDdr, idx: usize, new_key: [u8; 16]) -> u64 {
        let region = &mut self.regions[idx];
        let old_cipher = region.cipher.as_ref().expect("ciphered region has a key");
        let new_cipher = MemoryCipher::new(&new_key);
        region.cipher_in_place(ddr, self.ddr_base, Some(old_cipher), &new_cipher);
        region.cipher = Some(new_cipher);
        let bits = u64::from(region.len) * 8;
        let mut cycles = 2 * self.timing.cc_stream_cycles(bits);
        if region.protection == Protection::CipherIntegrity {
            cycles += self.timing.ic_stream_cycles(bits);
        }
        self.stats
            .add("lcf.cc_bytes_ciphered", 2 * u64::from(region.len));
        self.stats.incr("lcf.rekeys");
        self.stats.add("lcf.rekey_cycles", cycles);
        cycles
    }

    /// Build region `idx`'s integrity tree over the ciphertext now in
    /// `ddr` under its current time-stamps, and install it with a fresh
    /// IC node cache. A region without integrity has no tree.
    fn rebuild_tree(&mut self, ddr: &ExternalDdr, idx: usize) {
        let region = &mut self.regions[idx];
        if region.protection == Protection::CipherIntegrity {
            let tree = region_tree(ddr, region.base - self.ddr_base, region.timestamps.tags());
            region.install_tree(tree, self.ic_cache_entries);
        }
    }

    /// The protection level at `addr`, if a region covers it.
    pub fn protection_at(&self, addr: u32) -> Option<Protection> {
        Self::region_index(&self.regions, addr).map(|i| self.regions[i].protection)
    }

    /// Does the image's shape match this LCF's region layout?
    fn image_shape_ok(&self, image: &SecureStateImage) -> bool {
        image.regions.len() == self.regions.len()
            && self.regions.iter().zip(&image.regions).all(|(r, ri)| {
                ri.timestamps.len() == region_blocks(r.protection, r.len)
                    && ri.root.is_some() == (r.protection == Protection::CipherIntegrity)
            })
    }

    /// Fail-secure end of a recovery boot: adopt placeholder state,
    /// block the firewall, record why.
    fn quarantine_boot(
        &mut self,
        ddr: &ExternalDdr,
        mut report: RecoveryReport,
        evidence: TamperEvidence,
    ) -> RecoveryReport {
        // Placeholder trees over whatever is in DDR, so the object stays
        // consistent while blocked.
        for idx in 0..self.regions.len() {
            self.rebuild_tree(ddr, idx);
        }
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
                    report.cycles += timing.ic_stream_cycles(u64::from(region.len) * 8);
                    let mut ddr_tree = region_tree(ddr, dev_off, &ts[idx]);
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
                    let ddr_leaf_old = ddr_tree.leaf(b);
                    let ddr_leaf_new = leaf_digest(
                        b as u64,
                        rec.new_ts,
                        ddr.snoop(dev_off + b as u32 * PROTECTION_BLOCK, PROTECTION_BLOCK),
                    );
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
                region.install_tree(tree, cache_entries);
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
    #[inline]
    pub fn firewall(&self) -> &LocalFirewall {
        &self.fw
    }

    /// Mutable access to the embedded firewall (reconfiguration, blocking).
    #[inline]
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
        // Recovery: re-baseline the trees over the current ciphertext.
        let cycles = lcf.recover_regions(&mut ddr, || None);
        assert!(cycles > 0);
        assert!(
            lcf.handle(&mut ddr, &t, Cycle(1)).is_ok(),
            "region live again"
        );
        assert_eq!(lcf.stats().counter("lcf.tree_rebuilds"), 2);
        // Tampering after the rebuild is still detected.
        let mut b = ddr.snoop(0x60, 16).to_vec();
        b[0] ^= 2;
        ddr.tamper(0x60, &b);
        assert_eq!(
            lcf.handle(&mut ddr, &t, Cycle(2)).unwrap_err().0,
            Violation::IntegrityMismatch
        );
    }

    /// Recovery asks for one key per ciphered region and charges a
    /// rebuild of each integrity region, then (given keys) a re-key of
    /// each ciphered region. The fixture's regions are 0x100 bytes: an IC
    /// stream pass costs 20 + ceil(2048 / 1.31) = 1584 cycles and a CC
    /// pass 11 + ceil(2048 / 4.5) = 467.
    #[test]
    fn recover_regions_charges_a_rebuild_then_a_rekey() {
        let keys = [
            "lcf.cc_bytes_ciphered",
            "lcf.rebuild_cycles",
            "lcf.rekey_cycles",
            "lcf.rekeys",
            "lcf.tree_rebuilds",
        ];
        let cases = [
            (
                false,
                2 * 1584,
                &[
                    ("lcf.cc_bytes_ciphered", 3 * 0x100), // the seal
                    ("lcf.rebuild_cycles", 2 * 1584),
                    ("lcf.tree_rebuilds", 2),
                ][..],
            ),
            (
                true,
                2 * 1584 + 5970,
                &[
                    ("lcf.cc_bytes_ciphered", 3 * 0x100 + 3 * 2 * 0x100),
                    ("lcf.rebuild_cycles", 2 * 1584),
                    // 2 x (2 x 467 + 1584) + 2 x 467.
                    ("lcf.rekey_cycles", 5970),
                    ("lcf.rekeys", 3),
                    ("lcf.tree_rebuilds", 2),
                ][..],
            ),
        ];
        for (rekey, cycles, counters) in cases {
            let (mut lcf, mut ddr) = make_lcf();
            let mut calls = 0u8;
            let charged = lcf.recover_regions(&mut ddr, || {
                calls += 1;
                rekey.then_some([calls; 16])
            });
            assert_eq!(calls, 3, "one key asked per ciphered region");
            assert_eq!(charged, cycles);
            let counted: Vec<(&str, u64)> = lcf
                .stats()
                .counters()
                .filter(|(k, _)| keys.contains(k))
                .collect();
            assert_eq!(counted, counters);
        }
    }

    /// Recovery with keys leaves the same DDR bytes and the same read
    /// results as `rekey` on each ciphered region, in address order, with
    /// the same keys.
    #[test]
    fn recover_regions_rekeys_like_rekey_in_address_order() {
        let keys = [[1u8; 16], [2; 16], [3; 16]];
        let setup = || {
            let (mut lcf, mut ddr) = make_lcf();
            for addr in [DDR_BASE + 0x20, DDR_BASE + 0x140, DDR_BASE + 0x20] {
                let w = txn(Op::Write, addr, Width::Word, addr);
                lcf.handle(&mut ddr, &w, Cycle(0)).unwrap();
            }
            // A fault garbles a stored block; both re-baseline it.
            let mut b = ddr.snoop(0x60, 16).to_vec();
            b[5] ^= 0x10;
            ddr.tamper(0x60, &b);
            (lcf, ddr)
        };
        let (mut lcf, mut ddr) = setup();
        let mut next = keys.into_iter();
        lcf.recover_regions(&mut ddr, || next.next());
        let (mut twin, mut twin_ddr) = setup();
        for (base, key) in [DDR_BASE, DDR_CIPHER_BASE_TEST, DDR_BASE + 0x300]
            .into_iter()
            .zip(keys)
        {
            twin.rekey(&mut twin_ddr, base, key).unwrap();
        }
        assert_eq!(ddr.snoop(0, 0x400), twin_ddr.snoop(0, 0x400));
        for addr in (DDR_BASE..DDR_BASE + 0x400).step_by(PROTECTION_BLOCK as usize) {
            let r = txn(Op::Read, addr, Width::Word, 0);
            assert_eq!(
                lcf.handle(&mut ddr, &r, Cycle(1)),
                twin.handle(&mut twin_ddr, &r, Cycle(1)),
                "read at {addr:#x}"
            );
        }
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
        // Released, it serves the placeholder trees built over DDR at
        // boot: a never-written block reads its boot plaintext, and an
        // offline bit flip in it fails verification.
        fresh.firewall_mut().unblock();
        let t = txn(Op::Read, DDR_BASE + 0x40, Width::Word, 0);
        assert_eq!(
            fresh.handle(&mut ddr, &t, Cycle(3)).map(|a| a.data),
            Ok(u32::from_le_bytes([0x40, 0x41, 0x42, 0x43]))
        );
        let mut b = ddr.snoop(0x40, 16).to_vec();
        b[0] ^= 1;
        ddr.tamper(0x40, &b);
        assert_eq!(
            fresh.handle(&mut ddr, &t, Cycle(4)).unwrap_err().0,
            Violation::IntegrityMismatch
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
