//! The system container and its cycle loop.

use std::collections::VecDeque;
use std::fmt;

use secbus_bus::{
    AddrRange, Arbiter, BusConfig, BusError, BusQuiet, FixedPriority, MasterId, Op, Response,
    SharedBus, SlaveId, Transaction, TxnId, Width,
};
use secbus_core::{
    verify, Alert, ConfidentialityMode, ConfigMemory, CryptoTiming, EpochError, FirewallId,
    IntegrityMode, LocalCipheringFirewall, LocalFirewall, PolicyProgram, PolicyUpdate, Protection,
    RateLimit, Reaction, ReconfigController, RecoveryReport, SbTiming, SecureCheckpoint,
    SecurityMonitor, SecurityPolicy, TaintEngine, TaintTag, Violation, WriteVerdict,
};
use secbus_cpu::{BusMaster, MasterAccess};
use secbus_fault::{FaultKind, FaultPlan};
use secbus_mem::{Bram, ExternalDdr, MemDevice};
use secbus_sim::{
    stat_keys, Clock, Cycle, Json, MetricsRegistry, SimCore, SimRng, Stats, TraceEvent, Tracer,
    Wake,
};

use crate::degrade::{DegradeConfig, Hysteresis, Transition};
use crate::inflight::{InFlight, InFlightTable};

stat_keys! {
    /// The SoC's per-cycle and per-transaction counters, kept in fixed
    /// [`Stats`] slots.
    pub enum SocCounter {
        Cycles => "soc.cycles",
        OrphanCompletions => "soc.orphan_completions",
        Retries => "soc.retries",
        RetryShed => "soc.retry_shed",
        RetrySuccesses => "soc.retry_successes",
        Shed => "soc.shed",
        ShedM0 => "soc.shed.m0",
        ShedM1 => "soc.shed.m1",
        ShedM2 => "soc.shed.m2",
        ShedM3 => "soc.shed.m3",
        ShedM4 => "soc.shed.m4",
        ShedM5 => "soc.shed.m5",
        ShedM6 => "soc.shed.m6",
        ShedM7 => "soc.shed.m7",
        ShedMOther => "soc.shed.m_other",
        TaintSpreadWrites => "soc.taint.spread_writes",
        TaintTaintedReads => "soc.taint.tainted_reads",
        WatchdogCancels => "soc.watchdog_cancels",
    }
}

stat_keys! {
    /// The SoC's per-transaction lifecycle histograms, kept in fixed
    /// [`Stats`] slots.
    pub enum SocHistogram {
        RetryLatency => "soc.retry_latency",
        IssueToVerdict => "txn.issue_to_verdict",
        VerdictToComplete => "txn.verdict_to_complete",
    }
}

/// A master waiting to be built: device, optional policies, optional
/// traffic budget.
type MasterSpec = (Box<dyn BusMaster>, Option<ConfigMemory>, Option<RateLimit>);

/// Bounded retry-with-exponential-backoff at the master interfaces: a
/// transaction that comes back with a *transient* bus error
/// ([`BusError::Slave`] or [`BusError::Timeout`]) is silently re-issued by
/// the interface instead of surfacing to the IP, up to `max_attempts`
/// times, with the n-th retry becoming bus-eligible only after
/// `base_backoff << n` cycles.
///
/// Permanent outcomes — [`BusError::Discarded`] (a policy denial),
/// [`BusError::Decode`] (no such slave),
/// [`BusError::IntegrityViolation`] and [`BusError::Overload`] (an
/// admission refusal, which the open-loop source must absorb rather than
/// amplify) — are never retried: repeating them cannot succeed and would
/// re-trigger the very alert that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed beyond the original attempt.
    pub max_attempts: u32,
    /// Backoff of the first retry, in cycles; doubles per attempt.
    pub base_backoff: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: 8,
        }
    }
}

/// What quarantine recovery does beyond releasing the block.
#[derive(Debug, Clone, Copy)]
struct AutoRecover {
    rekey: bool,
}

/// Builder for a [`Soc`].
pub struct SocBuilder {
    clock: Clock,
    bus_config: BusConfig,
    arbiter: Box<dyn Arbiter>,
    sb_timing: SbTiming,
    crypto_timing: CryptoTiming,
    monitor_threshold: u64,
    quarantine_cycles: Option<u64>,
    reconfig_latency: u64,
    watchdog: Option<u64>,
    retry: Option<RetryPolicy>,
    auto_recover: Option<AutoRecover>,
    security: bool,
    masters: Vec<MasterSpec>,
    brams: Vec<(String, AddrRange, Bram, Option<ConfigMemory>)>,
    ddr: Option<(String, AddrRange, ExternalDdr, Option<ConfigMemory>)>,
    journal: Option<(u64, [u8; 16])>,
    resume: Option<SecureCheckpoint>,
    ic_cache: Option<usize>,
    trace_capacity: Option<usize>,
    taint: bool,
    degrade: Option<DegradeConfig>,
}

impl Default for SocBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SocBuilder {
    /// Start a build with the ML605 default clock and a fixed-priority bus.
    pub fn new() -> Self {
        SocBuilder {
            clock: Clock::ML605_DEFAULT,
            bus_config: BusConfig::default(),
            arbiter: Box::new(FixedPriority),
            sb_timing: SbTiming::PAPER,
            crypto_timing: CryptoTiming::PAPER,
            monitor_threshold: 0,
            quarantine_cycles: None,
            reconfig_latency: 32,
            watchdog: None,
            retry: None,
            auto_recover: None,
            security: true,
            masters: Vec::new(),
            brams: Vec::new(),
            ddr: None,
            journal: None,
            resume: None,
            ic_cache: None,
            trace_capacity: None,
            taint: false,
            degrade: None,
        }
    }

    /// Arm the overload brownout controller: when the number of queued
    /// bus requests stays at or above the high watermark for
    /// `enter_after` consecutive cycles, every LCF steps its
    /// integrity-verified regions down the declared-safe posture lattice
    /// ([`secbus_core::brownout_posture`]: verify → cipher-only, never
    /// to bypass) and steps back up only after `exit_after` consecutive
    /// low-pressure cycles. Entry and exit are visible as
    /// [`TraceEvent::DegradeEnter`] / [`TraceEvent::DegradeExit`].
    pub fn degrade(mut self, cfg: DegradeConfig) -> Self {
        self.degrade = Some(cfg);
        self
    }

    /// Arm DIFT-style taint tracking: data entering a master from an
    /// unprotected or cipher-only DDR region (per the LCF policies) tags
    /// the master; tags propagate through shared-memory writes; a tainted
    /// write reaching a confidentiality+integrity region — or a tainted
    /// master initiating a policy-epoch commit — raises
    /// [`Violation::TaintedSink`]. Off by default; the taint layer only
    /// *adds* denials and alerts, it never admits anything new.
    pub fn taint_tracking(mut self) -> Self {
        self.taint = true;
        self
    }

    /// Arm the observability spine: every component (bus, Local
    /// Firewalls, LCF, Security Monitor and the master ports) records
    /// cycle-stamped [`TraceEvent`]s into one shared ring retaining at
    /// most `capacity` events. Off by default — tracing changes no
    /// simulated behaviour, only what is observable afterwards via
    /// [`Soc::tracer`] and [`Soc::chrome_trace`].
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Give every integrity-protected LCF region an AEGIS-style cache of
    /// `entries` trusted hash-tree nodes. Verification stops at the first
    /// cached ancestor; verdicts and alerts are identical to the uncached
    /// walk — only the modeled Integrity-Core cycle cost changes.
    pub fn ic_cache(mut self, entries: usize) -> Self {
        self.ic_cache = Some(entries);
        self
    }

    /// Arm the LCF's crash-consistency layer: every protected write is
    /// journaled (two-phase) and the secure state is checkpointed to the
    /// authenticated [`SecureStateImage`] slot every `interval` commits.
    ///
    /// [`SecureStateImage`]: secbus_crypto::SecureStateImage
    pub fn journal(mut self, interval: u64, state_key: [u8; 16]) -> Self {
        self.journal = Some((interval, state_key));
        self
    }

    /// Boot by *recovering* the supplied checkpoint against the (already
    /// sealed, crash-surviving) DDR contents instead of sealing a fresh
    /// boot image. Requires [`SocBuilder::journal`] with the same state
    /// key that produced the checkpoint. The outcome is reported by
    /// [`Soc::recovery_report`]; a quarantined outcome leaves the LCF
    /// blocked.
    pub fn resume_from(mut self, checkpoint: SecureCheckpoint) -> Self {
        self.resume = Some(checkpoint);
        self
    }

    /// Override the system clock.
    pub fn clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Override the bus timing parameters.
    pub fn bus_config(mut self, cfg: BusConfig) -> Self {
        self.bus_config = cfg;
        self
    }

    /// Override the arbitration policy.
    pub fn arbiter(mut self, arbiter: Box<dyn Arbiter>) -> Self {
        self.arbiter = arbiter;
        self
    }

    /// Override the Security Builder timing used by every firewall.
    pub fn sb_timing(mut self, timing: SbTiming) -> Self {
        self.sb_timing = timing;
        self
    }

    /// Override the crypto-core timing used by the LCF.
    pub fn crypto_timing(mut self, timing: CryptoTiming) -> Self {
        self.crypto_timing = timing;
        self
    }

    /// Block an IP after this many violations (0 = discard-only).
    pub fn monitor_threshold(mut self, threshold: u64) -> Self {
        self.monitor_threshold = threshold;
        self
    }

    /// Make monitor blocks time-bounded: the IP is released after
    /// `cycles` cycles (quarantine instead of a permanent block).
    pub fn quarantine(mut self, cycles: u64) -> Self {
        self.quarantine_cycles = Some(cycles);
        self
    }

    /// Quiesce window for policy reconfiguration.
    pub fn reconfig_latency(mut self, cycles: u64) -> Self {
        self.reconfig_latency = cycles;
        self
    }

    /// Arm the monitor's watchdog: any bus transaction still outstanding
    /// `timeout` cycles after issue is cancelled everywhere it might live
    /// and replaced by a synthesized [`BusError::Timeout`] response, so a
    /// dropped grant or wedged slave degrades to a reported error instead
    /// of hanging the issuing IP forever.
    ///
    /// # Panics
    /// Panics on a zero timeout.
    pub fn watchdog(mut self, timeout: u64) -> Self {
        self.watchdog = Some(timeout);
        self
    }

    /// Enable bounded retry-with-exponential-backoff at every master
    /// interface (see [`RetryPolicy`]).
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Make quarantines self-healing: when the monitor quarantines the
    /// LCF, its protected regions' integrity trees are rebuilt from the
    /// ciphertext currently in memory (and re-keyed if `rekey` is set);
    /// when it quarantines a Local Firewall, that firewall's
    /// Configuration Memory is parity-scrubbed. Either way the IP comes
    /// back from quarantine with clean security state.
    pub fn auto_recover(mut self, rekey: bool) -> Self {
        self.auto_recover = Some(AutoRecover { rekey });
        self
    }

    /// Build the *generic* system: all firewall configurations are ignored
    /// and every IP talks to the bus directly (the Table I baseline row
    /// and the denominator of every overhead measurement).
    pub fn without_security(mut self) -> Self {
        self.security = false;
        self
    }

    /// Add a bus master with no Local Firewall.
    pub fn add_master(mut self, device: Box<dyn BusMaster>) -> Self {
        self.masters.push((device, None, None));
        self
    }

    /// Add a bus master behind a Local Firewall with the given policies.
    pub fn add_protected_master(
        mut self,
        device: Box<dyn BusMaster>,
        policies: ConfigMemory,
    ) -> Self {
        self.masters.push((device, Some(policies), None));
        self
    }

    /// Add a bus master behind a Local Firewall that also enforces a
    /// traffic budget (the DoS-mitigation extension).
    pub fn add_rate_limited_master(
        mut self,
        device: Box<dyn BusMaster>,
        policies: ConfigMemory,
        limit: RateLimit,
    ) -> Self {
        self.masters.push((device, Some(policies), Some(limit)));
        self
    }

    /// Add an internal BRAM slave, optionally behind a slave-side LF.
    pub fn add_bram(
        mut self,
        label: impl Into<String>,
        range: AddrRange,
        bram: Bram,
        policies: Option<ConfigMemory>,
    ) -> Self {
        self.brams.push((label.into(), range, bram, policies));
        self
    }

    /// Attach the external DDR, optionally behind the LCF whose policies
    /// (with CM/IM modes and keys) are given.
    pub fn set_ddr(
        mut self,
        label: impl Into<String>,
        range: AddrRange,
        ddr: ExternalDdr,
        lcf_policies: Option<ConfigMemory>,
    ) -> Self {
        self.ddr = Some((label.into(), range, ddr, lcf_policies));
        self
    }

    /// Assemble and seal the system, panicking on a misconfigured
    /// builder. Prefer [`SocBuilder::try_build`] where a configuration
    /// error should be handled rather than abort.
    pub fn build(self) -> Soc {
        match self.try_build() {
            Ok(soc) => soc,
            Err(e) => panic!("SocBuilder::build: {e}"),
        }
    }

    /// Assemble and seal the system, reporting configuration errors as
    /// typed values instead of panicking.
    pub fn try_build(self) -> Result<Soc, BuildError> {
        if self.resume.is_some() && self.journal.is_none() {
            return Err(BuildError::ResumeWithoutJournal);
        }
        let mut bus = SharedBus::new(self.bus_config, self.arbiter);
        let tracer = self.trace_capacity.map(Tracer::new);
        let mut next_fw = 0u8;
        let mut alloc_fw = || {
            let id = FirewallId(next_fw);
            next_fw += 1;
            id
        };

        let mut masters: Vec<MasterSlot> = self
            .masters
            .into_iter()
            .map(|(device, policies, limit)| {
                let bus_id = bus.add_master();
                let firewall = if self.security {
                    policies.map(|p| {
                        let fw =
                            LocalFirewall::new(alloc_fw(), format!("LF {}", device.label()), p)
                                .with_timing(self.sb_timing);
                        match limit {
                            Some(l) => fw.with_rate_limit(l),
                            None => fw,
                        }
                    })
                } else {
                    None
                };
                MasterSlot {
                    bus_id,
                    device: Some(device),
                    firewall,
                    inflight: InFlightTable::default(),
                    inbound: VecDeque::new(),
                    ready: VecDeque::new(),
                }
            })
            .collect();

        let mut slaves: Vec<SlaveSlot> = Vec::new();
        for (label, range, bram, policies) in self.brams {
            let bus_id = bus.add_slave();
            bus.map_range(bus_id, range)
                .expect("overlapping BRAM range");
            let firewall = if self.security {
                policies.map(|p| {
                    LocalFirewall::new(alloc_fw(), format!("LF {label}"), p)
                        .with_timing(self.sb_timing)
                })
            } else {
                None
            };
            slaves.push(SlaveSlot {
                bus_id,
                label,
                base: range.base,
                kind: SlaveKind::Bram(Box::new(bram)),
                firewall,
                pending: None,
                stall_next: 0,
            });
        }
        let mut recovery = None;
        let mut taint = self.taint.then(|| TaintEngine::new(masters.len()));
        if let Some((label, range, mut ddr, lcf_policies)) = self.ddr {
            // Taint sources and sinks come straight from the LCF's policy
            // table: what the paper protects is what DIFT must guard, and
            // what it leaves in the clear is where taint enters. Without
            // an LCF the whole external memory is attacker-reachable.
            if let Some(te) = taint.as_mut() {
                match &lcf_policies {
                    Some(policies) => {
                        for pol in policies.policies() {
                            match (pol.cm, pol.im) {
                                (ConfidentialityMode::Encrypt, IntegrityMode::Verify) => {
                                    te.add_sink(pol.region.base, pol.region.len);
                                }
                                (ConfidentialityMode::Encrypt, IntegrityMode::Bypass) => {
                                    te.add_source(
                                        pol.region.base,
                                        pol.region.len,
                                        TaintTag::CipherOnly,
                                    );
                                }
                                (ConfidentialityMode::Bypass, _) => {
                                    te.add_source(
                                        pol.region.base,
                                        pol.region.len,
                                        TaintTag::Unprotected,
                                    );
                                }
                            }
                        }
                    }
                    None => te.add_source(range.base, range.len, TaintTag::Unprotected),
                }
            }
            let bus_id = bus.add_slave();
            bus.map_range(bus_id, range).expect("overlapping DDR range");
            let lcf = if self.security {
                lcf_policies.map(|p| {
                    let mut lcf = LocalCipheringFirewall::new(
                        alloc_fw(),
                        format!("LCF {label}"),
                        p,
                        range.base,
                        self.crypto_timing,
                    )
                    .with_sb_timing(self.sb_timing);
                    if let Some(entries) = self.ic_cache {
                        lcf.enable_ic_cache(entries);
                    }
                    if let Some((interval, key)) = self.journal {
                        lcf.enable_journal(interval, key);
                    }
                    match &self.resume {
                        Some(cp) => {
                            let (interval, key) =
                                self.journal.expect("checked at the top of try_build");
                            recovery = Some(lcf.recover_from(
                                &mut ddr,
                                &cp.state,
                                key,
                                Some(cp.counter.clone()),
                                interval,
                            ));
                        }
                        None => {
                            lcf.seal(&mut ddr);
                        }
                    }
                    lcf
                })
            } else {
                None
            };
            slaves.push(SlaveSlot {
                bus_id,
                label,
                base: range.base,
                kind: SlaveKind::Ddr {
                    ddr: Box::new(ddr),
                    lcf: lcf.map(Box::new),
                },
                firewall: None,
                pending: None,
                stall_next: 0,
            });
        }

        let mut monitor = SecurityMonitor::new(self.monitor_threshold);
        if let Some(q) = self.quarantine_cycles {
            monitor = monitor.with_quarantine(q);
        }
        if let Some(w) = self.watchdog {
            monitor = monitor.with_watchdog(w);
        }

        if let Some(t) = &tracer {
            bus.set_tracer(t.clone());
            monitor.set_tracer(t.clone());
            for slot in &mut masters {
                if let Some(fw) = slot.firewall.as_mut() {
                    fw.set_tracer(t.clone());
                }
            }
            for slot in &mut slaves {
                if let Some(fw) = slot.firewall.as_mut() {
                    fw.set_tracer(t.clone());
                }
                if let SlaveKind::Ddr { lcf: Some(lcf), .. } = &mut slot.kind {
                    lcf.set_tracer(t.clone());
                }
            }
        }

        let mut reconfig = ReconfigController::new(self.reconfig_latency);
        if let Some(cp) = &self.resume {
            reconfig.resume_epoch(cp.policy_epoch);
        }

        let halted_masters = masters
            .iter()
            .filter(|m| m.device.as_ref().is_some_and(|d| d.halted()))
            .count();

        Ok(Soc {
            clock: self.clock,
            now: Cycle::ZERO,
            bus,
            masters,
            slaves,
            monitor,
            reconfig,
            releases: Vec::new(),
            faults: FaultPlan::empty(),
            retry: self.retry,
            auto_recover: self.auto_recover,
            track_issues: self.watchdog.is_some() || self.retry.is_some(),
            recovery_rng: SimRng::new(0x5ec_b05).derive("soc.recovery"),
            security: self.security,
            stats: Stats::slotted(SocCounter::KEYS, SocHistogram::KEYS),
            alerts: Vec::new(),
            tracer,
            powered_off: false,
            torn_seen: 0,
            recovery,
            taint,
            degrade: self.degrade.map(Hysteresis::new),
            core: SimCore::from_env(),
            halted_masters,
            ticks_executed: 0,
        })
    }
}

/// Why [`SocBuilder::try_build`] refused to assemble the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildError {
    /// [`SocBuilder::resume_from`] was given a checkpoint but no
    /// [`SocBuilder::journal`] configuration: recovery replays the
    /// write-ahead journal, so a resume without one cannot be sound.
    ResumeWithoutJournal,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::ResumeWithoutJournal => {
                write!(f, "resume_from requires SocBuilder::journal")
            }
        }
    }
}

impl std::error::Error for BuildError {}

enum SlaveKind {
    Bram(Box<Bram>),
    Ddr {
        ddr: Box<ExternalDdr>,
        lcf: Option<Box<LocalCipheringFirewall>>,
    },
}

struct MasterSlot {
    bus_id: MasterId,
    device: Option<Box<dyn BusMaster>>,
    firewall: Option<LocalFirewall>,
    /// Transactions on the bus whose response needs a verdict stamp, the
    /// inbound read check, or the watchdog/retry path.
    inflight: InFlightTable,
    /// Responses maturing through the inbound check delay.
    inbound: VecDeque<(u64, Response)>,
    /// Responses ready for the device.
    ready: VecDeque<Response>,
}

struct SlaveSlot {
    bus_id: SlaveId,
    label: String,
    base: u32,
    kind: SlaveKind,
    firewall: Option<LocalFirewall>,
    /// The single in-service transaction and its completion time.
    pending: Option<(u64, Response)>,
    /// Stall cycles (from an injected fault) charged to the next service
    /// when none is pending at injection time.
    stall_next: u64,
}

/// The IP-side port: checks writes outbound, records reads for the
/// inbound check, and synthesizes discard responses for violations.
struct PortAdapter<'a> {
    bus: &'a mut SharedBus,
    monitor: &'a mut SecurityMonitor,
    firewall: Option<&'a mut LocalFirewall>,
    master: MasterId,
    inflight: &'a mut InFlightTable,
    inbound: &'a mut VecDeque<(u64, Response)>,
    ready: &'a mut VecDeque<Response>,
    /// System stats, for the txn-lifecycle latency histograms.
    stats: &'a mut Stats,
    tracer: Option<&'a Tracer>,
    /// DIFT taint state, when armed.
    taint: Option<&'a mut TaintEngine>,
    /// Whether to remember issued transactions (watchdog/retry armed).
    track: bool,
    now: Cycle,
}

impl PortAdapter<'_> {
    /// Remember a transaction that actually went on the bus, when its
    /// response will need it (a verdict stamp, the inbound read check, or
    /// the armed watchdog/retry path), and start its watchdog timer.
    /// Discards synthesized at the interface never come through here —
    /// nothing is outstanding for them.
    fn track_issue(
        &mut self,
        txn: Transaction,
        firewall: Option<FirewallId>,
        verdict_at: Option<u64>,
        read_check: bool,
    ) {
        if self.track || verdict_at.is_some() || read_check {
            self.inflight.insert(InFlight {
                txn,
                verdict_at,
                read_check,
                tracked: self.track,
            });
        }
        if self.track {
            self.monitor.watch(&txn, firewall, self.now);
        }
    }

    /// DIFT read hook: the master joins the source tag of what it just
    /// asked for. Tagging at issue time (not delivery) is conservative —
    /// a discarded read still taints — which only ever errs toward alerts.
    fn taint_read(&mut self, addr: u32, bytes: u32) {
        let master = self.master.0;
        let Some(te) = self.taint.as_deref_mut() else {
            return;
        };
        let m = usize::from(master);
        let before = te.master_tag(m);
        let after = te.note_read(m, addr, bytes);
        if after > before {
            self.stats.incr_slot(SocCounter::TaintTaintedReads);
            if let Some(t) = self.tracer {
                t.record(
                    self.now,
                    TraceEvent::TaintSpread {
                        master,
                        addr,
                        tag: after.name(),
                    },
                );
            }
        }
    }

    /// DIFT write commit for a write that will land: tainted masters tag
    /// the touched words, clean masters scrub them.
    fn taint_commit_write(&mut self, addr: u32, bytes: u32) {
        let m = usize::from(self.master.0);
        if let Some(te) = self.taint.as_deref_mut() {
            if te.master_tag(m).is_tainted() {
                self.stats.incr_slot(SocCounter::TaintSpreadWrites);
            }
            te.commit_write(m, addr, bytes);
        }
    }

    /// Refuse an access at admission: the master's bounded request queue
    /// is full, so the access is shed *now* — a synthesized
    /// [`BusError::Overload`] response back to the IP, a per-master shed
    /// counter, and (behind a Local Firewall) a [`Violation::Shed`] alert
    /// to the monitor. Shed is an environment fault at the monitor: it
    /// never burns the master's violation budget, because overload is the
    /// fabric's condition, not the IP's misbehaviour.
    fn shed(&mut self, op: Op, addr: u32, width: Width, data: u32, burst: u16) -> TxnId {
        let id = self.bus.alloc_txn_id();
        self.stats.incr_slot(SocCounter::Shed);
        self.stats.incr_slot(shed_slot(self.master.0));
        if let Some(fw) = self.firewall.as_deref_mut() {
            let probe = Transaction {
                id,
                master: self.master,
                op,
                addr,
                width,
                data,
                burst: burst.max(1),
                issued_at: self.now,
            };
            fw.raise_alert(&probe, Violation::Shed, self.now);
        }
        if let Some(t) = self.tracer {
            t.record(
                self.now,
                TraceEvent::TxnIssued {
                    txn: id.0,
                    master: self.master.0,
                    addr,
                    write: op == Op::Write,
                },
            );
            t.record(
                self.now,
                TraceEvent::TxnComplete {
                    txn: id.0,
                    master: self.master.0,
                    ok: false,
                    latency: 0,
                },
            );
        }
        self.stats.record_slot(SocHistogram::VerdictToComplete, 0);
        self.inbound.push_back((
            self.now.get(),
            Response {
                txn: id,
                data: 0,
                result: Err(BusError::Overload),
                completed_at: self.now,
            },
        ));
        id
    }
}

/// Byte span of one access: width × burst beats.
#[inline]
fn span_bytes(width: Width, burst: u16) -> u32 {
    width.bytes() * u32::from(burst.max(1))
}

/// Per-master shed counter slot; masters past the eighth share one.
fn shed_slot(master: u8) -> SocCounter {
    const SLOTS: [SocCounter; 8] = [
        SocCounter::ShedM0,
        SocCounter::ShedM1,
        SocCounter::ShedM2,
        SocCounter::ShedM3,
        SocCounter::ShedM4,
        SocCounter::ShedM5,
        SocCounter::ShedM6,
        SocCounter::ShedM7,
    ];
    SLOTS
        .get(usize::from(master))
        .copied()
        .unwrap_or(SocCounter::ShedMOther)
}

impl MasterAccess for PortAdapter<'_> {
    fn issue(&mut self, op: Op, addr: u32, width: Width, data: u32, burst: u16) -> TxnId {
        // Fail-secure admission control: a full request queue refuses the
        // access up front instead of growing without bound (or panicking
        // inside the arbiter). The refusal is typed, counted and alerted
        // — an open-loop source sees every shed access fail loudly.
        if self.bus.master_queue_free(self.master) == 0 {
            return self.shed(op, addr, width, data, burst);
        }
        match (&mut self.firewall, op) {
            // Writes: "before reaching the bus all data are checked".
            (Some(fw), Op::Write) => {
                let id = self.bus.alloc_txn_id();
                let probe = Transaction {
                    id,
                    master: self.master,
                    op,
                    addr,
                    width,
                    data,
                    burst: burst.max(1),
                    issued_at: self.now,
                };
                let decision = fw.check(&probe, self.now);
                self.stats
                    .record_slot(SocHistogram::IssueToVerdict, decision.latency);
                // DIFT: the address rules passed — now the information-flow
                // rule. A tainted master writing into a protected sink is
                // denied at the interface exactly like a policy violation.
                let tainted_sink = decision.allowed
                    && self.taint.as_deref_mut().is_some_and(|te| {
                        matches!(
                            te.write_verdict(
                                usize::from(probe.master.0),
                                addr,
                                span_bytes(width, burst)
                            ),
                            WriteVerdict::Sink(_)
                        )
                    });
                if tainted_sink {
                    fw.note_violation(&probe, Violation::TaintedSink, self.now);
                    self.stats.incr("soc.taint.sink_blocked");
                    if let Some(t) = self.tracer {
                        t.record(
                            self.now,
                            TraceEvent::TxnIssued {
                                txn: id.0,
                                master: self.master.0,
                                addr,
                                write: true,
                            },
                        );
                        t.record(
                            self.now,
                            TraceEvent::TaintSink {
                                txn: id.0,
                                master: self.master.0,
                                addr,
                                blocked: true,
                            },
                        );
                        t.record(
                            self.now,
                            TraceEvent::TxnComplete {
                                txn: id.0,
                                master: self.master.0,
                                ok: false,
                                latency: decision.latency,
                            },
                        );
                    }
                    self.stats.record_slot(SocHistogram::VerdictToComplete, 0);
                    self.inbound.push_back((
                        self.now.get() + decision.latency,
                        Response {
                            txn: id,
                            data: 0,
                            result: Err(BusError::Discarded),
                            completed_at: self.now,
                        },
                    ));
                    return id;
                }
                if decision.allowed {
                    // Re-issue through the bus with delayed eligibility; we
                    // burn the probe id to keep the id space monotone.
                    let fw_id = fw.id();
                    self.taint_commit_write(addr, span_bytes(width, burst));
                    let real = self.bus.issue_at(
                        self.master,
                        op,
                        addr,
                        width,
                        data,
                        burst,
                        self.now,
                        self.now + decision.latency,
                    );
                    if let Some(t) = self.tracer {
                        t.record(
                            self.now,
                            TraceEvent::TxnIssued {
                                txn: real.0,
                                master: self.master.0,
                                addr,
                                write: true,
                            },
                        );
                    }
                    self.track_issue(
                        Transaction { id: real, ..probe },
                        Some(fw_id),
                        Some(self.now.get() + decision.latency),
                        false,
                    );
                    real
                } else {
                    // Discarded at the interface: never reaches the bus.
                    if let Some(t) = self.tracer {
                        t.record(
                            self.now,
                            TraceEvent::TxnIssued {
                                txn: id.0,
                                master: self.master.0,
                                addr,
                                write: true,
                            },
                        );
                        t.record(
                            self.now,
                            TraceEvent::TxnComplete {
                                txn: id.0,
                                master: self.master.0,
                                ok: false,
                                latency: decision.latency,
                            },
                        );
                    }
                    self.stats.record_slot(SocHistogram::VerdictToComplete, 0);
                    self.inbound.push_back((
                        self.now.get() + decision.latency,
                        Response {
                            txn: id,
                            data: 0,
                            result: Err(BusError::Discarded),
                            completed_at: self.now,
                        },
                    ));
                    id
                }
            }
            // Reads: issued immediately; data checked on the way back.
            (Some(fw), Op::Read) => {
                let fw_id = fw.id();
                let id = self
                    .bus
                    .issue(self.master, op, addr, width, data, burst, self.now);
                let txn = Transaction {
                    id,
                    master: self.master,
                    op,
                    addr,
                    width,
                    data,
                    burst: burst.max(1),
                    issued_at: self.now,
                };
                if let Some(t) = self.tracer {
                    t.record(
                        self.now,
                        TraceEvent::TxnIssued {
                            txn: id.0,
                            master: self.master.0,
                            addr,
                            write: false,
                        },
                    );
                }
                self.taint_read(addr, span_bytes(width, burst));
                self.track_issue(txn, Some(fw_id), None, true);
                id
            }
            // Unprotected master: straight to the bus.
            (None, _) => {
                let id = self
                    .bus
                    .issue(self.master, op, addr, width, data, burst, self.now);
                let txn = Transaction {
                    id,
                    master: self.master,
                    op,
                    addr,
                    width,
                    data,
                    burst: burst.max(1),
                    issued_at: self.now,
                };
                if let Some(t) = self.tracer {
                    t.record(
                        self.now,
                        TraceEvent::TxnIssued {
                            txn: id.0,
                            master: self.master.0,
                            addr,
                            write: op == Op::Write,
                        },
                    );
                }
                // DIFT without a firewall: taint is still tracked, but
                // there is nothing to raise an alert through and nothing
                // to block with — a sink reach is *counted* and let
                // through, which is exactly the bare-mode damage metric.
                match op {
                    Op::Read => self.taint_read(addr, span_bytes(width, burst)),
                    Op::Write => {
                        let bytes = span_bytes(width, burst);
                        let m = usize::from(self.master.0);
                        let reached_sink = self.taint.as_deref_mut().is_some_and(|te| {
                            matches!(te.write_verdict(m, addr, bytes), WriteVerdict::Sink(_))
                        });
                        if reached_sink {
                            self.stats.incr("soc.taint.unalerted_sinks");
                            if let Some(t) = self.tracer {
                                t.record(
                                    self.now,
                                    TraceEvent::TaintSink {
                                        txn: id.0,
                                        master: self.master.0,
                                        addr,
                                        blocked: false,
                                    },
                                );
                            }
                        }
                        self.taint_commit_write(addr, bytes);
                    }
                }
                self.track_issue(txn, None, None, false);
                id
            }
        }
    }

    fn poll(&mut self) -> Option<Response> {
        self.ready.pop_front()
    }
}

/// The assembled system.
pub struct Soc {
    clock: Clock,
    now: Cycle,
    bus: SharedBus,
    masters: Vec<MasterSlot>,
    slaves: Vec<SlaveSlot>,
    monitor: SecurityMonitor,
    reconfig: ReconfigController,
    /// Scheduled quarantine releases: (cycle, firewall).
    releases: Vec<(u64, FirewallId)>,
    /// Cycle-stamped environment faults still waiting to fire.
    faults: FaultPlan,
    retry: Option<RetryPolicy>,
    auto_recover: Option<AutoRecover>,
    /// Whether master interfaces remember issued transactions
    /// (watchdog/retry armed at build time).
    track_issues: bool,
    /// Deterministic key stream for auto-recovery rekeys.
    recovery_rng: SimRng,
    security: bool,
    stats: Stats,
    /// The alert network's per-tick buffer: every firewall drains into
    /// it, the monitor consumes it, and it keeps its capacity.
    alerts: Vec<Alert>,
    /// The shared observability spine, when armed via [`SocBuilder::trace`].
    tracer: Option<Tracer>,
    /// Power is gone: the clock still counts (wall time) but no device,
    /// bus or firewall does any work until the system is rebuilt.
    powered_off: bool,
    /// DDR torn-store count already accounted for (edge detection).
    torn_seen: u64,
    /// What boot-time recovery did, when built with
    /// [`SocBuilder::resume_from`].
    recovery: Option<RecoveryReport>,
    /// DIFT taint state, when armed via [`SocBuilder::taint_tracking`].
    taint: Option<TaintEngine>,
    /// Overload brownout controller, when armed via [`SocBuilder::degrade`].
    degrade: Option<Hysteresis>,
    /// Which run-loop drives the system: the legacy stepped loop or the
    /// event-driven core that fast-forwards over provably idle cycles.
    core: SimCore,
    /// Masters currently reporting `halted()`, maintained on transition
    /// in the device-tick step so `run_until_halt` checks O(1) instead
    /// of re-polling every master every cycle.
    halted_masters: usize,
    /// Ticks actually executed (events, on the event core). A plain
    /// field, deliberately outside [`Stats`]: the metrics snapshot must
    /// stay byte-identical between cores, and this counter is the one
    /// thing that legitimately differs.
    ticks_executed: u64,
}

impl Soc {
    /// Advance the whole system by one cycle.
    pub fn tick(&mut self) {
        let now = self.now;
        self.ticks_executed += 1;

        // Power gone: wall time still passes (so bounded runs terminate)
        // but nothing computes. The system stays down until rebuilt via
        // [`SocBuilder::resume_from`].
        if self.powered_off {
            self.now = now.next();
            return;
        }

        // 0. Fire scheduled environment faults.
        if !self.faults.is_empty() {
            for event in self.faults.take_due(now) {
                self.apply_fault(event.kind);
            }
        }

        // 1. Route bus responses through retry handling and the inbound
        //    (read) check.
        for midx in 0..self.masters.len() {
            while let Some(resp) = self.bus.poll_response(self.masters[midx].bus_id) {
                self.route_response(midx, resp, now);
            }
        }

        // 1b. Watchdog: a transaction whose completion never arrived is
        //     cancelled everywhere it might still live (bus queues, slave
        //     service) and a synthesized timeout error takes its place,
        //     so a lost grant or wedged slave degrades to a reported
        //     error instead of hanging the issuing IP forever.
        let expired = self.monitor.expire(now);
        for expiry in expired {
            let Some(midx) = self
                .masters
                .iter()
                .position(|m| m.bus_id == expiry.txn.master)
            else {
                continue;
            };
            self.stats.incr_slot(SocCounter::WatchdogCancels);
            self.bus.cancel_inflight(expiry.txn.id);
            for slave in &mut self.slaves {
                if slave
                    .pending
                    .as_ref()
                    .is_some_and(|(_, r)| r.txn == expiry.txn.id)
                {
                    slave.pending = None;
                }
            }
            if let Some(fw) = self.masters[midx].firewall.as_mut() {
                fw.raise_alert(&expiry.txn, Violation::WatchdogTimeout, now);
            }
            let synth = Response {
                txn: expiry.txn.id,
                data: 0,
                result: Err(BusError::Timeout),
                completed_at: now,
            };
            self.route_response(midx, synth, now);
        }

        // 2. Mature inbound responses.
        for slot in &mut self.masters {
            while let Some(&(ready_at, resp)) = slot.inbound.front() {
                if ready_at <= now.get() {
                    slot.inbound.pop_front();
                    slot.ready.push_back(resp);
                } else {
                    break;
                }
            }
        }

        // 3. Tick the IPs through their port adapters. A missing device
        //    (an invariant break — the slot always holds one between
        //    ticks) is accounted and skipped rather than panicking the
        //    fabric.
        for slot in &mut self.masters {
            let Some(mut device) = slot.device.take() else {
                self.stats.incr("soc.invariant.device_missing");
                continue;
            };
            let was_halted = device.halted();
            {
                let mut port = PortAdapter {
                    bus: &mut self.bus,
                    monitor: &mut self.monitor,
                    firewall: slot.firewall.as_mut(),
                    master: slot.bus_id,
                    inflight: &mut slot.inflight,
                    inbound: &mut slot.inbound,
                    ready: &mut slot.ready,
                    stats: &mut self.stats,
                    tracer: self.tracer.as_ref(),
                    taint: self.taint.as_mut(),
                    track: self.track_issues,
                    now,
                };
                device.tick(&mut port, now);
            }
            // Maintain the halted census on transition (run_until_halt
            // checks a counter instead of re-polling every master).
            let is_halted = device.halted();
            if is_halted != was_halted {
                if is_halted {
                    self.halted_masters += 1;
                } else {
                    self.halted_masters -= 1;
                }
            }
            slot.device = Some(device);
        }

        // 4. Bus arbitration and routing.
        self.bus.tick(now);

        // 5. Slave service.
        for slot in &mut self.slaves {
            if let Some((completes_at, resp)) = slot.pending.take() {
                if completes_at <= now.get() {
                    self.bus.slave_complete(slot.bus_id, resp);
                } else {
                    slot.pending = Some((completes_at, resp));
                    continue;
                }
            }
            if slot.pending.is_none() {
                if let Some(txn) = self.bus.slave_pop(slot.bus_id) {
                    let (mut completes_at, resp) = Self::service(slot, &txn, now);
                    // Charge any injected stall accrued while idle.
                    completes_at += std::mem::take(&mut slot.stall_next);
                    slot.pending = Some((completes_at, resp));
                }
            }
        }

        // 5b. Account for fail-secure-dropped orphan completions (late
        // answers to watchdog-cancelled transactions and the like).
        let orphans = self.bus.drain_orphans();
        if !orphans.is_empty() {
            self.stats
                .add_slot(SocCounter::OrphanCompletions, orphans.len() as u64);
        }

        // 6. Alert network: firewalls -> monitor -> reactions. Drain order
        //    is master LFs in master order, then each slave's LF, then its
        //    LCF.
        let mut alerts = std::mem::take(&mut self.alerts);
        for slot in &mut self.masters {
            if let Some(fw) = slot.firewall.as_mut() {
                fw.drain_alerts_into(&mut alerts);
            }
        }
        for slot in &mut self.slaves {
            if let Some(fw) = slot.firewall.as_mut() {
                fw.drain_alerts_into(&mut alerts);
            }
            if let SlaveKind::Ddr { lcf: Some(lcf), .. } = &mut slot.kind {
                lcf.drain_alerts_into(&mut alerts);
            }
        }
        for alert in alerts.drain(..) {
            match self.monitor.observe(alert) {
                Reaction::BlockIp(fw_id) => self.block_firewall(fw_id),
                Reaction::Quarantine { firewall, until } => {
                    // Re-escalations while already quarantined (the
                    // blocked IP keeps knocking) extend the block but do
                    // not re-run recovery: one recovery per episode.
                    let already_quarantined = self.releases.iter().any(|(_, f)| *f == firewall);
                    self.block_firewall(firewall);
                    self.releases.push((until.get(), firewall));
                    if !already_quarantined {
                        self.recover(firewall);
                    }
                }
                Reaction::None => {}
            }
        }
        self.alerts = alerts;

        // 6b. Release expired quarantines.
        if !self.releases.is_empty() {
            let due: Vec<FirewallId> = self
                .releases
                .iter()
                .filter(|(at, _)| *at <= now.get())
                .map(|(_, fw)| *fw)
                .collect();
            self.releases.retain(|(at, _)| *at > now.get());
            for fw in due {
                self.unblock_firewall(fw);
            }
        }

        // 6c. Overload brownout: sustained fabric pressure (total queued
        //     bus requests) steps the LCF's verify regions down the safe
        //     posture lattice; a real drain steps them back up. Writes
        //     keep the hash tree current throughout, so re-tightening is
        //     sound and tampering during a brownout is caught by the
        //     first post-brownout verify.
        if let Some(hys) = self.degrade.as_mut() {
            let pressure = self.bus.total_pending_requests() as u64;
            let transition = hys.observe(pressure, now.get());
            if let Some(t) = transition {
                let brownout = matches!(t, Transition::Enter);
                self.stats.incr(if brownout {
                    "soc.degrade_enters"
                } else {
                    "soc.degrade_exits"
                });
                for (idx, slot) in self.slaves.iter_mut().enumerate() {
                    if let SlaveKind::Ddr { lcf: Some(lcf), .. } = &mut slot.kind {
                        lcf.set_brownout(brownout);
                        if let Some(tr) = &self.tracer {
                            tr.record(
                                now,
                                match t {
                                    Transition::Enter => TraceEvent::DegradeEnter {
                                        region: idx as u8,
                                        from: "verify",
                                        to: "cipher_only",
                                    },
                                    Transition::Exit { cycles } => TraceEvent::DegradeExit {
                                        region: idx as u8,
                                        cycles,
                                    },
                                },
                            );
                        }
                    }
                }
            }
        }

        // 7. Apply matured reconfigurations.
        for update in self.reconfig.take_ready(now) {
            self.apply_update(update);
        }

        // 8. A torn DDR burst means the power died mid-store: the moment
        //    the tear lands anywhere (LCF block write or raw store), the
        //    whole system goes dark with it.
        let mut died = false;
        for slot in &self.slaves {
            if let SlaveKind::Ddr { ddr, lcf } = &slot.kind {
                let crashed = lcf.as_ref().is_some_and(|l| l.crashed());
                if crashed || ddr.torn_stores() > self.torn_seen {
                    died = true;
                }
            }
        }
        if died {
            self.torn_seen = self
                .slaves
                .iter()
                .filter_map(|s| match &s.kind {
                    SlaveKind::Ddr { ddr, .. } => Some(ddr.torn_stores()),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            self.power_cut();
        }

        self.now = now.next();
        self.stats.incr_slot(SocCounter::Cycles);
    }

    /// Kill power now: every subsequent cycle is dead time. Volatile
    /// state (tree roots, timestamp tables, in-flight transactions) is
    /// lost; only the DDR ciphertext, the [`PersistentState`] and the
    /// monotonic counter survive for the next boot.
    ///
    /// [`PersistentState`]: secbus_core::PersistentState
    fn power_cut(&mut self) {
        if !self.powered_off {
            self.powered_off = true;
            self.stats.incr("soc.power_cuts");
        }
    }

    /// Deliver one response (from the bus or synthesized by the watchdog)
    /// to master `midx`, applying the retry policy first: a transient
    /// error on a transaction the interface still remembers is re-issued
    /// with exponential backoff instead of surfacing to the IP.
    fn route_response(&mut self, midx: usize, mut resp: Response, now: Cycle) {
        let slot = &mut self.masters[midx];
        let arrived = resp.txn;
        // A reissued transaction completes under its retry id; fold it
        // back onto the original so the IP only ever sees the id it
        // issued (and the inbound check finds its outstanding read).
        let (orig, attempts, record) = slot.inflight.take(arrived);
        resp.txn = orig;
        self.monitor.resolve(arrived);
        let transient = matches!(resp.result, Err(BusError::Slave) | Err(BusError::Timeout));
        if transient {
            if let Some(policy) = self.retry {
                if attempts < policy.max_attempts {
                    if let Some(record) = record.filter(|r| r.tracked) {
                        let orig_txn = record.txn;
                        let backoff = policy.base_backoff << attempts.min(32);
                        // A retry must respect admission control like any
                        // other access: a full request queue sheds the
                        // retry (the original error surfaces to the IP)
                        // instead of panicking inside the arbiter.
                        let retry_id = self.bus.try_issue_at(
                            slot.bus_id,
                            orig_txn.op,
                            orig_txn.addr,
                            orig_txn.width,
                            orig_txn.data,
                            orig_txn.burst,
                            now,
                            now + backoff,
                        );
                        if let Some(retry_id) = retry_id {
                            let retry_txn = Transaction {
                                id: retry_id,
                                issued_at: now,
                                ..orig_txn
                            };
                            slot.inflight.retry(record, retry_id, attempts + 1);
                            let fw = slot.firewall.as_ref().map(|f| f.id());
                            self.monitor.watch(&retry_txn, fw, now);
                            self.stats.incr_slot(SocCounter::Retries);
                            if let Some(t) = &self.tracer {
                                t.record(
                                    now,
                                    TraceEvent::Retransmit {
                                        id: resp.txn.0,
                                        layer: "soc",
                                    },
                                );
                            }
                            return;
                        }
                        self.stats.incr_slot(SocCounter::RetryShed);
                    }
                }
            }
        }
        // Final delivery: account the retry outcome, then run the inbound
        // ("before reaching the IP") check as usual.
        let issued = record.filter(|r| r.tracked).map(|r| r.txn);
        if attempts > 0 {
            if let Some(orig) = issued {
                self.stats.record_slot(
                    SocHistogram::RetryLatency,
                    now.saturating_since(orig.issued_at),
                );
            }
            if resp.result.is_ok() {
                self.stats.incr_slot(SocCounter::RetrySuccesses);
            }
        }
        let mut verdict_at = record.and_then(|r| r.verdict_at);
        let outstanding = record.filter(|r| r.read_check).map(|r| r.txn);
        let issued_at = issued.or(outstanding).map(|t| t.issued_at);
        let ready_at = match (slot.firewall.as_mut(), outstanding) {
            (Some(fw), Some(txn)) => {
                // "all data are checked before reaching the IP"
                let decision = fw.check(&txn, now);
                let at = now.get() + decision.latency;
                self.stats.record_slot(
                    SocHistogram::IssueToVerdict,
                    at.saturating_sub(txn.issued_at.get()),
                );
                verdict_at = Some(at);
                if !decision.allowed {
                    resp = Response {
                        txn: resp.txn,
                        data: 0,
                        result: Err(BusError::Discarded),
                        completed_at: resp.completed_at,
                    };
                }
                at
            }
            _ => now.get(),
        };
        if let Some(at) = verdict_at {
            self.stats
                .record_slot(SocHistogram::VerdictToComplete, ready_at.saturating_sub(at));
        }
        if let Some(t) = &self.tracer {
            let latency = issued_at.map_or(0, |at| ready_at.saturating_sub(at.get()));
            t.record(
                now,
                TraceEvent::TxnComplete {
                    txn: resp.txn.0,
                    master: slot.bus_id.0,
                    ok: resp.result.is_ok(),
                    latency,
                },
            );
        }
        slot.inbound.push_back((ready_at, resp));
    }

    /// Apply one scheduled fault to the hardware it targets. Selectors
    /// are reduced modulo the matching population, so any generated plan
    /// applies to any topology; a fault class with no possible target in
    /// this system (e.g. a CC glitch without an LCF) fizzles silently.
    fn apply_fault(&mut self, kind: FaultKind) {
        self.stats.incr(kind.soc_key());
        match kind {
            FaultKind::DdrBitFlip { offset, bit } => {
                for slot in &mut self.slaves {
                    if let SlaveKind::Ddr { ddr, .. } = &mut slot.kind {
                        if ddr.size() == 0 {
                            return;
                        }
                        let off = offset % ddr.size();
                        let byte = ddr.snoop(off, 1)[0] ^ (1 << (bit % 8));
                        ddr.tamper(off, &[byte]);
                        return;
                    }
                }
            }
            FaultKind::BusLoseGrant => self.bus.inject_lose_grant(),
            FaultKind::SlaveStall {
                slave,
                extra_cycles,
            } => {
                if self.slaves.is_empty() {
                    return;
                }
                let idx = usize::from(slave) % self.slaves.len();
                match &mut self.slaves[idx].pending {
                    Some((completes_at, _)) => *completes_at += extra_cycles,
                    None => self.slaves[idx].stall_next += extra_cycles,
                }
            }
            FaultKind::CorruptResponse { xor } => self.bus.inject_corrupt_response(xor),
            FaultKind::PolicyCorrupt {
                firewall,
                entry,
                bit,
            } => {
                let mut configs: Vec<&mut ConfigMemory> = Vec::new();
                for slot in &mut self.masters {
                    if let Some(fw) = slot.firewall.as_mut() {
                        configs.push(fw.config_mut());
                    }
                }
                for slot in &mut self.slaves {
                    if let Some(fw) = slot.firewall.as_mut() {
                        configs.push(fw.config_mut());
                    }
                    if let SlaveKind::Ddr { lcf: Some(lcf), .. } = &mut slot.kind {
                        configs.push(lcf.firewall_mut().config_mut());
                    }
                }
                if !configs.is_empty() {
                    let idx = usize::from(firewall) % configs.len();
                    configs[idx].corrupt_entry_bit(entry, bit);
                }
            }
            FaultKind::CcGlitch => {
                for slot in &mut self.slaves {
                    if let SlaveKind::Ddr { lcf: Some(lcf), .. } = &mut slot.kind {
                        lcf.inject_cc_glitch();
                    }
                }
            }
            FaultKind::IcGlitch => {
                for slot in &mut self.slaves {
                    if let SlaveKind::Ddr { lcf: Some(lcf), .. } = &mut slot.kind {
                        lcf.inject_ic_glitch();
                    }
                }
            }
            FaultKind::PowerCut => self.power_cut(),
            FaultKind::TornWrite { keep_bytes } => {
                for slot in &mut self.slaves {
                    if let SlaveKind::Ddr { ddr, .. } = &mut slot.kind {
                        ddr.tear_next_store(keep_bytes);
                        return;
                    }
                }
                // No DDR to tear: the power still dies.
                self.power_cut();
            }
            FaultKind::EpochCommitFault { stage } => {
                self.reconfig.arm_commit_fault(stage);
            }
            // NoC-layer faults: this SoC's interconnect is the shared
            // bus, so the mesh classes have no surface to land on here
            // (the `secbus-noc` mesh consumes them via `Mesh::apply_fault`).
            FaultKind::LinkBitFlip { .. }
            | FaultKind::LinkDrop { .. }
            | FaultKind::RouterStuck { .. } => {}
        }
    }

    /// Quarantine recovery (armed via [`SocBuilder::auto_recover`]): a
    /// quarantined LCF rebuilds every protected region's integrity tree
    /// from the ciphertext currently in memory — and re-keys the regions
    /// when configured — so residual fault damage to the tree state does
    /// not outlive the quarantine; a quarantined Local Firewall
    /// parity-scrubs its Configuration Memory.
    fn recover(&mut self, id: FirewallId) {
        let Some(policy) = self.auto_recover else {
            return;
        };
        for slot in &mut self.slaves {
            if let SlaveKind::Ddr {
                ddr,
                lcf: Some(lcf),
            } = &mut slot.kind
            {
                if lcf.firewall().id() != id {
                    continue;
                }
                let mut cycles = 0u64;
                for region in lcf.region_configs() {
                    if region.protection == Protection::None {
                        continue;
                    }
                    if let Ok(c) = lcf.rebuild_region(ddr, region.base) {
                        cycles += c;
                    }
                    if policy.rekey {
                        let mut key = [0u8; 16];
                        key[..8].copy_from_slice(&self.recovery_rng.next_u64().to_le_bytes());
                        key[8..].copy_from_slice(&self.recovery_rng.next_u64().to_le_bytes());
                        if let Ok(c) = lcf.rekey(ddr, region.base, key) {
                            cycles += c;
                        }
                    }
                }
                self.stats.incr("soc.recoveries");
                self.stats.add("soc.recovery_cycles", cycles);
                if let Some(t) = &self.tracer {
                    t.record(
                        self.now,
                        TraceEvent::Recovery {
                            firewall: id.0,
                            cycles,
                        },
                    );
                }
                return;
            }
        }
        for slot in &mut self.masters {
            if let Some(fw) = slot.firewall.as_mut().filter(|f| f.id() == id) {
                let repaired = fw.config_mut().scrub();
                // Recovery reloads the IP from its golden image, so any
                // tainted data it held is gone with the reset.
                if let Some(te) = self.taint.as_mut() {
                    te.scrub_master(usize::from(slot.bus_id.0));
                }
                self.stats.incr("soc.recoveries");
                self.stats.add("soc.recovery_scrubs", repaired as u64);
                if let Some(t) = &self.tracer {
                    t.record(
                        self.now,
                        TraceEvent::Recovery {
                            firewall: id.0,
                            cycles: 0,
                        },
                    );
                }
                return;
            }
        }
        for slot in &mut self.slaves {
            if let Some(fw) = slot.firewall.as_mut().filter(|f| f.id() == id) {
                let repaired = fw.config_mut().scrub();
                self.stats.incr("soc.recoveries");
                self.stats.add("soc.recovery_scrubs", repaired as u64);
                if let Some(t) = &self.tracer {
                    t.record(
                        self.now,
                        TraceEvent::Recovery {
                            firewall: id.0,
                            cycles: 0,
                        },
                    );
                }
                return;
            }
        }
    }

    fn service(slot: &mut SlaveSlot, txn: &Transaction, now: Cycle) -> (u64, Response) {
        // Slave-side firewall: checked before reaching the IP's memory.
        if let Some(fw) = slot.firewall.as_mut() {
            let decision = fw.check(txn, now);
            if !decision.allowed {
                return (
                    now.get() + decision.latency,
                    Response {
                        txn: txn.id,
                        data: 0,
                        result: Err(BusError::Discarded),
                        completed_at: now,
                    },
                );
            }
        }
        match &mut slot.kind {
            SlaveKind::Bram(bram) => {
                let offset = txn.addr - slot.base;
                let latency = bram.latency(offset, txn.op == Op::Write);
                let (data, result) = match txn.op {
                    Op::Read => match bram.read(offset, txn.width) {
                        Ok(v) => (v, Ok(())),
                        Err(_) => (0, Err(BusError::Slave)),
                    },
                    Op::Write => match bram.write(offset, txn.width, txn.data) {
                        Ok(()) => (0, Ok(())),
                        Err(_) => (0, Err(BusError::Slave)),
                    },
                };
                (
                    now.get() + latency,
                    Response {
                        txn: txn.id,
                        data,
                        result,
                        completed_at: now,
                    },
                )
            }
            SlaveKind::Ddr {
                ddr,
                lcf: Some(lcf),
            } => match lcf.handle(ddr, txn, now) {
                Ok(access) => (
                    now.get() + access.latency,
                    Response {
                        txn: txn.id,
                        data: access.data,
                        result: Ok(()),
                        completed_at: now,
                    },
                ),
                Err((violation, latency)) => {
                    let err = match violation {
                        secbus_core::Violation::IntegrityMismatch => BusError::IntegrityViolation,
                        _ => BusError::Discarded,
                    };
                    (
                        now.get() + latency,
                        Response {
                            txn: txn.id,
                            data: 0,
                            result: Err(err),
                            completed_at: now,
                        },
                    )
                }
            },
            SlaveKind::Ddr { ddr, lcf: None } => {
                let offset = txn.addr - slot.base;
                let latency = ddr.latency(offset, txn.op == Op::Write);
                let (data, result) = match txn.op {
                    Op::Read => match ddr.read(offset, txn.width) {
                        Ok(v) => (v, Ok(())),
                        Err(_) => (0, Err(BusError::Slave)),
                    },
                    Op::Write => match ddr.write(offset, txn.width, txn.data) {
                        Ok(()) => (0, Ok(())),
                        Err(_) => (0, Err(BusError::Slave)),
                    },
                };
                (
                    now.get() + latency,
                    Response {
                        txn: txn.id,
                        data,
                        result,
                        completed_at: now,
                    },
                )
            }
        }
    }

    fn block_firewall(&mut self, id: FirewallId) {
        for slot in &mut self.masters {
            if let Some(fw) = slot.firewall.as_mut().filter(|f| f.id() == id) {
                fw.block();
                return;
            }
        }
        for slot in &mut self.slaves {
            if let Some(fw) = slot.firewall.as_mut().filter(|f| f.id() == id) {
                fw.block();
                return;
            }
            if let SlaveKind::Ddr { lcf: Some(lcf), .. } = &mut slot.kind {
                if lcf.firewall().id() == id {
                    lcf.firewall_mut().block();
                    return;
                }
            }
        }
    }

    fn unblock_firewall(&mut self, id: FirewallId) {
        for slot in &mut self.masters {
            if let Some(fw) = slot.firewall.as_mut().filter(|f| f.id() == id) {
                fw.unblock();
                self.stats.incr("soc.quarantine_releases");
                return;
            }
        }
        for slot in &mut self.slaves {
            if let Some(fw) = slot.firewall.as_mut().filter(|f| f.id() == id) {
                fw.unblock();
                self.stats.incr("soc.quarantine_releases");
                return;
            }
            if let SlaveKind::Ddr { lcf: Some(lcf), .. } = &mut slot.kind {
                if lcf.firewall().id() == id {
                    lcf.firewall_mut().unblock();
                    self.stats.incr("soc.quarantine_releases");
                    return;
                }
            }
        }
    }

    fn apply_update(&mut self, update: PolicyUpdate) {
        let target = update.firewall;
        for slot in &mut self.masters {
            if let Some(fw) = slot.firewall.as_mut().filter(|f| f.id() == target) {
                let _ = self.reconfig.apply_to(fw, update);
                return;
            }
        }
        for slot in &mut self.slaves {
            if let Some(fw) = slot.firewall.as_mut().filter(|f| f.id() == target) {
                let _ = self.reconfig.apply_to(fw, update);
                return;
            }
            if let SlaveKind::Ddr { lcf: Some(lcf), .. } = &mut slot.kind {
                if lcf.firewall().id() == target {
                    let _ = self.reconfig.apply_to(lcf.firewall_mut(), update);
                    return;
                }
            }
        }
    }

    /// Run `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        let end = self.now + cycles;
        match self.core {
            SimCore::Stepped => {
                while self.now < end {
                    self.tick();
                }
            }
            SimCore::Event => {
                while self.now < end {
                    self.tick();
                    self.fast_forward_idle(end);
                }
            }
        }
    }

    /// Run until every master reports halted, or `max_cycles` elapse.
    /// Returns the cycle count actually simulated.
    pub fn run_until_halt(&mut self, max_cycles: u64) -> u64 {
        let start = self.now;
        let end = start + max_cycles;
        while self.now < end {
            if self.halted_masters == self.masters.len() {
                break;
            }
            self.tick();
            // Don't fast-forward past the halt check: once the last
            // master halts, the stepped loop stops on the next
            // iteration, and the event core must report the same cycle.
            if self.core == SimCore::Event && self.halted_masters != self.masters.len() {
                self.fast_forward_idle(end);
            }
        }
        self.now.get() - start.get()
    }

    /// Which core drives [`Soc::run`] / [`Soc::run_until_halt`].
    pub fn sim_core(&self) -> SimCore {
        self.core
    }

    /// Override the run-loop core (defaults to `SECBUS_SIM_CORE` /
    /// event-driven). Benches and the equivalence tests force both
    /// cores explicitly instead of mutating the process environment.
    pub fn set_sim_core(&mut self, core: SimCore) {
        self.core = core;
    }

    /// Ticks actually executed so far — on the stepped core equal to
    /// the simulated cycle count, on the event core the number of
    /// *events* (non-skipped cycles). Not part of the metrics snapshot.
    pub fn ticks_executed(&self) -> u64 {
        self.ticks_executed
    }

    /// Event-driven fast-forward: when every component's next tick is
    /// provably a state no-op until some future cycle, jump `now`
    /// there, bulk-accounting exactly what the skipped stepped ticks
    /// would have accounted (`soc.cycles`, residual `bus.busy_cycles`,
    /// hysteresis dwell counters). The target comes from
    /// [`Soc::next_wake_cycle`]: never past `end`, a scheduled
    /// fault/watchdog/release/epoch/degrade cycle, or any cycle where a
    /// component could act.
    fn fast_forward_idle(&mut self, end: Cycle) {
        if self.now >= end {
            return;
        }
        if self.powered_off {
            // Dead time: stepped ticks only advance the clock (no
            // accounting at all), so the jump is exact.
            self.now = end;
            return;
        }
        let Some(target) = self.next_wake_cycle(end) else {
            return;
        };
        let skipped = target.get() - self.now.get();
        self.bus.fast_forward(self.now, target);
        if let Some(hys) = self.degrade.as_mut() {
            let pressure = self.bus.total_pending_requests() as u64;
            hys.advance(pressure, skipped);
        }
        self.stats.add_slot(SocCounter::Cycles, skipped);
        self.now = target;
    }

    /// The earliest cycle after `self.now` (which must lie before `end`)
    /// at which ticking could change state, capped at `end`; `None`
    /// when some component could act at `self.now` itself (no skip).
    ///
    /// One allocation-free pass over the components: the first one due
    /// now ends it, and every other declared wake feeds a running
    /// minimum. Only that minimum leaves the pass: same-cycle effect
    /// order belongs to [`Soc::tick`] alone. Runs after every tick on
    /// the event core, so the saturated case (some component always
    /// busy) must bail out early.
    fn next_wake_cycle(&self, end: Cycle) -> Option<Cycle> {
        let now = self.now;
        // Fold one declared wake into the running minimum; a wake at or
        // before `now` means its component is due this cycle.
        let wake = |next: Cycle, at: Cycle| (at > now).then_some(next.min(at));
        let mut next = end;
        // Tick steps 2–3 per master, first: under saturation some device
        // is due every cycle, and this is the cheapest way to find it
        // (the checks below include a scan of the watchdog's list).
        for slot in &self.masters {
            if let Some(&(ready_at, _)) = slot.inbound.front() {
                next = wake(next, Cycle(ready_at))?;
            }
            // Alert queues are empty between ticks; verify, don't assume.
            if slot
                .firewall
                .as_ref()
                .is_some_and(|f| f.has_pending_alerts())
            {
                return None;
            }
            match slot.device.as_deref()?.next_wake(now) {
                Wake::Now => return None,
                Wake::At(at) => next = wake(next, at)?,
                // Pure while its response queue is empty.
                Wake::Waiting if !slot.ready.is_empty() => return None,
                // Terminally quiescent; undelivered responses are dead
                // letters under both cores.
                Wake::Waiting | Wake::Never => {}
            }
        }
        // Tick step 0: scheduled environment faults.
        if let Some(at) = self.faults.next_due() {
            next = wake(next, at)?;
        }
        // Tick steps 1 and 5b: undelivered responses or unaudited
        // orphans force a real tick.
        if self.bus.has_queued_responses() || self.bus.has_orphans() {
            return None;
        }
        // Tick step 1b: watchdog expiry deadlines.
        if let Some(at) = self.monitor.next_watchdog_deadline() {
            next = wake(next, at)?;
        }
        // Tick step 4: the bus.
        match self.bus.quiescence(now) {
            BusQuiet::Active => return None,
            BusQuiet::Until(at) => next = wake(next, at)?,
            BusQuiet::Idle => {}
        }
        // Tick step 5 per slave: in-service completions and idle slaves
        // with a request waiting; then the slave side of the alert
        // drain (step 6) and the power check (step 8).
        for slot in &self.slaves {
            match slot.pending {
                Some((completes_at, _)) => next = wake(next, Cycle(completes_at))?,
                None if self.bus.slave_peek(slot.bus_id).is_some() => return None,
                None => {}
            }
            if slot
                .firewall
                .as_ref()
                .is_some_and(|f| f.has_pending_alerts())
            {
                return None;
            }
            if let SlaveKind::Ddr { ddr, lcf } = &slot.kind {
                if lcf
                    .as_ref()
                    .is_some_and(|l| l.has_pending_alerts() || l.crashed())
                    || ddr.torn_stores() > self.torn_seen
                {
                    return None;
                }
            }
        }
        // Tick step 6b: quarantine releases.
        for &(at, _) in &self.releases {
            next = wake(next, Cycle(at))?;
        }
        // Tick step 6c: degrade hysteresis. Pressure is constant across
        // a skipped span (nothing issues, grants or completes), so the
        // next transition at constant pressure is exact.
        if let Some(hys) = &self.degrade {
            let pressure = self.bus.total_pending_requests() as u64;
            if let Some(at) = hys.next_transition(pressure, now.get()) {
                next = wake(next, Cycle(at))?;
            }
        }
        // Tick step 7: matured reconfigurations.
        if let Some(at) = self.reconfig.next_ready() {
            next = wake(next, at)?;
        }
        Some(next)
    }

    /// Attach (replacing any previous plan) the fault plan whose events
    /// fire at the top of each matching cycle. Attaching the same plan to
    /// the same system always replays the same faults — chaos runs stay
    /// seed-reproducible.
    pub fn attach_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Faults still scheduled to fire.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The merged stats of every firewall in the system — the Local
    /// Firewalls, the LCF's embedded firewall and the LCF's crypto-side
    /// counters — for fleet-wide metrics (parity repairs, integrity
    /// failures, tree rebuilds, …).
    pub fn firewall_stats(&self) -> Stats {
        let mut merged = Stats::new();
        for slot in &self.masters {
            if let Some(fw) = &slot.firewall {
                merged.merge(fw.stats());
            }
        }
        for slot in &self.slaves {
            if let Some(fw) = &slot.firewall {
                merged.merge(fw.stats());
            }
            if let SlaveKind::Ddr { lcf: Some(lcf), .. } = &slot.kind {
                merged.merge(lcf.firewall().stats());
                merged.merge(lcf.stats());
            }
        }
        merged
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The system clock.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Whether firewalls were instantiated.
    pub fn security_enabled(&self) -> bool {
        self.security
    }

    /// The shared bus (trace, stats, address map).
    pub fn bus(&self) -> &SharedBus {
        &self.bus
    }

    /// The security monitor (alert log and counters).
    pub fn monitor(&self) -> &SecurityMonitor {
        &self.monitor
    }

    /// Number of masters.
    pub fn master_count(&self) -> usize {
        self.masters.len()
    }

    /// A master device, for label/stats/halted inspection.
    pub fn master_device(&self, idx: usize) -> &dyn BusMaster {
        self.masters[idx].device.as_deref().expect("device present")
    }

    /// Downcast a master device to its concrete type.
    pub fn master_as<T: 'static>(&self, idx: usize) -> Option<&T> {
        self.master_device(idx).as_any().downcast_ref::<T>()
    }

    /// The firewall id guarding master `idx`, if protected.
    pub fn master_firewall_id(&self, idx: usize) -> Option<FirewallId> {
        self.masters[idx].firewall.as_ref().map(|f| f.id())
    }

    /// The firewall guarding master `idx`, if protected.
    pub fn master_firewall(&self, idx: usize) -> Option<&LocalFirewall> {
        self.masters[idx].firewall.as_ref()
    }

    /// The LCF, if the DDR is protected.
    pub fn lcf(&self) -> Option<&LocalCipheringFirewall> {
        self.slaves.iter().find_map(|s| match &s.kind {
            SlaveKind::Ddr { lcf, .. } => lcf.as_deref(),
            _ => None,
        })
    }

    /// The crypto backend the LCF's Confidentiality Core runs on, when
    /// a DDR-protecting LCF exists. Identity only — never part of the
    /// metrics snapshot, so reports stay byte-identical across backends
    /// (see `LocalCipheringFirewall::cc_backend`).
    pub fn cc_backend(&self) -> Option<secbus_crypto::CryptoBackend> {
        self.lcf().map(LocalCipheringFirewall::cc_backend)
    }

    /// Raw access to the external DDR — the adversary's physical surface.
    /// (`None` if the system has no DDR.)
    pub fn ddr_mut(&mut self) -> Option<&mut ExternalDdr> {
        self.slaves.iter_mut().find_map(|s| match &mut s.kind {
            SlaveKind::Ddr { ddr, .. } => Some(ddr.as_mut()),
            _ => None,
        })
    }

    /// Read-only access to the external DDR.
    pub fn ddr(&self) -> Option<&ExternalDdr> {
        self.slaves.iter().find_map(|s| match &s.kind {
            SlaveKind::Ddr { ddr, .. } => Some(ddr.as_ref()),
            _ => None,
        })
    }

    /// Read the shared BRAM contents (first BRAM slave), for assertions.
    pub fn bram_contents(&self) -> Option<&[u8]> {
        self.slaves.iter().find_map(|s| match &s.kind {
            SlaveKind::Bram(b) => Some(b.contents()),
            _ => None,
        })
    }

    /// Stage a policy reconfiguration; returns when it will apply.
    pub fn schedule_reconfig(&mut self, update: PolicyUpdate) -> Cycle {
        self.reconfig.schedule(update, self.now)
    }

    /// Atomically swap several firewalls' policy tables in one versioned
    /// epoch: every staged table is validated first, and either all of
    /// them take effect or none does (the `Err` names the offender).
    ///
    /// The attempt is visible on the trace spine: `EpochPrepare` when the
    /// batch enters validation, then exactly one of `EpochCommit` /
    /// `EpochAbort` (the abort carries the refusal reason).
    pub fn commit_policy_epoch(&mut self, updates: Vec<PolicyUpdate>) -> Result<u64, EpochError> {
        let attempt = self.reconfig.epoch() + 1;
        let staged = updates.len().min(usize::from(u8::MAX)) as u8;
        if let Some(t) = &self.tracer {
            t.record(
                self.now,
                TraceEvent::EpochPrepare {
                    epoch: attempt,
                    updates: staged,
                },
            );
        }
        let mut fws: Vec<&mut LocalFirewall> = Vec::new();
        for slot in &mut self.masters {
            if let Some(fw) = slot.firewall.as_mut() {
                fws.push(fw);
            }
        }
        for slot in &mut self.slaves {
            if let Some(fw) = slot.firewall.as_mut() {
                fws.push(fw);
            }
            if let SlaveKind::Ddr { lcf: Some(lcf), .. } = &mut slot.kind {
                fws.push(lcf.firewall_mut());
            }
        }
        let result = self.reconfig.commit_epoch(&mut fws, updates);
        if let Some(t) = &self.tracer {
            match &result {
                Ok(epoch) => t.record(
                    self.now,
                    TraceEvent::EpochCommit {
                        epoch: *epoch,
                        updates: staged,
                    },
                ),
                Err(e) => t.record(
                    self.now,
                    TraceEvent::EpochAbort {
                        epoch: attempt,
                        reason: e.reason(),
                    },
                ),
            }
        }
        result
    }

    /// Verifier-gated epoch admission: the staged tables are exhaustively
    /// checked against `program`'s intent *before* any firewall sees
    /// them. `targets` maps each DSL master index to the firewall its
    /// table is staged for; every update's firewall must appear in it. A
    /// verification failure refuses the whole epoch fail-secure
    /// ([`EpochError::Verifier`] wraps the concrete counterexample) and
    /// counts `reconfig.verifier_refusals` — a bad epoch is a refused
    /// epoch, never a staged one.
    pub fn commit_policy_epoch_checked(
        &mut self,
        program: &PolicyProgram,
        targets: &[(u8, FirewallId)],
        updates: Vec<PolicyUpdate>,
    ) -> Result<u64, EpochError> {
        let mut views: Vec<(u8, &[SecurityPolicy])> = Vec::with_capacity(updates.len());
        for update in &updates {
            match targets.iter().find(|(_, fw)| *fw == update.firewall) {
                Some(&(master, _)) => views.push((master, update.policies.as_slice())),
                None => {
                    self.stats.incr("reconfig.verifier_refusals");
                    if let Some(t) = &self.tracer {
                        t.record(
                            self.now,
                            TraceEvent::EpochAbort {
                                epoch: self.reconfig.epoch() + 1,
                                reason: "verifier",
                            },
                        );
                    }
                    return Err(EpochError::UnknownFirewall(update.firewall));
                }
            }
        }
        if let Err(e) = verify(program, &views) {
            self.stats.incr("reconfig.verifier_refusals");
            if let Some(t) = &self.tracer {
                t.record(
                    self.now,
                    TraceEvent::EpochAbort {
                        epoch: self.reconfig.epoch() + 1,
                        reason: "verifier",
                    },
                );
            }
            return Err(EpochError::Verifier(e));
        }
        self.commit_policy_epoch(updates)
    }

    /// Compile `program` and commit the result as one verifier-gated
    /// epoch. `targets` maps DSL master indices to firewalls; masters
    /// without a mapping are an [`EpochError::UnknownFirewall`] refusal.
    pub fn commit_policy_epoch_from(
        &mut self,
        program: &PolicyProgram,
        targets: &[(u8, FirewallId)],
    ) -> Result<u64, EpochError> {
        let compiled = program.compile().map_err(|_| {
            // A program that parses always compiles today; keep the seam
            // total anyway.
            EpochError::Verifier(secbus_core::PolicyVerifyError::MissingTable {
                master: String::new(),
                index: 0,
            })
        })?;
        let mut updates = Vec::with_capacity(compiled.tables.len());
        for table in &compiled.tables {
            let Some(&(_, fw)) = targets.iter().find(|(m, _)| *m == table.master) else {
                self.stats.incr("reconfig.verifier_refusals");
                return Err(EpochError::UnknownFirewall(FirewallId(table.master)));
            };
            updates.push(PolicyUpdate {
                firewall: fw,
                policies: table.policies.clone(),
            });
        }
        self.commit_policy_epoch_checked(program, targets, updates)
    }

    /// Like [`Soc::commit_policy_epoch`], but attributed to the master
    /// (by index) driving the commit — in the case study the runtime
    /// reconfiguration path is software on one of the CPUs. When taint
    /// tracking is armed and that master carries a taint tag, the commit
    /// is refused before validation even starts: the policy configuration
    /// path is a DIFT sink, and tainted data must never decide what the
    /// firewalls enforce. The refusal raises [`Violation::TaintedSink`]
    /// through the initiator's own firewall so the monitor sees it.
    pub fn commit_policy_epoch_as(
        &mut self,
        initiator: usize,
        updates: Vec<PolicyUpdate>,
    ) -> Result<u64, EpochError> {
        let tainted = self
            .taint
            .as_ref()
            .is_some_and(|te| te.master_tag(initiator).is_tainted());
        if tainted {
            let now = self.now;
            self.stats.incr("soc.taint.config_sink_refusals");
            self.stats.incr("reconfig.tainted_refusals");
            let slot = &mut self.masters[initiator];
            let master = slot.bus_id;
            let fw_id = slot
                .firewall
                .as_ref()
                .map(|f| f.id())
                .unwrap_or(FirewallId(u8::MAX));
            if let Some(fw) = slot.firewall.as_mut() {
                let probe = Transaction {
                    id: TxnId(0),
                    master,
                    op: Op::Write,
                    addr: 0,
                    width: Width::Word,
                    data: 0,
                    burst: 1,
                    issued_at: now,
                };
                fw.raise_alert(&probe, Violation::TaintedSink, now);
            }
            if let Some(t) = &self.tracer {
                t.record(
                    now,
                    TraceEvent::TaintSink {
                        txn: 0,
                        master: master.0,
                        addr: 0,
                        blocked: true,
                    },
                );
                t.record(
                    now,
                    TraceEvent::EpochAbort {
                        epoch: self.reconfig.epoch() + 1,
                        reason: "tainted_initiator",
                    },
                );
            }
            return Err(EpochError::TaintedInitiator(fw_id));
        }
        self.commit_policy_epoch(updates)
    }

    /// The DIFT taint state, when armed via [`SocBuilder::taint_tracking`].
    pub fn taint(&self) -> Option<&TaintEngine> {
        self.taint.as_ref()
    }

    /// The policy epoch currently in force.
    pub fn policy_epoch(&self) -> u64 {
        self.reconfig.epoch()
    }

    /// The epoch in which `fw`'s table was last swapped (0 if never) —
    /// after any commit attempt, every firewall the epoch targeted must
    /// report the same value or the fleet is straddling two postures.
    pub fn firewall_epoch(&self, fw: FirewallId) -> u64 {
        self.reconfig.firewall_epoch(fw)
    }

    /// Reconfiguration statistics (scheduled/applied/committed/aborted).
    pub fn reconfig_stats(&self) -> &Stats {
        self.reconfig.stats()
    }

    /// Whether a power cut (scheduled or torn-store-induced) has taken
    /// the system down. A powered-off SoC only counts wall-clock cycles.
    pub fn powered_off(&self) -> bool {
        self.powered_off
    }

    /// Capture the full secure state for a later deterministic resume:
    /// fold the journal into a fresh checkpoint, then hand out the
    /// persisted surface + monotonic counter + policy epoch. `None` when
    /// the LCF is absent or not journaled — there is nothing durable to
    /// capture.
    pub fn checkpoint(&mut self) -> Option<SecureCheckpoint> {
        let epoch = self.reconfig.epoch();
        for slot in &mut self.slaves {
            if let SlaveKind::Ddr { lcf: Some(lcf), .. } = &mut slot.kind {
                if !lcf.journal_enabled() {
                    return None;
                }
                if !self.powered_off {
                    lcf.force_checkpoint();
                }
                return Some(SecureCheckpoint {
                    state: lcf.persistent_state()?,
                    counter: lcf.anti_rollback_counter()?.clone(),
                    policy_epoch: epoch,
                });
            }
        }
        None
    }

    /// What boot-time recovery did (present only on a
    /// [`SocBuilder::resume_from`] boot).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Descriptions of every slave: (label, base address, protected?).
    pub fn slave_summary(&self) -> Vec<(String, u32, bool)> {
        self.slaves
            .iter()
            .map(|s| {
                let protected =
                    s.firewall.is_some() || matches!(&s.kind, SlaveKind::Ddr { lcf: Some(_), .. });
                (s.label.clone(), s.base, protected)
            })
            .collect()
    }

    /// Whether the overload brownout posture is currently engaged.
    pub fn degraded(&self) -> bool {
        self.degrade.as_ref().is_some_and(Hysteresis::active)
    }

    /// System-level statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The observability spine's tracer, when armed via
    /// [`SocBuilder::trace`].
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Chrome `trace_event` JSON of the retained trace window (load with
    /// `chrome://tracing` or Perfetto). `None` when tracing is off.
    pub fn chrome_trace(&self) -> Option<Json> {
        self.tracer.as_ref().map(|t| t.chrome_trace())
    }

    /// One hierarchical snapshot of every component's counters and
    /// histograms: the SoC's own lifecycle stats, the bus, the monitor,
    /// every Local Firewall (keyed by its label), the LCF (its embedded
    /// firewall merged with its crypto/journal counters) and — when
    /// tracing is armed — the trace buffer's own accounting. Rendering
    /// is key-sorted and byte-identical for identical simulations.
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        registry.insert("soc", &self.stats);
        registry.insert("bus", self.bus.stats());
        registry.insert("monitor", self.monitor.stats());
        registry.insert("reconfig", self.reconfig.stats());
        for slot in &self.masters {
            if let Some(fw) = &slot.firewall {
                registry.insert(fw.label(), fw.stats());
            }
        }
        for slot in &self.slaves {
            if let Some(fw) = &slot.firewall {
                registry.insert(fw.label(), fw.stats());
            }
            if let SlaveKind::Ddr { lcf: Some(lcf), .. } = &slot.kind {
                registry.insert(lcf.firewall().label(), lcf.firewall().stats());
                registry.insert(lcf.firewall().label(), lcf.stats());
            }
        }
        if let Some(t) = &self.tracer {
            let mut trace = Stats::new();
            trace.add("trace.dropped", t.dropped());
            trace.add("trace.retained", t.len() as u64);
            trace.add("trace.total", t.total());
            registry.insert("trace", &trace);
        }
        registry
    }

    /// Compact key-sorted JSON rendering of [`Soc::metrics_snapshot`].
    pub fn metrics_json(&self) -> String {
        self.metrics_snapshot().render()
    }

    /// Take a security audit snapshot (per-firewall counters + the
    /// monitor's retained alert trail).
    pub fn audit(&self) -> crate::report::AuditReport {
        let mut firewalls = Vec::new();
        let mut push_fw = |fw: &LocalFirewall| {
            firewalls.push(crate::report::FirewallAudit {
                label: fw.label().to_owned(),
                id: fw.id().0,
                checked: fw.stats().counter("fw.checked"),
                passed: fw.stats().counter("fw.passed"),
                discarded: fw.stats().counter("fw.discarded"),
                blocked: fw.is_blocked(),
                generation: fw.config().generation(),
                policies: fw.config().len(),
            });
        };
        for slot in &self.masters {
            if let Some(fw) = slot.firewall.as_ref() {
                push_fw(fw);
            }
        }
        for slot in &self.slaves {
            if let Some(fw) = slot.firewall.as_ref() {
                push_fw(fw);
            }
            if let SlaveKind::Ddr { lcf: Some(lcf), .. } = &slot.kind {
                push_fw(lcf.firewall());
            }
        }
        let trail = self
            .monitor
            .log()
            .iter()
            .map(|(cycle, a)| crate::report::AlertLine {
                cycle: cycle.get(),
                firewall: a.firewall.0,
                violation: a.violation.mnemonic().to_owned(),
                addr: a.txn.addr,
                op: a.txn.op.to_string(),
            })
            .collect();
        crate::report::AuditReport {
            now: self.now.get(),
            alerts: self.monitor.alert_count(),
            blocks: self.monitor.stats().counter("monitor.blocks"),
            firewalls,
            trail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secbus_core::{AdfSet, Rwa, SecurityPolicy};
    use secbus_cpu::{assemble, Mb32Core, StreamIp};

    const BRAM_BASE: u32 = 0x2000_0000;

    fn rw_policy(spi: u16, base: u32, len: u32) -> SecurityPolicy {
        SecurityPolicy::internal(spi, AddrRange::new(base, len), Rwa::ReadWrite, AdfSet::ALL)
    }

    fn small_soc(policies: Option<Vec<SecurityPolicy>>, program: &str) -> Soc {
        let program = assemble(program).unwrap();
        let core = Mb32Core::with_local_program("cpu0", 0, program);
        let mut b = SocBuilder::new().add_bram(
            "bram",
            AddrRange::new(BRAM_BASE, 0x1000),
            Bram::new(0x1000),
            None,
        );
        b = match policies {
            Some(p) => {
                b.add_protected_master(Box::new(core), ConfigMemory::with_policies(p).unwrap())
            }
            None => b.add_master(Box::new(core)),
        };
        b.build()
    }

    #[test]
    fn unprotected_program_runs_to_halt() {
        let mut soc = small_soc(
            None,
            r"
            li  r1, 0x20000000
            addi r2, r0, 42
            sw  r2, 0(r1)
            lw  r3, 0(r1)
            halt
            ",
        );
        let cycles = soc.run_until_halt(10_000);
        assert!(cycles < 200, "took {cycles}");
        let core = soc.master_as::<Mb32Core>(0).unwrap();
        assert_eq!(core.reg(secbus_cpu::Reg(3)), 42);
        assert_eq!(soc.bram_contents().unwrap()[0], 42);
    }

    #[test]
    fn protected_program_runs_with_added_latency() {
        let src = r"
            li  r1, 0x20000000
            addi r2, r0, 42
            sw  r2, 0(r1)
            lw  r3, 0(r1)
            halt
        ";
        let mut plain = small_soc(None, src);
        let base_cycles = plain.run_until_halt(10_000);

        let mut protected = small_soc(Some(vec![rw_policy(1, BRAM_BASE, 0x1000)]), src);
        let prot_cycles = protected.run_until_halt(10_000);

        let core = protected.master_as::<Mb32Core>(0).unwrap();
        assert_eq!(core.reg(secbus_cpu::Reg(3)), 42, "functionally identical");
        assert!(
            prot_cycles > base_cycles,
            "checking must cost cycles: {prot_cycles} vs {base_cycles}"
        );
        // One checked write + one checked read = 2 × 12 cycles of added
        // latency, serialised with everything else.
        assert!(
            prot_cycles - base_cycles >= 20,
            "delta {}",
            prot_cycles - base_cycles
        );
    }

    #[test]
    fn violating_write_never_reaches_the_bus() {
        // Policy covers only the first 16 bytes; program writes outside.
        let mut soc = small_soc(
            Some(vec![rw_policy(1, BRAM_BASE, 16)]),
            r"
            li  r1, 0x20000000
            addi r2, r0, 7
            sw  r2, 0(r1)     ; allowed
            sw  r2, 64(r1)    ; out of policy -> discarded at the interface
            halt
            ",
        );
        soc.run_until_halt(10_000);
        // The violating write is NOT in the bus trace (containment).
        let writes: Vec<u32> = soc
            .bus()
            .trace()
            .iter()
            .filter(|(_, t)| t.op == Op::Write)
            .map(|(_, t)| t.addr)
            .collect();
        assert_eq!(
            writes,
            vec![BRAM_BASE],
            "only the allowed write was granted"
        );
        // The BRAM was not modified at the forbidden offset.
        assert_eq!(soc.bram_contents().unwrap()[64], 0);
        // And the alert reached the monitor.
        assert_eq!(soc.monitor().alert_count(), 1);
        // The infected core kept running to halt (local containment).
        assert!(soc.master_device(0).halted());
    }

    #[test]
    fn violating_read_is_discarded_before_the_ip() {
        let mut soc = small_soc(
            Some(vec![SecurityPolicy::internal(
                1,
                AddrRange::new(BRAM_BASE, 0x1000),
                Rwa::WriteOnly, // reads forbidden
                AdfSet::ALL,
            )]),
            r"
            li  r1, 0x20000000
            addi r2, r0, 9
            sw  r2, 0(r1)
            lw  r3, 0(r1)   ; read violates RWA -> data never reaches the IP
            halt
            ",
        );
        soc.run_until_halt(10_000);
        let core = soc.master_as::<Mb32Core>(0).unwrap();
        assert_eq!(core.reg(secbus_cpu::Reg(3)), 0, "read data was discarded");
        assert_eq!(core.stats().counter("core.access_errors"), 1);
        assert_eq!(soc.monitor().alert_count(), 1);
    }

    #[test]
    fn monitor_threshold_blocks_repeat_offender() {
        let program = r"
            li  r1, 0x20000000
            addi r2, r0, 1
        loop:
            sw  r2, 256(r1)   ; always violating
            addi r2, r2, 1
            blt r2, r3, loop
            halt
        ";
        let words = assemble(program).unwrap();
        let mut core = Mb32Core::with_local_program("cpu0", 0, words);
        core.set_reg(secbus_cpu::Reg(3), 10);
        let mut soc = SocBuilder::new()
            .monitor_threshold(3)
            .add_protected_master(
                Box::new(core),
                ConfigMemory::with_policies(vec![rw_policy(1, BRAM_BASE, 16)]).unwrap(),
            )
            .add_bram(
                "bram",
                AddrRange::new(BRAM_BASE, 0x1000),
                Bram::new(0x1000),
                None,
            )
            .build();
        soc.run_until_halt(20_000);
        assert!(soc.master_firewall(0).unwrap().is_blocked());
        assert!(soc.monitor().stats().counter("monitor.blocks") > 0);
    }

    #[test]
    fn quarantine_blocks_then_releases() {
        // A master violating forever: quarantined, released, re-quarantined.
        use secbus_cpu::{SyntheticConfig, SyntheticMaster};
        use secbus_sim::SimRng;
        let rogue = SyntheticMaster::new(
            "rogue",
            SyntheticConfig {
                windows: vec![(BRAM_BASE + 0x800, 0x100, 1)], // out of policy
                read_ratio: 0.0,
                widths: vec![secbus_bus::Width::Word],
                burst: 1,
                period: 4,
                total_ops: 0,
            },
            SimRng::new(1),
        );
        let mut soc = SocBuilder::new()
            .monitor_threshold(5)
            .quarantine(200)
            .add_protected_master(
                Box::new(rogue),
                ConfigMemory::with_policies(vec![rw_policy(1, BRAM_BASE, 16)]).unwrap(),
            )
            .add_bram(
                "bram",
                AddrRange::new(BRAM_BASE, 0x1000),
                Bram::new(0x1000),
                None,
            )
            .build();
        soc.run(10_000);
        // Multiple quarantine cycles must have happened: blocked more than
        // once, released more than once.
        assert!(soc.monitor().stats().counter("monitor.blocks") >= 2);
        assert!(soc.stats().counter("soc.quarantine_releases") >= 1);
    }

    #[test]
    fn without_security_ignores_policies() {
        let src = r"
            li  r1, 0x20000000
            addi r2, r0, 5
            sw  r2, 256(r1)
            halt
        ";
        let program = assemble(src).unwrap();
        let core = Mb32Core::with_local_program("cpu0", 0, program);
        let mut soc = SocBuilder::new()
            .without_security()
            .add_protected_master(
                Box::new(core),
                ConfigMemory::with_policies(vec![rw_policy(1, BRAM_BASE, 16)]).unwrap(),
            )
            .add_bram(
                "bram",
                AddrRange::new(BRAM_BASE, 0x1000),
                Bram::new(0x1000),
                None,
            )
            .build();
        soc.run_until_halt(10_000);
        assert!(!soc.security_enabled());
        assert_eq!(
            soc.bram_contents().unwrap()[256],
            5,
            "no firewall: write lands"
        );
        assert_eq!(soc.monitor().alert_count(), 0);
    }

    #[test]
    fn stream_ip_writes_through_its_firewall() {
        let fifo = BRAM_BASE + 0x100;
        let ip = StreamIp::new("ip0", fifo, 8, 4);
        let mut soc = SocBuilder::new()
            .add_protected_master(
                Box::new(ip),
                ConfigMemory::with_policies(vec![SecurityPolicy::internal(
                    1,
                    AddrRange::new(fifo, 16),
                    Rwa::WriteOnly,
                    AdfSet::WORD_ONLY,
                )])
                .unwrap(),
            )
            .add_bram(
                "bram",
                AddrRange::new(BRAM_BASE, 0x1000),
                Bram::new(0x1000),
                None,
            )
            .build();
        soc.run_until_halt(5_000);
        let ip = soc.master_as::<StreamIp>(0).unwrap();
        assert_eq!(ip.sent(), 4);
        assert_eq!(ip.stats().counter("stream.acked"), 4);
        // Last sample (3) landed in the fifo word.
        assert_eq!(soc.bram_contents().unwrap()[0x100], 3);
    }

    #[test]
    fn reconfiguration_applies_after_quiesce() {
        let src = r"
            li  r1, 0x20000000
        wait:
            lw  r2, 0(r1)
            beq r2, r0, wait  ; spin until a read succeeds (non-zero)
            halt
        ";
        // Policy initially forbids reads; after reconfig they succeed.
        let program = assemble(src).unwrap();
        let core = Mb32Core::with_local_program("cpu0", 0, program);
        let mut bram = Bram::new(0x1000);
        bram.load(0, &7u32.to_le_bytes());
        let mut soc = SocBuilder::new()
            .reconfig_latency(100)
            .add_protected_master(
                Box::new(core),
                ConfigMemory::with_policies(vec![SecurityPolicy::internal(
                    1,
                    AddrRange::new(BRAM_BASE, 0x1000),
                    Rwa::WriteOnly,
                    AdfSet::ALL,
                )])
                .unwrap(),
            )
            .add_bram("bram", AddrRange::new(BRAM_BASE, 0x1000), bram, None)
            .build();
        let fw_id = soc.master_firewall_id(0).unwrap();
        soc.run(50); // core spinning against denials
        assert!(soc.monitor().alert_count() > 0);
        soc.schedule_reconfig(PolicyUpdate {
            firewall: fw_id,
            policies: vec![rw_policy(2, BRAM_BASE, 0x1000)],
        });
        let cycles = soc.run_until_halt(20_000);
        assert!(cycles < 20_000, "core escaped the spin after reconfig");
        let core = soc.master_as::<Mb32Core>(0).unwrap();
        assert_eq!(core.reg(secbus_cpu::Reg(2)), 7);
    }

    const STORE_LOAD_SRC: &str = r"
        li  r1, 0x20000000
        addi r2, r0, 42
        sw  r2, 0(r1)
        lw  r3, 0(r1)
        halt
    ";

    fn store_load_soc(b: SocBuilder) -> Soc {
        let program = assemble(STORE_LOAD_SRC).unwrap();
        let core = Mb32Core::with_local_program("cpu0", 0, program);
        b.add_master(Box::new(core))
            .add_bram(
                "bram",
                AddrRange::new(BRAM_BASE, 0x1000),
                Bram::new(0x1000),
                None,
            )
            .build()
    }

    #[test]
    fn watchdog_unwedges_a_lost_grant() {
        use secbus_fault::{FaultEvent, FaultKind};
        let mut soc = store_load_soc(SocBuilder::new().watchdog(50));
        // The first grant the arbiter hands out vanishes (the core's sw):
        // without the watchdog the core would wait for its response
        // forever.
        soc.attach_fault_plan(FaultPlan::new(vec![FaultEvent {
            at: Cycle(1),
            kind: FaultKind::BusLoseGrant,
        }]));
        let cycles = soc.run_until_halt(10_000);
        assert!(cycles < 10_000, "watchdog must unwedge the core");
        assert_eq!(soc.stats().counter("soc.watchdog_cancels"), 1);
        let core = soc.master_as::<Mb32Core>(0).unwrap();
        assert_eq!(
            core.stats().counter("core.access_errors"),
            1,
            "sw surfaced as an error"
        );
        // The store was dropped, so the subsequent load reads zero.
        assert_eq!(core.reg(secbus_cpu::Reg(3)), 0);
    }

    #[test]
    fn retry_masks_a_lost_grant_from_the_ip() {
        use secbus_fault::{FaultEvent, FaultKind};
        let mut soc = store_load_soc(SocBuilder::new().watchdog(50).retry(RetryPolicy::default()));
        soc.attach_fault_plan(FaultPlan::new(vec![FaultEvent {
            at: Cycle(1),
            kind: FaultKind::BusLoseGrant,
        }]));
        let cycles = soc.run_until_halt(10_000);
        assert!(cycles < 10_000);
        // The interface re-issued the timed-out store behind the IP's
        // back: the program completes as if nothing happened.
        let core = soc.master_as::<Mb32Core>(0).unwrap();
        assert_eq!(core.stats().counter("core.access_errors"), 0);
        assert_eq!(core.reg(secbus_cpu::Reg(3)), 42);
        assert_eq!(soc.bram_contents().unwrap()[0], 42);
        assert_eq!(soc.stats().counter("soc.retries"), 1);
        assert_eq!(soc.stats().counter("soc.retry_successes"), 1);
    }

    #[test]
    fn quarantine_triggers_auto_recovery() {
        use secbus_cpu::{SyntheticConfig, SyntheticMaster};
        use secbus_sim::SimRng;
        let rogue = SyntheticMaster::new(
            "rogue",
            SyntheticConfig {
                windows: vec![(BRAM_BASE + 0x800, 0x100, 1)], // out of policy
                read_ratio: 0.0,
                widths: vec![secbus_bus::Width::Word],
                burst: 1,
                period: 4,
                total_ops: 0,
            },
            SimRng::new(1),
        );
        let mut soc = SocBuilder::new()
            .monitor_threshold(3)
            .quarantine(100)
            .auto_recover(false)
            .add_protected_master(
                Box::new(rogue),
                ConfigMemory::with_policies(vec![rw_policy(1, BRAM_BASE, 16)]).unwrap(),
            )
            .add_bram(
                "bram",
                AddrRange::new(BRAM_BASE, 0x1000),
                Bram::new(0x1000),
                None,
            )
            .build();
        soc.run(2_000);
        let blocks = soc.monitor().stats().counter("monitor.blocks");
        let recoveries = soc.stats().counter("soc.recoveries");
        let releases = soc.stats().counter("soc.quarantine_releases");
        assert!(blocks >= 1);
        assert!(
            recoveries >= 1,
            "a quarantine episode ran its recovery hook"
        );
        assert!(
            recoveries <= releases + 1,
            "recovery runs once per episode, not per re-escalation \
             ({recoveries} recoveries, {releases} releases)"
        );
    }

    #[test]
    fn fault_plan_application_is_reproducible() {
        use secbus_cpu::{SyntheticConfig, SyntheticMaster};
        use secbus_fault::{FaultRates, FaultSpec};
        use secbus_sim::SimRng;
        let build = || {
            let ip = SyntheticMaster::new(
                "ip",
                SyntheticConfig {
                    windows: vec![(BRAM_BASE, 0x400, 1)],
                    read_ratio: 0.5,
                    widths: vec![secbus_bus::Width::Word],
                    burst: 1,
                    period: 3,
                    total_ops: 0,
                },
                SimRng::new(9),
            );
            let mut soc = SocBuilder::new()
                .watchdog(64)
                .retry(RetryPolicy::default())
                .add_protected_master(
                    Box::new(ip),
                    ConfigMemory::with_policies(vec![rw_policy(1, BRAM_BASE, 0x400)]).unwrap(),
                )
                .add_bram(
                    "bram",
                    AddrRange::new(BRAM_BASE, 0x1000),
                    Bram::new(0x1000),
                    None,
                )
                .build();
            let spec = FaultSpec {
                duration: 5_000,
                ddr_bytes: 0,
                firewalls: 1,
                slaves: 1,
                noc_nodes: 0,
                rates: FaultRates::uniform(4.0),
            };
            soc.attach_fault_plan(FaultPlan::generate(0xC0FFEE, &spec));
            soc.run(5_000);
            let mut counters: Vec<(String, u64)> = soc
                .stats()
                .counters()
                .chain(soc.bus().stats().counters())
                .chain(soc.monitor().stats().counters())
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            counters.sort();
            counters
        };
        let a = build();
        assert!(
            a.iter().any(|(k, _)| k.starts_with("soc.fault.")),
            "faults actually fired"
        );
        assert_eq!(a, build(), "same seed + same plan => identical counters");
    }

    // ---- crash consistency: power cuts, torn writes, resume ----

    const CRASH_DDR_BASE: u32 = 0x8000_0000;
    const STATE_KEY: [u8; 16] = *b"secbus-statekey!";

    fn crash_lcf_policies() -> ConfigMemory {
        ConfigMemory::with_policies(vec![SecurityPolicy::external(
            7,
            AddrRange::new(CRASH_DDR_BASE, 0x100),
            Rwa::ReadWrite,
            AdfSet::ALL,
            secbus_core::ConfidentialityMode::Encrypt,
            secbus_core::IntegrityMode::Verify,
            Some(*b"secbus-ddr-key!!"),
        )])
        .unwrap()
    }

    /// A journaled DDR SoC running `program`, optionally on surviving
    /// DDR contents + checkpoint from a previous life.
    fn crash_soc(program: &str, previous: Option<(&[u8], SecureCheckpoint)>) -> Soc {
        let program = assemble(program).unwrap();
        let core = Mb32Core::with_local_program("cpu0", 0, program);
        let mut ddr = ExternalDdr::new(0x1000);
        let mut b = SocBuilder::new()
            .add_master(Box::new(core))
            .journal(1024, STATE_KEY);
        if let Some((contents, cp)) = previous {
            ddr.load(0, contents);
            b = b.resume_from(cp);
        }
        b.set_ddr(
            "ddr",
            AddrRange::new(CRASH_DDR_BASE, 0x1000),
            ddr,
            Some(crash_lcf_policies()),
        )
        .build()
    }

    #[test]
    fn power_cut_stops_all_work_but_not_the_clock() {
        use secbus_fault::{FaultEvent, FaultKind};
        let mut soc = crash_soc(
            r"
            li  r1, 0x80000000
            addi r2, r0, 1
        loop:
            sw  r2, 0(r1)
            addi r2, r2, 1
            j loop
            ",
            None,
        );
        soc.attach_fault_plan(FaultPlan::new(vec![FaultEvent {
            at: Cycle(300),
            kind: FaultKind::PowerCut,
        }]));
        soc.run(600);
        assert!(soc.powered_off());
        assert_eq!(soc.stats().counter("soc.power_cuts"), 1);
        assert_eq!(soc.now().get(), 600, "wall clock keeps counting");
        let completed_at_cut = soc.bus().trace().len();
        soc.run(500);
        assert_eq!(
            soc.bus().trace().len(),
            completed_at_cut,
            "no traffic after the cut"
        );
    }

    #[test]
    fn checkpointed_state_survives_a_power_cut_and_resume() {
        use secbus_fault::{FaultEvent, FaultKind};
        let mut soc = crash_soc(
            r"
            li  r1, 0x80000000
            addi r2, r0, 42
            sw  r2, 0(r1)
            halt
            ",
            None,
        );
        soc.run_until_halt(10_000);
        let cp = soc.checkpoint().expect("journaled LCF");
        // Power dies after the checkpoint.
        soc.attach_fault_plan(FaultPlan::new(vec![FaultEvent {
            at: soc.now(),
            kind: FaultKind::PowerCut,
        }]));
        soc.run(10);
        assert!(soc.powered_off());
        let survived = soc.ddr().unwrap().contents().to_vec();

        // Next life: recover instead of sealing, then read the value back.
        let mut next = crash_soc(
            r"
            li  r1, 0x80000000
            lw  r3, 0(r1)
            halt
            ",
            Some((&survived, cp)),
        );
        let report = *next.recovery_report().expect("resume boot recovers");
        assert_eq!(report.outcome, secbus_core::RecoveryOutcome::Clean);
        next.run_until_halt(10_000);
        let core = next.master_as::<Mb32Core>(0).unwrap();
        assert_eq!(core.reg(secbus_cpu::Reg(3)), 42, "pre-crash write survived");
    }

    #[test]
    fn torn_write_kills_power_and_recovery_repairs_it() {
        use secbus_fault::{FaultEvent, FaultKind};
        let mut soc = crash_soc(
            r"
            li  r1, 0x80000000
            addi r2, r0, 1
        loop:
            sw  r2, 0(r1)
            addi r2, r2, 1
            j loop
            ",
            None,
        );
        let cp_early = soc.checkpoint().expect("journaled");
        // Seal checkpointed at seq 1; capturing folds a fresh one.
        assert_eq!(cp_early.state.image.seq, 2);
        assert!(cp_early.state.journal.is_empty());
        soc.attach_fault_plan(FaultPlan::new(vec![FaultEvent {
            at: Cycle(200),
            kind: FaultKind::TornWrite { keep_bytes: 5 },
        }]));
        soc.run(2_000);
        assert!(soc.powered_off(), "a torn store takes the power with it");
        let cp = soc.checkpoint().expect("persistent surface still readable");
        let survived = soc.ddr().unwrap().contents().to_vec();

        let next = crash_soc("halt", Some((&survived, cp)));
        let report = *next.recovery_report().unwrap();
        assert!(
            !report.is_quarantined(),
            "a torn write is a crash, not tampering: {report:?}"
        );
        assert_eq!(report.outcome, secbus_core::RecoveryOutcome::Repaired);
        assert_eq!(
            report.repaired_blocks + report.rolled_back + report.rolled_forward,
            1
        );
    }

    #[test]
    fn epoch_commit_swaps_all_firewalls_or_none() {
        let mut soc = crash_soc("halt", None);
        // The LCF's embedded firewall is the only one in this system.
        let lcf_id = soc.lcf().unwrap().firewall().id();
        let err = soc
            .commit_policy_epoch(vec![PolicyUpdate {
                firewall: FirewallId(99),
                policies: vec![],
            }])
            .unwrap_err();
        assert_eq!(err, EpochError::UnknownFirewall(FirewallId(99)));
        assert_eq!(soc.policy_epoch(), 0);
        let epoch = soc
            .commit_policy_epoch(vec![PolicyUpdate {
                firewall: lcf_id,
                policies: crash_lcf_policies().policies().to_vec(),
            }])
            .unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(soc.policy_epoch(), 1);
    }

    fn traced_soc(policies: Option<Vec<SecurityPolicy>>, program: &str) -> Soc {
        let program = assemble(program).unwrap();
        let core = Mb32Core::with_local_program("cpu0", 0, program);
        let mut b = SocBuilder::new().trace(4096).add_bram(
            "bram",
            AddrRange::new(BRAM_BASE, 0x1000),
            Bram::new(0x1000),
            None,
        );
        b = match policies {
            Some(p) => {
                b.add_protected_master(Box::new(core), ConfigMemory::with_policies(p).unwrap())
            }
            None => b.add_master(Box::new(core)),
        };
        b.build()
    }

    #[test]
    fn trace_spine_follows_a_transaction_lifecycle() {
        let mut soc = traced_soc(
            Some(vec![rw_policy(1, BRAM_BASE, 16)]),
            r"
            li  r1, 0x20000000
            addi r2, r0, 7
            sw  r2, 0(r1)     ; allowed
            sw  r2, 64(r1)    ; out of policy -> alert
            halt
            ",
        );
        soc.run_until_halt(10_000);
        let events = soc.tracer().unwrap().snapshot();
        let kinds: Vec<&str> = events.iter().map(|(_, e)| e.kind()).collect();
        for expected in [
            "txn_issued",
            "fw_verdict",
            "bus_hop",
            "alert",
            "txn_complete",
        ] {
            assert!(kinds.contains(&expected), "missing {expected} in {kinds:?}");
        }
        // The alert appears at the raising firewall's cycle: it must sit
        // between the issue of the violating write and the run's end, and
        // the retained window stays cycle-ordered.
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0));
        let alert_at = events
            .iter()
            .find(|(_, e)| e.kind() == "alert")
            .map(|(c, _)| *c)
            .unwrap();
        assert!(alert_at > Cycle::ZERO && alert_at < soc.now());
        // The lifecycle histograms saw every issued transaction.
        let snapshot = soc.metrics_snapshot();
        let soc_stats = snapshot.component("soc").unwrap();
        assert!(soc_stats.histogram("txn.issue_to_verdict").is_some());
        assert!(soc_stats.histogram("txn.verdict_to_complete").is_some());
    }

    #[test]
    fn metrics_snapshot_is_key_sorted_and_reproducible() {
        let build = || {
            let mut soc = traced_soc(
                Some(vec![rw_policy(1, BRAM_BASE, 16)]),
                r"
                li  r1, 0x20000000
                addi r2, r0, 7
                sw  r2, 0(r1)
                sw  r2, 64(r1)
                halt
                ",
            );
            soc.run_until_halt(10_000);
            soc.metrics_json()
        };
        let a = build();
        let doc = Json::parse(&a).unwrap();
        assert!(secbus_sim::metrics::is_key_sorted(&doc));
        // Covers the LF (by label), bus, monitor, soc and trace sections.
        for section in ["LF cpu0", "bus", "monitor", "soc", "trace"] {
            assert!(doc.get(section).is_some(), "missing section {section}");
        }
        assert_eq!(a, build(), "identical runs render identical snapshots");
    }

    #[test]
    fn chrome_trace_export_parses_and_places_the_alert() {
        let mut soc = traced_soc(
            Some(vec![rw_policy(1, BRAM_BASE, 16)]),
            r"
            li  r1, 0x20000000
            addi r2, r0, 7
            sw  r2, 64(r1)    ; out of policy -> alert
            halt
            ",
        );
        soc.run_until_halt(10_000);
        let doc = soc.chrome_trace().unwrap();
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let alert = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("alert"))
            .expect("alert event exported");
        // The alert sits on the raising firewall's lane (16 + fw id 0).
        assert_eq!(alert.get("tid").unwrap().as_u64(), Some(16));
        assert!(alert.get("ts").unwrap().as_u64().unwrap() > 0);
    }

    #[test]
    fn untraced_soc_exposes_no_spine() {
        let mut soc = small_soc(None, "halt");
        soc.run_until_halt(1_000);
        assert!(soc.tracer().is_none());
        assert!(soc.chrome_trace().is_none());
        assert!(soc.metrics_snapshot().component("trace").is_none());
    }

    // ---- overload: admission control, shedding, brownout ----

    /// An open-loop source: issues `per_tick` accesses every cycle until
    /// `until`, regardless of completions. The closed-loop IPs above can
    /// never overflow a bounded queue; overload needs one of these.
    struct Flooder {
        stats: Stats,
        addr: u32,
        op: Op,
        per_tick: u32,
        until: u64,
        issued: u64,
        ok: u64,
        shed: u64,
        errs: u64,
    }

    impl Flooder {
        fn new(addr: u32, op: Op, per_tick: u32, until: u64) -> Self {
            Flooder {
                stats: Stats::new(),
                addr,
                op,
                per_tick,
                until,
                issued: 0,
                ok: 0,
                shed: 0,
                errs: 0,
            }
        }
    }

    impl BusMaster for Flooder {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn tick(&mut self, mem: &mut dyn MasterAccess, now: Cycle) {
            while let Some(resp) = mem.poll() {
                match resp.result {
                    Ok(()) => self.ok += 1,
                    Err(BusError::Overload) => self.shed += 1,
                    Err(_) => self.errs += 1,
                }
            }
            if now.get() < self.until {
                for _ in 0..self.per_tick {
                    mem.issue(self.op, self.addr, Width::Word, 0xF100D, 1);
                    self.issued += 1;
                }
            }
        }

        fn label(&self) -> &str {
            "flooder"
        }

        fn stats(&self) -> &Stats {
            &self.stats
        }
    }

    #[test]
    fn overload_sheds_at_admission_with_typed_alerts_and_conservation() {
        let flooder = Flooder::new(BRAM_BASE, Op::Write, 2, 200);
        let mut soc = SocBuilder::new()
            .bus_config(BusConfig {
                master_queue_capacity: 4,
                ..BusConfig::default()
            })
            .monitor_threshold(1)
            .add_protected_master(
                Box::new(flooder),
                ConfigMemory::with_policies(vec![rw_policy(1, BRAM_BASE, 0x1000)]).unwrap(),
            )
            .add_bram(
                "bram",
                AddrRange::new(BRAM_BASE, 0x1000),
                Bram::new(0x1000),
                None,
            )
            .build();
        // Flood for 200 cycles, then drain until everything queued resolves.
        soc.run(2_000);

        let shed = soc.stats().counter("soc.shed");
        assert!(shed > 0, "2 writes/cycle into a 4-deep queue must shed");
        assert_eq!(
            soc.stats().counter("soc.shed.m0"),
            shed,
            "sheds are counted per master"
        );
        // Every shed produced a Shed alert through the firewall...
        assert_eq!(soc.monitor().alert_count(), shed, "no silent refusals");
        // ...but Shed is environment pressure, not IP malice: even with a
        // one-violation threshold the master was never blocked, so every
        // admitted access completed fine.
        let f = soc.master_as::<Flooder>(0).unwrap();
        assert_eq!(f.errs, 0, "no discard/decode errors, only Overload");
        assert!(f.ok > 0, "admitted traffic still completes");
        assert_eq!(f.shed, shed, "every refusal surfaced to the IP");
        assert_eq!(
            f.issued,
            f.ok + f.shed,
            "conservation: issued == completed + shed"
        );
    }

    #[test]
    fn bare_master_sheds_are_still_counted_and_surfaced() {
        let flooder = Flooder::new(BRAM_BASE, Op::Write, 2, 200);
        let mut soc = SocBuilder::new()
            .bus_config(BusConfig {
                master_queue_capacity: 4,
                ..BusConfig::default()
            })
            .add_master(Box::new(flooder))
            .add_bram(
                "bram",
                AddrRange::new(BRAM_BASE, 0x1000),
                Bram::new(0x1000),
                None,
            )
            .build();
        soc.run(2_000);
        let shed = soc.stats().counter("soc.shed");
        assert!(shed > 0);
        let f = soc.master_as::<Flooder>(0).unwrap();
        assert_eq!(f.shed, shed, "refusals reach the IP even without an LF");
        assert_eq!(f.issued, f.ok + f.shed);
    }

    #[test]
    fn brownout_engages_under_pressure_and_exits_after_drain() {
        // Open-loop reads against the integrity-verified DDR region: the
        // LCF's verify latency can't keep up, queues back up, and the
        // controller steps the region down to cipher-only until the
        // burst drains.
        let flooder = Flooder::new(CRASH_DDR_BASE, Op::Read, 2, 400);
        let mut soc = SocBuilder::new()
            .add_master(Box::new(flooder))
            .degrade(DegradeConfig {
                high_watermark: 8,
                low_watermark: 0,
                enter_after: 4,
                exit_after: 16,
            })
            .trace(4096)
            .set_ddr(
                "ddr",
                AddrRange::new(CRASH_DDR_BASE, 0x1000),
                ExternalDdr::new(0x1000),
                Some(crash_lcf_policies()),
            )
            .build();
        soc.run(400);
        assert!(soc.degraded(), "sustained pressure engages the brownout");
        assert_eq!(soc.stats().counter("soc.degrade_enters"), 1);
        assert!(
            soc.lcf()
                .unwrap()
                .stats()
                .counter("lcf.brownout_skipped_verifies")
                > 0,
            "degraded reads skip the IC walk"
        );
        // The source stops at 400; the backlog drains and the exit fires.
        soc.run(20_000);
        assert!(!soc.degraded(), "a real drain always releases the brownout");
        assert_eq!(soc.stats().counter("soc.degrade_exits"), 1);
        let events = soc.tracer().unwrap().snapshot();
        let enter = events
            .iter()
            .find(|(_, e)| matches!(e, TraceEvent::DegradeEnter { .. }))
            .expect("DegradeEnter traced");
        let exit = events
            .iter()
            .find(|(_, e)| matches!(e, TraceEvent::DegradeExit { .. }))
            .expect("DegradeExit traced");
        if let (TraceEvent::DegradeEnter { from, to, .. }, TraceEvent::DegradeExit { cycles, .. }) =
            (&enter.1, &exit.1)
        {
            assert_eq!((*from, *to), ("verify", "cipher_only"));
            assert!(*cycles > 0, "exit records the brownout duration");
        }
        // Post-brownout reads verify again at full latency.
        let f = soc.master_as::<Flooder>(0).unwrap();
        assert_eq!(f.errs, 0, "brownout never produced integrity errors");
        assert_eq!(f.issued, f.ok + f.shed);
    }

    /// The alert network drains in fleet order — master LFs in master
    /// order, then each slave's LF, then its LCF — whatever order the
    /// alerts were raised in, and the monitor's log and reactions follow
    /// that order. Escalation, first-alert latency and the audit trail
    /// all depend on it.
    #[test]
    fn one_tick_of_alerts_reaches_the_monitor_in_fleet_order() {
        let idle = || Mb32Core::with_local_program("cpu", 0, assemble("halt").unwrap());
        let mut soc = SocBuilder::new()
            .trace(256)
            .monitor_threshold(1)
            .add_protected_master(
                Box::new(idle()),
                ConfigMemory::with_policies(vec![rw_policy(1, BRAM_BASE, 0x100)]).unwrap(),
            )
            .add_protected_master(
                Box::new(idle()),
                ConfigMemory::with_policies(vec![rw_policy(2, BRAM_BASE, 0x100)]).unwrap(),
            )
            .add_bram(
                "bram",
                AddrRange::new(BRAM_BASE, 0x1000),
                Bram::new(0x1000),
                Some(ConfigMemory::with_policies(vec![rw_policy(3, BRAM_BASE, 0x1000)]).unwrap()),
            )
            .set_ddr(
                "ddr",
                AddrRange::new(CRASH_DDR_BASE, 0x1000),
                ExternalDdr::new(0x1000),
                Some(crash_lcf_policies()),
            )
            .build();
        let now = soc.now();
        let probe = |id: u64, master: u8| Transaction {
            id: TxnId(id),
            master: MasterId(master),
            op: Op::Write,
            addr: 0,
            width: Width::Word,
            data: 0,
            burst: 1,
            issued_at: now,
        };
        // Raised back to front: the LCF first, the first master's LF last.
        let SlaveKind::Ddr { lcf: Some(lcf), .. } = &mut soc.slaves[1].kind else {
            panic!("the DDR slave carries the LCF");
        };
        lcf.firewall_mut()
            .raise_alert(&probe(1, 0), Violation::IntegrityMismatch, now);
        let slave_lf = soc.slaves[0].firewall.as_mut().unwrap();
        slave_lf.raise_alert(&probe(2, 1), Violation::NoPolicy, now);
        let m1 = soc.masters[1].firewall.as_mut().unwrap();
        m1.raise_alert(&probe(3, 1), Violation::UnauthorizedWrite, now);
        m1.raise_alert(&probe(4, 1), Violation::Shed, now);
        let m0 = soc.masters[0].firewall.as_mut().unwrap();
        m0.raise_alert(&probe(5, 0), Violation::FormatViolation, now);
        soc.tick();

        let log: Vec<(u8, Violation, u64)> = soc
            .monitor()
            .log()
            .iter()
            .map(|(_, a)| (a.firewall.0, a.violation, a.txn.id.0))
            .collect();
        assert_eq!(
            log,
            vec![
                (0, Violation::FormatViolation, 5),
                (1, Violation::UnauthorizedWrite, 3),
                (1, Violation::Shed, 4),
                (2, Violation::NoPolicy, 2),
                (3, Violation::IntegrityMismatch, 1),
            ],
        );
        // Threshold 1: every offense blocks its firewall at once; the
        // shed is an environment fault and escalates nothing.
        let reactions: Vec<(u8, &str)> = soc
            .tracer()
            .unwrap()
            .snapshot()
            .into_iter()
            .filter_map(|(_, e)| match e {
                TraceEvent::Reaction { firewall, kind } => Some((firewall, kind)),
                _ => None,
            })
            .collect();
        assert_eq!(
            reactions,
            vec![(0, "block"), (1, "block"), (2, "block"), (3, "block")],
        );
        assert_eq!(soc.monitor().alert_count(), 5);
        assert!(soc.master_firewall(0).unwrap().is_blocked());
        assert!(soc.master_firewall(1).unwrap().is_blocked());
        assert!(soc.lcf().unwrap().firewall().is_blocked());
    }
}
