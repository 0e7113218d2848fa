//! The Local Firewall: Security Builder + Firewall Interface.
//!
//! One [`LocalFirewall`] sits at each IP's bus interface. Its behaviour,
//! from the paper §IV-B-1:
//!
//! > "For a write operation, before reaching the bus all data are checked.
//! > If the security rules are respected the data can be sent to the bus.
//! > For a read operation, all data are checked before reaching the IP. …
//! > In case there is a violation of one of the security rules, the data is
//! > discarded."
//!
//! [`LocalFirewall::check`] is the Security Builder pass (Configuration
//! Memory lookup + checking modules) and returns a [`Decision`] carrying
//! the pass/discard verdict, the [`SbTiming`] latency the SoC must charge,
//! and the violation for the alert signals. The datapath gating itself
//! (the Firewall Interface) is performed by the SoC adapters, which either
//! forward the transaction or synthesize a discard response — this split
//! matches the LFCB/SB/FI structure in Figure 1.

use crate::alert::Alert;
use crate::checker::{check_all, CheckOutcome, Violation};
use crate::config::ConfigMemory;
use secbus_bus::Transaction;
use secbus_sim::{stat_keys, Cycle, Stats, TraceEvent, Tracer};

/// Identifies a firewall instance (the `firewall_id` signal of Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FirewallId(pub u8);

/// Timing of the Security Builder pipeline.
///
/// Table II reports 12 cycles for the security-rules checking. The default
/// reproduces that constant; [`SbTiming::scaled`] models the paper's
/// observation that "the cost of firewalls is also related to the number
/// of security rules that must be monitored" for the S-1 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SbTiming {
    /// Cycles to fetch the SP from the Configuration Memory.
    pub lookup_cycles: u64,
    /// Cycles for the checking modules to evaluate and aggregate.
    pub module_cycles: u64,
}

impl SbTiming {
    /// The paper's measured checking latency: 12 cycles total.
    pub const PAPER: SbTiming = SbTiming {
        lookup_cycles: 6,
        module_cycles: 6,
    };

    /// Rule-count-dependent timing: lookup grows with the depth of the
    /// policy CAM (log2 of the rule count), module time is fixed. At the
    /// case study's ~8 rules per firewall this evaluates to the paper's 12.
    pub fn scaled(total_rules: u32) -> SbTiming {
        let n = total_rules.max(1);
        let depth = u64::from(32 - (n - 1).leading_zeros().min(31));
        SbTiming {
            lookup_cycles: 3 + depth.max(1),
            module_cycles: 6,
        }
    }

    /// Total check latency in cycles.
    pub fn total(self) -> u64 {
        self.lookup_cycles + self.module_cycles
    }
}

impl Default for SbTiming {
    fn default() -> Self {
        SbTiming::PAPER
    }
}

/// A traffic budget for one IP: at most `max_requests` accesses per
/// `window_cycles`-cycle window. Requests beyond the budget are discarded
/// with [`Violation::RateLimited`] — a firewall-level answer to the
/// threat model's traffic-flooding DoS that RWA/ADF checks cannot catch
/// when the flood uses authorized addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Window length in cycles.
    pub window_cycles: u64,
    /// Requests admitted per window.
    pub max_requests: u32,
}

impl RateLimit {
    /// Construct a rate limit.
    ///
    /// # Panics
    /// Panics on a zero window or zero budget.
    pub fn new(window_cycles: u64, max_requests: u32) -> Self {
        assert!(window_cycles > 0, "rate-limit window must be positive");
        assert!(max_requests > 0, "rate-limit budget must be positive");
        RateLimit {
            window_cycles,
            max_requests,
        }
    }
}

/// The Firewall Interface's verdict on one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Whether the data may pass (to the bus, or to the IP).
    pub allowed: bool,
    /// Cycles the check occupied the interface.
    pub latency: u64,
    /// The violated rule, when `allowed` is false.
    pub violation: Option<Violation>,
}

stat_keys! {
    /// The Local Firewall's per-check counters and one counter per
    /// [`Violation`] (see [`FwCounter::violation`]), kept in fixed
    /// [`Stats`] slots.
    pub enum FwCounter {
        Checked => "fw.checked",
        Discarded => "fw.discarded",
        ParityRepairs => "fw.parity_repairs",
        Passed => "fw.passed",
        BadFormat => "fw.violation.bad_format",
        ConfigCorruption => "fw.violation.config_corruption",
        Integrity => "fw.violation.integrity",
        IpBlocked => "fw.violation.ip_blocked",
        Misaligned => "fw.violation.misaligned",
        NoPolicy => "fw.violation.no_policy",
        RateLimited => "fw.violation.rate_limited",
        RegionOverrun => "fw.violation.region_overrun",
        Shed => "fw.violation.shed",
        TaintedSink => "fw.violation.tainted_sink",
        UnauthRead => "fw.violation.unauth_read",
        UnauthWrite => "fw.violation.unauth_write",
        WatchdogTimeout => "fw.violation.watchdog_timeout",
    }
}

impl FwCounter {
    /// The slot counting `v` (`fw.violation.<mnemonic>`).
    pub fn violation(v: Violation) -> Self {
        match v {
            Violation::NoPolicy => FwCounter::NoPolicy,
            Violation::UnauthorizedRead => FwCounter::UnauthRead,
            Violation::UnauthorizedWrite => FwCounter::UnauthWrite,
            Violation::FormatViolation => FwCounter::BadFormat,
            Violation::RegionOverrun => FwCounter::RegionOverrun,
            Violation::Misaligned => FwCounter::Misaligned,
            Violation::IntegrityMismatch => FwCounter::Integrity,
            Violation::IpBlocked => FwCounter::IpBlocked,
            Violation::RateLimited => FwCounter::RateLimited,
            Violation::WatchdogTimeout => FwCounter::WatchdogTimeout,
            Violation::ConfigCorruption => FwCounter::ConfigCorruption,
            Violation::TaintedSink => FwCounter::TaintedSink,
            Violation::Shed => FwCounter::Shed,
        }
    }
}

/// A Local Firewall instance.
#[derive(Debug)]
pub struct LocalFirewall {
    id: FirewallId,
    label: String,
    config: ConfigMemory,
    blocked: bool,
    rate_limit: Option<RateLimit>,
    window_start: u64,
    window_count: u32,
    stats: Stats,
    pending_alerts: Vec<Alert>,
    /// Last-hit policy index for [`ConfigMemory::lookup_hinted`].
    last_policy: usize,
    /// Observability spine, if attached.
    tracer: Option<Tracer>,
}

impl LocalFirewall {
    /// Create a firewall with the paper's fixed 12-cycle check timing.
    pub fn new(id: FirewallId, label: impl Into<String>, config: ConfigMemory) -> Self {
        LocalFirewall {
            id,
            label: label.into(),
            config,
            blocked: false,
            rate_limit: None,
            window_start: 0,
            window_count: 0,
            stats: Stats::slotted(FwCounter::KEYS, &[]),
            pending_alerts: Vec::new(),
            last_policy: 0,
            tracer: None,
        }
    }

    /// Attach the observability spine; the firewall records a
    /// [`TraceEvent::FwVerdict`] per check and a [`TraceEvent::Alert`]
    /// per alert it raises.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Attach a traffic budget (DoS mitigation extension).
    pub fn with_rate_limit(mut self, limit: RateLimit) -> Self {
        self.rate_limit = Some(limit);
        self
    }

    /// This firewall's identifier.
    #[inline]
    pub fn id(&self) -> FirewallId {
        self.id
    }

    /// Display label ("LF cpu0" etc.).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Run the Security Builder over one transaction.
    ///
    /// Used on both datapath directions: outbound (IP → bus, checked
    /// "before reaching the bus") and inbound (bus → IP, checked "before
    /// reaching the IP").
    pub fn check(&mut self, txn: &Transaction, now: Cycle) -> Decision {
        self.stats.incr_slot(FwCounter::Checked);
        // Parity-scrub the Configuration Memory ahead of the lookup: a
        // storage upset must never be *enforced*. Repairs re-fetch from
        // the golden image and raise an informational alert (the monitor
        // does not hold environment faults against the IP).
        let repaired = self.config.scrub();
        if repaired > 0 {
            self.stats
                .add_slot(FwCounter::ParityRepairs, repaired as u64);
            self.raise_alert(txn, Violation::ConfigCorruption, now);
        }
        if self.blocked {
            return self.deny(txn, Violation::IpBlocked, 1, now);
        }
        if let Some(limit) = self.rate_limit {
            let window = now.get() / limit.window_cycles;
            if window != self.window_start {
                self.window_start = window;
                self.window_count = 0;
            }
            self.window_count += 1;
            if self.window_count > limit.max_requests {
                // Over budget: discarded cheaply, before the SB pipeline.
                return self.deny(txn, Violation::RateLimited, 1, now);
            }
        }
        let latency = SbTiming::PAPER.total();
        let outcome = match self.config.lookup_hinted(txn.addr, &mut self.last_policy) {
            None => CheckOutcome::Fail(Violation::NoPolicy),
            Some(policy) => check_all(policy, txn),
        };
        match outcome {
            CheckOutcome::Pass => {
                self.stats.incr_slot(FwCounter::Passed);
                if let Some(t) = &self.tracer {
                    t.record(
                        now,
                        TraceEvent::FwVerdict {
                            txn: txn.id.0,
                            firewall: self.id.0,
                            passed: true,
                            latency,
                        },
                    );
                }
                Decision {
                    allowed: true,
                    latency,
                    violation: None,
                }
            }
            CheckOutcome::Fail(v) => self.deny(txn, v, latency, now),
        }
    }

    fn deny(&mut self, txn: &Transaction, v: Violation, latency: u64, now: Cycle) -> Decision {
        self.stats.incr_slot(FwCounter::Discarded);
        self.stats.incr_slot(FwCounter::violation(v));
        if let Some(t) = &self.tracer {
            t.record(
                now,
                TraceEvent::FwVerdict {
                    txn: txn.id.0,
                    firewall: self.id.0,
                    passed: false,
                    latency,
                },
            );
            t.record(
                now,
                TraceEvent::Alert {
                    firewall: self.id.0,
                    violation: v.mnemonic(),
                },
            );
        }
        self.pending_alerts.push(Alert {
            firewall: self.id,
            violation: v,
            txn: *txn,
            at: now,
        });
        Decision {
            allowed: false,
            latency,
            violation: Some(v),
        }
    }

    /// Record a violation detected *outside* the Security Builder pipeline
    /// (the Integrity Core's hash-tree mismatch is the one caller): counts
    /// it, raises the alert, and reports the discard decision.
    pub fn note_violation(&mut self, txn: &Transaction, v: Violation, now: Cycle) -> Decision {
        self.deny(txn, v, 0, now)
    }

    /// Raise an alert without discarding anything: informational events
    /// (parity repairs, watchdog cancellations, degraded serves) that must
    /// reach the monitor's audit trail but are not themselves discards.
    #[inline]
    pub fn raise_alert(&mut self, txn: &Transaction, v: Violation, now: Cycle) {
        self.stats.incr_slot(FwCounter::violation(v));
        if let Some(t) = &self.tracer {
            t.record(
                now,
                TraceEvent::Alert {
                    firewall: self.id.0,
                    violation: v.mnemonic(),
                },
            );
        }
        self.pending_alerts.push(Alert {
            firewall: self.id,
            violation: v,
            txn: *txn,
            at: now,
        });
    }

    /// Administratively block the IP behind this firewall (containment
    /// escalation from the monitor). Every subsequent access is discarded.
    pub fn block(&mut self) {
        self.blocked = true;
    }

    /// Lift an administrative block (e.g. after reconfiguration).
    pub fn unblock(&mut self) {
        self.blocked = false;
    }

    /// Whether the IP is currently blocked.
    pub fn is_blocked(&self) -> bool {
        self.blocked
    }

    /// Take the alerts raised since the last drain (the SoC routes them to
    /// the monitor each cycle).
    pub fn drain_alerts(&mut self) -> Vec<Alert> {
        std::mem::take(&mut self.pending_alerts)
    }

    /// Move the alerts raised since the last drain onto the end of `out`,
    /// in raise order. Both buffers keep their capacity, so a per-cycle
    /// drain into a reused buffer does not allocate.
    #[inline]
    pub fn drain_alerts_into(&mut self, out: &mut Vec<Alert>) {
        out.append(&mut self.pending_alerts);
    }

    /// Whether alerts are waiting to be drained (event-core skip check;
    /// queues are empty between ticks, but the invariant is verified
    /// rather than assumed).
    #[inline]
    pub fn has_pending_alerts(&self) -> bool {
        !self.pending_alerts.is_empty()
    }

    /// The Configuration Memory (for the area model and reports).
    pub fn config(&self) -> &ConfigMemory {
        &self.config
    }

    /// Mutable Configuration Memory access (reconfiguration only).
    pub fn config_mut(&mut self) -> &mut ConfigMemory {
        &mut self.config
    }

    /// Firewall statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AdfSet, Rwa, SecurityPolicy};
    use secbus_bus::{AddrRange, MasterId, Op, TxnId, Width};

    fn fw() -> LocalFirewall {
        let config = ConfigMemory::with_policies(vec![
            SecurityPolicy::internal(
                1,
                AddrRange::new(0x1000, 0x100),
                Rwa::ReadWrite,
                AdfSet::ALL,
            ),
            SecurityPolicy::internal(
                2,
                AddrRange::new(0x2000, 0x100),
                Rwa::ReadOnly,
                AdfSet::WORD_ONLY,
            ),
        ])
        .unwrap();
        LocalFirewall::new(FirewallId(0), "LF test", config)
    }

    fn txn(op: Op, addr: u32, width: Width) -> Transaction {
        Transaction {
            id: TxnId(1),
            master: MasterId(0),
            op,
            addr,
            width,
            data: 0,
            burst: 1,
            issued_at: Cycle(0),
        }
    }

    #[test]
    fn authorized_access_passes_with_paper_latency() {
        let mut f = fw();
        let d = f.check(&txn(Op::Write, 0x1004, Width::Word), Cycle(0));
        assert!(d.allowed);
        assert_eq!(d.latency, 12, "Table II: checking = 12 cycles");
        assert_eq!(d.violation, None);
        assert_eq!(f.stats().counter("fw.passed"), 1);
        assert!(f.drain_alerts().is_empty());
    }

    #[test]
    fn uncovered_address_is_denied_by_default() {
        let mut f = fw();
        let d = f.check(&txn(Op::Read, 0x9000, Width::Word), Cycle(3));
        assert!(!d.allowed);
        assert_eq!(d.violation, Some(Violation::NoPolicy));
        let alerts = f.drain_alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].at, Cycle(3));
        assert_eq!(alerts[0].firewall, FirewallId(0));
    }

    #[test]
    fn readonly_region_rejects_writes() {
        let mut f = fw();
        let d = f.check(&txn(Op::Write, 0x2000, Width::Word), Cycle(0));
        assert_eq!(d.violation, Some(Violation::UnauthorizedWrite));
        assert_eq!(f.stats().counter("fw.violation.unauth_write"), 1);
    }

    #[test]
    fn format_violation_detected() {
        let mut f = fw();
        let d = f.check(&txn(Op::Read, 0x2000, Width::Byte), Cycle(0));
        assert_eq!(d.violation, Some(Violation::FormatViolation));
    }

    #[test]
    fn alerts_accumulate_until_drained() {
        let mut f = fw();
        f.check(&txn(Op::Write, 0x2000, Width::Word), Cycle(1));
        f.check(&txn(Op::Read, 0x9000, Width::Word), Cycle(2));
        let alerts = f.drain_alerts();
        assert_eq!(alerts.len(), 2);
        assert!(f.drain_alerts().is_empty());
    }

    #[test]
    fn blocked_ip_is_denied_everything() {
        let mut f = fw();
        f.block();
        assert!(f.is_blocked());
        let d = f.check(&txn(Op::Read, 0x1000, Width::Word), Cycle(0));
        assert_eq!(d.violation, Some(Violation::IpBlocked));
        assert_eq!(d.latency, 1, "block short-circuits the SB pipeline");
        f.unblock();
        assert!(
            f.check(&txn(Op::Read, 0x1000, Width::Word), Cycle(1))
                .allowed
        );
    }

    #[test]
    fn paper_timing_is_twelve_cycles() {
        assert_eq!(SbTiming::PAPER.total(), 12);
        assert_eq!(SbTiming::default().total(), 12);
    }

    #[test]
    fn scaled_timing_grows_logarithmically() {
        let t1 = SbTiming::scaled(1).total();
        let t8 = SbTiming::scaled(8).total();
        let t64 = SbTiming::scaled(64).total();
        assert_eq!(t8, 12, "case-study rule count reproduces the paper");
        assert!(t1 <= t8 && t8 <= t64);
        assert!(t64 - t8 <= 6, "growth is logarithmic, not linear");
    }

    #[test]
    fn rate_limit_caps_requests_per_window() {
        let mut f = fw().with_rate_limit(RateLimit::new(100, 3));
        let t = txn(Op::Write, 0x1000, Width::Word);
        // First three in the window pass the budget (and the policy).
        for i in 0..3 {
            assert!(f.check(&t, Cycle(i)).allowed, "request {i}");
        }
        // Fourth is rate-limited.
        let d = f.check(&t, Cycle(3));
        assert_eq!(d.violation, Some(Violation::RateLimited));
        assert_eq!(d.latency, 1, "rejected before the SB pipeline");
        // A new window resets the budget.
        assert!(f.check(&t, Cycle(100)).allowed);
        assert_eq!(f.stats().counter("fw.violation.rate_limited"), 1);
    }

    #[test]
    fn rate_limit_counts_denied_requests_too() {
        // A flood of violating requests still burns the budget: the rogue
        // cannot alternate junk and legitimate traffic to evade the cap.
        let mut f = fw().with_rate_limit(RateLimit::new(100, 2));
        let junk = txn(Op::Write, 0x9000, Width::Word);
        let good = txn(Op::Write, 0x1000, Width::Word);
        assert!(!f.check(&junk, Cycle(0)).allowed);
        assert!(!f.check(&junk, Cycle(1)).allowed);
        let d = f.check(&good, Cycle(2));
        assert_eq!(d.violation, Some(Violation::RateLimited));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        RateLimit::new(0, 1);
    }

    #[test]
    fn corrupted_policy_is_repaired_before_enforcement() {
        let mut f = fw();
        // Upset the RWA code of the read-only 0x2000 policy (entry 1):
        // without the scrub, a write there might be wrongly admitted.
        assert!(f.config_mut().corrupt_entry_bit(1, 84));
        let d = f.check(&txn(Op::Write, 0x2000, Width::Word), Cycle(5));
        assert_eq!(
            d.violation,
            Some(Violation::UnauthorizedWrite),
            "enforcement sees the repaired entry, not the corrupted one"
        );
        assert_eq!(f.stats().counter("fw.parity_repairs"), 1);
        let alerts = f.drain_alerts();
        assert_eq!(alerts.len(), 2, "config-corruption alert + the denial");
        assert_eq!(alerts[0].violation, Violation::ConfigCorruption);
        // The repair sticks: the next check scrubs nothing.
        f.check(&txn(Op::Read, 0x2000, Width::Word), Cycle(6));
        assert_eq!(f.stats().counter("fw.parity_repairs"), 1);
    }

    #[test]
    fn reconfiguration_changes_decisions() {
        use crate::policy::SecurityPolicy;
        let mut f = fw();
        let t = txn(Op::Write, 0x2000, Width::Word);
        assert!(!f.check(&t, Cycle(0)).allowed);
        f.config_mut()
            .swap(vec![SecurityPolicy::internal(
                9,
                AddrRange::new(0x2000, 0x100),
                Rwa::ReadWrite,
                AdfSet::ALL,
            )])
            .unwrap();
        assert!(f.check(&t, Cycle(1)).allowed);
        assert_eq!(f.config().generation(), 1);
    }
}
