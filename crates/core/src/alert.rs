//! Alert signals and the security monitor.
//!
//! The paper's security features (§III-C): *"If an error is detected, the
//! system must react as fast as possible"* and *"the attack must not reach
//! the communication architecture but be stopped in the interface
//! associated with the infected IP."*
//!
//! Each firewall raises [`Alert`]s; the [`SecurityMonitor`] aggregates them
//! and decides [`Reaction`]s. The monitor is intentionally thin — in the
//! distributed design the *enforcement* already happened locally (the
//! offending transaction was discarded before the bus); the monitor only
//! adds escalation (blocking a repeatedly-misbehaving IP) and an audit
//! trail.

use secbus_bus::Transaction;
use secbus_sim::{stat_keys, Cycle, EventLog, Stats, TraceEvent, Tracer};

use crate::checker::Violation;
use crate::firewall::FirewallId;

/// One alert, as carried by the `alert_signals` in the paper's Figure 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// The firewall that raised the alert.
    pub firewall: FirewallId,
    /// The violated rule.
    pub violation: Violation,
    /// The offending transaction.
    pub txn: Transaction,
    /// When the violation was detected.
    pub at: Cycle,
}

/// What the monitor tells the system to do about an alert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reaction {
    /// Local discard was enough; nothing further.
    None,
    /// Block the IP behind `firewall` — stop accepting its traffic
    /// entirely (containment escalation).
    BlockIp(FirewallId),
    /// Block the IP, then automatically lift the block at the given
    /// cycle (quarantine): the transient-fault-tolerant variant of the
    /// escalation, for systems where a glitching IP should get another
    /// chance without operator intervention.
    Quarantine {
        /// The firewall to block.
        firewall: FirewallId,
        /// When the block lifts.
        until: Cycle,
    },
}

stat_keys! {
    /// The monitor's per-alert counters and one counter per [`Violation`]
    /// (see [`MonitorCounter::violation`]), kept in fixed [`Stats`] slots.
    pub enum MonitorCounter {
        Alerts => "monitor.alerts",
        Blocks => "monitor.blocks",
        BadFormat => "monitor.violation.bad_format",
        ConfigCorruption => "monitor.violation.config_corruption",
        Integrity => "monitor.violation.integrity",
        IpBlocked => "monitor.violation.ip_blocked",
        Misaligned => "monitor.violation.misaligned",
        NoPolicy => "monitor.violation.no_policy",
        RateLimited => "monitor.violation.rate_limited",
        RegionOverrun => "monitor.violation.region_overrun",
        Shed => "monitor.violation.shed",
        TaintedSink => "monitor.violation.tainted_sink",
        UnauthRead => "monitor.violation.unauth_read",
        UnauthWrite => "monitor.violation.unauth_write",
        WatchdogTimeout => "monitor.violation.watchdog_timeout",
        WatchdogTimeouts => "monitor.watchdog_timeouts",
    }
}

impl MonitorCounter {
    /// The slot counting `v` (`monitor.violation.<mnemonic>`).
    pub fn violation(v: Violation) -> Self {
        match v {
            Violation::NoPolicy => MonitorCounter::NoPolicy,
            Violation::UnauthorizedRead => MonitorCounter::UnauthRead,
            Violation::UnauthorizedWrite => MonitorCounter::UnauthWrite,
            Violation::FormatViolation => MonitorCounter::BadFormat,
            Violation::RegionOverrun => MonitorCounter::RegionOverrun,
            Violation::Misaligned => MonitorCounter::Misaligned,
            Violation::IntegrityMismatch => MonitorCounter::Integrity,
            Violation::IpBlocked => MonitorCounter::IpBlocked,
            Violation::RateLimited => MonitorCounter::RateLimited,
            Violation::WatchdogTimeout => MonitorCounter::WatchdogTimeout,
            Violation::ConfigCorruption => MonitorCounter::ConfigCorruption,
            Violation::TaintedSink => MonitorCounter::TaintedSink,
            Violation::Shed => MonitorCounter::Shed,
        }
    }
}

/// Aggregates alerts from every firewall and applies an escalation policy.
#[derive(Debug)]
pub struct SecurityMonitor {
    log: EventLog<Alert>,
    /// The first alert ever observed, kept at push time: the log is a
    /// bounded ring and evicts it once full.
    first: Option<(Cycle, Alert)>,
    stats: Stats,
    /// Violation *budget* per firewall id (index = FirewallId.0): counts
    /// offenses toward the block threshold and resets on quarantine
    /// escalation. Not an audit total — see `alerts_total`.
    per_firewall: Vec<u64>,
    /// Monotonic alerts-observed total per firewall id, environment
    /// faults included; never reset.
    alerts_total: Vec<u64>,
    /// Observability spine, if attached.
    tracer: Option<Tracer>,
    /// Block an IP after this many violations (0 = never block).
    block_threshold: u64,
    /// If set, blocks become quarantines of this many cycles, and the
    /// per-firewall violation count resets on escalation so the IP gets a
    /// fresh budget after release.
    quarantine_cycles: Option<u64>,
}

impl SecurityMonitor {
    /// A monitor that blocks an IP after `block_threshold` violations
    /// (0 = log-and-discard only).
    pub fn new(block_threshold: u64) -> Self {
        SecurityMonitor {
            log: EventLog::new(4096),
            first: None,
            stats: Stats::slotted(MonitorCounter::KEYS, &[]),
            per_firewall: Vec::new(),
            alerts_total: Vec::new(),
            tracer: None,
            block_threshold,
            quarantine_cycles: None,
        }
    }

    /// Convert block escalations into time-bounded quarantines.
    pub fn with_quarantine(mut self, cycles: u64) -> Self {
        self.quarantine_cycles = Some(cycles);
        self
    }

    /// Attach the observability spine; the monitor records a
    /// [`TraceEvent::Reaction`] for every escalation it decides.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Count `expired` transactions the SoC's watchdog cancelled in one
    /// scan. Call it only for a scan that expired some: writing the slot,
    /// even with 0, makes `monitor.watchdog_timeouts` visible, and a key
    /// from an empty scan would split otherwise-identical snapshots.
    pub fn count_watchdog_timeouts(&mut self, expired: u64) {
        self.stats
            .add_slot(MonitorCounter::WatchdogTimeouts, expired);
    }

    /// Feed one alert; returns the reaction the system should apply.
    ///
    /// Environment faults ([`Violation::WatchdogTimeout`],
    /// [`Violation::ConfigCorruption`]) and overload sheds
    /// ([`Violation::Shed`]) are logged and counted but do not burn the
    /// IP's violation budget — a flaky or overloaded fabric must not get
    /// an innocent IP blocked (deliberate flooding escalates through
    /// [`Violation::RateLimited`] instead).
    pub fn observe(&mut self, alert: Alert) -> Reaction {
        let idx = alert.firewall.0 as usize;
        if idx >= self.per_firewall.len() {
            self.per_firewall.resize(idx + 1, 0);
            self.alerts_total.resize(idx + 1, 0);
        }
        self.alerts_total[idx] += 1;
        let offense = !matches!(
            alert.violation,
            Violation::WatchdogTimeout | Violation::ConfigCorruption | Violation::Shed
        );
        if offense {
            self.per_firewall[idx] += 1;
        }
        self.stats.incr_slot(MonitorCounter::Alerts);
        self.stats
            .incr_slot(MonitorCounter::violation(alert.violation));
        let at = alert.at;
        let fw = alert.firewall;
        if self.first.is_none() {
            self.first = Some((at, alert.clone()));
        }
        self.log.push(at, alert);

        if offense && self.block_threshold > 0 && self.per_firewall[idx] >= self.block_threshold {
            self.stats.incr_slot(MonitorCounter::Blocks);
            match self.quarantine_cycles {
                Some(q) => {
                    // Fresh violation budget after release.
                    self.per_firewall[idx] = 0;
                    if let Some(t) = &self.tracer {
                        t.record(
                            at,
                            TraceEvent::Reaction {
                                firewall: fw.0,
                                kind: "quarantine",
                            },
                        );
                    }
                    Reaction::Quarantine {
                        firewall: fw,
                        until: at + q,
                    }
                }
                None => {
                    if let Some(t) = &self.tracer {
                        t.record(
                            at,
                            TraceEvent::Reaction {
                                firewall: fw.0,
                                kind: "block",
                            },
                        );
                    }
                    Reaction::BlockIp(fw)
                }
            }
        } else {
            Reaction::None
        }
    }

    /// Total alerts observed.
    pub fn alert_count(&self) -> u64 {
        self.stats.counter_slot(MonitorCounter::Alerts)
    }

    /// Alerts observed from one firewall: a monotonic audit total that
    /// includes environment faults and survives quarantine escalations.
    pub fn alerts_from(&self, fw: FirewallId) -> u64 {
        self.alerts_total.get(fw.0 as usize).copied().unwrap_or(0)
    }

    /// Offenses currently counted toward `fw`'s block threshold. Resets
    /// to zero on quarantine escalation and excludes environment faults
    /// ([`Violation::WatchdogTimeout`], [`Violation::ConfigCorruption`]) —
    /// the escalation-policy view, not the audit total.
    pub fn violation_budget(&self, fw: FirewallId) -> u64 {
        self.per_firewall.get(fw.0 as usize).copied().unwrap_or(0)
    }

    /// The first alert ever recorded, if any (detection-latency metric),
    /// even after the bounded [`SecurityMonitor::log`] has evicted it.
    pub fn first_alert(&self) -> Option<&(Cycle, Alert)> {
        self.first.as_ref()
    }

    /// The retained audit trail: the most recent 4 096 alerts. Check
    /// its `dropped()` before reading it as the whole history.
    pub fn log(&self) -> &EventLog<Alert> {
        &self.log
    }

    /// Monitor statistics (per-violation-kind counters etc.).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secbus_bus::{MasterId, Op, TxnId, Width};

    fn alert(fw: u8, v: Violation, at: u64) -> Alert {
        Alert {
            firewall: FirewallId(fw),
            violation: v,
            txn: Transaction {
                id: TxnId(0),
                master: MasterId(fw),
                op: Op::Write,
                addr: 0,
                width: Width::Word,
                data: 0,
                burst: 1,
                issued_at: Cycle(at),
            },
            at: Cycle(at),
        }
    }

    #[test]
    fn observe_counts_and_logs() {
        let mut m = SecurityMonitor::new(0);
        assert_eq!(
            m.observe(alert(0, Violation::FormatViolation, 5)),
            Reaction::None
        );
        assert_eq!(m.observe(alert(1, Violation::NoPolicy, 9)), Reaction::None);
        assert_eq!(m.alert_count(), 2);
        assert_eq!(m.alerts_from(FirewallId(0)), 1);
        assert_eq!(m.alerts_from(FirewallId(1)), 1);
        assert_eq!(m.alerts_from(FirewallId(9)), 0);
        assert_eq!(m.first_alert().unwrap().0, Cycle(5));
        assert_eq!(m.stats().counter("monitor.violation.bad_format"), 1);
    }

    /// More alerts than the log retains: the first alert is still the
    /// first ever recorded, not the oldest one the ring kept.
    #[test]
    fn first_alert_outlives_the_bounded_log() {
        let mut m = SecurityMonitor::new(0);
        for at in 0..5_000u64 {
            m.observe(alert((at % 3) as u8, Violation::NoPolicy, at + 7));
        }
        assert!(m.log().dropped() > 0, "the ring overflowed");
        let (cycle, first) = m.first_alert().unwrap();
        assert_eq!((*cycle, first.firewall), (Cycle(7), FirewallId(0)));
    }

    #[test]
    fn threshold_escalates_to_block() {
        let mut m = SecurityMonitor::new(3);
        assert_eq!(
            m.observe(alert(2, Violation::UnauthorizedWrite, 1)),
            Reaction::None
        );
        assert_eq!(
            m.observe(alert(2, Violation::UnauthorizedWrite, 2)),
            Reaction::None
        );
        assert_eq!(
            m.observe(alert(2, Violation::UnauthorizedWrite, 3)),
            Reaction::BlockIp(FirewallId(2))
        );
        // Alerts from other firewalls do not count toward fw 2's threshold.
        let mut m = SecurityMonitor::new(2);
        assert_eq!(m.observe(alert(0, Violation::NoPolicy, 1)), Reaction::None);
        assert_eq!(m.observe(alert(1, Violation::NoPolicy, 2)), Reaction::None);
        assert_eq!(
            m.observe(alert(0, Violation::NoPolicy, 3)),
            Reaction::BlockIp(FirewallId(0))
        );
    }

    #[test]
    fn quarantine_reaction_carries_release_time() {
        let mut m = SecurityMonitor::new(2).with_quarantine(500);
        assert_eq!(m.observe(alert(1, Violation::NoPolicy, 10)), Reaction::None);
        assert_eq!(
            m.observe(alert(1, Violation::NoPolicy, 20)),
            Reaction::Quarantine {
                firewall: FirewallId(1),
                until: Cycle(520)
            }
        );
        // The budget resets: two more violations re-escalate.
        assert_eq!(
            m.observe(alert(1, Violation::NoPolicy, 600)),
            Reaction::None
        );
        assert_eq!(
            m.observe(alert(1, Violation::NoPolicy, 610)),
            Reaction::Quarantine {
                firewall: FirewallId(1),
                until: Cycle(1110)
            }
        );
        assert_eq!(m.stats().counter("monitor.blocks"), 2);
    }

    #[test]
    fn zero_threshold_never_blocks() {
        let mut m = SecurityMonitor::new(0);
        for i in 0..100 {
            assert_eq!(m.observe(alert(0, Violation::NoPolicy, i)), Reaction::None);
        }
        assert_eq!(m.stats().counter("monitor.blocks"), 0);
    }

    #[test]
    fn environment_faults_do_not_burn_the_violation_budget() {
        let mut m = SecurityMonitor::new(2).with_quarantine(100);
        assert_eq!(
            m.observe(alert(3, Violation::WatchdogTimeout, 1)),
            Reaction::None
        );
        assert_eq!(
            m.observe(alert(3, Violation::ConfigCorruption, 2)),
            Reaction::None
        );
        assert_eq!(
            m.observe(alert(3, Violation::WatchdogTimeout, 3)),
            Reaction::None
        );
        // Overload sheds are environment pressure too, not IP malice.
        assert_eq!(m.observe(alert(3, Violation::Shed, 4)), Reaction::None);
        assert_eq!(
            m.violation_budget(FirewallId(3)),
            0,
            "logged but not held against the IP"
        );
        assert_eq!(
            m.alerts_from(FirewallId(3)),
            4,
            "the audit total still counts them"
        );
        assert_eq!(m.alert_count(), 4, "still in the audit trail");
        // Real offenses still escalate at the configured threshold.
        assert_eq!(m.observe(alert(3, Violation::NoPolicy, 4)), Reaction::None);
        assert_eq!(
            m.observe(alert(3, Violation::NoPolicy, 5)),
            Reaction::Quarantine {
                firewall: FirewallId(3),
                until: Cycle(105)
            }
        );
    }

    #[test]
    fn quarantine_lifts_on_schedule_and_reblocks_on_reoffense() {
        // Randomized (seed-pinned) sweep: whatever the threshold, the
        // quarantine length, and the interleaving of offenses, escalation
        // always fires at exactly the threshold-th offense, the release
        // cycle is exactly `at + q`, and a re-offending IP re-escalates
        // after another full budget.
        let mut rng = secbus_sim::SimRng::new(0x5ec_b05);
        for _ in 0..200 {
            let threshold = 1 + rng.below(6);
            let q = 1 + rng.below(2000);
            let fw = rng.below(4) as u8;
            let mut m = SecurityMonitor::new(threshold).with_quarantine(q);
            let mut at = rng.below(100);
            for round in 0u64..2 {
                for n in 1..=threshold {
                    let r = m.observe(alert(fw, Violation::UnauthorizedWrite, at));
                    if n < threshold {
                        assert_eq!(r, Reaction::None, "round {round}: offense {n}/{threshold}");
                    } else {
                        assert_eq!(
                            r,
                            Reaction::Quarantine {
                                firewall: FirewallId(fw),
                                until: Cycle(at + q)
                            },
                            "round {round}: escalation at the {threshold}-th offense"
                        );
                    }
                    at += 1 + rng.below(50);
                }
                // Budget reset: immediately after release the IP starts
                // from zero again (verified by the second round).
                assert_eq!(m.violation_budget(FirewallId(fw)), 0);
                // The audit total keeps counting through the reset.
                assert_eq!(m.alerts_from(FirewallId(fw)), (round + 1) * threshold);
                at += q; // past the release point
            }
            assert_eq!(m.stats().counter("monitor.blocks"), 2);
        }
    }

    /// Regression (accounting bug #1): `alerts_from` used to return the
    /// quarantine budget, which resets to zero on escalation and skips
    /// environment faults — so after a quarantine the audit claimed the
    /// offending IP had never alerted.
    #[test]
    fn alerts_from_is_monotonic_across_quarantine_rounds() {
        let mut m = SecurityMonitor::new(2).with_quarantine(100);
        m.observe(alert(1, Violation::WatchdogTimeout, 1)); // env fault
        m.observe(alert(1, Violation::UnauthorizedWrite, 2));
        assert_eq!(
            m.observe(alert(1, Violation::UnauthorizedWrite, 3)),
            Reaction::Quarantine {
                firewall: FirewallId(1),
                until: Cycle(103)
            }
        );
        assert_eq!(m.violation_budget(FirewallId(1)), 0, "budget reset");
        assert_eq!(m.alerts_from(FirewallId(1)), 3, "audit total survives");
        m.observe(alert(1, Violation::UnauthorizedWrite, 200));
        assert_eq!(m.alerts_from(FirewallId(1)), 4);
        assert_eq!(m.violation_budget(FirewallId(1)), 1);
    }

    /// The precomputed violation keys must match what the old `format!`
    /// produced, for every variant (metrics-key compatibility).
    #[test]
    fn static_violation_keys_match_format() {
        for v in Violation::ALL {
            assert_eq!(
                v.monitor_key(),
                format!("monitor.violation.{}", v.mnemonic())
            );
            assert_eq!(v.fw_key(), format!("fw.violation.{}", v.mnemonic()));
            assert_eq!(v.ni_key(), format!("ni.violation.{}", v.mnemonic()));
        }
    }

    #[test]
    fn monitor_traces_reactions() {
        let tracer = secbus_sim::Tracer::new(32);
        let mut m = SecurityMonitor::new(1).with_quarantine(10);
        m.set_tracer(tracer.clone());
        m.observe(alert(2, Violation::NoPolicy, 7));
        let snap = tracer.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, Cycle(7));
        assert_eq!(
            snap[0].1,
            secbus_sim::TraceEvent::Reaction {
                firewall: 2,
                kind: "quarantine"
            }
        );
    }
}
