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

use secbus_bus::{Transaction, TxnId};
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

/// A watched transaction whose completion never arrived in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogExpiry {
    /// The transaction that timed out.
    pub txn: Transaction,
    /// The firewall guarding the issuing IP, if known (the SoC raises the
    /// timeout alert through it).
    pub firewall: Option<FirewallId>,
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
    /// Outstanding-transaction timeout in cycles (`None` = no watchdog).
    watchdog_timeout: Option<u64>,
    /// Watched transactions: (deadline, txn, issuing firewall), insertion
    /// order preserved so expiries drain deterministically.
    watched: Vec<(Cycle, Transaction, Option<FirewallId>)>,
}

impl SecurityMonitor {
    /// A monitor that blocks an IP after `block_threshold` violations
    /// (0 = log-and-discard only).
    pub fn new(block_threshold: u64) -> Self {
        SecurityMonitor {
            log: EventLog::new(4096),
            stats: Stats::slotted(MonitorCounter::KEYS, &[]),
            per_firewall: Vec::new(),
            alerts_total: Vec::new(),
            tracer: None,
            block_threshold,
            quarantine_cycles: None,
            watchdog_timeout: None,
            watched: Vec::new(),
        }
    }

    /// Convert block escalations into time-bounded quarantines.
    pub fn with_quarantine(mut self, cycles: u64) -> Self {
        self.quarantine_cycles = Some(cycles);
        self
    }

    /// Arm a watchdog on outstanding transactions: anything watched that
    /// is not resolved within `timeout` cycles expires — the SoC cancels
    /// it and synthesizes an error response instead of hanging forever.
    ///
    /// # Panics
    /// Panics on a zero timeout.
    pub fn with_watchdog(mut self, timeout: u64) -> Self {
        assert!(timeout > 0, "watchdog timeout must be positive");
        self.watchdog_timeout = Some(timeout);
        self
    }

    /// The armed watchdog timeout, if any.
    pub fn watchdog_timeout(&self) -> Option<u64> {
        self.watchdog_timeout
    }

    /// Attach the observability spine; the monitor records a
    /// [`TraceEvent::Reaction`] for every escalation it decides.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Start watching a transaction issued at `now`. No-op without an
    /// armed watchdog. Watching an id that is already on the list
    /// *re-arms* it (the retry path re-issues the same `TxnId`); keeping
    /// both entries would leave an orphan that `resolve` never clears and
    /// that later fires a spurious `WatchdogTimeout`.
    pub fn watch(&mut self, txn: &Transaction, firewall: Option<FirewallId>, now: Cycle) {
        if let Some(timeout) = self.watchdog_timeout {
            let entry = (now + timeout, *txn, firewall);
            match self.watched.iter().position(|(_, t, _)| t.id == txn.id) {
                Some(idx) => self.watched[idx] = entry,
                None => self.watched.push(entry),
            }
        }
    }

    /// A watched transaction completed (successfully or not); stop its
    /// timer. Unknown ids are ignored (e.g. discards that were never
    /// watched).
    pub fn resolve(&mut self, txn: TxnId) {
        if let Some(idx) = self.watched.iter().position(|(_, t, _)| t.id == txn) {
            self.watched.remove(idx);
        }
    }

    /// Expire every watched transaction whose deadline has passed, in
    /// watch order. The caller turns each expiry into a cancellation plus
    /// a [`Violation::WatchdogTimeout`] alert.
    pub fn expire(&mut self, now: Cycle) -> Vec<WatchdogExpiry> {
        // Nothing due (every tick of a healthy run): no allocation, and
        // the watch list is left untouched.
        if !self.watched.iter().any(|&(deadline, _, _)| deadline <= now) {
            return Vec::new();
        }
        let mut expired = Vec::new();
        self.watched.retain(|&(deadline, txn, firewall)| {
            if deadline <= now {
                expired.push(WatchdogExpiry { txn, firewall });
                false
            } else {
                true
            }
        });
        // Only reached when something expired: writing the slot, even
        // with 0, makes the key visible, and materializing it on every
        // watchdog-armed tick would make otherwise-identical metrics
        // snapshots differ by key set.
        self.stats
            .add_slot(MonitorCounter::WatchdogTimeouts, expired.len() as u64);
        expired
    }

    /// Number of transactions currently on the watchdog's list.
    pub fn watched_count(&self) -> usize {
        self.watched.len()
    }

    /// Earliest watchdog deadline, if any transaction is watched. The
    /// event-driven core must not fast-forward past it: `expire` fires
    /// (and alerts) exactly at the deadline cycle.
    pub fn next_watchdog_deadline(&self) -> Option<Cycle> {
        self.watched.iter().map(|&(deadline, _, _)| deadline).min()
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

    /// The first alert ever recorded, if any (detection-latency metric).
    pub fn first_alert(&self) -> Option<&(Cycle, Alert)> {
        self.log.first()
    }

    /// The retained audit trail.
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
    fn watchdog_expires_only_overdue_transactions() {
        let mut m = SecurityMonitor::new(0).with_watchdog(50);
        assert_eq!(m.watchdog_timeout(), Some(50));
        let a = alert(0, Violation::NoPolicy, 0).txn;
        let mut b = a;
        b.id = TxnId(1);
        m.watch(&a, Some(FirewallId(0)), Cycle(10)); // deadline 60
        m.watch(&b, None, Cycle(30)); // deadline 80
        assert_eq!(m.watched_count(), 2);
        assert!(m.expire(Cycle(59)).is_empty());
        let expired = m.expire(Cycle(60));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].txn.id, a.id);
        assert_eq!(expired[0].firewall, Some(FirewallId(0)));
        assert_eq!(m.watched_count(), 1);
        let expired = m.expire(Cycle(1000));
        assert_eq!(expired[0].txn.id, b.id);
        assert_eq!(m.stats().counter("monitor.watchdog_timeouts"), 2);
    }

    #[test]
    fn resolved_transactions_never_expire() {
        let mut m = SecurityMonitor::new(0).with_watchdog(10);
        let t = alert(0, Violation::NoPolicy, 0).txn;
        m.watch(&t, None, Cycle(0));
        m.resolve(t.id);
        m.resolve(TxnId(999)); // unknown ids are ignored
        assert_eq!(m.watched_count(), 0);
        assert!(m.expire(Cycle(100)).is_empty());
        assert_eq!(m.stats().counter("monitor.watchdog_timeouts"), 0);
    }

    #[test]
    fn watch_without_watchdog_is_a_noop() {
        let mut m = SecurityMonitor::new(0);
        let t = alert(0, Violation::NoPolicy, 0).txn;
        m.watch(&t, None, Cycle(0));
        assert_eq!(m.watched_count(), 0);
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

    /// Regression (accounting bug #2): `watch` used to append a second
    /// entry for an already-watched id (the bounded-retry path re-issues
    /// the same `TxnId`), while `resolve` removed only the first — the
    /// orphan later fired a spurious `WatchdogTimeout`.
    #[test]
    fn rewatching_a_txn_rearms_instead_of_duplicating() {
        let mut m = SecurityMonitor::new(0).with_watchdog(50);
        let t = alert(0, Violation::NoPolicy, 0).txn;
        m.watch(&t, Some(FirewallId(0)), Cycle(0)); // deadline 50
        m.watch(&t, Some(FirewallId(0)), Cycle(40)); // retry: re-arm to 90
        assert_eq!(m.watched_count(), 1, "one entry per id");
        assert!(m.expire(Cycle(60)).is_empty(), "old deadline re-armed away");
        m.resolve(t.id);
        assert_eq!(m.watched_count(), 0);
        assert!(
            m.expire(Cycle(1000)).is_empty(),
            "no orphan fires after resolve"
        );
        assert_eq!(m.stats().counter("monitor.watchdog_timeouts"), 0);
    }

    /// Regression (snapshot determinism): an empty expiry sweep must not
    /// materialize a zero-valued `monitor.watchdog_timeouts` key, or
    /// watchdog-armed runs differ from unarmed ones by key set alone.
    #[test]
    fn empty_expiry_records_no_counter_key() {
        let mut m = SecurityMonitor::new(0).with_watchdog(10);
        let t = alert(0, Violation::NoPolicy, 0).txn;
        m.watch(&t, None, Cycle(0));
        assert!(m.expire(Cycle(5)).is_empty());
        assert!(
            m.stats()
                .counters()
                .all(|(k, _)| k != "monitor.watchdog_timeouts"),
            "no key materialized by a no-op sweep"
        );
        assert_eq!(m.expire(Cycle(100)).len(), 1);
        assert_eq!(m.stats().counter("monitor.watchdog_timeouts"), 1);
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
