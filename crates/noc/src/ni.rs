//! The network interface: Fiorin-style Address Protection Unit + probes.
//!
//! Fiorin et al. \[3\] put the filter in the interface between an IP and
//! the NoC, "splitting the IPs address map into zones with specific
//! security policies"; \[4\] adds monitoring probes inside the interface.
//! Both map directly onto `secbus-core`'s machinery: the APU *is* a
//! Configuration Memory + checking modules (same code as the paper's bus
//! firewalls — which is the whole argument for comparing placements, not
//! mechanisms), and the probe is an event counter block reporting to a
//! central collector.

use secbus_bus::Transaction;
use secbus_core::{CheckOutcome, ConfigMemory, SbTiming, Violation};
use secbus_sim::{Cycle, Stats};

use crate::topology::NodeId;

/// A per-NI monitoring report (the probe read-out of \[4\]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeReport {
    /// Which interface.
    pub node: NodeId,
    /// Requests examined.
    pub checked: u64,
    /// Requests rejected by the APU.
    pub rejected: u64,
    /// Arriving requests examined at the destination side.
    pub ingress_checked: u64,
    /// Arriving requests rejected at the destination side.
    pub ingress_rejected: u64,
    /// Violations by kind (mnemonic, count), sorted by mnemonic.
    pub by_kind: Vec<(String, u64)>,
}

/// A network interface with an Address Protection Unit.
pub struct NetworkInterface {
    node: NodeId,
    apu: ConfigMemory,
    timing: SbTiming,
    stats: Stats,
}

impl NetworkInterface {
    /// Create an NI whose APU enforces `policies`.
    pub fn new(node: NodeId, policies: ConfigMemory) -> Self {
        NetworkInterface {
            node,
            apu: policies,
            timing: SbTiming::PAPER,
            stats: Stats::new(),
        }
    }

    /// Override the checking latency.
    pub fn with_timing(mut self, timing: SbTiming) -> Self {
        self.timing = timing;
        self
    }

    /// The mesh position of this interface.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Check an outgoing request. Returns `Ok(latency)` when the packet
    /// may be injected, `Err((violation, latency))` when it is dropped at
    /// the interface.
    pub fn check(&mut self, txn: &Transaction, _now: Cycle) -> Result<u64, (Violation, u64)> {
        self.stats.incr("ni.checked");
        let latency = self.timing.total();
        let outcome = match self.apu.lookup(txn.addr) {
            None => CheckOutcome::Fail(Violation::NoPolicy),
            Some(policy) => secbus_core::checker::check_all(policy, txn),
        };
        match outcome {
            CheckOutcome::Pass => {
                self.stats.incr("ni.passed");
                Ok(latency)
            }
            CheckOutcome::Fail(v) => {
                self.stats.incr("ni.rejected");
                self.stats.incr(v.ni_key());
                Err((v, latency))
            }
        }
    }

    /// Check an arriving request at the destination interface — the
    /// enforcement point that rerouted traffic cannot avoid. A packet
    /// may reach this node over *any* path the adaptive router picks;
    /// whatever the route, it is only serviced if the destination's own
    /// APU admits it, so a detour can never become a policy bypass.
    /// Returns `Ok(latency)` to service, `Err((violation, latency))` to
    /// refuse.
    pub fn check_ingress(
        &mut self,
        txn: &Transaction,
        _now: Cycle,
    ) -> Result<u64, (Violation, u64)> {
        self.stats.incr("ni.ingress_checked");
        let latency = self.timing.total();
        let outcome = match self.apu.lookup(txn.addr) {
            None => CheckOutcome::Fail(Violation::NoPolicy),
            Some(policy) => secbus_core::checker::check_all(policy, txn),
        };
        match outcome {
            CheckOutcome::Pass => {
                self.stats.incr("ni.ingress_passed");
                Ok(latency)
            }
            CheckOutcome::Fail(v) => {
                self.stats.incr("ni.ingress_rejected");
                self.stats.incr(v.ni_key());
                Err((v, latency))
            }
        }
    }

    /// Read the probe counters (non-destructive).
    pub fn probe(&self) -> ProbeReport {
        let by_kind = self
            .stats
            .counters()
            .filter_map(|(k, v)| k.strip_prefix("ni.violation.").map(|m| (m.to_owned(), v)))
            .collect();
        ProbeReport {
            node: self.node,
            checked: self.stats.counter("ni.checked"),
            rejected: self.stats.counter("ni.rejected"),
            ingress_checked: self.stats.counter("ni.ingress_checked"),
            ingress_rejected: self.stats.counter("ni.ingress_rejected"),
            by_kind,
        }
    }

    /// The APU's policy table.
    pub fn policies(&self) -> &ConfigMemory {
        &self.apu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secbus_bus::{AddrRange, MasterId, Op, TxnId, Width};
    use secbus_core::{AdfSet, Rwa, SecurityPolicy};

    fn ni() -> NetworkInterface {
        let policies = ConfigMemory::with_policies(vec![SecurityPolicy::internal(
            1,
            AddrRange::new(0x1000, 0x100),
            Rwa::ReadWrite,
            AdfSet::WORD_ONLY,
        )])
        .unwrap();
        NetworkInterface::new(NodeId::new(1, 1), policies)
    }

    fn txn(op: Op, addr: u32, width: Width) -> Transaction {
        Transaction {
            id: TxnId(0),
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
    fn apu_admits_and_rejects_like_a_local_firewall() {
        let mut ni = ni();
        assert_eq!(
            ni.check(&txn(Op::Read, 0x1004, Width::Word), Cycle(0)),
            Ok(12)
        );
        let err = ni
            .check(&txn(Op::Read, 0x9000, Width::Word), Cycle(0))
            .unwrap_err();
        assert_eq!(err.0, Violation::NoPolicy);
        let err = ni
            .check(&txn(Op::Write, 0x1000, Width::Byte), Cycle(0))
            .unwrap_err();
        assert_eq!(err.0, Violation::FormatViolation);
    }

    #[test]
    fn probe_reports_counters_by_kind() {
        let mut ni = ni();
        let _ = ni.check(&txn(Op::Read, 0x1000, Width::Word), Cycle(0));
        let _ = ni.check(&txn(Op::Read, 0x9000, Width::Word), Cycle(1));
        let _ = ni.check(&txn(Op::Read, 0x9000, Width::Word), Cycle(2));
        let report = ni.probe();
        assert_eq!(report.node, NodeId::new(1, 1));
        assert_eq!(report.checked, 3);
        assert_eq!(report.rejected, 2);
        assert_eq!(report.by_kind, vec![("no_policy".to_string(), 2)]);
    }

    #[test]
    fn ingress_check_enforces_the_same_policy_as_egress() {
        let mut ni = ni();
        assert_eq!(
            ni.check_ingress(&txn(Op::Read, 0x1004, Width::Word), Cycle(0)),
            Ok(12)
        );
        let err = ni
            .check_ingress(&txn(Op::Write, 0x9000, Width::Word), Cycle(1))
            .unwrap_err();
        assert_eq!(err.0, Violation::NoPolicy);
        let report = ni.probe();
        assert_eq!(report.ingress_checked, 2);
        assert_eq!(report.ingress_rejected, 1);
        // Egress counters are untouched by ingress traffic.
        assert_eq!(report.checked, 0);
        assert_eq!(report.rejected, 0);
    }

    #[test]
    fn probe_is_non_destructive() {
        let mut ni = ni();
        let _ = ni.check(&txn(Op::Read, 0x9000, Width::Word), Cycle(0));
        assert_eq!(ni.probe().rejected, 1);
        assert_eq!(ni.probe().rejected, 1);
    }
}
