//! The Security Builder's checking modules.
//!
//! > "When the secpol_req signal is received by SB, it reads the associated
//! > SP from the Configuration Memory. Then, SP parameters (security rules)
//! > are sent to specific checking modules that are embedded in the SB
//! > resource."
//!
//! Each checking module is a small pure function from `(policy,
//! transaction)` to an optional [`Violation`]; the Security Builder in
//! [`crate::firewall`] runs them all and aggregates the `check_results`.
//! Keeping them separate (rather than one big `if`) mirrors the hardware
//! structure and lets the area model attribute cost per module.

use core::fmt;

use crate::alert::MonitorCounter;
use crate::firewall::FwCounter;
use crate::policy::SecurityPolicy;
use secbus_bus::Transaction;
use secbus_sim::StatKey;

/// A security-rule violation, as reported on the alert signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Violation {
    /// No policy covers the requested address: default-deny.
    NoPolicy,
    /// RWA forbids reads of this region.
    UnauthorizedRead,
    /// RWA forbids writes to this region.
    UnauthorizedWrite,
    /// The access width is not in the Allowed Data Formats
    /// ("an unauthorized format may overwrite some protected data").
    FormatViolation,
    /// The burst runs past the end of the policy region — a transfer must
    /// be ruled by a single policy end to end.
    RegionOverrun,
    /// The address is not naturally aligned for the access width; hardware
    /// would tear such an access into partial beats with unpredictable
    /// side effects, so the firewall refuses it.
    Misaligned,
    /// The Integrity Core found the external-memory content inconsistent
    /// with the on-chip hash-tree root (spoofing / replay / relocation).
    IntegrityMismatch,
    /// The IP behind this firewall has been administratively blocked after
    /// repeated violations (the monitor's containment reaction).
    IpBlocked,
    /// The IP exceeded its traffic budget (rate-limit extension against
    /// the threat model's "injecting dummy data to create overwhelming
    /// traffic" DoS with otherwise-authorized requests).
    RateLimited,
    /// A watched transaction produced no completion within the monitor's
    /// watchdog window — a hung slave, a lost grant, or a dropped
    /// handshake; the transaction was cancelled instead of hanging the IP.
    WatchdogTimeout,
    /// A Configuration-Memory policy entry failed its parity check (storage
    /// upset); the entry was re-fetched from the golden image.
    ConfigCorruption,
    /// DIFT: data tainted by an unprotected or cipher-only source reached
    /// a protected-region write or a configuration store — an information
    /// flow the address-based rules alone cannot see (e.g. a compromised
    /// master laundering attacker-controlled words into protected memory).
    TaintedSink,
    /// Admission control refused the transaction because the fabric's
    /// bounded queues were full (overload shedding). Fail-secure: the
    /// transaction is *refused with this alert*, never silently dropped —
    /// under overload a shed must be as visible as a blocked attack.
    Shed,
}

impl Violation {
    /// Short stable mnemonic used in stats keys and reports.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Violation::NoPolicy => "no_policy",
            Violation::UnauthorizedRead => "unauth_read",
            Violation::UnauthorizedWrite => "unauth_write",
            Violation::FormatViolation => "bad_format",
            Violation::RegionOverrun => "region_overrun",
            Violation::Misaligned => "misaligned",
            Violation::IntegrityMismatch => "integrity",
            Violation::IpBlocked => "ip_blocked",
            Violation::RateLimited => "rate_limited",
            Violation::WatchdogTimeout => "watchdog_timeout",
            Violation::ConfigCorruption => "config_corruption",
            Violation::TaintedSink => "tainted_sink",
            Violation::Shed => "shed",
        }
    }

    /// Full monitor stats key (`monitor.violation.<mnemonic>`), the
    /// name of its [`MonitorCounter`] slot.
    pub fn monitor_key(self) -> &'static str {
        MonitorCounter::violation(self).key()
    }

    /// Full firewall stats key (`fw.violation.<mnemonic>`), the name of
    /// its [`FwCounter`] slot.
    pub fn fw_key(self) -> &'static str {
        FwCounter::violation(self).key()
    }

    /// Full NoC network-interface stats key (`ni.violation.<mnemonic>`),
    /// precomputed so the packet-rejection path never allocates.
    pub fn ni_key(self) -> &'static str {
        match self {
            Violation::NoPolicy => "ni.violation.no_policy",
            Violation::UnauthorizedRead => "ni.violation.unauth_read",
            Violation::UnauthorizedWrite => "ni.violation.unauth_write",
            Violation::FormatViolation => "ni.violation.bad_format",
            Violation::RegionOverrun => "ni.violation.region_overrun",
            Violation::Misaligned => "ni.violation.misaligned",
            Violation::IntegrityMismatch => "ni.violation.integrity",
            Violation::IpBlocked => "ni.violation.ip_blocked",
            Violation::RateLimited => "ni.violation.rate_limited",
            Violation::WatchdogTimeout => "ni.violation.watchdog_timeout",
            Violation::ConfigCorruption => "ni.violation.config_corruption",
            Violation::TaintedSink => "ni.violation.tainted_sink",
            Violation::Shed => "ni.violation.shed",
        }
    }

    /// Every violation, in declaration order.
    pub const ALL: [Violation; 13] = [
        Violation::NoPolicy,
        Violation::UnauthorizedRead,
        Violation::UnauthorizedWrite,
        Violation::FormatViolation,
        Violation::RegionOverrun,
        Violation::Misaligned,
        Violation::IntegrityMismatch,
        Violation::IpBlocked,
        Violation::RateLimited,
        Violation::WatchdogTimeout,
        Violation::ConfigCorruption,
        Violation::TaintedSink,
        Violation::Shed,
    ];
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Aggregated result of a Security Builder pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckOutcome {
    /// All checking modules passed; the FI may forward the data.
    Pass,
    /// At least one module raised; the first violation (in module order)
    /// is reported on the alert signals.
    Fail(Violation),
}

impl CheckOutcome {
    /// Whether the transaction may proceed.
    pub fn passed(self) -> bool {
        matches!(self, CheckOutcome::Pass)
    }

    /// The violation, if any.
    pub fn violation(self) -> Option<Violation> {
        match self {
            CheckOutcome::Pass => None,
            CheckOutcome::Fail(v) => Some(v),
        }
    }
}

/// Checking module 1: RWA (read/write authorization).
pub fn check_rwa(policy: &SecurityPolicy, txn: &Transaction) -> Option<Violation> {
    if policy.rwa.allows(txn.op) {
        None
    } else {
        Some(match txn.op {
            secbus_bus::Op::Read => Violation::UnauthorizedRead,
            secbus_bus::Op::Write => Violation::UnauthorizedWrite,
        })
    }
}

/// Checking module 2: ADF (allowed data format).
pub fn check_adf(policy: &SecurityPolicy, txn: &Transaction) -> Option<Violation> {
    if policy.adf.allows(txn.width) {
        None
    } else {
        Some(Violation::FormatViolation)
    }
}

/// Checking module 3: address/region containment for the whole burst.
pub fn check_region(policy: &SecurityPolicy, txn: &Transaction) -> Option<Violation> {
    if txn.within(policy.region.base, policy.region.len) {
        None
    } else {
        Some(Violation::RegionOverrun)
    }
}

/// Checking module 4: natural alignment.
pub fn check_alignment(_policy: &SecurityPolicy, txn: &Transaction) -> Option<Violation> {
    if txn.aligned() {
        None
    } else {
        Some(Violation::Misaligned)
    }
}

/// The full Security Builder check: look up nothing (the caller already
/// fetched the policy from the Configuration Memory), run every module in
/// a fixed order, report the first violation.
pub fn check_all(policy: &SecurityPolicy, txn: &Transaction) -> CheckOutcome {
    // Direct calls in the fixed module order — a fn-pointer table here
    // defeats inlining on the hottest per-transaction path.
    if let Some(v) = check_region(policy, txn) {
        return CheckOutcome::Fail(v);
    }
    if let Some(v) = check_rwa(policy, txn) {
        return CheckOutcome::Fail(v);
    }
    if let Some(v) = check_adf(policy, txn) {
        return CheckOutcome::Fail(v);
    }
    if let Some(v) = check_alignment(policy, txn) {
        return CheckOutcome::Fail(v);
    }
    CheckOutcome::Pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AdfSet, Rwa, SecurityPolicy};
    use secbus_bus::{AddrRange, MasterId, Op, TxnId, Width};
    use secbus_sim::Cycle;

    fn policy(rwa: Rwa, adf: AdfSet) -> SecurityPolicy {
        SecurityPolicy::internal(1, AddrRange::new(0x1000, 0x100), rwa, adf)
    }

    fn txn(op: Op, addr: u32, width: Width, burst: u16) -> Transaction {
        Transaction {
            id: TxnId(0),
            master: MasterId(0),
            op,
            addr,
            width,
            data: 0,
            burst,
            issued_at: Cycle(0),
        }
    }

    #[test]
    fn clean_access_passes() {
        let p = policy(Rwa::ReadWrite, AdfSet::ALL);
        let t = txn(Op::Read, 0x1004, Width::Word, 1);
        assert_eq!(check_all(&p, &t), CheckOutcome::Pass);
        assert!(check_all(&p, &t).passed());
        assert_eq!(check_all(&p, &t).violation(), None);
    }

    #[test]
    fn rwa_blocks_wrong_direction() {
        let ro = policy(Rwa::ReadOnly, AdfSet::ALL);
        let t = txn(Op::Write, 0x1000, Width::Word, 1);
        assert_eq!(check_rwa(&ro, &t), Some(Violation::UnauthorizedWrite));
        assert_eq!(
            check_all(&ro, &t),
            CheckOutcome::Fail(Violation::UnauthorizedWrite)
        );
        let wo = policy(Rwa::WriteOnly, AdfSet::ALL);
        let t = txn(Op::Read, 0x1000, Width::Word, 1);
        assert_eq!(
            check_all(&wo, &t),
            CheckOutcome::Fail(Violation::UnauthorizedRead)
        );
    }

    #[test]
    fn adf_blocks_disallowed_widths() {
        let p = policy(Rwa::ReadWrite, AdfSet::WORD_ONLY);
        assert_eq!(
            check_all(&p, &txn(Op::Write, 0x1000, Width::Byte, 1)),
            CheckOutcome::Fail(Violation::FormatViolation)
        );
        assert_eq!(
            check_all(&p, &txn(Op::Write, 0x1000, Width::Half, 1)),
            CheckOutcome::Fail(Violation::FormatViolation)
        );
        assert!(check_all(&p, &txn(Op::Write, 0x1000, Width::Word, 1)).passed());
    }

    #[test]
    fn burst_escaping_region_is_caught() {
        let p = policy(Rwa::ReadWrite, AdfSet::ALL);
        // Region is 0x1000..0x1100; a 65-word burst from 0x1000 overruns.
        let t = txn(Op::Read, 0x1000, Width::Word, 65);
        assert_eq!(check_region(&p, &t), Some(Violation::RegionOverrun));
        // Exactly filling the region is fine.
        let t = txn(Op::Read, 0x1000, Width::Word, 64);
        assert_eq!(check_region(&p, &t), None);
    }

    #[test]
    fn start_outside_region_is_overrun() {
        let p = policy(Rwa::ReadWrite, AdfSet::ALL);
        let t = txn(Op::Read, 0x0fff, Width::Byte, 1);
        assert_eq!(
            check_all(&p, &t),
            CheckOutcome::Fail(Violation::RegionOverrun)
        );
    }

    #[test]
    fn misalignment_is_caught() {
        let p = policy(Rwa::ReadWrite, AdfSet::ALL);
        let t = txn(Op::Read, 0x1002, Width::Word, 1);
        assert_eq!(check_all(&p, &t), CheckOutcome::Fail(Violation::Misaligned));
        let t = txn(Op::Read, 0x1001, Width::Half, 1);
        assert_eq!(check_all(&p, &t), CheckOutcome::Fail(Violation::Misaligned));
        let t = txn(Op::Read, 0x1001, Width::Byte, 1);
        assert!(check_all(&p, &t).passed());
    }

    #[test]
    fn module_order_region_first() {
        // An access that is both out of region and mis-directed reports the
        // region violation (module order is fixed, as in hardware).
        let p = policy(Rwa::ReadOnly, AdfSet::ALL);
        let t = txn(Op::Write, 0x2000, Width::Word, 1);
        assert_eq!(
            check_all(&p, &t),
            CheckOutcome::Fail(Violation::RegionOverrun)
        );
    }

    #[test]
    fn mnemonics_are_stable() {
        assert_eq!(Violation::NoPolicy.mnemonic(), "no_policy");
        assert_eq!(Violation::IntegrityMismatch.to_string(), "integrity");
    }
}
