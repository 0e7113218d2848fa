//! # secbus-core — distributed firewalls for a bus-based MPSoC
//!
//! The primary contribution of *"Distributed security for communications
//! and memories in a multiprocessor architecture"* (Cotret et al., RAW/
//! IPDPS 2011): instead of a central security manager, **every IP gets a
//! Local Firewall (LF) at its bus interface**, and the external memory gets
//! a **Local Ciphering Firewall (LCF)** that adds confidentiality (AES-128)
//! and integrity (hash tree) on top of the same checking structure.
//!
//! The module map mirrors the paper's Figure 1:
//!
//! | Paper block | Here |
//! |---|---|
//! | Security Policy (SPI, RWA, ADF, CM, IM, CK) | [`policy::SecurityPolicy`] |
//! | Configuration Memory (trusted, on-chip)      | [`config::ConfigMemory`] |
//! | Security Builder (SB) + checking modules     | [`checker`], [`firewall::LocalFirewall`] |
//! | Firewall Interface (FI) gate + alert signals | [`firewall::Decision`], [`alert`] |
//! | LF Communication Block (LFCB)                | the SoC-side adapters in `secbus-soc` |
//! | Confidentiality Core (CC), Integrity Core (IC) | [`lcf::LocalCipheringFirewall`] |
//!
//! Two extensions the paper lists as future work are implemented as well:
//! run-time **reconfiguration of security policies** ([`reconfig`]) and
//! **thread-specific security** ([`thread_policy`]).
//!
//! Timing: the checking pipeline costs [`SbTiming`] cycles (Table II: 12),
//! the CC adds 11 cycles of latency at 4.5 bits/cycle sustained, the IC 20
//! cycles at 1.31 bits/cycle ([`lcf::CryptoTiming`], calibrated to Table
//! II's 450 / 131 Mb/s at the 100 MHz case-study clock — see DESIGN.md §2).

pub mod alert;
pub mod checker;
pub mod config;
pub mod firewall;
pub mod lcf;
pub mod policy;
pub mod policy_dsl;
pub mod reconfig;
pub mod recovery;
pub mod taint;
pub mod thread_policy;

pub use alert::{Alert, MonitorCounter, Reaction, SecurityMonitor};
pub use checker::{CheckOutcome, Violation};
pub use config::ConfigMemory;
pub use firewall::{Decision, FirewallId, FwCounter, LocalFirewall, RateLimit, SbTiming};
pub use lcf::{
    brownout_posture, CryptoTiming, LcfCounter, LcfHistogram, LocalCipheringFirewall, Protection,
    RekeyError,
};
pub use policy::{
    AdfSet, ConfidentialityMode, IntegrityMode, PolicyError, Rwa, SecurityPolicy, Spi,
};
pub use policy_dsl::{
    verify, CompiledPolicies, CompiledTable, Counterexample, DslError, PolicyProgram,
    PolicyVerifyError, VerifyReport,
};
pub use reconfig::{EpochError, EpochFailure, PolicyUpdate, ReconfigController};
pub use recovery::{
    PersistentState, RecoveryOutcome, RecoveryReport, SecureCheckpoint, TamperEvidence,
};
pub use taint::{TaintEngine, TaintTag, WriteVerdict};
pub use thread_policy::{ThreadId, ThreadPolicyTable};
