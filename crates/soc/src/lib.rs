//! # secbus-soc — the assembled MPSoC
//!
//! Glues the substrates into the paper's architecture (Figure 1): IPs
//! behind Local Firewalls on a shared bus, the external DDR behind the
//! Local Ciphering Firewall, alert signals into a security monitor, and a
//! reconfiguration controller on the side.
//!
//! * [`SocBuilder`] / [`Soc`] — construction and the cycle loop.
//! * [`case_study`] — the paper's evaluation platform: 3 MB32 cores, one
//!   shared BRAM, one external DDR, one dedicated IP.
//! * [`topology`] — renders Figure 1 as text from a live system.
//! * [`report`] — collects the numbers the benches print.
//!
//! The enforcement semantics follow the paper §IV-B-1 exactly:
//! **writes are checked before reaching the bus** (the request only
//! becomes eligible for arbitration after the 12-cycle Security Builder
//! pass, and a violating write never appears on the bus), while **read
//! data is checked before reaching the IP** (the response is held for the
//! check and replaced by a discard on violation).

pub mod casestudy;
pub mod degrade;
mod inflight;
pub mod overload;
pub mod reconfig_run;
pub mod report;
pub mod soc;
pub mod topology;
pub mod tracefile;
pub mod workloads;

pub use casestudy::{
    case_study, CaseResilience, CaseStudyConfig, DDR_BASE, DDR_CIPHER_BASE, DDR_PRIVATE_BASE,
    DDR_PUBLIC_BASE, IP_FIFO_ADDR, SHARED_BRAM_BASE,
};
pub use degrade::{DegradeConfig, Hysteresis, Transition};
pub use overload::{
    run_soc_overload, run_soc_overload_with_core, SocOverloadConfig, SocOverloadReport,
};
pub use reconfig_run::{run_reconfig_soak, ReconfigSoakConfig, ReconfigSoakReport, SwapSchedule};
pub use report::{AlertLine, AuditReport, FirewallAudit, Report};
pub use soc::{BuildError, RetryPolicy, Soc, SocBuilder, SocCounter, SocHistogram};
pub use topology::{render_noc_topology, render_topology};
pub use tracefile::{render_trace, trace_summary};
