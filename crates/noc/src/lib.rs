//! # secbus-noc — the NoC-based comparators from the paper's related work
//!
//! The paper's §II surveys NoC-centric protection schemes: Diguet/Evain's
//! NoC-centric security \[2\], Fiorin's Address Protection Units at the
//! network interfaces \[3\] and Fiorin's monitoring probes \[4\]. The paper
//! itself targets a *bus*; this crate builds the NoC alternative at the
//! same abstraction level so the placement question — firewall at a bus
//! interface vs firewall at a network interface — can be *measured*
//! instead of cited:
//!
//! * [`topology`] — 2D mesh coordinates, deterministic XY routing, the
//!   [`topology::FaultMap`] of *detected* link/router failures and the
//!   fault-region-aware [`topology::adaptive_route`] that detours
//!   around them;
//! * [`link`] — CRC-32, the link check whose ≤32-bit burst detection
//!   lets the protected mesh treat every injected wire flip as caught;
//! * [`network`] — a packet-level mesh with per-output-link contention,
//!   per-hop router latency and (when protected) the fault-tolerant
//!   transport: CRC detection, retransmission, heartbeat router-failure
//!   detection, adaptive rerouting and fail-secure
//!   [`network::NocAlert`]s for anything undeliverable;
//! * [`ni`] — the network interface, embedding the *same*
//!   `secbus-core` policy machinery as the bus firewalls (that is the
//!   point of the comparison) plus Fiorin-style event probes, enforced
//!   at egress *and* at the destination's ingress so rerouted traffic
//!   cannot bypass it;
//! * [`system`] — one closed-loop runner, [`run_noc_soak`], for the
//!   hot-spot request/response workload, with and without NI
//!   protection. Under a fault plan with a drain window it is the soak
//!   the `noc_soak` bench builds on; with no fault plan and no drain
//!   window it is the plain workload whose latency the `noc_compare`
//!   bench puts side by side with the shared bus.

pub mod link;
pub mod network;
pub mod ni;
pub mod overload;
pub mod system;
pub mod topology;

pub use link::crc32;
pub use network::{
    DeliveryInfo, LossReason, Mesh, MeshCounter, MeshHistogram, MeshQuiet, NocAlert, NocConfig,
    Packet, PacketId,
};
pub use ni::{NetworkInterface, ProbeReport};
pub use overload::{run_overload, run_overload_with_core, OverloadConfig, OverloadReport};
pub use system::{run_noc_soak, run_noc_soak_with_core, NocSoakConfig, NocSoakReport};
pub use topology::{adaptive_route, xy_route, FaultMap, NodeId, Topology};
