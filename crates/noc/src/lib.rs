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
//! * [`link`] — the flit-level link protocol: CRC-32 framing,
//!   ack/nack sequencing and bounded retransmission;
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
//! * [`system`] — request/response workloads over the mesh, with and
//!   without NI protection, producing latency/throughput numbers the
//!   `noc_compare` bench puts side by side with the shared bus, and a
//!   fault-plan-driven soak runner the `noc_soak` bench builds on.

pub mod link;
pub mod network;
pub mod ni;
pub mod overload;
pub mod system;
pub mod topology;

pub use link::{crc32, Flit, LinkReply, LinkRx, LinkTx, TxStatus};
pub use network::{
    DeliveryInfo, LossReason, Mesh, MeshCounter, MeshHistogram, MeshQuiet, NocAlert, NocConfig,
    Packet, PacketId,
};
pub use ni::{NetworkInterface, ProbeReport};
pub use overload::{run_overload, run_overload_with_core, OverloadConfig, OverloadReport};
pub use system::{
    run_noc_soak, run_noc_soak_with_core, run_noc_workload, run_noc_workload_with_core,
    NocRunReport, NocSoakConfig, NocSoakReport,
};
pub use topology::{adaptive_route, xy_route, FaultMap, NodeId, Topology};
