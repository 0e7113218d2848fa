//! The packet-switched mesh, with an optional fault-tolerant transport.
//!
//! Packet-level model: a packet follows its precomputed route; at each
//! hop it competes FIFO for the output link of the current router. A hop
//! costs `ROUTER_CYCLES` (pipeline) plus `flits × FLIT_CYCLES`
//! (serialization), and a link carries one packet at a time. This captures
//! what matters for the comparison with the shared bus: per-hop latency,
//! path parallelism (disjoint routes do not contend) and hot-spot
//! contention (everyone heading to one memory node queues on its links).
//!
//! With [`NocConfig::protected`] on, every hop models a link protocol —
//! flit CRC-32 ([`crate::link::crc32`]), per-link sequence numbers,
//! ack/nack, bounded retransmission — at one attempt per hop per
//! serialization slot, and the mesh maintains a
//! [`FaultMap`] fed by two deterministic detectors:
//!
//! * **consecutive-CRC/ack-failure streaks** declare a directed link dead
//!   after `LINK_FAIL_STREAK` back-to-back failures;
//! * **heartbeats** declare a router dead [`NocConfig::heartbeat_timeout`]
//!   cycles after it stops responding.
//!
//! Detected failures trigger fault-region-aware rerouting
//! ([`adaptive_route`]); an unroutable destination **fails secure** — the
//! packet is converted into a [`NocAlert`] (containment signal for the
//! requesting interface), never silently dropped and never delivered
//! anywhere other than its destination's network interface. The clean
//! path costs exactly the same cycles as the unprotected mesh, so every
//! seed latency test holds for both modes.

use std::collections::VecDeque;

use secbus_bus::{Op, Width};
use secbus_fault::FaultKind;
use secbus_sim::{stat_keys, Cycle, Stats, TraceEvent, Tracer};

use crate::link::crc32;
use crate::topology::{adaptive_route, direction_index, xy_route, FaultMap, NodeId, Topology};

/// Unique packet identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketId(pub u64);

/// A request or response moving through the mesh.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Unique id.
    pub id: PacketId,
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Read or write (requests) / completion flag (responses reuse Op).
    pub op: Op,
    /// Target byte address (requests).
    pub addr: u32,
    /// Access width.
    pub width: Width,
    /// Payload word.
    pub data: u32,
    /// Payload length in flits (serialization cost).
    pub flits: u16,
    /// Injection time.
    pub injected_at: Cycle,
}

/// End-to-end content stamp: CRC-32 over the fields a wire fault can
/// corrupt (header address + payload word). The ground-truth observer
/// the S-15 soak uses to count *undetected* corruptions.
fn content_stamp(p: &Packet) -> u32 {
    let mut bytes = [0u8; 8];
    bytes[..4].copy_from_slice(&p.addr.to_le_bytes());
    bytes[4..].copy_from_slice(&p.data.to_le_bytes());
    crc32(&bytes)
}

/// Router pipeline depth per hop.
const ROUTER_CYCLES: u64 = 3;
/// Serialization cost per flit on each link.
const FLIT_CYCLES: u64 = 1;
/// Consecutive CRC/ack failures before a link enters the fault map.
const LINK_FAIL_STREAK: u32 = 3;
/// Retransmission budget per hop before the packet escalates to an alert
/// (livelock bound on a flapping link).
const MAX_RETX_PER_HOP: u32 = 8;
/// Reroute budget per packet (livelock bound on cascading failures).
const MAX_REROUTES: u32 = 8;

/// Mesh protection and capacity parameters.
#[derive(Debug, Clone, Copy)]
pub struct NocConfig {
    /// Link-level protection: flit CRC + ack/nack + retransmission,
    /// failure detection and security-preserving adaptive rerouting.
    /// Off reproduces the bare mesh cycle for cycle.
    pub protected: bool,
    /// Cycles without a heartbeat before neighbors declare a router dead.
    pub heartbeat_timeout: u64,
    /// Buffer credits per router: the maximum number of packets resident
    /// in one node. Injection at a full source is refused (admission
    /// control) and a hop into a full downstream router waits for a
    /// credit, so mesh memory is bounded by `nodes × node_capacity`.
    pub node_capacity: usize,
    /// Protected mode only: cycles a flight may wait for a downstream
    /// credit before it escalates to a [`LossReason::CreditStall`] alert
    /// (the anti-wedge bound; the bare mesh waits forever, like
    /// hardware without a timeout).
    pub max_credit_wait: u64,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            protected: false,
            heartbeat_timeout: 48,
            node_capacity: 64,
            max_credit_wait: 256,
        }
    }
}

impl NocConfig {
    /// The default timing with the fault-tolerant transport enabled.
    pub fn protected() -> Self {
        NocConfig {
            protected: true,
            ..NocConfig::default()
        }
    }
}

/// Why a packet could not be delivered. Every loss in protected mode is
/// accounted with exactly one of these (fail secure: alert, never a
/// silent drop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossReason {
    /// No believed-healthy path to the destination exists (or the
    /// destination's own router is dead).
    Unroutable,
    /// The router the packet was resident in was declared dead.
    RouterFailed,
    /// The per-hop retransmission budget ran out on a flapping link.
    RetriesExhausted,
    /// The per-packet reroute budget ran out (cascading failures).
    RerouteBudgetExhausted,
    /// A flight carried an empty route — a routing-layer fault caught at
    /// delivery instead of a panic.
    EmptyRoute,
    /// The route terminated somewhere other than the destination; the
    /// packet was withheld rather than delivered past its enforcement
    /// point.
    Misrouted,
    /// Buffer credits ran out: admission was refused at a full source
    /// node, or a flight waited longer than
    /// [`NocConfig::max_credit_wait`] for a downstream credit.
    CreditStall,
}

impl LossReason {
    /// Stable short name (stats/report key).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            LossReason::Unroutable => "unroutable",
            LossReason::RouterFailed => "router_failed",
            LossReason::RetriesExhausted => "retries_exhausted",
            LossReason::RerouteBudgetExhausted => "reroute_budget",
            LossReason::EmptyRoute => "empty_route",
            LossReason::Misrouted => "misrouted",
            LossReason::CreditStall => "credit_stall",
        }
    }

    /// Full stats key (`noc.alert.<mnemonic>`), precomputed so the alert
    /// path never allocates.
    pub fn stat_key(&self) -> &'static str {
        match self {
            LossReason::Unroutable => "noc.alert.unroutable",
            LossReason::RouterFailed => "noc.alert.router_failed",
            LossReason::RetriesExhausted => "noc.alert.retries_exhausted",
            LossReason::RerouteBudgetExhausted => "noc.alert.reroute_budget",
            LossReason::EmptyRoute => "noc.alert.empty_route",
            LossReason::Misrouted => "noc.alert.misrouted",
            LossReason::CreditStall => "noc.alert.credit_stall",
        }
    }

    /// Every reason, in report-column order.
    pub const ALL: [LossReason; 7] = [
        LossReason::Unroutable,
        LossReason::RouterFailed,
        LossReason::RetriesExhausted,
        LossReason::RerouteBudgetExhausted,
        LossReason::EmptyRoute,
        LossReason::Misrouted,
        LossReason::CreditStall,
    ];
}

/// A fail-secure containment signal: the transport could not deliver
/// `packet` and says so instead of dropping it.
#[derive(Debug, Clone)]
pub struct NocAlert {
    /// The undeliverable packet.
    pub packet: Packet,
    /// Why it could not be delivered.
    pub reason: LossReason,
    /// When the transport gave up.
    pub at: Cycle,
}

/// Per-delivery transport metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryInfo {
    /// Ground truth: the delivered content matches what was injected.
    pub clean: bool,
    /// Reroutes this packet took.
    pub reroutes: u32,
    /// Retransmissions this packet needed.
    pub retransmissions: u32,
}

/// One in-flight packet's progress.
struct Flight {
    packet: Packet,
    route: Vec<NodeId>,
    /// Index of the NEXT hop to traverse (route[hop-1] -> route[hop]).
    hop: usize,
    /// Cycle at which the current hop finishes (packet sits at
    /// route[hop-1] until then).
    ready_at: u64,
    /// Content stamp taken at injection (ground-truth observer).
    stamp: u32,
    /// Retransmissions spent on the current hop.
    retx_hop: u32,
    /// Total retransmissions for this packet.
    retransmissions: u32,
    /// Reroutes taken.
    reroutes: u32,
    /// Consecutive cycles spent waiting for a downstream buffer credit.
    credit_wait: u64,
    /// Wedged inside a stuck router (unprotected mode only).
    parked: bool,
}

impl Flight {
    /// The router the packet currently sits in.
    fn position(&self) -> Option<NodeId> {
        self.route.get(self.hop.saturating_sub(1)).copied()
    }
}

/// Per-directed-link state: timing, ground-truth faults, and the
/// condensed link-protocol bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct LinkState {
    /// Cycle at which the link is free again.
    free_at: u64,
    /// Pending one-shot wire corruption: (xor, hits_header).
    transient: Option<(u32, bool)>,
    /// Ground truth: the link is physically dead.
    broken: bool,
    /// Consecutive CRC/ack failures (detector input).
    streak: u32,
    /// Per-link transmit sequence counter (successful transfers).
    tx_seq: u64,
}

/// Per-router ground-truth state.
#[derive(Debug, Clone, Copy, Default)]
struct RouterState {
    /// Cycle the router died at (ground truth; heartbeat detection
    /// declares it dead `heartbeat_timeout` cycles later).
    stuck_since: Option<u64>,
}

enum Outcome {
    Finished(usize),
    Lost(usize, LossReason),
    SilentDrop(usize),
}

stat_keys! {
    /// The mesh's per-hop, per-cycle and per-packet counters, kept in
    /// fixed [`Stats`] slots.
    pub enum MeshCounter {
        Alerts => "noc.alerts",
        CreditWaitCycles => "noc.credit_wait_cycles",
        Delivered => "noc.delivered",
        Hops => "noc.hops",
        IngressRefused => "noc.ingress_refused",
        Injected => "noc.injected",
        LinkWaitCycles => "noc.link_wait_cycles",
    }
}

stat_keys! {
    /// The mesh's per-hop histograms, kept in fixed [`Stats`] slots.
    pub enum MeshHistogram {
        HopLatency => "noc.hop_latency",
    }
}

/// The mesh network.
pub struct Mesh {
    topology: Topology,
    config: NocConfig,
    links: Vec<LinkState>,
    routers: Vec<RouterState>,
    fault_map: FaultMap,
    flights: Vec<Flight>,
    /// Packets resident per node — the credit counter backing
    /// [`NocConfig::node_capacity`].
    occupancy: Vec<u32>,
    delivered: Vec<VecDeque<(Packet, DeliveryInfo)>>,
    alerts: VecDeque<NocAlert>,
    next_id: u64,
    stats: Stats,
    /// Per-tick flight outcomes, cleared and reused every tick.
    outcomes: Vec<Outcome>,
    /// Observability spine, if attached.
    tracer: Option<Tracer>,
}

/// Trace lane used for NoC-raised alerts (no firewall id applies).
const NOC_ALERT_LANE: u8 = u8::MAX;

impl Mesh {
    /// Create a mesh.
    pub fn new(topology: Topology, config: NocConfig) -> Self {
        Mesh {
            links: vec![LinkState::default(); topology.len() * 4],
            routers: vec![RouterState::default(); topology.len()],
            fault_map: FaultMap::new(topology),
            occupancy: vec![0; topology.len()],
            delivered: (0..topology.len()).map(|_| VecDeque::new()).collect(),
            topology,
            config,
            flights: Vec::new(),
            alerts: VecDeque::new(),
            next_id: 0,
            stats: Stats::slotted(MeshCounter::KEYS, MeshHistogram::KEYS),
            outcomes: Vec::new(),
            tracer: None,
        }
    }

    /// Attach the observability spine; the mesh records per-hop,
    /// retransmission, and containment-alert events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// The mesh shape.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The transport configuration.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// The *detected* degraded state (what routing believes).
    pub fn fault_map(&self) -> &FaultMap {
        &self.fault_map
    }

    /// Allocate a packet id.
    pub fn alloc_id(&mut self) -> PacketId {
        let id = PacketId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Apply a scheduled hardware fault to the mesh. Returns `true` for
    /// the NoC fault classes (consumed), `false` for classes that have no
    /// surface here (bus/DDR/crypto faults).
    pub fn apply_fault(&mut self, kind: &FaultKind, now: Cycle) -> bool {
        let nodes = self.topology.len();
        match *kind {
            FaultKind::LinkBitFlip {
                node,
                dir,
                xor,
                header,
            } => {
                let idx = (node as usize % nodes) * 4 + usize::from(dir & 3);
                self.links[idx].transient = Some((xor, header));
                self.stats.incr("noc.fault.link_bitflip");
                true
            }
            FaultKind::LinkDrop { node, dir } => {
                let idx = (node as usize % nodes) * 4 + usize::from(dir & 3);
                self.links[idx].broken = true;
                self.stats.incr("noc.fault.link_drop");
                true
            }
            FaultKind::RouterStuck { node } => {
                let r = node as usize % nodes;
                self.routers[r].stuck_since.get_or_insert(now.get());
                self.stats.incr("noc.fault.router_stuck");
                true
            }
            _ => false,
        }
    }

    fn raise_alert(&mut self, packet: Packet, reason: LossReason, at: Cycle) {
        self.stats.incr_slot(MeshCounter::Alerts);
        self.stats.incr(reason.stat_key());
        if let Some(t) = &self.tracer {
            t.record(
                at,
                TraceEvent::Alert {
                    firewall: NOC_ALERT_LANE,
                    violation: reason.mnemonic(),
                },
            );
        }
        self.alerts.push_back(NocAlert { packet, reason, at });
    }

    /// Pop the next pending containment alert.
    pub fn take_alert(&mut self) -> Option<NocAlert> {
        self.alerts.pop_front()
    }

    /// Inject a packet, refusing admission when the source node's buffer
    /// credits are exhausted. Returns `true` when the packet entered the
    /// mesh (or failed secure into an alert), `false` when it was
    /// refused.
    ///
    /// A refusal at a protected source raises a
    /// [`LossReason::CreditStall`] alert — the caller gets a typed
    /// overload signal, never a silent loss. The bare mesh drops the
    /// packet on the floor (ground truth counted in
    /// `noc.silent_drops`), which is exactly the wedge/loss behavior the
    /// protected transport exists to prevent.
    ///
    /// # Panics
    /// Panics if source or destination are outside the mesh.
    pub fn try_inject(&mut self, packet: Packet, now: Cycle) -> bool {
        assert!(self.topology.contains(packet.src), "src outside mesh");
        let src = self.topology.index(packet.src);
        if self.occupancy[src] >= self.config.node_capacity as u32 {
            self.stats.incr_slot(MeshCounter::IngressRefused);
            if self.config.protected {
                self.raise_alert(packet, LossReason::CreditStall, now);
            } else {
                self.stats.incr("noc.silent_drops");
            }
            return false;
        }
        self.inject(packet, now);
        true
    }

    /// Inject a packet at its source node at time `now`, bypassing
    /// admission control (the closed-loop harnesses self-limit).
    ///
    /// In protected mode an already-unroutable destination fails secure
    /// immediately: the packet becomes a [`NocAlert`] instead of entering
    /// the mesh.
    ///
    /// # Panics
    /// Panics if source or destination are outside the mesh.
    pub fn inject(&mut self, packet: Packet, now: Cycle) {
        assert!(self.topology.contains(packet.src), "src outside mesh");
        assert!(self.topology.contains(packet.dst), "dst outside mesh");
        self.stats.incr_slot(MeshCounter::Injected);
        let route = if self.config.protected {
            match adaptive_route(packet.src, packet.dst, &self.fault_map) {
                Some(r) => r,
                None => {
                    self.raise_alert(packet, LossReason::Unroutable, now);
                    return;
                }
            }
        } else {
            xy_route(packet.src, packet.dst)
        };
        let stamp = content_stamp(&packet);
        let local = route.len() == 1;
        self.occupancy[self.topology.index(packet.src)] += 1;
        self.flights.push(Flight {
            ready_at: if local {
                // Local delivery: just the router pipeline once.
                now.get() + ROUTER_CYCLES
            } else {
                now.get()
            },
            packet,
            route,
            hop: 1,
            stamp,
            retx_hop: 0,
            retransmissions: 0,
            reroutes: 0,
            credit_wait: 0,
            parked: false,
        });
    }

    /// Remove a flight, returning its node's buffer credit.
    fn remove_flight(&mut self, idx: usize) -> Flight {
        let flight = self.flights.swap_remove(idx);
        if let Some(pos) = flight.position() {
            let n = self.topology.index(pos);
            self.occupancy[n] = self.occupancy[n].saturating_sub(1);
        }
        flight
    }

    /// Heartbeat detector: `heartbeat_timeout` cycles after a router
    /// stops responding, its neighbors declare it dead. Packets resident
    /// in the dead router are converted into alerts (the containment
    /// notification), and the fault map steers future routes around it.
    fn detect_dead_routers(&mut self, now: Cycle) {
        if !self.config.protected {
            return;
        }
        for idx in 0..self.routers.len() {
            let Some(since) = self.routers[idx].stuck_since else {
                continue;
            };
            if now.get() < since + self.config.heartbeat_timeout {
                continue;
            }
            let node = NodeId::new(
                (idx % usize::from(self.topology.cols)) as u8,
                (idx / usize::from(self.topology.cols)) as u8,
            );
            if !self.fault_map.fail_router(node) {
                continue; // already known
            }
            self.stats.incr("noc.router_failures_detected");
            // Collect the packets that died inside the router.
            let mut lost = Vec::new();
            let mut i = 0;
            while i < self.flights.len() {
                if self.flights[i].position() == Some(node) {
                    lost.push(self.flights.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            self.occupancy[idx] = self.occupancy[idx].saturating_sub(lost.len() as u32);
            for flight in lost {
                self.raise_alert(flight.packet, LossReason::RouterFailed, now);
            }
        }
    }

    /// Reroute `flight` from its current position. Returns the loss
    /// reason when the packet must be abandoned (fail secure).
    fn reroute(
        flight: &mut Flight,
        fault_map: &FaultMap,
        stats: &mut Stats,
        now: Cycle,
    ) -> Option<LossReason> {
        let Some(from) = flight.position() else {
            return Some(LossReason::EmptyRoute);
        };
        flight.reroutes += 1;
        if flight.reroutes > MAX_REROUTES {
            return Some(LossReason::RerouteBudgetExhausted);
        }
        match adaptive_route(from, flight.packet.dst, fault_map) {
            Some(route) => {
                stats.incr("noc.reroutes");
                flight.route = route;
                flight.hop = 1;
                flight.retx_hop = 0;
                // Route recomputation charges one router pipeline pass.
                flight.ready_at = now.get() + ROUTER_CYCLES;
                None
            }
            None => Some(LossReason::Unroutable),
        }
    }

    /// Advance the network one cycle: move every flight whose current hop
    /// completed and whose next link is free.
    pub fn tick(&mut self, now: Cycle) {
        self.detect_dead_routers(now);
        let mut outcomes = std::mem::take(&mut self.outcomes);
        for (idx, flight) in self.flights.iter_mut().enumerate() {
            if flight.parked || flight.ready_at > now.get() {
                continue;
            }
            if flight.hop >= flight.route.len() {
                outcomes.push(Outcome::Finished(idx));
                continue;
            }
            let from = flight.route[flight.hop - 1];
            let to = flight.route[flight.hop];
            let from_idx = self.topology.index(from);
            // A dead router cannot forward what it holds. Protected mode
            // waits for the heartbeat detector to collect the packet
            // (alert); the bare mesh wedges, exactly like hardware.
            if self.routers[from_idx].stuck_since.is_some() {
                if !self.config.protected {
                    flight.parked = true;
                    self.stats.incr("noc.parked_in_dead_router");
                }
                continue;
            }
            if self.config.protected
                && (!self.fault_map.router_ok(to) || !self.fault_map.link_ok(from, to))
            {
                // The fault map already knows this hop is dead: detour.
                if let Some(reason) = Self::reroute(flight, &self.fault_map, &mut self.stats, now) {
                    outcomes.push(Outcome::Lost(idx, reason));
                }
                continue;
            }
            let to_idx = self.topology.index(to);
            // Credit-based flow control: do not transmit into a router
            // with no free buffer slot. Protected flights escalate to a
            // CreditStall alert after `max_credit_wait` cycles (anti-
            // wedge bound); the bare mesh waits indefinitely.
            if self.occupancy[to_idx] >= self.config.node_capacity as u32 {
                self.stats.incr_slot(MeshCounter::CreditWaitCycles);
                flight.credit_wait += 1;
                if self.config.protected && flight.credit_wait > self.config.max_credit_wait {
                    outcomes.push(Outcome::Lost(idx, LossReason::CreditStall));
                }
                continue;
            }
            let link = from_idx * 4 + direction_index(from, to);
            if self.links[link].free_at > now.get() {
                self.stats.incr_slot(MeshCounter::LinkWaitCycles);
                continue; // contend next cycle
            }
            let hop_cost = ROUTER_CYCLES + FLIT_CYCLES * u64::from(flight.packet.flits.max(1));
            let to_dead = self.routers[to_idx].stuck_since.is_some();
            let broken = self.links[link].broken;
            if broken || to_dead {
                // Ground truth: nothing on the far side acks this
                // transfer.
                self.links[link].free_at = now.get() + hop_cost;
                if !self.config.protected {
                    if broken {
                        // The flits leave the sender and vanish.
                        outcomes.push(Outcome::SilentDrop(idx));
                    } else {
                        // The link works; the packet enters the dead
                        // router and parks there (handled next tick).
                        flight.ready_at = now.get() + hop_cost;
                        flight.hop += 1;
                        flight.credit_wait = 0;
                        self.occupancy[from_idx] = self.occupancy[from_idx].saturating_sub(1);
                        self.occupancy[to_idx] += 1;
                        self.stats.incr_slot(MeshCounter::Hops);
                        self.stats.record_slot(MeshHistogram::HopLatency, hop_cost);
                        if let Some(t) = &self.tracer {
                            t.record(
                                now,
                                TraceEvent::NocHop {
                                    packet: flight.packet.id.0,
                                    node: from_idx as u16,
                                    latency: hop_cost,
                                },
                            );
                        }
                    }
                    continue;
                }
                // Protected: ack timeout → retransmit, feed the streak
                // detector.
                flight.ready_at = now.get() + hop_cost;
                flight.retx_hop += 1;
                flight.retransmissions += 1;
                self.stats.incr("noc.ack_timeouts");
                self.stats.incr("noc.retransmissions");
                if let Some(t) = &self.tracer {
                    t.record(
                        now,
                        TraceEvent::Retransmit {
                            id: flight.packet.id.0,
                            layer: "noc",
                        },
                    );
                }
                self.links[link].streak += 1;
                if self.links[link].streak >= LINK_FAIL_STREAK {
                    let dir = direction_index(from, to);
                    if self.fault_map.fail_link(from, dir) {
                        self.stats.incr("noc.link_failures_detected");
                    }
                } else if flight.retx_hop >= MAX_RETX_PER_HOP {
                    outcomes.push(Outcome::Lost(idx, LossReason::RetriesExhausted));
                }
                continue;
            }
            if let Some((xor, header)) = self.links[link].transient.take() {
                if self.config.protected {
                    // CRC-32 catches any ≤32-bit wire burst: the receiver
                    // nacks, the sender retransmits the pristine flit.
                    self.links[link].free_at = now.get() + hop_cost;
                    flight.ready_at = now.get() + hop_cost;
                    flight.retx_hop += 1;
                    flight.retransmissions += 1;
                    self.stats.incr("noc.crc_detected");
                    self.stats.incr("noc.retransmissions");
                    if let Some(t) = &self.tracer {
                        t.record(
                            now,
                            TraceEvent::Retransmit {
                                id: flight.packet.id.0,
                                layer: "noc",
                            },
                        );
                    }
                    self.links[link].streak += 1;
                    if flight.retx_hop >= MAX_RETX_PER_HOP {
                        outcomes.push(Outcome::Lost(idx, LossReason::RetriesExhausted));
                    }
                    continue;
                }
                // Bare mesh: the corruption rides to the endpoint.
                if header {
                    flight.packet.addr ^= xor;
                } else {
                    flight.packet.data ^= xor;
                }
                self.stats.incr("noc.wire_corruptions");
            }
            // Clean transfer: advance, reset the detectors.
            self.links[link].free_at = now.get() + hop_cost;
            self.links[link].streak = 0;
            self.links[link].tx_seq += 1;
            flight.retx_hop = 0;
            flight.credit_wait = 0;
            flight.ready_at = now.get() + hop_cost;
            flight.hop += 1;
            self.occupancy[from_idx] = self.occupancy[from_idx].saturating_sub(1);
            self.occupancy[to_idx] += 1;
            self.stats.incr_slot(MeshCounter::Hops);
            self.stats.record_slot(MeshHistogram::HopLatency, hop_cost);
            if let Some(t) = &self.tracer {
                t.record(
                    now,
                    TraceEvent::NocHop {
                        packet: flight.packet.id.0,
                        node: from_idx as u16,
                        latency: hop_cost,
                    },
                );
            }
        }
        // Apply outcomes back to front so swap_remove indices stay valid.
        for outcome in outcomes.drain(..).rev() {
            match outcome {
                Outcome::Finished(idx) => {
                    let flight = self.remove_flight(idx);
                    self.finish(flight, now);
                }
                Outcome::Lost(idx, reason) => {
                    let flight = self.remove_flight(idx);
                    self.raise_alert(flight.packet, reason, now);
                }
                Outcome::SilentDrop(idx) => {
                    let _ = self.remove_flight(idx);
                    // Ground truth only: nothing in the system knows.
                    self.stats.incr("noc.silent_drops");
                }
            }
        }
        self.outcomes = outcomes;
    }

    /// Hand a completed flight to its destination interface — or fail
    /// secure when the route is defective.
    fn finish(&mut self, flight: Flight, now: Cycle) {
        let Some(&last) = flight.route.last() else {
            // An empty route is a detected routing fault, not a panic.
            self.stats.incr("noc.empty_route_alerts");
            self.raise_alert(flight.packet, LossReason::EmptyRoute, now);
            return;
        };
        if last != flight.packet.dst {
            // Never deliver anywhere but the destination's enforcement
            // point: a misrouted packet is withheld and alerted.
            self.raise_alert(flight.packet, LossReason::Misrouted, now);
            return;
        }
        let clean = content_stamp(&flight.packet) == flight.stamp;
        if !clean {
            self.stats.incr("noc.delivered_corrupt");
        }
        self.stats.incr_slot(MeshCounter::Delivered);
        let node = self.topology.index(last);
        self.delivered[node].push_back((
            flight.packet,
            DeliveryInfo {
                clean,
                reroutes: flight.reroutes,
                retransmissions: flight.retransmissions,
            },
        ));
    }

    /// Pop the next packet delivered to endpoint `node`.
    pub fn deliver(&mut self, node: NodeId) -> Option<Packet> {
        self.deliver_with_info(node).map(|(p, _)| p)
    }

    /// Pop the next delivery with its transport metadata.
    pub fn deliver_with_info(&mut self, node: NodeId) -> Option<(Packet, DeliveryInfo)> {
        self.delivered[self.topology.index(node)].pop_front()
    }

    /// Packets currently in flight.
    pub fn in_flight(&self) -> usize {
        self.flights.len()
    }

    /// Packets wedged inside dead routers (bare mesh only; the protected
    /// transport converts these into alerts).
    pub fn parked(&self) -> usize {
        self.flights.iter().filter(|f| f.parked).count()
    }

    /// Packets resident at `node` — the consumed buffer credits out of
    /// [`NocConfig::node_capacity`].
    pub fn node_occupancy(&self, node: NodeId) -> u32 {
        self.occupancy[self.topology.index(node)]
    }

    /// Network statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Whether any delivered packet is waiting to be popped by a
    /// destination (the runner's delivery step has work to do).
    pub fn has_pending_deliveries(&self) -> bool {
        self.delivered.iter().any(|q| !q.is_empty())
    }

    /// Whether any alert is waiting to be taken.
    pub fn has_pending_alerts(&self) -> bool {
        !self.alerts.is_empty()
    }

    /// Event-core seam: classify what ticking the mesh at `now` would
    /// do. `MeshQuiet::Active` — the tick may move a flight, account a
    /// wait cycle, or fire the heartbeat detector; it must run.
    /// `MeshQuiet::Until(c)` — every tick strictly before `c` is a
    /// state no-op (all flights parked or not yet ready, no detection
    /// due); tick again at `c`. `MeshQuiet::Idle` — ticks are pure
    /// until new packets are injected.
    ///
    /// Deliberately conservative: any unparked flight whose `ready_at`
    /// has passed makes the mesh Active even if its next hop is
    /// blocked, because blocked-hop ticks charge per-cycle wait
    /// statistics that must stay byte-identical.
    pub fn next_event(&self, now: Cycle) -> MeshQuiet {
        let mut next: Option<u64> = None;
        let mut merge = |c: u64| {
            next = Some(next.map_or(c, |n| n.min(c)));
        };
        for flight in &self.flights {
            if flight.parked {
                continue; // wedged forever (bare mesh); pure
            }
            if flight.ready_at <= now.get() {
                return MeshQuiet::Active;
            }
            merge(flight.ready_at);
        }
        if self.config.protected {
            for (idx, router) in self.routers.iter().enumerate() {
                let Some(since) = router.stuck_since else {
                    continue;
                };
                let node = NodeId::new(
                    (idx % usize::from(self.topology.cols)) as u8,
                    (idx / usize::from(self.topology.cols)) as u8,
                );
                if !self.fault_map.router_ok(node) {
                    continue; // already detected; detector is pure
                }
                let deadline = since + self.config.heartbeat_timeout;
                if deadline <= now.get() {
                    return MeshQuiet::Active;
                }
                merge(deadline);
            }
        }
        match next {
            Some(c) => MeshQuiet::Until(Cycle(c)),
            None => MeshQuiet::Idle,
        }
    }
}

/// What ticking the mesh would do, as reported by
/// [`Mesh::next_event`] — the event-driven core's skip seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshQuiet {
    /// Tick may change state this cycle; do not skip.
    Active,
    /// Ticks strictly before the cycle are pure; tick again at it.
    Until(Cycle),
    /// Ticks are pure until new packets are injected.
    Idle,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(mesh: &mut Mesh, src: NodeId, dst: NodeId, flits: u16, now: Cycle) -> PacketId {
        let id = mesh.alloc_id();
        mesh.inject(
            Packet {
                id,
                src,
                dst,
                op: Op::Read,
                addr: 0,
                width: Width::Word,
                data: 0,
                flits,
                injected_at: now,
            },
            now,
        );
        id
    }

    fn run_until_delivered(mesh: &mut Mesh, dst: NodeId, max: u64) -> (Packet, u64) {
        for c in 0..max {
            mesh.tick(Cycle(c));
            if let Some(p) = mesh.deliver(dst) {
                return (p, c);
            }
        }
        panic!("not delivered within {max} cycles");
    }

    #[test]
    fn single_hop_latency_is_router_plus_flits() {
        let mut mesh = Mesh::new(Topology::new(2, 1), NocConfig::default());
        let dst = NodeId::new(1, 0);
        packet(&mut mesh, NodeId::new(0, 0), dst, 1, Cycle(0));
        let (_, at) = run_until_delivered(&mut mesh, dst, 100);
        // 1 hop: 3 (router) + 1 (flit) = 4 cycles; delivery observed on
        // the tick after ready.
        assert_eq!(at, 4);
    }

    #[test]
    fn latency_grows_with_distance() {
        let mut a = Mesh::new(Topology::new(4, 4), NocConfig::default());
        let near = NodeId::new(1, 0);
        packet(&mut a, NodeId::new(0, 0), near, 1, Cycle(0));
        let (_, t_near) = run_until_delivered(&mut a, near, 100);

        let mut b = Mesh::new(Topology::new(4, 4), NocConfig::default());
        let far = NodeId::new(3, 3);
        packet(&mut b, NodeId::new(0, 0), far, 1, Cycle(0));
        let (_, t_far) = run_until_delivered(&mut b, far, 100);
        assert!(t_far > t_near);
        // 6 hops × 4 cycles = 24 (+1 observation tick).
        assert_eq!(t_far, 24);
    }

    #[test]
    fn protection_costs_nothing_on_a_clean_mesh() {
        // The protected transport must not change clean-path timing.
        let mut mesh = Mesh::new(Topology::new(4, 4), NocConfig::protected());
        let far = NodeId::new(3, 3);
        packet(&mut mesh, NodeId::new(0, 0), far, 1, Cycle(0));
        let (_, at) = run_until_delivered(&mut mesh, far, 100);
        assert_eq!(at, 24);
        assert_eq!(mesh.stats().counter("noc.retransmissions"), 0);
    }

    #[test]
    fn disjoint_routes_do_not_contend() {
        let mut mesh = Mesh::new(Topology::new(4, 2), NocConfig::default());
        // Two packets on disjoint rows.
        let d0 = NodeId::new(3, 0);
        let d1 = NodeId::new(3, 1);
        packet(&mut mesh, NodeId::new(0, 0), d0, 1, Cycle(0));
        packet(&mut mesh, NodeId::new(0, 1), d1, 1, Cycle(0));
        let mut got = 0;
        let mut when = [0u64; 2];
        for c in 0..200 {
            mesh.tick(Cycle(c));
            if mesh.deliver(d0).is_some() {
                when[0] = c;
                got += 1;
            }
            if mesh.deliver(d1).is_some() {
                when[1] = c;
                got += 1;
            }
            if got == 2 {
                break;
            }
        }
        assert_eq!(got, 2);
        assert_eq!(when[0], when[1], "parallel rows deliver simultaneously");
    }

    #[test]
    fn shared_link_serializes() {
        let mut mesh = Mesh::new(Topology::new(2, 1), NocConfig::default());
        let dst = NodeId::new(1, 0);
        // Two packets over the same single link.
        packet(&mut mesh, NodeId::new(0, 0), dst, 1, Cycle(0));
        packet(&mut mesh, NodeId::new(0, 0), dst, 1, Cycle(0));
        let mut deliveries = Vec::new();
        for c in 0..100 {
            mesh.tick(Cycle(c));
            while mesh.deliver(dst).is_some() {
                deliveries.push(c);
            }
            if deliveries.len() == 2 {
                break;
            }
        }
        assert_eq!(deliveries.len(), 2);
        assert!(deliveries[1] >= deliveries[0] + 4, "{deliveries:?}");
        assert!(mesh.stats().counter("noc.link_wait_cycles") > 0);
    }

    #[test]
    fn local_delivery_works() {
        let mut mesh = Mesh::new(Topology::new(2, 2), NocConfig::default());
        let n = NodeId::new(1, 1);
        packet(&mut mesh, n, n, 1, Cycle(0));
        let (_, at) = run_until_delivered(&mut mesh, n, 10);
        assert!(at <= 4);
    }

    #[test]
    fn larger_packets_occupy_links_longer() {
        let mut mesh = Mesh::new(Topology::new(2, 1), NocConfig::default());
        let dst = NodeId::new(1, 0);
        packet(&mut mesh, NodeId::new(0, 0), dst, 8, Cycle(0));
        let (_, at) = run_until_delivered(&mut mesh, dst, 100);
        assert_eq!(at, 11); // 3 + 8 = 11
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn inject_outside_mesh_panics() {
        let mut mesh = Mesh::new(Topology::new(2, 2), NocConfig::default());
        packet(&mut mesh, NodeId::new(0, 0), NodeId::new(5, 5), 1, Cycle(0));
    }

    // ------------------------------------------------------------------
    // Fault-tolerant transport
    // ------------------------------------------------------------------

    fn bitflip(node: u16, dir: u8, xor: u32, header: bool) -> FaultKind {
        FaultKind::LinkBitFlip {
            node,
            dir,
            xor,
            header,
        }
    }

    #[test]
    fn protected_mesh_retransmits_through_wire_corruption() {
        let mut mesh = Mesh::new(Topology::new(2, 1), NocConfig::protected());
        let dst = NodeId::new(1, 0);
        // Corrupt the eastward link out of (0,0).
        mesh.apply_fault(&bitflip(0, 2, 0xDEAD_BEEF, false), Cycle(0));
        packet(&mut mesh, NodeId::new(0, 0), dst, 1, Cycle(0));
        let (p, at) = run_until_delivered(&mut mesh, dst, 100);
        assert_eq!(p.data, 0, "delivered content is pristine");
        assert_eq!(at, 8, "one retransmission costs one extra hop slot");
        assert_eq!(mesh.stats().counter("noc.crc_detected"), 1);
        assert_eq!(mesh.stats().counter("noc.retransmissions"), 1);
        assert_eq!(mesh.stats().counter("noc.delivered_corrupt"), 0);
    }

    #[test]
    fn bare_mesh_delivers_wire_corruption_silently() {
        let mut mesh = Mesh::new(Topology::new(2, 1), NocConfig::default());
        let dst = NodeId::new(1, 0);
        mesh.apply_fault(&bitflip(0, 2, 0x55, false), Cycle(0));
        packet(&mut mesh, NodeId::new(0, 0), dst, 1, Cycle(0));
        let (p, _) = run_until_delivered(&mut mesh, dst, 100);
        assert_eq!(p.data, 0x55, "corruption reached the endpoint");
        assert_eq!(mesh.stats().counter("noc.delivered_corrupt"), 1);
    }

    #[test]
    fn header_corruption_is_caught_too() {
        let mut mesh = Mesh::new(Topology::new(2, 1), NocConfig::protected());
        let dst = NodeId::new(1, 0);
        mesh.apply_fault(&bitflip(0, 2, 0x1000, true), Cycle(0));
        packet(&mut mesh, NodeId::new(0, 0), dst, 1, Cycle(0));
        let (p, _) = run_until_delivered(&mut mesh, dst, 100);
        assert_eq!(p.addr, 0, "address survives intact");
        assert_eq!(mesh.stats().counter("noc.crc_detected"), 1);
    }

    #[test]
    fn broken_link_is_detected_and_rerouted_around() {
        let mut mesh = Mesh::new(Topology::new(3, 2), NocConfig::protected());
        let src = NodeId::new(0, 0);
        let dst = NodeId::new(2, 0);
        mesh.apply_fault(&FaultKind::LinkDrop { node: 0, dir: 2 }, Cycle(0));
        packet(&mut mesh, src, dst, 1, Cycle(0));
        let (p, _) = run_until_delivered(&mut mesh, dst, 400);
        assert_eq!(p.dst, dst);
        assert!(mesh.stats().counter("noc.ack_timeouts") >= 3);
        assert_eq!(mesh.stats().counter("noc.link_failures_detected"), 1);
        assert_eq!(mesh.stats().counter("noc.reroutes"), 1);
        assert!(!mesh.fault_map().is_clean());
        // The detour is remembered: a second packet reroutes at
        // injection with no further timeouts.
        let before = mesh.stats().counter("noc.ack_timeouts");
        packet(&mut mesh, src, dst, 1, Cycle(400));
        for c in 400..800 {
            mesh.tick(Cycle(c));
            if mesh.deliver(dst).is_some() {
                break;
            }
        }
        assert_eq!(mesh.stats().counter("noc.ack_timeouts"), before);
    }

    #[test]
    fn bare_mesh_drops_on_broken_link_silently() {
        let mut mesh = Mesh::new(Topology::new(3, 2), NocConfig::default());
        mesh.apply_fault(&FaultKind::LinkDrop { node: 0, dir: 2 }, Cycle(0));
        packet(&mut mesh, NodeId::new(0, 0), NodeId::new(2, 0), 1, Cycle(0));
        for c in 0..200 {
            mesh.tick(Cycle(c));
        }
        assert_eq!(mesh.in_flight(), 0);
        assert_eq!(mesh.stats().counter("noc.delivered"), 0);
        assert_eq!(mesh.stats().counter("noc.silent_drops"), 1);
        assert_eq!(mesh.stats().counter("noc.alerts"), 0, "nobody was told");
    }

    #[test]
    fn dead_router_is_detected_and_routed_around() {
        let mut mesh = Mesh::new(Topology::new(3, 3), NocConfig::protected());
        let src = NodeId::new(0, 0);
        let dst = NodeId::new(2, 0);
        // The router in the middle of the XY path dies before injection.
        mesh.apply_fault(&FaultKind::RouterStuck { node: 1 }, Cycle(0));
        packet(&mut mesh, src, dst, 1, Cycle(0));
        let (p, _) = run_until_delivered(&mut mesh, dst, 600);
        assert_eq!(p.dst, dst);
        assert!(
            mesh.fault_map().failed_router_count() == 1
                || mesh.fault_map().failed_link_count() >= 1,
            "some detector fired"
        );
    }

    #[test]
    fn packet_resident_in_dead_router_becomes_an_alert() {
        let mut mesh = Mesh::new(Topology::new(3, 1), NocConfig::protected());
        let src = NodeId::new(0, 0);
        let dst = NodeId::new(2, 0);
        packet(&mut mesh, src, dst, 1, Cycle(0));
        // Let the packet reach router (1,0) (first hop completes at
        // cycle 4), then kill that router while it is still resident.
        for c in 0..3 {
            mesh.tick(Cycle(c));
        }
        mesh.apply_fault(&FaultKind::RouterStuck { node: 1 }, Cycle(3));
        let mut alert = None;
        for c in 3..400 {
            mesh.tick(Cycle(c));
            if let Some(a) = mesh.take_alert() {
                alert = Some(a);
                break;
            }
        }
        let alert = alert.expect("resident packet must be alerted, not lost");
        assert_eq!(alert.reason, LossReason::RouterFailed);
        assert_eq!(alert.packet.dst, dst);
        assert_eq!(mesh.in_flight(), 0, "no deadlock");
    }

    #[test]
    fn unroutable_destination_fails_secure() {
        let mut mesh = Mesh::new(Topology::new(3, 3), NocConfig::protected());
        let dst = NodeId::new(2, 2);
        mesh.apply_fault(&FaultKind::RouterStuck { node: 8 }, Cycle(0));
        // Heartbeat detection declares (2,2) dead...
        for c in 0..(mesh.config().heartbeat_timeout + 2) {
            mesh.tick(Cycle(c));
        }
        // ...so injection to it alerts instead of entering the mesh.
        packet(&mut mesh, NodeId::new(0, 0), dst, 1, Cycle(60));
        let alert = mesh.take_alert().expect("unroutable must alert");
        assert_eq!(alert.reason, LossReason::Unroutable);
        assert_eq!(mesh.in_flight(), 0);
        assert_eq!(mesh.stats().counter("noc.delivered"), 0);
    }

    #[test]
    fn bare_mesh_wedges_in_a_dead_router() {
        let mut mesh = Mesh::new(Topology::new(3, 1), NocConfig::default());
        mesh.apply_fault(&FaultKind::RouterStuck { node: 1 }, Cycle(0));
        packet(&mut mesh, NodeId::new(0, 0), NodeId::new(2, 0), 1, Cycle(0));
        for c in 0..500 {
            mesh.tick(Cycle(c));
        }
        assert_eq!(mesh.in_flight(), 1, "the packet is wedged");
        assert_eq!(mesh.parked(), 1);
        assert_eq!(mesh.stats().counter("noc.alerts"), 0);
    }

    #[test]
    fn transient_streaks_do_not_kill_a_healthy_link() {
        // One transient on a link must not push it into the fault map.
        let mut mesh = Mesh::new(Topology::new(2, 1), NocConfig::protected());
        mesh.apply_fault(&bitflip(0, 2, 0xFF, false), Cycle(0));
        packet(&mut mesh, NodeId::new(0, 0), NodeId::new(1, 0), 1, Cycle(0));
        run_until_delivered(&mut mesh, NodeId::new(1, 0), 100);
        assert!(mesh.fault_map().is_clean());
    }

    #[test]
    fn fault_application_selectors_wrap() {
        let mut mesh = Mesh::new(Topology::new(2, 2), NocConfig::protected());
        // node 7 on a 4-node mesh wraps to node 3; dir 9 wraps to 1.
        assert!(mesh.apply_fault(&FaultKind::RouterStuck { node: 7 }, Cycle(0)));
        assert!(mesh.apply_fault(&FaultKind::LinkDrop { node: 6, dir: 9 }, Cycle(0)));
        // Non-NoC classes are not consumed.
        assert!(!mesh.apply_fault(&FaultKind::BusLoseGrant, Cycle(0)));
        assert!(!mesh.apply_fault(&FaultKind::DdrBitFlip { offset: 0, bit: 0 }, Cycle(0)));
    }

    fn try_packet(mesh: &mut Mesh, src: NodeId, dst: NodeId, now: Cycle) -> bool {
        let id = mesh.alloc_id();
        mesh.try_inject(
            Packet {
                id,
                src,
                dst,
                op: Op::Read,
                addr: 0,
                width: Width::Word,
                data: 0,
                flits: 1,
                injected_at: now,
            },
            now,
        )
    }

    #[test]
    fn full_source_refuses_admission_with_a_typed_alert() {
        let cfg = NocConfig {
            node_capacity: 2,
            ..NocConfig::protected()
        };
        let mut mesh = Mesh::new(Topology::new(2, 1), cfg);
        let src = NodeId::new(0, 0);
        let dst = NodeId::new(1, 0);
        assert!(try_packet(&mut mesh, src, dst, Cycle(0)));
        assert!(try_packet(&mut mesh, src, dst, Cycle(0)));
        assert_eq!(mesh.node_occupancy(src), 2);
        // Third packet finds no credit: refused, alerted, never lost.
        assert!(!try_packet(&mut mesh, src, dst, Cycle(0)));
        let alert = mesh.take_alert().expect("refusal must alert");
        assert_eq!(alert.reason, LossReason::CreditStall);
        assert_eq!(mesh.stats().counter("noc.ingress_refused"), 1);
        assert_eq!(mesh.stats().counter("noc.silent_drops"), 0);
        // Draining the mesh returns the credits.
        for c in 0..100 {
            mesh.tick(Cycle(c));
        }
        assert_eq!(mesh.node_occupancy(src), 0);
        assert!(try_packet(&mut mesh, src, dst, Cycle(100)));
    }

    #[test]
    fn bare_mesh_sheds_silently_at_a_full_source() {
        let cfg = NocConfig {
            node_capacity: 1,
            ..NocConfig::default()
        };
        let mut mesh = Mesh::new(Topology::new(2, 1), cfg);
        let src = NodeId::new(0, 0);
        let dst = NodeId::new(1, 0);
        assert!(try_packet(&mut mesh, src, dst, Cycle(0)));
        assert!(!try_packet(&mut mesh, src, dst, Cycle(0)));
        assert_eq!(mesh.stats().counter("noc.silent_drops"), 1);
        assert_eq!(mesh.stats().counter("noc.alerts"), 0);
    }

    #[test]
    fn credit_backpressure_bounds_downstream_occupancy() {
        // A destination with one buffer slot: the second packet must wait
        // upstream until the first is consumed, never overrunning.
        let cfg = NocConfig {
            node_capacity: 1,
            ..NocConfig::default()
        };
        let mut mesh = Mesh::new(Topology::new(3, 1), cfg);
        let dst = NodeId::new(2, 0);
        assert!(try_packet(&mut mesh, NodeId::new(0, 0), dst, Cycle(0)));
        assert!(try_packet(&mut mesh, NodeId::new(1, 0), dst, Cycle(0)));
        let mut delivered = 0;
        for c in 0..400 {
            mesh.tick(Cycle(c));
            assert!(mesh.node_occupancy(dst) <= 1, "credit bound violated");
            if mesh.deliver(dst).is_some() {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 2, "backpressure delays but never loses");
        assert!(mesh.stats().counter("noc.credit_wait_cycles") > 0);
    }

    #[test]
    fn protected_credit_stall_escalates_instead_of_wedging() {
        // Pin node 1's only buffer credit with a resident stuck mid-route
        // (its router dies under it, and the heartbeat detector is kept
        // quiet), then watch a second flight headed into node 1 escalate
        // to a CreditStall alert once max_credit_wait expires instead of
        // waiting forever.
        let cfg = NocConfig {
            node_capacity: 1,
            max_credit_wait: 16,
            heartbeat_timeout: 100_000,
            ..NocConfig::protected()
        };
        let mut mesh = Mesh::new(Topology::new(3, 1), cfg);
        let mid = NodeId::new(1, 0);
        // Packet A: node0 -> node2, advances into node1 on tick 0.
        assert!(try_packet(
            &mut mesh,
            NodeId::new(0, 0),
            NodeId::new(2, 0),
            Cycle(0)
        ));
        for c in 0..3 {
            mesh.tick(Cycle(c));
        }
        assert_eq!(mesh.node_occupancy(mid), 1);
        mesh.apply_fault(&FaultKind::RouterStuck { node: 1 }, Cycle(2));
        // Packet B: node0 -> node1, finds no credit at its next hop.
        assert!(try_packet(&mut mesh, NodeId::new(0, 0), mid, Cycle(3)));
        for c in 3..100 {
            mesh.tick(Cycle(c));
        }
        let alert = mesh.take_alert().expect("stalled flight must alert");
        assert_eq!(alert.reason, LossReason::CreditStall);
        assert_eq!(mesh.stats().counter("noc.alert.credit_stall"), 1);
        assert!(mesh.stats().counter("noc.credit_wait_cycles") >= 16);
    }
}
