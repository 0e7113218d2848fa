//! The closed-loop request/response workload over the mesh.
//!
//! Initiators sit on the mesh's western column(s), the memory target on
//! the south-east corner (a classic hot-spot). Each initiator keeps one
//! outstanding request: inject → route → memory service → response routes
//! back. With protection enabled, every request passes the initiator's
//! network-interface APU first (adding the same 12-cycle check the bus
//! firewalls charge — mechanism held constant, placement varies) and is
//! checked *again* by the memory node's ingress APU on arrival, so no
//! route — XY or detour — bypasses enforcement.
//!
//! [`run_noc_soak`] is the one runner. It drives the workload under a
//! seed-reproducible [`FaultPlan`] and keeps ground-truth books the
//! transport cannot see: content stamps catch undetected corruption, a
//! silent policy shadow catches security bypasses, and a drain phase at
//! the end separates "slow" from "wedged". [`FaultPlan::empty`] with
//! `drain_cycles: 0` is the plain workload the `noc_compare` bench puts
//! next to the shared bus: with no faults the protected transport costs
//! no cycle, and the ingress APU's check is not charged, so the protected
//! run differs from the bare one by the egress APU's latency alone.

use secbus_bus::{AddrRange, MasterId, Op, Transaction, TxnId, Width};
use secbus_core::{AdfSet, CheckOutcome, ConfigMemory, Rwa, SecurityPolicy};
use secbus_fault::FaultPlan;
use secbus_sim::{Cycle, Histogram, SimCore};

use crate::network::{LossReason, Mesh, MeshQuiet, NocConfig, Packet};
use crate::ni::NetworkInterface;
use crate::topology::{NodeId, Topology};

struct Initiator {
    node: NodeId,
    ni: Option<NetworkInterface>,
    outstanding: Option<(u64, Cycle)>, // (packet id, issued)
    next_at: u64,
    issued: u64,
    completed: u64,
    rejected: u64,
    latencies: Histogram,
}

const MEM_BASE: u32 = 0x8000_0000;

/// Mesh sizing shared by every workload: a square-ish grid that fits the
/// initiators plus one extra column for the memory node at the
/// south-east corner.
fn mesh_shape(initiators: usize) -> (Topology, NodeId) {
    assert!(initiators >= 1);
    let rows = (initiators as f64).sqrt().ceil() as u8;
    let cols = (initiators as u8).div_ceil(rows) + 1;
    (Topology::new(cols, rows), NodeId::new(cols - 1, rows - 1))
}

/// Where initiator `i` sits on a mesh with `cols` columns.
fn initiator_node(i: usize, cols: u8) -> NodeId {
    NodeId::new((i as u8) % (cols - 1), (i as u8) / (cols - 1))
}

/// Inverse of [`initiator_node`]: which initiator owns `node`, if any.
fn initiator_index(node: NodeId, cols: u8, initiators: usize) -> Option<usize> {
    if node.x >= cols - 1 {
        return None;
    }
    let i = node.y as usize * (cols as usize - 1) + node.x as usize;
    (i < initiators).then_some(i)
}

/// The in-policy address window initiator `i` may touch.
fn initiator_window(i: usize) -> AddrRange {
    AddrRange::new(MEM_BASE + (i as u32) * 0x100, 0x100)
}

/// The union of every initiator's policy — what the memory node's
/// ingress APU enforces, and what the soak runner's silent shadow uses
/// as ground truth for the bypass count. Falls back to an *empty*
/// (default-deny) table if construction fails: a misconfigured firewall
/// must fail secure, never fail open.
fn union_policies(initiators: usize) -> ConfigMemory {
    let policies = (0..initiators)
        .map(|i| {
            SecurityPolicy::internal(
                i as u16 + 1,
                initiator_window(i),
                Rwa::ReadWrite,
                AdfSet::ALL,
            )
        })
        .collect();
    ConfigMemory::with_policies(policies).unwrap_or_else(|_| ConfigMemory::new())
}

/// Configuration for a run of the hot-spot workload.
#[derive(Debug, Clone)]
pub struct NocSoakConfig {
    /// Endpoints issuing traffic.
    pub initiators: usize,
    /// Cycles between round trips per initiator.
    pub period: u64,
    /// Issue window: initiators stop injecting after this many cycles.
    pub cycles: u64,
    /// Grace period after the window for in-flight traffic to resolve
    /// (deliver or alert). Anything still unresolved afterwards is
    /// stuck, not slow.
    pub drain_cycles: u64,
    /// Enable the fault-tolerant transport + NI enforcement.
    pub protected: bool,
}

impl Default for NocSoakConfig {
    fn default() -> Self {
        NocSoakConfig {
            initiators: 4,
            period: 16,
            cycles: 10_000,
            drain_cycles: 2_000,
            protected: true,
        }
    }
}

/// Result of one fault-injected soak run. `PartialEq` so determinism is
/// a one-line assertion.
#[derive(Debug, Clone, PartialEq)]
pub struct NocSoakReport {
    /// Endpoints in the run.
    pub initiators: usize,
    /// Whether the fault-tolerant transport was on.
    pub protected: bool,
    /// NoC fault events the mesh accepted from the plan.
    pub faults_applied: u64,
    /// Requests issued.
    pub issued: u64,
    /// Round trips completed.
    pub completed: u64,
    /// Mean round-trip latency in cycles.
    pub mean_latency: Option<f64>,
    /// Fail-secure transport alerts, total and by reason.
    pub alerts: u64,
    /// Alerts by loss reason (mnemonic, count), report-column order.
    pub alerts_by_reason: Vec<(&'static str, u64)>,
    /// Corruptions caught by flit CRC (protected mode).
    pub crc_detected: u64,
    /// Link-level retransmissions.
    pub retransmissions: u64,
    /// Ack timeouts on dead/broken links.
    pub ack_timeouts: u64,
    /// Adaptive reroutes around detected faults.
    pub reroutes: u64,
    /// Links the detector declared failed.
    pub link_failures_detected: u64,
    /// Routers the heartbeat declared failed.
    pub router_failures_detected: u64,
    /// Ground truth: corruptions that went onto the wire uncaught
    /// (bare mode only — the CRC turns these into `crc_detected`).
    pub wire_corruptions: u64,
    /// Ground truth: packets the bare mesh lost without a word.
    pub silent_drops: u64,
    /// Ground truth: packets delivered with content differing from what
    /// was injected (undetected corruption — must be 0 when protected).
    pub delivered_corrupt: u64,
    /// Ground truth: serviced requests the destination's policy table
    /// would refuse (security bypass — must be 0 when protected).
    pub security_bypasses: u64,
    /// Requests refused by the memory node's ingress APU.
    pub ingress_rejected: u64,
    /// Requests refused by an initiator's egress APU.
    pub egress_rejected: u64,
    /// Responses with no request outstanding.
    pub unsolicited_responses: u64,
    /// Responses whose correlation id did not match (corrupted in bare
    /// mode; the initiator is released either way).
    pub mismatched_responses: u64,
    /// Initiators still waiting after the drain phase.
    pub unresolved: u64,
    /// Packets still inside the mesh after the drain phase.
    pub stuck_in_mesh: u64,
    /// Protected-mode guarantee violated: traffic neither delivered nor
    /// alerted within the drain window (livelock/deadlock/lost-update).
    pub wedged: bool,
    /// Rendered [`secbus_sim::MetricsRegistry`] snapshot of the mesh's
    /// counters and histograms (key-sorted JSON, byte-identical per
    /// seed). A string so the report stays `PartialEq`-comparable.
    pub metrics_json: String,
}

/// Run the hot-spot workload under a fault plan and audit the outcome.
///
/// The transport's own books (alerts, retransmissions, reroutes) are
/// reported next to ground-truth observers it cannot influence: content
/// stamps taken at injection, a silent shadow of the destination policy
/// table, and an end-of-run sweep for anything neither delivered nor
/// alerted. In protected mode the acceptance bar is:
/// `delivered_corrupt == 0 && security_bypasses == 0 && !wedged`.
/// [`FaultPlan::empty`] with `drain_cycles: 0` runs the plain workload.
pub fn run_noc_soak(cfg: &NocSoakConfig, plan: FaultPlan) -> NocSoakReport {
    run_noc_soak_with_core(cfg, plan, SimCore::from_env())
}

/// [`run_noc_soak`] with an explicit simulator core, so equivalence
/// tests can compare both cores without mutating process environment.
pub fn run_noc_soak_with_core(
    cfg: &NocSoakConfig,
    mut plan: FaultPlan,
    core: SimCore,
) -> NocSoakReport {
    let (topology, memory) = mesh_shape(cfg.initiators);
    let cols = topology.cols;
    let mem_latency = 10u64;

    let noc_config = if cfg.protected {
        NocConfig::protected()
    } else {
        NocConfig::default()
    };
    let mut mesh = Mesh::new(topology, noc_config);

    // The destination's enforcement point: every arriving request is
    // checked by the memory node's own APU, whatever route it took.
    let mut mem_ni = cfg
        .protected
        .then(|| NetworkInterface::new(memory, union_policies(cfg.initiators)));
    // Ground-truth shadow of the same table: consulted silently in BOTH
    // modes so "serviced but out of policy" is measurable, not assumed.
    let shadow = union_policies(cfg.initiators);

    let mut inits: Vec<Initiator> = (0..cfg.initiators)
        .map(|i| {
            let node = initiator_node(i, cols);
            let ni = cfg.protected.then(|| {
                NetworkInterface::new(
                    node,
                    ConfigMemory::with_policies(vec![SecurityPolicy::internal(
                        i as u16 + 1,
                        initiator_window(i),
                        Rwa::ReadWrite,
                        AdfSet::ALL,
                    )])
                    // Fail secure: a policy table that cannot be built
                    // becomes default-deny, not a panic or a bypass.
                    .unwrap_or_else(|_| ConfigMemory::new()),
                )
            });
            Initiator {
                node,
                ni,
                outstanding: None,
                next_at: 0,
                issued: 0,
                completed: 0,
                rejected: 0,
                latencies: Histogram::new(),
            }
        })
        .collect();

    let mut mem_queue: Vec<(u64, Packet)> = Vec::new();
    let mut faults_applied = 0u64;
    let mut security_bypasses = 0u64;
    let mut ingress_rejected = 0u64;
    let mut unsolicited = 0u64;
    let mut mismatched = 0u64;

    let total = cfg.cycles + cfg.drain_cycles;
    let mut c = 0u64;
    while c < total {
        let now = Cycle(c);

        // Scheduled faults land at the start of the tick.
        for event in plan.take_due(now) {
            if mesh.apply_fault(&event.kind, now) {
                faults_applied += 1;
            }
        }

        // Initiators issue only inside the window.
        if c < cfg.cycles {
            for (i, init) in inits.iter_mut().enumerate() {
                if init.outstanding.is_some() || c < init.next_at {
                    continue;
                }
                let addr = MEM_BASE + (i as u32) * 0x100 + ((init.issued as u32 * 4) % 0x100);
                let mut inject_delay = 0;
                if let Some(ni) = init.ni.as_mut() {
                    let probe = Transaction {
                        id: TxnId(init.issued),
                        master: MasterId(i as u8),
                        op: Op::Read,
                        addr,
                        width: Width::Word,
                        data: 0,
                        burst: 1,
                        issued_at: now,
                    };
                    match ni.check(&probe, now) {
                        Ok(latency) => inject_delay = latency,
                        Err((_, latency)) => {
                            init.rejected += 1;
                            init.next_at = c + latency.max(1);
                            continue;
                        }
                    }
                }
                let id = mesh.alloc_id();
                let release = Cycle(c + inject_delay);
                mesh.inject(
                    Packet {
                        id,
                        src: init.node,
                        dst: memory,
                        op: Op::Read,
                        addr,
                        width: Width::Word,
                        data: 0,
                        flits: 2,
                        injected_at: release,
                    },
                    release,
                );
                init.outstanding = Some((id.0, now));
                init.issued += 1;
            }
        }

        mesh.tick(now);

        // Memory node: ingress enforcement, then service.
        while let Some((req, _info)) = mesh.deliver_with_info(memory) {
            let txn = Transaction {
                id: TxnId(req.id.0),
                master: MasterId(0),
                op: req.op,
                addr: req.addr,
                width: req.width,
                data: req.data,
                burst: 1,
                issued_at: req.injected_at,
            };
            let in_policy = match shadow.lookup(txn.addr) {
                None => false,
                Some(policy) => {
                    matches!(
                        secbus_core::checker::check_all(policy, &txn),
                        CheckOutcome::Pass
                    )
                }
            };
            let serviced = match mem_ni.as_mut() {
                Some(ni) => match ni.check_ingress(&txn, now) {
                    Ok(_) => true,
                    Err(_) => {
                        // Refused at the destination: contain, and free
                        // the issuing initiator so refusal cannot wedge
                        // the endpoint.
                        ingress_rejected += 1;
                        if let Some(i) = initiator_index(req.src, cols, cfg.initiators) {
                            if inits[i].outstanding.is_some() {
                                inits[i].outstanding = None;
                                inits[i].next_at = c + cfg.period;
                            }
                        }
                        false
                    }
                },
                // Bare mode services whatever arrives — which is exactly
                // how a corrupted header becomes a security bypass.
                None => true,
            };
            if serviced {
                if !in_policy {
                    security_bypasses += 1;
                }
                let id = mesh.alloc_id();
                let resp = Packet {
                    id,
                    src: memory,
                    dst: req.src,
                    op: req.op,
                    addr: req.addr,
                    width: req.width,
                    data: req.id.0 as u32,
                    flits: 2,
                    injected_at: Cycle(c),
                };
                mem_queue.push((c + mem_latency, resp));
            }
        }
        for (_, resp) in mem_queue.extract_if(.., |(ready, _)| *ready <= c) {
            mesh.inject(resp, Cycle(c));
        }

        // Responses back at the initiators.
        for init in inits.iter_mut() {
            if let Some((resp, _info)) = mesh.deliver_with_info(init.node) {
                let Some((expect, issued)) = init.outstanding.take() else {
                    unsolicited += 1;
                    continue;
                };
                if u64::from(resp.data) != expect {
                    mismatched += 1;
                }
                init.latencies.record(now.saturating_since(issued));
                init.completed += 1;
                init.next_at = c + cfg.period;
            }
        }

        // Fail-secure alerts: every lost packet frees its initiator.
        while let Some(alert) = mesh.take_alert() {
            let owner = if alert.packet.dst == memory {
                // A lost request: the issuer is the source node.
                initiator_index(alert.packet.src, cols, cfg.initiators)
            } else if alert.packet.src == memory {
                // A lost response: the issuer is the destination node.
                initiator_index(alert.packet.dst, cols, cfg.initiators)
            } else {
                None
            };
            if let Some(i) = owner {
                if inits[i].outstanding.is_some() {
                    inits[i].outstanding = None;
                    inits[i].next_at = c + cfg.period;
                }
            }
        }

        c += 1;
        // Event core: fast-forward over provably idle cycles. Barriers
        // are the next scheduled fault, the next cycle an initiator can
        // issue (inside the window), the next maturing memory response
        // and the mesh's own next event (flit release or a pending
        // dead-router detection deadline).
        if core == SimCore::Event {
            if c >= total || mesh.has_pending_deliveries() || mesh.has_pending_alerts() {
                continue;
            }
            let mut target = total;
            if let Some(at) = plan.next_due() {
                target = target.min(at.get());
            }
            for init in &inits {
                if init.outstanding.is_none() {
                    let t = init.next_at.max(c);
                    if t < cfg.cycles {
                        target = target.min(t);
                    }
                }
            }
            if let Some(ready) = mem_queue.iter().map(|(r, _)| *r).min() {
                target = target.min(ready);
            }
            match mesh.next_event(Cycle(c)) {
                MeshQuiet::Active => continue,
                MeshQuiet::Until(at) => target = target.min(at.get()),
                MeshQuiet::Idle => {}
            }
            c = c.max(target.min(total));
        }
    }

    let mut all = Histogram::new();
    for init in &inits {
        all.merge(&init.latencies);
    }
    let stats = mesh.stats();
    let alerts_by_reason = LossReason::ALL
        .iter()
        .map(|r| (r.mnemonic(), stats.counter(r.stat_key())))
        .collect();
    let mut registry = secbus_sim::MetricsRegistry::new();
    registry.insert("noc", stats);
    let unresolved = inits.iter().filter(|i| i.outstanding.is_some()).count() as u64;
    let stuck_in_mesh = mesh.in_flight() as u64 + mem_queue.len() as u64;
    // The protected transport promises delivery-or-alert: anything still
    // pending after the drain window is a broken promise, not latency.
    let wedged = cfg.protected && (unresolved > 0 || stuck_in_mesh > 0);

    NocSoakReport {
        initiators: cfg.initiators,
        protected: cfg.protected,
        faults_applied,
        issued: inits.iter().map(|i| i.issued).sum(),
        completed: inits.iter().map(|i| i.completed).sum(),
        mean_latency: all.mean(),
        alerts: stats.counter("noc.alerts"),
        alerts_by_reason,
        crc_detected: stats.counter("noc.crc_detected"),
        retransmissions: stats.counter("noc.retransmissions"),
        ack_timeouts: stats.counter("noc.ack_timeouts"),
        reroutes: stats.counter("noc.reroutes"),
        link_failures_detected: stats.counter("noc.link_failures_detected"),
        router_failures_detected: stats.counter("noc.router_failures_detected"),
        wire_corruptions: stats.counter("noc.wire_corruptions"),
        silent_drops: stats.counter("noc.silent_drops"),
        delivered_corrupt: stats.counter("noc.delivered_corrupt"),
        security_bypasses,
        ingress_rejected,
        egress_rejected: inits.iter().map(|i| i.rejected).sum(),
        unsolicited_responses: unsolicited,
        mismatched_responses: mismatched,
        unresolved,
        stuck_in_mesh,
        wedged,
        metrics_json: registry.render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secbus_fault::{FaultEvent, FaultKind, FaultRates, FaultSpec};

    /// The plain hot-spot workload: no faults and no drain window.
    fn workload(initiators: usize, period: u64, cycles: u64, protected: bool) -> NocSoakReport {
        let cfg = NocSoakConfig {
            initiators,
            period,
            cycles,
            drain_cycles: 0,
            protected,
        };
        run_noc_soak(&cfg, FaultPlan::empty())
    }

    #[test]
    fn workload_completes_roundtrips() {
        let r = workload(4, 16, 5_000, false);
        assert!(r.completed > 100, "completed {}", r.completed);
        assert_eq!(r.egress_rejected + r.ingress_rejected, 0);
        assert_eq!(r.unsolicited_responses, 0);
        assert!(r.mean_latency.unwrap() > 0.0);
    }

    #[test]
    fn protection_adds_latency_but_rejects_nothing() {
        let plain = workload(4, 16, 10_000, false);
        let protected = workload(4, 16, 10_000, true);
        assert_eq!(protected.egress_rejected, 0, "workload is in-policy");
        assert_eq!(protected.ingress_rejected, 0, "workload is in-policy");
        assert!(
            protected.mean_latency.unwrap() > plain.mean_latency.unwrap(),
            "APU check must cost cycles: {:?} vs {:?}",
            protected.mean_latency,
            plain.mean_latency
        );
        // The added cost is about one 12-cycle check per round trip.
        let delta = protected.mean_latency.unwrap() - plain.mean_latency.unwrap();
        assert!((delta - 12.0).abs() < 4.0, "delta {delta}");
    }

    #[test]
    fn hotspot_contention_grows_with_initiators() {
        let link_wait = |r: &NocSoakReport| {
            secbus_sim::Json::parse(&r.metrics_json)
                .unwrap()
                .get("noc")
                .and_then(|noc| noc.get("counters"))
                .and_then(|counters| counters.get("noc.link_wait_cycles"))
                .and_then(secbus_sim::Json::as_u64)
                .unwrap_or(0)
        };
        let small = workload(2, 4, 10_000, false);
        let big = workload(12, 4, 10_000, false);
        let (small_wait, big_wait) = (link_wait(&small), link_wait(&big));
        assert!(big_wait > small_wait, "{big_wait} vs {small_wait}");
        assert!(big.mean_latency.unwrap() > small.mean_latency.unwrap());
    }

    #[test]
    fn deterministic() {
        let a = workload(6, 8, 5_000, true);
        let b = workload(6, 8, 5_000, true);
        assert_eq!(a, b);
    }

    fn soak_spec(rate: f64) -> FaultSpec {
        FaultSpec {
            duration: 10_000,
            ddr_bytes: 0,
            firewalls: 0,
            slaves: 0,
            noc_nodes: 9,
            rates: FaultRates {
                link_bitflip: rate,
                ..FaultRates::NONE
            },
        }
    }

    #[test]
    fn clean_soak_matches_its_promises() {
        let r = run_noc_soak(&NocSoakConfig::default(), FaultPlan::empty());
        assert!(r.completed > 100);
        assert_eq!(r.alerts, 0);
        assert_eq!(r.delivered_corrupt, 0);
        assert_eq!(r.security_bypasses, 0);
        assert_eq!(r.unresolved, 0);
        assert!(!r.wedged);
    }

    #[test]
    fn protected_soak_survives_a_bitflip_storm_with_zero_bad_outcomes() {
        let plan = FaultPlan::generate(0xC0FFEE, &soak_spec(40.0));
        let r = run_noc_soak(&NocSoakConfig::default(), plan);
        assert!(r.faults_applied > 0);
        assert!(r.crc_detected > 0, "CRC must catch the flips");
        assert!(r.retransmissions > 0);
        assert_eq!(r.delivered_corrupt, 0, "no undetected corruption");
        assert_eq!(r.security_bypasses, 0, "no policy bypass");
        assert!(!r.wedged);
    }

    #[test]
    fn bare_soak_shows_the_damage_protection_prevents() {
        let plan = FaultPlan::generate(0xC0FFEE, &soak_spec(40.0));
        let cfg = NocSoakConfig {
            protected: false,
            ..NocSoakConfig::default()
        };
        let r = run_noc_soak(&cfg, plan);
        assert!(r.wire_corruptions > 0, "flips reach the wire unchecked");
        assert_eq!(r.crc_detected, 0);
        assert!(!r.wedged, "bare mode makes no promise to break");
    }

    #[test]
    fn protected_soak_reroutes_around_a_dropped_link() {
        let plan = FaultPlan::new(vec![FaultEvent {
            at: Cycle(500),
            kind: FaultKind::LinkDrop { node: 0, dir: 2 },
        }]);
        let r = run_noc_soak(&NocSoakConfig::default(), plan);
        assert!(r.link_failures_detected >= 1);
        assert!(r.reroutes >= 1);
        assert_eq!(r.unresolved, 0, "every packet delivered or alerted");
        assert!(!r.wedged);
    }

    #[test]
    fn bare_soak_wedges_on_a_stuck_router_and_says_so() {
        let plan = FaultPlan::new(vec![FaultEvent {
            at: Cycle(500),
            kind: FaultKind::RouterStuck { node: 1 },
        }]);
        let cfg = NocSoakConfig {
            initiators: 4,
            protected: false,
            ..NocSoakConfig::default()
        };
        let r = run_noc_soak(&cfg, plan);
        assert!(
            r.unresolved > 0 || r.stuck_in_mesh > 0,
            "bare mode strands traffic: {r:?}"
        );
        // The wedged *flag* is the protected-mode guarantee; bare mode
        // reports the stranding through unresolved/stuck instead.
        assert!(!r.wedged);
    }

    #[test]
    fn protected_soak_resolves_a_stuck_router_with_alerts() {
        let plan = FaultPlan::new(vec![FaultEvent {
            at: Cycle(500),
            kind: FaultKind::RouterStuck { node: 1 },
        }]);
        let r = run_noc_soak(&NocSoakConfig::default(), plan);
        assert!(r.router_failures_detected >= 1);
        assert_eq!(r.unresolved, 0);
        assert_eq!(r.stuck_in_mesh, 0);
        assert!(!r.wedged, "{r:?}");
        assert_eq!(r.delivered_corrupt, 0);
        assert_eq!(r.security_bypasses, 0);
    }

    #[test]
    fn soak_event_core_matches_stepped_core() {
        for seed in [1u64, 7, 0xC0FFEE] {
            let plan = FaultPlan::generate(seed, &soak_spec(25.0));
            let cfg = NocSoakConfig::default();
            let stepped = run_noc_soak_with_core(&cfg, plan.clone(), SimCore::Stepped);
            let event = run_noc_soak_with_core(&cfg, plan, SimCore::Event);
            assert_eq!(stepped, event, "seed {seed}");
        }
    }

    #[test]
    fn soak_event_core_matches_stepped_on_stuck_router() {
        // Dead-router detection deadlines are events, not polled state:
        // the fast-forward must not jump past the heartbeat timeout.
        let plan = FaultPlan::new(vec![FaultEvent {
            at: Cycle(500),
            kind: FaultKind::RouterStuck { node: 1 },
        }]);
        let cfg = NocSoakConfig::default();
        let stepped = run_noc_soak_with_core(&cfg, plan.clone(), SimCore::Stepped);
        let event = run_noc_soak_with_core(&cfg, plan, SimCore::Event);
        assert_eq!(stepped, event);
        assert!(event.router_failures_detected >= 1);
    }

    #[test]
    fn soak_event_core_matches_stepped_on_clean_idle_heavy_run() {
        // Low intensity + a long drain tail: most cycles are idle, so
        // this exercises the fast-forward path hardest.
        let cfg = NocSoakConfig {
            initiators: 2,
            period: 500,
            cycles: 20_000,
            drain_cycles: 20_000,
            ..NocSoakConfig::default()
        };
        let stepped = run_noc_soak_with_core(&cfg, FaultPlan::empty(), SimCore::Stepped);
        let event = run_noc_soak_with_core(&cfg, FaultPlan::empty(), SimCore::Event);
        assert_eq!(stepped, event);
        assert!(event.completed > 0);
    }

    #[test]
    fn workload_event_core_matches_stepped_core() {
        // The plain protected workload: no faults, and the window ends
        // the run with no drain phase.
        let cfg = NocSoakConfig {
            initiators: 4,
            period: 64,
            cycles: 8_000,
            drain_cycles: 0,
            protected: true,
        };
        let stepped = run_noc_soak_with_core(&cfg, FaultPlan::empty(), SimCore::Stepped);
        let event = run_noc_soak_with_core(&cfg, FaultPlan::empty(), SimCore::Event);
        assert_eq!(stepped, event);
        assert!(event.completed > 0);
    }

    #[test]
    fn soak_is_seed_deterministic() {
        let run = |seed| {
            run_noc_soak(
                &NocSoakConfig::default(),
                FaultPlan::generate(seed, &soak_spec(25.0)),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds must differ");
    }
}
