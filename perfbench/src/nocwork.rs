//! `noc_mesh`: `run_overload` on a protected 8x8 mesh, and a replica of
//! its loop that times every call into the mesh from outside.

use std::time::Instant;

use secbus_bus::{Op, Width};
use secbus_noc::{
    LossReason, Mesh, MeshQuiet, NocConfig, NodeId, OverloadConfig, OverloadReport, Packet,
    Topology,
};
use secbus_sim::{Cycle, MetricsRegistry};
use secbus_workload::{Arrival, Pattern, Workload, WorkloadConfig};

use crate::probe::{nanos, Spans};

const SIDE: u8 = 8;
/// Cycles of arrivals in one repetition, then a drain. A repetition
/// takes about 80 ms: `run_overload` is one call, so its rate is the
/// fastest repetition's, and on a shared host a quiet 80 ms comes far
/// more often than a quiet 250 ms.
const CYCLES: u64 = 50_000;
const DRAIN: u64 = 2_000;
/// Uniform Poisson arrivals per node per cycle: links contend, nothing
/// is refused.
const INTENSITY: f64 = 0.03;
/// Router credits. At 8 a rare arrival burst fills a source router and
/// one packet in ~10^5 is refused; 16 keeps every seed refusal-free.
const NODE_CAPACITY: usize = 16;
/// Prefix both run-loop cores simulate for the event-vs-stepped oracle.
const PREFIX: u64 = 20_000;

// The struct update keeps this building when the config gains fields
// (ROADMAP item 3 plans to fold the run-loop core into it).
#[allow(clippy::needless_update)]
pub fn config(seed: u64) -> OverloadConfig {
    OverloadConfig {
        cols: SIDE,
        rows: SIDE,
        pattern: Pattern::Poisson,
        intensity: INTENSITY,
        cycles: CYCLES,
        drain_cycles: DRAIN,
        protected: true,
        node_capacity: NODE_CAPACITY,
        seed,
        ..OverloadConfig::default()
    }
}

pub fn prefix_config(seed: u64) -> OverloadConfig {
    OverloadConfig {
        cycles: PREFIX,
        ..config(seed)
    }
}

fn workload_config(cfg: &OverloadConfig) -> WorkloadConfig {
    let nodes = usize::from(cfg.cols) * usize::from(cfg.rows);
    WorkloadConfig {
        pattern: cfg.pattern,
        sources: nodes,
        dests: nodes,
        cols: usize::from(cfg.cols),
        intensity: cfg.intensity,
        cycles: cfg.cycles,
        seed: cfg.seed,
        ..WorkloadConfig::default()
    }
}

fn mesh(cfg: &OverloadConfig) -> Mesh {
    Mesh::new(
        Topology::new(cfg.cols, cfg.rows),
        NocConfig {
            protected: cfg.protected,
            node_capacity: cfg.node_capacity,
            ..NocConfig::default()
        },
    )
}

/// The system `run_overload` builds: the mesh and the whole arrival
/// schedule.
pub fn setup(cfg: &OverloadConfig) -> (Mesh, Vec<Arrival>) {
    (mesh(cfg), Workload::new(workload_config(cfg)).schedule())
}

/// Cycles one repetition simulates.
pub fn total_cycles(cfg: &OverloadConfig) -> u64 {
    cfg.cycles + cfg.drain_cycles
}

fn node(i: usize, cols: u8) -> NodeId {
    NodeId::new((i % usize::from(cols)) as u8, (i / usize::from(cols)) as u8)
}

/// Raw host time per call into the mesh, from the traced replica. The
/// span record after each of the `calls` timed calls, up to one more
/// clock read, is kept in `wrap_ns`.
#[derive(Debug, Default, Clone, Copy)]
pub struct NocHost {
    pub build_ns: u64,
    pub schedule_ns: u64,
    pub tick_ns: u64,
    pub ticks: u64,
    pub inject_ns: u64,
    pub injects: u64,
    pub deliver_ns: u64,
    /// `take_alert`, `in_flight`, `has_pending_*` and `next_event`: the
    /// loop's per-cycle checks for alerts, the drain and cycles it may
    /// skip.
    pub quiet_ns: u64,
    pub wrap_ns: u64,
    pub calls: u64,
}

impl NocHost {
    pub fn add(&mut self, o: &NocHost) {
        self.build_ns += o.build_ns;
        self.schedule_ns += o.schedule_ns;
        self.tick_ns += o.tick_ns;
        self.ticks += o.ticks;
        self.inject_ns += o.inject_ns;
        self.injects += o.injects;
        self.deliver_ns += o.deliver_ns;
        self.quiet_ns += o.quiet_ns;
        self.wrap_ns += o.wrap_ns;
        self.calls += o.calls;
    }
}

/// What one replica run produced besides the report.
pub struct Replica {
    pub report: OverloadReport,
    /// Injection-to-delivery cycles of every delivered packet.
    pub latencies: Vec<u64>,
    /// Cycles the loop actually ticked.
    pub ticks: u64,
    pub host: NocHost,
}

/// Times one call when tracing, and records it as a span.
struct Clock<'a> {
    spans: Option<&'a mut Spans>,
    wrap_ns: u64,
    calls: u64,
}

impl Clock<'_> {
    fn start(&self) -> Option<Instant> {
        self.spans.is_some().then(Instant::now)
    }

    fn stop(&mut self, start: Option<Instant>, name: &'static str, id: u64, acc: &mut u64) {
        if let (Some(start), Some(spans)) = (start, self.spans.as_deref_mut()) {
            let end = Instant::now();
            *acc += nanos(start, end);
            spans.leaf(name, start, end, id);
            self.calls += 1;
            self.wrap_ns += nanos(end, Instant::now());
        }
    }
}

/// `run_overload`'s event-core loop, driven from outside through
/// `Mesh::try_inject`, `tick`, `deliver` and `take_alert`, with the
/// pre-built schedule and the same fast-forward over idle cycles. It
/// records every packet's latency; with `spans`, every call is timed.
pub fn replica(cfg: &OverloadConfig, spans: Option<&mut Spans>) -> Replica {
    let mut clock = Clock {
        spans,
        wrap_ns: 0,
        calls: 0,
    };
    let mut host = NocHost::default();
    // Node ids by index, so the loop's own glue stays small next to the
    // calls it times.
    let nodes: Vec<NodeId> = (0..usize::from(cfg.cols) * usize::from(cfg.rows))
        .map(|i| node(i, cfg.cols))
        .collect();
    let t = clock.start();
    let mut mesh = mesh(cfg);
    clock.stop(t, "noc.build", 0, &mut host.build_ns);
    let t = clock.start();
    let all = Workload::new(workload_config(cfg)).schedule();
    clock.stop(t, "workload.schedule", 0, &mut host.schedule_ns);

    let mut next_arrival = 0usize;
    let (mut offered, mut delivered, mut alerts, mut max_in_flight) = (0u64, 0u64, 0u64, 0u64);
    let mut drain_cycles_used = None;
    let mut latencies = Vec::new();
    let mut ticks = 0u64;
    let total = cfg.cycles + cfg.drain_cycles;
    let mut c = 0u64;
    while c < total {
        let now = Cycle(c);
        while next_arrival < all.len() && all[next_arrival].at == c {
            let a = all[next_arrival];
            next_arrival += 1;
            offered += 1;
            let id = mesh.alloc_id();
            let packet = Packet {
                id,
                src: nodes[a.source],
                dst: nodes[a.dest],
                op: if a.write { Op::Write } else { Op::Read },
                addr: a.addr,
                width: Width::Word,
                data: a.addr ^ (id.0 as u32),
                flits: 2,
                injected_at: now,
            };
            let t = clock.start();
            mesh.try_inject(packet, now);
            clock.stop(t, "noc.inject", id.0, &mut host.inject_ns);
            host.injects += 1;
        }
        let t = clock.start();
        mesh.tick(now);
        clock.stop(t, "noc.tick", c, &mut host.tick_ns);
        ticks += 1;
        let t = clock.start();
        for &n in &nodes {
            while let Some(p) = mesh.deliver(n) {
                delivered += 1;
                latencies.push(c - p.injected_at.get());
            }
        }
        clock.stop(t, "noc.deliver", c, &mut host.deliver_ns);
        let t = clock.start();
        while mesh.take_alert().is_some() {
            alerts += 1;
        }
        max_in_flight = max_in_flight.max(mesh.in_flight() as u64);
        if c >= cfg.cycles && drain_cycles_used.is_none() && mesh.in_flight() == 0 {
            drain_cycles_used = Some(c - cfg.cycles);
        }
        c += 1;
        if c < total && !mesh.has_pending_deliveries() && !mesh.has_pending_alerts() {
            let mut target = total;
            if next_arrival < all.len() {
                target = target.min(all[next_arrival].at);
            }
            if drain_cycles_used.is_none() && c < cfg.cycles {
                target = target.min(cfg.cycles);
            }
            match mesh.next_event(Cycle(c)) {
                MeshQuiet::Active => target = c,
                MeshQuiet::Until(at) => target = target.min(at.get()),
                MeshQuiet::Idle => {}
            }
            c = c.max(target.min(total));
        }
        clock.stop(t, "noc.quiet", c, &mut host.quiet_ns);
    }
    host.ticks = ticks;
    host.wrap_ns = clock.wrap_ns;
    host.calls = clock.calls;

    let stats = mesh.stats();
    let silent_drops = stats.counter("noc.silent_drops");
    let residue = mesh.in_flight() as u64;
    let mut registry = MetricsRegistry::new();
    registry.insert("noc", stats);
    let report = OverloadReport {
        cols: cfg.cols,
        rows: cfg.rows,
        protected: cfg.protected,
        offered,
        delivered,
        shed_at_ingress: stats.counter("noc.ingress_refused"),
        alerts,
        alerts_by_reason: LossReason::ALL
            .iter()
            .map(|r| (r.mnemonic(), stats.counter(r.stat_key())))
            .collect(),
        silent_drops,
        credit_wait_cycles: stats.counter("noc.credit_wait_cycles"),
        max_in_flight,
        drain_cycles_used,
        residue,
        conservation_ok: offered == delivered + alerts + silent_drops + residue,
        wedged: cfg.protected && (residue > 0 || silent_drops > 0),
        metrics_json: registry.render(),
    };
    Replica {
        report,
        latencies,
        ticks,
        host,
    }
}

/// A counter from a report's metrics snapshot.
pub fn counter(report: &OverloadReport, key: &str) -> u64 {
    secbus_sim::Json::parse(&report.metrics_json)
        .ok()
        .and_then(|j| j.get("noc")?.get("counters")?.get(key)?.as_u64())
        .unwrap_or(0)
}
