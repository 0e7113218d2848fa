//! Open-loop overload runner: offered load fixed by the seed, fabric
//! response measured against it.
//!
//! Unlike [`crate::system`]'s closed-loop harnesses (one outstanding
//! request per initiator, so offered load self-limits), this runner
//! replays a [`secbus_workload`] arrival schedule verbatim: arrivals do
//! not wait for the fabric. Sustained intensity above service capacity
//! therefore *must* be resolved by the fabric's own overload machinery —
//! source-side admission control ([`Mesh::try_inject`]) backed by
//! per-node buffer credits — and the runner audits the outcome with a
//! conservation law no implementation detail can hide behind:
//!
//! ```text
//! offered == delivered + alerted(shed + lost) [+ silent_drops, bare only]
//!            + still_in_flight
//! ```
//!
//! In protected mode `silent_drops` must be zero and `still_in_flight`
//! must reach zero within the drain window (delivery-or-alert, even
//! under overload). The bare mesh is run with the same schedule to show
//! what the credits buy: silent losses and unbounded residue.

use secbus_bus::{Op, Width};
use secbus_sim::{Cycle, SimCore};
use secbus_workload::{Pattern, Workload, WorkloadConfig};

use crate::network::{LossReason, Mesh, MeshQuiet, NocConfig, Packet};
use crate::topology::{NodeId, Topology};

/// Configuration for one open-loop overload run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// Mesh width.
    pub cols: u8,
    /// Mesh height.
    pub rows: u8,
    /// Arrival shape (every node is a source; destinations per the
    /// pattern).
    pub pattern: Pattern,
    /// Expected arrivals per node per active cycle.
    pub intensity: f64,
    /// Injection window length.
    pub cycles: u64,
    /// Grace period after the window for residue to deliver or alert.
    pub drain_cycles: u64,
    /// Fault-tolerant transport + credit alerts on/off.
    pub protected: bool,
    /// Buffer credits per router.
    pub node_capacity: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            cols: 4,
            rows: 4,
            pattern: Pattern::Poisson,
            intensity: 0.1,
            cycles: 5_000,
            drain_cycles: 2_000,
            protected: true,
            node_capacity: 8,
            seed: 1,
        }
    }
}

/// Result of one overload run. `PartialEq` so the serial-vs-parallel and
/// seed-determinism checks are one-line assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadReport {
    /// Mesh width and height.
    pub cols: u8,
    /// Mesh height.
    pub rows: u8,
    /// Whether the transport was protected.
    pub protected: bool,
    /// Arrivals the schedule offered.
    pub offered: u64,
    /// Packets delivered to their destination.
    pub delivered: u64,
    /// Arrivals refused at injection (admission control). Protected mode
    /// raises a CreditStall alert for each; the bare mesh drops them.
    pub shed_at_ingress: u64,
    /// Fail-secure transport alerts, total (includes the ingress sheds
    /// in protected mode).
    pub alerts: u64,
    /// Alerts by loss reason (mnemonic, count), report-column order.
    pub alerts_by_reason: Vec<(&'static str, u64)>,
    /// Ground truth: packets lost with no alert (bare mode only).
    pub silent_drops: u64,
    /// Cycles flights spent waiting for downstream buffer credits.
    pub credit_wait_cycles: u64,
    /// The largest [`Mesh::in_flight`] at the end of an executed cycle,
    /// after its tick and deliveries (bounded by `nodes × node_capacity`
    /// when credits work).
    ///
    /// It can read below the true peak: packets injected in a cycle,
    /// or resident at its start, that finish during its tick are never
    /// counted. On perfbench's `noc_mesh` run (8×8, seed 1) it reads 85,
    /// while counting right after each injection gives 89.
    pub max_in_flight: u64,
    /// Cycles after the injection window until the mesh emptied, or
    /// `None` if it never did.
    pub drain_cycles_used: Option<u64>,
    /// Packets still inside the mesh after the drain window.
    pub residue: u64,
    /// `offered == delivered + alerts + silent_drops + residue` — the
    /// books balance (no unaccounted packet, in either mode).
    pub conservation_ok: bool,
    /// Protected-mode promise broken: residue after drain, or any
    /// silent drop.
    pub wedged: bool,
    /// Rendered metrics snapshot (key-sorted JSON, byte-identical per
    /// seed).
    pub metrics_json: String,
}

/// Replay an open-loop schedule against the mesh and audit conservation.
/// The run-loop core comes from `SECBUS_SIM_CORE` (event-driven by
/// default); the two cores produce identical reports per seed.
pub fn run_overload(cfg: &OverloadConfig) -> OverloadReport {
    run_overload_with_core(cfg, SimCore::from_env())
}

/// [`run_overload`] with an explicit run-loop core (equivalence tests
/// and benches force both without touching the process environment).
pub fn run_overload_with_core(cfg: &OverloadConfig, core: SimCore) -> OverloadReport {
    let topology = Topology::new(cfg.cols, cfg.rows);
    let nodes = topology.len();
    // Node ids by schedule index (row-major, like the workload's).
    let node_ids: Vec<NodeId> = topology.nodes().collect();
    let noc_config = NocConfig {
        protected: cfg.protected,
        node_capacity: cfg.node_capacity,
        ..NocConfig::default()
    };
    let mut mesh = Mesh::new(topology, noc_config);
    let mut workload = Workload::new(WorkloadConfig {
        pattern: cfg.pattern,
        sources: nodes,
        dests: nodes,
        cols: usize::from(cfg.cols),
        intensity: cfg.intensity,
        cycles: cfg.cycles,
        seed: cfg.seed,
        ..WorkloadConfig::default()
    });

    // Event core: pre-materialize the open-loop schedule (it is a pure
    // function of the seed, so arrival cycles are known exactly and the
    // per-cycle RNG draws are consumed identically to the stepped walk).
    let schedule = match core {
        SimCore::Event => Some(workload.schedule()),
        SimCore::Stepped => None,
    };
    let mut next_arrival = 0usize;

    let mut offered = 0u64;
    let mut delivered = 0u64;
    let mut alerts = 0u64;
    let mut max_in_flight = 0u64;
    let mut drain_cycles_used = None;
    let mut arrivals = Vec::new();

    let total = cfg.cycles + cfg.drain_cycles;
    let mut c = 0u64;
    while c < total {
        let now = Cycle(c);
        arrivals.clear();
        match &schedule {
            Some(all) => {
                while next_arrival < all.len() && all[next_arrival].at == c {
                    arrivals.push(all[next_arrival]);
                    next_arrival += 1;
                }
            }
            None => workload.arrivals_at(c, &mut arrivals),
        }
        for a in &arrivals {
            offered += 1;
            let id = mesh.alloc_id();
            mesh.try_inject(
                Packet {
                    id,
                    src: node_ids[a.source],
                    dst: node_ids[a.dest],
                    op: if a.write { Op::Write } else { Op::Read },
                    addr: a.addr,
                    width: Width::Word,
                    data: a.addr ^ (id.0 as u32),
                    flits: 2,
                    injected_at: now,
                },
                now,
            );
        }
        mesh.tick(now);
        while mesh.deliver_next().is_some() {
            delivered += 1;
        }
        while mesh.take_alert().is_some() {
            alerts += 1;
        }
        max_in_flight = max_in_flight.max(mesh.in_flight() as u64);
        if c >= cfg.cycles && drain_cycles_used.is_none() && mesh.in_flight() == 0 {
            drain_cycles_used = Some(c - cfg.cycles);
        }
        c += 1;
        // Fast-forward over provably idle cycles: no arrival due, the
        // mesh quiet, nothing queued for delivery or alert, and no
        // pending drain-boundary bookkeeping. Skipped cycles are exact
        // no-ops in the stepped walk (max_in_flight and the drain check
        // cannot change while the mesh is quiet).
        if let Some(all) = &schedule {
            if c >= total || mesh.has_pending_deliveries() || mesh.has_pending_alerts() {
                continue;
            }
            let mut target = total;
            if next_arrival < all.len() {
                target = target.min(all[next_arrival].at);
            }
            if drain_cycles_used.is_none() && c < cfg.cycles {
                // The drain check fires at the first post-window cycle.
                target = target.min(cfg.cycles);
            }
            match mesh.next_event(Cycle(c)) {
                MeshQuiet::Active => continue,
                MeshQuiet::Until(at) => target = target.min(at.get()),
                MeshQuiet::Idle => {}
            }
            c = c.max(target.min(total));
        }
    }

    let stats = mesh.stats();
    let silent_drops = stats.counter("noc.silent_drops");
    let residue = mesh.in_flight() as u64;
    let conservation_ok = offered == delivered + alerts + silent_drops + residue;
    let wedged = cfg.protected && (residue > 0 || silent_drops > 0);
    let alerts_by_reason = LossReason::ALL
        .iter()
        .map(|r| (r.mnemonic(), stats.counter(r.stat_key())))
        .collect();
    let mut registry = secbus_sim::MetricsRegistry::new();
    registry.insert("noc", stats);

    OverloadReport {
        cols: cfg.cols,
        rows: cfg.rows,
        protected: cfg.protected,
        offered,
        delivered,
        shed_at_ingress: stats.counter("noc.ingress_refused"),
        alerts,
        alerts_by_reason,
        silent_drops,
        credit_wait_cycles: stats.counter("noc.credit_wait_cycles"),
        max_in_flight,
        drain_cycles_used,
        residue,
        conservation_ok,
        wedged,
        metrics_json: registry.render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_load_delivers_everything() {
        let r = run_overload(&OverloadConfig {
            intensity: 0.02,
            ..OverloadConfig::default()
        });
        assert!(r.offered > 0);
        assert_eq!(r.delivered, r.offered, "{r:?}");
        assert_eq!(r.shed_at_ingress, 0);
        assert!(r.conservation_ok);
        assert!(!r.wedged);
        assert_eq!(r.residue, 0);
    }

    #[test]
    fn saturation_sheds_with_alerts_and_never_wedges() {
        let r = run_overload(&OverloadConfig {
            pattern: Pattern::Hotspot {
                hot: 15,
                fraction: 0.9,
            },
            intensity: 0.8,
            node_capacity: 4,
            ..OverloadConfig::default()
        });
        assert!(r.shed_at_ingress > 0, "saturation must shed: {r:?}");
        assert!(r.conservation_ok, "books must balance: {r:?}");
        assert_eq!(r.silent_drops, 0, "protected mode never loses silently");
        assert!(!r.wedged, "{r:?}");
        assert!(
            r.max_in_flight <= 16 * 4,
            "credits bound mesh memory: {}",
            r.max_in_flight
        );
    }

    #[test]
    fn bare_mesh_sheds_silently_under_the_same_load() {
        let cfg = OverloadConfig {
            pattern: Pattern::Hotspot {
                hot: 15,
                fraction: 0.9,
            },
            intensity: 0.8,
            node_capacity: 4,
            protected: false,
            ..OverloadConfig::default()
        };
        let r = run_overload(&cfg);
        assert!(r.silent_drops > 0, "bare mode loses without a word: {r:?}");
        assert!(r.conservation_ok, "ground truth still balances: {r:?}");
        assert!(!r.wedged, "bare mode makes no promise to break");
    }

    #[test]
    fn shed_rate_is_monotone_in_offered_load() {
        let shed_fraction = |intensity: f64| {
            let r = run_overload(&OverloadConfig {
                pattern: Pattern::Hotspot {
                    hot: 15,
                    fraction: 0.9,
                },
                intensity,
                node_capacity: 4,
                cycles: 3_000,
                ..OverloadConfig::default()
            });
            assert!(r.conservation_ok && !r.wedged, "{r:?}");
            r.shed_at_ingress as f64 / r.offered.max(1) as f64
        };
        let light = shed_fraction(0.05);
        let medium = shed_fraction(0.4);
        let heavy = shed_fraction(0.9);
        assert!(
            light <= medium && medium <= heavy,
            "{light} {medium} {heavy}"
        );
    }

    #[test]
    fn event_core_matches_stepped_core() {
        // Light load (idle-heavy, many skips), saturation (no skips
        // inside the window) and bare mode must all produce identical
        // reports under both cores, across seeds.
        let configs = [
            OverloadConfig {
                intensity: 0.02,
                ..OverloadConfig::default()
            },
            OverloadConfig {
                pattern: Pattern::Hotspot {
                    hot: 15,
                    fraction: 0.9,
                },
                intensity: 0.8,
                node_capacity: 4,
                cycles: 2_000,
                ..OverloadConfig::default()
            },
            OverloadConfig {
                intensity: 0.3,
                protected: false,
                cycles: 2_000,
                ..OverloadConfig::default()
            },
        ];
        for cfg in configs {
            for seed in [1u64, 9, 42] {
                let cfg = OverloadConfig { seed, ..cfg };
                let stepped = run_overload_with_core(&cfg, SimCore::Stepped);
                let event = run_overload_with_core(&cfg, SimCore::Event);
                assert_eq!(stepped, event, "seed {seed} cfg {cfg:?}");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = OverloadConfig {
            intensity: 0.5,
            node_capacity: 4,
            cycles: 2_000,
            ..OverloadConfig::default()
        };
        assert_eq!(run_overload(&cfg), run_overload(&cfg));
        let other = run_overload(&OverloadConfig { seed: 2, ..cfg });
        assert_ne!(run_overload(&cfg), other, "different seeds must differ");
    }
}
