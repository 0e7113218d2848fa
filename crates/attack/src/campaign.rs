//! Multi-stage adversarial campaigns with DIFT kill-chain accounting.
//!
//! A *campaign* is a seed-deterministic, staged composition of the attack
//! primitives in this crate (hijacked IPs, the physical DDR adversary)
//! with `secbus-fault` fault schedules: stage N+1 only fires if stage N
//! established its foothold, and every run produces a cycle-stamped
//! kill chain (`foothold → pivot → detection → reaction`) both in the
//! [`CampaignOutcome`] and — when the SoC tracer is armed — as
//! `CampaignPhase` trace events for the observability spine.
//!
//! The campaigns are the DIFT showcase: each one moves data from an
//! unprotected (or cipher-only) region toward a protected sink through a
//! path the *address* rules cannot object to, so in protected mode the
//! taint layer is what converts a clean-looking transfer into a typed
//! `TaintedSink` alert. Bare mode runs the same campaign with no
//! firewalls, no LCF and no taint engine — the damage contrast.
//!
//! Correlation: a kill-chain record is identified by
//! `(campaign kind, seed, stage label)`; the same triple appears in the
//! trace (`CampaignPhase { campaign, stage, .. }`), so a JSON report row
//! and a trace lane entry can be joined without heuristics.

use secbus_bus::{AddrRange, Op, Width};
use secbus_core::{AdfSet, ConfigMemory, PolicyUpdate, Rwa, SecurityPolicy, Violation};
use secbus_cpu::BusMaster;
use secbus_fault::{FaultPlan, FaultRates, FaultSpec, StagedPlan};
use secbus_mem::{Bram, ExternalDdr};
use secbus_sim::{Cycle, SimRng, TraceEvent};
use secbus_soc::casestudy::{
    lcf_policies, DDR_BASE, DDR_LEN, DDR_PRIVATE_BASE, DDR_PRIVATE_LEN, DDR_PUBLIC_BASE,
    SHARED_BRAM_BASE,
};
use secbus_soc::{Soc, SocBuilder};

use crate::hijack::{AttackOp, HijackedMaster};
use crate::tamper::Adversary;

/// The campaign matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CampaignKind {
    /// Compromised-IP pivot: an IP with legitimate private-region access
    /// reads the unprotected region (foothold), then forwards what it
    /// read into the private region (pivot) — plus one classic
    /// out-of-policy probe for contrast.
    IpPivot,
    /// DMA-style master impersonation: a mover with window policies broad
    /// enough that *no* address rule ever fires, shuttling unprotected
    /// data into the private region while stall/grant faults hammer the
    /// slaves (watchdog + orphan-completion territory).
    Impersonation,
    /// Policy-epoch race: a tainted master tries to drive the
    /// ReconfigController's prepare/commit while a legitimate
    /// reconfiguration is in flight.
    EpochRace,
    /// Coordinated NoC/bus + external-DDR tampering: a staged fault plan
    /// softens the platform, then the physical adversary rewrites
    /// private ciphertext under cover of the noise.
    CoordinatedTamper,
}

impl CampaignKind {
    /// Every campaign, in report order.
    pub const ALL: [CampaignKind; 4] = [
        CampaignKind::IpPivot,
        CampaignKind::Impersonation,
        CampaignKind::EpochRace,
        CampaignKind::CoordinatedTamper,
    ];

    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            CampaignKind::IpPivot => "ip_pivot",
            CampaignKind::Impersonation => "impersonation",
            CampaignKind::EpochRace => "epoch_race",
            CampaignKind::CoordinatedTamper => "coordinated_tamper",
        }
    }

    /// Stable numeric id — the `campaign` field of `CampaignPhase` trace
    /// events, and half of the kill-chain correlation key.
    pub fn id(self) -> u8 {
        match self {
            CampaignKind::IpPivot => 0,
            CampaignKind::Impersonation => 1,
            CampaignKind::EpochRace => 2,
            CampaignKind::CoordinatedTamper => 3,
        }
    }
}

/// One campaign run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Which campaign.
    pub kind: CampaignKind,
    /// Seed for every random stream in the run.
    pub seed: u64,
    /// Protected (firewalls + LCF + DIFT) vs bare (nothing).
    pub protected: bool,
}

/// One stage's after-action report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageReport {
    /// Stage label (stable across runs — part of the correlation key).
    pub label: &'static str,
    /// Whether the stage ran at all (a failed foothold aborts the rest).
    pub fired: bool,
    /// Whether the stage achieved its goal.
    pub foothold: bool,
}

/// One cycle-stamped kill-chain entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillChainEvent {
    /// When.
    pub cycle: u64,
    /// Which stage of the campaign.
    pub stage: &'static str,
    /// `"foothold"`, `"pivot"`, `"detection"` or `"reaction"`.
    pub phase: &'static str,
}

/// What a campaign run produced.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Which campaign.
    pub kind: CampaignKind,
    /// The seed it ran under.
    pub seed: u64,
    /// Protected or bare.
    pub protected: bool,
    /// Per-stage reports, in order.
    pub stages: Vec<StageReport>,
    /// A failed foothold abandoned the later stages.
    pub aborted: bool,
    /// Any alert fired for the campaign's attack traffic.
    pub detected: bool,
    /// Cycle of the first campaign-relevant alert.
    pub detection_cycle: Option<u64>,
    /// How the platform reacted: `"deny"`, `"quarantine"`,
    /// `"epoch_refused"` or `"none"`.
    pub reaction: &'static str,
    /// Total monitor alerts over the run.
    pub alerts: u64,
    /// Attack effects that landed with no alert — the S-18 gate requires
    /// 0 in protected mode.
    pub policy_bypasses: u64,
    /// Tainted-sink reaches blocked with a `TaintedSink` alert
    /// (interface writes + refused config commits).
    pub sinks_blocked: u64,
    /// Tainted-sink reaches that went unalerted — the second S-18 gate;
    /// must be 0 in protected mode.
    pub sinks_unalerted: u64,
    /// Faults the staged plans actually injected.
    pub faults_injected: u64,
    /// Late completions dropped fail-secure at the bus.
    pub orphan_completions: u64,
    /// Attacker-controlled words at rest in (or delivered from) the
    /// private region — the bare-mode damage contrast.
    pub damage_words: u64,
    /// The cycle-stamped kill chain.
    pub kill_chain: Vec<KillChainEvent>,
}

/// Campaign marker word: attacker-chosen payload, recognisable at rest.
fn marker(kind: CampaignKind) -> u32 {
    0xBADC_0DE0 | u32::from(kind.id())
}

/// Record a kill-chain phase both locally and on the SoC tracer.
fn mark(
    chain: &mut Vec<KillChainEvent>,
    soc: &Soc,
    kind: CampaignKind,
    stage_idx: u8,
    stage: &'static str,
    phase: &'static str,
    at: Cycle,
) {
    if let Some(t) = soc.tracer() {
        t.record(
            at,
            TraceEvent::CampaignPhase {
                campaign: kind.id(),
                stage: stage_idx,
                phase,
            },
        );
    }
    chain.push(KillChainEvent {
        cycle: at.0,
        stage,
        phase,
    });
}

/// Count attacker marker words at rest in the private DDR region.
fn marker_words_in_private(soc: &Soc, kind: CampaignKind) -> u64 {
    let Some(ddr) = soc.ddr() else { return 0 };
    let m = marker(kind).to_le_bytes();
    ddr.snoop(DDR_PRIVATE_BASE - DDR_BASE, DDR_PRIVATE_LEN)
        .chunks_exact(4)
        .filter(|w| *w == m)
        .count() as u64
}

/// Campaign writes that made it onto the shared bus (protected mode must
/// keep this at zero — violating writes die at the interface). Every
/// grant the bounded bus trace evicted counts as a possible leak, so a
/// truncated trace fails the 0-bypass gate instead of passing on the
/// grants it kept.
fn leaked_writes(soc: &Soc, addrs: &[u32]) -> u64 {
    let trace = soc.bus().trace();
    let unseen = if addrs.is_empty() { 0 } else { trace.dropped() };
    unseen
        + trace
            .iter()
            .filter(|(_, t)| t.op == Op::Write && addrs.contains(&t.addr))
            .count() as u64
}

/// First alert matching `pred` at or after `from`, by cycle — fault
/// noise raised before the attack pivot is not a campaign detection.
/// `None` once the monitor's bounded log has evicted alerts: the first
/// match may be among them, so an overflowed log reads as no detection
/// and fails the soak's gate instead of reporting a later cycle.
fn first_alert_where(soc: &Soc, from: Cycle, pred: impl Fn(&Violation) -> bool) -> Option<Cycle> {
    let log = soc.monitor().log();
    if log.dropped() > 0 {
        return None;
    }
    log.iter()
        .find(|(c, a)| *c >= from && pred(&a.violation))
        .map(|(c, _)| *c)
}

fn taint_counters(soc: &Soc) -> (u64, u64) {
    let blocked = soc.stats().counter("soc.taint.sink_blocked")
        + soc.stats().counter("soc.taint.config_sink_refusals");
    let unalerted = soc.stats().counter("soc.taint.unalerted_sinks");
    (blocked, unalerted)
}

fn reaction_name(soc: &Soc, epoch_refused: bool) -> &'static str {
    if epoch_refused {
        "epoch_refused"
    } else if soc.monitor().stats().counter("monitor.blocks") > 0 {
        "quarantine"
    } else if soc.monitor().alert_count() > 0 {
        "deny"
    } else {
        "none"
    }
}

/// Benign-window + campaign-window policies for a protected master.
fn window_policies(windows: &[(u32, u32, Rwa)]) -> ConfigMemory {
    let policies = windows
        .iter()
        .enumerate()
        .map(|(i, &(base, len, rwa))| {
            SecurityPolicy::internal(i as u16 + 1, AddrRange::new(base, len), rwa, AdfSet::ALL)
        })
        .collect();
    ConfigMemory::with_policies(policies).unwrap()
}

/// The shared campaign platform: the given master, a BRAM, the case-study
/// DDR. Protected arms firewalls, the LCF and the taint engine; bare
/// attaches everything naked.
fn campaign_soc(
    master: Box<dyn secbus_cpu::BusMaster>,
    policies: ConfigMemory,
    protected: bool,
    watchdog: Option<u64>,
) -> Soc {
    let mut b = SocBuilder::new().trace(8192).quarantine(2_000);
    if protected {
        b = b.taint_tracking();
        b = b.add_protected_master(master, policies);
    } else {
        b = b.add_master(master);
    }
    if let Some(w) = watchdog {
        b = b.watchdog(w);
    }
    b.add_bram(
        "bram",
        AddrRange::new(SHARED_BRAM_BASE, 0x1_0000),
        Bram::new(0x1_0000),
        None,
    )
    .set_ddr(
        "ddr",
        AddrRange::new(DDR_BASE, DDR_LEN),
        ExternalDdr::new(DDR_LEN),
        protected.then(lcf_policies),
    )
    .build()
}

/// Compromised-IP pivot: read public (foothold), forward into private
/// (pivot — address-legal, DIFT-illegal), probe out-of-policy (noise).
fn run_ip_pivot(seed: u64, protected: bool) -> CampaignOutcome {
    let kind = CampaignKind::IpPivot;
    let read_addr = DDR_PUBLIC_BASE + 0x40;
    let pivot_addr = DDR_PRIVATE_BASE + 0x80;
    let probe_addr = SHARED_BRAM_BASE + 0x8000;
    let script = vec![
        AttackOp {
            op: Op::Read,
            addr: read_addr,
            width: Width::Word,
            data: 0,
        },
        AttackOp {
            op: Op::Write,
            addr: pivot_addr,
            width: Width::Word,
            data: marker(kind),
        },
        AttackOp {
            op: Op::Write,
            addr: probe_addr,
            width: Width::Word,
            data: marker(kind),
        },
    ];
    // The 450-cycle pacing keeps the script ops inside their kill-chain
    // segments: the read completes in the foothold window, the forward
    // and the probe fire after the pivot mark.
    let mal = HijackedMaster::new("pivot-ip", SHARED_BRAM_BASE, 450, 1_200, script);
    // The pivot IP legitimately owns a private window — that is the point:
    // address rules alone cannot fault the forward.
    let policies = window_policies(&[
        (SHARED_BRAM_BASE, 0x100, Rwa::ReadWrite),
        (DDR_PUBLIC_BASE, 0x1000, Rwa::ReadOnly),
        (DDR_PRIVATE_BASE, 0x1000, Rwa::ReadWrite),
    ]);
    let mut soc = campaign_soc(Box::new(mal), policies, protected, None);
    let mut chain = Vec::new();

    soc.run(1_200); // benign phase
    mark(
        &mut chain,
        &soc,
        kind,
        0,
        "public-read",
        "foothold",
        soc.now(),
    );
    soc.run(400); // the public read completes; the master is now tainted
    let foothold = if protected {
        soc.taint().is_some_and(|t| t.master_tag(0).is_tainted())
    } else {
        soc.master_as::<HijackedMaster>(0)
            .map(|m| m.stats().counter("hijack.attacks_issued") > 0)
            .unwrap_or(false)
    };
    let mut stages = vec![StageReport {
        label: "public-read",
        fired: true,
        foothold,
    }];
    if !foothold {
        let at = soc.now();
        return finish_outcome(kind, seed, protected, soc, stages, true, chain, at, &[]);
    }

    let pivot_at = soc.now();
    mark(
        &mut chain,
        &soc,
        kind,
        1,
        "private-forward",
        "pivot",
        pivot_at,
    );
    soc.run(1_600); // pivot write + probe write run (or die at the interface)
    let pivoted = soc
        .master_as::<HijackedMaster>(0)
        .map(|m| m.first_attack_issue().is_some())
        .unwrap_or(false);
    stages.push(StageReport {
        label: "private-forward",
        fired: true,
        foothold: pivoted,
    });
    finish_outcome(
        kind,
        seed,
        protected,
        soc,
        stages,
        false,
        chain,
        pivot_at,
        &[pivot_addr, probe_addr],
    )
}

/// DMA-style impersonation: window policies so broad no address rule
/// fires; only the taint layer separates the mover from the attack. A
/// stall/grant fault schedule runs underneath to drag the watchdog and
/// the orphan-completion path into the campaign.
fn run_impersonation(seed: u64, protected: bool) -> CampaignOutcome {
    let kind = CampaignKind::Impersonation;
    let read_addr = DDR_PUBLIC_BASE + 0x200;
    let pivot_addr = DDR_PRIVATE_BASE + 0x100;
    let script = vec![
        AttackOp {
            op: Op::Read,
            addr: read_addr,
            width: Width::Word,
            data: 0,
        },
        AttackOp {
            op: Op::Write,
            addr: pivot_addr,
            width: Width::Word,
            data: marker(kind),
        },
    ];
    // 450-cycle pacing: even with stall faults the watchdog bounds every
    // response to 192 cycles, so the private move always lands after the
    // pivot mark and before the strike window closes.
    let dma = HijackedMaster::new("dma", SHARED_BRAM_BASE, 450, 1_200, script);
    // An all-DDR read-write window: every campaign access is address-legal.
    let policies = window_policies(&[
        (SHARED_BRAM_BASE, 0x100, Rwa::ReadWrite),
        (DDR_BASE, DDR_LEN, Rwa::ReadWrite),
    ]);
    let mut soc = campaign_soc(Box::new(dma), policies, protected, Some(192));
    let stalls = FaultPlan::generate(
        SimRng::new(seed).derive("impersonation").next_u64(),
        &FaultSpec {
            duration: 4_000,
            ddr_bytes: DDR_LEN,
            firewalls: 1,
            slaves: 2,
            noc_nodes: 0,
            rates: FaultRates {
                slave_stall: 3.0,
                bus_lost_grant: 1.0,
                ..FaultRates::NONE
            },
        },
    );
    soc.attach_fault_plan(stalls);
    let mut chain = Vec::new();

    soc.run(1_200);
    mark(
        &mut chain,
        &soc,
        kind,
        0,
        "public-read",
        "foothold",
        soc.now(),
    );
    soc.run(600);
    // Conservative tainting tags the master at *issue* time, so even a
    // stall-cancelled read leaves the mover tainted.
    let foothold = if protected {
        soc.taint().is_some_and(|t| t.master_tag(0).is_tainted())
    } else {
        soc.master_as::<HijackedMaster>(0)
            .map(|m| m.stats().counter("hijack.attacks_issued") > 0)
            .unwrap_or(false)
    };
    let mut stages = vec![StageReport {
        label: "public-read",
        fired: true,
        foothold,
    }];
    if !foothold {
        let at = soc.now();
        return finish_outcome(kind, seed, protected, soc, stages, true, chain, at, &[]);
    }

    let pivot_at = soc.now();
    mark(&mut chain, &soc, kind, 1, "private-move", "pivot", pivot_at);
    soc.run(2_400);
    stages.push(StageReport {
        label: "private-move",
        fired: true,
        foothold: true,
    });
    finish_outcome(
        kind,
        seed,
        protected,
        soc,
        stages,
        false,
        chain,
        pivot_at,
        &[pivot_addr],
    )
}

/// Policy-epoch race: a legitimate reconfiguration is staged, and a
/// tainted master tries to commit its own epoch through the
/// ReconfigController — protected mode refuses the whole epoch with
/// `EpochError::TaintedInitiator` before validation even starts.
fn run_epoch_race(seed: u64, protected: bool) -> CampaignOutcome {
    let kind = CampaignKind::EpochRace;
    let script = vec![AttackOp {
        op: Op::Read,
        addr: DDR_PUBLIC_BASE + 0x80,
        width: Width::Word,
        data: 0,
    }];
    let racer = HijackedMaster::new("racer", SHARED_BRAM_BASE, 8, 1_000, script);
    let policies = window_policies(&[
        (SHARED_BRAM_BASE, 0x100, Rwa::ReadWrite),
        (DDR_PUBLIC_BASE, 0x1000, Rwa::ReadOnly),
    ]);
    let mut soc = campaign_soc(Box::new(racer), policies, protected, None);
    let mut chain = Vec::new();

    soc.run(1_000);
    mark(
        &mut chain,
        &soc,
        kind,
        0,
        "public-read",
        "foothold",
        soc.now(),
    );
    soc.run(600);
    let foothold = if protected {
        soc.taint().is_some_and(|t| t.master_tag(0).is_tainted())
    } else {
        soc.master_as::<HijackedMaster>(0)
            .map(|m| m.stats().counter("hijack.attacks_issued") > 0)
            .unwrap_or(false)
    };
    let mut stages = vec![StageReport {
        label: "public-read",
        fired: true,
        foothold,
    }];
    if !foothold {
        let at = soc.now();
        return finish_outcome(kind, seed, protected, soc, stages, true, chain, at, &[]);
    }

    let pivot_at = soc.now();
    mark(&mut chain, &soc, kind, 1, "epoch-commit", "pivot", pivot_at);
    let mut epoch_refused = false;
    let mut bypass_commits = 0u64;
    if protected {
        // A legitimate reconfiguration is in flight…
        let fw = soc
            .master_firewall_id(0)
            .expect("protected master has a firewall");
        soc.schedule_reconfig(PolicyUpdate {
            firewall: fw,
            policies: vec![
                SecurityPolicy::internal(
                    1,
                    AddrRange::new(SHARED_BRAM_BASE, 0x100),
                    Rwa::ReadWrite,
                    AdfSet::ALL,
                ),
                SecurityPolicy::internal(
                    2,
                    AddrRange::new(DDR_PUBLIC_BASE, 0x1000),
                    Rwa::ReadOnly,
                    AdfSet::ALL,
                ),
            ],
        });
        // …and the tainted racer tries to slam its own epoch through,
        // opening the private region to itself.
        let malicious = vec![PolicyUpdate {
            firewall: fw,
            policies: vec![SecurityPolicy::internal(
                1,
                AddrRange::new(DDR_BASE, DDR_LEN),
                Rwa::ReadWrite,
                AdfSet::ALL,
            )],
        }];
        match soc.commit_policy_epoch_as(0, malicious) {
            Err(_) => epoch_refused = true,
            Ok(_) => bypass_commits += 1,
        }
    } else {
        // Bare mode has no guard on the config path at all: the
        // attacker-driven epoch goes straight through.
        if soc.commit_policy_epoch_as(0, Vec::new()).is_ok() {
            bypass_commits += 1;
        }
    }
    soc.run(400); // drain the refusal alert (or let the epoch apply)
    stages.push(StageReport {
        label: "epoch-commit",
        fired: true,
        foothold: bypass_commits > 0,
    });
    let mut outcome = finish_outcome(
        kind,
        seed,
        protected,
        soc,
        stages,
        false,
        chain,
        pivot_at,
        &[],
    );
    outcome.policy_bypasses += bypass_commits;
    if epoch_refused {
        outcome.reaction = "epoch_refused";
    }
    outcome
}

/// Coordinated tamper: a staged fault plan (gated on its own foothold)
/// softens the platform with DDR upsets and response glitches, then the
/// physical adversary rewrites private ciphertext under the noise.
fn run_coordinated_tamper(seed: u64, protected: bool) -> CampaignOutcome {
    let kind = CampaignKind::CoordinatedTamper;
    let read_addr = DDR_PRIVATE_BASE + 0x100;
    let reader = secbus_cpu::SyntheticMaster::new(
        "reader",
        secbus_cpu::SyntheticConfig {
            windows: vec![(read_addr, 4, 1)],
            read_ratio: 1.0,
            widths: vec![Width::Word],
            burst: 1,
            period: 16,
            total_ops: 0,
        },
        SimRng::new(seed),
    );
    let policies = window_policies(&[
        (SHARED_BRAM_BASE, 0x100, Rwa::ReadWrite),
        (DDR_PRIVATE_BASE, 0x1000, Rwa::ReadWrite),
    ]);
    let mut soc = campaign_soc(Box::new(reader), policies, protected, None);
    let mut chain = Vec::new();

    let spec = |rates: FaultRates| FaultSpec {
        duration: 2_000,
        ddr_bytes: DDR_LEN,
        firewalls: 1,
        slaves: 2,
        noc_nodes: 0,
        rates,
    };
    let mut staged = StagedPlan::generate(
        seed,
        &[
            (
                "soften",
                spec(FaultRates {
                    ddr_bitflip: 3.0,
                    corrupt_response: 1.0,
                    ..FaultRates::NONE
                }),
                false,
            ),
            (
                "strike",
                spec(FaultRates {
                    slave_stall: 2.0,
                    ..FaultRates::NONE
                }),
                true,
            ),
        ],
    );

    soc.run(1_000); // clean warm-up
    mark(&mut chain, &soc, kind, 0, "soften", "foothold", soc.now());
    soc.attach_fault_plan(staged.stages()[0].plan.clone().offset(1_000));
    soc.run(2_000);
    let softened = soc.fault_plan().injected() > 0 && !soc.powered_off();
    let mut stages = vec![StageReport {
        label: "soften",
        fired: true,
        foothold: softened,
    }];
    staged.advance(softened);
    if staged.aborted() || staged.active_stage().is_none() {
        let at = soc.now();
        return finish_outcome(kind, seed, protected, soc, stages, true, chain, at, &[]);
    }

    let pivot_at = soc.now();
    mark(&mut chain, &soc, kind, 1, "strike", "pivot", pivot_at);
    let softened_injected = soc.fault_plan().injected();
    soc.attach_fault_plan(staged.stages()[1].plan.clone().offset(3_000));
    let block_off = (read_addr - DDR_BASE) & !15;
    let adversary = Adversary::new(SimRng::new(seed).derive("tamper"));
    let strike = marker(kind).to_le_bytes();
    {
        let ddr = soc.ddr_mut().unwrap();
        adversary.spoof_with(ddr, block_off, &strike);
        adversary.spoof_with(ddr, block_off + 4, &strike);
    }
    soc.run(3_000);
    stages.push(StageReport {
        label: "strike",
        fired: true,
        foothold: true,
    });
    let mut outcome = finish_outcome(
        kind,
        seed,
        protected,
        soc,
        stages,
        false,
        chain,
        pivot_at,
        &[],
    );
    outcome.faults_injected += softened_injected;
    outcome
}

/// Common epilogue: detection / reaction kill-chain entries and the
/// counter roll-up.
#[allow(clippy::too_many_arguments)]
fn finish_outcome(
    kind: CampaignKind,
    seed: u64,
    protected: bool,
    soc: Soc,
    stages: Vec<StageReport>,
    aborted: bool,
    mut chain: Vec<KillChainEvent>,
    pivot_at: Cycle,
    attack_write_addrs: &[u32],
) -> CampaignOutcome {
    // Campaign-relevant detection: the typed violations an attack (not a
    // fault) produces, at or after the pivot. Watchdog timeouts, config
    // parity hits and pre-pivot fault noise are not the kill chain.
    let detection_cycle = first_alert_where(&soc, pivot_at, |v| {
        matches!(
            v,
            Violation::TaintedSink
                | Violation::NoPolicy
                | Violation::UnauthorizedRead
                | Violation::UnauthorizedWrite
                | Violation::IntegrityMismatch
        )
    });
    let last_stage = stages.last().map(|s| s.label).unwrap_or("campaign");
    let stage_idx = stages.len().saturating_sub(1) as u8;
    if let Some(c) = detection_cycle {
        mark(
            &mut chain,
            &soc,
            kind,
            stage_idx,
            last_stage,
            "detection",
            c,
        );
    }
    let reaction = reaction_name(&soc, false);
    if reaction != "none" {
        let at = soc.now();
        mark(
            &mut chain, &soc, kind, stage_idx, last_stage, "reaction", at,
        );
    }
    let (sinks_blocked, sinks_unalerted) = taint_counters(&soc);
    let leaked = leaked_writes(&soc, attack_write_addrs);
    let alerts = soc.monitor().alert_count();
    // A leak is only a *bypass* when nothing alerted on the campaign;
    // unalerted tainted-sink reaches always count.
    let policy_bypasses = sinks_unalerted + if detection_cycle.is_none() { leaked } else { 0 };
    CampaignOutcome {
        kind,
        seed,
        protected,
        stages,
        aborted,
        detected: detection_cycle.is_some(),
        detection_cycle: detection_cycle.map(|c| c.0),
        reaction,
        alerts,
        policy_bypasses,
        sinks_blocked,
        sinks_unalerted,
        faults_injected: soc.fault_plan().injected(),
        orphan_completions: soc.stats().counter("soc.orphan_completions"),
        damage_words: marker_words_in_private(&soc, kind),
        kill_chain: chain,
    }
}

/// Run one campaign.
pub fn run_campaign(config: CampaignConfig) -> CampaignOutcome {
    match config.kind {
        CampaignKind::IpPivot => run_ip_pivot(config.seed, config.protected),
        CampaignKind::Impersonation => run_impersonation(config.seed, config.protected),
        CampaignKind::EpochRace => run_epoch_race(config.seed, config.protected),
        CampaignKind::CoordinatedTamper => run_coordinated_tamper(config.seed, config.protected),
    }
}

/// Run the whole campaign matrix at one seed and protection mode.
pub fn run_all_campaigns(seed: u64, protected: bool) -> Vec<CampaignOutcome> {
    CampaignKind::ALL
        .iter()
        .map(|&kind| {
            run_campaign(CampaignConfig {
                kind,
                seed,
                protected,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn protected(kind: CampaignKind) -> CampaignOutcome {
        run_campaign(CampaignConfig {
            kind,
            seed: 42,
            protected: true,
        })
    }

    fn bare(kind: CampaignKind) -> CampaignOutcome {
        run_campaign(CampaignConfig {
            kind,
            seed: 42,
            protected: false,
        })
    }

    #[test]
    fn leaked_writes_counts_what_the_bus_trace_evicted() {
        let (soc, target) = crate::overflow::bus_trace();
        assert!(soc.bus().trace().dropped() > 0, "the trace overflowed");
        assert!(leaked_writes(&soc, &[target]) > 0);
        assert_eq!(leaked_writes(&soc, &[]), 0, "nothing to look for");
    }

    #[test]
    fn first_alert_where_refuses_an_overflowed_monitor_log() {
        let soc = crate::overflow::monitor_log();
        assert!(soc.monitor().log().dropped() > 0, "the log overflowed");
        assert_eq!(first_alert_where(&soc, Cycle(0), |_| true), None);
    }

    #[test]
    fn ip_pivot_is_caught_by_the_taint_layer() {
        let o = protected(CampaignKind::IpPivot);
        assert!(o.detected, "DIFT must flag the private-region forward");
        assert!(o.sinks_blocked >= 1, "the pivot write is a blocked sink");
        assert_eq!(o.sinks_unalerted, 0);
        assert_eq!(o.policy_bypasses, 0);
        assert_eq!(o.damage_words, 0, "nothing attacker-chosen lands");
        assert!(o.kill_chain.iter().any(|e| e.phase == "foothold"));
        assert!(o.kill_chain.iter().any(|e| e.phase == "pivot"));
        assert!(o.kill_chain.iter().any(|e| e.phase == "detection"));
        assert!(o.kill_chain.iter().any(|e| e.phase == "reaction"));
    }

    #[test]
    fn ip_pivot_bare_shows_the_damage() {
        let o = bare(CampaignKind::IpPivot);
        assert!(!o.detected, "nothing watches a bare platform");
        assert!(o.policy_bypasses > 0);
        assert!(o.damage_words > 0, "the marker landed in private DDR");
    }

    #[test]
    fn impersonation_is_invisible_to_address_rules_but_not_to_dift() {
        let o = protected(CampaignKind::Impersonation);
        assert!(o.detected);
        assert!(o.sinks_blocked >= 1, "only the taint layer can object");
        assert_eq!(o.sinks_unalerted, 0);
        assert_eq!(o.policy_bypasses, 0);
        assert_eq!(o.damage_words, 0);
    }

    #[test]
    fn impersonation_bare_lands_the_move() {
        let o = bare(CampaignKind::Impersonation);
        assert!(!o.detected);
        assert!(o.damage_words > 0);
    }

    #[test]
    fn epoch_race_is_refused_for_a_tainted_initiator() {
        let o = protected(CampaignKind::EpochRace);
        assert_eq!(o.reaction, "epoch_refused");
        assert_eq!(o.policy_bypasses, 0);
        assert!(o.detected, "the refusal raises a TaintedSink alert");
        assert!(!o.stages.last().unwrap().foothold, "epoch must not move");
    }

    #[test]
    fn epoch_race_bare_commits_unchallenged() {
        let o = bare(CampaignKind::EpochRace);
        assert!(o.policy_bypasses > 0, "no guard on the config path");
    }

    #[test]
    fn coordinated_tamper_is_detected_by_the_integrity_core() {
        let o = protected(CampaignKind::CoordinatedTamper);
        assert!(o.detected);
        assert!(o.faults_injected > 0, "the soften stage really fired");
        assert_eq!(o.policy_bypasses, 0);
        assert_eq!(o.stages.len(), 2, "the gated strike stage ran");
    }

    #[test]
    fn campaigns_replay_deterministically_per_seed() {
        for kind in CampaignKind::ALL {
            for protected_mode in [true, false] {
                let cfg = CampaignConfig {
                    kind,
                    seed: 7,
                    protected: protected_mode,
                };
                let a = run_campaign(cfg);
                let b = run_campaign(cfg);
                assert_eq!(a.detection_cycle, b.detection_cycle, "{kind:?}");
                assert_eq!(a.alerts, b.alerts, "{kind:?}");
                assert_eq!(a.policy_bypasses, b.policy_bypasses, "{kind:?}");
                assert_eq!(a.kill_chain, b.kill_chain, "{kind:?}");
            }
        }
    }

    #[test]
    fn protected_matrix_has_no_bypasses_or_unalerted_sinks() {
        for o in run_all_campaigns(3, true) {
            assert_eq!(o.policy_bypasses, 0, "{:?}", o.kind);
            assert_eq!(o.sinks_unalerted, 0, "{:?}", o.kind);
            assert!(o.detected, "{:?}", o.kind);
        }
    }
}
