//! Stepped-vs-event core state identity at the full-SoC level.
//!
//! The event core is an optimisation, not a model change: for any seed,
//! workload and fault plan the two cores must leave the SoC in the same
//! state — same cycle count, same metrics snapshot (every counter and
//! histogram, rendered byte-for-byte), same memory contents. These tests
//! pin that contract across the interesting regimes: fault storms with
//! the full resilience stack, idle-heavy halting runs (where the
//! fast-forward does the most work), a scheduled reconfiguration epoch
//! and a quarantine release each landing inside a skipped stretch, and
//! brownout hysteresis under open-loop flood.

use secbus_bus::AddrRange;
use secbus_core::{AdfSet, PolicyUpdate, Rwa, SecurityPolicy};
use secbus_fault::{FaultPlan, FaultRates, FaultSpec};
use secbus_sim::SimCore;
use secbus_soc::casestudy::{CPU0_PROGRAM, CPU1_PROGRAM, CPU2_PROGRAM};
use secbus_soc::{
    case_study, run_soc_overload_with_core, CaseResilience, CaseStudyConfig, DegradeConfig, Soc,
    SocOverloadConfig, DDR_PUBLIC_BASE, SHARED_BRAM_BASE,
};

/// Rewrite a core program to loop forever instead of halting, so memory
/// traffic (and therefore fault exposure) persists for the whole run.
fn looping(src: &str) -> String {
    format!("top:\n{}", src.replace("halt", "beq  r0, r0, top"))
}

/// The chaos-soak platform: looping cores, streaming IPs, the full
/// resilience stack.
fn chaos_soc() -> Soc {
    case_study(CaseStudyConfig {
        programs: Some([
            looping(CPU0_PROGRAM),
            looping(CPU1_PROGRAM),
            looping(CPU2_PROGRAM),
        ]),
        monitor_threshold: 8,
        ip_samples: 0,
        resilience: Some(CaseResilience {
            rekey: true,
            ..CaseResilience::default()
        }),
        ..CaseStudyConfig::default()
    })
}

/// Run `soc` for `cycles` under `core` and return the comparable state:
/// (final cycle, rendered metrics, BRAM contents).
fn run_state(mut soc: Soc, plan: FaultPlan, core: SimCore, cycles: u64) -> (u64, String, Vec<u8>) {
    soc.set_sim_core(core);
    soc.attach_fault_plan(plan);
    soc.run(cycles);
    (
        soc.now().get(),
        soc.metrics_json(),
        soc.bram_contents().map(<[u8]>::to_vec).unwrap_or_default(),
    )
}

#[test]
fn chaos_soak_state_is_identical_across_cores_and_seeds() {
    const CYCLES: u64 = 30_000;
    let spec = FaultSpec {
        duration: CYCLES,
        ddr_bytes: 0x10_0000,
        firewalls: 5,
        slaves: 2,
        noc_nodes: 0,
        rates: FaultRates::uniform(12.0),
    };
    for seed in [3u64, 11, 0xC4A05] {
        let plan = FaultPlan::generate(seed, &spec);
        let stepped = run_state(chaos_soc(), plan.clone(), SimCore::Stepped, CYCLES);
        let event = run_state(chaos_soc(), plan, SimCore::Event, CYCLES);
        assert_eq!(stepped, event, "seed {seed}");
    }
}

#[test]
fn idle_heavy_halting_run_matches_and_halts_at_the_same_cycle() {
    // Halting programs + finite IP streams: the tail of the run is pure
    // idle, which the event core must skip without disturbing anything.
    let build = || case_study(CaseStudyConfig::default());
    let mut stepped = build();
    let mut event = build();
    stepped.set_sim_core(SimCore::Stepped);
    event.set_sim_core(SimCore::Event);
    let used_s = stepped.run_until_halt(200_000);
    let used_e = event.run_until_halt(200_000);
    assert_eq!(used_s, used_e, "halt detected at the same cycle");
    assert_eq!(stepped.now(), event.now());
    assert_eq!(stepped.metrics_json(), event.metrics_json());
    assert_eq!(stepped.bram_contents(), event.bram_contents());
}

#[test]
fn fast_forward_never_skips_scheduled_fault_epoch_or_watchdog_cycles() {
    // A sparse fault plan and a scheduled policy epoch land in the
    // middle of long idle stretches; the watchdog stack is armed. The
    // event core must stop at every one of those cycles.
    use secbus_fault::{FaultEvent, FaultKind};
    const EPOCH_STAGED_AT: u64 = 60_000;
    let sparse = FaultPlan::new(vec![
        FaultEvent {
            at: secbus_sim::Cycle(40_000),
            kind: FaultKind::DdrBitFlip {
                offset: 0x10,
                bit: 3,
            },
        },
        FaultEvent {
            at: secbus_sim::Cycle(90_000),
            kind: FaultKind::DdrBitFlip {
                offset: 0x20,
                bit: 5,
            },
        },
    ]);
    let build = || {
        case_study(CaseStudyConfig {
            resilience: Some(CaseResilience::default()),
            ..CaseStudyConfig::default()
        })
    };
    // The state right after the epoch commit and at the end of the run,
    // and the ticks the commit's stretch took.
    let run = |core: SimCore| {
        let mut soc = build();
        soc.set_sim_core(core);
        soc.attach_fault_plan(sparse.clone());
        let fw = soc
            .master_firewall_id(0)
            .expect("case study master 0 has a firewall");
        // Stage the epoch long after the programs halted, so its commit
        // falls inside a skipped stretch: a commit that landed late
        // would show in the state one cycle after it.
        soc.run(EPOCH_STAGED_AT);
        let commit_at = soc.schedule_reconfig(PolicyUpdate {
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
        let ticks = soc.ticks_executed();
        soc.run(commit_at.get() + 1 - EPOCH_STAGED_AT);
        let stretch_ticks = soc.ticks_executed() - ticks;
        let after_commit = (soc.now().get(), soc.policy_epoch(), soc.metrics_json());
        soc.run(120_000 - soc.now().get());
        assert_eq!(
            soc.fault_plan().remaining(),
            0,
            "every planned fault cycle was reached"
        );
        let end = (soc.now().get(), soc.policy_epoch(), soc.metrics_json());
        (after_commit, end, stretch_ticks)
    };
    let (stepped_commit, stepped_end, _) = run(SimCore::Stepped);
    let (event_commit, event_end, stretch_ticks) = run(SimCore::Event);
    assert_eq!(stepped_commit.1, 1, "the epoch committed");
    assert_eq!(stepped_commit, event_commit, "state right after the commit");
    assert_eq!(stepped_end, event_end, "state at the end of the run");
    // Nothing else woke in the stretch: the event core ticked only the
    // cycle it was staged on and the commit cycle.
    assert_eq!(stretch_ticks, 2, "the commit lands inside an idle stretch");
}

/// A program for core 1: one store into the public DDR window, which
/// its policy makes read-only, then halt.
const ILLEGAL_STORE: &str = r"
    li   r1, 0x80080000    ; ddr public, read-only for cpu1
    sw   r1, 0(r1)
    halt
";

#[test]
fn fast_forward_stops_at_a_quarantine_release_inside_an_idle_stretch() {
    // Core 1 stores once into a window its policy makes read-only, then
    // halts; at threshold 1 the monitor quarantines its firewall. The
    // quarantine outlasts every program, so the release falls inside a
    // skipped stretch and must still happen on its own cycle.
    const QUARANTINE: u64 = 8_192;
    const STRETCH: u64 = 1_000;
    let build = |core: SimCore| {
        let mut soc = case_study(CaseStudyConfig {
            programs: Some([
                CPU0_PROGRAM.into(),
                ILLEGAL_STORE.into(),
                CPU2_PROGRAM.into(),
            ]),
            monitor_threshold: 1,
            resilience: Some(CaseResilience {
                quarantine: QUARANTINE,
                ..CaseResilience::default()
            }),
            ..CaseStudyConfig::default()
        });
        soc.set_sim_core(core);
        soc
    };
    let releases = |soc: &Soc| soc.stats().counter("soc.quarantine_releases");
    // The stepped core finds the first cycle whose state shows the
    // release.
    let mut stepped = build(SimCore::Stepped);
    while releases(&stepped) == 0 {
        assert!(stepped.now().get() < 4 * QUARANTINE, "no release");
        stepped.run(1);
    }
    let released = stepped.now().get();
    assert!(released > QUARANTINE, "the quarantine was imposed");
    let mut event = build(SimCore::Event);
    event.run(released - STRETCH);
    let ticks = event.ticks_executed();
    event.run(STRETCH);
    assert_eq!(
        (stepped.now(), stepped.metrics_json()),
        (event.now(), event.metrics_json()),
        "state one cycle after the release"
    );
    // Nothing else woke in the stretch: the event core ticked only its
    // first cycle and the release cycle.
    assert_eq!(
        event.ticks_executed() - ticks,
        2,
        "the release lands inside an idle stretch"
    );
}

#[test]
fn brownout_hysteresis_is_identical_across_cores() {
    // The degrade controller observes bus pressure every cycle; the
    // event core replays skipped observations in bulk. Enter/exit
    // transitions must land on the same cycles.
    let cfg = SocOverloadConfig {
        degrade: Some(DegradeConfig {
            high_watermark: 6,
            low_watermark: 0,
            enter_after: 4,
            exit_after: 16,
        }),
        ..SocOverloadConfig::default()
    };
    let stepped = run_soc_overload_with_core(&cfg, SimCore::Stepped);
    let event = run_soc_overload_with_core(&cfg, SimCore::Event);
    assert_eq!(stepped, event);
    assert_eq!(event.degrade_enters, 1);
    assert_eq!(event.degrade_exits, 1);
}
