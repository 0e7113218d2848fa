//! Containment under hardware faults: the paper's §III-C guarantee
//! ("the attack must be stopped in the interface associated with the
//! infected IP") must survive a defective fabric too. These tests run
//! rogue traffic and the full case study under randomized fault storms
//! and assert the security invariants hold — fail *secure*, not just
//! fail *operational* — and that nothing panics or wedges.

use secbus_bus::{AddrRange, Op, Width};
use secbus_core::{AdfSet, ConfigMemory, Rwa, SecurityPolicy};
use secbus_cpu::{SyntheticConfig, SyntheticMaster};
use secbus_fault::{FaultEvent, FaultKind, FaultPlan, FaultRates, FaultSpec};
use secbus_integration_tests::{granted, BRAM_BASE};
use secbus_mem::Bram;
use secbus_sim::{Cycle, SimRng};
use secbus_soc::casestudy::{
    case_study, CaseResilience, CaseStudyConfig, CPU0_PROGRAM, CPU1_PROGRAM, CPU2_PROGRAM,
};
use secbus_soc::{RetryPolicy, SocBuilder};

/// Rogue masters roam the whole BRAM while their policies allow only a
/// slice — under a heavy fault storm (lost grants, stalls, corrupted
/// responses, config upsets) every write granted the bus must STILL lie
/// inside the issuer's policy: faults must never widen what an IP can do.
#[test]
fn no_violating_write_reaches_the_bus_under_fault_storm() {
    for seed in 0..4u64 {
        let mut builder = SocBuilder::new()
            .watchdog(128)
            .retry(RetryPolicy::default())
            .monitor_threshold(25)
            .quarantine(512)
            .auto_recover(false);
        let policies: Vec<(u32, u32)> = vec![(BRAM_BASE, 0x200), (BRAM_BASE + 0x800, 0x100)];
        for (i, &(base, len)) in policies.iter().enumerate() {
            let master = SyntheticMaster::new(
                format!("rogue{i}"),
                SyntheticConfig {
                    windows: vec![(BRAM_BASE, 0x1000, 1)],
                    read_ratio: 0.3,
                    widths: vec![Width::Byte, Width::Half, Width::Word],
                    burst: 1,
                    period: 2,
                    total_ops: 400,
                },
                SimRng::new(seed * 31 + i as u64),
            );
            let cm = ConfigMemory::with_policies(vec![SecurityPolicy::internal(
                i as u16 + 1,
                AddrRange::new(base, len),
                Rwa::ReadWrite,
                AdfSet::ALL,
            )])
            .unwrap();
            builder = builder.add_protected_master(Box::new(master), cm);
        }
        let mut soc = builder
            .add_bram(
                "bram",
                AddrRange::new(BRAM_BASE, 0x1000),
                Bram::new(0x1000),
                None,
            )
            .build();
        soc.attach_fault_plan(FaultPlan::generate(
            seed ^ 0xFA_017,
            &FaultSpec {
                duration: 20_000,
                ddr_bytes: 0, // no DDR in this system
                firewalls: 2,
                slaves: 1,
                noc_nodes: 0,
                rates: FaultRates::uniform(12.0),
            },
        ));
        soc.run(20_000);

        assert!(
            soc.fault_plan().injected() > 0,
            "seed {seed}: storm never fired"
        );
        for txn in granted(&soc) {
            if txn.op != Op::Write {
                continue;
            }
            let (base, len) = policies[txn.master.0 as usize];
            assert!(
                txn.within(base, len),
                "seed {seed}: violating write {txn} was granted the bus under faults"
            );
        }
        assert!(
            soc.monitor().alert_count() > 0,
            "seed {seed}: no violations generated"
        );
    }
}

/// The full case study, hardened, under every fault class at a high
/// rate: the run completes without panicking, every scheduled fault is
/// consumed, and the recovery counters stay mutually consistent.
#[test]
fn hardened_case_study_survives_a_fault_storm() {
    let looping = |src: &str| format!("top:\n{}", src.replace("halt", "beq  r0, r0, top"));
    let mut soc = case_study(CaseStudyConfig {
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
        ..Default::default()
    });
    let plan = FaultPlan::generate(
        0xD15EA5E,
        &FaultSpec {
            duration: 30_000,
            ddr_bytes: 0x10_0000,
            firewalls: 5,
            slaves: 2,
            noc_nodes: 0,
            rates: FaultRates::uniform(16.0),
        },
    );
    let planned = plan.len() as u64;
    assert!(planned > 64, "the storm must be substantial");
    soc.attach_fault_plan(plan);
    soc.run(30_000);

    assert_eq!(
        soc.fault_plan().injected(),
        planned,
        "every fault was applied"
    );
    assert_eq!(soc.fault_plan().remaining(), 0);

    // Fail-secure bookkeeping: a quarantine can only be released after it
    // was imposed, and recovery work only happens around quarantines.
    let blocks = soc.monitor().stats().counter("monitor.blocks");
    let releases = soc.stats().counter("soc.quarantine_releases");
    let recoveries = soc.stats().counter("soc.recoveries");
    assert!(
        releases <= blocks,
        "releases ({releases}) must not exceed blocks ({blocks})"
    );
    assert!(
        recoveries <= blocks,
        "recoveries ({recoveries}) run at most once per quarantine episode ({blocks})"
    );

    // The retry layer never reports more successes than attempts.
    let retries = soc.stats().counter("soc.retries");
    let retry_ok = soc.stats().counter("soc.retry_successes");
    assert!(
        retry_ok <= retries,
        "retry successes ({retry_ok}) exceed retries ({retries})"
    );
}

/// An Integrity-Core glitch is detected (not silently trusted) and the
/// system degrades fail-secure: the run continues, the mismatch lands in
/// the LCF's alert stream.
#[test]
fn ic_glitch_is_detected_and_contained() {
    let looping = |src: &str| format!("top:\n{}", src.replace("halt", "beq  r0, r0, top"));
    let mut soc = case_study(CaseStudyConfig {
        programs: Some([
            looping(CPU0_PROGRAM),
            looping(CPU1_PROGRAM),
            looping(CPU2_PROGRAM),
        ]),
        ip_samples: 0,
        ..Default::default()
    });
    soc.attach_fault_plan(FaultPlan::new(vec![FaultEvent {
        at: Cycle(0),
        kind: FaultKind::IcGlitch,
    }]));
    soc.run(20_000);

    assert_eq!(soc.fault_plan().remaining(), 0, "glitch was injected");
    let fw = soc.firewall_stats();
    assert!(
        fw.counter("lcf.integrity_failures") >= 1,
        "the glitched verification must surface as an integrity failure"
    );
    assert!(
        soc.monitor().alert_count() >= 1,
        "the monitor heard about it"
    );
    // Fail-secure, not fail-stop: traffic kept flowing afterwards.
    assert!(soc.bus().stats().counter("bus.completions") > 100);
}
