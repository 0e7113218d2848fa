//! System-wide containment invariants (the paper's §III-C feature 2:
//! "the attack must not reach the communication architecture but be
//! stopped in the interface associated with the infected IP").

use secbus_bus::{AddrRange, BusConfig, Op, Width};
use secbus_core::{AdfSet, ConfigMemory, Rwa, SecurityPolicy};
use secbus_cpu::{SyntheticConfig, SyntheticMaster};
use secbus_integration_tests::{granted, BRAM_BASE};
use secbus_mem::Bram;
use secbus_sim::SimRng;
use secbus_soc::SocBuilder;

/// Masters whose traffic generator roams FAR outside their policy: every
/// granted WRITE on the bus must still be inside the issuer's policy.
#[test]
fn no_violating_write_is_ever_granted_the_bus() {
    for seed in 0..8u64 {
        let mut builder = SocBuilder::new();
        let policies: Vec<(u32, u32)> = vec![(BRAM_BASE, 0x200), (BRAM_BASE + 0x800, 0x100)];
        for (i, &(base, len)) in policies.iter().enumerate() {
            // The generator targets the WHOLE bram, its policy only a slice.
            let master = SyntheticMaster::new(
                format!("rogue{i}"),
                SyntheticConfig {
                    windows: vec![(BRAM_BASE, 0x1000, 1)],
                    read_ratio: 0.3,
                    widths: vec![Width::Byte, Width::Half, Width::Word],
                    burst: 1,
                    period: 2,
                    total_ops: 200,
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
        soc.run_until_halt(500_000);

        // Invariant: every write on the bus lies inside its master's policy.
        for txn in granted(&soc) {
            if txn.op != Op::Write {
                continue;
            }
            let (base, len) = policies[txn.master.0 as usize];
            assert!(
                txn.within(base, len),
                "seed {seed}: violating write {txn} was granted the bus"
            );
        }
        // And plenty of violations were attempted (the generator roams).
        assert!(
            soc.monitor().alert_count() > 0,
            "seed {seed}: no violations generated"
        );
    }
}

/// The grant scan above refuses a bus trace that evicted grants rather
/// than passing on the window it kept.
#[test]
#[should_panic(expected = "evicted grants")]
fn grant_scan_refuses_an_overflowed_bus_trace() {
    let master = SyntheticMaster::new(
        "writer",
        SyntheticConfig {
            windows: vec![(BRAM_BASE, 0x100, 1)],
            read_ratio: 0.0,
            widths: vec![Width::Word],
            burst: 1,
            period: 2,
            total_ops: 16,
        },
        SimRng::new(1),
    );
    let mut soc = SocBuilder::new()
        .bus_config(BusConfig {
            trace_capacity: 4,
            ..BusConfig::default()
        })
        .add_master(Box::new(master))
        .add_bram(
            "bram",
            AddrRange::new(BRAM_BASE, 0x1000),
            Bram::new(0x1000),
            None,
        )
        .build();
    soc.run_until_halt(10_000);
    assert!(soc.bus().trace().dropped() > 0, "the trace overflowed");
    let _ = granted(&soc).count();
}

/// A blocked IP stays silent on the bus from the block onward.
#[test]
fn blocked_ip_issues_nothing_after_the_block() {
    let master = SyntheticMaster::new(
        "rogue",
        SyntheticConfig {
            windows: vec![(BRAM_BASE + 0x800, 0x100, 1)], // entirely out of policy
            read_ratio: 0.0,
            widths: vec![Width::Word],
            burst: 1,
            period: 4,
            total_ops: 0,
        },
        SimRng::new(3),
    );
    let cm = ConfigMemory::with_policies(vec![SecurityPolicy::internal(
        1,
        AddrRange::new(BRAM_BASE, 0x100),
        Rwa::ReadWrite,
        AdfSet::ALL,
    )])
    .unwrap();
    let mut soc = SocBuilder::new()
        .monitor_threshold(5)
        .add_protected_master(Box::new(master), cm)
        .add_bram(
            "bram",
            AddrRange::new(BRAM_BASE, 0x1000),
            Bram::new(0x1000),
            None,
        )
        .build();
    soc.run(5_000);
    assert!(soc.master_firewall(0).unwrap().is_blocked());
    assert_eq!(
        soc.bus().trace().len(),
        0,
        "nothing from the rogue ever reached the bus"
    );
    // Violations keep being counted locally (IpBlocked), but the alert
    // stream proves detection continued.
    assert!(soc.monitor().alert_count() >= 5);
}

/// Violating reads may be granted (request phase), but the read DATA is
/// discarded before the IP: the master observes only errors.
#[test]
fn violating_read_data_never_reaches_the_ip() {
    let master = SyntheticMaster::new(
        "reader",
        SyntheticConfig {
            windows: vec![(BRAM_BASE + 0x800, 0x100, 1)],
            read_ratio: 1.0,
            widths: vec![Width::Word],
            burst: 1,
            period: 4,
            total_ops: 50,
        },
        SimRng::new(5),
    );
    let cm = ConfigMemory::with_policies(vec![SecurityPolicy::internal(
        1,
        AddrRange::new(BRAM_BASE, 0x100),
        Rwa::ReadWrite,
        AdfSet::ALL,
    )])
    .unwrap();
    let mut bram = Bram::new(0x1000);
    bram.load(0x800, &[0xAA; 0x100]); // secret the reader must not obtain
    let mut soc = SocBuilder::new()
        .add_protected_master(Box::new(master), cm)
        .add_bram("bram", AddrRange::new(BRAM_BASE, 0x1000), bram, None)
        .build();
    soc.run_until_halt(100_000);
    let st = soc.master_device(0).stats();
    assert_eq!(st.counter("traffic.ok"), 0, "no forbidden read may succeed");
    assert_eq!(st.counter("traffic.err"), 50);
    assert_eq!(soc.monitor().alert_count(), 50);
}

/// The slave-side firewall protects an IP from the bus side too: traffic
/// that a (hypothetically unprotected) master sends at a guarded slave is
/// discarded before the slave's memory.
#[test]
fn slave_side_firewall_guards_the_ip() {
    let master = SyntheticMaster::new(
        "unfirewalled",
        SyntheticConfig {
            windows: vec![(BRAM_BASE, 0x200, 1)],
            read_ratio: 0.0,
            widths: vec![Width::Word],
            burst: 1,
            period: 2,
            total_ops: 100,
        },
        SimRng::new(7),
    );
    // The slave accepts only the first 0x100 bytes.
    let guard = ConfigMemory::with_policies(vec![SecurityPolicy::internal(
        9,
        AddrRange::new(BRAM_BASE, 0x100),
        Rwa::ReadWrite,
        AdfSet::ALL,
    )])
    .unwrap();
    let mut soc = SocBuilder::new()
        .add_master(Box::new(master)) // no master-side firewall at all
        .add_bram(
            "bram",
            AddrRange::new(BRAM_BASE, 0x1000),
            Bram::new(0x1000),
            Some(guard),
        )
        .build();
    soc.run_until_halt(100_000);
    // Writes to 0x100..0x200 were discarded at the slave interface.
    let contents = soc.bram_contents().unwrap();
    assert!(
        contents[0x100..0x200].iter().all(|&b| b == 0),
        "guarded upper half must stay untouched"
    );
    assert!(soc.monitor().alert_count() > 0);
    let errs = soc.master_device(0).stats().counter("traffic.err");
    assert!(errs > 0, "master saw its rejections");
}
