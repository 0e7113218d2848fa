//! The `soc_saturated` benchmark platform, built through the public API:
//! the case study's three cores and stream IP, each behind its
//! least-privilege Local Firewall, plus an open-loop flood into a BRAM
//! window of its own, with the watchdog, retry, quarantine and
//! auto-recovery stack armed and an 8-entry admission queue per master.

use secbus_bus::{AddrRange, BusConfig};
use secbus_core::{AdfSet, ConfigMemory, Rwa, SecurityPolicy};
use secbus_cpu::{assemble, BusMaster, Mb32Core, OpenLoopConfig, OpenLoopMaster, StreamIp};
use secbus_mem::{Bram, ExternalDdr};
use secbus_sim::SimRng;
use secbus_soc::casestudy::{
    lcf_policies, CPU0_PROGRAM, CPU1_PROGRAM, CPU2_PROGRAM, DDR_BASE, DDR_CIPHER_BASE,
    DDR_CIPHER_LEN, DDR_LEN, DDR_PRIVATE_BASE, DDR_PRIVATE_LEN, DDR_PUBLIC_BASE, DDR_PUBLIC_LEN,
    IP_FIFO_ADDR, SHARED_BRAM_BASE, SHARED_BRAM_LEN,
};
use secbus_soc::{RetryPolicy, Soc, SocBuilder};

/// BRAM window the flood hammers (clear of the kernels' data).
const FLOOD_WINDOW: (u32, u32) = (SHARED_BRAM_BASE + 0x8000, 0x1000);

/// What varies between the platform's uses.
pub struct Saturated {
    /// Rewrite the kernels to loop forever instead of halting.
    pub looping: bool,
    /// The flood issues one access a cycle before this cycle.
    pub flood_until: u64,
    /// Words the stream IP sends (0 = unbounded), one every 8 cycles.
    pub ip_samples: u64,
}

fn table(policies: Vec<SecurityPolicy>) -> ConfigMemory {
    ConfigMemory::with_policies(policies).expect("platform policies are disjoint")
}

fn internal(spi: u16, base: u32, len: u32, rwa: Rwa, adf: AdfSet) -> SecurityPolicy {
    SecurityPolicy::internal(spi, AddrRange::new(base, len), rwa, adf)
}

fn core(label: &str, src: &str, looping: bool) -> Box<dyn BusMaster> {
    let src = if looping {
        format!("top:\n{}", src.replace("halt", "beq  r0, r0, top"))
    } else {
        src.to_string()
    };
    let program = assemble(&src).unwrap_or_else(|e| panic!("{label} program: {e}"));
    Box::new(Mb32Core::with_local_program(label, 0, program))
}

/// Build the platform; the flood draws from `seed`.
pub fn saturated_soc(cfg: &Saturated, seed: u64) -> Soc {
    use Rwa::{ReadOnly, ReadWrite, WriteOnly};
    let all = AdfSet::ALL;
    let masters: [(Box<dyn BusMaster>, ConfigMemory); 5] = [
        (
            core("cpu0", CPU0_PROGRAM, cfg.looping),
            table(vec![
                internal(1, SHARED_BRAM_BASE, SHARED_BRAM_LEN, ReadWrite, all),
                internal(2, DDR_PRIVATE_BASE, DDR_PRIVATE_LEN, ReadWrite, all),
                internal(3, DDR_PUBLIC_BASE, DDR_PUBLIC_LEN, ReadOnly, all),
            ]),
        ),
        (
            core("cpu1", CPU1_PROGRAM, cfg.looping),
            table(vec![
                internal(4, SHARED_BRAM_BASE, 0x8000, ReadWrite, all),
                internal(5, DDR_CIPHER_BASE, DDR_CIPHER_LEN, ReadWrite, all),
                internal(6, DDR_PUBLIC_BASE, DDR_PUBLIC_LEN, ReadOnly, all),
            ]),
        ),
        (
            core("cpu2", CPU2_PROGRAM, cfg.looping),
            table(vec![
                internal(7, SHARED_BRAM_BASE, SHARED_BRAM_LEN, ReadWrite, all),
                internal(8, DDR_PUBLIC_BASE, DDR_PUBLIC_LEN, ReadOnly, all),
            ]),
        ),
        (
            Box::new(StreamIp::new("ip0", IP_FIFO_ADDR, 8, cfg.ip_samples)),
            table(vec![internal(
                9,
                IP_FIFO_ADDR,
                0x100,
                WriteOnly,
                AdfSet::WORD_ONLY,
            )]),
        ),
        (
            Box::new(OpenLoopMaster::new(
                "flood",
                OpenLoopConfig {
                    window: FLOOD_WINDOW,
                    read_ratio: 0.5,
                    per_tick: 1,
                    until: cfg.flood_until,
                },
                SimRng::new(seed).derive("flood"),
            )),
            table(vec![internal(
                10,
                FLOOD_WINDOW.0,
                FLOOD_WINDOW.1,
                ReadWrite,
                all,
            )]),
        ),
    ];

    let mut ddr = ExternalDdr::new(DDR_LEN);
    for i in 0..32u32 {
        ddr.load(DDR_PUBLIC_BASE - DDR_BASE + 4 * i, &(i + 1).to_le_bytes());
    }
    let mut b = SocBuilder::new()
        .watchdog(512)
        .retry(RetryPolicy::default())
        .quarantine(2_048)
        .auto_recover(true)
        .monitor_threshold(8)
        .bus_config(BusConfig {
            master_queue_capacity: 8,
            ..BusConfig::default()
        });
    for (device, t) in masters {
        b = b.add_protected_master(device, t);
    }
    b.add_bram(
        "shared-bram",
        AddrRange::new(SHARED_BRAM_BASE, SHARED_BRAM_LEN),
        Bram::new(SHARED_BRAM_LEN),
        None,
    )
    .set_ddr(
        "ddr",
        AddrRange::new(DDR_BASE, DDR_LEN),
        ddr,
        Some(lcf_policies()),
    )
    .build()
}
