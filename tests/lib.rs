//! Shared fixtures for the cross-crate integration tests.

use secbus_bus::{AddrRange, Transaction};
use secbus_core::{AdfSet, ConfigMemory, Rwa, SecurityPolicy};
use secbus_cpu::{SyntheticConfig, SyntheticMaster};
use secbus_mem::{Bram, ExternalDdr};
use secbus_sim::SimRng;
use secbus_soc::casestudy::{lcf_policies, DDR_BASE, DDR_LEN};
use secbus_soc::{Soc, SocBuilder};

/// Base of the internal BRAM used by the fixtures.
pub const BRAM_BASE: u32 = 0x2000_0000;

/// A protected system with `n` synthetic masters whose policies cover the
/// windows they legitimately use, plus the LCF-protected DDR.
pub fn synthetic_soc(n: usize, period: u64, total_ops: u64, seed: u64) -> Soc {
    let root = SimRng::new(seed);
    let mut builder = SocBuilder::new();
    for i in 0..n {
        let window = (BRAM_BASE + (i as u32) * 0x400, 0x400u32, 1u32);
        let master = SyntheticMaster::new(
            format!("gen{i}"),
            SyntheticConfig {
                windows: vec![window],
                read_ratio: 0.5,
                widths: vec![
                    secbus_bus::Width::Byte,
                    secbus_bus::Width::Half,
                    secbus_bus::Width::Word,
                ],
                burst: 1,
                period,
                total_ops,
            },
            root.derive(&format!("gen{i}")),
        );
        let policies = ConfigMemory::with_policies(vec![SecurityPolicy::internal(
            i as u16 + 1,
            AddrRange::new(window.0, window.1),
            Rwa::ReadWrite,
            AdfSet::ALL,
        )])
        .unwrap();
        builder = builder.add_protected_master(Box::new(master), policies);
    }
    builder
        .add_bram(
            "bram",
            AddrRange::new(BRAM_BASE, 0x1_0000),
            Bram::new(0x1_0000),
            None,
        )
        .set_ddr(
            "ddr",
            AddrRange::new(DDR_BASE, DDR_LEN),
            ExternalDdr::new(DDR_LEN),
            Some(lcf_policies()),
        )
        .build()
}

/// Every transaction the bus granted, in grant order.
///
/// # Panics
/// Panics if the bounded bus trace evicted any grant: a containment
/// check must see every grant, not the most recent window.
pub fn granted(soc: &Soc) -> impl Iterator<Item = &Transaction> {
    let trace = soc.bus().trace();
    assert_eq!(
        trace.dropped(),
        0,
        "the bus trace evicted grants; raise BusConfig::trace_capacity"
    );
    trace.iter().map(|(_, txn)| txn)
}
