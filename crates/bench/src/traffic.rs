//! S-2: execution-time overhead vs traffic shape.
//!
//! The paper (§V-A): "The impact of the protection mechanisms on the
//! global execution time depends on the percentage of computation time
//! versus communication time. Furthermore the latency overhead is also
//! impacted by the percentage of internal communication versus external
//! communication."
//!
//! Both knobs are swept here: `period` (cycles of computation between
//! accesses) and `external_pct` (share of accesses that go to the
//! LCF-protected external memory instead of internal BRAM). Overhead is
//! the protected/unprotected ratio of the cycles needed to complete a
//! fixed number of accesses.

use secbus_bus::{AddrRange, Width};
use secbus_core::{AdfSet, ConfigMemory, Rwa, SecurityPolicy};
use secbus_cpu::{SyntheticConfig, SyntheticMaster};
use secbus_mem::{Bram, ExternalDdr};
use secbus_sim::SimRng;
use secbus_soc::casestudy::{lcf_policies, DDR_BASE, DDR_LEN, DDR_PRIVATE_BASE};
use secbus_soc::{Soc, SocBuilder};

const BRAM_BASE: u32 = 0x2000_0000;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Computation cycles between accesses.
    pub period: u64,
    /// Percentage of accesses targeting external memory.
    pub external_pct: u32,
    /// Cycles to finish the workload, unprotected.
    pub baseline_cycles: u64,
    /// Cycles to finish the workload, with firewalls + LCF.
    pub protected_cycles: u64,
}

impl OverheadRow {
    /// Execution-time overhead in percent.
    pub fn overhead_pct(&self) -> f64 {
        if self.baseline_cycles == 0 {
            return 0.0;
        }
        (self.protected_cycles as f64 / self.baseline_cycles as f64 - 1.0) * 100.0
    }
}

fn build_soc(period: u64, external_pct: u32, total_ops: u64, protected: bool, seed: u64) -> Soc {
    let internal_weight = 100 - external_pct.min(100);
    let mut windows = Vec::new();
    if internal_weight > 0 {
        windows.push((BRAM_BASE, 0x400u32, internal_weight));
    }
    if external_pct > 0 {
        windows.push((DDR_PRIVATE_BASE, 0x400u32, external_pct));
    }
    let master = SyntheticMaster::new(
        "gen",
        SyntheticConfig {
            windows,
            read_ratio: 0.5,
            widths: vec![Width::Word],
            burst: 1,
            period,
            total_ops,
        },
        SimRng::new(seed),
    );
    let policies = ConfigMemory::with_policies(vec![
        SecurityPolicy::internal(
            1,
            AddrRange::new(BRAM_BASE, 0x1000),
            Rwa::ReadWrite,
            AdfSet::ALL,
        ),
        SecurityPolicy::internal(
            2,
            AddrRange::new(DDR_PRIVATE_BASE, 0x1000),
            Rwa::ReadWrite,
            AdfSet::ALL,
        ),
    ])
    .unwrap();
    let mut b = SocBuilder::new();
    if !protected {
        b = b.without_security();
    }
    b.add_protected_master(Box::new(master), policies)
        .add_bram(
            "bram",
            AddrRange::new(BRAM_BASE, 0x1000),
            Bram::new(0x1000),
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

/// Measure one sweep point: cycles to complete `total_ops` accesses.
pub fn traffic_overhead(period: u64, external_pct: u32, total_ops: u64, seed: u64) -> OverheadRow {
    let budget = 10_000_000;
    let mut base = build_soc(period, external_pct, total_ops, false, seed);
    let baseline_cycles = base.run_until_halt(budget);
    let mut prot = build_soc(period, external_pct, total_ops, true, seed);
    let protected_cycles = prot.run_until_halt(budget);
    assert!(
        baseline_cycles < budget && protected_cycles < budget,
        "workload did not finish"
    );
    OverheadRow {
        period,
        external_pct,
        baseline_cycles,
        protected_cycles,
    }
}

/// The full sweep grid, evaluated in parallel (independent simulations).
pub fn sweep_traffic(
    periods: &[u64],
    external_pcts: &[u32],
    total_ops: u64,
    seed: u64,
) -> Vec<OverheadRow> {
    let grid: Vec<(u64, u32)> = periods
        .iter()
        .flat_map(|&p| external_pcts.iter().map(move |&e| (p, e)))
        .collect();
    crate::par_map(grid, |(p, e)| traffic_overhead(p, e, total_ops, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protection_costs_cycles() {
        let row = traffic_overhead(4, 0, 100, 1);
        assert!(row.protected_cycles > row.baseline_cycles);
        assert!(row.overhead_pct() > 0.0);
    }

    #[test]
    fn more_computation_means_less_overhead() {
        // The paper: promoting computation over communication improves the
        // picture — overhead shrinks as the period grows.
        let busy = traffic_overhead(1, 50, 150, 2);
        let relaxed = traffic_overhead(64, 50, 150, 2);
        assert!(
            relaxed.overhead_pct() < busy.overhead_pct(),
            "relaxed {:.1}% vs busy {:.1}%",
            relaxed.overhead_pct(),
            busy.overhead_pct()
        );
    }

    #[test]
    fn external_traffic_costs_more_than_internal() {
        // The paper: external communications have a larger overhead due to
        // the cryptography resources.
        let internal = traffic_overhead(4, 0, 150, 3);
        let external = traffic_overhead(4, 100, 150, 3);
        assert!(
            external.overhead_pct() > internal.overhead_pct(),
            "external {:.1}% vs internal {:.1}%",
            external.overhead_pct(),
            internal.overhead_pct()
        );
    }

    #[test]
    fn sweep_covers_grid_in_order_independent_way() {
        let rows = sweep_traffic(&[1, 16], &[0, 100], 60, 4);
        assert_eq!(rows.len(), 4);
        // Deterministic per point regardless of parallel scheduling.
        let again = sweep_traffic(&[1, 16], &[0, 100], 60, 4);
        for (a, b) in rows.iter().zip(again.iter()) {
            assert_eq!(a.protected_cycles, b.protected_cycles);
        }
    }
}
