//! The paper's quantitative claims, asserted as tests ("shape checks"):
//! who wins, by roughly what factor, and where the trends point. These are
//! the same checks EXPERIMENTS.md reports.

use secbus_area::model::{GENERIC_WITH, GENERIC_WITHOUT, MODULE_CC, MODULE_IC};
use secbus_area::{AreaModel, SystemShape, Table1, DEFAULT_RULES_PER_FIREWALL};
use secbus_baseline::compare_check_latency;
use secbus_bench::{measure_table2, traffic_overhead};

#[test]
fn table1_reproduces_exactly() {
    let t = Table1::case_study();
    assert_eq!(t.without, GENERIC_WITHOUT);
    assert_eq!(t.with, GENERIC_WITH);
    // BRAM overhead +18.87% — the one percentage consistent in the paper.
    assert!((t.overhead_pct[3] - 18.87).abs() < 0.01);
}

#[test]
fn table1_crypto_dominates_lcf() {
    // Paper: "about 90% of Local Ciphering Firewall area" is CC + IC.
    let m = AreaModel;
    let lcf = m.ciphering_firewall(DEFAULT_RULES_PER_FIREWALL);
    let crypto_regs = MODULE_CC.slice_regs + MODULE_IC.slice_regs;
    assert!(
        f64::from(crypto_regs) / f64::from(lcf.slice_regs) > 0.85,
        "register share of the crypto cores"
    );
}

#[test]
fn table1_lf_cost_is_limited() {
    // Paper: "the cost of Local Firewalls is limited" — an LF is a small
    // fraction of one processor.
    let m = AreaModel;
    let lf = m.local_firewall(DEFAULT_RULES_PER_FIREWALL);
    // One LF (checking logic + interface glue) is well under one core…
    assert!(
        lf.slice_luts < secbus_area::model::COMP_CPU.slice_luts,
        "LF {} vs CPU {}",
        lf.slice_luts,
        secbus_area::model::COMP_CPU.slice_luts
    );
    // …and all four LFs together stay under half the generic system.
    let four = lf * 4;
    assert!(four.slice_luts * 2 < GENERIC_WITHOUT.slice_luts);
}

#[test]
fn table2_values_and_shape() {
    let t = measure_table2();
    assert!((t.sb_cycles - 12.0).abs() < 1.0, "SB = 12 cycles");
    assert_eq!(t.cc_latency, 11);
    assert_eq!(t.ic_latency, 20);
    assert!((t.cc_mbps - 450.0).abs() < 2.0);
    assert!((t.ic_mbps - 131.0).abs() < 2.0);
    // Shape: integrity is the throughput bottleneck, ~3.4× slower than
    // ciphering; checking is cheaper than either crypto pipeline per block.
    assert!(t.cc_mbps / t.ic_mbps > 3.0);
}

#[test]
fn overhead_shrinks_with_computation_share() {
    let busy = traffic_overhead(1, 50, 120, 21);
    let relaxed = traffic_overhead(64, 50, 120, 21);
    assert!(relaxed.overhead_pct() < busy.overhead_pct() / 2.0);
}

#[test]
fn external_traffic_overhead_exceeds_internal() {
    let internal = traffic_overhead(4, 0, 120, 22);
    let external = traffic_overhead(4, 100, 120, 22);
    assert!(external.overhead_pct() > internal.overhead_pct() * 1.2);
}

#[test]
fn distributed_beats_centralized_under_load() {
    let row = compare_check_latency(8, 0.06, 30_000, 23);
    assert_eq!(row.distributed_mean, 12.0);
    assert!(row.slowdown() > 2.0, "slowdown {}", row.slowdown());
    assert!(row.centralized_bus_txns > 0);
}

#[test]
fn rule_scaling_is_monotone_in_both_axes() {
    let m = AreaModel;
    let mut last_area = 0;
    let mut last_latency = 0;
    for rules in [8u32, 16, 32, 64, 128] {
        let area = m
            .system_with_firewalls(SystemShape::CASE_STUDY, rules)
            .slice_luts;
        let latency = secbus_core::SbTiming::scaled(rules).total();
        assert!(area > last_area);
        assert!(latency >= last_latency);
        last_area = area;
        last_latency = latency;
    }
}

#[test]
fn noc_and_bus_charge_the_same_interface_check() {
    // S-7: the distributed check is interconnect-agnostic — the APU adds
    // the same ~12-cycle delta on the mesh that the LF adds on the bus.
    use secbus_fault::FaultPlan;
    use secbus_noc::{run_noc_soak, NocSoakConfig};
    let [plain, protected] = [false, true].map(|protected| {
        let cfg = NocSoakConfig {
            initiators: 4,
            period: 16,
            cycles: 10_000,
            drain_cycles: 0,
            protected,
        };
        run_noc_soak(&cfg, FaultPlan::empty())
    });
    let delta = protected.mean_latency.unwrap() - plain.mean_latency.unwrap();
    assert!((delta - 12.0).abs() < 4.0, "NoC APU delta {delta}");
}

#[test]
fn tree_depth_cost_is_logarithmic() {
    // S-9: with an explicit per-level IC cost, verification grows with
    // log2(region size), not linearly.
    use secbus_core::CryptoTiming;
    let t = CryptoTiming::with_tree_cost(2);
    let small = t.ic_verify_cycles(4); // 256 B region
    let large = t.ic_verify_cycles(16); // 1 MiB region
    assert_eq!(large - small, 2 * 12, "4096x the data, +24 cycles only");
}

#[test]
fn attack_outcomes_match_protection_levels() {
    use secbus_attack::{run_all_scenarios, Scenario};
    let outcomes = run_all_scenarios(77);
    for o in &outcomes {
        match o.scenario {
            Scenario::SpoofPrivate
            | Scenario::ReplayPrivate
            | Scenario::RelocatePrivate
            | Scenario::HijackedIp
            | Scenario::DosViolating
            | Scenario::CodeInjection => {
                assert!(o.detected(), "{} must be detected", o.scenario.name());
                assert!(o.contained, "{} must be contained", o.scenario.name());
            }
            Scenario::SpoofCipherOnly => {
                assert!(!o.detected());
                assert!(!o.data_compromised, "garbled, not chosen");
            }
            Scenario::SpoofPublic => {
                assert!(o.data_compromised, "the unprotected hole");
            }
        }
    }
}
