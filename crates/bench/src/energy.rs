//! Activity collection for the energy model (S-10): harvest the event
//! counters a run left behind and hand them to `secbus-area`'s model.

use secbus_area::{ActivityCounts, EnergyModel, EnergyReport};
use secbus_sim::Cycle;
use secbus_soc::Soc;

/// Collect activity counts from a finished run (`since` = run start).
pub fn collect_activity(soc: &Soc, since: Cycle) -> ActivityCounts {
    let bus = soc.bus().stats();
    // Every firewall in the fleet runs an SB check per access it sees:
    // master LFs, slave-side LFs and the LCF's embedded firewall.
    let sb_checks = soc.firewall_stats().counter("fw.checked");
    let (mut aes_blocks, mut hash_blocks, mut ddr_accesses) = (0, 0, 0);
    if let Some(lcf) = soc.lcf() {
        let reads = lcf.stats().counter("lcf.protected_reads");
        let writes = lcf.stats().counter("lcf.protected_writes");
        // Read = 1 decrypt; write = decrypt + re-encrypt.
        aes_blocks = reads + 2 * writes;
        // Verify on every protected access + path update on writes
        // (approximate the tree walk as one hash per access here; the
        // cycle-accurate cost lives in CryptoTiming).
        hash_blocks = reads + 2 * writes;
        ddr_accesses = reads + writes + lcf.stats().counter("lcf.unprotected_accesses");
    }
    if let Some(ddr) = soc.ddr() {
        // Row-level activity is a better proxy when the LCF is absent.
        ddr_accesses = ddr_accesses.max(ddr.row_hits() + ddr.row_misses());
    }
    let bus_grants = bus.counter("bus.grants");
    // Everything granted that didn't go external hit internal memory.
    let bram_accesses = bus_grants.saturating_sub(ddr_accesses);
    ActivityCounts {
        bus_grants,
        sb_checks,
        aes_blocks,
        hash_blocks,
        bram_accesses,
        ddr_accesses,
        cycles: soc.now().saturating_since(since),
    }
}

/// Run the case study (protected / unprotected) and estimate its energy.
pub fn case_study_energy(security: bool) -> (ActivityCounts, EnergyReport) {
    use secbus_soc::casestudy::{case_study, CaseStudyConfig};
    let mut soc = case_study(CaseStudyConfig {
        security,
        ..Default::default()
    });
    let start = soc.now();
    soc.run_until_halt(5_000_000);
    let activity = collect_activity(&soc, start);
    let report = EnergyModel::default().estimate(&activity);
    (activity, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protected_run_costs_more_dynamic_energy() {
        let (_, plain) = case_study_energy(false);
        let (act, prot) = case_study_energy(true);
        assert!(prot.dynamic_nj > plain.dynamic_nj);
        assert!(act.sb_checks > 0);
        assert!(act.aes_blocks > 0);
    }

    /// A slave-side LF checks every access it serves, so its SB checks
    /// are part of the energy bill: one check per BRAM grant here.
    #[test]
    fn slave_side_firewall_checks_are_counted() {
        use secbus_bus::AddrRange;
        use secbus_core::{AdfSet, ConfigMemory, Rwa, SecurityPolicy};
        use secbus_cpu::{assemble, Mb32Core};
        use secbus_mem::Bram;
        use secbus_soc::{SocBuilder, SHARED_BRAM_BASE};

        let program = format!(
            "li r1, {SHARED_BRAM_BASE:#x}\nsw r1, 0(r1)\nlw r2, 0(r1)\nsw r2, 4(r1)\nhalt\n"
        );
        let core = Mb32Core::with_local_program("cpu0", 0, assemble(&program).unwrap());
        let policy = SecurityPolicy::internal(
            1,
            AddrRange::new(SHARED_BRAM_BASE, 0x100),
            Rwa::ReadWrite,
            AdfSet::ALL,
        );
        let mut soc = SocBuilder::new()
            .add_master(Box::new(core))
            .add_bram(
                "bram",
                AddrRange::new(SHARED_BRAM_BASE, 0x1000),
                Bram::new(0x1000),
                Some(ConfigMemory::with_policies(vec![policy]).unwrap()),
            )
            .build();
        let start = soc.now();
        soc.run_until_halt(10_000);
        let activity = collect_activity(&soc, start);
        assert_eq!(activity.bus_grants, 3);
        assert_eq!(activity.sb_checks, 3, "the BRAM's LF checked every access");
    }

    #[test]
    fn crypto_share_is_visible_in_protected_runs() {
        let (_, prot) = case_study_energy(true);
        assert!(prot.share("AES (CC)") > 0.0);
        assert!(prot.share("hash tree (IC)") > 0.0);
    }
}
