//! # secbus-attack — the threat model, executable
//!
//! Implements the paper's §III attacker: logical attacks through the
//! external bus and external memory (the FPGA itself is trusted).
//!
//! * [`tamper::Adversary`] — the physical attacker on the DDR: snapshot,
//!   replay, relocate and spoof stored bytes, bypassing every functional
//!   path (and therefore every check — detection has to come from the
//!   Integrity Core).
//! * [`hijack::HijackedMaster`] — a compromised IP: runs a benign access
//!   pattern, then starts issuing out-of-policy transactions (processor
//!   hijacking after malicious code was introduced through an unprotected
//!   memory window).
//! * [`hijack::DosFlooder`] — denial-of-service: saturates its interface
//!   with requests; with a firewall in front, violating floods die at the
//!   interface instead of consuming the bus.
//! * [`scenario`] — canned end-to-end scenarios against the case study,
//!   each reporting detection latency, containment and data compromise —
//!   the three security features of §III-C, measured.
//! * [`campaign`] — seed-deterministic multi-stage campaigns (pivot,
//!   impersonation, epoch race, coordinated tamper) with DIFT taint
//!   accounting and cycle-stamped kill chains.

pub mod campaign;
pub mod hijack;
pub mod scenario;
pub mod tamper;

pub use campaign::{
    run_all_campaigns, run_campaign, CampaignConfig, CampaignKind, CampaignOutcome, KillChainEvent,
    StageReport,
};
pub use hijack::{AttackOp, DosFlooder, HijackPhase, HijackedMaster};
pub use scenario::{run_all_scenarios, AttackOutcome, Scenario};
pub use tamper::Adversary;

/// Systems whose bounded rings overflow, for the security-gate tests.
#[cfg(test)]
mod overflow {
    use secbus_bus::{AddrRange, BusConfig};
    use secbus_core::{AdfSet, ConfigMemory, Rwa, SecurityPolicy};
    use secbus_cpu::{assemble, Mb32Core};
    use secbus_mem::Bram;
    use secbus_soc::{Soc, SocBuilder, SHARED_BRAM_BASE};

    fn core(label: &str, program: &str) -> Box<Mb32Core> {
        Box::new(Mb32Core::with_local_program(
            label,
            0,
            assemble(program).unwrap(),
        ))
    }

    fn bram(b: SocBuilder) -> Soc {
        b.add_bram(
            "bram",
            AddrRange::new(SHARED_BRAM_BASE, 0x1000),
            Bram::new(0x1000),
            None,
        )
        .build()
    }

    /// An unguarded core stores to a target address once, then twelve
    /// times elsewhere, through a bus trace that keeps eight grants, so
    /// the store to the target is evicted. Returns the system and the
    /// target.
    pub(crate) fn bus_trace() -> (Soc, u32) {
        let target = SHARED_BRAM_BASE + 0x40;
        let program = format!(
            "li r1, {target:#x}\nli r2, {:#x}\nsw r2, 0(r1)\n{}halt\n",
            SHARED_BRAM_BASE + 0x80,
            "sw r2, 0(r2)\n".repeat(12),
        );
        let mut soc = bram(
            SocBuilder::new()
                .bus_config(BusConfig {
                    trace_capacity: 8,
                    ..BusConfig::default()
                })
                .add_master(core("writer", &program)),
        );
        soc.run_until_halt(10_000);
        (soc, target)
    }

    /// A guarded core stores outside its policy in a loop until the
    /// monitor has seen more alerts than its log keeps.
    pub(crate) fn monitor_log() -> Soc {
        let program = format!(
            "li r1, {:#x}\ntop:\nsw r1, 0(r1)\nbeq r0, r0, top\n",
            SHARED_BRAM_BASE + 0x800
        );
        let policy = SecurityPolicy::internal(
            1,
            AddrRange::new(SHARED_BRAM_BASE, 0x100),
            Rwa::ReadWrite,
            AdfSet::ALL,
        );
        let mut soc = bram(SocBuilder::new().add_protected_master(
            core("rogue", &program),
            ConfigMemory::with_policies(vec![policy]).unwrap(),
        ));
        for _ in 0..100 {
            if soc.monitor().log().dropped() > 0 {
                break;
            }
            soc.run(10_000);
        }
        soc
    }
}
