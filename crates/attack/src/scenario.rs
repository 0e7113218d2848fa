//! End-to-end attack scenarios against the case-study platform.
//!
//! Each scenario measures the paper's three §III-C security features:
//!
//! * **fast reaction** — `detection_latency`: cycles from injection to the
//!   first alert at the monitor;
//! * **containment** — `contained`: the violating traffic never appeared
//!   on the bus (checked against the bus trace) and tampered data was
//!   never delivered to an IP;
//! * **impact** — `data_compromised`: whether attacker-chosen plaintext
//!   reached an IP (the unprotected-region scenarios show exactly when it
//!   does).

use secbus_bus::{AddrRange, Op, Transaction, Width};
use secbus_core::{AdfSet, ConfigMemory, Rwa, SecurityPolicy};
use secbus_cpu::{assemble, Mb32Core, StreamIp, SyntheticConfig, SyntheticMaster};
use secbus_mem::{Bram, ExternalDdr};
use secbus_sim::{Cycle, SimRng};
use secbus_soc::casestudy::{
    lcf_policies, DDR_BASE, DDR_CIPHER_BASE, DDR_LEN, DDR_PRIVATE_BASE, DDR_PUBLIC_BASE,
    SHARED_BRAM_BASE,
};
use secbus_soc::{Soc, SocBuilder};

use crate::hijack::{AttackOp, DosFlooder, HijackedMaster};
use crate::tamper::Adversary;

/// The canned scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Random bytes into the ciphered+integrity region.
    SpoofPrivate,
    /// Old genuine ciphertext restored in the private region.
    ReplayPrivate,
    /// Genuine ciphertext copied between private-region blocks.
    RelocatePrivate,
    /// Random bytes into the cipher-only region (detected? no — garbled).
    SpoofCipherOnly,
    /// Attacker-chosen bytes into the unprotected region (the hole).
    SpoofPublic,
    /// A compromised IP issuing out-of-policy transactions.
    HijackedIp,
    /// A flood of violating requests from a compromised IP.
    DosViolating,
    /// Malicious code injected into bus-fetched code in the public region.
    CodeInjection,
}

impl Scenario {
    /// All scenarios in report order.
    pub const ALL: [Scenario; 8] = [
        Scenario::SpoofPrivate,
        Scenario::ReplayPrivate,
        Scenario::RelocatePrivate,
        Scenario::SpoofCipherOnly,
        Scenario::SpoofPublic,
        Scenario::HijackedIp,
        Scenario::DosViolating,
        Scenario::CodeInjection,
    ];

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::SpoofPrivate => "spoof private (cipher+integrity)",
            Scenario::ReplayPrivate => "replay private (cipher+integrity)",
            Scenario::RelocatePrivate => "relocate private (cipher+integrity)",
            Scenario::SpoofCipherOnly => "spoof cipher-only region",
            Scenario::SpoofPublic => "spoof unprotected region",
            Scenario::HijackedIp => "hijacked IP (out-of-policy accesses)",
            Scenario::DosViolating => "DoS flood of violating requests",
            Scenario::CodeInjection => "code injection via unprotected code",
        }
    }
}

/// What happened when a scenario ran.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Which scenario.
    pub scenario: Scenario,
    /// Cycle at which the tampering / hijack turn happened.
    pub injected_at: Cycle,
    /// First alert at the monitor, if any.
    pub detected_at: Option<Cycle>,
    /// Cycles from injection to detection.
    pub detection_latency: Option<u64>,
    /// The violating traffic never reached the bus AND no tampered data
    /// was delivered as valid to an IP.
    pub contained: bool,
    /// Attacker-chosen plaintext reached an IP as valid data.
    pub data_compromised: bool,
    /// Total alerts raised.
    pub alerts: u64,
}

impl AttackOutcome {
    /// Whether the attack was detected at all.
    pub fn detected(&self) -> bool {
        self.detected_at.is_some()
    }
}

/// Reader policy over one DDR window plus a benign BRAM window.
fn reader_policies(window_base: u32, window_len: u32) -> ConfigMemory {
    ConfigMemory::with_policies(vec![
        SecurityPolicy::internal(
            1,
            AddrRange::new(window_base, window_len),
            Rwa::ReadWrite,
            AdfSet::ALL,
        ),
        SecurityPolicy::internal(
            2,
            AddrRange::new(SHARED_BRAM_BASE, 0x1000),
            Rwa::ReadWrite,
            AdfSet::ALL,
        ),
    ])
    .unwrap()
}

/// A small platform: one reader hammering `read_addr`, one writer
/// refreshing `write_addr` (if given), the protected DDR, a BRAM.
fn tamper_soc(read_addr: u32, write_addr: Option<u32>, seed: u64) -> Soc {
    let reader = SyntheticMaster::new(
        "reader",
        SyntheticConfig {
            windows: vec![(read_addr, 4, 1)],
            read_ratio: 1.0,
            widths: vec![Width::Word],
            burst: 1,
            period: 16,
            total_ops: 0,
        },
        SimRng::new(seed),
    );
    let mut builder = SocBuilder::new().add_protected_master(
        Box::new(reader),
        reader_policies(read_addr & !0xfff, 0x1000),
    );
    if let Some(addr) = write_addr {
        let writer = StreamIp::new("writer", addr, 64, 0);
        builder =
            builder.add_protected_master(Box::new(writer), reader_policies(addr & !0xfff, 0x1000));
    }
    builder
        .add_bram(
            "bram",
            AddrRange::new(SHARED_BRAM_BASE, 0x1000),
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

/// Whether any granted transaction matching `pred` reached the bus. A
/// bus trace that evicted grants cannot prove a negative, so it answers
/// yes: containment fails instead of passing on the grants it kept.
fn reached_bus(soc: &Soc, pred: impl Fn(&Transaction) -> bool) -> bool {
    let trace = soc.bus().trace();
    trace.dropped() > 0 || trace.iter().any(|(_, t)| pred(t))
}

fn finish(
    scenario: Scenario,
    soc: &Soc,
    injected_at: Cycle,
    contained: bool,
    data_compromised: bool,
) -> AttackOutcome {
    let detected_at = soc.monitor().first_alert().map(|(c, _)| *c);
    AttackOutcome {
        scenario,
        injected_at,
        detected_at,
        detection_latency: detected_at.map(|d| d.saturating_since(injected_at)),
        contained,
        data_compromised,
        alerts: soc.monitor().alert_count(),
    }
}

/// Run a tamper-class scenario: warm up, tamper, observe.
fn run_tamper(scenario: Scenario, seed: u64) -> AttackOutcome {
    let (read_addr, write_addr) = match scenario {
        Scenario::SpoofPrivate | Scenario::RelocatePrivate => (DDR_PRIVATE_BASE + 0x100, None),
        Scenario::ReplayPrivate => (DDR_PRIVATE_BASE, Some(DDR_PRIVATE_BASE)),
        Scenario::SpoofCipherOnly => (DDR_CIPHER_BASE + 0x40, None),
        Scenario::SpoofPublic => (DDR_PUBLIC_BASE + 0x40, None),
        _ => unreachable!("not a tamper scenario"),
    };
    let mut soc = tamper_soc(read_addr, write_addr, seed);
    let mut adversary = Adversary::new(SimRng::new(seed ^ 0xdead));

    // Warm-up: benign reads (and writes) flow.
    soc.run(2_000);
    assert_eq!(
        soc.monitor().alert_count(),
        0,
        "benign warm-up must be clean"
    );

    let dev_off = read_addr - DDR_BASE;
    let block_off = dev_off & !15;
    let mut injected_at = soc.now();
    match scenario {
        Scenario::SpoofPrivate | Scenario::SpoofCipherOnly => {
            let ddr = soc.ddr_mut().unwrap();
            adversary.spoof_random(ddr, block_off, 16);
        }
        Scenario::SpoofPublic => {
            let ddr = soc.ddr_mut().unwrap();
            adversary.spoof_with(ddr, block_off, &0xE71C_0DE5u32.to_le_bytes());
        }
        Scenario::ReplayPrivate => {
            // Snapshot an old sealed state, let the writer move on, then
            // restore the stale ciphertext.
            let ddr = soc.ddr_mut().unwrap();
            let old = adversary.snapshot(ddr, block_off, 16);
            soc.run(1_000); // writer refreshes the block
            injected_at = soc.now();
            let ddr = soc.ddr_mut().unwrap();
            adversary.replay(ddr, block_off, &old);
        }
        Scenario::RelocatePrivate => {
            let ddr = soc.ddr_mut().unwrap();
            adversary.relocate(ddr, 0x0, block_off, 16);
        }
        _ => unreachable!(),
    }

    // Observe.
    soc.run(4_000);

    let reader_errors = soc.master_device(0).stats().counter("traffic.err");
    let detected = soc.monitor().alert_count() > 0;
    // Tampered data delivered as valid = reader kept succeeding AND the
    // bytes were attacker-chosen (only meaningful for SpoofPublic).
    let data_compromised = matches!(scenario, Scenario::SpoofPublic);
    // Containment: in integrity scenarios the read is refused (errors) and
    // nothing tampered is delivered; in cipher-only the delivery happens
    // but is garbled (not attacker-chosen); in public the attack succeeds.
    let contained = match scenario {
        Scenario::SpoofPrivate | Scenario::ReplayPrivate | Scenario::RelocatePrivate => {
            detected && reader_errors > 0
        }
        Scenario::SpoofCipherOnly => true, // plaintext never attacker-chosen
        Scenario::SpoofPublic => false,
        _ => unreachable!(),
    };
    finish(scenario, &soc, injected_at, contained, data_compromised)
}

/// The hijacked-IP scenario.
fn run_hijack(seed: u64) -> AttackOutcome {
    let benign_addr = SHARED_BRAM_BASE;
    let turn_at = 1_000;
    let script = vec![
        // Unauthorized address (no policy).
        AttackOp {
            op: Op::Write,
            addr: SHARED_BRAM_BASE + 0x8000,
            width: Width::Word,
            data: 1,
        },
        // Direction violation: read a write-only window? — policy below is
        // rw on the benign block only, so this is NoPolicy again at +0x4000.
        AttackOp {
            op: Op::Read,
            addr: SHARED_BRAM_BASE + 0x4000,
            width: Width::Word,
            data: 0,
        },
        // Format violation inside the allowed window.
        AttackOp {
            op: Op::Write,
            addr: benign_addr,
            width: Width::Byte,
            data: 0xEE,
        },
    ];
    let mal = HijackedMaster::new("mal-ip", benign_addr, 8, turn_at, script);
    let policies = ConfigMemory::with_policies(vec![SecurityPolicy::internal(
        1,
        AddrRange::new(benign_addr, 0x100),
        Rwa::ReadWrite,
        AdfSet::WORD_ONLY,
    )])
    .unwrap();
    let mut soc = SocBuilder::new()
        .add_protected_master(Box::new(mal), policies)
        .add_bram(
            "bram",
            AddrRange::new(SHARED_BRAM_BASE, 0x1_0000),
            Bram::new(0x1_0000),
            None,
        )
        .build();
    let _ = seed;
    soc.run(8_000);

    let injected_at = soc
        .master_as::<HijackedMaster>(0)
        .unwrap()
        .first_attack_issue()
        .expect("attack phase ran");
    // Containment per the paper's §IV-B-1 semantics: a violating WRITE
    // must never appear on the bus (writes are checked before the bus);
    // a violating READ request may be granted, but its data is discarded
    // before the IP (covered by the rejection count below).
    let leaked = reached_bus(&soc, |t| {
        t.op == Op::Write
            && (t.addr == SHARED_BRAM_BASE + 0x8000
                || (t.addr == SHARED_BRAM_BASE && t.width == Width::Byte))
    });
    let rejections = soc
        .master_as::<HijackedMaster>(0)
        .unwrap()
        .attack_rejections();
    finish(
        Scenario::HijackedIp,
        &soc,
        injected_at,
        !leaked && rejections == 3,
        false,
    )
}

/// The violating-flood DoS scenario: the flood dies at the interface, the
/// victim's latency stays flat.
fn run_dos(seed: u64) -> AttackOutcome {
    let victim_window = (SHARED_BRAM_BASE, 0x100u32, 1u32);
    let build = |with_flood: bool| {
        let victim = SyntheticMaster::new(
            "victim",
            SyntheticConfig {
                windows: vec![victim_window],
                read_ratio: 0.5,
                widths: vec![Width::Word],
                burst: 1,
                period: 8,
                total_ops: 0,
            },
            SimRng::new(seed),
        );
        let mut b = SocBuilder::new().add_protected_master(
            Box::new(victim),
            ConfigMemory::with_policies(vec![SecurityPolicy::internal(
                1,
                AddrRange::new(SHARED_BRAM_BASE, 0x100),
                Rwa::ReadWrite,
                AdfSet::ALL,
            )])
            .unwrap(),
        );
        if with_flood {
            // Flooder's policy covers nothing: every request violates.
            let flooder = DosFlooder::new("flooder", SHARED_BRAM_BASE + 0x8000, 0);
            b = b.add_protected_master(Box::new(flooder), ConfigMemory::new());
        }
        b.add_bram(
            "bram",
            AddrRange::new(SHARED_BRAM_BASE, 0x1_0000),
            Bram::new(0x1_0000),
            None,
        )
        .build()
    };

    let mut clean = build(false);
    clean.run(10_000);
    let clean_latency = clean
        .master_device(0)
        .stats()
        .histogram("traffic.latency")
        .and_then(|h| h.mean())
        .unwrap_or(0.0);

    let mut soc = build(true);
    soc.run(10_000);
    let victim_latency = soc
        .master_device(0)
        .stats()
        .histogram("traffic.latency")
        .and_then(|h| h.mean())
        .unwrap_or(0.0);
    let flood_on_bus = reached_bus(&soc, |t| t.addr == SHARED_BRAM_BASE + 0x8000);

    // Contained iff the flood never consumed the bus and the victim's
    // latency stayed within 10% of the clean run.
    let contained = !flood_on_bus && victim_latency <= clean_latency * 1.10;
    finish(Scenario::DosViolating, &soc, Cycle(0), contained, false)
}

/// Malicious code injected into bus-fetched code in the unprotected region.
fn run_code_injection(seed: u64) -> AttackOutcome {
    // Benign loop, fetched over the bus from the PUBLIC (unprotected) DDR:
    //   writes an increasing counter to an allowed BRAM word, forever.
    let benign = assemble(
        r"
        li   r1, 0x20000000
        addi r2, r0, 0
    loop:
        sw   r2, 0(r1)
        addi r2, r2, 1
        j    loop
        ",
    )
    .unwrap();
    let code_base = DDR_PUBLIC_BASE;
    let mut ddr = ExternalDdr::new(DDR_LEN);
    for (i, w) in benign.iter().enumerate() {
        ddr.load(code_base - DDR_BASE + 4 * i as u32, &w.to_le_bytes());
    }
    let core = Mb32Core::with_bus_fetch("cpu0", code_base);
    let policies = ConfigMemory::with_policies(vec![
        // Fetch window: read-only over the public code region.
        SecurityPolicy::internal(
            1,
            AddrRange::new(code_base, 0x1000),
            Rwa::ReadOnly,
            AdfSet::WORD_ONLY,
        ),
        // Data window: the one allowed BRAM word block.
        SecurityPolicy::internal(
            2,
            AddrRange::new(SHARED_BRAM_BASE, 0x10),
            Rwa::ReadWrite,
            AdfSet::ALL,
        ),
    ])
    .unwrap();
    let mut soc = SocBuilder::new()
        .add_protected_master(Box::new(core), policies)
        .add_bram(
            "bram",
            AddrRange::new(SHARED_BRAM_BASE, 0x1_0000),
            Bram::new(0x1_0000),
            None,
        )
        .set_ddr(
            "ddr",
            AddrRange::new(DDR_BASE, DDR_LEN),
            ddr,
            Some(lcf_policies()),
        )
        .build();

    soc.run(5_000);
    assert_eq!(soc.monitor().alert_count(), 0, "benign loop is clean");

    // The attacker rewrites `sw r2, 0(r1)` into `sw r2, 0(r0)` — the
    // store now targets address 0, which no policy covers.
    use secbus_cpu::isa::{Instr, MemSize, Reg};
    let evil = Instr::Store {
        size: MemSize::Word,
        rb: Reg(2),
        ra: Reg(0),
        off: 0,
    }
    .encode();
    let injected_at = soc.now();
    let adversary = Adversary::new(SimRng::new(seed));
    {
        let ddr = soc.ddr_mut().unwrap();
        // The sw is the 5th word (after li=2 words + addi + label).
        adversary.spoof_with(ddr, code_base - DDR_BASE + 4 * 3, &evil.to_le_bytes());
    }
    soc.run(5_000);

    let detected = soc.monitor().alert_count() > 0;
    // Containment: no store to address 0 on the bus.
    let leaked = reached_bus(&soc, |t| t.op == Op::Write && t.addr < 0x10);
    finish(
        Scenario::CodeInjection,
        &soc,
        injected_at,
        detected && !leaked,
        false,
    )
}

/// Run one scenario.
pub fn run_scenario(scenario: Scenario, seed: u64) -> AttackOutcome {
    match scenario {
        Scenario::SpoofPrivate
        | Scenario::ReplayPrivate
        | Scenario::RelocatePrivate
        | Scenario::SpoofCipherOnly
        | Scenario::SpoofPublic => run_tamper(scenario, seed),
        Scenario::HijackedIp => run_hijack(seed),
        Scenario::DosViolating => run_dos(seed),
        Scenario::CodeInjection => run_code_injection(seed),
    }
}

/// Run every scenario with one seed.
pub fn run_all_scenarios(seed: u64) -> Vec<AttackOutcome> {
    Scenario::ALL
        .iter()
        .map(|&s| run_scenario(s, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reached_bus_answers_yes_on_an_overflowed_trace() {
        let (soc, target) = crate::overflow::bus_trace();
        assert!(soc.bus().trace().dropped() > 0, "the trace overflowed");
        assert!(!soc.bus().trace().iter().any(|(_, t)| t.addr == target));
        assert!(reached_bus(&soc, |t| t.addr == target));
    }

    #[test]
    fn spoof_private_is_detected_and_contained() {
        let o = run_scenario(Scenario::SpoofPrivate, 42);
        assert!(o.detected(), "integrity core must catch spoofing");
        assert!(o.contained);
        assert!(!o.data_compromised);
        assert!(o.detection_latency.unwrap() < 2_000, "fast reaction");
    }

    #[test]
    fn replay_private_is_detected() {
        let o = run_scenario(Scenario::ReplayPrivate, 42);
        assert!(o.detected());
        assert!(o.contained);
    }

    #[test]
    fn relocate_private_is_detected() {
        let o = run_scenario(Scenario::RelocatePrivate, 42);
        assert!(o.detected());
        assert!(o.contained);
    }

    #[test]
    fn cipher_only_spoof_is_garbled_but_undetected() {
        let o = run_scenario(Scenario::SpoofCipherOnly, 42);
        assert!(!o.detected(), "no integrity core on this region");
        assert!(o.contained, "attacker cannot choose the plaintext");
        assert!(!o.data_compromised);
    }

    #[test]
    fn public_spoof_succeeds_unchallenged() {
        let o = run_scenario(Scenario::SpoofPublic, 42);
        assert!(!o.detected());
        assert!(!o.contained);
        assert!(o.data_compromised, "the unprotected hole is real");
    }

    #[test]
    fn hijacked_ip_is_stopped_at_its_interface() {
        let o = run_scenario(Scenario::HijackedIp, 42);
        assert!(o.detected());
        assert!(o.contained, "no attack transaction may reach the bus");
        assert_eq!(o.alerts, 3, "one alert per scripted attack");
        assert!(
            o.detection_latency.unwrap() <= 24,
            "detected within the SB pass"
        );
    }

    #[test]
    fn dos_flood_does_not_reach_the_bus() {
        let o = run_scenario(Scenario::DosViolating, 42);
        assert!(o.detected());
        assert!(o.contained, "victim latency must stay flat");
        assert!(o.alerts > 100, "the whole flood raised alerts");
    }

    #[test]
    fn code_injection_is_contained_by_the_lf() {
        let o = run_scenario(Scenario::CodeInjection, 42);
        assert!(o.detected());
        assert!(o.contained);
    }

    #[test]
    fn all_scenarios_run() {
        let outcomes = run_all_scenarios(7);
        assert_eq!(outcomes.len(), Scenario::ALL.len());
        // Exactly the two unprotected/cipher-only cases go undetected.
        let undetected: Vec<_> = outcomes
            .iter()
            .filter(|o| !o.detected())
            .map(|o| o.scenario)
            .collect();
        assert_eq!(
            undetected,
            vec![Scenario::SpoofCipherOnly, Scenario::SpoofPublic]
        );
    }
}
