//! The paper's case study platform.
//!
//! > "This system contains 3 MicroBlaze softcore microprocessors, One
//! > internal shared memory (BRAM blocks), one external memory (DDR RAM)
//! > and one dedicated IP."
//!
//! Memory map:
//!
//! ```text
//! 0x2000_0000  64 KiB   shared BRAM (internal, trusted)
//! 0x2000_F000           the dedicated IP's FIFO window inside the BRAM
//! 0x8000_0000  256 KiB  DDR "private"  — ciphered + integrity-checked
//! 0x8004_0000  256 KiB  DDR "ciphered" — ciphered only
//! 0x8008_0000  512 KiB  DDR "public"   — unprotected (the deliberate
//!                                        cost-saving hole of §III-B)
//! ```
//!
//! Each of the four masters (3 cores + dedicated IP) sits behind a Local
//! Firewall with its own least-privilege policy set; the DDR sits behind
//! the LCF.

use secbus_bus::AddrRange;
use secbus_core::{AdfSet, ConfidentialityMode, ConfigMemory, IntegrityMode, Rwa, SecurityPolicy};
use secbus_cpu::{assemble, Mb32Core, StreamIp};
use secbus_mem::{Bram, ExternalDdr};

use crate::soc::{RetryPolicy, Soc, SocBuilder};

/// Shared BRAM base address.
pub const SHARED_BRAM_BASE: u32 = 0x2000_0000;
/// Shared BRAM size.
pub const SHARED_BRAM_LEN: u32 = 0x1_0000;
/// The dedicated IP's FIFO window (inside the shared BRAM).
pub const IP_FIFO_ADDR: u32 = 0x2000_F000;

/// External DDR base address.
pub const DDR_BASE: u32 = 0x8000_0000;
/// Total DDR size.
pub const DDR_LEN: u32 = 0x10_0000;
/// Ciphered + integrity-protected region ("private").
pub const DDR_PRIVATE_BASE: u32 = DDR_BASE;
/// Length of the private region.
pub const DDR_PRIVATE_LEN: u32 = 0x4_0000;
/// Cipher-only region.
pub const DDR_CIPHER_BASE: u32 = DDR_BASE + 0x4_0000;
/// Length of the cipher-only region.
pub const DDR_CIPHER_LEN: u32 = 0x4_0000;
/// Unprotected region ("public").
pub const DDR_PUBLIC_BASE: u32 = DDR_BASE + 0x8_0000;
/// Length of the public region.
pub const DDR_PUBLIC_LEN: u32 = 0x8_0000;

/// The LCF's AES-128 key for the private region.
pub const PRIVATE_KEY: [u8; 16] = *b"secbus-priv-key!";
/// The LCF's AES-128 key for the cipher-only region.
pub const CIPHER_KEY: [u8; 16] = *b"secbus-ciph-key!";

/// Knobs for assembling the case study.
#[derive(Debug, Clone)]
pub struct CaseStudyConfig {
    /// Instantiate firewalls (false = the Table I baseline system).
    pub security: bool,
    /// Monitor escalation threshold (0 = discard-only).
    pub monitor_threshold: u64,
    /// Override the three core programs (assembly source).
    pub programs: Option<[String; 3]>,
    /// Samples the dedicated IP streams (0 = forever).
    pub ip_samples: u64,
    /// Fault-resilience stack (watchdog, retry, quarantine recovery);
    /// `None` leaves the platform exactly as the paper describes it.
    pub resilience: Option<CaseResilience>,
    /// Integrity-Core trusted-node cache entries per region (`None` =
    /// the paper's uncached root walk).
    pub ic_cache: Option<usize>,
    /// Observability spine capacity in retained trace events (`None` =
    /// tracing off; behaviour is identical either way).
    pub trace: Option<usize>,
}

impl Default for CaseStudyConfig {
    fn default() -> Self {
        CaseStudyConfig {
            security: true,
            monitor_threshold: 0,
            programs: None,
            ip_samples: 16,
            resilience: None,
            ic_cache: None,
            trace: None,
        }
    }
}

/// The resilience stack applied to the case-study platform when
/// [`CaseStudyConfig::resilience`] is set.
#[derive(Debug, Clone, Copy)]
pub struct CaseResilience {
    /// Outstanding-transaction watchdog timeout, in cycles.
    pub watchdog: u64,
    /// Master-interface retry policy.
    pub retry: RetryPolicy,
    /// Monitor blocks become quarantines of this many cycles.
    pub quarantine: u64,
    /// Re-key ciphered regions during quarantine recovery.
    pub rekey: bool,
}

impl Default for CaseResilience {
    fn default() -> Self {
        CaseResilience {
            watchdog: 512,
            retry: RetryPolicy::default(),
            quarantine: 2_048,
            rekey: false,
        }
    }
}

/// Default program for core 0: fill a BRAM buffer, copy it into the
/// *private* (ciphered + integrity) DDR region, read it back and checksum.
pub const CPU0_PROGRAM: &str = r"
    li   r1, 0x20000000    ; bram
    li   r2, 0x80000000    ; ddr private
    addi r3, r0, 16        ; words to move
    addi r4, r0, 0         ; i
fill:
    addi r5, r4, 100       ; value = i + 100
    add  r7, r4, r4
    add  r7, r7, r7        ; r7 = 4*i
    add  r9, r1, r7
    sw   r5, 0(r9)
    addi r4, r4, 1
    blt  r4, r3, fill
    addi r4, r0, 0
copy:
    add  r7, r4, r4
    add  r7, r7, r7
    add  r9, r1, r7
    lw   r5, 0(r9)
    add  r9, r2, r7
    sw   r5, 0(r9)
    addi r4, r4, 1
    blt  r4, r3, copy
    addi r4, r0, 0
    addi r11, r0, 0        ; checksum
check:
    add  r7, r4, r4
    add  r7, r7, r7
    add  r9, r2, r7
    lw   r5, 0(r9)
    add  r11, r11, r5
    addi r4, r4, 1
    blt  r4, r3, check
    ; store checksum to bram[1024]
    li   r9, 0x20001000
    sw   r11, 0(r9)
    halt
";

/// Default program for core 1: iterative Fibonacci, results into the
/// cipher-only DDR region.
pub const CPU1_PROGRAM: &str = r"
    li   r1, 0x80040000    ; ddr cipher-only
    addi r2, r0, 1         ; fib(1)
    addi r3, r0, 1         ; fib(2)
    addi r4, r0, 0         ; i
    addi r5, r0, 12        ; count
loop:
    add  r6, r2, r3
    mv   r2, r3
    mv   r3, r6
    add  r7, r4, r4
    add  r7, r7, r7
    add  r8, r1, r7
    sw   r6, 0(r8)
    addi r4, r4, 1
    blt  r4, r5, loop
    halt
";

/// Default program for core 2: sum a table from the *public* (unprotected)
/// DDR region into the shared BRAM — the kind of task that touches the
/// attacker-writable window.
pub const CPU2_PROGRAM: &str = r"
    li   r1, 0x80080000    ; ddr public table
    addi r2, r0, 0         ; sum
    addi r3, r0, 0         ; i
    addi r4, r0, 32        ; count
loop:
    add  r5, r3, r3
    add  r5, r5, r5
    add  r6, r1, r5
    lw   r7, 0(r6)
    add  r2, r2, r7
    addi r3, r3, 1
    blt  r3, r4, loop
    li   r6, 0x20002000
    sw   r2, 0(r6)
    halt
";

/// Build the LCF policy table (the external policies with CM/IM/CK).
pub fn lcf_policies() -> ConfigMemory {
    ConfigMemory::with_policies(vec![
        SecurityPolicy::external(
            0x10,
            AddrRange::new(DDR_PRIVATE_BASE, DDR_PRIVATE_LEN),
            Rwa::ReadWrite,
            AdfSet::ALL,
            ConfidentialityMode::Encrypt,
            IntegrityMode::Verify,
            Some(PRIVATE_KEY),
        ),
        SecurityPolicy::external(
            0x11,
            AddrRange::new(DDR_CIPHER_BASE, DDR_CIPHER_LEN),
            Rwa::ReadWrite,
            AdfSet::ALL,
            ConfidentialityMode::Encrypt,
            IntegrityMode::Bypass,
            Some(CIPHER_KEY),
        ),
        SecurityPolicy::external(
            0x12,
            AddrRange::new(DDR_PUBLIC_BASE, DDR_PUBLIC_LEN),
            Rwa::ReadWrite,
            AdfSet::ALL,
            ConfidentialityMode::Bypass,
            IntegrityMode::Bypass,
            None,
        ),
    ])
    .expect("case-study LCF policies are disjoint")
}

fn cpu0_policies() -> ConfigMemory {
    ConfigMemory::with_policies(vec![
        SecurityPolicy::internal(
            1,
            AddrRange::new(SHARED_BRAM_BASE, SHARED_BRAM_LEN),
            Rwa::ReadWrite,
            AdfSet::ALL,
        ),
        SecurityPolicy::internal(
            2,
            AddrRange::new(DDR_PRIVATE_BASE, DDR_PRIVATE_LEN),
            Rwa::ReadWrite,
            AdfSet::ALL,
        ),
        SecurityPolicy::internal(
            3,
            AddrRange::new(DDR_PUBLIC_BASE, DDR_PUBLIC_LEN),
            Rwa::ReadOnly,
            AdfSet::ALL,
        ),
    ])
    .expect("cpu0 policies are disjoint")
}

fn cpu1_policies() -> ConfigMemory {
    ConfigMemory::with_policies(vec![
        SecurityPolicy::internal(
            4,
            AddrRange::new(SHARED_BRAM_BASE, 0x8000),
            Rwa::ReadWrite,
            AdfSet::ALL,
        ),
        SecurityPolicy::internal(
            5,
            AddrRange::new(DDR_CIPHER_BASE, DDR_CIPHER_LEN),
            Rwa::ReadWrite,
            AdfSet::ALL,
        ),
        SecurityPolicy::internal(
            6,
            AddrRange::new(DDR_PUBLIC_BASE, DDR_PUBLIC_LEN),
            Rwa::ReadOnly,
            AdfSet::ALL,
        ),
    ])
    .expect("cpu1 policies are disjoint")
}

fn cpu2_policies() -> ConfigMemory {
    ConfigMemory::with_policies(vec![
        SecurityPolicy::internal(
            7,
            AddrRange::new(SHARED_BRAM_BASE, SHARED_BRAM_LEN),
            Rwa::ReadWrite,
            AdfSet::ALL,
        ),
        SecurityPolicy::internal(
            8,
            AddrRange::new(DDR_PUBLIC_BASE, DDR_PUBLIC_LEN),
            Rwa::ReadOnly,
            AdfSet::ALL,
        ),
    ])
    .expect("cpu2 policies are disjoint")
}

fn ip_policies() -> ConfigMemory {
    ConfigMemory::with_policies(vec![SecurityPolicy::internal(
        9,
        AddrRange::new(IP_FIFO_ADDR, 0x100),
        Rwa::WriteOnly,
        AdfSet::WORD_ONLY,
    )])
    .expect("ip policies are disjoint")
}

/// Assemble the case-study SoC.
pub fn case_study(config: CaseStudyConfig) -> Soc {
    let sources = config.programs.unwrap_or_else(|| {
        [
            CPU0_PROGRAM.into(),
            CPU1_PROGRAM.into(),
            CPU2_PROGRAM.into(),
        ]
    });
    let cores: Vec<Mb32Core> = sources
        .iter()
        .enumerate()
        .map(|(i, src)| {
            Mb32Core::with_local_program(
                format!("cpu{i}"),
                0,
                assemble(src).unwrap_or_else(|e| panic!("cpu{i} program: {e}")),
            )
        })
        .collect();

    let mut ddr = ExternalDdr::new(DDR_LEN);
    // Public table the cpu2 program sums: values 1..=32.
    for i in 0..32u32 {
        ddr.load(DDR_PUBLIC_BASE - DDR_BASE + 4 * i, &(i + 1).to_le_bytes());
    }

    let ip = StreamIp::new("ip0", IP_FIFO_ADDR, 8, config.ip_samples);

    let mut builder = SocBuilder::new().monitor_threshold(config.monitor_threshold);
    if !config.security {
        builder = builder.without_security();
    }
    if let Some(r) = config.resilience {
        builder = builder
            .watchdog(r.watchdog)
            .retry(r.retry)
            .quarantine(r.quarantine)
            .auto_recover(r.rekey);
    }
    if let Some(entries) = config.ic_cache {
        builder = builder.ic_cache(entries);
    }
    if let Some(capacity) = config.trace {
        builder = builder.trace(capacity);
    }
    let policy_sets = [cpu0_policies(), cpu1_policies(), cpu2_policies()];
    for (core, policies) in cores.into_iter().zip(policy_sets) {
        builder = builder.add_protected_master(Box::new(core), policies);
    }
    builder = builder.add_protected_master(Box::new(ip), ip_policies());
    builder = builder.add_bram(
        "shared-bram",
        AddrRange::new(SHARED_BRAM_BASE, SHARED_BRAM_LEN),
        Bram::new(SHARED_BRAM_LEN),
        None,
    );
    builder = builder.set_ddr(
        "ddr",
        AddrRange::new(DDR_BASE, DDR_LEN),
        ddr,
        Some(lcf_policies()),
    );
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use secbus_cpu::Reg;

    #[test]
    fn case_study_runs_to_completion() {
        let mut soc = case_study(CaseStudyConfig::default());
        let cycles = soc.run_until_halt(2_000_000);
        assert!(cycles < 2_000_000, "did not halt");
        // cpu0's checksum: sum(100..116) = 1720, stored at bram[0x1000].
        let bram = soc.bram_contents().unwrap();
        let checksum = u32::from_le_bytes(bram[0x1000..0x1004].try_into().unwrap());
        assert_eq!(checksum, (100..116).sum::<u32>());
        // cpu2's sum of the public table: 1+…+32 = 528 at bram[0x2000].
        let sum = u32::from_le_bytes(bram[0x2000..0x2004].try_into().unwrap());
        assert_eq!(sum, (1..=32).sum::<u32>());
        // The IP streamed its samples into the FIFO.
        let fifo_off = (IP_FIFO_ADDR - SHARED_BRAM_BASE) as usize;
        let last = u32::from_le_bytes(bram[fifo_off..fifo_off + 4].try_into().unwrap());
        assert_eq!(last, 15, "16 samples, last value 15");
        // No violations in the benign run.
        assert_eq!(soc.monitor().alert_count(), 0);
    }

    #[test]
    fn case_study_private_region_is_ciphertext_at_rest() {
        let mut soc = case_study(CaseStudyConfig::default());
        soc.run_until_halt(2_000_000);
        // cpu0 wrote plaintext values 100..116 into the private region via
        // the LCF; the raw DDR bytes must not contain them.
        let ddr = soc.ddr().unwrap();
        let raw = ddr.snoop(0, 64);
        let plain: Vec<u8> = (0..16u32).flat_map(|i| (i + 100).to_le_bytes()).collect();
        assert_ne!(raw, &plain[..], "private region must be ciphered at rest");
        // But the core *read back* the correct checksum (verified above in
        // case_study_runs_to_completion).
    }

    #[test]
    fn case_study_public_region_is_plaintext_at_rest() {
        let soc = case_study(CaseStudyConfig::default());
        let ddr = soc.ddr().unwrap();
        let raw = ddr.snoop(DDR_PUBLIC_BASE - DDR_BASE, 8);
        assert_eq!(raw, &[1, 0, 0, 0, 2, 0, 0, 0]);
    }

    #[test]
    fn baseline_case_study_matches_functionally() {
        let mut soc = case_study(CaseStudyConfig {
            security: false,
            ..Default::default()
        });
        let cycles = soc.run_until_halt(2_000_000);
        assert!(cycles < 2_000_000);
        let bram = soc.bram_contents().unwrap();
        let checksum = u32::from_le_bytes(bram[0x1000..0x1004].try_into().unwrap());
        assert_eq!(checksum, (100..116).sum::<u32>());
    }

    #[test]
    fn protected_run_is_slower_than_baseline() {
        let mut protected = case_study(CaseStudyConfig::default());
        let protected_cycles = protected.run_until_halt(2_000_000);
        let mut baseline = case_study(CaseStudyConfig {
            security: false,
            ..Default::default()
        });
        let baseline_cycles = baseline.run_until_halt(2_000_000);
        assert!(
            protected_cycles > baseline_cycles,
            "{protected_cycles} vs {baseline_cycles}"
        );
    }

    #[test]
    fn cpu0_cannot_write_public_region() {
        // cpu0's policy marks the public region read-only; a write from its
        // program must be contained.
        let programs = [
            r"
            li  r1, 0x80080000
            addi r2, r0, 99
            sw  r2, 0(r1)   ; violates cpu0's read-only rule
            halt
            "
            .to_string(),
            "halt".to_string(),
            "halt".to_string(),
        ];
        let mut soc = case_study(CaseStudyConfig {
            programs: Some(programs),
            ip_samples: 1,
            ..Default::default()
        });
        soc.run_until_halt(100_000);
        assert_eq!(soc.monitor().alert_count(), 1);
        // The public region still holds the boot value (1).
        let ddr = soc.ddr().unwrap();
        assert_eq!(
            ddr.snoop(DDR_PUBLIC_BASE - DDR_BASE, 4),
            &1u32.to_le_bytes()
        );
    }

    #[test]
    fn ip_firewall_is_write_only_word_only() {
        // Redirect the IP to read — impossible for StreamIp, so instead
        // give cpu0 the IP's narrow policy behaviourally: a byte write into
        // the FIFO window from the IP is a format violation. We emulate by
        // checking the policy table directly.
        let p = ip_policies();
        let pol = p.lookup(IP_FIFO_ADDR).unwrap();
        assert_eq!(pol.rwa, Rwa::WriteOnly);
        assert!(pol.adf.allows(secbus_bus::Width::Word));
        assert!(!pol.adf.allows(secbus_bus::Width::Byte));
    }

    #[test]
    fn registers_after_fib_program() {
        let mut soc = case_study(CaseStudyConfig::default());
        soc.run_until_halt(2_000_000);
        let cpu1 = soc.master_as::<Mb32Core>(1).unwrap();
        // fib sequence: r3 ends at fib(14) = 377 (1,1,2,3,…).
        assert_eq!(cpu1.reg(Reg(3)), 377);
    }
}
