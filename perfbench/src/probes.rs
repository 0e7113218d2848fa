//! Standalone probes: the captured transaction stream replayed into a
//! fresh `LocalFirewall::check` and a sealed
//! `LocalCipheringFirewall::handle`, plus the bulk crypto primitives.

use std::hint::black_box;
use std::time::Instant;

use secbus_bus::{Op, Transaction};
use secbus_core::{ConfigMemory, CryptoTiming, FirewallId, LocalCipheringFirewall, LocalFirewall};
use secbus_crypto::{sha256, MemoryCipher, MerkleTree};
use secbus_mem::ExternalDdr;
use secbus_soc::casestudy::{
    lcf_policies, DDR_BASE, DDR_CIPHER_BASE, DDR_CIPHER_LEN, DDR_LEN, DDR_PRIVATE_BASE,
    DDR_PRIVATE_LEN, DDR_PUBLIC_BASE,
};

use crate::probe::Captured;
use crate::stats::median;

fn ns(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// Mean host ns per `LocalFirewall::check` over the captured stream,
/// each transaction checked by a firewall holding its master's table.
pub fn sb_check_ns(captured: &[Captured], tables: &[ConfigMemory]) -> f64 {
    if captured.is_empty() {
        return 0.0;
    }
    let mut fws: Vec<LocalFirewall> = tables
        .iter()
        .enumerate()
        .map(|(i, t)| LocalFirewall::new(FirewallId(i as u8), format!("probe {i}"), t.clone()))
        .collect();
    let start = Instant::now();
    for c in captured {
        black_box(fws[c.master].check(black_box(&c.txn), c.txn.issued_at));
    }
    ns(start) / captured.len() as f64
}

/// Host ns per `LocalCipheringFirewall::handle`, by access class, over
/// the captured DDR-bound stream replayed into a freshly sealed LCF.
#[derive(Debug, Default, Clone, Copy)]
pub struct LcfHandle {
    pub read_verify: f64,
    pub write_verify: f64,
    pub cipher_only: f64,
    pub bypass: f64,
}

fn sealed_lcf() -> (LocalCipheringFirewall, ExternalDdr) {
    let mut ddr = ExternalDdr::new(DDR_LEN);
    for i in 0..32u32 {
        ddr.load(DDR_PUBLIC_BASE - DDR_BASE + 4 * i, &(i + 1).to_le_bytes());
    }
    let mut lcf = LocalCipheringFirewall::new(
        FirewallId(0),
        "LCF probe",
        lcf_policies(),
        DDR_BASE,
        CryptoTiming::PAPER,
    );
    lcf.seal(&mut ddr);
    (lcf, ddr)
}

fn in_range(addr: u32, base: u32, len: u32) -> bool {
    addr >= base && addr - base < len
}

pub fn lcf_handle_ns(captured: &[Captured]) -> LcfHandle {
    let mut classes: [Vec<Transaction>; 4] = Default::default();
    for c in captured {
        let t = c.txn;
        let class = if in_range(t.addr, DDR_PRIVATE_BASE, DDR_PRIVATE_LEN) {
            usize::from(t.op == Op::Write)
        } else if in_range(t.addr, DDR_CIPHER_BASE, DDR_CIPHER_LEN) {
            2
        } else if in_range(t.addr, DDR_BASE, DDR_LEN) {
            3
        } else {
            continue;
        };
        classes[class].push(t);
    }
    let (mut lcf, mut ddr) = sealed_lcf();
    let mut per_class = [0.0; 4];
    for (class, txns) in classes.iter().enumerate() {
        if txns.is_empty() {
            continue;
        }
        let start = Instant::now();
        for t in txns {
            let _ = black_box(lcf.handle(&mut ddr, black_box(t), t.issued_at));
        }
        per_class[class] = ns(start) / txns.len() as f64;
    }
    LcfHandle {
        read_verify: per_class[0],
        write_verify: per_class[1],
        cipher_only: per_class[2],
        bypass: per_class[3],
    }
}

/// Median host ns of sealing the platform's DDR (CC over both ciphered
/// regions, Merkle build over the verified one).
pub fn seal_ns() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            black_box(sealed_lcf());
            ns(start)
        })
        .collect();
    median(&samples)
}

/// Bulk primitive rates: CTR keystream and SHA-256 in GB/s over 1 MiB,
/// and the median ns to build a Merkle tree over the verified region's
/// 16 Ki leaves.
pub fn crypto() -> (f64, f64, f64) {
    const BYTES: usize = 1 << 20;
    const ROUNDS: usize = 8;
    let mut buf = vec![0x5au8; BYTES];
    let cipher = MemoryCipher::new(b"perfbench-key-16");
    let start = Instant::now();
    for r in 0..ROUNDS {
        cipher.apply(r as u64 * BYTES as u64, 1, black_box(&mut buf));
    }
    let ctr = (BYTES * ROUNDS) as f64 / ns(start);
    let start = Instant::now();
    for _ in 0..ROUNDS {
        black_box(sha256(black_box(&buf)));
    }
    let sha = (BYTES * ROUNDS) as f64 / ns(start);
    let leaves: Vec<[u8; 32]> = (0..(DDR_PRIVATE_LEN / 16) as u64)
        .map(|i| sha256(&i.to_le_bytes()))
        .collect();
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            black_box(MerkleTree::build(black_box(&leaves)));
            ns(start)
        })
        .collect();
    (ctr, sha, median(&samples))
}
