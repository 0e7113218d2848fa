//! The physical attacker on the external memory.
//!
//! Everything here operates on raw stored bytes through
//! [`ExternalDdr::tamper`]/[`ExternalDdr::snoop`] — no simulated time, no
//! functional path, no checks. That is the point: the paper's §III-B
//! attacker owns the external bus and the DRAM; only the Local Ciphering
//! Firewall's cryptography can make the tampering *detectable* (integrity)
//! or *useless* (confidentiality).

use secbus_mem::ExternalDdr;
use secbus_sim::SimRng;

/// The external-memory attacker.
#[derive(Debug)]
pub struct Adversary {
    rng: SimRng,
}

impl Adversary {
    /// A deterministic adversary.
    pub fn new(rng: SimRng) -> Self {
        Adversary { rng }
    }

    /// Record the current bytes at `[offset, offset+len)` — the bus probe
    /// an attacker uses before a replay.
    pub fn snapshot(&self, ddr: &ExternalDdr, offset: u32, len: u32) -> Vec<u8> {
        ddr.snoop(offset, len).to_vec()
    }

    /// Restore previously captured bytes (replay attack).
    pub fn replay(&self, ddr: &mut ExternalDdr, offset: u32, snapshot: &[u8]) {
        ddr.tamper(offset, snapshot);
    }

    /// Copy `len` stored bytes from `src` to `dst` (relocation attack).
    pub fn relocate(&self, ddr: &mut ExternalDdr, src: u32, dst: u32, len: u32) {
        let bytes = ddr.snoop(src, len).to_vec();
        ddr.tamper(dst, &bytes);
    }

    /// Overwrite with attacker-chosen bytes (spoofing).
    pub fn spoof_with(&self, ddr: &mut ExternalDdr, offset: u32, bytes: &[u8]) {
        ddr.tamper(offset, bytes);
    }

    /// Overwrite with random bytes (blind spoofing / DoS on data).
    pub fn spoof_random(&mut self, ddr: &mut ExternalDdr, offset: u32, len: u32) {
        let mut bytes = vec![0u8; len as usize];
        self.rng.fill_bytes(&mut bytes);
        ddr.tamper(offset, &bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ddr() -> ExternalDdr {
        let mut d = ExternalDdr::new(256);
        for i in 0..256u32 {
            d.load(i, &[i as u8]);
        }
        d
    }

    #[test]
    fn replay_restores_old_bytes() {
        let mut d = ddr();
        let adv = Adversary::new(SimRng::new(1));
        let old = adv.snapshot(&d, 16, 16);
        d.tamper(16, &[0xff; 16]); // the system moved on
        adv.replay(&mut d, 16, &old);
        assert_eq!(d.snoop(16, 16), &old[..]);
    }

    #[test]
    fn relocation_copies_within_memory() {
        let mut d = ddr();
        let adv = Adversary::new(SimRng::new(2));
        adv.relocate(&mut d, 0, 64, 16);
        assert_eq!(d.snoop(64, 16), d.snoop(0, 16));
    }

    #[test]
    fn spoofing_changes_bytes() {
        let mut d = ddr();
        let mut adv = Adversary::new(SimRng::new(3));
        let before = adv.snapshot(&d, 32, 16);
        adv.spoof_random(&mut d, 32, 16);
        assert_ne!(d.snoop(32, 16), &before[..]);
        adv.spoof_with(&mut d, 32, &[0xAB; 4]);
        assert_eq!(d.snoop(32, 4), &[0xAB; 4]);
    }

    #[test]
    fn adversary_is_deterministic() {
        let mut d1 = ddr();
        let mut d2 = ddr();
        Adversary::new(SimRng::new(9)).spoof_random(&mut d1, 0, 32);
        Adversary::new(SimRng::new(9)).spoof_random(&mut d2, 0, 32);
        assert_eq!(d1.snoop(0, 32), d2.snoop(0, 32));
    }
}
