//! External DDR memory: banked open-row timing and a raw tamper surface.
//!
//! The DDR chip and the bus wires to it are *outside* the FPGA's trust
//! boundary. [`ExternalDdr::tamper`] and [`ExternalDdr::snoop`] model the
//! physical attacker: they read and write the stored bits directly, without
//! going through the functional access path, without costing simulated
//! time, and without any possibility of detection at this layer. Detection
//! is exactly the Local Ciphering Firewall's job one level up.

use secbus_bus::Width;

use crate::device::{load_le, store_le, MemDevice, MemError};

/// DDR timing parameters, in controller cycles.
#[derive(Debug, Clone, Copy)]
pub struct DdrTiming {
    /// Column access latency on a row hit.
    pub cas: u64,
    /// Row-activate latency (row miss on an idle bank).
    pub trcd: u64,
    /// Precharge latency (row conflict: close the open row first).
    pub trp: u64,
    /// Extra cycles for a write completing in the controller.
    pub write_recovery: u64,
    /// Bytes per DRAM row.
    pub row_bytes: u32,
    /// Number of banks (must be a power of two).
    pub banks: u32,
}

impl Default for DdrTiming {
    fn default() -> Self {
        DdrTiming {
            cas: 10,
            trcd: 10,
            trp: 10,
            write_recovery: 2,
            row_bytes: 1024,
            banks: 8,
        }
    }
}

/// The external DDR memory.
#[derive(Debug, Clone)]
pub struct ExternalDdr {
    data: Vec<u8>,
    timing: DdrTiming,
    /// Open row per bank (`None` = bank idle / precharged).
    open_rows: Vec<Option<u32>>,
    row_hits: u64,
    row_misses: u64,
    /// Armed torn-burst fault: the next store lands only its first
    /// `keep` bytes (power dies mid-burst).
    torn_next: Option<u8>,
    torn_stores: u64,
}

impl ExternalDdr {
    /// A zeroed DDR of `size` bytes with default timing.
    pub fn new(size: u32) -> Self {
        Self::with_timing(size, DdrTiming::default())
    }

    /// A zeroed DDR with explicit timing.
    ///
    /// # Panics
    /// Panics if `banks` is not a power of two or `row_bytes` is zero.
    pub fn with_timing(size: u32, timing: DdrTiming) -> Self {
        assert!(
            timing.banks.is_power_of_two(),
            "banks must be a power of two"
        );
        assert!(timing.row_bytes > 0, "row_bytes must be positive");
        ExternalDdr {
            data: vec![0; size as usize],
            open_rows: vec![None; timing.banks as usize],
            timing,
            row_hits: 0,
            row_misses: 0,
            torn_next: None,
            torn_stores: 0,
        }
    }

    #[inline]
    fn bank_and_row(&self, offset: u32) -> (usize, u32) {
        let row = offset / self.timing.row_bytes;
        let bank = (row & (self.timing.banks - 1)) as usize;
        (bank, row)
    }

    /// Row-buffer hits observed so far.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Row-buffer misses (activations) observed so far.
    pub fn row_misses(&self) -> u64 {
        self.row_misses
    }

    // ------------------------------------------------------------------
    // The attacker's surface: physical access to the stored bits.
    // ------------------------------------------------------------------

    /// Overwrite raw stored bytes, bypassing the functional path — the
    /// physical attacker's write access to the chip / external bus.
    ///
    /// # Panics
    /// Panics if the span exceeds the device (the attacker cannot write
    /// bytes that do not exist).
    pub fn tamper(&mut self, offset: u32, bytes: &[u8]) {
        let start = offset as usize;
        let end = start + bytes.len();
        assert!(end <= self.data.len(), "tamper outside device");
        self.data[start..end].copy_from_slice(bytes);
    }

    /// Read raw stored bytes — the attacker's bus probe. Note that on a
    /// protected region these are *ciphertext* bytes.
    pub fn snoop(&self, offset: u32, len: u32) -> &[u8] {
        &self.data[offset as usize..(offset + len) as usize]
    }

    /// Bulk-load at construction time (boot images). Functionally identical
    /// to [`ExternalDdr::tamper`] but named for honest uses.
    pub fn load(&mut self, offset: u32, bytes: &[u8]) {
        self.tamper(offset, bytes);
    }

    /// Full raw contents — the persisted surface a reboot starts from.
    pub fn contents(&self) -> &[u8] {
        &self.data
    }

    // ------------------------------------------------------------------
    // Torn-burst fault surface (power dies mid-store).
    // ------------------------------------------------------------------

    /// Arm a torn burst: the next store through the functional path (or
    /// the next consumer of [`ExternalDdr::take_tear`], for block-level
    /// writers like the LCF) lands only its first `keep` bytes.
    pub fn tear_next_store(&mut self, keep: u8) {
        self.torn_next = Some(keep);
    }

    /// Whether a torn burst is currently armed.
    pub fn tear_armed(&self) -> bool {
        self.torn_next.is_some()
    }

    /// Consume the armed tear, if any. Block-level writers (the LCF's
    /// protected-write path) call this before issuing their burst so the
    /// tear applies to the whole ciphertext block, not a 4-byte beat.
    pub fn take_tear(&mut self) -> Option<u8> {
        let keep = self.torn_next.take();
        if keep.is_some() {
            self.torn_stores += 1;
        }
        keep
    }

    /// Stores torn so far (fired tears, via either path).
    #[inline]
    pub fn torn_stores(&self) -> u64 {
        self.torn_stores
    }
}

impl MemDevice for ExternalDdr {
    fn size(&self) -> u32 {
        self.data.len() as u32
    }

    fn read(&mut self, offset: u32, width: Width) -> Result<u32, MemError> {
        self.check(offset, width)?;
        Ok(load_le(&self.data, offset as usize, width))
    }

    fn write(&mut self, offset: u32, width: Width, value: u32) -> Result<(), MemError> {
        self.check(offset, width)?;
        if let Some(keep) = self.take_tear() {
            // Power died mid-beat: only the first `keep` bytes land.
            let full = value.to_le_bytes();
            let n = (keep as usize).min(width.bytes() as usize);
            let start = offset as usize;
            self.data[start..start + n].copy_from_slice(&full[..n]);
            return Ok(());
        }
        store_le(&mut self.data, offset as usize, width, value);
        Ok(())
    }

    fn latency(&mut self, offset: u32, is_write: bool) -> u64 {
        let (bank, row) = self.bank_and_row(offset);
        let t = &self.timing;
        let base = match self.open_rows[bank] {
            Some(open) if open == row => {
                self.row_hits += 1;
                t.cas
            }
            Some(_) => {
                self.row_misses += 1;
                self.open_rows[bank] = Some(row);
                t.trp + t.trcd + t.cas
            }
            None => {
                self.row_misses += 1;
                self.open_rows[bank] = Some(row);
                t.trcd + t.cas
            }
        };
        base + if is_write { t.write_recovery } else { 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_read_write() {
        let mut d = ExternalDdr::new(4096);
        d.write(0x100, Width::Word, 0xcafe_f00d).unwrap();
        assert_eq!(d.read(0x100, Width::Word).unwrap(), 0xcafe_f00d);
        assert_eq!(d.read(0x102, Width::Half).unwrap(), 0xcafe);
    }

    #[test]
    fn row_hit_is_faster_than_miss() {
        let mut d = ExternalDdr::new(1 << 20);
        let miss = d.latency(0, false); // cold bank: activate + cas
        let hit = d.latency(4, false); // same row
        assert!(hit < miss, "hit {hit} vs miss {miss}");
        assert_eq!(hit, DdrTiming::default().cas);
        assert_eq!(d.row_hits(), 1);
        assert_eq!(d.row_misses(), 1);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let t = DdrTiming::default();
        let mut d = ExternalDdr::new(1 << 20);
        let _ = d.latency(0, false); // open row 0 in bank 0
                                     // Same bank, different row: rows map to banks by low bits, so row 8
                                     // (offset 8*1024) also lands in bank 0.
        let conflict = d.latency(8 * t.row_bytes, false);
        assert_eq!(conflict, t.trp + t.trcd + t.cas);
    }

    #[test]
    fn writes_cost_recovery() {
        let t = DdrTiming::default();
        let mut d = ExternalDdr::new(1 << 20);
        let _ = d.latency(0, false);
        let w = d.latency(4, true);
        assert_eq!(w, t.cas + t.write_recovery);
    }

    #[test]
    fn banks_are_independent() {
        let t = DdrTiming::default();
        let mut d = ExternalDdr::new(1 << 20);
        let _ = d.latency(0, false); // bank 0, row 0
        let other_bank = d.latency(t.row_bytes, false); // row 1 -> bank 1
        assert_eq!(other_bank, t.trcd + t.cas, "no conflict across banks");
    }

    #[test]
    fn tamper_bypasses_functional_path() {
        let mut d = ExternalDdr::new(256);
        d.write(0, Width::Word, 0x1111_1111).unwrap();
        d.tamper(0, &[0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(d.read(0, Width::Word).unwrap(), 0xefbe_adde);
        assert_eq!(d.snoop(0, 4), &[0xde, 0xad, 0xbe, 0xef]);
    }

    #[test]
    fn snoop_sees_stored_bytes() {
        let mut d = ExternalDdr::new(64);
        d.load(8, b"hello");
        assert_eq!(d.snoop(8, 5), b"hello");
    }

    #[test]
    fn torn_store_lands_partially() {
        let mut d = ExternalDdr::new(64);
        d.write(0, Width::Word, 0x1111_1111).unwrap();
        d.tear_next_store(2);
        assert!(d.tear_armed());
        d.write(0, Width::Word, 0xaabb_ccdd).unwrap();
        // Little-endian: the first two bytes of the new value land, the
        // high half keeps its old contents.
        assert_eq!(d.read(0, Width::Word).unwrap(), 0x1111_ccdd);
        assert_eq!(d.torn_stores(), 1);
        // The tear is one-shot.
        d.write(0, Width::Word, 0xaabb_ccdd).unwrap();
        assert_eq!(d.read(0, Width::Word).unwrap(), 0xaabb_ccdd);
    }

    #[test]
    fn take_tear_hands_the_fault_to_block_writers() {
        let mut d = ExternalDdr::new(64);
        d.tear_next_store(5);
        assert_eq!(d.take_tear(), Some(5));
        assert_eq!(d.take_tear(), None);
        assert_eq!(d.torn_stores(), 1);
    }

    #[test]
    #[should_panic(expected = "outside device")]
    fn tamper_out_of_range_panics() {
        ExternalDdr::new(8).tamper(4, &[0; 8]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_bank_count_panics() {
        ExternalDdr::with_timing(
            64,
            DdrTiming {
                banks: 3,
                ..Default::default()
            },
        );
    }
}
