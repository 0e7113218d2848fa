//! The interface between an IP and whatever sits between it and the bus.
//!
//! An IP (processor, DMA, dedicated IP) only ever sees [`MasterAccess`]:
//! "issue a request, poll for a response". In an unprotected system the SoC
//! wires this straight to the shared bus; in the protected system a Local
//! Firewall implements the same trait and interposes its checks. The IP
//! cannot tell the difference — the paper's requirement that the security
//! layer sit *above* the communication protocol without modifying it.

use secbus_bus::{Op, Response, TxnId, Width};
use secbus_sim::{Cycle, Stats, Wake};

/// What an IP can do with its bus connection.
pub trait MasterAccess {
    /// Issue a request; returns the transaction id for correlation.
    fn issue(&mut self, op: Op, addr: u32, width: Width, data: u32, burst: u16) -> TxnId;

    /// Poll for the next completed response, if any.
    fn poll(&mut self) -> Option<Response>;
}

/// A device that drives a master port, ticked once per cycle.
pub trait BusMaster: Send {
    /// Downcast support, so the SoC can hand typed references back to
    /// callers (e.g. reading a core's registers after a run).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Advance one cycle; `mem` is the IP's view of the interconnect.
    fn tick(&mut self, mem: &mut dyn MasterAccess, now: Cycle);

    /// Whether the device has finished all the work it will ever do.
    fn halted(&self) -> bool {
        false
    }

    /// Declare when the next `tick` can change state (the event-driven
    /// core's skip seam; see `secbus_sim::Wake` for the purity
    /// contract). The event core skips whole idle cycles by it, and
    /// inside a cycle it executes it skips this device's tick when the
    /// declaration says it is not due. It asks once, right after each
    /// tick, with `now` the next cycle, and keeps the answer until the
    /// device's next tick, so the answer must hold until then: a device
    /// changes state only inside its own tick. The default is the
    /// conservative `Wake::Now` — a device that does not implement this
    /// is simply ticked every cycle, exactly as under the stepped core.
    fn next_wake(&self, _now: Cycle) -> Wake {
        Wake::Now
    }

    /// Stable display name for traces and reports.
    fn label(&self) -> &str;

    /// The device's own statistics.
    fn stats(&self) -> &Stats;
}

/// A direct, zero-latency-adapter test double for [`MasterAccess`]: every
/// request completes against a flat byte memory and is delivered on the
/// next poll. Used by unit tests in this crate; integration-level timing
/// comes from `secbus-soc`.
#[derive(Debug, Default)]
pub struct InstantMem {
    /// Backing bytes.
    pub bytes: Vec<u8>,
    next_id: u64,
    pending: std::collections::VecDeque<Response>,
    /// Issued transactions, for assertions.
    pub issued: Vec<(Op, u32, Width, u32)>,
}

impl InstantMem {
    /// A zeroed instant memory of `size` bytes.
    pub fn new(size: usize) -> Self {
        InstantMem {
            bytes: vec![0; size],
            ..Default::default()
        }
    }

    /// Load bytes at an offset.
    pub fn load(&mut self, offset: usize, data: &[u8]) {
        self.bytes[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Read a little-endian word (test helper).
    pub fn word(&self, addr: usize) -> u32 {
        u32::from_le_bytes(self.bytes[addr..addr + 4].try_into().unwrap())
    }
}

impl MasterAccess for InstantMem {
    fn issue(&mut self, op: Op, addr: u32, width: Width, data: u32, burst: u16) -> TxnId {
        let id = TxnId(self.next_id);
        self.next_id += 1;
        self.issued.push((op, addr, width, data));
        let a = addr as usize;
        let result = if a + width.bytes() as usize * burst.max(1) as usize <= self.bytes.len() {
            Ok(())
        } else {
            Err(secbus_bus::BusError::Decode)
        };
        let mut read_back = 0;
        if result.is_ok() {
            match op {
                Op::Read => {
                    let mut raw = [0u8; 4];
                    raw[..width.bytes() as usize]
                        .copy_from_slice(&self.bytes[a..a + width.bytes() as usize]);
                    read_back = u32::from_le_bytes(raw);
                }
                Op::Write => {
                    let le = data.to_le_bytes();
                    self.bytes[a..a + width.bytes() as usize]
                        .copy_from_slice(&le[..width.bytes() as usize]);
                }
            }
        }
        self.pending.push_back(Response {
            txn: id,
            data: read_back,
            result,
            completed_at: Cycle::ZERO,
        });
        id
    }

    fn poll(&mut self) -> Option<Response> {
        self.pending.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_mem_write_then_read() {
        let mut m = InstantMem::new(64);
        m.issue(Op::Write, 8, Width::Word, 0x1234_5678, 1);
        assert!(m.poll().unwrap().is_ok());
        m.issue(Op::Read, 8, Width::Half, 0, 1);
        assert_eq!(m.poll().unwrap().data, 0x5678);
        assert_eq!(m.word(8), 0x1234_5678);
    }

    #[test]
    fn instant_mem_out_of_range_errors() {
        let mut m = InstantMem::new(4);
        m.issue(Op::Read, 4, Width::Word, 0, 1);
        assert!(!m.poll().unwrap().is_ok());
    }

    #[test]
    fn responses_arrive_in_order() {
        let mut m = InstantMem::new(16);
        let a = m.issue(Op::Write, 0, Width::Word, 1, 1);
        let b = m.issue(Op::Write, 4, Width::Word, 2, 1);
        assert_eq!(m.poll().unwrap().txn, a);
        assert_eq!(m.poll().unwrap().txn, b);
        assert!(m.poll().is_none());
    }
}
