//! The functional interface every memory-mapped slave implements.

use core::fmt;

use secbus_bus::{Op, Transaction, Width};

/// Why a device access failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The offset (plus access width) falls outside the device.
    OutOfRange {
        /// Offending offset.
        offset: u32,
        /// Device size in bytes.
        size: u32,
    },
    /// The offset is not naturally aligned for the access width.
    Misaligned {
        /// Offending offset.
        offset: u32,
        /// Access width.
        width: Width,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfRange { offset, size } => {
                write!(f, "offset {offset:#x} out of range (size {size:#x})")
            }
            MemError::Misaligned { offset, width } => {
                write!(f, "offset {offset:#x} misaligned for {width} access")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// A memory-mapped slave device, addressed by offset from its base.
pub trait MemDevice: Send {
    /// Device size in bytes.
    fn size(&self) -> u32;

    /// Read `width` bits at `offset` (little-endian packing into the low
    /// bits of the result).
    fn read(&mut self, offset: u32, width: Width) -> Result<u32, MemError>;

    /// Write the low `width` bits of `value` at `offset`.
    fn write(&mut self, offset: u32, width: Width, value: u32) -> Result<(), MemError>;

    /// Cycles the device needs to service an access at `offset` — called
    /// once per transaction (the bus models per-beat occupancy itself).
    fn latency(&mut self, offset: u32, is_write: bool) -> u64;

    /// Service `txn` at `offset` as plain memory: charge
    /// [`MemDevice::latency`], then read or write. Returns the latency
    /// and the read data (0 for a write).
    fn access(&mut self, offset: u32, txn: &Transaction) -> (u64, Result<u32, MemError>) {
        let latency = self.latency(offset, txn.op == Op::Write);
        let result = match txn.op {
            Op::Read => self.read(offset, txn.width),
            Op::Write => self.write(offset, txn.width, txn.data).map(|()| 0),
        };
        (latency, result)
    }

    /// Validate an `(offset, width)` pair against size and alignment.
    fn check(&self, offset: u32, width: Width) -> Result<(), MemError> {
        if !offset.is_multiple_of(width.bytes()) {
            return Err(MemError::Misaligned { offset, width });
        }
        if u64::from(offset) + u64::from(width.bytes()) > u64::from(self.size()) {
            return Err(MemError::OutOfRange {
                offset,
                size: self.size(),
            });
        }
        Ok(())
    }
}

/// Little-endian load from a byte slice (caller has validated bounds).
#[inline]
pub(crate) fn load_le(bytes: &[u8], offset: usize, width: Width) -> u32 {
    match width {
        Width::Byte => u32::from(bytes[offset]),
        Width::Half => u32::from(u16::from_le_bytes([bytes[offset], bytes[offset + 1]])),
        Width::Word => u32::from_le_bytes([
            bytes[offset],
            bytes[offset + 1],
            bytes[offset + 2],
            bytes[offset + 3],
        ]),
    }
}

/// Little-endian store into a byte slice (caller has validated bounds).
#[inline]
pub(crate) fn store_le(bytes: &mut [u8], offset: usize, width: Width, value: u32) {
    match width {
        Width::Byte => bytes[offset] = value as u8,
        Width::Half => bytes[offset..offset + 2].copy_from_slice(&(value as u16).to_le_bytes()),
        Width::Word => bytes[offset..offset + 4].copy_from_slice(&value.to_le_bytes()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn le_helpers_roundtrip() {
        let mut buf = [0u8; 8];
        store_le(&mut buf, 0, Width::Word, 0x1234_5678);
        assert_eq!(load_le(&buf, 0, Width::Word), 0x1234_5678);
        assert_eq!(load_le(&buf, 0, Width::Byte), 0x78);
        assert_eq!(load_le(&buf, 2, Width::Half), 0x1234);
        store_le(&mut buf, 4, Width::Half, 0xabcd);
        assert_eq!(load_le(&buf, 4, Width::Half), 0xabcd);
        store_le(&mut buf, 6, Width::Byte, 0xee);
        assert_eq!(load_le(&buf, 6, Width::Byte), 0xee);
    }

    #[test]
    fn store_masks_to_width() {
        let mut buf = [0xffu8; 4];
        store_le(&mut buf, 1, Width::Byte, 0xABCD);
        assert_eq!(buf, [0xff, 0xcd, 0xff, 0xff]);
    }

    #[test]
    fn error_display() {
        let e = MemError::OutOfRange {
            offset: 0x20,
            size: 0x10,
        };
        assert!(e.to_string().contains("out of range"));
        let e = MemError::Misaligned {
            offset: 3,
            width: Width::Word,
        };
        assert!(e.to_string().contains("misaligned"));
    }
}
