//! # secbus-cpu — the MB32 soft core and traffic-generating IPs
//!
//! The paper's case study contains "3 MicroBlaze softcore microprocessors
//! … and one dedicated IP". Firewalls never look inside a processor; they
//! see its *bus traffic* — addresses, access widths, read/write direction,
//! timing. So the reproduction needs processors that generate real,
//! program-driven traffic, not a cycle-exact MicroBlaze. MB32 is a compact
//! 32-bit RISC (16 registers, load/store, byte/half/word accesses — the
//! width variety matters because the paper's ADF checks gate on it) with a
//! two-pass assembler so example workloads are written as source, not hex.
//!
//! * [`isa`] — instruction set, binary encoding and decoding.
//! * [`asm`] — the assembler.
//! * [`core`] — the MB32 interpreter as a bus master.
//! * [`traffic`] — non-programmable masters: a DMA engine, a streaming
//!   dedicated IP and a configurable synthetic master used by the
//!   parameter-sweep benches.
//! * [`master`] — the [`BusMaster`]/[`MasterAccess`] traits through which
//!   every IP reaches the bus; the SoC inserts a Local Firewall behind
//!   this interface without the IP noticing (the paper's "the application
//!   designer does not have to deal with the security mechanisms").

pub mod asm;
pub mod cache;
pub mod core;
pub mod disasm;
pub mod isa;
pub mod master;
pub mod traffic;

pub use crate::core::{CoreCounter, CoreHistogram, Mb32Core};
pub use asm::{assemble, AsmError};
pub use cache::{CacheConfig, CacheCounter, CachedMaster};
pub use disasm::{disasm, disasm_listing};
pub use isa::{Instr, Reg};
pub use master::{BusMaster, MasterAccess};
pub use traffic::{
    DmaEngine, OpenLoopConfig, OpenLoopCounter, OpenLoopMaster, StreamCounter, StreamIp,
    SyntheticConfig, SyntheticMaster, TrafficCounter, TrafficHistogram,
};
