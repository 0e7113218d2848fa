//! # secbus-bus — the shared system bus of the simulated MPSoC
//!
//! The paper's architecture is bus-based: "a limited number of IPs are
//! connected together" on a single shared bus inside the FPGA, with the
//! external memory hanging off a bridge. This crate models that bus at the
//! transaction level with cycle-accurate arbitration and occupancy:
//!
//! * [`Transaction`] / [`Response`] — what masters issue and receive.
//!   Transactions carry the originating master, the operation (read/write),
//!   the address, the access width (8/16/32 bit — the paper's *Allowed Data
//!   Format* checks depend on it) and a burst length.
//! * [`AddressMap`] — decodes addresses to slaves, rejecting overlaps.
//! * [`Arbiter`] implementations — fixed priority, round robin and TDMA.
//! * [`SharedBus`] — the single-granted shared medium. It owns all master
//!   and slave queues; the SoC mediates between devices and the bus, so no
//!   component ever holds a reference to another (see DESIGN.md §5).
//!
//! Security is deliberately *not* implemented here: the paper's firewalls
//! are a layer between each IP and the bus that leaves the bus protocol
//! untouched, and the crate boundary enforces the same separation.

pub mod addrmap;
pub mod arbiter;
pub mod bus;
pub mod txn;

pub use addrmap::{AddrRange, AddressMap};
pub use arbiter::{Arbiter, FixedPriority, RoundRobin, Tdma};
pub use bus::{
    BusConfig, BusCounter, BusHistogram, BusQuiet, BusTrace, OrphanCompletion, SharedBus,
};
pub use txn::{BusError, MasterId, Op, Response, SlaveId, Transaction, TxnId, Width};
