//! # secbus-sim — deterministic cycle-level simulation kernel
//!
//! The substrate everything else in the `secbus` workspace is built on.
//! The original paper ("Distributed security for communications and memories
//! in a multiprocessor architecture", RAW/IPDPS 2011) evaluates RTL on a
//! Virtex-6 FPGA; this crate provides the software equivalent: a
//! deterministic, cycle-stepped simulation clock, the [`Wake`] seam
//! through which components declare their next interesting cycle (so an
//! event-driven run loop can jump over idle ones, see [`SimCore`]), plus
//! the bookkeeping (statistics, event logs, reproducible randomness) the
//! higher layers use to measure latency, throughput and attack-detection
//! behaviour.
//!
//! Design rules enforced throughout the workspace:
//!
//! * **Determinism.** Given the same seed, every simulation produces the
//!   same cycle-exact trace. All randomness flows through [`SimRng`].
//! * **No hidden time.** Components only see time as a [`Cycle`] passed to
//!   them; wall-clock time never leaks into simulated behaviour.
//! * **Cheap accounting.** [`Counter`]s and [`Histogram`]s are plain
//!   integers/vectors — no locking on the hot path, per the HPC guides.

pub mod clock;
pub mod cycle;
pub mod json;
pub mod log;
pub mod metrics;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod wake;

pub use clock::Clock;
pub use cycle::Cycle;
pub use json::{Json, JsonError};
pub use log::EventLog;
pub use metrics::MetricsRegistry;
pub use rng::SimRng;
pub use stats::{Counter, Histogram, StatKey, Stats};
pub use trace::{TraceBuffer, TraceEvent, Tracer};
pub use wake::{SimCore, Wake};
