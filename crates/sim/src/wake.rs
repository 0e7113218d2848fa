//! The event-core seam: [`Wake`] declarations and the [`SimCore`]
//! switch.
//!
//! The cycle-stepped core polls every component every cycle, so host
//! cost is O(cycles × components) even when the fabric is idle. The
//! event-driven core inverts the relationship: components *declare*
//! their next interesting cycle through [`Wake`], and whenever the
//! fabric is provably idle the run loop fast-forwards simulated `now`
//! to the earliest declared wake. Inside a cycle it does execute, it
//! also skips the tick of each single component that is not due, by
//! the same declaration.
//!
//! A component changes state only inside its own tick, so a declaration
//! read right after a tick holds until that component's next tick. That
//! is what lets the event core read each declaration once, after the
//! tick, and cache it for both uses.
//!
//! Two invariants make the skip *equivalence-preserving* rather than
//! merely fast:
//!
//! 1. **Skipped cycles are pure.** A cycle may only be skipped when
//!    every component's tick would be a state no-op on it (modulo
//!    bulk-accounted counters such as `soc.cycles`, which the run loop
//!    adds in one `Stats::add` — byte-identical JSON to per-cycle
//!    increments).
//! 2. **A skip only moves time.** The run loop jumps to the earliest
//!    declared wake and then ticks normally, so every effect — several
//!    components waking on one cycle included — happens inside an
//!    ordinary tick, in the order the tick polls the components. The
//!    event core cannot reorder same-cycle effects relative to the
//!    stepped core because it never orders them at all.

use crate::cycle::Cycle;

/// What a component will do on future ticks, as declared by the
/// component itself. The run loop uses this to decide whether ticking
/// the component can be skipped: on a whole cycle it skips, and on its
/// own inside a cycle it executes. A declaration read right after the
/// component's tick must hold until its next tick, whatever happens
/// elsewhere in between (the caller pairs [`Wake::Waiting`] with the
/// input queue it owns).
///
/// The contract is about *purity of `tick`*, not about liveness:
///
/// * [`Wake::Now`] — the component may mutate state on every tick;
///   never skip it. This is the conservative default for components
///   that cannot prove anything stronger.
/// * [`Wake::At`] — every tick strictly before the stated cycle is a
///   state no-op *regardless of inputs*; the component must be ticked
///   again at that cycle.
/// * [`Wake::Waiting`] — the component only reacts to externally
///   delivered input (e.g. a bus response): its tick is a state no-op
///   exactly while its input queue is empty. The run loop pairs this
///   with its own knowledge of the input queue.
/// * [`Wake::Never`] — the component is terminally quiescent (halted,
///   drained); its tick is a state no-op forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// May act on any cycle; must be ticked every cycle.
    Now,
    /// Pure until the given cycle; must be ticked at it.
    At(Cycle),
    /// Pure while its input queue is empty; the run loop checks the
    /// queue.
    Waiting,
    /// Pure forever.
    Never,
}

/// Which simulator core drives the run loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimCore {
    /// Legacy loop: tick every component every cycle.
    Stepped,
    /// Discrete-event loop: skip provably idle cycles.
    Event,
}

impl SimCore {
    /// Resolve the core from the `SECBUS_SIM_CORE` environment
    /// variable: `stepped` forces the legacy loop, anything else
    /// (including unset) selects the event-driven core. CI runs every
    /// soak under both values and `cmp`s the JSON as the equivalence
    /// proof (EXPERIMENTS.md S-21).
    pub fn from_env() -> SimCore {
        match std::env::var("SECBUS_SIM_CORE") {
            Ok(v) if v.eq_ignore_ascii_case("stepped") => SimCore::Stepped,
            _ => SimCore::Event,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_core_from_env_defaults_to_event() {
        // Do not mutate the environment (tests run in parallel); just
        // check the unset/garbage default path via the parser contract.
        match std::env::var("SECBUS_SIM_CORE") {
            Ok(v) if v.eq_ignore_ascii_case("stepped") => {
                assert_eq!(SimCore::from_env(), SimCore::Stepped)
            }
            _ => assert_eq!(SimCore::from_env(), SimCore::Event),
        }
    }
}
