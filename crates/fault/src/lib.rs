//! # secbus-fault — deterministic fault injection
//!
//! The paper's security features (§III-C) promise *fast reaction* and
//! *containment at the infected IP's interface* — properties that a
//! production system must also hold when the fabric itself misbehaves:
//! radiation-induced bit flips in the external DDR, glitching crypto
//! cores, stalled or lossy bus handshakes, corrupted Configuration-Memory
//! entries. This crate models that defective-hardware threat surface as a
//! **[`FaultPlan`]**: a cycle-stamped, seed-reproducible schedule of
//! [`FaultEvent`]s that the SoC consumes at the top of each cycle.
//!
//! Design rules:
//!
//! * **Deterministic.** A plan is a pure function of `(seed, spec)`. The
//!   SoC applies events at their stamped cycle inside the ordinary tick
//!   loop, so *same seed + same plan ⇒ same trace*, and the determinism
//!   tests extend to faulty runs unchanged.
//! * **Layer-agnostic parameters.** Events carry plain offsets/selectors
//!   (device offsets, firewall indices) rather than simulator types, so
//!   the crate depends only on `secbus-sim` and any layer can interpret
//!   its own events.
//! * **Resilience lives elsewhere.** This crate only *schedules* faults;
//!   detection and recovery (watchdog, retry, parity scrub, fail-secure
//!   degradation) are implemented by the layers under test.

use std::collections::VecDeque;

use secbus_sim::{Cycle, SimRng};

/// One injectable hardware fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Single-event upset: flip `bit` of the DDR byte at device offset
    /// `offset`, on the raw storage surface (bypasses the access path).
    DdrBitFlip {
        /// Device-relative byte offset.
        offset: u32,
        /// Bit index 0..8.
        bit: u8,
    },
    /// Arbitration glitch: the next bus grant is lost — the winning
    /// transaction is consumed but never delivered, so no response will
    /// ever arrive for it (a hang unless a watchdog intervenes).
    BusLoseGrant,
    /// A slave's in-service transaction is stalled for `extra_cycles`
    /// beyond its modelled latency.
    SlaveStall {
        /// Slave selector (taken modulo the slave count).
        slave: u8,
        /// Additional service cycles.
        extra_cycles: u64,
    },
    /// Signal glitch on the response path: the data beat of the next
    /// slave response is XOR-ed with `xor` on its way back to the master.
    CorruptResponse {
        /// Bit pattern XOR-ed into the response data.
        xor: u32,
    },
    /// A Configuration-Memory cell upset: flip one bit of one stored
    /// policy entry of one firewall (selectors taken modulo the actual
    /// counts). Caught by the Security Builder's parity check.
    PolicyCorrupt {
        /// Firewall selector.
        firewall: u8,
        /// Policy-entry selector.
        entry: u8,
        /// Bit selector within the entry's checked fields.
        bit: u8,
    },
    /// Transient Confidentiality-Core mis-computation: the next cipher
    /// pass produces garbled output.
    CcGlitch,
    /// Transient Integrity-Core mis-computation: the next hash-tree
    /// verification returns the wrong verdict.
    IcGlitch,
    /// Supply failure: the SoC loses power at the stamped cycle. All
    /// volatile state (registers, on-chip trees, in-flight transactions)
    /// is gone; only external DDR and the LCF's persistence surface
    /// (image, journal, monotonic counter) survive. The simulation stops
    /// progressing — recovery happens on the *next* boot.
    PowerCut,
    /// Power dies in the middle of a DDR burst: only the first
    /// `keep_bytes` of the in-flight store land, the rest of the block
    /// keeps its old contents, and the SoC powers off with the write's
    /// journal intent dangling (never committed).
    TornWrite {
        /// Leading bytes of the burst that reach the array (1..16).
        keep_bytes: u8,
    },
    /// Transient NoC wire upset: the next flit crossing the directed mesh
    /// link leaving router `node` in direction `dir` (N=0,S=1,E=2,W=3) is
    /// XOR-ed with `xor` on the wire. `header` steers the burst into the
    /// packet header (the target address) instead of the data word —
    /// exactly the corruption a degraded fabric could turn into a
    /// firewall bypass. Selectors are taken modulo the mesh's actual
    /// node count and the 4 directions.
    LinkBitFlip {
        /// Router selector (modulo the mesh node count).
        node: u16,
        /// Outgoing direction selector (modulo 4).
        dir: u8,
        /// Bit pattern XOR-ed into the flit on the wire.
        xor: u32,
        /// Corrupt the header (address) instead of the payload word.
        header: bool,
    },
    /// Permanent NoC link failure: the directed link leaving router
    /// `node` in direction `dir` stops carrying flits (and acks) from the
    /// stamped cycle on. Detected by the link layer's consecutive
    /// CRC/ack-failure threshold.
    LinkDrop {
        /// Router selector (modulo the mesh node count).
        node: u16,
        /// Outgoing direction selector (modulo 4).
        dir: u8,
    },
    /// A mesh router dies: it stops forwarding, acking and emitting
    /// heartbeats. Packets resident in it are lost; neighbors detect the
    /// missing heartbeat and route around the dead region.
    RouterStuck {
        /// Router selector (modulo the mesh node count).
        node: u16,
    },
    /// Glitch on the policy-epoch prepare/commit boundary: the next
    /// multi-firewall `commit_epoch` is interrupted after `stage` tables
    /// have swapped. The reconfiguration layer must roll the staged
    /// firewalls back — an epoch is all-or-nothing, never a mixed fleet.
    EpochCommitFault {
        /// Swaps performed before the interrupt (clamped to batch size).
        stage: u8,
    },
}

impl FaultKind {
    /// Stable short name, used as a stats/report key.
    pub fn class(&self) -> &'static str {
        match self {
            FaultKind::DdrBitFlip { .. } => "ddr_bitflip",
            FaultKind::BusLoseGrant => "bus_lost_grant",
            FaultKind::SlaveStall { .. } => "slave_stall",
            FaultKind::CorruptResponse { .. } => "corrupt_response",
            FaultKind::PolicyCorrupt { .. } => "policy_corrupt",
            FaultKind::CcGlitch => "cc_glitch",
            FaultKind::IcGlitch => "ic_glitch",
            FaultKind::PowerCut => "power_cut",
            FaultKind::TornWrite { .. } => "torn_write",
            FaultKind::LinkBitFlip { .. } => "link_bitflip",
            FaultKind::LinkDrop { .. } => "link_drop",
            FaultKind::RouterStuck { .. } => "router_stuck",
            FaultKind::EpochCommitFault { .. } => "epoch_commit_fault",
        }
    }

    /// The SoC's per-class fault counter key (`soc.fault.<class>`),
    /// precomputed so applying a fault never allocates.
    pub fn soc_key(&self) -> &'static str {
        match self {
            FaultKind::DdrBitFlip { .. } => "soc.fault.ddr_bitflip",
            FaultKind::BusLoseGrant => "soc.fault.bus_lost_grant",
            FaultKind::SlaveStall { .. } => "soc.fault.slave_stall",
            FaultKind::CorruptResponse { .. } => "soc.fault.corrupt_response",
            FaultKind::PolicyCorrupt { .. } => "soc.fault.policy_corrupt",
            FaultKind::CcGlitch => "soc.fault.cc_glitch",
            FaultKind::IcGlitch => "soc.fault.ic_glitch",
            FaultKind::PowerCut => "soc.fault.power_cut",
            FaultKind::TornWrite { .. } => "soc.fault.torn_write",
            FaultKind::LinkBitFlip { .. } => "soc.fault.link_bitflip",
            FaultKind::LinkDrop { .. } => "soc.fault.link_drop",
            FaultKind::RouterStuck { .. } => "soc.fault.router_stuck",
            FaultKind::EpochCommitFault { .. } => "soc.fault.epoch_commit_fault",
        }
    }

    /// All class names, in schedule order (report columns).
    pub const CLASSES: [&'static str; 13] = [
        "ddr_bitflip",
        "bus_lost_grant",
        "slave_stall",
        "corrupt_response",
        "policy_corrupt",
        "cc_glitch",
        "ic_glitch",
        "power_cut",
        "torn_write",
        "link_bitflip",
        "link_drop",
        "router_stuck",
        "epoch_commit_fault",
    ];
}

/// A fault stamped with its injection cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The cycle at which the SoC applies the fault (start of tick).
    pub at: Cycle,
    /// What breaks.
    pub kind: FaultKind,
}

/// Expected fault counts per class over the plan duration.
///
/// Counts are *expected values*: the integer part is injected always, the
/// fractional part with the corresponding probability (drawn from the
/// plan's seeded RNG, so still reproducible).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// DDR single-event upsets.
    pub ddr_bitflip: f64,
    /// Lost bus grants.
    pub bus_lost_grant: f64,
    /// Stalled slave responses.
    pub slave_stall: f64,
    /// Corrupted response beats.
    pub corrupt_response: f64,
    /// Configuration-Memory entry upsets.
    pub policy_corrupt: f64,
    /// CC transient mis-computations.
    pub cc_glitch: f64,
    /// IC transient mis-computations.
    pub ic_glitch: f64,
    /// Power cuts (terminal: the run stops at the first one).
    pub power_cut: f64,
    /// Torn DDR bursts (terminal: power dies mid-burst).
    pub torn_write: f64,
    /// Transient NoC flit corruptions on mesh links.
    pub link_bitflip: f64,
    /// Permanent NoC link failures (structural: the mesh stays degraded).
    pub link_drop: f64,
    /// Dead mesh routers (structural: the mesh stays degraded).
    pub router_stuck: f64,
}

impl FaultRates {
    /// No faults at all (the control row of a sweep).
    pub const NONE: FaultRates = FaultRates {
        ddr_bitflip: 0.0,
        bus_lost_grant: 0.0,
        slave_stall: 0.0,
        corrupt_response: 0.0,
        policy_corrupt: 0.0,
        cc_glitch: 0.0,
        ic_glitch: 0.0,
        power_cut: 0.0,
        torn_write: 0.0,
        link_bitflip: 0.0,
        link_drop: 0.0,
        router_stuck: 0.0,
    };

    /// Uniform expected count across every *transient* class. The
    /// terminal classes (`power_cut`, `torn_write`) end the run and the
    /// structural NoC classes (`link_drop`, `router_stuck`) permanently
    /// degrade the mesh, so a soak never wants them uniformly sprinkled —
    /// set them explicitly when a sweep calls for them.
    pub fn uniform(per_class: f64) -> FaultRates {
        FaultRates {
            ddr_bitflip: per_class,
            bus_lost_grant: per_class,
            slave_stall: per_class,
            corrupt_response: per_class,
            policy_corrupt: per_class,
            cc_glitch: per_class,
            ic_glitch: per_class,
            link_bitflip: per_class,
            ..FaultRates::NONE
        }
    }

    /// Scale every class by `factor` (fault-rate sweeps).
    pub fn scaled(self, factor: f64) -> FaultRates {
        FaultRates {
            ddr_bitflip: self.ddr_bitflip * factor,
            bus_lost_grant: self.bus_lost_grant * factor,
            slave_stall: self.slave_stall * factor,
            corrupt_response: self.corrupt_response * factor,
            policy_corrupt: self.policy_corrupt * factor,
            cc_glitch: self.cc_glitch * factor,
            ic_glitch: self.ic_glitch * factor,
            power_cut: self.power_cut * factor,
            torn_write: self.torn_write * factor,
            link_bitflip: self.link_bitflip * factor,
            link_drop: self.link_drop * factor,
            router_stuck: self.router_stuck * factor,
        }
    }
}

/// What the generator needs to know about the target system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Plan length in cycles; every event lands in `0..duration`.
    pub duration: u64,
    /// DDR device size in bytes (bit flips land inside it; 0 disables
    /// the class).
    pub ddr_bytes: u32,
    /// Number of firewalls (policy corruption selector range; 0 disables).
    pub firewalls: u8,
    /// Number of bus slaves (stall selector range; 0 disables).
    pub slaves: u8,
    /// Number of NoC mesh nodes (link/router selector range for the NoC
    /// classes; 0 disables them — a bus-only target).
    pub noc_nodes: u16,
    /// Expected fault counts per class.
    pub rates: FaultRates,
}

/// A cycle-ordered schedule of faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    events: VecDeque<FaultEvent>,
    injected: u64,
}

impl FaultPlan {
    /// An empty plan (no faults — every run is a clean run).
    pub fn empty() -> Self {
        FaultPlan {
            events: VecDeque::new(),
            injected: 0,
        }
    }

    /// Build a plan from explicit events; they are (stably) sorted by
    /// injection cycle.
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultPlan {
            events: events.into(),
            injected: 0,
        }
    }

    /// Generate a plan from a seed and a spec. Pure: the same `(seed,
    /// spec)` always produces the identical plan.
    pub fn generate(seed: u64, spec: &FaultSpec) -> Self {
        let mut events = Vec::new();
        if spec.duration == 0 {
            return Self::new(events);
        }
        let mut class =
            |label: &str, rate: f64, f: &mut dyn FnMut(&mut SimRng) -> Option<FaultKind>| {
                // Per-class derived stream: adding a class never perturbs the
                // schedule of the others.
                let mut rng = SimRng::new(seed).derive(label);
                let mut count = rate.max(0.0).floor() as u64;
                if rng.chance(rate.max(0.0).fract()) {
                    count += 1;
                }
                for _ in 0..count {
                    let at = Cycle(rng.below(spec.duration));
                    if let Some(kind) = f(&mut rng) {
                        events.push(FaultEvent { at, kind });
                    }
                }
            };
        class("ddr_bitflip", spec.rates.ddr_bitflip, &mut |rng| {
            (spec.ddr_bytes > 0).then(|| FaultKind::DdrBitFlip {
                offset: rng.below(u64::from(spec.ddr_bytes)) as u32,
                bit: rng.below(8) as u8,
            })
        });
        class("bus_lost_grant", spec.rates.bus_lost_grant, &mut |_| {
            Some(FaultKind::BusLoseGrant)
        });
        class("slave_stall", spec.rates.slave_stall, &mut |rng| {
            (spec.slaves > 0).then(|| FaultKind::SlaveStall {
                slave: rng.below(u64::from(spec.slaves)) as u8,
                extra_cycles: 64 + rng.below(448),
            })
        });
        class(
            "corrupt_response",
            spec.rates.corrupt_response,
            &mut |rng| {
                Some(FaultKind::CorruptResponse {
                    xor: (rng.next_u32()).max(1),
                })
            },
        );
        class("policy_corrupt", spec.rates.policy_corrupt, &mut |rng| {
            (spec.firewalls > 0).then(|| FaultKind::PolicyCorrupt {
                firewall: rng.below(u64::from(spec.firewalls)) as u8,
                entry: rng.next_u32() as u8,
                bit: rng.next_u32() as u8,
            })
        });
        class("cc_glitch", spec.rates.cc_glitch, &mut |_| {
            Some(FaultKind::CcGlitch)
        });
        class("ic_glitch", spec.rates.ic_glitch, &mut |_| {
            Some(FaultKind::IcGlitch)
        });
        class("power_cut", spec.rates.power_cut, &mut |_| {
            Some(FaultKind::PowerCut)
        });
        class("torn_write", spec.rates.torn_write, &mut |rng| {
            Some(FaultKind::TornWrite {
                keep_bytes: 1 + rng.below(15) as u8,
            })
        });
        class("link_bitflip", spec.rates.link_bitflip, &mut |rng| {
            (spec.noc_nodes > 0).then(|| FaultKind::LinkBitFlip {
                node: rng.below(u64::from(spec.noc_nodes)) as u16,
                dir: rng.below(4) as u8,
                xor: rng.next_u32().max(1),
                header: rng.chance(0.5),
            })
        });
        class("link_drop", spec.rates.link_drop, &mut |rng| {
            (spec.noc_nodes > 0).then(|| FaultKind::LinkDrop {
                node: rng.below(u64::from(spec.noc_nodes)) as u16,
                dir: rng.below(4) as u8,
            })
        });
        class("router_stuck", spec.rates.router_stuck, &mut |rng| {
            (spec.noc_nodes > 0).then(|| FaultKind::RouterStuck {
                node: rng.below(u64::from(spec.noc_nodes)) as u16,
            })
        });
        Self::new(events)
    }

    /// Remove and return every event due at or before `now`.
    pub fn take_due(&mut self, now: Cycle) -> Vec<FaultEvent> {
        let mut due = Vec::new();
        while self.events.front().is_some_and(|e| e.at <= now) {
            due.push(self.events.pop_front().expect("front checked"));
        }
        self.injected += due.len() as u64;
        due
    }

    /// Events not yet injected.
    pub fn remaining(&self) -> usize {
        self.events.len()
    }

    /// Cycle of the next not-yet-injected event, if any — the
    /// event-driven core's wake point for the plan.
    pub fn next_due(&self) -> Option<Cycle> {
        self.events.front().map(|e| e.at)
    }

    /// Events injected so far (consumed via [`FaultPlan::take_due`]).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Total events in the plan (remaining + injected).
    pub fn len(&self) -> usize {
        self.events.len() + self.injected as usize
    }

    /// Whether the plan holds no events at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate the not-yet-injected events in schedule order.
    pub fn iter(&self) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter()
    }

    /// Count the scheduled (not-yet-injected) events per class name.
    pub fn class_count(&self, class: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind.class() == class)
            .count()
    }

    /// Shift every scheduled event `delta` cycles later — composition
    /// helper for building a late stage from a `0..duration` plan.
    /// Compose *before* attaching to a SoC (injection counters reset).
    pub fn offset(self, delta: u64) -> Self {
        FaultPlan::new(
            self.events
                .into_iter()
                .map(|e| FaultEvent {
                    at: e.at + delta,
                    kind: e.kind,
                })
                .collect(),
        )
    }

    /// Merge another plan's scheduled events into this one, re-sorted by
    /// cycle. Like [`FaultPlan::offset`], compose before attaching.
    pub fn concat(self, other: FaultPlan) -> Self {
        FaultPlan::new(self.events.into_iter().chain(other.events).collect())
    }
}

/// One stage of a [`StagedPlan`]: a label, its fault schedule, and
/// whether it only fires if the previous stage established a foothold.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStage {
    /// Stable stage label (also the seed-derivation label).
    pub label: &'static str,
    /// The faults this stage injects (cycles are absolute).
    pub plan: FaultPlan,
    /// Precondition: this stage is skipped — along with everything after
    /// it — unless the stage before it reported a foothold.
    pub gated: bool,
}

/// A multi-stage attack schedule: stage N+1's faults only ever fire after
/// the campaign runner *advances* past stage N, and a gated stage (and
/// all its successors) is abandoned when the prior stage failed to
/// establish its foothold. This is the fault-injection backbone of the
/// campaign engine: each stage is still a deterministic [`FaultPlan`],
/// so a staged campaign replays byte-identically per seed.
#[derive(Debug, Clone, PartialEq)]
pub struct StagedPlan {
    stages: Vec<PlanStage>,
    active: usize,
    aborted: bool,
}

impl Default for StagedPlan {
    fn default() -> Self {
        Self::new()
    }
}

impl StagedPlan {
    /// An empty staged plan.
    pub fn new() -> Self {
        StagedPlan {
            stages: Vec::new(),
            active: 0,
            aborted: false,
        }
    }

    /// Append an ungated stage (fires whenever it becomes active).
    pub fn stage(mut self, label: &'static str, plan: FaultPlan) -> Self {
        self.stages.push(PlanStage {
            label,
            plan,
            gated: false,
        });
        self
    }

    /// Append a gated stage: it (and everything after it) is abandoned
    /// unless the preceding stage reports a foothold on advance.
    pub fn gated_stage(mut self, label: &'static str, plan: FaultPlan) -> Self {
        self.stages.push(PlanStage {
            label,
            plan,
            gated: true,
        });
        self
    }

    /// Generate one plan per `(label, spec)` stage from per-stage derived
    /// seeds: editing one stage's spec never perturbs another stage's
    /// schedule, and the same `(seed, stages)` always yields the same
    /// staged plan. `gated` marks stages that require the previous
    /// stage's foothold.
    pub fn generate(seed: u64, stages: &[(&'static str, FaultSpec, bool)]) -> Self {
        let mut plan = StagedPlan::new();
        for (label, spec, gated) in stages {
            let stage_seed = SimRng::new(seed).derive(label).next_u64();
            let p = FaultPlan::generate(stage_seed, spec);
            plan = if *gated {
                plan.gated_stage(label, p)
            } else {
                plan.stage(label, p)
            };
        }
        plan
    }

    /// Remove and return the *active* stage's events due at or before
    /// `now`. Later stages never leak out early, and an aborted plan
    /// yields nothing.
    pub fn take_due(&mut self, now: Cycle) -> Vec<FaultEvent> {
        if self.aborted {
            return Vec::new();
        }
        match self.stages.get_mut(self.active) {
            Some(stage) => stage.plan.take_due(now),
            None => Vec::new(),
        }
    }

    /// Finish the active stage and move on. `foothold` reports whether
    /// the stage achieved its goal: when the *next* stage is gated and
    /// the foothold failed, the whole remainder of the campaign is
    /// abandoned (stage N+1 only fires if stage N succeeded).
    pub fn advance(&mut self, foothold: bool) {
        if self.aborted || self.active >= self.stages.len() {
            return;
        }
        self.active += 1;
        if let Some(next) = self.stages.get(self.active) {
            if next.gated && !foothold {
                self.aborted = true;
            }
        }
    }

    /// The active stage's label, `None` once the plan is exhausted or
    /// aborted.
    pub fn active_stage(&self) -> Option<&'static str> {
        if self.aborted {
            return None;
        }
        self.stages.get(self.active).map(|s| s.label)
    }

    /// Whether a failed foothold abandoned the remaining stages.
    pub fn aborted(&self) -> bool {
        self.aborted
    }

    /// Total faults injected across all stages so far.
    pub fn injected(&self) -> u64 {
        self.stages.iter().map(|s| s.plan.injected()).sum()
    }

    /// Stage count.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the plan has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The stages, in order.
    pub fn stages(&self) -> &[PlanStage] {
        &self.stages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(rates: FaultRates) -> FaultSpec {
        FaultSpec {
            duration: 10_000,
            ddr_bytes: 0x1000,
            firewalls: 4,
            slaves: 2,
            noc_nodes: 9,
            rates,
        }
    }

    #[test]
    fn generation_is_reproducible() {
        let s = spec(FaultRates::uniform(5.3));
        let a = FaultPlan::generate(42, &s);
        let b = FaultPlan::generate(42, &s);
        assert_eq!(a, b);
        let c = FaultPlan::generate(43, &s);
        assert_ne!(a, c, "different seeds produce different plans");
    }

    #[test]
    fn events_come_out_in_cycle_order() {
        let mut plan = FaultPlan::generate(7, &spec(FaultRates::uniform(20.0)));
        assert!(plan.len() >= 7 * 20 - 7, "roughly the expected count");
        let mut last = Cycle(0);
        let mut drained = 0;
        for c in 0..10_000u64 {
            for e in plan.take_due(Cycle(c)) {
                assert!(e.at >= last && e.at <= Cycle(c));
                last = e.at;
                drained += 1;
            }
        }
        assert_eq!(drained, plan.injected());
        assert_eq!(plan.remaining(), 0);
    }

    #[test]
    fn zero_rates_make_an_empty_plan() {
        let plan = FaultPlan::generate(1, &spec(FaultRates::NONE));
        assert!(plan.is_empty());
    }

    #[test]
    fn fractional_rates_round_probabilistically_but_deterministically() {
        // With a single class at rate 0.5, repeated generation with the
        // same seed is stable; across seeds the count varies.
        let s = spec(FaultRates {
            bus_lost_grant: 0.5,
            ..FaultRates::NONE
        });
        let counts: Vec<usize> = (0..32)
            .map(|seed| FaultPlan::generate(seed, &s).len())
            .collect();
        assert!(counts.iter().any(|&c| c > 0), "some seeds inject");
        assert!(counts.contains(&0), "some seeds do not");
        assert_eq!(
            counts[0],
            FaultPlan::generate(0, &s).len(),
            "stable per seed"
        );
    }

    #[test]
    fn parameters_respect_spec_bounds() {
        let plan = FaultPlan::generate(9, &spec(FaultRates::uniform(50.0)));
        for e in plan.iter() {
            assert!(e.at.get() < 10_000);
            match e.kind {
                FaultKind::DdrBitFlip { offset, bit } => {
                    assert!(offset < 0x1000);
                    assert!(bit < 8);
                }
                FaultKind::SlaveStall {
                    slave,
                    extra_cycles,
                } => {
                    assert!(slave < 2);
                    assert!((64..512).contains(&extra_cycles));
                }
                FaultKind::CorruptResponse { xor } => assert!(xor != 0),
                FaultKind::PolicyCorrupt { firewall, .. } => assert!(firewall < 4),
                FaultKind::TornWrite { keep_bytes } => {
                    assert!((1..16).contains(&keep_bytes));
                }
                FaultKind::LinkBitFlip { node, dir, xor, .. } => {
                    assert!(node < 9);
                    assert!(dir < 4);
                    assert!(xor != 0);
                }
                FaultKind::LinkDrop { node, dir } => {
                    assert!(node < 9);
                    assert!(dir < 4);
                }
                FaultKind::RouterStuck { node } => assert!(node < 9),
                FaultKind::BusLoseGrant
                | FaultKind::CcGlitch
                | FaultKind::IcGlitch
                | FaultKind::PowerCut
                | FaultKind::EpochCommitFault { .. } => {}
            }
        }
    }

    #[test]
    fn disabled_surfaces_suppress_their_classes() {
        let s = FaultSpec {
            duration: 1000,
            ddr_bytes: 0,
            firewalls: 0,
            slaves: 0,
            noc_nodes: 0,
            rates: FaultRates {
                link_drop: 10.0,
                router_stuck: 10.0,
                ..FaultRates::uniform(10.0)
            },
        };
        let plan = FaultPlan::generate(3, &s);
        assert_eq!(plan.class_count("ddr_bitflip"), 0);
        assert_eq!(plan.class_count("policy_corrupt"), 0);
        assert_eq!(plan.class_count("slave_stall"), 0);
        assert_eq!(plan.class_count("link_bitflip"), 0);
        assert_eq!(plan.class_count("link_drop"), 0);
        assert_eq!(plan.class_count("router_stuck"), 0);
        assert!(plan.class_count("bus_lost_grant") > 0);
    }

    #[test]
    fn class_names_are_stable() {
        assert_eq!(FaultKind::CLASSES.len(), 13);
        assert_eq!(
            FaultKind::DdrBitFlip { offset: 0, bit: 0 }.class(),
            "ddr_bitflip"
        );
        assert_eq!(FaultKind::IcGlitch.class(), "ic_glitch");
        assert_eq!(FaultKind::PowerCut.class(), "power_cut");
        assert_eq!(FaultKind::TornWrite { keep_bytes: 4 }.class(), "torn_write");
        assert_eq!(
            FaultKind::LinkBitFlip {
                node: 0,
                dir: 0,
                xor: 1,
                header: false
            }
            .class(),
            "link_bitflip"
        );
        assert_eq!(FaultKind::LinkDrop { node: 0, dir: 0 }.class(), "link_drop");
        assert_eq!(FaultKind::RouterStuck { node: 0 }.class(), "router_stuck");
    }

    /// The precomputed SoC keys must match what the old `format!`
    /// produced, for every class (metrics-key compatibility).
    #[test]
    fn soc_keys_match_format() {
        let every = [
            FaultKind::DdrBitFlip { offset: 0, bit: 0 },
            FaultKind::BusLoseGrant,
            FaultKind::SlaveStall {
                slave: 0,
                extra_cycles: 1,
            },
            FaultKind::CorruptResponse { xor: 1 },
            FaultKind::PolicyCorrupt {
                firewall: 0,
                entry: 0,
                bit: 0,
            },
            FaultKind::CcGlitch,
            FaultKind::IcGlitch,
            FaultKind::PowerCut,
            FaultKind::TornWrite { keep_bytes: 4 },
            FaultKind::LinkBitFlip {
                node: 0,
                dir: 0,
                xor: 1,
                header: false,
            },
            FaultKind::LinkDrop { node: 0, dir: 0 },
            FaultKind::RouterStuck { node: 0 },
            FaultKind::EpochCommitFault { stage: 0 },
        ];
        let classes: Vec<&str> = every.iter().map(FaultKind::class).collect();
        assert_eq!(classes, FaultKind::CLASSES);
        for kind in every {
            assert_eq!(kind.soc_key(), format!("soc.fault.{}", kind.class()));
        }
    }

    #[test]
    fn uniform_rates_exclude_terminal_classes() {
        // A soak with uniform rates must never be silently power-cut:
        // the terminal classes are opt-in.
        let plan = FaultPlan::generate(11, &spec(FaultRates::uniform(50.0)));
        assert_eq!(plan.class_count("power_cut"), 0);
        assert_eq!(plan.class_count("torn_write"), 0);
        // The structural NoC classes are opt-in for the same reason.
        assert_eq!(plan.class_count("link_drop"), 0);
        assert_eq!(plan.class_count("router_stuck"), 0);
        // The transient NoC class rides along with the other transients.
        assert!(plan.class_count("link_bitflip") > 0);
    }

    #[test]
    fn noc_structural_classes_generate_when_requested() {
        let rates = FaultRates {
            link_drop: 4.0,
            router_stuck: 2.0,
            link_bitflip: 3.0,
            ..FaultRates::NONE
        };
        let plan = FaultPlan::generate(17, &spec(rates));
        assert_eq!(plan.class_count("link_drop"), 4);
        assert_eq!(plan.class_count("router_stuck"), 2);
        assert_eq!(plan.class_count("link_bitflip"), 3);
    }

    #[test]
    fn terminal_classes_generate_when_requested() {
        let rates = FaultRates {
            power_cut: 3.0,
            torn_write: 2.0,
            ..FaultRates::NONE
        };
        let plan = FaultPlan::generate(5, &spec(rates));
        assert_eq!(plan.class_count("power_cut"), 3);
        assert_eq!(plan.class_count("torn_write"), 2);
    }

    #[test]
    fn new_classes_do_not_perturb_existing_streams() {
        // Per-class derived RNG streams: enabling the terminal classes
        // must leave every other class's schedule untouched.
        let base = FaultPlan::generate(21, &spec(FaultRates::uniform(10.0)));
        let with_terminal = FaultPlan::generate(
            21,
            &spec(FaultRates {
                power_cut: 1.0,
                torn_write: 1.0,
                ..FaultRates::uniform(10.0)
            }),
        );
        for class in ["ddr_bitflip", "bus_lost_grant", "slave_stall", "cc_glitch"] {
            assert_eq!(
                base.class_count(class),
                with_terminal.class_count(class),
                "{class}"
            );
        }
    }

    #[test]
    fn offset_shifts_every_event_and_preserves_order() {
        let plan = FaultPlan::generate(9, &spec(FaultRates::uniform(8.0)));
        let original: Vec<Cycle> = plan.iter().map(|e| e.at).collect();
        let shifted = plan.offset(5_000);
        let moved: Vec<Cycle> = shifted.iter().map(|e| e.at).collect();
        assert_eq!(original.len(), moved.len());
        for (a, b) in original.iter().zip(&moved) {
            assert_eq!(a.0 + 5_000, b.0);
        }
        assert!(moved.windows(2).all(|w| w[0] <= w[1]), "still sorted");
    }

    #[test]
    fn concatenated_plans_replay_deterministically_per_seed() {
        let early = spec(FaultRates::uniform(6.0));
        let late = spec(FaultRates {
            slave_stall: 4.0,
            ..FaultRates::NONE
        });
        let build = |seed: u64| {
            FaultPlan::generate(seed, &early)
                .concat(FaultPlan::generate(seed.wrapping_add(1), &late).offset(10_000))
        };
        let a = build(33);
        let b = build(33);
        assert_eq!(a, b, "same seed, byte-identical composed plan");
        assert_ne!(a, build(34), "different seed diverges");
        let merged: Vec<Cycle> = a.iter().map(|e| e.at).collect();
        assert!(merged.windows(2).all(|w| w[0] <= w[1]), "concat re-sorts");
        assert_eq!(
            a.len(),
            a.class_count("slave_stall") + {
                let early_only = FaultPlan::generate(33, &early);
                early_only.len() - early_only.class_count("slave_stall")
            }
        );
    }

    #[test]
    fn staged_generation_is_reproducible_and_per_stage_independent() {
        let stages = [
            ("foothold", spec(FaultRates::uniform(3.0)), false),
            (
                "pivot",
                spec(FaultRates {
                    ddr_bitflip: 5.0,
                    ..FaultRates::NONE
                }),
                true,
            ),
        ];
        let a = StagedPlan::generate(77, &stages);
        let b = StagedPlan::generate(77, &stages);
        assert_eq!(a, b, "same seed replays byte-identically");
        assert_ne!(a, StagedPlan::generate(78, &stages));

        // Per-stage derived seeds: editing one stage's spec leaves the
        // other stage's schedule untouched.
        let hotter_pivot = [
            stages[0],
            (
                "pivot",
                spec(FaultRates {
                    ddr_bitflip: 9.0,
                    ..FaultRates::NONE
                }),
                true,
            ),
        ];
        let c = StagedPlan::generate(77, &hotter_pivot);
        assert_eq!(a.stages()[0].plan, c.stages()[0].plan);
    }

    #[test]
    fn stage_preconditions_gate_firing_order() {
        let stages = [
            ("foothold", spec(FaultRates::uniform(2.0)), false),
            (
                "pivot",
                spec(FaultRates {
                    slave_stall: 3.0,
                    ..FaultRates::NONE
                }),
                true,
            ),
        ];
        // Successful foothold: the gated stage fires after advance.
        let mut ok = StagedPlan::generate(11, &stages);
        assert_eq!(ok.active_stage(), Some("foothold"));
        let first = ok.take_due(Cycle(10_000));
        assert!(!first.is_empty());
        assert!(
            ok.take_due(Cycle(u64::MAX)).is_empty(),
            "later stages never leak out before advance"
        );
        ok.advance(true);
        assert_eq!(ok.active_stage(), Some("pivot"));
        assert!(!ok.take_due(Cycle(u64::MAX)).is_empty());
        assert!(!ok.aborted());

        // Failed foothold: the gated stage (and the campaign) aborts.
        let mut lost = StagedPlan::generate(11, &stages);
        lost.take_due(Cycle(u64::MAX));
        lost.advance(false);
        assert!(lost.aborted());
        assert_eq!(lost.active_stage(), None);
        assert!(lost.take_due(Cycle(u64::MAX)).is_empty());
    }

    #[test]
    fn ungated_stage_advances_even_without_foothold() {
        let stages = [
            ("a", spec(FaultRates::uniform(1.0)), false),
            ("b", spec(FaultRates::uniform(1.0)), false),
        ];
        let mut plan = StagedPlan::generate(3, &stages);
        plan.advance(false);
        assert_eq!(plan.active_stage(), Some("b"), "ungated stage still runs");
        assert!(!plan.aborted());
        plan.advance(true);
        assert_eq!(plan.active_stage(), None, "exhausted");
        assert!(!plan.aborted());
    }
}
