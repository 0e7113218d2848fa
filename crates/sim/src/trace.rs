//! The observability spine: cycle-stamped structured trace events.
//!
//! The paper's first required security feature is *fast reaction* (§III-C);
//! measuring reaction time means following one transaction from the cycle a
//! master issues it, through the firewall verdict and bus/NoC transport, to
//! the LCF cipher/hash work and final completion. Every layer records
//! [`TraceEvent`]s into one shared, bounded ring via a cloneable
//! [`Tracer`] handle; correlation happens through the ids the layers already
//! use (bus `TxnId`, NoC `PacketId`, firewall ids), carried here as plain
//! integers so this module depends on nothing above `secbus-sim`.
//!
//! Determinism rules:
//!
//! * events are pushed in simulation order (the SoC is single-threaded), so
//!   the buffer is cycle-ordered by construction;
//! * the buffer is bounded ([`EventLog`] ring): overflow evicts the oldest
//!   event and counts it in `dropped` — nothing is silently lost;
//! * tracing is opt-in. A component without a tracer pays one `Option`
//!   check; with one, the cost is an enum copy into a ring buffer.

use std::cell::RefCell;
use std::rc::Rc;

use crate::cycle::Cycle;
use crate::json::Json;
use crate::log::EventLog;

/// One cycle-stamped event on the observability spine.
///
/// Fields are plain integers and `'static` mnemonics so every crate in the
/// workspace can record events without type cycles: `txn` is the bus
/// transaction id, `packet` the NoC packet id, `firewall` the monitor's
/// firewall id, `master` the bus master index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A master port issued a transaction toward the bus.
    TxnIssued {
        /// Bus transaction id.
        txn: u64,
        /// Issuing bus master index.
        master: u8,
        /// Target address.
        addr: u32,
        /// Whether the operation is a write.
        write: bool,
    },
    /// A Local Firewall reached a verdict on a transaction.
    FwVerdict {
        /// Bus transaction id.
        txn: u64,
        /// Firewall id (monitor numbering).
        firewall: u8,
        /// `true` if the transaction passed the check.
        passed: bool,
        /// Cycles charged for the check.
        latency: u64,
    },
    /// The shared bus granted a transaction (its one "hop").
    BusHop {
        /// Bus transaction id.
        txn: u64,
        /// Granted master index.
        master: u8,
        /// Cycles the request waited for the grant.
        wait: u64,
    },
    /// A NoC packet advanced one hop toward its destination.
    NocHop {
        /// NoC packet id.
        packet: u64,
        /// Node the hop departed from.
        node: u16,
        /// Cycles the hop cost (router + link serialization).
        latency: u64,
    },
    /// A retransmission: NoC ack-timeout/CRC nack or SoC bounded retry.
    Retransmit {
        /// Transaction or packet id, per `layer`.
        id: u64,
        /// Which layer retried (`"noc"` or `"soc"`).
        layer: &'static str,
    },
    /// The Confidentiality Core ciphered a protected DDR access.
    CcCipher {
        /// Bus transaction id.
        txn: u64,
        /// `true` for encrypt (write path), `false` for decrypt.
        encrypt: bool,
        /// Cycles charged for the cipher.
        latency: u64,
    },
    /// The Integrity Core verified (or updated) a hash-tree path.
    IcVerify {
        /// Bus transaction id.
        txn: u64,
        /// Cycles charged for the tree walk.
        cycles: u64,
        /// Whether the node cache shortened the walk.
        cache_hit: bool,
    },
    /// A firewall raised a security alert.
    Alert {
        /// Raising firewall id (monitor numbering).
        firewall: u8,
        /// Violation mnemonic (e.g. `"unauth_write"`).
        violation: &'static str,
    },
    /// The Security Monitor reacted to an alert.
    Reaction {
        /// Offending firewall id.
        firewall: u8,
        /// Reaction mnemonic (`"block"` or `"quarantine"`).
        kind: &'static str,
    },
    /// The LCF journal committed a protected write.
    JournalCommit {
        /// Bus transaction id.
        txn: u64,
    },
    /// A quarantine-recovery episode ran (rebuild/rekey/scrub).
    Recovery {
        /// Quarantined firewall id.
        firewall: u8,
        /// Simulated cycles the recovery charged.
        cycles: u64,
    },
    /// A transaction completed back at its issuing master.
    TxnComplete {
        /// Bus transaction id.
        txn: u64,
        /// Issuing bus master index.
        master: u8,
        /// `true` if the response carried no error.
        ok: bool,
        /// Issue-to-completion latency in cycles.
        latency: u64,
    },
    /// DIFT: a master's accumulated taint tag increased (it consumed data
    /// from a less-trusted source than anything it had touched before).
    TaintSpread {
        /// Bus master index that became (more) tainted.
        master: u8,
        /// Address of the read that raised the tag.
        addr: u32,
        /// New tag mnemonic (`"cipher_only"` or `"unprotected"`).
        tag: &'static str,
    },
    /// DIFT: tainted data reached a protected sink (protected-region
    /// write or configuration store).
    TaintSink {
        /// Bus transaction id (0 for config-path sinks).
        txn: u64,
        /// Writing bus master index.
        master: u8,
        /// Sink address.
        addr: u32,
        /// Whether the write was blocked (protected mode) or let through
        /// for damage accounting (bare mode).
        blocked: bool,
    },
    /// A campaign stage crossed a kill-chain phase boundary
    /// (`"foothold"`, `"pivot"`, `"detection"`, `"reaction"`).
    CampaignPhase {
        /// Campaign correlation id (stable per campaign kind + seed).
        campaign: u8,
        /// Stage index within the campaign plan.
        stage: u8,
        /// Phase mnemonic.
        phase: &'static str,
    },
    /// Graceful degradation: sustained overload pushed a protection
    /// region one step down its declared-safe posture lattice (brownout).
    DegradeEnter {
        /// Index of the degraded protection region.
        region: u8,
        /// Posture mnemonic before the step (e.g. `"verify"`).
        from: &'static str,
        /// Posture mnemonic after the step (e.g. `"cipher_only"`).
        to: &'static str,
    },
    /// Graceful degradation ended: pressure stayed below the low
    /// watermark long enough (hysteresis) and the region re-tightened to
    /// its configured posture.
    DegradeExit {
        /// Index of the re-tightened protection region.
        region: u8,
        /// Cycles the region spent degraded.
        cycles: u64,
    },
    /// A multi-firewall policy epoch entered its prepare phase: tables
    /// staged and validated, no firewall modified yet.
    EpochPrepare {
        /// The epoch number the commit is trying to open.
        epoch: u64,
        /// Firewall tables staged in the batch.
        updates: u8,
    },
    /// The epoch committed: every staged firewall swapped atomically.
    EpochCommit {
        /// The now-current epoch.
        epoch: u64,
        /// Firewalls swapped at the commit point.
        updates: u8,
    },
    /// The epoch was refused or a mid-commit fault forced a rollback; no
    /// firewall is left on the new epoch.
    EpochAbort {
        /// The epoch number that failed to open (the counter did not move).
        epoch: u64,
        /// Why: `"validation"`, `"unknown_firewall"`, `"tainted_initiator"`,
        /// `"commit_fault"` or `"verifier"`.
        reason: &'static str,
    },
}

impl TraceEvent {
    /// Stable event-kind mnemonic (Chrome trace `name`).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::TxnIssued { .. } => "txn_issued",
            TraceEvent::FwVerdict { .. } => "fw_verdict",
            TraceEvent::BusHop { .. } => "bus_hop",
            TraceEvent::NocHop { .. } => "noc_hop",
            TraceEvent::Retransmit { .. } => "retransmit",
            TraceEvent::CcCipher { .. } => "cc_cipher",
            TraceEvent::IcVerify { .. } => "ic_verify",
            TraceEvent::Alert { .. } => "alert",
            TraceEvent::Reaction { .. } => "reaction",
            TraceEvent::JournalCommit { .. } => "journal_commit",
            TraceEvent::Recovery { .. } => "recovery",
            TraceEvent::TxnComplete { .. } => "txn_complete",
            TraceEvent::TaintSpread { .. } => "taint_spread",
            TraceEvent::TaintSink { .. } => "taint_sink",
            TraceEvent::CampaignPhase { .. } => "campaign_phase",
            TraceEvent::DegradeEnter { .. } => "degrade_enter",
            TraceEvent::DegradeExit { .. } => "degrade_exit",
            TraceEvent::EpochPrepare { .. } => "epoch_prepare",
            TraceEvent::EpochCommit { .. } => "epoch_commit",
            TraceEvent::EpochAbort { .. } => "epoch_abort",
        }
    }

    /// Chrome trace `tid` lane: one per component so the timeline groups
    /// events by who recorded them. Masters occupy 0..16, firewalls
    /// 16..48, the bus 48, the LCF 49, the monitor 50, the campaign
    /// runner 51, the reconfig controller 52, NoC nodes 64+.
    fn lane(&self) -> u64 {
        match self {
            TraceEvent::TxnIssued { master, .. }
            | TraceEvent::TxnComplete { master, .. }
            | TraceEvent::TaintSpread { master, .. }
            | TraceEvent::TaintSink { master, .. } => u64::from(*master),
            TraceEvent::FwVerdict { firewall, .. }
            | TraceEvent::Alert { firewall, .. }
            | TraceEvent::Reaction { firewall, .. }
            | TraceEvent::Recovery { firewall, .. } => 16 + u64::from(*firewall),
            TraceEvent::BusHop { .. } | TraceEvent::Retransmit { .. } => 48,
            TraceEvent::CcCipher { .. }
            | TraceEvent::IcVerify { .. }
            | TraceEvent::JournalCommit { .. } => 49,
            // Degradation decisions are monitor-driven: monitor lane.
            TraceEvent::DegradeEnter { .. } | TraceEvent::DegradeExit { .. } => 50,
            TraceEvent::CampaignPhase { .. } => 51,
            TraceEvent::EpochPrepare { .. }
            | TraceEvent::EpochCommit { .. }
            | TraceEvent::EpochAbort { .. } => 52,
            TraceEvent::NocHop { node, .. } => 64 + u64::from(*node),
        }
    }

    /// Duration in cycles for events that model work over time; `None`
    /// renders as a Chrome instant event.
    fn duration(&self) -> Option<u64> {
        match self {
            TraceEvent::FwVerdict { latency, .. }
            | TraceEvent::NocHop { latency, .. }
            | TraceEvent::CcCipher { latency, .. }
            | TraceEvent::TxnComplete { latency, .. } => Some(*latency),
            TraceEvent::IcVerify { cycles, .. }
            | TraceEvent::Recovery { cycles, .. }
            | TraceEvent::DegradeExit { cycles, .. } => Some(*cycles),
            _ => None,
        }
    }

    /// Event payload as Chrome trace `args` (insertion order is the
    /// declaration order of the fields, deterministic by construction).
    fn args(&self) -> Json {
        let mut fields: Vec<(String, Json)> = Vec::new();
        let mut put = |k: &str, v: Json| fields.push((k.to_string(), v));
        match *self {
            TraceEvent::TxnIssued {
                txn,
                master,
                addr,
                write,
            } => {
                put("txn", Json::uint(txn));
                put("master", Json::uint(u64::from(master)));
                put("addr", Json::str(format!("{addr:#010x}")));
                put("write", Json::Bool(write));
            }
            TraceEvent::FwVerdict {
                txn,
                firewall,
                passed,
                latency,
            } => {
                put("txn", Json::uint(txn));
                put("firewall", Json::uint(u64::from(firewall)));
                put("passed", Json::Bool(passed));
                put("latency", Json::uint(latency));
            }
            TraceEvent::BusHop { txn, master, wait } => {
                put("txn", Json::uint(txn));
                put("master", Json::uint(u64::from(master)));
                put("wait", Json::uint(wait));
            }
            TraceEvent::NocHop {
                packet,
                node,
                latency,
            } => {
                put("packet", Json::uint(packet));
                put("node", Json::uint(u64::from(node)));
                put("latency", Json::uint(latency));
            }
            TraceEvent::Retransmit { id, layer } => {
                put("id", Json::uint(id));
                put("layer", Json::str(layer));
            }
            TraceEvent::CcCipher {
                txn,
                encrypt,
                latency,
            } => {
                put("txn", Json::uint(txn));
                put("encrypt", Json::Bool(encrypt));
                put("latency", Json::uint(latency));
            }
            TraceEvent::IcVerify {
                txn,
                cycles,
                cache_hit,
            } => {
                put("txn", Json::uint(txn));
                put("cycles", Json::uint(cycles));
                put("cache_hit", Json::Bool(cache_hit));
            }
            TraceEvent::Alert {
                firewall,
                violation,
            } => {
                put("firewall", Json::uint(u64::from(firewall)));
                put("violation", Json::str(violation));
            }
            TraceEvent::Reaction { firewall, kind } => {
                put("firewall", Json::uint(u64::from(firewall)));
                put("kind", Json::str(kind));
            }
            TraceEvent::JournalCommit { txn } => {
                put("txn", Json::uint(txn));
            }
            TraceEvent::Recovery { firewall, cycles } => {
                put("firewall", Json::uint(u64::from(firewall)));
                put("cycles", Json::uint(cycles));
            }
            TraceEvent::TxnComplete {
                txn,
                master,
                ok,
                latency,
            } => {
                put("txn", Json::uint(txn));
                put("master", Json::uint(u64::from(master)));
                put("ok", Json::Bool(ok));
                put("latency", Json::uint(latency));
            }
            TraceEvent::TaintSpread { master, addr, tag } => {
                put("master", Json::uint(u64::from(master)));
                put("addr", Json::str(format!("{addr:#010x}")));
                put("tag", Json::str(tag));
            }
            TraceEvent::TaintSink {
                txn,
                master,
                addr,
                blocked,
            } => {
                put("txn", Json::uint(txn));
                put("master", Json::uint(u64::from(master)));
                put("addr", Json::str(format!("{addr:#010x}")));
                put("blocked", Json::Bool(blocked));
            }
            TraceEvent::CampaignPhase {
                campaign,
                stage,
                phase,
            } => {
                put("campaign", Json::uint(u64::from(campaign)));
                put("stage", Json::uint(u64::from(stage)));
                put("phase", Json::str(phase));
            }
            TraceEvent::DegradeEnter { region, from, to } => {
                put("region", Json::uint(u64::from(region)));
                put("from", Json::str(from));
                put("to", Json::str(to));
            }
            TraceEvent::DegradeExit { region, cycles } => {
                put("region", Json::uint(u64::from(region)));
                put("cycles", Json::uint(cycles));
            }
            TraceEvent::EpochPrepare { epoch, updates }
            | TraceEvent::EpochCommit { epoch, updates } => {
                put("epoch", Json::uint(epoch));
                put("updates", Json::uint(u64::from(updates)));
            }
            TraceEvent::EpochAbort { epoch, reason } => {
                put("epoch", Json::uint(epoch));
                put("reason", Json::str(reason));
            }
        }
        Json::Obj(fields)
    }
}

/// A cloneable handle onto one shared, bounded, cycle-ordered ring of
/// trace events; eviction under bound pressure is counted, never silent.
///
/// Every component in a `Soc` holds a clone; they all feed the same ring.
/// `Rc<RefCell<…>>` is deliberate: a `Soc` never crosses threads (sweeps
/// parallelize across instances), so the handle needs no atomics and makes
/// the single-threadedness explicit in the type system.
#[derive(Debug, Clone)]
pub struct Tracer {
    log: Rc<RefCell<EventLog<TraceEvent>>>,
}

impl Tracer {
    /// A tracer over a fresh ring of `capacity` events (capacity must be
    /// > 0).
    pub fn new(capacity: usize) -> Self {
        Tracer {
            log: Rc::new(RefCell::new(EventLog::new(capacity))),
        }
    }

    /// Record one event at `at`. Callers record in simulation order, so
    /// the retained window stays cycle-sorted.
    #[inline]
    pub fn record(&self, at: Cycle, event: TraceEvent) {
        self.log.borrow_mut().push(at, event);
    }

    /// Copy out the retained window, oldest first.
    pub fn snapshot(&self) -> Vec<(Cycle, TraceEvent)> {
        self.log.borrow().iter().copied().collect()
    }

    /// Total events ever recorded through this ring (retained + dropped).
    pub fn total(&self) -> u64 {
        self.log.borrow().total()
    }

    /// Events evicted by the bound.
    pub fn dropped(&self) -> u64 {
        self.log.borrow().dropped()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.log.borrow().len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.log.borrow().is_empty()
    }

    /// Export the retained window in Chrome `trace_event` JSON format
    /// (load with `chrome://tracing` or Perfetto). `ts` is the simulated
    /// cycle; events with a known duration render as complete (`"X"`)
    /// slices, the rest as thread-scoped instants (`"i"`).
    pub fn chrome_trace(&self) -> Json {
        let log = self.log.borrow();
        let events = log
            .iter()
            .map(|(at, ev)| {
                let mut fields = vec![
                    ("name".to_string(), Json::str(ev.kind())),
                    ("ts".to_string(), Json::uint(at.get())),
                    ("pid".to_string(), Json::uint(0)),
                    ("tid".to_string(), Json::uint(ev.lane())),
                ];
                match ev.duration() {
                    Some(dur) => {
                        fields.push(("ph".to_string(), Json::str("X")));
                        fields.push(("dur".to_string(), Json::uint(dur.max(1))));
                    }
                    None => {
                        fields.push(("ph".to_string(), Json::str("i")));
                        fields.push(("s".to_string(), Json::str("t")));
                    }
                }
                fields.push(("args".to_string(), ev.args()));
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".to_string(), Json::Arr(events)),
            ("displayTimeUnit".to_string(), Json::str("ns")),
            (
                "otherData".to_string(),
                Json::Obj(vec![
                    ("clock".to_string(), Json::str("simulated cycles")),
                    ("total".to_string(), Json::uint(log.total())),
                    ("dropped".to_string(), Json::uint(log.dropped())),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(txn: u64) -> TraceEvent {
        TraceEvent::TxnIssued {
            txn,
            master: 1,
            addr: 0x2000_0000,
            write: false,
        }
    }

    #[test]
    fn buffer_bounds_and_counts_drops() {
        let t = Tracer::new(4);
        for i in 0..10 {
            t.record(Cycle(i), ev(i));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.total(), 10);
        assert_eq!(t.dropped(), 6);
        let first = t.snapshot()[0];
        assert_eq!(first.0, Cycle(6), "oldest retained is the 7th push");
    }

    #[test]
    fn tracer_clones_share_one_buffer() {
        let t = Tracer::new(16);
        let t2 = t.clone();
        t.record(Cycle(1), ev(1));
        t2.record(Cycle(2), ev(2));
        assert_eq!(t.len(), 2);
        assert_eq!(t2.total(), 2);
        let snap = t.snapshot();
        assert_eq!(snap[0].0, Cycle(1));
        assert_eq!(snap[1].0, Cycle(2));
    }

    #[test]
    fn chrome_trace_shape() {
        let t = Tracer::new(16);
        t.record(Cycle(3), ev(7));
        t.record(
            Cycle(4),
            TraceEvent::FwVerdict {
                txn: 7,
                firewall: 2,
                passed: false,
                latency: 12,
            },
        );
        let doc = t.chrome_trace();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("txn_issued"));
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[1].get("dur").unwrap().as_u64(), Some(12));
        assert_eq!(events[1].get("ts").unwrap().as_u64(), Some(4));
        // The whole document round-trips through the in-tree parser.
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn every_event_kind_is_distinct() {
        let kinds = [
            ev(0).kind(),
            TraceEvent::FwVerdict {
                txn: 0,
                firewall: 0,
                passed: true,
                latency: 0,
            }
            .kind(),
            TraceEvent::BusHop {
                txn: 0,
                master: 0,
                wait: 0,
            }
            .kind(),
            TraceEvent::NocHop {
                packet: 0,
                node: 0,
                latency: 0,
            }
            .kind(),
            TraceEvent::Retransmit {
                id: 0,
                layer: "soc",
            }
            .kind(),
            TraceEvent::CcCipher {
                txn: 0,
                encrypt: true,
                latency: 0,
            }
            .kind(),
            TraceEvent::IcVerify {
                txn: 0,
                cycles: 0,
                cache_hit: false,
            }
            .kind(),
            TraceEvent::Alert {
                firewall: 0,
                violation: "no_policy",
            }
            .kind(),
            TraceEvent::Reaction {
                firewall: 0,
                kind: "block",
            }
            .kind(),
            TraceEvent::JournalCommit { txn: 0 }.kind(),
            TraceEvent::Recovery {
                firewall: 0,
                cycles: 0,
            }
            .kind(),
            TraceEvent::TxnComplete {
                txn: 0,
                master: 0,
                ok: true,
                latency: 0,
            }
            .kind(),
            TraceEvent::TaintSpread {
                master: 0,
                addr: 0,
                tag: "unprotected",
            }
            .kind(),
            TraceEvent::TaintSink {
                txn: 0,
                master: 0,
                addr: 0,
                blocked: true,
            }
            .kind(),
            TraceEvent::CampaignPhase {
                campaign: 0,
                stage: 0,
                phase: "foothold",
            }
            .kind(),
            TraceEvent::DegradeEnter {
                region: 0,
                from: "verify",
                to: "cipher_only",
            }
            .kind(),
            TraceEvent::DegradeExit {
                region: 0,
                cycles: 0,
            }
            .kind(),
            TraceEvent::EpochPrepare {
                epoch: 1,
                updates: 0,
            }
            .kind(),
            TraceEvent::EpochCommit {
                epoch: 1,
                updates: 0,
            }
            .kind(),
            TraceEvent::EpochAbort {
                epoch: 1,
                reason: "commit_fault",
            }
            .kind(),
        ];
        let unique: std::collections::BTreeSet<_> = kinds.iter().collect();
        assert_eq!(unique.len(), kinds.len());
    }
}
