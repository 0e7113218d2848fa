//! The shared, single-granted system bus.
//!
//! [`SharedBus`] owns every master request/response queue and every slave
//! inbox/outbox. Devices never talk to each other directly; the SoC moves
//! transactions between its devices and the bus each cycle, which keeps the
//! whole simulation deterministic and free of shared mutable state.
//!
//! ## Cycle protocol
//!
//! Per [`SharedBus::tick`] (called once per cycle, monotonically):
//!
//! 1. Responses sitting in slave outboxes are routed back to the issuing
//!    master's response queue (response path is pipelined, 1 cycle).
//! 2. If the data phase of a previous grant still occupies the bus, stop.
//! 3. Otherwise arbitration runs over the masters whose request queue is
//!    non-empty; the winner's head-of-queue transaction is address-decoded
//!    and delivered to the owning slave's inbox. The bus stays busy for
//!    `grant_cycles + burst * beat_cycles` cycles.
//!
//! A decode miss completes immediately with [`BusError::Decode`] — exactly
//! what a bus timeout unit would report on the real system.

use std::collections::VecDeque;

use secbus_sim::{stat_keys, Cycle, EventLog, Stats, TraceEvent, Tracer};

use crate::addrmap::{AddrRange, AddressMap, OverlapError};
use crate::arbiter::Arbiter;
use crate::txn::{BusError, MasterId, Op, Response, SlaveId, Transaction, TxnId, Width};

/// Static bus timing/shape parameters.
#[derive(Debug, Clone, Copy)]
pub struct BusConfig {
    /// Cycles consumed by arbitration + address phase for each grant.
    pub grant_cycles: u64,
    /// Cycles per data beat once granted.
    pub beat_cycles: u64,
    /// Capacity of the bus-side transaction trace.
    pub trace_capacity: usize,
    /// Bound on each master's request queue. [`SharedBus::try_issue_at`]
    /// refuses (returns `None`) once a master has this many requests
    /// queued but not yet granted — the admission-control seam the SoC's
    /// port adapters shed at. Must be > 0.
    pub master_queue_capacity: usize,
    /// Bound on each slave's inbox. A master whose head-of-queue request
    /// targets a full slave is *not eligible* for arbitration that cycle
    /// (credit-style backpressure: the request waits at the master, it is
    /// never dropped), counted in `bus.backpressure_stalls`. Must be > 0.
    pub slave_queue_capacity: usize,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig {
            grant_cycles: 1,
            beat_cycles: 1,
            trace_capacity: 4096,
            master_queue_capacity: 64,
            slave_queue_capacity: 16,
        }
    }
}

stat_keys! {
    /// The bus counters bumped per cycle, per issue or per grant, kept
    /// in fixed [`Stats`] slots.
    pub enum BusCounter {
        BackpressureStalls => "bus.backpressure_stalls",
        BusyCycles => "bus.busy_cycles",
        Cancelled => "bus.cancelled",
        Completions => "bus.completions",
        ContendedCycles => "bus.contended_cycles",
        Grants => "bus.grants",
        IssueRefused => "bus.issue_refused",
        Issued => "bus.issued",
    }
}

stat_keys! {
    /// The bus histograms recorded per grant, kept in fixed [`Stats`]
    /// slots.
    pub enum BusHistogram {
        GrantWait => "bus.grant_wait",
    }
}

/// One entry of the bus trace: a transaction that was *granted* the bus.
///
/// The containment property of the paper ("the attack must not reach the
/// communication architecture") is asserted against this trace.
pub type BusTrace = EventLog<Transaction>;

/// A slave completion the bus could not attribute to any in-flight
/// transaction: the id is unknown, already completed, or was cancelled by
/// the watchdog before the slave finished. Such a response is *dropped*
/// fail-secure (routing it anywhere would hand unrequested data to a
/// master — the bus-level shape of a DMA-style impersonation) and
/// surfaced through [`SharedBus::drain_orphans`] for the system to audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrphanCompletion {
    /// The slave that produced the unattributable response.
    pub slave: SlaveId,
    /// The transaction id the response claimed to complete.
    pub txn: TxnId,
}

#[derive(Debug, Default)]
struct MasterState {
    /// Queued requests with the cycle from which each may arbitrate
    /// (master-side firewall checking delays eligibility).
    requests: VecDeque<(Cycle, Transaction)>,
    responses: VecDeque<Response>,
}

#[derive(Debug, Default)]
struct SlaveState {
    inbox: VecDeque<Transaction>,
    outbox: VecDeque<(MasterId, Response)>,
}

/// The shared arbitrated bus.
/// What ticking the bus would do, as reported by
/// [`SharedBus::quiescence`] — the event-driven core's skip seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusQuiet {
    /// Tick may change state this cycle; do not skip.
    Active,
    /// Ticks strictly before the cycle only account busy time; tick
    /// again at the cycle.
    Until(Cycle),
    /// Ticks are pure until new requests arrive.
    Idle,
}

pub struct SharedBus {
    config: BusConfig,
    arbiter: Box<dyn Arbiter>,
    map: AddressMap,
    masters: Vec<MasterState>,
    slaves: Vec<SlaveState>,
    /// Which master issued each in-flight transaction (small, scanned).
    inflight: Vec<(TxnId, MasterId)>,
    busy_until: u64,
    next_id: u64,
    stats: Stats,
    /// Arbitration candidates, rebuilt in place on every grant attempt.
    requesting: Vec<MasterId>,
    trace: BusTrace,
    /// Fault injection: the next grant is consumed but never delivered.
    lose_next_grant: bool,
    /// Fault injection: XOR pattern applied to the next routed response.
    corrupt_next_response: Option<u32>,
    /// Completions with no in-flight owner, dropped fail-secure and held
    /// for [`SharedBus::drain_orphans`].
    orphans: Vec<OrphanCompletion>,
    /// Observability spine, if attached.
    tracer: Option<Tracer>,
}

impl SharedBus {
    /// Create a bus with the given timing and arbitration policy.
    pub fn new(config: BusConfig, arbiter: Box<dyn Arbiter>) -> Self {
        SharedBus {
            trace: EventLog::new(config.trace_capacity),
            config,
            arbiter,
            map: AddressMap::new(),
            masters: Vec::new(),
            slaves: Vec::new(),
            inflight: Vec::new(),
            busy_until: 0,
            next_id: 0,
            stats: Stats::slotted(BusCounter::KEYS, BusHistogram::KEYS),
            requesting: Vec::new(),
            lose_next_grant: false,
            corrupt_next_response: None,
            orphans: Vec::new(),
            tracer: None,
        }
    }

    /// Attach the observability spine; the bus records a
    /// [`TraceEvent::BusHop`] for every grant.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Register a new master port; returns its id.
    pub fn add_master(&mut self) -> MasterId {
        let id = MasterId(u8::try_from(self.masters.len()).expect("too many masters"));
        self.masters.push(MasterState::default());
        id
    }

    /// Register a new slave port; returns its id (map ranges separately).
    pub fn add_slave(&mut self) -> SlaveId {
        let id = SlaveId(u8::try_from(self.slaves.len()).expect("too many slaves"));
        self.slaves.push(SlaveState::default());
        id
    }

    /// Map an address range to an existing slave.
    pub fn map_range(&mut self, slave: SlaveId, range: AddrRange) -> Result<(), OverlapError> {
        assert!((slave.0 as usize) < self.slaves.len(), "unknown slave");
        self.map.insert(range, slave)
    }

    /// The system address map.
    pub fn address_map(&self) -> &AddressMap {
        &self.map
    }

    /// Number of registered masters.
    pub fn master_count(&self) -> usize {
        self.masters.len()
    }

    /// Number of registered slaves.
    pub fn slave_count(&self) -> usize {
        self.slaves.len()
    }

    /// Enqueue a request from `master`; returns the assigned transaction id.
    #[allow(clippy::too_many_arguments)]
    pub fn issue(
        &mut self,
        master: MasterId,
        op: Op,
        addr: u32,
        width: Width,
        data: u32,
        burst: u16,
        now: Cycle,
    ) -> TxnId {
        self.issue_at(master, op, addr, width, data, burst, now, now)
    }

    /// Enqueue a request that becomes eligible for arbitration only at
    /// `ready_at` — how the SoC models the Security Builder's check delay
    /// between an IP and the bus.
    ///
    /// # Panics
    /// Panics if `master`'s bounded request queue is full. Callers without
    /// their own admission control must either size
    /// [`BusConfig::master_queue_capacity`] for their worst case or use
    /// [`SharedBus::try_issue_at`] and shed on `None`.
    #[allow(clippy::too_many_arguments)]
    pub fn issue_at(
        &mut self,
        master: MasterId,
        op: Op,
        addr: u32,
        width: Width,
        data: u32,
        burst: u16,
        issued_at: Cycle,
        ready_at: Cycle,
    ) -> TxnId {
        self.try_issue_at(master, op, addr, width, data, burst, issued_at, ready_at)
            .expect(
                "master request queue full — shed via try_issue_at or raise master_queue_capacity",
            )
    }

    /// [`SharedBus::issue_at`] with explicit admission control: returns
    /// `None` (and counts a `bus.issue_refused`) instead of queueing when
    /// the master's bounded request queue is full. The caller owns the
    /// refusal — the SoC's port adapters turn it into a typed
    /// `Violation::Shed` alert so no transaction is ever silently lost.
    #[allow(clippy::too_many_arguments)]
    pub fn try_issue_at(
        &mut self,
        master: MasterId,
        op: Op,
        addr: u32,
        width: Width,
        data: u32,
        burst: u16,
        issued_at: Cycle,
        ready_at: Cycle,
    ) -> Option<TxnId> {
        let queue = &self.masters[master.0 as usize].requests;
        if queue.len() >= self.config.master_queue_capacity {
            self.stats.incr_slot(BusCounter::IssueRefused);
            return None;
        }
        let id = self.alloc_txn_id();
        let txn = Transaction {
            id,
            master,
            op,
            addr,
            width,
            data,
            burst: burst.max(1),
            issued_at,
        };
        self.masters[master.0 as usize]
            .requests
            .push_back((ready_at, txn));
        self.stats.incr_slot(BusCounter::Issued);
        Some(id)
    }

    /// Free request-queue slots left before `master` hits its bound.
    pub fn master_queue_free(&self, master: MasterId) -> usize {
        self.config
            .master_queue_capacity
            .saturating_sub(self.masters[master.0 as usize].requests.len())
    }

    /// Total requests queued across every master — the fabric-pressure
    /// signal the SecurityMonitor's overload hysteresis watches.
    pub fn total_pending_requests(&self) -> usize {
        self.masters.iter().map(|m| m.requests.len()).sum()
    }

    /// Allocate a transaction id from the bus id space without queueing
    /// anything (used for firewall-synthesized discard responses, so that
    /// ids stay unique across real and synthetic completions).
    pub fn alloc_txn_id(&mut self) -> TxnId {
        let id = TxnId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Deliver a response directly to `master`'s response queue (firewall
    /// discard synthesis); arrives on the next tick like any completion.
    pub fn push_response(&mut self, master: MasterId, response: Response) {
        self.masters[master.0 as usize]
            .responses
            .push_back(response);
    }

    /// Pop the next completed response for `master`, if any.
    pub fn poll_response(&mut self, master: MasterId) -> Option<Response> {
        self.masters[master.0 as usize].responses.pop_front()
    }

    /// Number of requests `master` has queued but not yet granted.
    pub fn pending_requests(&self, master: MasterId) -> usize {
        self.masters[master.0 as usize].requests.len()
    }

    /// Pop the next transaction delivered to `slave`, if any.
    pub fn slave_pop(&mut self, slave: SlaveId) -> Option<Transaction> {
        self.slaves[slave.0 as usize].inbox.pop_front()
    }

    /// Peek at the next transaction delivered to `slave` without removing it.
    pub fn slave_peek(&self, slave: SlaveId) -> Option<&Transaction> {
        self.slaves[slave.0 as usize].inbox.front()
    }

    /// Complete a transaction on behalf of `slave`; the response is routed
    /// back to the issuing master on the next [`SharedBus::tick`].
    ///
    /// A response with no in-flight owner — unknown id, duplicate
    /// completion, or a late answer to a watchdog-cancelled transaction —
    /// is dropped fail-secure and recorded as an [`OrphanCompletion`]
    /// instead of being routed (or panicking): an impersonation campaign
    /// can legitimately provoke this, and the safe outcome is that the
    /// data reaches nobody.
    pub fn slave_complete(&mut self, slave: SlaveId, response: Response) {
        match self.take_inflight(response.txn) {
            Some(master) => {
                self.slaves[slave.0 as usize]
                    .outbox
                    .push_back((master, response));
            }
            None => {
                self.stats.incr("bus.orphan_completions");
                self.orphans.push(OrphanCompletion {
                    slave,
                    txn: response.txn,
                });
            }
        }
    }

    /// Take the orphaned completions dropped since the last drain.
    pub fn drain_orphans(&mut self) -> Vec<OrphanCompletion> {
        std::mem::take(&mut self.orphans)
    }

    fn take_inflight(&mut self, txn: TxnId) -> Option<MasterId> {
        let idx = self.inflight.iter().position(|&(t, _)| t == txn)?;
        Some(self.inflight.swap_remove(idx).1)
    }

    /// Fault injection: glitch the arbitration of the next grant so the
    /// winning transaction is consumed but never delivered to its slave.
    /// The issuing master receives no response — a hang unless a watchdog
    /// cancels the transaction.
    pub fn inject_lose_grant(&mut self) {
        self.lose_next_grant = true;
    }

    /// Fault injection: XOR `pattern` into the data beat of the next
    /// response routed from a slave outbox back to its master. Applied on
    /// the return path only, so the bus-side *request* trace is untouched.
    pub fn inject_corrupt_response(&mut self, pattern: u32) {
        self.corrupt_next_response = Some(pattern.max(1));
    }

    /// Cancel an in-flight transaction (watchdog recovery): forget the
    /// master binding and purge the transaction from any slave inbox it is
    /// still queued in. Returns the issuing master if the transaction was
    /// in flight; the caller synthesizes the timeout response.
    ///
    /// After cancellation a late [`SharedBus::slave_complete`] for the same
    /// id is dropped fail-secure as an [`OrphanCompletion`]; the SoC also
    /// purges the slave's service state so the stale answer never forms.
    pub fn cancel_inflight(&mut self, txn: TxnId) -> Option<MasterId> {
        let master = self.take_inflight(txn)?;
        for slave in &mut self.slaves {
            slave.inbox.retain(|t| t.id != txn);
        }
        self.stats.incr_slot(BusCounter::Cancelled);
        Some(master)
    }

    /// Whether `txn` is currently in flight (granted, not yet completed).
    pub fn is_inflight(&self, txn: TxnId) -> bool {
        self.inflight.iter().any(|&(t, _)| t == txn)
    }

    /// Advance the bus by one cycle.
    pub fn tick(&mut self, now: Cycle) {
        // 1. Drain slave outboxes into master response queues.
        for slave in &mut self.slaves {
            while let Some((master, mut resp)) = slave.outbox.pop_front() {
                resp.completed_at = now;
                if let Some(xor) = self.corrupt_next_response.take() {
                    resp.data ^= xor;
                    self.stats.incr("bus.fault.corrupted_responses");
                }
                self.masters[master.0 as usize].responses.push_back(resp);
                self.stats.incr_slot(BusCounter::Completions);
            }
        }

        // 2. Data phase still occupying the bus?
        if now.get() < self.busy_until {
            self.stats.incr_slot(BusCounter::BusyCycles);
            return;
        }

        // 3. Arbitrate among masters whose head request is eligible. A
        // head request targeting a full slave inbox keeps its master OUT
        // of arbitration this cycle (credit-style backpressure: the
        // request waits at the master's queue, never dropped); decode
        // misses stay eligible because they complete immediately.
        let mut backpressured = false;
        self.requesting.clear();
        for (i, m) in self.masters.iter().enumerate() {
            let Some((ready, txn)) = m.requests.front() else {
                continue;
            };
            if *ready > now {
                continue;
            }
            if let Some(slave) = self.map.decode(txn.addr) {
                if self.slaves[slave.0 as usize].inbox.len() >= self.config.slave_queue_capacity {
                    backpressured = true;
                    continue;
                }
            }
            self.requesting.push(MasterId(i as u8));
        }
        if backpressured {
            self.stats.incr_slot(BusCounter::BackpressureStalls);
        }
        if self.requesting.len() > 1 {
            self.stats.incr_slot(BusCounter::ContendedCycles);
        }
        let Some(winner) = self.arbiter.grant(&self.requesting, now) else {
            return;
        };
        // A defective arbiter can name a master outside the requesting
        // set; under overload that must surface as an accounted misgrant,
        // not a panic that takes the fabric down.
        let Some((_, txn)) =
            self.masters
                .get_mut(winner.0 as usize)
                .and_then(|m| match m.requests.front() {
                    Some((ready, _)) if *ready <= now => m.requests.pop_front(),
                    _ => None,
                })
        else {
            self.stats.incr("bus.arbiter_misgrants");
            return;
        };
        if self.lose_next_grant {
            // Fault: the grant pulse is glitched away. The address phase
            // consumed the bus but the transaction never reaches a slave
            // and never completes; nothing is traced as *granted*.
            self.lose_next_grant = false;
            self.stats.incr("bus.fault.lost_grants");
            self.busy_until = now.get() + self.config.grant_cycles;
            return;
        }
        self.stats.incr_slot(BusCounter::Grants);
        let wait = now.saturating_since(txn.issued_at);
        self.stats.record_slot(BusHistogram::GrantWait, wait);
        if let Some(t) = &self.tracer {
            t.record(
                now,
                TraceEvent::BusHop {
                    txn: txn.id.0,
                    master: txn.master.0,
                    wait,
                },
            );
        }
        self.trace.push(now, txn);

        let occupancy = self.config.grant_cycles + self.config.beat_cycles * u64::from(txn.burst);
        self.busy_until = now.get() + occupancy;

        match self.map.decode(txn.addr) {
            Some(slave) => {
                self.inflight.push((txn.id, txn.master));
                self.slaves[slave.0 as usize].inbox.push_back(txn);
            }
            None => {
                self.stats.incr("bus.decode_errors");
                self.masters[txn.master.0 as usize]
                    .responses
                    .push_back(Response {
                        txn: txn.id,
                        data: 0,
                        result: Err(BusError::Decode),
                        completed_at: now,
                    });
            }
        }
    }

    /// Whether the data phase currently occupies the bus at `now`.
    pub fn is_busy(&self, now: Cycle) -> bool {
        now.get() < self.busy_until
    }

    /// Event-core seam: classify what ticking the bus at `now` would
    /// do. [`BusQuiet::Active`] means the tick may mutate real state
    /// (deliver outbox responses, stall-account a backpressured head,
    /// attempt a grant) and must run. [`BusQuiet::Until`] means every
    /// tick strictly before the returned cycle only accounts busy time
    /// — skippable via [`SharedBus::fast_forward`] — and the bus must
    /// be ticked again at that cycle. [`BusQuiet::Idle`] means ticks
    /// are pure (beyond residual busy-time accounting) until new input
    /// arrives.
    ///
    /// Relies on the [`Arbiter`] contract that `grant` is pure when
    /// the requesting set is empty (all in-tree arbiters are; see
    /// DESIGN.md §12).
    pub fn quiescence(&self, now: Cycle) -> BusQuiet {
        if self.slaves.iter().any(|s| !s.outbox.is_empty()) {
            return BusQuiet::Active;
        }
        // A head request becomes actionable — grant attempt, or
        // per-cycle backpressure/contention accounting — at
        // max(ready, busy_until).
        let mut next: Option<u64> = None;
        for m in &self.masters {
            if let Some((ready, _)) = m.requests.front() {
                let eligible = ready.get().max(self.busy_until);
                if eligible <= now.get() {
                    return BusQuiet::Active;
                }
                next = Some(next.map_or(eligible, |n| n.min(eligible)));
            }
        }
        match next {
            Some(c) => BusQuiet::Until(Cycle(c)),
            None => BusQuiet::Idle,
        }
    }

    /// Event-core seam: bulk-account the busy-cycle statistic for the
    /// skipped tick calls at cycles `from..to` (exclusive of `to`,
    /// which is ticked normally). Byte-identical to the per-cycle
    /// `bus.busy_cycles` increments the stepped core performs.
    pub fn fast_forward(&mut self, from: Cycle, to: Cycle) {
        let busy = to.get().min(self.busy_until).saturating_sub(from.get());
        if busy > 0 {
            self.stats.add_slot(BusCounter::BusyCycles, busy);
        }
    }

    /// Whether any master has undelivered responses queued (the SoC's
    /// response-routing step has work to do).
    pub fn has_queued_responses(&self) -> bool {
        self.masters.iter().any(|m| !m.responses.is_empty())
    }

    /// Whether orphan completions await [`SharedBus::drain_orphans`].
    pub fn has_orphans(&self) -> bool {
        !self.orphans.is_empty()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The trace of transactions that were granted the bus.
    pub fn trace(&self) -> &BusTrace {
        &self.trace
    }

    /// Arbitration policy name.
    pub fn arbiter_name(&self) -> &'static str {
        self.arbiter.name()
    }
}

impl std::fmt::Debug for SharedBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedBus")
            .field("masters", &self.masters.len())
            .field("slaves", &self.slaves.len())
            .field("arbiter", &self.arbiter.name())
            .field("busy_until", &self.busy_until)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::{FixedPriority, RoundRobin};

    fn bus() -> SharedBus {
        SharedBus::new(BusConfig::default(), Box::new(FixedPriority))
    }

    fn run_to_response(b: &mut SharedBus, slave: SlaveId, m: MasterId, max: u64) -> Response {
        for c in 0..max {
            b.tick(Cycle(c));
            // Immediately service anything that arrived at the slave.
            while let Some(t) = b.slave_pop(slave) {
                b.slave_complete(
                    slave,
                    Response {
                        txn: t.id,
                        data: 0xdead_beef,
                        result: Ok(()),
                        completed_at: Cycle(c),
                    },
                );
            }
            if let Some(r) = b.poll_response(m) {
                return r;
            }
        }
        panic!("no response within {max} cycles");
    }

    #[test]
    fn read_roundtrip() {
        let mut b = bus();
        let m = b.add_master();
        let s = b.add_slave();
        b.map_range(s, AddrRange::new(0x1000, 0x1000)).unwrap();
        let id = b.issue(m, Op::Read, 0x1004, Width::Word, 0, 1, Cycle(0));
        let r = run_to_response(&mut b, s, m, 16);
        assert_eq!(r.txn, id);
        assert!(r.is_ok());
        assert_eq!(r.data, 0xdead_beef);
    }

    #[test]
    fn decode_error_for_unmapped_address() {
        let mut b = bus();
        let m = b.add_master();
        let _s = b.add_slave();
        b.issue(m, Op::Read, 0xdead_0000, Width::Word, 0, 1, Cycle(0));
        b.tick(Cycle(0));
        let r = b.poll_response(m).expect("immediate decode error");
        assert_eq!(r.result, Err(BusError::Decode));
        assert_eq!(b.stats().counter("bus.decode_errors"), 1);
    }

    #[test]
    fn bus_occupancy_blocks_next_grant() {
        let mut b = bus();
        let m0 = b.add_master();
        let m1 = b.add_master();
        let s = b.add_slave();
        b.map_range(s, AddrRange::new(0, 0x1000)).unwrap();
        // burst of 8 words: occupies grant(1) + 8 beats = 9 cycles.
        b.issue(m0, Op::Write, 0x0, Width::Word, 1, 8, Cycle(0));
        b.issue(m1, Op::Write, 0x4, Width::Word, 2, 1, Cycle(0));
        b.tick(Cycle(0));
        assert_eq!(b.trace().len(), 1, "only m0 granted at cycle 0");
        for c in 1..9 {
            b.tick(Cycle(c));
            assert_eq!(b.trace().len(), 1, "bus busy at cycle {c}");
        }
        b.tick(Cycle(9));
        assert_eq!(b.trace().len(), 2, "m1 granted once data phase ends");
        assert_eq!(b.trace().last().unwrap().1.master, m1);
    }

    #[test]
    fn fixed_priority_wins_ties() {
        let mut b = bus();
        let m0 = b.add_master();
        let m1 = b.add_master();
        let s = b.add_slave();
        b.map_range(s, AddrRange::new(0, 0x1000)).unwrap();
        b.issue(m1, Op::Read, 0x0, Width::Word, 0, 1, Cycle(0));
        b.issue(m0, Op::Read, 0x4, Width::Word, 0, 1, Cycle(0));
        b.tick(Cycle(0));
        assert_eq!(b.trace().last().unwrap().1.master, m0);
    }

    #[test]
    fn round_robin_bus_alternates() {
        let mut b = SharedBus::new(
            BusConfig {
                grant_cycles: 1,
                beat_cycles: 0, // make every cycle grantable for the test
                ..BusConfig::default()
            },
            Box::new(RoundRobin::default()),
        );
        let m0 = b.add_master();
        let m1 = b.add_master();
        let s = b.add_slave();
        b.map_range(s, AddrRange::new(0, 0x1000)).unwrap();
        for _ in 0..2 {
            b.issue(m0, Op::Read, 0x0, Width::Word, 0, 1, Cycle(0));
            b.issue(m1, Op::Read, 0x0, Width::Word, 0, 1, Cycle(0));
        }
        let mut order = Vec::new();
        for c in 0..20 {
            b.tick(Cycle(c));
            if let Some(&(_, t)) = b.trace().last() {
                if order.last() != Some(&t.master) || order.len() < b.trace().len() {
                    // capture grant order via trace growth
                }
            }
        }
        for (_, t) in b.trace().iter() {
            order.push(t.master);
        }
        assert_eq!(order, vec![m0, m1, m0, m1]);
    }

    #[test]
    fn responses_route_to_correct_master() {
        let mut b = bus();
        let m0 = b.add_master();
        let m1 = b.add_master();
        let s = b.add_slave();
        b.map_range(s, AddrRange::new(0, 0x1000)).unwrap();
        let id1 = b.issue(m1, Op::Read, 0x8, Width::Word, 0, 1, Cycle(0));
        b.tick(Cycle(0));
        let t = b.slave_pop(s).unwrap();
        assert_eq!(t.id, id1);
        b.slave_complete(
            s,
            Response {
                txn: t.id,
                data: 7,
                result: Ok(()),
                completed_at: Cycle(1),
            },
        );
        b.tick(Cycle(2));
        assert!(b.poll_response(m0).is_none());
        let r = b.poll_response(m1).unwrap();
        assert_eq!(r.data, 7);
        assert_eq!(r.completed_at, Cycle(2));
    }

    #[test]
    fn grant_wait_statistics_recorded() {
        let mut b = bus();
        let m = b.add_master();
        let s = b.add_slave();
        b.map_range(s, AddrRange::new(0, 0x1000)).unwrap();
        b.issue(m, Op::Read, 0x0, Width::Word, 0, 1, Cycle(0));
        b.tick(Cycle(5)); // granted 5 cycles after issue
        let h = b.stats().histogram("bus.grant_wait").unwrap();
        assert_eq!(h.max(), Some(5));
        assert_eq!(b.stats().counter("bus.grants"), 1);
    }

    #[test]
    fn multiple_ranges_one_slave() {
        let mut b = bus();
        let m = b.add_master();
        let s = b.add_slave();
        b.map_range(s, AddrRange::new(0x0, 0x100)).unwrap();
        b.map_range(s, AddrRange::new(0x9000, 0x100)).unwrap();
        b.issue(m, Op::Read, 0x9004, Width::Word, 0, 1, Cycle(0));
        b.tick(Cycle(0));
        assert!(b.slave_pop(s).is_some());
    }

    #[test]
    fn completing_unknown_txn_is_dropped_fail_secure() {
        let mut b = bus();
        let m = b.add_master();
        let s = b.add_slave();
        b.slave_complete(
            s,
            Response {
                txn: TxnId(99),
                data: 0xbad,
                result: Ok(()),
                completed_at: Cycle(0),
            },
        );
        b.tick(Cycle(0));
        assert!(b.poll_response(m).is_none(), "orphan data reaches nobody");
        assert_eq!(b.stats().counter("bus.orphan_completions"), 1);
        assert_eq!(
            b.drain_orphans(),
            vec![OrphanCompletion {
                slave: s,
                txn: TxnId(99)
            }]
        );
        assert!(b.drain_orphans().is_empty(), "drain consumes the backlog");
    }

    #[test]
    fn late_completion_after_cancel_is_an_orphan() {
        let mut b = bus();
        let m = b.add_master();
        let s = b.add_slave();
        b.map_range(s, AddrRange::new(0, 0x1000)).unwrap();
        let id = b.issue(m, Op::Read, 0x0, Width::Word, 0, 1, Cycle(0));
        b.tick(Cycle(0));
        let t = b.slave_pop(s).unwrap();
        // Watchdog cancels while the slave still holds the transaction.
        assert_eq!(b.cancel_inflight(id), Some(m));
        b.slave_complete(
            s,
            Response {
                txn: t.id,
                data: 1,
                result: Ok(()),
                completed_at: Cycle(5),
            },
        );
        b.tick(Cycle(6));
        assert!(b.poll_response(m).is_none(), "stale answer dropped");
        assert_eq!(b.drain_orphans().len(), 1);
    }

    #[test]
    fn lost_grant_consumes_request_without_delivery() {
        let mut b = bus();
        let m = b.add_master();
        let s = b.add_slave();
        b.map_range(s, AddrRange::new(0, 0x1000)).unwrap();
        b.inject_lose_grant();
        let id = b.issue(m, Op::Read, 0x0, Width::Word, 0, 1, Cycle(0));
        for c in 0..32 {
            b.tick(Cycle(c));
        }
        assert!(b.slave_peek(s).is_none(), "slave never sees the txn");
        assert!(b.poll_response(m).is_none(), "master never hears back");
        assert!(!b.is_inflight(id));
        assert_eq!(b.trace().len(), 0, "a lost grant is not a granted txn");
        assert_eq!(b.stats().counter("bus.fault.lost_grants"), 1);
    }

    #[test]
    fn corrupt_response_flips_data_on_return_path() {
        let mut b = bus();
        let m = b.add_master();
        let s = b.add_slave();
        b.map_range(s, AddrRange::new(0, 0x1000)).unwrap();
        b.issue(m, Op::Read, 0x0, Width::Word, 0, 1, Cycle(0));
        b.tick(Cycle(0));
        let t = b.slave_pop(s).unwrap();
        b.slave_complete(
            s,
            Response {
                txn: t.id,
                data: 0x1234_5678,
                result: Ok(()),
                completed_at: Cycle(1),
            },
        );
        b.inject_corrupt_response(0xff);
        b.tick(Cycle(2));
        let r = b.poll_response(m).unwrap();
        assert_eq!(r.data, 0x1234_5678 ^ 0xff);
        assert_eq!(b.stats().counter("bus.fault.corrupted_responses"), 1);
    }

    #[test]
    fn cancel_inflight_purges_slave_inbox() {
        let mut b = bus();
        let m = b.add_master();
        let s = b.add_slave();
        b.map_range(s, AddrRange::new(0, 0x1000)).unwrap();
        let id = b.issue(m, Op::Read, 0x0, Width::Word, 0, 1, Cycle(0));
        b.tick(Cycle(0));
        assert!(b.is_inflight(id));
        assert_eq!(b.cancel_inflight(id), Some(m));
        assert!(b.slave_peek(s).is_none(), "queued txn removed from inbox");
        assert!(!b.is_inflight(id));
        assert_eq!(b.cancel_inflight(id), None, "second cancel is a no-op");
        assert_eq!(b.stats().counter("bus.cancelled"), 1);
    }

    #[test]
    fn full_master_queue_refuses_instead_of_growing() {
        let mut b = SharedBus::new(
            BusConfig {
                master_queue_capacity: 2,
                ..BusConfig::default()
            },
            Box::new(FixedPriority),
        );
        let m = b.add_master();
        let s = b.add_slave();
        b.map_range(s, AddrRange::new(0, 0x1000)).unwrap();
        assert!(b
            .try_issue_at(m, Op::Read, 0x0, Width::Word, 0, 1, Cycle(0), Cycle(0))
            .is_some());
        assert!(b
            .try_issue_at(m, Op::Read, 0x4, Width::Word, 0, 1, Cycle(0), Cycle(0))
            .is_some());
        assert_eq!(b.master_queue_free(m), 0);
        assert!(
            b.try_issue_at(m, Op::Read, 0x8, Width::Word, 0, 1, Cycle(0), Cycle(0))
                .is_none(),
            "third request refused at capacity 2"
        );
        assert_eq!(b.stats().counter("bus.issue_refused"), 1);
        assert_eq!(b.pending_requests(m), 2, "queue never exceeds its bound");
        // Draining one grant frees a slot again.
        b.tick(Cycle(0));
        assert!(b
            .try_issue_at(m, Op::Read, 0x8, Width::Word, 0, 1, Cycle(1), Cycle(1))
            .is_some());
    }

    #[test]
    fn full_slave_inbox_backpressures_without_loss() {
        let mut b = SharedBus::new(
            BusConfig {
                grant_cycles: 1,
                beat_cycles: 0, // every cycle grantable
                slave_queue_capacity: 1,
                ..BusConfig::default()
            },
            Box::new(FixedPriority),
        );
        let m = b.add_master();
        let s = b.add_slave();
        b.map_range(s, AddrRange::new(0, 0x1000)).unwrap();
        for i in 0..3 {
            b.issue(m, Op::Read, i * 4, Width::Word, 0, 1, Cycle(0));
        }
        // First grant fills the inbox; while the slave does not service
        // it, no further grant happens — the requests wait, unharmed.
        for c in 0..10 {
            b.tick(Cycle(c));
        }
        assert_eq!(b.trace().len(), 1, "inbox bound holds grants back");
        assert_eq!(b.pending_requests(m), 2, "ungranted requests still queued");
        assert!(b.stats().counter("bus.backpressure_stalls") > 0);
        // Conservation: servicing the inbox releases the stalled queue.
        let mut completed = 0;
        for c in 10..40 {
            while let Some(t) = b.slave_pop(s) {
                b.slave_complete(
                    s,
                    Response {
                        txn: t.id,
                        data: 0,
                        result: Ok(()),
                        completed_at: Cycle(c),
                    },
                );
            }
            b.tick(Cycle(c));
            while b.poll_response(m).is_some() {
                completed += 1;
            }
        }
        assert_eq!(completed, 3, "every backpressured request completes");
    }

    #[test]
    fn burst_zero_normalised_to_one() {
        let mut b = bus();
        let m = b.add_master();
        let s = b.add_slave();
        b.map_range(s, AddrRange::new(0, 0x100)).unwrap();
        b.issue(m, Op::Write, 0, Width::Word, 0, 0, Cycle(0));
        b.tick(Cycle(0));
        assert_eq!(b.slave_pop(s).unwrap().burst, 1);
    }
}
