//! Instrumentation taken from outside the simulator: wrappers around
//! every `BusMaster`, its `MasterAccess` port and the bus arbiter. They
//! forward every call unchanged, so the simulated system cannot tell
//! they are there; what they observe goes to state the benchmark holds.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use secbus_bus::{Arbiter, BusError, MasterId, Op, Response, Transaction, TxnId, Width};
use secbus_cpu::{BusMaster, MasterAccess};
use secbus_sim::{Cycle, Stats, Wake};

/// At most this many host spans are kept for the span file; the layer
/// accumulators cover every call regardless.
pub const SPAN_CAP: usize = 50_000;

/// One host-time span: `[start, end)` in ns since the run began.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Transaction or packet id the span served (0 = none).
    pub id: u64,
}

/// Spans kept in memory and written out when the benchmark ends.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    pub list: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            list: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span at `at` under the innermost open span.
    pub fn open(&mut self, name: &'static str, at: Instant, id: u64) {
        if self.list.len() >= SPAN_CAP {
            return;
        }
        let span = Span {
            name,
            start: self.ns(at),
            end: 0,
            parent: self.open.last().copied(),
            id,
        };
        self.open.push(self.list.len() as u32);
        self.list.push(span);
    }

    /// Close the innermost span opened under `name` (no-op past the cap).
    pub fn close(&mut self, name: &'static str, at: Instant) {
        if let Some(&top) = self.open.last() {
            if self.list[top as usize].name == name {
                self.open.pop();
                let end = self.ns(at);
                self.list[top as usize].end = end;
            }
        }
    }

    /// Record a closed leaf span under the innermost open span.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant, id: u64) {
        if self.list.len() >= SPAN_CAP {
            return;
        }
        let span = Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent: self.open.last().copied(),
            id,
        };
        self.list.push(span);
    }
}

/// Nanoseconds from `a` to `b`.
pub fn nanos(a: Instant, b: Instant) -> u64 {
    b.duration_since(a).as_nanos() as u64
}

/// Host cost of one `Instant::now()`, in ns: the least mean over several
/// batches of back-to-back reads. Every timed interval holds about one
/// read; the host ledger moves that share from the timed layer to
/// `bench`.
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 4_000;
    (0..25)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            start.elapsed().as_nanos() as f64 / f64::from(READS)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Raw host nanoseconds and call counts per instrumented seam. A wrapper
/// reads the clock on entry, around the inner call and before it
/// returns: the inner interval is the layer's, the rest is the wrapper's
/// own work (lock, spans, books).
#[derive(Debug, Default, Clone, Copy)]
pub struct HostAcc {
    /// Inner interval of `BusMaster::tick`, inclusive of its port calls.
    pub tick_ns: u64,
    pub ticks: u64,
    pub issue_ns: u64,
    pub issues: u64,
    pub poll_ns: u64,
    pub polls: u64,
    pub arbiter_ns: u64,
    pub arbiter_calls: u64,
    /// Master and arbiter wrappers' own work, outside their inner call.
    pub wrap_ns: u64,
    /// Port wrappers' own work, which lies inside a tick's interval.
    pub port_wrap_ns: u64,
}

impl HostAcc {
    pub fn add(&mut self, o: &HostAcc) {
        self.tick_ns += o.tick_ns;
        self.ticks += o.ticks;
        self.issue_ns += o.issue_ns;
        self.issues += o.issues;
        self.poll_ns += o.poll_ns;
        self.polls += o.polls;
        self.arbiter_ns += o.arbiter_ns;
        self.arbiter_calls += o.arbiter_calls;
        self.wrap_ns += o.wrap_ns;
        self.port_wrap_ns += o.port_wrap_ns;
    }
}

/// How one response ended, as its master saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    Shed,
    Denied,
    Integrity,
    Timeout,
    Error,
}

impl Outcome {
    fn of(resp: &Response) -> Outcome {
        match resp.result {
            Ok(()) => Outcome::Ok,
            Err(BusError::Overload) => Outcome::Shed,
            Err(BusError::Discarded) => Outcome::Denied,
            Err(BusError::IntegrityViolation) => Outcome::Integrity,
            Err(BusError::Timeout) => Outcome::Timeout,
            Err(BusError::Slave) | Err(BusError::Decode) => Outcome::Error,
        }
    }
}

/// Per-master transaction books: every issued id must come back exactly
/// once, as an OK or an error, or still be in flight.
#[derive(Debug, Default)]
pub struct Book {
    pub issued: u64,
    pub ok: u64,
    pub shed: u64,
    pub denied: u64,
    pub integrity: u64,
    pub timeout: u64,
    pub error: u64,
    /// Responses for ids this port never issued or already closed.
    pub stale: u64,
    /// In flight: txn id -> issue cycle.
    pub pending: HashMap<u64, u64>,
    /// Issue-to-response cycles of every transaction completed OK.
    pub latencies: Vec<u64>,
}

impl Book {
    pub fn failed(&self) -> u64 {
        self.shed + self.denied + self.integrity + self.timeout + self.error
    }

    /// `issued == resolved + in flight`.
    pub fn balanced(&self) -> bool {
        self.issued == self.ok + self.failed() + self.pending.len() as u64
    }
}

/// A transaction as issued at a port, for replay into standalone probes.
#[derive(Debug, Clone, Copy)]
pub struct Captured {
    pub master: usize,
    pub txn: Transaction,
}

/// A response the master consumed, for the per-transaction ledger.
#[derive(Debug, Clone, Copy)]
pub struct Closed {
    pub master: usize,
    pub txn: u64,
    pub issued_at: u64,
    pub polled_at: u64,
    pub ok: bool,
}

enum PortEvent {
    Issue(TxnId, Op, u32, Width, u32, u16),
    Poll(Response),
}

/// Everything the wrappers of one SoC share with the benchmark.
pub struct Probe {
    /// Time every instrumented call (the traced run).
    pub timing: bool,
    /// Keep up to this many issued transactions for the probes.
    pub capture_cap: usize,
    /// Keep closed transactions for the ledger (the traced run).
    pub keep_closed: bool,
    pub books: Vec<Book>,
    pub host: HostAcc,
    pub captured: Vec<Captured>,
    pub closed: Vec<Closed>,
    pub spans: Spans,
    deferred: Vec<PortEvent>,
}

pub type Shared = Arc<Mutex<Probe>>;

impl Probe {
    /// Books only; `timing` adds host timing and stream capture,
    /// `keep_closed` the closed-transaction records the ledger joins.
    pub fn shared(masters: usize, timing: bool, keep_closed: bool, epoch: Instant) -> Shared {
        Arc::new(Mutex::new(Probe {
            timing,
            capture_cap: if timing { 200_000 } else { 0 },
            keep_closed,
            books: (0..masters).map(|_| Book::default()).collect(),
            host: HostAcc::default(),
            captured: Vec::new(),
            closed: Vec::new(),
            spans: Spans::new(epoch),
            deferred: Vec::new(),
        }))
    }

    fn settle(&mut self, master: usize, now: u64) {
        let mut deferred = std::mem::take(&mut self.deferred);
        for ev in deferred.drain(..) {
            match ev {
                PortEvent::Issue(id, op, addr, width, data, burst) => {
                    let book = &mut self.books[master];
                    book.issued += 1;
                    book.pending.insert(id.0, now);
                    if self.captured.len() < self.capture_cap {
                        self.captured.push(Captured {
                            master,
                            txn: Transaction {
                                id,
                                master: MasterId(master as u8),
                                op,
                                addr,
                                width,
                                data,
                                burst: burst.max(1),
                                issued_at: Cycle(now),
                            },
                        });
                    }
                }
                PortEvent::Poll(resp) => {
                    let book = &mut self.books[master];
                    let Some(issued_at) = book.pending.remove(&resp.txn.0) else {
                        book.stale += 1;
                        continue;
                    };
                    let outcome = Outcome::of(&resp);
                    match outcome {
                        Outcome::Ok => {
                            book.ok += 1;
                            book.latencies.push(now - issued_at);
                        }
                        Outcome::Shed => book.shed += 1,
                        Outcome::Denied => book.denied += 1,
                        Outcome::Integrity => book.integrity += 1,
                        Outcome::Timeout => book.timeout += 1,
                        Outcome::Error => book.error += 1,
                    }
                    if self.keep_closed {
                        self.closed.push(Closed {
                            master,
                            txn: resp.txn.0,
                            issued_at,
                            polled_at: now,
                            ok: outcome == Outcome::Ok,
                        });
                    }
                }
            }
        }
        // Hand the emptied buffer back so ticks never reallocate it.
        self.deferred = deferred;
    }
}

fn lock(shared: &Shared) -> MutexGuard<'_, Probe> {
    shared
        .lock()
        .expect("probe state poisoned by a panicking tick")
}

/// The port a wrapped device sees: forwards to the real port, timing
/// each call when asked and deferring bookkeeping until the tick ends.
struct Port<'a> {
    inner: &'a mut dyn MasterAccess,
    probe: &'a mut Probe,
}

impl MasterAccess for Port<'_> {
    fn issue(&mut self, op: Op, addr: u32, width: Width, data: u32, burst: u16) -> TxnId {
        let start = self.probe.timing.then(Instant::now);
        let id = self.inner.issue(op, addr, width, data, burst);
        let end = start.map(|_| Instant::now());
        let p = &mut *self.probe;
        p.deferred
            .push(PortEvent::Issue(id, op, addr, width, data, burst));
        if let (Some(start), Some(end)) = (start, end) {
            p.host.issue_ns += nanos(start, end);
            p.host.issues += 1;
            p.spans.leaf("soc.port_issue", start, end, id.0);
            p.host.port_wrap_ns += nanos(end, Instant::now());
        }
        id
    }

    fn poll(&mut self) -> Option<Response> {
        let start = self.probe.timing.then(Instant::now);
        let resp = self.inner.poll();
        let end = start.map(|_| Instant::now());
        let p = &mut *self.probe;
        if let Some(r) = resp {
            p.deferred.push(PortEvent::Poll(r));
        }
        if let (Some(start), Some(end)) = (start, end) {
            p.host.poll_ns += nanos(start, end);
            p.host.polls += 1;
            if let Some(r) = &resp {
                p.spans.leaf("soc.port_poll", start, end, r.txn.0);
            }
            p.host.port_wrap_ns += nanos(end, Instant::now());
        }
        resp
    }
}

/// A `BusMaster` wrapper. `as_any`, `next_wake`, `halted`, `label` and
/// `stats` reach the real device, so `Soc::master_as` and the event
/// core's skip decisions are exactly those of the unwrapped system.
pub struct MasterWrap {
    inner: Box<dyn BusMaster>,
    index: usize,
    probe: Shared,
    timing: bool,
}

impl MasterWrap {
    pub fn new(inner: Box<dyn BusMaster>, index: usize, probe: Shared) -> Self {
        let timing = lock(&probe).timing;
        MasterWrap {
            inner,
            index,
            probe,
            timing,
        }
    }
}

impl BusMaster for MasterWrap {
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn tick(&mut self, mem: &mut dyn MasterAccess, now: Cycle) {
        if !self.timing {
            let mut probe = lock(&self.probe);
            self.inner.tick(
                &mut Port {
                    inner: mem,
                    probe: &mut probe,
                },
                now,
            );
            probe.settle(self.index, now.get());
            return;
        }
        let entry = Instant::now();
        let mut probe = lock(&self.probe);
        probe.spans.open("cpu.tick", entry, self.index as u64);
        let start = Instant::now();
        self.inner.tick(
            &mut Port {
                inner: mem,
                probe: &mut probe,
            },
            now,
        );
        let end = Instant::now();
        probe.spans.close("cpu.tick", end);
        probe.host.tick_ns += nanos(start, end);
        probe.host.ticks += 1;
        probe.settle(self.index, now.get());
        probe.host.wrap_ns += nanos(entry, start) + nanos(end, Instant::now());
    }

    fn halted(&self) -> bool {
        self.inner.halted()
    }

    fn next_wake(&self, now: Cycle) -> Wake {
        self.inner.next_wake(now)
    }

    fn label(&self) -> &str {
        self.inner.label()
    }

    fn stats(&self) -> &Stats {
        self.inner.stats()
    }
}

/// Times every `Arbiter::grant` call of the wrapped policy.
pub struct ArbiterWrap {
    inner: Box<dyn Arbiter>,
    probe: Shared,
}

impl ArbiterWrap {
    pub fn new(inner: Box<dyn Arbiter>, probe: Shared) -> Self {
        ArbiterWrap { inner, probe }
    }
}

impl Arbiter for ArbiterWrap {
    fn grant(&mut self, requesting: &[MasterId], now: Cycle) -> Option<MasterId> {
        let entry = Instant::now();
        let mut probe = lock(&self.probe);
        let start = Instant::now();
        let winner = self.inner.grant(requesting, now);
        let end = Instant::now();
        probe.host.arbiter_ns += nanos(start, end);
        probe.host.arbiter_calls += 1;
        probe.spans.leaf("bus.arbiter", start, end, 0);
        probe.host.wrap_ns += nanos(entry, start) + nanos(end, Instant::now());
        winner
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Lock the shared probe state from the benchmark side.
pub fn with<R>(probe: &Shared, f: impl FnOnce(&mut Probe) -> R) -> R {
    f(&mut lock(probe))
}
