//! The paper's platform as two workloads: `soc_saturated` (no cycle can
//! be skipped) and `soc_idle` (almost every cycle can).

use std::collections::HashMap;
use std::time::Instant;

use secbus_bus::{AddrRange, BusConfig, FixedPriority};
use secbus_core::{AdfSet, ConfigMemory, FirewallId, PolicyProgram, Rwa, SecurityPolicy};
use secbus_cpu::{
    assemble, BusMaster, Mb32Core, OpenLoopConfig, OpenLoopMaster, StreamIp, SyntheticConfig,
    SyntheticMaster,
};
use secbus_fault::{FaultPlan, FaultRates, FaultSpec};
use secbus_mem::{Bram, ExternalDdr};
use secbus_sim::{Cycle, Json, SimCore, SimRng, TraceEvent};
use secbus_soc::casestudy::{
    lcf_policies, CPU0_PROGRAM, CPU1_PROGRAM, CPU2_PROGRAM, DDR_BASE, DDR_CIPHER_BASE,
    DDR_CIPHER_LEN, DDR_LEN, DDR_PRIVATE_BASE, DDR_PRIVATE_LEN, DDR_PUBLIC_BASE, DDR_PUBLIC_LEN,
    IP_FIFO_ADDR, SHARED_BRAM_BASE, SHARED_BRAM_LEN,
};
use secbus_soc::{RetryPolicy, Soc, SocBuilder};

use crate::probe::{self, nanos, ArbiterWrap, Closed, MasterWrap, Shared};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Saturated,
    Idle,
}

/// Cycles one `soc_saturated` repetition simulates.
const SAT_CYCLES: u64 = 400_000;
/// The flood stops this many cycles before the end so its books close.
const FLOOD_DRAIN: u64 = 2_000;
/// BRAM window the flood hammers (clear of the kernels' data).
const FLOOD_WINDOW: (u32, u32) = (SHARED_BRAM_BASE + 0x8000, 0x1000);

/// Cycles one `soc_idle` repetition simulates.
const IDLE_CYCLES: u64 = 40_000_000;
/// Verified-region window the sensor reads and the adversary tampers.
const SENSOR_WINDOW: (u32, u32) = (DDR_PRIVATE_BASE + 0x1000, 0x100);
const SENSOR_PERIOD: u64 = 10_000;
const TAMPER_FIRST: u64 = 200_000;
const TAMPER_EVERY: u64 = 2_000_000;
const EPOCH_FIRST: u64 = 500_000;
const EPOCH_EVERY: u64 = 10_000_000;

/// Trace ring capacity of the traced run, and the chunk that keeps one
/// chunk's events inside it.
const TRACE_CAP: usize = 1 << 17;

impl Kind {
    pub fn cycles(self) -> u64 {
        match self {
            Kind::Saturated => SAT_CYCLES,
            Kind::Idle => IDLE_CYCLES,
        }
    }

    /// Length of the prefix both run-loop cores simulate.
    pub fn prefix(self) -> u64 {
        match self {
            Kind::Saturated => 100_000,
            Kind::Idle => 1_000_000,
        }
    }

    fn chunk(self) -> u64 {
        match self {
            Kind::Saturated => 8_192,
            Kind::Idle => 1_000_000,
        }
    }

    /// Cycles of one lap of a timed plain repetition: 16 laps of about
    /// 12 ms on `soc_saturated`, 40 of about 20 ms on `soc_idle`.
    pub fn lap(self) -> u64 {
        match self {
            Kind::Saturated => 25_000,
            Kind::Idle => 1_000_000,
        }
    }

    pub fn labels(self) -> [&'static str; 5] {
        match self {
            Kind::Saturated => ["cpu0", "cpu1", "cpu2", "ip0", "flood"],
            Kind::Idle => ["cpu0", "cpu1", "cpu2", "ip0", "sensor"],
        }
    }
}

fn internal(spi: u16, base: u32, len: u32, rwa: Rwa, adf: AdfSet) -> SecurityPolicy {
    SecurityPolicy::internal(spi, AddrRange::new(base, len), rwa, adf)
}

fn table(policies: Vec<SecurityPolicy>) -> ConfigMemory {
    ConfigMemory::with_policies(policies).expect("benchmark policies are disjoint")
}

/// The case study's least-privilege tables for cpu0..cpu2 and the IP.
fn case_tables() -> [ConfigMemory; 4] {
    use Rwa::{ReadOnly, ReadWrite, WriteOnly};
    let all = AdfSet::ALL;
    [
        table(vec![
            internal(1, SHARED_BRAM_BASE, SHARED_BRAM_LEN, ReadWrite, all),
            internal(2, DDR_PRIVATE_BASE, DDR_PRIVATE_LEN, ReadWrite, all),
            internal(3, DDR_PUBLIC_BASE, DDR_PUBLIC_LEN, ReadOnly, all),
        ]),
        table(vec![
            internal(4, SHARED_BRAM_BASE, 0x8000, ReadWrite, all),
            internal(5, DDR_CIPHER_BASE, DDR_CIPHER_LEN, ReadWrite, all),
            internal(6, DDR_PUBLIC_BASE, DDR_PUBLIC_LEN, ReadOnly, all),
        ]),
        table(vec![
            internal(7, SHARED_BRAM_BASE, SHARED_BRAM_LEN, ReadWrite, all),
            internal(8, DDR_PUBLIC_BASE, DDR_PUBLIC_LEN, ReadOnly, all),
        ]),
        table(vec![internal(
            9,
            IP_FIFO_ADDR,
            0x100,
            WriteOnly,
            AdfSet::WORD_ONLY,
        )]),
    ]
}

/// The sensor's policy program for `epoch`: its scratch grant moves every
/// epoch, so each commit genuinely rewrites the sensor's table.
fn epoch_program(epoch: u64, seed: u64) -> String {
    let scratch = 0x4000_0000u64 + ((epoch + seed) % 64) * 0x1000;
    let (base, len) = SENSOR_WINDOW;
    format!(
        "master sensor = 0\n\
         region win = {base:#x} + {len:#x}\n\
         region scratch = {scratch:#x} + 0x100\n\
         allow sensor win rw\n\
         allow sensor scratch ro word\n"
    )
}

/// A program the verifier must refuse: its second rule can never fire.
fn shadowed_program() -> String {
    let (base, len) = SENSOR_WINDOW;
    format!(
        "master sensor = 0\n\
         region win = {base:#x} + {len:#x}\n\
         allow sensor win rw\n\
         allow sensor win ro\n"
    )
}

/// Every third epoch attempt carries a program the verifier refuses.
fn refused_epoch(k: u64) -> bool {
    k % 3 == 2
}

/// Rewrite a kernel to loop forever instead of halting.
fn looping(src: &str) -> String {
    format!("top:\n{}", src.replace("halt", "beq  r0, r0, top"))
}

fn core(label: &str, src: &str) -> Box<dyn BusMaster> {
    let program = assemble(src).unwrap_or_else(|e| panic!("{label} program: {e}"));
    Box::new(Mb32Core::with_local_program(label, 0, program))
}

/// One built system plus what the probes need to know about it.
pub struct Built {
    pub soc: Soc,
    /// Each master's firewall table, for the standalone SB probe.
    pub tables: Vec<ConfigMemory>,
    /// DSL master index -> firewall, for epoch commits.
    targets: Vec<(u8, FirewallId)>,
}

/// Build one repetition's system. With `probe`, every master is wrapped
/// (and, when the probe times calls, the arbiter too); `trace` arms the
/// program's own trace spine.
pub fn build(kind: Kind, seed: u64, probe: Option<&Shared>, trace: bool) -> Built {
    let rng = SimRng::new(seed);
    let [t0, t1, t2, t3] = case_tables();
    let (fifth, fifth_table, programs): (Box<dyn BusMaster>, ConfigMemory, [String; 3]) = match kind
    {
        Kind::Saturated => (
            Box::new(OpenLoopMaster::new(
                "flood",
                OpenLoopConfig {
                    window: FLOOD_WINDOW,
                    read_ratio: 0.5,
                    per_tick: 1,
                    until: SAT_CYCLES - FLOOD_DRAIN,
                },
                rng.derive("perfbench.flood"),
            )),
            table(vec![internal(
                10,
                FLOOD_WINDOW.0,
                FLOOD_WINDOW.1,
                Rwa::ReadWrite,
                AdfSet::ALL,
            )]),
            [
                looping(CPU0_PROGRAM),
                looping(CPU1_PROGRAM),
                looping(CPU2_PROGRAM),
            ],
        ),
        Kind::Idle => {
            let boot = PolicyProgram::parse(&epoch_program(0, seed)).expect("epoch program parses");
            let compiled = boot.compile().expect("epoch program compiles");
            let sensor_table = table(
                compiled
                    .table(0)
                    .expect("sensor table compiled")
                    .policies
                    .clone(),
            );
            (
                Box::new(SyntheticMaster::new(
                    "sensor",
                    SyntheticConfig {
                        windows: vec![(SENSOR_WINDOW.0, SENSOR_WINDOW.1, 1)],
                        read_ratio: 0.75,
                        burst: 4,
                        period: SENSOR_PERIOD,
                        ..SyntheticConfig::default()
                    },
                    rng.derive("perfbench.sensor"),
                )),
                sensor_table,
                [
                    CPU0_PROGRAM.into(),
                    CPU1_PROGRAM.into(),
                    CPU2_PROGRAM.into(),
                ],
            )
        }
    };
    let ip_period = match kind {
        Kind::Saturated => 8,
        Kind::Idle => 2_048,
    };
    let devices: Vec<Box<dyn BusMaster>> = vec![
        core("cpu0", &programs[0]),
        core("cpu1", &programs[1]),
        core("cpu2", &programs[2]),
        Box::new(StreamIp::new("ip0", IP_FIFO_ADDR, ip_period, 0)),
        fifth,
    ];
    let tables = vec![t0, t1, t2, t3, fifth_table];

    let mut ddr = ExternalDdr::new(DDR_LEN);
    for i in 0..32u32 {
        ddr.load(DDR_PUBLIC_BASE - DDR_BASE + 4 * i, &(i + 1).to_le_bytes());
    }

    let mut b = SocBuilder::new()
        .watchdog(512)
        .retry(RetryPolicy::default())
        .quarantine(2_048)
        .auto_recover(true);
    b = match kind {
        // The flood's 8-entry admission queue; the closed-loop masters
        // never hold more than one request.
        Kind::Saturated => b.monitor_threshold(8).bus_config(BusConfig {
            master_queue_capacity: 8,
            ..BusConfig::default()
        }),
        Kind::Idle => b.monitor_threshold(4),
    };
    if let Some(p) = probe {
        if probe::with(p, |p| p.timing) {
            b = b.arbiter(Box::new(ArbiterWrap::new(
                Box::new(FixedPriority),
                p.clone(),
            )));
        }
    }
    if trace {
        b = b.trace(TRACE_CAP);
    }
    for (i, (device, t)) in devices.into_iter().zip(tables.iter()).enumerate() {
        let device: Box<dyn BusMaster> = match probe {
            Some(p) => Box::new(MasterWrap::new(device, i, p.clone())),
            None => device,
        };
        b = b.add_protected_master(device, t.clone());
    }
    let mut soc = b
        .add_bram(
            "shared-bram",
            AddrRange::new(SHARED_BRAM_BASE, SHARED_BRAM_LEN),
            Bram::new(SHARED_BRAM_LEN),
            None,
        )
        .set_ddr(
            "ddr",
            AddrRange::new(DDR_BASE, DDR_LEN),
            ddr,
            Some(lcf_policies()),
        )
        .build();
    soc.set_sim_core(SimCore::Event);
    if kind == Kind::Idle {
        soc.attach_fault_plan(FaultPlan::generate(
            seed,
            &FaultSpec {
                duration: IDLE_CYCLES,
                ddr_bytes: DDR_LEN,
                firewalls: 6,
                slaves: 2,
                noc_nodes: 0,
                rates: FaultRates::uniform(2.0),
            },
        ));
    }
    let targets = soc
        .master_firewall_id(4)
        .map(|fw| vec![(0u8, fw)])
        .unwrap_or_default();
    Built {
        soc,
        tables,
        targets,
    }
}

#[derive(Debug, Clone, Copy)]
enum Action {
    /// Flip one byte in every protection block of the sensor window.
    Tamper(u64),
    /// Attempt the k-th verifier-gated policy epoch.
    Epoch(u64),
}

/// The benchmark's external actions, in cycle order.
fn actions(kind: Kind) -> Vec<(u64, Action)> {
    if kind == Kind::Saturated {
        return Vec::new();
    }
    let mut acts: Vec<(u64, Action)> = (0..)
        .map(|j| (TAMPER_FIRST + j * TAMPER_EVERY, Action::Tamper(j)))
        .take_while(|(at, _)| *at < IDLE_CYCLES)
        .chain(
            (0..)
                .map(|k| (EPOCH_FIRST + k * EPOCH_EVERY, Action::Epoch(k)))
                .take_while(|(at, _)| *at < IDLE_CYCLES),
        )
        .collect();
    acts.sort_by_key(|(at, _)| *at);
    acts
}

/// Host-side tallies of the control plane the benchmark drives.
#[derive(Debug, Default, Clone, Copy)]
pub struct Control {
    pub commits_ok: u64,
    pub commits_refused: u64,
    pub commit_ns: u64,
    pub tamper_ns: u64,
}

/// What the traced runs add around every `Soc::run` chunk: host spans,
/// and with the trace spine armed, the simulated-latency ledger.
pub struct Traced {
    pub probe: Shared,
    /// Raw host time inside `Soc::run`, over `chunks` calls.
    pub run_ns: u64,
    pub chunks: u64,
    /// The chunk loop's own work around each `Soc::run` call.
    pub chunk_wrap_ns: u64,
    pub ledger: Ledger,
    last_total: u64,
    pub problems: Vec<String>,
}

impl Traced {
    pub fn new(probe: Shared, master_fws: Vec<u8>) -> Self {
        Traced {
            probe,
            run_ns: 0,
            chunks: 0,
            chunk_wrap_ns: 0,
            ledger: Ledger::new(master_fws),
            last_total: 0,
            problems: Vec::new(),
        }
    }

    fn run_chunk(&mut self, soc: &mut Soc, cycles: u64) {
        let entry = Instant::now();
        probe::with(&self.probe, |p| p.spans.open("soc.run", entry, 0));
        let start = Instant::now();
        soc.run(cycles);
        let end = Instant::now();
        probe::with(&self.probe, |p| p.spans.close("soc.run", end));
        self.run_ns += nanos(start, end);
        self.chunks += 1;
        self.read_spine(soc);
        self.chunk_wrap_ns += nanos(entry, start) + nanos(end, Instant::now());
    }

    fn read_spine(&mut self, soc: &Soc) {
        // The ring has no drain: take this chunk's events from a snapshot
        // and make sure none was evicted before we saw it.
        let Some(tracer) = soc.tracer() else {
            return;
        };
        let total = tracer.total();
        let snap = tracer.snapshot();
        let fresh = (total - self.last_total) as usize;
        self.last_total = total;
        if fresh > snap.len() {
            self.problems.push(format!(
                "trace ring overflow at cycle {}: {fresh} events, {} retained",
                soc.now().get(),
                snap.len()
            ));
        }
        self.ledger
            .events(&snap[snap.len().saturating_sub(fresh)..]);
        let closed = probe::with(&self.probe, |p| std::mem::take(&mut p.closed));
        self.ledger.close(&closed);
    }
}

/// Host time of each lap of a plain run. A lap ends where the cycle
/// count reaches a multiple of `every`, so lap `i` of every repetition
/// simulates the same work, external actions included.
pub struct Laps {
    every: u64,
    next: u64,
    last: Instant,
    pub secs: Vec<f64>,
}

impl Laps {
    pub fn start(every: u64) -> Self {
        Laps {
            every,
            next: every,
            last: Instant::now(),
            secs: Vec::new(),
        }
    }

    fn reached(&mut self, now: u64) {
        if now >= self.next {
            let t = Instant::now();
            self.secs.push(t.duration_since(self.last).as_secs_f64());
            self.last = t;
            self.next += self.every;
        }
    }
}

/// How `run` drives `Soc::run` between the workload's external actions.
pub enum Drive<'a> {
    /// One call per stretch between actions.
    Plain,
    /// Also stops at every lap boundary and records the lap's host time.
    Laps(&'a mut Laps),
    /// Chunked and instrumented: the traced runs.
    Traced(&'a mut Traced),
}

fn advance(soc: &mut Soc, to: u64, kind: Kind, drive: &mut Drive) {
    while soc.now().get() < to {
        let now = soc.now().get();
        match drive {
            Drive::Plain => soc.run(to - now),
            Drive::Laps(laps) => {
                soc.run(to.min(laps.next) - now);
                laps.reached(soc.now().get());
            }
            Drive::Traced(t) => t.run_chunk(soc, (to - now).min(kind.chunk())),
        }
    }
}

/// Simulate `cycles` of the workload from cycle 0, applying the external
/// actions on schedule.
pub fn run(built: &mut Built, kind: Kind, seed: u64, cycles: u64, mut drive: Drive) -> Control {
    let mut ctl = Control::default();
    for (at, action) in actions(kind).into_iter().filter(|(at, _)| *at < cycles) {
        advance(&mut built.soc, at, kind, &mut drive);
        let start = Instant::now();
        match action {
            Action::Tamper(j) => {
                let mut rng = SimRng::new(seed).derive(&format!("perfbench.tamper{j}"));
                let (base, len) = SENSOR_WINDOW;
                let ddr = built.soc.ddr_mut().expect("the platform has a DDR");
                for block in 0..len / 16 {
                    let off = base - DDR_BASE + block * 16 + rng.below(16) as u32;
                    let flipped = ddr.snoop(off, 1)[0] ^ (1 + rng.below(255) as u8);
                    ddr.tamper(off, &[flipped]);
                }
                ctl.tamper_ns += start.elapsed().as_nanos() as u64;
            }
            Action::Epoch(k) => {
                let text = if refused_epoch(k) {
                    shadowed_program()
                } else {
                    epoch_program(k + 1, seed)
                };
                let program = PolicyProgram::parse(&text).expect("epoch programs parse");
                match built.soc.commit_policy_epoch_from(&program, &built.targets) {
                    Ok(_) => ctl.commits_ok += 1,
                    Err(_) => ctl.commits_refused += 1,
                }
                ctl.commit_ns += start.elapsed().as_nanos() as u64;
            }
        }
    }
    advance(&mut built.soc, cycles, kind, &mut drive);
    ctl
}

/// The metrics snapshot without the trace buffer's own accounting: the
/// one section that legitimately differs between traced and untraced
/// runs of the same simulation.
pub fn comparable_metrics(soc: &Soc) -> String {
    match Json::parse(&soc.metrics_json()).expect("metrics snapshot parses") {
        Json::Obj(fields) => {
            Json::Obj(fields.into_iter().filter(|(k, _)| k != "trace").collect()).render()
        }
        other => other.render(),
    }
}

/// Simulated stages of one transaction, read off the trace spine.
#[derive(Debug, Default, Clone, Copy)]
struct Stages {
    /// Outbound (write) check at the master's Local Firewall.
    sb_out: u64,
    /// Inbound (read) check at the master's Local Firewall.
    sb_in: u64,
    /// Grant cycle and the wait the bus recorded for it.
    hop: Option<(u64, u64)>,
    hops: u32,
    cc: u64,
    ic: u64,
    /// Cycle the response reached the master's port, and the
    /// issue-to-ready latency the program stamped on it.
    complete: Option<(u64, u64)>,
    retried: bool,
    addr: u32,
}

/// The per-transaction simulated-latency ledger. For every transaction
/// completed OK, SB + grant wait + service must equal the issue-to-ready
/// latency the program stamps on its completion, CC + IC must fit inside
/// service, and the latency the master saw is that plus the wait behind
/// earlier responses in its port's inbound queue.
pub struct Ledger {
    master_fws: Vec<u8>,
    lcf_fw: Option<u8>,
    /// Accesses the LCF admitted, by region: verify, cipher-only, bypass.
    pub lcf_access: [u64; 3],
    stages: HashMap<u64, Stages>,
    prev: Option<(u64, TraceEvent)>,
    pub checked: u64,
    pub excluded: u64,
    pub violations: u64,
    pub first_violation: Option<String>,
    pub sb: u64,
    pub grant_wait: u64,
    pub service: u64,
    /// Cycles a ready response queued behind earlier ones at the port.
    pub response_wait: u64,
    pub mem: u64,
    pub cc_passes: u64,
    pub cc_cycles: u64,
}

impl Ledger {
    fn new(master_fws: Vec<u8>) -> Self {
        Ledger {
            master_fws,
            lcf_fw: None,
            lcf_access: [0; 3],
            stages: HashMap::new(),
            prev: None,
            checked: 0,
            excluded: 0,
            violations: 0,
            first_violation: None,
            sb: 0,
            grant_wait: 0,
            service: 0,
            response_wait: 0,
            mem: 0,
            cc_passes: 0,
            cc_cycles: 0,
        }
    }

    pub fn set_lcf(&mut self, fw: Option<u8>) {
        self.lcf_fw = fw;
    }

    fn events(&mut self, events: &[(Cycle, TraceEvent)]) {
        for &(at, ev) in events {
            let at = at.get();
            match ev {
                TraceEvent::TxnIssued {
                    txn, write, addr, ..
                } => {
                    let mut s = Stages {
                        addr,
                        ..Stages::default()
                    };
                    // A write's outbound check runs on a probe id just
                    // before the real id is issued: the verdict is the
                    // event right before this one, in the same cycle.
                    if write {
                        if let Some((
                            c,
                            TraceEvent::FwVerdict {
                                firewall,
                                passed: true,
                                latency,
                                ..
                            },
                        )) = self.prev
                        {
                            if c == at && self.master_fws.contains(&firewall) {
                                s.sb_out = latency;
                            }
                        }
                    }
                    self.stages.insert(txn, s);
                }
                TraceEvent::FwVerdict {
                    txn,
                    firewall,
                    passed: true,
                    latency,
                } if self.master_fws.contains(&firewall) => {
                    if let Some(s) = self.stages.get_mut(&txn) {
                        s.sb_in += latency;
                    }
                }
                TraceEvent::FwVerdict {
                    txn,
                    firewall,
                    passed: true,
                    ..
                } if Some(firewall) == self.lcf_fw => {
                    if let Some(s) = self.stages.get(&txn) {
                        self.lcf_access[region_kind(s.addr)] += 1;
                    }
                }
                TraceEvent::BusHop { txn, wait, .. } => {
                    if let Some(s) = self.stages.get_mut(&txn) {
                        s.hops += 1;
                        s.hop = Some((at, wait));
                    }
                }
                TraceEvent::CcCipher { txn, latency, .. } => {
                    self.cc_passes += 1;
                    self.cc_cycles += latency;
                    if let Some(s) = self.stages.get_mut(&txn) {
                        s.cc += latency;
                    }
                }
                TraceEvent::IcVerify { txn, cycles, .. } => {
                    if let Some(s) = self.stages.get_mut(&txn) {
                        s.ic += cycles;
                    }
                }
                TraceEvent::TxnComplete { txn, latency, .. } => {
                    if let Some(s) = self.stages.get_mut(&txn) {
                        s.complete = Some((at, latency));
                    }
                }
                TraceEvent::Retransmit { id, layer: "soc" } => {
                    if let Some(s) = self.stages.get_mut(&id) {
                        s.retried = true;
                    }
                }
                _ => {}
            }
            self.prev = Some((at, ev));
        }
    }

    fn close(&mut self, closed: &[Closed]) {
        for c in closed {
            let Some(s) = self.stages.remove(&c.txn) else {
                self.excluded += u64::from(c.ok);
                continue;
            };
            if !c.ok {
                continue;
            }
            // Retried transactions carry several bus ids; they are
            // counted, not decomposed.
            let (Some((grant_at, wait)), Some((complete, stamped)), false, 1) =
                (s.hop, s.complete, s.retried, s.hops)
            else {
                self.excluded += 1;
                continue;
            };
            let latency = c.polled_at - c.issued_at;
            let sb = s.sb_out + s.sb_in;
            let stages = wait
                .checked_sub(s.sb_out)
                .zip(complete.checked_sub(grant_at));
            let holds = stages.is_some_and(|(w, svc)| {
                sb + w + svc == stamped && stamped <= latency && s.cc + s.ic <= svc
            });
            let Some((w, svc)) = stages.filter(|_| holds) else {
                self.violations += 1;
                if self.first_violation.is_none() {
                    self.first_violation = Some(format!(
                        "txn {} (master {}): latency {latency}, stages {s:?}",
                        c.txn, c.master
                    ));
                }
                continue;
            };
            self.checked += 1;
            self.sb += sb;
            self.grant_wait += w;
            self.service += svc;
            self.response_wait += latency - stamped;
            self.mem += svc - s.cc - s.ic;
        }
    }
}

/// LCF region kind of a DDR address: 0 verify, 1 cipher-only, 2 bypass.
fn region_kind(addr: u32) -> usize {
    if addr.wrapping_sub(DDR_PRIVATE_BASE) < DDR_PRIVATE_LEN {
        0
    } else if addr.wrapping_sub(DDR_CIPHER_BASE) < DDR_CIPHER_LEN {
        1
    } else {
        2
    }
}

/// Bus firewall ids of the masters' Local Firewalls.
pub fn master_firewalls(soc: &Soc) -> Vec<u8> {
    (0..soc.master_count())
        .filter_map(|i| soc.master_firewall_id(i).map(|f| f.0))
        .collect()
}

/// Instructions retired by the three MB32 cores.
pub fn instructions(soc: &Soc) -> u64 {
    (0..3)
        .map(|i| soc.master_device(i).stats().counter("core.instructions"))
        .sum()
}

/// Open-loop flood books kept by the device itself.
pub fn flood_resolved(soc: &Soc) -> bool {
    soc.master_as::<OpenLoopMaster>(4)
        .is_none_or(OpenLoopMaster::resolved)
}
