//! The protected mesh allocates nothing in steady state.
//!
//! `run_overload` on an 8×8 protected mesh injects about two packets a
//! cycle, so one allocation per packet would be a large share of the
//! mesh's host cost. Once the mesh is warm (its flight list, delivery
//! queues and pool of route buffers at their working capacity), a
//! packet's whole life — `try_inject`, the ticks that move it, `deliver`
//! — and the runner's per-cycle checks must run out of the buffers the
//! mesh already holds.
//!
//! The pool holds one route buffer per packet the mesh has ever held at
//! once, so the one allocation left is a new buffer when an injection
//! sets a new record of packets in flight. Under Poisson arrivals such
//! records keep coming, ever more rarely, long after warm-up (on this
//! schedule one falls at cycle 10 236), so the test counts them and
//! allows exactly one allocation for each.
//!
//! Deliveries are drained both ways the mesh offers: a `deliver` sweep
//! over every node, and `deliver_next` (what `run_overload` uses).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use secbus_bus::{Op, Width};
use secbus_noc::{Mesh, NocConfig, NodeId, Packet, Topology};
use secbus_sim::Cycle;
use secbus_workload::{Arrival, Pattern, Workload, WorkloadConfig};

/// Counts the allocations made on threads that opted in, so the test
/// harness's other threads cannot disturb the count.
struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator also serves threads being torn down.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` requires, and
// the bookkeeping in `note_alloc` touches only const-initialized
// thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.with(Cell::get)
}

const SIDE: u8 = 8;
const WARM_UP: u64 = 10_000;
const MEASURED: u64 = 20_000;

/// How the loop takes deliveries off the mesh.
#[derive(Clone, Copy)]
enum Drain {
    /// `deliver` on every node, in index order.
    Sweep,
    /// `deliver_next` until it returns `None`.
    Next,
}

/// `run_overload`'s open loop over a pre-built schedule, with its books.
struct Load {
    drain: Drain,
    nodes: Vec<NodeId>,
    schedule: Vec<Arrival>,
    next: usize,
    delivered: u64,
    alerts: u64,
    /// The most packets in flight right after any injection so far, and
    /// how many injections raised it.
    most_in_flight: usize,
    records: u64,
}

impl Load {
    /// One cycle at a time: inject what is due, tick, sweep deliveries
    /// and alerts, and ask for the next event.
    fn run(&mut self, mesh: &mut Mesh, cycles: std::ops::Range<u64>) {
        for c in cycles {
            let now = Cycle(c);
            while let Some(&a) = self.schedule.get(self.next).filter(|a| a.at == c) {
                self.next += 1;
                let id = mesh.alloc_id();
                mesh.try_inject(
                    Packet {
                        id,
                        src: self.nodes[a.source],
                        dst: self.nodes[a.dest],
                        op: if a.write { Op::Write } else { Op::Read },
                        addr: a.addr,
                        width: Width::Word,
                        data: a.addr,
                        flits: 2,
                        injected_at: now,
                    },
                    now,
                );
                if mesh.in_flight() > self.most_in_flight {
                    self.most_in_flight = mesh.in_flight();
                    self.records += 1;
                }
            }
            mesh.tick(now);
            match self.drain {
                Drain::Sweep => {
                    for &n in &self.nodes {
                        while mesh.deliver(n).is_some() {
                            self.delivered += 1;
                        }
                    }
                }
                Drain::Next => {
                    while mesh.deliver_next().is_some() {
                        self.delivered += 1;
                    }
                }
            }
            while mesh.take_alert().is_some() {
                self.alerts += 1;
            }
            std::hint::black_box(mesh.next_event(Cycle(c + 1)));
        }
    }
}

#[test]
fn protected_mesh_allocates_nothing_after_warm_up() {
    allocates_nothing_after_warm_up(Drain::Sweep);
}

#[test]
fn protected_mesh_drained_by_deliver_next_allocates_nothing_after_warm_up() {
    allocates_nothing_after_warm_up(Drain::Next);
}

fn allocates_nothing_after_warm_up(drain: Drain) {
    let topology = Topology::new(SIDE, SIDE);
    let nodes: Vec<NodeId> = topology.nodes().collect();
    let mut mesh = Mesh::new(
        topology,
        NocConfig {
            node_capacity: 16,
            ..NocConfig::protected()
        },
    );
    let schedule = Workload::new(WorkloadConfig {
        pattern: Pattern::Poisson,
        sources: nodes.len(),
        dests: nodes.len(),
        cols: usize::from(SIDE),
        intensity: 0.03,
        cycles: WARM_UP + MEASURED,
        seed: 1,
        ..WorkloadConfig::default()
    })
    .schedule();
    let mut load = Load {
        drain,
        nodes,
        schedule,
        next: 0,
        delivered: 0,
        alerts: 0,
        most_in_flight: 0,
        records: 0,
    };
    load.run(&mut mesh, 0..WARM_UP);
    let (records, delivered) = (load.records, load.delivered);
    let n = allocations(|| load.run(&mut mesh, WARM_UP..WARM_UP + MEASURED));
    let new_records = load.records - records;
    assert_eq!(
        n, new_records,
        "allocations over {MEASURED} protected-mesh cycles: one per new in-flight record only"
    );
    assert!(
        new_records <= 2,
        "{new_records} in-flight records after warm-up"
    );
    assert!(
        load.delivered - delivered > MEASURED,
        "the measured window carried traffic"
    );
    assert_eq!(load.alerts, 0, "nothing is refused or lost at this load");
}
