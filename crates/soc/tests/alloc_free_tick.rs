//! The saturated tick allocates nothing.
//!
//! Under overload every cycle is a tick, so one allocation per tick would
//! dominate the fabric's host cost. Once the platform is warm (the
//! monitor's audit ring full, every queue and table at its working
//! capacity), `Soc::tick` and the event core's skip search must run out
//! of the buffers they already hold, under either run-loop core.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use secbus_sim::SimCore;

use common::{saturated_soc, Saturated};

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

const WARM_UP: u64 = 50_000;
const MEASURED: u64 = 200_000;

#[test]
fn saturated_tick_allocates_nothing_after_warm_up() {
    let cfg = Saturated {
        looping: true,
        flood_until: WARM_UP + MEASURED + 2_000,
        ip_samples: 0,
    };
    for core in [SimCore::Stepped, SimCore::Event] {
        let mut soc = saturated_soc(&cfg, 1);
        soc.set_sim_core(core);
        soc.run(WARM_UP);
        let n = allocations(|| soc.run(MEASURED));
        assert_eq!(
            n, 0,
            "{core:?}: allocations over {MEASURED} saturated cycles"
        );
        assert_eq!(soc.now().get(), WARM_UP + MEASURED);
        assert!(
            soc.stats().counter("soc.shed") > 0,
            "{core:?}: the flood overloads its queue"
        );
    }
}
