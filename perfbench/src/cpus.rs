//! Where the simulation thread runs. Every repetition runs pinned to one
//! CPU, and successive repetitions rotate over every CPU the process may
//! use.
//!
//! On a shared virtual machine each vCPU's physical core is also used by
//! other tenants, in phases of seconds to minutes that halve the
//! simulator's rate. The vCPUs' phases are largely independent, so a run
//! that rotates over them keeps finding a repetition outside a slow phase
//! where a run pinned to one vCPU can spend all its time inside one.
//! Pinned to one CPU, the process also sees one core: Merkle builds run
//! serially and the simulation never migrates mid-repetition.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// `cpu_set_t` holds 1024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the process could use at start-up, ascending; empty when the
/// affinity mask cannot be read.
pub fn allowed() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is writable and exactly as large as the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..MASK_WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    })
}

/// Pins the calling thread to the next CPU of the rotation. Returns that
/// CPU, or `None` when the thread could not be pinned and runs wherever
/// the scheduler puts it.
pub fn pin_next() -> Option<usize> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let cpus = allowed();
    if cpus.is_empty() {
        return None;
    }
    let cpu = cpus[NEXT.fetch_add(1, Ordering::Relaxed) % cpus.len()];
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is readable and exactly as large as the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}
