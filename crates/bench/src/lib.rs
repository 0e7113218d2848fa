//! # secbus-bench — the harness that regenerates every table and figure
//!
//! One binary per artifact (see DESIGN.md §4):
//!
//! | artifact | binary |
//! |---|---|
//! | Table I (synthesis area) | `table1` |
//! | Table II (latency / throughput) | `table2` |
//! | Figure 1 (architecture) | `fig1` |
//! | S-1 rule-count scaling | `ablation_rules` |
//! | S-2 traffic-mix overhead | `ablation_traffic` |
//! | S-3 attack detection & containment | `attacks` |
//! | S-4 distributed vs centralized | `baseline_compare` |
//! | S-13 chaos soak (faults × resilience) | `chaos_soak` |
//! | S-14 crash soak (power cuts × journal) | `crash_soak` |
//! | S-15 NoC soak (mesh faults × transport) | `noc_soak` |
//! | S-16 perf soak (IC cache, CC batching, parallel harness) | `perf_soak` |
//! | S-18 campaign soak (staged attacks × DIFT × kill chains) | `campaign_soak` |
//!
//! The measurement logic lives here (unit-tested); the binaries only
//! format. The soak sweeps fan their cells across threads via
//! [`par_map_with`] and merge in input order, so their JSON reports are
//! byte-identical to a serial run (`--serial` forces one). Criterion
//! micro-benches are under `benches/`.

pub mod energy;
pub mod harness;
pub mod hostperf;
pub mod perf;
pub mod table2;
pub mod timing;
pub mod traffic;

/// Order-preserving parallel map over an owned work list, built on scoped
/// threads so the workspace needs no thread-pool dependency. Results come
/// back in input order regardless of which worker ran each item, so the
/// output is exactly what a sequential `.map().collect()` would produce.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    par_map_with(threads, items, f)
}

/// [`par_map`] with an explicit worker count (1 = run inline). The result
/// is identical for every `threads` value — the determinism the soak
/// harnesses rely on for byte-identical serial/parallel JSON — so the
/// count only chooses a wall-time/CPU trade-off.
pub fn par_map_with<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        return items.into_iter().map(f).collect();
    }
    let total = items.len();
    let work: Vec<std::sync::Mutex<Option<T>>> = items
        .into_iter()
        .map(|item| std::sync::Mutex::new(Some(item)))
        .collect();
    let mut slots: Vec<std::sync::Mutex<Option<R>>> = Vec::with_capacity(total);
    slots.resize_with(total, || std::sync::Mutex::new(None));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let (work_ref, slots_ref, f_ref) = (&work, &slots, &f);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let item = work_ref[i]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("each index claimed once");
                *slots_ref[i].lock().unwrap() = Some(f_ref(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every index computed"))
        .collect()
}

/// Worker count for a soak sweep: 1 when `--serial` is on the command
/// line (the reference serial run), else the host's parallelism. The
/// sweeps are deterministic either way — `--serial` only exists so the
/// byte-identical-JSON claim can be checked against an actual serial run.
pub fn sweep_threads() -> usize {
    if std::env::args().any(|a| a == "--serial") {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

pub use energy::{case_study_energy, collect_activity};
pub use harness::{finish, ArgError, SoakArgs};
pub use hostperf::{measure_host, HostPerf, HostWorkload};
pub use table2::{measure_table2, Table2};
pub use timing::{bench, measure, Measurement};
pub use traffic::{sweep_traffic, traffic_overhead, OverheadRow};

#[cfg(test)]
mod par_map_tests {
    use super::{par_map, par_map_with};

    /// Results land in input order and match the sequential map for any
    /// worker count, including counts above the item count.
    #[test]
    fn par_map_matches_sequential_for_any_thread_count() {
        let work: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = work.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 200] {
            let got = par_map_with(threads, work.clone(), |x| x * x + 1);
            assert_eq!(got, expected, "threads = {threads}");
        }
        assert_eq!(par_map(work, |x| x * x + 1), expected);
    }

    #[test]
    fn par_map_handles_empty_input() {
        let got: Vec<u32> = par_map_with(4, Vec::<u32>::new(), |x| x);
        assert!(got.is_empty());
    }
}
