//! Seed-deterministic **open-loop** traffic generation.
//!
//! The closed-loop harnesses elsewhere in the workspace let each master
//! wait for its previous transaction before issuing the next, so offered
//! load can never exceed service capacity and the fabric's queue bounds
//! are never exercised. This crate generates the opposite: an arrival
//! *schedule* fixed in advance by the seed, independent of how the fabric
//! responds — the standard methodology for overload studies (and the
//! front half of the ROADMAP's NoC-scaling item).
//!
//! Four classic patterns are provided:
//!
//! * [`Pattern::Poisson`] — memoryless per-cycle Bernoulli arrivals at
//!   each source (the discrete approximation of a Poisson process);
//! * [`Pattern::Bursty`] — on/off modulation: `burst_len` cycles at the
//!   configured intensity, then `gap_len` cycles of silence;
//! * [`Pattern::Hotspot`] — a fraction of traffic converges on one hot
//!   destination (the canonical NoC stress pattern);
//! * [`Pattern::Transpose`] — node `(x, y)` sends to node `(y, x)`, the
//!   adversarial permutation for XY routing.
//!
//! Every source draws from its own [`SimRng`] stream (derived by label
//! from the root seed), so the schedule for source `i` does not change
//! when other sources are added or removed, and the whole schedule is
//! byte-identical for a given [`WorkloadConfig`].
//!
//! The streams are stepped together as one [`SimRngLanes`]: on each
//! active cycle one vectorised pass takes every source's arrival draw,
//! then each source that drew an arrival draws its write flag, address
//! and destination on its own stream, in source order. Each stream sees
//! exactly the draws a per-source loop would make.

use secbus_sim::rng::chance_threshold;
use secbus_sim::{SimRng, SimRngLanes};

/// Spatial/temporal shape of the offered traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Memoryless arrivals, uniform random destinations.
    Poisson,
    /// On/off arrivals: `burst_len` cycles of Poisson traffic followed
    /// by `gap_len` idle cycles, repeating.
    Bursty {
        /// Cycles of active injection per period.
        burst_len: u64,
        /// Idle cycles per period.
        gap_len: u64,
    },
    /// `fraction` of arrivals target the `hot` destination; the rest are
    /// uniform.
    Hotspot {
        /// The congested destination index.
        hot: usize,
        /// Share of traffic aimed at it (0.0..=1.0).
        fraction: f64,
    },
    /// Node `(x, y)` sends to node `(y, x)` on a `cols × cols` mesh
    /// (diagonal nodes send to themselves — local traffic).
    Transpose,
}

/// Full description of an open-loop workload. Two equal configs generate
/// byte-identical schedules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Traffic shape.
    pub pattern: Pattern,
    /// Number of traffic sources (masters / injecting nodes).
    pub sources: usize,
    /// Number of destinations (slaves / nodes).
    pub dests: usize,
    /// Mesh width, used by [`Pattern::Transpose`] to map indices to
    /// coordinates.
    pub cols: usize,
    /// Expected arrivals per source per active cycle (0.0..=1.0 is the
    /// useful range; values above 1.0 saturate at one per cycle).
    pub intensity: f64,
    /// Length of the injection window; no arrivals occur at or after
    /// this cycle (the drain phase of a soak).
    pub cycles: u64,
    /// Probability an arrival is a write (vs read).
    pub write_fraction: f64,
    /// Address space in words; each arrival gets a word-aligned address
    /// drawn uniformly from `0..addr_words * 4`.
    pub addr_words: u32,
    /// Root seed; every source stream derives from it.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            pattern: Pattern::Poisson,
            sources: 4,
            dests: 4,
            cols: 2,
            intensity: 0.05,
            cycles: 1_000,
            write_fraction: 0.5,
            addr_words: 1_024,
            seed: 1,
        }
    }
}

/// One scheduled transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Injection cycle.
    pub at: u64,
    /// Source index.
    pub source: usize,
    /// Destination index.
    pub dest: usize,
    /// Write (true) or read (false).
    pub write: bool,
    /// Word-aligned target address.
    pub addr: u32,
}

/// Incremental open-loop arrival generator.
///
/// [`Workload::arrivals_at`] must be called with strictly increasing
/// cycles (a soak's main loop); [`Workload::schedule`] materializes the
/// full schedule at once for property tests and small runs.
pub struct Workload {
    cfg: WorkloadConfig,
    /// `chance(cfg.intensity)` as an integer draw threshold.
    arrives: u64,
    /// One stream per source, stepped together.
    lanes: SimRngLanes,
    /// Which sources' streams drew an arrival this cycle, reused.
    hits: Vec<u64>,
}

impl Workload {
    /// Build the generator. Each source gets an independent stream
    /// derived from `cfg.seed` by label, so schedules are stable under
    /// changes to the number of *other* sources.
    pub fn new(cfg: WorkloadConfig) -> Self {
        let root = SimRng::new(cfg.seed);
        let lanes = (0..cfg.sources)
            .map(|i| root.derive(&format!("workload.src{i}")))
            .collect();
        Workload {
            cfg,
            arrives: chance_threshold(cfg.intensity),
            lanes,
            hits: Vec::new(),
        }
    }

    /// The configuration this generator was built from.
    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }

    /// Is `cycle` inside an active injection phase?
    fn active(&self, cycle: u64) -> bool {
        if cycle >= self.cfg.cycles {
            return false;
        }
        match self.cfg.pattern {
            Pattern::Bursty { burst_len, gap_len } => {
                let period = (burst_len + gap_len).max(1);
                cycle % period < burst_len
            }
            _ => true,
        }
    }

    /// Append every arrival scheduled for `cycle` to `out`, in source
    /// order. Call once per cycle, in increasing order (each call
    /// advances the per-source streams).
    pub fn arrivals_at(&mut self, cycle: u64, out: &mut Vec<Arrival>) {
        if !self.active(cycle) {
            return;
        }
        let cfg = self.cfg;
        self.lanes.step_chance(self.arrives, &mut self.hits);
        for (word, mut hits) in self.hits.iter().copied().enumerate() {
            while hits != 0 {
                let source = word * 64 + hits.trailing_zeros() as usize;
                hits &= hits - 1;
                out.push(self.lanes.lend(source, |rng| {
                    let write = rng.chance(cfg.write_fraction);
                    let addr = (rng.below(u64::from(cfg.addr_words.max(1))) as u32) * 4;
                    let dest = dest_for(&cfg, source, rng);
                    Arrival {
                        at: cycle,
                        source,
                        dest,
                        write,
                        addr,
                    }
                }));
            }
        }
    }

    /// Materialize the complete schedule (ordered by cycle, then
    /// source).
    pub fn schedule(&mut self) -> Vec<Arrival> {
        let mut out = Vec::new();
        for cycle in 0..self.cfg.cycles {
            self.arrivals_at(cycle, &mut out);
        }
        out
    }
}

/// Destination for one arrival from `source` under `cfg.pattern`.
fn dest_for(cfg: &WorkloadConfig, source: usize, rng: &mut SimRng) -> usize {
    let dests = cfg.dests.max(1);
    match cfg.pattern {
        Pattern::Hotspot { hot, fraction } => {
            if rng.chance(fraction) {
                hot % dests
            } else {
                rng.below(dests as u64) as usize
            }
        }
        Pattern::Transpose => {
            let cols = cfg.cols.max(1);
            let rows = (dests / cols).max(1);
            let (x, y) = (source % cols, source / cols);
            ((x % rows) * cols + (y % cols)) % dests
        }
        _ => rng.below(dests as u64) as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WorkloadConfig {
        WorkloadConfig {
            sources: 8,
            dests: 8,
            cols: 4,
            intensity: 0.2,
            cycles: 2_000,
            seed: 42,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = Workload::new(cfg()).schedule();
        let b = Workload::new(cfg()).schedule();
        assert_eq!(a, b);
        let c = Workload::new(WorkloadConfig { seed: 43, ..cfg() }).schedule();
        assert_ne!(a, c);
    }

    #[test]
    fn incremental_matches_materialized() {
        let mut w = Workload::new(cfg());
        let mut inc = Vec::new();
        for cycle in 0..cfg().cycles {
            w.arrivals_at(cycle, &mut inc);
        }
        assert_eq!(inc, Workload::new(cfg()).schedule());
    }

    #[test]
    fn poisson_rate_tracks_intensity() {
        let sched = Workload::new(cfg()).schedule();
        let expected = 0.2 * 8.0 * 2_000.0;
        let got = sched.len() as f64;
        assert!(
            (got - expected).abs() < expected * 0.1,
            "expected ~{expected} arrivals, got {got}"
        );
    }

    #[test]
    fn sources_are_independent_streams() {
        // Source 3's arrivals must not change when more sources exist.
        let narrow: Vec<Arrival> = Workload::new(WorkloadConfig {
            sources: 4,
            ..cfg()
        })
        .schedule()
        .into_iter()
        .filter(|a| a.source == 3)
        .collect();
        let wide: Vec<Arrival> = Workload::new(cfg())
            .schedule()
            .into_iter()
            .filter(|a| a.source == 3)
            .collect();
        assert_eq!(narrow, wide);
    }

    #[test]
    fn bursty_gap_is_silent() {
        let mut w = Workload::new(WorkloadConfig {
            pattern: Pattern::Bursty {
                burst_len: 50,
                gap_len: 50,
            },
            intensity: 1.0,
            ..cfg()
        });
        let sched = w.schedule();
        assert!(!sched.is_empty());
        for a in &sched {
            assert!(a.at % 100 < 50, "arrival at {} falls in a gap", a.at);
        }
    }

    #[test]
    fn hotspot_skews_to_the_hot_node() {
        let sched = Workload::new(WorkloadConfig {
            pattern: Pattern::Hotspot {
                hot: 5,
                fraction: 0.8,
            },
            ..cfg()
        })
        .schedule();
        let hot = sched.iter().filter(|a| a.dest == 5).count();
        let share = hot as f64 / sched.len() as f64;
        assert!(share > 0.7, "hot share {share} too low");
    }

    #[test]
    fn transpose_maps_coordinates() {
        let sched = Workload::new(WorkloadConfig {
            pattern: Pattern::Transpose,
            sources: 16,
            dests: 16,
            cols: 4,
            intensity: 1.0,
            cycles: 4,
            ..WorkloadConfig::default()
        })
        .schedule();
        for a in &sched {
            let (x, y) = (a.source % 4, a.source / 4);
            assert_eq!(a.dest, x * 4 + y, "transpose of node ({x},{y})");
        }
    }

    #[test]
    fn write_fraction_extremes() {
        let all_reads = Workload::new(WorkloadConfig {
            write_fraction: 0.0,
            ..cfg()
        })
        .schedule();
        assert!(all_reads.iter().all(|a| !a.write));
        let all_writes = Workload::new(WorkloadConfig {
            write_fraction: 1.0,
            ..cfg()
        })
        .schedule();
        assert!(all_writes.iter().all(|a| a.write));
    }

    /// The per-source generator the lanes replaced, kept as the
    /// reference: one `SimRng` per source, each drawing its whole arrival
    /// before the next source draws.
    fn reference_schedule(cfg: WorkloadConfig) -> Vec<Arrival> {
        let root = SimRng::new(cfg.seed);
        let mut rngs: Vec<SimRng> = (0..cfg.sources)
            .map(|i| root.derive(&format!("workload.src{i}")))
            .collect();
        let window = Workload::new(WorkloadConfig { sources: 0, ..cfg });
        let mut out = Vec::new();
        for cycle in (0..cfg.cycles).filter(|&c| window.active(c)) {
            for (source, rng) in rngs.iter_mut().enumerate() {
                if !rng.chance(cfg.intensity) {
                    continue;
                }
                let write = rng.chance(cfg.write_fraction);
                let addr = (rng.below(u64::from(cfg.addr_words.max(1))) as u32) * 4;
                let dest = dest_for(&cfg, source, rng);
                out.push(Arrival {
                    at: cycle,
                    source,
                    dest,
                    write,
                    addr,
                });
            }
        }
        out
    }

    /// 504 configurations: 3 seeds × 4 patterns × 7 source counts (either
    /// side of each 64-lane word) × 6 intensities (none, light, heavy,
    /// saturated, out of range, NaN). `schedule()`, and `arrivals_at`
    /// called cycle by cycle up to well past the window, both equal the
    /// per-source reference.
    #[test]
    fn lanes_match_the_per_source_reference() {
        let patterns = [
            Pattern::Poisson,
            Pattern::Bursty {
                burst_len: 20,
                gap_len: 30,
            },
            Pattern::Hotspot {
                hot: 3,
                fraction: 0.7,
            },
            Pattern::Transpose,
        ];
        let (mut configs, mut arrivals) = (0, 0);
        for seed in [1u64, 7, 1_000_003] {
            for pattern in patterns {
                for sources in [0usize, 1, 5, 63, 64, 65, 130] {
                    for intensity in [0.0, 0.03, 0.5, 1.0, 1.5, f64::NAN] {
                        let cfg = WorkloadConfig {
                            pattern,
                            sources,
                            dests: 16,
                            cols: 4,
                            intensity,
                            cycles: 240,
                            seed,
                            ..WorkloadConfig::default()
                        };
                        let want = reference_schedule(cfg);
                        assert_eq!(Workload::new(cfg).schedule(), want, "{cfg:?}");
                        let mut stepped = Workload::new(cfg);
                        let mut got = Vec::new();
                        for cycle in 0..cfg.cycles + 100 {
                            stepped.arrivals_at(cycle, &mut got);
                        }
                        assert_eq!(got, want, "{cfg:?}, past the window");
                        configs += 1;
                        arrivals += want.len();
                    }
                }
            }
        }
        assert_eq!(configs, 504);
        assert!(arrivals > 100_000, "{arrivals} arrivals");
    }

    #[test]
    fn no_arrivals_after_the_window() {
        let mut w = Workload::new(cfg());
        let mut out = Vec::new();
        for cycle in 0..cfg().cycles + 500 {
            w.arrivals_at(cycle, &mut out);
        }
        assert!(out.iter().all(|a| a.at < cfg().cycles));
        // Addresses stay word-aligned and inside the configured space.
        assert!(out
            .iter()
            .all(|a| a.addr % 4 == 0 && a.addr < cfg().addr_words * 4));
    }
}
