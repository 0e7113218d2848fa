//! Fixed stats slots: a slotted `Stats` must read, merge and render
//! exactly like the plain string-keyed registry it replaces on the hot
//! path, and every component's key table must be a valid slot table.

use secbus_sim::stats::keys_sorted;
use secbus_sim::{stat_keys, Histogram, MetricsRegistry, SimRng, StatKey, Stats};

stat_keys! {
    /// Declared counters, interleaved with the undeclared keys below.
    enum Hot {
        A => "a.hot",
        M => "m.hot",
        MDot => "m.hot.dot",
        Z => "z.hot",
    }
}

stat_keys! {
    /// Declared histograms.
    enum Lat {
        B => "b.lat",
        Y => "y.lat",
    }
}

const HOT: [Hot; 4] = [Hot::A, Hot::M, Hot::MDot, Hot::Z];
const LAT: [Lat; 2] = [Lat::B, Lat::Y];
/// Undeclared counter keys: before, between, after and prefixing the
/// declared ones.
const COLD: [&str; 6] = ["a", "a.hot.x", "m.cold", "m.hot.a", "n", "zz.cold"];
/// Undeclared histogram keys.
const COLD_LAT: [&str; 4] = ["a.lat", "b.lat.x", "m.lat", "z.lat"];

/// One slotted registry and its string-keyed reference, fed the same
/// writes.
struct Pair {
    slotted: Stats,
    plain: Stats,
}

impl Pair {
    fn new() -> Self {
        Pair {
            slotted: Stats::slotted(Hot::KEYS, Lat::KEYS),
            plain: Stats::new(),
        }
    }

    /// One random write, through the slot API or the string API.
    fn write(&mut self, rng: &mut SimRng) {
        // Small values, and 0 often: `add(k, 0)` must create a visible 0.
        let n = match rng.below(4) {
            0 => 0,
            _ => rng.below(1_000),
        };
        match rng.below(8) {
            0 => {
                let k = HOT[rng.below(4) as usize];
                self.slotted.incr_slot(k);
                self.plain.incr(k.key());
            }
            1 => {
                let k = HOT[rng.below(4) as usize];
                self.slotted.add_slot(k, n);
                self.plain.add(k.key(), n);
            }
            2 => {
                // A string write to a declared key lands in its slot.
                let k = HOT[rng.below(4) as usize].key();
                self.slotted.add(k, n);
                self.plain.add(k, n);
            }
            3 => {
                let k = COLD[rng.below(COLD.len() as u64) as usize];
                self.slotted.add(k, n);
                self.plain.add(k, n);
            }
            4 => {
                let k = LAT[rng.below(2) as usize];
                self.slotted.record_slot(k, n);
                self.plain.record(k.key(), n);
            }
            5 => {
                let k = LAT[rng.below(2) as usize].key();
                self.slotted.record(k, n);
                self.plain.record(k, n);
            }
            6 => {
                let k = COLD_LAT[rng.below(COLD_LAT.len() as u64) as usize];
                self.slotted.record(k, n);
                self.plain.record(k, n);
            }
            _ => {
                let k = COLD[rng.below(COLD.len() as u64) as usize];
                self.slotted.incr(k);
                self.plain.incr(k);
            }
        }
    }

    fn check(&self) {
        assert_same(&self.slotted, &self.plain);
    }
}

fn counters(s: &Stats) -> Vec<(String, u64)> {
    s.counters().map(|(k, v)| (k.to_owned(), v)).collect()
}

fn histograms(s: &Stats) -> Vec<(String, Histogram)> {
    s.histograms()
        .map(|(k, h)| (k.to_owned(), h.clone()))
        .collect()
}

fn render(s: &Stats) -> String {
    let mut registry = MetricsRegistry::new();
    registry.insert("c", s);
    registry.render()
}

/// Every reader agrees, key by key, and the rendered snapshot is
/// byte-identical.
fn assert_same(slotted: &Stats, plain: &Stats) {
    assert_eq!(counters(slotted), counters(plain));
    assert_eq!(histograms(slotted), histograms(plain));
    for k in Hot::KEYS.iter().chain(COLD.iter()) {
        assert_eq!(slotted.counter(k), plain.counter(k), "counter {k}");
    }
    for k in Lat::KEYS.iter().chain(COLD_LAT.iter()) {
        assert_eq!(slotted.histogram(k), plain.histogram(k), "histogram {k}");
    }
    assert_eq!(render(slotted), render(plain));
}

/// Property: for random operation sequences over declared and
/// undeclared keys, zero-valued adds, histogram samples and merges in
/// every direction, a slotted registry is indistinguishable from a plain
/// one.
#[test]
fn slotted_stats_match_a_string_keyed_reference() {
    let mut rng = SimRng::new(0x5107);
    for _ in 0..200 {
        let mut a = Pair::new();
        let mut b = Pair::new();
        let steps = rng.below(60);
        for _ in 0..steps {
            match rng.below(10) {
                0 => {
                    // Slotted into slotted, both ways.
                    if rng.chance(0.5) {
                        a.slotted.merge(&b.slotted);
                        a.plain.merge(&b.plain);
                    } else {
                        b.slotted.merge(&a.slotted);
                        b.plain.merge(&a.plain);
                    }
                }
                1 => {
                    // Plain into slotted: the string path must find the
                    // slots.
                    let other = b.plain.clone();
                    a.slotted.merge(&other);
                    a.plain.merge(&other);
                }
                2 => {
                    // Slotted into plain, as `Soc::metrics_snapshot`
                    // folds every component into the registry.
                    let mut from_slotted = Stats::new();
                    from_slotted.merge(&a.slotted);
                    let mut from_plain = Stats::new();
                    from_plain.merge(&a.plain);
                    assert_same(&from_slotted, &from_plain);
                }
                _ => {
                    if rng.chance(0.5) {
                        a.write(&mut rng);
                    } else {
                        b.write(&mut rng);
                    }
                }
            }
            a.check();
            b.check();
        }
        // One component inserted twice merges into an unslotted bag.
        let mut slotted = MetricsRegistry::new();
        slotted.insert("x", &a.slotted);
        slotted.insert("x", &b.slotted);
        let mut plain = MetricsRegistry::new();
        plain.insert("x", &a.plain);
        plain.insert("x", &b.plain);
        assert_eq!(slotted.render(), plain.render());
    }
}

#[test]
fn a_slot_written_with_zero_is_visible_and_an_unwritten_one_is_not() {
    let mut s = Stats::slotted(Hot::KEYS, Lat::KEYS);
    assert_eq!(s.counters().count(), 0);
    assert_eq!(s.histograms().count(), 0);
    s.add_slot(Hot::M, 0);
    assert_eq!(counters(&s), vec![("m.hot".to_owned(), 0)]);
    assert!(s.histogram("b.lat").is_none());
    s.record_slot(Lat::B, 0);
    assert_eq!(s.histogram("b.lat").map(Histogram::count), Some(1));
}

#[test]
fn key_table_check_rejects_bad_tables() {
    assert!(keys_sorted(&[]));
    assert!(keys_sorted(&["a", "a.b", "b"]));
    assert!(!keys_sorted(&["b", "a"]), "unsorted");
    assert!(!keys_sorted(&["a", "a"]), "duplicate");
    let long: Vec<String> = (0..65).map(|i| format!("k{i:03}")).collect();
    let long: Vec<&str> = long.iter().map(String::as_str).collect();
    assert!(keys_sorted(&long[..64]));
    assert!(!keys_sorted(&long), "more keys than presence bits");
}

#[test]
#[should_panic(expected = "sorted")]
fn an_unsorted_runtime_table_is_refused() {
    let _ = Stats::slotted(&["b", "a"], &[]);
}

/// Every component's hot-key table is sorted, duplicate-free and fits
/// its presence bits. (`stat_keys!` already refuses to compile a bad
/// table; this lists them in one place.)
#[test]
fn every_component_key_table_is_a_valid_slot_table() {
    let tables: [(&str, &[&str]); 17] = [
        ("soc", secbus_soc::SocCounter::KEYS),
        ("soc.hist", secbus_soc::SocHistogram::KEYS),
        ("bus", secbus_bus::BusCounter::KEYS),
        ("bus.hist", secbus_bus::BusHistogram::KEYS),
        ("fw", secbus_core::FwCounter::KEYS),
        ("monitor", secbus_core::MonitorCounter::KEYS),
        ("lcf", secbus_core::LcfCounter::KEYS),
        ("lcf.hist", secbus_core::LcfHistogram::KEYS),
        ("core", secbus_cpu::CoreCounter::KEYS),
        ("core.hist", secbus_cpu::CoreHistogram::KEYS),
        ("cache", secbus_cpu::CacheCounter::KEYS),
        ("traffic", secbus_cpu::TrafficCounter::KEYS),
        ("traffic.hist", secbus_cpu::TrafficHistogram::KEYS),
        ("stream", secbus_cpu::StreamCounter::KEYS),
        ("openloop", secbus_cpu::OpenLoopCounter::KEYS),
        ("mesh", secbus_noc::MeshCounter::KEYS),
        ("mesh.hist", secbus_noc::MeshHistogram::KEYS),
    ];
    for (name, keys) in tables {
        assert!(!keys.is_empty(), "{name}: empty table");
        assert!(keys_sorted(keys), "{name}: {keys:?}");
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "{name}: not strictly increasing"
        );
    }
    // The per-violation slots carry exactly the mnemonic keys.
    for v in secbus_core::Violation::ALL {
        let fw = secbus_core::FwCounter::violation(v).key();
        assert_eq!(fw, format!("fw.violation.{}", v.mnemonic()));
        let monitor = secbus_core::MonitorCounter::violation(v).key();
        assert_eq!(monitor, format!("monitor.violation.{}", v.mnemonic()));
    }
}
