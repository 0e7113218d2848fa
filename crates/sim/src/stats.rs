//! Lightweight statistics: counters, latency histograms and a registry.
//!
//! Every component in the simulator accounts for its behaviour through these
//! types. They are deliberately lock-free plain data — the simulator is
//! single-threaded per `Soc` instance (parallelism happens *across*
//! instances in parameter sweeps), so there is no reason to pay for atomics
//! on the per-cycle hot path.
//!
//! # Hot keys live in fixed slots
//!
//! A component that counts on its per-transaction or per-cycle path
//! declares those keys once, with [`stat_keys!`](crate::stat_keys): an
//! enum whose variants index a sorted `'static` key table. It builds its
//! registry with [`Stats::slotted`] from one table for counters and one
//! for histograms, and its hot path bumps a slot by index
//! ([`Stats::incr_slot`], [`Stats::add_slot`], [`Stats::record_slot`]):
//! an array write, with no string compare, tree walk or allocation.
//!
//! ```
//! use secbus_sim::{stat_keys, StatKey, Stats};
//!
//! stat_keys! {
//!     /// Hot counters.
//!     pub enum Hot {
//!         Grants => "bus.grants",
//!         Issued => "bus.issued",
//!     }
//! }
//!
//! let mut stats = Stats::slotted(Hot::KEYS, &[]);
//! stats.incr_slot(Hot::Grants);
//! stats.incr("bus.decode_errors"); // cold, undeclared key
//! assert_eq!(stats.counter("bus.grants"), 1);
//! let keys: Vec<&str> = stats.counters().map(|(k, _)| k).collect();
//! assert_eq!(keys, ["bus.decode_errors", "bus.grants"]);
//! ```
//!
//! The table must be sorted and free of duplicates, and a counter table
//! holds at most 64 keys; `stat_keys!` checks both at compile time.
//!
//! # The string API is the cold path
//!
//! [`Stats::incr`], [`Stats::add`] and [`Stats::record`] keep working for
//! every key. They serve keys written rarely (faults, recoveries, epoch
//! aborts), keys built at run time, and every reader: [`Stats::counter`],
//! [`Stats::histogram`], [`Stats::counters`], [`Stats::histograms`] and
//! [`Stats::merge`]. A string write to a declared key finds its slot by
//! binary search over the table, so a key never lives in two stores;
//! undeclared keys go to a `BTreeMap`. Readers see one key-sorted view
//! that interleaves both stores.
//!
//! # Presence
//!
//! A key appears in [`Stats::counters`] only once it has been written,
//! and writing 0 counts: `add(key, 0)` (or `add_slot(slot, 0)`) makes a
//! visible 0. A histogram appears once it holds a sample. Slots follow
//! exactly the rule the map always had, so a report renders the same
//! bytes whichever store a key lives in.
//!
//! The SoC's per-master in-flight table (one hashed record per
//! transaction instead of four `TxnId` maps) came with the slots; it
//! lives in `secbus-soc`, and DESIGN.md §14 describes both.

use std::collections::BTreeMap;
use std::fmt;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A fresh counter at zero.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Increment by one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }
}

/// A histogram of `u64` samples (typically latencies in cycles).
///
/// Keeps exact min/max/sum/count plus power-of-two buckets, which is enough
/// resolution for the latency distributions the benches report while staying
/// allocation-free after construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// `buckets[i]` counts samples in `[2^i, 2^(i+1))`, with bucket 0 also
    /// holding the value 0.
    buckets: [u64; 64],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 64],
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let idx = if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
    }

    /// Number of recorded samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Approximate quantile (`q` in `[0,1]`) from the bucket boundaries.
    ///
    /// Returns the lower bound of the bucket containing the requested rank —
    /// coarse, but monotone and cheap; the benches that need exact values
    /// keep their own sample vectors.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(if i == 0 { 0 } else { 1u64 << i });
            }
        }
        Some(self.max)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mean() {
            Some(mean) => write!(
                f,
                "n={} min={} mean={:.2} max={}",
                self.count, self.min, mean, self.max
            ),
            None => write!(f, "n=0"),
        }
    }
}

/// A table of hot stat keys: a `Copy` index type (the enum
/// [`stat_keys!`](crate::stat_keys) declares) into a sorted `'static`
/// key table.
pub trait StatKey: Copy {
    /// The keys, sorted and duplicate-free, in index order.
    const KEYS: &'static [&'static str];

    /// This key's position in [`StatKey::KEYS`].
    fn index(self) -> usize;

    /// This key's name.
    fn key(self) -> &'static str {
        Self::KEYS[self.index()]
    }
}

/// Declare a component's hot stat keys: an enum whose variants index a
/// sorted `'static` key table, in declaration order. The table must be
/// sorted and duplicate-free, and at most 64 keys long (a counter
/// table's presence bits fit one word); a table that is not fails to
/// compile.
///
/// ```
/// secbus_sim::stat_keys! {
///     /// Hot histograms.
///     pub enum Lat {
///         GrantWait => "bus.grant_wait",
///     }
/// }
/// ```
#[macro_export]
macro_rules! stat_keys {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident => $key:literal),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        $vis enum $name {
            $($(#[$vmeta])* #[doc = concat!("`", $key, "`")] $variant),+
        }

        impl $name {
            /// The key table, in variant order.
            pub const KEYS: &'static [&'static str] = &[$($key),+];
        }

        impl $crate::StatKey for $name {
            const KEYS: &'static [&'static str] = $name::KEYS;

            #[inline]
            fn index(self) -> usize {
                self as usize
            }
        }

        const _: () = assert!(
            $crate::stats::keys_sorted($name::KEYS),
            concat!(
                stringify!($name),
                ": stat keys must be sorted, unique and at most 64"
            ),
        );
    };
}

/// Whether `keys` is a valid slot table: strictly increasing (so sorted
/// and duplicate-free) and at most 64 keys long. Usable in `const`
/// context, where [`stat_keys!`](crate::stat_keys) checks every table.
pub const fn keys_sorted(keys: &[&str]) -> bool {
    if keys.len() > 64 {
        return false;
    }
    let mut i = 1;
    while i < keys.len() {
        if !str_less(keys[i - 1], keys[i]) {
            return false;
        }
        i += 1;
    }
    true
}

/// Byte-wise `a < b`, the order `str`'s `Ord` uses, in `const` form.
const fn str_less(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut i = 0;
    while i < a.len() && i < b.len() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
        i += 1;
    }
    a.len() < b.len()
}

/// A named registry of counters and histograms.
///
/// Components register their metrics under stable string keys so that the
/// bench harness can collect them without knowing the component types.
/// Hot keys declared with [`Stats::slotted`] live in fixed slots; every
/// other key lives in a key-sorted map (see the [module docs](self)).
#[derive(Debug, Default, Clone)]
pub struct Stats {
    /// Counter slot keys, sorted.
    slot_keys: &'static [&'static str],
    slots: Box<[u64]>,
    /// Bit `i` is set once counter slot `i` has been written.
    written: u64,
    /// Histogram slot keys, sorted.
    hist_keys: &'static [&'static str],
    hist_slots: Box<[Histogram]>,
    /// Undeclared keys. Never holds a declared one.
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
}

impl Stats {
    /// A fresh, empty registry with no slots.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh, empty registry with one slot per key of `counters` and
    /// of `histograms` (each a [`StatKey::KEYS`] table).
    ///
    /// # Panics
    /// Panics if either table is unsorted, holds a duplicate, or has
    /// more than 64 keys; tables from [`stat_keys!`](crate::stat_keys)
    /// never do.
    pub fn slotted(counters: &'static [&'static str], histograms: &'static [&'static str]) -> Self {
        assert!(
            keys_sorted(counters) && keys_sorted(histograms),
            "stat slot tables must be sorted, unique and at most 64 keys"
        );
        Stats {
            slot_keys: counters,
            slots: vec![0; counters.len()].into_boxed_slice(),
            hist_keys: histograms,
            hist_slots: vec![Histogram::new(); histograms.len()].into_boxed_slice(),
            ..Self::default()
        }
    }

    /// Increment counter slot `slot` by one.
    #[inline]
    pub fn incr_slot<K: StatKey>(&mut self, slot: K) {
        self.add_slot(slot, 1);
    }

    /// Add `n` to counter slot `slot`. Writing 0 makes the key visible.
    #[inline]
    pub fn add_slot<K: StatKey>(&mut self, slot: K, n: u64) {
        let i = slot.index();
        debug_assert_eq!(self.slot_keys.get(i), Some(&slot.key()), "foreign slot");
        self.slots[i] += n;
        self.written |= 1 << i;
    }

    /// Record a sample in histogram slot `slot`.
    #[inline]
    pub fn record_slot<K: StatKey>(&mut self, slot: K, v: u64) {
        let i = slot.index();
        debug_assert_eq!(self.hist_keys.get(i), Some(&slot.key()), "foreign slot");
        self.hist_slots[i].record(v);
    }

    /// Read counter slot `slot` (0 if never written).
    #[inline]
    pub fn counter_slot<K: StatKey>(&self, slot: K) -> u64 {
        let i = slot.index();
        debug_assert_eq!(self.slot_keys.get(i), Some(&slot.key()), "foreign slot");
        self.slots[i]
    }

    /// Increment the counter named `key` (creating it on first use).
    pub fn incr(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Add `n` to the counter named `key` (creating it on first use).
    pub fn add(&mut self, key: &str, n: u64) {
        if let Ok(i) = self.slot_keys.binary_search(&key) {
            self.slots[i] += n;
            self.written |= 1 << i;
        } else if let Some(c) = self.counters.get_mut(key) {
            c.add(n);
        } else {
            let mut c = Counter::new();
            c.add(n);
            self.counters.insert(key.to_owned(), c);
        }
    }

    /// Record a histogram sample under `key` (creating it on first use).
    pub fn record(&mut self, key: &str, v: u64) {
        self.histogram_entry(key).record(v);
    }

    /// The histogram under `key`, created empty if absent. Only called
    /// right before a sample or a merge lands in it, so no empty map
    /// entry outlives the call.
    fn histogram_entry(&mut self, key: &str) -> &mut Histogram {
        if let Ok(i) = self.hist_keys.binary_search(&key) {
            return &mut self.hist_slots[i];
        }
        if !self.histograms.contains_key(key) {
            self.histograms.insert(key.to_owned(), Histogram::new());
        }
        self.histograms.get_mut(key).expect("inserted above")
    }

    /// Read a counter (0 if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        match self.slot_keys.binary_search(&key) {
            Ok(i) => self.slots[i],
            Err(_) => self.counters.get(key).map_or(0, |c| c.get()),
        }
    }

    /// Read a histogram, if any samples were recorded under `key`.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        match self.hist_keys.binary_search(&key) {
            Ok(i) => Some(&self.hist_slots[i]).filter(|h| h.count() > 0),
            Err(_) => self.histograms.get(key),
        }
    }

    /// Iterate over all counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        let written = self.written;
        let slots = self
            .slot_keys
            .iter()
            .zip(self.slots.iter())
            .enumerate()
            .filter(move |&(i, _)| written >> i & 1 == 1)
            .map(|(_, (&k, &v))| (k, v));
        let named = self.counters.iter().map(|(k, c)| (k.as_str(), c.get()));
        SortedMerge::new(slots, named)
    }

    /// Iterate over all histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        let slots = self
            .hist_keys
            .iter()
            .zip(self.hist_slots.iter())
            .filter(|(_, h)| h.count() > 0)
            .map(|(&k, h)| (k, h));
        let named = self.histograms.iter().map(|(k, h)| (k.as_str(), h));
        SortedMerge::new(slots, named)
    }

    /// Fold another registry into this one (used when aggregating sweeps).
    /// Each key lands in this registry's slot for it, if it declares one.
    pub fn merge(&mut self, other: &Stats) {
        for (k, v) in other.counters() {
            self.add(k, v);
        }
        for (k, h) in other.histograms() {
            self.histogram_entry(k).merge(h);
        }
    }
}

/// Merge-join of two key-sorted streams with disjoint keys: the slot
/// store and the map store of one [`Stats`].
struct SortedMerge<'a, V, A: Iterator<Item = (&'a str, V)>, B: Iterator<Item = (&'a str, V)>> {
    a: std::iter::Peekable<A>,
    b: std::iter::Peekable<B>,
}

impl<'a, V, A, B> SortedMerge<'a, V, A, B>
where
    A: Iterator<Item = (&'a str, V)>,
    B: Iterator<Item = (&'a str, V)>,
{
    fn new(a: A, b: B) -> Self {
        SortedMerge {
            a: a.peekable(),
            b: b.peekable(),
        }
    }
}

impl<'a, V, A, B> Iterator for SortedMerge<'a, V, A, B>
where
    A: Iterator<Item = (&'a str, V)>,
    B: Iterator<Item = (&'a str, V)>,
{
    type Item = (&'a str, V);

    fn next(&mut self) -> Option<Self::Item> {
        match (self.a.peek(), self.b.peek()) {
            (Some((ka, _)), Some((kb, _))) if kb < ka => self.b.next(),
            (Some(_), _) => self.a.next(),
            (None, _) => self.b.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_summary_stats() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 10] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 20);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(10));
        assert!((h.mean().unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_none_everywhere() {
        let h = Histogram::new();
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn histogram_records_zero() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.quantile(0.5), Some(0));
    }

    #[test]
    fn quantile_is_monotone() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let q10 = h.quantile(0.1).unwrap();
        let q50 = h.quantile(0.5).unwrap();
        let q99 = h.quantile(0.99).unwrap();
        assert!(q10 <= q50 && q50 <= q99);
    }

    #[test]
    fn histogram_merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(100));
    }

    #[test]
    fn stats_registry_roundtrip() {
        let mut s = Stats::new();
        s.incr("bus.grants");
        s.add("bus.grants", 9);
        s.record("bus.latency", 12);
        s.record("bus.latency", 14);
        assert_eq!(s.counter("bus.grants"), 10);
        assert_eq!(s.counter("missing"), 0);
        let h = s.histogram("bus.latency").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(s.counters().count(), 1);
        assert_eq!(s.histograms().count(), 1);
    }

    #[test]
    fn stats_merge_sums_counters_and_histograms() {
        let mut a = Stats::new();
        let mut b = Stats::new();
        a.add("x", 3);
        b.add("x", 4);
        b.add("y", 1);
        a.record("h", 5);
        b.record("h", 7);
        a.merge(&b);
        assert_eq!(a.counter("x"), 7);
        assert_eq!(a.counter("y"), 1);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn display_formats() {
        let mut h = Histogram::new();
        assert_eq!(h.to_string(), "n=0");
        h.record(4);
        assert!(h.to_string().contains("n=1"));
    }
}
