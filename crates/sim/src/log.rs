//! Bounded event logs with cycle timestamps.
//!
//! Firewalls, the security monitor and the attack scenario runner all need
//! an ordered record of "what happened when". [`EventLog`] is a bounded
//! ring buffer of `(Cycle, T)` entries: old entries are evicted once the
//! capacity is reached, so a long-running simulation cannot grow without
//! bound, while tests and short scenarios see every event.

use std::collections::VecDeque;

use crate::cycle::Cycle;

/// A bounded, timestamped event log.
#[derive(Debug, Clone)]
pub struct EventLog<T> {
    entries: VecDeque<(Cycle, T)>,
    capacity: usize,
    total: u64,
    dropped: u64,
}

impl<T> EventLog<T> {
    /// Create a log holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero — a log that can hold nothing is a
    /// configuration error, not a useful object.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "EventLog capacity must be positive");
        EventLog {
            entries: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            total: 0,
            dropped: 0,
        }
    }

    /// Append an event at time `at`.
    #[inline]
    pub fn push(&mut self, at: Cycle, event: T) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back((at, event));
        self.total += 1;
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log currently holds no events.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total events ever pushed (including evicted ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterate over retained events in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &(Cycle, T)> {
        self.entries.iter()
    }

    /// The most recent event, if any.
    pub fn last(&self) -> Option<&(Cycle, T)> {
        self.entries.back()
    }

    /// The oldest retained event, if any.
    pub fn first(&self) -> Option<&(Cycle, T)> {
        self.entries.front()
    }

    /// First retained event satisfying `pred`, with its timestamp.
    pub fn find<P: FnMut(&T) -> bool>(&self, mut pred: P) -> Option<&(Cycle, T)> {
        self.entries.iter().find(|(_, e)| pred(e))
    }

    /// Drop all retained events (totals are preserved).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iterate_in_order() {
        let mut log = EventLog::new(8);
        log.push(Cycle(1), "a");
        log.push(Cycle(5), "b");
        let got: Vec<_> = log.iter().cloned().collect();
        assert_eq!(got, vec![(Cycle(1), "a"), (Cycle(5), "b")]);
        assert_eq!(log.first().unwrap().1, "a");
        assert_eq!(log.last().unwrap().1, "b");
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut log = EventLog::new(3);
        for i in 0..5u64 {
            log.push(Cycle(i), i);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.total(), 5);
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.first().unwrap().1, 2);
        assert_eq!(log.last().unwrap().1, 4);
    }

    #[test]
    fn find_scans_retained() {
        let mut log = EventLog::new(4);
        log.push(Cycle(0), 10);
        log.push(Cycle(1), 20);
        assert_eq!(log.find(|&e| e > 15), Some(&(Cycle(1), 20)));
        assert_eq!(log.find(|&e| e > 25), None);
    }

    #[test]
    fn clear_preserves_totals() {
        let mut log = EventLog::new(2);
        log.push(Cycle(0), ());
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.total(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: EventLog<()> = EventLog::new(0);
    }
}
