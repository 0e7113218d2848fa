//! A master interface's in-flight transactions: one hashed table keyed by
//! [`TxnId`], holding one record per transaction the interface put on the
//! bus. A response settles its transaction with a single lookup.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use secbus_bus::{Transaction, TxnId};

/// What a master interface remembers about one transaction on the bus,
/// until its final response.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InFlight {
    /// The transaction as issued: re-issued verbatim on a retry, and
    /// checked again on the way back when it is a protected read.
    pub txn: Transaction,
    /// Cycle at which its firewall verdict was rendered (write-path
    /// checks happen at issue; read-path verdicts land on final
    /// delivery). Feeds `txn.verdict_to_complete`.
    pub verdict_at: Option<u64>,
    /// A protected read awaiting the inbound ("before reaching the IP")
    /// check, which needs the transaction's address and width.
    pub read_check: bool,
    /// Kept for the watchdog/retry path, so a transient error can be
    /// re-issued verbatim.
    pub tracked: bool,
}

enum Entry {
    Txn(InFlight),
    /// A live retry: the original id and the attempts so far. The IP only
    /// ever sees the original id.
    Retry {
        orig: TxnId,
        attempts: u32,
    },
}

/// The in-flight table of one master interface.
#[derive(Default)]
pub(crate) struct InFlightTable {
    map: HashMap<TxnId, Entry, BuildHasherDefault<TxnIdHasher>>,
}

impl InFlightTable {
    /// Remember a transaction that went on the bus.
    pub fn insert(&mut self, record: InFlight) {
        self.map.insert(record.txn.id, Entry::Txn(record));
    }

    /// Settle the response that arrived under `arrived`: returns the id
    /// the IP issued, the retry attempts behind it, and the record, which
    /// leaves the table. A retry id resolves to its original's record.
    pub fn take(&mut self, arrived: TxnId) -> (TxnId, u32, Option<InFlight>) {
        match self.map.remove(&arrived) {
            Some(Entry::Txn(record)) => (arrived, 0, Some(record)),
            Some(Entry::Retry { orig, attempts }) => {
                let record = match self.map.remove(&orig) {
                    Some(Entry::Txn(record)) => Some(record),
                    _ => None,
                };
                (orig, attempts, record)
            }
            None => (arrived, 0, None),
        }
    }

    /// Put `record` back under its original id, with `retry_id` (its
    /// re-issue on the bus) mapping to it after `attempts` attempts.
    pub fn retry(&mut self, record: InFlight, retry_id: TxnId, attempts: u32) {
        let orig = record.txn.id;
        self.map.insert(retry_id, Entry::Retry { orig, attempts });
        self.map.insert(orig, Entry::Txn(record));
    }
}

/// Multiplicative hasher for [`TxnId`] keys. Ids are sequential and
/// simulator-internal, so no outside input reaches the hash, and one
/// multiply by an odd constant is enough: it maps consecutive ids to
/// distinct low bits (the bucket index) and mixes the high bits (the
/// table's tag bytes).
#[derive(Default)]
pub(crate) struct TxnIdHasher(u64);

/// 2^64 divided by the golden ratio, rounded to odd.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for TxnIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(MIX);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(MIX);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secbus_bus::{MasterId, Op, Width};
    use secbus_sim::Cycle;

    fn record(id: u64, read_check: bool) -> InFlight {
        InFlight {
            txn: Transaction {
                id: TxnId(id),
                master: MasterId(0),
                op: if read_check { Op::Read } else { Op::Write },
                addr: 0x100,
                width: Width::Word,
                data: 0,
                burst: 1,
                issued_at: Cycle(id),
            },
            verdict_at: (!read_check).then_some(id + 12),
            read_check,
            tracked: true,
        }
    }

    #[test]
    fn a_response_takes_its_record_once() {
        let mut t = InFlightTable::default();
        t.insert(record(7, true));
        let (id, attempts, rec) = t.take(TxnId(7));
        assert_eq!((id, attempts), (TxnId(7), 0));
        assert!(rec.is_some_and(|r| r.read_check && r.verdict_at.is_none()));
        assert!(t.take(TxnId(7)).2.is_none(), "settled once");
    }

    #[test]
    fn a_retry_id_resolves_to_its_original() {
        let mut t = InFlightTable::default();
        t.insert(record(3, false));
        let (_, _, rec) = t.take(TxnId(3));
        t.retry(rec.unwrap(), TxnId(9), 1);
        let (_, _, rec) = t.take(TxnId(9));
        t.retry(rec.unwrap(), TxnId(12), 2);
        let (id, attempts, rec) = t.take(TxnId(12));
        assert_eq!((id, attempts), (TxnId(3), 2));
        assert_eq!(rec.unwrap().verdict_at, Some(15));
        assert!(t.take(TxnId(3)).2.is_none());
        assert!(t.take(TxnId(9)).2.is_none(), "a spent retry id is gone");
    }

    #[test]
    fn sequential_ids_hash_to_distinct_low_bits() {
        let low: std::collections::HashSet<u64> = (0..4096u64)
            .map(|n| {
                let mut h = TxnIdHasher::default();
                h.write_u64(n);
                h.finish() & 4095
            })
            .collect();
        assert_eq!(low.len(), 4096);
    }
}
