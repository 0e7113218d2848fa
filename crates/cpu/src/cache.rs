//! A private direct-mapped cache between an IP and its bus interface.
//!
//! The paper's §V argues that overhead depends on "the percentage of
//! computation time versus communication time": a cache changes exactly
//! that ratio by absorbing repeated reads before they ever reach the
//! firewall and the bus. [`CachedMaster`] wraps any [`BusMaster`] and
//! filters its port traffic:
//!
//! * **read hit** — served locally, zero bus transactions, zero checks;
//! * **read miss** — the whole line is fetched word by word (honest
//!   traffic: every fill word is a checked bus transaction);
//! * **write** — write-through: always forwarded; a cached word is
//!   updated in place, narrower writes invalidate the line.
//!
//! The cache is *private*: coherence with other masters is out of scope
//! (use it for thread-private data, as the tests do). Security-wise the
//! cache sits on the IP side of the Local Firewall, so everything that
//! does reach the interface is still checked — a hit never bypasses a
//! *new* authorization, it reuses data that was already checked on the
//! fill (the classic cache/MPU interaction, preserved faithfully).

use std::collections::VecDeque;

use secbus_bus::{Op, Response, TxnId, Width};
use secbus_sim::{stat_keys, Cycle, Stats};

use crate::master::{BusMaster, MasterAccess};

/// Cache shape.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Number of lines (power of two).
    pub lines: usize,
    /// Words per line (power of two).
    pub line_words: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            lines: 64,
            line_words: 4,
        }
    }
}

struct Line {
    tag: Option<u32>,
    words: Vec<u32>,
}

/// The cache core: lookup/install/update on word addresses.
struct CacheArray {
    config: CacheConfig,
    lines: Vec<Line>,
}

impl CacheArray {
    fn new(config: CacheConfig) -> Self {
        assert!(
            config.lines.is_power_of_two(),
            "lines must be a power of two"
        );
        assert!(
            config.line_words.is_power_of_two(),
            "line words must be a power of two"
        );
        CacheArray {
            lines: (0..config.lines)
                .map(|_| Line {
                    tag: None,
                    words: vec![0; config.line_words],
                })
                .collect(),
            config,
        }
    }

    fn line_bytes(&self) -> u32 {
        (self.config.line_words * 4) as u32
    }

    fn split(&self, addr: u32) -> (u32, usize, usize) {
        let line_base = addr & !(self.line_bytes() - 1);
        let index = ((line_base / self.line_bytes()) as usize) & (self.config.lines - 1);
        let word = ((addr - line_base) / 4) as usize;
        (line_base, index, word)
    }

    fn lookup(&self, addr: u32) -> Option<u32> {
        let (line_base, index, word) = self.split(addr);
        let line = &self.lines[index];
        (line.tag == Some(line_base)).then(|| line.words[word])
    }

    fn install(&mut self, line_base: u32, words: Vec<u32>) {
        let (_, index, _) = self.split(line_base);
        debug_assert_eq!(words.len(), self.config.line_words);
        self.lines[index] = Line {
            tag: Some(line_base),
            words,
        };
    }

    fn update_word(&mut self, addr: u32, value: u32) {
        let (line_base, index, word) = self.split(addr);
        let line = &mut self.lines[index];
        if line.tag == Some(line_base) {
            line.words[word] = value;
        }
    }

    fn invalidate(&mut self, addr: u32) {
        let (line_base, index, _) = self.split(addr);
        let line = &mut self.lines[index];
        if line.tag == Some(line_base) {
            line.tag = None;
        }
    }
}

/// An in-progress line fill.
struct Fill {
    /// The id handed to the wrapped device.
    local_id: TxnId,
    /// The device's original request.
    addr: u32,
    width: Width,
    line_base: u32,
    collected: Vec<u32>,
    outstanding: Option<TxnId>,
}

stat_keys! {
    /// The cache's per-access counters, kept in fixed [`Stats`] slots.
    pub enum CacheCounter {
        FillErrors => "cache.fill_errors",
        Hits => "cache.hits",
        Misses => "cache.misses",
        StaleResponses => "cache.stale_responses",
        WriteThrough => "cache.write_through",
    }
}

/// A [`BusMaster`] wrapper adding a private direct-mapped read cache.
pub struct CachedMaster {
    device: Box<dyn BusMaster>,
    cache: CacheArray,
    fill: Option<Fill>,
    /// Synthesized hit responses awaiting the device's poll.
    hits: VecDeque<Response>,
    /// Local ids for cache-served transactions (top bit set so they can
    /// never collide with bus-allocated ids in any realistic run).
    next_local: u64,
    stats: Stats,
}

impl CachedMaster {
    /// Wrap `device` with a cache of the given shape.
    pub fn new(device: Box<dyn BusMaster>, config: CacheConfig) -> Self {
        CachedMaster {
            device,
            cache: CacheArray::new(config),
            fill: None,
            hits: VecDeque::new(),
            next_local: 1 << 63,
            stats: Stats::slotted(CacheCounter::KEYS, &[]),
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.stats.counter_slot(CacheCounter::Hits)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.stats.counter_slot(CacheCounter::Misses)
    }

    /// Hit rate in [0, 1]; `None` before any cacheable access.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits() + self.misses();
        (total > 0).then(|| self.hits() as f64 / total as f64)
    }
}

fn extract(word: u32, addr: u32, width: Width) -> u32 {
    let shift = (addr & 3) * 8;
    (word >> shift) & width.mask()
}

/// The port the wrapped device sees.
struct CachePort<'a> {
    real: &'a mut dyn MasterAccess,
    cache: &'a mut CacheArray,
    fill: &'a mut Option<Fill>,
    hits: &'a mut VecDeque<Response>,
    next_local: &'a mut u64,
    stats: &'a mut Stats,
    now: Cycle,
}

impl CachePort<'_> {
    fn alloc_local(&mut self) -> TxnId {
        let id = TxnId(*self.next_local);
        *self.next_local += 1;
        id
    }

    /// Drive an in-progress fill forward: issue the next word and absorb
    /// fill responses. Returns a completed device response when done.
    fn pump_fill(&mut self) -> Option<Response> {
        let fill = self.fill.as_mut()?;
        if fill.outstanding.is_none() {
            let word_idx = fill.collected.len();
            if word_idx < self.cache.config.line_words {
                let addr = fill.line_base + (word_idx as u32) * 4;
                let id = self.real.issue(Op::Read, addr, Width::Word, 0, 1);
                fill.outstanding = Some(id);
            }
        }
        if let Some(resp) = self.real.poll() {
            let fill = self.fill.as_mut().expect("fill in progress");
            if Some(resp.txn) != fill.outstanding {
                // A dead letter for an already-answered fill word must
                // not be collected into the line; account and drop it.
                self.stats.incr_slot(CacheCounter::StaleResponses);
                return None;
            }
            fill.outstanding = None;
            if !resp.is_ok() {
                // A fill word was refused (firewall discard, decode…):
                // abort the fill and surface the error for the original
                // access. Nothing is installed.
                let fill = self.fill.take().expect("fill present");
                self.stats.incr_slot(CacheCounter::FillErrors);
                return Some(Response {
                    txn: fill.local_id,
                    data: 0,
                    result: resp.result,
                    completed_at: resp.completed_at,
                });
            }
            let fill = self.fill.as_mut().expect("fill in progress");
            fill.collected.push(resp.data);
            if fill.collected.len() == self.cache.config.line_words {
                let fill = self.fill.take().expect("fill present");
                let word = fill.collected[((fill.addr - fill.line_base) / 4) as usize];
                self.cache.install(fill.line_base, fill.collected);
                return Some(Response {
                    txn: fill.local_id,
                    data: extract(word, fill.addr, fill.width),
                    result: Ok(()),
                    completed_at: resp.completed_at,
                });
            }
        }
        None
    }
}

impl MasterAccess for CachePort<'_> {
    fn issue(&mut self, op: Op, addr: u32, width: Width, data: u32, burst: u16) -> TxnId {
        match op {
            Op::Read if burst <= 1 => {
                if let Some(word) = self.cache.lookup(addr & !3) {
                    self.stats.incr_slot(CacheCounter::Hits);
                    let id = self.alloc_local();
                    self.hits.push_back(Response {
                        txn: id,
                        data: extract(word, addr, width),
                        result: Ok(()),
                        completed_at: self.now,
                    });
                    id
                } else {
                    self.stats.incr_slot(CacheCounter::Misses);
                    debug_assert!(self.fill.is_none(), "single outstanding device access");
                    let id = self.alloc_local();
                    *self.fill = Some(Fill {
                        local_id: id,
                        addr,
                        width,
                        line_base: addr & !(self.cache.line_bytes() - 1),
                        collected: Vec::with_capacity(self.cache.config.line_words),
                        outstanding: None,
                    });
                    id
                }
            }
            Op::Write => {
                // Write-through; keep a cached word coherent, drop the
                // line for narrower-than-word updates.
                if width == Width::Word {
                    self.cache.update_word(addr, data);
                } else {
                    self.cache.invalidate(addr);
                }
                self.stats.incr_slot(CacheCounter::WriteThrough);
                self.real.issue(op, addr, width, data, burst)
            }
            _ => {
                // Burst reads (DMA-style) bypass the cache entirely.
                self.real.issue(op, addr, width, data, burst)
            }
        }
    }

    fn poll(&mut self) -> Option<Response> {
        if let Some(hit) = self.hits.pop_front() {
            return Some(hit);
        }
        if self.fill.is_some() {
            return self.pump_fill();
        }
        self.real.poll()
    }
}

impl BusMaster for CachedMaster {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn tick(&mut self, mem: &mut dyn MasterAccess, now: Cycle) {
        let mut port = CachePort {
            real: mem,
            cache: &mut self.cache,
            fill: &mut self.fill,
            hits: &mut self.hits,
            next_local: &mut self.next_local,
            stats: &mut self.stats,
            now,
        };
        self.device.tick(&mut port, now);
    }

    fn halted(&self) -> bool {
        self.device.halted() && self.fill.is_none()
    }

    fn label(&self) -> &str {
        self.device.label()
    }

    fn stats(&self) -> &Stats {
        // The wrapped device's own counters remain authoritative for its
        // work; cache counters are read via hits()/misses().
        self.device.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::core::Mb32Core;
    use crate::master::InstantMem;

    fn run(master: &mut CachedMaster, mem: &mut InstantMem, max: u64) {
        for c in 0..max {
            if master.halted() {
                return;
            }
            master.tick(mem, Cycle(c));
        }
        panic!("did not halt");
    }

    #[test]
    fn repeated_reads_hit_after_one_fill() {
        // Loop reading the same word 32 times.
        let src = r"
            addi r1, r0, 64
            addi r3, r0, 32
            addi r4, r0, 0
        loop:
            lw   r2, 0(r1)
            addi r4, r4, 1
            blt  r4, r3, loop
            halt
        ";
        let core = Mb32Core::with_local_program("c", 0, assemble(src).unwrap());
        let mut cached = CachedMaster::new(Box::new(core), CacheConfig::default());
        let mut mem = InstantMem::new(256);
        mem.load(64, &0xfeed_beefu32.to_le_bytes());
        run(&mut cached, &mut mem, 10_000);
        assert_eq!(cached.misses(), 1, "one fill");
        assert_eq!(cached.hits(), 31);
        // Only the 4 fill words hit the memory.
        let reads = mem.issued.iter().filter(|(op, ..)| *op == Op::Read).count();
        assert_eq!(reads, 4);
    }

    #[test]
    fn read_data_is_correct_through_the_cache() {
        let src = r"
            addi r1, r0, 16
            lw   r2, 0(r1)    ; miss -> fill
            lw   r3, 4(r1)    ; hit (same line)
            lb   r4, 1(r1)    ; hit, byte extract
            lhu  r5, 6(r1)    ; hit, half extract
            halt
        ";
        let core = Mb32Core::with_local_program("c", 0, assemble(src).unwrap());
        let mut cached = CachedMaster::new(
            Box::new(core),
            CacheConfig {
                lines: 4,
                line_words: 4,
            },
        );
        let mut mem = InstantMem::new(64);
        mem.load(16, &0x4433_2211u32.to_le_bytes());
        mem.load(20, &0x8877_6655u32.to_le_bytes());
        run(&mut cached, &mut mem, 10_000);
        let core = cached.device.as_any().downcast_ref::<Mb32Core>().unwrap();
        assert_eq!(core.reg(crate::isa::Reg(2)), 0x4433_2211);
        assert_eq!(core.reg(crate::isa::Reg(3)), 0x8877_6655);
        assert_eq!(core.reg(crate::isa::Reg(4)), 0x22);
        assert_eq!(core.reg(crate::isa::Reg(5)), 0x8877);
        assert_eq!(cached.misses(), 1);
        assert_eq!(cached.hits(), 3);
    }

    #[test]
    fn word_writes_keep_the_cache_coherent() {
        let src = r"
            addi r1, r0, 32
            lw   r2, 0(r1)    ; fill
            addi r3, r0, 99
            sw   r3, 0(r1)    ; write-through + cache update
            lw   r4, 0(r1)    ; hit must see 99
            halt
        ";
        let core = Mb32Core::with_local_program("c", 0, assemble(src).unwrap());
        let mut cached = CachedMaster::new(Box::new(core), CacheConfig::default());
        let mut mem = InstantMem::new(64);
        run(&mut cached, &mut mem, 10_000);
        let core = cached.device.as_any().downcast_ref::<Mb32Core>().unwrap();
        assert_eq!(core.reg(crate::isa::Reg(4)), 99);
        // The write also reached memory (write-through).
        assert_eq!(mem.word(32), 99);
    }

    #[test]
    fn narrow_writes_invalidate() {
        let src = r"
            addi r1, r0, 32
            lw   r2, 0(r1)    ; fill
            addi r3, r0, 0xAB
            sb   r3, 0(r1)    ; narrow write -> line invalidated
            lw   r4, 0(r1)    ; must MISS and refetch the true value
            halt
        ";
        let core = Mb32Core::with_local_program("c", 0, assemble(src).unwrap());
        let mut cached = CachedMaster::new(Box::new(core), CacheConfig::default());
        let mut mem = InstantMem::new(64);
        run(&mut cached, &mut mem, 10_000);
        let core = cached.device.as_any().downcast_ref::<Mb32Core>().unwrap();
        assert_eq!(core.reg(crate::isa::Reg(4)), 0xAB);
        assert_eq!(cached.misses(), 2, "the sb dropped the line");
    }

    #[test]
    fn fill_errors_propagate_to_the_device() {
        // Reading past the device: the fill word errors, the core records
        // an access error and keeps going.
        let src = r"
            addi r1, r0, 0
            li   r2, 0x1000
            lw   r3, 0(r2)   ; fill errors out of range
            halt
        ";
        let core = Mb32Core::with_local_program("c", 0, assemble(src).unwrap());
        let mut cached = CachedMaster::new(Box::new(core), CacheConfig::default());
        let mut mem = InstantMem::new(64);
        run(&mut cached, &mut mem, 10_000);
        let core = cached.device.as_any().downcast_ref::<Mb32Core>().unwrap();
        assert_eq!(core.stats().counter("core.access_errors"), 1);
        assert_eq!(cached.stats_cache_fill_errors(), 1);
    }

    impl CachedMaster {
        fn stats_cache_fill_errors(&self) -> u64 {
            self.stats.counter("cache.fill_errors")
        }
    }

    #[test]
    fn conflicting_lines_evict() {
        // Two addresses mapping to the same set (lines=4, line=16B:
        // stride 64 collides).
        let src = r"
            addi r1, r0, 0
            addi r2, r0, 64
            lw   r3, 0(r1)   ; miss
            lw   r4, 0(r2)   ; miss, evicts line 0
            lw   r5, 0(r1)   ; miss again
            halt
        ";
        let core = Mb32Core::with_local_program("c", 0, assemble(src).unwrap());
        let mut cached = CachedMaster::new(
            Box::new(core),
            CacheConfig {
                lines: 4,
                line_words: 4,
            },
        );
        let mut mem = InstantMem::new(128);
        run(&mut cached, &mut mem, 10_000);
        assert_eq!(cached.misses(), 3);
        assert_eq!(cached.hits(), 0);
    }

    #[test]
    fn hit_rate_reporting() {
        let cachedless = CachedMaster::new(
            Box::new(Mb32Core::with_local_program("c", 0, vec![])),
            CacheConfig::default(),
        );
        assert_eq!(cachedless.hit_rate(), None);
    }
}
