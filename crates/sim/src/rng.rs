//! Deterministic randomness for workloads and adversaries.
//!
//! All stochastic behaviour in the simulator (synthetic traffic mixes,
//! adversary timing, DoS payloads, fault schedules) draws from a [`SimRng`]
//! derived from a single top-level seed, so that a scenario is exactly
//! reproducible from `(seed, configuration)`. Independent components derive
//! independent streams with [`SimRng::derive`] to avoid accidental
//! cross-coupling when a component is added or removed.
//!
//! The generator is a self-contained xoshiro256++ seeded through SplitMix64
//! — no external crates, identical output on every platform, and cheap
//! enough for per-cycle use. [`SimRngLanes`] steps many such streams at
//! once, draw for draw what each would produce as a lone [`SimRng`].

/// A seeded, splittable random-number generator.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

/// SplitMix64 step: expands a 64-bit seed into well-mixed state words.
#[inline]
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { state, seed }
    }

    /// The seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent stream for the component named `label`.
    ///
    /// Mixing uses an FxHash-style multiply-xor of the label bytes into the
    /// base seed; it is stable across runs and platforms.
    pub fn derive(&self, label: &str) -> SimRng {
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for &b in label.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            h = h.rotate_left(23);
        }
        SimRng::new(h)
    }

    /// Uniform `u32`.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `u64` (xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "SimRng::below: bound must be positive");
        // Lemire-style rejection to keep the draw unbiased.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Bernoulli draw with probability `p` (clamped to `[0,1]`).
    ///
    /// Hits exactly when `next_u64() >> 11 < chance_threshold(p)`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        // 53 uniform mantissa bits → f64 in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p.clamp(0.0, 1.0)
    }

    /// Fill a byte slice with uniform random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "SimRng::pick: empty slice");
        &items[self.below(items.len() as u64) as usize]
    }
}

/// The integer form of [`SimRng::chance`]: `chance(p)` hits exactly when
/// the draw's top 53 bits, `next_u64() >> 11`, lie below this threshold.
///
/// `chance` compares `k · 2⁻⁵³` with `p` clamped to `[0, 1]`. Scaling by
/// 2⁵³ is exact, and an integer `k` lies below a real `x` exactly when it
/// lies below `⌈x⌉`. A NaN `p` never hits, and casts to 0.
pub fn chance_threshold(p: f64) -> u64 {
    (p.clamp(0.0, 1.0) * (1u64 << 53) as f64).ceil() as u64
}

/// Streams per word of a [`SimRngLanes`] hit mask.
const LANES_PER_WORD: usize = 64;

/// Many [`SimRng`] streams, stepped together.
///
/// The xoshiro256++ states are held as four word arrays (struct of
/// arrays), padded to whole 64-lane words, so one step of every stream
/// is a loop the compiler vectorises. Stream `i` draws exactly what it
/// would as a lone `SimRng`: [`SimRngLanes::step_chance`] takes one
/// draw from every stream, and [`SimRngLanes::lend`] hands one stream
/// out as a `SimRng` for the draws in between.
pub struct SimRngLanes {
    /// State word `k` of every stream, padding lanes included.
    state: [Vec<u64>; 4],
    /// Each stream's seed, so a lent stream is the `SimRng` it was.
    seeds: Vec<u64>,
    kernel: Kernel,
}

/// Which build of the step [`SimRngLanes`] runs, picked once from the
/// CPU when the lanes are built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Plain,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Kernel {
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
        Kernel::Plain
    }
}

impl FromIterator<SimRng> for SimRngLanes {
    fn from_iter<I: IntoIterator<Item = SimRng>>(streams: I) -> Self {
        let mut lanes = SimRngLanes {
            state: Default::default(),
            seeds: Vec::new(),
            kernel: Kernel::detect(),
        };
        for rng in streams {
            for (words, word) in lanes.state.iter_mut().zip(rng.state) {
                words.push(word);
            }
            lanes.seeds.push(rng.seed);
        }
        let padded = lanes.words() * LANES_PER_WORD;
        for words in &mut lanes.state {
            words.resize(padded, 0);
        }
        lanes
    }
}

impl SimRngLanes {
    /// Number of streams.
    fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Words of hit mask one step fills: one per 64 streams.
    fn words(&self) -> usize {
        self.len().div_ceil(LANES_PER_WORD)
    }

    /// Draw the next `u64` of every stream, and mark in `hits` the
    /// streams whose draw passes [`SimRng::chance`]'s integer test,
    /// `next_u64() >> 11 < threshold` (see [`chance_threshold`]). Bit
    /// `j` of `hits[w]` is stream `64·w + j`; `hits` is resized to one
    /// word per 64 streams, and bits past the last stream are clear.
    pub fn step_chance(&mut self, threshold: u64, hits: &mut Vec<u64>) {
        hits.resize(self.words(), 0);
        match self.kernel {
            Kernel::Plain => step_lanes(&mut self.state, threshold, hits),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kernel::Avx2` is chosen only when the CPU reported
            // AVX2 (`Kernel::detect`).
            Kernel::Avx2 => unsafe { step_lanes_avx2(&mut self.state, threshold, hits) },
        }
        let tail = self.len() % LANES_PER_WORD;
        if tail != 0 {
            if let Some(last) = hits.last_mut() {
                *last &= (1 << tail) - 1;
            }
        }
    }

    /// Lend stream `lane` out as a [`SimRng`] for `f`'s draws; the
    /// stream continues from wherever `f` left it.
    ///
    /// # Panics
    /// Panics if `lane >= self.len()`.
    pub fn lend<R>(&mut self, lane: usize, f: impl FnOnce(&mut SimRng) -> R) -> R {
        let mut rng = SimRng {
            state: self.state.each_ref().map(|words| words[lane]),
            seed: self.seeds[lane],
        };
        let out = f(&mut rng);
        for (words, word) in self.state.iter_mut().zip(rng.state) {
            words[lane] = word;
        }
        out
    }
}

/// One [`SimRng::next_u64`] step of every lane, 64 lanes per hit word,
/// as plain arithmetic over the arrays so the compiler vectorises it.
///
/// `inline(always)` is what gives [`step_lanes_avx2`] its AVX2 code: a
/// body compiles under the features of the function it is inlined into,
/// and a call that stayed a call would run this plain build there too.
#[inline(always)]
fn step_lanes(state: &mut [Vec<u64>; 4], threshold: u64, hits: &mut [u64]) {
    let [s0, s1, s2, s3] = state
        .each_mut()
        .map(|words| words.as_chunks_mut::<LANES_PER_WORD>().0);
    let words = s0.iter_mut().zip(s1).zip(s2).zip(s3);
    for ((((s0, s1), s2), s3), hit) in words.zip(hits) {
        let mut mask = 0u64;
        for j in 0..LANES_PER_WORD {
            // Held in locals, so each state word is loaded and stored once.
            let [mut a, mut b, mut c, mut d] = [s0[j], s1[j], s2[j], s3[j]];
            let result = a.wrapping_add(d).rotate_left(23).wrapping_add(a);
            let t = b << 17;
            c ^= a;
            d ^= b;
            b ^= c;
            a ^= d;
            c ^= t;
            d = d.rotate_left(45);
            [s0[j], s1[j], s2[j], s3[j]] = [a, b, c, d];
            mask |= u64::from(result >> 11 < threshold) << j;
        }
        *hit = mask;
    }
}

/// [`step_lanes`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn step_lanes_avx2(state: &mut [Vec<u64>; 4], threshold: u64, hits: &mut [u64]) {
    step_lanes(state, threshold, hits);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be essentially uncorrelated");
    }

    #[test]
    fn derive_is_stable_and_label_sensitive() {
        let root = SimRng::new(42);
        let mut c1 = root.derive("cpu0");
        let mut c1_again = root.derive("cpu0");
        let mut c2 = root.derive("cpu1");
        assert_eq!(c1.next_u64(), c1_again.next_u64());
        let mut c1b = root.derive("cpu0");
        let _ = c1b.next_u64();
        assert_ne!(c1b.next_u64(), c2.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn below_covers_small_range_uniformly() {
        let mut r = SimRng::new(9);
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            counts[r.below(4) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((800..1200).contains(&c), "bucket {i} count {c}");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        // Out-of-range probabilities clamp instead of panicking.
        assert!(r.chance(2.5));
        assert!(!r.chance(-1.0));
    }

    #[test]
    fn chance_rate_is_plausible() {
        let mut r = SimRng::new(11);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn fill_bytes_fills_every_byte() {
        let mut r = SimRng::new(17);
        let mut buf = [0u8; 37];
        // With 37 random bytes the odds that any position is zero in all of
        // eight attempts are negligible.
        let mut ever_nonzero = [false; 37];
        for _ in 0..8 {
            r.fill_bytes(&mut buf);
            for (flag, &b) in ever_nonzero.iter_mut().zip(buf.iter()) {
                *flag |= b != 0;
            }
        }
        assert!(ever_nonzero.iter().all(|&f| f));
    }

    #[test]
    fn pick_covers_all_elements() {
        let mut r = SimRng::new(13);
        let items = [1, 2, 3, 4];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[*r.pick(&items) as usize - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_bound_panics() {
        SimRng::new(0).below(0);
    }

    #[test]
    fn integer_draw_matches_chance() {
        let probabilities = [
            0.0,
            5e-324,
            0.03,
            0.5,
            1.0 - f64::EPSILON / 2.0,
            1.0,
            1.5,
            -0.5,
            f64::NAN,
        ];
        for p in probabilities {
            let threshold = chance_threshold(p);
            let mut float = SimRng::new(0x5EED).derive("draw");
            let mut integer = float.clone();
            for draw in 0..100_000 {
                assert_eq!(
                    integer.next_u64() >> 11 < threshold,
                    float.chance(p),
                    "p {p:e}, draw {draw}"
                );
            }
        }
        // The edges the threshold exists for: 2⁵³ − 1 at p = 1 − 2⁻⁵³
        // misses only the largest draw, 1 at the least subnormal hits
        // only a zero draw, and p = 1 hits every draw.
        assert_eq!(chance_threshold(1.0 - f64::EPSILON / 2.0), (1 << 53) - 1);
        assert_eq!(chance_threshold(5e-324), 1);
        assert_eq!(chance_threshold(1.0), 1 << 53);
        assert_eq!(chance_threshold(f64::NAN), 0);
    }

    /// Every build of the lane step this host can run.
    fn kernels() -> Vec<Kernel> {
        let mut kernels = vec![Kernel::Plain];
        if Kernel::detect() != Kernel::Plain {
            kernels.push(Kernel::detect());
        }
        kernels
    }

    #[test]
    fn lanes_draw_what_lone_streams_draw() {
        let root = SimRng::new(0x1A4E5);
        let thresholds = [chance_threshold(1.0 / 3.0), 0, chance_threshold(1.0), 1];
        for kernel in kernels() {
            for n in [1usize, 5, 63, 64, 65, 130] {
                let mut lone: Vec<SimRng> =
                    (0..n).map(|i| root.derive(&format!("lane{i}"))).collect();
                let mut lanes: SimRngLanes = lone.iter().cloned().collect();
                lanes.kernel = kernel;
                assert_eq!((lanes.len(), lanes.words()), (n, n.div_ceil(64)));
                let mut hits = Vec::new();
                for step in 0..1_000usize {
                    let threshold = thresholds[step % thresholds.len()];
                    lanes.step_chance(threshold, &mut hits);
                    let mut want = vec![0u64; n.div_ceil(64)];
                    for (i, rng) in lone.iter_mut().enumerate() {
                        if rng.next_u64() >> 11 < threshold {
                            want[i / 64] |= 1 << (i % 64);
                        }
                    }
                    assert_eq!(hits, want, "{kernel:?}, {n} lanes, step {step}");
                    // Between steps, a lent stream draws 0-3 values
                    // exactly as its lone twin does, and keeps its seed.
                    let lane = step * 7 % n;
                    let draws = step % 4;
                    let got = lanes.lend(lane, |rng| {
                        assert_eq!(rng.seed(), lone[lane].seed());
                        (0..draws).map(|_| rng.next_u64()).collect::<Vec<_>>()
                    });
                    let want: Vec<u64> = (0..draws).map(|_| lone[lane].next_u64()).collect();
                    assert_eq!(got, want, "{kernel:?}, {n} lanes, lend at step {step}");
                }
                for (i, rng) in lone.iter_mut().enumerate() {
                    assert_eq!(lanes.lend(i, |r| r.next_u64()), rng.next_u64(), "lane {i}");
                }
            }
        }
    }

    #[test]
    fn no_lanes_step_to_no_hit_words() {
        let mut lanes: SimRngLanes = std::iter::empty().collect();
        let mut hits = vec![u64::MAX];
        lanes.step_chance(chance_threshold(1.0), &mut hits);
        assert_eq!(lanes.len(), 0);
        assert!(hits.is_empty());
    }

    #[test]
    #[should_panic]
    fn lending_past_the_last_stream_panics() {
        let mut lanes: SimRngLanes = std::iter::once(SimRng::new(1)).collect();
        lanes.lend(1, |rng| rng.next_u64());
    }
}
