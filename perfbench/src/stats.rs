//! Exact order statistics over the benchmark's own per-transaction
//! samples. The simulator's `Histogram::quantile` returns power-of-two
//! bucket floors, so no reported percentile is read from a snapshot.

/// 1-based nearest rank of percentile `pct` in `n` samples:
/// `ceil(pct / 100 * n)`, computed in integers.
pub fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending, non-empty sample: the
/// smallest sample with at least `pct`% of all samples at or below it.
pub fn nearest_rank(sorted: &[u64], pct: u32) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), pct) - 1]
}

/// Samples ranked strictly after the nearest-rank `pct` position. A
/// percentile is reported only when at least ten samples lie beyond it.
/// An empty sample has none (`rank` clamps to 1 there).
pub fn samples_above(n: usize, pct: u32) -> usize {
    n.saturating_sub(rank(n, pct))
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Exact mean of integer samples (`sum / count`), 0 when empty.
pub fn mean(sum: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

/// Host seconds of a repetition with every lap at its fastest: the sum,
/// over lap positions, of the least time any repetition took for that
/// lap. Lap `i` simulates the same work in every repetition, and the
/// host's contention comes and goes within a repetition, so each lap's
/// minimum finds a quiet stretch that a whole repetition rarely does.
/// Only the positions every repetition reached count.
pub fn lap_floor(laps: &[Vec<f64>]) -> f64 {
    let n = laps.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| laps.iter().map(|l| l[i]).fold(f64::INFINITY, f64::min))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, checked by brute force over every distinct value:
    /// the smallest `v` such that `#{x <= v} * 100 >= pct * n`.
    fn oracle(samples: &[u64], pct: u32) -> u64 {
        let mut distinct = samples.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let n = samples.len() as u64;
        *distinct
            .iter()
            .find(|&&v| {
                samples.iter().filter(|&&x| x <= v).count() as u64 * 100 >= u64::from(pct) * n
            })
            .expect("the maximum always qualifies")
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    #[test]
    fn matches_the_sorted_sample_oracle() {
        let mut state = 7u64;
        for trial in 0..300 {
            let n = 1 + (lcg(&mut state) % 400) as usize;
            let spread = 1 + lcg(&mut state) % if trial % 3 == 0 { 4 } else { 10_000 };
            let samples: Vec<u64> = (0..n).map(|_| 12 + lcg(&mut state) % spread).collect();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let mut last = 0;
            for pct in [1, 25, 50, 75, 90, 99, 100] {
                let q = nearest_rank(&sorted, pct);
                assert_eq!(q, oracle(&samples, pct), "n={n} pct={pct}");
                assert!(
                    sorted[0] <= q && q <= sorted[n - 1],
                    "clamped to [min, max]"
                );
                assert!(q >= last, "monotone in the percentile");
                last = q;
            }
        }
    }

    #[test]
    fn ranks_are_exact_at_round_sizes() {
        // 0.99 * 100 is not exact in binary floating point; the integer
        // rank must still be 99, not 100.
        assert_eq!(rank(100, 99), 99);
        assert_eq!(rank(1000, 99), 990);
        assert_eq!(rank(1, 99), 1);
        assert_eq!(samples_above(1000, 99), 10);
        assert_eq!(samples_above(999, 99), 9);
        assert_eq!(samples_above(100, 99), 1);
        assert_eq!(samples_above(1, 99), 0);
        assert_eq!(samples_above(0, 99), 0);
    }

    #[test]
    fn lap_floor_takes_each_position_at_its_fastest() {
        let laps = vec![vec![1.0, 5.0, 2.0], vec![3.0, 2.0, 4.0], vec![2.0, 3.0]];
        assert_eq!(lap_floor(&laps), 1.0 + 2.0);
        assert_eq!(lap_floor(&[vec![0.5, 0.25]]), 0.75);
        assert_eq!(lap_floor(&[]), 0.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(10, 4), 2.5);
        assert_eq!(mean(0, 0), 0.0);
    }
}
