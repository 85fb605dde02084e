//! Order statistics, the tail-percentile rule, and the value hash.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so the
/// spread this harness prints is the spread the driver computes. A single
/// sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |i: usize| -> f64 {
        // Position i*(n+1)/4 on a 1-based scale, clamped into the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median — the spread the driver
/// holds against each metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

/// Geometric mean (1.0 for no samples, the empty product).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// How many samples must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The `want` percentile (nearest rank) of ascending `sorted`, lowered
/// to the highest percentile that still has [`TAIL_SAMPLES`] samples
/// beyond it. Returns the value and the percentile actually reported,
/// or `None` when no percentile has that many samples beyond it.
pub fn tail_percentile(sorted: &[u64], want: f64) -> Option<(u64, f64)> {
    let n = sorted.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    let rank = ((want * n as f64).ceil() as usize).clamp(1, n);
    let rank = rank.min(n - TAIL_SAMPLES);
    Some((sorted[rank - 1], rank as f64 / n as f64))
}

/// Order-sensitive 64-bit hash of everything a pass produced: every
/// launch's values and simulated counters go in, so two passes agree
/// only if they computed the same thing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Folds one word in (FNV-1a over 64-bit words).
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(Self::PRIME);
    }

    /// Folds a value array in, length first. Arrays run to millions of
    /// words and the hash is harness time inside a timed pass, so the
    /// array is hashed eight words at a time: two per multiply, in four
    /// interleaved lanes (multiply chains the CPU overlaps) that are then
    /// folded in order.
    pub fn words(&mut self, values: &[u32]) {
        self.word(values.len() as u64);
        let mut lanes = [self.0; 4];
        let mut chunks = values.chunks_exact(8);
        for chunk in &mut chunks {
            for (lane, pair) in lanes.iter_mut().zip(chunk.chunks_exact(2)) {
                let both = u64::from(pair[0]) | u64::from(pair[1]) << 32;
                *lane = (*lane ^ both).wrapping_mul(Self::PRIME);
            }
        }
        for lane in lanes {
            self.word(lane);
        }
        for &v in chunks.remainder() {
            self.word(u64::from(v));
        }
    }

    /// The hash so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let samples = |n: u64| -> Vec<u64> { (1..=n).collect() };
        // 1200 samples: nearest-rank p99 is rank 1188, 12 beyond it.
        assert_eq!(tail_percentile(&samples(1200), 0.99), Some((1188, 0.99)));
        // 1000 samples: rank 990 has exactly ten beyond it.
        assert_eq!(tail_percentile(&samples(1000), 0.99), Some((990, 0.99)));
        // 999 samples: rank 990 would leave nine, so the rule falls back
        // to rank 989, the highest percentile with ten beyond.
        let (value, p) = tail_percentile(&samples(999), 0.99).unwrap();
        assert_eq!(value, 989);
        assert!(p < 0.99 && (p - 989.0 / 999.0).abs() < 1e-12);
        // 100 samples support p90 at best.
        assert_eq!(tail_percentile(&samples(100), 0.99), Some((90, 0.9)));
        // The median is untouched while ten samples lie beyond it.
        assert_eq!(tail_percentile(&samples(100), 0.5), Some((50, 0.5)));
        // Eleven samples: only the minimum qualifies; ten: nothing does.
        assert_eq!(tail_percentile(&samples(11), 0.99).unwrap().0, 1);
        assert_eq!(tail_percentile(&samples(10), 0.99), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn geomean_of_ratios() {
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_is_order_and_length_sensitive() {
        let hash = |parts: &[&[u32]]| {
            let mut f = Fingerprint::default();
            for p in parts {
                f.words(p);
            }
            f.value()
        };
        assert_eq!(hash(&[&[1, 2, 3]]), hash(&[&[1, 2, 3]]));
        assert_ne!(hash(&[&[1, 2, 3]]), hash(&[&[3, 2, 1]]));
        assert_ne!(hash(&[&[1, 2], &[3]]), hash(&[&[1], &[2, 3]]));
        // Swaps across and within the four lanes both show.
        let long: Vec<u32> = (0..43).collect();
        for (i, j) in [(0, 1), (0, 2), (0, 8), (5, 42), (40, 41)] {
            let mut swapped = long.clone();
            swapped.swap(i, j);
            assert_ne!(hash(&[&long]), hash(&[&swapped]), "swap {i} {j}");
        }
    }
}
