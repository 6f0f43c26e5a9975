//! Latency summaries: the median, and the tail at the highest percentile
//! that still has at least [`MIN_BEYOND`] samples beyond it.

/// A tail percentile is only reported when this many samples lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first, in per-mille (999 = p99.9).
/// A fixed ladder keeps the reported percentile the same from run to run
/// as long as the sample count stays within one rung.
pub const TAIL_LADDER_PER_MILLE: [usize; 4] = [999, 990, 900, 500];

/// A cap that leaves the whole ladder available.
pub const UNCAPPED: usize = 999;

/// Nearest-rank position (1-based) of the `per_mille` quantile of `n` samples.
fn rank(per_mille: usize, n: usize) -> usize {
    (per_mille * n).div_ceil(1000).max(1)
}

/// The highest ladder percentile (per-mille), at most `cap`, with at
/// least [`MIN_BEYOND`] samples beyond its nearest-rank position, or
/// `None` for fewer than `2 * MIN_BEYOND` samples. A workload caps the
/// ladder at the rung its sample count reaches on the reference host, so
/// a faster build that collects more samples still reports the same
/// percentile.
pub fn tail_per_mille(n: usize, cap: usize) -> Option<usize> {
    TAIL_LADDER_PER_MILLE
        .iter()
        .copied()
        .find(|&pm| pm <= cap && n >= rank(pm, n) + MIN_BEYOND)
}

/// Nearest-rank quantile of an ascending slice.
fn quantile_sorted(sorted: &[f64], per_mille: usize) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(per_mille, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of the middle half of the values: the quarter below and the
/// quarter above are dropped. Robust to outliers like a median, but it
/// moves smoothly when the values fall into two clusters of about equal
/// size, where a median jumps from one cluster to the other.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    if mid.is_empty() {
        return f64::NAN;
    }
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Median and tail of one latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    /// The tail percentile in per-mille; `1000` (the maximum) when the
    /// sample is too small for any ladder rung.
    pub tail_per_mille: usize,
    /// Samples strictly beyond the tail's rank.
    pub beyond: usize,
}

impl Summary {
    /// Median and tail, the tail at most at the `cap` percentile.
    pub fn of(values: &[f64], cap: usize) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let (tail, pm) = match tail_per_mille(n, cap) {
            Some(pm) => (quantile_sorted(&v, pm), pm),
            None => (v.last().copied().unwrap_or(f64::NAN), 1000),
        };
        Summary {
            n,
            p50: quantile_sorted(&v, 500),
            tail,
            tail_per_mille: pm,
            beyond: if n == 0 { 0 } else { n - rank(pm, n) },
        }
    }

    /// `p99.9`, `p99`, `p90`, `p50` or `max`.
    pub fn tail_label(&self) -> String {
        match self.tail_per_mille {
            1000 => "max".into(),
            pm if pm % 10 == 0 => format!("p{}", pm / 10),
            pm => format!("p{}.{}", pm / 10, pm % 10),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 1000 samples: p99.9 leaves 1 beyond, p99 leaves exactly 10.
        let t = |n| tail_per_mille(n, 999);
        assert_eq!(t(1000), Some(990));
        assert_eq!(t(9999), Some(990));
        assert_eq!(t(10_000), Some(999));
        assert_eq!(t(999), Some(900));
        assert_eq!(t(100), Some(900));
        assert_eq!(t(99), Some(500));
        assert_eq!(t(20), Some(500));
        assert_eq!(t(19), None);
        for n in 20..30_000 {
            let pm = t(n).unwrap();
            assert!(n - rank(pm, n) >= MIN_BEYOND, "n={n} pm={pm}");
            // The next rung up would leave fewer than ten beyond.
            if let Some(higher) = TAIL_LADDER_PER_MILLE.iter().rev().find(|&&h| h > pm) {
                assert!(n - rank(*higher, n) < MIN_BEYOND, "n={n} pm={pm}");
            }
        }
    }

    #[test]
    fn a_capped_ladder_keeps_its_rung_as_samples_grow() {
        assert_eq!(tail_per_mille(50_000, 900), Some(900));
        assert_eq!(tail_per_mille(50_000, 990), Some(990));
        // Too few samples for the cap: fall back down the ladder.
        assert_eq!(tail_per_mille(500, 990), Some(900));
    }

    #[test]
    fn summary_reports_the_sample_count_beyond_the_tail() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v, 999);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.beyond, 10);
        assert_eq!(s.tail_label(), "p99");
        let small = Summary::of(&[3.0, 1.0, 2.0], 999);
        assert_eq!((small.tail, small.tail_label().as_str()), (3.0, "max"));
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, -50.0, 2.5, 3.5]),
            2.75
        );
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
        assert!(interquartile_mean(&[]).is_nan());
        // Two clusters of near-equal size: one value moving across shifts
        // the median by the whole gap, the interquartile mean by a step.
        let mut v = vec![1.0; 15];
        v.extend([3.0; 16]);
        let mut w = vec![1.0; 16];
        w.extend([3.0; 15]);
        assert_eq!((median(&v), median(&w)), (3.0, 1.0));
        let (a, b) = (interquartile_mean(&v), interquartile_mean(&w));
        assert!(a > b && a - b < 0.2, "{a} {b}");
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
