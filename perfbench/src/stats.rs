//! Sample statistics and failure counting.
//!
//! Timings are reported as a median plus the highest percentile that has
//! at least [`MIN_BEYOND`] samples beyond it; a tail quoted from fewer
//! samples is noise, so [`percentile`] refuses it.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count), or
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some(0.5 * (s[n / 2 - 1] + s[n / 2])),
    }
}

/// Nearest-rank `p`-th percentile (`0 < p < 100`), or `None` when fewer
/// than [`MIN_BEYOND`] samples lie strictly above its rank.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile out of range: {p}");
    let s = sorted(xs);
    let n = s.len();
    // rank is 1-based: the smallest k with k/n >= p/100
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(s[rank - 1])
}

/// Arithmetic mean, or `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Attempted and failed operations of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that did not produce a checked, correct answer.
    pub failed: u64,
}

impl Tally {
    /// Count one operation and whether its answer passed every check.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn median_ignores_input_order() {
        let a = [9.0, 2.0, 7.0, 4.0, 5.0];
        let mut b = a;
        b.reverse();
        assert_eq!(median(&a), median(&b));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p90 of n samples has n - ceil(0.9 n) samples beyond it
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(
            percentile(&xs, 90.0),
            None,
            "99 samples leave only 9 beyond p90"
        );
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        // p50 of 20 samples: rank 10, 10 beyond
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(10.0));
        assert_eq!(percentile(&xs[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_is_nearest_rank_on_unsorted_input() {
        let mut xs: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        xs.push(1e9); // one outlier moves the max, not the p90
        assert_eq!(percentile(&xs, 90.0), Some(180.0));
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        t.record(true);
        t.record(false);
        t.record(true);
        t.record(false);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 2
            }
        );
        assert_eq!(t.failed_frac(), 0.5);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
