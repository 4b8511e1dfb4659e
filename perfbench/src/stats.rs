//! The one percentile helper every timing goes through.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`TAIL_MIN_BEYOND`] samples beyond it, with the
//! sample count: a p99 over 40 samples is one sample's noise, so it is
//! never printed.

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: f64 = 10.0;

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Median, qualifying tail and count of one timing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (linear interpolation between the middle samples).
    pub p50: f64,
    /// The highest percentile with at least ten samples beyond it and
    /// its value; `None` when even the 75th has fewer.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `samples` (any order); `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = TAIL_CANDIDATES
            .iter()
            .find(|&&p| n as f64 * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND - 1e-9)
            .map(|&p| (p, quantile_sorted(&sorted, p / 100.0)));
        Some(Summary {
            n,
            p50: quantile_sorted(&sorted, 0.5),
            tail,
        })
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending, non-empty slice, by
/// linear interpolation between closest ranks.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
}

/// The `q`-quantile of `samples` (any order); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// The median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_has_no_summary() {
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn single_sample_is_its_own_median_without_tail() {
        let s = Summary::of(&[4.5]).unwrap();
        assert_eq!(
            s,
            Summary {
                n: 1,
                p50: 4.5,
                tail: None
            }
        );
    }

    #[test]
    fn small_samples_interpolate_the_median() {
        assert_eq!(Summary::of(&[3.0, 1.0]).unwrap().p50, 2.0);
        assert_eq!(Summary::of(&[5.0, 1.0, 3.0]).unwrap().p50, 3.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
    }

    #[test]
    fn tied_samples_summarise_to_the_tie() {
        let s = Summary::of(&[7.0; 40]).unwrap();
        assert_eq!(s.p50, 7.0);
        assert_eq!(s.tail, Some((75.0, 7.0)));
        let s = Summary::of(&[1.0, 2.0, 2.0, 2.0, 9.0]).unwrap();
        assert_eq!(s.p50, 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 39 samples: only 9.75 beyond the 75th.
        assert_eq!(Summary::of(&ramp(39)).unwrap().tail, None);
        assert_eq!(Summary::of(&ramp(40)).unwrap().tail.unwrap().0, 75.0);
        assert_eq!(Summary::of(&ramp(99)).unwrap().tail.unwrap().0, 75.0);
        assert_eq!(Summary::of(&ramp(100)).unwrap().tail.unwrap().0, 90.0);
        assert_eq!(Summary::of(&ramp(200)).unwrap().tail.unwrap().0, 95.0);
        assert_eq!(Summary::of(&ramp(1000)).unwrap().tail.unwrap().0, 99.0);
        assert_eq!(Summary::of(&ramp(10_000)).unwrap().tail.unwrap().0, 99.9);
    }

    #[test]
    fn order_does_not_matter() {
        let a = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        let b = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(a, b);
    }
}
