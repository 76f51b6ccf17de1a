//! Order statistics over per-operation samples.

/// The median of `samples` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Samples beyond the tail percentile (see [`tail`]).
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of `samples` that has at least [`TAIL_BEYOND`]
/// samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Share of samples at or below `value`'s rank, in percent.
    pub percentile: f64,
    /// Samples strictly beyond it in sorted order.
    pub beyond: usize,
}

/// The tail statistic: the `TAIL_BEYOND + 1`-th largest sample, which is the
/// highest percentile with `TAIL_BEYOND` samples beyond it. With fewer than
/// `2 · TAIL_BEYOND + 1` samples that percentile would sit below the median,
/// so the maximum stands in (`beyond == 0` says so).
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let sorted = sorted(samples);
    let count = sorted.len();
    if count == 0 {
        return None;
    }
    let rank = if count > 2 * TAIL_BEYOND {
        count - TAIL_BEYOND - 1
    } else {
        count - 1
    };
    Some(Tail {
        value: sorted[rank],
        percentile: 100.0 * (rank + 1) as f64 / count as f64,
        beyond: count - rank - 1,
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_keeps_exactly_ten_samples_beyond() {
        // 64 samples 1..=64: the 11th largest is 54, at the 54/64 point.
        let samples: Vec<f64> = (1..=64).rev().map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!(t.value, 54.0);
        assert_eq!(t.beyond, 10);
        assert!((t.percentile - 84.375).abs() < 1e-12);
        let beyond = samples.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn tail_at_the_smallest_qualifying_count_is_the_median() {
        let samples: Vec<f64> = (0..21).map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!((t.value, t.beyond), (10.0, 10));
        assert_eq!(Some(t.value), median(&samples));
    }

    #[test]
    fn tail_falls_back_to_the_maximum_below_twenty_one_samples() {
        assert_eq!(tail(&[]), None);
        let t = tail(&[2.0, 9.0, 4.0]).unwrap();
        assert_eq!((t.value, t.beyond), (9.0, 0));
        assert_eq!(t.percentile, 100.0);
        // Twenty samples: ten beyond would put the percentile below the
        // median, never a tail.
        let samples: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail(&samples).unwrap().value, 19.0);
    }

    #[test]
    fn tail_sits_in_the_slow_mode_of_a_bimodal_sample() {
        // 45 fast elections and 15 slow ones: the tail percentile must land
        // among the slow ones (the shape of the P_LL election workload).
        let mut samples = vec![0.03; 45];
        samples.extend((0..15).map(|i| 1.0 + f64::from(i) / 100.0));
        let t = tail(&samples).unwrap();
        assert_eq!(t.value, 1.04);
    }
}
