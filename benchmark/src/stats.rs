//! Order statistics over latency samples.

/// A tail percentile together with the sample it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile level, an integer in `1..=99`, or `100` for the
    /// maximum when the sample is too small for any level.
    pub percentile: u32,
    /// The value at that level (nearest rank).
    pub value: f64,
    /// The number of samples.
    pub n: usize,
}

/// The value at integer percentile `p` by the nearest-rank rule, and how
/// many samples lie beyond it.  `sorted` must be sorted and non-empty.
fn nearest_rank(sorted: &[f64], p: u32) -> (f64, usize) {
    let n = sorted.len();
    let rank = (p as usize * n).div_ceil(100).max(1);
    (sorted[rank - 1], n - rank)
}

/// The median: the middle sample, or the mean of the two middle ones
/// for an even count.  `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The highest integer percentile that still has at least `beyond`
/// samples above it.  With fewer than `beyond + 1` samples no level
/// qualifies and the maximum is returned as percentile 100.  `None` for
/// an empty sample.
pub fn tail(samples: &[f64], beyond: usize) -> Option<Tail> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let level = (1..=99)
        .rev()
        .find(|&p| nearest_rank(&sorted, p).1 >= beyond);
    Some(match level {
        Some(p) => Tail {
            percentile: p,
            value: nearest_rank(&sorted, p).0,
            n,
        },
        None => Tail {
            percentile: 100,
            value: sorted[n - 1],
            n,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // shuffled so the helper has to sort
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn hundred_samples_give_p90() {
        let t = tail(&ramp(100), 10).unwrap();
        assert_eq!((t.percentile, t.value, t.n), (90, 90.0, 100));
    }

    #[test]
    fn level_keeps_ten_samples_beyond() {
        for n in 11..400 {
            let samples = ramp(n);
            let t = tail(&samples, 10).unwrap();
            let beyond = samples.iter().filter(|&&v| v > t.value).count();
            assert!(beyond >= 10, "n={n}: {t:?} has {beyond} beyond");
            assert_eq!(t.n, n);
            // one level higher would leave fewer than ten beyond
            if t.percentile < 99 {
                let rank = ((t.percentile as usize + 1) * n).div_ceil(100);
                assert!(n - rank < 10, "n={n}: p{} not the highest", t.percentile);
            }
        }
    }

    #[test]
    fn ninety_three_samples_give_p89() {
        let t = tail(&ramp(93), 10).unwrap();
        assert_eq!((t.percentile, t.value), (89, 83.0));
    }

    #[test]
    fn small_samples_fall_back_to_the_maximum() {
        for n in 1..=10 {
            let t = tail(&ramp(n), 10).unwrap();
            assert_eq!((t.percentile, t.value, t.n), (100, n as f64, n));
        }
        assert_eq!(tail(&[], 10), None);
    }

    #[test]
    fn eleven_samples_have_a_level() {
        let t = tail(&ramp(11), 10).unwrap();
        assert_eq!((t.percentile, t.value), (9, 1.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
