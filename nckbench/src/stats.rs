//! Order statistics for reporting timings.

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// The highest tail percentile that has at least ten samples beyond it
/// among `n` samples (a percentile with fewer is one outlier away from a
/// different number). `None` when even p90 is out of reach.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Nearest-rank percentile of `values` (unsorted is fine).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here match
/// the ones Python tooling computes from the same runs. A single
/// value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    match m {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            let q = |i: usize| {
                let n = 4;
                let j = (i * (m + 1) / n).clamp(1, m - 1);
                let delta = (i * (m + 1)) as f64 - (j * n) as f64;
                (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
            };
            Some((q(1), q(3)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(8_550), Some(99.0), "p99.9 has 8.55 beyond");
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[3.0], 99.0), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    }
}
