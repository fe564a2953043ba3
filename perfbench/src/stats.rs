//! Summaries of timing samples.

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// On an empty slice: every caller measures at least one sample.
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

/// Samples that must lie beyond a reported percentile.
const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `values`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it: a p99 over
/// 200 samples would rest on the two samples above it.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} out of (0, 1)");
    let n = values.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_refuses_without_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1009).map(f64::from).collect();
        // 1009 samples: rank 999, ten beyond.
        assert_eq!(percentile(&v, 0.99), Some(999.0));
        // 1000 samples: rank 990, ten beyond; 999 samples: rank 990,
        // nine beyond.
        assert_eq!(percentile(&v[..1000], 0.99), Some(990.0));
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v[..200], 0.99), None);
        // The median needs ten samples above it too.
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
    }
}
