//! Order statistics over samples.

/// The median; the mean of the two middle values for an even count.
///
/// # Panics
///
/// On an empty slice: every metric has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`).
///
/// # Panics
///
/// On an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The geometric mean of positive values: one number for several
/// operations of very different lengths, which a change of any one of
/// them by some factor moves by the same share.
///
/// # Panics
///
/// On an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The peak RSS a workload reports: each operation's median peak over
/// the run, and the largest of those. One operation's peak moves with
/// the timing of its threads; its median over the run does not.
pub fn peak_of_medians(per_op: &[Vec<f64>]) -> f64 {
    per_op.iter().map(|peaks| median(peaks)).fold(0.0, f64::max)
}

/// The arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "order statistic of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(mean(&[]), 0.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
