//! Sample summaries: nearest-rank percentiles that carry their sample
//! counts, so every reported timing says how many samples back it.

/// A sorted sample with nearest-rank percentile lookup.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sorts `values` (NaNs are a harness bug and panic).
    pub fn new(mut values: Vec<f64>) -> Sample {
        values.sort_by(|a, b| a.partial_cmp(b).expect("sample values are never NaN"));
        Sample { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile: the smallest value with at least `p`% of
    /// the sample at or below it. `None` for an empty sample.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        Some(self.sorted[rank(p, n) - 1])
    }

    /// Samples strictly above the `p` percentile's rank: how many values
    /// back the claim "`p`% were at most X".
    pub fn beyond(&self, p: f64) -> usize {
        let n = self.sorted.len();
        if n == 0 {
            return 0;
        }
        n - rank(p, n)
    }

    /// Largest value.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
    }
}

/// The 1-based nearest rank of percentile `p` in `n > 0` samples. The
/// slack absorbs the float error of `p` itself (99.9 × 1000 must be 999).
fn rank(p: f64, n: usize) -> usize {
    let r = (p * n as f64 / 100.0 - 1e-9).ceil();
    (r.max(1.0) as usize).min(n)
}

/// The median of `values` (nearest-rank), or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    Sample::new(values.to_vec()).percentile(50.0)
}

/// The mean of the middle half of `values`: the quarter below the first
/// quartile and the quarter above the third are left out (none when
/// fewer than four values). `None` when empty.
pub fn interquartile_mean(values: &[f64]) -> Option<f64> {
    let s = Sample::new(values.to_vec());
    let cut = s.len() / 4;
    let middle = &s.sorted[cut..s.len() - cut];
    (!middle.is_empty()).then(|| middle.iter().sum::<f64>() / middle.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = Sample::new((1..=10).map(f64::from).rev().collect());
        assert_eq!(s.len(), 10);
        assert_eq!(s.percentile(50.0), Some(5.0));
        assert_eq!(s.percentile(90.0), Some(9.0));
        assert_eq!(s.percentile(91.0), Some(10.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(100.0), Some(10.0));
        assert_eq!(s.max(), Some(10.0));
        assert_eq!(Sample::new(vec![]).percentile(50.0), None);
    }

    #[test]
    fn counts_beyond_a_percentile() {
        let s = Sample::new((0..1000).map(f64::from).collect());
        assert_eq!(s.beyond(50.0), 500);
        assert_eq!(s.beyond(90.0), 100);
        assert_eq!(s.beyond(99.0), 10);
        assert_eq!(s.beyond(99.9), 1);
        assert_eq!(Sample::new(vec![7.0]).beyond(50.0), 0);
        assert_eq!(Sample::new(vec![]).beyond(50.0), 0);
    }

    #[test]
    fn interquartile_mean_leaves_out_both_outer_quarters() {
        let values = [100.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, -50.0];
        assert_eq!(interquartile_mean(&values), Some(4.5));
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(interquartile_mean(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
