//! Order statistics over raw samples.
//!
//! A percentile is trusted only when at least [`MIN_BEYOND`] samples lie
//! beyond it: with fewer, the value is set by one or two outliers. The
//! helpers here report that judgement next to every percentile so the
//! report can say which figures the sample supports.

/// Samples that must lie strictly beyond a percentile for it to count as
/// supported.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile with its sample count and support flag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The nearest-rank value (`NaN` for an empty sample).
    pub value: f64,
    /// Number of samples.
    pub n: usize,
    /// Whether at least [`MIN_BEYOND`] samples lie beyond this rank.
    pub supported: bool,
}

/// Nearest-rank percentile of `samples` at `q` in `[0, 1]`. Infinite
/// samples (failed requests) sort last, so they count as misses of every
/// latency limit.
pub fn percentile(samples: &[f64], q: f64) -> Percentile {
    let n = samples.len();
    if n == 0 {
        return Percentile {
            value: f64::NAN,
            n,
            supported: false,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Percentile {
        value: sorted[rank - 1],
        n,
        supported: n - rank >= MIN_BEYOND,
    }
}

/// Median (nearest-rank), `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).value
}

/// Arithmetic mean, `NaN` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when the base is empty.
pub fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_values() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.0).value, 1.0);
        assert_eq!(percentile(&xs, 0.5).value, 3.0);
        assert_eq!(percentile(&xs, 0.95).value, 5.0);
        assert_eq!(percentile(&xs, 1.0).value, 5.0);
        assert!(percentile(&[], 0.5).value.is_nan());
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 of 200 samples is rank 190: exactly ten lie beyond it.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let p = percentile(&xs, 0.95);
        assert_eq!(p.value, 190.0);
        assert!(p.supported);
        // One sample fewer leaves only nine beyond rank 190.
        let p = percentile(&xs[..199], 0.95);
        assert_eq!(p.value, 190.0);
        assert!(!p.supported);
        // The median of 20 samples has ten beyond it; of 19, nine.
        assert!(percentile(&xs[..20], 0.5).supported);
        assert!(!percentile(&xs[..19], 0.5).supported);
        // p99 needs a thousand samples.
        assert!(percentile(&xs, 0.99).n == 200 && !percentile(&xs, 0.99).supported);
        assert!(!percentile(&[], 0.5).supported);
    }

    #[test]
    fn failures_count_as_misses() {
        let mut xs = vec![1.0; 90];
        xs.extend([f64::INFINITY; 10]);
        assert_eq!(percentile(&xs, 0.95).value, f64::INFINITY);
        assert_eq!(percentile(&xs, 0.5).value, 1.0);
    }
}
