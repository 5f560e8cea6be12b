//! Order statistics over measured samples.

/// A measured value.
pub trait Sample: Copy {
    /// The value as a float.
    fn as_f64(self) -> f64;
}

impl Sample for f64 {
    fn as_f64(self) -> f64 {
        self
    }
}

impl Sample for u64 {
    fn as_f64(self) -> f64 {
        self as f64
    }
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `values`, or 0 for an
/// empty sample. Sorts a copy.
pub fn quantile<T: Sample>(values: &[T], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.iter().map(|&v| v.as_f64()).collect();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest-rank) of `values`.
pub fn median<T: Sample>(values: &[T]) -> f64 {
    quantile(values, 0.5)
}

/// Nanosecond durations counted in 1 ns buckets up to [`NsHistogram::MAX`]
/// (longer ones count in the last bucket): exact quantiles of short,
/// frequent timings in constant memory.
#[derive(Debug, Clone)]
pub struct NsHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for NsHistogram {
    fn default() -> Self {
        NsHistogram {
            counts: vec![0; Self::MAX as usize + 1],
            total: 0,
        }
    }
}

impl NsHistogram {
    /// Largest duration with a bucket of its own.
    pub const MAX: u64 = 65_535;

    /// Counts one duration.
    pub fn record(&mut self, ns: u64) {
        self.counts[ns.min(Self::MAX) as usize] += 1;
        self.total += 1;
    }

    /// Adds `other`'s counts.
    pub fn merge(&mut self, other: &NsHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Durations counted.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The nearest-rank `q`-quantile in ns, or 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total.max(1));
        let mut seen = 0;
        for (ns, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return ns as f64;
            }
        }
        0.0
    }
}

/// Arithmetic mean, or 0 for an empty sample.
pub fn mean(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0f64, 1.0, 2.0]), 2.0);
        assert_eq!(median::<f64>(&[]), 0.0);
    }

    #[test]
    fn histogram_quantiles_match_the_sorted_sample() {
        let mut h = NsHistogram::default();
        let mut other = NsHistogram::default();
        for ns in 1..=100u64 {
            h.record(ns);
        }
        other.record(1_000_000);
        h.merge(&other);
        assert_eq!(h.count(), 101);
        assert_eq!(h.quantile(0.5), 51.0);
        assert_eq!(h.quantile(1.0), NsHistogram::MAX as f64);
        assert_eq!(NsHistogram::default().quantile(0.5), 0.0);
    }
}
