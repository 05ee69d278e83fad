//! The power-of-two latency histogram the serving plane keeps per
//! tenant. [`LogHistogram`] is the recorder (two relaxed atomic adds a
//! value); [`Histogram`] is the value every reader works with
//! (`hinch::GraphStats`, `insight::live`, the `serve` load harness and
//! exporters): counts, exact sum, quantiles, merge and window
//! difference. The bucket layout is known to this module alone.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets: bucket 0 holds value 0, bucket `b`
/// holds values in `[2^(b-1), 2^b)`.
const LOG_BUCKETS: usize = 65;

/// Bucket index for `value`.
#[inline]
fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Upper bound of bucket `b` (inclusive).
fn bucket_high(b: usize) -> u64 {
    match b {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << b) - 1,
    }
}

/// A recorded latency distribution: per-bucket counts plus the exact sum
/// of the recorded values. A plain value: snapshots of one recorder
/// subtract into the distribution of the values recorded between them
/// ([`Histogram::since`]), and histograms of one layout add bucket for
/// bucket ([`Histogram::merge`]), both exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; LOG_BUCKETS],
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: [0; LOG_BUCKETS],
            sum: 0,
        }
    }
}

impl Histogram {
    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Exact sum of the recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            n => self.sum as f64 / n as f64,
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile (`q` in
    /// [0, 1]); 0 when empty. HDR-style: at most one power of two above
    /// the true value.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high(b);
            }
        }
        bucket_high(LOG_BUCKETS - 1)
    }

    /// Add `other`'s values to this distribution.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
    }

    /// The values recorded after `earlier`, an older snapshot of the same
    /// recorder (counters only grow; a foreign `earlier` saturates at 0).
    pub fn since(&self, earlier: &Histogram) -> Histogram {
        Histogram {
            counts: std::array::from_fn(|b| self.counts[b].saturating_sub(earlier.counts[b])),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// Prometheus-style cumulative buckets: `(upper bound, count of
    /// values <= bound)` for every bucket up to and including the highest
    /// non-empty one. The implicit `+Inf` bucket equals
    /// [`Histogram::count`]; an empty histogram yields no entries.
    pub fn cumulative(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let len = self
            .counts
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |b| b + 1);
        self.counts[..len]
            .iter()
            .enumerate()
            .scan(0u64, |seen, (b, &n)| {
                *seen += n;
                Some((bucket_high(b), *seen))
            })
    }
}

/// The lock-free recorder: a hand-rolled HDR-style histogram with
/// power-of-two buckets, O(1) recording, ~2x relative error on
/// percentile estimates, fixed 66 x 8 bytes of storage for the full
/// `u64` range. Read it with [`LogHistogram::snapshot`].
pub struct LogHistogram {
    buckets: [AtomicU64; LOG_BUCKETS],
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            buckets: [0u64; LOG_BUCKETS].map(AtomicU64::new),
            sum: AtomicU64::new(0),
        }
    }
}

impl LogHistogram {
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// The distribution recorded so far, each bucket read once.
    pub fn snapshot(&self) -> Histogram {
        Histogram {
            counts: std::array::from_fn(|b| self.buckets[b].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(values: &[u64]) -> Histogram {
        let h = LogHistogram::default();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for b in 1..LOG_BUCKETS {
            assert_eq!(bucket_of(bucket_high(b - 1) + 1), b);
            assert_eq!(bucket_of(bucket_high(b)), b);
        }
    }

    #[test]
    fn histogram_mean_and_quantiles() {
        let h = histogram(&[1, 2, 3, 4, 100]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 110);
        assert!((h.mean() - 22.0).abs() < 1e-9);
        // p50 falls in bucket [2,3]; the estimate is its upper bound.
        assert_eq!(h.quantile(0.5), 3);
        // max falls in bucket [64,127]
        assert_eq!(h.quantile(1.0), 127);
        assert_eq!(h.quantile(0.0), 1);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h, LogHistogram::default().snapshot());
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.cumulative().count(), 0);
    }

    #[test]
    fn cumulative_pairs_are_monotone_and_end_at_count() {
        let h = histogram(&[0, 1, 2, 3, 4, 100, 100]);
        let cum: Vec<(u64, u64)> = h.cumulative().collect();
        // Dense up to the last non-empty bucket (bucket_of(100) = 7).
        assert_eq!(cum.len(), 8);
        assert!(cum.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(cum.last().unwrap().1, h.count());
        assert_eq!(cum[0], (0, 1)); // le=0 holds the one zero value
    }

    #[test]
    fn window_diff_recovers_interval_quantiles() {
        let h = LogHistogram::default();
        for v in [1u64, 1, 1, 1] {
            h.record(v);
        }
        let before = h.snapshot();
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        let after = h.snapshot();
        let window = after.since(&before);
        assert_eq!(window, histogram(&[100, 200, 300]));
        assert_eq!(window.count(), 3);
        assert_eq!(window.sum(), 600);
        // All three window values land in [64, 511]; p50 over the window
        // ignores the pre-window 1s entirely.
        assert_eq!(window.quantile(0.5), bucket_high(bucket_of(200)));
        // ... while the full histogram's p50 is still dominated by the 1s.
        assert_eq!(after.quantile(0.5), 1);
    }

    #[test]
    fn merge_equals_the_combined_stream() {
        let mut merged = histogram(&[0, 5, 900]);
        merged.merge(&histogram(&[5, 1 << 40]));
        assert_eq!(merged, histogram(&[0, 5, 900, 5, 1 << 40]));
        assert_eq!(
            merged.since(&histogram(&[5, 1 << 40])),
            histogram(&[0, 5, 900])
        );
    }
}
