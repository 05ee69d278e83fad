//! The power-of-two latency histogram the serving plane keeps per
//! tenant (`hinch::GraphStats`, `insight::live`, the `serve` load
//! harness): one relaxed atomic add per recorded value, mergeable
//! bucket for bucket.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets in a [`LogHistogram`]: bucket 0 holds
/// value 0, bucket `b` holds values in `[2^(b-1), 2^b)`.
pub const LOG_BUCKETS: usize = 65;

/// A hand-rolled HDR-style histogram with power-of-two buckets: O(1)
/// lock-free recording (one relaxed atomic add), ~2x relative error on
/// percentile estimates, fixed 65 x 8 bytes of storage for the full
/// `u64` range.
pub struct LogHistogram {
    buckets: [AtomicU64; LOG_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            buckets: [0u64; LOG_BUCKETS].map(AtomicU64::new),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl LogHistogram {
    /// Bucket index for `value`.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Lower bound of bucket `b` (inclusive).
    pub fn bucket_low(b: usize) -> u64 {
        if b == 0 {
            0
        } else {
            1u64 << (b - 1)
        }
    }

    /// Upper bound of bucket `b` (inclusive).
    pub fn bucket_high(b: usize) -> u64 {
        if b == 0 {
            0
        } else if b >= 64 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        }
    }

    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
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
        for (b, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_high(b);
            }
        }
        Self::bucket_high(LOG_BUCKETS - 1)
    }

    /// `(bucket low, bucket high, count)` for every non-empty bucket.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(b, bucket)| {
                let n = bucket.load(Ordering::Relaxed);
                (n > 0).then(|| (Self::bucket_low(b), Self::bucket_high(b), n))
            })
            .collect()
    }

    /// Raw per-bucket counts, full fixed width. Two snapshots taken at
    /// different times can be subtracted element-wise to get the
    /// distribution of values recorded *between* them (counters are
    /// monotonic), which is how `insight::live` computes windowed
    /// percentiles without per-value storage.
    pub fn bucket_counts(&self) -> [u64; LOG_BUCKETS] {
        let mut out = [0u64; LOG_BUCKETS];
        for (o, b) in out.iter_mut().zip(self.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Prometheus-style cumulative buckets: `(upper bound, count of
    /// values <= bound)` for every bucket up to and including the
    /// highest non-empty one. The implicit `+Inf` bucket equals
    /// [`LogHistogram::count`]. Empty histogram yields no entries.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        Self::cumulative_from_counts(&self.bucket_counts())
    }

    /// [`LogHistogram::cumulative_buckets`] over an explicit counts
    /// array (e.g. a window diff of two [`LogHistogram::bucket_counts`]
    /// snapshots).
    pub fn cumulative_from_counts(counts: &[u64]) -> Vec<(u64, u64)> {
        let last = match counts.iter().rposition(|&n| n > 0) {
            Some(b) => b,
            None => return Vec::new(),
        };
        let mut seen = 0u64;
        counts[..=last]
            .iter()
            .enumerate()
            .map(|(b, &n)| {
                seen += n;
                (Self::bucket_high(b), seen)
            })
            .collect()
    }

    /// Quantile estimate over an explicit counts array (same convention
    /// as [`LogHistogram::quantile`]: upper bound of the rank bucket,
    /// 0 when empty).
    pub fn quantile_from_counts(counts: &[u64], q: f64) -> u64 {
        let n: u64 = counts.iter().sum();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_high(b);
            }
        }
        Self::bucket_high(counts.len().saturating_sub(1))
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count())
            .field("mean", &self.mean())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
        for b in 1..LOG_BUCKETS {
            assert_eq!(LogHistogram::bucket_of(LogHistogram::bucket_low(b)), b);
            assert_eq!(LogHistogram::bucket_of(LogHistogram::bucket_high(b)), b);
        }
    }

    #[test]
    fn histogram_mean_and_quantiles() {
        let h = LogHistogram::default();
        for v in [1u64, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 110);
        assert!((h.mean() - 22.0).abs() < 1e-9);
        // p50 falls in bucket [2,3]; the estimate is its upper bound.
        assert_eq!(h.quantile(0.5), 3);
        // max falls in bucket [64,127]
        assert_eq!(h.quantile(1.0), 127);
        assert_eq!(h.quantile(0.0), 1);
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.iter().map(|(_, _, n)| n).sum::<u64>(), 5);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LogHistogram::default();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.nonzero_buckets().is_empty());
        assert!(h.cumulative_buckets().is_empty());
        assert_eq!(LogHistogram::quantile_from_counts(&[0; 4], 0.5), 0);
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_end_at_count() {
        let h = LogHistogram::default();
        for v in [0u64, 1, 2, 3, 4, 100, 100] {
            h.record(v);
        }
        let cum = h.cumulative_buckets();
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
        let before = h.bucket_counts();
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        let after = h.bucket_counts();
        let diff: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        assert_eq!(diff.iter().sum::<u64>(), 3);
        // All three window values land in [64, 511]; p50 over the window
        // ignores the pre-window 1s entirely.
        assert_eq!(
            LogHistogram::quantile_from_counts(&diff, 0.5),
            LogHistogram::bucket_high(LogHistogram::bucket_of(200))
        );
        // ... while the full histogram's p50 is still dominated by the 1s.
        assert_eq!(h.quantile(0.5), 1);
    }
}
