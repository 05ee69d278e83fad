//! Every statistic the benchmark reports is computed here, so a number's
//! definition is stated once: medians and quartiles (the same method as
//! Python's `statistics.quantiles(values, n=4)`, which the acceptance
//! check uses), and a tail that is only as high as the sample supports.

/// The tail percentile is capped here: more samples than 200 do not push
/// it further out, so a workload's tail keeps one meaning as it speeds up.
const TAIL_CAP: f64 = 0.95;
/// A percentile is reported only with at least this many samples beyond it.
const TAIL_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Value at position `pos` (0-based, fractional) of a sorted sample,
/// linearly interpolated and clamped to the sample's range.
fn at(sorted: &[f64], pos: f64) -> f64 {
    let last = sorted.len() - 1;
    let pos = pos.clamp(0.0, last as f64);
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Quartile `k` (1..=3) by the exclusive method: position `k(n+1)/4`,
/// 1-based, in the sorted sample.
fn quartile(sorted: &[f64], k: usize) -> f64 {
    at(sorted, (k * (sorted.len() + 1)) as f64 / 4.0 - 1.0)
}

/// Median; 0 for an empty sample (a probe that ran out of time prints
/// `n=0` beside it).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).p50
}

/// 1-based rank of the tail in a sorted sample of `n`: the highest
/// percentile, at most p95, that still has [`TAIL_BEYOND`] samples beyond
/// it. `None` below 20 samples, where no percentile above the median is
/// supported and the median stands in for the tail.
pub fn tail_rank(n: usize) -> Option<usize> {
    (n >= 2 * TAIL_BEYOND).then(|| (n - TAIL_BEYOND).min((TAIL_CAP * n as f64).floor() as usize))
}

/// What is printed beside every timing: sample count, median, quartiles
/// and the supported tail with the percentile it stands for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub q1: f64,
    pub q3: f64,
    pub tail: f64,
    pub tail_pct: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                n: 0,
                p50: 0.0,
                q1: 0.0,
                q3: 0.0,
                tail: 0.0,
                tail_pct: 50.0,
            };
        }
        let s = sorted(values);
        let p50 = quartile(&s, 2);
        let (tail, tail_pct) = match tail_rank(s.len()) {
            Some(rank) => (s[rank - 1], 100.0 * rank as f64 / s.len() as f64),
            None => (p50, 50.0),
        };
        Summary {
            n: s.len(),
            p50,
            q1: quartile(&s, 1),
            q3: quartile(&s, 3),
            tail,
            tail_pct,
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p50 {:.4} [q1 {:.4} q3 {:.4}] p{:.0} {:.4} (n={})",
            self.p50, self.q1, self.q3, self.tail_pct, self.tail, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.p50, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.p50, s.q3), (1.0, 2.0, 3.0));
        // Two values: positions 0.75 and 2.25 clamp to the ends (Python
        // extrapolates there; no result is summarised from two samples).
        let s = Summary::of(&[10.0, 20.0]);
        assert_eq!((s.q1, s.p50, s.q3), (10.0, 15.0, 20.0));
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_rank(200), Some(190));
        assert_eq!(tail_rank(10_000), Some(9_500));
        assert_eq!(tail_rank(100), Some(90));
        assert_eq!(tail_rank(20), Some(10));
        // Too few samples for any tail: the median stands in.
        assert_eq!(tail_rank(19), None);
        assert_eq!(Summary::of(&[1.0, 2.0, 9.0]).tail, 2.0);

        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.tail, s.tail_pct), (190.0, 95.0));
        assert_eq!(v.iter().filter(|&&x| x > s.tail).count(), 10);
        let v: Vec<f64> = (1..=56).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(v.iter().filter(|&&x| x > s.tail).count(), 10);
    }
}
