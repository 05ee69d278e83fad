//! Seeded inputs: the generator the workloads draw from and the open-loop
//! arrival schedule. Both are pure functions of their arguments, so one
//! `--seed` gives one set of inputs on every commit.

/// SplitMix64: small, seedable, and good enough to pick targets and
/// inter-arrival gaps.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// One frame of an open-loop step: when it is due, from the start of the
/// step, and which graph of the fleet it goes to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due_s: f64,
    pub target: usize,
}

/// Poisson arrivals at `rate` frames/s over `window_s` seconds, each to a
/// uniformly drawn target in `0..targets`.
pub fn poisson(seed: u64, rate: f64, window_s: f64, targets: usize) -> Vec<Arrival> {
    // Mix the rate in, so the steps of one ladder do not share a prefix.
    let mut rng = Rng::new(seed ^ rate.to_bits().rotate_left(17));
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        // Inverse-CDF exponential gap; 1 - u is in (0, 1].
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= window_s {
            return out;
        }
        out.push(Arrival {
            due_s: t,
            target: rng.below(targets),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_seed_rate_and_window() {
        let a = poisson(7, 32.0, 8.0, 4);
        assert_eq!(a, poisson(7, 32.0, 8.0, 4));
        assert_ne!(a, poisson(8, 32.0, 8.0, 4));
        assert_ne!(a, poisson(7, 128.0, 8.0, 4));
        // A longer window extends the same schedule.
        let longer = poisson(7, 32.0, 16.0, 4);
        assert_eq!(a[..], longer[..a.len()]);
    }

    #[test]
    fn schedule_has_the_asked_rate_order_and_targets() {
        let a = poisson(1, 128.0, 8.0, 4);
        // 1024 expected, standard deviation 32.
        assert!((900..1150).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(a
            .iter()
            .all(|x| x.due_s > 0.0 && x.due_s < 8.0 && x.target < 4));
        for target in 0..4 {
            let share = a.iter().filter(|x| x.target == target).count() as f64 / a.len() as f64;
            assert!((0.18..0.32).contains(&share), "target {target}: {share}");
        }
    }
}
