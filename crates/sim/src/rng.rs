//! Seeded, reproducible randomness for workload generation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic random number generator seeded from a `u64`.
///
/// All workloads in the reproduction derive their randomness from a
/// `SimRng`, so every figure is exactly reproducible run-to-run.
///
/// # Example
///
/// ```rust
/// use twob_sim::SimRng;
///
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.next_u64_below(100), b.next_u64_below(100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator; useful for giving each
    /// simulated client thread its own stream.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base: u64 = self.inner.random();
        SimRng::seed_from(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.inner.random_range(0..bound)
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn next_in_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range is inverted");
        self.inner.random_range(lo..=hi)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        self.inner.random()
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0 ..= 1.0`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.inner.random_bool(p)
    }

    /// Fills `buf` with pseudo-random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        self.inner.fill(buf);
    }
}

/// A Zipfian distribution over `[0, n)` using the YCSB/Gray constant-time
/// algorithm, so skewed key popularity matches the YCSB workloads the paper
/// evaluates.
///
/// The default exponent used by YCSB is `0.99`.
///
/// # Example
///
/// ```rust
/// use twob_sim::{SimRng, Zipfian};
///
/// let mut rng = SimRng::seed_from(1);
/// let zipf = Zipfian::new(1_000, 0.99);
/// let k = zipf.sample(&mut rng);
/// assert!(k < 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipfian {
    items: u64,
    theta: f64,
    zetan: f64,
    zeta2: f64,
    alpha: f64,
    eta: f64,
    /// `0.5^theta`: rank 1's share of the mass past rank 0.
    half_pow_theta: f64,
}

impl Zipfian {
    /// Creates a Zipfian distribution over `items` ranks with exponent
    /// `theta` (YCSB uses 0.99).
    ///
    /// # Panics
    ///
    /// Panics if `items` is zero or `theta` is not in `(0, 1)`.
    pub fn new(items: u64, theta: f64) -> Self {
        assert!(items > 0, "need at least one item");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must be in (0, 1); YCSB uses 0.99"
        );
        let zetan = Self::zeta(items, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            items,
            theta,
            zetan,
            zeta2,
            alpha,
            eta,
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Number of ranks in the distribution.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Draws one rank in `[0, items)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let rank = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.items - 1)
    }

    /// The exponent `theta` of the distribution.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The normalization constant `zeta(n, theta)`; exposed for tests.
    pub fn zetan(&self) -> f64 {
        self.zetan
    }

    /// The two-element zeta constant; exposed for tests.
    pub fn zeta2(&self) -> f64 {
        self.zeta2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = SimRng::seed_from(42);
        let mut b = SimRng::seed_from(42);
        for _ in 0..32 {
            assert_eq!(a.next_u64_below(1_000_000), b.next_u64_below(1_000_000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64_below(1000) == b.next_u64_below(1000));
        assert!(same.count() < 32, "streams should not track each other");
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = SimRng::seed_from(9);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let matches = (0..64).filter(|_| c1.next_u64_below(1000) == c2.next_u64_below(1000));
        assert!(matches.count() < 32);
    }

    #[test]
    fn range_endpoints_are_inclusive() {
        let mut rng = SimRng::seed_from(3);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..2_000 {
            match rng.next_in_range(5, 6) {
                5 => saw_lo = true,
                6 => saw_hi = true,
                other => panic!("value {other} outside range"),
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn zipfian_is_skewed_toward_low_ranks() {
        let mut rng = SimRng::seed_from(11);
        let zipf = Zipfian::new(10_000, 0.99);
        let n = 20_000;
        let hot = (0..n).filter(|_| zipf.sample(&mut rng) < 100).count();
        // With theta=0.99 the hottest 1% of keys receive well over a third
        // of accesses.
        assert!(
            hot as f64 / n as f64 > 0.35,
            "hot fraction was {}",
            hot as f64 / n as f64
        );
    }

    #[test]
    fn zipfian_stays_in_bounds() {
        let mut rng = SimRng::seed_from(5);
        let zipf = Zipfian::new(37, 0.99);
        for _ in 0..5_000 {
            assert!(zipf.sample(&mut rng) < 37);
        }
    }

    #[test]
    fn zipfian_draws_are_pinned() {
        // The YCSB/Linkbench working set: any change to how a draw maps
        // onto a rank (rank 1 at draw 3 included) moves this sequence.
        let mut rng = SimRng::seed_from(2024);
        let zipf = Zipfian::new(200, 0.99);
        let ranks: Vec<u64> = (0..64).map(|_| zipf.sample(&mut rng)).collect();
        #[rustfmt::skip]
        let want = [
            11, 2, 1, 5, 43, 62, 175, 25, 0, 4, 16, 66, 12, 9, 3, 90,
            4, 2, 115, 38, 26, 8, 18, 2, 7, 3, 0, 9, 6, 47, 21, 24,
            28, 7, 159, 27, 0, 2, 9, 0, 2, 0, 48, 118, 0, 173, 2, 21,
            2, 10, 12, 0, 139, 0, 19, 87, 0, 35, 0, 0, 58, 3, 6, 183,
        ];
        assert_eq!(ranks, want);
    }

    #[test]
    fn zipfian_single_item_always_zero() {
        let mut rng = SimRng::seed_from(5);
        let zipf = Zipfian::new(1, 0.5);
        for _ in 0..100 {
            assert_eq!(zipf.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zipfian_rejects_zero_items() {
        let _ = Zipfian::new(0, 0.99);
    }
}
