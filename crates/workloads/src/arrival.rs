//! Arrival layer of the serving stack: open-loop traffic generators.
//!
//! A closed-loop pool can never exhibit the open-loop hockey-stick — its
//! offered load self-throttles to the device's completion rate. The
//! serving stack therefore generates traffic from **arrival processes**:
//! seeded, deterministic streams of arrival instants that do not care
//! whether the device has kept up. The one shape every study runs is
//! [`PoissonArrivals`]: memoryless arrivals at a constant rate, the M/G/1
//! baseline.
//!
//! A stream is a pure function of `(config, seed)`, so equal seeds give
//! byte-identical arrival streams on any backend.

use twob_sim::{SimDuration, SimRng, SimTime};

use crate::gen;

/// Which arrival process a serving run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Constant-rate memoryless arrivals.
    Poisson,
}

impl ArrivalKind {
    /// Stable lowercase label (report vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            ArrivalKind::Poisson => "poisson",
        }
    }
}

/// One exponential inter-arrival gap with mean `mean_ns`, at least 1 ns so
/// streams always make progress.
fn exp_gap(rng: &mut SimRng, mean_ns: f64) -> u64 {
    let u = rng.next_f64();
    ((-(1.0 - u).ln()) * mean_ns).max(1.0) as u64
}

/// Memoryless arrivals at a constant rate.
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    rng: SimRng,
    mean_gap_ns: f64,
}

impl PoissonArrivals {
    /// A stream offering `ops_per_sec` on average.
    ///
    /// # Panics
    ///
    /// Panics unless `ops_per_sec` is positive and finite.
    pub fn new(ops_per_sec: f64, seed: u64) -> Self {
        assert!(
            ops_per_sec > 0.0 && ops_per_sec.is_finite(),
            "arrival rate must be positive"
        );
        PoissonArrivals {
            rng: SimRng::seed_from(seed),
            mean_gap_ns: 1e9 / ops_per_sec,
        }
    }

    /// The next arrival instant strictly after `now`.
    pub fn next_after(&mut self, now: SimTime) -> SimTime {
        now + SimDuration::from_nanos(exp_gap(&mut self.rng, self.mean_gap_ns))
    }
}

/// Per-tenant arrival configuration for a serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalConfig {
    /// Process shape.
    pub kind: ArrivalKind,
    /// Offered load per tenant, ops/sec (the long-run average).
    pub ops_per_sec: f64,
    /// Base seed; tenants are decorrelated via [`gen::tenant_seed`].
    pub seed: u64,
}

impl ArrivalConfig {
    /// A config for `kind` at `ops_per_sec` per tenant.
    pub fn new(kind: ArrivalKind, ops_per_sec: f64, seed: u64) -> Self {
        ArrivalConfig {
            kind,
            ops_per_sec,
            seed,
        }
    }

    /// Builds the seeded stream for `tenant`.
    pub fn build(&self, tenant: u16) -> PoissonArrivals {
        PoissonArrivals::new(self.ops_per_sec, gen::tenant_seed(self.seed, tenant))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(p: &mut PoissonArrivals, n: usize) -> Vec<SimTime> {
        let mut t = SimTime::ZERO;
        (0..n)
            .map(|_| {
                t = p.next_after(t);
                t
            })
            .collect()
    }

    fn poisson(rate: f64, seed: u64) -> ArrivalConfig {
        ArrivalConfig::new(ArrivalKind::Poisson, rate, seed)
    }

    #[test]
    fn same_seed_same_stream_every_kind() {
        let cfg = poisson(50_000.0, 11);
        let a = stream(&mut cfg.build(3), 500);
        let b = stream(&mut cfg.build(3), 500);
        assert_eq!(a, b, "stream not reproducible");
        let c = stream(&mut cfg.build(4), 500);
        assert_ne!(a, c, "tenants not decorrelated");
    }

    #[test]
    fn arrivals_strictly_advance() {
        let times = stream(&mut poisson(100_000.0, 5).build(0), 2_000);
        for w in times.windows(2) {
            assert!(w[0] < w[1], "non-advancing arrival");
        }
    }

    #[test]
    fn long_run_rate_matches_configured_average() {
        let rate = 100_000.0;
        let times = stream(&mut poisson(rate, 9).build(1), 20_000);
        let span = times.last().unwrap().as_nanos() as f64 / 1e9;
        let observed = times.len() as f64 / span;
        assert!(
            (observed / rate - 1.0).abs() < 0.15,
            "observed {observed:.0} ops/s vs configured {rate:.0}"
        );
    }
}
