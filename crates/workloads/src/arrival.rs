//! Arrival layer of the serving stack: open-loop traffic generators.
//!
//! A closed-loop pool can never exhibit the open-loop hockey-stick — its
//! offered load self-throttles to the device's completion rate. The
//! serving stack therefore generates traffic from **arrival processes**:
//! seeded, deterministic streams of arrival instants that do not care
//! whether the device has kept up. Three shapes cover the paper-relevant
//! space:
//!
//! - [`PoissonArrivals`] — memoryless arrivals at a constant rate, the
//!   M/G/1 baseline.
//! - [`BurstyArrivals`] — an MMPP-style on/off modulated Poisson process:
//!   exponential dwell times alternate a high-rate burst state with a
//!   low-rate quiet state (same long-run average rate), stressing the
//!   BA buffer with arrival clumps.
//! - [`DiurnalArrivals`] — a piecewise-constant rate following a repeating
//!   "compressed day" multiplier trace, the classic serving-traffic shape.
//!
//! Every process is a pure function of `(config, seed)`, so equal seeds
//! give byte-identical arrival streams on any backend.

use twob_sim::{SimRng, SimTime};

use crate::gen;

/// Which arrival process a serving run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Constant-rate memoryless arrivals.
    Poisson,
    /// MMPP-style on/off bursts around the same average rate.
    Bursty,
    /// Rate modulated by a repeating diurnal multiplier trace.
    Diurnal,
}

impl ArrivalKind {
    /// All kinds, in sweep order.
    pub const ALL: [ArrivalKind; 3] = [
        ArrivalKind::Poisson,
        ArrivalKind::Bursty,
        ArrivalKind::Diurnal,
    ];

    /// Stable lowercase label (CLI/report vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            ArrivalKind::Poisson => "poisson",
            ArrivalKind::Bursty => "burst",
            ArrivalKind::Diurnal => "diurnal",
        }
    }

    /// Parses a CLI label (`poisson`, `burst`, `diurnal`).
    pub fn parse(s: &str) -> Option<ArrivalKind> {
        match s {
            "poisson" => Some(ArrivalKind::Poisson),
            "burst" | "bursty" => Some(ArrivalKind::Bursty),
            "diurnal" => Some(ArrivalKind::Diurnal),
            _ => None,
        }
    }
}

/// A deterministic open-loop arrival stream for one tenant.
pub trait ArrivalProcess {
    /// The next arrival instant strictly after `now`.
    fn next_after(&mut self, now: SimTime) -> SimTime;
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
}

impl ArrivalProcess for PoissonArrivals {
    fn next_after(&mut self, now: SimTime) -> SimTime {
        now + twob_sim::SimDuration::from_nanos(exp_gap(&mut self.rng, self.mean_gap_ns))
    }
}

/// Ratio of burst-state rate to the average rate (quiet state mirrors it,
/// so the long-run average stays the configured rate with equal dwells).
const BURST_RATE_FACTOR: f64 = 1.8;

/// MMPP-style on/off modulated Poisson arrivals.
///
/// Two states with exponential dwell times (equal means) alternate: the
/// *burst* state arrives at `1.8×` the average rate, the *quiet* state at
/// `0.2×`. Long-run offered load matches [`PoissonArrivals`] at the same
/// rate; short-run clumping is what exercises admission control.
#[derive(Debug, Clone)]
pub struct BurstyArrivals {
    rng: SimRng,
    burst_gap_ns: f64,
    quiet_gap_ns: f64,
    mean_dwell_ns: f64,
    bursting: bool,
    state_until: SimTime,
}

impl BurstyArrivals {
    /// A stream offering `ops_per_sec` on average, switching state every
    /// `mean_dwell` on average.
    ///
    /// # Panics
    ///
    /// Panics unless `ops_per_sec` is positive and finite and the dwell is
    /// non-zero.
    pub fn new(ops_per_sec: f64, mean_dwell: twob_sim::SimDuration, seed: u64) -> Self {
        assert!(
            ops_per_sec > 0.0 && ops_per_sec.is_finite(),
            "arrival rate must be positive"
        );
        assert!(
            mean_dwell > twob_sim::SimDuration::ZERO,
            "dwell must be non-zero"
        );
        BurstyArrivals {
            rng: SimRng::seed_from(seed),
            burst_gap_ns: 1e9 / (ops_per_sec * BURST_RATE_FACTOR),
            quiet_gap_ns: 1e9 / (ops_per_sec * (2.0 - BURST_RATE_FACTOR)),
            mean_dwell_ns: mean_dwell.as_nanos() as f64,
            bursting: false,
            state_until: SimTime::ZERO,
        }
    }
}

impl ArrivalProcess for BurstyArrivals {
    fn next_after(&mut self, now: SimTime) -> SimTime {
        let mut t = now;
        loop {
            if t >= self.state_until {
                self.bursting = !self.bursting;
                self.state_until = t + twob_sim::SimDuration::from_nanos(exp_gap(
                    &mut self.rng,
                    self.mean_dwell_ns,
                ));
            }
            let mean = if self.bursting {
                self.burst_gap_ns
            } else {
                self.quiet_gap_ns
            };
            let cand = t + twob_sim::SimDuration::from_nanos(exp_gap(&mut self.rng, mean));
            if cand <= self.state_until {
                return cand;
            }
            // No arrival before the state flips; resume from the boundary
            // (valid because the modulated process is memoryless within a
            // state).
            t = self.state_until;
        }
    }
}

/// The compressed-day rate multipliers: a trough, a morning ramp, a midday
/// plateau, an evening peak, and a wind-down. Mean ≈ 1.0 so the configured
/// rate is the diurnal average.
pub const DIURNAL_PATTERN: [f64; 12] = [0.3, 0.2, 0.2, 0.5, 0.9, 1.2, 1.3, 1.2, 1.5, 1.8, 1.4, 0.5];

/// Arrivals whose rate follows a repeating diurnal multiplier trace.
///
/// The rate is piecewise constant: slot `i` of [`DIURNAL_PATTERN`] scales
/// the base rate for one `phase` duration, repeating forever. Within a
/// slot arrivals are Poisson, and slot boundaries are handled by the
/// memoryless restart, so the stream is a pure function of the seed.
#[derive(Debug, Clone)]
pub struct DiurnalArrivals {
    rng: SimRng,
    base_gap_ns: f64,
    phase_ns: u64,
}

impl DiurnalArrivals {
    /// A stream averaging roughly `ops_per_sec`, one diurnal slot lasting
    /// `phase` (a full "day" is `12 × phase`).
    ///
    /// # Panics
    ///
    /// Panics unless `ops_per_sec` is positive and finite and `phase` is
    /// non-zero.
    pub fn new(ops_per_sec: f64, phase: twob_sim::SimDuration, seed: u64) -> Self {
        assert!(
            ops_per_sec > 0.0 && ops_per_sec.is_finite(),
            "arrival rate must be positive"
        );
        assert!(
            phase > twob_sim::SimDuration::ZERO,
            "diurnal phase must be non-zero"
        );
        DiurnalArrivals {
            rng: SimRng::seed_from(seed),
            base_gap_ns: 1e9 / ops_per_sec,
            phase_ns: phase.as_nanos(),
        }
    }

    fn slot(&self, t: SimTime) -> usize {
        ((t.as_nanos() / self.phase_ns) as usize) % DIURNAL_PATTERN.len()
    }
}

impl ArrivalProcess for DiurnalArrivals {
    fn next_after(&mut self, now: SimTime) -> SimTime {
        let mut t = now;
        loop {
            let slot = self.slot(t);
            let mean = self.base_gap_ns / DIURNAL_PATTERN[slot];
            let cand = t + twob_sim::SimDuration::from_nanos(exp_gap(&mut self.rng, mean));
            let slot_end = SimTime::from_nanos((t.as_nanos() / self.phase_ns + 1) * self.phase_ns);
            if cand < slot_end {
                return cand;
            }
            t = slot_end;
        }
    }
}

/// Per-tenant arrival configuration for a serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalConfig {
    /// Process shape.
    pub kind: ArrivalKind,
    /// Offered load per tenant, ops/sec (long-run average for every kind).
    pub ops_per_sec: f64,
    /// Base seed; tenants are decorrelated via [`gen::tenant_seed`].
    pub seed: u64,
    /// Burst/diurnal state-dwell / phase length.
    pub phase: twob_sim::SimDuration,
}

impl ArrivalConfig {
    /// A config with the default 200 µs phase length.
    pub fn new(kind: ArrivalKind, ops_per_sec: f64, seed: u64) -> Self {
        ArrivalConfig {
            kind,
            ops_per_sec,
            seed,
            phase: twob_sim::SimDuration::from_micros(200),
        }
    }

    /// Builds the seeded process for `tenant`.
    pub fn build(&self, tenant: u16) -> Box<dyn ArrivalProcess> {
        let seed = gen::tenant_seed(self.seed, tenant);
        match self.kind {
            ArrivalKind::Poisson => Box::new(PoissonArrivals::new(self.ops_per_sec, seed)),
            ArrivalKind::Bursty => {
                Box::new(BurstyArrivals::new(self.ops_per_sec, self.phase, seed))
            }
            ArrivalKind::Diurnal => {
                Box::new(DiurnalArrivals::new(self.ops_per_sec, self.phase, seed))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twob_sim::SimDuration;

    fn stream(p: &mut dyn ArrivalProcess, n: usize) -> Vec<SimTime> {
        let mut t = SimTime::ZERO;
        (0..n)
            .map(|_| {
                t = p.next_after(t);
                t
            })
            .collect()
    }

    #[test]
    fn kinds_parse_and_label_round_trip() {
        for kind in ArrivalKind::ALL {
            assert_eq!(ArrivalKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(ArrivalKind::parse("bursty"), Some(ArrivalKind::Bursty));
        assert_eq!(ArrivalKind::parse("nope"), None);
    }

    #[test]
    fn same_seed_same_stream_every_kind() {
        for kind in ArrivalKind::ALL {
            let cfg = ArrivalConfig::new(kind, 50_000.0, 11);
            let a = stream(&mut *cfg.build(3), 500);
            let b = stream(&mut *cfg.build(3), 500);
            assert_eq!(a, b, "{} stream not reproducible", kind.label());
            let c = stream(&mut *cfg.build(4), 500);
            assert_ne!(a, c, "{} tenants not decorrelated", kind.label());
        }
    }

    #[test]
    fn arrivals_strictly_advance() {
        for kind in ArrivalKind::ALL {
            let times = stream(&mut *ArrivalConfig::new(kind, 100_000.0, 5).build(0), 2_000);
            for w in times.windows(2) {
                assert!(w[0] < w[1], "{}: non-advancing arrival", kind.label());
            }
        }
    }

    #[test]
    fn long_run_rate_matches_configured_average() {
        for kind in ArrivalKind::ALL {
            let rate = 100_000.0;
            let times = stream(&mut *ArrivalConfig::new(kind, rate, 9).build(1), 20_000);
            let span = times.last().unwrap().as_nanos() as f64 / 1e9;
            let observed = times.len() as f64 / span;
            assert!(
                (observed / rate - 1.0).abs() < 0.15,
                "{}: observed {observed:.0} ops/s vs configured {rate:.0}",
                kind.label()
            );
        }
    }

    #[test]
    fn bursty_clumps_more_than_poisson() {
        let cv = |kind: ArrivalKind| {
            let times = stream(
                &mut *ArrivalConfig::new(kind, 100_000.0, 21).build(2),
                20_000,
            );
            let gaps: Vec<f64> = times
                .windows(2)
                .map(|w| w[1].saturating_since(w[0]).as_nanos() as f64)
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            var.sqrt() / mean
        };
        let poisson = cv(ArrivalKind::Poisson);
        let bursty = cv(ArrivalKind::Bursty);
        // Exponential gaps have CV ≈ 1; on/off modulation inflates it.
        assert!((poisson - 1.0).abs() < 0.1, "poisson CV {poisson}");
        assert!(bursty > poisson + 0.1, "bursty CV {bursty} vs {poisson}");
    }

    #[test]
    fn diurnal_peak_slots_run_hotter_than_trough_slots() {
        let phase = SimDuration::from_micros(200);
        let mut p = DiurnalArrivals::new(100_000.0, phase, 33);
        let times = stream(&mut p, 30_000);
        let day_ns = phase.as_nanos() * DIURNAL_PATTERN.len() as u64;
        let mut per_slot = [0u64; 12];
        for t in &times {
            per_slot[((t.as_nanos() % day_ns) / phase.as_nanos()) as usize] += 1;
        }
        // Slot 9 (multiplier 1.8) vs slot 1 (0.2): expect a wide margin.
        assert!(
            per_slot[9] > per_slot[1] * 3,
            "peak {} vs trough {}",
            per_slot[9],
            per_slot[1]
        );
    }
}
