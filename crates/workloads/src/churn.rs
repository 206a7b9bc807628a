//! Seeded overwrite churn for exercising garbage collection.
//!
//! A GC study needs a workload that (a) fills the drive, then (b) keeps
//! overwriting live data so the free-block pool drains and the collector
//! has victims with a controllable amount of still-valid data. This module
//! generates exactly that: a deterministic, seeded stream of single-page
//! overwrites with an 80/20 hot set, so the same seed always produces
//! the same LBA sequence — the property the GC determinism tests and the
//! `gc_interference` bench build on.

use twob_ftl::Lba;
use twob_sim::SimRng;

/// Shape of an overwrite-churn stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// LBAs `[0, lbas)` the stream draws from.
    pub lbas: u64,
    /// RNG seed; equal seeds yield byte-identical streams.
    pub seed: u64,
}

impl ChurnConfig {
    /// Fraction of the LBA space forming the hot set.
    const HOT_FRACTION: f64 = 0.2;

    /// Probability an overwrite lands in the hot set. Skewed churn leaves
    /// cold blocks mostly valid, which is what gives GC real copy work.
    const HOT_PROBABILITY: f64 = 0.8;

    /// The classic 80/20 skew: 80 % of overwrites hit the hottest 20 % of
    /// `lbas` logical pages.
    pub fn skewed(lbas: u64, seed: u64) -> Self {
        ChurnConfig { lbas, seed }
    }
}

/// A deterministic stream of single-page overwrite targets.
#[derive(Debug, Clone)]
pub struct ChurnWorkload {
    cfg: ChurnConfig,
    rng: SimRng,
    issued: u64,
}

impl ChurnWorkload {
    /// Creates the stream for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.lbas` is zero.
    pub fn new(cfg: ChurnConfig) -> Self {
        assert!(cfg.lbas > 0, "churn needs a non-empty LBA space");
        ChurnWorkload {
            rng: SimRng::seed_from(cfg.seed),
            cfg,
            issued: 0,
        }
    }

    /// The configuration the stream was built from.
    pub fn config(&self) -> ChurnConfig {
        self.cfg
    }

    /// Overwrites issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// LBAs that fill the whole space once, in address order. Writing
    /// these before churning puts the drive at 100 % logical utilization,
    /// the paper's steady-state precondition for GC pressure.
    pub fn fill_sequence(&self) -> impl Iterator<Item = Lba> + use<> {
        (0..self.cfg.lbas).map(Lba)
    }

    /// The next overwrite target.
    pub fn next_lba(&mut self) -> Lba {
        self.issued += 1;
        Lba(crate::gen::hot_cold_draw(
            &mut self.rng,
            self.cfg.lbas,
            ChurnConfig::HOT_FRACTION,
            ChurnConfig::HOT_PROBABILITY,
        ))
    }

    /// A page-sized payload that encodes `(lba, issue index)`, so a later
    /// read can verify which write version it observed.
    pub fn page_for(&self, lba: Lba, page_size: usize) -> Vec<u8> {
        let tag = (lba.0 ^ self.issued).to_le_bytes();
        let mut page = vec![0u8; page_size];
        for (i, b) in page.iter_mut().enumerate() {
            *b = tag[i % tag.len()];
        }
        page
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChurnWorkload::new(ChurnConfig::skewed(384, 42));
        let mut b = ChurnWorkload::new(ChurnConfig::skewed(384, 42));
        let seq_a: Vec<Lba> = (0..500).map(|_| a.next_lba()).collect();
        let seq_b: Vec<Lba> = (0..500).map(|_| b.next_lba()).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChurnWorkload::new(ChurnConfig::skewed(384, 1));
        let mut b = ChurnWorkload::new(ChurnConfig::skewed(384, 2));
        let seq_a: Vec<Lba> = (0..100).map(|_| a.next_lba()).collect();
        let seq_b: Vec<Lba> = (0..100).map(|_| b.next_lba()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn targets_stay_in_bounds_and_skew_concentrates() {
        let cfg = ChurnConfig::skewed(1000, 7);
        let mut w = ChurnWorkload::new(cfg);
        let mut hot_hits = 0u64;
        for _ in 0..10_000 {
            let lba = w.next_lba();
            assert!(lba.0 < 1000);
            if lba.0 < 200 {
                hot_hits += 1;
            }
        }
        // 80 % targeted + 20 % uniform spillover ≈ 84 % of samples.
        assert!(
            hot_hits > 7_000,
            "hot set drew only {hot_hits}/10000 overwrites"
        );
        assert_eq!(w.issued(), 10_000);
    }

    #[test]
    fn fill_sequence_covers_every_lba_once() {
        let w = ChurnWorkload::new(ChurnConfig::skewed(16, 0));
        let fill: Vec<u64> = w.fill_sequence().map(|l| l.0).collect();
        assert_eq!(fill, (0..16).collect::<Vec<_>>());
    }
}
