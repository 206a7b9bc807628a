//! YCSB-style key-value workloads with Zipfian skew.

use serde::{Deserialize, Serialize};
use twob_sim::{SimRng, Zipfian};

/// YCSB workload parameters: workload A, the mix the paper runs against
/// RocksDB and Redis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct YcsbConfig {
    /// Number of records in the keyspace.
    pub records: u64,
    /// Value size per operation — the "payload size" axis of paper Fig 9.
    pub payload_bytes: usize,
}

impl YcsbConfig {
    /// Fraction of reads, the rest being updates: workload A's 50/50 —
    /// "write-heavy".
    pub const READ_FRACTION: f64 = 0.5;

    /// Zipfian exponent (the YCSB default).
    const THETA: f64 = 0.99;

    /// Workload A over `records` keys with `payload_bytes` values.
    pub fn workload_a(records: u64, payload_bytes: usize) -> Self {
        YcsbConfig {
            records,
            payload_bytes,
        }
    }
}

/// One YCSB operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum YcsbOp {
    /// Read the record at `key`.
    Read {
        /// The record key (`user<rank>`).
        key: Vec<u8>,
    },
    /// Overwrite the record at `key` with `value`.
    Update {
        /// The record key.
        key: Vec<u8>,
        /// The new value, `payload_bytes` long.
        value: Vec<u8>,
    },
}

impl YcsbOp {
    /// Whether the op writes.
    pub fn is_update(&self) -> bool {
        matches!(self, YcsbOp::Update { .. })
    }

    /// The op's key.
    pub fn key(&self) -> &[u8] {
        match self {
            YcsbOp::Read { key } | YcsbOp::Update { key, .. } => key,
        }
    }
}

/// Generates YCSB operations.
#[derive(Debug, Clone)]
pub struct YcsbWorkload {
    cfg: YcsbConfig,
    zipf: Zipfian,
}

impl YcsbWorkload {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if `records` is 0.
    pub fn new(cfg: YcsbConfig) -> Self {
        YcsbWorkload {
            zipf: Zipfian::new(cfg.records, YcsbConfig::THETA),
            cfg,
        }
    }

    /// The configured parameters.
    pub fn config(&self) -> &YcsbConfig {
        &self.cfg
    }

    /// The key string for a rank, YCSB-style (see [`crate::gen::key_for`]).
    pub fn key_for(rank: u64) -> Vec<u8> {
        crate::gen::key_for(rank)
    }

    /// Keys and values for the load phase, one per record.
    pub fn load_phase(&self, rng: &mut SimRng) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..self.cfg.records)
            .map(|rank| {
                (
                    crate::gen::key_for(rank),
                    crate::gen::payload(rng, self.cfg.payload_bytes),
                )
            })
            .collect()
    }

    /// Draws the next operation.
    pub fn next_op(&mut self, rng: &mut SimRng) -> YcsbOp {
        let key = crate::gen::zipf_key(&self.zipf, rng);
        if rng.chance(YcsbConfig::READ_FRACTION) {
            YcsbOp::Read { key }
        } else {
            YcsbOp::Update {
                key,
                value: crate::gen::payload(rng, self.cfg.payload_bytes),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_a_is_half_updates() {
        let mut rng = SimRng::seed_from(2);
        let mut wl = YcsbWorkload::new(YcsbConfig::workload_a(1_000, 100));
        let n = 10_000;
        let updates = (0..n).filter(|_| wl.next_op(&mut rng).is_update()).count();
        let fraction = updates as f64 / n as f64;
        assert!(
            (0.47..0.53).contains(&fraction),
            "update fraction {fraction}"
        );
    }

    #[test]
    fn updates_carry_exact_payload() {
        let mut rng = SimRng::seed_from(4);
        let mut wl = YcsbWorkload::new(YcsbConfig::workload_a(100, 777));
        for _ in 0..100 {
            if let YcsbOp::Update { value, .. } = wl.next_op(&mut rng) {
                assert_eq!(value.len(), 777);
                return;
            }
        }
        panic!("no update drawn in 100 ops");
    }

    #[test]
    fn keys_are_skewed() {
        let mut rng = SimRng::seed_from(6);
        let mut wl = YcsbWorkload::new(YcsbConfig::workload_a(10_000, 64));
        let hot_key = YcsbWorkload::key_for(0);
        let hits = (0..10_000)
            .filter(|_| wl.next_op(&mut rng).key() == hot_key.as_slice())
            .count();
        // Under uniform access the top key would get ~1 hit in 10k.
        assert!(hits > 100, "hot key hit only {hits} times");
    }

    #[test]
    fn load_phase_covers_keyspace() {
        let mut rng = SimRng::seed_from(7);
        let wl = YcsbWorkload::new(YcsbConfig::workload_a(50, 32));
        let rows = wl.load_phase(&mut rng);
        assert_eq!(rows.len(), 50);
        assert_eq!(rows[49].0, YcsbWorkload::key_for(49));
        assert!(rows.iter().all(|(_, v)| v.len() == 32));
    }
}
