//! A RocksDB-style LSM key-value mini engine.

use std::collections::BTreeMap;

use twob_sim::SimTime;
use twob_wal::{LogRecord, WalStats, WalWriter};

use crate::kvcodec::{decode_kv, encode_kv};
use crate::{DbError, EngineCosts, TxnOutcome};

/// A RocksDB-style engine: active memtable + immutable memtable + sorted
/// runs, with every write logged before it is applied (paper §IV-B).
///
/// When the active memtable exceeds its budget it becomes immutable and is
/// immediately folded into a sorted run (the paper's setup keeps user data
/// in DRAM, so SST "files" are in-memory runs and only the WAL reaches a
/// device). RocksDB's two-memtable/two-log design is what sizes each BA-WAL
/// log file at a *quarter* of the BA-buffer (§IV-B).
pub struct MiniRocks {
    memtable: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    memtable_bytes: usize,
    immutable: Option<BTreeMap<Vec<u8>, Option<Vec<u8>>>>,
    runs: Vec<BTreeMap<Vec<u8>, Option<Vec<u8>>>>,
    wal: Box<dyn WalWriter>,
    costs: EngineCosts,
    memtable_budget: usize,
    /// Compaction triggers when sorted runs exceed this count.
    max_runs: usize,
    puts: u64,
    gets: u64,
    deletes: u64,
    memtable_flushes: u64,
    compactions: u64,
}

impl std::fmt::Debug for MiniRocks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiniRocks")
            .field("memtable_keys", &self.memtable.len())
            .field("runs", &self.runs.len())
            .field("scheme", &self.wal.scheme())
            .finish()
    }
}

impl MiniRocks {
    /// Default memtable budget: 1 MiB, small enough that tests exercise
    /// rotation.
    pub const DEFAULT_MEMTABLE_BUDGET: usize = 1 << 20;

    /// Creates an engine logging through `wal`.
    pub fn new(wal: Box<dyn WalWriter>, costs: EngineCosts) -> Self {
        MiniRocks::with_memtable_budget(wal, costs, Self::DEFAULT_MEMTABLE_BUDGET)
    }

    /// Creates an engine with an explicit memtable budget in bytes.
    pub fn with_memtable_budget(
        wal: Box<dyn WalWriter>,
        costs: EngineCosts,
        memtable_budget: usize,
    ) -> Self {
        MiniRocks {
            memtable: BTreeMap::new(),
            memtable_bytes: 0,
            immutable: None,
            runs: Vec::new(),
            wal,
            costs,
            memtable_budget,
            max_runs: 4,
            puts: 0,
            gets: 0,
            deletes: 0,
            memtable_flushes: 0,
            compactions: 0,
        }
    }

    /// The logging scheme in use.
    pub fn scheme(&self) -> String {
        self.wal.scheme()
    }

    /// WAL counters.
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// `(puts, gets, deletes, memtable flushes)`.
    pub fn op_counts(&self) -> (u64, u64, u64, u64) {
        (self.puts, self.gets, self.deletes, self.memtable_flushes)
    }

    /// Number of sorted runs currently on the read path.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Compactions performed.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    fn rotate_memtable(&mut self) {
        // Fold the previous immutable memtable into a run, then freeze the
        // active one — RocksDB's "maximum of two memtables" (§IV-B).
        if let Some(imm) = self.immutable.take() {
            self.runs.push(imm);
        }
        self.immutable = Some(std::mem::take(&mut self.memtable));
        self.memtable_bytes = 0;
        self.memtable_flushes += 1;
        if self.runs.len() > self.max_runs {
            self.compact();
        }
    }

    /// Full compaction: merges every sorted run into one, newest value
    /// wins, and tombstones are purged (nothing older remains to shadow).
    fn compact(&mut self) {
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        for run in self.runs.drain(..) {
            // Later (newer) runs overwrite earlier entries.
            for (k, v) in run {
                merged.insert(k, v);
            }
        }
        merged.retain(|_, v| v.is_some());
        if !merged.is_empty() {
            self.runs.push(merged);
        }
        self.compactions += 1;
    }

    fn log_and_apply(
        &mut self,
        now: SimTime,
        key: Vec<u8>,
        value: Option<Vec<u8>>,
    ) -> Result<TxnOutcome, DbError> {
        let t = now + self.costs.txn_overhead + self.costs.write_cpu;
        let payload = encode_kv(&key, value.as_deref());
        let commit = self.wal.append_commit(t, &payload)?;
        self.memtable_bytes += key.len() + value.as_ref().map_or(0, Vec::len) + 16;
        self.memtable.insert(key, value);
        if self.memtable_bytes > self.memtable_budget {
            self.rotate_memtable();
        }
        Ok(TxnOutcome {
            commit_at: commit.commit_at,
            durable_at: commit.durable_at,
            lsn: Some(commit.lsn),
        })
    }

    /// Inserts or updates a key.
    ///
    /// # Errors
    ///
    /// WAL failures.
    pub fn put(
        &mut self,
        now: SimTime,
        key: Vec<u8>,
        value: Vec<u8>,
    ) -> Result<TxnOutcome, DbError> {
        self.puts += 1;
        self.log_and_apply(now, key, Some(value))
    }

    /// Deletes a key (a tombstone, LSM-style).
    ///
    /// # Errors
    ///
    /// WAL failures.
    pub fn delete(&mut self, now: SimTime, key: Vec<u8>) -> Result<TxnOutcome, DbError> {
        self.deletes += 1;
        self.log_and_apply(now, key, None)
    }

    /// Looks up a key: memtable, then immutable memtable, then runs newest
    /// first. Returns the completion instant and the value.
    pub fn get(&mut self, now: SimTime, key: &[u8]) -> (SimTime, Option<Vec<u8>>) {
        self.gets += 1;
        let t = now + self.costs.txn_overhead + self.costs.read_cpu;
        let lookup = self
            .memtable
            .get(key)
            .or_else(|| self.immutable.as_ref().and_then(|imm| imm.get(key)))
            .or_else(|| self.runs.iter().rev().find_map(|run| run.get(key)));
        (t, lookup.cloned().flatten())
    }

    /// Canonical 64-bit digest of the *resolved* live key space: every key
    /// visible through [`MiniRocks::get`]'s precedence (memtable, then
    /// immutable memtable, then runs newest-first), in key order, with
    /// tombstoned keys excluded. Two engines holding the same logical data
    /// digest identically even if their memtable/run layouts differ — e.g.
    /// one compacted and one not.
    pub fn state_digest(&self) -> u64 {
        let mut live: BTreeMap<&[u8], Option<&[u8]>> = BTreeMap::new();
        // Oldest runs first so later inserts overwrite with newer values,
        // mirroring read precedence in reverse.
        for run in &self.runs {
            for (k, v) in run {
                live.insert(k.as_slice(), v.as_deref());
            }
        }
        if let Some(imm) = &self.immutable {
            for (k, v) in imm {
                live.insert(k.as_slice(), v.as_deref());
            }
        }
        for (k, v) in &self.memtable {
            live.insert(k.as_slice(), v.as_deref());
        }
        let mut hash = twob_sim::fnv1a64(b"minirocks-state-v1");
        for (key, value) in live {
            let Some(value) = value else { continue };
            hash = twob_sim::fnv1a64_update(hash, &(key.len() as u32).to_le_bytes());
            hash = twob_sim::fnv1a64_update(hash, key);
            hash = twob_sim::fnv1a64_update(hash, &(value.len() as u32).to_le_bytes());
            hash = twob_sim::fnv1a64_update(hash, value);
        }
        hash
    }

    /// Replays recovered WAL records into this (fresh) engine.
    ///
    /// # Errors
    ///
    /// [`DbError::CorruptRecord`] when a payload fails to decode.
    pub fn apply_wal_records(&mut self, records: &[LogRecord]) -> Result<(), DbError> {
        for record in records {
            let (key, value) = decode_kv(&record.payload)?;
            self.memtable.insert(key, value);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twob_ssd::{Ssd, SsdConfig};
    use twob_wal::{BlockWal, CommitMode, WalConfig};

    fn engine() -> MiniRocks {
        let wal = BlockWal::new(
            Ssd::new(SsdConfig::ull_ssd().small()),
            WalConfig::default(),
            CommitMode::Sync,
        )
        .unwrap();
        MiniRocks::new(Box::new(wal), EngineCosts::rocksdb())
    }

    #[test]
    fn state_digest_is_layout_independent() {
        // Same logical data, different physical layouts: one engine takes
        // enough writes to rotate memtables and compact, the other receives
        // the final state directly. Digests must agree.
        let mut churned = MiniRocks::with_memtable_budget(
            Box::new(
                BlockWal::new(
                    Ssd::new(SsdConfig::ull_ssd().small()),
                    WalConfig::default(),
                    CommitMode::Sync,
                )
                .unwrap(),
            ),
            EngineCosts::rocksdb(),
            256,
        );
        let mut direct = engine();
        let mut t = SimTime::ZERO;
        for i in 0..40u32 {
            let key = format!("key-{:03}", i % 10).into_bytes();
            let val = format!("val-{i}").into_bytes();
            t = churned.put(t, key, val).unwrap().commit_at;
        }
        // Delete odd keys in the churned engine; never write them in the
        // direct one.
        for i in (1..10u32).step_by(2) {
            let key = format!("key-{:03}", i).into_bytes();
            t = churned.delete(t, key).unwrap().commit_at;
        }
        let mut t2 = SimTime::ZERO;
        for i in (0..10u32).step_by(2) {
            let key = format!("key-{:03}", i).into_bytes();
            let val = format!("val-{}", 30 + i).into_bytes();
            t2 = direct.put(t2, key, val).unwrap().commit_at;
        }
        assert_eq!(churned.state_digest(), direct.state_digest());
        let _ = (t, t2);
    }

    #[test]
    fn state_digest_detects_divergence() {
        let mut a = engine();
        let mut b = engine();
        a.put(SimTime::ZERO, b"k".to_vec(), b"v1".to_vec()).unwrap();
        b.put(SimTime::ZERO, b"k".to_vec(), b"v2".to_vec()).unwrap();
        assert_ne!(a.state_digest(), b.state_digest());
        assert_ne!(engine().state_digest(), a.state_digest());
    }

    #[test]
    fn put_get_round_trips() {
        let mut db = engine();
        let out = db
            .put(SimTime::ZERO, b"k1".to_vec(), b"v1".to_vec())
            .unwrap();
        let (_, v) = db.get(out.commit_at, b"k1");
        assert_eq!(v.as_deref(), Some(&b"v1"[..]));
        let (_, missing) = db.get(out.commit_at, b"nope");
        assert_eq!(missing, None);
    }

    #[test]
    fn delete_tombstones_shadow_older_values() {
        let mut db = engine();
        let mut t = SimTime::ZERO;
        t = db.put(t, b"k".to_vec(), b"old".to_vec()).unwrap().commit_at;
        t = db.delete(t, b"k".to_vec()).unwrap().commit_at;
        let (_, v) = db.get(t, b"k");
        assert_eq!(v, None);
    }

    #[test]
    fn memtable_rotation_preserves_reads() {
        let wal = BlockWal::new(
            Ssd::new(SsdConfig::ull_ssd().small()),
            WalConfig::default(),
            CommitMode::Sync,
        )
        .unwrap();
        let mut db = MiniRocks::with_memtable_budget(Box::new(wal), EngineCosts::rocksdb(), 2_000);
        let mut t = SimTime::ZERO;
        for i in 0..60u32 {
            let key = format!("key-{i:04}").into_bytes();
            t = db.put(t, key, vec![i as u8; 50]).unwrap().commit_at;
        }
        let (_, _, _, flushes) = db.op_counts();
        assert!(flushes >= 2, "memtable never rotated");
        // Old keys now live in immutable/runs; all still readable.
        for i in 0..60u32 {
            let key = format!("key-{i:04}").into_bytes();
            let (_, v) = db.get(t, &key);
            assert_eq!(v, Some(vec![i as u8; 50]), "key {i} lost in rotation");
        }
    }

    #[test]
    fn newer_runs_shadow_older_runs() {
        let wal = BlockWal::new(
            Ssd::new(SsdConfig::ull_ssd().small()),
            WalConfig::default(),
            CommitMode::Sync,
        )
        .unwrap();
        let mut db = MiniRocks::with_memtable_budget(Box::new(wal), EngineCosts::rocksdb(), 500);
        let mut t = SimTime::ZERO;
        t = db
            .put(t, b"dup".to_vec(), b"v1".to_vec())
            .unwrap()
            .commit_at;
        // Force several rotations with filler, rewriting "dup" each round.
        for round in 2..6u8 {
            for i in 0..10u32 {
                t = db
                    .put(t, format!("fill-{round}-{i}").into_bytes(), vec![0; 40])
                    .unwrap()
                    .commit_at;
            }
            t = db
                .put(t, b"dup".to_vec(), format!("v{round}").into_bytes())
                .unwrap()
                .commit_at;
        }
        let (_, v) = db.get(t, b"dup");
        assert_eq!(v.as_deref(), Some(&b"v5"[..]));
    }

    #[test]
    fn compaction_bounds_runs_and_purges_tombstones() {
        let wal = BlockWal::new(
            Ssd::new(SsdConfig::ull_ssd().small()),
            WalConfig::default(),
            CommitMode::Sync,
        )
        .unwrap();
        let mut db = MiniRocks::with_memtable_budget(Box::new(wal), EngineCosts::rocksdb(), 500);
        let mut t = SimTime::ZERO;
        // Heavy churn forcing many rotations (and therefore compactions).
        for round in 0..20u8 {
            for i in 0..8u32 {
                t = db
                    .put(t, format!("key-{i}").into_bytes(), vec![round; 40])
                    .unwrap()
                    .commit_at;
            }
            t = db
                .delete(t, format!("key-{}", round % 8).into_bytes())
                .unwrap()
                .commit_at;
        }
        assert!(db.compactions() > 0, "compaction never ran");
        assert!(db.run_count() <= 5, "runs unbounded: {}", db.run_count());
        // Reads remain correct through compaction: last round wrote 19s,
        // then deleted key-3 (19 % 8 == 3).
        let (_, v) = db.get(t, b"key-5");
        assert_eq!(v, Some(vec![19u8; 40]));
        let (_, gone) = db.get(t, b"key-3");
        assert_eq!(gone, None);
    }

    #[test]
    fn recovery_from_wal_records() {
        let cfg = WalConfig::default();
        let mut wal = BlockWal::new(
            Ssd::new(SsdConfig::ull_ssd().small()),
            cfg,
            CommitMode::Sync,
        )
        .unwrap();
        let mut t = SimTime::ZERO;
        for i in 0..20u32 {
            let payload = encode_kv(format!("k{i}").as_bytes(), Some(&[i as u8; 10]));
            t = wal.append_commit(t, &payload).unwrap().commit_at;
        }
        let payload = encode_kv(b"k3", None);
        t = wal.append_commit(t, &payload).unwrap().commit_at;
        let mut dev = wal.into_device();
        let replayed =
            twob_wal::replay(&mut dev, t, cfg.region_base_lba, cfg.region_pages).unwrap();
        let mut db = engine();
        db.apply_wal_records(&replayed.records).unwrap();
        let (_, v) = db.get(t, b"k7");
        assert_eq!(v, Some(vec![7u8; 10]));
        let (_, gone) = db.get(t, b"k3");
        assert_eq!(gone, None);
    }
}
