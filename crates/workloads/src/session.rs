//! [`EngineSession`]: one engine with the workload and client rule the
//! paper pairs it with.
//!
//! Fig 9 runs PostgreSQL under Linkbench, RocksDB under YCSB-A and the
//! single-threaded Redis under YCSB-A with one client. That pairing — which
//! generator feeds which engine, how the load phase populates it, how many
//! clients it admits — is written here once; the Fig 9/10 studies, `twob
//! ycsb`, the `kvstore_ycsb` example and every [`crate::TenantPool`] tenant
//! drive their engines through it.

use twob_db::{DbError, EngineKind, MiniPg, MiniRedis, MiniRocks};
use twob_sim::{SimRng, SimTime};
use twob_wal::{WalStats, WalWriter};

use crate::{ClientPool, LinkbenchConfig, LinkbenchWorkload, YcsbConfig, YcsbOp, YcsbWorkload};

/// An engine over any [`WalWriter`] plus its paired workload generator.
pub enum EngineSession {
    /// [`MiniPg`] under the Linkbench-like transaction mix.
    Pg(Box<MiniPg>, LinkbenchWorkload),
    /// [`MiniRocks`] under YCSB-A.
    Rocks(Box<MiniRocks>, YcsbWorkload),
    /// [`MiniRedis`] under YCSB-A.
    Redis(Box<MiniRedis>, YcsbWorkload),
}

impl EngineSession {
    /// Builds the `kind` engine logging through `wal`, with its cost preset
    /// and its workload over a `keys`-sized working set (Linkbench nodes or
    /// YCSB records; `payload_bytes` sizes the YCSB values).
    pub fn new(kind: EngineKind, wal: Box<dyn WalWriter>, keys: u64, payload_bytes: usize) -> Self {
        let ycsb = || YcsbWorkload::new(YcsbConfig::workload_a(keys, payload_bytes));
        match kind {
            EngineKind::Pg => EngineSession::Pg(
                Box::new(MiniPg::new(wal, kind.costs())),
                LinkbenchWorkload::new(LinkbenchConfig::standard(keys)),
            ),
            EngineKind::Rocks => {
                EngineSession::Rocks(Box::new(MiniRocks::new(wal, kind.costs())), ycsb())
            }
            EngineKind::Redis => {
                EngineSession::Redis(Box::new(MiniRedis::new(wal, kind.costs())), ycsb())
            }
        }
    }

    /// The client rule: how many of `requested` concurrent clients the
    /// engine admits. Redis is single-threaded and always runs one.
    pub fn clients(&self, requested: usize) -> usize {
        match self {
            EngineSession::Redis(..) => 1,
            _ => requested,
        }
    }

    /// Runs the load phase from time zero, returning its end time.
    ///
    /// # Errors
    ///
    /// Engine or WAL failures.
    pub fn load(&mut self, rng: &mut SimRng) -> Result<SimTime, DbError> {
        let mut t = SimTime::ZERO;
        match self {
            EngineSession::Pg(db, wl) => {
                for txn in wl.load_phase(rng, 2) {
                    t = db.run_txn(t, &txn)?.commit_at;
                }
            }
            EngineSession::Rocks(db, wl) => {
                for (key, value) in wl.load_phase(rng) {
                    t = db.put(t, key, value)?.commit_at;
                }
            }
            EngineSession::Redis(db, wl) => {
                for (key, value) in wl.load_phase(rng) {
                    t = db.set(t, key, value)?.commit_at;
                }
            }
        }
        Ok(t)
    }

    /// Dispatches the next workload operation at `at`, returning when the
    /// engine has finished it (CPU, in-memory apply and the WAL's commit).
    ///
    /// # Errors
    ///
    /// Engine or WAL failures.
    pub fn step(&mut self, at: SimTime, rng: &mut SimRng) -> Result<SimTime, DbError> {
        match self {
            EngineSession::Pg(db, wl) => {
                let txn = wl.next_txn(rng);
                Ok(db.run_txn(at, &txn)?.commit_at)
            }
            EngineSession::Rocks(db, wl) => Ok(match wl.next_op(rng) {
                YcsbOp::Read { key } => db.get(at, &key).0,
                YcsbOp::Update { key, value } => db.put(at, key, value)?.commit_at,
            }),
            EngineSession::Redis(db, wl) => Ok(match wl.next_op(rng) {
                YcsbOp::Read { key } => db.get(at, &key).0,
                YcsbOp::Update { key, value } => db.set(at, key, value)?.commit_at,
            }),
        }
    }

    /// The whole closed-loop run: the load phase, then `ops` operations
    /// over a [`ClientPool`] of [`EngineSession::clients`]`(slots)` slots
    /// that starts where the load ended. The returned pool carries the
    /// makespan and the steady-state throughput.
    ///
    /// # Errors
    ///
    /// Engine or WAL failures.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn run(&mut self, rng: &mut SimRng, slots: usize, ops: u64) -> Result<ClientPool, DbError> {
        let start = self.load(rng)?;
        let mut pool = ClientPool::starting_at(self.clients(slots), start);
        for _ in 0..ops {
            let (client, at) = pool.next_client();
            pool.complete(client, self.step(at, rng)?);
        }
        Ok(pool)
    }

    /// The scheme label of the WAL behind the engine.
    pub fn wal_scheme(&self) -> String {
        match self {
            EngineSession::Pg(db, _) => db.scheme(),
            EngineSession::Rocks(db, _) => db.scheme(),
            EngineSession::Redis(db, _) => db.scheme(),
        }
    }

    /// Statistics of the WAL behind the engine.
    pub fn wal_stats(&self) -> WalStats {
        match self {
            EngineSession::Pg(db, _) => db.wal_stats(),
            EngineSession::Rocks(db, _) => db.wal_stats(),
            EngineSession::Redis(db, _) => db.wal_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twob_core::TwoBSsd;
    use twob_sim::SimDuration;
    use twob_wal::{BaWal, CommitOutcome, Lsn, WalConfig, WalError};

    fn ba_session(kind: EngineKind) -> EngineSession {
        let wal = BaWal::new(TwoBSsd::small_for_tests(), WalConfig::default(), 8).expect("wal");
        EngineSession::new(kind, Box::new(wal), 50, 64)
    }

    /// A 300-op run over BA-WAL: the pool it returns and the WAL's counters.
    fn run(kind: EngineKind, seed: u64, slots: usize) -> (ClientPool, WalStats) {
        let mut session = ba_session(kind);
        let pool = session
            .run(&mut SimRng::seed_from(seed), slots, 300)
            .expect("run");
        (pool, session.wal_stats())
    }

    #[test]
    fn same_seed_runs_are_equal_for_every_kind() {
        // 32 slots: eight clients at queue depth four.
        for (kind, slots) in EngineKind::ALL.into_iter().flat_map(|k| [(k, 4), (k, 32)]) {
            let first = run(kind, 9, slots);
            assert_eq!(first, run(kind, 9, slots), "{kind} x{slots} drifted");
            assert_eq!(first.0.ops(), 300);
            assert!(
                first.0.makespan() > first.0.epoch(),
                "{kind}: the measured phase follows the load"
            );
            assert_ne!(first, run(kind, 10, slots), "{kind} ignores its seed");
        }
    }

    #[test]
    fn redis_ignores_extra_slots() {
        // Single-threaded Redis runs one client whatever the caller asks for.
        let redis = run(EngineKind::Redis, 9, 8);
        assert_eq!(redis, run(EngineKind::Redis, 9, 1));
        assert_eq!(redis.0.len(), 1);
        // The other engines take every slot, and overlap shortens the run.
        for kind in [EngineKind::Pg, EngineKind::Rocks] {
            let (one, eight) = (run(kind, 9, 1).0, run(kind, 9, 8).0);
            assert_eq!(eight.len(), 8);
            assert!(eight.makespan() < one.makespan(), "{kind}");
        }
    }

    /// A log whose device dies at a fixed instant: appends before it commit
    /// in 2 µs, appends at or after it fail.
    struct DyingWal {
        dies_at: SimTime,
        next_lsn: u64,
    }

    impl WalWriter for DyingWal {
        fn append_commit(&mut self, now: SimTime, _: &[u8]) -> Result<CommitOutcome, WalError> {
            if now >= self.dies_at {
                return Err(WalError::BadConfig("log device died".into()));
            }
            self.next_lsn += 1;
            let commit_at = now + SimDuration::from_micros(2);
            Ok(CommitOutcome {
                lsn: Lsn(self.next_lsn - 1),
                commit_at,
                durable_at: Some(commit_at),
            })
        }

        fn scheme(&self) -> String {
            "DYING".into()
        }

        fn stats(&self) -> WalStats {
            WalStats::default()
        }
    }

    #[test]
    fn wal_error_from_step_surfaces_as_err() {
        for kind in EngineKind::ALL {
            let session = |dies_at| {
                let wal = DyingWal {
                    dies_at,
                    next_lsn: 0,
                };
                EngineSession::new(kind, Box::new(wal), 50, 64)
            };
            // Learn where the load phase ends on a log that never dies, then
            // kill the log shortly after it.
            let load_end = session(SimTime::from_nanos(u64::MAX))
                .load(&mut SimRng::seed_from(3))
                .expect("healthy load");
            let mut doomed = session(load_end + SimDuration::from_micros(200));
            let mut rng = SimRng::seed_from(3);
            assert_eq!(doomed.load(&mut rng), Ok(load_end), "{kind}");
            let failure = (0..10_000).find_map(|_| {
                doomed
                    .step(load_end + SimDuration::from_millis(1), &mut rng)
                    .err()
            });
            assert!(
                matches!(failure, Some(DbError::Wal(WalError::BadConfig(_)))),
                "{kind}: {failure:?}"
            );
            // The whole-run entry point reports it the same way.
            let mut doomed = session(load_end + SimDuration::from_micros(200));
            assert!(
                matches!(
                    doomed.run(&mut SimRng::seed_from(3), 4, 10_000),
                    Err(DbError::Wal(WalError::BadConfig(_)))
                ),
                "{kind}"
            );
        }
    }
}
