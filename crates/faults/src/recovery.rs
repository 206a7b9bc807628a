//! The post-cut recovery check, written once.
//!
//! Three places cut power and then prove the paper's claim that a synced
//! byte survives: the fault harness ([`run_schedule`](crate::run_schedule)),
//! replica-set failover (`twob_repl::run_failover`) and the fleet
//! (`twob_repl::Fleet`). They share these steps:
//!
//! 1. [`CutWal::recover`] cuts power, restarts and reads a WAL back. For
//!    BA-WAL that is dump → restore → region replay ++ `recover_buffered`,
//!    for a block WAL power loss → region replay. [`check_log_prefix`]
//!    then puts what came back in canonical order.
//! 2. [`golden_rerun`] replays the recovered prefix into a fresh engine and
//!    compares it with a golden re-run of the same op-stream prefix.
//! 3. [`promote`] picks the most caught-up holder of a replicated log and
//!    names every holder that is not a byte-identical prefix of it.
//! 4. [`for_each_plan`] is the seeded plan loop every sweep cycles.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use twob_core::{DumpOutcome, RecoveryReport, TwoBSsd};
use twob_db::{DbError, EngineKind};
use twob_sim::SimTime;
use twob_ssd::{Ssd, SsdConfig};
use twob_wal::{
    replay, BaWal, BlockWal, CommitMode, CommitOutcome, CursorBatch, LogRecord, Lsn, WalConfig,
    WalError, WalStats, WalTail, WalWriter,
};

use crate::device::{FaultyLogDevice, FlushFaults};
use crate::harness::{Engine, Workload, T0};

/// A WAL a power cut can reach. An engine logs through one clone (a
/// `CutWal` is a [`WalWriter`]); the caller keeps another to cut power and
/// read the log back once the engine is gone.
///
/// The whole stack is single-threaded virtual time, so `Rc<RefCell<_>>` is
/// sufficient; a borrow panic would indicate a genuine reentrancy bug.
#[derive(Clone)]
pub struct CutWal(Rc<RefCell<Log>>);

/// The two logs a [`CutWal`] holds. Both write the default [`WalConfig`]
/// region, which is where the read-back looks.
// One per WAL, already behind an `Rc`: the variants' sizes cost nothing.
#[allow(clippy::large_enum_variant)]
enum Log {
    Ba(BaWal),
    Block(BlockWal<FaultyLogDevice<Ssd>>),
}

/// What a power cycle did to a 2B-SSD: the capacitor dump at the cut and
/// the restore at restart.
pub(crate) struct BaCycle {
    pub(crate) dump: DumpOutcome,
    pub(crate) restore: RecoveryReport,
}

impl BaCycle {
    /// Cuts `dev`'s power at `cut_at` and powers it on at `recover_at`.
    pub(crate) fn run(dev: &mut TwoBSsd, cut_at: SimTime, recover_at: SimTime) -> BaCycle {
        BaCycle {
            dump: dev.power_loss(cut_at),
            restore: dev.power_on(recover_at),
        }
    }

    /// `Ok` when the BA-buffer came back: the dump fit the energy budget
    /// and the restore found it; else the violation, naming the step.
    pub(crate) fn check(&self) -> Result<(), String> {
        if !self.dump.dumped {
            return Err(format!("capacitor dump failed: {:?}", self.dump.reason));
        }
        if !self.restore.restored {
            return Err("restore found no valid dump".into());
        }
        Ok(())
    }
}

impl CutWal {
    /// A BA-WAL over `dev`, double-buffered in two 4-page halves.
    ///
    /// # Errors
    ///
    /// The WAL's setup error (a pin the device refuses).
    pub fn ba(dev: TwoBSsd) -> Result<CutWal, WalError> {
        let wal = BaWal::new(dev, WalConfig::default(), 4)?;
        Ok(CutWal(Rc::new(RefCell::new(Log::Ba(wal)))))
    }

    /// A block WAL committing in `mode` over `ssd`, behind the flush-fault
    /// interposer (which passes everything through until a fault is
    /// armed), and the handle that arms the faults.
    ///
    /// # Errors
    ///
    /// The WAL's setup error.
    pub fn block(ssd: Ssd, mode: CommitMode) -> Result<(CutWal, FlushFaults), WalError> {
        let (dev, faults) = FaultyLogDevice::new(ssd);
        let wal = BlockWal::new(dev, WalConfig::default(), mode)?;
        Ok((CutWal(Rc::new(RefCell::new(Log::Block(wal)))), faults))
    }

    /// Runs `f` on a BA-WAL's 2B-SSD, for checks only that device has;
    /// `None` for a block WAL.
    pub(crate) fn ba_device<R>(&self, f: impl FnOnce(&mut TwoBSsd) -> R) -> Option<R> {
        match &mut *self.0.borrow_mut() {
            Log::Ba(w) => Some(f(w.device_mut())),
            Log::Block(_) => None,
        }
    }

    /// Cuts power at `cut_at`, restarts at `recover_at` and reads the log
    /// back: the region replayed from the medium, then for BA-WAL the
    /// restored buffer's tail, not yet in canonical order
    /// ([`check_log_prefix`]). A conventional SSD loses what its volatile
    /// cache had not destaged; a 2B-SSD must dump its BA-buffer within the
    /// capacitors' energy budget and find the dump at restart.
    ///
    /// # Errors
    ///
    /// The violation: a failed dump or restore, or a failed read-back.
    pub fn recover(&self, cut_at: SimTime, recover_at: SimTime) -> Result<Vec<LogRecord>, String> {
        match &mut *self.0.borrow_mut() {
            Log::Ba(w) => BaCycle::run(w.device_mut(), cut_at, recover_at).check()?,
            Log::Block(w) => {
                let ssd = w.device_mut().inner_mut();
                ssd.power_loss(cut_at);
                ssd.power_on(recover_at);
            }
        }
        self.read_back(recover_at)
    }

    /// The read-back half of [`CutWal::recover`], for a caller that checks
    /// the device between restart and read-back; errors name the read
    /// that failed.
    pub(crate) fn read_back(&self, recover_at: SimTime) -> Result<Vec<LogRecord>, String> {
        let cfg = WalConfig::default();
        let (base, pages) = (cfg.region_base_lba, cfg.region_pages);
        let (replayed, buffered) = match &mut *self.0.borrow_mut() {
            Log::Ba(w) => {
                let buffered = w
                    .recover_buffered(recover_at)
                    .map_err(|e| format!("recover_buffered failed: {e:?}"))?;
                (replay(w.device_mut(), recover_at, base, pages), buffered)
            }
            Log::Block(w) => (replay(w.device_mut(), recover_at, base, pages), Vec::new()),
        };
        let mut records = replayed
            .map_err(|e| format!("replay failed: {e:?}"))?
            .records;
        records.extend(buffered);
        Ok(records)
    }
}

impl WalWriter for CutWal {
    fn append_commit(&mut self, now: SimTime, payload: &[u8]) -> Result<CommitOutcome, WalError> {
        match &mut *self.0.borrow_mut() {
            Log::Ba(w) => w.append_commit(now, payload),
            Log::Block(w) => w.append_commit(now, payload),
        }
    }

    fn append_batch(
        &mut self,
        now: SimTime,
        payloads: &[Vec<u8>],
    ) -> Result<CommitOutcome, WalError> {
        match &mut *self.0.borrow_mut() {
            Log::Ba(w) => w.append_batch(now, payloads),
            Log::Block(w) => w.append_batch(now, payloads),
        }
    }

    fn scheme(&self) -> String {
        match &*self.0.borrow() {
            Log::Ba(w) => w.scheme(),
            Log::Block(w) => w.scheme(),
        }
    }

    fn stats(&self) -> WalStats {
        match &*self.0.borrow() {
            Log::Ba(w) => w.stats(),
            Log::Block(w) => w.stats(),
        }
    }
}

impl WalTail for CutWal {
    fn read_tail(&mut self, now: SimTime, from: Lsn) -> Result<CursorBatch, WalError> {
        match &mut *self.0.borrow_mut() {
            Log::Ba(w) => w.read_tail(now, from),
            Log::Block(w) => w.read_tail(now, from),
        }
    }
}

/// Checks that a set of recovered records forms a consistent log prefix and
/// returns it in canonical (LSN-sorted, deduplicated) order.
///
/// The rules, shared by the sweep harness, failover and the torn-tail
/// replay tests:
///
/// - Duplicate LSNs are tolerated (a record can be recovered both from a
///   NAND segment and from the restored BA-buffer) but must carry
///   byte-identical payloads.
/// - After deduplication the LSNs must be dense from 0: a torn tail may
///   truncate the log, but never punch a hole in the middle of it.
///
/// # Errors
///
/// The violation: two payloads for one LSN, or a hole.
pub fn check_log_prefix(recovered: &[LogRecord]) -> Result<Vec<LogRecord>, String> {
    let mut by_lsn: BTreeMap<u64, &[u8]> = BTreeMap::new();
    for rec in recovered {
        if let Some(existing) = by_lsn.get(&rec.lsn.0) {
            if *existing != rec.payload.as_slice() {
                return Err(format!("two different payloads recovered for {}", rec.lsn));
            }
        } else {
            by_lsn.insert(rec.lsn.0, &rec.payload);
        }
    }
    for (expect, have) in by_lsn.keys().enumerate() {
        if expect as u64 != *have {
            return Err(format!(
                "hole in recovered log: expected lsn:{expect}, found lsn:{have}"
            ));
        }
    }
    Ok(by_lsn
        .into_iter()
        .map(|(lsn, payload)| LogRecord::new(Lsn(lsn), payload.to_vec()))
        .collect())
}

/// A WAL for engines whose log is never read back (golden re-runs): a plain
/// block WAL over a fresh in-memory device.
pub fn throwaway_wal() -> Box<dyn WalWriter> {
    let wal = BlockWal::new(
        Ssd::new(SsdConfig::ull_ssd().small()),
        WalConfig::default(),
        CommitMode::Async,
    )
    .expect("default WAL config is valid");
    Box::new(wal)
}

/// Why a recovered prefix failed [`golden_rerun`].
#[derive(Debug, Clone, PartialEq)]
pub enum GoldenMiss {
    /// A recovered record did not apply to the fresh engine.
    Apply(DbError),
    /// The golden re-run's commit at this stream index failed.
    Rerun(usize, DbError),
    /// The two engines' state digests differ.
    Diverged {
        /// Digest of the engine that applied the recovered records.
        recovered: u64,
        /// Digest of the golden re-run.
        golden: u64,
    },
}

/// Replays `records` (a canonical prefix, LSN *n* at index *n*) into a
/// fresh `engine` and re-runs the first `records.len()` commits of
/// `workload` on another; the recovered state must be the golden one.
///
/// # Errors
///
/// The first step that failed, or the two digests when they differ.
pub fn golden_rerun(
    engine: EngineKind,
    workload: &Workload,
    records: &[LogRecord],
) -> Result<u64, GoldenMiss> {
    let mut rebuilt = Engine::build(engine, throwaway_wal());
    rebuilt.apply_records(records).map_err(GoldenMiss::Apply)?;
    let mut golden = Engine::build(engine, throwaway_wal());
    let mut t = T0;
    for idx in 0..records.len() {
        t = golden
            .commit(t, workload, idx)
            .map_err(|e| GoldenMiss::Rerun(idx, e))?
            .commit_at;
    }
    let (recovered, golden) = (rebuilt.state_digest(), golden.state_digest());
    if recovered == golden {
        Ok(recovered)
    } else {
        Err(GoldenMiss::Diverged { recovered, golden })
    }
}

/// The promotion rule applied to the eligible holders of one replicated
/// log after a cut.
#[derive(Debug)]
pub struct Promotion<'a> {
    /// Id of the promoted holder: the longest log, ties to the lowest id.
    pub leader: usize,
    /// The promoted holder's log.
    pub log: &'a [LogRecord],
    /// `(id, index)` of every holder whose log is not a byte-identical
    /// prefix of the promoted one, with the first index where they part.
    pub diverged: Vec<(usize, usize)>,
}

/// Promotes the most caught-up of `holders` (`(id, canonical log)` pairs),
/// ties going to the lowest id, and checks every holder against it.
/// `None` when there is no holder. What was acknowledged is the caller's
/// to check against [`Promotion::log`].
pub fn promote<'a>(
    holders: impl IntoIterator<Item = (usize, &'a [LogRecord])>,
) -> Option<Promotion<'a>> {
    let holders: Vec<(usize, &[LogRecord])> = holders.into_iter().collect();
    let &(leader, log) = holders
        .iter()
        .max_by(|(a, la), (b, lb)| la.len().cmp(&lb.len()).then(b.cmp(a)))?;
    // No holder is longer than the leader, so a prefix fails only by
    // differing somewhere inside it.
    let diverged = holders
        .iter()
        .filter_map(|&(id, recs)| {
            let at = recs.iter().zip(log).position(|(a, b)| a != b)?;
            Some((id, at))
        })
        .collect();
    Some(Promotion {
        leader,
        log,
        diverged,
    })
}

/// The seeded plan loop every sweep runs: `plans` runs cycling every
/// engine × `schemes` combination (engine-major), run `i` handed a plan
/// seed mixed from `seed` and `i`. The same `(plans, seed)` pair always
/// replays the same runs.
pub fn for_each_plan<S: Copy>(
    plans: u64,
    seed: u64,
    schemes: &[S],
    mut run: impl FnMut(EngineKind, S, u64),
) {
    let combos: Vec<(EngineKind, S)> = EngineKind::ALL
        .iter()
        .flat_map(|&e| schemes.iter().map(move |&s| (e, s)))
        .collect();
    for i in 0..plans {
        let (engine, scheme) = combos[(i % combos.len() as u64) as usize];
        let plan_seed = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(i.wrapping_mul(0x2545_f491_4f6c_dd1d));
        run(engine, scheme, plan_seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(payloads: &[&str]) -> Vec<LogRecord> {
        payloads
            .iter()
            .enumerate()
            .map(|(i, p)| LogRecord::new(Lsn(i as u64), p.as_bytes().to_vec()))
            .collect()
    }

    fn holders(logs: &[(usize, Vec<LogRecord>)]) -> impl Iterator<Item = (usize, &[LogRecord])> {
        logs.iter().map(|(id, recs)| (*id, &recs[..]))
    }

    #[test]
    fn the_longest_log_is_promoted_and_prefixes_pass() {
        let logs = vec![
            (0, log(&["a", "b"])),
            (1, log(&["a", "b", "c"])),
            (2, log(&[])),
        ];
        let p = promote(holders(&logs)).unwrap();
        assert_eq!(p.leader, 1);
        assert_eq!(p.log, &logs[1].1[..]);
        assert!(p.diverged.is_empty());
    }

    #[test]
    fn two_equally_long_holders_promote_the_lowest_id() {
        let logs = vec![
            (4, log(&["a", "b"])),
            (2, log(&["a", "b"])),
            (3, log(&["a"])),
        ];
        assert_eq!(promote(holders(&logs)).unwrap().leader, 2);
        let reversed: Vec<_> = logs.into_iter().rev().collect();
        assert_eq!(promote(holders(&reversed)).unwrap().leader, 2);
    }

    #[test]
    fn a_diverging_holder_is_named_with_the_first_index_it_differs_at() {
        let logs = vec![
            (0, log(&["a", "b", "c"])),
            (1, log(&["a", "x"])),
            (2, log(&["a", "b"])),
        ];
        let p = promote(holders(&logs)).unwrap();
        assert_eq!(p.leader, 0);
        assert_eq!(p.diverged, vec![(1, 1)]);
        // A tie the lower id wins makes the other equally long log the
        // diverging one.
        let tie = vec![(5, log(&["a", "y"])), (3, log(&["a", "b"]))];
        let p = promote(holders(&tie)).unwrap();
        assert_eq!((p.leader, p.diverged), (3, vec![(5, 1)]));
    }

    #[test]
    fn no_holder_promotes_nobody() {
        assert!(promote(std::iter::empty()).is_none());
    }

    #[test]
    fn golden_rerun_accepts_the_true_prefix_and_names_a_doctored_one() {
        let workload = Workload::from_seed(EngineKind::Rocks, 3, 6);
        let ssd = Ssd::new(SsdConfig::dc_ssd().small());
        let (mut cut, _faults) = CutWal::block(ssd, CommitMode::Sync).unwrap();
        let mut eng = Engine::build(EngineKind::Rocks, Box::new(cut.clone()));
        let mut t = T0;
        for idx in 0..workload.len() {
            t = eng.commit(t, &workload, idx).unwrap().commit_at;
        }
        let records = cut.read_tail(t, Lsn(0)).unwrap().records;
        assert_eq!(records.len(), workload.len());
        assert_eq!(
            golden_rerun(EngineKind::Rocks, &workload, &records),
            Ok(eng.state_digest())
        );
        // Dropping the last record still matches the shorter re-run.
        let short = &records[..records.len() - 1];
        assert!(golden_rerun(EngineKind::Rocks, &workload, short).is_ok());
        // A log that repeats its first record everywhere diverges.
        let doctored: Vec<LogRecord> = (0..records.len())
            .map(|i| LogRecord::new(Lsn(i as u64), records[0].payload.clone()))
            .collect();
        match golden_rerun(EngineKind::Rocks, &workload, &doctored) {
            Err(GoldenMiss::Diverged { recovered, golden }) => assert_ne!(recovered, golden),
            other => panic!("expected a divergence, got {other:?}"),
        }
    }

    #[test]
    fn a_block_wal_reads_back_its_synced_records_after_a_cut() {
        let ssd = Ssd::new(SsdConfig::dc_ssd().small());
        let (mut cut, _faults) = CutWal::block(ssd, CommitMode::Sync).unwrap();
        let mut t = T0;
        for i in 0..5u8 {
            t = cut.append_commit(t, &[i; 16]).unwrap().commit_at;
        }
        let records = cut.recover(t, t + crate::RESTART_DELAY).unwrap();
        let prefix = check_log_prefix(&records).unwrap();
        assert_eq!(prefix.len(), 5);
        assert_eq!(prefix[4].payload, vec![4u8; 16]);
    }

    #[test]
    fn cut_wal_reaches_device_behind_trait_object() {
        let ssd = Ssd::new(SsdConfig::dc_ssd().small());
        let (cut, _faults) = CutWal::block(ssd, CommitMode::Sync).unwrap();
        let mut boxed: Box<dyn WalWriter> = Box::new(cut.clone());
        let out = boxed.append_commit(SimTime::ZERO, b"payload").unwrap();
        assert!(out.durable_at.is_some());
        // The caller-side clone still reaches the concrete WAL.
        assert_eq!(cut.stats().commits, 1);
        assert!(cut.scheme().starts_with("SYNC-WAL"), "{}", cut.scheme());
        assert!(cut.ba_device(|_| ()).is_none());
    }

    #[test]
    fn the_plan_loop_cycles_engine_major_with_mixed_seeds() {
        let mut seen = Vec::new();
        for_each_plan(5, 7, &['x', 'y'], |e, s, seed| seen.push((e, s, seed)));
        let kinds: Vec<_> = seen.iter().map(|&(e, s, _)| (e, s)).collect();
        assert_eq!(
            kinds,
            vec![
                (EngineKind::ALL[0], 'x'),
                (EngineKind::ALL[0], 'y'),
                (EngineKind::ALL[1], 'x'),
                (EngineKind::ALL[1], 'y'),
                (EngineKind::ALL[2], 'x'),
            ]
        );
        assert_eq!(seen[0].2, 7u64.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        assert_eq!(
            seen[1].2,
            seen[0].2.wrapping_add(0x2545_f491_4f6c_dd1d),
            "run i adds i times the second constant"
        );
    }
}
