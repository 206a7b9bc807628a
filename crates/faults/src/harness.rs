//! The crash-consistency harness: run a workload, cut power at an arbitrary
//! virtual instant, restart the stack, and check the recovery invariants.

use std::fmt;

use twob_core::TwoBSpec;
use twob_core::TwoBSsd;
use twob_db::{DbError, EngineCosts, EngineKind, MiniPg, MiniRedis, MiniRocks, PgOp, TxnOutcome};
use twob_nand::{BitErrorModel, EccConfig};
use twob_sim::{SimDuration, SimRng, SimTime};
use twob_ssd::{ErrorInjection, Ssd, SsdConfig};
use twob_wal::{CommitMode, LogRecord, Lsn, WalError, WalWriter};

use crate::device::FlushFaults;
use crate::plan::FaultPlan;
use crate::recovery::{check_log_prefix, for_each_plan, golden_rerun, BaCycle, CutWal, GoldenMiss};

/// Which commit scheme backs the engine's WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Conventional block WAL, synchronous commit (write + flush per commit).
    BlockSync,
    /// Conventional block WAL, asynchronous commit (risk window).
    BlockAsync,
    /// BA-WAL on the 2B-SSD byte path (`BA_SYNC` per commit).
    Ba,
}

impl SchemeKind {
    /// Every scheme, in sweep order.
    pub const ALL: [SchemeKind; 3] = [
        SchemeKind::BlockSync,
        SchemeKind::BlockAsync,
        SchemeKind::Ba,
    ];
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemeKind::BlockSync => write!(f, "block-sync"),
            SchemeKind::BlockAsync => write!(f, "block-async"),
            SchemeKind::Ba => write!(f, "ba"),
        }
    }
}

/// The deterministic operation stream a schedule commits before the cut.
///
/// Every commit logs exactly one WAL record, so LSN *n* corresponds to
/// stream index *n* — the property the golden-replay check relies on.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Key-value ops for MiniRocks / MiniRedis: `(key, Some(value))` is a
    /// put/set, `(key, None)` a delete.
    Kv(Vec<(Vec<u8>, Option<Vec<u8>>)>),
    /// Write-only transactions for MiniPg.
    Pg(Vec<Vec<PgOp>>),
}

impl Workload {
    /// Generates the op stream for `engine` under `plan`, deterministically
    /// from the plan's seed.
    pub fn generate(engine: EngineKind, plan: &FaultPlan) -> Workload {
        Workload::from_seed(engine, plan.seed, plan.commits)
    }

    /// Generates a `commits`-long op stream for `engine` directly from a
    /// seed — the form the replication layer uses, where the commit count
    /// comes from a replication plan rather than a [`FaultPlan`].
    pub fn from_seed(engine: EngineKind, seed: u64, commits: u64) -> Workload {
        let mut rng = SimRng::seed_from(seed ^ 0x0b5e_55ed_0b5e_55ed);
        match engine {
            EngineKind::Rocks | EngineKind::Redis => {
                let ops = (0..commits)
                    .map(|_| {
                        let key = format!("key-{:02}", rng.next_u64_below(20)).into_bytes();
                        let value = if rng.chance(0.2) {
                            None
                        } else {
                            let len = 8 + rng.next_u64_below(64) as usize;
                            let mut v = vec![0u8; len];
                            rng.fill_bytes(&mut v);
                            Some(v)
                        };
                        (key, value)
                    })
                    .collect();
                Workload::Kv(ops)
            }
            EngineKind::Pg => {
                let txns = (0..commits)
                    .map(|_| {
                        let n = 1 + rng.next_u64_below(3);
                        (0..n).map(|_| random_pg_op(&mut rng)).collect()
                    })
                    .collect();
                Workload::Pg(txns)
            }
        }
    }

    /// Number of commits in the stream.
    pub fn len(&self) -> usize {
        match self {
            Workload::Kv(ops) => ops.len(),
            Workload::Pg(txns) => txns.len(),
        }
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn random_pg_op(rng: &mut SimRng) -> PgOp {
    let id = rng.next_u64_below(12);
    let to = rng.next_u64_below(12);
    let mut data = vec![0u8; 4 + rng.next_u64_below(32) as usize];
    rng.fill_bytes(&mut data);
    match rng.next_u64_below(5) {
        0 => PgOp::InsertNode { id, data },
        1 => PgOp::UpdateNode { id, data },
        2 => PgOp::DeleteNode { id },
        3 => PgOp::AddLink { from: id, to, data },
        _ => PgOp::DeleteLink { from: id, to },
    }
}

/// An engine of any kind behind one interface, so drive/verify logic — and
/// the replication layer's primary/replica nodes — are written once.
pub enum Engine {
    /// A [`MiniPg`] instance.
    Pg(MiniPg),
    /// A [`MiniRocks`] instance.
    Rocks(MiniRocks),
    /// A [`MiniRedis`] instance.
    Redis(MiniRedis),
}

impl Engine {
    /// Creates an engine of `kind` logging through `wal`.
    ///
    /// Every kind is priced with `EngineCosts::default()`, which are
    /// PostgreSQL's CPU costs, while `twob_workloads::EngineSession`
    /// charges [`EngineKind::costs`]: a Rocks or Redis engine here, and in
    /// the replication layer built on this type, pays Postgres CPU per
    /// operation. This is a known disagreement between the two price
    /// lists; aligning it moves the replication sweeps' bytes, so it waits
    /// for a change that regenerates them.
    pub fn build(kind: EngineKind, wal: Box<dyn WalWriter>) -> Engine {
        let costs = EngineCosts::default();
        match kind {
            EngineKind::Pg => Engine::Pg(MiniPg::new(wal, costs)),
            EngineKind::Rocks => Engine::Rocks(MiniRocks::new(wal, costs)),
            EngineKind::Redis => Engine::Redis(MiniRedis::new(wal, costs)),
        }
    }

    /// Issues commit `idx` of `workload` at `now`.
    ///
    /// # Errors
    ///
    /// Propagates the engine's [`DbError`] (WAL append failure, oversized
    /// record, ...) without issuing the commit.
    ///
    /// # Panics
    ///
    /// Panics if the workload kind does not match the engine kind.
    pub fn commit(
        &mut self,
        now: SimTime,
        workload: &Workload,
        idx: usize,
    ) -> Result<TxnOutcome, DbError> {
        match (self, workload) {
            (Engine::Pg(pg), Workload::Pg(txns)) => pg.run_txn(now, &txns[idx]),
            (Engine::Rocks(db), Workload::Kv(ops)) => match &ops[idx] {
                (key, Some(value)) => db.put(now, key.clone(), value.clone()),
                (key, None) => db.delete(now, key.clone()),
            },
            (Engine::Redis(db), Workload::Kv(ops)) => match &ops[idx] {
                (key, Some(value)) => db.set(now, key.clone(), value.clone()),
                (key, None) => db.del(now, key.clone()),
            },
            _ => unreachable!("workload kind always matches engine kind"),
        }
    }

    /// Replays recovered (or shipped) WAL records into this engine.
    ///
    /// # Errors
    ///
    /// [`DbError::CorruptRecord`] when a payload fails to decode.
    pub fn apply_records(&mut self, records: &[LogRecord]) -> Result<(), DbError> {
        match self {
            Engine::Pg(pg) => pg.apply_wal_records(records),
            Engine::Rocks(db) => db.apply_wal_records(records),
            Engine::Redis(db) => db.apply_wal_records(records),
        }
    }

    /// The engine's canonical order-independent state digest — byte-equal
    /// across two engines iff their live user-visible state is identical.
    pub fn state_digest(&self) -> u64 {
        match self {
            Engine::Pg(pg) => pg.state_digest(),
            Engine::Rocks(db) => db.state_digest(),
            Engine::Redis(db) => db.state_digest(),
        }
    }
}

/// One commit as the application observed it: what recovery must honour.
#[derive(Debug, Clone, Copy)]
struct IssuedCommit {
    lsn: Option<Lsn>,
    durable_at: Option<SimTime>,
}

/// The verdict on one fault schedule.
#[derive(Debug, Clone)]
pub struct ScheduleReport {
    /// Engine driven.
    pub engine: EngineKind,
    /// WAL scheme used.
    pub scheme: SchemeKind,
    /// The plan that was executed.
    pub plan: FaultPlan,
    /// Commits acknowledged before the cut.
    pub commits_issued: u64,
    /// Commits whose durability point preceded the cut (must recover).
    pub required_durable: u64,
    /// Log records recovered after restart.
    pub recovered_records: u64,
    /// `true` when the schedule intentionally broke the energy budget and
    /// the device *detected* the loss (the weak-capacitor invariant).
    pub detected_loss: bool,
    /// Invariant violations, empty on a clean pass.
    pub violations: Vec<String>,
}

impl ScheduleReport {
    fn new(engine: EngineKind, scheme: SchemeKind, plan: &FaultPlan) -> Self {
        ScheduleReport {
            engine,
            scheme,
            plan: plan.clone(),
            commits_issued: 0,
            required_durable: 0,
            recovered_records: 0,
            detected_loss: false,
            violations: Vec::new(),
        }
    }

    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

fn error_injection(plan: &FaultPlan) -> Option<ErrorInjection> {
    plan.nand_rber.map(|rber| ErrorInjection {
        ecc: EccConfig::default(),
        model: BitErrorModel {
            base_rber: rber,
            rber_per_pe_cycle: 0.0,
        },
        seed: plan.seed,
    })
}

/// Time given to a restarted node before recovery reads begin.
pub const RESTART_DELAY: SimDuration = SimDuration::from_millis(5);

/// Start instant of every fault schedule and replication run: past the
/// WALs' initial pins.
pub const T0: SimTime = SimTime::from_nanos(1_000_000);

/// Runs one deterministic fault schedule end to end and checks every
/// recovery invariant. Never panics on invariant failure — failures come
/// back as [`ScheduleReport::violations`] so a sweep can aggregate them.
pub fn run_schedule(engine: EngineKind, scheme: SchemeKind, plan: &FaultPlan) -> ScheduleReport {
    let mut report = ScheduleReport::new(engine, scheme, plan);
    let workload = Workload::generate(engine, plan);
    let (log, faults) = match build_wal(scheme, plan) {
        Ok(built) => built,
        Err(e) => {
            report.violations.push(format!("wal setup failed: {e:?}"));
            return report;
        }
    };
    let mut eng = Engine::build(engine, Box::new(log.clone()));
    let (issued, cut_at) = drive(&mut eng, &workload, plan, faults.as_ref(), &mut report);
    drop(eng);

    // Power cut, then restart and read back. A 2B-SSD has checks of its
    // own between the restore and the read-back.
    let recover_at = cut_at + RESTART_DELAY;
    let recovered = match log.ba_device(|dev| cut_ba(&mut report, dev, plan, cut_at, recover_at)) {
        None => log.recover(cut_at, recover_at),
        Some(true) => log.read_back(recover_at),
        Some(false) => return report,
    };
    match recovered {
        Ok(records) => verify(&mut report, engine, &workload, &issued, cut_at, records),
        Err(e) => report.violations.push(e),
    }
    report
}

/// The WAL `scheme` names over a fresh small device carrying `plan`'s NAND
/// error injection (and, for BA-WAL, its capacitor shortfall), plus the
/// flush-fault handle of a block device.
fn build_wal(
    scheme: SchemeKind,
    plan: &FaultPlan,
) -> Result<(CutWal, Option<FlushFaults>), WalError> {
    let error_injection = error_injection(plan);
    if scheme == SchemeKind::Ba {
        let mut spec = TwoBSpec::small_for_tests();
        if plan.weak_capacitors {
            // Undersize the bank so the dump's energy gate fails.
            spec.capacitors_uf = 0.5;
        }
        let cfg = SsdConfig {
            error_injection,
            ..SsdConfig::base_2b().small()
        };
        return Ok((CutWal::ba(TwoBSsd::new(cfg, spec))?, None));
    }
    let mode = if scheme == SchemeKind::BlockSync {
        CommitMode::Sync
    } else {
        CommitMode::Async
    };
    let cfg = SsdConfig {
        error_injection,
        ..SsdConfig::dc_ssd().small()
    };
    let (wal, faults) = CutWal::block(Ssd::new(cfg), mode)?;
    Ok((wal, Some(faults)))
}

/// The BA-WAL cut: capacitor dump, restart, restore, and the checks only a
/// 2B-SSD has between restore and read-back — the weak-capacitor contract,
/// the mapping table's round trip and byte-identical BA-buffer images.
/// Returns whether the log is worth reading back.
fn cut_ba(
    report: &mut ScheduleReport,
    dev: &mut TwoBSsd,
    plan: &FaultPlan,
    cut_at: SimTime,
    recover_at: SimTime,
) -> bool {
    // Pre-cut device state: mapping entries and the bytes they map.
    let pre_entries = dev.entries();
    let pre_images: Result<Vec<Vec<u8>>, _> = pre_entries
        .iter()
        .map(|e| {
            dev.mmio_read(cut_at, e.eid, 0, e.len_bytes())
                .map(|r| r.data)
        })
        .collect();
    let pre_images = match pre_images {
        Ok(images) => images,
        Err(e) => {
            report
                .violations
                .push(format!("pre-cut mmio_read failed: {e:?}"));
            return false;
        }
    };

    let cycle = BaCycle::run(dev, cut_at, recover_at);
    if plan.weak_capacitors {
        // The loss must be *detected*, never silent.
        report.detected_loss = true;
        if cycle.dump.dumped {
            report
                .violations
                .push("weak-capacitor dump unexpectedly succeeded".into());
        }
        if cycle.dump.reason.is_none() {
            report
                .violations
                .push("abandoned dump carries no reason".into());
        }
        if cycle.restore.restored {
            report
                .violations
                .push("restore claimed success after an abandoned dump".into());
        }
        if dev.stats().data_loss_events == 0 {
            report
                .violations
                .push("data loss not counted in device stats".into());
        }
        return false;
    }
    if let Err(e) = cycle.check() {
        report.violations.push(e);
        return false;
    }

    // FTL mapping table round-trips through the dump.
    let post_entries = dev.entries();
    if post_entries != pre_entries {
        report.violations.push(format!(
            "mapping table did not round-trip: {} entries before, {} after",
            pre_entries.len(),
            post_entries.len()
        ));
    }
    // BA-buffer dump/restore is byte-identical.
    for (entry, pre) in pre_entries.iter().zip(&pre_images) {
        match dev.mmio_read(recover_at, entry.eid, 0, entry.len_bytes()) {
            Ok(read) => {
                if read.data != *pre {
                    report.violations.push(format!(
                        "BA-buffer bytes for {:?} differ after restore",
                        entry.eid
                    ));
                }
            }
            Err(e) => report
                .violations
                .push(format!("post-restore mmio_read failed: {e:?}")),
        }
    }
    if let Err(e) = dev.check_invariants() {
        report
            .violations
            .push(format!("device invariants violated: {e}"));
    }
    true
}

/// Drives the workload through the engine, arming flush faults as the plan
/// dictates, and returns the acknowledged commits plus the cut instant.
fn drive(
    eng: &mut Engine,
    workload: &Workload,
    plan: &FaultPlan,
    faults: Option<&FlushFaults>,
    report: &mut ScheduleReport,
) -> (Vec<IssuedCommit>, SimTime) {
    let mut rng = SimRng::seed_from(plan.seed ^ 0xd1ce_d1ce_d1ce_d1ce);
    let mut issued = Vec::with_capacity(workload.len());
    let mut t = T0;
    for idx in 0..workload.len() {
        if let Some(faults) = faults {
            for (at, fault) in &plan.flush_faults {
                if *at == idx as u64 {
                    faults.arm(*fault);
                }
            }
        }
        match eng.commit(t, workload, idx) {
            Ok(outcome) => {
                issued.push(IssuedCommit {
                    lsn: outcome.lsn,
                    durable_at: outcome.durable_at,
                });
                t = outcome.commit_at + SimDuration::from_nanos(rng.next_u64_below(400));
            }
            Err(e) => {
                report
                    .violations
                    .push(format!("commit {idx} failed before any fault: {e:?}"));
            }
        }
    }
    report.commits_issued = issued.len() as u64;
    (issued, t + SimDuration::from_nanos(plan.cut_delay_ns))
}

/// The post-recovery invariant checks shared by every scheme:
///
/// 1. The recovered log is prefix-consistent: LSNs dense from 0, no holes
///    before the torn tail, duplicates byte-identical.
/// 2. Every commit acknowledged as durable before the cut is recovered.
/// 3. Replaying the recovered records reproduces exactly the state of
///    re-running the same op-stream prefix on a fresh engine.
fn verify(
    report: &mut ScheduleReport,
    engine: EngineKind,
    workload: &Workload,
    issued: &[IssuedCommit],
    cut_at: SimTime,
    recovered: Vec<LogRecord>,
) {
    // 1. Prefix consistency.
    let records = match check_log_prefix(&recovered) {
        Ok(records) => records,
        Err(e) => {
            report.violations.push(e);
            return;
        }
    };
    let prefix = records.len();
    report.recovered_records = prefix as u64;

    // 2. Acknowledged durability is honoured: the prefix is dense from 0,
    // so an LSN is recovered iff it falls inside it.
    let mut required = 0u64;
    for (idx, commit) in issued.iter().enumerate() {
        let (Some(lsn), Some(durable_at)) = (commit.lsn, commit.durable_at) else {
            continue;
        };
        if durable_at > cut_at {
            continue; // Acknowledged after the cut: legitimately at risk.
        }
        required += 1;
        if lsn.0 >= prefix as u64 {
            report.violations.push(format!(
                "commit {idx} ({lsn}, durable {}ns before the cut) was lost",
                cut_at.saturating_since(durable_at)
            ));
        }
    }
    report.required_durable = required;
    if !report.violations.is_empty() {
        return;
    }

    // 3. Replayed state matches a golden re-run of the same prefix.
    let miss = match golden_rerun(engine, workload, &records) {
        Ok(_) => return,
        Err(GoldenMiss::Apply(e)) => format!("recovered records failed to apply: {e:?}"),
        Err(GoldenMiss::Rerun(idx, e)) => format!("golden re-run failed at commit {idx}: {e:?}"),
        Err(GoldenMiss::Diverged { recovered, golden }) => format!(
            "recovered state digest {recovered:#018x} diverges from a golden re-run \
             of {prefix} commits ({golden:#018x})"
        ),
    };
    report.violations.push(miss);
}

/// Aggregate outcome of a fault sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Schedules executed.
    pub schedules: u64,
    /// Base seed the sweep derives per-schedule seeds from.
    pub seed: u64,
    /// Commits acknowledged across all schedules.
    pub commits: u64,
    /// Log records recovered across all schedules.
    pub recovered: u64,
    /// Schedules that injected an energy-budget shortfall and saw it
    /// detected.
    pub detected_losses: u64,
    /// `(engine, scheme, schedule seed, detail)` for every violation.
    pub violations: Vec<(EngineKind, SchemeKind, u64, String)>,
}

impl SweepReport {
    /// Whether the whole sweep passed.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fault sweep: {} schedules (seed {}) over {} engines x {} schemes",
            self.schedules,
            self.seed,
            EngineKind::ALL.len(),
            SchemeKind::ALL.len()
        )?;
        writeln!(
            f,
            "  commits acknowledged: {}  records recovered: {}  detected losses: {}",
            self.commits, self.recovered, self.detected_losses
        )?;
        if self.violations.is_empty() {
            write!(f, "  invariant violations: 0")
        } else {
            writeln!(f, "  invariant violations: {}", self.violations.len())?;
            for (engine, scheme, seed, detail) in &self.violations {
                writeln!(f, "    [{engine}/{scheme} seed={seed}] {detail}")?;
            }
            Ok(())
        }
    }
}

/// Runs `schedules` deterministic fault schedules, cycling through every
/// engine × scheme combination, with per-schedule plans derived from `seed`.
///
/// The same `(schedules, seed)` pair always produces the same report.
pub fn sweep(schedules: u64, seed: u64) -> SweepReport {
    let mut report = SweepReport {
        schedules,
        seed,
        commits: 0,
        recovered: 0,
        detected_losses: 0,
        violations: Vec::new(),
    };
    for_each_plan(
        schedules,
        seed,
        &SchemeKind::ALL,
        |engine, scheme, plan_seed| {
            let run = run_schedule(engine, scheme, &FaultPlan::random(plan_seed));
            report.commits += run.commits_issued;
            report.recovered += run.recovered_records;
            if run.detected_loss && run.passed() {
                report.detected_losses += 1;
            }
            for v in run.violations {
                report.violations.push((engine, scheme, plan_seed, v));
            }
        },
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_combo_survives_one_schedule() {
        let plan = FaultPlan::random(11);
        for engine in EngineKind::ALL {
            for scheme in SchemeKind::ALL {
                let report = run_schedule(engine, scheme, &plan);
                assert!(
                    report.passed(),
                    "{engine}/{scheme}: {:?}",
                    report.violations
                );
                assert_eq!(report.commits_issued, plan.commits);
                assert!(report.recovered_records >= report.required_durable);
            }
        }
    }

    #[test]
    fn sync_and_ba_schedules_recover_every_commit() {
        // Sync and BA commits are durable at acknowledgement, so every
        // acknowledged commit must be required *and* recovered.
        let plan = FaultPlan {
            weak_capacitors: false,
            ..FaultPlan::random(23)
        };
        for scheme in [SchemeKind::BlockSync, SchemeKind::Ba] {
            let report = run_schedule(EngineKind::Rocks, scheme, &plan);
            assert!(report.passed(), "{scheme}: {:?}", report.violations);
            assert_eq!(report.required_durable, plan.commits);
        }
    }

    #[test]
    fn weak_capacitors_are_detected_not_silent() {
        let plan = FaultPlan {
            weak_capacitors: true,
            ..FaultPlan::random(5)
        };
        let report = run_schedule(EngineKind::Redis, SchemeKind::Ba, &plan);
        assert!(report.detected_loss);
        assert!(report.passed(), "{:?}", report.violations);
    }

    #[test]
    fn schedules_are_deterministic() {
        let plan = FaultPlan::random(77);
        let a = run_schedule(EngineKind::Pg, SchemeKind::BlockAsync, &plan);
        let b = run_schedule(EngineKind::Pg, SchemeKind::BlockAsync, &plan);
        assert_eq!(a.commits_issued, b.commits_issued);
        assert_eq!(a.required_durable, b.required_durable);
        assert_eq!(a.recovered_records, b.recovered_records);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn small_sweep_is_clean_and_deterministic() {
        let a = sweep(18, 3);
        assert!(a.passed(), "{a}");
        assert_eq!(a.schedules, 18);
        let b = sweep(18, 3);
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.recovered, b.recovered);
        assert_eq!(a.detected_losses, b.detected_losses);
    }
}
