//! The replica set: one primary plus N replicas on a single virtual clock.
//!
//! Every node owns its *own* simulated SSD and WAL; the primary's engine
//! executes the client's commits, and the WAL tail — re-read through the
//! [`WalTail`] cursor path, i.e. `BA_READ_DMA` out of the pinned window for
//! BA-WAL or block reads of the log region for block-WAL — is shipped over
//! per-replica [`NetLink`]s as events on the shared [`Executor`]. Network
//! propagation, NAND program/flush time, and engine costs all interleave in
//! one deterministic calendar.
//!
//! Shipping is *incremental with cumulative repair*. The hot path keeps a
//! per-replica send cursor and ships only records the replica has not been
//! sent yet, off **one** shared tail read per round — tail read-out DMAs
//! the whole pinned window (order 100 µs of device time), so polling it
//! once per replica would saturate the primary's read engine and snowball
//! into retransmit storms. Loss repair is cumulative: when a retransmit
//! timer fires and a replica's *acknowledged* frontier has not moved since
//! the previous fire, its send cursor is rewound to that frontier and
//! everything past it is re-shipped — the replica's dense-apply rule makes
//! duplicates no-ops. Acks flow back on the same link (reliable, but still
//! paying latency and dying with partitions), and the release rule of
//! [`CommitPolicy`](crate::CommitPolicy) decides when the closed-loop
//! client sees its commit and issues the next one.

use std::collections::BTreeMap;

use twob_core::TwoBSsd;
use twob_faults::{Engine, ReplFaultPlan, SharedWal, ShipFault, Workload};
use twob_sim::{Executor, Histogram, SimDuration, SimRng, SimTime};
use twob_ssd::{Ssd, SsdConfig};
use twob_wal::{
    replay, BaWal, BlockWal, CommitMode, CursorBatch, LogRecord, Lsn, WalConfig, WalError, WalTail,
    WalWriter,
};

use crate::config::ReplConfig;
use crate::link::{NetLink, ACK_WIRE_BYTES, RECORD_WIRE_OVERHEAD, T0};
use crate::ShipScheme;

/// Time a restarted node gets before recovery reads begin.
pub(crate) const RESTART_DELAY: SimDuration = SimDuration::from_millis(5);

/// Fixed framing overhead per ship batch on the wire.
const BATCH_WIRE_HEADER: u64 = 32;

/// Retransmit timers fire at this many one-way latencies (4 RTT)...
const RETX_ONE_WAYS: f64 = 8.0;

/// ...plus this floor, which covers the non-network part of the ship/ack
/// path — above all the tail read-out, which DMAs the full pinned window
/// (order 100 µs of device time) — so a healthy in-flight ack is not
/// mistaken for a loss on low-RTT links.
const RETX_FLOOR: SimDuration = SimDuration::from_micros(200);

/// Repair rounds (send-cursor rewinds) before the set gives up on a
/// lagging replica and records a violation — a backstop against
/// pathological link configs (e.g. `drop_prob = 1.0`), not something a
/// healthy run ever reaches.
const MAX_RETX_ROUNDS: u64 = 1_000;

/// One node's WAL: the writer half is boxed into the node's engine, this
/// shared half keeps tail reads and the power-cut/recovery path reachable.
pub(crate) enum NodeLog {
    /// BA-WAL over a private 2B-SSD.
    Ba(SharedWal<BaWal>),
    /// Synchronous block WAL over a private conventional SSD.
    Block(SharedWal<BlockWal<Ssd>>),
}

impl NodeLog {
    pub(crate) fn build(scheme: ShipScheme, cfg: WalConfig) -> Result<NodeLog, WalError> {
        match scheme {
            ShipScheme::Ba => {
                let wal = BaWal::new(TwoBSsd::small_for_tests(), cfg, 4)?;
                Ok(NodeLog::Ba(SharedWal::new(wal)))
            }
            ShipScheme::Block => {
                let dev = Ssd::new(SsdConfig::dc_ssd().small());
                let wal = BlockWal::new(dev, cfg, CommitMode::Sync)?;
                Ok(NodeLog::Block(SharedWal::new(wal)))
            }
        }
    }

    /// A clone of the writer half, for the node's engine.
    pub(crate) fn writer(&self) -> Box<dyn WalWriter> {
        match self {
            NodeLog::Ba(s) => Box::new(s.clone()),
            NodeLog::Block(s) => Box::new(s.clone()),
        }
    }

    fn read_tail(&mut self, now: SimTime, from: Lsn) -> Result<CursorBatch, WalError> {
        match self {
            NodeLog::Ba(s) => s.read_tail(now, from),
            NodeLog::Block(s) => s.read_tail(now, from),
        }
    }

    fn append_batch(
        &mut self,
        now: SimTime,
        payloads: &[Vec<u8>],
    ) -> Result<twob_wal::CommitOutcome, WalError> {
        match self {
            NodeLog::Ba(s) => s.append_batch(now, payloads),
            NodeLog::Block(s) => s.append_batch(now, payloads),
        }
    }

    /// Cuts power at `cut_at`, restarts at `recover_at`, and returns every
    /// record the node's log yields after the cycle (flushed segments plus,
    /// for BA-WAL, the capacitor-restored buffer tail).
    pub(crate) fn power_cycle_and_recover(
        &self,
        cut_at: SimTime,
        recover_at: SimTime,
        cfg: &WalConfig,
    ) -> Result<Vec<LogRecord>, String> {
        match self {
            NodeLog::Ba(s) => {
                let dump = s.with(|w| w.device_mut().power_loss(cut_at));
                if !dump.dumped {
                    return Err(format!("capacitor dump failed: {:?}", dump.reason));
                }
                let restore = s.with(|w| w.device_mut().power_on(recover_at));
                if !restore.restored {
                    return Err("restore found no valid dump".into());
                }
                let mut records = s
                    .with(|w| {
                        replay(
                            w.device_mut(),
                            recover_at,
                            cfg.region_base_lba,
                            cfg.region_pages,
                        )
                    })
                    .map_err(|e| format!("replay failed: {e:?}"))?
                    .records;
                let buffered = s
                    .with(|w| w.recover_buffered(recover_at))
                    .map_err(|e| format!("recover_buffered failed: {e:?}"))?;
                records.extend(buffered);
                Ok(records)
            }
            NodeLog::Block(s) => {
                s.with(|w| {
                    w.device_mut().power_loss(cut_at);
                    w.device_mut().power_on(recover_at);
                });
                s.with(|w| {
                    replay(
                        w.device_mut(),
                        recover_at,
                        cfg.region_base_lba,
                        cfg.region_pages,
                    )
                })
                .map(|o| o.records)
                .map_err(|e| format!("replay failed: {e:?}"))
            }
        }
    }
}

/// One replica node: its own log, engine, link to the primary, and apply
/// frontier (the next LSN it expects).
pub(crate) struct Replica {
    pub(crate) log: NodeLog,
    pub(crate) engine: Engine,
    pub(crate) link: NetLink,
    pub(crate) applied: u64,
}

/// A commit awaiting release.
struct PendingCommit {
    issued_at: SimTime,
    local_durable: SimTime,
}

/// Calendar events of the replication protocol.
#[derive(Clone)]
pub(crate) enum Ev {
    /// The closed-loop client issues the next commit on the primary.
    Issue,
    /// A shipped WAL batch arrives at a replica.
    Deliver {
        replica: usize,
        records: Vec<LogRecord>,
    },
    /// A replica's cumulative ack arrives back at the primary.
    Ack { replica: usize, applied: u64 },
    /// Retransmit timer: re-ship to lagging replicas.
    Retransmit { gen: u64 },
}

/// Steady-state outcome of a replica-set run.
#[derive(Debug, Clone)]
pub struct SteadyReport {
    /// Configuration the run used.
    pub config: ReplConfig,
    /// Commits released to the client.
    pub released: u64,
    /// Median client-visible commit latency in microseconds.
    pub p50_us: f64,
    /// Tail client-visible commit latency in microseconds.
    pub p99_us: f64,
    /// Mean client-visible commit latency in microseconds.
    pub mean_us: f64,
    /// Released commits per second of virtual time.
    pub commits_per_sec: f64,
    /// Ship batches put on the wire (including retransmits and dups).
    pub ship_batches: u64,
    /// Records carried by those batches (cumulative re-ship amplification).
    pub ship_records: u64,
    /// Per-replica applied frontiers at quiescence.
    pub applied: Vec<u64>,
    /// Invariant violations; empty on a clean run.
    pub violations: Vec<String>,
}

impl SteadyReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A primary plus N replicas wired through deterministic links, driven by
/// a closed-loop client on one shared event calendar.
pub struct ReplicaSet {
    pub(crate) cfg: ReplConfig,
    pub(crate) wal_cfg: WalConfig,
    pub(crate) workload: Workload,
    pub(crate) primary_log: NodeLog,
    pub(crate) primary_engine: Engine,
    pub(crate) replicas: Vec<Replica>,
    /// Primary's view of each replica's apply frontier (next LSN needed).
    pub(crate) acked: Vec<u64>,
    /// Per-replica send cursor: next LSN not yet put on the wire. Always
    /// `>= acked[r]`; rewound to `acked[r]` by retransmit repair.
    sent: Vec<u64>,
    /// `acked` as of the last retransmit fire — the no-progress detector.
    retx_snapshot: Vec<u64>,
    pending: BTreeMap<u64, PendingCommit>,
    pub(crate) issued: u64,
    /// Commits released to the client (the acknowledged set).
    pub(crate) released: u64,
    latency: Histogram,
    client_rng: SimRng,
    retx_gen: u64,
    retx_rounds: u64,
    ship_batches: u64,
    ship_records: u64,
    start_at: SimTime,
    done_at: SimTime,
    pub(crate) violations: Vec<String>,
    /// Failover mode: the fault plan driving partitions/ship faults.
    pub(crate) plan: Option<ReplFaultPlan>,
    /// Set once the last commit is issued in failover mode.
    pub(crate) cut_at: Option<SimTime>,
}

impl ReplicaSet {
    /// Builds the set: every node gets its own device and WAL, every link
    /// its own forked random stream.
    ///
    /// # Errors
    ///
    /// Propagates WAL construction failures (invalid config).
    pub fn new(cfg: ReplConfig) -> Result<ReplicaSet, WalError> {
        let wal_cfg = WalConfig::default();
        let workload = Workload::from_seed(cfg.engine, cfg.seed, cfg.commits);
        let primary_log = NodeLog::build(cfg.scheme, wal_cfg)?;
        let primary_engine = Engine::build(cfg.engine, primary_log.writer());
        let mut net_rng = SimRng::seed_from(cfg.seed ^ 0x2e71_1a7e_2e71_1a7e);
        let mut replicas = Vec::with_capacity(cfg.replicas);
        for r in 0..cfg.replicas {
            let log = NodeLog::build(cfg.scheme, wal_cfg)?;
            let engine = Engine::build(cfg.engine, log.writer());
            let link = NetLink::new(cfg.link, net_rng.fork(r as u64));
            replicas.push(Replica {
                log,
                engine,
                link,
                applied: 0,
            });
        }
        let n = cfg.replicas;
        let client_rng = SimRng::seed_from(cfg.seed ^ 0xc11e_47c1_1e47_c11e);
        Ok(ReplicaSet {
            cfg,
            wal_cfg,
            workload,
            primary_log,
            primary_engine,
            replicas,
            acked: vec![0; n],
            sent: vec![0; n],
            retx_snapshot: vec![0; n],
            pending: BTreeMap::new(),
            issued: 0,
            released: 0,
            latency: Histogram::new(),
            client_rng,
            retx_gen: 0,
            retx_rounds: 0,
            ship_batches: 0,
            ship_records: 0,
            start_at: T0,
            done_at: T0,
            violations: Vec::new(),
            plan: None,
            cut_at: None,
        })
    }

    /// Attaches a fault plan: partitions and ship faults fire at the
    /// commit indices the plan dictates, and the primary's cut instant is
    /// derived once the last commit is issued.
    pub(crate) fn with_plan(mut self, plan: ReplFaultPlan) -> ReplicaSet {
        self.plan = Some(plan);
        self
    }

    /// The calendar event handler: all protocol logic lives here.
    pub(crate) fn handle(&mut self, exec: &mut Executor<Ev>, t: SimTime, ev: Ev) {
        match ev {
            Ev::Issue => self.on_issue(exec, t),
            Ev::Deliver { replica, records } => self.on_deliver(exec, t, replica, records),
            Ev::Ack { replica, applied } => self.on_ack(exec, t, replica, applied),
            Ev::Retransmit { gen } => self.on_retransmit(exec, t, gen),
        }
    }

    fn on_issue(&mut self, exec: &mut Executor<Ev>, t: SimTime) {
        let idx = self.issued;
        if idx >= self.cfg.commits {
            return;
        }
        // Plan-scheduled partitions trigger when this commit is issued.
        if let Some(plan) = &self.plan {
            for &(r, at) in &plan.partitioned {
                if at == idx {
                    self.replicas[r].link.partition();
                }
            }
        }
        let out = match self.primary_engine.commit(t, &self.workload, idx as usize) {
            Ok(out) => out,
            Err(e) => {
                self.violations.push(format!("commit {idx} failed: {e:?}"));
                return;
            }
        };
        self.issued += 1;
        let Some(lsn) = out.lsn else {
            self.violations
                .push(format!("commit {idx} produced no log record"));
            return;
        };
        self.pending.insert(
            lsn.0,
            PendingCommit {
                issued_at: t,
                local_durable: out.durable_at.unwrap_or(out.commit_at),
            },
        );
        if self.issued == self.cfg.commits {
            if let Some(plan) = &self.plan {
                self.cut_at = Some(t + SimDuration::from_nanos(plan.cut_delay_ns));
            }
        }
        self.ship_all(exec, out.commit_at, Some(idx));
        self.try_release(exec, out.commit_at);
    }

    /// Ships each connected replica everything past its *send* cursor —
    /// on the hot path that is just the record the commit appended. One
    /// tail read (from the lowest unsent LSN) serves every replica in the
    /// round, because the read-out itself DMAs the whole pinned window and
    /// is by far the most expensive device operation in the loop.
    /// `commit_idx` keys the plan's targeted ship faults (retransmits are
    /// fault-free).
    fn ship_all(&mut self, exec: &mut Executor<Ev>, now: SimTime, commit_idx: Option<u64>) {
        let targets: Vec<usize> = (0..self.replicas.len())
            .filter(|&r| self.replicas[r].link.is_up() && self.sent[r] < self.issued)
            .collect();
        if let Some(min_from) = targets.iter().map(|&r| self.sent[r]).min() {
            let batch = match self.primary_log.read_tail(now, Lsn(min_from)) {
                Ok(batch) => batch,
                Err(e) => {
                    self.violations
                        .push(format!("ship read from lsn:{min_from} failed: {e:?}"));
                    self.schedule_retx(exec, now);
                    return;
                }
            };
            for r in targets {
                // The batch is dense from `min_from`, so this replica's
                // slice starts at its own cursor.
                let skip = (self.sent[r] - min_from) as usize;
                let records = batch.records.get(skip..).unwrap_or(&[]);
                if records.is_empty() {
                    continue;
                }
                let bytes = BATCH_WIRE_HEADER
                    + records
                        .iter()
                        .map(|rec| rec.payload.len() as u64 + RECORD_WIRE_OVERHEAD)
                        .sum::<u64>();
                let fault = commit_idx.and_then(|idx| {
                    self.plan.as_ref().and_then(|p| {
                        p.ship_faults
                            .iter()
                            .find(|&&(at, rep, _)| at == idx && rep == r)
                            .map(|&(_, _, f)| f)
                    })
                });
                let mut arrivals = self.replicas[r].link.deliveries(batch.complete_at, bytes);
                match fault {
                    Some(ShipFault::Drop) => arrivals.clear(),
                    Some(ShipFault::Duplicate) => {
                        let again = self.replicas[r].link.deliveries(batch.complete_at, bytes);
                        arrivals.extend(again);
                    }
                    Some(ShipFault::Delay(ns)) => {
                        for a in &mut arrivals {
                            *a += SimDuration::from_nanos(ns);
                        }
                    }
                    None => {}
                }
                // The cursor advances even when the batch is dropped in
                // flight — the sender cannot tell; retransmit repair is
                // what notices the missing ack and rewinds.
                self.sent[r] += records.len() as u64;
                self.ship_batches += arrivals.len() as u64;
                self.ship_records += records.len() as u64 * arrivals.len() as u64;
                for at in arrivals {
                    exec.post(
                        at,
                        Ev::Deliver {
                            replica: r,
                            records: records.to_vec(),
                        },
                    );
                }
            }
        }
        self.schedule_retx(exec, now);
    }

    fn lagging(&self) -> bool {
        self.replicas
            .iter()
            .enumerate()
            .any(|(r, rep)| rep.link.is_up() && self.acked[r] < self.issued)
    }

    /// (Re)arms the single retransmit timer while any connected replica's
    /// acknowledged frontier trails the issued frontier. Bumping the
    /// generation supersedes any timer already in the calendar.
    fn schedule_retx(&mut self, exec: &mut Executor<Ev>, now: SimTime) {
        if !self.lagging() {
            return;
        }
        self.retx_gen += 1;
        let delay = RETX_FLOOR + self.cfg.link.one_way.mul_f64(RETX_ONE_WAYS);
        exec.post(now + delay, Ev::Retransmit { gen: self.retx_gen });
    }

    /// Loss repair: a replica whose `acked` frontier has not moved since
    /// the previous fire has lost a batch (or its ack) — rewind its send
    /// cursor to the acknowledged frontier and re-ship cumulatively. A
    /// replica whose frontier *did* move merely has acks in flight; firing
    /// at it would re-ship data that is already arriving.
    fn on_retransmit(&mut self, exec: &mut Executor<Ev>, t: SimTime, gen: u64) {
        if gen != self.retx_gen || !self.lagging() {
            return;
        }
        let mut repaired = false;
        for r in 0..self.replicas.len() {
            let stalled = self.acked[r] == self.retx_snapshot[r];
            self.retx_snapshot[r] = self.acked[r];
            if self.replicas[r].link.is_up() && self.acked[r] < self.issued && stalled {
                self.sent[r] = self.acked[r];
                repaired = true;
            }
        }
        if !repaired {
            self.schedule_retx(exec, t);
            return;
        }
        self.retx_rounds += 1;
        if self.retx_rounds > MAX_RETX_ROUNDS {
            if self.retx_rounds == MAX_RETX_ROUNDS + 1 {
                self.violations.push(format!(
                    "retransmit budget exhausted with replicas still lagging \
                     (issued {}, acked {:?}, applied {:?})",
                    self.issued,
                    self.acked,
                    self.replicas.iter().map(|r| r.applied).collect::<Vec<_>>()
                ));
            }
            return;
        }
        self.ship_all(exec, t, None);
    }

    fn on_deliver(
        &mut self,
        exec: &mut Executor<Ev>,
        t: SimTime,
        r: usize,
        records: Vec<LogRecord>,
    ) {
        if records.is_empty() || !self.replicas[r].link.is_up() {
            return;
        }
        let next = self.replicas[r].applied;
        let first = records[0].lsn.0;
        if first > next {
            // A gap ahead of the apply frontier: ignore, a cumulative
            // retransmit will cover it.
            return;
        }
        let skip = (next - first) as usize;
        let mut ack_from = t;
        if skip < records.len() {
            let fresh = &records[skip..];
            debug_assert_eq!(fresh[0].lsn.0, next, "ship batches are dense");
            let payloads: Vec<Vec<u8>> = fresh.iter().map(|rec| rec.payload.clone()).collect();
            let appended = self.replicas[r].log.append_batch(t, &payloads);
            match appended {
                // WAL first: the ack promises durability, so it leaves
                // after the batch's durability point.
                Ok(out) => ack_from = out.durable_at.unwrap_or(out.commit_at),
                Err(e) => {
                    self.violations
                        .push(format!("replica {r} log append failed: {e:?}"));
                    return;
                }
            }
            let fresh = fresh.to_vec();
            if let Err(e) = self.replicas[r].engine.apply_records(&fresh) {
                self.violations
                    .push(format!("replica {r} apply failed: {e:?}"));
                return;
            }
            self.replicas[r].applied = next + fresh.len() as u64;
        }
        // Cumulative ack — also sent for all-duplicate batches, so a lost
        // ack is repaired by the next delivery.
        let applied = self.replicas[r].applied;
        if let Some(at) = self.replicas[r]
            .link
            .delivery_reliable(ack_from, ACK_WIRE_BYTES)
        {
            exec.post(
                at,
                Ev::Ack {
                    replica: r,
                    applied,
                },
            );
        }
    }

    fn on_ack(&mut self, exec: &mut Executor<Ev>, t: SimTime, r: usize, applied: u64) {
        if !self.replicas[r].link.is_up() {
            return;
        }
        self.acked[r] = self.acked[r].max(applied);
        self.try_release(exec, t);
    }

    /// Releases pending commits in LSN order while the policy's ack
    /// requirement is met — the quorum ticket rule.
    fn try_release(&mut self, exec: &mut Executor<Ev>, at: SimTime) {
        let n = self.replicas.len();
        let need = self.cfg.policy.required_acks(n);
        while let Some((&lsn, _)) = self.pending.iter().next() {
            let have = (0..n).filter(|&r| self.acked[r] > lsn).count();
            if have < need {
                break;
            }
            let p = self.pending.remove(&lsn).expect("pending head exists");
            let release_at = at.max(p.local_durable);
            self.latency
                .record(release_at.saturating_since(p.issued_at));
            self.released = self.released.max(lsn + 1);
            self.done_at = self.done_at.max(release_at);
            if self.issued < self.cfg.commits {
                let think = SimDuration::from_nanos(self.client_rng.next_u64_below(400));
                exec.post(release_at + think, Ev::Issue);
            }
        }
    }

    /// Runs the whole commit stream to quiescence and reports steady-state
    /// latency, throughput, and convergence.
    pub fn run_steady(mut self) -> SteadyReport {
        let mut exec: Executor<Ev> = Executor::new();
        exec.post(T0, Ev::Issue);
        exec.run(|ex, t, ev| self.handle(ex, t, ev));
        debug_assert_eq!(
            exec.clamped_posts(),
            0,
            "replication protocol posted an event into the past: deliveries, \
             acks, retransmit timers, and issue wake-ups all chain forward"
        );
        self.steady_report()
    }

    fn steady_report(mut self) -> SteadyReport {
        if self.released != self.cfg.commits {
            self.violations.push(format!(
                "only {} of {} commits released at quiescence",
                self.released, self.cfg.commits
            ));
        }
        let primary_digest = self.primary_engine.state_digest();
        for (r, rep) in self.replicas.iter().enumerate() {
            if !rep.link.is_up() {
                continue;
            }
            if rep.applied != self.issued {
                self.violations.push(format!(
                    "replica {r} stuck at lsn:{} of {}",
                    rep.applied, self.issued
                ));
            } else if rep.engine.state_digest() != primary_digest {
                self.violations.push(format!(
                    "replica {r} digest {:#018x} diverges from primary {:#018x}",
                    rep.engine.state_digest(),
                    primary_digest
                ));
            }
        }
        let elapsed = self.done_at.saturating_since(self.start_at).as_secs_f64();
        let commits_per_sec = if elapsed > 0.0 {
            self.released as f64 / elapsed
        } else {
            0.0
        };
        SteadyReport {
            config: self.cfg.clone(),
            released: self.released,
            p50_us: self.latency.percentile(0.50).as_micros_f64(),
            p99_us: self.latency.percentile(0.99).as_micros_f64(),
            mean_us: self.latency.mean().as_micros_f64(),
            commits_per_sec,
            ship_batches: self.ship_batches,
            ship_records: self.ship_records,
            applied: self.replicas.iter().map(|rep| rep.applied).collect(),
            violations: self.violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CommitPolicy;
    use crate::link::NetLinkConfig;
    use twob_faults::EngineKind;

    fn base_cfg() -> ReplConfig {
        ReplConfig {
            commits: 40,
            ..ReplConfig::default()
        }
    }

    #[test]
    fn semisync_run_converges_and_is_clean() {
        let report = ReplicaSet::new(base_cfg()).unwrap().run_steady();
        assert!(report.passed(), "{:?}", report.violations);
        assert_eq!(report.released, 40);
        assert_eq!(report.applied, vec![40, 40, 40]);
        assert!(report.p50_us > 0.0);
        assert!(report.p99_us >= report.p50_us);
        assert!(report.commits_per_sec > 0.0);
    }

    #[test]
    fn all_engines_and_schemes_converge() {
        for engine in EngineKind::ALL {
            for scheme in ShipScheme::ALL {
                let cfg = ReplConfig {
                    engine,
                    scheme,
                    commits: 25,
                    ..base_cfg()
                };
                let report = ReplicaSet::new(cfg).unwrap().run_steady();
                assert!(
                    report.passed(),
                    "{engine}/{scheme}: {:?}",
                    report.violations
                );
            }
        }
    }

    #[test]
    fn policies_order_client_latency() {
        // async releases at local durability; semisync waits one RTT for a
        // quorum; sync waits for the slowest replica. Medians must order.
        let run = |policy| {
            let cfg = ReplConfig {
                policy,
                ..base_cfg()
            };
            let r = ReplicaSet::new(cfg).unwrap().run_steady();
            assert!(r.passed(), "{policy}: {:?}", r.violations);
            r.p50_us
        };
        let a = run(CommitPolicy::Async);
        let semi = run(CommitPolicy::SemiSync(2));
        let s = run(CommitPolicy::Sync);
        assert!(a < semi, "async {a} !< semisync {semi}");
        assert!(semi <= s, "semisync {semi} !<= sync {s}");
        // A quorum wait costs at least one network round trip.
        assert!(
            semi - a > 40.0,
            "quorum wait below the 50us RTT: {semi} vs {a}"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = ReplicaSet::new(base_cfg()).unwrap().run_steady();
        let b = ReplicaSet::new(base_cfg()).unwrap().run_steady();
        assert_eq!(a.p50_us, b.p50_us);
        assert_eq!(a.p99_us, b.p99_us);
        assert_eq!(a.commits_per_sec, b.commits_per_sec);
        assert_eq!(a.ship_batches, b.ship_batches);
        assert_eq!(a.ship_records, b.ship_records);
    }

    #[test]
    fn lossy_link_recovers_via_retransmit() {
        let link = NetLinkConfig {
            drop_prob: 0.35,
            dup_prob: 0.15,
            ..NetLinkConfig::default()
        };
        let cfg = ReplConfig {
            link,
            commits: 30,
            ..base_cfg()
        };
        let report = ReplicaSet::new(cfg).unwrap().run_steady();
        assert!(report.passed(), "{:?}", report.violations);
        assert_eq!(report.released, 30);
        // Cumulative re-ship means lost batches cost extra records later.
        assert!(report.ship_records >= 30);
    }

    #[test]
    fn rtt_dominates_semisync_latency() {
        let run = |rtt_us| {
            let cfg = ReplConfig {
                link: NetLinkConfig::from_rtt_us(rtt_us),
                ..base_cfg()
            };
            let r = ReplicaSet::new(cfg).unwrap().run_steady();
            assert!(r.passed(), "{:?}", r.violations);
            r.p50_us
        };
        let near = run(10);
        let far = run(400);
        assert!(
            far - near > 300.0,
            "400us RTT should add ~1 RTT over 10us: {near} -> {far}"
        );
    }
}
