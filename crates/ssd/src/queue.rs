//! NVMe-style paired submission/completion queues over the event kernel.
//!
//! [`NvmeSsd`] wraps an [`Ssd`] with host-visible queue pairs: commands are
//! submitted to a submission queue (SQ), fetched by firmware under
//! round-robin arbitration across queues, executed as chained calendar
//! events (fetch → NAND/transfer → completion), and posted to the paired
//! completion queue (CQ). Because the fetch stage occupies the same firmware
//! cores and the NAND stages the same die/channel servers as the synchronous
//! [`Ssd`] API, queued and un-queued traffic contend for the device — and at
//! queue depth > 1 the firmware fetch of one command overlaps the NAND and
//! host-transfer stages of its predecessors, which is what lifts bandwidth
//! above the QD1 figure.
//!
//! All ordering is deterministic: the calendar breaks time ties FIFO, and
//! arbitration order is a pure function of queue state.
//!
//! # Example
//!
//! ```rust
//! use twob_ftl::Lba;
//! use twob_sim::SimTime;
//! use twob_ssd::{NvmeOp, NvmeSsd, QueueConfig, Ssd, SsdConfig};
//!
//! use twob_sim::Executor;
//!
//! let mut dev = NvmeSsd::new(
//!     Ssd::new(SsdConfig::ull_ssd().small()),
//!     QueueConfig::new(1, 8),
//! );
//! // Preload four pages, then read them back through the queue pair.
//! let data = vec![7u8; 4096];
//! for i in 0..4 {
//!     dev.ssd_mut().write(SimTime::ZERO, Lba(i), &data).unwrap();
//! }
//! let mut exec = Executor::new();
//! let start = SimTime::from_nanos(1_000_000);
//! for i in 0..4 {
//!     dev.submit(&mut exec, start, 0, NvmeOp::Read { lba: Lba(i % 4), pages: 1 })
//!         .unwrap();
//! }
//! exec.run(|ex, t, ev| dev.handle(ex, t, ev));
//! let done = dev.drain_completions();
//! assert_eq!(done.len(), 4);
//! assert!(done.iter().all(|c| c.result.is_ok()));
//! ```
//!
//! Closed-loop driving (keeping every pair at depth) lives in the workload
//! layer's `ServiceDriver::run_nvme`.

use std::collections::VecDeque;

use twob_ftl::Lba;
use twob_sim::{Executor, Histogram, LatencyBreakdown, SimTime};

use crate::{BlockRead, Ssd, SsdError};

/// Shape of the queue-pair front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Number of SQ/CQ pairs (NVMe allows up to 64k; real hosts use one per
    /// core).
    pub pairs: usize,
    /// Entries per submission queue — the per-queue depth cap.
    pub depth: usize,
}

impl QueueConfig {
    /// Creates a configuration of `pairs` queue pairs of `depth` entries.
    ///
    /// # Panics
    ///
    /// Panics if either is zero.
    pub fn new(pairs: usize, depth: usize) -> Self {
        assert!(pairs > 0, "need at least one queue pair");
        assert!(depth > 0, "need a queue depth of at least one");
        QueueConfig { pairs, depth }
    }
}

impl Default for QueueConfig {
    /// One queue pair of depth 32, a common default for a single-core host.
    fn default() -> Self {
        QueueConfig::new(1, 32)
    }
}

/// One host block command, as placed in a submission queue.
#[derive(Debug, Clone)]
pub enum NvmeOp {
    /// Read `pages` pages starting at `lba`.
    Read {
        /// First logical page.
        lba: Lba,
        /// Page count.
        pages: u32,
    },
    /// Write whole pages starting at `lba`.
    Write {
        /// First logical page.
        lba: Lba,
        /// Page-aligned payload.
        data: Vec<u8>,
    },
    /// Flush the write cache.
    Flush,
}

impl NvmeOp {
    fn bytes(&self, page_size: usize) -> u64 {
        match self {
            NvmeOp::Read { pages, .. } => u64::from(*pages) * page_size as u64,
            NvmeOp::Write { data, .. } => data.len() as u64,
            NvmeOp::Flush => 0,
        }
    }
}

/// A completion-queue entry: what happened to one command, and when.
#[derive(Debug, Clone)]
pub struct NvmeCompletion {
    /// Command identifier assigned at submission.
    pub id: u64,
    /// Queue pair the command travelled through.
    pub qid: usize,
    /// When the host placed the command in the SQ.
    pub submitted: SimTime,
    /// When firmware finished fetching/decoding it.
    pub fetched: SimTime,
    /// When the CQ entry was posted.
    pub completed: SimTime,
    /// Bytes moved (0 for flush or on error).
    pub bytes: u64,
    /// Where the command spent its virtual time, stage by stage
    /// (zero for flush or on error).
    pub breakdown: LatencyBreakdown,
    /// Read payload, or the device error.
    pub result: Result<Option<Vec<u8>>, SsdError>,
}

/// Error returned by [`NvmeSsd::submit`] when a submission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// The full queue.
    pub qid: usize,
    /// Its configured depth.
    pub depth: usize,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "submission queue {} full (depth {})",
            self.qid, self.depth
        )
    }
}

impl std::error::Error for QueueFull {}

#[derive(Debug, Clone)]
struct Sqe {
    id: u64,
    qid: usize,
    submitted: SimTime,
    op: NvmeOp,
}

/// An opaque calendar event of the queued datapath. Post nothing yourself:
/// events are created by [`NvmeSsd::submit`] and chained by
/// [`NvmeSsd::handle`]; the type is public only so callers can own the
/// `Executor<NvmeEvent>` that carries them.
#[derive(Debug, Clone)]
pub struct NvmeEvent(Kind);

#[derive(Debug, Clone)]
enum Kind {
    /// The host rang a doorbell: arbitrate and fetch pending SQEs.
    Doorbell,
    /// Firmware finished fetching a command; run its NAND/transfer stages.
    Fetched { cmd: Sqe, fw_end: SimTime },
    /// Post a CQ entry.
    Complete { entry: NvmeCompletion },
}

/// An [`Ssd`] fronted by NVMe-style queue pairs.
#[derive(Debug, Clone)]
pub struct NvmeSsd {
    ssd: Ssd,
    cfg: QueueConfig,
    sqs: Vec<VecDeque<Sqe>>,
    /// Commands fetched but not yet completed, per queue.
    inflight: Vec<usize>,
    /// Arbitration cursor: the queue the next round starts from.
    rr: usize,
    next_id: u64,
    completions: Vec<NvmeCompletion>,
    /// Commands fetched per queue, for fairness audits.
    fetches: Vec<u64>,
}

impl NvmeSsd {
    /// Fronts `ssd` with `cfg` queue pairs.
    pub fn new(ssd: Ssd, cfg: QueueConfig) -> Self {
        NvmeSsd {
            sqs: vec![VecDeque::new(); cfg.pairs],
            inflight: vec![0; cfg.pairs],
            rr: 0,
            next_id: 0,
            completions: Vec::new(),
            fetches: vec![0; cfg.pairs],
            ssd,
            cfg,
        }
    }

    /// Commands fetched per queue since construction — with every queue
    /// backlogged, round-robin arbitration keeps these within one command
    /// of each other.
    pub fn fetch_counts(&self) -> &[u64] {
        &self.fetches
    }

    /// The queue-pair shape.
    pub fn queue_config(&self) -> QueueConfig {
        self.cfg
    }

    /// The wrapped device.
    pub fn ssd(&self) -> &Ssd {
        &self.ssd
    }

    /// Mutable access to the wrapped device, e.g. to preload data through
    /// the synchronous API.
    pub fn ssd_mut(&mut self) -> &mut Ssd {
        &mut self.ssd
    }

    /// Unwraps the device.
    pub fn into_inner(self) -> Ssd {
        self.ssd
    }

    /// Commands queued or in flight on pair `qid`.
    pub fn outstanding(&self, qid: usize) -> usize {
        self.sqs[qid].len() + self.inflight[qid]
    }

    /// Returns `true` if pair `qid` can accept another command.
    pub fn can_submit(&self, qid: usize) -> bool {
        self.outstanding(qid) < self.cfg.depth
    }

    /// Places `op` in submission queue `qid` at `now` and rings the
    /// doorbell, returning the command id. The command executes when the
    /// calendar in `exec` is driven past `now`.
    ///
    /// # Errors
    ///
    /// Fails if the queue already holds `depth` outstanding commands.
    ///
    /// # Panics
    ///
    /// Panics if `qid` is out of bounds.
    pub fn submit(
        &mut self,
        exec: &mut Executor<NvmeEvent>,
        now: SimTime,
        qid: usize,
        op: NvmeOp,
    ) -> Result<u64, QueueFull> {
        if !self.can_submit(qid) {
            return Err(QueueFull {
                qid,
                depth: self.cfg.depth,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.sqs[qid].push_back(Sqe {
            id,
            qid,
            submitted: now,
            op,
        });
        exec.post(now, NvmeEvent(Kind::Doorbell));
        Ok(id)
    }

    /// Handles one calendar event. Drive the calendar with
    /// `exec.run(|ex, t, ev| dev.handle(ex, t, ev))`, then collect CQ
    /// entries with [`NvmeSsd::drain_completions`].
    pub fn handle(&mut self, exec: &mut Executor<NvmeEvent>, t: SimTime, event: NvmeEvent) {
        match event.0 {
            Kind::Doorbell => self.arbitrate(exec, t),
            Kind::Fetched { cmd, fw_end } => self.execute(exec, cmd, fw_end),
            Kind::Complete { entry } => {
                self.inflight[entry.qid] -= 1;
                self.completions.push(entry);
            }
        }
    }

    /// Round-robin arbitration: starting at the cursor, fetch one SQE per
    /// non-empty queue per round until every SQ is drained. Each fetch
    /// occupies a firmware core; the command's remaining stages run when the
    /// core releases it.
    fn arbitrate(&mut self, exec: &mut Executor<NvmeEvent>, t: SimTime) {
        let pairs = self.cfg.pairs;
        loop {
            let mut fetched_any = false;
            for k in 0..pairs {
                let qid = (self.rr + k) % pairs;
                let Some(cmd) = self.sqs[qid].pop_front() else {
                    continue;
                };
                fetched_any = true;
                self.inflight[qid] += 1;
                self.fetches[qid] += 1;
                let fw_time = match cmd.op {
                    NvmeOp::Read { .. } => self.ssd.config().fw_read,
                    NvmeOp::Write { .. } => self.ssd.config().fw_write,
                    // Flush is pure protocol: no firmware occupancy here;
                    // its cost is the cache drain in `Ssd::flush`.
                    NvmeOp::Flush => {
                        exec.post(t, NvmeEvent(Kind::Fetched { cmd, fw_end: t }));
                        continue;
                    }
                };
                let fw_end = self.ssd.fetch_stage(t, fw_time);
                exec.post(fw_end, NvmeEvent(Kind::Fetched { cmd, fw_end }));
            }
            if !fetched_any {
                break;
            }
            self.rr = (self.rr + 1) % pairs;
        }
    }

    /// Runs a fetched command's NAND/host-transfer stages and posts its CQ
    /// entry at the completion instant.
    fn execute(&mut self, exec: &mut Executor<NvmeEvent>, cmd: Sqe, fw_end: SimTime) {
        let bytes = cmd.op.bytes(self.ssd.page_size());
        let (completed, breakdown, result) = match cmd.op {
            NvmeOp::Read { lba, pages } => match self.ssd.queued_read(fw_end, lba, pages) {
                Ok(BlockRead {
                    data,
                    complete_at,
                    breakdown,
                }) => (complete_at, breakdown, Ok(Some(data))),
                Err(e) => (fw_end, LatencyBreakdown::ZERO, Err(e)),
            },
            NvmeOp::Write { lba, data } => match self.ssd.queued_write(fw_end, lba, &data) {
                Ok(ack) => (ack, self.ssd.last_breakdown(), Ok(None)),
                Err(e) => (fw_end, LatencyBreakdown::ZERO, Err(e)),
            },
            NvmeOp::Flush => (self.ssd.flush(fw_end), LatencyBreakdown::ZERO, Ok(None)),
        };
        let entry = NvmeCompletion {
            id: cmd.id,
            qid: cmd.qid,
            submitted: cmd.submitted,
            fetched: fw_end,
            completed,
            bytes: if result.is_ok() { bytes } else { 0 },
            breakdown,
            result,
        };
        exec.post(completed, NvmeEvent(Kind::Complete { entry }));
    }

    /// Takes every CQ entry posted so far, in completion order.
    pub fn drain_completions(&mut self) -> Vec<NvmeCompletion> {
        std::mem::take(&mut self.completions)
    }
}

/// Aggregate result of a closed-loop queue-pair drive (see the workload
/// layer's `ServiceDriver::run_nvme`).
#[derive(Debug, Clone)]
pub struct QdReport {
    /// Commands completed.
    pub ops: u64,
    /// Commands that completed with a device error.
    pub errors: u64,
    /// Payload bytes moved by successful commands.
    pub bytes: u64,
    /// When the drive started.
    pub epoch: SimTime,
    /// When the last command completed.
    pub makespan: SimTime,
    /// Submission-to-completion latency distribution.
    pub latency: Histogram,
}

impl QdReport {
    /// Payload bandwidth over the drive window, in bytes per virtual second.
    pub fn bytes_per_sec(&self) -> f64 {
        let secs = self.makespan.saturating_since(self.epoch).as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.bytes as f64 / secs
        }
    }

    /// Payload bandwidth in MB/s (decimal, as in the paper's figures).
    pub fn mb_per_sec(&self) -> f64 {
        self.bytes_per_sec() / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SsdConfig;

    fn preloaded(pages: u64, qcfg: QueueConfig) -> NvmeSsd {
        let mut dev = NvmeSsd::new(Ssd::new(SsdConfig::ull_ssd().small()), qcfg);
        let mut t = SimTime::ZERO;
        for i in 0..pages {
            t = dev
                .ssd_mut()
                .write(t, Lba(i), &vec![i as u8; 4096])
                .unwrap();
        }
        let settled = dev.ssd_mut().flush(t);
        // Park past the preload so measurements start on an idle device.
        assert!(settled < SimTime::from_nanos(100_000_000));
        dev
    }

    #[test]
    fn round_robin_interleaves_backlogged_queues() {
        let mut dev = preloaded(8, QueueConfig::new(2, 4));
        let mut exec = Executor::new();
        let start = SimTime::from_nanos(100_000_000);
        // Backlog both queues before driving: arbitration must alternate.
        for i in 0..4u64 {
            for qid in 0..2usize {
                dev.submit(
                    &mut exec,
                    start,
                    qid,
                    NvmeOp::Read {
                        lba: Lba(i),
                        pages: 1,
                    },
                )
                .unwrap();
            }
        }
        exec.run(|ex, t, ev| dev.handle(ex, t, ev));
        let done = dev.drain_completions();
        assert_eq!(done.len(), 8);
        let first_four: Vec<usize> = done[..4].iter().map(|c| c.qid).collect();
        assert!(
            first_four.windows(2).any(|w| w[0] != w[1]),
            "round-robin should interleave queue ids, got {first_four:?}"
        );
    }

    #[test]
    fn depth_cap_rejects_oversubmission() {
        let mut dev = NvmeSsd::new(
            Ssd::new(SsdConfig::ull_ssd().small()),
            QueueConfig::new(1, 2),
        );
        let mut exec = Executor::new();
        dev.submit(&mut exec, SimTime::ZERO, 0, NvmeOp::Flush)
            .unwrap();
        dev.submit(&mut exec, SimTime::ZERO, 0, NvmeOp::Flush)
            .unwrap();
        let err = dev
            .submit(&mut exec, SimTime::ZERO, 0, NvmeOp::Flush)
            .unwrap_err();
        assert_eq!(err, QueueFull { qid: 0, depth: 2 });
    }

    #[test]
    fn out_of_range_commands_surface_as_cq_errors() {
        let mut dev = NvmeSsd::new(
            Ssd::new(SsdConfig::ull_ssd().small()),
            QueueConfig::new(1, 4),
        );
        let cap = dev.ssd().capacity_pages();
        let mut exec = Executor::new();
        dev.submit(
            &mut exec,
            SimTime::ZERO,
            0,
            NvmeOp::Read {
                lba: Lba(cap),
                pages: 1,
            },
        )
        .unwrap();
        exec.run(|ex, t, ev| dev.handle(ex, t, ev));
        let done = dev.drain_completions();
        assert_eq!(
            done[0].result,
            Err(SsdError::OutOfRange {
                lba: cap,
                pages: 1,
                capacity: cap
            })
        );
    }

    #[test]
    fn arbitration_is_fair_across_backlogged_tenants() {
        let mut dev = preloaded(16, QueueConfig::new(4, 4));
        let mut exec = Executor::new();
        let start = SimTime::from_nanos(100_000_000);
        // Four tenants, each with an equal backlog of identical reads.
        for i in 0..4u64 {
            for qid in 0..4usize {
                dev.submit(
                    &mut exec,
                    start,
                    qid,
                    NvmeOp::Read {
                        lba: Lba(4 * qid as u64 + i),
                        pages: 1,
                    },
                )
                .unwrap();
            }
        }
        exec.run(|ex, t, ev| dev.handle(ex, t, ev));
        assert_eq!(dev.drain_completions().len(), 16);
        let fetches = dev.fetch_counts().to_vec();
        assert_eq!(fetches, vec![4, 4, 4, 4], "round-robin lost fairness");
    }
}
