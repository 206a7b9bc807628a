//! The block SSD device model.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use twob_ftl::{DieId, FtlIo, FtlOpKind, Lba, PageMappedFtl};
use twob_nand::NandArray;
use twob_sim::{Executor, LatencyBreakdown, MultiServer, Server, SimDuration, SimTime};

use crate::config::GcMode;
use crate::{SsdConfig, SsdError};

/// A completed block read.
#[derive(Debug, Clone)]
pub struct BlockRead {
    /// Concatenated page data.
    pub data: Vec<u8>,
    /// Virtual-time completion of the request.
    pub complete_at: SimTime,
    /// Per-stage latency attribution for this command.
    pub breakdown: LatencyBreakdown,
}

/// One write-cache page awaiting destage to NAND: a queued event on the
/// device's background stage. Admission order is preserved so destages hit
/// the FTL in the same order the host wrote.
#[derive(Debug, Clone)]
struct DumpReq {
    /// Earliest instant the destage may start (cache-insert time).
    at: SimTime,
    /// The cache slot being freed.
    slot: usize,
    /// Target logical address.
    lba: Lba,
    /// The cached page contents.
    data: Vec<u8>,
}

/// The write cache's slots: the instant each one's destage completes, and
/// a min-heap of `(free instant, slot)` that answers "earliest-free slot,
/// lowest index among ties" — the first minimum a scan of the slots finds
/// — without the scan. A heap entry is live only while its instant is
/// still its slot's; superseded entries are dropped as they surface.
#[derive(Debug, Clone)]
struct WriteCache {
    free_at: Vec<SimTime>,
    heap: BinaryHeap<Reverse<(SimTime, usize)>>,
}

impl WriteCache {
    fn new(slots: usize) -> Self {
        WriteCache {
            free_at: vec![SimTime::ZERO; slots],
            heap: (0..slots)
                .map(|slot| Reverse((SimTime::ZERO, slot)))
                .collect(),
        }
    }

    /// The earliest-free slot and the instant it frees.
    fn earliest(&mut self) -> (usize, SimTime) {
        loop {
            let Reverse((at, slot)) = *self.heap.peek().expect("every slot has a live entry");
            if self.free_at[slot] == at {
                return (slot, at);
            }
            self.heap.pop();
        }
    }

    /// Keeps `slot` busy until at least `at`.
    fn occupy_until(&mut self, slot: usize, at: SimTime) {
        if at > self.free_at[slot] {
            self.free_at[slot] = at;
            self.heap.push(Reverse((at, slot)));
        }
    }

    /// The instant the last slot frees.
    fn drained(&self) -> Option<SimTime> {
        self.free_at.iter().copied().max()
    }
}

/// Operational counters for a device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SsdStats {
    /// Host read commands served.
    pub read_cmds: u64,
    /// Host write commands served.
    pub write_cmds: u64,
    /// Pages read on behalf of the host.
    pub pages_read: u64,
    /// Pages written on behalf of the host.
    pub pages_written: u64,
    /// Host reads satisfied from the read-ahead buffer.
    pub prefetch_hits: u64,
    /// Pages prefetched by the read-ahead heuristic.
    pub prefetched_pages: u64,
    /// Flush commands served.
    pub flushes: u64,
    /// Block writes rejected by the LBA checker.
    pub gated_writes: u64,
    /// Pages moved over the internal (BA-buffer ↔ NAND) datapath.
    pub internal_pages: u64,
}

/// An NVMe-like block SSD with virtual-time scheduling.
///
/// See the crate docs for the model and [`SsdConfig`] for calibration. All
/// operations take the caller's current virtual time and return the
/// completion instant; the device keeps its own per-resource busy-until
/// state, so overlapping callers naturally queue.
#[derive(Debug, Clone)]
pub struct Ssd {
    cfg: SsdConfig,
    ftl: PageMappedFtl,
    fw_cores: MultiServer,
    dies: Vec<Server>,
    channels: Vec<Server>,
    host_read_link: Server,
    host_write_link: Server,
    internal_engine: Server,
    /// Write-cache slots; each holds the instant its destage completes.
    slots: WriteCache,
    /// Journal of writes whose destage may still be in flight, with the
    /// data they replaced (for volatile-cache power-loss rollback).
    pending: Vec<(SimTime, Lba, Option<Vec<u8>>)>,
    powered: bool,
    last_seq_end: Option<u64>,
    streak: u32,
    prefetched: HashMap<u64, (SimTime, Vec<u8>)>,
    /// LBA ranges `[start, end)` gated against block writes (the 2B-SSD
    /// "LBA checker"; unused unless a BA-buffer pins ranges).
    gated: Vec<(u64, u64)>,
    stats: SsdStats,
    /// Pending write-buffer dumps (background mode), in admission order.
    dumps: VecDeque<DumpReq>,
    /// Calendar of background GC steps (background mode); each event names
    /// the die whose job should take its next step.
    gc_events: Executor<DieId>,
    /// Per-die end of the latest GC occupancy, for wait attribution.
    gc_busy_die: Vec<SimTime>,
    /// Per-channel end of the latest GC occupancy, for wait attribution.
    gc_busy_chan: Vec<SimTime>,
    /// Per-stage accumulator for the command currently being scheduled.
    current: LatencyBreakdown,
}

/// Cap on retained prefetched pages to bound memory.
const PREFETCH_CAP: usize = 256;

/// Pages the sequential read-ahead heuristic prefetches ahead of a
/// detected streak.
const READ_AHEAD_PAGES: u64 = 32;

impl Ssd {
    /// Builds a device from a profile.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`SsdConfig::validate`]).
    pub fn new(cfg: SsdConfig) -> Self {
        cfg.validate().expect("invalid SsdConfig");
        let nand = match cfg.error_injection {
            Some(inj) => NandArray::with_error_model(
                cfg.geometry,
                cfg.flash.timing(),
                inj.ecc,
                inj.model,
                inj.seed,
            ),
            None => NandArray::new(cfg.geometry, cfg.flash.timing()),
        };
        let mut ftl = PageMappedFtl::new(nand, cfg.ftl);
        if cfg.gc_mode == GcMode::Background {
            ftl.set_background_gc(true);
        }
        let dies = cfg.geometry.dies_total() as usize;
        Ssd {
            fw_cores: MultiServer::new(cfg.firmware_cores as usize),
            dies: vec![Server::new(); dies],
            channels: vec![Server::new(); cfg.geometry.channels as usize],
            host_read_link: Server::new(),
            host_write_link: Server::new(),
            internal_engine: Server::new(),
            slots: WriteCache::new(cfg.write_cache_pages as usize),
            pending: Vec::new(),
            powered: true,
            last_seq_end: None,
            streak: 0,
            prefetched: HashMap::new(),
            gated: Vec::new(),
            stats: SsdStats::default(),
            dumps: VecDeque::new(),
            gc_events: Executor::new(),
            gc_busy_die: vec![SimTime::ZERO; dies],
            gc_busy_chan: vec![SimTime::ZERO; cfg.geometry.channels as usize],
            current: LatencyBreakdown::ZERO,
            ftl,
            cfg,
        }
    }

    /// The device's profile.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Profile name (e.g. `"ULL-SSD"`).
    pub fn label(&self) -> &str {
        &self.cfg.name
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.ftl.page_size()
    }

    /// Exported capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.ftl.exported_pages()
    }

    /// Operational counters.
    pub fn stats(&self) -> SsdStats {
        self.stats
    }

    /// The wrapped FTL (read-only), for WAF inspection.
    pub fn ftl(&self) -> &PageMappedFtl {
        &self.ftl
    }

    /// Mutable FTL access, for the 2B-SSD recovery manager's reserved-area
    /// I/O. Normal traffic must use [`Ssd::read`] / [`Ssd::write`].
    pub fn ftl_mut(&mut self) -> &mut PageMappedFtl {
        &mut self.ftl
    }

    fn die_index(&self, io: &FtlIo) -> usize {
        self.cfg.geometry.die_index(io.die.channel, io.die.way)
    }

    /// Returns `true` when background activities run as calendar events.
    fn background(&self) -> bool {
        self.cfg.gc_mode == GcMode::Background
    }

    /// Splits the delay between asking for a resource at `asked` and being
    /// granted it at `granted` into GC-induced wait (the part overlapping
    /// GC occupancy up to `gc_mark`) and plain queue wait.
    fn attribute_wait(&mut self, asked: SimTime, granted: SimTime, gc_mark: SimTime) {
        let wait = granted.saturating_since(asked);
        let gc_part = gc_mark.min(granted).saturating_since(asked).min(wait);
        self.current.gc_wait += gc_part;
        self.current.queue_wait += wait - gc_part;
    }

    /// Schedules one FTL-reported NAND operation on the die/channel
    /// resources starting no earlier than `start`; returns its end.
    ///
    /// Every span is attributed into the per-command breakdown, and spans
    /// belonging to GC traffic advance the per-die/per-channel GC occupancy
    /// marks that later foreground waits are attributed against.
    fn schedule_io(&mut self, start: SimTime, io: &FtlIo) -> SimTime {
        let die_idx = self.die_index(io);
        let chan_idx = io.die.channel as usize;
        let gc_io = matches!(
            io.kind,
            FtlOpKind::GcRead | FtlOpKind::GcProgram | FtlOpKind::Erase
        );
        match io.kind {
            FtlOpKind::HostRead | FtlOpKind::GcRead => {
                // Sense on the die, then move over the channel bus.
                let sense = self.dies[die_idx].schedule(start, io.timing.die_time);
                let xfer = self.channels[chan_idx].schedule(sense.end, io.timing.xfer_time);
                self.attribute_wait(start, sense.start, self.gc_busy_die[die_idx]);
                self.attribute_wait(sense.end, xfer.start, self.gc_busy_chan[chan_idx]);
                self.current.nand_busy += io.timing.die_time;
                self.current.xfer += io.timing.xfer_time;
                if gc_io {
                    self.gc_busy_die[die_idx] = self.gc_busy_die[die_idx].max(sense.end);
                    self.gc_busy_chan[chan_idx] = self.gc_busy_chan[chan_idx].max(xfer.end);
                }
                xfer.end
            }
            FtlOpKind::HostProgram | FtlOpKind::GcProgram => {
                // Move over the channel bus, then program. Multi-plane and
                // cache-program tricks let `program_parallelism` programs
                // overlap per die.
                let xfer = self.channels[chan_idx].schedule(start, io.timing.xfer_time);
                let effective = io.timing.die_time / u64::from(self.cfg.program_parallelism);
                let prog = self.dies[die_idx].schedule(xfer.end, effective);
                self.attribute_wait(start, xfer.start, self.gc_busy_chan[chan_idx]);
                self.attribute_wait(xfer.end, prog.start, self.gc_busy_die[die_idx]);
                self.current.xfer += io.timing.xfer_time;
                self.current.nand_busy += effective;
                if gc_io {
                    self.gc_busy_chan[chan_idx] = self.gc_busy_chan[chan_idx].max(xfer.end);
                    self.gc_busy_die[die_idx] = self.gc_busy_die[die_idx].max(prog.end);
                }
                prog.end
            }
            FtlOpKind::Erase => {
                let erase = self.dies[die_idx].schedule(start, io.timing.die_time);
                self.attribute_wait(start, erase.start, self.gc_busy_die[die_idx]);
                self.current.nand_busy += io.timing.die_time;
                if gc_io {
                    self.gc_busy_die[die_idx] = self.gc_busy_die[die_idx].max(erase.end);
                }
                erase.end
            }
        }
    }

    fn schedule_ios(&mut self, start: SimTime, ios: &[FtlIo]) -> SimTime {
        let mut end = start;
        for io in ios {
            end = end.max(self.schedule_io(start, io));
        }
        end
    }

    /// Brings background stages up to date before a foreground command is
    /// scheduled: pending buffer dumps are executed (they hold data that
    /// must be visible to reads and hold cache slots whose free time must
    /// be settled), and GC steps due by `now` fire. Then the per-command
    /// breakdown accumulator is reset for the caller.
    fn catch_up(&mut self, now: SimTime) -> Result<(), SsdError> {
        if self.background() {
            self.drain_dumps()?;
            self.drain_gc(now);
        }
        self.current = LatencyBreakdown::ZERO;
        Ok(())
    }

    /// Executes every pending write-buffer dump, in admission order so
    /// destages apply to the FTL in host write order.
    fn drain_dumps(&mut self) -> Result<(), SsdError> {
        while let Some(req) = self.dumps.pop_front() {
            self.execute_dump(req)?;
        }
        Ok(())
    }

    /// Executes one buffer dump: the deferred FTL program plus its NAND
    /// scheduling, freeing the cache slot when the program lands. May kick
    /// off background GC if the destage drained the free pool.
    fn execute_dump(&mut self, req: DumpReq) -> Result<(), SsdError> {
        // Snapshot old data for volatile-cache rollback, exactly as the
        // inline path does at this point of the pipeline.
        let old = if self.cfg.capacitor_backed_cache {
            None
        } else if self.ftl.is_mapped(req.lba) {
            Some(self.ftl.read(req.lba).map(|r| r.data)?)
        } else {
            None
        };
        let ios = self.ftl.write(req.lba, &req.data)?;
        let end = self.schedule_ios(req.at, &ios);
        self.slots.occupy_until(req.slot, end);
        if !self.cfg.capacitor_backed_cache {
            self.pending.push((end, req.lba, old));
        }
        self.maybe_start_gc(end);
        Ok(())
    }

    /// Plans a background GC job and posts its first step, if collection is
    /// needed and no job is already in flight.
    fn maybe_start_gc(&mut self, at: SimTime) {
        if !self.background() || !self.ftl.gc_needed() || self.ftl.gc_active() {
            return;
        }
        if let Ok(Some(die)) = self.ftl.gc_start() {
            self.gc_events.post(at, die);
        }
    }

    /// Fires background GC step events due by `until`.
    fn drain_gc(&mut self, until: SimTime) {
        let mut exec = std::mem::take(&mut self.gc_events);
        exec.run_until(until, |ex, t, die| self.gc_tick(ex, t, die));
        self.gc_events = exec;
    }

    /// Handles one GC step event: executes a single page move (or the final
    /// erase) on the FTL, schedules its NAND work on the shared die/channel
    /// servers, and chains the next step per the foreground-priority
    /// policy. Stops (abandoning the job) once the free pool is satisfied.
    fn gc_tick(&mut self, ex: &mut Executor<DieId>, t: SimTime, die: DieId) {
        if self.ftl.gc_satisfied() {
            self.ftl.gc_abandon(die);
            return;
        }
        match self.ftl.gc_step(die) {
            Ok(Some(step)) => {
                let end = self.schedule_ios(t, &step.ios);
                if step.done {
                    if self.ftl.gc_needed() {
                        if let Ok(Some(next)) = self.ftl.gc_start() {
                            ex.post(end, next);
                        }
                    }
                } else {
                    ex.post(end, die);
                }
            }
            // Job vanished (an emergency collection finished it first).
            Ok(None) => {}
            // Relocation found no room; abandon and let the emergency
            // path in the FTL recover on the next write.
            Err(_) => {
                self.ftl.gc_abandon(die);
            }
        }
    }

    /// Advances background stages (buffer dumps and GC steps) up to `now`
    /// without scheduling any foreground work. The calendar layer calls
    /// this when dispatching, so background traffic contends in virtual
    /// time even across operations that never touch NAND.
    pub fn drive_background(&mut self, now: SimTime) {
        if !self.background() {
            return;
        }
        let _ = self.drain_dumps();
        self.drain_gc(now);
    }

    /// Runs every pending background event (dumps, then chained GC steps)
    /// to completion, returning the instant the device goes idle. Benches
    /// call this to settle the device between phases.
    pub fn quiesce_background(&mut self) -> SimTime {
        let _ = self.drain_dumps();
        if self.background() {
            let mut exec = std::mem::take(&mut self.gc_events);
            exec.run(|ex, t, die| self.gc_tick(ex, t, die));
            self.gc_events = exec;
        }
        let slots_idle = self.slots.drained().unwrap_or(SimTime::ZERO);
        let gc_idle = self
            .gc_busy_die
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO);
        slots_idle.max(gc_idle)
    }

    /// How many background GC events were posted at instants already in the
    /// past and clamped to the calendar's current time. Always zero on a
    /// healthy device: GC steps chain strictly forward from the step that
    /// scheduled them. Bench suites assert on this to catch scheduling bugs
    /// that the clamp would otherwise paper over.
    pub fn gc_clamped_posts(&self) -> u64 {
        self.gc_events.clamped_posts()
    }

    /// Per-stage breakdown of the most recently scheduled command.
    pub fn last_breakdown(&self) -> LatencyBreakdown {
        self.current
    }

    /// Checks a request of `pages` pages at `lba` against the exported
    /// capacity, as every block command does before it runs.
    ///
    /// # Errors
    ///
    /// [`SsdError::EmptyRequest`] for zero pages,
    /// [`SsdError::OutOfRange`] past the capacity.
    pub fn check_range(&self, lba: Lba, pages: u32) -> Result<(), SsdError> {
        if pages == 0 {
            return Err(SsdError::EmptyRequest);
        }
        let capacity = self.ftl.exported_pages();
        if lba.0.saturating_add(u64::from(pages)) > capacity {
            return Err(SsdError::OutOfRange {
                lba: lba.0,
                pages,
                capacity,
            });
        }
        Ok(())
    }

    fn check_power(&self) -> Result<(), SsdError> {
        if self.powered {
            Ok(())
        } else {
            Err(SsdError::PoweredOff)
        }
    }

    /// Registers an LBA range `[start, start+pages)` with the LBA checker:
    /// block writes overlapping it are rejected until unpinned. Used by the
    /// 2B-SSD BA-buffer manager (paper §III-A2).
    pub fn lba_checker_pin(&mut self, start: Lba, pages: u32) {
        self.gated.push((start.0, start.0 + u64::from(pages)));
    }

    /// Removes a previously pinned range. Unknown ranges are ignored.
    pub fn lba_checker_unpin(&mut self, start: Lba, pages: u32) {
        let range = (start.0, start.0 + u64::from(pages));
        if let Some(pos) = self.gated.iter().position(|&r| r == range) {
            self.gated.swap_remove(pos);
        }
    }

    /// Returns the first gated LBA overlapped by `[lba, lba+pages)`, if any.
    pub fn gated_overlap(&self, lba: Lba, pages: u32) -> Option<u64> {
        let (a, b) = (lba.0, lba.0 + u64::from(pages));
        self.gated
            .iter()
            .find(|&&(s, e)| a < e && s < b)
            .map(|&(s, _)| s.max(a))
    }

    /// Reads `pages` pages starting at `lba`.
    ///
    /// # Errors
    ///
    /// Fails when powered off, out of range, or reading an unmapped LBA.
    pub fn read(&mut self, now: SimTime, lba: Lba, pages: u32) -> Result<BlockRead, SsdError> {
        self.check_power()?;
        self.check_range(lba, pages)?;
        self.catch_up(now)?;
        let fw_end = self.fetch_stage(now, self.cfg.fw_read);
        self.read_body(fw_end, lba, pages)
    }

    /// Occupies a firmware core for `service` starting at `at` — the NVMe
    /// command fetch/decode stage — returning when the core is done. Shared
    /// by the synchronous API above and the queued front end in
    /// [`crate::NvmeSsd`], so both contend for the same cores.
    pub(crate) fn fetch_stage(&mut self, at: SimTime, service: SimDuration) -> SimTime {
        self.fw_cores.schedule(at, service).end
    }

    /// The NAND + host-transfer stages of a read, starting once firmware has
    /// decoded the command at `fw_end`.
    pub(crate) fn read_body(
        &mut self,
        fw_end: SimTime,
        lba: Lba,
        pages: u32,
    ) -> Result<BlockRead, SsdError> {
        let page_size = self.page_size();
        self.current.firmware += self.cfg.fw_read;
        let mut data = Vec::with_capacity(page_size * pages as usize);
        let mut host_ready = Vec::with_capacity(pages as usize);
        for i in 0..u64::from(pages) {
            let cur = Lba(lba.0 + i);
            if let Some((ready, bytes)) = self.prefetched.remove(&cur.0) {
                self.stats.prefetch_hits += 1;
                data.extend_from_slice(&bytes);
                host_ready.push(fw_end.max(ready));
            } else {
                let result = self.ftl.read(cur)?;
                let end = self.schedule_ios(fw_end, &result.ios);
                data.extend_from_slice(&result.data);
                host_ready.push(end);
            }
        }
        // Host transfers serialize on the read link in page order.
        let mut complete_at = fw_end;
        let xfer = self.cfg.host_read_xfer(page_size as u64);
        for ready in host_ready {
            let span = self.host_read_link.schedule(ready, xfer);
            self.attribute_wait(ready, span.start, SimTime::ZERO);
            self.current.xfer += xfer;
            complete_at = span.end;
        }
        self.stats.read_cmds += 1;
        self.stats.pages_read += u64::from(pages);
        self.update_read_ahead(fw_end, lba, pages);
        Ok(BlockRead {
            data,
            complete_at,
            breakdown: self.current,
        })
    }

    /// Detects sequential streaks and prefetches ahead of them.
    fn update_read_ahead(&mut self, start: SimTime, lba: Lba, pages: u32) {
        let end = lba.0 + u64::from(pages);
        let sequential = self.last_seq_end == Some(lba.0);
        self.last_seq_end = Some(end);
        self.streak = if sequential { self.streak + 1 } else { 0 };
        if self.streak < 2 {
            return;
        }
        if self.prefetched.len() >= PREFETCH_CAP {
            self.prefetched.clear();
        }
        for ahead in 0..READ_AHEAD_PAGES {
            let next = Lba(end + ahead);
            if next.0 >= self.ftl.exported_pages() || self.prefetched.contains_key(&next.0) {
                continue;
            }
            let Ok(result) = self.ftl.read(next) else {
                break; // ran past written data
            };
            let ready = self.schedule_ios(start, &result.ios);
            self.prefetched.insert(next.0, (ready, result.data));
            self.stats.prefetched_pages += 1;
        }
    }

    /// Drops stale rollback-journal entries.
    fn prune_pending(&mut self, now: SimTime) {
        self.pending.retain(|(end, _, _)| *end > now);
    }

    /// Writes whole pages starting at `lba`. Completion is the instant the
    /// last page entered the write cache (which is persistent when
    /// `capacitor_backed_cache` is set).
    ///
    /// # Errors
    ///
    /// Fails when powered off, out of range, unaligned, or when the range
    /// is gated by the LBA checker.
    pub fn write(&mut self, now: SimTime, lba: Lba, data: &[u8]) -> Result<SimTime, SsdError> {
        self.write_checks(lba, data)?;
        self.catch_up(now)?;
        self.prune_pending(now);
        let fw_end = self.fetch_stage(now, self.cfg.fw_write);
        self.write_body(fw_end, lba, data)
    }

    /// Validation shared by the synchronous and queued write paths: power,
    /// alignment, capacity, and the LBA checker.
    fn write_checks(&mut self, lba: Lba, data: &[u8]) -> Result<(), SsdError> {
        self.check_power()?;
        let page_size = self.page_size();
        if data.is_empty() || !data.len().is_multiple_of(page_size) {
            return Err(SsdError::UnalignedWrite {
                got: data.len(),
                page_size,
            });
        }
        let pages = (data.len() / page_size) as u32;
        self.check_range(lba, pages)?;
        if let Some(gated_lba) = self.gated_overlap(lba, pages) {
            self.stats.gated_writes += 1;
            return Err(SsdError::GatedByLbaChecker { lba: gated_lba });
        }
        Ok(())
    }

    /// Validation plus the post-fetch stages of a read, for the queued front
    /// end (which runs the fetch stage as its own calendar event).
    pub(crate) fn queued_read(
        &mut self,
        fw_end: SimTime,
        lba: Lba,
        pages: u32,
    ) -> Result<BlockRead, SsdError> {
        self.check_power()?;
        self.check_range(lba, pages)?;
        self.catch_up(fw_end)?;
        self.read_body(fw_end, lba, pages)
    }

    /// Validation plus the post-fetch stages of a write, for the queued
    /// front end.
    pub(crate) fn queued_write(
        &mut self,
        fw_end: SimTime,
        lba: Lba,
        data: &[u8],
    ) -> Result<SimTime, SsdError> {
        self.write_checks(lba, data)?;
        self.catch_up(fw_end)?;
        self.prune_pending(fw_end);
        self.write_body(fw_end, lba, data)
    }

    /// The host-transfer + cache-insert + destage stages of a write,
    /// starting once firmware has decoded the command at `fw_end`.
    fn write_body(&mut self, fw_end: SimTime, lba: Lba, data: &[u8]) -> Result<SimTime, SsdError> {
        let page_size = self.page_size();
        let pages = (data.len() / page_size) as u32;
        let xfer = self.cfg.host_write_xfer(page_size as u64);
        self.current.firmware += self.cfg.fw_write;
        let mut ack = fw_end;
        for (i, chunk) in data.chunks_exact(page_size).enumerate() {
            let cur = Lba(lba.0 + i as u64);
            // Host transfer into the device.
            let link = self.host_write_link.schedule(fw_end, xfer);
            self.attribute_wait(fw_end, link.start, SimTime::ZERO);
            self.current.xfer += xfer;
            let arrived = link.end;
            // Invalidate any prefetched copy.
            if !self.prefetched.is_empty() {
                self.prefetched.remove(&cur.0);
            }
            if self.background() {
                // Settle any dump still pending (it may hold the slot we
                // are about to pick), then insert into the earliest-free
                // slot and queue the destage as a background event.
                self.drain_dumps()?;
                let (slot_idx, free_at) = self.slots.earliest();
                let inserted = arrived.max(free_at);
                self.current.slot_wait += inserted.saturating_since(arrived);
                self.slots.occupy_until(slot_idx, inserted);
                self.dumps.push_back(DumpReq {
                    at: inserted,
                    slot: slot_idx,
                    lba: cur,
                    data: chunk.to_vec(),
                });
                ack = ack.max(inserted);
                continue;
            }
            // Inline mode: snapshot old data for volatile-cache rollback.
            let old = if self.cfg.capacitor_backed_cache {
                None
            } else if self.ftl.is_mapped(cur) {
                Some(self.ftl.read(cur).map(|r| r.data)?)
            } else {
                None
            };
            // Acquire the earliest-free cache slot; the write is
            // acknowledged on insertion.
            let (slot_idx, free_at) = self.slots.earliest();
            let inserted = arrived.max(free_at);
            self.current.slot_wait += inserted.saturating_since(arrived);
            // Destage to NAND in the background; the slot frees when the
            // program (and any GC it triggered) completes.
            let ios = self.ftl.write(cur, chunk)?;
            let end = self.schedule_ios(inserted, &ios);
            self.slots.occupy_until(slot_idx, end);
            if !self.cfg.capacitor_backed_cache {
                self.pending.push((end, cur, old));
            }
            ack = ack.max(inserted);
        }
        self.stats.write_cmds += 1;
        self.stats.pages_written += u64::from(pages);
        Ok(ack)
    }

    /// TRIM (NVMe Dataset Management deallocate): drops the mapping for
    /// `pages` pages starting at `lba`. Costs one firmware command; the
    /// pages afterwards read as unmapped.
    ///
    /// # Errors
    ///
    /// Fails when powered off, out of range, or when the range is gated by
    /// the LBA checker (deallocating pinned pages would desynchronize the
    /// byte view exactly like a write would).
    pub fn trim(&mut self, now: SimTime, lba: Lba, pages: u32) -> Result<SimTime, SsdError> {
        self.check_power()?;
        self.check_range(lba, pages)?;
        if let Some(gated_lba) = self.gated_overlap(lba, pages) {
            self.stats.gated_writes += 1;
            return Err(SsdError::GatedByLbaChecker { lba: gated_lba });
        }
        // Dumps targeting these LBAs must apply before the deallocate, to
        // keep host write→trim ordering.
        self.catch_up(now)?;
        let fw = self.fw_cores.schedule(now, self.cfg.fw_write);
        for i in 0..u64::from(pages) {
            let cur = Lba(lba.0 + i);
            self.prefetched.remove(&cur.0);
            self.ftl.trim(cur)?;
        }
        Ok(fw.end)
    }

    /// Flushes the write cache. For capacitor-backed caches the data is
    /// already persistent, so only a protocol acknowledgement is paid; for
    /// volatile caches the call waits for every outstanding destage.
    pub fn flush(&mut self, now: SimTime) -> SimTime {
        self.stats.flushes += 1;
        if self.background() {
            // A flush covers every pending dump: execute them so the slot
            // drain below reflects their completion.
            let _ = self.drain_dumps();
            self.drain_gc(now);
        }
        if self.cfg.capacitor_backed_cache {
            now + self.cfg.flush_ack
        } else {
            let drained = self.slots.drained().unwrap_or(now);
            self.prune_pending(drained);
            drained.max(now) + self.cfg.flush_ack
        }
    }

    /// Reads pages over the internal datapath (BA-buffer ↔ NAND), bypassing
    /// the host interface. Used by `BA_PIN` (paper §III-A2).
    ///
    /// # Errors
    ///
    /// As for [`Ssd::read`].
    ///
    /// # Panics
    ///
    /// Panics if the profile has no internal datapath.
    pub fn internal_read_pages(
        &mut self,
        now: SimTime,
        lba: Lba,
        pages: u32,
    ) -> Result<BlockRead, SsdError> {
        self.check_power()?;
        self.check_range(lba, pages)?;
        self.catch_up(now)?;
        let page_size = self.page_size();
        let engine_per_page = self.cfg.internal_xfer(page_size as u64);
        let mut data = Vec::with_capacity(page_size * pages as usize);
        let mut complete_at = now;
        for i in 0..u64::from(pages) {
            let cur = Lba(lba.0 + i);
            if self.ftl.is_mapped(cur) {
                let result = self.ftl.read(cur)?;
                let nand_done = self.schedule_ios(now, &result.ios);
                data.extend_from_slice(&result.data);
                let span = self.internal_engine.schedule(nand_done, engine_per_page);
                self.attribute_wait(nand_done, span.start, SimTime::ZERO);
                self.current.xfer += engine_per_page;
                complete_at = complete_at.max(span.end);
            } else {
                // Unwritten pages read as zeroes, like a fresh drive.
                data.extend_from_slice(&vec![0u8; page_size]);
                let span = self.internal_engine.schedule(now, engine_per_page);
                self.attribute_wait(now, span.start, SimTime::ZERO);
                self.current.xfer += engine_per_page;
                complete_at = complete_at.max(span.end);
            }
            self.stats.internal_pages += 1;
        }
        Ok(BlockRead {
            data,
            complete_at,
            breakdown: self.current,
        })
    }

    /// Writes whole pages over the internal datapath. Completion is when
    /// the data is durable on NAND (this is the cost of `BA_FLUSH`).
    ///
    /// # Errors
    ///
    /// As for [`Ssd::write`], except the LBA checker does not gate this
    /// path — it *is* the BA-buffer's path.
    ///
    /// # Panics
    ///
    /// Panics if the profile has no internal datapath.
    pub fn internal_write_pages(
        &mut self,
        now: SimTime,
        lba: Lba,
        data: &[u8],
    ) -> Result<SimTime, SsdError> {
        self.check_power()?;
        let page_size = self.page_size();
        if data.is_empty() || !data.len().is_multiple_of(page_size) {
            return Err(SsdError::UnalignedWrite {
                got: data.len(),
                page_size,
            });
        }
        let pages = (data.len() / page_size) as u32;
        self.check_range(lba, pages)?;
        self.catch_up(now)?;
        let engine_per_page = self.cfg.internal_xfer(page_size as u64);
        let mut complete_at = now;
        for (i, chunk) in data.chunks_exact(page_size).enumerate() {
            let cur = Lba(lba.0 + i as u64);
            self.prefetched.remove(&cur.0);
            let staged = self.internal_engine.schedule(now, engine_per_page).end;
            let ios = self.ftl.write(cur, chunk)?;
            complete_at = complete_at.max(self.schedule_ios(staged, &ios));
            self.stats.internal_pages += 1;
        }
        // A BA flush can drain the free pool just like a destage can.
        self.maybe_start_gc(complete_at);
        Ok(complete_at)
    }

    /// Returns `true` while the device has power.
    pub fn is_powered(&self) -> bool {
        self.powered
    }

    /// Simulates losing power at `now`. Capacitor-backed caches destage on
    /// stored energy and lose nothing; volatile caches roll back writes
    /// whose destage had not completed.
    pub fn power_loss(&mut self, now: SimTime) {
        if self.background() {
            // Capacitor-backed caches destage pending dumps on stored
            // energy; volatile caches apply them too, and the rollback
            // below then undoes everything whose destage missed the cut.
            let _ = self.drain_dumps();
            // In-flight GC evaporates with the controller state.
            let _ = std::mem::take(&mut self.gc_events);
            self.ftl.gc_abandon_all();
        }
        self.powered = false;
        self.prefetched.clear();
        self.streak = 0;
        self.last_seq_end = None;
        // LBA-checker state lives in controller SRAM; whoever restores the
        // mapping table at power-on re-arms it.
        self.gated.clear();
        if self.cfg.capacitor_backed_cache {
            self.pending.clear();
            return;
        }
        // Roll back in-flight writes, newest first, restoring what the
        // medium held before them.
        let mut lost: Vec<(SimTime, Lba, Option<Vec<u8>>)> = self
            .pending
            .drain(..)
            .filter(|(end, _, _)| *end > now)
            .collect();
        lost.sort_by_key(|(end, _, _)| std::cmp::Reverse(*end));
        for (_, lba, old) in lost {
            match old {
                Some(bytes) => {
                    let _ = self.ftl.write(lba, &bytes);
                }
                None => {
                    let _ = self.ftl.trim(lba);
                }
            }
        }
    }

    /// Restores power. Resource timelines are reset to `now`.
    pub fn power_on(&mut self, _now: SimTime) {
        self.powered = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twob_sim::SimDuration;

    fn ull() -> Ssd {
        Ssd::new(SsdConfig::ull_ssd().small())
    }

    fn page(byte: u8) -> Vec<u8> {
        vec![byte; 4096]
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut ssd = ull();
        let done = ssd.write(SimTime::ZERO, Lba(2), &page(0xAA)).unwrap();
        let read = ssd.read(done, Lba(2), 1).unwrap();
        assert_eq!(read.data, page(0xAA));
        assert!(read.complete_at > done);
    }

    #[test]
    fn ull_4k_latencies_match_paper() {
        let mut ssd = ull();
        let w_done = ssd.write(SimTime::ZERO, Lba(0), &page(1)).unwrap();
        let write_us = w_done.saturating_since(SimTime::ZERO).as_micros_f64();
        assert!(
            (8.0..12.0).contains(&write_us),
            "ULL 4K write {write_us:.1} us, paper says ~10"
        );
        let start = SimTime::from_nanos(1_000_000_000);
        let r = ssd.read(start, Lba(0), 1).unwrap();
        let read_us = r.complete_at.saturating_since(start).as_micros_f64();
        assert!(
            (11.0..16.0).contains(&read_us),
            "ULL 4K read {read_us:.1} us, paper says ~13.2"
        );
    }

    #[test]
    fn dc_4k_latencies_match_paper() {
        let mut ssd = Ssd::new(SsdConfig::dc_ssd().small());
        let w_done = ssd.write(SimTime::ZERO, Lba(0), &page(1)).unwrap();
        let write_us = w_done.saturating_since(SimTime::ZERO).as_micros_f64();
        assert!(
            (15.0..20.0).contains(&write_us),
            "DC 4K write {write_us:.1} us, paper says ~17"
        );
        let start = SimTime::from_nanos(1_000_000_000);
        let r = ssd.read(start, Lba(0), 1).unwrap();
        let read_us = r.complete_at.saturating_since(start).as_micros_f64();
        assert!(
            (70.0..95.0).contains(&read_us),
            "DC 4K read {read_us:.1} us, paper says ~83"
        );
    }

    #[test]
    fn rejects_bad_requests() {
        let mut ssd = ull();
        assert!(matches!(
            ssd.read(SimTime::ZERO, Lba(0), 0),
            Err(SsdError::EmptyRequest)
        ));
        assert!(matches!(
            ssd.write(SimTime::ZERO, Lba(0), &[0u8; 100]),
            Err(SsdError::UnalignedWrite { .. })
        ));
        let cap = ssd.capacity_pages();
        assert!(matches!(
            ssd.read(SimTime::ZERO, Lba(cap), 1),
            Err(SsdError::OutOfRange { .. })
        ));
        assert!(matches!(
            ssd.read(SimTime::ZERO, Lba(0), 1),
            Err(SsdError::Unmapped(0))
        ));
    }

    #[test]
    fn lba_checker_gates_block_writes() {
        let mut ssd = ull();
        ssd.write(SimTime::ZERO, Lba(4), &page(1)).unwrap();
        ssd.lba_checker_pin(Lba(4), 2);
        let err = ssd.write(SimTime::ZERO, Lba(5), &page(2)).unwrap_err();
        assert!(matches!(err, SsdError::GatedByLbaChecker { lba: 5 }));
        // Reads are not gated, and non-overlapping writes pass.
        assert!(ssd.read(SimTime::ZERO, Lba(4), 1).is_ok());
        assert!(ssd.write(SimTime::ZERO, Lba(6), &page(3)).is_ok());
        ssd.lba_checker_unpin(Lba(4), 2);
        assert!(ssd.write(SimTime::ZERO, Lba(5), &page(2)).is_ok());
        assert_eq!(ssd.stats().gated_writes, 1);
    }

    #[test]
    fn flush_is_cheap_with_capacitors() {
        let mut ssd = ull();
        ssd.write(SimTime::ZERO, Lba(0), &page(1)).unwrap();
        let done = ssd.flush(SimTime::from_nanos(20_000));
        assert!(done.saturating_since(SimTime::from_nanos(20_000)) <= SimDuration::from_micros(10));
    }

    #[test]
    fn powered_off_device_refuses() {
        let mut ssd = ull();
        ssd.write(SimTime::ZERO, Lba(0), &page(1)).unwrap();
        ssd.power_loss(SimTime::from_nanos(100));
        assert!(matches!(
            ssd.read(SimTime::from_nanos(200), Lba(0), 1),
            Err(SsdError::PoweredOff)
        ));
        ssd.power_on(SimTime::from_nanos(300));
        assert_eq!(
            ssd.read(SimTime::from_nanos(300), Lba(0), 1).unwrap().data,
            page(1)
        );
    }

    #[test]
    fn capacitor_cache_survives_power_loss() {
        let mut ssd = ull();
        // Ack arrives before destage completes; cut power immediately.
        let ack = ssd.write(SimTime::ZERO, Lba(7), &page(0x77)).unwrap();
        ssd.power_loss(ack);
        ssd.power_on(ack);
        assert_eq!(ssd.read(ack, Lba(7), 1).unwrap().data, page(0x77));
    }

    #[test]
    fn volatile_cache_loses_inflight_writes() {
        let mut cfg = SsdConfig::ull_ssd().small();
        cfg.capacitor_backed_cache = false;
        let mut ssd = Ssd::new(cfg);
        let t0 = SimTime::ZERO;
        ssd.write(t0, Lba(3), &page(0x01)).unwrap();
        // Let the first write destage fully.
        let settled = ssd.flush(t0);
        // Second write acks, then power dies before its destage completes.
        let ack = ssd.write(settled, Lba(3), &page(0x02)).unwrap();
        ssd.power_loss(ack);
        ssd.power_on(ack);
        assert_eq!(
            ssd.read(ack, Lba(3), 1).unwrap().data,
            page(0x01),
            "in-flight write should have rolled back"
        );
    }

    #[test]
    fn sequential_reads_trigger_prefetch() {
        let mut ssd = Ssd::new(SsdConfig::dc_ssd().small());
        let mut t = SimTime::ZERO;
        for i in 0..32u64 {
            t = ssd.write(t, Lba(i), &page(i as u8)).unwrap();
        }
        t = ssd.flush(t);
        for i in 0..32u64 {
            let r = ssd.read(t, Lba(i), 1).unwrap();
            assert_eq!(r.data, page(i as u8));
            t = r.complete_at;
        }
        let stats = ssd.stats();
        assert!(stats.prefetched_pages > 0, "read-ahead never kicked in");
        assert!(stats.prefetch_hits > 0, "prefetched pages never hit");
    }

    #[test]
    fn prefetch_hit_is_faster_than_cold_read() {
        let mut ssd = Ssd::new(SsdConfig::dc_ssd().small());
        let mut t = SimTime::ZERO;
        for i in 0..16u64 {
            t = ssd.write(t, Lba(i), &page(i as u8)).unwrap();
        }
        t = ssd.flush(t) + SimDuration::from_millis(10);
        // Prime the streak.
        let mut last = SimDuration::ZERO;
        let mut first = SimDuration::ZERO;
        for i in 0..8u64 {
            let r = ssd.read(t, Lba(i), 1).unwrap();
            let lat = r.complete_at.saturating_since(t);
            if i == 0 {
                first = lat;
            }
            last = lat;
            t = r.complete_at + SimDuration::from_millis(1);
        }
        assert!(
            last.as_nanos() * 2 < first.as_nanos(),
            "prefetch-hit read ({last}) should be much faster than cold ({first})"
        );
    }

    #[test]
    fn internal_datapath_moves_data_and_costs_time() {
        let mut ssd = Ssd::new(SsdConfig::base_2b().small());
        let done = ssd
            .internal_write_pages(SimTime::ZERO, Lba(0), &page(0x5A))
            .unwrap();
        // Durable-on-NAND completion includes a program.
        assert!(done.saturating_since(SimTime::ZERO) >= SimDuration::from_micros(10));
        let read = ssd.internal_read_pages(done, Lba(0), 1).unwrap();
        assert_eq!(read.data, page(0x5A));
        assert_eq!(ssd.stats().internal_pages, 2);
    }

    #[test]
    fn internal_read_of_unwritten_page_is_zeroes() {
        let mut ssd = Ssd::new(SsdConfig::base_2b().small());
        let read = ssd.internal_read_pages(SimTime::ZERO, Lba(5), 1).unwrap();
        assert_eq!(read.data, vec![0u8; 4096]);
    }

    #[test]
    fn multi_page_write_acks_in_order() {
        let mut ssd = ull();
        let two_pages = [page(1), page(2)].concat();
        let ack = ssd.write(SimTime::ZERO, Lba(0), &two_pages).unwrap();
        let r = ssd.read(ack, Lba(0), 2).unwrap();
        assert_eq!(&r.data[..4096], page(1).as_slice());
        assert_eq!(&r.data[4096..], page(2).as_slice());
    }

    fn background_small() -> Ssd {
        Ssd::new(SsdConfig::ull_ssd().small().with_background_gc())
    }

    /// Closed-loop overwrite churn: fills the LBA space, then overwrites
    /// with a stride pattern until GC has plenty of work. Returns each
    /// write's ack latency in issue order.
    fn churn(ssd: &mut Ssd, rounds: u64) -> Vec<SimDuration> {
        let lbas = ssd.capacity_pages();
        let mut t = SimTime::ZERO;
        let mut lats = Vec::new();
        for i in 0..lbas {
            let ack = ssd.write(t, Lba(i), &page(i as u8)).unwrap();
            lats.push(ack.saturating_since(t));
            t = ack;
        }
        for i in 0..rounds {
            let lba = (i * 7) % lbas;
            let ack = ssd.write(t, Lba(lba), &page(!(i as u8))).unwrap();
            lats.push(ack.saturating_since(t));
            t = ack;
        }
        lats
    }

    #[test]
    fn background_write_round_trips_and_survives_quiesce() {
        let mut ssd = background_small();
        let ack = ssd.write(SimTime::ZERO, Lba(9), &page(0x3C)).unwrap();
        let r = ssd.read(ack, Lba(9), 1).unwrap();
        assert_eq!(r.data, page(0x3C));
        let idle = ssd.quiesce_background();
        let r2 = ssd.read(idle, Lba(9), 1).unwrap();
        assert_eq!(r2.data, page(0x3C));
    }

    #[test]
    fn background_gc_runs_and_keeps_data_intact() {
        let mut ssd = background_small();
        let lats = churn(&mut ssd, 600);
        assert!(!lats.is_empty());
        let idle = ssd.quiesce_background();
        assert_eq!(ssd.gc_clamped_posts(), 0, "GC chained a step into the past");
        let stats = ssd.ftl().stats();
        assert!(stats.erases > 0, "background GC never erased a block");
        let (started, _) = ssd.ftl().gc_job_counts();
        assert!(started > 0, "no incremental GC job ever started");
        // Last writer wins: LBA 0 was overwritten whenever (i*7) % lbas == 0.
        let lbas = ssd.capacity_pages();
        let last_round = (0..600u64).rev().find(|i| (i * 7) % lbas == 0).unwrap();
        let r = ssd.read(idle, Lba(0), 1).unwrap();
        assert_eq!(r.data, page(!(last_round as u8)));
    }

    #[test]
    fn background_gc_inflates_write_tail_latency() {
        let mut ssd = background_small();
        let lats = churn(&mut ssd, 600);
        ssd.quiesce_background();
        assert!(ssd.ftl().stats().erases > 0, "GC never ran");
        // The first writes land on a fresh drive; the churn tail contends
        // with GC page moves on the same dies.
        let head_max = lats[..16].iter().max().copied().unwrap();
        let tail_max = lats[lats.len() - 200..].iter().max().copied().unwrap();
        assert!(
            tail_max > head_max,
            "GC churn tail ({tail_max}) should exceed fresh-drive max ({head_max})"
        );
    }

    #[test]
    fn background_breakdown_attributes_gc_wait() {
        // A capacitor-backed write acks at slot insertion, so GC shows up
        // there as slot wait; it is *reads* — which schedule NAND sense ops
        // on the contended dies — that carry an explicit gc_wait component.
        let mut ssd = background_small();
        let lbas = ssd.capacity_pages();
        let mut t = SimTime::ZERO;
        for i in 0..lbas {
            t = ssd.write(t, Lba(i), &page(i as u8)).unwrap();
        }
        let mut saw_gc_wait = false;
        let mut saw_slot_wait = false;
        for i in 0..600u64 {
            let ack = ssd
                .write(t, Lba((i * 7) % lbas), &page(!(i as u8)))
                .unwrap();
            if ssd.last_breakdown().slot_wait > SimDuration::ZERO {
                saw_slot_wait = true;
            }
            t = ack;
            if i % 16 == 0 {
                // Probe a cold LBA away from the churn frontier so the read
                // misses the write cache and lands on NAND.
                let lba = (i * 7 + lbas / 2) % lbas;
                let r = ssd.read(t, Lba(lba), 1).unwrap();
                if r.breakdown.gc_wait > SimDuration::ZERO {
                    saw_gc_wait = true;
                }
                t = r.complete_at;
            }
        }
        assert!(
            saw_slot_wait,
            "no write ever waited on a cache slot during a GC storm"
        );
        assert!(
            saw_gc_wait,
            "no read ever observed GC-induced wait during a GC storm"
        );
    }

    #[test]
    fn background_gc_is_deterministic() {
        let run = || {
            let mut ssd = background_small();
            let lats = churn(&mut ssd, 400);
            let idle = ssd.quiesce_background();
            (lats, idle, format!("{:?}", ssd.ftl().stats()))
        };
        let (lats_a, idle_a, stats_a) = run();
        let (lats_b, idle_b, stats_b) = run();
        assert_eq!(lats_a, lats_b, "ack timelines diverged between runs");
        assert_eq!(idle_a, idle_b);
        assert_eq!(stats_a, stats_b, "FtlStats diverged between runs");
    }

    #[test]
    fn inline_default_leaves_background_machinery_idle() {
        let mut ssd = ull();
        let lats = churn(&mut ssd, 400);
        assert!(!lats.is_empty());
        assert!(ssd.ftl().stats().erases > 0, "inline GC never ran");
        let (started, abandoned) = ssd.ftl().gc_job_counts();
        // Inline mode drives jobs through the same state machine...
        assert!(started > 0);
        // ...but never leaves one behind between writes.
        assert!(!ssd.ftl().gc_active());
        assert_eq!(abandoned, 0);
    }

    #[test]
    fn serve_shaped_churn_holds_no_more_pages_than_live_lbas() {
        // The block serving drive's shape — a 4 KiB write plus a flush,
        // over and over a small log region — on its device profile. The
        // deterministic stand-in for a resident-memory figure: an
        // overwritten page's bytes go at the overwrite, not at the erase
        // this fresh device never reaches.
        const LIVE: u64 = 256;
        let mut ssd = Ssd::new(SsdConfig::base_2b().bench_scale());
        let mut t = SimTime::ZERO;
        for round in 0..200u64 {
            for lba in 0..LIVE {
                let ack = ssd.write(t, Lba(lba), &page(round as u8)).unwrap();
                t = ssd.flush(ack);
            }
        }
        assert_eq!(ssd.ftl().stats().erases, 0, "the device collected garbage");
        let resident = ssd.ftl().nand().resident_pages() as u64;
        assert!(resident <= LIVE, "{resident} pages held for {LIVE} LBAs");
        assert_eq!(ssd.read(t, Lba(LIVE - 1), 1).unwrap().data, page(199));
    }

    #[test]
    fn background_capacitor_power_loss_keeps_acked_writes() {
        let mut ssd = background_small();
        let mut t = SimTime::ZERO;
        for i in 0..4u64 {
            t = ssd.write(t, Lba(i), &page(0x40 + i as u8)).unwrap();
        }
        // Pending dumps + possibly live GC at the instant of power loss.
        ssd.power_loss(t);
        ssd.power_on(t);
        assert!(!ssd.ftl().gc_active(), "GC job survived power loss");
        for i in 0..4u64 {
            let r = ssd.read(t, Lba(i), 1).unwrap();
            assert_eq!(r.data, page(0x40 + i as u8), "lost acked write {i}");
        }
    }
}
