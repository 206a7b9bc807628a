//! Many shard WALs on one 2B-SSD: the per-node log host of a cluster.
//!
//! A cluster node is one simulated 2B-SSD hosting the WALs of every logical
//! shard placed on it. [`ShardWalHost`] owns the device and a
//! [`PinTable`] and multiplexes per-shard log **slots** over it:
//!
//! - in [`HostMode::Ba`], each open slot holds one pinned BA window inside
//!   its own pin-table share (the multi-tenant arbitration of PR 4 applied
//!   to shards instead of processes), driven by the crate's one
//!   byte-window log. Appends are byte-path stores + a durability op over
//!   exactly the appended bytes; a full window is flushed to the slot's
//!   NAND log region with `BA_FLUSH` and re-pinned at the next segment,
//!   single-buffered (the flush is on the log path, like the paper's Redis
//!   port);
//! - in [`HostMode::Block`], each slot is a conventional synchronous block
//!   WAL in the same per-slot region: every commit rewrites the page(s)
//!   holding the record tail and flushes the device write cache. The host
//!   keeps each record's offset in the log, so a follower read decodes
//!   one record — but it still re-reads the written region pages, which
//!   is what prices it.
//!
//! Both modes produce the standard [`LogRecord`] stream, so the cluster's
//! catch-up shipping, follower reads, and crash recovery run over either.
//! Unlike the `Rc`-based tenant WALs, the host owns everything it touches
//! and is `Send`, so a fleet of hosts can ride the parallel PDES drive —
//! one node per shard of a `ShardedExecutor`.
//!
//! Two cluster-specific operations round out the API:
//!
//! - [`ShardWalHost::append_record`] appends a record shipped from another
//!   node and *requires* its LSN to be the slot's next — a dropped or
//!   reordered shipment surfaces as [`WalError::OutOfOrder`], never as a
//!   silent hole;
//! - [`ShardWalHost::fence`] seals a slot at a chosen LSN for the atomic
//!   handoff of a live shard move: appends at or past the fence fail with
//!   [`WalError::Fenced`], so the old owner provably stops exactly where
//!   the new owner takes over.

use std::collections::BTreeMap;

use twob_core::{EntryId, PinTable, RegionFrontEnd, TenantId, TwoBSsd};
use twob_ftl::Lba;
use twob_pcie::PcieTimings;
use twob_sim::SimTime;
use twob_ssd::BlockDevice;

use crate::config::RECORD_OVERHEAD;
use crate::logcore::{
    repin_at_once, scan_region, ByteLog, ByteLogShape, Done, WindowPort, PAGE_BYTES,
};
use crate::record::RECORD_HEADER_BYTES;
use crate::{
    cursor, decode_stream, CommitOutcome, CursorBatch, LogRecord, Lsn, RecordLoc, WalError,
};

/// Which log path every slot on this host uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostMode {
    /// BA-WAL slots: pinned windows, MMIO appends, `BA_SYNC` commits,
    /// `BA_READ_DMA` tail reads.
    Ba,
    /// Conventional block WAL slots: page rewrites + cache flush per
    /// commit, block reads for every tail read.
    Block,
}

impl std::fmt::Display for HostMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostMode::Ba => write!(f, "ba"),
            HostMode::Block => write!(f, "block"),
        }
    }
}

/// Log path and slot count of one node's shard-WAL host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostConfig {
    /// Log path for every slot.
    pub mode: HostMode,
    /// Maximum concurrently hosted shard slots; in `Ba` mode also the
    /// pin-table tenant count the BA-buffer is partitioned across.
    pub slots: u16,
    /// Byte front-end serving the BA slots' windows (`Ba` mode only):
    /// the paper's MMIO path or the CXL.mem cache-line path.
    pub front_end: RegionFrontEnd,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            mode: HostMode::Ba,
            slots: 4,
            front_end: RegionFrontEnd::BaMmio,
        }
    }
}

impl HostConfig {
    /// Pinned window per BA slot, in pages.
    pub const WINDOW_PAGES: u32 = 2;

    /// Per-slot NAND log region in pages, a multiple of the window; slot
    /// `i`'s region starts at LBA `i * REGION_PAGES`.
    pub const REGION_PAGES: u32 = 8;

    /// Geometry of `slot`'s log: its own region, one window.
    fn slot_shape(&self, slot: u16) -> ByteLogShape {
        ByteLogShape {
            region_base_lba: u64::from(slot) * u64::from(Self::REGION_PAGES),
            region_pages: Self::REGION_PAGES,
            window_pages: Self::WINDOW_PAGES,
            windows: 1,
        }
    }

    /// How many records of `payload_bytes` one slot holds readable from
    /// LSN 0: a block slot packs them end to end in its region, a BA slot
    /// keeps its pinned window plus every flushed window the region holds
    /// (whole records only: one that does not fit starts the next window).
    /// Zero when no record can be read back — an empty payload reads as
    /// erased media, and a record must fit one window.
    pub fn records_per_slot(&self, payload_bytes: usize) -> u64 {
        let record = (RECORD_HEADER_BYTES + payload_bytes) as u64;
        let per_window = u64::from(Self::WINDOW_PAGES) * PAGE_BYTES / record;
        if payload_bytes == 0 || per_window == 0 {
            return 0;
        }
        match self.mode {
            HostMode::Block => u64::from(Self::REGION_PAGES) * PAGE_BYTES / record,
            HostMode::Ba => per_window * u64::from(Self::REGION_PAGES / Self::WINDOW_PAGES + 1),
        }
    }
}

/// One hosted shard WAL.
#[derive(Debug, Clone)]
struct Slot {
    /// Appends at or past this LSN are rejected (shard-move handoff).
    fence: Option<u64>,
    log: SlotLog,
}

/// The log behind a slot, by [`HostMode`].
#[derive(Debug, Clone)]
enum SlotLog {
    Ba {
        /// The slot's single window, driven through a [`SlotWindow`].
        log: ByteLog,
        /// `(lsn, location)` of every record in the current window — the
        /// host-DRAM index any real WAL keeps, which lets a follower read
        /// fetch exactly one record's bytes.
        index: Vec<(u64, RecordLoc)>,
    },
    Block {
        /// The full encoded log stream, staged in host memory the way a
        /// conventional WAL keeps its tail page image.
        staged: Vec<u8>,
        /// Where each record starts in `staged`, indexed by LSN (a block
        /// slot's LSNs are dense from 0, so its length is the next LSN).
        offsets: Vec<usize>,
    },
}

impl Slot {
    fn next_lsn(&self) -> u64 {
        match &self.log {
            SlotLog::Ba { log, .. } => log.next_lsn(),
            SlotLog::Block { offsets, .. } => offsets.len() as u64,
        }
    }
}

/// The port of a BA slot: the host's own pin table arbitrates the window
/// inside the slot's share, and every operation is a direct device call.
struct SlotWindow<'a> {
    dev: &'a mut TwoBSsd,
    pins: &'a mut PinTable,
    tenant: TenantId,
    front_end: RegionFrontEnd,
}

impl WindowPort for SlotWindow<'_> {
    fn store(&mut self, at: SimTime, eid: EntryId, offset: u64, data: &[u8]) -> Done {
        let store = self
            .pins
            .write(self.dev, at, self.tenant, eid, offset, data)?;
        Ok(store.retired_at)
    }

    fn sync(&mut self, at: SimTime, eid: EntryId, offset: u64, len: u64) -> Done {
        let sync = self
            .pins
            .sync_range(self.dev, at, self.tenant, eid, offset, len)?;
        Ok(sync.complete_at)
    }

    fn flush(&mut self, at: SimTime, eid: EntryId) -> Done {
        Ok(self.pins.unpin(self.dev, at, self.tenant, eid)?.complete_at)
    }

    fn pin(&mut self, at: SimTime, lba: Lba, pages: u32) -> Result<(EntryId, SimTime), WalError> {
        let (eid, pin) =
            self.pins
                .pin_front_end(self.dev, at, self.tenant, lba, pages, self.front_end)?;
        Ok((eid, pin.complete_at))
    }
}

fn not_open(slot: u16) -> WalError {
    WalError::BadConfig(format!("slot {slot} is not open"))
}

/// Multiplexes several shard WALs over one owned 2B-SSD. See the module
/// docs for the model.
#[derive(Debug, Clone)]
pub struct ShardWalHost {
    dev: TwoBSsd,
    pins: PinTable,
    cfg: HostConfig,
    slots: BTreeMap<u16, Slot>,
}

impl ShardWalHost {
    /// Builds a host over `dev` with no slots open.
    ///
    /// # Errors
    ///
    /// [`WalError::BadConfig`] if the slots cannot fit the device: zero
    /// slots, regions exceeding the device, or (in `Ba` mode) more slots
    /// than mapping-table entries or windows exceeding the per-slot
    /// BA-buffer share.
    pub fn new(dev: TwoBSsd, cfg: HostConfig) -> Result<Self, WalError> {
        if cfg.slots == 0 {
            return Err(WalError::BadConfig("slots must be positive".into()));
        }
        // The last slot's region ends where the host's log space ends.
        cfg.slot_shape(cfg.slots - 1)
            .validate(dev.capacity_pages())?;
        if cfg.mode == HostMode::Ba {
            if usize::from(cfg.slots) > dev.spec().max_entries {
                return Err(WalError::BadConfig(format!(
                    "{} slots exceed the {}-entry mapping table",
                    cfg.slots,
                    dev.spec().max_entries
                )));
            }
            let share = dev.spec().ba_buffer_pages() / u64::from(cfg.slots);
            if u64::from(HostConfig::WINDOW_PAGES) > share {
                return Err(WalError::BadConfig(format!(
                    "{}-page window exceeds the {share}-page per-slot share",
                    HostConfig::WINDOW_PAGES
                )));
            }
        }
        // Block slots never pin: one unused share, so their count is
        // bounded by the device's log space alone.
        let shares = match cfg.mode {
            HostMode::Ba => cfg.slots,
            HostMode::Block => 1,
        };
        let pins = PinTable::new(dev.spec(), shares)?;
        Ok(ShardWalHost {
            dev,
            pins,
            cfg,
            slots: BTreeMap::new(),
        })
    }

    /// The host configuration.
    pub fn config(&self) -> &HostConfig {
        &self.cfg
    }

    /// The wrapped device (read-only).
    pub fn device(&self) -> &TwoBSsd {
        &self.dev
    }

    /// Mutable device access (fault injection in tests).
    pub fn device_mut(&mut self) -> &mut TwoBSsd {
        &mut self.dev
    }

    /// Whether `slot` is open.
    pub fn is_open(&self, slot: u16) -> bool {
        self.slots.contains_key(&slot)
    }

    /// The next LSN `slot` will assign or accept.
    ///
    /// # Errors
    ///
    /// [`WalError::BadConfig`] if the slot is not open.
    pub fn next_lsn(&self, slot: u16) -> Result<Lsn, WalError> {
        Ok(Lsn(self.slot(slot)?.next_lsn()))
    }

    fn slot(&self, slot: u16) -> Result<&Slot, WalError> {
        self.slots.get(&slot).ok_or_else(|| not_open(slot))
    }

    fn slot_base(&self, slot: u16) -> u64 {
        self.cfg.slot_shape(slot).region_base_lba
    }

    fn window_bytes(&self) -> u64 {
        u64::from(HostConfig::WINDOW_PAGES) * PAGE_BYTES
    }

    /// Opens `slot` with an empty log. In `Ba` mode this pins the slot's
    /// window at the head of its region; the returned instant is when the
    /// slot accepts its first append.
    ///
    /// # Errors
    ///
    /// [`WalError::BadConfig`] for an out-of-range or already-open slot,
    /// or pin-table/device failures.
    pub fn open_slot(&mut self, now: SimTime, slot: u16) -> Result<SimTime, WalError> {
        if slot >= self.cfg.slots {
            return Err(WalError::BadConfig(format!(
                "slot {slot} out of range (host has {})",
                self.cfg.slots
            )));
        }
        if self.slots.contains_key(&slot) {
            return Err(WalError::BadConfig(format!("slot {slot} already open")));
        }
        let log = match self.cfg.mode {
            HostMode::Ba => {
                let shape = self.cfg.slot_shape(slot);
                let mut port = SlotWindow {
                    dev: &mut self.dev,
                    pins: &mut self.pins,
                    tenant: TenantId(slot),
                    front_end: self.cfg.front_end,
                };
                let log = ByteLog::open(&mut port, now, shape)?;
                SlotLog::Ba {
                    log,
                    index: Vec::new(),
                }
            }
            HostMode::Block => SlotLog::Block {
                staged: Vec::new(),
                offsets: Vec::new(),
            },
        };
        let ready_at = match &log {
            SlotLog::Ba { log, .. } => log.ready_at(),
            SlotLog::Block { .. } => now,
        };
        self.slots.insert(slot, Slot { fence: None, log });
        Ok(ready_at)
    }

    /// Seals `slot` at `fence`: appends with `lsn >= fence` are rejected
    /// from now on. Used for the atomic handoff of a live shard move — the
    /// mover picks the fence at the source's frontier, so the source
    /// provably accepts nothing past it.
    ///
    /// # Errors
    ///
    /// [`WalError::BadConfig`] if the slot is not open or the fence
    /// precedes records already appended.
    pub fn fence(&mut self, slot: u16, fence: Lsn) -> Result<(), WalError> {
        let next = self.slot(slot)?.next_lsn();
        if fence.0 < next {
            return Err(WalError::BadConfig(format!(
                "fence {fence} precedes appended {next} records"
            )));
        }
        if let Some(state) = self.slots.get_mut(&slot) {
            state.fence = Some(fence.0);
        }
        Ok(())
    }

    /// Appends a commit payload to `slot` at its next LSN.
    ///
    /// # Errors
    ///
    /// [`WalError::Fenced`] past the slot's fence, plus the mode's device
    /// errors.
    pub fn append(
        &mut self,
        now: SimTime,
        slot: u16,
        payload: &[u8],
    ) -> Result<CommitOutcome, WalError> {
        let base = self.slot_base(slot);
        let window_bytes = self.window_bytes();
        let state = self.slots.get_mut(&slot).ok_or_else(|| not_open(slot))?;
        let lsn = state.next_lsn();
        if let Some(fence) = state.fence.filter(|&fence| lsn >= fence) {
            return Err(WalError::Fenced { fence, got: lsn });
        }
        match &mut state.log {
            // The byte-window log, single-buffered: a full window is
            // flushed and re-pinned on the log path.
            SlotLog::Ba { log, index } => {
                let mut port = SlotWindow {
                    dev: &mut self.dev,
                    pins: &mut self.pins,
                    tenant: TenantId(slot),
                    front_end: self.cfg.front_end,
                };
                let payloads = std::iter::once(payload);
                let (outcome, loc) = log.append(&mut port, now, payloads, repin_at_once)?;
                if index.last().is_some_and(|(_, l)| l.segment != loc.segment) {
                    index.clear();
                }
                index.push((lsn, loc));
                Ok(outcome)
            }
            // Block append: stage the bytes, rewrite every page the record
            // touches (the block path's write amplification), flush the
            // cache so the commit is durable at acknowledgement.
            SlotLog::Block { staged, offsets } => {
                let bytes = LogRecord::encode_parts(Lsn(lsn), payload);
                if bytes.len() as u64 > window_bytes {
                    return Err(WalError::RecordTooLarge {
                        got: bytes.len(),
                        max: window_bytes as usize,
                    });
                }
                let region_bytes = u64::from(HostConfig::REGION_PAGES) * PAGE_BYTES;
                if staged.len() as u64 + bytes.len() as u64 > region_bytes {
                    return Err(WalError::BadConfig(format!(
                        "slot {slot} block log overflows its {region_bytes}-byte region"
                    )));
                }
                let start = staged.len();
                let first_page = start as u64 / PAGE_BYTES;
                staged.extend_from_slice(&bytes);
                let end_page = (staged.len() as u64).div_ceil(PAGE_BYTES);
                let mut span = staged[(first_page * PAGE_BYTES) as usize..].to_vec();
                span.resize(((end_page - first_page) * PAGE_BYTES) as usize, 0);
                let t = now + RECORD_OVERHEAD;
                let written = self.dev.write_pages(t, Lba(base + first_page), &span)?;
                let durable = self.dev.flush(written);
                offsets.push(start);
                Ok(CommitOutcome {
                    lsn: Lsn(lsn),
                    commit_at: durable,
                    durable_at: Some(durable),
                })
            }
        }
    }

    /// Appends a record shipped from another node. The record's LSN must
    /// be exactly the slot's next — the dense-stream check that turns a
    /// dropped or reordered shipment into a loud error.
    ///
    /// # Errors
    ///
    /// [`WalError::OutOfOrder`] on an LSN mismatch, [`WalError::Fenced`]
    /// past the fence, plus the mode's device errors.
    pub fn append_record(
        &mut self,
        now: SimTime,
        slot: u16,
        record: &LogRecord,
    ) -> Result<CommitOutcome, WalError> {
        let expected = self.slot(slot)?.next_lsn();
        if record.lsn.0 != expected {
            return Err(WalError::OutOfOrder {
                expected,
                got: record.lsn.0,
            });
        }
        self.append(now, slot, &record.payload)
    }

    /// Decodes everything readable for `slot`: the pinned window over
    /// `BA_READ_DMA` plus flushed region segments (`Ba`), or the written
    /// region pages (`Block`). Raw, unordered; callers canonicalize.
    fn raw_records(
        &mut self,
        now: SimTime,
        slot: u16,
    ) -> Result<(Vec<LogRecord>, SimTime), WalError> {
        let state = self.slots.get(&slot).ok_or_else(|| not_open(slot))?;
        match &state.log {
            SlotLog::Ba { log, .. } => {
                let mut t = now;
                let mut raw = Vec::new();
                if let Some(eid) = log.entry() {
                    let len = log.used().min(self.dev.ba_entry_info(eid)?.len_bytes());
                    if len > 0 {
                        let read = self.dev.ba_read_dma(now, eid, 0, len)?;
                        t = read.complete_at;
                        raw = decode_stream(&read.data).records;
                    }
                }
                let scanned = log.read_flushed(&mut self.dev, now, &mut raw)?;
                Ok((raw, t.max(scanned)))
            }
            SlotLog::Block { staged, .. } => {
                let (stream, t) = self.scan_block(now, slot, staged.len())?;
                Ok((decode_stream(&stream).records, t))
            }
        }
    }

    /// Re-reads the region pages a block slot has written (`staged_len`
    /// bytes' worth, at least one): the one scan that prices every
    /// block-slot read, whole-log or single-record.
    fn scan_block(
        &mut self,
        now: SimTime,
        slot: u16,
        staged_len: usize,
    ) -> Result<(Vec<u8>, SimTime), WalError> {
        let written = (staged_len as u64).div_ceil(PAGE_BYTES);
        let pages = written.max(1).min(u64::from(HostConfig::REGION_PAGES));
        let base = self.slot_base(slot);
        scan_region(&mut self.dev, now, base, pages)
    }

    /// Reads the slot's tail from `from` onwards, canonicalized dense —
    /// the shipping read-out a cluster primary uses for replication and
    /// shard-move catch-up. `Ba` slots serve a caught-up reader entirely
    /// from the pinned window over `BA_READ_DMA`; `Block` slots re-read
    /// the written region pages every poll.
    ///
    /// # Errors
    ///
    /// As for [`crate::WalTail::read_tail`].
    pub fn read_tail(
        &mut self,
        now: SimTime,
        slot: u16,
        from: Lsn,
    ) -> Result<CursorBatch, WalError> {
        let next = self.slot(slot)?.next_lsn();
        let (raw, t) = self.raw_records(now, slot)?;
        cursor::finish_tail(raw, from, next, t)
    }

    /// Serves a follower read of one record, priced on the slot's read
    /// path. `Ba` slots resolve window-resident records through the host's
    /// DRAM index and fetch exactly the record's bytes — MMIO loads below
    /// the paper's ~2 KiB crossover (Fig 7(a)), the `BA_READ_DMA` engine
    /// above it — with a block fallback for records that have rotated out.
    /// `Block` slots re-read the written log region pages, queueing behind
    /// any in-flight program on the die, and find the record through the
    /// host's offset index: only that record is decoded, from the bytes the
    /// device returned. A record the index cannot vouch for (torn, corrupt,
    /// or another LSN) falls back to decoding the whole scan.
    ///
    /// # Errors
    ///
    /// [`WalError::CursorLag`] if the record is not readable, plus device
    /// errors.
    pub fn read_record(
        &mut self,
        now: SimTime,
        slot: u16,
        lsn: Lsn,
    ) -> Result<(LogRecord, SimTime), WalError> {
        let next = self.slot(slot)?.next_lsn();
        let (raw, t) = match &self.slot(slot)?.log {
            SlotLog::Ba { log, index } => {
                // The index's LSNs strictly increase.
                let resident = log.entry().and_then(|eid| {
                    let at = index.binary_search_by_key(&lsn.0, |&(l, _)| l).ok()?;
                    let (_, loc) = index[at];
                    Some((eid, loc.offset, loc.len))
                });
                if let Some((eid, offset, len)) = resident {
                    let read = match self.cfg.front_end {
                        // CXL line streaming beats the DMA engine's fixed
                        // setup far past any window size, so
                        // window-resident records always load directly.
                        RegionFrontEnd::Cxl => self.dev.cxl_load(now, eid, offset, len)?,
                        _ if len <= PcieTimings::MMIO_DMA_CROSSOVER_BYTES => {
                            self.dev.mmio_read(now, eid, offset, len)?
                        }
                        _ => self.dev.ba_read_dma(now, eid, offset, len)?,
                    };
                    if let Some(rec) = decode_stream(&read.data)
                        .records
                        .into_iter()
                        .find(|r| r.lsn == lsn)
                    {
                        return Ok((rec, read.complete_at));
                    }
                }
                self.raw_records(now, slot)?
            }
            SlotLog::Block { staged, offsets } => {
                let offset = usize::try_from(lsn.0)
                    .ok()
                    .and_then(|i| offsets.get(i).copied());
                let (stream, t) = self.scan_block(now, slot, staged.len())?;
                let indexed = offset
                    .and_then(|at| LogRecord::decode(stream.get(at..)?))
                    .filter(|(rec, _)| rec.lsn == lsn);
                if let Some((rec, _)) = indexed {
                    return Ok((rec, t));
                }
                (decode_stream(&stream).records, t)
            }
        };
        let oldest = raw.iter().map(|r| r.lsn.0).min().unwrap_or(next);
        raw.into_iter()
            .find(|r| r.lsn == lsn)
            .map(|rec| (rec, t))
            .ok_or(WalError::CursorLag {
                requested: lsn.0,
                oldest,
            })
    }

    /// Power-cycles the node: capacitor-backed dump at `cut`, restore at
    /// `up`, pin-table reattach, and a parity proof. Returns how many
    /// windows survived (every live pin, when the dump energy suffices).
    ///
    /// # Errors
    ///
    /// Pin-table parity failures.
    pub fn power_cycle(&mut self, cut: SimTime, up: SimTime) -> Result<usize, WalError> {
        self.dev.power_loss(cut);
        self.dev.power_on(up);
        let survived = self.pins.reattach(&self.dev, up)?;
        self.pins.verify_device_parity(&self.dev)?;
        // Drop window state for slots whose pin did not survive.
        for state in self.slots.values_mut() {
            if let SlotLog::Ba { log, index } = &mut state.log {
                log.restart(up, |eid| self.pins.entry_info(eid).is_ok());
                if log.entry().is_none() {
                    index.clear();
                }
            }
        }
        Ok(survived)
    }

    /// Recovers `slot`'s full dense record prefix from LSN 0 — buffered
    /// window plus flushed/written region — as a crashed node's recovery
    /// manager would. A prefix that no longer starts at 0 (region
    /// wrap-around) is a loud [`WalError::CursorLag`].
    ///
    /// # Errors
    ///
    /// [`WalError::CursorLag`], [`WalError::CorruptTail`], device errors.
    pub fn recover_slot(&mut self, now: SimTime, slot: u16) -> Result<Vec<LogRecord>, WalError> {
        let (raw, t) = self.raw_records(now, slot)?;
        if raw.is_empty() {
            return Ok(Vec::new());
        }
        let batch = cursor::canonical_tail(raw, Lsn(0), t)?;
        Ok(batch.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twob_sim::SimDuration;

    fn host(mode: HostMode) -> ShardWalHost {
        ShardWalHost::new(
            TwoBSsd::small_for_tests(),
            HostConfig {
                mode,
                ..HostConfig::default()
            },
        )
        .unwrap()
    }

    fn t0() -> SimTime {
        SimTime::from_nanos(1_000_000)
    }

    #[test]
    fn hosts_several_slots_with_independent_lsns() {
        let mut h = host(HostMode::Ba);
        let mut t = t0();
        for s in 0..3 {
            t = t.max(h.open_slot(t, s).unwrap());
        }
        for i in 0..5u64 {
            for s in 0..3u16 {
                let out = h.append(t, s, format!("s{s}-r{i}").as_bytes()).unwrap();
                assert_eq!(out.lsn.0, i);
                t = t.max(out.commit_at);
            }
        }
        for s in 0..3u16 {
            assert_eq!(h.next_lsn(s).unwrap(), Lsn(5));
            let tail = h.read_tail(t, s, Lsn(0)).unwrap();
            assert_eq!(tail.records.len(), 5);
            for (i, rec) in tail.records.iter().enumerate() {
                assert_eq!(rec.payload, format!("s{s}-r{i}").as_bytes());
            }
        }
    }

    #[test]
    fn ba_appends_commit_at_byte_path_latency() {
        let mut h = host(HostMode::Ba);
        let ready = h.open_slot(SimTime::ZERO, 0).unwrap();
        let out = h.append(ready, 0, &[7u8; 100]).unwrap();
        let us = out.commit_at.saturating_since(ready).as_micros_f64();
        assert!(us < 3.0, "BA commit took {us:.2} us");
    }

    #[test]
    fn block_appends_pay_the_block_path() {
        let mut h = host(HostMode::Block);
        let ready = h.open_slot(SimTime::ZERO, 0).unwrap();
        let out = h.append(ready, 0, &[7u8; 100]).unwrap();
        let us = out.commit_at.saturating_since(ready).as_micros_f64();
        assert!(us > 3.0, "block commit took only {us:.2} us");
        // And it is durable (cache flushed) + replayable from the medium.
        let recs = h.recover_slot(out.commit_at, 0).unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn rotation_survives_and_streams_across_windows() {
        let mut h = host(HostMode::Ba);
        let mut t = h.open_slot(t0(), 0).unwrap();
        // ~1 KiB records fill the 8 KiB window quickly: several rotations.
        for i in 0..40u64 {
            t = h.append(t, 0, &[(i % 251) as u8; 1000]).unwrap().commit_at;
        }
        let tail = h.read_tail(t, 0, Lsn(0)).unwrap();
        // Region wrap may have overwritten the oldest windows; whatever is
        // left must be dense from 0 or a loud lag — with 8 region pages +
        // 2-page window, 40 KiB of records wraps: expect CursorLag.
        let all = match h.read_tail(t, 0, Lsn(0)) {
            Ok(batch) => batch.records,
            Err(WalError::CursorLag { oldest, .. }) => {
                h.read_tail(t, 0, Lsn(oldest)).unwrap().records
            }
            Err(e) => panic!("unexpected: {e}"),
        };
        assert!(!all.is_empty());
        for rec in &all {
            assert_eq!(rec.payload, vec![(rec.lsn.0 % 251) as u8; 1000]);
        }
        drop(tail);
    }

    #[test]
    fn read_record_lag_names_the_oldest_readable_lsn() {
        for mode in [HostMode::Ba, HostMode::Block] {
            let mut h = host(mode);
            let mut t = h.open_slot(t0(), 0).unwrap();
            // Nothing appended yet: the oldest readable LSN is the next one.
            assert_eq!(
                h.read_record(t, 0, Lsn(0)).unwrap_err(),
                WalError::CursorLag {
                    requested: 0,
                    oldest: 0
                }
            );
            // ~1 KiB records, 8 to a window: 60 of them wrap the 8-page BA
            // region (a block slot's region just fills, after 32).
            let appended = if mode == HostMode::Ba { 60u64 } else { 20 };
            for i in 0..appended {
                t = h.append(t, 0, &[(i % 251) as u8; 1000]).unwrap().commit_at;
            }
            let oldest = match h.read_record(t, 0, Lsn(appended + 5)) {
                Err(WalError::CursorLag { requested, oldest }) => {
                    assert_eq!(requested, appended + 5);
                    oldest
                }
                other => panic!("{mode}: expected lag, got {other:?}"),
            };
            if mode == HostMode::Ba {
                assert!(oldest > 0, "the wrap overwrote lsn 0");
                assert!(matches!(
                    h.read_record(t, 0, Lsn(0)),
                    Err(WalError::CursorLag { oldest: o, .. }) if o == oldest
                ));
                assert!(h.read_record(t, 0, Lsn(oldest - 1)).is_err());
            } else {
                assert_eq!(oldest, 0);
            }
            // Re-reading from the reported LSN works, up to the frontier.
            for lsn in oldest..appended {
                let (rec, _) = h.read_record(t, 0, Lsn(lsn)).unwrap();
                assert_eq!(rec.payload, vec![(lsn % 251) as u8; 1000]);
            }
        }
    }

    #[test]
    fn records_per_slot_is_what_recovers_from_lsn_0() {
        for mode in [HostMode::Ba, HostMode::Block] {
            for payload in [64usize, 1000, 3000] {
                let mut h = host(mode);
                let cap = h.config().records_per_slot(payload);
                let mut t = h.open_slot(t0(), 0).unwrap();
                for _ in 0..cap {
                    t = h.append(t, 0, &vec![7; payload]).unwrap().commit_at;
                }
                let recovered = h.recover_slot(t, 0).unwrap().len() as u64;
                assert_eq!(recovered, cap, "{mode} {payload} B");
                let over = h
                    .append(t, 0, &vec![7; payload])
                    .and_then(|out| h.recover_slot(out.commit_at, 0));
                assert!(over.is_err(), "{mode} {payload} B: record {cap} fits");
            }
            assert_eq!(host(mode).config().records_per_slot(0), 0);
        }
    }

    #[test]
    fn append_record_requires_dense_lsns() {
        let mut h = host(HostMode::Ba);
        let t = h.open_slot(t0(), 0).unwrap();
        let r0 = LogRecord::new(Lsn(0), b"zero".to_vec());
        let r2 = LogRecord::new(Lsn(2), b"two".to_vec());
        h.append_record(t, 0, &r0).unwrap();
        assert_eq!(
            h.append_record(t, 0, &r2).unwrap_err(),
            WalError::OutOfOrder {
                expected: 1,
                got: 2
            }
        );
    }

    #[test]
    fn fence_seals_the_slot_at_the_handoff_lsn() {
        let mut h = host(HostMode::Ba);
        let mut t = h.open_slot(t0(), 0).unwrap();
        for i in 0..3u64 {
            t = h
                .append(t, 0, format!("r{i}").as_bytes())
                .unwrap()
                .commit_at;
        }
        // Fencing below the frontier is refused.
        assert!(matches!(h.fence(0, Lsn(2)), Err(WalError::BadConfig(_))));
        h.fence(0, Lsn(4)).unwrap();
        // One more append fits under the fence...
        t = h.append(t, 0, b"r3").unwrap().commit_at;
        // ...the next is provably rejected.
        assert_eq!(
            h.append(t, 0, b"r4").unwrap_err(),
            WalError::Fenced { fence: 4, got: 4 }
        );
    }

    #[test]
    fn power_cycle_preserves_synced_records_per_slot() {
        let mut h = host(HostMode::Ba);
        let mut t = t0();
        for s in 0..2 {
            t = t.max(h.open_slot(t, s).unwrap());
        }
        for i in 0..6u64 {
            for s in 0..2u16 {
                t = h
                    .append(t, s, format!("s{s}-{i}").as_bytes())
                    .unwrap()
                    .commit_at;
            }
        }
        let up = t + SimDuration::from_millis(5);
        let survived = h.power_cycle(t, up).unwrap();
        assert_eq!(survived, 2, "both windows survive the dump");
        for s in 0..2u16 {
            let recs = h.recover_slot(up, s).unwrap();
            assert_eq!(recs.len(), 6, "slot {s} lost synced records");
            for (i, rec) in recs.iter().enumerate() {
                assert_eq!(rec.payload, format!("s{s}-{i}").as_bytes());
            }
        }
    }

    #[test]
    fn ba_reads_beat_block_reads_under_commit_traffic() {
        // At idle a single BA_READ_DMA (setup-dominated) is comparable to
        // one NAND page read. The byte path wins because a follower read
        // never queues behind the log's own NAND programs — so model
        // exactly that: read while an append's page rewrite + flush still
        // occupies the die holding the record.
        let mut ba = host(HostMode::Ba);
        let mut block = host(HostMode::Block);
        let mut ta = ba.open_slot(t0(), 0).unwrap();
        let mut tb = block.open_slot(t0(), 0).unwrap();
        for i in 0..7u64 {
            let payload = format!("record-{i}");
            ta = ba.append(ta, 0, payload.as_bytes()).unwrap().commit_at;
            tb = block.append(tb, 0, payload.as_bytes()).unwrap().commit_at;
        }
        let issue = ta.max(tb);
        ba.append(issue, 0, b"record-7").unwrap();
        block.append(issue, 0, b"record-7").unwrap();
        let (ra, da) = ba.read_record(issue, 0, Lsn(0)).unwrap();
        let (rb, db) = block.read_record(issue, 0, Lsn(0)).unwrap();
        assert_eq!(ra, rb);
        let ba_us = da.saturating_since(issue).as_micros_f64();
        let block_us = db.saturating_since(issue).as_micros_f64();
        assert!(
            ba_us < block_us,
            "BA_READ_DMA follower read ({ba_us:.2} us) should beat the \
             block re-read ({block_us:.2} us) while the log's tail page \
             is being rewritten"
        );
    }

    #[test]
    fn cxl_front_end_hosts_commit_faster_and_recover_identically() {
        // The same slot traffic through the CXL front-end: every append,
        // sync, and follower read takes the cache-line path, commits land
        // earlier than MMIO + BA_SYNC, and recovery sees identical bytes.
        let mut mmio = host(HostMode::Ba);
        let mut cxl = ShardWalHost::new(
            TwoBSsd::small_for_tests(),
            HostConfig {
                front_end: RegionFrontEnd::Cxl,
                ..HostConfig::default()
            },
        )
        .unwrap();
        let tm0 = mmio.open_slot(t0(), 0).unwrap();
        let tc0 = cxl.open_slot(t0(), 0).unwrap();
        let (mut tm, mut tc) = (tm0, tc0);
        for i in 0..6u64 {
            let payload = format!("rec-{i}");
            tm = mmio.append(tm, 0, payload.as_bytes()).unwrap().commit_at;
            tc = cxl.append(tc, 0, payload.as_bytes()).unwrap().commit_at;
        }
        assert!(
            tc.saturating_since(tc0) < tm.saturating_since(tm0),
            "CXL commit chain should finish before the MMIO chain"
        );
        let stats = cxl.device().stats();
        assert_eq!(stats.mmio_stores, 0, "no append leaked onto the WC path");
        assert_eq!(stats.cxl_stores, 6);
        assert_eq!(stats.cxl_persists, 6);
        let (rec, _) = cxl.read_record(tc, 0, Lsn(3)).unwrap();
        assert_eq!(rec.payload, b"rec-3");
        assert!(cxl.device().stats().cxl_loads > 0, "read skipped CXL path");
        let a = mmio.recover_slot(tm, 0).unwrap();
        let b = cxl.recover_slot(tc, 0).unwrap();
        assert_eq!(a, b, "front-ends must recover identical streams");
    }

    #[test]
    fn small_window_reads_take_the_mmio_fast_path() {
        // A follower read of a window-resident sub-2 KiB record goes
        // through the host's DRAM index and fetches just that record's
        // bytes over MMIO (Fig 7(a): MMIO beats the DMA engine below the
        // crossover) — never programming the DMA engine or touching NAND.
        let mut h = host(HostMode::Ba);
        let mut t = h.open_slot(t0(), 0).unwrap();
        for i in 0..4u64 {
            t = h
                .append(t, 0, format!("rec-{i}").as_bytes())
                .unwrap()
                .commit_at;
        }
        let before = h.device().stats();
        let (rec, done) = h.read_record(t, 0, Lsn(2)).unwrap();
        assert_eq!(rec.payload, b"rec-2");
        let after = h.device().stats();
        assert_eq!(
            after.dma_reads, before.dma_reads,
            "small read used the DMA engine"
        );
        assert_eq!(after.mmio_loads, before.mmio_loads + 1);
        let us = done.saturating_since(t).as_micros_f64();
        let dma_floor = h.device().spec().dma_latency(1).as_micros_f64();
        assert!(
            us < dma_floor,
            "MMIO fast path ({us:.2} us) should undercut even a 1-byte DMA ({dma_floor:.2} us)"
        );
    }

    #[test]
    fn bad_geometries_are_rejected() {
        use twob_core::TwoBSpec;
        use twob_ssd::SsdConfig;

        let small = TwoBSsd::small_for_tests;
        // A 16-entry table over the same 16-page buffer: nine slots fit the
        // table, but a 1-page share cannot hold a 2-page window.
        let wide_table = || {
            let spec = TwoBSpec {
                max_entries: 16,
                ..TwoBSpec::small_for_tests()
            };
            TwoBSsd::new(SsdConfig::base_2b().small(), spec)
        };
        let cfg = |mode, slots| HostConfig {
            mode,
            slots,
            ..HostConfig::default()
        };
        for (dev, cfg, why) in [
            (small(), cfg(HostMode::Ba, 0), "slots must be positive"),
            (small(), cfg(HostMode::Ba, 9), "9 slots exceed the 8-entry"),
            (
                wide_table(),
                cfg(HostMode::Ba, 9),
                "exceeds the 1-page per-slot share",
            ),
            (
                small(),
                cfg(HostMode::Block, 64),
                "log region exceeds device",
            ),
        ] {
            match ShardWalHost::new(dev, cfg) {
                Err(WalError::BadConfig(msg)) => assert!(msg.contains(why), "{cfg:?}: {msg}"),
                other => panic!("{cfg:?}: expected BadConfig, got {other:?}"),
            }
        }
        // Block slots take no pin-table share: more of them than the
        // BA-buffer has pages still fit.
        assert!(ShardWalHost::new(small(), cfg(HostMode::Block, 17)).is_ok());
    }

    #[test]
    fn slot_misuse_errors_cleanly() {
        let mut h = host(HostMode::Ba);
        assert!(h.append(t0(), 0, b"x").is_err(), "append to closed slot");
        h.open_slot(t0(), 0).unwrap();
        assert!(h.open_slot(t0(), 0).is_err(), "double open");
        assert!(h.open_slot(t0(), 99).is_err(), "out of range");
    }
}
