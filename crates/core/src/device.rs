//! The 2B-SSD device: both I/O paths, the BA API, and power-loss handling.

use serde::{Deserialize, Serialize};
use twob_ftl::Lba;
use twob_pcie::{
    AddressTranslationUnit, Bar, CxlChannel, CxlTimings, HostByteChannel, PcieTimings, PostedWrite,
    ReadOutcome, StoreOutcome, SyncOutcome,
};
use twob_sim::{SimTime, TraceEvent, TraceRing};
use twob_ssd::{BlockDevice, BlockRead, Ssd, SsdConfig, SsdError};

use crate::{
    BaBuffer, DumpOutcome, EntryId, MappingEntry, MappingTable, ReadDmaEngine, RecoveryManager,
    RecoveryReport, TwoBError, TwoBSpec,
};

/// Completion of a BA API call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApiCompletion {
    /// When the call's effect is complete (durable where applicable).
    pub complete_at: SimTime,
}

/// Completion of an MMIO store through the byte path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmioStoreOutcome {
    /// When the store retires on the CPU. The data is *not* durable yet;
    /// call [`TwoBSsd::ba_sync`] for that.
    pub retired_at: SimTime,
}

/// A read through the byte path (MMIO or read-DMA).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MmioReadOutcome {
    /// The bytes read.
    pub data: Vec<u8>,
    /// Completion instant.
    pub complete_at: SimTime,
}

/// Who may pin which LBAs (the OS-enforced check of paper §III-C).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PermissionPolicy {
    /// Any LBA may be pinned.
    AllowAll,
    /// Only LBAs inside one of the listed `[start, end)` ranges may be
    /// pinned.
    Ranges(Vec<(u64, u64)>),
}

impl PermissionPolicy {
    fn allows(&self, lba: Lba, pages: u32) -> bool {
        match self {
            PermissionPolicy::AllowAll => true,
            PermissionPolicy::Ranges(ranges) => {
                let (a, b) = (lba.0, lba.0 + u64::from(pages));
                ranges.iter().any(|&(s, e)| s <= a && b <= e)
            }
        }
    }
}

/// Operation counters for the byte path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwoBStats {
    /// `BA_PIN` calls served.
    pub pins: u64,
    /// `BA_FLUSH` calls served.
    pub flushes: u64,
    /// `BA_SYNC` calls served.
    pub syncs: u64,
    /// `BA_READ_DMA` calls served.
    pub dma_reads: u64,
    /// MMIO stores served.
    pub mmio_stores: u64,
    /// MMIO loads served.
    pub mmio_loads: u64,
    /// CXL.mem stores served.
    pub cxl_stores: u64,
    /// CXL.mem loads served.
    pub cxl_loads: u64,
    /// CXL persist barriers served.
    pub cxl_persists: u64,
    /// Bytes written through the byte path.
    pub bytes_stored: u64,
    /// Power-loss events survived with a complete dump.
    pub clean_dumps: u64,
    /// Power-loss events that lost data (dump impossible).
    pub data_loss_events: u64,
}

/// The dual byte- and block-addressable SSD.
///
/// See the crate docs for the architecture and an example. The block path
/// is available through the [`BlockDevice`] impl and behaves exactly like
/// the underlying base SSD, except that writes overlapping a pinned range
/// are gated by the LBA checker.
#[derive(Debug, Clone)]
pub struct TwoBSsd {
    ssd: Ssd,
    spec: TwoBSpec,
    bar1: Bar,
    atu: AddressTranslationUnit,
    chan: HostByteChannel,
    cxl: CxlChannel,
    buffer: BaBuffer,
    table: MappingTable,
    dma: ReadDmaEngine,
    recovery: RecoveryManager,
    policy: PermissionPolicy,
    stats: TwoBStats,
    trace: TraceRing,
}

impl TwoBSsd {
    /// Builds a 2B-SSD over an explicit base-device profile.
    ///
    /// # Panics
    ///
    /// Panics if the profile lacks an internal datapath or reserves too few
    /// blocks to hold a full BA-buffer dump.
    pub fn new(cfg: SsdConfig, spec: TwoBSpec) -> Self {
        assert!(
            cfg.internal_datapath_bytes_per_sec > 0,
            "2B-SSD needs the base device's internal datapath"
        );
        let reserved_pages =
            u64::from(cfg.ftl.reserved_blocks) * u64::from(cfg.geometry.pages_per_block);
        assert!(
            reserved_pages > spec.ba_buffer_pages(),
            "reserved area ({reserved_pages} pages) cannot hold the BA-buffer dump"
        );
        let ssd = Ssd::new(cfg);
        let bar1 = Bar::new(1, spec.ba_buffer_bytes);
        let mut atu = AddressTranslationUnit::new();
        // One inbound window: the whole BAR1 range maps 1:1 onto the
        // BA-buffer region of the internal DRAM.
        atu.map(0, 0, spec.ba_buffer_bytes);
        TwoBSsd {
            ssd,
            bar1,
            atu,
            chan: HostByteChannel::new(PcieTimings::default()),
            cxl: CxlChannel::new(CxlTimings::default()),
            buffer: BaBuffer::new(spec.ba_buffer_bytes),
            table: MappingTable::new(spec.max_entries, spec.ba_buffer_bytes),
            dma: ReadDmaEngine::new(),
            recovery: RecoveryManager::new(),
            policy: PermissionPolicy::AllowAll,
            stats: TwoBStats::default(),
            trace: TraceRing::with_capacity(256),
            spec,
        }
    }

    /// Builds a 2B-SSD with the stock base profile
    /// ([`SsdConfig::base_2b`]).
    pub fn with_spec(spec: TwoBSpec) -> Self {
        TwoBSsd::new(SsdConfig::base_2b(), spec)
    }

    /// A small, fast device for tests: shrunken geometry and a 64 KiB
    /// BA-buffer.
    pub fn small_for_tests() -> Self {
        TwoBSsd::new(SsdConfig::base_2b().small(), TwoBSpec::small_for_tests())
    }

    /// The device specification (paper Table I).
    pub fn spec(&self) -> &TwoBSpec {
        &self.spec
    }

    /// The underlying base SSD (read-only).
    pub fn ssd(&self) -> &Ssd {
        &self.ssd
    }

    /// Byte-path operation counters.
    pub fn stats(&self) -> TwoBStats {
        self.stats
    }

    /// Enables or disables API-call tracing (disabled by default; keeps
    /// the last 256 events). Also enables the base SSD's device trace, so
    /// background GC steps and buffer dumps appear alongside BA-path calls.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.trace.set_enabled(enabled);
        self.ssd.set_tracing(enabled);
    }

    /// The retained trace events — BA-path calls merged with the base
    /// SSD's block/GC/dump events — in time order, oldest first.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = self.trace.iter().cloned().collect();
        events.extend(self.ssd.trace_events());
        events.sort_by_key(|e| e.at);
        events
    }

    /// Advances the base SSD's background stages (buffer dumps, GC steps)
    /// up to `now`; see [`Ssd::drive_background`]. The [`IoCalendar`]
    /// calls this on every dispatch so background traffic contends in
    /// virtual time even across pure byte-path operations.
    ///
    /// [`IoCalendar`]: crate::IoCalendar
    pub fn drive_background(&mut self, now: SimTime) {
        self.ssd.drive_background(now);
    }

    /// Runs every pending background event to completion and returns the
    /// instant the base SSD goes idle; see [`Ssd::quiesce_background`].
    pub fn quiesce_background(&mut self) -> SimTime {
        self.ssd.quiesce_background()
    }

    /// Live mapping-table entries, in EID order.
    pub fn entries(&self) -> Vec<MappingEntry> {
        self.table.iter().copied().collect()
    }

    /// Installs the OS permission policy consulted by [`TwoBSsd::ba_pin`].
    pub fn set_permission_policy(&mut self, policy: PermissionPolicy) {
        self.policy = policy;
    }

    /// Lowest free entry ID, if the table has room.
    pub fn free_eid(&self) -> Option<EntryId> {
        self.table.free_eid()
    }

    /// Validates the device's structural invariants; used by fuzz-style
    /// tests after every API call.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let entries = self.entries();
        if entries.len() > self.spec.max_entries {
            return Err(format!(
                "{} live entries exceed the table capacity {}",
                entries.len(),
                self.spec.max_entries
            ));
        }
        for (i, a) in entries.iter().enumerate() {
            if a.buffer_end() > self.spec.ba_buffer_bytes {
                return Err(format!("entry {} exceeds the BA-buffer", a.eid));
            }
            if a.start_lba.0 + u64::from(a.pages) > self.ssd.capacity_pages() {
                return Err(format!("entry {} exceeds the device", a.eid));
            }
            for b in &entries[i + 1..] {
                if a.buffer_overlaps(b.buffer_offset, b.len_bytes()) {
                    return Err(format!(
                        "entries {} and {} overlap in the buffer",
                        a.eid, b.eid
                    ));
                }
                if a.lba_overlaps(b.start_lba, b.pages) {
                    return Err(format!(
                        "entries {} and {} overlap in LBA space",
                        a.eid, b.eid
                    ));
                }
            }
            // The LBA checker must gate every pinned range.
            if self.ssd.gated_overlap(a.start_lba, a.pages).is_none() {
                return Err(format!("entry {} is not gated by the LBA checker", a.eid));
            }
        }
        Ok(())
    }

    /// Lowest free page-aligned buffer offset with room for `pages`.
    pub fn free_buffer_offset(&self, pages: u32) -> Option<u64> {
        self.table.free_buffer_offset(pages)
    }

    fn check_power(&self) -> Result<(), TwoBError> {
        if self.ssd.is_powered() {
            Ok(())
        } else {
            Err(TwoBError::PoweredOff)
        }
    }

    /// `BA_PIN(EID, offset, LBA, length)`: loads `pages` pages starting at
    /// `lba` into the BA-buffer at `buffer_offset`, registers the mapping,
    /// and gates block writes to the range (paper §III-C).
    ///
    /// # Errors
    ///
    /// Permission, overlap, alignment, and capacity violations; see
    /// [`TwoBError`].
    pub fn ba_pin(
        &mut self,
        now: SimTime,
        eid: EntryId,
        buffer_offset: u64,
        lba: Lba,
        pages: u32,
    ) -> Result<ApiCompletion, TwoBError> {
        self.check_power()?;
        if !self.policy.allows(lba, pages) {
            return Err(TwoBError::PermissionDenied { lba: lba.0 });
        }
        self.table.insert(eid, buffer_offset, lba, pages)?;
        // Internal datapath: NAND → BA-buffer.
        let read = match self
            .ssd
            .internal_read_pages(now + self.spec.api_overhead, lba, pages)
        {
            Ok(read) => read,
            Err(e) => {
                // Roll the entry back so a failed pin leaves no trace.
                let _ = self.table.remove(eid);
                return Err(e.into());
            }
        };
        self.buffer.write_direct(buffer_offset, &read.data);
        self.ssd.lba_checker_pin(lba, pages);
        self.stats.pins += 1;
        if self.trace.is_enabled() {
            self.trace.push(
                now,
                "ba_pin",
                format!("{eid} offset={buffer_offset} {lba} pages={pages}"),
            );
        }
        Ok(ApiCompletion {
            complete_at: read.complete_at,
        })
    }

    /// Convenience pin that picks the lowest free EID and buffer window.
    ///
    /// # Errors
    ///
    /// [`TwoBError::EntryInUse`] if the table is full,
    /// [`TwoBError::BufferOutOfRange`] if no window fits, or any
    /// [`TwoBSsd::ba_pin`] error.
    pub fn ba_pin_auto(
        &mut self,
        now: SimTime,
        lba: Lba,
        pages: u32,
    ) -> Result<(EntryId, ApiCompletion), TwoBError> {
        let eid = self.table.free_eid().ok_or(TwoBError::EntryInUse(EntryId(
            self.spec.max_entries.saturating_sub(1) as u8,
        )))?;
        let offset = self
            .table
            .free_buffer_offset(pages)
            .ok_or(TwoBError::BufferOutOfRange {
                offset: 0,
                len: u64::from(pages) * 4096,
                capacity: self.spec.ba_buffer_bytes,
            })?;
        let completion = self.ba_pin(now, eid, offset, lba, pages)?;
        Ok((eid, completion))
    }

    /// `BA_FLUSH(EID)`: writes the entry's BA-buffer contents to its pinned
    /// NAND pages over the internal datapath, then removes the entry and
    /// lifts the write gate (paper §III-C).
    ///
    /// Note: only data resident in the BA-buffer is flushed. Bytes still in
    /// the host CPU's WC buffers are *not* on the device yet — call
    /// [`TwoBSsd::ba_sync`] first, as the paper's BA commit protocol does.
    ///
    /// # Errors
    ///
    /// [`TwoBError::EntryNotFound`] or back-end failures.
    pub fn ba_flush(&mut self, now: SimTime, eid: EntryId) -> Result<ApiCompletion, TwoBError> {
        self.check_power()?;
        let entry = *self.table.get(eid).ok_or(TwoBError::EntryNotFound(eid))?;
        self.buffer.settle(now);
        let data = self
            .buffer
            .read(entry.buffer_offset, entry.len_bytes())
            .to_vec();
        let done =
            self.ssd
                .internal_write_pages(now + self.spec.api_overhead, entry.start_lba, &data)?;
        self.table.remove(eid)?;
        self.ssd.lba_checker_unpin(entry.start_lba, entry.pages);
        self.stats.flushes += 1;
        if self.trace.is_enabled() {
            self.trace
                .push(now, "ba_flush", format!("{eid} -> {}", entry.start_lba));
        }
        Ok(ApiCompletion { complete_at: done })
    }

    /// The one window check of the byte path: the device is powered, the
    /// entry exists, and `[rel_offset, rel_offset + len)` is a non-empty
    /// range inside its window. Returns the range's BAR1 offset.
    fn window(&self, eid: EntryId, rel_offset: u64, len: u64) -> Result<u64, TwoBError> {
        self.check_power()?;
        let entry = self.table.get(eid).ok_or(TwoBError::EntryNotFound(eid))?;
        if len == 0 {
            return Err(TwoBError::EmptyRequest);
        }
        match rel_offset.checked_add(len) {
            Some(end) if end <= entry.len_bytes() => Ok(entry.buffer_offset + rel_offset),
            _ => Err(TwoBError::OutsideEntry {
                eid,
                offset: rel_offset,
                len,
            }),
        }
    }

    /// The one landing loop: ATU-translates each fragment a front-end
    /// posted and applies it to the BA-buffer.
    fn land(&mut self, posted: Vec<PostedWrite>) -> Result<(), TwoBError> {
        for mut fragment in posted {
            fragment.offset = self
                .atu
                .translate(fragment.offset, fragment.data.len() as u64)?;
            self.buffer.apply_posted(&fragment);
        }
        Ok(())
    }

    /// Tail of a store on either front-end, which bumps `count`.
    fn stored(
        &mut self,
        store: StoreOutcome,
        len: usize,
        count: fn(&mut TwoBStats) -> &mut u64,
    ) -> Result<MmioStoreOutcome, TwoBError> {
        self.land(store.posted)?;
        *count(&mut self.stats) += 1;
        self.stats.bytes_stored += len as u64;
        Ok(MmioStoreOutcome {
            retired_at: store.retired_at,
        })
    }

    /// Tail of a load of `[bar_offset, bar_offset + len)` on either
    /// front-end: the fragments it drained land first, so the bytes read
    /// include every prior store.
    fn loaded(
        &mut self,
        read: ReadOutcome,
        bar_offset: u64,
        len: u64,
        count: fn(&mut TwoBStats) -> &mut u64,
    ) -> Result<MmioReadOutcome, TwoBError> {
        self.land(read.posted)?;
        let dram = self.atu.translate(bar_offset, len)?;
        let data = self.buffer.read(dram, len).to_vec();
        *count(&mut self.stats) += 1;
        Ok(MmioReadOutcome {
            data,
            complete_at: read.complete_at,
        })
    }

    /// Tail of a durability point on either front-end.
    fn synced(
        &mut self,
        now: SimTime,
        sync: SyncOutcome,
        count: fn(&mut TwoBStats) -> &mut u64,
    ) -> Result<ApiCompletion, TwoBError> {
        self.land(sync.posted)?;
        self.buffer.settle(now);
        *count(&mut self.stats) += 1;
        Ok(ApiCompletion {
            complete_at: sync.durable_at,
        })
    }

    /// `BA_SYNC(EID)`: makes all prior MMIO stores to the entry's window
    /// durable — `clflush` of every line in the window, `mfence`, then the
    /// write-verify read (paper §III-C and Fig 3).
    ///
    /// # Errors
    ///
    /// [`TwoBError::EntryNotFound`].
    pub fn ba_sync(&mut self, now: SimTime, eid: EntryId) -> Result<ApiCompletion, TwoBError> {
        self.check_power()?;
        let len = self.ba_entry_info(eid)?.len_bytes();
        self.ba_sync_range(now, eid, 0, len)
    }

    /// Range-limited variant of [`TwoBSsd::ba_sync`]: `clflush` covers only
    /// `[rel_offset, rel_offset+len)` of the entry's window. The paper's
    /// WAL ports know exactly which bytes they appended, so they flush only
    /// those lines instead of the whole multi-megabyte segment window —
    /// this is what keeps BA commit latency in the microsecond range.
    ///
    /// # Errors
    ///
    /// [`TwoBError::EntryNotFound`] or [`TwoBError::OutsideEntry`].
    pub fn ba_sync_range(
        &mut self,
        now: SimTime,
        eid: EntryId,
        rel_offset: u64,
        len: u64,
    ) -> Result<ApiCompletion, TwoBError> {
        let bar_offset = self.window(eid, rel_offset, len)?;
        let sync = self.chan.sync_range(now, bar_offset, len);
        self.synced(now, sync, |s| &mut s.syncs)
    }

    /// `BA_GET_ENTRY_INFO(EID)`: the entry's mapping details.
    ///
    /// # Errors
    ///
    /// [`TwoBError::EntryNotFound`].
    pub fn ba_entry_info(&self, eid: EntryId) -> Result<MappingEntry, TwoBError> {
        self.table
            .get(eid)
            .copied()
            .ok_or(TwoBError::EntryNotFound(eid))
    }

    /// `BA_READ_DMA(EID, dst, length)`: programs the read-DMA engine to
    /// copy up to `len` bytes from the entry's window (starting at
    /// `rel_offset`) to the host; completes with an interrupt
    /// (paper §III-C).
    ///
    /// # Errors
    ///
    /// [`TwoBError::EntryNotFound`] or [`TwoBError::OutsideEntry`].
    pub fn ba_read_dma(
        &mut self,
        now: SimTime,
        eid: EntryId,
        rel_offset: u64,
        len: u64,
    ) -> Result<MmioReadOutcome, TwoBError> {
        let bar_offset = self.window(eid, rel_offset, len)?;
        self.buffer.settle(now);
        let data = self.buffer.read(bar_offset, len).to_vec();
        let complete_at = self
            .dma
            .transfer(&self.spec, now + self.spec.api_overhead, len);
        self.stats.dma_reads += 1;
        Ok(MmioReadOutcome { data, complete_at })
    }

    /// Stores `data` into the entry's window at `rel_offset` through the
    /// MMIO byte path (a plain `memcpy` on the host). Fast, but durable
    /// only after [`TwoBSsd::ba_sync`].
    ///
    /// # Errors
    ///
    /// [`TwoBError::EntryNotFound`] or [`TwoBError::OutsideEntry`].
    pub fn mmio_write(
        &mut self,
        now: SimTime,
        eid: EntryId,
        rel_offset: u64,
        data: &[u8],
    ) -> Result<MmioStoreOutcome, TwoBError> {
        let bar_offset = self.window(eid, rel_offset, data.len() as u64)?;
        self.mmio_write_at(now, bar_offset, data)
    }

    /// Raw MMIO store at an absolute BAR1 offset (no entry required; the
    /// hardware does not stop the host from writing unpinned buffer space).
    ///
    /// # Errors
    ///
    /// [`TwoBError::Bar`] when the access leaves the BAR window.
    pub fn mmio_write_at(
        &mut self,
        now: SimTime,
        bar_offset: u64,
        data: &[u8],
    ) -> Result<MmioStoreOutcome, TwoBError> {
        self.check_power()?;
        self.bar1.check(bar_offset, data.len() as u64)?;
        let store = self.chan.store(now, bar_offset, data);
        self.stored(store, data.len(), |s| &mut s.mmio_stores)
    }

    /// Loads `len` bytes from the entry's window at `rel_offset` through
    /// MMIO — serialized 8-byte non-posted TLPs, so slow for bulk data
    /// (use [`TwoBSsd::ba_read_dma`] beyond ~2 KiB).
    ///
    /// # Errors
    ///
    /// [`TwoBError::EntryNotFound`] or [`TwoBError::OutsideEntry`].
    pub fn mmio_read(
        &mut self,
        now: SimTime,
        eid: EntryId,
        rel_offset: u64,
        len: u64,
    ) -> Result<MmioReadOutcome, TwoBError> {
        let bar_offset = self.window(eid, rel_offset, len)?;
        let read = self.chan.read(now, len);
        self.loaded(read, bar_offset, len, |s| &mut s.mmio_loads)
    }

    /// Stores `data` into the entry's window at `rel_offset` through the
    /// CXL.mem byte path: ordinary cache-line stores against the mapped
    /// window. Retires at cache speed; durable only after
    /// [`TwoBSsd::cxl_persist`].
    ///
    /// # Errors
    ///
    /// [`TwoBError::EntryNotFound`] or [`TwoBError::OutsideEntry`].
    pub fn cxl_store(
        &mut self,
        now: SimTime,
        eid: EntryId,
        rel_offset: u64,
        data: &[u8],
    ) -> Result<MmioStoreOutcome, TwoBError> {
        let bar_offset = self.window(eid, rel_offset, data.len() as u64)?;
        let store = self.cxl.store(now, bar_offset, data);
        self.stored(store, data.len(), |s| &mut s.cxl_stores)
    }

    /// Loads `len` bytes from the entry's window at `rel_offset` through
    /// the CXL.mem byte path — streamed 64-byte lines, so bulk reads are
    /// more than an order of magnitude faster than MMIO's serialized
    /// 8-byte TLPs.
    ///
    /// # Errors
    ///
    /// [`TwoBError::EntryNotFound`] or [`TwoBError::OutsideEntry`].
    pub fn cxl_load(
        &mut self,
        now: SimTime,
        eid: EntryId,
        rel_offset: u64,
        len: u64,
    ) -> Result<MmioReadOutcome, TwoBError> {
        let bar_offset = self.window(eid, rel_offset, len)?;
        let read = self.cxl.read(now, len);
        self.loaded(read, bar_offset, len, |s| &mut s.cxl_loads)
    }

    /// The CXL persist barrier over `[rel_offset, rel_offset+len)` of the
    /// entry's window — the CXL analogue of [`TwoBSsd::ba_sync_range`]:
    /// flushes the touched lines, writes dirty data back, and completes
    /// when the device's persistence domain holds it. Same
    /// acknowledged-durability contract as the MMIO sync, different
    /// pricing (no verify-read round trip).
    ///
    /// # Errors
    ///
    /// [`TwoBError::EntryNotFound`] or [`TwoBError::OutsideEntry`].
    pub fn cxl_persist(
        &mut self,
        now: SimTime,
        eid: EntryId,
        rel_offset: u64,
        len: u64,
    ) -> Result<ApiCompletion, TwoBError> {
        let bar_offset = self.window(eid, rel_offset, len)?;
        let sync = self.cxl.sync_range(now, bar_offset, len);
        self.synced(now, sync, |s| &mut s.cxl_persists)
    }

    /// Simulates a power failure at `now`:
    ///
    /// 1. Bytes still in the host's WC buffers are lost (never reached the
    ///    device).
    /// 2. Posted writes that had not landed are rolled back.
    /// 3. The recovery manager dumps the BA-buffer and mapping table to the
    ///    reserved NAND area on capacitor energy — if the budget allows.
    pub fn power_loss(&mut self, now: SimTime) -> DumpOutcome {
        self.trace.push(now, "power_loss", String::new());
        self.chan.power_loss();
        self.cxl.power_loss();
        self.buffer.power_loss(now);
        let outcome = self
            .recovery
            .dump(&self.spec, &mut self.ssd, &self.table, &self.buffer);
        if outcome.dumped {
            self.stats.clean_dumps += 1;
        } else {
            self.stats.data_loss_events += 1;
        }
        self.ssd.power_loss(now);
        outcome
    }

    /// Restores power at `now`, reloading the BA-buffer and mapping table
    /// from the last dump (if one is found) and re-arming the LBA checker.
    pub fn power_on(&mut self, now: SimTime) -> RecoveryReport {
        self.ssd.power_on(now);
        match self.recovery.restore(&self.spec, &mut self.ssd) {
            Some((table, buffer, generation)) => {
                for entry in table.iter() {
                    self.ssd.lba_checker_pin(entry.start_lba, entry.pages);
                }
                let entries = table.len();
                self.table = table;
                self.buffer.restore(&buffer);
                RecoveryReport {
                    restored: true,
                    generation,
                    entries,
                }
            }
            None => RecoveryReport {
                restored: false,
                generation: self.recovery.generation(),
                entries: 0,
            },
        }
    }
}

impl TwoBSsd {
    /// TRIM through the block path; gated by the LBA checker like writes.
    ///
    /// # Errors
    ///
    /// As for the underlying device's TRIM.
    pub fn trim(&mut self, now: SimTime, lba: Lba, pages: u32) -> Result<SimTime, SsdError> {
        self.ssd.trim(now, lba, pages)
    }
}

impl BlockDevice for TwoBSsd {
    fn label(&self) -> &str {
        self.ssd.label()
    }

    fn page_size(&self) -> usize {
        self.ssd.page_size()
    }

    fn capacity_pages(&self) -> u64 {
        self.ssd.capacity_pages()
    }

    fn read_pages(&mut self, now: SimTime, lba: Lba, pages: u32) -> Result<BlockRead, SsdError> {
        self.ssd.read(now, lba, pages)
    }

    fn write_pages(&mut self, now: SimTime, lba: Lba, data: &[u8]) -> Result<SimTime, SsdError> {
        self.ssd.write(now, lba, data)
    }

    fn flush(&mut self, now: SimTime) -> SimTime {
        self.ssd.flush(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twob_sim::SimDuration;

    fn dev() -> TwoBSsd {
        TwoBSsd::small_for_tests()
    }

    #[test]
    fn pin_write_sync_flush_round_trip() {
        let mut d = dev();
        let now = SimTime::ZERO;
        let pin = d.ba_pin(now, EntryId(0), 0, Lba(4), 1).unwrap();
        let store = d
            .mmio_write(pin.complete_at, EntryId(0), 100, b"byte path!")
            .unwrap();
        let sync = d.ba_sync(store.retired_at, EntryId(0)).unwrap();
        let flush = d.ba_flush(sync.complete_at, EntryId(0)).unwrap();
        // The data is now on NAND, visible through the *block* path.
        let read = d.read_pages(flush.complete_at, Lba(4), 1).unwrap();
        assert_eq!(&read.data[100..110], b"byte path!");
        // Entry is gone.
        assert!(matches!(
            d.ba_entry_info(EntryId(0)),
            Err(TwoBError::EntryNotFound(_))
        ));
    }

    #[test]
    fn pin_loads_existing_nand_data() {
        let mut d = dev();
        let now = SimTime::ZERO;
        let page: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let ack = d.write_pages(now, Lba(9), &page).unwrap();
        let pin = d.ba_pin(ack, EntryId(1), 4096, Lba(9), 1).unwrap();
        let read = d.mmio_read(pin.complete_at, EntryId(1), 0, 64).unwrap();
        assert_eq!(read.data, page[..64]);
    }

    #[test]
    fn block_writes_to_pinned_range_are_gated() {
        let mut d = dev();
        let now = SimTime::ZERO;
        d.ba_pin(now, EntryId(0), 0, Lba(10), 2).unwrap();
        let err = d.write_pages(now, Lba(11), &vec![0u8; 4096]).unwrap_err();
        assert!(matches!(err, SsdError::GatedByLbaChecker { lba: 11 }));
        // After flush the gate lifts.
        d.ba_flush(now, EntryId(0)).unwrap();
        assert!(d.write_pages(now, Lba(11), &vec![0u8; 4096]).is_ok());
    }

    #[test]
    fn dual_path_same_file_view() {
        // The headline feature: the same LBAs via both paths.
        let mut d = dev();
        let now = SimTime::ZERO;
        let block_data = vec![0x42u8; 4096];
        let ack = d.write_pages(now, Lba(0), &block_data).unwrap();
        let pin = d.ba_pin(ack, EntryId(0), 0, Lba(0), 1).unwrap();
        // Byte path sees block-written data.
        let r = d.mmio_read(pin.complete_at, EntryId(0), 0, 16).unwrap();
        assert_eq!(r.data, vec![0x42u8; 16]);
        // Byte-path update, sync, flush: block path sees it.
        let s = d
            .mmio_write(r.complete_at, EntryId(0), 0, &[0x43u8; 16])
            .unwrap();
        let y = d.ba_sync(s.retired_at, EntryId(0)).unwrap();
        let f = d.ba_flush(y.complete_at, EntryId(0)).unwrap();
        let block = d.read_pages(f.complete_at, Lba(0), 1).unwrap();
        assert_eq!(&block.data[..16], &[0x43u8; 16]);
        assert_eq!(&block.data[16..], &block_data[16..]);
    }

    #[test]
    fn auto_pin_allocates_disjoint_windows() {
        let mut d = dev();
        let now = SimTime::ZERO;
        let (e0, _) = d.ba_pin_auto(now, Lba(0), 2).unwrap();
        let (e1, _) = d.ba_pin_auto(now, Lba(10), 2).unwrap();
        assert_ne!(e0, e1);
        let a = d.ba_entry_info(e0).unwrap();
        let b = d.ba_entry_info(e1).unwrap();
        assert!(!a.buffer_overlaps(b.buffer_offset, b.len_bytes()));
    }

    #[test]
    fn permission_policy_blocks_pins() {
        let mut d = dev();
        d.set_permission_policy(PermissionPolicy::Ranges(vec![(0, 8)]));
        assert!(d.ba_pin(SimTime::ZERO, EntryId(0), 0, Lba(0), 4).is_ok());
        assert_eq!(
            d.ba_pin(SimTime::ZERO, EntryId(1), 32768, Lba(6), 4)
                .unwrap_err(),
            TwoBError::PermissionDenied { lba: 6 }
        );
    }

    #[test]
    fn mmio_write_outside_entry_rejected() {
        let mut d = dev();
        d.ba_pin(SimTime::ZERO, EntryId(0), 0, Lba(0), 1).unwrap();
        assert!(matches!(
            d.mmio_write(SimTime::ZERO, EntryId(0), 4090, &[0u8; 16]),
            Err(TwoBError::OutsideEntry { .. })
        ));
    }

    #[test]
    fn unsynced_data_lost_on_power_failure() {
        let mut d = dev();
        let now = SimTime::ZERO;
        let pin = d.ba_pin(now, EntryId(0), 0, Lba(0), 1).unwrap();
        let store = d
            .mmio_write(pin.complete_at, EntryId(0), 0, b"doomed")
            .unwrap();
        // No BA_SYNC: the bytes sit in the WC buffer.
        let dump = d.power_loss(store.retired_at);
        assert!(dump.dumped);
        d.power_on(store.retired_at + SimDuration::from_millis(1));
        let r = d
            .mmio_read(
                store.retired_at + SimDuration::from_millis(2),
                EntryId(0),
                0,
                6,
            )
            .unwrap();
        assert_ne!(r.data, b"doomed", "unsynced bytes must not survive");
    }

    #[test]
    fn synced_data_survives_power_failure() {
        let mut d = dev();
        let now = SimTime::ZERO;
        let pin = d.ba_pin(now, EntryId(0), 0, Lba(0), 1).unwrap();
        let store = d
            .mmio_write(pin.complete_at, EntryId(0), 0, b"durable")
            .unwrap();
        let sync = d.ba_sync(store.retired_at, EntryId(0)).unwrap();
        let dump = d.power_loss(sync.complete_at);
        assert!(dump.dumped);
        let report = d.power_on(sync.complete_at + SimDuration::from_millis(1));
        assert!(report.restored);
        assert_eq!(report.entries, 1);
        let r = d
            .mmio_read(
                sync.complete_at + SimDuration::from_millis(2),
                EntryId(0),
                0,
                7,
            )
            .unwrap();
        assert_eq!(r.data, b"durable");
    }

    #[test]
    fn recovery_rearms_lba_checker() {
        let mut d = dev();
        let now = SimTime::ZERO;
        d.ba_pin(now, EntryId(0), 0, Lba(3), 1).unwrap();
        d.power_loss(now);
        d.power_on(now + SimDuration::from_millis(1));
        let err = d
            .write_pages(now + SimDuration::from_millis(2), Lba(3), &vec![0u8; 4096])
            .unwrap_err();
        assert!(matches!(err, SsdError::GatedByLbaChecker { .. }));
    }

    #[test]
    fn insufficient_capacitors_lose_data() {
        let mut spec = TwoBSpec::small_for_tests();
        spec.capacitors_uf = 0.5;
        let mut d = TwoBSsd::new(SsdConfig::base_2b().small(), spec);
        let pin = d.ba_pin(SimTime::ZERO, EntryId(0), 0, Lba(0), 1).unwrap();
        let store = d
            .mmio_write(pin.complete_at, EntryId(0), 0, b"gone")
            .unwrap();
        let sync = d.ba_sync(store.retired_at, EntryId(0)).unwrap();
        let dump = d.power_loss(sync.complete_at);
        assert!(!dump.dumped);
        assert_eq!(d.stats().data_loss_events, 1);
        let report = d.power_on(sync.complete_at + SimDuration::from_millis(1));
        assert!(!report.restored);
    }

    #[test]
    fn dma_read_returns_window_contents() {
        let mut d = dev();
        let now = SimTime::ZERO;
        let pin = d.ba_pin(now, EntryId(0), 0, Lba(0), 2).unwrap();
        let store = d
            .mmio_write(pin.complete_at, EntryId(0), 4096, &[0x66u8; 256])
            .unwrap();
        let sync = d.ba_sync(store.retired_at, EntryId(0)).unwrap();
        let dma = d
            .ba_read_dma(sync.complete_at, EntryId(0), 4096, 256)
            .unwrap();
        assert_eq!(dma.data, vec![0x66u8; 256]);
        // DMA latency is setup-dominated (~56-58 us).
        let lat = dma.complete_at.saturating_since(sync.complete_at);
        assert!((50.0..70.0).contains(&lat.as_micros_f64()));
    }

    #[test]
    fn mmio_read_latency_matches_tlp_model() {
        let mut d = dev();
        let pin = d.ba_pin(SimTime::ZERO, EntryId(0), 0, Lba(0), 1).unwrap();
        let r = d.mmio_read(pin.complete_at, EntryId(0), 0, 4096).unwrap();
        let lat = r.complete_at.saturating_since(pin.complete_at);
        assert!(
            (145.0..156.0).contains(&lat.as_micros_f64()),
            "4K MMIO read {lat}"
        );
    }

    #[test]
    fn tracing_records_api_calls_when_enabled() {
        let mut d = dev();
        // Disabled by default: no events.
        d.ba_pin(SimTime::ZERO, EntryId(0), 0, Lba(0), 1).unwrap();
        assert!(d.trace_events().is_empty());
        d.set_tracing(true);
        d.ba_flush(SimTime::ZERO, EntryId(0)).unwrap();
        d.ba_pin(SimTime::ZERO, EntryId(1), 0, Lba(5), 1).unwrap();
        let events = d.trace_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].label, "ba_flush");
        assert_eq!(events[0].detail, "eid:0 -> lba:0");
        assert_eq!(events[1].label, "ba_pin");
        assert_eq!(events[1].detail, "eid:1 offset=0 lba:5 pages=1");
    }

    #[test]
    fn block_path_unaffected_by_byte_path() {
        // Paper §VI: block I/O shows no degradation when the memory
        // interface is enabled. Sanity-check latency equality vs a plain
        // base device.
        let mut plain = Ssd::new(SsdConfig::base_2b().small());
        let mut twob = dev();
        let page = vec![1u8; 4096];
        let a = plain.write(SimTime::ZERO, Lba(0), &page).unwrap();
        let b = twob.write_pages(SimTime::ZERO, Lba(0), &page).unwrap();
        assert_eq!(a, b);
    }
}
