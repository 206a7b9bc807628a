//! Multi-tenant arbitration of the BA-buffer: the pin table.
//!
//! The paper's application study (§V) runs PostgreSQL, RocksDB, and Redis
//! *concurrently*, each pinning its own WAL window into the one 8 MiB BA
//! region. The hardware mapping table ([`crate::MappingTable`]) enforces
//! global non-overlap, but says nothing about *who* owns an entry — any
//! host process could unpin another's window. The [`PinTable`] is the host
//! kernel-side arbiter layered above the raw `BA_PIN` API:
//!
//! - the BA-buffer is partitioned into equal per-tenant **shares**; a
//!   tenant can only pin windows inside its own share (overlap with its
//!   other windows is rejected before the device ever sees the call);
//! - every pin carries a per-entry **state machine**
//!   (`Pinning → Pinned → Unpinning`) so in-flight loads and flushes
//!   cannot be raced by byte-path traffic;
//! - ownership is checked on every access, and the table can prove
//!   **`BA_GET_ENTRY_INFO` parity** — its view of each entry byte-matches
//!   the device mapping table's — at any quiescent point;
//! - after a power-loss dump and restore, [`PinTable::reattach`] re-binds
//!   surviving entries to their tenants (the dump covers all live pins,
//!   so a clean dump loses nothing).

use std::fmt;

use serde::{Deserialize, Serialize};
use twob_ftl::Lba;
use twob_sim::SimTime;

use crate::{
    ApiCompletion, EntryId, IoOp, MmioReadOutcome, MmioStoreOutcome, TwoBError, TwoBSpec, TwoBSsd,
};

/// Identifier of one tenant sharing the BA region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TenantId(pub u16);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant:{}", self.0)
    }
}

/// Lifecycle of one pinned window, as the host arbiter tracks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PinState {
    /// `BA_PIN` issued; the NAND→buffer load completes at `ready_at`.
    Pinning,
    /// The window is live: byte-path reads and writes are allowed.
    Pinned,
    /// `BA_FLUSH` is in flight; all access is fenced until it lands.
    Unpinning,
}

impl fmt::Display for PinState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PinState::Pinning => "pinning",
            PinState::Pinned => "pinned",
            PinState::Unpinning => "unpinning",
        };
        write!(f, "{s}")
    }
}

/// Which front-end serves a region's accesses.
///
/// Pinned rows are byte-addressable through one of the two byte
/// front-ends; `Block` labels a region the tier layer has demoted to
/// block NAND (no live pin — reads go through the block path). The pin
/// table therefore only ever holds `BaMmio` or `Cxl` rows.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub enum RegionFrontEnd {
    /// PCIe BAR MMIO: posted writes through WC buffers, serialized
    /// 8-byte read TLPs, `BA_SYNC` durability (the paper's byte path).
    #[default]
    BaMmio,
    /// CXL.mem: cache-line loads/stores, persist-barrier durability.
    Cxl,
    /// Block NAND: no byte window; the region lives on flash.
    Block,
}

impl RegionFrontEnd {
    /// Stable label for reports and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            RegionFrontEnd::BaMmio => "ba-mmio",
            RegionFrontEnd::Cxl => "cxl",
            RegionFrontEnd::Block => "block",
        }
    }
}

impl fmt::Display for RegionFrontEnd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// One live row of the pin table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PinEntry {
    /// Owning tenant.
    pub tenant: TenantId,
    /// Lifecycle state.
    pub state: PinState,
    /// Absolute byte offset of the window in the BA-buffer.
    pub buffer_offset: u64,
    /// First pinned LBA.
    pub lba: Lba,
    /// Window length in 4 KiB pages.
    pub pages: u32,
    /// When the in-flight transition (pin load) completes.
    pub ready_at: SimTime,
    /// Byte front-end serving this window's accesses.
    pub front_end: RegionFrontEnd,
}

impl PinEntry {
    /// Window length in bytes.
    pub fn len_bytes(&self) -> u64 {
        u64::from(self.pages) * 4096
    }
}

/// Errors raised by the pin-table arbiter (checked *before* the device's
/// own mapping-table validation, so a tenant cannot even probe another's
/// windows).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PinError {
    /// The tenant ID exceeds the table's tenant count.
    UnknownTenant(TenantId),
    /// All mapping-table entry slots are live.
    NoFreeEntry,
    /// The tenant's share has no room for a window of this size.
    ShareExhausted(TenantId),
    /// The requested window overlaps one of the tenant's live windows.
    WindowOverlap {
        /// The requesting tenant.
        tenant: TenantId,
        /// The live entry collided with.
        eid: EntryId,
    },
    /// The requested window does not fit inside the tenant's share.
    OutsideShare {
        /// The requesting tenant.
        tenant: TenantId,
        /// Share-relative first page requested.
        rel_page: u64,
        /// Pages requested.
        pages: u32,
        /// The share size in pages.
        share_pages: u64,
    },
    /// The entry exists but belongs to a different tenant.
    NotOwner {
        /// The entry accessed.
        eid: EntryId,
        /// Its actual owner.
        owner: TenantId,
        /// The caller.
        caller: TenantId,
    },
    /// The entry is not in the state the operation requires.
    BadState {
        /// The entry accessed.
        eid: EntryId,
        /// Its current state.
        state: PinState,
    },
    /// The requested front-end is not valid for a live pinned row.
    BadFrontEnd {
        /// The entry accessed.
        eid: EntryId,
        /// The rejected front-end.
        front_end: RegionFrontEnd,
    },
    /// No live pin-table row for this entry ID.
    NotPinned(EntryId),
    /// The pin table and the device mapping table disagree.
    Parity(String),
    /// The underlying device call failed.
    Device(TwoBError),
}

impl fmt::Display for PinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PinError::UnknownTenant(t) => write!(f, "no such {t}"),
            PinError::NoFreeEntry => write!(f, "no free mapping-table entry"),
            PinError::ShareExhausted(t) => write!(f, "{t} share has no room"),
            PinError::WindowOverlap { tenant, eid } => {
                write!(f, "{tenant} window overlaps its live entry {eid}")
            }
            PinError::OutsideShare {
                tenant,
                rel_page,
                pages,
                share_pages,
            } => write!(
                f,
                "{tenant} window [{rel_page}, {rel_page}+{pages}) outside its \
                 {share_pages}-page share"
            ),
            PinError::NotOwner { eid, owner, caller } => {
                write!(f, "{eid} is owned by {owner}, not {caller}")
            }
            PinError::BadState { eid, state } => {
                write!(f, "{eid} is {state}; operation not allowed")
            }
            PinError::BadFrontEnd { eid, front_end } => {
                write!(f, "{eid} cannot use the {front_end} front-end while pinned")
            }
            PinError::NotPinned(eid) => write!(f, "no live pin for {eid}"),
            PinError::Parity(what) => write!(f, "pin-table/device parity lost: {what}"),
            PinError::Device(e) => write!(f, "device: {e}"),
        }
    }
}

impl std::error::Error for PinError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PinError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TwoBError> for PinError {
    fn from(e: TwoBError) -> Self {
        PinError::Device(e)
    }
}

/// The host-side multi-tenant arbiter over one device's BA region.
///
/// The table does not own the device; every operation that reaches the
/// hardware takes `&mut TwoBSsd`, so callers may route the same device
/// through an [`crate::IoCalendar`] between arbiter calls.
///
/// # Example
///
/// ```rust
/// use twob_core::{PinTable, TenantId, TwoBSsd, TwoBSpec};
/// use twob_ftl::Lba;
/// use twob_sim::SimTime;
///
/// let mut dev = TwoBSsd::small_for_tests();
/// let mut pins = PinTable::new(dev.spec(), 2)?;
/// let (eid, done) = pins.pin(&mut dev, SimTime::ZERO, TenantId(0), Lba(0), 2)?;
/// let store = pins.write(&mut dev, done.complete_at, TenantId(0), eid, 0, b"wal")?;
/// pins.unpin(&mut dev, store.retired_at, TenantId(0), eid)?;
/// # Ok::<(), twob_core::PinError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PinTable {
    tenants: u16,
    share_pages: u64,
    entries: Vec<Option<PinEntry>>,
}

impl PinTable {
    /// Partitions a device's BA-buffer into `tenants` equal page-aligned
    /// shares with `spec.max_entries` entry slots.
    ///
    /// # Errors
    ///
    /// [`PinError::ShareExhausted`] if the buffer cannot give every tenant
    /// at least one page, or [`PinError::UnknownTenant`] for zero tenants.
    pub fn new(spec: &TwoBSpec, tenants: u16) -> Result<Self, PinError> {
        if tenants == 0 {
            return Err(PinError::UnknownTenant(TenantId(0)));
        }
        let share_pages = spec.ba_buffer_pages() / u64::from(tenants);
        if share_pages == 0 {
            return Err(PinError::ShareExhausted(TenantId(tenants - 1)));
        }
        Ok(PinTable {
            tenants,
            share_pages,
            entries: vec![None; spec.max_entries],
        })
    }

    /// Number of tenants the buffer is partitioned across.
    pub fn tenants(&self) -> u16 {
        self.tenants
    }

    /// Pages in each tenant's share.
    pub fn share_pages(&self) -> u64 {
        self.share_pages
    }

    /// Live pin-table rows, in entry-ID order.
    pub fn entries(&self) -> Vec<(EntryId, PinEntry)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|e| (EntryId(i as u8), e)))
            .collect()
    }

    /// Live rows owned by `tenant`, in entry-ID order.
    pub fn entries_for(&self, tenant: TenantId) -> Vec<(EntryId, PinEntry)> {
        self.entries()
            .into_iter()
            .filter(|(_, e)| e.tenant == tenant)
            .collect()
    }

    /// The pin-table row for `eid` (the arbiter's `BA_GET_ENTRY_INFO`).
    ///
    /// # Errors
    ///
    /// [`PinError::NotPinned`].
    pub fn entry_info(&self, eid: EntryId) -> Result<PinEntry, PinError> {
        self.entries
            .get(usize::from(eid.0))
            .and_then(|e| *e)
            .ok_or(PinError::NotPinned(eid))
    }

    fn check_tenant(&self, tenant: TenantId) -> Result<(), PinError> {
        if tenant.0 < self.tenants {
            Ok(())
        } else {
            Err(PinError::UnknownTenant(tenant))
        }
    }

    /// Promotes every `Pinning` row whose load has landed by `now`.
    pub fn settle(&mut self, now: SimTime) {
        for entry in self.entries.iter_mut().flatten() {
            if entry.state == PinState::Pinning && entry.ready_at <= now {
                entry.state = PinState::Pinned;
            }
        }
    }

    /// Looks up a live, owned, `Pinned` row (settling first).
    fn owned_pinned(
        &mut self,
        now: SimTime,
        tenant: TenantId,
        eid: EntryId,
    ) -> Result<PinEntry, PinError> {
        self.check_tenant(tenant)?;
        self.settle(now);
        let entry = self.entry_info(eid)?;
        if entry.tenant != tenant {
            return Err(PinError::NotOwner {
                eid,
                owner: entry.tenant,
                caller: tenant,
            });
        }
        if entry.state != PinState::Pinned {
            return Err(PinError::BadState {
                eid,
                state: entry.state,
            });
        }
        Ok(entry)
    }

    /// Pins `pages` pages of `lba` at an explicit share-relative page
    /// offset inside `tenant`'s share.
    ///
    /// The arbiter rejects windows that leave the share or overlap the
    /// tenant's live windows *before* calling the device, so a tenant can
    /// never learn about (or collide with) another tenant's entries.
    ///
    /// # Errors
    ///
    /// [`PinError::OutsideShare`], [`PinError::WindowOverlap`],
    /// [`PinError::NoFreeEntry`], or a [`PinError::Device`] failure (which
    /// leaves the table unchanged).
    pub fn pin_at(
        &mut self,
        dev: &mut TwoBSsd,
        now: SimTime,
        tenant: TenantId,
        rel_page: u64,
        lba: Lba,
        pages: u32,
    ) -> Result<(EntryId, ApiCompletion), PinError> {
        self.check_tenant(tenant)?;
        if pages == 0 || rel_page + u64::from(pages) > self.share_pages {
            return Err(PinError::OutsideShare {
                tenant,
                rel_page,
                pages,
                share_pages: self.share_pages,
            });
        }
        let offset = (u64::from(tenant.0) * self.share_pages + rel_page) * 4096;
        let len = u64::from(pages) * 4096;
        for (eid, live) in self.entries_for(tenant) {
            if offset < live.buffer_offset + live.len_bytes() && live.buffer_offset < offset + len {
                return Err(PinError::WindowOverlap { tenant, eid });
            }
        }
        let eid = self
            .entries
            .iter()
            .position(Option::is_none)
            .map(|i| EntryId(i as u8))
            .ok_or(PinError::NoFreeEntry)?;
        let done = dev.ba_pin(now, eid, offset, lba, pages)?;
        self.entries[usize::from(eid.0)] = Some(PinEntry {
            tenant,
            state: PinState::Pinning,
            buffer_offset: offset,
            lba,
            pages,
            ready_at: done.complete_at,
            front_end: RegionFrontEnd::BaMmio,
        });
        Ok((eid, done))
    }

    /// Pins `pages` pages of `lba` at the first share-relative offset that
    /// fits inside `tenant`'s share (first-fit, like
    /// [`TwoBSsd::ba_pin_auto`] but confined to the share).
    ///
    /// # Errors
    ///
    /// [`PinError::ShareExhausted`] if no window fits, or any
    /// [`PinTable::pin_at`] error.
    pub fn pin(
        &mut self,
        dev: &mut TwoBSsd,
        now: SimTime,
        tenant: TenantId,
        lba: Lba,
        pages: u32,
    ) -> Result<(EntryId, ApiCompletion), PinError> {
        self.check_tenant(tenant)?;
        let base = u64::from(tenant.0) * self.share_pages * 4096;
        let len = u64::from(pages) * 4096;
        let mut windows: Vec<(u64, u64)> = self
            .entries_for(tenant)
            .into_iter()
            .map(|(_, e)| (e.buffer_offset, e.buffer_offset + e.len_bytes()))
            .collect();
        windows.sort_unstable();
        let mut cursor = base;
        for (start, end) in windows {
            if cursor + len <= start {
                break;
            }
            cursor = cursor.max(end);
        }
        if cursor + len > base + self.share_pages * 4096 {
            return Err(PinError::ShareExhausted(tenant));
        }
        self.pin_at(dev, now, tenant, (cursor - base) / 4096, lba, pages)
    }

    /// [`PinTable::pin`], then [`PinTable::set_front_end`] once the load has
    /// landed if the window is to be served by anything but the default
    /// MMIO front-end — how every log writer and the tier layer open a
    /// window.
    ///
    /// # Errors
    ///
    /// As for [`PinTable::pin`] and [`PinTable::set_front_end`].
    pub fn pin_front_end(
        &mut self,
        dev: &mut TwoBSsd,
        now: SimTime,
        tenant: TenantId,
        lba: Lba,
        pages: u32,
        front_end: RegionFrontEnd,
    ) -> Result<(EntryId, ApiCompletion), PinError> {
        let (eid, done) = self.pin(dev, now, tenant, lba, pages)?;
        if front_end != RegionFrontEnd::BaMmio {
            self.set_front_end(done.complete_at, tenant, eid, front_end)?;
        }
        Ok((eid, done))
    }

    /// Unpins an entry: fences it (`Unpinning`), flushes its window to
    /// NAND over the internal datapath, and removes the row.
    ///
    /// # Errors
    ///
    /// Ownership/state errors leave the table unchanged; a device flush
    /// failure restores the row to `Pinned` (the window is still live).
    pub fn unpin(
        &mut self,
        dev: &mut TwoBSsd,
        now: SimTime,
        tenant: TenantId,
        eid: EntryId,
    ) -> Result<ApiCompletion, PinError> {
        self.begin_unpin(now, tenant, eid)?;
        match dev.ba_flush(now, eid) {
            Ok(done) => {
                self.finish_unpin(eid)?;
                Ok(done)
            }
            Err(e) => {
                if let Some(entry) = self.entries[usize::from(eid.0)].as_mut() {
                    entry.state = PinState::Pinned;
                }
                Err(e.into())
            }
        }
    }

    /// Fences an entry for unpinning without touching the device, so the
    /// caller can route the `BA_FLUSH` through an [`crate::IoCalendar`] and
    /// call [`PinTable::finish_unpin`] at its completion.
    ///
    /// # Errors
    ///
    /// Ownership/state errors; see [`PinError`].
    pub fn begin_unpin(
        &mut self,
        now: SimTime,
        tenant: TenantId,
        eid: EntryId,
    ) -> Result<(), PinError> {
        self.owned_pinned(now, tenant, eid)?;
        if let Some(entry) = self.entries[usize::from(eid.0)].as_mut() {
            entry.state = PinState::Unpinning;
        }
        Ok(())
    }

    /// Completes an unpin begun with [`PinTable::begin_unpin`], removing
    /// the row.
    ///
    /// # Errors
    ///
    /// [`PinError::NotPinned`] or [`PinError::BadState`] if no unpin was
    /// in flight.
    pub fn finish_unpin(&mut self, eid: EntryId) -> Result<PinEntry, PinError> {
        let entry = self.entry_info(eid)?;
        if entry.state != PinState::Unpinning {
            return Err(PinError::BadState {
                eid,
                state: entry.state,
            });
        }
        self.entries[usize::from(eid.0)] = None;
        Ok(entry)
    }

    /// Selects which byte front-end serves an owned window's accesses.
    /// The tier layer calls this on promotion/demotion between the two
    /// byte tiers; a live pinned row cannot be `Block` (demotion to NAND
    /// is an unpin, not a front-end switch).
    ///
    /// # Errors
    ///
    /// Ownership/state errors, or [`PinError::BadFrontEnd`] for `Block`.
    pub fn set_front_end(
        &mut self,
        now: SimTime,
        tenant: TenantId,
        eid: EntryId,
        front_end: RegionFrontEnd,
    ) -> Result<(), PinError> {
        if front_end == RegionFrontEnd::Block {
            return Err(PinError::BadFrontEnd { eid, front_end });
        }
        self.owned_pinned(now, tenant, eid)?;
        if let Some(entry) = self.entries[usize::from(eid.0)].as_mut() {
            entry.front_end = front_end;
        }
        Ok(())
    }

    /// Byte-path store into an owned window, through the row's selected
    /// front-end (ownership-checked [`TwoBSsd::mmio_write`] or
    /// [`TwoBSsd::cxl_store`]).
    ///
    /// # Errors
    ///
    /// Ownership/state errors or the device's window checks.
    pub fn write(
        &mut self,
        dev: &mut TwoBSsd,
        now: SimTime,
        tenant: TenantId,
        eid: EntryId,
        rel_offset: u64,
        data: &[u8],
    ) -> Result<MmioStoreOutcome, PinError> {
        let entry = self.owned_pinned(now, tenant, eid)?;
        match entry.front_end {
            RegionFrontEnd::Cxl => Ok(dev.cxl_store(now, eid, rel_offset, data)?),
            _ => Ok(dev.mmio_write(now, eid, rel_offset, data)?),
        }
    }

    /// Persistence sync of `[rel_offset, rel_offset+len)` of an owned
    /// window, through the row's selected front-end (ownership-checked
    /// [`TwoBSsd::ba_sync_range`] or [`TwoBSsd::cxl_persist`]).
    ///
    /// # Errors
    ///
    /// Ownership/state errors or the device's window checks.
    pub fn sync_range(
        &mut self,
        dev: &mut TwoBSsd,
        now: SimTime,
        tenant: TenantId,
        eid: EntryId,
        rel_offset: u64,
        len: u64,
    ) -> Result<ApiCompletion, PinError> {
        let entry = self.owned_pinned(now, tenant, eid)?;
        match entry.front_end {
            RegionFrontEnd::Cxl => Ok(dev.cxl_persist(now, eid, rel_offset, len)?),
            _ => Ok(dev.ba_sync_range(now, eid, rel_offset, len)?),
        }
    }

    /// The operation [`PinTable::sync_range`] would run, for callers that
    /// route their durability point through an [`crate::IoCalendar`]
    /// instead: a range `BA_SYNC` on an MMIO row, a persist barrier on a
    /// CXL one.
    ///
    /// # Errors
    ///
    /// Ownership/state errors.
    pub fn sync_op(
        &mut self,
        now: SimTime,
        tenant: TenantId,
        eid: EntryId,
        rel_offset: u64,
        len: u64,
    ) -> Result<IoOp, PinError> {
        let entry = self.owned_pinned(now, tenant, eid)?;
        Ok(match entry.front_end {
            RegionFrontEnd::Cxl => IoOp::CxlPersist {
                eid,
                rel_offset,
                len,
            },
            _ => IoOp::BaSyncRange {
                eid,
                rel_offset,
                len,
            },
        })
    }

    /// Byte-path load from an owned window, through the row's selected
    /// front-end (ownership-checked [`TwoBSsd::mmio_read`] or
    /// [`TwoBSsd::cxl_load`]).
    ///
    /// # Errors
    ///
    /// Ownership/state errors or the device's window checks.
    pub fn read(
        &mut self,
        dev: &mut TwoBSsd,
        now: SimTime,
        tenant: TenantId,
        eid: EntryId,
        rel_offset: u64,
        len: u64,
    ) -> Result<MmioReadOutcome, PinError> {
        let entry = self.owned_pinned(now, tenant, eid)?;
        match entry.front_end {
            RegionFrontEnd::Cxl => Ok(dev.cxl_load(now, eid, rel_offset, len)?),
            _ => Ok(dev.mmio_read(now, eid, rel_offset, len)?),
        }
    }

    /// Proves `BA_GET_ENTRY_INFO` parity: every pin-table row must
    /// byte-match the device mapping table's entry, and the device must
    /// hold no entries the arbiter does not know about.
    ///
    /// # Errors
    ///
    /// [`PinError::Parity`] naming the first divergence.
    pub fn verify_device_parity(&self, dev: &TwoBSsd) -> Result<(), PinError> {
        let device = dev.entries();
        let ours = self.entries();
        if device.len() != ours.len() {
            return Err(PinError::Parity(format!(
                "device holds {} entries, pin table {}",
                device.len(),
                ours.len()
            )));
        }
        for (eid, entry) in ours {
            let info = dev
                .ba_entry_info(eid)
                .map_err(|e| PinError::Parity(format!("{eid} missing on device: {e}")))?;
            if info.buffer_offset != entry.buffer_offset
                || info.start_lba != entry.lba
                || info.pages != entry.pages
            {
                return Err(PinError::Parity(format!(
                    "{eid} differs: device (offset={}, {}, pages={}) vs pin table \
                     (offset={}, {}, pages={})",
                    info.buffer_offset,
                    info.start_lba,
                    info.pages,
                    entry.buffer_offset,
                    entry.lba,
                    entry.pages
                )));
            }
        }
        Ok(())
    }

    /// Re-binds tenants to the entries a power-on restore brought back:
    /// rows the device lost are dropped, surviving rows become `Pinned`,
    /// and a geometry mismatch is a parity failure. Returns how many rows
    /// survived.
    ///
    /// # Errors
    ///
    /// [`PinError::Parity`] if a surviving entry's geometry changed, or if
    /// the device restored an entry the arbiter never created.
    pub fn reattach(&mut self, dev: &TwoBSsd, now: SimTime) -> Result<usize, PinError> {
        for entry in dev.entries() {
            let known = self.entries.get(usize::from(entry.eid.0)).and_then(|e| *e);
            match known {
                None => {
                    return Err(PinError::Parity(format!(
                        "device restored {} unknown to the pin table",
                        entry.eid
                    )))
                }
                Some(ours)
                    if ours.buffer_offset != entry.buffer_offset
                        || ours.lba != entry.start_lba
                        || ours.pages != entry.pages =>
                {
                    return Err(PinError::Parity(format!(
                        "restored {} geometry differs from the pin table",
                        entry.eid
                    )))
                }
                Some(_) => {}
            }
        }
        let device: std::collections::HashSet<u8> = dev.entries().iter().map(|e| e.eid.0).collect();
        let mut survived = 0;
        for (i, slot) in self.entries.iter_mut().enumerate() {
            if device.contains(&(i as u8)) {
                if let Some(entry) = slot.as_mut() {
                    entry.state = PinState::Pinned;
                    entry.ready_at = now;
                    survived += 1;
                }
            } else {
                *slot = None;
            }
        }
        Ok(survived)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(tenants: u16) -> (TwoBSsd, PinTable) {
        let dev = TwoBSsd::small_for_tests();
        let pins = PinTable::new(dev.spec(), tenants).unwrap();
        (dev, pins)
    }

    #[test]
    fn shares_partition_the_buffer() {
        let (dev, pins) = setup(4);
        // 64 KiB test buffer = 16 pages, 4 tenants -> 4 pages each.
        assert_eq!(pins.share_pages(), 4);
        assert_eq!(
            pins.share_pages() * 4, // tenants
            dev.spec().ba_buffer_pages()
        );
    }

    #[test]
    fn pins_land_inside_the_tenant_share() {
        let (mut dev, mut pins) = setup(4);
        let now = SimTime::ZERO;
        let (e0, _) = pins.pin(&mut dev, now, TenantId(0), Lba(0), 2).unwrap();
        let (e1, _) = pins.pin(&mut dev, now, TenantId(1), Lba(10), 2).unwrap();
        let a = pins.entry_info(e0).unwrap();
        let b = pins.entry_info(e1).unwrap();
        assert_eq!(a.buffer_offset, 0);
        assert_eq!(b.buffer_offset, 4 * 4096, "tenant 1 starts at its share");
    }

    #[test]
    fn overlapping_windows_are_rejected_before_the_device() {
        let (mut dev, mut pins) = setup(2);
        let now = SimTime::ZERO;
        let (eid, _) = pins
            .pin_at(&mut dev, now, TenantId(0), 0, Lba(0), 2)
            .unwrap();
        let before = dev.stats().pins;
        assert_eq!(
            pins.pin_at(&mut dev, now, TenantId(0), 1, Lba(100), 2)
                .unwrap_err(),
            PinError::WindowOverlap {
                tenant: TenantId(0),
                eid
            }
        );
        assert_eq!(dev.stats().pins, before, "device never saw the bad pin");
    }

    #[test]
    fn windows_cannot_leave_the_share() {
        let (mut dev, mut pins) = setup(4);
        assert!(matches!(
            pins.pin_at(&mut dev, SimTime::ZERO, TenantId(0), 3, Lba(0), 2),
            Err(PinError::OutsideShare { .. })
        ));
        // Filling the share exactly is fine.
        assert!(pins
            .pin_at(&mut dev, SimTime::ZERO, TenantId(0), 0, Lba(0), 4)
            .is_ok());
        // First-fit then finds no room.
        assert_eq!(
            pins.pin(&mut dev, SimTime::ZERO, TenantId(0), Lba(50), 1)
                .unwrap_err(),
            PinError::ShareExhausted(TenantId(0))
        );
    }

    #[test]
    fn ownership_is_enforced() {
        let (mut dev, mut pins) = setup(2);
        let now = SimTime::ZERO;
        let (eid, done) = pins.pin(&mut dev, now, TenantId(0), Lba(0), 1).unwrap();
        let t = done.complete_at;
        assert_eq!(
            pins.write(&mut dev, t, TenantId(1), eid, 0, b"theft")
                .unwrap_err(),
            PinError::NotOwner {
                eid,
                owner: TenantId(0),
                caller: TenantId(1)
            }
        );
        assert!(matches!(
            pins.unpin(&mut dev, t, TenantId(1), eid),
            Err(PinError::NotOwner { .. })
        ));
        assert!(pins
            .write(&mut dev, t, TenantId(0), eid, 0, b"mine")
            .is_ok());
    }

    #[test]
    fn state_machine_fences_inflight_windows() {
        let (mut dev, mut pins) = setup(2);
        let now = SimTime::ZERO;
        let (eid, done) = pins.pin(&mut dev, now, TenantId(0), Lba(0), 1).unwrap();
        // Still Pinning at submit instant: access is fenced.
        assert_eq!(pins.entry_info(eid).unwrap().state, PinState::Pinning);
        assert!(matches!(
            pins.write(&mut dev, now, TenantId(0), eid, 0, b"early"),
            Err(PinError::BadState { .. })
        ));
        // After the load lands it settles to Pinned.
        let t = done.complete_at;
        pins.settle(t);
        assert_eq!(pins.entry_info(eid).unwrap().state, PinState::Pinned);
        // A fenced unpin blocks further writes until finished.
        pins.begin_unpin(t, TenantId(0), eid).unwrap();
        assert!(matches!(
            pins.write(&mut dev, t, TenantId(0), eid, 0, b"late"),
            Err(PinError::BadState { .. })
        ));
        pins.finish_unpin(eid).unwrap();
        assert!(matches!(pins.entry_info(eid), Err(PinError::NotPinned(_))));
    }

    #[test]
    fn parity_holds_through_pin_and_unpin() {
        let (mut dev, mut pins) = setup(2);
        let now = SimTime::ZERO;
        let (e0, d0) = pins.pin(&mut dev, now, TenantId(0), Lba(0), 2).unwrap();
        let (_e1, d1) = pins.pin(&mut dev, now, TenantId(1), Lba(10), 1).unwrap();
        pins.verify_device_parity(&dev).unwrap();
        let t = d0.complete_at.max(d1.complete_at);
        pins.unpin(&mut dev, t, TenantId(0), e0).unwrap();
        pins.verify_device_parity(&dev).unwrap();
    }

    #[test]
    fn parity_detects_out_of_band_unpin() {
        let (mut dev, mut pins) = setup(2);
        let (eid, _) = pins
            .pin(&mut dev, SimTime::ZERO, TenantId(0), Lba(0), 1)
            .unwrap();
        // Something bypasses the arbiter and flushes on the raw device.
        dev.ba_flush(SimTime::ZERO, eid).unwrap();
        assert!(matches!(
            pins.verify_device_parity(&dev),
            Err(PinError::Parity(_))
        ));
    }

    #[test]
    fn power_loss_dump_covers_all_tenants_pins() {
        use twob_sim::SimDuration;
        let (mut dev, mut pins) = setup(2);
        let now = SimTime::ZERO;
        let (e0, d0) = pins.pin(&mut dev, now, TenantId(0), Lba(0), 1).unwrap();
        let (e1, d1) = pins.pin(&mut dev, now, TenantId(1), Lba(10), 1).unwrap();
        let t = d0.complete_at.max(d1.complete_at);
        for (tenant, eid, payload) in [
            (TenantId(0), e0, b"tenant-zero".as_slice()),
            (TenantId(1), e1, b"tenant-one!".as_slice()),
        ] {
            let s = pins.write(&mut dev, t, tenant, eid, 0, payload).unwrap();
            pins.sync_range(&mut dev, s.retired_at, tenant, eid, 0, payload.len() as u64)
                .unwrap();
        }
        let cut = t + SimDuration::from_micros(100);
        assert!(dev.power_loss(cut).dumped);
        let up = cut + SimDuration::from_millis(1);
        assert!(dev.power_on(up).restored);
        assert_eq!(pins.reattach(&dev, up).unwrap(), 2);
        pins.verify_device_parity(&dev).unwrap();
        for (tenant, eid, payload) in [
            (TenantId(0), e0, b"tenant-zero".as_slice()),
            (TenantId(1), e1, b"tenant-one!".as_slice()),
        ] {
            let r = pins
                .read(&mut dev, up, tenant, eid, 0, payload.len() as u64)
                .unwrap();
            assert_eq!(r.data, payload, "{tenant} lost its pinned bytes");
        }
    }

    #[test]
    fn front_end_selection_routes_accesses() {
        let (mut dev, mut pins) = setup(2);
        let (eid, done) = pins
            .pin(&mut dev, SimTime::ZERO, TenantId(0), Lba(0), 1)
            .unwrap();
        let t = done.complete_at;
        assert_eq!(
            pins.entry_info(eid).unwrap().front_end,
            RegionFrontEnd::BaMmio,
            "pins default to the paper's MMIO front-end"
        );
        pins.set_front_end(t, TenantId(0), eid, RegionFrontEnd::Cxl)
            .unwrap();
        let s = pins
            .write(&mut dev, t, TenantId(0), eid, 0, b"via cxl")
            .unwrap();
        let sync = pins
            .sync_range(&mut dev, s.retired_at, TenantId(0), eid, 0, 7)
            .unwrap();
        let r = pins
            .read(&mut dev, sync.complete_at, TenantId(0), eid, 0, 7)
            .unwrap();
        assert_eq!(r.data, b"via cxl");
        let stats = dev.stats();
        assert_eq!(
            (stats.cxl_stores, stats.cxl_persists, stats.cxl_loads),
            (1, 1, 1),
            "all three accesses should have taken the CXL path"
        );
        assert_eq!(stats.mmio_stores, 0);
    }

    #[test]
    fn block_front_end_is_rejected_while_pinned() {
        let (mut dev, mut pins) = setup(2);
        let (eid, done) = pins
            .pin(&mut dev, SimTime::ZERO, TenantId(0), Lba(0), 1)
            .unwrap();
        assert_eq!(
            pins.set_front_end(done.complete_at, TenantId(0), eid, RegionFrontEnd::Block)
                .unwrap_err(),
            PinError::BadFrontEnd {
                eid,
                front_end: RegionFrontEnd::Block
            }
        );
        // Non-owners cannot flip someone else's front-end either.
        assert!(matches!(
            pins.set_front_end(done.complete_at, TenantId(1), eid, RegionFrontEnd::Cxl),
            Err(PinError::NotOwner { .. })
        ));
    }

    #[test]
    fn front_end_survives_reattach() {
        use twob_sim::SimDuration;
        let (mut dev, mut pins) = setup(2);
        let (eid, done) = pins
            .pin(&mut dev, SimTime::ZERO, TenantId(0), Lba(0), 1)
            .unwrap();
        let t = done.complete_at;
        pins.set_front_end(t, TenantId(0), eid, RegionFrontEnd::Cxl)
            .unwrap();
        let s = pins
            .write(&mut dev, t, TenantId(0), eid, 0, b"survive")
            .unwrap();
        pins.sync_range(&mut dev, s.retired_at, TenantId(0), eid, 0, 7)
            .unwrap();
        let cut = t + SimDuration::from_micros(100);
        assert!(dev.power_loss(cut).dumped);
        let up = cut + SimDuration::from_millis(1);
        assert!(dev.power_on(up).restored);
        assert_eq!(pins.reattach(&dev, up).unwrap(), 1);
        assert_eq!(pins.entry_info(eid).unwrap().front_end, RegionFrontEnd::Cxl);
        let r = pins.read(&mut dev, up, TenantId(0), eid, 0, 7).unwrap();
        assert_eq!(r.data, b"survive");
    }

    #[test]
    fn unknown_tenants_and_bad_configs_error() {
        let (mut dev, mut pins) = setup(2);
        assert_eq!(
            pins.pin(&mut dev, SimTime::ZERO, TenantId(9), Lba(0), 1)
                .unwrap_err(),
            PinError::UnknownTenant(TenantId(9))
        );
        // More tenants than buffer pages: unshareable.
        assert!(matches!(
            PinTable::new(dev.spec(), u16::MAX),
            Err(PinError::ShareExhausted(_))
        ));
    }
}
