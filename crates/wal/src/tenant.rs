//! Per-tenant WAL writers over *one shared* 2B-SSD.
//!
//! The single-tenant writers ([`crate::BaWal`], [`crate::BlockWal`]) own
//! their device, which is exactly what the paper's application study (§V)
//! does *not* do: PostgreSQL, RocksDB, and Redis all log concurrently into
//! the same 8 MiB BA region of one drive. The tenant writers here share:
//!
//! - the device (`Rc<RefCell<TwoBSsd>>`) — every tenant's NAND, channel,
//!   and datapath traffic contends on the same servers;
//! - the [`IoCalendar`] — durability operations (`BA_SYNC`, `BA_FLUSH`,
//!   block writes and flushes) are submitted as calendar events, so they
//!   serialize in deterministic virtual-time order across tenants and keep
//!   background GC advancing;
//! - the [`PinTable`] — each BA tenant pins its log window inside its own
//!   share, with ownership enforced on every store.
//!
//! [`TenantBaWal`] is the BA-WAL port: a single pinned window per tenant
//! (rotate-in-place, like the paper's Redis port — with dozens of tenants
//! the 8-entry table has no room for per-tenant double buffering).
//! [`TenantBlockWal`] is the block-WAL comparator on the *same* device —
//! the paper's base SSD serves block I/O identically to a ULL-SSD (§V-A),
//! so one chassis hosts both schemes.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use twob_core::{EntryId, IoCalendar, IoOp, PinTable, RegionFrontEnd, TenantId, TwoBSsd};
use twob_ftl::Lba;
use twob_sim::SimTime;
use twob_ssd::BlockDevice;

use crate::logcore::{repin_at_once, run_op, ByteLog, ByteLogShape, Done, PageLog, WindowPort};
use crate::{CommitOutcome, RecordLoc, WalConfig, WalError, WalStats, WalWriter};

/// Handle to the one device every tenant contends on.
pub type SharedDevice = Rc<RefCell<TwoBSsd>>;
/// Handle to the calendar routing every tenant's durability traffic.
pub type SharedCalendar = Rc<RefCell<IoCalendar>>;
/// Handle to the pin-table arbiter shared by the BA tenants.
pub type SharedPins = Rc<RefCell<PinTable>>;

/// The port of a writer sharing its device: stores go through the shared
/// pin table (ownership-checked, on the window's front-end), while the
/// durability op and the flush are submitted to the shared calendar so
/// they serialize with every other tenant's traffic.
#[derive(Debug, Clone)]
struct SharedWindow {
    dev: SharedDevice,
    cal: SharedCalendar,
    pins: SharedPins,
    tenant: TenantId,
    front_end: RegionFrontEnd,
}

impl WindowPort for SharedWindow {
    fn store(&mut self, at: SimTime, eid: EntryId, offset: u64, data: &[u8]) -> Done {
        let mut dev = self.dev.borrow_mut();
        let store = self
            .pins
            .borrow_mut()
            .write(&mut dev, at, self.tenant, eid, offset, data)?;
        Ok(store.retired_at)
    }

    fn sync(&mut self, at: SimTime, eid: EntryId, offset: u64, len: u64) -> Done {
        let op = self
            .pins
            .borrow_mut()
            .sync_op(at, self.tenant, eid, offset, len)?;
        Ok(run_op(&self.dev, &self.cal, at, op)?.complete_at)
    }

    fn flush(&mut self, at: SimTime, eid: EntryId) -> Done {
        self.pins.borrow_mut().begin_unpin(at, self.tenant, eid)?;
        let flush = run_op(&self.dev, &self.cal, at, IoOp::BaFlush { eid })?;
        self.pins.borrow_mut().finish_unpin(eid)?;
        Ok(flush.complete_at)
    }

    fn pin(&mut self, at: SimTime, lba: Lba, pages: u32) -> Result<(EntryId, SimTime), WalError> {
        let mut dev = self.dev.borrow_mut();
        let (eid, pin) = self.pins.borrow_mut().pin_front_end(
            &mut dev,
            at,
            self.tenant,
            lba,
            pages,
            self.front_end,
        )?;
        Ok((eid, pin.complete_at))
    }
}

/// BA-WAL for one tenant of a shared 2B-SSD: log records are `memcpy`ed
/// into the tenant's pinned window through the [`PinTable`], committed with
/// a range `BA_SYNC` through the shared [`IoCalendar`], and flushed
/// window-at-a-time (rotate-in-place) when full.
#[derive(Debug, Clone)]
pub struct TenantBaWal {
    port: SharedWindow,
    log: ByteLog,
}

impl TenantBaWal {
    /// Pins `tenant`'s log window (`window_pages` pages at
    /// `cfg.region_base_lba`) and readies the writer.
    ///
    /// # Errors
    ///
    /// [`WalError::BadConfig`] for an invalid shape, [`WalError::Pin`] if
    /// the tenant's share rejects the window, or device failures.
    pub fn new(
        dev: SharedDevice,
        cal: SharedCalendar,
        pins: SharedPins,
        tenant: TenantId,
        cfg: WalConfig,
        window_pages: u32,
    ) -> Result<Self, WalError> {
        TenantBaWal::with_front_end(
            dev,
            cal,
            pins,
            tenant,
            cfg,
            window_pages,
            RegionFrontEnd::BaMmio,
        )
    }

    /// Like [`TenantBaWal::new`], but serving the window through a chosen
    /// byte front-end: the paper's MMIO + `BA_SYNC` path or the CXL.mem
    /// load/store + persist-barrier path. Appends and commits route
    /// through whichever front-end the window carries.
    ///
    /// # Errors
    ///
    /// As for [`TenantBaWal::new`]; additionally rejects
    /// [`RegionFrontEnd::Block`] (a byte-path WAL needs a byte window).
    pub fn with_front_end(
        dev: SharedDevice,
        cal: SharedCalendar,
        pins: SharedPins,
        tenant: TenantId,
        cfg: WalConfig,
        window_pages: u32,
        front_end: RegionFrontEnd,
    ) -> Result<Self, WalError> {
        cfg.validate().map_err(WalError::BadConfig)?;
        if front_end == RegionFrontEnd::Block {
            return Err(WalError::BadConfig(
                "a byte-path WAL window cannot be block-backed".into(),
            ));
        }
        let shape = ByteLogShape {
            region_base_lba: cfg.region_base_lba,
            region_pages: cfg.region_pages,
            window_pages,
            windows: 1,
        };
        shape.validate(dev.borrow().capacity_pages())?;
        let mut port = SharedWindow {
            dev,
            cal,
            pins,
            tenant,
            front_end,
        };
        let log = ByteLog::open(&mut port, SimTime::ZERO, shape)?;
        Ok(TenantBaWal { port, log })
    }

    /// The owning tenant.
    pub fn tenant(&self) -> TenantId {
        self.port.tenant
    }

    /// The mapping entry currently holding the tenant's window.
    pub fn eid(&self) -> EntryId {
        self.log
            .entry()
            .expect("no power cycle reaches a tenant log")
    }

    /// The log segment the window is pinned over (the count of rotations
    /// so far).
    pub fn segment(&self) -> u64 {
        self.log.segment()
    }

    /// When the window's pin load completes and it accepts appends.
    pub fn ready_at(&self) -> SimTime {
        self.log.ready_at()
    }

    /// The LSN the next append will carry.
    pub fn next_lsn(&self) -> u64 {
        self.log.next_lsn()
    }

    /// [`WalWriter::append_commit`] for a layer that keeps state per log
    /// segment (the tier layer): also reports where the record landed, and
    /// on a rotation runs `before_repin(next_segment, flushed_at)` between
    /// the full window's flush landing and the re-pin at `next_segment`,
    /// re-pinning at the instant it returns.
    ///
    /// # Errors
    ///
    /// As for [`WalWriter::append_commit`], plus whatever the hook returns.
    pub fn append_commit_with(
        &mut self,
        now: SimTime,
        payload: &[u8],
        before_repin: impl FnMut(u64, SimTime) -> Result<SimTime, WalError>,
    ) -> Result<(CommitOutcome, RecordLoc), WalError> {
        let payloads = std::iter::once(payload);
        self.log.append(&mut self.port, now, payloads, before_repin)
    }

    /// [`TenantBaWal::finalize`] with the rotation hook of
    /// [`TenantBaWal::append_commit_with`].
    ///
    /// # Errors
    ///
    /// Propagates device, arbiter and hook errors.
    pub fn finalize_with(
        &mut self,
        now: SimTime,
        before_repin: impl FnMut(u64, SimTime) -> Result<SimTime, WalError>,
    ) -> Result<SimTime, WalError> {
        self.log.finalize(&mut self.port, now, before_repin)
    }

    /// Flushes whatever the window holds (e.g. at shutdown) and re-pins,
    /// returning when the tail is durable on NAND.
    ///
    /// # Errors
    ///
    /// Propagates device and arbiter errors.
    pub fn finalize(&mut self, now: SimTime) -> Result<SimTime, WalError> {
        self.finalize_with(now, repin_at_once)
    }
}

impl WalWriter for TenantBaWal {
    fn append_commit(&mut self, now: SimTime, payload: &[u8]) -> Result<CommitOutcome, WalError> {
        Ok(self.append_commit_with(now, payload, repin_at_once)?.0)
    }

    /// Batch append: every record is stored, with one range `BA_SYNC` per
    /// touched window as the single durability point (rotation mid-batch
    /// syncs the outgoing window's tail first, so nothing is torn).
    fn append_batch(
        &mut self,
        now: SimTime,
        payloads: &[Vec<u8>],
    ) -> Result<CommitOutcome, WalError> {
        let payloads = payloads.iter().map(Vec::as_slice);
        let appended = self
            .log
            .append(&mut self.port, now, payloads, repin_at_once)?;
        Ok(appended.0)
    }

    fn scheme(&self) -> String {
        format!("BA-WAL({})", self.port.tenant)
    }

    fn stats(&self) -> WalStats {
        self.log.stats
    }
}

/// Block-WAL for one tenant of a shared device: conventional page-aligned
/// log writes plus an NVMe flush per commit, all routed as calendar events
/// so tenants contend in virtual time. The comparator scheme of the tenant
/// sweep — same chassis, block path instead of byte path.
#[derive(Debug, Clone)]
pub struct TenantBlockWal {
    dev: SharedDevice,
    cal: SharedCalendar,
    tenant: TenantId,
    log: PageLog,
}

impl TenantBlockWal {
    /// Creates a writer logging into `cfg`'s region of the shared device.
    ///
    /// # Errors
    ///
    /// [`WalError::BadConfig`] if the region does not fit the device.
    pub fn new(
        dev: SharedDevice,
        cal: SharedCalendar,
        tenant: TenantId,
        cfg: WalConfig,
    ) -> Result<Self, WalError> {
        let log = {
            let d = dev.borrow();
            PageLog::new(&cfg, d.page_size(), d.capacity_pages())?
        };
        Ok(TenantBlockWal {
            dev,
            cal,
            tenant,
            log,
        })
    }

    /// The owning tenant.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    fn append<'a>(
        &mut self,
        now: SimTime,
        payloads: impl Iterator<Item = &'a [u8]> + Clone,
    ) -> Result<CommitOutcome, WalError> {
        let (dev, cal) = (&self.dev, &self.cal);
        let staged = self.log.append(now, payloads, |at, lba, image| {
            // The calendar holds an operation's payload until it runs.
            let data = Arc::clone(image);
            Ok(run_op(dev, cal, at, IoOp::BlockWrite { lba, data })?.complete_at)
        })?;
        let flushed = run_op(dev, cal, staged.last_ack, IoOp::BlockFlush)?.complete_at;
        Ok(self.log.commit_flushed(now, flushed))
    }
}

impl WalWriter for TenantBlockWal {
    fn append_commit(&mut self, now: SimTime, payload: &[u8]) -> Result<CommitOutcome, WalError> {
        self.append(now, std::iter::once(payload))
    }

    /// Batch append (group commit): each touched page is written once, and
    /// one flush ends the batch.
    fn append_batch(
        &mut self,
        now: SimTime,
        payloads: &[Vec<u8>],
    ) -> Result<CommitOutcome, WalError> {
        self.append(now, payloads.iter().map(Vec::as_slice))
    }

    fn scheme(&self) -> String {
        format!("BLOCK-WAL({})", self.tenant)
    }

    fn stats(&self) -> WalStats {
        self.log.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lsn;
    use twob_core::TwoBSpec;
    use twob_ssd::SsdConfig;

    fn shared(tenants: u16) -> (SharedDevice, SharedCalendar, SharedPins) {
        let dev = TwoBSsd::new(SsdConfig::base_2b().small(), TwoBSpec::small_for_tests());
        let pins = PinTable::new(dev.spec(), tenants).unwrap();
        (
            Rc::new(RefCell::new(dev)),
            Rc::new(RefCell::new(IoCalendar::new())),
            Rc::new(RefCell::new(pins)),
        )
    }

    fn ba_cfg(tenant: u16) -> WalConfig {
        WalConfig {
            region_base_lba: u64::from(tenant) * 16,
            region_pages: 16,
        }
    }

    #[test]
    fn two_ba_tenants_log_into_one_device() {
        let (dev, cal, pins) = shared(2);
        let mut a = TenantBaWal::new(
            dev.clone(),
            cal.clone(),
            pins.clone(),
            TenantId(0),
            ba_cfg(0),
            2,
        )
        .unwrap();
        let mut b =
            TenantBaWal::new(dev.clone(), cal.clone(), pins, TenantId(1), ba_cfg(1), 2).unwrap();
        let mut t = SimTime::from_nanos(1_000_000);
        for i in 0..40u64 {
            let out_a = a.append_commit(t, format!("a-{i}").as_bytes()).unwrap();
            let out_b = b
                .append_commit(out_a.commit_at, format!("b-{i}").as_bytes())
                .unwrap();
            t = out_b.commit_at;
        }
        assert_eq!(a.stats().commits, 40);
        assert_eq!(b.stats().commits, 40);
        // Both tenants' windows stayed disjoint on the one device.
        assert_eq!(dev.borrow().entries().len(), 2);
    }

    #[test]
    fn rotation_flushes_and_repins_within_the_share() {
        let (dev, cal, pins) = shared(1);
        let mut w = TenantBaWal::new(dev.clone(), cal, pins, TenantId(0), ba_cfg(0), 2).unwrap();
        let mut t = SimTime::from_nanos(1_000_000);
        // 8 KiB window; ~116 B records: force several rotations.
        for _ in 0..300 {
            t = w.append_commit(t, &[7u8; 100]).unwrap().commit_at;
        }
        let s = w.stats();
        assert!(s.device_page_writes >= 4, "no rotations happened");
        assert!(
            (s.log_waf() - 1.0).abs() < f64::EPSILON,
            "tenant BA-WAL WAF {} != 1",
            s.log_waf()
        );
        assert_eq!(dev.borrow().entries().len(), 1, "window re-pinned");
    }

    #[test]
    fn ba_commit_beats_block_commit_on_the_same_chassis() {
        let (dev, cal, pins) = shared(2);
        let mut ba =
            TenantBaWal::new(dev.clone(), cal.clone(), pins, TenantId(0), ba_cfg(0), 2).unwrap();
        let blk_cfg = WalConfig {
            region_base_lba: 32,
            region_pages: 16,
        };
        let mut blk = TenantBlockWal::new(dev, cal, TenantId(1), blk_cfg).unwrap();
        let start = SimTime::from_nanos(1_000_000);
        let ba_out = ba.append_commit(start, &[1u8; 64]).unwrap();
        let blk_out = blk.append_commit(ba_out.commit_at, &[1u8; 64]).unwrap();
        let ba_lat = ba_out.commit_at.saturating_since(start);
        let blk_lat = blk_out.commit_at.saturating_since(ba_out.commit_at);
        assert!(
            ba_lat.as_nanos() * 3 < blk_lat.as_nanos(),
            "BA commit {ba_lat} should be well under block commit {blk_lat}"
        );
    }

    #[test]
    fn block_tenant_flushes_through_the_calendar() {
        let (dev, cal, _) = shared(1);
        let cfg = WalConfig {
            region_base_lba: 0,
            region_pages: 16,
        };
        let mut w = TenantBlockWal::new(dev, cal, TenantId(0), cfg).unwrap();
        let out = w.append_commit(SimTime::ZERO, b"tx").unwrap();
        assert_eq!(out.durable_at, Some(out.commit_at));
        assert_eq!(w.stats().device_flushes, 1);
        assert_eq!(w.stats().device_page_writes, 1);
    }

    #[test]
    fn batch_is_one_durability_point() {
        let (dev, cal, pins) = shared(1);
        let mut w = TenantBaWal::new(dev.clone(), cal, pins, TenantId(0), ba_cfg(0), 2).unwrap();
        let payloads: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 40]).collect();
        let out = w
            .append_batch(SimTime::from_nanos(1_000_000), &payloads)
            .unwrap();
        assert_eq!(out.lsn, Lsn(9));
        assert_eq!(w.stats().commits, 10);
        // One sync covered the whole batch.
        assert_eq!(dev.borrow().stats().syncs, 1);
    }

    #[test]
    fn cxl_tenant_commits_faster_than_mmio_tenant() {
        let (dev, cal, pins) = shared(2);
        let mut mmio = TenantBaWal::new(
            dev.clone(),
            cal.clone(),
            pins.clone(),
            TenantId(0),
            ba_cfg(0),
            2,
        )
        .unwrap();
        let mut cxl = TenantBaWal::with_front_end(
            dev.clone(),
            cal,
            pins,
            TenantId(1),
            ba_cfg(1),
            2,
            RegionFrontEnd::Cxl,
        )
        .unwrap();
        let start = SimTime::from_nanos(1_000_000);
        let m = mmio.append_commit(start, &[1u8; 128]).unwrap();
        let c = cxl.append_commit(m.commit_at, &[1u8; 128]).unwrap();
        let mmio_lat = m.commit_at.saturating_since(start);
        let cxl_lat = c.commit_at.saturating_since(m.commit_at);
        assert!(
            cxl_lat < mmio_lat,
            "CXL commit {cxl_lat} should beat MMIO commit {mmio_lat}"
        );
        let stats = dev.borrow().stats();
        assert_eq!(stats.cxl_persists, 1, "commit skipped the persist barrier");
        assert_eq!(stats.syncs, 1, "MMIO tenant should have synced once");
    }

    #[test]
    fn cxl_tenant_rotation_keeps_waf_one() {
        let (dev, cal, pins) = shared(1);
        let mut w = TenantBaWal::with_front_end(
            dev.clone(),
            cal,
            pins,
            TenantId(0),
            ba_cfg(0),
            2,
            RegionFrontEnd::Cxl,
        )
        .unwrap();
        let mut t = SimTime::from_nanos(1_000_000);
        for _ in 0..300 {
            t = w.append_commit(t, &[7u8; 100]).unwrap().commit_at;
        }
        let s = w.stats();
        assert!(s.device_page_writes >= 4, "no rotations happened");
        assert!(
            (s.log_waf() - 1.0).abs() < f64::EPSILON,
            "CXL tenant WAF {} != 1",
            s.log_waf()
        );
        // Rotation flushes still ride BA_FLUSH — demotion to NAND is the
        // shared path regardless of byte front-end.
        assert!(dev.borrow().stats().flushes >= 2);
    }

    #[test]
    fn tenant_cannot_outgrow_its_share() {
        let (dev, cal, pins) = shared(4);
        // 64 KiB buffer / 4 tenants = 4 pages each; an 8-page window is too
        // large for the share.
        let err = TenantBaWal::new(dev, cal, pins, TenantId(0), ba_cfg(0), 8).unwrap_err();
        assert!(matches!(err, WalError::Pin(_)), "got {err:?}");
    }
}
