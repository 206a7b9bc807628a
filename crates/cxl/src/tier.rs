//! Hot/cold tiering between the byte front-ends and block NAND.
//!
//! The pin table makes front-end choice a *per-region* property; this
//! module adds the policy that exploits it. A [`TieredWal`] keeps its
//! tail window pinned in the byte tier (CXL.mem by default, BA-MMIO on
//! request) — the tail is a `twob_wal::TenantBaWal`, so full segments
//! demote to block NAND by that writer's own rotation (fence,
//! calendar-routed `BA_FLUSH`, unpin) — and watches the read stream: a
//! segment that keeps absorbing cold block reads is promoted back into
//! the buffer — a calendar-priced re-pin whose NAND→buffer load is the
//! promotion cost — and idle promoted segments are swept back out.
//!
//! Every device touch routes through the shared [`IoCalendar`], so
//! tiering contends with GC, dumps, and other tenants in deterministic
//! virtual-time order and stays digest-identical across the lock-step,
//! adaptive, and parallel drives.
//!
//! [`IoCalendar`]: twob_core::IoCalendar

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use twob_core::{EntryId, IoOp, RegionFrontEnd, TenantId};
use twob_ftl::Lba;
use twob_sim::{SimDuration, SimTime};
use twob_wal::{
    run_op, CommitOutcome, LogRecord, Lsn, RecordLoc, SharedCalendar, SharedDevice, SharedPins,
    TenantBaWal, WalConfig, WalError,
};

const PAGE: u64 = 4096;

/// What the policy wants done with a segment after an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TierAction {
    /// Leave the segment in its current tier.
    Stay,
    /// Pin the segment into the byte tier (it is earning its buffer
    /// space).
    Promote,
    /// Flush the segment back to block NAND (it has gone idle).
    Demote,
}

/// Tunables for the hot/cold policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierPolicyConfig {
    /// Cold reads a segment must absorb within one [`hit_window`] before
    /// it is promoted.
    ///
    /// [`hit_window`]: TierPolicyConfig::hit_window
    pub promote_after_hits: u32,
    /// Width of the hit-counting window; hits older than this do not
    /// argue for promotion.
    pub hit_window: SimDuration,
    /// Idle time after which a promoted segment is demoted by
    /// [`TieredWal::sweep`].
    pub demote_after: SimDuration,
    /// Most segments the policy will hold promoted at once (the tail
    /// window is extra); promoting past this evicts the coldest.
    pub max_promoted: usize,
}

impl Default for TierPolicyConfig {
    fn default() -> Self {
        TierPolicyConfig {
            promote_after_hits: 2,
            hit_window: SimDuration::from_micros(500),
            demote_after: SimDuration::from_millis(2),
            max_promoted: 2,
        }
    }
}

/// Counters the tier layer exposes (and the tier sweep reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierStats {
    /// Segments pinned back into the byte tier.
    pub promotions: u64,
    /// Segments flushed out to block NAND (tail rotations, capacity
    /// evictions, and idle sweeps).
    pub demotions: u64,
    /// Reads served from the byte tier (tail or a promoted segment).
    pub hot_hits: u64,
    /// Reads served by the block path.
    pub cold_hits: u64,
}

/// Per-segment read heat.
#[derive(Debug, Clone, Copy)]
struct SegmentHeat {
    last_touch: SimTime,
    window_start: SimTime,
    hits: u32,
}

/// The hot/cold decision maker: tracks per-segment read heat and answers
/// "promote?", "demote?", and "who is coldest?". Pure bookkeeping — the
/// [`TieredWal`] performs the moves it recommends.
#[derive(Debug, Clone)]
pub struct TierPolicy {
    cfg: TierPolicyConfig,
    heat: BTreeMap<u64, SegmentHeat>,
    stats: TierStats,
}

impl TierPolicy {
    /// Creates a policy with the given tunables.
    pub fn new(cfg: TierPolicyConfig) -> Self {
        TierPolicy {
            cfg,
            heat: BTreeMap::new(),
            stats: TierStats::default(),
        }
    }

    /// The tunables this policy runs with.
    pub fn config(&self) -> TierPolicyConfig {
        self.cfg
    }

    /// Accumulated counters.
    pub fn stats(&self) -> TierStats {
        self.stats
    }

    /// Notes a read served from the byte tier.
    pub fn on_hot_read(&mut self, seg: u64, now: SimTime) {
        self.stats.hot_hits += 1;
        let heat = self.heat.entry(seg).or_insert(SegmentHeat {
            last_touch: now,
            window_start: now,
            hits: 0,
        });
        heat.last_touch = now;
    }

    /// Notes a read served by the block path and says whether the segment
    /// has now earned promotion.
    pub fn on_cold_read(&mut self, seg: u64, now: SimTime) -> TierAction {
        self.stats.cold_hits += 1;
        let heat = self.heat.entry(seg).or_insert(SegmentHeat {
            last_touch: now,
            window_start: now,
            hits: 0,
        });
        if now.saturating_since(heat.window_start) > self.cfg.hit_window {
            heat.window_start = now;
            heat.hits = 0;
        }
        heat.hits += 1;
        heat.last_touch = now;
        if heat.hits >= self.cfg.promote_after_hits {
            TierAction::Promote
        } else {
            TierAction::Stay
        }
    }

    /// Whether a promoted segment has idled long enough to demote.
    pub fn wants_demotion(&self, seg: u64, now: SimTime) -> bool {
        self.heat
            .get(&seg)
            .map(|h| now.saturating_since(h.last_touch) >= self.cfg.demote_after)
            .unwrap_or(true)
    }

    /// The least-recently-touched of `segments` (eviction victim).
    pub fn coldest(&self, segments: impl IntoIterator<Item = u64>) -> Option<u64> {
        segments
            .into_iter()
            .min_by_key(|seg| self.heat.get(seg).map(|h| h.last_touch))
    }

    /// Counts a completed promotion.
    pub fn record_promotion(&mut self) {
        self.stats.promotions += 1;
    }

    /// Counts a completed demotion.
    pub fn record_demotion(&mut self) {
        self.stats.demotions += 1;
    }

    /// Drops a segment's heat (its log space was overwritten).
    pub fn forget(&mut self, seg: u64) {
        self.heat.remove(&seg);
    }
}

/// Shape of a [`TieredWal`]'s log region and tiering behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierWalConfig {
    /// The underlying WAL geometry and host costs; the log region is
    /// `wal.region_pages` pages at `wal.region_base_lba`, wrapped.
    pub wal: WalConfig,
    /// Pages per segment: the tail window size and the promotion unit.
    pub window_pages: u32,
    /// Byte front-end serving the tail and every promoted segment.
    pub byte_front_end: RegionFrontEnd,
    /// Hot/cold policy tunables.
    pub policy: TierPolicyConfig,
}

impl Default for TierWalConfig {
    fn default() -> Self {
        TierWalConfig {
            wal: WalConfig::default(),
            window_pages: 2,
            byte_front_end: RegionFrontEnd::Cxl,
            policy: TierPolicyConfig::default(),
        }
    }
}

/// A segment currently pinned into the byte tier by promotion.
#[derive(Debug, Clone, Copy)]
struct HotSegment {
    eid: EntryId,
    ready_at: SimTime,
}

/// A WAL whose tail lives in the byte tier and whose cold segments live
/// on block NAND — the tier subsystem's flagship client.
///
/// The tail *is* a [`TenantBaWal`]: appends go through the pin table (so
/// the configured front-end prices the stores), commit with the
/// front-end's durability op on the shared calendar, and full windows
/// rotate to NAND. Tiering is the policy around it: a hook on the tail's
/// rotation retires what the wrap overwrites, reads of rotated records
/// ride the block path until the policy promotes their segment back. See
/// the crate example for the happy path.
#[derive(Debug, Clone)]
pub struct TieredWal {
    dev: SharedDevice,
    cal: SharedCalendar,
    pins: SharedPins,
    cfg: TierWalConfig,
    policy: TierPolicy,
    tail: TenantBaWal,
    index: BTreeMap<u64, RecordLoc>,
    promoted: BTreeMap<u64, HotSegment>,
}

/// Flushes a promoted segment's window back to NAND and unpins it.
fn demote(
    dev: &SharedDevice,
    cal: &SharedCalendar,
    pins: &SharedPins,
    tenant: TenantId,
    hot: HotSegment,
    at: SimTime,
) -> Result<SimTime, WalError> {
    let t = at.max(hot.ready_at);
    pins.borrow_mut().begin_unpin(t, tenant, hot.eid)?;
    let flush = run_op(dev, cal, t, IoOp::BaFlush { eid: hot.eid })?;
    pins.borrow_mut().finish_unpin(hot.eid)?;
    Ok(flush.complete_at)
}

impl TieredWal {
    /// Pins the tail window and readies the log.
    ///
    /// # Errors
    ///
    /// [`WalError::BadConfig`] for an invalid shape (including a `Block`
    /// byte front-end, or a share too small for the tail plus
    /// `policy.max_promoted` promoted windows), [`WalError::Pin`] if the
    /// arbiter refuses the window, or device failures.
    pub fn new(
        dev: SharedDevice,
        cal: SharedCalendar,
        pins: SharedPins,
        tenant: TenantId,
        cfg: TierWalConfig,
    ) -> Result<Self, WalError> {
        let windows_needed = (cfg.policy.max_promoted as u64 + 1) * u64::from(cfg.window_pages);
        if windows_needed > pins.borrow().share_pages() {
            return Err(WalError::BadConfig(format!(
                "share holds {} pages but tail + {} promoted windows need {}",
                pins.borrow().share_pages(),
                cfg.policy.max_promoted,
                windows_needed
            )));
        }
        let tail = TenantBaWal::with_front_end(
            dev.clone(),
            cal.clone(),
            pins.clone(),
            tenant,
            cfg.wal,
            cfg.window_pages,
            cfg.byte_front_end,
        )?;
        Ok(TieredWal {
            dev,
            cal,
            pins,
            cfg,
            policy: TierPolicy::new(cfg.policy),
            tail,
            index: BTreeMap::new(),
            promoted: BTreeMap::new(),
        })
    }

    /// The owning tenant.
    pub fn tenant(&self) -> TenantId {
        self.tail.tenant()
    }

    /// The byte front-end serving the hot tier.
    pub fn front_end(&self) -> RegionFrontEnd {
        self.cfg.byte_front_end
    }

    /// Tiering counters.
    pub fn stats(&self) -> TierStats {
        self.policy.stats()
    }

    /// The policy (read-only), for inspecting heat decisions.
    pub fn policy(&self) -> &TierPolicy {
        &self.policy
    }

    /// Segments currently promoted into the byte tier (tail excluded).
    pub fn promoted_segments(&self) -> Vec<u64> {
        self.promoted.keys().copied().collect()
    }

    fn num_segments(&self) -> u64 {
        u64::from(self.cfg.wal.region_pages) / u64::from(self.cfg.window_pages)
    }

    /// First LBA of the slot a segment occupies in the wrapped region.
    fn segment_lba(&self, seg: u64) -> Lba {
        let slot = seg % self.num_segments();
        Lba(self.cfg.wal.region_base_lba + slot * u64::from(self.cfg.window_pages))
    }

    /// Oldest segment whose log-region slot has not been overwritten.
    fn oldest_live_seg(&self) -> u64 {
        self.tail.segment().saturating_sub(self.num_segments() - 1)
    }

    fn oldest_lsn(&self) -> u64 {
        let next = self.tail.next_lsn();
        self.index.keys().next().copied().unwrap_or(next)
    }

    /// The error for a record the region wrap has overwritten.
    fn lag(&self, lsn: Lsn) -> WalError {
        WalError::CursorLag {
            requested: lsn.0,
            oldest: self.oldest_lsn(),
        }
    }

    /// Flushes a promoted segment back to NAND and unpins it.
    fn demote_promoted(&mut self, seg: u64, at: SimTime) -> Result<SimTime, WalError> {
        let hot = self
            .promoted
            .remove(&seg)
            .ok_or_else(|| WalError::BadConfig(format!("segment {seg} is not promoted")))?;
        let tenant = self.tail.tenant();
        let flushed = demote(&self.dev, &self.cal, &self.pins, tenant, hot, at)?;
        self.policy.record_demotion();
        Ok(flushed)
    }

    /// Pins a cold segment into the byte tier (evicting the coldest
    /// promoted segment first if the policy's budget is full).
    fn promote(&mut self, seg: u64, at: SimTime) -> Result<(), WalError> {
        let mut t = at;
        if self.promoted.len() >= self.cfg.policy.max_promoted {
            let victim = self
                .policy
                .coldest(self.promoted.keys().copied())
                .expect("a full promotion budget has a victim");
            t = self.demote_promoted(victim, t)?;
        }
        let (eid, pin) = self.pins.borrow_mut().pin_front_end(
            &mut self.dev.borrow_mut(),
            t,
            self.tail.tenant(),
            self.segment_lba(seg),
            self.cfg.window_pages,
            self.cfg.byte_front_end,
        )?;
        self.promoted.insert(
            seg,
            HotSegment {
                eid,
                ready_at: pin.complete_at,
            },
        );
        self.policy.record_promotion();
        Ok(())
    }

    /// Splits the writer into its tail and what the tail runs when it
    /// rotates, between demoting the full window to NAND and pinning the
    /// next segment's slot: the wrap reuses the oldest segment's slot, so
    /// that segment's records are gone and, if it was promoted, its window
    /// must leave the buffer before the tail is re-pinned.
    fn tail_and_rotation_hook(
        &mut self,
    ) -> (
        &mut TenantBaWal,
        impl FnMut(u64, SimTime) -> Result<SimTime, WalError> + '_,
    ) {
        let segments = self.num_segments();
        let TieredWal {
            dev,
            cal,
            pins,
            policy,
            tail,
            index,
            promoted,
            ..
        } = self;
        let tenant = tail.tenant();
        let hook = move |next_seg: u64, flushed: SimTime| {
            policy.record_demotion();
            let mut t = flushed;
            if next_seg >= segments {
                let dying = next_seg - segments;
                if let Some(hot) = promoted.remove(&dying) {
                    t = demote(dev, cal, pins, tenant, hot, t)?;
                    policy.record_demotion();
                }
                index.retain(|_, loc| loc.segment != dying);
                policy.forget(dying);
            }
            Ok(t)
        };
        (tail, hook)
    }

    /// Appends one record to the hot tail and commits it through the
    /// front-end's durability op.
    ///
    /// # Errors
    ///
    /// [`WalError::RecordTooLarge`] if the record cannot fit a window,
    /// or device/arbiter failures.
    pub fn append(&mut self, now: SimTime, payload: &[u8]) -> Result<CommitOutcome, WalError> {
        let (tail, hook) = self.tail_and_rotation_hook();
        let (outcome, loc) = tail.append_commit_with(now, payload, hook)?;
        self.index.insert(outcome.lsn.0, loc);
        Ok(outcome)
    }

    /// Reads one committed record back, returning its payload and the
    /// read's completion instant. Byte-tier segments (the tail and
    /// promoted ones) serve through the configured front-end; demoted
    /// segments ride the block path, and the policy may promote them as
    /// a side effect.
    ///
    /// # Errors
    ///
    /// [`WalError::CursorLag`] if region wrap-around overwrote the
    /// record, [`WalError::BadConfig`] for an LSN never appended, or
    /// device failures.
    pub fn read(&mut self, now: SimTime, lsn: Lsn) -> Result<(Vec<u8>, SimTime), WalError> {
        let loc = match self.index.get(&lsn.0) {
            Some(loc) => *loc,
            None if lsn.0 < self.tail.next_lsn() => return Err(self.lag(lsn)),
            None => {
                return Err(WalError::BadConfig(format!(
                    "{lsn:?} has not been appended"
                )))
            }
        };
        // The window holding the segment in the byte tier, if any.
        let hot = if loc.segment == self.tail.segment() {
            Some((self.tail.eid(), self.tail.ready_at()))
        } else {
            self.promoted
                .get(&loc.segment)
                .map(|hot| (hot.eid, hot.ready_at))
        };
        let (bytes, done_at) = if let Some((eid, ready_at)) = hot {
            self.policy.on_hot_read(loc.segment, now);
            let out = self.pins.borrow_mut().read(
                &mut self.dev.borrow_mut(),
                now.max(ready_at),
                self.tail.tenant(),
                eid,
                loc.offset,
                loc.len,
            )?;
            (out.data, out.complete_at)
        } else {
            if loc.segment < self.oldest_live_seg() {
                return Err(self.lag(lsn));
            }
            let first_page = loc.offset / PAGE;
            let last_page = (loc.offset + loc.len - 1) / PAGE;
            let lba = Lba(self.segment_lba(loc.segment).0 + first_page);
            let done = run_op(
                &self.dev,
                &self.cal,
                now,
                IoOp::BlockRead {
                    lba,
                    pages: (last_page - first_page + 1) as u32,
                },
            )?;
            let data = done.data.expect("block reads complete with data");
            let start = (loc.offset - first_page * PAGE) as usize;
            let bytes = data[start..start + loc.len as usize].to_vec();
            if self.policy.on_cold_read(loc.segment, now) == TierAction::Promote {
                self.promote(loc.segment, done.complete_at)?;
            }
            (bytes, done.complete_at)
        };
        let (record, _) = LogRecord::decode(&bytes).ok_or_else(|| {
            WalError::CorruptTail(format!("{lsn:?} failed to decode from its tier"))
        })?;
        if record.lsn != lsn {
            return Err(WalError::CorruptTail(format!(
                "tier read returned {:?} where {lsn:?} was indexed",
                record.lsn
            )));
        }
        Ok((record.payload, done_at))
    }

    /// Demotes every promoted segment that has idled past the policy's
    /// threshold (the background stage a host would run periodically),
    /// returning how many were demoted.
    ///
    /// # Errors
    ///
    /// Propagates device and arbiter failures.
    pub fn sweep(&mut self, now: SimTime) -> Result<usize, WalError> {
        let idle: Vec<u64> = self
            .promoted
            .keys()
            .copied()
            .filter(|&seg| self.policy.wants_demotion(seg, now))
            .collect();
        for seg in &idle {
            self.demote_promoted(*seg, now)?;
        }
        Ok(idle.len())
    }

    /// Flushes whatever the tail holds (e.g. at shutdown) and re-pins,
    /// returning when the tail is durable on NAND.
    ///
    /// # Errors
    ///
    /// Propagates device and arbiter errors.
    pub fn finalize(&mut self, now: SimTime) -> Result<SimTime, WalError> {
        let (tail, hook) = self.tail_and_rotation_hook();
        tail.finalize_with(now, hook)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use twob_core::{IoCalendar, PinTable, TwoBSsd};

    use super::*;

    fn rig() -> (SharedDevice, SharedCalendar, SharedPins) {
        let dev = TwoBSsd::small_for_tests();
        let pins = PinTable::new(dev.spec(), 1).unwrap();
        (
            Rc::new(RefCell::new(dev)),
            Rc::new(RefCell::new(IoCalendar::new())),
            Rc::new(RefCell::new(pins)),
        )
    }

    fn wal_with(cfg: TierWalConfig) -> (TieredWal, SharedDevice, SharedCalendar) {
        let (dev, cal, pins) = rig();
        let wal = TieredWal::new(dev.clone(), cal.clone(), pins, TenantId(0), cfg).unwrap();
        (wal, dev, cal)
    }

    /// Appends enough ~1 KiB records to rotate `segments` full windows
    /// out to NAND, returning (wal, dev, cal, time after the appends).
    fn filled(
        cfg: TierWalConfig,
        segments: u64,
    ) -> (TieredWal, SharedDevice, SharedCalendar, SimTime) {
        let (mut wal, dev, cal) = wal_with(cfg);
        let mut t = SimTime::from_nanos(1_000_000);
        let per_window = u64::from(wal.cfg.window_pages) * PAGE / 1024;
        for i in 0..(per_window * segments + 1) {
            let payload = vec![(i % 251) as u8; 1024 - 16];
            t = wal.append(t, &payload).unwrap().commit_at;
        }
        assert!(wal.tail.segment() >= segments, "fill did not rotate enough");
        (wal, dev, cal, t)
    }

    #[test]
    fn hot_tail_reads_serve_from_the_byte_tier() {
        let (mut wal, dev, _cal) = wal_with(TierWalConfig::default());
        let out = wal.append(SimTime::ZERO, b"tail record").unwrap();
        let (bytes, _) = wal.read(out.commit_at, out.lsn).unwrap();
        assert_eq!(bytes, b"tail record");
        let s = wal.stats();
        assert_eq!((s.hot_hits, s.cold_hits), (1, 0));
        // Default front-end is CXL: the read was a line-streamed load.
        assert_eq!(dev.borrow().stats().cxl_loads, 1);
        assert_eq!(dev.borrow().stats().cxl_persists, 1);
    }

    #[test]
    fn mmio_front_end_serves_the_paper_byte_path() {
        let cfg = TierWalConfig {
            byte_front_end: RegionFrontEnd::BaMmio,
            ..TierWalConfig::default()
        };
        let (mut wal, dev, _cal) = wal_with(cfg);
        let out = wal.append(SimTime::ZERO, b"mmio record").unwrap();
        let (bytes, _) = wal.read(out.commit_at, out.lsn).unwrap();
        assert_eq!(bytes, b"mmio record");
        let stats = dev.borrow().stats();
        assert_eq!(stats.syncs, 1, "commit should be a range BA_SYNC");
        assert_eq!(stats.cxl_persists, 0);
        assert_eq!(stats.mmio_loads, 1);
    }

    #[test]
    fn block_front_end_is_rejected_for_the_tail() {
        let (dev, cal, pins) = rig();
        let cfg = TierWalConfig {
            byte_front_end: RegionFrontEnd::Block,
            ..TierWalConfig::default()
        };
        let err = TieredWal::new(dev, cal, pins, TenantId(0), cfg).unwrap_err();
        assert!(matches!(err, WalError::BadConfig(_)), "got {err:?}");
    }

    #[test]
    fn rotated_records_come_back_from_block_nand() {
        let (mut wal, _dev, _cal, t) = filled(TierWalConfig::default(), 2);
        let (bytes, _) = wal.read(t, Lsn(0)).unwrap();
        assert_eq!(bytes, vec![0u8; 1024 - 16]);
        let s = wal.stats();
        assert_eq!(s.cold_hits, 1);
        assert!(s.demotions >= 2, "rotations demote windows to NAND");
        assert_eq!(s.promotions, 0, "one cold hit must not promote yet");
    }

    #[test]
    fn repeated_cold_reads_promote_the_segment() {
        let (mut wal, _dev, _cal, t) = filled(TierWalConfig::default(), 2);
        let (_, t1) = wal.read(t, Lsn(0)).unwrap();
        let cold_lat = t1.saturating_since(t);
        let (_, t2) = wal.read(t1, Lsn(1)).unwrap();
        assert_eq!(wal.stats().promotions, 1, "second hit within the window");
        assert_eq!(wal.promoted_segments(), vec![0]);
        // The next read of that segment is a byte-tier hit; the first one
        // still waits out the promotion's NAND→buffer fill, so time the
        // one after it for the steady-state win.
        let (bytes, t3) = wal.read(t2, Lsn(2)).unwrap();
        assert_eq!(bytes, vec![2u8; 1024 - 16]);
        let (_, t4) = wal.read(t3, Lsn(3)).unwrap();
        assert_eq!(wal.stats().hot_hits, 2);
        let hot_lat = t4.saturating_since(t3);
        assert!(
            hot_lat < cold_lat,
            "promoted read {hot_lat} should beat block read {cold_lat}"
        );
    }

    #[test]
    fn promotion_budget_evicts_the_coldest_segment() {
        let cfg = TierWalConfig {
            policy: TierPolicyConfig {
                max_promoted: 1,
                ..TierPolicyConfig::default()
            },
            ..TierWalConfig::default()
        };
        let (mut wal, _dev, _cal, t) = filled(cfg, 3);
        let per_window = u64::from(wal.cfg.window_pages) * PAGE / 1024;
        // Promote segment 0, then heat segment 1 past the threshold: the
        // budget of one forces segment 0 back out.
        let (_, t1) = wal.read(t, Lsn(0)).unwrap();
        let (_, t2) = wal.read(t1, Lsn(1)).unwrap();
        assert_eq!(wal.promoted_segments(), vec![0]);
        let (_, t3) = wal.read(t2, Lsn(per_window)).unwrap();
        let (_, _t4) = wal.read(t3, Lsn(per_window + 1)).unwrap();
        assert_eq!(wal.promoted_segments(), vec![1]);
        let s = wal.stats();
        assert_eq!(s.promotions, 2);
        // 3 tail rotations + 1 capacity eviction.
        assert_eq!(s.demotions, 4);
    }

    #[test]
    fn sweep_demotes_idle_promoted_segments() {
        let (mut wal, _dev, _cal, t) = filled(TierWalConfig::default(), 2);
        let (_, t1) = wal.read(t, Lsn(0)).unwrap();
        let (_, t2) = wal.read(t1, Lsn(1)).unwrap();
        assert_eq!(wal.promoted_segments(), vec![0]);
        let idle_cutoff = t2 + wal.policy().config().demote_after;
        assert_eq!(wal.sweep(t2).unwrap(), 0, "a hot segment must survive");
        assert_eq!(wal.sweep(idle_cutoff).unwrap(), 1);
        assert!(wal.promoted_segments().is_empty());
        // A read after the sweep rides the block path again.
        let before = wal.stats().cold_hits;
        wal.read(idle_cutoff, Lsn(0)).unwrap();
        assert_eq!(wal.stats().cold_hits, before + 1);
    }

    #[test]
    fn wraparound_overwrites_the_oldest_segment() {
        let cfg = TierWalConfig {
            wal: WalConfig {
                region_pages: 8,
                ..WalConfig::default()
            },
            ..TierWalConfig::default()
        };
        // 4 segments of 2 pages; filling 5 wraps past segment 0.
        let (mut wal, _dev, _cal, t) = filled(cfg, 5);
        let err = wal.read(t, Lsn(0)).unwrap_err();
        assert!(matches!(err, WalError::CursorLag { .. }), "got {err:?}");
        // The oldest surviving record still reads back.
        let oldest = wal.oldest_lsn();
        let (bytes, _) = wal.read(t, Lsn(oldest)).unwrap();
        assert_eq!(bytes, vec![(oldest % 251) as u8; 1024 - 16]);
    }

    #[test]
    fn unknown_lsn_is_loud() {
        let (mut wal, _dev, _cal) = wal_with(TierWalConfig::default());
        let err = wal.read(SimTime::ZERO, Lsn(5)).unwrap_err();
        assert!(matches!(err, WalError::BadConfig(_)), "got {err:?}");
    }

    #[test]
    fn finalize_flushes_the_tail() {
        let (mut wal, dev, _cal) = wal_with(TierWalConfig::default());
        let out = wal.append(SimTime::ZERO, b"to flush").unwrap();
        let flushes_before = dev.borrow().stats().flushes;
        wal.finalize(out.commit_at).unwrap();
        assert_eq!(dev.borrow().stats().flushes, flushes_before + 1);
        // The record survived demotion: it now reads from NAND.
        let t = out.commit_at + SimDuration::from_micros(100);
        let (bytes, _) = wal.read(t, out.lsn).unwrap();
        assert_eq!(bytes, b"to flush");
        assert_eq!(wal.stats().cold_hits, 1);
    }

    #[test]
    fn tiering_runs_are_deterministic_and_never_clamp() {
        let trace = || {
            let (mut wal, _dev, cal, t) = filled(TierWalConfig::default(), 2);
            let mut digest = Vec::new();
            let mut now = t;
            for lsn in [0u64, 1, 2, 0, 5, 1] {
                let (bytes, done) = wal.read(now, Lsn(lsn)).unwrap();
                digest.push((lsn, bytes.len(), done.as_nanos()));
                now = done;
            }
            wal.sweep(now + wal.policy().config().demote_after).unwrap();
            assert_eq!(cal.borrow().clamped_posts(), 0);
            (digest, wal.stats())
        };
        assert_eq!(trace(), trace());
    }
}
