//! Asynchronous submission of BA-path and block-path traffic over one event
//! calendar.
//!
//! The synchronous [`TwoBSsd`] API answers "when would this single call
//! complete?"; the [`IoCalendar`] answers the concurrent question: BA
//! flushes, syncs, read-DMAs, and ordinary block reads/writes are submitted
//! as timestamped events and dispatched in deterministic `(time, insertion)`
//! order against the device, whose shared servers — internal datapath
//! engine, dies, channels, firmware cores, DMA engine — make the two paths
//! contend exactly as the paper's dual-interface hardware does.
//!
//! A submitted operation stays on the calendar, payload and all, until its
//! start instant is dispatched. An open-loop drive therefore streams its
//! horizon through [`IoCalendar::drive_with`]: each operation enters the
//! calendar when it is due and each completion goes to a sink as it lands,
//! so the calendar holds what is in flight, not the horizon.
//! [`IoOp::BlockWrite`] shares its payload (`Arc<[u8]>`): build one page
//! image, clone the pointer into every write that lands it. The device
//! copies what it keeps, so the calendar is the last holder.
//!
//! # Example
//!
//! ```rust
//! use twob_core::{IoCalendar, IoOp, TwoBSsd};
//! use twob_ftl::Lba;
//! use twob_sim::SimTime;
//!
//! let mut dev = TwoBSsd::small_for_tests();
//! let (eid, pin) = dev.ba_pin_auto(SimTime::ZERO, Lba(0), 1).unwrap();
//! let mut cal = IoCalendar::new();
//! // A BA flush and a block write racing at the same instant.
//! cal.submit(pin.complete_at, IoOp::BaFlush { eid });
//! cal.submit(
//!     pin.complete_at,
//!     IoOp::BlockWrite { lba: Lba(8), data: vec![1u8; 4096].into() },
//! );
//! cal.drive(&mut dev);
//! assert_eq!(cal.drain_completions().len(), 2);
//! ```

use std::sync::Arc;

use twob_ftl::Lba;
use twob_sim::{Executor, LatencyBreakdown, SimTime};
use twob_ssd::BlockDevice;

use crate::{EntryId, TwoBError, TwoBSsd};

/// One operation submitted to the calendar.
#[derive(Debug, Clone)]
pub enum IoOp {
    /// `BA_FLUSH(EID)` over the internal datapath.
    BaFlush {
        /// Entry to flush.
        eid: EntryId,
    },
    /// `BA_SYNC(EID)` of the entry's whole window.
    BaSync {
        /// Entry to sync.
        eid: EntryId,
    },
    /// `BA_SYNC` of `[rel_offset, rel_offset + len)` within the window.
    BaSyncRange {
        /// Entry to sync.
        eid: EntryId,
        /// Window-relative start.
        rel_offset: u64,
        /// Bytes to sync.
        len: u64,
    },
    /// `BA_READ_DMA(EID, rel_offset, len)`.
    BaReadDma {
        /// Entry to read.
        eid: EntryId,
        /// Window-relative start.
        rel_offset: u64,
        /// Bytes to transfer.
        len: u64,
    },
    /// Block-path read of `pages` pages at `lba`.
    BlockRead {
        /// First logical page.
        lba: Lba,
        /// Page count.
        pages: u32,
    },
    /// Block-path write of page-aligned `data` at `lba`.
    BlockWrite {
        /// First logical page.
        lba: Lba,
        /// Page-aligned payload; queued writes may share one image (`Arc`,
        /// not `Rc`: the sharded calendar moves ops across threads).
        data: Arc<[u8]>,
    },
    /// Block-path flush: destages the device write cache (the NVMe FLUSH
    /// a block-WAL issues to make an appended record durable).
    BlockFlush,
    /// CXL persist barrier over `[rel_offset, rel_offset + len)` — the
    /// CXL analogue of [`IoOp::BaSyncRange`]'s durability point. (Stores
    /// and loads are direct device calls on both byte front-ends; only
    /// durability points, DMA and flushes are calendar-routed.)
    CxlPersist {
        /// Entry to persist.
        eid: EntryId,
        /// Window-relative start.
        rel_offset: u64,
        /// Bytes to persist.
        len: u64,
    },
}

/// The completed form of one submitted operation.
#[derive(Debug, Clone)]
pub struct IoCompletion {
    /// Identifier returned by [`IoCalendar::submit`].
    pub id: u64,
    /// Submission instant.
    pub submitted: SimTime,
    /// Completion instant (equals `submitted` plus nothing on error).
    pub complete_at: SimTime,
    /// Payload for reads/read-DMAs.
    pub data: Option<Vec<u8>>,
    /// The device error, if the operation failed.
    pub error: Option<TwoBError>,
    /// Per-stage latency attribution for block-path operations (zero for
    /// byte-path operations, which commit through MMIO + BA-buffer DRAM
    /// and never queue on the die/channel servers).
    pub breakdown: LatencyBreakdown,
}

/// Calendar events: a submitted operation starting, or its completion
/// landing. Completions are events too, so a long-running operation's
/// completion interleaves in time order with later submissions.
#[derive(Debug, Clone)]
enum IoEvent {
    Start {
        id: u64,
        submitted: SimTime,
        op: IoOp,
    },
    Done {
        completion: IoCompletion,
    },
}

/// The shared calendar routing BA-path and block-path traffic to a
/// [`TwoBSsd`]. See the module docs for the model.
#[derive(Debug, Clone, Default)]
pub struct IoCalendar {
    exec: Executor<IoEvent>,
    next_id: u64,
    completions: Vec<IoCompletion>,
}

impl IoCalendar {
    /// Creates an empty calendar.
    pub fn new() -> Self {
        IoCalendar::default()
    }

    /// Schedules `op` to start at `at`, returning its completion id.
    pub fn submit(&mut self, at: SimTime, op: IoOp) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.exec.post(
            at,
            IoEvent::Start {
                id,
                submitted: at,
                op,
            },
        );
        id
    }

    /// Events still pending on the calendar.
    pub fn pending(&self) -> usize {
        self.exec.pending()
    }

    /// The calendar's current virtual instant.
    pub fn now(&self) -> SimTime {
        self.exec.now()
    }

    /// How many submissions or completions were posted at instants already
    /// in the past and clamped forward to `now`. A non-zero count after a
    /// [`IoCalendar::drive`] or [`IoCalendar::drive_with`] means a caller
    /// dated an operation before the calendar's clock — the operation
    /// still ran (at `now`), but the intended timeline was not the one
    /// simulated.
    pub fn clamped_posts(&self) -> u64 {
        self.exec.clamped_posts()
    }

    /// Drains the calendar against `dev`, dispatching every submitted
    /// operation at its start instant and recording completions in
    /// completion-time order. Returns how many operations completed during
    /// this drive.
    pub fn drive(&mut self, dev: &mut TwoBSsd) -> usize {
        let mut completions = std::mem::take(&mut self.completions);
        let done = self.drive_with(dev, std::iter::empty(), |c| completions.push(c));
        self.completions = completions;
        done
    }

    /// Drains the calendar against `dev` while streaming `source` onto
    /// it, handing each completion to `sink` as it lands instead of
    /// keeping it. `source` yields `(start, op)` with non-decreasing start
    /// instants; an op is submitted, under the next id, only once no
    /// pending event fires before its start, so the calendar holds the
    /// operations in flight rather than a whole horizon. Completions reach
    /// `sink` in the order [`IoCalendar::drive`] records them, and the run
    /// equals submitting all of `source` up front and calling
    /// [`IoCalendar::drive`]. Returns how many operations completed.
    pub fn drive_with<S, F>(&mut self, dev: &mut TwoBSsd, source: S, mut sink: F) -> usize
    where
        S: IntoIterator<Item = (SimTime, IoOp)>,
        F: FnMut(IoCompletion),
    {
        let mut source = source.into_iter();
        let mut due = source.next();
        let mut completed = 0;
        let mut handler = |ex: &mut Executor<IoEvent>, t, ev| match ev {
            IoEvent::Start { id, submitted, op } => {
                let completion = dispatch_completion(dev, t, id, submitted, op);
                ex.post(completion.complete_at, IoEvent::Done { completion });
            }
            IoEvent::Done { completion } => {
                completed += 1;
                sink(completion);
            }
        };
        loop {
            // Post the held op once no pending event fires before it.
            if let Some((at, op)) =
                due.take_if(|(at, _)| self.exec.peek_next_time().is_none_or(|t| *at <= t))
            {
                self.submit(at, op);
                due = source.next();
            } else if !self.exec.step(&mut handler) {
                break;
            }
        }
        completed
    }

    /// Takes all recorded completions, ordered by completion time (ties in
    /// submission order).
    pub fn drain_completions(&mut self) -> Vec<IoCompletion> {
        std::mem::take(&mut self.completions)
    }
}

/// Runs one operation against the device at instant `t` and assembles its
/// completion record. Shared by the single-calendar [`IoCalendar`] and the
/// die-placed [`ShardedIoCalendar`](crate::ShardedIoCalendar), so both
/// price operations — and drive background GC/dump chains — identically.
pub(crate) fn dispatch_completion(
    dev: &mut TwoBSsd,
    t: SimTime,
    id: u64,
    submitted: SimTime,
    op: IoOp,
) -> IoCompletion {
    // Background GC steps and buffer dumps due by `t` fire first, so they
    // contend with this operation exactly as concurrent hardware would —
    // including across pure byte-path operations that never reach the SSD.
    dev.drive_background(t);
    let (outcome, data, breakdown) = match op {
        IoOp::BaFlush { eid } => (
            dev.ba_flush(t, eid).map(|c| c.complete_at),
            None,
            LatencyBreakdown::ZERO,
        ),
        IoOp::BaSync { eid } => (
            dev.ba_sync(t, eid).map(|c| c.complete_at),
            None,
            LatencyBreakdown::ZERO,
        ),
        IoOp::BaSyncRange {
            eid,
            rel_offset,
            len,
        } => (
            dev.ba_sync_range(t, eid, rel_offset, len)
                .map(|c| c.complete_at),
            None,
            LatencyBreakdown::ZERO,
        ),
        IoOp::BaReadDma {
            eid,
            rel_offset,
            len,
        } => match dev.ba_read_dma(t, eid, rel_offset, len) {
            Ok(out) => (Ok(out.complete_at), Some(out.data), LatencyBreakdown::ZERO),
            Err(e) => (Err(e), None, LatencyBreakdown::ZERO),
        },
        IoOp::BlockRead { lba, pages } => match dev.read_pages(t, lba, pages) {
            Ok(read) => (Ok(read.complete_at), Some(read.data), read.breakdown),
            Err(e) => (Err(e.into()), None, LatencyBreakdown::ZERO),
        },
        IoOp::BlockWrite { lba, data } => match dev.write_pages(t, lba, &data) {
            Ok(ack) => (Ok(ack), None, dev.ssd().last_breakdown()),
            Err(e) => (Err(e.into()), None, LatencyBreakdown::ZERO),
        },
        IoOp::BlockFlush => (Ok(dev.flush(t)), None, LatencyBreakdown::ZERO),
        IoOp::CxlPersist {
            eid,
            rel_offset,
            len,
        } => (
            dev.cxl_persist(t, eid, rel_offset, len)
                .map(|c| c.complete_at),
            None,
            LatencyBreakdown::ZERO,
        ),
    };
    match outcome {
        Ok(complete_at) => IoCompletion {
            id,
            submitted,
            complete_at,
            data,
            error: None,
            breakdown,
        },
        Err(error) => IoCompletion {
            id,
            submitted,
            complete_at: t,
            data: None,
            error: Some(error),
            breakdown: LatencyBreakdown::ZERO,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twob_sim::SimDuration;

    fn pinned_dev(lbas: &[u64]) -> (TwoBSsd, Vec<EntryId>) {
        let mut dev = TwoBSsd::small_for_tests();
        let mut t = SimTime::ZERO;
        let mut eids = Vec::new();
        for &lba in lbas {
            let (eid, pin) = dev.ba_pin_auto(t, Lba(lba), 1).unwrap();
            t = pin.complete_at;
            eids.push(eid);
        }
        (dev, eids)
    }

    /// Builds a device with block data at `lba` (durably destaged) and one
    /// 8-page BA entry pinned, ready to flush.
    fn flush_race_dev(lba: u64) -> (TwoBSsd, EntryId) {
        let mut dev = TwoBSsd::small_for_tests();
        let ack = dev
            .write_pages(SimTime::ZERO, Lba(lba), &vec![0x5Au8; 4096])
            .unwrap();
        let settled = dev.flush(ack);
        let (eid, pin) = dev.ba_pin_auto(settled, Lba(64), 8).unwrap();
        assert!(pin.complete_at < SimTime::from_nanos(1_000_000));
        (dev, eid)
    }

    #[test]
    fn ba_and_block_traffic_contend_on_shared_device() {
        let start = SimTime::from_nanos(1_000_000);
        // A lone block read on an otherwise idle device...
        let (mut solo, _) = flush_race_dev(16);
        let lone = solo.read_pages(start, Lba(16), 1).unwrap().complete_at;

        // ...versus the same read racing an 8-page BA flush whose NAND
        // programs occupy the dies and channels the read needs.
        let (mut dev, eid) = flush_race_dev(16);
        let mut cal = IoCalendar::new();
        cal.submit(start, IoOp::BaFlush { eid });
        let read_id = cal.submit(
            start,
            IoOp::BlockRead {
                lba: Lba(16),
                pages: 1,
            },
        );
        let completed = cal.drive(&mut dev);
        assert_eq!(completed, 2);
        assert_eq!(cal.clamped_posts(), 0, "no op was dated before the clock");
        let done = cal.drain_completions();
        let contended = done.iter().find(|c| c.id == read_id).unwrap();
        assert!(
            contended.error.is_none(),
            "read failed: {:?}",
            contended.error
        );
        assert!(
            contended.complete_at > lone,
            "block read should queue behind BA-flush NAND work: \
             contended {:?} vs lone {lone:?}",
            contended.complete_at,
        );
    }

    #[test]
    fn completions_are_recorded_in_completion_order() {
        let (mut dev, eids) = pinned_dev(&[0]);
        let start = SimTime::from_nanos(1_000_000);
        let mut cal = IoCalendar::new();
        // A slow flush (durable-on-NAND) submitted first and a block write
        // (acks at cache insert) submitted second: drain order follows
        // completion time, not submission order.
        let flush_id = cal.submit(start, IoOp::BaFlush { eid: eids[0] });
        let write_id = cal.submit(
            start,
            IoOp::BlockWrite {
                lba: Lba(8),
                data: vec![9u8; 4096].into(),
            },
        );
        cal.drive(&mut dev);
        let done = cal.drain_completions();
        assert_eq!(done.len(), 2);
        assert!(done[0].complete_at <= done[1].complete_at);
        assert_eq!(done[0].id, write_id, "fast ack should drain first");
        assert_eq!(done[1].id, flush_id);
    }

    #[test]
    fn queued_block_writes_share_one_payload() {
        let mut dev = TwoBSsd::small_for_tests();
        let page: Arc<[u8]> = vec![0xA5u8; 4096].into();
        let mut cal = IoCalendar::new();
        for lba in [Lba(8), Lba(9)] {
            let data = Arc::clone(&page);
            cal.submit(SimTime::ZERO, IoOp::BlockWrite { lba, data });
        }
        // A queued write holds a pointer, not a page.
        assert_eq!(Arc::strong_count(&page), 3);
        assert_eq!(cal.drive(&mut dev), 2);
        // Each write ran, landed the shared bytes, and let go of them.
        assert_eq!(Arc::strong_count(&page), 1);
        let settled = cal.now() + SimDuration::from_millis(1);
        for lba in [Lba(8), Lba(9)] {
            assert_eq!(dev.read_pages(settled, lba, 1).unwrap().data, &page[..]);
        }
    }

    #[test]
    fn errors_complete_immediately_with_cause() {
        let mut dev = TwoBSsd::small_for_tests();
        let mut cal = IoCalendar::new();
        let id = cal.submit(
            SimTime::ZERO,
            IoOp::BlockRead {
                lba: Lba(0),
                pages: 1,
            },
        );
        cal.submit(
            SimTime::ZERO,
            IoOp::BaFlush {
                eid: EntryId(7), // nothing pinned
            },
        );
        cal.drive(&mut dev);
        let done = cal.drain_completions();
        assert_eq!(done.len(), 2);
        for c in &done {
            assert!(c.error.is_some(), "op {} should have failed", c.id);
            assert_eq!(c.complete_at, SimTime::ZERO);
        }
        assert!(done.iter().any(|c| c.id == id));
    }

    #[test]
    fn read_dma_round_trips_data_through_calendar() {
        let (mut dev, eids) = pinned_dev(&[0]);
        let eid = eids[0];
        let t = SimTime::from_nanos(1_000_000);
        let store = dev.mmio_write(t, eid, 0, b"calendar bytes").unwrap();
        let mut cal = IoCalendar::new();
        // Chain sync → DMA through the calendar itself.
        cal.submit(store.retired_at, IoOp::BaSync { eid });
        cal.drive(&mut dev);
        let sync_done = cal.drain_completions().pop().unwrap();
        assert!(sync_done.error.is_none());
        cal.submit(
            sync_done.complete_at,
            IoOp::BaReadDma {
                eid,
                rel_offset: 0,
                len: 14,
            },
        );
        cal.drive(&mut dev);
        let done = cal.drain_completions();
        assert_eq!(done[0].data.as_deref(), Some(&b"calendar bytes"[..]));
    }

    #[test]
    fn cxl_ops_round_trip_data_through_calendar() {
        let (mut dev, eids) = pinned_dev(&[0]);
        let eid = eids[0];
        let t = SimTime::from_nanos(1_000_000);
        // Stores and loads are direct calls; the durability point between
        // them goes through the calendar.
        let store = dev.cxl_store(t, eid, 0, b"cxl bytes").unwrap();
        let mut cal = IoCalendar::new();
        cal.submit(
            store.retired_at,
            IoOp::CxlPersist {
                eid,
                rel_offset: 0,
                len: 9,
            },
        );
        cal.drive(&mut dev);
        let persist = cal.drain_completions().pop().unwrap();
        assert!(persist.error.is_none());
        assert!(persist.complete_at > store.retired_at);
        let load = dev.cxl_load(persist.complete_at, eid, 0, 9).unwrap();
        assert_eq!(load.data, b"cxl bytes");
        assert_eq!(cal.clamped_posts(), 0);
        let stats = dev.stats();
        assert_eq!(
            (stats.cxl_stores, stats.cxl_persists, stats.cxl_loads),
            (1, 1, 1)
        );
    }

    #[test]
    fn cxl_commit_undercuts_mmio_commit_on_the_calendar() {
        // The tier claim at the op level: store + persist through CXL
        // completes earlier than the same bytes through MMIO + BA_SYNC.
        let commit = |cxl: bool| {
            let (mut dev, eids) = pinned_dev(&[0]);
            let (eid, rel_offset, len) = (eids[0], 0, 128);
            let t = SimTime::from_nanos(1_000_000);
            let (store, sync) = if cxl {
                let store = dev.cxl_store(t, eid, rel_offset, &[7u8; 128]);
                (
                    store,
                    IoOp::CxlPersist {
                        eid,
                        rel_offset,
                        len,
                    },
                )
            } else {
                let store = dev.mmio_write(t, eid, rel_offset, &[7u8; 128]);
                (
                    store,
                    IoOp::BaSyncRange {
                        eid,
                        rel_offset,
                        len,
                    },
                )
            };
            let mut cal = IoCalendar::new();
            cal.submit(store.unwrap().retired_at, sync);
            cal.drive(&mut dev);
            cal.drain_completions().pop().unwrap().complete_at
        };
        let (cxl, mmio) = (commit(true), commit(false));
        assert!(cxl < mmio, "cxl commit {cxl:?} should beat mmio {mmio:?}");
    }

    /// A device with background GC enabled, one BA entry pinned at the top
    /// of LBA space, and (optionally) enough block-write churn below it to
    /// put GC permanently in motion.
    fn gc_device(churn_rounds: u64) -> (TwoBSsd, EntryId, SimTime) {
        use twob_ssd::SsdConfig;
        let cfg = SsdConfig::base_2b().small().with_background_gc();
        let mut dev = TwoBSsd::new(cfg, crate::TwoBSpec::small_for_tests());
        let lbas = dev.capacity_pages();
        let (eid, pin) = dev.ba_pin_auto(SimTime::ZERO, Lba(lbas - 1), 1).unwrap();
        let mut t = pin.complete_at;
        let churn_lbas = lbas - 1; // never touch the gated pinned page
        for i in 0..churn_lbas {
            t = dev.write_pages(t, Lba(i), &vec![i as u8; 4096]).unwrap();
        }
        for i in 0..churn_rounds {
            let lba = (i * 7) % churn_lbas;
            t = dev
                .write_pages(t, Lba(lba), &vec![!(i as u8); 4096])
                .unwrap();
        }
        (dev, eid, t)
    }

    #[test]
    fn ba_sync_latency_is_flat_under_gc_storm() {
        // The byte path commits through MMIO + BA-buffer DRAM only; a GC
        // storm saturating the dies must not move its latency at all.
        let (mut idle, eid_i, _) = gc_device(0);
        let (mut storm, eid_s, t_storm) = gc_device(600);
        assert!(
            storm.ssd().ftl().stats().erases > 0,
            "storm device never collected garbage"
        );
        // Same instant on both devices, far enough out that the idle device
        // is settled and the storm device is mid-churn backlog.
        let probe = t_storm;
        let measure = |dev: &mut TwoBSsd, eid: EntryId| {
            let store = dev.mmio_write(probe, eid, 0, b"flat?").unwrap();
            let sync = dev.ba_sync_range(store.retired_at, eid, 0, 5).unwrap();
            sync.complete_at.saturating_since(probe)
        };
        let idle_lat = measure(&mut idle, eid_i);
        let storm_lat = measure(&mut storm, eid_s);
        assert_eq!(
            idle_lat, storm_lat,
            "BA-path commit latency moved under GC: idle {idle_lat} vs storm {storm_lat}"
        );
    }

    #[test]
    fn calendar_dispatch_advances_background_gc() {
        let (mut dev, eid, t) = gc_device(600);
        let erases_before = dev.ssd().ftl().stats().erases;
        // A lone byte-path op far in the future: dispatch must still fire
        // the GC steps due by then, even though BA_SYNC never touches NAND.
        let mut cal = IoCalendar::new();
        cal.submit(t + SimDuration::from_millis(50), IoOp::BaSync { eid });
        cal.drive(&mut dev);
        let done = cal.drain_completions();
        assert!(done[0].error.is_none(), "sync failed: {:?}", done[0].error);
        assert!(
            dev.ssd().ftl().stats().erases > erases_before,
            "calendar dispatch did not drive pending background GC"
        );
    }

    #[test]
    fn calendar_is_deterministic() {
        let run = || {
            let (mut dev, eids) = pinned_dev(&[0, 2]);
            let start = SimTime::from_nanos(1_000_000);
            let mut cal = IoCalendar::new();
            cal.submit(start, IoOp::BaFlush { eid: eids[0] });
            cal.submit(
                start,
                IoOp::BlockWrite {
                    lba: Lba(8),
                    data: vec![3u8; 4096].into(),
                },
            );
            cal.submit(start, IoOp::BaSync { eid: eids[1] });
            cal.submit(
                start,
                IoOp::BlockRead {
                    lba: Lba(8),
                    pages: 1,
                },
            );
            cal.drive(&mut dev);
            cal.drain_completions()
                .into_iter()
                .map(|c| (c.id, c.complete_at, c.error.is_some()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
