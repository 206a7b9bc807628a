//! BA-WAL: the paper's logging scheme for 2B-SSD (§IV-B, Fig 5 right).

use twob_core::{EntryId, TwoBSsd};
use twob_ftl::Lba;
use twob_sim::SimTime;
use twob_ssd::BlockDevice;

use crate::logcore::{repin_at_once, ByteLog, ByteLogShape, Done, WindowPort, PAGE_BYTES};
use crate::{CommitOutcome, LogRecord, Lsn, WalConfig, WalError, WalStats, WalWriter};

/// The port of a writer that owns its device: direct device calls over
/// the paper's MMIO + `BA_SYNC` path, each window in the lowest free
/// mapping entry and BA-buffer hole (the one its flush just vacated).
struct OwnedDevice<'a>(&'a mut TwoBSsd);

impl WindowPort for OwnedDevice<'_> {
    fn store(&mut self, at: SimTime, eid: EntryId, offset: u64, data: &[u8]) -> Done {
        Ok(self.0.mmio_write(at, eid, offset, data)?.retired_at)
    }

    fn sync(&mut self, at: SimTime, eid: EntryId, offset: u64, len: u64) -> Done {
        Ok(self.0.ba_sync_range(at, eid, offset, len)?.complete_at)
    }

    fn flush(&mut self, at: SimTime, eid: EntryId) -> Done {
        Ok(self.0.ba_flush(at, eid)?.complete_at)
    }

    fn pin(&mut self, at: SimTime, lba: Lba, pages: u32) -> Result<(EntryId, SimTime), WalError> {
        // Pin cost rides the internal datapath, overlapping the host's
        // appends to the other window.
        let (eid, pin) = self.0.ba_pin_auto(at, lba, pages)?;
        Ok((eid, pin.complete_at))
    }
}

/// BA-WAL: log records go straight into the 2B-SSD's BA-buffer.
///
/// The three phases of BA commit (paper Fig 5):
///
/// 1. **Logging** — the record is `memcpy`ed through MMIO into the active
///    half of the pinned window ("logs are written as much as exactly
///    necessary": no page alignment, no host-memory staging).
/// 2. **Commit** — `BA_SYNC` over just the appended bytes makes the record
///    durable at DRAM-like latency; the transaction completes here.
/// 3. **Flushing** — when a half fills, one `BA_FLUSH` moves the whole
///    half to its pinned NAND pages over the internal datapath while the
///    host keeps logging into the other half (double buffering), and the
///    flushed half is re-pinned at the next log-segment LBAs.
///
/// Each log page is programmed exactly once, when full — the WAF-1 claim
/// of §IV-A, which [`WalStats::log_waf`] verifies.
///
/// # Example
///
/// ```rust
/// use twob_core::TwoBSsd;
/// use twob_sim::SimTime;
/// use twob_wal::{BaWal, WalConfig, WalWriter};
///
/// let dev = TwoBSsd::small_for_tests();
/// let mut wal = BaWal::new(dev, WalConfig::default(), 4)?;
/// let out = wal.append_commit(SimTime::ZERO, b"tiny commit")?;
/// // Durable at commit, at byte-path latency (microseconds, not tens).
/// assert_eq!(out.durable_at, Some(out.commit_at));
/// # Ok::<(), twob_wal::WalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BaWal {
    dev: TwoBSsd,
    log: ByteLog,
}

impl BaWal {
    /// Creates a single-buffered BA-WAL: one pinned window of
    /// `window_pages` pages, flushed in place when full. The paper's Redis
    /// port works this way to respect Redis's single-threaded design
    /// (§IV-B) — the log path stalls during each flush.
    ///
    /// # Errors
    ///
    /// As for [`BaWal::new`].
    pub fn new_single(dev: TwoBSsd, cfg: WalConfig, window_pages: u32) -> Result<Self, WalError> {
        BaWal::with_buffers(dev, cfg, window_pages, 1)
    }

    /// Creates a BA-WAL over `dev` with two `half_pages`-page halves,
    /// double-buffered (paper §IV-B). The halves are pinned immediately.
    ///
    /// # Errors
    ///
    /// [`WalError::BadConfig`] if the halves do not fit the BA-buffer, the
    /// log region, or the device.
    pub fn new(dev: TwoBSsd, cfg: WalConfig, half_pages: u32) -> Result<Self, WalError> {
        BaWal::with_buffers(dev, cfg, half_pages, 2)
    }

    fn with_buffers(
        mut dev: TwoBSsd,
        cfg: WalConfig,
        half_pages: u32,
        buffers: usize,
    ) -> Result<Self, WalError> {
        cfg.validate().map_err(WalError::BadConfig)?;
        let half_bytes = u64::from(half_pages) * PAGE_BYTES;
        if buffers as u64 * half_bytes > dev.spec().ba_buffer_bytes {
            return Err(WalError::BadConfig(format!(
                "{buffers} x {half_bytes}-byte windows exceed the {}-byte BA-buffer",
                dev.spec().ba_buffer_bytes
            )));
        }
        let shape = ByteLogShape {
            region_base_lba: cfg.region_base_lba,
            region_pages: cfg.region_pages,
            window_pages: half_pages,
            windows: buffers,
        };
        shape.validate(dev.capacity_pages())?;
        let log = ByteLog::open(&mut OwnedDevice(&mut dev), SimTime::ZERO, shape)?;
        Ok(BaWal { dev, log })
    }

    /// The wrapped 2B-SSD (read-only).
    pub fn device(&self) -> &TwoBSsd {
        &self.dev
    }

    /// Mutable device access (fault injection in tests).
    pub fn device_mut(&mut self) -> &mut TwoBSsd {
        &mut self.dev
    }

    /// Consumes the writer, returning the device.
    pub fn into_device(self) -> TwoBSsd {
        self.dev
    }

    /// Flushes whatever the halves hold (active first), e.g. at shutdown.
    /// Both halves are re-pinned afterwards, so logging may continue.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn finalize(&mut self, now: SimTime) -> Result<SimTime, WalError> {
        self.log
            .finalize(&mut OwnedDevice(&mut self.dev), now, repin_at_once)
    }

    /// Decodes the records currently sitting in the BA-buffer halves
    /// (synced but not yet flushed), merged in LSN order. After a power
    /// cycle this is exactly the set of committed-but-unflushed records
    /// the recovery manager preserved.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn recover_buffered(&mut self, now: SimTime) -> Result<Vec<LogRecord>, WalError> {
        let mut records = self.read_buffered(now)?.0;
        records.sort_by_key(|r| r.lsn);
        Ok(records)
    }

    fn append<'a>(
        &mut self,
        now: SimTime,
        payloads: impl Iterator<Item = &'a [u8]> + Clone,
    ) -> Result<CommitOutcome, WalError> {
        let port = &mut OwnedDevice(&mut self.dev);
        Ok(self.log.append(port, now, payloads, repin_at_once)?.0)
    }

    /// Reads every pinned window out over `BA_READ_DMA` and decodes it,
    /// returning the records and the latest read completion.
    fn read_buffered(&mut self, now: SimTime) -> Result<(Vec<LogRecord>, SimTime), WalError> {
        let mut done = now;
        let mut records = Vec::new();
        for entry in self.dev.entries() {
            let read = self.dev.ba_read_dma(now, entry.eid, 0, entry.len_bytes())?;
            done = done.max(read.complete_at);
            records.extend(crate::decode_stream(&read.data).records);
        }
        Ok((records, done))
    }
}

impl WalWriter for BaWal {
    fn append_commit(&mut self, now: SimTime, payload: &[u8]) -> Result<CommitOutcome, WalError> {
        self.append(now, std::iter::once(payload))
    }

    /// Batch append: all records are `memcpy`ed in, with a single
    /// `BA_SYNC` per touched half instead of one per record — the batch
    /// path `MiniRedis::rewrite_aof` and group commit use.
    fn append_batch(
        &mut self,
        now: SimTime,
        payloads: &[Vec<u8>],
    ) -> Result<CommitOutcome, WalError> {
        self.append(now, payloads.iter().map(Vec::as_slice))
    }

    fn scheme(&self) -> String {
        format!("BA-WAL({})", self.dev.label())
    }

    fn stats(&self) -> WalStats {
        self.log.stats
    }
}

impl crate::WalTail for BaWal {
    /// Reads the tail the way a 2B-SSD WAL sender would: the pinned
    /// BA-buffer halves come out over `BA_READ_DMA` (the byte-path
    /// read-out, paper §III-C), which in steady state is the whole story —
    /// a caught-up reader never touches NAND. Only when `from` predates
    /// the buffered window does the reader fall back to block reads of the
    /// flushed log region.
    fn read_tail(&mut self, now: SimTime, from: Lsn) -> Result<crate::CursorBatch, WalError> {
        let (mut raw, mut t) = self.read_buffered(now)?;
        // A re-pinned half can still decode stale (already-flushed)
        // records, so "the buffer holds `from`" is the coverage test —
        // stale records are byte-identical duplicates and dedup away.
        let covered = from.0 >= self.log.next_lsn() || raw.iter().any(|r| r.lsn == from);
        if !covered {
            // `canonical_tail` orders the flushed segments by LSN.
            t = t.max(self.log.read_flushed(&mut self.dev, now, &mut raw)?);
        }
        crate::cursor::finish_tail(raw, from, self.log.next_lsn(), t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay;
    use twob_sim::SimDuration;

    fn wal() -> BaWal {
        BaWal::new(TwoBSsd::small_for_tests(), WalConfig::default(), 4).unwrap()
    }

    #[test]
    fn ba_commit_is_durable_and_fast() {
        let mut w = wal();
        // Start after the initial pins have settled.
        let start = SimTime::from_nanos(1_000_000);
        let out = w.append_commit(start, &[9u8; 100]).unwrap();
        assert_eq!(out.durable_at, Some(out.commit_at));
        let us = out.commit_at.saturating_since(start).as_micros_f64();
        // Paper: persistence at memory-like latency — microseconds, far
        // below the ~10-13 us block writes.
        assert!(us < 3.0, "BA commit took {us:.2} us");
    }

    #[test]
    fn waf_is_one_under_small_commits() {
        let mut w = wal();
        let mut t = SimTime::ZERO;
        // Fill several halves with small commits.
        for _ in 0..600 {
            t = w.append_commit(t, &[5u8; 100]).unwrap().commit_at;
        }
        let s = w.stats();
        assert!(s.device_page_writes > 0, "halves never flushed");
        assert!(
            (s.log_waf() - 1.0).abs() < f64::EPSILON,
            "BA-WAL WAF {} != 1",
            s.log_waf()
        );
    }

    #[test]
    fn block_wal_waf_dwarfs_ba_wal_waf() {
        // The §IV-A comparison, end to end.
        let mut ba = wal();
        let mut block = crate::BlockWal::new(
            twob_ssd::Ssd::new(twob_ssd::SsdConfig::ull_ssd().small()),
            WalConfig::default(),
            crate::CommitMode::Sync,
        )
        .unwrap();
        let mut t1 = SimTime::ZERO;
        let mut t2 = SimTime::ZERO;
        for _ in 0..200 {
            t1 = ba.append_commit(t1, &[1u8; 64]).unwrap().commit_at;
            t2 = block.append_commit(t2, &[1u8; 64]).unwrap().commit_at;
        }
        assert!(block.stats().log_waf() > 10.0 * ba.stats().log_waf());
    }

    #[test]
    fn flushed_halves_are_replayable_from_nand() {
        let mut w = wal();
        let mut t = SimTime::ZERO;
        for i in 0..100u64 {
            t = w
                .append_commit(t, format!("rec-{i:04}").as_bytes())
                .unwrap()
                .commit_at;
        }
        t = w.finalize(t).unwrap() + SimDuration::from_millis(1);
        let cfg = WalConfig::default();
        let mut dev = w.into_device();
        // The region now holds every record; decode from NAND via the
        // block path.
        let outcome = replay(&mut dev, t, cfg.region_base_lba, cfg.region_pages).unwrap();
        // Wrapping may have overwritten the oldest halves, but the stream
        // must contain a dense LSN suffix ending at 99... reconstruct what
        // we can and check integrity instead.
        assert!(!outcome.records.is_empty());
        for rec in &outcome.records {
            let expect = format!("rec-{:04}", rec.lsn.0);
            assert_eq!(rec.payload, expect.as_bytes());
        }
    }

    #[test]
    fn power_loss_preserves_synced_records() {
        let mut w = wal();
        let mut t = SimTime::ZERO;
        for i in 0..10u64 {
            t = w
                .append_commit(t, format!("surv-{i}").as_bytes())
                .unwrap()
                .commit_at;
        }
        // Crash without any flush.
        let dump = w.device_mut().power_loss(t);
        assert!(dump.dumped);
        w.device_mut().power_on(t + SimDuration::from_millis(5));
        let records = w.recover_buffered(t + SimDuration::from_millis(6)).unwrap();
        assert_eq!(records.len(), 10);
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.payload, format!("surv-{i}").as_bytes());
        }
    }

    #[test]
    fn rotation_double_buffers() {
        let mut w = wal();
        let mut t = SimTime::from_nanos(1_000_000);
        // ~140 small commits fill one 16 KiB half over ~200 us of logging,
        // comfortably longer than the ~70 us flush+repin of the other half
        // — so no commit should ever wait on a rotation.
        let payload = vec![7u8; 100];
        let mut worst = SimDuration::ZERO;
        for _ in 0..500 {
            let out = w.append_commit(t, &payload).unwrap();
            worst = worst.max(out.commit_at.saturating_since(t));
            t = out.commit_at;
        }
        assert!(
            worst.as_micros_f64() < 20.0,
            "worst commit {worst} suggests flush blocked the log path"
        );
        assert!(w.stats().device_page_writes >= 8, "no rotations happened");
    }

    #[test]
    fn oversized_record_rejected() {
        let mut w = wal();
        let err = w
            .append_commit(SimTime::ZERO, &vec![0u8; 20_000])
            .unwrap_err();
        assert!(matches!(err, WalError::RecordTooLarge { .. }));
    }

    #[test]
    fn bad_configs_rejected() {
        let cfg = WalConfig {
            region_pages: 7, // not a multiple of half_pages
            ..WalConfig::default()
        };
        assert!(matches!(
            BaWal::new(TwoBSsd::small_for_tests(), cfg, 4),
            Err(WalError::BadConfig(_))
        ));
        // Halves exceeding the BA-buffer (64 KiB in the test device).
        assert!(matches!(
            BaWal::new(
                TwoBSsd::small_for_tests(),
                WalConfig {
                    region_pages: 40,
                    ..WalConfig::default()
                },
                10
            ),
            Err(WalError::BadConfig(_))
        ));
    }

    #[test]
    fn scheme_names_the_device() {
        assert_eq!(wal().scheme(), "BA-WAL(2B-SSD)");
    }

    #[test]
    fn batch_append_syncs_once_and_replays() {
        let mut w = wal();
        let payloads: Vec<Vec<u8>> = (0..30u8).map(|i| vec![i; 60]).collect();
        let start = SimTime::from_nanos(1_000_000);
        let out = w.append_batch(start, &payloads).unwrap();
        assert_eq!(out.durable_at, Some(out.commit_at));
        // One sync for the whole batch (it fits one half).
        assert_eq!(w.device().stats().syncs, 1);
        assert_eq!(w.stats().commits, 30);
        // All records readable back from the buffer.
        let records = w.recover_buffered(out.commit_at).unwrap();
        assert_eq!(records.len(), 30);
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.payload, payloads[i]);
        }
    }

    #[test]
    fn batch_append_survives_rotation() {
        // A batch larger than one half must sync the first half before
        // flushing it, so nothing is lost mid-batch.
        let mut w = wal(); // halves of 4 pages = 16384 B
        let payloads: Vec<Vec<u8>> = (0..30u16).map(|i| vec![i as u8; 1000]).collect();
        let start = SimTime::from_nanos(1_000_000);
        let out = w.append_batch(start, &payloads).unwrap();
        assert!(w.stats().device_page_writes >= 4, "no rotation happened");
        // Everything is recoverable: buffered tail + flushed NAND.
        let buffered = w.recover_buffered(out.commit_at).unwrap();
        for rec in &buffered {
            assert_eq!(rec.payload, payloads[rec.lsn.0 as usize]);
        }
        assert!(
            buffered.iter().any(|r| r.lsn.0 == 29),
            "newest record present"
        );
    }

    #[test]
    fn single_buffer_stalls_on_rotation() {
        // Redis-style single window (paper §IV-B): the flush is on the
        // log path, so the commit that triggers it waits.
        let mut single =
            BaWal::new_single(TwoBSsd::small_for_tests(), WalConfig::default(), 4).unwrap();
        let mut t = SimTime::from_nanos(1_000_000);
        let mut worst = SimDuration::ZERO;
        for _ in 0..500 {
            let out = single.append_commit(t, &[7u8; 100]).unwrap();
            worst = worst.max(out.commit_at.saturating_since(t));
            t = out.commit_at;
        }
        assert!(
            worst.as_micros_f64() > 20.0,
            "single-buffer rotation should stall the log path, worst {worst}"
        );
        // All records are still recoverable.
        assert!(single.stats().device_page_writes >= 8);
        assert!((single.stats().log_waf() - 1.0).abs() < f64::EPSILON);
    }
}
