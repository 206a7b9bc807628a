//! Conventional block-device WAL (paper Fig 5, left).

use twob_sim::SimTime;
use twob_ssd::BlockDevice;

use crate::logcore::PageLog;
use crate::{CommitMode, CommitOutcome, Lsn, WalConfig, WalError, WalStats, WalWriter};

/// Conventional WAL over a block device.
///
/// Every commit appends its record to an in-host page image and writes the
/// *whole page* (the I/O must be page-aligned), so a stream of small
/// commits rewrites the same page repeatedly — the write-amplification
/// pathology of §IV-A. `Sync` mode additionally flushes and waits; `Async`
/// completes after the host-memory copy and lets the page write trail.
///
/// # Example
///
/// ```rust
/// use twob_ssd::{Ssd, SsdConfig};
/// use twob_sim::SimTime;
/// use twob_wal::{BlockWal, CommitMode, WalConfig, WalWriter};
///
/// let ssd = Ssd::new(SsdConfig::dc_ssd().small());
/// let mut wal = BlockWal::new(ssd, WalConfig::default(), CommitMode::Async)?;
/// let out = wal.append_commit(SimTime::ZERO, b"small commit")?;
/// // Async: the transaction completed before the record was durable.
/// assert!(out.risk_window().is_some());
/// # Ok::<(), twob_wal::WalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BlockWal<D> {
    dev: D,
    mode: CommitMode,
    log: PageLog,
}

impl<D: BlockDevice> BlockWal<D> {
    /// Creates a writer over `dev` logging into `cfg`'s region.
    ///
    /// # Errors
    ///
    /// [`WalError::BadConfig`] if the config is invalid or the region does
    /// not fit the device.
    pub fn new(dev: D, cfg: WalConfig, mode: CommitMode) -> Result<Self, WalError> {
        let log = PageLog::new(&cfg, dev.page_size(), dev.capacity_pages())?;
        Ok(BlockWal { dev, mode, log })
    }

    /// The wrapped device (read-only).
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Mutable device access (for replay and fault injection in tests).
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.dev
    }

    /// Consumes the writer, returning the device.
    pub fn into_device(self) -> D {
        self.dev
    }

    /// The commit mode.
    pub fn mode(&self) -> CommitMode {
        self.mode
    }

    fn append<'a>(
        &mut self,
        now: SimTime,
        payloads: impl Iterator<Item = &'a [u8]> + Clone,
    ) -> Result<CommitOutcome, WalError> {
        let dev = &mut self.dev;
        let staged = self.log.append(now, payloads, |at, lba, image| {
            Ok(dev.write_pages(at, lba, image)?)
        })?;
        Ok(match self.mode {
            CommitMode::Sync => {
                let flushed = self.dev.flush(staged.last_ack);
                self.log.commit_flushed(now, flushed)
            }
            CommitMode::Async => {
                self.log.stats.commit_time_total += staged.staged_at.saturating_since(now);
                CommitOutcome {
                    lsn: self.log.last_lsn(),
                    commit_at: staged.staged_at,
                    durable_at: Some(staged.last_ack),
                }
            }
        })
    }
}

impl<D: BlockDevice> WalWriter for BlockWal<D> {
    fn append_commit(&mut self, now: SimTime, payload: &[u8]) -> Result<CommitOutcome, WalError> {
        self.append(now, std::iter::once(payload))
    }

    /// Batch append (group commit): all records are staged into page
    /// images, each touched page is written *once*, and a single flush
    /// ends the batch — instead of one page write + flush per record.
    fn append_batch(
        &mut self,
        now: SimTime,
        payloads: &[Vec<u8>],
    ) -> Result<CommitOutcome, WalError> {
        self.append(now, payloads.iter().map(Vec::as_slice))
    }

    fn scheme(&self) -> String {
        format!("{}-WAL({})", self.mode, self.dev.label())
    }

    fn stats(&self) -> WalStats {
        self.log.stats
    }
}

impl<D: BlockDevice> crate::WalTail for BlockWal<D> {
    /// Reads the tail over block reads of the log region — every poll
    /// scans from the region base to the write frontier, which is exactly
    /// why block-WAL shipping costs more than the BA-WAL's `BA_READ_DMA`
    /// window read-out.
    fn read_tail(&mut self, now: SimTime, from: Lsn) -> Result<crate::CursorBatch, WalError> {
        let (stream, t) = self.log.scan(&mut self.dev, now)?;
        let raw = crate::decode_stream(&stream).records;
        crate::cursor::finish_tail(raw, from, self.log.next_lsn(), t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay;
    use twob_ssd::{Ssd, SsdConfig};

    fn wal(mode: CommitMode) -> BlockWal<Ssd> {
        BlockWal::new(
            Ssd::new(SsdConfig::ull_ssd().small()),
            WalConfig::default(),
            mode,
        )
        .unwrap()
    }

    #[test]
    fn sync_commit_is_durable_at_commit() {
        let mut w = wal(CommitMode::Sync);
        let out = w.append_commit(SimTime::ZERO, b"tx1").unwrap();
        assert_eq!(out.durable_at, Some(out.commit_at));
        assert!(out.risk_window().is_none());
        // Commit waits for device write + flush: ≥ 10 us on ULL.
        assert!(
            out.commit_at
                .saturating_since(SimTime::ZERO)
                .as_micros_f64()
                > 9.0
        );
    }

    #[test]
    fn async_commit_has_risk_window() {
        let mut w = wal(CommitMode::Async);
        let out = w.append_commit(SimTime::ZERO, b"tx1").unwrap();
        let window = out.risk_window().expect("async must carry risk");
        assert!(window.as_micros_f64() > 1.0);
        // Commit itself is sub-microsecond (host memcpy only).
        assert!(
            out.commit_at
                .saturating_since(SimTime::ZERO)
                .as_micros_f64()
                < 1.0
        );
    }

    #[test]
    fn small_commits_rewrite_the_same_page() {
        let mut w = wal(CommitMode::Sync);
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            t = w.append_commit(t, &[7u8; 100]).unwrap().commit_at;
        }
        let s = w.stats();
        // 10 commits × ~116 B land in one 4 KiB page, written 10 times.
        assert_eq!(s.distinct_pages, 1);
        assert_eq!(s.device_page_writes, 10);
        assert!(s.log_waf() > 9.0);
    }

    #[test]
    fn large_record_spans_pages() {
        let mut w = wal(CommitMode::Sync);
        let out = w.append_commit(SimTime::ZERO, &vec![3u8; 6000]).unwrap();
        assert_eq!(out.lsn, Lsn(0));
        let s = w.stats();
        assert_eq!(s.distinct_pages, 2);
        assert!(s.device_page_writes >= 2);
    }

    #[test]
    fn oversized_record_rejected() {
        let mut w = wal(CommitMode::Sync);
        let region = 64 * 4096;
        let err = w
            .append_commit(SimTime::ZERO, &vec![0u8; region])
            .unwrap_err();
        assert!(matches!(err, WalError::RecordTooLarge { .. }));
    }

    #[test]
    fn replay_recovers_all_synced_records() {
        let mut w = wal(CommitMode::Sync);
        let mut t = SimTime::ZERO;
        for i in 0..20u64 {
            t = w
                .append_commit(t, format!("commit-{i}").as_bytes())
                .unwrap()
                .commit_at;
        }
        let cfg = WalConfig::default();
        let mut dev = w.into_device();
        let outcome = replay(&mut dev, t, cfg.region_base_lba, cfg.region_pages).unwrap();
        assert_eq!(outcome.records.len(), 20);
        assert_eq!(outcome.records[7].payload, b"commit-7");
        // LSNs are dense and ordered.
        for (i, rec) in outcome.records.iter().enumerate() {
            assert_eq!(rec.lsn, Lsn(i as u64));
        }
    }

    #[test]
    fn region_must_fit_device() {
        let cfg = WalConfig {
            region_base_lba: 0,
            region_pages: u32::MAX,
            ..WalConfig::default()
        };
        let err = BlockWal::new(
            Ssd::new(SsdConfig::ull_ssd().small()),
            cfg,
            CommitMode::Sync,
        )
        .unwrap_err();
        assert!(matches!(err, WalError::BadConfig(_)));
    }

    #[test]
    fn scheme_names_the_device() {
        let w = wal(CommitMode::Sync);
        assert_eq!(w.scheme(), "SYNC-WAL(ULL-SSD)");
    }

    #[test]
    fn batch_append_is_group_commit() {
        // 20 small records: individually they rewrite the page 20 times
        // with 20 flushes; batched they cost one page write + one flush.
        let payloads: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 50]).collect();
        let mut solo = wal(CommitMode::Sync);
        let mut t = SimTime::ZERO;
        for p in &payloads {
            t = solo.append_commit(t, p).unwrap().commit_at;
        }
        let solo_span = t.saturating_since(SimTime::ZERO);
        let mut grouped = wal(CommitMode::Sync);
        let out = grouped.append_batch(SimTime::ZERO, &payloads).unwrap();
        let grouped_span = out.commit_at.saturating_since(SimTime::ZERO);
        assert!(grouped_span.as_nanos() * 5 < solo_span.as_nanos());
        assert_eq!(grouped.stats().device_page_writes, 1);
        assert_eq!(grouped.stats().device_flushes, 1);
        assert_eq!(grouped.stats().commits, 20);
        assert_eq!(out.lsn, Lsn(19));

        // The batch replays identically to the solo stream.
        let cfg = WalConfig::default();
        let mut dev = grouped.into_device();
        let replayed = replay(
            &mut dev,
            out.commit_at,
            cfg.region_base_lba,
            cfg.region_pages,
        )
        .unwrap();
        assert_eq!(replayed.records.len(), 20);
        for (i, rec) in replayed.records.iter().enumerate() {
            assert_eq!(rec.payload, payloads[i]);
        }
    }

    #[test]
    fn empty_batch_rejected() {
        let mut w = wal(CommitMode::Sync);
        assert!(matches!(
            w.append_batch(SimTime::ZERO, &[]),
            Err(WalError::BadConfig(_))
        ));
    }
}
