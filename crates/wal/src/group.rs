//! Group commit: asynchronous commit submission with batched durability.
//!
//! Databases under concurrent load do not sync the log once per
//! transaction — committers that arrive while a sync is pending are grouped
//! and made durable together, amortizing the device round trip. This module
//! adds that path on top of any [`WalWriter`]: committers [`submit`] and get
//! a ticket; a deadline on the event calendar closes the batch after a
//! configurable window (or when it reaches `max_batch`), issues one
//! [`WalWriter::append_batch`] — one page write or one `BA_SYNC` for the
//! whole group — and delivers per-ticket outcomes through a completion
//! callback.
//!
//! [`submit`]: GroupCommit::submit
//!
//! # Example
//!
//! ```rust
//! use twob_core::TwoBSsd;
//! use twob_sim::{SimDuration, SimTime};
//! use twob_wal::{BaWal, GroupCommit, WalConfig};
//!
//! let wal = BaWal::new(TwoBSsd::small_for_tests(), WalConfig::default(), 4)?;
//! let mut group = GroupCommit::new(wal, SimDuration::from_micros(5), 64);
//! for i in 0..4u8 {
//!     group.submit(SimTime::from_nanos(u64::from(i) * 100), &[i]);
//! }
//! let mut done = Vec::new();
//! group.drive(SimTime::from_nanos(1_000_000), |out| done.push(out.ticket))?;
//! assert_eq!(done, vec![0, 1, 2, 3]);
//! // Four commits, one durability point.
//! assert_eq!(group.inner().device().stats().syncs, 1);
//! # Ok::<(), twob_wal::WalError>(())
//! ```

use twob_sim::{EventQueue, SimDuration, SimTime};

use crate::{CommitOutcome, Lsn, WalError, WalWriter};

/// A committer's view of its grouped commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupOutcome {
    /// Ticket returned by [`GroupCommit::submit`].
    pub ticket: u64,
    /// When the committer submitted.
    pub submitted: SimTime,
    /// This record's sequence number.
    pub lsn: Lsn,
    /// When the committer's transaction may complete — the group's
    /// durability point (or the batch outcome's commit instant for
    /// asynchronous inner writers).
    pub commit_at: SimTime,
    /// When the record is durable, if known.
    pub durable_at: Option<SimTime>,
}

struct PendingCommit {
    ticket: u64,
    submitted: SimTime,
}

/// A group-commit front end over any [`WalWriter`]. See the module docs.
pub struct GroupCommit<W: WalWriter> {
    inner: W,
    window: SimDuration,
    max_batch: usize,
    pending: Vec<PendingCommit>,
    /// `pending[i]`'s payload: lent to [`WalWriter::append_batch`] as is.
    payloads: Vec<Vec<u8>>,
    deadlines: EventQueue<()>,
    next_ticket: u64,
    batches: u64,
    grouped: u64,
}

impl<W: WalWriter> GroupCommit<W> {
    /// Wraps `inner`, closing each batch `window` after its first submission
    /// or as soon as it holds `max_batch` records.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn new(inner: W, window: SimDuration, max_batch: usize) -> Self {
        assert!(max_batch > 0, "need a batch of at least one record");
        GroupCommit {
            inner,
            window,
            max_batch,
            pending: Vec::new(),
            payloads: Vec::new(),
            deadlines: EventQueue::new(),
            next_ticket: 0,
            batches: 0,
            grouped: 0,
        }
    }

    /// The wrapped writer.
    pub fn inner(&self) -> &W {
        &self.inner
    }

    /// Unwraps the writer.
    pub fn into_inner(self) -> W {
        self.inner
    }

    /// Batches issued so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Commits that rode in a batch with at least one other commit.
    pub fn grouped_commits(&self) -> u64 {
        self.grouped
    }

    /// Committers waiting for the next batch.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Earliest armed batch deadline, if any committer is waiting — what an
    /// external event loop (e.g. a multi-tenant pool) must not step past
    /// without calling [`GroupCommit::drive`].
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.deadlines.peek_time()
    }

    /// Registers a commit of `payload` at `now`, returning its ticket. The
    /// first submission of a batch arms a flush deadline `window` later;
    /// the batch is issued when [`GroupCommit::drive`] passes that deadline
    /// (or immediately once `max_batch` committers are waiting).
    pub fn submit(&mut self, now: SimTime, payload: &[u8]) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        if self.pending.is_empty() {
            self.deadlines.push(now + self.window, ());
        }
        self.pending.push(PendingCommit {
            ticket,
            submitted: now,
        });
        self.payloads.push(payload.to_vec());
        ticket
    }

    /// Advances the group committer to `now`: every armed deadline at or
    /// before `now` (and any batch that hit `max_batch`) is issued through
    /// one [`WalWriter::append_batch`] call, and `on_complete` is invoked
    /// once per grouped committer, in ticket order.
    ///
    /// # Errors
    ///
    /// Propagates the inner writer's error; the batch's committers stay
    /// pending, and its deadline armed, so a caller can retry with the
    /// same call.
    pub fn drive<F>(&mut self, now: SimTime, mut on_complete: F) -> Result<(), WalError>
    where
        F: FnMut(GroupOutcome),
    {
        // Oversize batches flush at their arrival instant, without waiting
        // for the deadline.
        while self.pending.len() >= self.max_batch {
            let at = self.batch_close_time(self.max_batch);
            self.flush_batch(at, &mut on_complete)?;
        }
        while let Some(at) = self.deadlines.peek_time().filter(|&t| t <= now) {
            // An empty batch already flushed via max_batch.
            if !self.pending.is_empty() {
                self.flush_batch(at, &mut on_complete)?;
            }
            self.deadlines.pop();
        }
        Ok(())
    }

    /// Forces the current batch out at `now` regardless of its deadline
    /// (e.g. at shutdown).
    ///
    /// # Errors
    ///
    /// Propagates the inner writer's error.
    pub fn flush_now<F>(&mut self, now: SimTime, mut on_complete: F) -> Result<(), WalError>
    where
        F: FnMut(GroupOutcome),
    {
        while !self.pending.is_empty() {
            let take = self.pending.len().min(self.max_batch);
            let at = now.max(self.batch_close_time(take));
            self.flush_batch(at, &mut on_complete)?;
        }
        Ok(())
    }

    /// Latest submission instant among the first `take` pending commits —
    /// the earliest a batch of them can close.
    fn batch_close_time(&self, take: usize) -> SimTime {
        self.pending[..take]
            .iter()
            .map(|p| p.submitted)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    fn flush_batch<F>(&mut self, at: SimTime, on_complete: &mut F) -> Result<(), WalError>
    where
        F: FnMut(GroupOutcome),
    {
        let take = self.pending.len().min(self.max_batch);
        // A failed batch leaves both vectors as they were, for a retry.
        let CommitOutcome {
            lsn: last_lsn,
            commit_at,
            durable_at,
        } = self.inner.append_batch(at, &self.payloads[..take])?;
        self.payloads.drain(..take);
        self.batches += 1;
        if take > 1 {
            self.grouped += take as u64;
        }
        // `append_batch` assigns consecutive LSNs and reports the last.
        let first_lsn = last_lsn.0 + 1 - take as u64;
        for (i, p) in self.pending.drain(..take).enumerate() {
            on_complete(GroupOutcome {
                ticket: p.ticket,
                submitted: p.submitted,
                lsn: Lsn(first_lsn + i as u64),
                commit_at,
                durable_at,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BaWal, LogRecord, WalConfig};
    use twob_core::TwoBSsd;

    fn ba_wal() -> BaWal {
        BaWal::new(TwoBSsd::small_for_tests(), WalConfig::default(), 4).expect("BA WAL builds")
    }

    #[test]
    fn concurrent_committers_share_one_sync() {
        let mut group = GroupCommit::new(ba_wal(), SimDuration::from_micros(10), 64);
        let base = SimTime::from_nanos(1_000_000);
        for i in 0..8u64 {
            group.submit(base + SimDuration::from_nanos(i * 200), &[i as u8; 64]);
        }
        let mut outcomes = Vec::new();
        group
            .drive(base + SimDuration::from_micros(100), |o| outcomes.push(o))
            .unwrap();
        assert_eq!(outcomes.len(), 8);
        assert_eq!(group.batches(), 1);
        assert_eq!(group.grouped_commits(), 8);
        // One durability point for eight commits.
        assert_eq!(group.inner().device().stats().syncs, 1);
        assert_eq!(group.inner().stats().commits, 8);
        // Everyone shares the group's durability instant, and LSNs are
        // consecutive in ticket order.
        let durable = outcomes[0].durable_at;
        assert!(durable.is_some());
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.ticket, i as u64);
            assert_eq!(o.lsn, Lsn(i as u64));
            assert_eq!(o.durable_at, durable);
        }
    }

    #[test]
    fn group_commit_beats_sequential_sync_throughput() {
        use crate::{BlockWal, CommitMode};
        use twob_ssd::{Ssd, SsdConfig};

        let block_wal = || {
            BlockWal::new(
                Ssd::new(SsdConfig::ull_ssd().small()),
                WalConfig::default(),
                CommitMode::Sync,
            )
            .expect("block WAL builds")
        };

        // Sequential: each committer pays a full page write + flush.
        let mut seq = block_wal();
        let base = SimTime::from_nanos(1_000_000);
        let mut t = base;
        for i in 0..16u64 {
            t = seq
                .append_commit(t, &[i as u8; 64])
                .unwrap()
                .durable_at
                .unwrap();
        }
        let sequential_makespan = t.saturating_since(base);

        // Grouped: the same 16 commits arrive within one window and share
        // one page write + flush.
        let mut group = GroupCommit::new(block_wal(), SimDuration::from_micros(10), 64);
        for i in 0..16u64 {
            group.submit(base + SimDuration::from_nanos(i * 100), &[i as u8; 64]);
        }
        let mut last_durable = base;
        group
            .drive(base + SimDuration::from_micros(100), |o| {
                last_durable = last_durable.max(o.durable_at.unwrap());
            })
            .unwrap();
        let grouped_makespan = last_durable.saturating_since(base);
        assert!(
            grouped_makespan.as_nanos() * 2 < sequential_makespan.as_nanos(),
            "group commit ({grouped_makespan}) should beat sequential syncs \
             ({sequential_makespan}) by a wide margin"
        );
    }

    #[test]
    fn max_batch_flushes_without_waiting_for_deadline() {
        let mut group = GroupCommit::new(ba_wal(), SimDuration::from_micros(1_000), 4);
        let base = SimTime::from_nanos(1_000_000);
        for i in 0..6u64 {
            group.submit(base + SimDuration::from_nanos(i * 10), &[i as u8; 16]);
        }
        let mut done = 0;
        // Drive to a `now` long before the 1 ms deadline: the full batch of
        // 4 flushes anyway; the remaining 2 wait for their window.
        group
            .drive(base + SimDuration::from_micros(1), |_| done += 1)
            .unwrap();
        assert_eq!(done, 4);
        assert_eq!(group.pending_len(), 2);
        group
            .flush_now(base + SimDuration::from_micros(2), |_| done += 1)
            .unwrap();
        assert_eq!(done, 6);
        assert_eq!(group.batches(), 2);
    }

    /// A tenant log whose first batch fails before anything reaches it.
    struct FailsOnce {
        inner: crate::TenantBaWal,
        failed: bool,
    }

    impl WalWriter for FailsOnce {
        fn append_commit(
            &mut self,
            now: SimTime,
            payload: &[u8],
        ) -> Result<CommitOutcome, WalError> {
            self.inner.append_commit(now, payload)
        }

        fn append_batch(
            &mut self,
            now: SimTime,
            payloads: &[Vec<u8>],
        ) -> Result<CommitOutcome, WalError> {
            if !std::mem::replace(&mut self.failed, true) {
                return Err(WalError::BadConfig("injected batch failure".into()));
            }
            self.inner.append_batch(now, payloads)
        }

        fn scheme(&self) -> String {
            self.inner.scheme()
        }

        fn stats(&self) -> crate::WalStats {
            self.inner.stats()
        }
    }

    #[test]
    fn a_failed_batch_stays_pending_for_a_retry() {
        use std::{cell::RefCell, rc::Rc};
        use twob_core::{IoCalendar, PinTable, TenantId};

        let dev = Rc::new(RefCell::new(TwoBSsd::small_for_tests()));
        let pins = PinTable::new(dev.borrow().spec(), 1).unwrap();
        let cal = Rc::new(RefCell::new(IoCalendar::new()));
        let pins = Rc::new(RefCell::new(pins));
        let cfg = WalConfig::default();
        let inner = crate::TenantBaWal::new(dev.clone(), cal, pins, TenantId(0), cfg, 4).unwrap();
        let wal = FailsOnce {
            inner,
            failed: false,
        };
        let mut group = GroupCommit::new(wal, SimDuration::from_micros(10), 8);
        let base = SimTime::from_nanos(1_000_000);
        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 20 + usize::from(i)]).collect();
        let tickets: Vec<u64> = (0u64..)
            .zip(&payloads)
            .map(|(i, p)| group.submit(base + SimDuration::from_nanos(i * 100), p))
            .collect();
        assert_eq!(tickets, [0, 1, 2, 3, 4]);

        let now = base + SimDuration::from_micros(50);
        let mut outcomes = Vec::new();
        assert!(group.drive(now, |o| outcomes.push(o)).is_err());
        assert!(outcomes.is_empty());
        assert_eq!(group.pending_len(), 5);
        assert_eq!(group.batches(), 0);
        assert_eq!(group.inner().stats().commits, 0);

        // The same call again issues the same batch, in ticket order.
        group.drive(now, |o| outcomes.push(o)).unwrap();
        assert_eq!(group.pending_len(), 0);
        assert_eq!(group.batches(), 1);
        let got: Vec<(u64, Lsn)> = outcomes.iter().map(|o| (o.ticket, o.lsn)).collect();
        assert_eq!(got, (0..5).map(|i| (i, Lsn(i))).collect::<Vec<_>>());

        // What reached the log is every payload, once, under its LSN.
        let durable = outcomes[4].commit_at;
        let end = group.into_inner().inner.finalize(durable).unwrap();
        let replayed = crate::replay(&mut *dev.borrow_mut(), end, cfg.region_base_lba, 4).unwrap();
        let want: Vec<LogRecord> = (0..5)
            .zip(payloads)
            .map(|(i, p)| LogRecord::new(Lsn(i), p))
            .collect();
        assert_eq!(replayed.records, want);
    }

    #[test]
    fn empty_drive_is_a_no_op() {
        let mut group = GroupCommit::new(ba_wal(), SimDuration::from_micros(10), 8);
        group
            .drive(SimTime::from_nanos(1_000_000_000), |_| {
                panic!("nothing to complete")
            })
            .unwrap();
        assert_eq!(group.batches(), 0);
    }

    #[test]
    fn group_commit_is_deterministic() {
        let run = || {
            let mut group = GroupCommit::new(ba_wal(), SimDuration::from_micros(5), 8);
            let base = SimTime::from_nanos(1_000_000);
            for i in 0..20u64 {
                group.submit(base + SimDuration::from_nanos(i * 700), &[i as u8; 32]);
            }
            let mut outcomes = Vec::new();
            group
                .drive(base + SimDuration::from_micros(200), |o| outcomes.push(o))
                .unwrap();
            group
                .flush_now(base + SimDuration::from_micros(200), |o| outcomes.push(o))
                .unwrap();
            outcomes
        };
        assert_eq!(run(), run());
    }
}
