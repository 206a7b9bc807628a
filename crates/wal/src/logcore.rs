//! The one log core behind every writer.
//!
//! The paper's two logging algorithms (§IV-B, Fig 5) and the recovery scan
//! each live here exactly once; the public writers are constructors that
//! say *how a window or a page reaches its device* and nothing else.
//!
//! - [`ByteLog`] — the byte-window log: encode, and if the active window is
//!   full, sync its un-synced tail, flush the window, re-pin it at the next
//!   log segment; store; one durability op over the dirty range. `N`
//!   windows with an active index: `N = 2` is the paper's double buffering,
//!   `N = 1` the single-buffered Redis port and every shared-device writer.
//!   It is generic over a [`WindowPort`].
//! - [`PageLog`] — the page-image log of the block comparator: stage into a
//!   page image, write each touched page (once per batch), hand back the
//!   last ack for the caller's flush. It takes a "write this page" closure.
//! - [`scan_region`] — pages from a base LBA until the first unmapped one.
//! - [`run_op`] — one operation through the shared [`IoCalendar`].
//!
//! [`IoCalendar`]: twob_core::IoCalendar

use std::sync::Arc;

use twob_core::{EntryId, IoCompletion, IoOp};
use twob_ftl::Lba;
use twob_sim::SimTime;
use twob_ssd::{BlockDevice, SsdError};

use crate::config::{memcpy, RECORD_OVERHEAD};
use crate::record::RECORD_HEADER_BYTES;
use crate::{
    decode_stream, CommitOutcome, LogRecord, Lsn, SharedCalendar, SharedDevice, WalConfig,
    WalError, WalStats,
};

/// When an operation completed, or why it could not.
pub(crate) type Done = Result<SimTime, WalError>;

/// Bytes per BA-buffer page (the mapping table's pin granularity).
pub(crate) const PAGE_BYTES: u64 = 4096;

/// Streams one operation onto the shared calendar with
/// [`IoCalendar::drive_with`](twob_core::IoCalendar::drive_with) and
/// returns the completion its sink receives. Every caller drives the
/// calendar empty inside its own call, so that completion is the only one.
///
/// # Errors
///
/// The operation's device error, if it failed.
pub fn run_op(
    dev: &SharedDevice,
    cal: &SharedCalendar,
    at: SimTime,
    op: IoOp,
) -> Result<IoCompletion, WalError> {
    let mut done = None;
    cal.borrow_mut()
        .drive_with(&mut dev.borrow_mut(), [(at, op)], |c| done = Some(c));
    match done.expect("a driven calendar completes every submitted op") {
        IoCompletion { error: Some(e), .. } => Err(e.into()),
        done => Ok(done),
    }
}

/// Reads `pages` pages from `base_lba` until the first unmapped one,
/// returning the byte stream and the latest read completion (`now` if
/// nothing was mapped).
pub(crate) fn scan_region<D: BlockDevice>(
    dev: &mut D,
    now: SimTime,
    base_lba: u64,
    pages: u64,
) -> Result<(Vec<u8>, SimTime), WalError> {
    let mut stream = Vec::with_capacity(dev.page_size() * pages as usize);
    let mut done = now;
    for i in 0..pages {
        match dev.read_pages(now, Lba(base_lba + i), 1) {
            Ok(read) => {
                done = done.max(read.complete_at);
                stream.extend_from_slice(&read.data);
            }
            Err(SsdError::Unmapped(_)) => break,
            Err(e) => return Err(e.into()),
        }
    }
    Ok((stream, done))
}

/// Where one record landed in a byte-window log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordLoc {
    /// Log segment (window-sized, counted from 0 and never wrapped; its
    /// region slot is `segment % (region_pages / window_pages)`).
    pub segment: u64,
    /// Byte offset inside the segment.
    pub offset: u64,
    /// Encoded length in bytes.
    pub len: u64,
}

/// How a byte window reaches its device: the one axis the byte-window
/// writers differ on. A port is a stateless route — the log remembers which
/// mapping entry holds each window — and every method returns the instant
/// its operation completed.
pub(crate) trait WindowPort {
    /// Stores `data` at `offset` of the window (`memcpy` through the byte
    /// front-end); completes when the store has retired.
    fn store(&mut self, at: SimTime, eid: EntryId, offset: u64, data: &[u8]) -> Done;

    /// Makes `[offset, offset + len)` of the window durable.
    fn sync(&mut self, at: SimTime, eid: EntryId, offset: u64, len: u64) -> Done;

    /// Flushes the whole window to the NAND pages it is pinned over and
    /// releases its entry.
    fn flush(&mut self, at: SimTime, eid: EntryId) -> Done;

    /// Pins a window over `pages` pages at `lba`, returning its entry and
    /// when it accepts appends.
    fn pin(&mut self, at: SimTime, lba: Lba, pages: u32) -> Result<(EntryId, SimTime), WalError>;
}

/// Geometry of a [`ByteLog`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ByteLogShape {
    /// First LBA of the log region.
    pub region_base_lba: u64,
    /// Region size in pages; segments wrap within it.
    pub region_pages: u32,
    /// Pages per window (and per segment).
    pub window_pages: u32,
    /// Windows appended to in rotation.
    pub windows: usize,
}

impl ByteLogShape {
    /// Checks the geometry against a device of `capacity_pages` pages.
    pub(crate) fn validate(&self, capacity_pages: u64) -> Result<(), WalError> {
        if self.window_pages == 0 {
            return Err(WalError::BadConfig("window_pages must be positive".into()));
        }
        if u64::from(self.region_pages) < self.windows as u64 * u64::from(self.window_pages)
            || !self.region_pages.is_multiple_of(self.window_pages)
        {
            return Err(WalError::BadConfig(
                "log region must be a multiple of window_pages and hold every window".into(),
            ));
        }
        if self.region_base_lba + u64::from(self.region_pages) > capacity_pages {
            return Err(WalError::BadConfig("log region exceeds device".into()));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
struct Window {
    /// The mapping entry holding the window (`None` once a power cycle
    /// has lost it).
    eid: Option<EntryId>,
    /// When the window's pin completed and it may accept appends.
    ready_at: SimTime,
    /// Bytes appended so far.
    used: u64,
    /// The log segment the window is pinned over.
    segment: u64,
}

/// The byte-window log (paper Fig 5, right). See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct ByteLog {
    shape: ByteLogShape,
    windows: Vec<Window>,
    active: usize,
    next_segment: u64,
    next_lsn: u64,
    /// The record being stored, encoded: one buffer reused by every append.
    record: Vec<u8>,
    pub(crate) stats: WalStats,
}

impl ByteLog {
    /// Pins every window of a validated `shape`, in order, over the head
    /// of the region at `at`.
    pub(crate) fn open<P: WindowPort>(
        port: &mut P,
        at: SimTime,
        shape: ByteLogShape,
    ) -> Result<Self, WalError> {
        let mut log = ByteLog {
            shape,
            windows: Vec::with_capacity(shape.windows),
            active: 0,
            next_segment: 0,
            next_lsn: 0,
            record: Vec::new(),
            stats: WalStats::default(),
        };
        for _ in 0..shape.windows {
            let pinned = log.pin_next_segment(port, at)?;
            log.windows.push(pinned);
        }
        Ok(log)
    }

    /// Pins a window over the next log segment, wrapping within the region.
    fn pin_next_segment<P: WindowPort>(
        &mut self,
        port: &mut P,
        at: SimTime,
    ) -> Result<Window, WalError> {
        let segment = self.next_segment;
        let page = segment * u64::from(self.shape.window_pages);
        let lba = Lba(self.shape.region_base_lba + page % u64::from(self.shape.region_pages));
        let (eid, ready_at) = port.pin(at, lba, self.shape.window_pages)?;
        self.next_segment += 1;
        Ok(Window {
            eid: Some(eid),
            ready_at,
            used: 0,
            segment,
        })
    }

    fn window_bytes(&self) -> u64 {
        u64::from(self.shape.window_pages) * PAGE_BYTES
    }

    pub(crate) fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// When the active window accepts appends.
    pub(crate) fn ready_at(&self) -> SimTime {
        self.windows[self.active].ready_at
    }

    /// Bytes appended to the active window.
    pub(crate) fn used(&self) -> u64 {
        self.windows[self.active].used
    }

    /// The log segment the active window is pinned over.
    pub(crate) fn segment(&self) -> u64 {
        self.windows[self.active].segment
    }

    /// The mapping entry holding the active window, unless a power cycle
    /// lost it.
    pub(crate) fn entry(&self) -> Option<EntryId> {
        self.windows[self.active].eid
    }

    fn pinned_entry(&self) -> EntryId {
        self.entry().expect("the active window is pinned")
    }

    /// The device came back up at `at`: every window is usable from then,
    /// and an entry that did not survive the outage is forgotten.
    pub(crate) fn restart(&mut self, at: SimTime, survived: impl Fn(EntryId) -> bool) {
        for window in &mut self.windows {
            window.eid = window.eid.filter(|&eid| survived(eid));
            window.ready_at = at;
        }
    }

    /// Decodes what rotations have flushed to the region onto `into`,
    /// returning the latest read completion. Flushes are window-aligned and
    /// rewrite whole windows, so the region is a sequence of independently
    /// coherent window-sized segments (each with slack padding at its
    /// tail), decoded one by one; raw and unordered.
    pub(crate) fn read_flushed<D: BlockDevice>(
        &self,
        dev: &mut D,
        now: SimTime,
        into: &mut Vec<LogRecord>,
    ) -> Done {
        let pages = u64::from(self.shape.region_pages);
        let (stream, done) = scan_region(dev, now, self.shape.region_base_lba, pages)?;
        for segment in stream.chunks(self.window_bytes() as usize) {
            into.extend(decode_stream(segment).records);
        }
        Ok(done)
    }

    /// Flushes the active window, re-pins it at the next segment and moves
    /// on to the next window, returning when *that* one accepts appends
    /// (with double buffering, usually the past). `before_repin` runs
    /// between the flush landing and the re-pin, and says when to re-pin.
    fn rotate<P: WindowPort>(
        &mut self,
        port: &mut P,
        at: SimTime,
        before_repin: &mut impl FnMut(u64, SimTime) -> Done,
    ) -> Done {
        let flushed = port.flush(at, self.pinned_entry())?;
        self.stats.device_page_writes += u64::from(self.shape.window_pages);
        self.stats.distinct_pages += u64::from(self.shape.window_pages);
        let pin_at = before_repin(self.next_segment, flushed)?;
        self.windows[self.active] = self.pin_next_segment(port, pin_at)?;
        self.active = (self.active + 1) % self.windows.len();
        Ok(self.ready_at())
    }

    /// Appends one record per payload with a single durability point at
    /// the end (a rotation mid-batch first syncs the outgoing window's
    /// un-synced tail, so nothing is flushed torn). Returns the last
    /// record's outcome — its `durable_at` covers the batch — and where
    /// that record landed. A batch holding a record no window can take
    /// appends nothing.
    pub(crate) fn append<'a, P: WindowPort>(
        &mut self,
        port: &mut P,
        now: SimTime,
        payloads: impl Iterator<Item = &'a [u8]> + Clone,
        mut before_repin: impl FnMut(u64, SimTime) -> Done,
    ) -> Result<(CommitOutcome, RecordLoc), WalError> {
        let window_bytes = self.window_bytes();
        if let Some(got) = payloads
            .clone()
            .map(|p| RECORD_HEADER_BYTES + p.len())
            .find(|&len| len as u64 > window_bytes)
        {
            return Err(WalError::RecordTooLarge {
                got,
                max: window_bytes as usize,
            });
        }
        let mut t = now + RECORD_OVERHEAD;
        let mut dirty_from: Option<u64> = None;
        let mut landed = None;
        for payload in payloads {
            LogRecord::encode_into(Lsn(self.next_lsn), payload, &mut self.record);
            let len = self.record.len() as u64;
            // Wait for the active window if its pin is still in flight
            // (rare with two windows: double buffering hides it).
            t = t.max(self.ready_at());
            if self.used() + len > window_bytes {
                if let Some(from) = dirty_from.take() {
                    t = port.sync(t, self.pinned_entry(), from, self.used() - from)?;
                }
                t = t.max(self.rotate(port, t, &mut before_repin)?);
            }
            let eid = self.pinned_entry();
            let window = &mut self.windows[self.active];
            let offset = window.used;
            t = port.store(t, eid, offset, &self.record)?;
            window.used += len;
            dirty_from.get_or_insert(offset);
            self.next_lsn += 1;
            self.stats.commits += 1;
            self.stats.payload_bytes += payload.len() as u64;
            self.stats.encoded_bytes += len;
            let segment = window.segment;
            landed = Some(RecordLoc {
                segment,
                offset,
                len,
            });
        }
        let loc = landed.ok_or_else(|| WalError::BadConfig("empty batch".into()))?;
        // Commit: sync exactly the bytes appended since the last sync.
        let from = dirty_from.expect("a stored record leaves a dirty range");
        let durable = port.sync(t, self.pinned_entry(), from, self.used() - from)?;
        self.stats.commit_time_total += durable.saturating_since(now);
        let outcome = CommitOutcome {
            lsn: Lsn(self.next_lsn - 1),
            commit_at: durable,
            durable_at: Some(durable),
        };
        Ok((outcome, loc))
    }

    /// Flushes every window that holds records (active first) and re-pins
    /// it, so logging may continue. Every re-pin follows its flush, so the
    /// latest `ready_at` bounds when all appended data is on NAND.
    pub(crate) fn finalize<P: WindowPort>(
        &mut self,
        port: &mut P,
        now: SimTime,
        mut before_repin: impl FnMut(u64, SimTime) -> Done,
    ) -> Done {
        let mut t = now;
        for _ in 0..self.windows.len() {
            if self.used() > 0 {
                let at = t.max(self.ready_at());
                t = t.max(self.rotate(port, at, &mut before_repin)?);
            } else {
                self.active = (self.active + 1) % self.windows.len();
            }
        }
        Ok(self.windows.iter().fold(t, |t, w| t.max(w.ready_at)))
    }
}

/// No tiering around the log: re-pin as soon as the flush has landed.
pub(crate) fn repin_at_once(_segment: u64, flushed: SimTime) -> Done {
    Ok(flushed)
}

/// What a [`PageLog`] append staged, for the caller to turn into a commit
/// under its own durability rule.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Staged {
    /// When the host finished copying the batch into page images.
    pub staged_at: SimTime,
    /// Ack of the last page write.
    pub last_ack: SimTime,
}

/// The page-image log of a conventional block WAL (paper Fig 5, left):
/// records are staged into an in-host image of the tail page and the
/// *whole page* is written (block I/O is page-aligned), so small commits
/// rewrite the same page over and over — the §IV-A pathology.
#[derive(Debug, Clone)]
pub(crate) struct PageLog {
    cfg: WalConfig,
    next_lsn: u64,
    /// Image of the tail page; bytes past `fill` are zero. A page write
    /// may share it (a calendar op holds its payload until it runs); it is
    /// copied only if still shared when next written to.
    image: Arc<[u8]>,
    fill: usize,
    cursor_page: u64,
    pub(crate) stats: WalStats,
}

impl PageLog {
    /// A log over `cfg`'s region of a device with `page_size`-byte pages
    /// and `capacity_pages` of them.
    pub(crate) fn new(
        cfg: &WalConfig,
        page_size: usize,
        capacity_pages: u64,
    ) -> Result<Self, WalError> {
        cfg.validate().map_err(WalError::BadConfig)?;
        let end = cfg.region_base_lba + u64::from(cfg.region_pages);
        if end > capacity_pages {
            return Err(WalError::BadConfig(format!(
                "log region ends at {end} but device holds {capacity_pages} pages"
            )));
        }
        Ok(PageLog {
            cfg: *cfg,
            next_lsn: 0,
            image: vec![0; page_size].into(),
            fill: 0,
            cursor_page: 0,
            stats: WalStats::default(),
        })
    }

    pub(crate) fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// LSN of the last record appended.
    pub(crate) fn last_lsn(&self) -> Lsn {
        Lsn(self.next_lsn - 1)
    }

    /// Scans the log region from its base to the first unwritten page.
    pub(crate) fn scan<D: BlockDevice>(
        &self,
        dev: &mut D,
        now: SimTime,
    ) -> Result<(Vec<u8>, SimTime), WalError> {
        let pages = u64::from(self.cfg.region_pages);
        scan_region(dev, now, self.cfg.region_base_lba, pages)
    }

    /// Writes the tail page image (possibly partial) where it belongs.
    fn write_tail_page(
        &mut self,
        at: SimTime,
        write_page: &mut impl FnMut(SimTime, Lba, &Arc<[u8]>) -> Done,
    ) -> Done {
        let page = self.cursor_page % u64::from(self.cfg.region_pages);
        let ack = write_page(at, Lba(self.cfg.region_base_lba + page), &self.image)?;
        self.stats.device_page_writes += 1;
        Ok(ack)
    }

    /// Stages one record per payload and writes each page the batch
    /// touched exactly once — when it fills, or at the end of the batch —
    /// all issued at the instant the host finished staging. A batch
    /// holding a record the region cannot take appends nothing.
    pub(crate) fn append<'a>(
        &mut self,
        now: SimTime,
        payloads: impl Iterator<Item = &'a [u8]> + Clone,
        mut write_page: impl FnMut(SimTime, Lba, &Arc<[u8]>) -> Done,
    ) -> Result<Staged, WalError> {
        let page_size = self.image.len();
        let region_bytes = u64::from(self.cfg.region_pages) * page_size as u64;
        let (mut records, mut encoded) = (0u64, 0u64);
        for payload in payloads.clone() {
            let got = RECORD_HEADER_BYTES + payload.len();
            if got as u64 > region_bytes {
                return Err(WalError::RecordTooLarge {
                    got,
                    max: region_bytes as usize,
                });
            }
            records += 1;
            encoded += got as u64;
        }
        if records == 0 {
            return Err(WalError::BadConfig("empty batch".into()));
        }
        let staged_at = now + RECORD_OVERHEAD * records + memcpy(encoded);
        let mut last_ack = staged_at;
        for payload in payloads {
            // The record goes into the page image as its header, then its
            // payload: no encoded copy in between.
            let header = LogRecord::header(Lsn(self.next_lsn), payload);
            self.next_lsn += 1;
            self.stats.payload_bytes += payload.len() as u64;
            for mut rest in [&header[..], payload] {
                while !rest.is_empty() {
                    if self.fill == 0 {
                        self.stats.distinct_pages += 1;
                    }
                    let take = (page_size - self.fill).min(rest.len());
                    let image = Arc::make_mut(&mut self.image);
                    image[self.fill..self.fill + take].copy_from_slice(&rest[..take]);
                    self.fill += take;
                    rest = &rest[take..];
                    if self.fill == page_size {
                        last_ack = self.write_tail_page(staged_at, &mut write_page)?;
                        self.cursor_page += 1;
                        self.fill = 0;
                        Arc::make_mut(&mut self.image).fill(0);
                    }
                }
            }
        }
        if self.fill > 0 {
            last_ack = self.write_tail_page(staged_at, &mut write_page)?;
        }
        self.stats.commits += records;
        self.stats.encoded_bytes += encoded;
        Ok(Staged {
            staged_at,
            last_ack,
        })
    }

    /// Books the last append as a commit that waited for `flushed` (a
    /// device flush issued at the last page ack) and returns its outcome.
    pub(crate) fn commit_flushed(&mut self, now: SimTime, flushed: SimTime) -> CommitOutcome {
        self.stats.device_flushes += 1;
        self.stats.commit_time_total += flushed.saturating_since(now);
        CommitOutcome {
            lsn: self.last_lsn(),
            commit_at: flushed,
            durable_at: Some(flushed),
        }
    }
}
