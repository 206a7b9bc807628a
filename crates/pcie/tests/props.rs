//! Property-based tests of the byte channel's ordering and conservation
//! invariants on both front-ends, one pinned digest per front-end of a
//! long mixed sequence (every instant, posted fragment and residue), a
//! differential test against the quadratic line buffer the channel had
//! before its stores became linear, and the 8 MiB store that shows they are.

use proptest::prelude::*;
use twob_pcie::{
    CxlChannel, CxlTimings, FrontEnd, HostByteChannel, PcieTimings, PostedWrite, ReadOutcome,
    StoreOutcome, SyncOutcome,
};
use twob_sim::{fnv1a64_update, SimDuration, SimRng, SimTime};

/// Either byte front-end behind the operations both of them have, so one
/// property (or one digest sequence) runs on both.
enum Chan {
    Mmio(HostByteChannel),
    Cxl(CxlChannel),
}

impl Chan {
    fn new(cxl: bool) -> Self {
        if cxl {
            Chan::Cxl(CxlChannel::new(CxlTimings::default()))
        } else {
            Chan::Mmio(HostByteChannel::new(PcieTimings::default()))
        }
    }

    fn store(&mut self, now: SimTime, offset: u64, data: &[u8]) -> StoreOutcome {
        match self {
            Chan::Mmio(c) => c.store(now, offset, data),
            Chan::Cxl(c) => c.store(now, offset, data),
        }
    }

    /// The front-end's durability point over a range.
    fn sync_range(&mut self, now: SimTime, offset: u64, len: u64) -> SyncOutcome {
        match self {
            Chan::Mmio(c) => c.sync_range(now, offset, len),
            Chan::Cxl(c) => c.persist_barrier(now, offset, len),
        }
    }

    fn read(&mut self, now: SimTime, len: u64) -> ReadOutcome {
        match self {
            Chan::Mmio(c) => c.read(now, len),
            Chan::Cxl(c) => c.load(now, len),
        }
    }

    /// `(bytes, lines)` still host-resident.
    fn resident(&self) -> (usize, usize) {
        match self {
            Chan::Mmio(c) => (c.wc_resident_bytes(), c.wc_resident_lines()),
            Chan::Cxl(c) => (c.dirty_bytes(), c.dirty_lines()),
        }
    }

    fn power_loss(&mut self) -> usize {
        match self {
            Chan::Mmio(c) => c.power_loss(),
            Chan::Cxl(c) => c.power_loss(),
        }
    }

    fn persistent_latency(&self, len: u64) -> SimDuration {
        match self {
            Chan::Mmio(c) => c.persistent_write_latency(len),
            Chan::Cxl(c) => c.persistent_store_latency(len),
        }
    }
}

/// Folds every observable of a seeded 2,000-op mixed sequence into one
/// FNV digest: instants, posted `(offset, bytes, lands_at)`, and the
/// resident byte/line counts after every op.
fn mixed_sequence_digest(cxl: bool) -> u64 {
    fn word(h: &mut u64, v: u64) {
        *h = fnv1a64_update(*h, &v.to_le_bytes());
    }
    fn fragments(h: &mut u64, posted: &[PostedWrite]) {
        word(h, posted.len() as u64);
        for p in posted {
            word(h, p.offset);
            word(h, p.lands_at.as_nanos());
            *h = fnv1a64_update(*h, &p.data);
        }
    }
    let mut rng = SimRng::seed_from(0x2b55d);
    let mut chan = Chan::new(cxl);
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut t = SimTime::ZERO;
    for _ in 0..2_000 {
        let offset = rng.next_u64_below(64 << 10);
        match rng.next_u64_below(16) {
            0..=8 => {
                // Mostly record-sized stores, now and then up to 9 KiB.
                let cap = if rng.chance(0.1) { 9 << 10 } else { 200 };
                let mut data = vec![0u8; 1 + rng.next_u64_below(cap) as usize];
                rng.fill_bytes(&mut data);
                let out = chan.store(t, offset, &data);
                t = out.retired_at;
                fragments(&mut h, &out.posted);
            }
            9..=11 => {
                let out = chan.sync_range(t, offset, 1 + rng.next_u64_below(4096));
                t = out.durable_at;
                fragments(&mut h, &out.posted);
            }
            12 | 13 => {
                let out = chan.read(t, 1 + rng.next_u64_below(2048));
                t = out.complete_at;
                fragments(&mut h, &out.posted);
            }
            14 => match &mut chan {
                // The MMIO-only spellings: whole-buffer sync, and the two
                // protocol steps taken apart.
                Chan::Mmio(c) if rng.chance(0.5) => {
                    let out = c.sync(t);
                    t = out.durable_at;
                    fragments(&mut h, &out.posted);
                }
                Chan::Mmio(c) => {
                    let out = c.flush_wc(t);
                    fragments(&mut h, &out.posted);
                    word(&mut h, out.flushed_at.as_nanos());
                    t = c.verify_read(out.flushed_at);
                }
                Chan::Cxl(_) => {
                    let len = 1 + rng.next_u64_below(9 << 10);
                    word(&mut h, chan.persistent_latency(len).as_nanos());
                }
            },
            _ => {
                if rng.chance(0.3) {
                    word(&mut h, chan.power_loss() as u64);
                } else {
                    let len = 1 + rng.next_u64_below(9 << 10);
                    word(&mut h, chan.persistent_latency(len).as_nanos());
                }
            }
        }
        // Idle gaps let lingering lines age out on the next store.
        if rng.chance(0.2) {
            t += SimDuration::from_nanos(rng.next_u64_below(3_000));
        }
        word(&mut h, t.as_nanos());
        let (bytes, lines) = chan.resident();
        word(&mut h, bytes as u64);
        word(&mut h, lines as u64);
    }
    word(&mut h, chan.power_loss() as u64);
    h
}

/// The MMIO channel's whole observable behaviour over the mixed sequence,
/// captured before the two channels became one.
#[test]
fn mmio_mixed_sequence_digest_is_pinned() {
    assert_eq!(mixed_sequence_digest(false), 4669697872568776941);
}

/// The CXL channel's, likewise.
#[test]
fn cxl_mixed_sequence_digest_is_pinned() {
    assert_eq!(mixed_sequence_digest(true), 17258007027251838415);
}

/// An 8 MiB store — one whole Table I BA-buffer — yields one fragment per
/// line it touches and conserves every byte, on both front-ends, aligned
/// or not. While a store's work grew with the square of its lines, this
/// took tens of seconds.
#[test]
fn eight_mib_store_posts_one_fragment_per_line() {
    let data: Vec<u8> = (0..8u32 << 20).map(|i| (i % 251) as u8).collect();
    for cxl in [false, true] {
        for offset in [0u64, 8] {
            let mut chan = Chan::new(cxl);
            let store = chan.store(SimTime::ZERO, offset, &data);
            let sync = chan.sync_range(store.retired_at, offset, data.len() as u64);
            let lines = (8 << 20) / 64 + usize::from(offset != 0);
            assert_eq!(store.posted.len() + sync.posted.len(), lines);
            let mut window = vec![0u8; data.len()];
            for p in store.posted.iter().chain(&sync.posted) {
                let at = (p.offset - offset) as usize;
                window[at..at + p.data.len()].copy_from_slice(&p.data);
            }
            assert!(window == data, "bytes lost or misplaced");
        }
    }
}

/// Posted fragments as plain `(offset, bytes, lands_at)`.
type Posted = Vec<(u64, Vec<u8>, SimTime)>;

fn plain(posted: &[PostedWrite]) -> Posted {
    posted
        .iter()
        .map(|p| (p.offset, p.data.to_vec(), p.lands_at))
        .collect()
}

/// The channel's line buffer as it was before stores became linear, kept
/// as the oracle the differential test holds the channel to: each
/// fragment looked up among all resident lines, one `Vec` per fragment,
/// and evictions one `Vec::remove` at a time.
struct Oracle<C> {
    timings: C,
    /// `(line, fragments, first_store_at)` in resident order.
    lines: Vec<(u64, Posted, SimTime)>,
    last_land: SimTime,
}

impl<C: FrontEnd> Oracle<C> {
    fn new(timings: C) -> Self {
        Oracle {
            timings,
            lines: Vec::new(),
            last_land: SimTime::ZERO,
        }
    }

    fn post(&mut self, at: usize, lands_at: SimTime, posted: &mut Posted) {
        let (_, fragments, _) = self.lines.remove(at);
        self.last_land = self.last_land.max(lands_at);
        posted.extend(fragments.into_iter().map(|(o, d, _)| (o, d, lands_at)));
    }

    fn drain_all(&mut self, at: SimTime) -> Posted {
        let mut posted = Vec::new();
        while !self.lines.is_empty() {
            self.post(0, at + self.timings.flight(), &mut posted);
        }
        posted
    }

    fn store(&mut self, now: SimTime, offset: u64, data: &[u8]) -> (SimTime, Posted) {
        let retired_at = now + self.timings.store_cost(data.len() as u64);
        let mut cursor = 0usize;
        while cursor < data.len() {
            let abs = offset + cursor as u64;
            let line = abs / 64;
            let take = (((line + 1) * 64 - abs) as usize).min(data.len() - cursor);
            let fragment = (abs, data[cursor..cursor + take].to_vec(), now);
            match self.lines.iter_mut().find(|l| l.0 == line) {
                Some(existing) => existing.1.push(fragment),
                None => self.lines.push((line, vec![fragment], now)),
            }
            cursor += take;
        }
        let lands_at = retired_at + self.timings.flight();
        let mut posted = Vec::new();
        if let Some(linger) = self.timings.linger() {
            let mut i = 0;
            while i < self.lines.len() {
                if self.lines[i].2 + linger <= retired_at {
                    self.post(i, lands_at, &mut posted);
                } else {
                    i += 1;
                }
            }
        }
        while self.lines.len() > self.timings.line_capacity() {
            let oldest = (0..self.lines.len())
                .min_by_key(|&i| self.lines[i].2)
                .expect("non-empty");
            self.post(oldest, lands_at, &mut posted);
        }
        (retired_at, posted)
    }

    /// `(flushed_at, posted)` of flushing `lines` lines and fencing.
    fn flush(&mut self, now: SimTime, lines: u64) -> (SimTime, Posted) {
        let flushed_at = now + self.timings.flush_cost(lines);
        (flushed_at, self.drain_all(flushed_at))
    }

    fn sync_range(&mut self, now: SimTime, offset: u64, len: u64) -> (SimTime, Posted) {
        let lines = if len == 0 {
            0
        } else {
            (offset + len - 1) / 64 - offset / 64 + 1
        };
        let (flushed_at, posted) = self.flush(now, lines);
        (self.timings.durable_at(flushed_at, self.last_land), posted)
    }

    fn read(&mut self, now: SimTime, len: u64) -> (SimTime, Posted) {
        let posted = self.drain_all(now);
        let start = now.max(self.last_land.min(now + self.timings.flight()));
        (start + self.timings.load_cost(len), posted)
    }

    fn resident(&self) -> (usize, usize) {
        let bytes = self.lines.iter().flat_map(|l| &l.1).map(|f| f.1.len());
        (bytes.sum(), self.lines.len())
    }

    fn power_loss(&mut self) -> usize {
        let lost = self.resident().0;
        self.lines.clear();
        self.last_land = SimTime::ZERO;
        lost
    }
}

/// One step of the differential sequence, issued at an instant that may
/// repeat or precede the previous step's.
#[derive(Debug, Clone)]
enum Step {
    Store {
        offset: u64,
        len: usize,
        fill: u8,
    },
    SyncRange {
        offset: u64,
        len: u64,
    },
    Read {
        len: u64,
    },
    /// The whole-buffer sync on MMIO, or its two steps taken apart; a
    /// persist barrier over the whole window on CXL.mem.
    Sync {
        split: bool,
    },
    PowerLoss,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (0u64..64 << 10, 1usize..200, any::<u8>())
            .prop_map(|(offset, len, fill)| Step::Store { offset, len, fill }),
        2 => (0u64..64 << 10, 1usize..9 << 10, any::<u8>())
            .prop_map(|(offset, len, fill)| Step::Store { offset, len, fill }),
        2 => (0u64..64 << 10, 1u64..4096).prop_map(|(offset, len)| Step::SyncRange { offset, len }),
        1 => (1u64..2048).prop_map(|len| Step::Read { len }),
        1 => any::<bool>().prop_map(|split| Step::Sync { split }),
        1 => Just(Step::PowerLoss),
    ]
}

/// When a step is issued, relative to the previous one: at the same
/// instant, some nanoseconds before it, or some after the previous
/// step completed.
fn when() -> impl Strategy<Value = (u8, u64)> {
    (0u8..4, 0u64..3_000)
}

/// The MMIO-only spellings of the durability point: `(durable_at,
/// posted)` of `sync`, or of `flush_wc` then `verify_read` when `split`.
type MmioSync<C> = fn(&mut twob_pcie::ByteChannel<C>, SimTime, bool) -> (SimTime, Vec<PostedWrite>);

fn differential<C: FrontEnd>(
    mut chan: twob_pcie::ByteChannel<C>,
    mut oracle: Oracle<C>,
    steps: &[((u8, u64), Step)],
    mmio: Option<MmioSync<C>>,
) -> Result<(), TestCaseError> {
    let (mut issued, mut done) = (SimTime::ZERO, SimTime::ZERO);
    for ((mode, gap), step) in steps {
        let gap = SimDuration::from_nanos(*gap);
        let now = match mode {
            0 => issued,
            1 => SimTime::ZERO + issued.saturating_since(SimTime::ZERO + gap),
            _ => done + gap,
        };
        let (got, want) = match step {
            Step::Store { offset, len, fill } => {
                let data: Vec<u8> = (0..*len).map(|i| fill.wrapping_add(i as u8)).collect();
                let out = chan.store(now, *offset, &data);
                (
                    (out.retired_at, plain(&out.posted)),
                    oracle.store(now, *offset, &data),
                )
            }
            Step::SyncRange { offset, len } => {
                let out = chan.sync_range(now, *offset, *len);
                (
                    (out.durable_at, plain(&out.posted)),
                    oracle.sync_range(now, *offset, *len),
                )
            }
            Step::Read { len } => {
                let out = chan.read(now, *len);
                (
                    (out.complete_at, plain(&out.posted)),
                    oracle.read(now, *len),
                )
            }
            Step::Sync { split } => match mmio {
                Some(sync) => {
                    let lines = oracle.lines.len() as u64;
                    let (at, posted) = sync(&mut chan, now, *split);
                    let (flushed_at, want) = oracle.flush(now, lines);
                    let want_at = oracle.timings.durable_at(flushed_at, oracle.last_land);
                    ((at, plain(&posted)), (want_at, want))
                }
                None => {
                    let out = chan.sync_range(now, 0, 64 << 10);
                    (
                        (out.durable_at, plain(&out.posted)),
                        oracle.sync_range(now, 0, 64 << 10),
                    )
                }
            },
            Step::PowerLoss => {
                let lost = SimTime::from_nanos(chan.power_loss() as u64);
                (
                    (lost, Vec::new()),
                    (SimTime::from_nanos(oracle.power_loss() as u64), Vec::new()),
                )
            }
        };
        prop_assert_eq!(&got, &want, "{:?} at {}", step, now);
        prop_assert_eq!(
            (chan.resident_bytes(), chan.resident_lines()),
            oracle.resident()
        );
        issued = now;
        done = got.0.max(now);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No byte is ever lost or duplicated between stores and the union of
    /// (posted fragments, host residue): conservation of data.
    #[test]
    fn bytes_are_conserved(
        cxl in any::<bool>(),
        stores in prop::collection::vec((0u64..8192, 1usize..64), 1..120)
    ) {
        let mut chan = Chan::new(cxl);
        let mut t = SimTime::ZERO;
        let mut stored = 0usize;
        let mut posted = 0usize;
        for (offset, len) in stores {
            let out = chan.store(t, offset, &vec![0xAB; len]);
            stored += len;
            posted += out.posted.iter().map(|p| p.data.len()).sum::<usize>();
            t = out.retired_at;
        }
        prop_assert_eq!(stored, posted + chan.resident().0);
    }

    /// After the durability point, nothing is host-resident and every
    /// posted fragment lands no later than the durability instant.
    #[test]
    fn sync_guarantees_cover_all_fragments(
        cxl in any::<bool>(),
        stores in prop::collection::vec((0u64..4096, 1usize..64), 1..40)
    ) {
        let mut chan = Chan::new(cxl);
        let mut t = SimTime::ZERO;
        for (offset, len) in &stores {
            t = chan.store(t, *offset, &vec![0x55; *len]).retired_at;
        }
        let sync = chan.sync_range(t, 0, 4096 + 64);
        prop_assert_eq!(chan.resident(), (0, 0));
        for frag in &sync.posted {
            prop_assert!(frag.lands_at <= sync.durable_at);
        }
        prop_assert!(sync.durable_at > t);
    }

    /// Landing instants never decrease across successive drains —
    /// posted-write FIFO ordering.
    #[test]
    fn posted_writes_land_in_fifo_order(
        cxl in any::<bool>(),
        batches in prop::collection::vec(
            prop::collection::vec((0u64..8192, 1usize..32), 1..24), 1..8
        )
    ) {
        let mut chan = Chan::new(cxl);
        let mut t = SimTime::ZERO;
        let mut last_land = SimTime::ZERO;
        for batch in batches {
            for (offset, len) in batch {
                let out = chan.store(t, offset, &vec![1; len]);
                t = out.retired_at;
                for p in &out.posted {
                    prop_assert!(p.lands_at >= last_land);
                    last_land = last_land.max(p.lands_at);
                }
            }
            let drain = chan.sync_range(t, 0, 8192);
            t = drain.durable_at;
            for p in &drain.posted {
                prop_assert!(p.lands_at >= last_land);
                last_land = last_land.max(p.lands_at);
            }
        }
    }

    /// Store latency equals the calibrated WC model regardless of history:
    /// base for ≤64 B plus a per-burst increment.
    #[test]
    fn store_latency_is_size_determined(len in 1u64..4096, offset in 0u64..4096) {
        let timings = PcieTimings::default();
        let mut chan = HostByteChannel::new(timings);
        let out = chan.store(SimTime::ZERO, offset, &vec![0; len as usize]);
        prop_assert_eq!(
            out.retired_at.saturating_since(SimTime::ZERO),
            timings.mmio_write(len)
        );
    }

    /// Power loss always zeroes the host residue and reports exactly what
    /// was resident.
    #[test]
    fn power_loss_reports_residue(
        cxl in any::<bool>(),
        stores in prop::collection::vec((0u64..512, 1usize..32), 0..20)
    ) {
        let mut chan = Chan::new(cxl);
        let mut t = SimTime::ZERO;
        for (offset, len) in stores {
            t = chan.store(t, offset, &vec![9; len]).retired_at;
        }
        let resident = chan.resident().0;
        prop_assert_eq!(chan.power_loss(), resident);
        prop_assert_eq!(chan.resident(), (0, 0));
    }

    /// MMIO read cost is exactly ceil(len/8) TLP round trips.
    #[test]
    fn read_cost_counts_tlps(len in 1u64..8192) {
        let timings = PcieTimings::default();
        let expected = timings.read_8b_rtt * len.div_ceil(8);
        prop_assert_eq!(timings.mmio_read(len), expected);
    }

    /// The channel posts exactly what the quadratic line buffer it
    /// replaced posted — same fragments, order, bytes and landing
    /// instants — with the same instants and residue after every step,
    /// on both front-ends, including when instants repeat or run back.
    #[test]
    fn channel_matches_the_quadratic_line_buffer(
        cxl in any::<bool>(),
        steps in prop::collection::vec((when(), step()), 1..60)
    ) {
        if cxl {
            let timings = CxlTimings::default();
            differential(CxlChannel::new(timings), Oracle::new(timings), &steps, None)?;
        } else {
            let timings = PcieTimings::default();
            let sync: MmioSync<PcieTimings> = |c, now, split| {
                if split {
                    let out = c.flush_wc(now);
                    (c.verify_read(out.flushed_at), out.posted)
                } else {
                    let out = c.sync(now);
                    (out.durable_at, out.posted)
                }
            };
            differential(HostByteChannel::new(timings), Oracle::new(timings), &steps, Some(sync))?;
        }
    }
}
