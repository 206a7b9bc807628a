//! Property-based tests of the byte channel's ordering and conservation
//! invariants on both front-ends, plus one pinned digest per front-end of
//! a long mixed sequence (every instant, posted fragment and residue).

use proptest::prelude::*;
use twob_pcie::{
    CxlChannel, CxlTimings, HostByteChannel, PcieTimings, PostedWrite, ReadOutcome, StoreOutcome,
    SyncOutcome,
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
}
