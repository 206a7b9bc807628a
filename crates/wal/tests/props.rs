//! Property-based tests of the WAL record format and replay, plus the
//! differential properties that pin every writer to one algorithm: a commit
//! is a one-record batch, and the byte-window writers are the same writer
//! behind different ports.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use twob_core::{IoCalendar, PinTable, RegionFrontEnd, TenantId, TwoBSsd};
use twob_sim::{SimDuration, SimTime};
use twob_ssd::{Ssd, SsdConfig};
use twob_wal::{
    decode_stream, BaWal, BlockWal, CommitMode, CommitOutcome, HostConfig, HostMode, LogCursor,
    LogRecord, Lsn, PmWal, ShardWalHost, SharedDevice, TenantBaWal, TenantBlockWal, WalConfig,
    WalError, WalTail, WalWriter,
};

/// One step of a cursor interleaving: append a record, poll the cursor, or
/// power-cycle the device mid-stream.
#[derive(Debug, Clone, Copy)]
enum CursorOp {
    Append,
    Poll,
    Crash,
}

fn cursor_ops() -> impl Strategy<Value = Vec<CursorOp>> {
    // Appends dominate so streams are long enough to rotate; crashes are
    // rare enough that runs usually continue past them.
    prop::collection::vec(0u8..12, 1..70).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| match c {
                0..=7 => CursorOp::Append,
                8..=9 => CursorOp::Poll,
                _ => CursorOp::Crash,
            })
            .collect()
    })
}

/// Deterministic payload for the `lsn`-th record: sized 64..1024 so a few
/// dozen appends cross rotation boundaries without wrapping the region.
fn payload_for(lsn: u64) -> Vec<u8> {
    let len = 64 + (lsn.wrapping_mul(37) % 960) as usize;
    vec![((lsn * 7 + 3) % 251) as u8; len]
}

/// Drives `ops` against `wal`, interleaving appends, cursor polls, and
/// power cycles, and checks the cursor yields exactly the acknowledged
/// record sequence — no gaps, no duplicates, across rotations and crashes.
fn check_cursor_yields_acked_sequence<W, C>(
    mut wal: W,
    ops: &[CursorOp],
    mut power_cycle: C,
) -> Result<(), TestCaseError>
where
    W: WalWriter + WalTail,
    C: FnMut(&mut W, SimTime) -> SimTime,
{
    let mut cursor = LogCursor::new();
    let mut t = SimTime::from_nanos(1_000_000);
    let mut appended = 0u64;
    let mut seen: Vec<LogRecord> = Vec::new();
    for op in ops {
        match op {
            CursorOp::Append => {
                let out = wal
                    .append_commit(t, &payload_for(appended))
                    .expect("append");
                prop_assert_eq!(out.lsn, Lsn(appended));
                appended += 1;
                t = out.commit_at;
            }
            CursorOp::Poll => {
                let batch = cursor.advance(&mut wal, t).expect("poll");
                t = t.max(batch.complete_at);
                seen.extend(batch.records);
            }
            CursorOp::Crash => {
                t = power_cycle(&mut wal, t);
            }
        }
    }
    let last = cursor.advance(&mut wal, t).expect("final poll");
    seen.extend(last.records);
    prop_assert_eq!(seen.len() as u64, appended, "cursor missed records");
    for (i, rec) in seen.iter().enumerate() {
        prop_assert_eq!(rec.lsn, Lsn(i as u64), "gap or duplicate at {}", i);
        prop_assert_eq!(&rec.payload, &payload_for(i as u64), "payload mismatch");
    }
    Ok(())
}

/// A writer plus whatever it takes to snapshot the device underneath it
/// (the tenant writers share theirs, so the writer alone cannot).
trait Rig {
    fn wal(&mut self) -> &mut dyn WalWriter;
    /// WAL accounting plus every device counter, as one comparable string.
    fn snapshot(&self) -> String;
}

fn twob_counters(dev: &TwoBSsd) -> String {
    format!("{:?} {:?}", dev.stats(), dev.ssd().stats())
}

impl Rig for BaWal {
    fn wal(&mut self) -> &mut dyn WalWriter {
        self
    }
    fn snapshot(&self) -> String {
        format!("{:?} {}", self.stats(), twob_counters(self.device()))
    }
}

impl Rig for BlockWal<Ssd> {
    fn wal(&mut self) -> &mut dyn WalWriter {
        self
    }
    fn snapshot(&self) -> String {
        format!("{:?} {:?}", self.stats(), self.device().stats())
    }
}

impl Rig for PmWal<Ssd> {
    fn wal(&mut self) -> &mut dyn WalWriter {
        self
    }
    fn snapshot(&self) -> String {
        format!("{:?} {:?}", self.stats(), self.device().stats())
    }
}

/// A tenant writer with a handle on the device it shares.
struct Tenant<W> {
    wal: W,
    dev: SharedDevice,
}

impl<W: WalWriter> Rig for Tenant<W> {
    fn wal(&mut self) -> &mut dyn WalWriter {
        &mut self.wal
    }
    fn snapshot(&self) -> String {
        format!(
            "{:?} {}",
            self.wal.stats(),
            twob_counters(&self.dev.borrow())
        )
    }
}

/// Log geometry the differential properties share: a 16-page region of
/// 2-page windows, so a few dozen records rotate and wrap.
fn small_region() -> WalConfig {
    WalConfig {
        region_pages: 16,
        ..WalConfig::default()
    }
}

const WINDOW_PAGES: u32 = 2;

/// A shard-WAL host's log geometry: one 2-page window over an 8-page
/// region at LBA 0.
fn host_region() -> WalConfig {
    WalConfig {
        region_pages: HostConfig::REGION_PAGES,
        ..WalConfig::default()
    }
}

fn tenant_ba(front_end: RegionFrontEnd, region: WalConfig) -> Tenant<TenantBaWal> {
    let dev = TwoBSsd::small_for_tests();
    let pins = PinTable::new(dev.spec(), 1).expect("pin table");
    let dev = Rc::new(RefCell::new(dev));
    let wal = TenantBaWal::with_front_end(
        dev.clone(),
        Rc::new(RefCell::new(IoCalendar::new())),
        Rc::new(RefCell::new(pins)),
        TenantId(0),
        region,
        WINDOW_PAGES,
        front_end,
    )
    .expect("tenant ba wal");
    Tenant { wal, dev }
}

fn tenant_block() -> Tenant<TenantBlockWal> {
    let dev = Rc::new(RefCell::new(TwoBSsd::small_for_tests()));
    let wal = TenantBlockWal::new(
        dev.clone(),
        Rc::new(RefCell::new(IoCalendar::new())),
        TenantId(0),
        small_region(),
    )
    .expect("tenant block wal");
    Tenant { wal, dev }
}

fn block_wal(mode: CommitMode) -> BlockWal<Ssd> {
    BlockWal::new(Ssd::new(SsdConfig::ull_ssd().small()), small_region(), mode).expect("block wal")
}

/// Mixed-size payloads, from a few bytes to multi-page records that still
/// fit one 2-page window with their header.
fn mixed_payloads(max_records: usize) -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec((1usize..8000, any::<u8>()), 1..max_records).prop_map(|shapes| {
        shapes
            .into_iter()
            .map(|(len, fill)| vec![fill; len])
            .collect()
    })
}

/// Feeds `payloads` to two fresh copies of one writer — `append_commit`
/// on one, one-record `append_batch`es on the other — and requires every
/// outcome and, at the end, all WAL and device accounting to be identical.
fn check_commit_is_a_one_record_batch<R: Rig>(
    make: impl Fn() -> R,
    payloads: &[Vec<u8>],
) -> Result<(), TestCaseError> {
    let (mut solo, mut batched) = (make(), make());
    let mut t = SimTime::from_nanos(1_000_000);
    for payload in payloads {
        let a = solo.wal().append_commit(t, payload).expect("commit");
        let b = batched
            .wal()
            .append_batch(t, std::slice::from_ref(payload))
            .expect("batch");
        prop_assert_eq!(a, b, "{}", solo.wal().scheme());
        t = a.commit_at;
    }
    prop_assert_eq!(solo.snapshot(), batched.snapshot());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `append_commit` is the one-record case of `append_batch` on every
    /// writer: same commit and durability instants, same WAL stats, same
    /// device counters, through rotations, region wraps and multi-page
    /// records.
    #[test]
    fn commit_is_a_one_record_batch_on_every_writer(payloads in mixed_payloads(48)) {
        let ba = |buffers: u8| move || {
            let dev = TwoBSsd::small_for_tests();
            match buffers {
                1 => BaWal::new_single(dev, small_region(), WINDOW_PAGES),
                _ => BaWal::new(dev, small_region(), WINDOW_PAGES),
            }
            .expect("ba wal")
        };
        check_commit_is_a_one_record_batch(ba(2), &payloads)?;
        check_commit_is_a_one_record_batch(ba(1), &payloads)?;
        check_commit_is_a_one_record_batch(|| block_wal(CommitMode::Sync), &payloads)?;
        check_commit_is_a_one_record_batch(|| block_wal(CommitMode::Async), &payloads)?;
        check_commit_is_a_one_record_batch(
            || PmWal::new(Ssd::new(SsdConfig::dc_ssd().small()), small_region(), WINDOW_PAGES)
                .expect("pm wal"),
            &payloads,
        )?;
        check_commit_is_a_one_record_batch(
            || tenant_ba(RegionFrontEnd::BaMmio, small_region()),
            &payloads,
        )?;
        check_commit_is_a_one_record_batch(
            || tenant_ba(RegionFrontEnd::Cxl, small_region()),
            &payloads,
        )?;
        check_commit_is_a_one_record_batch(tenant_block, &payloads)?;
    }

    /// The byte-window writers are one algorithm behind different ports:
    /// for one record stream at one single-buffered window, `BaWal`, a
    /// 1-tenant `TenantBaWal` and a 1-slot `ShardWalHost` commit every
    /// record at the same instant — through every rotation and region wrap,
    /// on both byte front-ends — and leave identical device counters. The
    /// writers run at the host's fixed geometry.
    #[test]
    fn byte_window_writers_agree_at_one_window(payloads in mixed_payloads(64)) {
        assert_eq!(HostConfig::WINDOW_PAGES, WINDOW_PAGES);
        for front_end in [RegionFrontEnd::BaMmio, RegionFrontEnd::Cxl] {
            let mut tenant = tenant_ba(front_end, host_region());
            let mut host = ShardWalHost::new(
                TwoBSsd::small_for_tests(),
                HostConfig {
                    slots: 1,
                    front_end,
                    ..HostConfig::default()
                },
            )
            .expect("host");
            host.open_slot(SimTime::ZERO, 0).expect("open slot");
            // `BaWal` drives fixed entries through MMIO only.
            let mut single = (front_end == RegionFrontEnd::BaMmio).then(|| {
                BaWal::new_single(TwoBSsd::small_for_tests(), host_region(), WINDOW_PAGES)
                    .expect("ba wal")
            });
            let mut t = SimTime::from_nanos(1_000_000);
            for payload in &payloads {
                let want: CommitOutcome = tenant.wal.append_commit(t, payload).expect("tenant");
                prop_assert_eq!(host.append(t, 0, payload).expect("host"), want);
                if let Some(single) = single.as_mut() {
                    prop_assert_eq!(single.append_commit(t, payload).expect("single"), want);
                }
                t = want.commit_at;
            }
            let want = twob_counters(&tenant.dev.borrow());
            prop_assert_eq!(twob_counters(host.device()), want.clone());
            if let Some(single) = &single {
                prop_assert_eq!(twob_counters(single.device()), want);
            }
        }
    }

    /// A block slot's follower read answers what a tail read from the same
    /// LSN answers — the same record at the same instant, the same lag, or
    /// (at and past the frontier) a lag where the tail is caught up — and
    /// leaves the device in the same state. Appends interleave over three
    /// slots without waiting for each other, so reads queue behind
    /// in-flight programs; one slot may be fenced and the node
    /// power-cycled mid-stream.
    #[test]
    fn block_read_record_matches_full_scan(
        ops in prop::collection::vec((0u16..3, 1usize..600, 0u64..3_000), 1..160),
        fence in prop_oneof![
            Just(None),
            (0u16..3, any::<prop::sample::Index>()).prop_map(Some),
        ],
        power_cycle in prop_oneof![Just(None), any::<prop::sample::Index>().prop_map(Some)],
    ) {
        let mut host = ShardWalHost::new(
            TwoBSsd::small_for_tests(),
            HostConfig {
                mode: HostMode::Block,
                ..HostConfig::default()
            },
        )
        .expect("host");
        let mut t = SimTime::from_nanos(1_000_000);
        for slot in 0..3 {
            host.open_slot(t, slot).expect("open slot");
        }
        let fence = fence.map(|(slot, at)| (slot, at.index(ops.len())));
        let power_cycle = power_cycle.map(|at| at.index(ops.len()));
        for (step, &(slot, len, gap)) in ops.iter().enumerate() {
            if let Some((fenced, _)) = fence.filter(|&(_, at)| at == step) {
                let next = host.next_lsn(fenced).expect("open");
                host.fence(fenced, next).expect("fence at the frontier");
            }
            if power_cycle == Some(step) {
                let up = t + SimDuration::from_millis(5);
                host.power_cycle(t, up).expect("power cycle");
                t = up;
            }
            t += SimDuration::from_nanos(gap);
            // A fenced or full slot refuses the append; the reads below
            // must agree either way.
            let _ = host.append(t, slot, &vec![len as u8; len]);
        }
        for slot in 0..3 {
            let next = host.next_lsn(slot).expect("open").0;
            for lsn in 0..next + 2 {
                let (mut by_record, mut by_tail) = (host.clone(), host.clone());
                match (
                    by_record.read_record(t, slot, Lsn(lsn)),
                    by_tail.read_tail(t, slot, Lsn(lsn)),
                ) {
                    (Ok((rec, at)), Ok(batch)) => {
                        prop_assert_eq!(Some(&rec), batch.records.first());
                        prop_assert_eq!(at, batch.complete_at);
                    }
                    (Err(WalError::CursorLag { requested, .. }), Ok(batch)) => {
                        prop_assert!(lsn >= next && batch.records.is_empty());
                        prop_assert_eq!(requested, lsn);
                    }
                    (record, tail) => prop_assert_eq!(record.map(|_| ()), tail.map(|_| ())),
                }
                prop_assert_eq!(twob_counters(by_record.device()), twob_counters(by_tail.device()));
            }
        }
    }

    /// Records round-trip byte-exactly for arbitrary payloads.
    #[test]
    fn record_roundtrip(lsn in any::<u64>(), payload in prop::collection::vec(any::<u8>(), 1..2048)) {
        let rec = LogRecord::new(Lsn(lsn), payload);
        let bytes = rec.encode();
        let (decoded, used) = LogRecord::decode(&bytes).expect("clean decode");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded, rec);
    }

    /// decode_stream never panics on arbitrary garbage and always returns
    /// a torn offset within bounds.
    #[test]
    fn decode_stream_is_total(garbage in prop::collection::vec(any::<u8>(), 0..4096)) {
        let out = decode_stream(&garbage);
        prop_assert!(out.torn_at_byte <= garbage.len());
    }

    /// A stream of records followed by garbage decodes to exactly the
    /// records before the first corruption.
    #[test]
    fn decode_stream_returns_clean_prefix(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..64), 1..20),
        garbage in prop::collection::vec(any::<u8>(), 0..64)
    ) {
        let mut stream = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            stream.extend_from_slice(&LogRecord::new(Lsn(i as u64), p.clone()).encode());
        }
        let clean_len = stream.len();
        // Zero-length tail or garbage tail: either way the records decode.
        stream.extend_from_slice(&garbage);
        let out = decode_stream(&stream);
        prop_assert!(out.records.len() >= payloads.len()
            || out.torn_at_byte <= clean_len,
            "decoded {} of {} with torn at {} (clean {})",
            out.records.len(), payloads.len(), out.torn_at_byte, clean_len);
        // The decoded prefix matches the originals.
        for (i, rec) in out.records.iter().take(payloads.len()).enumerate() {
            prop_assert_eq!(&rec.payload, &payloads[i]);
        }
    }

    /// Arbitrary single-bit corruption inside a record's bytes makes that
    /// record (and everything after it) unreachable — never a wrong decode.
    #[test]
    fn bit_flips_never_decode_wrong(
        payload in prop::collection::vec(any::<u8>(), 1..128),
        byte_idx in any::<prop::sample::Index>(),
        bit in 0u8..8
    ) {
        let rec = LogRecord::new(Lsn(77), payload);
        let mut bytes = rec.encode();
        let i = byte_idx.index(bytes.len());
        bytes[i] ^= 1 << bit;
        match LogRecord::decode(&bytes) {
            None => {}
            Some((decoded, _)) => {
                // A flip confined to the length prefix may still decode a
                // *shorter, CRC-valid* record only if the CRC happens to
                // match — astronomically unlikely; treat as failure.
                prop_assert!(
                    decoded == rec,
                    "corruption decoded to a different record"
                );
            }
        }
    }

    /// Sync-committed records always survive device replay, whatever their
    /// sizes (including page-spanning ones).
    #[test]
    fn committed_records_replay(
        sizes in prop::collection::vec(1usize..6000, 1..12)
    ) {
        let cfg = WalConfig::default();
        let mut wal = BlockWal::new(
            Ssd::new(SsdConfig::ull_ssd().small()),
            cfg,
            CommitMode::Sync,
        ).expect("wal");
        let mut t = SimTime::ZERO;
        let mut payloads = Vec::new();
        for (i, size) in sizes.iter().enumerate() {
            let body = vec![(i % 251) as u8; *size];
            t = wal.append_commit(t, &body).expect("commit").commit_at;
            payloads.push(body);
        }
        let mut dev = wal.into_device();
        let out = twob_wal::replay(&mut dev, t, cfg.region_base_lba, cfg.region_pages)
            .expect("replay");
        prop_assert_eq!(out.records.len(), payloads.len());
        for (rec, expected) in out.records.iter().zip(&payloads) {
            prop_assert_eq!(&rec.payload, expected);
        }
    }

    /// For arbitrary append/rotate/crash interleavings over a BA-WAL, the
    /// cursor yields exactly the acknowledged record sequence: rotation
    /// moves records from the pinned window to NAND mid-stream, and power
    /// cycles dump/restore the window, without a gap or duplicate.
    #[test]
    fn ba_cursor_yields_exactly_the_acked_sequence(ops in cursor_ops()) {
        let wal = BaWal::new(TwoBSsd::small_for_tests(), WalConfig::default(), 4)
            .expect("ba wal");
        check_cursor_yields_acked_sequence(wal, &ops, |w: &mut BaWal, t| {
            let dump = w.device_mut().power_loss(t);
            assert!(dump.dumped, "healthy capacitors must dump");
            let back = t + SimDuration::from_millis(5);
            let restore = w.device_mut().power_on(back);
            assert!(restore.restored);
            back
        })?;
    }

    /// The same property over a sync block WAL: every acknowledged commit
    /// is on media, so crashes never cost the cursor a record.
    #[test]
    fn block_cursor_yields_exactly_the_acked_sequence(ops in cursor_ops()) {
        let wal = BlockWal::new(
            Ssd::new(SsdConfig::ull_ssd().small()),
            WalConfig::default(),
            CommitMode::Sync,
        ).expect("block wal");
        check_cursor_yields_acked_sequence(wal, &ops, |w: &mut BlockWal<Ssd>, t| {
            w.device_mut().power_loss(t);
            let back = t + SimDuration::from_millis(5);
            w.device_mut().power_on(back);
            back
        })?;
    }
}
