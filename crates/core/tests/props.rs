//! Property-based tests of the 2B-SSD's mapping table, BA-buffer, the
//! dual-path consistency invariant, and the streaming calendar drive.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use twob_core::{
    BaBuffer, EntryId, IoCalendar, IoCompletion, IoOp, MappingTable, PinError, PinTable, TenantId,
    TwoBSsd,
};
use twob_ftl::Lba;
use twob_pcie::PostedWrite;
use twob_sim::{fnv1a64_update, SimDuration, SimRng, SimTime};
use twob_ssd::BlockDevice;

/// One step of a multi-tenant pin-table interleaving.
#[derive(Debug, Clone)]
enum PinOp {
    Pin {
        tenant: u16,
        lba: u64,
        pages: u32,
    },
    Write {
        tenant: u16,
        pick: usize,
        offset: u64,
        data: Vec<u8>,
    },
    Unpin {
        tenant: u16,
        pick: usize,
    },
    PowerCycle,
}

fn pin_op_strategy() -> impl Strategy<Value = PinOp> {
    prop_oneof![
        4 => (0u16..2, 0u64..40, 1u32..3)
            .prop_map(|(tenant, lba, pages)| PinOp::Pin { tenant, lba, pages }),
        4 => (0u16..2, 0usize..8, 0u64..4096, prop::collection::vec(any::<u8>(), 1..24))
            .prop_map(|(tenant, pick, offset, data)| PinOp::Write { tenant, pick, offset, data }),
        2 => (0u16..2, 0usize..8).prop_map(|(tenant, pick)| PinOp::Unpin { tenant, pick }),
        1 => Just(PinOp::PowerCycle),
    ]
}

/// Pinned counterexample from `props.proptest-regressions`: two posted
/// writes whose byte ranges overlap (101..127 and 126..155), both landing
/// *after* the cut, must both unwind — including the shared byte 126.
#[test]
fn regression_overlapping_unlanded_writes_roll_back() {
    let writes: [(u64, Vec<u8>, u64); 2] = [
        (
            101,
            vec![
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 139, 81, 84, 218, 89, 242,
                77,
            ],
            571,
        ),
        (
            126,
            vec![
                217, 131, 15, 81, 94, 184, 249, 115, 178, 14, 222, 221, 28, 171, 223, 204, 156, 39,
                244, 26, 122, 20, 44, 106, 77, 163, 153, 53, 233,
            ],
            407,
        ),
    ];
    let cut = 447u64;

    let mut real = BaBuffer::new(256);
    let mut model = vec![0u8; 256];
    let cut_time = SimTime::from_nanos(cut);
    let mut land_clock = 0u64;
    for (offset, data, land_delta) in &writes {
        let offset = offset % (256 - data.len() as u64);
        land_clock += land_delta + 1;
        let lands_at = SimTime::from_nanos(land_clock);
        real.apply_posted(&PostedWrite {
            offset,
            data: data.clone(),
            lands_at,
        });
        if lands_at <= cut_time {
            model[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        }
    }
    real.power_loss(cut_time);
    assert_eq!(real.read(0, 256), &model[..]);
}

/// Pinned counterexample from `props.proptest-regressions`
/// (`seeds = [(3, 0), (1, 0)]`): after a 3-page entry is inserted at the
/// buffer base, `free_buffer_offset(1)` must propose a window that then
/// inserts cleanly.
#[test]
fn regression_free_offset_insertable_after_three_page_entry() {
    let seeds: [(u32, u64); 2] = [(3, 0), (1, 0)];
    let mut table = MappingTable::new(8, 64 << 10);
    let mut next_lba = 0u64;
    for (pages, lba_gap) in seeds {
        let start = next_lba + lba_gap;
        next_lba = start + u64::from(pages);
        let eid = table.free_eid().expect("free eid");
        let offset = table.free_buffer_offset(pages).expect("free offset");
        assert!(
            table.insert(eid, offset, Lba(start), pages).is_ok(),
            "proposed window rejected for pages={pages} offset={offset}"
        );
    }
}

/// The device's whole byte path over a seeded 2,000-op sequence — both
/// front-ends interleaved on two pinned entries, a power cycle half-way —
/// folded into one digest: every outcome (instants, bytes read, errors),
/// the window bytes the dump restored, the final windows and `TwoBStats`.
/// Captured before the seven per-method copies became one path.
#[test]
fn byte_path_mixed_sequence_digest_is_pinned() {
    fn fold(h: &mut u64, bytes: &[u8]) {
        *h = fnv1a64_update(*h, bytes);
    }
    fn instant(h: &mut u64, outcome: Result<SimTime, twob_core::TwoBError>, t: &mut SimTime) {
        match outcome {
            Ok(at) => {
                fold(h, &at.as_nanos().to_le_bytes());
                *t = at;
            }
            Err(e) => fold(h, format!("{e:?}").as_bytes()),
        }
    }
    let mut dev = TwoBSsd::small_for_tests();
    let (a, pin) = dev.ba_pin_auto(SimTime::ZERO, Lba(0), 2).expect("pin a");
    let (b, pin) = dev.ba_pin_auto(pin.complete_at, Lba(8), 1).expect("pin b");
    let entries = [(a, 2 * 4096u64), (b, 4096u64)];
    let mut rng = SimRng::seed_from(0x2b55d);
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut t = pin.complete_at;
    let windows = |dev: &mut TwoBSsd, h: &mut u64, t: &mut SimTime| {
        for (eid, len) in entries {
            let dma = dev.ba_read_dma(*t, eid, 0, len).expect("whole window");
            fold(h, &dma.data);
            *t = dma.complete_at;
        }
    };
    for step in 0..2_000 {
        if step == 1_000 {
            let dump = dev.power_loss(t);
            fold(&mut h, &[u8::from(dump.dumped)]);
            fold(&mut h, &dump.pages_written.to_le_bytes());
            t += SimDuration::from_millis(1);
            let report = dev.power_on(t);
            fold(&mut h, format!("{report:?}").as_bytes());
            windows(&mut dev, &mut h, &mut t);
        }
        let (eid, window) = entries[rng.next_u64_below(2) as usize];
        // A few requests start past the window (empty once clamped) or
        // run off its end; the rest fit.
        let offset = rng.next_u64_below(window + window / 32);
        let room = window.saturating_sub(offset);
        let len = if rng.chance(0.05) {
            room + 1 + rng.next_u64_below(64)
        } else if rng.chance(0.1) {
            rng.next_u64_below(4096).min(room)
        } else {
            (1 + rng.next_u64_below(200)).min(room)
        };
        let mut data = vec![0u8; len as usize];
        rng.fill_bytes(&mut data);
        match rng.next_u64_below(16) {
            0..=4 => {
                let out = dev.mmio_write(t, eid, offset, &data);
                instant(&mut h, out.map(|o| o.retired_at), &mut t);
            }
            5..=7 => {
                let out = dev.cxl_store(t, eid, offset, &data);
                instant(&mut h, out.map(|o| o.retired_at), &mut t);
            }
            8 | 9 => {
                let out = dev.ba_sync_range(t, eid, offset, len);
                instant(&mut h, out.map(|o| o.complete_at), &mut t);
            }
            10 | 11 => {
                let out = dev.cxl_persist(t, eid, offset, len);
                instant(&mut h, out.map(|o| o.complete_at), &mut t);
            }
            12 => {
                let out = dev.ba_sync(t, eid);
                instant(&mut h, out.map(|o| o.complete_at), &mut t);
            }
            op => {
                let out = match op {
                    13 => dev.mmio_read(t, eid, offset, len.min(256)),
                    14 => dev.cxl_load(t, eid, offset, len),
                    _ => dev.ba_read_dma(t, eid, offset, len),
                };
                if let Ok(read) = &out {
                    fold(&mut h, &read.data);
                }
                instant(&mut h, out.map(|o| o.complete_at), &mut t);
            }
        }
        if rng.chance(0.2) {
            t += SimDuration::from_nanos(rng.next_u64_below(3_000));
        }
    }
    windows(&mut dev, &mut h, &mut t);
    fold(&mut h, format!("{:?}", dev.stats()).as_bytes());
    assert_eq!(h, 5560537839612442530);
}

/// A calendar program: per op, a start-time step (0 is a same-instant tie)
/// and which op to issue (see [`calendar_setup`]).
fn calendar_program() -> impl Strategy<Value = Vec<(u64, u8)>> {
    prop::collection::vec(
        (prop_oneof![2 => Just(0u64), 3 => 1u64..20_000], 0u8..10),
        1..60,
    )
}

/// A device with block data at LBA 16 and two one-page BA windows pinned,
/// and `program` as time-sorted calendar ops dated from the pins' end:
/// every `IoOp` kind, a `BlockWrite` + `BlockFlush` pair at one instant
/// (kind 8), and a sync of an entry never pinned (kind 9, an error).
fn calendar_setup(program: &[(u64, u8)]) -> (TwoBSsd, Vec<(SimTime, IoOp)>) {
    let mut dev = TwoBSsd::small_for_tests();
    let ack = dev
        .write_pages(SimTime::ZERO, Lba(16), &[0x5A; 4096])
        .expect("seed write");
    let mut t = dev.flush(ack);
    let mut eids = Vec::new();
    for lba in [0, 2] {
        let (eid, pin) = dev.ba_pin_auto(t, Lba(lba), 1).expect("pin");
        t = pin.complete_at;
        eids.push(eid);
    }
    let page: Arc<[u8]> = vec![0xA5; 4096].into();
    let mut ops = Vec::new();
    for (i, &(step, kind)) in program.iter().enumerate() {
        t += SimDuration::from_nanos(step);
        let eid = eids[i % 2];
        let write = IoOp::BlockWrite {
            lba: Lba(8 + i as u64 % 4),
            data: Arc::clone(&page),
        };
        let op = match kind {
            0 => IoOp::BaFlush { eid },
            1 => IoOp::BaSync { eid },
            2 => IoOp::BaSyncRange {
                eid,
                rel_offset: 64,
                len: 128,
            },
            3 => IoOp::BaReadDma {
                eid,
                rel_offset: 0,
                len: 256,
            },
            4 => IoOp::BlockRead {
                lba: Lba(16),
                pages: 1,
            },
            5 => write,
            6 => IoOp::BlockFlush,
            7 => IoOp::CxlPersist {
                eid,
                rel_offset: 0,
                len: 64,
            },
            8 => {
                ops.push((t, write));
                IoOp::BlockFlush
            }
            _ => IoOp::BaSync { eid: EntryId(7) },
        };
        ops.push((t, op));
    }
    (dev, ops)
}

/// What two drives must agree on per completion.
type Landed = (
    u64,
    SimTime,
    SimTime,
    Option<twob_core::TwoBError>,
    Option<Vec<u8>>,
);

fn landed(c: IoCompletion) -> Landed {
    (c.id, c.submitted, c.complete_at, c.error, c.data)
}

/// A source op dated before the calendar's clock still runs, at `now`,
/// and is counted as a clamp rather than silently re-dated.
#[test]
fn drive_with_counts_a_source_op_dated_before_now() {
    let mut dev = TwoBSsd::small_for_tests();
    let mut cal = IoCalendar::new();
    cal.submit(SimTime::from_nanos(1_000_000), IoOp::BlockFlush);
    assert_eq!(cal.drive(&mut dev), 1);
    assert_eq!(cal.clamped_posts(), 0);
    let now = cal.now();
    let mut landed = Vec::new();
    let done = cal.drive_with(&mut dev, [(SimTime::ZERO, IoOp::BlockFlush)], |c| {
        landed.push(c)
    });
    assert_eq!(done, 1);
    assert_eq!(cal.clamped_posts(), 1);
    assert!(landed[0].complete_at >= now);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Streaming a time-sorted program through `drive_with` is the same run
    /// as submitting all of it and calling `drive`: the same completions
    /// (id, instants, error, data) in the same order, and the same device
    /// and FTL state afterwards.
    #[test]
    fn drive_with_matches_submit_all_then_drive(program in calendar_program()) {
        // Every program holds a write + flush pair and an unpinned entry.
        let program: Vec<(u64, u8)> = [(0, 8), (0, 9)].into_iter().chain(program).collect();
        let (mut eager_dev, ops) = calendar_setup(&program);
        let mut eager = IoCalendar::new();
        for (at, op) in ops.clone() {
            eager.submit(at, op);
        }
        eager.drive(&mut eager_dev);
        let want: Vec<Landed> = eager.drain_completions().into_iter().map(landed).collect();

        let (mut dev, _) = calendar_setup(&program);
        let mut streamed = IoCalendar::new();
        let mut got = Vec::new();
        let done = streamed.drive_with(&mut dev, ops, |c| got.push(landed(c)));
        prop_assert_eq!(done, got.len());
        prop_assert_eq!(&got, &want);
        prop_assert!(got.iter().any(|c| c.3.is_some()), "the unpinned sync must fail");
        prop_assert_eq!(dev.stats(), eager_dev.stats());
        prop_assert_eq!(dev.ssd().ftl().stats(), eager_dev.ssd().ftl().stats());
        prop_assert_eq!(streamed.clamped_posts(), 0);
        prop_assert_eq!(streamed.now(), eager.now());
    }

    /// `drive_with` is lazy: it pulls the next op only after posting the
    /// previous one, and posts an op only once nothing earlier is pending.
    /// So from the pull that follows op `k`'s post on, no completion dated
    /// before op `k`'s start may still reach the sink.
    #[test]
    fn drive_with_posts_an_op_only_when_nothing_earlier_is_pending(
        program in calendar_program(),
    ) {
        enum Log {
            Pull(Option<SimTime>),
            Sink(SimTime),
        }
        let (mut dev, ops) = calendar_setup(&program);
        let log = RefCell::new(Vec::new());
        let mut ops = ops.into_iter();
        let source = std::iter::from_fn(|| {
            let next = ops.next();
            log.borrow_mut().push(Log::Pull(next.as_ref().map(|(at, _)| *at)));
            next
        });
        IoCalendar::new().drive_with(&mut dev, source, |c| {
            log.borrow_mut().push(Log::Sink(c.complete_at));
        });
        let (mut posted, mut held) = (SimTime::ZERO, None);
        for entry in log.into_inner() {
            match entry {
                Log::Pull(next) => {
                    posted = held.unwrap_or(posted);
                    held = next;
                }
                Log::Sink(at) => prop_assert!(
                    at >= posted,
                    "a completion at {} landed after the op at {} was posted", at, posted
                ),
            }
        }
    }

    /// Whatever sequence of inserts and removes, live entries never
    /// overlap in buffer space nor in LBA space.
    #[test]
    fn mapping_table_never_overlaps(
        ops in prop::collection::vec(
            (0u8..8, 0u64..16, 0u64..64, 1u32..6, any::<bool>()), 1..60
        )
    ) {
        let mut table = MappingTable::new(8, 64 << 10);
        for (eid, buf_page, lba, pages, remove) in ops {
            let eid = EntryId(eid);
            if remove {
                let _ = table.remove(eid);
            } else {
                let _ = table.insert(eid, buf_page * 4096, Lba(lba), pages);
            }
            // Invariant check over all live pairs.
            let live: Vec<_> = table.iter().collect();
            for (i, a) in live.iter().enumerate() {
                for b in &live[i + 1..] {
                    prop_assert!(
                        !a.buffer_overlaps(b.buffer_offset, b.len_bytes()),
                        "buffer overlap between {a:?} and {b:?}"
                    );
                    prop_assert!(
                        !a.lba_overlaps(b.start_lba, b.pages),
                        "LBA overlap between {a:?} and {b:?}"
                    );
                }
            }
        }
    }

    /// `free_buffer_offset` only proposes windows that then insert cleanly.
    #[test]
    fn free_offset_is_always_insertable(
        seeds in prop::collection::vec((1u32..4, 0u64..96), 1..10)
    ) {
        let mut table = MappingTable::new(8, 64 << 10);
        // Keep LBA ranges disjoint by construction; the property under
        // test is the *buffer-window* allocator.
        let mut next_lba = 0u64;
        for (pages, lba_gap) in seeds {
            let start = next_lba + lba_gap;
            next_lba = start + u64::from(pages);
            let Some(eid) = table.free_eid() else { break };
            let Some(offset) = table.free_buffer_offset(pages) else { break };
            prop_assert!(
                table.insert(eid, offset, Lba(start), pages).is_ok(),
                "proposed window rejected"
            );
        }
    }

    /// Rolling back the BA-buffer at time T yields exactly the state of
    /// the prefix of fragments that landed by T. Landing instants are
    /// monotonic in apply order, as PCIe posted-write FIFO ordering
    /// guarantees on real hardware.
    #[test]
    fn buffer_rollback_is_prefix_state(
        writes in prop::collection::vec(
            (0u64..200, prop::collection::vec(any::<u8>(), 1..32), 0u64..50),
            1..30
        ),
        cut in 0u64..1500
    ) {
        let mut real = BaBuffer::new(256);
        let mut model = vec![0u8; 256];
        let cut_time = SimTime::from_nanos(cut);
        let mut land_clock = 0u64;
        for (offset, data, land_delta) in &writes {
            let offset = offset % (256 - data.len() as u64);
            land_clock += land_delta + 1; // strictly increasing
            let lands_at = SimTime::from_nanos(land_clock);
            real.apply_posted(&PostedWrite {
                offset,
                data: data.clone(),
                lands_at,
            });
            if lands_at <= cut_time {
                model[offset as usize..offset as usize + data.len()]
                    .copy_from_slice(data);
            }
        }
        real.power_loss(cut_time);
        prop_assert_eq!(real.read(0, 256), &model[..]);
    }

    /// Dual-path invariant: after pin → MMIO writes → sync → flush, the
    /// block path reads back exactly what the byte path wrote.
    #[test]
    fn dual_path_consistency(
        patches in prop::collection::vec(
            (0u64..4000, prop::collection::vec(any::<u8>(), 1..96)), 1..12
        )
    ) {
        let mut dev = TwoBSsd::small_for_tests();
        let mut t = SimTime::ZERO;
        // Baseline page through the block path.
        let mut expected = vec![0x11u8; 4096];
        t = dev.write_pages(t, Lba(3), &expected).expect("base write");
        let pin = dev.ba_pin(t, EntryId(0), 0, Lba(3), 1).expect("pin");
        t = pin.complete_at;
        for (offset, data) in &patches {
            let offset = offset % (4096 - data.len() as u64);
            let store = dev.mmio_write(t, EntryId(0), offset, data).expect("store");
            t = store.retired_at;
            expected[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        }
        let sync = dev.ba_sync(t, EntryId(0)).expect("sync");
        let flush = dev.ba_flush(sync.complete_at, EntryId(0)).expect("flush");
        let read = dev
            .read_pages(flush.complete_at + SimDuration::from_micros(1), Lba(3), 1)
            .expect("block read");
        prop_assert_eq!(read.data, expected);
    }

    /// Multi-tenant arbitration: arbitrary pin/write/unpin/power-loss
    /// interleavings never produce overlapping pinned windows, never let a
    /// window leave its tenant's share, keep the arbiter in byte-parity
    /// with the device mapping table, and the power-loss dump restores
    /// exactly the bytes each surviving window held.
    #[test]
    fn pin_table_arbitration_survives_churn_and_crashes(
        ops in prop::collection::vec(pin_op_strategy(), 1..40)
    ) {
        let mut dev = TwoBSsd::small_for_tests();
        let mut pins = PinTable::new(dev.spec(), 2).expect("pin table");
        // Model of written bytes per entry: `None` = never stored through
        // the byte path (the pin's initial NAND load, not under test).
        let mut model: HashMap<u8, Vec<Option<u8>>> = HashMap::new();
        let mut t = SimTime::ZERO;
        for op in ops {
            match op {
                PinOp::Pin { tenant, lba, pages } => {
                    match pins.pin(&mut dev, t, TenantId(tenant), Lba(lba), pages) {
                        Ok((eid, done)) => {
                            t = done.complete_at;
                            model.insert(eid.0, vec![None; pages as usize * 4096]);
                        }
                        // Legitimate arbitration refusals: the share or the
                        // entry table is full, or the device rejects an LBA
                        // range another live pin already covers.
                        Err(PinError::ShareExhausted(_)
                            | PinError::NoFreeEntry
                            | PinError::Device(_)) => {}
                        Err(e) => {
                            return Err(TestCaseError::fail(format!("unexpected pin error: {e}")));
                        }
                    }
                }
                PinOp::Write { tenant, pick, offset, data } => {
                    let live = pins.entries_for(TenantId(tenant));
                    if live.is_empty() {
                        continue;
                    }
                    let (eid, entry) = live[pick % live.len()];
                    let rel = offset % (entry.len_bytes() - data.len() as u64 + 1);
                    let store = pins
                        .write(&mut dev, t, TenantId(tenant), eid, rel, &data)
                        .expect("in-window write on an owned pin");
                    t = store.retired_at;
                    let bytes = model.get_mut(&eid.0).expect("model has the entry");
                    for (i, b) in data.iter().enumerate() {
                        bytes[rel as usize + i] = Some(*b);
                    }
                }
                PinOp::Unpin { tenant, pick } => {
                    let live = pins.entries_for(TenantId(tenant));
                    if live.is_empty() {
                        continue;
                    }
                    let (eid, _) = live[pick % live.len()];
                    let done = pins
                        .unpin(&mut dev, t, TenantId(tenant), eid)
                        .expect("unpin an owned pin");
                    t = done.complete_at;
                    model.remove(&eid.0);
                }
                PinOp::PowerCycle => {
                    // Sync every live window first: unsynced stores may
                    // still sit in the host's write-combining buffers,
                    // which a power cut legitimately discards (the paper's
                    // at-risk window). Synced bytes must then survive the
                    // dump exactly.
                    for (eid, entry) in pins.entries() {
                        let sync = pins
                            .sync_range(&mut dev, t, entry.tenant, eid, 0, entry.len_bytes())
                            .map_err(|e| TestCaseError::fail(format!("sync {eid}: {e}")))?;
                        t = sync.complete_at;
                    }
                    let crash = t + SimDuration::from_millis(1);
                    let dump = dev.power_loss(crash);
                    let report = dev.power_on(crash + SimDuration::from_millis(1));
                    if !model.is_empty() {
                        prop_assert!(dump.dumped, "dump skipped with live pins");
                        prop_assert!(report.restored, "restore failed with live pins");
                    }
                    t = crash + SimDuration::from_millis(2);
                    let survived = pins
                        .reattach(&dev, t)
                        .map_err(|e| TestCaseError::fail(format!("reattach: {e}")))?;
                    prop_assert_eq!(survived, model.len(), "pins lost across power cycle");
                    // The dump restored *exactly* the pinned bytes.
                    for (raw_eid, bytes) in &model {
                        let eid = EntryId(*raw_eid);
                        let entry = pins
                            .entry_info(eid)
                            .map_err(|e| TestCaseError::fail(format!("{eid} vanished: {e}")))?;
                        let read = pins
                            .read(&mut dev, t, entry.tenant, eid, 0, bytes.len() as u64)
                            .map_err(|e| TestCaseError::fail(format!("read {eid}: {e}")))?;
                        t = read.complete_at;
                        for (i, expected) in bytes.iter().enumerate() {
                            if let Some(b) = expected {
                                prop_assert_eq!(
                                    read.data[i], *b,
                                    "byte {} of {} diverged after restore", i, eid
                                );
                            }
                        }
                    }
                }
            }
            // Invariants after *every* op: windows confined to their
            // tenant's share, pairwise disjoint, and arbiter/device parity.
            let live = pins.entries();
            let share = pins.share_pages() * 4096;
            for (i, (ea, a)) in live.iter().enumerate() {
                let base = u64::from(a.tenant.0) * share;
                prop_assert!(
                    a.buffer_offset >= base && a.buffer_offset + a.len_bytes() <= base + share,
                    "{} escaped tenant {:?}'s share", ea, a.tenant
                );
                for (eb, b) in &live[i + 1..] {
                    prop_assert!(
                        a.buffer_offset + a.len_bytes() <= b.buffer_offset
                            || b.buffer_offset + b.len_bytes() <= a.buffer_offset,
                        "{} and {} overlap in buffer space", ea, eb
                    );
                }
            }
            pins.verify_device_parity(&dev)
                .map_err(|e| TestCaseError::fail(format!("parity: {e}")))?;
        }
    }

    /// Synced data survives power loss at any later instant; the mapping
    /// table comes back identical.
    #[test]
    fn synced_state_survives_any_crash_point(
        payload in prop::collection::vec(any::<u8>(), 1..64),
        crash_delay_us in 0u64..500
    ) {
        let mut dev = TwoBSsd::small_for_tests();
        let pin = dev.ba_pin(SimTime::ZERO, EntryId(2), 4096, Lba(7), 1).expect("pin");
        let store = dev
            .mmio_write(pin.complete_at, EntryId(2), 0, &payload)
            .expect("store");
        let sync = dev.ba_sync(store.retired_at, EntryId(2)).expect("sync");
        let crash_at = sync.complete_at + SimDuration::from_micros(crash_delay_us);
        let entries_before = dev.entries();
        let dump = dev.power_loss(crash_at);
        prop_assert!(dump.dumped);
        let report = dev.power_on(crash_at + SimDuration::from_millis(1));
        prop_assert!(report.restored);
        prop_assert_eq!(dev.entries(), entries_before);
        let read = dev
            .mmio_read(
                crash_at + SimDuration::from_millis(2),
                EntryId(2),
                0,
                payload.len() as u64,
            )
            .expect("read");
        prop_assert_eq!(read.data, payload);
    }
}
