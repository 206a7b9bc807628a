//! One layer probe per layer: a direct-call loop over that layer's public
//! functions, fed seed-derived inputs at the op sizes the workloads use
//! (128 B commits, 4 KiB pages). Every traced run executes all of them, so
//! a `*_ns_per_*` number means the same thing whichever workload's run
//! reports it. Each probe runs inside a span named after it.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use twob_core::{
    EntryId, GroupPlacement, IoCalendar, IoOp, PinTable, RecoveryManager, RegionFrontEnd,
    ShardedIoCalendar, TenantId, TwoBSpec, TwoBSsd,
};
use twob_cxl::{TierWalConfig, TieredWal};
use twob_db::{EngineCosts, MiniPg, MiniRedis, MiniRocks};
use twob_faults::{throwaway_wal, ClusterFaultPlan};
use twob_ftl::{FtlConfig, Lba, PageMappedFtl};
use twob_nand::{NandArray, NandGeometry};
use twob_pcie::{CxlChannel, CxlTimings, HostByteChannel, PcieTimings};
use twob_repl::{CommitPolicy, Fleet, FleetConfig, PlacementKind, ShipScheme};
use twob_sim::{
    EventQueue, Histogram, Server, ShardCtx, ShardedExecutor, SimDuration, SimRng, SimTime,
};
use twob_ssd::{NvmeOp, NvmeSsd, QueueConfig, Ssd, SsdConfig};
use twob_wal::{
    BaWal, BlockWal, CommitMode, GroupCommit, HostConfig, HostMode, Lsn, ShardWalHost, TenantBaWal,
    WalConfig, WalWriter,
};
use twob_workloads::{
    ArrivalConfig, ArrivalKind, LinkbenchConfig, LinkbenchWorkload, ServeConfig, ServiceDriver,
    WalScheme, YcsbConfig, YcsbOp, YcsbWorkload,
};

use crate::workloads::{self, par_threads};
use crate::{spans, Scale, Values};

const PAGE: usize = 4096;
const COMMIT_BYTES: usize = 128;
const T0: SimTime = SimTime::from_nanos(1_000_000);

/// Runs `body` inside a span called `name` and returns host nanoseconds
/// per iteration.
fn timed(name: &'static str, iters: u64, body: impl FnOnce()) -> f64 {
    let start = Instant::now();
    spans::scope(name, body);
    start.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// A small 2B-SSD with `pages` pinned at entry 0 and the pin's end instant.
fn pinned_device(pages: u32) -> (TwoBSsd, SimTime) {
    let mut dev = TwoBSsd::small_for_tests();
    let pin = dev
        .ba_pin(SimTime::ZERO, EntryId(0), 0, Lba(0), pages)
        .expect("pin the probe window");
    (dev, pin.complete_at)
}

/// Runs every probe and returns its per-layer metrics. `have` is what the
/// traced workload already reported (the paper reference points are
/// skipped when `paper_floor` measured them itself).
pub fn run(seed: u64, scale: Scale, have: &Values) -> Values {
    let mut out = Values::new();
    let n = |full: u64| scale.of(full, 200);
    sim(seed, n(400_000), &mut out);
    sim_sharded(seed, n(200_000), &mut out);
    nand_ftl(seed, n(40_000), &mut out);
    ssd(seed, n(40_000), &mut out);
    pcie(seed, n(200_000), &mut out);
    core(seed, n(100_000), &mut out);
    wal(seed, n(40_000), &mut out);
    cxl(seed, n(60_000), &mut out);
    db(seed, n(30_000), &mut out);
    workloads_layer(seed, scale, n(200_000), &mut out);
    repl(seed, scale, &mut out);
    if !have.contains_key("paper.err_max_pct") {
        spans::scope("probe.paper.reference_points", || {
            let (ours, others) = workloads::reference_points(seed);
            for ((metric, _), value) in workloads::REFERENCE.iter().zip(&ours) {
                out.insert(metric, *value);
            }
            out.extend(others);
            let (max, mean) = workloads::paper_error_pct(&ours);
            out.insert("paper.err_max_pct", max);
            out.insert("paper.err_mean_pct", mean);
        });
    }
    out
}

fn sim(seed: u64, n: u64, out: &mut Values) {
    let mut rng = SimRng::seed_from(seed ^ 0x51);
    let deltas: Vec<u64> = (0..n).map(|_| 1 + rng.next_u64_below(10_000)).collect();

    // The hold model: a steady population of pending events, each pop
    // re-posting one a random distance ahead.
    let mut queue: EventQueue<u32> = EventQueue::new();
    for i in 0..1024u32 {
        queue.push(SimTime::from_nanos(rng.next_u64_below(10_000)), i);
    }
    out.insert(
        "sim.queue_ns_per_event",
        timed("probe.sim.queue", n, || {
            for &delta in &deltas {
                let (at, event) = queue.pop().expect("the population never drains");
                queue.push(at + SimDuration::from_nanos(delta), event);
            }
            black_box(queue.len());
        }),
    );

    let mut server = Server::new();
    let mut arrival = SimTime::ZERO;
    out.insert(
        "sim.server_ns_per_schedule",
        timed("probe.sim.server", n, || {
            for &delta in &deltas {
                arrival += SimDuration::from_nanos(delta);
                black_box(server.schedule(arrival, SimDuration::from_nanos(delta / 2 + 1)));
            }
        }),
    );

    let mut hist = Histogram::new();
    out.insert(
        "sim.hist_ns_per_record",
        timed("probe.sim.histogram", n, || {
            for &delta in &deltas {
                hist.record(SimDuration::from_nanos(delta));
            }
            black_box(hist.p99());
        }),
    );
}

/// Per-shard state of the sharded-kernel probe.
struct Pinger {
    rng: SimRng,
    budget: u64,
}

/// Eight time domains, each re-posting a local event per firing and
/// mailing every eighth one to its neighbour one lookahead away.
fn sim_sharded(seed: u64, n: u64, out: &mut Values) {
    const SHARDS: usize = 8;
    const LOOKAHEAD: SimDuration = SimDuration::from_micros(2);
    #[derive(Clone, Copy)]
    enum Drive {
        Lockstep,
        Adaptive,
        Parallel,
    }
    let run = |name: &'static str, drive: Drive| -> (f64, u64, u64, u64) {
        let mut exec: ShardedExecutor<u32> = ShardedExecutor::new(SHARDS, LOOKAHEAD);
        let mut states: Vec<Pinger> = (0..SHARDS)
            .map(|i| Pinger {
                rng: SimRng::seed_from(seed ^ (0x5a + i as u64)),
                budget: n / SHARDS as u64,
            })
            .collect();
        for shard in 0..SHARDS {
            for i in 0..16u64 {
                exec.seed(shard, T0 + SimDuration::from_nanos(i * 97), 0);
            }
        }
        let handler = |ctx: &mut ShardCtx<'_, u32>, state: &mut Pinger, t: SimTime, hops: u32| {
            if state.budget == 0 {
                return;
            }
            state.budget -= 1;
            let delta = SimDuration::from_nanos(100 + state.rng.next_u64_below(1_400));
            if hops % 8 == 7 {
                ctx.send((ctx.shard() + 1) % SHARDS, t + LOOKAHEAD + delta, hops + 1);
            } else {
                ctx.post(t + delta, hops + 1);
            }
        };
        let start = Instant::now();
        spans::scope(name, || match drive {
            Drive::Lockstep => exec.run_lockstep(&mut states, &handler),
            Drive::Adaptive => exec.run(&mut states, &handler),
            Drive::Parallel => exec.run_parallel(&mut states, &handler, par_threads()),
        });
        (
            start.elapsed().as_secs_f64(),
            exec.processed(),
            exec.rounds(),
            exec.batched_rounds(),
        )
    };
    let (lockstep_secs, ..) = run("probe.sim.shard_lockstep", Drive::Lockstep);
    let (adaptive_secs, events, rounds, batched) = run("probe.sim.shard_adaptive", Drive::Adaptive);
    let (parallel_secs, ..) = run("probe.sim.shard_parallel", Drive::Parallel);
    out.insert(
        "sim.shard_ns_per_event",
        adaptive_secs * 1e9 / events as f64,
    );
    out.insert("sim.shard_rounds", rounds as f64);
    out.insert(
        "sim.shard_batched_rounds_pct",
        100.0 * batched as f64 / rounds.max(1) as f64,
    );
    out.insert("sim.shard_adaptive_speedup", lockstep_secs / adaptive_secs);
    out.insert("sim.par_speedup_x", adaptive_secs / parallel_secs);
}

/// The geometry of the NAND/FTL probes: 64 blocks of 64 pages.
fn probe_geometry() -> NandGeometry {
    NandGeometry {
        channels: 2,
        ways_per_channel: 2,
        planes_per_way: 1,
        blocks_per_plane: 16,
        pages_per_block: 64,
        page_size: PAGE as u32,
        spare_per_page: 128,
    }
}

fn nand_ftl(seed: u64, n: u64, out: &mut Values) {
    let flash = SsdConfig::base_2b().flash;
    let timing = flash.timing();
    out.insert("nand.v_tprog_us", timing.t_prog.as_nanos() as f64 / 1e3);
    out.insert("nand.v_tread_us", timing.t_read.as_nanos() as f64 / 1e3);

    let geometry = probe_geometry();
    let mut rng = SimRng::seed_from(seed ^ 0x4a);
    let mut page = vec![0u8; PAGE];
    rng.fill_bytes(&mut page);
    let mut nand = NandArray::new(geometry, timing);
    let pages_total = geometry.pages_total();
    let rounds = n.div_ceil(pages_total);
    let (mut program_ns, mut read_ns) = (0.0, 0.0);
    for round in 0..rounds {
        if round > 0 {
            for block in 0..geometry.blocks_total() {
                nand.erase_block(geometry.block_from_flat(block))
                    .expect("erase a probe block");
            }
        }
        program_ns += timed("probe.nand.program", 1, || {
            for flat in 0..pages_total {
                let block = geometry.block_from_flat(flat / u64::from(geometry.pages_per_block));
                let addr = block.page((flat % u64::from(geometry.pages_per_block)) as u32);
                black_box(nand.program_page(addr, &page).expect("program in order"));
            }
        });
        let order: Vec<u64> = (0..pages_total)
            .map(|_| rng.next_u64_below(pages_total))
            .collect();
        read_ns += timed("probe.nand.read", 1, || {
            for &flat in &order {
                let block = geometry.block_from_flat(flat / u64::from(geometry.pages_per_block));
                let addr = block.page((flat % u64::from(geometry.pages_per_block)) as u32);
                black_box(nand.read_page(addr).expect("read a programmed page"));
            }
        });
    }
    let pages = (rounds * pages_total) as f64;
    out.insert("nand.program_ns_per_page", program_ns / pages);
    out.insert("nand.read_ns_per_page", read_ns / pages);

    // Random overwrites of a full FTL: every write is steady-state GC.
    let cfg = FtlConfig {
        over_provisioning: 0.25,
        gc_low_watermark: 3,
        gc_high_watermark: 5,
        reserved_blocks: 0,
    };
    let mut ftl = PageMappedFtl::new(NandArray::new(geometry, timing), cfg);
    let exported = ftl.exported_pages();
    for lba in 0..exported {
        ftl.write(Lba(lba), &page).expect("fill the FTL");
    }
    let lbas: Vec<u64> = (0..n).map(|_| rng.next_u64_below(exported)).collect();
    out.insert(
        "ftl.write_ns_per_page",
        timed("probe.ftl.write_gc", n, || {
            for &lba in &lbas {
                black_box(ftl.write(Lba(lba), &page).expect("overwrite under GC"));
            }
        }),
    );
}

fn ssd(seed: u64, n: u64, out: &mut Values) {
    let mut rng = SimRng::seed_from(seed ^ 0x55d);
    let page = vec![0xA5u8; PAGE];
    // The tier_churn device class: small enough that the random overwrites
    // below keep greedy GC running, so the wait shares are non-trivial.
    let mut cfg = SsdConfig::base_2b().small();
    cfg.geometry = probe_geometry();
    let mut ssd = Ssd::new(cfg);
    let capacity = ssd.capacity_pages();
    let mut t = SimTime::ZERO;
    for lba in 0..capacity {
        t = ssd.write(t, Lba(lba), &page).expect("fill the device");
    }
    t = ssd.flush(t);
    let lbas: Vec<u64> = (0..n).map(|_| rng.next_u64_below(capacity)).collect();
    out.insert(
        "ssd.write_flush_ns_per_op",
        timed("probe.ssd.write_flush", n, || {
            for &lba in &lbas {
                t = ssd.write(t, Lba(lba), &page).expect("write");
                t = ssd.flush(t);
            }
        }),
    );
    let mut waits = twob_sim::LatencyBreakdown::ZERO;
    out.insert(
        "ssd.read_ns_per_op",
        timed("probe.ssd.read", n, || {
            for (i, &lba) in lbas.iter().enumerate() {
                // Reads race the writes' destage and GC: every fourth op
                // writes, so dies stay busy.
                if i % 4 == 0 {
                    t = ssd.write(t, Lba(lba), &page).expect("write");
                }
                let read = ssd.read(t, Lba(lba), 1).expect("read");
                waits.accumulate(&read.breakdown);
                t = read.complete_at;
            }
        }),
    );
    let total = (waits.total_wait() + waits.service()).as_nanos().max(1) as f64;
    out.insert(
        "ssd.v_gc_wait_share",
        waits.gc_wait.as_nanos() as f64 / total,
    );
    out.insert(
        "ssd.v_queue_wait_share",
        waits.queue_wait.as_nanos() as f64 / total,
    );
    out.insert(
        "ssd.v_nand_busy_share",
        waits.nand_busy.as_nanos() as f64 / total,
    );

    let mut base = Ssd::new(SsdConfig::ull_ssd().bench_scale());
    let extent = 2_048u64;
    let chunk = vec![0x77u8; 64 * PAGE];
    let mut t = SimTime::ZERO;
    for lba in (0..extent).step_by(64) {
        t = base
            .write(t, Lba(lba), &chunk)
            .expect("populate the extent");
    }
    let start = base.flush(t);
    let mut nvme = NvmeSsd::new(base, QueueConfig::new(1, 16));
    out.insert(
        "ssd.nvme_ns_per_cmd",
        timed("probe.ssd.nvme_qd16", n, || {
            let report = ServiceDriver::run_nvme(&mut nvme, start, n, |_| {
                let lba = Lba(rng.next_u64_below(extent));
                let op = if rng.chance(0.7) {
                    NvmeOp::Read { lba, pages: 1 }
                } else {
                    NvmeOp::Write {
                        lba,
                        data: page.clone(),
                    }
                };
                (0, op)
            });
            black_box(report.ops);
        }),
    );
}

fn pcie(seed: u64, n: u64, out: &mut Values) {
    let mut rng = SimRng::seed_from(seed ^ 0x9c1e);
    let data = vec![0xC3u8; COMMIT_BYTES];
    let offsets: Vec<u64> = (0..n).map(|_| rng.next_u64_below(512) * 64).collect();

    let mut chan = HostByteChannel::new(PcieTimings::default());
    let mut t = SimTime::ZERO;
    out.insert(
        "pcie.mmio_write_ns_per_op",
        timed("probe.pcie.mmio_write", n, || {
            for &offset in &offsets {
                t = chan.store(t, offset, &data).retired_at;
                t = chan.sync_range(t, offset, COMMIT_BYTES as u64).durable_at;
            }
        }),
    );

    let mut cxl = CxlChannel::new(CxlTimings::default());
    let mut t = SimTime::ZERO;
    out.insert(
        "pcie.cxl_store_ns_per_op",
        timed("probe.pcie.cxl_store", n, || {
            for &offset in &offsets {
                t = cxl.store(t, offset, &data).retired_at;
                t = cxl
                    .persist_barrier(t, offset, COMMIT_BYTES as u64)
                    .durable_at;
            }
        }),
    );
}

fn core(seed: u64, n: u64, out: &mut Values) {
    let mut rng = SimRng::seed_from(seed ^ 0xc02e);
    let data = vec![0x7Eu8; COMMIT_BYTES];
    let window = 4 * PAGE as u64;
    let offsets: Vec<u64> = (0..n)
        .map(|_| rng.next_u64_below((window - COMMIT_BYTES as u64) / 64) * 64)
        .collect();

    let (mut dev, mut t) = pinned_device(4);
    out.insert(
        "core.ba_sync_ns_per_op",
        timed("probe.core.ba_sync", n, || {
            for &offset in &offsets {
                let store = dev.mmio_write(t, EntryId(0), offset, &data).expect("store");
                t = dev
                    .ba_sync_range(store.retired_at, EntryId(0), offset, COMMIT_BYTES as u64)
                    .expect("sync")
                    .complete_at;
            }
        }),
    );

    // The serve_byte inner loop: submit every commit, then drive once.
    let (mut dev, ready) = pinned_device(4);
    let mut cal = IoCalendar::new();
    out.insert(
        "core.calendar_ns_per_op",
        timed("probe.core.calendar", n, || {
            for (i, &offset) in offsets.iter().enumerate() {
                cal.submit(
                    ready + SimDuration::from_nanos(i as u64 * 400),
                    IoOp::BaSyncRange {
                        eid: EntryId(0),
                        rel_offset: offset,
                        len: COMMIT_BYTES as u64,
                    },
                );
            }
            cal.drive(&mut dev);
            black_box(cal.drain_completions().len());
        }),
    );

    let mut dev = TwoBSsd::small_for_tests();
    let mut pins = PinTable::new(dev.spec(), 1).expect("a one-tenant table");
    let (eid, pin) = pins
        .pin(&mut dev, SimTime::ZERO, TenantId(0), Lba(0), 4)
        .expect("pin through the table");
    let mut t = pin.complete_at;
    out.insert(
        "core.pintable_ns_per_write",
        timed("probe.core.pintable_write", n, || {
            for &offset in &offsets {
                t = pins
                    .write(&mut dev, t, TenantId(0), eid, offset, &data)
                    .expect("write through the table")
                    .retired_at;
            }
        }),
    );

    // The sharded_1024 inner loop: the same commits across 8 die groups.
    const GROUPS: usize = 8;
    let spec = ServiceDriver::group_spec(8);
    let mut ready = SimTime::ZERO;
    let devices: Vec<TwoBSsd> = (0..GROUPS)
        .map(|_| {
            let cfg = SsdConfig::base_2b().bench_scale().die_slice(GROUPS as u32);
            let mut dev = TwoBSsd::new(cfg, spec);
            let pin = dev
                .ba_pin(SimTime::ZERO, EntryId(0), 0, Lba(0), 4)
                .expect("pin a group window");
            ready = ready.max(pin.complete_at);
            dev
        })
        .collect();
    let mut sharded = ShardedIoCalendar::new(
        devices,
        GroupPlacement::round_robin(GROUPS, GROUPS),
        SimDuration::from_micros(2),
    );
    out.insert(
        "core.sharded_calendar_ns_per_op",
        timed("probe.core.sharded_calendar", n, || {
            for (i, &offset) in offsets.iter().enumerate() {
                sharded.submit(
                    ready + SimDuration::from_nanos(i as u64 * 50),
                    i % GROUPS,
                    IoOp::BaSyncRange {
                        eid: EntryId(0),
                        rel_offset: offset,
                        len: COMMIT_BYTES as u64,
                    },
                );
            }
            sharded.run();
            black_box(sharded.completed());
        }),
    );

    // Window rotation: BA_PIN then BA_FLUSH of a 2-page window.
    let cycles = (n / 50).max(20);
    let mut dev = TwoBSsd::small_for_tests();
    let mut t = SimTime::ZERO;
    out.insert(
        "core.pin_flush_ns_per_op",
        timed("probe.core.pin_flush", 2 * cycles, || {
            for i in 0..cycles {
                let lba = Lba((i % 16) * 2);
                t = dev
                    .ba_pin(t, EntryId(0), 0, lba, 2)
                    .expect("pin")
                    .complete_at;
                t = dev.ba_flush(t, EntryId(0)).expect("flush").complete_at;
            }
        }),
    );
    out.insert(
        "core.v_recovery_dump_mj",
        RecoveryManager::dump_energy_needed(&TwoBSpec::default()) * 1e3,
    );
}

/// Mean virtual commit latency of `commits` appends through `wal`, µs.
fn commit_loop(wal: &mut dyn WalWriter, payloads: &[Vec<u8>]) -> f64 {
    let mut t = T0;
    let mut total = SimDuration::ZERO;
    for payload in payloads {
        let done = wal.append_commit(t, payload).expect("commit").commit_at;
        total += done.saturating_since(t);
        t = done;
    }
    total.as_nanos() as f64 / 1e3 / payloads.len().max(1) as f64
}

fn wal(seed: u64, n: u64, out: &mut Values) {
    let mut rng = SimRng::seed_from(seed ^ 0x3a1);
    let payloads: Vec<Vec<u8>> = (0..n)
        .map(|_| {
            let mut payload = vec![0u8; COMMIT_BYTES - 16];
            rng.fill_bytes(&mut payload[..8]);
            payload
        })
        .collect();

    let mut ba = BaWal::new(TwoBSsd::small_for_tests(), WalConfig::default(), 8)
        .expect("a BA-WAL over the small device");
    let mut v_ba = 0.0;
    out.insert(
        "wal.ba_append_ns_per_rec",
        timed("probe.wal.ba_append", n, || {
            v_ba = commit_loop(&mut ba, &payloads);
        }),
    );
    out.insert("wal.v_ba_commit_us", v_ba);

    let mut block = BlockWal::new(
        Ssd::new(SsdConfig::ull_ssd().small()),
        WalConfig::default(),
        CommitMode::Sync,
    )
    .expect("a block WAL over the small device");
    let mut v_block = 0.0;
    out.insert(
        "wal.block_append_ns_per_rec",
        timed("probe.wal.block_append", n, || {
            v_block = commit_loop(&mut block, &payloads);
        }),
    );
    out.insert("wal.v_block_commit_us", v_block);

    let shared = || {
        let dev = TwoBSsd::small_for_tests();
        let pins = PinTable::new(dev.spec(), 1).expect("a one-tenant table");
        (
            Rc::new(RefCell::new(dev)),
            Rc::new(RefCell::new(IoCalendar::new())),
            Rc::new(RefCell::new(pins)),
        )
    };
    let (dev, cal, pins) = shared();
    let mut tenant = TenantBaWal::new(dev, cal, pins, TenantId(0), WalConfig::default(), 4)
        .expect("a tenant BA-WAL");
    out.insert(
        "wal.tenant_ba_append_ns_per_rec",
        timed("probe.wal.tenant_ba_append", n, || {
            black_box(commit_loop(&mut tenant, &payloads));
        }),
    );

    // Group commit in front of the same tenant writer: four submitters per
    // 10 µs window, as db_mix's clients.
    let (dev, cal, pins) = shared();
    let inner = TenantBaWal::new(dev, cal, pins, TenantId(0), WalConfig::default(), 4)
        .expect("a tenant BA-WAL");
    let mut group = GroupCommit::new(inner, SimDuration::from_micros(10), 16);
    out.insert(
        "wal.group_ns_per_ticket",
        timed("probe.wal.group_commit", n, || {
            let mut t = T0;
            let mut done = 0u64;
            for (i, payload) in payloads.iter().enumerate() {
                t += SimDuration::from_nanos(2_500);
                group.submit(t, payload);
                if i % 4 == 3 {
                    group
                        .drive(t + SimDuration::from_micros(10), |_| done += 1)
                        .expect("drive the batch");
                }
            }
            group.flush_now(t, |_| done += 1).expect("flush the tail");
            black_box(done);
        }),
    );

    // ShardWalHost: appends round-robin over four slots, each read back.
    let host_n = n / 4;
    let mut host = ShardWalHost::new(
        TwoBSsd::small_for_tests(),
        HostConfig {
            mode: HostMode::Ba,
            ..HostConfig::default()
        },
    )
    .expect("a shard-WAL host");
    let mut t = T0;
    for slot in 0..4 {
        t = host.open_slot(t, slot).expect("open a slot");
    }
    let mut lsns = Vec::with_capacity(host_n as usize);
    out.insert(
        "wal.host_append_ns_per_rec",
        timed("probe.wal.host_append", host_n, || {
            for (i, payload) in payloads.iter().take(host_n as usize).enumerate() {
                let slot = (i % 4) as u16;
                let done = host.append(t, slot, payload).expect("host append");
                lsns.push((slot, done.lsn));
                t = done.commit_at;
            }
        }),
    );
    // Only the newest record of each slot is sure to be window-resident;
    // read those, over and over, as a follower tailing the log does.
    let newest: Vec<(u16, Lsn)> = (0..4u16)
        .filter_map(|slot| lsns.iter().rev().find(|(s, _)| *s == slot).copied())
        .collect();
    out.insert(
        "wal.host_read_ns_per_rec",
        timed("probe.wal.host_read", host_n, || {
            for i in 0..host_n as usize {
                let (slot, lsn) = newest[i % newest.len()];
                t = host.read_record(t, slot, lsn).expect("host read").1;
            }
        }),
    );
}

fn cxl(seed: u64, n: u64, out: &mut Values) {
    let mut rng = SimRng::seed_from(seed ^ 0xc71);
    let dev = Rc::new(RefCell::new(TwoBSsd::small_for_tests()));
    let pins = Rc::new(RefCell::new(
        PinTable::new(dev.borrow().spec(), 1).expect("a one-tenant table"),
    ));
    let cal = Rc::new(RefCell::new(IoCalendar::new()));
    let cfg = TierWalConfig {
        byte_front_end: RegionFrontEnd::Cxl,
        ..TierWalConfig::default()
    };
    let mut wal = TieredWal::new(dev, cal, pins, TenantId(0), cfg).expect("a tiered WAL");
    let payload = vec![0x6Du8; COMMIT_BYTES - 16];
    let mut t = T0;
    out.insert(
        "cxl.append_ns_per_rec",
        timed("probe.cxl.append", n, || {
            for _ in 0..n {
                t = wal.append(t, &payload).expect("tier append").commit_at;
            }
        }),
    );
    // The tier_sweep script on the log just written: the oldest live
    // record is cold; two cold reads promote its segment; the fourth read
    // is a steady hot hit.
    let per_segment = 2 * PAGE as u64 / COMMIT_BYTES as u64;
    let tail_seg = (n - 1) / per_segment;
    let oldest = tail_seg.saturating_sub(31) * per_segment;
    let cold = wal.read(t, Lsn(oldest)).expect("cold read").1;
    out.insert(
        "cxl.v_cold_read_us",
        cold.saturating_since(t).as_nanos() as f64 / 1e3,
    );
    let warm = wal.read(cold, Lsn(oldest + 1)).expect("promoting read").1;
    let warm = wal.read(warm, Lsn(oldest + 2)).expect("warming read").1;
    let hot = wal.read(warm, Lsn(oldest + 3)).expect("hot read").1;
    out.insert(
        "cxl.v_hot_read_us",
        hot.saturating_since(warm).as_nanos() as f64 / 1e3,
    );
    // Reads of the newest records: the hot tail tier_churn mostly hits.
    let mut t = hot;
    out.insert(
        "cxl.read_ns_per_rec",
        timed("probe.cxl.read", n, || {
            for _ in 0..n {
                let lsn = Lsn(n - 1 - rng.next_u64_below(16.min(n)));
                t = wal.read(t, lsn).expect("tail read").1;
            }
        }),
    );
}

/// Engine steps with asynchronous commit on a throwaway log, so the WAL's
/// device is off the path and the engine's own cost shows.
fn db(seed: u64, n: u64, out: &mut Values) {
    let mut rng = SimRng::seed_from(seed ^ 0xdb);
    let mut pg = MiniPg::new(throwaway_wal(), EngineCosts::postgres());
    let mut links = LinkbenchWorkload::new(LinkbenchConfig::standard(200));
    let mut t = SimTime::ZERO;
    for txn in links.load_phase(&mut rng, 1) {
        t = pg.run_txn(t, &txn).expect("load").commit_at;
    }
    let txns: Vec<_> = (0..n).map(|_| links.next_txn(&mut rng)).collect();
    out.insert(
        "db.pg_ns_per_txn",
        timed("probe.db.pg", n, || {
            for txn in &txns {
                t = pg.run_txn(t, txn).expect("txn").commit_at;
            }
        }),
    );

    let mut ycsb = YcsbWorkload::new(YcsbConfig::workload_a(200, COMMIT_BYTES));
    let ops: Vec<YcsbOp> = (0..n).map(|_| ycsb.next_op(&mut rng)).collect();
    let mut rocks = MiniRocks::new(throwaway_wal(), EngineCosts::rocksdb());
    let mut t = SimTime::ZERO;
    out.insert(
        "db.rocks_ns_per_op",
        timed("probe.db.rocks", n, || {
            for op in &ops {
                t = match op {
                    YcsbOp::Read { key } => rocks.get(t, key).0,
                    YcsbOp::Update { key, value } => {
                        rocks
                            .put(t, key.clone(), value.clone())
                            .expect("put")
                            .commit_at
                    }
                };
            }
        }),
    );
    let mut redis = MiniRedis::new(throwaway_wal(), EngineCosts::redis());
    let mut t = SimTime::ZERO;
    out.insert(
        "db.redis_ns_per_op",
        timed("probe.db.redis", n, || {
            for op in &ops {
                t = match op {
                    YcsbOp::Read { key } => redis.get(t, key).0,
                    YcsbOp::Update { key, value } => {
                        redis
                            .set(t, key.clone(), value.clone())
                            .expect("set")
                            .commit_at
                    }
                };
            }
        }),
    );
}

fn workloads_layer(seed: u64, scale: Scale, n: u64, out: &mut Values) {
    // Planning alone, at serve_byte's reference rung.
    let mut cfg = ServeConfig::standard(
        64,
        WalScheme::Ba,
        ArrivalConfig::new(ArrivalKind::Poisson, 50_000.0, seed),
    );
    cfg.horizon = SimDuration::from_micros(scale.of(50_000, 1_000));
    let budget = ServiceDriver::group_spec(cfg.tenants).ba_buffer_bytes;
    let mut offered = 1;
    let ns = timed("probe.workloads.plan", 1, || {
        offered = ServiceDriver::plan(&cfg, 1, budget).offered;
    });
    out.insert("workloads.plan_ns_per_arrival", ns / offered.max(1) as f64);

    let mut rng = SimRng::seed_from(seed ^ 0x9e4);
    let mut ycsb = YcsbWorkload::new(YcsbConfig::workload_a(10_000, COMMIT_BYTES));
    out.insert(
        "workloads.gen_ns_per_key",
        timed("probe.workloads.ycsb_gen", n, || {
            for _ in 0..n {
                black_box(ycsb.next_op(&mut rng));
            }
        }),
    );
}

/// A handful of unstretched fault plans under each ship scheme.
fn repl(seed: u64, scale: Scale, out: &mut Values) {
    let plans = if scale.is_quick() { 2 } else { 8 };
    let (mut build_ns, mut nodes) = (0.0, 0u64);
    for scheme in ShipScheme::ALL {
        let (mut run_ns, mut released) = (0.0, 0u64);
        for i in 0..plans {
            let plan = ClusterFaultPlan::random(seed ^ 0x4e91 ^ (i << 17));
            let cfg = FleetConfig::from_plan(
                &plan,
                PlacementKind::Hash,
                CommitPolicy::SemiSync(1),
                scheme,
            );
            nodes += cfg.nodes as u64;
            let mut fleet = None;
            build_ns += timed("probe.repl.fleet_new", 1, || {
                fleet = Some(Fleet::new(cfg).expect("a generated fleet builds"));
            });
            let fleet = fleet.expect("built above");
            run_ns += timed("probe.repl.fleet_run", 1, || {
                released += fleet.run().released;
            });
        }
        let metric = match scheme {
            ShipScheme::Ba => "repl.ba_ns_per_release",
            ShipScheme::Block => "repl.block_ns_per_release",
        };
        out.insert(metric, run_ns / released.max(1) as f64);
    }
    out.insert(
        "repl.fleet_build_ns_per_node",
        build_ns / nodes.max(1) as f64,
    );
}
