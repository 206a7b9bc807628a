//! CLI subcommands.

use std::error::Error;

use serde::Serialize;
use twob_core::{EntryId, TwoBSpec, TwoBSsd};
use twob_ftl::Lba;
use twob_sim::{SimDuration, SimTime};
use twob_ssd::{Ssd, SsdConfig};
use twob_wal::{BaWal, BlockWal, CommitMode, WalConfig, WalWriter};

use crate::args::Parsed;

type CliResult = Result<(), Box<dyn Error>>;

/// Prints usage.
pub fn help() {
    println!(
        "twob — 2B-SSD (ISCA 2018) simulation CLI

subcommands:
  spec                                   paper Table I
  devices                                calibrated device profiles
  latency  --device dc|ull|twob-mmio|twob-dma
           --op read|write  --size BYTES one latency probe
           --trace N                     also print the last N device
                                         trace events (spans)
  gc       --churn N --seed S --trace N  background-GC churn study on a
           [--json]                      small drive: fill, overwrite N
                                         times, report tail latency and
                                         per-stage GC attribution
  wal      --scheme dc|ull|async|ba|pm
           --commits N --payload BYTES   drive a WAL and report costs
  ycsb     --log dc|ull|async|twob
           --ops N --payload BYTES
           --qd N                        MiniRocks under YCSB-A; --qd > 1
                                         keeps N ops in flight per client
  tenants  --n N --mix pg,rocks,redis
           --seed S --ops N [--json]     N mixed-engine tenants share one
                                         2B-SSD; per-tenant commit latency
                                         under BA-WAL vs block-WAL
  serve    --tenants N
           --arrival poisson|burst|diurnal
           --rate OPS_PER_TENANT_PER_SEC
           --slo-p99-us T --seed S [--json] open-loop serving: per-tenant
                                         arrival streams with admission
                                         control and SLO tracking, BA-WAL
                                         vs block-WAL on one device
  tier     --n N --qd Q --mix pg,rocks,redis
           --seed S --ops N [--json]     BA-MMIO vs CXL.mem vs block front-
                                         ends on one device: closed-loop
                                         commit latency per scheme, then the
                                         tiered WAL's hot/cold cycle (tail
                                         in the byte tier, demote to NAND,
                                         promote back) per byte front-end
  repl     --replicas N --mode async|sync|semisync:K
           --rtt-us R --engine pg|rocks|redis
           --ship ba|block --seed S
           --commits C --plans P [--json]
                                         replicated log shipping: steady-
                                         state quorum-commit latency, then
                                         P crash-failover fault plans
                                         checking the no-acked-loss
                                         guarantee
  cluster  --nodes N --shards S
           --placement hash|range --rf R
           --mode async|sync|semisync:K
           --ship ba|block --commits C
           --seed S --plans P [--json]   a fleet of replica sets on one
                                         per-node PDES drive: failure-
                                         domain placement across zones,
                                         steady-state commit + follower-
                                         read latency, then P cluster
                                         fault plans (node/rack/zone cuts,
                                         live shard moves) checking the
                                         no-acked-loss guarantee
  replay   --trace FILE --device dc|ull  replay a block trace (W/R/T/F fmt)
  crash-demo                             durability windows of the byte path
  faults sweep --cuts N --seed S         crash-consistency sweep: N random
                                         fault schedules (power cuts, flush
                                         faults, NAND errors) across every
                                         engine x commit scheme
  help                                   this text"
    );
}

/// A subcommand: its name, the flags it takes (space-separated, without the
/// `--`), and its handler.
type Subcommand = (&'static str, &'static str, fn(&Parsed) -> CliResult);

const SUBCOMMANDS: &[Subcommand] = &[
    ("spec", "", spec),
    ("devices", "", devices),
    ("latency", "device op size trace", latency),
    ("gc", "churn seed trace json", gc),
    ("wal", "scheme commits payload", wal),
    ("ycsb", "log ops payload qd", ycsb),
    ("tenants", "n mix seed ops json", tenants),
    ("serve", "tenants arrival rate slo-p99-us seed json", serve),
    ("tier", "n qd mix seed ops json", tier),
    (
        "repl",
        "replicas mode rtt-us engine ship seed commits plans json",
        repl,
    ),
    (
        "cluster",
        "nodes shards placement rf mode ship commits seed plans json",
        cluster,
    ),
    ("replay", "trace device", replay),
    ("crash-demo", "", crash_demo),
    ("faults", "cuts seed", faults),
];

/// Routes a parsed command line.
///
/// # Errors
///
/// An unknown subcommand, a flag the subcommand does not take, bad flag
/// values, and simulation failures.
pub fn dispatch(parsed: &Parsed) -> CliResult {
    if matches!(parsed.command.as_str(), "help" | "--help" | "-h") {
        help();
        return Ok(());
    }
    let Some((_, flags, run)) = SUBCOMMANDS
        .iter()
        .find(|(name, ..)| *name == parsed.command)
    else {
        help();
        return Err(format!("unknown subcommand {:?}", parsed.command).into());
    };
    parsed.reject_unknown_flags(flags)?;
    run(parsed)
}

fn spec(_: &Parsed) -> CliResult {
    for (k, v) in TwoBSpec::default().table_rows() {
        println!("{k:>40}  {v}");
    }
    Ok(())
}

fn probe_block(cfg: SsdConfig, write: bool) -> (f64, Vec<twob_sim::TraceEvent>) {
    let mut ssd = Ssd::new(cfg.small());
    ssd.set_tracing(true);
    let page = vec![0xA5u8; 4096];
    let ack = ssd.write(SimTime::ZERO, Lba(0), &page).expect("populate");
    let t = ssd.flush(ack) + SimDuration::from_millis(1);
    let us = if write {
        let done = ssd.write(t, Lba(0), &page).expect("probe");
        done.saturating_since(t).as_micros_f64()
    } else {
        let read = ssd.read(t, Lba(0), 1).expect("probe");
        read.complete_at.saturating_since(t).as_micros_f64()
    };
    (us, ssd.trace_events())
}

fn print_trace(events: &[twob_sim::TraceEvent], last: u64) {
    let skip = events.len().saturating_sub(last as usize);
    println!(
        "trace (last {} of {} events):",
        events.len() - skip,
        events.len()
    );
    for ev in &events[skip..] {
        println!("  {ev}");
    }
}

fn devices(_: &Parsed) -> CliResult {
    println!("profile   4K read (us)  4K write (us)  notes");
    for (name, cfg) in [
        ("DC-SSD", SsdConfig::dc_ssd()),
        ("ULL-SSD", SsdConfig::ull_ssd()),
        ("2B-SSD", SsdConfig::base_2b()),
    ] {
        let (read_us, _) = probe_block(cfg.clone(), false);
        let (write_us, _) = probe_block(cfg.clone(), true);
        let note = if cfg.internal_datapath_bytes_per_sec > 0 {
            "block path + BA byte path"
        } else {
            "block path only"
        };
        println!("{name:<9} {read_us:>12.1} {write_us:>14.1}  {note}");
    }
    Ok(())
}

fn latency(parsed: &Parsed) -> CliResult {
    let device = parsed.str_or("device", "ull");
    let op = parsed.str_or("op", "read");
    let size = parsed.u64_or("size", 4096)?;
    let trace = parsed.u64_or("trace", 0)?;
    let write = match op.as_str() {
        "read" => false,
        "write" => true,
        other => return Err(format!("--op must be read or write, not {other:?}").into()),
    };
    let (us, events) = match device.as_str() {
        "dc" => probe_block(SsdConfig::dc_ssd(), write),
        "ull" => probe_block(SsdConfig::ull_ssd(), write),
        "twob-mmio" | "twob-dma" => {
            let mut dev = TwoBSsd::small_for_tests();
            dev.set_tracing(true);
            let pin = dev.ba_pin(SimTime::ZERO, EntryId(0), 0, Lba(0), 1)?;
            let t = pin.complete_at + SimDuration::from_millis(1);
            let len = size.clamp(1, 4096);
            let us = if write {
                let data = vec![0x5Au8; len as usize];
                let store = dev.mmio_write(t, EntryId(0), 0, &data)?;
                let sync = dev.ba_sync_range(store.retired_at, EntryId(0), 0, len)?;
                sync.complete_at.saturating_since(t).as_micros_f64()
            } else if device == "twob-dma" {
                let dma = dev.ba_read_dma(t, EntryId(0), 0, len)?;
                dma.complete_at.saturating_since(t).as_micros_f64()
            } else {
                let read = dev.mmio_read(t, EntryId(0), 0, len)?;
                read.complete_at.saturating_since(t).as_micros_f64()
            };
            (us, dev.trace_events())
        }
        other => {
            return Err(
                format!("--device must be dc, ull, twob-mmio, or twob-dma, not {other:?}").into(),
            )
        }
    };
    println!("{device} {op} of {size} B: {us:.2} us");
    if trace > 0 {
        print_trace(&events, trace);
    }
    Ok(())
}

fn gc(parsed: &Parsed) -> CliResult {
    use twob_sim::Histogram;
    use twob_ssd::GcPolicy;
    use twob_workloads::{ChurnConfig, ChurnWorkload};

    let churn = parsed.u64_or("churn", 1_000)?;
    let seed = parsed.u64_or("seed", 7)?;
    let trace = parsed.u64_or("trace", 0)?;
    if churn == 0 {
        return Err("--churn must be positive".into());
    }
    let mut ssd = Ssd::new(
        SsdConfig::ull_ssd()
            .small()
            .with_background_gc(GcPolicy::Greedy),
    );
    ssd.set_tracing(trace > 0);
    let lbas = ssd.capacity_pages();
    let mut wl = ChurnWorkload::new(ChurnConfig::skewed(lbas, seed));
    let mut t = SimTime::ZERO;
    let mut fresh = Histogram::new();
    for lba in wl.fill_sequence().collect::<Vec<_>>() {
        let data = wl.page_for(lba, ssd.page_size());
        let ack = ssd.write(t, lba, &data)?;
        fresh.record(ack.saturating_since(t));
        t = ack;
    }
    let mut storm = Histogram::new();
    for _ in 0..churn {
        let lba = wl.next_lba();
        let data = wl.page_for(lba, ssd.page_size());
        let ack = ssd.write(t, lba, &data)?;
        storm.record(ack.saturating_since(t));
        t = ack;
    }
    let idle = ssd.quiesce_background();
    let stats = ssd.ftl().stats();
    let (started, abandoned) = ssd.ftl().gc_job_counts();
    if parsed.is_set("json") {
        // Fields reach the output through the vendored serde's
        // Debug-based serializer, which the dead-code lint can't see.
        #[derive(Debug, Serialize)]
        #[allow(dead_code)]
        struct GcJson {
            device: String,
            fill_pages: u64,
            churn: u64,
            seed: u64,
            fresh_p50_us: f64,
            fresh_p99_us: f64,
            churn_p50_us: f64,
            churn_p99_us: f64,
            waf: f64,
            gc_page_moves: u64,
            erases: u64,
            gc_jobs: u64,
            gc_abandoned: u64,
            idle_at_ns: u64,
        }
        let row = GcJson {
            device: ssd.label().to_string(),
            fill_pages: lbas,
            churn,
            seed,
            fresh_p50_us: fresh.percentile(0.50).as_micros_f64(),
            fresh_p99_us: fresh.percentile(0.99).as_micros_f64(),
            churn_p50_us: storm.percentile(0.50).as_micros_f64(),
            churn_p99_us: storm.percentile(0.99).as_micros_f64(),
            waf: stats.waf(),
            gc_page_moves: stats.gc_writes,
            erases: stats.erases,
            gc_jobs: started,
            gc_abandoned: abandoned,
            idle_at_ns: idle.as_nanos(),
        };
        println!("json: {}", serde_json::to_string(&row)?);
        return Ok(());
    }
    println!("device:           {} (background GC, greedy)", ssd.label());
    println!("fill:             {lbas} pages, churn: {churn} overwrites (seed {seed})");
    println!(
        "write p50/p99:    fresh {:.1}/{:.1} us, under churn {:.1}/{:.1} us",
        fresh.percentile(0.50).as_micros_f64(),
        fresh.percentile(0.99).as_micros_f64(),
        storm.percentile(0.50).as_micros_f64(),
        storm.percentile(0.99).as_micros_f64()
    );
    println!("waf:              {:.2}", stats.waf());
    println!(
        "gc:               {} page moves, {} erases, {} jobs ({} abandoned)",
        stats.gc_writes, stats.erases, started, abandoned
    );
    println!("idle at:          {idle}");
    if trace > 0 {
        print_trace(&ssd.trace_events(), trace);
    }
    Ok(())
}

fn make_wal(scheme: &str) -> Result<Box<dyn WalWriter>, Box<dyn Error>> {
    let cfg = WalConfig::default();
    Ok(match scheme {
        "dc" => Box::new(BlockWal::new(
            Ssd::new(SsdConfig::dc_ssd().bench_scale()),
            cfg,
            CommitMode::Sync,
        )?),
        "ull" => Box::new(BlockWal::new(
            Ssd::new(SsdConfig::ull_ssd().bench_scale()),
            cfg,
            CommitMode::Sync,
        )?),
        "async" => Box::new(BlockWal::new(
            Ssd::new(SsdConfig::ull_ssd().bench_scale()),
            cfg,
            CommitMode::Async,
        )?),
        "ba" | "twob" => Box::new(BaWal::new(TwoBSsd::small_for_tests(), cfg, 8)?),
        "pm" => Box::new(twob_wal::PmWal::new(
            Ssd::new(SsdConfig::dc_ssd().bench_scale()),
            cfg,
            8,
        )?),
        other => {
            return Err(format!("--scheme must be dc, ull, async, ba, or pm, not {other:?}").into())
        }
    })
}

fn wal(parsed: &Parsed) -> CliResult {
    let scheme = parsed.str_or("scheme", "ba");
    let commits = parsed.u64_or("commits", 1_000)?;
    let payload = parsed.u64_or("payload", 128)? as usize;
    let mut wal = make_wal(&scheme)?;
    let start = SimTime::from_nanos(1_000_000);
    let mut t = start;
    let body = vec![0x42u8; payload];
    let mut risky = false;
    for _ in 0..commits {
        let out = wal.append_commit(t, &body)?;
        risky |= out.risk_window().is_some();
        t = out.commit_at;
    }
    let stats = wal.stats();
    println!("scheme:            {}", wal.scheme());
    println!("commits:           {commits} x {payload} B");
    println!(
        "mean commit cost:  {:.2} us",
        stats.mean_commit_cost().as_micros_f64()
    );
    println!(
        "throughput:        {:.0} commits/s",
        commits as f64 / t.saturating_since(start).as_secs_f64()
    );
    println!("log WAF:           {:.1}", stats.log_waf());
    println!(
        "risk window:       {}",
        if risky { "YES (async)" } else { "none" }
    );
    Ok(())
}

fn ycsb(parsed: &Parsed) -> CliResult {
    use twob_sim::SimRng;
    use twob_workloads::{EngineKind, EngineSession};

    let log = parsed.str_or("log", "twob");
    let ops = parsed.u64_or("ops", 10_000)?;
    let payload = parsed.u64_or("payload", 256)? as usize;
    let qd = parsed.u64_or("qd", 1)? as usize;
    if !(1..=1024).contains(&qd) {
        return Err("--qd must be between 1 and 1024".into());
    }
    let mut db = EngineSession::new(EngineKind::Rocks, make_wal(&log)?, 500, payload);
    println!("engine:      MiniRocks ({})", db.wal_scheme());
    // 8 clients that each keep `qd` operations in flight are 8 x qd slots.
    let pool = db.run(&mut SimRng::seed_from(7), 8 * qd, ops)?;
    let depth = if qd == 1 {
        String::new()
    } else {
        format!(" x QD {qd}")
    };
    println!("workload:    YCSB-A, {payload} B values, 8 clients{depth}, {ops} ops");
    println!("throughput:  {:.0} ops/s", pool.ops_per_sec());
    println!("log WAF:     {:.1}", db.wal_stats().log_waf());
    Ok(())
}

fn tenants(parsed: &Parsed) -> CliResult {
    use twob_workloads::{EngineKind, ServiceDriver, TenantPool, TenantPoolConfig, WalScheme};

    let n = parsed.u64_or("n", 4)?;
    if !(1..=64).contains(&n) {
        return Err("--n must be between 1 and 64 (the virtualized pin-table size)".into());
    }
    let mix = EngineKind::parse_mix(&parsed.str_or("mix", "pg,rocks,redis"))?;
    let seed = parsed.u64_or("seed", 61)?;
    let ops = parsed.u64_or("ops", 200)?;
    if ops == 0 {
        return Err("--ops must be positive".into());
    }
    let device = twob_bench::tenant_sweep::device;
    let json = parsed.is_set("json");
    #[derive(Debug, Serialize)]
    #[allow(dead_code)]
    struct TenantJson {
        scheme: String,
        commits: u64,
        grouped_pct: f64,
        p50_us: f64,
        p99_us: f64,
        worst_tenant_p99_us: f64,
        commits_per_sec: f64,
    }
    let mut rows = Vec::new();
    if !json {
        println!(
            "{n} tenant(s), mix [{}], seed {seed}, {ops} ops/tenant\n",
            mix.iter().map(|k| k.label()).collect::<Vec<_>>().join(",")
        );
        println!(
            "{:<7} {:>8} {:>9} {:>10} {:>10} {:>11} {:>10}",
            "scheme", "commits", "grp %", "p50 us", "p99 us", "worst p99", "commit/s"
        );
    }
    for scheme in [WalScheme::Ba, WalScheme::Block] {
        let cfg = TenantPoolConfig {
            ops_per_tenant: ops,
            ..TenantPoolConfig::standard(n as u16, mix.clone(), scheme, seed)
        };
        let mut pool = TenantPool::new(device(), cfg)?;
        let report = ServiceDriver::run_sessions(&mut pool)?;
        if json {
            rows.push(TenantJson {
                scheme: report.scheme,
                commits: report.commits,
                grouped_pct: report.grouped_pct,
                p50_us: report.p50_us,
                p99_us: report.p99_us,
                worst_tenant_p99_us: report.worst_tenant_p99_us,
                commits_per_sec: report.commits_per_sec,
            });
        } else {
            println!(
                "{:<7} {:>8} {:>9.1} {:>10.2} {:>10.2} {:>11.2} {:>10.0}",
                report.scheme,
                report.commits,
                report.grouped_pct,
                report.p50_us,
                report.p99_us,
                report.worst_tenant_p99_us,
                report.commits_per_sec
            );
        }
    }
    if json {
        println!("json: {}", serde_json::to_string(&rows)?);
    }
    Ok(())
}

fn serve(parsed: &Parsed) -> CliResult {
    use twob_workloads::{ArrivalConfig, ArrivalKind, ServeConfig, ServiceDriver, WalScheme};

    let tenants = parsed.u64_or("tenants", 16)?;
    if !(1..=256).contains(&tenants) {
        return Err("--tenants must be between 1 and 256 (one device's mapping entries)".into());
    }
    let arrival = parsed.str_or("arrival", "poisson");
    let kind = ArrivalKind::parse(&arrival)
        .ok_or_else(|| format!("--arrival must be poisson, burst, or diurnal, not {arrival:?}"))?;
    let rate = parsed.u64_or("rate", 20_000)?;
    if rate == 0 {
        return Err("--rate must be positive".into());
    }
    let slo_p99_us = parsed.u64_or("slo-p99-us", 400)?;
    if slo_p99_us == 0 {
        return Err("--slo-p99-us must be positive".into());
    }
    let seed = parsed.u64_or("seed", 61)?;
    let json = parsed.is_set("json");
    #[derive(Debug, Serialize)]
    #[allow(dead_code)]
    struct ServeJson {
        scheme: String,
        offered: u64,
        admitted: u64,
        deferred: u64,
        shed: u64,
        offered_ops_per_sec: f64,
        admitted_ops_per_sec: f64,
        p50_us: f64,
        p99_us: f64,
        p999_us: f64,
        slo_p99_us: f64,
        slo_ok: bool,
        windows_over_slo: u64,
    }
    if !json {
        println!(
            "{tenants} tenant(s), {} arrivals at {rate} ops/s/tenant, \
             p99 SLO {slo_p99_us} us (seed {seed})\n",
            kind.label()
        );
        println!(
            "{:<7} {:>8} {:>9} {:>8} {:>6} {:>10} {:>10} {:>10} {:>7}",
            "scheme",
            "offered",
            "admitted",
            "deferred",
            "shed",
            "p50 us",
            "p99 us",
            "p999 us",
            "slo"
        );
    }
    let mut rows = Vec::new();
    for scheme in [WalScheme::Ba, WalScheme::Block] {
        let mut cfg = ServeConfig::standard(
            tenants as u16,
            scheme,
            ArrivalConfig::new(kind, rate as f64, seed),
        );
        cfg.slo_p99_us = slo_p99_us as f64;
        let report = ServiceDriver::serve(&cfg);
        if report.clamped_posts != 0 {
            return Err(format!("{} serve clamped posts into the past", report.scheme).into());
        }
        if json {
            rows.push(ServeJson {
                scheme: report.scheme,
                offered: report.offered,
                admitted: report.admitted,
                deferred: report.deferred,
                shed: report.shed_queue + report.shed_buffer,
                offered_ops_per_sec: report.offered_ops_per_sec,
                admitted_ops_per_sec: report.admitted_ops_per_sec,
                p50_us: report.p50_us,
                p99_us: report.p99_us,
                p999_us: report.p999_us,
                slo_p99_us: report.slo_p99_us,
                slo_ok: report.slo_ok,
                windows_over_slo: report.windows_over_slo,
            });
        } else {
            println!(
                "{:<7} {:>8} {:>9} {:>8} {:>6} {:>10.2} {:>10.2} {:>10.2} {:>7}",
                report.scheme,
                report.offered,
                report.admitted,
                report.deferred,
                report.shed_queue + report.shed_buffer,
                report.p50_us,
                report.p99_us,
                report.p999_us,
                if report.slo_ok { "met" } else { "MISSED" }
            );
        }
    }
    if json {
        println!("json: {}", serde_json::to_string(&rows)?);
    }
    Ok(())
}

fn tier(parsed: &Parsed) -> CliResult {
    use twob_cxl::RegionFrontEnd;
    use twob_workloads::{EngineKind, ServiceDriver, TenantPool, TenantPoolConfig, WalScheme};

    let n = parsed.u64_or("n", 4)?;
    if !(1..=64).contains(&n) {
        return Err("--n must be between 1 and 64 (the virtualized pin-table size)".into());
    }
    let qd = parsed.u64_or("qd", 4)?;
    if qd == 0 {
        return Err("--qd must be positive".into());
    }
    let mix = EngineKind::parse_mix(&parsed.str_or("mix", "pg,rocks,redis"))?;
    let seed = parsed.u64_or("seed", 61)?;
    let ops = parsed.u64_or("ops", 50)?;
    if ops == 0 {
        return Err("--ops must be positive".into());
    }
    let json = parsed.is_set("json");

    #[derive(Debug, Serialize)]
    #[allow(dead_code)]
    struct TierJson {
        scheme: String,
        commits: u64,
        grouped_pct: f64,
        p50_us: f64,
        p99_us: f64,
        commits_per_sec: f64,
    }
    #[derive(Debug, Serialize)]
    #[allow(dead_code)]
    struct PathJson {
        front_end: String,
        commit_us: f64,
        cold_read_us: f64,
        hot_read_us: f64,
        promotions: u64,
        demotions: u64,
    }

    // Closed-loop commit latency per front-end: the same seeded tenants on
    // a fresh device each time, 64 B payloads (the byte path's regime).
    let device = twob_bench::tenant_sweep::device;
    if !json {
        println!(
            "{n} tenant(s) x qd {qd}, mix [{}], seed {seed}, {ops} ops/tenant\n",
            mix.iter().map(|k| k.label()).collect::<Vec<_>>().join(",")
        );
        println!(
            "{:<7} {:>8} {:>9} {:>10} {:>10} {:>10}",
            "scheme", "commits", "grp %", "p50 us", "p99 us", "commit/s"
        );
    }
    let mut rows = Vec::new();
    for scheme in [WalScheme::Ba, WalScheme::Cxl, WalScheme::Block] {
        let cfg = TenantPoolConfig {
            clients_per_tenant: qd as usize,
            ops_per_tenant: ops,
            payload_bytes: 64,
            ..TenantPoolConfig::standard(n as u16, mix.clone(), scheme, seed)
        };
        let mut pool = TenantPool::new(device(), cfg)?;
        let report = ServiceDriver::run_sessions(&mut pool)?;
        if json {
            rows.push(TierJson {
                scheme: report.scheme,
                commits: report.commits,
                grouped_pct: report.grouped_pct,
                p50_us: report.p50_us,
                p99_us: report.p99_us,
                commits_per_sec: report.commits_per_sec,
            });
        } else {
            println!(
                "{:<7} {:>8} {:>9.1} {:>10.2} {:>10.2} {:>10.0}",
                report.scheme,
                report.commits,
                report.grouped_pct,
                report.p50_us,
                report.p99_us,
                report.commits_per_sec
            );
        }
    }

    // The tiered WAL's hot/cold cycle per byte front-end: fill past
    // rotation, read a demoted record cold off NAND, promote it back, read
    // it hot from the byte tier.
    if !json {
        println!("\ntiered WAL (hot tail, demote to NAND, promote back):");
        println!(
            "{:<9} {:>10} {:>11} {:>10} {:>6} {:>5}",
            "front-end", "commit us", "cold rd us", "hot rd us", "promo", "demo"
        );
    }
    let mut paths = Vec::new();
    for front_end in [RegionFrontEnd::BaMmio, RegionFrontEnd::Cxl] {
        let path = twob_bench::tier_sweep::tier_path(front_end);
        if json {
            paths.push(PathJson {
                front_end: path.front_end,
                commit_us: path.commit_us,
                cold_read_us: path.cold_read_us,
                hot_read_us: path.hot_read_us,
                promotions: path.promotions,
                demotions: path.demotions,
            });
        } else {
            println!(
                "{:<9} {:>10.2} {:>11.2} {:>10.2} {:>6} {:>5}",
                path.front_end,
                path.commit_us,
                path.cold_read_us,
                path.hot_read_us,
                path.promotions,
                path.demotions
            );
        }
    }
    if json {
        #[derive(Debug, Serialize)]
        #[allow(dead_code)]
        struct TierOut {
            rows: Vec<TierJson>,
            paths: Vec<PathJson>,
        }
        println!("json: {}", serde_json::to_string(&TierOut { rows, paths })?);
    }
    Ok(())
}

/// Parses `--mode` for a replica set with `followers` followers (a count
/// that `followers_flag` sets). The library clamps a `semisync:K` beyond
/// the follower count, so such a run would report a mode it did not run:
/// refuse it here instead.
fn commit_mode(
    parsed: &Parsed,
    default: &str,
    followers: u64,
    followers_flag: &str,
) -> Result<twob_repl::CommitPolicy, Box<dyn Error>> {
    let mode = parsed.str_or("mode", default);
    let policy = twob_repl::CommitPolicy::parse(&mode)
        .ok_or_else(|| format!("--mode must be async, sync, or semisync:K, not {mode:?}"))?;
    match policy {
        twob_repl::CommitPolicy::SemiSync(k) if k as u64 > followers => Err(format!(
            "--mode {mode} waits for {k} follower acks, but {followers_flag} gives {followers}"
        )
        .into()),
        _ => Ok(policy),
    }
}

fn repl(parsed: &Parsed) -> CliResult {
    use twob_repl::{failover_sweep, NetLinkConfig, ReplConfig, ReplicaSet, ShipScheme};

    let replicas = parsed.u64_or("replicas", 3)?;
    if !(1..=8).contains(&replicas) {
        return Err("--replicas must be between 1 and 8".into());
    }
    let policy = commit_mode(parsed, "semisync:2", replicas, "--replicas")?;
    let ship = parsed.str_or("ship", "ba");
    let scheme = ShipScheme::parse(&ship)
        .ok_or_else(|| format!("--ship must be ba or block, not {ship:?}"))?;
    let engine = twob_db::EngineKind::parse(&parsed.str_or("engine", "rocks"))?;
    let seed = parsed.u64_or("seed", 42)?;
    let commits = parsed.u64_or("commits", 60)?;
    if commits == 0 {
        return Err("--commits must be positive".into());
    }
    let rtt_us = parsed.u64_or("rtt-us", 50)?;
    let plans = parsed.u64_or("plans", 8)?;
    let json = parsed.is_set("json");

    let cfg = ReplConfig {
        engine,
        scheme,
        policy,
        replicas: replicas as usize,
        link: NetLinkConfig::from_rtt_us(rtt_us),
        seed,
        commits,
    };
    let steady = ReplicaSet::new(cfg)?.run_steady();
    let sweep = failover_sweep(plans, seed);

    if json {
        #[derive(Debug, Serialize)]
        #[allow(dead_code)]
        struct SteadyJson {
            engine: String,
            ship: String,
            mode: String,
            replicas: u64,
            rtt_us: u64,
            seed: u64,
            commits: u64,
            released: u64,
            p50_us: f64,
            p99_us: f64,
            mean_us: f64,
            commits_per_sec: f64,
            ship_batches: u64,
            ship_records: u64,
            violations: Vec<String>,
        }
        #[derive(Debug, Serialize)]
        #[allow(dead_code)]
        struct FailoverJson {
            plans: u64,
            seed: u64,
            acked_commits: u64,
            survivors: u64,
            violations: Vec<String>,
        }
        #[derive(Debug, Serialize)]
        #[allow(dead_code)]
        struct ReplJson {
            steady: SteadyJson,
            failover: FailoverJson,
        }
        let out = ReplJson {
            steady: SteadyJson {
                engine: engine.to_string(),
                ship: scheme.to_string(),
                mode: policy.to_string(),
                replicas,
                rtt_us,
                seed,
                commits,
                released: steady.released,
                p50_us: steady.p50_us,
                p99_us: steady.p99_us,
                mean_us: steady.mean_us,
                commits_per_sec: steady.commits_per_sec,
                ship_batches: steady.ship_batches,
                ship_records: steady.ship_records,
                violations: steady.violations.clone(),
            },
            failover: FailoverJson {
                plans: sweep.plans,
                seed: sweep.seed,
                acked_commits: sweep.acked_commits,
                survivors: sweep.survivors,
                violations: sweep
                    .violations
                    .iter()
                    .map(|(e, s, ps, d)| format!("[{e}/{s} seed={ps}] {d}"))
                    .collect(),
            },
        };
        println!("json: {}", serde_json::to_string(&out)?);
    } else {
        println!(
            "replica set: {engine} x{replicas}, {policy} over {ship} ship, \
             rtt {rtt_us} us (seed {seed}, {commits} commits)"
        );
        println!(
            "steady state: released {}, p50 {:.2} us, p99 {:.2} us, \
             mean {:.2} us, {:.0} commits/s",
            steady.released, steady.p50_us, steady.p99_us, steady.mean_us, steady.commits_per_sec
        );
        println!(
            "shipping:     {} batches, {} records on the wire",
            steady.ship_batches, steady.ship_records
        );
        for v in &steady.violations {
            println!("VIOLATION: {v}");
        }
        println!("\n{sweep}");
    }
    let broken = steady.violations.len() + sweep.violations.len();
    if broken == 0 {
        Ok(())
    } else {
        Err(format!("{broken} replication invariant violation(s)").into())
    }
}

fn cluster(parsed: &Parsed) -> CliResult {
    use twob_repl::{fleet_sweep, Fleet, FleetConfig, PlacementKind, ShipScheme};

    let nodes = parsed.u64_or("nodes", 9)?;
    if !(3..=48).contains(&nodes) {
        return Err("--nodes must be between 3 and 48".into());
    }
    let shards = parsed.u64_or("shards", 6)?;
    if !(1..=64).contains(&shards) {
        return Err("--shards must be between 1 and 64 (one pin-table entry each)".into());
    }
    let placement_name = parsed.str_or("placement", "hash");
    let placement = PlacementKind::parse(&placement_name)
        .ok_or_else(|| format!("--placement must be hash or range, not {placement_name:?}"))?;
    let rf = parsed.u64_or("rf", 3)?;
    if rf == 0 || rf > nodes {
        return Err("--rf must be between 1 and --nodes".into());
    }
    let policy = commit_mode(parsed, "semisync:1", rf - 1, "--rf minus the primary")?;
    let ship = parsed.str_or("ship", "ba");
    let scheme = ShipScheme::parse(&ship)
        .ok_or_else(|| format!("--ship must be ba or block, not {ship:?}"))?;
    let commits = parsed.u64_or("commits", 8)?;
    if commits == 0 {
        return Err("--commits must be positive".into());
    }
    let seed = parsed.u64_or("seed", 42)?;
    let plans = parsed.u64_or("plans", 8)?;
    let json = parsed.is_set("json");

    let cfg = FleetConfig {
        nodes: nodes as usize,
        shards: shards as u16,
        rf: rf as usize,
        placement,
        policy,
        scheme,
        commits_per_shard: commits,
        seed,
        ..FleetConfig::default()
    };
    let steady = Fleet::new(cfg)?.run();
    let sweep = fleet_sweep(plans, seed);

    if json {
        #[derive(Debug, Serialize)]
        #[allow(dead_code)]
        struct SteadyJson {
            nodes: u64,
            shards: u64,
            rf: u64,
            placement: String,
            mode: String,
            ship: String,
            seed: u64,
            commits_per_shard: u64,
            released: u64,
            reads: u64,
            commit_p50_us: f64,
            read_p99_us: f64,
            shard_digests: Vec<String>,
            violations: Vec<String>,
        }
        #[derive(Debug, Serialize)]
        #[allow(dead_code)]
        struct SweepJson {
            plans: u64,
            runs: u64,
            released: u64,
            reads: u64,
            moved: u64,
            digest: String,
            violations: Vec<String>,
        }
        #[derive(Debug, Serialize)]
        #[allow(dead_code)]
        struct ClusterJson {
            steady: SteadyJson,
            fault_sweep: SweepJson,
        }
        let out = ClusterJson {
            steady: SteadyJson {
                nodes,
                shards,
                rf,
                placement: placement.to_string(),
                mode: policy.to_string(),
                ship: scheme.to_string(),
                seed,
                commits_per_shard: commits,
                released: steady.released,
                reads: steady.reads,
                commit_p50_us: steady.commit_p50_us,
                read_p99_us: steady.read_p99_us,
                shard_digests: steady
                    .shard_digests
                    .iter()
                    .map(|d| format!("{d:016x}"))
                    .collect(),
                violations: steady.violations.clone(),
            },
            fault_sweep: SweepJson {
                plans,
                runs: sweep.runs,
                released: sweep.released,
                reads: sweep.reads,
                moved: sweep.moved,
                digest: format!("{:016x}", sweep.digest),
                violations: sweep.violations.clone(),
            },
        };
        println!("json: {}", serde_json::to_string(&out)?);
    } else {
        println!(
            "fleet:        {nodes} nodes / 3 zones, {shards} shard(s) x rf {rf}, \
             {placement} placement"
        );
        println!("commit path:  {policy} over {ship} ship (seed {seed}, {commits} commits/shard)");
        println!(
            "steady state: released {}, {} follower reads, commit p50 {:.2} us, \
             read p99 {:.2} us",
            steady.released, steady.reads, steady.commit_p50_us, steady.read_p99_us
        );
        println!("config log:   {} entries", steady.config_log.len());
        for v in &steady.violations {
            println!("VIOLATION: {v}");
        }
        println!("\n{sweep}");
    }
    let broken = steady.violations.len() + sweep.violations.len();
    if broken == 0 {
        Ok(())
    } else {
        Err(format!("{broken} cluster invariant violation(s)").into())
    }
}

fn replay(parsed: &Parsed) -> CliResult {
    use twob_workloads::{parse_trace, replay_trace};
    let path = parsed.str_or("trace", "");
    if path.is_empty() {
        return Err("--trace FILE is required".into());
    }
    let device = parsed.str_or("device", "ull");
    let text = std::fs::read_to_string(&path)?;
    let ops = parse_trace(&text)?;
    let cfg = match device.as_str() {
        "dc" => SsdConfig::dc_ssd().bench_scale(),
        "ull" => SsdConfig::ull_ssd().bench_scale(),
        other => return Err(format!("--device must be dc or ull, not {other:?}").into()),
    };
    let mut ssd = Ssd::new(cfg);
    let report = replay_trace(&mut ssd, SimTime::ZERO, &ops)?;
    println!("trace:        {path}");
    println!("device:       {}", ssd.label());
    println!("operations:   {}", report.ops);
    println!("cold reads:   {}", report.cold_reads);
    println!("virtual time: {}", report.elapsed);
    println!("throughput:   {:.1} MB/s", report.mb_per_sec());
    println!("ftl:          {}", ssd.ftl().stats());
    Ok(())
}

fn crash_demo(_: &Parsed) -> CliResult {
    let mut dev = TwoBSsd::small_for_tests();
    let pin = dev.ba_pin(SimTime::ZERO, EntryId(0), 0, Lba(0), 1)?;
    let store = dev.mmio_write(pin.complete_at, EntryId(0), 0, b"unsynced")?;
    let dump = dev.power_loss(store.retired_at);
    dev.power_on(store.retired_at + SimDuration::from_millis(1));
    let read = dev.mmio_read(
        store.retired_at + SimDuration::from_millis(2),
        EntryId(0),
        0,
        8,
    )?;
    println!(
        "1. store without BA_SYNC, then power loss: dump={}, data survived={}",
        dump.dumped,
        &read.data == b"unsynced"
    );

    let mut dev = TwoBSsd::small_for_tests();
    let pin = dev.ba_pin(SimTime::ZERO, EntryId(0), 0, Lba(0), 1)?;
    let store = dev.mmio_write(pin.complete_at, EntryId(0), 0, b"synced!!")?;
    let sync = dev.ba_sync(store.retired_at, EntryId(0))?;
    let dump = dev.power_loss(sync.complete_at);
    let report = dev.power_on(sync.complete_at + SimDuration::from_millis(1));
    let read = dev.mmio_read(
        sync.complete_at + SimDuration::from_millis(2),
        EntryId(0),
        0,
        8,
    )?;
    println!(
        "2. store + BA_SYNC, then power loss:       dump={}, restored={}, data survived={}",
        dump.dumped,
        report.restored,
        &read.data == b"synced!!"
    );
    println!(
        "\nThe write-combining buffer is the risk window; BA_SYNC (clflush +\n\
         mfence + write-verify read) closes it, and the capacitors carry the\n\
         BA-buffer to NAND on power loss (paper Fig 3 / SIII-A4)."
    );
    Ok(())
}

fn faults(parsed: &Parsed) -> CliResult {
    let action = parsed.args.first().map(String::as_str).unwrap_or("sweep");
    if action != "sweep" {
        return Err(format!("faults supports only `sweep`, not {action:?}").into());
    }
    let cuts = parsed.u64_or("cuts", 216)?;
    let seed = parsed.u64_or("seed", 7)?;
    if cuts == 0 {
        return Err("--cuts must be positive".into());
    }
    let report = twob_faults::sweep(cuts, seed);
    println!("{report}");
    if report.passed() {
        Ok(())
    } else {
        Err(format!("{} invariant violation(s)", report.violations.len()).into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn run(args: &[&str]) -> CliResult {
        let parsed = parse(args.iter().map(|s| s.to_string())).expect("parse");
        dispatch(&parsed)
    }

    #[test]
    fn all_subcommands_run() {
        run(&["spec"]).unwrap();
        run(&["devices"]).unwrap();
        run(&[
            "latency", "--device", "twob-dma", "--op", "read", "--size", "2048",
        ])
        .unwrap();
        run(&[
            "latency", "--device", "ull", "--op", "write", "--trace", "8",
        ])
        .unwrap();
        run(&["gc", "--churn", "400", "--seed", "3", "--trace", "12"]).unwrap();
        run(&[
            "wal",
            "--scheme",
            "pm",
            "--commits",
            "50",
            "--payload",
            "64",
        ])
        .unwrap();
        run(&["ycsb", "--log", "async", "--ops", "200", "--payload", "64"]).unwrap();
        run(&[
            "ycsb",
            "--log",
            "twob",
            "--ops",
            "200",
            "--payload",
            "64",
            "--qd",
            "8",
        ])
        .unwrap();
        run(&[
            "tenants",
            "--n",
            "2",
            "--mix",
            "redis,rocks",
            "--seed",
            "5",
            "--ops",
            "40",
        ])
        .unwrap();
        run(&[
            "serve",
            "--tenants",
            "4",
            "--arrival",
            "burst",
            "--rate",
            "20000",
            "--slo-p99-us",
            "400",
        ])
        .unwrap();
        run(&[
            "tier",
            "--n",
            "2",
            "--qd",
            "2",
            "--mix",
            "rocks,redis",
            "--ops",
            "20",
            "--seed",
            "7",
        ])
        .unwrap();
        run(&["crash-demo"]).unwrap();
        run(&["faults", "sweep", "--cuts", "9", "--seed", "3"]).unwrap();
        run(&[
            "repl",
            "--replicas",
            "3",
            "--mode",
            "semisync:2",
            "--commits",
            "12",
            "--plans",
            "2",
            "--seed",
            "9",
        ])
        .unwrap();
        run(&[
            "cluster",
            "--nodes",
            "9",
            "--shards",
            "4",
            "--placement",
            "range",
            "--mode",
            "sync",
            "--commits",
            "6",
            "--plans",
            "1",
            "--seed",
            "11",
        ])
        .unwrap();
        run(&["help"]).unwrap();
    }

    #[test]
    fn json_variants_run() {
        run(&["gc", "--churn", "200", "--seed", "3", "--json"]).unwrap();
        run(&["tenants", "--n", "2", "--ops", "40", "--json"]).unwrap();
        run(&["serve", "--tenants", "2", "--rate", "30000", "--json"]).unwrap();
        run(&["tier", "--n", "2", "--ops", "20", "--json"]).unwrap();
        run(&[
            "repl",
            "--commits",
            "10",
            "--plans",
            "1",
            "--seed",
            "4",
            "--json",
        ])
        .unwrap();
        run(&[
            "cluster",
            "--nodes",
            "9",
            "--shards",
            "4",
            "--commits",
            "6",
            "--plans",
            "1",
            "--seed",
            "11",
            "--json",
        ])
        .unwrap();
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        assert!(run(&["unknown-subcommand"]).is_err());
        assert!(run(&["latency", "--device", "floppy"]).is_err());
        assert!(run(&["latency", "--op", "erase"]).is_err());
        assert!(run(&["wal", "--scheme", "carrier-pigeon"]).is_err());
        assert!(run(&["ycsb", "--ops", "10", "--qd", "0"]).is_err());
        assert!(run(&["ycsb", "--ops", "10", "--qd", "1025"]).is_err());
        // A flag the subcommand does not take would silently run the
        // defaults: refuse it and say what is accepted.
        let typo = run(&["serve", "--tenats", "2", "--json"]).unwrap_err();
        assert!(typo.to_string().contains("--tenats"), "{typo}");
        assert!(typo.to_string().contains("--tenants"), "{typo}");
        assert!(run(&["repl", "--plan", "54"]).is_err());
        assert!(run(&["ycsb", "--ops", "10", "--clients", "4"]).is_err());
        assert!(run(&["faults", "sweep", "--cuts", "9", "--json"]).is_err());
        assert!(run(&["spec", "--json"]).is_err());
        assert!(run(&["replay"]).is_err());
        assert!(run(&["gc", "--churn", "0"]).is_err());
        assert!(run(&["tenants", "--n", "0"]).is_err());
        assert!(run(&["tenants", "--n", "65"]).is_err());
        assert!(run(&["tenants", "--n", "2", "--mix", "pg,mysql"]).is_err());
        assert!(run(&["tenants", "--n", "2", "--ops", "0"]).is_err());
        assert!(run(&["serve", "--tenants", "0"]).is_err());
        assert!(run(&["serve", "--tenants", "257"]).is_err());
        assert!(run(&["tier", "--n", "0"]).is_err());
        assert!(run(&["tier", "--n", "65"]).is_err());
        assert!(run(&["tier", "--qd", "0"]).is_err());
        assert!(run(&["tier", "--ops", "0"]).is_err());
        assert!(run(&["tier", "--mix", "pg,mysql"]).is_err());
        assert!(run(&["serve", "--arrival", "carrier-pigeon"]).is_err());
        assert!(run(&["serve", "--rate", "0"]).is_err());
        assert!(run(&["serve", "--slo-p99-us", "0"]).is_err());
        assert!(run(&["latency", "--trace", "yes"]).is_err());
        assert!(run(&["faults", "retry"]).is_err());
        assert!(run(&["faults", "sweep", "--cuts", "0"]).is_err());
        assert!(run(&["repl", "--mode", "carrier-pigeon"]).is_err());
        // A quorum beyond the follower count would be clamped silently.
        let clamped = run(&["repl", "--mode", "semisync:5", "--replicas", "3"]).unwrap_err();
        assert!(
            clamped.to_string().contains("--mode semisync:5"),
            "{clamped}"
        );
        assert!(clamped.to_string().contains("--replicas"), "{clamped}");
        let clamped = run(&["cluster", "--mode", "semisync:3", "--rf", "3"]).unwrap_err();
        assert!(
            clamped.to_string().contains("--mode semisync:3"),
            "{clamped}"
        );
        assert!(clamped.to_string().contains("--rf"), "{clamped}");
        assert!(run(&["repl", "--ship", "floppy"]).is_err());
        assert!(run(&["repl", "--engine", "mysql"]).is_err());
        assert!(run(&["repl", "--replicas", "0"]).is_err());
        assert!(run(&["repl", "--commits", "0"]).is_err());
        assert!(run(&["cluster", "--nodes", "2"]).is_err());
        assert!(run(&["cluster", "--nodes", "49"]).is_err());
        assert!(run(&["cluster", "--shards", "0"]).is_err());
        assert!(run(&["cluster", "--placement", "ring"]).is_err());
        assert!(run(&["cluster", "--rf", "0"]).is_err());
        assert!(run(&["cluster", "--nodes", "4", "--rf", "5"]).is_err());
        assert!(run(&["cluster", "--mode", "carrier-pigeon"]).is_err());
        assert!(run(&["cluster", "--ship", "floppy"]).is_err());
        assert!(run(&["cluster", "--commits", "0"]).is_err());
    }

    #[test]
    fn replay_runs_a_trace_file() {
        let dir = std::env::temp_dir().join("twob-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.txt");
        std::fs::write(&path, "W 0 2\nF\nR 0 2\nT 0 1\n").unwrap();
        run(&[
            "replay",
            "--trace",
            path.to_str().unwrap(),
            "--device",
            "dc",
        ])
        .unwrap();
    }
}
