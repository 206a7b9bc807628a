//! CLI subcommands: each one returns what it prints.

use std::error::Error;
use std::fmt;

use twob_bench::{table1, tenant_sweep, tier_sweep, to_json, Table};
use twob_core::{EntryId, TwoBSsd};
use twob_ftl::Lba;
use twob_sim::{SimDuration, SimTime};
use twob_ssd::{Ssd, SsdConfig};
use twob_wal::{BaWal, BlockWal, CommitMode, WalConfig, WalWriter};
use twob_workloads::{
    EngineKind, ServiceDriver, TenantPool, TenantPoolConfig, TenantReport, WalScheme,
};

use crate::args::Parsed;

/// What a subcommand prints, newline-terminated.
type CliResult = Result<String, Box<dyn Error>>;

/// Usage.
pub const HELP: &str = "\
twob — 2B-SSD (ISCA 2018) simulation CLI

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
  help                                   this text
";

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

/// Routes a parsed command line and returns what it prints.
///
/// # Errors
///
/// An unknown subcommand (the message carries the usage), a flag the
/// subcommand does not take, bad flag values, simulation failures, and a
/// violated invariant (the message carries the report).
pub fn dispatch(parsed: &Parsed) -> CliResult {
    if matches!(parsed.command.as_str(), "help" | "--help" | "-h") {
        return Ok(HELP.to_string());
    }
    let Some((_, flags, run)) = SUBCOMMANDS
        .iter()
        .find(|(name, ..)| *name == parsed.command)
    else {
        return Err(format!("unknown subcommand {:?}\n\n{HELP}", parsed.command).into());
    };
    parsed.reject_unknown_flags(flags)?;
    run(parsed)
}

/// The `json:` line of a `--json` run.
fn json_line<T: fmt::Debug + ?Sized>(value: &T) -> String {
    format!("json: {}\n", to_json(value))
}

/// Report values under their section names: serialized as one JSON object,
/// in the order given.
struct Sections<'a>(&'a [(&'a str, &'a dyn fmt::Debug)]);

impl fmt::Debug for Sections<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.0.iter().copied()).finish()
    }
}

/// `report` if no invariant broke; otherwise an error that carries it.
fn verdict(report: String, broken: usize) -> CliResult {
    if broken == 0 {
        Ok(report)
    } else {
        Err(format!("{broken} invariant violation(s)\n\n{report}").into())
    }
}

/// `--qd`: how many operations each client keeps in flight. It sizes the
/// client pool, so it is bounded.
fn queue_depth(parsed: &Parsed, default: u64) -> Result<usize, Box<dyn Error>> {
    let qd = parsed.u64_or("qd", default)?;
    if !(1..=1024).contains(&qd) {
        return Err("--qd must be between 1 and 1024".into());
    }
    Ok(qd as usize)
}

fn spec(_: &Parsed) -> CliResult {
    Ok(table1::render(&table1::rows()))
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

/// The last `last` trace events, one per line under a heading; nothing
/// when `last` is zero.
fn trace_tail(events: &[twob_sim::TraceEvent], last: u64) -> String {
    if last == 0 {
        return String::new();
    }
    let tail = &events[events.len().saturating_sub(last as usize)..];
    let lines: String = tail.iter().map(|ev| format!("  {ev}\n")).collect();
    format!(
        "trace (last {} of {} events):\n{lines}",
        tail.len(),
        events.len()
    )
}

fn devices(_: &Parsed) -> CliResult {
    let profiles = [
        ("DC-SSD", SsdConfig::dc_ssd()),
        ("ULL-SSD", SsdConfig::ull_ssd()),
        ("2B-SSD", SsdConfig::base_2b()),
    ];
    let table = Table::new(&profiles)
        .col("profile", |(name, _)| *name)
        .col("4K read (us)", |(_, cfg)| {
            format!("{:.1}", probe_block(cfg.clone(), false).0)
        })
        .col("4K write (us)", |(_, cfg)| {
            format!("{:.1}", probe_block(cfg.clone(), true).0)
        })
        .col("notes", |(_, cfg)| {
            if cfg.internal_datapath_bytes_per_sec > 0 {
                "block path + BA byte path"
            } else {
                "block path only"
            }
        });
    Ok(table.to_string())
}

fn latency(parsed: &Parsed) -> CliResult {
    let device = parsed.str_or("device", "ull");
    let op = parsed.str_or("op", "read");
    let size = parsed.u64_or("size", 4096)?;
    // The byte probe pins one page and the block probes move one page.
    if !(1..=4096).contains(&size) {
        return Err("--size must be between 1 and 4096 (the probe covers one page)".into());
    }
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
            let done = if write {
                let data = vec![0x5Au8; size as usize];
                let store = dev.mmio_write(t, EntryId(0), 0, &data)?;
                dev.ba_sync_range(store.retired_at, EntryId(0), 0, size)?
                    .complete_at
            } else if device == "twob-dma" {
                dev.ba_read_dma(t, EntryId(0), 0, size)?.complete_at
            } else {
                dev.mmio_read(t, EntryId(0), 0, size)?.complete_at
            };
            (done.saturating_since(t).as_micros_f64(), dev.trace_events())
        }
        other => {
            return Err(
                format!("--device must be dc, ull, twob-mmio, or twob-dma, not {other:?}").into(),
            )
        }
    };
    Ok(format!(
        "{device} {op} of {size} B: {us:.2} us\n{}",
        trace_tail(&events, trace)
    ))
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
    let [fresh_p50, fresh_p99, churn_p50, churn_p99] = [
        (&fresh, 0.50),
        (&fresh, 0.99),
        (&storm, 0.50),
        (&storm, 0.99),
    ]
    .map(|(hist, q)| hist.percentile(q).as_micros_f64());
    if parsed.is_set("json") {
        return Ok(json_line(&Sections(&[
            ("device", &ssd.label()),
            ("fill_pages", &lbas),
            ("churn", &churn),
            ("seed", &seed),
            ("fresh_p50_us", &fresh_p50),
            ("fresh_p99_us", &fresh_p99),
            ("churn_p50_us", &churn_p50),
            ("churn_p99_us", &churn_p99),
            ("waf", &stats.waf()),
            ("ftl", &stats),
            ("gc_jobs", &started),
            ("gc_abandoned", &abandoned),
            ("idle_at_ns", &idle),
        ])));
    }
    Ok(format!(
        "device:           {} (background GC, greedy)\n\
         fill:             {lbas} pages, churn: {churn} overwrites (seed {seed})\n\
         write p50/p99:    fresh {fresh_p50:.1}/{fresh_p99:.1} us, \
         under churn {churn_p50:.1}/{churn_p99:.1} us\n\
         waf:              {:.2}\n\
         gc:               {} page moves, {} erases, {started} jobs ({abandoned} abandoned)\n\
         idle at:          {idle}\n{}",
        ssd.label(),
        stats.waf(),
        stats.gc_writes,
        stats.erases,
        trace_tail(&ssd.trace_events(), trace)
    ))
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
    Ok(format!(
        "scheme:            {}\n\
         commits:           {commits} x {payload} B\n\
         mean commit cost:  {:.2} us\n\
         throughput:        {:.0} commits/s\n\
         log WAF:           {:.1}\n\
         risk window:       {}\n",
        wal.scheme(),
        stats.mean_commit_cost().as_micros_f64(),
        commits as f64 / t.saturating_since(start).as_secs_f64(),
        stats.log_waf(),
        if risky { "YES (async)" } else { "none" }
    ))
}

fn ycsb(parsed: &Parsed) -> CliResult {
    use twob_sim::SimRng;
    use twob_workloads::EngineSession;

    let log = parsed.str_or("log", "twob");
    let ops = parsed.u64_or("ops", 10_000)?;
    let payload = parsed.u64_or("payload", 256)? as usize;
    let qd = queue_depth(parsed, 1)?;
    let mut db = EngineSession::new(EngineKind::Rocks, make_wal(&log)?, 500, payload);
    // 8 clients that each keep `qd` operations in flight are 8 x qd slots.
    let pool = db.run(&mut SimRng::seed_from(7), 8 * qd, ops)?;
    let depth = if qd == 1 {
        String::new()
    } else {
        format!(" x QD {qd}")
    };
    Ok(format!(
        "engine:      MiniRocks ({})\n\
         workload:    YCSB-A, {payload} B values, 8 clients{depth}, {ops} ops\n\
         throughput:  {:.0} ops/s\n\
         log WAF:     {:.1}\n",
        db.wal_scheme(),
        pool.ops_per_sec(),
        db.wal_stats().log_waf()
    ))
}

/// The pool that `--n`, `--mix`, `--seed` and `--ops` (`default_ops` when
/// absent) describe, checked: the tenant sweep's preset under the flags
/// `tenants` and `tier` share. Its scheme is a placeholder.
fn pool_flags(parsed: &Parsed, default_ops: u64) -> Result<TenantPoolConfig, Box<dyn Error>> {
    let n = parsed.u64_or("n", 4)?;
    if !(1..=64).contains(&n) {
        return Err("--n must be between 1 and 64 (the virtualized pin-table size)".into());
    }
    let mix = EngineKind::parse_mix(&parsed.str_or("mix", "pg,rocks,redis"))?;
    let seed = parsed.u64_or("seed", 61)?;
    let ops = parsed.u64_or("ops", default_ops)?;
    if ops == 0 {
        return Err("--ops must be positive".into());
    }
    Ok(TenantPoolConfig {
        ops_per_tenant: ops,
        ..TenantPoolConfig::standard(n as u16, mix, WalScheme::Ba, seed)
    })
}

/// One closed-loop run of `base`'s tenants per scheme, each on a fresh
/// tenant-sweep chassis.
fn pool_reports(
    base: &TenantPoolConfig,
    schemes: impl IntoIterator<Item = WalScheme>,
) -> Result<Vec<TenantReport>, Box<dyn Error>> {
    let run = |scheme| {
        let cfg = TenantPoolConfig {
            scheme,
            ..base.clone()
        };
        let mut pool = TenantPool::new(tenant_sweep::device(), cfg)?;
        Ok(ServiceDriver::run_sessions(&mut pool)?)
    };
    schemes.into_iter().map(run).collect()
}

/// The first line of a pool run's text report; `shape` follows the count.
fn pool_heading(base: &TenantPoolConfig, shape: &str) -> String {
    let mix: Vec<&str> = base.mix.iter().map(|kind| kind.label()).collect();
    format!(
        "{} tenant(s){shape}, mix [{}], seed {}, {} ops/tenant",
        base.tenants,
        mix.join(","),
        base.seed,
        base.ops_per_tenant
    )
}

/// The columns every per-scheme table of pool runs starts with.
fn pool_table(reports: &[TenantReport]) -> Table<'_, TenantReport> {
    Table::new(reports)
        .col("scheme", |r| r.scheme.clone())
        .col("commits", |r| r.commits)
        .col("grp %", |r| format!("{:.1}", r.grouped_pct))
        .col("p50 us", |r| format!("{:.2}", r.p50_us))
        .col("p99 us", |r| format!("{:.2}", r.p99_us))
}

fn tenants(parsed: &Parsed) -> CliResult {
    let base = pool_flags(parsed, 200)?;
    let reports = pool_reports(&base, [WalScheme::Ba, WalScheme::Block])?;
    if parsed.is_set("json") {
        return Ok(json_line(&reports));
    }
    let table = pool_table(&reports)
        .col("worst p99", |r| format!("{:.2}", r.worst_tenant_p99_us))
        .col("commit/s", |r| format!("{:.0}", r.commits_per_sec));
    Ok(format!("{}\n\n{table}", pool_heading(&base, "")))
}

fn serve(parsed: &Parsed) -> CliResult {
    use twob_workloads::{ArrivalConfig, ArrivalKind, ServeConfig};

    let tenants = parsed.u64_or("tenants", 16)?;
    if !(1..=256).contains(&tenants) {
        return Err("--tenants must be between 1 and 256 (one device's mapping entries)".into());
    }
    let arrival = parsed.str_or("arrival", "poisson");
    let kind = ArrivalKind::parse(&arrival)
        .ok_or_else(|| format!("--arrival must be poisson, burst, or diurnal, not {arrival:?}"))?;
    let rate = parsed.u64_or("rate", 20_000)?;
    if !(1..=10_000_000).contains(&rate) {
        return Err(
            "--rate must be between 1 and 10000000 (arrival gaps floor at 1 ns per tenant)".into(),
        );
    }
    let slo_p99_us = parsed.u64_or("slo-p99-us", 400)?;
    if slo_p99_us == 0 {
        return Err("--slo-p99-us must be positive".into());
    }
    let seed = parsed.u64_or("seed", 61)?;
    let mut reports = Vec::new();
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
        reports.push(report);
    }
    if parsed.is_set("json") {
        return Ok(json_line(&reports));
    }
    let table = Table::new(&reports)
        .col("scheme", |r| r.scheme.clone())
        .col("offered", |r| r.offered)
        .col("admitted", |r| r.admitted)
        .col("deferred", |r| r.deferred)
        .col("shed", |r| r.shed_queue + r.shed_buffer)
        .col("p50 us", |r| format!("{:.2}", r.p50_us))
        .col("p99 us", |r| format!("{:.2}", r.p99_us))
        .col("p999 us", |r| format!("{:.2}", r.p999_us))
        .col("slo", |r| if r.slo_ok { "met" } else { "MISSED" });
    Ok(format!(
        "{tenants} tenant(s), {} arrivals at {rate} ops/s/tenant, \
         p99 SLO {slo_p99_us} us (seed {seed})\n\n{table}",
        kind.label()
    ))
}

fn tier(parsed: &Parsed) -> CliResult {
    use twob_cxl::RegionFrontEnd;

    // Closed-loop commit latency per front-end: the same seeded tenants on
    // a fresh device each time, 64 B payloads (the byte path's regime).
    let base = TenantPoolConfig {
        clients_per_tenant: queue_depth(parsed, 4)?,
        payload_bytes: tier_sweep::PAYLOAD_BYTES,
        ..pool_flags(parsed, 50)?
    };
    let rows = pool_reports(&base, tier_sweep::SCHEMES)?;
    // The tiered WAL's hot/cold cycle per byte front-end: fill past
    // rotation, read a demoted record cold off NAND, promote it back, read
    // it hot from the byte tier.
    let paths = [RegionFrontEnd::BaMmio, RegionFrontEnd::Cxl].map(tier_sweep::tier_path);
    if parsed.is_set("json") {
        return Ok(json_line(&Sections(&[("rows", &rows), ("paths", &paths)])));
    }
    let ladder = pool_table(&rows).col("commit/s", |r| format!("{:.0}", r.commits_per_sec));
    let cycle = Table::new(&paths)
        .col("front-end", |p| p.front_end.clone())
        .col("commit us", |p| format!("{:.2}", p.commit_us))
        .col("cold rd us", |p| format!("{:.2}", p.cold_read_us))
        .col("hot rd us", |p| format!("{:.2}", p.hot_read_us))
        .col("promo", |p| p.promotions)
        .col("demo", |p| p.demotions);
    Ok(format!(
        "{}\n\n{ladder}\n\
         tiered WAL (hot tail, demote to NAND, promote back):\n{cycle}",
        pool_heading(&base, &format!(" x qd {}", base.clients_per_tenant))
    ))
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

/// How `repl` and `cluster` end a text report: one line per steady-state
/// violation, a blank line, the fault sweep.
fn sweep_tail(violations: &[String], sweep: &dyn fmt::Display) -> String {
    let flagged: String = violations
        .iter()
        .map(|v| format!("VIOLATION: {v}\n"))
        .collect();
    format!("{flagged}\n{sweep}\n")
}

/// Parses `--ship`.
fn ship_scheme(parsed: &Parsed) -> Result<twob_repl::ShipScheme, Box<dyn Error>> {
    let ship = parsed.str_or("ship", "ba");
    twob_repl::ShipScheme::parse(&ship)
        .ok_or_else(|| format!("--ship must be ba or block, not {ship:?}").into())
}

fn repl(parsed: &Parsed) -> CliResult {
    use twob_repl::{failover_sweep, NetLinkConfig, ReplConfig, ReplicaSet};

    let replicas = parsed.u64_or("replicas", 3)?;
    if !(1..=8).contains(&replicas) {
        return Err("--replicas must be between 1 and 8".into());
    }
    let policy = commit_mode(parsed, "semisync:2", replicas, "--replicas")?;
    let scheme = ship_scheme(parsed)?;
    let engine = EngineKind::parse(&parsed.str_or("engine", "rocks"))?;
    let seed = parsed.u64_or("seed", 42)?;
    let commits = parsed.u64_or("commits", 60)?;
    if commits == 0 {
        return Err("--commits must be positive".into());
    }
    let rtt_us = parsed.u64_or("rtt-us", 50)?;
    let plans = parsed.u64_or("plans", 8)?;

    let steady = ReplicaSet::new(ReplConfig {
        engine,
        scheme,
        policy,
        replicas: replicas as usize,
        link: NetLinkConfig::from_rtt_us(rtt_us),
        seed,
        commits,
    })?
    .run_steady();
    let sweep = failover_sweep(plans, seed);
    let report = if parsed.is_set("json") {
        json_line(&Sections(&[("steady", &steady), ("failover", &sweep)]))
    } else {
        format!(
            "replica set: {engine} x{replicas}, {policy} over {scheme} ship, \
             rtt {rtt_us} us (seed {seed}, {commits} commits)\n\
             steady state: released {}, p50 {:.2} us, p99 {:.2} us, \
             mean {:.2} us, {:.0} commits/s\n\
             shipping:     {} batches, {} records on the wire\n{}",
            steady.released,
            steady.p50_us,
            steady.p99_us,
            steady.mean_us,
            steady.commits_per_sec,
            steady.ship_batches,
            steady.ship_records,
            sweep_tail(&steady.violations, &sweep)
        )
    };
    verdict(report, steady.violations.len() + sweep.violations.len())
}

fn cluster(parsed: &Parsed) -> CliResult {
    use twob_repl::{fleet_sweep, Fleet, FleetConfig, PlacementKind};

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
    let scheme = ship_scheme(parsed)?;
    let commits = parsed.u64_or("commits", 8)?;
    if commits == 0 {
        return Err("--commits must be positive".into());
    }
    let seed = parsed.u64_or("seed", 42)?;
    let plans = parsed.u64_or("plans", 8)?;

    let config = FleetConfig {
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
    let steady = Fleet::new(config.clone())?.run();
    let sweep = fleet_sweep(plans, seed);
    let report = if parsed.is_set("json") {
        json_line(&Sections(&[
            ("config", &config),
            ("steady", &steady),
            ("fault_sweep", &sweep),
        ]))
    } else {
        format!(
            "fleet:        {nodes} nodes / 3 zones, {shards} shard(s) x rf {rf}, \
             {placement} placement\n\
             commit path:  {policy} over {scheme} ship (seed {seed}, {commits} commits/shard)\n\
             steady state: released {}, {} follower reads, commit p50 {:.2} us, \
             read p99 {:.2} us\n\
             config log:   {} entries\n{}",
            steady.released,
            steady.reads,
            steady.commit_p50_us,
            steady.read_p99_us,
            steady.config_log.len(),
            sweep_tail(&steady.violations, &sweep)
        )
    };
    verdict(report, steady.violations.len() + sweep.violations.len())
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
    Ok(format!(
        "trace:        {path}\n\
         device:       {}\n\
         operations:   {}\n\
         cold reads:   {}\n\
         virtual time: {}\n\
         throughput:   {:.1} MB/s\n\
         ftl:          {}\n",
        ssd.label(),
        report.ops,
        report.cold_reads,
        report.elapsed,
        report.mb_per_sec(),
        ssd.ftl().stats()
    ))
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
    let unsynced = format!(
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
    Ok(format!(
        "{unsynced}\n\
         2. store + BA_SYNC, then power loss:       dump={}, restored={}, data survived={}\n\
         \nThe write-combining buffer is the risk window; BA_SYNC (clflush +\n\
         mfence + write-verify read) closes it, and the capacitors carry the\n\
         BA-buffer to NAND on power loss (paper Fig 3 / SIII-A4).\n",
        dump.dumped,
        report.restored,
        &read.data == b"synced!!"
    ))
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
    verdict(format!("{report}\n"), report.violations.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    /// What `twob <args>` would print: whole lines, or the error.
    fn run(args: &[&str]) -> CliResult {
        let parsed = parse(args.iter().map(|s| s.to_string())).expect("parse");
        let text = dispatch(&parsed)?;
        assert!(text.ends_with('\n'), "{args:?} ends mid-line: {text:?}");
        Ok(text)
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
        for args in [
            &["gc", "--churn", "200", "--seed", "3", "--json"][..],
            &["tenants", "--n", "2", "--ops", "40", "--json"],
            &["serve", "--tenants", "2", "--rate", "30000", "--json"],
            &["tier", "--n", "2", "--ops", "20", "--json"],
            &[
                "repl",
                "--commits",
                "10",
                "--plans",
                "1",
                "--seed",
                "4",
                "--json",
            ],
            &[
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
            ],
        ] {
            // One `json: ` line and nothing else, the same on a second run.
            let payload = run(args).unwrap();
            assert!(payload.starts_with("json: "), "{args:?}: {payload}");
            assert_eq!(payload.matches('\n').count(), 1, "{args:?}");
            assert_eq!(run(args).unwrap(), payload, "{args:?}");
        }
    }

    /// The value of `key` in the first JSON object after `anchor`.
    fn value_after<'a>(json: &'a str, anchor: &str, key: &str) -> &'a str {
        let object = &json[json.find(anchor).expect(anchor)..];
        let key = format!("\"{key}\":");
        let value = &object[object.find(&key).expect(&key) + key.len()..];
        &value[..value.find([',', '}']).expect("a delimiter")]
    }

    fn golden(study: &str) -> String {
        let path = format!("{}{study}.json", twob_bench::registry::GOLDEN_DIR);
        std::fs::read_to_string(path).expect("golden fixture")
    }

    #[test]
    fn serve_json_agrees_with_the_serve_sweep_fixture() {
        let fixture = golden("serve_sweep");
        let serve = run(&[
            "serve",
            "--tenants",
            "64",
            "--rate",
            "20000",
            "--slo-p99-us",
            "4",
            "--seed",
            "61",
            "--json",
        ])
        .unwrap();
        for scheme in ["ba", "block"] {
            let rung = format!("\"scheme\":\"{scheme}\",\"rate_per_tenant\":20000");
            let report = format!("\"scheme\":\"{scheme}\"");
            for key in ["admitted", "p50_us", "p99_us", "p999_us", "slo_ok"] {
                assert_eq!(
                    value_after(&serve, &report, key),
                    value_after(&fixture, &rung, key),
                    "{scheme} {key}"
                );
            }
            let shed: u64 = ["shed_queue", "shed_buffer"]
                .iter()
                .map(|key| value_after(&serve, &report, key).parse::<u64>().unwrap())
                .sum();
            assert_eq!(
                shed.to_string(),
                value_after(&fixture, &rung, "shed"),
                "{scheme}"
            );
        }
    }

    #[test]
    fn tenants_json_agrees_with_the_tenant_sweep_fixture() {
        let fixture = golden("tenant_sweep");
        let tenants = run(&[
            "tenants", "--n", "4", "--ops", "200", "--seed", "61", "--json",
        ])
        .unwrap();
        // A fixture row is a report's leading fields, names and order alike.
        let rows: Vec<&str> = fixture
            .split("},{")
            .filter(|row| row.contains("\"tenants\":4,"))
            .collect();
        assert_eq!(rows.len(), 2, "{rows:?}");
        for row in rows {
            let fields = row.trim_start_matches('{');
            assert!(
                tenants.contains(&format!("{{{fields},\"per_tenant\":")),
                "{row}"
            );
        }
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        assert!(run(&["unknown-subcommand"]).is_err());
        assert!(run(&["latency", "--device", "floppy"]).is_err());
        assert!(run(&["latency", "--op", "erase"]).is_err());
        assert!(run(&["wal", "--scheme", "carrier-pigeon"]).is_err());
        assert!(run(&["ycsb", "--ops", "10", "--qd", "0"]).is_err());
        assert!(run(&["ycsb", "--ops", "10", "--qd", "1025"]).is_err());
        // `tier --qd` sizes the same client pool: same bound, same words.
        for qd in ["1025", "100000000000"] {
            let unbounded = run(&["tier", "--n", "2", "--qd", qd, "--ops", "1"]).unwrap_err();
            assert_eq!(
                unbounded.to_string(),
                run(&["ycsb", "--qd", qd]).unwrap_err().to_string()
            );
            assert!(unbounded.to_string().contains("--qd"), "{unbounded}");
        }
        // A probe covers one page; a size it cannot measure is not clamped.
        for (device, size) in [
            ("twob-mmio", "1000000"),
            ("twob-mmio", "0"),
            ("dc", "1000000"),
        ] {
            let clamped = run(&[
                "latency", "--device", device, "--op", "write", "--size", size,
            ])
            .unwrap_err();
            assert!(clamped.to_string().contains("--size"), "{clamped}");
        }
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
        // One arrival per ns per tenant is not the rate the header prints.
        let unbounded = run(&["serve", "--tenants", "2", "--rate", "100000000000"]).unwrap_err();
        assert!(unbounded.to_string().contains("--rate"), "{unbounded}");
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
