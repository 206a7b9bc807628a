//! Tier sweep: BA-MMIO vs CXL.mem vs block commits, and the hot/cold
//! tier machinery, measured on one chassis.
//!
//! The paper's byte path is PCIe BAR MMIO; the CXL.mem front-end is this
//! repo's 2026 counterpoint — cache-line loads/stores over the *same*
//! capacitor-backed buffer, committed by persist barriers instead of the
//! `BA_SYNC` verify-read. Three sections pin the comparison:
//!
//! 1. **closed-loop ladder** — every engine (pg/rocks/redis) × every
//!    front-end × every queue depth in [`QDS`], on [`TENANTS`] tenants
//!    sharing one device through [`TenantPool`]. Redis is single-threaded,
//!    so its rows pin the same closed-loop point at every QD — a
//!    deliberate control against accidental QD sensitivity in the rig.
//! 2. **serve mode** — one open-loop rung per scheme on the serving stack
//!    ([`ServiceDriver::serve`]), because an admission-controlled tail is
//!    where a front-end's latency actually buys capacity.
//! 3. **tier paths** — a [`TieredWal`] hot/cold scenario per byte
//!    front-end: fill segments past rotation, ride the block path until
//!    the policy promotes, and report the cold-vs-hot read latencies plus
//!    the promotion/demotion counts.
//!
//! A fourth section re-runs the CXL serve rung on the sharded device
//! model under every drive (lock-step, adaptive, parallel) *and* two
//! group→shard placements, demanding one identical completion digest from
//! all of them: the byte front-end must be invisible to placement.
//!
//! The study's [`gate`] (`twob-bench tier_sweep --gate`, a CI step)
//! enforces the headline: the CXL hot tier's p99 stays under block's at
//! every swept queue depth, closed-loop and serve-mode both, and every
//! tier path's hot read beats its cold read.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;
use twob_core::{IoCalendar, PinTable, TenantId, TwoBSsd};
use twob_cxl::{RegionFrontEnd, TierWalConfig, TieredWal};
use twob_sim::SimTime;
use twob_wal::Lsn;
use twob_workloads::{
    ArrivalConfig, ArrivalKind, EngineKind, ServeConfig, ServeReport, ServiceDriver, TenantPool,
    TenantPoolConfig, WalScheme,
};

use crate::tenant_sweep::device;
use crate::{to_json, Table};

/// Tenants sharing the device in every closed-loop cell.
pub const TENANTS: u16 = 4;

/// Queue depths (clients per tenant) the ladder climbs.
pub const QDS: [usize; 3] = [1, 4, 16];

/// Operations per tenant per cell. Sized with [`PAYLOAD_BYTES`] so each
/// tenant's whole run fits its pinned window: the ladder measures
/// front-end commit latency at the hot-tail design point (the tier-path
/// section is where rotation and demotion get measured).
pub const OPS_PER_TENANT: u64 = 50;

/// Commit payload bytes in the closed-loop cells — the small-record
/// regime the byte path exists for.
pub const PAYLOAD_BYTES: usize = 64;

/// Seed shared by every cell, so schemes see identical op streams.
pub const SEED: u64 = 61;

/// Tenants offering load in the serve-mode rung.
pub const SERVE_TENANTS: u16 = 64;

/// Per-tenant offered rate of the serve-mode rung, commits per second.
pub const SERVE_RATE: u64 = 20_000;

/// Tenants in the sharded-agreement run.
pub const SHARDED_TENANTS: u16 = 256;

/// Die groups the sharded fleet is placed across.
pub const SHARDED_GROUPS: usize = 4;

/// The schemes every section compares.
pub const SCHEMES: [WalScheme; 3] = [WalScheme::Ba, WalScheme::Cxl, WalScheme::Block];

/// One `(front-end, engine, queue depth)` cell of the closed-loop ladder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierRow {
    /// Scheme label (`"ba"`, `"cxl"`, or `"block"`).
    pub scheme: String,
    /// Engine label (`"pg"`, `"rocks"`, or `"redis"`).
    pub engine: String,
    /// Clients per tenant (Redis runs one regardless).
    pub qd: usize,
    /// Commits that reached a durability point.
    pub commits: u64,
    /// Percentage of commits that shared a group-commit batch.
    pub grouped_pct: f64,
    /// Median commit latency, µs.
    pub p50_us: f64,
    /// 99th-percentile commit latency, µs.
    pub p99_us: f64,
    /// Aggregate commit throughput.
    pub commits_per_sec: f64,
}

/// One serve-mode rung: open-loop admission-controlled commits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierServeRow {
    /// Scheme label.
    pub scheme: String,
    /// Arrivals offered over the horizon.
    pub offered: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Arrivals shed by admission control.
    pub shed: u64,
    /// Median admitted latency, µs.
    pub p50_us: f64,
    /// p99 admitted latency, µs.
    pub p99_us: f64,
    /// p999 admitted latency, µs.
    pub p999_us: f64,
}

/// One byte front-end's pass through the [`TieredWal`] hot/cold cycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierPathRow {
    /// Byte front-end label (`"ba-mmio"` or `"cxl"`).
    pub front_end: String,
    /// Commit latency of one tail append, µs.
    pub commit_us: f64,
    /// Latency of the first (cold, block-path) read of a demoted record, µs.
    pub cold_read_us: f64,
    /// Latency of a post-promotion (byte-tier) read of the same segment, µs.
    pub hot_read_us: f64,
    /// Segments promoted back into the buffer.
    pub promotions: u64,
    /// Segments demoted to NAND (rotations + sweeps).
    pub demotions: u64,
    /// Reads served by the byte tier.
    pub hot_hits: u64,
    /// Reads served by the block path.
    pub cold_hits: u64,
}

/// The sharded-agreement outcome: every drive × placement of the CXL
/// serve rung produced the same completion digest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierShardedAgreement {
    /// Fleet size.
    pub tenants: u16,
    /// Die groups.
    pub groups: usize,
    /// Shard counts swept (group→shard placements).
    pub shards: Vec<usize>,
    /// Drive labels that agreed.
    pub drives: Vec<String>,
    /// The one completion digest, hex.
    pub digest: String,
    /// Commits completed (identical everywhere).
    pub completed: u64,
}

/// Everything the sweep determined.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierSweep {
    /// The closed-loop ladder.
    pub rows: Vec<TierRow>,
    /// The serve-mode rungs.
    pub serve: Vec<TierServeRow>,
    /// The tier-machinery passes.
    pub paths: Vec<TierPathRow>,
    /// The sharded drive × placement agreement.
    pub sharded: TierShardedAgreement,
}

/// Runs one closed-loop cell on a fresh device.
///
/// # Panics
///
/// Panics if the cell's configuration is rejected or an engine fails —
/// the sweep's presets are all valid.
pub fn cell(scheme: WalScheme, engine: EngineKind, qd: usize) -> TierRow {
    let cfg = TenantPoolConfig {
        clients_per_tenant: qd,
        ops_per_tenant: OPS_PER_TENANT,
        payload_bytes: PAYLOAD_BYTES,
        ..TenantPoolConfig::standard(TENANTS, vec![engine], scheme, SEED)
    };
    let mut pool = TenantPool::new(device(), cfg).expect("valid tier cell");
    let report = ServiceDriver::run_sessions(&mut pool).expect("tier cell runs");
    TierRow {
        scheme: report.scheme,
        engine: engine.label().to_string(),
        qd,
        commits: report.commits,
        grouped_pct: report.grouped_pct,
        p50_us: report.p50_us,
        p99_us: report.p99_us,
        commits_per_sec: report.commits_per_sec,
    }
}

/// Runs the full closed-loop ladder.
pub fn run_rows() -> Vec<TierRow> {
    let mut rows = Vec::new();
    for &qd in &QDS {
        for engine in [EngineKind::Pg, EngineKind::Rocks, EngineKind::Redis] {
            for scheme in SCHEMES {
                rows.push(cell(scheme, engine, qd));
            }
        }
    }
    rows
}

/// The serve-mode configuration of one scheme's rung.
fn serve_config(scheme: WalScheme, tenants: u16) -> ServeConfig {
    ServeConfig::standard(
        tenants,
        scheme,
        ArrivalConfig::new(ArrivalKind::Poisson, SERVE_RATE as f64, SEED),
    )
}

/// Reduces a serve report to the sweep's row shape.
fn serve_row(report: &ServeReport) -> TierServeRow {
    assert_eq!(report.clamped_posts, 0, "serve rung clamped posts");
    TierServeRow {
        scheme: report.scheme.clone(),
        offered: report.offered,
        admitted: report.admitted,
        shed: report.shed_queue + report.shed_buffer,
        p50_us: report.p50_us,
        p99_us: report.p99_us,
        p999_us: report.p999_us,
    }
}

/// Runs the serve-mode rung for every scheme.
pub fn run_serve() -> Vec<TierServeRow> {
    SCHEMES
        .iter()
        .map(|&scheme| serve_row(&ServiceDriver::serve(&serve_config(scheme, SERVE_TENANTS))))
        .collect()
}

/// Runs the [`TieredWal`] hot/cold cycle through one byte front-end.
///
/// # Panics
///
/// Panics on any WAL or device failure — the scenario is a fixed script.
pub fn tier_path(front_end: RegionFrontEnd) -> TierPathRow {
    let dev = Rc::new(RefCell::new(TwoBSsd::small_for_tests()));
    let pins = Rc::new(RefCell::new(
        PinTable::new(dev.borrow().spec(), 1).expect("one-tenant table"),
    ));
    let cal = Rc::new(RefCell::new(IoCalendar::new()));
    let cfg = TierWalConfig {
        byte_front_end: front_end,
        ..TierWalConfig::default()
    };
    let mut wal =
        TieredWal::new(dev, cal.clone(), pins, TenantId(0), cfg).expect("tier rig builds");
    // Fill two segments past rotation so LSN 0 demotes to NAND. Records
    // stay small (the byte path's regime): a hot byte-tier read of one
    // must beat the cold path's full NAND page fetch.
    let mut t = SimTime::from_nanos(1_000_000);
    let mut commit_us = 0.0;
    let per_window = 64; // 128 B records in an 8 KiB window
    for i in 0..(per_window * 2 + 1) {
        let payload = vec![(i % 251) as u8; 128 - 16];
        let out = wal.append(t, &payload).expect("append");
        if i == 0 {
            commit_us = out.commit_at.saturating_since(t).as_nanos() as f64 / 1e3;
        }
        t = out.commit_at;
    }
    // First read of the demoted segment is cold; the second promotes it;
    // the fourth is a steady-state hot hit (the third still waits out the
    // promotion's NAND→buffer fill).
    let (_, t1) = wal.read(t, Lsn(0)).expect("cold read");
    let cold_read_us = t1.saturating_since(t).as_nanos() as f64 / 1e3;
    let (_, t2) = wal.read(t1, Lsn(1)).expect("promoting read");
    let (_, t3) = wal.read(t2, Lsn(2)).expect("warming read");
    let (_, t4) = wal.read(t3, Lsn(3)).expect("hot read");
    let hot_read_us = t4.saturating_since(t3).as_nanos() as f64 / 1e3;
    assert_eq!(cal.borrow().clamped_posts(), 0, "tier path clamped posts");
    let stats = wal.stats();
    TierPathRow {
        front_end: front_end.label().to_string(),
        commit_us,
        cold_read_us,
        hot_read_us,
        promotions: stats.promotions,
        demotions: stats.demotions,
        hot_hits: stats.hot_hits,
        cold_hits: stats.cold_hits,
    }
}

/// Runs the tier-machinery pass for both byte front-ends.
pub fn run_paths() -> Vec<TierPathRow> {
    vec![
        tier_path(RegionFrontEnd::BaMmio),
        tier_path(RegionFrontEnd::Cxl),
    ]
}

/// Serves the CXL rung at fleet scale under every sharded drive and two
/// group→shard placements, demanding one digest from all of them.
///
/// # Panics
///
/// Panics if any drive or placement diverges from the lock-step
/// baseline's digest, completes a different op count, or clamps a post —
/// each is a determinism bug, not a measurement.
pub fn sharded_agreement(tenants: u16, groups: usize) -> TierShardedAgreement {
    let cfg = serve_config(WalScheme::Cxl, tenants);
    let shards = vec![groups, (groups / 2).max(1)];
    let (drives, base) = crate::sharded_agreement(&cfg, groups, &shards);
    TierShardedAgreement {
        tenants,
        groups,
        shards,
        drives,
        digest: format!("{:016x}", base.digest),
        completed: base.completed,
    }
}

/// Runs all four sections at tracked-baseline scale.
pub fn run() -> TierSweep {
    TierSweep {
        rows: run_rows(),
        serve: run_serve(),
        paths: run_paths(),
        sharded: sharded_agreement(SHARDED_TENANTS, SHARDED_GROUPS),
    }
}

/// The tier gate: the CXL hot tier's p99 must sit under block's in every
/// closed-loop cell (per engine × QD) and in the serve rung, and every
/// tier path's hot read must beat its cold read (the sharded drives and
/// placements already agreed, or [`run`] would have panicked). Returns
/// the pass summary.
///
/// # Errors
///
/// Returns the first violated comparison.
pub fn gate(sweep: &TierSweep) -> Result<String, String> {
    for &qd in &QDS {
        for engine in [EngineKind::Pg, EngineKind::Rocks, EngineKind::Redis] {
            let of = |scheme: WalScheme| {
                sweep
                    .rows
                    .iter()
                    .find(|r| {
                        r.scheme == scheme.label() && r.engine == engine.label() && r.qd == qd
                    })
                    .ok_or_else(|| {
                        format!("missing {} {} qd {qd} row", scheme.label(), engine.label())
                    })
            };
            let cxl = of(WalScheme::Cxl)?;
            let block = of(WalScheme::Block)?;
            if cxl.p99_us >= block.p99_us {
                return Err(format!(
                    "{} qd {qd}: cxl p99 {} did not beat block p99 {}",
                    engine.label(),
                    cxl.p99_us,
                    block.p99_us
                ));
            }
        }
    }
    let serve_of = |label: &str| {
        sweep
            .serve
            .iter()
            .find(|r| r.scheme == label)
            .ok_or_else(|| format!("missing {label} serve rung"))
    };
    let cxl = serve_of("cxl")?;
    let block = serve_of("block")?;
    if cxl.p99_us >= block.p99_us {
        return Err(format!(
            "serve mode: cxl p99 {} did not beat block p99 {}",
            cxl.p99_us, block.p99_us
        ));
    }
    for path in &sweep.paths {
        if path.hot_read_us >= path.cold_read_us {
            return Err(format!(
                "{} hot read {} us did not beat cold read {} us",
                path.front_end, path.hot_read_us, path.cold_read_us
            ));
        }
    }
    Ok(format!(
        "tier gate passed: cxl p99 beats block in all {} cells and serve mode, \
         {} sharded drives x {} placements digest-equal at {} tenants",
        sweep.rows.len() / 3,
        sweep.sharded.drives.len(),
        sweep.sharded.shards.len(),
        sweep.sharded.tenants
    ))
}

/// The sweep under its parameters: the shape of the `json:` line and of
/// the tracked `BENCH_tier_sweep.json`.
pub(crate) fn json(sweep: &TierSweep) -> String {
    #[derive(Debug, Serialize)]
    #[allow(dead_code)] // fields are read through Debug by the serializer
    struct Outcome<'a> {
        schema: &'static str,
        tenants: u16,
        qds: [usize; 3],
        serve_rate_per_tenant: u64,
        seed: u64,
        rows: &'a [TierRow],
        serve: &'a [TierServeRow],
        paths: &'a [TierPathRow],
        sharded: &'a TierShardedAgreement,
    }
    to_json(&Outcome {
        schema: "tier-sweep-v1",
        tenants: TENANTS,
        qds: QDS,
        serve_rate_per_tenant: SERVE_RATE,
        seed: SEED,
        rows: &sweep.rows,
        serve: &sweep.serve,
        paths: &sweep.paths,
        sharded: &sweep.sharded,
    })
}

/// Renders the ladder, the serve rungs, the tier paths and the
/// sharded-agreement line.
pub(crate) fn render(sweep: &TierSweep) -> String {
    let ladder = Table::new(&sweep.rows)
        .col("engine", |r| r.engine.clone())
        .col("qd", |r| r.qd)
        .col("scheme", |r| r.scheme.clone())
        .col("commits", |r| r.commits)
        .col("grp %", |r| format!("{:.1}", r.grouped_pct))
        .col("p50 us", |r| format!("{:.2}", r.p50_us))
        .col("p99 us", |r| format!("{:.2}", r.p99_us))
        .col("commits/s", |r| format!("{:.0}", r.commits_per_sec));
    let serve = Table::new(&sweep.serve)
        .col("scheme", |r| r.scheme.clone())
        .col("offered", |r| r.offered)
        .col("admitted", |r| r.admitted)
        .col("shed", |r| r.shed)
        .col("p50 us", |r| format!("{:.2}", r.p50_us))
        .col("p99 us", |r| format!("{:.2}", r.p99_us))
        .col("p999 us", |r| format!("{:.2}", r.p999_us));
    let paths = Table::new(&sweep.paths)
        .col("front-end", |p| p.front_end.clone())
        .col("commit us", |p| format!("{:.2}", p.commit_us))
        .col("cold rd us", |p| format!("{:.2}", p.cold_read_us))
        .col("hot rd us", |p| format!("{:.2}", p.hot_read_us))
        .col("promo", |p| p.promotions)
        .col("demo", |p| p.demotions)
        .col("hot", |p| p.hot_hits)
        .col("cold", |p| p.cold_hits);
    let sharded = &sweep.sharded;
    format!(
        "Tier sweep: {TENANTS} tenants, QDs {QDS:?}, engines pg/rocks/redis, seed {SEED}\n\n\
         {ladder}\nserve mode: {SERVE_RATE} commits/s/tenant offered\n{serve}\n\
         tier paths (hot tail, demote to NAND, promote back):\n{paths}\n\
         sharded agreement: {} tenants x {} groups, shards {:?}, drives [{}] all at digest {}\n",
        sharded.tenants,
        sharded.groups,
        sharded.shards,
        sharded.drives.join(", "),
        sharded.digest
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cell_is_deterministic() {
        let a = cell(WalScheme::Cxl, EngineKind::Rocks, 4);
        let b = cell(WalScheme::Cxl, EngineKind::Rocks, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn ladder_shape_and_gate_hold() {
        let rows = run_rows();
        assert_eq!(rows.len(), QDS.len() * 3 * SCHEMES.len());
        let sweep = TierSweep {
            rows,
            serve: run_serve(),
            paths: Vec::new(),
            sharded: TierShardedAgreement {
                tenants: 0,
                groups: 0,
                shards: Vec::new(),
                drives: Vec::new(),
                digest: String::new(),
                completed: 0,
            },
        };
        gate(&sweep).expect("the CXL hot tier must beat block everywhere");
        // A tier path whose hot read does not beat its cold read fails it.
        let mut doctored = sweep.clone();
        doctored.paths = run_paths();
        gate(&doctored).expect("real tier paths pass");
        doctored.paths[1].hot_read_us = doctored.paths[1].cold_read_us;
        let violation = gate(&doctored).expect_err("hot >= cold is a violation");
        assert!(violation.contains("cxl hot read"), "{violation}");
        // And so does a ladder cell where CXL loses to block.
        let mut slow = sweep;
        let cxl = slow.rows.iter_mut().find(|r| r.scheme == "cxl").unwrap();
        cxl.p99_us = f64::MAX;
        assert!(gate(&slow).unwrap_err().contains("did not beat block"));
    }

    #[test]
    fn tier_paths_expose_the_hot_cold_gap() {
        for path in run_paths() {
            assert!(
                path.hot_read_us < path.cold_read_us,
                "{}: hot {} should beat cold {}",
                path.front_end,
                path.hot_read_us,
                path.cold_read_us
            );
            assert_eq!(path.promotions, 1);
            assert!(path.demotions >= 2);
            assert_eq!(path.cold_hits, 2);
            assert_eq!(path.hot_hits, 2);
        }
        // The CXL commit undercuts the MMIO commit on the same scenario.
        let paths = run_paths();
        assert!(
            paths[1].commit_us < paths[0].commit_us,
            "cxl commit {} should beat mmio commit {}",
            paths[1].commit_us,
            paths[0].commit_us
        );
    }

    #[test]
    fn sharded_drives_and_placements_agree_at_test_scale() {
        // Fleet scale runs in the study; the test pins the invariant at a
        // size debug builds can afford.
        let agreement = sharded_agreement(32, SHARDED_GROUPS);
        assert_eq!(agreement.drives.len(), 4);
        assert_eq!(agreement.shards, vec![4, 2]);
        assert!(agreement.completed > 0);
    }
}
