//! Tenant sweep: does BA-WAL's commit-latency advantage survive sharing?
//!
//! The paper demonstrates co-location once (§V runs PostgreSQL, RocksDB,
//! and Redis concurrently on the prototype) but never sweeps the tenant
//! count. This study does: 1, 4, 16, and 64 tenants — a pg/rocks/redis mix
//! assigned round-robin — run the same seeded workloads on one shared
//! device under both logging schemes:
//!
//! - **ba** — per-tenant BA-WAL windows, arbitrated by the host
//!   [`twob_core::PinTable`] over the device's BA buffer (each tenant gets
//!   an equal share; 64 tenants × 4-page windows need a 64-entry table, a
//!   deliberate deviation from the 8-entry prototype that DESIGN.md §6
//!   discusses);
//! - **block** — conventional page-write + flush WAL on the *same*
//!   chassis's block path (the paper's base SSD serves block I/O like a
//!   ULL-SSD).
//!
//! Two questions: does BA commit p99 stay under block commit p99 at every
//! tenant count, and where is the interference knee — the count at which
//! p99 departs from the single-tenant baseline by more than
//! [`KNEE_FACTOR`]×?
//!
//! A final section routes the tenant fleet through the
//! `ShardedIoCalendar` placement path (the one the tier sweep uses):
//! every scheme's commit traffic across [`SHARDED_GROUPS`] die groups,
//! under every shard drive and two group→shard placements, pinned to one
//! completion digest per scheme.

use serde::{Deserialize, Serialize};
use twob_core::{TwoBSpec, TwoBSsd};
use twob_ssd::SsdConfig;
use twob_workloads::{
    ArrivalConfig, ArrivalKind, EngineKind, ServeConfig, ServiceDriver, TenantPool,
    TenantPoolConfig, WalScheme,
};

use crate::Table;

/// Tenant counts the sweep visits.
pub const TENANT_COUNTS: [u16; 4] = [1, 4, 16, 64];

/// Fleet size of the sharded-placement section.
pub const SHARDED_TENANTS: u16 = 64;

/// Die groups the sharded fleet is placed across.
pub const SHARDED_GROUPS: usize = 4;

/// Per-tenant offered rate of the sharded section, commits per second.
pub const SHARDED_RATE: u64 = 20_000;

/// A tenant count "knees" when its p99 exceeds this multiple of the
/// single-tenant p99 for the same scheme.
pub const KNEE_FACTOR: f64 = 2.0;

/// Seed shared by every cell, so schemes see identical op streams.
pub const SEED: u64 = 61;

/// One `(tenant count, scheme)` cell of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Tenant count.
    pub tenants: u16,
    /// Scheme label (`"ba"` or `"block"`).
    pub scheme: String,
    /// Commits that reached a durability point, across all tenants.
    pub commits: u64,
    /// Group-commit batches issued.
    pub batches: u64,
    /// Percentage of commits that shared a batch.
    pub grouped_pct: f64,
    /// Median commit latency, µs.
    pub p50_us: f64,
    /// 99th-percentile commit latency, µs.
    pub p99_us: f64,
    /// Worst single tenant's p99, µs.
    pub worst_tenant_p99_us: f64,
    /// Aggregate commit throughput.
    pub commits_per_sec: f64,
}

/// The device every cell runs on: bench-scale NAND behind a 1 MiB BA
/// buffer whose mapping table is virtualized to 64 entries so each of up
/// to 64 tenants can hold a window (DESIGN.md §6). The tier sweep runs on
/// the same chassis.
pub fn device() -> TwoBSsd {
    let spec = TwoBSpec {
        ba_buffer_bytes: 1 << 20,
        max_entries: 64,
        ..TwoBSpec::default()
    };
    TwoBSsd::new(SsdConfig::base_2b().bench_scale(), spec)
}

/// The per-cell pool configuration: the pg/rocks/redis round-robin mix at
/// 200 ops per tenant.
fn pool_config(tenants: u16, scheme: WalScheme) -> TenantPoolConfig {
    TenantPoolConfig {
        ops_per_tenant: 200,
        ..TenantPoolConfig::standard(
            tenants,
            vec![EngineKind::Pg, EngineKind::Rocks, EngineKind::Redis],
            scheme,
            SEED,
        )
    }
}

/// Runs one cell of the sweep on a fresh device.
///
/// # Panics
///
/// Panics if the cell's configuration is rejected or an engine fails —
/// the sweep's presets are all valid.
pub fn cell(tenants: u16, scheme: WalScheme) -> Row {
    let mut pool =
        TenantPool::new(device(), pool_config(tenants, scheme)).expect("valid sweep cell");
    let report = ServiceDriver::run_sessions(&mut pool).expect("sweep cell runs");
    Row {
        tenants: report.tenants,
        scheme: report.scheme,
        commits: report.commits,
        batches: report.batches,
        grouped_pct: report.grouped_pct,
        p50_us: report.p50_us,
        p99_us: report.p99_us,
        worst_tenant_p99_us: report.worst_tenant_p99_us,
        commits_per_sec: report.commits_per_sec,
    }
}

/// Runs the full sweep: both schemes at every tenant count.
pub fn run() -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in &TENANT_COUNTS {
        for scheme in [WalScheme::Ba, WalScheme::Block] {
            rows.push(cell(n, scheme));
        }
    }
    rows
}

/// One scheme's pass through the sharded placement path: the tenant
/// fleet's commit traffic placed across [`SHARDED_GROUPS`] die groups on
/// the `ShardedIoCalendar`, under every drive and two group→shard
/// placements — the same path the tier sweep runs, so tiering rows and
/// tenant rows agree on what placement means.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedRow {
    /// Scheme label.
    pub scheme: String,
    /// Fleet size.
    pub tenants: u16,
    /// Die groups.
    pub groups: usize,
    /// Shard counts swept.
    pub shards: Vec<usize>,
    /// Drive labels that agreed.
    pub drives: Vec<String>,
    /// The one completion digest, hex.
    pub digest: String,
    /// Commits completed (identical everywhere).
    pub completed: u64,
}

/// Routes one scheme's tenant fleet through every sharded drive and two
/// placements, demanding a single digest.
///
/// # Panics
///
/// Panics if any drive or placement diverges from the lock-step
/// baseline — a determinism bug, not a measurement.
pub fn sharded_row(scheme: WalScheme, tenants: u16, groups: usize) -> ShardedRow {
    let cfg = ServeConfig::standard(
        tenants,
        scheme,
        ArrivalConfig::new(ArrivalKind::Poisson, SHARDED_RATE as f64, SEED),
    );
    let shards = vec![groups, (groups / 2).max(1)];
    let (drives, base) = crate::sharded_agreement(&cfg, groups, &shards);
    ShardedRow {
        scheme: scheme.label().to_string(),
        tenants,
        groups,
        shards,
        drives,
        digest: format!("{:016x}", base.digest),
        completed: base.completed,
    }
}

/// The sharded-placement section: every scheme through the shared path.
pub fn sharded(tenants: u16, groups: usize) -> Vec<ShardedRow> {
    [WalScheme::Ba, WalScheme::Cxl, WalScheme::Block]
        .into_iter()
        .map(|scheme| sharded_row(scheme, tenants, groups))
        .collect()
}

/// The interference knee for `scheme`: the smallest tenant count whose p99
/// exceeds [`KNEE_FACTOR`] × the single-tenant p99, if any.
pub fn knee(rows: &[Row], scheme: WalScheme) -> Option<u16> {
    let base = rows
        .iter()
        .find(|r| r.scheme == scheme.label() && r.tenants == 1)?
        .p99_us;
    rows.iter()
        .filter(|r| r.scheme == scheme.label() && r.p99_us > KNEE_FACTOR * base)
        .map(|r| r.tenants)
        .min()
}

/// The deterministic `json:` payload: ladder rows plus the sharded
/// placement agreement.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Outcome {
    /// The tenant-count ladder.
    pub rows: Vec<Row>,
    /// One agreement row per scheme.
    pub sharded: Vec<ShardedRow>,
}

/// Runs the whole study: the ladder plus the sharded-placement section
/// at [`SHARDED_TENANTS`] tenants.
pub fn outcome() -> Outcome {
    Outcome {
        rows: run(),
        sharded: sharded(SHARDED_TENANTS, SHARDED_GROUPS),
    }
}

/// Renders the ladder, each scheme's knee, and the agreement lines.
pub(crate) fn render(outcome: &Outcome) -> String {
    let table = Table::new(&outcome.rows)
        .col("tenants", |r| r.tenants)
        .col("scheme", |r| r.scheme.clone())
        .col("commits", |r| r.commits)
        .col("batches", |r| r.batches)
        .col("grp %", |r| format!("{:.1}", r.grouped_pct))
        .col("p50 us", |r| format!("{:.2}", r.p50_us))
        .col("p99 us", |r| format!("{:.2}", r.p99_us))
        .col("worst p99", |r| format!("{:.2}", r.worst_tenant_p99_us))
        .col("commit/s", |r| format!("{:.0}", r.commits_per_sec));
    let mut out = format!(
        "Tenant sweep: pg/rocks/redis mix sharing one device \
         (seed {SEED}, knee at {KNEE_FACTOR}x single-tenant p99)\n\n{table}"
    );
    for scheme in [WalScheme::Ba, WalScheme::Block] {
        out += &match knee(&outcome.rows, scheme) {
            Some(n) => format!("\n{} knee: {n} tenants\n", scheme.label()),
            None => format!("\n{} knee: none within the sweep\n", scheme.label()),
        };
    }
    for row in &outcome.sharded {
        out += &format!(
            "\n{} sharded agreement: {} tenants x {} groups, shards {:?}, \
             drives [{}] all at digest {}\n",
            row.scheme,
            row.tenants,
            row.groups,
            row.shards,
            row.drives.join(", "),
            row.digest
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cell_is_deterministic() {
        assert_eq!(cell(4, WalScheme::Ba), cell(4, WalScheme::Ba));
    }

    #[test]
    fn sharded_placements_agree_for_every_scheme() {
        // Fleet scale runs in the study; the test pins the invariant at a
        // size debug builds can afford.
        for row in sharded(16, SHARDED_GROUPS) {
            assert_eq!(row.drives.len(), 4, "{}: drives", row.scheme);
            assert_eq!(row.shards, vec![4, 2], "{}: shards", row.scheme);
            assert!(row.completed > 0, "{}: no commits", row.scheme);
        }
    }

    #[test]
    fn sweep_shape_holds() {
        let rows = run();
        assert_eq!(rows.len(), TENANT_COUNTS.len() * 2);
        for &n in &TENANT_COUNTS {
            let ba = rows
                .iter()
                .find(|r| r.tenants == n && r.scheme == "ba")
                .unwrap();
            let block = rows
                .iter()
                .find(|r| r.tenants == n && r.scheme == "block")
                .unwrap();
            // The headline: BA-WAL's tail advantage survives sharing at
            // every tenant count.
            assert!(
                ba.p99_us < block.p99_us,
                "{n} tenants: ba p99 {} >= block p99 {}",
                ba.p99_us,
                block.p99_us
            );
            assert!(ba.p50_us < block.p50_us, "{n} tenants: p50");
            assert!(ba.commits > 0 && block.commits > 0);
        }
        // Contention grows the BA tail monotonically across the sweep.
        let ba_p99: Vec<f64> = TENANT_COUNTS
            .iter()
            .map(|&n| {
                rows.iter()
                    .find(|r| r.tenants == n && r.scheme == "ba")
                    .unwrap()
                    .p99_us
            })
            .collect();
        assert!(
            ba_p99.windows(2).all(|w| w[0] <= w[1]),
            "ba p99 not monotone: {ba_p99:?}"
        );
        // And the knee exists within the sweep for the byte path.
        assert!(knee(&rows, WalScheme::Ba).is_some(), "no ba knee: {rows:?}");
    }
}
