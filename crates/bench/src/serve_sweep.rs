//! Serve sweep: the knee — maximum sustainable offered load at a fixed
//! p99 SLO — for BA-WAL vs block-WAL commits.
//!
//! The paper's §V numbers are closed-loop: each client waits for its
//! previous commit, so offered load self-throttles to whatever the device
//! sustains and the tail never sees a backlog. A serving system is
//! open-loop — arrivals come from the outside world at a rate the device
//! does not control — so the question that matters is different: *how much
//! offered load can the device accept before the commit tail breaks the
//! SLO or admission control starts shedding?* That crossover is the knee.
//!
//! The sweep climbs an offered-load ladder ([`RATES`], per tenant, Poisson
//! arrivals over [`TENANTS`] tenants) under both commit schemes on the
//! serving stack's [`ServiceDriver`]:
//!
//! - **ba** — each admitted commit is a byte-addressable store into the
//!   tenant's pinned BA-buffer window, durable at DRAM speed;
//! - **block** — each admitted commit is a 4 KiB page write plus flush on
//!   the same chassis's block path.
//!
//! The knee for a scheme is the highest rung whose run both met the
//! [`SLO_P99_US`] tail bound and shed nothing. BA's knee must sit at or
//! above block's — the paper's latency gap, restated as sustainable
//! serving capacity — and CI enforces exactly that via the study's
//! [`gate`] (`twob serve_sweep --gate`).
//!
//! A second section re-runs one rung at fleet scale on the sharded device
//! model ([`SHARDED_TENANTS`] tenants across [`SHARDED_GROUPS`] die-group
//! shards) under every drive — lock-step, adaptive round-batched, and the
//! parallel thread sweep — demanding one identical completion digest from
//! all of them ([`sharded_agreement`]).

use serde::{Deserialize, Serialize};

use crate::Table;
use twob_workloads::{
    ArrivalConfig, ArrivalKind, ServeConfig, ServeReport, ServiceDriver, WalScheme,
};

/// Tenants offering load in the flat (single-device) ladder.
pub const TENANTS: u16 = 64;

/// The offered-load ladder, in commits per second per tenant.
pub const RATES: [u64; 5] = [5_000, 10_000, 20_000, 40_000, 80_000];

/// The p99 commit-latency SLO, µs. Tight on purpose: commits on this
/// model complete in single-digit microseconds until the device backs up,
/// and a bound between the BA store (~0.1 µs) and the block write+flush
/// tail (~3–4.4 µs under load) is what lets the knee *separate* the
/// schemes rather than collapse onto the admission cap.
pub const SLO_P99_US: f64 = 4.0;

/// Seed shared by every cell, so schemes see identical arrival streams.
pub const SEED: u64 = 61;

/// Tenants in the fleet-scale sharded-agreement run.
pub const SHARDED_TENANTS: u16 = 1024;

/// Die-group shards the fleet is placed across.
pub const SHARDED_GROUPS: usize = 8;

/// Per-tenant offered rate of the sharded-agreement run.
pub const SHARDED_RATE: u64 = 20_000;

/// One `(scheme, offered rate)` rung of the ladder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeRow {
    /// Scheme label (`"ba"` or `"block"`).
    pub scheme: String,
    /// Offered rate, commits per second per tenant.
    pub rate_per_tenant: u64,
    /// Arrivals the processes offered over the horizon.
    pub offered: u64,
    /// Arrivals admission control accepted.
    pub admitted: u64,
    /// Admitted arrivals that waited for a later window.
    pub deferred: u64,
    /// Arrivals rejected (queue-depth plus BA-buffer triggers).
    pub shed: u64,
    /// Median commit latency, µs.
    pub p50_us: f64,
    /// 99th-percentile commit latency, µs.
    pub p99_us: f64,
    /// 99.9th-percentile commit latency, µs.
    pub p999_us: f64,
    /// Admitted throughput actually served, commits per second.
    pub admitted_ops_per_sec: f64,
    /// Whether the rung sustained the SLO: p99 within bound, zero shed.
    pub slo_ok: bool,
}

/// The serving configuration of one rung.
fn config(tenants: u16, scheme: WalScheme, rate: u64) -> ServeConfig {
    let mut cfg = ServeConfig::standard(
        tenants,
        scheme,
        ArrivalConfig::new(ArrivalKind::Poisson, rate as f64, SEED),
    );
    cfg.slo_p99_us = SLO_P99_US;
    cfg
}

/// Reduces a [`ServeReport`] to the sweep's row shape.
fn row_of(rate: u64, report: &ServeReport) -> ServeRow {
    assert_eq!(report.clamped_posts, 0, "serve rung clamped posts");
    ServeRow {
        scheme: report.scheme.clone(),
        rate_per_tenant: rate,
        offered: report.offered,
        admitted: report.admitted,
        deferred: report.deferred,
        shed: report.shed_queue + report.shed_buffer,
        p50_us: report.p50_us,
        p99_us: report.p99_us,
        p999_us: report.p999_us,
        admitted_ops_per_sec: report.admitted_ops_per_sec,
        slo_ok: report.slo_ok,
    }
}

/// Runs one rung of the ladder on a fresh device.
pub fn cell(scheme: WalScheme, rate: u64) -> ServeRow {
    row_of(rate, &ServiceDriver::serve(&config(TENANTS, scheme, rate)))
}

/// Runs the full ladder: both schemes at every offered rate.
pub fn run() -> Vec<ServeRow> {
    let mut rows = Vec::new();
    for &rate in &RATES {
        for scheme in [WalScheme::Ba, WalScheme::Block] {
            rows.push(cell(scheme, rate));
        }
    }
    rows
}

/// The knee for `scheme`: the highest offered rate whose rung sustained
/// the SLO (p99 within bound, nothing shed), if any rung did.
pub fn knee(rows: &[ServeRow], scheme: WalScheme) -> Option<u64> {
    rows.iter()
        .filter(|r| r.scheme == scheme.label() && r.slo_ok)
        .map(|r| r.rate_per_tenant)
        .max()
}

/// The sharded-agreement outcome: every drive of the sharded device model
/// served the same fleet to the same completion digest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedAgreement {
    /// Fleet size.
    pub tenants: u16,
    /// Die-group shards.
    pub groups: usize,
    /// Drive labels that agreed (lock-step, adaptive, parallel sweep).
    pub drives: Vec<String>,
    /// The completion digest every drive produced, hex.
    pub digest: String,
    /// Commits completed (identical across drives).
    pub completed: u64,
    /// Commits shed by admission control (identical across drives).
    pub shed: u64,
}

/// Serves one BA rung at fleet scale under every sharded drive and
/// demands identical reports from all of them.
///
/// # Panics
///
/// Panics if any drive diverges from the lock-step baseline — on the
/// digest, or on any other report field — or clamps a post into the past.
/// Either is a determinism bug in the sharded executor, not a measurement.
pub fn sharded_agreement(tenants: u16, groups: usize, rate: u64) -> ShardedAgreement {
    let cfg = config(tenants, WalScheme::Ba, rate);
    let (drives, base) = crate::sharded_agreement(&cfg, groups, &[groups]);
    ShardedAgreement {
        tenants,
        groups,
        drives,
        digest: format!("{:016x}", base.digest),
        completed: base.completed,
        shed: base.shed_queue + base.shed_buffer,
    }
}

/// Everything the study determined, all of it deterministic: the shape of
/// the `json:` line and of its golden fixture.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Outcome {
    /// Tenants offering load in the ladder.
    pub tenants: u16,
    /// The p99 SLO, µs.
    pub slo_p99_us: f64,
    /// The ladder.
    pub rows: Vec<ServeRow>,
    /// BA's knee, commits per second per tenant.
    pub ba_knee: Option<u64>,
    /// Block's knee.
    pub block_knee: Option<u64>,
    /// The fleet-scale drive agreement.
    pub sharded: ShardedAgreement,
}

/// Runs the whole study: the ladder, both knees, and the sharded
/// agreement at [`SHARDED_TENANTS`] tenants.
pub fn outcome() -> Outcome {
    let rows = run();
    Outcome {
        tenants: TENANTS,
        slo_p99_us: SLO_P99_US,
        ba_knee: knee(&rows, WalScheme::Ba),
        block_knee: knee(&rows, WalScheme::Block),
        rows,
        sharded: sharded_agreement(SHARDED_TENANTS, SHARDED_GROUPS, SHARDED_RATE),
    }
}

/// The serving gate: the BA knee must sit at or above the block knee
/// (the sharded drives already agreed, or [`outcome`] would have
/// panicked). Returns the pass summary.
///
/// # Errors
///
/// Returns the violated condition.
pub fn gate(outcome: &Outcome) -> Result<String, String> {
    let ba = outcome.ba_knee.ok_or("ba sustained no rung at all")?;
    let block = outcome.block_knee.ok_or("block sustained no rung at all")?;
    if ba < block {
        return Err(format!(
            "ba knee {ba} ops/s/tenant fell below block knee {block}"
        ));
    }
    Ok(format!(
        "serve gate passed: ba knee {ba} >= block knee {block} ops/s/tenant, \
         {} sharded drives digest-equal at {} tenants",
        outcome.sharded.drives.len(),
        outcome.sharded.tenants
    ))
}

/// Renders the ladder, the knees and the sharded-agreement line.
pub(crate) fn render(outcome: &Outcome) -> String {
    let table = Table::new(&outcome.rows)
        .col("scheme", |r| r.scheme.clone())
        .col("rate/t", |r| r.rate_per_tenant)
        .col("offered", |r| r.offered)
        .col("admitted", |r| r.admitted)
        .col("deferred", |r| r.deferred)
        .col("shed", |r| r.shed)
        .col("p50 us", |r| format!("{:.2}", r.p50_us))
        .col("p99 us", |r| format!("{:.2}", r.p99_us))
        .col("p999 us", |r| format!("{:.2}", r.p999_us))
        .col("slo", |r| if r.slo_ok { "met" } else { "MISSED" });
    let show = |k: Option<u64>| k.map_or("none".to_string(), |r| format!("{r} ops/s/tenant"));
    format!(
        "Serve sweep: {} tenants, Poisson arrivals, p99 SLO {} us\n\n{table}\n\
         knee (max sustainable offered load): ba {}, block {}\n\
         sharded agreement: {} tenants x {} groups, drives [{}] all at digest {}\n",
        outcome.tenants,
        outcome.slo_p99_us,
        show(outcome.ba_knee),
        show(outcome.block_knee),
        outcome.sharded.tenants,
        outcome.sharded.groups,
        outcome.sharded.drives.join(", "),
        outcome.sharded.digest
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_rung_is_deterministic() {
        assert_eq!(cell(WalScheme::Ba, RATES[2]), cell(WalScheme::Ba, RATES[2]));
    }

    #[test]
    fn ladder_shape_holds() {
        let rows = run();
        assert_eq!(rows.len(), RATES.len() * 2);
        // Light load sustains the SLO on both paths; the heaviest rung
        // breaks it on both (it sits at the admission cap and sheds).
        for scheme in [WalScheme::Ba, WalScheme::Block] {
            let of = |rate: u64| {
                rows.iter()
                    .find(|r| r.scheme == scheme.label() && r.rate_per_tenant == rate)
                    .unwrap()
                    .clone()
            };
            assert!(of(RATES[0]).slo_ok, "{} light rung", scheme.label());
            assert!(!of(RATES[4]).slo_ok, "{} overload rung", scheme.label());
            assert!(of(RATES[4]).shed > 0, "{} overload sheds", scheme.label());
        }
        // The headline: byte-addressable commits sustain at least the
        // block path's offered load, strictly more on this ladder.
        let ba = knee(&rows, WalScheme::Ba).expect("ba knee");
        let block = knee(&rows, WalScheme::Block).expect("block knee");
        assert!(ba > block, "ba knee {ba} should beat block knee {block}");
    }

    #[test]
    fn gate_fails_when_the_ba_knee_falls_below_block() {
        let mut doctored = Outcome {
            tenants: TENANTS,
            slo_p99_us: SLO_P99_US,
            rows: Vec::new(),
            ba_knee: Some(40_000),
            block_knee: Some(20_000),
            sharded: sharded_agreement(4, 2, SHARDED_RATE),
        };
        assert!(gate(&doctored)
            .unwrap()
            .contains("40000 >= block knee 20000"));
        doctored.ba_knee = Some(10_000);
        let violation = gate(&doctored).unwrap_err();
        assert!(
            violation.contains("fell below block knee 20000"),
            "{violation}"
        );
        doctored.ba_knee = None;
        assert!(gate(&doctored).is_err());
    }

    #[test]
    fn sharded_drives_agree_at_test_scale() {
        // Fleet-scale (1024 tenants) runs in the study; the test pins the
        // same invariant at a size debug builds can afford.
        let agreement = sharded_agreement(64, SHARDED_GROUPS, SHARDED_RATE);
        assert_eq!(agreement.drives.len(), 4);
        assert!(agreement.completed > 0);
    }
}
