//! The open-loop serving workloads: `serve_byte`, `serve_block` (one
//! offered-load ladder on `ServiceDriver::serve`, opposite device paths)
//! and `sharded_1024` (the same byte-path ops through the sharded device
//! model, so PDES cost is isolated by difference).
//!
//! Arrivals are planned in virtual time, so the generator is never late,
//! and latency is measured from the original arrival, so deferral is
//! already inside it.

use std::time::Instant;

use twob_sim::SimDuration;
use twob_workloads::{
    ArrivalConfig, ArrivalKind, ServeConfig, ServeReport, ServiceDriver, ShardDrive, WalScheme,
};

use super::par_threads;
use crate::{mix, spans, Outcome, Scale, Values, Workload, FNV_BASIS};

/// Tenants offering load in the ladder.
pub const TENANTS: u16 = 64;

/// Offered load per tenant, commits/s. Admission lets 8 commits per tenant
/// into each 100 µs window, so the share of deferred commits is ≈ 0 at
/// 20k, ≈ 0.1 % at 30k, ≈ 3 % at 50k, and the 80k rung sits on the cap and
/// sheds. 40k is deliberately absent: ≈ 1 % of its commits defer, which
/// puts its p99 on a cliff that flips between 0.074 µs and several µs from
/// one seed to the next.
pub const RATES: [u64; 4] = [20_000, 30_000, 50_000, 80_000];

/// The rung latency and model throughput are quoted at: loaded enough
/// that p99 and p999 lie inside the deferral tail, not loaded enough to
/// shed.
pub const REFERENCE_RUNG: usize = 2;

/// p99 bound a rung must meet (with nothing shed) to count toward the knee.
pub const SLO_P99_US: f64 = 4.0;

const BYTE_HORIZON_US: u64 = 110_000;
const BLOCK_HORIZON_US: u64 = 28_000;

const SHARDED_TENANTS: u16 = 1024;
const SHARDED_GROUPS: usize = 8;
const SHARDED_RATE: u64 = 50_000;
const SHARDED_HORIZON_US: u64 = 16_000;

fn config(tenants: u16, scheme: WalScheme, rate: u64, horizon_us: u64, seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::standard(
        tenants,
        scheme,
        ArrivalConfig::new(ArrivalKind::Poisson, rate as f64, seed),
    );
    cfg.slo_p99_us = SLO_P99_US;
    cfg.horizon = SimDuration::from_micros(horizon_us);
    cfg
}

/// Folds one served rung into the outcome, running the serve output
/// checks: everything admitted completed, nothing errored, no event was
/// clamped into the past.
fn account(out: &mut Outcome, label: &str, report: &ServeReport) {
    out.ops += report.completed;
    out.attempted += report.admitted;
    out.failed += report.errors + report.admitted.saturating_sub(report.completed);
    out.digest = mix(mix(out.digest, report.digest), report.completed);
    *out.v.entry("workloads.deferred").or_default() += report.deferred as f64;
    *out.v.entry("workloads.shed_queue").or_default() += report.shed_queue as f64;
    *out.v.entry("workloads.shed_buffer").or_default() += report.shed_buffer as f64;
    if report.completed != report.admitted {
        out.errors.push(format!(
            "{label}: completed {} != admitted {}",
            report.completed, report.admitted
        ));
    }
    if report.errors != 0 {
        out.errors
            .push(format!("{label}: {} errors", report.errors));
    }
    if report.clamped_posts != 0 {
        out.errors
            .push(format!("{label}: {} clamped posts", report.clamped_posts));
    }
}

/// Latency and model throughput of the rung they are quoted at.
fn quote(out: &mut Outcome, report: &ServeReport) {
    out.v.insert("commit_p50_vus", report.p50_us);
    out.v.insert("tail_p99_vus", report.p99_us);
    out.v.insert("model_ops_per_s", report.admitted_ops_per_sec);
    out.v.insert("workloads.v_commit_p999_us", report.p999_us);
}

/// Times `ServiceDriver::plan` alone over `cfgs` (serving re-plans
/// internally; this pass exists to size planning's share of a repetition).
fn plan_share_pct(cfgs: &[ServeConfig], groups: usize, rep_secs: f64) -> f64 {
    let start = Instant::now();
    for cfg in cfgs {
        let per_group = cfg.tenants / groups as u16;
        let budget = ServiceDriver::group_spec(per_group).ba_buffer_bytes;
        let plan = spans::scope("workloads.plan", || {
            ServiceDriver::plan(cfg, groups, budget)
        });
        std::hint::black_box(plan.admitted.len());
    }
    100.0 * start.elapsed().as_secs_f64() / rep_secs
}

/// `serve_byte` / `serve_block`: the ladder on one device.
pub struct Ladder {
    cfgs: Vec<ServeConfig>,
}

impl Ladder {
    pub fn byte(seed: u64, scale: Scale) -> Self {
        Self::new(WalScheme::Ba, scale.of(BYTE_HORIZON_US, 1_000), seed)
    }

    pub fn block(seed: u64, scale: Scale) -> Self {
        Self::new(WalScheme::Block, scale.of(BLOCK_HORIZON_US, 400), seed)
    }

    fn new(scheme: WalScheme, horizon_us: u64, seed: u64) -> Self {
        Ladder {
            cfgs: RATES
                .iter()
                .map(|&rate| config(TENANTS, scheme, rate, horizon_us, seed))
                .collect(),
        }
    }
}

impl Workload for Ladder {
    fn sizes(&self) -> String {
        format!(
            "open loop, Poisson, {TENANTS} tenants, ladder {RATES:?} commits/s/tenant, \
             {} B, horizon {} us, scheme {}, slo_p99 {SLO_P99_US} us, reference rung {}",
            self.cfgs[0].payload_bytes,
            self.cfgs[0].horizon.as_nanos() / 1_000,
            self.cfgs[0].scheme.label(),
            RATES[REFERENCE_RUNG]
        )
    }

    fn rep(&mut self) -> Outcome {
        let mut out = Outcome {
            digest: FNV_BASIS,
            ..Outcome::default()
        };
        let mut knee = 0u64;
        for (rung, cfg) in self.cfgs.iter().enumerate() {
            let report = spans::scope("workloads.serve", || ServiceDriver::serve(cfg));
            account(&mut out, &format!("rung {}", RATES[rung]), &report);
            if report.slo_ok {
                knee = knee.max(RATES[rung]);
            }
            if rung == REFERENCE_RUNG {
                quote(&mut out, &report);
            }
            out.virtual_secs += cfg.horizon.as_secs_f64();
        }
        out.v.insert(
            "workloads.knee_ops_per_s",
            (knee * u64::from(TENANTS)) as f64,
        );
        out
    }

    fn traced_extras(&mut self, rep_secs: f64, out: &mut Values) {
        out.insert(
            "workloads.plan_share_pct",
            plan_share_pct(&self.cfgs, 1, rep_secs),
        );
    }
}

/// `sharded_1024`: one rung at fleet scale on `ShardedIoCalendar`.
pub struct Sharded {
    cfg: ServeConfig,
    /// The last repetition's report, for the drive-agreement check.
    last: Option<ServeReport>,
}

impl Sharded {
    pub fn new(seed: u64, scale: Scale) -> Self {
        Sharded {
            cfg: config(
                SHARDED_TENANTS,
                WalScheme::Ba,
                SHARDED_RATE,
                scale.of(SHARDED_HORIZON_US, 400),
                seed,
            ),
            last: None,
        }
    }

    fn serve(&self, drive: ShardDrive) -> ServeReport {
        spans::scope("workloads.serve_sharded", || {
            ServiceDriver::serve_sharded(&self.cfg, SHARDED_GROUPS, drive)
        })
    }
}

impl Workload for Sharded {
    fn sizes(&self) -> String {
        format!(
            "open loop, Poisson, {SHARDED_TENANTS} tenants x {SHARDED_GROUPS} die groups, \
             {SHARDED_RATE} commits/s/tenant, {} B, horizon {} us, adaptive drive; \
             parallel drive on {} threads",
            self.cfg.payload_bytes,
            self.cfg.horizon.as_nanos() / 1_000,
            par_threads()
        )
    }

    fn rep(&mut self) -> Outcome {
        let mut out = Outcome {
            digest: FNV_BASIS,
            ..Outcome::default()
        };
        let report = self.serve(ShardDrive::Adaptive);
        account(&mut out, "adaptive", &report);
        quote(&mut out, &report);
        out.virtual_secs = self.cfg.horizon.as_secs_f64();
        self.last = Some(report);
        out
    }

    /// Lock-step ≡ adaptive ≡ parallel: every drive must return the same
    /// report, field for field.
    fn verify(&mut self) -> Vec<String> {
        let Some(adaptive) = self.last.take() else {
            return vec!["no repetition ran before the drive-agreement check".into()];
        };
        [ShardDrive::Lockstep, ShardDrive::Parallel(par_threads())]
            .into_iter()
            .filter(|&drive| self.serve(drive) != adaptive)
            .map(|drive| format!("{} drive diverged from adaptive", drive.label()))
            .collect()
    }

    fn traced_extras(&mut self, rep_secs: f64, out: &mut Values) {
        out.insert(
            "workloads.plan_share_pct",
            plan_share_pct(std::slice::from_ref(&self.cfg), SHARDED_GROUPS, rep_secs),
        );
        let mut secs: Vec<f64> = (0..3)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(self.serve(ShardDrive::Parallel(par_threads())));
                start.elapsed().as_secs_f64()
            })
            .collect();
        secs.sort_by(f64::total_cmp);
        out.insert("workloads.sharded_par_speedup_x", rep_secs / secs[1]);
    }
}
