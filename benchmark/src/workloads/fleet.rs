//! `fleet_chaos`: replicated fleets under correlated cuts and live moves.
//!
//! Seeded cluster fault plans, stretched to a fixed commit count per shard,
//! each run once with BA log slots and once with block slots. This is
//! `repl` + `wal::ShardWalHost` + one PDES shard per node with `NetLink`
//! lookahead — a second, different use of `sim::ShardedExecutor` from
//! `sharded_1024`.

use std::time::Instant;

use twob_faults::ClusterFaultPlan;
use twob_repl::{CommitPolicy, Fleet, FleetConfig, FleetReport, PlacementKind, ShipScheme};

use super::par_threads;
use crate::{mix, spans, Outcome, Scale, Values, Workload, FNV_BASIS};

/// Fault plans per repetition (each runs under both ship schemes).
const PLANS: u64 = 32;

/// Commits per shard. Kept at or below 128: block slots overflow their
/// 32 KiB region near 400 and BA followers hit `CursorLag` near 480, so
/// the workload scales by fleet count instead.
const COMMITS_PER_SHARD: u64 = 128;

/// How one fleet is driven.
#[derive(Clone, Copy)]
enum Drive {
    Sequential,
    Parallel(usize),
}

pub struct FleetChaos {
    /// One config per plan and scheme, BA first.
    cfgs: Vec<FleetConfig>,
    commits_per_shard: u64,
    /// The last repetition's reports, for the drive-agreement check.
    last: Vec<FleetReport>,
}

impl FleetChaos {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let plans = if scale.is_quick() { 3 } else { PLANS };
        let commits_per_shard = if scale.is_quick() {
            16
        } else {
            COMMITS_PER_SHARD
        };
        let mut cfgs = Vec::new();
        for i in 0..plans {
            let mut plan = ClusterFaultPlan::random(seed ^ (i << 17));
            // Stretch the plan: the cut and the move trigger keep their
            // place relative to the longer commit stream.
            let stretch = commits_per_shard / plan.commits_per_shard;
            plan.cut_delay_ns *= stretch;
            plan.shard_move = plan
                .shard_move
                .map(|(shard, after)| (shard, after * stretch));
            plan.commits_per_shard = commits_per_shard;
            for scheme in ShipScheme::ALL {
                cfgs.push(FleetConfig::from_plan(
                    &plan,
                    PlacementKind::Hash,
                    CommitPolicy::SemiSync(1),
                    scheme,
                ));
            }
        }
        FleetChaos {
            cfgs,
            commits_per_shard,
            last: Vec::new(),
        }
    }

    fn run_all(&self, drive: Drive) -> Vec<FleetReport> {
        self.cfgs
            .iter()
            .map(|cfg| {
                let fleet = spans::scope("repl.fleet_new", || Fleet::new(cfg.clone()))
                    .expect("a generated fleet config builds");
                let ba = cfg.scheme == ShipScheme::Ba;
                match drive {
                    Drive::Sequential if ba => spans::scope("repl.fleet_run_ba", || fleet.run()),
                    Drive::Sequential => spans::scope("repl.fleet_run_block", || fleet.run()),
                    Drive::Parallel(threads) => {
                        spans::scope("repl.fleet_run_parallel", || fleet.run_parallel(threads))
                    }
                }
            })
            .collect()
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values.get(values.len() / 2).copied().unwrap_or(0.0)
}

impl Workload for FleetChaos {
    fn sizes(&self) -> String {
        format!(
            "closed loop, one stream per shard, {} fault plans x {{ba, block}}, \
             {} commits/shard, hash placement, semisync(1); parallel drive on {} threads",
            self.cfgs.len() / 2,
            self.commits_per_shard,
            par_threads()
        )
    }

    fn rep(&mut self) -> Outcome {
        let reports = self.run_all(Drive::Sequential);
        let mut out = Outcome {
            digest: FNV_BASIS,
            ..Outcome::default()
        };
        let (mut ba_p50, mut ba_read, mut block_p50, mut block_read) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut ba_stream_rates = Vec::new();
        let (mut events, mut rounds, mut moves, mut wanted) = (0u64, 0u64, 0u64, 0u64);
        for (cfg, report) in self.cfgs.iter().zip(&reports) {
            out.ops += report.released + report.reads;
            out.failed += report.violations.len() as u64 + report.clamped_posts;
            for (shard, digest) in report.shard_digests.iter().enumerate() {
                out.digest = mix(out.digest, (shard as u64) << 48 ^ digest);
            }
            out.digest = mix(out.digest, report.released);
            for violation in &report.violations {
                out.errors.push(format!(
                    "{} fleet seed {:#x}: {violation}",
                    cfg.scheme, cfg.seed
                ));
            }
            if report.clamped_posts != 0 {
                out.errors
                    .push(format!("fleet seed {:#x}: clamped posts", cfg.seed));
            }
            events += report.processed;
            rounds += report.rounds;
            moves += cfg.moves.len() as u64;
            wanted += u64::from(cfg.shards) * cfg.commits_per_shard;
            out.virtual_secs += report.final_now.as_nanos() as f64 / 1e9;
            if cfg.scheme == ShipScheme::Ba {
                ba_p50.push(report.commit_p50_us);
                ba_read.push(report.read_p99_us);
                ba_stream_rates.push(
                    cfg.commits_per_shard as f64 / (report.final_now.as_nanos() as f64 / 1e9),
                );
            } else {
                block_p50.push(report.commit_p50_us);
                block_read.push(report.read_p99_us);
            }
        }
        // A commit whose primary died with the cut is never released: that
        // is the plan working, not an operation failing, so it is counted
        // apart from `failed` (guarantee violations).
        out.attempted = out.ops;
        let released: u64 = reports.iter().map(|r| r.released).sum();
        out.v.insert("commit_p50_vus", median(ba_p50));
        // `FleetReport` exposes no commit quantile above the median; the
        // tail a fleet's users see is the follower-read p99.
        out.v.insert("tail_p99_vus", median(ba_read));
        // What one closed-loop client gets when the cut spares its shard:
        // the stream's commits over the fleet's virtual span. (Commits the
        // cut does stop are `repl.unreleased`.)
        out.v.insert("model_ops_per_s", median(ba_stream_rates));
        out.v.insert("repl.v_read_p99_us", out.v["tail_p99_vus"]);
        out.v
            .insert("repl.v_block_commit_p50_us", median(block_p50));
        out.v.insert("repl.v_block_read_p99_us", median(block_read));
        out.v
            .insert("repl.events_per_release", events as f64 / released as f64);
        out.v
            .insert("repl.rounds_per_release", rounds as f64 / released as f64);
        out.v.insert("repl.moves", moves as f64);
        out.v.insert("repl.cuts", self.cfgs.len() as f64);
        out.v
            .insert("repl.unreleased", (wanted - released.min(wanted)) as f64);
        out.v.insert("repl.violations", out.errors.len() as f64);
        self.last = reports;
        out
    }

    /// `run_parallel` ≡ `run`: the parallel drive must return every fleet's
    /// report unchanged.
    fn verify(&mut self) -> Vec<String> {
        let sequential = std::mem::take(&mut self.last);
        if sequential.len() != self.cfgs.len() {
            return vec!["no repetition ran before the drive-agreement check".into()];
        }
        let parallel = self.run_all(Drive::Parallel(par_threads()));
        self.cfgs
            .iter()
            .zip(sequential.iter().zip(&parallel))
            .filter(|(_, (seq, par))| seq != par)
            .map(|(cfg, _)| {
                format!(
                    "{} fleet seed {:#x}: run_parallel diverged from run",
                    cfg.scheme, cfg.seed
                )
            })
            .collect()
    }

    fn traced_extras(&mut self, rep_secs: f64, out: &mut Values) {
        let start = Instant::now();
        std::hint::black_box(self.run_all(Drive::Parallel(par_threads())));
        out.insert(
            "repl.par_speedup_x",
            rep_secs / start.elapsed().as_secs_f64(),
        );
    }
}
