//! Crash-failover: cut the primary mid-protocol, promote the most
//! caught-up survivor, and prove the quorum guarantee.
//!
//! The guarantee under `SemiSync(k)`: with at most `k − 1` simultaneous
//! failures besides the primary's own crash (partitioned replicas, dropped
//! or duplicated ship batches), **no acknowledged transaction is lost and
//! every surviving replica converges to identical engine state**. The
//! argument is pigeonhole: a released commit holds durable-apply acks from
//! `k` distinct replicas, at most `k − 1` of which can be partitioned away,
//! so at least one survivor carries it — and the most caught-up survivor
//! carries everything any survivor carries, because all replicas apply the
//! same dense record stream.
//!
//! [`run_failover`] executes one plan and checks exactly that, recovering
//! each survivor through a full power cycle of its own simulated device (so
//! the acks' durability promise is tested against the medium, not against
//! live memory). [`failover_sweep`] aggregates a seeded fleet of plans
//! across every engine and ship scheme.

use std::fmt;

use twob_faults::{
    check_log_prefix, for_each_plan, golden_rerun, promote, throwaway_wal, Engine, EngineKind,
    GoldenMiss, ReplFaultPlan, RESTART_DELAY, T0,
};
use twob_sim::Executor;
use twob_wal::LogRecord;

use crate::config::{CommitPolicy, ReplConfig};
use crate::link::NetLinkConfig;
use crate::set::ReplicaSet;
use crate::ShipScheme;

use crate::set::Ev;

/// Outcome of one failover run.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// Engine every node ran.
    pub engine: EngineKind,
    /// WAL/ship scheme every node used.
    pub scheme: ShipScheme,
    /// The plan that was executed.
    pub plan: ReplFaultPlan,
    /// Commits the client saw acknowledged before the cut.
    pub acked_commits: u64,
    /// Replicas still connected at the cut (promotion candidates).
    pub survivors: usize,
    /// Index of the promoted replica.
    pub promoted: Option<usize>,
    /// Length of the promoted replica's recovered log prefix.
    pub promoted_prefix: u64,
    /// Invariant violations; empty on a clean pass.
    pub violations: Vec<String>,
}

impl FailoverReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs one replication fault plan end to end: drive commits under
/// `SemiSync(plan.quorum)`, cut the primary mid-protocol, power-cycle and
/// recover every survivor, promote, and verify the guarantee.
pub fn run_failover(
    engine: EngineKind,
    scheme: ShipScheme,
    plan: &ReplFaultPlan,
) -> FailoverReport {
    let mut report = FailoverReport {
        engine,
        scheme,
        plan: plan.clone(),
        acked_commits: 0,
        survivors: 0,
        promoted: None,
        promoted_prefix: 0,
        violations: Vec::new(),
    };
    let cfg = ReplConfig {
        engine,
        scheme,
        policy: CommitPolicy::SemiSync(plan.quorum),
        replicas: plan.replicas,
        link: NetLinkConfig::default(),
        seed: plan.seed,
        commits: plan.commits,
    };
    let mut set = match ReplicaSet::new(cfg) {
        Ok(set) => set.with_plan(plan.clone()),
        Err(e) => {
            report.violations.push(format!("setup failed: {e:?}"));
            return report;
        }
    };

    let mut exec: Executor<Ev> = Executor::new();
    exec.post(T0, Ev::Issue);
    // Phase A: run until the last commit is issued (which fixes the cut
    // instant) or the calendar drains (a stall — itself a violation).
    let cut_at = loop {
        let more = exec.step(&mut |ex, t, ev| set.handle(ex, t, ev));
        if let Some(cut_at) = set.cut_at {
            break cut_at;
        }
        if !more {
            report.violations.push(format!(
                "protocol stalled after {} of {} commits",
                set.issued, plan.commits
            ));
            report.violations.extend(set.violations.clone());
            return report;
        }
    };
    // Phase B: let everything scheduled up to the cut land — ship batches,
    // acks, releases. Later events die with the primary.
    exec.run_until(cut_at, |ex, t, ev| set.handle(ex, t, ev));
    report.violations.extend(set.violations.clone());
    report.acked_commits = set.released;

    // The cut: the primary is gone for good, and every survivor is
    // power-cycled so its ack durability promise is tested against the
    // simulated medium.
    let recover_at = cut_at + RESTART_DELAY;
    let mut recovered: Vec<(usize, Vec<LogRecord>)> = Vec::new();
    for (r, rep) in set.replicas.iter().enumerate() {
        if !rep.link.is_up() {
            continue;
        }
        let records = match rep.log.recover(cut_at, recover_at) {
            Ok(records) => records,
            Err(e) => {
                report
                    .violations
                    .push(format!("survivor {r} recovery failed: {e}"));
                continue;
            }
        };
        match check_log_prefix(&records) {
            Ok(prefix) => recovered.push((r, prefix)),
            Err(e) => report
                .violations
                .push(format!("survivor {r} log inconsistent: {e}")),
        }
    }
    report.survivors = recovered.len();

    // Promote the most caught-up survivor (tie → lowest index).
    let Some(promotion) = promote(recovered.iter().map(|(r, log)| (*r, &log[..]))) else {
        report
            .violations
            .push("no survivor available for promotion".into());
        return report;
    };
    let (promoted, log) = (promotion.leader, promotion.log);
    report.promoted = Some(promoted);
    report.promoted_prefix = log.len() as u64;

    // Guarantee 1: no acknowledged transaction is lost.
    if report.acked_commits > log.len() as u64 {
        report.violations.push(format!(
            "acknowledged commits lost: client saw {} released, promoted \
             survivor {promoted} recovered only {}",
            report.acked_commits,
            log.len()
        ));
    }

    // Guarantee 2: every survivor's recovered log is a byte-identical
    // prefix of the promoted log...
    for &(r, at) in &promotion.diverged {
        report.violations.push(format!(
            "survivor {r} diverges from promoted {promoted} at lsn:{at}"
        ));
    }
    // ...the promoted log replays to the state of a golden re-run of the
    // same op-stream prefix...
    let converged = match golden_rerun(engine, &set.workload, log) {
        Ok(digest) => digest,
        Err(GoldenMiss::Apply(e)) => {
            report
                .violations
                .push(format!("survivor {promoted} replay failed: {e:?}"));
            return report;
        }
        Err(GoldenMiss::Rerun(idx, e)) => {
            report
                .violations
                .push(format!("golden re-run failed at {idx}: {e:?}"));
            return report;
        }
        Err(GoldenMiss::Diverged { recovered, golden }) => {
            report.violations.push(format!(
                "converged digest {recovered:#018x} diverges from golden re-run \
                 of {} commits ({golden:#018x})",
                log.len()
            ));
            recovered
        }
    };
    // ...and after catch-up every survivor's engine lands on that state.
    for (r, prefix) in &recovered {
        let mut rebuilt = Engine::build(engine, throwaway_wal());
        if let Err(e) = rebuilt.apply_records(prefix) {
            report
                .violations
                .push(format!("survivor {r} replay failed: {e:?}"));
            continue;
        }
        // Catch-up shipping from the new primary.
        if let Err(e) = rebuilt.apply_records(&log[prefix.len()..]) {
            report
                .violations
                .push(format!("survivor {r} catch-up failed: {e:?}"));
            continue;
        }
        let d = rebuilt.state_digest();
        if d != converged {
            report.violations.push(format!(
                "survivor {r} digest {d:#018x} diverges after catch-up ({converged:#018x})"
            ));
        }
    }
    report
}

/// Aggregate outcome of a failover sweep.
#[derive(Debug, Clone)]
pub struct ReplSweepReport {
    /// Plans executed.
    pub plans: u64,
    /// Base seed per-plan seeds derive from.
    pub seed: u64,
    /// Client-acknowledged commits across all plans.
    pub acked_commits: u64,
    /// Survivors recovered and converged across all plans.
    pub survivors: u64,
    /// `(engine, scheme, plan seed, detail)` for every violation.
    pub violations: Vec<(EngineKind, ShipScheme, u64, String)>,
}

impl ReplSweepReport {
    /// Whether the whole sweep passed.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for ReplSweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "failover sweep: {} plans (seed {}) over {} engines x {} schemes",
            self.plans,
            self.seed,
            EngineKind::ALL.len(),
            ShipScheme::ALL.len()
        )?;
        writeln!(
            f,
            "  commits acknowledged: {}  survivors converged: {}",
            self.acked_commits, self.survivors
        )?;
        if self.violations.is_empty() {
            write!(f, "  guarantee violations: 0")
        } else {
            writeln!(f, "  guarantee violations: {}", self.violations.len())?;
            for (engine, scheme, seed, detail) in &self.violations {
                writeln!(f, "    [{engine}/{scheme} seed={seed}] {detail}")?;
            }
            Ok(())
        }
    }
}

/// Runs `plans` seeded [`ReplFaultPlan`]s, cycling every engine × ship
/// scheme combination. The same `(plans, seed)` always yields the same
/// report.
pub fn failover_sweep(plans: u64, seed: u64) -> ReplSweepReport {
    let mut report = ReplSweepReport {
        plans,
        seed,
        acked_commits: 0,
        survivors: 0,
        violations: Vec::new(),
    };
    for_each_plan(
        plans,
        seed,
        &ShipScheme::ALL,
        |engine, scheme, plan_seed| {
            let run = run_failover(engine, scheme, &ReplFaultPlan::random(plan_seed));
            report.acked_commits += run.acked_commits;
            report.survivors += run.survivors as u64;
            for v in run.violations {
                report.violations.push((engine, scheme, plan_seed, v));
            }
        },
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_combo_survives_one_plan() {
        let plan = ReplFaultPlan::random(11);
        for engine in EngineKind::ALL {
            for scheme in ShipScheme::ALL {
                let report = run_failover(engine, scheme, &plan);
                assert!(
                    report.passed(),
                    "{engine}/{scheme}: {:?}",
                    report.violations
                );
                assert!(report.survivors >= plan.quorum - plan.partitioned.len());
                assert!(report.promoted_prefix >= report.acked_commits);
            }
        }
    }

    #[test]
    fn partitioned_replicas_never_get_promoted() {
        // Find a seed whose plan actually partitions someone.
        let plan = (0..200u64)
            .map(ReplFaultPlan::random)
            .find(|p| !p.partitioned.is_empty())
            .expect("some plan partitions a replica");
        let report = run_failover(EngineKind::Rocks, ShipScheme::Ba, &plan);
        assert!(report.passed(), "{:?}", report.violations);
        let promoted = report.promoted.expect("promotion happened");
        assert!(
            !plan.partitioned.iter().any(|&(r, _)| r == promoted),
            "promoted a partitioned replica"
        );
        assert_eq!(report.survivors, plan.replicas - plan.partitioned.len());
    }

    #[test]
    fn failover_is_deterministic() {
        let plan = ReplFaultPlan::random(29);
        let a = run_failover(EngineKind::Pg, ShipScheme::Block, &plan);
        let b = run_failover(EngineKind::Pg, ShipScheme::Block, &plan);
        assert_eq!(a.acked_commits, b.acked_commits);
        assert_eq!(a.promoted, b.promoted);
        assert_eq!(a.promoted_prefix, b.promoted_prefix);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn acceptance_sweep_holds_the_guarantee() {
        // The acceptance bar: >= 50 seeded plans over primary power cuts,
        // partitions, and dropped/duplicated/delayed ship batches, across
        // all three engines and both ship schemes — zero acknowledged-
        // transaction loss, byte-identical convergence everywhere.
        let report = failover_sweep(54, 5);
        assert!(report.passed(), "{report}");
        assert!(report.acked_commits > 0);
        let again = failover_sweep(54, 5);
        assert_eq!(report.acked_commits, again.acked_commits);
        assert_eq!(report.survivors, again.survivors);
    }
}
