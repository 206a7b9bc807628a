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

use twob_faults::{check_log_prefix, throwaway_wal, Engine, EngineKind, ReplFaultPlan};
use twob_sim::Executor;

use crate::config::{CommitPolicy, ReplConfig};
use crate::link::{NetLinkConfig, T0};
use crate::set::{ReplicaSet, RESTART_DELAY};
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
    loop {
        let more = exec.step(&mut |ex, t, ev| set.handle(ex, t, ev));
        if set.cut_at.is_some() {
            break;
        }
        if !more {
            report.violations.push(format!(
                "protocol stalled after {} of {} commits",
                set.issued, plan.commits
            ));
            report.violations.extend(set.violations.clone());
            return report;
        }
    }
    let cut_at = set.cut_at.expect("phase A fixes the cut");
    // Phase B: let everything scheduled up to the cut land — ship batches,
    // acks, releases. Later events die with the primary.
    exec.run_until(cut_at, |ex, t, ev| set.handle(ex, t, ev));
    report.violations.extend(set.violations.clone());
    report.acked_commits = set.released;

    // The cut: the primary is gone for good (no recovery attempted), and
    // every survivor is power-cycled so its ack durability promise is
    // tested against the simulated medium.
    let _ = set
        .primary_log
        .power_cycle_and_recover(cut_at, cut_at + RESTART_DELAY, &set.wal_cfg);
    let recover_at = cut_at + RESTART_DELAY;
    let mut recovered: Vec<(usize, Vec<twob_wal::LogRecord>)> = Vec::new();
    for (r, rep) in set.replicas.iter().enumerate() {
        if !rep.link.is_up() {
            continue;
        }
        let records = match rep
            .log
            .power_cycle_and_recover(cut_at, recover_at, &set.wal_cfg)
        {
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
    if recovered.is_empty() {
        report
            .violations
            .push("no survivor available for promotion".into());
        return report;
    }

    // Promote the most caught-up survivor (tie → lowest index).
    let (promoted, promoted_prefix) = recovered
        .iter()
        .max_by(|(ra, a), (rb, b)| a.len().cmp(&b.len()).then(rb.cmp(ra)))
        .map(|(r, prefix)| (*r, prefix.clone()))
        .expect("non-empty");
    report.promoted = Some(promoted);
    report.promoted_prefix = promoted_prefix.len() as u64;

    // Guarantee 1: no acknowledged transaction is lost.
    if report.acked_commits > promoted_prefix.len() as u64 {
        report.violations.push(format!(
            "acknowledged commits lost: client saw {} released, promoted \
             survivor {promoted} recovered only {}",
            report.acked_commits,
            promoted_prefix.len()
        ));
    }

    // Guarantee 2: every survivor's recovered log is a byte-identical
    // prefix of the promoted log, and after catch-up every survivor's
    // engine state digest matches — and matches a golden re-run.
    let mut digests = Vec::new();
    for (r, prefix) in &recovered {
        for (i, rec) in prefix.iter().enumerate() {
            if rec != &promoted_prefix[i] {
                report.violations.push(format!(
                    "survivor {r} diverges from promoted {promoted} at lsn:{i}"
                ));
                break;
            }
        }
        let mut rebuilt = Engine::build(engine, throwaway_wal());
        if let Err(e) = rebuilt.apply_records(prefix) {
            report
                .violations
                .push(format!("survivor {r} replay failed: {e:?}"));
            continue;
        }
        // Catch-up shipping from the new primary.
        if let Err(e) = rebuilt.apply_records(&promoted_prefix[prefix.len()..]) {
            report
                .violations
                .push(format!("survivor {r} catch-up failed: {e:?}"));
            continue;
        }
        digests.push((*r, rebuilt.state_digest()));
    }
    if let Some(&(_, first)) = digests.first() {
        for &(r, d) in &digests {
            if d != first {
                report.violations.push(format!(
                    "survivor {r} digest {d:#018x} diverges after catch-up ({first:#018x})"
                ));
            }
        }
        // Golden: re-running the same op-stream prefix on a fresh engine
        // must land on the same state.
        let mut golden = Engine::build(engine, throwaway_wal());
        let mut t = T0;
        for idx in 0..promoted_prefix.len() {
            match golden.commit(t, &set.workload, idx) {
                Ok(out) => t = out.commit_at,
                Err(e) => {
                    report
                        .violations
                        .push(format!("golden re-run failed at {idx}: {e:?}"));
                    return report;
                }
            }
        }
        if first != golden.state_digest() {
            report.violations.push(format!(
                "converged digest {first:#018x} diverges from golden re-run \
                 of {} commits ({:#018x})",
                promoted_prefix.len(),
                golden.state_digest()
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
    let combos: Vec<(EngineKind, ShipScheme)> = EngineKind::ALL
        .iter()
        .flat_map(|&e| ShipScheme::ALL.iter().map(move |&s| (e, s)))
        .collect();
    for i in 0..plans {
        let (engine, scheme) = combos[(i % combos.len() as u64) as usize];
        let plan_seed = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(i.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let plan = ReplFaultPlan::random(plan_seed);
        let run = run_failover(engine, scheme, &plan);
        report.acked_commits += run.acked_commits;
        report.survivors += run.survivors as u64;
        for v in run.violations {
            report.violations.push((engine, scheme, plan_seed, v));
        }
    }
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
