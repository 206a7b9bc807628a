//! Fault sweeps: the durability guarantees, one row per layer, at the
//! scale CI checks them.
//!
//! - **device** — [`twob_faults::sweep`]: power cuts, flush faults and
//!   NAND errors across every engine × commit scheme on one drive.
//!   Recovery must return every commit its scheme made durable, and a
//!   state equal to a golden re-run of that prefix.
//! - **failover** — [`twob_repl::failover_sweep`]: crash-failover plans on
//!   a replica set, every engine × ship scheme. No commit the client saw
//!   acknowledged may be lost, and the survivors must converge.
//! - **fleet** — [`twob_repl::fleet_sweep`]: node, rack and zone cuts and
//!   live shard moves on a fleet, every placement × commit policy. The
//!   same no-acked-loss guarantee, folded into one digest.
//!
//! A run records every violation instead of stopping at one. The gate is
//! the guarantee itself: no violation in any row, and commits
//! acknowledged in every row, so the check had something to check.

use std::fmt::Display;

use crate::registry::Verdict;

/// Device fault schedules.
pub const DEVICE_SCHEDULES: u64 = 216;
/// Seed of the device schedules.
pub const DEVICE_SEED: u64 = 7;
/// Replica-set failover plans.
pub const FAILOVER_PLANS: u64 = 54;
/// Fleet cut plans.
pub const FLEET_PLANS: u64 = 12;
/// Seed of the failover and fleet plans.
pub const REPL_SEED: u64 = 5;

/// The device row: crash recovery on one drive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceRow {
    /// Fault schedules run.
    pub schedules: u64,
    /// Seed every schedule derives from.
    pub seed: u64,
    /// Commits acknowledged across every schedule.
    pub acked: u64,
    /// Log records recovered across every schedule.
    pub recovered: u64,
    /// Schedules whose energy shortfall recovery detected and reported.
    pub detected_losses: u64,
    /// `[engine/scheme seed=S] detail` for every violation.
    pub violations: Vec<String>,
}

/// The failover row: a replica set losing its primary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverRow {
    /// Fault plans run.
    pub plans: u64,
    /// Seed every plan derives from.
    pub seed: u64,
    /// Commits acknowledged to clients across every plan.
    pub acked: u64,
    /// Survivors recovered and converged across every plan.
    pub survivors: u64,
    /// `[engine/scheme seed=S] detail` for every violation.
    pub violations: Vec<String>,
}

/// The fleet row: cuts and live moves across failure domains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetRow {
    /// Fault plans drawn.
    pub plans: u64,
    /// Seed every plan derives from.
    pub seed: u64,
    /// Fleet runs: every plan under every placement × commit policy.
    pub runs: u64,
    /// Commits released to clients across every run.
    pub acked: u64,
    /// Follower reads served across every run.
    pub reads: u64,
    /// Runs whose plan moved a shard live.
    pub moves: u64,
    /// Fold of every run's per-shard digests and counters.
    pub digest: String,
    /// Every violation, prefixed with the run it came from.
    pub violations: Vec<String>,
}

/// The three rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSweep {
    /// Crash recovery on one drive.
    pub device: DeviceRow,
    /// Failover of a replica set.
    pub failover: FailoverRow,
    /// Cuts and moves in a fleet.
    pub fleet: FleetRow,
}

/// `[engine/scheme seed=S] detail` per violation, as the library's
/// reports print them.
fn labelled<E: Display, S: Display>(violations: &[(E, S, u64, String)]) -> Vec<String> {
    violations
        .iter()
        .map(|(engine, scheme, seed, detail)| format!("[{engine}/{scheme} seed={seed}] {detail}"))
        .collect()
}

/// Runs the three sweeps.
pub fn run() -> FaultSweep {
    let device = twob_faults::sweep(DEVICE_SCHEDULES, DEVICE_SEED);
    let failover = twob_repl::failover_sweep(FAILOVER_PLANS, REPL_SEED);
    let fleet = twob_repl::fleet_sweep(FLEET_PLANS, REPL_SEED);
    FaultSweep {
        device: DeviceRow {
            schedules: device.schedules,
            seed: device.seed,
            acked: device.commits,
            recovered: device.recovered,
            detected_losses: device.detected_losses,
            violations: labelled(&device.violations),
        },
        failover: FailoverRow {
            plans: failover.plans,
            seed: failover.seed,
            acked: failover.acked_commits,
            survivors: failover.survivors,
            violations: labelled(&failover.violations),
        },
        fleet: FleetRow {
            plans: FLEET_PLANS,
            seed: REPL_SEED,
            runs: fleet.runs,
            acked: fleet.released,
            reads: fleet.reads,
            moves: fleet.moved,
            digest: format!("{:016x}", fleet.digest),
            violations: fleet.violations,
        },
    }
}

impl FaultSweep {
    /// Each row's name, acknowledged commits and violations.
    fn rows(&self) -> [(&'static str, u64, &[String]); 3] {
        [
            ("device", self.device.acked, &self.device.violations),
            ("failover", self.failover.acked, &self.failover.violations),
            ("fleet", self.fleet.acked, &self.fleet.violations),
        ]
    }
}

/// The gate: no row breaks its guarantee, and every row acknowledged
/// commits, so it checked something.
///
/// # Errors
///
/// The first row that does not hold, by name, with its first violation.
pub fn gate(sweep: &FaultSweep) -> Verdict {
    for (row, acked, violations) in sweep.rows() {
        if let Some(first) = violations.first() {
            return Err(format!(
                "{row}: {} violation(s), the first: {first}",
                violations.len()
            ));
        }
        if acked == 0 {
            return Err(format!("{row}: no commit acknowledged, nothing checked"));
        }
    }
    let acked = sweep.rows().map(|(row, acked, _)| format!("{row} {acked}"));
    Ok(format!(
        "fault gate passed: 0 violations, acknowledged commits {}",
        acked.join(", ")
    ))
}

/// One line per row, then one per violation.
pub(crate) fn render(sweep: &FaultSweep) -> String {
    let (device, failover, fleet) = (&sweep.device, &sweep.failover, &sweep.fleet);
    let mut out = format!(
        "Fault sweeps: every acknowledged commit survives\n\n\
         device    {} schedules (seed {}), engine x commit scheme: {} commits \
         acknowledged, {} records recovered, {} detected losses\n\
         failover  {} plans (seed {}), engine x ship scheme: {} commits \
         acknowledged, {} survivors converged\n\
         fleet     {} plans (seed {}), {} runs over placement x commit policy: \
         {} commits acknowledged, {} reads, {} moves, digest {}\n",
        device.schedules,
        device.seed,
        device.acked,
        device.recovered,
        device.detected_losses,
        failover.plans,
        failover.seed,
        failover.acked,
        failover.survivors,
        fleet.plans,
        fleet.seed,
        fleet.runs,
        fleet.acked,
        fleet.reads,
        fleet.moves,
        fleet.digest
    );
    for (row, _, violations) in sweep.rows() {
        out += &format!("{row} violations: {}\n", violations.len());
        for violation in violations {
            out += &format!("  {violation}\n");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_injected_violation_fails_the_gate_and_names_its_row() {
        let sweep = run();
        assert!(gate(&sweep).is_ok(), "{:?}", gate(&sweep));
        for row in ["device", "failover", "fleet"] {
            let mut doctored = sweep.clone();
            let violations = match row {
                "device" => &mut doctored.device.violations,
                "failover" => &mut doctored.failover.violations,
                _ => &mut doctored.fleet.violations,
            };
            violations.push("acknowledged commit 3 lost".into());
            let err = gate(&doctored).unwrap_err();
            assert_eq!(
                err,
                format!("{row}: 1 violation(s), the first: acknowledged commit 3 lost")
            );
            assert!(render(&doctored).contains(&format!(
                "{row} violations: 1\n  acknowledged commit 3 lost\n"
            )));
        }
        // A row that acknowledged nothing checked nothing.
        let mut idle = sweep;
        idle.failover.acked = 0;
        assert_eq!(
            gate(&idle).unwrap_err(),
            "failover: no commit acknowledged, nothing checked"
        );
    }
}
