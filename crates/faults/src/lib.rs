//! Deterministic fault injection and crash consistency for the 2B-SSD stack.
//!
//! The paper's durability story (§III-D) rests on three promises: the
//! capacitor-backed BA-buffer survives power loss, the mapping table
//! round-trips through the recovery dump, and every acknowledged commit —
//! block-WAL fsync, `BA_FLUSH`+`BA_SYNC`, or PM store — is recoverable.
//! This crate turns those promises into machine-checked invariants.
//!
//! A [`FaultPlan`] schedules faults at arbitrary [`twob_sim::SimTime`]
//! points: a power cut that loses in-flight PCIe writes and triggers the
//! capacitor dump (optionally with an injected energy-budget shortfall),
//! NAND transient read errors, and dropped or duplicated flush completions.
//! [`run_schedule`] drives one of the mini database engines through a
//! seeded workload, executes the plan, restarts the stack, and checks:
//!
//! - every acknowledged-durable commit is recovered;
//! - the recovered log is prefix-consistent (no holes before the torn
//!   tail);
//! - the FTL mapping table round-trips;
//! - the BA-buffer dump/restore is byte-identical;
//! - replaying the recovered records reproduces the exact state of a
//!   golden re-run.
//!
//! [`sweep`] scales this to hundreds of schedules across every engine ×
//! scheme combination, reproducible from a single `(count, seed)` pair;
//! the `fault_sweep` study runs it at 216 schedules, seed 7.
//!
//! The checks after a cut are written once, for this harness and for the
//! replication layer's failover and fleet: [`CutWal::recover`] reads a WAL
//! back, [`golden_rerun`] compares recovered state with a golden re-run,
//! [`promote`] is the promotion rule of a replicated log, and
//! [`for_each_plan`] is the seeded loop every sweep runs.
//!
//! [`EngineKind`] is `twob_db`'s, re-exported. [`Engine`] and [`Workload`]
//! are this crate's own: an index-addressed, write-only commit stream (LSN
//! *n* is stream index *n*), which is what recovery checks need and not
//! what the closed-loop `twob_workloads::EngineSession` provides.

#![warn(missing_docs)]

mod device;
mod harness;
mod plan;
mod recovery;

pub use device::{FaultyLogDevice, FlushFaults};
pub use harness::{
    run_schedule, sweep, Engine, ScheduleReport, SchemeKind, SweepReport, Workload, RESTART_DELAY,
    T0,
};
pub use plan::{ClusterFaultPlan, CutScope, FaultPlan, FlushFault, ReplFaultPlan, ShipFault};
pub use recovery::{
    check_log_prefix, for_each_plan, golden_rerun, promote, throwaway_wal, CutWal, GoldenMiss,
    Promotion,
};
pub use twob_db::EngineKind;

use proptest::prelude::*;

/// A proptest strategy over random fault plans, for property tests that
/// throw arbitrary schedules at the harness:
///
/// ```rust
/// use proptest::prelude::*;
/// use twob_faults::{plan_strategy, run_schedule, EngineKind, SchemeKind};
///
/// proptest! {
///     #![proptest_config(ProptestConfig { cases: 2, ..ProptestConfig::default() })]
///     fn any_plan_passes(plan in plan_strategy()) {
///         let report = run_schedule(EngineKind::Redis, SchemeKind::Ba, &plan);
///         prop_assert!(report.passed(), "{:?}", report.violations);
///     }
/// }
/// any_plan_passes();
/// ```
pub fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    any::<u64>().prop_map(FaultPlan::random)
}
