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
//! scheme combination, reproducible from a single `(count, seed)` pair —
//! also exposed as `twob faults sweep --cuts N --seed S` on the CLI.
//!
//! [`EngineKind`] is `twob_db`'s, re-exported. [`Engine`] and [`Workload`]
//! are this crate's own: an index-addressed, write-only commit stream (LSN
//! *n* is stream index *n*), which is what recovery checks need and not
//! what the closed-loop `twob_workloads::EngineSession` provides.

#![warn(missing_docs)]

mod device;
mod harness;
mod plan;

pub use device::{FaultyLogDevice, FlushFaults, SharedWal};
pub use harness::{
    check_log_prefix, run_schedule, sweep, throwaway_wal, Engine, ScheduleReport, SchemeKind,
    SweepReport, Workload,
};
pub use plan::{ClusterFaultPlan, CutScope, FaultPlan, FlushFault, ReplFaultPlan, ShipFault};
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
