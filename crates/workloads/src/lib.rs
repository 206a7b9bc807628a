//! Workload generators for the 2B-SSD evaluation (paper §V).
//!
//! - [`LinkbenchWorkload`] — a social-graph transaction mix patterned on
//!   Facebook's Linkbench, which the paper runs against PostgreSQL:
//!   read-intensive with about 30 % writes, dominated by link-list reads.
//! - [`YcsbWorkload`] — the Yahoo! Cloud Serving Benchmark with Zipfian
//!   key popularity; Workload A (50 % reads / 50 % updates) is what the
//!   paper runs against RocksDB and Redis, sweeping the payload size.
//! - [`fio`] — the request-size ladders of the FIO-like microbenchmarks
//!   behind Figs 7 and 8.
//! - [`mod@trace`] — a block-trace parser and replayer for driving devices
//!   with preprocessed FIU/MSR-style traces.
//! - [`ChurnWorkload`] — seeded overwrite churn (uniform or 80/20 skewed)
//!   that drains the free-block pool and keeps GC busy; the stimulus for
//!   the `gc_interference` study.
//! - [`ClientPool`] — the one slot scheduler: each simulated client (or
//!   queue-depth slot) carries its own clock, the pool always dispatches
//!   the farthest-behind one, and shared device queues emerge naturally in
//!   the engine's busy-until resources.
//! - [`EngineSession`] — the Fig 9 pairing, written once: an engine over
//!   any `WalWriter`, the workload the paper runs against it (PostgreSQL +
//!   Linkbench, RocksDB + YCSB-A, Redis + YCSB-A), its client rule (Redis
//!   runs one) and the load-then-closed-loop run over a [`ClientPool`].
//!   [`EngineKind`] is `twob_db`'s, re-exported.
//! - [`mod@arrival`] — the open-loop arrival layer: seeded Poisson, bursty
//!   (MMPP-style on/off), and diurnal-trace processes offering load that
//!   does not self-throttle to the device.
//! - [`ServiceDriver`] — the owner of every calendar-driven loop: open-loop
//!   serving with admission control and SLO tracking
//!   ([`ServiceDriver::serve`], [`ServiceDriver::serve_sharded`]), the
//!   multi-tenant session mode ([`ServiceDriver::run_sessions`]) and the
//!   NVMe queue-pair mode ([`ServiceDriver::run_nvme`]).
//! - [`TenantPool`] — the multi-tenant generalization of the paper's §V
//!   co-location: N [`EngineSession`]s (a pg/rocks/redis mix), each with
//!   its own group committer and log window, contending on one shared
//!   2B-SSD; state only, driven by [`ServiceDriver::run_sessions`].
//!
//! # Example
//!
//! ```rust
//! use twob_sim::SimRng;
//! use twob_workloads::{YcsbConfig, YcsbOp, YcsbWorkload};
//!
//! let mut rng = SimRng::seed_from(1);
//! let mut ycsb = YcsbWorkload::new(YcsbConfig::workload_a(1_000, 256));
//! match ycsb.next_op(&mut rng) {
//!     YcsbOp::Read { key } => assert!(key.starts_with(b"user")),
//!     YcsbOp::Update { key, value } => {
//!         assert!(key.starts_with(b"user"));
//!         assert_eq!(value.len(), 256);
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
mod churn;
mod executor;
pub mod fio;
pub mod gen;
mod linkbench;
mod serve;
mod session;
mod tenant;
pub mod trace;
mod ycsb;

pub use arrival::{ArrivalConfig, ArrivalKind, ArrivalProcess};
pub use churn::{ChurnConfig, ChurnWorkload};
pub use executor::ClientPool;
pub use linkbench::{LinkbenchConfig, LinkbenchWorkload};
pub use serve::{AdmissionPlan, AdmittedOp, ServeConfig, ServeReport, ServiceDriver, ShardDrive};
pub use session::EngineSession;
pub use tenant::{TenantOutcome, TenantPool, TenantPoolConfig, TenantReport, WalScheme};
pub use trace::{parse_trace, replay_trace, TraceOp, TraceParseError, TraceReplayReport};
pub use twob_db::EngineKind;
pub use ycsb::{YcsbConfig, YcsbOp, YcsbWorkload};
