//! Replicated log shipping over simulated 2B-SSDs (beyond the paper).
//!
//! The 2B-SSD paper's BA-WAL makes a *single node's* commit path fast; this
//! crate asks the natural systems question the paper leaves open: what does
//! that buy a *replicated* deployment, where commit latency is governed by
//! log shipping and quorum acknowledgement rather than by local flushes?
//!
//! A [`ReplicaSet`] wires one primary and N replicas — each with its own
//! simulated SSD and WAL — through seeded deterministic [`NetLink`]s, all
//! scheduled on the `twob-sim` event executor so network propagation, NAND
//! programs, and capacitor-backed BA syncs interleave on one virtual clock.
//! The primary's WAL tail is re-read through the `twob-wal` cursor path
//! (`BA_READ_DMA` out of the pinned window, or block reads of the log
//! region) and shipped cumulatively; [`CommitPolicy`] decides when the
//! client sees a commit: at local durability (`Async`), after `k` replica
//! acks (`SemiSync(k)`), or after all of them (`Sync`).
//!
//! [`run_failover`] crashes the primary mid-protocol under a
//! `twob-faults` [`ReplFaultPlan`](twob_faults::ReplFaultPlan) — power cut
//! between commit and ack, partitioned replicas, dropped/duplicated/delayed
//! ship batches — recovers every survivor through a real power cycle of its
//! device, promotes the most caught-up one, and checks the quorum
//! guarantee: under `SemiSync(k)` with at most `k − 1` simultaneous
//! failures, no acknowledged transaction is lost and all survivors converge
//! to byte-identical engine state.
//!
//! A [`Fleet`] is the second engine: many replica sets on a fleet of nodes,
//! every node its own PDES time domain, with failure-domain placement,
//! live shard moves and correlated power cuts over clean links (a 1-shard
//! fleet is a single replica set on per-node shards). `DESIGN.md` §9
//! records why the two are not one.
//!
//! # Example
//!
//! ```rust
//! use twob_repl::{ReplConfig, ReplicaSet};
//!
//! let cfg = ReplConfig {
//!     commits: 20,
//!     ..ReplConfig::default()
//! };
//! let report = ReplicaSet::new(cfg)?.run_steady();
//! assert!(report.passed(), "{:?}", report.violations);
//! assert_eq!(report.released, 20);
//! # Ok::<(), twob_wal::WalError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod failover;
mod fleet;
mod link;
mod placement;
mod set;

pub use config::{CommitPolicy, ReplConfig, ShipScheme};
pub use failover::{failover_sweep, run_failover, FailoverReport, ReplSweepReport};
pub use fleet::{
    fleet_sweep, joint_rule, release_rule, rule_met, Fleet, FleetConfig, FleetCut, FleetReport,
    FleetSweepReport, RuleClause, ShardMove,
};
pub use link::{NetLink, NetLinkConfig};
pub use placement::{ClusterMap, DomainLayout, PlacementKind};
pub use set::{ReplicaSet, SteadyReport};
