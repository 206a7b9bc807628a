//! Miniature database engines for the 2B-SSD case study (paper §IV–V).
//!
//! The paper modifies the logging subsystems of PostgreSQL, RocksDB, and
//! Redis; everything else about those engines (SQL planning, compaction
//! heuristics, the Redis protocol) is irrelevant to Figs 9–10, which assume
//! all user data fits in DRAM and only WAL traffic reaches the log device.
//! These minis therefore reproduce exactly the structure the paper touches:
//!
//! - [`MiniPg`] — relational-style transactions over in-memory tables with
//!   an XLOG-like segmented WAL; the unit of commit is a multi-operation
//!   transaction (Linkbench's op mix).
//! - [`MiniRocks`] — an LSM store: memtable → immutable memtable → sorted
//!   runs, logging every write to its WAL before applying it, rotating the
//!   memtable/log pair when full (RocksDB's two-memtable design).
//! - [`MiniRedis`] — a single-threaded dictionary whose every write is
//!   appended to an AOF before the command completes.
//!
//! Each engine takes any [`WalWriter`], so the same workload runs over
//! conventional block WAL on DC-SSD/ULL-SSD (sync or async), BA-WAL on the
//! 2B-SSD, or PM-buffered WAL — the exact grid of Figs 9 and 10.
//! [`EngineKind`] names the three (labels, flag parsing, cost preset); the
//! workload, fault and replication layers all use this one enum.
//!
//! # Example
//!
//! ```rust
//! use twob_db::{EngineCosts, MiniRedis};
//! use twob_sim::SimTime;
//! use twob_ssd::{Ssd, SsdConfig};
//! use twob_wal::{BlockWal, CommitMode, WalConfig};
//!
//! let wal = BlockWal::new(
//!     Ssd::new(SsdConfig::ull_ssd().small()),
//!     WalConfig::default(),
//!     CommitMode::Sync,
//! )?;
//! let mut redis = MiniRedis::new(Box::new(wal), EngineCosts::redis());
//! let done = redis.set(SimTime::ZERO, b"k".to_vec(), b"v".to_vec())?;
//! assert_eq!(redis.get(done.commit_at, b"k").1.as_deref(), Some(&b"v"[..]));
//! # Ok::<(), twob_db::DbError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod costs;
mod error;
mod kind;
mod kvcodec;
mod minipg;
mod miniredis;
mod minirocks;

pub use costs::EngineCosts;
pub use error::DbError;
pub use kind::EngineKind;
pub use minipg::{MiniPg, PgOp, PgSnapshot, TxnOutcome};
pub use miniredis::MiniRedis;
pub use minirocks::MiniRocks;

// Re-exported so workload drivers need only this crate.
pub use twob_wal::WalWriter;
