//! Write-ahead logging schemes for the 2B-SSD case study (paper §IV).
//!
//! WAL's performance problem is *small frequent writes*: a commit record is
//! usually far smaller than a page, yet block devices force page-aligned
//! writes followed by `fsync`, so the same log page is rewritten over and
//! over while transactions wait on the device. This crate implements the
//! three logging schemes the paper compares:
//!
//! - [`BlockWal`] — conventional WAL over any block device, with
//!   *synchronous* (durable before commit) and *asynchronous* (commit
//!   first, risk window until the page write lands) modes (paper Fig 5,
//!   left).
//! - [`BaWal`] — the paper's BA-WAL (§IV-B): log records are appended
//!   straight into the 2B-SSD's BA-buffer with `memcpy`-grade MMIO stores,
//!   committed with `BA_SYNC` (durable at DRAM-like latency), and flushed
//!   to NAND a *full segment half at a time* via `BA_FLUSH`, double-buffered
//!   so flushing overlaps logging.
//! - [`PmWal`] — the heterogeneous-memory comparator (paper Fig 10): a
//!   battery-backed DRAM buffer on the memory bus absorbs commits, and a
//!   background path lazily writes filled halves through the block I/O
//!   stack to a log device.
//!
//! All three produce identical on-media record streams ([`LogRecord`] with
//! CRC-32 torn-write detection), so [`replay`] can audit any of them.
//!
//! The same schemes over a *shared* device: [`TenantBaWal`] and
//! [`TenantBlockWal`] log one tenant's records into its share of a 2B-SSD
//! every tenant contends on (durability traffic routed through a shared
//! `IoCalendar`), and [`ShardWalHost`] multiplexes many shard logs over one
//! owned device for a cluster node.
//!
//! [`GroupCommit`] wraps any of the writers with an asynchronous completion
//! path: concurrent committers submit and receive tickets, batches close on
//! an event-calendar deadline, and one durability point covers the whole
//! group.
//!
//! # One log core
//!
//! The writers are thin: each algorithm lives once, in the private
//! `logcore` module. The byte-window log (store, sync exactly the appended
//! bytes, flush a full window and re-pin it at the next segment; one or two
//! windows) is generic over a *port* that says how a window reaches its
//! device — direct calls ([`BaWal`]), an owned pin table ([`ShardWalHost`]),
//! or a shared pin table with calendar-routed sync and flush
//! ([`TenantBaWal`]). The page-image log (stage, rewrite each touched page,
//! flush) takes a "write this page" closure ([`BlockWal`],
//! [`TenantBlockWal`]). `append_commit` is the one-record case of
//! `append_batch` on all of them, and one region scan serves [`replay`] and
//! every tail read. [`PmWal`] and [`ShardWalHost`]'s block mode are
//! different algorithms and keep their own appends. The byte-window log
//! reports where each record landed ([`RecordLoc`]) and offers a hook
//! between a rotation's flush and its re-pin
//! ([`TenantBaWal::append_commit_with`]), which is all the tier layer in
//! `twob-cxl` needs to build on it. See DESIGN §5, "One log core".
//!
//! # Example
//!
//! ```rust
//! use twob_ssd::{Ssd, SsdConfig};
//! use twob_sim::SimTime;
//! use twob_wal::{BlockWal, CommitMode, WalConfig, WalWriter};
//!
//! let ssd = Ssd::new(SsdConfig::ull_ssd().small());
//! let mut wal = BlockWal::new(ssd, WalConfig::default(), CommitMode::Sync)?;
//! let outcome = wal.append_commit(SimTime::ZERO, b"INSERT tuple 42")?;
//! assert_eq!(Some(outcome.commit_at), outcome.durable_at);
//! # Ok::<(), twob_wal::WalError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ba;
mod block;
mod config;
mod cursor;
mod error;
mod group;
mod host;
mod logcore;
mod pm;
mod record;
mod replay;
mod stats;
mod tenant;
mod traits;

pub use ba::BaWal;
pub use block::BlockWal;
pub use config::{CommitMode, WalConfig};
pub use cursor::{CursorBatch, LogCursor, WalTail};
pub use error::WalError;
pub use group::{GroupCommit, GroupOutcome};
pub use host::{HostConfig, HostMode, ShardWalHost};
pub use logcore::{run_op, RecordLoc};
pub use pm::PmWal;
pub use record::{LogRecord, Lsn};
pub use replay::{decode_stream, replay, ReplayOutcome};
pub use stats::WalStats;
pub use tenant::{SharedCalendar, SharedDevice, SharedPins, TenantBaWal, TenantBlockWal};
pub use traits::{CommitOutcome, WalWriter};
