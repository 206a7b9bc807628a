//! Deterministic virtual-time simulation kernel for the 2B-SSD reproduction.
//!
//! Every latency in the reproduction is *computed in virtual time* rather
//! than measured on the wall clock, which makes all figures deterministic and
//! CI-stable. This crate provides the shared building blocks:
//!
//! - [`SimTime`] / [`SimDuration`]: nanosecond-resolution virtual timestamps
//!   and spans, as distinct newtypes so instants and spans cannot be mixed up.
//! - [`EventQueue`] / [`Executor`]: the discrete-event kernel — a calendar
//!   queue ([`WheelQueue`]) with slab event storage, keyed by `SimTime` with
//!   FIFO tie-breaking by insertion sequence, and an executor that drains it
//!   deterministically. The original binary-heap calendar survives only
//!   in the hidden `oracle` module, for the differential tests to name.
//! - [`ShardedExecutor`]: conservative parallel discrete-event execution
//!   across sharded time domains (dies, channels, replica nodes) with
//!   byte-identical sequential/parallel firing order.
//! - [`Server`] / [`MultiServer`]: FIFO queuing resources (NAND channels,
//!   firmware cores, the PCIe link). An operation arriving at `t` with
//!   service time `s` completes at `max(t, free_at) + s`, computed in closed
//!   form on the hot path and pinned against the event-driven reference
//!   (also in `oracle`) by proptests.
//! - [`Histogram`]: exact-sample latency statistics with percentiles.
//! - [`SimRng`] and [`Zipfian`]: seeded, reproducible randomness for
//!   workload generation.
//! - [`TraceRing`]: a bounded ring of trace events for debugging datapaths.
//!
//! # Example
//!
//! ```rust
//! use twob_sim::{Server, SimDuration, SimTime};
//!
//! let mut channel = Server::new();
//! // Two 5 us transfers arriving together on one channel queue up.
//! let first = channel.schedule(SimTime::ZERO, SimDuration::from_micros(5));
//! let second = channel.schedule(SimTime::ZERO, SimDuration::from_micros(5));
//! assert_eq!(second.start, first.end);
//! assert_eq!(second.end.as_nanos(), 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc;
mod event;
#[doc(hidden)]
pub mod oracle;
mod resource;
mod rng;
mod shard;
mod span;
mod stats;
mod time;
mod trace;
mod wheel;

pub use crc::{crc32, crc32_update, fnv1a64, fnv1a64_update, mix, mix_bytes, FNV_BASIS};
pub use event::{Calendar, EventQueue, Executor};
pub use resource::{MultiServer, ScheduledSpan, Server};
pub use rng::{SimRng, Zipfian};
pub use shard::{ShardCtx, ShardedExecutor};
pub use span::LatencyBreakdown;
pub use stats::Histogram;
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEvent, TraceRing};
pub use wheel::WheelQueue;
