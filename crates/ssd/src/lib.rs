//! NVMe-like block SSD model with calibrated device profiles.
//!
//! This crate turns the functional NAND/FTL substrate into a *device*: a
//! block front end with firmware command processing on ARM-class cores,
//! per-die and per-channel scheduling, a capacitor-backed write cache that
//! completes writes at buffer insertion (as the paper's §V-B observes of
//! modern enterprise SSDs), a sequential read-ahead heuristic, flush
//! semantics, and power-loss behaviour.
//!
//! Two comparator profiles are calibrated to the paper's measurements:
//!
//! - [`SsdConfig::dc_ssd`] — the PM963-class datacenter TLC drive
//!   ("DC-SSD"): 4 KiB read ≈ 83 µs, write ≈ 17 µs.
//! - [`SsdConfig::ull_ssd`] — the Z-SSD-class ultra-low-latency drive
//!   ("ULL-SSD"): 4 KiB read ≈ 13.2 µs, write ≈ 10 µs, saturating
//!   PCIe Gen3 ×4 (~3.2 GB/s) at queue depth 1.
//! - [`SsdConfig::base_2b`] — the SSD the 2B-SSD prototype piggybacks on;
//!   identical block behaviour to ULL-SSD (paper §V-A) plus the internal
//!   datapath used by the BA-buffer.
//!
//! [`NvmeSsd`] fronts a device with NVMe-style submission/completion queue
//! pairs on the `twob-sim` event calendar, which is what models queue depths
//! above 1: firmware fetch, NAND access, and host transfer become chained
//! events that overlap across commands.
//!
//! # Example
//!
//! ```rust
//! use twob_sim::SimTime;
//! use twob_ftl::Lba;
//! use twob_ssd::{Ssd, SsdConfig};
//!
//! let mut ssd = Ssd::new(SsdConfig::ull_ssd().small());
//! let done = ssd.write(SimTime::ZERO, Lba(0), &vec![7u8; 4096])?;
//! let read = ssd.read(done, Lba(0), 1)?;
//! assert_eq!(read.data[0], 7);
//! # Ok::<(), twob_ssd::SsdError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod device;
mod error;
mod queue;
mod traits;

pub use config::{ErrorInjection, GcMode, SsdConfig};
pub use device::{BlockRead, Ssd, SsdStats};
pub use error::SsdError;
pub use queue::{NvmeCompletion, NvmeEvent, NvmeOp, NvmeSsd, QdReport, QueueConfig, QueueFull};
pub use traits::BlockDevice;
