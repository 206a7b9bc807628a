//! The 2B-SSD: a dual, byte- and block-addressable solid-state drive.
//!
//! This crate is the paper's primary contribution, assembled from the
//! substrate crates:
//!
//! - The **BAR manager** opens BAR1 and programs an address translation
//!   unit so host MMIO lands in the BA-buffer (`twob-pcie`).
//! - The **BA-buffer manager** keeps an 8 MiB capacitor-backed region of
//!   the SSD-internal DRAM mapped onto NAND pages through a ≤8-entry
//!   mapping table, moving data over the device's internal datapath
//!   (`twob-ssd`'s internal path over `twob-ftl`/`twob-nand`).
//! - The **LBA checker** gates block writes to pinned ranges so the two
//!   I/O paths cannot silently diverge.
//! - The **read DMA engine** accelerates bulk reads out of the BA-buffer,
//!   which would otherwise crawl through 8-byte non-posted MMIO TLPs.
//! - The **recovery manager** dumps the BA-buffer and mapping table to a
//!   reserved NAND area on power loss — if the capacitors hold enough
//!   energy — and restores both at power-on.
//!
//! The host API mirrors the paper's §III-C: [`TwoBSsd::ba_pin`],
//! [`TwoBSsd::ba_flush`], [`TwoBSsd::ba_sync`], [`TwoBSsd::ba_entry_info`],
//! and [`TwoBSsd::ba_read_dma`], plus the MMIO byte path
//! ([`TwoBSsd::mmio_write`] / [`TwoBSsd::mmio_read`]) and the unchanged
//! NVMe block path (the [`twob_ssd::BlockDevice`] impl).
//!
//! Concurrent traffic on both paths is submitted as timestamped [`IoOp`]s
//! to an [`IoCalendar`] (or a die-placed [`ShardedIoCalendar`]). A queued
//! op owns what it carries until it is dispatched, so a block write carries
//! its payload as an `Arc<[u8]>`: many queued writes may share one page
//! image, and nothing below the calendar holds on to it.
//!
//! # Example
//!
//! ```rust
//! use twob_core::{EntryId, TwoBSsd, TwoBSpec};
//! use twob_ftl::Lba;
//! use twob_sim::SimTime;
//!
//! let mut dev = TwoBSsd::small_for_tests();
//! let now = SimTime::ZERO;
//! // Pin one page of LBA 0 into the BA-buffer at offset 0.
//! let pin = dev.ba_pin(now, EntryId(0), 0, Lba(0), 1)?;
//! // Append a log record through the byte path and make it durable.
//! let store = dev.mmio_write(pin.complete_at, EntryId(0), 0, b"log-record")?;
//! let sync = dev.ba_sync(store.retired_at, EntryId(0))?;
//! // Later, flush the page to NAND and release the entry.
//! dev.ba_flush(sync.complete_at, EntryId(0))?;
//! # Ok::<(), twob_core::TwoBError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod calendar;
mod device;
mod dma;
mod error;
mod mapping;
mod pin;
mod recovery;
mod sharded;
mod shared;
pub mod spec;

pub use buffer::BaBuffer;
pub use calendar::{IoCalendar, IoCompletion, IoOp};
pub use device::{
    ApiCompletion, MmioReadOutcome, MmioStoreOutcome, PermissionPolicy, TwoBSsd, TwoBStats,
};
pub use dma::ReadDmaEngine;
pub use error::TwoBError;
pub use mapping::{EntryId, MappingEntry, MappingTable};
pub use pin::{PinEntry, PinError, PinState, PinTable, RegionFrontEnd, TenantId};
pub use recovery::{DumpOutcome, RecoveryManager, RecoveryReport};
pub use sharded::{GroupPlacement, ShardedIoCalendar};
pub use shared::SharedTwoBSsd;
pub use spec::TwoBSpec;
