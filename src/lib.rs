//! # twob — a reproduction of *2B-SSD* (ISCA 2018)
//!
//! This facade crate re-exports every layer of the reproduction of
//! *2B-SSD: The Case for Dual, Byte- and Block-Addressable Solid-State
//! Drives* (Bae et al., ISCA 2018) so that downstream users can depend on a
//! single crate.
//!
//! The layers, bottom-up:
//!
//! - [`sim`] — deterministic virtual-time kernel.
//! - [`nand`] — NAND flash array model (functional + timing).
//! - [`ftl`] — page-mapped flash translation layer.
//! - [`ssd`] — NVMe-like block SSD with DC-SSD / ULL-SSD profiles.
//! - [`pcie`] — PCIe link, MMIO semantics, and the host CPU ordering model.
//! - [`core`] — the 2B-SSD itself: BA-buffer, LBA checker, read-DMA engine,
//!   recovery manager, and the `BA_*` API.
//! - [`cxl`] — the CXL.mem byte front-end's hot/cold tiering layer:
//!   per-region heat tracking and calendar-routed promotion/demotion
//!   between the byte tiers and block NAND.
//! - [`wal`] — write-ahead logging schemes (Block-WAL, BA-WAL, PM-WAL).
//! - [`db`] — miniature PostgreSQL/RocksDB/Redis-style engines.
//! - [`workloads`] — Linkbench-like, YCSB, and FIO-like drivers.
//! - [`faults`] — deterministic fault injection and the crash-consistency
//!   harness (power cuts, flush faults, NAND errors, recovery invariants).
//! - [`repl`] — replicated log shipping over simulated 2B-SSDs: quorum
//!   commit, deterministic network faults, and crash-failover guarantees.
//!
//! # Quickstart
//!
//! ```rust
//! use twob::core::{EntryId, TwoBSsd};
//! use twob::ftl::Lba;
//! use twob::sim::SimTime;
//!
//! let mut dev = TwoBSsd::small_for_tests();
//! // Pin one 4 KiB page of LBA 0 into the BA-buffer, write a few bytes
//! // through the byte path, make them durable, and flush to NAND.
//! let now = SimTime::ZERO;
//! let pin = dev.ba_pin(now, EntryId(0), 0, Lba(0), 1)?;
//! let store = dev.mmio_write(pin.complete_at, EntryId(0), 0, b"hello, byte world")?;
//! let sync = dev.ba_sync(store.retired_at, EntryId(0))?;
//! dev.ba_flush(sync.complete_at, EntryId(0))?;
//! # Ok::<(), twob::core::TwoBError>(())
//! ```

pub use twob_core as core;
pub use twob_cxl as cxl;
pub use twob_db as db;
pub use twob_faults as faults;
pub use twob_ftl as ftl;
pub use twob_nand as nand;
pub use twob_pcie as pcie;
pub use twob_repl as repl;
pub use twob_sim as sim;
pub use twob_ssd as ssd;
pub use twob_wal as wal;
pub use twob_workloads as workloads;
