//! The CXL.mem byte-path subsystem: front-end selection and hybrid
//! BA/CXL/block tiering over the 2B-SSD.
//!
//! The paper's byte path is PCIe BAR MMIO — the 2018 hardware reality.
//! This crate is the 2026 alternative and the placement layer it opens:
//!
//! - the **front-end** ([`CxlTimings`] prices for the one byte channel
//!   of `twob-pcie`, instantiated as [`CxlChannel`]; [`RegionFrontEnd`]
//!   selection in `twob-core`'s pin table): cache-line loads/stores
//!   against the same capacitor-backed BA buffer — direct device calls,
//!   like MMIO stores and loads — with an explicit persist barrier as
//!   the durability point, routed through the same [`IoCalendar`]
//!   (`IoOp::CxlPersist`) and contending on the same dies, channels, and
//!   DRAM as the MMIO/DMA ops;
//! - the **tier layer** ([`tier`]): treats BA-MMIO, CXL, and block NAND
//!   as a placement problem per region — the WAL tail stays pinned in
//!   the fast byte tier, cold segments demote to flash, and reads that
//!   keep hitting a cold segment promote it back, all as calendar-routed
//!   stages like GC and buffer dumps. The tail is not a writer of this
//!   crate's own: a [`TieredWal`] *contains* a `twob_wal::TenantBaWal`
//!   and hangs its policy on that writer's rotation hook and record
//!   locations, so the append path is the one every tenant WAL runs.
//!
//! [`IoCalendar`]: twob_core::IoCalendar
//!
//! # Example
//!
//! ```rust
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! use twob_core::{IoCalendar, PinTable, TenantId, TwoBSsd};
//! use twob_cxl::tier::{TierWalConfig, TieredWal};
//! use twob_sim::SimTime;
//!
//! let dev = Rc::new(RefCell::new(TwoBSsd::small_for_tests()));
//! let pins = Rc::new(RefCell::new(PinTable::new(dev.borrow().spec(), 1).unwrap()));
//! let cal = Rc::new(RefCell::new(IoCalendar::new()));
//! let mut wal =
//!     TieredWal::new(dev, cal, pins, TenantId(0), TierWalConfig::default()).unwrap();
//! let out = wal.append(SimTime::ZERO, b"hot tail record").unwrap();
//! let (bytes, _) = wal.read(out.commit_at, out.lsn).unwrap();
//! assert_eq!(bytes, b"hot tail record");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod tier;

pub use tier::{TierAction, TierPolicy, TierPolicyConfig, TierStats, TierWalConfig, TieredWal};
// The subsystem's face: the pieces hosted lower in the stack for
// dependency reasons, re-exported so tier users need only this crate.
pub use twob_core::RegionFrontEnd;
pub use twob_pcie::{CxlChannel, CxlTimings};
