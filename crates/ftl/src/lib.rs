//! Page-mapped flash translation layer (FTL).
//!
//! NAND flash forbids in-place update (see `twob-nand`), so every SSD runs a
//! translation layer that redirects logical block addresses (LBAs) to
//! wherever the freshest copy of the data was last programmed, reclaims
//! blocks full of stale pages with garbage collection (GC), and spreads
//! erases across blocks. The 2B-SSD paper's write-amplification argument
//! (§IV-A: one NAND write per *full* log page under BA-WAL versus one per
//! *commit* under block WAL) is only demonstrable with a real FTL that
//! counts physical programs — this crate is that FTL.
//!
//! Design choices:
//!
//! - **Page-mapped**: a full LBA→PPA table, as in enterprise NVMe drives,
//!   allocated in chunks as LBAs are first written. The reverse map is
//!   chunked the same way by flat page, and valid counts are indexed by
//!   flat block: no FTL metadata is hashed.
//! - **Per-die write frontiers**: consecutive writes stripe across dies so
//!   programs overlap, which is what gives SSDs their bandwidth.
//! - **Greedy GC**: victim = fewest valid pages; kicks in when the free
//!   block pool drops below a watermark.
//! - **Wear-aware allocation**: free blocks are taken lowest-erase-count
//!   first, a simple but effective static wear-leveling policy.
//! - **Stale pages hold no bytes**: a page invalidated by an overwrite, a
//!   GC relocation or a trim is released in the NAND array at once, so the
//!   array holds exactly one image per mapped LBA
//!   (`nand().resident_pages() == stats().mapped_lbas`); the block keeps
//!   the page as programmed until GC erases it, and reading it would be
//!   `NandError::ReadReleased` — an FTL bug by construction.
//!
//! # Example
//!
//! ```rust
//! use twob_ftl::{FtlConfig, Lba, PageMappedFtl};
//! use twob_nand::{FlashClass, NandArray, NandGeometry};
//!
//! let geom = NandGeometry::small_test();
//! let nand = NandArray::new(geom, FlashClass::LowLatencySlc.timing());
//! let mut ftl = PageMappedFtl::new(nand, FtlConfig::default());
//! let page = vec![0x5A; 4096];
//! ftl.write(Lba(3), &page)?;
//! assert_eq!(ftl.read(Lba(3))?.data, page);
//! # Ok::<(), twob_ftl::FtlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod ftl;
mod stats;

pub use config::FtlConfig;
pub use error::FtlError;
pub use ftl::{DieId, FtlIo, FtlOpKind, GcJob, GcStepResult, Lba, PageMappedFtl};
pub use stats::FtlStats;
