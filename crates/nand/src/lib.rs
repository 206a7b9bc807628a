//! Functional and timing model of a NAND flash array.
//!
//! The 2B-SSD paper's results rest on three physical properties of NAND
//! flash, all of which this crate enforces rather than merely parameterizes:
//!
//! 1. **Page-granular programming**: the smallest write unit is a page
//!    (4 KiB here), which is why conventional WAL must write a whole page per
//!    commit even for a 100-byte log record.
//! 2. **Erase-before-program and sequential in-block programming**: a page
//!    cannot be rewritten until its whole block is erased, and pages within a
//!    block must be programmed in order — the constraints that force an FTL
//!    and create write amplification.
//! 3. **Read/program latency asymmetry**: program is one to two orders of
//!    magnitude slower than read, which is why absorbing small writes in the
//!    BA-buffer pays off.
//!
//! Pages store *real bytes*, so the whole stack above (FTL, SSD, 2B-SSD,
//! WAL, databases) can be verified end-to-end by byte-equality, including
//! across simulated power loss. The rules cover every page; the bytes cover
//! every page that can still be read: an owner that will never read a page
//! again [releases](NandArray::release_page) its image — an FTL does on
//! invalidate — while the block goes on counting the page as programmed
//! until its next erase.
//!
//! # Example
//!
//! ```rust
//! use twob_nand::{FlashClass, NandArray, NandGeometry};
//!
//! let geom = NandGeometry::small_test();
//! let mut nand = NandArray::new(geom, FlashClass::LowLatencySlc.timing());
//! let block = geom.block_addr(0, 0, 0, 0);
//! nand.erase_block(block)?;
//! let page = block.page(0);
//! nand.program_page(page, &vec![0xAB; geom.page_size as usize])?;
//! assert_eq!(nand.read_page(page)?.data[0], 0xAB);
//! # Ok::<(), twob_nand::NandError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod ecc;
mod error;
mod geometry;
mod timing;

pub use array::{NandArray, NandOp, ProgramResult, ReadResult, WearReport};
pub use ecc::{BitErrorModel, EccConfig, EccOutcome};
pub use error::NandError;
pub use geometry::{BlockAddr, NandGeometry, PageAddr, Ppa};
pub use timing::{FlashClass, NandTiming, TimingBreakdown};
