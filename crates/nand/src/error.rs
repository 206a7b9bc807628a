//! Error type for NAND operations.

use std::error::Error;
use std::fmt;

use crate::{BlockAddr, PageAddr};

/// Errors raised by the NAND array model.
///
/// These encode the physical rules of NAND flash; hitting one in the upper
/// layers almost always means an FTL or buffer-manager bug, which is exactly
/// why the model enforces them.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NandError {
    /// A page was programmed without erasing its block first, or programmed
    /// twice.
    ProgramWithoutErase(PageAddr),
    /// Pages within a block must be programmed in strictly increasing order.
    OutOfOrderProgram {
        /// The page that was attempted.
        attempted: PageAddr,
        /// The next page the block would accept.
        expected_page: u32,
    },
    /// The block has been marked bad and refuses all operations.
    BadBlock(BlockAddr),
    /// A read touched a page that has never been programmed since erase.
    ReadUnwritten(PageAddr),
    /// A read touched a programmed page whose bytes were released
    /// ([`NandArray::release_page`](crate::NandArray::release_page)): the
    /// owner declared it dead and then read it anyway.
    ReadReleased(PageAddr),
    /// ECC could not correct the raw bit errors in the page.
    Uncorrectable(PageAddr),
    /// The address lies outside the array's geometry: a coordinate of the
    /// block, or the page index, is out of range.
    OutOfRange {
        /// The block addressed.
        block: BlockAddr,
        /// The page addressed within it, for page operations.
        page: Option<u32>,
    },
    /// The supplied buffer does not match the page size.
    WrongBufferLen {
        /// Buffer length supplied by the caller.
        got: usize,
        /// Page size expected by the geometry.
        expected: usize,
    },
}

impl fmt::Display for NandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NandError::ProgramWithoutErase(p) => {
                write!(f, "program of {p} without erase")
            }
            NandError::OutOfOrderProgram {
                attempted,
                expected_page,
            } => write!(
                f,
                "out-of-order program of {attempted}; block expects page {expected_page}"
            ),
            NandError::BadBlock(b) => write!(f, "operation on bad block {b}"),
            NandError::ReadUnwritten(p) => write!(f, "read of unwritten page {p}"),
            NandError::ReadReleased(p) => write!(f, "read of released page {p}"),
            NandError::Uncorrectable(p) => write!(f, "uncorrectable ECC error at {p}"),
            NandError::OutOfRange { block, page: None } => {
                write!(f, "block {block} outside the geometry")
            }
            NandError::OutOfRange {
                block,
                page: Some(page),
            } => write!(f, "page {} outside the geometry", block.page(*page)),
            NandError::WrongBufferLen { got, expected } => {
                write!(f, "buffer of {got} bytes where page size is {expected}")
            }
        }
    }
}

impl Error for NandError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NandGeometry;

    #[test]
    fn display_is_informative() {
        let g = NandGeometry::small_test();
        let b = g.block_addr(0, 0, 0, 0);
        let msgs = [
            NandError::ProgramWithoutErase(b.page(0)).to_string(),
            NandError::BadBlock(b).to_string(),
            NandError::WrongBufferLen {
                got: 1,
                expected: 4096,
            }
            .to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NandError>();
    }
}
