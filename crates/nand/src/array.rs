//! The NAND array: real byte storage plus physical-rule enforcement.

use std::collections::HashMap;

use twob_sim::{SimDuration, SimRng};

use crate::{
    BitErrorModel, BlockAddr, EccConfig, EccOutcome, NandError, NandGeometry, NandTiming, PageAddr,
    TimingBreakdown,
};

/// A completed read: the page bytes plus timing and ECC accounting.
#[derive(Debug, Clone)]
pub struct ReadResult {
    /// The page contents.
    pub data: Vec<u8>,
    /// Die/bus time components for the SSD scheduler.
    pub timing: TimingBreakdown,
    /// Bits ECC corrected on this read.
    pub corrected_bits: u32,
}

/// A completed program: timing components for the SSD scheduler.
#[derive(Debug, Clone, Copy)]
pub struct ProgramResult {
    /// Die/bus time components for the SSD scheduler.
    pub timing: TimingBreakdown,
}

/// Aggregate wear statistics for the array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WearReport {
    /// Total page programs performed.
    pub programs: u64,
    /// Total page reads performed.
    pub reads: u64,
    /// Total block erases performed.
    pub erases: u64,
    /// Maximum per-block erase count.
    pub max_erase_count: u64,
    /// Minimum per-block erase count across blocks that were ever erased,
    /// or zero if none were.
    pub min_erase_count: u64,
    /// Number of blocks currently marked bad.
    pub bad_blocks: u64,
}

/// A NAND flash array with lazily allocated page storage.
///
/// Enforces erase-before-program, strictly sequential programming within a
/// block, bad-block refusal, addresses inside the geometry, and optional
/// bit-error injection with an ECC budget. Stores the real bytes of every
/// page that can still be read — programmed and not
/// [released](NandArray::release_page) — so upper layers can be checked
/// end-to-end.
///
/// # Example
///
/// ```rust
/// use twob_nand::{FlashClass, NandArray, NandGeometry};
///
/// let geom = NandGeometry::small_test();
/// let mut nand = NandArray::new(geom, FlashClass::DatacenterTlc.timing());
/// let blk = geom.block_addr(0, 0, 0, 0);
/// nand.erase_block(blk)?;
/// nand.program_page(blk.page(0), &vec![7u8; 4096])?;
/// assert!(nand.program_page(blk.page(0), &vec![7u8; 4096]).is_err());
/// # Ok::<(), twob_nand::NandError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NandArray {
    geometry: NandGeometry,
    timing: NandTiming,
    /// Per flat block: the next programmable page; pages below it were
    /// programmed since the block's last erase.
    next_page: Vec<u32>,
    /// Per flat block: erases so far (fresh blocks are usable immediately
    /// in this model, matching factory-erased flash).
    erase_count: Vec<u64>,
    /// Per flat block: bad blocks refuse all operations.
    bad: Vec<bool>,
    /// The bytes of every programmed, unreleased page.
    pages: HashMap<PageAddr, Vec<u8>>,
    ecc: EccConfig,
    error_model: BitErrorModel,
    rng: SimRng,
    programs: u64,
    reads: u64,
    erases: u64,
}

impl NandArray {
    /// Creates an array with a perfectly reliable medium (no bit errors).
    ///
    /// Per-block state is three zeroed arrays, so blocks never touched cost
    /// no resident memory.
    pub fn new(geometry: NandGeometry, timing: NandTiming) -> Self {
        let blocks = geometry.blocks_total() as usize;
        NandArray {
            geometry,
            timing,
            next_page: vec![0; blocks],
            erase_count: vec![0; blocks],
            bad: vec![false; blocks],
            pages: HashMap::new(),
            ecc: EccConfig::default(),
            error_model: BitErrorModel::perfect(),
            rng: SimRng::seed_from(0xECC),
            programs: 0,
            reads: 0,
            erases: 0,
        }
    }

    /// Creates an array with bit-error injection governed by `model` and
    /// corrected within `ecc`'s budget, seeded for reproducibility.
    pub fn with_error_model(
        geometry: NandGeometry,
        timing: NandTiming,
        ecc: EccConfig,
        model: BitErrorModel,
        seed: u64,
    ) -> Self {
        NandArray {
            ecc,
            error_model: model,
            rng: SimRng::seed_from(seed),
            ..NandArray::new(geometry, timing)
        }
    }

    /// The array's geometry.
    pub fn geometry(&self) -> NandGeometry {
        self.geometry
    }

    /// The array's timing constants.
    pub fn timing(&self) -> NandTiming {
        self.timing
    }

    /// The flat index of `block`, or [`NandError::OutOfRange`] if it — or
    /// `page`, when one is given — lies outside the geometry. Every entry
    /// point that touches per-block state checks here first.
    fn index(&self, block: BlockAddr, page: Option<u32>) -> Result<usize, NandError> {
        let g = &self.geometry;
        let inside = block.channel < g.channels
            && block.way < g.ways_per_channel
            && block.plane < g.planes_per_way
            && block.block < g.blocks_per_plane
            && page.is_none_or(|p| p < g.pages_per_block);
        if inside {
            Ok(g.block_to_flat(block) as usize)
        } else {
            Err(NandError::OutOfRange { block, page })
        }
    }

    /// The flat index of a usable block: inside the geometry and not bad.
    fn usable(&self, block: BlockAddr, page: Option<u32>) -> Result<usize, NandError> {
        let idx = self.index(block, page)?;
        if self.bad[idx] {
            return Err(NandError::BadBlock(block));
        }
        Ok(idx)
    }

    /// Erases a block, freeing all its pages for reprogramming.
    ///
    /// Returns the die time the erase occupies.
    ///
    /// # Errors
    ///
    /// - [`NandError::OutOfRange`] if the block is outside the geometry.
    /// - [`NandError::BadBlock`] if the block is marked bad.
    pub fn erase_block(&mut self, addr: BlockAddr) -> Result<TimingBreakdown, NandError> {
        let idx = self.usable(addr, None)?;
        for page in 0..self.next_page[idx] {
            self.pages.remove(&addr.page(page));
        }
        self.next_page[idx] = 0;
        self.erase_count[idx] += 1;
        self.erases += 1;
        Ok(TimingBreakdown {
            die_time: self.timing.t_erase,
            xfer_time: SimDuration::ZERO,
        })
    }

    /// Programs the next sequential page of a block with `data`.
    ///
    /// # Errors
    ///
    /// - [`NandError::WrongBufferLen`] if `data` is not exactly one page.
    /// - [`NandError::OutOfRange`] if the page is outside the geometry.
    /// - [`NandError::BadBlock`] for bad blocks.
    /// - [`NandError::ProgramWithoutErase`] if the page already holds data.
    /// - [`NandError::OutOfOrderProgram`] if `addr.page` is not the block's
    ///   next sequential page.
    pub fn program_page(
        &mut self,
        addr: PageAddr,
        data: &[u8],
    ) -> Result<ProgramResult, NandError> {
        let page_size = self.geometry.page_size as usize;
        if data.len() != page_size {
            return Err(NandError::WrongBufferLen {
                got: data.len(),
                expected: page_size,
            });
        }
        let idx = self.usable(addr.block, Some(addr.page))?;
        let next_page = self.next_page[idx];
        if addr.page < next_page {
            return Err(NandError::ProgramWithoutErase(addr));
        }
        if addr.page > next_page {
            return Err(NandError::OutOfOrderProgram {
                attempted: addr,
                expected_page: next_page,
            });
        }
        self.next_page[idx] += 1;
        self.pages.insert(addr, data.to_vec());
        self.programs += 1;
        Ok(ProgramResult {
            timing: TimingBreakdown {
                die_time: self.timing.t_prog,
                xfer_time: self.timing.xfer(page_size as u64),
            },
        })
    }

    /// Drops the bytes — only the bytes — of a programmed page its owner
    /// will never read again. Block state is untouched: the page still
    /// counts as programmed, cannot be programmed again before an erase,
    /// and wear, timing and ECC draws are as if it were still held.
    /// Reading it afterwards is [`NandError::ReadReleased`]. Releasing a
    /// page that holds no bytes — one outside the geometry included — is a
    /// no-op.
    pub fn release_page(&mut self, addr: PageAddr) {
        self.pages.remove(&addr);
    }

    /// Reads a programmed page.
    ///
    /// # Errors
    ///
    /// - [`NandError::OutOfRange`] if the page is outside the geometry.
    /// - [`NandError::BadBlock`] for bad blocks.
    /// - [`NandError::ReadUnwritten`] if the page was never programmed
    ///   since its block's last erase.
    /// - [`NandError::ReadReleased`] if it was programmed and then
    ///   released.
    /// - [`NandError::Uncorrectable`] if injected bit errors exceed the ECC
    ///   budget; the block is then marked bad, as real firmware would retire
    ///   it.
    pub fn read_page(&mut self, addr: PageAddr) -> Result<ReadResult, NandError> {
        let idx = self.usable(addr.block, Some(addr.page))?;
        let data = self
            .pages
            .get(&addr)
            .cloned()
            .ok_or(if addr.page < self.next_page[idx] {
                NandError::ReadReleased(addr)
            } else {
                NandError::ReadUnwritten(addr)
            })?;
        self.reads += 1;
        let outcome = self.ecc.check_page(
            &self.error_model,
            &mut self.rng,
            self.erase_count[idx],
            self.geometry.page_size,
        );
        let corrected_bits = match outcome {
            EccOutcome::Corrected(bits) => bits,
            EccOutcome::Uncorrectable => {
                self.bad[idx] = true;
                return Err(NandError::Uncorrectable(addr));
            }
        };
        Ok(ReadResult {
            data,
            timing: TimingBreakdown {
                die_time: self.timing.t_read,
                xfer_time: self.timing.xfer(self.geometry.page_size as u64),
            },
            corrected_bits,
        })
    }

    /// Returns `true` if the page was programmed since its block's last
    /// erase, whether or not its bytes were released since.
    pub fn is_programmed(&self, addr: PageAddr) -> bool {
        addr.page < self.next_page_of(addr.block)
    }

    /// Next programmable page index of a block (0 for a fresh block, or
    /// one outside the geometry).
    pub fn next_page_of(&self, addr: BlockAddr) -> u32 {
        self.index(addr, None).map_or(0, |idx| self.next_page[idx])
    }

    /// Erase count of a block (0 for one outside the geometry).
    pub fn erase_count_of(&self, addr: BlockAddr) -> u64 {
        self.index(addr, None)
            .map_or(0, |idx| self.erase_count[idx])
    }

    /// Marks a block bad, as firmware does after a failed program/erase.
    ///
    /// # Errors
    ///
    /// [`NandError::OutOfRange`] if the block is outside the geometry.
    pub fn mark_bad(&mut self, addr: BlockAddr) -> Result<(), NandError> {
        let idx = self.index(addr, None)?;
        self.bad[idx] = true;
        Ok(())
    }

    /// Returns `true` if the block is marked bad.
    pub fn is_bad(&self, addr: BlockAddr) -> bool {
        self.index(addr, None).is_ok_and(|idx| self.bad[idx])
    }

    /// Aggregate wear statistics.
    pub fn wear_report(&self) -> WearReport {
        let erased = || self.erase_count.iter().copied().filter(|&n| n > 0);
        WearReport {
            programs: self.programs,
            reads: self.reads,
            erases: self.erases,
            max_erase_count: erased().max().unwrap_or(0),
            min_erase_count: erased().min().unwrap_or(0),
            bad_blocks: self.bad.iter().filter(|&&bad| bad).count() as u64,
        }
    }

    /// Number of pages whose bytes are held: programmed and not released
    /// (for memory accounting).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlashClass;

    fn test_array() -> (NandGeometry, NandArray) {
        let g = NandGeometry::small_test();
        (g, NandArray::new(g, FlashClass::LowLatencySlc.timing()))
    }

    #[test]
    fn program_then_read_round_trips() {
        let (g, mut nand) = test_array();
        let blk = g.block_addr(0, 0, 0, 0);
        nand.erase_block(blk).unwrap();
        let data: Vec<u8> = (0..g.page_size).map(|i| (i % 251) as u8).collect();
        nand.program_page(blk.page(0), &data).unwrap();
        assert_eq!(nand.read_page(blk.page(0)).unwrap().data, data);
    }

    #[test]
    fn fresh_block_is_programmable_without_explicit_erase() {
        let (g, mut nand) = test_array();
        let blk = g.block_addr(1, 0, 0, 0);
        assert!(nand.program_page(blk.page(0), &vec![0; 4096]).is_ok());
    }

    #[test]
    fn double_program_rejected() {
        let (g, mut nand) = test_array();
        let blk = g.block_addr(0, 0, 0, 0);
        nand.program_page(blk.page(0), &vec![1; 4096]).unwrap();
        assert_eq!(
            nand.program_page(blk.page(0), &vec![2; 4096]).unwrap_err(),
            NandError::ProgramWithoutErase(blk.page(0))
        );
    }

    #[test]
    fn out_of_order_program_rejected() {
        let (g, mut nand) = test_array();
        let blk = g.block_addr(0, 0, 0, 0);
        let err = nand.program_page(blk.page(3), &vec![0; 4096]).unwrap_err();
        assert!(matches!(err, NandError::OutOfOrderProgram { .. }));
    }

    #[test]
    fn erase_frees_pages_and_counts_wear() {
        let (g, mut nand) = test_array();
        let blk = g.block_addr(0, 0, 0, 0);
        nand.program_page(blk.page(0), &vec![9; 4096]).unwrap();
        nand.erase_block(blk).unwrap();
        assert!(!nand.is_programmed(blk.page(0)));
        assert_eq!(nand.erase_count_of(blk), 1);
        // Reprogramming page 0 is now legal.
        assert!(nand.program_page(blk.page(0), &vec![9; 4096]).is_ok());
    }

    #[test]
    fn read_unwritten_errors() {
        let (g, mut nand) = test_array();
        let blk = g.block_addr(0, 0, 0, 0);
        assert_eq!(
            nand.read_page(blk.page(5)).unwrap_err(),
            NandError::ReadUnwritten(blk.page(5))
        );
    }

    #[test]
    fn release_drops_the_bytes_and_nothing_else() {
        let (g, mut nand) = test_array();
        let blk = g.block_addr(0, 0, 0, 0);
        nand.program_page(blk.page(0), &vec![1; 4096]).unwrap();
        nand.program_page(blk.page(1), &vec![2; 4096]).unwrap();
        let wear = nand.wear_report();
        // Releasing a page that was never programmed is a no-op.
        nand.release_page(blk.page(5));
        nand.release_page(blk.page(0));
        assert_eq!(nand.resident_pages(), 1);
        assert_eq!(
            nand.read_page(blk.page(0)).unwrap_err(),
            NandError::ReadReleased(blk.page(0))
        );
        // "Never programmed" keeps its own error, and the neighbour reads.
        assert_eq!(
            nand.read_page(blk.page(5)).unwrap_err(),
            NandError::ReadUnwritten(blk.page(5))
        );
        assert_eq!(nand.read_page(blk.page(1)).unwrap().data, vec![2; 4096]);
        // The block's state did not move: still programmed, still in
        // order, still needing an erase, no wear charged.
        assert!(nand.is_programmed(blk.page(0)));
        assert_eq!(nand.next_page_of(blk), 2);
        assert_eq!(
            nand.program_page(blk.page(0), &vec![3; 4096]).unwrap_err(),
            NandError::ProgramWithoutErase(blk.page(0))
        );
        assert_eq!(nand.erase_count_of(blk), 0);
        assert_eq!(
            nand.wear_report(),
            WearReport {
                reads: wear.reads + 1,
                ..wear
            }
        );
        // Erase after release is clean, and the page is programmable again.
        nand.erase_block(blk).unwrap();
        assert!(!nand.is_programmed(blk.page(0)));
        assert_eq!(nand.resident_pages(), 0);
        nand.program_page(blk.page(0), &vec![4; 4096]).unwrap();
        assert_eq!(nand.read_page(blk.page(0)).unwrap().data, vec![4; 4096]);
    }

    #[test]
    fn bad_block_refuses_everything() {
        let (g, mut nand) = test_array();
        let blk = g.block_addr(0, 0, 0, 1);
        nand.program_page(blk.page(0), &vec![1; 4096]).unwrap();
        nand.mark_bad(blk).unwrap();
        assert!(matches!(
            nand.read_page(blk.page(0)),
            Err(NandError::BadBlock(_))
        ));
        assert!(matches!(
            nand.program_page(blk.page(1), &vec![1; 4096]),
            Err(NandError::BadBlock(_))
        ));
        assert!(matches!(nand.erase_block(blk), Err(NandError::BadBlock(_))));
    }

    #[test]
    fn wrong_buffer_length_rejected() {
        let (g, mut nand) = test_array();
        let blk = g.block_addr(0, 0, 0, 0);
        let err = nand.program_page(blk.page(0), &[0u8; 100]).unwrap_err();
        assert_eq!(
            err,
            NandError::WrongBufferLen {
                got: 100,
                expected: 4096
            }
        );
    }

    #[test]
    fn uncorrectable_read_retires_block() {
        let g = NandGeometry::small_test();
        let mut nand = NandArray::with_error_model(
            g,
            FlashClass::LowLatencySlc.timing(),
            EccConfig {
                codeword_bytes: 1024,
                correctable_bits: 0,
            },
            BitErrorModel {
                base_rber: 1e-2,
                rber_per_pe_cycle: 0.0,
            },
            7,
        );
        let blk = g.block_addr(0, 0, 0, 0);
        nand.program_page(blk.page(0), &vec![0; 4096]).unwrap();
        let mut failed = false;
        for _ in 0..50 {
            match nand.read_page(blk.page(0)) {
                Err(NandError::Uncorrectable(_)) => {
                    failed = true;
                    break;
                }
                Err(NandError::BadBlock(_)) => unreachable!("loop exits on first failure"),
                _ => {}
            }
        }
        assert!(failed, "expected an uncorrectable read at RBER 1e-2");
        assert!(nand.is_bad(blk));
        assert_eq!(nand.wear_report().bad_blocks, 1);
    }

    #[test]
    fn timing_components_match_class() {
        let (g, mut nand) = test_array();
        let t = FlashClass::LowLatencySlc.timing();
        let blk = g.block_addr(0, 0, 0, 0);
        let prog = nand.program_page(blk.page(0), &vec![0; 4096]).unwrap();
        assert_eq!(prog.timing.die_time, t.t_prog);
        assert_eq!(prog.timing.xfer_time, t.xfer(4096));
        let read = nand.read_page(blk.page(0)).unwrap();
        assert_eq!(read.timing.die_time, t.t_read);
        let erase = nand.erase_block(blk).unwrap();
        assert_eq!(erase.die_time, t.t_erase);
        assert_eq!(erase.xfer_time, SimDuration::ZERO);
    }

    #[test]
    fn wear_report_tracks_counts() {
        let (g, mut nand) = test_array();
        let blk = g.block_addr(0, 0, 0, 0);
        nand.program_page(blk.page(0), &vec![0; 4096]).unwrap();
        nand.read_page(blk.page(0)).unwrap();
        nand.erase_block(blk).unwrap();
        nand.erase_block(blk).unwrap();
        let report = nand.wear_report();
        assert_eq!(report.programs, 1);
        assert_eq!(report.reads, 1);
        assert_eq!(report.erases, 2);
        assert_eq!(report.max_erase_count, 2);
    }
}
