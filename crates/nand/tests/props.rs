//! Property-based tests of the NAND array's physical invariants.

use proptest::prelude::*;
use twob_nand::{BlockAddr, FlashClass, NandArray, NandError, NandGeometry};

/// An abstract NAND operation drawn by proptest.
#[derive(Debug, Clone)]
enum Op {
    Erase { block: u64 },
    Program { block: u64, fill: u8 },
    Read { block: u64, page: u32 },
    Release { block: u64, page: u32 },
}

/// What the oracle knows of one page since its block's last erase.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Page {
    Unwritten,
    Holds(u8),
    Released,
}

fn op_strategy(blocks: u64, pages: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..blocks).prop_map(|block| Op::Erase { block }),
        (0..blocks, any::<u8>()).prop_map(|(block, fill)| Op::Program { block, fill }),
        (0..blocks, 0..pages).prop_map(|(block, page)| Op::Read { block, page }),
        (0..blocks, 0..pages).prop_map(|(block, page)| Op::Release { block, page }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Against an oracle model: reads return exactly the last bytes
    /// programmed since the covering erase, a released page reads as
    /// released and nothing else about its block moves, and the array never
    /// accepts an out-of-order or double program.
    #[test]
    fn nand_matches_oracle(
        ops in prop::collection::vec(op_strategy(8, 16), 1..120)
    ) {
        let geom = NandGeometry::small_test();
        let mut nand = NandArray::new(geom, FlashClass::LowLatencySlc.timing());
        // Oracle: per block, what each page holds.
        let mut oracle: Vec<Vec<Page>> = vec![vec![Page::Unwritten; 16]; 8];
        let mut next_page: Vec<u32> = vec![0; 8];

        for op in ops {
            match op {
                Op::Erase { block } => {
                    let addr = geom.block_from_flat(block);
                    nand.erase_block(addr).expect("erase always legal");
                    oracle[block as usize] = vec![Page::Unwritten; 16];
                    next_page[block as usize] = 0;
                }
                Op::Program { block, fill } => {
                    let addr = geom.block_from_flat(block);
                    let np = next_page[block as usize];
                    let data = vec![fill; 4096];
                    if np < 16 {
                        nand.program_page(addr.page(np), &data).expect("in-order program");
                        oracle[block as usize][np as usize] = Page::Holds(fill);
                        next_page[block as usize] += 1;
                    } else {
                        // Block full: programming must fail.
                        prop_assert!(nand.program_page(addr.page(np), &data).is_err());
                    }
                }
                Op::Read { block, page } => {
                    let addr = geom.block_from_flat(block);
                    match (oracle[block as usize][page as usize], nand.read_page(addr.page(page))) {
                        (Page::Holds(fill), Ok(read)) => {
                            prop_assert!(read.data.iter().all(|&b| b == fill));
                        }
                        (Page::Unwritten, Err(NandError::ReadUnwritten(_)))
                        | (Page::Released, Err(NandError::ReadReleased(_))) => {}
                        (expected, got) => {
                            return Err(TestCaseError::fail(format!(
                                "oracle {expected:?} but nand returned {:?}",
                                got.map(|r| r.data[0])
                            )));
                        }
                    }
                }
                Op::Release { block, page } => {
                    let addr = geom.block_from_flat(block);
                    nand.release_page(addr.page(page));
                    let cell = &mut oracle[block as usize][page as usize];
                    if *cell != Page::Unwritten {
                        *cell = Page::Released;
                    }
                }
            }
            // Only programs and erases move a block's write pointer, and
            // the array holds exactly the bytes the oracle says it does.
            for (block, np) in next_page.iter().enumerate() {
                prop_assert_eq!(nand.next_page_of(geom.block_from_flat(block as u64)), *np);
            }
            let held = oracle.iter().flatten().filter(|p| matches!(p, Page::Holds(_))).count();
            prop_assert_eq!(nand.resident_pages(), held);
        }
    }

    /// An address outside the geometry — any block coordinate, or a page
    /// past the block's last — is refused with `OutOfRange` by every
    /// operation that takes one, reads as never programmed, and moves
    /// neither the wear counters nor the page store, whatever in-range
    /// traffic came first.
    #[test]
    fn out_of_range_addresses_error_and_change_nothing(
        warmup in prop::collection::vec(op_strategy(8, 16), 0..60),
        coords in (0u32..5, 0u32..5, 0u32..3, 0u32..20, 0u32..40),
        (outside_axis, past) in (0usize..5, 0u32..3),
    ) {
        let geom = NandGeometry::small_test();
        // Arbitrary coordinates, then one of them pushed past its bound.
        let mut c = [coords.0, coords.1, coords.2, coords.3, coords.4];
        let bounds = [
            geom.channels,
            geom.ways_per_channel,
            geom.planes_per_way,
            geom.blocks_per_plane,
            geom.pages_per_block,
        ];
        c[outside_axis] = c[outside_axis].max(bounds[outside_axis] + past);
        let [channel, way, plane, block, page] = c;
        let addr = BlockAddr { channel, way, plane, block };
        let block_inside = (0..4).all(|axis| c[axis] < bounds[axis]);
        let mut nand = NandArray::new(geom, FlashClass::LowLatencySlc.timing());
        for op in warmup {
            let _ = match op {
                Op::Erase { block } => nand.erase_block(geom.block_from_flat(block)).map(drop),
                Op::Program { block, fill } => {
                    let b = geom.block_from_flat(block);
                    nand.program_page(b.page(nand.next_page_of(b)), &vec![fill; 4096]).map(drop)
                }
                Op::Read { block, page } => nand.read_page(geom.block_from_flat(block).page(page)).map(drop),
                Op::Release { block, page } => {
                    nand.release_page(geom.block_from_flat(block).page(page));
                    Ok(())
                }
            };
        }
        if block_inside {
            // Fill the block, so the page past its end is the next in order.
            for p in nand.next_page_of(addr)..geom.pages_per_block {
                nand.program_page(addr.page(p), &vec![0x5A; 4096]).expect("in-range fill");
            }
        }
        let before = (nand.wear_report(), nand.resident_pages());
        let outside = |err: NandError| matches!(err, NandError::OutOfRange { .. });
        prop_assert!(nand.program_page(addr.page(page), &vec![1; 4096]).is_err_and(outside));
        prop_assert!(nand.read_page(addr.page(page)).is_err_and(outside));
        nand.release_page(addr.page(page));
        prop_assert!(!nand.is_programmed(addr.page(page)));
        if !block_inside {
            prop_assert!(nand.erase_block(addr).is_err_and(outside));
            prop_assert!(nand.mark_bad(addr).is_err_and(outside));
            prop_assert!(!nand.is_bad(addr));
            prop_assert_eq!(nand.next_page_of(addr), 0);
            prop_assert_eq!(nand.erase_count_of(addr), 0);
        }
        prop_assert_eq!((nand.wear_report(), nand.resident_pages()), before);
    }

    /// Double programming any page is always rejected.
    #[test]
    fn double_program_always_rejected(block in 0u64..8, fills in prop::collection::vec(any::<u8>(), 1..16)) {
        let geom = NandGeometry::small_test();
        let mut nand = NandArray::new(geom, FlashClass::DatacenterTlc.timing());
        let addr = geom.block_from_flat(block);
        for (i, fill) in fills.iter().enumerate() {
            nand.program_page(addr.page(i as u32), &vec![*fill; 4096]).unwrap();
        }
        // Re-programming any already-written page fails.
        for i in 0..fills.len() {
            prop_assert!(matches!(
                nand.program_page(addr.page(i as u32), &vec![0; 4096]),
                Err(NandError::ProgramWithoutErase(_))
            ));
        }
    }

    /// Erase counts only ever grow, and wear reports aggregate them.
    #[test]
    fn wear_is_monotonic(erases in prop::collection::vec(0u64..8, 1..40)) {
        let geom = NandGeometry::small_test();
        let mut nand = NandArray::new(geom, FlashClass::LowLatencySlc.timing());
        let mut last_total = 0u64;
        for block in erases {
            let addr = geom.block_from_flat(block);
            nand.erase_block(addr).unwrap();
            let report = nand.wear_report();
            prop_assert!(report.erases > last_total);
            last_total = report.erases;
            prop_assert!(report.max_erase_count >= report.min_erase_count);
        }
    }

    /// Flat block/page addressing round-trips for arbitrary geometry.
    #[test]
    fn addressing_roundtrip(
        channels in 1u32..8, ways in 1u32..8, planes in 1u32..4,
        blocks in 1u32..64, pages in 1u32..128, idx in any::<u64>()
    ) {
        let geom = NandGeometry {
            channels,
            ways_per_channel: ways,
            planes_per_way: planes,
            blocks_per_plane: blocks,
            pages_per_block: pages,
            page_size: 4096,
            spare_per_page: 128,
        };
        let flat = idx % geom.blocks_total();
        let addr = geom.block_from_flat(flat);
        prop_assert_eq!(geom.block_to_flat(addr), flat);
        let ppa = twob_nand::Ppa(idx % geom.pages_total());
        prop_assert_eq!(geom.ppa(geom.page_from_ppa(ppa)), ppa);
    }
}
