//! Pinned fleet reports: every observable of four seeded fault-plan fleets,
//! under both log paths, fixed to the value the current model produces.
//!
//! `node_digests` fold every durable instant and every follower-read
//! completion, so any change to how a host prices an append or a read
//! moves them; a pure speed-up of the host must leave every row unchanged.

use twob_faults::ClusterFaultPlan;
use twob_repl::{CommitPolicy, Fleet, FleetConfig, PlacementKind, ShipScheme};
use twob_sim::{mix, FNV_BASIS};

/// Commits per shard each plan is stretched to, as the `fleet_chaos`
/// benchmark workload does: long enough that a block slot's follower reads
/// cover a log of many pages.
const COMMITS_PER_SHARD: u64 = 128;

/// One run's observables: `released, reads, processed, rounds`, the folded
/// node and shard digests, then the bits of `commit_p50_us` and
/// `read_p99_us`.
type Row = [u64; 8];

fn fold(words: &[u64]) -> u64 {
    words.iter().fold(FNV_BASIS, |h, &w| mix(h, w))
}

fn run(plan_index: u64, scheme: ShipScheme) -> Row {
    let mut plan = ClusterFaultPlan::random(61 ^ (plan_index << 17));
    // The cut and the move trigger keep their place in the longer stream.
    let stretch = COMMITS_PER_SHARD / plan.commits_per_shard;
    plan.cut_delay_ns *= stretch;
    plan.shard_move = plan
        .shard_move
        .map(|(shard, after)| (shard, after * stretch));
    plan.commits_per_shard = COMMITS_PER_SHARD;
    let cfg = FleetConfig::from_plan(
        &plan,
        PlacementKind::Hash,
        CommitPolicy::SemiSync(1),
        scheme,
    );
    let report = Fleet::new(cfg).expect("plan fits the fleet").run();
    assert!(report.passed(), "{scheme:?}: {:?}", report.violations);
    [
        report.released,
        report.reads,
        report.processed,
        report.rounds,
        fold(&report.node_digests),
        fold(&report.shard_digests),
        report.commit_p50_us.to_bits(),
        report.read_p99_us.to_bits(),
    ]
}

#[test]
fn fleet_reports_are_pinned() {
    #[rustfmt::skip]
    const PINNED: [(u64, ShipScheme, Row); 8] = [
        (0, ShipScheme::Ba, [896, 896, 6174, 268,
            0x320f_ed44_fc8c_b17a, 0x66e6_293d_c86d_f17a, 0x404a_f604_1893_74bc, 0x404b_bc49_ba5e_353f]),
        (0, ShipScheme::Block, [896, 896, 6164, 446,
            0x1339_d12e_c244_f767, 0x66e6_293d_c86d_f17a, 0x4053_a385_1eb8_51ec, 0x4090_4c8c_49ba_5e35]),
        (1, ShipScheme::Ba, [1022, 1021, 7154, 271,
            0x83de_5c4a_bc04_35e5, 0x130c_90a4_c776_397b, 0x404a_f851_eb85_1eb8, 0x404b_bb02_0c49_ba5e]),
        (1, ShipScheme::Block, [935, 935, 6286, 468,
            0xeda4_3a07_81b0_98d2, 0x68e4_4732_b7c6_3a0c, 0x4053_a893_74bc_6a7f, 0x4091_c01d_b22d_0e56]),
        (2, ShipScheme::Ba, [638, 636, 4222, 266,
            0xc7c1_640f_4fdf_9ed6, 0xd410_6a59_f5a1_5bad, 0x404b_070a_3d70_a3d7, 0x404b_bced_9168_72b0]),
        (2, ShipScheme::Block, [598, 595, 3862, 376,
            0xd85a_74b1_46b2_81a1, 0xbdda_1a7b_6f9b_913c, 0x4053_ab53_f7ce_d917, 0x4090_06b7_4bc6_a7f0]),
        (3, ShipScheme::Ba, [464, 463, 2951, 262,
            0xa26e_420c_8657_e510, 0xee26_18ac_7760_e636, 0x404b_1b02_0c49_ba5e, 0x404b_bb02_0c49_ba5e]),
        (3, ShipScheme::Block, [440, 440, 2762, 321,
            0xe267_8446_3195_5c2e, 0x82ae_9518_1640_4f99, 0x4053_b5f3_b645_a1cb, 0x4063_2ce5_6041_8937]),
    ];
    let got: Vec<Row> = PINNED.iter().map(|&(i, s, _)| run(i, s)).collect();
    let want: Vec<Row> = PINNED.iter().map(|&(_, _, row)| row).collect();
    assert_eq!(got, want, "the rows now read {got:#x?}");
}
