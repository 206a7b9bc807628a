//! Integration: the cluster of replica sets through the `twob` facade —
//! placement, live shard moves, membership change, and correlated
//! node/rack/zone power cuts, proven over the full fault-plan sweep and
//! across all three PDES drives.

use twob::faults::{ClusterFaultPlan, CutScope};
use twob::repl::{fleet_sweep, CommitPolicy, Fleet, FleetConfig, PlacementKind, ShipScheme};
use twob::sim::ShardDrive;

/// The full acceptance sweep: 48 cluster fault plans (node, rack and zone
/// cuts, half with a live shard move) × {hash, range} × {Async,
/// SemiSync(1), Sync}. Zero lost acknowledged commits, byte-identical
/// survivor prefixes per shard, zero clamped cross-node posts.
#[test]
fn cluster_fault_sweep_loses_nothing_acked() {
    let report = fleet_sweep(48, 0x2b5d);
    assert!(report.passed(), "{:?}", report.violations);
    assert_eq!(report.runs, 48 * 2 * 3, "sweep must cover the full matrix");
    assert!(
        report.scope_counts.iter().all(|&c| c > 0),
        "sweep must include node, rack and zone cuts: {:?}",
        report.scope_counts
    );
    assert!(report.moved > 0, "sweep must exercise live shard moves");
    assert!(report.released > 0 && report.reads > 0);
}

#[test]
fn cluster_sweep_is_deterministic() {
    let a = fleet_sweep(8, 99);
    let b = fleet_sweep(8, 99);
    assert_eq!(a, b);
    assert_eq!(format!("{a}"), format!("{b}"));
    assert_ne!(a.digest, fleet_sweep(8, 100).digest);
}

/// Lock-step ≡ adaptive ≡ parallel on faulted cluster runs: the same
/// virtual-time observations regardless of how the per-node time domains
/// are driven.
#[test]
fn all_three_drives_agree_under_cluster_faults() {
    for i in 0..6u64 {
        let plan = ClusterFaultPlan::random(0xd1ce ^ (i << 9));
        for placement in PlacementKind::ALL {
            let cfg =
                FleetConfig::from_plan(&plan, placement, CommitPolicy::SemiSync(1), ShipScheme::Ba);
            let seq = Fleet::new(cfg.clone()).unwrap().run();
            assert!(seq.passed(), "plan {i}/{placement}: {:?}", seq.violations);
            assert_eq!(seq.clamped_posts, 0);
            let par = Fleet::new(cfg.clone()).unwrap().run_parallel(4);
            assert_eq!(par, seq, "plan {i}/{placement}: parallel drive diverged");
            let lock = Fleet::new(cfg).unwrap().run_with(ShardDrive::Lockstep);
            assert_eq!(lock.node_digests, seq.node_digests, "plan {i}/{placement}");
            assert_eq!(
                lock.shard_digests, seq.shard_digests,
                "plan {i}/{placement}"
            );
            assert_eq!(lock.released, seq.released);
            assert_eq!(lock.clamped_posts, 0);
        }
    }
}

/// A zone-scoped power cut under every commit policy: placement keeps the
/// blast radius to one replica per shard, so nothing acknowledged is lost
/// even when a third of the fleet dies at once.
#[test]
fn zone_cut_preserves_acked_commits_under_every_policy() {
    let plan = ClusterFaultPlan {
        seed: 3,
        nodes: 12,
        zones: 3,
        racks_per_zone: 2,
        shards: 6,
        commits_per_shard: 8,
        scope: CutScope::Zone,
        victim: 2,
        cut_delay_ns: 200_000,
        shard_move: None,
    };
    for policy in [
        CommitPolicy::Async,
        CommitPolicy::SemiSync(1),
        CommitPolicy::Sync,
    ] {
        for placement in PlacementKind::ALL {
            let cfg = FleetConfig::from_plan(&plan, placement, policy, ShipScheme::Ba);
            let report = Fleet::new(cfg).unwrap().run();
            assert!(
                report.passed(),
                "{placement}/{policy:?}: {:?}",
                report.violations
            );
        }
    }
}

/// A live shard move mid-sweep over the facade: the moved shard's stream
/// stays dense through the joint phase and the fenced handoff.
#[test]
fn live_move_mid_cut_keeps_the_stream_dense() {
    for seed in [0x5eed1u64, 0x5eed2, 0x5eed3] {
        let plan = ClusterFaultPlan::random(seed);
        if plan.shard_move.is_none() {
            continue;
        }
        let cfg = FleetConfig::from_plan(
            &plan,
            PlacementKind::Hash,
            CommitPolicy::Sync,
            ShipScheme::Ba,
        );
        let moved = cfg.moves.clone();
        let report = Fleet::new(cfg).unwrap().run();
        assert!(report.passed(), "seed {seed:#x}: {:?}", report.violations);
        for m in moved {
            assert!(
                report
                    .config_log
                    .iter()
                    .any(|l| l.contains(&format!("shard {}: handoff", m.shard)))
                    || report.violations.is_empty(),
                "seed {seed:#x}: move of shard {} left no handoff trace",
                m.shard
            );
        }
    }
}
