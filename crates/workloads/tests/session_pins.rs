//! Closed-loop session runs ([`ServiceDriver::run_sessions`]) pinned to
//! literals: every field of a small pool's [`TenantReport`] on each
//! logging scheme, plus the pool shapes that stress the event loop's tie
//! rule (one client per tenant, single-client Redis tenants, and a 5 µs
//! window at which clients become ready exactly on their tenant's own
//! deadline, so serving the client first would slip its record into the
//! closing batch) and the full-batch flush (more blocked committers than
//! a batch holds, behind a group window far longer than a commit). Any
//! change to which event the loop advances next, or to what reaches the
//! tenant logs, moves a literal here.

use twob_core::{TwoBSpec, TwoBSsd};
use twob_sim::SimDuration;
use twob_ssd::SsdConfig;
use twob_workloads::{
    EngineKind, ServiceDriver, TenantPool, TenantPoolConfig, TenantReport, WalScheme,
};

/// A bench-scale device behind a 256 KiB BA buffer with a mapping entry
/// per tenant (at least eight).
fn device(tenants: u16) -> TwoBSsd {
    let spec = TwoBSpec {
        ba_buffer_bytes: 256 << 10,
        max_entries: usize::from(tenants).max(8),
        ..TwoBSpec::default()
    };
    TwoBSsd::new(SsdConfig::base_2b().bench_scale(), spec)
}

/// What a session report pins: `commits`, `batches`, and the bits of
/// `grouped_pct`, `p50_us`, `p99_us`, `worst_tenant_p99_us` and
/// `commits_per_sec`.
type Pin = (u64, u64, u64, u64, u64, u64, u64);

/// One tenant's `commits` and the bits of its `p50_us` and `p99_us`.
type TenantPin = (u64, u64, u64);

fn pin(r: &TenantReport) -> (Pin, Vec<TenantPin>) {
    (
        (
            r.commits,
            r.batches,
            r.grouped_pct.to_bits(),
            r.p50_us.to_bits(),
            r.p99_us.to_bits(),
            r.worst_tenant_p99_us.to_bits(),
            r.commits_per_sec.to_bits(),
        ),
        r.per_tenant
            .iter()
            .map(|t| (t.commits, t.p50_us.to_bits(), t.p99_us.to_bits()))
            .collect(),
    )
}

#[test]
fn session_reports_are_pinned() {
    use EngineKind::{Pg, Redis, Rocks};
    let small = |scheme| TenantPoolConfig {
        ops_per_tenant: 60,
        ..TenantPoolConfig::standard(4, vec![Pg, Rocks, Redis], scheme, 7)
    };
    // 24 clients behind a 1 ms window: batches fill to `MAX_BATCH` long
    // before their deadline.
    let full = |mix, scheme| TenantPoolConfig {
        clients_per_tenant: 24,
        ops_per_tenant: 120,
        group_window: SimDuration::from_micros(1_000),
        ..TenantPoolConfig::standard(2, mix, scheme, 5)
    };
    #[rustfmt::skip]
    let pinned: [(&str, TenantPoolConfig, Pin, &[TenantPin]); 8] = [
        ("ba", small(WalScheme::Ba),
            (94, 51, 4634491480370242756, 4622360675444162822, 4623614927940385505, 4623614927940385505, 4674915863752111182),
            &[(23, 4617065568182281961, 4623553003445509161), (26, 4622753614511650898, 4623553003445509161), (30, 4622360675444162822, 4622360675444162822), (15, 4622753614511650898, 4623614927940385505)]),
        ("cxl", small(WalScheme::Cxl),
            (94, 51, 4634491480370242756, 4622263848052174356, 4623108272982306324, 4623108272982306324, 4674925351812638999),
            &[(23, 4616797604004453417, 4622804280007458816), (26, 4622421474039132324, 4622804280007458816), (30, 4622263848052174356, 4622325772547050701), (15, 4622421474039132324, 4623108272982306324)]),
        ("block", small(WalScheme::Block),
            (94, 55, 4634341759637949854, 4628827844509066854, 4634474232541882614, 4634474232541882614, 4673786522421741292),
            &[(23, 4629829895426156790, 4634474232541882614), (26, 4629120578484845937, 4634336309803294392), (30, 4627208518968050450, 4632213988478896046), (15, 4629738979008679248, 4634175869066569318)]),
        ("one client", TenantPoolConfig { clients_per_tenant: 1, ..small(WalScheme::Ba) },
            (94, 94, 0, 4622360675444162822, 4622424851738852852, 4622424851738852852, 4674915863752111182),
            &[(23, 4622353920044721766, 4622389948841740730), (26, 4622360675444162822, 4622360675444162822), (30, 4622360675444162822, 4622360675444162822), (15, 4622353920044721766, 4622424851738852852)]),
        ("redis only", TenantPoolConfig { ops_per_tenant: 80, ..TenantPoolConfig::standard(3, vec![Redis], WalScheme::Ba, 11) },
            (119, 119, 0, 4622360675444162822, 4622424851738852852, 4622438362537734963, 4674396627210435389),
            &[(48, 4622360675444162822, 4622360675444162822), (39, 4622360675444162822, 4622438362537734963), (32, 4622360675444162822, 4622424851738852852)]),
        ("deadline tie", TenantPoolConfig { clients_per_tenant: 2, group_window: SimDuration::from_micros(5), ..TenantPoolConfig::standard(2, vec![Pg, Rocks, Redis], WalScheme::Ba, 5) },
            (336, 200, 4635396934322680783, 4619121461412176593, 4635591125249470497, 4635591969674400629, 4683074571408131802),
            &[(128, 4618398633671983628, 4634756129731058336), (208, 4619184511806959780, 4635591969674400629)]),
        ("full batch block", full(vec![Rocks, Pg], WalScheme::Block),
            (99, 8, 4636666211815062890, 4631378570748018819, 4651459136324045373, 4651459136324045373, 4681307713920193565),
            &[(66, 4631378570748018819, 4650926497707178590), (33, 4630209042219786043, 4651459136324045373)]),
        ("full batch ba", full(vec![Pg, Rocks], WalScheme::Ba),
            (112, 8, 4636737291354636288, 4626730292982619046, 4651470166624695222, 4651527693073060463, 4682284227191443918),
            &[(37, 4629545042749725606, 4651358702533917802), (75, 4622945017495814144, 4651527693073060463)]),
    ];
    for (name, cfg, want, per_tenant) in pinned {
        let scheme = cfg.scheme;
        let mut pool = TenantPool::new(device(cfg.tenants), cfg).expect(name);
        let report = ServiceDriver::run_sessions(&mut pool).expect(name);
        assert_eq!(report.scheme, scheme.label(), "{name}");
        assert_eq!(report.tenants as usize, per_tenant.len(), "{name}");
        assert_eq!(pin(&report), (want, per_tenant.to_vec()), "{name}");
        if name.starts_with("full batch") {
            // Batches closed at `MAX_BATCH`, not at the 1 ms deadline.
            assert!(report.p50_us < 100.0, "{name}: p50 {}", report.p50_us);
        }
    }
}
