//! Property-based tests of the open-loop serving stack: determinism,
//! drive equivalence on the sharded device model, and the overload
//! contract of admission control.

use proptest::prelude::*;
use twob_workloads::{
    ArrivalConfig, ArrivalKind, ServeConfig, ServiceDriver, ShardDrive, WalScheme,
};

/// A serving configuration drawn from the property space: any arrival
/// process, either commit scheme, a light-to-busy offered rate, and a
/// short horizon so debug-build cases stay cheap.
fn any_kind() -> impl Strategy<Value = ArrivalKind> {
    prop_oneof![
        Just(ArrivalKind::Poisson),
        Just(ArrivalKind::Bursty),
        Just(ArrivalKind::Diurnal),
    ]
}

fn any_config() -> impl Strategy<Value = ServeConfig> {
    (
        any_kind(),
        prop_oneof![Just(WalScheme::Ba), Just(WalScheme::Block)],
        2u16..12,
        5_000u64..60_000,
        any::<u64>(),
    )
        .prop_map(|(kind, scheme, tenants, rate, seed)| {
            let mut cfg =
                ServeConfig::standard(tenants, scheme, ArrivalConfig::new(kind, rate as f64, seed));
            cfg.horizon = twob_sim::SimDuration::from_micros(2_000);
            cfg
        })
}

/// What a serve report pins: `digest`, interpolated `p50/p99/p999_us`,
/// `worst_tenant_p99_us`, `windows`, `windows_over_slo`, and the bits of
/// `admitted_ops_per_sec`.
type Pin = (u64, f64, f64, f64, f64, u64, u64, u64);

fn pin(r: &twob_workloads::ServeReport) -> Pin {
    (
        r.digest,
        r.p50_us,
        r.p99_us,
        r.p999_us,
        r.worst_tenant_p99_us,
        r.windows,
        r.windows_over_slo,
        r.admitted_ops_per_sec.to_bits(),
    )
}

/// Every scheme under every arrival process on single-device `serve`,
/// plus one sharded BA case, pinned to literals: 8 tenants, a 2 ms
/// horizon, a rate past the 80 k ops/s-per-tenant admission depth so
/// deferral is exercised, and a 100 µs p99 target some windows miss.
/// Any change to how commits reach the calendar or how completions are
/// measured moves a literal here.
#[test]
fn serve_reports_are_pinned() {
    let cfg = |scheme, kind| {
        let mut cfg = ServeConfig::standard(8, scheme, ArrivalConfig::new(kind, 90_000.0, 61));
        cfg.horizon = twob_sim::SimDuration::from_micros(2_000);
        cfg.slo_p99_us = 100.0;
        cfg
    };
    // (scheme, arrival, (digest, p50, p99, p999, worst tenant p99,
    //  windows, windows over SLO, admitted ops/s bits))
    #[rustfmt::skip]
    let pinned: [(WalScheme, ArrivalKind, Pin); 9] = [
        (WalScheme::Ba, ArrivalKind::Poisson, (3858766942020800988, 70.844, 196.292, 198.9515, 198.535, 20, 19, 4693773208621281043)),
        (WalScheme::Ba, ArrivalKind::Bursty, (1527762306039768125, 73.348, 198.05655, 199.70748999999998, 199.66192999999998, 20, 20, 4692975599943948720)),
        (WalScheme::Ba, ArrivalKind::Diurnal, (3429277273756503628, 38.7075, 198.87849, 199.89678899999998, 199.56725, 20, 9, 4692480495207786820)),
        (WalScheme::Cxl, ArrivalKind::Poisson, (3457986761543234929, 71.13, 196.578, 199.2375, 198.821, 20, 19, 4693772456162175376)),
        (WalScheme::Cxl, ArrivalKind::Bursty, (484864727803629892, 73.634, 198.34255, 199.99348999999998, 199.94792999999999, 20, 20, 4692974956092930104)),
        (WalScheme::Cxl, ArrivalKind::Diurnal, (7240958725754016952, 38.9935, 199.16449, 200.18278899999999, 199.85325, 20, 9, 4692479305531510207)),
        (WalScheme::Block, ArrivalKind::Poisson, (12161289281114134277, 73.77, 199.218, 201.8775, 201.461, 20, 19, 4693765520049791424)),
        (WalScheme::Block, ArrivalKind::Bursty, (478338558156808596, 76.274, 200.98254999999997, 202.63349, 202.58793, 20, 20, 4692969021121859898)),
        (WalScheme::Block, ArrivalKind::Diurnal, (4003964755925526473, 41.6335, 201.80449, 202.822789, 202.49325, 20, 9, 4692468339183581176)),
    ];
    for (scheme, kind, want) in pinned {
        let report = ServiceDriver::serve(&cfg(scheme, kind));
        assert!(report.deferred > 0, "{scheme:?}/{kind:?} never deferred");
        assert_eq!(pin(&report), want, "{scheme:?}/{kind:?}");
    }
    let sharded = ServiceDriver::serve_sharded(
        &cfg(WalScheme::Ba, ArrivalKind::Poisson),
        2,
        ShardDrive::Adaptive,
    );
    assert_eq!(
        pin(&sharded),
        (
            1682126533706202603,
            70.844,
            196.292,
            198.9515,
            198.535,
            20,
            19,
            4693773208621281043
        ),
        "sharded"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two runs of the same configuration produce the identical report —
    /// every field, including the completion digest — under every arrival
    /// process and both schemes.
    #[test]
    fn serve_runs_twice_identically(cfg in any_config()) {
        let a = ServiceDriver::serve(&cfg);
        let b = ServiceDriver::serve(&cfg);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.clamped_posts, 0);
    }

    /// On the sharded device model the lock-step, adaptive, and parallel
    /// drives are interchangeable: one completion digest (and one report)
    /// regardless of how the shards were scheduled, under every arrival
    /// process.
    #[test]
    fn sharded_drives_are_digest_equal(
        kind in any_kind(),
        groups in prop_oneof![Just(2usize), Just(4)],
        per_group in 2u16..6,
        rate in 10_000u64..50_000,
        seed in any::<u64>(),
    ) {
        let tenants = groups as u16 * per_group;
        let mut cfg = ServeConfig::standard(
            tenants,
            WalScheme::Ba,
            ArrivalConfig::new(kind, rate as f64, seed),
        );
        cfg.horizon = twob_sim::SimDuration::from_micros(2_000);
        let lockstep = ServiceDriver::serve_sharded(&cfg, groups, ShardDrive::Lockstep);
        let adaptive = ServiceDriver::serve_sharded(&cfg, groups, ShardDrive::Adaptive);
        let parallel = ServiceDriver::serve_sharded(&cfg, groups, ShardDrive::Parallel(2));
        prop_assert_eq!(&adaptive, &lockstep);
        prop_assert_eq!(&parallel, &lockstep);
        prop_assert_eq!(lockstep.clamped_posts, 0);
    }

    /// The overload contract: past the admission cap, shedding kicks in
    /// and grows with offered load, while what *was* admitted keeps a
    /// bounded tail — the deferral cap plus the device's own service
    /// time — and nothing is ever posted into the past.
    #[test]
    fn overload_sheds_and_bounds_the_admitted_tail(
        kind in any_kind(),
        tenants in 2u16..8,
        rate in 150_000u64..300_000,
        seed in any::<u64>(),
    ) {
        let config = |r: u64| {
            let mut cfg = ServeConfig::standard(
                tenants,
                WalScheme::Ba,
                ArrivalConfig::new(kind, r as f64, seed),
            );
            cfg.horizon = twob_sim::SimDuration::from_micros(2_000);
            cfg
        };
        let cfg = config(rate);
        let report = ServiceDriver::serve(&cfg);
        prop_assert_eq!(report.clamped_posts, 0);
        prop_assert!(
            report.shed_queue + report.shed_buffer > 0,
            "offered {} ops/s/tenant should overload the admission cap",
            rate
        );
        // Admitted commits wait at most the deferral cap before submit,
        // then clear a device that admission keeps under its sustainable
        // rate: the tail stays within the cap plus a service allowance.
        let cap_us = cfg.window.as_nanos() as f64 / 1e3 * (cfg.defer_windows + 1) as f64;
        prop_assert!(
            report.p99_us <= cap_us + 100.0,
            "admitted p99 {} us escaped the deferral cap {} us",
            report.p99_us,
            cap_us
        );
        // More offered load can only shed more.
        let heavier = ServiceDriver::serve(&config(rate * 2));
        prop_assert!(
            heavier.shed_queue + heavier.shed_buffer >= report.shed_queue + report.shed_buffer,
            "doubling offered load reduced shedding: {} -> {}",
            report.shed_queue + report.shed_buffer,
            heavier.shed_queue + heavier.shed_buffer
        );
    }
}
