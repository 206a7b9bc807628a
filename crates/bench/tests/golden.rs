//! Golden figure output: simulator changes must not silently shift figures.
//!
//! The fixtures under `tests/golden/` pin each study's JSON *byte
//! identically* — not merely numerically close — so any timing drift in
//! the kernel shows up as a diff, not as a silently shifted figure. What
//! each fixture captures is the registry's business; a test here only
//! names the study it checks, and the last test fails if the registry
//! pins a study that no test names. After an intentional timing change,
//! regenerate the fixtures with
//! `cargo run --release -p twob-bench -- regen` and review the diff.

use twob_bench::registry::{find, GOLDEN_DIR, REGISTRY};

/// Captures `study` and asserts byte identity with its fixture, pointing
/// at the first divergent byte and the regeneration command on mismatch.
fn assert_matches_golden(study: &str) {
    let json = find(study)
        .and_then(|entry| entry.capture())
        .unwrap_or_else(|| panic!("the registry pins no fixture for {study}"));
    let expected = std::fs::read_to_string(format!("{GOLDEN_DIR}{study}.json"))
        .unwrap_or_else(|e| panic!("read fixture {study}: {e}"));
    let expected = expected.trim_end();
    if json != expected {
        let at = json
            .bytes()
            .zip(expected.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| json.len().min(expected.len()));
        let lo = at.saturating_sub(40);
        panic!(
            "{study} output drifted from tests/golden/{study}.json \
             (first difference at byte {at}:\n  got      ...{}\n  expected ...{}\n). \
             If the change is intentional, run \
             `cargo run --release -p twob-bench -- regen` and review \
             `git diff crates/bench/tests/golden/`.",
            &json[lo..(at + 40).min(json.len())],
            &expected[lo..(at + 40).min(expected.len())],
        );
    }
}

/// One test per pinned study, so the harness runs them concurrently and
/// reports every drifted fixture by name, plus a check that the studies
/// tested are exactly the ones the registry declares a fixture for.
macro_rules! pinned {
    ($($test:ident => $study:literal,)*) => {
        $(
            #[test]
            fn $test() {
                assert_matches_golden($study);
            }
        )*

        #[test]
        fn every_pinned_study_has_a_test() {
            let mut tested = vec![$($study),*];
            tested.sort_unstable();
            let mut pinned: Vec<&str> = REGISTRY
                .iter()
                .map(|entry| entry.info())
                .filter(|info| info.fixture)
                .map(|info| info.name)
                .collect();
            pinned.sort_unstable();
            assert_eq!(tested, pinned);
        }
    };
}

pinned! {
    fig7_json_is_byte_identical_to_capture => "fig7_latency",
    fig8_json_is_byte_identical_to_capture => "fig8_bandwidth",
    fig9_json_is_byte_identical_to_capture => "fig9_apps",
    fig10_json_is_byte_identical_to_capture => "fig10_hetero",
    commit_cost_json_is_byte_identical_to_capture => "commit_cost",
    qd_sweep_json_is_byte_identical_to_capture => "qd_sweep",
    gc_interference_json_is_byte_identical_to_capture => "gc_interference",
    tenant_sweep_json_is_byte_identical_to_capture => "tenant_sweep",
    repl_sweep_json_is_byte_identical_to_capture => "repl_sweep",
    serve_sweep_json_is_byte_identical_to_capture => "serve_sweep",
    cluster_sweep_json_is_byte_identical_to_capture => "cluster_sweep",
    tier_sweep_json_is_byte_identical_to_capture => "tier_sweep",
}
