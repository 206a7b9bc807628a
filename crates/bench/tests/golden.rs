//! Golden figure output: simulator changes must not silently shift figures.
//!
//! The fixtures under `tests/golden/` pin each study's JSON *byte
//! identically* — not merely numerically close — so any timing drift in
//! the kernel shows up as a diff, not as a silently shifted figure. After
//! an intentional timing change, regenerate them with
//! `cargo run --release -p twob-bench --bin regen_golden` and review the
//! diff.

fn golden(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/");
    std::fs::read_to_string(format!("{path}{name}.json"))
        .unwrap_or_else(|e| panic!("read fixture {name}: {e}"))
        .trim_end()
        .to_string()
}

/// Asserts byte identity with the fixture, pointing at the regeneration
/// command (and the first divergent byte) on mismatch.
fn assert_matches_golden(name: &str, json: &str) {
    let expected = golden(name);
    if json != expected {
        let at = json
            .bytes()
            .zip(expected.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| json.len().min(expected.len()));
        let lo = at.saturating_sub(40);
        panic!(
            "{name} output drifted from tests/golden/{name}.json \
             (first difference at byte {at}:\n  got      ...{}\n  expected ...{}\n). \
             If the change is intentional, run \
             `cargo run --release -p twob-bench --bin regen_golden` and review \
             `git diff crates/bench/tests/golden/`.",
            &json[lo..(at + 40).min(json.len())],
            &expected[lo..(at + 40).min(expected.len())],
        );
    }
}

#[test]
fn fig7_json_is_byte_identical_to_capture() {
    let rows = twob_bench::fig7::run();
    let json = serde_json::to_string(&rows).expect("serialize fig7");
    assert_matches_golden("fig7_latency", &json);
}

#[test]
fn fig8_json_is_byte_identical_to_capture() {
    let rows = twob_bench::fig8::run();
    let json = serde_json::to_string(&rows).expect("serialize fig8");
    assert_matches_golden("fig8_bandwidth", &json);
}

#[test]
fn fig9_json_is_byte_identical_to_capture() {
    let report = twob_bench::fig9::run(false);
    let json = serde_json::to_string(&report).expect("serialize fig9");
    assert_matches_golden("fig9_apps", &json);
}

#[test]
fn fig10_json_is_byte_identical_to_capture() {
    // The only fixture that prices `PmWal` and an async `BlockWal`.
    let report = twob_bench::fig10::run(false);
    let json = serde_json::to_string(&report).expect("serialize fig10");
    assert_matches_golden("fig10_hetero", &json);
}

#[test]
fn commit_cost_json_is_byte_identical_to_capture() {
    let rows = twob_bench::commit_cost::run();
    let json = serde_json::to_string(&rows).expect("serialize commit cost");
    assert_matches_golden("commit_cost", &json);
}

#[test]
fn qd_sweep_json_is_byte_identical_to_capture() {
    let rows = twob_bench::qd_sweep::run();
    let json = serde_json::to_string(&rows).expect("serialize qd sweep");
    assert_matches_golden("qd_sweep", &json);
}

#[test]
fn gc_interference_json_is_byte_identical_to_capture() {
    let rows = twob_bench::gc_interference::run();
    let json = serde_json::to_string(&rows).expect("serialize gc interference");
    assert_matches_golden("gc_interference", &json);
}

#[test]
fn tenant_sweep_json_is_byte_identical_to_capture() {
    let rows = twob_bench::tenant_sweep::run();
    let json = serde_json::to_string(&rows).expect("serialize tenant sweep");
    assert_matches_golden("tenant_sweep", &json);
}

#[test]
fn repl_sweep_json_is_byte_identical_to_capture() {
    let rows = twob_bench::repl_sweep::run();
    let json = serde_json::to_string(&rows).expect("serialize repl sweep");
    assert_matches_golden("repl_sweep", &json);
}

#[test]
fn serve_sweep_json_is_byte_identical_to_capture() {
    let rows = twob_bench::serve_sweep::run();
    let json = serde_json::to_string(&rows).expect("serialize serve sweep");
    assert_matches_golden("serve_sweep", &json);
}

#[test]
fn cluster_sweep_json_is_byte_identical_to_capture() {
    let sweep = twob_bench::cluster_sweep::run();
    let json = serde_json::to_string(&sweep).expect("serialize cluster sweep");
    assert_matches_golden("cluster_sweep", &json);
}

#[test]
fn tier_sweep_json_is_byte_identical_to_capture() {
    let sweep = twob_bench::tier_sweep::run();
    let json = serde_json::to_string(&sweep).expect("serialize tier sweep");
    assert_matches_golden("tier_sweep", &json);
}
