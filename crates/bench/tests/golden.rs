//! Golden figure output: simulator changes must not silently shift figures.
//!
//! The fixtures under `tests/golden/` pin each study's JSON *byte
//! identically* — not merely numerically close — so any timing drift in
//! the kernel shows up as a diff, not as a silently shifted figure. Which
//! studies are pinned, and what each fixture captures, is the registry's
//! business; this test only iterates it. After an intentional timing
//! change, regenerate the fixtures with
//! `cargo run --release -p twob-bench -- regen` and review the diff.

use std::sync::atomic::{AtomicUsize, Ordering};

use twob_bench::registry::{GOLDEN_DIR, REGISTRY};

/// Compares one capture with its fixture; on drift, describes the first
/// divergent byte and the regeneration command.
fn drift(name: &str, json: &str) -> Option<String> {
    let expected = match std::fs::read_to_string(format!("{GOLDEN_DIR}{name}.json")) {
        Ok(text) => text.trim_end().to_string(),
        Err(e) => return Some(format!("read fixture {name}: {e}")),
    };
    if json == expected {
        return None;
    }
    let at = json
        .bytes()
        .zip(expected.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| json.len().min(expected.len()));
    let lo = at.saturating_sub(40);
    Some(format!(
        "{name} output drifted from tests/golden/{name}.json \
         (first difference at byte {at}:\n  got      ...{}\n  expected ...{}\n). \
         If the change is intentional, run \
         `cargo run --release -p twob-bench -- regen` and review \
         `git diff crates/bench/tests/golden/`.",
        &json[lo..(at + 40).min(json.len())],
        &expected[lo..(at + 40).min(expected.len())],
    ))
}

/// Every fixture the registry declares, captured on as many workers as
/// the host has cores and compared byte for byte; every mismatch is
/// reported, not just the first.
#[test]
fn every_fixture_is_byte_identical_to_its_capture() {
    let next = AtomicUsize::new(0);
    let check_next = || {
        let mut drifted = Vec::new();
        while let Some(entry) = REGISTRY.get(next.fetch_add(1, Ordering::Relaxed)) {
            let capture = entry.capture();
            drifted.extend(capture.and_then(|json| drift(entry.info().name, &json)));
        }
        drifted
    };
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let drifted: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..workers).map(|_| scope.spawn(check_next)).collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("capture panicked"))
            .collect()
    });
    assert!(drifted.is_empty(), "{}", drifted.join("\n\n"));
}
