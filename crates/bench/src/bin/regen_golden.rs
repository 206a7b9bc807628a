//! Regenerates every golden fixture under `tests/golden/` from the current
//! simulator — all of them, in one invocation, reporting per file whether
//! it changed.
//!
//! Run after an *intentional* timing change, then review the diff:
//!
//! ```text
//! cargo run --release -p twob-bench --bin regen_golden
//! git diff crates/bench/tests/golden/
//! ```
//!
//! The golden tests in `tests/golden.rs` pin these files byte-for-byte, so
//! an unintentional kernel drift fails tests instead of silently shifting
//! figures.

use serde::Serialize;

/// Captures one fixture and reports `new` / `changed` / `unchanged`
/// against what is on disk. Returns whether the file's bytes moved.
fn write_fixture<T: Serialize + std::fmt::Debug>(name: &str, value: &T) -> bool {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/");
    let path = format!("{dir}{name}.json");
    let json = serde_json::to_string(value).expect("serialize fixture");
    let fresh = format!("{json}\n");
    let current = std::fs::read_to_string(&path).ok();
    let status = match &current {
        None => "new",
        Some(old) if *old != fresh => "changed",
        Some(_) => "unchanged",
    };
    if current.as_deref() != Some(fresh.as_str()) {
        std::fs::write(&path, &fresh).unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
    println!("{status:>9}  {name}.json ({} bytes)", fresh.len());
    status != "unchanged"
}

fn main() {
    let mut moved = 0;
    moved += write_fixture("fig7_latency", &twob_bench::fig7::run()) as u32;
    moved += write_fixture("fig8_bandwidth", &twob_bench::fig8::run()) as u32;
    moved += write_fixture("fig9_apps", &twob_bench::fig9::run(false)) as u32;
    moved += write_fixture("fig10_hetero", &twob_bench::fig10::run(false)) as u32;
    moved += write_fixture("commit_cost", &twob_bench::commit_cost::run()) as u32;
    moved += write_fixture("qd_sweep", &twob_bench::qd_sweep::run()) as u32;
    moved += write_fixture("gc_interference", &twob_bench::gc_interference::run()) as u32;
    moved += write_fixture("tenant_sweep", &twob_bench::tenant_sweep::run()) as u32;
    moved += write_fixture("repl_sweep", &twob_bench::repl_sweep::run()) as u32;
    moved += write_fixture("serve_sweep", &twob_bench::serve_sweep::run()) as u32;
    moved += write_fixture("cluster_sweep", &twob_bench::cluster_sweep::run()) as u32;
    moved += write_fixture("tier_sweep", &twob_bench::tier_sweep::run()) as u32;
    if moved == 0 {
        println!("\nall fixtures already match the current simulator");
    } else {
        println!("\n{moved} fixture(s) moved — review `git diff crates/bench/tests/golden/`");
    }
}
