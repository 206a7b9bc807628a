//! The seven workloads. Each is built from `(seed, scale)` — every arrival
//! stream, fault plan, key stream and payload derives from the seed, and
//! the libraries receive only the generated inputs — and then repeats one
//! deterministic run.

mod db_mix;
mod fleet;
mod paper;
mod serve;
mod tier;

use crate::{Scale, Workload};

pub use paper::{paper_error_pct, reference_points, REFERENCE};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 7] = [
    "serve_byte",
    "serve_block",
    "sharded_1024",
    "fleet_chaos",
    "db_mix",
    "tier_churn",
    "paper_floor",
];

/// Builds the named workload: input generation and device build/pre-fill.
pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "serve_byte" => Box::new(serve::Ladder::byte(seed, scale)),
        "serve_block" => Box::new(serve::Ladder::block(seed, scale)),
        "sharded_1024" => Box::new(serve::Sharded::new(seed, scale)),
        "fleet_chaos" => Box::new(fleet::FleetChaos::new(seed, scale)),
        "db_mix" => Box::new(db_mix::DbMix::new(seed, scale)),
        "tier_churn" => Box::new(tier::TierChurn::new(seed, scale)),
        "paper_floor" => Box::new(paper::PaperFloor::new(seed, scale)),
        _ => return None,
    })
}

/// `min(nproc, 4)`: the thread count of every parallel drive, so no
/// workload uses more threads than the host has.
pub fn par_threads() -> usize {
    host_parallelism().min(4)
}

pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
