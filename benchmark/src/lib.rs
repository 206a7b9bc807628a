//! The two-clock benchmark of the 2B-SSD simulation.
//!
//! *Virtual time* is the model's answer (commit latency, serving
//! throughput); *host time* is what the answer costs to compute. Seven
//! workloads drive the library crates through their public functions only:
//! an untraced run reports the end-to-end metrics of both clocks, a traced
//! run reports per-layer metrics from the benchmark's own spans, the public
//! stats structs, and one direct-call probe per layer. `BENCHMARK.json` at
//! the repository root names every workload and metric; `README.md` here
//! defines them.

pub mod cli;
pub mod compare;
pub mod json;
pub mod probes;
pub mod runner;
pub mod schema;
pub mod spans;
pub mod workloads;

use std::collections::BTreeMap;

/// Size divisor of a run: 1 for the measured sizes, [`Scale::QUICK`] for
/// the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale(pub u64);

impl Scale {
    pub const FULL: Scale = Scale(1);
    /// About 1/50 of every size: all seven workloads and every probe run in
    /// a debug build in seconds.
    pub const QUICK: Scale = Scale(50);

    /// `n` at this scale, never below `floor`.
    pub fn of(self, n: u64, floor: u64) -> u64 {
        (n / self.0).max(floor)
    }

    pub fn is_quick(self) -> bool {
        self.0 > 1
    }
}

/// Values keyed by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one repetition of a workload produced. Everything here is a
/// function of the seed alone, so every repetition must return an equal
/// `Outcome` — the determinism check every run gets for free.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outcome {
    /// Logical operations completed (commits + reads), an exact count.
    pub ops: u64,
    /// Operations the benchmark submitted and checked the result of.
    pub attempted: u64,
    /// Of those, how many errored, never completed, or broke a guarantee.
    pub failed: u64,
    /// Fold of the run's public digests and counts.
    pub digest: u64,
    /// Virtual seconds the repetition simulated.
    pub virtual_secs: f64,
    /// Every virtual-clock metric and counter the run's public reports
    /// gave, end-to-end and per-layer alike, by metric name.
    pub v: Values,
    /// Output checks that failed (empty on a correct run).
    pub errors: Vec<String>,
}

impl Outcome {
    /// Counts one failed operation, keeping the first few messages.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

/// One benchmark workload, built from a seed (the set-up) and then run
/// repeatedly. See `workloads::build`.
pub trait Workload {
    /// The sizes this instance runs at, for the provenance record.
    fn sizes(&self) -> String;

    /// One repetition: the identical deterministic run every time.
    fn rep(&mut self) -> Outcome;

    /// Once-per-run output checks that cost extra runs (other drives, a
    /// power cut); returns what failed.
    fn verify(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Workload-owned measurements of the traced run that need extra runs
    /// (a parallel drive, a planning-only pass). `rep_secs` is the median
    /// untraced repetition.
    fn traced_extras(&mut self, _rep_secs: f64, _out: &mut Values) {}
}

/// FNV-1a-style fold used for every benchmark-side digest.
pub fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23)
}

pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
