//! The study registry: every table, figure and sweep this crate
//! regenerates, as one table of plain data.
//!
//! Each study is one [`Study`] value in [`REGISTRY`] — its name, a
//! one-line summary, and function pointers for what it actually has: how
//! to run and render it, its deterministic `json:` payload, the
//! projection its golden fixture pins, its tracked `BENCH_*.json`, its CI
//! gate. The runner, fixture regeneration and CI iterate [`REGISTRY`] and
//! never name a study; `tests/golden.rs` names the studies it checks and
//! fails if that set is not exactly the fixtures declared here. Adding a
//! study is adding an entry here (and, if pinned, its golden test).

use std::fmt::Write as _;

use crate::{
    ablations, cluster_sweep, commit_cost, fig10, fig7, fig8, fig9, gc_interference, qd_sweep,
    repl_sweep, serve_sweep, table1, tenant_sweep, tier_sweep, to_json,
};

/// Where the golden fixtures live: `<name>.json` per pinned study.
pub const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/");

/// Renders some view of a study's outcome as text.
pub type Render<T> = fn(&T) -> String;

/// A gate's verdict: the pass summary, or the violated condition.
pub type Verdict = Result<String, String>;

/// What a study's golden fixture pins.
pub enum Fixture<T> {
    /// This view of a full-scale run.
    Of(Render<T>),
    /// Its own capture, for a study whose run also computes costly parts
    /// that no fixture pins.
    Own(fn() -> String),
}

/// One study, typed by the value its run produces.
pub struct Study<T> {
    /// Name on the command line; also the stem of its fixture file.
    pub name: &'static str,
    /// One line for `twob-bench list`.
    pub about: &'static str,
    /// Whether `run` honours `--quick` (a reduced op count).
    pub quick: bool,
    /// Runs the study at full scale, or reduced when handed `true`.
    pub run: fn(quick: bool) -> T,
    /// Renders the human-readable tables, newline-terminated.
    pub text: Render<T>,
    /// The deterministic `json:` payload, byte-stable across runs and
    /// machines.
    pub json: Option<Render<T>>,
    /// What `tests/golden/<name>.json` pins.
    pub fixture: Option<Fixture<T>>,
    /// The tracked file at the repo root and its contents.
    pub tracked: Option<(&'static str, Render<T>)>,
    /// The CI gate.
    pub gate: Option<fn(&T) -> Verdict>,
}

impl<T> Study<T> {
    /// A study with only tables to print; the optional parts are added
    /// with struct-update syntax.
    pub const fn new(
        name: &'static str,
        about: &'static str,
        run: fn(bool) -> T,
        text: Render<T>,
    ) -> Self {
        Study {
            name,
            about,
            quick: false,
            run,
            text,
            json: None,
            fixture: None,
            tracked: None,
            gate: None,
        }
    }
}

impl<T: std::fmt::Debug> Study<T> {
    /// A study whose whole outcome is both its `json:` line and what its
    /// fixture pins — the common case.
    pub const fn pinned(
        name: &'static str,
        about: &'static str,
        run: fn(bool) -> T,
        text: Render<T>,
    ) -> Self {
        Study {
            json: Some(to_json),
            fixture: Some(Fixture::Of(to_json)),
            ..Study::new(name, about, run, text)
        }
    }
}

/// What can be known about a study without running it.
#[derive(Debug, Clone, Copy)]
pub struct Info {
    /// Study name.
    pub name: &'static str,
    /// One-line summary.
    pub about: &'static str,
    /// Whether it prints a `json:` line.
    pub json: bool,
    /// Whether a golden file pins it.
    pub fixture: bool,
    /// Whether `--write` applies: it has a tracked file.
    pub write: bool,
    /// Whether `--gate` applies.
    pub gate: bool,
    /// Whether `--quick` applies.
    pub quick: bool,
}

/// What one run produced, rendered.
#[derive(Debug)]
pub struct Output {
    /// Everything the study prints: its tables, then the `json:` line.
    pub stdout: String,
    /// Its tracked file's name and fresh contents.
    pub tracked: Option<(&'static str, String)>,
    /// The gate's verdict, when one was asked for and exists.
    pub gate: Option<Verdict>,
}

/// A registry entry: a [`Study`] with its outcome type erased.
pub trait Entry: Sync {
    /// The entry's static facts.
    fn info(&self) -> Info;
    /// Runs the study once and renders everything derived from that run;
    /// the gate is evaluated only when `gate` is set.
    fn execute(&self, quick: bool, gate: bool) -> Output;
    /// Runs the study at full scale and returns the bytes its fixture
    /// pins; `None` when no golden file pins it.
    fn capture(&self) -> Option<String>;
}

impl<T> Entry for Study<T> {
    fn info(&self) -> Info {
        Info {
            name: self.name,
            about: self.about,
            json: self.json.is_some(),
            fixture: self.fixture.is_some(),
            write: self.tracked.is_some(),
            gate: self.gate.is_some(),
            quick: self.quick,
        }
    }

    fn execute(&self, quick: bool, gate: bool) -> Output {
        let outcome = (self.run)(quick);
        let mut stdout = (self.text)(&outcome);
        if let Some(json) = self.json {
            writeln!(stdout, "\njson: {}", json(&outcome)).expect("write to a String");
        }
        Output {
            stdout,
            tracked: self
                .tracked
                .map(|(file, contents)| (file, contents(&outcome) + "\n")),
            gate: self.gate.filter(|_| gate).map(|check| check(&outcome)),
        }
    }

    fn capture(&self) -> Option<String> {
        match self.fixture.as_ref()? {
            Fixture::Of(view) => Some(view(&(self.run)(false))),
            Fixture::Own(capture) => Some(capture()),
        }
    }
}

/// Every study, in the order the paper presents them and then the order
/// the extensions landed.
pub static REGISTRY: [&dyn Entry; 14] = [
    &Study::new(
        "table1_spec",
        "Table I: the 2B-SSD specification",
        |_| table1::rows(),
        |rows| table1::render(rows),
    ),
    &Study::pinned(
        "fig7_latency",
        "Fig 7: read/write latency versus request size",
        |_| fig7::run(),
        |rows| fig7::render(rows),
    ),
    &Study::pinned(
        "fig8_bandwidth",
        "Fig 8: bandwidth versus request size at QD1",
        |_| fig8::run(),
        |rows| fig8::render(rows),
    ),
    &Study {
        quick: true,
        ..Study::pinned(
            "fig9_apps",
            "Fig 9: PostgreSQL/RocksDB/Redis throughput per log device",
            fig9::run,
            fig9::render,
        )
    },
    // The only fixture that prices `PmWal` and an async `BlockWal`.
    &Study {
        quick: true,
        ..Study::pinned(
            "fig10_hetero",
            "Fig 10: hybrid store (2B-SSD) versus PM + block SSD",
            fig10::run,
            fig10::render,
        )
    },
    &Study::pinned(
        "commit_cost",
        "§V-C: commit overhead, block logging versus BA commit",
        |_| commit_cost::run(),
        |rows| commit_cost::render(rows),
    ),
    &Study::new(
        "ablations",
        "ablations of the design choices DESIGN.md calls out",
        |_| ablations::run(),
        ablations::render,
    ),
    &Study::pinned(
        "qd_sweep",
        "Fig 8 extended: read bandwidth and latency at QD 1-64",
        |_| qd_sweep::run(),
        |rows| qd_sweep::render(rows),
    ),
    &Study::pinned(
        "gc_interference",
        "GC interference: block-path tail versus flat byte path under churn",
        |_| gc_interference::run(),
        |rows| gc_interference::render(rows),
    ),
    // The fixture pins the ladder; the `json:` line adds the sharded rows.
    &Study {
        json: Some(to_json),
        fixture: Some(Fixture::Own(|| to_json(&tenant_sweep::run()))),
        ..Study::new(
            "tenant_sweep",
            "commit latency as 1-64 mixed-engine tenants share one 2B-SSD",
            |_| tenant_sweep::outcome(),
            tenant_sweep::render,
        )
    },
    &Study::pinned(
        "repl_sweep",
        "replication: commit latency across policies, RTTs and ship schemes",
        |_| repl_sweep::run(),
        |rows| repl_sweep::render(rows),
    ),
    // The fixture pins the ladder; the `json:` line and the tracked file
    // add the knees and the 1024-tenant sharded digest.
    &Study {
        json: Some(to_json),
        fixture: Some(Fixture::Own(|| to_json(&serve_sweep::run()))),
        tracked: Some(("BENCH_serve_sweep.json", to_json)),
        gate: Some(serve_sweep::gate),
        ..Study::new(
            "serve_sweep",
            "open-loop serving knee at a p99 SLO, BA-WAL versus block-WAL",
            |_| serve_sweep::outcome(),
            serve_sweep::render,
        )
    },
    &Study {
        gate: Some(cluster_sweep::gate),
        ..Study::pinned(
            "cluster_sweep",
            "fleet commit and follower-read latency, BA versus block log hosts",
            |_| cluster_sweep::run(),
            cluster_sweep::render,
        )
    },
    // The `json:` line and the tracked file wrap the sweep in its
    // parameters; the fixture pins the bare sweep.
    &Study {
        json: Some(tier_sweep::json),
        tracked: Some(("BENCH_tier_sweep.json", tier_sweep::json)),
        gate: Some(tier_sweep::gate),
        ..Study::pinned(
            "tier_sweep",
            "BA-MMIO versus CXL.mem versus block commits, and hot/cold tiering",
            |_| tier_sweep::run(),
            tier_sweep::render,
        )
    },
];

/// Looks a study up by name.
pub fn find(name: &str) -> Option<&'static dyn Entry> {
    REGISTRY.iter().copied().find(|e| e.info().name == name)
}

/// Absolute path of a tracked file, resolved relative to this crate so
/// the runner works from any working directory.
pub fn tracked_path(file: &str) -> String {
    format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        for (i, entry) in REGISTRY.iter().enumerate() {
            let name = entry.info().name;
            let first = REGISTRY.iter().position(|e| e.info().name == name);
            assert_eq!(first, Some(i), "{name} registered twice");
            assert_eq!(find(name).map(|e| e.info().name), Some(name));
        }
        assert!(find("no_such_study").is_none());
    }

    /// The fixture files on disk are exactly the fixtures the registry
    /// declares: no orphan file, no unpinned declaration.
    #[test]
    fn fixture_files_match_the_registry() {
        let mut on_disk: Vec<String> = std::fs::read_dir(GOLDEN_DIR)
            .expect("list tests/golden")
            .map(|entry| entry.expect("dir entry").file_name().into_string().unwrap())
            .collect();
        on_disk.sort();
        let mut declared: Vec<String> = REGISTRY
            .iter()
            .map(|entry| entry.info())
            .filter(|info| info.fixture)
            .map(|info| format!("{}.json", info.name))
            .collect();
        declared.sort();
        assert_eq!(on_disk, declared);
    }

    #[test]
    fn execute_appends_the_json_line_and_gates_only_on_request() {
        let study: Study<u32> = Study {
            quick: true,
            json: Some(|n| n.to_string()),
            fixture: Some(Fixture::Of(|n| format!("{{{n}}}"))),
            tracked: Some(("BENCH_toy.json", |n| format!("[{n}]"))),
            gate: Some(|&n| match n {
                2 => Ok("full".into()),
                _ => Err("reduced".into()),
            }),
            ..Study::new(
                "toy",
                "a toy",
                |quick| 2 - u32::from(quick),
                |n| format!("n = {n}\n"),
            )
        };
        let full = study.execute(false, true);
        assert_eq!(full.stdout, "n = 2\n\njson: 2\n");
        assert_eq!(full.tracked, Some(("BENCH_toy.json", "[2]\n".to_string())));
        assert_eq!(full.gate, Some(Ok("full".to_string())));
        assert_eq!(
            study.execute(true, true).gate,
            Some(Err("reduced".to_string()))
        );
        assert_eq!(study.execute(true, false).gate, None);
        let info = study.info();
        assert!(info.json && info.gate && info.quick && info.fixture && info.write);
        assert_eq!(
            study.capture().as_deref(),
            Some("{2}"),
            "captures run at full scale"
        );
    }
}
