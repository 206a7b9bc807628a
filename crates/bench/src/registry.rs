//! The study registry: every table, figure and sweep this crate
//! regenerates, as one table of plain data.
//!
//! Each study is one [`Study`] value in [`REGISTRY`] — its name, a
//! one-line summary, and function pointers for what it actually has: how
//! to run and render it, its deterministic `json:` payload, its CI gate.
//! A study with a `json:` line is pinned: `tests/golden/<name>.json` holds
//! that line's payload from a full-scale run, taken from the same
//! [`Entry::execute`] call that prints it. The runner, fixture
//! regeneration and CI iterate [`REGISTRY`] and never name a study;
//! `tests/golden.rs` names the studies it checks and fails if that set is
//! not exactly the pinned ones. Adding a study is adding an entry here
//! (and, if pinned, its golden test).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::{
    ablations, cluster_sweep, commit_cost, fault_sweep, fig10, fig7, fig8, fig9, gc_interference,
    qd_sweep, repl_sweep, serve_sweep, table1, tenant_sweep, tier_sweep, to_json,
};

/// Renders some view of a study's outcome as text.
pub type Render<T> = fn(&T) -> String;

/// A gate's verdict: the pass summary, or the violated condition.
pub type Verdict = Result<String, String>;

/// A gate's check of one cell's recorded violations.
///
/// # Errors
///
/// `<cell>: <n> violation(s), the first: <first>` when it has any.
pub(crate) fn violation_free(cell: &str, violations: &[String]) -> Result<(), String> {
    match violations.first() {
        Some(first) => Err(format!(
            "{cell}: {} violation(s), the first: {first}",
            violations.len()
        )),
        None => Ok(()),
    }
}

/// One study, typed by the value its run produces.
pub struct Study<T> {
    /// Name on the command line; also the stem of its fixture file.
    pub name: &'static str,
    /// One line for `twob list`.
    pub about: &'static str,
    /// Whether `run` honours `--quick` (a reduced op count).
    pub quick: bool,
    /// Runs the study at full scale, or reduced when handed `true`.
    pub run: fn(quick: bool) -> T,
    /// Renders the human-readable tables, newline-terminated.
    pub text: Render<T>,
    /// The deterministic `json:` payload, byte-stable across runs and
    /// machines; at full scale, what `tests/golden/<name>.json` pins.
    pub json: Option<Render<T>>,
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
            gate: None,
        }
    }
}

impl<T: std::fmt::Debug> Study<T> {
    /// A study whose whole outcome is its `json:` line — the common case.
    pub const fn pinned(
        name: &'static str,
        about: &'static str,
        run: fn(bool) -> T,
        text: Render<T>,
    ) -> Self {
        Study {
            json: Some(to_json),
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
    /// Whether it prints a `json:` line, and so is pinned by a golden file.
    pub json: bool,
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
    /// The gate's verdict, when one was asked for and exists.
    pub gate: Option<Verdict>,
}

impl Output {
    /// The payload of the printed `json:` line, if the study has one.
    pub fn json(&self) -> Option<&str> {
        self.stdout.lines().last()?.strip_prefix("json: ")
    }
}

/// A registry entry: a [`Study`] with its outcome type erased.
pub trait Entry: Sync {
    /// The entry's static facts.
    fn info(&self) -> Info;
    /// Runs the study once and renders everything derived from that run;
    /// the gate is evaluated only when `gate` is set.
    fn execute(&self, quick: bool, gate: bool) -> Output;
}

impl<T> Entry for Study<T> {
    fn info(&self) -> Info {
        Info {
            name: self.name,
            about: self.about,
            json: self.json.is_some(),
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
            gate: self.gate.filter(|_| gate).map(|check| check(&outcome)),
        }
    }
}

/// Every study, in the order the paper presents them and then the order
/// the extensions landed.
pub static REGISTRY: [&dyn Entry; 15] = [
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
    &Study::pinned(
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
    &Study::pinned(
        "tenant_sweep",
        "commit latency as 1-64 mixed-engine tenants share one 2B-SSD",
        |_| tenant_sweep::outcome(),
        tenant_sweep::render,
    ),
    &Study {
        gate: Some(|rows: &Vec<_>| repl_sweep::gate(rows)),
        ..Study::pinned(
            "repl_sweep",
            "replication: commit latency across policies, RTTs and ship schemes",
            |_| repl_sweep::run(),
            |rows| repl_sweep::render(rows),
        )
    },
    &Study {
        gate: Some(serve_sweep::gate),
        ..Study::pinned(
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
    // The `json:` line wraps the sweep in its parameters.
    &Study {
        json: Some(tier_sweep::json),
        gate: Some(tier_sweep::gate),
        ..Study::pinned(
            "tier_sweep",
            "BA-MMIO versus CXL.mem versus block commits, and hot/cold tiering",
            |_| tier_sweep::run(),
            tier_sweep::render,
        )
    },
    &Study {
        gate: Some(fault_sweep::gate),
        ..Study::pinned(
            "fault_sweep",
            "no acknowledged commit lost under device, failover and fleet faults",
            |_| fault_sweep::run(),
            fault_sweep::render,
        )
    },
];

/// Looks a study up by name.
pub fn find(name: &str) -> Option<&'static dyn Entry> {
    REGISTRY.iter().copied().find(|e| e.info().name == name)
}

/// The checkout `twob` reads and writes: the nearest ancestor of the
/// working directory that holds the workspace `Cargo.toml` (a `[workspace]`
/// manifest beside `crates/bench`). It is the working tree's, not the one
/// the binary was built in, so a `twob` built in one checkout and run in
/// another writes only the other.
fn checkout_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    let is_root = |dir: &Path| {
        dir.join("crates/bench").is_dir()
            && std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|toml| toml.lines().any(|line| line.trim() == "[workspace]"))
    };
    cwd.ancestors()
        .find(|dir| is_root(dir))
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} is not inside a twob checkout", cwd.display()))
}

/// Where the working checkout's golden fixtures live: `<name>.json` per
/// pinned study.
///
/// # Errors
///
/// The working directory is not inside a checkout.
pub fn golden_dir() -> Result<PathBuf, String> {
    Ok(checkout_root()?.join("crates/bench/tests/golden"))
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

    #[test]
    fn execute_appends_the_json_line_and_gates_only_on_request() {
        let study: Study<u32> = Study {
            quick: true,
            json: Some(|n| n.to_string()),
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
        assert_eq!(full.json(), Some("2"), "the payload of the printed line");
        assert_eq!(full.gate, Some(Ok("full".to_string())));
        assert_eq!(
            study.execute(true, true).gate,
            Some(Err("reduced".to_string()))
        );
        assert_eq!(study.execute(true, false).gate, None);
        let info = study.info();
        assert!(info.json && info.gate && info.quick);
        let silent = Study {
            json: None,
            ..study
        };
        assert_eq!(silent.execute(false, false).json(), None);
    }
}
