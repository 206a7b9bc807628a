//! The one `twob-bench` runner over the [`registry`](crate::registry).
//!
//! ```text
//! twob-bench <study>... [--gate] [--write] [--quick]
//! twob-bench all        [--gate] [--write] [--quick]
//! twob-bench list | regen
//! ```
//!
//! - `--gate` enforces the study's CI gate and exits non-zero on a
//!   violation;
//! - `--write` refreshes the study's tracked `BENCH_*.json`;
//! - `--quick` runs a reduced op count where the study has one;
//! - `list` prints one line per study — name, what it has (`json`,
//!   `fixture`, `gate`, `write`, `quick`), summary — for CI to select from;
//! - `regen` re-captures every golden fixture and reports per file whether
//!   it moved. Run it after an *intentional* timing change, then review
//!   `git diff crates/bench/tests/golden/`.
//!
//! Arguments are strict: an unknown study or flag, or a flag a named
//! study does not have, is an error and nothing runs. Under `all` a flag
//! applies wherever it exists and the runner names the studies it skips.

use std::io;

use crate::emit;
use crate::registry::{find, tracked_path, Info, GOLDEN_DIR, REGISTRY};

/// The three flags a run accepts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flags {
    /// `--gate`
    pub gate: bool,
    /// `--write`
    pub write: bool,
    /// `--quick`
    pub quick: bool,
}

impl Flags {
    /// Per flag: whether it is set, its spelling, whether `info` has it.
    fn against(self, info: &Info) -> [(bool, &'static str, bool); 3] {
        [
            (self.gate, "--gate", info.gate),
            (self.write, "--write", info.write),
            (self.quick, "--quick", info.quick),
        ]
    }
}

/// What one invocation asks for.
#[derive(Debug, PartialEq, Eq)]
pub enum Plan {
    /// Print the registry.
    List,
    /// Re-capture every golden fixture.
    Regen,
    /// Run these studies, in order, under these flags.
    Run(Vec<&'static str>, Flags),
}

/// Parses the arguments after the program name; flags may come before,
/// after or between study names.
///
/// # Errors
///
/// Returns what is wrong with the command line; the caller prints it with
/// [`usage`].
pub fn parse(args: &[String]) -> Result<Plan, String> {
    let mut flags = Flags::default();
    let mut names = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--gate" => flags.gate = true,
            "--write" => flags.write = true,
            "--quick" => flags.quick = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            name => names.push(name),
        }
    }
    match names.as_slice() {
        [] => Err("no study named".to_string()),
        [verb @ ("list" | "regen")] if flags != Flags::default() => {
            Err(format!("{verb} takes no flags"))
        }
        ["list"] => Ok(Plan::List),
        ["regen"] => Ok(Plan::Regen),
        ["all"] => Ok(Plan::Run(
            REGISTRY.iter().map(|e| e.info().name).collect(),
            flags,
        )),
        _ => {
            let mut studies = Vec::new();
            for name in names {
                let entry = find(name).ok_or_else(|| format!("unknown study {name}"))?;
                studies.push(entry.info().name);
            }
            match lacking(&studies, flags).into_iter().next() {
                Some(problem) => Err(problem),
                None => Ok(Plan::Run(studies, flags)),
            }
        }
    }
}

/// The usage text: the verbs, then the registry — every study and what
/// it has, which is what the flags apply to.
pub fn usage() -> String {
    format!(
        "usage: twob-bench <study>... [--gate] [--write] [--quick]\n\
         \x20      twob-bench all        [--gate] [--write] [--quick]\n\
         \x20      twob-bench list | regen\n\n\
         --gate enforces a study's CI gate, --write refreshes its tracked BENCH_*.json,\n\
         --quick runs its reduced op count; each applies to the studies that list it:\n\n{}",
        list()
    )
}

/// The registry as text, one study per line: name, what it has
/// (comma-separated, `-` for nothing), summary.
pub fn list() -> String {
    REGISTRY
        .iter()
        .map(|entry| {
            let info = entry.info();
            let has: Vec<&str> = [
                (info.json, "json"),
                (info.fixture, "fixture"),
                (info.gate, "gate"),
                (info.write, "write"),
                (info.quick, "quick"),
            ]
            .iter()
            .filter_map(|&(yes, what)| yes.then_some(what))
            .collect();
            let has = if has.is_empty() {
                "-".to_string()
            } else {
                has.join(",")
            };
            format!("{:<16} {has:<24} {}\n", info.name, info.about)
        })
        .collect()
}

/// One `<study> has no <flag>` line per set flag a study lacks: an error
/// for a named study, what a run under `all` says it skips.
pub fn lacking(studies: &[&'static str], flags: Flags) -> Vec<String> {
    let mut out = Vec::new();
    for info in studies
        .iter()
        .filter_map(|name| find(name))
        .map(|e| e.info())
    {
        for (set, flag, has) in flags.against(&info) {
            if set && !has {
                out.push(format!("{} has no {flag}", info.name));
            }
        }
    }
    out
}

/// Captures one fixture and reports `new` / `changed` / `unchanged`
/// against what is on disk. Returns whether the file's bytes moved.
fn write_fixture(name: &str, json: &str) -> io::Result<bool> {
    let path = format!("{GOLDEN_DIR}{name}.json");
    let fresh = format!("{json}\n");
    let current = std::fs::read_to_string(&path).ok();
    let status = match &current {
        None => "new",
        Some(old) if *old != fresh => "changed",
        Some(_) => "unchanged",
    };
    if status != "unchanged" {
        std::fs::write(&path, &fresh).unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
    emit(&format!(
        "{status:>9}  {name}.json ({} bytes)\n",
        fresh.len()
    ))?;
    Ok(status != "unchanged")
}

/// Re-captures every fixture the registry declares, all of them in one
/// invocation.
fn regen() -> io::Result<()> {
    let mut moved = 0;
    for entry in REGISTRY {
        if let Some(json) = entry.capture() {
            moved += usize::from(write_fixture(entry.info().name, &json)?);
        }
    }
    emit(&if moved == 0 {
        "\nall fixtures already match the current simulator\n".to_string()
    } else {
        format!("\n{moved} fixture(s) moved — review `git diff crates/bench/tests/golden/`\n")
    })
}

/// Runs the named studies in order: prints each one's tables and `json:`
/// line on stdout; gate verdicts, skipped flags and written paths go to
/// stderr. Returns the exit code — non-zero iff a gate failed.
fn run(studies: &[&'static str], flags: Flags) -> io::Result<i32> {
    for skip in lacking(studies, flags) {
        eprintln!("{skip}");
    }
    let mut failed = 0;
    for name in studies {
        let entry = find(name).expect("parse admits registered names only");
        let output = entry.execute(flags.quick, flags.gate);
        emit(&output.stdout)?;
        match output.gate {
            Some(Err(violation)) => {
                eprintln!("{name} gate failed: {violation}");
                failed += 1;
                continue;
            }
            Some(Ok(summary)) => eprintln!("{summary}"),
            None => {}
        }
        if let (true, Some((file, contents))) = (flags.write, output.tracked) {
            let path = tracked_path(file);
            std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("wrote {path}");
        }
    }
    Ok(i32::from(failed > 0))
}

/// The runner's entry point: `args` are the arguments after the program
/// name; the return value is the process exit code.
pub fn main(args: &[String]) -> i32 {
    let done = match parse(args) {
        Ok(Plan::List) => emit(&list()).map(|()| 0),
        Ok(Plan::Regen) => regen().map(|()| 0),
        Ok(Plan::Run(studies, flags)) => run(&studies, flags),
        Err(problem) => {
            eprintln!("error: {problem}\n\n{}", usage());
            return 2;
        }
    };
    done.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        1
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(args: &[&str]) -> Result<Plan, String> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    const GATE: Flags = Flags {
        gate: true,
        write: false,
        quick: false,
    };

    #[test]
    fn flags_may_come_before_or_after_study_names() {
        let expected = Ok(Plan::Run(vec!["serve_sweep", "tier_sweep"], GATE));
        assert_eq!(plan(&["serve_sweep", "tier_sweep", "--gate"]), expected);
        assert_eq!(plan(&["--gate", "serve_sweep", "tier_sweep"]), expected);
        assert_eq!(plan(&["serve_sweep", "--gate", "tier_sweep"]), expected);
        assert_eq!(
            plan(&["fig9_apps", "--quick"]),
            Ok(Plan::Run(
                vec!["fig9_apps"],
                Flags {
                    quick: true,
                    ..Flags::default()
                }
            ))
        );
    }

    #[test]
    fn typos_and_unsupported_flags_are_errors() {
        // The parent's binaries ran no gate and exited 0 on each of these.
        let unknown_flag = plan(&["cluster_sweep", "--gate-clustr"]).unwrap_err();
        assert!(unknown_flag.contains("--gate-clustr"), "{unknown_flag}");
        let unknown_study = plan(&["no_such_study"]).unwrap_err();
        assert!(unknown_study.contains("no_such_study"), "{unknown_study}");
        assert_eq!(
            plan(&["fig7_latency", "--write"]).unwrap_err(),
            "fig7_latency has no --write"
        );
        assert_eq!(
            plan(&["fig7_latency", "--gate"]).unwrap_err(),
            "fig7_latency has no --gate"
        );
        assert_eq!(
            plan(&["serve_sweep", "--quick"]).unwrap_err(),
            "serve_sweep has no --quick"
        );
        assert!(plan(&[]).is_err());
        assert!(plan(&["--gate"]).is_err());
        assert!(plan(&["list", "--gate"]).is_err());
        assert!(plan(&["regen", "--write"]).is_err());
        // `all` is the whole registry, not one more study to mix in.
        assert!(plan(&["all", "fig7_latency"]).is_err());
    }

    #[test]
    fn usage_names_every_study_and_flag() {
        let usage = usage();
        for entry in REGISTRY {
            assert!(usage.contains(entry.info().name));
        }
        for word in ["--gate", "--write", "--quick", "list", "regen", "all"] {
            assert!(usage.contains(word), "{word}");
        }
    }

    #[test]
    fn all_gate_runs_every_gate_and_names_what_it_skips() {
        let Ok(Plan::Run(studies, flags)) = plan(&["all", "--gate"]) else {
            panic!("all --gate is a run");
        };
        assert_eq!(studies.len(), REGISTRY.len());
        assert_eq!(flags, GATE);
        // Every study either has a gate to run or is named as skipped.
        let skipped = lacking(&studies, flags);
        for entry in REGISTRY {
            let info = entry.info();
            let named = skipped.contains(&format!("{} has no --gate", info.name));
            assert_eq!(info.gate, !named, "{}", info.name);
        }
        assert!(skipped.len() < REGISTRY.len(), "some study has a gate");
        // Named studies never skip: parse already refused the flag.
        assert!(lacking(&["serve_sweep"], GATE).is_empty());
    }

    #[test]
    fn list_prints_every_entry_exactly_once() {
        let listing = list();
        assert_eq!(listing.lines().count(), REGISTRY.len());
        for entry in REGISTRY {
            let name = entry.info().name;
            let lines = listing
                .lines()
                .filter(|l| l.split_whitespace().next() == Some(name))
                .count();
            assert_eq!(lines, 1, "{name}");
        }
    }
}
