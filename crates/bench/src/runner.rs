//! The study rows of `twob` over the [`registry`](twob_bench::registry).
//!
//! ```text
//! twob <study>... [--gate] [--quick]
//! twob all        [--gate] [--quick]
//! twob list | regen
//! ```
//!
//! - `--gate` enforces the study's CI gate and exits non-zero on a
//!   violation;
//! - `--quick` runs a reduced op count where the study has one;
//! - `list` prints one line per study — name, what it has (`json`, `gate`,
//!   `quick`), summary — for CI to select from;
//! - `regen` re-captures every golden fixture, the `json:` payload of a
//!   full-scale run of each study that prints one, and reports per file
//!   whether it moved. Run it after an *intentional* timing change, then
//!   review `git diff crates/bench/tests/golden/`.
//!
//! A flag a named study does not have is an error and nothing runs
//! ([`check`]). Under `all` a flag applies wherever it exists and the
//! runner names the studies it skips.

use std::error::Error;
use std::path::Path;

use twob_bench::registry::{find, golden_dir, REGISTRY};

use crate::args::Parsed;
use crate::commands::CliResult;
use crate::emit;

/// The studies a study line names: every one under `all`, else the
/// command, then every positional.
fn named(parsed: &Parsed) -> Vec<&str> {
    if parsed.command == "all" {
        return REGISTRY.iter().map(|e| e.info().name).collect();
    }
    std::iter::once(&parsed.command)
        .chain(&parsed.args)
        .map(String::as_str)
        .collect()
}

/// Refuses a study line before anything runs: a name that is no study,
/// or a flag a named study does not have.
///
/// # Errors
///
/// The first such problem.
pub fn check(parsed: &Parsed) -> Result<(), String> {
    let names = named(parsed);
    if let Some(name) = names.iter().find(|name| find(name).is_none()) {
        return Err(format!("unknown study {name}"));
    }
    match lacking(&names, parsed).into_iter().next() {
        Some(problem) => Err(problem),
        None => Ok(()),
    }
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
                (info.gate, "gate"),
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
            format!("{:<16} {has:<11} {}\n", info.name, info.about)
        })
        .collect()
}

/// One `<study> has no <flag>` line per given flag a study lacks: an error
/// for a named study, what a run under `all` says it skips.
pub fn lacking(studies: &[&str], parsed: &Parsed) -> Vec<String> {
    let mut out = Vec::new();
    for info in studies
        .iter()
        .filter_map(|name| find(name))
        .map(|e| e.info())
    {
        for (flag, has) in [("gate", info.gate), ("quick", info.quick)] {
            if parsed.is_set(flag) && !has {
                out.push(format!("{} has no --{flag}", info.name));
            }
        }
    }
    out
}

/// Captures one fixture and reports `new` / `changed` / `unchanged`
/// against what is on disk. Returns whether the file's bytes moved.
fn write_fixture(dir: &Path, name: &str, json: &str) -> Result<bool, Box<dyn Error>> {
    let path = dir.join(format!("{name}.json"));
    let fresh = format!("{json}\n");
    let current = std::fs::read_to_string(&path).ok();
    let status = match &current {
        None => "new",
        Some(old) if *old != fresh => "changed",
        Some(_) => "unchanged",
    };
    if status != "unchanged" {
        std::fs::write(&path, &fresh).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    emit(&format!(
        "{status:>9}  {name}.json ({} bytes)\n",
        fresh.len()
    ))?;
    Ok(status != "unchanged")
}

/// Re-captures every fixture, the `json:` payload of a full-scale run of
/// each study that prints one, all of them in one invocation; returns the
/// closing verdict.
pub fn regen() -> CliResult {
    let dir = golden_dir()?;
    let mut moved = 0;
    for entry in REGISTRY {
        if let Some(json) = entry.execute(false, false).json() {
            moved += usize::from(write_fixture(&dir, entry.info().name, json)?);
        }
    }
    Ok(if moved == 0 {
        "\nall fixtures already match the current simulator\n".to_string()
    } else {
        format!("\n{moved} fixture(s) moved — review `git diff crates/bench/tests/golden/`\n")
    })
}

/// The `<study>...` and `all` rows: runs the studies the line names, in
/// order. Prints each one's tables and `json:` line on stdout as it
/// finishes; gate verdicts and skipped flags go to stderr.
///
/// # Errors
///
/// An I/O error, or — once every study has run — a failed gate.
pub fn run(parsed: &Parsed) -> CliResult {
    let studies = named(parsed);
    for skip in lacking(&studies, parsed) {
        eprintln!("{skip}");
    }
    let mut failed = 0;
    for name in &studies {
        let entry = find(name).ok_or_else(|| format!("unknown study {name}"))?;
        let output = entry.execute(parsed.is_set("quick"), parsed.is_set("gate"));
        emit(&output.stdout)?;
        match output.gate {
            Some(Err(violation)) => {
                eprintln!("{name} gate failed: {violation}");
                failed += 1;
            }
            Some(Ok(summary)) => eprintln!("{summary}"),
            None => {}
        }
    }
    if failed > 0 {
        return Err(format!("{failed} gate(s) failed").into());
    }
    Ok(String::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use crate::commands::{lookup, HELP};

    /// A command line as `twob` reads it, or why it refuses it before
    /// anything runs.
    fn line(args: &[&str]) -> Result<Parsed, String> {
        let parsed = parse(args.iter().map(|a| a.to_string())).map_err(|e| e.to_string())?;
        lookup(&parsed).map_err(|e| e.to_string())?;
        Ok(parsed)
    }

    #[test]
    fn flags_may_follow_or_separate_study_names_but_not_lead() {
        for args in [
            ["serve_sweep", "tier_sweep", "--gate"],
            ["serve_sweep", "--gate", "tier_sweep"],
        ] {
            let parsed = line(&args).unwrap();
            assert_eq!(named(&parsed), ["serve_sweep", "tier_sweep"], "{args:?}");
            assert!(parsed.is_set("gate"), "{args:?}");
        }
        let quick = line(&["fig9_apps", "--quick"]).unwrap();
        assert!(quick.is_set("quick") && !quick.is_set("gate"));
        // A flag first is the command: no such subcommand or study.
        let leading = line(&["--gate", "serve_sweep", "tier_sweep"]).unwrap_err();
        assert!(leading.contains("--gate"), "{leading}");
    }

    #[test]
    fn typos_and_unsupported_flags_are_errors() {
        // The parent's binaries ran no gate and exited 0 on each of these.
        let unknown_flag = line(&["cluster_sweep", "--gate-clustr"]).unwrap_err();
        assert!(unknown_flag.contains("--gate-clustr"), "{unknown_flag}");
        let unknown_study = line(&["no_such_study"]).unwrap_err();
        assert!(unknown_study.contains("no_such_study"), "{unknown_study}");
        let unknown_study = line(&["fig7_latency", "no_such_study"]).unwrap_err();
        assert!(unknown_study.contains("no_such_study"), "{unknown_study}");
        // No row takes `--write`.
        let write = line(&["fig7_latency", "--write"]).unwrap_err();
        assert!(write.starts_with("unknown flag --write"), "{write}");
        assert_eq!(
            line(&["fig7_latency", "--gate"]).unwrap_err(),
            "fig7_latency has no --gate"
        );
        assert_eq!(
            line(&["serve_sweep", "--quick"]).unwrap_err(),
            "serve_sweep has no --quick"
        );
        assert!(line(&[]).is_err());
        assert!(line(&["--gate"]).is_err());
        assert!(line(&["list", "--gate"]).is_err());
        assert!(line(&["regen", "--write"]).is_err());
        // `all` is the whole registry, not one more study to mix in.
        assert!(line(&["all", "fig7_latency"]).is_err());
    }

    #[test]
    fn usage_names_every_study_and_flag() {
        for word in ["--gate", "--quick", "list", "regen", "all"] {
            assert!(HELP.contains(word), "{word}");
        }
        let listing = list();
        for entry in REGISTRY {
            assert!(listing.contains(entry.info().name));
        }
    }

    #[test]
    fn all_gate_runs_every_gate_and_names_what_it_skips() {
        let parsed = line(&["all", "--gate"]).unwrap();
        assert_eq!(named(&parsed).len(), REGISTRY.len());
        // Every study either has a gate to run or is named as skipped.
        let skipped = lacking(&named(&parsed), &parsed);
        for entry in REGISTRY {
            let info = entry.info();
            let named = skipped.contains(&format!("{} has no --gate", info.name));
            assert_eq!(info.gate, !named, "{}", info.name);
        }
        assert!(skipped.len() < REGISTRY.len(), "some study has a gate");
        // Named studies never skip: the lookup already refused the flag.
        assert!(lacking(&["serve_sweep"], &parsed).is_empty());
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
