//! The one command table: every command, its help lines and its
//! handler. Each handler returns what it prints.

use std::error::Error;

use twob_bench::registry::find;
use twob_sim::SimTime;
use twob_ssd::{Ssd, SsdConfig};

use crate::args::{ArgError, Parsed};
use crate::runner;

/// What a command prints, newline-terminated.
pub type CliResult = Result<String, Box<dyn Error>>;

/// Usage: one entry per [`ROWS`] row, its name first, every flag it takes
/// spelled `--name` (`[--name]` for a switch). The flags a row accepts are
/// read from here, so the help cannot name a flag the row refuses or miss
/// one it takes.
pub const HELP: &str = "\
twob — 2B-SSD (ISCA 2018) simulation CLI

studies, one per paper table or figure and sweep (`twob list` names them):
  <study>... [--gate] [--quick]
                                         run the named studies: --gate
                                         enforces their CI gates and
                                         --quick cuts their op counts
  all      [--gate] [--quick]            every study; a flag applies to the
                                         studies that have it
  list                                   every study and what it has
  regen                                  re-capture every golden fixture

other commands:
  replay   --trace FILE --device dc|ull  replay a block trace (W/R/T/F fmt)
  help                                   this text
";

/// What runs a command line.
pub type Handler = fn(&Parsed) -> CliResult;

/// The row every study name routes to.
const STUDY: &str = "<study>...";

/// One row per command: its name, how many positionals it takes (a study
/// any number of further study names), its handler. Its help lines and
/// flags are its entry in [`HELP`].
const ROWS: &[(&str, usize, Handler)] = &[
    (STUDY, usize::MAX, runner::run),
    ("all", 0, runner::run),
    ("list", 0, |_| Ok(runner::list())),
    ("regen", 0, |_| runner::regen()),
    ("replay", 0, replay),
    ("help", 0, |_| Ok(HELP.to_string())),
];

/// A row's entry in [`HELP`]: the line that starts `  <name>`, then every
/// more deeply indented line below it.
fn help_lines(name: &str) -> impl Iterator<Item = &'static str> + '_ {
    HELP.lines()
        .skip_while(move |line| {
            line.strip_prefix("  ")
                .and_then(|line| line.split(' ').next())
                != Some(name)
        })
        .enumerate()
        .take_while(|&(i, line)| i == 0 || line.starts_with("   "))
        .map(|(_, line)| line)
}

/// The flags a row takes: every `--name` its help lines show, in order.
fn flags(name: &str) -> Vec<&'static str> {
    let mut flags = Vec::new();
    for word in help_lines(name).flat_map(str::split_whitespace) {
        let word = word.trim_start_matches('[').trim_end_matches(']');
        if let Some(flag) = word.strip_prefix("--").filter(|f| !flags.contains(f)) {
            flags.push(flag);
        }
    }
    flags
}

/// The row a command names: `--help` and `-h` are `help`, a study is
/// the study row, and any other word is its own row name.
fn row_name(command: &str) -> &str {
    match command {
        "--help" | "-h" => "help",
        study if find(study).is_some() => STUDY,
        name => name,
    }
}

/// Checks a parsed command line against its row and returns what runs
/// it. A name that is no row is a study: it and every positional must be
/// in the registry, and each must have every flag given.
///
/// # Errors
///
/// An unknown command or study, a positional or flag the row does not
/// take, a flag a named study lacks: nothing has run.
pub fn lookup(parsed: &Parsed) -> Result<Handler, Box<dyn Error>> {
    let name = row_name(&parsed.command);
    let Some(&(_, positionals, run)) = ROWS.iter().find(|row| row.0 == name) else {
        return Err(format!("unknown subcommand or study {:?}", parsed.command).into());
    };
    if let Some(stray) = parsed.args.get(positionals) {
        return Err(ArgError::UnexpectedPositional(stray.clone()).into());
    }
    parsed.reject_unknown_flags(&flags(name))?;
    if name == STUDY {
        runner::check(parsed)?;
    }
    Ok(run)
}

/// Replays a block trace file on a fresh drive: the one way data from
/// outside the simulator enters it.
fn replay(parsed: &Parsed) -> CliResult {
    use twob_workloads::{parse_trace, replay_trace};
    let path = parsed.str_or("trace", "");
    if path.is_empty() {
        return Err("--trace FILE is required".into());
    }
    let device = parsed.str_or("device", "ull");
    let text = std::fs::read_to_string(&path)?;
    let ops = parse_trace(&text)?;
    let cfg = match device.as_str() {
        "dc" => SsdConfig::dc_ssd().bench_scale(),
        "ull" => SsdConfig::ull_ssd().bench_scale(),
        other => return Err(format!("--device must be dc or ull, not {other:?}").into()),
    };
    let mut ssd = Ssd::new(cfg);
    let report = replay_trace(&mut ssd, SimTime::ZERO, &ops)?;
    Ok(format!(
        "trace:        {path}\n\
         device:       {}\n\
         operations:   {}\n\
         cold reads:   {}\n\
         virtual time: {}\n\
         throughput:   {:.1} MB/s\n\
         ftl:          {}\n",
        ssd.label(),
        report.ops,
        report.cold_reads,
        report.elapsed,
        report.mb_per_sec(),
        ssd.ftl().stats()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use twob_bench::registry::REGISTRY;

    /// What `twob <args>` would print: whole lines, or the error.
    fn run(args: &[&str]) -> CliResult {
        let parsed = parse(args.iter().map(|s| s.to_string()))?;
        let text = lookup(&parsed)?(&parsed)?;
        assert!(text.ends_with('\n'), "{args:?} ends mid-line: {text:?}");
        Ok(text)
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        assert!(run(&["unknown-subcommand"]).is_err());
        // A word that is neither a row nor a study runs nothing.
        for gone in ["spec", "latency", "wal", "serve", "faults", "crash-demo"] {
            let refused = run(&[gone]).unwrap_err().to_string();
            assert_eq!(refused, format!("unknown subcommand or study {gone:?}"));
        }
        assert_eq!(
            run(&["replay"]).unwrap_err().to_string(),
            "--trace FILE is required"
        );
        // A flag the command does not take would silently run the
        // defaults: refuse it and say what is accepted.
        let typo = run(&["replay", "--tarce", "t.txt"]).unwrap_err();
        assert_eq!(
            typo.to_string(),
            "unknown flag --tarce (accepted: --trace, --device)"
        );
        assert!(run(&["help", "--json"]).is_err());
        // Input that must not be dropped silently: a stray positional, a
        // flag given twice, a value after a switch.
        assert!(run(&["replay", "stray", "--device", "dc"]).is_err());
        assert!(run(&["help", "extra"]).is_err());
        let repeated = run(&["replay", "--device", "dc", "--device", "ull"]).unwrap_err();
        assert!(repeated.to_string().contains("--device"), "{repeated}");
        let valued = run(&["list", "--gate", "5"]).unwrap_err();
        assert!(valued.to_string().contains("\"5\""), "{valued}");
    }

    #[test]
    fn one_namespace() {
        for &(name, ..) in ROWS {
            assert!(find(name).is_none(), "{name} is both a row and a study");
            assert!(help_lines(name).next().is_some(), "help names no {name}");
        }
        for verb in ["help", "all", "list", "regen", "replay"] {
            assert!(ROWS.iter().any(|row| row.0 == verb), "{verb}");
        }
    }

    /// The flag set each row accepts, read from its help lines: pinned,
    /// so an edit to the help text cannot widen or narrow it unnoticed.
    #[test]
    fn each_row_takes_the_flags_its_help_shows() {
        let accepted = [
            (STUDY, "gate quick"),
            ("all", "gate quick"),
            ("list", ""),
            ("regen", ""),
            ("replay", "trace device"),
            ("help", ""),
        ];
        let names: Vec<&str> = ROWS.iter().map(|row| row.0).collect();
        assert_eq!(names, accepted.map(|(name, _)| name));
        for (name, flags_then) in accepted {
            let flags_then: Vec<&str> = flags_then.split_whitespace().collect();
            assert_eq!(flags(name), flags_then, "{name}");
        }
        // The switches the parser knows are the ones the help brackets.
        let mut bracketed: Vec<&str> = HELP
            .split_whitespace()
            .filter_map(|word| word.strip_prefix("[--")?.strip_suffix(']'))
            .collect();
        bracketed.sort_unstable();
        bracketed.dedup();
        let mut switches = crate::args::SWITCHES;
        switches.sort_unstable();
        assert_eq!(bracketed, switches);
    }

    /// The words the argv fuzz draws from: every row, every study, every
    /// flag some row's help shows, and words no row takes.
    fn argv_alphabet() -> Vec<String> {
        let known_flags = ROWS.iter().flat_map(|row| flags(row.0));
        let other =
            "--tenats --bogus --json -- -h --help sweep 0 7 -1 18446744073709551616 x \u{2603}";
        ROWS.iter()
            .map(|row| row.0.to_string())
            .chain(REGISTRY.iter().map(|entry| entry.info().name.to_string()))
            .chain(known_flags.map(|flag| format!("--{flag}")))
            .chain(other.split(' ').chain([""]).map(String::from))
            .collect()
    }

    proptest::proptest! {
        /// No argv makes the parser or the lookup panic, and a line the
        /// lookup accepts gives only flags its row's help shows.
        #[test]
        fn lookup_accepts_only_flags_the_row_shows(
            picks in proptest::collection::vec(proptest::any::<proptest::sample::Index>(), 0..6)
        ) {
            let alphabet = argv_alphabet();
            let argv: Vec<String> = picks
                .iter()
                .map(|pick| alphabet[pick.index(alphabet.len())].clone())
                .collect();
            let Ok(parsed) = parse(argv.clone()) else {
                return Ok(());
            };
            if lookup(&parsed).is_ok() {
                let row = row_name(&parsed.command);
                let shown = flags(row);
                for flag in parsed.flags.keys() {
                    proptest::prop_assert!(
                        shown.contains(&flag.as_str()),
                        "{argv:?} ran {row} with --{flag}, which its help does not show"
                    );
                }
            }
        }
    }

    #[test]
    fn replay_runs_a_trace_file() {
        let dir = std::env::temp_dir().join("twob-replay-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.txt");
        std::fs::write(&path, "W 0 2\nF\nR 0 2\nT 0 1\n").unwrap();
        let path = path.to_str().unwrap();
        let out = run(&["replay", "--trace", path, "--device", "dc"]).unwrap();
        assert!(out.contains("operations:   4\n"), "{out}");
        // A page count past u32 is refused with its line, not wrapped.
        let wide = dir.join("wide.txt");
        std::fs::write(&wide, "F\nW 0 4294967297\n").unwrap();
        let refused = run(&["replay", "--trace", wide.to_str().unwrap()]).unwrap_err();
        assert_eq!(
            refused.to_string(),
            "trace line 2: pages is out of range (at most 4294967295)"
        );
    }
}
