//! `twob` — the one front door to the 2B-SSD simulation: every study of
//! the paper's evaluation, and replay of outside block traces.
//!
//! ```text
//! twob fig7_latency fig8_bandwidth                 # studies, by name
//! twob serve_sweep fault_sweep --gate              # ... and their CI gates
//! twob replay --trace FILE --device dc|ull         # a block trace
//! twob all | list | regen | help
//! ```
//!
//! One parser (`args::parse`) reads every line and one table
//! (`commands::ROWS`) routes it. Exit codes: 2 when the line is refused
//! before anything runs, 1 when a run fails, 0 otherwise.

mod args;
mod commands;
mod runner;

use std::process::ExitCode;

/// Writes a run's output to stdout in one call. A reader that has seen
/// enough and closed the pipe (`| head -1`) is not a failure.
fn emit(text: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    match std::io::stdout().write_all(text.as_bytes()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(e),
        _ => Ok(()),
    }
}

fn main() -> ExitCode {
    let checked = args::parse(std::env::args().skip(1))
        .map_err(Into::into)
        .and_then(|parsed| commands::lookup(&parsed).map(|run| (parsed, run)));
    let (parsed, run) = match checked {
        Ok(line) => line,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", commands::HELP);
            return ExitCode::from(2);
        }
    };
    match run(&parsed).and_then(|text| Ok(emit(&text)?)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
