//! `twob` — command-line interface to the 2B-SSD simulation.
//!
//! ```text
//! twob spec                                        # paper Table I
//! twob devices                                     # calibrated profiles
//! twob latency --device ull --op read --size 4096  # one latency probe
//! twob wal --scheme ba --commits 1000 --payload 128
//! twob ycsb --log twob --payload 256 --ops 10000
//! twob crash-demo                                  # durability windows
//! twob help
//! ```

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let done = match args::parse(std::env::args().skip(1)) {
        Ok(parsed) => commands::dispatch(&parsed),
        Err(e) => Err(format!("{e}\n\n{}", commands::HELP).into()),
    };
    match done.and_then(|text| Ok(twob_bench::emit(&text)?)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
