//! `benchmark`: see `twob_benchmark::cli::USAGE`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(twob_benchmark::cli::main(&args));
}
