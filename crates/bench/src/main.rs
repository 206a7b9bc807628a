//! `twob-bench`: see [`twob_bench::runner`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(twob_bench::runner::main(&args));
}
