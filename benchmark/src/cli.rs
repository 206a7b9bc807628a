//! The command line: the one-workload mode the benchmark contract calls,
//! and `run` / `trace` / `compare` built on top of it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::compare;
use crate::json::{obj, Json};
use crate::runner::{self, RunArgs, RunResult};
use crate::workloads::{self, host_parallelism, par_threads};
use crate::Scale;

pub const USAGE: &str = "\
usage:
  benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out-dir DIR]
      one workload in this process; the last line of output is the result
  benchmark run   [--seed N] [--seconds S] [--quick] [--out FILE]
      every workload untraced, each in a child process; end-to-end metrics
  benchmark trace [--seed N] [--seconds S] [--quick] [--out FILE]
      every workload traced; per-layer metrics and benchmark/out/trace.json
  benchmark compare A.json B.json [--benchmark-json FILE]
      applies BENCHMARK.json's bounds to two result files
workloads: serve_byte serve_block sharded_1024 fleet_chaos db_mix tier_churn paper_floor";

/// Default seed of `run` and `trace`.
const DEFAULT_SEED: u64 = 61;
/// Default `--seconds`: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 8.0;
const DEFAULT_OUT_DIR: &str = "benchmark/out";

/// `--flag value` pairs and bare `--switch`es after the positionals.
struct Flags {
    positional: Vec<String>,
    values: BTreeMap<String, String>,
}

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            positional: Vec::new(),
            values: BTreeMap::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) if switches.contains(&name) => {
                    flags.values.insert(name.to_string(), "1".to_string());
                }
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    flags.values.insert(name.to_string(), value.clone());
                }
                None => flags.positional.push(arg.clone()),
            }
        }
        Ok(flags)
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name}: cannot read '{text}'")),
        }
    }

    fn scale(&self) -> Scale {
        if self.values.contains_key("quick") {
            Scale::QUICK
        } else {
            Scale::FULL
        }
    }

    fn known(&self, names: &[&str]) -> Result<(), String> {
        match self.values.keys().find(|k| !names.contains(&k.as_str())) {
            Some(unknown) => Err(format!("unknown flag --{unknown}")),
            None => Ok(()),
        }
    }
}

/// Runs the command line; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let outcome = match args.first().map(String::as_str) {
        Some("run") => all_workloads(&args[1..], false),
        Some("trace") => all_workloads(&args[1..], true),
        Some("compare") => compare_files(&args[1..]),
        Some(first) if first.starts_with("--") => one_workload(args),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            2
        }
    }
}

/// The contract's mode: one workload, result on the last line.
fn one_workload(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, &["quick"])?;
    flags.known(&["workload", "seed", "seconds", "trace", "quick", "out-dir"])?;
    if !flags.positional.is_empty() {
        return Err(USAGE.to_string());
    }
    let run_args = RunArgs {
        workload: flags.get("workload", String::new())?,
        seed: flags.get("seed", DEFAULT_SEED)?,
        seconds: flags.get("seconds", DEFAULT_SECONDS)?,
        trace: match flags.get("trace", 0u8)? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        scale: flags.scale(),
        out_dir: PathBuf::from(flags.get("out-dir", DEFAULT_OUT_DIR.to_string())?),
    };
    let result = runner::run(&run_args)?;
    print!("{}", result.report(&run_args));
    println!("detail {}", detail(&result).render());
    println!("{}", result.result_line());
    Ok(if result.correct { 0 } else { 1 })
}

/// What `run`/`trace` keep of a child's run beside its result line.
fn detail(result: &RunResult) -> Json {
    let secs = |values: &[f64]| Json::Arr(values.iter().map(|s| Json::Num(*s)).collect());
    obj([
        (
            "digest",
            Json::Str(format!("{:016x}", result.outcome.digest)),
        ),
        ("ops", Json::Num(result.outcome.ops as f64)),
        ("sizes", Json::Str(result.sizes.clone())),
        ("rep_secs", secs(&result.rep_secs)),
        ("setup_secs", secs(&result.setup_secs)),
        (
            "virtual",
            obj(result
                .outcome
                .v
                .iter()
                .map(|(name, value)| (*name, Json::Num(*value)))),
        ),
        (
            "errors",
            Json::Arr(result.errors.iter().cloned().map(Json::Str).collect()),
        ),
    ])
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// `run` / `trace`: every workload in its own child process (so peak RSS
/// is per workload), results gathered into one file with their provenance.
fn all_workloads(args: &[String], trace: bool) -> Result<i32, String> {
    let flags = Flags::parse(args, &["quick"])?;
    flags.known(&["seed", "seconds", "quick", "out"])?;
    let seed: u64 = flags.get("seed", DEFAULT_SEED)?;
    let seconds: f64 = flags.get("seconds", DEFAULT_SECONDS)?;
    let out_dir = PathBuf::from(DEFAULT_OUT_DIR);
    let default_out = out_dir.join(if trace {
        "trace-metrics.json"
    } else {
        "run.json"
    });
    let out_path = PathBuf::from(flags.get("out", default_out.display().to_string())?);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;

    let mut results = BTreeMap::new();
    let mut all_correct = true;
    for name in workloads::NAMES {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", name, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .args(["--out-dir", &out_dir.display().to_string()]);
        if flags.scale().is_quick() {
            child.arg("--quick");
        }
        let output = child
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{name}: cannot start the child: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let mut lines = stdout.lines().rev();
        let result = lines
            .next()
            .and_then(|line| Json::parse(line).ok())
            .ok_or(format!("{name}: the child printed no result line"))?;
        let detail = lines
            .find_map(|line| line.strip_prefix("detail "))
            .and_then(|text| Json::parse(text).ok())
            .unwrap_or(Json::Null);
        all_correct &= output.status.success() && result.get("correct") == Some(&Json::Bool(true));
        results.insert(name, obj([("result", result), ("detail", detail)]));
        println!();
    }

    let document = obj([
        (
            "kind",
            Json::Str(if trace { "trace" } else { "run" }.into()),
        ),
        (
            "provenance",
            obj([
                ("seed", Json::Num(seed as f64)),
                ("scale_divisor", Json::Num(flags.scale().0 as f64)),
                ("seconds", Json::Num(seconds)),
                ("nproc", Json::Num(host_parallelism() as f64)),
                ("par_threads", Json::Num(par_threads() as f64)),
                ("rustc", Json::Str(env!("BENCH_RUSTC_VERSION").into())),
                ("git_commit", Json::Str(git_commit())),
            ]),
        ),
        ("workloads", obj(results)),
    ]);
    write_file(&out_path, &document.render())?;
    eprintln!("results -> {}", out_path.display());
    if trace {
        let merged = merge_traces(&out_dir)?;
        eprintln!("spans   -> {}", merged.display());
    }
    Ok(if all_correct { 0 } else { 1 })
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Joins the children's `trace-<workload>.json` files into one Chrome
/// trace, one process per workload.
fn merge_traces(out_dir: &Path) -> Result<PathBuf, String> {
    let mut events = Vec::new();
    let mut aggregates = BTreeMap::new();
    for name in workloads::NAMES {
        let path = out_dir.join(format!("trace-{name}.json"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        events.extend(
            doc.get("traceEvents")
                .map_or(&[][..], Json::as_arr)
                .to_vec(),
        );
        aggregates.insert(name, doc.get("aggregates").cloned().unwrap_or(Json::Null));
    }
    let merged = obj([
        ("displayTimeUnit", Json::Str("ns".into())),
        ("traceEvents", Json::Arr(events)),
        ("aggregates", obj(aggregates)),
    ]);
    let path = out_dir.join("trace.json");
    write_file(&path, &merged.render())?;
    Ok(path)
}

fn compare_files(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, &[])?;
    flags.known(&["benchmark-json"])?;
    let [a, b] = flags.positional.as_slice() else {
        return Err(USAGE.to_string());
    };
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let spec = read(&flags.get("benchmark-json", "BENCHMARK.json".to_string())?)?;
    let report = compare::compare(&spec, &read(a)?, &read(b)?)?;
    print!("{}", report.text);
    Ok(if report.clean { 0 } else { 1 })
}
