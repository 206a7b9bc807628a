//! Runs one workload in this process: set-up, timed repetitions, output
//! checks, and the metrics of the untraced or the traced run.

use std::path::PathBuf;
use std::time::Instant;

use crate::json::{num, quote};
use crate::schema::{END_TO_END, PER_LAYER};
use crate::workloads::{self, host_parallelism, par_threads};
use crate::{probes, spans, Outcome, Scale, Values, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// How long the timed repetitions run, seconds.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where the traced run writes `trace-<workload>.json`.
    pub out_dir: PathBuf,
}

/// One metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The workload's digest and virtual-clock values (identical across
    /// repetitions, or the run is not `correct`).
    pub outcome: Outcome,
    pub sizes: String,
    /// Seconds of every timed (untraced) repetition, in order.
    pub rep_secs: Vec<f64>,
    pub setup_secs: Vec<f64>,
    /// Every output check that failed.
    pub errors: Vec<String>,
}

impl RunResult {
    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(m.name),
                    num(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Everything a reader (or `compare`) wants beside the result line.
    pub fn report(&self, args: &RunArgs) -> String {
        let mut text = format!(
            "workload {} seed {} scale 1/{} trace {}\nsizes: {}\n\
             host: nproc {}, parallel drives on {} threads\n",
            args.workload,
            args.seed,
            args.scale.0,
            u8::from(args.trace),
            self.sizes,
            host_parallelism(),
            par_threads()
        );
        if !self.setup_secs.is_empty() {
            text.push_str(&format!("setup_s: {:?}\n", self.setup_secs));
        }
        let q = Quartiles::of(&self.rep_secs);
        text.push_str(&format!(
            "rep_s: n {} min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6}\nrep_s all: {:?}\n",
            self.rep_secs.len(),
            q.min,
            q.q1,
            q.median,
            q.q3,
            q.max,
            self.rep_secs
        ));
        text.push_str(&format!(
            "digest {:016x}\nops {} ops_attempted {} ops_failed {} virtual_s {}\n",
            self.outcome.digest,
            self.outcome.ops,
            self.attempted,
            self.failed,
            num(self.outcome.virtual_secs)
        ));
        for (name, value) in &self.outcome.v {
            text.push_str(&format!("v {name} = {}\n", num(*value)));
        }
        for metric in &self.metrics {
            text.push_str(&format!(
                "metric {} = {} {}\n",
                metric.name,
                num(metric.value),
                metric.unit
            ));
        }
        for error in &self.errors {
            text.push_str(&format!("CHECK FAILED: {error}\n"));
        }
        text
    }
}

/// Order statistics of a sample; quartiles by the method of Python's
/// `statistics.quantiles(values, n=4)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quartiles {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Quartiles {
    pub fn of(values: &[f64]) -> Quartiles {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n == 0 {
            return Quartiles::default();
        }
        let at = |quarter: usize| -> f64 {
            if n == 1 {
                return sorted[0];
            }
            // The exclusive method: position q·(n+1)/4, its lower
            // neighbour clamped into the data (so tiny samples extrapolate,
            // as Python's do).
            let pos = (quarter * (n + 1)) as f64 / 4.0;
            let below = (pos.floor() as usize).clamp(1, n - 1);
            let frac = pos - below as f64;
            sorted[below - 1] + frac * (sorted[below] - sorted[below - 1])
        };
        Quartiles {
            min: sorted[0],
            q1: at(1),
            median: at(2),
            q3: at(3),
            max: sorted[n - 1],
        }
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn timed_rep(workload: &mut dyn Workload) -> (Outcome, f64) {
    let start = Instant::now();
    let outcome = workload.rep();
    (outcome, start.elapsed().as_secs_f64())
}

/// Checks a repetition against the first one: a deterministic simulator
/// must repeat its digest and every virtual-clock value bit for bit.
fn check_repeat(base: &Outcome, again: &Outcome, what: &str, errors: &mut Vec<String>) {
    if again != base && errors.len() < 16 {
        errors.push(format!(
            "{what} differs from the first repetition (digest {:016x} vs {:016x})",
            again.digest, base.digest
        ));
    }
}

/// Runs `args.workload` and returns its metrics.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}' (one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        ));
    }
    Ok(run_with(args, || {
        workloads::build(&args.workload, args.seed, args.scale).expect("a listed workload builds")
    }))
}

/// [`run`] over any workload: `build` is the set-up.
pub fn run_with(args: &RunArgs, build: impl Fn() -> Box<dyn Workload>) -> RunResult {
    let mut errors = Vec::new();

    // Set-up: input generation, device build and pre-fill, and one untimed
    // warm-up repetition. The untraced run does it several times over and
    // reports the median.
    let mut setup_secs = Vec::new();
    let mut state: Option<(Box<dyn Workload>, Outcome)> = None;
    for round in 0..if args.trace { 1 } else { SETUPS } {
        let start = Instant::now();
        let mut workload = build();
        let outcome = workload.rep();
        setup_secs.push(start.elapsed().as_secs_f64());
        if let Some((_, base)) = &state {
            check_repeat(base, &outcome, &format!("set-up {round}"), &mut errors);
        }
        state = Some((workload, outcome));
    }
    let (mut workload, base) = state.expect("at least one set-up ran");
    errors.extend(base.errors.iter().cloned());

    let min_reps = if args.scale.is_quick() { 2 } else { 5 };
    let mut rep_secs = Vec::new();
    let mut traced_secs = Vec::new();
    let mut kept_spans = Vec::new();
    let budget = if args.trace {
        // The traced run splits its time between the paired repetitions
        // and the probes and extra drives that follow.
        args.seconds * 0.8
    } else {
        args.seconds
    };
    let loop_start = Instant::now();
    loop {
        let (outcome, secs) = timed_rep(workload.as_mut());
        check_repeat(
            &base,
            &outcome,
            &format!("repetition {}", rep_secs.len()),
            &mut errors,
        );
        rep_secs.push(secs);
        let mut pair_secs = secs;
        if args.trace {
            spans::set_enabled(true);
            let (outcome, secs) = timed_rep(workload.as_mut());
            spans::set_enabled(false);
            check_repeat(&base, &outcome, "a traced repetition", &mut errors);
            traced_secs.push(secs);
            pair_secs += secs;
            let spans = spans::drain();
            if kept_spans.is_empty() {
                kept_spans = spans;
            }
        }
        let enough = rep_secs.len() >= if args.trace { min_reps / 2 } else { min_reps };
        if enough && loop_start.elapsed().as_secs_f64() + pair_secs > budget {
            break;
        }
    }
    let reps = Quartiles::of(&rep_secs);

    let mut metrics = Vec::new();
    if args.trace {
        spans::set_enabled(true);
        let mut values: Values = PER_LAYER.iter().map(|(name, _)| (*name, 0.0)).collect();
        for (name, value) in &base.v {
            if let Some(slot) = values.get_mut(name) {
                *slot = *value;
            }
        }
        workload.traced_extras(reps.median, &mut values);
        let probed = probes::run(args.seed, args.scale, &base.v);
        values.extend(probed);
        spans::set_enabled(false);
        kept_spans.extend(spans::drain());

        let traced = Quartiles::of(&traced_secs);
        values.insert(
            "bench.trace_overhead_pct",
            100.0 * (traced.median - reps.median) / reps.median,
        );
        values.insert(
            "bench.rep_spread_pct",
            100.0 * (reps.q3 - reps.q1) / reps.median,
        );
        values.insert("bench.host_parallelism", host_parallelism() as f64);
        values.insert("sim.secs_per_s", base.virtual_secs / reps.median);
        for (name, unit) in PER_LAYER {
            metrics.push(Metric {
                name,
                value: values[name],
                unit,
            });
        }
        let pid = workloads::NAMES
            .iter()
            .position(|name| *name == args.workload)
            .unwrap_or(0);
        let path = args.out_dir.join(format!("trace-{}.json", args.workload));
        let written = std::fs::create_dir_all(&args.out_dir).and_then(|()| {
            std::fs::write(&path, spans::chrome_trace(&args.workload, pid, &kept_spans))
        });
        match written {
            Ok(()) => eprintln!("trace: {} spans -> {}", kept_spans.len(), path.display()),
            Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
        }
    }

    errors.extend(workload.verify());

    if !args.trace {
        for (name, unit) in END_TO_END {
            let value = match name {
                "setup_s" => Quartiles::of(&setup_secs).median,
                "sim_ops_per_s" => base.ops as f64 / reps.median,
                "peak_rss_mb" => peak_rss_mib(),
                _ => base.v.get(name).copied().unwrap_or_else(|| {
                    errors.push(format!("the run produced no {name}"));
                    0.0
                }),
            };
            metrics.push(Metric { name, value, unit });
        }
    }

    // A failed check fails the workload's operations.
    let failed = if errors.is_empty() {
        base.failed
    } else {
        base.failed.max(1)
    };
    RunResult {
        correct: errors.is_empty() && base.failed == 0,
        attempted: base.attempted.max(1),
        failed,
        metrics,
        sizes: workload.sizes(),
        outcome: base,
        rep_secs,
        setup_secs,
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A workload whose digest changes on its `drift_at`-th repetition.
    struct Fake {
        reps: Rc<Cell<u64>>,
        drift_at: u64,
        failed: u64,
    }

    impl Workload for Fake {
        fn sizes(&self) -> String {
            "fake".into()
        }

        fn rep(&mut self) -> Outcome {
            self.reps.set(self.reps.get() + 1);
            let mut v = Values::new();
            for name in ["commit_p50_vus", "tail_p99_vus", "model_ops_per_s"] {
                v.insert(name, 1.5);
            }
            Outcome {
                ops: 10,
                attempted: 10,
                failed: self.failed,
                digest: u64::from(self.reps.get() == self.drift_at),
                virtual_secs: 1.0,
                v,
                errors: Vec::new(),
            }
        }
    }

    fn run_fake(drift_at: u64, failed: u64) -> RunResult {
        let args = RunArgs {
            workload: "fake".into(),
            seed: 1,
            seconds: 0.0,
            trace: false,
            scale: Scale::QUICK,
            out_dir: PathBuf::from("unused"),
        };
        let reps = Rc::new(Cell::new(0));
        run_with(&args, || {
            Box::new(Fake {
                reps: reps.clone(),
                drift_at,
                failed,
            })
        })
    }

    #[test]
    fn a_steady_workload_is_correct_and_prints_every_end_to_end_metric() {
        let result = run_fake(0, 0);
        assert!(result.correct, "{:?}", result.errors);
        assert_eq!((result.attempted, result.failed), (10, 0));
        assert_eq!(result.setup_secs.len(), SETUPS);
        let names: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
        let listed: Vec<&str> = END_TO_END.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, listed);
    }

    #[test]
    fn a_repetition_that_differs_fails_the_run() {
        // The fourth repetition is the first timed one.
        let result = run_fake(4, 0);
        assert!(!result.correct);
        assert!(
            result.failed >= 1,
            "a failed check fails the workload's ops"
        );
        assert!(result.errors[0].contains("differs"), "{:?}", result.errors);
        assert!(result.result_line().contains("\"correct\": false"));
    }

    #[test]
    fn failed_operations_fail_the_run() {
        let result = run_fake(0, 3);
        assert!(!result.correct);
        assert_eq!(result.failed, 3);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
        let q = Quartiles::of(&[7.0, 1.0, 11.0, 2.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 4.0, 9.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
    }
}
