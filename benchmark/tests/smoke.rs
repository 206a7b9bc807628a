//! Schema-sync and smoke test: every workload and every probe at the
//! `--quick` scale, in seconds, in a debug build.
//!
//! - the workload and metric names the benchmark emits equal those in
//!   `BENCHMARK.json` exactly (none missing, none extra, units equal);
//! - the same seed twice gives identical virtual-clock metrics and
//!   digests; another seed gives other digests;
//! - the traced run writes a Chrome trace that parses.

use std::collections::BTreeMap;
use std::path::PathBuf;

use twob_benchmark::json::Json;
use twob_benchmark::runner::{run, RunArgs, RunResult};
use twob_benchmark::schema::{END_TO_END, PER_LAYER};
use twob_benchmark::workloads::NAMES;
use twob_benchmark::Scale;

fn spec() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-out")
}

fn quick(workload: &str, seed: u64, trace: bool) -> RunResult {
    run(&RunArgs {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::QUICK,
        out_dir: out_dir(),
    })
    .expect("a known workload")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn listed(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .expect("the list exists")
        .as_arr()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("a string")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_names_the_workloads_and_metrics_the_code_emits() {
    let spec = spec();
    let workloads: Vec<String> = spec
        .get("workloads")
        .expect("workloads")
        .as_arr()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, NAMES, "workload names, in order");

    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&spec, "end_to_end"), own(&END_TO_END));
    assert_eq!(listed(&spec, "per_layer"), own(&PER_LAYER));
    for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(well_formed(name), "metric name {name:?}");
    }
    let mut seen = BTreeMap::new();
    for name in NAMES
        .iter()
        .chain(END_TO_END.iter().map(|(n, _)| n))
        .chain(PER_LAYER.iter().map(|(n, _)| n))
    {
        assert!(seen.insert(*name, ()).is_none(), "{name} is used twice");
    }
    for metric in spec.get("end_to_end").expect("end_to_end").as_arr() {
        let bound = metric.get("bound").and_then(Json::as_f64).expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
}

#[test]
fn every_workload_runs_checks_and_repeats_at_quick_scale() {
    for workload in NAMES {
        let first = quick(workload, 61, false);
        assert!(first.correct, "{workload}: {:?}", first.errors);
        assert_eq!(first.failed, 0, "{workload}");
        assert!(first.attempted >= 1 && first.outcome.ops >= 1, "{workload}");
        let emitted: Vec<(&str, &str)> = first.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(emitted, END_TO_END, "{workload} end-to-end metrics");
        for metric in &first.metrics {
            assert!(
                metric.value.is_finite() && metric.value > 0.0,
                "{workload} {} = {}",
                metric.name,
                metric.value
            );
        }
        // The contract's result line holds exactly its four keys.
        let line = Json::parse(&first.result_line()).expect("the result line parses");
        let keys: Vec<&str> = line
            .as_obj()
            .expect("an object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            ["attempted", "correct", "failed", "metrics"],
            "{workload}"
        );

        let again = quick(workload, 61, false);
        assert_eq!(
            again.outcome, first.outcome,
            "{workload}: same seed, same answer"
        );
        let other = quick(workload, 62, false);
        assert!(other.correct, "{workload} seed 62: {:?}", other.errors);
        assert_ne!(
            other.outcome.digest, first.outcome.digest,
            "{workload}: another seed"
        );
    }
}

#[test]
fn every_traced_run_prints_every_per_layer_metric_and_a_trace() {
    for workload in NAMES {
        let traced = quick(workload, 61, true);
        assert!(traced.correct, "{workload}: {:?}", traced.errors);
        let emitted: Vec<(&str, &str)> = traced.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(emitted, PER_LAYER, "{workload} per-layer metrics");
        for metric in &traced.metrics {
            assert!(metric.value.is_finite(), "{workload} {}", metric.name);
            // A probe metric is measured in every run, whichever workload.
            if metric.name.contains("_ns_per_") {
                assert!(metric.value > 0.0, "{workload} {} = 0", metric.name);
            }
        }
        let path = out_dir().join(format!("trace-{workload}.json"));
        let text = std::fs::read_to_string(&path).expect("the traced run wrote its spans");
        let doc = Json::parse(&text).expect("the trace parses");
        let events = doc.get("traceEvents").expect("traceEvents").as_arr();
        assert!(events.len() > 10, "{workload}: {} events", events.len());
        assert!(doc.get("aggregates").and_then(Json::as_obj).is_some());
    }
}
