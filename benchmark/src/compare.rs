//! `benchmark compare A.json B.json`: applies `BENCHMARK.json`'s bounds to
//! two result files, workload by workload and metric by metric.
//!
//! A is the parent, B the change. A host-clock metric is *worse* when B's
//! reading is worse than A's by more than the metric's bound, *better* when
//! it is better by more than the bound, *same* otherwise — and
//! *unresolved* when either side's own repetitions spread wider than the
//! bound, so the difference cannot be told from noise. Virtual-clock values
//! and digests are functions of the seed: any difference at all is listed.

use crate::json::{num, Json};
use crate::runner::Quartiles;

/// The rendered comparison.
pub struct Report {
    pub text: String,
    /// No metric worse, no digest or virtual-clock difference.
    pub clean: bool,
}

fn metric_value(run: &Json, workload: &str, metric: &str) -> Option<f64> {
    run.get("workloads")?
        .get(workload)?
        .get("result")?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn detail<'a>(run: &'a Json, workload: &str, key: &str) -> Option<&'a Json> {
    run.get("workloads")?.get(workload)?.get("detail")?.get(key)
}

/// Interquartile range of a side's repetition seconds over their median.
fn spread(run: &Json, workload: &str, key: &str) -> f64 {
    let secs: Vec<f64> = detail(run, workload, key)
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    if secs.len() < 2 {
        return 0.0;
    }
    let q = Quartiles::of(&secs);
    (q.q3 - q.q1).abs() / q.median
}

/// Compares result files `a` (parent) and `b` (change) under `spec`.
///
/// # Errors
///
/// A `spec` without workloads or end-to-end metrics.
pub fn compare(spec: &Json, a: &Json, b: &Json) -> Result<Report, String> {
    let workloads = spec.get("workloads").map_or(&[][..], Json::as_arr);
    let metrics = spec.get("end_to_end").map_or(&[][..], Json::as_arr);
    if workloads.is_empty() || metrics.is_empty() {
        return Err("BENCHMARK.json lists no workloads or end_to_end metrics".into());
    }
    let mut text = String::new();
    let mut clean = true;
    for pa in ["seed", "scale_divisor", "seconds"] {
        let side = |run: &Json| run.get("provenance").and_then(|p| p.get(pa)).cloned();
        if side(a) != side(b) {
            text.push_str(&format!("note: the two files differ in {pa}\n"));
        }
    }
    for workload in workloads {
        let Some(name) = workload.get("name").and_then(Json::as_str) else {
            continue;
        };
        text.push_str(&format!("{name}\n"));
        for metric in metrics {
            let field = |key: &str| metric.get(key).and_then(Json::as_str).unwrap_or("");
            let (metric_name, unit) = (field("name"), field("unit"));
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (Some(va), Some(vb)) = (
                metric_value(a, name, metric_name),
                metric_value(b, name, metric_name),
            ) else {
                text.push_str(&format!("  {metric_name:<18} missing from a result file\n"));
                clean = false;
                continue;
            };
            let gain = if field("better") == "lower" {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let verdict = if unit.starts_with("v_") {
                if va.to_bits() == vb.to_bits() {
                    "same"
                } else {
                    clean = false;
                    "DIFFERS (virtual clock)"
                }
            } else {
                let key = if metric_name == "setup_s" {
                    "setup_secs"
                } else {
                    "rep_secs"
                };
                let noise = if metric_name == "peak_rss_mb" {
                    0.0
                } else {
                    spread(a, name, key).max(spread(b, name, key))
                };
                if noise > bound {
                    "unresolved"
                } else if gain < -bound {
                    clean = false;
                    "WORSE"
                } else if gain > bound {
                    "better"
                } else {
                    "same"
                }
            };
            text.push_str(&format!(
                "  {metric_name:<18} {:>16} -> {:<16} {unit:<8} {:+7.2}% (bound {:.0}%)  {verdict}\n",
                num(va),
                num(vb),
                100.0 * gain,
                100.0 * bound
            ));
        }
        let digests = (detail(a, name, "digest"), detail(b, name, "digest"));
        if digests.0 != digests.1 {
            clean = false;
            text.push_str(&format!(
                "  digest DIFFERS: {:?} vs {:?}\n",
                digests.0.and_then(Json::as_str),
                digests.1.and_then(Json::as_str)
            ));
        }
        let virtuals = (detail(a, name, "virtual"), detail(b, name, "virtual"));
        if let (Some(va), Some(vb)) = (
            virtuals.0.and_then(Json::as_obj),
            virtuals.1.and_then(Json::as_obj),
        ) {
            for key in va.keys().chain(vb.keys().filter(|k| !va.contains_key(*k))) {
                if va.get(key) != vb.get(key) {
                    clean = false;
                    text.push_str(&format!(
                        "  virtual {key} DIFFERS: {} vs {}\n",
                        va.get(key).map_or("-".into(), Json::render),
                        vb.get(key).map_or("-".into(), Json::render)
                    ));
                }
            }
        }
    }
    text.push_str(if clean {
        "no metric worse; digests and virtual-clock values identical\n"
    } else {
        "DIFFERENCES FOUND (see WORSE / DIFFERS / missing above)\n"
    });
    Ok(Report { text, clean })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Json {
        Json::parse(
            r#"{"workloads":[{"name":"w","why":"x"}],
                "end_to_end":[{"name":"sim_ops_per_s","unit":"ops/s","better":"higher","bound":0.1},
                              {"name":"commit_p50_vus","unit":"v_us","better":"lower","bound":0.01}]}"#,
        )
        .unwrap()
    }

    fn run(ops_per_s: f64, p50: f64, reps: &str, digest: &str) -> Json {
        Json::parse(&format!(
            r#"{{"workloads":{{"w":{{"result":{{"metrics":{{
                "sim_ops_per_s":{{"value":{ops_per_s},"unit":"ops/s"}},
                "commit_p50_vus":{{"value":{p50},"unit":"v_us"}}}}}},
                "detail":{{"digest":"{digest}","rep_secs":{reps},"virtual":{{"k":{p50}}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn grades_by_bound_and_flags_virtual_differences() {
        let steady = "[1.0,1.01,1.0,0.99,1.0]";
        let a = run(1000.0, 0.5, steady, "aa");
        let same = compare(&spec(), &a, &run(1050.0, 0.5, steady, "aa")).unwrap();
        assert!(same.clean, "{}", same.text);
        let worse = compare(&spec(), &a, &run(800.0, 0.5, steady, "aa")).unwrap();
        assert!(
            !worse.clean && worse.text.contains("WORSE"),
            "{}",
            worse.text
        );
        let better = compare(&spec(), &a, &run(1300.0, 0.5, steady, "aa")).unwrap();
        assert!(
            better.clean && better.text.contains("better"),
            "{}",
            better.text
        );
        let noisy = compare(&spec(), &a, &run(800.0, 0.5, "[1.0,1.5,0.7,1.2,1.0]", "aa")).unwrap();
        assert!(noisy.text.contains("unresolved"), "{}", noisy.text);
        let moved = compare(&spec(), &a, &run(1000.0, 0.6, steady, "bb")).unwrap();
        assert!(
            !moved.clean && moved.text.contains("digest DIFFERS"),
            "{}",
            moved.text
        );
        assert!(moved.text.contains("virtual k DIFFERS"), "{}", moved.text);
    }
}
