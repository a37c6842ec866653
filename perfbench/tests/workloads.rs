//! Short runs of every workload, traced and untraced, and the metric names
//! against `BENCHMARK.json`.

use std::collections::BTreeMap;

use pass_core::json::{self, JsonValue};
use perfbench::{run, RunSpec, END_TO_END, PER_LAYER, WORKLOADS};

fn short(trace: bool) -> RunSpec {
    RunSpec {
        seed: 5,
        seconds: 0.3,
        trace,
    }
}

/// The result line's metrics as `name -> (value, unit)`.
fn metrics(line: &str) -> (JsonValue, BTreeMap<String, (f64, String)>) {
    let v = json::parse(line).expect("result line is JSON");
    let m = v
        .get("metrics")
        .and_then(JsonValue::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(k, m)| {
            let value = m.get("value").and_then(JsonValue::as_f64).expect("value");
            let unit = m.get("unit").and_then(JsonValue::as_str).expect("unit");
            (k.clone(), (value, unit.to_string()))
        })
        .collect();
    (v, m)
}

fn check_short_run(workload: &str, trace: bool) -> BTreeMap<String, (f64, String)> {
    let report = run(workload, &short(trace)).expect("known workload");
    assert!(
        report.correct(),
        "{workload}: {:?} {:?}",
        report.problems,
        report.failures
    );
    let (v, m) = metrics(&report.result_line(trace));
    assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(true));
    assert!(v.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1);
    assert_eq!(v.get("failed").and_then(JsonValue::as_u64), Some(0));
    let want: Vec<&str> = if trace { PER_LAYER } else { END_TO_END }
        .iter()
        .map(|(n, _)| *n)
        .collect();
    assert_eq!(
        m.keys().map(String::as_str).collect::<Vec<_>>().len(),
        want.len()
    );
    for name in want {
        assert!(m.contains_key(name), "{workload}: no {name}");
    }
    m
}

#[test]
fn suite_cold_short() {
    let m = check_short_run("suite_cold", false);
    assert_eq!(m["design_latency_cycles"].0, 134_336.0);
    assert!(m["setup_s"].0 > 0.0 && m["op_ms_p50"].0 > 0.0);
    let t = check_short_run("suite_cold", true);
    assert_eq!(t["interp.steps"].0, 283_617.0);
    assert!(t["adaptor.pass_runs"].0 > 0.0);
    assert!(t["cosim.ms"].0 > 0.0);
}

#[test]
fn fuzz_campaign_short() {
    let m = check_short_run("fuzz_campaign", false);
    assert!(m["design_latency_cycles"].0 > 0.0 && m["ops_per_s"].0 > 0.0);
    let t = check_short_run("fuzz_campaign", true);
    assert!(t["interp.steps"].0 > 0.0 && t["llvm.cleanup_ms"].0 > 0.0);
    assert!(t["adaptor.pass_runs"].0 > 0.0 && t["interp.ns_per_step"].0 > 0.0);
}

#[test]
fn serve_mixed_short() {
    let m = check_short_run("serve_mixed", false);
    assert!(m["design_latency_cycles"].0 > 0.0 && m["op_ms_p90"].0 > 0.0);
    let t = check_short_run("serve_mixed", true);
    assert_eq!(t["serve.evictions"].0, 0.0);
    assert!(t["json.parse_response_ms"].0 > 0.0);
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run("nope", &short(false)).is_err());
}

#[test]
fn benchmark_json_names_every_metric_and_workload() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let v = json::parse(&text).expect("BENCHMARK.json is JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        v.get(key)
            .and_then(JsonValue::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(END_TO_END));
    assert_eq!(names("per_layer"), own(PER_LAYER));
    for (workload, _) in names("workloads") {
        assert!(WORKLOADS.contains(&workload.as_str()), "{workload}");
    }
}
