//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints two lines on stdout: a report carrying the
//! machine fingerprint, the run's parameters and any failure messages, and
//! last the result line (`correct`, `attempted`, `failed`, `metrics`).
//! Exits 2 on a usage error.

use pass_core::report::json_str;
use perfbench::{run, RunSpec, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// The machine fingerprint every result carries, as
/// `{"nproc":..,"cpu_model":..,"rustc":..,"profile":..}`: figures from
/// machines with different fingerprints are not comparable.
fn fingerprint_json() -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":{},\"rustc\":{},\"profile\":{}}}",
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE"))
    )
}

fn parse_args() -> Result<(String, RunSpec), String> {
    let mut workload = None;
    let mut spec = RunSpec {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => spec.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                spec.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                spec.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| {
        format!(
            "--workload is required (one of: {})\n{USAGE}",
            WORKLOADS.join(", ")
        )
    })?;
    Ok((workload, spec))
}

fn main() {
    let (workload, spec) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match run(&workload, &spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let list = |xs: &[String]| xs.iter().map(|x| json_str(x)).collect::<Vec<_>>().join(",");
    println!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"fingerprint\":{},\"info\":{{{}}},\"problems\":[{}],\"failures\":[{}],\"trace_file\":{}}}",
        json_str(&workload),
        spec.seed,
        spec.seconds,
        spec.trace,
        fingerprint_json(),
        report
            .info
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(","),
        list(&report.problems),
        list(&report.failures),
        report
            .trace_file
            .as_ref()
            .map_or_else(|| "null".into(), |p| json_str(&p.display().to_string())),
    );
    println!("{}", report.result_line(spec.trace));
}
