//! The adaptor stack's benchmark: three in-process workloads, one per user
//! of the system, each driving the program only through its public entry
//! points. See `README.md` next to this crate for why each workload exists,
//! what one op is, and which layer metric should move which end-to-end
//! metric.
//!
//! * `suite` — `suite_cold`: one `driver::run_batch` over three suite kernels.
//! * `fuzz` — `fuzz_campaign`: one seed through `fuzzing::run_campaign`.
//! * `serve` — `serve_mixed`: one `POST /v1/compile` to `driver::Server`.
//!
//! A run with tracing off reports the end-to-end metrics, over the ops that
//! ran while the host was quiet (see `stats::Phase::quiet_intervals`). A
//! traced run
//! measures an untraced phase and a traced phase of equal length; in the
//! traced phase every op is followed by a replay of the same work through
//! each layer's public functions, timed in spans (see `trace`).

use std::collections::BTreeMap;
use std::path::PathBuf;

mod fuzz;
mod serve;
mod stats;
mod suite;
mod trace;

use stats::{median, quantile, quiet_only, Phase};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: &[&str] = &["suite_cold", "fuzz_campaign", "serve_mixed"];

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
    ("design_latency_cycles", "cycles"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run. A layer
/// a workload does not exercise reads 0 on that workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mlir.parse_verify_ms", "ms"),
    ("mlir.roundtrip_ms", "ms"),
    ("lowering.lower_ms", "ms"),
    ("adaptor.run_ms", "ms"),
    ("adaptor.pass_runs", "count"),
    ("llvm.print_ms", "ms"),
    ("llvm.parse_ms", "ms"),
    ("llvm.roundtrip_ms", "ms"),
    ("llvm.cleanup_ms", "ms"),
    ("hlscpp.emit_ms", "ms"),
    ("hlscpp.frontend_ms", "ms"),
    ("vitis.csynth_ms", "ms"),
    ("cosim.ms", "ms"),
    ("interp.exec_ms", "ms"),
    ("interp.steps", "count"),
    ("interp.ns_per_step", "ns"),
    ("batch.overhead_ms", "ms"),
    ("fuzz.gen_ms", "ms"),
    ("fuzz.overhead_ms", "ms"),
    ("serve.compile_ms_p50", "ms"),
    ("serve.hit_ms_p50", "ms"),
    ("json.parse_request_ms", "ms"),
    ("json.parse_response_ms", "ms"),
    ("flow.run_ms", "ms"),
    ("lint.ms", "ms"),
    ("batch.outcome_json_ms", "ms"),
    ("cache.store_ms", "ms"),
    ("journal.append_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.compiled", "count"),
    ("serve.cache_hits", "count"),
    ("serve.evictions", "count"),
    ("serve.req_bytes", "bytes"),
    ("serve.resp_bytes", "bytes"),
    ("serve.reconnects", "count"),
    ("trace.op_ms_p50_untraced", "ms"),
    ("trace.op_ms_p50_traced", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Failed-op messages a report keeps; the rest are only counted.
const KEPT_FAILURES: usize = 16;

/// What one invocation measures.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
}

impl RunSpec {
    /// Length of each measured phase: the whole window untraced, half of it
    /// for each of a traced run's two phases.
    pub(crate) fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted, untimed warm-up ops included.
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// The first failed-op messages.
    pub failures: Vec<String>,
    /// Whole-run check failures (non-determinism in an exact count, a
    /// broken schedule invariant). Each makes the run incorrect; none is
    /// averaged away.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Figures printed in the report line only, never gated: the quiet
    /// share of the window and the time metrics over every op.
    pub info: BTreeMap<&'static str, f64>,
    /// Where a traced run wrote its spans.
    pub trace_file: Option<PathBuf>,
}

impl Report {
    /// True when every op passed its checks and no whole-run check failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Count one failed op, keeping its message among the first few.
    pub(crate) fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(msg);
        }
    }

    /// Count one op outside a measured phase (warm-up, post-loop pass).
    pub(crate) fn add_op(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.fail(e);
        }
    }

    /// Count a measured phase's ops and failures.
    pub(crate) fn add_phase(&mut self, phase: &Phase) {
        self.attempted += phase.ops();
        for f in &phase.failures {
            self.fail(f.clone());
        }
    }

    /// Record a whole-run check failure.
    pub(crate) fn problem(&mut self, msg: String) {
        self.problems.push(msg);
    }

    /// Write a traced run's spans under [`work_dir`], noting the path.
    pub(crate) fn write_trace(&mut self, tracer: &trace::Tracer, workload: &str, seed: u64) {
        let path = work_dir().join(format!("trace_{workload}_{seed}.jsonl"));
        match tracer.write_jsonl(&path) {
            Ok(()) => self.trace_file = Some(path),
            Err(e) => self.problem(format!("cannot write {}: {e}", path.display())),
        }
    }

    /// Set one metric.
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The end-to-end metrics of an untraced phase: its time metrics over
    /// the ops of its quiet intervals, and set-up time over the set-up
    /// samples of its quiet intervals. The same figures over every op go to
    /// [`Report::info`].
    pub(crate) fn set_end_to_end(
        &mut self,
        setups: &Setups,
        phase: &Phase,
        design_latency_cycles: u64,
    ) {
        let quiet = phase.quiet_op_ms();
        self.set("setup_s", setups.quiet_median_s(phase));
        self.set("ops_per_s", phase.quiet_ops_per_s());
        self.set("op_ms_p50", median(&quiet));
        self.set("op_ms_p90", quantile(&quiet, 0.9));
        self.set("peak_rss_mb", phase.rss_mb);
        self.set("design_latency_cycles", design_latency_cycles as f64);
        self.info.insert("quiet_share", phase.quiet_share());
        self.info.insert("probe_ref_ms", phase.probe_ref_ms());
        self.info.insert("all_ops_per_s", phase.ops_per_s());
        self.info.insert("all_op_ms_p50", median(&phase.op_ms));
        self.info
            .insert("all_op_ms_p90", quantile(&phase.op_ms, 0.9));
    }

    /// The tracing-overhead metrics: quiet op p50 untraced versus quiet op
    /// p50 of the same timed section with tracing on (`traced_op_ms`, one
    /// entry per op of the `traced` phase).
    pub(crate) fn set_trace_overhead(
        &mut self,
        untraced: &Phase,
        traced: &Phase,
        traced_op_ms: &[f64],
    ) {
        let u = median(&untraced.quiet_op_ms());
        let t = median(&quiet_only(traced_op_ms, &traced.quiet_ops()));
        self.set("trace.op_ms_p50_untraced", u);
        self.set("trace.op_ms_p50_traced", t);
        self.set("trace.overhead_ms", t - u);
    }

    /// The contract's result line: `correct`, `attempted`, `failed`, and
    /// every metric of the run's kind (end-to-end untraced, per-layer
    /// traced) with its unit.
    pub fn result_line(&self, trace: bool) -> String {
        let list = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_num(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A finite JSON number with all its digits (non-finite values read 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Seconds of measured window between two set-up samples taken inside it.
pub(crate) const SETUP_EVERY_S: f64 = 0.5;

/// Set-up time samples of one run. The first set-up runs before the first
/// timed op; the run then repeats the same set-up work every
/// [`SETUP_EVERY_S`] seconds of its untraced window, as the window's
/// `aside`, outside its timing, so the samples can be classed by the
/// window's host-state probes like the ops are.
#[derive(Debug, Default)]
pub(crate) struct Setups(Vec<f64>);

impl Setups {
    /// Run `setup`, recording its duration.
    pub(crate) fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let t = std::time::Instant::now();
        let out = setup();
        self.0.push(t.elapsed().as_secs_f64());
        out
    }

    /// The reported set-up time in seconds: the median of the samples
    /// taken inside `phase` (its asides, in order) during its quiet
    /// intervals, or of every sample if none was quiet.
    pub(crate) fn quiet_median_s(&self, phase: &Phase) -> f64 {
        let quiet = phase.quiet_intervals();
        let inside = self.0.get(1..).unwrap_or(&[]);
        let flags: Vec<bool> = phase.aside_interval.iter().map(|&j| quiet[j]).collect();
        let samples = quiet_only(inside, &flags);
        median(if samples.is_empty() {
            &self.0
        } else {
            &samples
        })
    }
}

/// Directory for the benchmark's own files (serve cache dirs, traces),
/// inside the benchmark's package.
pub(crate) fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work")
}

/// Run one workload.
pub fn run(workload: &str, spec: &RunSpec) -> Result<Report, String> {
    match workload {
        "suite_cold" => Ok(suite::run(spec)),
        "fuzz_campaign" => Ok(fuzz::run(spec)),
        "serve_mixed" => serve::run(spec),
        other => Err(format!(
            "unknown workload '{other}' (one of: {})",
            WORKLOADS.join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_up_time_is_the_median_of_quiet_samples() {
        // Probes 1, 1, 3, 1 ms: interval 0 quiet, intervals 1 and 2 not.
        let phase = Phase {
            probe_ms: vec![1.0, 1.0, 3.0, 1.0],
            interval_s: vec![0.5; 3],
            aside_interval: vec![0, 0, 0, 1, 2],
            ..Phase::default()
        };
        // The first sample precedes the phase; the others are its asides.
        let s = Setups(vec![9.0, 2.0, 4.0, 3.0, 7.0, 8.0]);
        assert_eq!(s.quiet_median_s(&phase), 3.0);
        let none_quiet = Phase {
            aside_interval: vec![1, 1, 2, 2, 2],
            ..phase
        };
        assert_eq!(s.quiet_median_s(&none_quiet), 5.5);
    }
}
