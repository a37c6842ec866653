//! `suite_cold`: one op is one `driver::run_batch` call over [`PER_OP`]
//! suite kernels drawn from the workload seed, with one job, no artifact
//! cache and default directives; the workload seed is also the
//! co-simulation input seed. Nearly all of a kernel's run is co-simulation
//! under the `llvm_lite` interpreter, so this is the workload an
//! interpreter or cosim change should move. Kernels differ in size, so the
//! drawn subsets give op times a continuous spread; an op over the whole
//! suite would do identical work every time, and its time quantiles would
//! jump between the host's speed modes.

use std::time::Instant;

use adaptor::AdaptorConfig;
use driver::batch::{BatchOptions, BatchSummary, KernelRun, RunOutcome};
use kernels::Kernel;

use crate::stats::{mean, measure, ms_since, OpSample};
use crate::trace::Tracer;
use crate::{Report, RunSpec, Setups, SETUP_EVERY_S};

/// Kernels per op.
pub const PER_OP: usize = 3;
/// Peak RSS is sampled after this many timed ops.
const RSS_AT_OP: u64 = 200;
/// The suite kernel the host-state probe runs: the smallest, about 1 ms.
const PROBE_KERNEL: &str = "jacobi2d";

/// The layer spans of a replayed op, in pipeline order, with the metric
/// each one's mean self time per op is reported as.
const LAYERS: &[(&str, &str)] = &[
    ("mlir.parse_verify", "mlir.parse_verify_ms"),
    ("lowering.lower", "lowering.lower_ms"),
    ("adaptor.run", "adaptor.run_ms"),
    ("llvm.print", "llvm.print_ms"),
    ("llvm.parse", "llvm.parse_ms"),
    ("vitis.csynth", "vitis.csynth_ms"),
    ("cosim", "cosim.ms"),
];

/// The work counts a kernel's run must reproduce exactly every time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelFacts {
    /// Interpreter steps of its co-simulation.
    pub steps: u64,
    /// csynth latency of its design, cycles.
    pub latency: u64,
    /// Its printed-module digest.
    pub digest: String,
}

/// The batch options of one op: one job, no cache, default directives, the
/// workload seed as the co-simulation input seed.
pub fn options(seed: u64) -> BatchOptions {
    BatchOptions {
        jobs: 1,
        cache_dir: None,
        seed,
        ..BatchOptions::default()
    }
}

/// The SplitMix64 finalizer.
fn mix(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Indices of the `PER_OP` distinct kernels (all of them, for a smaller
/// suite) op `i` runs under workload seed `seed`, in suite order.
pub fn pick(seed: u64, i: u64, suite_len: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..suite_len).collect();
    let take = PER_OP.min(suite_len);
    let mut x = mix(seed) ^ i;
    for j in 0..take {
        x = mix(x);
        idx.swap(j, j + (x % (suite_len - j) as u64) as usize);
    }
    idx.truncate(take);
    idx.sort_unstable();
    idx
}

/// Check one kernel's result: it completed without degrading, and
/// co-simulation matched its reference implementation exactly.
pub fn check_run(run: &KernelRun) -> Result<KernelFacts, String> {
    let a = match &run.outcome {
        RunOutcome::Completed(a) => a,
        RunOutcome::Degraded { reason, .. } => {
            return Err(format!("{}: degraded ({reason})", run.kernel))
        }
        RunOutcome::Failed(e) => return Err(format!("{}: failed: {e}", run.kernel)),
        RunOutcome::Panicked { message } => {
            return Err(format!("{}: panicked: {message}", run.kernel))
        }
    };
    if a.cosim_max_err != 0.0 {
        return Err(format!(
            "{}: cosim max_abs_err {} against the reference",
            run.kernel, a.cosim_max_err
        ));
    }
    Ok(KernelFacts {
        steps: a.cosim_steps,
        latency: a.csynth.latency,
        digest: a.module_digest.clone(),
    })
}

/// An exact count of `kernel` that moved since its first run.
fn nondeterminism(kernel: &Kernel, want: &KernelFacts, got: &KernelFacts) -> Option<String> {
    (want != got).then(|| {
        format!(
            "non-determinism: {} gave {got:?}, first run {want:?}",
            kernel.name
        )
    })
}

/// Check a batch over `kernels`: each result passes [`check_run`] and, where
/// `want` holds the kernel's first facts, reproduces them. Returns every
/// kernel's facts, or the first failure.
pub fn check_batch(
    summary: &BatchSummary,
    kernels: &[Kernel],
    want: &[Option<&KernelFacts>],
) -> Result<Vec<KernelFacts>, String> {
    if summary.runs.len() != kernels.len() {
        return Err(format!(
            "{} kernel results for {} kernels",
            summary.runs.len(),
            kernels.len()
        ));
    }
    let mut facts = Vec::with_capacity(kernels.len());
    for ((run, k), w) in summary.runs.iter().zip(kernels).zip(want) {
        let got = check_run(run)?;
        if let Some(msg) = w.and_then(|w| nondeterminism(k, w, &got)) {
            return Err(msg);
        }
        facts.push(got);
    }
    Ok(facts)
}

/// One `run_batch` call over `kernels`, timed and checked against `want`
/// (one entry per kernel).
pub fn op(
    kernels: &[Kernel],
    opts: &BatchOptions,
    want: &[Option<&KernelFacts>],
) -> (OpSample, Result<Vec<KernelFacts>, String>) {
    let t = Instant::now();
    let summary = driver::run_batch(kernels, opts);
    let ms = ms_since(t);
    let facts = summary
        .map_err(|e| e.to_string())
        .and_then(|s| check_batch(&s, kernels, want));
    let check = facts.as_ref().map(|_| ()).map_err(Clone::clone);
    (OpSample { ms, check }, facts)
}

/// Replay one kernel through each layer's public functions, in the order
/// `run_batch` runs them, recording a span per layer call under a `kernel`
/// span. Returns the kernel's facts and its adaptor pass runs.
pub fn replay(
    k: &Kernel,
    opts: &BatchOptions,
    tr: &mut Tracer,
    op: u64,
) -> Result<(KernelFacts, u64), String> {
    let root = tr.begin("kernel", op);
    let result = replay_stages(k, opts, tr, op);
    tr.end(root);
    result.map_err(|e| format!("{}: {e}", k.name))
}

fn replay_stages(
    k: &Kernel,
    opts: &BatchOptions,
    tr: &mut Tracer,
    op: u64,
) -> Result<(KernelFacts, u64), String> {
    let s = |e: &dyn std::fmt::Display| e.to_string();
    let m = tr
        .time("mlir.parse_verify", op, || {
            driver::flow::prepare_mlir(k, &opts.directives)
        })
        .map_err(|e| s(&e))?;
    let mut module = tr
        .time("lowering.lower", op, || lowering::lower(m))
        .map_err(|e| s(&e))?;
    let report = tr
        .time("adaptor.run", op, || {
            adaptor::run_adaptor(&mut module, &AdaptorConfig::default())
        })
        .map_err(|e| s(&e))?;
    let text = tr.time("llvm.print", op, || {
        llvm_lite::printer::print_module(&module)
    });
    let parsed = tr
        .time("llvm.parse", op, || {
            llvm_lite::parser::parse_module(k.name, &text)
        })
        .map_err(|e| s(&e))?;
    let csynth = tr
        .time("vitis.csynth", op, || {
            vitis_sim::csynth(&parsed, &opts.target)
        })
        .map_err(|e| s(&e))?;
    let cosim = tr
        .time("cosim", op, || driver::cosim(&parsed, k, opts.seed))
        .map_err(|e| s(&e))?;
    let facts = KernelFacts {
        steps: cosim.steps,
        latency: csynth.latency,
        digest: format!("{:016x}", kernels::fnv1a64(text.as_bytes())),
    };
    Ok((facts, report.pipeline.passes.len() as u64))
}

/// The host-state probe: one `run_batch` over [`PROBE_KERNEL`] with the
/// co-simulation seed fixed, the same work on every run.
fn probe() {
    let k = kernels::all_kernels()
        .iter()
        .find(|k| k.name == PROBE_KERNEL)
        .expect("the probe kernel is in the suite");
    let _ = driver::run_batch(std::slice::from_ref(k), &options(0));
}

/// Run the workload.
pub fn run(spec: &RunSpec) -> Report {
    run_on(kernels::all_kernels(), spec)
}

/// Run the workload over `kernels` (the suite, or a test's variant of it).
pub fn run_on(kernels: &[Kernel], spec: &RunSpec) -> Report {
    let opts = options(spec.seed);
    let mut report = Report::default();
    let mut setups = Setups::default();
    // Set-up is one untimed warm-up batch over the whole suite. Its facts
    // are what every later run of each kernel must reproduce.
    let (sample, first) = setups.time(|| op(kernels, &opts, &vec![None; kernels.len()]));
    report.add_op(sample.check);
    let want: Vec<Option<KernelFacts>> = match first {
        Ok(facts) => facts.into_iter().map(Some).collect(),
        Err(_) => vec![None; kernels.len()],
    };
    let want_all: Vec<Option<&KernelFacts>> = want.iter().map(Option::as_ref).collect();
    let mut warm_checks = Vec::new();
    let mut warm_up = || {
        let (sample, _) = setups.time(|| op(kernels, &opts, &want_all));
        warm_checks.push(sample.check);
    };
    // The op's kernels, and their expected facts, drawn outside its timing.
    let inputs = |i: u64| {
        let idx = pick(spec.seed, i, kernels.len());
        let ks: Vec<Kernel> = idx.iter().map(|&k| kernels[k]).collect();
        let w: Vec<Option<&KernelFacts>> = idx.iter().map(|&k| want[k].as_ref()).collect();
        (idx, ks, w)
    };
    let seconds = spec.phase_seconds();
    let untraced = measure(
        seconds,
        RSS_AT_OP,
        &mut probe,
        Some((SETUP_EVERY_S, &mut warm_up)),
        |i| {
            let (_, ks, w) = inputs(i);
            Some(op(&ks, &opts, &w).0)
        },
    );
    for check in warm_checks {
        report.add_op(check);
    }
    report.add_phase(&untraced);
    let latency = want.iter().flatten().map(|f| f.latency).sum();
    if !spec.trace {
        report.set_end_to_end(&setups, &untraced, latency);
        return report;
    }

    // One untimed replay pass over the suite fixes each kernel's adaptor
    // pass runs.
    let mut problems = Vec::new();
    let mut pass_runs = Vec::with_capacity(kernels.len());
    for (k, w) in kernels.iter().zip(&want) {
        match replay(k, &opts, &mut Tracer::new(), 0) {
            Ok((facts, runs)) => {
                if let Some(msg) = w.as_ref().and_then(|w| nondeterminism(k, w, &facts)) {
                    problems.push(format!("replay: {msg}"));
                }
                pass_runs.push(Some(runs));
            }
            Err(e) => {
                problems.push(format!("replay failed: {e}"));
                pass_runs.push(None);
            }
        }
    }
    let mut tr = Tracer::new();
    let mut traced_steps = 0u64;
    let traced = measure(seconds, RSS_AT_OP, &mut probe, None, |i| {
        let (idx, ks, w) = inputs(i);
        let span = tr.begin("op", i);
        let (sample, _) = op(&ks, &opts, &w);
        tr.end(span);
        let root = tr.begin("replay", i);
        for &k in &idx {
            match replay(&kernels[k], &opts, &mut tr, i) {
                Ok((facts, runs)) => {
                    traced_steps += facts.steps;
                    if let Some(msg) = want[k]
                        .as_ref()
                        .and_then(|w| nondeterminism(&kernels[k], w, &facts))
                    {
                        problems.push(format!("replay of op {i}: {msg}"));
                    }
                    if pass_runs[k] != Some(runs) {
                        problems.push(format!(
                            "non-determinism: replay of op {i} ran {runs} adaptor passes for {}, first replay {:?}",
                            kernels[k].name, pass_runs[k]
                        ));
                    }
                }
                Err(e) => problems.push(format!("replay of op {i} failed: {e}")),
            }
        }
        tr.end(root);
        Some(sample)
    });
    report.add_phase(&traced);
    problems.dedup();
    for p in problems.into_iter().take(16) {
        report.problem(p);
    }

    let n = traced.ops() as f64;
    let own = tr.self_ns_by_name();
    let layer_ms = |span: &str| own.get(span).copied().unwrap_or(0) as f64 / 1e6 / n;
    let mut layer_sum = 0.0;
    for (span, metric) in LAYERS {
        report.set(metric, layer_ms(span));
        layer_sum += layer_ms(span);
    }
    // Counts are per pass over the suite.
    let steps: u64 = want.iter().flatten().map(|f| f.steps).sum();
    report.set("interp.steps", steps as f64);
    report.set(
        "adaptor.pass_runs",
        pass_runs.iter().flatten().sum::<u64>() as f64,
    );
    report.set(
        "interp.ns_per_step",
        own.get("cosim").copied().unwrap_or(0) as f64 / traced_steps.max(1) as f64,
    );
    // Op times and layer sum from the same phase, so a change of host speed
    // between the two phases does not read as overhead.
    report.set(
        "batch.overhead_ms",
        mean(&tr.durations_ms("op")) - layer_sum,
    );
    report.set_trace_overhead(&untraced, &traced, &tr.durations_ms("op"));
    report.write_trace(&tr, "suite_cold", spec.seed);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_reference(_: &mut [Vec<f32>]) {}

    #[test]
    fn a_nonzero_cosim_error_fails_the_op() {
        let mut suite = kernels::all_kernels().to_vec();
        suite.truncate(PER_OP + 1);
        suite[1].reference = no_reference;
        let report = run_on(
            &suite,
            &RunSpec {
                seed: 3,
                seconds: 0.3,
                trace: false,
            },
        );
        assert!(report.failed > 0, "no op failed");
        assert!(report.failed < report.attempted, "{:?}", report.failures);
        for f in &report.failures {
            assert!(
                f.contains(suite[1].name) && f.contains("cosim max_abs_err"),
                "{f}"
            );
        }
        assert!(!report.correct());
    }

    #[test]
    fn picks_are_distinct_sorted_and_seeded() {
        let n = kernels::all_kernels().len();
        let mut seen = vec![0u32; n];
        for i in 0..1000 {
            let p = pick(9, i, n);
            assert_eq!(p.len(), PER_OP);
            assert!(p.windows(2).all(|w| w[0] < w[1]), "{p:?}");
            p.iter().for_each(|&k| seen[k] += 1);
        }
        assert!(seen.iter().all(|&c| c > 200), "{seen:?}");
        assert_eq!(pick(9, 5, n), pick(9, 5, n));
        assert_ne!(
            (0..20).map(|i| pick(1, i, n)).collect::<Vec<_>>(),
            (0..20).map(|i| pick(2, i, n)).collect::<Vec<_>>()
        );
        assert_eq!(pick(9, 0, 2), vec![0, 1]);
    }
}
