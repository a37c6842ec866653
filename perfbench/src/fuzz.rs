//! `fuzz_campaign`: one op is one seed through `fuzzing::run_campaign(seed,
//! 1, ..)` with default options (no reducer, no legality oracle). Seeds run
//! contiguously from a base derived from the workload seed. The interpreter
//! is a small share of an op here: lowering, the adaptor, the C++ flow with
//! its cleanup fixpoint, and the print∘parse round trips do the work, so this
//! is the main workload for pass and IR changes.

use std::time::Instant;

use driver::{Directives, Flow};
use fuzzing::{CampaignOpts, CampaignResult, GenConfig, TOP_NAME};
use llvm_lite::interp::{Interpreter, RtVal};
use pass_core::Budget;

use crate::stats::{mean, measure, ms_since, OpSample};
use crate::trace::Tracer;
use crate::{Report, RunSpec, Setups, SETUP_EVERY_S};

/// Seeds of one untimed warm-up, the set-up timed as `setup_s`:
/// `0..SETUP_SEEDS`, the same on every run, so set-up time does not depend
/// on the workload seed.
const SETUP_SEEDS: u64 = 8;
/// Peak RSS is sampled after this many timed seeds.
const RSS_AT_OP: u64 = 1000;
/// The seed the host-state probe runs through the campaign: one of the
/// cheapest, about 1 ms.
const PROBE_SEED: u64 = 11;
/// The pinned design set of the exact counts: generator seeds
/// `0..DESIGN_SEEDS`. It does not depend on the workload seed, so the
/// counts are identical on every run of one commit.
pub const DESIGN_SEEDS: u64 = 64;

/// The layer spans of a replayed seed, in oracle order, with the metric
/// each one's mean self time per seed is reported as.
const LAYERS: &[(&str, &str)] = &[
    ("fuzz.gen", "fuzz.gen_ms"),
    ("mlir.parse_verify", "mlir.parse_verify_ms"),
    ("mlir.roundtrip", "mlir.roundtrip_ms"),
    ("lowering.lower", "lowering.lower_ms"),
    ("adaptor.run", "adaptor.run_ms"),
    ("llvm.roundtrip", "llvm.roundtrip_ms"),
    ("hlscpp.emit", "hlscpp.emit_ms"),
    ("hlscpp.frontend", "hlscpp.frontend_ms"),
    ("llvm.cleanup", "llvm.cleanup_ms"),
    ("interp.exec", "interp.exec_ms"),
];

/// First seed of the workload's range: the workload seed through the
/// SplitMix64 finalizer, keeping 40 bits so a range never wraps.
pub fn base_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 24
}

/// Check one campaign of one seed: it ran, and every oracle passed.
pub fn check_campaign(seed: u64, r: &CampaignResult) -> Result<(), String> {
    if let Some(f) = r.findings.values().next() {
        return Err(format!(
            "seed {seed}: finding {}: {}",
            f.signature, f.failure
        ));
    }
    if r.attempts != 1 || r.passed != 1 {
        return Err(format!(
            "seed {seed}: {} attempted, {} passed",
            r.attempts, r.passed
        ));
    }
    Ok(())
}

/// One seed through the campaign loop, timed.
pub fn op(seed: u64, opts: &CampaignOpts) -> OpSample {
    let t = Instant::now();
    let r = fuzzing::run_campaign(seed, 1, opts, &mut |_| {});
    let ms = ms_since(t);
    OpSample {
        ms,
        check: check_campaign(seed, &r),
    }
}

/// Exact work counts of replayed seeds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Interpreter steps of both flows' executions.
    pub steps: u64,
    /// Adaptor pass runs (pass records of the adaptor pipeline).
    pub pass_runs: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.steps += o.steps;
        self.pass_runs += o.pass_runs;
    }
}

/// Replay one seed through each layer's public functions, in the order the
/// oracle stack runs them, recording a span per layer call.
pub fn replay(seed: u64, tr: &mut Tracer, op: u64) -> Result<Counts, String> {
    let root = tr.begin("replay", op);
    let r = replay_stages(seed, tr, op);
    tr.end(root);
    r.map_err(|e| format!("seed {seed}: {e}"))
}

fn replay_stages(seed: u64, tr: &mut Tracer, op: u64) -> Result<Counts, String> {
    let s = |e: &dyn std::fmt::Display| e.to_string();
    let k = tr.time("fuzz.gen", op, || {
        fuzzing::generate(seed, &GenConfig::default())
    });
    let m = tr.time("mlir.parse_verify", op, || {
        let m = mlir_lite::parser::parse_module(TOP_NAME, &k.text).map_err(|e| s(&e))?;
        mlir_lite::verifier::verify_module(&m).map_err(|e| s(&e))?;
        Ok::<_, String>(m)
    })?;
    tr.time("mlir.roundtrip", op, || {
        let t1 = mlir_lite::printer::print_module(&m);
        let m2 = mlir_lite::parser::parse_module(TOP_NAME, &t1).map_err(|e| s(&e))?;
        (mlir_lite::printer::print_module(&m2) == t1)
            .then_some(())
            .ok_or("mlir print∘parse is not the identity")
            .map_err(str::to_string)
    })?;
    let mut adapted = tr
        .time("lowering.lower", op, || lowering::lower(m.deep_clone()))
        .map_err(|e| s(&e))?;
    let report = tr.time("adaptor.run", op, || {
        let report = adaptor::run_adaptor_budgeted(
            &mut adapted,
            &adaptor::AdaptorConfig::default(),
            &Budget::unlimited(),
        )
        .map_err(|e| s(&e))?;
        llvm_lite::verifier::verify_module(&adapted).map_err(|e| s(&e))?;
        Ok::<_, String>(report)
    })?;
    tr.time("llvm.roundtrip", op, || {
        let t1 = llvm_lite::printer::print_module(&adapted);
        let m2 = llvm_lite::parser::parse_module(TOP_NAME, &t1).map_err(|e| s(&e))?;
        (llvm_lite::printer::print_module(&m2) == t1)
            .then_some(())
            .ok_or("llvm print∘parse is not the identity")
            .map_err(str::to_string)
    })?;
    let cpp = tr
        .time("hlscpp.emit", op, || hls_cpp::emit_cpp(&m))
        .map_err(|e| s(&e))?;
    let mut cpp_mod = tr
        .time("hlscpp.frontend", op, || {
            hls_cpp::compile_cpp(TOP_NAME, &cpp)
        })
        .map_err(|e| s(&e))?;
    tr.time("llvm.cleanup", op, || {
        llvm_lite::transforms::standard_cleanup().run_to_fixpoint(&mut cpp_mod, 4)
    })
    .map_err(|e| s(&e))?;
    let sizes: Vec<usize> = k
        .bufs
        .iter()
        .map(|b| b.dims.iter().product::<i64>().max(1) as usize)
        .collect();
    tr.time("interp.exec", op, || {
        let (out_a, steps_a) = execute(&adapted, &sizes, seed)?;
        let (out_c, steps_c) = execute(&cpp_mod, &sizes, seed)?;
        let same = out_a.len() == out_c.len()
            && out_a.iter().zip(&out_c).all(|(a, c)| {
                a.len() == c.len() && a.iter().zip(c).all(|(x, y)| x.to_bits() == y.to_bits())
            });
        same.then_some(Counts {
            steps: steps_a + steps_c,
            pass_runs: report.pipeline.passes.len() as u64,
        })
        .ok_or_else(|| "adaptor and C++ flows diverged".to_string())
    })
}

/// Run the top function on the oracle's deterministic inputs; returns every
/// buffer's final contents and the interpreter step count.
fn execute(
    module: &llvm_lite::Module,
    sizes: &[usize],
    seed: u64,
) -> Result<(Vec<Vec<f32>>, u64), String> {
    let mut interp = Interpreter::new(module);
    interp.step_limit = fuzzing::OracleOpts::default().step_limit;
    let ptrs: Vec<u64> = sizes
        .iter()
        .enumerate()
        .map(|(b, &n)| {
            let data: Vec<f32> = (0..n)
                .map(|k| fuzzing::oracle::input_value(seed, b, k))
                .collect();
            interp.mem.alloc_f32(&data)
        })
        .collect();
    let args: Vec<RtVal> = ptrs.iter().map(|p| RtVal::P(*p)).collect();
    let top = module
        .top_function()
        .map_or_else(|| TOP_NAME.to_string(), |f| f.name.clone());
    interp.call(&top, &args).map_err(|e| e.to_string())?;
    let out = ptrs
        .iter()
        .zip(sizes)
        .map(|(p, &n)| interp.mem.read_f32(*p, n).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    Ok((out, interp.stats.steps))
}

/// Exact counts over the pinned design set: csynth latency of each seed's
/// adaptor-flow design (the campaign itself runs no csynth) and the replay's
/// work counts.
pub fn design_counts() -> Result<(u64, Counts), String> {
    let mut latency = 0;
    let mut counts = Counts::default();
    let mut tr = Tracer::new();
    for seed in 0..DESIGN_SEEDS {
        let k = fuzzing::generate(seed, &GenConfig::default());
        let art = driver::run_flow_on_text(
            TOP_NAME,
            &k.text,
            &Directives::default(),
            Flow::Adaptor,
            &Budget::unlimited(),
        )
        .map_err(|e| format!("seed {seed}: {e}"))?;
        latency += vitis_sim::csynth(&art.module, &vitis_sim::Target::default())
            .map_err(|e| format!("seed {seed}: csynth: {e}"))?
            .latency;
        counts += replay(seed, &mut tr, seed)?;
    }
    Ok((latency, counts))
}

/// The host-state probe: [`PROBE_SEED`] through the campaign, the same work
/// on every run.
fn probe() {
    fuzzing::run_campaign(PROBE_SEED, 1, &CampaignOpts::default(), &mut |_| {});
}

/// Run the workload.
pub fn run(spec: &RunSpec) -> Report {
    let opts = CampaignOpts::default();
    let base = base_seed(spec.seed);
    let mut report = Report::default();
    let mut setups = Setups::default();
    let mut warm_checks = Vec::new();
    let mut warm_up = || {
        let checks: Vec<_> = setups.time(|| (0..SETUP_SEEDS).map(|s| op(s, &opts).check).collect());
        warm_checks.extend(checks);
    };
    warm_up();

    let counts = design_counts();
    match (&counts, design_counts()) {
        (Err(e), _) => report.problem(format!("design counts: {e}")),
        (Ok(a), b) if b.as_ref() != Ok(a) => {
            report.problem(format!("non-determinism: design counts {a:?} then {b:?}"))
        }
        _ => {}
    }
    let (latency, pinned) = counts.unwrap_or_default();

    let seconds = spec.phase_seconds();
    let untraced = measure(
        seconds,
        RSS_AT_OP,
        &mut probe,
        Some((SETUP_EVERY_S, &mut warm_up)),
        |i| Some(op(base + i, &opts)),
    );
    for check in warm_checks {
        report.add_op(check);
    }
    report.add_phase(&untraced);
    if !spec.trace {
        report.set_end_to_end(&setups, &untraced, latency);
        return report;
    }

    // The traced phase continues the seed range.
    let next = base + untraced.ops();
    let mut tr = Tracer::new();
    let mut problems = Vec::new();
    let mut traced_counts = Counts::default();
    let traced = measure(seconds, RSS_AT_OP, &mut probe, None, |i| {
        let span = tr.begin("op", i);
        let sample = op(next + i, &opts);
        tr.end(span);
        match replay(next + i, &mut tr, i) {
            Ok(c) => traced_counts += c,
            Err(e) => problems.push(format!("replay of op {i} failed: {e}")),
        }
        Some(sample)
    });
    report.add_phase(&traced);
    for p in problems.into_iter().take(16) {
        report.problem(p);
    }
    let n = traced.ops() as f64;
    let own = tr.self_ns_by_name();
    let mut layer_sum = 0.0;
    for (span, metric) in LAYERS {
        let ms = own.get(span).copied().unwrap_or(0) as f64 / 1e6 / n;
        report.set(metric, ms);
        layer_sum += ms;
    }
    report.set("interp.steps", pinned.steps as f64);
    report.set("adaptor.pass_runs", pinned.pass_runs as f64);
    let exec_ns = own.get("interp.exec").copied().unwrap_or(0) as f64;
    report.set(
        "interp.ns_per_step",
        exec_ns / traced_counts.steps.max(1) as f64,
    );
    // Op times and layer sum from the same phase, so a change of host speed
    // between the two phases does not read as overhead.
    report.set("fuzz.overhead_ms", mean(&tr.durations_ms("op")) - layer_sum);
    report.set_trace_overhead(&untraced, &traced, &tr.durations_ms("op"));
    report.write_trace(&tr, "fuzz_campaign", spec.seed);
    report
}
