//! Order statistics, the measured-phase loop with its host-state probes,
//! and process memory.

use std::time::Instant;

/// The `q` quantile of `values` (0 ≤ q ≤ 1), interpolating linearly
/// between order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// One op's result as the op itself measured it: the duration of its timed
/// section, and the output check's verdict.
pub struct OpSample {
    /// Timed section, milliseconds.
    pub ms: f64,
    /// `Err` carries why the op's output was wrong.
    pub check: Result<(), String>,
}

/// Seconds of measured window between two host-state probes.
pub const PROBE_EVERY_S: f64 = 0.025;
/// The quantile of a phase's probe times taken as its quiet probe time.
const QUIET_REF_Q: f64 = 0.05;
/// A probe is quiet when it takes at most this many times the quiet probe
/// time.
const QUIET_FACTOR: f64 = 1.25;

/// Per-op samples of one measured phase. Host-state probes split the phase
/// into intervals: probe `j` runs before interval `j` and probe `j + 1`
/// after it, so a phase of `n` intervals has `n + 1` probes.
#[derive(Debug, Default)]
pub struct Phase {
    /// Timed duration of every op, in the order the ops ran.
    pub op_ms: Vec<f64>,
    /// The interval each op ran in.
    pub op_interval: Vec<usize>,
    /// The interval each `aside` call ran in, in call order.
    pub aside_interval: Vec<usize>,
    /// Duration of every probe, milliseconds.
    pub probe_ms: Vec<f64>,
    /// Measured-window length of every interval, seconds.
    pub interval_s: Vec<f64>,
    /// Wall-clock length of the phase, seconds, probes and asides left out.
    pub wall_s: f64,
    /// One message per op whose output check failed.
    pub failures: Vec<String>,
    /// `VmHWM` when the op count reached the sampling point (or at the end
    /// of a phase too short to reach it).
    pub rss_mb: f64,
}

impl Phase {
    /// Ops attempted.
    pub fn ops(&self) -> u64 {
        self.op_ms.len() as u64
    }

    /// Completed ops per wall-clock second, over the whole phase.
    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.wall_s.max(1e-9)
    }

    /// The phase's quiet probe time: the [`QUIET_REF_Q`] quantile of its
    /// probe times, milliseconds.
    pub fn probe_ref_ms(&self) -> f64 {
        quantile(&self.probe_ms, QUIET_REF_Q)
    }

    /// Whether each interval was quiet: the probes on both sides of it took
    /// at most [`QUIET_FACTOR`] times the phase's quiet probe time (its
    /// [`QUIET_REF_Q`] quantile). The reference is relative to the phase,
    /// so a change that slows the probe and the ops alike keeps its
    /// intervals quiet and shows in full. A phase with no quiet interval
    /// counts every interval as quiet: every interval holds at least one
    /// op, so the time metrics never lack samples.
    pub fn quiet_intervals(&self) -> Vec<bool> {
        let limit = QUIET_FACTOR * self.probe_ref_ms();
        let quiet: Vec<bool> = self
            .probe_ms
            .windows(2)
            .map(|w| w[0] <= limit && w[1] <= limit)
            .collect();
        if quiet.contains(&true) {
            quiet
        } else {
            vec![true; quiet.len()]
        }
    }

    /// Whether each op ran in a quiet interval.
    pub fn quiet_ops(&self) -> Vec<bool> {
        let quiet = self.quiet_intervals();
        self.op_interval.iter().map(|&j| quiet[j]).collect()
    }

    /// The durations of the ops that ran in quiet intervals.
    pub fn quiet_op_ms(&self) -> Vec<f64> {
        quiet_only(&self.op_ms, &self.quiet_ops())
    }

    /// Completed ops per second of quiet intervals.
    pub fn quiet_ops_per_s(&self) -> f64 {
        let quiet = self.quiet_intervals();
        let s: f64 = self
            .interval_s
            .iter()
            .zip(&quiet)
            .filter(|(_, &q)| q)
            .map(|(s, _)| s)
            .sum();
        self.quiet_op_ms().len() as f64 / s.max(1e-9)
    }

    /// The share of ops that ran in quiet intervals.
    pub fn quiet_share(&self) -> f64 {
        self.quiet_op_ms().len() as f64 / self.op_ms.len().max(1) as f64
    }
}

/// The entries of `values` whose `quiet` flag is set.
pub fn quiet_only(values: &[f64], quiet: &[bool]) -> Vec<f64> {
    values
        .iter()
        .zip(quiet)
        .filter(|(_, &q)| q)
        .map(|(v, _)| *v)
        .collect()
}

/// Run `op(i)` back to back until `seconds` have passed or `op` returns
/// `None` (its input set is exhausted).
///
/// `probe`, a fixed piece of work of the ops' own kind, runs before the
/// first op, after the last, and between two ops each time another
/// [`PROBE_EVERY_S`] seconds of the phase have passed; its durations tell
/// quiet intervals of the host from contended ones (see
/// [`Phase::quiet_intervals`]). It runs twice back to back and the second
/// run is timed, so it finds the caches as its own work leaves them,
/// whatever op ran before it. `aside.1` runs between two ops each time
/// another `aside.0` seconds have passed. Neither counts toward `seconds`
/// nor into `wall_s`. Peak RSS is sampled once `rss_at_op` ops are done,
/// so the figure covers a fixed amount of work rather than however many
/// ops fit in the phase.
pub fn measure(
    seconds: f64,
    rss_at_op: u64,
    probe: &mut dyn FnMut(),
    mut aside: Option<(f64, &mut dyn FnMut())>,
    mut op: impl FnMut(u64) -> Option<OpSample>,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut paused = 0.0;
    let elapsed = |paused: f64| start.elapsed().as_secs_f64() - paused;
    let mut run_probe = |phase: &mut Phase, paused: &mut f64| {
        let start = Instant::now();
        probe();
        let t = Instant::now();
        probe();
        phase.probe_ms.push(ms_since(t));
        *paused += start.elapsed().as_secs_f64();
    };
    run_probe(&mut phase, &mut paused);
    let mut interval_start = 0.0;
    let mut asides = 0u32;
    let mut rss = None;
    loop {
        let i = phase.ops();
        let Some(sample) = op(i) else { break };
        phase.op_ms.push(sample.ms);
        phase.op_interval.push(phase.interval_s.len());
        if let Err(e) = sample.check {
            phase.failures.push(format!("op {i}: {e}"));
        }
        if phase.ops() == rss_at_op {
            rss = Some(peak_rss_mb());
        }
        if elapsed(paused) >= seconds {
            break;
        }
        if let Some((every, f)) = aside.as_mut() {
            if elapsed(paused) >= *every * f64::from(asides + 1) {
                let t = Instant::now();
                f();
                paused += t.elapsed().as_secs_f64();
                phase.aside_interval.push(phase.interval_s.len());
                asides += 1;
            }
        }
        let now = elapsed(paused);
        if now - interval_start >= PROBE_EVERY_S {
            phase.interval_s.push(now - interval_start);
            interval_start = now;
            run_probe(&mut phase, &mut paused);
        }
    }
    phase.interval_s.push(elapsed(paused) - interval_start);
    run_probe(&mut phase, &mut paused);
    phase.wall_s = elapsed(paused);
    phase.rss_mb = rss.unwrap_or_else(peak_rss_mb);
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn measure_runs_an_op_past_the_deadline_and_counts_failures() {
        let mut probes = 0;
        let phase = measure(0.0, 1, &mut || probes += 1, None, |i| {
            Some(OpSample {
                ms: 1.0,
                check: if i == 0 { Err("bad".into()) } else { Ok(()) },
            })
        });
        assert_eq!(phase.ops(), 1);
        assert_eq!(phase.failures, vec!["op 0: bad".to_string()]);
        assert!(phase.rss_mb > 0.0);
        // One probe before the op and one after it, each run twice.
        assert_eq!(probes, 4);
        assert_eq!(phase.interval_s.len(), 1);
    }

    #[test]
    fn measure_runs_probes_and_asides_outside_the_phase() {
        let mut asides = 0;
        let mut aside = || {
            asides += 1;
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        let mut probe = || std::thread::sleep(std::time::Duration::from_millis(5));
        let phase = measure(0.1, 1000, &mut probe, Some((0.02, &mut aside)), |_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            Some(OpSample {
                ms: 2.0,
                check: Ok(()),
            })
        });
        assert!(asides >= 2, "{asides} asides");
        assert_eq!(phase.aside_interval.len(), asides);
        assert!(phase.probe_ms.len() >= 4, "{} probes", phase.probe_ms.len());
        assert_eq!(phase.probe_ms.len(), phase.interval_s.len() + 1);
        assert!(phase.wall_s < 0.1 + 0.02, "wall {}", phase.wall_s);
        let s: f64 = phase.interval_s.iter().sum();
        assert!((s - phase.wall_s).abs() < 1e-6, "{s} vs {}", phase.wall_s);
    }

    #[test]
    fn ops_between_slow_probes_are_not_quiet() {
        // Probes 1, 1, 3, 1, 1 ms: intervals 1 and 2 touch the slow probe.
        let phase = Phase {
            op_ms: vec![10.0, 11.0, 30.0, 31.0, 12.0],
            op_interval: vec![0, 0, 1, 2, 3],
            probe_ms: vec![1.0, 1.0, 3.0, 1.0, 1.0],
            interval_s: vec![0.5, 0.25, 0.25, 0.5],
            ..Phase::default()
        };
        assert_eq!(phase.quiet_intervals(), vec![true, false, false, true]);
        assert_eq!(phase.quiet_op_ms(), vec![10.0, 11.0, 12.0]);
        assert_eq!(phase.quiet_ops_per_s(), 3.0);
        assert_eq!(phase.quiet_share(), 0.6);
        // A phase slowed throughout keeps all of it.
        let slow = Phase {
            probe_ms: vec![3.0; 5],
            ..phase
        };
        assert_eq!(slow.quiet_op_ms().len(), 5);
        // So does one whose quiet probes never come two in a row.
        let broken = Phase {
            probe_ms: vec![1.0, 3.0, 1.0, 3.0, 1.0],
            ..slow
        };
        assert_eq!(broken.quiet_op_ms().len(), 5);
    }
}
