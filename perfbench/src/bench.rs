//! One benchmark invocation: set-up probes, the timed loop of
//! operations, and the end-to-end or per-layer metrics they yield.
//!
//! Untraced (`--trace 0`): every operation runs untraced and the six
//! end-to-end metrics are reported. Traced (`--trace 1`): stepper runs
//! alternate untraced and traced, so the traced run's end-to-end figures
//! sit next to untraced ones from the same invocation (their difference
//! is the tracing overhead); the per-layer metrics come from the traced
//! runs, plus a 1-rank prefix run for parallel efficiency and, for the
//! recovery workload, a checkpoint restore/write probe.

use std::path::Path;

use crate::json;
use crate::ops::{self, Op};
use crate::stats::{self, median};
use crate::stepper::{RankLog, StepRec};
use crate::workload::{Driver, Workload, RANKS};

/// Set-up-only operations before the timed runs, so `setup_s` is a
/// median of many samples even when only one full run fits the budget.
const SETUP_REPS: usize = 9;

/// Runs every invocation makes, whatever the budget.
const MIN_OPS: usize = 2;

/// Steps of the 1-rank run the parallel-efficiency figure compares.
const SCALING_STEPS: usize = 8;

/// A named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one invocation reports.
#[derive(Debug)]
pub struct Outcome {
    /// No completed operation produced a wrong output.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that crashed.
    pub failed: usize,
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Vec<Metric>,
    /// The full record: host, per-operation outcomes, failures.
    pub record: String,
}

impl Outcome {
    /// The one-line result the last line of standard output carries.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#"{}: {{"value": {}, "unit": {}}}"#,
                    json::string(m.name),
                    json::number(m.value),
                    json::string(m.unit)
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A set-up-only operation (ICs, spawn, driver construction; no steps).
fn setup_probe(w: &Workload, seed: u64, work: &Path) -> Op {
    match w.driver {
        Driver::Socket => ops::socket(w, seed, false, 0, work),
        Driver::InProcess | Driver::Resilient => ops::in_process(w, seed, false, RANKS, 0),
    }
}

/// The `k`-th operation of the timed loop.
fn operation(w: &Workload, seed: u64, trace: bool, k: usize, work: &Path) -> Op {
    let steps = w.cfg.steps;
    match (w.driver, trace) {
        (Driver::InProcess, _) => ops::in_process(w, seed, trace && k % 2 == 1, RANKS, steps),
        (Driver::Socket, _) => ops::socket(w, seed, trace && k % 2 == 1, steps, work),
        (Driver::Resilient, _) => ops::resilient(w, seed, trace && k % 2 == 1, work),
    }
}

/// Runs one invocation makes: as many as fit `seconds` at the
/// workload's nominal run length, at least MIN_OPS (one of each kind
/// when traced, and MIN_OPS·steps step samples to set the tail
/// percentile). The count depends on the arguments alone, never on
/// timing, so two invocations of one seed attempt the same operations,
/// and a seed whose runs crash fails the same number of them.
fn planned_ops(w: &Workload, seconds: u64) -> usize {
    ((seconds as f64 / w.nominal_run_s) as usize).max(MIN_OPS)
}

/// Run one invocation.
#[must_use]
pub fn run(w: &Workload, seed: u64, seconds: u64, trace: bool, work: &Path) -> Outcome {
    let mut setups: Vec<[f64; 3]> = Vec::new();
    let mut probe_failures = Vec::new();
    for _ in 0..SETUP_REPS {
        let op = setup_probe(w, seed, work);
        match op.setup {
            Some(s) => setups.push(s),
            None => probe_failures.push(op.failure.unwrap_or_default()),
        }
    }

    // Closed loop: each run starts when the previous one ends.
    let all: Vec<Op> = (0..planned_ops(w, seconds))
        .map(|k| operation(w, seed, trace, k, work))
        .collect();
    setups.extend(all.iter().filter_map(|o| o.setup));

    let correct = all.iter().all(|o| o.wrong_output().is_none());
    let attempted = all.len();
    let failed = all.iter().filter(|o| o.failed()).count();
    let untraced: Vec<&Op> = all.iter().filter(|o| !o.traced).collect();
    let traced: Vec<&Op> = all.iter().filter(|o| o.traced).collect();

    let (metrics, extra) = if trace {
        let layers = per_layer(w, seed, work, &traced, &untraced, &setups);
        let e2e_t = end_to_end(w, &traced, &setups);
        let e2e_u = end_to_end(w, &untraced, &setups);
        let extra = format!(
            r#""traced_end_to_end":{},"untraced_end_to_end":{}"#,
            metrics_json(&e2e_t.0),
            metrics_json(&e2e_u.0)
        );
        (layers, extra)
    } else {
        end_to_end(w, &all.iter().collect::<Vec<_>>(), &setups)
    };

    let ops_json: Vec<String> = all.iter().map(op_json).collect();
    let probe_json: Vec<String> = probe_failures.iter().map(|s| json::string(s)).collect();
    let record = format!(
        concat!(
            r#"{{"record":{{"workload":{},"seed":{},"seconds":{},"trace":{},"host":{},"#,
            r#""ops":[{}],"setup_probe_failures":[{}],{}}}}}"#
        ),
        json::string(w.name),
        seed,
        seconds,
        trace,
        crate::host::fingerprint(all.len(), w.cfg.steps),
        ops_json.join(","),
        probe_json.join(","),
        extra,
    );
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        record,
    }
}

fn metrics_json(ms: &[Metric]) -> String {
    let items: Vec<String> = ms
        .iter()
        .map(|m| format!("{}:{}", json::string(m.name), json::number(m.value)))
        .collect();
    format!("{{{}}}", items.join(","))
}

fn op_json(o: &Op) -> String {
    let opt = |s: &Option<String>| s.as_deref().map_or("null".into(), json::string);
    let growth = match &o.check {
        Some(Ok(dev)) => json::number(*dev),
        _ => "null".into(),
    };
    format!(
        concat!(
            r#"{{"traced":{},"completed":{},"run_s":{},"steps":{},"attempts":{},"#,
            r#""failure":{},"crash_step":{},"wrong_output":{},"growth_deviation":{}}}"#
        ),
        o.traced,
        !o.failed(),
        json::number(o.run_s),
        o.step_walls().len(),
        o.attempts,
        opt(&o.failure),
        o.crash_step.map_or("null".into(), |s| s.to_string()),
        opt(&o.wrong_output()),
        growth,
    )
}

/// The six end-to-end metrics over `ops`, and record notes on how the
/// tail and `run_s` were taken.
fn end_to_end(w: &Workload, ops: &[&Op], setups: &[[f64; 3]]) -> (Vec<Metric>, String) {
    let walls: Vec<f64> = ops.iter().flat_map(|o| o.step_walls()).collect();
    let tail = stats::tail(&walls, MIN_OPS * w.cfg.steps);
    let p50 = median(&walls);
    let substep_ns = p50 / (w.substeps() * w.particles()) as f64 * 1e9;
    let completed: Vec<f64> = ops
        .iter()
        .filter(|o| !o.failed())
        .map(|o| o.run_s)
        .collect();
    // With no completed run, run_s is the time to terminal failure.
    let (run_s, basis) = if completed.is_empty() {
        let to_failure: Vec<f64> = ops.iter().map(|o| o.run_s).collect();
        (
            median(&to_failure),
            "time to terminal failure (no run completed)",
        )
    } else {
        (median(&completed), "completed runs")
    };
    let setup: Vec<f64> = setups.iter().map(|s| s.iter().sum()).collect();
    let rss: Vec<f64> = ops.iter().map(|o| o.peak_rss_kib as f64 / 1024.0).collect();
    let metrics = vec![
        m("step_s_p50", p50, "s"),
        m("step_s_tail", tail.value, "s"),
        m("substep_particle_ns", substep_ns, "ns"),
        m("run_s", run_s, "s"),
        m("setup_s", median(&setup), "s"),
        m("peak_rss_mib", median(&rss), "MiB"),
    ];
    let notes = format!(
        r#""step_tail":{{"percentile":{},"samples_beyond":{},"samples":{}}},"run_s_basis":{}"#,
        tail.percentile,
        tail.beyond,
        tail.samples,
        json::string(basis),
    );
    (metrics, notes)
}

/// Mean over ranks of a per-rank sum over steps.
fn rank_mean(o: &Op, f: impl Fn(&StepRec) -> f64) -> f64 {
    let sums: Vec<f64> = o
        .logs
        .iter()
        .map(|l| l.steps.iter().map(&f).sum())
        .collect();
    sums.iter().sum::<f64>() / sums.len().max(1) as f64
}

/// Logs whose traffic counters together cover the world once: rank 0's
/// machine-wide view in-process, every process's own view over sockets.
fn traffic_logs(o: &Op) -> &[RankLog] {
    if o.machine_wide {
        &o.logs[..1]
    } else {
        &o.logs
    }
}

fn traffic_total(o: &Op, i: usize) -> f64 {
    traffic_logs(o)
        .iter()
        .flat_map(|l| &l.steps)
        .map(|s| s.traffic[i] as f64)
        .sum()
}

/// max/mean of payload bytes sent per rank over the run.
fn rank_bytes_imbalance(o: &Op) -> f64 {
    let mut per_rank = [0.0f64; RANKS];
    for s in traffic_logs(o).iter().flat_map(|l| &l.steps) {
        for (acc, &b) in per_rank.iter_mut().zip(&s.bytes_by_rank) {
            *acc += b as f64;
        }
    }
    let mean = per_rank.iter().sum::<f64>() / RANKS as f64;
    if mean == 0.0 {
        1.0
    } else {
        per_rank.iter().fold(0.0, |a: f64, &b| a.max(b)) / mean
    }
}

/// Median over `ops` of a per-operation figure.
fn per_op(ops: &[&Op], f: impl Fn(&Op) -> f64) -> f64 {
    median(&ops.iter().map(|o| f(o)).collect::<Vec<_>>())
}

/// Step wall times of `ops` at each of the first `k` step indices
/// (median over operations).
fn prefix_walls(ops: &[&Op], k: usize) -> Vec<f64> {
    (0..k)
        .map(|i| {
            median(
                &ops.iter()
                    .filter_map(|o| o.step_walls().get(i).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// First-time steps over steps executed across a recovery run's
/// attempts. Every failed attempt runs from its resume point through
/// the step the directly stepped schedule crashes in (the replay is
/// deterministic).
fn useful_step_ratio(o: &Op, total: u64) -> f64 {
    if o.attempts <= 1 && !o.failed() {
        return 1.0;
    }
    let last_resume = o.resumed_from.iter().flatten().copied().max().unwrap_or(0);
    let crash = o.crash_step.unwrap_or(last_resume + 1);
    let n = o.resumed_from.len();
    let mut executed = 0u64;
    let mut first_time = 0u64;
    for (i, start) in o.resumed_from.iter().enumerate() {
        let end = if i + 1 == n && !o.failed() {
            total
        } else {
            crash
        };
        executed += end.saturating_sub(start.unwrap_or(0));
        first_time = first_time.max(end);
    }
    if executed == 0 {
        1.0
    } else {
        first_time as f64 / executed as f64
    }
}

fn per_layer(
    w: &Workload,
    seed: u64,
    work: &Path,
    traced: &[&Op],
    untraced: &[&Op],
    setups: &[[f64; 3]],
) -> Vec<Metric> {
    let brk = |i: usize| per_op(traced, |o| rank_mean(o, |s| s.brk[i]));
    let count = |f: fn(&StepRec) -> u64| {
        per_op(traced, |o| {
            o.logs
                .iter()
                .flat_map(|l| &l.steps)
                .map(|s| f(s) as f64)
                .sum()
        })
    };
    let kernel_total = per_op(traced, |o| {
        o.logs.iter().flat_map(|l| &l.steps).map(|s| s.brk[0]).sum()
    });
    let interactions = count(|s| s.interactions);
    let traffic = |i: usize| per_op(traced, |o| traffic_total(o, i));
    let mean_of = |f: fn(&StepRec) -> f64, logs_of: fn(&Op) -> &[RankLog]| {
        per_op(traced, |o| {
            let v: Vec<f64> = logs_of(o).iter().flat_map(|l| &l.steps).map(f).collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        })
    };

    // Parallel efficiency: the same step prefix on one rank.
    let k = SCALING_STEPS.min(w.cfg.steps);
    let one = ops::in_process(w, seed, false, 1, k);
    let t1: f64 = one.step_walls().iter().sum();
    let two = prefix_walls(&[untraced, traced].concat(), k);
    let efficiency = if one.failed() || two.len() < k || t1 == 0.0 {
        0.0
    } else {
        t1 / (RANKS as f64 * two.iter().sum::<f64>())
    };

    // Checkpoint and recovery counters.
    let mut writes: Vec<f64> = traced
        .iter()
        .flat_map(|o| o.logs[0].ckpt_write_s.clone())
        .collect();
    let mut restores: Vec<f64> = traced.iter().filter_map(|o| o.logs[0].restore_s).collect();
    let mut bytes: Vec<f64> = traced
        .iter()
        .map(|o| o.logs.iter().map(|l| l.ckpt_bytes as f64).sum())
        .filter(|&b| b > 0.0)
        .collect();
    if let Some(r) = traced.iter().find(|o| !o.resumed_from.is_empty()) {
        bytes.push(r.ckpt_bytes as f64);
        if let Ok((restore_s, write_s)) =
            ops::checkpoint_probe(w, &work.join("ckpt"), &work.join("ckpt_probe"))
        {
            restores.push(restore_s);
            writes.push(write_s);
        }
    }
    let attempts = per_op(traced, |o| f64::from(o.attempts));
    let useful = per_op(traced, |o| useful_step_ratio(o, w.cfg.steps as u64));

    let setup = |i: usize| median(&setups.iter().map(|s| s[i]).collect::<Vec<_>>());
    let p50 = |ops: &[&Op]| median(&ops.iter().flat_map(|o| o.step_walls()).collect::<Vec<_>>());
    let (p50_t, p50_u) = (p50(traced), p50(untraced));
    let overhead = if p50_u > 0.0 {
        p50_t / p50_u - 1.0
    } else {
        0.0
    };

    vec![
        m("short.kernel_s", brk(0), "s"),
        m("short.walk_s", brk(1), "s"),
        m("short.build_s", brk(2), "s"),
        m("short.interactions", interactions, "count"),
        m("short.kernel_evals", count(|s| s.evals), "count"),
        m(
            "short.interactions_per_s",
            if kernel_total > 0.0 {
                interactions / kernel_total
            } else {
                0.0
            },
            "1/s",
        ),
        m(
            "pm.spectral_s",
            per_op(traced, |o| rank_mean(o, |s| s.brk[3] + s.brk[4])),
            "s",
        ),
        m("pm.cic_s", brk(5), "s"),
        m("domain.refresh_s", brk(6), "s"),
        m(
            "domain.overload_fraction",
            mean_of(|s| s.overload_fraction, |o| &o.logs),
            "ratio",
        ),
        m("comm.a2a_bytes", traffic(0), "B"),
        m("comm.p2p_bytes", traffic(2), "B"),
        m("comm.control_bytes", traffic(4), "B"),
        m(
            "comm.msgs",
            per_op(traced, |o| {
                [1, 3, 5].iter().map(|&i| traffic_total(o, i)).sum()
            }),
            "count",
        ),
        m(
            "comm.rank_bytes_imbalance",
            per_op(traced, rank_bytes_imbalance),
            "ratio",
        ),
        m("comm.wire_bytes", traffic(6), "B"),
        m("comm.wire_frames", traffic(7), "count"),
        m(
            "core.barrier_wait_s",
            per_op(traced, |o| rank_mean(o, |s| s.wait)),
            "s",
        ),
        m(
            "core.load_imbalance",
            mean_of(|s| s.load_imbalance, |o| &o.logs[..1]),
            "ratio",
        ),
        m(
            "core.unattributed_s",
            per_op(traced, |o| {
                rank_mean(o, |s| s.own - s.brk.iter().sum::<f64>())
            }),
            "s",
        ),
        m("core.parallel_efficiency", efficiency, "ratio"),
        m("ckpt.write_s", median(&writes), "s"),
        m("ckpt.bytes", median(&bytes), "B"),
        m("ckpt.restore_s", median(&restores), "s"),
        m("recovery.attempts", attempts, "count"),
        m("recovery.useful_step_ratio", useful, "ratio"),
        m("setup.ics_s", setup(0), "s"),
        m("setup.spawn_s", setup(1), "s"),
        m("setup.driver_s", setup(2), "s"),
        m("trace.step_s_p50_traced", p50_t, "s"),
        m("trace.step_s_p50_untraced", p50_u, "s"),
        m("trace.overhead", overhead, "ratio"),
    ]
}
