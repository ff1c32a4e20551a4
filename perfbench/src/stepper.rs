//! The measured per-rank loop around `DistSimulation`, shared by the
//! in-process and the socket drivers.
//!
//! Each long-range step is timed barrier to barrier from outside the
//! program; `sim.stats` gives the program's own split of the step, and
//! in a traced run `Comm::traffic_stats()` is diffed around the step and
//! `load_imbalance()` / `overload_fraction()` are sampled after it.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use hacc::comm::{Comm, TrafficStats};
use hacc::core::DistSimulation;
use hacc::ics::IcsRealization;

use crate::workload::Workload;

/// Traffic counters of one step: `[a2a bytes, a2a msgs, p2p bytes, p2p
/// msgs, control bytes, control msgs, wire bytes, wire frames]`.
pub type Traffic = [u64; 8];

/// One rank's record of one long-range step.
#[derive(Debug, Clone, Default)]
pub struct StepRec {
    /// Barrier-to-barrier wall time, seconds.
    pub wall: f64,
    /// Time inside `sim.step`, seconds.
    pub own: f64,
    /// Wait at the post-step barrier, seconds.
    pub wait: f64,
    /// `StepBreakdown` seconds: kernel, walk, build, fft, coarse_fft,
    /// cic, other.
    pub brk: [f64; 7],
    /// Directed short-range interactions.
    pub interactions: u64,
    /// Kernel evaluations.
    pub evals: u64,
    /// Traffic diff (traced runs only; this process's view).
    pub traffic: Traffic,
    /// Payload bytes sent by each rank during the step (traced only).
    pub bytes_by_rank: Vec<u64>,
    /// `load_imbalance()` after the step (traced only).
    pub load_imbalance: f64,
    /// `overload_fraction()` after the step (traced only).
    pub overload_fraction: f64,
}

impl StepRec {
    /// One whitespace-separated line (the socket children's record).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut v: Vec<String> = vec![
            self.wall.to_string(),
            self.own.to_string(),
            self.wait.to_string(),
        ];
        v.extend(self.brk.iter().map(ToString::to_string));
        v.push(self.interactions.to_string());
        v.push(self.evals.to_string());
        v.extend(self.traffic.iter().map(ToString::to_string));
        v.push(self.load_imbalance.to_string());
        v.push(self.overload_fraction.to_string());
        v.extend(self.bytes_by_rank.iter().map(ToString::to_string));
        v.join(" ")
    }

    /// Inverse of [`Self::to_line`].
    pub fn from_line(line: &str) -> Result<StepRec, String> {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 22 {
            return Err(format!("short step record: {line}"));
        }
        let num = |i: usize| {
            f[i].parse::<f64>()
                .map_err(|e| format!("step field {i}: {e}"))
        };
        let int = |i: usize| {
            f[i].parse::<u64>()
                .map_err(|e| format!("step field {i}: {e}"))
        };
        let mut r = StepRec {
            wall: num(0)?,
            own: num(1)?,
            wait: num(2)?,
            interactions: int(10)?,
            evals: int(11)?,
            load_imbalance: num(20)?,
            overload_fraction: num(21)?,
            ..StepRec::default()
        };
        for (k, slot) in r.brk.iter_mut().enumerate() {
            *slot = num(3 + k)?;
        }
        for (k, slot) in r.traffic.iter_mut().enumerate() {
            *slot = int(12 + k)?;
        }
        r.bytes_by_rank = (22..f.len()).map(int).collect::<Result<_, _>>()?;
        Ok(r)
    }
}

/// Everything one rank measured during one run.
#[derive(Debug, Clone, Default)]
pub struct RankLog {
    /// Unix time (s) at which this rank's code started running.
    pub started_unix: f64,
    /// `DistSimulation::new` through the following barrier, seconds.
    pub driver_s: f64,
    /// Completed steps, in order.
    pub steps: Vec<StepRec>,
    /// Barrier-to-barrier seconds of each `checkpoint_to` set write.
    pub ckpt_write_s: Vec<f64>,
    /// Bytes this rank wrote in checkpoint files.
    pub ckpt_bytes: u64,
    /// Seconds for `resume_from` of the newest set (traced socket runs).
    pub restore_s: Option<f64>,
    /// First violated invariant seen by this rank, if any.
    pub error: Option<String>,
}

/// What one run asks of every rank.
pub struct Spec<'a> {
    /// The workload being run.
    pub w: &'a Workload,
    /// Sample the traced counters.
    pub trace: bool,
    /// Steps to run: the whole schedule, a prefix of it for scaling
    /// probes, or 0 to time set-up alone.
    pub steps: usize,
    /// Checkpoint directory (workloads with `checkpoint_every`).
    pub ckpt_dir: Option<&'a Path>,
}

/// Seconds since the Unix epoch (cross-process timestamps).
#[must_use]
pub fn unix_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

fn class_counts(t: &TrafficStats) -> Traffic {
    let c = &t.by_class;
    [
        c.a2a.bytes,
        c.a2a.msgs,
        c.p2p.bytes,
        c.p2p.msgs,
        c.control.bytes,
        c.control.msgs,
        t.wire.bytes_on_wire,
        t.wire.frames_sent,
    ]
}

fn lock(log: &Mutex<RankLog>) -> std::sync::MutexGuard<'_, RankLog> {
    log.lock()
        .expect("rank log poisoned by a panic while recording")
}

/// Run `spec` on this rank, recording into `log` as it goes (so a
/// crashed run still leaves the steps it completed). `progress` holds
/// the step rank 0 is executing, for failure reports. Returns the
/// gathered final `(id, position)` list on rank 0 of a run that stepped.
pub fn run_rank(
    comm: &Comm,
    spec: &Spec<'_>,
    ics: &IcsRealization,
    log: &Mutex<RankLog>,
    progress: &AtomicU64,
) -> Option<Vec<(u64, [f32; 3])>> {
    let w = spec.w;
    let np = w.particles();
    let rank = comm.rank();
    lock(log).started_unix = unix_now();

    let t = Instant::now();
    let mut sim = DistSimulation::new(comm, w.cfg, ics);
    comm.barrier();
    lock(log).driver_s = t.elapsed().as_secs_f64();
    if spec.steps == 0 {
        return None;
    }

    let edges = w.cfg.step_edges();
    for k in 0..spec.steps {
        let step = (k + 1) as u64;
        if rank == 0 {
            progress.store(step, Ordering::Relaxed);
        }
        // Snapshot ahead of the barrier: no rank can send step traffic
        // before every rank reaches it, so the diff holds all of it.
        let before = spec.trace.then(|| comm.traffic_stats());
        comm.barrier();
        let t0 = Instant::now();
        sim.step(edges[k + 1]);
        let own = t0.elapsed().as_secs_f64();
        comm.barrier();
        let wall = t0.elapsed().as_secs_f64();
        let b = *sim.stats.steps.last().expect("step recorded its breakdown");
        let mut rec = StepRec {
            wall,
            own,
            wait: wall - own,
            brk: [
                b.kernel,
                b.walk,
                b.build,
                b.fft,
                b.coarse_fft,
                b.cic,
                b.other,
            ]
            .map(|d| d.as_secs_f64()),
            interactions: b.interactions,
            evals: b.pair_interactions,
            ..StepRec::default()
        };
        if let Some(before) = before {
            let after = comm.traffic_stats();
            let (a, b) = (class_counts(&after), class_counts(&before));
            for i in 0..rec.traffic.len() {
                rec.traffic[i] = a[i] - b[i];
            }
            rec.bytes_by_rank = after
                .bytes_sent
                .iter()
                .zip(&before.bytes_sent)
                .map(|(a, b)| a - b)
                .collect();
            rec.load_imbalance = sim.load_imbalance();
            rec.overload_fraction = sim.particles().overload_fraction();
        }
        let count = sim.global_count();
        let mut l = lock(log);
        l.steps.push(rec);
        if count != np && l.error.is_none() {
            l.error = Some(format!("global count {count} != {np} after step {step}"));
        }
        drop(l);

        if let (Some(dir), Some(every)) = (spec.ckpt_dir, w.checkpoint_every) {
            if step.is_multiple_of(every) || k + 1 == w.cfg.steps {
                comm.barrier();
                let t = Instant::now();
                let path = sim
                    .checkpoint_to(dir, step)
                    .unwrap_or_else(|e| panic!("checkpoint write failed at step {step}: {e}"));
                comm.barrier();
                let secs = t.elapsed().as_secs_f64();
                let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
                let mut l = lock(log);
                l.ckpt_write_s.push(secs);
                l.ckpt_bytes += bytes;
            }
        }
    }

    // Momenta are only visible rank-locally; reduce the non-finite count.
    let parts = sim.particles();
    let bad = (0..parts.n_active)
        .filter(|&i| {
            ![parts.vx[i], parts.vy[i], parts.vz[i]]
                .iter()
                .all(|v| v.is_finite())
        })
        .count();
    let bad = comm.allreduce_sum(bad as f64) as u64;
    let gathered = sim.gather_positions();

    if spec.trace {
        if let Some(dir) = spec.ckpt_dir {
            comm.barrier();
            let t = Instant::now();
            let (restored, done) = DistSimulation::resume_from(comm, w.cfg, dir)
                .unwrap_or_else(|e| panic!("checkpoint restore failed: {e}"));
            comm.barrier();
            let secs = t.elapsed().as_secs_f64();
            let count = restored.global_count();
            let mut l = lock(log);
            l.restore_s = Some(secs);
            if (done, count) != (spec.steps as u64, np) && l.error.is_none() {
                l.error = Some(format!(
                    "restore returned step {done} with {count} particles, expected {} with {np}",
                    spec.steps
                ));
            }
        }
    }

    let mut l = lock(log);
    if bad > 0 && l.error.is_none() {
        l.error = Some(format!("{bad} particles have non-finite momenta"));
    }
    gathered
}
