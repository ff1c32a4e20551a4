//! One operation = one run to `a_final` (or a set-up-only / prefix
//! probe), through one of the three drivers. A crash is caught and
//! returned as a failure, never propagated.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use hacc::comm::hub::{self, HubOptions};
use hacc::comm::socket::{SocketConfig, SocketTransport};
use hacc::comm::{Comm, FaultPlan, Machine, MachineError};
use hacc::core::{run_resilient, DistSimulation, RecoveryEvent, ResilienceConfig, ResilienceError};
use hacc::ics::IcsRealization;

use crate::checks;
use crate::stepper::{run_rank, unix_now, RankLog, Spec, StepRec};
use crate::workload::{Workload, RANKS};

/// `(id, position)` of every particle, sorted by id.
type Positions = Vec<(u64, [f32; 3])>;

/// What one operation measured.
#[derive(Debug, Default)]
pub struct Op {
    /// Per-step counters were sampled.
    pub traced: bool,
    /// Seconds of IC generation, process/thread spawn to rendezvous, and
    /// driver construction; `None` where the driver hides them.
    pub setup: Option<[f64; 3]>,
    /// Wall seconds from IC generation to the gathered final state.
    pub run_s: f64,
    /// Per-rank records.
    pub logs: Vec<RankLog>,
    /// Traffic counters are machine-wide (in-process) rather than
    /// per-process (socket).
    pub machine_wide: bool,
    /// Crash report; `None` when the run completed.
    pub failure: Option<String>,
    /// Step being executed when the run crashed (stepper drivers).
    pub crash_step: Option<u64>,
    /// Final-state check: `Some(Ok(growth deviation))` or the violation.
    pub check: Option<Result<f64, String>>,
    /// Attempts the recovery driver launched (1 for the stepper).
    pub attempts: u32,
    /// Checkpoint step each attempt resumed from (resilient driver).
    pub resumed_from: Vec<Option<u64>>,
    /// Checkpoint bytes on disk after the run.
    pub ckpt_bytes: u64,
    /// Peak resident set during the operation, max over the processes
    /// involved, KiB.
    pub peak_rss_kib: u64,
}

impl Op {
    /// The run crashed.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.failure.is_some()
    }

    /// The first wrong output of a completed run, if any.
    #[must_use]
    pub fn wrong_output(&self) -> Option<String> {
        if self.failed() {
            return None;
        }
        if let Some(e) = self.logs.iter().find_map(|l| l.error.clone()) {
            return Some(e);
        }
        match &self.check {
            Some(Err(e)) => Some(e.clone()),
            _ => None,
        }
    }

    /// Long-range step wall times (rank 0's barrier-to-barrier
    /// timings), seconds.
    #[must_use]
    pub fn step_walls(&self) -> Vec<f64> {
        self.logs
            .first()
            .map_or_else(Vec::new, |l| l.steps.iter().map(|s| s.wall).collect())
    }
}

/// Restart this process's peak-resident-set count, so `VmHWM` covers
/// one operation (Linux `clear_refs` value 5; ignored where missing).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process, KiB (`VmHWM`).
#[must_use]
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Source location of the first panic since the last
/// [`take_first_panic`]: the root cause, ahead of the peers' panics it
/// triggers.
static FIRST_PANIC: Mutex<Option<String>> = Mutex::new(None);

/// Record panic locations (then print as usual), so a failure report
/// names the line that failed as well as the message.
pub fn install_panic_locator() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if let (Ok(mut first), Some(loc)) = (FIRST_PANIC.lock(), info.location()) {
            first.get_or_insert_with(|| format!("{}:{}", loc.file(), loc.line()));
        }
        default(info);
    }));
}

fn take_first_panic() -> Option<String> {
    FIRST_PANIC.lock().ok()?.take()
}

/// `message`, with the location of the panic behind it when known.
fn located(message: &str) -> String {
    match take_first_panic() {
        Some(loc) => format!("{message} (panicked at {loc})"),
        None => message.to_string(),
    }
}

fn into_logs(logs: Vec<Mutex<RankLog>>) -> Vec<RankLog> {
    // A rank that panicked mid-step never holds its log lock, so every
    // log is whole even when poisoned.
    logs.into_iter()
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

fn check(w: &Workload, ics: &IcsRealization, positions: &Positions) -> Result<f64, String> {
    checks::check_final(w, &checks::initial_spectrum(w, ics), positions)
}

/// `steps` steps of `w` on `ranks` in-process ranks (`steps == 0` times
/// set-up alone). The final state is checked when the whole schedule ran.
#[must_use]
pub fn in_process(w: &Workload, seed: u64, trace: bool, ranks: usize, steps: usize) -> Op {
    reset_peak_rss();
    let t = Instant::now();
    let ics = w.ics(seed);
    let ics_s = t.elapsed().as_secs_f64();
    let logs: Vec<Mutex<RankLog>> = (0..ranks).map(|_| Mutex::default()).collect();
    let progress = AtomicU64::new(0);
    let spec = Spec {
        w,
        trace,
        steps,
        ckpt_dir: None,
    };
    take_first_panic();
    let launched = unix_now();
    let t = Instant::now();
    let result = Machine::new(ranks)
        .try_run(|comm| run_rank(&comm, &spec, &ics, &logs[comm.rank()], &progress));
    let run_s = ics_s + t.elapsed().as_secs_f64();
    let logs = into_logs(logs);
    let spawn_s = logs.iter().map(|l| l.started_unix).fold(launched, f64::max) - launched;
    let driver_s = logs.iter().map(|l| l.driver_s).fold(0.0, f64::max);
    let mut op = Op {
        traced: trace,
        setup: Some([ics_s, spawn_s, driver_s]),
        run_s,
        machine_wide: true,
        attempts: 1,
        peak_rss_kib: peak_rss_kib(),
        ..Op::default()
    };
    match result {
        Ok((mut out, _)) => {
            if steps == w.cfg.steps {
                let positions = out[0].take().expect("rank 0 gathers the final state");
                op.check = Some(check(w, &ics, &positions));
            }
        }
        Err(MachineError::RankPanicked { rank, message }) => {
            let step = progress.load(Ordering::Relaxed);
            op.crash_step = Some(step);
            op.failure = Some(located(&format!(
                "rank {rank} panicked in step {step}: {message}"
            )));
        }
    }
    op.logs = logs;
    op
}

// ---- socket driver ---------------------------------------------------

const ENV_WORKLOAD: &str = "PERFBENCH_WORKLOAD";
const ENV_TRACE: &str = "PERFBENCH_TRACE";
const ENV_STEPS: &str = "PERFBENCH_STEPS";
const ENV_WORK: &str = "PERFBENCH_WORK";

/// Is this process a socket child the benchmark spawned?
#[must_use]
pub fn is_socket_child() -> bool {
    std::env::var_os("HACC_HUB").is_some() && std::env::var_os(ENV_WORKLOAD).is_some()
}

fn write_ics(path: &Path, ics: &IcsRealization) -> std::io::Result<()> {
    let mut f = BufWriter::new(File::create(path)?);
    f.write_all(&(ics.n as u64).to_le_bytes())?;
    for v in [ics.box_len, ics.a_init, ics.rms_displacement] {
        f.write_all(&v.to_le_bytes())?;
    }
    for arr in [&ics.x, &ics.y, &ics.z, &ics.vx, &ics.vy, &ics.vz] {
        for v in arr.iter() {
            f.write_all(&v.to_le_bytes())?;
        }
    }
    f.flush()
}

fn read_ics(path: &Path, expect_n: usize) -> Result<IcsRealization, String> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| format!("reading {}: {e}", path.display()))?;
    let word = |i: usize| -> [u8; 8] { bytes[i * 8..i * 8 + 8].try_into().expect("8-byte word") };
    let count = expect_n * expect_n * expect_n;
    if bytes.len() != 32 + 6 * 4 * count || u64::from_le_bytes(word(0)) != expect_n as u64 {
        return Err(format!(
            "{} does not hold {expect_n}³ particles",
            path.display()
        ));
    }
    let arrays: Vec<Vec<f32>> = bytes[32..]
        .chunks_exact(4 * count)
        .map(|a| {
            a.chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte float")))
                .collect()
        })
        .collect();
    let mut it = arrays.into_iter();
    let mut next = || it.next().expect("six particle arrays");
    Ok(IcsRealization {
        n: expect_n,
        box_len: f64::from_le_bytes(word(1)),
        a_init: f64::from_le_bytes(word(2)),
        rms_displacement: f64::from_le_bytes(word(3)),
        x: next(),
        y: next(),
        z: next(),
        vx: next(),
        vy: next(),
        vz: next(),
        delta: Vec::new(),
    })
}

fn log_path(work: &Path, rank: usize) -> PathBuf {
    work.join(format!("rank{rank}.log"))
}

fn positions_path(work: &Path) -> PathBuf {
    work.join("positions.bin")
}

fn write_positions(path: &Path, positions: &Positions) -> std::io::Result<()> {
    let mut f = BufWriter::new(File::create(path)?);
    for (id, p) in positions {
        f.write_all(&id.to_le_bytes())?;
        for c in p {
            f.write_all(&c.to_le_bytes())?;
        }
    }
    f.flush()
}

fn read_positions(path: &Path) -> std::io::Result<Positions> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    Ok(bytes
        .chunks_exact(20)
        .map(|r| {
            let f = |i: usize| f32::from_le_bytes(r[i..i + 4].try_into().expect("4 bytes"));
            (
                u64::from_le_bytes(r[..8].try_into().expect("8 bytes")),
                [f(8), f(12), f(16)],
            )
        })
        .collect())
}

/// Body of a socket child: connect, run the rank, write its record.
pub fn socket_child() -> Result<(), String> {
    let env = |k: &str| std::env::var(k).map_err(|_| format!("missing env {k}"));
    let w = Workload::by_name(&env(ENV_WORKLOAD)?).ok_or("unknown workload")?;
    let trace = env(ENV_TRACE)? == "1";
    let steps: usize = env(ENV_STEPS)?
        .parse()
        .map_err(|e| format!("{ENV_STEPS}: {e}"))?;
    let work = PathBuf::from(env(ENV_WORK)?);
    let transport = SocketTransport::connect(SocketConfig::from_env()?)
        .map_err(|e| format!("socket transport: {e}"))?;
    let comm = Comm::over_socket(transport);
    let rank = comm.rank();
    let connected = unix_now();

    let t = Instant::now();
    let ics = read_ics(&work.join("ics.bin"), w.np)?;
    let load_s = t.elapsed().as_secs_f64();
    let ckpt = work.join("ckpt");
    let spec = Spec {
        w: &w,
        trace,
        steps,
        ckpt_dir: w.checkpoint_every.map(|_| ckpt.as_path()),
    };
    let log = Mutex::new(RankLog::default());
    // A crashed rank still leaves the steps it completed: write the
    // record, then let the panic end the process.
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        run_rank(&comm, &spec, &ics, &log, &AtomicU64::new(0))
    }));
    let log = log.into_inner().unwrap_or_else(PoisonError::into_inner);

    let mut out = String::new();
    out.push_str(&format!(
        "started {connected}\ndriver {}\n",
        log.driver_s + load_s
    ));
    for s in &log.steps {
        out.push_str(&format!("step {}\n", s.to_line()));
    }
    for s in &log.ckpt_write_s {
        out.push_str(&format!("ckpt {s}\n"));
    }
    out.push_str(&format!("ckpt_bytes {}\n", log.ckpt_bytes));
    if let Some(r) = log.restore_s {
        out.push_str(&format!("restore {r}\n"));
    }
    if let Some(e) = &log.error {
        out.push_str(&format!("error {}\n", e.replace('\n', " ")));
    }
    out.push_str(&format!("rss {}\n", peak_rss_kib()));
    std::fs::write(log_path(&work, rank), out).map_err(|e| format!("rank log: {e}"))?;
    let positions = result.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
    if let Some(p) = &positions {
        write_positions(&positions_path(&work), p).map_err(|e| format!("positions: {e}"))?;
    }
    comm.barrier();
    comm.shutdown();
    Ok(())
}

/// Parse a child's record; returns the log and its peak RSS (KiB).
fn read_child_log(path: &Path) -> Result<(RankLog, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut log = RankLog::default();
    let mut rss = 0;
    for line in text.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        let num = || rest.parse::<f64>().map_err(|e| format!("{key}: {e}"));
        match key {
            "started" => log.started_unix = num()?,
            "driver" => log.driver_s = num()?,
            "step" => log.steps.push(StepRec::from_line(rest)?),
            "ckpt" => log.ckpt_write_s.push(num()?),
            "ckpt_bytes" => log.ckpt_bytes = num()? as u64,
            "restore" => log.restore_s = Some(num()?),
            "error" => log.error = Some(rest.to_string()),
            "rss" => rss = num()? as u64,
            _ => return Err(format!("unknown record line: {line}")),
        }
    }
    Ok((log, rss))
}

/// The panic line a crashed child left on its stderr.
fn child_panic(work: &Path, rank: usize) -> Option<String> {
    let f = File::open(work.join(format!("rank{rank}.stderr"))).ok()?;
    let lines: Vec<String> = BufReader::new(f).lines().map_while(Result::ok).collect();
    let i = lines.iter().position(|l| l.contains("panicked at"))?;
    Some(lines[i..(i + 2).min(lines.len())].join(" "))
}

/// `steps` steps of `w` on [`RANKS`] OS processes over loopback TCP,
/// launched by the hub re-executing this binary. `work` is emptied
/// first and holds the ICs, checkpoints and child records.
#[must_use]
pub fn socket(w: &Workload, seed: u64, trace: bool, steps: usize, work: &Path) -> Op {
    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work).expect("benchmark work directory is writable");
    reset_peak_rss();
    let t = Instant::now();
    let ics = w.ics(seed);
    write_ics(&work.join("ics.bin"), &ics).expect("ICs file is writable");
    let ics_s = t.elapsed().as_secs_f64();

    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut opts = HubOptions::new(RANKS);
    opts.respawn = false;
    let launched = unix_now();
    let t = Instant::now();
    let report = hub::run(opts, |rank, incarnation, hub_addr| {
        let stderr = File::create(work.join(format!("rank{rank}.stderr")))?;
        Command::new(&exe)
            .env("HACC_HUB", hub_addr)
            .env("HACC_RANK", rank.to_string())
            .env("HACC_RANKS", RANKS.to_string())
            .env("HACC_INCARNATION", incarnation.to_string())
            .env(ENV_WORKLOAD, w.name)
            .env(ENV_TRACE, if trace { "1" } else { "0" })
            .env(ENV_STEPS, steps.to_string())
            .env(ENV_WORK, work)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
    });
    let run_s = ics_s + t.elapsed().as_secs_f64();

    let mut op = Op {
        traced: trace,
        run_s,
        attempts: 1,
        ..Op::default()
    };
    let mut problems = Vec::new();
    match report {
        Ok(r) => {
            for (rank, code) in r.exit_failures {
                let why = child_panic(work, rank).unwrap_or_else(|| "no panic message".into());
                problems.push(format!("rank {rank} exited with code {code}: {why}"));
            }
        }
        Err(e) => problems.push(format!("hub: {e}")),
    }
    let mut rss = peak_rss_kib();
    for rank in 0..RANKS {
        match read_child_log(&log_path(work, rank)) {
            Ok((log, child_rss)) => {
                rss = rss.max(child_rss);
                op.logs.push(log);
            }
            Err(e) => {
                problems.push(format!("rank {rank} left no record: {e}"));
                op.logs.push(RankLog::default());
            }
        }
    }
    op.peak_rss_kib = rss;
    if problems.is_empty() {
        let spawn_s = op
            .logs
            .iter()
            .map(|l| l.started_unix)
            .fold(launched, f64::max)
            - launched;
        let driver_s = op.logs.iter().map(|l| l.driver_s).fold(0.0, f64::max);
        op.setup = Some([ics_s, spawn_s, driver_s]);
        if steps == w.cfg.steps {
            op.check = Some(match read_positions(&positions_path(work)) {
                Ok(p) => check(w, &ics, &p),
                Err(e) => Err(format!("final positions unreadable: {e}")),
            });
        }
    } else {
        op.crash_step = Some(op.logs[0].steps.len() as u64 + 1);
        op.failure = Some(problems.join("; "));
    }
    op
}

// ---- resilient driver ------------------------------------------------

/// One `run_resilient` run of `w` with `ResilienceConfig::new` defaults
/// and no injected faults, checkpointing under `work/ckpt`, followed by
/// the same schedule stepped directly on `DistSimulation`.
///
/// The recovery driver's steps are not visible from outside, so the
/// step timings (and, in a traced run, the layers) come from the direct
/// run; `run_s`, the failure report and the recovery counters come from
/// `run_resilient`.
#[must_use]
pub fn resilient(w: &Workload, seed: u64, trace: bool, work: &Path) -> Op {
    let dir = work.join("ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    reset_peak_rss();
    let t = Instant::now();
    let ics = w.ics(seed);
    let rc = ResilienceConfig::new(RANKS, &dir);
    take_first_panic();
    let result = run_resilient(w.cfg, &ics, &rc, &FaultPlan::none());
    let run_s = t.elapsed().as_secs_f64();
    let ckpt_bytes = std::fs::read_dir(&dir)
        .map(|d| {
            d.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let (attempts, failure, check_result, timeline) = match result {
        Ok(run) => (
            run.attempts,
            None,
            Some(check(w, &ics, &run.positions)),
            run.timeline,
        ),
        Err(ResilienceError::RetriesExhausted {
            attempts,
            last,
            timeline,
        }) => {
            let msg = located(&format!(
                "RetriesExhausted after {attempts} attempts: {last}"
            ));
            (attempts, Some(msg), None, timeline)
        }
    };
    let resumed_from: Vec<Option<u64>> = timeline
        .iter()
        .filter_map(|e| match e {
            RecoveryEvent::AttemptStarted { resume_step, .. } => Some(*resume_step),
            _ => None,
        })
        .collect();

    let direct = in_process(w, seed, trace, RANKS, w.cfg.steps);
    let failure = failure.map(|f| match direct.crash_step {
        Some(step) => format!(
            "{f}; last attempt restored from step {}; the same schedule stepped directly \
             crashes in step {step}",
            resumed_from.iter().flatten().max().map_or(0, |s| *s)
        ),
        None => f,
    });
    Op {
        traced: trace,
        run_s,
        logs: direct.logs,
        machine_wide: true,
        failure,
        crash_step: direct.crash_step,
        check: check_result,
        attempts,
        resumed_from,
        ckpt_bytes,
        peak_rss_kib: peak_rss_kib(),
        ..Op::default()
    }
}

/// Restore the newest checkpoint set in `dir` and write it back out to
/// `out`, both timed barrier to barrier: `(restore_s, write_s)`.
pub fn checkpoint_probe(w: &Workload, dir: &Path, out: &Path) -> Result<(f64, f64), String> {
    let _ = std::fs::remove_dir_all(out);
    let result = Machine::new(RANKS).try_run(|comm| {
        comm.barrier();
        let t = Instant::now();
        let (sim, step) = DistSimulation::resume_from(&comm, w.cfg, dir)
            .unwrap_or_else(|e| panic!("checkpoint restore failed: {e}"));
        comm.barrier();
        let restore_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        sim.checkpoint_to(out, step)
            .unwrap_or_else(|e| panic!("checkpoint write failed: {e}"));
        comm.barrier();
        (restore_s, t.elapsed().as_secs_f64())
    });
    let _ = std::fs::remove_dir_all(out);
    match result {
        Ok((per_rank, _)) => Ok(per_rank[0]),
        Err(e) => Err(e.to_string()),
    }
}
