//! Host fingerprint written with every record, so host drift can be
//! told apart from a regression.

use crate::json;
use crate::workload::RANKS;

/// CPU model from `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Commit of the checkout, read from `.git` without running git;
/// "unknown" outside a repository.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    match rev.trim() {
        "" => "unknown".into(),
        r => r.to_string(),
    }
}

/// The fingerprint as a JSON object.
#[must_use]
pub fn fingerprint(runs: usize, steps_per_run: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        concat!(
            r#"{{"cpu":{},"nproc":{},"simd_short":{},"simd_fft":{},"git_rev":{},"#,
            r#""ranks":{},"threads_per_rank":1,"runs":{},"steps_per_run":{}}}"#
        ),
        json::string(&cpu_model()),
        nproc,
        json::string(&format!("{:?}", hacc::short::simd::detect())),
        json::string(&format!("{:?}", hacc::fft::kernels::detect())),
        json::string(&git_rev()),
        RANKS,
        runs,
        steps_per_run,
    )
}
