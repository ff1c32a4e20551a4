//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` seconds, prints the full
//! record (host fingerprint, every operation, failures) as one JSON
//! line, then the result line: `correct`, `attempted`, `failed` and the
//! end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::workload::Workload;
use perfbench::{bench, ops};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    if ops::is_socket_child() {
        return match ops::socket_child() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench child: {e}");
                ExitCode::FAILURE
            }
        };
    }
    ops::install_panic_locator();
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Scratch space (ICs, checkpoints, child records) inside the
    // directory the benchmark runs from, removed afterwards.
    let root = PathBuf::from(".perfbench_work");
    let work = root.join(format!("{}-{}", args.workload.name, std::process::id()));
    let outcome = bench::run(&args.workload, args.seed, args.seconds, args.trace, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(&root);
    println!("{}", outcome.record);
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
