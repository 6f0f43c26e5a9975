//! `perfbench` — the repository's end-to-end benchmark over the paper's
//! workloads, with a traced per-layer split.
//!
//! ```text
//! perfbench --workload <array_kernels|wire_reads|durable_writes> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. With `--trace 0` the run
//! measures the end-to-end metrics; with `--trace 1` it measures half
//! the window untraced and half traced, replays each statement layer by
//! layer, prints one share table per workload and reports the per-layer
//! metrics. Either way the outputs are checked outside the timed window,
//! and the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! The same binary is also the server process the networked workloads
//! start (`serve-mem`, `serve-primary`, `serve-replica`), so that each
//! engine owns its process and its metrics registry.

mod durable;
mod kernels;
mod openloop;
mod replay;
mod report;
mod serve;
mod spans;
mod stats;
mod util;
mod wire;

use report::RunResult;
use std::path::PathBuf;

/// Parsed command line of a benchmark run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Per-run scratch directory inside the working directory.
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub out: PathBuf,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |name: &str| flag(args, name).ok_or_else(|| format!("missing {name}"));
    let workload = get("--workload")?.to_string();
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    Ok(Args {
        work: cwd
            .join(".perfbench_work")
            .join(format!("{workload}-{}", std::process::id())),
        out: cwd.join(".perfbench_out"),
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(mode) = argv.first().filter(|a| a.starts_with("serve-")) {
        std::process::exit(serve::main(mode, &argv[1..]));
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <array_kernels|wire_reads|durable_writes> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let result: Result<RunResult, String> = match args.workload.as_str() {
        "array_kernels" => kernels::run(&args),
        "wire_reads" => wire::run(&args),
        "durable_writes" => durable::run(&args),
        w => Err(format!("unknown workload {w}")),
    };
    let _ = std::fs::remove_dir_all(&args.work);
    let names: &[&str] = if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    let result = result.and_then(|mut r| {
        r.metrics = report::in_order(&r.metrics, names)?;
        Ok(r)
    });
    let r = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let mode = if args.trace { "traced" } else { "untraced" };
    println!(
        "workload {} (seed {}, {} s, {mode}, nproc {})",
        args.workload,
        args.seed,
        args.seconds,
        util::nproc()
    );
    for n in &r.notes {
        println!("  note: {n}");
    }
    for f in &r.check_failures {
        println!("  CHECK FAILED: {f}");
    }
    println!(
        "  failed_frac = {} ({} of {} attempted)",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    );
    for m in r.metrics.iter().chain(&r.extra) {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let bad: Vec<&str> = r
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.as_str())
        .collect();
    if !bad.is_empty() {
        eprintln!("perfbench: non-finite metrics: {bad:?}");
        std::process::exit(1);
    }
    println!(
        "{}",
        report::json_line(r.failed == 0, r.attempted.max(1), r.failed, &r.metrics)
    );
}
