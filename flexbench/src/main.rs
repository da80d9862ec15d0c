//! flexbench: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path flexbench/Cargo.toml -- \
//!     --workload <fig6a_cold|fig6c_rpca|array_serve|mc_yield|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from `--seed`, sets up (repeated,
//! median reported as `setup_s`), runs a closed loop for `--seconds`,
//! checks the program's outputs and prints one line per metric
//! (`workload/metric value unit`), an environment stamp, and as the last
//! line one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` splits the
//! window into an untraced and a traced half over the same inputs and
//! reports the per-layer metrics. A failed check exits with code 1.
//! See `flexbench/README.md`.

mod common;
mod fig6a;
mod fig6c;
mod mc;
mod serve;

use common::{cpu_seconds, peak_rss_mb, Report, RunConfig, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;

const WORKLOADS: [&str; 4] = ["fig6a_cold", "fig6c_rpca", "array_serve", "mc_yield"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must lie in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Width of the parallel layer (serve engine workers, MC threads, and
/// any `flexcs-parallel` fan-out): `FLEXCS_THREADS` when set, else 1.
/// The generator thread comes on top, and the total must fit in
/// `nproc`. Serve workers are always threads of their own; a 1-wide
/// fan-out (MC sweep, RPCA sketch) runs on the generator itself.
fn pinned_threads(workload: &str, nproc: usize) -> Result<usize, String> {
    let threads = match std::env::var("FLEXCS_THREADS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("FLEXCS_THREADS={v} is not a positive integer"))?,
        Err(_) => 1,
    };
    let total = match workload {
        "array_serve" => 1 + threads,
        _ if threads == 1 => 1,
        _ => 1 + threads,
    };
    if total > nproc {
        return Err(format!(
            "{workload} would run {total} threads (generator plus {threads}) on {nproc} available"
        ));
    }
    Ok(threads)
}

fn git_commit() -> String {
    // The benchmark may run from a plain source tree without `.git`.
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn run_one(args: &Args, nproc: usize, threads: usize) -> ExitCode {
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads,
        nproc,
    };
    let wall = Instant::now();
    let cpu = cpu_seconds();
    let mut report: Report = match args.workload.as_str() {
        "fig6a_cold" => fig6a::run(&cfg),
        "fig6c_rpca" => fig6c::run(&cfg),
        "array_serve" => serve::run(&cfg),
        "mc_yield" => mc::run(&cfg),
        other => unreachable!("workload {other} validated by parse_args"),
    };
    if !args.trace {
        report.set("peak_rss_mb", peak_rss_mb());
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let mut value = report.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            report.check(format!("{name} is finite, got {value}"), false);
            value = 0.0;
        }
        println!("{}/{name} {value} {unit}", args.workload);
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let mut env = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("simd_tier", flexcs::linalg::simd::tier_name().to_string()),
        ("flexcs_threads", threads.to_string()),
        ("rustc", env!("FLEXBENCH_RUSTC").to_string()),
        ("git_commit", git_commit()),
        ("wall_s", format!("{:.3}", wall.elapsed().as_secs_f64())),
        ("cpu_s", format!("{:.3}", cpu_seconds() - cpu)),
    ];
    env.extend(report.info.iter().map(|(k, v)| (*k, v.clone())));
    let env: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", json_escape(v)))
        .collect();
    println!("{{\"env\": {{{}}}}}", env.join(", "));
    for (label, ok) in &report.checks {
        eprintln!("check {}: {label}", if *ok { "ok  " } else { "FAIL" });
    }
    let correct = report.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own process (so peak RSS and thread
/// pinning stay per workload) and prints their metrics together.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("flexbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let Ok(out) = out else {
            eprintln!("flexbench: {workload} did not start");
            return ExitCode::FAILURE;
        };
        correct &= out.status.success();
        let stdout = String::from_utf8_lossy(&out.stdout);
        for line in stdout.lines() {
            if let Some((name, rest)) = line.split_once(' ') {
                if let Some((value, unit)) = rest.split_once(' ') {
                    if name.starts_with(workload) {
                        println!("{line}");
                        metrics.push(format!(
                            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                        ));
                        continue;
                    }
                }
            }
            if line.starts_with("{\"env\"") {
                println!("{line}");
            } else if let Some(rest) = line.strip_prefix("{\"correct\": ") {
                let field = |key: &str| -> u64 {
                    rest.split(&format!("\"{key}\": "))
                        .nth(1)
                        .and_then(|s| s.split(',').next())
                        .and_then(|s| s.trim().parse().ok())
                        .unwrap_or(0)
                };
                attempted += field("attempted");
                failed += field("failed");
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("flexbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut threads = 1;
    for workload in workloads {
        match pinned_threads(workload, nproc) {
            Ok(t) => threads = t,
            Err(e) => {
                eprintln!("flexbench: refusing thread setting: {e}");
                return ExitCode::from(2);
            }
        }
    }
    // Pin every fan-out in the stack before anything reads the setting.
    std::env::set_var("FLEXCS_THREADS", threads.to_string());
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args, nproc, threads)
    }
}
