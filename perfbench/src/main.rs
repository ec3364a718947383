//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! Each workload runs in its own process, measures for `--seconds`,
//! checks every output, prints every metric with its unit and sample
//! count, and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is the
//! separate traced run that reports the per-layer metrics and writes
//! its spans as a Chrome trace. `--workload all` runs every workload,
//! each in a child process. `METRICS.md` is the metric catalogue.

mod alloc;
mod infer;
mod reference;
mod report;
mod sim;
mod trace;

use std::error::Error;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use report::Outcome;
use trace::Recorder;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["mobilenet-coop", "googlenet-mini-coop", "serve-overload"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds {value}: want a number in (0, 3600]"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload {:?}: want one of all, {}",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Validates the traced run's spans as a Chrome trace and writes them
/// to `--trace-out` (default `perfbench/out/<workload>-<seed>.trace.json`).
pub fn write_trace(args: &Args, rec: &Recorder, out: &mut Outcome) -> Result<(), Box<dyn Error>> {
    let json = rec.chrome_json(out.host.json());
    match simcore::validate_chrome_trace(&json) {
        Ok(s) => println!(
            "trace: {} complete events on {} tracks",
            s.complete_events, s.tracks
        ),
        Err(e) => out.problem(format!("trace fails validation: {e}")),
    }
    let path = args.trace_out.clone().unwrap_or_else(|| {
        PathBuf::from(format!(
            "perfbench/out/{}-{}.trace.json",
            args.workload, args.seed
        ))
    });
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, json)?;
    println!("trace written to {}", path.display());
    Ok(())
}

fn run_one(args: &Args) -> Result<(), Box<dyn Error>> {
    let mut out = Outcome::new(match args.workload.as_str() {
        "serve-overload" => sim::host(),
        _ => infer::host(),
    });
    match args.workload.as_str() {
        "mobilenet-coop" => infer::run(
            &infer::Workload {
                model: unn::ModelId::MobileNet,
                miniature: false,
                setup_reps: 5,
                best_by_parts: true,
            },
            args,
            &mut out,
        )?,
        "googlenet-mini-coop" => infer::run(
            &infer::Workload {
                model: unn::ModelId::GoogLeNet,
                miniature: true,
                setup_reps: 15,
                best_by_parts: false,
            },
            args,
            &mut out,
        )?,
        "serve-overload" => sim::run_serve(args, &mut out)?,
        other => unreachable!("workload {other} passed validation"),
    }
    if !args.trace {
        out.set("peak_rss_mb", report::peak_rss_mb()?, 1);
    }
    out.print(&args.workload, args.seed, args.trace);
    Ok(())
}

/// Runs every workload in a child process of its own, passing their
/// reports through. Fails if any child fails or reports a failure.
fn run_all(argv: &[String]) -> Result<(), Box<dyn Error>> {
    let exe = std::env::current_exe()?;
    let mut bad = Vec::new();
    for w in WORKLOADS {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().cloned().unwrap_or_default();
            child_args.push(flag.clone());
            child_args.push(if flag == "--workload" {
                w.to_string()
            } else {
                value
            });
        }
        let output = Command::new(&exe).args(&child_args).output()?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let correct = stdout
            .lines()
            .last()
            .is_some_and(|l| l.starts_with("{\"correct\":true"));
        if !output.status.success() || !correct {
            bad.push(w);
        }
        println!();
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("workloads failed: {}", bad.join(", ")).into())
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&argv)
    } else {
        run_one(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
