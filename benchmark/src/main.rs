//! `benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
//! [--quick] [--out FILE]` and `benchmark/run.sh compare A.json B.json`.
//!
//! With `--workload`, this process runs that one workload and its last
//! line of standard output is the one-line JSON result `BENCHMARK.json`'s
//! driver reads. Without it, every workload runs in a fresh child process
//! of its own, untraced and then traced, and the merged report is printed
//! (and written to `--out`).

use clare_benchmark::compare::compare;
use clare_benchmark::layers::simd_level;
use clare_benchmark::report::{Provenance, Report, WorkloadReport};
use clare_benchmark::run::run;
use clare_benchmark::workloads::{RunSpec, WINDOWS, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]] \
                     [--quick] [--out FILE]\n       run.sh compare A.json B.json";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                // Bare `--trace` means on; the driver passes 0 or 1.
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(value("a file")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &parsed.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!(
                "unknown workload {w:?}; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(parsed)
}

/// A directory of the benchmark's own, beside the executable (so inside
/// the build directory, never in the source tree), removed on the way
/// out — also when a panic unwinds through `main`.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Result<Scratch, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
        let dir = exe
            .parent()
            .unwrap_or(Path::new("."))
            .join("clare-benchmark-scratch")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once the last run has left it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn provenance(args: &Args, seconds: f64) -> Provenance {
    Provenance {
        commit: tool_line("git", &["rev-parse", "--short=12", "HEAD"]),
        host: std::fs::read_to_string("/proc/sys/kernel/hostname")
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned()),
        nproc: std::thread::available_parallelism().map_or(0, usize::from),
        simd: simd_level(),
        rustc: tool_line("rustc", &["--version"]),
        seed: args.seed,
        window_s: seconds / WINDOWS as f64,
        windows: WINDOWS,
        quick: args.quick,
    }
}

fn seconds_of(args: &Args) -> f64 {
    // Three 10 s windows by default; 1 s windows in quick mode.
    args.seconds.unwrap_or(if args.quick { 3.0 } else { 30.0 })
}

fn write_out(report: &Report, path: &str) -> Result<(), String> {
    std::fs::write(path, report.to_json().pretty()).map_err(|e| format!("{path}: {e}"))
}

/// One workload in this process.
fn run_one(args: &Args, workload: &str) -> Result<ExitCode, String> {
    let scratch = Scratch::create()?;
    let seconds = seconds_of(args);
    let result = run(&RunSpec {
        workload: workload.to_owned(),
        seed: args.seed,
        seconds,
        trace: args.trace,
        quick: args.quick,
        scratch: scratch.0.clone(),
    })?;
    let line = result.driver_line(args.trace);
    let failed = result.failed;
    let report = Report {
        provenance: provenance(args, seconds),
        workloads: vec![result],
    };
    if let Some(path) = &args.out {
        write_out(&report, path)?;
    }
    print!("{}", report.render());
    println!("{line}");
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, each run in a fresh child process (untraced, then
/// traced), merged through the benchmark's own reader.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let scratch = Scratch::create()?;
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let seconds = seconds_of(args);
    let mut merged: Vec<WorkloadReport> = Vec::new();
    for (name, _) in WORKLOADS {
        let mut runs = Vec::new();
        // Quick mode is a smoke run: the traced process alone, whose
        // untraced baseline window supplies the end-to-end figures.
        let modes: &[&str] = if args.quick { &["1"] } else { &["0", "1"] };
        for &trace in modes {
            let out = scratch.0.join(format!("{name}.{trace}.json"));
            eprintln!("running {name} (trace {trace}) ...");
            let mut child = Command::new(&exe);
            child
                .args(["--workload", name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .arg("--out")
                .arg(&out)
                .stdin(Stdio::null())
                .stdout(Stdio::null());
            if args.quick {
                child.arg("--quick");
            }
            // `status` waits for the child to end.
            let status = child
                .status()
                .map_err(|e| format!("starting {name}: {e}"))?;
            let report = Report::read(&out.to_string_lossy())
                .map_err(|e| format!("{name} (trace {trace}) exited with {status}: {e}"))?;
            runs.extend(report.workloads);
        }
        let traced = runs.pop().ok_or("no traced run")?;
        merged.push(match runs.pop() {
            Some(mut untraced) => {
                untraced.merge_layers_from(traced);
                untraced
            }
            None => traced,
        });
    }
    let report = Report {
        provenance: provenance(args, seconds),
        workloads: merged,
    };
    if let Some(path) = &args.out {
        write_out(&report, path)?;
    }
    print!("{}", report.render());
    if report.failed() > 0 {
        eprintln!(
            "FAILED: the oracle disagreed with {} replies",
            report.failed()
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => Report::read(a)
                .and_then(|a| Ok((a, Report::read(b)?)))
                .map(|(a, b)| {
                    let (table, pass) = compare(&a, &b);
                    print!("{table}");
                    if pass {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }),
            _ => Err(USAGE.to_owned()),
        },
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => parse_args(&args).and_then(|parsed| match parsed.workload.clone() {
            Some(workload) => run_one(&parsed, &workload),
            None => run_all(&parsed),
        }),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}
