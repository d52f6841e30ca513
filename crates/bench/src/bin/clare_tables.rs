//! `clare-tables` — regenerates every table and figure of the paper.
//!
//! ```text
//! clare-tables                  # print every fidelity experiment (E1-E13)
//! clare-tables table1 fs1       # print selected experiments
//! clare-tables --list           # list experiment names
//! clare-tables fs2bench --quick # small sizes, no BENCH_*.json write
//! clare-tables metrics --json   # dump the metrics registry as JSON
//! ```
//!
//! With no experiment named, the output is [`clare_bench::fidelity_report`]
//! and nothing else: host wall-clock experiments run only when named.

use clare_bench::{experiments, fidelity_report, section, FIDELITY_EXPERIMENTS};

/// Experiments that run only when named: host wall-clock and the
/// metrics dump.
const ON_REQUEST: &[(&str, &str)] = &[
    (
        "fs2bench",
        "E15: FS2 two-stage host wall-clock (writes BENCH_fs2.json)",
    ),
    (
        "netbench",
        "E17: serving-core wall-clock, connections x depth (writes BENCH_net.json)",
    ),
    (
        "metrics",
        "observability: run a retrieval mix, dump the metrics registry (--json)",
    ),
];

fn run_one(name: &str, quick: bool, json: bool) -> bool {
    if let Some((_, _, run)) = FIDELITY_EXPERIMENTS.iter().find(|(n, ..)| *n == name) {
        print!("{}", section(&run()));
        return true;
    }
    println!("{}", "=".repeat(72));
    match name {
        "fs2bench" => {
            if quick {
                // CI smoke run: small sizes, tight budget, no file write.
                let report = experiments::fs2_wallclock::run(
                    &[1_000, 5_000],
                    std::time::Duration::from_millis(60),
                );
                println!("{report}");
            } else {
                let report = experiments::fs2_wallclock::run(
                    &[1_000, 10_000, 100_000],
                    std::time::Duration::from_secs(1),
                );
                println!("{report}");
                match std::fs::write("BENCH_fs2.json", report.to_json()) {
                    Ok(()) => println!("wrote BENCH_fs2.json"),
                    Err(e) => eprintln!("could not write BENCH_fs2.json: {e}"),
                }
            }
        }
        "netbench" => {
            use experiments::net_wallclock::NetCase;
            let case = |connections, depth| NetCase { connections, depth };
            // 64/256 connections x depth 1/8; the full matrix adds the
            // C10K-scale point, 1024 concurrent connections. The report
            // file IS written in quick mode — CI uploads it as the
            // net-bench-smoke artifact.
            let mut cases = vec![case(64, 1), case(64, 8), case(256, 1), case(256, 8)];
            let report = if quick {
                experiments::net_wallclock::run(&cases, 2_000, 2)
            } else {
                cases.extend([case(1024, 1), case(1024, 8)]);
                experiments::net_wallclock::run(&cases, 5_000, 4)
            };
            println!("{report}");
            match std::fs::write("BENCH_net.json", report.to_json()) {
                Ok(()) => println!("wrote BENCH_net.json"),
                Err(e) => eprintln!("could not write BENCH_net.json: {e}"),
            }
        }
        "metrics" => print!("{}", experiments::metrics_dump::run(json)),
        other => {
            eprintln!("unknown experiment `{other}`; try --list");
            return false;
        }
    }
    true
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list" || a == "-l") {
        let fidelity = FIDELITY_EXPERIMENTS.iter().map(|&(n, d, _)| (n, d));
        for (name, description) in fidelity.chain(ON_REQUEST.iter().copied()) {
            println!("{name:<12} {description}");
        }
        return;
    }
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let json = args.iter().any(|a| a == "--json");
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with('-'))
        .map(String::as_str)
        .collect();
    if selected.is_empty() {
        print!("{}", fidelity_report());
        return;
    }
    let mut ok = true;
    for name in selected {
        ok &= run_one(name, quick, json);
    }
    if !ok {
        std::process::exit(1);
    }
}
