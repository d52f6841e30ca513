//! `clare-tables` — regenerates every table and figure of the paper.
//!
//! ```text
//! clare-tables                  # print every experiment
//! clare-tables table1 fs1       # print selected experiments
//! clare-tables --list           # list experiment names
//! clare-tables fs2bench --quick # small sizes, no BENCH_*.json write
//! clare-tables metrics --json   # dump the metrics registry as JSON
//! ```

use clare_bench::experiments;

const EXPERIMENTS: &[(&str, &str)] = &[
    ("table1", "E1: Table 1 — FS2 operation execution times"),
    ("figures", "E2: Figures 6-12 — datapath route timings"),
    ("tableA1", "E3: Table A1 — PIF data type scheme"),
    ("fig1", "E4: Figure 1 — matching algorithm validation"),
    ("throughput", "E5: FS2 filtering rate vs disks"),
    ("fs1", "E6: FS1 index scan vs exhaustive search"),
    ("falsedrops", "E7: SCW+MB false-drop sources"),
    ("modes", "E8: the four search modes"),
    ("levels", "E9: matching levels 1-5 ablation"),
    ("warren", "E10: Warren-scale scalability"),
    ("resultmem", "E11: Result Memory sizing"),
    ("suite", "E12: database benchmark suite (refs [6,7] style)"),
    ("lists", "E13: unlimited-list matching (two-counter rule)"),
    (
        "fs1bench",
        "E14: FS1 host scan wall-clock (writes BENCH_fs1.json)",
    ),
    (
        "fs2bench",
        "E15: FS2 two-stage host wall-clock (writes BENCH_fs2.json)",
    ),
    (
        "cachebench",
        "E16: retrieval cache wall-clock (writes BENCH_cache.json)",
    ),
    (
        "netbench",
        "E17: serving-core wall-clock, connections x depth (writes BENCH_net.json)",
    ),
    (
        "walbench",
        "E18: mutable-KB write path + compaction wall-clock (writes BENCH_wal.json)",
    ),
    (
        "clusterbench",
        "E19: sharded-cluster wall-clock, 1/2/4 shards (writes BENCH_cluster.json)",
    ),
    (
        "microprogram",
        "appendix: the assembled WCS microprogram listing",
    ),
    (
        "metrics",
        "observability: run a retrieval mix, dump the metrics registry (--json)",
    ),
];

fn run_one(name: &str, quick: bool, json: bool) -> bool {
    let divider = "=".repeat(72);
    println!("{divider}");
    match name {
        "table1" => println!("{}", experiments::table1::run()),
        "figures" => println!("{}", experiments::figures::run()),
        "tableA1" => println!("{}", experiments::table_a1::run()),
        "fig1" => println!("{}", experiments::fig1::run(5000, 0xF1_61)),
        "throughput" => println!("{}", experiments::throughput::run(0.002)),
        "fs1" => println!("{}", experiments::fs1::run(0.002)),
        "falsedrops" => println!("{}", experiments::false_drops::run()),
        "modes" => println!("{}", experiments::modes::run()),
        "levels" => println!("{}", experiments::levels::run(4)),
        "warren" => println!(
            "{}",
            experiments::warren_scale::run(&[0.0005, 0.001, 0.002, 0.005])
        ),
        "resultmem" => println!("{}", experiments::result_memory::run()),
        "suite" => println!("{}", experiments::bench_suite::run(1)),
        "lists" => println!("{}", experiments::lists::run()),
        "fs1bench" => {
            if quick {
                // CI smoke run: small sizes, tight budget, no file write.
                let report = experiments::fs1_wallclock::run(
                    &[1_000, 5_000],
                    std::time::Duration::from_millis(60),
                );
                println!("{report}");
            } else {
                let report = experiments::fs1_wallclock::run(
                    &[1_000, 10_000, 100_000],
                    std::time::Duration::from_secs(1),
                );
                println!("{report}");
                match std::fs::write("BENCH_fs1.json", report.to_json()) {
                    Ok(()) => println!("wrote BENCH_fs1.json"),
                    Err(e) => eprintln!("could not write BENCH_fs1.json: {e}"),
                }
            }
        }
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
        "cachebench" => {
            if quick {
                // CI smoke run: small sizes, tight budget, no file write.
                let report = experiments::cache_wallclock::run(
                    &[0.0, 0.9],
                    2_000,
                    64,
                    std::time::Duration::from_millis(60),
                );
                println!("{report}");
            } else {
                let report = experiments::cache_wallclock::run(
                    &[0.0, 0.5, 0.9, 0.99],
                    20_000,
                    256,
                    std::time::Duration::from_secs(1),
                );
                println!("{report}");
                match std::fs::write("BENCH_cache.json", report.to_json()) {
                    Ok(()) => println!("wrote BENCH_cache.json"),
                    Err(e) => eprintln!("could not write BENCH_cache.json: {e}"),
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
        "walbench" => {
            if quick {
                // CI smoke run: small base, tight budget. The report file
                // IS written in quick mode — CI uploads it as the
                // wal-bench-smoke artifact.
                let report = experiments::wal_wallclock::run(
                    2_000,
                    16,
                    &[1, 8],
                    500,
                    std::time::Duration::from_millis(60),
                );
                println!("{report}");
                match std::fs::write("BENCH_wal.json", report.to_json()) {
                    Ok(()) => println!("wrote BENCH_wal.json"),
                    Err(e) => eprintln!("could not write BENCH_wal.json: {e}"),
                }
            } else {
                let report = experiments::wal_wallclock::run(
                    20_000,
                    32,
                    &[1, 8, 64],
                    2_000,
                    std::time::Duration::from_secs(1),
                );
                println!("{report}");
                match std::fs::write("BENCH_wal.json", report.to_json()) {
                    Ok(()) => println!("wrote BENCH_wal.json"),
                    Err(e) => eprintln!("could not write BENCH_wal.json: {e}"),
                }
            }
        }
        "clusterbench" => {
            if quick {
                // CI smoke run: 1 and 2 shards, small base. The report
                // file IS written in quick mode — CI uploads it as the
                // cluster-bench-smoke artifact.
                let report = experiments::cluster_wallclock::run(&[1, 2], 200, 8, 2_000);
                println!("{report}");
                match std::fs::write("BENCH_cluster.json", report.to_json()) {
                    Ok(()) => println!("wrote BENCH_cluster.json"),
                    Err(e) => eprintln!("could not write BENCH_cluster.json: {e}"),
                }
            } else {
                let report = experiments::cluster_wallclock::run(&[1, 2, 4], 2_400, 16, 8_000);
                println!("{report}");
                match std::fs::write("BENCH_cluster.json", report.to_json()) {
                    Ok(()) => println!("wrote BENCH_cluster.json"),
                    Err(e) => eprintln!("could not write BENCH_cluster.json: {e}"),
                }
            }
        }
        "microprogram" => println!("{}", clare_fs2::Microprogram::standard()),
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
        for (name, description) in EXPERIMENTS {
            println!("{name:<12} {description}");
        }
        return;
    }
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let json = args.iter().any(|a| a == "--json");
    let selected: Vec<&str> = if args.iter().all(|a| a.starts_with('-')) {
        EXPERIMENTS.iter().map(|(n, _)| *n).collect()
    } else {
        args.iter()
            .filter(|a| !a.starts_with('-'))
            .map(String::as_str)
            .collect()
    };
    let mut ok = true;
    for name in selected {
        ok &= run_one(name, quick, json);
    }
    if !ok {
        std::process::exit(1);
    }
}
