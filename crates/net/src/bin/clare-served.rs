//! `clare-served`: the Clause Retrieval Server daemon.
//!
//! Loads a knowledge base (a Prolog source file, a generated Warren-style
//! workload, or a small built-in demo), binds a TCP listener, and serves
//! the PIF-over-TCP protocol until stdin closes (or forever with
//! `--no-stdin`).
//!
//! ```text
//! clare-served [OPTIONS] [program.pl]
//!
//!   --addr HOST:PORT   listen address        (default 127.0.0.1:7879)
//!   --workers N        worker threads        (default 4)
//!   --max-conns N      connection limit      (default 64)
//!   --queue-depth N    request queue bound   (default 256)
//!   --module NAME      module to consult into (default "user")
//!   --wal PATH         attach a write-ahead log: replay it on startup,
//!                      then make every networked assert/retract durable
//!                      (fsynced before the commit receipt goes out)
//!   --warren SCALE     generate a Warren-style KB at this scale
//!                      instead of reading a program file
//!   --no-stdin         serve forever instead of exiting on stdin EOF
//! ```
//!
//! An unknown option is a usage error (exit status 2). Pipelined
//! same-predicate retrieves are always answered by one batch pass, and
//! CRC frame trailers are granted to every client that asks for them.
//!
//! The daemon prints `listening on ADDR` (with the actual port when 0 was
//! requested) once ready — harnesses spawn it, parse that line, connect,
//! and close its stdin for a graceful drain-and-exit.

use clare_core::{ClauseRetrievalServer, CrsOptions};
use clare_kb::{KbBuilder, KbConfig};
use clare_net::{NetConfig, NetServer, PROTOCOL_VERSION};
use clare_workload::WarrenSpec;
use std::io::BufRead;
use std::sync::Arc;

struct Args {
    addr: String,
    /// `NetConfig`'s defaults are the documented option defaults.
    net: NetConfig,
    module: String,
    wal: Option<String>,
    warren: Option<f64>,
    program: Option<String>,
    wait_stdin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7879".to_owned(),
        net: NetConfig::default(),
        module: "user".to_owned(),
        wal: None,
        warren: None,
        program: None,
        wait_stdin: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {arg}"));
        match arg.as_str() {
            "--addr" => args.addr = value()?,
            "--workers" => args.net.workers = number(&arg, value()?)?,
            "--max-conns" => args.net.max_connections = number(&arg, value()?)?,
            "--queue-depth" => args.net.queue_depth = number(&arg, value()?)?,
            "--module" => args.module = value()?,
            "--wal" => args.wal = Some(value()?),
            "--warren" => args.warren = Some(number(&arg, value()?)?),
            "--no-stdin" => args.wait_stdin = false,
            "--help" | "-h" => {
                return Err("usage: clare-served [OPTIONS] [program.pl] \
                            (see crate docs for options)"
                    .to_owned())
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => args.program = Some(other.to_owned()),
        }
    }
    if args.warren.is_some() && args.program.is_some() {
        return Err("--warren and a program file are mutually exclusive".to_owned());
    }
    Ok(args)
}

/// Parses the value of a numeric option.
fn number<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("bad {flag}: {e}"))
}

fn build_kb(args: &Args) -> Result<clare_kb::KnowledgeBase, String> {
    let mut builder = KbBuilder::new();
    if let Some(scale) = args.warren {
        let spec = WarrenSpec::scaled(scale);
        eprintln!(
            "clare-served: generating Warren-style KB at scale {scale} \
             ({} predicates, {} rules, {} facts)",
            spec.predicates, spec.rules, spec.facts
        );
        spec.generate(&mut builder, &args.module);
    } else if let Some(path) = &args.program {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        builder
            .consult(&args.module, &source)
            .map_err(|e| format!("cannot consult {path}: {e}"))?;
    } else {
        builder
            .consult(
                &args.module,
                "parent(tom, bob). parent(tom, liz).
                 parent(bob, ann). parent(bob, pat).
                 grandparent(X, Z) :- parent(X, Y), parent(Y, Z).",
            )
            .expect("built-in demo program parses");
        eprintln!("clare-served: no program given, serving the built-in family demo");
    }
    Ok(builder.finish(KbConfig::default()))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("clare-served: {msg}");
            std::process::exit(2);
        }
    };

    let kb = match build_kb(&args) {
        Ok(kb) => kb,
        Err(msg) => {
            eprintln!("clare-served: {msg}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "clare-served: knowledge base ready ({} atoms in the symbol table)",
        kb.symbols().atom_count()
    );

    let crs = Arc::new(ClauseRetrievalServer::new(kb, CrsOptions::default()));
    if let Some(path) = &args.wal {
        match crs.attach_wal(path) {
            Ok(report) => eprintln!(
                "clare-served: WAL {path} attached ({} records replayed, \
                 {} torn tail bytes truncated, next seq {})",
                report.records, report.truncated_tail_bytes, report.next_seq
            ),
            Err(e) => {
                eprintln!("clare-served: cannot attach WAL {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    let server = match NetServer::bind(Arc::clone(&crs), &args.addr, args.net.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("clare-served: cannot bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };

    // The harness contract: this exact line (on stdout) signals readiness
    // and carries the resolved port.
    println!("listening on {}", server.local_addr());
    eprintln!(
        "clare-served: protocol v{PROTOCOL_VERSION}, {} workers, {} connections max",
        args.net.workers, args.net.max_connections
    );

    if args.wait_stdin {
        // Serve until stdin closes, then drain and exit — the natural
        // lifecycle under a spawning test harness or a shell pipe.
        std::io::stdin()
            .lock()
            .lines()
            .map_while(Result::ok)
            .for_each(drop);
        eprintln!("clare-served: stdin closed, draining…");
        let stats = crs.stats();
        server.shutdown();
        eprintln!(
            "clare-served: served {} retrievals ({} batches), {} solves, \
             {} updates, {} rejected",
            stats.retrievals, stats.batches, stats.solves, stats.updates, stats.rejected
        );
    } else {
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
}
