//! `clare-cluster`: the predicate-sharded cluster router daemon.
//!
//! Serves the [`Router`] through the same [`NetServer`] front end as
//! `clare-served`, so clients see one logical Clause Retrieval Server;
//! behind it, requests shard by predicate across the configured backends
//! with log-shipping replication and failover. The router grants frame
//! CRCs but not query budgets, refuses solve, consult and replication
//! requests as unsupported, and like `clare-served` needs Linux.
//!
//! ```text
//! clare-cluster [OPTIONS]
//!
//!   --addr HOST:PORT       listen address       (default 127.0.0.1:7899)
//!   --shard PRIM[,BACKUP]  one shard: primary backend address, plus an
//!                          optional log-shipping backup (repeatable;
//!                          at least one required)
//!   --hot FUNCTOR/ARITY    split this predicate by first argument
//!                          across all shards (repeatable)
//!   --heartbeat-ms N       health-probe period  (default 500; 0 turns
//!                          the probe thread off — failover is manual)
//!   --misses K             consecutive probe misses before promotion
//!                          (default 3)
//!   --repl-timeout-ms N    semi-sync write wait (default 2000)
//!   --no-auto-failover     count misses but never promote automatically
//!   --no-stdin             serve forever instead of exiting on stdin EOF
//! ```
//!
//! Prints `listening on ADDR` on stdout once ready, like `clare-served`,
//! and drains and exits 0 when stdin closes.

use clare_cluster::{Router, RouterConfig, ShardMap, ShardSpec};
use clare_net::{NetConfig, NetServer, PROTOCOL_VERSION};
use std::io::BufRead;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    addr: String,
    map: ShardMap,
    /// `RouterConfig`'s defaults are the documented option defaults.
    router: RouterConfig,
    heartbeat_ms: u64,
    wait_stdin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7899".to_owned(),
        map: ShardMap {
            shards: Vec::new(),
            hot: Vec::new(),
            fingerprint: None,
        },
        router: RouterConfig::default(),
        heartbeat_ms: 500,
        wait_stdin: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {arg}"));
        match arg.as_str() {
            "--addr" => args.addr = value()?,
            "--shard" => {
                let spec = value()?;
                let mut parts = spec.splitn(2, ',');
                let primary = parts
                    .next()
                    .filter(|p| !p.is_empty())
                    .ok_or("empty --shard")?
                    .to_owned();
                let backup = parts.next().filter(|b| !b.is_empty()).map(str::to_owned);
                args.map.shards.push(ShardSpec { primary, backup });
            }
            "--hot" => {
                let spec = value()?;
                let (functor, arity) = spec
                    .rsplit_once('/')
                    .ok_or_else(|| format!("bad --hot {spec:?} (expected functor/arity)"))?;
                let arity: usize = arity.parse().map_err(|e| format!("bad --hot arity: {e}"))?;
                args.map.hot.push((functor.to_owned(), arity));
            }
            "--heartbeat-ms" => args.heartbeat_ms = number(&arg, value()?)?,
            "--misses" => args.router.heartbeat_misses = number(&arg, value()?)?,
            "--repl-timeout-ms" => {
                args.router.repl_sync_timeout = Duration::from_millis(number(&arg, value()?)?)
            }
            "--no-auto-failover" => args.router.auto_failover = false,
            "--no-stdin" => args.wait_stdin = false,
            "--help" | "-h" => {
                return Err("usage: clare-cluster --shard PRIMARY[,BACKUP] [OPTIONS] \
                            (see crate docs for options)"
                    .to_owned())
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if args.map.shards.is_empty() {
        return Err("at least one --shard is required".to_owned());
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

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("clare-cluster: {msg}");
            std::process::exit(2);
        }
    };

    let router = match Router::connect(args.map, args.router) {
        Ok(router) => Arc::new(router),
        Err(e) => {
            eprintln!("clare-cluster: cannot assemble the cluster: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "clare-cluster: {} shard(s) connected, KB fingerprint {:#018x}",
        router.shard_count(),
        router.kb_fingerprint()
    );

    if args.heartbeat_ms > 0 {
        let router = Arc::clone(&router);
        let period = Duration::from_millis(args.heartbeat_ms);
        std::thread::Builder::new()
            .name("clare-health".to_owned())
            .spawn(move || loop {
                std::thread::sleep(period);
                for shard in router.tick_health() {
                    eprintln!("clare-cluster: shard {shard} failed over to its backup");
                }
            })
            .ok();
    }

    // Calls to one shard serialise on that shard's client, so the
    // pool needs a worker per shard to keep every shard busy.
    let cfg = NetConfig {
        workers: NetConfig::default().workers.max(router.shard_count()),
        ..NetConfig::default()
    };
    let server = match NetServer::bind(Arc::clone(&router), &args.addr, cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("clare-cluster: cannot bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    // The harness contract: this exact line signals readiness.
    println!("listening on {}", server.local_addr());
    eprintln!(
        "clare-cluster: protocol v{PROTOCOL_VERSION}, routing on {}",
        server.local_addr()
    );

    if args.wait_stdin {
        std::io::stdin()
            .lock()
            .lines()
            .map_while(Result::ok)
            .for_each(drop);
        eprintln!("clare-cluster: stdin closed, draining…");
        server.shutdown();
    } else {
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
}
