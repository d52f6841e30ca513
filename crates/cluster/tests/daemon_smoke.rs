//! Spawns the real `clare-cluster` binary in front of two in-process
//! shard servers and checks its lifecycle: the readiness line, one routed
//! retrieval equal to the owning shard's own answer, and a clean exit
//! once stdin closes.

use clare_cluster::{ShardMap, ShardSpec};
use clare_core::{ClauseRetrievalServer, CrsOptions, SearchMode};
use clare_kb::{KbBuilder, KbConfig};
use clare_net::protocol::encode;
use clare_net::{ClientConfig, NetClient, NetConfig, NetServer};
use clare_term::parser::parse_term;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::Arc;

fn shard() -> (Arc<ClauseRetrievalServer>, NetServer) {
    let mut b = KbBuilder::new();
    b.consult(
        "family",
        "parent(tom, bob). parent(tom, liz). parent(bob, ann).",
    )
    .unwrap();
    let crs = ClauseRetrievalServer::shared(b.finish(KbConfig::default()), CrsOptions::default());
    let server = NetServer::bind(Arc::clone(&crs), "127.0.0.1:0", NetConfig::default()).unwrap();
    (crs, server)
}

#[test]
fn router_daemon_serves_and_exits_on_stdin_close() {
    let shards = [shard(), shard()];
    let map = ShardMap {
        shards: shards
            .iter()
            .map(|(_, server)| ShardSpec {
                primary: server.local_addr().to_string(),
                backup: None,
            })
            .collect(),
        hot: Vec::new(),
        fingerprint: None,
    };
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_clare-cluster"));
    cmd.args(["--addr", "127.0.0.1:0", "--heartbeat-ms", "0"]);
    for spec in &map.shards {
        cmd.args(["--shard", &spec.primary]);
    }
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn clare-cluster");
    let stdout = child.stdout.take().expect("piped stdout");
    let ready = BufReader::new(stdout)
        .lines()
        .next()
        .expect("daemon printed a readiness line")
        .expect("readable stdout");
    let addr = ready
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected readiness line: {ready}"));

    let mut client = NetClient::connect(addr, ClientConfig::default()).expect("connect");
    let mut symbols = client.symbols().unwrap();
    let query = parse_term("parent(tom, X)", &mut symbols).unwrap();
    let routed = client.retrieve(&query, SearchMode::TwoStage).unwrap();
    let owner = &shards[map.route("parent", 2)].0;
    let own = owner.retrieve(&query, SearchMode::TwoStage);
    assert_eq!(encode(&routed), encode(&own));
    assert_eq!(routed.stats.unified, 2);
    drop(client);

    drop(child.stdin.take());
    let status = child.wait().expect("daemon exit status");
    assert!(status.success(), "daemon exited with {status}");
}
