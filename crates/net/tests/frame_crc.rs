//! Frame-checksum protection under an injected corruption storm. Alone in
//! its test binary: the injector is process-wide, and a 35 %
//! `NetServerSend` storm would drop or corrupt the replies of any test
//! sharing the process.

use clare_core::{ClauseRetrievalServer, CrsOptions, SearchMode};
use clare_fault::{DeterministicInjector, FaultPlan, FaultSite};
use clare_kb::{KbBuilder, KbConfig};
use clare_net::{ClientConfig, NetClient, NetConfig, NetServer};
use clare_term::parser::parse_term;
use clare_term::Term;
use std::sync::Arc;
use std::time::Duration;

/// With frame checksums negotiated, injected bit flips on server replies
/// are *detected* (never silently decoded): every retrieve either matches
/// the direct answer or forces a counted reconnect, and the CRC failure
/// counter moves.
#[test]
fn frame_crc_catches_injected_reply_corruption() {
    let plan = FaultPlan::none().with(FaultSite::NetServerSend, 350);
    let injector = Arc::new(DeterministicInjector::new(0xC0FFEE, plan));
    let _guard = clare_fault::install(injector);

    let mut b = KbBuilder::new();
    let facts: String = (0..60)
        .map(|i| format!("item(k{}, v{}).\n", i % 12, i % 5))
        .collect();
    b.consult("m", &facts).unwrap();
    let crs = Arc::new(ClauseRetrievalServer::new(
        b.finish(KbConfig::default()),
        CrsOptions::default(),
    ));
    let cfg = NetConfig {
        workers: 2,
        ..NetConfig::default()
    };
    let server = NetServer::bind(Arc::clone(&crs), "127.0.0.1:0", cfg).unwrap();
    let cfg = ClientConfig {
        read_timeout: Duration::from_millis(500),
        reconnect_retries: 8,
        ..ClientConfig::default()
    };
    let mut client = NetClient::connect(server.local_addr(), cfg).unwrap();
    let mut symbols = client.symbols().unwrap();
    let queries: Vec<Term> = (0..8)
        .map(|i| parse_term(&format!("item(k{i}, X)"), &mut symbols).unwrap())
        .collect();

    let crc_before = clare_trace::metrics().net_frame_crc_failures.get();
    let mut survived = 0usize;
    for round in 0..4 {
        for (i, query) in queries.iter().enumerate() {
            match client.retrieve(query, SearchMode::TwoStage) {
                Ok(networked) => {
                    assert_eq!(
                        networked,
                        crs.retrieve(query, SearchMode::TwoStage),
                        "round {round} query {i}: a corrupted reply was decoded as truth"
                    );
                    survived += 1;
                }
                // Retries exhausted under sustained 35% corruption is an
                // acceptable *flagged* outcome; silence would not be.
                Err(_) => {
                    let _ = client.reconnect();
                }
            }
        }
    }
    assert!(survived > 0, "no request ever survived the fault storm");
    assert!(
        clare_trace::metrics().net_frame_crc_failures.get() > crc_before
            || clare_trace::metrics().net_client_reconnects.get() > 0,
        "faults at 35% must have been observed somewhere"
    );
    server.shutdown();
}
