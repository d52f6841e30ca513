//! Adversarial-input properties for the live server: it answers every
//! garbage frame with *some* frame — never a hang, never a dropped
//! connection, never a dead worker. (Payload decoders are fuzzed
//! table-wide in `golden.rs`.)

use clare_core::{ClauseRetrievalServer, CrsOptions, SearchMode};
use clare_kb::{KbBuilder, KbConfig};
use clare_net::protocol::{
    decode, decode_server_hello, encode, encode_client_hello_caps, opcode, BudgetExt, Frame,
    FrameReader, HelloStatus, RetrieveReq, CAP_FRAME_CRC, MAX_FRAME_LEN, PROTOCOL_VERSION,
    SERVER_HELLO_LEN,
};
use clare_net::{ClientConfig, NetClient, NetConfig, NetServer};
use clare_term::parser::parse_term;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// One server shared by the live-fire property below.
fn spawn_server() -> NetServer {
    let mut b = KbBuilder::new();
    b.consult("m", "p(a). p(b). q(c, d).").unwrap();
    let crs = Arc::new(ClauseRetrievalServer::new(
        b.finish(KbConfig::default()),
        CrsOptions::default(),
    ));
    NetServer::bind(
        crs,
        "127.0.0.1:0",
        NetConfig {
            workers: 2,
            ..NetConfig::default()
        },
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fire a random-opcode, random-payload frame at a live server: the
    /// server must answer the frame's id with *something* (a reply or an
    /// error frame) and then still serve a correct retrieval on the same
    /// connection. This pins "malformed input yields error frames, not
    /// disconnects and not dead workers".
    #[test]
    fn live_server_survives_arbitrary_frames(
        op in any::<u8>(),
        payload in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let server = spawn_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(&encode_client_hello_caps(PROTOCOL_VERSION, 0)).unwrap();
        let mut hello = [0u8; SERVER_HELLO_LEN];
        stream.read_exact(&mut hello).unwrap();

        let mut reader = FrameReader::new(MAX_FRAME_LEN);
        stream.write_all(&Frame::new(7, op, payload).encoded()).unwrap();
        // Whatever the opcode decoded to, id 7 must eventually be
        // answered — directly, or implicitly by the connection staying
        // healthy for the probe below. Consume frames until the probe's
        // reply appears; every intermediate frame must carry id 7.
        stream.write_all(&Frame::new(8, opcode::PING, Vec::new()).encoded()).unwrap();
        loop {
            let frame = reader.read_frame(&mut stream).unwrap();
            if frame.request_id == 8 {
                prop_assert_eq!(frame.opcode, opcode::PING | opcode::REPLY);
                break;
            }
            prop_assert_eq!(frame.request_id, 7);
        }

        // The service still answers real queries on this connection.
        drop(stream);
        let mut client = NetClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
        let mut symbols = client.symbols().unwrap();
        let query = parse_term("p(X)", &mut symbols).unwrap();
        let got = client.retrieve(&query, SearchMode::TwoStage).unwrap();
        prop_assert_eq!(got.stats.unified, 2);
        server.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pipelined bursts the server may coalesce — runs of same-predicate
    /// retrieves interleaved with other predicates, pings, and stats, on
    /// deliberately non-sequential request ids — map every reply back to
    /// the id of the request it answers: each retrieve reply is
    /// byte-identical to a direct call for *that id's* query.
    #[test]
    fn coalesced_pipelines_map_replies_to_request_ids(
        ops in prop::collection::vec(0u8..6, 1..24),
        workers in 1usize..3,
    ) {
        let mut b = KbBuilder::new();
        b.consult("m", "p(a). p(b). p(f(a)). q(c, d). q(c, e).").unwrap();
        let mut symbols = b.symbols_mut().clone();
        let crs = Arc::new(ClauseRetrievalServer::new(
            b.finish(KbConfig::default()),
            CrsOptions::default(),
        ));
        let server = NetServer::bind(
            Arc::clone(&crs),
            "127.0.0.1:0",
            NetConfig { workers, ..NetConfig::default() },
        )
        .unwrap();

        let queries = [
            parse_term("p(a)", &mut symbols).unwrap(),
            parse_term("p(X)", &mut symbols).unwrap(),
            parse_term("p(f(Y))", &mut symbols).unwrap(),
            parse_term("q(c, X)", &mut symbols).unwrap(),
        ];

        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(&encode_client_hello_caps(PROTOCOL_VERSION, 0)).unwrap();
        let mut hello = [0u8; SERVER_HELLO_LEN];
        stream.read_exact(&mut hello).unwrap();

        // One write so whole bursts reach the coalescer together.
        let mut burst = Vec::new();
        let mut expected: Vec<(u64, Option<&clare_term::Term>)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let id = 1_000 + (i as u64) * 37 % 501; // distinct, non-monotone
            match op {
                0..=3 => {
                    let query = &queries[*op as usize];
                    burst.extend_from_slice(&Frame::new(id, opcode::RETRIEVE, encode(&RetrieveReq {
                        query: query.clone(),
                        mode: SearchMode::TwoStage,
                        deadline_micros: 0,
                        budget: BudgetExt::NONE,
                    })).encoded());
                    expected.push((id, Some(query)));
                }
                4 => {
                    burst.extend_from_slice(&Frame::new(id, opcode::PING, Vec::new()).encoded());
                    expected.push((id, None));
                }
                _ => {
                    burst.extend_from_slice(&Frame::new(id, opcode::STATS, Vec::new()).encoded());
                    expected.push((id, None));
                }
            }
        }
        stream.write_all(&burst).unwrap();

        // Replies may arrive in any order across workers; collect by id.
        let mut reader = FrameReader::new(MAX_FRAME_LEN);
        let mut replies = std::collections::HashMap::new();
        for _ in 0..expected.len() {
            let frame = reader.read_frame(&mut stream).unwrap();
            prop_assert!(replies.insert(frame.request_id, frame).is_none(), "duplicate reply id");
        }
        for (id, query) in &expected {
            let frame = replies.get(id).expect("request id never answered");
            match query {
                Some(query) => {
                    prop_assert_eq!(frame.opcode, opcode::RETRIEVE | opcode::REPLY);
                    let got = decode::<clare_core::Retrieval>(&frame.payload).unwrap();
                    let direct = crs.retrieve(query, SearchMode::TwoStage);
                    prop_assert_eq!(&got, &direct, "reply for id {} answers a different query", id);
                }
                None => prop_assert!(frame.opcode & opcode::REPLY != 0),
            }
        }
        server.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The handshake admits exactly one version and never grants more
    /// than was asked. For an arbitrary requested-capability byte: a
    /// client speaking any other version — v3, the last dialect to be
    /// retired, included — gets exactly one `VersionMismatch` hello with
    /// no capabilities and then the close; a v4 client is granted a subset
    /// of what it requested and then served retrieval replies
    /// byte-identical to the in-process reference over the framing that
    /// was negotiated.
    #[test]
    fn handshake_refuses_other_versions_and_grants_only_requested_caps(
        requested in any::<u8>(),
        version in prop_oneof![Just(PROTOCOL_VERSION), Just(3u16), any::<u16>()],
        qi in 0usize..3,
    ) {
        let mut b = KbBuilder::new();
        b.consult("m", "p(a). p(b). q(c, d).").unwrap();
        let crs = Arc::new(ClauseRetrievalServer::new(
            b.finish(KbConfig::default()),
            CrsOptions::default(),
        ));
        let server = NetServer::bind(
            Arc::clone(&crs),
            "127.0.0.1:0",
            NetConfig { workers: 2, ..NetConfig::default() },
        )
        .unwrap();

        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(&encode_client_hello_caps(version, requested)).unwrap();
        let mut raw = [0u8; SERVER_HELLO_LEN];
        stream.read_exact(&mut raw).unwrap();
        let hello = decode_server_hello(&raw).unwrap();
        prop_assert_eq!(hello.version, PROTOCOL_VERSION);
        if version != PROTOCOL_VERSION {
            prop_assert_eq!(hello.status, HelloStatus::VersionMismatch);
            prop_assert_eq!(hello.caps, 0, "a refused client is granted nothing");
            let mut rest = Vec::new();
            stream.read_to_end(&mut rest).unwrap();
            prop_assert!(rest.is_empty(), "{} bytes followed the refusal hello", rest.len());
            server.shutdown();
            return Ok(());
        }
        prop_assert_eq!(hello.status, HelloStatus::Ok);
        prop_assert_eq!(
            hello.caps & !requested, 0,
            "granted capabilities must be a subset of the requested ones"
        );

        // Speak whatever framing was negotiated.
        let crc = hello.caps & CAP_FRAME_CRC != 0;
        let mut symbols = crs.symbols();
        let text = ["p(X)", "q(X, Y)", "p(b)"][qi];
        let query = parse_term(text, &mut symbols).unwrap();
        let req = RetrieveReq {
            mode: SearchMode::TwoStage,
            deadline_micros: 0,
            budget: BudgetExt::NONE,
            query: query.clone(),
        };
        let frame = Frame::new(7, opcode::RETRIEVE, encode(&req));
        stream.write_all(&frame.encoded_with(crc)).unwrap();
        let mut fr = FrameReader::new(MAX_FRAME_LEN);
        fr.set_checksums(crc);
        let reply = fr.read_frame(&mut stream).unwrap();
        prop_assert_eq!(reply.request_id, 7);
        prop_assert_eq!(reply.opcode, opcode::RETRIEVE | opcode::REPLY);
        prop_assert_eq!(
            reply.payload,
            encode(&crs.retrieve(&query, SearchMode::TwoStage)),
            "the reply diverged from the reference bytes under caps {:#04x}", hello.caps
        );
        server.shutdown();
    }
}
