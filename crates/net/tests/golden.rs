//! Golden wire payloads: one request and one reply payload per opcode (both
//! budget-tail shapes, both STATS shapes) plus an error reply, built from
//! fixed sample values and checked in as hex in `golden/wire.hex`.
//!
//! The corpus pins the bytes: encoding each sample must reproduce its line
//! exactly, and decoding each line must give the sample back. A codec change
//! that moves a single wire byte fails here.

use std::collections::BTreeMap;
use std::fmt::Debug;

use clare_core::{
    CommitReceipt, ModeChoice, Retrieval, RetrievalStats, SearchMode, ServerStats, Solution,
    SolveOutcome, SolveStats,
};
use clare_disk::SimNanos;
use clare_net::protocol::{
    decode, encode, opcode, visit_requests, BudgetExt, ConsultReq, ErrorCode, ErrorReply,
    MetricsReq, Ping, Request, RequestVisitor, RetrieveBatchReq, RetrieveReq, SolveReq, StatsReq,
    SymbolsReq, Tagged, Wire,
};
use clare_term::{ClauseId, SymbolTable, Term, VarId};
use clare_trace::{HistogramSnapshot, MetricsSnapshot};
use clare_wal::{WalOp, WalRecord};

const CORPUS: &str = include_str!("golden/wire.hex");

/// Panics unless the given bytes decode to the sample.
type DecodeCheck = Box<dyn Fn(&[u8])>;

/// One golden payload: its corpus key, its bytes as the codec encodes the
/// sample, and a check that decoding given bytes yields the sample.
struct Golden {
    key: &'static str,
    encoded: Vec<u8>,
    decodes_to_sample: DecodeCheck,
}

fn golden<T: Wire + PartialEq + Debug + 'static>(key: &'static str, value: T) -> Golden {
    Golden {
        key,
        encoded: encode(&value),
        decodes_to_sample: Box::new(move |bytes| {
            let got: T = decode(bytes).unwrap_or_else(|e| panic!("{key}: {e}"));
            assert_eq!(got, value, "{key}: decoded value differs from the sample");
        }),
    }
}

fn terms(symbols: &mut SymbolTable) -> [Term; 3] {
    let likes = symbols.intern_atom("likes");
    let mary = symbols.intern_atom("mary");
    let pi = symbols.intern_float(3.25);
    [
        Term::Atom(mary),
        Term::Struct {
            functor: likes,
            args: vec![
                Term::Atom(mary),
                Term::Var(VarId::new(0)),
                Term::Int(-42),
                Term::Float(pi),
            ],
        },
        Term::List {
            items: vec![Term::Anon, Term::Int(7)],
            tail: None,
        },
    ]
}

fn retrievals() -> [Retrieval; 2] {
    let stats = RetrievalStats {
        mode: SearchMode::TwoStage,
        clauses_total: 100,
        after_fs1: Some(12),
        after_fs2: None,
        candidates: 3,
        unified: 2,
        false_drops: 1,
        disk_time: SimNanos::from_ns(123),
        fs1_time: SimNanos::from_ns(456),
        fs2_time: SimNanos::ZERO,
        software_filter_time: SimNanos::from_ns(789),
        full_unify_time: SimNanos::from_ns(1),
        elapsed: SimNanos::from_ns(1369),
        bytes_from_disk: 4096,
        result_memory_overflows: 1,
        quarantined_tracks: 2,
        degraded: true,
    };
    [
        Retrieval {
            candidates: vec![ClauseId::new(3), ClauseId::new(17), ClauseId::new(0)],
            stats: stats.clone(),
        },
        Retrieval {
            candidates: Vec::new(),
            stats: RetrievalStats {
                mode: SearchMode::Fs2Only,
                after_fs1: None,
                after_fs2: Some(0),
                candidates: 0,
                unified: 0,
                false_drops: 0,
                degraded: false,
                ..stats
            },
        },
    ]
}

fn server_stats() -> ServerStats {
    ServerStats {
        retrievals: 10,
        batches: 2,
        solves: 3,
        updates: 1,
        rejected: 4,
        degraded: 2,
        total_elapsed: SimNanos::from_millis(6),
    }
}

fn metrics() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: vec![
            ("fs1.scans".to_owned(), 3),
            ("net.frames_in.ping".to_owned(), 0),
        ],
        gauges: vec![("simd.level".to_owned(), -1)],
        histograms: vec![(
            "crs.retrieve_wall_ns".to_owned(),
            HistogramSnapshot {
                count: 2,
                sum: 300,
                buckets: vec![0, 1, 1],
            },
        )],
    }
}

/// Every golden payload, keyed `<opcode> <entry> <req|reply> <variant>`,
/// where `entry` names the request's row in the opcode table.
fn corpus_samples() -> Vec<Golden> {
    let mut symbols = SymbolTable::new();
    let [atom, compound, list] = terms(&mut symbols);
    let budget = BudgetExt {
        solve_step_limit: 1_000,
        candidate_limit: 4_096,
    };
    let [r1, r2] = retrievals();
    let mut table = SymbolTable::new();
    table.intern_atom("likes");
    table.intern_atom("mary");
    table.intern_float(3.25);
    table.intern_float(-0.5);
    let source = |module: &str, source: &str| ConsultReq {
        module: module.to_owned(),
        source: source.to_owned(),
    };

    vec![
        golden("01 Ping req plain", Ping),
        golden("01 Ping reply plain", ()),
        golden(
            "02 RetrieveReq req plain",
            RetrieveReq {
                mode: SearchMode::TwoStage,
                deadline_micros: 1_000_000,
                budget: BudgetExt::NONE,
                query: compound.clone(),
            },
        ),
        golden(
            "02 RetrieveReq req budget",
            RetrieveReq {
                mode: SearchMode::Fs1Only,
                deadline_micros: 0,
                budget: BudgetExt {
                    solve_step_limit: 0,
                    candidate_limit: 4_096,
                },
                query: list.clone(),
            },
        ),
        golden("02 RetrieveReq reply plain", r1.clone()),
        golden(
            "03 RetrieveBatchReq req plain",
            RetrieveBatchReq {
                mode: SearchMode::SoftwareOnly,
                deadline_micros: 5,
                budget: BudgetExt::NONE,
                queries: vec![atom.clone(), compound.clone(), list.clone()],
            },
        ),
        golden(
            "03 RetrieveBatchReq req budget",
            RetrieveBatchReq {
                mode: SearchMode::Fs2Only,
                deadline_micros: 0,
                budget: BudgetExt {
                    solve_step_limit: 9,
                    candidate_limit: 10_000,
                },
                queries: vec![atom.clone()],
            },
        ),
        golden("03 RetrieveBatchReq reply plain", vec![r1, r2]),
        golden(
            "04 SolveReq req plain",
            SolveReq {
                goals: vec![compound.clone()],
                var_names: vec!["X".to_owned()],
                mode: ModeChoice::Auto,
                max_solutions: u64::MAX,
                max_depth: 256,
                deadline_micros: 0,
                budget: BudgetExt::NONE,
            },
        ),
        golden(
            "04 SolveReq req budget",
            SolveReq {
                goals: vec![compound.clone(), atom.clone()],
                var_names: vec!["X".to_owned(), "Who".to_owned()],
                mode: ModeChoice::Fixed(SearchMode::TwoStage),
                max_solutions: 10,
                max_depth: 64,
                deadline_micros: 5,
                budget,
            },
        ),
        golden(
            "04 SolveReq reply plain",
            SolveOutcome {
                solutions: vec![
                    Solution {
                        term: compound.clone(),
                        bindings: vec![("X".to_owned(), atom.clone())],
                    },
                    Solution {
                        term: list,
                        bindings: Vec::new(),
                    },
                ],
                stats: SolveStats {
                    retrievals: 4,
                    clauses_unified: 7,
                    candidates: 11,
                    retrieval_elapsed: SimNanos::from_micros(9),
                    depth_cuts: 1,
                    degraded: true,
                },
            },
        ),
        golden(
            "05 ConsultReq req plain",
            source("family", "parent(tom, bob).\n% with ünicode\n"),
        ),
        golden("05 ConsultReq reply plain", ()),
        golden("06 StatsReq req plain", StatsReq),
        golden("06 StatsReq reply plain", server_stats()),
        golden("06 MetricsReq req plain", MetricsReq),
        golden("06 MetricsReq reply plain", (server_stats(), metrics())),
        golden("07 SymbolsReq req plain", SymbolsReq),
        // The table has no equality: compare the re-encoded bytes, which
        // carry every atom and float in offset order.
        Golden {
            key: "07 SymbolsReq reply plain",
            encoded: encode(&table),
            decodes_to_sample: Box::new(move |bytes| {
                let got: SymbolTable = decode(bytes).expect("symbols decode");
                assert_eq!(encode(&got), encode(&table));
            }),
        },
        golden(
            "08 AssertReq req plain",
            Tagged::<{ opcode::ASSERT }, _>(source("m", "p(a). p(b).")),
        ),
        golden(
            "08 AssertReq reply plain",
            CommitReceipt {
                seqs: 7..9,
                asserted: 2,
                retracted: 0,
                durable: true,
            },
        ),
        golden(
            "09 RetractReq req plain",
            Tagged::<{ opcode::RETRACT }, _>(source("m", "p(a).")),
        ),
        golden(
            "09 RetractReq reply plain",
            CommitReceipt {
                seqs: 9..10,
                asserted: 0,
                retracted: 1,
                durable: false,
            },
        ),
        golden(
            "0a SubscribeLogReq req plain",
            Tagged::<{ opcode::SUBSCRIBE_LOG }, _>(42u64),
        ),
        golden("0a SubscribeLogReq reply plain", 57u64),
        golden(
            "0b WalRecord req plain",
            WalRecord {
                seq: 43,
                op: WalOp::Assert {
                    module: "m".to_owned(),
                    source: "p(c).".to_owned(),
                },
            },
        ),
        golden("0b WalRecord reply plain", 43u64),
        golden(
            "0c ReplAck req plain",
            Tagged::<{ opcode::REPL_ACK }, _>(43u64),
        ),
        golden("0c ReplAck reply plain", ()),
        golden(
            "ff ErrorReply reply plain",
            ErrorReply {
                code: ErrorCode::Busy,
                retry_after_ms: 150,
                message: "queue full".to_owned(),
            },
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    if bytes.is_empty() {
        return "-".to_owned();
    }
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    if text == "-" {
        return Vec::new();
    }
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("corpus is hex"))
        .collect()
}

/// The corpus file as `key → payload`, skipping comments and blank lines.
fn corpus() -> BTreeMap<String, Vec<u8>> {
    CORPUS
        .lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let (key, payload) = line.rsplit_once(' ').expect("`<key> <hex>` line");
            (key.to_owned(), unhex(payload))
        })
        .collect()
}

#[test]
fn golden_payloads_match_the_corpus() {
    let corpus = corpus();
    let samples = corpus_samples();
    let lines: Vec<String> = samples
        .iter()
        .map(|g| format!("{} {}", g.key, hex(&g.encoded)))
        .collect();
    assert_eq!(
        corpus.len(),
        samples.len(),
        "the corpus and the samples list different payloads; the samples encode to:\n{}",
        lines.join("\n")
    );
    for (g, line) in samples.iter().zip(&lines) {
        let bytes = corpus
            .get(g.key)
            .unwrap_or_else(|| panic!("no corpus line for `{}`; expected:\n{line}", g.key));
        assert_eq!(
            hex(&g.encoded),
            hex(bytes),
            "`{}` encodes to different bytes than the corpus",
            g.key
        );
        (g.decodes_to_sample)(bytes);
    }
}

/// A check run on one corpus payload, decoded as the type the opcode
/// table gives it.
trait PayloadCheck {
    fn check<T: Wire>(&mut self, key: &str, bytes: &[u8]);
}

/// Runs `f` on every corpus line of `entry` in direction `dir` under
/// opcode `op`, and returns their keys; there must be at least one.
fn lines_of(entry: &str, op: u8, dir: &str, mut f: impl FnMut(&str, &[u8])) -> Vec<String> {
    let prefix = format!("{op:02x} {entry} {dir} ");
    let keys: Vec<String> = corpus()
        .into_iter()
        .filter(|(key, _)| key.starts_with(&prefix))
        .map(|(key, bytes)| {
            f(&key, &bytes);
            key
        })
        .collect();
    assert!(!keys.is_empty(), "no `{prefix}` payload in the corpus");
    keys
}

/// Walks the opcode table: each row's request payloads are checked as the
/// row's type and its reply payloads as the row's reply type, then the
/// error reply as [`ErrorReply`]. Every opcode 0x01–0x0C must have a row,
/// and every corpus line must belong to one.
fn walk_table(check: &mut impl PayloadCheck) {
    struct Walk<'a, C> {
        check: &'a mut C,
        owned: Vec<String>,
        ops: Vec<u8>,
    }
    impl<C: PayloadCheck> RequestVisitor for Walk<'_, C> {
        fn entry<R: Request>(&mut self, name: &'static str) {
            let check = &mut *self.check;
            self.ops.push(R::OP);
            self.owned
                .extend(lines_of(name, R::OP, "req", |k, b| check.check::<R>(k, b)));
            self.owned.extend(lines_of(name, R::OP, "reply", |k, b| {
                check.check::<R::Reply>(k, b)
            }));
        }
    }
    let mut walk = Walk {
        check,
        owned: Vec::new(),
        ops: Vec::new(),
    };
    visit_requests(&mut walk);
    let errors = lines_of("ErrorReply", 0xFF, "reply", |k, b| {
        walk.check.check::<ErrorReply>(k, b)
    });
    walk.owned.extend(errors);
    walk.ops.dedup();
    assert_eq!(walk.ops, (0x01..=0x0C).collect::<Vec<u8>>());
    walk.owned.sort();
    assert!(walk.owned.iter().eq(corpus().keys()), "a line no row owns");
}

/// Every table entry round-trips: each golden payload decodes and
/// re-encodes to the same bytes. With the golden test (samples ↔ corpus)
/// this is `decode(encode(x)) == x` for every sample.
#[test]
fn every_table_entry_round_trips() {
    struct RoundTrip;
    impl PayloadCheck for RoundTrip {
        fn check<T: Wire>(&mut self, key: &str, bytes: &[u8]) {
            let value: T = decode(bytes).unwrap_or_else(|e| panic!("{key}: {e}"));
            assert_eq!(encode(&value), bytes, "{key}: re-encoding moved bytes");
        }
    }
    walk_table(&mut RoundTrip);
}

/// Decodes `bytes` as `T`, failing the test if the decoder panics.
fn decodes<T: Wire>(key: &str, bytes: &[u8]) -> bool {
    std::panic::catch_unwind(|| decode::<T>(bytes).is_ok())
        .unwrap_or_else(|_| panic!("{key}: decoding {} panicked", hex(bytes)))
}

/// Every table entry survives mutation: each golden payload, truncated at
/// every length, with every single bit flipped, with a `u32` or `u16`
/// count lie (0, one past the bytes left, the maximum) at every offset,
/// and under seeded random byte overwrites, decodes to `Ok` or a
/// `WireError` — never a panic. Every strict prefix and one trailing byte
/// more are refused, except the budget tail's boundary, which is the same
/// request without a budget.
#[test]
fn every_table_entry_survives_mutation() {
    /// xorshift64* state: a fixed seed, so a failure reproduces exactly.
    struct Mutate(u64);
    impl Mutate {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }
    impl PayloadCheck for Mutate {
        fn check<T: Wire>(&mut self, key: &str, bytes: &[u8]) {
            let len = bytes.len();
            for cut in 0..len {
                let prefix = &bytes[..cut];
                if key.ends_with(" budget") && cut + 16 == len {
                    // The same request without a budget, field for field.
                    assert_eq!(encode(&decode::<T>(prefix).unwrap()), prefix, "{key}");
                } else {
                    assert!(
                        !decodes::<T>(key, prefix),
                        "{key}: a {cut}-byte prefix decoded"
                    );
                }
            }
            assert!(
                !decodes::<T>(key, &[bytes, &[0]].concat()),
                "{key}: +1 byte decoded"
            );
            for bit in 0..len * 8 {
                let mut m = bytes.to_vec();
                m[bit / 8] ^= 1 << (bit % 8);
                decodes::<T>(key, &m);
            }
            for (width, max) in [(4, u64::from(u32::MAX)), (2, u64::from(u16::MAX))] {
                for at in 0..(len + 1).saturating_sub(width) {
                    // One past the bytes the count's items could occupy.
                    for lie in [0, (len - at - width + 1) as u64, max] {
                        let mut m = bytes.to_vec();
                        m[at..at + width].copy_from_slice(&lie.to_be_bytes()[8 - width..]);
                        decodes::<T>(key, &m);
                    }
                }
            }
            for _ in 0..64 {
                let mut m = bytes.to_vec();
                for _ in 0..=self.next() % 4 {
                    match m.len() as u64 {
                        0 => m.push(self.next() as u8),
                        n => m[(self.next() % n) as usize] = self.next() as u8,
                    }
                }
                decodes::<T>(key, &m);
            }
        }
    }
    walk_table(&mut Mutate(0x5EED_C1A4_E0F0_0D5E));
}
