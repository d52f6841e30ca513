//! Pins every retrieval's full statistics and candidate list.
//!
//! About twenty queries in each of the four search modes run over one
//! fixed multi-track predicate: keyed, unkeyed, missing-key and
//! shared-variable queries, alone, as one batch, and merged with an
//! overlay delta. One track of the predicate fails its CRC on every read,
//! so the quarantine path is pinned too. A second, memory-resident module
//! (the arity-0 `flag/0` and an `s/2` of lists, structures, shared
//! variables, integers and a rule) runs its own queries in every mode,
//! bare and merged with an overlay delta. The rendered outcomes must equal
//! `tests/golden/retrieval.txt` byte for byte: a change to the retrieval
//! pipeline that is meant to keep answers, modelled times and counts
//! exactly as they were must leave this file untouched.
//!
//! This file holds exactly one test on purpose: the fault injector is
//! process-wide, and a sibling test retrieving concurrently in the same
//! binary would see its faults.

use clare_core::{
    choose_mode, retrieve, retrieve_batch, retrieve_merged, CrsOptions, Overlay, RequestContext,
    Retrieval, SearchMode, WalOp,
};
use clare_fault::{FaultAction, FaultInjector, FaultSite};
use clare_kb::{KbBuilder, KbConfig};
use clare_term::parser::parse_term;
use clare_term::Term;
use std::fmt::Write;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/retrieval.txt");

/// The track whose every read fails its CRC.
const CORRUPT_TRACK: u64 = 2;

/// Flips a bit of every read of track [`CORRUPT_TRACK`], of any file, and
/// leaves everything else alone.
struct CorruptOneTrack;

impl FaultInjector for CorruptOneTrack {
    fn decide(&self, site: FaultSite, context: u64) -> FaultAction {
        // The disk folds the file name in above bit 24 of the context.
        match site {
            FaultSite::DiskTrackRead if context & 0xFF_FFFF == CORRUPT_TRACK => {
                FaultAction::FlipBit { bit: 5 }
            }
            _ => FaultAction::None,
        }
    }
}

/// 3000 clauses of `g/3`: mostly ground facts over 50 first-argument
/// keys, with variable first arguments, shared variables, structures,
/// lists and integers mixed in so every FS1 mask and FS2 selection path
/// is taken.
fn source() -> String {
    (0..3000)
        .map(|i| match i % 100 {
            3 => format!("g(X, v{i}, X)."),
            7 | 57 => format!("g(k{}, f(Y), Y).", i % 50),
            11 => format!("g([a | T], v{i}, T)."),
            13..=17 => format!("g({}, v{i}, t{}).", i % 5, i % 7),
            50 => format!("g(Z, W, t{}).", i % 7),
            _ => format!("g(k{}, v{i}, t{}).", i % 50, i % 7),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

const QUERIES: [&str; 20] = [
    // Keyed: the first argument is a simple value.
    "g(k7, X, Y)",
    "g(k7, v1207, Z)",
    "g(k0, X, t3)",
    "g(k49, v2049, t5)",
    "g(k12, f(a), a)",
    "g(3, X, Y)",
    "g(k8, v1208, t4)",
    // Unkeyed: a variable or a compound first argument.
    "g(X, v1208, Y)",
    "g(A, B, t3)",
    "g(A, B, C)",
    "g([a | R], X, Y)",
    "g(f(q), X, Y)",
    // Missing keys and a missing predicate.
    "g(nope, X, Y)",
    "g(k7, nope, Z)",
    "g(k3, v3, nope)",
    "h(a)",
    // Shared variables.
    "g(S, S, T)",
    "g(S, v1203, S)",
    "g(k9, S, S)",
    "g(S, f(S), S)",
];

/// The memory-resident module: two `flag/0` clauses, and `s/2` facts
/// over lists, structures, shared variables and integers, plus a rule.
const MEMORY_SOURCE: &str = "
    flag.
    flag.
    s(1, [a, b, c]).
    s(2, f(x, Y)).
    s(X, X).
    s([H | T], g(H, T)).
    s(k, [a | T]).
    s(f(A, b), A).
    s(-7, 300).
    s(g(q, [1, 2]), h).
    s(A, B) :- flag, s(B, A).
";

const MEMORY_QUERIES: [&str; 17] = [
    "flag",
    "s(1, L)",
    "s(1, [a, b, c])",
    "s(1, [a, b])",
    "s(2, f(x, z))",
    "s(X, X)",
    "s([a, b], Z)",
    "s(k, [a, b])",
    "s(f(c, b), c)",
    "s(f(c, b), d)",
    "s(-7, N)",
    "s(N, 300)",
    "s(g(q, L), h)",
    "s(A, B)",
    "s(q, r)",
    "s(S, f(S, S))",
    "s(S, g(S, T))",
];

/// Every [`MEMORY_QUERIES`] retrieval over the memory-resident module, in
/// each mode, bare and merged with an overlay delta.
fn render_memory_module(out: &mut String, opts: &CrsOptions) {
    let mut b = KbBuilder::new();
    b.consult("mem", MEMORY_SOURCE).unwrap();
    let queries: Vec<Term> = MEMORY_QUERIES
        .iter()
        .map(|q| parse_term(q, b.symbols_mut()).unwrap())
        .collect();
    let kb = b.finish(KbConfig::default());
    for query in &queries {
        assert_eq!(choose_mode(&kb, query), SearchMode::SoftwareOnly);
    }
    let mut overlay = Overlay::new(kb.symbols().clone());
    let ops = [
        WalOp::Retract {
            module: "mem".to_owned(),
            source: "s(2, f(x, Y)).".to_owned(),
        },
        WalOp::Assert {
            module: "mem".to_owned(),
            source: "s(new, [a]). s(Q, Q). flag.".to_owned(),
        },
    ];
    for (seq, op) in (1..).zip(&ops) {
        overlay.apply(seq, op, &kb).unwrap();
    }
    for mode in SearchMode::ALL {
        for (text, query) in MEMORY_QUERIES.iter().zip(&queries) {
            let bare = retrieve(&kb, query, mode, opts);
            render(out, &format!("memory {mode} {text}"), &bare);
            let merged = retrieve_merged(&kb, &overlay, query, mode, opts);
            render(out, &format!("memory {mode} overlay {text}"), &merged);
        }
    }
}

fn render(out: &mut String, label: &str, r: &Retrieval) {
    let ids: Vec<u32> = r.candidates.iter().map(|id| id.index()).collect();
    writeln!(out, "{label}\n  candidates {ids:?}\n  {:?}", r.stats).unwrap();
}

#[test]
fn retrieval_outcomes_match_the_golden_file() {
    let mut b = KbBuilder::new();
    b.consult("m", &source()).unwrap();
    let queries: Vec<Term> = QUERIES
        .iter()
        .map(|q| parse_term(q, b.symbols_mut()).unwrap())
        .collect();
    let kb = b.finish(KbConfig::default());
    let pred = kb.lookup("g", 3).unwrap();
    assert!(
        pred.file().track_count() > CORRUPT_TRACK as usize + 2,
        "the predicate spans tracks on both sides of the corrupt one"
    );
    // One retraction and two additions for `g/3`.
    let mut overlay = Overlay::new(kb.symbols().clone());
    let ops = [
        WalOp::Retract {
            module: "m".to_owned(),
            source: "g(k8, v1208, t4).".to_owned(),
        },
        WalOp::Assert {
            module: "m".to_owned(),
            source: "g(k8, v1208, t4). g(S, extra, S).".to_owned(),
        },
    ];
    for (seq, op) in (1..).zip(&ops) {
        overlay.apply(seq, op, &kb).unwrap();
    }

    let _guard = clare_fault::install(Arc::new(CorruptOneTrack));
    let opts = CrsOptions::default();
    let mut actual = String::new();
    for mode in SearchMode::ALL {
        for (text, query) in QUERIES.iter().zip(&queries) {
            render(
                &mut actual,
                &format!("{mode} {text}"),
                &retrieve(&kb, query, mode, &opts),
            );
        }
        let refs: Vec<&Term> = queries.iter().collect();
        let mut cx = RequestContext::unlimited();
        let batch = retrieve_batch(&kb, None, &refs, mode, &opts, &mut cx).unwrap();
        for (text, got) in QUERIES.iter().zip(&batch) {
            render(&mut actual, &format!("{mode} batch {text}"), got);
        }
        for (text, query) in QUERIES.iter().zip(&queries).take(11) {
            let merged = retrieve_merged(&kb, &overlay, query, mode, &opts);
            render(&mut actual, &format!("{mode} overlay {text}"), &merged);
        }
    }
    render_memory_module(&mut actual, &opts);
    assert!(
        actual.contains("quarantined_tracks: 1"),
        "the corrupt track was quarantined somewhere"
    );
    if actual != GOLDEN {
        let line = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .map_or(actual.lines().count().min(GOLDEN.lines().count()), |i| i);
        panic!(
            "retrieval outcomes drifted from tests/golden/retrieval.txt at line {}; \
             the pipeline now renders:\n{actual}",
            line + 1
        );
    }
}
