//! Pins every solve's solutions and full statistics.
//!
//! Three queries — the recursive `ancestor/2`, the two-goal
//! `grandparent/2` rule and a conjunction whose second goal repeats for
//! every shared parent — run under the automatic mode choice and under
//! each fixed mode, over a small disk-resident genealogy whose `parent/2`
//! file spans several tracks: over the bare base, merged with an overlay
//! delta, and over a copy whose one track fails its CRC on every read.
//! The automatic mode choice also solves them over a memory-resident copy
//! of the genealogy, bare and merged with the overlay delta. Then every
//! candidate ceiling and every resolution-step ceiling from 1 up to the
//! unlimited totals trips the automatic-mode solves, and each trip
//! renders its reason and the partial statistics it carries.
//!
//! The rendered outcomes must equal `tests/golden/solve.txt` byte for
//! byte: a change to the resolver or the retrieval pipeline that is meant
//! to keep answers, modelled times, counts and budget trips exactly as
//! they were must leave this file untouched.
//!
//! This file holds exactly one test on purpose: the fault injector is
//! process-wide, and a sibling test solving concurrently in the same
//! binary would see its faults.

use clare_core::{
    choose_mode, solve_goals, BudgetExceeded, CancelToken, CrsOptions, ModeChoice, Overlay,
    QueryBudget, RequestContext, SearchMode, SolveOptions, SolveOutcome, WalOp,
};
use clare_disk::{ByteRate, DiskProfile, SimNanos};
use clare_fault::{FaultAction, FaultInjector, FaultSite};
use clare_kb::{KbBuilder, KbConfig, KnowledgeBase};
use clare_term::parser::parse_goals;
use clare_term::{SymbolTable, Term, TermDisplay};
use std::fmt::Write;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/solve.txt");

/// The track whose every read fails its CRC, in the faulty section.
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

const QUERIES: [&str; 3] = [
    "ancestor(g0_0, W)",
    "grandparent(g0_1, W)",
    "parent(X, Y), parent(X, Z)",
];

/// A parsed query: its goals and its variables' names.
type Query = (Vec<Term>, Vec<String>);

const GENERATIONS: usize = 4;
const WIDTH: usize = 8;

/// Four generations of eight persons. Persons `2c` and `2c + 1` of a
/// generation are a couple with two children in the next, so every
/// person above the last generation has two children and every person
/// below the first has two parents.
fn source() -> String {
    let mut text = String::new();
    for g in 0..GENERATIONS - 1 {
        for c in 0..WIDTH / 2 {
            for k in 0..2 {
                let child = (2 * c + k + 3 * g + 1) % WIDTH;
                for parent in [2 * c, 2 * c + 1] {
                    writeln!(text, "parent(g{g}_{parent}, g{}_{child}).", g + 1).unwrap();
                }
            }
        }
    }
    text.push_str(
        "grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
         ancestor(X, Y) :- parent(X, Y).
         ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).",
    );
    text
}

/// A disk with 256-byte tracks, so the 48 `parent/2` facts span several.
fn disk() -> DiskProfile {
    let rate = ByteRate::from_mb_per_sec(2.0);
    let (seek, step) = (SimNanos::from_millis(18), SimNanos::from_millis(5));
    DiskProfile::custom("golden", 256, 20, 842, 3961, rate, seek, step)
}

/// The genealogy on [`disk`], every module disk resident, with the
/// queries parsed against its symbols.
fn build() -> (KnowledgeBase, Vec<Query>) {
    build_with(0)
}

/// [`build`] with modules compiled to more than `large_module_threshold`
/// bytes disk resident and the rest memory resident.
fn build_with(large_module_threshold: usize) -> (KnowledgeBase, Vec<Query>) {
    let mut b = KbBuilder::new();
    b.consult("family", &source()).unwrap();
    let queries = QUERIES
        .iter()
        .map(|q| parse_goals(q, b.symbols_mut()).unwrap())
        .collect();
    let config = KbConfig {
        disk: disk(),
        large_module_threshold,
        ..KbConfig::default()
    };
    (b.finish(config), queries)
}

fn choices() -> impl Iterator<Item = ModeChoice> {
    std::iter::once(ModeChoice::Auto).chain(SearchMode::ALL.map(ModeChoice::Fixed))
}

fn label(choice: ModeChoice) -> String {
    match choice {
        ModeChoice::Auto => "auto".to_owned(),
        ModeChoice::Fixed(mode) => mode.to_string(),
    }
}

struct Case<'a> {
    kb: &'a KnowledgeBase,
    overlay: Option<&'a Overlay>,
    crs: &'a CrsOptions,
    symbols: &'a SymbolTable,
}

impl Case<'_> {
    fn solve(
        &self,
        (goals, names): &Query,
        choice: ModeChoice,
        budget: &QueryBudget,
    ) -> Result<SolveOutcome, BudgetExceeded> {
        let options = SolveOptions {
            mode: choice,
            ..SolveOptions::default()
        };
        let mut cx = RequestContext::new(CancelToken::new(budget));
        solve_goals(
            self.kb,
            self.overlay,
            goals,
            names,
            &options,
            self.crs,
            &mut cx,
        )
    }

    fn render(&self, out: &mut String, label: &str, outcome: &SolveOutcome) {
        writeln!(out, "{label}").unwrap();
        for solution in &outcome.solutions {
            let term = TermDisplay::new(&solution.term, self.symbols);
            let bindings: Vec<String> = solution
                .bindings
                .iter()
                .map(|(name, value)| format!("{name}={}", TermDisplay::new(value, self.symbols)))
                .collect();
            writeln!(out, "  {term} {{{}}}", bindings.join(", ")).unwrap();
        }
        writeln!(out, "  {:?}", outcome.stats).unwrap();
    }

    /// Trips `query` at every candidate ceiling, then at every step
    /// ceiling, from 1 up to the first that lets the solve finish.
    fn sweep(&self, out: &mut String, text: &str, query: &Query) {
        let unlimited = self.solve(query, ModeChoice::Auto, &QueryBudget::UNLIMITED);
        let unlimited = unlimited.expect("the unlimited budget cannot trip");
        for what in ["candidates", "steps"] {
            writeln!(out, "auto {text} under {what} ceilings").unwrap();
            for n in 1.. {
                let budget = match what {
                    "candidates" => QueryBudget {
                        candidate_limit: n,
                        ..QueryBudget::UNLIMITED
                    },
                    _ => QueryBudget {
                        solve_step_limit: n,
                        ..QueryBudget::UNLIMITED
                    },
                };
                match self.solve(query, ModeChoice::Auto, &budget) {
                    Ok(outcome) => {
                        assert_eq!(outcome, unlimited, "{text}: {what} <= {n}");
                        writeln!(out, "  {n}: finished").unwrap();
                        break;
                    }
                    Err(exceeded) => {
                        let reason = exceeded.reason.expect("a trip names its reason");
                        let stats = exceeded.solve_stats.expect("a solve trip carries stats");
                        writeln!(out, "  {n}: {reason} {stats:?}").unwrap();
                    }
                }
            }
        }
    }
}

#[test]
fn solve_outcomes_match_the_golden_file() {
    let (kb, queries) = build();
    let pred = kb.lookup("parent", 2).unwrap();
    assert!(
        pred.file().track_count() > CORRUPT_TRACK as usize + 2,
        "parent/2 spans tracks on both sides of the corrupt one"
    );
    let overlay = overlay_of(&kb);
    let crs = CrsOptions {
        disk: disk(),
        ..CrsOptions::default()
    };
    let bare = Case {
        kb: &kb,
        overlay: None,
        crs: &crs,
        symbols: kb.symbols(),
    };
    let merged = Case {
        overlay: Some(&overlay),
        symbols: overlay.symbols(),
        ..bare
    };

    let mut actual = String::new();
    for (case, section) in [(&bare, "bare"), (&merged, "overlay")] {
        for choice in choices() {
            for (text, query) in QUERIES.iter().zip(&queries) {
                let outcome = case.solve(query, choice, &QueryBudget::UNLIMITED).unwrap();
                let label = format!("{section} {} {text}", label(choice));
                case.render(&mut actual, &label, &outcome);
            }
        }
    }
    for (case, section) in [(&bare, "bare"), (&merged, "overlay")] {
        for (text, query) in QUERIES.iter().zip(&queries) {
            writeln!(actual, "{section}:").unwrap();
            case.sweep(&mut actual, text, query);
        }
    }
    // The CRC verdict is memoized per track of a stored file, so the
    // faulty section solves over a knowledge base of its own.
    let (faulty_kb, _) = build();
    let faulty = Case {
        kb: &faulty_kb,
        overlay: None,
        crs: &crs,
        symbols: faulty_kb.symbols(),
    };
    {
        let _guard = clare_fault::install(Arc::new(CorruptOneTrack));
        for choice in choices() {
            for (text, query) in QUERIES.iter().zip(&queries) {
                let outcome = faulty
                    .solve(query, choice, &QueryBudget::UNLIMITED)
                    .unwrap();
                let label = format!("corrupt {} {text}", label(choice));
                faulty.render(&mut actual, &label, &outcome);
            }
        }
    }
    assert!(
        actual.contains("degraded: true"),
        "the corrupt track degraded some solve"
    );
    // The same genealogy, memory resident: the automatic mode choice
    // searches it in software.
    let (memory_kb, memory_queries) = build_with(KbConfig::default().large_module_threshold);
    for (goals, _) in &memory_queries {
        let mode = choose_mode(&memory_kb, &goals[0]);
        assert_eq!(
            mode,
            SearchMode::SoftwareOnly,
            "the copy is memory resident"
        );
    }
    let memory_overlay = overlay_of(&memory_kb);
    let memory = Case {
        kb: &memory_kb,
        overlay: None,
        crs: &crs,
        symbols: memory_kb.symbols(),
    };
    let memory_merged = Case {
        overlay: Some(&memory_overlay),
        symbols: memory_overlay.symbols(),
        ..memory
    };
    for (case, section) in [(&memory, "memory"), (&memory_merged, "memory overlay")] {
        for (text, query) in QUERIES.iter().zip(&memory_queries) {
            let outcome = case
                .solve(query, ModeChoice::Auto, &QueryBudget::UNLIMITED)
                .unwrap();
            case.render(&mut actual, &format!("{section} auto {text}"), &outcome);
        }
    }
    if actual != GOLDEN {
        let line = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .map_or(actual.lines().count().min(GOLDEN.lines().count()), |i| i);
        panic!(
            "solve outcomes drifted from tests/golden/solve.txt at line {}; \
             the resolver now renders:\n{actual}",
            line + 1
        );
    }
}

/// One retracted parent fact, one new child and a new root above g0_0,
/// applied over `kb`.
fn overlay_of(kb: &KnowledgeBase) -> Overlay {
    let mut overlay = Overlay::new(kb.symbols().clone());
    let ops = [
        WalOp::Retract {
            module: "family".to_owned(),
            source: "parent(g1_1, g2_4).".to_owned(),
        },
        WalOp::Assert {
            module: "family".to_owned(),
            source: "parent(g1_1, g2_new). parent(g0_1, g1_0). parent(root, g0_0).".to_owned(),
        },
    ];
    for (seq, op) in (1..).zip(&ops) {
        overlay.apply(seq, op, kb).unwrap();
    }
    overlay
}
