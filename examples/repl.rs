//! An interactive Prolog front-end over the CLARE pipeline.
//!
//! ```text
//! cargo run --release --example repl [program.pl]
//! ```
//!
//! Reads a program (from the given file, or a built-in family demo),
//! compiles it into a disk-resident knowledge base, then answers goals
//! typed on stdin. Every goal is solved through the Clause Retrieval
//! Server with automatic search-mode selection; `:stats` after a query
//! shows what the simulated hardware did, `\stats` shows the server's
//! cumulative service counters, and `\metrics` dumps the process-wide
//! per-layer metrics registry (FS1, FS2, CRS, net).

use clare::fs2::trace::render_trace;
use clare::fs2::Trace;
use clare::prelude::*;
use std::io::{BufRead, Write as _};

/// Streams a goal's predicate through a traced FS2 engine and prints the
/// first few per-clause comparison traces.
fn trace_goal(server: &ClauseRetrievalServer, symbols: &SymbolTable, src: &str) {
    let mut local = symbols.clone();
    let goal = match parse_term(src, &mut local) {
        Ok(goal) => goal,
        Err(e) => {
            println!("syntax error: {e}");
            return;
        }
    };
    let kb = server.snapshot();
    let Some((functor, arity)) = goal.functor_arity() else {
        println!("the goal must be an atom or structure");
        return;
    };
    let Some(pred) = kb.predicate(functor, arity) else {
        println!("unknown predicate");
        return;
    };
    let Ok(q_stream) = encode_query(&goal) else {
        println!("goal cannot be compiled for the hardware");
        return;
    };
    let mut engine = match clare::fs2::Fs2Engine::new(&q_stream) {
        Ok(engine) => engine,
        Err(e) => {
            println!("{e}");
            return;
        }
    };
    for (i, clause) in pred.clauses().iter().take(4).enumerate() {
        let Ok(c_stream) = encode_clause_head(clause.head()) else {
            continue;
        };
        let mut trace = Trace::default();
        let verdict = engine.match_clause_observed(c_stream.words(), &mut trace);
        println!(
            "clause {}: {}  ->  {} in {}",
            i,
            TermDisplay::new(clause.head(), kb.symbols()),
            if verdict.matched {
                "SATISFIER"
            } else {
                "rejected"
            },
            verdict.time,
        );
        print!(
            "{}",
            render_trace(q_stream.words(), c_stream.words(), &trace.steps)
        );
    }
    if pred.clauses().len() > 4 {
        println!("… ({} more clauses)", pred.clauses().len() - 4);
    }
}

const DEMO: &str = "
    parent(tom, bob). parent(tom, liz). parent(bob, ann).
    parent(bob, pat). parent(pat, jim).
    male(tom). male(bob). male(jim). male(pat).
    female(liz). female(ann).
    grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
    ancestor(X, Y) :- parent(X, Y).
    ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(&path)?,
        None => DEMO.to_owned(),
    };
    let mut builder = KbBuilder::new();
    builder.consult("user", &source)?;
    let kb = builder.finish(KbConfig::default());
    let server = ClauseRetrievalServer::new(kb, CrsOptions::default());
    let symbols = server.snapshot().symbols().clone();

    println!(
        "CLARE Prolog — {} clauses loaded. Type a goal (no trailing dot needed).",
        server.snapshot().clause_count()
    );
    println!(
        "Commands: :stats (last query), \\stats (server counters), \
         \\metrics (per-layer metrics), :trace <goal> (watch FS2 match it), :quit."
    );
    let stdin = std::io::stdin();
    let mut last_stats: Option<String> = None;
    loop {
        print!("?- ");
        std::io::stdout().flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break;
        }
        let line = line.trim().trim_end_matches('.');
        match line {
            "" => continue,
            ":quit" | ":q" | "halt" => break,
            ":stats" => {
                println!("{}", last_stats.as_deref().unwrap_or("no query yet"));
                continue;
            }
            "\\stats" => {
                let stats = server.stats();
                println!(
                    "server: {} retrievals ({} batched calls), {} solves, \
                     {} updates, {} rejected, total modelled retrieval time {}",
                    stats.retrievals,
                    stats.batches,
                    stats.solves,
                    stats.updates,
                    stats.rejected,
                    stats.total_elapsed,
                );
                // Storage-integrity health: answers stay correct in
                // degraded mode, but quarantined tracks mean the disk (or
                // its checksums) needs attention.
                let m = clare::trace::metrics();
                println!(
                    "health: {} degraded answers, {} quarantined tracks \
                     ({} track CRC failures)",
                    stats.degraded,
                    m.fs2_quarantined_tracks.get(),
                    m.disk_track_crc_failures.get(),
                );
                continue;
            }
            "\\metrics" => {
                print!("{}", clare::trace::metrics().snapshot().render_text());
                continue;
            }
            cmd if cmd.starts_with(":trace ") => {
                trace_goal(&server, &symbols, cmd.trim_start_matches(":trace ").trim());
                continue;
            }
            _ => {}
        }
        let mut local = symbols.clone();
        let (goals, names) = match parse_goals(line, &mut local) {
            Ok(parsed) => parsed,
            Err(e) => {
                println!("syntax error: {e}");
                continue;
            }
        };
        let options = SolveOptions {
            max_solutions: 50,
            ..SolveOptions::default()
        };
        let outcome = server
            .solve_goals(&goals, &names, &options, &mut RequestContext::unlimited())
            .expect("the unlimited budget cannot trip");
        if outcome.solutions.is_empty() {
            println!("false.");
        } else {
            for (i, solution) in outcome.solutions.iter().enumerate() {
                if solution.bindings.is_empty() {
                    println!("true.");
                } else {
                    let pairs: Vec<String> = solution
                        .bindings
                        .iter()
                        .map(|(name, term)| format!("{name} = {}", TermDisplay::new(term, &local)))
                        .collect();
                    println!(
                        "{}{}",
                        pairs.join(", "),
                        if i + 1 == outcome.solutions.len() {
                            "."
                        } else {
                            " ;"
                        }
                    );
                }
            }
        }
        last_stats = Some(format!(
            "{} solutions, {} retrievals, {} candidates, retrieval time {} (simulated 1989 hardware){}",
            outcome.solutions.len(),
            outcome.stats.retrievals,
            outcome.stats.candidates,
            outcome.stats.retrieval_elapsed,
            if outcome.stats.degraded {
                " [degraded: served past quarantined tracks]"
            } else {
                ""
            },
        ));
    }
    Ok(())
}
