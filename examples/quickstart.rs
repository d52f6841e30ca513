//! Quickstart: build a knowledge base, ask a question, see how the CLARE
//! filters handled it.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use clare::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Consult a program — facts and rules mix freely in one module.
    let mut builder = KbBuilder::new();
    builder.consult(
        "family",
        "
        parent(tom, bob).   parent(tom, liz).
        parent(bob, ann).   parent(bob, pat).
        parent(pat, jim).
        grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
        ancestor(X, Y) :- parent(X, Y).
        ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
        ",
    )?;

    // 2. Parse queries in the same symbol namespace, then compile the KB
    //    (clause files laid out on simulated disk tracks + SCW indexes).
    let (goal, names) = parse_term_with_vars("ancestor(tom, Who)", builder.symbols_mut())?;
    let kb = builder.finish(KbConfig::default());

    // 3. Solve: every clause lookup goes through the Clause Retrieval
    //    Server, with the search mode chosen per goal.
    let outcome = solve_goals(
        &kb,
        None,
        std::slice::from_ref(&goal),
        &names,
        &SolveOptions::default(),
        &CrsOptions::default(),
        &mut RequestContext::unlimited(),
    )?;

    println!("?- ancestor(tom, Who).");
    for solution in &outcome.solutions {
        for (name, term) in &solution.bindings {
            println!("   {name} = {}", TermDisplay::new(term, kb.symbols()));
        }
    }
    println!(
        "\n{} solutions, {} retrievals, {} clause candidates examined",
        outcome.solutions.len(),
        outcome.stats.retrievals,
        outcome.stats.candidates,
    );
    println!(
        "modelled retrieval time on 1989 hardware: {}",
        outcome.stats.retrieval_elapsed
    );

    // 4. The same retrieval, mode by mode.
    let (query, _) = parse_term_with_vars("parent(bob, W)", &mut kb.symbols().clone())?;
    println!("\n?- parent(bob, W).  (single retrieval, per mode)");
    for mode in SearchMode::ALL {
        let r = retrieve(&kb, &query, mode, &CrsOptions::default());
        println!(
            "   {:<14} candidates={} answers={} elapsed={}",
            mode.to_string(),
            r.stats.candidates,
            r.stats.unified,
            r.stats.elapsed
        );
    }
    Ok(())
}
