//! End-to-end system tests: whole programs, concurrent clients, and the
//! integrated-knowledge-base properties the paper contrasts with coupled
//! EDB/IDB designs.

use clare::core::resolve::ModeChoice;
use clare::prelude::*;
use std::sync::Arc;

/// One goal over the bare base, under the default CRS configuration and
/// the unlimited budget.
fn solve_in(
    kb: &KnowledgeBase,
    goal: &Term,
    names: &[String],
    options: &SolveOptions,
) -> clare::core::SolveOutcome {
    let crs = CrsOptions::default();
    solve_goals(
        kb,
        None,
        std::slice::from_ref(goal),
        names,
        options,
        &crs,
        &mut RequestContext::unlimited(),
    )
    .expect("the unlimited budget cannot trip")
}

fn family_server() -> (Arc<ClauseRetrievalServer>, SymbolTable) {
    let mut builder = KbBuilder::new();
    builder
        .consult(
            "family",
            "
            parent(tom, bob). parent(tom, liz). parent(bob, ann).
            parent(bob, pat). parent(pat, jim). parent(liz, joe).
            male(tom). male(bob). male(pat). male(jim). male(joe).
            female(liz). female(ann).
            grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
            ancestor(X, Y) :- parent(X, Y).
            ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
            grandfather(G, C) :- grandparent(G, C), male(G).
            ",
        )
        .unwrap();
    let kb = builder.finish(KbConfig::default());
    let symbols = kb.symbols().clone();
    (
        Arc::new(ClauseRetrievalServer::new(kb, CrsOptions::default())),
        symbols,
    )
}

fn solutions(server: &ClauseRetrievalServer, symbols: &SymbolTable, query: &str) -> Vec<String> {
    let mut local = symbols.clone();
    let (goal, names) = parse_term_with_vars(query, &mut local).unwrap();
    server
        .solve(&goal, &names, &SolveOptions::default())
        .solutions
        .iter()
        .map(|s| TermDisplay::new(&s.term, &local).to_string())
        .collect()
}

#[test]
fn multi_goal_rules_resolve() {
    let (server, symbols) = family_server();
    assert_eq!(
        solutions(&server, &symbols, "grandfather(G, jim)"),
        vec!["grandfather(bob, jim)"]
    );
    assert_eq!(
        solutions(&server, &symbols, "grandparent(tom, W)"),
        vec![
            "grandparent(tom, ann)",
            "grandparent(tom, pat)",
            "grandparent(tom, joe)"
        ]
    );
}

#[test]
fn recursion_terminates_with_all_answers() {
    let (server, symbols) = family_server();
    let anc = solutions(&server, &symbols, "ancestor(tom, W)");
    assert_eq!(anc.len(), 6, "{anc:?}");
    assert_eq!(anc[0], "ancestor(tom, bob)", "program order first");
    assert!(anc.contains(&"ancestor(tom, jim)".to_owned()), "transitive");
}

#[test]
fn concurrent_clients_share_the_server() {
    let (server, symbols) = family_server();
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let server = Arc::clone(&server);
            let symbols = symbols.clone();
            scope.spawn(move || {
                for _ in 0..5 {
                    assert_eq!(solutions(&server, &symbols, "grandfather(G, jim)").len(), 1);
                    assert_eq!(solutions(&server, &symbols, "parent(tom, X)").len(), 2);
                }
            });
        }
    });
    assert_eq!(server.stats().solves, 6 * 5 * 2);
}

#[test]
fn every_fixed_mode_solves_identically() {
    let (server, symbols) = family_server();
    let mut local = symbols.clone();
    let (goal, names) = parse_term_with_vars("ancestor(A, jim)", &mut local).unwrap();
    let reference = server.solve(&goal, &names, &SolveOptions::default());
    for mode in SearchMode::ALL {
        let outcome = server.solve(
            &goal,
            &names,
            &SolveOptions {
                mode: ModeChoice::Fixed(mode),
                ..SolveOptions::default()
            },
        );
        assert_eq!(outcome.solutions, reference.solutions, "mode {mode}");
    }
}

#[test]
fn mixed_relations_are_first_class() {
    // The paper: coupled systems disallow predicates mixing ground facts
    // with rules; the integrated system must handle them, in user order.
    let mut builder = KbBuilder::new();
    builder
        .consult(
            "m",
            "
            status(web1, up).
            status(S, degraded) :- alarm(S).
            status(db1, down).
            alarm(cache1).
            ",
        )
        .unwrap();
    let (goal, names) = parse_term_with_vars("status(S, What)", builder.symbols_mut()).unwrap();
    let kb = builder.finish(KbConfig::default());
    assert!(kb.lookup("status", 2).unwrap().is_mixed());
    let outcome = solve_in(&kb, &goal, &names, &SolveOptions::default());
    let rendered: Vec<String> = outcome
        .solutions
        .iter()
        .map(|s| TermDisplay::new(&s.term, kb.symbols()).to_string())
        .collect();
    // Clause order: the fact, then the rule's answers, then the last fact.
    assert_eq!(
        rendered,
        vec![
            "status(web1, up)",
            "status(cache1, degraded)",
            "status(db1, down)"
        ]
    );
}

#[test]
fn atom_headed_and_list_heavy_programs() {
    let mut builder = KbBuilder::new();
    builder
        .consult(
            "m",
            "
            ready.
            member(X, [X | _]).
            member(X, [_ | T]) :- member(X, T).
            ",
        )
        .unwrap();
    let (ready, names0) = parse_term_with_vars("ready", builder.symbols_mut()).unwrap();
    let (mem, names) = parse_term_with_vars("member(E, [a, b, c])", builder.symbols_mut()).unwrap();
    let kb = builder.finish(KbConfig::default());
    assert_eq!(
        solve_in(&kb, &ready, &names0, &SolveOptions::default())
            .solutions
            .len(),
        1
    );
    let outcome = solve_in(&kb, &mem, &names, &SolveOptions::default());
    let es: Vec<String> = outcome
        .solutions
        .iter()
        .map(|s| TermDisplay::new(&s.bindings[0].1, kb.symbols()).to_string())
        .collect();
    assert_eq!(es, vec!["a", "b", "c"]);
}

#[test]
fn large_disk_module_solves_through_hardware() {
    let mut builder = KbBuilder::new();
    let mut source = String::new();
    for i in 0..5000 {
        source.push_str(&format!("edge(n{}, n{}).\n", i, (i + 1) % 5000));
    }
    source.push_str("linked(A, B) :- edge(A, B).\n");
    source.push_str("linked(A, C) :- edge(A, B), edge(B, C).\n");
    builder.consult("graph", &source).unwrap();
    let (goal, names) = parse_term_with_vars("linked(n10, X)", builder.symbols_mut()).unwrap();
    let kb = builder.finish(KbConfig::default());
    assert_eq!(
        kb.modules()[0].kind(),
        clare::kb::ModuleKind::Large,
        "big module is disk resident"
    );
    let outcome = solve_in(
        &kb,
        &goal,
        &names,
        &SolveOptions {
            mode: ModeChoice::Fixed(SearchMode::TwoStage),
            ..SolveOptions::default()
        },
    );
    let xs: Vec<String> = outcome
        .solutions
        .iter()
        .map(|s| TermDisplay::new(&s.bindings[0].1, kb.symbols()).to_string())
        .collect();
    assert_eq!(xs, vec!["n11", "n12"]);
}

#[test]
fn conjunction_queries_share_bindings() {
    let (server, symbols) = family_server();
    let mut local = symbols.clone();
    let (goals, names) =
        clare::term::parser::parse_goals("parent(tom, X), parent(X, Y)", &mut local).unwrap();
    let outcome = server
        .solve_goals(
            &goals,
            &names,
            &SolveOptions::default(),
            &mut RequestContext::unlimited(),
        )
        .unwrap();
    // X ranges over {bob, liz}; only bob has children (ann, pat), liz has joe.
    let bindings: Vec<(String, String)> = outcome
        .solutions
        .iter()
        .map(|s| {
            (
                TermDisplay::new(&s.bindings[0].1, &local).to_string(),
                TermDisplay::new(&s.bindings[1].1, &local).to_string(),
            )
        })
        .collect();
    assert_eq!(
        bindings,
        vec![
            ("bob".to_owned(), "ann".to_owned()),
            ("bob".to_owned(), "pat".to_owned()),
            ("liz".to_owned(), "joe".to_owned()),
        ]
    );
}

#[test]
fn conjunction_with_no_shared_solutions_fails() {
    let (server, symbols) = family_server();
    let mut local = symbols.clone();
    let (goals, names) =
        clare::term::parser::parse_goals("parent(tom, X), female(X), male(X)", &mut local).unwrap();
    let outcome = server
        .solve_goals(
            &goals,
            &names,
            &SolveOptions::default(),
            &mut RequestContext::unlimited(),
        )
        .unwrap();
    assert!(outcome.solutions.is_empty());
}
