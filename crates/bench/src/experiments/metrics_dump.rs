//! `metrics` — exercise every local layer (FS1, FS2, CRS) on a small
//! disk-resident relation, then dump the process-wide metrics registry.
//!
//! This is the CLI window onto the same registry the daemon serves over
//! the extended `stats` opcode: counters and histograms accumulated by
//! the SCW index scanner, the FS2 streaming engine, and the Clause
//! Retrieval Server. Net-layer counters stay zero here — no daemon runs
//! inside this process; fetch them with `net_client` or the `stats`
//! opcode instead.

use clare_core::{ClauseRetrievalServer, CrsOptions, RequestContext, SearchMode};
use clare_kb::{KbBuilder, KbConfig};
use clare_term::builder::TermBuilder;
use clare_workload::{derive_queries, QueryShape};

const FACTS: usize = 5_000;

/// Runs a representative retrieval mix, then renders the registry —
/// human-readable text, or the same snapshot as JSON.
pub fn run(json: bool) -> String {
    let mut b = KbBuilder::new();
    let mut heads = Vec::new();
    let mut clauses = Vec::with_capacity(FACTS);
    {
        let mut t = TermBuilder::new(b.symbols_mut());
        for i in 0..FACTS {
            let key = t.atom(&format!("k{}", i % 500));
            let val = t.atom(&format!("v{}", (i * 13) % 500));
            let fact = t.fact("rel", vec![key, val]);
            if heads.len() < 200 {
                heads.push(fact.head().clone());
            }
            clauses.push(fact);
        }
    }
    for c in clauses {
        b.add_clause("edb", c);
    }
    let miss = b.symbols_mut().intern_atom("never_stored_atom");
    let kb = b.finish(KbConfig::default());
    let server = ClauseRetrievalServer::new(kb, CrsOptions::default());

    let queries = derive_queries(&heads, QueryShape::GroundHit, 8, miss, 2);
    for q in &queries {
        server.retrieve(q, SearchMode::TwoStage);
    }
    server
        .retrieve_batch(
            &queries,
            SearchMode::TwoStage,
            &mut RequestContext::unlimited(),
        )
        .expect("the unlimited budget cannot trip");

    let snapshot = clare_trace::metrics().snapshot();
    if json {
        snapshot.render_json()
    } else {
        snapshot.render_text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_reports_nonzero_fs1_fs2_and_crs_activity() {
        let text = run(false);
        for name in ["fs1.scans", "fs2.tracks", "crs.retrieve_wall_ns"] {
            assert!(text.contains(name), "{name} missing from text dump");
        }
        // The registry is process-global and monotone, so a snapshot
        // taken after our own retrievals must show activity in every
        // local layer regardless of what parallel tests recorded.
        let snapshot = clare_trace::metrics().snapshot();
        assert!(snapshot.counter("fs1.scans").unwrap() > 0);
        assert!(snapshot.counter("fs2.tracks").unwrap() > 0);
        assert!(snapshot.histogram("crs.retrieve_wall_ns").unwrap().count > 0);
        assert!(snapshot.histogram("crs.batch_size").unwrap().count > 0);
        let json = run(true);
        assert!(json.contains("\"fs1.scans\""));
    }
}
