//! The database benchmark suite (paper refs [6,7] style) run end to end:
//! a supplier/part/supply database with a six-query mix, each solved
//! through the CRS with automatic mode selection.
//!
//! ```text
//! cargo run --release --example db_benchmark [scale]
//! ```

use clare::prelude::*;
use clare::workload::SuiteSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(1);
    let spec = SuiteSpec {
        suppliers: 200 * scale,
        parts: 1000 * scale,
        supplies: 10_000 * scale,
        ..SuiteSpec::default()
    };
    println!(
        "building benchmark database: {} suppliers, {} parts, {} supplies …",
        spec.suppliers, spec.parts, spec.supplies
    );
    let mut builder = KbBuilder::new();
    let summary = spec.generate(&mut builder, "db");
    let kb = builder.finish(KbConfig::default());
    println!("{}\n", KbStats::gather(&kb));

    println!(
        "{:<18} {:<14} {:>8} {:>11} {:>11} {:>12}",
        "query", "top-goal mode", "answers", "retrievals", "candidates", "elapsed"
    );
    for q in &summary.queries {
        let mode = choose_mode(&kb, &q.goal);
        let outcome = solve_goals(
            &kb,
            None,
            std::slice::from_ref(&q.goal),
            &q.var_names,
            &SolveOptions {
                max_solutions: 200_000,
                ..SolveOptions::default()
            },
            &CrsOptions::default(),
            &mut RequestContext::unlimited(),
        )?;
        println!(
            "{:<18} {:<14} {:>8} {:>11} {:>11} {:>12}",
            q.label,
            mode.to_string(),
            outcome.solutions.len(),
            outcome.stats.retrievals,
            outcome.stats.candidates,
            outcome.stats.retrieval_elapsed.to_string(),
        );
    }
    Ok(())
}
