//! Pins the `(kind, name)` sequence of `metrics().snapshot()` — the
//! order the METRICS reply sends over the wire, the repl renders and
//! `clare-tables metrics` prints — against a checked-in golden list.
//! The dynamic per-predicate histograms (`crs.pred.*`) depend on what
//! the process has retrieved and are skipped.
//!
//! A metric that is added, renamed or moved changes this list on
//! purpose: update `tests/golden/snapshot_names.txt` from the printed
//! sequence in the same change.

const GOLDEN: &str = include_str!("golden/snapshot_names.txt");

#[test]
fn snapshot_names_and_order_match_the_golden_list() {
    let snap = clare_trace::metrics().snapshot();
    let mut actual = String::new();
    for (name, _) in &snap.counters {
        actual += &format!("counter {name}\n");
    }
    for (name, _) in &snap.gauges {
        actual += &format!("gauge {name}\n");
    }
    for (name, _) in snap.histograms.iter() {
        if !name.starts_with("crs.pred.") {
            actual += &format!("histogram {name}\n");
        }
    }
    assert!(
        actual == GOLDEN,
        "snapshot names drifted from tests/golden/snapshot_names.txt; \
         the snapshot now lists:\n{actual}"
    );
}

/// The README's "Observability" section, up to the next section.
fn readme_observability() -> &'static str {
    let readme = include_str!("../../../README.md");
    let start = readme
        .find("## Observability")
        .expect("README has an Observability section");
    let section = &readme[start..];
    let end = section[3..].find("\n## ").map_or(section.len(), |i| i + 3);
    &section[..end]
}

/// Every snapshot name has a row in the README's metric catalogue: a
/// `` `prefix.*` `` row covering it, or a row naming it exactly. Every
/// row covers at least one name, so no row outlives its metrics.
#[test]
fn readme_catalogue_covers_every_metric() {
    let rows: Vec<&str> = readme_observability()
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
        .collect();
    let covers = |row: &str, name: &str| match row.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => name == row,
    };
    let snap = clare_trace::metrics().snapshot();
    let names: Vec<&str> = snap
        .counters
        .iter()
        .map(|(n, _)| n.as_str())
        .chain(snap.gauges.iter().map(|(n, _)| n.as_str()))
        .chain(snap.histograms.iter().map(|(n, _)| n.as_str()))
        .collect();
    for name in &names {
        assert!(
            rows.iter().any(|row| covers(row, name)),
            "README's Observability table has no row for `{name}`"
        );
    }
    for row in &rows {
        assert!(
            names.iter().any(|name| covers(row, name)),
            "README's Observability row `{row}` covers no metric"
        );
    }
}
