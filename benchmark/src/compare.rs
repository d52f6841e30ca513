//! `compare A.json B.json`: applies each metric's bound per workload and
//! prints one row per end-to-end metric x workload. The gate later
//! performance and simplicity claims are held to.

use crate::report::{spec, Better, Metric, Report};
use std::fmt::Write;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The window spread is wider than the bound and the two runs'
    /// windows overlap: neither "changed" nor "unchanged" can be claimed.
    Unresolved,
    /// Demoted for this workload: reported, never gated.
    Ungated,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Ungated => "ungated",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn judge(a: &Metric, b: &Metric) -> Verdict {
    let better = spec(&a.name).map_or(Better::Lower, |s| s.better);
    let Some(bound) = a.bound else {
        return Verdict::Ungated;
    };
    let worse = worse_by(better, a.value, b.value);
    if bound == 0.0 {
        // Absolute: exact counts and the failed share.
        return match worse {
            w if w > 0.0 => Verdict::Worse,
            w if w < 0.0 => Verdict::Better,
            _ => Verdict::Same,
        };
    }
    let relative_spread = |m: &Metric| {
        m.spread.map_or(0.0, |(lo, hi)| {
            (hi - lo) / m.value.abs().max(f64::MIN_POSITIVE)
        })
    };
    if relative_spread(a).max(relative_spread(b)) > bound {
        if let (Some((a_lo, a_hi)), Some((b_lo, b_hi))) = (a.spread, b.spread) {
            if a_lo <= b_hi && b_lo <= a_hi {
                return Verdict::Unresolved;
            }
        }
    }
    match worse {
        w if w > bound => Verdict::Worse,
        w if w < -bound => Verdict::Better,
        _ => Verdict::Same,
    }
}

/// The comparison table, and whether it passes (no `worse`, no higher
/// failed share).
pub fn compare(a: &Report, b: &Report) -> (String, bool) {
    let mut out = String::new();
    let mut pass = true;
    writeln!(
        out,
        "A: commit {} seed {} on {}\nB: commit {} seed {} on {}\n",
        a.provenance.commit,
        a.provenance.seed,
        a.provenance.host,
        b.provenance.commit,
        b.provenance.seed,
        b.provenance.host
    )
    .expect("string write");
    writeln!(
        out,
        "{:<20} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    )
    .expect("string write");
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            writeln!(out, "{:<20} missing from B", wa.name).expect("string write");
            pass = false;
            continue;
        };
        let demoted = wa.per_layer.iter().filter(|m| m.is_demoted());
        for ma in wa.end_to_end.iter().chain(demoted) {
            let Some(mb) = wb.metric(&ma.name) else {
                writeln!(out, "{:<20} {:<20} missing from B", wa.name, ma.name)
                    .expect("string write");
                pass = false;
                continue;
            };
            let verdict = judge(ma, mb);
            pass &= verdict != Verdict::Worse;
            writeln!(
                out,
                "{:<20} {:<20} {:>14.4} {:>14.4} {:>+8.1}% {:>7}  {}",
                wa.name,
                ma.name,
                ma.value,
                mb.value,
                (mb.value - ma.value) / ma.value.abs().max(f64::MIN_POSITIVE) * 100.0,
                ma.bound
                    .map_or("-".to_owned(), |b| format!("{:.0}%", b * 100.0)),
                verdict.as_str()
            )
            .expect("string write");
        }
    }
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(name: &str, value: f64, spread: Option<(f64, f64)>) -> Metric {
        let mut m = Metric::new(name, value, 100);
        m.spread = spread;
        m
    }

    #[test]
    fn bounds_apply_in_the_metric_s_own_direction() {
        let bound = spec("retrieve_p50_us").unwrap().bound.unwrap();
        let a = m("retrieve_p50_us", 100.0, None);
        assert_eq!(
            judge(&a, &m("retrieve_p50_us", 100.0 * (1.0 + bound * 0.9), None)),
            Verdict::Same
        );
        assert_eq!(
            judge(&a, &m("retrieve_p50_us", 100.0 * (1.0 + bound * 1.1), None)),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &m("retrieve_p50_us", 100.0 * (1.0 - bound * 1.1), None)),
            Verdict::Better
        );
        let a = m("retrieve_ops_per_s", 1000.0, None);
        assert_eq!(
            judge(&a, &m("retrieve_ops_per_s", 500.0, None)),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &m("retrieve_ops_per_s", 2000.0, None)),
            Verdict::Better
        );
    }

    #[test]
    fn exact_metrics_tolerate_nothing() {
        let a = m("modeled_us_per_op", 50.0, None);
        assert_eq!(
            judge(&a, &m("modeled_us_per_op", 50.0, None)),
            Verdict::Same
        );
        assert_eq!(
            judge(&a, &m("modeled_us_per_op", 50.000001, None)),
            Verdict::Worse
        );
        let a = m("failed_share", 0.0, None);
        assert_eq!(judge(&a, &m("failed_share", 0.001, None)), Verdict::Worse);
    }

    #[test]
    fn demoted_metrics_are_reported_but_never_gate() {
        let mut a = m("retrieve_p50_us", 100.0, None);
        a.bound = None;
        assert_eq!(
            judge(&a, &m("retrieve_p50_us", 500.0, None)),
            Verdict::Ungated
        );
    }

    #[test]
    fn wide_overlapping_windows_are_unresolved() {
        let a = m("retrieve_p50_us", 100.0, Some((80.0, 130.0)));
        let b = m("retrieve_p50_us", 125.0, Some((110.0, 140.0)));
        assert_eq!(judge(&a, &b), Verdict::Unresolved);
        // Wide but disjoint: every window of B reads worse than every
        // window of A, so the medians decide.
        let b = m("retrieve_p50_us", 150.0, Some((135.0, 190.0)));
        assert_eq!(judge(&a, &b), Verdict::Worse);
    }
}
