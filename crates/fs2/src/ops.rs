//! The seven FS2 hardware operations, defined by their datapath routes.
//!
//! Each operation is a sequence of microprogram cycles; in every cycle the
//! database argument and the query argument travel *in parallel* along two
//! selector routes. The paper's rule: "although information travels on both
//! routes in parallel, the longest routing time of the two should be taken"
//! — so an operation's execution time is
//!
//! ```text
//!   Σ over cycles max(db route, query route)  +  terminal delay
//! ```
//!
//! where the terminal is the comparator (30 ns) or a memory write. Table 1
//! of the paper (105/95/115/105/170/170/235 ns) is *derived* from these
//! route definitions — see [`HwOp::execution_time`] — and the route lists
//! below transcribe Figures 6–12 exactly.

use crate::components::{Component, Terminal};
use clare_disk::SimNanos;
use std::fmt;
use std::sync::OnceLock;

use Component::*;

/// One microprogram cycle: the two parallel routes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cycle {
    /// Components traversed by the database argument this cycle
    /// (empty when the value is held from a previous cycle).
    pub db_route: &'static [Component],
    /// Components traversed by the query argument this cycle.
    pub query_route: &'static [Component],
}

impl Cycle {
    /// Sum of delays along the database route.
    pub fn db_time(&self) -> SimNanos {
        self.db_route.iter().map(|c| c.delay()).sum()
    }

    /// Sum of delays along the query route.
    pub fn query_time(&self) -> SimNanos {
        self.query_route.iter().map(|c| c.delay()).sum()
    }

    /// The cycle's contribution: the longer of the two parallel routes.
    pub fn time(&self) -> SimNanos {
        self.db_time().max(self.query_time())
    }
}

/// The seven hardware operations of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HwOp {
    /// Figure 6 — simple comparison of two words.
    Match,
    /// Figure 7 — store the query argument at the DB Memory location
    /// addressed by a first-occurrence database variable.
    DbStore,
    /// Figure 8 — store the database argument at the Query Memory location
    /// addressed by a first-occurrence query variable.
    QueryStore,
    /// Figure 9 — fetch a subsequent database variable's binding and
    /// compare.
    DbFetch,
    /// Figure 10 — fetch a subsequent query variable's binding (two
    /// cycles) and compare.
    QueryFetch,
    /// Figure 11 — chase a database variable cross-bound to a query
    /// variable (two cycles) and compare.
    DbCrossBoundFetch,
    /// Figure 12 — chase a query variable cross-bound to a database
    /// variable (three cycles) and compare.
    QueryCrossBoundFetch,
}

impl HwOp {
    /// All seven operations, in Table 1 order.
    pub const ALL: [HwOp; 7] = [
        HwOp::Match,
        HwOp::DbStore,
        HwOp::QueryStore,
        HwOp::DbFetch,
        HwOp::QueryFetch,
        HwOp::DbCrossBoundFetch,
        HwOp::QueryCrossBoundFetch,
    ];

    /// This operation's position in [`Self::ALL`] (Table 1 order) — the
    /// slot it occupies in op histograms.
    pub fn index(self) -> usize {
        match self {
            HwOp::Match => 0,
            HwOp::DbStore => 1,
            HwOp::QueryStore => 2,
            HwOp::DbFetch => 3,
            HwOp::QueryFetch => 4,
            HwOp::DbCrossBoundFetch => 5,
            HwOp::QueryCrossBoundFetch => 6,
        }
    }

    /// The operation's name as printed in Table 1.
    pub fn name(self) -> &'static str {
        match self {
            HwOp::Match => "MATCH",
            HwOp::DbStore => "DB_STORE",
            HwOp::QueryStore => "QUERY_STORE",
            HwOp::DbFetch => "DB_FETCH",
            HwOp::QueryFetch => "QUERY_FETCH",
            HwOp::DbCrossBoundFetch => "DB_CROSS_BOUND_FETCH",
            HwOp::QueryCrossBoundFetch => "QUERY_CROSS_BOUND_FETCH",
        }
    }

    /// The figure in the paper that defines the operation's routes.
    pub fn figure(self) -> u8 {
        match self {
            HwOp::Match => 6,
            HwOp::DbStore => 7,
            HwOp::QueryStore => 8,
            HwOp::DbFetch => 9,
            HwOp::QueryFetch => 10,
            HwOp::DbCrossBoundFetch => 11,
            HwOp::QueryCrossBoundFetch => 12,
        }
    }

    /// The per-cycle routes, transcribed from the figures.
    pub fn cycles(self) -> Vec<Cycle> {
        match self {
            // Fig. 6: db = Double Buffer → Sel1 (40); query = Sel6 → Query
            // Memory → Sel3 (75).
            HwOp::Match => vec![Cycle {
                db_route: &[DoubleBuffer, Sel1],
                query_route: &[Sel6, QueryMemory, Sel3],
            }],
            // Fig. 7: db = Double Buffer → Sel1 → Sel2 (60) addresses the
            // DB Memory; query = Sel6 → Query Memory → Reg3 (75) supplies
            // the data to write.
            HwOp::DbStore => vec![Cycle {
                db_route: &[DoubleBuffer, Sel1, Sel2],
                query_route: &[Sel6, QueryMemory, Reg3],
            }],
            // Fig. 8: db = Double Buffer → Sel1 → Sel5 → Sel4 (80) supplies
            // the data; query = Sel6 (20) supplies the address.
            HwOp::QueryStore => vec![Cycle {
                db_route: &[DoubleBuffer, Sel1, Sel5, Sel4],
                query_route: &[Sel6],
            }],
            // Fig. 9: db = Double Buffer → DB Memory → Sel1 (65); query as
            // in MATCH (75).
            HwOp::DbFetch => vec![Cycle {
                db_route: &[DoubleBuffer, DbMemory, Sel1],
                query_route: &[Sel6, QueryMemory, Sel3],
            }],
            // Fig. 10: cycle 1 query = Sel6 → Query Memory → Sel3 → Sel2 →
            // DB Memory (120), db = Double Buffer → Sel1 (40); cycle 2
            // query = Sel3 (20), db held.
            HwOp::QueryFetch => vec![
                Cycle {
                    db_route: &[DoubleBuffer, Sel1],
                    query_route: &[Sel6, QueryMemory, Sel3, Sel2, DbMemory],
                },
                Cycle {
                    db_route: &[],
                    query_route: &[Sel3],
                },
            ],
            // Fig. 11: cycle 1 db = Double Buffer → DB Memory → Reg1 (65),
            // query = Sel6 → Query Memory → Sel3 (75); cycle 2 db = Reg1 →
            // DB Memory → Sel1 (65), query held.
            HwOp::DbCrossBoundFetch => vec![
                Cycle {
                    db_route: &[DoubleBuffer, DbMemory, Reg1],
                    query_route: &[Sel6, QueryMemory, Sel3],
                },
                Cycle {
                    db_route: &[Reg1, DbMemory, Sel1],
                    query_route: &[],
                },
            ],
            // Fig. 12: cycle 1 query = Sel6 → Query Memory → Sel3 → Sel2
            // (95), db = Double Buffer → Sel1 (40); cycle 2 query =
            // DB Memory → Sel3 → Sel2 (65); cycle 3 query = DB Memory →
            // Sel3 (45); db held from cycle 1.
            HwOp::QueryCrossBoundFetch => vec![
                Cycle {
                    db_route: &[DoubleBuffer, Sel1],
                    query_route: &[Sel6, QueryMemory, Sel3, Sel2],
                },
                Cycle {
                    db_route: &[],
                    query_route: &[DbMemory, Sel3, Sel2],
                },
                Cycle {
                    db_route: &[],
                    query_route: &[DbMemory, Sel3],
                },
            ],
        }
    }

    /// The terminal action closing the operation.
    pub fn terminal(self) -> Terminal {
        match self {
            HwOp::DbStore => Terminal::WriteDbMemory,
            HwOp::QueryStore => Terminal::WriteQueryMemory,
            _ => Terminal::Compare,
        }
    }

    /// Execution time, derived from the routes: Σ per-cycle max(parallel
    /// routes) + terminal delay. Reproduces Table 1 exactly.
    ///
    /// The matcher charges one of these per operation it runs, so the seven
    /// times are derived once per process and then looked up.
    ///
    /// # Examples
    ///
    /// ```
    /// use clare_fs2::HwOp;
    ///
    /// assert_eq!(HwOp::Match.execution_time().as_ns(), 105);
    /// assert_eq!(HwOp::QueryCrossBoundFetch.execution_time().as_ns(), 235);
    /// ```
    pub fn execution_time(self) -> SimNanos {
        static TIMES: OnceLock<[SimNanos; 7]> = OnceLock::new();
        TIMES.get_or_init(|| HwOp::ALL.map(HwOp::route_time))[self.index()]
    }

    /// The route derivation behind [`Self::execution_time`].
    fn route_time(self) -> SimNanos {
        let routes: SimNanos = self.cycles().iter().map(Cycle::time).sum();
        routes + self.terminal().delay()
    }

    /// Number of microprogram cycles the operation occupies.
    pub fn cycle_count(self) -> usize {
        self.cycles().len()
    }

    /// The full route trace, for regenerating the figures' timing tables.
    pub fn route_trace(self) -> RouteTrace {
        RouteTrace {
            op: self,
            cycles: self.cycles(),
        }
    }

    /// The slowest of the seven operations — drives the worst-case
    /// filtering rate claim of §4.
    pub fn slowest() -> HwOp {
        Self::ALL
            .into_iter()
            .max_by_key(|op| op.execution_time())
            .expect("ALL is non-empty")
    }
}

impl fmt::Display for HwOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A printable breakdown of an operation's routes — the content of the
/// timing boxes under Figures 6–12.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTrace {
    /// The operation.
    pub op: HwOp,
    /// Its cycles.
    pub cycles: Vec<Cycle>,
}

impl fmt::Display for RouteTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Timing Calculation for the {} Operation (Figure {})",
            self.op,
            self.op.figure()
        )?;
        let multi = self.cycles.len() > 1;
        for (i, cycle) in self.cycles.iter().enumerate() {
            if multi {
                writeln!(f, "  cycle {}:", i + 1)?;
            }
            for (label, route, time) in [
                ("database route", cycle.db_route, cycle.db_time()),
                ("query route", cycle.query_route, cycle.query_time()),
            ] {
                if route.is_empty() {
                    writeln!(f, "    {label:<15}: (held from previous cycle)")?;
                } else {
                    let path: Vec<String> = route
                        .iter()
                        .map(|c| format!("{} {}", c, c.delay().as_ns()))
                        .collect();
                    writeln!(
                        f,
                        "    {label:<15}: {} (={})",
                        path.join(" -> "),
                        time.as_ns()
                    )?;
                }
            }
        }
        writeln!(
            f,
            "  {} (={})",
            self.op.terminal(),
            self.op.terminal().delay().as_ns()
        )?;
        write!(
            f,
            "  execution time = {} ns",
            self.op.execution_time().as_ns()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1 of the paper, derived from the component-level routes.
    #[test]
    fn table_1_execution_times() {
        let expected = [
            (HwOp::Match, 105),
            (HwOp::DbStore, 95),
            (HwOp::QueryStore, 115),
            (HwOp::DbFetch, 105),
            (HwOp::QueryFetch, 170),
            (HwOp::DbCrossBoundFetch, 170),
            (HwOp::QueryCrossBoundFetch, 235),
        ];
        for (op, ns) in expected {
            assert_eq!(
                op.execution_time().as_ns(),
                ns,
                "{op} must take {ns} ns (Table 1)"
            );
        }
    }

    #[test]
    fn op_time_table_equals_route_derivation() {
        for op in HwOp::ALL {
            assert_eq!(op.execution_time(), op.route_time(), "{op}");
        }
    }

    /// The per-route subtotals printed under each figure.
    #[test]
    fn figure_route_subtotals() {
        // Figure 6 (MATCH): db 40, query 75.
        let c = &HwOp::Match.cycles()[0];
        assert_eq!(c.db_time().as_ns(), 40);
        assert_eq!(c.query_time().as_ns(), 75);
        // Figure 7 (DB_STORE): db 60, query 75.
        let c = &HwOp::DbStore.cycles()[0];
        assert_eq!(c.db_time().as_ns(), 60);
        assert_eq!(c.query_time().as_ns(), 75);
        // Figure 8 (QUERY_STORE): db 80, query 20.
        let c = &HwOp::QueryStore.cycles()[0];
        assert_eq!(c.db_time().as_ns(), 80);
        assert_eq!(c.query_time().as_ns(), 20);
        // Figure 9 (DB_FETCH): db 65, query 75.
        let c = &HwOp::DbFetch.cycles()[0];
        assert_eq!(c.db_time().as_ns(), 65);
        assert_eq!(c.query_time().as_ns(), 75);
        // Figure 10 (QUERY_FETCH): cycle1 query 120, cycle2 query 20.
        let cs = HwOp::QueryFetch.cycles();
        assert_eq!(cs[0].query_time().as_ns(), 120);
        assert_eq!(cs[0].db_time().as_ns(), 40);
        assert_eq!(cs[1].query_time().as_ns(), 20);
        // Figure 11 (DB_CROSS_BOUND_FETCH): c1 db 65/query 75, c2 db 65.
        let cs = HwOp::DbCrossBoundFetch.cycles();
        assert_eq!(cs[0].db_time().as_ns(), 65);
        assert_eq!(cs[0].query_time().as_ns(), 75);
        assert_eq!(cs[1].db_time().as_ns(), 65);
        // Figure 12 (QUERY_CROSS_BOUND_FETCH): query 95, 65, 45.
        let cs = HwOp::QueryCrossBoundFetch.cycles();
        assert_eq!(cs[0].query_time().as_ns(), 95);
        assert_eq!(cs[1].query_time().as_ns(), 65);
        assert_eq!(cs[2].query_time().as_ns(), 45);
    }

    #[test]
    fn cycle_counts_match_figures() {
        assert_eq!(HwOp::Match.cycle_count(), 1);
        assert_eq!(HwOp::DbStore.cycle_count(), 1);
        assert_eq!(HwOp::QueryStore.cycle_count(), 1);
        assert_eq!(HwOp::DbFetch.cycle_count(), 1);
        assert_eq!(HwOp::QueryFetch.cycle_count(), 2);
        assert_eq!(HwOp::DbCrossBoundFetch.cycle_count(), 2);
        assert_eq!(HwOp::QueryCrossBoundFetch.cycle_count(), 3);
    }

    #[test]
    fn slowest_is_query_cross_bound_fetch() {
        assert_eq!(HwOp::slowest(), HwOp::QueryCrossBoundFetch);
        assert_eq!(HwOp::slowest().execution_time().as_ns(), 235);
    }

    #[test]
    fn store_ops_terminate_with_writes() {
        assert_eq!(HwOp::DbStore.terminal(), Terminal::WriteDbMemory);
        assert_eq!(HwOp::QueryStore.terminal(), Terminal::WriteQueryMemory);
        assert_eq!(HwOp::Match.terminal(), Terminal::Compare);
        assert_eq!(HwOp::QueryCrossBoundFetch.terminal(), Terminal::Compare);
    }

    #[test]
    fn index_agrees_with_all_order() {
        for (i, op) in HwOp::ALL.iter().enumerate() {
            assert_eq!(op.index(), i, "{}", op.name());
        }
    }

    #[test]
    fn route_trace_prints_figure_content() {
        let t = HwOp::Match.route_trace().to_string();
        assert!(t.contains("MATCH"));
        assert!(t.contains("Double Buffer 20 -> Sel1 20 (=40)"));
        assert!(t.contains("Sel6 20 -> Query Memory 35 -> Sel3 20 (=75)"));
        assert!(t.contains("execution time = 105 ns"));
        let t = HwOp::QueryCrossBoundFetch.route_trace().to_string();
        assert!(t.contains("cycle 3"));
        assert!(t.contains("execution time = 235 ns"));
    }
}
