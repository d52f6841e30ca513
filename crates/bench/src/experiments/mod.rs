//! One module per reproduced table/figure. See the crate docs for the
//! experiment index.

pub mod bench_suite;
pub mod false_drops;
pub mod fig1;
pub mod figures;
pub mod fs1;
pub mod fs2_wallclock;
pub mod levels;
pub mod lists;
pub mod metrics_dump;
pub mod modes;
pub mod net_wallclock;
pub mod result_memory;
pub mod table1;
pub mod table_a1;
pub mod throughput;
pub mod warren_scale;
