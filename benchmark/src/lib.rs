//! The repository's end-to-end benchmark: four seeded, oracle-checked
//! workloads, thirteen end-to-end metrics, and a per-layer latency budget
//! measured from outside the engine. See `README.md`.

pub mod compare;
pub mod gen;
pub mod json;
pub mod layers;
pub mod oracle;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
