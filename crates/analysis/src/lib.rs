//! Experiment-harness support: statistics, scaling-law fits, Markdown
//! tables and serde-able experiment records.
//!
//! Pure data manipulation — no dependency on the simulator — so every crate
//! (and external users) can consume it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod fit;
pub mod ingest;
pub mod stats;
pub mod table;

pub use experiment::{ExperimentRecord, RunRecord};
pub use fit::{fit_power_law, PowerLawFit};
pub use ingest::{group_summaries, success_rate};
pub use stats::{percentile, Summary};
pub use table::Table;
