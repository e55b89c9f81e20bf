//! The benchmark harness: one experiment per quantitative claim of the
//! paper (indexed in [`experiments`]). Each experiment is a library
//! function returning an [`radionet_analysis::ExperimentRecord`] and
//! printing its Markdown table; the `exp` binary runs one of them
//! (`exp E15`) or all of them (`exp all`), writing JSON records to
//! `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod experiments;

pub use context::{GraphCase, Scale};
