//! Runtime telemetry for the radionet workspace: wall-clock metrics that
//! live strictly **outside** the deterministic surface.
//!
//! A [`Registry`] holds shared counters, gauges, and [`Log2Histogram`]s.
//! Instrumented code reaches it through an `Option<&Registry>` — the
//! engine through its `Observer` parameter (`radionet-sim`), whose quiet
//! default compiles every timing site out of the hot path, so an
//! unobserved run costs exactly what it did before this crate existed (the
//! E21 bench smoke pins that with an E15-style overhead assertion).
//!
//! **The determinism contract.** Telemetry observes wall time and sizes;
//! it never steers. Reports, RNG streams, journals, and cache keys are
//! byte-identical with telemetry on or off — equivalence tests in the
//! `radionet-api` and `radionet-service` crates enforce this, which is
//! also why run specs carry no telemetry knob: attaching a registry is a
//! property of the *process* (a driver, a daemon), never of the cell.
//!
//! Three vocabularies:
//!
//! * [`Registry`] — the recording store, plus the [`Stopwatch`] and
//!   [`timed`] helpers for timing scopes;
//! * [`MetricsSnapshot`] — the versioned serde view of a registry
//!   ([`Registry::snapshot`]), rendered for humans by
//!   [`render_prometheus`];
//! * [`ProgressSink`] / [`ProgressMeter`] — rate-limited live progress
//!   events with throughput and ETA, for long sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod hooks;
mod progress;
mod registry;
mod snapshot;

pub use histogram::{HistogramSummary, Log2Histogram};
pub use hooks::{timed, Stopwatch};
pub use progress::{MemoryProgress, ProgressEvent, ProgressMeter, ProgressSink};
pub use registry::Registry;
pub use snapshot::{
    render_prometheus, CounterSample, GaugeSample, HistogramSample, MetricsSnapshot,
    METRICS_SNAPSHOT_VERSION,
};
