//! # radionet-api — the unified façade
//!
//! The paper's point is a *single parametrization* (the independence number
//! α) that unites general-graph and geometric radio models; this crate is
//! the same move applied to the workspace's API. Instead of eleven
//! divergent `run_*` free functions with bespoke config and outcome types,
//! there is **one** typed, serde-able description of a run — [`RunSpec`] —
//! and **one** entry point that executes it — [`Driver::run`] — returning
//! one unified [`RunReport`].
//!
//! * [`spec`] — [`RunSpec`] (graph family + size, reception mode, step
//!   kernel, [`Dynamics`] recipe, task key, optional step cap, seed);
//! * [`task`] — the closed [`Task`] enum, one variant per algorithm with
//!   one observer-generic [`Task::run`], and the unified [`TaskOutcome`];
//! * [`tasks`] — the run bodies behind [`Task::run`]: `Compete` broadcast,
//!   leader election, radio MIS, radio partition, and every baseline (BGI,
//!   Czumaj–Rytter, CD wake-up, naive LE, LOCAL MIS references);
//! * [`registry`] — [`TaskRegistry`], the by-key view over [`Task::ALL`];
//! * [`driver`] — [`Driver`] and its [`RunReport`];
//! * [`sweep`] — [`Driver::run_sweep`], the one streaming sweep loop, in
//!   blocks on the rayon pool;
//! * [`catalogue`] — the named [`Scenario`] presets and the
//!   [`SweepConfig`] that expands them into labelled specs;
//! * [`sink`] — the [`ResultSink`] trait and its JSONL / JSON-array /
//!   in-memory implementations (huge sweeps never buffer);
//! * [`events`] / [`dynamics`] — the dynamic-topology vocabulary
//!   ([`ScenarioEvent`](events::ScenarioEvent) scripts and the
//!   [`DynamicTopology`](dynamics::DynamicTopology) overlay) every
//!   scripted run is executed through (a static run is simply an empty
//!   script);
//! * [`topology`] — [`RunTopology`], the one view type every task runs
//!   under: the scripted overlay or a
//!   [`MobileTopology`](radionet_mobility::MobileTopology) whose edges
//!   are re-derived from moving geometry
//!   ([`Dynamics::Mobility`] recipes);
//! * [`seeds`] — the shared deterministic seed derivation: identical specs
//!   produce bit-identical reports anywhere;
//! * [`journal`] — replay and divergence tooling over the event journals
//!   [`Driver::run_journaled`] records (see `radionet-journal`): re-drive
//!   a recorded run and binary-search two recordings to their first
//!   differing event.
//!
//! ```
//! use radionet_api::{Driver, Dynamics, RunSpec};
//! use radionet_graph::families::Family;
//!
//! // One typed spec names the whole experiment…
//! let spec = RunSpec::new("broadcast", Family::UnitDisk, 64)
//!     .with_dynamics(Dynamics::preset("jamming").unwrap())
//!     .with_seed(42);
//! // …and one call runs it.
//! let report = Driver::standard().run(&spec).unwrap();
//! assert_eq!(report.spec, spec);
//! println!("informed {:.0}% in {} steps", 100.0 * report.achieved, report.clock_total);
//! ```
//!
//! The `radionet` CLI binary (root crate) exposes the same surface from the
//! shell: `radionet run`, `radionet sweep`, `radionet list-tasks`,
//! `radionet catalogue`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalogue;
pub mod driver;
pub mod dynamics;
pub mod events;
pub mod hash;
pub mod journal;
pub mod registry;
pub mod seeds;
pub mod sink;
pub mod spec;
pub mod sweep;
pub mod task;
pub mod tasks;
pub mod topology;

pub use catalogue::{Scenario, SweepConfig};
pub use driver::{Driver, RunError, RunReport, RESULTS_VERSION};
pub use hash::SpecHash;
pub use journal::{replay, spec_of, ReplayOutcome};
pub use registry::TaskRegistry;
pub use sink::{JsonArraySink, JsonlSink, MemorySink, ResultSink};
pub use spec::{
    ChurnSpec, Dynamics, JamSpec, JournalSpec, MobilitySpec, PartitionSpec, RunSpec, StaggerSpec,
};
pub use task::{
    BroadcastSummary, ElectionSummary, MisSummary, PartitionSummary, Task, TaskCtx, TaskOutcome,
    WakeupSummary,
};
pub use topology::RunTopology;
// The streaming-traffic vocabulary, re-exported so spec-building code can
// stay on the façade crate alone (the types live in `radionet-traffic`,
// below this crate in the dependency graph).
pub use radionet_traffic::{
    Arrival, BurstyArrival, PoissonArrival, TrafficKind, TrafficReport, TrafficSpec,
};
