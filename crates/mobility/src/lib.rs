//! # radionet-mobility — moving geometric radio networks
//!
//! The paper's geometric families (UDG, quasi-UDG, unit ball, geometric
//! radio) are defined by a point set and a distance rule, yet the rest of
//! the workspace only ever sees the *frozen* edge set. This crate puts the
//! point set back in motion:
//!
//! * [`model`] — deterministic mobility models ([`MobilityModel`]):
//!   random waypoint (with pauses), random walk / Lévy flight, correlated
//!   group drift, and the static identity. Every node's trajectory is a
//!   pure function of `(model, seed)` through per-node RNG streams.
//! * [`SpatialGrid`] — a uniform-grid spatial index with cell width ≥ the
//!   interaction radius, so the candidate neighbors of a point are exactly
//!   the 3^dim surrounding cells (re-exported from
//!   [`radionet_graph::spatial`], where it is shared with the simulator's
//!   sparse SINR reception kernel).
//! * [`topology`] — [`MobileTopology`], a
//!   [`TopologyView`](radionet_sim::TopologyView) whose adjacency is
//!   **derived from the evolving geometry** rather than scripted edge
//!   events. Edges are maintained incrementally in
//!   `O(moved nodes × candidates)` per step, with a full-rebuild path and
//!   a brute-force `O(n²)` reference path kept as differential oracles,
//!   plus optional time-resolved sampling of α-bounds and diameter.
//!
//! The view implements the sparse step kernel's batch change feed
//! (trivially exact: mobility never changes node activity or jamming), so
//! `radionet-sim`'s active-set kernel runs unmodified — and byte-identical
//! to the dense reference kernel — on moving graphs.
//!
//! ```
//! use radionet_graph::families::Family;
//! use radionet_mobility::{MobileTopology, MobilityModel, WaypointParams};
//! use radionet_sim::TopologyView;
//!
//! let positioned = Family::UnitDisk.instantiate_positioned(64, 1);
//! let geometry = positioned.geometry.expect("unit disk is geometric");
//! let model = MobilityModel::RandomWaypoint(WaypointParams {
//!     speed_lo: 0.05,
//!     speed_hi: 0.10,
//!     pause_lo: 0,
//!     pause_hi: 4,
//!     range: 0.0,
//! });
//! let mut topo = MobileTopology::new(&geometry, model, 1, 42);
//! let g = topo.initial_graph();
//! assert_eq!(g, positioned.graph, "derived t = 0 edges match the generator");
//! topo.advance_to(&g, 0); // baseline
//! topo.advance_to(&g, 50); // 50 mobility ticks later the edge set moved on
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod topology;

pub use model::{GroupDriftParams, MobilityModel, Motion, WalkParams, WaypointParams};
/// The uniform-grid spatial index, re-exported from
/// [`radionet_graph::spatial`] (where the simulator's sparse SINR kernel
/// shares it).
pub use radionet_graph::spatial::SpatialGrid;
pub use topology::{
    IndexStrategy, MobileTopology, MobilitySample, MobilityStats, MobilityTrace, TRACE_CAP,
};
