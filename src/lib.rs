//! # radionet
//!
//! Facade crate re-exporting the full `radionet` workspace: a reproduction of
//! *“Uniting General-Graph and Geometric-Based Radio Networks via
//! Independence Number Parametrization”* (Peter Davies, PODC 2023).
//!
//! See the workspace README for an overview; the typical imports are:
//!
//! ```
//! use radionet::graph::generators;
//! use rand::SeedableRng;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let g = generators::unit_disk_in_square(100, 3.0, &mut rng).graph;
//! assert_eq!(g.n(), 100);
//! ```

#![forbid(unsafe_code)]

pub use radionet_analysis as analysis;
pub use radionet_api as api;
pub use radionet_baselines as baselines;
pub use radionet_cluster as cluster;
pub use radionet_core as core;
pub use radionet_graph as graph;
pub use radionet_journal as journal;
pub use radionet_mobility as mobility;
pub use radionet_primitives as primitives;
pub use radionet_service as service;
pub use radionet_sim as sim;
pub use radionet_telemetry as telemetry;
