//! Graph substrate for the `radionet` radio-network reproduction.
//!
//! This crate provides everything the simulator and the paper's algorithms
//! need from graphs, with **no external graph dependency**:
//!
//! * [`Graph`] — a compact, immutable, undirected graph in CSR layout, built
//!   through [`GraphBuilder`];
//! * [`traversal`] — BFS distances, connectivity, exact and estimated
//!   diameter (iFUB);
//! * [`independent_set`] — greedy maximal independent sets, an exact
//!   branch-and-bound maximum-independent-set solver, and cheap upper bounds,
//!   combined into [`independent_set::AlphaBounds`] (the paper's `α`);
//! * [`geometry`] — points and metrics (Euclidean, Chebyshev, Manhattan,
//!   torus) used by the geometric graph classes of Section 1.3 of the paper;
//! * [`spatial`] — [`spatial::SpatialGrid`], a uniform-grid spatial index
//!   shared by the geometric generators (their `O(n·deg)` candidate-pair
//!   sweep), the mobility subsystem (incremental derived adjacency) and the
//!   simulator's sparse SINR reception kernel;
//! * [`generators`] — every graph family the paper names: unit disk, quasi
//!   unit disk, unit ball over arbitrary metrics, undirected geometric radio
//!   networks, plus the classic and random general-graph families used as
//!   non-geometric comparators;
//! * [`families`] — a serde-able catalogue of named experiment families so
//!   benchmarks can be driven by configuration.
//!
//! # Example
//!
//! ```
//! use radionet_graph::{generators, traversal, independent_set};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let g = generators::unit_disk_in_square(200, 4.0, &mut rng).graph;
//! assert!(g.n() == 200);
//! if traversal::is_connected(&g) {
//!     let d = traversal::diameter_exact(&g);
//!     let alpha = independent_set::alpha_bounds(&g, 200_000);
//!     assert!(alpha.lower >= 1 && alpha.upper >= alpha.lower);
//!     assert!(d >= 1);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
mod graph;

pub mod families;
pub mod generators;
pub mod geometry;
pub mod granularity;
pub mod independent_set;
pub mod spatial;
pub mod traversal;

pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::{Graph, NodeId};
