//! Synchronous radio-network simulator (paper, Section 1.1).
//!
//! The model simulated here is exactly the paper's:
//!
//! * time is divided into synchronous **time-steps**;
//! * in each step every node either **transmits** a message or **listens**;
//! * a listening node hears a message **iff exactly one of its neighbors
//!   transmits** in that step; otherwise (zero or ≥ 2 transmitters) it hears
//!   nothing, and it cannot distinguish the two cases (**no collision
//!   detection**);
//! * a transmitting node hears nothing in that step (half-duplex);
//! * all nodes wake up at step 0 (**synchronous wake-up**);
//! * the network is **ad-hoc**: protocols receive only the estimates in
//!   [`NetInfo`], never the topology or their own degree.
//!
//! The engine reads the topology through a pluggable [`TopologyView`]
//! rather than the graph directly; the default [`StaticTopology`] is the
//! paper's model above, while dynamic views (see `radionet_api::dynamics`)
//! relax the static-graph and synchronous-wake-up assumptions — churn,
//! partitions, jamming, staggered wake-up — to measure how the guarantees
//! degrade.
//!
//! Protocols implement [`Protocol`] and are executed in *phases* by
//! [`Sim::run_phase`]; per-node RNGs persist across phases so a whole
//! multi-phase algorithm is a deterministic function of `(graph, seed)`.
//! Two interchangeable step kernels execute a phase (see [`Kernel`]): the
//! sparse active-set kernel (default), whose per-step cost tracks actual
//! radio activity via the [`Wake`] hints protocols return and which jumps
//! the clock over provably silent spans; and the dense reference kernel,
//! which polls every node every step. Both produce byte-identical results
//! for contract-honoring protocols.
//!
//! What a run records besides its results — an event journal, wall-clock
//! metrics, or both — is the [`Observer`] parameter of [`Sim`]; the
//! default [`Quiet`] compiles every recording site away.
//!
//! # Example: one transmitter, star topology
//!
//! ```
//! use radionet_graph::generators;
//! use radionet_sim::{Action, NetInfo, NodeCtx, Protocol, Sim};
//!
//! struct Beacon { is_source: bool, heard: bool }
//! impl Protocol for Beacon {
//!     type Msg = u64;
//!     fn act(&mut self, _ctx: &mut NodeCtx<'_>) -> Action<u64> {
//!         if self.is_source { Action::Transmit(42) } else { Action::Listen }
//!     }
//!     fn on_hear(&mut self, _ctx: &mut NodeCtx<'_>, msg: &u64) {
//!         assert_eq!(*msg, 42);
//!         self.heard = true;
//!     }
//!     fn is_done(&self) -> bool { self.heard || self.is_source }
//! }
//!
//! let g = generators::star(5); // hub 0, leaves 1..4
//! let mut sim = Sim::new(&g, NetInfo::exact(&g), 1);
//! let mut nodes: Vec<Beacon> =
//!     g.nodes().map(|v| Beacon { is_source: v.index() == 0, heard: false }).collect();
//! let report = sim.run_phase(&mut nodes, 4);
//! assert!(report.completed);
//! assert!(nodes.iter().skip(1).all(|b| b.heard));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod cost;
mod engine;
mod injection;
mod observer;
mod protocol;
mod reception;
mod stats;
pub mod topology;

pub use checkpoint::{Checkpoint, CheckpointError, RngState};
pub use cost::CostModel;
pub use engine::{Kernel, PhaseReport, Sim, SimError};
pub use injection::{injections_ordered, Injection};
pub use observer::{Observed, Observer, Quiet};
pub use protocol::{Action, NetInfo, NodeCtx, Protocol, Wake};
// The metrics half of an `Observed`, re-exported so telemetry-attached
// drivers resolve without a separate telemetry dependency.
pub use radionet_telemetry::Registry;
pub use reception::{dist3, PositionSource, ReceptionMode, SinrConfig, NEAR_FIELD_FRACTION};
pub use stats::SimStats;
pub use topology::{StaticTopology, TopologyView};

/// Splitmix64 finalizer: the workspace's standard bit mixer, shared by the
/// seed derivation (`radionet_api::seeds`), traffic plans, mobility
/// streams and the coordinated coins of the paper's algorithms.
#[inline]
pub fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::mix;

    #[test]
    fn mix_is_pinned() {
        assert_eq!(mix(0), 0);
        assert_eq!(mix(1), 0x5692_161d_100b_05e5);
        assert_eq!(mix(3 ^ 0x6a), 0x168b_5740_ba29_91ff);
    }
}
