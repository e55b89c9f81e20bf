//! Miller–Peng–Xu exponential-shift clustering and the paper's
//! independence-number analysis machinery.
//!
//! * [`shifts`] — exponential random shifts `δ_v ~ Exp(β)`;
//! * [`mpx`] — the abstract (message-passing) clustering `Partition(β, C)`:
//!   node `u` joins the cluster of the center `v ∈ C` minimizing
//!   `dist(u, v) − δ_v` (paper, Section 2.2). With `C = V` this is the
//!   classic MPX used by \[CD21\]; with `C = MIS` it is this paper's variant;
//! * [`partition_radio`] — the radio-network implementation (à la
//!   Haeupler–Wajc): discretized wave expansion with Decay per phase;
//! * [`schedule`] — per-cluster conflict-free transmission schedules used by
//!   Intra-Cluster Propagation (built engine-side and charged through
//!   [`CostModel`](radionet_sim::CostModel)), verified conflict-free at
//!   construction;
//! * [`quantities`] — the Section 3 quantities `T_β`, `B_β`, `S_β`, the
//!   prefix counts `s_j`, the paper's `b`, and the Lemma 4 / Lemma 5
//!   predicates (experiments E5–E7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mpx;
pub mod partition_radio;
pub mod quantities;
pub mod schedule;
pub mod shifts;

pub use mpx::{partition, Clustering};
pub use partition_radio::{run_radio_partition, RadioPartitionConfig};
pub use schedule::ClusterSchedule;
