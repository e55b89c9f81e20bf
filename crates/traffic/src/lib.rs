//! Streaming traffic workloads: many concurrent messages instead of one.
//!
//! Every task the paper benchmarks is one-shot — a single broadcast, one
//! leader election — but the α-parametrized broadcast bounds are exactly
//! the per-message baselines a *stream* of messages should be measured
//! against. This crate provides the three pieces a streaming workload
//! needs, all inside the deterministic surface (a traffic run is a pure
//! function of its spec, byte-identical across kernels and across
//! sequential/parallel sweeps):
//!
//! * [`TrafficSpec`] / [`Arrival`] — the workload axis a
//!   `RunSpec` carries: deterministic arrival processes (Bernoulli-thinned
//!   Poisson and bursty on/off), sender count, message budget, horizon;
//! * [`TrafficPlan`] — the materialized schedule: every message's id,
//!   arrival step, source node and destination set ([`Dst`]: flood,
//!   point-to-point, or salted multicast), convertible into the engine's
//!   [`Injection`](radionet_sim::Injection) list;
//! * [`DeliveryLedger`] — folds per-node knowledge (who learned which
//!   message when) back into per-message injected-at / first-delivered-at
//!   / fully-delivered-at times, and summarizes them as a
//!   [`TrafficReport`]: delivered throughput plus exact nearest-rank
//!   p50/p90/p99 latency percentiles (shared helper:
//!   [`radionet_analysis::percentile`]).
//!
//! All plan randomness derives from one traffic seed via the workspace's
//! standard splitmix64 mix — no RNG state is consumed, so adding traffic
//! to a run perturbs neither the graph nor the simulator's per-node
//! streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ledger;
mod plan;
mod spec;

pub use ledger::{DeliveryLedger, TrafficReport};
pub use plan::{Dst, MulticastSet, PlannedMessage, TrafficPlan};
pub use spec::{Arrival, BurstyArrival, PoissonArrival, TrafficKind, TrafficSpec};
