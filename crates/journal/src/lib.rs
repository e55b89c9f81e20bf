//! Event journal for the radionet simulation engine: a zero-cost-when-off
//! observability layer.
//!
//! The engine (`radionet-sim`) is generic over an `Observer`. With its
//! quiet default every emission site monomorphizes to dead code — the
//! instrumented engine compiles to the same hot path as the
//! uninstrumented one (the bench suite pins this with a no-regression
//! guard). Give it a [`Recorder`] and the engine streams compact
//! [`Event`]s — transmissions, receptions, collisions, node status flips,
//! phase boundaries, scheduler hints, spatial-index rebuilds — plus
//! periodic [`Waypoint`]s: cheap digests of everything so far, taken at
//! completed-step boundaries.
//!
//! On top of the stream sit the comparison tools:
//!
//! - [`Journal`] — the frozen, serializable recording (single JSON
//!   document; see [`Journal::to_json_string`]).
//! - [`normalized`] — canonical per-step ordering, so the sparse and dense
//!   kernels' differently-ordered streams become directly comparable on
//!   the kernel-invariant classes.
//! - [`first_divergence`] — event-for-event replay check.
//! - [`bisect`] — binary search over waypoints to the first divergent
//!   segment, then a pinpoint scan producing a structured
//!   [`Divergence`] (step, node, event kind, both values).
//!
//! Event classes ([`EventClass`], filtered by [`ClassMask`]) split along
//! the line that matters for comparison: `Radio`/`Topology`/`Phase` are
//! kernel-invariant, `Sched` describes the sparse kernel's own machinery
//! and is dropped automatically when comparing across kernels.
//!
//! ```
//! use radionet_journal::{
//!     bisect, ClassMask, DeliverInfo, Event, EventKind, Recorder, TransmitInfo,
//! };
//!
//! let mut run = |victim: u32| {
//!     let mut rec = Recorder::new(ClassMask::ALL, 4);
//!     for step in 0..12u64 {
//!         rec.record(step, EventKind::Transmit(TransmitInfo { node: (step % 3) as u32 }));
//!         if step == 9 {
//!             rec.record(step, EventKind::Deliver(DeliverInfo { node: victim, from: 0 }));
//!         }
//!         let boundary = step + 1;
//!         if rec.checkpoint_due(boundary) {
//!             rec.record_waypoint(boundary, 0x5eed);
//!         }
//!     }
//!     rec.into_journal("doc-test", "sparse", None, 0x5eed, 0)
//! };
//!
//! let report = bisect(&run(7), &run(8), ClassMask::ALL);
//! let diff = report.divergence.expect("the two runs differ at step 9");
//! assert_eq!(diff.step, 9);
//! assert_eq!(report.agree_until, Some(8));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod journal;

pub mod diff;

pub use diff::{bisect, first_divergence, normalized, BisectReport, Divergence};
pub use event::{
    ClassMask, CollisionInfo, DeliverInfo, Event, EventClass, EventKind, GridInfo, HintInfo,
    PhaseEndInfo, PhaseInfo, StatusInfo, TransmitInfo,
};
pub use journal::{Journal, JournalSummary, Recorder, Waypoint};
