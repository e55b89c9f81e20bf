//! The recorded artifact: [`Recorder`] (the live recording), [`Waypoint`]s,
//! the serializable [`Journal`], and its [`JournalSummary`].

use crate::event::{ClassMask, Event, EventClass, EventKind};
use serde::{Deserialize, Serialize, Value};

/// A checkpoint waypoint: a cheap, comparable digest of the run's state at
/// a completed-step boundary. Two runs that agree on a waypoint agreed on
/// every kernel-invariant event before it (rolling digest) *and* consumed
/// identical per-node randomness (RNG fingerprint) — which is what lets
/// [`bisect`](crate::bisect) binary-search for the first divergent segment
/// instead of scanning whole streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Waypoint {
    /// Completed-step boundary the waypoint was taken at.
    pub step: u64,
    /// Kernel-invariant events recorded up to the boundary.
    pub events: u64,
    /// Rolling order-insensitive digest of those events (wrapping sum of
    /// mixed per-event hashes, so both kernels' within-step orderings
    /// produce the same digest).
    pub digest: u64,
    /// The engine's per-node RNG-state digest at the boundary.
    pub rng_fingerprint: u64,
}

/// The live recording: filters by [`ClassMask`], accumulates events,
/// takes [`Waypoint`]s on a fixed step cadence. The engine (`radionet-sim`)
/// records into one through its `Observer` parameter.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    mask: ClassMask,
    checkpoint_every: u64,
    next_waypoint: u64,
    events: Vec<Event>,
    waypoints: Vec<Waypoint>,
    digest: u64,
    invariant_events: u64,
}

/// Bijective mixer (splitmix64 finalizer) applied to each event hash
/// before the commutative accumulation, so the wrapping sum stays
/// discriminating.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Recorder {
    /// A recorder keeping events in `mask`, taking a waypoint every
    /// `checkpoint_every` completed steps (`0` disables waypoints).
    pub fn new(mask: ClassMask, checkpoint_every: u64) -> Self {
        Recorder {
            mask,
            checkpoint_every,
            next_waypoint: checkpoint_every,
            events: Vec::new(),
            waypoints: Vec::new(),
            digest: 0,
            invariant_events: 0,
        }
    }

    /// Whether events of `class` pass the filter (the engine asks before
    /// building an event's payload, so filtered classes cost nothing but
    /// the branch).
    #[inline]
    pub fn wants(&self, class: EventClass) -> bool {
        self.mask.contains(class)
    }

    /// Records one event at the given global step.
    pub fn record(&mut self, step: u64, kind: EventKind) {
        let event = Event { step, kind };
        if ClassMask::INVARIANT.contains(event.class()) {
            // Order-insensitive within the run: the sparse and dense
            // kernels resolve one step's events in different orders, but
            // the same multiset — a commutative accumulation makes their
            // waypoint digests directly comparable.
            self.digest = self.digest.wrapping_add(mix(event.hash64()));
            self.invariant_events += 1;
        }
        self.events.push(event);
    }

    /// Whether a waypoint is due at the completed-step boundary `step`
    /// (the engine asks after every simulated step, in both kernels).
    pub fn checkpoint_due(&self, step: u64) -> bool {
        self.checkpoint_every != 0 && step >= self.next_waypoint
    }

    /// Records a waypoint at boundary `step` with the engine's RNG-state
    /// digest (see `Sim::rng_fingerprint` in `radionet-sim`).
    pub fn record_waypoint(&mut self, step: u64, rng_fingerprint: u64) {
        self.waypoints.push(Waypoint {
            step,
            events: self.invariant_events,
            digest: self.digest,
            rng_fingerprint,
        });
        self.next_waypoint = step + self.checkpoint_every;
    }

    /// The earliest future boundary at which
    /// [`checkpoint_due`](Recorder::checkpoint_due) would first answer
    /// true, or `None` when waypoints are off. The sparse kernel lands on
    /// every waypoint step instead of jumping over it, so a recording made
    /// under clock jumps keeps the exact cadence of a stepped one.
    pub fn next_checkpoint(&self) -> Option<u64> {
        (self.checkpoint_every != 0).then_some(self.next_waypoint)
    }

    /// The recorded events so far, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The waypoints taken so far.
    pub fn waypoints(&self) -> &[Waypoint] {
        &self.waypoints
    }

    /// The class filter.
    pub fn mask(&self) -> ClassMask {
        self.mask
    }

    /// The rolling digest over kernel-invariant events.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Freezes the recording into a serializable [`Journal`].
    pub fn into_journal(
        self,
        producer: impl Into<String>,
        kernel: impl Into<String>,
        spec: Option<Value>,
        final_fingerprint: u64,
        wall_nanos: u64,
    ) -> Journal {
        Journal {
            producer: producer.into(),
            kernel: kernel.into(),
            mask: self.mask,
            checkpoint_every: self.checkpoint_every,
            spec,
            final_fingerprint,
            wall_nanos,
            events: self.events,
            waypoints: self.waypoints,
        }
    }
}

/// Deterministic per-class counters of a [`Journal`] — what a `RunReport`
/// carries so a journaled run stays summarizable without shipping the
/// event stream (wall time deliberately excluded: summaries embedded in
/// reports must stay bit-reproducible).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalSummary {
    /// Total recorded events.
    pub events: u64,
    /// Radio-class events (transmit/deliver/collision).
    pub radio: u64,
    /// Topology-class events (status flips).
    pub topology: u64,
    /// Phase-class events (phase boundaries).
    pub phase: u64,
    /// Sched-class events (hints, grid rebuilds).
    pub sched: u64,
    /// Waypoints taken.
    pub waypoints: u64,
    /// Final rolling digest over kernel-invariant events.
    pub digest: u64,
}

/// A frozen recording: everything needed to replay the run and to compare
/// it against another recording. Serializes to a single self-describing
/// JSON document (`wall_nanos` is the only non-deterministic field; every
/// comparison in this crate ignores it).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Journal {
    /// Free-form producer tag (tool and version).
    pub producer: String,
    /// The kernel that produced the stream (`"sparse"` / `"dense"`), used
    /// to decide whether two journals are order-comparable per class.
    pub kernel: String,
    /// The class filter the recording ran under.
    pub mask: ClassMask,
    /// The waypoint cadence in steps (`0` = none).
    pub checkpoint_every: u64,
    /// The producing run's spec, echoed verbatim as a serialized tree so
    /// `replay` can re-drive it without this crate depending on the spec
    /// type.
    pub spec: Option<Value>,
    /// The engine's RNG fingerprint at exit.
    pub final_fingerprint: u64,
    /// Wall-clock nanoseconds of the recorded run (meta only — never
    /// compared).
    pub wall_nanos: u64,
    /// The event stream, in emission order.
    pub events: Vec<Event>,
    /// The waypoints, in step order.
    pub waypoints: Vec<Waypoint>,
}

impl Journal {
    /// Serializes the journal to a single JSON document.
    ///
    /// # Errors
    ///
    /// Propagates the serializer's error (non-finite floats are the only
    /// failure mode, and the journal carries none).
    pub fn to_json_string(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parses a journal back from [`to_json_string`](Journal::to_json_string)
    /// output.
    ///
    /// # Errors
    ///
    /// Returns the parser or shape error verbatim.
    pub fn from_json_str(s: &str) -> Result<Journal, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Per-class counters plus the rolling digest.
    pub fn summary(&self) -> JournalSummary {
        let mut s = JournalSummary {
            waypoints: self.waypoints.len() as u64,
            digest: self.waypoints.last().map_or(0, |w| w.digest),
            ..JournalSummary::default()
        };
        let mut digest = 0u64;
        for e in &self.events {
            s.events += 1;
            match e.class() {
                EventClass::Radio => s.radio += 1,
                EventClass::Topology => s.topology += 1,
                EventClass::Phase => s.phase += 1,
                EventClass::Sched => s.sched += 1,
            }
            if ClassMask::INVARIANT.contains(e.class()) {
                digest = digest.wrapping_add(mix(e.hash64()));
            }
        }
        s.digest = digest;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DeliverInfo, TransmitInfo};

    fn tx(node: u32) -> EventKind {
        EventKind::Transmit(TransmitInfo { node })
    }

    #[test]
    fn recorder_filters_by_mask() {
        let mut r = Recorder::new(ClassMask::NONE.with(EventClass::Radio), 0);
        assert!(r.wants(EventClass::Radio));
        assert!(!r.wants(EventClass::Sched));
        r.record(0, tx(1));
        assert_eq!(r.events().len(), 1);
        assert!(!r.checkpoint_due(1000));
    }

    #[test]
    fn digest_is_order_insensitive_within_the_run() {
        let a = EventKind::Transmit(TransmitInfo { node: 1 });
        let b = EventKind::Deliver(DeliverInfo { node: 2, from: 1 });
        let mut fwd = Recorder::new(ClassMask::ALL, 0);
        fwd.record(3, a);
        fwd.record(3, b);
        let mut rev = Recorder::new(ClassMask::ALL, 0);
        rev.record(3, b);
        rev.record(3, a);
        assert_eq!(fwd.digest(), rev.digest());
        let mut other = Recorder::new(ClassMask::ALL, 0);
        other.record(4, a);
        other.record(3, b);
        assert_ne!(fwd.digest(), other.digest());
    }

    #[test]
    fn waypoints_follow_the_cadence() {
        let mut r = Recorder::new(ClassMask::ALL, 10);
        assert_eq!(r.next_checkpoint(), Some(10));
        for boundary in 1..=25u64 {
            if r.checkpoint_due(boundary) {
                r.record_waypoint(boundary, 0xfee1);
            }
        }
        let steps: Vec<u64> = r.waypoints().iter().map(|w| w.step).collect();
        assert_eq!(steps, vec![10, 20]);
        assert_eq!(r.next_checkpoint(), Some(30));
        assert_eq!(Recorder::new(ClassMask::ALL, 0).next_checkpoint(), None);
    }

    #[test]
    fn journal_round_trips_and_summarizes() {
        let mut r = Recorder::new(ClassMask::ALL, 5);
        r.record(0, tx(0));
        r.record(2, EventKind::Deliver(DeliverInfo { node: 1, from: 0 }));
        if r.checkpoint_due(5) {
            r.record_waypoint(5, 99);
        }
        let journal = r.into_journal("test", "sparse", None, 99, 1234);
        let summary = journal.summary();
        assert_eq!(summary.events, 2);
        assert_eq!(summary.radio, 2);
        assert_eq!(summary.waypoints, 1);
        assert_eq!(summary.digest, journal.waypoints[0].digest);
        let json = serde_json::to_string(&journal).unwrap();
        let back: Journal = serde_json::from_str(&json).unwrap();
        assert_eq!(back, journal);
    }
}
