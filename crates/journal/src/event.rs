//! The event vocabulary: what the engine can record, one compact kind per
//! observable occurrence, grouped into [`EventClass`]es for filtering and
//! cross-kernel comparison.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The four event classes a [`ClassMask`] filters on.
///
/// The split matters for cross-configuration comparison: `Radio`,
/// `Topology`, and `Phase` events are *kernel-invariant* — the sparse and
/// dense kernels produce the same per-step multiset of them for
/// contract-honoring protocols — while `Sched` events describe the sparse
/// kernel's own bookkeeping (wake hints, spatial-index rebuilds) and exist
/// only where that machinery runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventClass {
    /// Transmissions, deliveries, collisions.
    Radio,
    /// Node status flips from the topology change feed.
    Topology,
    /// Phase boundaries.
    Phase,
    /// Sparse-kernel scheduling: wake hints, SINR grid rebuilds.
    Sched,
}

impl EventClass {
    /// Every class, in bit order.
    pub const ALL: [EventClass; 4] =
        [EventClass::Radio, EventClass::Topology, EventClass::Phase, EventClass::Sched];

    /// Short stable name for flags and summaries.
    pub fn name(self) -> &'static str {
        match self {
            EventClass::Radio => "radio",
            EventClass::Topology => "topology",
            EventClass::Phase => "phase",
            EventClass::Sched => "sched",
        }
    }

    fn bit(self) -> u8 {
        match self {
            EventClass::Radio => 1,
            EventClass::Topology => 2,
            EventClass::Phase => 4,
            EventClass::Sched => 8,
        }
    }
}

/// A set of [`EventClass`]es, as a bitmask.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassMask {
    /// The raw bits (see [`EventClass`] order).
    pub bits: u8,
}

impl Default for ClassMask {
    fn default() -> Self {
        ClassMask::ALL
    }
}

impl ClassMask {
    /// Every class.
    pub const ALL: ClassMask = ClassMask { bits: 0b1111 };
    /// No class (records nothing; useful for measuring recorder overhead).
    pub const NONE: ClassMask = ClassMask { bits: 0 };
    /// The kernel-invariant classes: radio + topology + phase. This is the
    /// set two journals from *different* kernels can be compared on, and
    /// the set waypoint digests cover.
    pub const INVARIANT: ClassMask = ClassMask { bits: 0b0111 };

    /// Whether `class` is in the mask.
    pub fn contains(self, class: EventClass) -> bool {
        self.bits & class.bit() != 0
    }

    /// The mask plus `class`.
    pub fn with(self, class: EventClass) -> ClassMask {
        ClassMask { bits: self.bits | class.bit() }
    }

    /// The mask minus `class`.
    pub fn without(self, class: EventClass) -> ClassMask {
        ClassMask { bits: self.bits & !class.bit() }
    }

    /// Set intersection.
    pub fn intersect(self, other: ClassMask) -> ClassMask {
        ClassMask { bits: self.bits & other.bits }
    }

    /// Whether no class is set.
    pub fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// The contained class names, in bit order.
    pub fn names(self) -> Vec<&'static str> {
        EventClass::ALL.iter().filter(|c| self.contains(**c)).map(|c| c.name()).collect()
    }

    /// Parses a comma-separated class list (`"radio,phase"`); empty input
    /// or `"all"` means [`ClassMask::ALL`], `"none"` means
    /// [`ClassMask::NONE`].
    ///
    /// # Errors
    ///
    /// Returns the unknown token verbatim.
    pub fn parse(list: &str) -> Result<ClassMask, String> {
        let trimmed = list.trim();
        if trimmed.is_empty() || trimmed == "all" {
            return Ok(ClassMask::ALL);
        }
        if trimmed == "none" {
            return Ok(ClassMask::NONE);
        }
        let mut mask = ClassMask::NONE;
        for token in trimmed.split(',') {
            let token = token.trim();
            match EventClass::ALL.iter().find(|c| c.name() == token) {
                Some(c) => mask = mask.with(*c),
                None => return Err(format!("unknown event class `{token}`")),
            }
        }
        Ok(mask)
    }
}

/// Payload of [`EventKind::Transmit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransmitInfo {
    /// The transmitting node.
    pub node: u32,
}

/// Payload of [`EventKind::Deliver`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeliverInfo {
    /// The listener that decoded a message.
    pub node: u32,
    /// The transmitter it decoded.
    pub from: u32,
}

/// Payload of [`EventKind::Collision`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollisionInfo {
    /// The listener that lost a decodable signal (≥ 2 transmitting
    /// neighbors, interference, or jamming noise).
    pub node: u32,
}

/// Payload of [`EventKind::Status`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatusInfo {
    /// The node whose activity flipped.
    pub node: u32,
    /// Its new state: `true` = (re)joined, `false` = crashed/asleep.
    pub active: bool,
}

/// Payload of [`EventKind::PhaseStart`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseInfo {
    /// Zero-based phase index within the run.
    pub phase: u64,
}

/// Payload of [`EventKind::PhaseEnd`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseEndInfo {
    /// Zero-based phase index within the run.
    pub phase: u64,
    /// Steps the phase consumed.
    pub steps: u64,
    /// Transmissions within the phase.
    pub transmissions: u64,
    /// Deliveries within the phase.
    pub deliveries: u64,
    /// Collisions within the phase.
    pub collisions: u64,
    /// Whether the phase completed before its budget.
    pub completed: bool,
}

/// Payload of [`EventKind::Hint`]: a `Wake` hint as the sparse scheduler
/// received it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HintInfo {
    /// The node the hint describes.
    pub node: u32,
    /// `Wake::Now` — act again next step.
    pub now: bool,
    /// Whether the node keeps listening while parked.
    pub listen: bool,
    /// `Wake::Retire` — done, permanently out.
    pub retire: bool,
    /// Scheduled wake time (phase-local), if any.
    pub wake_at: Option<u64>,
    /// Promised done time (phase-local), if any.
    pub done_at: Option<u64>,
}

/// Payload of [`EventKind::GridRebuild`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GridInfo {
    /// The position version the decode-range index was rebuilt for.
    pub version: u64,
}

/// One recordable occurrence (the payload structs keep the offline serde
/// derive's one-field-tuple-variant shape).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A node transmitted.
    Transmit(TransmitInfo),
    /// A listener decoded a message.
    Deliver(DeliverInfo),
    /// A listener lost a decodable signal.
    Collision(CollisionInfo),
    /// A node's activity flipped (topology change feed).
    Status(StatusInfo),
    /// A phase began.
    PhaseStart(PhaseInfo),
    /// A phase ended.
    PhaseEnd(PhaseEndInfo),
    /// The sparse scheduler took a wake hint.
    Hint(HintInfo),
    /// The SINR decode-range index was (re)built.
    GridRebuild(GridInfo),
}

impl EventKind {
    /// The class the kind belongs to.
    pub fn class(&self) -> EventClass {
        match self {
            EventKind::Transmit(_) | EventKind::Deliver(_) | EventKind::Collision(_) => {
                EventClass::Radio
            }
            EventKind::Status(_) => EventClass::Topology,
            EventKind::PhaseStart(_) | EventKind::PhaseEnd(_) => EventClass::Phase,
            EventKind::Hint(_) | EventKind::GridRebuild(_) => EventClass::Sched,
        }
    }

    /// Short stable name for diffs and tables.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Transmit(_) => "transmit",
            EventKind::Deliver(_) => "deliver",
            EventKind::Collision(_) => "collision",
            EventKind::Status(_) => "status",
            EventKind::PhaseStart(_) => "phase-start",
            EventKind::PhaseEnd(_) => "phase-end",
            EventKind::Hint(_) => "hint",
            EventKind::GridRebuild(_) => "grid-rebuild",
        }
    }

    /// The node the event concerns, if it concerns one.
    pub fn node(&self) -> Option<u32> {
        match self {
            EventKind::Transmit(i) => Some(i.node),
            EventKind::Deliver(i) => Some(i.node),
            EventKind::Collision(i) => Some(i.node),
            EventKind::Status(i) => Some(i.node),
            EventKind::Hint(i) => Some(i.node),
            EventKind::PhaseStart(_) | EventKind::PhaseEnd(_) | EventKind::GridRebuild(_) => None,
        }
    }

    /// The kind's digest tag. Tag 6 is retired and never reused, so the
    /// digests of recorded journals stay valid.
    fn tag(&self) -> u8 {
        match self {
            EventKind::Transmit(_) => 0,
            EventKind::Deliver(_) => 1,
            EventKind::Collision(_) => 2,
            EventKind::Status(_) => 3,
            EventKind::PhaseStart(_) => 4,
            EventKind::PhaseEnd(_) => 5,
            EventKind::Hint(_) => 7,
            EventKind::GridRebuild(_) => 8,
        }
    }

    /// The payload flattened to words, for hashing and ordering.
    fn words(&self) -> [u64; 3] {
        const NONE: u64 = u64::MAX;
        match *self {
            EventKind::Transmit(i) => [i.node as u64, 0, 0],
            EventKind::Deliver(i) => [i.node as u64, i.from as u64, 0],
            EventKind::Collision(i) => [i.node as u64, 0, 0],
            EventKind::Status(i) => [i.node as u64, u64::from(i.active), 0],
            EventKind::PhaseStart(i) => [i.phase, 0, 0],
            EventKind::PhaseEnd(i) => [
                i.phase,
                i.steps ^ i.transmissions.rotate_left(16) ^ i.deliveries.rotate_left(32),
                i.collisions ^ (u64::from(i.completed) << 63),
            ],
            EventKind::Hint(i) => [
                i.node as u64,
                (u64::from(i.now) << 2) | (u64::from(i.listen) << 1) | u64::from(i.retire),
                i.wake_at.unwrap_or(NONE) ^ i.done_at.unwrap_or(NONE).rotate_left(32),
            ],
            EventKind::GridRebuild(i) => [i.version, 0, 0],
        }
    }
}

/// One journal entry: a global step (the engine clock at which the
/// occurrence happened) and what occurred.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// Global engine step (simulated + charged clock).
    pub step: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// The event's class.
    pub fn class(&self) -> EventClass {
        self.kind.class()
    }

    /// A canonical within-step ordering key. Two kernels may resolve the
    /// same step's events in different orders (index order vs ring order);
    /// sorting each step's events by this key makes their streams directly
    /// comparable (see [`normalized`](crate::normalized)).
    pub fn order_key(&self) -> (u64, u8, [u64; 3]) {
        (self.step, self.kind.tag(), self.kind.words())
    }

    /// A stable 64-bit digest of the event (FNV-1a over its words), the
    /// unit the rolling waypoint digests accumulate.
    pub fn hash64(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |w: u64| {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.step);
        eat(self.kind.tag() as u64);
        for w in self.kind.words() {
            eat(w);
        }
        h
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step {:>6}  {:<12}", self.step, self.kind.name())?;
        match self.kind {
            EventKind::Transmit(i) => write!(f, "node {}", i.node),
            EventKind::Deliver(i) => write!(f, "node {} from {}", i.node, i.from),
            EventKind::Collision(i) => write!(f, "node {}", i.node),
            EventKind::Status(i) => {
                write!(f, "node {} -> {}", i.node, if i.active { "active" } else { "inactive" })
            }
            EventKind::PhaseStart(i) => write!(f, "phase {}", i.phase),
            EventKind::PhaseEnd(i) => write!(
                f,
                "phase {} steps {} tx {} rx {} coll {} completed {}",
                i.phase, i.steps, i.transmissions, i.deliveries, i.collisions, i.completed
            ),
            EventKind::Hint(i) => {
                write!(f, "node {}", i.node)?;
                if i.now {
                    write!(f, " now")?;
                }
                if i.retire {
                    write!(f, " retire")?;
                }
                if i.listen {
                    write!(f, " listen")?;
                }
                if let Some(w) = i.wake_at {
                    write!(f, " wake@{w}")?;
                }
                if let Some(d) = i.done_at {
                    write!(f, " done@{d}")?;
                }
                Ok(())
            }
            EventKind::GridRebuild(i) => write!(f, "position version {}", i.version),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_filter_and_parse() {
        assert!(ClassMask::ALL.contains(EventClass::Sched));
        assert!(!ClassMask::INVARIANT.contains(EventClass::Sched));
        assert!(ClassMask::INVARIANT.contains(EventClass::Radio));
        assert_eq!(ClassMask::parse("radio, phase").unwrap().names(), vec!["radio", "phase"]);
        assert_eq!(ClassMask::parse("").unwrap(), ClassMask::ALL);
        assert!(ClassMask::parse("bogus").is_err());
        assert_eq!(ClassMask::ALL.without(EventClass::Sched), ClassMask::INVARIANT);
        assert_eq!(ClassMask::ALL.intersect(ClassMask::NONE), ClassMask::NONE);
    }

    #[test]
    fn kinds_know_their_class_and_node() {
        let tx = EventKind::Transmit(TransmitInfo { node: 3 });
        assert_eq!(tx.class(), EventClass::Radio);
        assert_eq!(tx.node(), Some(3));
        let ph = EventKind::PhaseStart(PhaseInfo { phase: 1 });
        assert_eq!(ph.class(), EventClass::Phase);
        assert_eq!(ph.node(), None);
        let hint = EventKind::Hint(HintInfo {
            node: 2,
            now: true,
            listen: false,
            retire: false,
            wake_at: None,
            done_at: None,
        });
        assert_eq!(hint.class(), EventClass::Sched);
    }

    #[test]
    fn hashes_separate_nearby_events() {
        let a = Event { step: 5, kind: EventKind::Transmit(TransmitInfo { node: 1 }) };
        let b = Event { step: 5, kind: EventKind::Transmit(TransmitInfo { node: 2 }) };
        let c = Event { step: 6, kind: EventKind::Transmit(TransmitInfo { node: 1 }) };
        assert_ne!(a.hash64(), b.hash64());
        assert_ne!(a.hash64(), c.hash64());
        assert_eq!(a.hash64(), a.hash64());
    }

    #[test]
    fn events_serde_round_trip() {
        let events = vec![
            Event { step: 0, kind: EventKind::PhaseStart(PhaseInfo { phase: 0 }) },
            Event { step: 2, kind: EventKind::Deliver(DeliverInfo { node: 4, from: 0 }) },
            Event { step: 3, kind: EventKind::Status(StatusInfo { node: 7, active: false }) },
            Event {
                step: 3,
                kind: EventKind::Hint(HintInfo {
                    node: 1,
                    now: false,
                    listen: true,
                    retire: false,
                    wake_at: Some(9),
                    done_at: None,
                }),
            },
        ];
        let json = serde_json::to_string(&events).unwrap();
        let back: Vec<Event> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, events);
    }
}
