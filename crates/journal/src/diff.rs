//! Comparing two journals: stream normalization, first-divergence scan,
//! and waypoint-driven bisection.

use crate::event::{ClassMask, Event, EventClass};
use crate::journal::{Journal, Waypoint};
use std::fmt;

/// The compared streams' first disagreement: where it is and what each
/// side recorded there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Index into the normalized compared streams.
    pub index: usize,
    /// The global step the disagreement happened at (the earlier of the
    /// two sides when they disagree on the step itself).
    pub step: u64,
    /// The left stream's event at the index (`None` = stream ended).
    pub left: Option<Event>,
    /// The right stream's event at the index (`None` = stream ended).
    pub right: Option<Event>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "first divergence at compared index {} (step {}):", self.index, self.step)?;
        match self.left {
            Some(e) => writeln!(f, "  left : {e}")?,
            None => writeln!(f, "  left : <stream ended>")?,
        }
        match self.right {
            Some(e) => write!(f, "  right: {e}"),
            None => write!(f, "  right: <stream ended>"),
        }
    }
}

/// Filters `events` down to `mask` and sorts them by the canonical
/// within-step key, making streams from different kernels (which resolve
/// one step's events in different orders) directly comparable.
pub fn normalized(events: &[Event], mask: ClassMask) -> Vec<Event> {
    let mut kept: Vec<Event> =
        events.iter().copied().filter(|e| mask.contains(e.class())).collect();
    kept.sort_by_key(Event::order_key);
    kept
}

/// Scans two normalized streams for their first disagreement.
pub fn first_divergence(left: &[Event], right: &[Event]) -> Option<Divergence> {
    first_divergence_from(left, right, 0)
}

fn first_divergence_from(left: &[Event], right: &[Event], start: usize) -> Option<Divergence> {
    let len = left.len().max(right.len());
    for index in start..len {
        let l = left.get(index).copied();
        let r = right.get(index).copied();
        if l != r {
            let step = match (l, r) {
                (Some(a), Some(b)) => a.step.min(b.step),
                (Some(a), None) => a.step,
                (None, Some(b)) => b.step,
                (None, None) => unreachable!("index < max(len, len)"),
            };
            return Some(Divergence { index, step, left: l, right: r });
        }
    }
    None
}

/// What [`bisect`] found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BisectReport {
    /// The classes actually compared: the request intersected with both
    /// recordings' masks, minus `Sched` when the kernels differ (the
    /// sparse scheduler's bookkeeping has no dense counterpart).
    pub classes: ClassMask,
    /// Whether the two journals came from different kernels.
    pub cross_kernel: bool,
    /// Waypoint pairs at matching step boundaries that were available to
    /// the binary search (0 when cadences differ or digests are not
    /// comparable because the recordings kept different invariant classes).
    pub waypoints_paired: u64,
    /// The last step boundary whose waypoints (digest and RNG fingerprint)
    /// agree, if any do.
    pub agree_until: Option<u64>,
    /// The first step boundary whose waypoints disagree, if any does.
    pub first_bad_waypoint: Option<u64>,
    /// The first disagreement between the normalized compared streams.
    /// `None` with [`first_bad_waypoint`](BisectReport::first_bad_waypoint)
    /// set means the RNG streams diverged without an observable event
    /// difference in the compared classes.
    pub divergence: Option<Divergence>,
    /// Normalized left-stream length under the compared classes.
    pub left_events: u64,
    /// Normalized right-stream length under the compared classes.
    pub right_events: u64,
}

impl BisectReport {
    /// Whether the two journals disagree on anything compared.
    pub fn is_divergent(&self) -> bool {
        self.divergence.is_some() || self.first_bad_waypoint.is_some()
    }
}

impl fmt::Display for BisectReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "compared classes: {}", self.classes.names().join(","))?;
        if self.cross_kernel {
            writeln!(f, "cross-kernel comparison: sched events dropped")?;
        }
        writeln!(f, "events compared: left {} / right {}", self.left_events, self.right_events)?;
        if self.waypoints_paired > 0 {
            write!(f, "waypoints paired: {}", self.waypoints_paired)?;
            if let Some(step) = self.agree_until {
                write!(f, ", agree through step {step}")?;
            }
            if let Some(step) = self.first_bad_waypoint {
                write!(f, ", first disagreeing at step {step}")?;
            }
            writeln!(f)?;
        }
        match &self.divergence {
            Some(d) => write!(f, "{d}"),
            None if self.first_bad_waypoint.is_some() => write!(
                f,
                "streams agree on the compared classes; RNG fingerprints diverge \
                 (state differs without an observable event difference)"
            ),
            None => write!(f, "journals are identical on the compared classes"),
        }
    }
}

/// Pairs waypoints positionally while their step boundaries match.
fn paired_waypoints<'j>(
    left: &'j Journal,
    right: &'j Journal,
) -> Vec<(&'j Waypoint, &'j Waypoint)> {
    left.waypoints
        .iter()
        .zip(right.waypoints.iter())
        .take_while(|(l, r)| l.step == r.step)
        .collect()
}

/// Binary-searches two journals' waypoints for the first disagreeing step
/// boundary, then scans only the disagreeing segment of the normalized
/// event streams to pinpoint the first divergent event.
///
/// `classes` narrows the comparison; it is intersected with both
/// recordings' masks, and `Sched` is dropped automatically when the
/// journals come from different kernels. Waypoint digests are rolling over
/// the *recorded* kernel-invariant events, so the binary search (and the
/// segment skip) engages only when both recordings kept the same invariant
/// classes; otherwise the scan covers the whole stream — slower, never
/// wrong.
pub fn bisect(left: &Journal, right: &Journal, classes: ClassMask) -> BisectReport {
    let cross_kernel = left.kernel != right.kernel;
    let mut compare = classes.intersect(left.mask).intersect(right.mask);
    if cross_kernel {
        compare = compare.without(EventClass::Sched);
    }

    let digests_comparable =
        left.mask.intersect(ClassMask::INVARIANT) == right.mask.intersect(ClassMask::INVARIANT);
    let pairs = if digests_comparable { paired_waypoints(left, right) } else { Vec::new() };

    // The digest is rolling and the fingerprint is cumulative RNG state, so
    // agreement is prefix-closed: binary search for the first bad pair.
    let (mut lo, mut hi) = (0usize, pairs.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let (l, r) = pairs[mid];
        if l.digest == r.digest && l.rng_fingerprint == r.rng_fingerprint {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let last_good = lo.checked_sub(1).map(|i| pairs[i].0);
    let agree_until = last_good.map(|w| w.step);
    let first_bad_waypoint = pairs.get(lo).map(|(l, _)| l.step);

    let lnorm = normalized(&left.events, compare);
    let rnorm = normalized(&right.events, compare);

    // The waypoint event counter covers exactly the recorded invariant
    // classes; skipping the agreed prefix is sound only when the compared
    // classes are that same set.
    let invariant_compare = compare == left.mask.intersect(ClassMask::INVARIANT)
        && compare == right.mask.intersect(ClassMask::INVARIANT);
    let start = match last_good {
        Some(w) if invariant_compare => (w.events as usize).min(lnorm.len()).min(rnorm.len()),
        _ => 0,
    };

    BisectReport {
        classes: compare,
        cross_kernel,
        waypoints_paired: pairs.len() as u64,
        agree_until,
        first_bad_waypoint,
        divergence: first_divergence_from(&lnorm, &rnorm, start),
        left_events: lnorm.len() as u64,
        right_events: rnorm.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DeliverInfo, EventKind, HintInfo, TransmitInfo};
    use crate::journal::Recorder;

    fn tx(step: u64, node: u32) -> Event {
        Event { step, kind: EventKind::Transmit(TransmitInfo { node }) }
    }

    fn rx(step: u64, node: u32, from: u32) -> Event {
        Event { step, kind: EventKind::Deliver(DeliverInfo { node, from }) }
    }

    fn hint(step: u64, node: u32) -> Event {
        Event {
            step,
            kind: EventKind::Hint(HintInfo {
                node,
                now: true,
                listen: false,
                retire: false,
                wake_at: None,
                done_at: None,
            }),
        }
    }

    fn record(events: &[Event], kernel: &str, every: u64) -> Journal {
        let mut r = Recorder::new(ClassMask::ALL, every);
        let mut boundary = 0;
        for e in events {
            while every != 0 && e.step > boundary {
                boundary += 1;
                if r.checkpoint_due(boundary) {
                    r.record_waypoint(boundary, 0xabc ^ boundary);
                }
            }
            r.record(e.step, e.kind);
        }
        if every != 0 {
            boundary += every;
            if r.checkpoint_due(boundary) {
                r.record_waypoint(boundary, 0xabc ^ boundary);
            }
        }
        r.into_journal("test", kernel, None, 0, 0)
    }

    #[test]
    fn normalization_sorts_within_steps_and_filters() {
        let ring_order = [rx(1, 5, 2), tx(1, 2), hint(1, 2)];
        let index_order = [tx(1, 2), rx(1, 5, 2)];
        let inv = ClassMask::INVARIANT;
        assert_eq!(normalized(&ring_order, inv), normalized(&index_order, inv));
        assert_eq!(normalized(&ring_order, ClassMask::ALL).len(), 3);
    }

    #[test]
    fn first_divergence_pinpoints_the_edit() {
        let base = [tx(0, 1), rx(1, 2, 1), tx(4, 3)];
        let edited = [tx(0, 1), rx(1, 2, 1), tx(4, 7)];
        let d = first_divergence(&base, &edited).unwrap();
        assert_eq!(d.index, 2);
        assert_eq!(d.step, 4);
        assert_eq!(d.left.unwrap().kind.node(), Some(3));
        assert_eq!(d.right.unwrap().kind.node(), Some(7));
        assert!(first_divergence(&base, &base).is_none());
    }

    #[test]
    fn first_divergence_handles_length_mismatch() {
        let long = [tx(0, 1), tx(2, 2)];
        let short = [tx(0, 1)];
        let d = first_divergence(&long, &short).unwrap();
        assert_eq!(d.index, 1);
        assert_eq!(d.step, 2);
        assert!(d.right.is_none());
    }

    #[test]
    fn bisect_finds_the_injected_step_via_waypoints() {
        let mut events: Vec<Event> = (0..200).map(|s| tx(s, (s % 7) as u32)).collect();
        let clean = record(&events, "sparse", 16);
        events[137] = tx(137, 99);
        let dirty = record(&events, "sparse", 16);
        let report = bisect(&clean, &dirty, ClassMask::ALL);
        assert!(report.is_divergent());
        assert_eq!(report.agree_until, Some(128));
        assert_eq!(report.first_bad_waypoint, Some(144));
        let d = report.divergence.unwrap();
        assert_eq!(d.step, 137);
        assert_eq!(d.left.unwrap().kind.node(), Some((137 % 7) as u32));
        assert_eq!(d.right.unwrap().kind.node(), Some(99));
    }

    #[test]
    fn bisect_reports_identical_journals() {
        let events: Vec<Event> = (0..50).map(|s| tx(s, 1)).collect();
        let a = record(&events, "sparse", 10);
        let b = record(&events, "sparse", 10);
        let report = bisect(&a, &b, ClassMask::ALL);
        assert!(!report.is_divergent());
        assert!(report.agree_until.is_some());
        assert!(report.first_bad_waypoint.is_none());
    }

    #[test]
    fn cross_kernel_bisect_drops_sched_and_within_step_order() {
        let sparse_order = [tx(0, 1), hint(0, 1), rx(1, 3, 1), rx(1, 2, 1)];
        let dense_order = [tx(0, 1), rx(1, 2, 1), rx(1, 3, 1)];
        let a = record(&sparse_order, "sparse", 0);
        let b = record(&dense_order, "dense", 0);
        let report = bisect(&a, &b, ClassMask::ALL);
        assert!(report.cross_kernel);
        assert!(!report.classes.contains(EventClass::Sched));
        assert!(report.divergence.is_none());
        assert_eq!(report.left_events, report.right_events);
    }
}
