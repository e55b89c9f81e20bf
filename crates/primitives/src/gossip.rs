//! Queue-draining gossip: multi-message flooding on the Decay contract.
//!
//! [`FloodProtocol`](crate::flood::FloodProtocol) carries **one** message
//! through the network; a streaming-traffic workload carries many,
//! concurrently, each entering the network at its own node and time (see
//! `radionet_sim::Injection`). [`GossipProtocol`] is the per-node state
//! machine for that pipeline: every message a node learns — by injection
//! or over the air — stays *hot* for a fixed window of steps, during which
//! the node runs Decay-schedule coin flips and, on success, retransmits
//! one of its hot messages (the step index round-robins over the hot set,
//! so concurrent floods share airtime). Cold messages stay in the known set (for
//! deduplication and the delivery ledger) but generate no further
//! transmissions, so a node's work is proportional to the traffic passing
//! through it, not to the phase length.
//!
//! The protocol honors the sparse kernel's [`Wake`] contract the same
//! way [`FloodProtocol`](crate::flood::FloodProtocol) does: all behavior
//! derives from `ctx.time` and
//! the learned-at times in the known set, never from call counts, so a
//! node whose hints parked it is bit-identical to one polled every step.

use crate::decay::DecaySchedule;
use radionet_sim::{Action, NodeCtx, Protocol, Wake};
use rand::Rng;

/// Per-node queue-draining gossip state (multi-message flood).
///
/// Message identity is a `u64` id; the application layer (the traffic
/// plan) decides what each id means and which nodes count as its intended
/// recipients — the protocol floods every id it learns identically.
#[derive(Clone, Debug)]
pub struct GossipProtocol {
    schedule: DecaySchedule,
    /// Steps a learned message keeps generating transmissions.
    hot_window: u64,
    /// Phase length: the node listens (and is done) at `horizon`.
    horizon: u64,
    /// `(message id, learned-at step)` in learning order; each id once.
    known: Vec<(u64, u64)>,
    /// Latest step this node acted at (time-based done accounting, the
    /// same idiom as the flood/decay protocols).
    last: u64,
}

impl GossipProtocol {
    /// A node relaying each learned message for `hot_iterations` Decay
    /// iterations, inside a phase of `horizon` steps.
    pub fn new(schedule: DecaySchedule, hot_iterations: u32, horizon: u64) -> Self {
        let hot_window =
            u64::from(hot_iterations.max(1)) * u64::from(schedule.steps_per_iteration());
        GossipProtocol { schedule, hot_window, horizon, known: Vec::new(), last: 0 }
    }

    /// Every message this node knows, as `(id, learned_at)` in learning
    /// order — the delivery ledger folds over this.
    pub fn known(&self) -> &[(u64, u64)] {
        &self.known
    }

    /// Whether `id` is already in the known set.
    pub fn knows(&self, id: u64) -> bool {
        self.known.iter().any(|&(k, _)| k == id)
    }

    fn learn(&mut self, id: u64, at: u64) {
        if !self.knows(id) {
            self.known.push((id, at));
        }
    }

    /// The hot entry this node would relay at `now`. When several
    /// messages are hot at once the step index round-robins over them in
    /// learning order — the queue *drains* instead of the newest arrival
    /// shadowing (and starving) everything learned before it. Still a
    /// deterministic function of state and time, identical under every
    /// kernel.
    fn hot_at(&self, now: u64) -> Option<(u64, u64)> {
        let hot: Vec<(u64, u64)> = self
            .known
            .iter()
            .copied()
            .filter(|&(_, at)| now >= at && now - at < self.hot_window)
            .collect();
        if hot.is_empty() {
            return None;
        }
        Some(hot[(now % hot.len() as u64) as usize])
    }
}

impl Protocol for GossipProtocol {
    type Msg = u64;

    fn act(&mut self, ctx: &mut NodeCtx<'_>) -> Action<u64> {
        self.last = ctx.time;
        if ctx.time >= self.horizon {
            return Action::Idle;
        }
        match self.hot_at(ctx.time) {
            // One Decay coin per step while anything is hot; the flip's
            // position in the schedule is the hot message's age, so a
            // fresh message starts loud and decays — the multi-message
            // analogue of one Decay iteration per learning event.
            Some((id, at)) if ctx.rng.gen_bool(self.schedule.prob(ctx.time - at)) => {
                Action::Transmit(id)
            }
            _ => Action::Listen,
        }
    }

    fn on_hear(&mut self, ctx: &mut NodeCtx<'_>, msg: &u64) {
        self.learn(*msg, ctx.time);
    }

    fn on_inject(&mut self, ctx: &mut NodeCtx<'_>, msg: &u64) {
        self.learn(*msg, ctx.time);
    }

    fn is_done(&self) -> bool {
        self.last + 1 >= self.horizon
    }

    fn next_wake(&self, now: u64) -> Wake {
        if now + 1 >= self.horizon {
            return Wake::Retire;
        }
        if self.hot_at(now + 1).is_some() {
            // Still relaying: act (and draw the coin) every step.
            return Wake::Now;
        }
        // Everything cold — and hotness only ever decays, so the promise
        // holds span-wide: passively listen out the phase. Hearing or an
        // injection re-engages the node (both are wake sources), so no
        // wake-up needs scheduling; the done promise lets the engine
        // account completion without ever calling back.
        Wake::Listen { wake_at: Wake::NEVER, done_at: Some(self.horizon - 1) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_sim::NetInfo;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn ctx_at<'a>(t: u64, info: &'a NetInfo, rng: &'a mut SmallRng) -> NodeCtx<'a> {
        NodeCtx { time: t, horizon: Wake::NEVER, info, rng }
    }

    #[test]
    fn learns_once_and_goes_cold() {
        let info = NetInfo { n: 64, d: 8, alpha: 16.0 };
        let mut rng = SmallRng::seed_from_u64(7);
        let schedule = DecaySchedule::new(4);
        let mut g = GossipProtocol::new(schedule, 2, 100);
        assert!(g.hot_at(0).is_none());
        g.on_inject(&mut ctx_at(3, &info, &mut rng), &42);
        g.on_hear(&mut ctx_at(5, &info, &mut rng), &42); // duplicate: ignored
        assert_eq!(g.known(), &[(42, 3)]);
        assert!(g.knows(42));
        assert!(!g.knows(43));
        // Hot for 2 iterations × 4 steps starting at 3, cold after.
        assert_eq!(g.hot_at(3), Some((42, 3)));
        assert_eq!(g.hot_at(10), Some((42, 3)));
        assert!(g.hot_at(11).is_none());
    }

    #[test]
    fn concurrent_hot_messages_round_robin() {
        let info = NetInfo { n: 64, d: 8, alpha: 16.0 };
        let mut rng = SmallRng::seed_from_u64(7);
        let schedule = DecaySchedule::new(4);
        let mut g = GossipProtocol::new(schedule, 4, 100);
        g.on_inject(&mut ctx_at(0, &info, &mut rng), &9);
        g.on_hear(&mut ctx_at(2, &info, &mut rng), &5);
        // Two hot messages: even steps drain the first learned, odd the
        // second — nobody starves.
        assert_eq!(g.hot_at(2).unwrap().0, 9);
        assert_eq!(g.hot_at(3).unwrap().0, 5);
        assert_eq!(g.hot_at(4).unwrap().0, 9);
        // A third joins the rotation.
        g.on_hear(&mut ctx_at(4, &info, &mut rng), &7);
        assert_eq!(g.hot_at(6).unwrap().0, 9);
        assert_eq!(g.hot_at(7).unwrap().0, 5);
        assert_eq!(g.hot_at(8).unwrap().0, 7);
        // Once the first two cool off (learned at 0 and 2, window 16),
        // the last one drains alone.
        assert_eq!(g.hot_at(19).unwrap().0, 7);
    }

    #[test]
    fn wake_contract_shape() {
        let info = NetInfo { n: 64, d: 8, alpha: 16.0 };
        let mut rng = SmallRng::seed_from_u64(7);
        let schedule = DecaySchedule::new(4);
        let mut g = GossipProtocol::new(schedule, 1, 50);
        // Nothing known: passive listener with a phase-end done promise.
        assert_eq!(g.next_wake(0), Wake::Listen { wake_at: Wake::NEVER, done_at: Some(49) });
        // Hot: engaged every step.
        g.on_inject(&mut ctx_at(10, &info, &mut rng), &1);
        assert_eq!(g.next_wake(10), Wake::Now);
        // Cold again: back to the passive promise.
        assert_eq!(g.next_wake(20), Wake::Listen { wake_at: Wake::NEVER, done_at: Some(49) });
        // Last step: retire.
        assert_eq!(g.next_wake(49), Wake::Retire);
        // Done is time-based off the last act.
        assert!(!g.is_done());
        let _ = g.act(&mut ctx_at(49, &info, &mut rng));
        assert!(g.is_done());
    }
}
