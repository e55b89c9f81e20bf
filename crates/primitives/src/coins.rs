//! Draw-ahead coin windows: a node that flips a transmit coin at every step
//! draws the coins of its coming steps at once and listens until the next
//! heads.
//!
//! In Decay (Algorithm 5) and EstimateEffectiveDegree (Algorithm 6) every
//! participant flips a coin at every step, and most coins come up tails, so
//! a node run step by step acts at every step only to listen. A
//! [`CoinWindow`] draws, at a step where the node acts anyway, the coins of
//! the following steps from the node's own stream — the same `gen_bool`
//! calls in the same order as the step-by-step loop — and stops at the
//! first heads, at the end of the segment or at the context's
//! [`horizon`](NodeCtx::horizon). The node then listens until
//! [`CoinWindow::end`] (a [`Wake::Listen`](radionet_sim::Wake) hint): every
//! coin, transmission and final RNG state is the step-by-step loop's, and
//! the sparse kernel skips the listen steps.
//!
//! The owner keeps the rules of [`NodeCtx::horizon`]: it calls
//! [`draw`](CoinWindow::draw) only at a step the window does not
//! [cover](CoinWindow::covers) (a fresh step or the drawn heads), counts
//! positions by acted steps, and draws ahead only while it is not done.

use radionet_sim::NodeCtx;
use rand::Rng;

/// The coins a node has drawn ahead of the clock (see the module docs).
///
/// ```
/// use radionet_primitives::CoinWindow;
/// use radionet_sim::{NetInfo, NodeCtx, Wake};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let info = NetInfo { n: 16, d: 4, alpha: 8.0 };
/// let mut rng = SmallRng::seed_from_u64(3);
/// let mut coins = CoinWindow::default();
/// let mut sent = Vec::new();
/// for t in 0..64 {
///     if coins.covers(t) {
///         continue; // a tails drawn earlier: listen, draw nothing
///     }
///     let ctx = &mut NodeCtx { time: t, horizon: Wake::NEVER, info: &info, rng: &mut rng };
///     if coins.draw(ctx, 64, |_| 0.25) {
///         sent.push(t);
///     }
///     assert!(coins.end() > t);
/// }
/// assert!(!sent.is_empty());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoinWindow {
    /// The drawn heads, or the first step whose coin is not drawn yet.
    end: u64,
    /// Whether `end`'s coin was drawn and came up heads.
    heads: bool,
}

impl CoinWindow {
    /// The step at which the node acts next: its drawn heads, or the first
    /// step whose coin is not drawn yet.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Whether the coin of step `t` was drawn and came up tails: the node
    /// listens at `t` and draws nothing.
    pub fn covers(&self, t: u64) -> bool {
        t < self.end
    }

    /// At step `ctx.time`, which the window does not cover: flips that
    /// step's coin (or takes the heads drawn for it), then draws the coins
    /// of the following steps, `prob(u)` for step `u`, up to the first
    /// heads, or up to `end` or the horizon, whichever comes first. Returns
    /// whether the node transmits at `ctx.time`.
    ///
    /// # Panics
    ///
    /// In debug builds, if the window covers `ctx.time`, or if `ctx.time`
    /// is not before `end` and the horizon.
    pub fn draw(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        end: u64,
        mut prob: impl FnMut(u64) -> f64,
    ) -> bool {
        let t = ctx.time;
        let stop = end.min(ctx.horizon);
        debug_assert!(!self.covers(t) && t < stop, "no coin to draw at step {t} ({self:?})");
        let heads = (self.heads && self.end == t) || ctx.rng.gen_bool(prob(t));
        let mut u = t + 1;
        while u < stop && !ctx.rng.gen_bool(prob(u)) {
            u += 1;
        }
        *self = CoinWindow { end: u, heads: u < stop };
        heads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_sim::{NetInfo, Wake};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const INFO: NetInfo = NetInfo { n: 64, d: 8, alpha: 16.0 };

    /// A Decay-like schedule with a certain and an impossible coin in it.
    fn prob(u: u64) -> f64 {
        [0.5, 0.25, 1.0, 0.125, 0.0, 0.03125][(u % 6) as usize]
    }

    /// Runs steps `from..until` of a segment ending at `end` with a view
    /// event at every step in `events`, once step by step and once through
    /// a window, and checks that both transmit at the same steps and that
    /// the window's stream equals the step-by-step stream at each step it
    /// acts at. The window must never draw at or past `end` or a horizon.
    fn check(seed: u64, from: u64, until: u64, end: u64, events: &[u64]) -> u64 {
        let horizon = |t: u64| events.iter().copied().find(|&e| e > t).unwrap_or(Wake::NEVER);
        let (mut step_rng, mut rng) =
            (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
        let mut coins = CoinWindow::default();
        let mut acts = 0;
        for t in from..until.min(end) {
            // The step-by-step stream before step t's coin, and its coin.
            let before = step_rng.clone();
            let heads = step_rng.gen_bool(prob(t));
            if coins.covers(t) {
                assert!(!heads, "seed {seed}: a covered step {t} came up heads");
                continue;
            }
            // A fresh step has drawn exactly the coins before it; the drawn
            // heads has drawn its own coin too.
            let drawn = if coins.end() == t && coins.heads { step_rng.clone() } else { before };
            assert_eq!(rng, drawn, "seed {seed}: stream differs at window end {t}");
            let h = horizon(t);
            let limit = end.min(h);
            let ctx = &mut NodeCtx { time: t, horizon: h, info: &INFO, rng: &mut rng };
            let sent = coins.draw(ctx, end, |u| {
                assert!(u < limit, "seed {seed}: drew step {u} at step {t}, stop {limit}");
                prob(u)
            });
            assert_eq!(sent, heads, "seed {seed}: step {t}");
            assert!(coins.end() > t && coins.end() <= limit, "{coins:?} at {t}, stop {limit}");
            acts += 1;
        }
        acts
    }

    #[test]
    fn windows_replay_the_step_by_step_coins() {
        let (mut acts, mut steps) = (0, 0);
        for seed in 0..200 {
            let events: Vec<u64> = (0..seed % 4).map(|k| 7 + 13 * k + seed % 5).collect();
            let (from, end) = (seed % 3, 40 + seed % 50);
            acts += check(seed, from, 120, end, &events);
            steps += end - from;
        }
        // Windows skip most steps: the node acts at about a third of them.
        assert!(acts > 0 && 2 * acts < steps, "{acts} acts in {steps} steps");
    }

    #[test]
    fn a_window_stops_at_the_horizon_and_the_segment_end() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut coins = CoinWindow::default();
        let ctx = &mut NodeCtx { time: 4, horizon: 9, info: &INFO, rng: &mut rng };
        assert!(!coins.draw(ctx, 100, |_| 0.0));
        assert_eq!((coins.end(), coins.covers(8), coins.covers(9)), (9, true, false));
        let ctx = &mut NodeCtx { time: 9, horizon: Wake::NEVER, info: &INFO, rng: &mut rng };
        assert!(!coins.draw(ctx, 12, |_| 0.0));
        assert_eq!(coins.end(), 12);
        // A certain coin ends the window at the next step with heads.
        let ctx = &mut NodeCtx { time: 12, horizon: Wake::NEVER, info: &INFO, rng: &mut rng };
        assert!(coins.draw(ctx, 20, |_| 1.0));
        assert_eq!(coins, CoinWindow { end: 13, heads: true });
        let ctx = &mut NodeCtx { time: 13, horizon: 14, info: &INFO, rng: &mut rng };
        assert!(coins.draw(ctx, 20, |_| 0.0), "the drawn heads transmits");
        assert_eq!(coins, CoinWindow { end: 14, heads: false });
    }
}
