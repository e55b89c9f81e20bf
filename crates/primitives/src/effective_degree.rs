//! EstimateEffectiveDegree (paper, Algorithm 6).
//!
//! Every active node `v` holds a desire level `p_t(v)`; its *effective
//! degree* is `d_t(v) = Σ_{u∈N(v)} p_t(u)`. The procedure runs `log n + 1`
//! blocks; in block `i` every node transmits with probability `p_t(v)/2^i`
//! for `C log n` steps and counts the transmissions it hears. If any block's
//! count reaches the threshold, the verdict is **High**, otherwise **Low**.
//!
//! Lemma 11 guarantees (whp): `d_t(v) ≥ 1 ⇒ High` and `d_t(v) ≤ 0.01 ⇒
//! Low`; in between, either answer is allowed. The paper's constants
//! (`C log n / 33`) are asymptotic; [`EedConfig`] keeps the same functional
//! form with defaults calibrated by experiment E12: the per-step hearing probability in the best block is in practice
//! `≈ d·e^{-d} = Ω(1)` for `d ≥ 1` versus `≤ 2·0.01` for `d ≤ 0.01`, so a
//! threshold fraction between those separates reliably.

use crate::CoinWindow;
use radionet_sim::{Action, NodeCtx, Protocol, Wake};
use serde::{Deserialize, Serialize};

/// The two possible answers of EstimateEffectiveDegree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EedVerdict {
    /// Effective degree is above the low threshold (whp if `d ≥ 1`).
    High,
    /// Effective degree is below the high threshold (whp if `d ≤ 0.01`).
    Low,
}

/// Configuration of the procedure (paper's `C` and the count threshold).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EedConfig {
    /// Steps per block = `c_steps · log n` (the paper's `C log n`).
    pub c_steps: u32,
    /// Verdict is High iff some block's heard-count `≥ threshold_frac ·
    /// c_steps · log n` (the paper uses `1/33`; we default to `1/12`, between
    /// the Low ceiling `0.02` and the practical High floor `≈ e^{-1}`).
    pub threshold_frac: f64,
}

impl Default for EedConfig {
    fn default() -> Self {
        EedConfig { c_steps: 8, threshold_frac: 1.0 / 12.0 }
    }
}

impl EedConfig {
    /// Steps in one block for a network with the given `log n`.
    pub fn block_steps(&self, log_n: u32) -> u64 {
        (self.c_steps * log_n.max(1)) as u64
    }

    /// Number of blocks: `log n + 1` (block indices `i = 0..=log n`).
    pub fn blocks(&self, log_n: u32) -> u64 {
        log_n.max(1) as u64 + 1
    }

    /// Total steps of one EstimateEffectiveDegree execution.
    pub fn total_steps(&self, log_n: u32) -> u64 {
        self.blocks(log_n) * self.block_steps(log_n)
    }

    /// The per-block High threshold (in heard transmissions).
    pub fn threshold(&self, log_n: u32) -> u64 {
        (self.threshold_frac * self.block_steps(log_n) as f64).ceil().max(1.0) as u64
    }
}

/// Reusable counting core of EstimateEffectiveDegree, embeddable inside
/// larger protocols (RadioMIS drives one of these per round).
///
/// The counter tracks the node's **position**: the number of EED steps it
/// has acted since the execution started ([`restart`](EedCounter::restart)).
/// A node that the topology takes down misses the steps it is down for, so
/// positions count acted steps, not the clock. The owner reports each step
/// it acts at with [`act`](EedCounter::act), together with the window of
/// following steps it keeps acting at without being called (see
/// [`CoinWindow`]); [`position`](EedCounter::position) then answers for
/// every step up to the window's end. A hearing counts in the block of the
/// step it falls in ([`hear`](EedCounter::hear)), and
/// [`verdict`](EedCounter::verdict) is available once every position was
/// acted.
#[derive(Clone, Copy, Debug)]
pub struct EedCounter {
    /// Per-block High threshold ([`EedConfig::threshold`]).
    threshold: u64,
    /// Steps per block ([`EedConfig::block_steps`]).
    block_steps: u64,
    /// Number of blocks ([`EedConfig::blocks`]).
    blocks: u64,
    /// EED steps acted before `from`.
    acted: u64,
    /// The latest step the node acted at; it acts at every step of
    /// `[from, until)`.
    from: u64,
    until: u64,
    /// The block of the latest counted hearing.
    block: u64,
    /// Hearings counted in `block`.
    count: u64,
    /// Whether any block reached the threshold.
    high: bool,
}

impl EedCounter {
    /// Starts a fresh execution.
    pub fn new(config: EedConfig, log_n: u32) -> Self {
        EedCounter {
            threshold: config.threshold(log_n),
            block_steps: config.block_steps(log_n),
            blocks: config.blocks(log_n),
            acted: 0,
            from: 0,
            until: 0,
            block: 0,
            count: 0,
            high: false,
        }
    }

    /// Rewinds to the start of a fresh execution with the same constants.
    pub fn restart(&mut self) {
        *self =
            EedCounter { acted: 0, from: 0, until: 0, block: 0, count: 0, high: false, ..*self };
    }

    /// Positions in one execution: `blocks × block_steps`.
    pub fn steps(&self) -> u64 {
        self.blocks * self.block_steps
    }

    /// The position of step `t` (no earlier than the latest
    /// [`act`](EedCounter::act)): the EED steps acted before it, counting
    /// every step of the latest act's window.
    pub fn position(&self, t: u64) -> u64 {
        self.acted + t.min(self.until) - self.from
    }

    /// Records that the node acts at step `t` and at every step before
    /// `until` (at least `t + 1`).
    pub fn act(&mut self, t: u64, until: u64) {
        self.acted = self.position(t);
        self.from = t;
        self.until = until.max(t + 1);
    }

    /// At step `ctx.time`, which `coins` does not cover: draws the owner's
    /// coins at desire level `p` ahead through `coins` (up to `end`, the
    /// horizon or the last position) and records the acted steps. Returns
    /// whether the owner transmits, or `None` once every position was
    /// acted.
    pub fn draw(
        &mut self,
        coins: &mut CoinWindow,
        ctx: &mut NodeCtx<'_>,
        p: f64,
        end: u64,
    ) -> Option<bool> {
        let t = ctx.time;
        let position = self.position(t);
        let left = self.steps().checked_sub(position).filter(|&left| left > 0)?;
        let counter = *self;
        let sent =
            coins.draw(ctx, end.min(t + left), |u| counter.transmit_prob(p, position + u - t));
        self.act(t, coins.end());
        Some(sent)
    }

    /// Probability with which the owner transmits at position `position`
    /// (before [`steps`](EedCounter::steps)): `p / 2^i` where `i` is the
    /// position's block.
    pub fn transmit_prob(&self, p: f64, position: u64) -> f64 {
        (p * 2f64.powi(-((position / self.block_steps) as i32))).clamp(0.0, 1.0)
    }

    /// Counts a transmission heard at step `t`, in the block of `t`'s
    /// position; a hearing past the last position is ignored.
    pub fn hear(&mut self, t: u64) {
        let position = self.position(t);
        if position >= self.steps() {
            return;
        }
        let block = position / self.block_steps;
        if block != self.block {
            self.block = block;
            self.count = 0;
        }
        self.count += 1;
        self.high |= self.count >= self.threshold;
    }

    /// The verdict as of step `t`; `None` until every position before `t`
    /// was acted.
    pub fn verdict(&self, t: u64) -> Option<EedVerdict> {
        (self.position(t) >= self.steps()).then_some(if self.high {
            EedVerdict::High
        } else {
            EedVerdict::Low
        })
    }
}

/// Standalone EstimateEffectiveDegree as a [`Protocol`], for direct
/// validation of Lemma 11 (experiment E2). Each node is given its fixed
/// desire level `p`; after `total_steps` the verdict is available.
///
/// A node draws its coins ahead ([`CoinWindow`]) and listens until its next
/// transmission; the step that reaches its last position retires it.
#[derive(Clone, Debug)]
pub struct EedProtocol {
    counter: EedCounter,
    coins: CoinWindow,
    p: f64,
    /// The step at which the counter reached its last position.
    finished_at: Option<u64>,
}

impl EedProtocol {
    /// A node with desire level `p ∈ [0, 1/2]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `\[0, 1\]`.
    pub fn new(config: EedConfig, log_n: u32, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "desire level must be in [0, 1]");
        EedProtocol {
            counter: EedCounter::new(config, log_n),
            coins: CoinWindow::default(),
            p,
            finished_at: None,
        }
    }

    /// The verdict; `None` until the protocol finished.
    pub fn verdict(&self) -> Option<EedVerdict> {
        self.finished_at.and_then(|t| self.counter.verdict(t))
    }
}

impl Protocol for EedProtocol {
    type Msg = ();

    fn act(&mut self, ctx: &mut NodeCtx<'_>) -> Action<()> {
        let t = ctx.time;
        if self.finished_at.is_some() {
            return Action::Idle;
        }
        if self.coins.covers(t) {
            return Action::Listen;
        }
        match self.counter.draw(&mut self.coins, ctx, self.p, Wake::NEVER) {
            Some(true) => Action::Transmit(()),
            Some(false) => Action::Listen,
            None => {
                self.finished_at = Some(t);
                Action::Idle
            }
        }
    }

    fn on_hear(&mut self, ctx: &mut NodeCtx<'_>, _msg: &()) {
        self.counter.hear(ctx.time);
    }

    fn is_done(&self) -> bool {
        self.finished_at.is_some()
    }

    fn next_wake(&self, now: u64) -> Wake {
        // Listen through the drawn tails; the step that reaches the last
        // position only turns the node off.
        if self.finished_at.is_some() {
            Wake::Retire
        } else if self.coins.covers(now + 1) {
            Wake::listen_until(self.coins.end())
        } else {
            Wake::Now
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_graph::generators;
    use radionet_graph::Graph;
    use radionet_sim::{NetInfo, Sim};

    /// Runs standalone EED on `g` with per-node desire levels; returns verdicts.
    fn run_eed(g: &Graph, ps: &[f64], seed: u64) -> Vec<EedVerdict> {
        let info = NetInfo::exact(g);
        let config = EedConfig::default();
        let log_n = info.log_n();
        let mut sim = Sim::new(g, info, seed);
        let mut states: Vec<EedProtocol> =
            ps.iter().map(|&p| EedProtocol::new(config, log_n, p)).collect();
        // One extra step: the step after the last position retires a node.
        let rep = sim.run_phase(&mut states, config.total_steps(log_n) + 2);
        assert!(rep.completed);
        states.iter().map(|s| s.verdict().expect("finished")).collect()
    }

    #[test]
    fn config_arithmetic() {
        let c = EedConfig { c_steps: 8, threshold_frac: 0.1 };
        assert_eq!(c.block_steps(10), 80);
        assert_eq!(c.blocks(10), 11);
        assert_eq!(c.total_steps(10), 880);
        assert_eq!(c.threshold(10), 8);
    }

    #[test]
    fn counter_lifecycle() {
        let c = EedConfig { c_steps: 1, threshold_frac: 1.0 };
        let mut k = EedCounter::new(c, 2); // 3 blocks × 2 steps
        assert_eq!((k.steps(), k.position(0), k.transmit_prob(0.5, 0)), (6, 0, 0.5));
        // Acting at step 0 with a window to step 2: steps 0 and 1 are acted.
        k.act(0, 2);
        assert_eq!((k.position(1), k.position(2), k.position(9)), (1, 2, 2));
        assert_eq!(k.transmit_prob(0.5, k.position(2)), 0.25); // block 1
                                                               // Down for steps 2..5: acting again at 5, the node is at position 2.
        k.act(5, 9);
        assert_eq!((k.position(5), k.position(8), k.position(9)), (2, 5, 6));
        assert_eq!((k.verdict(8), k.verdict(9)), (None, Some(EedVerdict::Low)));
        // A restart rewinds the state and keeps the 3 × 2 shape.
        k.restart();
        assert_eq!((k.position(20), k.verdict(20), k.steps()), (0, None, 6));
    }

    #[test]
    fn counter_ignores_hearings_past_its_last_position() {
        let c = EedConfig { c_steps: 1, threshold_frac: 1.0 }; // threshold 1
        let mut k = EedCounter::new(c, 1); // 2 blocks × 1 step
        k.act(0, 10);
        k.hear(5);
        assert_eq!(k.verdict(2), Some(EedVerdict::Low));
    }

    #[test]
    fn counter_high_on_threshold() {
        let c = EedConfig { c_steps: 4, threshold_frac: 0.5 }; // threshold = 2 per 4-step block
        let mut k = EedCounter::new(c, 1);
        k.act(0, 8);
        k.hear(0);
        k.hear(3);
        assert_eq!(k.verdict(8), Some(EedVerdict::High));
        // Two hearings in different blocks do not add up.
        k.restart();
        k.act(0, 8);
        k.hear(3);
        k.hear(4);
        assert_eq!(k.verdict(8), Some(EedVerdict::Low));
    }

    #[test]
    fn lemma11_high_when_degree_at_least_one() {
        // Star with hub 0: leaves have p = 1/2 each, so d(hub) = (n-1)/2 ≥ 1
        // and d(leaf) = p(hub) = 1/2 + ... choose hub p small so leaves are Low.
        let g = generators::star(9);
        let mut ps = vec![0.5; 9];
        ps[0] = 0.001; // hub barely transmits: leaves have d = 0.001 ≤ 0.01 → Low
        let verdicts = run_eed(&g, &ps, 11);
        assert_eq!(verdicts[0], EedVerdict::High, "hub d = 4 must be High");
        for (leaf, v) in verdicts.iter().enumerate().skip(1) {
            assert_eq!(*v, EedVerdict::Low, "leaf {leaf} d = 0.001");
        }
    }

    #[test]
    fn lemma11_low_when_isolated() {
        // Path of 2 with p = 0 on both: d = 0 everywhere → Low.
        let g = generators::path(2);
        let verdicts = run_eed(&g, &[0.0, 0.0], 3);
        assert_eq!(verdicts, vec![EedVerdict::Low, EedVerdict::Low]);
    }

    #[test]
    fn lemma11_high_in_dense_clique() {
        // Clique of 16, all p = 1/2: d(v) = 7.5 ≥ 1 → High everywhere,
        // even though most steps collide.
        let g = generators::complete(16);
        let verdicts = run_eed(&g, &[0.5; 16], 5);
        assert!(verdicts.iter().all(|&v| v == EedVerdict::High));
    }

    #[test]
    #[should_panic(expected = "desire level must be in [0, 1]")]
    fn rejects_bad_p() {
        let _ = EedProtocol::new(EedConfig::default(), 4, 1.5);
    }
}
