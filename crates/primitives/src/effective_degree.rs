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

use radionet_sim::{Action, NodeCtx, Protocol, Wake};
use rand::Rng;
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
/// Call [`transmit_prob`](EedCounter::transmit_prob) to decide each step's
/// action, [`note`](EedCounter::note) once per step with whether something
/// was heard, and read [`verdict`](EedCounter::verdict) once
/// [`finished`](EedCounter::finished).
#[derive(Clone, Copy, Debug)]
pub struct EedCounter {
    /// Per-block High threshold ([`EedConfig::threshold`]).
    threshold: u64,
    /// Steps per block ([`EedConfig::block_steps`]).
    block_steps: u64,
    /// Number of blocks ([`EedConfig::blocks`]).
    blocks: u64,
    /// Current block index `i` (0 ..= log n).
    block: u64,
    /// Step within the current block.
    step: u64,
    /// Heard-count within the current block.
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
            block: 0,
            step: 0,
            count: 0,
            high: false,
        }
    }

    /// Rewinds to the start of a fresh execution with the same constants.
    pub fn restart(&mut self) {
        *self = EedCounter { block: 0, step: 0, count: 0, high: false, ..*self };
    }

    /// Probability with which the owner should transmit this step:
    /// `p / 2^i` where `i` is the current block.
    pub fn transmit_prob(&self, p: f64) -> f64 {
        (p * 2f64.powi(-(self.block as i32))).clamp(0.0, 1.0)
    }

    /// Records the outcome of the current step and advances.
    ///
    /// # Panics
    ///
    /// Panics if called after [`finished`](EedCounter::finished).
    pub fn note(&mut self, heard: bool) {
        assert!(!self.finished(), "EedCounter advanced past its last step");
        if heard {
            self.count += 1;
            if self.count >= self.threshold {
                self.high = true;
            }
        }
        self.step += 1;
        if self.step >= self.block_steps {
            self.step = 0;
            self.count = 0;
            self.block += 1;
        }
    }

    /// Whether all blocks have elapsed.
    pub fn finished(&self) -> bool {
        self.block >= self.blocks
    }

    /// The verdict; `None` until [`finished`](EedCounter::finished).
    pub fn verdict(&self) -> Option<EedVerdict> {
        self.finished().then_some(if self.high { EedVerdict::High } else { EedVerdict::Low })
    }
}

/// Standalone EstimateEffectiveDegree as a [`Protocol`], for direct
/// validation of Lemma 11 (experiment E2). Each node is given its fixed
/// desire level `p`; after `total_steps` the verdict is available.
#[derive(Clone, Debug)]
pub struct EedProtocol {
    counter: EedCounter,
    p: f64,
    heard_this_step: bool,
    started: bool,
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
            p,
            heard_this_step: false,
            started: false,
        }
    }

    /// The verdict; `None` until the protocol finished.
    pub fn verdict(&self) -> Option<EedVerdict> {
        self.counter.verdict()
    }
}

impl Protocol for EedProtocol {
    type Msg = ();

    fn act(&mut self, ctx: &mut NodeCtx<'_>) -> Action<()> {
        // Settle the previous step's outcome first (on_hear runs between acts).
        if self.started && !self.counter.finished() {
            let heard = self.heard_this_step;
            self.heard_this_step = false;
            self.counter.note(heard);
        }
        self.started = true;
        if self.counter.finished() {
            return Action::Idle;
        }
        if ctx.rng.gen_bool(self.counter.transmit_prob(self.p)) {
            Action::Transmit(())
        } else {
            Action::Listen
        }
    }

    fn on_hear(&mut self, _ctx: &mut NodeCtx<'_>, _msg: &()) {
        self.heard_this_step = true;
    }

    fn is_done(&self) -> bool {
        self.counter.finished()
    }

    fn next_wake(&self, _now: u64) -> Wake {
        // Every live step draws a transmit coin; once the counter finishes,
        // `act` is a pure `Idle` forever.
        if self.counter.finished() {
            Wake::Retire
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
        // One extra step so every node settles its final counter state.
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
        assert_eq!(k.transmit_prob(0.5), 0.5);
        k.note(false);
        k.note(false);
        assert_eq!(k.transmit_prob(0.5), 0.25); // block 1
        for _ in 0..4 {
            k.note(false);
        }
        assert!(k.finished());
        assert_eq!(k.verdict(), Some(EedVerdict::Low));
        // A restart rewinds the state and keeps the 3 × 2 shape.
        k.restart();
        assert_eq!((k.finished(), k.verdict(), k.transmit_prob(0.5)), (false, None, 0.5));
        for _ in 0..6 {
            k.note(false);
        }
        assert!(k.finished());
    }

    #[test]
    #[should_panic(expected = "advanced past its last step")]
    fn counter_overrun_panics() {
        let c = EedConfig { c_steps: 1, threshold_frac: 1.0 };
        let mut k = EedCounter::new(c, 1); // 2 blocks × 1 step
        k.note(false);
        k.note(false);
        k.note(false);
    }

    #[test]
    fn counter_high_on_threshold() {
        let c = EedConfig { c_steps: 4, threshold_frac: 0.5 }; // threshold = 2 per 4-step block
        let mut k = EedCounter::new(c, 1);
        k.note(true);
        k.note(true);
        while !k.finished() {
            k.note(false);
        }
        assert_eq!(k.verdict(), Some(EedVerdict::High));
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
