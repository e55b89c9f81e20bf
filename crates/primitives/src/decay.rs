//! The Decay protocol (paper, Algorithm 5; originally Bar-Yehuda, Goldreich
//! and Itai).
//!
//! One *iteration* of Decay lasts `⌈log₂ n⌉` steps; in sub-step `i`
//! (1-based) each participating node transmits its message with probability
//! `2^{-i}`. If a set `S` of nodes performs one iteration, every node with a
//! neighbor in `S` hears a transmission with constant probability; `O(log n)`
//! iterations amplify this to high probability (Claim 10, validated by
//! experiment E1).

use radionet_sim::{Action, NodeCtx, Protocol, Wake};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The transmission-probability schedule of Decay.
///
/// ```
/// use radionet_primitives::DecaySchedule;
/// let s = DecaySchedule::new(8); // log n = 8
/// assert_eq!(s.steps_per_iteration(), 8);
/// assert_eq!(s.prob(0), 0.5);       // sub-step 1: 2^-1
/// assert_eq!(s.prob(7), 1.0 / 256.0);
/// assert_eq!(s.prob(8), 0.5);       // wraps into the next iteration
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecaySchedule {
    log_n: u32,
}

impl DecaySchedule {
    /// Schedule for a network with `⌈log₂ n⌉ = log_n` (clamped to ≥ 1).
    pub fn new(log_n: u32) -> Self {
        DecaySchedule { log_n: log_n.max(1) }
    }

    /// Steps in one Decay iteration.
    pub fn steps_per_iteration(&self) -> u32 {
        self.log_n
    }

    /// Transmission probability at (0-based) local step `t`, wrapping across
    /// iterations: `2^{-(1 + t mod log n)}`.
    pub fn prob(&self, t: u64) -> f64 {
        let i = (t % self.log_n as u64) as i32;
        2f64.powi(-(i + 1))
    }
}

/// Configuration for [`DecayProtocol`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecayConfig {
    /// Number of Decay iterations (Claim 10 amplification). The paper uses
    /// `O(log n)`; experiments sweep this.
    pub iterations: u32,
}

impl DecayConfig {
    /// The whp default: `2·⌈log₂ n⌉` iterations.
    pub fn whp(log_n: u32) -> Self {
        DecayConfig { iterations: 2 * log_n.max(1) }
    }

    /// Total steps the protocol runs for a given schedule.
    pub fn total_steps(&self, schedule: DecaySchedule) -> u64 {
        self.iterations as u64 * schedule.steps_per_iteration() as u64
    }
}

/// Standalone Decay as a [`Protocol`]: members of the transmitting set `S`
/// carry `Some(message)`; every node records all messages it hears.
///
/// After [`DecayConfig::total_steps`] steps every node is done; inspect
/// [`heard`](DecayProtocol::heard) / [`heard_any`](DecayProtocol::heard_any).
#[derive(Clone, Debug)]
pub struct DecayProtocol<M> {
    schedule: DecaySchedule,
    config: DecayConfig,
    message: Option<M>,
    heard: Vec<M>,
    elapsed: u64,
}

impl<M: Clone> DecayProtocol<M> {
    /// A node in `S` (with `Some(message)`) or a listener (`None`).
    pub fn new(schedule: DecaySchedule, config: DecayConfig, message: Option<M>) -> Self {
        DecayProtocol { schedule, config, message, heard: Vec::new(), elapsed: 0 }
    }

    /// Every message heard, in arrival order.
    pub fn heard(&self) -> &[M] {
        &self.heard
    }

    /// Whether anything was heard.
    pub fn heard_any(&self) -> bool {
        !self.heard.is_empty()
    }
}

impl<M: Clone> Protocol for DecayProtocol<M> {
    type Msg = M;

    // Time-based (phase-local `ctx.time`) rather than call-counting, so the
    // sparse kernel can skip the pure-listener steps: an uncalled listener's
    // state is bit-identical to a called one's, except for the `elapsed`
    // bookkeeping that `act` re-derives from the clock whenever it runs.
    fn act(&mut self, ctx: &mut NodeCtx<'_>) -> Action<M> {
        let total = self.config.total_steps(self.schedule);
        if ctx.time >= total {
            self.elapsed = total;
            return Action::Idle;
        }
        self.elapsed = ctx.time + 1;
        match &self.message {
            Some(m) if ctx.rng.gen_bool(self.schedule.prob(ctx.time)) => {
                Action::Transmit(m.clone())
            }
            _ => Action::Listen,
        }
    }

    fn on_hear(&mut self, _ctx: &mut NodeCtx<'_>, msg: &M) {
        self.heard.push(msg.clone());
    }

    fn is_done(&self) -> bool {
        self.elapsed >= self.config.total_steps(self.schedule)
    }

    fn next_wake(&self, now: u64) -> Wake {
        let total = self.config.total_steps(self.schedule);
        if now + 1 >= total {
            Wake::Retire
        } else if self.message.is_some() {
            // Transmitters flip a coin every step.
            Wake::Now
        } else {
            // Pure listeners: passive through the whole schedule, done at
            // its end (the final act at `total` only turns listening off).
            Wake::Listen { wake_at: total, done_at: Some(total - 1) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_graph::generators;
    use radionet_graph::Graph;
    use radionet_sim::{NetInfo, Sim};

    fn run_decay(g: &Graph, set: &[usize], iterations: u32, seed: u64) -> Vec<Vec<u32>> {
        let info = NetInfo::exact(g);
        let schedule = DecaySchedule::new(info.log_n());
        let config = DecayConfig { iterations };
        let mut sim = Sim::new(g, info, seed);
        let mut states: Vec<DecayProtocol<u32>> = g
            .nodes()
            .map(|v| {
                let msg = set.contains(&v.index()).then_some(v.index() as u32);
                DecayProtocol::new(schedule, config, msg)
            })
            .collect();
        let rep = sim.run_phase(&mut states, config.total_steps(schedule) + 1);
        assert!(rep.completed);
        states.into_iter().map(|s| s.heard).collect()
    }

    #[test]
    fn schedule_probabilities() {
        let s = DecaySchedule::new(4);
        assert_eq!(s.prob(0), 0.5);
        assert_eq!(s.prob(1), 0.25);
        assert_eq!(s.prob(3), 0.0625);
        assert_eq!(s.prob(4), 0.5); // wrap
    }

    #[test]
    fn schedule_clamps_log_n() {
        assert_eq!(DecaySchedule::new(0).steps_per_iteration(), 1);
    }

    #[test]
    fn single_transmitter_always_delivers() {
        // With |S| = 1, the first sub-step (p = 1/2) delivers in expectation
        // half the time; 2 log n iterations make failure vanishing.
        let g = generators::star(16);
        let heard = run_decay(&g, &[0], 10, 42);
        for (leaf, h) in heard.iter().enumerate().skip(1) {
            assert!(!h.is_empty(), "leaf {leaf} heard nothing");
        }
    }

    #[test]
    fn clique_of_transmitters_resolves() {
        // All nodes of a clique transmit: Claim 10 says everyone (being a
        // neighbor of S) still hears something whp thanks to the decaying
        // probabilities.
        let g = generators::complete(32);
        let heard = run_decay(&g, &(0..32).collect::<Vec<_>>(), 12, 7);
        let ok = heard.iter().filter(|h| !h.is_empty()).count();
        assert!(ok >= 31, "only {ok}/32 clique nodes heard");
    }

    #[test]
    fn non_neighbors_hear_nothing() {
        // Path 0-1-2-3: S = {0}; node 2 and 3 have no neighbor in S.
        let g = generators::path(4);
        let heard = run_decay(&g, &[0], 8, 3);
        assert!(!heard[1].is_empty());
        assert!(heard[2].is_empty());
        assert!(heard[3].is_empty());
    }

    #[test]
    fn transmitters_hear_each_other() {
        // Two adjacent transmitters: each should hear the other whp (needed
        // by the MIS marked-phase). With log n = 1 the per-step success
        // probability is 1/4 per direction, so 40 iterations make failure
        // ≈ 0.75⁴⁰ ≈ 10⁻⁵.
        let g = generators::path(2);
        let heard = run_decay(&g, &[0, 1], 40, 5);
        assert!(!heard[0].is_empty());
        assert!(!heard[1].is_empty());
    }

    #[test]
    fn empty_set_silence() {
        let g = generators::complete(8);
        let heard = run_decay(&g, &[], 4, 1);
        assert!(heard.iter().all(|h| h.is_empty()));
    }

    #[test]
    fn whp_config_scales() {
        let c = DecayConfig::whp(10);
        assert_eq!(c.iterations, 20);
        assert_eq!(c.total_steps(DecaySchedule::new(10)), 200);
    }

    #[test]
    fn protocol_goes_idle_after_budget() {
        let g = generators::path(2);
        let info = NetInfo::exact(&g);
        let schedule = DecaySchedule::new(2);
        let config = DecayConfig { iterations: 1 };
        let mut sim = Sim::new(&g, info, 0);
        let mut states = vec![
            DecayProtocol::new(schedule, config, Some(1u32)),
            DecayProtocol::<u32>::new(schedule, config, None),
        ];
        let rep = sim.run_phase(&mut states, 100);
        assert!(rep.completed);
        assert_eq!(rep.steps, config.total_steps(schedule));
    }
}
