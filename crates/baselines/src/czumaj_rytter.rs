//! A Czumaj–Rytter / Kowalski–Pelc style broadcast
//! (`O(D log(n/D) + log² n)` whp \[8, 21\]).
//!
//! The optimal general-graph algorithms improve on BGI by observing that in
//! a BFS-layered execution, the effective contention at the frontier is
//! `O(n/D)` on average, so most Decay iterations only need to sweep
//! probabilities down to `2^{-O(log(n/D))}`; occasional full sweeps handle
//! dense layers. We implement that schedule: informed nodes cycle
//! probabilities over `1..⌈log(n/D)⌉ + 2` in most iterations and over the
//! full `1..log n` every `full_sweep_every`-th iteration, preserving the
//! `D·log(n/D) + log² n` shape (experiment E8 compares all broadcast
//! baselines).

use radionet_graph::NodeId;
use radionet_sim::{Action, NetInfo, NodeCtx, Observer, Protocol, Sim, TopologyView, Wake};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the CR-style broadcast.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CrConfig {
    /// Step budget = `budget_factor · (D·log(n/D) + log² n)`.
    pub budget_factor: f64,
    /// Every `full_sweep_every`-th iteration sweeps the full range.
    pub full_sweep_every: u32,
    /// Completion-check granularity.
    pub check_every: u64,
}

impl Default for CrConfig {
    fn default() -> Self {
        CrConfig { budget_factor: 14.0, full_sweep_every: 4, check_every: 16 }
    }
}

impl CrConfig {
    /// Nominal budget for the given network parameters.
    pub fn budget(&self, info: &NetInfo) -> u64 {
        let l = info.log_n() as f64;
        let short = ((info.n.max(2) as f64 / info.d.max(1) as f64).max(2.0)).log2().ceil() + 2.0;
        (self.budget_factor * (info.d as f64 * short + l * l)).ceil() as u64
    }
}

/// Per-node state of the CR-style broadcast.
#[derive(Clone, Debug)]
struct CrNode {
    best: Option<u64>,
    informed_steps: u64,
    short_range: u32,
    full_range: u32,
    full_sweep_every: u32,
}

impl CrNode {
    fn prob(&self, t: u64) -> f64 {
        // Iterations alternate: most use the short range, every k-th the full.
        let short = self.short_range.max(1) as u64;
        let full = self.full_range.max(1) as u64;
        let k = self.full_sweep_every.max(2) as u64;
        // Interleave: blocks of (k-1) short iterations then 1 full iteration.
        let super_block = (k - 1) * short + full;
        let pos = t % super_block;
        let i = if pos < (k - 1) * short { pos % short } else { pos - (k - 1) * short };
        2f64.powi(-(i as i32 + 1))
    }
}

impl Protocol for CrNode {
    type Msg = u64;

    fn act(&mut self, ctx: &mut NodeCtx<'_>) -> Action<u64> {
        match self.best {
            None => Action::Listen,
            Some(m) => {
                let t = self.informed_steps;
                self.informed_steps += 1;
                if ctx.rng.gen_bool(self.prob(t)) {
                    Action::Transmit(m)
                } else {
                    Action::Listen
                }
            }
        }
    }

    fn on_hear(&mut self, _ctx: &mut NodeCtx<'_>, msg: &u64) {
        if self.best.is_none_or(|b| b < *msg) {
            self.best = Some(*msg);
        }
    }

    fn next_wake(&self, _now: u64) -> Wake {
        // Uninformed nodes listen passively until the frontier arrives;
        // informed nodes coin-flip every step.
        if self.best.is_some() {
            Wake::Now
        } else {
            Wake::listen()
        }
    }
}

/// Runs the CR-style broadcast of `message` from `source`; returns
/// `(per-node knowledge, clock when all informed, total clock)` packaged as
/// a [`crate::bgi::BgiOutcome`] (same shape as the BGI baseline).
pub fn run_cr_broadcast<T: TopologyView, O: Observer>(
    sim: &mut Sim<'_, T, O>,
    source: NodeId,
    message: u64,
    config: &CrConfig,
) -> crate::bgi::BgiOutcome {
    let info = *sim.info();
    let short = ((info.n.max(2) as f64 / info.d.max(1) as f64).max(2.0)).log2().ceil() as u32 + 2;
    let mut states: Vec<CrNode> = sim
        .graph()
        .nodes()
        .map(|v| CrNode {
            best: (v == source).then_some(message),
            informed_steps: 0,
            short_range: short,
            full_range: info.log_n(),
            full_sweep_every: config.full_sweep_every,
        })
        .collect();
    let budget = config.budget(&info);
    let mut spent = 0u64;
    let mut clock_all_informed = None;
    while spent < budget {
        let chunk = config.check_every.min(budget - spent);
        let rep = sim.run_phase(&mut states, chunk);
        spent += rep.steps;
        if states.iter().all(|s| s.best == Some(message)) {
            clock_all_informed = Some(sim.clock());
            break;
        }
    }
    crate::bgi::BgiOutcome {
        best: states.iter().map(|s| s.best).collect(),
        clock_all_informed,
        clock_total: sim.clock(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_graph::generators;

    #[test]
    fn completes_on_path() {
        let g = generators::path(96);
        let mut sim = Sim::new(&g, NetInfo::exact(&g), 1);
        let out = run_cr_broadcast(&mut sim, g.node(0), 3, &CrConfig::default());
        assert!(out.completed());
    }

    #[test]
    fn completes_on_gnp() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let g = generators::connected_gnp(150, 0.05, &mut rng);
        let mut sim = Sim::new(&g, NetInfo::exact(&g), 2);
        let out = run_cr_broadcast(&mut sim, g.node(0), 4, &CrConfig::default());
        assert!(out.completed());
    }

    #[test]
    fn faster_than_bgi_on_long_paths() {
        // On a path, n/D ≈ 1: CR's short sweeps are O(1) long, so informed
        // frontier advances ~1 hop per O(1) steps vs BGI's O(log n).
        let g = generators::path(256);
        let mut t_cr = Vec::new();
        let mut t_bgi = Vec::new();
        for seed in 0..3u64 {
            let mut sim = Sim::new(&g, NetInfo::exact(&g), seed);
            let out = run_cr_broadcast(&mut sim, g.node(0), 1, &CrConfig::default());
            t_cr.push(out.clock_all_informed.expect("cr completes") as f64);
            let mut sim = Sim::new(&g, NetInfo::exact(&g), seed + 100);
            let out = crate::bgi::run_bgi_broadcast(
                &mut sim,
                g.node(0),
                1,
                &crate::bgi::BgiConfig::default(),
            );
            t_bgi.push(out.clock_all_informed.expect("bgi completes") as f64);
        }
        let cr: f64 = t_cr.iter().sum::<f64>() / t_cr.len() as f64;
        let bgi: f64 = t_bgi.iter().sum::<f64>() / t_bgi.len() as f64;
        assert!(cr < bgi, "CR {cr} should beat BGI {bgi} on a long path");
    }

    #[test]
    fn prob_schedule_ranges() {
        let node = CrNode {
            best: Some(1),
            informed_steps: 0,
            short_range: 3,
            full_range: 8,
            full_sweep_every: 3,
        };
        // Super-block: 2 short iterations (3 steps each) + 1 full (8 steps).
        for t in 0..3 {
            assert_eq!(node.prob(t), 2f64.powi(-(t as i32 + 1)));
        }
        assert_eq!(node.prob(3), 0.5); // second short iteration restarts
        assert_eq!(node.prob(6), 0.5); // full sweep starts
        assert_eq!(node.prob(13), 2f64.powi(-8)); // full sweep end
        assert_eq!(node.prob(14), 0.5); // next super-block
    }
}
