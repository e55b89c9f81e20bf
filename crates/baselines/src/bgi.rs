//! The Bar-Yehuda–Goldreich–Itai Decay broadcast \[3\]:
//! every informed node repeats Decay iterations forever; completes in
//! `O(D log n + log² n)` time-steps whp. The standard general-graph
//! baseline that `Compete` must beat on geometric classes (experiment E8).

use radionet_graph::{Graph, NodeId};
use radionet_primitives::decay::DecaySchedule;
use radionet_primitives::flood::FloodProtocol;
use radionet_sim::{NetInfo, Observer, Sim, TopologyView};
use serde::{Deserialize, Serialize};

/// Configuration of the BGI broadcast baseline.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BgiConfig {
    /// Step budget = `budget_factor · (D·log n + log² n)`.
    pub budget_factor: f64,
    /// Completion-check granularity (steps between harness scans).
    pub check_every: u64,
}

impl Default for BgiConfig {
    fn default() -> Self {
        BgiConfig { budget_factor: 12.0, check_every: 16 }
    }
}

impl BgiConfig {
    /// The nominal step budget for the given network parameters.
    pub fn budget(&self, info: &NetInfo) -> u64 {
        let l = info.log_n() as f64;
        (self.budget_factor * (info.d as f64 * l + l * l)).ceil() as u64
    }
}

/// Outcome of a BGI broadcast run.
#[derive(Clone, Debug)]
pub struct BgiOutcome {
    /// Per-node final message knowledge.
    pub best: Vec<Option<u64>>,
    /// Clock when every node first knew the message (None = budget ran out).
    pub clock_all_informed: Option<u64>,
    /// Total clock consumed.
    pub clock_total: u64,
}

impl BgiOutcome {
    /// Whether the broadcast completed.
    pub fn completed(&self) -> bool {
        self.clock_all_informed.is_some()
    }
}

/// Runs the BGI broadcast of `message` from `source`.
pub fn run_bgi_broadcast<T: TopologyView, O: Observer>(
    sim: &mut Sim<'_, T, O>,
    source: NodeId,
    message: u64,
    config: &BgiConfig,
) -> BgiOutcome {
    let sources = [(source, message)];
    run_bgi_multi(sim, &sources, config)
}

/// Multi-source variant (the highest message wins), used by the naive
/// leader-election baseline.
pub fn run_bgi_multi<T: TopologyView, O: Observer>(
    sim: &mut Sim<'_, T, O>,
    sources: &[(NodeId, u64)],
    config: &BgiConfig,
) -> BgiOutcome {
    let g: &Graph = sim.graph();
    let info = *sim.info();
    let schedule = DecaySchedule::new(info.log_n());
    let target = sources.iter().map(|&(_, m)| m).max();
    let mut states: Vec<FloodProtocol<u64>> = g
        .nodes()
        .map(|v| {
            let msg = sources.iter().find(|&&(s, _)| s == v).map(|&(_, m)| m);
            FloodProtocol::new(schedule, msg)
        })
        .collect();
    let budget = config.budget(&info);
    let mut spent = 0u64;
    let mut clock_all_informed = None;
    while spent < budget {
        let chunk = config.check_every.min(budget - spent);
        let rep = sim.run_phase(&mut states, chunk);
        spent += rep.steps;
        if states.iter().all(|s| s.best().copied() == target) {
            clock_all_informed = Some(sim.clock());
            break;
        }
    }
    BgiOutcome {
        best: states.iter().map(|s| s.best().copied()).collect(),
        clock_all_informed,
        clock_total: sim.clock(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_graph::generators;

    #[test]
    fn completes_on_path_within_budget() {
        let g = generators::path(64);
        let mut sim = Sim::new(&g, NetInfo::exact(&g), 1);
        let out = run_bgi_broadcast(&mut sim, g.node(0), 9, &BgiConfig::default());
        assert!(out.completed());
        let t = out.clock_all_informed.unwrap();
        // Should be around D·log n; sanity: at least D (speed ≤ 1 hop/step).
        assert!(t >= 63, "t = {t}");
    }

    #[test]
    fn completes_on_grid_and_star() {
        for (g, s) in [(generators::grid2d(9, 9), 2u64), (generators::star(50), 3)] {
            let mut sim = Sim::new(&g, NetInfo::exact(&g), s);
            let out = run_bgi_broadcast(&mut sim, g.node(0), 1, &BgiConfig::default());
            assert!(out.completed(), "{g:?}");
        }
    }

    #[test]
    fn multi_source_max_wins() {
        let g = generators::cycle(24);
        let mut sim = Sim::new(&g, NetInfo::exact(&g), 4);
        let out =
            run_bgi_multi(&mut sim, &[(g.node(0), 5), (g.node(12), 8)], &BgiConfig::default());
        assert!(out.completed());
        assert!(out.best.iter().all(|b| *b == Some(8)));
    }

    #[test]
    fn budget_exhaustion_reported() {
        let g = generators::path(128);
        let mut sim = Sim::new(&g, NetInfo::exact(&g), 5);
        let cfg = BgiConfig { budget_factor: 0.01, check_every: 4 };
        let out = run_bgi_broadcast(&mut sim, g.node(0), 9, &cfg);
        assert!(!out.completed());
    }
}
