//! Leader election (paper, Algorithm 3; Theorem 8).
//!
//! Nodes become candidates with probability `Θ(log n / n)`, candidates draw
//! `Θ(log n)`-bit identifiers, and `Compete(C)` spreads the highest; with
//! high probability `|C| = Θ(log n)`, identifiers are unique, and every
//! node ends up agreeing on the same leader in
//! `O(D log_D α + log^{O(1)} n)` time-steps.

use crate::compete::{run_compete, CompeteConfig, CompeteOutcome};
use radionet_primitives::ids::random_id;
use radionet_sim::{Observer, Sim, TopologyView};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of leader election.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LeaderElectionConfig {
    /// Candidate probability = `min(1, candidate_factor · log n / n)`
    /// (the paper's `Θ(log n / n)`).
    pub candidate_factor: f64,
    /// The underlying `Compete` parameters.
    pub compete: CompeteConfig,
}

impl Default for LeaderElectionConfig {
    fn default() -> Self {
        LeaderElectionConfig { candidate_factor: 2.0, compete: CompeteConfig::default() }
    }
}

/// Result of a leader-election run.
#[derive(Clone, Debug)]
pub struct LeaderElectionOutcome {
    /// The underlying `Compete` outcome.
    pub compete: CompeteOutcome,
    /// The candidates' identifiers, by node index (None = not a candidate).
    pub candidate_ids: Vec<Option<u64>>,
    /// The elected leader's identifier, if the election succeeded.
    pub leader: Option<u64>,
}

impl LeaderElectionOutcome {
    /// Whether every node agrees on the same (correct, unique-maximum)
    /// leader id.
    pub fn succeeded(&self) -> bool {
        match self.leader {
            None => false,
            Some(id) => {
                // Unique maximum among candidates, and universally known.
                let maxes = self.candidate_ids.iter().flatten().filter(|&&c| c == id).count();
                maxes == 1 && self.compete.best.iter().all(|b| *b == Some(id))
            }
        }
    }

    /// Number of candidates (the paper's `|C|`, whp `Θ(log n)`).
    pub fn candidate_count(&self) -> usize {
        self.candidate_ids.iter().flatten().count()
    }
}

/// Runs Algorithm 3 on the simulator.
///
/// The candidate lottery is drawn from `le_seed` (node-private randomness in
/// the real protocol; kept outside the engine clock because it costs zero
/// time-steps).
pub fn run_leader_election<T: TopologyView, O: Observer>(
    sim: &mut Sim<'_, T, O>,
    le_seed: u64,
    config: &LeaderElectionConfig,
) -> LeaderElectionOutcome {
    let n = sim.graph().n();
    let n_est = sim.info().n;
    let p = (config.candidate_factor * (n_est.max(2) as f64).log2() / n_est as f64).min(1.0);
    let mut rng = SmallRng::seed_from_u64(le_seed ^ 0x1eade1);
    let candidate_ids: Vec<Option<u64>> =
        (0..n).map(|_| rng.gen_bool(p).then(|| random_id(n_est, &mut rng))).collect();
    if candidate_ids.iter().all(|c| c.is_none()) {
        // No candidates: the election fails outright (probability n^{-Θ(1)}).
        return LeaderElectionOutcome {
            compete: crate::compete::CompeteOutcome {
                best: vec![None; n],
                clock_setup: sim.clock(),
                clock_total: sim.clock(),
                clock_all_informed: None,
                mis_valid: None,
                seed_coverage: 0.0,
                rounds_run: 0,
                fine_count: 0,
            },
            candidate_ids,
            leader: None,
        };
    }
    let compete = run_compete(sim, &candidate_ids, &config.compete);
    let leader = candidate_ids.iter().flatten().copied().max();
    LeaderElectionOutcome { compete, candidate_ids, leader }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_graph::generators;
    use radionet_sim::NetInfo;

    #[test]
    fn elects_on_grid() {
        let g = generators::grid2d(8, 8);
        let mut sim = Sim::new(&g, NetInfo::exact(&g), 1);
        let out = run_leader_election(&mut sim, 1, &LeaderElectionConfig::default());
        assert!(out.succeeded(), "candidates: {}", out.candidate_count());
        assert!(out.candidate_count() >= 1);
    }

    #[test]
    fn elects_on_cycle() {
        let g = generators::cycle(40);
        let mut sim = Sim::new(&g, NetInfo::exact(&g), 2);
        let out = run_leader_election(&mut sim, 7, &LeaderElectionConfig::default());
        assert!(out.succeeded());
    }

    #[test]
    fn leader_is_max_candidate() {
        let g = generators::grid2d(6, 6);
        let mut sim = Sim::new(&g, NetInfo::exact(&g), 3);
        let out = run_leader_election(&mut sim, 3, &LeaderElectionConfig::default());
        if let Some(l) = out.leader {
            assert_eq!(Some(l), out.candidate_ids.iter().flatten().copied().max());
        }
    }

    #[test]
    fn candidate_count_concentrates() {
        // With factor f, E[|C|] = f·log n; check a loose band over seeds.
        let g = generators::grid2d(12, 12);
        let mut counts = Vec::new();
        for seed in 0..10u64 {
            let n_est = g.n();
            let p = (2.0 * (n_est as f64).log2() / n_est as f64).min(1.0);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x1eade1);
            let c = (0..g.n()).filter(|_| rng.gen_bool(p)).count();
            counts.push(c);
        }
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        let expect = 2.0 * (g.n() as f64).log2();
        assert!((mean - expect).abs() < expect, "mean {mean} vs {expect}");
    }
}
