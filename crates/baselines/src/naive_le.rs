//! Naive leader election: candidate lottery + multi-source BGI flooding.
//!
//! The folklore baseline the paper cites (from \[6\]): nodes become
//! candidates with probability `Θ(log n / n)`, draw random identifiers, and
//! flood; the highest identifier wins. Time `O(D log n + log² n)` whp —
//! the comparison target for Theorem 8 (experiment E9).

use crate::bgi::{run_bgi_multi, BgiConfig, BgiOutcome};
use radionet_primitives::ids::random_id;
use radionet_sim::{Observer, Sim, TopologyView};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the naive leader election.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NaiveLeConfig {
    /// Candidate probability = `min(1, candidate_factor · log n / n)`.
    pub candidate_factor: f64,
    /// Flooding parameters.
    pub bgi: BgiConfig,
}

impl Default for NaiveLeConfig {
    fn default() -> Self {
        NaiveLeConfig { candidate_factor: 2.0, bgi: BgiConfig::default() }
    }
}

/// Outcome of the naive leader election.
#[derive(Clone, Debug)]
pub struct NaiveLeOutcome {
    /// The flooding outcome.
    pub flood: BgiOutcome,
    /// Candidate identifiers by node.
    pub candidate_ids: Vec<Option<u64>>,
    /// The elected leader id, if any.
    pub leader: Option<u64>,
}

impl NaiveLeOutcome {
    /// Whether a unique leader was agreed on by every node.
    pub fn succeeded(&self) -> bool {
        match self.leader {
            None => false,
            Some(id) => {
                let maxes = self.candidate_ids.iter().flatten().filter(|&&c| c == id).count();
                maxes == 1 && self.flood.best.iter().all(|b| *b == Some(id))
            }
        }
    }
}

/// Runs the baseline election.
pub fn run_naive_leader_election<T: TopologyView, O: Observer>(
    sim: &mut Sim<'_, T, O>,
    le_seed: u64,
    config: &NaiveLeConfig,
) -> NaiveLeOutcome {
    let n = sim.graph().n();
    let n_est = sim.info().n;
    let p = (config.candidate_factor * (n_est.max(2) as f64).log2() / n_est as f64).min(1.0);
    let mut rng = SmallRng::seed_from_u64(le_seed ^ 0x0af1e);
    let candidate_ids: Vec<Option<u64>> =
        (0..n).map(|_| rng.gen_bool(p).then(|| random_id(n_est, &mut rng))).collect();
    let sources: Vec<_> = candidate_ids
        .iter()
        .enumerate()
        .filter_map(|(i, c)| c.map(|id| (sim.graph().node(i), id)))
        .collect();
    if sources.is_empty() {
        return NaiveLeOutcome {
            flood: BgiOutcome {
                best: vec![None; n],
                clock_all_informed: None,
                clock_total: sim.clock(),
            },
            candidate_ids,
            leader: None,
        };
    }
    let flood = run_bgi_multi(sim, &sources, &config.bgi);
    let leader = candidate_ids.iter().flatten().copied().max();
    NaiveLeOutcome { flood, candidate_ids, leader }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_graph::generators;
    use radionet_sim::NetInfo;

    #[test]
    fn elects_on_grid() {
        let g = generators::grid2d(10, 10);
        let mut sim = Sim::new(&g, NetInfo::exact(&g), 1);
        let out = run_naive_leader_election(&mut sim, 1, &NaiveLeConfig::default());
        assert!(out.succeeded());
    }

    #[test]
    fn elects_on_path() {
        let g = generators::path(80);
        let mut sim = Sim::new(&g, NetInfo::exact(&g), 2);
        let out = run_naive_leader_election(&mut sim, 5, &NaiveLeConfig::default());
        assert!(out.succeeded());
    }

    #[test]
    fn leader_is_max_candidate() {
        let g = generators::cycle(30);
        let mut sim = Sim::new(&g, NetInfo::exact(&g), 3);
        let out = run_naive_leader_election(&mut sim, 9, &NaiveLeConfig::default());
        if out.succeeded() {
            assert_eq!(out.leader, out.candidate_ids.iter().flatten().copied().max());
        }
    }
}
