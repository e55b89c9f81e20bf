//! Broadcasting via `Compete({s})` (paper, Theorem 7):
//! `O(D log_D α + log^{O(1)} n)` time-steps whp on undirected graphs.

use crate::compete::{run_compete, CompeteConfig, CompeteOutcome};
use radionet_graph::NodeId;
use radionet_sim::{Observer, Sim, TopologyView};

/// Result of a broadcast run.
#[derive(Clone, Debug)]
pub struct BroadcastOutcome {
    /// The underlying `Compete` outcome.
    pub compete: CompeteOutcome,
    /// The broadcast message.
    pub message: u64,
}

impl BroadcastOutcome {
    /// Whether every node learned the source message.
    pub fn completed(&self) -> bool {
        self.compete.all_know(self.message)
    }

    /// Clock (simulated + charged steps) when every node first knew the
    /// message, if it ever happened.
    pub fn completion_time(&self) -> Option<u64> {
        self.compete.clock_all_informed
    }
}

/// Broadcasts `message` from `source` (paper, Theorem 7: `Compete({s})`).
pub fn run_broadcast<T: TopologyView, O: Observer>(
    sim: &mut Sim<'_, T, O>,
    source: NodeId,
    message: u64,
    config: &CompeteConfig,
) -> BroadcastOutcome {
    let mut initial = vec![None; sim.graph().n()];
    initial[source.index()] = Some(message);
    let compete = run_compete(sim, &initial, config);
    BroadcastOutcome { compete, message }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_graph::generators;
    use radionet_sim::NetInfo;

    #[test]
    fn broadcast_completes_on_spider() {
        let g = generators::spider(6, 6);
        let mut sim = Sim::new(&g, NetInfo::exact(&g), 11);
        let out = run_broadcast(&mut sim, g.node(0), 7, &CompeteConfig::default());
        assert!(out.completed());
        assert!(out.completion_time().is_some());
    }

    #[test]
    fn broadcast_from_leaf() {
        let g = generators::binary_tree(5);
        let mut sim = Sim::new(&g, NetInfo::exact(&g), 12);
        let leaf = g.node(g.n() - 1);
        let out = run_broadcast(&mut sim, leaf, 123, &CompeteConfig::default());
        assert!(out.completed());
    }

    #[test]
    fn broadcast_on_random_tree() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let g = generators::random_tree(60, &mut rng);
        let mut sim = Sim::new(&g, NetInfo::exact(&g), 13);
        let out = run_broadcast(&mut sim, g.node(0), 1, &CompeteConfig::default());
        assert!(out.completed());
    }
}
