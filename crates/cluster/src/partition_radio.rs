//! Radio-network implementation of `Partition(β, C)` (paper, Section 2.2;
//! originally Haeupler–Wajc for \[CD21\]).
//!
//! Each center `c` draws `δ_c ~ Exp(β)` clamped at `δ_cap = Θ(log n / β)`
//! (the standard whp conditioning made explicit) and starts a cluster wave
//! at phase `⌊δ_cap − δ_c⌋`. A *phase* lasts one or more Decay iterations;
//! claimed nodes offer their cluster to neighbors, carrying
//! `(center id, δ_c, hop count)`, and an unclaimed node adopts — at the end
//! of the first phase in which it heard anything — the offer minimizing the
//! MPX key `dist − δ_c`. Since wave arrival time is `δ_cap` minus that key,
//! earlier phases always carry better keys, so absent collisions this
//! reproduces the abstract assignment of [`crate::mpx`]; collisions can
//! delay or locally distort assignments (claimed nodes keep offering in
//! later phases, so every node adjacent to a cluster is eventually claimed
//! whp). Experiment E11 quantifies the distortion against the abstract
//! implementation.

use crate::mpx::Clustering;
use radionet_graph::{traversal, Graph, NodeId};
use radionet_primitives::decay::DecaySchedule;
use radionet_primitives::ids::random_id;
use radionet_primitives::CoinWindow;
use radionet_sim::{Action, NodeCtx, Observer, PhaseReport, Protocol, Sim, TopologyView, Wake};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of the radio partition (knobs calibrated by experiment E12).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RadioPartitionConfig {
    /// `δ_cap = delta_cap_factor · ln(n) / β`.
    pub delta_cap_factor: f64,
    /// Decay iterations per phase (each iteration is `log n` steps).
    pub decay_iterations_per_phase: u32,
    /// Extra phases beyond `⌈δ_cap⌉ + 2` to absorb collision delays.
    pub radius_slack: u32,
}

impl Default for RadioPartitionConfig {
    fn default() -> Self {
        RadioPartitionConfig {
            delta_cap_factor: 2.0,
            decay_iterations_per_phase: 1,
            radius_slack: 6,
        }
    }
}

impl RadioPartitionConfig {
    /// The shift clamp for a given `β` and `n` estimate.
    pub fn delta_cap(&self, beta: f64, n: usize) -> f64 {
        crate::shifts::delta_cap(beta, n, self.delta_cap_factor)
    }

    /// Steps per phase (`iterations × log n`).
    pub fn phase_steps(&self, log_n: u32) -> u64 {
        self.decay_iterations_per_phase.max(1) as u64 * log_n.max(1) as u64
    }

    /// Total number of phases for a run.
    pub fn total_phases(&self, beta: f64, n: usize) -> u64 {
        self.delta_cap(beta, n).ceil() as u64 + 2 + self.radius_slack as u64
    }

    /// Total time-steps of one radio partition run.
    pub fn total_steps(&self, beta: f64, n: usize, log_n: u32) -> u64 {
        self.total_phases(beta, n) * self.phase_steps(log_n)
    }
}

/// Over-the-air offer: "join the cluster of `center`".
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionMsg {
    /// Random identifier of the cluster center (ad-hoc model: protocols
    /// never see engine node ids).
    pub center: u64,
    /// The center's shift `δ_c`.
    pub delta: f64,
    /// Hop count of the *sender* from the center; the receiver would join
    /// at `hops + 1`.
    pub hops: u32,
}

#[derive(Clone, Copy, Debug)]
enum NodeState {
    Unclaimed,
    Claimed { center: u64, delta: f64, dist: u32, claim_phase: u64 },
}

/// Per-node protocol state for the radio partition.
#[derive(Clone, Debug)]
pub struct RadioPartitionNode {
    schedule: DecaySchedule,
    beta: f64,
    is_center: bool,
    total_phases: u64,
    phase_steps: u64,
    delta_cap: f64,
    /// Sampled lazily at the first `act` (needs the node's own RNG).
    init: Option<CenterInit>,
    state: NodeState,
    /// Best offer heard during the current phase: `(key, center, delta, dist)`.
    pending: Option<(f64, u64, f64, u32)>,
    /// A claimed node's Decay coins, drawn ahead.
    coins: CoinWindow,
    elapsed: u64,
}

#[derive(Clone, Copy, Debug)]
struct CenterInit {
    delta: f64,
    start_phase: u64,
    id: u64,
}

impl RadioPartitionNode {
    /// A node of the partition protocol; `is_center` marks membership in the
    /// center set `C` (the MIS for `Partition(β, MIS)`).
    ///
    /// # Panics
    ///
    /// Panics unless `β > 0`.
    pub fn new(
        config: RadioPartitionConfig,
        beta: f64,
        n_estimate: usize,
        log_n: u32,
        is_center: bool,
    ) -> Self {
        assert!(beta > 0.0 && beta.is_finite(), "beta must be positive");
        RadioPartitionNode {
            schedule: DecaySchedule::new(log_n),
            beta,
            is_center,
            total_phases: config.total_phases(beta, n_estimate),
            phase_steps: config.phase_steps(log_n),
            delta_cap: config.delta_cap(beta, n_estimate),
            init: None,
            state: NodeState::Unclaimed,
            pending: None,
            coins: CoinWindow::default(),
            elapsed: 0,
        }
    }

    /// The final assignment: `(center id, hop distance)` if claimed.
    pub fn assignment(&self) -> Option<(u64, u32)> {
        match self.state {
            NodeState::Claimed { center, dist, .. } => Some((center, dist)),
            NodeState::Unclaimed => None,
        }
    }

    fn commit_pending(&mut self, now_phase: u64) {
        if let (NodeState::Unclaimed, Some((_, center, delta, dist))) = (&self.state, self.pending)
        {
            self.state = NodeState::Claimed {
                center,
                delta,
                dist,
                claim_phase: now_phase.saturating_sub(1),
            };
        }
        self.pending = None;
    }
}

impl Protocol for RadioPartitionNode {
    type Msg = PartitionMsg;

    fn act(&mut self, ctx: &mut NodeCtx<'_>) -> Action<PartitionMsg> {
        let t = ctx.time;
        self.elapsed = t;
        if self.init.is_none() {
            let (delta, start_phase, id) = if self.is_center {
                let d = crate::shifts::sample_exp_clamped(self.beta, self.delta_cap, ctx.rng);
                let start = (self.delta_cap - d).floor().max(0.0) as u64;
                (d, start, random_id(ctx.info.n, ctx.rng))
            } else {
                (0.0, u64::MAX, 0)
            };
            self.init = Some(CenterInit { delta, start_phase, id });
        }
        let init = self.init.expect("initialized above");
        let phase = t / self.phase_steps;
        let step_in_phase = t % self.phase_steps;
        if step_in_phase == 0 {
            // Phase boundary: adopt the best offer of the previous phase,
            // then (for centers) possibly self-claim.
            self.commit_pending(phase);
            if self.is_center && phase >= init.start_phase {
                // Self-key is −δ; adopt self unless already claimed with a
                // better (smaller) key — claims from earlier phases always
                // have smaller keys, so only Unclaimed centers self-claim.
                if matches!(self.state, NodeState::Unclaimed) {
                    self.state = NodeState::Claimed {
                        center: init.id,
                        delta: init.delta,
                        dist: 0,
                        claim_phase: phase,
                    };
                }
            }
        }
        let total = self.total_phases * self.phase_steps;
        if t >= total {
            return Action::Idle;
        }
        match self.state {
            // Offering: a Decay coin every step, drawn ahead up to the next
            // transmission (claims and offers never change once claimed).
            NodeState::Claimed { .. } if self.coins.covers(t) => Action::Listen,
            NodeState::Claimed { center, delta, dist, claim_phase } if phase > claim_phase => {
                let (schedule, steps) = (self.schedule, self.phase_steps);
                if self.coins.draw(ctx, total, |u| schedule.prob(u % steps)) {
                    Action::Transmit(PartitionMsg { center, delta, hops: dist })
                } else {
                    Action::Listen
                }
            }
            NodeState::Claimed { .. } => Action::Listen,
            NodeState::Unclaimed => Action::Listen,
        }
    }

    fn on_hear(&mut self, _ctx: &mut NodeCtx<'_>, msg: &PartitionMsg) {
        if matches!(self.state, NodeState::Claimed { .. }) {
            return;
        }
        let dist = msg.hops + 1;
        let key = dist as f64 - msg.delta;
        if self.pending.is_none_or(|(k, ..)| key < k) {
            self.pending = Some((key, msg.center, msg.delta, dist));
        }
    }

    fn is_done(&self) -> bool {
        self.elapsed + 1 >= self.total_phases * self.phase_steps
    }

    fn next_wake(&self, now: u64) -> Wake {
        let total = self.total_phases * self.phase_steps;
        if now + 1 >= total {
            return Wake::Retire;
        }
        let phase = now / self.phase_steps;
        let boundary = |phase: u64| phase.saturating_mul(self.phase_steps);
        // The first step at which `act` changes anything; until then the
        // node is a pure listener.
        let wake_at = match self.state {
            // Claimed in an earlier phase: transmitting Decay, listening
            // through the coins drawn ahead up to the next transmission.
            NodeState::Claimed { claim_phase, .. } if phase > claim_phase => self.coins.end(),
            // A center claimed this phase starts offering at the next
            // boundary, and a held offer commits there.
            NodeState::Claimed { .. } => boundary(phase + 1),
            NodeState::Unclaimed if self.pending.is_some() => boundary(phase + 1),
            // Unclaimed with no offer: nothing happens until an offer is
            // heard (hearing re-engages the node) or, for a center, its
            // start phase begins. Most nodes spend most phases here.
            NodeState::Unclaimed => {
                boundary(self.init.map_or(phase + 1, |c| c.start_phase.max(phase + 1)))
            }
        };
        let wake_at = if wake_at < total { wake_at } else { Wake::NEVER };
        Wake::Listen { wake_at, done_at: Some(total - 1) }
    }
}

/// The raw outcome of a radio partition run.
#[derive(Clone, Debug)]
pub struct RadioClustering {
    /// Per node: `(center id, hop distance)`; `None` if never claimed.
    pub assignment: Vec<Option<(u64, u32)>>,
    /// The phase report of the underlying run.
    pub report: PhaseReport,
}

impl RadioClustering {
    /// Fraction of nodes claimed.
    pub fn coverage(&self) -> f64 {
        if self.assignment.is_empty() {
            return 1.0;
        }
        self.assignment.iter().filter(|a| a.is_some()).count() as f64 / self.assignment.len() as f64
    }

    /// Normalizes into a [`Clustering`]: groups nodes by center id, places
    /// each cluster's center at its distance-0 node, and recomputes `dist`
    /// and `parent` by BFS **inside each cluster's induced subgraph** (the
    /// engine-side normalization that schedule construction needs anyway,
    /// charged through [`CostModel`](radionet_sim::CostModel)).
    ///
    /// Unclaimed nodes stay unclustered. Returns `None` if some cluster id
    /// has no distance-0 node (possible only if the center's Decay failed
    /// throughout; callers treat it as a failed run).
    pub fn to_clustering(&self, g: &Graph) -> Option<Clustering> {
        let mut ids: HashMap<u64, u32> = HashMap::new();
        let mut centers: Vec<Option<NodeId>> = Vec::new();
        for (i, a) in self.assignment.iter().enumerate() {
            if let Some((cid, dist)) = a {
                let idx = *ids.entry(*cid).or_insert_with(|| {
                    centers.push(None);
                    (centers.len() - 1) as u32
                });
                if *dist == 0 {
                    centers[idx as usize] = Some(NodeId::new(i));
                }
            }
        }
        let centers: Option<Vec<NodeId>> = centers.into_iter().collect();
        let centers = centers?;
        let mut cluster_of = vec![None; g.n()];
        for (i, a) in self.assignment.iter().enumerate() {
            if let Some((cid, _)) = a {
                cluster_of[i] = Some(ids[cid]);
            }
        }
        // Per-cluster BFS restricted to same-cluster edges.
        let mut dist = vec![u32::MAX; g.n()];
        let mut parent: Vec<Option<NodeId>> = vec![None; g.n()];
        for (ci, &c) in centers.iter().enumerate() {
            let mut queue = std::collections::VecDeque::new();
            dist[c.index()] = 0;
            queue.push_back(c);
            while let Some(u) = queue.pop_front() {
                for &w in g.neighbors(u) {
                    if cluster_of[w.index()] == Some(ci as u32) && dist[w.index()] == u32::MAX {
                        dist[w.index()] = dist[u.index()] + 1;
                        parent[w.index()] = Some(u);
                        queue.push_back(w);
                    }
                }
            }
        }
        // A claimed node unreachable from its center within the cluster can
        // only arise from id collisions (negligible); drop such nodes.
        for v in g.nodes() {
            if cluster_of[v.index()].is_some() && dist[v.index()] == u32::MAX {
                cluster_of[v.index()] = None;
            }
        }
        Some(Clustering { cluster_of, centers, dist, parent })
    }
}

/// Runs `Partition(β, C)` over the radio engine.
///
/// `is_center[v]` marks the center set (pass the MIS for the paper's
/// variant, all-true for the \[CD21\] baseline). Consumes
/// [`RadioPartitionConfig::total_steps`] simulated steps.
///
/// # Panics
///
/// Panics if `is_center.len() != g.n()` or no center is marked on a
/// nonempty graph.
pub fn run_radio_partition<T: TopologyView, O: Observer>(
    sim: &mut Sim<'_, T, O>,
    is_center: &[bool],
    beta: f64,
    config: RadioPartitionConfig,
) -> RadioClustering {
    let g = sim.graph();
    assert_eq!(is_center.len(), g.n(), "one center flag per node");
    assert!(is_center.iter().any(|&c| c) || g.n() == 0, "partition needs at least one center");
    let info = *sim.info();
    let mut states: Vec<RadioPartitionNode> = is_center
        .iter()
        .map(|&c| RadioPartitionNode::new(config, beta, info.n, info.log_n(), c))
        .collect();
    let budget = config.total_steps(beta, info.n, info.log_n());
    let report = sim.run_phase(&mut states, budget);
    RadioClustering { assignment: states.iter().map(|s| s.assignment()).collect(), report }
}

/// Convenience: radio partition normalized to a [`Clustering`], with
/// `(coverage, report)` attached.
pub fn run_radio_partition_normalized<T: TopologyView, O: Observer>(
    sim: &mut Sim<'_, T, O>,
    is_center: &[bool],
    beta: f64,
    config: RadioPartitionConfig,
) -> (Option<Clustering>, f64, PhaseReport) {
    let raw = run_radio_partition(sim, is_center, beta, config);
    let clustering = raw.to_clustering(sim.graph());
    (clustering, raw.coverage(), raw.report)
}

/// Recomputes exact per-node distances to assigned centers **in the full
/// graph** (not only inside the cluster), used by the Theorem 2 experiments
/// to measure `dist(v, center(v))` exactly as the paper defines it.
pub fn exact_center_distances(g: &Graph, clustering: &Clustering) -> Vec<u32> {
    // One BFS per center, but only distances to that center's members are read.
    let mut out = vec![u32::MAX; g.n()];
    for (ci, &c) in clustering.centers.iter().enumerate() {
        let d = traversal::bfs_distances(g, c);
        for v in g.nodes() {
            if clustering.cluster_of[v.index()] == Some(ci as u32) {
                out[v.index()] = d[v.index()];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_graph::generators;
    use radionet_graph::independent_set::{greedy_mis_min_degree, is_maximal_independent_set};
    use radionet_sim::NetInfo;

    fn center_flags(g: &Graph, centers: &[NodeId]) -> Vec<bool> {
        let mut f = vec![false; g.n()];
        for c in centers {
            f[c.index()] = true;
        }
        f
    }

    #[test]
    fn config_budget_scales_with_beta() {
        let c = RadioPartitionConfig::default();
        assert!(c.total_steps(0.125, 256, 8) > c.total_steps(0.5, 256, 8));
        assert!(c.delta_cap(0.5, 256) > 0.0);
    }

    #[test]
    fn full_coverage_on_connected_graphs() {
        for (g, beta) in [
            (generators::grid2d(8, 8), 0.5),
            (generators::path(40), 0.25),
            (generators::complete(16), 1.0),
            (generators::spider(5, 5), 0.5),
        ] {
            let mis = greedy_mis_min_degree(&g);
            assert!(is_maximal_independent_set(&g, &mis));
            let mut sim = Sim::new(&g, NetInfo::exact(&g), 99);
            let raw = run_radio_partition(
                &mut sim,
                &center_flags(&g, &mis),
                beta,
                RadioPartitionConfig::default(),
            );
            assert!(raw.coverage() > 0.99, "{g:?}: coverage {}", raw.coverage());
        }
    }

    #[test]
    fn normalization_valid() {
        let g = generators::grid2d(10, 10);
        let mis = greedy_mis_min_degree(&g);
        let mut sim = Sim::new(&g, NetInfo::exact(&g), 5);
        let (clustering, coverage, _) = run_radio_partition_normalized(
            &mut sim,
            &center_flags(&g, &mis),
            0.5,
            RadioPartitionConfig::default(),
        );
        assert!(coverage > 0.99);
        let c = clustering.expect("centers present");
        assert!(c.validate(&g));
        // MIS centers: every node is within 1 of an MIS node, so the MPX
        // radius is at most δ_cap + slack; sanity-bound it loosely.
        let cap = RadioPartitionConfig::default().delta_cap(0.5, g.n());
        assert!((c.radius() as f64) <= cap + 8.0, "radius {} vs cap {cap}", c.radius());
    }

    #[test]
    fn single_center_star() {
        let g = generators::star(12);
        let mut sim = Sim::new(&g, NetInfo::exact(&g), 1);
        let flags = center_flags(&g, &[g.node(0)]);
        let raw = run_radio_partition(&mut sim, &flags, 0.5, RadioPartitionConfig::default());
        assert_eq!(raw.coverage(), 1.0);
        let c = raw.to_clustering(&g).unwrap();
        assert_eq!(c.cluster_count(), 1);
        assert_eq!(c.radius(), 1);
        assert_eq!(c.centers[0], g.node(0));
    }

    #[test]
    fn exact_distances_match_cluster_bfs_on_trees() {
        // In a tree the in-cluster path is the only path, so exact distances
        // equal the normalized cluster distances wherever both are defined...
        // except when the global shortest path leaves the cluster; on a path
        // graph with 1 center they always agree.
        let g = generators::path(20);
        let mut sim = Sim::new(&g, NetInfo::exact(&g), 3);
        let flags = center_flags(&g, &[g.node(7)]);
        let raw = run_radio_partition(&mut sim, &flags, 0.25, RadioPartitionConfig::default());
        let c = raw.to_clustering(&g).unwrap();
        let exact = exact_center_distances(&g, &c);
        for v in g.nodes() {
            assert_eq!(exact[v.index()], c.dist[v.index()]);
        }
    }

    #[test]
    #[should_panic(expected = "at least one center")]
    fn no_centers_rejected() {
        let g = generators::path(4);
        let mut sim = Sim::new(&g, NetInfo::exact(&g), 0);
        let _ = run_radio_partition(&mut sim, &[false; 4], 0.5, RadioPartitionConfig::default());
    }

    #[test]
    fn radio_tracks_abstract_mean_distance() {
        // The radio assignment should produce mean center distances within a
        // small factor of the abstract MPX run at the same β (shape check;
        // exact agreement is impossible under collisions and independent
        // shift draws).
        let g = generators::grid2d(12, 12);
        let mis = greedy_mis_min_degree(&g);
        let beta = 0.5;
        let mut radio_means = Vec::new();
        for seed in 0..5u64 {
            let mut sim = Sim::new(&g, NetInfo::exact(&g), seed);
            let (c, cov, _) = run_radio_partition_normalized(
                &mut sim,
                &center_flags(&g, &mis),
                beta,
                RadioPartitionConfig::default(),
            );
            assert!(cov > 0.99);
            let c = c.unwrap();
            let exact = exact_center_distances(&g, &c);
            let ds: Vec<f64> =
                exact.iter().filter(|&&d| d != u32::MAX).map(|&d| d as f64).collect();
            radio_means.push(ds.iter().sum::<f64>() / ds.len() as f64);
        }
        let mut abstract_means = Vec::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..5 {
            let c = crate::mpx::partition(&g, &mis, beta, &mut rng);
            abstract_means.push(c.mean_dist());
        }
        let rm = radio_means.iter().sum::<f64>() / radio_means.len() as f64;
        let am = abstract_means.iter().sum::<f64>() / abstract_means.len() as f64;
        assert!(rm <= 3.0 * am + 1.0 && am <= 3.0 * rm + 1.0, "radio {rm} vs abstract {am}");
    }

    use rand::SeedableRng;
}
