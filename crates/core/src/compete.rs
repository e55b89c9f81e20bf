//! `Compete(S)` (paper, Algorithm 2): the independence-number-parametrized
//! message competition underlying broadcast (Theorem 7) and leader election
//! (Theorem 8).
//!
//! Stages, following the paper:
//!
//! 1. `MIS ← ComputeMIS` (Algorithm 7);
//! 2. coarse clustering: `Partition(β, MIS)` with `β = D^{-1/2}`;
//! 3. schedules within coarse clusters (constructed engine-side, charged
//!    through [`CostModel`]);
//! 4. fine clusterings: `Partition(2^{-j}, MIS)` for each scale `j` in the
//!    randomized range, several per scale;
//! 5. schedules within all fine clusterings (charged as in 3);
//! 6. each coarse center draws a random sequence of fine clusterings — here
//!    a PRG seed standing for the `D^{0.99}`-length sequence (nodes expand
//!    the seed, which is how an actual implementation would coordinate
//!    randomness in `O(log n)` bits);
//! 7. the seed is transmitted within each coarse cluster over the coarse
//!    schedules;
//! 8. for each clustering in the sequence, Intra-Cluster Propagation with
//!    length `Θ(log_D α / β)`, time-multiplexed with the background
//!    processes (Algorithms 8 and 10).
//!
//! The \[CD21\] baseline is the same engine with [`CenterMode::AllNodes`] and
//! [`IcpLenMode::LogDN`] (its `Partition(β)` and `Θ(log_D n / β)` length).

use crate::icp::{cluster_ids, BgDecaySeq, IcpSeq, IcpTimeline};
use crate::mis::{run_radio_mis, MisConfig};
use radionet_cluster::partition_radio::run_radio_partition_normalized;
use radionet_cluster::quantities::j_range;
use radionet_cluster::{ClusterSchedule, Clustering, RadioPartitionConfig};
use radionet_graph::NodeId;
use radionet_primitives::ids::random_id;
use radionet_sim::{Action, CostModel, NodeCtx, Observer, Protocol, Sim, TopologyView, Wake};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which nodes may become cluster centers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CenterMode {
    /// Only MIS nodes (this paper's `Partition(β, MIS)`).
    Mis,
    /// Every node (the \[CD21\] `Partition(β)` baseline).
    AllNodes,
}

/// How the ICP length `ℓ` scales.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum IcpLenMode {
    /// `ℓ = Θ(log_D α / β)` (this paper, Theorem 2).
    LogDAlpha,
    /// `ℓ = Θ(log_D n / β)` (the \[CD21\] analysis).
    LogDN,
}

/// Configuration of `Compete` (paper constants with S2 calibration knobs).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompeteConfig {
    /// Radio MIS parameters (stage 1).
    pub mis: MisConfig,
    /// Radio partition parameters (stages 2 and 4).
    pub partition: RadioPartitionConfig,
    /// Charged-cost model for schedule construction (stages 3 and 5).
    pub cost: CostModel,
    /// Center policy (paper vs \[CD21\] ablation).
    pub centers: CenterMode,
    /// ICP length scaling (paper vs \[CD21\] ablation).
    pub icp_len: IcpLenMode,
    /// `ℓ = icp_len_factor · log_D α / β` (constant inside the paper's Θ).
    pub icp_len_factor: f64,
    /// Coarse `β = D^{coarse_beta_exp}` (paper: −1/2).
    pub coarse_beta_exp: f64,
    /// Fine-scale range: integers `j ∈ [j_lo_frac·log D, j_hi_frac·log D]`
    /// (paper: 0.01 and 0.1; widened at simulation scale — S2).
    pub j_lo_frac: f64,
    /// Upper end of the fine-scale range (fraction of `log D`).
    pub j_hi_frac: f64,
    /// Clusterings per scale = `max(1, ⌈D^{per_j_exp}⌉)` (paper: 0.2).
    pub per_j_exp: f64,
    /// Hard cap on clusterings per scale and background clusterings (the
    /// paper's polynomial counts are asymptotic bookkeeping; a handful of
    /// independent clusterings per scale already decorrelates rounds — S2).
    pub per_j_cap: usize,
    /// Sequence length = `max(4, ⌈D^{sequence_exp}⌉)` (paper: 0.99).
    pub sequence_exp: f64,
    /// Background (Algorithm 8) `β = D^{bg_beta_exp}` (paper: −0.1).
    pub bg_beta_exp: f64,
    /// Background clusterings = `max(1, ⌈D^{bg_count_exp}⌉)` (paper: 0.2).
    pub bg_count_exp: f64,
    /// Enable the Algorithm 8 + 10 background strands.
    pub background: bool,
    /// Propagation budget = `budget_factor · D · log_D α` (or `log_D n`)
    /// `+ budget_polylog_factor · log³ n` steps.
    pub budget_factor: f64,
    /// Additive polylog budget multiplier.
    pub budget_polylog_factor: f64,
    /// Stop the propagation loop once every node knows the maximum message
    /// (harness-side check between rounds; the measured quantity either way
    /// is [`CompeteOutcome::clock_all_informed`]).
    pub stop_when_informed: bool,
}

impl Default for CompeteConfig {
    fn default() -> Self {
        CompeteConfig {
            mis: MisConfig::fast(),
            partition: RadioPartitionConfig::default(),
            cost: CostModel::default(),
            centers: CenterMode::Mis,
            icp_len: IcpLenMode::LogDAlpha,
            icp_len_factor: 2.0,
            coarse_beta_exp: -0.5,
            j_lo_frac: 0.1,
            j_hi_frac: 0.45,
            per_j_exp: 0.2,
            per_j_cap: 4,
            sequence_exp: 0.99,
            bg_beta_exp: -0.1,
            bg_count_exp: 0.2,
            background: true,
            budget_factor: 60.0,
            budget_polylog_factor: 30.0,
            stop_when_informed: true,
        }
    }
}

impl CompeteConfig {
    /// The \[CD21\] ablation: all-node centers, `log_D n` ICP lengths.
    pub fn cd21() -> Self {
        CompeteConfig {
            centers: CenterMode::AllNodes,
            icp_len: IcpLenMode::LogDN,
            ..Self::default()
        }
    }

    /// The propagation step budget for this config on a network with the
    /// given estimates: `budget_factor · D · log_D α` (or `log_D n` under
    /// [`IcpLenMode::LogDN`]) `+ budget_polylog_factor · log³ n`.
    ///
    /// This is the single source of truth for the stage-8 loop's budget;
    /// the scenario catalogue also uses it as the timebase that event-time
    /// fractions refer to.
    pub fn propagation_budget(&self, info: &radionet_sim::NetInfo) -> u64 {
        let log_term = match self.icp_len {
            IcpLenMode::LogDAlpha => info.log_d_alpha(),
            IcpLenMode::LogDN => info.log_d_n(),
        };
        let l3 = (info.log_n().max(2) as f64).powi(3);
        (self.budget_factor * info.d.max(2) as f64 * log_term + self.budget_polylog_factor * l3)
            as u64
    }

    /// The length multiplier for a fine clustering at scale `j`.
    fn icp_len_for(&self, j: i64, info: &radionet_sim::NetInfo) -> u32 {
        let per_beta = 2f64.powi(j as i32); // 1/β
        let log_term = match self.icp_len {
            IcpLenMode::LogDAlpha => info.log_d_alpha(),
            IcpLenMode::LogDN => info.log_d_n(),
        };
        (self.icp_len_factor * log_term * per_beta).ceil().max(1.0) as u32
    }
}

/// One prepared fine clustering: normalized clusters, schedule, ICP
/// timeline, per-node cluster ids.
struct FineClustering {
    timeline: Arc<IcpTimeline>,
    ids: Vec<u64>,
}

/// Outcome of a `Compete` run.
#[derive(Clone, Debug)]
pub struct CompeteOutcome {
    /// Highest message known by each node at the end.
    pub best: Vec<Option<u64>>,
    /// Clock after the setup stages (MIS, clusterings, schedules, seed
    /// spread), including charged steps.
    pub clock_setup: u64,
    /// Total clock at exit.
    pub clock_total: u64,
    /// Clock value when every node first knew the maximum message (checked
    /// between propagation rounds); `None` if never achieved.
    pub clock_all_informed: Option<u64>,
    /// Whether the stage-1 MIS was a valid maximal independent set
    /// (`None` under [`CenterMode::AllNodes`]).
    pub mis_valid: Option<bool>,
    /// Fraction of nodes that received their coarse cluster's sequence seed.
    pub seed_coverage: f64,
    /// Propagation rounds executed.
    pub rounds_run: u64,
    /// Number of fine clusterings prepared.
    pub fine_count: usize,
}

impl CompeteOutcome {
    /// Whether all nodes know `target`.
    pub fn all_know(&self, target: u64) -> bool {
        self.best.iter().all(|b| *b == Some(target))
    }
}

/// Runs `Compete(S)`: `initial[v]` is `Some(message)` for nodes in `S`.
///
/// # Panics
///
/// Panics if `initial.len() != n` or no node carries a message.
pub fn run_compete<T: TopologyView, O: Observer>(
    sim: &mut Sim<'_, T, O>,
    initial: &[Option<u64>],
    config: &CompeteConfig,
) -> CompeteOutcome {
    let g = sim.graph();
    let info = *sim.info();
    let n = g.n();
    assert_eq!(initial.len(), n, "one initial message slot per node");
    let target = initial.iter().flatten().copied().max().expect("Compete needs a message");
    let log_n = info.log_n();
    let d = info.d.max(2);

    // Stage 1: centers.
    let (center_flags, mis_valid) = match config.centers {
        CenterMode::Mis => {
            let out = run_radio_mis(sim, &config.mis);
            let valid = out.is_valid(g);
            let mut flags = out.mis_flags();
            if !flags.iter().any(|&f| f) {
                // Vanishing-probability repair: an unusable MIS falls back
                // to all-node centers rather than crashing the run.
                flags = vec![true; n];
            }
            (flags, Some(valid))
        }
        CenterMode::AllNodes => (vec![true; n], None),
    };

    // Stage 2 + 3: coarse clustering and schedules.
    let beta_coarse = (d as f64).powf(config.coarse_beta_exp).min(1.0);
    let (coarse, _, _) =
        run_radio_partition_normalized(sim, &center_flags, beta_coarse, config.partition);
    let coarse = coarse.expect("coarse partition lost a center (id collision)");
    sim.charge(config.cost.schedule_build_cost(n));
    let coarse_sched = ClusterSchedule::build(g, &coarse);
    debug_assert!(coarse_sched.verify(g));

    // Stage 4 + 5: fine clusterings and schedules. The scale range follows
    // the paper's `[c₁ log D, c₂ log D]` (S2-calibrated fractions), further
    // capped so the fine-cluster radius `Θ(log n / β) = Θ(2^j log n)` stays
    // below `D` — above that the "fine" clusters would span the graph (the
    // paper's `0.1 log D` cap serves the same purpose asymptotically).
    let scales = j_range(d, config.j_lo_frac, config.j_hi_frac);
    let j_cap = ((d as f64).log2() - (log_n.max(2) as f64).log2() - 0.5).floor().max(1.0) as i64;
    let j_lo = *scales.start();
    let j_hi = (*scales.end()).min(j_cap).max(j_lo);
    let scales = j_lo..=j_hi;
    let per_j =
        ((d as f64).powf(config.per_j_exp).ceil().max(1.0) as usize).min(config.per_j_cap.max(1));
    let mut fines: Vec<FineClustering> = Vec::new();
    for j in scales {
        let beta = 2f64.powi(-(j as i32)).min(1.0);
        for _ in 0..per_j {
            let (c, _, _) =
                run_radio_partition_normalized(sim, &center_flags, beta, config.partition);
            let c = c.expect("fine partition lost a center (id collision)");
            sim.charge(config.cost.schedule_build_cost(n));
            let sched = ClusterSchedule::build(g, &c);
            debug_assert!(sched.verify(g));
            let l = config.icp_len_for(j, &info);
            fines.push(FineClustering {
                timeline: Arc::new(IcpTimeline::build(&sched, n, l)),
                ids: cluster_ids(&c),
            });
        }
    }

    // Background (Algorithm 8) clusterings.
    let mut bgs: Vec<FineClustering> = Vec::new();
    if config.background {
        let beta_bg = (d as f64).powf(config.bg_beta_exp).min(1.0);
        let bg_count = ((d as f64).powf(config.bg_count_exp).ceil().max(1.0) as usize)
            .min(config.per_j_cap.max(1));
        let l_bg = (config.icp_len_factor * (info.n.max(2) as f64).log2() / beta_bg).ceil().max(1.0)
            as u32;
        for _ in 0..bg_count {
            let (c, _, _) =
                run_radio_partition_normalized(sim, &center_flags, beta_bg, config.partition);
            let c = c.expect("background partition lost a center");
            sim.charge(config.cost.schedule_build_cost(n));
            let sched = ClusterSchedule::build(g, &c);
            debug_assert!(sched.verify(g));
            bgs.push(FineClustering {
                timeline: Arc::new(IcpTimeline::build(&sched, n, l_bg)),
                ids: cluster_ids(&c),
            });
        }
    }

    // Stage 6 + 7: sequence seeds over the coarse clusters.
    let seeds = spread_seeds(sim, &coarse, &coarse_sched);
    let seed_coverage = seeds.iter().filter(|s| s.is_some()).count() as f64 / n.max(1) as f64;
    let node_seed: Vec<u64> = seeds
        .iter()
        .enumerate()
        .map(|(i, s)| {
            s.unwrap_or_else(|| {
                // Fallback for nodes that missed the seed: derive from the
                // coarse cluster index (keeps most of the cluster aligned).
                coarse.cluster_of[i].map(|c| c as u64).unwrap_or(0)
            })
        })
        .collect();
    let clock_setup = sim.clock();

    // Stage 8: propagation rounds.
    let budget = config.propagation_budget(&info);
    let seq_len = (d as f64).powf(config.sequence_exp).ceil().max(4.0) as u64;

    let mut best: Vec<Option<u64>> = initial.to_vec();
    let mut clock_all_informed = None;
    let mut prop_steps: u64 = 0;
    let mut rounds_run = 0;
    for r in 0..seq_len {
        let mut states: Vec<RoundNode> = (0..n)
            .map(|i| {
                let v = NodeId::new(i);
                let fi = (hash_u64(node_seed[i], r) % fines.len() as u64) as usize;
                let fine = &fines[fi];
                let bg = (!bgs.is_empty()).then(|| {
                    let b = &bgs[(r % bgs.len() as u64) as usize];
                    (IcpSeq::new(b.timeline.clone(), v), BgDecaySeq::new(b.ids[i], r ^ 0xb6, log_n))
                });
                RoundNode {
                    best: best[i],
                    elapsed: 0,
                    icp_main: IcpSeq::new(fine.timeline.clone(), v),
                    decay_main: BgDecaySeq::new(fine.ids[i], r, log_n),
                    bg,
                }
            })
            .collect();
        // Wall budget: 4 strands, the slowest ICP timeline gates the round.
        let max_len = states
            .iter()
            .map(|s| {
                let a = s.icp_main.timeline_len();
                let b = s.bg.as_ref().map(|(i, _)| i.timeline_len()).unwrap_or(0);
                a.max(b)
            })
            .max()
            .unwrap_or(0) as u64;
        let wall = 4 * (max_len + 1) + 4;
        let rep = sim.run_phase(&mut states, wall);
        prop_steps += rep.steps;
        rounds_run += 1;
        for (i, s) in states.iter().enumerate() {
            best[i] = s.best;
        }
        if clock_all_informed.is_none() && best.iter().all(|b| *b == Some(target)) {
            clock_all_informed = Some(sim.clock());
            if config.stop_when_informed {
                break;
            }
        }
        if prop_steps >= budget {
            break;
        }
    }

    CompeteOutcome {
        best,
        clock_setup,
        clock_total: sim.clock(),
        clock_all_informed,
        mis_valid,
        seed_coverage,
        rounds_run,
        fine_count: fines.len(),
    }
}

/// A propagation round's per-node protocol: four time-multiplexed strands
/// sharing one `best` register (slot 0: main ICP; 1: main background decay;
/// 2: Algorithm 8 ICP; 3: Algorithm 8 background decay).
struct RoundNode {
    best: Option<u64>,
    elapsed: u64,
    icp_main: IcpSeq,
    decay_main: BgDecaySeq,
    bg: Option<(IcpSeq, BgDecaySeq)>,
}

impl Protocol for RoundNode {
    type Msg = u64;

    fn act(&mut self, ctx: &mut NodeCtx<'_>) -> Action<u64> {
        let t = ctx.time;
        self.elapsed = t;
        let sub = t / 4;
        let tx = match t % 4 {
            0 => self.icp_main.step(sub, self.best),
            1 => self.decay_main.step(sub, self.best, ctx.rng),
            2 => self.bg.as_mut().and_then(|(icp, _)| icp.step(sub, self.best)),
            _ => self.bg.as_ref().and_then(|(_, d)| d.step(sub, self.best, ctx.rng)),
        };
        match tx {
            Some(m) => Action::Transmit(m),
            None => Action::Listen,
        }
    }

    fn on_hear(&mut self, _ctx: &mut NodeCtx<'_>, msg: &u64) {
        if self.best.is_none_or(|b| b < *msg) {
            self.best = Some(*msg);
        }
    }

    fn is_done(&self) -> bool {
        let sub = self.elapsed / 4;
        self.icp_main.finished(sub)
            && self.bg.as_ref().map(|(icp, _)| icp.finished(sub)).unwrap_or(true)
    }

    fn next_wake(&self, _now: u64) -> Wake {
        if self.best.is_some() {
            // Informed: act every step. The decay strands draw a coin only
            // in blocks whose cluster coin is on (about one block in
            // log n), and that coin is a pure hash of cluster, salt and
            // block, so an exact hint needs no model change; but scanning
            // ahead for the next such block on every hint costs more than
            // the calls it saves (ROADMAP item 2).
            return Wake::Now;
        }
        // Uninformed: all four strands are silent and random-free, so the
        // node is a pure listener until the frontier reaches it. Its done
        // promise is the slowest of its own ICP timelines (4-way
        // multiplexed), matching what is_done would report step by step.
        let len_main = self.icp_main.timeline_len() as u64;
        let len_bg = self.bg.as_ref().map(|(icp, _)| icp.timeline_len() as u64).unwrap_or(0);
        Wake::Listen { wake_at: Wake::NEVER, done_at: Some(4 * len_main.max(len_bg)) }
    }
}

/// Stage 6 + 7: each coarse center draws a PRG seed; the seed is downcast
/// over the coarse schedules. Returns the per-node seed (None = missed).
fn spread_seeds<T: TopologyView, O: Observer>(
    sim: &mut Sim<'_, T, O>,
    coarse: &Clustering,
    coarse_sched: &ClusterSchedule,
) -> Vec<Option<u64>> {
    let g = sim.graph();
    let n = g.n();
    let timeline = Arc::new(IcpTimeline::build_downcast(coarse_sched, n, coarse_sched.depth));
    let wall = timeline.len() as u64 + 2;
    let mut states: Vec<SeedNode> = (0..n)
        .map(|i| {
            let v = NodeId::new(i);
            let cluster = coarse.cluster_of[i].map(|c| c as u64).unwrap_or(u64::MAX);
            let is_center =
                coarse.cluster_of[i].map(|c| coarse.centers[c as usize] == v).unwrap_or(false);
            SeedNode {
                cluster,
                is_center,
                seed: None,
                seq: IcpSeq::new(timeline.clone(), v),
                elapsed: 0,
            }
        })
        .collect();
    sim.run_phase(&mut states, wall);
    states.into_iter().map(|s| s.seed).collect()
}

/// Seed-distribution message: `(coarse cluster id, seed)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SeedMsg {
    cluster: u64,
    seed: u64,
}

struct SeedNode {
    cluster: u64,
    is_center: bool,
    seed: Option<u64>,
    seq: IcpSeq,
    elapsed: u64,
}

impl Protocol for SeedNode {
    type Msg = SeedMsg;

    fn act(&mut self, ctx: &mut NodeCtx<'_>) -> Action<SeedMsg> {
        let t = ctx.time;
        self.elapsed = t;
        if t == 0 && self.is_center {
            self.seed = Some(random_id(ctx.info.n, ctx.rng));
        }
        match self.seq.step(t, self.seed) {
            Some(seed) => Action::Transmit(SeedMsg { cluster: self.cluster, seed }),
            None => Action::Listen,
        }
    }

    fn on_hear(&mut self, _ctx: &mut NodeCtx<'_>, msg: &SeedMsg) {
        if self.seed.is_none() && msg.cluster == self.cluster {
            self.seed = Some(msg.seed);
        }
    }

    fn is_done(&self) -> bool {
        self.seq.finished(self.elapsed)
    }

    fn next_wake(&self, now: u64) -> Wake {
        let len = self.seq.timeline_len() as u64;
        // Step 0 initializes center seeds (a random draw); after that a
        // node only needs `act` in its own scheduled downcast slots — and
        // only once it has a seed to forward. Everything else is passive
        // listening; done once the timeline is exhausted.
        let done_at = Some(len);
        if self.seed.is_some() {
            match self.seq.next_scheduled_at(now + 1) {
                Some(slot) if slot < len => Wake::Listen { wake_at: slot, done_at },
                _ => Wake::Listen { wake_at: Wake::NEVER, done_at },
            }
        } else {
            Wake::Listen { wake_at: Wake::NEVER, done_at }
        }
    }
}

/// Deterministic 64-bit hash (splitmix-style) for sequence expansion.
pub fn hash_u64(key: u64, r: u64) -> u64 {
    radionet_sim::mix(key ^ r.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_graph::generators;
    use radionet_sim::NetInfo;

    fn compete_single_source(
        g: &radionet_graph::Graph,
        src: usize,
        config: &CompeteConfig,
        seed: u64,
    ) -> CompeteOutcome {
        let mut sim = Sim::new(g, NetInfo::exact(g), seed);
        let mut initial = vec![None; g.n()];
        initial[src] = Some(42u64);
        run_compete(&mut sim, &initial, config)
    }

    #[test]
    fn informs_path() {
        let g = generators::path(48);
        let out = compete_single_source(&g, 0, &CompeteConfig::default(), 1);
        assert!(
            out.all_know(42),
            "informed {}/{}",
            out.best.iter().filter(|b| **b == Some(42)).count(),
            g.n()
        );
        assert!(out.clock_all_informed.is_some());
    }

    #[test]
    fn informs_grid() {
        let g = generators::grid2d(10, 10);
        let out = compete_single_source(&g, 0, &CompeteConfig::default(), 2);
        assert!(out.all_know(42));
        assert!(out.mis_valid == Some(true));
        assert!(out.seed_coverage > 0.8, "seed coverage {}", out.seed_coverage);
    }

    #[test]
    fn informs_star_and_clique() {
        for (g, s) in [(generators::star(40), 3u64), (generators::complete(24), 4)] {
            let out = compete_single_source(&g, 1, &CompeteConfig::default(), s);
            assert!(out.all_know(42), "{g:?}");
        }
    }

    #[test]
    fn cd21_config_informs_too() {
        let g = generators::grid2d(8, 8);
        let out = compete_single_source(&g, 5, &CompeteConfig::cd21(), 5);
        assert!(out.all_know(42));
        assert!(out.mis_valid.is_none());
    }

    #[test]
    fn multi_source_highest_wins() {
        let g = generators::cycle(32);
        let mut sim = Sim::new(&g, NetInfo::exact(&g), 6);
        let mut initial = vec![None; g.n()];
        initial[0] = Some(10u64);
        initial[16] = Some(99u64);
        let out = run_compete(&mut sim, &initial, &CompeteConfig::default());
        assert!(out.all_know(99));
    }

    #[test]
    fn no_background_still_works_on_small_graphs() {
        let g = generators::grid2d(6, 6);
        let cfg = CompeteConfig { background: false, ..CompeteConfig::default() };
        let out = compete_single_source(&g, 0, &cfg, 7);
        assert!(out.all_know(42));
    }

    #[test]
    fn setup_clock_included() {
        let g = generators::grid2d(6, 6);
        let out = compete_single_source(&g, 0, &CompeteConfig::default(), 8);
        assert!(out.clock_setup > 0);
        assert!(out.clock_total >= out.clock_setup);
        if let Some(t) = out.clock_all_informed {
            assert!(t >= out.clock_setup && t <= out.clock_total);
        }
    }

    #[test]
    #[should_panic(expected = "Compete needs a message")]
    fn no_sources_rejected() {
        let g = generators::path(4);
        let mut sim = Sim::new(&g, NetInfo::exact(&g), 0);
        let _ = run_compete(&mut sim, &[None; 4], &CompeteConfig::default());
    }

    #[test]
    fn hash_u64_spreads() {
        let vals: std::collections::HashSet<u64> = (0..100).map(|r| hash_u64(7, r) % 16).collect();
        assert!(vals.len() > 8);
    }
}
