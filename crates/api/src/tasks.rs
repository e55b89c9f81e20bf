//! The standard task implementations: the paper's algorithms and every
//! baseline, one [`Task`] impl each.
//!
//! | key | algorithm | outcome variant |
//! |-----|-----------|-----------------|
//! | `broadcast` | `Compete({s})` broadcast (Thm 7) | `Broadcast` |
//! | `leader-election` | Algorithm 3 (Thm 8) | `LeaderElection` |
//! | `mis` | Radio MIS (Thm 14) | `Mis` |
//! | `partition` | MIS centers + `Partition(β, C)` (Thm 2) | `Partition` |
//! | `bgi-broadcast` | Bar-Yehuda–Goldreich–Itai Decay flood | `Broadcast` |
//! | `cr-broadcast` | Czumaj–Rytter-style broadcast | `Broadcast` |
//! | `naive-leader-election` | lottery + multi-source BGI flood | `LeaderElection` |
//! | `cd-wakeup` | collision-detection wake-up flood | `Wakeup` |
//! | `luby-mis` | Luby's LOCAL MIS reference | `Mis` |
//! | `ghaffari-mis` | Ghaffari's LOCAL MIS reference (Alg 4) | `Mis` |
//! | `traffic.gossip` | streaming multi-message gossip flood | `Traffic` |
//! | `traffic.unicast` | streaming point-to-point delivery | `Traffic` |
//! | `traffic.multicast` | streaming salted-multicast delivery | `Traffic` |

use crate::seeds;
use crate::spec::RunSpec;
use crate::task::{
    BroadcastSummary, ElectionSummary, MisSummary, PartitionSummary, Task, TaskCtx, TaskOutcome,
    WakeupSummary,
};
use crate::topology::RunTopology;
use radionet_baselines::bgi::{run_bgi_broadcast, BgiConfig};
use radionet_baselines::cd_wakeup::{run_cd_wakeup, CdWakeupConfig};
use radionet_baselines::czumaj_rytter::{run_cr_broadcast, CrConfig};
use radionet_baselines::local_mis::{ghaffari_local_mis, luby_mis, LocalMisOutcome};
use radionet_baselines::naive_le::{run_naive_leader_election, NaiveLeConfig};
use radionet_cluster::partition_radio::{run_radio_partition_normalized, RadioPartitionConfig};
use radionet_core::broadcast::run_broadcast;
use radionet_core::compete::CompeteConfig;
use radionet_core::leader_election::{run_leader_election, LeaderElectionConfig};
use radionet_core::mis::{run_radio_mis, MisConfig};
use radionet_primitives::decay::DecaySchedule;
use radionet_primitives::GossipProtocol;
use radionet_sim::{NetInfo, Observed, Observer, ReceptionMode, Sim};
use radionet_traffic::{DeliveryLedger, TrafficKind, TrafficPlan, TrafficSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The broadcast source every standard task uses (the instrumented node the
/// dynamics recipes never crash or jam).
pub const SOURCE: usize = 0;

/// The message the standard broadcast tasks disseminate.
pub const MESSAGE: u64 = 42;

fn informed_fraction(best: &[Option<u64>], target: u64, n: usize) -> f64 {
    best.iter().filter(|b| **b == Some(target)).count() as f64 / n as f64
}

/// Delegates both object-safe [`Task`] entry points (`run` on the quiet
/// simulator, `run_observed` on an [`Observed`] one) to one
/// observer-generic inherent body, so no task's algorithm text is
/// duplicated per instantiation.
macro_rules! runs_via_exec {
    () => {
        fn run(&self, sim: &mut Sim<'_, RunTopology>, ctx: &TaskCtx) -> TaskOutcome {
            self.exec(sim, ctx)
        }

        fn run_observed(
            &self,
            sim: &mut Sim<'_, RunTopology, Observed>,
            ctx: &TaskCtx,
        ) -> TaskOutcome {
            self.exec(sim, ctx)
        }
    };
}

/// `Compete({s})` broadcast from node 0 (paper, Theorem 7).
pub struct BroadcastTask;

impl BroadcastTask {
    fn exec<O: Observer>(&self, sim: &mut Sim<'_, RunTopology, O>, _ctx: &TaskCtx) -> TaskOutcome {
        let n = sim.graph().n();
        let source = sim.graph().node(SOURCE);
        let out = run_broadcast(sim, source, MESSAGE, &CompeteConfig::default());
        TaskOutcome::Broadcast(BroadcastSummary {
            completed: out.completed(),
            informed_fraction: informed_fraction(&out.compete.best, MESSAGE, n),
            clock_all_informed: out.completion_time(),
        })
    }
}

impl Task for BroadcastTask {
    fn key(&self) -> &'static str {
        "broadcast"
    }

    fn describe(&self) -> &'static str {
        "Compete({s}) broadcast from node 0 (Theorem 7, O(D log_D α + polylog n))"
    }

    fn timebase(&self, info: &NetInfo) -> u64 {
        CompeteConfig::default().propagation_budget(info)
    }

    runs_via_exec!();
}

/// Leader election via candidate lottery + `Compete(C)` (paper, Theorem 8).
pub struct LeaderElectionTask;

impl LeaderElectionTask {
    fn exec<O: Observer>(&self, sim: &mut Sim<'_, RunTopology, O>, ctx: &TaskCtx) -> TaskOutcome {
        let n = sim.graph().n();
        let out = run_leader_election(sim, ctx.lottery_seed, &LeaderElectionConfig::default());
        let agreement = match out.leader {
            Some(id) => informed_fraction(&out.compete.best, id, n),
            None => 0.0,
        };
        TaskOutcome::LeaderElection(ElectionSummary {
            succeeded: out.succeeded(),
            leader: out.leader,
            agreement,
            candidates: out.candidate_count(),
            clock_all_informed: out.compete.clock_all_informed,
        })
    }
}

impl Task for LeaderElectionTask {
    fn key(&self) -> &'static str {
        "leader-election"
    }

    fn describe(&self) -> &'static str {
        "leader election: Θ(log n / n) lottery + Compete(C) (Theorem 8)"
    }

    fn timebase(&self, info: &NetInfo) -> u64 {
        CompeteConfig::default().propagation_budget(info)
    }

    runs_via_exec!();
}

/// Radio MIS (paper, Theorem 14).
pub struct MisTask;

impl MisTask {
    fn exec<O: Observer>(&self, sim: &mut Sim<'_, RunTopology, O>, _ctx: &TaskCtx) -> TaskOutcome {
        let g = sim.graph();
        let out = run_radio_mis(sim, &MisConfig::default());
        let valid = out.is_valid(g);
        TaskOutcome::Mis(MisSummary {
            valid,
            mis_size: out.mis_nodes().len(),
            rounds: out.rounds,
            complete: out.complete,
            clock_done: valid.then(|| sim.clock()),
        })
    }
}

impl Task for MisTask {
    fn key(&self) -> &'static str {
        "mis"
    }

    fn describe(&self) -> &'static str {
        "Radio MIS in O(log³ n) steps (Theorem 14)"
    }

    fn timebase(&self, info: &NetInfo) -> u64 {
        let c = MisConfig::default();
        let log_n = MisConfig::effective_log_n(info.log_n());
        c.total_steps(log_n)
    }

    runs_via_exec!();
}

/// The β used by the standalone partition task: the coarse scale of
/// `Compete` (`β = 1/√D`), the paper's Theorem 2 workhorse.
fn partition_beta(info: &NetInfo) -> f64 {
    (info.d.max(2) as f64).powf(-0.5).min(1.0)
}

/// Radio MIS centers + `Partition(β, C)` clustering (paper, Theorem 2).
pub struct PartitionTask;

impl PartitionTask {
    fn exec<O: Observer>(&self, sim: &mut Sim<'_, RunTopology, O>, _ctx: &TaskCtx) -> TaskOutcome {
        let g = sim.graph();
        let info = *sim.info();
        let mis = run_radio_mis(sim, &MisConfig::default());
        let mut centers = mis.mis_flags();
        if !centers.iter().any(|&c| c) {
            centers = vec![true; g.n()];
        }
        let (clustering, coverage, _report) = run_radio_partition_normalized(
            sim,
            &centers,
            partition_beta(&info),
            RadioPartitionConfig::default(),
        );
        let complete = clustering.is_some();
        TaskOutcome::Partition(PartitionSummary {
            complete,
            coverage,
            clusters: clustering.map(|c| c.centers.len()).unwrap_or(0),
            clock_done: complete.then(|| sim.clock()),
        })
    }
}

impl Task for PartitionTask {
    fn key(&self) -> &'static str {
        "partition"
    }

    fn describe(&self) -> &'static str {
        "radio clustering: MIS centers + Partition(1/√D, C) (Theorem 2)"
    }

    fn timebase(&self, info: &NetInfo) -> u64 {
        let mis = MisTask.timebase(info);
        let c = RadioPartitionConfig::default();
        mis + c.total_steps(partition_beta(info), info.n, info.log_n())
    }

    runs_via_exec!();
}

/// The BGI Decay-flood broadcast baseline.
pub struct BgiBroadcastTask;

impl BgiBroadcastTask {
    fn exec<O: Observer>(&self, sim: &mut Sim<'_, RunTopology, O>, _ctx: &TaskCtx) -> TaskOutcome {
        let n = sim.graph().n();
        let source = sim.graph().node(SOURCE);
        let out = run_bgi_broadcast(sim, source, MESSAGE, &BgiConfig::default());
        TaskOutcome::Broadcast(BroadcastSummary {
            completed: out.completed(),
            informed_fraction: informed_fraction(&out.best, MESSAGE, n),
            clock_all_informed: out.clock_all_informed,
        })
    }
}

impl Task for BgiBroadcastTask {
    fn key(&self) -> &'static str {
        "bgi-broadcast"
    }

    fn describe(&self) -> &'static str {
        "BGI Decay broadcast baseline, O(D log n + log² n)"
    }

    fn timebase(&self, info: &NetInfo) -> u64 {
        BgiConfig::default().budget(info)
    }

    runs_via_exec!();
}

/// The Czumaj–Rytter-style broadcast baseline.
pub struct CrBroadcastTask;

impl CrBroadcastTask {
    fn exec<O: Observer>(&self, sim: &mut Sim<'_, RunTopology, O>, _ctx: &TaskCtx) -> TaskOutcome {
        let n = sim.graph().n();
        let source = sim.graph().node(SOURCE);
        let out = run_cr_broadcast(sim, source, MESSAGE, &CrConfig::default());
        TaskOutcome::Broadcast(BroadcastSummary {
            completed: out.completed(),
            informed_fraction: informed_fraction(&out.best, MESSAGE, n),
            clock_all_informed: out.clock_all_informed,
        })
    }
}

impl Task for CrBroadcastTask {
    fn key(&self) -> &'static str {
        "cr-broadcast"
    }

    fn describe(&self) -> &'static str {
        "Czumaj–Rytter-style broadcast baseline, O(D log(n/D) + log² n)"
    }

    fn timebase(&self, info: &NetInfo) -> u64 {
        CrConfig::default().budget(info)
    }

    runs_via_exec!();
}

/// The folklore lottery + multi-source BGI flood election baseline.
pub struct NaiveLeaderElectionTask;

impl NaiveLeaderElectionTask {
    fn exec<O: Observer>(&self, sim: &mut Sim<'_, RunTopology, O>, ctx: &TaskCtx) -> TaskOutcome {
        let n = sim.graph().n();
        let out = run_naive_leader_election(sim, ctx.lottery_seed, &NaiveLeConfig::default());
        let agreement = match out.leader {
            Some(id) => informed_fraction(&out.flood.best, id, n),
            None => 0.0,
        };
        TaskOutcome::LeaderElection(ElectionSummary {
            succeeded: out.succeeded(),
            leader: out.leader,
            agreement,
            candidates: out.candidate_ids.iter().flatten().count(),
            clock_all_informed: out.flood.clock_all_informed,
        })
    }
}

impl Task for NaiveLeaderElectionTask {
    fn key(&self) -> &'static str {
        "naive-leader-election"
    }

    fn describe(&self) -> &'static str {
        "naive leader election: lottery + multi-source BGI flood"
    }

    fn timebase(&self, info: &NetInfo) -> u64 {
        BgiConfig::default().budget(info)
    }

    runs_via_exec!();
}

/// Collision-detection wake-up flood (requires
/// [`ReceptionMode::ProtocolCd`]).
pub struct CdWakeupTask;

impl CdWakeupTask {
    fn exec<O: Observer>(&self, sim: &mut Sim<'_, RunTopology, O>, ctx: &TaskCtx) -> TaskOutcome {
        let n = sim.graph().n();
        let source = sim.graph().node(SOURCE);
        let config = CdWakeupConfig { max_steps: ctx.capped(CdWakeupConfig::default().max_steps) };
        let out = run_cd_wakeup(sim, source, &config);
        let awake = out.woke_at.iter().filter(|w| w.is_some()).count();
        TaskOutcome::Wakeup(WakeupSummary {
            complete: out.completion_steps.is_some(),
            awake_fraction: awake as f64 / n as f64,
            completion_steps: out.completion_steps,
        })
    }
}

impl Task for CdWakeupTask {
    fn key(&self) -> &'static str {
        "cd-wakeup"
    }

    fn describe(&self) -> &'static str {
        "collision-detection wake-up flood: eccentricity(source) steps exactly"
    }

    fn timebase(&self, info: &NetInfo) -> u64 {
        info.d.max(1) as u64
    }

    fn check_spec(&self, spec: &RunSpec) -> Result<(), String> {
        if spec.reception != ReceptionMode::ProtocolCd {
            return Err(format!(
                "cd-wakeup requires collision detection (reception {:?})",
                spec.reception.name()
            ));
        }
        Ok(())
    }

    runs_via_exec!();
}

/// How many Decay iterations each learned message stays *hot* (keeps
/// generating retransmissions) in the streaming-traffic pipeline. The
/// failure mode this bounds is a young flood dying: while a front is one
/// node wide, every extra iteration roughly halves the chance the relay
/// coin never lands before the window closes, and concurrent floods split
/// the round-robin airtime, eating into the margin. Ten iterations keeps
/// diameter-630 floods alive through front crossings (E22's at-scale
/// cell) while a node's per-message work stays a constant number of Decay
/// windows.
const TRAFFIC_HOT_ITERATIONS: u32 = 10;

/// The streaming-traffic delivery pipeline: a deterministic arrival plan
/// (see `radionet-traffic`) injects messages into per-node outbound
/// queues mid-run; every node floods what it knows with the queue-draining
/// [`GossipProtocol`]; the delivery ledger folds who-learned-what-when
/// back into throughput and exact latency percentiles.
///
/// One task per [`TrafficKind`]: the delivery mechanics are identical —
/// the kind picks the registry key and which nodes each message is
/// *accountable* to (everyone / one destination / a salted member set).
pub struct TrafficTask {
    kind: TrafficKind,
}

impl TrafficTask {
    /// The task for one delivery-accounting kind.
    pub fn new(kind: TrafficKind) -> Self {
        TrafficTask { kind }
    }

    fn exec<O: Observer>(&self, sim: &mut Sim<'_, RunTopology, O>, ctx: &TaskCtx) -> TaskOutcome {
        let n = sim.graph().n();
        // The spec's step cap shortens the horizon (and with it the
        // arrival window), keeping the cap semantics of the other tasks.
        let mut tspec = ctx.traffic.unwrap_or_default();
        let horizon = ctx.capped(u64::from(tspec.horizon)).max(1);
        tspec.horizon = horizon as u32;
        let plan = TrafficPlan::build(&tspec, self.kind, n as u32, seeds::traffic_seed(ctx.seed));
        let injections = plan.injections();
        let schedule = DecaySchedule::new(sim.info().log_n());
        let mut states: Vec<GossipProtocol> = (0..n)
            .map(|_| GossipProtocol::new(schedule, TRAFFIC_HOT_ITERATIONS, horizon))
            .collect();
        sim.run_phase_with_injections(&mut states, horizon, &injections);
        let mut ledger = DeliveryLedger::new(&plan, n as u32);
        for (i, st) in states.iter().enumerate() {
            for &(id, at) in st.known() {
                ledger.observe(i as u32, id, at);
            }
        }
        TaskOutcome::Traffic(ledger.report())
    }
}

impl Task for TrafficTask {
    fn key(&self) -> &'static str {
        match self.kind {
            TrafficKind::Gossip => "traffic.gossip",
            TrafficKind::Unicast => "traffic.unicast",
            TrafficKind::Multicast => "traffic.multicast",
        }
    }

    fn describe(&self) -> &'static str {
        match self.kind {
            TrafficKind::Gossip => {
                "streaming gossip: deterministic arrivals, queue-draining flood, \
                 delivery = every node"
            }
            TrafficKind::Unicast => {
                "streaming unicast: deterministic arrivals, queue-draining flood, \
                 delivery = one destination per message"
            }
            TrafficKind::Multicast => {
                "streaming multicast: deterministic arrivals, queue-draining flood, \
                 delivery = a salted member set per message"
            }
        }
    }

    /// The default horizon: dynamics fractions scale against the phase
    /// length a default-spec traffic run actually executes. (Custom
    /// horizons come through the spec, which `timebase` cannot see — the
    /// envelope stays the documented default.)
    fn timebase(&self, _info: &NetInfo) -> u64 {
        u64::from(TrafficSpec::default().horizon)
    }

    fn check_spec(&self, spec: &RunSpec) -> Result<(), String> {
        if let Some(traffic) = &spec.traffic {
            traffic.validate()?;
        }
        Ok(())
    }

    runs_via_exec!();
}

/// The LOCAL-model round budget of the reference MIS tasks — the single
/// definition both their timebases and their run caps derive from, so
/// dynamics event scripts always scale to the budget actually enforced.
fn local_mis_budget(info: &NetInfo) -> u64 {
    16 * info.log_n().max(1) as u64
}

fn local_mis_outcome(out: LocalMisOutcome, g: &radionet_graph::Graph) -> TaskOutcome {
    let valid = out.is_valid(g);
    TaskOutcome::Mis(MisSummary {
        valid,
        mis_size: out.mis.len(),
        rounds: out.rounds,
        complete: out.complete,
        clock_done: None, // LOCAL rounds are free: the radio clock never moves
    })
}

/// Luby's LOCAL MIS, a round-complexity reference (not a radio algorithm:
/// message-passing rounds are free and the dynamics overlay is ignored).
pub struct LubyMisTask;

impl LubyMisTask {
    fn exec<O: Observer>(&self, sim: &mut Sim<'_, RunTopology, O>, ctx: &TaskCtx) -> TaskOutcome {
        let g = sim.graph();
        let mut rng = StdRng::seed_from_u64(ctx.lottery_seed ^ 0x1b);
        let cap = ctx.capped(local_mis_budget(sim.info()));
        local_mis_outcome(luby_mis(g, &mut rng, cap), g)
    }
}

impl Task for LubyMisTask {
    fn key(&self) -> &'static str {
        "luby-mis"
    }

    fn describe(&self) -> &'static str {
        "Luby's LOCAL MIS reference (free rounds, O(log n))"
    }

    fn timebase(&self, info: &NetInfo) -> u64 {
        local_mis_budget(info)
    }

    runs_via_exec!();
}

/// Ghaffari's LOCAL MIS (paper, Algorithm 4), a round-complexity reference
/// (not a radio algorithm: rounds are free and the dynamics overlay is
/// ignored).
pub struct GhaffariMisTask;

impl GhaffariMisTask {
    fn exec<O: Observer>(&self, sim: &mut Sim<'_, RunTopology, O>, ctx: &TaskCtx) -> TaskOutcome {
        let g = sim.graph();
        let mut rng = StdRng::seed_from_u64(ctx.lottery_seed ^ 0x9f);
        let cap = ctx.capped(local_mis_budget(sim.info()));
        local_mis_outcome(ghaffari_local_mis(g, &mut rng, cap), g)
    }
}

impl Task for GhaffariMisTask {
    fn key(&self) -> &'static str {
        "ghaffari-mis"
    }

    fn describe(&self) -> &'static str {
        "Ghaffari's LOCAL MIS reference (Algorithm 4, free rounds)"
    }

    fn timebase(&self, info: &NetInfo) -> u64 {
        local_mis_budget(info)
    }

    runs_via_exec!();
}
