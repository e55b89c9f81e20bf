//! The run bodies of the standard tasks: one observer-generic function per
//! [`Task`](crate::Task) variant, which [`Task::run`](crate::Task::run)
//! dispatches to (the key table is on [`Task`](crate::Task)).

use crate::seeds;
use crate::task::{
    BroadcastSummary, ElectionSummary, MisSummary, PartitionSummary, TaskCtx, TaskOutcome,
    WakeupSummary,
};
use crate::topology::RunTopology;
use radionet_baselines::bgi::{run_bgi_broadcast, BgiConfig};
use radionet_baselines::cd_wakeup::{run_cd_wakeup, CdWakeupConfig};
use radionet_baselines::czumaj_rytter::{run_cr_broadcast, CrConfig};
use radionet_baselines::local_mis::{self, LocalMisOutcome};
use radionet_baselines::naive_le::{run_naive_leader_election, NaiveLeConfig};
use radionet_cluster::partition_radio::{run_radio_partition_normalized, RadioPartitionConfig};
use radionet_core::broadcast::run_broadcast;
use radionet_core::compete::CompeteConfig;
use radionet_core::leader_election::{run_leader_election, LeaderElectionConfig};
use radionet_core::mis::{run_radio_mis, MisConfig};
use radionet_primitives::decay::DecaySchedule;
use radionet_primitives::GossipProtocol;
use radionet_sim::{NetInfo, Observer, Sim};
use radionet_traffic::{DeliveryLedger, TrafficKind, TrafficPlan};
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

/// `Compete({s})` broadcast from node 0 (paper, Theorem 7).
pub(crate) fn broadcast<O: Observer>(sim: &mut Sim<'_, RunTopology, O>) -> TaskOutcome {
    let n = sim.graph().n();
    let source = sim.graph().node(SOURCE);
    let out = run_broadcast(sim, source, MESSAGE, &CompeteConfig::default());
    TaskOutcome::Broadcast(BroadcastSummary {
        completed: out.completed(),
        informed_fraction: informed_fraction(&out.compete.best, MESSAGE, n),
        clock_all_informed: out.completion_time(),
    })
}

/// Leader election via candidate lottery + `Compete(C)` (paper, Theorem 8).
pub(crate) fn leader_election<O: Observer>(
    sim: &mut Sim<'_, RunTopology, O>,
    ctx: &TaskCtx,
) -> TaskOutcome {
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

/// Radio MIS (paper, Theorem 14).
pub(crate) fn mis<O: Observer>(sim: &mut Sim<'_, RunTopology, O>) -> TaskOutcome {
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

/// The β used by the standalone partition task: the coarse scale of
/// `Compete` (`β = 1/√D`), the paper's Theorem 2 workhorse.
pub(crate) fn partition_beta(info: &NetInfo) -> f64 {
    (info.d.max(2) as f64).powf(-0.5).min(1.0)
}

/// Radio MIS centers + `Partition(β, C)` clustering (paper, Theorem 2).
pub(crate) fn partition<O: Observer>(sim: &mut Sim<'_, RunTopology, O>) -> TaskOutcome {
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

/// The BGI Decay-flood broadcast baseline.
pub(crate) fn bgi_broadcast<O: Observer>(sim: &mut Sim<'_, RunTopology, O>) -> TaskOutcome {
    let n = sim.graph().n();
    let source = sim.graph().node(SOURCE);
    let out = run_bgi_broadcast(sim, source, MESSAGE, &BgiConfig::default());
    TaskOutcome::Broadcast(BroadcastSummary {
        completed: out.completed(),
        informed_fraction: informed_fraction(&out.best, MESSAGE, n),
        clock_all_informed: out.clock_all_informed,
    })
}

/// The Czumaj–Rytter-style broadcast baseline.
pub(crate) fn cr_broadcast<O: Observer>(sim: &mut Sim<'_, RunTopology, O>) -> TaskOutcome {
    let n = sim.graph().n();
    let source = sim.graph().node(SOURCE);
    let out = run_cr_broadcast(sim, source, MESSAGE, &CrConfig::default());
    TaskOutcome::Broadcast(BroadcastSummary {
        completed: out.completed(),
        informed_fraction: informed_fraction(&out.best, MESSAGE, n),
        clock_all_informed: out.clock_all_informed,
    })
}

/// The folklore lottery + multi-source BGI flood election baseline.
pub(crate) fn naive_leader_election<O: Observer>(
    sim: &mut Sim<'_, RunTopology, O>,
    ctx: &TaskCtx,
) -> TaskOutcome {
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

/// Collision-detection wake-up flood (the spec check requires
/// [`ReceptionMode::ProtocolCd`](radionet_sim::ReceptionMode::ProtocolCd)).
pub(crate) fn cd_wakeup<O: Observer>(
    sim: &mut Sim<'_, RunTopology, O>,
    ctx: &TaskCtx,
) -> TaskOutcome {
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
/// back into throughput and exact latency percentiles. The `kind` picks
/// only which nodes each message is accountable to.
pub(crate) fn traffic<O: Observer>(
    kind: TrafficKind,
    sim: &mut Sim<'_, RunTopology, O>,
    ctx: &TaskCtx,
) -> TaskOutcome {
    let n = sim.graph().n();
    // The spec's step cap shortens the horizon (and with it the
    // arrival window), keeping the cap semantics of the other tasks.
    let mut tspec = ctx.traffic.unwrap_or_default();
    let horizon = ctx.capped(u64::from(tspec.horizon)).max(1);
    tspec.horizon = horizon as u32;
    let plan = TrafficPlan::build(&tspec, kind, n as u32, seeds::traffic_seed(ctx.seed));
    let injections = plan.injections();
    let schedule = DecaySchedule::new(sim.info().log_n());
    let mut states: Vec<GossipProtocol> =
        (0..n).map(|_| GossipProtocol::new(schedule, TRAFFIC_HOT_ITERATIONS, horizon)).collect();
    sim.run_phase_with_injections(&mut states, horizon, &injections);
    let mut ledger = DeliveryLedger::new(&plan, n as u32);
    for (i, st) in states.iter().enumerate() {
        for &(id, at) in st.known() {
            ledger.observe(i as u32, id, at);
        }
    }
    TaskOutcome::Traffic(ledger.report())
}

/// The LOCAL-model round budget of the reference MIS tasks — the single
/// definition both their timebases and their run caps derive from, so
/// dynamics event scripts always scale to the budget actually enforced.
pub(crate) fn local_mis_budget(info: &NetInfo) -> u64 {
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

/// Luby's LOCAL MIS, a round-complexity reference.
pub(crate) fn luby_mis<O: Observer>(
    sim: &mut Sim<'_, RunTopology, O>,
    ctx: &TaskCtx,
) -> TaskOutcome {
    let g = sim.graph();
    let mut rng = StdRng::seed_from_u64(ctx.lottery_seed ^ 0x1b);
    let cap = ctx.capped(local_mis_budget(sim.info()));
    local_mis_outcome(local_mis::luby_mis(g, &mut rng, cap), g)
}

/// Ghaffari's LOCAL MIS (paper, Algorithm 4), a round-complexity reference.
pub(crate) fn ghaffari_mis<O: Observer>(
    sim: &mut Sim<'_, RunTopology, O>,
    ctx: &TaskCtx,
) -> TaskOutcome {
    let g = sim.graph();
    let mut rng = StdRng::seed_from_u64(ctx.lottery_seed ^ 0x9f);
    let cap = ctx.capped(local_mis_budget(sim.info()));
    local_mis_outcome(local_mis::ghaffari_local_mis(g, &mut rng, cap), g)
}
