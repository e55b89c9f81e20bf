//! The closed set of runnable algorithms, [`Task`], and the unified
//! [`TaskOutcome`] every one of them returns.

use crate::spec::RunSpec;
use crate::tasks;
use crate::topology::RunTopology;
use radionet_baselines::bgi::BgiConfig;
use radionet_baselines::czumaj_rytter::CrConfig;
use radionet_cluster::partition_radio::RadioPartitionConfig;
use radionet_core::compete::CompeteConfig;
use radionet_core::mis::MisConfig;
use radionet_sim::{NetInfo, Observer, ReceptionMode, Sim};
use radionet_traffic::{TrafficKind, TrafficReport, TrafficSpec};
use serde::{Deserialize, Serialize};

/// Per-run inputs a task receives beyond the simulator itself.
#[derive(Clone, Copy, Debug)]
pub struct TaskCtx {
    /// The spec's cell seed (every derived stream comes from
    /// [`seeds`](crate::seeds)).
    pub seed: u64,
    /// Seed for node-private zero-cost lotteries
    /// ([`seeds::lottery_seed`](crate::seeds::lottery_seed) of the cell
    /// seed).
    pub lottery_seed: u64,
    /// Optional cap on the task's own step budget
    /// ([`RunSpec::steps`]).
    pub step_cap: Option<u64>,
    /// The spec's streaming-traffic axis ([`RunSpec::traffic`]), read by
    /// the `traffic.*` tasks (`None` runs their defaults); other tasks
    /// ignore it.
    pub traffic: Option<TrafficSpec>,
}

impl TaskCtx {
    /// Applies the spec's step cap to a task's default budget.
    pub fn capped(&self, budget: u64) -> u64 {
        match self.step_cap {
            Some(cap) => budget.min(cap),
            None => budget,
        }
    }
}

/// One runnable algorithm behind the façade: the paper's algorithms and
/// every baseline, one variant each.
///
/// A [`RunSpec`] names its task by [`key`](Task::key). The
/// [`Driver`](crate::Driver) owns graph construction, event
/// materialization and kernel selection; the task only runs its protocol
/// and summarizes the outcome. [`Task::run`] is generic over the
/// simulator's [`Observer`], so each algorithm has one body (in
/// [`tasks`]) for quiet, journaled and timed runs alike. A new algorithm
/// is one variant and its arms in the matches below.
///
/// | key | algorithm | outcome variant |
/// |-----|-----------|-----------------|
/// | `broadcast` | `Compete({s})` broadcast (Thm 7) | `Broadcast` |
/// | `leader-election` | Algorithm 3 (Thm 8) | `LeaderElection` |
/// | `mis` | Radio MIS (Thm 14) | `Mis` |
/// | `partition` | MIS centers + `Partition(β, C)` (Thm 2) | `Partition` |
/// | `bgi-broadcast` | Bar-Yehuda–Goldreich–Itai Decay flood | `Broadcast` |
/// | `cr-broadcast` | Czumaj–Rytter-style broadcast | `Broadcast` |
/// | `naive-leader-election` | lottery + multi-source BGI flood | `LeaderElection` |
/// | `cd-wakeup` | collision-detection wake-up flood | `Wakeup` |
/// | `luby-mis` | Luby's LOCAL MIS reference | `Mis` |
/// | `ghaffari-mis` | Ghaffari's LOCAL MIS reference (Alg 4) | `Mis` |
/// | `traffic.gossip` | streaming multi-message gossip flood | `Traffic` |
/// | `traffic.unicast` | streaming point-to-point delivery | `Traffic` |
/// | `traffic.multicast` | streaming salted-multicast delivery | `Traffic` |
///
/// ```
/// use radionet_api::{Task, TrafficKind};
///
/// let task = Task::from_key("traffic.unicast").unwrap();
/// assert_eq!(task, Task::Traffic(TrafficKind::Unicast));
/// assert_eq!(task.key(), "traffic.unicast");
/// assert!(Task::from_key("warp-drive").is_none());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Task {
    /// `Compete({s})` broadcast from node 0 (paper, Theorem 7).
    Broadcast,
    /// Leader election via candidate lottery + `Compete(C)` (paper,
    /// Theorem 8).
    LeaderElection,
    /// Radio MIS (paper, Theorem 14).
    Mis,
    /// Radio MIS centers + `Partition(β, C)` clustering (paper, Theorem 2).
    Partition,
    /// The BGI Decay-flood broadcast baseline.
    BgiBroadcast,
    /// The Czumaj–Rytter-style broadcast baseline.
    CrBroadcast,
    /// The folklore lottery + multi-source BGI flood election baseline.
    NaiveLeaderElection,
    /// Collision-detection wake-up flood (requires
    /// [`ReceptionMode::ProtocolCd`]).
    CdWakeup,
    /// Luby's LOCAL MIS, a round-complexity reference (not a radio
    /// algorithm: message-passing rounds are free and the dynamics overlay
    /// is ignored).
    LubyMis,
    /// Ghaffari's LOCAL MIS (paper, Algorithm 4), a round-complexity
    /// reference (not a radio algorithm: rounds are free and the dynamics
    /// overlay is ignored).
    GhaffariMis,
    /// The streaming-traffic delivery pipeline, one task per
    /// [`TrafficKind`]: the delivery mechanics are identical — the kind
    /// picks the key and which nodes each message is *accountable* to
    /// (everyone / one destination / a salted member set).
    Traffic(TrafficKind),
}

impl Task {
    /// Every task, sorted by key: the order `radionet list-tasks` prints
    /// and [`TaskRegistry::keys`](crate::TaskRegistry::keys) yields.
    pub const ALL: [Task; 13] = [
        Task::BgiBroadcast,
        Task::Broadcast,
        Task::CdWakeup,
        Task::CrBroadcast,
        Task::GhaffariMis,
        Task::LeaderElection,
        Task::LubyMis,
        Task::Mis,
        Task::NaiveLeaderElection,
        Task::Partition,
        Task::Traffic(TrafficKind::Gossip),
        Task::Traffic(TrafficKind::Multicast),
        Task::Traffic(TrafficKind::Unicast),
    ];

    /// The task `key` names, if any.
    pub fn from_key(key: &str) -> Option<Task> {
        Task::ALL.into_iter().find(|task| task.key() == key)
    }

    /// The key a [`RunSpec`] names the task by (stable, kebab-case).
    pub fn key(self) -> &'static str {
        match self {
            Task::Broadcast => "broadcast",
            Task::LeaderElection => "leader-election",
            Task::Mis => "mis",
            Task::Partition => "partition",
            Task::BgiBroadcast => "bgi-broadcast",
            Task::CrBroadcast => "cr-broadcast",
            Task::NaiveLeaderElection => "naive-leader-election",
            Task::CdWakeup => "cd-wakeup",
            Task::LubyMis => "luby-mis",
            Task::GhaffariMis => "ghaffari-mis",
            Task::Traffic(TrafficKind::Gossip) => "traffic.gossip",
            Task::Traffic(TrafficKind::Unicast) => "traffic.unicast",
            Task::Traffic(TrafficKind::Multicast) => "traffic.multicast",
        }
    }

    /// One-line human description for `radionet list-tasks`.
    pub fn describe(self) -> &'static str {
        match self {
            Task::Broadcast => {
                "Compete({s}) broadcast from node 0 (Theorem 7, O(D log_D α + polylog n))"
            }
            Task::LeaderElection => {
                "leader election: Θ(log n / n) lottery + Compete(C) (Theorem 8)"
            }
            Task::Mis => "Radio MIS in O(log³ n) steps (Theorem 14)",
            Task::Partition => "radio clustering: MIS centers + Partition(1/√D, C) (Theorem 2)",
            Task::BgiBroadcast => "BGI Decay broadcast baseline, O(D log n + log² n)",
            Task::CrBroadcast => "Czumaj–Rytter-style broadcast baseline, O(D log(n/D) + log² n)",
            Task::NaiveLeaderElection => "naive leader election: lottery + multi-source BGI flood",
            Task::CdWakeup => {
                "collision-detection wake-up flood: eccentricity(source) steps exactly"
            }
            Task::LubyMis => "Luby's LOCAL MIS reference (free rounds, O(log n))",
            Task::GhaffariMis => "Ghaffari's LOCAL MIS reference (Algorithm 4, free rounds)",
            Task::Traffic(TrafficKind::Gossip) => {
                "streaming gossip: deterministic arrivals, queue-draining flood, \
                 delivery = every node"
            }
            Task::Traffic(TrafficKind::Unicast) => {
                "streaming unicast: deterministic arrivals, queue-draining flood, \
                 delivery = one destination per message"
            }
            Task::Traffic(TrafficKind::Multicast) => {
                "streaming multicast: deterministic arrivals, queue-draining flood, \
                 delivery = a salted member set per message"
            }
        }
    }

    /// The step budget envelope dynamics fractions scale against: an
    /// a-priori estimate of how long the task keeps running, computable
    /// from [`NetInfo`] alone.
    pub fn timebase(self, info: &NetInfo) -> u64 {
        match self {
            Task::Broadcast | Task::LeaderElection => {
                CompeteConfig::default().propagation_budget(info)
            }
            Task::Mis => {
                let c = MisConfig::default();
                let log_n = MisConfig::effective_log_n(info.log_n());
                c.total_steps(log_n)
            }
            Task::Partition => {
                let mis = Task::Mis.timebase(info);
                let c = RadioPartitionConfig::default();
                mis + c.total_steps(tasks::partition_beta(info), info.n, info.log_n())
            }
            Task::BgiBroadcast | Task::NaiveLeaderElection => BgiConfig::default().budget(info),
            Task::CrBroadcast => CrConfig::default().budget(info),
            Task::CdWakeup => info.d.max(1) as u64,
            Task::LubyMis | Task::GhaffariMis => tasks::local_mis_budget(info),
            // The default horizon: dynamics fractions scale against the
            // phase length a default-spec traffic run actually executes.
            // (Custom horizons come through the spec, which `timebase`
            // cannot see — the envelope stays the documented default.)
            Task::Traffic(_) => u64::from(TrafficSpec::default().horizon),
        }
    }

    /// Spec validation beyond [`RunSpec::validate`]: `cd-wakeup` requires
    /// collision detection, and a traffic task's traffic axis must be
    /// valid. Every other task accepts everything.
    pub fn check_spec(self, spec: &RunSpec) -> Result<(), String> {
        match self {
            Task::CdWakeup if spec.reception != ReceptionMode::ProtocolCd => Err(format!(
                "cd-wakeup requires collision detection (reception {:?})",
                spec.reception.name()
            )),
            Task::Traffic(_) => match &spec.traffic {
                Some(traffic) => traffic.validate(),
                None => Ok(()),
            },
            _ => Ok(()),
        }
    }

    /// Runs the algorithm on a prepared simulator under any observer. The
    /// outcome does not depend on the observer (recording is observation,
    /// never steering).
    pub fn run<O: Observer>(self, sim: &mut Sim<'_, RunTopology, O>, ctx: &TaskCtx) -> TaskOutcome {
        match self {
            Task::Broadcast => tasks::broadcast(sim),
            Task::LeaderElection => tasks::leader_election(sim, ctx),
            Task::Mis => tasks::mis(sim),
            Task::Partition => tasks::partition(sim),
            Task::BgiBroadcast => tasks::bgi_broadcast(sim),
            Task::CrBroadcast => tasks::cr_broadcast(sim),
            Task::NaiveLeaderElection => tasks::naive_leader_election(sim, ctx),
            Task::CdWakeup => tasks::cd_wakeup(sim, ctx),
            Task::LubyMis => tasks::luby_mis(sim, ctx),
            Task::GhaffariMis => tasks::ghaffari_mis(sim, ctx),
            Task::Traffic(kind) => tasks::traffic(kind, sim, ctx),
        }
    }
}

/// Summary of a message dissemination (single- or multi-source).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BroadcastSummary {
    /// Whether every node learned the source message.
    pub completed: bool,
    /// Fraction of nodes knowing the source message at exit.
    pub informed_fraction: f64,
    /// Clock when every node first knew it, if ever.
    pub clock_all_informed: Option<u64>,
}

/// Summary of a leader election.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ElectionSummary {
    /// Whether a unique leader was agreed on by every node.
    pub succeeded: bool,
    /// The elected identifier, if any.
    pub leader: Option<u64>,
    /// Fraction of nodes agreeing on the leader at exit.
    pub agreement: f64,
    /// Number of candidates in the lottery.
    pub candidates: usize,
    /// Clock when every node first knew the winner, if ever.
    pub clock_all_informed: Option<u64>,
}

/// Summary of a maximal-independent-set computation (radio or LOCAL).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MisSummary {
    /// Whether the output is a valid MIS of the base graph.
    pub valid: bool,
    /// Members of the returned set.
    pub mis_size: usize,
    /// Rounds consumed (radio rounds or LOCAL rounds).
    pub rounds: u64,
    /// Whether every node decided within the budget.
    pub complete: bool,
    /// Clock when validity was established, if it was.
    pub clock_done: Option<u64>,
}

/// Summary of a radio clustering (`Partition(β, C)`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PartitionSummary {
    /// Whether normalization succeeded (every cluster kept its center).
    pub complete: bool,
    /// Fraction of nodes assigned to some cluster.
    pub coverage: f64,
    /// Number of clusters formed.
    pub clusters: usize,
    /// Clock when the partition phase ended, if it completed.
    pub clock_done: Option<u64>,
}

/// Summary of a wake-up flood.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WakeupSummary {
    /// Whether every node woke within the budget.
    pub complete: bool,
    /// Fraction of nodes awake at exit.
    pub awake_fraction: f64,
    /// Steps until the last node woke, if all did.
    pub completion_steps: Option<u64>,
}

/// Summary of a streaming-traffic run is [`TrafficReport`] (defined in
/// `radionet-traffic`, next to the delivery ledger that produces it).
///
/// The unified, serde-able summary of any task's run.
///
/// Variants are shared across algorithms solving the same problem (the BGI
/// and Czumaj–Rytter baselines report [`TaskOutcome::Broadcast`] just like
/// `Compete`-broadcast does), so reports from different tasks compare
/// field-for-field.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum TaskOutcome {
    /// A message dissemination.
    Broadcast(BroadcastSummary),
    /// A leader election.
    LeaderElection(ElectionSummary),
    /// A maximal-independent-set computation.
    Mis(MisSummary),
    /// A radio clustering.
    Partition(PartitionSummary),
    /// A wake-up flood.
    Wakeup(WakeupSummary),
    /// A streaming-traffic delivery pipeline.
    Traffic(TrafficReport),
}

impl TaskOutcome {
    /// Whether the task's own success criterion held.
    pub fn success(&self) -> bool {
        match *self {
            TaskOutcome::Broadcast(b) => b.completed,
            TaskOutcome::LeaderElection(e) => e.succeeded,
            TaskOutcome::Mis(m) => m.valid,
            TaskOutcome::Partition(p) => p.complete,
            TaskOutcome::Wakeup(w) => w.complete,
            TaskOutcome::Traffic(t) => t.undelivered == 0,
        }
    }

    /// Task-specific achievement in `[0, 1]` (informed/agreeing/awake
    /// fraction, cluster coverage, or MIS validity).
    pub fn achieved(&self) -> f64 {
        match *self {
            TaskOutcome::Broadcast(b) => b.informed_fraction,
            TaskOutcome::LeaderElection(e) => e.agreement,
            TaskOutcome::Mis(m) => {
                if m.valid {
                    1.0
                } else {
                    0.0
                }
            }
            TaskOutcome::Partition(p) => p.coverage,
            TaskOutcome::Wakeup(w) => w.awake_fraction,
            TaskOutcome::Traffic(t) => {
                if t.injected == 0 {
                    1.0
                } else {
                    t.delivered as f64 / t.injected as f64
                }
            }
        }
    }

    /// Clock when the success criterion was first met, if ever.
    pub fn clock_done(&self) -> Option<u64> {
        match *self {
            TaskOutcome::Broadcast(b) => b.clock_all_informed,
            TaskOutcome::LeaderElection(e) => e.clock_all_informed,
            TaskOutcome::Mis(m) => m.clock_done,
            TaskOutcome::Partition(p) => p.clock_done,
            TaskOutcome::Wakeup(w) => w.completion_steps,
            // A stream has no single completion instant; the percentile
            // fields carry the latency story.
            TaskOutcome::Traffic(_) => None,
        }
    }

    /// The outcome kind, for tables.
    pub fn kind(&self) -> &'static str {
        match self {
            TaskOutcome::Broadcast(_) => "broadcast",
            TaskOutcome::LeaderElection(_) => "leader-election",
            TaskOutcome::Mis(_) => "mis",
            TaskOutcome::Partition(_) => "partition",
            TaskOutcome::Wakeup(_) => "wakeup",
            TaskOutcome::Traffic(_) => "traffic",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        let b = TaskOutcome::Broadcast(BroadcastSummary {
            completed: true,
            informed_fraction: 0.75,
            clock_all_informed: Some(10),
        });
        assert!(b.success());
        assert_eq!(b.achieved(), 0.75);
        assert_eq!(b.clock_done(), Some(10));
        assert_eq!(b.kind(), "broadcast");

        let m = TaskOutcome::Mis(MisSummary {
            valid: false,
            mis_size: 3,
            rounds: 7,
            complete: true,
            clock_done: None,
        });
        assert!(!m.success());
        assert_eq!(m.achieved(), 0.0);
        assert_eq!(m.clock_done(), None);
    }

    #[test]
    fn outcome_serde_round_trip() {
        let outcomes = vec![
            TaskOutcome::Broadcast(BroadcastSummary {
                completed: true,
                informed_fraction: 1.0,
                clock_all_informed: Some(42),
            }),
            TaskOutcome::LeaderElection(ElectionSummary {
                succeeded: false,
                leader: None,
                agreement: 0.0,
                candidates: 0,
                clock_all_informed: None,
            }),
            TaskOutcome::Mis(MisSummary {
                valid: true,
                mis_size: 9,
                rounds: 3,
                complete: true,
                clock_done: Some(5),
            }),
            TaskOutcome::Partition(PartitionSummary {
                complete: true,
                coverage: 0.99,
                clusters: 4,
                clock_done: Some(8),
            }),
            TaskOutcome::Wakeup(WakeupSummary {
                complete: true,
                awake_fraction: 1.0,
                completion_steps: Some(31),
            }),
            TaskOutcome::Traffic(TrafficReport {
                injected: 12,
                delivered: 11,
                undelivered: 1,
                throughput_per_kstep: 21.484375,
                first_p50: 9,
                first_p90: 17,
                first_p99: 30,
                full_p50: 31,
                full_p90: 60,
                full_p99: 95,
            }),
        ];
        let json = serde_json::to_string_pretty(&outcomes).unwrap();
        let back: Vec<TaskOutcome> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, outcomes);
    }

    #[test]
    fn all_is_sorted_by_key_and_keys_round_trip() {
        assert!(Task::ALL.windows(2).all(|w| w[0].key() < w[1].key()), "Task::ALL out of order");
        for task in Task::ALL {
            assert_eq!(Task::from_key(task.key()), Some(task));
        }
    }

    #[test]
    fn ctx_capping() {
        let ctx = TaskCtx { seed: 0, lottery_seed: 0, step_cap: Some(100), traffic: None };
        assert_eq!(ctx.capped(500), 100);
        assert_eq!(ctx.capped(50), 50);
        let open = TaskCtx { seed: 0, lottery_seed: 0, step_cap: None, traffic: None };
        assert_eq!(open.capped(500), 500);
    }

    #[test]
    fn traffic_outcome_accessors() {
        let full = TaskOutcome::Traffic(TrafficReport {
            injected: 10,
            delivered: 10,
            undelivered: 0,
            throughput_per_kstep: 19.53125,
            first_p50: 4,
            first_p90: 7,
            first_p99: 9,
            full_p50: 12,
            full_p90: 20,
            full_p99: 25,
        });
        assert!(full.success());
        assert_eq!(full.achieved(), 1.0);
        assert_eq!(full.clock_done(), None, "streams have no single completion instant");
        assert_eq!(full.kind(), "traffic");
        let TaskOutcome::Traffic(mut partial) = full else { unreachable!() };
        partial.delivered = 5;
        partial.undelivered = 5;
        let partial = TaskOutcome::Traffic(partial);
        assert!(!partial.success());
        assert_eq!(partial.achieved(), 0.5);
    }
}
