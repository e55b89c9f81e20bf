//! The object-safe [`Task`] abstraction: one `impl` per algorithm, all
//! returning the unified [`TaskOutcome`].

use crate::spec::RunSpec;
use crate::topology::RunTopology;
use radionet_sim::{NetInfo, Observed, Sim};
use radionet_traffic::{TrafficReport, TrafficSpec};
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

/// One runnable algorithm behind the façade.
///
/// Implementations erase the divergent `run_*` signatures of the workspace
/// behind a single object-safe interface; the
/// [`TaskRegistry`](crate::TaskRegistry) maps string keys to boxed tasks,
/// so a new algorithm plugs in with one `impl` plus one registry line.
///
/// `Sim` is monomorphic over its [`Observer`](radionet_sim::Observer), so
/// a task has two object-safe entry points: [`Task::run`] on the quiet
/// simulator and [`Task::run_observed`] on the one recording a journal,
/// metrics, or both. Both forward to one observer-generic body:
///
/// ```
/// use radionet_api::{Driver, RunSpec, Task, TaskCtx, TaskOutcome, TaskRegistry};
/// use radionet_api::topology::RunTopology;
/// use radionet_graph::families::Family;
/// use radionet_sim::{NetInfo, Observed, Observer, Registry, Sim};
///
/// struct NoOp;
/// impl NoOp {
///     fn exec<O: Observer>(&self, sim: &mut Sim<'_, RunTopology, O>) -> TaskOutcome {
///         TaskOutcome::Broadcast(radionet_api::task::BroadcastSummary {
///             completed: true,
///             informed_fraction: 1.0,
///             clock_all_informed: Some(sim.clock()),
///         })
///     }
/// }
/// impl Task for NoOp {
///     fn key(&self) -> &'static str { "no-op" }
///     fn describe(&self) -> &'static str { "does nothing, succeeds instantly" }
///     fn timebase(&self, info: &NetInfo) -> u64 { info.d as u64 }
///     fn run(&self, sim: &mut Sim<'_, RunTopology>, _ctx: &TaskCtx) -> TaskOutcome {
///         self.exec(sim)
///     }
///     fn run_observed(
///         &self,
///         sim: &mut Sim<'_, RunTopology, Observed>,
///         _ctx: &TaskCtx,
///     ) -> TaskOutcome {
///         self.exec(sim)
///     }
/// }
///
/// let registry = || {
///     let mut registry = TaskRegistry::standard();
///     registry.register(Box::new(NoOp));
///     registry
/// };
/// let spec = RunSpec::new("no-op", Family::Grid, 16);
/// assert!(Driver::with_registry(registry()).run(&spec).unwrap().success);
/// // Telemetry-attached and journaled runs take the observed entry point.
/// let timed = Driver::with_registry(registry()).with_telemetry(Registry::default());
/// assert!(timed.run(&spec).unwrap().success);
/// let (report, journal) = timed.run_journaled(&spec).unwrap();
/// assert_eq!(report.journal, Some(journal.summary()));
/// ```
pub trait Task: Send + Sync {
    /// The registry key (stable, kebab-case).
    fn key(&self) -> &'static str;

    /// One-line human description for `radionet list-tasks`.
    fn describe(&self) -> &'static str;

    /// The step budget envelope dynamics fractions scale against: an
    /// a-priori estimate of how long the task keeps running, computable
    /// from [`NetInfo`] alone.
    fn timebase(&self, info: &NetInfo) -> u64;

    /// Spec validation beyond [`RunSpec::validate`] (e.g. a required
    /// reception mode). The default accepts everything.
    fn check_spec(&self, _spec: &RunSpec) -> Result<(), String> {
        Ok(())
    }

    /// Runs the algorithm on a prepared simulator. The driver owns graph
    /// construction, event materialization, and kernel selection; the task
    /// only runs its protocol and summarizes the outcome.
    fn run(&self, sim: &mut Sim<'_, RunTopology>, ctx: &TaskCtx) -> TaskOutcome;

    /// [`Task::run`], but on a simulator recording a journal, metrics, or
    /// both — what [`Driver::run_journaled`](crate::Driver::run_journaled)
    /// and a telemetry-attached [`Driver`](crate::Driver) call. The outcome
    /// must not depend on the observer (recording is observation, never
    /// steering).
    fn run_observed(&self, sim: &mut Sim<'_, RunTopology, Observed>, ctx: &TaskCtx) -> TaskOutcome;
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
