//! The named scenario catalogue and the sweeps it expands into.
//!
//! A [`Scenario`] is a named [`RunSpec`] family: a graph family, a task
//! key, a reception mode and a [`Dynamics`] recipe, instantiated
//! at any `(n, seed)`. [`Scenario::catalogue`] lists the presets experiment
//! E14 (`exp E14`) sweeps; [`Scenario::extended_catalogue`] adds the
//! mobility and streaming-traffic cells `radionet sweep` iterates.
//!
//! A [`SweepConfig`] crosses scenarios with sizes and repetitions. One
//! expansion loop, [`SweepConfig::cells`], yields each cell's spec labelled
//! with its scenario name and repetition; every cell seed derives from the
//! sweep's base seed through [`seeds::seed_for`]. The specs go to
//! [`Driver::run_sweep`](crate::Driver::run_sweep), and the sweep's rows are
//! the [`RunReport`](crate::RunReport)s it emits, in cell order.

use crate::seeds;
use crate::spec::{Dynamics, RunSpec};
use radionet_graph::families::Family;
use radionet_sim::{Kernel, ReceptionMode, SinrConfig};
use serde::{Deserialize, Serialize};

/// A fully specified named scenario.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Unique name (used in tables, JSON, and per-cell seeding).
    pub name: String,
    /// The base graph family.
    pub family: Family,
    /// The key of the task each cell runs ([`Task::key`](crate::Task::key)).
    pub task: String,
    /// The reception rule.
    pub reception: ReceptionMode,
    /// The dynamics recipe.
    pub dynamics: Dynamics,
}

impl Scenario {
    fn new(name: &str, family: Family, task: &str, dynamics: Dynamics) -> Scenario {
        Scenario {
            name: name.to_string(),
            family,
            task: task.to_string(),
            reception: ReceptionMode::Protocol,
            dynamics,
        }
    }

    /// The named presets swept by experiment E14: every dynamics recipe
    /// crossed with a geometric and a general family, broadcast as the
    /// common task plus leader-election and MIS spot checks.
    pub fn catalogue() -> Vec<Scenario> {
        let mk = Scenario::new;
        let churn = Dynamics::preset("churn").expect("standard preset");
        let split = Dynamics::preset("partition-repair").expect("standard preset");
        let jam = Dynamics::preset("jamming").expect("standard preset");
        let wake = Dynamics::preset("staggered-wake").expect("standard preset");
        vec![
            mk("grid-static", Family::Grid, "broadcast", Dynamics::Static),
            mk("grid-churn", Family::Grid, "broadcast", churn),
            mk("grid-split-heal", Family::Grid, "broadcast", split),
            mk("grid-jammed", Family::Grid, "broadcast", jam),
            mk("grid-staggered", Family::Grid, "broadcast", wake),
            mk("udg-churn", Family::UnitDisk, "broadcast", churn),
            mk("udg-jammed", Family::UnitDisk, "broadcast", jam),
            mk("gnp-split-heal", Family::Gnp, "broadcast", split),
            mk("gnp-churn-le", Family::Gnp, "leader-election", churn),
            mk("grid-churn-mis", Family::Grid, "mis", churn),
            mk("udg-jammed-mis", Family::UnitDisk, "mis", jam),
        ]
    }

    /// The mobility scenarios: geometric families whose topology is
    /// derived from a *moving* point set (`radionet-mobility`), including
    /// the physical-layer cells where SINR reception follows the live
    /// positions (geometry-calibrated — no hand-shipped coordinates).
    ///
    /// Kept separate from [`Scenario::catalogue`] so E14's dynamics sweep
    /// stays on the paper's static-geometry recipes.
    pub fn mobility_catalogue() -> Vec<Scenario> {
        let mk = |name, family, task, preset| {
            Scenario::new(name, family, task, Dynamics::preset(preset).expect("mobility preset"))
        };
        let sinr = |name, family, preset| Scenario {
            reception: ReceptionMode::Sinr(SinrConfig::geometric()),
            ..mk(name, family, "broadcast", preset)
        };
        vec![
            mk("udg-waypoint", Family::UnitDisk, "broadcast", "mobility:waypoint"),
            mk("udg-levy", Family::UnitDisk, "broadcast", "mobility:levy"),
            mk("quasi-walk", Family::QuasiUnitDisk, "broadcast", "mobility:walk"),
            mk("ball3-group", Family::UnitBall3, "broadcast", "mobility:group"),
            mk("georadio-waypoint-mis", Family::GeometricRadio, "mis", "mobility:waypoint"),
            sinr("udg-waypoint-sinr", Family::UnitDisk, "mobility:waypoint"),
            sinr("ball3-group-sinr", Family::UnitBall3, "mobility:group"),
        ]
    }

    /// The streaming-traffic scenarios: the multi-message delivery
    /// pipeline over a static and a churning grid, kept out of
    /// [`Scenario::catalogue`] like the mobility cells.
    pub fn traffic_catalogue() -> Vec<Scenario> {
        let churn = Dynamics::preset("churn").expect("standard preset");
        vec![
            Scenario::new("grid-traffic", Family::Grid, "traffic.gossip", Dynamics::Static),
            Scenario::new("grid-traffic-churn", Family::Grid, "traffic.gossip", churn),
        ]
    }

    /// [`Scenario::catalogue`] plus the mobility and traffic cells — the
    /// list CLI sweeps iterate.
    pub fn extended_catalogue() -> Vec<Scenario> {
        let mut all = Self::catalogue();
        all.extend(Self::mobility_catalogue());
        all.extend(Self::traffic_catalogue());
        all
    }
}

/// A sweep: every scenario crossed with every size, `seeds` times.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// The scenarios to run.
    pub scenarios: Vec<Scenario>,
    /// Requested graph sizes.
    pub sizes: Vec<usize>,
    /// Seeds per (scenario, size) cell.
    pub seeds: u64,
    /// Master seed mixed into every cell.
    pub base_seed: u64,
}

impl SweepConfig {
    /// The full catalogue at the given sizes.
    pub fn catalogue(sizes: Vec<usize>, seeds: u64, base_seed: u64) -> Self {
        SweepConfig { scenarios: Scenario::catalogue(), sizes, seeds, base_seed }
    }

    /// The sweep's cells under `kernel`, lazily and in deterministic order
    /// (scenario, then size, then repetition): each cell's spec, labelled
    /// with its scenario name and repetition index.
    pub fn cells(&self, kernel: Kernel) -> impl Iterator<Item = (&str, u64, RunSpec)> + '_ {
        self.scenarios.iter().flat_map(move |scenario| {
            self.sizes.iter().flat_map(move |&n| {
                (0..self.seeds).map(move |rep| {
                    let spec = RunSpec {
                        task: scenario.task.clone(),
                        family: scenario.family,
                        n,
                        reception: scenario.reception.clone(),
                        kernel,
                        dynamics: scenario.dynamics,
                        steps: None,
                        journal: None,
                        traffic: None,
                        seed: seeds::seed_for(self.base_seed, &scenario.name, n, rep),
                    };
                    (scenario.name.as_str(), rep, spec)
                })
            })
        })
    }

    /// The cells' specs alone, in cell order: the stream to hand
    /// [`Driver::run_sweep`](crate::Driver::run_sweep), so a sweep of any
    /// length holds only one block of specs at a time.
    pub fn specs(&self, kernel: Kernel) -> impl Iterator<Item = RunSpec> + '_ {
        self.cells(kernel).map(|(_, _, spec)| spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChurnSpec, JamSpec, PartitionSpec, StaggerSpec};
    use crate::{Driver, MemorySink, RunReport, Task};

    #[test]
    fn catalogue_names_unique_and_serde_stable() {
        let cat = Scenario::catalogue();
        let mut names: Vec<&str> = cat.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cat.len(), "duplicate scenario names");
        let json = serde_json::to_string_pretty(&cat).unwrap();
        let back: Vec<Scenario> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cat);
    }

    #[test]
    fn catalogue_covers_required_dynamics() {
        let cat = Scenario::catalogue();
        for required in ["churn", "partition-repair", "jamming", "staggered-wake", "static"] {
            assert!(
                cat.iter().any(|s| s.dynamics.name() == required),
                "catalogue misses {required}"
            );
        }
    }

    #[test]
    fn extended_catalogue_adds_every_mobility_preset() {
        let cat = Scenario::extended_catalogue();
        let base = Scenario::catalogue();
        assert_eq!(
            cat.len(),
            base.len() + Scenario::mobility_catalogue().len() + Scenario::traffic_catalogue().len()
        );
        assert!(
            cat.iter().any(|s| s.task == "traffic.gossip"),
            "extended catalogue misses the streaming-traffic cells"
        );
        for required in ["mobility:waypoint", "mobility:walk", "mobility:levy", "mobility:group"] {
            assert!(
                cat.iter().any(|s| s.dynamics.name() == required),
                "extended catalogue misses {required}"
            );
        }
        let mut names: Vec<&str> = cat.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cat.len(), "duplicate scenario names");
        // Mobility scenarios must stay on families with an embedding
        // (growth-bounded is not enough: Path/Grid have no positions).
        for sc in Scenario::mobility_catalogue() {
            assert!(sc.family.has_embedding(), "{} has no point embedding", sc.name);
        }
        // The physical-layer mobility cells are present and geometry-
        // sourced (no hand-shipped coordinates in the catalogue).
        let sinr: Vec<Scenario> = Scenario::mobility_catalogue()
            .into_iter()
            .filter(|s| s.reception.name() == "sinr")
            .collect();
        assert!(sinr.len() >= 2, "catalogue misses the SINR mobility cells");
        for sc in &sinr {
            match &sc.reception {
                ReceptionMode::Sinr(cfg) => assert_eq!(
                    cfg.positions,
                    radionet_sim::PositionSource::Geometry,
                    "{}: SINR cells must be geometry-sourced",
                    sc.name
                ),
                _ => unreachable!(),
            }
        }
        let json = serde_json::to_string_pretty(&cat).unwrap();
        let back: Vec<Scenario> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cat);
    }

    #[test]
    fn catalogue_presets_pin_historical_parameters() {
        // The preset constants seed every event script; changing them would
        // silently re-define every recorded sweep.
        let churn = Dynamics::preset("churn").unwrap();
        assert_eq!(
            churn,
            Dynamics::Churn(ChurnSpec { victims: 0.1, start: 0.05, spread: 0.15, down: 0.2 })
        );
        let split = Dynamics::preset("partition-repair").unwrap();
        assert_eq!(
            split,
            Dynamics::PartitionRepair(PartitionSpec { parts: 2, at: 0.05, heal_at: 0.35 })
        );
        let jam = Dynamics::preset("jamming").unwrap();
        assert_eq!(jam, Dynamics::Jamming(JamSpec { jammers: 0.05, from: 0.05, until: 0.4 }));
        let wake = Dynamics::preset("staggered-wake").unwrap();
        assert_eq!(wake, Dynamics::StaggeredWake(StaggerSpec { spread: 0.1 }));
    }

    /// The budgets dynamics fractions scale by: each catalogue task's
    /// timebase grows with the network and is never degenerate.
    #[test]
    fn timebase_scales_with_size() {
        use radionet_sim::NetInfo;
        let small = NetInfo { n: 64, d: 14, alpha: 32.0 };
        let big = NetInfo { n: 1024, d: 62, alpha: 512.0 };
        for task in [Task::Broadcast, Task::LeaderElection, Task::Mis] {
            assert!(task.timebase(&big) > task.timebase(&small), "{task:?}");
            assert!(task.timebase(&small) > 100, "{task:?} timebase degenerate");
        }
    }

    #[test]
    fn catalogue_task_keys_resolve_in_the_standard_registry() {
        for scenario in Scenario::extended_catalogue() {
            assert!(Task::from_key(&scenario.task).is_some(), "{}: no task", scenario.name);
        }
    }

    fn tiny_config() -> SweepConfig {
        let split = Dynamics::PartitionRepair(PartitionSpec { parts: 2, at: 0.05, heal_at: 0.35 });
        SweepConfig {
            scenarios: vec![
                Scenario::new("t-static", Family::Grid, "broadcast", Dynamics::Static),
                Scenario::new("t-split", Family::Grid, "broadcast", split),
            ],
            sizes: vec![36],
            seeds: 2,
            base_seed: 3,
        }
    }

    /// The sweep's reports, through the one sweep loop in blocks of `chunk`.
    fn sweep(cfg: &SweepConfig, chunk: usize) -> Vec<RunReport> {
        let mut sink = MemorySink::default();
        Driver::standard().run_sweep(cfg.specs(Kernel::default()), chunk, &mut sink).unwrap();
        sink.reports
    }

    #[test]
    fn cells_are_deterministic_and_distinct() {
        let cfg = tiny_config();
        let a: Vec<_> = cfg.cells(Kernel::default()).collect();
        let b: Vec<_> = cfg.cells(Kernel::default()).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        let labels: Vec<(&str, u64)> = a.iter().map(|(name, rep, _)| (*name, *rep)).collect();
        assert_eq!(labels, [("t-static", 0), ("t-static", 1), ("t-split", 0), ("t-split", 1)]);
        let mut seeds: Vec<u64> = a.iter().map(|(_, _, spec)| spec.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "cell seeds collide");
    }

    #[test]
    fn cell_seed_pins_the_shared_derivation() {
        // The extracted `seeds::seed_for` must keep producing the exact
        // values the sweep's private derivation always produced (the
        // companion pin for `seeds::tests::pinned_values`).
        let cfg = tiny_config();
        assert_eq!(cfg.specs(Kernel::default()).next().unwrap().seed, 0xafd9_5556_08f2_5d31);
    }

    /// Each cell's spec carries its scenario's recipe verbatim and the
    /// cell seed, so the derived sub-seeds (graph, events, sim, lottery)
    /// cannot drift.
    #[test]
    fn cell_specs_carry_the_scenario_and_the_cell_seed() {
        let cfg = SweepConfig::catalogue(vec![36], 1, 7);
        let cells: Vec<_> = cfg.cells(Kernel::Dense).collect();
        assert_eq!(cells.len(), cfg.scenarios.len());
        for ((name, rep, spec), scenario) in cells.iter().zip(&cfg.scenarios) {
            assert_eq!(*name, scenario.name);
            assert_eq!(spec.seed, seeds::seed_for(7, name, 36, *rep));
            assert_eq!(spec.task, scenario.task);
            assert_eq!(spec.family, scenario.family);
            assert_eq!(spec.reception, scenario.reception);
            assert_eq!(spec.dynamics, scenario.dynamics);
            assert_eq!(spec.kernel, Kernel::Dense);
            assert_eq!(spec.n, 36);
        }
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        // Determinism here is by construction (cells are pure functions of
        // their specs), so the check holds for any worker count; genuinely
        // multi-threaded scheduling is exercised by the vendored rayon's
        // own tests, which force a 4-worker pool explicitly.
        let cfg = tiny_config();
        let seq = sweep(&cfg, 1);
        let par = sweep(&cfg, 64);
        assert_eq!(seq, par);
        let a = serde_json::to_string_pretty(&seq).unwrap();
        let b = serde_json::to_string_pretty(&par).unwrap();
        assert_eq!(a, b, "sweep outputs must be byte-identical");
    }

    #[test]
    fn static_broadcast_succeeds() {
        let cfg = tiny_config();
        let reports = sweep(&cfg, 1);
        for ((name, _, _), r) in cfg.cells(Kernel::default()).zip(&reports) {
            if name == "t-static" {
                assert!(r.success, "static broadcast failed: {r:?}");
                assert!((r.achieved - 1.0).abs() < 1e-12);
            }
        }
    }
}
