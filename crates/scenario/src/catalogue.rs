//! The serde-able scenario catalogue: named compositions of a graph
//! family, a workload, a reception mode, and a dynamics recipe.
//!
//! Mirroring `radionet_graph::families`, each [`Scenario`] maps `(n, seed)`
//! to a fully determined experiment cell; [`Scenario::catalogue`] lists the
//! named presets the sweeps and experiment E14 (`exp E14`) use.
//!
//! The recipe vocabulary itself ([`Dynamics`] and its spec structs) lives
//! in `radionet_api::spec` — a scenario is simply a *named*
//! [`RunSpec`](radionet_api::RunSpec) family, and [`Workload`] names the
//! registry task each cell runs.

use radionet_graph::families::Family;
use radionet_sim::{ReceptionMode, SinrConfig};
use serde::{Deserialize, Serialize};

pub use radionet_api::spec::{ChurnSpec, Dynamics, JamSpec, PartitionSpec, StaggerSpec};

/// Which algorithm a scenario cell runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Workload {
    /// `Compete({s})` broadcast from node 0 (Theorem 7).
    Broadcast,
    /// Leader election (Theorem 8).
    LeaderElection,
    /// Radio MIS (Theorem 14).
    Mis,
    /// Streaming traffic: a multi-message gossip pipeline with a
    /// deterministic arrival plan and a delivery ledger.
    Traffic,
}

impl Workload {
    /// Short stable name for tables and JSON. Doubles as the
    /// `radionet_api` task-registry key, so a [`Scenario`] converts to a
    /// [`RunSpec`](radionet_api::RunSpec) by name alone.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Broadcast => "broadcast",
            Workload::LeaderElection => "leader-election",
            Workload::Mis => "mis",
            Workload::Traffic => "traffic.gossip",
        }
    }
}

/// A fully specified named scenario.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Unique name (used in tables, JSON, and per-cell seeding).
    pub name: String,
    /// The base graph family.
    pub family: Family,
    /// The algorithm under test.
    pub workload: Workload,
    /// The reception rule.
    pub reception: ReceptionMode,
    /// The dynamics recipe.
    pub dynamics: Dynamics,
}

impl Scenario {
    /// The named presets swept by experiment E14: every dynamics recipe
    /// crossed with a geometric and a general family, broadcast as the
    /// common workload plus leader-election and MIS spot checks.
    pub fn catalogue() -> Vec<Scenario> {
        let mk = |name: &str, family, workload, dynamics| Scenario {
            name: name.to_string(),
            family,
            workload,
            reception: ReceptionMode::Protocol,
            dynamics,
        };
        let churn = Dynamics::preset("churn").expect("standard preset");
        let split = Dynamics::preset("partition-repair").expect("standard preset");
        let jam = Dynamics::preset("jamming").expect("standard preset");
        let wake = Dynamics::preset("staggered-wake").expect("standard preset");
        vec![
            mk("grid-static", Family::Grid, Workload::Broadcast, Dynamics::Static),
            mk("grid-churn", Family::Grid, Workload::Broadcast, churn),
            mk("grid-split-heal", Family::Grid, Workload::Broadcast, split),
            mk("grid-jammed", Family::Grid, Workload::Broadcast, jam),
            mk("grid-staggered", Family::Grid, Workload::Broadcast, wake),
            mk("udg-churn", Family::UnitDisk, Workload::Broadcast, churn),
            mk("udg-jammed", Family::UnitDisk, Workload::Broadcast, jam),
            mk("gnp-split-heal", Family::Gnp, Workload::Broadcast, split),
            mk("gnp-churn-le", Family::Gnp, Workload::LeaderElection, churn),
            mk("grid-churn-mis", Family::Grid, Workload::Mis, churn),
            mk("udg-jammed-mis", Family::UnitDisk, Workload::Mis, jam),
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
        let mk = |name: &str, family, workload, dynamics| Scenario {
            name: name.to_string(),
            family,
            workload,
            reception: ReceptionMode::Protocol,
            dynamics,
        };
        let sinr = |name: &str, family, workload, dynamics| Scenario {
            name: name.to_string(),
            family,
            workload,
            reception: ReceptionMode::Sinr(SinrConfig::geometric()),
            dynamics,
        };
        let preset = |name: &str| Dynamics::preset(name).expect("standard mobility preset");
        vec![
            mk("udg-waypoint", Family::UnitDisk, Workload::Broadcast, preset("mobility:waypoint")),
            mk("udg-levy", Family::UnitDisk, Workload::Broadcast, preset("mobility:levy")),
            mk("quasi-walk", Family::QuasiUnitDisk, Workload::Broadcast, preset("mobility:walk")),
            mk("ball3-group", Family::UnitBall3, Workload::Broadcast, preset("mobility:group")),
            mk(
                "georadio-waypoint-mis",
                Family::GeometricRadio,
                Workload::Mis,
                preset("mobility:waypoint"),
            ),
            sinr(
                "udg-waypoint-sinr",
                Family::UnitDisk,
                Workload::Broadcast,
                preset("mobility:waypoint"),
            ),
            sinr(
                "ball3-group-sinr",
                Family::UnitBall3,
                Workload::Broadcast,
                preset("mobility:group"),
            ),
        ]
    }

    /// The streaming-traffic scenarios: the multi-message delivery
    /// pipeline over a static and a churning grid, kept out of
    /// [`Scenario::catalogue`] like the mobility cells.
    pub fn traffic_catalogue() -> Vec<Scenario> {
        let mk = |name: &str, family, dynamics| Scenario {
            name: name.to_string(),
            family,
            workload: Workload::Traffic,
            reception: ReceptionMode::Protocol,
            dynamics,
        };
        let churn = Dynamics::preset("churn").expect("standard preset");
        vec![
            mk("grid-traffic", Family::Grid, Dynamics::Static),
            mk("grid-traffic-churn", Family::Grid, churn),
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

#[cfg(test)]
mod tests {
    use super::*;

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
            cat.iter().any(|s| s.workload == Workload::Traffic),
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

    /// The budgets dynamics fractions scale by: each workload's task
    /// timebase grows with the network and is never degenerate.
    #[test]
    fn timebase_scales_with_size() {
        use radionet_sim::NetInfo;
        let registry = radionet_api::TaskRegistry::standard();
        let small = NetInfo { n: 64, d: 14, alpha: 32.0 };
        let big = NetInfo { n: 1024, d: 62, alpha: 512.0 };
        for w in [Workload::Broadcast, Workload::LeaderElection, Workload::Mis] {
            let task = registry.get(w.name()).expect("every workload has a task");
            assert!(task.timebase(&big) > task.timebase(&small), "{}", w.name());
            assert!(task.timebase(&small) > 100, "{} timebase degenerate", w.name());
        }
    }

    #[test]
    fn workload_names_resolve_in_the_standard_registry() {
        let registry = radionet_api::TaskRegistry::standard();
        for w in [Workload::Broadcast, Workload::LeaderElection, Workload::Mis] {
            assert!(registry.get(w.name()).is_some(), "{} has no task", w.name());
        }
    }
}
