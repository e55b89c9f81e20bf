//! Robustness and failure-injection tests: estimate slack, disconnected
//! inputs, exhausted budgets, adversarial seeds, and dynamic topologies.

use radionet::api::{
    dynamics::DynamicTopology,
    events::{EventKind, ScenarioEvent},
};
use radionet::core::broadcast::run_broadcast;
use radionet::core::compete::CompeteConfig;
use radionet::core::mis::{run_radio_mis, MisConfig};
use radionet::graph::families::Family;
use radionet::graph::Graph;
use radionet::sim::{CostModel, NetInfo, ReceptionMode, Sim};

#[test]
fn estimate_slack_tolerated() {
    // The ad-hoc model only promises linear upper estimates of n and D and
    // a polynomial approximation of α; double everything and the pipeline
    // must still work (paper, Section 1.1).
    let g = Family::Grid.instantiate(49, 3);
    let info = NetInfo::with_slack(&g, 2.0);
    let mut sim = Sim::new(&g, info, 9);
    let out = run_broadcast(&mut sim, g.node(0), 5, &CompeteConfig::default());
    assert!(out.completed(), "slack-2 estimates broke broadcast");

    let mut sim = Sim::new(&g, info, 10);
    let mis = run_radio_mis(&mut sim, &MisConfig::default());
    assert!(mis.is_valid(&g), "slack-2 estimates broke MIS");
}

#[test]
fn mis_works_disconnected() {
    // MIS is a local problem: no connectivity needed (paper, Section 1.2).
    let mut edges = Vec::new();
    // Three components: a triangle, an edge, an isolated node.
    edges.extend([(0, 1), (1, 2), (2, 0), (3, 4)]);
    let g = Graph::from_edges(6, edges).unwrap();
    let info = NetInfo { n: 6, d: 2, alpha: 3.0 };
    let mut sim = Sim::new(&g, info, 4);
    let out = run_radio_mis(&mut sim, &MisConfig::default());
    assert!(out.is_valid(&g));
    // The isolated node must be in the MIS.
    assert!(out.mis_flags()[5]);
}

#[test]
fn tiny_graphs() {
    for n in [4usize, 5, 6] {
        let g = Family::Path.instantiate(n, 0);
        let info = NetInfo::exact(&g);
        let mut sim = Sim::new(&g, info, 2);
        let out = run_broadcast(&mut sim, g.node(0), 1, &CompeteConfig::default());
        assert!(out.completed(), "path of {n}");
    }
}

#[test]
fn free_cost_model_still_correct() {
    // Disabling charged costs only changes accounting, not behavior.
    let g = Family::UnitDisk.instantiate(48, 7);
    let info = NetInfo::exact(&g);
    let config = CompeteConfig { cost: CostModel::free(), ..CompeteConfig::default() };
    let mut sim = Sim::new(&g, info, 3);
    let out = run_broadcast(&mut sim, g.node(0), 2, &config);
    assert!(out.completed());
    assert_eq!(sim.stats().charged_steps, 0);
}

#[test]
fn starved_budget_reports_incomplete() {
    // A propagation budget of ~zero cannot inform a long path; the outcome
    // must say so rather than lie.
    let g = Family::Path.instantiate(96, 0);
    let info = NetInfo::exact(&g);
    let config = CompeteConfig {
        budget_factor: 0.0,
        budget_polylog_factor: 0.0,
        sequence_exp: 0.0, // 4 rounds minimum
        ..CompeteConfig::default()
    };
    let mut sim = Sim::new(&g, info, 3);
    let out = run_broadcast(&mut sim, g.node(95), 2, &config);
    assert!(!out.completed());
    assert!(out.completion_time().is_none());
}

#[test]
fn partition_then_repair_broadcast_completes() {
    // End-to-end dynamic-network scenario: the grid splits into two halves
    // before the run makes progress, heals mid-run, and broadcast must
    // still complete — the recovery guarantee the scenario subsystem
    // exists to measure. The run is also a pure function of the seed: two
    // executions must agree step-for-step.
    let g = Family::Grid.instantiate(49, 5);
    let info = NetInfo::exact(&g);
    let script = vec![
        ScenarioEvent::new(100, EventKind::Partition(2)),
        ScenarioEvent::new(3500, EventKind::Heal),
    ];
    let run = |seed: u64| {
        let topo = DynamicTopology::new(&g, script.clone());
        let mut sim = Sim::with_topology(&g, topo, info, seed, ReceptionMode::Protocol);
        let out = run_broadcast(&mut sim, g.node(0), 9, &CompeteConfig::default());
        (out.completed(), out.completion_time(), sim.stats().simulated_steps)
    };
    let (completed, informed_at, steps) = run(21);
    assert!(completed, "broadcast did not recover after the repair");
    let informed_at = informed_at.expect("completed runs report an informed time");
    assert!(informed_at > 3500, "cannot finish while the cut is open");

    let (c2, t2, s2) = run(21);
    assert!(c2);
    assert_eq!(t2, Some(informed_at), "informed time not deterministic");
    assert_eq!(s2, steps, "step count not deterministic for a fixed seed");

    let (_, t3, _) = run(22);
    assert_ne!(t3, Some(informed_at), "different seeds should differ");
}

#[test]
fn crashed_half_defeats_broadcast_without_repair() {
    // Control for the test above: a partition that never heals must leave
    // the far block uninformed (the engine cannot leak messages across a
    // cut).
    let g = Family::Grid.instantiate(36, 2);
    let info = NetInfo::exact(&g);
    let script = vec![ScenarioEvent::new(0, EventKind::Partition(2))];
    let topo = DynamicTopology::new(&g, script);
    let mut sim = Sim::with_topology(&g, topo, info, 4, ReceptionMode::Protocol);
    let out = run_broadcast(&mut sim, g.node(0), 9, &CompeteConfig::default());
    assert!(!out.completed(), "a permanent cut must not be crossed");
    let informed = out.compete.best.iter().filter(|b| **b == Some(9)).count();
    assert!(informed < g.n(), "some node past the cut stayed uninformed");
    assert!(informed > 0, "the source's own block must still be informed");
}

#[test]
fn many_seeds_broadcast_whp() {
    // "whp" sanity: 20 independent seeds on one instance, all complete.
    let g = Family::Grid.instantiate(36, 1);
    let info = NetInfo::exact(&g);
    let mut failures = 0;
    for seed in 0..20u64 {
        let mut sim = Sim::new(&g, info, seed);
        let out = run_broadcast(&mut sim, g.node(0), 3, &CompeteConfig::default());
        if !out.completed() {
            failures += 1;
        }
    }
    assert_eq!(failures, 0, "{failures}/20 broadcasts failed");
}

#[test]
fn many_seeds_mis_whp() {
    let g = Family::Gnp.instantiate(64, 2);
    let info = NetInfo::exact(&g);
    let mut failures = 0;
    for seed in 0..20u64 {
        let mut sim = Sim::new(&g, info, seed);
        if !run_radio_mis(&mut sim, &MisConfig::default()).is_valid(&g) {
            failures += 1;
        }
    }
    assert_eq!(failures, 0, "{failures}/20 MIS runs invalid");
}
