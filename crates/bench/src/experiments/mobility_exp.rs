//! E17 — the mobility subsystem: incremental spatial-index maintenance vs
//! full rebuild, and a large random-waypoint broadcast with time-resolved
//! α-bounds/diameter tracking.
//!
//! Two parts:
//!
//! 1. **Index face-off** (all scales): a dwell-heavy local-waypoint
//!    population (short legs, long pauses — only a few percent of nodes
//!    move on any tick) advanced for a fixed tick budget under
//!    [`IndexStrategy::Incremental`] and [`IndexStrategy::Rebuild`]. The
//!    final adjacency digests are asserted identical (the at-scale
//!    differential check; the `O(n²)` brute-force oracle is pinned by the
//!    `radionet-mobility` proptests) and the per-tick speedup must clear
//!    **≥ 5×** — incremental work scales with the moved fraction, a
//!    rebuild rescans every node every tick.
//! 2. **Waypoint broadcast** (quick: 2 000 nodes; full: 100 000): a
//!    quiescing Decay flood over a classic random-waypoint UDG, sampling
//!    α-bounds, diameter, edges, and components as the fleet moves. The
//!    samples land in `results/e17.json` and the α drift is summarized via
//!    [`radionet_analysis::ingest::drift`].
//!
//! Instances construct their geometry directly (uniform points + disk
//! rule, seeded per cell, with no connectivity retry); the derived t = 0
//! edge set follows the same disk rule as the unit-disk generator.

use super::{banner, print_notes};
use crate::Scale;
use radionet_analysis::ingest::drift;
use radionet_analysis::table::f1;
use radionet_analysis::{ExperimentRecord, RunRecord, Table};
use radionet_graph::families::{Geometry, GeometryRule};
use radionet_mobility::{IndexStrategy, MobileTopology, MobilityModel, WaypointParams};
use radionet_primitives::decay::DecaySchedule;
use radionet_primitives::flood::FloodProtocol;
use radionet_sim::{NetInfo, Sim, TopologyView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Uniform 2D unit-disk geometry at expected degree ≈ 10 (shared with
/// E18 and E19).
pub(crate) fn udg_geometry(n: usize, seed: u64) -> Geometry {
    let side = (n as f64 * std::f64::consts::PI / 10.0).sqrt();
    let mut rng = StdRng::seed_from_u64(seed);
    let points = (0..n).map(|_| [rng.gen::<f64>() * side, rng.gen::<f64>() * side, 0.0]).collect();
    Geometry { points, dim: 2, side, rule: GeometryRule::Disk { radius: 1.0 } }
}

/// Dwell-heavy micromobility: short local legs, long pauses — the
/// sensor-field regime where almost everything is stationary at any
/// instant (shared with E19).
pub(crate) fn dwell_heavy_waypoint() -> MobilityModel {
    MobilityModel::RandomWaypoint(WaypointParams {
        speed_lo: 0.04,
        speed_hi: 0.08,
        pause_lo: 200,
        pause_hi: 600,
        range: 2.0,
    })
}

/// Classic random waypoint: whole-domain targets, short pauses.
fn classic_waypoint() -> MobilityModel {
    MobilityModel::RandomWaypoint(WaypointParams {
        speed_lo: 0.02,
        speed_hi: 0.08,
        pause_lo: 10,
        pause_hi: 60,
        range: 0.0,
    })
}

/// Advances one strategy for `ticks` ticks; returns (digest, wall secs,
/// moved-node ticks).
fn faceoff_run(geo: &Geometry, strategy: IndexStrategy, ticks: u64, seed: u64) -> (u64, f64, u64) {
    let mut topo =
        MobileTopology::new(geo, dwell_heavy_waypoint(), 1, seed).with_strategy(strategy);
    let base = topo.initial_graph();
    topo.advance_to(&base, 0); // baseline
    let start = Instant::now();
    for clock in 1..=ticks {
        topo.advance_to(&base, clock);
    }
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    (topo.adjacency_digest(), wall, topo.stats().moved_node_ticks)
}

/// The waypoint broadcast with time-resolved sampling; returns
/// `(samples, informed fraction, steps, wall secs)`.
fn sampled_broadcast(
    n: usize,
    tick: u64,
    cadence: u64,
    seed: u64,
) -> (Vec<radionet_mobility::MobilitySample>, f64, u64, f64) {
    let geo = udg_geometry(n, seed ^ 0x6e0);
    let mut topo = MobileTopology::new(&geo, classic_waypoint(), tick, seed);
    topo.set_sample_every(Some(cadence));
    let g = topo.initial_graph();
    let info = NetInfo::exact(&g);
    let schedule = DecaySchedule::new(info.log_n());
    let l = info.log_n() as u64;
    let budget = 16 * (info.d as u64 * l + l * l);
    let mut sim = Sim::with_topology(&g, topo, info, seed, radionet_sim::ReceptionMode::Protocol);
    let mut states: Vec<FloodProtocol<u64>> = g
        .nodes()
        .map(|v| FloodProtocol::with_quiesce(schedule, (v.index() == 0).then_some(7), 2 * l as u32))
        .collect();
    let start = Instant::now();
    let rep = sim.run_phase(&mut states, budget);
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    let informed = states.iter().filter(|s| s.best().is_some()).count() as f64 / g.n() as f64;
    (sim.topology().trace().to_vec(), informed, rep.steps, wall)
}

/// E17 — mobility: incremental index speedup + time-resolved α/D.
pub fn e17_mobility(scale: Scale) -> ExperimentRecord {
    let claim = "Mobility: incremental grid index beats per-step rebuild; α/D drift is tracked";
    banner("E17", claim);
    let mut record = ExperimentRecord::new("E17", claim);

    // Part 1: incremental vs rebuild on the identical trajectory.
    let (n, ticks) = match scale {
        Scale::Quick => (30_000, 120u64),
        Scale::Full => (100_000, 240u64),
    };
    let geo = udg_geometry(n, 0xe17);
    let mut table = Table::new(["part", "strategy", "n", "ticks", "wall ms", "ms/tick"]);
    let mut walls = [0.0f64; 2];
    let mut digests = [0u64; 2];
    for (k, strategy) in
        [IndexStrategy::Incremental, IndexStrategy::Rebuild].into_iter().enumerate()
    {
        let (digest, wall, moved) = faceoff_run(&geo, strategy, ticks, 0x5eed);
        walls[k] = wall;
        digests[k] = digest;
        table.row([
            "index".into(),
            strategy.name().into(),
            n.to_string(),
            ticks.to_string(),
            f1(wall * 1e3),
            f1(wall * 1e3 / ticks as f64),
        ]);
        record.push(
            RunRecord::new()
                .param("part", "index")
                .param("strategy", strategy.name())
                .param("n", n)
                .metric("ticks", ticks as f64)
                .metric("moved_node_ticks", moved as f64)
                .metric("wall_ms", wall * 1e3)
                .metric("ms_per_tick", wall * 1e3 / ticks as f64),
        );
    }
    assert_eq!(
        digests[0], digests[1],
        "incremental and rebuild strategies derived different edge sets"
    );
    let speedup = walls[1] / walls[0];
    record.note(format!(
        "index face-off: incremental {speedup:.1}x faster per tick than full rebuild at \
         n = {n} over {ticks} ticks (dwell-heavy waypoint; identical adjacency digests)"
    ));
    assert!(
        speedup >= 5.0,
        "incremental index only {speedup:.1}x faster than rebuild (acceptance bar: 5x)"
    );

    // Part 2: waypoint broadcast with time-resolved α-bounds/diameter.
    let (bn, tick, cadence) = match scale {
        Scale::Quick => (2_000, 4u64, 50u64),
        Scale::Full => (100_000, 32u64, 1_000u64),
    };
    let (samples, informed, steps, wall) = sampled_broadcast(bn, tick, cadence, 0xb0a);
    table.row([
        "broadcast".into(),
        "incremental".into(),
        bn.to_string(),
        steps.to_string(),
        f1(wall * 1e3),
        f1(wall * 1e3 / steps.max(1) as f64),
    ]);
    record.push(
        RunRecord::new()
            .param("part", "broadcast")
            .param("strategy", "incremental")
            .param("n", bn)
            .metric("steps", steps as f64)
            .metric("informed", informed)
            .metric("wall_ms", wall * 1e3),
    );
    for s in &samples {
        record.push(
            RunRecord::new()
                .param("part", "trace")
                .param("n", bn)
                .metric("clock", s.clock as f64)
                .metric("edges", s.edges as f64)
                .metric("components", s.components as f64)
                .metric("largest_component", s.largest_component as f64)
                .metric("diameter", s.diameter as f64)
                .metric("alpha_lower", s.alpha_lower as f64)
                .metric("alpha_upper", s.alpha_upper as f64),
        );
    }
    assert!(!samples.is_empty(), "broadcast recorded no time-resolved samples");
    assert!(
        informed >= 0.9,
        "waypoint broadcast informed only {:.1}% of the fleet",
        informed * 100.0
    );
    let alpha: Vec<f64> = samples.iter().map(|s| s.alpha_lower as f64).collect();
    let diam: Vec<f64> = samples.iter().map(|s| s.diameter as f64).collect();
    if let (Some(a), Some(d)) = (drift(&alpha), drift(&diam)) {
        record.note(format!(
            "time-resolved regime over {} samples: α lower bound {:.0} → {:.0} \
             (envelope [{:.0}, {:.0}]), diameter {:.0} → {:.0} (envelope [{:.0}, {:.0}]); \
             {:.1}% informed in {} steps",
            samples.len(),
            a.first,
            a.last,
            a.lo,
            a.hi,
            d.first,
            d.last,
            d.lo,
            d.hi,
            informed * 100.0,
            steps,
        ));
    }

    println!("{}", table.render());
    print_notes(&record);
    record
}
