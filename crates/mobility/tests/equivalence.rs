//! The mobility subsystem's differential guarantees:
//!
//! 1. **Index equivalence** — the incremental grid index, the full-rebuild
//!    grid path, and the `O(n²)` brute-force oracle derive the *identical*
//!    edge set at every step, across models × densities × rules × tick
//!    cadences (proptest).
//! 2. **Kernel equivalence** — the sparse active-set kernel and the dense
//!    reference kernel produce identical [`PhaseReport`]s, RNG
//!    fingerprints, and protocol state on a [`MobileTopology`].

use proptest::prelude::*;
use radionet_graph::families::{Geometry, GeometryRule};
use radionet_graph::Graph;
use radionet_mobility::{
    GroupDriftParams, IndexStrategy, MobileTopology, MobilityModel, WalkParams, WaypointParams,
};
use radionet_sim::{
    Action, Kernel, NetInfo, NodeCtx, PositionSource, Protocol, ReceptionMode, Sim, SinrConfig,
    TopologyView,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn uniform_geometry(n: usize, dim: u32, side: f64, rule: GeometryRule, seed: u64) -> Geometry {
    let mut rng = SmallRng::seed_from_u64(seed);
    let points = (0..n)
        .map(|_| {
            let mut p = [0.0; 3];
            for c in p.iter_mut().take(dim as usize) {
                *c = rng.gen::<f64>() * side;
            }
            p
        })
        .collect();
    Geometry { points, dim, side, rule }
}

fn model_for(kind: u8) -> MobilityModel {
    match kind % 4 {
        0 => MobilityModel::RandomWaypoint(WaypointParams {
            speed_lo: 0.05,
            speed_hi: 0.4,
            pause_lo: 0,
            pause_hi: 4,
            range: 0.0,
        }),
        1 => MobilityModel::RandomWalk(WalkParams {
            step: 0.25,
            levy_alpha: 0.0,
            run_lo: 1,
            run_hi: 6,
            pause_lo: 0,
            pause_hi: 3,
        }),
        2 => MobilityModel::RandomWalk(WalkParams {
            step: 0.1,
            levy_alpha: 1.4,
            run_lo: 1,
            run_hi: 4,
            pause_lo: 0,
            pause_hi: 5,
        }),
        _ => MobilityModel::GroupDrift(GroupDriftParams {
            groups: 3,
            speed: 0.2,
            jitter: 0.05,
            hold: 5,
        }),
    }
}

fn rule_for(kind: u8, n: usize, seed: u64) -> GeometryRule {
    match kind % 3 {
        0 => GeometryRule::Disk { radius: 1.0 },
        1 => GeometryRule::Quasi { r: 0.6, big_r: 1.2, gray_p: 0.5 },
        _ => {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x7a);
            GeometryRule::Radio { ranges: (0..n).map(|_| rng.gen_range(0.7..=1.4)).collect() }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incremental ≡ rebuild ≡ brute force, step by step.
    #[test]
    fn index_strategies_agree(
        n in 20usize..120,
        side in 3.0f64..12.0,
        model_kind in 0u8..4,
        rule_kind in 0u8..3,
        dim3 in any::<bool>(),
        tick in 1u64..4,
        seed in 0u64..1_000,
        steps in 5u64..40,
    ) {
        let dim = if dim3 { 3 } else { 2 };
        let rule = rule_for(rule_kind, n, seed);
        let geo = uniform_geometry(n, dim, side, rule, seed ^ 0x9e1);
        let model = model_for(model_kind);
        let base = Graph::from_edges(n, []).unwrap();
        let mut topos = [
            MobileTopology::new(&geo, model, tick, seed).with_strategy(IndexStrategy::Incremental),
            MobileTopology::new(&geo, model, tick, seed).with_strategy(IndexStrategy::Rebuild),
            MobileTopology::new(&geo, model, tick, seed).with_strategy(IndexStrategy::BruteForce),
        ];
        for clock in 0..steps {
            for topo in &mut topos {
                topo.advance_to(&base, clock);
            }
            let digests: Vec<u64> = topos.iter().map(|t| t.adjacency_digest()).collect();
            prop_assert_eq!(digests[0], digests[2],
                "incremental diverged from brute force at clock {}", clock);
            prop_assert_eq!(digests[1], digests[2],
                "rebuild diverged from brute force at clock {}", clock);
            // Spot-check actual rows, not just the digest.
            for v in (0..n).step_by(7) {
                let v = base.node(v);
                prop_assert_eq!(
                    topos[0].neighbors(&base, v),
                    topos[2].neighbors(&base, v)
                );
            }
        }
    }
}

/// A protocol transmitting with probability 1/2 per step; listens
/// otherwise and records everything heard (randomized traffic over the
/// moving edge set).
struct Coin {
    sent: Vec<bool>,
    heard: Vec<u64>,
    collisions: usize,
}

impl Protocol for Coin {
    type Msg = u64;
    fn act(&mut self, ctx: &mut NodeCtx<'_>) -> Action<u64> {
        let t = ctx.rng.gen_bool(0.5);
        self.sent.push(t);
        if t {
            Action::Transmit(ctx.time)
        } else {
            Action::Listen
        }
    }
    fn on_hear(&mut self, _ctx: &mut NodeCtx<'_>, msg: &u64) {
        self.heard.push(*msg);
    }
    fn on_collision(&mut self, _ctx: &mut NodeCtx<'_>) {
        self.collisions += 1;
    }
}

/// Per-node end state: (transmit log, heard log, collision count).
type NodeOutcome = (Vec<bool>, Vec<u64>, usize);

fn run_kernel(
    geo: &Geometry,
    model: MobilityModel,
    kernel: Kernel,
    reception: ReceptionMode,
    seed: u64,
    budget: u64,
) -> (radionet_sim::PhaseReport, u64, Vec<NodeOutcome>) {
    let topo = MobileTopology::new(geo, model, 1, seed);
    let g = topo.initial_graph();
    let info = NetInfo::exact(&g);
    let mut sim = Sim::with_topology(&g, topo, info, seed ^ 0x51, reception);
    sim.set_kernel(kernel);
    let mut states: Vec<Coin> =
        g.nodes().map(|_| Coin { sent: Vec::new(), heard: Vec::new(), collisions: 0 }).collect();
    let rep = sim.run_phase(&mut states, budget);
    let fp = sim.rng_fingerprint();
    (rep, fp, states.into_iter().map(|c| (c.sent, c.heard, c.collisions)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sparse kernel ≡ dense kernel on a moving topology: PhaseReport,
    /// per-node RNG fingerprint, and full protocol state.
    #[test]
    fn kernels_agree_on_mobile_topology(
        n in 16usize..64,
        model_kind in 0u8..4,
        cd in any::<bool>(),
        seed in 0u64..500,
    ) {
        let side = (n as f64 / 3.0).sqrt() * 1.5;
        let geo = uniform_geometry(n, 2, side, GeometryRule::Disk { radius: 1.0 }, seed ^ 0x11);
        let model = model_for(model_kind);
        let reception = if cd { ReceptionMode::ProtocolCd } else { ReceptionMode::Protocol };
        let budget = 40;
        let sparse = run_kernel(&geo, model, Kernel::Sparse, reception.clone(), seed, budget);
        let dense = run_kernel(&geo, model, Kernel::Dense, reception, seed, budget);
        prop_assert_eq!(sparse.0, dense.0, "PhaseReports differ");
        prop_assert_eq!(sparse.1, dense.1, "RNG fingerprints differ");
        prop_assert_eq!(sparse.2, dense.2, "protocol state differs");
    }

    /// SINR reception over the *live* moving point set: the sparse
    /// kernel's spatially-indexed physical resolution must match the
    /// dense reference bit-for-bit while the positions (and therefore
    /// its decode-range grid) change underneath it — across 2D and 3D
    /// geometries and every mobility model.
    #[test]
    fn sinr_kernels_agree_on_mobile_topology(
        n in 16usize..56,
        model_kind in 0u8..4,
        dim3 in any::<bool>(),
        seed in 0u64..500,
    ) {
        let dim = if dim3 { 3 } else { 2 };
        let side = if dim3 {
            (n as f64 / 2.0).cbrt() * 1.6
        } else {
            (n as f64 / 3.0).sqrt() * 1.5
        };
        let geo = uniform_geometry(n, dim, side, GeometryRule::Disk { radius: 1.0 }, seed ^ 0x2e);
        let model = model_for(model_kind);
        let reception = ReceptionMode::Sinr(SinrConfig::for_unit_range(PositionSource::Live, 1.0));
        let budget = 40;
        let sparse = run_kernel(&geo, model, Kernel::Sparse, reception.clone(), seed, budget);
        let dense = run_kernel(&geo, model, Kernel::Dense, reception, seed, budget);
        prop_assert_eq!(sparse.0, dense.0, "PhaseReports differ");
        prop_assert_eq!(sparse.1, dense.1, "RNG fingerprints differ");
        prop_assert_eq!(sparse.2, dense.2, "protocol state differs");
    }
}

/// An integer lattice puts many pairs at exactly an interaction radius:
/// axis neighbours at 1 and 2 apart. While a pause-heavy waypoint fleet
/// moves some nodes off the lattice, every index strategy must derive the
/// generator's graph over the current points, tie pairs included, under
/// the disk rule, both quasi radii and the radio ranges.
#[test]
fn lattice_ties_match_the_generators_under_every_strategy() {
    use radionet_graph::generators::geometric::quasi_unit_disk;
    use radionet_graph::generators::{geometric_radio_undirected, unit_disk};
    use radionet_graph::geometry::Point2;
    let (w, h) = (12usize, 10usize);
    let n = w * h;
    let points: Vec<[f64; 3]> = (0..n).map(|i| [(i % w) as f64, (i / w) as f64, 0.0]).collect();
    let ranges: Vec<f64> = (0..n).map(|i| if i % 3 == 0 { 2.0 } else { 1.0 }).collect();
    let model = MobilityModel::RandomWaypoint(WaypointParams {
        speed_lo: 0.05,
        speed_hi: 0.2,
        pause_lo: 20,
        pause_hi: 100,
        range: 2.0,
    });
    let rules = [
        GeometryRule::Disk { radius: 1.0 },
        GeometryRule::Quasi { r: 1.0, big_r: 2.0, gray_p: 0.0 },
        GeometryRule::Quasi { r: 1.0, big_r: 2.0, gray_p: 1.0 },
        GeometryRule::Radio { ranges },
    ];
    let base = Graph::from_edges(n, []).unwrap();
    for rule in rules {
        // The quasi gray zone is certain either way at gray_p 0 and 1, so
        // the generator's coin stream does not matter.
        let generated = |pos: &[[f64; 3]]| {
            let pts: Vec<Point2> = pos.iter().map(|p| Point2::new(p[0], p[1])).collect();
            match &rule {
                GeometryRule::Disk { .. } => unit_disk(&pts).graph,
                GeometryRule::Quasi { r, big_r, gray_p } => {
                    let mut rng = SmallRng::seed_from_u64(0);
                    quasi_unit_disk(&pts, *r, *big_r, *gray_p, &mut rng).graph
                }
                GeometryRule::Radio { ranges } => geometric_radio_undirected(&pts, ranges).graph,
            }
        };
        let geo = Geometry { points: points.clone(), dim: 2, side: w as f64, rule: rule.clone() };
        let mut topos =
            [IndexStrategy::Incremental, IndexStrategy::Rebuild, IndexStrategy::BruteForce]
                .map(|s| MobileTopology::new(&geo, model, 1, 3).with_strategy(s));
        if let GeometryRule::Disk { .. } = rule {
            // Every axis neighbour is exactly one radius away.
            assert_eq!(topos[0].current_edge_count(), 2 * n - w - h);
        }
        for clock in 0..30 {
            for topo in &mut topos {
                topo.advance_to(&base, clock);
            }
            let expected = generated(topos[0].positions());
            for topo in &topos {
                assert_eq!(
                    topo.current_graph(),
                    expected,
                    "{rule:?}, {} strategy, clock {clock}",
                    topo.strategy().name()
                );
            }
        }
    }
}
