//! Resume-at-k ≡ straight-through: a run checkpointed after `k` phases and
//! resumed in a fresh simulator finishes bit-identically to one that never
//! stopped — under **every** dynamics preset, both step kernels, and SINR
//! reception.
//!
//! This is the whole value of [`Checkpoint`]: the serialized document plus
//! the original `(family, dynamics, seed)` recipe is a complete resume
//! token. The suite drives `radionet_sim::Checkpoint` through the api
//! crate's own topology arms ([`RunTopology`]) so the restore fast-forward
//! exercises the scripted overlay *and* the mobility index.

use proptest::prelude::*;
use radionet_api::dynamics::DynamicTopology;
use radionet_api::topology::RunTopology;
use radionet_api::Dynamics;
use radionet_graph::families::Family;
use radionet_graph::Graph;
use radionet_mobility::MobileTopology;
use radionet_sim::{
    Action, Checkpoint, Kernel, NetInfo, NodeCtx, Protocol, ReceptionMode, Sim, SinrConfig,
};
use serde::{DeError, Deserialize, Serialize, Value};

/// Transmits with probability 1/2 and counts everything heard — active
/// every step, so every preset's topology churn is exercised, and the
/// state is a plain serde round-trip.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
struct Gossip {
    heard: u64,
}

impl Protocol for Gossip {
    type Msg = u64;
    fn act(&mut self, ctx: &mut NodeCtx<'_>) -> Action<u64> {
        if rand::Rng::gen_bool(ctx.rng, 0.5) {
            Action::Transmit(self.heard)
        } else {
            Action::Listen
        }
    }
    fn on_hear(&mut self, _ctx: &mut NodeCtx<'_>, msg: &u64) {
        self.heard += msg + 1;
    }
}

fn decode(v: &Value) -> Result<Gossip, String> {
    Gossip::from_value(v).map_err(|e: DeError| e.to_string())
}

/// One preset's base graph + freshly constructed topology arm. Called once
/// per simulator, so the reference, recorded, and resumed runs all drive
/// identical views.
fn build(preset: &Dynamics, seed: u64) -> (Graph, RunTopology) {
    match preset {
        Dynamics::Mobility(m) => {
            let positioned = Family::UnitDisk.instantiate_positioned(36, seed);
            let geometry = positioned.geometry.expect("unit disk has an embedding");
            let mobile = MobileTopology::new(&geometry, m.model, m.tick.max(1), seed ^ 0x6d);
            let g = mobile.initial_graph();
            (g, RunTopology::Mobile(mobile))
        }
        _ => {
            let g = Family::Grid.instantiate(36, seed);
            let events = preset.events_for(&g, 60, seed ^ 0xe7);
            let topo = RunTopology::Scripted(DynamicTopology::new(&g, events));
            (g, topo)
        }
    }
}

const PHASE: u64 = 15;
const PHASES: u64 = 4;

/// Runs `phases` phases straight through, returning the final protocol
/// states, stats, and RNG fingerprint.
fn straight(preset: &Dynamics, kernel: Kernel, seed: u64) -> (Vec<Gossip>, String, u64) {
    let (g, topo) = build(preset, seed);
    let mut sim =
        Sim::try_with_topology(&g, topo, NetInfo::exact(&g), seed, ReceptionMode::Protocol)
            .unwrap();
    sim.set_kernel(kernel);
    let mut states = vec![Gossip { heard: 0 }; g.n()];
    for _ in 0..PHASES {
        sim.run_phase(&mut states, PHASE);
    }
    (states, format!("{:?}", sim.stats()), sim.rng_fingerprint())
}

/// Runs `k` phases, checkpoints through a JSON round trip, resumes in a
/// fresh simulator, and finishes the remaining phases.
fn resumed(preset: &Dynamics, kernel: Kernel, seed: u64, k: u64) -> (Vec<Gossip>, String, u64) {
    let (g, topo) = build(preset, seed);
    let mut sim =
        Sim::try_with_topology(&g, topo, NetInfo::exact(&g), seed, ReceptionMode::Protocol)
            .unwrap();
    sim.set_kernel(kernel);
    let mut states = vec![Gossip { heard: 0 }; g.n()];
    for _ in 0..k {
        sim.run_phase(&mut states, PHASE);
    }
    let json =
        serde_json::to_string(&Checkpoint::capture(&sim, &states, |s| s.to_value())).unwrap();
    drop(sim);
    drop(states);

    // "New process": same recipe, fresh simulator, restore, finish.
    let ck: Checkpoint = serde_json::from_str(&json).unwrap();
    let (g2, topo2) = build(preset, seed);
    assert_eq!(g2.n(), g.n());
    let mut sim =
        Sim::try_with_topology(&g2, topo2, NetInfo::exact(&g2), seed, ReceptionMode::Protocol)
            .unwrap();
    sim.set_kernel(kernel);
    let mut states = ck.restore_into(&mut sim, decode).unwrap();
    for _ in k..PHASES {
        sim.run_phase(&mut states, PHASE);
    }
    (states, format!("{:?}", sim.stats()), sim.rng_fingerprint())
}

#[test]
fn resume_matches_straight_through_for_every_preset_and_kernel() {
    for name in Dynamics::PRESETS {
        let preset = Dynamics::preset(name).unwrap();
        for kernel in [Kernel::Sparse, Kernel::Dense] {
            let reference = straight(&preset, kernel, 17);
            let restored = resumed(&preset, kernel, 17, 2);
            assert_eq!(restored, reference, "{name} under {kernel:?} diverged after resume");
        }
    }
}

/// The restore fast-forward jumps the topology through its event times
/// instead of replaying every clock step: a checkpoint taken long after
/// the last scripted event forces one long eventless leap, and the
/// restored state must still be indistinguishable from never stopping.
#[test]
fn restore_jumps_past_a_quiet_script_tail() {
    // All churn events land within the run's 60-step script; resuming at
    // k=3 (clock 45) fast-forwards mostly through silence.
    let preset = Dynamics::preset("churn").unwrap();
    for kernel in [Kernel::Sparse, Kernel::Dense] {
        let reference = straight(&preset, kernel, 91);
        let restored = resumed(&preset, kernel, 91, 3);
        assert_eq!(restored, reference, "{kernel:?} diverged across the quiet tail");
    }
}

#[test]
fn resume_matches_under_sinr_reception() {
    // Geometry-derived SINR over a static unit disk: the checkpoint must
    // restore the physical-reception run too (the spatial index is
    // reconstructed from positions, not serialized).
    let positioned = Family::UnitDisk.instantiate_positioned(36, 5);
    let geometry = positioned.geometry.expect("unit disk has an embedding");
    let reception = ReceptionMode::Sinr(SinrConfig::for_unit_range(geometry.points.clone(), 1.0));
    fn make<'g>(g: &'g Graph, reception: &ReceptionMode) -> Sim<'g, RunTopology> {
        let topo = RunTopology::Scripted(DynamicTopology::new(g, Vec::new()));
        Sim::try_with_topology(g, topo, NetInfo::exact(g), 5, reception.clone()).unwrap()
    }
    let run = |resume_at: Option<u64>| {
        let g = positioned.graph.clone();
        let mut sim = make(&g, &reception);
        let mut states = vec![Gossip { heard: 0 }; g.n()];
        match resume_at {
            None => {
                for _ in 0..PHASES {
                    sim.run_phase(&mut states, PHASE);
                }
                (states, format!("{:?}", sim.stats()), sim.rng_fingerprint())
            }
            Some(k) => {
                for _ in 0..k {
                    sim.run_phase(&mut states, PHASE);
                }
                let ck = Checkpoint::capture(&sim, &states, |s| s.to_value());
                let mut sim = make(&g, &reception);
                let mut states = ck.restore_into(&mut sim, decode).unwrap();
                for _ in k..PHASES {
                    sim.run_phase(&mut states, PHASE);
                }
                (states, format!("{:?}", sim.stats()), sim.rng_fingerprint())
            }
        }
    };
    assert_eq!(run(Some(1)), run(None));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any preset, any kernel, any resume point: resume-at-k is
    /// indistinguishable from never stopping.
    #[test]
    fn resume_at_k_is_straight_through(
        preset_idx in 0usize..Dynamics::PRESETS.len(),
        kernel_idx in 0usize..2,
        seed in 0u64..1000,
        k in 1u64..PHASES,
    ) {
        let preset = Dynamics::preset(Dynamics::PRESETS[preset_idx]).unwrap();
        let kernel = [Kernel::Sparse, Kernel::Dense][kernel_idx];
        prop_assert_eq!(
            resumed(&preset, kernel, seed, k),
            straight(&preset, kernel, seed)
        );
    }
}
