//! Step-boundary checkpoints: freeze a [`Sim`] plus its protocol states,
//! resume bit-exactly in a fresh process.
//!
//! A [`Checkpoint`] captures everything the engine's determinism contract
//! depends on — the global clock, the phase counter, cumulative
//! [`SimStats`], and every per-node RNG stream — plus the protocol states
//! as caller-encoded [`Value`] trees (the engine cannot serialize `P`
//! itself: protocols are arbitrary user types). Restoring into a freshly
//! constructed `Sim` with the same `(graph, topology, reception, seed)`
//! re-drives the topology view through the recorded `advance_to` history
//! and then verifies the RNG fingerprint, so a resumed run continues the
//! original step-for-step and bit-for-bit; the `checkpoint_resume`
//! proptests in `radionet-api` pin resume-at-k ≡ straight-through across
//! every dynamics preset and both kernels.

use crate::engine::Sim;
use crate::observer::Observer;
use crate::stats::SimStats;
use crate::topology::TopologyView;
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize, Value};

/// One per-node RNG stream state: the four xoshiro256++ words as named
/// fields (the offline serde derive carries no fixed-size-array impls
/// past `[T; 3]`, and named fields keep the JSON self-describing anyway).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RngState {
    /// State word 0.
    pub s0: u64,
    /// State word 1.
    pub s1: u64,
    /// State word 2.
    pub s2: u64,
    /// State word 3.
    pub s3: u64,
}

impl RngState {
    fn capture(rng: &SmallRng) -> RngState {
        let [s0, s1, s2, s3] = rng.state();
        RngState { s0, s1, s2, s3 }
    }

    fn restore(self) -> SmallRng {
        SmallRng::from_state([self.s0, self.s1, self.s2, self.s3])
    }
}

/// Why a [`Checkpoint`] refused to restore.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckpointError {
    /// The target simulation's graph size does not match the checkpoint.
    NodeCount {
        /// Nodes in the target simulation.
        sim: usize,
        /// Per-node entries in the checkpoint.
        checkpoint: usize,
    },
    /// The target simulation has already run: restore re-drives the
    /// topology view from step 0, which is only sound on a fresh `Sim`.
    SimNotFresh {
        /// The target's current clock.
        clock: u64,
    },
    /// A protocol state failed to decode (the codec's error, verbatim).
    Decode(String),
    /// The restored RNG streams do not reproduce the recorded
    /// fingerprint — the checkpoint is corrupt or was taken from a
    /// different build of the RNG.
    FingerprintMismatch {
        /// The fingerprint the checkpoint recorded.
        expected: u64,
        /// The fingerprint the restored streams produce.
        actual: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::NodeCount { sim, checkpoint } => write!(
                f,
                "checkpoint holds {checkpoint} per-node entries but the simulation has {sim} nodes"
            ),
            CheckpointError::SimNotFresh { clock } => write!(
                f,
                "checkpoints restore only into a freshly constructed simulation \
                 (target clock is {clock}, expected 0)"
            ),
            CheckpointError::Decode(why) => write!(f, "protocol state failed to decode: {why}"),
            CheckpointError::FingerprintMismatch { expected, actual } => write!(
                f,
                "restored RNG fingerprint {actual:#018x} does not match the recorded \
                 {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A frozen simulation at a step boundary. Serializes to one
/// self-describing JSON document; see the module docs for the resume
/// contract.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Global clock at the boundary (simulated + charged steps).
    pub clock: u64,
    /// Phases executed so far.
    pub phase: u64,
    /// Cumulative statistics at the boundary.
    pub stats: SimStats,
    /// Every per-node RNG stream, in node order.
    pub rng_states: Vec<RngState>,
    /// Caller-encoded protocol states, in node order.
    pub protocol_states: Vec<Value>,
    /// The RNG fingerprint at capture — verified on restore.
    pub rng_fingerprint: u64,
}

impl Checkpoint {
    /// Freezes `sim` and its protocol states at the current step boundary.
    /// `encode` turns one protocol state into a [`Value`] tree (most
    /// protocols just derive `Serialize` and pass
    /// `|s| serde::Serialize::to_value(s)`).
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the node count.
    pub fn capture<T: TopologyView, O: Observer, P>(
        sim: &Sim<'_, T, O>,
        states: &[P],
        mut encode: impl FnMut(&P) -> Value,
    ) -> Checkpoint {
        assert_eq!(states.len(), sim.graph().n(), "one protocol state per node");
        Checkpoint {
            clock: sim.clock(),
            phase: sim.phase(),
            stats: *sim.stats(),
            rng_states: sim.rng_streams().iter().map(RngState::capture).collect(),
            protocol_states: states.iter().map(&mut encode).collect(),
            rng_fingerprint: sim.rng_fingerprint(),
        }
    }

    /// Restores this checkpoint into a *freshly constructed* `sim` (same
    /// graph, topology, reception, and seed as the recorded run) and
    /// decodes the protocol states. On success the pair
    /// `(sim, returned states)` continues exactly where the recorded run
    /// left off.
    ///
    /// # Errors
    ///
    /// * [`CheckpointError::SimNotFresh`] — `sim` has already advanced;
    /// * [`CheckpointError::NodeCount`] — graph size mismatch;
    /// * [`CheckpointError::Decode`] — a protocol state failed to decode
    ///   (the simulation is left untouched);
    /// * [`CheckpointError::FingerprintMismatch`] — the restored RNG
    ///   streams contradict the recorded fingerprint.
    pub fn restore_into<T: TopologyView, O: Observer, P>(
        &self,
        sim: &mut Sim<'_, T, O>,
        mut decode: impl FnMut(&Value) -> Result<P, String>,
    ) -> Result<Vec<P>, CheckpointError> {
        if sim.clock() != 0 || sim.phase() != 0 {
            return Err(CheckpointError::SimNotFresh { clock: sim.clock().max(1) });
        }
        let n = sim.graph().n();
        if self.rng_states.len() != n || self.protocol_states.len() != n {
            return Err(CheckpointError::NodeCount {
                sim: n,
                checkpoint: self.rng_states.len().min(self.protocol_states.len()),
            });
        }
        let states = self
            .protocol_states
            .iter()
            .map(|v| decode(v).map_err(CheckpointError::Decode))
            .collect::<Result<Vec<P>, CheckpointError>>()?;
        let rngs = self.rng_states.iter().map(|s| s.restore()).collect();
        sim.restore_core(self.clock, self.phase, self.stats, rngs);
        let actual = sim.rng_fingerprint();
        if actual != self.rng_fingerprint {
            return Err(CheckpointError::FingerprintMismatch {
                expected: self.rng_fingerprint,
                actual,
            });
        }
        Ok(states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Action, NetInfo, NodeCtx, Protocol};
    use radionet_graph::generators;
    use serde::DeError;

    /// Transmits with probability 1/2; counts everything heard. The state
    /// round-trips through a `Value` via plain serde derive.
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

    fn fresh(g: &radionet_graph::Graph) -> (Sim<'_>, Vec<Gossip>) {
        let sim = Sim::new(g, NetInfo::exact(g), 11);
        let states = vec![Gossip { heard: 0 }; g.n()];
        (sim, states)
    }

    #[test]
    fn resume_continues_bit_exactly() {
        let g = generators::grid2d(4, 4);
        // Straight-through reference: two phases.
        let (mut reference, mut ref_states) = fresh(&g);
        reference.run_phase(&mut ref_states, 20);
        let second_ref = reference.run_phase(&mut ref_states, 20);

        // Recorded run: one phase, checkpoint, drop everything.
        let (mut first, mut states) = fresh(&g);
        first.run_phase(&mut states, 20);
        let ck = Checkpoint::capture(&first, &states, |s| s.to_value());
        let json = serde_json::to_string(&ck).unwrap();
        drop(first);

        // Resume in a "new process": parse, restore, run phase two.
        let ck: Checkpoint = serde_json::from_str(&json).unwrap();
        let (mut resumed, _) = fresh(&g);
        let mut states = ck.restore_into(&mut resumed, decode).unwrap();
        assert_eq!(resumed.clock(), 20);
        assert_eq!(resumed.phase(), 1);
        let second = resumed.run_phase(&mut states, 20);

        assert_eq!(second, second_ref);
        assert_eq!(resumed.stats(), reference.stats());
        assert_eq!(resumed.rng_fingerprint(), reference.rng_fingerprint());
        assert_eq!(states, ref_states);
    }

    #[test]
    fn restore_refuses_an_advanced_sim() {
        let g = generators::star(5);
        let (mut sim, mut states) = fresh(&g);
        sim.run_phase(&mut states, 3);
        let ck = Checkpoint::capture(&sim, &states, |s| s.to_value());
        let err = ck.restore_into(&mut sim, decode).unwrap_err();
        assert!(matches!(err, CheckpointError::SimNotFresh { .. }), "{err}");
    }

    #[test]
    fn restore_refuses_a_wrong_sized_graph() {
        let g = generators::star(5);
        let (mut sim, mut states) = fresh(&g);
        sim.run_phase(&mut states, 3);
        let ck = Checkpoint::capture(&sim, &states, |s| s.to_value());
        let small = generators::star(4);
        let (mut other, _) = fresh(&small);
        let err = ck.restore_into(&mut other, decode).unwrap_err();
        assert_eq!(err, CheckpointError::NodeCount { sim: 4, checkpoint: 5 });
    }

    #[test]
    fn corrupt_rng_state_is_caught_by_the_fingerprint() {
        let g = generators::star(5);
        let (mut sim, mut states) = fresh(&g);
        sim.run_phase(&mut states, 3);
        let mut ck = Checkpoint::capture(&sim, &states, |s| s.to_value());
        // Corrupt a word the xoshiro256++ output function actually reads
        // (`rotl(s0 + s3, 23) + s0`): the one-draw fingerprint sees s0/s3
        // immediately; s1/s2 corruption would surface only after a step.
        ck.rng_states[2].s0 ^= 1;
        let (mut other, _) = fresh(&g);
        let err = ck.restore_into(&mut other, decode).unwrap_err();
        assert!(matches!(err, CheckpointError::FingerprintMismatch { .. }), "{err}");
    }
}
