//! Collision-detection wake-up flooding.
//!
//! With collision detection, propagating a *signal* (one bit: "wake up")
//! needs no contention resolution at all: every awake node transmits every
//! step, and sleeping nodes treat message **and collision alike** as the
//! signal — the frontier advances one hop per step, completing in exactly
//! `eccentricity(source) ≤ D` steps. This is the mechanism behind the
//! collision-detection broadcast results the paper's related work cites
//! (Schneider–Wattenhofer \[29\]) and the reason the no-CD lower bounds
//! (`Ω(D log(n/D))` \[22\]) do not apply with CD. Experiment E13 quantifies
//! the gap against Decay-based flooding under the paper's model.

use radionet_graph::NodeId;
use radionet_sim::{
    Action, NetInfo, NodeCtx, Observer, Protocol, ReceptionMode, Sim, TopologyView, Wake,
};
use serde::{Deserialize, Serialize};

/// Configuration for the CD wake-up flood.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CdWakeupConfig {
    /// Step budget (completion takes at most the source eccentricity).
    pub max_steps: u64,
}

impl Default for CdWakeupConfig {
    fn default() -> Self {
        CdWakeupConfig { max_steps: 1 << 20 }
    }
}

/// Per-node state of the wake-up flood.
#[derive(Clone, Debug)]
pub struct CdWakeupNode {
    awake: bool,
    woke_at: Option<u64>,
}

impl CdWakeupNode {
    /// A source (awake at step 0) or a sleeping node.
    pub fn new(is_source: bool) -> Self {
        CdWakeupNode { awake: is_source, woke_at: is_source.then_some(0) }
    }

    /// When this node woke (step index), if it did.
    pub fn woke_at(&self) -> Option<u64> {
        self.woke_at
    }

    fn wake(&mut self, t: u64) {
        if !self.awake {
            self.awake = true;
            self.woke_at = Some(t + 1); // effective from the next step
        }
    }
}

impl Protocol for CdWakeupNode {
    type Msg = ();

    fn act(&mut self, _ctx: &mut NodeCtx<'_>) -> Action<()> {
        if self.awake {
            Action::Transmit(())
        } else {
            Action::Listen
        }
    }

    fn on_hear(&mut self, ctx: &mut NodeCtx<'_>, _msg: &()) {
        self.wake(ctx.time);
    }

    fn on_collision(&mut self, ctx: &mut NodeCtx<'_>) {
        // The whole point: a collision is just as informative as a message.
        self.wake(ctx.time);
    }

    fn is_done(&self) -> bool {
        self.awake
    }

    fn next_wake(&self, _now: u64) -> Wake {
        if self.awake {
            // Awake nodes beacon every step.
            Wake::Now
        } else {
            // Sleeping nodes are pure listeners until any signal — message
            // or collision — reaches them; the sparse kernel advances the
            // frontier in O(frontier-boundary) work per step.
            Wake::listen()
        }
    }
}

/// Outcome of a wake-up run.
#[derive(Clone, Debug)]
pub struct CdWakeupOutcome {
    /// Steps until every node was awake (`None` = budget exhausted).
    pub completion_steps: Option<u64>,
    /// Per-node wake times.
    pub woke_at: Vec<Option<u64>>,
}

/// Runs the wake-up flood from `source` **with collision detection**.
///
/// # Panics
///
/// Panics if `sim` does not run under
/// [`ReceptionMode::ProtocolCd`] — without CD this protocol stalls at the
/// first collision, which would silently measure the wrong thing.
pub fn run_cd_wakeup<T: TopologyView, O: Observer>(
    sim: &mut Sim<'_, T, O>,
    source: NodeId,
    config: &CdWakeupConfig,
) -> CdWakeupOutcome {
    assert_eq!(
        sim.reception(),
        &ReceptionMode::ProtocolCd,
        "CD wake-up requires collision detection"
    );
    let mut states: Vec<CdWakeupNode> =
        sim.graph().nodes().map(|v| CdWakeupNode::new(v == source)).collect();
    let rep = sim.run_phase(&mut states, config.max_steps);
    CdWakeupOutcome {
        completion_steps: rep.completed.then_some(rep.steps),
        woke_at: states.iter().map(|s| s.woke_at()).collect(),
    }
}

/// Convenience: builds a CD simulator and runs the wake-up flood.
pub fn cd_wakeup_on(
    g: &radionet_graph::Graph,
    info: NetInfo,
    seed: u64,
    source: NodeId,
) -> CdWakeupOutcome {
    let mut sim = Sim::with_reception(g, info, seed, ReceptionMode::ProtocolCd);
    run_cd_wakeup(&mut sim, source, &CdWakeupConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_graph::generators;
    use radionet_graph::traversal::eccentricity;

    #[test]
    fn wakes_path_in_exactly_d_steps() {
        let g = generators::path(32);
        let out = cd_wakeup_on(&g, NetInfo::exact(&g), 1, g.node(0));
        assert_eq!(out.completion_steps, Some(31));
        assert_eq!(out.woke_at[31], Some(31));
    }

    #[test]
    fn wakes_grid_in_eccentricity_steps() {
        let g = generators::grid2d(7, 7);
        let src = g.node(0);
        let out = cd_wakeup_on(&g, NetInfo::exact(&g), 2, src);
        assert_eq!(out.completion_steps, Some(eccentricity(&g, src) as u64));
    }

    #[test]
    fn clique_wakes_in_one_step() {
        let g = generators::complete(20);
        let out = cd_wakeup_on(&g, NetInfo::exact(&g), 3, g.node(5));
        assert_eq!(out.completion_steps, Some(1));
    }

    #[test]
    #[should_panic(expected = "requires collision detection")]
    fn rejects_default_model() {
        let g = generators::path(4);
        let mut sim = Sim::new(&g, NetInfo::exact(&g), 0);
        let _ = run_cd_wakeup(&mut sim, g.node(0), &CdWakeupConfig::default());
    }
}
