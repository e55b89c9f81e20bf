//! Cumulative simulation statistics.

use crate::engine::PhaseReport;
use serde::{Deserialize, Serialize};

/// Statistics accumulated by a [`Sim`](crate::Sim) across all phases.
///
/// `simulated_steps` count real collision-resolved steps; `charged_steps`
/// are oracle costs added with [`Sim::charge`](crate::Sim::charge) and priced
/// by [`CostModel`](crate::CostModel). Experiments report the two separately.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimStats {
    /// Real simulated time-steps.
    pub simulated_steps: u64,
    /// Oracle-charged time-steps.
    pub charged_steps: u64,
    /// Total transmissions.
    pub transmissions: u64,
    /// Successful deliveries.
    pub deliveries: u64,
    /// Listener-side collisions (≥ 2 transmitting neighbors).
    pub collisions: u64,
    /// Always zero: every phase executes the kernel that was requested.
    /// The field stays so recorded reports keep their shape.
    pub kernel_fallbacks: u64,
    /// Phases executed ([`Sim::run_phase`](crate::Sim::run_phase) calls).
    pub phases: u64,
    /// The busiest single step: maximum transmissions in any one simulated
    /// step. A cheap occupancy gauge for the sparse kernel's active set
    /// (its per-step work is proportional to this, not to `n`) — and
    /// kernel-invariant, so it participates in the equivalence tests.
    pub peak_step_transmissions: u64,
    /// Spatial-index cell crossings performed by a mobility-backed
    /// topology view ([`TopologyView::index_work`](crate::TopologyView::index_work));
    /// zero for static views.
    pub mobility_cell_crossings: u64,
    /// Grid rows recomputed by a mobility-backed topology view; zero for
    /// static views.
    pub mobility_rows_recomputed: u64,
    /// Timer entries popped by the sparse scheduler (wake and done
    /// deadlines, stale lazy-deletion entries included): exactly the
    /// entries that come due inside the phase, whether the clock jumps
    /// over a span or not. A hint that repeats a node's live wake or done
    /// time adds no entry. Zero for the dense kernel, which has no
    /// scheduler.
    pub scheduler_events: u64,
    /// Steps the sparse kernel ([`Kernel::Sparse`](crate::Kernel::Sparse))
    /// charged to the clock without executing, because nothing could
    /// observably happen in them. Always zero for the dense kernel.
    /// `simulated_steps` still counts these (the phase clock is
    /// kernel-invariant); this counter says how many of them were free.
    pub silent_steps_skipped: u64,
}

impl SimStats {
    /// Total clock: simulated plus charged.
    pub fn total_steps(&self) -> u64 {
        self.simulated_steps + self.charged_steps
    }

    /// A copy with every kernel-*dependent* counter zeroed
    /// (`scheduler_events`, `silent_steps_skipped`).
    /// What remains must be byte-identical across the dense and sparse
    /// kernels, so cross-kernel equivalence tests compare
    /// `a.kernel_invariant() == b.kernel_invariant()` instead of listing
    /// fields.
    pub fn kernel_invariant(&self) -> SimStats {
        SimStats { scheduler_events: 0, silent_steps_skipped: 0, ..*self }
    }

    pub(crate) fn absorb_phase(&mut self, rep: &PhaseReport) {
        self.simulated_steps += rep.steps;
        self.transmissions += rep.transmissions;
        self.deliveries += rep.deliveries;
        self.collisions += rep.collisions;
        self.phases += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut s = SimStats::default();
        s.absorb_phase(&PhaseReport {
            steps: 10,
            transmissions: 5,
            deliveries: 3,
            collisions: 1,
            completed: true,
        });
        s.absorb_phase(&PhaseReport {
            steps: 2,
            transmissions: 2,
            deliveries: 2,
            collisions: 0,
            completed: false,
        });
        assert_eq!(s.simulated_steps, 12);
        assert_eq!(s.transmissions, 7);
        assert_eq!(s.deliveries, 5);
        assert_eq!(s.collisions, 1);
        assert_eq!(s.phases, 2);
        assert_eq!(s.total_steps(), 12);
    }

    #[test]
    fn kernel_invariant_zeroes_only_scheduler_counters() {
        let s = SimStats {
            deliveries: 3,
            scheduler_events: 5,
            silent_steps_skipped: 9,
            ..SimStats::default()
        };
        let inv = s.kernel_invariant();
        assert_eq!(inv.scheduler_events, 0);
        assert_eq!(inv.silent_steps_skipped, 0);
        assert_eq!(inv.deliveries, 3, "invariant counters must survive");
    }
}
