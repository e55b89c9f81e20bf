//! Pluggable topology views: what the engine consults each time-step.
//!
//! The paper's model is a *static* graph with synchronous wake-up. To
//! measure how the α-parametrized algorithms degrade under structural
//! change (churn, partitions, adversarial jamming, staggered wake-up), the
//! engine no longer reads `&Graph` directly; it consults a [`TopologyView`]
//! at every step. The view answers four questions:
//!
//! * which edges exist *right now* ([`neighbors`](TopologyView::neighbors));
//! * which nodes participate *right now* ([`is_active`](TopologyView::is_active)
//!   — crashed or not-yet-awake nodes neither act nor hear);
//! * which listeners are drowned in noise ([`is_jammed`](TopologyView::is_jammed)
//!   — a jammed listener never decodes, and with collision detection hears a
//!   collision signal);
//! * how the view evolves ([`advance_to`](TopologyView::advance_to), called
//!   once per step with the global clock), which nodes that touched
//!   ([`drain_status_changes`](TopologyView::drain_status_changes)), and
//!   when it may next change ([`next_event`](TopologyView::next_event)).
//!
//! [`StaticTopology`] is the zero-cost identity view reproducing the paper's
//! model exactly; `radionet_api::dynamics` provides the dynamic overlay.

use radionet_graph::{Graph, NodeId};

/// A (possibly time-varying) view over a base [`Graph`].
///
/// All methods receive the immutable base graph rather than storing it, so
/// views stay `'static` and cheaply constructible; the engine owns the view
/// and threads the base graph through.
///
/// # Contract
///
/// `advance_to` is called with non-decreasing clock values; after
/// `advance_to(base, t)` the other methods must describe the topology at
/// time `t`. `neighbors(base, v)` must be a subset of `base.neighbors(v)`
/// (views may remove edges, never invent them), and edge removal must be
/// symmetric.
///
/// Both kernels run over every view, so three methods have no default and
/// each view states its answer:
///
/// * [`drain_status_changes`](TopologyView::drain_status_changes) reports
///   every node whose `is_active` / `is_retired` answer may have changed
///   since the previous drain (the sparse kernel never polls);
/// * [`jammed_nodes`](TopologyView::jammed_nodes) lists exactly the nodes
///   for which `is_jammed` is true;
/// * [`next_event`](TopologyView::next_event) bounds the next observable
///   change from below, so the sparse kernel never jumps past one.
///
/// A view whose status never changes states an empty feed and `None`
/// explicitly, as [`StaticTopology`] does.
pub trait TopologyView {
    /// Advances the view's internal state to global clock `clock`.
    fn advance_to(&mut self, base: &Graph, clock: u64);

    /// The *current* neighbors of `v` (a subset of the base adjacency).
    fn neighbors<'a>(&'a self, base: &'a Graph, v: NodeId) -> &'a [NodeId];

    /// Whether `v` currently participates: alive (not crashed) and awake.
    /// Inactive nodes neither act nor hear, and a phase can complete
    /// without them.
    fn is_active(&self, v: NodeId) -> bool;

    /// Whether a listener at `v` is currently drowned by an adjacent
    /// jammer's noise.
    fn is_jammed(&self, v: NodeId) -> bool;

    /// Whether `v` is inactive with **no scheduled return** (permanently
    /// crashed, or defected for good). A phase may complete while retired
    /// nodes are unfinished; it must keep running for nodes that are only
    /// temporarily inactive (asleep, crashed-but-rejoining, jamming for a
    /// window), so their return gets simulated.
    ///
    /// The default treats every inactive node as retired; views that carry
    /// an event timeline should override with pending-event awareness.
    fn is_retired(&self, v: NodeId) -> bool {
        !self.is_active(v)
    }

    /// Drains the set of nodes whose `is_active` / `is_retired` answer may
    /// have changed since the previous drain, appending them to `out` (the
    /// **batch change feed**). The engine calls this once per step right
    /// after [`advance_to`](TopologyView::advance_to) and re-queries the
    /// status of every reported node, so over-approximating is safe;
    /// **omitting a changed node is not** — the sparse kernel would keep a
    /// stale view of it.
    fn drain_status_changes(&mut self, out: &mut Vec<NodeId>);

    /// The exact set of currently jam-exposed nodes (those for which
    /// [`is_jammed`](TopologyView::is_jammed) returns true). The sparse
    /// kernel iterates this instead of scanning all listeners to deliver
    /// the collision-detection "jamming sounds like a collision" signal on
    /// otherwise silent steps.
    fn jammed_nodes(&self) -> &[NodeId];

    /// The current node positions (`[x, y, z]`, one per node), when this
    /// view derives its topology from geometry — what
    /// `PositionSource::Live` SINR reception reads after every
    /// [`advance_to`](TopologyView::advance_to). Purely structural views
    /// return `None` (the default), which makes live-position SINR a
    /// construction-time error ([`Sim::try_with_topology`]).
    ///
    /// [`Sim::try_with_topology`]: crate::Sim::try_with_topology
    fn positions(&self) -> Option<&[[f64; 3]]> {
        None
    }

    /// A version stamp for [`positions`](TopologyView::positions): must
    /// change whenever any position may have moved since the previous
    /// call. The engine caches position-derived structures (the sparse
    /// SINR kernel's spatial index) keyed on this value, so a stale stamp
    /// means stale reception geometry. Constant (`0`) for views whose
    /// positions never move.
    fn positions_version(&self) -> u64 {
        0
    }

    /// The earliest global clock `t > clock` at which this view's
    /// observable state (active/jammed/retired status, edge set, positions,
    /// or any [`advance_to`](TopologyView::advance_to)-driven counter) may
    /// next change, or `None` if it never will. The sparse kernel
    /// ([`Kernel::Sparse`](crate::Kernel)) jumps the clock over silent spans
    /// up to this bound, and `Checkpoint::restore_into` fast-forwards a
    /// restored topology event-to-event with it.
    ///
    /// # Contract (batch fast-forward)
    ///
    /// Callers that jump rely on this being **conservative and complete**:
    /// calling `advance_to(base, t)` for exactly the sequence of times
    /// returned by repeated `next_event` queries must leave the view — and
    /// every deterministic counter it exposes (e.g.
    /// [`index_work`](TopologyView::index_work)) — in the same state as
    /// calling `advance_to` at every intermediate clock value. Returning a
    /// time that turns out to be changeless is safe (the caller lands on an
    /// uneventful step); returning a time *past* a change is not.
    fn next_event(&self, clock: u64) -> Option<u64>;

    /// Cumulative spatial-index maintenance work the view has performed:
    /// `(cell_crossings, rows_recomputed)`. The engine copies these into
    /// [`SimStats`](crate::SimStats) after every phase so mobility-driven
    /// index churn shows up in reports. Counts are totals since
    /// construction (the engine assigns, never adds) and must be a
    /// deterministic function of the advance history — both kernels drive
    /// [`advance_to`](TopologyView::advance_to) identically, so the stats
    /// stay kernel-invariant. Static views report `(0, 0)` (the default).
    fn index_work(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// The paper's model: the base graph itself, always-on, never jammed.
///
/// This is the default view of [`Sim`](crate::Sim) and compiles to the
/// pre-refactor behavior (all methods are trivially inlinable constants or
/// direct CSR reads).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StaticTopology;

impl TopologyView for StaticTopology {
    #[inline]
    fn advance_to(&mut self, _base: &Graph, _clock: u64) {}

    #[inline]
    fn neighbors<'a>(&'a self, base: &'a Graph, v: NodeId) -> &'a [NodeId] {
        base.neighbors(v)
    }

    #[inline]
    fn is_active(&self, _v: NodeId) -> bool {
        true
    }

    #[inline]
    fn is_jammed(&self, _v: NodeId) -> bool {
        false
    }

    /// Nothing ever changes, so the (empty) change feed is trivially exact.
    #[inline]
    fn drain_status_changes(&mut self, _out: &mut Vec<NodeId>) {}

    #[inline]
    fn jammed_nodes(&self) -> &[NodeId] {
        &[]
    }

    /// Nothing ever changes, so there is no next event.
    #[inline]
    fn next_event(&self, _clock: u64) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_view_is_identity() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut view = StaticTopology;
        assert_eq!(view.next_event(0), None, "a static view never has a next event");
        view.advance_to(&g, 1000);
        for v in g.nodes() {
            assert_eq!(view.neighbors(&g, v), g.neighbors(v));
            assert!(view.is_active(v));
            assert!(!view.is_jammed(v));
        }
        let mut changed = Vec::new();
        view.drain_status_changes(&mut changed);
        assert!(changed.is_empty() && view.jammed_nodes().is_empty(), "the feed is empty");
    }
}
