//! The topology the driver hands every task: scripted overlay or moving
//! geometry, behind one [`TopologyView`].
//!
//! [`Task::run`](crate::Task::run) is generic over the simulator's
//! observer only: [`RunTopology`] is its one view type, so each algorithm
//! compiles once per observer, not once per observer and view. Scripted
//! dynamics (the paper's static model is an empty script) run on
//! the [`DynamicTopology`] overlay exactly as before the mobility
//! subsystem; [`Dynamics::Mobility`](crate::Dynamics::Mobility) recipes run
//! on a [`MobileTopology`] whose edges are re-derived from the moving point
//! set each step. Both arms implement the sparse kernel's batch change
//! feed, so every task runs under the active-set kernel unmodified.

use crate::dynamics::DynamicTopology;
use radionet_graph::{Graph, NodeId};
use radionet_mobility::MobileTopology;
use radionet_sim::TopologyView;

/// The driver's unified topology: one of the two run-time views.
///
/// One value exists per run and lives for the whole run, so the size gap
/// between the two variants costs one oversized stack slot, not a hot-path
/// indirection (boxing the mobile arm would put a pointer chase inside
/// every `neighbors` call instead).
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum RunTopology {
    /// The event-scripted overlay (static runs use an empty script).
    Scripted(DynamicTopology),
    /// Moving geometric nodes with a derived edge set.
    Mobile(MobileTopology),
}

impl RunTopology {
    /// The mobile view, when this run is a mobility run.
    pub fn mobile(&self) -> Option<&MobileTopology> {
        match self {
            RunTopology::Scripted(_) => None,
            RunTopology::Mobile(m) => Some(m),
        }
    }

    /// The scripted overlay, when this run is event-driven.
    pub fn scripted(&self) -> Option<&DynamicTopology> {
        match self {
            RunTopology::Scripted(d) => Some(d),
            RunTopology::Mobile(_) => None,
        }
    }
}

impl TopologyView for RunTopology {
    fn advance_to(&mut self, base: &Graph, clock: u64) {
        match self {
            RunTopology::Scripted(t) => t.advance_to(base, clock),
            RunTopology::Mobile(t) => t.advance_to(base, clock),
        }
    }

    fn neighbors<'a>(&'a self, base: &'a Graph, v: NodeId) -> &'a [NodeId] {
        match self {
            RunTopology::Scripted(t) => t.neighbors(base, v),
            RunTopology::Mobile(t) => t.neighbors(base, v),
        }
    }

    fn is_active(&self, v: NodeId) -> bool {
        match self {
            RunTopology::Scripted(t) => t.is_active(v),
            RunTopology::Mobile(t) => t.is_active(v),
        }
    }

    fn is_jammed(&self, v: NodeId) -> bool {
        match self {
            RunTopology::Scripted(t) => t.is_jammed(v),
            RunTopology::Mobile(t) => t.is_jammed(v),
        }
    }

    fn is_retired(&self, v: NodeId) -> bool {
        match self {
            RunTopology::Scripted(t) => t.is_retired(v),
            RunTopology::Mobile(t) => t.is_retired(v),
        }
    }

    fn drain_status_changes(&mut self, out: &mut Vec<NodeId>) {
        match self {
            RunTopology::Scripted(t) => t.drain_status_changes(out),
            RunTopology::Mobile(t) => t.drain_status_changes(out),
        }
    }

    fn jammed_nodes(&self) -> &[NodeId] {
        match self {
            RunTopology::Scripted(t) => t.jammed_nodes(),
            RunTopology::Mobile(t) => t.jammed_nodes(),
        }
    }

    fn next_event(&self, clock: u64) -> Option<u64> {
        match self {
            RunTopology::Scripted(t) => t.next_event(clock),
            RunTopology::Mobile(t) => t.next_event(clock),
        }
    }

    fn positions(&self) -> Option<&[[f64; 3]]> {
        match self {
            // Qualified: `MobileTopology` also has an inherent
            // `positions()` (infallible) that would shadow the trait's.
            RunTopology::Scripted(t) => TopologyView::positions(t),
            RunTopology::Mobile(t) => TopologyView::positions(t),
        }
    }

    fn positions_version(&self) -> u64 {
        match self {
            RunTopology::Scripted(t) => t.positions_version(),
            RunTopology::Mobile(t) => t.positions_version(),
        }
    }

    fn index_work(&self) -> (u64, u64) {
        match self {
            RunTopology::Scripted(t) => t.index_work(),
            RunTopology::Mobile(t) => t.index_work(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EventKind, ScenarioEvent};
    use radionet_graph::families::Family;
    use radionet_graph::generators;
    use radionet_mobility::MobilityModel;

    #[test]
    fn scripted_arm_delegates() {
        let g = generators::star(5);
        let script = vec![ScenarioEvent::new(3, EventKind::Crash(1))];
        let mut topo = RunTopology::Scripted(DynamicTopology::new(&g, script));
        assert!(topo.scripted().is_some());
        assert!(topo.mobile().is_none());
        assert!(topo.is_active(g.node(1)));
        topo.advance_to(&g, 3);
        assert!(!topo.is_active(g.node(1)));
        assert!(topo.is_retired(g.node(1)));
        let mut changed = Vec::new();
        topo.drain_status_changes(&mut changed);
        assert_eq!(changed, vec![g.node(1)]);
    }

    #[test]
    fn mobile_arm_delegates() {
        let p = Family::UnitDisk.instantiate_positioned(32, 1);
        let inner = MobileTopology::new(&p.geometry.unwrap(), MobilityModel::Static, 1, 1);
        let mut topo = RunTopology::Mobile(inner);
        assert!(topo.mobile().is_some());
        topo.advance_to(&p.graph, 10);
        for v in p.graph.nodes() {
            assert!(topo.is_active(v));
            assert!(!topo.is_jammed(v));
            assert!(!topo.is_retired(v));
            assert_eq!(topo.neighbors(&p.graph, v), p.graph.neighbors(v));
        }
        assert!(topo.jammed_nodes().is_empty());
    }
}
