//! The mutable topology overlay: a [`TopologyView`] driven by a
//! [`ScenarioEvent`] timeline.
//!
//! # Example: broadcast across a partition that heals
//!
//! ```
//! use radionet_api::dynamics::DynamicTopology;
//! use radionet_api::events::{EventKind, ScenarioEvent};
//! use radionet_core::broadcast::run_broadcast;
//! use radionet_core::compete::CompeteConfig;
//! use radionet_graph::generators;
//! use radionet_sim::{NetInfo, ReceptionMode, Sim};
//!
//! let g = generators::grid2d(6, 6);
//! let info = NetInfo::exact(&g);
//! // Split into 2 blocks immediately; repair at step 2000.
//! let script = vec![
//!     ScenarioEvent::new(0, EventKind::Partition(2)),
//!     ScenarioEvent::new(2000, EventKind::Heal),
//! ];
//! let topo = DynamicTopology::new(&g, script);
//! let mut sim = Sim::with_topology(&g, topo, info, 7, ReceptionMode::Protocol);
//! let out = run_broadcast(&mut sim, g.node(0), 42, &CompeteConfig::default());
//! assert!(out.completed(), "broadcast must recover after the repair");
//! ```

use crate::events::{EventKind, ScenarioEvent};
use radionet_graph::{Graph, NodeId};
use radionet_sim::TopologyView;
use std::collections::HashSet;

/// A dynamic overlay over an immutable base [`Graph`].
///
/// The overlay tracks node liveness (crash/join), wake-up times, jammer
/// status, faded edges, and an optional k-way partition, and materializes
/// the *current* adjacency lists so the engine's hot loop reads plain
/// slices. Events are applied lazily as [`TopologyView::advance_to`] moves
/// the clock forward; adjacency is rebuilt only on steps where at least one
/// event fires, so a quiet step costs four `Vec` index reads.
///
/// Everything is a deterministic function of `(base graph, script)`.
#[derive(Clone, Debug)]
pub struct DynamicTopology {
    events: Vec<ScenarioEvent>,
    cursor: usize,
    alive: Vec<bool>,
    awake: Vec<bool>,
    jammer: Vec<bool>,
    edges_down: HashSet<(u32, u32)>,
    /// Partition block of each node while a partition is active.
    blocks: Option<Vec<u32>>,
    /// Materialized current adjacency (subset of the base CSR lists).
    adj: Vec<Vec<NodeId>>,
    /// Whether some *current* neighbor is an active jammer.
    jam_exposed: Vec<bool>,
    /// Per-node count of *pending* reactivation events (Join / Wake /
    /// JammerOff): a node with a nonzero count is never retired — the
    /// engine must keep the phase alive until its return is simulated.
    pending_returns: Vec<u32>,
    /// Batch change feed for the sparse kernel: nodes named by events
    /// applied since the engine last drained. Over-approximates (an event
    /// may leave status unchanged), which the feed contract allows.
    changed: Vec<NodeId>,
    /// Materialized jam-exposed set (the `true` entries of `jam_exposed`),
    /// rebuilt alongside it.
    jam_list: Vec<NodeId>,
}

fn edge_key(u: usize, v: usize) -> (u32, u32) {
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    (a as u32, b as u32)
}

impl DynamicTopology {
    /// Builds the overlay for `base` from an event script.
    ///
    /// The script is sorted by time (stably, so same-instant events apply
    /// in script order). Nodes with a [`EventKind::Wake`] event start the
    /// run asleep.
    ///
    /// # Panics
    ///
    /// Panics if an event names a node or edge endpoint outside `base`.
    pub fn new(base: &Graph, mut events: Vec<ScenarioEvent>) -> Self {
        let n = base.n();
        for e in &events {
            if let Some(v) = e.kind.node() {
                assert!(v < n, "event {e:?} names node {v} but n = {n}");
            }
            if let EventKind::EdgeDown((u, v)) | EventKind::EdgeUp((u, v)) = e.kind {
                assert!(u < n && v < n, "event {e:?} names an endpoint out of range");
                assert!(u != v, "event {e:?} is a self-loop");
            }
            if let EventKind::Partition(k) = e.kind {
                assert!(k >= 2, "a partition needs at least 2 parts");
            }
        }
        events.sort_by_key(|e| e.at);
        let mut awake = vec![true; n];
        let mut pending_returns = vec![0u32; n];
        for e in &events {
            if let EventKind::Wake(v) = e.kind {
                awake[v] = false;
            }
            if let EventKind::Join(v) | EventKind::Wake(v) | EventKind::JammerOff(v) = e.kind {
                pending_returns[v] += 1;
            }
        }
        let mut topo = DynamicTopology {
            events,
            cursor: 0,
            alive: vec![true; n],
            awake,
            jammer: vec![false; n],
            edges_down: HashSet::new(),
            blocks: None,
            adj: vec![Vec::new(); n],
            jam_exposed: vec![false; n],
            pending_returns,
            changed: Vec::new(),
            jam_list: Vec::new(),
        };
        topo.rebuild(base);
        topo
    }

    /// A view with no events: behaves exactly like the static topology.
    pub fn unperturbed(base: &Graph) -> Self {
        Self::new(base, Vec::new())
    }

    /// Number of events not yet applied.
    pub fn pending_events(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// Current number of undirected overlay edges.
    pub fn current_edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    fn apply(&mut self, kind: EventKind) {
        if let Some(v) = kind.node() {
            // Activity / retirement can only change for the named node;
            // structural events (edges, partitions) touch neither.
            self.changed.push(NodeId::new(v));
        }
        if let EventKind::Join(v) | EventKind::Wake(v) | EventKind::JammerOff(v) = kind {
            self.pending_returns[v] = self.pending_returns[v].saturating_sub(1);
        }
        match kind {
            EventKind::Crash(v) => self.alive[v] = false,
            EventKind::Join(v) => self.alive[v] = true,
            EventKind::EdgeDown((u, v)) => {
                self.edges_down.insert(edge_key(u, v));
            }
            EventKind::EdgeUp((u, v)) => {
                self.edges_down.remove(&edge_key(u, v));
            }
            EventKind::Partition(parts) => {
                let n = self.alive.len();
                // Contiguous index blocks of near-equal size; on the
                // geometric families, index order has no spatial meaning,
                // but the cut is deterministic and severs ~(1 - 1/k) of
                // long-range structure either way.
                let blocks =
                    (0..n).map(|v| ((v as u64 * parts as u64) / n.max(1) as u64) as u32).collect();
                self.blocks = Some(blocks);
            }
            EventKind::Heal => self.blocks = None,
            EventKind::JammerOn(v) => self.jammer[v] = true,
            EventKind::JammerOff(v) => self.jammer[v] = false,
            EventKind::Wake(v) => self.awake[v] = true,
        }
    }

    fn rebuild(&mut self, base: &Graph) {
        let n = base.n();
        for v in 0..n {
            self.adj[v].clear();
            if !self.alive[v] {
                continue;
            }
            for &w in base.neighbors(NodeId::new(v)) {
                let wi = w.index();
                if !self.alive[wi] {
                    continue;
                }
                if !self.edges_down.is_empty() && self.edges_down.contains(&edge_key(v, wi)) {
                    continue;
                }
                if let Some(blocks) = &self.blocks {
                    if blocks[v] != blocks[wi] {
                        continue;
                    }
                }
                self.adj[v].push(w);
            }
        }
        self.jam_list.clear();
        for v in 0..n {
            self.jam_exposed[v] =
                self.adj[v].iter().any(|w| self.jammer[w.index()] && self.awake[w.index()]);
            if self.jam_exposed[v] {
                self.jam_list.push(NodeId::new(v));
            }
        }
    }
}

impl TopologyView for DynamicTopology {
    fn advance_to(&mut self, base: &Graph, clock: u64) {
        let mut changed = false;
        while let Some(e) = self.events.get(self.cursor) {
            if e.at > clock {
                break;
            }
            let kind = e.kind;
            self.cursor += 1;
            self.apply(kind);
            changed = true;
        }
        if changed {
            self.rebuild(base);
        }
    }

    fn neighbors<'a>(&'a self, _base: &'a Graph, v: NodeId) -> &'a [NodeId] {
        &self.adj[v.index()]
    }

    fn is_active(&self, v: NodeId) -> bool {
        let i = v.index();
        self.alive[i] && self.awake[i] && !self.jammer[i]
    }

    fn is_jammed(&self, v: NodeId) -> bool {
        self.jam_exposed[v.index()]
    }

    fn is_retired(&self, v: NodeId) -> bool {
        !self.is_active(v) && self.pending_returns[v.index()] == 0
    }

    fn drain_status_changes(&mut self, out: &mut Vec<NodeId>) {
        out.append(&mut self.changed);
    }

    fn jammed_nodes(&self) -> &[NodeId] {
        &self.jam_list
    }

    /// The next scripted event strictly after `clock`. The script is
    /// sorted and the cursor has consumed every event with `at <= clock`,
    /// so this is a short scan from the cursor (events sharing one `at`
    /// are adjacent).
    fn next_event(&self, clock: u64) -> Option<u64> {
        self.events[self.cursor..].iter().find(|e| e.at > clock).map(|e| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::ScenarioEvent as Ev;
    use radionet_graph::generators;

    fn degrees(t: &DynamicTopology, g: &Graph) -> Vec<usize> {
        g.nodes().map(|v| t.neighbors(g, v).len()).collect()
    }

    #[test]
    fn unperturbed_matches_base() {
        let g = generators::grid2d(4, 4);
        let mut t = DynamicTopology::unperturbed(&g);
        t.advance_to(&g, 10_000);
        for v in g.nodes() {
            assert_eq!(t.neighbors(&g, v), g.neighbors(v));
            assert!(t.is_active(v));
            assert!(!t.is_jammed(v));
        }
    }

    #[test]
    fn crash_removes_edges_join_restores() {
        let g = generators::star(5); // hub 0
        let script = vec![Ev::new(10, EventKind::Crash(0)), Ev::new(20, EventKind::Join(0))];
        let mut t = DynamicTopology::new(&g, script);
        assert_eq!(degrees(&t, &g), vec![4, 1, 1, 1, 1]);
        t.advance_to(&g, 10);
        assert!(!t.is_active(g.node(0)));
        assert_eq!(degrees(&t, &g), vec![0, 0, 0, 0, 0]);
        t.advance_to(&g, 19);
        assert!(!t.is_active(g.node(0)), "events must not re-fire");
        t.advance_to(&g, 20);
        assert!(t.is_active(g.node(0)));
        assert_eq!(degrees(&t, &g), vec![4, 1, 1, 1, 1]);
    }

    #[test]
    fn edge_fade_is_symmetric() {
        let g = generators::path(4); // 0-1-2-3
        let script = vec![
            Ev::new(5, EventKind::EdgeDown((2, 1))), // reversed orientation
            Ev::new(9, EventKind::EdgeUp((1, 2))),
        ];
        let mut t = DynamicTopology::new(&g, script);
        t.advance_to(&g, 5);
        assert_eq!(degrees(&t, &g), vec![1, 1, 1, 1]);
        assert!(!t.neighbors(&g, g.node(1)).contains(&g.node(2)));
        assert!(!t.neighbors(&g, g.node(2)).contains(&g.node(1)));
        t.advance_to(&g, 9);
        assert_eq!(degrees(&t, &g), degrees(&DynamicTopology::unperturbed(&g), &g));
    }

    #[test]
    fn partition_cuts_cross_block_edges_only() {
        let g = generators::path(8);
        let script = vec![Ev::new(1, EventKind::Partition(2)), Ev::new(2, EventKind::Heal)];
        let mut t = DynamicTopology::new(&g, script);
        t.advance_to(&g, 1);
        // Blocks {0..3} and {4..7}: exactly the 3-4 edge is cut.
        assert!(!t.neighbors(&g, g.node(3)).contains(&g.node(4)));
        assert_eq!(t.current_edge_count(), g.m() - 1);
        t.advance_to(&g, 2);
        assert_eq!(t.current_edge_count(), g.m());
    }

    #[test]
    fn partition_many_parts() {
        let g = generators::path(9);
        let mut t = DynamicTopology::new(&g, vec![Ev::new(0, EventKind::Partition(3))]);
        t.advance_to(&g, 0);
        // Blocks of 3: cuts 2-3 and 5-6.
        assert_eq!(t.current_edge_count(), g.m() - 2);
    }

    #[test]
    fn jammer_leaves_protocol_and_deafens_neighbors() {
        let g = generators::star(5); // hub 0, leaves 1..4
        let script = vec![Ev::new(3, EventKind::JammerOn(1)), Ev::new(8, EventKind::JammerOff(1))];
        let mut t = DynamicTopology::new(&g, script);
        t.advance_to(&g, 3);
        assert!(!t.is_active(g.node(1)), "a jammer does not run the protocol");
        assert!(t.is_jammed(g.node(0)), "the hub neighbors the jammer");
        assert!(!t.is_jammed(g.node(2)), "leaf 2 is out of jamming range");
        t.advance_to(&g, 8);
        assert!(t.is_active(g.node(1)));
        assert!(!t.is_jammed(g.node(0)));
    }

    #[test]
    fn wake_events_start_asleep() {
        let g = generators::path(3);
        let mut t = DynamicTopology::new(&g, vec![Ev::new(7, EventKind::Wake(2))]);
        assert!(!t.is_active(g.node(2)));
        assert!(t.is_active(g.node(1)));
        // Asleep nodes keep their edges.
        assert_eq!(t.neighbors(&g, g.node(2)), g.neighbors(g.node(2)));
        t.advance_to(&g, 7);
        assert!(t.is_active(g.node(2)));
    }

    #[test]
    fn rejoining_node_is_not_retired() {
        // A crashed node with a pending Join must keep the phase alive
        // (the engine waits for retired-or-done, not inactive-or-done).
        let g = generators::path(3);
        let script = vec![Ev::new(2, EventKind::Crash(1)), Ev::new(10, EventKind::Join(1))];
        let mut t = DynamicTopology::new(&g, script);
        t.advance_to(&g, 2);
        assert!(!t.is_active(g.node(1)));
        assert!(!t.is_retired(g.node(1)), "a Join is still scheduled");
        t.advance_to(&g, 10);
        assert!(t.is_active(g.node(1)));
        assert!(!t.is_retired(g.node(1)));
    }

    #[test]
    fn permanently_crashed_node_is_retired() {
        let g = generators::path(3);
        let mut t = DynamicTopology::new(&g, vec![Ev::new(2, EventKind::Crash(1))]);
        t.advance_to(&g, 2);
        assert!(!t.is_active(g.node(1)));
        assert!(t.is_retired(g.node(1)), "no return is scheduled");
    }

    #[test]
    fn jammer_with_scheduled_off_is_not_retired() {
        let g = generators::path(3);
        let script = vec![Ev::new(1, EventKind::JammerOn(2)), Ev::new(9, EventKind::JammerOff(2))];
        let mut t = DynamicTopology::new(&g, script);
        t.advance_to(&g, 1);
        assert!(!t.is_active(g.node(2)));
        assert!(!t.is_retired(g.node(2)), "the jam window ends at t=9");
        t.advance_to(&g, 9);
        assert!(t.is_active(g.node(2)));
    }

    #[test]
    fn same_instant_events_apply_in_script_order() {
        let g = generators::path(3);
        let script = vec![Ev::new(4, EventKind::Crash(1)), Ev::new(4, EventKind::Join(1))];
        let mut t = DynamicTopology::new(&g, script);
        t.advance_to(&g, 4);
        assert!(t.is_active(g.node(1)));
        assert_eq!(t.pending_events(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        let g = generators::path(3);
        let _ = DynamicTopology::new(&g, vec![Ev::new(0, EventKind::EdgeDown((0, 9)))]);
    }

    #[test]
    #[should_panic(expected = "names node")]
    fn out_of_range_node_rejected() {
        let g = generators::path(3);
        let _ = DynamicTopology::new(&g, vec![Ev::new(0, EventKind::Crash(7))]);
    }
}
