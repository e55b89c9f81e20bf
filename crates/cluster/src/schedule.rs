//! Per-cluster conflict-free transmission schedules, built engine-side and
//! charged through [`CostModel`](radionet_sim::CostModel).
//!
//! The paper's Intra-Cluster Propagation runs on fast schedules from
//! Ghaffari–Haeupler–Khabbazian / Haeupler–Wajc, black-boxed by the paper.
//! We build a concrete equivalent: for every clustering, a layer-pipelined
//! schedule in which each *slot* (one time-step) has a designated transmitter
//! set such that **within each cluster** every intended receiver hears
//! exactly one transmitter. Cross-cluster interference is *not* scheduled
//! away — exactly as in the paper, where the Algorithm 10 background process
//! exists to patch those collisions.
//!
//! Construction: BFS layers inside each cluster; for a downcast transition
//! `L_i → L_{i+1}` each child designates its BFS parent, and parents are
//! greedily colored so same-cluster parents sharing a potential listener
//! land in different slots. Upcast transitions are scheduled symmetrically
//! (children colored against their parents' neighborhoods). The result is
//! `ℓ + O(colors)`-length propagation to radius `ℓ`, with `colors = O(1)` on
//! growth-bounded graphs; [`ClusterSchedule::verify`] checks
//! conflict-freeness exhaustively, and the distributed construction cost is
//! charged via [`radionet_sim::CostModel`].

use crate::mpx::Clustering;
use radionet_graph::{Graph, NodeId};

/// A verified, layer-pipelined transmission schedule for one clustering.
#[derive(Clone, Debug)]
pub struct ClusterSchedule {
    /// Cluster index per node (copied from the clustering).
    pub cluster_of: Vec<Option<u32>>,
    /// BFS layer of each node within its cluster; `u32::MAX` if unclustered.
    pub layer: Vec<u32>,
    /// BFS parent towards the cluster center.
    pub parent: Vec<Option<NodeId>>,
    /// `down[i]` = slots (each a transmitter set drawn from layer `i`)
    /// moving messages from layer `i` to layer `i+1`, across all clusters.
    pub down: Vec<Vec<Vec<NodeId>>>,
    /// `up[i]` = slots where layer-`i+1` nodes transmit to their parents
    /// (indexed by `child layer − 1`).
    pub up: Vec<Vec<Vec<NodeId>>>,
    /// Maximum layer over all clusters.
    pub depth: u32,
}

impl ClusterSchedule {
    /// Builds the schedule for `clustering` on `g`.
    ///
    /// # Panics
    ///
    /// Panics if the clustering's `dist`/`parent` fields are inconsistent
    /// with `g` (use a validated [`Clustering`]).
    pub fn build(g: &Graph, clustering: &Clustering) -> Self {
        let layer = clustering.dist.clone();
        let parent = clustering.parent.clone();
        let cluster_of = clustering.cluster_of.clone();
        let depth = layer.iter().copied().filter(|&d| d != u32::MAX).max().unwrap_or(0);

        let mut down = Vec::with_capacity(depth as usize);
        let mut up = Vec::with_capacity(depth as usize);
        for i in 0..depth {
            // Children at layer i+1 and their designated parents at layer i.
            let children: Vec<NodeId> = g.nodes().filter(|v| layer[v.index()] == i + 1).collect();
            // --- Downcast: color the parent set.
            let mut parents: Vec<NodeId> = children
                .iter()
                .map(|c| parent[c.index()].expect("layer > 0 has a parent"))
                .collect();
            parents.sort_unstable();
            parents.dedup();
            // children_of[p] = children that designated p.
            let mut children_of: Vec<Vec<NodeId>> = vec![Vec::new(); parents.len()];
            let pindex = |p: NodeId, parents: &[NodeId]| parents.binary_search(&p).unwrap();
            for &c in &children {
                let p = parent[c.index()].unwrap();
                children_of[pindex(p, &parents)].push(c);
            }
            // Conflict: same-cluster parents a, b where some child of a is
            // adjacent to b (or vice versa).
            let down_colors = color_greedy(parents.len(), |a, b| {
                let (pa, pb) = (parents[a], parents[b]);
                if cluster_of[pa.index()] != cluster_of[pb.index()] {
                    return false;
                }
                children_of[a].iter().any(|c| g.has_edge(*c, pb))
                    || children_of[b].iter().any(|c| g.has_edge(*c, pa))
            });
            let slot_count = down_colors.iter().copied().max().map_or(0, |m| m + 1);
            let mut slots: Vec<Vec<NodeId>> = vec![Vec::new(); slot_count];
            for (pi, &color) in down_colors.iter().enumerate() {
                slots[color].push(parents[pi]);
            }
            down.push(slots);

            // --- Upcast: color the children against parent neighborhoods.
            // Conflict: same-cluster children c1, c2 where c2 is adjacent to
            // parent(c1) or c1 is adjacent to parent(c2). (Two children of
            // the same parent always conflict.)
            let up_colors = color_greedy(children.len(), |x, y| {
                let (cx, cy) = (children[x], children[y]);
                if cluster_of[cx.index()] != cluster_of[cy.index()] {
                    return false;
                }
                let px = parent[cx.index()].unwrap();
                let py = parent[cy.index()].unwrap();
                g.has_edge(cy, px) || g.has_edge(cx, py)
            });
            let slot_count = up_colors.iter().copied().max().map_or(0, |m| m + 1);
            let mut slots: Vec<Vec<NodeId>> = vec![Vec::new(); slot_count];
            for (ci, &color) in up_colors.iter().enumerate() {
                slots[color].push(children[ci]);
            }
            up.push(slots);
        }
        ClusterSchedule { cluster_of, layer, parent, down, up, depth }
    }

    /// Number of slots needed to downcast to radius `ℓ` (capped at depth).
    pub fn down_slots_to(&self, l: u32) -> usize {
        self.down.iter().take(l.min(self.depth) as usize).map(|s| s.len()).sum()
    }

    /// Number of slots needed to upcast from radius `ℓ` to the center.
    pub fn up_slots_to(&self, l: u32) -> usize {
        self.up.iter().take(l.min(self.depth) as usize).map(|s| s.len()).sum()
    }

    /// Verifies within-cluster conflict-freeness of every slot: for each
    /// downcast slot, every layer-`i+1` node whose parent transmits hears no
    /// other same-cluster transmitter; for each upcast slot, every parent of
    /// a transmitting child hears no other same-cluster transmitter.
    pub fn verify(&self, g: &Graph) -> bool {
        for (i, slots) in self.down.iter().enumerate() {
            for slot in slots {
                for &tx in slot {
                    debug_assert_eq!(self.layer[tx.index()], i as u32);
                    // All children of tx at layer i+1 must hear it.
                    for &c in g.neighbors(tx) {
                        if self.parent[c.index()] == Some(tx) {
                            let interference = slot.iter().any(|&other| {
                                other != tx
                                    && self.cluster_of[other.index()] == self.cluster_of[c.index()]
                                    && g.has_edge(other, c)
                            });
                            if interference {
                                return false;
                            }
                        }
                    }
                }
            }
        }
        for slots in self.up.iter() {
            for slot in slots {
                for &tx in slot {
                    let p = match self.parent[tx.index()] {
                        Some(p) => p,
                        None => return false,
                    };
                    let interference = slot.iter().any(|&other| {
                        other != tx
                            && self.cluster_of[other.index()] == self.cluster_of[p.index()]
                            && g.has_edge(other, p)
                    });
                    if interference {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// The maximum number of colors (slots) used by any single layer
    /// transition — `O(1)` on growth-bounded graphs, the quantity that makes
    /// pipelined propagation `O(ℓ)` there.
    pub fn max_colors(&self) -> usize {
        self.down.iter().map(|s| s.len()).chain(self.up.iter().map(|s| s.len())).max().unwrap_or(0)
    }
}

/// Greedy coloring of an implicit conflict graph on `k` items.
fn color_greedy(k: usize, conflicts: impl Fn(usize, usize) -> bool) -> Vec<usize> {
    let mut colors = vec![usize::MAX; k];
    for i in 0..k {
        let mut used: Vec<bool> = Vec::new();
        for (j, &color) in colors.iter().enumerate().take(i) {
            if conflicts(i, j) {
                let c = color;
                if used.len() <= c {
                    used.resize(c + 1, false);
                }
                used[c] = true;
            }
        }
        colors[i] = used.iter().position(|&u| !u).unwrap_or(used.len());
    }
    colors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpx::{partition_with_shifts, Shifts};
    use radionet_graph::generators;
    use radionet_graph::independent_set::greedy_mis_min_degree;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn single_cluster(g: &Graph, center: NodeId) -> Clustering {
        partition_with_shifts(g, &Shifts { centers: vec![center], deltas: vec![0.0] })
    }

    #[test]
    fn path_schedule_is_one_color() {
        // On a path each layer has one node; no conflicts anywhere.
        let g = generators::path(10);
        let c = single_cluster(&g, g.node(0));
        let s = ClusterSchedule::build(&g, &c);
        assert_eq!(s.depth, 9);
        assert!(s.verify(&g));
        assert_eq!(s.max_colors(), 1);
        assert_eq!(s.down_slots_to(9), 9);
        assert_eq!(s.up_slots_to(9), 9);
    }

    #[test]
    fn star_needs_many_up_colors() {
        // Star from hub: downcast is 1 slot (hub to all leaves); upcast needs
        // one slot per leaf (all children share the hub as parent).
        let g = generators::star(8);
        let c = single_cluster(&g, g.node(0));
        let s = ClusterSchedule::build(&g, &c);
        assert!(s.verify(&g));
        assert_eq!(s.down_slots_to(1), 1);
        assert_eq!(s.up_slots_to(1), 7);
    }

    #[test]
    fn grid_schedules_verified_and_shallow() {
        let g = generators::grid2d(9, 9);
        let c = single_cluster(&g, g.node(40)); // center of grid
        let s = ClusterSchedule::build(&g, &c);
        assert!(s.verify(&g));
        // Growth-bounded: constant colors per transition.
        assert!(s.max_colors() <= 12, "colors {}", s.max_colors());
    }

    #[test]
    fn multi_cluster_verified() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5 {
            let g = generators::connected_gnp(80, 0.06, &mut rng);
            let mis = greedy_mis_min_degree(&g);
            let c = crate::mpx::partition(&g, &mis, 0.4, &mut rng);
            assert!(c.validate(&g));
            let s = ClusterSchedule::build(&g, &c);
            assert!(s.verify(&g), "schedule conflict on {g:?}");
        }
    }

    #[test]
    fn udg_constant_colors() {
        let mut rng = StdRng::seed_from_u64(2);
        let inst = generators::unit_disk_in_square(250, 7.0, &mut rng);
        let g = &inst.graph;
        let mis = greedy_mis_min_degree(g);
        let c = crate::mpx::partition(g, &mis, 0.3, &mut rng);
        let s = ClusterSchedule::build(g, &c);
        assert!(s.verify(g));
        // Unit-disk density bounds the conflict degree by a constant
        // (≈ packing of disks); allow slack.
        assert!(s.max_colors() <= 40, "colors {}", s.max_colors());
    }

    #[test]
    fn slots_cap_at_depth() {
        let g = generators::path(6);
        let c = single_cluster(&g, g.node(0));
        let s = ClusterSchedule::build(&g, &c);
        assert_eq!(s.down_slots_to(100), s.down_slots_to(s.depth));
    }

    #[test]
    fn empty_graph_schedule() {
        let g = Graph::from_edges(0, []).unwrap();
        let c = Clustering { cluster_of: vec![], centers: vec![], dist: vec![], parent: vec![] };
        let s = ClusterSchedule::build(&g, &c);
        assert_eq!(s.depth, 0);
        assert!(s.verify(&g));
        assert_eq!(s.max_colors(), 0);
    }
}
