//! Breadth-first traversal, connectivity and diameter computation.
//!
//! The paper's running times are parametrized by the diameter `D`.
//! [`diameter`] computes it exactly, usually with a handful of BFS, by
//! bounding every node's eccentricity; [`diameter_exact`] is the all-pairs
//! reference it is tested against, and [`diameter_double_sweep`] a
//! three-BFS estimate within a factor 2.

use crate::{Graph, NodeId};
use std::cmp::Reverse;
use std::collections::VecDeque;

/// Distance marker for unreachable nodes in [`bfs_distances`].
pub const UNREACHABLE: u32 = u32::MAX;

/// BFS distances from `src` to every node; [`UNREACHABLE`] where no path.
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<u32> {
    bfs_distances_multi(g, std::slice::from_ref(&src))
}

/// BFS distances from the nearest of `sources`; [`UNREACHABLE`] where none.
///
/// With an empty source set, every node is unreachable.
///
/// Iterates the raw CSR arrays ([`Graph::csr`]) so million-node sweeps pay
/// no per-node slice re-derivation.
pub fn bfs_distances_multi(g: &Graph, sources: &[NodeId]) -> Vec<u32> {
    let (offsets, targets) = g.csr();
    let mut dist = vec![UNREACHABLE; g.n()];
    let mut queue = VecDeque::new();
    for &s in sources {
        if dist[s.index()] == UNREACHABLE {
            dist[s.index()] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let ui = u.index();
        let du = dist[ui];
        for &w in &targets[offsets[ui] as usize..offsets[ui + 1] as usize] {
            if dist[w.index()] == UNREACHABLE {
                dist[w.index()] = du + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Connected components: `(labels, count)` with labels in `0..count`.
pub fn connected_components(g: &Graph) -> (Vec<usize>, usize) {
    let mut label = vec![usize::MAX; g.n()];
    let mut count = 0;
    let mut queue = VecDeque::new();
    for s in g.nodes() {
        if label[s.index()] != usize::MAX {
            continue;
        }
        label[s.index()] = count;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &w in g.neighbors(u) {
                if label[w.index()] == usize::MAX {
                    label[w.index()] = count;
                    queue.push_back(w);
                }
            }
        }
        count += 1;
    }
    (label, count)
}

/// Whether the graph is connected. The empty graph counts as connected.
pub fn is_connected(g: &Graph) -> bool {
    g.n() <= 1 || connected_components(g).1 == 1
}

/// Eccentricity of `v`: the maximum BFS distance to any reachable node.
pub fn eccentricity(g: &Graph, v: NodeId) -> u32 {
    bfs_distances(g, v).into_iter().filter(|&d| d != UNREACHABLE).max().unwrap_or(0)
}

/// Exact diameter by all-pairs BFS. `O(n (n + m))`.
///
/// Disconnected graphs report the largest eccentricity within any component.
/// The reference for [`diameter`], which returns the same value.
pub fn diameter_exact(g: &Graph) -> u32 {
    g.nodes().map(|v| eccentricity(g, v)).max().unwrap_or(0)
}

/// Exact diameter: the largest eccentricity within any connected component.
///
/// Each component is searched with per-node eccentricity bounds (Takes and
/// Kosters, 2011): a BFS from `w` of eccentricity `e` shows that a node at
/// distance `d` from `w` has eccentricity between `max(d, e − d)` and
/// `e + d`. Let `lower` be the largest eccentricity seen. Only nodes whose
/// upper bound exceeds `lower` can end a longer shortest path, and two such
/// nodes farther apart than `lower` have, from every BFS source, distances
/// summing to more than `lower`. The search keeps two sources: the root,
/// the source of smallest eccentricity, and its partner, the source
/// farthest from the root. A candidate is the node of such a pair, for both
/// sources, that lies farther from the root, so `2·d(root, v) > lower`
/// (iFUB's fringe rule, Crescenzi et al.). When no candidate is left,
/// `D = lower`. On a grid, an even cycle, a hypercube or a path, every node
/// lies on a shortest path between the first two sources, so two BFS
/// suffice there.
///
/// BFS sources alternate between the candidate of largest upper bound and
/// a probe: the node of smallest lower bound that could have a smaller
/// eccentricity than the root, and so become a root with fewer candidates.
/// Probes stop after two in a row find no smaller eccentricity, and wait
/// while a single candidate is left; in their place comes the candidate of
/// smallest lower bound. A node adjacent to the rest of its component has
/// eccentricity 1, so a component with one has diameter 1 or 2 without
/// any further BFS.
///
/// Worst case `O(n (n + m))`; a grid, a tree or a geometric graph takes a
/// handful of BFS.
pub fn diameter(g: &Graph) -> u32 {
    let mut bfs = Bfs::new(g);
    let mut bounds = EccBounds::new(g.n());
    let mut seen = vec![false; g.n()];
    let mut d = 0;
    for x in 0..g.n() as u32 {
        if !seen[x as usize] {
            let ex = bfs.run(x);
            let comp = bfs.order().to_vec();
            for &v in &comp {
                seen[v as usize] = true;
            }
            d = component_diameter(&mut bfs, &mut bounds, &comp, (x, ex), d);
        }
    }
    d
}

/// After this many probes in a row found no smaller eccentricity than the
/// root's, [`diameter`] stops probing.
const FAILED_PROBES: u32 = 2;

/// The larger of `best` and the diameter of the component `comp`, whose
/// node `x` was the latest BFS source, of eccentricity `ex`.
fn component_diameter(
    bfs: &mut Bfs<'_>,
    b: &mut EccBounds,
    comp: &[u32],
    (x, ex): (u32, u32),
    best: u32,
) -> u32 {
    let nc = comp.len();
    if (nc - 1) as u32 <= best {
        return best;
    }
    let universal = comp.iter().filter(|&&v| bfs.degree(v) == nc - 1).count();
    if universal > 0 {
        return best.max(if universal == nc { 1 } else { 2 });
    }
    b.start(comp, best);
    b.absorb(x, ex, &bfs.dist, comp, true);
    let mut failed = 0;
    let mut widest = true;
    loop {
        let candidates = b.candidates();
        if candidates.is_empty() {
            return b.lower;
        }
        let probe = if widest || failed == FAILED_PROBES || candidates.len() == 1 {
            None
        } else {
            let probe = b.probe(comp);
            if probe.is_none() {
                // No node can beat the root any more.
                failed = FAILED_PROBES;
            }
            probe
        };
        let pick = match probe {
            Some(p) => p,
            None if widest => b.widest(&candidates),
            None => b.narrowest(&candidates),
        };
        widest = !widest;
        let root_ecc = b.root_ecc;
        let e = bfs.run(pick);
        // Probes read lower bounds all over the component.
        b.absorb(pick, e, &bfs.dist, comp, failed < FAILED_PROBES);
        if probe.is_some() {
            failed = if b.root_ecc < root_ecc { 0 } else { failed + 1 };
        }
    }
}

/// Breadth-first search over CSR arrays, reusing its buffers.
struct Bfs<'g> {
    offsets: &'g [u32],
    targets: &'g [NodeId],
    /// Distances from the latest source; [`UNREACHABLE`] outside its
    /// component.
    dist: Vec<u32>,
    /// The latest visiting order, the source's whole component, in its
    /// first `visited` entries; one spare entry past the last node.
    queue: Vec<u32>,
    visited: usize,
}

impl<'g> Bfs<'g> {
    fn new(g: &'g Graph) -> Self {
        let (offsets, targets) = g.csr();
        let n = g.n();
        Bfs { offsets, targets, dist: vec![UNREACHABLE; n], queue: vec![0; n + 1], visited: 0 }
    }

    fn degree(&self, v: u32) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    fn order(&self) -> &[u32] {
        &self.queue[..self.visited]
    }

    /// BFS from `src`; returns its eccentricity.
    ///
    /// Branch-free: every neighbor is written past the queue's tail, which
    /// advances only over a new node, and a node's distance only ever takes
    /// the smaller value.
    fn run(&mut self, src: u32) -> u32 {
        let (offsets, targets) = (self.offsets, self.targets);
        let (dist, queue) = (&mut self.dist[..], &mut self.queue[..]);
        for &v in &queue[..self.visited] {
            dist[v as usize] = UNREACHABLE;
        }
        dist[src as usize] = 0;
        queue[0] = src;
        let (mut head, mut tail) = (0, 1);
        while head < tail {
            let u = queue[head] as usize;
            head += 1;
            let du = dist[u] + 1;
            for &w in &targets[offsets[u] as usize..offsets[u + 1] as usize] {
                let w = w.index();
                queue[tail] = w as u32;
                tail += usize::from(dist[w] == UNREACHABLE);
                dist[w] = dist[w].min(du);
            }
        }
        self.visited = tail;
        dist[queue[tail - 1] as usize]
    }
}

/// What [`diameter`] knows about one component, indexed by node.
struct EccBounds {
    /// `lo ≤ ecc ≤ hi` for every node of the component.
    lo: Vec<u32>,
    hi: Vec<u32>,
    /// Whether the node has been a BFS source.
    done: Vec<bool>,
    /// The nodes whose upper bound may still exceed `lower`.
    unresolved: Vec<u32>,
    /// The root: the BFS source of smallest eccentricity, its distances
    /// and its eccentricity.
    root: u32,
    root_dist: Vec<u32>,
    root_ecc: u32,
    /// The partner: the BFS source farthest from the root whose distances
    /// are kept (the root itself at first), and those distances.
    partner: u32,
    partner_dist: Vec<u32>,
    /// The largest eccentricity seen, or the diameter of an earlier
    /// component if larger.
    lower: u32,
}

impl EccBounds {
    fn new(n: usize) -> Self {
        EccBounds {
            lo: vec![0; n],
            hi: vec![0; n],
            done: vec![false; n],
            unresolved: Vec::new(),
            root: 0,
            root_dist: vec![0; n],
            root_ecc: u32::MAX,
            partner: 0,
            partner_dist: vec![0; n],
            lower: 0,
        }
    }

    /// Forgets the previous component; `lower` starts at `best`.
    fn start(&mut self, comp: &[u32], best: u32) {
        for &v in comp {
            let v = v as usize;
            (self.lo[v], self.hi[v], self.done[v]) = (0, u32::MAX, false);
        }
        self.unresolved.clear();
        self.unresolved.extend_from_slice(comp);
        (self.root_ecc, self.lower) = (u32::MAX, best);
    }

    /// Folds a BFS from `src`, of eccentricity `e` and distances `dist`,
    /// into `lower`, the root, the partner and the bounds: of every node of
    /// `comp` if `all`, else of the unresolved ones.
    fn absorb(&mut self, src: u32, e: u32, dist: &[u32], comp: &[u32], all: bool) {
        self.lower = self.lower.max(e);
        self.done[src as usize] = true;
        if self.root_ecc == u32::MAX {
            (self.root, self.partner) = (src, src);
            copy_dist(&mut self.partner_dist, dist, comp);
        } else if e < self.root_ecc {
            // The old root or the old partner, whichever is farther from
            // the new root, stays as the partner.
            if dist[self.root as usize] >= dist[self.partner as usize] {
                std::mem::swap(&mut self.root_dist, &mut self.partner_dist);
                self.partner = self.root;
            }
            self.root = src;
        } else if self.root_dist[src as usize] > self.root_dist[self.partner as usize] {
            self.partner = src;
            copy_dist(&mut self.partner_dist, dist, comp);
        }
        if self.root == src {
            self.root_ecc = e;
            copy_dist(&mut self.root_dist, dist, comp);
        }
        let (lo, hi) = (&mut self.lo, &mut self.hi);
        for &v in if all { comp } else { &self.unresolved } {
            let (v, d) = (v as usize, dist[v as usize]);
            lo[v] = lo[v].max(d).max(e - d);
            hi[v] = hi[v].min(e + d);
        }
        let lower = self.lower;
        self.unresolved.retain(|&v| hi[v as usize] > lower);
    }

    /// The unresolved nodes `x` with an unresolved `y` no farther from the
    /// root such that the root's distances to `x` and `y`, and the
    /// partner's, each sum to more than `lower`. Of two nodes farther apart
    /// than `lower`, the one farther from the root is such an `x`.
    fn candidates(&self) -> Vec<u32> {
        let (l, top) = (self.lower as usize, self.root_ecc as usize);
        let (root_dist, partner_dist) = (&self.root_dist, &self.partner_dist);
        // The largest partner distance among unresolved nodes at each
        // distance `a` from the root, then among those at distances
        // `l + 1 − a ..= a`, an interval that grows with `a`. Here
        // `a ≤ top ≤ l`.
        let mut reach_at = vec![-1; top + 1];
        for &v in &self.unresolved {
            let a = root_dist[v as usize] as usize;
            reach_at[a] = reach_at[a].max(i64::from(partner_dist[v as usize]));
        }
        let mut reach = vec![-1; top + 1];
        for a in (l / 2 + 1)..=top {
            reach[a] = reach[a - 1].max(reach_at[a]).max(reach_at[l + 1 - a]);
        }
        let lower = i64::from(self.lower);
        let candidate = |&v: &u32| {
            let v = v as usize;
            reach[root_dist[v] as usize] + i64::from(partner_dist[v]) > lower
        };
        self.unresolved.iter().copied().filter(candidate).collect()
    }

    /// The first of `candidates` of largest upper bound.
    fn widest(&self, candidates: &[u32]) -> u32 {
        let pick = candidates.iter().copied().min_by_key(|&v| Reverse(self.hi[v as usize]));
        pick.expect("candidates are not empty")
    }

    /// The first of `candidates` of smallest lower bound.
    fn narrowest(&self, candidates: &[u32]) -> u32 {
        let pick = candidates.iter().copied().min_by_key(|&v| self.lo[v as usize]);
        pick.expect("candidates are not empty")
    }

    /// The first node of smallest lower bound, then smallest upper bound,
    /// that has not been a BFS source and whose lower bound is below the
    /// root's eccentricity.
    fn probe(&self, comp: &[u32]) -> Option<u32> {
        let open = comp.iter().copied().filter(|&v| !self.done[v as usize]);
        let below_root = open.filter(|&v| self.lo[v as usize] < self.root_ecc);
        below_root.min_by_key(|&v| (self.lo[v as usize], self.hi[v as usize]))
    }
}

/// Copies `from` into `to` at the nodes `comp`.
fn copy_dist(to: &mut [u32], from: &[u32], comp: &[u32]) {
    for &v in comp {
        to[v as usize] = from[v as usize];
    }
}

/// Double-sweep BFS diameter estimate in exactly three BFS passes: sweep
/// from a max-degree node to a far vertex `a`, from `a` to the farthest
/// vertex `b`, then once more from `b`, reporting the largest eccentricity
/// seen.
///
/// The estimate is a *lower* bound on the true diameter `D`, and because
/// every eccentricity is at least `D/2` it is always within a factor 2 —
/// the "linear estimate" tolerance the paper's ad-hoc model grants the
/// simulator's `NetInfo` consumers. On trees it is exact, and on
/// the path/cycle/grid/geometric families used here it is exact in
/// practice; what it buys is `O(n + m)` setup on million-node graphs where
/// all-pairs BFS is `O(n·m)` and even iFUB may degenerate.
///
/// Disconnected graphs report the bound within the start node's component
/// (matching the largest-eccentricity-seen convention of the exact
/// routines only when the start component realizes it).
pub fn diameter_double_sweep(g: &Graph) -> u32 {
    if g.n() <= 1 {
        return 0;
    }
    let start = g.nodes().max_by_key(|&v| g.degree(v)).expect("nonempty graph");
    let d0 = bfs_distances(g, start);
    let a = argmax_finite(&d0);
    let da = bfs_distances(g, a);
    let b = argmax_finite(&da);
    let ecc_a = da[b.index()];
    let db = bfs_distances(g, b);
    let ecc_b = db.iter().copied().filter(|&d| d != UNREACHABLE).max().unwrap_or(0);
    ecc_a.max(ecc_b)
}

/// Nodes within hop distance `d` of `v` (including `v`).
pub fn ball(g: &Graph, v: NodeId, d: u32) -> Vec<NodeId> {
    let dist = bfs_distances(g, v);
    g.nodes().filter(|u| dist[u.index()] <= d).collect()
}

fn argmax_finite(dist: &[u32]) -> NodeId {
    let mut best = 0usize;
    let mut best_d = 0u32;
    for (i, &d) in dist.iter().enumerate() {
        if d != UNREACHABLE && d >= best_d {
            best = i;
            best_d = d;
        }
    }
    NodeId::new(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_path() {
        let g = generators::path(5);
        let d = bfs_distances(&g, g.node(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn multi_source_bfs() {
        let g = generators::path(5);
        let d = bfs_distances_multi(&g, &[g.node(0), g.node(4)]);
        assert_eq!(d, vec![0, 1, 2, 1, 0]);
    }

    #[test]
    fn empty_sources_all_unreachable() {
        let g = generators::path(3);
        let d = bfs_distances_multi(&g, &[]);
        assert!(d.iter().all(|&x| x == UNREACHABLE));
    }

    #[test]
    fn unreachable_marked() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let d = bfs_distances(&g, g.node(0));
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    fn components_counted() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3)]).unwrap();
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert_ne!(labels[4], labels[0]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn diameters_agree_on_families() {
        for g in [
            generators::path(17),
            generators::cycle(12),
            generators::grid2d(5, 7),
            generators::complete(9),
            generators::star(10),
            generators::hypercube(4),
        ] {
            assert_eq!(diameter(&g), diameter_exact(&g), "family {g:?}");
        }
    }

    #[test]
    fn diameter_matches_exact_on_worst_cases() {
        // The shapes that cost iFUB or a naive eccentricity-bound search
        // many BFS: vertex-transitive graphs, a universal hub, a tree whose
        // center is no double-sweep end, two cliques on a path, and a grid
        // whose BFS-tree midpoint between opposite corners is a third one.
        for g in [
            generators::complete(30),
            generators::star(40),
            generators::cycle(41),
            generators::cycle(60),
            generators::hypercube(6),
            generators::path(50),
            generators::binary_tree(7),
            generators::barbell(6, 9),
            generators::grid2d(12, 12),
            generators::grid2d(7, 15),
        ] {
            assert_eq!(diameter(&g), diameter_exact(&g), "{g:?}");
        }
    }

    #[test]
    fn benchmark_diameters_are_pinned() {
        use crate::families::Family;
        // `NetInfo::exact`'s D on the benchmark's graphs.
        assert_eq!(diameter(&generators::grid2d(40, 40)), 78);
        assert_eq!(diameter(&Family::UnitDisk.instantiate(1024, 1)), 24);
        assert_eq!(diameter(&Family::UnitDisk.instantiate(16_400, 1)), 97);
        assert_eq!(diameter(&generators::grid2d(100, 100)), 198);
    }

    #[test]
    fn diameter_of_disconnected_graphs() {
        // The largest component diameter, isolated nodes included.
        let g = Graph::from_edges(9, [(0, 1), (1, 2), (2, 3), (5, 6), (6, 7), (7, 5)]).unwrap();
        assert_eq!(diameter(&g), 3);
        assert_eq!(diameter(&Graph::from_edges(4, []).unwrap()), 0);
        assert_eq!(diameter(&Graph::from_edges(0, []).unwrap()), 0);
    }

    #[test]
    fn double_sweep_exact_on_common_families() {
        for g in [
            generators::path(33),
            generators::cycle(16),
            generators::grid2d(6, 9),
            generators::complete(7),
            generators::star(12),
            generators::binary_tree(5),
        ] {
            assert_eq!(diameter_double_sweep(&g), diameter_exact(&g), "family {g:?}");
        }
    }

    #[test]
    fn double_sweep_within_factor_two() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for n in [40usize, 90] {
            let g = generators::connected_gnp(n, 0.08, &mut rng);
            let exact = diameter_exact(&g);
            let est = diameter_double_sweep(&g);
            assert!(est <= exact, "estimate must be a lower bound");
            assert!(2 * est >= exact, "estimate {est} below half of exact {exact}");
        }
    }

    #[test]
    fn double_sweep_degenerate_graphs() {
        assert_eq!(diameter_double_sweep(&Graph::from_edges(1, []).unwrap()), 0);
        assert_eq!(diameter_double_sweep(&Graph::from_edges(0, []).unwrap()), 0);
    }

    #[test]
    fn diameter_known_values() {
        assert_eq!(diameter_exact(&generators::path(10)), 9);
        assert_eq!(diameter_exact(&generators::cycle(10)), 5);
        assert_eq!(diameter_exact(&generators::complete(10)), 1);
        assert_eq!(diameter_exact(&generators::star(10)), 2);
        assert_eq!(diameter_exact(&generators::grid2d(4, 6)), 8);
        assert_eq!(diameter_exact(&generators::hypercube(5)), 5);
    }

    #[test]
    fn ball_sizes() {
        let g = generators::path(9);
        assert_eq!(ball(&g, g.node(4), 2).len(), 5);
        assert_eq!(ball(&g, g.node(0), 0), vec![g.node(0)]);
    }

    #[test]
    fn eccentricity_of_center() {
        let g = generators::path(9);
        assert_eq!(eccentricity(&g, g.node(4)), 4);
        assert_eq!(eccentricity(&g, g.node(0)), 8);
    }

    #[test]
    fn single_node_diameter_zero() {
        let g = Graph::from_edges(1, []).unwrap();
        assert_eq!(diameter(&g), 0);
        assert!(is_connected(&g));
    }
}
