//! Geometric graph classes (paper, Section 1.3).
//!
//! All four families the paper lists are here:
//!
//! * **unit disk graphs** — [`unit_disk`] / [`unit_disk_in_square`];
//! * **quasi unit disk graphs** — [`quasi_unit_disk`] (edges certain below
//!   `r`, impossible above `R`, random in between);
//! * **unit ball graphs** — [`unit_ball3_in_cube`] in 3D Euclidean space,
//!   and [`unit_ball`], generic over any [`Metric`] — doubling metrics give
//!   growth-bounded graphs;
//! * **geometric radio networks** — [`geometric_radio_undirected`], the
//!   undirected subclass the paper restricts to (mutual-reachability edges,
//!   bounded max/min range ratio).
//!
//! The Euclidean family generators take `O(n·deg)` time at bounded
//! density: every edge joins points at most one radius apart, so they test
//! only the pairs that share a neighbourhood of a spatial grid.
//! [`unit_ball`] is the `O(n²)` all-pairs definition, kept for the
//! non-Euclidean metrics and as the test oracle of the others.
//!
//! Every generator returns a [`GeometricInstance`] carrying the graph
//! together with its embedding, so experiments can relate graph quantities
//! (α, D) back to geometry.

use crate::geometry::{Metric, Point2, Point3};
use crate::spatial::{for_each_candidate_pair, within};
use crate::{Graph, GraphBuilder};
use rand::Rng;

/// A generated geometric graph together with its embedding.
#[derive(Clone, Debug)]
pub struct GeometricInstance<P> {
    /// The (undirected) graph; node `i` sits at `points[i]`.
    pub graph: Graph,
    /// The embedding.
    pub points: Vec<P>,
}

/// `n` points uniform in the square `[0, side)²`.
pub fn uniform_points2<R: Rng + ?Sized>(n: usize, side: f64, rng: &mut R) -> Vec<Point2> {
    (0..n).map(|_| Point2::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side)).collect()
}

/// `n` points uniform in the cube `[0, side)³`.
pub fn uniform_points3<R: Rng + ?Sized>(n: usize, side: f64, rng: &mut R) -> Vec<Point3> {
    (0..n)
        .map(|_| {
            Point3::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side, rng.gen::<f64>() * side)
        })
        .collect()
}

/// Unit ball graph over an arbitrary metric: edge `{u, v}` iff
/// `dist(u, v) ≤ radius`.
///
/// With a doubling metric the result is growth-bounded (Section 1.3). This
/// is the definition the Euclidean generators are tested against: `O(n²)`
/// distance evaluations, where [`unit_disk`] and [`unit_ball3_in_cube`]
/// check only the pairs a spatial grid proposes.
///
/// # Panics
///
/// Panics if `radius` is negative or NaN.
pub fn unit_ball<P, M: Metric<P>>(points: &[P], metric: &M, radius: f64) -> GeometricInstance<P>
where
    P: Clone,
{
    assert!(radius >= 0.0, "radius must be nonnegative");
    let n = points.len();
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if metric.dist(&points[i], &points[j]) <= radius {
                b.add_edge(i, j);
            }
        }
    }
    GeometricInstance { graph: b.build(), points: points.to_vec() }
}

/// The graph on `points` whose edges are the pairs `keep` accepts among
/// those [`for_each_candidate_pair`] proposes for `radius`, which `keep`
/// sees in lexicographic order together with their `[x, y, z]` positions.
/// `radius` must bound the distance of every pair `keep` can accept.
fn grid_graph<P: Clone>(
    points: &[P],
    xyz: fn(&P) -> [f64; 3],
    dim: usize,
    radius: f64,
    mut keep: impl FnMut(usize, usize, &[f64; 3], &[f64; 3]) -> bool,
) -> GeometricInstance<P> {
    let pos: Vec<[f64; 3]> = points.iter().map(xyz).collect();
    let mut b = GraphBuilder::new(points.len());
    for_each_candidate_pair(&pos, dim, radius, |i, j| {
        if keep(i, j, &pos[i], &pos[j]) {
            b.add_edge(i, j);
        }
    });
    GeometricInstance { graph: b.build(), points: points.to_vec() }
}

/// Unit disk graph on the given 2D points: edge iff Euclidean distance ≤ 1.
///
/// Any points are accepted; the spatial grid spans their bounding box.
pub fn unit_disk(points: &[Point2]) -> GeometricInstance<Point2> {
    grid_graph(points, Point2::xyz, 2, 1.0, |_, _, a, b| within(a, b, 2, 1.0))
}

/// Unit disk graph on `n` uniform points in `[0, side)²` with unit radius.
///
/// `side ≈ √(n / density)` controls the expected degree; the harness uses
/// `side = √n / c` to hold density constant as `n` grows.
pub fn unit_disk_in_square<R: Rng + ?Sized>(
    n: usize,
    side: f64,
    rng: &mut R,
) -> GeometricInstance<Point2> {
    let pts = uniform_points2(n, side, rng);
    unit_disk(&pts)
}

/// Unit *ball* graph on `n` uniform points in `[0, side)³` (3D Euclidean).
pub fn unit_ball3_in_cube<R: Rng + ?Sized>(
    n: usize,
    side: f64,
    rng: &mut R,
) -> GeometricInstance<Point3> {
    let pts = uniform_points3(n, side, rng);
    grid_graph(&pts, Point3::xyz, 3, 1.0, |_, _, a, b| within(a, b, 3, 1.0))
}

/// Quasi unit disk graph (paper, Section 1.3): edges are certain below
/// distance `r`, impossible above `R ≥ r`, and present with probability
/// `gray_p` in between. The ratio `R/r` is the class parameter and must be
/// treated as constant for growth-boundedness.
///
/// The gray-zone coin is drawn once per pair at distance in `(r, R]`, in
/// lexicographic pair order.
///
/// # Panics
///
/// Panics unless `0 < r ≤ R` and `gray_p ∈ \[0, 1\]`.
pub fn quasi_unit_disk<R2: Rng + ?Sized>(
    points: &[Point2],
    r: f64,
    big_r: f64,
    gray_p: f64,
    rng: &mut R2,
) -> GeometricInstance<Point2> {
    assert!(r > 0.0 && big_r >= r, "need 0 < r <= R");
    assert!((0.0..=1.0).contains(&gray_p), "gray_p must be a probability");
    grid_graph(points, Point2::xyz, 2, big_r, |_, _, a, b| {
        within(a, b, 2, r) || (within(a, b, 2, big_r) && rng.gen::<f64>() < gray_p)
    })
}

/// Quasi unit disk graph on `n` uniform points in `[0, side)²`.
pub fn quasi_unit_disk_in_square<R2: Rng + ?Sized>(
    n: usize,
    side: f64,
    r: f64,
    big_r: f64,
    gray_p: f64,
    rng: &mut R2,
) -> GeometricInstance<Point2> {
    let pts = uniform_points2(n, side, rng);
    quasi_unit_disk(&pts, r, big_r, gray_p, rng)
}

/// Undirected geometric radio network (paper, Section 1.3).
///
/// In a geometric radio network each node `v` has a range `r_v` and a
/// *directed* edge `v → u` exists iff `dist(v, u) ≤ r_v`. The paper
/// restricts to the subclass whose edge relation is symmetric; the canonical
/// way to realize that subclass is the mutual-reachability graph: keep
/// `{u, v}` iff `dist(u, v) ≤ min(r_u, r_v)` (i.e. both directed edges
/// exist). Growth-boundedness requires `max r / min r` bounded; callers
/// should draw `ranges` from an interval `[r_lo, r_hi]` with constant ratio.
///
/// # Panics
///
/// Panics if `ranges.len() != points.len()` or any range is negative.
pub fn geometric_radio_undirected(points: &[Point2], ranges: &[f64]) -> GeometricInstance<Point2> {
    assert_eq!(points.len(), ranges.len(), "one range per point");
    assert!(ranges.iter().all(|&r| r >= 0.0), "ranges must be nonnegative");
    let max_range = ranges.iter().copied().fold(0.0, f64::max);
    grid_graph(points, Point2::xyz, 2, max_range, |i, j, a, b| {
        within(a, b, 2, ranges[i].min(ranges[j]))
    })
}

/// Uniform ranges in `[r_lo, r_hi]` for [`geometric_radio_undirected`].
///
/// # Panics
///
/// Panics unless `0 < r_lo ≤ r_hi`.
pub fn uniform_ranges<R: Rng + ?Sized>(n: usize, r_lo: f64, r_hi: f64, rng: &mut R) -> Vec<f64> {
    assert!(r_lo > 0.0 && r_hi >= r_lo, "need 0 < r_lo <= r_hi");
    (0..n).map(|_| rng.gen_range(r_lo..=r_hi)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Chebyshev2, Euclidean2, Torus2};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn unit_disk_edges_match_distances() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.9, 0.0),
            Point2::new(2.0, 0.0),
            Point2::new(0.0, 0.5),
        ];
        let inst = unit_disk(&pts);
        let g = &inst.graph;
        assert!(g.has_edge(g.node(0), g.node(1)));
        assert!(!g.has_edge(g.node(0), g.node(2)));
        assert!(g.has_edge(g.node(0), g.node(3)));
        // (0.9, 0)–(0, 0.5) is at distance √1.06 ≈ 1.03 > 1: no edge.
        assert!(!g.has_edge(g.node(1), g.node(3)));
    }

    #[test]
    fn unit_disk_edge_rule_exhaustive() {
        let mut rng = StdRng::seed_from_u64(11);
        let pts = uniform_points2(40, 3.0, &mut rng);
        let inst = unit_disk(&pts);
        let g = &inst.graph;
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                let d = Euclidean2.dist(&pts[i], &pts[j]);
                assert_eq!(g.has_edge(g.node(i), g.node(j)), d <= 1.0);
            }
        }
    }

    #[test]
    fn quasi_udg_sandwiched() {
        let mut rng = StdRng::seed_from_u64(12);
        let pts = uniform_points2(60, 4.0, &mut rng);
        let q = quasi_unit_disk(&pts, 0.7, 1.3, 0.5, &mut rng);
        let inner = unit_ball(&pts, &Euclidean2, 0.7);
        let outer = unit_ball(&pts, &Euclidean2, 1.3);
        let g = &q.graph;
        // inner ⊆ quasi ⊆ outer
        for (u, v) in inner.graph.edges() {
            assert!(g.has_edge(u, v), "certain edge missing");
        }
        for (u, v) in g.edges() {
            assert!(outer.graph.has_edge(u, v), "edge beyond R");
        }
    }

    #[test]
    fn quasi_udg_gray_extremes() {
        let mut rng = StdRng::seed_from_u64(13);
        let pts = uniform_points2(50, 4.0, &mut rng);
        let q0 = quasi_unit_disk(&pts, 0.7, 1.3, 0.0, &mut rng);
        let q1 = quasi_unit_disk(&pts, 0.7, 1.3, 1.0, &mut rng);
        assert_eq!(q0.graph, unit_ball(&pts, &Euclidean2, 0.7).graph);
        assert_eq!(q1.graph, unit_ball(&pts, &Euclidean2, 1.3).graph);
    }

    #[test]
    fn unit_ball_other_metrics() {
        let pts = vec![Point2::new(0.0, 0.0), Point2::new(0.9, 0.9), Point2::new(0.0, 9.5)];
        // Chebyshev: (0,0)-(0.9,0.9) at distance 0.9 -> edge.
        let cheb = unit_ball(&pts, &Chebyshev2, 1.0);
        assert!(cheb.graph.has_edge(cheb.graph.node(0), cheb.graph.node(1)));
        // Torus side 10: (0,0)-(0,9.5) wraps to distance 0.5 -> edge.
        let tor = unit_ball(&pts, &Torus2::new(10.0), 1.0);
        assert!(tor.graph.has_edge(tor.graph.node(0), tor.graph.node(2)));
        // Plain Euclidean would not have that edge.
        let euc = unit_ball(&pts, &Euclidean2, 1.0);
        assert!(!euc.graph.has_edge(euc.graph.node(0), euc.graph.node(2)));
    }

    #[test]
    fn unit_ball3_has_edges() {
        let mut rng = StdRng::seed_from_u64(14);
        let inst = unit_ball3_in_cube(80, 3.0, &mut rng);
        assert!(inst.graph.m() > 0);
        assert_eq!(inst.points.len(), 80);
    }

    #[test]
    fn geometric_radio_mutual_edges() {
        let pts = vec![Point2::new(0.0, 0.0), Point2::new(1.0, 0.0), Point2::new(2.5, 0.0)];
        // Node 0 long range, node 1 short, node 2 long.
        let ranges = vec![3.0, 1.0, 3.0];
        let inst = geometric_radio_undirected(&pts, &ranges);
        let g = &inst.graph;
        // 0-1: dist 1 <= min(3,1)=1 -> edge.
        assert!(g.has_edge(g.node(0), g.node(1)));
        // 1-2: dist 1.5 > min(1,3)=1 -> no edge (1 cannot reach back).
        assert!(!g.has_edge(g.node(1), g.node(2)));
        // 0-2: dist 2.5 <= min(3,3)=3 -> edge.
        assert!(g.has_edge(g.node(0), g.node(2)));
    }

    #[test]
    fn growth_bounded_packing_udg() {
        // In a UDG, an independent set within the r-hop ball of v has O(r²)
        // size (paper, Section 1.3). Check the packing bound empirically
        // with the exact-ish constant (2r+1)² for unit radius.
        let mut rng = StdRng::seed_from_u64(15);
        let inst = unit_disk_in_square(300, 8.0, &mut rng);
        let g = &inst.graph;
        let v = g.node(0);
        for r in 1..4u32 {
            let ball = crate::traversal::ball(g, v, r);
            let (sub, _) = g.induced_subgraph(&ball);
            let alpha = crate::independent_set::alpha_bounds(&sub, 2_000_000);
            let bound = (2 * r + 1).pow(2) as usize;
            assert!(
                alpha.upper <= bound,
                "r={r}: alpha {} exceeds packing bound {bound}",
                alpha.upper
            );
        }
    }

    #[test]
    fn uniform_ranges_in_interval() {
        let mut rng = StdRng::seed_from_u64(16);
        let rs = uniform_ranges(100, 0.5, 1.5, &mut rng);
        assert!(rs.iter().all(|&r| (0.5..=1.5).contains(&r)));
    }
}
