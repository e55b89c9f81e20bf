//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use radionet_graph::generators::{self, geometric};
use radionet_graph::geometry::{Euclidean2, Euclidean3, Metric, Point2};
use radionet_graph::independent_set::{
    alpha_bounds, clique_cover_upper_bound, greedy_mis, is_independent_set,
    is_maximal_independent_set, matching_upper_bound, maximum_independent_set,
};
use radionet_graph::traversal::{
    bfs_distances, connected_components, diameter_exact, diameter_ifub, is_connected, UNREACHABLE,
};
use radionet_graph::{Graph, GraphBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a random graph given by (n, edge list over 0..n).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..120).prop_map(move |pairs| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in pairs {
                if u != v {
                    b.add_edge(u, v);
                }
            }
            b.build()
        })
    })
}

proptest! {
    #[test]
    fn adjacency_is_symmetric(g in arb_graph()) {
        for u in g.nodes() {
            for &v in g.neighbors(u) {
                prop_assert!(g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn degree_sum_is_twice_edges(g in arb_graph()) {
        let total: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(total, 2 * g.m());
    }

    #[test]
    fn bfs_distances_are_lipschitz(g in arb_graph()) {
        // |d(u) - d(v)| <= 1 across every edge, and d respects edges.
        let d = bfs_distances(&g, g.node(0));
        for (u, v) in g.edges() {
            let (du, dv) = (d[u.index()], d[v.index()]);
            if du != UNREACHABLE || dv != UNREACHABLE {
                prop_assert!(du != UNREACHABLE && dv != UNREACHABLE);
                prop_assert!(du.abs_diff(dv) <= 1);
            }
        }
    }

    #[test]
    fn components_partition_nodes(g in arb_graph()) {
        let (labels, count) = connected_components(&g);
        prop_assert!(labels.iter().all(|&l| l < count));
        // Same component <=> reachable.
        let d = bfs_distances(&g, g.node(0));
        for v in g.nodes() {
            prop_assert_eq!(labels[v.index()] == labels[0], d[v.index()] != UNREACHABLE);
        }
    }

    #[test]
    fn greedy_mis_is_maximal(g in arb_graph(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mis = greedy_mis(&g, &mut rng);
        prop_assert!(is_maximal_independent_set(&g, &mis));
    }

    #[test]
    fn exact_alpha_dominates_greedy_and_respects_bounds(g in arb_graph()) {
        let exact = maximum_independent_set(&g, 5_000_000);
        prop_assume!(exact.is_exact());
        let alpha = exact.set().len();
        prop_assert!(is_independent_set(&g, exact.set()));
        let mut rng = StdRng::seed_from_u64(1);
        let greedy = greedy_mis(&g, &mut rng);
        prop_assert!(greedy.len() <= alpha);
        prop_assert!(clique_cover_upper_bound(&g) >= alpha);
        prop_assert!(matching_upper_bound(&g) >= alpha);
        let b = alpha_bounds(&g, 5_000_000);
        prop_assert!(b.exact);
        prop_assert_eq!(b.lower, alpha);
    }

    #[test]
    fn ifub_matches_exact_diameter(g in arb_graph()) {
        prop_assume!(is_connected(&g) && g.n() >= 2);
        prop_assert_eq!(diameter_ifub(&g), diameter_exact(&g));
    }

    #[test]
    fn unit_disk_edge_iff_distance(seed in 0u64..500, n in 2usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = generators::uniform_points2(n, 3.0, &mut rng);
        let inst = generators::unit_disk(&pts);
        let g = &inst.graph;
        for i in 0..n {
            for j in (i + 1)..n {
                let d = Euclidean2.dist(&pts[i], &pts[j]);
                prop_assert_eq!(g.has_edge(g.node(i), g.node(j)), d <= 1.0);
            }
        }
    }

    #[test]
    fn quasi_udg_between_inner_and_outer(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = generators::uniform_points2(30, 3.0, &mut rng);
        let q = geometric::quasi_unit_disk(&pts, 0.6, 1.2, 0.5, &mut rng).graph;
        let inner = geometric::unit_ball(&pts, &Euclidean2, 0.6).graph;
        let outer = geometric::unit_ball(&pts, &Euclidean2, 1.2).graph;
        for (u, v) in inner.edges() {
            prop_assert!(q.has_edge(u, v));
        }
        for (u, v) in q.edges() {
            prop_assert!(outer.has_edge(u, v));
        }
    }

    #[test]
    fn geometric_radio_subgraph_of_max_range_udg(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = generators::uniform_points2(25, 3.0, &mut rng);
        let ranges = geometric::uniform_ranges(25, 0.5, 1.0, &mut rng);
        let gr = generators::geometric_radio_undirected(&pts, &ranges).graph;
        let udg = geometric::unit_ball(&pts, &Euclidean2, 1.0).graph;
        for (u, v) in gr.edges() {
            prop_assert!(udg.has_edge(u, v));
        }
    }

    #[test]
    fn induced_subgraph_preserves_edges(g in arb_graph(), keep_mask in proptest::collection::vec(any::<bool>(), 40)) {
        let keep: Vec<_> = g.nodes().filter(|v| keep_mask.get(v.index()).copied().unwrap_or(false)).collect();
        let (h, order) = g.induced_subgraph(&keep);
        prop_assert_eq!(h.n(), order.len());
        for (i, &vi) in order.iter().enumerate() {
            for (j, &vj) in order.iter().enumerate() {
                if i < j {
                    prop_assert_eq!(h.has_edge(h.node(i), h.node(j)), g.has_edge(vi, vj));
                }
            }
        }
    }
}

/// The quasi unit disk rule as the all-pairs loop that defines it.
fn quasi_all_pairs(pts: &[Point2], r: f64, big_r: f64, gray_p: f64, rng: &mut StdRng) -> Graph {
    let mut b = GraphBuilder::new(pts.len());
    for i in 0..pts.len() {
        for j in (i + 1)..pts.len() {
            let d = Euclidean2.dist(&pts[i], &pts[j]);
            if d <= r || (d <= big_r && rng.gen::<f64>() < gray_p) {
                b.add_edge(i, j);
            }
        }
    }
    b.build()
}

/// The undirected geometric radio rule as the all-pairs loop that defines it.
fn radio_all_pairs(pts: &[Point2], ranges: &[f64]) -> Graph {
    let mut b = GraphBuilder::new(pts.len());
    for i in 0..pts.len() {
        for j in (i + 1)..pts.len() {
            if Euclidean2.dist(&pts[i], &pts[j]) <= ranges[i].min(ranges[j]) {
                b.add_edge(i, j);
            }
        }
    }
    b.build()
}

/// Checks the four spatial-grid generators against their all-pairs
/// definitions on `n` points. `layout` places the 2D points: 0 uniform in
/// `[0, side)²`, 1 all on one spot, 2 straddling the origin, 3 far off
/// (`+1e6`), 4 far negative.
fn check_against_all_pairs(n: usize, side: f64, layout: u8, gray_p: f64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let offset = match layout {
        2 => -side / 2.0,
        3 => 1e6,
        4 => -1e6 - side,
        _ => 0.0,
    };
    let spot = Point2::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side);
    let pts: Vec<Point2> = generators::uniform_points2(n, side, &mut rng)
        .into_iter()
        .map(|p| if layout == 1 { spot } else { Point2::new(p.x + offset, p.y + offset) })
        .collect();
    let case =
        format!("n = {n}, side = {side}, layout = {layout}, gray_p = {gray_p}, seed = {seed}");

    let udg = generators::unit_disk(&pts).graph;
    assert_eq!(udg, geometric::unit_ball(&pts, &Euclidean2, 1.0).graph, "unit disk: {case}");

    let ball = geometric::unit_ball3_in_cube(n, side, &mut rng);
    let want = geometric::unit_ball(&ball.points, &Euclidean3, 1.0).graph;
    assert_eq!(ball.graph, want, "unit ball: {case}");

    let r = 0.2 + rng.gen::<f64>();
    let big_r = r * (1.0 + 2.0 * rng.gen::<f64>());
    let mut grid_rng = StdRng::seed_from_u64(seed ^ 0x9a11);
    let mut loop_rng = grid_rng.clone();
    let quasi = geometric::quasi_unit_disk(&pts, r, big_r, gray_p, &mut grid_rng).graph;
    let want = quasi_all_pairs(&pts, r, big_r, gray_p, &mut loop_rng);
    assert_eq!(quasi, want, "quasi unit disk (r = {r}, R = {big_r}): {case}");
    assert_eq!(grid_rng.gen::<u64>(), loop_rng.gen::<u64>(), "quasi coin stream: {case}");

    let ranges = geometric::uniform_ranges(n, 0.3, 1.6, &mut rng);
    let radio = generators::geometric_radio_undirected(&pts, &ranges).graph;
    assert_eq!(radio, radio_all_pairs(&pts, &ranges), "geometric radio: {case}");
}

/// Maps a selector to a gray-zone probability: the extremes 0 and 1, or a
/// seeded value strictly between.
fn gray_p(selector: u8, seed: u64) -> f64 {
    match selector {
        0 => 0.0,
        1 => 1.0,
        _ => StdRng::seed_from_u64(seed).gen::<f64>(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn grid_generators_equal_their_all_pairs_definitions(
        n in 0usize..=2_000,
        side in 0.5f64..60.0,
        layout in 0u8..5,
        gray in 0u8..4,
        seed in any::<u64>(),
    ) {
        // Dense draws (a side below √n/4, or every point on one spot) keep
        // to 300 nodes, so the all-pairs oracles' edge lists stay small.
        let dense = layout == 1 || side < (n as f64).sqrt() / 4.0;
        let n = if dense { n.min(300) } else { n };
        check_against_all_pairs(n, side, layout, gray_p(gray, seed), seed);
    }
}

#[test]
fn grid_generators_equal_their_all_pairs_definitions_on_tiny_inputs() {
    for n in 0..=2 {
        for layout in 0..5 {
            for gray in 0..3 {
                for side in [0.5, 3.0] {
                    check_against_all_pairs(n, side, layout, gray_p(gray, 7), 7 + n as u64);
                }
            }
        }
    }
    // Many nodes stacked on one spot: every pair is at distance 0.
    check_against_all_pairs(300, 5.0, 1, 0.5, 3);
}
