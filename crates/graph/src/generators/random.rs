//! Random general-graph generators.
//!
//! These supply the "general graphs" side of the paper's dichotomy: graphs
//! with no geometric structure whose independence number is typically
//! `Θ(n / log n)` or larger — the regime where `O(D log_D α)` degenerates to
//! the \[CD21\] bound `O(D log_D n)`.

use crate::{Graph, GraphBuilder, NodeId};
use rand::Rng;

/// Erdős–Rényi `G(n, p)`: each of the `n(n−1)/2` edges present independently
/// with probability `p`.
///
/// Uses geometric skipping, so sparse graphs cost `O(n + m)` rather than
/// `O(n²)`.
///
/// # Panics
///
/// Panics if `p` is not in `\[0, 1\]`.
pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut b = GraphBuilder::new(n);
    if n < 2 || p == 0.0 {
        return b.build();
    }
    if p >= 1.0 {
        for i in 0..n {
            for j in (i + 1)..n {
                b.add_edge(i, j);
            }
        }
        return b.build();
    }
    // Skip-sampling over the linearized upper triangle.
    let log1mp = (1.0 - p).ln();
    let mut i: usize = 1; // row (v), column u < v encoding: iterate v from 1..n, u in 0..v
    let mut j: i64 = -1;
    while i < n {
        let r: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let skip = (r.ln() / log1mp).floor() as i64 + 1;
        j += skip;
        while j >= i as i64 && i < n {
            j -= i as i64;
            i += 1;
        }
        if i < n {
            b.add_edge(j as usize, i);
        }
    }
    b.build()
}

/// `G(n, p)` conditioned on connectivity by augmentation
/// ([`connect_components`]). The result differs from `G(n, p)` by at most
/// `#components − 1` edges. The harness uses it where broadcast needs a
/// connected instance without rejection sampling.
pub fn connected_gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    let g = gnp(n, p, rng);
    connect_components(&g, rng)
}

/// Makes any graph connected by adding one edge per extra component:
/// component representatives are chained to random earlier representatives.
/// Returns the input unchanged (cloned) if already connected.
pub fn connect_components<R: Rng + ?Sized>(g: &Graph, rng: &mut R) -> Graph {
    let n = g.n();
    if n <= 1 {
        return g.clone();
    }
    let (labels, count) = crate::traversal::connected_components(g);
    if count == 1 {
        return g.clone();
    }
    let mut b = GraphBuilder::new(n);
    for (u, v) in g.edges() {
        b.add_edge(u.index(), v.index());
    }
    // Pick one representative per component and chain them randomly.
    let mut reps: Vec<usize> = vec![usize::MAX; count];
    for v in 0..n {
        if reps[labels[v]] == usize::MAX {
            reps[labels[v]] = v;
        }
    }
    for w in 1..count {
        // Attach component w's representative to a random earlier
        // representative (keeps degree distortion minimal).
        let prev = reps[rng.gen_range(0..w)];
        b.add_edge(prev, reps[w]);
    }
    b.build()
}

/// A uniform random recursive tree: node `i ≥ 1` attaches to a uniformly
/// random earlier node. Connected, `n − 1` edges, expected diameter
/// `Θ(log n)` — a high-α, low-D general graph.
pub fn random_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        b.add_edge(parent, i);
    }
    b.build()
}

/// Picks a uniformly random node of `g`.
///
/// # Panics
///
/// Panics if the graph is empty.
pub fn random_node<R: Rng + ?Sized>(g: &Graph, rng: &mut R) -> NodeId {
    assert!(g.n() > 0, "empty graph has no nodes");
    g.node(rng.gen_range(0..g.n()))
}

/// A random `d`-regular-ish graph by the configuration model: `d` stubs per
/// node are paired uniformly; self-loops and duplicate pairings are dropped,
/// so a few nodes may end up with degree slightly below `d`. Expanders whp
/// for `d ≥ 3` — the extreme low-diameter, high-α general graphs.
///
/// # Panics
///
/// Panics if `n·d` is odd or `d ≥ n`.
pub fn random_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Graph {
    assert!((n * d).is_multiple_of(2), "n·d must be even");
    assert!(d < n, "degree must be below n");
    let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
    use rand::seq::SliceRandom;
    stubs.shuffle(rng);
    let mut b = GraphBuilder::new(n);
    for pair in stubs.chunks_exact(2) {
        if pair[0] != pair[1] {
            b.add_edge(pair[0], pair[1]); // duplicates merged by the builder
        }
    }
    b.build()
}

/// A Chung–Lu power-law graph: node `i` gets weight `w_i ∝ (i+1)^{-1/(γ−1)}`
/// scaled to a target average degree, and edge `{i, j}` appears with
/// probability `min(1, w_i·w_j / Σw)`. Heavy-tailed degrees, small diameter
/// — the "scale-free" general-graph comparator.
///
/// # Panics
///
/// Panics unless `γ > 2` and `avg_degree > 0`.
pub fn chung_lu<R: Rng + ?Sized>(n: usize, gamma: f64, avg_degree: f64, rng: &mut R) -> Graph {
    assert!(gamma > 2.0, "power-law exponent must exceed 2");
    assert!(avg_degree > 0.0, "average degree must be positive");
    let exp = -1.0 / (gamma - 1.0);
    let raw: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(exp)).collect();
    let raw_mean = raw.iter().sum::<f64>() / n.max(1) as f64;
    let w: Vec<f64> = raw.iter().map(|r| r * avg_degree / raw_mean).collect();
    let total: f64 = w.iter().sum();
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let p = (w[i] * w[j] / total).min(1.0);
            if p > 0.0 && rng.gen::<f64>() < p {
                b.add_edge(i, j);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(gnp(10, 0.0, &mut rng).m(), 0);
        assert_eq!(gnp(10, 1.0, &mut rng).m(), 45);
        assert_eq!(gnp(0, 0.5, &mut rng).n(), 0);
        assert_eq!(gnp(1, 0.5, &mut rng).m(), 0);
    }

    #[test]
    fn gnp_edge_count_concentrates() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 300;
        let p = 0.05;
        let trials = 20;
        let mean: f64 =
            (0..trials).map(|_| gnp(n, p, &mut rng).m() as f64).sum::<f64>() / trials as f64;
        let expected = p * (n * (n - 1) / 2) as f64;
        assert!((mean - expected).abs() < 0.1 * expected, "mean {mean} vs expected {expected}");
    }

    #[test]
    fn connected_gnp_is_connected() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let g = connected_gnp(100, 0.01, &mut rng); // below the connectivity threshold
            assert!(is_connected(&g));
        }
    }

    #[test]
    fn random_tree_is_tree() {
        let mut rng = StdRng::seed_from_u64(4);
        for n in [1usize, 2, 10, 100] {
            let g = random_tree(n, &mut rng);
            assert_eq!(g.m(), n.saturating_sub(1));
            assert!(is_connected(&g));
        }
    }

    #[test]
    fn random_node_in_range() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = gnp(5, 0.5, &mut rng);
        for _ in 0..20 {
            let v = random_node(&g, &mut rng);
            assert!(v.index() < 5);
        }
    }

    #[test]
    fn gnp_deterministic_under_seed() {
        let g1 = gnp(50, 0.1, &mut StdRng::seed_from_u64(7));
        let g2 = gnp(50, 0.1, &mut StdRng::seed_from_u64(7));
        assert_eq!(g1, g2);
    }

    #[test]
    fn random_regular_degrees_near_d() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = random_regular(100, 4, &mut rng);
        // Dropped self-loops/duplicates can shave degrees; most stay at d.
        let at_d = g.nodes().filter(|&v| g.degree(v) == 4).count();
        assert!(at_d >= 80, "only {at_d}/100 nodes at degree 4");
        assert!(g.max_degree() <= 4);
    }

    #[test]
    #[should_panic(expected = "n·d must be even")]
    fn random_regular_parity_checked() {
        let mut rng = StdRng::seed_from_u64(9);
        let _ = random_regular(5, 3, &mut rng);
    }

    #[test]
    fn chung_lu_heavy_tail() {
        let mut rng = StdRng::seed_from_u64(10);
        let g = chung_lu(400, 2.5, 6.0, &mut rng);
        let avg = g.avg_degree();
        assert!((2.0..12.0).contains(&avg), "avg degree {avg}");
        // Heavy tail: the max degree should dwarf the average.
        assert!(g.max_degree() as f64 > 3.0 * avg, "max {} avg {avg}", g.max_degree());
    }

    #[test]
    fn chung_lu_deterministic() {
        let a = chung_lu(80, 2.7, 4.0, &mut StdRng::seed_from_u64(11));
        let b = chung_lu(80, 2.7, 4.0, &mut StdRng::seed_from_u64(11));
        assert_eq!(a, b);
    }
}
