//! A serde-able catalogue of named graph families for experiments.
//!
//! The paper's headline comparison is between **geometric-derived** classes
//! (growth-bounded, `α = poly(D)`) and **general** graphs (`α` up to `Θ(n)`).
//! [`Family`] names one instantiable family per experiment row; the bench
//! harness sweeps `n` and a seed and gets a connected graph plus its
//! geometric classification.

use crate::generators;
use crate::geometry::{Point2, Point3};
use crate::traversal;
use crate::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// The deterministic edge rule a positioned geometric instance was built
/// under — everything a mobility layer needs to *re-derive* the edge set
/// as the point set moves.
///
/// The gray zone of [`GeometryRule::Quasi`] is probabilistic at generation
/// time; consumers that re-evaluate the rule (e.g. `radionet-mobility`)
/// realize it with a deterministic per-pair coin instead, so a moving
/// quasi-UDG stays a pure function of `(points, rule, seed)`.
#[derive(Clone, Debug, PartialEq)]
pub enum GeometryRule {
    /// Edge iff `dist(u, v) ≤ radius` (unit disk / unit ball).
    Disk {
        /// The connection radius.
        radius: f64,
    },
    /// Edge certain below `r`, impossible above `big_r`, present with
    /// probability `gray_p` in between (quasi unit disk).
    Quasi {
        /// Certain-connection radius.
        r: f64,
        /// Maximum-connection radius (`R ≥ r`).
        big_r: f64,
        /// Gray-zone edge probability.
        gray_p: f64,
    },
    /// Edge iff `dist(u, v) ≤ min(ranges[u], ranges[v])` (undirected
    /// geometric radio network).
    Radio {
        /// Per-node transmission range.
        ranges: Vec<f64>,
    },
}

impl GeometryRule {
    /// The largest distance at which any pair can be connected — the cell
    /// width a uniform-grid spatial index needs.
    pub fn max_radius(&self) -> f64 {
        match self {
            GeometryRule::Disk { radius } => *radius,
            GeometryRule::Quasi { big_r, .. } => *big_r,
            GeometryRule::Radio { ranges } => ranges.iter().copied().fold(0.0, f64::max),
        }
    }
}

/// The embedding of a positioned family instance: the point set, its
/// dimension, the generation domain `[0, side)^dim`, and the edge rule.
///
/// Points are stored as `[x, y, z]` uniformly; 2D families set `z = 0`,
/// so one distance routine serves both dimensions.
#[derive(Clone, Debug, PartialEq)]
pub struct Geometry {
    /// Node `i` sits at `points[i]` (2D points carry `z = 0`).
    pub points: Vec<[f64; 3]>,
    /// Spatial dimension: 2 or 3.
    pub dim: u32,
    /// Side length of the generation domain `[0, side)^dim`.
    pub side: f64,
    /// The edge rule relating distances to adjacency.
    pub rule: GeometryRule,
}

/// A family instance that keeps its embedding instead of discarding it.
///
/// [`Family::instantiate_positioned`] returns this for every family; only
/// the geometric families carry a [`Geometry`] (general graphs have no
/// embedding to expose).
#[derive(Clone, Debug)]
pub struct Positioned {
    /// The instantiated connected graph.
    pub graph: Graph,
    /// The embedding, for the geometric families; `None` otherwise.
    pub geometry: Option<Geometry>,
}

/// Named graph families used across the experiment suite.
///
/// Each family maps `(n, seed)` to a **connected** graph of roughly `n`
/// nodes (exact size may be rounded, e.g. to a square grid).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Family {
    /// Path `P_n`: the maximum-diameter extreme.
    Path,
    /// Cycle `C_n`.
    Cycle,
    /// Square grid (√n × √n): growth-bounded, `α = Θ(n) = Θ(D²)`.
    Grid,
    /// Complete graph `K_n`: `α = 1`, the MIS lower-bound instance.
    Clique,
    /// Star: `α = n − 1`, `D = 2`.
    Star,
    /// Hypercube `Q_{log n}`: `D = log n`, `α = n/2` — strongly non-geometric.
    Hypercube,
    /// Spider with `√n` legs of length `√n`: `α = Θ(n)`, `D = Θ(√n)`.
    Spider,
    /// Balanced binary tree.
    BinaryTree,
    /// Random recursive tree: `D = Θ(log n)`, `α = Θ(n)`.
    RandomTree,
    /// Connected Erdős–Rényi with expected degree ≈ 8: the "general graph".
    Gnp,
    /// Sparser connected Erdős–Rényi (expected degree ≈ 3): larger diameter.
    GnpSparse,
    /// Unit disk graph, constant density (expected degree ≈ 10).
    UnitDisk,
    /// Quasi unit disk graph, `R/r = 2`, gray-zone probability 0.5.
    QuasiUnitDisk,
    /// Unit ball graph in 3D Euclidean space, constant density.
    UnitBall3,
    /// Undirected geometric radio network, range ratio 2.
    GeometricRadio,
    /// Random 4-regular graph (configuration model): an expander whp —
    /// minimum diameter, `α = Θ(n)`.
    RandomRegular,
    /// Chung–Lu power-law graph (`γ = 2.5`): heavy-tailed degrees.
    ChungLu,
}

impl Family {
    /// All families, in display order.
    pub const ALL: [Family; 17] = [
        Family::Path,
        Family::Cycle,
        Family::Grid,
        Family::Clique,
        Family::Star,
        Family::Hypercube,
        Family::Spider,
        Family::BinaryTree,
        Family::RandomTree,
        Family::Gnp,
        Family::GnpSparse,
        Family::UnitDisk,
        Family::QuasiUnitDisk,
        Family::UnitBall3,
        Family::GeometricRadio,
        Family::RandomRegular,
        Family::ChungLu,
    ];

    /// The geometric / growth-bounded families (`α = poly(D)`), where
    /// Corollary 9 predicts `O(D + polylog n)` broadcast.
    pub const GROWTH_BOUNDED: [Family; 8] = [
        Family::Path,
        Family::Cycle,
        Family::Grid,
        Family::UnitDisk,
        Family::QuasiUnitDisk,
        Family::UnitBall3,
        Family::GeometricRadio,
        Family::Clique,
    ];

    /// A short stable name for tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Family::Path => "path",
            Family::Cycle => "cycle",
            Family::Grid => "grid",
            Family::Clique => "clique",
            Family::Star => "star",
            Family::Hypercube => "hypercube",
            Family::Spider => "spider",
            Family::BinaryTree => "binary-tree",
            Family::RandomTree => "random-tree",
            Family::Gnp => "gnp",
            Family::GnpSparse => "gnp-sparse",
            Family::UnitDisk => "unit-disk",
            Family::QuasiUnitDisk => "quasi-udg",
            Family::UnitBall3 => "unit-ball-3d",
            Family::GeometricRadio => "geo-radio",
            Family::RandomRegular => "random-regular",
            Family::ChungLu => "chung-lu",
        }
    }

    /// Whether the family is growth-bounded (so `α = poly(D)`).
    pub fn is_growth_bounded(self) -> bool {
        Family::GROWTH_BOUNDED.contains(&self)
    }

    /// Whether [`Family::instantiate_positioned`] carries a [`Geometry`]
    /// (a point embedding and edge rule) — the families the mobility
    /// subsystem can move. Statically checkable from the family alone.
    pub fn has_embedding(self) -> bool {
        matches!(
            self,
            Family::UnitDisk | Family::QuasiUnitDisk | Family::UnitBall3 | Family::GeometricRadio
        )
    }

    /// The smallest `n` [`Family::instantiate`] accepts: 4, or 5 for
    /// [`Family::RandomRegular`], whose 4-regular generator needs more
    /// than four nodes.
    pub fn min_n(self) -> usize {
        match self {
            Family::RandomRegular => 5,
            _ => 4,
        }
    }

    /// Instantiates a connected graph with roughly `n` nodes.
    ///
    /// Geometric families retry with densified parameters until connected
    /// (bounded number of attempts), so the returned graph is always
    /// connected.
    ///
    /// # Panics
    ///
    /// Panics if `n < self.min_n()`.
    pub fn instantiate(self, n: usize, seed: u64) -> Graph {
        self.instantiate_positioned(n, seed).graph
    }

    /// Like [`Family::instantiate`], but keeps the embedding: geometric
    /// families return their point set, generation domain, and edge rule
    /// alongside the graph (general families return `geometry: None`).
    ///
    /// Consumes the exact same random stream as [`Family::instantiate`],
    /// so `instantiate_positioned(n, seed).graph == instantiate(n, seed)`
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `n < self.min_n()`.
    pub fn instantiate_positioned(self, n: usize, seed: u64) -> Positioned {
        assert!(n >= self.min_n(), "{self} needs n >= {}", self.min_n());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0000);
        let plain = |graph: Graph| Positioned { graph, geometry: None };
        match self {
            Family::Path => plain(generators::path(n)),
            Family::Cycle => plain(generators::cycle(n)),
            Family::Grid => {
                let side = (n as f64).sqrt().round().max(2.0) as usize;
                plain(generators::grid2d(side, side))
            }
            Family::Clique => plain(generators::complete(n)),
            Family::Star => plain(generators::star(n)),
            Family::Hypercube => {
                let d = (n as f64).log2().round().max(2.0) as u32;
                plain(generators::hypercube(d))
            }
            Family::Spider => {
                let leg = (n as f64).sqrt().round().max(1.0) as usize;
                let legs = ((n - 1) / leg).max(1);
                plain(generators::spider(legs, leg))
            }
            Family::BinaryTree => {
                let levels = ((n + 1) as f64).log2().round().max(2.0) as u32;
                plain(generators::binary_tree(levels))
            }
            Family::RandomTree => plain(generators::random_tree(n, &mut rng)),
            Family::Gnp => {
                let p = (8.0 / n as f64).min(1.0);
                plain(generators::connected_gnp(n, p, &mut rng))
            }
            Family::GnpSparse => {
                let p = (3.0 / n as f64).min(1.0);
                plain(generators::connected_gnp(n, p, &mut rng))
            }
            Family::UnitDisk => connected_geometric(n, 2, |rng, side| {
                let inst = generators::unit_disk_in_square(n, side, rng);
                let points = inst.points.iter().map(Point2::xyz).collect();
                (inst.graph, points, GeometryRule::Disk { radius: 1.0 })
            }),
            Family::QuasiUnitDisk => connected_geometric(n, 2, |rng, side| {
                let inst = generators::quasi_unit_disk_in_square(n, side, 0.5, 1.0, 0.5, rng);
                let points = inst.points.iter().map(Point2::xyz).collect();
                (inst.graph, points, GeometryRule::Quasi { r: 0.5, big_r: 1.0, gray_p: 0.5 })
            }),
            Family::UnitBall3 => connected_geometric(n, 3, |rng, side| {
                let inst = generators::geometric::unit_ball3_in_cube(n, side, rng);
                let points = inst.points.iter().map(Point3::xyz).collect();
                (inst.graph, points, GeometryRule::Disk { radius: 1.0 })
            }),
            Family::GeometricRadio => connected_geometric(n, 2, |rng, side| {
                let pts = generators::uniform_points2(n, side, rng);
                let ranges = generators::geometric::uniform_ranges(n, 0.75, 1.5, rng);
                let graph = generators::geometric_radio_undirected(&pts, &ranges).graph;
                (graph, pts.iter().map(Point2::xyz).collect(), GeometryRule::Radio { ranges })
            }),
            Family::RandomRegular => {
                let n = if n.is_multiple_of(2) { n } else { n + 1 }; // even n·d
                let g = generators::random::random_regular(n, 4, &mut rng);
                plain(generators::random::connect_components(&g, &mut rng))
            }
            Family::ChungLu => {
                let g = generators::random::chung_lu(n, 2.5, 6.0, &mut rng);
                plain(generators::random::connect_components(&g, &mut rng))
            }
        }
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Instantiates a geometric family in `dim` dimensions, shrinking the
/// domain `[0, side)^dim` until the graph is connected.
///
/// Starts at constant density (expected degree ≈ 10 in the plane, ≈ 12 in
/// 3D) and densifies by 20% per failed attempt; panics after 64 attempts
/// (practically unreachable).
fn connected_geometric<F>(n: usize, dim: u32, mut gen: F) -> Positioned
where
    F: FnMut(&mut StdRng, f64) -> (Graph, Vec<[f64; 3]>, GeometryRule),
{
    // Choose side so that n·π/side² ≈ 10 (2D) or n·(4/3)π/side³ ≈ 12 (3D,
    // 4/3·π ≈ 4.19); the 3D stream is salted apart from the 2D ones.
    let (mut side, salt) = match dim {
        3 => ((n as f64 * 4.19 / 12.0).cbrt(), 0x3d),
        _ => ((n as f64 * std::f64::consts::PI / 10.0).sqrt(), 0),
    };
    for attempt in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(geo_seed(attempt, n) ^ salt);
        let (graph, points, rule) = gen(&mut rng, side);
        if traversal::is_connected(&graph) {
            let geometry = Geometry { points, dim, side, rule };
            return Positioned { graph, geometry: Some(geometry) };
        }
        side *= 0.8;
    }
    panic!("could not generate a connected {dim}d geometric graph for n={n}");
}

fn geo_seed(attempt: u64, n: usize) -> u64 {
    attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_families_instantiate_connected() {
        for fam in Family::ALL {
            let g = fam.instantiate(64, 1);
            assert!(traversal::is_connected(&g), "{fam} not connected");
            assert!(g.n() >= 15, "{fam} too small: {}", g.n());
        }
    }

    #[test]
    fn every_family_instantiates_at_its_floor() {
        for fam in Family::ALL {
            let g = fam.instantiate(fam.min_n(), 3);
            assert!(traversal::is_connected(&g), "{fam} not connected at n = {}", fam.min_n());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        for fam in [Family::Gnp, Family::UnitDisk, Family::RandomTree] {
            let g1 = fam.instantiate(80, 7);
            let g2 = fam.instantiate(80, 7);
            assert_eq!(g1, g2, "{fam} not deterministic");
        }
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<&str> = Family::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Family::ALL.len());
    }

    #[test]
    fn growth_bounded_subset() {
        for fam in Family::GROWTH_BOUNDED {
            assert!(fam.is_growth_bounded());
        }
        assert!(!Family::Hypercube.is_growth_bounded());
        assert!(!Family::Gnp.is_growth_bounded());
    }

    #[test]
    fn display_matches_name() {
        for fam in Family::ALL {
            assert_eq!(fam.to_string(), fam.name());
        }
    }

    /// The geometric families of the mobility subsystem.
    const POSITIONED: [Family; 4] =
        [Family::UnitDisk, Family::QuasiUnitDisk, Family::UnitBall3, Family::GeometricRadio];

    #[test]
    fn positioned_graph_is_byte_identical_to_instantiate() {
        for fam in Family::ALL {
            let a = fam.instantiate(72, 5);
            let b = fam.instantiate_positioned(72, 5);
            assert_eq!(a, b.graph, "{fam}: positioned path diverged");
            assert_eq!(b.geometry.is_some(), POSITIONED.contains(&fam), "{fam}");
            assert_eq!(fam.has_embedding(), b.geometry.is_some(), "{fam}: has_embedding lies");
        }
    }

    #[test]
    fn positioned_geometry_is_well_formed() {
        for fam in POSITIONED {
            let p = fam.instantiate_positioned(64, 2);
            let geo = p.geometry.expect("geometric family carries geometry");
            assert_eq!(geo.points.len(), p.graph.n(), "{fam}: one point per node");
            assert!(geo.side > 0.0);
            assert!(geo.rule.max_radius() > 0.0);
            assert!(matches!(geo.dim, 2 | 3));
            for pt in &geo.points {
                for (axis, &c) in pt.iter().enumerate() {
                    if axis < geo.dim as usize {
                        assert!((0.0..geo.side).contains(&c), "{fam}: point outside domain");
                    } else {
                        assert_eq!(c, 0.0, "{fam}: unused axis must be zero");
                    }
                }
            }
            if let GeometryRule::Radio { ranges } = &geo.rule {
                assert_eq!(ranges.len(), p.graph.n());
            }
        }
    }

    #[test]
    fn positioned_rule_reproduces_deterministic_edges() {
        // For the deterministic rules (disk, ball, radio) the recorded
        // geometry must re-derive exactly the generated edge set; for the
        // quasi family it must bracket it (certain ⊆ edges ⊆ possible).
        fn dist(a: &[f64; 3], b: &[f64; 3]) -> f64 {
            ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt()
        }
        for fam in POSITIONED {
            let p = fam.instantiate_positioned(60, 9);
            let geo = p.geometry.unwrap();
            let g = &p.graph;
            for i in 0..g.n() {
                for j in (i + 1)..g.n() {
                    let d = dist(&geo.points[i], &geo.points[j]);
                    let has = g.has_edge(g.node(i), g.node(j));
                    match &geo.rule {
                        GeometryRule::Disk { radius } => {
                            assert_eq!(has, d <= *radius, "{fam}: edge {i}-{j}")
                        }
                        GeometryRule::Quasi { r, big_r, .. } => {
                            if d <= *r {
                                assert!(has, "{fam}: certain edge {i}-{j} missing");
                            }
                            if d > *big_r {
                                assert!(!has, "{fam}: impossible edge {i}-{j} present");
                            }
                        }
                        GeometryRule::Radio { ranges } => {
                            assert_eq!(has, d <= ranges[i].min(ranges[j]), "{fam}: edge {i}-{j}")
                        }
                    }
                }
            }
        }
    }
}
