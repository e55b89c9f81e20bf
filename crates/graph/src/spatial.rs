//! A uniform-grid spatial index over a (possibly moving) point set.
//!
//! Cells are at least one interaction radius wide, so every pair within
//! interaction range sits in the same or an adjacent cell: the candidate
//! neighbors of a point are exactly the `3^dim` surrounding cells. Nodes
//! are re-bucketed **only when they cross a cell boundary** — with per-tick
//! displacements far below the radius, crossings are rare, which is what
//! makes incremental edge maintenance cheap.
//!
//! The index serves three consumers: the geometric generators enumerate
//! their candidate edges with a pair sweep over it, `radionet-mobility`
//! maintains derived adjacency over moving nodes with it, and
//! `radionet-sim` finds the listeners within decode range of each
//! transmitter in the sparse SINR reception kernel. It lives in this
//! crate — below mobility and the simulator — so neither has to depend on
//! the other.
//!
//! Beside the index sit the two distance primitives of the `[x, y, z]`
//! point layout: [`dist3`], the Euclidean distance, and [`within`], the
//! adjacency decision `distance ≤ r` that the geometric generators and the
//! mobile topology share, so a pair on the boundary gets the same answer
//! in both.

/// Euclidean distance between two `[x, y, z]` points (2D points carry
/// `z = 0`, so one routine serves both dimensions). The shared distance
/// for every consumer of this module's point layout.
#[inline]
pub fn dist3(a: &[f64; 3], b: &[f64; 3]) -> f64 {
    ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt()
}

/// Relative half-width of the band around `r²` in which [`within`] does not
/// trust the squared distance. The squared distance and `r²` each carry at
/// most a few ulps of rounding (about `2⁻⁵¹`) and libm's `hypot` at most
/// one ulp, so `2⁻⁴⁰` leaves a margin of about three orders of magnitude.
const WITHIN_BAND: f64 = 1.0 / (1u64 << 40) as f64;

/// Whether `a` and `b` are within distance `r`: exactly the value of
/// `hypot(dx, dy) <= r` for `dim == 2` (the `z` coordinates are ignored)
/// and of `sqrt(dx² + dy² + dz²) <= r` otherwise, which are the distances
/// [`Euclidean2`](crate::geometry::Euclidean2) and
/// [`Euclidean3`](crate::geometry::Euclidean3) compute.
///
/// Outside a relative band of `2⁻⁴⁰` around `r²` the squared distance
/// decides, since its rounding cannot move a pair across the boundary
/// there; inside the band, or when a squared value is not a finite normal
/// number, the exact expression does. The square root and `hypot` are
/// therefore evaluated only for pairs almost exactly `r` apart.
#[inline]
pub fn within(a: &[f64; 3], b: &[f64; 3], dim: usize, r: f64) -> bool {
    let (dx, dy, dz) = (a[0] - b[0], a[1] - b[1], a[2] - b[2]);
    let planar = dx.powi(2) + dy.powi(2);
    let sq = if dim == 2 { planar } else { planar + dz.powi(2) };
    let r2 = r * r;
    if r > 0.0 && sq.is_normal() && r2.is_normal() {
        if sq < r2 * (1.0 - WITHIN_BAND) {
            return true;
        }
        if sq > r2 * (1.0 + WITHIN_BAND) {
            return false;
        }
    }
    if dim == 2 {
        dx.hypot(dy) <= r
    } else {
        sq.sqrt() <= r
    }
}

/// Per-axis bounding box of the positions — the domain a spatial index
/// over them must be anchored to (offset or origin-straddling point sets
/// would otherwise clamp into boundary cells and lose all selectivity).
pub fn position_bounds(pos: &[[f64; 3]]) -> ([f64; 3], [f64; 3]) {
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for p in pos {
        for axis in 0..3 {
            lo[axis] = lo[axis].min(p[axis]);
            hi[axis] = hi[axis].max(p[axis]);
        }
    }
    (lo, hi)
}

/// The cell width for a grid over `n` points in `dim` dimensions whose
/// domain is `side` wide: at least `radius`, and floored so the cell count
/// never exceeds ≈ one cell per node (a radius far below the point spacing
/// would otherwise allocate a uselessly fine grid; wider cells are always
/// correct, just less selective).
pub fn capped_cell_width(n: usize, dim: usize, side: f64, radius: f64) -> f64 {
    let per_axis_cap = (n.max(1) as f64).powf(1.0 / dim as f64).ceil().max(1.0);
    radius.max(side / per_axis_cap)
}

/// Calls `f(i, j)` for every pair `i < j` of `positions` within `radius`
/// of each other, in lexicographic `(i, j)` order. The pairs come from a
/// [`SpatialGrid`] over the points' bounding box, so `f` also sees some
/// farther pairs that share a cell neighbourhood and must filter by exact
/// distance. At bounded density this costs `O(n·deg)` instead of the
/// `n(n−1)/2` distance checks of an all-pairs loop; the fixed order lets a
/// caller that draws randomness per visited pair reproduce such a loop's
/// random stream exactly.
///
/// # Panics
///
/// Panics if `radius` is negative or NaN, or `dim` is not 2 or 3.
pub(crate) fn for_each_candidate_pair(
    positions: &[[f64; 3]],
    dim: usize,
    radius: f64,
    mut f: impl FnMut(usize, usize),
) {
    assert!(radius >= 0.0, "radius must be nonnegative");
    let n = positions.len();
    let (lo, hi) = position_bounds(positions);
    let extent = (0..dim).map(|a| hi[a] - lo[a]).fold(0.0, f64::max);
    // A hair of slack keeps a pair at distance exactly `radius` in
    // adjacent cells despite rounding in the cell arithmetic.
    let scale = (0..dim).map(|a| lo[a].abs().max(hi[a].abs())).fold(radius, f64::max);
    let reach = radius + scale * 1e-9;
    let finite = lo.iter().all(|c| c.is_finite()) && (extent + reach).is_finite();
    let grid = if finite && reach > 0.0 {
        let side = extent.max(reach);
        SpatialGrid::with_origin(lo, side, capped_cell_width(n, dim, side, reach), dim, positions)
    } else {
        // No points, a non-finite coordinate or radius, or radius 0 with
        // every point at the origin: one cell holds every point.
        SpatialGrid::with_origin([0.0; 3], 1.0, 1.0, dim, positions)
    };
    let mut near = Vec::new();
    for (i, p) in positions.iter().enumerate() {
        near.clear();
        grid.for_candidates(*p, |j| {
            if j as usize > i {
                near.push(j as usize);
            }
        });
        near.sort_unstable();
        near.iter().for_each(|&j| f(i, j));
    }
}

/// The uniform grid: node buckets per cell plus each node's current cell.
#[derive(Clone, Debug)]
pub struct SpatialGrid {
    /// Cell width (≥ the interaction radius by construction).
    width: f64,
    /// Cells per axis (`[nx, ny, nz]`; `nz = 1` for 2D).
    cells: [usize; 3],
    /// Domain origin: cell indices are computed on `coord - origin`
    /// (zero for the classic `[0, side]^dim` domain).
    origin: [f64; 3],
    buckets: Vec<Vec<u32>>,
    cell_of: Vec<u32>,
}

impl SpatialGrid {
    /// Builds the grid over `positions` in the domain `[0, side]^dim` with
    /// cells at least `radius` wide. Coordinates outside the domain are
    /// clamped into the boundary cells, which can only over-approximate
    /// candidate sets, never miss a close pair (clamping is 1-Lipschitz on
    /// cell indices).
    ///
    /// # Panics
    ///
    /// Panics on non-positive `side`/`radius` or `dim` outside `{2, 3}`.
    pub fn new(side: f64, radius: f64, dim: usize, positions: &[[f64; 3]]) -> Self {
        Self::with_origin([0.0; 3], side, radius, dim, positions)
    }

    /// Like [`SpatialGrid::new`], but over the domain
    /// `[origin, origin + side]^dim` — for point sets that are offset
    /// from (or straddle) the coordinate origin, where anchoring the
    /// cells at zero would clamp a large fraction of the nodes into
    /// boundary cells and destroy the index's selectivity.
    ///
    /// # Panics
    ///
    /// Panics on non-positive `side`/`radius`, non-finite `origin`, or
    /// `dim` outside `{2, 3}`.
    pub fn with_origin(
        origin: [f64; 3],
        side: f64,
        radius: f64,
        dim: usize,
        positions: &[[f64; 3]],
    ) -> Self {
        assert!(matches!(dim, 2 | 3), "spatial grid supports 2D and 3D only");
        assert!(side > 0.0 && side.is_finite(), "domain side must be positive");
        assert!(radius > 0.0 && radius.is_finite(), "radius must be positive");
        assert!(origin.iter().all(|c| c.is_finite()), "origin must be finite");
        // floor() keeps width = side / per_axis >= radius.
        let per_axis = ((side / radius).floor() as usize).max(1);
        let cells = [per_axis, per_axis, if dim == 3 { per_axis } else { 1 }];
        let width = side / per_axis as f64;
        let mut grid = SpatialGrid {
            width,
            cells,
            origin,
            buckets: vec![Vec::new(); cells[0] * cells[1] * cells[2]],
            cell_of: vec![0; positions.len()],
        };
        grid.rebuild(positions);
        grid
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        self.buckets.len()
    }

    /// The actual cell width (≥ the construction radius).
    pub fn cell_width(&self) -> f64 {
        self.width
    }

    #[inline]
    fn axis_cell(&self, coord: f64, axis: usize) -> usize {
        let c = ((coord - self.origin[axis]) / self.width) as isize;
        c.clamp(0, self.cells[axis] as isize - 1) as usize
    }

    #[inline]
    fn cell_index(&self, p: [f64; 3]) -> u32 {
        let cx = self.axis_cell(p[0], 0);
        let cy = self.axis_cell(p[1], 1);
        let cz = self.axis_cell(p[2], 2);
        ((cz * self.cells[1] + cy) * self.cells[0] + cx) as u32
    }

    /// Drops and re-inserts every node (the full-rebuild reference path).
    pub fn rebuild(&mut self, positions: &[[f64; 3]]) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.cell_of.resize(positions.len(), 0);
        for (i, p) in positions.iter().enumerate() {
            let cell = self.cell_index(*p);
            self.cell_of[i] = cell;
            self.buckets[cell as usize].push(i as u32);
        }
    }

    /// Re-buckets node `i` at its new position. Returns whether it crossed
    /// a cell boundary (the only case that costs anything).
    ///
    /// # Panics
    ///
    /// Panics if the index has lost track of node `i` (it is not in its
    /// recorded cell), which indicates out-of-band mutation.
    pub fn update(&mut self, i: usize, p: [f64; 3]) -> bool {
        let cell = self.cell_index(p);
        let old = self.cell_of[i];
        if cell == old {
            return false;
        }
        let bucket = &mut self.buckets[old as usize];
        let pos = bucket
            .iter()
            .position(|&x| x as usize == i)
            .expect("node missing from its recorded cell");
        bucket.swap_remove(pos);
        self.buckets[cell as usize].push(i as u32);
        self.cell_of[i] = cell;
        true
    }

    /// Calls `f` with every node in the `3^dim` cells around `p`
    /// (including `p`'s own cell — callers filter out the node itself).
    /// Covers every node within one cell width (≥ the construction
    /// radius) of `p`.
    #[inline]
    pub fn for_candidates(&self, p: [f64; 3], mut f: impl FnMut(u32)) {
        let mut lo = [0usize; 3];
        let mut hi = [0usize; 3];
        for axis in 0..3 {
            let c = self.axis_cell(p[axis], axis);
            lo[axis] = c.saturating_sub(1);
            hi[axis] = (c + 1).min(self.cells[axis] - 1);
        }
        for z in lo[2]..=hi[2] {
            for y in lo[1]..=hi[1] {
                let row = (z * self.cells[1] + y) * self.cells[0];
                for x in lo[0]..=hi[0] {
                    for &node in &self.buckets[row + x] {
                        f(node);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn points(n: usize, dim: usize, side: f64, seed: u64) -> Vec<[f64; 3]> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut p = [0.0; 3];
                for c in p.iter_mut().take(dim) {
                    *c = rng.gen::<f64>() * side;
                }
                p
            })
            .collect()
    }

    use super::dist3 as dist;

    #[test]
    fn candidates_cover_every_close_pair() {
        for dim in [2usize, 3] {
            let side = 8.0;
            let radius = 1.0;
            let pts = points(200, dim, side, 11);
            let grid = SpatialGrid::new(side, radius, dim, &pts);
            for i in 0..pts.len() {
                let mut cand = Vec::new();
                grid.for_candidates(pts[i], |j| cand.push(j as usize));
                for (j, q) in pts.iter().enumerate() {
                    if j != i && dist(&pts[i], q) <= radius {
                        assert!(cand.contains(&j), "dim {dim}: close pair {i}-{j} missed");
                    }
                }
                assert!(cand.contains(&i), "own cell must be scanned");
            }
        }
    }

    #[test]
    fn update_tracks_movement() {
        let side = 4.0;
        let mut pts = points(50, 2, side, 3);
        let mut grid = SpatialGrid::new(side, 1.0, 2, &pts);
        let mut reference = SpatialGrid::new(side, 1.0, 2, &pts);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..200 {
            let i = rng.gen_range(0..pts.len());
            pts[i] = [rng.gen::<f64>() * side, rng.gen::<f64>() * side, 0.0];
            grid.update(i, pts[i]);
        }
        reference.rebuild(&pts);
        // Same buckets as a from-scratch rebuild (order within a bucket may
        // differ; compare as sets).
        for (a, b) in grid.buckets.iter().zip(&reference.buckets) {
            let mut a = a.clone();
            let mut b = b.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn origin_anchored_grid_covers_offset_and_negative_domains() {
        // A point set centered on the origin (negative coordinates) and a
        // far-offset one: with the matching origin the index must cover
        // every close pair *and* stay selective (no boundary-cell pileup).
        for (lo, hi) in [(-6.0, 6.0), (1000.0, 1012.0)] {
            let side = hi - lo;
            let mut rng = SmallRng::seed_from_u64(4);
            let pts: Vec<[f64; 3]> = (0..200)
                .map(|_| [lo + rng.gen::<f64>() * side, lo + rng.gen::<f64>() * side, 0.0])
                .collect();
            let grid = SpatialGrid::with_origin([lo, lo, 0.0], side, 1.0, 2, &pts);
            let mut max_bucket = 0usize;
            for i in 0..pts.len() {
                let mut cand = Vec::new();
                grid.for_candidates(pts[i], |j| cand.push(j as usize));
                max_bucket = max_bucket.max(cand.len());
                for (j, q) in pts.iter().enumerate() {
                    if j != i && dist(&pts[i], q) <= 1.0 {
                        assert!(cand.contains(&j), "domain [{lo},{hi}]: pair {i}-{j} missed");
                    }
                }
            }
            // 200 points over 144 cells: a 3x3 candidate scan must see a
            // small fraction of the fleet, not a boundary-cell pileup.
            assert!(max_bucket < 60, "domain [{lo},{hi}]: selectivity lost ({max_bucket})");
        }
    }

    #[test]
    fn pair_sweep_visits_every_close_pair_once_in_order() {
        for dim in [2usize, 3] {
            let pts = points(300, dim, 7.0, 13);
            let mut seen = Vec::new();
            for_each_candidate_pair(&pts, dim, 1.0, |i, j| seen.push((i, j)));
            assert!(seen.windows(2).all(|w| w[0] < w[1]), "dim {dim}: not lexicographic");
            for i in 0..pts.len() {
                for j in (i + 1)..pts.len() {
                    if dist(&pts[i], &pts[j]) <= 1.0 {
                        assert!(seen.binary_search(&(i, j)).is_ok(), "dim {dim}: {i}-{j} missed");
                    }
                }
            }
        }
    }

    #[test]
    fn pair_sweep_puts_degenerate_inputs_in_one_cell() {
        let odd = [[0.0; 3], [f64::INFINITY, 0.0, 0.0], [f64::NAN, 1.0, 0.0], [0.0; 3]];
        for radius in [0.0, 1.0, f64::INFINITY] {
            let mut seen = 0;
            for_each_candidate_pair(&odd, 2, radius, |_, _| seen += 1);
            assert_eq!(seen, 6, "radius {radius}");
        }
        let mut seen = 0;
        for_each_candidate_pair(&[[0.0; 3]; 3], 2, 0.0, |_, _| seen += 1);
        assert_eq!(seen, 3);
        for_each_candidate_pair(&[], 3, 1.0, |_, _| unreachable!("no points, no pairs"));
    }

    #[test]
    fn tiny_domain_degenerates_to_one_bucket() {
        let pts = points(10, 2, 0.5, 1);
        let grid = SpatialGrid::new(0.5, 1.0, 2, &pts);
        assert_eq!(grid.cell_count(), 1);
        let mut cand = Vec::new();
        grid.for_candidates(pts[0], |j| cand.push(j));
        assert_eq!(cand.len(), 10);
    }

    /// The exact expressions [`within`] must reproduce.
    fn within_exact(a: &[f64; 3], b: &[f64; 3], dim: usize, r: f64) -> bool {
        let (dx, dy) = (a[0] - b[0], a[1] - b[1]);
        if dim == 2 {
            dx.hypot(dy) <= r
        } else {
            dist(a, b) <= r
        }
    }

    #[test]
    fn within_is_exact_at_the_boundary_and_one_ulp_either_side() {
        let pairs: [([f64; 3], [f64; 3], usize); 3] = [
            ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 2),
            ([0.0, 0.0, 0.0], [0.6, 0.8, 0.0], 2),
            ([0.0, 0.0, 0.0], [1.0, 2.0, 2.0], 3),
        ];
        for (a, b, dim) in pairs {
            let d = if dim == 2 { (a[0] - b[0]).hypot(a[1] - b[1]) } else { dist(&a, &b) };
            for r in [d.next_down(), d, d.next_up()] {
                assert_eq!(
                    within(&a, &b, dim, r),
                    within_exact(&a, &b, dim, r),
                    "{a:?}-{b:?} r {r}"
                );
                assert_eq!(
                    within(&b, &a, dim, r),
                    within_exact(&b, &a, dim, r),
                    "{b:?}-{a:?} r {r}"
                );
            }
            assert!(within(&a, &b, dim, d) && !within(&a, &b, dim, d.next_down()));
        }
    }

    #[test]
    fn within_matches_the_exact_expression_everywhere() {
        let mut rng = SmallRng::seed_from_u64(21);
        let odd = [0.0, -0.0, f64::MIN_POSITIVE, 1e-170, 1e160, f64::INFINITY, f64::NAN];
        for dim in [2usize, 3] {
            let pts = points(300, dim, 3.0, 7 + dim as u64);
            for w in pts.windows(2) {
                let d = dist(&w[0], &w[1]);
                for r in [rng.gen::<f64>() * 3.0, d, d * (1.0 + 1e-13), -1.0] {
                    assert_eq!(within(&w[0], &w[1], dim, r), within_exact(&w[0], &w[1], dim, r));
                }
            }
            for &c in &odd {
                for &r in &odd {
                    let (a, b) = ([0.0; 3], [c, c, if dim == 3 { c } else { 0.0 }]);
                    assert_eq!(within(&a, &b, dim, r), within_exact(&a, &b, dim, r), "{c} {r}");
                }
            }
        }
    }

    #[test]
    fn boundary_points_stay_in_range() {
        // Points exactly at `side` must clamp into the last cell.
        let pts = vec![[4.0, 4.0, 0.0], [0.0, 0.0, 0.0]];
        let grid = SpatialGrid::new(4.0, 1.0, 2, &pts);
        let mut seen = Vec::new();
        grid.for_candidates([4.0, 4.0, 0.0], |j| seen.push(j));
        assert!(seen.contains(&0));
    }
}
