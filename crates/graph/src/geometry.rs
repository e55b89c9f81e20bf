//! Points and metric spaces for the geometric graph classes of Section 1.3.
//!
//! Unit *disk* graphs live in 2D Euclidean space; unit *ball* graphs
//! generalize the underlying space to any metric space, and stay
//! growth-bounded whenever the metric is *doubling* (every ball is covered
//! by `b` balls of half the radius). All metrics provided here are doubling:
//! fixed-dimensional Euclidean, Chebyshev (`L∞`), Manhattan (`L1`), and the
//! flat torus.

use serde::{Deserialize, Serialize};

/// A point in the plane.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Point2 {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point2 {
    /// Creates a point from coordinates.
    pub fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// The point as `[x, y, 0]`, the layout of [`crate::spatial`].
    pub fn xyz(&self) -> [f64; 3] {
        [self.x, self.y, 0.0]
    }
}

/// A point in three-dimensional space.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Point3 {
    /// First coordinate.
    pub x: f64,
    /// Second coordinate.
    pub y: f64,
    /// Third coordinate.
    pub z: f64,
}

impl Point3 {
    /// Creates a point from coordinates.
    pub fn new(x: f64, y: f64, z: f64) -> Self {
        Point3 { x, y, z }
    }

    /// The point as `[x, y, z]`, the layout of [`crate::spatial`].
    pub fn xyz(&self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }
}

/// A metric on points of type `P`.
///
/// Implementations must satisfy the metric axioms; all metrics shipped with
/// this crate are additionally *doubling*, which is what makes the derived
/// unit-ball graphs growth-bounded (paper, Section 1.3).
pub trait Metric<P> {
    /// The distance between `a` and `b`.
    fn dist(&self, a: &P, b: &P) -> f64;
}

/// Euclidean (`L2`) metric on [`Point2`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Euclidean2;

impl Metric<Point2> for Euclidean2 {
    fn dist(&self, a: &Point2, b: &Point2) -> f64 {
        (a.x - b.x).hypot(a.y - b.y)
    }
}

/// Euclidean (`L2`) metric on [`Point3`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Euclidean3;

impl Metric<Point3> for Euclidean3 {
    fn dist(&self, a: &Point3, b: &Point3) -> f64 {
        ((a.x - b.x).powi(2) + (a.y - b.y).powi(2) + (a.z - b.z).powi(2)).sqrt()
    }
}

/// Chebyshev (`L∞`) metric on [`Point2`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Chebyshev2;

impl Metric<Point2> for Chebyshev2 {
    fn dist(&self, a: &Point2, b: &Point2) -> f64 {
        (a.x - b.x).abs().max((a.y - b.y).abs())
    }
}

/// Manhattan (`L1`) metric on [`Point2`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manhattan2;

impl Metric<Point2> for Manhattan2 {
    fn dist(&self, a: &Point2, b: &Point2) -> f64 {
        (a.x - b.x).abs() + (a.y - b.y).abs()
    }
}

/// Flat-torus metric: the unit square `[0, side)²` with wrap-around, scaled
/// by `side`. Useful for boundary-free geometric instances.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Torus2 {
    /// Side length of the square.
    pub side: f64,
}

impl Torus2 {
    /// A torus of the given side length.
    ///
    /// # Panics
    ///
    /// Panics if `side` is not strictly positive and finite.
    pub fn new(side: f64) -> Self {
        assert!(side.is_finite() && side > 0.0, "torus side must be positive");
        Torus2 { side }
    }
}

impl Metric<Point2> for Torus2 {
    fn dist(&self, a: &Point2, b: &Point2) -> f64 {
        let dx = (a.x - b.x).rem_euclid(self.side);
        let dy = (a.y - b.y).rem_euclid(self.side);
        let dx = dx.min(self.side - dx);
        let dy = dy.min(self.side - dy);
        dx.hypot(dy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean2_pythagoras() {
        let d = Euclidean2.dist(&Point2::new(0.0, 0.0), &Point2::new(3.0, 4.0));
        assert!((d - 5.0).abs() < 1e-12);
    }

    #[test]
    fn euclidean3_diagonal() {
        let d = Euclidean3.dist(&Point3::new(0.0, 0.0, 0.0), &Point3::new(1.0, 2.0, 2.0));
        assert!((d - 3.0).abs() < 1e-12);
    }

    #[test]
    fn chebyshev_max_axis() {
        let d = Chebyshev2.dist(&Point2::new(0.0, 0.0), &Point2::new(3.0, -4.0));
        assert!((d - 4.0).abs() < 1e-12);
    }

    #[test]
    fn manhattan_sum_axis() {
        let d = Manhattan2.dist(&Point2::new(0.0, 0.0), &Point2::new(3.0, -4.0));
        assert!((d - 7.0).abs() < 1e-12);
    }

    #[test]
    fn torus_wraps() {
        let t = Torus2::new(10.0);
        let d = t.dist(&Point2::new(0.5, 0.5), &Point2::new(9.5, 0.5));
        assert!((d - 1.0).abs() < 1e-12);
        // Within the bulk it agrees with Euclidean.
        let d2 = t.dist(&Point2::new(2.0, 2.0), &Point2::new(5.0, 6.0));
        assert!((d2 - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "torus side must be positive")]
    fn torus_rejects_zero_side() {
        Torus2::new(0.0);
    }

    #[test]
    fn metric_axioms_sampled() {
        // Symmetry and triangle inequality on a small sample, all metrics.
        let pts = [
            Point2::new(0.1, 0.9),
            Point2::new(4.0, 2.5),
            Point2::new(7.3, 7.9),
            Point2::new(9.9, 0.2),
        ];
        fn check<M: Metric<Point2>>(m: &M, pts: &[Point2]) {
            for a in pts {
                assert!(m.dist(a, a).abs() < 1e-12);
                for b in pts {
                    assert!((m.dist(a, b) - m.dist(b, a)).abs() < 1e-12);
                    for c in pts {
                        assert!(m.dist(a, c) <= m.dist(a, b) + m.dist(b, c) + 1e-12);
                    }
                }
            }
        }
        check(&Euclidean2, &pts);
        check(&Chebyshev2, &pts);
        check(&Manhattan2, &pts);
        check(&Torus2::new(10.0), &pts);
    }
}
