//! Alternative reception models.
//!
//! The paper works in the classic *protocol model* (a listener hears a
//! message iff exactly one neighbor transmits, no collision detection) and
//! explicitly notes the alternatives it abstracts away: collision detection
//! (its related work, e.g. Schneider–Wattenhofer \[29\] and Dessmark–Pelc
//! \[12\], *requires* it) and the physical **SINR** model (footnote 1, citing
//! Daum et al. \[10\]). This module makes the reception rule pluggable so the
//! harness can quantify what the abstraction costs (experiment E13):
//!
//! * [`ReceptionMode::Protocol`] — the paper's model (default);
//! * [`ReceptionMode::ProtocolCd`] — same topology, but a listener can
//!   distinguish *collision* (≥ 2 transmitting neighbors) from *silence*;
//!   delivered via [`Protocol::on_collision`](crate::Protocol::on_collision);
//! * [`ReceptionMode::Sinr`] — geometric reception: a listener hears the
//!   strongest transmitter `u` iff
//!   `P·d(u,v)^{-α} / (N + Σ_{w≠u} P·d(w,v)^{-α}) ≥ β`, independent of the
//!   graph (the graph still defines who *intends* to talk to whom; SINR
//!   decides who is *heard*, including capture from non-neighbors).
//!
//! # Position sourcing
//!
//! SINR reception is purely positional, so the one thing it needs is a
//! point per node. [`PositionSource`] names where those points come from:
//! a hand-shipped [`Snapshot`](PositionSource::Snapshot), the generating
//! family's own embedding ([`Geometry`](PositionSource::Geometry), resolved
//! by the API driver), or the **live** moving point set of a mobile
//! topology ([`Live`](PositionSource::Live), re-read from the
//! [`TopologyView`](crate::TopologyView) every step). Points are `[x, y, z]`
//! uniformly — 2D deployments carry `z = 0` — matching the geometry layer.
//!
//! # Near-field model
//!
//! Free-space path loss `d^{-α}` diverges at `d → 0`; physically, received
//! power saturates once the receiver enters the antenna near field. The
//! model clamps the effective distance at [`SinrConfig::near_field_floor`]
//! — [`NEAR_FIELD_FRACTION`] of the calibrated decode range — so the
//! near-field gain cap is *scale-invariant*: co-located distinct nodes see
//! a bounded `β·(1/NEAR_FIELD_FRACTION)^α` multiple of the noise floor
//! regardless of whether ranges are meters or kilometers (an absolute
//! clamp would make the cap blow up with the deployment scale).
//!
//! # One rule on both kernels
//!
//! Both kernels sum interference over every transmitter on the air. The
//! sparse kernel's spatial index (see [`Kernel`](crate::Kernel)) only finds
//! the listeners that may hear a transmitter and their strongest
//! candidate; it never truncates the sum, so the two kernels' reports are
//! identical.
//!
//! # Exact decisions
//!
//! A listener's outcome is the single comparison
//! `best / (N + (I − best)) ≥ β`, where `I` is the interference sum in
//! transmitter order, each term `P·powf(max(d, floor), −α)`. The sparse
//! kernel decides it without the `powf` sum whenever the answer
//! provably cannot differ:
//!
//! * Once per step it gathers the transmitters' coordinates into reused
//!   buffers. Per listener it sums an approximate interference `Ĩ` in any
//!   order over every transmitter, the terms of the exact sum. Each term
//!   uses the same effective distance `x = max(d, floor)` as the exact
//!   term. It is `P / x^k`, by multiplication, when `α` is an integer
//!   `k ≤ 8`, and the exact term itself otherwise.
//! * [`SinrConfig::decide_filtered`] compares the approximate denominator
//!   `N + (Ĩ − best)` with the critical one, `best / β`. It returns the
//!   outcome only when their distance exceeds an **absolute** bound on how
//!   far the exact denominator can be from the approximate one. The bound
//!   covers a per-term error of `2⁻⁴⁸` (libm `powf` within 8 ulps plus one
//!   rounding; `k − 1` multiplications and one division), the summation
//!   error of both sums (`T·ε` for `T` terms, any order), an absolute
//!   underflow allowance per term, and the rounding of the final
//!   subtraction, addition and division. It must be absolute: the
//!   near-field cap puts `best` up to about `10⁹ ×` the noise, so no fixed
//!   relative tolerance on the SINR is sound. It also returns no outcome
//!   unless every intermediate is a finite normal number.
//! * Otherwise the kernel computes the exact sum in transmitter order —
//!   the dense kernel's reduction order — and compares as before.
//!
//! The decision therefore equals the unfiltered one bit for bit, and
//! reports stay identical across kernels. The dense kernel is the
//! unfiltered reference: it always sums with `powf` in transmitter order.

use serde::{Deserialize, Serialize};

// The shared `[x, y, z]` distance lives beside the spatial index in the
// geometry layer; re-exported here so reception consumers need no direct
// `radionet_graph` import.
pub use radionet_graph::spatial::dist3;
use radionet_graph::spatial::position_bounds;

/// Where SINR reception reads node positions from.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PositionSource {
    /// An explicit owned snapshot: node `i` sits at `positions[i]`
    /// (`[x, y, z]`; 2D deployments set `z = 0`). The only source that
    /// hand-ships coordinates.
    Snapshot(Vec<[f64; 3]>),
    /// Resolve from the generating family's own embedding
    /// ([`Family::instantiate_positioned`]): the API driver replaces this
    /// with a [`Snapshot`](PositionSource::Snapshot) of the generated
    /// point set (static runs) or with [`Live`](PositionSource::Live)
    /// (mobility runs). The engine itself rejects an unresolved
    /// `Geometry` — it has no access to families.
    ///
    /// [`Family::instantiate_positioned`]:
    /// https://docs.rs/radionet-graph (families module)
    Geometry,
    /// Re-read from the topology view each step
    /// ([`TopologyView::positions`](crate::TopologyView::positions)) —
    /// the moving point set of a mobile topology. Requires a view that
    /// actually carries positions.
    Live,
}

impl PositionSource {
    /// An owned snapshot from 2D points (`z = 0`).
    pub fn snapshot_2d(points: impl IntoIterator<Item = (f64, f64)>) -> Self {
        PositionSource::Snapshot(points.into_iter().map(|(x, y)| [x, y, 0.0]).collect())
    }
}

impl From<Vec<[f64; 3]>> for PositionSource {
    fn from(points: Vec<[f64; 3]>) -> Self {
        PositionSource::Snapshot(points)
    }
}

impl From<Vec<(f64, f64)>> for PositionSource {
    fn from(points: Vec<(f64, f64)>) -> Self {
        PositionSource::snapshot_2d(points)
    }
}

/// Parameters of the SINR reception rule.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SinrConfig {
    /// Where node positions come from (see the module docs).
    pub positions: PositionSource,
    /// Path-loss exponent `α` (free space 2, urban 3–4).
    pub path_loss: f64,
    /// SINR threshold `β` for successful decoding, finite and positive
    /// ([`SinrConfig::validate`]). Below 1 a listener can decode one of two
    /// equally strong transmitters; both kernels pick the lower node index.
    pub threshold: f64,
    /// Ambient noise power `N > 0`.
    pub noise: f64,
    /// Uniform transmit power `P`.
    pub power: f64,
}

/// Relative error bound of one interference term of either sum against
/// `P·x^{-α}` at the same effective distance `x` (module docs, "Exact
/// decisions"): `2⁻⁴⁸`, which covers libm `powf` within 8 ulps plus the
/// multiplication by `P`, and the `k − 1` multiplications and one division
/// of the approximate term for `k ≤ MAX_FAST_EXPONENT`.
const TERM_ERROR: f64 = 1.0 / (1u64 << 48) as f64;

/// Absolute error allowance of one term, per unit of `max(P, 1)`, for
/// terms whose intermediates underflow or whose `x^k` overflows: both the
/// exact and the approximate term then lie in `[0, max(P, 1)·2⁻¹⁰²¹]`.
const TERM_UNDERFLOW: f64 = 4.0 * f64::MIN_POSITIVE;

/// The largest integer path-loss exponent whose approximate interference
/// term is multiplied out rather than computed with `powf`.
const MAX_FAST_EXPONENT: u32 = 8;

/// The most terms a filtered decision accepts; it keeps the summation
/// error bound `T·ε` below `2⁻²²`, where the bound's first-order
/// derivation holds.
const MAX_FILTERED_TERMS: usize = 1 << 30;

/// Effective-distance floor as a fraction of the calibrated decode range
/// (the near-field model; see the module docs). With the default `β = 2`,
/// `α = 3` calibration this caps the co-located gain at `2·10⁹ ×` the
/// noise floor — huge, but bounded and independent of the deployment
/// scale.
pub const NEAR_FIELD_FRACTION: f64 = 1e-3;

impl SinrConfig {
    /// A standard configuration for unit-disk-scale deployments: path loss
    /// `α = 3`, threshold `β = 2`, and noise calibrated so that an isolated
    /// transmitter is decodable up to distance ≈ `range`.
    ///
    /// # Panics
    ///
    /// Panics if `range` is not strictly positive.
    pub fn for_unit_range(positions: impl Into<PositionSource>, range: f64) -> Self {
        assert!(range > 0.0, "range must be positive");
        let path_loss = 3.0;
        let threshold = 2.0;
        let power = 1.0;
        // Decodable alone at `range`: P·range^{-α} / N = β.
        let noise = power * range.powf(-path_loss) / threshold;
        SinrConfig { positions: positions.into(), path_loss, threshold, noise, power }
    }

    /// The geometry-sourced standard configuration: positions come from
    /// the generating family's embedding, calibrated to unit interaction
    /// range (the radius of every geometric family is `O(1)`; unit disk
    /// and unit ball use exactly `1.0`). This is what `--reception sinr`
    /// and the SINR scenario cells use — no coordinates are hand-shipped.
    pub fn geometric() -> Self {
        Self::for_unit_range(PositionSource::Geometry, 1.0)
    }

    /// Structural validation: all physical parameters must be finite and
    /// strictly positive, otherwise the decode range — and with it the
    /// reception rule — is undefined.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("path_loss", self.path_loss),
            ("threshold", self.threshold),
            ("noise", self.noise),
            ("power", self.power),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("SINR {name} must be finite and positive, got {v}"));
            }
        }
        if let PositionSource::Snapshot(points) = &self.positions {
            if points.iter().any(|p| p.iter().any(|c| !c.is_finite())) {
                return Err("SINR position snapshot contains a non-finite coordinate".into());
            }
        }
        // The decode range sizes the sparse kernel's spatial index, which
        // pads the points' bounding box by one decode range on each side.
        let decode = self.decode_range();
        if !(decode.is_normal() && (2.0 * decode).is_finite()) {
            return Err(format!(
                "SINR decode range (P/(N·β))^(1/α) = {decode:e} must be a normal number whose \
                 double is finite"
            ));
        }
        if let PositionSource::Snapshot(points) = &self.positions {
            let (lo, hi) = position_bounds(points);
            let padded = |a: usize| {
                (lo[a] - decode).is_finite() && (hi[a] - lo[a] + 2.0 * decode).is_finite()
            };
            if !points.is_empty() && !(0..3).all(padded) {
                return Err(
                    "SINR position snapshot spans too far for its decode-range index".into()
                );
            }
        }
        Ok(())
    }

    /// The calibrated decode range: the largest distance at which an
    /// isolated transmitter still clears the threshold,
    /// `(P / (N·β))^{1/α}`. For [`SinrConfig::for_unit_range`] this is
    /// exactly the `range` argument. It is also the spatial-index cell
    /// width of the sparse kernel: any transmitter decodable by some
    /// listener sits within one cell ring of it.
    pub fn decode_range(&self) -> f64 {
        (self.power / (self.noise * self.threshold)).powf(1.0 / self.path_loss)
    }

    /// The near-field effective-distance floor:
    /// [`NEAR_FIELD_FRACTION`]` × `[`decode_range`](SinrConfig::decode_range).
    pub fn near_field_floor(&self) -> f64 {
        NEAR_FIELD_FRACTION * self.decode_range()
    }

    /// Received power at distance `d` under the near-field model (the
    /// effective distance is clamped below at the scale-relative
    /// [`near_field_floor`](SinrConfig::near_field_floor), never at an
    /// absolute constant).
    pub fn gain(&self, d: f64) -> f64 {
        self.gain_clamped(d, self.near_field_floor())
    }

    /// [`gain`](SinrConfig::gain) with a precomputed floor — the hot-loop
    /// form (the floor involves a `powf` better hoisted out of per-pair
    /// work).
    #[inline]
    pub fn gain_clamped(&self, d: f64, floor: f64) -> f64 {
        self.power * d.max(floor).powf(-self.path_loss)
    }

    /// The path-loss exponent as an integer `k ≤ 8`, if it is one: the
    /// approximate interference term is then `P / x^k` by multiplication
    /// (module docs, "Exact decisions").
    pub(crate) fn integer_path_loss(&self) -> Option<u32> {
        (1..=MAX_FAST_EXPONENT).find(|&k| self.path_loss == f64::from(k))
    }

    /// Decides a listener's reception, `best / (N + (I − best)) ≥ β`, from
    /// an approximate interference sum `approx_total` of `terms` terms
    /// instead of the exact sum `I` (module docs, "Exact decisions").
    ///
    /// Returns `Some(decodes)` only when the approximate denominator
    /// `N + (approx_total − best)` is farther from the critical
    /// denominator `best / β` than the derived bound on its distance from
    /// the exact one, and every intermediate is a finite normal number;
    /// the outcome then equals the exact comparison's. Returns `None`
    /// otherwise: the caller must sum exactly.
    pub(crate) fn decide_filtered(
        &self,
        best: f64,
        approx_total: f64,
        terms: usize,
    ) -> Option<bool> {
        let (noise, power) = (self.noise, self.power);
        // A finite 16·Ĩ and 16·Ĩ/P keep every exact and approximate term,
        // and `powf(x, −α)` itself, below f64::MAX / 15: no term of either
        // sum overflowed, and the fast `x^k` did not underflow.
        let in_range = best.is_normal()
            && approx_total.is_normal()
            && noise.is_normal()
            && power.is_normal()
            && (16.0 * approx_total).is_finite()
            && (16.0 * approx_total / power).is_finite();
        if !in_range || terms > MAX_FILTERED_TERMS {
            return None;
        }
        let t = terms as f64;
        let critical = best / self.threshold;
        let approx = noise + (approx_total - best);
        // |exact sum − Ĩ| ≤ 2(ρ + γ)·Ĩ + 2T·ω to first order (ρ per-term,
        // γ = T·ε summation, ω underflow allowance); the factor 3 absorbs
        // the higher-order terms. The last term bounds the rounding of both
        // denominators, of `best / β` and of this margin arithmetic.
        let bound = 3.0 * (TERM_ERROR + t * f64::EPSILON) * approx_total
            + 3.0 * t * power.max(1.0) * TERM_UNDERFLOW
            + 8.0 * f64::EPSILON * (noise + approx_total + best + critical);
        if !(critical.is_normal() && approx.is_normal() && bound.is_finite()) {
            return None;
        }
        let margin = critical - approx;
        if margin > bound {
            Some(true)
        } else if margin < -bound {
            Some(false)
        } else {
            None
        }
    }
}

/// This step's transmitter coordinates in transmitter order, one reused
/// buffer per axis: the input of the approximate interference sums of the
/// exact-decision filter (module docs, "Exact decisions").
#[derive(Clone, Debug, Default)]
pub(crate) struct TxCoords {
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
}

impl TxCoords {
    /// Gathers the positions of the transmitters `tx`, in order.
    pub(crate) fn gather(&mut self, pos: &[[f64; 3]], tx: &[u32]) {
        self.xs.clear();
        self.ys.clear();
        self.zs.clear();
        for &u in tx {
            let [x, y, z] = pos[u as usize];
            self.xs.push(x);
            self.ys.push(y);
            self.zs.push(z);
        }
    }

    /// The approximate interference at `at`: the sum, in no particular
    /// order, of every gathered transmitter's term. Each term takes the
    /// same effective distance as [`SinrConfig::gain_clamped`]; it is
    /// `P / x^k` by multiplication for an integer exponent `k ≤ 8`, and
    /// the exact term otherwise.
    pub(crate) fn interference(&self, cfg: &SinrConfig, floor: f64, at: &[f64; 3]) -> f64 {
        let (p, f) = (cfg.power, floor);
        match cfg.integer_path_loss() {
            Some(1) => self.fast_sum::<1>(at, p, f),
            Some(2) => self.fast_sum::<2>(at, p, f),
            Some(3) => self.fast_sum::<3>(at, p, f),
            Some(4) => self.fast_sum::<4>(at, p, f),
            Some(5) => self.fast_sum::<5>(at, p, f),
            Some(6) => self.fast_sum::<6>(at, p, f),
            Some(7) => self.fast_sum::<7>(at, p, f),
            Some(8) => self.fast_sum::<8>(at, p, f),
            _ => self.sum(at, |d| cfg.gain_clamped(d, floor)),
        }
    }

    /// [`sum`](TxCoords::sum) of the terms `P / x^K`, `x = max(d, floor)`,
    /// with `x^K` multiplied out (`K` is a constant so the product unrolls).
    fn fast_sum<const K: u32>(&self, at: &[f64; 3], p: f64, f: f64) -> f64 {
        self.sum(at, |d| {
            let x = d.max(f);
            let mut xk = x;
            for _ in 1..K {
                xk *= x;
            }
            p / xk
        })
    }

    /// The sum of `gain(distance)` over every gathered transmitter.
    fn sum(&self, at: &[f64; 3], gain: impl Fn(f64) -> f64) -> f64 {
        let term = |x: f64, y: f64, z: f64| gain(dist3(&[x, y, z], at));
        // Four independent accumulators keep the square roots and
        // divisions of consecutive terms in flight together.
        let (xs, ys, zs) =
            (self.xs.chunks_exact(4), self.ys.chunks_exact(4), self.zs.chunks_exact(4));
        let tail: f64 = (xs.remainder().iter().zip(ys.remainder()).zip(zs.remainder()))
            .map(|((&x, &y), &z)| term(x, y, z))
            .sum();
        let mut lanes = [0.0; 4];
        for ((x, y), z) in xs.zip(ys).zip(zs) {
            for (l, lane) in lanes.iter_mut().enumerate() {
                *lane += term(x[l], y[l], z[l]);
            }
        }
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
    }
}

/// The reception rule the engine applies each time-step.
#[derive(Clone, Debug, PartialEq, Default, Serialize, Deserialize)]
pub enum ReceptionMode {
    /// The paper's model (Section 1.1).
    #[default]
    Protocol,
    /// Protocol model with collision detection.
    ProtocolCd,
    /// Physical SINR reception (paper, footnote 1).
    Sinr(SinrConfig),
}

impl ReceptionMode {
    /// Short name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            ReceptionMode::Protocol => "protocol",
            ReceptionMode::ProtocolCd => "protocol+cd",
            ReceptionMode::Sinr(_) => "sinr",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_range_calibration() {
        let cfg = SinrConfig::for_unit_range(vec![(0.0, 0.0), (1.0, 0.0)], 1.0);
        // A lone transmitter at exactly distance 1 sits exactly at threshold.
        let sinr = cfg.gain(1.0) / cfg.noise;
        assert!((sinr - cfg.threshold).abs() < 1e-9);
        // Closer is decodable, farther is not.
        assert!(cfg.gain(0.5) / cfg.noise > cfg.threshold);
        assert!(cfg.gain(1.5) / cfg.noise < cfg.threshold);
        // The decode range recovers the calibration argument.
        assert!((cfg.decode_range() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gain_monotone() {
        let cfg = SinrConfig::for_unit_range(PositionSource::Snapshot(Vec::new()), 1.0);
        assert!(cfg.gain(0.1) > cfg.gain(0.2));
        assert!(cfg.gain(2.0) > cfg.gain(4.0));
    }

    #[test]
    fn near_field_clamp_is_scale_relative() {
        // Regression for the absolute 1e-6 clamp: co-located nodes must
        // see the *same* bounded gain-to-noise ratio at every deployment
        // scale, not a scale-dependent ~1e18 blowup.
        let small = SinrConfig::for_unit_range(PositionSource::Snapshot(Vec::new()), 1.0);
        let large = SinrConfig::for_unit_range(PositionSource::Snapshot(Vec::new()), 1000.0);
        let ratio_small = small.gain(0.0) / small.noise;
        let ratio_large = large.gain(0.0) / large.noise;
        assert!(
            (ratio_small / ratio_large - 1.0).abs() < 1e-9,
            "near-field cap must be scale-invariant: {ratio_small} vs {ratio_large}"
        );
        // The cap equals β·(1/NEAR_FIELD_FRACTION)^α exactly.
        let expected = small.threshold * NEAR_FIELD_FRACTION.powf(-small.path_loss);
        assert!((ratio_small / expected - 1.0).abs() < 1e-9);
        // And the floor saturates: below it, distance no longer matters.
        let floor = small.near_field_floor();
        assert_eq!(small.gain(0.0), small.gain(floor));
        assert_eq!(small.gain(floor / 2.0), small.gain(floor));
        assert!(small.gain(floor * 2.0) < small.gain(floor));
    }

    #[test]
    fn validate_catches_degenerate_parameters() {
        let good = SinrConfig::geometric();
        assert!(good.validate().is_ok());
        let mut bad = good.clone();
        bad.noise = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.path_loss = f64::NAN;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.positions = PositionSource::Snapshot(vec![[0.0, f64::INFINITY, 0.0]]);
        assert!(bad.validate().is_err());
        // Every parameter is fine on its own, but the decode range
        // (P/(N·β))^(1/α) = 5^100000 overflows, and with it the grid side.
        let mut bad = good;
        bad.path_loss = 1e-5;
        bad.noise = 0.1;
        assert!(bad.decode_range().is_infinite());
        assert!(bad.validate().unwrap_err().contains("decode range"));
        // Finite coordinates whose padded bounding box overflows.
        let far = SinrConfig::for_unit_range(vec![[-1e308, 0.0, 0.0], [1e308, 0.0, 0.0]], 1.0);
        assert!(far.validate().unwrap_err().contains("spans too far"));
    }

    #[test]
    fn filtered_decision_defers_at_the_threshold() {
        let cfg = SinrConfig::geometric();
        // A lone transmitter exactly at the decode range: SINR = β exactly.
        let best = cfg.threshold * cfg.noise;
        assert_eq!(cfg.decide_filtered(best, best, 1), None);
        // One ulp of approximate interference either way changes nothing.
        assert_eq!(cfg.decide_filtered(best, best.next_up(), 1), None);
        assert_eq!(cfg.decide_filtered(best, best.next_down(), 1), None);
    }

    #[test]
    fn filtered_decision_settles_clear_cases() {
        let cfg = SinrConfig::geometric();
        let (n, beta) = (cfg.noise, cfg.threshold);
        // A lone strong link, even at the near-field cap (best ≈ 10⁹·N).
        for best in [10.0 * beta * n, cfg.gain(0.0)] {
            assert_eq!(cfg.decide_filtered(best, best, 1), Some(true));
            assert_eq!(cfg.decide_filtered(best, best * (1.0 + 1e-9), 500), Some(true));
        }
        // Overwhelming interference drowns a decodable signal.
        let best = 4.0 * beta * n;
        assert_eq!(cfg.decide_filtered(best, best + 1e6 * n, 1000), Some(false));
        // Just past the boundary on either side, with a margin far above
        // the rounding bound, both outcomes are settled.
        let critical = best / beta;
        let at = |denominator: f64| best + denominator - n;
        assert_eq!(cfg.decide_filtered(best, at(critical * (1.0 - 1e-9)), 64), Some(true));
        assert_eq!(cfg.decide_filtered(best, at(critical * (1.0 + 1e-9)), 64), Some(false));
        // Within the bound the exact sum must decide.
        assert_eq!(cfg.decide_filtered(best, at(critical * (1.0 + 1e-15)), 64), None);
    }

    #[test]
    fn filtered_decision_rejects_non_finite_and_non_normal_inputs() {
        let cfg = SinrConfig::geometric();
        let best = 10.0;
        for bad in [f64::NAN, f64::INFINITY, 0.0, f64::MIN_POSITIVE / 2.0, f64::MAX] {
            assert_eq!(cfg.decide_filtered(bad, best, 1), None, "best {bad}");
            assert_eq!(cfg.decide_filtered(best, bad, 1), None, "total {bad}");
        }
        let mut tiny_noise = cfg.clone();
        tiny_noise.noise = f64::MIN_POSITIVE / 4.0;
        assert_eq!(tiny_noise.decide_filtered(best, best, 1), None);
        // A total this far above the power means some term overflowed.
        let mut weak = cfg;
        weak.power = f64::MIN_POSITIVE;
        assert_eq!(weak.decide_filtered(best, 1e300, 1), None);
    }

    #[test]
    fn approximate_interference_tracks_the_exact_sum() {
        let pts: Vec<[f64; 3]> =
            (0..37).map(|i| [(i * 7 % 11) as f64 * 0.3, (i * 5 % 13) as f64 * 0.2, 0.0]).collect();
        let tx: Vec<u32> = (0..37).step_by(2).collect();
        let mut coords = TxCoords::default();
        coords.gather(&pts, &tx);
        for path_loss in [2.0, 3.0, 4.0, 2.5, 9.0] {
            let mut cfg = SinrConfig::for_unit_range(pts.clone(), 1.0);
            cfg.path_loss = path_loss;
            let fast = [2.0, 3.0, 4.0].contains(&path_loss).then_some(path_loss as u32);
            assert_eq!(cfg.integer_path_loss(), fast);
            let floor = cfg.near_field_floor();
            let at = pts[1];
            let exact = tx
                .iter()
                .fold(0.0, |s, &t| s + cfg.gain_clamped(dist3(&pts[t as usize], &at), floor));
            let approx = coords.interference(&cfg, floor, &at);
            assert!((approx / exact - 1.0).abs() < 1e-13, "alpha {path_loss}");
        }
    }

    /// The filter against the exact comparison on random 3D layouts whose
    /// threshold is set to the exact SINR times `1 + rel`, from an exact
    /// tie out to a margin of 10⁻⁶: every settled decision must equal the
    /// exact one, and the wide margins must settle.
    #[test]
    fn filtered_decisions_equal_exact_ones_near_the_threshold() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(19);
        let (mut settled, mut wide) = (0, 0);
        for case in 0..1400 {
            let path_loss = [1.0, 2.0, 2.5, 3.0, 4.0, 5.5, 8.0][case % 7];
            let terms = rng.gen_range(1..160usize);
            let side = rng.gen_range(0.2..12.0);
            let pts: Vec<[f64; 3]> =
                (0..=terms).map(|_| [(); 3].map(|_| rng.gen::<f64>() * side)).collect();
            let mut cfg = SinrConfig::for_unit_range(pts.clone(), 1.0);
            cfg.path_loss = path_loss;
            let floor = cfg.near_field_floor();
            let tx: Vec<u32> = (1..=terms as u32).collect();
            let mut coords = TxCoords::default();
            coords.gather(&pts, &tx);
            let at = pts[0];
            let gains = tx.iter().map(|&u| cfg.gain_clamped(dist3(&pts[u as usize], &at), floor));
            let (total, best) = gains.fold((0.0, 0.0f64), |(s, b), g| (s + g, b.max(g)));
            let approx = coords.interference(&cfg, floor, &at);
            let sinr = best / (cfg.noise + (total - best));
            for rel in [0.0, 1e-16, -1e-16, 1e-13, -1e-13, 1e-10, -1e-10, 1e-6, -1e-6] {
                cfg.threshold = sinr * (1.0 + rel);
                let exact = best / (cfg.noise + (total - best)) >= cfg.threshold;
                if let Some(decodes) = cfg.decide_filtered(best, approx, terms) {
                    assert_eq!(decodes, exact, "case {case}, alpha {path_loss}, rel {rel}");
                    settled += 1;
                    wide += usize::from(rel.abs() == 1e-6);
                }
            }
        }
        assert_eq!(wide, 2 * 1400, "a 10⁻⁶ margin must always settle");
        assert!(settled > 3 * 1400, "only {settled} decisions settled");
    }

    /// Summation order matters most when a near-field term dwarfs many far
    /// ones: in transmitter order each far term is below half an ulp of the
    /// running sum and vanishes, while the approximate sum's other lanes
    /// collect them. With the threshold between the two outcomes the filter
    /// must defer to the exact sum.
    #[test]
    fn summation_order_differences_stay_inside_the_bound() {
        let far = 1000;
        let mut pts = vec![[0.0; 3], [0.0; 3]];
        pts.extend((0..far).map(|i| {
            let angle = i as f64 * std::f64::consts::TAU / far as f64;
            [272.0 * angle.cos(), 272.0 * angle.sin(), 0.0]
        }));
        let mut cfg = SinrConfig::for_unit_range(pts.clone(), 1.0);
        let floor = cfg.near_field_floor();
        let tx: Vec<u32> = (1..pts.len() as u32).collect();
        let mut coords = TxCoords::default();
        coords.gather(&pts, &tx);
        let at = pts[0];
        let gains = tx.iter().map(|&u| cfg.gain_clamped(dist3(&pts[u as usize], &at), floor));
        let (total, best) = gains.fold((0.0, 0.0f64), |(s, b), g| (s + g, b.max(g)));
        assert_eq!(total, best, "every far term vanishes in transmitter order");
        let approx = coords.interference(&cfg, floor, &at);
        let gap = approx - total;
        assert!(gap > 1e-5, "the lanes keep the far terms: gap {gap}");
        // Critical denominator halfway: the exact sum decodes, Ĩ would not.
        cfg.threshold = best / (cfg.noise + gap / 2.0);
        assert!(best / (cfg.noise + (total - best)) >= cfg.threshold);
        assert_eq!(cfg.decide_filtered(best, approx, tx.len()), None);
    }

    #[test]
    fn position_source_conversions() {
        let from_2d: PositionSource = vec![(1.0, 2.0)].into();
        assert_eq!(from_2d, PositionSource::Snapshot(vec![[1.0, 2.0, 0.0]]));
        let from_3d: PositionSource = vec![[1.0, 2.0, 3.0]].into();
        assert_eq!(from_3d, PositionSource::Snapshot(vec![[1.0, 2.0, 3.0]]));
    }

    #[test]
    fn dist3_covers_both_dimensions() {
        assert!((dist3(&[0.0, 0.0, 0.0], &[3.0, 4.0, 0.0]) - 5.0).abs() < 1e-12);
        assert!((dist3(&[0.0, 0.0, 0.0], &[1.0, 2.0, 2.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn names() {
        assert_eq!(ReceptionMode::Protocol.name(), "protocol");
        assert_eq!(ReceptionMode::ProtocolCd.name(), "protocol+cd");
        assert_eq!(ReceptionMode::Sinr(SinrConfig::geometric()).name(), "sinr");
    }

    #[test]
    fn default_is_protocol() {
        assert_eq!(ReceptionMode::default(), ReceptionMode::Protocol);
    }

    #[test]
    fn serde_round_trips_every_source() {
        let configs = [
            SinrConfig::for_unit_range(vec![(0.0, 0.0), (0.5, 0.25)], 1.0),
            SinrConfig::geometric(),
            SinrConfig::for_unit_range(PositionSource::Live, 2.0),
        ];
        for cfg in configs {
            let mode = ReceptionMode::Sinr(cfg);
            let json = serde_json::to_string(&mode).unwrap();
            let back: ReceptionMode = serde_json::from_str(&json).unwrap();
            assert_eq!(back, mode);
        }
    }
}
