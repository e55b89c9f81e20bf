//! The Section 3 analysis quantities.
//!
//! For a fixed node `v` and a computed MIS, let `m_i` be the number of MIS
//! nodes at hop distance exactly `i` from `v`. The paper defines
//!
//! * `T_β = Σ_i i·m_i·e^{-iβ}` (numerator),
//! * `B_β = Σ_i m_i·e^{-iβ}` (denominator),
//! * `S_β = T_β / B_β` — and Lemma 3 bounds the expected distance from `v`
//!   to its cluster center under `Partition(β, MIS)` by `5·S_β`;
//! * `s_j = Σ_{i=0}^{2^{j+1}} m_i` (prefix counts),
//! * `b = 2^{⌈log₂ log_D α⌉ + 2}` (so `2 ≤ 4·log_D α ≤ b ≤ 8·log_D α`);
//! * the **Lemma 4 condition** at scale `j`: for all `r ≥ 8`,
//!   `s_{j+log b+r} ≤ 2^{b·2^{r−1}} · s_{j+log b}` — when it holds,
//!   `S_{2^{-j}} = O(b·2^j)`;
//! * **Lemma 5**: at most `0.02·log D` scales `j` in
//!   `[0.01·log D, 0.1·log D]` violate the condition.
//!
//! Everything here is exact arithmetic on the `m_i` profile; experiments
//! E5–E7 evaluate these on real MIS outputs.

use radionet_graph::{traversal, Graph, NodeId};

/// The distance profile `m_i`: `profile[i]` = number of center-set nodes at
/// hop distance exactly `i` from the anchor node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MisProfile {
    /// `m_i` for `i = 0..=max_finite_distance`.
    pub m: Vec<u64>,
}

impl MisProfile {
    /// Computes the profile of `centers` around `v` (unreachable centers are
    /// excluded, matching the paper's connected setting).
    pub fn new(g: &Graph, v: NodeId, centers: &[NodeId]) -> Self {
        let dist = traversal::bfs_distances(g, v);
        let mut m = Vec::new();
        for &c in centers {
            let d = dist[c.index()];
            if d == traversal::UNREACHABLE {
                continue;
            }
            let d = d as usize;
            if m.len() <= d {
                m.resize(d + 1, 0);
            }
            m[d] += 1;
        }
        MisProfile { m }
    }

    /// Builds a profile directly from counts (for tests and synthetic
    /// experiments).
    pub fn from_counts(m: Vec<u64>) -> Self {
        MisProfile { m }
    }

    /// Total number of (reachable) centers.
    pub fn total(&self) -> u64 {
        self.m.iter().sum()
    }

    /// `T_β = Σ i·m_i·e^{-iβ}`.
    pub fn t_beta(&self, beta: f64) -> f64 {
        self.m
            .iter()
            .enumerate()
            .map(|(i, &mi)| i as f64 * mi as f64 * (-(i as f64) * beta).exp())
            .sum()
    }

    /// `B_β = Σ m_i·e^{-iβ}`.
    pub fn b_beta(&self, beta: f64) -> f64 {
        self.m.iter().enumerate().map(|(i, &mi)| mi as f64 * (-(i as f64) * beta).exp()).sum()
    }

    /// `S_β = T_β / B_β`; `0` for an empty profile.
    pub fn s_beta(&self, beta: f64) -> f64 {
        let b = self.b_beta(beta);
        if b == 0.0 {
            0.0
        } else {
            self.t_beta(beta) / b
        }
    }

    /// Prefix count `s_j = Σ_{i=0}^{min(2^{j+1}, end)} m_i`.
    ///
    /// Saturates at [`total`](Self::total) for large `j` (distances beyond
    /// the profile contribute nothing), exactly as in the paper where
    /// `s_{log D} ≤ α`.
    pub fn s_prefix(&self, j: i64) -> u64 {
        if j < 0 {
            // 2^{j+1} < 1 ⇒ only i = 0 contributes (i ranges over integers).
            return self.m.first().copied().unwrap_or(0);
        }
        let cutoff = 1u128 << (j + 1).min(100);
        self.m
            .iter()
            .enumerate()
            .take_while(|(i, _)| (*i as u128) <= cutoff)
            .map(|(_, &mi)| mi)
            .sum()
    }

    /// The Lemma 4 expansion condition at scale `j` with parameter `b`:
    /// `∀ r ∈ [8, …): s_{j+log b+r} ≤ 2^{b·2^{r−1}} · s_{j+log b}`.
    ///
    /// Checked in log-space to avoid overflow; once `b·2^{r−1}` exceeds
    /// `log₂(total/base)` the condition is trivially true, so only small `r`
    /// need inspection.
    ///
    /// **Note (reported by experiment E6):** with the paper's `r ≥ 8`, a
    /// violation requires a count ratio above `2^{b·2⁷} ≥ 2^{256}`, so the
    /// strict condition cannot fail for any graph that fits in memory — the
    /// asymptotic constants are that loose. Use
    /// [`expansion_condition_holds`](Self::expansion_condition_holds) with a
    /// smaller `r_min` to probe the same structure at simulation scale.
    pub fn lemma4_condition_holds(&self, j: i64, b: u64) -> bool {
        self.expansion_condition_holds(j, b, 8)
    }

    /// The Lemma 4 condition generalized to start at `r ≥ r_min` (the paper
    /// fixes `r_min = 8`; scaled-down variants make the predicate
    /// non-trivial at feasible `n`).
    pub fn expansion_condition_holds(&self, j: i64, b: u64, r_min: i64) -> bool {
        let log_b = (b as f64).log2().round() as i64;
        let base = self.s_prefix(j + log_b).max(1);
        let total = self.total().max(1);
        for r in r_min..64 {
            let exponent = (b as f64) * 2f64.powi((r - 1) as i32);
            // If even `total` can't violate it, no larger r can either
            // (the exponent grows while prefixes saturate).
            if (total as f64).log2() - (base as f64).log2() <= exponent {
                break;
            }
            let big = self.s_prefix(j + log_b + r);
            if (big as f64).log2() - (base as f64).log2() > exponent {
                return false;
            }
        }
        true
    }

    /// The Lemma 4 **conclusion** at scale `j`: `S_{2^{-j}} ≤ c · b · 2^j`.
    ///
    /// Theorem 2 promises this holds for ≥ 0.77 of the scales in the paper's
    /// range (with `c` absorbed into the `O(·)`); experiment E5 measures the
    /// fraction with an explicit `c`.
    pub fn conclusion_holds(&self, j: i64, b: u64, c: f64) -> bool {
        let beta = 2f64.powi(-(j as i32));
        self.s_beta(beta) <= c * b as f64 * 2f64.powi(j as i32)
    }
}

/// The paper's `b = 2^{⌈log₂ log_D α⌉ + 2}`: an integer power of two with
/// `2 ≤ 4·log_D α ≤ b ≤ 8·log_D α`.
///
/// # Panics
///
/// Panics if `d < 2` or `alpha < 1`.
pub fn b_param(d: u32, alpha: f64) -> u64 {
    assert!(d >= 2, "b_param needs D >= 2");
    assert!(alpha >= 1.0, "alpha must be >= 1");
    let log_d_alpha = (alpha.max(2.0).ln() / (d as f64).ln()).max(1.0);
    let e = log_d_alpha.log2().ceil() as i64 + 2;
    1u64 << e.clamp(1, 62)
}

/// The scale range the paper randomizes over: integers `j` with
/// `lo_frac·log D ≤ j ≤ hi_frac·log D` (paper: `0.01` and `0.1`; the harness
/// widens the fractions at simulation scale, as calibrated by experiment E12).
pub fn j_range(d: u32, lo_frac: f64, hi_frac: f64) -> std::ops::RangeInclusive<i64> {
    let log_d = (d.max(2) as f64).log2();
    let lo = (lo_frac * log_d).ceil() as i64;
    let hi = (hi_frac * log_d).floor() as i64;
    lo.max(1)..=hi.max(lo.max(1))
}

/// Counts the scales `j` in `range` where the Lemma 4 condition **fails**
/// (the "bad" `j` of Lemma 5, which proves there are at most `0.02·log D`).
pub fn bad_j_count(profile: &MisProfile, b: u64, range: std::ops::RangeInclusive<i64>) -> usize {
    range.filter(|&j| !profile.lemma4_condition_holds(j, b)).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_graph::generators;
    use radionet_graph::independent_set::greedy_mis_min_degree;

    #[test]
    fn profile_on_path() {
        // Path 0-1-2-3-4, centers {0, 2, 4}, anchor 2.
        let g = generators::path(5);
        let p = MisProfile::new(&g, g.node(2), &[g.node(0), g.node(2), g.node(4)]);
        assert_eq!(p.m, vec![1, 0, 2]);
        assert_eq!(p.total(), 3);
    }

    #[test]
    fn t_b_s_formulas() {
        let p = MisProfile::from_counts(vec![1, 2, 4]);
        let beta = 0.5;
        let e = |x: f64| (-x).exp();
        let t = 0.0 + 1.0 * 2.0 * e(0.5) + 2.0 * 4.0 * e(1.0);
        let b = 1.0 + 2.0 * e(0.5) + 4.0 * e(1.0);
        assert!((p.t_beta(beta) - t).abs() < 1e-12);
        assert!((p.b_beta(beta) - b).abs() < 1e-12);
        assert!((p.s_beta(beta) - t / b).abs() < 1e-12);
    }

    #[test]
    fn s_beta_small_when_center_nearby() {
        // A center at distance 0 dominates for large beta.
        let p = MisProfile::from_counts(vec![1, 0, 0, 0, 1000]);
        assert!(p.s_beta(5.0) < 0.1);
        // For tiny beta the mass at distance 4 dominates: S → ~4.
        assert!(p.s_beta(0.001) > 3.5);
    }

    #[test]
    fn prefix_counts_saturate() {
        let p = MisProfile::from_counts(vec![1, 1, 1, 1, 1]);
        assert_eq!(p.s_prefix(0), 3); // i ≤ 2
        assert_eq!(p.s_prefix(1), 5); // i ≤ 4
        assert_eq!(p.s_prefix(50), 5);
        assert_eq!(p.s_prefix(-3), 1);
    }

    #[test]
    fn b_param_brackets() {
        for (d, alpha) in [(16u32, 256.0f64), (100, 10.0), (1000, 1e6), (4, 4.0)] {
            let b = b_param(d, alpha) as f64;
            let lda = (alpha.max(2.0).ln() / (d as f64).ln()).max(1.0);
            assert!(b >= 2.0, "b = {b}");
            assert!(b >= 4.0 * lda - 1e-9, "b {b} < 4 log_D α {lda}");
            assert!(b <= 8.0 * lda + 1e-9, "b {b} > 8 log_D α {lda}");
        }
    }

    #[test]
    fn flat_profile_has_no_bad_j() {
        // Slow growth: s roughly doubles per scale — far below the doubly
        // exponential allowance.
        let m: Vec<u64> = (0..64).map(|i| (i as u64) + 1).collect();
        let p = MisProfile::from_counts(m);
        assert_eq!(bad_j_count(&p, 8, 1..=10), 0);
    }

    #[test]
    fn strict_condition_vacuous_at_feasible_scale() {
        // Violating the r ≥ 8 condition needs a prefix ratio above 2^{b·2⁷}
        // ≥ 2^{256}, impossible for u64 counts: even the most explosive
        // profile satisfies the paper's literal condition.
        let mut m = vec![0u64; (1 << 13) + 1];
        m[0] = 1;
        *m.last_mut().unwrap() = u64::MAX / 2;
        let p = MisProfile::from_counts(m);
        for j in 0..8 {
            assert!(p.lemma4_condition_holds(j, 2));
        }
    }

    #[test]
    fn scaled_condition_detects_explosions() {
        // With r_min = 1 the same structure is visible at feasible scale:
        // a spike of 2^40 centers right outside the base prefix violates
        // s_{j+log b+r} ≤ 2^{b·2^{r-1}}·s_{j+log b} at r = 1, b = 2
        // (allowance 2^2 = 4 < 2^40).
        let mut m = vec![0u64; 70];
        m[0] = 1;
        m[64] = 1 << 40; // inside cutoff 2^{j+1+log b+r} for j=3,log b=1,r=1? 2^6=64 ✓
        let p = MisProfile::from_counts(m);
        assert!(!p.expansion_condition_holds(3, 2, 1));
        // A flat profile still passes the scaled check.
        let flat = MisProfile::from_counts((0..70).map(|i| i + 1).collect());
        assert!(flat.expansion_condition_holds(3, 2, 1));
    }

    #[test]
    fn conclusion_check_matches_s_beta() {
        let p = MisProfile::from_counts(vec![1, 2, 4, 8]);
        // S_{2^{-1}} with c huge always holds; with c = 0 never (S > 0 here).
        assert!(p.conclusion_holds(1, 2, 100.0));
        assert!(!p.conclusion_holds(1, 2, 0.0));
    }

    #[test]
    fn lemma5_bound_on_real_graphs() {
        // On genuine MIS profiles the number of bad scales must satisfy the
        // proof's bound q < log α / (16 b).
        for g in [
            generators::grid2d(16, 16),
            generators::spider(16, 16),
            generators::random_tree(256, &mut rand::rngs::mock::StepRng::new(7, 11)),
        ] {
            let mis = greedy_mis_min_degree(&g);
            let d = radionet_graph::traversal::diameter(&g);
            let alpha = mis.len() as f64; // lower bound suffices for a sanity check
            let b = b_param(d.max(2), alpha);
            let range = j_range(d.max(2), 0.01, 0.9);
            let anchor = g.node(0);
            let p = MisProfile::new(&g, anchor, &mis);
            let bad = bad_j_count(&p, b, range) as f64;
            let allowed = ((alpha.max(2.0)).log2() / (16.0 * b as f64)).max(0.0);
            assert!(bad <= allowed.ceil(), "{g:?}: bad {bad} > allowed {allowed}");
        }
    }

    #[test]
    fn j_range_widens_with_d() {
        let r = j_range(1 << 20, 0.01, 0.1);
        assert_eq!(*r.start(), 1);
        assert_eq!(*r.end(), 2);
        let r2 = j_range(16, 0.15, 0.85);
        assert!(r2.contains(&1));
    }
}
