//! Shared experiment context: instantiated graph cases and scale knobs.

use radionet_graph::families::Family;
use radionet_graph::independent_set::alpha_bounds;
use radionet_graph::traversal;
use radionet_graph::Graph;
use radionet_sim::NetInfo;

/// Experiment scale: `Quick` for CI/tests, `Full` for the recorded tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small sizes and few seeds (seconds).
    Quick,
    /// The sizes reported in EXPERIMENTS.md (minutes).
    Full,
}

impl Scale {
    /// Reads `RADIONET_SCALE`: `quick`, `full`, or unset (meaning `full`).
    ///
    /// # Errors
    ///
    /// Any other value: a typo must not silently select the multi-minute
    /// Full scale.
    pub fn from_env() -> Result<Self, String> {
        let value = std::env::var_os("RADIONET_SCALE");
        Scale::parse(value.as_ref().map(|v| v.to_string_lossy()).as_deref())
    }

    /// [`Scale::from_env`] on a given value (`None` = unset).
    fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            Some("quick") => Ok(Scale::Quick),
            None | Some("full") => Ok(Scale::Full),
            Some(other) => {
                Err(format!("RADIONET_SCALE must be \"quick\" or \"full\", not {other:?}"))
            }
        }
    }

    /// Graph sizes for scaling sweeps.
    pub fn sizes(self) -> &'static [usize] {
        match self {
            Scale::Quick => &[64, 256],
            Scale::Full => &[64, 256, 1024, 4096],
        }
    }

    /// Larger sweep for the cheap (abstract, non-simulated) experiments.
    pub fn sizes_abstract(self) -> &'static [usize] {
        match self {
            Scale::Quick => &[256, 1024],
            Scale::Full => &[256, 1024, 4096, 16384],
        }
    }

    /// Seeds per configuration.
    pub fn seeds(self) -> u64 {
        match self {
            Scale::Quick => 2,
            Scale::Full => 5,
        }
    }

    /// Trials for cheap statistical experiments.
    pub fn trials(self) -> usize {
        match self {
            Scale::Quick => 40,
            Scale::Full => 200,
        }
    }
}

/// A fully characterized experiment instance.
#[derive(Clone, Debug)]
pub struct GraphCase {
    /// The family it came from.
    pub family: Family,
    /// Requested size (actual may be rounded by the family).
    pub n: usize,
    /// Seed used to instantiate.
    pub seed: u64,
    /// The graph.
    pub graph: Graph,
    /// Exact-or-bracketed network parameters ([`NetInfo`]).
    pub info: NetInfo,
}

impl GraphCase {
    /// Instantiates and characterizes a case.
    pub fn new(family: Family, n: usize, seed: u64) -> Self {
        let graph = family.instantiate(n, seed);
        let info = NetInfo::exact(&graph);
        GraphCase { family, n: graph.n(), seed, graph, info }
    }

    /// The diameter from [`NetInfo`].
    pub fn d(&self) -> u32 {
        self.info.d
    }

    /// The α estimate from [`NetInfo`].
    pub fn alpha(&self) -> f64 {
        self.info.alpha
    }
}

/// The growth-bounded families used by the headline broadcast experiment.
pub fn growth_bounded_families(scale: Scale) -> Vec<Family> {
    match scale {
        Scale::Quick => vec![Family::Grid, Family::UnitDisk],
        Scale::Full => vec![
            Family::Grid,
            Family::UnitDisk,
            Family::QuasiUnitDisk,
            Family::UnitBall3,
            Family::GeometricRadio,
        ],
    }
}

/// The general-graph (large-α) families.
pub fn general_families(scale: Scale) -> Vec<Family> {
    match scale {
        Scale::Quick => vec![Family::Gnp],
        Scale::Full => vec![Family::Gnp, Family::RandomTree, Family::Spider, Family::Hypercube],
    }
}

/// Exact-ish α for abstract experiments (bigger budget than `NetInfo`).
pub fn alpha_estimate(g: &Graph) -> f64 {
    let budget = match g.n() {
        0..=64 => 2_000_000,
        65..=200 => 100_000,
        _ => 2_000,
    };
    alpha_bounds(g, budget).estimate()
}

/// Diameter helper (exact, see `traversal::diameter`).
pub fn diameter(g: &Graph) -> u32 {
    traversal::diameter(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_characterizes() {
        let case = GraphCase::new(Family::Grid, 64, 1);
        assert_eq!(case.n, 64);
        assert_eq!(case.d(), 14);
        assert!((case.alpha() - 32.0).abs() < 1.0);
    }

    #[test]
    fn scale_parses_only_quick_and_full() {
        assert_eq!(Scale::parse(Some("quick")), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("full")), Ok(Scale::Full));
        assert_eq!(Scale::parse(None), Ok(Scale::Full));
        for typo in ["qiuck", "Quick", "", "fast"] {
            let err = Scale::parse(Some(typo)).unwrap_err();
            assert!(err.contains("quick") && err.contains(&format!("{typo:?}")), "{err}");
        }
    }

    #[test]
    fn scale_accessors() {
        assert!(Scale::Quick.sizes().len() < Scale::Full.sizes().len());
        assert!(Scale::Quick.seeds() < Scale::Full.seeds());
        assert!(!growth_bounded_families(Scale::Quick).is_empty());
        assert!(!general_families(Scale::Quick).is_empty());
    }
}
