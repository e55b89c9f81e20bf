//! Scenario-level kernel equivalence: every (protocol × scenario) cell of
//! the catalogue must produce the identical [`CellResult`] under the
//! sparse and dense kernels — full `Compete` broadcast, leader
//! election, and radio MIS, under churn, partitions, jamming, staggered
//! wake-up, and mobility.
//!
//! This is the end-to-end counterpart of `radionet-sim`'s differential
//! proptests: it exercises the real protocol stack (MIS → partition → ICP →
//! propagation rounds, with all the `Wake` hints those implementations
//! return) over `DynamicTopology`'s batch change feed and the mobility
//! views' tick clocks. Results are compared after
//! [`SimStats::kernel_invariant`] zeroes the kernel-dependent counters
//! (scheduler pops, skipped silent steps) — everything else must match
//! byte-for-byte.

use proptest::prelude::*;
use radionet_api::Driver;
use radionet_scenario::catalogue::Scenario;
use radionet_scenario::runner::{
    cell_result_from_report, spec_for_cell, CellResult, CellSpec, SweepConfig,
};
use radionet_sim::{Kernel, ReceptionMode};

fn cells(sizes: Vec<usize>, seeds: u64, base_seed: u64) -> Vec<CellSpec> {
    SweepConfig::catalogue(sizes, seeds, base_seed).cells()
}

/// Runs the cell under one kernel and zeroes the kernel-dependent stats
/// counters so whole results compare across kernels.
fn run_invariant(spec: &CellSpec, kernel: Kernel) -> CellResult {
    let report = Driver::standard().run(&spec_for_cell(spec, kernel)).expect("catalogue cell");
    let mut r = cell_result_from_report(spec, &report);
    r.stats = r.stats.kernel_invariant();
    r
}

/// The whole catalogue, one small size, both kernels, cell by cell.
#[test]
fn catalogue_cells_agree_across_kernels() {
    for spec in cells(vec![36], 1, 0xbeef) {
        let sparse = run_invariant(&spec, Kernel::Sparse);
        let dense = run_invariant(&spec, Kernel::Dense);
        assert_eq!(sparse, dense, "kernel divergence in cell {:?}", spec.scenario.name);
    }
}

/// The mobility scenarios (topology derived from a moving point set): the
/// sparse active-set kernel, clock jumps included, must reproduce the
/// dense reference bit-for-bit on `MobileTopology` too.
#[test]
fn mobility_cells_agree_across_kernels() {
    let config = SweepConfig {
        scenarios: Scenario::mobility_catalogue(),
        sizes: vec![36],
        seeds: 1,
        base_seed: 0x30b,
    };
    for spec in config.cells() {
        let sparse = run_invariant(&spec, Kernel::Sparse);
        let dense = run_invariant(&spec, Kernel::Dense);
        assert_eq!(sparse, dense, "kernel divergence in mobility cell {:?}", spec.scenario.name);
    }
}

/// Collision-detection reception over the dynamic scenarios (the catalogue
/// presets are all protocol-model; clone them onto CD).
#[test]
fn catalogue_cells_agree_under_collision_detection() {
    let mut specs = cells(vec![36], 1, 0x0cd);
    for spec in &mut specs {
        spec.scenario.reception = ReceptionMode::ProtocolCd;
    }
    for spec in specs {
        let sparse = run_invariant(&spec, Kernel::Sparse);
        let dense = run_invariant(&spec, Kernel::Dense);
        assert_eq!(sparse, dense, "CD kernel divergence in cell {:?}", spec.scenario.name);
    }
}

/// Streaming-traffic specs through the full façade: every traffic kind,
/// under churn and under jamming, must produce the identical outcome,
/// kernel-invariant stats, and RNG fingerprint across the two kernels —
/// the end-to-end counterpart of `radionet-sim`'s
/// injection-schedule proptest.
#[test]
fn traffic_cells_agree_across_kernels() {
    use radionet_api::{Driver, Dynamics, RunSpec, TrafficSpec};
    use radionet_graph::families::Family;

    let driver = Driver::standard();
    for task in ["traffic.gossip", "traffic.unicast", "traffic.multicast"] {
        for dynamics in ["churn", "jamming"] {
            let spec = |kernel| {
                RunSpec::new(task, Family::Grid, 36)
                    .with_seed(0x7a)
                    .with_traffic(TrafficSpec::default())
                    .with_dynamics(Dynamics::preset(dynamics).unwrap())
                    .with_kernel(kernel)
            };
            let sparse = driver.run(&spec(Kernel::Sparse)).unwrap();
            let dense = driver.run(&spec(Kernel::Dense)).unwrap();
            let key = |r: &radionet_api::RunReport| {
                (r.outcome, r.traffic, r.stats.kernel_invariant(), r.rng_fingerprint)
            };
            assert_eq!(key(&sparse), key(&dense), "{task} under {dynamics}: dense disagrees");
            assert!(
                sparse.traffic.is_some_and(|t| t.injected > 0),
                "{task} under {dynamics}: the workload injected nothing — vacuous cell"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random seeds × random catalogue entries at a slightly larger size.
    #[test]
    fn random_cells_agree(base_seed in 0u64..10_000, idx in 0usize..11, rep in 0u64..3) {
        let catalogue = Scenario::catalogue();
        let scenario = catalogue[idx % catalogue.len()].clone();
        let config = SweepConfig {
            scenarios: vec![scenario],
            sizes: vec![48],
            seeds: rep + 1,
            base_seed,
        };
        let spec = config.cells().into_iter().last().unwrap();
        let sparse = run_invariant(&spec, Kernel::Sparse);
        let dense = run_invariant(&spec, Kernel::Dense);
        prop_assert_eq!(&sparse, &dense);
    }
}
