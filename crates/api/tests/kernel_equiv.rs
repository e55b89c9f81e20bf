//! Scenario-level kernel equivalence: every (protocol × scenario) cell of
//! the catalogue must produce the identical [`RunReport`] under the
//! sparse and dense kernels — full `Compete` broadcast, leader
//! election, and radio MIS, under churn, partitions, jamming, staggered
//! wake-up, and mobility.
//!
//! This is the end-to-end counterpart of `radionet-sim`'s differential
//! proptests: it exercises the real protocol stack (MIS → partition → ICP →
//! propagation rounds, with all the `Wake` hints those implementations
//! return) over `DynamicTopology`'s batch change feed and the mobility
//! views' tick clocks. Reports are compared after the kernel name is
//! normalized and [`SimStats::kernel_invariant`](radionet_sim::SimStats)
//! zeroes the kernel-dependent counters (scheduler pops, skipped silent
//! steps) — everything else, the RNG fingerprint included, must match
//! byte-for-byte.

use proptest::prelude::*;
use radionet_api::{Driver, RunReport, RunSpec, Scenario, SweepConfig};
use radionet_sim::{Kernel, ReceptionMode};

fn cells(sizes: Vec<usize>, seeds: u64, base_seed: u64) -> Vec<(String, RunSpec)> {
    let config = SweepConfig::catalogue(sizes, seeds, base_seed);
    config.cells(Kernel::Sparse).map(|(name, _, spec)| (name.to_owned(), spec)).collect()
}

/// Runs the cell under one kernel, then normalizes the kernel name and
/// zeroes the kernel-dependent stats counters so whole reports compare
/// across kernels.
fn run_invariant(spec: &RunSpec, kernel: Kernel) -> RunReport {
    let spec = RunSpec { kernel, ..spec.clone() };
    let mut report = Driver::standard().run(&spec).expect("catalogue cell");
    report.spec.kernel = Kernel::Sparse;
    report.stats = report.stats.kernel_invariant();
    report
}

/// The whole catalogue, one small size, both kernels, cell by cell.
#[test]
fn catalogue_cells_agree_across_kernels() {
    for (name, spec) in cells(vec![36], 1, 0xbeef) {
        let sparse = run_invariant(&spec, Kernel::Sparse);
        let dense = run_invariant(&spec, Kernel::Dense);
        assert_eq!(sparse, dense, "kernel divergence in cell {name:?}");
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
    for (name, _, spec) in config.cells(Kernel::Sparse) {
        let sparse = run_invariant(&spec, Kernel::Sparse);
        let dense = run_invariant(&spec, Kernel::Dense);
        assert_eq!(sparse, dense, "kernel divergence in mobility cell {name:?}");
    }
}

/// Collision-detection reception over the dynamic scenarios (the catalogue
/// presets are all protocol-model; clone them onto CD).
#[test]
fn catalogue_cells_agree_under_collision_detection() {
    for (name, spec) in cells(vec![36], 1, 0x0cd) {
        let spec = RunSpec { reception: ReceptionMode::ProtocolCd, ..spec };
        let sparse = run_invariant(&spec, Kernel::Sparse);
        let dense = run_invariant(&spec, Kernel::Dense);
        assert_eq!(sparse, dense, "CD kernel divergence in cell {name:?}");
    }
}

/// Streaming-traffic specs through the full façade: every traffic kind,
/// under churn and under jamming, must produce the identical outcome,
/// kernel-invariant stats, and RNG fingerprint across the two kernels —
/// the end-to-end counterpart of `radionet-sim`'s
/// injection-schedule proptest.
#[test]
fn traffic_cells_agree_across_kernels() {
    use radionet_api::{Dynamics, TrafficSpec};
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
            let key = |r: &RunReport| {
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

/// Radio MIS recorded at a short waypoint cadence takes the same waypoints
/// under both kernels: the same kernel-invariant event digest and the same
/// RNG fingerprint at every boundary, not only at the end. Nodes draw their
/// coins ahead only at steps where both kernels call `act` — a fresh step
/// or a drawn transmission — so a window drawn from a listen step inside a
/// window (which only the dense kernel executes) moves a mid-phase
/// fingerprint here.
#[test]
fn journaled_mis_takes_the_same_waypoints_on_both_kernels() {
    use radionet_api::JournalSpec;
    use radionet_graph::families::Family;

    let journal = JournalSpec { classes: "radio,phase".into(), checkpoint_every: 5 };
    for (seed, dynamics) in [(3, "static"), (4, "churn"), (5, "staggered-wake")] {
        let run = |kernel| {
            let spec = RunSpec::new("mis", Family::Grid, 100)
                .with_seed(seed)
                .with_dynamics(radionet_api::Dynamics::preset(dynamics).unwrap())
                .with_journal(journal.clone())
                .with_kernel(kernel);
            let (report, journal) = Driver::standard().run_journaled(&spec).expect("mis runs");
            (report.rng_fingerprint, journal.waypoints)
        };
        let (fingerprint, sparse) = run(Kernel::Sparse);
        assert!(sparse.len() > 200, "{dynamics}: only {} waypoints", sparse.len());
        assert_eq!((fingerprint, sparse), run(Kernel::Dense), "{dynamics}: waypoints differ");
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
        let (_, _, spec) = config.cells(Kernel::Sparse).last().unwrap();
        let sparse = run_invariant(&spec, Kernel::Sparse);
        let dense = run_invariant(&spec, Kernel::Dense);
        prop_assert_eq!(&sparse, &dense);
    }
}
