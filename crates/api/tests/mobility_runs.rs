//! End-to-end mobility runs through the façade: every mobility preset
//! executes under `Driver::run`, produces a time-resolved trace, stays
//! deterministic, and is byte-identical across the two step kernels.

use radionet_api::{Driver, Dynamics, MobilitySpec, RunError, RunSpec};
use radionet_graph::families::Family;
use radionet_sim::{Kernel, PositionSource, ReceptionMode, SinrConfig};

const MOBILITY_PRESETS: [&str; 4] =
    ["mobility:waypoint", "mobility:walk", "mobility:levy", "mobility:group"];

fn mobile_spec(preset: &str, family: Family, seed: u64) -> RunSpec {
    RunSpec::new("broadcast", family, 48)
        .with_seed(seed)
        .with_dynamics(Dynamics::preset(preset).unwrap())
}

#[test]
fn every_mobility_preset_runs_and_traces() {
    let driver = Driver::standard();
    for preset in MOBILITY_PRESETS {
        let report = driver
            .run(&mobile_spec(preset, Family::UnitDisk, 3))
            .unwrap_or_else(|e| panic!("{preset}: {e}"));
        assert_eq!(report.events, 0, "{preset}: mobility scripts no events");
        let trace = report.mobility.as_ref().unwrap_or_else(|| panic!("{preset}: no trace"));
        assert!(!trace.samples.is_empty(), "{preset}: no time-resolved samples");
        assert!(trace.samples[0].alpha_lower >= 1);
        assert!(trace.stats.ticks > 0, "{preset}: the point set never moved");
        assert!((0.0..=1.0).contains(&report.achieved), "{preset}");
        // Samples are clock-ordered and start at the baseline.
        assert!(trace.samples.windows(2).all(|w| w[0].clock < w[1].clock), "{preset}");
    }
}

#[test]
fn mobility_runs_on_every_geometric_family() {
    let driver = Driver::standard();
    for family in
        [Family::UnitDisk, Family::QuasiUnitDisk, Family::UnitBall3, Family::GeometricRadio]
    {
        let report = driver
            .run(&mobile_spec("mobility:waypoint", family, 7))
            .unwrap_or_else(|e| panic!("{family}: {e}"));
        assert!(report.mobility.is_some(), "{family}");
        assert!(report.clock_total > 0, "{family}");
    }
}

#[test]
fn mobility_rejects_non_geometric_families() {
    let err = Driver::standard().run(&mobile_spec("mobility:waypoint", Family::Grid, 0));
    match err {
        Err(RunError::InvalidSpec(why)) => {
            assert!(why.contains("geometric"), "unhelpful error: {why}")
        }
        other => panic!("expected InvalidSpec, got {other:?}"),
    }
}

#[test]
fn mobility_rejects_frozen_sinr_snapshots() {
    // A fixed position table cannot track moving nodes; only the frozen
    // snapshot source is rejected — geometry/live SINR runs end-to-end.
    let spec = mobile_spec("mobility:waypoint", Family::UnitDisk, 0)
        .with_reception(ReceptionMode::Sinr(SinrConfig::for_unit_range(vec![(0.0, 0.0); 48], 1.0)));
    let err = Driver::standard().run(&spec);
    match err {
        Err(RunError::InvalidSpec(why)) => {
            assert!(why.contains("snapshot"), "unhelpful error: {why}")
        }
        other => panic!("expected InvalidSpec, got {other:?}"),
    }
}

#[test]
fn mobility_accepts_sinr_reception_end_to_end() {
    // The geometry-native SINR path: positions re-read from the moving
    // point set each step, across every mobility preset and geometric
    // family, with a time-resolved trace and physical-layer activity.
    let driver = Driver::standard();
    for source in [PositionSource::Geometry, PositionSource::Live] {
        let spec = mobile_spec("mobility:waypoint", Family::UnitDisk, 3)
            .with_reception(ReceptionMode::Sinr(SinrConfig::for_unit_range(source.clone(), 1.0)));
        let report = driver.run(&spec).unwrap_or_else(|e| panic!("{source:?}: {e}"));
        assert_eq!(report.spec, spec, "{source:?}");
        assert!(report.mobility.is_some(), "{source:?}: mobility trace missing");
        assert!(report.stats.deliveries > 0, "{source:?}: nothing was delivered under SINR");
        assert_eq!(report.stats.kernel_fallbacks, 0, "{source:?}: sparse SINR must not fall back");
    }
    for family in
        [Family::UnitDisk, Family::QuasiUnitDisk, Family::UnitBall3, Family::GeometricRadio]
    {
        for preset in MOBILITY_PRESETS {
            let spec = mobile_spec(preset, family, 9)
                .with_reception(ReceptionMode::Sinr(SinrConfig::geometric()));
            let report = driver.run(&spec).unwrap_or_else(|e| panic!("{family}/{preset}: {e}"));
            assert!(report.clock_total > 0, "{family}/{preset}");
            assert!(report.mobility.unwrap().stats.ticks > 0, "{family}/{preset}");
        }
    }
}

#[test]
fn mobility_sinr_kernels_are_byte_identical() {
    // Moving positions + physical reception, sparse vs dense: the
    // spatially-indexed SINR kernel must reproduce the dense reference
    // bit-for-bit.
    let driver = Driver::standard();
    for preset in MOBILITY_PRESETS {
        let spec = mobile_spec(preset, Family::UnitDisk, 31)
            .with_reception(ReceptionMode::Sinr(SinrConfig::geometric()));
        let sparse = driver.run(&spec.clone().with_kernel(Kernel::Sparse)).unwrap();
        let dense = driver.run(&spec.clone().with_kernel(Kernel::Dense)).unwrap();
        assert_eq!(sparse.outcome, dense.outcome, "{preset}");
        assert_eq!(sparse.stats.deliveries, dense.stats.deliveries, "{preset}");
        assert_eq!(sparse.stats.collisions, dense.stats.collisions, "{preset}");
        assert_eq!(sparse.rng_fingerprint, dense.rng_fingerprint, "{preset}");
        assert_eq!(sparse.mobility, dense.mobility, "{preset}");
    }
}

#[test]
fn mobility_sinr_is_deterministic() {
    let driver = Driver::standard();
    let spec = mobile_spec("mobility:levy", Family::UnitDisk, 13)
        .with_reception(ReceptionMode::Sinr(SinrConfig::geometric()));
    let a = driver.run(&spec).unwrap();
    let b = driver.run(&spec).unwrap();
    assert_eq!(a, b);
}

#[test]
fn mobility_reports_are_deterministic() {
    let driver = Driver::standard();
    let spec = mobile_spec("mobility:levy", Family::UnitDisk, 11);
    let a = driver.run(&spec).unwrap();
    let b = driver.run(&spec).unwrap();
    assert_eq!(a, b);
    assert_ne!(
        a.rng_fingerprint,
        driver.run(&spec.clone().with_seed(12)).unwrap().rng_fingerprint,
        "seed must matter"
    );
}

#[test]
fn mobility_kernels_are_byte_identical() {
    // The acceptance criterion: the sparse active-set kernel, clock jumps
    // included, runs unmodified on MobileTopology with results
    // identical to the dense reference — outcome, kernel-invariant engine
    // counters, RNG streams, and trace.
    let driver = Driver::standard();
    for preset in MOBILITY_PRESETS {
        for task in ["broadcast", "mis"] {
            let mut spec = mobile_spec(preset, Family::UnitDisk, 21);
            spec.task = task.to_string();
            let sparse = driver.run(&spec.clone().with_kernel(Kernel::Sparse)).unwrap();
            let dense = driver.run(&spec.with_kernel(Kernel::Dense)).unwrap();
            assert_eq!(sparse.outcome, dense.outcome, "{preset}/{task}");
            assert_eq!(
                sparse.stats.kernel_invariant(),
                dense.stats.kernel_invariant(),
                "{preset}/{task}"
            );
            assert_eq!(sparse.rng_fingerprint, dense.rng_fingerprint, "{preset}/{task}");
            assert_eq!(sparse.mobility, dense.mobility, "{preset}/{task}");
        }
    }
}

#[test]
fn explicit_sampling_cadence_is_honored() {
    let mut dynamics = match Dynamics::preset("mobility:waypoint").unwrap() {
        Dynamics::Mobility(m) => m,
        _ => unreachable!(),
    };
    dynamics.sample_every = Some(7);
    let spec = RunSpec::new("broadcast", Family::UnitDisk, 48)
        .with_seed(5)
        .with_dynamics(Dynamics::Mobility(MobilitySpec { ..dynamics }));
    let report = Driver::standard().run(&spec).unwrap();
    let samples = &report.mobility.unwrap().samples;
    assert!(samples.len() >= 2);
    // At most one sample per 7-step cadence window (clock jumps from
    // charged phases may place samples anywhere inside their window).
    for w in samples.windows(2) {
        assert!(w[1].clock / 7 > w[0].clock / 7, "two samples in one cadence window");
    }
}

#[test]
fn zero_cadence_disables_sampling() {
    let mut dynamics = match Dynamics::preset("mobility:waypoint").unwrap() {
        Dynamics::Mobility(m) => m,
        _ => unreachable!(),
    };
    dynamics.sample_every = Some(0);
    let spec = RunSpec::new("broadcast", Family::UnitDisk, 48)
        .with_seed(5)
        .with_dynamics(Dynamics::Mobility(dynamics));
    let report = Driver::standard().run(&spec).unwrap();
    let trace = report.mobility.expect("trace counters still reported");
    assert!(trace.samples.is_empty(), "Some(0) must switch sampling off");
    assert!(trace.stats.ticks > 0, "motion itself stays on");
}

#[test]
fn mobility_report_serde_round_trips() {
    let report =
        Driver::standard().run(&mobile_spec("mobility:group", Family::UnitBall3, 2)).unwrap();
    let json = serde_json::to_string(&report).unwrap();
    let back: radionet_api::RunReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
}
