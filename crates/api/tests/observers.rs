//! Observers through the driver: a journal and metrics record in the same
//! run without changing it, and the emitted metric names are exactly the
//! README telemetry glossary. (That every task returns the same report
//! under every observer is checked in `all_tasks.rs`.)

use radionet_api::{Driver, Dynamics, MemorySink, RunSpec};
use radionet_graph::families::Family;
use radionet_sim::{Kernel, ReceptionMode, Registry, SinrConfig};
use std::collections::BTreeSet;

#[test]
fn telemetry_does_not_change_a_journaled_run() {
    for kernel in [Kernel::Sparse, Kernel::Dense] {
        let spec = RunSpec::new("broadcast", Family::Grid, 36).with_seed(3).with_kernel(kernel);
        let (report, mut journal) = Driver::standard().run_journaled(&spec).unwrap();
        let tel = Registry::default();
        let (timed_report, mut timed_journal) =
            Driver::standard().with_telemetry(tel.clone()).run_journaled(&spec).unwrap();
        assert_eq!(timed_report, report, "{kernel:?}");
        assert!(!journal.events.is_empty() && !journal.waypoints.is_empty(), "{kernel:?}");
        // Everything but the wall clock: events, waypoints, digest.
        journal.wall_nanos = 0;
        timed_journal.wall_nanos = 0;
        assert_eq!(timed_journal, journal, "{kernel:?}");

        let snap = tel.snapshot();
        for name in ["driver_run_micros", "sim_phase_micros"] {
            assert!(
                snap.histograms.iter().any(|h| h.name == name && h.count > 0),
                "{kernel:?}: no {name} samples"
            );
        }
    }
}

/// The `sim_*`, `driver_*` and `sweep_*` names of the README telemetry
/// glossary table.
fn glossary_names() -> BTreeSet<String> {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("README.md is readable");
    let table = readme
        .split("**Telemetry glossary**")
        .nth(1)
        .expect("README has a telemetry glossary")
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'));
    table
        .filter_map(|row| row.split('|').nth(1))
        .flat_map(|cell| cell.split('`').skip(1).step_by(2).map(str::to_owned).collect::<Vec<_>>())
        .filter(|name| ["sim_", "driver_", "sweep_"].iter().any(|p| name.starts_with(p)))
        .collect()
}

#[test]
fn emitted_metric_names_match_the_readme_glossary() {
    let tel = Registry::default();
    let driver = Driver::standard().with_telemetry(tel.clone());
    let specs = [
        RunSpec::new("broadcast", Family::Grid, 36).with_seed(1),
        RunSpec::new("broadcast", Family::UnitDisk, 48)
            .with_seed(5)
            .with_reception(ReceptionMode::Sinr(SinrConfig::geometric())),
        RunSpec::new("broadcast", Family::UnitDisk, 48)
            .with_seed(7)
            .with_dynamics(Dynamics::preset("mobility:waypoint").unwrap()),
    ];
    for spec in &specs {
        driver.run(spec).unwrap();
    }
    let sweep: Vec<RunSpec> =
        (0..2).map(|seed| RunSpec::new("mis", Family::Grid, 16).with_seed(seed)).collect();
    let mut sink = MemorySink::default();
    assert_eq!(driver.run_sweep(sweep, 1, &mut sink).unwrap(), 2);

    let snap = tel.snapshot();
    let emitted: BTreeSet<String> = snap
        .counters
        .iter()
        .map(|c| &c.name)
        .chain(snap.gauges.iter().map(|g| &g.name))
        .chain(snap.histograms.iter().map(|h| &h.name))
        .filter(|name| ["sim_", "driver_", "sweep_"].iter().any(|p| name.starts_with(p)))
        .cloned()
        .collect();
    let glossary = glossary_names();
    assert!(glossary.len() >= 15, "glossary parse found only {glossary:?}");
    assert_eq!(emitted, glossary, "emitted metric names differ from the README glossary");
}
