//! Every registered task runs end-to-end through the façade on a small
//! graph — the "one typed spec reaches everything" acceptance check, plus
//! outcome sanity per task kind.

use radionet_api::{Driver, Dynamics, RunReport, RunSpec, Task, TaskOutcome};
use radionet_graph::families::Family;
use radionet_sim::{Kernel, ReceptionMode, Registry};

fn spec_for(task: &str, seed: u64) -> RunSpec {
    let mut spec = RunSpec::new(task, Family::Grid, 36).with_seed(seed);
    if task == "cd-wakeup" {
        spec = spec.with_reception(ReceptionMode::ProtocolCd);
    }
    spec
}

#[test]
fn every_registered_task_runs_on_a_static_grid() {
    let driver = Driver::standard();
    let keys: Vec<&str> = driver.registry().keys().collect();
    assert_eq!(keys.len(), 13);
    for key in keys {
        let report = driver.run(&spec_for(key, 5)).unwrap_or_else(|e| panic!("{key}: {e}"));
        assert!(report.success, "{key} failed on an unperturbed grid: {report:?}");
        assert!(report.achieved >= 1.0 - 1e-12, "{key}: achieved {}", report.achieved);
        assert_eq!(report.n, 36);
        // Radio tasks consume clock; the LOCAL references are free.
        match report.outcome {
            TaskOutcome::Mis(m) if report.clock_total == 0 => {
                assert!(m.rounds > 0, "{key}: no rounds at zero clock")
            }
            _ => assert!(report.clock_total > 0, "{key}: clock did not advance"),
        }
    }
}

#[test]
fn every_task_survives_churn_dynamics() {
    let driver = Driver::standard();
    for key in driver.registry().keys() {
        let spec = spec_for(key, 11).with_dynamics(Dynamics::preset("churn").unwrap());
        let report = driver.run(&spec).unwrap_or_else(|e| panic!("{key}: {e}"));
        // Under churn success is not guaranteed; the pipeline completing
        // with a well-formed report is the contract.
        assert!((0.0..=1.0).contains(&report.achieved), "{key}: achieved {}", report.achieved);
        assert!(report.events > 0, "{key}: churn produced no events");
    }
}

#[test]
fn kernels_agree_for_every_task() {
    let driver = Driver::standard();
    for key in driver.registry().keys() {
        let sparse = driver.run(&spec_for(key, 23).with_kernel(Kernel::Sparse)).unwrap();
        let dense = driver.run(&spec_for(key, 23).with_kernel(Kernel::Dense)).unwrap();
        assert_eq!(sparse.outcome, dense.outcome, "{key} kernels disagree");
        // Scheduler pop / skip counters are kernel-dependent by design;
        // everything else in the stats must match byte-for-byte.
        assert_eq!(
            sparse.stats.kernel_invariant(),
            dense.stats.kernel_invariant(),
            "{key} kernel stats disagree"
        );
        assert_eq!(
            sparse.rng_fingerprint, dense.rng_fingerprint,
            "{key} kernel RNG streams disagree"
        );
    }
}

/// Every task returns the same report under every observer: quiet, with
/// telemetry attached, and journaled (apart from the journal summary a
/// journaled run adds).
#[test]
fn every_task_runs_unchanged_under_every_observer() {
    for task in Task::ALL {
        let key = task.key();
        let spec = spec_for(key, 5);
        let plain = Driver::standard().run(&spec).unwrap_or_else(|e| panic!("{key}: {e}"));
        let timed = Driver::standard().with_telemetry(Registry::default()).run(&spec).unwrap();
        assert_eq!(timed, plain, "{key}: telemetry changed the report");
        let (journaled, _) = Driver::standard().run_journaled(&spec).unwrap();
        assert!(journaled.journal.is_some(), "{key}: no journal summary");
        assert_eq!(RunReport { journal: None, ..journaled }, plain, "{key}: recording changed it");
    }
}

#[test]
fn step_cap_limits_capped_tasks() {
    let driver = Driver::standard();
    let mut spec = spec_for("luby-mis", 3);
    spec.steps = Some(1);
    let report = driver.run(&spec).unwrap();
    if let TaskOutcome::Mis(m) = report.outcome {
        assert!(m.rounds <= 1, "round cap ignored: {} rounds", m.rounds);
    } else {
        panic!("luby-mis must report a Mis outcome");
    }
}
