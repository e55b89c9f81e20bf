//! E21 — telemetry overhead guard: observing never steers, and the
//! disabled path costs nothing.
//!
//! Two parts, mirroring E15's journal-off probe (Part 1b) one layer up:
//!
//! 1. **Engine probe**: the E15 sparse Decay face-off workload runs under
//!    the default [`Quiet`] observer and under a live [`Registry`].
//!    Reports and RNG fingerprints are asserted identical (hard — metrics
//!    must never perturb the deterministic surface), then the min-of-N
//!    wall-clock ratio is checked with the E15 policy: soft warning at the
//!    2% bar, hard assert at 15%. The live registry is also checked to
//!    have actually recorded samples, so the ratio can't silently compare
//!    dead code against dead code.
//! 2. **Driver equivalence**: catalogue-style specs run through a plain
//!    [`Driver`] and one with an attached registry; the full
//!    [`RunReport`]s (RNG fingerprint included) must be bit-identical,
//!    and the registry must carry the driver-stage and kernel histograms.

use super::throughput_exp::{faceoff_probe, FACEOFF_SIDE, PROBE_RUNS};
use super::{banner, print_notes};
use crate::Scale;
use radionet_analysis::table::f1;
use radionet_analysis::{ExperimentRecord, RunRecord, Table};
use radionet_api::{Driver, Dynamics, RunSpec};
use radionet_graph::families::Family;
use radionet_graph::generators;
use radionet_primitives::decay::DecaySchedule;
use radionet_sim::{Kernel, NetInfo, Observed, Quiet, Registry};

/// E21 — telemetry: identical results on and off, near-zero cost.
pub fn e21_telemetry(scale: Scale) -> ExperimentRecord {
    let claim = "Telemetry observes, never steers: identical results, near-zero cost";
    banner("E21", claim);
    let mut record = ExperimentRecord::new("E21", claim);
    let mut table = Table::new(["probe", "telemetry", "n", "steps", "wall ms"]);

    // Part 1: engine probe — Quiet vs a live Registry on the E15 face-off
    // workload, long enough to resolve a 2% ratio.
    let g = generators::grid2d(FACEOFF_SIDE, FACEOFF_SIDE);
    let info = NetInfo::exact(&g);
    let budget = 8 * 48 * DecaySchedule::new(info.log_n()).steps_per_iteration() as u64;
    let quiet = || faceoff_probe(&g, info, Kernel::Sparse, budget, 0xe21, Quiet);
    let baseline = quiet();
    let mut off_wall = f64::INFINITY;
    let mut on_wall = f64::INFINITY;
    for _ in 0..PROBE_RUNS {
        let off = quiet();
        let live = Registry::default();
        let observed = Observed { journal: None, metrics: Some(live.clone()) };
        let on = faceoff_probe(&g, info, Kernel::Sparse, budget, 0xe21, observed);
        assert_eq!((&off.0, off.1), (&baseline.0, baseline.1), "Quiet run not reproducible");
        assert_eq!((&on.0, on.1), (&baseline.0, baseline.1), "a live Registry perturbed the run");
        // Guard the guard: the live side must have recorded real samples,
        // or the ratio below compares dead code against dead code.
        let snap = live.snapshot();
        assert_eq!(snap.counter("sim_phases"), Some(1), "live registry saw no phase");
        assert!(
            snap.histograms.iter().any(|h| h.name == "sim_phase_micros" && h.count > 0),
            "live registry recorded no phase timing"
        );
        off_wall = off_wall.min(off.2);
        on_wall = on_wall.min(on.2);
    }
    for (label, wall) in [("off", off_wall), ("on", on_wall)] {
        table.row([
            "decay-sparse".into(),
            label.into(),
            g.n().to_string(),
            baseline.0.steps.to_string(),
            f1(wall * 1e3),
        ]);
    }
    let overhead = off_wall / on_wall - 1.0;
    record.push(
        RunRecord::new()
            .param("probe", "engine")
            .param("n", g.n())
            .metric("off_wall_ms", off_wall * 1e3)
            .metric("on_wall_ms", on_wall * 1e3)
            .metric("overhead", overhead),
    );
    record.note(format!(
        "engine probe: Quiet {:.1} ms vs live Registry {:.1} ms (min of {PROBE_RUNS}; \
         {:+.1}% = disabled relative to enabled); reports and RNG streams identical",
        off_wall * 1e3,
        on_wall * 1e3,
        overhead * 1e2,
    ));
    // E15 policy: a wall-clock ratio on a contended runner can flake, so
    // the 2% bar only warns; only a gross regression (instrumentation no
    // longer compiled out, or accumulators gone per-step-hot) fails hard.
    if overhead > 0.02 {
        record.note(format!(
            "WARNING: Quiet measured {:.1}% slower than a live Registry — the \
             zero-cost-when-off claim expects ~0; expected only under heavy host contention",
            overhead * 1e2
        ));
        eprintln!("E21: WARNING: disabled-path overhead {:.1}% above the 2% bar", overhead * 1e2);
    }
    assert!(
        overhead < 0.15,
        "Quiet costs {:.1}% over a live Registry — instrumentation is no longer \
         compiled out of the telemetry-off hot path",
        overhead * 1e2
    );

    // Part 2: driver equivalence — full reports (fingerprints included)
    // bit-identical with telemetry attached, across kernels and dynamics.
    let n = match scale {
        Scale::Quick => 64,
        Scale::Full => 256,
    };
    let specs = [
        RunSpec::new("broadcast", Family::Grid, n).with_seed(7),
        RunSpec::new("mis", Family::UnitDisk, n).with_seed(3).with_kernel(Kernel::Dense),
        RunSpec::new("leader-election", Family::Grid, n).with_seed(1),
        RunSpec::new("broadcast", Family::UnitDisk, n)
            .with_seed(5)
            .with_dynamics(Dynamics::preset("churn").expect("churn is a standard preset")),
    ];
    let tel = Registry::default();
    let plain_driver = Driver::standard();
    let timed_driver = Driver::standard().with_telemetry(tel.clone());
    for spec in &specs {
        let plain = plain_driver.run(spec).expect("probe specs are valid");
        let timed = timed_driver.run(spec).expect("probe specs are valid");
        assert_eq!(plain, timed, "telemetry changed the report for {:?}", spec.task);
        record.push(
            RunRecord::new()
                .param("probe", "driver")
                .param("task", &spec.task)
                .param("kernel", format!("{:?}", spec.kernel).to_lowercase())
                .param("n", n)
                .metric("identical", 1.0)
                .metric("rng_fingerprint_matches", 1.0),
        );
    }
    let snap = tel.snapshot();
    assert_eq!(snap.counter("driver_runs"), Some(specs.len() as u64));
    for name in ["driver_setup_micros", "driver_simulate_micros", "driver_report_micros"] {
        assert!(
            snap.histograms.iter().any(|h| h.name == name && h.count == specs.len() as u64),
            "missing driver stage histogram {name}"
        );
    }
    record.note(format!(
        "driver equivalence: {} specs (broadcast/mis/leader-election; sparse/dense \
         kernels; static + churn dynamics) bit-identical with telemetry attached, \
         fingerprints included; registry carries all driver-stage histograms",
        specs.len()
    ));

    println!("{}", table.render());
    print_notes(&record);
    record
}
