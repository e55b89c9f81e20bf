//! Golden results: what the paper's algorithms return on the scenario
//! catalogue, pinned byte for byte.
//!
//! Every line of `fixtures/catalogue_reports.jsonl` is the compact
//! [`RunReport`](radionet_api::RunReport) of one catalogue cell — outcome,
//! clocks, engine counters and the per-node RNG fingerprint — so a change
//! to any algorithm, kernel, dynamics script or seed stream shows up here
//! as the first cell whose bytes moved. The cells:
//!
//! * the whole [`Scenario::catalogue`] at n = 36 under the sparse and
//!   dense kernels (base seed `0xface`);
//! * the same catalogue cloned onto collision-detection reception under
//!   both kernels (base seed `0xcd_face`);
//! * the mobility and streaming-traffic cells of
//!   [`Scenario::extended_catalogue`] under the sparse kernel.
//!
//! Regenerate deliberately with
//! `RADIONET_REGEN_FIXTURES=1 cargo test -p radionet-scenario --test golden_reports`
//! and review the diff. A regenerated sparse line is checked against its
//! dense run by [`sparse_lines_match_dense_runs`], which includes the
//! extended cells that have no dense twin in the fixture. A regenerated
//! fixture also fails [`results_version_is_pinned_to_the_fixture`] until
//! `RESULTS_VERSION` is bumped, so persisted result stores of the old
//! reports stop being served.

use radionet_api::{Driver, Executor, JsonlSink, RunReport, RunSpec, RESULTS_VERSION};
use radionet_scenario::runner::{spec_for_cell, SweepConfig};
use radionet_scenario::Scenario;
use radionet_sim::{Kernel, ReceptionMode};

const FIXTURE: &str = include_str!("fixtures/catalogue_reports.jsonl");
const FIXTURE_PATH: &str = "tests/fixtures/catalogue_reports.jsonl";

/// The pinned cells in fixture order, each with a label naming it.
fn golden_specs() -> Vec<(String, RunSpec)> {
    let mut out = Vec::new();
    for (base_seed, reception) in
        [(0xface, ReceptionMode::Protocol), (0xcd_face, ReceptionMode::ProtocolCd)]
    {
        for mut cell in SweepConfig::catalogue(vec![36], 1, base_seed).cells() {
            cell.scenario.reception = reception.clone();
            for kernel in [Kernel::Sparse, Kernel::Dense] {
                let label =
                    format!("{} ({}, {})", cell.scenario.name, reception.name(), kernel.name());
                out.push((label, spec_for_cell(&cell, kernel)));
            }
        }
    }
    let mut extended = Scenario::mobility_catalogue();
    extended.extend(Scenario::traffic_catalogue());
    let config = SweepConfig { scenarios: extended, sizes: vec![36], seeds: 1, base_seed: 0xface };
    for cell in config.cells() {
        out.push((
            format!("{} (sparse)", cell.scenario.name),
            spec_for_cell(&cell, Kernel::Sparse),
        ));
    }
    out
}

#[test]
fn catalogue_reports_match_the_golden_fixture() {
    let cells = golden_specs();
    assert_eq!(cells.len(), 53, "44 catalogue cells plus 9 mobility and traffic cells");
    let mut stream = Vec::new();
    let specs = cells.iter().map(|(_, spec)| spec.clone());
    let sink = &mut JsonlSink::new(&mut stream);
    Driver::standard().run_sweep(specs, 8, &Executor::Threads, sink).expect("golden cells run");
    let stream = String::from_utf8(stream).unwrap();
    if std::env::var_os("RADIONET_REGEN_FIXTURES").is_some() {
        std::fs::write(FIXTURE_PATH, &stream).unwrap();
        return;
    }
    let fixture: Vec<&str> = FIXTURE.lines().collect();
    for ((label, _), (got, want)) in cells.iter().zip(stream.lines().zip(&fixture)) {
        if got != *want {
            let at = got.bytes().zip(want.bytes()).take_while(|(a, b)| a == b).count();
            let context = |line: &str| line.get(at.saturating_sub(60)..).unwrap_or(line).to_owned();
            panic!(
                "first cell that differs from the golden fixture: {label}\n  \
                 got:  …{:.120}\n  want: …{:.120}\n\
                 if intentional, regenerate with RADIONET_REGEN_FIXTURES=1 and review the diff",
                context(got),
                context(want),
            );
        }
    }
    assert_eq!(fixture.len(), cells.len(), "the fixture pins a different number of cells");
}

/// Every sparse line equals a fresh run of its spec on the dense reference
/// kernel, apart from the kernel itself and the two kernel-dependent
/// counters that [`SimStats::kernel_invariant`](radionet_sim::SimStats)
/// zeroes (`scheduler_events`, `silent_steps_skipped`).
#[test]
fn sparse_lines_match_dense_runs() {
    let driver = Driver::standard();
    let mut checked = 0;
    for line in FIXTURE.lines() {
        let mut want: RunReport = serde_json::from_str(line).expect("fixture line parses");
        assert_eq!(serde_json::to_string(&want).unwrap(), line, "fixture line round-trips");
        if want.spec.kernel != Kernel::Sparse {
            continue;
        }
        let mut spec = want.spec.clone();
        spec.kernel = Kernel::Dense;
        let mut got = driver.run(&spec).expect("dense twin runs");
        got.spec.kernel = Kernel::Sparse;
        got.stats = got.stats.kernel_invariant();
        want.stats = want.stats.kernel_invariant();
        assert_eq!(
            serde_json::to_string(&got).unwrap(),
            serde_json::to_string(&want).unwrap(),
            "sparse fixture line differs from its dense run"
        );
        checked += 1;
    }
    assert_eq!(checked, 31, "22 catalogue cells and 9 mobility and traffic cells run sparse");
}

/// FNV-1a 64 of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The fixture's bytes are the reports of [`RESULTS_VERSION`]: new bytes
/// need a new version.
#[test]
fn results_version_is_pinned_to_the_fixture() {
    let digest = fnv1a64(FIXTURE.as_bytes());
    assert_eq!(
        (RESULTS_VERSION, digest),
        (1, 0x16ea_1baa_cb8a_03a0),
        "catalogue_reports.jsonl changed (digest {digest:#018x}): bump \
         radionet_api::RESULTS_VERSION and pin it here with the new digest"
    );
}
