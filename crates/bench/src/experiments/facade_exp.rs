//! E16 — the unified façade exercised end-to-end from the bench layer:
//! every task in the registry, swept across graph families as
//! [`RunSpec`]s through [`Driver::run_sweep`] on the rayon pool, with the
//! parallel stream asserted byte-identical to the sequential one.
//!
//! This experiment is deliberately built the way the API redesign says
//! benches should be: no hand-wired `Sim` construction, no per-algorithm
//! plumbing — specs in, reports out.

use super::{banner, print_notes};
use crate::Scale;
use radionet_analysis::table::f2;
use radionet_analysis::{ExperimentRecord, RunRecord, Table};
use radionet_api::{Driver, MemorySink, RunReport, RunSpec};
use radionet_graph::families::Family;
use radionet_sim::ReceptionMode;

fn sizes(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Quick => &[36, 64],
        Scale::Full => &[64, 256],
    }
}

/// The spec corpus: every registered task × family × size, seeded per rep.
fn specs(scale: Scale, driver: &Driver) -> Vec<RunSpec> {
    let families = [Family::Grid, Family::UnitDisk, Family::Gnp];
    let mut out = Vec::new();
    for key in driver.registry().keys() {
        for family in families {
            for &n in sizes(scale) {
                for rep in 0..scale.seeds().min(2) {
                    let seed = radionet_api::seeds::seed_for(0xfa_cade, key, n, rep);
                    let mut spec = RunSpec::new(key, family, n).with_seed(seed);
                    if key == "cd-wakeup" {
                        spec = spec.with_reception(ReceptionMode::ProtocolCd);
                    }
                    out.push(spec);
                }
            }
        }
    }
    out
}

/// E16 — every registry task through one typed entry point.
pub fn e16_facade(scale: Scale) -> ExperimentRecord {
    let claim = "Unified façade: every registry task runs through Driver::run(RunSpec), \
                 parallel sweep byte-identical to sequential";
    banner("E16", claim);
    let mut record = ExperimentRecord::new("E16", claim);

    let driver = Driver::standard();
    let corpus = specs(scale, &driver);
    eprintln!("sweeping {} specs over {} tasks", corpus.len(), driver.registry().len());

    let mut parallel = MemorySink::default();
    let specs = corpus.iter().cloned();
    driver.run_sweep(specs, 32, &mut parallel).expect("corpus specs are valid");
    let reports = parallel.reports;

    // Determinism cross-check on a slice (full corpus at Quick scale).
    let check = if scale == Scale::Quick { corpus.len() } else { corpus.len() / 4 };
    let mut sequential = MemorySink::default();
    let specs = corpus[..check].iter().cloned();
    driver.run_sweep(specs, 1, &mut sequential).expect("corpus specs are valid");
    assert_eq!(
        sequential.reports,
        reports[..check],
        "parallel façade sweep diverged from sequential"
    );

    let mut table =
        Table::new(["task", "family", "ok", "achieved", "clock (mean)", "fingerprints"]);
    for key in driver.registry().keys() {
        for family in [Family::Grid, Family::UnitDisk, Family::Gnp] {
            let rows: Vec<&RunReport> =
                reports.iter().filter(|r| r.spec.task == key && r.spec.family == family).collect();
            if rows.is_empty() {
                continue;
            }
            let k = rows.len() as f64;
            let ok = rows.iter().filter(|r| r.success).count();
            let achieved = rows.iter().map(|r| r.achieved).sum::<f64>() / k;
            let clock = rows.iter().map(|r| r.clock_total as f64).sum::<f64>() / k;
            let mut fps: Vec<u64> = rows.iter().map(|r| r.rng_fingerprint).collect();
            fps.sort_unstable();
            fps.dedup();
            table.row([
                key.to_string(),
                family.name().to_string(),
                format!("{ok}/{}", rows.len()),
                f2(achieved),
                format!("{clock:.0}"),
                format!("{} distinct", fps.len()),
            ]);
        }
    }
    println!("{}", table.render());

    for r in &reports {
        record.push(
            RunRecord::new()
                .param("task", &r.spec.task)
                .param("family", r.spec.family.name())
                .param("n", r.n)
                .param("seed", r.spec.seed)
                .metric("success", if r.success { 1.0 } else { 0.0 })
                .metric("achieved", r.achieved)
                .metric("clock_total", r.clock_total as f64)
                .metric("clock_done", r.clock_done.map(|c| c as f64).unwrap_or(-1.0))
                .metric("simulated_steps", r.stats.simulated_steps as f64)
                .metric("events", r.events as f64),
        );
    }
    record.note(format!(
        "{} specs over {} tasks × 3 families, one typed entry point, zero hand-wired sims",
        reports.len(),
        driver.registry().len()
    ));
    record.note(format!("parallel sweep verified byte-identical to sequential on {check} specs"));
    print_notes(&record);
    record
}
