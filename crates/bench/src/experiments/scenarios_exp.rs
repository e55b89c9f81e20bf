//! E14 — dynamic-network scenarios: how the α-parametrized algorithms
//! degrade (and recover) under churn, partitions, jamming, and staggered
//! wake-up, swept in parallel.

use super::{banner, print_notes};
use crate::Scale;
use radionet_analysis::ingest::group_summaries;
use radionet_analysis::table::f2;
use radionet_analysis::{ExperimentRecord, RunRecord, Table};
use radionet_api::{Driver, MemorySink, RunReport, SweepConfig};
use radionet_sim::Kernel;

/// Scenario sweep sizes (smaller than the static sweeps: every cell runs a
/// full multi-phase algorithm under perturbation).
fn sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![48, 96],
        Scale::Full => vec![64, 256, 1024],
    }
}

/// The sweep's reports through [`Driver::run_sweep`] on the rayon pool,
/// `chunk` cells at a time (1 = sequential).
fn sweep(config: &SweepConfig, chunk: usize) -> Vec<RunReport> {
    let mut sink = MemorySink::default();
    Driver::standard()
        .run_sweep(config.specs(Kernel::default()), chunk, &mut sink)
        .expect("catalogue cells are valid specs");
    sink.reports
}

/// The record rows of `reports`, the reports of a sweep over `config` in
/// cell order: each cell's label and spec, with its outcome and engine
/// counters.
fn rows(config: &SweepConfig, reports: &[RunReport]) -> Vec<RunRecord> {
    config
        .cells(Kernel::default())
        .zip(reports)
        .map(|((scenario, rep, _), r)| {
            RunRecord::new()
                .param("scenario", scenario)
                .param("family", r.spec.family.name())
                .param("workload", &r.spec.task)
                .param("dynamics", r.spec.dynamics.name())
                .param("n", r.n)
                .param("rep", rep)
                .metric("d", r.d as f64)
                .metric("alpha", r.alpha)
                .metric("events", r.events as f64)
                .metric("success", if r.success { 1.0 } else { 0.0 })
                .metric("achieved", r.achieved)
                .metric("clock_total", r.clock_total as f64)
                .metric("clock_done", r.clock_done.map(|c| c as f64).unwrap_or(-1.0))
                .metric("simulated_steps", r.stats.simulated_steps as f64)
                .metric("transmissions", r.stats.transmissions as f64)
                .metric("deliveries", r.stats.deliveries as f64)
                .metric("collisions", r.stats.collisions as f64)
                .metric("scheduler_events", r.stats.scheduler_events as f64)
                .metric("silent_steps_skipped", r.stats.silent_steps_skipped as f64)
        })
        .collect()
}

/// E14 — the scenario sweep. Runs the full catalogue as one rayon block,
/// cross-checks a Quick-scale slice against a sequential sweep
/// (byte-identical results), and reports per-scenario success and timing.
pub fn e14_scenarios(scale: Scale) -> ExperimentRecord {
    let claim = "Dynamic networks: guarantee degradation under churn, partition/repair, jamming";
    banner("E14", claim);
    let config = SweepConfig::catalogue(sizes(scale), scale.seeds().min(3), 0xd1ce);
    let cell_count = config.specs(Kernel::default()).count();
    eprintln!("running {cell_count} cells on {} threads", rayon::current_num_threads());
    let results = sweep(&config, cell_count);

    // Determinism cross-check: the parallel sweep must reproduce the
    // sequential one bit-for-bit on a slice (full set at Quick scale).
    let check = if scale == Scale::Quick {
        config.clone()
    } else {
        SweepConfig { sizes: vec![sizes(Scale::Quick)[0]], ..config.clone() }
    };
    let seq = sweep(&check, 1);
    let par = if scale == Scale::Quick { results.clone() } else { sweep(&check, cell_count) };
    assert_eq!(seq, par, "parallel sweep diverged from sequential");

    let rows = rows(&config, &results);
    let mut record = ExperimentRecord::new("E14", claim);
    for row in &rows {
        record.push(row.clone());
    }

    let mut table =
        Table::new(["scenario", "workload", "n", "ok", "achieved", "clock (mean)", "collisions"]);
    let groups = group_summaries(&rows, &["scenario", "n"], "clock_total");
    for (label, clock) in &groups {
        let (scenario, n) = label.split_once('/').unwrap_or((label.as_str(), "?"));
        let in_group: Vec<_> = rows
            .iter()
            .filter(|r| {
                r.params.get("scenario").map(String::as_str) == Some(scenario)
                    && r.params.get("n").map(String::as_str) == Some(n)
            })
            .collect();
        let k = in_group.len().max(1) as f64;
        let ok = in_group.iter().filter(|r| r.metrics["success"] == 1.0).count();
        let achieved = in_group.iter().map(|r| r.metrics["achieved"]).sum::<f64>() / k;
        let collisions = in_group.iter().map(|r| r.metrics["collisions"]).sum::<f64>() / k;
        let workload =
            in_group.first().and_then(|r| r.params.get("workload").cloned()).unwrap_or_default();
        table.row([
            scenario.to_string(),
            workload,
            n.to_string(),
            format!("{ok}/{}", in_group.len()),
            f2(achieved),
            format!("{:.0}", clock.mean),
            format!("{collisions:.0}"),
        ]);
    }
    println!("{}", table.render());

    // Notes: static cells are the control; each dynamics class reports its
    // worst-case achieved fraction.
    for dynamics in ["static", "churn", "partition-repair", "jamming", "staggered-wake"] {
        let achieved: Vec<f64> = rows
            .iter()
            .filter(|r| r.params.get("dynamics").map(String::as_str) == Some(dynamics))
            .map(|r| r.metrics["achieved"])
            .collect();
        if achieved.is_empty() {
            continue;
        }
        let worst = achieved.iter().cloned().fold(f64::INFINITY, f64::min);
        let mean = achieved.iter().sum::<f64>() / achieved.len() as f64;
        record.note(format!(
            "{dynamics}: mean achieved {mean:.2}, worst {worst:.2} over {} cells",
            achieved.len()
        ));
    }
    record.note(format!(
        "parallel sweep verified byte-identical to sequential on {} cells",
        seq.len()
    ));
    print_notes(&record);
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_api::{Dynamics, Scenario};
    use radionet_graph::families::Family;

    #[test]
    fn records_carry_the_sweep() {
        let static_grid = Scenario {
            name: "t-static".into(),
            family: Family::Grid,
            task: "broadcast".into(),
            reception: radionet_sim::ReceptionMode::Protocol,
            dynamics: Dynamics::Static,
        };
        let config =
            SweepConfig { scenarios: vec![static_grid], sizes: vec![36], seeds: 2, base_seed: 3 };
        let reports = sweep(&config, 64);
        let rows = rows(&config, &reports);
        assert_eq!(rows.len(), reports.len());
        assert_eq!(rows[1].params["scenario"], "t-static");
        assert_eq!(rows[1].params["workload"], "broadcast");
        assert_eq!(rows[1].params["rep"], "1");
        assert!(rows[0].metrics.contains_key("clock_total"));
        // Scheduler telemetry makes sweeps auditable: every row states
        // how much scheduling work it really did.
        assert!(rows[0].metrics.contains_key("scheduler_events"));
        assert!(rows[0].metrics.contains_key("silent_steps_skipped"));
        // No row carries a cache metric: sweep rows are direct runs.
        assert!(!rows[0].metrics.contains_key("cache_hit"));
    }
}
