//! The metric catalogue, the per-layer accumulator, and the result a
//! workload hands back to `main` for printing.
//!
//! `BENCHMARK.json` at the repository root lists the gated end-to-end
//! metrics and every per-layer metric; the tables here are the same lists
//! with their units, and a test keeps the two in step.

use radionet_analysis::Summary;
use std::collections::{BTreeMap, BTreeSet};

/// The end-to-end metrics on the last line under `--trace 0`, in
/// `BENCHMARK.json` order: `(name, unit)`. Every workload measures each of
/// them, none is ever 0, and their seed-to-seed spread stays inside their
/// bounds.
pub const END_TO_END: &[(&str, &str)] = &[("wall_s", "s"), ("setup_s", "s")];

/// End-to-end metrics printed in the human-readable record of the workloads
/// they apply to, but not on the last line. `ops_per_s` is a pass's fixed
/// operation count over `wall_s`, so it carries no signal of its own;
/// `sim_steps`, `steps_per_s` and `success_frac` are fixed by the seed's
/// random choices and spread by up to two thirds from seed to seed (they
/// move only with a declared model change, which compares them seed by
/// seed); `peak_rss_mb` on `paper-grid` spreads by about a quarter between
/// seeds; `op_p50_ms` and `op_p99_ms` exist only for `serve-mixed`, the
/// `msg_*` ledger metrics only for `traffic-churn`; `error_rate` is 0 by
/// design and is carried on the last line as `failed / attempted`.
pub const END_TO_END_EXTRA: &[(&str, &str)] = &[
    ("ops_per_s", "op/s"),
    ("peak_rss_mb", "MB"),
    ("sim_steps", "steps"),
    ("steps_per_s", "steps/s"),
    ("success_frac", "fraction"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("msg_latency_p99_steps", "steps"),
    ("msg_delivered_per_kstep", "msgs/kstep"),
    ("error_rate", "fraction"),
];

/// Every per-layer metric, in `BENCHMARK.json` order: `(name, unit)`. Each
/// is named after the crate whose work it measures; a layer a workload
/// does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.instantiate_s", "s"),
    ("graph.netinfo_s", "s"),
    ("graph.diameter_s", "s"),
    ("graph.alpha_s", "s"),
    ("graph.edges", "count"),
    ("graph.alpha_ratio", "ratio"),
    ("api.setup_s", "s"),
    ("api.simulate_s", "s"),
    ("api.report_s", "s"),
    ("api.task_outside_phase_s", "s"),
    ("api.events", "count"),
    ("api.events_s", "s"),
    ("api.report_encode_s", "s"),
    ("api.report_bytes", "bytes"),
    ("sim.phase_s", "s"),
    ("sim.phases", "count"),
    ("sim.reception_s", "s"),
    ("sim.topology_advance_s", "s"),
    ("sim.act_sched_s", "s"),
    ("sim.sinr_grid_rebuilds", "count"),
    ("sim.sinr_grid_rebuild_s", "s"),
    ("sim.us_per_step", "us"),
    ("sim.ring_peak_frac", "fraction"),
    ("sim.heap_peak", "entries"),
    ("sim.simulated_steps", "steps"),
    ("sim.charged_steps", "steps"),
    ("sim.transmissions", "count"),
    ("sim.deliveries", "count"),
    ("sim.collisions", "count"),
    ("sim.scheduler_events", "count"),
    ("sim.silent_steps_skipped", "steps"),
    ("sim.peak_step_transmissions", "count"),
    ("sim.deliveries_per_tx", "ratio"),
    ("sim.skip_frac", "fraction"),
    ("sim.kernel_fallbacks", "count"),
    ("mobility.rows_recomputed", "rows"),
    ("mobility.cell_crossings", "count"),
    ("mobility.rows_per_step", "rows/step"),
    ("mobility.samples", "count"),
    ("traffic.plan_s", "s"),
    ("traffic.injected", "msgs"),
    ("traffic.delivered", "msgs"),
    ("traffic.undelivered", "msgs"),
    ("traffic.delivered_frac", "fraction"),
    ("service.hit_p50_ms", "ms"),
    ("service.miss_p50_ms", "ms"),
    ("service.wire_p50_ms", "ms"),
    ("service.request_p50_ms", "ms"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.queue_wait_p99_ms", "ms"),
    ("service.job_run_p50_ms", "ms"),
    ("service.cache_serve_s", "s"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("service.hit_ratio", "fraction"),
    ("service.cache_evictions", "count"),
    ("service.cache_audits", "count"),
    ("service.audit_failures", "count"),
    ("service.rejected", "count"),
    ("telemetry.overhead_frac", "fraction"),
];

/// One reported number and how many samples it summarises.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sampled {
    pub value: f64,
    pub samples: usize,
}

impl Sampled {
    pub fn new(value: f64, samples: usize) -> Sampled {
        Sampled { value, samples }
    }

    /// The median of per-pass values.
    pub fn median_of(values: &[f64]) -> Sampled {
        Sampled { value: Summary::of(values).median, samples: values.len() }
    }
}

/// What one workload run hands back: operation counts, broken output
/// invariants, and the metrics by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations issued: `Driver::run` calls or `submit` round trips.
    pub attempted: u64,
    /// Operations that returned an error (a `RunError`, a transport error,
    /// `ok: false`, or a job that did not finish).
    pub failed: u64,
    /// Broken program invariants, deduplicated; any entry makes the run
    /// incorrect.
    pub violations: BTreeSet<String>,
    /// End-to-end metrics of the untraced passes.
    pub end_to_end: BTreeMap<&'static str, Sampled>,
    /// Per-layer metrics of the traced passes (empty under `--trace 0`).
    pub layers: BTreeMap<&'static str, Sampled>,
    /// Human-readable lines printed above the result: cells, accounting.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer values of one traced pass, accumulated over its cells.
#[derive(Clone, Debug, Default)]
pub struct LayerAcc(BTreeMap<&'static str, f64>);

impl LayerAcc {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.0.entry(name).or_insert(0.0);
        *e = e.max(v);
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Folds a cell's values into a pass: peaks and ratios keep the
    /// largest, everything else adds up.
    pub fn absorb(&mut self, other: &LayerAcc) {
        for (&name, &v) in &other.0 {
            if PEAKS.contains(&name) {
                self.max(name, v);
            } else {
                self.add(name, v);
            }
        }
    }
}

/// Per-layer metrics a pass reports as the largest value over its cells.
const PEAKS: [&str; 4] =
    ["graph.alpha_ratio", "sim.ring_peak_frac", "sim.heap_peak", "sim.peak_step_transmissions"];

/// Medians, metric by metric, of the per-layer values of several traced
/// passes. Every catalogue metric is present; one no pass recorded is 0.
pub fn layer_medians(passes: &[LayerAcc]) -> BTreeMap<&'static str, Sampled> {
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let values: Vec<f64> = passes.iter().map(|p| p.get(name)).collect();
            (name, Sampled::median_of(&values))
        })
        .collect()
}

/// Peak resident memory of this process in MB, from `/proc/self/status`
/// (`VmHWM`); `None` where the platform does not expose it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the catalogues above name the same metrics with
    /// the same units, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(serde_json::Value::Array(items)) = doc.get(key) else {
                panic!("BENCHMARK.json has no {key} list")
            };
            items
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(serde_json::Value::Str(n)), Some(serde_json::Value::Str(u))) => {
                        (n.clone(), u.clone())
                    }
                    _ => panic!("{key} entry without name and unit"),
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
    }
}
