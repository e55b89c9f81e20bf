//! The sweep vocabulary: (scenario × size × seed) cells, the façade spec
//! each cell denotes, and the rows a sweep's reports become.
//!
//! Every cell is a pure function of its [`CellSpec`] — the graph, the event
//! script, and the simulator seed all derive from one mixed cell seed (see
//! [`radionet_api::seeds`]) — and a cell *is* a named [`RunSpec`]
//! ([`spec_for_cell`]). A sweep therefore runs through the one sweep loop,
//! [`Driver::run_sweep`](radionet_api::Driver::run_sweep), which emits the
//! same bytes whatever its block size or executor; experiment E14
//! (`exp E14`) asserts exactly that before writing records. What the cells
//! return is pinned by the golden results fixture
//! (`tests/golden_reports.rs`).

use crate::catalogue::Scenario;
use radionet_analysis::{ExperimentRecord, RunRecord};
use radionet_api::seeds;
use radionet_api::{RunReport, RunSpec};
use radionet_sim::{Kernel, SimStats};
use serde::{Deserialize, Serialize};

/// A sweep: every scenario crossed with every size, `seeds` times.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// The scenarios to run.
    pub scenarios: Vec<Scenario>,
    /// Requested graph sizes.
    pub sizes: Vec<usize>,
    /// Seeds per (scenario, size) cell.
    pub seeds: u64,
    /// Master seed mixed into every cell.
    pub base_seed: u64,
}

impl SweepConfig {
    /// The full catalogue at the given sizes.
    pub fn catalogue(sizes: Vec<usize>, seeds: u64, base_seed: u64) -> Self {
        SweepConfig { scenarios: Scenario::catalogue(), sizes, seeds, base_seed }
    }

    /// Expands the sweep into its cells, in deterministic order.
    pub fn cells(&self) -> Vec<CellSpec> {
        self.cells_iter().collect()
    }

    /// Lazily yields the sweep's cells in the same deterministic order as
    /// [`SweepConfig::cells`], without materializing them.
    pub fn cells_iter(&self) -> impl Iterator<Item = CellSpec> + '_ {
        self.scenarios.iter().flat_map(move |scenario| {
            self.sizes.iter().flat_map(move |&n| {
                (0..self.seeds).map(move |rep| CellSpec {
                    scenario: scenario.clone(),
                    n,
                    rep,
                    cell_seed: seeds::seed_for(self.base_seed, &scenario.name, n, rep),
                })
            })
        })
    }

    /// The sweep's cells as façade specs under `kernel`, lazily and in
    /// cell order: the stream to hand
    /// [`Driver::run_sweep`](radionet_api::Driver::run_sweep), so a sweep
    /// of any length holds only one block of specs at a time.
    pub fn specs(&self, kernel: Kernel) -> impl Iterator<Item = RunSpec> + '_ {
        self.cells_iter().map(move |cell| spec_for_cell(&cell, kernel))
    }

    /// The sweep rows of `reports`, the reports of a sweep over
    /// [`SweepConfig::specs`] in cell order.
    pub fn results(&self, reports: &[RunReport]) -> Vec<CellResult> {
        self.cells_iter().zip(reports).map(|(cell, r)| cell_result_from_report(&cell, r)).collect()
    }
}

/// One runnable cell.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellSpec {
    /// The scenario.
    pub scenario: Scenario,
    /// Requested size.
    pub n: usize,
    /// Repetition index within the cell.
    pub rep: u64,
    /// The mixed seed all randomness derives from.
    pub cell_seed: u64,
}

/// The measured outcome of one cell.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// Scenario name.
    pub scenario: String,
    /// Family name.
    pub family: String,
    /// Workload name.
    pub workload: String,
    /// Dynamics name.
    pub dynamics: String,
    /// Actual node count.
    pub n: usize,
    /// Repetition index.
    pub rep: u64,
    /// Diameter of the instantiated base graph.
    pub d: u32,
    /// α estimate of the base graph.
    pub alpha: f64,
    /// Events in the materialized script.
    pub events: usize,
    /// Whether the workload's own success criterion held (all informed /
    /// valid MIS / unique agreed leader).
    pub success: bool,
    /// Workload-specific achievement in `[0, 1]`: informed fraction for
    /// broadcast and leader election, 1/0 validity for MIS.
    pub achieved: f64,
    /// Total clock at exit (simulated + charged).
    pub clock_total: u64,
    /// Clock when the success criterion was first met, if ever.
    pub clock_done: Option<u64>,
    /// Engine counters.
    pub stats: SimStats,
}

/// Builds the sweep row a [`RunReport`] denotes for `cell`.
pub fn cell_result_from_report(cell: &CellSpec, report: &RunReport) -> CellResult {
    CellResult {
        scenario: cell.scenario.name.clone(),
        family: cell.scenario.family.name().to_string(),
        workload: cell.scenario.workload.name().to_string(),
        dynamics: cell.scenario.dynamics.name().to_string(),
        n: report.n,
        rep: cell.rep,
        d: report.d,
        alpha: report.alpha,
        events: report.events,
        success: report.success,
        achieved: report.achieved,
        clock_total: report.clock_total,
        clock_done: report.clock_done,
        stats: report.stats,
    }
}

/// The façade spec a cell denotes: same family, reception, dynamics, and
/// cell seed, with the workload mapped to its task-registry key.
pub fn spec_for_cell(cell: &CellSpec, kernel: Kernel) -> RunSpec {
    RunSpec {
        task: cell.scenario.workload.name().to_string(),
        family: cell.scenario.family,
        n: cell.n,
        reception: cell.scenario.reception.clone(),
        kernel,
        dynamics: cell.scenario.dynamics,
        steps: None,
        journal: None,
        traffic: None,
        seed: cell.cell_seed,
    }
}

/// Converts results into the analysis layer's row type.
pub fn to_run_records(results: &[CellResult]) -> Vec<RunRecord> {
    results
        .iter()
        .map(|r| {
            RunRecord::new()
                .param("scenario", &r.scenario)
                .param("family", &r.family)
                .param("workload", &r.workload)
                .param("dynamics", &r.dynamics)
                .param("n", r.n)
                .param("rep", r.rep)
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

/// Packages a finished sweep as an [`ExperimentRecord`].
pub fn to_record(id: &str, claim: &str, results: &[CellResult]) -> ExperimentRecord {
    let mut record = ExperimentRecord::new(id, claim);
    for run in to_run_records(results) {
        record.push(run);
    }
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{Dynamics, PartitionSpec, Workload};
    use radionet_api::{Driver, Executor, MemorySink};
    use radionet_graph::families::Family;
    use radionet_sim::ReceptionMode;

    fn tiny_config() -> SweepConfig {
        SweepConfig {
            scenarios: vec![
                Scenario {
                    name: "t-static".into(),
                    family: Family::Grid,
                    workload: Workload::Broadcast,
                    reception: ReceptionMode::Protocol,
                    dynamics: Dynamics::Static,
                },
                Scenario {
                    name: "t-split".into(),
                    family: Family::Grid,
                    workload: Workload::Broadcast,
                    reception: ReceptionMode::Protocol,
                    dynamics: Dynamics::PartitionRepair(PartitionSpec {
                        parts: 2,
                        at: 0.05,
                        heal_at: 0.35,
                    }),
                },
            ],
            sizes: vec![36],
            seeds: 2,
            base_seed: 3,
        }
    }

    /// The sweep's rows, through the one sweep loop in blocks of `chunk`.
    fn sweep(cfg: &SweepConfig, chunk: usize) -> Vec<CellResult> {
        let mut sink = MemorySink::default();
        let specs = cfg.specs(Kernel::default());
        Driver::standard().run_sweep(specs, chunk, &Executor::Threads, &mut sink).unwrap();
        cfg.results(&sink.reports)
    }

    #[test]
    fn cells_are_deterministic_and_distinct() {
        let cfg = tiny_config();
        let a = cfg.cells();
        let b = cfg.cells();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        let mut seeds: Vec<u64> = a.iter().map(|c| c.cell_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "cell seeds collide");
    }

    #[test]
    fn cell_seed_pins_the_shared_derivation() {
        // The extracted `seeds::seed_for` must keep producing the exact
        // values the runner's private derivation always produced (the
        // companion pin for `seeds::tests::pinned_values`).
        let cfg = tiny_config();
        assert_eq!(cfg.cells()[0].cell_seed, 0xafd9_5556_08f2_5d31);
    }

    /// The spec derived from a cell carries the cell seed verbatim, so the
    /// derived sub-seeds (graph, events, sim, lottery) cannot drift.
    #[test]
    fn cell_spec_round_trips_the_seed() {
        let cfg = SweepConfig::catalogue(vec![36], 1, 7);
        for (cell, spec) in cfg.cells().iter().zip(cfg.specs(Kernel::default())) {
            assert_eq!(spec, spec_for_cell(cell, Kernel::default()));
            assert_eq!(spec.seed, cell.cell_seed);
            assert_eq!(spec.task, cell.scenario.workload.name());
            assert_eq!(spec.family, cell.scenario.family);
            assert_eq!(spec.dynamics, cell.scenario.dynamics);
        }
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        // Determinism here is by construction (cells are pure functions of
        // their specs), so the check holds for any worker count; genuinely
        // multi-threaded scheduling is exercised by the vendored rayon's
        // own tests, which force a 4-worker pool explicitly.
        let cfg = tiny_config();
        let seq = sweep(&cfg, 1);
        let par = sweep(&cfg, 64);
        assert_eq!(seq, par);
        let a = serde_json::to_string_pretty(&to_run_records(&seq)).unwrap();
        let b = serde_json::to_string_pretty(&to_run_records(&par)).unwrap();
        assert_eq!(a, b, "runner outputs must be byte-identical");
    }

    #[test]
    fn static_broadcast_succeeds() {
        let results = sweep(&tiny_config(), 1);
        for r in results.iter().filter(|r| r.scenario == "t-static") {
            assert!(r.success, "static broadcast failed: {r:?}");
            assert!((r.achieved - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn records_carry_the_sweep() {
        let results = sweep(&tiny_config(), 64);
        let record = to_record("ES", "scenario sweep", &results);
        assert_eq!(record.runs.len(), results.len());
        assert_eq!(record.runs[0].params["scenario"], "t-static");
        assert!(record.runs[0].metrics.contains_key("clock_total"));
        // Scheduler telemetry makes sweeps auditable: every row states
        // how much scheduling work it really did.
        assert!(record.runs[0].metrics.contains_key("scheduler_events"));
        assert!(record.runs[0].metrics.contains_key("silent_steps_skipped"));
        // No row carries a cache metric: sweep rows are direct runs.
        assert!(!record.runs[0].metrics.contains_key("cache_hit"));
    }
}
