//! The sweep runner: fans (scenario × size × seed) cells across cores.
//!
//! Every cell is a pure function of its [`CellSpec`] — the graph, the event
//! script, and the simulator seed all derive from one mixed cell seed (see
//! [`radionet_api::seeds`]) — so the rayon-parallel runner produces
//! **byte-identical** results to the sequential one, in the same order.
//! Experiment E14 (`exp E14`) asserts exactly that before writing records.
//!
//! Since the façade redesign, a cell *is* a named [`RunSpec`]:
//! [`run_cell`] converts via
//! [`spec_for_cell`] and delegates to [`Driver::run`]. The pre-façade
//! hand-wired implementation is kept frozen as [`run_cell_reference`], and
//! the `facade_equiv` integration suite pins the two paths byte-identical
//! (reports *and* RNG fingerprints) across the whole catalogue, under both
//! kernels.

use crate::catalogue::{Scenario, Workload};
use crate::dynamics::DynamicTopology;
use radionet_analysis::{ExperimentRecord, RunRecord};
use radionet_api::seeds;
use radionet_api::{Driver, RunSpec};
use radionet_core::broadcast::run_broadcast;
use radionet_core::compete::CompeteConfig;
use radionet_core::leader_election::{run_leader_election, LeaderElectionConfig};
use radionet_core::mis::{run_radio_mis, MisConfig};
use radionet_sim::{Kernel, NetInfo, Sim, SimStats};
use rayon::prelude::*;
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
    /// [`SweepConfig::cells`], without materializing them — the CLI
    /// streams arbitrarily large sweeps through this.
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
    /// Whether any phase fell back from the sparse to the dense kernel.
    /// Lifted out of [`SimStats::kernel_fallbacks`] so sweep rows surface
    /// a per-cell fallback without digging into the nested counters — a
    /// silent per-cell fallback would otherwise only be visible on
    /// single-run CLI output.
    pub fell_back: bool,
    /// `Some(hit)` when the cell was served through a content-addressed
    /// result cache (`radionet-service`): `true` means the report came
    /// straight from the cache, `false` means it executed fresh and was
    /// inserted. `None` for direct (uncached) runs — which is also what
    /// pre-service recorded rows deserialize to.
    pub cache_hit: Option<bool>,
    /// Engine counters.
    pub stats: SimStats,
}

/// Builds the sweep row a [`Driver`] report denotes for `cell`, tagging it
/// with how it was served (`cache_hit`). Shared by the direct runner below
/// and the service layer's cached cell runner, so the two row shapes can
/// never drift apart.
pub fn cell_result_from_report(
    cell: &CellSpec,
    report: &radionet_api::RunReport,
    cache_hit: Option<bool>,
) -> CellResult {
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
        fell_back: report.stats.kernel_fallbacks > 0,
        cache_hit,
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

/// Runs one cell. Pure: identical `spec` ⇒ identical result.
pub fn run_cell(spec: &CellSpec) -> CellResult {
    run_cell_kernel(spec, Kernel::default())
}

/// Runs one cell under an explicit step [`Kernel`]: a thin adapter that
/// converts to a [`RunSpec`] and delegates to the façade [`Driver`]. Both
/// kernels produce identical results — the scenario-level `kernel_equiv`
/// tests assert this across the whole catalogue.
pub fn run_cell_kernel(spec: &CellSpec, kernel: Kernel) -> CellResult {
    let report = Driver::standard()
        .run(&spec_for_cell(spec, kernel))
        .expect("catalogue cells are valid specs");
    cell_result_from_report(spec, &report, None)
}

/// The **frozen pre-façade implementation** of a cell, kept verbatim as the
/// differential oracle for [`run_cell_kernel`]: the `facade_equiv` suite
/// asserts the façade path reproduces this hand-wired pipeline
/// bit-for-bit — same [`CellResult`] *and* same per-node RNG fingerprint —
/// for every catalogue entry under both kernels. Not for new callers.
pub fn run_cell_reference(spec: &CellSpec, kernel: Kernel) -> (CellResult, u64) {
    let sc = &spec.scenario;
    let graph_seed = seeds::mix(spec.cell_seed ^ 0x6a);
    let g = sc.family.instantiate(spec.n, graph_seed);
    let info = NetInfo::exact(&g);
    let events = sc.events_for(&g, &info, seeds::mix(spec.cell_seed ^ 0xe7));
    let n_events = events.len();
    let topo = DynamicTopology::new(&g, events);
    let sim_seed = seeds::mix(spec.cell_seed ^ 0x51);
    let mut sim = Sim::with_topology(&g, topo, info, sim_seed, sc.reception.clone());
    sim.set_kernel(kernel);

    let (success, achieved, clock_done) = match sc.workload {
        Workload::Broadcast => {
            let out = run_broadcast(&mut sim, g.node(0), 42, &CompeteConfig::default());
            let informed =
                out.compete.best.iter().filter(|b| **b == Some(42)).count() as f64 / g.n() as f64;
            (out.completed(), informed, out.completion_time())
        }
        Workload::LeaderElection => {
            let out = run_leader_election(
                &mut sim,
                seeds::mix(spec.cell_seed ^ 0x1e),
                &LeaderElectionConfig::default(),
            );
            let agree = match out.leader {
                Some(id) => {
                    out.compete.best.iter().filter(|b| **b == Some(id)).count() as f64
                        / g.n() as f64
                }
                None => 0.0,
            };
            (out.succeeded(), agree, out.compete.clock_all_informed)
        }
        Workload::Mis => {
            let out = run_radio_mis(&mut sim, &MisConfig::default());
            let valid = out.is_valid(&g);
            let done = valid.then(|| sim.clock());
            (valid, if valid { 1.0 } else { 0.0 }, done)
        }
        Workload::Traffic => panic!(
            "the frozen reference pipeline predates traffic workloads; traffic cells \
             run only through the façade (run_cell_kernel)"
        ),
    };

    let result = CellResult {
        scenario: sc.name.clone(),
        family: sc.family.name().to_string(),
        workload: sc.workload.name().to_string(),
        dynamics: sc.dynamics.name().to_string(),
        n: g.n(),
        rep: spec.rep,
        d: info.d,
        alpha: info.alpha,
        events: n_events,
        success,
        achieved,
        clock_total: sim.clock(),
        clock_done,
        fell_back: sim.stats().kernel_fallbacks > 0,
        cache_hit: None,
        stats: *sim.stats(),
    };
    (result, sim.rng_fingerprint())
}

/// Runs the sweep on the current thread, in cell order.
pub fn run_sweep_sequential(config: &SweepConfig) -> Vec<CellResult> {
    config.cells().iter().map(run_cell).collect()
}

/// Runs the sweep on all cores (rayon), preserving cell order.
///
/// Because cells are seeded from their spec alone, the output is
/// byte-identical to [`run_sweep_sequential`] for the same config.
pub fn run_sweep_parallel(config: &SweepConfig) -> Vec<CellResult> {
    config.cells().into_par_iter().map(|spec| run_cell(&spec)).collect()
}

/// Converts results into the analysis layer's row type.
pub fn to_run_records(results: &[CellResult]) -> Vec<RunRecord> {
    results
        .iter()
        .map(|r| {
            let record = RunRecord::new()
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
                .metric("fell_back", if r.fell_back { 1.0 } else { 0.0 })
                .metric("kernel_fallbacks", r.stats.kernel_fallbacks as f64)
                .metric("simulated_steps", r.stats.simulated_steps as f64)
                .metric("transmissions", r.stats.transmissions as f64)
                .metric("deliveries", r.stats.deliveries as f64)
                .metric("collisions", r.stats.collisions as f64)
                .metric("scheduler_events", r.stats.scheduler_events as f64)
                .metric("silent_steps_skipped", r.stats.silent_steps_skipped as f64);
            // A cell served through a result cache carries its hit/miss as
            // a 1/0 metric; direct runs omit it (the ingest aggregations
            // skip rows without a metric), so a hit-rate summary over a
            // service-served sweep counts exactly the served cells.
            match r.cache_hit {
                Some(hit) => record.metric("cache_hit", if hit { 1.0 } else { 0.0 }),
                None => record,
            }
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
    use crate::catalogue::{Dynamics, PartitionSpec};
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

    #[test]
    fn parallel_matches_sequential_exactly() {
        // Determinism here is by construction (cells are pure functions of
        // their specs), so the check holds for any worker count; genuinely
        // multi-threaded scheduling is exercised by the vendored rayon's
        // own tests, which force a 4-worker pool explicitly.
        let cfg = tiny_config();
        let seq = run_sweep_sequential(&cfg);
        let par = run_sweep_parallel(&cfg);
        assert_eq!(seq, par);
        let a = serde_json::to_string_pretty(&to_run_records(&seq)).unwrap();
        let b = serde_json::to_string_pretty(&to_run_records(&par)).unwrap();
        assert_eq!(a, b, "runner outputs must be byte-identical");
    }

    #[test]
    fn static_broadcast_succeeds() {
        let cfg = tiny_config();
        let results = run_sweep_sequential(&cfg);
        for r in results.iter().filter(|r| r.scenario == "t-static") {
            assert!(r.success, "static broadcast failed: {r:?}");
            assert!((r.achieved - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn facade_path_matches_reference_on_tiny_cells() {
        // The exhaustive catalogue × kernel sweep lives in
        // `tests/facade_equiv.rs`; this is the fast in-crate guard.
        for cell in tiny_config().cells() {
            let (reference, _fp) = run_cell_reference(&cell, Kernel::default());
            assert_eq!(run_cell(&cell), reference, "façade diverged in {}", cell.scenario.name);
        }
    }

    #[test]
    fn records_carry_the_sweep() {
        let cfg = tiny_config();
        let results = run_sweep_sequential(&cfg);
        let record = to_record("ES", "scenario sweep", &results);
        assert_eq!(record.runs.len(), results.len());
        assert_eq!(record.runs[0].params["scenario"], "t-static");
        assert!(record.runs[0].metrics.contains_key("clock_total"));
        // Kernel-fallback telemetry reaches every sweep row, not just
        // single-run CLI output.
        assert_eq!(record.runs[0].metrics["fell_back"], 0.0);
        assert_eq!(record.runs[0].metrics["kernel_fallbacks"], 0.0);
        assert!(!results[0].fell_back, "protocol-mode grid cells never fall back");
        // Event-kernel telemetry makes service-served sweeps auditable:
        // every row states how much scheduling work it really did.
        assert!(record.runs[0].metrics.contains_key("scheduler_events"));
        assert!(record.runs[0].metrics.contains_key("silent_steps_skipped"));
        // Direct (uncached) runs carry no cache metric at all…
        assert!(!record.runs[0].metrics.contains_key("cache_hit"));
        // …while served cells surface their hit/miss as 1/0.
        let mut served = results[0].clone();
        served.cache_hit = Some(true);
        let row = &to_record("ES", "served", &[served]).runs[0];
        assert_eq!(row.metrics["cache_hit"], 1.0);
    }
}
