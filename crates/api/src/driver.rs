//! The single execution entry point: [`Driver::run`] turns a [`RunSpec`]
//! into a [`RunReport`].

use crate::dynamics::DynamicTopology;
use crate::registry::TaskRegistry;
use crate::seeds;
use crate::spec::{Dynamics, RunSpec};
use crate::task::{Task, TaskCtx, TaskOutcome};
use crate::topology::RunTopology;
use radionet_graph::Graph;
use radionet_journal::{Journal, JournalSummary, Recorder};
use radionet_mobility::{MobileTopology, MobilityTrace};
use radionet_sim::{
    NetInfo, Observed, Observer, PositionSource, Quiet, ReceptionMode, Registry, Sim, SimStats,
};
use radionet_telemetry::Stopwatch;
use radionet_traffic::TrafficReport;
use serde::{Deserialize, Serialize};

/// Why a spec could not be run (or a sweep could not be recorded).
#[derive(Debug)]
pub enum RunError {
    /// The spec failed structural or task-specific validation.
    InvalidSpec(String),
    /// The task key is not in the registry.
    UnknownTask(String),
    /// A [`ResultSink`](crate::ResultSink) failed to record a report.
    Sink(std::io::Error),
    /// A sweep's `--worker` subprocess failed. The text names the cause:
    /// the failing cell's own error, or the executable and what went wrong
    /// with it.
    Worker(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::InvalidSpec(why) => write!(f, "invalid spec: {why}"),
            RunError::UnknownTask(key) => {
                write!(f, "unknown task {key:?} (try `radionet list-tasks`)")
            }
            RunError::Sink(e) => write!(f, "result sink failed: {e}"),
            RunError::Worker(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for RunError {}

impl From<std::io::Error> for RunError {
    fn from(e: std::io::Error) -> Self {
        RunError::Sink(e)
    }
}

/// The version of what runs return. Bump it with every change that moves
/// the bytes of a [`RunReport`]: an algorithm, a counter, a seed stream or
/// the encoding. Persisted results record it, and a store written under
/// another version is not served (see the `radionet-service` cache); the
/// golden results fixture pins it together with its own digest.
pub const RESULTS_VERSION: u32 = 1;

/// The unified result of one run: the spec echoed back, the instantiated
/// network's parameters, the task's [`TaskOutcome`], and the engine's
/// counters — everything a sweep row or a regression fingerprint needs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// The spec that produced this report.
    pub spec: RunSpec,
    /// Actual node count (families may round the requested size).
    pub n: usize,
    /// Diameter of the instantiated base graph.
    pub d: u32,
    /// α estimate of the base graph.
    pub alpha: f64,
    /// Events in the materialized dynamics script.
    pub events: usize,
    /// The task's own summary.
    pub outcome: TaskOutcome,
    /// Whether the task's success criterion held.
    pub success: bool,
    /// Task-specific achievement in `[0, 1]`.
    pub achieved: f64,
    /// Clock when the success criterion was first met, if ever.
    pub clock_done: Option<u64>,
    /// Total clock at exit (simulated + charged).
    pub clock_total: u64,
    /// Engine counters.
    pub stats: SimStats,
    /// Digest of all per-node RNG states at exit: two runs consumed
    /// identical randomness iff their fingerprints match.
    pub rng_fingerprint: u64,
    /// Mobility runs only: spatial-index work counters plus the
    /// time-resolved α-bounds/diameter samples recorded as the nodes
    /// moved. `None` for scripted dynamics.
    pub mobility: Option<MobilityTrace>,
    /// Journaled runs only ([`Driver::run_journaled`]): per-class event
    /// counters and the rolling digest of the recording. `None` for runs
    /// that record no journal.
    pub journal: Option<JournalSummary>,
    /// Traffic runs only (`traffic.*` tasks): the delivery ledger's
    /// summary — throughput and exact nearest-rank latency percentiles.
    /// A convenience copy of the [`TaskOutcome::Traffic`] payload, so
    /// aggregation code reads one field instead of matching the enum.
    /// `None` for every other task.
    pub traffic: Option<TrafficReport>,
}

/// One fully materialized cell, ready for a simulator under any observer.
struct Materialized<'d> {
    task: &'d dyn Task,
    g: Graph,
    info: NetInfo,
    topo: RunTopology,
    n_events: usize,
    reception: ReceptionMode,
    ctx: TaskCtx,
}

/// Assembles the [`RunReport`] all driver entry points share (without a
/// journal summary; [`Driver::run_journaled`] adds its own).
fn assemble_report<O: Observer>(
    spec: &RunSpec,
    g: &Graph,
    info: NetInfo,
    n_events: usize,
    sim: &Sim<'_, RunTopology, O>,
    outcome: TaskOutcome,
) -> RunReport {
    RunReport {
        spec: spec.clone(),
        n: g.n(),
        d: info.d,
        alpha: info.alpha,
        events: n_events,
        success: outcome.success(),
        achieved: outcome.achieved(),
        clock_done: outcome.clock_done(),
        traffic: match outcome {
            TaskOutcome::Traffic(t) => Some(t),
            _ => None,
        },
        outcome,
        clock_total: sim.clock(),
        stats: *sim.stats(),
        rng_fingerprint: sim.rng_fingerprint(),
        mobility: sim.topology().mobile().map(MobileTopology::to_trace),
        journal: None,
    }
}

/// Executes [`RunSpec`]s against a [`TaskRegistry`].
///
/// The driver owns the whole cell pipeline — family instantiation,
/// [`NetInfo`] measurement, dynamics materialization, simulator and kernel
/// setup — and delegates only the algorithm itself to the task, so every
/// algorithm in the workspace runs under the exact same harness:
///
/// ```
/// use radionet_api::{Driver, Dynamics, RunSpec};
/// use radionet_graph::families::Family;
///
/// let driver = Driver::standard();
/// let spec = RunSpec::new("mis", Family::UnitDisk, 64)
///     .with_dynamics(Dynamics::preset("churn").unwrap())
///     .with_seed(3);
/// let report = driver.run(&spec).unwrap();
/// assert_eq!(report.spec, spec);
/// assert!(report.clock_total > 0);
/// ```
#[derive(Default)]
pub struct Driver {
    registry: TaskRegistry,
    /// Attached telemetry. A process-level property, never part of the
    /// [`RunSpec`]: cache keys, echoed specs, and reports are identical
    /// with or without it (the `telemetry_equivalence` test pins this).
    tel: Option<Registry>,
}

impl Driver {
    /// A driver over [`TaskRegistry::standard`].
    pub fn standard() -> Self {
        Driver { registry: TaskRegistry::standard(), tel: None }
    }

    /// A driver over a custom registry.
    pub fn with_registry(registry: TaskRegistry) -> Self {
        Driver { registry, tel: None }
    }

    /// Attaches a telemetry registry: every subsequent [`Driver::run`] and
    /// [`Driver::run_journaled`] records wall-clock stage timings (setup /
    /// simulate / report) and the engine's kernel metrics into it.
    /// Telemetry observes and never steers — reports, RNG streams and
    /// journals stay byte-identical.
    pub fn with_telemetry(mut self, tel: Registry) -> Self {
        self.tel = Some(tel);
        self
    }

    /// The attached telemetry registry, if any.
    pub fn telemetry(&self) -> Option<&Registry> {
        self.tel.as_ref()
    }

    /// The registry this driver resolves task keys against.
    pub fn registry(&self) -> &TaskRegistry {
        &self.registry
    }

    /// Runs one spec to completion.
    ///
    /// Pure: identical specs yield bit-identical reports (the scenario
    /// crate's golden results fixture pins them for the whole catalogue,
    /// under both kernels). A spec's `journal` section is
    /// ignored here; use [`Driver::run_journaled`] to record. Without
    /// telemetry the simulator runs on the [`Quiet`] observer, so every
    /// observer site compiles out (the E21 bench smoke pins the overhead
    /// at zero).
    pub fn run(&self, spec: &RunSpec) -> Result<RunReport, RunError> {
        let report = match &self.tel {
            None => self.execute(spec, |_| Ok(Quiet), |task, sim, ctx| task.run(sim, ctx))?.0,
            Some(tel) => {
                let obs = Observed { journal: None, metrics: Some(tel.clone()) };
                self.execute(spec, |_| Ok(obs), |task, sim, ctx| task.run_observed(sim, ctx))?.0
            }
        };
        Ok(report)
    }

    /// Runs one spec with a live [`Recorder`], returning the report (its
    /// `journal` field filled with the recording's [`JournalSummary`]) and
    /// the frozen [`Journal`] itself. The journal embeds the spec, so
    /// [`replay`](crate::journal::replay) can re-drive it later from the
    /// serialized document alone. With telemetry attached, the same run
    /// also records its metrics.
    ///
    /// The spec's `journal` section selects the class filter and waypoint
    /// cadence; a missing section records everything with the derived
    /// default cadence. The recorded event stream is pure in the spec; of
    /// the journal's fields only `wall_nanos` is not.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Driver::run`].
    pub fn run_journaled(&self, spec: &RunSpec) -> Result<(RunReport, Journal), RunError> {
        let started = std::time::Instant::now();
        let observe = |m: &Materialized<'_>| {
            let jspec = spec.journal.clone().unwrap_or_default();
            let mask = jspec.mask().map_err(RunError::InvalidSpec)?;
            let cadence = jspec.cadence(m.task.timebase(&m.info));
            Ok(Observed { journal: Some(Recorder::new(mask, cadence)), metrics: self.tel.clone() })
        };
        let (report, obs) =
            self.execute(spec, observe, |task, sim, ctx| task.run_observed(sim, ctx))?;
        let journal = obs.journal.expect("a journaled run records").into_journal(
            concat!("radionet ", env!("CARGO_PKG_VERSION")),
            spec.kernel.name(),
            Some(spec.to_value()),
            report.rng_fingerprint,
            started.elapsed().as_nanos() as u64,
        );
        let report = RunReport { journal: Some(journal.summary()), ..report };
        Ok((report, journal))
    }

    /// The one run body every entry point shares: materialize the cell,
    /// build the simulator around the observer `observe` makes for it, let
    /// the task `run` on it, and assemble the report. With telemetry
    /// attached, the setup (materialization and simulator construction),
    /// simulate and report stages are timed into the registry; the
    /// simulator records the kernel-level metrics through its observer.
    fn execute<O: Observer>(
        &self,
        spec: &RunSpec,
        observe: impl FnOnce(&Materialized<'_>) -> Result<O, RunError>,
        run: impl FnOnce(&dyn Task, &mut Sim<'_, RunTopology, O>, &TaskCtx) -> TaskOutcome,
    ) -> Result<(RunReport, O), RunError> {
        let tel = self.tel.as_ref();
        let total = Stopwatch::start(tel.is_some());
        let setup = Stopwatch::start(tel.is_some());
        let m = self.materialize(spec)?;
        let obs = observe(&m)?;
        let mut sim =
            Sim::try_observed(&m.g, m.topo, m.info, seeds::sim_seed(spec.seed), m.reception, obs)
                .map_err(|e| RunError::InvalidSpec(e.to_string()))?;
        sim.set_kernel(spec.kernel);
        setup.stop(tel, "driver_setup_micros");
        let simulate = Stopwatch::start(tel.is_some());
        let outcome = run(m.task, &mut sim, &m.ctx);
        simulate.stop(tel, "driver_simulate_micros");
        let assemble = Stopwatch::start(tel.is_some());
        let report = assemble_report(spec, &m.g, m.info, m.n_events, &sim, outcome);
        assemble.stop(tel, "driver_report_micros");
        total.stop(tel, "driver_run_micros");
        if let Some(tel) = tel {
            tel.count("driver_runs", 1);
        }
        Ok((report, sim.into_observer()))
    }

    /// Everything [`Driver::run`] does before a simulator exists:
    /// validation, task lookup, family instantiation, [`NetInfo`]
    /// measurement, dynamics materialization, and SINR position
    /// resolution. Every entry point goes through it, so a journaled or
    /// timed run drives the exact same cell as a plain one.
    fn materialize(&self, spec: &RunSpec) -> Result<Materialized<'_>, RunError> {
        spec.validate().map_err(RunError::InvalidSpec)?;
        let task = self
            .registry
            .get(&spec.task)
            .ok_or_else(|| RunError::UnknownTask(spec.task.clone()))?;
        task.check_spec(spec).map_err(RunError::InvalidSpec)?;

        // Mobility derives the topology from the moving point set; every
        // scripted recipe (static is an empty script) uses the overlay.
        // Both arms instantiate *positioned* (same random stream as
        // `instantiate`, pinned by the families tests), so a
        // `PositionSource::Geometry` SINR spec can be resolved from the
        // family's own embedding without hand-shipped coordinates.
        let (g, info, topo, n_events, reception) = match &spec.dynamics {
            Dynamics::Mobility(m) => {
                let positioned =
                    spec.family.instantiate_positioned(spec.n, seeds::graph_seed(spec.seed));
                // `spec.validate()` above already rejected families without
                // an embedding (`Family::has_embedding` ⇔ geometry present,
                // pinned by the families tests).
                let geometry = positioned
                    .geometry
                    .expect("validate() guarantees an embedding for mobility specs");
                let mut mobile = MobileTopology::new(
                    &geometry,
                    m.model,
                    m.tick.max(1),
                    seeds::mobility_seed(spec.seed),
                );
                // The run's base graph is the derived t = 0 topology (for
                // the deterministic rules it equals the generated graph;
                // the quasi gray zone is re-realized by the pair coin).
                let g = mobile.initial_graph();
                let info = NetInfo::exact(&g);
                // `None` → the driver's default cadence; `Some(0)` → the
                // explicit off switch (no trace samples, no sampling cost).
                let cadence = match m.sample_every {
                    None => Some((task.timebase(&info) / 8).max(1)),
                    Some(0) => None,
                    Some(every) => Some(every),
                };
                mobile.set_sample_every(cadence);
                // SINR over mobility reads the live moving point set each
                // step (`validate()` already rejected a frozen snapshot).
                let reception = match spec.reception.clone() {
                    ReceptionMode::Sinr(mut cfg) => {
                        cfg.positions = PositionSource::Live;
                        ReceptionMode::Sinr(cfg)
                    }
                    other => other,
                };
                (g, info, RunTopology::Mobile(mobile), 0usize, reception)
            }
            _ => {
                let positioned =
                    spec.family.instantiate_positioned(spec.n, seeds::graph_seed(spec.seed));
                let g = positioned.graph;
                // Resolve the SINR position source against the
                // *instantiated* graph (families may round the requested
                // n, so counts are only checkable here); `Geometry`
                // becomes a snapshot of the family's own embedding.
                let reception = match spec.reception.clone() {
                    ReceptionMode::Sinr(mut cfg) => {
                        match cfg.positions {
                            PositionSource::Snapshot(ref points) => {
                                if points.len() != g.n() {
                                    return Err(RunError::InvalidSpec(format!(
                                        "SINR reception carries {} positions but {} \
                                         instantiates {} nodes (requested n = {})",
                                        points.len(),
                                        spec.family.name(),
                                        g.n(),
                                        spec.n
                                    )));
                                }
                            }
                            PositionSource::Geometry => {
                                // `spec.validate()` above already rejected
                                // Geometry sources on families without an
                                // embedding (`has_embedding` ⇔ geometry
                                // present, pinned by the families tests).
                                let geometry = positioned.geometry.expect(
                                    "validate() guarantees an embedding for \
                                     geometry-sourced SINR specs",
                                );
                                cfg.positions = PositionSource::Snapshot(geometry.points);
                            }
                            PositionSource::Live => {
                                unreachable!(
                                    "validate() rejects live SINR positions without \
                                     mobility dynamics"
                                )
                            }
                        }
                        ReceptionMode::Sinr(cfg)
                    }
                    other => other,
                };
                let info = NetInfo::exact(&g);
                let events = spec.dynamics.events_for(
                    &g,
                    task.timebase(&info),
                    seeds::events_seed(spec.seed),
                );
                let n_events = events.len();
                let topo = RunTopology::Scripted(DynamicTopology::new(&g, events));
                (g, info, topo, n_events, reception)
            }
        };
        let ctx = TaskCtx {
            seed: spec.seed,
            lottery_seed: seeds::lottery_seed(spec.seed),
            step_cap: spec.steps,
            traffic: spec.traffic,
        };
        Ok(Materialized { task, g, info, topo, n_events, reception, ctx })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_graph::families::Family;
    use radionet_sim::ReceptionMode;

    #[test]
    fn unknown_task_is_reported() {
        let err = Driver::standard().run(&RunSpec::new("nope", Family::Grid, 16)).unwrap_err();
        assert!(matches!(err, RunError::UnknownTask(_)), "{err}");
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn specs_that_cannot_run_are_invalid_not_panics() {
        use crate::{Dynamics, MobilitySpec, PartitionSpec};
        use radionet_mobility::{MobilityModel, WaypointParams};
        let driver = Driver::standard();
        let partition =
            |parts| Dynamics::PartitionRepair(PartitionSpec { parts, at: 0.05, heal_at: 0.35 });
        let stalled = Dynamics::Mobility(MobilitySpec {
            model: MobilityModel::RandomWaypoint(WaypointParams {
                speed_lo: 0.0,
                speed_hi: 0.08,
                pause_lo: 10,
                pause_hi: 60,
                range: 0.0,
            }),
            tick: 1,
            sample_every: None,
        });
        // Each SINR parameter is valid, but the decode range overflows; or
        // every coordinate is finite, but the padded bounding box is not.
        let mut overflowing = radionet_sim::SinrConfig::geometric();
        overflowing.path_loss = 1e-5;
        overflowing.noise = 0.1;
        let far_apart: Vec<[f64; 3]> =
            (0..36).map(|i| [if i % 2 == 0 { -1e308 } else { 1e308 }, 0.0, 0.0]).collect();
        let far_apart = radionet_sim::SinrConfig::for_unit_range(far_apart, 1.0);
        let specs = [
            RunSpec::new("broadcast", Family::RandomRegular, 4),
            RunSpec::new("broadcast", Family::Grid, 36).with_dynamics(partition(0)),
            RunSpec::new("broadcast", Family::Grid, 36).with_dynamics(partition(1)),
            RunSpec::new("broadcast", Family::UnitDisk, 36).with_dynamics(stalled),
            RunSpec::new("broadcast", Family::UnitDisk, 36)
                .with_reception(ReceptionMode::Sinr(overflowing)),
            RunSpec::new("broadcast", Family::UnitDisk, 36)
                .with_reception(ReceptionMode::Sinr(far_apart)),
        ];
        for spec in specs {
            let err = driver.run(&spec).unwrap_err();
            assert!(matches!(err, RunError::InvalidSpec(_)), "{err}");
        }
        // The size floor is per family: random-regular runs from n = 5.
        driver.run(&RunSpec::new("broadcast", Family::RandomRegular, 5)).unwrap();
    }

    #[test]
    fn cd_wakeup_requires_cd_reception() {
        let driver = Driver::standard();
        let spec = RunSpec::new("cd-wakeup", Family::Path, 16);
        let err = driver.run(&spec).unwrap_err();
        assert!(matches!(err, RunError::InvalidSpec(_)), "{err}");
        let report =
            driver.run(&spec.with_reception(ReceptionMode::ProtocolCd)).expect("CD spec runs");
        assert!(report.success);
        assert_eq!(report.clock_done, Some(15), "path wake-up takes exactly D steps");
    }

    #[test]
    fn sinr_position_mismatch_is_a_clean_error() {
        use radionet_sim::SinrConfig;
        // Grid rounds 40 → 36 nodes, so 40 positions must be rejected
        // before the engine's exact-equality assert can fire.
        let spec = RunSpec::new("broadcast", Family::Grid, 40).with_reception(ReceptionMode::Sinr(
            SinrConfig::for_unit_range(vec![(0.0, 0.0); 40], 1.0),
        ));
        let err = Driver::standard().run(&spec).unwrap_err();
        assert!(matches!(err, RunError::InvalidSpec(_)), "{err}");
        assert!(err.to_string().contains("36 nodes"), "{err}");
    }

    #[test]
    fn sinr_geometry_source_resolves_from_the_family_embedding() {
        use radionet_sim::SinrConfig;
        // No hand-shipped coordinates: the driver materializes the point
        // set the family generated (works even though UnitDisk may round
        // or retry — the count always matches by construction).
        let spec = RunSpec::new("broadcast", Family::UnitDisk, 48)
            .with_seed(5)
            .with_reception(ReceptionMode::Sinr(SinrConfig::geometric()));
        let report = Driver::standard().run(&spec).unwrap();
        assert!(report.success, "geometry-calibrated SINR broadcast on a UDG completes");
        assert!(report.stats.deliveries > 0);
        assert_eq!(report.stats.kernel_fallbacks, 0, "sparse SINR must not fall back");
        assert_eq!(report.spec, spec, "resolution must not leak into the echoed spec");
    }

    #[test]
    fn sinr_geometry_source_needs_an_embedding() {
        use radionet_sim::SinrConfig;
        let spec = RunSpec::new("broadcast", Family::Hypercube, 64)
            .with_reception(ReceptionMode::Sinr(SinrConfig::geometric()));
        let err = Driver::standard().run(&spec).unwrap_err();
        assert!(matches!(err, RunError::InvalidSpec(_)), "{err}");
        assert!(err.to_string().contains("embedding"), "{err}");
    }

    #[test]
    fn sinr_live_source_needs_mobility() {
        use radionet_sim::{PositionSource, SinrConfig};
        let spec = RunSpec::new("broadcast", Family::UnitDisk, 48).with_reception(
            ReceptionMode::Sinr(SinrConfig::for_unit_range(PositionSource::Live, 1.0)),
        );
        let err = Driver::standard().run(&spec).unwrap_err();
        assert!(matches!(err, RunError::InvalidSpec(_)), "{err}");
        assert!(err.to_string().contains("mobility"), "{err}");
    }

    #[test]
    fn sinr_kernels_identical_on_static_geometry() {
        use radionet_sim::{Kernel, SinrConfig};
        let driver = Driver::standard();
        let spec = RunSpec::new("broadcast", Family::UnitDisk, 64)
            .with_seed(7)
            .with_reception(ReceptionMode::Sinr(SinrConfig::geometric()));
        let sparse = driver.run(&spec.clone().with_kernel(Kernel::Sparse)).unwrap();
        let dense = driver.run(&spec.with_kernel(Kernel::Dense)).unwrap();
        assert_eq!(sparse.outcome, dense.outcome);
        assert_eq!(sparse.stats.deliveries, dense.stats.deliveries);
        assert_eq!(sparse.stats.collisions, dense.stats.collisions);
        assert_eq!(sparse.rng_fingerprint, dense.rng_fingerprint);
    }

    #[test]
    fn identical_specs_identical_reports() {
        let driver = Driver::standard();
        let spec = RunSpec::new("broadcast", Family::Grid, 25).with_seed(11);
        let a = driver.run(&spec).unwrap();
        let b = driver.run(&spec).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.rng_fingerprint, b.rng_fingerprint);
    }

    /// The contract the `Driver::tel` field documents: attaching a
    /// registry changes nothing observable about a run. Reports —
    /// including RNG fingerprints — are bit-identical with telemetry on
    /// and off, across tasks, kernels, and dynamics. (The E21 bench smoke
    /// re-checks this at larger sizes on every CI run, plus the
    /// wall-clock overhead bound.)
    #[test]
    fn telemetry_equivalence() {
        use crate::Dynamics;
        use radionet_sim::{Kernel, Registry};
        let specs = [
            RunSpec::new("broadcast", Family::Grid, 36).with_seed(7),
            RunSpec::new("mis", Family::UnitDisk, 49).with_seed(3).with_kernel(Kernel::Dense),
            RunSpec::new("leader-election", Family::Grid, 25)
                .with_seed(1)
                .with_kernel(Kernel::Event),
            RunSpec::new("broadcast", Family::UnitDisk, 49)
                .with_seed(5)
                .with_dynamics(Dynamics::preset("churn").unwrap()),
        ];
        for spec in specs {
            let plain = Driver::standard().run(&spec).unwrap();
            let tel = Registry::default();
            let timed = Driver::standard().with_telemetry(tel.clone()).run(&spec).unwrap();
            assert_eq!(plain, timed, "telemetry changed the report for {:?}", spec.task);
            // And the registry really observed the run: the driver stages
            // and the engine's per-phase clock all recorded samples.
            let snap = tel.snapshot();
            assert_eq!(snap.counter("driver_runs"), Some(1), "{:?}", spec.task);
            for name in [
                "driver_setup_micros",
                "driver_simulate_micros",
                "driver_report_micros",
                "driver_run_micros",
                "sim_phase_micros",
            ] {
                assert!(
                    snap.histograms.iter().any(|h| h.name == name && h.count > 0),
                    "no {name} samples for {:?}",
                    spec.task
                );
            }
        }
    }
}
