//! The run workloads (`paper-grid`, `geo-physical`, `traffic-churn`):
//! passes of `Driver::run` over the workload's cells.
//!
//! An untraced pass replays each cell's setup through the public calls the
//! driver makes before its first simulated step (timed as `setup_s`), then
//! times one plain `Driver::run` per cell (`wall_s`). A traced pass repeats
//! the replay with a timer per step, splits `NetInfo::exact` into the two
//! calls it makes, times the traffic plan and the report encoding, and runs
//! each cell through a driver carrying a fresh telemetry `Registry`, whose
//! stage and kernel timings it reads back. Every pass, traced or not, must
//! reproduce the first pass's reports byte for byte.

use crate::checks::{self, encode};
use crate::metrics::{ratio, LayerAcc, Outcome, Sampled};
use crate::workloads::{self, Scale, Workload};
use radionet_analysis::Summary;
use radionet_api::{seeds, Driver, Dynamics, RunReport, RunSpec, TrafficKind};
use radionet_graph::{independent_set, traversal, Graph};
use radionet_mobility::MobileTopology;
use radionet_sim::{NetInfo, Registry};
use radionet_traffic::TrafficPlan;
use std::hint::black_box;
use std::time::Instant;

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The work `Driver::run` does before a cell's first simulated step,
/// replayed from outside the driver, with each step's wall time.
struct Setup {
    instantiate_s: f64,
    mobility_s: f64,
    netinfo_s: f64,
    events_s: f64,
    events: usize,
    graph: Graph,
    info: NetInfo,
}

impl Setup {
    fn total_s(&self) -> f64 {
        self.instantiate_s + self.mobility_s + self.netinfo_s + self.events_s
    }
}

/// Replays a cell's setup: `Family::instantiate_positioned`, then
/// `MobileTopology::new` and `initial_graph` for mobility cells, then
/// `NetInfo::exact`, then `Dynamics::events_for` for scripted cells.
fn setup(driver: &Driver, spec: &RunSpec) -> Result<Setup, String> {
    let task =
        driver.registry().get(&spec.task).ok_or_else(|| format!("unknown task {}", spec.task))?;
    let t = Instant::now();
    let positioned = spec.family.instantiate_positioned(spec.n, seeds::graph_seed(spec.seed));
    let instantiate_s = secs(t);
    let t = Instant::now();
    let (graph, mobility_s) = match spec.dynamics {
        Dynamics::Mobility(m) => {
            let geometry = positioned.geometry.ok_or("a mobility cell needs an embedding")?;
            let mobile = MobileTopology::new(
                &geometry,
                m.model,
                m.tick.max(1),
                seeds::mobility_seed(spec.seed),
            );
            (mobile.initial_graph(), secs(t))
        }
        _ => (positioned.graph, 0.0),
    };
    let t = Instant::now();
    let info = NetInfo::exact(&graph);
    let netinfo_s = secs(t);
    let (events, events_s) = if matches!(spec.dynamics, Dynamics::Mobility(_)) {
        (0, 0.0)
    } else {
        let t = Instant::now();
        let script =
            spec.dynamics.events_for(&graph, task.timebase(&info), seeds::events_seed(spec.seed));
        (script.len(), secs(t))
    };
    Ok(Setup { instantiate_s, mobility_s, netinfo_s, events_s, events, graph, info })
}

/// The α search budget `NetInfo::exact` passes to
/// `independent_set::alpha_bounds` for an n-node graph. A copy of the
/// program's private table: [`traced_cell`] checks that the split it times
/// reproduces `NetInfo::exact`, so a stale copy breaks the run.
fn alpha_budget(n: usize) -> u64 {
    match n {
        0..=64 => 500_000,
        65..=128 => 50_000,
        _ => 2_000,
    }
}

fn traffic_kind(task: &str) -> Option<TrafficKind> {
    [TrafficKind::Gossip, TrafficKind::Unicast, TrafficKind::Multicast]
        .into_iter()
        .find(|k| task.strip_prefix("traffic.") == Some(k.name()))
}

/// Everything one run has recorded so far: the counts and violations that
/// end up in the result, and each cell's first report, which every later
/// pass must reproduce.
struct Book {
    cells: Vec<RunSpec>,
    reference: Vec<Option<String>>,
    out: Outcome,
}

impl Book {
    fn new(cells: Vec<RunSpec>) -> Book {
        let reference = vec![None; cells.len()];
        Book { cells, reference, out: Outcome::default() }
    }

    /// Counts one `Driver::run` of cell `i` and checks its report.
    fn record(&mut self, i: usize, result: Result<RunReport, String>) -> Option<RunReport> {
        self.out.attempted += 1;
        let spec = &self.cells[i];
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                self.out.failed += 1;
                self.out.notes.push(format!("error: {}: {e}", checks::label(spec)));
                return None;
            }
        };
        self.out.violations.extend(checks::report_invariants(spec, &report));
        let bytes = encode(&report);
        match &self.reference[i] {
            None => self.reference[i] = Some(bytes),
            Some(first) if *first != bytes => {
                self.out
                    .violations
                    .insert(format!("{}: the report differs between passes", checks::label(spec)));
            }
            Some(_) => {}
        }
        Some(report)
    }
}

/// After a pass, further replays of all cells' setup run until this much
/// time has gone into replays, so a workload whose setup takes milliseconds
/// still gets a median over many samples.
const MIN_SETUP_REPLAY_S: f64 = 0.25;

/// The end-to-end values of one untraced pass.
struct Pass {
    /// `setup_s` of each replay of all cells' setup.
    setup_s: Vec<f64>,
    /// Wall time of each cell's `Driver::run`.
    op_s: Vec<f64>,
    /// Each cell's report; `None` where the run failed.
    reports: Vec<Option<RunReport>>,
}

impl Pass {
    fn wall_s(&self) -> f64 {
        self.op_s.iter().sum()
    }

    fn ok(&self) -> impl Iterator<Item = &RunReport> {
        self.reports.iter().flatten()
    }

    fn sim_steps(&self) -> f64 {
        self.ok().map(|r| r.clock_total as f64).sum()
    }
}

/// Replays the setup of every cell once; `None` (with the violation
/// recorded) when a replay fails.
fn replay_all(driver: &Driver, book: &mut Book) -> Option<f64> {
    let mut total = 0.0;
    for spec in &book.cells {
        match setup(driver, spec) {
            Ok(s) => total += black_box(s).total_s(),
            Err(e) => {
                let cell = checks::label(spec);
                book.out.violations.insert(format!("{cell}: setup replay: {e}"));
                return None;
            }
        }
    }
    Some(total)
}

/// One untraced pass. Each cell's setup replay runs right before its
/// `Driver::run`, as in a traced pass, so both find the caches equally warm.
fn untraced_pass(driver: &Driver, book: &mut Book) -> Pass {
    let mut replay = Some(0.0);
    let mut op_s = Vec::new();
    let mut reports = Vec::new();
    for i in 0..book.cells.len() {
        replay = match (replay, setup(driver, &book.cells[i])) {
            (Some(sum), Ok(s)) => Some(sum + black_box(s).total_s()),
            (_, Err(e)) => {
                let cell = checks::label(&book.cells[i]);
                book.out.violations.insert(format!("{cell}: setup replay: {e}"));
                None
            }
            (None, Ok(_)) => None,
        };
        let t = Instant::now();
        let result = driver.run(&book.cells[i]).map_err(|e| e.to_string());
        op_s.push(secs(t));
        reports.push(book.record(i, result));
    }
    let mut setup_s: Vec<f64> = replay.into_iter().collect();
    while !setup_s.is_empty() && setup_s.iter().sum::<f64>() < MIN_SETUP_REPLAY_S {
        match replay_all(driver, book) {
            Some(s) => setup_s.push(s),
            None => break,
        }
    }
    Pass { setup_s, op_s, reports }
}

/// Per-layer values of one cell's traced run, its traced wall time, and
/// any broken check of the split timing.
pub struct TracedCell {
    pub wall_s: f64,
    pub layers: LayerAcc,
    pub violations: Vec<String>,
}

/// Runs one cell traced: the setup replay with a timer per step, the two
/// halves of `NetInfo::exact`, the traffic plan, then `Driver::run` with a
/// fresh `Registry` and the report's encoding.
pub fn traced_cell(spec: &RunSpec) -> Result<(RunReport, TracedCell), String> {
    let mut acc = LayerAcc::default();
    let s = setup(&Driver::standard(), spec)?;
    acc.add("graph.instantiate_s", s.instantiate_s);
    acc.add("graph.netinfo_s", s.netinfo_s);
    acc.add("api.events_s", s.events_s);
    acc.add("api.events", s.events as f64);
    acc.add("graph.edges", s.graph.m() as f64);
    acc.add(MOBILITY_SETUP_S, s.mobility_s);
    // `NetInfo::exact` is these two calls; time them apart to split it.
    let n = s.graph.n();
    let t = Instant::now();
    let d = if n <= NetInfo::EXACT_DIAMETER_MAX_N {
        traversal::diameter(&s.graph)
    } else {
        traversal::diameter_double_sweep(&s.graph)
    };
    acc.add("graph.diameter_s", secs(t));
    let t = Instant::now();
    let bounds = independent_set::alpha_bounds(&s.graph, alpha_budget(n));
    acc.add("graph.alpha_s", secs(t));
    acc.max("graph.alpha_ratio", ratio(bounds.upper as f64, bounds.lower as f64));
    let mut violations = Vec::new();
    let (split_d, split_alpha) = (d.max(1), bounds.estimate().max(1.0));
    if (split_d, split_alpha) != (s.info.d, s.info.alpha) {
        violations.push(format!(
            "{}: the timed diameter and alpha calls give D = {split_d}, alpha = {split_alpha}, \
             NetInfo::exact gives D = {}, alpha = {}; graph.diameter_s and graph.alpha_s no \
             longer time what NetInfo::exact does",
            checks::label(spec),
            s.info.d,
            s.info.alpha
        ));
    }
    if let Some(kind) = traffic_kind(&spec.task) {
        // The horizon as the traffic task derives it: the spec's step cap
        // shortens it.
        let mut tspec = spec.traffic.unwrap_or_default();
        let horizon = u64::from(tspec.horizon);
        tspec.horizon = spec.steps.map_or(horizon, |cap| cap.min(horizon)).max(1) as u32;
        let t = Instant::now();
        let plan = TrafficPlan::build(&tspec, kind, n as u32, seeds::traffic_seed(spec.seed));
        acc.add("traffic.plan_s", secs(t));
        black_box(plan);
    }
    drop(s);

    let registry = Registry::default();
    let driver = Driver::standard().with_telemetry(registry.clone());
    let t = Instant::now();
    let report = driver.run(spec).map_err(|e| e.to_string())?;
    let wall_s = secs(t);
    let t = Instant::now();
    let bytes = encode(&report);
    acc.add("api.report_encode_s", secs(t));
    acc.add("api.report_bytes", bytes.len() as f64);

    let snap = registry.snapshot();
    let hist = |name: &str| snap.histograms.iter().find(|h| h.name == name);
    let sum_s = |name: &str| hist(name).map_or(0.0, |h| h.sum as f64 * 1e-6);
    let max = |name: &str| hist(name).map_or(0.0, |h| h.max as f64);
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    acc.add("api.setup_s", sum_s("driver_setup_micros"));
    acc.add("api.simulate_s", sum_s("driver_simulate_micros"));
    acc.add("api.report_s", sum_s("driver_report_micros"));
    acc.add("sim.phase_s", sum_s("sim_phase_micros"));
    acc.add("sim.phases", counter("sim_phases"));
    acc.add("sim.reception_s", sum_s("sim_reception_micros"));
    acc.add("sim.topology_advance_s", sum_s("sim_topology_advance_micros"));
    acc.add("sim.sinr_grid_rebuilds", counter("sim_sinr_grid_rebuilds"));
    acc.add("sim.sinr_grid_rebuild_s", sum_s("sim_sinr_grid_rebuild_micros"));
    acc.max("sim.ring_peak_frac", ratio(max("sim_ring_peak"), report.n as f64));
    acc.max("sim.heap_peak", max("sim_heap_peak"));

    let st = &report.stats;
    acc.add("sim.simulated_steps", st.simulated_steps as f64);
    acc.add("sim.charged_steps", st.charged_steps as f64);
    acc.add("sim.transmissions", st.transmissions as f64);
    acc.add("sim.deliveries", st.deliveries as f64);
    acc.add("sim.collisions", st.collisions as f64);
    acc.add("sim.scheduler_events", st.scheduler_events as f64);
    acc.add("sim.silent_steps_skipped", st.silent_steps_skipped as f64);
    acc.max("sim.peak_step_transmissions", st.peak_step_transmissions as f64);
    acc.add("sim.kernel_fallbacks", st.kernel_fallbacks as f64);
    if let Some(m) = &report.mobility {
        acc.add("mobility.rows_recomputed", m.stats.rows_recomputed as f64);
        acc.add("mobility.cell_crossings", m.stats.cell_crossings as f64);
        acc.add("mobility.samples", m.samples.len() as f64);
        acc.add(MOBILITY_STEPS, st.simulated_steps as f64);
    }
    if let Some(t) = &report.traffic {
        acc.add("traffic.injected", t.injected as f64);
        acc.add("traffic.delivered", t.delivered as f64);
        acc.add("traffic.undelivered", t.undelivered as f64);
    }
    Ok((report, TracedCell { wall_s, layers: acc, violations }))
}

/// Accumulators that feed derived metrics but are not metrics themselves.
const MOBILITY_SETUP_S: &str = "_mobility_setup_s";
const MOBILITY_STEPS: &str = "_mobility_steps";

/// Fills in the metrics derived from others once a pass's (or a cell's)
/// sums are complete. Self times are differences of nested timers and may
/// come out negative; they are reported as measured.
pub fn derive(acc: &mut LayerAcc) {
    let phase = acc.get("sim.phase_s");
    let simulated = acc.get("sim.simulated_steps");
    acc.set(
        "sim.act_sched_s",
        phase - acc.get("sim.reception_s") - acc.get("sim.topology_advance_s"),
    );
    acc.set("api.task_outside_phase_s", acc.get("api.simulate_s") - phase);
    acc.set("sim.us_per_step", ratio(phase * 1e6, simulated));
    acc.set(
        "sim.deliveries_per_tx",
        ratio(acc.get("sim.deliveries"), acc.get("sim.transmissions")),
    );
    acc.set("sim.skip_frac", ratio(acc.get("sim.silent_steps_skipped"), simulated));
    acc.set(
        "mobility.rows_per_step",
        ratio(acc.get("mobility.rows_recomputed"), acc.get(MOBILITY_STEPS)),
    );
    acc.set(
        "traffic.delivered_frac",
        ratio(acc.get("traffic.delivered"), acc.get("traffic.injected")),
    );
}

/// One traced pass: per-layer values summed over the cells, each cell's own
/// values (for its layer shares), and the traced `Driver::run` wall time.
struct TracedPass {
    wall_s: f64,
    layers: LayerAcc,
    cells: Vec<(String, TracedCell)>,
}

fn traced_pass(book: &mut Book) -> TracedPass {
    let mut pass = TracedPass { wall_s: 0.0, layers: LayerAcc::default(), cells: Vec::new() };
    for i in 0..book.cells.len() {
        match traced_cell(&book.cells[i]) {
            Ok((report, mut cell)) => {
                book.record(i, Ok(report));
                book.out.violations.extend(cell.violations.drain(..));
                pass.wall_s += cell.wall_s;
                pass.layers.absorb(&cell.layers);
                derive(&mut cell.layers);
                pass.cells.push((checks::label(&book.cells[i]), cell));
            }
            Err(e) => {
                book.record(i, Err(e));
            }
        }
    }
    derive(&mut pass.layers);
    pass
}

/// Shares of a traced wall time taken by the layers each workload is meant
/// to stress, as one line.
fn shares(label: &str, wall_s: f64, l: &LayerAcc) -> String {
    let pct = |v: f64| 100.0 * ratio(v, wall_s);
    format!(
        "{label}: traced wall {wall_s:.4} s | setup {:.1}% (instantiate {:.1}%, alpha {:.1}%, \
         diameter {:.1}%, mobility init {:.1}%) | act+sched {:.1}% | reception {:.1}% | \
         topology advance {:.1}% | outside phases {:.1}%",
        pct(l.get("api.setup_s")),
        pct(l.get("graph.instantiate_s")),
        pct(l.get("graph.alpha_s")),
        pct(l.get("graph.diameter_s")),
        pct(l.get(MOBILITY_SETUP_S)),
        pct(l.get("sim.act_sched_s")),
        pct(l.get("sim.reception_s")),
        pct(l.get("sim.topology_advance_s")),
        pct(l.get("api.task_outside_phase_s")),
    )
}

/// The layer accounting of one traced pass: how much of the driver's own
/// stage time the named layer metrics cover, what remains, any derived self
/// time that came out negative and, for the run workloads, the untraced
/// `setup_s` beside the driver's `api.setup_s`.
pub fn accounting(l: &LayerAcc, untraced_setup_s: Option<f64>) -> Vec<String> {
    let setup = l.get("api.setup_s");
    let simulate = l.get("api.simulate_s");
    let report = l.get("api.report_s");
    let setup_named = l.get("graph.instantiate_s")
        + l.get(MOBILITY_SETUP_S)
        + l.get("graph.netinfo_s")
        + l.get("api.events_s");
    let simulate_named = l.get("sim.phase_s") + l.get("traffic.plan_s");
    let total = setup + simulate + report;
    let named = setup_named + simulate_named;
    let mut lines = vec![
        format!(
            "accounting: api stages {total:.6} s; named layers cover {:.1}%, remainder {:.6} s",
            100.0 * ratio(named, total),
            total - named
        ),
        format!(
            "accounting: api.setup_s {setup:.6} s; instantiate + mobility init + netinfo + \
             events cover {:.1}%, remainder {:.6} s",
            100.0 * ratio(setup_named, setup),
            setup - setup_named
        ),
        format!(
            "accounting: api.simulate_s {simulate:.6} s; sim.phase_s + traffic.plan_s cover \
             {:.1}%, remainder {:.6} s; api.report_s {report:.6} s",
            100.0 * ratio(simulate_named, simulate),
            simulate - simulate_named
        ),
    ];
    if let Some(untraced) = untraced_setup_s {
        lines.push(format!(
            "accounting: untraced setup_s {untraced:.6} s beside the driver's api.setup_s \
             {setup:.6} s (drift {:+.1}%)",
            100.0 * (ratio(untraced, setup) - 1.0)
        ));
    }
    for name in ["sim.act_sched_s", "api.task_outside_phase_s"] {
        if l.get(name) < 0.0 {
            lines.push(format!("accounting: negative self time {name} = {:.6} s", l.get(name)));
        }
    }
    lines
}

/// Runs one run workload for about `seconds`: untraced passes, and with
/// `trace` a traced pass after each of them.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, scale: Scale) -> Outcome {
    let cells = workloads::run_cells(workload, seed, scale);
    let mut book = Book::new(cells);
    for spec in &book.cells {
        book.out.notes.push(format!(
            "cell: {} | {} | {} | {}",
            checks::label(spec),
            spec.dynamics.name(),
            match spec.reception {
                radionet_sim::ReceptionMode::Sinr(_) => "sinr",
                _ => "protocol",
            },
            spec.kernel.name()
        ));
    }
    let driver = Driver::standard();
    let start = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    loop {
        plain.push(untraced_pass(&driver, &mut book));
        if trace {
            traced.push(traced_pass(&mut book));
        }
        // Stop when another round would overrun the budget.
        let elapsed = secs(start);
        if elapsed + elapsed / plain.len() as f64 > seconds {
            break;
        }
    }

    // Reports are identical in every pass (checked above), so the first
    // pass's stand for all of them; times are medians over passes.
    for (i, report) in plain[0].reports.iter().enumerate() {
        let Some(report) = report else { continue };
        let times: Vec<f64> = plain.iter().map(|p| p.op_s[i]).collect();
        book.out.notes.push(format!(
            "result: {} | success {} | clock_total {} | achieved {:.4} | run {:.4} s",
            checks::label(&report.spec),
            report.success,
            report.clock_total,
            report.achieved,
            Summary::of(&times).median
        ));
    }
    let per_pass = |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { plain.iter().map(f).collect() };
    let walls = per_pass(&|p| p.wall_s());
    let e2e = &mut book.out.end_to_end;
    e2e.insert("wall_s", Sampled::median_of(&walls));
    let replays: Vec<f64> = plain.iter().flat_map(|p| p.setup_s.iter().copied()).collect();
    e2e.insert("setup_s", Sampled::median_of(&replays));
    e2e.insert("sim_steps", Sampled::median_of(&per_pass(&|p| p.sim_steps())));
    e2e.insert("steps_per_s", Sampled::median_of(&per_pass(&|p| ratio(p.sim_steps(), p.wall_s()))));
    e2e.insert(
        "ops_per_s",
        Sampled::median_of(&per_pass(&|p| ratio(p.op_s.len() as f64, p.wall_s()))),
    );
    e2e.insert(
        "success_frac",
        Sampled::median_of(&per_pass(&|p| {
            ratio(p.ok().filter(|r| r.success).count() as f64, p.op_s.len() as f64)
        })),
    );
    // The ledger is a pure function of the spec, identical in every pass.
    let ledgers: Vec<_> = plain[0].ok().filter_map(|r| r.traffic).collect();
    if !ledgers.is_empty() {
        let worst_p99 = ledgers.iter().map(|t| t.full_p99).max().unwrap_or(0);
        let throughput: f64 = ledgers.iter().map(|t| t.throughput_per_kstep).sum();
        e2e.insert("msg_latency_p99_steps", Sampled::new(worst_p99 as f64, ledgers.len()));
        e2e.insert("msg_delivered_per_kstep", Sampled::new(throughput, ledgers.len()));
    }

    if trace {
        let passes: Vec<LayerAcc> = traced.iter().map(|p| p.layers.clone()).collect();
        let mut layers = crate::metrics::layer_medians(&passes);
        let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
        let overhead = ratio(Summary::of(&traced_walls).median, Summary::of(&walls).median) - 1.0;
        layers.insert("telemetry.overhead_frac", Sampled::new(overhead, traced.len()));
        // Shares and accounting of the traced pass whose wall is the median.
        let mid = {
            let mut order: Vec<usize> = (0..traced.len()).collect();
            order.sort_by(|&a, &b| traced[a].wall_s.total_cmp(&traced[b].wall_s));
            &traced[order[order.len() / 2]]
        };
        let notes = &mut book.out.notes;
        notes.push(shares(workload.name(), mid.wall_s, &mid.layers));
        for (label, cell) in &mid.cells {
            notes.push(shares(&format!("  {label}"), cell.wall_s, &cell.layers));
        }
        let untraced_setup = book.out.end_to_end["setup_s"].value;
        notes.extend(accounting(&mid.layers, Some(untraced_setup)));
        book.out.layers = layers;
    }
    book.out
}
