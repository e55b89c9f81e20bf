//! E18 — geometry-native SINR: the spatially-indexed sparse physical-
//! reception kernel versus the dense `O(listeners × transmitters)`
//! reference, on static and mobile topologies.
//!
//! Two parts:
//!
//! 1. **Kernel face-off** (all scales, `n ≥ 30 000`): a Decay workload —
//!    a handful of transmitters among tens of thousands of passive
//!    listeners scattered at constant density — runs the same fixed step
//!    budget under both kernels with SINR reception. The dense kernel
//!    evaluates every (listener, transmitter) gain every step; the sparse
//!    kernel resolves reception through the decode-range spatial index,
//!    touching only listeners physically near a transmitter. Reports and
//!    RNG streams are asserted identical and the acceptance bar is a ≥ 5×
//!    wall-clock win — in practice it is orders of magnitude.
//! 2. **Mobility × SINR** end-to-end: a `mobility:waypoint` broadcast
//!    cell with geometry-calibrated SINR runs through `Driver::run` under
//!    both kernels; outcome, kernel-invariant counters, RNG fingerprint,
//!    and the mobility trace are asserted identical.

use super::{banner, print_notes};
use crate::Scale;
use radionet_analysis::table::f1;
use radionet_analysis::{ExperimentRecord, RunRecord, Table};
use radionet_api::{Driver, Dynamics, RunSpec};
use radionet_graph::families::Family;
use radionet_graph::Graph;
use radionet_primitives::decay::{DecayConfig, DecayProtocol, DecaySchedule};
use radionet_sim::{Kernel, NetInfo, PhaseReport, ReceptionMode, Sim, SinrConfig};
use std::time::Instant;

/// Transmitting-set size in the face-off (sparse physical activity).
const FACEOFF_SOURCES: usize = 32;

/// One timed SINR face-off run over an *edgeless* base graph (physical
/// reception ignores adjacency entirely, so this isolates exactly the
/// reception-resolution cost); returns the report, RNG fingerprint, and
/// wall seconds.
fn faceoff_run(
    n: usize,
    positions: &[[f64; 3]],
    kernel: Kernel,
    budget: u64,
) -> (PhaseReport, u64, f64) {
    let g = Graph::from_edges(n, []).expect("edgeless graph");
    let info = NetInfo { n, d: 1, alpha: n as f64 };
    let schedule = DecaySchedule::new(info.log_n());
    let config = DecayConfig { iterations: u32::MAX / schedule.steps_per_iteration() };
    let mode = ReceptionMode::Sinr(SinrConfig::for_unit_range(positions.to_vec(), 1.0));
    let mut sim = Sim::with_reception(&g, info, 0xe18, mode);
    sim.set_kernel(kernel);
    let stride = n / FACEOFF_SOURCES;
    let mut states: Vec<DecayProtocol<u64>> = (0..n)
        .map(|i| {
            let msg = (i % stride == 0).then_some(i as u64);
            DecayProtocol::new(schedule, config, msg)
        })
        .collect();
    let start = Instant::now();
    let rep = sim.run_phase(&mut states, budget);
    (rep, sim.rng_fingerprint(), start.elapsed().as_secs_f64().max(1e-9))
}

/// E18 — SINR reception: spatial-index sparse kernel vs dense reference.
pub fn e18_sinr(scale: Scale) -> ExperimentRecord {
    let claim = "SINR reception: spatially-indexed sparse kernel beats the dense O(L\u{d7}T) scan";
    banner("E18", claim);
    let mut record = ExperimentRecord::new("E18", claim);

    // Part 1: kernel face-off at constant density, n ≥ 30k.
    let n = match scale {
        Scale::Quick => 30_000usize,
        Scale::Full => 100_000,
    };
    let geo = super::udg_geometry(n, 0xe18);
    let budget =
        12 * DecaySchedule::new((n as f64).log2().ceil() as u32).steps_per_iteration() as u64;
    let mut table = Table::new(["part", "kernel", "n", "steps", "deliveries", "wall ms"]);
    let mut walls = [0.0f64; 2];
    let mut outcomes = Vec::new();
    for (k, kernel) in [Kernel::Sparse, Kernel::Dense].into_iter().enumerate() {
        let (rep, fp, wall) = faceoff_run(n, &geo.points, kernel, budget);
        walls[k] = wall;
        table.row([
            "faceoff".into(),
            kernel.name().into(),
            n.to_string(),
            rep.steps.to_string(),
            rep.deliveries.to_string(),
            f1(wall * 1e3),
        ]);
        record.push(
            RunRecord::new()
                .param("part", "faceoff")
                .param("kernel", kernel.name())
                .param("n", n)
                .metric("steps", rep.steps as f64)
                .metric("transmissions", rep.transmissions as f64)
                .metric("deliveries", rep.deliveries as f64)
                .metric("collisions", rep.collisions as f64)
                .metric("wall_ms", wall * 1e3),
        );
        outcomes.push((rep, fp));
    }
    assert_eq!(outcomes[0], outcomes[1], "SINR kernels diverged on the face-off workload");
    assert!(
        outcomes[0].0.deliveries > 0,
        "degenerate face-off: physical reception never delivered"
    );
    let speedup = walls[1] / walls[0];
    // The acceptance bar from the issue: ≥ 5× at ≥ 30k nodes with
    // identical reports. Measured margins are far larger, so a hard
    // assert is safe even on contended hosts.
    assert!(
        speedup >= 5.0,
        "sparse SINR kernel speedup {speedup:.1}x is below the 5x acceptance bar"
    );
    record.note(format!(
        "SINR face-off: sparse {speedup:.1}x faster than dense at n = {n} over {budget} steps \
         ({FACEOFF_SOURCES} sources); reports and RNG streams identical"
    ));

    // Part 2: mobility × SINR end-to-end through the façade. Sizes are
    // modest: a Compete broadcast keeps *many* simultaneous transmitters
    // on the air, so per-step SINR work scales with physical density in
    // both kernels — this part pins end-to-end equality, not throughput
    // (part 1 is the throughput claim).
    let mob_n = match scale {
        Scale::Quick => 1_000usize,
        Scale::Full => 4_000,
    };
    let driver = Driver::standard();
    let spec = RunSpec::new("broadcast", Family::UnitDisk, mob_n)
        .with_seed(0xe18)
        .with_dynamics(Dynamics::preset("mobility:waypoint").expect("standard preset"))
        .with_reception(ReceptionMode::Sinr(SinrConfig::geometric()));
    let mut reports = Vec::new();
    for kernel in [Kernel::Sparse, Kernel::Dense] {
        let start = Instant::now();
        let report = driver
            .run(&spec.clone().with_kernel(kernel))
            .expect("mobility x SINR spec must run end-to-end");
        let wall = start.elapsed().as_secs_f64().max(1e-9);
        table.row([
            "mobility".into(),
            kernel.name().into(),
            report.n.to_string(),
            report.stats.simulated_steps.to_string(),
            report.stats.deliveries.to_string(),
            f1(wall * 1e3),
        ]);
        record.push(
            RunRecord::new()
                .param("part", "mobility")
                .param("kernel", kernel.name())
                .param("n", report.n)
                .metric("steps", report.stats.simulated_steps as f64)
                .metric("deliveries", report.stats.deliveries as f64)
                .metric("informed", report.achieved)
                .metric("wall_ms", wall * 1e3),
        );
        assert_eq!(report.stats.kernel_fallbacks, 0, "sparse SINR must not fall back");
        reports.push(report);
    }
    assert_eq!(reports[0].outcome, reports[1].outcome, "mobility x SINR outcomes diverged");
    // `scheduler_events` and `silent_steps_skipped` depend on the kernel
    // by contract (dense pops no wake heap); every other counter must
    // match.
    assert_eq!(
        reports[0].stats.kernel_invariant(),
        reports[1].stats.kernel_invariant(),
        "mobility x SINR counters diverged"
    );
    assert_eq!(reports[0].rng_fingerprint, reports[1].rng_fingerprint);
    assert_eq!(reports[0].mobility, reports[1].mobility, "mobility traces diverged");
    record.note(format!(
        "mobility x SINR (waypoint UDG, n = {}): sparse and dense reports byte-identical, \
         informed fraction {:.3}",
        reports[0].n, reports[0].achieved
    ));

    println!("{}", table.render());
    print_notes(&record);
    record
}
