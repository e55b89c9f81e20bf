//! E15 — step-kernel throughput: the sparse active-set kernel versus the
//! dense reference kernel on sparse radio workloads, up to million-node
//! broadcast.
//!
//! Two parts:
//!
//! 1. **Kernel face-off** (all scales): a sparse Decay workload — a handful
//!    of transmitters among `n ≈ 100 000` passive listeners — runs the same
//!    fixed step budget under both kernels. The dense kernel pays `Θ(n)`
//!    per step; the sparse kernel pays for the transmitters and their
//!    neighborhoods. Results are asserted identical (the at-scale
//!    differential check) and the speedup is recorded; the acceptance bar
//!    is ≥ 5×, in practice it is orders of magnitude.
//! 2. **Million-node broadcast** (`Full` scale): quiescing Decay flood
//!    (BGI with local termination) on a 1000×1000 grid — the
//!    bounded-independence regime where activity is a thin frontier. The
//!    run must inform every node; throughput is reported in node-steps/s,
//!    where a node-step is one node's worth of dense-equivalent work.

use super::{banner, print_notes};
use crate::Scale;
use radionet_analysis::table::f1;
use radionet_analysis::{ExperimentRecord, RunRecord, Table};
use radionet_graph::generators;
use radionet_graph::Graph;
use radionet_journal::{ClassMask, Recorder};
use radionet_primitives::decay::{DecayConfig, DecayProtocol, DecaySchedule};
use radionet_primitives::flood::FloodProtocol;
use radionet_sim::{
    Kernel, NetInfo, Observed, Observer, PhaseReport, Quiet, ReceptionMode, Sim, StaticTopology,
};
use std::time::Instant;

/// Nodes in the kernel face-off (a 316×316 grid).
pub(super) const FACEOFF_SIDE: usize = 316;
/// Transmitting-set size in the face-off (sparse activity).
const FACEOFF_SOURCES: usize = 32;
/// Timed repetitions of the observer-off probes (E15 journal-off, E21
/// telemetry-off); the minimum wall is compared.
pub(super) const PROBE_RUNS: usize = 5;

/// One timed face-off run; returns the report, RNG fingerprint and wall
/// seconds.
fn faceoff_run(g: &Graph, info: NetInfo, kernel: Kernel, budget: u64) -> (PhaseReport, u64, f64) {
    faceoff_probe(g, info, kernel, budget, 0xe15, Quiet)
}

/// [`faceoff_run`] under an explicit seed and [`Observer`] — the probe the
/// E15 journal-off and E21 telemetry-off guards share: they time the
/// monomorphized-away [`Quiet`] path against a live [`Observed`] one (an
/// empty-mask [`Recorder`], a metrics registry).
pub(super) fn faceoff_probe<O: Observer>(
    g: &Graph,
    info: NetInfo,
    kernel: Kernel,
    budget: u64,
    seed: u64,
    obs: O,
) -> (PhaseReport, u64, f64) {
    let schedule = DecaySchedule::new(info.log_n());
    let config = DecayConfig { iterations: u32::MAX / schedule.steps_per_iteration() };
    let mut sim = Sim::try_observed(g, StaticTopology, info, seed, ReceptionMode::Protocol, obs)
        .expect("protocol-mode construction is infallible");
    sim.set_kernel(kernel);
    let stride = g.n() / FACEOFF_SOURCES;
    let mut states: Vec<DecayProtocol<u64>> = g
        .nodes()
        .map(|v| {
            let msg = (v.index() % stride == 0).then_some(v.index() as u64);
            DecayProtocol::new(schedule, config, msg)
        })
        .collect();
    let start = Instant::now();
    let rep = sim.run_phase(&mut states, budget);
    (rep, sim.rng_fingerprint(), start.elapsed().as_secs_f64().max(1e-9))
}

/// The million-node quiescing-flood broadcast; returns
/// `(n, steps, informed_fraction, wall_secs)`.
fn million_broadcast(side: usize) -> (usize, u64, f64, f64) {
    let g = generators::grid2d(side, side);
    let info = NetInfo::exact(&g);
    let schedule = DecaySchedule::new(info.log_n());
    let mut sim = Sim::new(&g, info, 0x1e6);
    let mut states: Vec<FloodProtocol<u64>> = g
        .nodes()
        .map(|v| {
            FloodProtocol::with_quiesce(schedule, (v.index() == 0).then_some(7), 2 * info.log_n())
        })
        .collect();
    let l = info.log_n() as u64;
    let budget = 16 * (info.d as u64 * l + l * l);
    // One phase: quiescence makes completion engine-detectable (every node
    // informed *and* retired), so no harness-side chunked polling — which
    // would re-scan all n nodes per chunk — is needed.
    let start = Instant::now();
    let rep = sim.run_phase(&mut states, budget);
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    let informed = states.iter().filter(|s| s.best().is_some()).count() as f64 / g.n() as f64;
    (g.n(), rep.steps, informed, wall)
}

/// E15 — sparse step-kernel throughput and the million-node run.
pub fn e15_throughput(scale: Scale) -> ExperimentRecord {
    let claim = "Sparse active-set kernel: step cost tracks radio activity, not n";
    banner("E15", claim);
    let mut record = ExperimentRecord::new("E15", claim);
    let mut table = Table::new(["workload", "kernel", "n", "steps", "wall ms", "Msteps/s (node)"]);

    // Part 1: kernel face-off at n ≈ 100k, fixed step budget.
    let g = generators::grid2d(FACEOFF_SIDE, FACEOFF_SIDE);
    let info = NetInfo::exact(&g);
    let budget = 48 * DecaySchedule::new(info.log_n()).steps_per_iteration() as u64;
    let mut walls = [0.0f64; 2];
    let mut reports = Vec::new();
    for (k, kernel) in [Kernel::Sparse, Kernel::Dense].into_iter().enumerate() {
        let (rep, fp, wall) = faceoff_run(&g, info, kernel, budget);
        walls[k] = wall;
        let node_steps = rep.steps as f64 * g.n() as f64;
        table.row([
            "decay-sparse".into(),
            format!("{kernel:?}").to_lowercase(),
            g.n().to_string(),
            rep.steps.to_string(),
            f1(wall * 1e3),
            f1(node_steps / wall / 1e6),
        ]);
        record.push(
            RunRecord::new()
                .param("workload", "decay-sparse")
                .param("kernel", format!("{kernel:?}").to_lowercase())
                .param("n", g.n())
                .metric("steps", rep.steps as f64)
                .metric("transmissions", rep.transmissions as f64)
                .metric("deliveries", rep.deliveries as f64)
                .metric("wall_ms", wall * 1e3)
                .metric("node_steps_per_sec", node_steps / wall),
        );
        reports.push((rep, fp));
    }
    assert_eq!(reports[0], reports[1], "kernels diverged on the face-off workload");
    let speedup = walls[1] / walls[0];
    record.note(format!(
        "kernel face-off: sparse {speedup:.1}x faster than dense at n = {} over {budget} steps \
         ({} transmitters); reports and RNG streams identical",
        g.n(),
        FACEOFF_SOURCES,
    ));
    // The 5x bar is a soft check: wall-clock ratios on a contended CI
    // runner can flake, and a timing dip must not abort the whole
    // experiment batch (correctness is the hard assert above).
    if speedup < 5.0 {
        record.note(format!(
            "WARNING: measured speedup {speedup:.1}x is below the 5x bar — expected only \
             under heavy host contention; re-run E15 on an idle host"
        ));
        eprintln!("E15: WARNING: sparse/dense speedup {speedup:.1}x below the 5x bar");
    }

    // Part 1b: journal-off overhead probe. The engine is generic over an
    // Observer; with the default Quiet every emission site must
    // monomorphize to dead code. Price the Quiet hot path against an
    // *empty-mask* Recorder (journal live, every event filtered out) on
    // the sparse face-off: min-of-N wall clocks, so scheduler noise
    // cancels. Observing must not perturb — reports and RNG streams are
    // asserted identical across observers (hard); the wall-clock ratio
    // check is soft at the 2% bar and hard only at 15%, same policy as the
    // speedup bar.
    // The sparse face-off finishes in single-digit milliseconds, far too
    // short to resolve a 2% ratio; the probe runs a longer budget so the
    // measured window is tens of milliseconds.
    let probe_budget = budget * 8;
    let mut quiet_wall = f64::INFINITY;
    let mut rec_wall = f64::INFINITY;
    let baseline = faceoff_run(&g, info, Kernel::Sparse, probe_budget);
    for _ in 0..PROBE_RUNS {
        let quiet = faceoff_run(&g, info, Kernel::Sparse, probe_budget);
        let empty = Observed { journal: Some(Recorder::new(ClassMask::NONE, 0)), metrics: None };
        let rec = faceoff_probe(&g, info, Kernel::Sparse, probe_budget, 0xe15, empty);
        assert_eq!((&quiet.0, quiet.1), (&baseline.0, baseline.1), "Quiet run not reproducible");
        assert_eq!(
            (&rec.0, rec.1),
            (&baseline.0, baseline.1),
            "an empty-mask Recorder perturbed the run"
        );
        quiet_wall = quiet_wall.min(quiet.2);
        rec_wall = rec_wall.min(rec.2);
    }
    let overhead = quiet_wall / rec_wall - 1.0;
    record.push(
        RunRecord::new()
            .param("workload", "journal-off-probe")
            .param("kernel", "sparse")
            .param("n", g.n())
            .metric("null_wall_ms", quiet_wall * 1e3)
            .metric("empty_recorder_wall_ms", rec_wall * 1e3)
            .metric("overhead", overhead),
    );
    record.note(format!(
        "journal-off probe: Quiet {:.1} ms vs empty-mask Recorder {:.1} ms \
         (min of {PROBE_RUNS}; {:+.1}% = Quiet relative to the live journal); \
         reports and RNG streams identical across observers",
        quiet_wall * 1e3,
        rec_wall * 1e3,
        overhead * 1e2,
    ));
    if overhead > 0.02 {
        record.note(format!(
            "WARNING: Quiet measured {:.1}% slower than an empty-mask Recorder — the \
             zero-cost-when-off claim expects ~0; expected only under heavy host contention",
            overhead * 1e2
        ));
        eprintln!("E15: WARNING: Quiet overhead {:.1}% above the 2% bar", overhead * 1e2);
    }
    assert!(
        overhead < 0.15,
        "Quiet costs {:.1}% over an empty-mask Recorder — instrumentation is no longer \
         compiled out of the journal-off hot path",
        overhead * 1e2
    );

    // Part 2: million-node broadcast (Full scale only — ~10 s release).
    if scale == Scale::Full {
        let (n, steps, informed, wall) = million_broadcast(1000);
        let node_steps = steps as f64 * n as f64;
        table.row([
            "flood-bcast".into(),
            "sparse".into(),
            n.to_string(),
            steps.to_string(),
            f1(wall * 1e3),
            f1(node_steps / wall / 1e6),
        ]);
        record.push(
            RunRecord::new()
                .param("workload", "flood-bcast")
                .param("kernel", "sparse")
                .param("n", n)
                .metric("steps", steps as f64)
                .metric("informed", informed)
                .metric("wall_ms", wall * 1e3)
                .metric("node_steps_per_sec", node_steps / wall),
        );
        assert!(
            informed >= 1.0,
            "million-node broadcast left {:.4}% uninformed",
            (1.0 - informed) * 100.0
        );
        record.note(format!(
            "million-node broadcast: n = {n}, {steps} simulated steps, all informed in \
             {:.1} s ({:.0}M dense-equivalent node-steps/s)",
            wall,
            node_steps / wall / 1e6
        ));
    } else {
        record.note("million-node broadcast runs at Full scale only".to_string());
    }

    println!("{}", table.render());
    print_notes(&record);
    record
}
