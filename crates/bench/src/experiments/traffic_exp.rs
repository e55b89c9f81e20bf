//! E22 — streaming traffic workloads: the multi-message delivery pipeline
//! (deterministic arrival plans → kernel injections → queue-draining
//! gossip → delivery ledger) at scale and across the graph catalogue.
//!
//! Three parts:
//!
//! 1. **At-scale differential check**: one `traffic.gossip` cell on a
//!    ~100 000-node grid, run under both kernels. Outcome, the traffic
//!    report (throughput + latency percentiles), RNG fingerprints and
//!    kernel-invariant stats are all hard-asserted byte-identical, and the
//!    dense kernel's scheduler counters zero — the streaming pipeline
//!    lives inside the same deterministic surface as every one-shot task.
//! 2. **Throughput vs α**: the same workload across the family catalogue
//!    (clique → hypercube → star → grid → cycle → path). Delivered
//!    throughput is *not* monotone in α alone — it tracks the flood
//!    completion time, which couples diameter and contention — but the
//!    extremes are pinned: the clique (α = 1, D = 1) must out-deliver the
//!    path (D = n − 1), whose floods cannot finish inside the drain
//!    window. The full curve goes into the record for the paper plot.
//! 3. **Sequential ≡ rayon**: a small spec sweep executed twice — a plain
//!    loop and a rayon parallel iterator — must serialize to the
//!    byte-identical report list (cell seeds are derived, never shared).

use super::{banner, print_notes};
use crate::Scale;
use radionet_analysis::table::f1;
use radionet_analysis::{ExperimentRecord, RunRecord, Table};
use radionet_api::{
    Arrival, Driver, JsonlSink, PoissonArrival, RunReport, RunSpec, TrafficKind, TrafficSpec,
};
use radionet_graph::families::Family;
use radionet_sim::Kernel;
use std::time::Instant;

/// Node count of the at-scale cell (a 316×316 grid).
const FACEOFF_N: usize = 316 * 316;

/// The at-scale workload: arrivals spaced a few relay hot-windows apart
/// (so the pipeline holds a handful of in-flight floods, not a burst that
/// oversubscribes the round-robin airtime), then a long drain — the
/// 316×316 grid has diameter 630, so the horizon must hold a full
/// cross-grid flood per message.
fn faceoff_spec(messages: u32) -> TrafficSpec {
    TrafficSpec {
        arrival: Arrival::Poisson(PoissonArrival { per_10k: 15 }),
        senders: 8,
        messages,
        horizon: 4096,
        multicast_per_mille: 250,
    }
}

fn run_traffic(
    driver: &Driver,
    task: &str,
    family: Family,
    n: usize,
    seed: u64,
    tspec: TrafficSpec,
    kernel: Kernel,
) -> (RunReport, f64) {
    let spec =
        RunSpec::new(task, family, n).with_seed(seed).with_traffic(tspec).with_kernel(kernel);
    let start = Instant::now();
    let report = driver.run(&spec).unwrap_or_else(|e| panic!("{task} on {family:?}/{n}: {e}"));
    (report, start.elapsed().as_secs_f64().max(1e-9))
}

/// E22 — streaming traffic: delivery pipeline at scale, throughput vs α.
pub fn e22_traffic(scale: Scale) -> ExperimentRecord {
    let claim = "Streaming traffic: kernels agree byte-for-byte at 100k nodes; \
                 delivered throughput spans the family catalogue";
    banner("E22", claim);
    let mut record = ExperimentRecord::new("E22", claim);
    let mut table = Table::new([
        "part",
        "cell",
        "kernel",
        "n",
        "alpha",
        "inj",
        "dlv",
        "thpt/kstep",
        "full p99",
        "wall ms",
    ]);
    let driver = Driver::standard();

    // Part 1: the at-scale differential check.
    let messages = match scale {
        Scale::Quick => 4,
        Scale::Full => 8,
    };
    let tspec = faceoff_spec(messages);
    let mut runs = Vec::new();
    for kernel in [Kernel::Sparse, Kernel::Dense] {
        let (report, wall) =
            run_traffic(&driver, "traffic.gossip", Family::Grid, FACEOFF_N, 0xe22, tspec, kernel);
        let t = report.traffic.expect("traffic task must emit a traffic report");
        table.row([
            "faceoff".into(),
            "grid-100k".into(),
            format!("{kernel:?}").to_lowercase(),
            report.n.to_string(),
            f1(report.alpha),
            t.injected.to_string(),
            t.delivered.to_string(),
            f1(t.throughput_per_kstep),
            t.full_p99.to_string(),
            f1(wall * 1e3),
        ]);
        record.push(
            RunRecord::new()
                .param("part", "faceoff")
                .param("kernel", format!("{kernel:?}").to_lowercase())
                .param("n", report.n)
                .metric("injected", t.injected as f64)
                .metric("delivered", t.delivered as f64)
                .metric("throughput_per_kstep", t.throughput_per_kstep)
                .metric("first_p99", t.first_p99 as f64)
                .metric("full_p99", t.full_p99 as f64)
                .metric("wall_ms", wall * 1e3),
        );
        runs.push(report);
    }
    let key = |r: &RunReport| (r.outcome, r.traffic, r.stats.kernel_invariant(), r.rng_fingerprint);
    assert_eq!(key(&runs[0]), key(&runs[1]), "dense kernel diverged on the 100k traffic cell");
    assert_eq!(
        (runs[1].stats.scheduler_events, runs[1].stats.silent_steps_skipped),
        (0, 0),
        "the dense kernel has no scheduler"
    );
    let t0 = runs[0].traffic.unwrap();
    assert!(t0.injected > 0, "the at-scale cell injected nothing");
    assert_eq!(
        t0.undelivered, 0,
        "a 4096-step horizon must drain every flood across the 316-wide grid"
    );
    record.note(format!(
        "100k faceoff: {} messages all fully delivered (full p99 {} steps); reports, RNG \
         fingerprints and invariant stats byte-identical across sparse/dense",
        t0.injected, t0.full_p99,
    ));

    // Part 2: throughput vs α across the family catalogue (sparse kernel).
    let curve_n = match scale {
        Scale::Quick => 64,
        Scale::Full => 256,
    };
    // Light load: arrivals spaced wider than the relay hot window, so the
    // curve measures flood completion, not broadcast-storm saturation (the
    // faceoff above already runs the saturated regime).
    let curve_spec = TrafficSpec {
        arrival: Arrival::Poisson(PoissonArrival { per_10k: 60 }),
        senders: 4,
        messages: 8,
        horizon: 512,
        multicast_per_mille: 250,
    };
    let families = [
        Family::Clique,
        Family::Hypercube,
        Family::Star,
        Family::Grid,
        Family::Cycle,
        Family::Path,
    ];
    let mut by_family = Vec::new();
    for family in families {
        let (report, wall) = run_traffic(
            &driver,
            "traffic.gossip",
            family,
            curve_n,
            0x22e,
            curve_spec,
            Kernel::Sparse,
        );
        let t = report.traffic.unwrap();
        table.row([
            "alpha-curve".into(),
            format!("{family:?}").to_lowercase(),
            "sparse".into(),
            report.n.to_string(),
            f1(report.alpha),
            t.injected.to_string(),
            t.delivered.to_string(),
            f1(t.throughput_per_kstep),
            t.full_p99.to_string(),
            f1(wall * 1e3),
        ]);
        record.push(
            RunRecord::new()
                .param("part", "alpha-curve")
                .param("family", format!("{family:?}").to_lowercase())
                .param("n", report.n)
                .metric("alpha", report.alpha)
                .metric("diameter", report.d as f64)
                .metric("injected", t.injected as f64)
                .metric("delivered", t.delivered as f64)
                .metric("throughput_per_kstep", t.throughput_per_kstep)
                .metric("full_p50", t.full_p50 as f64)
                .metric("full_p99", t.full_p99 as f64),
        );
        by_family.push((family, t));
    }
    let thpt = |f: Family| by_family.iter().find(|(g, _)| *g == f).unwrap().1.throughput_per_kstep;
    assert!(
        thpt(Family::Clique) >= thpt(Family::Path),
        "the clique (D = 1) must out-deliver the path (D = n - 1): {} vs {}",
        thpt(Family::Clique),
        thpt(Family::Path),
    );
    record.note(format!(
        "throughput vs α at n = {curve_n}: clique {} / hypercube {} / star {} / grid {} / \
         cycle {} / path {} delivered per kstep — completion time couples diameter and \
         contention, so the curve is diameter-dominated, with the α extremes pinned \
         (clique ≥ path asserted)",
        f1(thpt(Family::Clique)),
        f1(thpt(Family::Hypercube)),
        f1(thpt(Family::Star)),
        f1(thpt(Family::Grid)),
        f1(thpt(Family::Cycle)),
        f1(thpt(Family::Path)),
    ));

    // Part 3: a spec sweep is embarrassingly parallel — sequential and
    // rayon execution must serialize to the byte-identical report stream.
    let sweep: Vec<RunSpec> = [TrafficKind::Gossip, TrafficKind::Unicast, TrafficKind::Multicast]
        .into_iter()
        .flat_map(|kind| {
            (0..3u64).map(move |seed| {
                RunSpec::new(format!("traffic.{}", kind.name()), Family::Grid, 36)
                    .with_seed(seed)
                    .with_traffic(TrafficSpec::default())
            })
        })
        .collect();
    let stream = |chunk| {
        let mut out = Vec::new();
        let sink = &mut JsonlSink::new(&mut out);
        driver.run_sweep(sweep.clone(), chunk, sink).expect("traffic cells");
        out
    };
    assert_eq!(stream(1), stream(sweep.len()), "rayon execution changed a traffic report");
    record.note(format!(
        "sequential ≡ rayon: {} traffic cells (3 kinds × 3 seeds) serialize byte-identically \
         under both execution orders",
        sweep.len()
    ));

    println!("{}", table.render());
    print_notes(&record);
    record
}
