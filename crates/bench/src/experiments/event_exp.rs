//! E19 — event-driven time: the sparse kernel charges each provably silent
//! span in one clock jump instead of stepping through it.
//!
//! Two workloads, each run at scale under the sparse kernel and, at a size
//! the dense reference runs in seconds, under both kernels:
//!
//! 1. **Decay burst**: a duty-cycled Decay workload — 32 transmitters run
//!    one Decay iteration per burst, then everything sleeps until the next
//!    burst. At `n ≈ 100 000` and a 1/32768 duty cycle, three runs are
//!    hard-asserted identical and more than 90% of the clock jumped. On a
//!    64 × 64 grid at a 1/64 duty cycle, report, RNG fingerprint and
//!    kernel-invariant stats are hard-asserted equal to the dense kernel's.
//! 2. **Long-horizon mobility broadcast** (coarse tick): a quiescing flood
//!    over a moving unit-disk point set, run far past quiescence. Activity
//!    is front-loaded; the budget tail is silent except at tick boundaries,
//!    which the jumps must land on exactly (the trace cadence is part of the
//!    equivalence). The at-scale run is recorded; at n = 1,000 report, RNG
//!    fingerprint, kernel-invariant stats and mobility trace are
//!    hard-asserted equal to the dense kernel's.

use super::{banner, print_notes};
use crate::experiments::dwell_heavy_waypoint;
use crate::Scale;
use radionet_analysis::table::f1;
use radionet_analysis::{ExperimentRecord, RunRecord, Table};
use radionet_graph::generators;
use radionet_graph::Graph;
use radionet_mobility::{MobileTopology, MobilityTrace};
use radionet_primitives::decay::DecaySchedule;
use radionet_primitives::flood::FloodProtocol;
use radionet_sim::{
    Action, Kernel, NetInfo, NodeCtx, PhaseReport, Protocol, ReceptionMode, Sim, SimStats,
    StaticTopology, Wake,
};
use rand::Rng;
use std::time::Instant;

/// Side of the at-scale decay-burst grid (n ≈ 100 000).
const SCALE_SIDE: usize = 316;
/// Silent-window length between bursts at scale, in bursts (duty cycle
/// 1/32768): silent steps outnumber nodes by a wide margin, the regime in
/// which stepping through them would dominate the wall clock.
const SCALE_PERIOD_BURSTS: u64 = 32768;
/// Side of the decay-burst grid checked against the dense kernel, which
/// polls every node on every step.
const CHECK_SIDE: usize = 64;
/// Duty cycle of that check (1/64), short enough for the dense kernel.
const CHECK_PERIOD_BURSTS: u64 = 64;
/// Nodes in the mobility broadcast checked against the dense kernel.
const CHECK_MOBILE_N: usize = 1_000;
/// Mobility tick of the broadcast, in steps (coarse: long silent spans
/// between ticks).
const TICK: u64 = 32;
/// Transmitting-set size (sparse activity).
const SOURCES: usize = 32;

/// Duty-cycled Decay: transmitters run the [`DecaySchedule`] coin flips
/// during a one-iteration burst window at the start of every period, and
/// sleep (deaf) in between; listeners stay passive through the whole
/// horizon. Between bursts nothing is scheduled — exactly the silent-span
/// shape the clock jumps exist for.
#[derive(Clone)]
struct BurstDecay {
    schedule: DecaySchedule,
    burst: u64,
    period: u64,
    horizon: u64,
    message: Option<u64>,
    last: u64,
    heard: u64,
}

impl BurstDecay {
    /// A node running `bursts` duty cycles of one Decay iteration each,
    /// `period_bursts` iterations apart (duty cycle `1/period_bursts`).
    /// Transmitters carry `Some(message)`; `None` is a passive listener.
    fn new(schedule: DecaySchedule, period_bursts: u64, bursts: u64, msg: Option<u64>) -> Self {
        let burst = schedule.steps_per_iteration() as u64;
        let period = period_bursts * burst;
        BurstDecay {
            schedule,
            burst,
            period,
            horizon: bursts * period,
            message: msg,
            last: 0,
            heard: 0,
        }
    }

    /// The phase length: every node is done or retired by this step.
    fn horizon(&self) -> u64 {
        self.horizon
    }

    /// First in-burst transmit step strictly after `t`, or `horizon`.
    fn next_burst_step(&self, t: u64) -> u64 {
        let c = t + 1;
        let s = if c % self.period < self.burst { c } else { (c / self.period + 1) * self.period };
        s.min(self.horizon)
    }
}

impl Protocol for BurstDecay {
    type Msg = u64;

    // Time-based (`ctx.time`), never call-counting: an uncalled node's
    // observable state is identical to a called one's, so the sparse
    // kernel may skip any step the hints declare passive.
    fn act(&mut self, ctx: &mut NodeCtx<'_>) -> Action<u64> {
        self.last = ctx.time;
        if ctx.time >= self.horizon {
            return Action::Idle;
        }
        let pos = ctx.time % self.period;
        match &self.message {
            Some(m) if pos < self.burst && ctx.rng.gen_bool(self.schedule.prob(pos)) => {
                Action::Transmit(*m)
            }
            _ => Action::Listen,
        }
    }

    fn on_hear(&mut self, _ctx: &mut NodeCtx<'_>, _msg: &u64) {
        self.heard += 1;
    }

    fn is_done(&self) -> bool {
        if self.message.is_some() {
            // A transmitter is finished once no in-horizon burst step
            // remains after its latest engagement.
            self.next_burst_step(self.last) >= self.horizon
        } else {
            self.last + 1 >= self.horizon
        }
    }

    fn next_wake(&self, now: u64) -> Wake {
        match &self.message {
            Some(_) => {
                let next = self.next_burst_step(now);
                if next >= self.horizon {
                    Wake::Retire
                } else if next == now + 1 {
                    Wake::Now
                } else {
                    Wake::Sleep { wake_at: next, done_at: None }
                }
            }
            None => {
                if now + 1 >= self.horizon {
                    Wake::Retire
                } else {
                    Wake::Listen { wake_at: self.horizon, done_at: Some(self.horizon - 1) }
                }
            }
        }
    }
}

/// One timed decay-burst run; returns the report, RNG fingerprint, stats
/// and wall seconds.
fn burst_run(
    g: &Graph,
    info: NetInfo,
    period_bursts: u64,
    bursts: u64,
    kernel: Kernel,
) -> (PhaseReport, u64, SimStats, f64) {
    let schedule = DecaySchedule::new(info.log_n());
    let mut sim = Sim::with_topology(g, StaticTopology, info, 0xe19, ReceptionMode::Protocol);
    sim.set_kernel(kernel);
    let stride = g.n() / SOURCES;
    let mut states: Vec<BurstDecay> = g
        .nodes()
        .map(|v| {
            let msg = (v.index() % stride == 0).then_some(v.index() as u64);
            BurstDecay::new(schedule, period_bursts, bursts, msg)
        })
        .collect();
    let horizon = states[0].horizon();
    let start = Instant::now();
    let rep = sim.run_phase(&mut states, horizon);
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    (rep, sim.rng_fingerprint(), *sim.stats(), wall)
}

/// The long-horizon mobility broadcast under one kernel; returns the
/// report, RNG fingerprint, stats, mobility trace and wall seconds.
fn mobility_run(n: usize, kernel: Kernel) -> (PhaseReport, u64, SimStats, MobilityTrace, f64) {
    let geo = crate::experiments::udg_geometry(n, 0x6e19);
    let mut topo = MobileTopology::new(&geo, dwell_heavy_waypoint(), TICK, 0xe19);
    topo.set_sample_every(Some(TICK));
    let g = topo.initial_graph();
    let info = NetInfo::exact(&g);
    let schedule = DecaySchedule::new(info.log_n());
    let l = info.log_n() as u64;
    // E17's completion budget times 64: the flood quiesces well inside the
    // first quarter, leaving a long silent tail for the clock to jump
    // through (tick boundary to tick boundary).
    let budget = 64 * (info.d as u64 * l + l * l);
    let mut sim = Sim::with_topology(&g, topo, info, 0xe19, ReceptionMode::Protocol);
    sim.set_kernel(kernel);
    let mut states: Vec<FloodProtocol<u64>> = g
        .nodes()
        .map(|v| FloodProtocol::with_quiesce(schedule, (v.index() == 0).then_some(7), 2 * l as u32))
        .collect();
    let start = Instant::now();
    let rep = sim.run_phase(&mut states, budget);
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    (rep, sim.rng_fingerprint(), *sim.stats(), sim.topology().to_trace(), wall)
}

/// Adds one run to the table and the record.
fn push_run(
    table: &mut Table,
    record: &mut ExperimentRecord,
    workload: &str,
    kernel: Kernel,
    n: usize,
    (rep, stats, wall): (&PhaseReport, &SimStats, f64),
) {
    let node_steps = rep.steps as f64 * n as f64;
    table.row([
        workload.into(),
        kernel.name().into(),
        n.to_string(),
        rep.steps.to_string(),
        stats.silent_steps_skipped.to_string(),
        f1(wall * 1e3),
        f1(node_steps / wall / 1e6),
    ]);
    record.push(
        RunRecord::new()
            .param("workload", workload)
            .param("kernel", kernel.name())
            .param("n", n)
            .metric("steps", rep.steps as f64)
            .metric("transmissions", rep.transmissions as f64)
            .metric("deliveries", rep.deliveries as f64)
            .metric("silent_steps_skipped", stats.silent_steps_skipped as f64)
            .metric("scheduler_events", stats.scheduler_events as f64)
            .metric("wall_ms", wall * 1e3)
            .metric("node_steps_per_sec", node_steps / wall),
    );
}

/// E19 — event-driven time: clock jumps over silent spans.
pub fn e19_event(scale: Scale) -> ExperimentRecord {
    let claim = "sparse kernel: silent spans cost one clock jump, not one step each";
    banner("E19", claim);
    let mut record = ExperimentRecord::new("E19", claim);
    let mut table =
        Table::new(["workload", "kernel", "n", "steps", "skipped", "wall ms", "Msteps/s (node)"]);
    let bursts = match scale {
        Scale::Quick => 24,
        Scale::Full => 48,
    };

    // Part 1a: decay burst at n ≈ 100k on the sparse kernel, three runs.
    let g = generators::grid2d(SCALE_SIDE, SCALE_SIDE);
    let info = NetInfo::exact(&g);
    let runs: Vec<_> =
        (0..3).map(|_| burst_run(&g, info, SCALE_PERIOD_BURSTS, bursts, Kernel::Sparse)).collect();
    for (rep, fp, stats, _) in &runs[1..] {
        assert_eq!(
            (rep, fp, stats),
            (&runs[0].0, &runs[0].1, &runs[0].2),
            "decay-burst run not reproducible"
        );
    }
    let wall = runs.iter().map(|r| r.3).fold(f64::INFINITY, f64::min);
    let (rep, _, stats, _) = &runs[0];
    push_run(&mut table, &mut record, "decay-burst", Kernel::Sparse, g.n(), (rep, stats, wall));
    let skipped_frac = stats.silent_steps_skipped as f64 / rep.steps as f64;
    assert!(
        skipped_frac > 0.9,
        "a 1/{SCALE_PERIOD_BURSTS} duty cycle must leave >90% of the clock skippable, got {:.1}%",
        skipped_frac * 1e2
    );
    record.note(format!(
        "decay burst at n = {}: {:.1}% of {} steps jumped ({SOURCES} transmitters on a \
         1/{SCALE_PERIOD_BURSTS} duty cycle), min wall {:.1} ms over 3 identical runs",
        g.n(),
        skipped_frac * 1e2,
        rep.steps,
        wall * 1e3,
    ));

    // Part 1b: the same workload against the dense reference, at a size and
    // duty cycle the dense kernel steps through in seconds.
    let g = generators::grid2d(CHECK_SIDE, CHECK_SIDE);
    let info = NetInfo::exact(&g);
    let [sparse, dense] = [Kernel::Sparse, Kernel::Dense].map(|kernel| {
        let (rep, fp, stats, wall) = burst_run(&g, info, CHECK_PERIOD_BURSTS, bursts, kernel);
        push_run(&mut table, &mut record, "decay-burst", kernel, g.n(), (&rep, &stats, wall));
        (rep, fp, stats)
    });
    assert_eq!((&sparse.0, sparse.1), (&dense.0, dense.1), "kernels diverged on decay-burst");
    assert_eq!(
        sparse.2.kernel_invariant(),
        dense.2.kernel_invariant(),
        "kernel-invariant stats diverged on decay-burst"
    );
    record.note(format!(
        "decay burst at n = {} (1/{CHECK_PERIOD_BURSTS} duty cycle): sparse jumped {} of {} \
         steps; report, RNG stream and invariant stats identical to the dense kernel's",
        g.n(),
        sparse.2.silent_steps_skipped,
        sparse.0.steps,
    ));

    // Part 2: long-horizon mobility broadcast on a coarse tick. Activity
    // quiesces early; the budget tail is silent except at tick/sample
    // boundaries, which the jumps land on one by one (motion and trace
    // cadence are part of the equivalence).
    let n = match scale {
        Scale::Quick => 10_000,
        Scale::Full => 30_000,
    };
    let (rep, _, stats, _, wall) = mobility_run(n, Kernel::Sparse);
    push_run(&mut table, &mut record, "mobility-bcast", Kernel::Sparse, n, (&rep, &stats, wall));
    record.note(format!(
        "mobility broadcast at n = {n}, tick {TICK}: {} of {} steps jumped",
        stats.silent_steps_skipped, rep.steps,
    ));
    let n = CHECK_MOBILE_N;
    let [sparse, dense] = [Kernel::Sparse, Kernel::Dense].map(|kernel| {
        let (rep, fp, stats, trace, wall) = mobility_run(n, kernel);
        push_run(&mut table, &mut record, "mobility-bcast", kernel, n, (&rep, &stats, wall));
        (rep, fp, stats, trace)
    });
    assert_eq!(
        (&sparse.0, sparse.1, &sparse.3),
        (&dense.0, dense.1, &dense.3),
        "kernels diverged on the mobility broadcast"
    );
    assert_eq!(
        sparse.2.kernel_invariant(),
        dense.2.kernel_invariant(),
        "kernel-invariant stats diverged on the mobility broadcast"
    );
    record.note(format!(
        "mobility broadcast at n = {n}, tick {TICK}: sparse jumped {} of {} steps; report, \
         trace, RNG stream and invariant stats identical to the dense kernel's",
        sparse.2.silent_steps_skipped, sparse.0.steps,
    ));

    println!("{}", table.render());
    print_notes(&record);
    record
}
