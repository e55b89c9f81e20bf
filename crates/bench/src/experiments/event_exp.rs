//! E19 — event-driven time: the clock-jumping scheduler kernel versus the
//! stepping sparse kernel on workloads with silent spans.
//!
//! Two parts:
//!
//! 1. **Decay-burst face-off** (all scales): a duty-cycled Decay workload
//!    at `n ≈ 100 000` — 32 transmitters run one Decay iteration per
//!    burst, then everything sleeps until the next burst, hundreds of
//!    steps away. The sparse kernel executes every silent step (cheaply,
//!    but it executes them); the event kernel charges each silent span in
//!    one clock jump. Reports, RNG fingerprints and kernel-invariant
//!    stats are asserted identical (the at-scale differential check), the
//!    skipped fraction is asserted dominant, and the wall-clock speedup
//!    is recorded; the acceptance bar is ≥ 5×.
//! 2. **Long-horizon mobility broadcast** (coarse tick): a quiescing
//!    flood over a moving unit-disk point set with a large mobility tick,
//!    run far past quiescence. Activity is front-loaded; the budget tail
//!    is silent except at tick boundaries, which the event kernel must
//!    land on exactly (the trace cadence is part of the equivalence).
//!    Identity is hard-asserted; the tail speedup is recorded.

use super::{banner, print_notes};
use crate::experiments::dwell_heavy_waypoint;
use crate::Scale;
use radionet_analysis::table::f1;
use radionet_analysis::{ExperimentRecord, RunRecord, Table};
use radionet_graph::generators;
use radionet_graph::Graph;
use radionet_mobility::MobileTopology;
use radionet_primitives::decay::DecaySchedule;
use radionet_primitives::flood::FloodProtocol;
use radionet_sim::{
    Action, Kernel, NetInfo, NodeCtx, PhaseReport, Protocol, ReceptionMode, Sim, SimStats,
    StaticTopology, Wake,
};
use rand::Rng;
use std::time::Instant;

/// Nodes in the decay-burst face-off (a 316×316 grid).
const FACEOFF_SIDE: usize = 316;
/// Transmitting-set size in the face-off (sparse activity).
const FACEOFF_SOURCES: usize = 32;
/// Silent-window length between bursts, in bursts (duty cycle 1/32768).
/// The ratio must be extreme: the phase-start scan engages all `n` nodes
/// once in every kernel, so the sparse kernel's per-silent-step cost only
/// dominates the wall clock when silent steps outnumber nodes by a wide
/// margin.
const PERIOD_BURSTS: u64 = 32768;

/// Duty-cycled Decay: transmitters run the [`DecaySchedule`] coin flips
/// during a one-iteration burst window at the start of every period, and
/// sleep (deaf) in between; listeners stay passive through the whole
/// horizon. Between bursts nothing is scheduled — exactly the silent-span
/// shape the event kernel exists for.
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
    // observable state is identical to a called one's, so the sparse and
    // event kernels may skip any step the hints declare passive.
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

/// One timed face-off run; returns the report, RNG fingerprint, stats and
/// wall seconds.
fn faceoff_run(
    g: &Graph,
    info: NetInfo,
    kernel: Kernel,
    bursts: u64,
) -> (PhaseReport, u64, SimStats, f64) {
    let schedule = DecaySchedule::new(info.log_n());
    let mut sim = Sim::with_topology(g, StaticTopology, info, 0xe19, ReceptionMode::Protocol);
    sim.set_kernel(kernel);
    let stride = g.n() / FACEOFF_SOURCES;
    let mut states: Vec<BurstDecay> = g
        .nodes()
        .map(|v| {
            let msg = (v.index() % stride == 0).then_some(v.index() as u64);
            BurstDecay::new(schedule, PERIOD_BURSTS, bursts, msg)
        })
        .collect();
    let horizon = states[0].horizon();
    let start = Instant::now();
    let rep = sim.run_phase(&mut states, horizon);
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    (rep, sim.rng_fingerprint(), *sim.stats(), wall)
}

/// The long-horizon mobility broadcast under one kernel; returns the
/// report, RNG fingerprint, stats, trace length and wall seconds.
fn mobility_run(
    n: usize,
    tick: u64,
    budget_mult: u64,
    kernel: Kernel,
) -> (PhaseReport, u64, SimStats, usize, f64) {
    let geo = crate::experiments::udg_geometry(n, 0x6e19);
    let mut topo = MobileTopology::new(&geo, dwell_heavy_waypoint(), tick, 0xe19);
    topo.set_sample_every(Some(tick));
    let g = topo.initial_graph();
    let info = NetInfo::exact(&g);
    let schedule = DecaySchedule::new(info.log_n());
    let l = info.log_n() as u64;
    // E17's completion budget times four: the flood quiesces well inside
    // the first quarter, leaving a long silent tail for the event kernel
    // to jump through (tick boundary to tick boundary).
    let budget = budget_mult * (info.d as u64 * l + l * l);
    let mut sim = Sim::with_topology(&g, topo, info, 0xe19, ReceptionMode::Protocol);
    sim.set_kernel(kernel);
    let mut states: Vec<FloodProtocol<u64>> = g
        .nodes()
        .map(|v| FloodProtocol::with_quiesce(schedule, (v.index() == 0).then_some(7), 2 * l as u32))
        .collect();
    let start = Instant::now();
    let rep = sim.run_phase(&mut states, budget);
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    (rep, sim.rng_fingerprint(), *sim.stats(), sim.topology().trace().len(), wall)
}

/// E19 — event-driven time: clock jumps over silent spans.
pub fn e19_event(scale: Scale) -> ExperimentRecord {
    let claim = "Event kernel: silent spans cost one clock jump, not one step each";
    banner("E19", claim);
    let mut record = ExperimentRecord::new("E19", claim);
    let mut table =
        Table::new(["workload", "kernel", "n", "steps", "skipped", "wall ms", "Msteps/s (node)"]);

    // Part 1: decay-burst face-off at n ≈ 100k. Min-of-N walls: the sparse
    // side of this workload finishes in milliseconds, so a single sample
    // is at the mercy of the scheduler.
    let g = generators::grid2d(FACEOFF_SIDE, FACEOFF_SIDE);
    let info = NetInfo::exact(&g);
    let bursts = match scale {
        Scale::Quick => 24,
        Scale::Full => 48,
    };
    const RUNS: usize = 3;
    let mut walls = [f64::INFINITY; 2];
    let mut outcomes = Vec::new();
    for (k, kernel) in [Kernel::Sparse, Kernel::Event].into_iter().enumerate() {
        let mut best: Option<(PhaseReport, u64, SimStats)> = None;
        for _ in 0..RUNS {
            let (rep, fp, stats, wall) = faceoff_run(&g, info, kernel, bursts);
            walls[k] = walls[k].min(wall);
            if let Some(prev) = &best {
                assert_eq!((&prev.0, prev.1), (&rep, fp), "{kernel:?} run not reproducible");
            }
            best = Some((rep, fp, stats));
        }
        let (rep, _, stats) = best.as_ref().unwrap();
        let node_steps = rep.steps as f64 * g.n() as f64;
        table.row([
            "decay-burst".into(),
            format!("{kernel:?}").to_lowercase(),
            g.n().to_string(),
            rep.steps.to_string(),
            stats.silent_steps_skipped.to_string(),
            f1(walls[k] * 1e3),
            f1(node_steps / walls[k] / 1e6),
        ]);
        record.push(
            RunRecord::new()
                .param("workload", "decay-burst")
                .param("kernel", format!("{kernel:?}").to_lowercase())
                .param("n", g.n())
                .metric("steps", rep.steps as f64)
                .metric("transmissions", rep.transmissions as f64)
                .metric("deliveries", rep.deliveries as f64)
                .metric("silent_steps_skipped", stats.silent_steps_skipped as f64)
                .metric("scheduler_events", stats.scheduler_events as f64)
                .metric("wall_ms", walls[k] * 1e3)
                .metric("node_steps_per_sec", node_steps / walls[k]),
        );
        outcomes.push(best.unwrap());
    }
    let (sparse, event) = (&outcomes[0], &outcomes[1]);
    // The hard acceptance: byte-identical observables at scale.
    assert_eq!((&sparse.0, sparse.1), (&event.0, event.1), "kernels diverged on decay-burst");
    assert_eq!(
        sparse.2.kernel_invariant(),
        event.2.kernel_invariant(),
        "kernel-invariant stats diverged on decay-burst"
    );
    assert_eq!(
        sparse.2.scheduler_events, event.2.scheduler_events,
        "the event kernel must pop exactly the wake entries sparse pops"
    );
    assert_eq!(sparse.2.silent_steps_skipped, 0, "the sparse kernel never skips");
    let skipped_frac = event.2.silent_steps_skipped as f64 / event.0.steps as f64;
    assert!(
        skipped_frac > 0.9,
        "a 1/{PERIOD_BURSTS} duty cycle must leave >90% of the clock skippable, got {:.1}%",
        skipped_frac * 1e2
    );
    let speedup = walls[0] / walls[1];
    record.note(format!(
        "decay-burst face-off: event {speedup:.1}x faster than sparse at n = {} over {} steps \
         ({:.1}% of the clock jumped, {} transmitters on a 1/{PERIOD_BURSTS} duty cycle); \
         reports, RNG streams and invariant stats identical",
        g.n(),
        sparse.0.steps,
        skipped_frac * 1e2,
        FACEOFF_SOURCES,
    ));
    // Like E15's bar, timing is soft: a contended runner must not abort the
    // batch (correctness is the hard asserts above).
    if speedup < 5.0 {
        record.note(format!(
            "WARNING: measured speedup {speedup:.1}x is below the 5x bar — expected only \
             under heavy host contention; re-run E19 on an idle host"
        ));
        eprintln!("E19: WARNING: event/sparse speedup {speedup:.1}x below the 5x bar");
    }

    // Part 2: long-horizon mobility broadcast on a coarse tick. Activity
    // quiesces early; the budget tail is silent except at tick/sample
    // boundaries, which the event kernel lands on one by one (motion and
    // trace cadence are part of the equivalence).
    let (n, tick) = match scale {
        Scale::Quick => (10_000, 32u64),
        Scale::Full => (30_000, 32u64),
    };
    let mut mob = Vec::new();
    for kernel in [Kernel::Sparse, Kernel::Event] {
        let (rep, fp, stats, trace, wall) = mobility_run(n, tick, 64, kernel);
        let node_steps = rep.steps as f64 * n as f64;
        table.row([
            "mobility-bcast".into(),
            format!("{kernel:?}").to_lowercase(),
            n.to_string(),
            rep.steps.to_string(),
            stats.silent_steps_skipped.to_string(),
            f1(wall * 1e3),
            f1(node_steps / wall / 1e6),
        ]);
        record.push(
            RunRecord::new()
                .param("workload", "mobility-bcast")
                .param("kernel", format!("{kernel:?}").to_lowercase())
                .param("n", n)
                .param("tick", tick)
                .metric("steps", rep.steps as f64)
                .metric("deliveries", rep.deliveries as f64)
                .metric("silent_steps_skipped", stats.silent_steps_skipped as f64)
                .metric("trace_samples", trace as f64)
                .metric("wall_ms", wall * 1e3),
        );
        mob.push((rep, fp, stats, trace, wall));
    }
    assert_eq!(
        (&mob[0].0, mob[0].1, mob[0].3),
        (&mob[1].0, mob[1].1, mob[1].3),
        "kernels diverged on the mobility broadcast"
    );
    assert_eq!(
        mob[0].2.kernel_invariant(),
        mob[1].2.kernel_invariant(),
        "kernel-invariant stats diverged on the mobility broadcast"
    );
    record.note(format!(
        "mobility broadcast: n = {n}, tick {tick}, {} steps; event kernel skipped {} steps \
         ({:.1}x wall vs sparse); reports, trace and RNG streams identical",
        mob[0].0.steps,
        mob[1].2.silent_steps_skipped,
        mob[0].4 / mob[1].4,
    ));

    println!("{}", table.render());
    print_notes(&record);
    record
}
