//! Differential tests: the sparse active-set kernel, which jumps the clock
//! over silent spans, must be byte-identical to the dense reference
//! kernel — same [`PhaseReport`]s, same kernel-invariant [`SimStats`], same
//! per-node RNG streams, same final protocol state — across protocol
//! patterns, reception modes, and dynamic topologies. Every case runs the
//! face-off sparse ≡ dense; [`ScriptView`]'s `next_event` lands on every
//! window edge, so the sparse kernel genuinely jumps between them.
//!
//! The protocols here are small archetypes of every [`Wake`] pattern the
//! workspace uses: always-on randomized talkers (`Now`), passive listeners
//! with a done promise (`Listen`/`done_at`), flood-style re-engagement
//! (`Listen` forever), slot-scheduled sleepers (`Sleep`), and local
//! termination (`Retire`).

use proptest::prelude::*;
use radionet_graph::{Graph, GraphBuilder, NodeId};
use radionet_sim::{
    injections_ordered, Action, Injection, Kernel, NetInfo, NodeCtx, PhaseReport, Protocol,
    ReceptionMode, Sim, SimStats, SinrConfig, TopologyView, Wake,
};
use rand::Rng;

/// Random connected-ish graph from an edge list (isolated nodes allowed —
/// the kernels must agree on those too).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..32).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 1..90).prop_map(move |pairs| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in pairs {
                if u != v {
                    b.add_edge(u, v);
                }
            }
            b.build()
        })
    })
}

/// A scripted dynamic view: per-node down/up windows and jam windows, with
/// an exact change feed — the sim-level stand-in for `DynamicTopology`
/// (which lives a crate above and gets its own equivalence tests).
#[derive(Clone, Debug)]
struct ScriptView {
    /// Per node: `Some((down_at, up_at))` — inactive in `[down_at, up_at)`;
    /// `up_at == u64::MAX` means it never returns (retired).
    down: Vec<Option<(u64, u64)>>,
    /// Per node: `Some((from, until))` — jam-exposed in `[from, until)`.
    jam: Vec<Option<(u64, u64)>>,
    clock: u64,
    started: bool,
    changed: Vec<NodeId>,
    jam_list: Vec<NodeId>,
}

impl ScriptView {
    fn new(down: Vec<Option<(u64, u64)>>, jam: Vec<Option<(u64, u64)>>) -> Self {
        ScriptView {
            down,
            jam,
            clock: 0,
            started: false,
            changed: Vec::new(),
            jam_list: Vec::new(),
        }
    }

    fn active_at(&self, i: usize, t: u64) -> bool {
        match self.down[i] {
            Some((d, u)) => !(d <= t && t < u),
            None => true,
        }
    }

    fn jammed_at(&self, i: usize, t: u64) -> bool {
        match self.jam[i] {
            Some((f, u)) => f <= t && t < u,
            None => false,
        }
    }
}

impl TopologyView for ScriptView {
    fn advance_to(&mut self, _base: &Graph, clock: u64) {
        let prev = self.clock;
        for i in 0..self.down.len() {
            if !self.started || self.active_at(i, prev) != self.active_at(i, clock) {
                self.changed.push(NodeId::new(i));
            }
        }
        self.started = true;
        self.clock = clock;
        self.jam_list.clear();
        for i in 0..self.jam.len() {
            if self.jammed_at(i, clock) {
                self.jam_list.push(NodeId::new(i));
            }
        }
    }

    fn neighbors<'a>(&'a self, base: &'a Graph, v: NodeId) -> &'a [NodeId] {
        base.neighbors(v)
    }

    fn is_active(&self, v: NodeId) -> bool {
        self.active_at(v.index(), self.clock)
    }

    fn is_jammed(&self, v: NodeId) -> bool {
        self.jammed_at(v.index(), self.clock)
    }

    fn is_retired(&self, v: NodeId) -> bool {
        match self.down[v.index()] {
            Some((d, u)) => d <= self.clock && self.clock < u && u == u64::MAX,
            None => false,
        }
    }

    fn drain_status_changes(&mut self, out: &mut Vec<NodeId>) {
        out.append(&mut self.changed);
    }

    fn jammed_nodes(&self) -> &[NodeId] {
        &self.jam_list
    }

    fn next_event(&self, clock: u64) -> Option<u64> {
        // Every window edge is an event: the first step of a down/jam
        // window and the first step after it. Landing on each edge (and
        // nowhere in between) reproduces exactly the status changes and
        // jam sets a step-by-step walk would see.
        let down_edges = self.down.iter().flatten().flat_map(|&(d, u)| [d, u]);
        let jam_edges = self.jam.iter().flatten().flat_map(|&(f, u)| [f, u]);
        down_edges.chain(jam_edges).filter(|&e| e > clock && e < u64::MAX).min()
    }
}

/// Coin-flip transmitter, default hints: stresses raw reception equality.
struct Talker {
    p_milli: u32,
    sent: u64,
    heard: Vec<u32>,
}

impl Protocol for Talker {
    type Msg = u32;
    fn act(&mut self, ctx: &mut NodeCtx<'_>) -> Action<u32> {
        if ctx.rng.gen_bool(self.p_milli as f64 / 1000.0) {
            self.sent += 1;
            Action::Transmit(self.sent as u32)
        } else {
            Action::Listen
        }
    }
    fn on_hear(&mut self, _ctx: &mut NodeCtx<'_>, msg: &u32) {
        self.heard.push(*msg);
    }
}

/// Flood archetype: passive until informed, chatters for `active_for`
/// steps, then retires. Covers Listen-forever, re-engagement, Now, Retire.
struct Flooder {
    best: Option<u32>,
    active_steps: u64,
    active_for: u64,
    heard: u64,
}

impl Flooder {
    fn live(&self) -> bool {
        self.best.is_some() && self.active_steps < self.active_for
    }
}

impl Protocol for Flooder {
    type Msg = u32;
    fn act(&mut self, ctx: &mut NodeCtx<'_>) -> Action<u32> {
        match self.best {
            None => Action::Listen,
            Some(m) if self.active_steps < self.active_for => {
                self.active_steps += 1;
                if ctx.rng.gen_bool(0.4) {
                    Action::Transmit(m)
                } else {
                    Action::Listen
                }
            }
            Some(_) => Action::Idle,
        }
    }
    fn on_hear(&mut self, _ctx: &mut NodeCtx<'_>, msg: &u32) {
        self.heard += 1;
        if self.best.is_none_or(|b| b < *msg) {
            self.best = Some(*msg);
        }
    }
    fn is_done(&self) -> bool {
        self.best.is_some() && self.active_steps >= self.active_for
    }
    fn next_wake(&self, _now: u64) -> Wake {
        if self.best.is_none() {
            Wake::listen()
        } else if self.live() {
            Wake::Now
        } else {
            Wake::Retire
        }
    }
}

/// Slot-scheduled beacon: transmits at steps ≡ 0 (mod `period`), sleeps
/// (deaf) in between, done at `horizon`. Covers Sleep + done_at promises.
struct SlotBeacon {
    period: u64,
    horizon: u64,
    last: u64,
    txs: u64,
}

impl Protocol for SlotBeacon {
    type Msg = u32;
    fn act(&mut self, ctx: &mut NodeCtx<'_>) -> Action<u32> {
        self.last = ctx.time;
        if ctx.time >= self.horizon {
            Action::Idle
        } else if ctx.time.is_multiple_of(self.period) {
            self.txs += 1;
            Action::Transmit(9)
        } else {
            Action::Idle
        }
    }
    fn on_hear(&mut self, _ctx: &mut NodeCtx<'_>, _msg: &u32) {}
    fn is_done(&self) -> bool {
        self.last + 1 >= self.horizon
    }
    fn next_wake(&self, now: u64) -> Wake {
        if now + 1 >= self.horizon {
            return Wake::Retire;
        }
        let next_slot = (now / self.period + 1) * self.period;
        Wake::Sleep { wake_at: next_slot.min(self.horizon), done_at: Some(self.horizon - 1) }
    }
}

/// Multi-message traffic archetype: the sim-level skeleton of the
/// queue-draining gossip pipeline. Every id learned — by out-of-band
/// injection or over the air — stays hot for `hot_window` steps; while
/// anything is hot the node flips one coin per step and relays the
/// round-robin pick of its hot set. Exercises the injection path (arrival
/// wake-ups, arrivals on churned-down nodes, sparse-kernel jump clamping)
/// that none of the other archetypes touch.
struct TrafficNode {
    hot_window: u64,
    horizon: u64,
    known: Vec<(u64, u64)>,
    last: u64,
}

impl TrafficNode {
    fn learn(&mut self, id: u64, at: u64) {
        if !self.known.iter().any(|&(k, _)| k == id) {
            self.known.push((id, at));
        }
    }

    fn hot_at(&self, now: u64) -> Option<u64> {
        let hot: Vec<u64> = self
            .known
            .iter()
            .filter(|&&(_, at)| now >= at && now - at < self.hot_window)
            .map(|&(id, _)| id)
            .collect();
        if hot.is_empty() {
            None
        } else {
            Some(hot[(now % hot.len() as u64) as usize])
        }
    }
}

impl Protocol for TrafficNode {
    type Msg = u64;
    fn act(&mut self, ctx: &mut NodeCtx<'_>) -> Action<u64> {
        self.last = ctx.time;
        if ctx.time >= self.horizon {
            return Action::Idle;
        }
        match self.hot_at(ctx.time) {
            Some(id) if ctx.rng.gen_bool(0.45) => Action::Transmit(id),
            _ => Action::Listen,
        }
    }
    fn on_hear(&mut self, ctx: &mut NodeCtx<'_>, msg: &u64) {
        self.learn(*msg, ctx.time);
    }
    fn on_inject(&mut self, ctx: &mut NodeCtx<'_>, msg: &u64) {
        self.learn(*msg, ctx.time);
    }
    fn is_done(&self) -> bool {
        self.last + 1 >= self.horizon
    }
    fn next_wake(&self, now: u64) -> Wake {
        if now + 1 >= self.horizon {
            return Wake::Retire;
        }
        if self.hot_at(now + 1).is_some() {
            return Wake::Now;
        }
        Wake::Listen { wake_at: Wake::NEVER, done_at: Some(self.horizon - 1) }
    }
}

/// Passive CD listener: counts messages and collision signals, never done.
struct CdEar {
    heard: u64,
    collisions: u64,
}

impl Protocol for CdEar {
    type Msg = u32;
    fn act(&mut self, _ctx: &mut NodeCtx<'_>) -> Action<u32> {
        Action::Listen
    }
    fn on_hear(&mut self, _ctx: &mut NodeCtx<'_>, _msg: &u32) {
        self.heard += 1;
    }
    fn on_collision(&mut self, _ctx: &mut NodeCtx<'_>) {
        self.collisions += 1;
    }
    fn next_wake(&self, _now: u64) -> Wake {
        Wake::listen()
    }
}

fn all_kernels<P, F, S>(
    mk: F,
    view: &ScriptView,
    g: &Graph,
    seed: u64,
    steps: u64,
) -> [(PhaseReport, SimStats, u64, Vec<S>); 2]
where
    P: Protocol,
    F: Fn(usize) -> P,
    S: PartialEq + std::fmt::Debug,
    P: Snapshot<S>,
{
    all_kernels_with(mk, view, g, seed, steps, ReceptionMode::Protocol)
}

/// Runs the same phase under both kernels (sparse, dense) and returns the
/// observables with kernel-dependent stats counters zeroed, so callers
/// compare whole tuples. That the dense kernel leaves both scheduler
/// counters at zero is asserted here once, before the counters are erased.
fn all_kernels_with<P, F, S>(
    mk: F,
    view: &ScriptView,
    g: &Graph,
    seed: u64,
    steps: u64,
    reception: ReceptionMode,
) -> [(PhaseReport, SimStats, u64, Vec<S>); 2]
where
    P: Protocol,
    F: Fn(usize) -> P,
    S: PartialEq + std::fmt::Debug,
    P: Snapshot<S>,
{
    let mut runs = [Kernel::Sparse, Kernel::Dense].map(|kernel| {
        let info = NetInfo { n: g.n().max(2), d: 4, alpha: (g.n() as f64).max(2.0) };
        let mut sim = Sim::with_topology(g, view.clone(), info, seed, reception.clone());
        sim.set_kernel(kernel);
        let mut states: Vec<P> = (0..g.n()).map(&mk).collect();
        let rep = sim.run_phase(&mut states, steps);
        (rep, *sim.stats(), sim.rng_fingerprint(), states.iter().map(Snapshot::snapshot).collect())
    });
    assert_dense_has_no_scheduler(&runs[1].1);
    for r in &mut runs {
        r.1 = r.1.kernel_invariant();
    }
    runs
}

/// One kernel's traffic outcome: report, invariant stats, RNG
/// fingerprint, and every node's learned `(message, step)` history.
type TrafficRun = (PhaseReport, SimStats, u64, Vec<Vec<(u64, u64)>>);

/// Runs a traffic phase (gossip nodes + an injection schedule) under both
/// kernels; same comparison contract as [`all_kernels_with`].
fn all_kernels_injected(
    view: &ScriptView,
    g: &Graph,
    seed: u64,
    steps: u64,
    hot_window: u64,
    injections: &[Injection<u64>],
) -> [TrafficRun; 2] {
    let mut runs = [Kernel::Sparse, Kernel::Dense].map(|kernel| {
        let info = NetInfo { n: g.n().max(2), d: 4, alpha: (g.n() as f64).max(2.0) };
        let mut sim = Sim::with_topology(g, view.clone(), info, seed, ReceptionMode::Protocol);
        sim.set_kernel(kernel);
        let mut states: Vec<TrafficNode> = (0..g.n())
            .map(|_| TrafficNode { hot_window, horizon: steps, known: Vec::new(), last: 0 })
            .collect();
        let rep = sim.run_phase_with_injections(&mut states, steps, injections);
        (rep, *sim.stats(), sim.rng_fingerprint(), states.iter().map(|s| s.known.clone()).collect())
    });
    assert_dense_has_no_scheduler(&runs[1].1);
    for r in &mut runs {
        r.1 = r.1.kernel_invariant();
    }
    runs
}

/// The dense kernel has no wake heaps and never jumps the clock.
fn assert_dense_has_no_scheduler(dense: &SimStats) {
    assert_eq!((dense.scheduler_events, dense.silent_steps_skipped), (0, 0));
}

/// A position snapshot scattering `n` nodes over a square whose side keeps
/// density roughly constant — the regime where SINR capture, interference
/// loss, and clean decodes all occur.
fn arb_positions(n: usize) -> impl Strategy<Value = Vec<[f64; 3]>> {
    let side = (n as f64).sqrt() * 1.8 + 1.0;
    proptest::collection::vec((0.0..1.0f64, 0.0..1.0f64), n..=n)
        .prop_map(move |raw| raw.into_iter().map(|(x, y)| [x * side, y * side, 0.0]).collect())
}

/// The path-loss exponents the SINR proptests draw: the integer ones whose
/// approximate interference terms the sparse kernel multiplies out, and a
/// fractional one whose terms keep `powf`.
fn arb_path_loss() -> impl Strategy<Value = f64> {
    (0usize..4).prop_map(|i| [2.0, 3.0, 4.0, 2.5][i])
}

/// SINR with decode range `range` at path-loss exponent `alpha`, with the
/// noise calibrated as in `SinrConfig::for_unit_range`: a lone transmitter
/// exactly `range` away has SINR exactly β.
fn sinr_config(points: Vec<[f64; 3]>, alpha: f64, range: f64) -> SinrConfig {
    let mut cfg = SinrConfig::for_unit_range(points, range);
    cfg.path_loss = alpha;
    cfg.noise = cfg.power * range.powf(-alpha) / cfg.threshold;
    cfg
}

fn sinr_mode(points: Vec<[f64; 3]>, alpha: f64, range: f64) -> ReceptionMode {
    ReceptionMode::Sinr(sinr_config(points, alpha, range))
}

/// The positions of an SINR case and their decode range: the given
/// `scatter` at range 1, or — with `lattice` — as many nodes on an integer
/// lattice with spacings 3 and 4 at range 5. On the lattice, diagonal
/// neighbours form 3-4-5 triangles exactly at the decode range, so a lone
/// transmitter there has SINR exactly β, and every fifth node shares its
/// predecessor's point, far below the near-field floor.
fn sinr_layout(lattice: bool, scatter: Vec<[f64; 3]>) -> (Vec<[f64; 3]>, f64) {
    if !lattice {
        return (scatter, 1.0);
    }
    let width = 2 + scatter.len() % 5;
    let points = (0..scatter.len())
        .map(|i| {
            let k = if i % 5 == 4 { i - 1 } else { i };
            [(k % width) as f64 * 3.0, (k / width) as f64 * 4.0, 0.0]
        })
        .collect();
    (points, 5.0)
}

/// Extracts the externally observable state for comparison.
trait Snapshot<S> {
    fn snapshot(&self) -> S;
}

impl Snapshot<(u64, Vec<u32>)> for Talker {
    fn snapshot(&self) -> (u64, Vec<u32>) {
        (self.sent, self.heard.clone())
    }
}

impl Snapshot<(Option<u32>, u64, u64)> for Flooder {
    fn snapshot(&self) -> (Option<u32>, u64, u64) {
        (self.best, self.active_steps, self.heard)
    }
}

impl Snapshot<u64> for SlotBeacon {
    fn snapshot(&self) -> u64 {
        // `last` is internal bookkeeping the Wake contract lets go stale in
        // skipped windows; the transmission count is the observable.
        self.txs
    }
}

fn arb_view(n: usize) -> impl Strategy<Value = ScriptView> {
    // The vendored proptest has no `option::of`; a small discriminant range
    // plays the same role (1-in-3 nodes get a down window, 1-in-4 a jam
    // window).
    let down = proptest::collection::vec(
        (0u8..3, 0u64..30, 0u64..40).prop_map(|(k, d, len)| {
            (k == 0).then_some((d, if len > 35 { u64::MAX } else { d + len }))
        }),
        n..=n,
    );
    let jam = proptest::collection::vec(
        (0u8..4, 0u64..30, 1u64..20).prop_map(|(k, f, len)| (k == 0).then_some((f, f + len))),
        n..=n,
    );
    (down, jam).prop_map(|(down, jam)| ScriptView::new(down, jam))
}

/// A graph together with a scripted dynamic view over it.
fn arb_dynamic_case() -> impl Strategy<Value = (Graph, ScriptView)> {
    arb_graph().prop_flat_map(|g| {
        let n = g.n();
        (Just(g), arb_view(n))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn talkers_agree(
        g in arb_graph(),
        seed in 0u64..1000,
        p in 1u32..700,
        steps in 1u64..60,
    ) {
        let view = ScriptView::new(vec![None; g.n()], vec![None; g.n()]);
        let [a, b] = all_kernels(
            |_| Talker { p_milli: p, sent: 0, heard: Vec::new() },
            &view, &g, seed, steps,
        );
        prop_assert_eq!(&a, &b);
    }

    #[test]
    fn talkers_agree_under_dynamics(
        case in arb_dynamic_case(),
        seed in 0u64..1000,
        steps in 1u64..60,
    ) {
        let (g, view) = case;
        let [a, b] = all_kernels(
            |_| Talker { p_milli: 300, sent: 0, heard: Vec::new() },
            &view, &g, seed, steps,
        );
        prop_assert_eq!(&a, &b);
    }

    #[test]
    fn flooders_agree(
        g in arb_graph(),
        seed in 0u64..1000,
        active_for in 1u64..20,
        steps in 1u64..120,
    ) {
        let view = ScriptView::new(vec![None; g.n()], vec![None; g.n()]);
        let [a, b] = all_kernels(
            |i| Flooder {
                best: (i == 0).then_some(100),
                active_steps: 0,
                active_for,
                heard: 0,
            },
            &view, &g, seed, steps,
        );
        prop_assert_eq!(&a, &b);
    }

    #[test]
    fn flooders_agree_under_dynamics(
        case in arb_dynamic_case(),
        seed in 0u64..1000,
        active_for in 1u64..16,
        steps in 1u64..90,
    ) {
        let (g, view) = case;
        let [a, b] = all_kernels(
            |i| Flooder {
                best: (i == 0).then_some(100),
                active_steps: 0,
                active_for,
                heard: 0,
            },
            &view, &g, seed, steps,
        );
        prop_assert_eq!(&a, &b);
    }

    #[test]
    fn slot_beacons_agree(
        g in arb_graph(),
        seed in 0u64..1000,
        period in 1u64..9,
        horizon in 1u64..50,
        steps in 1u64..70,
    ) {
        let view = ScriptView::new(vec![None; g.n()], vec![None; g.n()]);
        let [a, b] = all_kernels(
            |_| SlotBeacon { period, horizon, last: 0, txs: 0 },
            &view, &g, seed, steps,
        );
        prop_assert_eq!(&a, &b);
    }

    /// Streaming traffic under churn and jamming: a random injection
    /// schedule (arrivals may land on down or jam-exposed nodes) flooded
    /// by the queue-draining archetype must leave every kernel with the
    /// identical known set on every node — the differential guarantee the
    /// traffic pipeline's delivery ledger is built on.
    #[test]
    fn traffic_injections_agree_under_dynamics(
        case in arb_dynamic_case(),
        raw in proptest::collection::vec((0u64..60, 0u64..1000, 0u64..10), 0..16),
        seed in 0u64..1000,
        hot_window in 1u64..24,
        steps in 1u64..90,
    ) {
        let (g, view) = case;
        let n = g.n() as u64;
        let mut inj: Vec<Injection<u64>> = raw
            .into_iter()
            .map(|(at, node, msg)| Injection { at, node: (node % n) as u32, msg })
            .collect();
        inj.sort_by_key(|i| (i.at, i.node, i.msg));
        prop_assert!(injections_ordered(&inj));
        let [a, b] = all_kernels_injected(&view, &g, seed, steps, hot_window, &inj);
        prop_assert_eq!(&a, &b);
    }

    /// SINR reception on a static topology: the spatially-indexed sparse
    /// resolution must be bit-identical to the dense O(L×T) scan —
    /// reports, stats (incl. the fallback counter), RNG streams, state —
    /// under every path-loss exponent, on a scatter and on the lattice
    /// whose links sit exactly on the decision boundary.
    #[test]
    fn talkers_agree_under_sinr(
        g in arb_graph(),
        seed in 0u64..1000,
        p in 1u32..700,
        steps in 1u64..60,
        alpha in arb_path_loss(),
        lattice in any::<bool>(),
    ) {
        let n = g.n();
        let view = ScriptView::new(vec![None; n], vec![None; n]);
        let (pts, range) = sinr_layout(lattice, (0..n).map(|i| {
            // Deterministic scatter keyed on the seed: positions must
            // be identical across the kernel runs.
            let h = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i as u64);
            let side = (n as f64).sqrt() * 1.8 + 1.0;
            let x = (h % 1024) as f64 / 1024.0 * side;
            let y = ((h >> 10) % 1024) as f64 / 1024.0 * side;
            [x, y, 0.0]
        }).collect());
        let [a, b] = all_kernels_with(
            |_| Talker { p_milli: p, sent: 0, heard: Vec::new() },
            &view, &g, seed, steps,
            sinr_mode(pts, alpha, range),
        );
        prop_assert_eq!(&a, &b);
    }

    /// SINR under scripted dynamics (crash/rejoin windows + jam windows):
    /// physical reception composes with node-state events identically in
    /// both kernels.
    #[test]
    fn talkers_agree_under_sinr_with_dynamics(
        case in arb_dynamic_case(),
        positions_seed in 0u64..1000,
        seed in 0u64..1000,
        steps in 1u64..60,
        alpha in arb_path_loss(),
        lattice in any::<bool>(),
    ) {
        let (g, view) = case;
        let n = g.n();
        let side = (n as f64).sqrt() * 1.8 + 1.0;
        let (pts, range) = sinr_layout(lattice, (0..n).map(|i| {
            let h = positions_seed.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(i as u64 * 7);
            [(h % 2048) as f64 / 2048.0 * side, ((h >> 11) % 2048) as f64 / 2048.0 * side, 0.0]
        }).collect());
        let [a, b] = all_kernels_with(
            |_| Talker { p_milli: 300, sent: 0, heard: Vec::new() },
            &view, &g, seed, steps,
            sinr_mode(pts, alpha, range),
        );
        prop_assert_eq!(&a, &b);
    }

    /// Flooders (re-engagement via on_hear) under SINR: the sparse
    /// kernel's post-delivery wake handling must match on physically
    /// delivered messages too.
    #[test]
    fn flooders_agree_under_sinr(
        g in arb_graph(),
        pts in (3usize..32).prop_flat_map(arb_positions),
        seed in 0u64..1000,
        active_for in 1u64..16,
        steps in 1u64..90,
        alpha in arb_path_loss(),
        lattice in any::<bool>(),
    ) {
        let n = g.n();
        let mut pts = pts;
        pts.resize(n, [0.5, 0.5, 0.0]);
        let (pts, range) = sinr_layout(lattice, pts);
        let view = ScriptView::new(vec![None; n], vec![None; n]);
        let [a, b] = all_kernels_with(
            |i| Flooder {
                best: (i == 0).then_some(100),
                active_steps: 0,
                active_for,
                heard: 0,
            },
            &view, &g, seed, steps,
            sinr_mode(pts, alpha, range),
        );
        prop_assert_eq!(&a, &b);
    }
}

/// CD mode with jam windows and churn: exercised outside the proptest macro
/// because the state extraction differs (collision counters).
#[test]
fn cd_jam_and_churn_agree() {
    for seed in 0..40u64 {
        let g =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]).unwrap();
        let down = vec![None, Some((3, 9)), None, Some((5, u64::MAX)), None, None];
        let jam = vec![Some((2, 8)), None, None, None, Some((0, 4)), None];
        let run = |kernel| {
            let view = ScriptView::new(down.clone(), jam.clone());
            let info = NetInfo { n: 6, d: 3, alpha: 3.0 };
            let mut sim = Sim::with_topology(&g, view, info, seed, ReceptionMode::ProtocolCd);
            sim.set_kernel(kernel);
            // Nodes 0..3 talk; 3..6 are passive CD ears. Same type is
            // needed per phase, so talkers are CdEar-wrapped Talkers: use
            // two separate phases instead.
            let mut talkers: Vec<Talker> = (0..6)
                .map(|i| Talker { p_milli: if i < 3 { 500 } else { 0 }, sent: 0, heard: vec![] })
                .collect();
            let rep1 = sim.run_phase(&mut talkers, 12);
            let mut ears: Vec<CdEar> = (0..6).map(|_| CdEar { heard: 0, collisions: 0 }).collect();
            let rep2 = sim.run_phase(&mut ears, 12);
            (
                rep1,
                rep2,
                sim.stats().kernel_invariant(),
                sim.rng_fingerprint(),
                talkers.iter().map(|t| (t.sent, t.heard.clone())).collect::<Vec<_>>(),
                ears.iter().map(|e| (e.heard, e.collisions)).collect::<Vec<_>>(),
            )
        };
        let sparse = run(Kernel::Sparse);
        assert_eq!(sparse, run(Kernel::Dense), "seed {seed}");
    }
}

/// Links on the SINR decision boundary: a lone transmitter exactly at the
/// decode range gives its listener SINR exactly β, which decodes; a second,
/// distant transmitter pushes that listener just below β, while a listener
/// sharing the second transmitter's point hears it at the near-field cap.
/// Every kernel must agree under every exponent.
#[test]
fn boundary_links_decide_identically_on_every_kernel() {
    let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
    let view = ScriptView::new(vec![None; 4], vec![None; 4]);
    // Node 1 is a 3-4-5 hypotenuse (the decode range 5) from node 0; node
    // 3 shares node 2's point.
    let pts = vec![[0.0, 0.0, 0.0], [3.0, 4.0, 0.0], [30.0, 0.0, 0.0], [30.0, 0.0, 0.0]];
    let steps = 10;
    for alpha in [2.0, 3.0, 4.0, 2.5] {
        for (second, deliveries, collisions) in [(false, steps, 0), (true, steps, steps)] {
            let cfg = sinr_config(pts.clone(), alpha, 5.0);
            let talks = |i: usize| i == 0 || (second && i == 2);
            let [a, b] = all_kernels_with(
                |i| Talker { p_milli: if talks(i) { 1000 } else { 0 }, sent: 0, heard: vec![] },
                &view,
                &g,
                7,
                steps,
                ReceptionMode::Sinr(cfg),
            );
            let case = format!("alpha {alpha}, second talker {second}");
            assert_eq!((a.0.deliveries, a.0.collisions), (deliveries, collisions), "{case}");
            assert_eq!(a, b, "{case}");
        }
    }
}

/// Equal SINR gains: listener 1 sits midway between node 0 and node 2 on a
/// path, and the threshold 0.5 lets it decode one of the two. Node 2
/// transmits every step; node 0 sleeps until step 3, so at step 3 the
/// sparse kernel's ring lists node 2 before node 0. Both kernels must decode
/// the lower node index, node 0, whichever order the transmitters acted in.
#[test]
fn equal_sinr_gains_decode_the_lower_node_index() {
    /// Node `id` of the path; `heard` holds `(step, sender)` pairs.
    struct Tie {
        id: u32,
        heard: Vec<(u64, u32)>,
    }
    impl Protocol for Tie {
        type Msg = u32;
        fn act(&mut self, ctx: &mut NodeCtx<'_>) -> Action<u32> {
            match self.id {
                0 if ctx.time == 3 => Action::Transmit(0),
                2 => Action::Transmit(2),
                1 => Action::Listen,
                _ => Action::Idle,
            }
        }
        fn on_hear(&mut self, ctx: &mut NodeCtx<'_>, msg: &u32) {
            self.heard.push((ctx.time, *msg));
        }
        fn next_wake(&self, now: u64) -> Wake {
            match self.id {
                0 if now < 3 => Wake::sleep_until(3),
                0 => Wake::sleep_until(Wake::NEVER),
                1 => Wake::listen(),
                _ => Wake::Now,
            }
        }
    }
    impl Snapshot<Vec<(u64, u32)>> for Tie {
        fn snapshot(&self) -> Vec<(u64, u32)> {
            self.heard.clone()
        }
    }
    let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
    let view = ScriptView::new(vec![None; 3], vec![None; 3]);
    let pts = vec![[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]];
    let mut cfg = SinrConfig::for_unit_range(pts, 1.0);
    cfg.threshold = 0.5;
    assert!(cfg.validate().is_ok());
    let [sparse, dense] = all_kernels_with(
        |i| Tie { id: i as u32, heard: Vec::new() },
        &view,
        &g,
        3,
        5,
        ReceptionMode::Sinr(cfg),
    );
    assert_eq!(sparse.3[1], [(0, 2), (1, 2), (2, 2), (3, 0), (4, 2)]);
    assert_eq!(sparse, dense);
}

/// The sparse kernel must genuinely jump (not just match): slot beacons that
/// sleep 25-step windows leave most of the clock silent, and the skip
/// counter has to show it while every observable stays identical to dense.
#[test]
fn sparse_kernel_actually_skips() {
    let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
    let info = NetInfo { n: 3, d: 2, alpha: 3.0 };
    let run = |kernel| {
        let mut sim = Sim::new(&g, info, 11);
        sim.set_kernel(kernel);
        let mut states: Vec<SlotBeacon> =
            (0..3).map(|_| SlotBeacon { period: 25, horizon: 200, last: 0, txs: 0 }).collect();
        let rep = sim.run_phase(&mut states, 300);
        (rep, *sim.stats(), sim.rng_fingerprint())
    };
    let (rep_s, st_s, fp_s) = run(Kernel::Sparse);
    let (rep_d, st_d, fp_d) = run(Kernel::Dense);
    assert_eq!(rep_s, rep_d);
    assert_eq!(fp_s, fp_d);
    assert_eq!(st_s.kernel_invariant(), st_d.kernel_invariant());
    assert_dense_has_no_scheduler(&st_d);
    assert!(
        st_s.silent_steps_skipped > 100,
        "beacons sleeping 25-step slots must skip most of the clock, skipped only {}",
        st_s.silent_steps_skipped
    );
}

/// A journal's waypoint boundaries split the sparse kernel's silent spans
/// (a boundary is checked after an executed step), but the landing step is
/// as silent as the span and counts as skipped, so a journaled run reports
/// the same stats as a quiet one at every cadence.
#[test]
fn journal_waypoints_do_not_move_the_skip_counter() {
    use radionet_journal::{ClassMask, Recorder};
    use radionet_sim::{Observed, StaticTopology};
    let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
    let info = NetInfo { n: 3, d: 2, alpha: 3.0 };
    let beacons =
        || (0..3).map(|_| SlotBeacon { period: 25, horizon: 200, last: 0, txs: 0 }).collect();
    let run = |journal: Option<Recorder>| {
        let obs = Observed { journal, metrics: None };
        let mut sim =
            Sim::try_observed(&g, StaticTopology, info, 11, ReceptionMode::Protocol, obs).unwrap();
        let mut states: Vec<SlotBeacon> = beacons();
        let rep = sim.run_phase(&mut states, 300);
        (rep, *sim.stats(), sim.rng_fingerprint())
    };
    let quiet = run(None);
    assert!(quiet.1.silent_steps_skipped > 100, "{:?}", quiet.1);
    for cadence in [1, 7, 25, 64, 299, 1000] {
        let journaled = run(Some(Recorder::new(ClassMask::ALL, cadence)));
        assert_eq!(journaled, quiet, "cadence {cadence}");
    }
}

/// A protocol whose hints lie (claims passivity but keeps drawing
/// randomness) would diverge — sanity-check that the harness catches real
/// differences, i.e. the comparison isn't vacuous.
#[test]
fn comparison_is_not_vacuous() {
    struct Liar {
        drew: u64,
    }
    impl Protocol for Liar {
        type Msg = ();
        fn act(&mut self, ctx: &mut NodeCtx<'_>) -> Action<()> {
            self.drew += ctx.rng.gen_bool(0.5) as u64;
            Action::Listen
        }
        fn on_hear(&mut self, _ctx: &mut NodeCtx<'_>, _msg: &()) {}
        fn next_wake(&self, _now: u64) -> Wake {
            Wake::listen() // a lie: act draws randomness every step
        }
    }
    let g = Graph::from_edges(2, [(0, 1)]).unwrap();
    let run = |kernel| {
        let info = NetInfo { n: 2, d: 1, alpha: 1.0 };
        let mut sim = Sim::new(&g, info, 7);
        sim.set_kernel(kernel);
        let mut states = vec![Liar { drew: 0 }, Liar { drew: 0 }];
        sim.run_phase(&mut states, 20);
        (sim.rng_fingerprint(), states[0].drew + states[1].drew)
    };
    assert_ne!(run(Kernel::Sparse), run(Kernel::Dense), "a lying hint must be detectable");
}
