//! Wake-contract auditor: every hint a protocol issues must describe what
//! its `act` would have done had the engine kept calling it (see
//! [`Wake`]).
//!
//! [`Audited`] wraps a protocol and runs it on [`Kernel::Dense`], which
//! calls `act` at every step and ignores hints. It records the inner
//! protocol's fresh hint where the sparse kernel takes one: after each
//! `act` outside a promised window, and after each `on_hear` and
//! `on_collision`. The `act` calls inside a window are the ones the sparse
//! kernel skips, so they take no hint; at each of them the auditor checks
//! the promise that opened the window:
//!
//! * inside a `Listen` window the action is `Listen` and the node's RNG is
//!   untouched;
//! * inside a `Sleep` window the action is `Idle` and the RNG is untouched;
//! * after `Retire` the node is done, idles and leaves its RNG alone;
//! * past a `done_at` step the node is done.
//!
//! A gap in a node's `act` calls means the topology deactivated it. The
//! sparse kernel then drops its timers and re-engages it on return, so the
//! auditor does too; [`Blink`] churn and staggered wake reach the hint arms
//! that only a reactivation can, and cut the coin windows that nodes draw
//! ahead at the view's events.
//!
//! The kernel-equivalence tests see a broken promise only when it changes
//! an outcome on the graphs they draw; the auditor stops at the first step
//! that breaks one.

use radionet_cluster::partition_radio::{RadioPartitionConfig, RadioPartitionNode};
use radionet_core::mis::{MisConfig, MisNode};
use radionet_graph::independent_set::greedy_mis_min_degree;
use radionet_graph::{generators, Graph, NodeId};
use radionet_primitives::decay::{DecayConfig, DecayProtocol, DecaySchedule};
use radionet_primitives::effective_degree::{EedConfig, EedProtocol};
use radionet_sim::{
    Action, Kernel, NetInfo, NodeCtx, Protocol, ReceptionMode, Sim, TopologyView, Wake,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How many `act` calls fell inside each kind of promise.
#[derive(Clone, Copy, Debug, Default)]
struct Audit {
    listen: u64,
    sleep: u64,
    retired: u64,
    done: u64,
}

impl Audit {
    fn add(self, o: Audit) -> Audit {
        Audit {
            listen: self.listen + o.listen,
            sleep: self.sleep + o.sleep,
            retired: self.retired + o.retired,
            done: self.done + o.done,
        }
    }
}

/// A protocol under audit (see the module docs).
struct Audited<P> {
    inner: P,
    node: usize,
    /// The latest hint and the step it was issued at.
    hint: Option<(u64, Wake)>,
    /// The step of the latest `act` call.
    last_act: Option<u64>,
    /// `is_done()` must hold from the end of this step on: a retirement or
    /// a done promise that matured before a newer hint superseded it (the
    /// sparse kernel's done flag is sticky, and `is_done` is monotone).
    done_from: Option<u64>,
    audit: Audit,
}

impl<P: Protocol> Audited<P> {
    fn new(node: usize, inner: P) -> Self {
        Audited {
            inner,
            node,
            hint: None,
            last_act: None,
            done_from: None,
            audit: Audit::default(),
        }
    }

    /// The current hint's done promise, if it makes one.
    fn done_at(&self) -> Option<u64> {
        match self.hint {
            Some((_, Wake::Listen { done_at, .. } | Wake::Sleep { done_at, .. })) => done_at,
            _ => None,
        }
    }

    /// Keeps the current hint's done promise binding if it matured by the
    /// end of step `step - 1`, before anything superseded it.
    fn settle(&mut self, step: u64) {
        if let Some(d) = self.done_at().filter(|&d| d < step) {
            self.must_be_done_from(d);
        }
    }

    fn must_be_done_from(&mut self, step: u64) {
        self.done_from = Some(self.done_from.map_or(step, |f| f.min(step)));
    }

    /// Takes the inner protocol's fresh hint at step `now`.
    fn record(&mut self, now: u64) {
        self.settle(now);
        let hint = self.inner.next_wake(now);
        if hint == Wake::Retire {
            self.must_be_done_from(now);
        }
        self.hint = Some((now, hint));
    }
}

impl<P: Protocol> Protocol for Audited<P> {
    type Msg = P::Msg;

    fn act(&mut self, ctx: &mut NodeCtx<'_>) -> Action<P::Msg> {
        let (t, node) = (ctx.time, self.node);
        if let Some(last) = self.last_act.filter(|&last| last + 1 < t) {
            // Reactivated: the timers died with the deactivation.
            self.settle(last + 1);
            self.hint = None;
        }
        self.last_act = Some(t);
        if let Some(d) = self.done_from.into_iter().chain(self.done_at()).filter(|&d| d < t).min() {
            assert!(self.inner.is_done(), "node {node}: not done at step {t}, promised from {d}");
            self.audit.done += 1;
        }
        let before = ctx.rng.clone();
        let action = self.inner.act(ctx);
        let Some((at, hint)) = self.hint else {
            self.record(t);
            return action;
        };
        let kept = match hint {
            Wake::Listen { wake_at, .. } if t < wake_at => {
                self.audit.listen += 1;
                matches!(action, Action::Listen)
            }
            Wake::Sleep { wake_at, .. } if t < wake_at => {
                self.audit.sleep += 1;
                matches!(action, Action::Idle)
            }
            Wake::Retire => {
                self.audit.retired += 1;
                matches!(action, Action::Idle)
            }
            // Engaged: `Now`, or a window that ended at `wake_at`.
            _ => {
                self.record(t);
                return action;
            }
        };
        let did = match action {
            Action::Transmit(_) => "transmitted",
            Action::Listen => "listened",
            Action::Idle => "idled",
        };
        assert!(kept, "node {node}: {did} at step {t} inside {hint:?} issued at {at}");
        assert!(*ctx.rng == before, "node {node}: drew at step {t} inside {hint:?} issued at {at}");
        action
    }

    fn on_hear(&mut self, ctx: &mut NodeCtx<'_>, msg: &P::Msg) {
        self.inner.on_hear(ctx, msg);
        self.record(ctx.time);
    }

    fn on_collision(&mut self, ctx: &mut NodeCtx<'_>) {
        self.inner.on_collision(ctx);
        self.record(ctx.time);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

/// Churn: node `v` is down during the half-open step window `down[v]`,
/// then returns (no windows: a static topology).
struct Blink {
    down: Vec<Option<(u64, u64)>>,
    clock: Option<u64>,
    changed: Vec<NodeId>,
}

impl Blink {
    fn active_at(&self, v: usize, t: u64) -> bool {
        self.down[v].is_none_or(|(from, until)| t < from || t >= until)
    }
}

impl TopologyView for Blink {
    fn advance_to(&mut self, _base: &Graph, clock: u64) {
        for v in 0..self.down.len() {
            if self.clock.is_none_or(|prev| self.active_at(v, prev) != self.active_at(v, clock)) {
                self.changed.push(NodeId::new(v));
            }
        }
        self.clock = Some(clock);
    }

    fn neighbors<'a>(&'a self, base: &'a Graph, v: NodeId) -> &'a [NodeId] {
        base.neighbors(v)
    }

    fn is_active(&self, v: NodeId) -> bool {
        self.active_at(v.index(), self.clock.unwrap_or(0))
    }

    fn is_jammed(&self, _v: NodeId) -> bool {
        false
    }

    fn is_retired(&self, _v: NodeId) -> bool {
        false
    }

    fn drain_status_changes(&mut self, out: &mut Vec<NodeId>) {
        out.append(&mut self.changed);
    }

    fn jammed_nodes(&self) -> &[NodeId] {
        &[]
    }

    fn next_event(&self, clock: u64) -> Option<u64> {
        self.down.iter().flatten().flat_map(|&(f, u)| [f, u]).filter(|&e| e > clock).min()
    }
}

/// A protocol whose contexts, when `step_by_step`, carry a horizon at the
/// next step: no coin window then spans a step, so the node flips each
/// coin at its own step, as the step-by-step loop does.
struct Horizon<P> {
    inner: P,
    step_by_step: bool,
}

impl<P: Protocol> Protocol for Horizon<P> {
    type Msg = P::Msg;

    fn act(&mut self, ctx: &mut NodeCtx<'_>) -> Action<P::Msg> {
        if self.step_by_step {
            ctx.horizon = ctx.time + 1;
        }
        self.inner.act(ctx)
    }

    fn on_hear(&mut self, ctx: &mut NodeCtx<'_>, msg: &P::Msg) {
        self.inner.on_hear(ctx, msg);
    }

    fn on_collision(&mut self, ctx: &mut NodeCtx<'_>) {
        self.inner.on_collision(ctx);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn next_wake(&self, now: u64) -> Wake {
        self.inner.next_wake(now)
    }
}

/// Runs one phase of the protocol `make` builds (its states and step
/// budget) under the churn `down` on the dense kernel with every node
/// audited. First the sparse kernel, the dense kernel and the dense kernel
/// run step by step ([`Horizon`]) must end the phase with the same report,
/// counters and RNG streams: coins drawn ahead are the step-by-step loop's
/// coins, also where the view takes nodes down.
fn audit<P: Protocol>(
    g: &Graph,
    down: Vec<Option<(u64, u64)>>,
    reception: ReceptionMode,
    seed: u64,
    make: impl Fn(&NetInfo) -> (Vec<P>, u64),
) -> Audit {
    let info = NetInfo::exact(g);
    let new_sim = |kernel| {
        let topo = Blink { down: down.clone(), clock: None, changed: Vec::new() };
        let mut sim = Sim::with_topology(g, topo, info, seed, reception.clone());
        sim.set_kernel(kernel);
        sim
    };
    let run = |kernel, step_by_step| {
        let (states, steps) = make(&info);
        let mut states: Vec<_> =
            states.into_iter().map(|inner| Horizon { inner, step_by_step }).collect();
        let mut sim = new_sim(kernel);
        let report = sim.run_phase(&mut states, steps);
        (report, sim.stats().kernel_invariant(), sim.rng_fingerprint())
    };
    let dense = run(Kernel::Dense, false);
    assert_eq!(run(Kernel::Sparse, false), dense, "the kernels disagree");
    assert_eq!(run(Kernel::Dense, true), dense, "windows differ from the step-by-step loop");

    let (states, steps) = make(&info);
    let mut audited: Vec<Audited<P>> =
        states.into_iter().enumerate().map(|(i, p)| Audited::new(i, p)).collect();
    new_sim(Kernel::Dense).run_phase(&mut audited, steps);
    audited.iter().fold(Audit::default(), |sum, a| sum.add(a.audit))
}

/// A grid, a path, a star, a clique, two G(n, p) graphs (one connected)
/// and a graph with isolated nodes.
fn graphs() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(0xa0d17);
    vec![
        ("grid", generators::grid2d(8, 8)),
        ("path", generators::path(40)),
        ("star", generators::star(24)),
        ("clique", generators::complete(16)),
        ("gnp", generators::gnp(48, 0.08, &mut rng)),
        ("connected gnp", generators::connected_gnp(48, 0.12, &mut rng)),
        ("isolated", Graph::from_edges(12, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7)]).unwrap()),
    ]
}

fn mis_audit(
    g: &Graph,
    config: MisConfig,
    down: Vec<Option<(u64, u64)>>,
    reception: ReceptionMode,
    seed: u64,
) -> Audit {
    audit(g, down, reception, seed, |info| {
        let steps = config.total_steps(MisConfig::effective_log_n(info.log_n()));
        ((0..g.n()).map(|_| MisNode::new(config, info.log_n())).collect(), steps)
    })
}

/// Every third node leaves in the EED segment of round 0 or 1 and returns
/// in a later MarkDecay, MisDecay or EED segment: a member re-engaged
/// outside MisDecay sleeps until this round's MisDecay if it returns
/// before it, and until the next round's if after.
fn mis_churn(g: &Graph, config: MisConfig) -> Vec<Option<(u64, u64)>> {
    let log_n = MisConfig::effective_log_n(NetInfo::exact(g).log_n());
    let (r, d) = (config.round_steps(log_n), config.decay_steps(log_n));
    (0..g.n() as u64)
        .map(|v| {
            let (round, back) = ((v / 3) % 2, [d / 2, d + d / 2, 2 * d + 3][(v / 6) as usize % 3]);
            (v % 3 == 0).then_some((round * r + 2 * d + 1 + v % 7, (round + 1) * r + back))
        })
        .collect()
}

/// Staggered wake: every node but node 0 sleeps from step 0 until a step
/// inside one of the first two rounds' segments or on a segment boundary,
/// and so first acts mid-round with the state it was built with (its EED
/// count never restarted).
fn mis_stagger(g: &Graph, config: MisConfig) -> Vec<Option<(u64, u64)>> {
    let log_n = MisConfig::effective_log_n(NetInfo::exact(g).log_n());
    let (r, d) = (config.round_steps(log_n), config.decay_steps(log_n));
    let wake = [d / 2, d, d + 1, 2 * d, 2 * d + 3, r, r + d / 2, r + 2 * d + r / 4];
    (0..g.n() as u64)
        .map(|v| (v > 0).then_some((0, wake[v as usize % wake.len()] + (v / 8) % 5)))
        .collect()
}

#[test]
fn radio_mis_keeps_every_wake_promise() {
    #[derive(Clone, Copy)]
    enum View {
        Still,
        Churn,
        Stagger,
    }
    let mut total = Audit::default();
    for (name, g) in graphs() {
        for config in [MisConfig::default(), MisConfig::fast()] {
            for (seed, reception, view) in [
                (1, ReceptionMode::Protocol, View::Still),
                (2, ReceptionMode::Protocol, View::Still),
                (3, ReceptionMode::ProtocolCd, View::Still),
                (8, ReceptionMode::Protocol, View::Churn),
                (9, ReceptionMode::Protocol, View::Stagger),
                (10, ReceptionMode::ProtocolCd, View::Stagger),
            ] {
                let down = match view {
                    View::Still => vec![None; g.n()],
                    View::Churn => mis_churn(&g, config),
                    View::Stagger => mis_stagger(&g, config),
                };
                let a = mis_audit(&g, config, down, reception, seed);
                assert!(a.listen + a.sleep + a.retired > 0, "{name}: nothing audited");
                total = total.add(a);
            }
        }
    }
    // Every window kind of the hints was exercised: undecided listeners,
    // sleeping members between announcements, retired dominated nodes.
    assert!(total.listen > 0 && total.sleep > 0 && total.retired > 0, "{total:?}");
}

#[test]
fn radio_mis_with_history_keeps_acting() {
    // E10 reads every node's record at each round boundary, so a run that
    // records history promises no window at all.
    let config = MisConfig { record_history: true, ..MisConfig::fast() };
    for (name, g) in graphs() {
        let a = mis_audit(&g, config, vec![None; g.n()], ReceptionMode::Protocol, 4);
        assert_eq!(a.listen + a.sleep + a.retired + a.done, 0, "{name}: {a:?}");
    }
}

/// Every third node leaves inside one partition phase and returns one to
/// four phases later, inside a phase or on its boundary: a center can miss
/// its start boundary, and a node can miss the boundary that commits the
/// offer it holds.
fn partition_churn(g: &Graph, config: RadioPartitionConfig, beta: f64) -> Vec<Option<(u64, u64)>> {
    let info = NetInfo::exact(g);
    let (steps, phases) = (config.phase_steps(info.log_n()), config.total_phases(beta, info.n));
    (0..g.n() as u64)
        .map(|v| {
            let from = (v * 5 % phases) * steps + v % steps;
            (v % 3 == 0).then_some((from, from + (1 + v % 4) * steps + (v / 3) % 2))
        })
        .collect()
}

#[test]
fn control_protocols_keep_their_wake_promises() {
    for (name, g) in graphs() {
        let centers = greedy_mis_min_degree(&g);
        let still = || vec![None; g.n()];
        // β = 0.1 spreads the centers' start phases over about 80 phases.
        for (beta, churn) in [(0.5, false), (0.1, false), (0.1, true)] {
            let config = RadioPartitionConfig::default();
            let down = if churn { partition_churn(&g, config, beta) } else { still() };
            let partition = audit(&g, down, ReceptionMode::Protocol, 5, |info| {
                let states = (0..g.n())
                    .map(|v| {
                        let center = centers.iter().any(|c| c.index() == v);
                        RadioPartitionNode::new(config, beta, info.n, info.log_n(), center)
                    })
                    .collect();
                (states, config.total_steps(beta, info.n, info.log_n()))
            });
            assert!(partition.listen > 0, "{name} partition, β = {beta}: {partition:?}");
        }

        let decay = audit(&g, still(), ReceptionMode::ProtocolCd, 6, |info| {
            let schedule = DecaySchedule::new(info.log_n());
            let config = DecayConfig::whp(info.log_n());
            let states = (0..g.n())
                .map(|v| DecayProtocol::new(schedule, config, (v % 5 == 0).then_some(v)))
                .collect();
            (states, config.total_steps(schedule) + 2)
        });
        assert!(decay.listen > 0, "{name} decay: {decay:?}");

        audit(&g, still(), ReceptionMode::Protocol, 7, |info| {
            let config = EedConfig::default();
            let states = (0..g.n())
                .map(|v| EedProtocol::new(config, info.log_n(), 0.5 / (1 + v % 3) as f64))
                .collect();
            (states, config.total_steps(info.log_n()) + 2)
        });
    }
}
