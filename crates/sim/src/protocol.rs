//! The protocol interface: what a node may do and what it may know.

use radionet_graph::Graph;
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};

/// A scheduling hint: what the engine may assume about a node until it next
/// engages it. Returned by [`Protocol::next_wake`] and consumed by the
/// sparse step kernel (see [`Kernel`](crate::Kernel)); the dense reference
/// kernel ignores hints entirely, which is what makes the two comparable.
///
/// All times are **phase-local steps**, the same basis as [`NodeCtx::time`];
/// [`Wake::NEVER`] (`u64::MAX`) means "not before the phase ends".
///
/// # Contract
///
/// A hint is a *promise about counterfactual `act` calls*: it must describe
/// what the node would have done had the engine kept calling `act` every
/// step, exactly as the dense kernel does. A protocol that breaks a promise
/// (draws randomness, transmits, or observably changes state inside a
/// window it declared passive) diverges between the two kernels; the
/// equivalence proptests exist to catch that. Internal bookkeeping that is
/// never externally observable (a cached `elapsed`, a self-healing slot
/// cursor) may go stale inside a window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wake {
    /// No promise: call `act` again next step. Always correct; the default.
    Now,
    /// Passive listener: at every step `t` with `now < t < wake_at`, `act`
    /// would return [`Action::Listen`] without drawing randomness or
    /// changing observable state. The engine keeps the node in the listener
    /// set without calling it, and re-engages it at `wake_at` — or as soon
    /// as it hears a message or (under collision detection) a collision,
    /// after which a fresh hint supersedes this one.
    Listen {
        /// First step at which `act` must run again ([`Wake::NEVER`] = not
        /// before the phase ends).
        wake_at: u64,
        /// If `Some(d)`: had `act` been called every step, `is_done()`
        /// would return `true` at the end of step `d` and of every later
        /// step. Lets the engine account phase completion without waking
        /// the node.
        done_at: Option<u64>,
    },
    /// Deaf idle: like [`Wake::Listen`], but `act` would return
    /// [`Action::Idle`] — the node hears nothing in the window and can only
    /// be re-engaged by `wake_at` or a topology reactivation.
    Sleep {
        /// First step at which `act` must run again.
        wake_at: u64,
        /// As in [`Wake::Listen`].
        done_at: Option<u64>,
    },
    /// Permanently finished: had `act` been called every step, `is_done()`
    /// would be `true` from the end of the current step on, and every
    /// future `act` would return [`Action::Idle`] with no observable
    /// effects. The engine never engages the node again this phase.
    Retire,
}

impl Wake {
    /// Sentinel wake time: "no wake-up before the phase ends".
    pub const NEVER: u64 = u64::MAX;

    /// Listen passively with no scheduled wake-up (re-engaged by traffic).
    pub const fn listen() -> Self {
        Wake::Listen { wake_at: Wake::NEVER, done_at: None }
    }

    /// Listen passively until `wake_at` (re-engaged earlier by traffic).
    pub const fn listen_until(wake_at: u64) -> Self {
        Wake::Listen { wake_at, done_at: None }
    }

    /// Sleep (deaf and frozen) until `wake_at`.
    pub const fn sleep_until(wake_at: u64) -> Self {
        Wake::Sleep { wake_at, done_at: None }
    }
}

/// A node's choice in one time-step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action<M> {
    /// Transmit `M` to all neighbors (subject to collision).
    Transmit(M),
    /// Listen; [`Protocol::on_hear`] fires if exactly one neighbor transmits.
    Listen,
    /// Neither transmit nor listen (a halted or removed node).
    ///
    /// Operationally identical to [`Action::Listen`] with the delivery
    /// discarded, but lets the engine skip bookkeeping and makes protocol
    /// state machines clearer.
    Idle,
}

/// What the ad-hoc model lets every node know (paper, Section 1.1): linear
/// upper estimates of `n` and `D`, and a polynomial approximation of the
/// independence number `α`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetInfo {
    /// Upper estimate of the node count (within a constant factor).
    pub n: usize,
    /// Upper estimate of the diameter (within a constant factor).
    pub d: u32,
    /// Polynomial approximation of the independence number.
    pub alpha: f64,
}

impl NetInfo {
    /// Above this node count, [`NetInfo::exact`] switches from the exact
    /// diameter to the 3-BFS double-sweep bound. The exact search usually
    /// takes a handful of BFS, but a BFS per fringe node in the worst case
    /// (`O(n·m)`), which would let *setup* dominate million-node runs whose
    /// simulation is otherwise near-linear. The double sweep is exact on
    /// the tree/path/grid families and always within a factor 2, which the
    /// paper's "estimates within a constant factor" model explicitly
    /// tolerates.
    pub const EXACT_DIAMETER_MAX_N: usize = 32_768;

    /// Builds exact network information from a graph — the harness's default
    /// (the model allows estimates; exactness is the easiest valid choice).
    ///
    /// `D` is `traversal::diameter` (exact, by per-node eccentricity bounds)
    /// up to [`NetInfo::EXACT_DIAMETER_MAX_N`] nodes, and the 3-BFS
    /// double-sweep bound beyond. `α` is the estimate of
    /// `independent_set::alpha_bounds`, whose branch and bound expands at
    /// most 500,000 search nodes up to 64 nodes, 50,000 up to 128 and 2,000
    /// beyond; past `independent_set::EXACT_SEARCH_MAX_N` (16,384 nodes) it
    /// takes the greedy/clique-cover bracket, which the paper's "any
    /// polynomial approximation will suffice" tolerates. Both are computed
    /// afresh on every call, in well under a second at each threshold.
    pub fn exact(g: &Graph) -> Self {
        let d = if g.n() <= Self::EXACT_DIAMETER_MAX_N {
            radionet_graph::traversal::diameter(g)
        } else {
            radionet_graph::traversal::diameter_double_sweep(g)
        };
        let budget = match g.n() {
            0..=64 => 500_000,
            65..=128 => 50_000,
            _ => 2_000,
        };
        let alpha = radionet_graph::independent_set::alpha_bounds(g, budget).estimate();
        NetInfo { n: g.n().max(1), d: d.max(1), alpha: alpha.max(1.0) }
    }

    /// Same as [`NetInfo::exact`] but with `n`, `D`, `α` each inflated by
    /// `slack` (≥ 1.0), for testing robustness to estimate error.
    ///
    /// # Panics
    ///
    /// Panics if `slack < 1.0`.
    pub fn with_slack(g: &Graph, slack: f64) -> Self {
        assert!(slack >= 1.0, "slack must be >= 1");
        let base = Self::exact(g);
        NetInfo {
            n: ((base.n as f64) * slack).ceil() as usize,
            d: ((base.d as f64) * slack).ceil() as u32,
            alpha: base.alpha * slack,
        }
    }

    /// `⌈log₂ n⌉`, the ubiquitous protocol parameter, at least 1.
    pub fn log_n(&self) -> u32 {
        (self.n.max(2) as f64).log2().ceil() as u32
    }

    /// `log₂ D`, at least 1.0 (the paper's `log D` terms).
    pub fn log_d(&self) -> f64 {
        (self.d.max(2) as f64).log2()
    }

    /// `log_D α = ln α / ln D`, clamped to at least 1.0 — the paper's key
    /// quantity (`Θ(log_D α)` fine-cluster radius multiplier).
    pub fn log_d_alpha(&self) -> f64 {
        let ld = (self.d.max(2) as f64).ln();
        (self.alpha.max(2.0).ln() / ld).max(1.0)
    }

    /// `log_D n`, clamped to at least 1.0 (the \[CD21\] analogue).
    pub fn log_d_n(&self) -> f64 {
        let ld = (self.d.max(2) as f64).ln();
        ((self.n.max(2) as f64).ln() / ld).max(1.0)
    }
}

/// Per-step context handed to a [`Protocol`].
#[derive(Debug)]
pub struct NodeCtx<'a> {
    /// The protocol-local time-step (0-based within the current phase; under
    /// multiplexing, within this protocol's own sub-schedule).
    pub time: u64,
    /// Network estimates available to every node in the ad-hoc model.
    pub info: &'a NetInfo,
    /// The node's private randomness source.
    pub rng: &'a mut SmallRng,
}

/// A per-node protocol state machine.
///
/// The engine calls [`act`](Protocol::act) once per time-step for every
/// node, resolves collisions, then calls [`on_hear`](Protocol::on_hear) on
/// each listener with exactly one transmitting neighbor. Implementations
/// must not assume anything about node identity beyond what they draw from
/// `ctx.rng` (ad-hoc model).
///
/// # Scheduling hints and the sparse kernel (migration note)
///
/// Under the sparse step kernel (the default, see
/// [`Kernel`](crate::Kernel)), the engine additionally calls
/// [`next_wake`](Protocol::next_wake) after every `act` / `on_hear` /
/// `on_collision`, and **skips** `act` calls inside the window the hint
/// declares passive. Downstream protocol authors migrating to the new
/// contract should observe:
///
/// * The default `Wake::Now` is always correct — an unmigrated protocol
///   runs bit-identically, it just never gets skipped.
/// * A non-`Now` hint is a promise about what `act` *would have* returned
///   had it been called every step (see [`Wake`]). Inside a declared
///   window, `act` must not draw from `ctx.rng`, must not transmit, and
///   must not observably change state — which in practice means time-driven
///   protocols should derive their position from [`NodeCtx::time`] rather
///   than from an every-call counter.
/// * [`is_done`](Protocol::is_done) must be **monotone within a phase**:
///   once true it stays true. Both kernels rely on this for completion
///   accounting.
/// * Hearing a message (or, with collision detection, a collision) always
///   re-engages a passive listener: `act` resumes the following step and a
///   fresh hint is taken, so "listen until something happens" is expressed
///   as [`Wake::listen`].
/// * Under [`Kernel::Event`](crate::Kernel), declared-passive windows are
///   not merely skipped per node — when *every* node is passive the clock
///   jumps over the whole silent span without executing its steps at all.
///   A correct hint under the sparse kernel is automatically correct here,
///   but the stakes are stated more sharply: the promise must hold at
///   **every** step of the window, because the engine may next evaluate the
///   node's surroundings at an arbitrary jumped-to time inside it, not at
///   `now + 1`.
pub trait Protocol {
    /// Message type carried over the air.
    type Msg: Clone;

    /// Decide this step's action. Called exactly once per step.
    fn act(&mut self, ctx: &mut NodeCtx<'_>) -> Action<Self::Msg>;

    /// Called after `act` in the same step if this node listened and heard a
    /// message (exactly one transmitting neighbor).
    fn on_hear(&mut self, ctx: &mut NodeCtx<'_>, msg: &Self::Msg);

    /// Called instead of [`on_hear`](Protocol::on_hear) when the node
    /// listened into a collision **and the engine runs with collision
    /// detection** ([`ReceptionMode::ProtocolCd`](crate::ReceptionMode));
    /// the paper's default model never invokes it (collisions are
    /// indistinguishable from silence there).
    fn on_collision(&mut self, _ctx: &mut NodeCtx<'_>) {}

    /// Out-of-band arrival of a locally originated message (a traffic
    /// injection, see [`Injection`](crate::Injection)): the application
    /// layer hands `msg` to this node's outbound queue at the start of the
    /// step, *before* any node acts. Every kernel delivers injections at
    /// exactly their scheduled step — the sparse and event kernels treat a
    /// pending arrival as a wake source and re-engage the node — so an
    /// injection supersedes any passive window the node promised, and the
    /// fresh hint taken after the same step's `act` covers what follows.
    /// The default ignores the message (protocols that never carry traffic
    /// need no queue).
    fn on_inject(&mut self, _ctx: &mut NodeCtx<'_>, _msg: &Self::Msg) {}

    /// Whether this node's role in the phase is complete. A phase ends when
    /// every node is done (or the step budget runs out). Must be monotone
    /// within a phase: once `true`, it stays `true`.
    fn is_done(&self) -> bool {
        false
    }

    /// Scheduling hint for the sparse and event kernels, queried right
    /// after this node's `act`, `on_hear` or `on_collision` at phase-local
    /// step `now`. The returned promise covers steps after `now` and is
    /// superseded by the next engagement. See [`Wake`] for the exact
    /// semantics; the default makes no promise.
    ///
    /// The promise is **counterfactual and span-wide**: it states what
    /// `act` would have returned at *each* step of the declared window,
    /// not only at `now + 1`. The sparse kernel exploits it step by step;
    /// the event kernel ([`Kernel::Event`](crate::Kernel)) goes further
    /// and jumps the clock to the earliest wake deadline when every node
    /// is passive, so the hint must remain valid at whichever in-window
    /// time the engine lands on. Deriving behavior from
    /// [`NodeCtx::time`] (never from a per-call counter) keeps both
    /// kernels bit-identical to the dense reference.
    fn next_wake(&self, now: u64) -> Wake {
        let _ = now;
        Wake::Now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radionet_graph::generators;

    #[test]
    fn netinfo_exact_on_grid() {
        let g = generators::grid2d(4, 4);
        let info = NetInfo::exact(&g);
        assert_eq!(info.n, 16);
        assert_eq!(info.d, 6);
        assert!((info.alpha - 8.0).abs() < 1e-9);
        assert_eq!(info.log_n(), 4);
    }

    #[test]
    fn netinfo_slack_inflates() {
        let g = generators::grid2d(4, 4);
        let a = NetInfo::exact(&g);
        let b = NetInfo::with_slack(&g, 2.0);
        assert_eq!(b.n, 2 * a.n);
        assert_eq!(b.d, 2 * a.d);
        assert!(b.alpha > a.alpha);
    }

    #[test]
    #[should_panic(expected = "slack must be >= 1")]
    fn slack_below_one_rejected() {
        let g = generators::path(4);
        let _ = NetInfo::with_slack(&g, 0.5);
    }

    #[test]
    fn log_quantities_clamped() {
        let info = NetInfo { n: 2, d: 1, alpha: 1.0 };
        assert!(info.log_d_alpha() >= 1.0);
        assert!(info.log_d_n() >= 1.0);
        assert!(info.log_n() >= 1);
    }

    #[test]
    fn log_d_alpha_vs_n_separation() {
        // Grid: alpha = n/2, so log_D α ≈ log_D n. UDG-like small alpha:
        // alpha = D², n = D⁴ → log_D α = 2, log_D n = 4.
        let info = NetInfo { n: 10_000, d: 10, alpha: 100.0 };
        assert!((info.log_d_alpha() - 2.0).abs() < 1e-9);
        assert!((info.log_d_n() - 4.0).abs() < 1e-9);
    }
}
