//! Traffic injections: out-of-band message arrivals the kernels deliver.
//!
//! A streaming workload hands the engine a precomputed, time-sorted list of
//! [`Injection`]s; [`Sim::run_phase_with_injections`](crate::Sim::run_phase_with_injections)
//! delivers each one to its node — via [`Protocol::on_inject`](crate::Protocol::on_inject) —
//! at the start of its scheduled step, before any node acts. Delivery is
//! identical under both kernels: the dense kernel walks each step anyway,
//! the sparse kernel re-engages the injected node's `act` for that step
//! and treats the next pending arrival as a wake source so a clock jump
//! can never overshoot it. Injections are applied to the
//! protocol state regardless of the node's activity status (a churned-down
//! node still queues the message; it only *acts* on it once reactivated),
//! which keeps the two kernels byte-identical under churn.

/// One scheduled arrival: `msg` enters `node`'s protocol state at the start
/// of phase-local step `at`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Injection<M> {
    /// Phase-local step of the arrival (same basis as
    /// [`NodeCtx::time`](crate::NodeCtx::time)).
    pub at: u64,
    /// The receiving node's index.
    pub node: u32,
    /// The injected message.
    pub msg: M,
}

/// Whether a schedule is sorted by arrival step (ties in any node order) —
/// the precondition [`Sim::run_phase_with_injections`](crate::Sim::run_phase_with_injections)
/// asserts. Plans built by sorting on `(at, node)` satisfy it by
/// construction.
pub fn injections_ordered<M>(injections: &[Injection<M>]) -> bool {
    injections.windows(2).all(|w| w[0].at <= w[1].at)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_checked() {
        let ok = [
            Injection { at: 0, node: 3, msg: 1u64 },
            Injection { at: 0, node: 1, msg: 2 },
            Injection { at: 5, node: 0, msg: 3 },
        ];
        assert!(injections_ordered(&ok));
        let bad = [Injection { at: 5, node: 0, msg: 1u64 }, Injection { at: 4, node: 0, msg: 2 }];
        assert!(!injections_ordered(&bad));
        assert!(injections_ordered::<u64>(&[]));
    }
}
