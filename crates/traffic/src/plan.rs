//! Materializing a [`TrafficSpec`] into a concrete message schedule.
//!
//! Plan generation is **RNG-free**: every arrival coin, destination draw
//! and multicast salt is a pure [`mix`] hash of the traffic seed and the
//! (sender, step) or message-id coordinates. That keeps the plan outside
//! the simulator's per-node RNG streams — adding traffic to a run changes
//! neither the graph nor any protocol's random draws — and makes the plan
//! trivially identical across kernels, threads and machines.

use crate::spec::{Arrival, TrafficKind, TrafficSpec};
#[cfg(test)]
use crate::spec::{BurstyArrival, PoissonArrival};
use radionet_sim::{mix, Injection};
use serde::{Deserialize, Serialize};

/// A salted pseudo-random multicast member set: node `i` is a member iff
/// `mix(salt ^ i) % 1000 < per_mille`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MulticastSet {
    /// Per-message membership salt.
    pub salt: u64,
    /// Membership density in per-mille.
    pub per_mille: u16,
}

/// A message's intended recipient set, recomputable from the plan alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dst {
    /// Every node (flood/gossip accounting).
    All,
    /// Exactly one destination node (point-to-point).
    One(u32),
    /// A salted pseudo-random member set (see [`MulticastSet`]).
    Many(MulticastSet),
}

impl Dst {
    /// Whether `node` is an intended recipient of a message with this
    /// destination set (the source itself is excluded by the ledger, not
    /// here).
    pub fn includes(&self, node: u32) -> bool {
        match *self {
            Dst::All => true,
            Dst::One(d) => node == d,
            Dst::Many(set) => mix(set.salt ^ u64::from(node)) % 1000 < u64::from(set.per_mille),
        }
    }
}

/// One scheduled message: the unit the delivery ledger accounts for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlannedMessage {
    /// Message id — sequential in injection order, and the on-air payload.
    pub id: u64,
    /// Step the message enters its source node's outbound queue.
    pub at: u64,
    /// Source node.
    pub src: u32,
    /// Intended recipient set.
    pub dst: Dst,
}

/// The fully materialized schedule for one run: every message's id,
/// arrival step, source and destination set, in injection order.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficPlan {
    /// Messages sorted by `(at, src)`; ids are the vector indices.
    pub messages: Vec<PlannedMessage>,
    /// Phase length the plan was built for.
    pub horizon: u64,
}

impl TrafficPlan {
    /// Materialize `spec` for an `n`-node run from the traffic seed.
    ///
    /// Senders are strided evenly across the node range. Arrival coins are
    /// evaluated step-outer / sender-inner, so the message list is born
    /// sorted by `(at, src)` and ids are assigned in that order; the
    /// `spec.messages` budget truncates the tail deterministically.
    pub fn build(spec: &TrafficSpec, kind: TrafficKind, n: u32, seed: u64) -> TrafficPlan {
        assert!(n > 0, "traffic plan needs at least one node");
        let senders = spec.senders.clamp(1, n);
        let stride = (n / senders).max(1);
        let cap = spec.messages as usize;
        let horizon = u64::from(spec.horizon);

        let (per_10k, cycle_on, cycle_len) = match spec.arrival {
            Arrival::Poisson(p) => (u64::from(p.per_10k), 1u64, 1u64),
            Arrival::Bursty(b) => {
                let on = u64::from(b.on);
                (u64::from(b.per_10k), on, on + u64::from(b.off))
            }
        };

        // Arrivals stop at the horizon midpoint: the second half of the
        // phase is the *drain window*, where in-flight messages finish
        // propagating. Messages the drain could not flush are the
        // `undelivered` count — injecting right up to the horizon would
        // make full delivery structurally impossible.
        let arrival_window = horizon.div_ceil(2);
        let mut messages = Vec::new();
        'gen: for t in 0..arrival_window {
            if t % cycle_len >= cycle_on {
                continue; // silent part of the burst cycle
            }
            for s in 0..senders {
                let coin = mix(seed ^ ((u64::from(s) + 1) << 32 | t));
                if coin % 10_000 >= per_10k {
                    continue;
                }
                let id = messages.len() as u64;
                let src = (s * stride) % n;
                let dst = match kind {
                    TrafficKind::Gossip => Dst::All,
                    TrafficKind::Unicast => {
                        // A mix-drawn destination, nudged off the source
                        // (with n = 1 the nudge wraps back — degenerate
                        // but well-defined).
                        let d = (mix(seed ^ (0xd5_7000 + id)) % u64::from(n)) as u32;
                        Dst::One(if d == src { (d + 1) % n } else { d })
                    }
                    TrafficKind::Multicast => Dst::Many(MulticastSet {
                        salt: mix(seed ^ (0x5a_1700 + id)),
                        per_mille: spec.multicast_per_mille,
                    }),
                };
                messages.push(PlannedMessage { id, at: t, src, dst });
                if messages.len() == cap {
                    break 'gen;
                }
            }
        }
        TrafficPlan { messages, horizon }
    }

    /// The plan as the engine's injection list (already `at`-ordered; the
    /// payload is the message id).
    pub fn injections(&self) -> Vec<Injection<u64>> {
        self.messages.iter().map(|m| Injection { at: m.at, node: m.src, msg: m.id }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use radionet_sim::injections_ordered;

    fn spec(arrival: Arrival) -> TrafficSpec {
        TrafficSpec { arrival, ..TrafficSpec::default() }
    }

    #[test]
    fn deterministic_and_sorted() {
        let s = spec(Arrival::Poisson(PoissonArrival { per_10k: 400 }));
        let a = TrafficPlan::build(&s, TrafficKind::Gossip, 100, 7);
        let b = TrafficPlan::build(&s, TrafficKind::Gossip, 100, 7);
        assert_eq!(a, b);
        assert!(!a.messages.is_empty(), "0.4%/step × 8 senders × 512 steps should arrive");
        assert!(injections_ordered(&a.injections()));
        for (i, m) in a.messages.iter().enumerate() {
            assert_eq!(m.id, i as u64, "ids are injection-order indices");
            assert!(m.at < a.horizon.div_ceil(2), "arrival inside the drain window");
            assert!(m.src < 100);
        }
        let c = TrafficPlan::build(&s, TrafficKind::Gossip, 100, 8);
        assert_ne!(a, c, "plan must depend on the seed");
    }

    #[test]
    fn message_budget_truncates() {
        let mut s = spec(Arrival::Poisson(PoissonArrival { per_10k: 10_000 }));
        s.messages = 5;
        let p = TrafficPlan::build(&s, TrafficKind::Gossip, 64, 3);
        assert_eq!(p.messages.len(), 5);
        // Certain arrivals: all five land at step 0 on distinct senders.
        assert!(p.messages.iter().all(|m| m.at == 0));
    }

    #[test]
    fn bursty_respects_off_windows() {
        let mut s = spec(Arrival::Bursty(BurstyArrival { on: 4, off: 12, per_10k: 10_000 }));
        s.messages = 10_000;
        let p = TrafficPlan::build(&s, TrafficKind::Gossip, 64, 11);
        assert!(!p.messages.is_empty());
        for m in &p.messages {
            assert!(m.at % 16 < 4, "arrival at {} is inside an off window", m.at);
        }
    }

    #[test]
    fn unicast_never_targets_the_source() {
        let s = spec(Arrival::Poisson(PoissonArrival { per_10k: 2_000 }));
        let p = TrafficPlan::build(&s, TrafficKind::Unicast, 17, 99);
        assert!(!p.messages.is_empty());
        for m in &p.messages {
            match m.dst {
                Dst::One(d) => {
                    assert_ne!(d, m.src);
                    assert!(d < 17);
                    assert!(m.dst.includes(d));
                    assert!(!m.dst.includes(m.src));
                }
                _ => panic!("unicast plan produced a non-unicast dst"),
            }
        }
    }

    #[test]
    fn multicast_membership_is_recomputable_and_plausible() {
        let mut s = spec(Arrival::Poisson(PoissonArrival { per_10k: 2_000 }));
        s.multicast_per_mille = 250;
        let p = TrafficPlan::build(&s, TrafficKind::Multicast, 1000, 5);
        assert!(!p.messages.is_empty());
        let m = &p.messages[0];
        let members: Vec<u32> = (0..1000).filter(|&i| m.dst.includes(i)).collect();
        // 250‰ of 1000 nodes: the salted set should land in a wide band.
        assert!(members.len() > 150 && members.len() < 350, "{} members", members.len());
        // Recomputation is exact.
        let again: Vec<u32> = (0..1000).filter(|&i| m.dst.includes(i)).collect();
        assert_eq!(members, again);
    }

    proptest! {
        #[test]
        fn plans_are_well_formed(
            seed in any::<u64>(),
            n in 1u32..200,
            senders in 1u32..32,
            per_10k in 1u16..10_000,
            horizon in 1u32..300,
        ) {
            let s = TrafficSpec {
                arrival: Arrival::Poisson(PoissonArrival { per_10k }),
                senders,
                messages: 64,
                horizon,
                multicast_per_mille: 250,
            };
            for kind in [TrafficKind::Gossip, TrafficKind::Unicast, TrafficKind::Multicast] {
                let p = TrafficPlan::build(&s, kind, n, seed);
                prop_assert!(p.messages.len() <= 64);
                prop_assert!(injections_ordered(&p.injections()));
                for (i, m) in p.messages.iter().enumerate() {
                    prop_assert_eq!(m.id, i as u64);
                    prop_assert!(m.src < n);
                    prop_assert!(m.at < u64::from(horizon));
                }
            }
        }
    }
}
