//! Property tests for the core algorithms.

use proptest::prelude::*;
use radionet_cluster::mpx::{draw_shifts, partition_with_shifts};
use radionet_cluster::ClusterSchedule;
use radionet_core::icp::{hash01, IcpTimeline};
use radionet_core::mis::{run_radio_mis, MisConfig};
use radionet_graph::independent_set::greedy_mis_min_degree;
use radionet_graph::{Graph, GraphBuilder};
use radionet_sim::{Kernel, NetInfo, Sim};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..28, proptest::collection::vec((0usize..28, 0usize..28), 0..70)).prop_map(
        |(n, pairs)| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in pairs {
                let (u, v) = (u % n, v % n);
                if u != v {
                    b.add_edge(u, v);
                }
            }
            b.build()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Radio MIS outputs a valid maximal independent set on arbitrary
    /// graphs (connected or not) for arbitrary seeds.
    #[test]
    fn radio_mis_always_valid(g in arb_graph(), seed in 0u64..1_000) {
        let info = NetInfo::exact(&g);
        let mut sim = Sim::new(&g, info, seed);
        let out = run_radio_mis(&mut sim, &MisConfig::default());
        prop_assert!(out.is_valid(&g), "invalid MIS on {g:?} seed {seed}");
    }

    /// Radio MIS runs identically on both kernels: the sparse kernel skips
    /// exactly the calls (and jumps exactly the spans) its wake hints
    /// declare passive, so statuses, steps, histories, RNG streams and
    /// kernel-invariant stats equal the dense reference's, which keeps no
    /// scheduler.
    #[test]
    fn radio_mis_identical_on_every_kernel(g in arb_graph(), seed in 0u64..1_000) {
        let info = NetInfo::exact(&g);
        let history = MisConfig { record_history: true, ..MisConfig::fast() };
        for config in [MisConfig::default(), MisConfig::fast(), history] {
            let run = |kernel| {
                let mut sim = Sim::new(&g, info, seed);
                sim.set_kernel(kernel);
                let out = run_radio_mis(&mut sim, &config);
                let stats = *sim.stats();
                let invariant = stats.kernel_invariant();
                let result = (out.status, out.steps, out.history, sim.rng_fingerprint(), invariant);
                (result, (stats.scheduler_events, stats.silent_steps_skipped))
            };
            let (sparse, dense) = (run(Kernel::Sparse), run(Kernel::Dense));
            prop_assert_eq!(&sparse.0, &dense.0, "sparse vs dense, {:?}", config);
            prop_assert_eq!(dense.1, (0, 0), "dense scheduler counters, {:?}", config);
        }
    }

    /// ICP timelines: slot metadata is ordered by stage, every scheduled
    /// transmitter sits at the layer its slot's transition expects, and
    /// per-node slot lists are strictly increasing.
    #[test]
    fn icp_timeline_invariants(g in arb_graph(), seed in 0u64..1_000, l in 1u32..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mis = greedy_mis_min_degree(&g);
        prop_assume!(!mis.is_empty());
        let shifts = draw_shifts(&mis, 0.5, None, &mut rng);
        let c = partition_with_shifts(&g, &shifts);
        let s = ClusterSchedule::build(&g, &c);
        let t = IcpTimeline::build(&s, g.n(), l);
        // Per-node slot lists strictly increasing.
        for slots in &t.tx_slots {
            for w in slots.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }
        // Transmitters match their slot's transition layer.
        for (idx, (stage, transition)) in t.slots.iter().enumerate() {
            for v in g.nodes() {
                if t.tx_slots[v.index()].contains(&(idx as u32)) {
                    let layer = s.layer[v.index()];
                    match stage {
                        radionet_core::icp::IcpStage::Down1
                        | radionet_core::icp::IcpStage::Down2 => {
                            prop_assert_eq!(layer, *transition)
                        }
                        radionet_core::icp::IcpStage::Up => {
                            prop_assert_eq!(layer, *transition)
                        }
                    }
                }
            }
        }
    }

    /// The coordination hash is deterministic and in [0, 1).
    #[test]
    fn hash01_range(key in any::<u64>(), block in any::<u64>()) {
        let h = hash01(key, block);
        prop_assert!((0.0..1.0).contains(&h));
        prop_assert_eq!(h, hash01(key, block));
    }
}
