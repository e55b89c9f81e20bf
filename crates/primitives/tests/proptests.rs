//! Property tests for the radio primitives.

use proptest::prelude::*;
use radionet_primitives::decay::{DecayConfig, DecaySchedule};
use radionet_primitives::effective_degree::{EedConfig, EedCounter, EedVerdict};
use radionet_primitives::ids::random_id;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// The Decay schedule sweeps exactly the probabilities 2^{-1}..2^{-log n}
    /// in every iteration, for any log n.
    #[test]
    fn decay_schedule_sweeps(log_n in 1u32..24, iteration in 0u64..5) {
        let s = DecaySchedule::new(log_n);
        let base = iteration * s.steps_per_iteration() as u64;
        for i in 0..s.steps_per_iteration() as u64 {
            let p = s.prob(base + i);
            prop_assert!((p - 2f64.powi(-(i as i32 + 1))).abs() < 1e-15);
        }
    }

    /// Decay probabilities are always valid and total steps are consistent.
    #[test]
    fn decay_config_consistent(log_n in 0u32..20, iterations in 1u32..64, t in 0u64..10_000) {
        let s = DecaySchedule::new(log_n);
        let c = DecayConfig { iterations };
        prop_assert!((0.0..=0.5).contains(&s.prob(t)));
        prop_assert_eq!(
            c.total_steps(s),
            iterations as u64 * s.steps_per_iteration() as u64
        );
    }

    /// An EedCounter that never hears anything is Low; one that hears every
    /// step is High; and it reaches its verdict exactly at its last
    /// position, however its acted steps are split into windows.
    #[test]
    fn eed_counter_extremes(c_steps in 1u32..16, log_n in 1u32..12, window in 1u64..40) {
        let config = EedConfig { c_steps, threshold_frac: 1.0 / 12.0 };
        let total = config.total_steps(log_n);

        let mut silent = EedCounter::new(config, log_n);
        let mut loud = EedCounter::new(config, log_n);
        let mut t = 0;
        while t < total {
            prop_assert_eq!(silent.position(t), t);
            prop_assert_eq!(silent.verdict(t), None);
            let until = (t + window).min(total);
            silent.act(t, until);
            loud.act(t, until);
            for u in t..until {
                loud.hear(u);
            }
            t = until;
        }
        prop_assert_eq!(silent.verdict(total), Some(EedVerdict::Low));
        prop_assert_eq!(loud.verdict(total), Some(EedVerdict::High));
    }

    /// The EED transmit probability decays by exactly 2× per block and
    /// stays a probability for any p ∈ [0, 1].
    #[test]
    fn eed_transmit_prob_halves(log_n in 1u32..12, p in 0.0f64..=1.0) {
        let config = EedConfig::default();
        let k = EedCounter::new(config, log_n);
        let block_steps = config.block_steps(log_n);
        let mut last = k.transmit_prob(p, 0);
        prop_assert!((0.0..=1.0).contains(&last));
        for position in (block_steps..k.steps()).step_by(block_steps as usize) {
            prop_assert_eq!(k.transmit_prob(p, position - 1), last);
            let now = k.transmit_prob(p, position);
            prop_assert!((0.0..=1.0).contains(&now));
            prop_assert!(now <= last + 1e-15);
            if p > 0.0 {
                prop_assert!((now - last / 2.0).abs() < 1e-12);
            }
            last = now;
        }
    }

    /// Random ids stay in [0, n³) and depend on the seed.
    #[test]
    fn ids_in_cube(n in 1usize..100_000, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let id = random_id(n, &mut rng) as u128;
        let n = n as u128;
        prop_assert!(id < (n * n * n).max(1));
    }
}
