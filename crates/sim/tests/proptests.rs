//! Property-based tests for the simulation engine: event ordering
//! guarantees and statistical sanity of the RNG and metrics.

use dcs_sim::{
    gini, nakamoto_coefficient, EventKey, Rng, SimDuration, SimTime, Simulation, Summary,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn events_always_pop_in_time_then_insertion_order(
        delays in proptest::collection::vec(0u64..10_000, 1..200),
    ) {
        let mut sim = Simulation::new();
        for (i, &d) in delays.iter().enumerate() {
            sim.schedule(SimDuration::from_micros(d), (d, i));
        }
        let mut last = (0u64, 0usize);
        let mut first = true;
        let mut popped = 0;
        while let Some((t, (d, i))) = sim.next() {
            prop_assert_eq!(t.as_micros(), d, "fires exactly at its deadline");
            if !first {
                // Non-decreasing time; ties break by insertion order.
                prop_assert!(d > last.0 || (d == last.0 && i > last.1));
            }
            first = false;
            last = (d, i);
            popped += 1;
        }
        prop_assert_eq!(popped, delays.len());
    }

    #[test]
    fn split_and_merged_queues_pop_in_key_order(
        events in proptest::collection::vec((0u64..1_000, 0u32..8, any::<bool>()), 1..200),
    ) {
        // Events spread over two queues (as the engine's shards hold them)
        // and merged back pop in `(time, source, sequence)` order.
        let (mut left, mut right) = (Simulation::new(), Simulation::new());
        let mut expected = Vec::new();
        for (seq, &(t, src, side)) in events.iter().enumerate() {
            let (at, key) = (SimTime::from_micros(t), EventKey::new(src, seq as u64));
            let queue = if side { &mut left } else { &mut right };
            queue.schedule_at_keyed(at, key, seq);
            expected.push((at, key, seq));
        }
        expected.sort();
        left.merge_from(right);
        let popped: Vec<_> = std::iter::from_fn(|| left.next_keyed(None)).collect();
        prop_assert_eq!(popped, expected);
    }

    #[test]
    fn rng_streams_are_reproducible(seed in any::<u64>()) {
        let mut a = Rng::seed_from(seed);
        let mut b = Rng::seed_from(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_always_in_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = Rng::seed_from(seed);
        for _ in 0..64 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    #[test]
    fn weighted_index_never_picks_zero_weight(
        seed in any::<u64>(),
        weights in proptest::collection::vec(0u64..100, 1..20),
    ) {
        prop_assume!(weights.iter().sum::<u64>() > 0);
        let mut rng = Rng::seed_from(seed);
        for _ in 0..64 {
            let i = rng.weighted_index(&weights);
            prop_assert!(weights[i] > 0, "picked index {i} with zero weight");
        }
    }

    #[test]
    fn gini_bounded_and_zero_for_equal(values in proptest::collection::vec(0u64..10_000, 1..50), c in 1u64..1_000) {
        let g = gini(&values);
        prop_assert!((0.0..=1.0).contains(&g), "gini {g}");
        let equal = vec![c; values.len()];
        prop_assert!(gini(&equal).abs() < 1e-9);
    }

    #[test]
    fn nakamoto_coefficient_is_a_majority_coalition(values in proptest::collection::vec(1u64..10_000, 1..50)) {
        let k = nakamoto_coefficient(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let total: u128 = values.iter().map(|&v| u128::from(v)).sum();
        let top_k: u128 = sorted[..k].iter().map(|&v| u128::from(v)).sum();
        prop_assert!(top_k * 2 > total, "top {k} must hold a majority");
        if k > 1 {
            let top_k1: u128 = sorted[..k - 1].iter().map(|&v| u128::from(v)).sum();
            prop_assert!(top_k1 * 2 <= total, "k is minimal");
        }
    }

    #[test]
    fn summary_percentiles_are_monotone(samples in proptest::collection::vec(-1_000.0f64..1_000.0, 1..100)) {
        let mut s = Summary::new();
        for v in &samples {
            s.record(*v);
        }
        let p10 = s.percentile(10.0);
        let p50 = s.percentile(50.0);
        let p90 = s.percentile(90.0);
        prop_assert!(p10 <= p50 && p50 <= p90);
        prop_assert!(s.min() <= p10 && p90 <= s.max());
    }
}
