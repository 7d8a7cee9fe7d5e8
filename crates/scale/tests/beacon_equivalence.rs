//! Property tests for the sharded stack (PR 10 gates).
//!
//! 1. **Equivalence**: a beacon-coordinated sharded run over the simulated
//!    network commits the same final balances as a plain balance map
//!    applying the same transfer mix sequentially. Holds for amply funded
//!    accounts, where transfers commute regardless of seal interleaving.
//! 2. **Conservation under faults**: even when the beacon silently drops
//!    every receipt bound for some shard (forcing timeout-refunds), user
//!    balances still sum to the genesis allocation at quiescence.

use dcs_crypto::Address;
use dcs_primitives::Amount;
use dcs_scale::beacon::{BeaconNet, BeaconParams};
use dcs_scale::Transfer;
use dcs_sim::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;

const ACCOUNTS: u64 = 24;
const FUNDING: Amount = 1_000_000;

fn accounts() -> Vec<Address> {
    (0..ACCOUNTS).map(Address::from_index).collect()
}

fn alloc() -> Vec<(Address, Amount)> {
    accounts().iter().map(|a| (*a, FUNDING)).collect()
}

fn to_transfers(mix: &[(u64, u64, u64)]) -> Vec<Transfer> {
    let accts = accounts();
    mix.iter()
        .map(|(f, t, v)| Transfer {
            from: accts[(f % ACCOUNTS) as usize],
            to: accts[(t % ACCOUNTS) as usize],
            value: 1 + v % 100,
        })
        .collect()
}

/// The oracle: one sequential balance map applying the mix in submission
/// order — deliberately sharing no code with the stack under test.
fn single_chain_balances(transfers: &[Transfer]) -> BTreeMap<Address, Amount> {
    let mut balances: BTreeMap<Address, Amount> = alloc().into_iter().collect();
    for t in transfers {
        *balances.get_mut(&t.from).expect("funded sender") -= t.value;
        *balances.get_mut(&t.to).expect("funded recipient") += t.value;
    }
    balances
}

proptest! {
    // Each case spins up a full discrete-event network; keep the counts
    // low enough for the tier-1 budget.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn beacon_run_matches_single_chain(
        mix in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..60),
        seed in 0u64..1_000,
        shards in 2usize..4,
    ) {
        let transfers = to_transfers(&mix);
        let params = BeaconParams { shards, ..BeaconParams::default() };
        let mut net = BeaconNet::new(&params, seed, &alloc());
        for (i, t) in transfers.iter().enumerate() {
            net.submit_at(SimTime::from_micros(4_000 * (i as u64 + 1)), *t);
        }
        net.run();
        let stats = net.stats();
        // With FUNDING ≫ 60 × 100 nothing can be rejected or refunded.
        prop_assert_eq!(stats.rejected, 0);
        prop_assert_eq!(stats.refunded, 0);
        let expected = single_chain_balances(&transfers);
        for a in &accounts() {
            prop_assert_eq!(net.balance(a), expected[a]);
        }
        // Conservation and lock closure at quiescence.
        prop_assert_eq!(net.user_total(&accounts()), u128::from(ACCOUNTS) * u128::from(FUNDING));
        for i in 0..shards {
            prop_assert_eq!(net.shard(i).open_locks(), 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn user_balances_conserved_under_silent_beacon(
        mix in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..40),
        seed in 0u64..1_000,
        silent in 0u32..2,
    ) {
        let transfers = to_transfers(&mix);
        let params = BeaconParams {
            shards: 2,
            silent_shards: vec![silent],
            ..BeaconParams::default()
        };
        let mut net = BeaconNet::new(&params, seed, &alloc());
        for (i, t) in transfers.iter().enumerate() {
            net.submit_at(SimTime::from_micros(4_000 * (i as u64 + 1)), *t);
        }
        net.run();
        // Locks toward the silent shard were refunded, the rest minted;
        // either way no value appeared or vanished and no lock stays open.
        prop_assert_eq!(net.user_total(&accounts()), u128::from(ACCOUNTS) * u128::from(FUNDING));
        for i in 0..2 {
            prop_assert_eq!(net.shard(i).open_locks(), 0);
        }
        let stats = net.stats();
        prop_assert_eq!(stats.refunded, net.beacon().stats.timeout_denials);
    }
}
