//! Property-based equivalence of the account machine's batched (default) and
//! serial state application paths: for arbitrary blocks — valid and invalid
//! transactions mixed, conflicting keys touched repeatedly within one block —
//! `apply_block` and the `apply_block_serial` reference oracle must produce
//! bit-identical receipts, state roots, and errors.

use dcs_chain::StateMachine;
use dcs_contracts::AccountMachine;
use dcs_crypto::{Address, Hash256};
use dcs_primitives::{AccountTx, Block, BlockHeader, GasSchedule, Seal, Transaction};
use proptest::prelude::*;

const ACCOUNTS: u64 = 6;

fn account_block(txs: Vec<Transaction>) -> Block {
    let mut body = vec![Transaction::Coinbase {
        to: Address::from_index(999),
        value: 50,
        height: 1,
    }];
    body.extend(txs);
    Block::new(
        BlockHeader::new(Hash256::ZERO, 1, 1, Address::from_index(999), Seal::None),
        body,
    )
}

proptest! {
    /// Account machine: random transfer blocks where nonces are sometimes
    /// stale, amounts sometimes overdraw, and the same sender/receiver pair
    /// (the "conflicting key" case) appears many times in one block. Failed
    /// receipts are part of the contract: both paths must fail the same
    /// transactions the same way.
    #[test]
    fn account_machine_batched_matches_serial(
        ops in proptest::collection::vec(
            (0u64..ACCOUNTS, 0u64..ACCOUNTS, 1u64..700, 0u64..3),
            0..40,
        ),
    ) {
        let alloc: Vec<(Address, u64)> =
            (0..ACCOUNTS).map(|i| (Address::from_index(i), 1_000)).collect();
        // Nonces follow each sender's success count most of the time, with
        // a random offset mixed in so some transactions carry bad nonces.
        let mut next_nonce = vec![0u64; ACCOUNTS as usize];
        let txs: Vec<Transaction> = ops
            .iter()
            .map(|(from, to, amount, nonce_skew)| {
                let nonce = next_nonce[*from as usize] + nonce_skew.saturating_sub(1);
                let mut tx = AccountTx::transfer(
                    Address::from_index(*from),
                    Address::from_index(*to),
                    *amount,
                    nonce,
                );
                tx.gas_limit = 0;
                tx.gas_price = 0;
                if nonce == next_nonce[*from as usize] {
                    next_nonce[*from as usize] += 1; // likely to succeed
                }
                Transaction::Account(tx)
            })
            .collect();
        let block = account_block(txs);

        let machine = || {
            let mut m = AccountMachine::with_alloc(&alloc);
            m.schedule = GasSchedule::free();
            m
        };
        let mut serial = machine();
        let mut batched = machine();
        let root_before = serial.state_root();
        prop_assert_eq!(root_before, batched.state_root());

        let serial_result = serial.apply_block_serial(&block);
        let batched_result = batched.apply_block(&block);
        match (serial_result, batched_result) {
            (Ok((sr, _)), Ok((br, _))) => {
                prop_assert_eq!(sr, br);
                prop_assert_eq!(serial.state_root(), batched.state_root());
            }
            (s, b) => prop_assert_eq!(s.err(), b.err()),
        }
    }
}
