//! Property-based check of the account machine's block application against
//! a model of the transfer rules written here, sharing no code with the
//! executor: for arbitrary blocks — valid and invalid transactions mixed,
//! conflicting keys touched repeatedly within one block — `apply_block` must
//! give every transaction the status and fee the model gives it, and leave
//! the state root of a fresh database holding the model's accounts.

use dcs_chain::StateMachine;
use dcs_contracts::AccountMachine;
use dcs_crypto::{Address, Hash256};
use dcs_primitives::{AccountTx, Block, BlockHeader, GasSchedule, Seal, Transaction};
use dcs_state::AccountDb;
use proptest::prelude::*;
use std::collections::BTreeMap;

const ACCOUNTS: u64 = 6;

/// The block proposer, paid the coinbase and every fee.
const PROPOSER: u64 = 999;

/// Intrinsic gas of a transfer under the test's schedule.
const TX_BASE: u64 = 3;

/// Coinbase reward of the block.
const REWARD: u64 = 50;

fn account_block(txs: Vec<Transaction>) -> Block {
    let mut body = vec![Transaction::Coinbase {
        to: Address::from_index(PROPOSER),
        value: REWARD,
        height: 1,
    }];
    body.extend(txs);
    Block::new(
        BlockHeader::new(
            Hash256::ZERO,
            1,
            1,
            Address::from_index(PROPOSER),
            Seal::None,
        ),
        body,
    )
}

/// The transfer rules: a transaction with a nonce other than its sender's,
/// or whose sender cannot cover its value plus its whole gas limit at its
/// price, fails and changes nothing. Otherwise the sender's nonce goes up
/// by one, the value moves to the recipient, and the sender pays the
/// intrinsic gas at its price to the proposer. Returns each transaction's
/// success and fee; `accounts` maps an address index to its balance and
/// nonce.
fn model(
    accounts: &mut BTreeMap<u64, (u64, u64)>,
    txs: &[(u64, u64, u64, u64, u64)],
) -> Vec<(bool, u64)> {
    accounts.entry(PROPOSER).or_default().0 += REWARD;
    let mut outcomes = vec![(true, 0)];
    for &(from, to, value, nonce, price) in txs {
        let gas_limit = TX_BASE + price;
        let (balance, next_nonce) = accounts.get(&from).copied().unwrap_or_default();
        if nonce != next_nonce || balance < value + gas_limit * price {
            outcomes.push((false, 0));
            continue;
        }
        let fee = TX_BASE * price;
        accounts.insert(from, (balance - value - fee, next_nonce + 1));
        accounts.entry(to).or_default().0 += value;
        accounts.entry(PROPOSER).or_default().0 += fee;
        outcomes.push((true, fee));
    }
    outcomes
}

proptest! {
    /// Account machine: random transfer blocks where nonces are sometimes
    /// stale, amounts and gas sometimes overdraw, and the same
    /// sender/receiver pair (the "conflicting key" case) appears many times
    /// in one block. Failed receipts are part of the contract: the machine
    /// must fail the transactions the model fails, charge the fees it
    /// charges, and reach the root of the accounts it ends with.
    #[test]
    fn account_machine_batched_matches_serial(
        ops in proptest::collection::vec(
            (0u64..ACCOUNTS, 0u64..ACCOUNTS, 1u64..700, 0u64..3, 0u64..3),
            0..40,
        ),
    ) {
        let alloc: Vec<(Address, u64)> =
            (0..ACCOUNTS).map(|i| (Address::from_index(i), 1_000)).collect();
        // Nonces follow each sender's success count most of the time, with
        // a random offset mixed in so some transactions carry bad nonces.
        let mut next_nonce = vec![0u64; ACCOUNTS as usize];
        let mut txs = Vec::new();
        let mut plain = Vec::new();
        for &(from, to, amount, nonce_skew, price) in &ops {
            let nonce = next_nonce[from as usize] + nonce_skew.saturating_sub(1);
            let mut tx = AccountTx::transfer(
                Address::from_index(from),
                Address::from_index(to),
                amount,
                nonce,
            );
            tx.gas_limit = TX_BASE + price;
            tx.gas_price = price;
            if nonce == next_nonce[from as usize] {
                next_nonce[from as usize] += 1; // likely to succeed
            }
            txs.push(Transaction::Account(tx));
            plain.push((from, to, amount, nonce, price));
        }
        let block = account_block(txs);

        let mut machine = AccountMachine::with_alloc(&alloc);
        machine.schedule = GasSchedule {
            tx_base: TX_BASE,
            ..GasSchedule::free()
        };
        let (receipts, _) = machine.apply_block(&block).expect("a transfer block applies");

        let mut accounts: BTreeMap<u64, (u64, u64)> =
            (0..ACCOUNTS).map(|i| (i, (1_000, 0))).collect();
        let outcomes = model(&mut accounts, &plain);
        let got: Vec<(bool, u64)> = receipts
            .iter()
            .map(|r| (r.status.is_success(), r.fee_paid))
            .collect();
        prop_assert_eq!(got, outcomes);

        let mut expected = AccountDb::new();
        for (&i, &(balance, nonce)) in &accounts {
            let addr = Address::from_index(i);
            expected.credit(&addr, balance);
            for _ in 0..nonce {
                expected.bump_nonce(&addr);
            }
            prop_assert_eq!(machine.db.balance(&addr), balance);
            prop_assert_eq!(machine.db.nonce(&addr), nonce);
        }
        prop_assert_eq!(machine.state_root(), expected.root());
    }
}
