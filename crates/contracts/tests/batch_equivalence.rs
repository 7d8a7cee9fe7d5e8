//! Property-based equivalence of the batched (default) and serial state
//! application paths at the machine level: for arbitrary blocks — valid and
//! invalid transactions mixed, conflicting keys touched repeatedly within
//! one block — `apply_block` and the `apply_block_serial` reference oracle
//! must produce bit-identical receipts, state roots, and errors.

use dcs_chain::StateMachine;
use dcs_contracts::machine::UtxoMachine;
use dcs_contracts::AccountMachine;
use dcs_crypto::{Address, Hash256};
use dcs_primitives::{
    AccountTx, Block, BlockHeader, GasSchedule, Seal, Transaction, TxIn, TxOut, UtxoTx,
};
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

    /// UTXO machine: random spend graphs, including spends of outputs
    /// created earlier in the same block, double spends, and overdrawn
    /// outputs. Valid blocks must commit to identical sets; the first
    /// invalid transaction must raise the identical error from both paths
    /// and leave both machines at the pre-block commitment.
    #[test]
    fn utxo_machine_batched_matches_serial(
        picks in proptest::collection::vec((0usize..20, 1u64..120, any::<bool>()), 1..20),
    ) {
        let alloc: Vec<(Address, u64)> =
            (0..8u64).map(|i| (Address::from_index(i), 100)).collect();
        let proto = UtxoMachine::with_alloc(&alloc);

        // Candidates grow with each generated tx so later picks can chain
        // onto in-block outputs or double-spend earlier inputs.
        let mut candidates: Vec<(dcs_state::OutPoint, u64)> = (0..8u64)
            .flat_map(|i| {
                let addr = Address::from_index(i);
                proto.set.outpoints_of(&addr).into_iter().map(|op| (op, 100))
            })
            .collect();
        let mut txs = Vec::new();
        for (pick, value, split) in &picks {
            let (op, available) = candidates[pick % candidates.len()];
            let spend = *value.min(&available).max(&1);
            let mut outputs = vec![TxOut {
                value: spend,
                recipient: Address::from_index(300),
            }];
            if *split && available > spend {
                outputs.push(TxOut {
                    value: available - spend,
                    recipient: Address::from_index(301),
                });
            }
            let tx = Transaction::Utxo(UtxoTx {
                inputs: vec![TxIn { prev_tx: op.tx, index: op.index, auth: None }],
                outputs: outputs.clone(),
            });
            for (i, out) in outputs.iter().enumerate() {
                candidates.push((
                    dcs_state::OutPoint { tx: tx.id(), index: i as u32 },
                    out.value,
                ));
            }
            txs.push(tx);
        }
        let mut body = vec![Transaction::Coinbase {
            to: Address::from_index(999),
            value: 50,
            height: 1,
        }];
        body.extend(txs);
        let block = Block::new(
            BlockHeader::new(Hash256::ZERO, 1, 1, Address::from_index(999), Seal::None),
            body,
        );

        let mut serial = UtxoMachine::with_alloc(&alloc);
        let mut batched = UtxoMachine::with_alloc(&alloc);
        let root_before = serial.state_root();
        prop_assert_eq!(root_before, batched.state_root());

        let serial_result = serial.apply_block_serial(&block);
        let batched_result = batched.apply_block(&block);
        match (serial_result, batched_result) {
            (Ok((sr, su)), Ok((br, bu))) => {
                prop_assert_eq!(sr, br);
                prop_assert_eq!(su.len(), bu.len());
                prop_assert_eq!(serial.state_root(), batched.state_root());
            }
            (s, b) => {
                prop_assert_eq!(s.err(), b.err());
                // Failed blocks leave both machines at the pre-block state.
                prop_assert_eq!(serial.state_root(), root_before);
                prop_assert_eq!(batched.state_root(), root_before);
            }
        }
    }
}
