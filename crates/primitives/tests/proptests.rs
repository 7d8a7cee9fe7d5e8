//! Property-based tests for ledger primitives: canonical-codec round-trips
//! over arbitrary transactions and blocks, id stability, and Merkle-root
//! integrity under arbitrary bodies.

use dcs_crypto::codec::{decode_all, Encode};
use dcs_crypto::{sha256, Address, Hash256, KeyPair};
use dcs_primitives::{
    AccountTx, Block, BlockHeader, Seal, SealedTx, Transaction, TxAuth, TxIn, TxOut, TxPayload,
    UtxoTx,
};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_address() -> impl Strategy<Value = Address> {
    any::<u64>().prop_map(Address::from_index)
}

fn arb_hash() -> impl Strategy<Value = Hash256> {
    any::<[u8; 32]>().prop_map(Hash256::from_bytes)
}

fn arb_payload() -> impl Strategy<Value = TxPayload> {
    prop_oneof![
        Just(TxPayload::Transfer),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(TxPayload::Deploy),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(TxPayload::Call),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(TxPayload::Data),
    ]
}

fn arb_account_tx() -> impl Strategy<Value = AccountTx> {
    (
        arb_address(),
        proptest::option::of(arb_address()),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        arb_payload(),
    )
        .prop_map(
            |(from, to, value, nonce, gas_limit, gas_price, payload)| AccountTx {
                from,
                to,
                value,
                nonce,
                gas_limit,
                gas_price,
                payload,
                auth: None,
            },
        )
}

fn arb_utxo_tx() -> impl Strategy<Value = UtxoTx> {
    (
        proptest::collection::vec((arb_hash(), any::<u32>()), 0..8),
        proptest::collection::vec((any::<u64>(), arb_address()), 0..8),
    )
        .prop_map(|(ins, outs)| UtxoTx {
            inputs: ins
                .into_iter()
                .map(|(prev_tx, index)| TxIn {
                    prev_tx,
                    index,
                    auth: None,
                })
                .collect(),
            outputs: outs
                .into_iter()
                .map(|(value, recipient)| TxOut { value, recipient })
                .collect(),
        })
}

fn arb_tx() -> impl Strategy<Value = Transaction> {
    prop_oneof![
        (arb_address(), any::<u64>(), any::<u64>())
            .prop_map(|(to, value, height)| Transaction::Coinbase { to, value, height }),
        arb_utxo_tx().prop_map(Transaction::Utxo),
        arb_account_tx().prop_map(Transaction::Account),
    ]
}

fn arb_seal() -> impl Strategy<Value = Seal> {
    prop_oneof![
        Just(Seal::None),
        (any::<u64>(), 1u64..u64::MAX)
            .prop_map(|(nonce, difficulty)| Seal::Work { nonce, difficulty }),
        (any::<u64>(), arb_hash()).prop_map(|(slot, proof)| Seal::Stake { slot, proof }),
        any::<u64>().prop_map(|wait_us| Seal::ElapsedTime { wait_us }),
        (any::<u64>(), any::<u64>(), any::<u32>()).prop_map(|(view, sequence, votes)| {
            Seal::Authority {
                view,
                sequence,
                votes,
            }
        }),
        (arb_hash(), any::<u64>()).prop_map(|(key_block, sequence)| Seal::Micro {
            key_block,
            sequence
        }),
    ]
}

/// The reference definition of the signing hash: blank every witness on a
/// clone, hash its encoding. `Transaction::signing_hash` encodes the stripped
/// form directly and must produce the same digest.
fn strip_a_clone(tx: &Transaction) -> Hash256 {
    let mut stripped = tx.clone();
    match &mut stripped {
        Transaction::Coinbase { .. } => {}
        Transaction::Utxo(tx) => tx.inputs.iter_mut().for_each(|input| input.auth = None),
        Transaction::Account(tx) => tx.auth = None,
    }
    sha256(&stripped.encoded())
}

/// Attaches real (2.2 KiB) witnesses: to an account transaction when bit 0
/// of `mask` is set, to UTXO input `i` when bit `i` is — so multi-input
/// transactions are exercised unsigned, partially signed and fully signed.
fn attach_witnesses(tx: &mut Transaction, mask: u8) {
    // One key for the whole process: generating it is most of a case's cost.
    static KEY: std::sync::OnceLock<KeyPair> = std::sync::OnceLock::new();
    let kp = KEY.get_or_init(|| KeyPair::generate([9; 32], 3));
    let witness = |i: usize| {
        (mask >> i & 1 == 1).then(|| TxAuth {
            pubkey: kp.public_key(),
            signature: kp
                .sign_with_index(&sha256(&[i as u8]), i as u32)
                .expect("capacity 8"),
        })
    };
    match tx {
        Transaction::Coinbase { .. } => {}
        Transaction::Utxo(tx) => {
            for (i, input) in tx.inputs.iter_mut().enumerate() {
                input.auth = witness(i);
            }
        }
        Transaction::Account(tx) => tx.auth = witness(0),
    }
}

proptest! {
    #[test]
    fn transaction_codec_round_trip(tx in arb_tx()) {
        let decoded = decode_all::<Transaction>(&tx.encoded()).unwrap();
        prop_assert_eq!(&decoded, &tx);
        prop_assert_eq!(decoded.id(), tx.id());
    }

    #[test]
    fn block_codec_round_trip(
        txs in proptest::collection::vec(arb_tx(), 0..12),
        seal in arb_seal(),
        parent in arb_hash(),
        height in any::<u64>(),
        ts in any::<u64>(),
        proposer in arb_address(),
    ) {
        let block = Block::new(BlockHeader::new(parent, height, ts, proposer, seal), txs);
        let decoded = decode_all::<Block>(&block.encoded()).unwrap();
        prop_assert_eq!(decoded.hash(), block.hash());
        prop_assert_eq!(decoded, block);
    }

    #[test]
    fn block_root_commits_to_body(txs in proptest::collection::vec(arb_tx(), 1..12), extra in arb_tx()) {
        let block = Block::new(
            BlockHeader::new(Hash256::ZERO, 1, 0, Address::ZERO, Seal::None),
            txs.clone(),
        );
        prop_assert!(block.verify_tx_root());
        let mut tampered = block.clone();
        tampered.txs.push(extra.clone());
        // Appending always changes the root (the extra leaf is hashed in).
        prop_assert!(!tampered.verify_tx_root());
    }

    #[test]
    fn signing_hash_invariant_under_witness(tx in arb_tx(), mask in any::<u8>()) {
        // Every variant and payload: the directly encoded stripped form is
        // the strip-a-clone reference, with and without witnesses attached.
        let unsigned = tx.signing_hash();
        prop_assert_eq!(unsigned, strip_a_clone(&tx));
        let mut witnessed = tx;
        attach_witnesses(&mut witnessed, mask);
        prop_assert_eq!(witnessed.signing_hash(), unsigned);
        prop_assert_eq!(witnessed.signing_hash(), strip_a_clone(&witnessed));
    }

    /// A sealed transaction carries the signing hash of the body it holds
    /// exactly when that body has a witness — all three kinds, unsigned,
    /// partially and fully signed — whichever constructor sealed it.
    #[test]
    fn sealed_tx_carries_its_bodys_signing_hash(tx in arb_tx(), mask in any::<u8>()) {
        let mut tx = tx;
        attach_witnesses(&mut tx, mask);
        let witnessed = match &tx {
            Transaction::Coinbase { .. } => false,
            Transaction::Utxo(tx) => tx.inputs.iter().any(|input| input.auth.is_some()),
            Transaction::Account(tx) => tx.auth.is_some(),
        };
        prop_assert_eq!(tx.has_witness(), witnessed);
        let expected = witnessed.then(|| tx.signing_hash());
        let sealed = SealedTx::new(Arc::new(tx.clone()));
        prop_assert_eq!(sealed.signing_hash(), expected);
        prop_assert_eq!(sealed.clone().signing_hash(), expected);
        prop_assert_eq!(sealed.id(), tx.id());
        let id = tx.id();
        prop_assert_eq!(SealedTx::from_parts(Arc::new(tx), id).signing_hash(), expected);
    }

    /// `Block::signing_hashes` is the per-transaction `signing_hash`, and the
    /// memo behind it is invisible: two holders of one `Arc` read one slice,
    /// equality ignores it, and a clone or a decoded block starts cold — so
    /// editing one (the contract: only before first use) is never answered
    /// with the original's hashes.
    #[test]
    fn block_signing_hashes_memo_is_invisible(
        txs in proptest::collection::vec((arb_tx(), any::<u8>()), 0..6),
        extra in arb_tx(),
    ) {
        let txs: Vec<Transaction> = txs
            .into_iter()
            .map(|(mut tx, mask)| {
                attach_witnesses(&mut tx, mask);
                tx
            })
            .collect();
        let expected: Vec<Hash256> = txs.iter().map(Transaction::signing_hash).collect();
        let header = BlockHeader::new(Hash256::ZERO, 1, 0, Address::ZERO, Seal::None);
        let first = Arc::new(Block::new(header, txs));
        let second = Arc::clone(&first);
        let cold = (*first).clone();
        prop_assert_eq!(first.signing_hashes(), &expected[..]);
        prop_assert!(std::ptr::eq(first.signing_hashes(), second.signing_hashes()));
        prop_assert_eq!(&*first, &cold, "warm equals cold");

        let decoded = decode_all::<Block>(&first.encoded()).unwrap();
        for mut copy in [cold, (*first).clone(), decoded] {
            copy.txs.push(extra.clone());
            prop_assert_eq!(&copy.signing_hashes()[..expected.len()], &expected[..]);
            prop_assert_eq!(copy.signing_hashes().last(), Some(&extra.signing_hash()));
        }
        prop_assert_eq!(first.signing_hashes(), &expected[..]);
    }

    #[test]
    fn distinct_txs_have_distinct_ids(a in arb_tx(), b in arb_tx()) {
        if a != b {
            prop_assert_ne!(a.id(), b.id());
        }
    }
}
