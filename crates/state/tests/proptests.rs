//! Property-based tests for the data layer: the Merkle map against a
//! `HashMap` reference model (same contents ⇒ same answers, same root
//! regardless of history), UTXO value conservation, and journal rollback
//! exactness.

use dcs_crypto::{Address, Hash256};
use dcs_primitives::{Block, BlockHeader, Seal, Transaction, TxIn, TxOut, UtxoTx};
use dcs_state::{AccountDb, MerkleMap, UtxoSet};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u8, u16),
    Remove(u8),
}

fn map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (any::<u8>(), any::<u16>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
        any::<u8>().prop_map(MapOp::Remove),
    ]
}

proptest! {
    #[test]
    fn merkle_map_matches_hashmap_model(ops in proptest::collection::vec(map_op(), 0..200)) {
        let mut map = MerkleMap::new();
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for op in &ops {
            match op {
                MapOp::Insert(k, v) => {
                    let key = vec![*k];
                    let value = v.to_le_bytes().to_vec();
                    prop_assert_eq!(map.insert(key.clone(), value.clone()), model.insert(key, value));
                }
                MapOp::Remove(k) => {
                    let key = vec![*k];
                    prop_assert_eq!(map.remove(&key), model.remove(&key));
                }
            }
        }
        prop_assert_eq!(map.len(), model.len());
        for (k, v) in &model {
            prop_assert_eq!(map.get(k), Some(v.as_slice()));
        }
        // Root is a pure function of content: rebuild from the model in
        // (arbitrary) iteration order and compare.
        let rebuilt: MerkleMap = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(map.root(), rebuilt.root());
        // All proofs verify.
        for k in model.keys() {
            let proof = map.prove(k).unwrap();
            prop_assert!(proof.verify(&map.root()));
        }
    }

    #[test]
    fn utxo_transfers_conserve_value(splits in proptest::collection::vec(1u64..100, 1..20)) {
        let mut set = UtxoSet::new();
        let owner = Address::from_index(1);
        let total: u64 = 1_000_000;
        let mut op = set.mint(owner, total);
        // Chain of transfers, each splitting off `s` and keeping the change.
        let mut remaining = total;
        for (i, s) in splits.iter().enumerate() {
            let spend = Transaction::Utxo(UtxoTx {
                inputs: vec![TxIn { prev_tx: op.tx, index: op.index, auth: None }],
                outputs: vec![
                    TxOut { value: *s, recipient: Address::from_index(100 + i as u64) },
                    TxOut { value: remaining - s, recipient: owner },
                ],
            });
            let (fee, _) = set.apply(&spend).unwrap();
            prop_assert_eq!(fee, 0);
            remaining -= s;
            op = dcs_state::OutPoint { tx: spend.id(), index: 1 };
        }
        // Total value across all owners unchanged.
        let sum: u64 = (0..140u64)
            .map(|i| set.balance_of(&Address::from_index(i)))
            .sum();
        prop_assert_eq!(sum, total);
    }

    #[test]
    fn account_db_rollback_is_exact(
        credits in proptest::collection::vec((0u64..20, 1u64..1_000), 1..40),
        transfers in proptest::collection::vec((0u64..20, 0u64..20, 1u64..100), 0..40),
    ) {
        let mut db = AccountDb::new();
        for (who, amount) in &credits {
            db.credit(&Address::from_index(*who), *amount);
        }
        db.clear_journal();
        let root_before = db.root();
        let balances_before: Vec<u64> =
            (0..20u64).map(|i| db.balance(&Address::from_index(i))).collect();

        let snap = db.snapshot();
        for (from, to, amount) in &transfers {
            // Failures are fine; they must not corrupt the journal.
            let _ = db.transfer(&Address::from_index(*from), &Address::from_index(*to), *amount);
            db.bump_nonce(&Address::from_index(*from));
        }
        db.rollback(snap);
        prop_assert_eq!(db.root(), root_before);
        for (i, expected) in balances_before.iter().enumerate() {
            prop_assert_eq!(db.balance(&Address::from_index(i as u64)), *expected);
            prop_assert_eq!(db.nonce(&Address::from_index(i as u64)), 0);
        }
    }

    #[test]
    fn account_transfers_conserve_total(
        transfers in proptest::collection::vec((0u64..10, 0u64..10, 1u64..500), 0..60),
    ) {
        let mut db = AccountDb::new();
        for i in 0..10u64 {
            db.credit(&Address::from_index(i), 10_000);
        }
        for (from, to, amount) in &transfers {
            let _ = db.transfer(&Address::from_index(*from), &Address::from_index(*to), *amount);
        }
        let total: u64 = (0..10u64).map(|i| db.balance(&Address::from_index(i))).sum();
        prop_assert_eq!(total, 100_000);
    }

    #[test]
    fn storage_slots_are_independent(
        writes in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..40),
    ) {
        let mut db = AccountDb::new();
        let contract = Address::from_index(7);
        let mut model: HashMap<u8, u8> = HashMap::new();
        for (slot, value) in &writes {
            let key = dcs_crypto::sha256(&[*slot]);
            db.set_storage(&contract, &key, Some(vec![*value]));
            model.insert(*slot, *value);
        }
        for (slot, value) in &model {
            let key = dcs_crypto::sha256(&[*slot]);
            prop_assert_eq!(db.storage(&contract, &key), Some(&[*value][..]));
        }
        // A different contract's storage is untouched.
        let other = Address::from_index(8);
        let some_key = dcs_crypto::sha256(&[writes[0].0]);
        prop_assert_eq!(db.storage(&other, &some_key), None);
        let _ = Hash256::ZERO;
    }

    // --- Batched ≡ serial application -----------------------------------

    /// `MerkleMap::write_batch` must be indistinguishable from replaying the
    /// same entries as serial `insert`/`remove` calls — same root, same
    /// length, same contents — on any starting map, including batches that
    /// write the same key several times (last write wins).
    #[test]
    fn merkle_map_write_batch_matches_serial(
        base in proptest::collection::vec((any::<u8>(), any::<u16>()), 0..60),
        batch in proptest::collection::vec((any::<u8>(), proptest::option::of(any::<u16>())), 0..60),
    ) {
        let mut serial = MerkleMap::new();
        for (k, v) in &base {
            serial.insert(vec![*k], v.to_le_bytes().to_vec());
        }
        let mut batched = serial.clone();

        for (k, v) in &batch {
            match v {
                Some(v) => { serial.insert(vec![*k], v.to_le_bytes().to_vec()); }
                None => { serial.remove(&[*k]); }
            }
        }
        batched.write_batch(
            batch
                .iter()
                .map(|(k, v)| (vec![*k], v.map(|v| v.to_le_bytes().to_vec())))
                .collect(),
        );

        prop_assert_eq!(batched.root(), serial.root());
        prop_assert_eq!(batched.len(), serial.len());
        for k in 0..=u8::MAX {
            prop_assert_eq!(batched.get(&[k]), serial.get(&[k]));
        }
    }

    /// The `AccountDb` overlay (begin/commit batch) must commute with
    /// applying the same operations directly, including conflicting writes
    /// to one account inside a single batch.
    #[test]
    fn account_overlay_batch_matches_serial(
        ops in proptest::collection::vec((0u64..8, 0u64..8, 1u64..200), 0..60),
    ) {
        let mut serial = AccountDb::new();
        let mut batched = AccountDb::new();
        for db in [&mut serial, &mut batched] {
            for i in 0..8u64 {
                db.credit(&Address::from_index(i), 1_000);
            }
            db.clear_journal();
        }

        batched.begin_batch();
        for (from, to, amount) in &ops {
            let (from, to) = (Address::from_index(*from), Address::from_index(*to));
            let a = serial.transfer(&from, &to, *amount);
            let b = batched.transfer(&from, &to, *amount);
            prop_assert_eq!(a.is_ok(), b.is_ok());
            serial.bump_nonce(&from);
            batched.bump_nonce(&from);
        }
        batched.commit_batch();

        prop_assert_eq!(batched.root(), serial.root());
        for i in 0..8u64 {
            let addr = Address::from_index(i);
            prop_assert_eq!(batched.balance(&addr), serial.balance(&addr));
            prop_assert_eq!(batched.nonce(&addr), serial.nonce(&addr));
        }
    }

    /// `UtxoSet::apply_batch` must agree with the serial `apply` loop on
    /// arbitrary spend sequences: same fees, same commitment when every
    /// transaction is valid, and the same first error (with the set left
    /// untouched) when one is not — including batches that double-spend an
    /// output or chain a spend onto an output created earlier in the batch.
    #[test]
    fn utxo_apply_batch_matches_serial(
        picks in proptest::collection::vec((0usize..24, 1u64..100, any::<bool>()), 1..24),
    ) {
        let mut base = UtxoSet::new();
        // Candidate outpoints: minted coins plus (as txs are generated)
        // outputs created within the batch itself, so some sequences spend
        // mid-batch outputs and some double-spend.
        let mut candidates: Vec<(dcs_state::OutPoint, u64)> =
            (0..8u64).map(|i| (base.mint(Address::from_index(i), 500), 500)).collect();

        let mut txs = Vec::new();
        for (pick, value, split) in &picks {
            let (op, available) = candidates[pick % candidates.len()];
            let spend = *value.min(&available);
            let mut outputs = vec![TxOut {
                value: spend,
                recipient: Address::from_index(200),
            }];
            if *split && available > spend {
                outputs.push(TxOut {
                    value: available - spend,
                    recipient: Address::from_index(201),
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
        let mut serial = base.clone();
        let mut serial_result = Ok(Vec::new());
        for tx in &txs {
            match serial.apply(tx) {
                Ok((fee, _)) => serial_result.as_mut().unwrap().push(fee),
                Err(e) => {
                    serial_result = Err(e);
                    break;
                }
            }
        }

        let mut batched = base.clone();
        let header = BlockHeader::new(Hash256::ZERO, 1, 0, Address::ZERO, Seal::None);
        match batched.apply_batch(&Block::from_parts(header, txs), false) {
            Ok(results) => {
                let fees: Vec<u64> = results.iter().map(|(fee, _)| *fee).collect();
                prop_assert_eq!(Ok(fees), serial_result);
                prop_assert_eq!(batched.commitment(), serial.commitment());
            }
            Err(e) => {
                prop_assert_eq!(Err(e), serial_result);
                // A failed batch leaves the set untouched.
                prop_assert_eq!(batched.commitment(), base.commitment());
            }
        }
    }
}
