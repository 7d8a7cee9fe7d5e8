//! Property-based tests for the data layer: the Merkle map against a
//! `HashMap` reference model (same contents ⇒ same answers, same root
//! regardless of history), roots read at random points of histories whose
//! digests stay stale until read, the fixed-size `StateKey` against the
//! byte strings it stands for, UTXO value conservation, and journal
//! rollback exactness.

use dcs_crypto::codec::{decode_all, Encode};
use dcs_crypto::{sha256, Address, Hash256};
use dcs_primitives::{Transaction, TxIn, TxOut, UtxoTx};
use dcs_state::{Account, AccountDb, AccountUndo, MapProof, MerkleMap, StateKey, UtxoSet};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

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

// --- The trie against its definition ------------------------------------

/// The root of a map from the definition, sharing no code with the trie:
/// over the entries' `(sha256(key), leaf digest)` pairs sorted by key hash,
/// nothing is the zero digest, one entry is its leaf digest
/// `sha256(0x10 ‖ key_hash ‖ sha256(value))`, and two or more are
/// `sha256(0x11 ‖ left ‖ right)` of the entries whose key hash has bit
/// `depth` clear and set.
fn root_from_definition(leaves: &[(Hash256, Hash256)], depth: usize) -> Hash256 {
    match leaves {
        [] => Hash256::ZERO,
        [(_, leaf)] => *leaf,
        _ => {
            let set =
                |(kh, _): &(Hash256, Hash256)| kh.as_bytes()[depth / 8] << (depth % 8) & 0x80 != 0;
            let (left, right) = leaves.split_at(leaves.partition_point(|l| !set(l)));
            let mut msg = vec![0x11];
            msg.extend_from_slice(root_from_definition(left, depth + 1).as_ref());
            msg.extend_from_slice(root_from_definition(right, depth + 1).as_ref());
            sha256(&msg)
        }
    }
}

fn model_root(model: &BTreeMap<Vec<u8>, Vec<u8>>) -> Hash256 {
    let mut leaves: Vec<(Hash256, Hash256)> = model
        .iter()
        .map(|(key, value)| {
            let kh = sha256(key);
            let mut msg = vec![0x10];
            msg.extend_from_slice(kh.as_ref());
            msg.extend_from_slice(sha256(value).as_ref());
            (kh, sha256(&msg))
        })
        .collect();
    leaves.sort();
    root_from_definition(&leaves, 0)
}

/// Keys `0..UNIVERSE` are the only ones a history uses, so batches hit
/// present and absent keys alike.
const UNIVERSE: u64 = 2_600;

fn trie_key(i: u64) -> Vec<u8> {
    format!("k{}", i % UNIVERSE).into_bytes()
}

/// SplitMix64: the steps derive their keys and values from a seed so the
/// failing-case dump stays a few numbers, not thousands of entries.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One step of a trie history, applied to `map` and to `model`.
fn trie_step(
    map: &mut MerkleMap,
    model: &mut BTreeMap<Vec<u8>, Vec<u8>>,
    (kind, n, mut seed): (u8, usize, u64),
) {
    let rng = &mut seed;
    let value = |rng: &mut u64| next(rng).to_le_bytes()[..1 + (next(rng) % 8) as usize].to_vec();
    match kind {
        // Serial inserts and removes: the scalar path and the free list.
        0 => {
            for _ in 0..1 + n % 8 {
                let (k, v) = (trie_key(next(rng)), value(rng));
                assert_eq!(map.insert(k.clone(), v.clone()), model.insert(k, v));
            }
        }
        1 => {
            for _ in 0..1 + n % 8 {
                let k = trie_key(next(rng));
                assert_eq!(map.remove(&k), model.remove(&k));
            }
        }
        // A batch that removes a run of neighbouring present keys (collapsing
        // branch chains), or — one time in four — every key and then some.
        2 => {
            let all = next(rng).is_multiple_of(4);
            let skip = next(rng) as usize % (model.len() + 1);
            let mut batch: Vec<(Vec<u8>, Option<Vec<u8>>)> = model
                .keys()
                .skip(if all { 0 } else { skip })
                .take(if all { usize::MAX } else { n })
                .map(|k| (k.clone(), None))
                .collect();
            batch.push((trie_key(next(rng)), None));
            for (k, _) in &batch {
                model.remove(k);
            }
            map.write_batch(batch);
        }
        // A mixed batch of `n` writes: inserts, replacements, removals of
        // present and absent keys, and one key written more than once.
        _ => {
            let mut batch: Vec<(Vec<u8>, Option<Vec<u8>>)> = (0..n)
                .map(|_| {
                    let k = trie_key(next(rng));
                    (k, (!next(rng).is_multiple_of(3)).then(|| value(rng)))
                })
                .collect();
            let again = batch[next(rng) as usize % n].0.clone();
            batch.push((again, next(rng).is_multiple_of(2).then(|| value(rng))));
            for (k, v) in &batch {
                match v {
                    Some(v) => model.insert(k.clone(), v.clone()),
                    None => model.remove(k),
                };
            }
            map.write_batch(batch);
        }
    }
}

fn check_against_model(
    map: &MerkleMap,
    model: &BTreeMap<Vec<u8>, Vec<u8>>,
) -> Result<(), TestCaseError> {
    let root = map.root();
    prop_assert_eq!(root, model_root(model));
    prop_assert_eq!(map.len(), model.len());
    prop_assert_eq!(map.is_empty(), model.is_empty());
    prop_assert!(map
        .iter()
        .eq(model.iter().map(|(k, v)| (k.as_slice(), v.as_slice()))));
    for i in 0..UNIVERSE {
        let key = trie_key(i);
        let expected = model.get(&key);
        prop_assert_eq!(map.get(&key), expected.map(Vec::as_slice));
        match (map.prove(&key), expected) {
            (None, None) => {}
            (Some(proof), Some(value)) => {
                prop_assert_eq!(proof.value(), value.as_slice());
                prop_assert!(proof.verify(&root), "proof of key {}", i);
            }
            (proof, _) => prop_assert!(false, "key {}: proof {:?}", i, proof.is_some()),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random histories mixing `insert`, `remove` and `write_batch` on maps
    /// of 0–2 000 entries with batches of 1–300 writes — so trie levels of
    /// one, a few, eight and many stale branches all occur — checked after
    /// every step against a model map and the root from the definition:
    /// root, `len`, `get` and `prove` of every key of the universe, `iter`
    /// in key order.
    #[test]
    fn merkle_map_matches_its_definition_after_every_step(
        base in 0usize..2_001,
        seed in any::<u64>(),
        steps in proptest::collection::vec((0u8..6, 1usize..301, any::<u64>()), 1..6),
    ) {
        let mut rng = seed;
        let mut model = BTreeMap::new();
        while model.len() < base {
            model.insert(trie_key(next(&mut rng)), next(&mut rng).to_le_bytes().to_vec());
        }
        let mut map = MerkleMap::new();
        map.write_batch(model.iter().map(|(k, v)| (k.clone(), Some(v.clone()))).collect());
        check_against_model(&map, &model)?;
        for step in steps {
            trie_step(&mut map, &mut model, step);
            check_against_model(&map, &model)?;
        }
    }
}

// --- Digests computed when read ------------------------------------------

/// Addresses and storage slots the account histories use: the contract's
/// storage lives at `ACCOUNTS - 1`.
const ACCOUNTS: u64 = 8;
const SLOTS: u8 = 8;

/// The entries an `AccountDb` holds, as its reads report them over the
/// addresses and slots a history uses, keyed by the bytes the trie hashes.
fn account_contents(db: &AccountDb) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let contract = Address::from_index(ACCOUNTS - 1);
    let mut contents = BTreeMap::new();
    for i in 0..ACCOUNTS {
        let addr = Address::from_index(i);
        let account = db.account(&addr);
        if account != Account::default() {
            contents.insert(
                StateKey::account(&addr).as_ref().to_vec(),
                account.encoded(),
            );
        }
        if let Some(code) = db.code(&addr) {
            contents.insert(StateKey::code(&addr).as_ref().to_vec(), code.to_vec());
        }
    }
    for slot in 0..SLOTS {
        let slot = sha256(&[slot]);
        if let Some(value) = db.storage(&contract, &slot) {
            contents.insert(
                StateKey::storage(&contract, &slot).as_ref().to_vec(),
                value.to_vec(),
            );
        }
    }
    contents
}

/// One block of seeded transactions, batched or serial: transfers with a
/// nonce bump, a storage slot toggled between set and cleared, code written
/// now and then, and one transaction in four rolled back (mid-batch when
/// batched). Returns the block's undo record.
fn account_block(db: &mut AccountDb, batched: bool, mut seed: u64) -> AccountUndo {
    let rng = &mut seed;
    let contract = Address::from_index(ACCOUNTS - 1);
    let snapshot = db.snapshot();
    if batched {
        db.begin_batch();
    }
    for _ in 0..1 + next(rng) % 12 {
        let from = Address::from_index(next(rng) % ACCOUNTS);
        let to = Address::from_index(next(rng) % ACCOUNTS);
        let tx = db.snapshot();
        db.bump_nonce(&from);
        let paid = db.transfer(&from, &to, next(rng) % 400).is_ok();
        let slot = sha256(&[(next(rng) % u64::from(SLOTS)) as u8]);
        let stored = db.storage(&contract, &slot).is_some();
        let value = next(rng).to_le_bytes()[..1 + (next(rng) % 8) as usize].to_vec();
        db.set_storage(&contract, &slot, (!stored).then_some(value));
        if next(rng).is_multiple_of(5) {
            db.set_code(&to, next(rng).to_le_bytes().to_vec());
        }
        if !paid || next(rng).is_multiple_of(4) {
            db.rollback(tx);
        }
    }
    db.commit_batch();
    db.take_undo(snapshot)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Roots read only at random points of a `MerkleMap` history — serial
    /// inserts and removes, removal runs and mixed batches, and clones —
    /// with long stretches of writes and no read between them: each read
    /// is the root from the definition, a second read with no write
    /// between is equal, a proof taken then verifies against it, and a
    /// clone taken while branches were stale, read only later, reads the
    /// root the original had when it was taken.
    #[test]
    fn merkle_map_roots_read_at_random_points_match_the_definition(
        base in 0usize..1_500,
        seed in any::<u64>(),
        steps in proptest::collection::vec((0u8..7, 1usize..301, any::<u64>(), 0u8..6), 1..20),
    ) {
        let mut rng = seed;
        let mut model = BTreeMap::new();
        while model.len() < base {
            model.insert(trie_key(next(&mut rng)), next(&mut rng).to_le_bytes().to_vec());
        }
        let mut map = MerkleMap::new();
        map.write_batch(model.iter().map(|(k, v)| (k.clone(), Some(v.clone()))).collect());
        let mut clones = Vec::new();
        for (kind, n, step_seed, read) in steps {
            if kind == 6 {
                clones.push((map.clone(), model_root(&model)));
            } else {
                trie_step(&mut map, &mut model, (kind, n, step_seed));
            }
            // One step in six reads; the last step always does.
            if read == 0 {
                let root = map.root();
                prop_assert_eq!(root, model_root(&model));
                prop_assert_eq!(map.root(), root);
                if let Some(key) = model.keys().nth(n % (model.len() + 1)) {
                    prop_assert!(map.prove(key).expect("present key").verify(&root));
                }
            }
        }
        prop_assert_eq!(map.root(), model_root(&model));
        for (copy, root) in clones {
            prop_assert_eq!(copy.root(), root);
        }
    }

    /// The same over `AccountDb` histories: batched blocks with mid-batch
    /// rollbacks, serial blocks, `apply_undo` of the newest block and
    /// clones, with roots read only at random points between blocks. Each
    /// read is the root from the definition over the entries the database's
    /// reads report, two reads in a row are equal, and a clone taken while
    /// branches were stale reads, later, the root its contents define.
    #[test]
    fn account_db_roots_read_at_random_points_match_the_definition(
        steps in proptest::collection::vec((0u8..6, any::<u64>(), 0u8..5), 1..30),
    ) {
        let mut db = AccountDb::new();
        for i in 0..ACCOUNTS {
            db.credit(&Address::from_index(i), 1_000);
        }
        db.clear_journal();
        let mut undos = Vec::new();
        let mut clones = Vec::new();
        for (kind, seed, read) in steps {
            match kind {
                0..=2 => undos.push(account_block(&mut db, true, seed)),
                3 => undos.push(account_block(&mut db, false, seed)),
                4 => {
                    if let Some(undo) = undos.pop() {
                        db.apply_undo(undo);
                    }
                }
                _ => clones.push((db.clone(), account_contents(&db))),
            }
            if read == 0 {
                let contents = account_contents(&db);
                prop_assert_eq!(db.entry_count(), contents.len());
                let root = db.root();
                prop_assert_eq!(root, model_root(&contents));
                prop_assert_eq!(db.root(), root);
            }
        }
        prop_assert_eq!(db.root(), model_root(&account_contents(&db)));
        for (copy, contents) in clones {
            prop_assert_eq!(copy.entry_count(), contents.len());
            prop_assert_eq!(copy.root(), model_root(&contents));
        }
    }
}

// --- Fixed-size keys against byte strings --------------------------------

/// An account, code or storage key (`kind` 0, 1, 2) of an address that
/// shares its first `shared` bytes with `base` and takes the rest from
/// `tail`, so ties on the eight-byte prefix (tag and seven address bytes)
/// are common.
fn state_key(kind: u8, base: &[u8; 20], shared: usize, tail: [u8; 20], slot: [u8; 32]) -> StateKey {
    let mut bytes = tail;
    bytes[..shared].copy_from_slice(&base[..shared]);
    let addr = Address::from_bytes(bytes);
    match kind {
        0 => StateKey::account(&addr),
        1 => StateKey::code(&addr),
        _ => StateKey::storage(&addr, &Hash256::from_bytes(slot)),
    }
}

proptest! {
    /// `StateKey`'s order and equality are those of its bytes: across keys
    /// that tie on the `u64` prefix or differ inside it, and across the
    /// account, code and storage keys of one address (storage slots of one
    /// contract included, one of them all zero).
    #[test]
    fn state_key_order_is_the_byte_order(
        base in any::<[u8; 20]>(),
        picks in proptest::collection::vec(
            (0usize..=20, any::<[u8; 20]>(), any::<[u8; 32]>(), any::<bool>()),
            1..12,
        ),
    ) {
        let mut keys = Vec::new();
        for (shared, tail, slot, zero_slot) in picks {
            let slot = if zero_slot { [0; 32] } else { slot };
            for kind in 0..3 {
                keys.push(state_key(kind, &base, shared, tail, slot));
            }
        }
        for a in &keys {
            for b in &keys {
                prop_assert_eq!(a.cmp(b), a.as_ref().cmp(b.as_ref()), "{:?} vs {:?}", a, b);
                prop_assert_eq!(a == b, a.as_ref() == b.as_ref());
            }
        }
    }

    /// A map keyed by `StateKey` and one keyed by the same keys' bytes, given
    /// the same serial and batched writes, agree on the root, on `len`, on
    /// `iter` (order included), and on `get` and `prove` of every key.
    #[test]
    fn merkle_map_over_state_keys_matches_byte_string_keys(
        base in any::<[u8; 20]>(),
        writes in proptest::collection::vec(
            ((0u8..3, 0u8..6, 0u8..4), proptest::option::of(any::<u16>())),
            1..120,
        ),
        serial in 0usize..120,
    ) {
        // Six addresses, the odd ones tied with `base` past the u64 prefix.
        let key = |(kind, who, slot): (u8, u8, u8)| {
            let shared = if who % 2 == 1 { 20 - usize::from(who) } else { 0 };
            let tail = *Address::from_index(u64::from(who)).as_bytes();
            state_key(kind, &base, shared, tail, [slot; 32])
        };
        let mut fixed = MerkleMap::<StateKey>::default();
        let mut bytes = MerkleMap::new();
        let (serial, batch) = writes.split_at(serial.min(writes.len()));
        for &(k, v) in serial {
            let k = key(k);
            match v {
                Some(v) => {
                    let v = v.to_le_bytes().to_vec();
                    prop_assert_eq!(fixed.insert(k, v.clone()), bytes.insert(k.as_ref().to_vec(), v));
                }
                None => prop_assert_eq!(fixed.remove(&k), bytes.remove(k.as_ref())),
            }
        }
        let value = |v: Option<u16>| v.map(|v| v.to_le_bytes().to_vec());
        fixed.write_batch(batch.iter().map(|&(k, v)| (key(k), value(v))).collect());
        bytes.write_batch(batch.iter().map(|&(k, v)| (key(k).as_ref().to_vec(), value(v))).collect());

        prop_assert_eq!(fixed.root(), bytes.root());
        prop_assert_eq!(fixed.len(), bytes.len());
        prop_assert!(fixed.iter().eq(bytes.iter()));
        for kind in 0..3 {
            for who in 0..6 {
                for slot in 0..4 {
                    let k = key((kind, who, slot));
                    prop_assert_eq!(fixed.get(&k), bytes.get(k.as_ref()));
                    prop_assert_eq!(fixed.prove(&k), bytes.prove(k.as_ref()));
                }
            }
        }
    }
}

proptest! {
    /// Hostile bytes: decoding a `MapProof` from arbitrary input and
    /// verifying what came out never panics, and what decodes re-encodes to
    /// the bytes it came from. The input is a plausible header (short key
    /// and value, a sibling count up to 320) over a random tail, then the
    /// same with one byte overwritten and the end cut off, so the decoder
    /// sees well-formed proofs — some deeper than a key hash has bits —
    /// as well as garbage.
    #[test]
    fn map_proof_decode_and_verify_never_panic(
        key in proptest::collection::vec(any::<u8>(), 0..6),
        value in proptest::collection::vec(any::<u8>(), 0..6),
        claimed in 0u32..320,
        tail in proptest::collection::vec(any::<u8>(), 0..10_240),
        at in any::<usize>(),
        byte in any::<u8>(),
        cut in any::<usize>(),
        root in any::<[u8; 32]>(),
    ) {
        let mut shaped = key.encoded();
        value.encode(&mut shaped);
        claimed.encode(&mut shaped);
        shaped.extend_from_slice(&tail);
        let mut mangled = shaped.clone();
        let at = at % mangled.len();
        mangled[at] = byte;
        mangled.truncate(1 + cut % mangled.len());
        for bytes in [shaped, mangled, tail] {
            let Ok(proof) = decode_all::<MapProof>(&bytes) else { continue };
            prop_assert_eq!(proof.encoded(), bytes);
            let siblings = (proof.encoded_len() - 12 - proof.key().len() - proof.value().len()) / 32;
            let verdict = proof.verify(&Hash256::from_bytes(root));
            prop_assert!(siblings <= 256 || !verdict);
        }
    }

    /// encode∘decode is the identity on the proofs a map hands out.
    #[test]
    fn map_proof_codec_round_trips(
        entries in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..80),
    ) {
        let map: MerkleMap = entries
            .iter()
            .map(|(k, v)| (k.to_le_bytes().to_vec(), vec![*v]))
            .collect();
        for (k, _) in &entries {
            let proof = map.prove(&k.to_le_bytes()[..]).expect("present key");
            let decoded = decode_all::<MapProof>(&proof.encoded()).unwrap();
            prop_assert_eq!(&decoded, &proof);
            prop_assert!(decoded.verify(&map.root()));
        }
    }

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
                None => { serial.remove(&[*k][..]); }
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
            prop_assert_eq!(batched.get(&[k][..]), serial.get(&[k][..]));
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

    /// Reverting a suffix of applied blocks (`apply_undo`, one trie batch per
    /// block, newest journal entry first so the oldest recorded value wins)
    /// lands on the state of a fresh database that applied only the prefix:
    /// same root, same entry count, same balance, nonce, storage and code
    /// everywhere. Blocks write one key many times, create and delete
    /// entries, and hold failed transactions rolled back mid-batch.
    #[test]
    fn reverting_a_suffix_equals_applying_the_prefix(
        blocks in proptest::collection::vec(
            proptest::collection::vec((0u64..6, 0u64..6, 1u64..400, 0u8..8, any::<bool>()), 1..14),
            1..7,
        ),
        keep in 0usize..7,
    ) {
        let contract = Address::from_index(7);
        let apply = |db: &mut AccountDb, block: &[(u64, u64, u64, u8, bool)]| {
            let snapshot = db.snapshot();
            db.begin_batch();
            for (from, to, amount, slot, fails) in block {
                let (from, to) = (Address::from_index(*from), Address::from_index(*to));
                let tx = db.snapshot();
                db.bump_nonce(&from);
                // An overdraw fails on its own; `fails` reverts one that did not.
                let paid = db.transfer(&from, &to, *amount).is_ok();
                let key = sha256(&[*slot]);
                let stored = db.storage(&contract, &key).is_some();
                db.set_storage(&contract, &key, (!stored).then(|| amount.to_le_bytes().to_vec()));
                if *slot == 0 {
                    db.set_code(&to, vec![*amount as u8; 3]);
                }
                if *fails || !paid {
                    db.rollback(tx);
                }
            }
            db.commit_batch();
            db.take_undo(snapshot)
        };
        let fresh = || {
            let mut db = AccountDb::new();
            for i in 0..6u64 {
                db.credit(&Address::from_index(i), 500);
            }
            db.clear_journal();
            db
        };

        let keep = keep.min(blocks.len());
        let mut reverted = fresh();
        let undos: Vec<_> = blocks.iter().map(|b| apply(&mut reverted, b)).collect();
        for undo in undos.into_iter().skip(keep).rev() {
            reverted.apply_undo(undo);
        }
        let mut prefix = fresh();
        for block in &blocks[..keep] {
            apply(&mut prefix, block);
        }

        prop_assert_eq!(reverted.root(), prefix.root());
        prop_assert_eq!(reverted.entry_count(), prefix.entry_count());
        for i in 0..8u64 {
            let addr = Address::from_index(i);
            prop_assert_eq!(reverted.account(&addr), prefix.account(&addr));
            prop_assert_eq!(reverted.code(&addr), prefix.code(&addr));
            let key = sha256(&[i as u8]);
            prop_assert_eq!(reverted.storage(&contract, &key), prefix.storage(&contract, &key));
        }
    }
}
