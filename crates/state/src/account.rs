//! The generation-2.0/3.0 state machine substrate: accounts with balances
//! and nonces, contract code, and per-contract storage, all stored in one
//! authenticated [`MerkleMap`] so a single `state_root` commits to
//! everything. Every mutation is journaled, giving transaction-level revert
//! (failed contract calls) and block-level undo (reorgs) for free.

use crate::merkle_map::MerkleMap;
use crate::StateError;
use dcs_crypto::codec::{decode_all, Decode, DecodeError, Encode, Reader};
use dcs_crypto::{Address, Hash256};
use dcs_primitives::Amount;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The balance/nonce record of one account.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Account {
    /// Spendable balance.
    pub balance: Amount,
    /// Number of transactions sent (replay protection).
    pub nonce: u64,
}

impl Encode for Account {
    fn encode(&self, out: &mut Vec<u8>) {
        self.balance.encode(out);
        self.nonce.encode(out);
    }

    /// One allocation of the record's exact size, where growing an empty
    /// `Vec` field by field would reallocate.
    fn encoded(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(std::mem::size_of::<(Amount, u64)>());
        self.encode(&mut out);
        out
    }
}

impl Decode for Account {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Account {
            balance: Amount::decode(r)?,
            nonce: u64::decode(r)?,
        })
    }
}

const TAG_ACCOUNT: u8 = 0x00;
const TAG_STORAGE: u8 = 0x01;
const TAG_CODE: u8 = 0x02;

/// Length of the longest key, a storage slot's: tag ‖ address ‖ slot.
const MAX_KEY: usize = 1 + 20 + 32;

/// A key of the account trie — `tag ‖ address` for an account record or a
/// contract's code, `tag ‖ address ‖ slot` for a storage slot — held inline,
/// so building, copying and comparing one never allocates.
///
/// Its bytes are what the trie hashes and proves, and its order is their
/// byte order: the first eight bytes compare as one big-endian `u64`, and
/// only keys that tie there compare the rest. The bytes past the key's
/// length stay zero, so equality of the whole array is equality of keys.
///
/// # Examples
///
/// ```
/// use dcs_crypto::{sha256, Address};
/// use dcs_state::StateKey;
///
/// let a = Address::from_index(1);
/// let (account, slot) = (StateKey::account(&a), StateKey::storage(&a, &sha256(b"s")));
/// assert_eq!(account.as_ref().len(), 21);
/// assert_eq!(account.cmp(&slot), account.as_ref().cmp(slot.as_ref()));
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct StateKey {
    bytes: [u8; MAX_KEY],
    len: u8,
}

impl StateKey {
    fn new(tag: u8, addr: &Address, slot: Option<&Hash256>) -> Self {
        let mut bytes = [0u8; MAX_KEY];
        bytes[0] = tag;
        bytes[1..21].copy_from_slice(addr.as_bytes());
        let len = match slot {
            Some(slot) => {
                bytes[21..].copy_from_slice(slot.as_bytes());
                MAX_KEY
            }
            None => 21,
        };
        StateKey {
            bytes,
            len: len as u8,
        }
    }

    /// The key of `addr`'s balance/nonce record.
    pub fn account(addr: &Address) -> Self {
        StateKey::new(TAG_ACCOUNT, addr, None)
    }

    /// The key of storage `slot` of the contract at `addr`.
    pub fn storage(addr: &Address, slot: &Hash256) -> Self {
        StateKey::new(TAG_STORAGE, addr, Some(slot))
    }

    /// The key of the contract code at `addr`.
    pub fn code(addr: &Address) -> Self {
        StateKey::new(TAG_CODE, addr, None)
    }

    /// The first eight bytes as a big-endian integer: the byte order of the
    /// keys' first eight bytes in one comparison.
    fn prefix(&self) -> u64 {
        let [a, b, c, d, e, f, g, h, ..] = self.bytes;
        u64::from_be_bytes([a, b, c, d, e, f, g, h])
    }
}

impl AsRef<[u8]> for StateKey {
    fn as_ref(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

impl Ord for StateKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.prefix()
            .cmp(&other.prefix())
            .then_with(|| self.as_ref().cmp(other.as_ref()))
    }
}

impl PartialOrd for StateKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::fmt::Debug for StateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StateKey(")?;
        for b in self.as_ref() {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

/// A run of packed writes, one exact-size allocation: a block-level undo
/// record cut from the journal ([`AccountDb::take_undo`]), or a whole state
/// ([`AccountDb::image`]). [`AccountDb::apply_undo`] writes it back.
#[derive(Debug, Clone, Default)]
pub struct AccountUndo {
    bytes: Box<[u8]>,
}

/// The header bit of a packed write that carries a value; clear, the key was
/// absent.
const PRESENT: u8 = 0x80;

/// Appends one write to `out`: a header byte (the key's length, at most
/// [`MAX_KEY`], with [`PRESENT`] set when a value follows), the key, then a
/// value's length as eight little-endian bytes and the value.
fn pack(out: &mut Vec<u8>, key: &[u8], value: Option<&[u8]>) {
    out.push(key.len() as u8 | if value.is_some() { PRESENT } else { 0 });
    out.extend_from_slice(key);
    if let Some(value) = value {
        out.extend_from_slice(&(value.len() as u64).to_le_bytes());
        out.extend_from_slice(value);
    }
}

/// The write [`pack`] put at the start of `bytes`, and the bytes after it.
fn unpack(bytes: &[u8]) -> (StateKey, Option<&[u8]>, &[u8]) {
    let len = usize::from(bytes[0] & !PRESENT);
    let mut key = StateKey {
        bytes: [0; MAX_KEY],
        len: len as u8,
    };
    key.bytes[..len].copy_from_slice(&bytes[1..=len]);
    let rest = &bytes[1 + len..];
    if bytes[0] & PRESENT == 0 {
        return (key, None, rest);
    }
    let (prefix, rest) = rest.split_at(8);
    let mut value_len = [0; 8];
    value_len.copy_from_slice(prefix);
    let (value, rest) = rest.split_at(u64::from_le_bytes(value_len) as usize);
    (key, Some(value), rest)
}

/// The old values of journaled writes, oldest first, packed into one buffer
/// that keeps its capacity from block to block: a write copies its old
/// value's bytes in and allocates nothing once the buffer has grown.
#[derive(Debug, Clone, Default)]
struct Journal {
    bytes: Vec<u8>,
    /// Where each entry starts in `bytes`; the entry count is the snapshot.
    starts: Vec<usize>,
}

impl Journal {
    fn push(&mut self, key: &StateKey, old: Option<&[u8]>) {
        self.starts.push(self.bytes.len());
        pack(&mut self.bytes, key.as_ref(), old);
    }

    /// Where entry `n` starts in `bytes` (the end, past the last entry).
    fn offset(&self, n: usize) -> usize {
        self.starts.get(n).copied().unwrap_or(self.bytes.len())
    }

    /// Drops the entries from `n` on.
    fn truncate(&mut self, n: usize) {
        self.bytes.truncate(self.offset(n));
        self.starts.truncate(n);
    }
}

/// The account database.
///
/// # Examples
///
/// ```
/// use dcs_state::AccountDb;
/// use dcs_crypto::Address;
///
/// let mut db = AccountDb::new();
/// let alice = Address::from_index(1);
/// db.credit(&alice, 100);
/// let snap = db.snapshot();
/// db.debit(&alice, 30).unwrap();
/// db.rollback(snap); // failed tx: balance restored
/// assert_eq!(db.balance(&alice), 100);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AccountDb {
    map: MerkleMap<StateKey>,
    journal: Journal,
    /// Batched-application overlay (`Some` while a batch is open): pending
    /// writes staged here are merged into the trie in one
    /// [`MerkleMap::write_batch`] pass at [`AccountDb::commit_batch`] time.
    /// Reads always consult the overlay first, so execution sees exactly the
    /// state the serial path would.
    overlay: Option<BTreeMap<StateKey, Option<Vec<u8>>>>,
}

impl AccountDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        AccountDb::default()
    }

    /// The authenticated state root of the committed state (not an open
    /// batch's overlay). The first read after writes hashes the trie
    /// branches they left stale; a read with no write since hashes nothing.
    pub fn root(&self) -> Hash256 {
        self.map.root()
    }

    /// Number of underlying map entries (accounts + slots + code blobs).
    pub fn entry_count(&self) -> usize {
        self.map.len()
    }

    /// Opens a write batch: subsequent mutations are staged in an overlay
    /// instead of touching the trie, and [`AccountDb::commit_batch`] merges
    /// them in one [`MerkleMap::write_batch`] pass. Journal semantics
    /// (snapshot / rollback / take_undo) are unchanged — mid-batch
    /// transaction failures revert exactly as on the serial path. No-op if
    /// a batch is already open.
    pub fn begin_batch(&mut self) {
        self.overlay.get_or_insert_with(BTreeMap::new);
    }

    /// Merges all staged writes into the trie in one pass and closes the
    /// batch. The merge marks the branches on each written key's path stale
    /// and hashes none of them: the next [`AccountDb::root`] hashes each
    /// once, however many batches came before it, and reads a root
    /// bit-identical to applying the same mutations serially. No-op when no
    /// batch is open.
    pub fn commit_batch(&mut self) {
        if let Some(overlay) = self.overlay.take() {
            self.map.write_batch(overlay.into_iter().collect());
        }
    }

    /// Discards the overlay and closes the batch. The caller must already
    /// have rolled the journal back to the pre-batch snapshot — after such a
    /// rollback the overlay holds only writes restoring pre-batch values, so
    /// dropping it is equivalent to committing it. No-op outside a batch.
    pub fn abort_batch(&mut self) {
        self.overlay = None;
    }

    fn raw_get(&self, key: &StateKey) -> Option<&[u8]> {
        if let Some(overlay) = &self.overlay {
            if let Some(staged) = overlay.get(key) {
                return staged.as_deref();
            }
        }
        self.map.get(key)
    }

    fn raw_set(&mut self, key: StateKey, value: Option<Vec<u8>>) {
        match &mut self.overlay {
            Some(overlay) => match overlay.insert(key, value) {
                // The overlay-visible previous value: an earlier staged
                // write, or (first touch in this batch) the trie's value.
                Some(staged) => self.journal.push(&key, staged.as_deref()),
                None => self.journal.push(&key, self.map.get(&key)),
            },
            None => {
                let old = match value {
                    Some(v) => self.map.insert(key, v),
                    None => self.map.remove(&key),
                };
                self.journal.push(&key, old.as_deref());
            }
        }
    }

    /// Reads an account record (zero balance/nonce if absent).
    pub fn account(&self, addr: &Address) -> Account {
        self.raw_get(&StateKey::account(addr))
            .and_then(|bytes| decode_all::<Account>(bytes).ok())
            .unwrap_or_default()
    }

    /// The account's balance.
    pub fn balance(&self, addr: &Address) -> Amount {
        self.account(addr).balance
    }

    /// The account's nonce.
    pub fn nonce(&self, addr: &Address) -> u64 {
        self.account(addr).nonce
    }

    fn put_account(&mut self, addr: &Address, acct: Account) {
        if acct == Account::default() {
            self.raw_set(StateKey::account(addr), None);
        } else {
            self.raw_set(StateKey::account(addr), Some(acct.encoded()));
        }
    }

    /// Adds `value` to the account's balance. Crediting nothing reads,
    /// writes and journals nothing.
    pub fn credit(&mut self, addr: &Address, value: Amount) {
        if value == 0 {
            return;
        }
        let mut acct = self.account(addr);
        acct.balance = acct.balance.saturating_add(value);
        self.put_account(addr, acct);
    }

    /// Subtracts `value` from the account's balance.
    ///
    /// # Errors
    ///
    /// [`StateError::InsufficientBalance`] if the balance is too small; the
    /// state is unchanged.
    pub fn debit(&mut self, addr: &Address, value: Amount) -> Result<(), StateError> {
        let mut acct = self.account(addr);
        if acct.balance < value {
            return Err(StateError::InsufficientBalance {
                have: u128::from(acct.balance),
                need: u128::from(value),
            });
        }
        acct.balance -= value;
        self.put_account(addr, acct);
        Ok(())
    }

    /// Moves value between accounts atomically.
    ///
    /// # Errors
    ///
    /// [`StateError::InsufficientBalance`] if `from` cannot cover `value`.
    pub fn transfer(
        &mut self,
        from: &Address,
        to: &Address,
        value: Amount,
    ) -> Result<(), StateError> {
        self.debit(from, value)?;
        self.credit(to, value);
        Ok(())
    }

    /// Increments the account nonce, returning the pre-increment value.
    pub fn bump_nonce(&mut self, addr: &Address) -> u64 {
        let mut acct = self.account(addr);
        let old = acct.nonce;
        acct.nonce += 1;
        self.put_account(addr, acct);
        old
    }

    /// Charges a transaction's sender: checks that `nonce` is the account's
    /// and that its balance covers `value`, then bumps the nonce and debits
    /// `value` — one read and one write of the record, one journal entry,
    /// with the record and root [`AccountDb::bump_nonce`] followed by
    /// [`AccountDb::debit`] would leave.
    ///
    /// # Errors
    ///
    /// [`StateError::BadNonce`] if `nonce` is not the account's, else
    /// [`StateError::InsufficientBalance`] (what [`AccountDb::debit`]
    /// returns) if the balance is too small; the state and the journal are
    /// unchanged.
    pub fn charge_sender(
        &mut self,
        addr: &Address,
        nonce: u64,
        value: Amount,
    ) -> Result<(), StateError> {
        let acct = self.account(addr);
        if nonce != acct.nonce {
            return Err(StateError::BadNonce {
                expected: acct.nonce,
                got: nonce,
            });
        }
        if acct.balance < value {
            return Err(StateError::InsufficientBalance {
                have: u128::from(acct.balance),
                need: u128::from(value),
            });
        }
        let charged = Account {
            balance: acct.balance - value,
            nonce: acct.nonce + 1,
        };
        self.put_account(addr, charged);
        Ok(())
    }

    /// The contract code stored at `addr`, if any.
    pub fn code(&self, addr: &Address) -> Option<&[u8]> {
        self.raw_get(&StateKey::code(addr))
    }

    /// Installs contract code at `addr`.
    pub fn set_code(&mut self, addr: &Address, code: Vec<u8>) {
        self.raw_set(StateKey::code(addr), Some(code));
    }

    /// Reads a contract storage slot.
    pub fn storage(&self, addr: &Address, slot: &Hash256) -> Option<&[u8]> {
        self.raw_get(&StateKey::storage(addr, slot))
    }

    /// Writes (or clears, with `None`) a contract storage slot.
    pub fn set_storage(&mut self, addr: &Address, slot: &Hash256, value: Option<Vec<u8>>) {
        self.raw_set(StateKey::storage(addr, slot), value);
    }

    /// Marks the current journal position; pass to [`AccountDb::rollback`]
    /// to revert everything after it (failed-transaction semantics).
    pub fn snapshot(&self) -> usize {
        self.journal.starts.len()
    }

    /// Reverts all mutations made since `snapshot`.
    pub fn rollback(&mut self, snapshot: usize) {
        while self.journal.starts.len() > snapshot {
            let Some(start) = self.journal.starts.pop() else {
                break;
            };
            let (key, old, _) = unpack(&self.journal.bytes[start..]);
            if let Some(overlay) = &mut self.overlay {
                // Inside a batch the journal records overlay-visible old
                // values, so restoring is a staged write. Re-staging a value
                // equal to the trie's own is harmless: the commit-time merge
                // is content-addressed, so the root is unchanged by it.
                overlay.insert(key, old.map(<[u8]>::to_vec));
            } else {
                match old {
                    Some(v) => {
                        self.map.insert(key, v.to_vec());
                    }
                    None => {
                        self.map.remove(&key);
                    }
                }
            }
            self.journal.bytes.truncate(start);
        }
    }

    /// Extracts the journal since `snapshot` as a block-level [`AccountUndo`]
    /// — one copy of its bytes, of their exact size — and clears it from the
    /// live journal (the block is now "applied").
    pub fn take_undo(&mut self, snapshot: usize) -> AccountUndo {
        let bytes = self.journal.bytes[self.journal.offset(snapshot)..].into();
        self.journal.truncate(snapshot);
        AccountUndo { bytes }
    }

    /// Applies a block-level undo record, reversing an applied block in one
    /// [`MerkleMap::write_batch`] pass. The entries go in newest first: a
    /// batch's last write to a key wins, and the value to restore is the
    /// *oldest* one the journal recorded for it.
    pub fn apply_undo(&mut self, undo: AccountUndo) {
        let mut writes = Vec::new();
        let mut rest = &undo.bytes[..];
        while !rest.is_empty() {
            let (key, value, after) = unpack(rest);
            writes.push((key, value.map(<[u8]>::to_vec)));
            rest = after;
        }
        writes.reverse();
        self.map.write_batch(writes);
    }

    /// The whole committed state as one packed record: applied with
    /// [`AccountDb::apply_undo`] to an empty database, it rebuilds this one,
    /// root included. Reads the trie, not an open batch's overlay.
    pub fn image(&self) -> AccountUndo {
        let mut bytes = Vec::new();
        for (key, value) in self.map.iter() {
            pack(&mut bytes, key, Some(value));
        }
        AccountUndo {
            bytes: bytes.into(),
        }
    }

    /// Drops journal history (e.g. after finality) and releases its buffer:
    /// saves memory, forfeits rollback past this point.
    pub fn clear_journal(&mut self) {
        self.journal = Journal::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    #[test]
    fn credit_debit_transfer() {
        let mut db = AccountDb::new();
        db.credit(&addr(1), 100);
        assert_eq!(db.balance(&addr(1)), 100);
        db.transfer(&addr(1), &addr(2), 40).unwrap();
        assert_eq!(db.balance(&addr(1)), 60);
        assert_eq!(db.balance(&addr(2)), 40);
        assert!(matches!(
            db.debit(&addr(2), 41),
            Err(StateError::InsufficientBalance { have: 40, need: 41 })
        ));
        assert_eq!(
            db.balance(&addr(2)),
            40,
            "failed debit must not change state"
        );
    }

    #[test]
    fn nonce_bumps() {
        let mut db = AccountDb::new();
        assert_eq!(db.nonce(&addr(1)), 0);
        assert_eq!(db.bump_nonce(&addr(1)), 0);
        assert_eq!(db.bump_nonce(&addr(1)), 1);
        assert_eq!(db.nonce(&addr(1)), 2);
    }

    #[test]
    fn root_reflects_content_and_reverts_cleanly() {
        let mut db = AccountDb::new();
        let empty_root = db.root();
        db.credit(&addr(1), 10);
        let r1 = db.root();
        assert_ne!(r1, empty_root);

        let snap = db.snapshot();
        db.credit(&addr(2), 20);
        db.set_storage(&addr(1), &dcs_crypto::sha256(b"slot"), Some(vec![1]));
        assert_ne!(db.root(), r1);
        db.rollback(snap);
        assert_eq!(db.root(), r1);
        assert_eq!(db.balance(&addr(2)), 0);
    }

    #[test]
    fn zero_account_is_pruned_from_map() {
        let mut db = AccountDb::new();
        db.credit(&addr(1), 10);
        db.debit(&addr(1), 10).unwrap();
        // Balance and nonce both zero → record removed → root returns to empty.
        assert_eq!(db.root(), Hash256::ZERO);
    }

    #[test]
    fn code_and_storage() {
        let mut db = AccountDb::new();
        let c = addr(7);
        db.set_code(&c, vec![0xde, 0xad]);
        assert_eq!(db.code(&c), Some(&[0xde, 0xad][..]));
        let slot = dcs_crypto::sha256(b"greeting");
        db.set_storage(&c, &slot, Some(b"hello".to_vec()));
        assert_eq!(db.storage(&c, &slot), Some(&b"hello"[..]));
        db.set_storage(&c, &slot, None);
        assert_eq!(db.storage(&c, &slot), None);
    }

    #[test]
    fn block_undo_round_trip() {
        let mut db = AccountDb::new();
        db.credit(&addr(1), 100);
        db.clear_journal();
        let before = db.root();

        let snap = db.snapshot();
        db.transfer(&addr(1), &addr(2), 30).unwrap();
        db.bump_nonce(&addr(1));
        let undo = db.take_undo(snap);
        let after = db.root();
        assert_ne!(before, after);

        db.apply_undo(undo);
        assert_eq!(db.root(), before);
        assert_eq!(db.balance(&addr(1)), 100);
        assert_eq!(db.nonce(&addr(1)), 0);
    }

    #[test]
    fn nested_snapshots() {
        let mut db = AccountDb::new();
        db.credit(&addr(1), 100);
        let outer = db.snapshot();
        db.debit(&addr(1), 10).unwrap();
        let inner = db.snapshot();
        db.debit(&addr(1), 20).unwrap();
        db.rollback(inner); // inner tx failed
        assert_eq!(db.balance(&addr(1)), 90);
        db.rollback(outer); // whole block rolled back
        assert_eq!(db.balance(&addr(1)), 100);
    }

    #[test]
    fn saturating_credit_does_not_wrap() {
        let mut db = AccountDb::new();
        db.credit(&addr(1), Amount::MAX);
        db.credit(&addr(1), 5);
        assert_eq!(db.balance(&addr(1)), Amount::MAX);
    }

    fn seeded(n: u64) -> AccountDb {
        let mut db = AccountDb::new();
        for i in 0..n {
            db.credit(&addr(i), 100 * (i + 1));
        }
        db.clear_journal();
        db
    }

    #[test]
    fn one_write_sender_charge_matches_bump_then_debit() {
        for batched in [false, true] {
            let (mut two, mut one) = (seeded(5), seeded(5));
            if batched {
                two.begin_batch();
                one.begin_batch();
            }
            two.bump_nonce(&addr(1));
            two.debit(&addr(1), 150).unwrap();
            let snapshot = one.snapshot();
            one.charge_sender(&addr(1), 0, 150).unwrap();
            assert_eq!(one.snapshot(), snapshot + 1, "one journal entry");
            two.commit_batch();
            one.commit_batch();
            assert_eq!(one.account(&addr(1)), two.account(&addr(1)));
            assert_eq!(one.root(), two.root(), "batched: {batched}");
        }

        // A short balance: `debit`'s error, and nothing written or journaled.
        // A wrong nonce: the account's nonce in the error, likewise.
        let mut db = seeded(5);
        let (root, snapshot) = (db.root(), db.snapshot());
        let short = db.clone().debit(&addr(1), 201).unwrap_err();
        assert_eq!(db.charge_sender(&addr(1), 0, 201), Err(short));
        assert_eq!(
            db.charge_sender(&addr(1), 1, 1),
            Err(StateError::BadNonce {
                expected: 0,
                got: 1
            })
        );
        assert_eq!((db.root(), db.snapshot()), (root, snapshot));
        assert_eq!(db.account(&addr(1)).balance, 200);
    }

    #[test]
    fn batched_application_matches_serial_root() {
        let mut serial = seeded(10);
        let mut batched = seeded(10);

        batched.begin_batch();
        for db in [&mut serial, &mut batched] {
            db.transfer(&addr(1), &addr(2), 30).unwrap();
            db.bump_nonce(&addr(1));
            db.transfer(&addr(2), &addr(3), 5).unwrap();
            db.set_code(&addr(7), vec![1, 2, 3]);
            db.set_storage(&addr(7), &dcs_crypto::sha256(b"s"), Some(vec![9]));
            // Reads mid-batch must see staged writes.
            assert_eq!(db.balance(&addr(2)), 100 * 3 + 30 - 5);
            // Prune an account to zero (a staged remove).
            let b = db.balance(&addr(4));
            db.debit(&addr(4), b).unwrap();
        }
        batched.commit_batch();

        assert_eq!(batched.root(), serial.root());
        assert_eq!(batched.entry_count(), serial.entry_count());
    }

    #[test]
    fn mid_batch_rollback_matches_serial_failed_tx() {
        let mut serial = seeded(5);
        let mut batched = seeded(5);

        batched.begin_batch();
        for db in [&mut serial, &mut batched] {
            db.transfer(&addr(1), &addr(2), 10).unwrap(); // good tx
            let snap = db.snapshot();
            db.transfer(&addr(2), &addr(3), 50).unwrap(); // tx that will fail…
            db.bump_nonce(&addr(2));
            db.rollback(snap); // …and be reverted
            db.transfer(&addr(3), &addr(4), 7).unwrap(); // good tx after revert
        }
        batched.commit_batch();

        assert_eq!(batched.root(), serial.root());
        assert_eq!(batched.balance(&addr(2)), serial.balance(&addr(2)));
        assert_eq!(batched.nonce(&addr(2)), 0);
    }

    #[test]
    fn rolled_back_batch_abort_restores_pre_batch_root() {
        let mut db = seeded(5);
        let before = db.root();
        let snap = db.snapshot();
        db.begin_batch();
        db.transfer(&addr(1), &addr(2), 10).unwrap();
        db.bump_nonce(&addr(3));
        db.rollback(snap);
        db.abort_batch();
        assert_eq!(db.root(), before);
        assert!(db.overlay.is_none(), "the batch is closed");
    }

    #[test]
    fn batch_undo_round_trip_reverses_committed_block() {
        let mut db = seeded(5);
        let before = db.root();
        let snap = db.snapshot();
        db.begin_batch();
        db.transfer(&addr(1), &addr(2), 30).unwrap();
        db.bump_nonce(&addr(1));
        db.commit_batch();
        let undo = db.take_undo(snap);
        assert_ne!(db.root(), before);
        db.apply_undo(undo);
        assert_eq!(db.root(), before);
    }
}
