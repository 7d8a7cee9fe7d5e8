//! Blocks and headers (Fig. 2 of the paper): each header carries the parent
//! hash (the chain link), a Merkle root over the transactions, a state root,
//! and a consensus [`Seal`] proving the proposer's right to extend the chain.
//!
//! A [`Block`] instance remembers what is derived from it — its transaction
//! ids, the Merkle root over them, their signing hashes and its header hash —
//! so every holder of one `Arc<Block>` shares one computation of each. No memo is part of the
//! block's identity: the codec and equality skip them, a clone and a decoded
//! block start cold. `header` and `txs` are public fields; mutate them only
//! before the first use of a memo or on a clone (debug builds assert that the
//! hash, body-root and signing-hash memos are fresh on every read).

use crate::transaction::Transaction;
use crate::Amount;
use dcs_crypto::codec::{Decode, DecodeError, Encode, Reader};
use dcs_crypto::{merkle, sha256, Address, Hash256, MerkleTree, VerifyPool};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The consensus proof attached to a header. One variant per protocol family
/// the paper surveys (§2.4).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Seal {
    /// No seal: genesis blocks and unit tests.
    None,
    /// Proof-of-Work: a nonce and the difficulty — the expected number of
    /// hash attempts needed, i.e. a valid header hash must satisfy
    /// `hash.prefix_u64() <= u64::MAX / difficulty`. Also the per-block
    /// "work" accumulated by heaviest-chain rules.
    Work {
        /// Mining nonce.
        nonce: u64,
        /// Expected hash attempts (≥ 1).
        difficulty: u64,
    },
    /// Proof-of-Stake: the slot number and the proposer's lottery proof.
    Stake {
        /// Slot index since genesis.
        slot: u64,
        /// Verifiable lottery draw binding proposer, slot, and parent.
        proof: Hash256,
    },
    /// Proof-of-Elapsed-Time: the waited duration in microseconds, attested
    /// by a (simulated) trusted execution environment.
    ElapsedTime {
        /// Microseconds waited before proposing.
        wait_us: u64,
    },
    /// Leader-based ordering (Hyperledger-style ordering service or PBFT):
    /// the view/epoch and sequence number assigned by the orderer.
    Authority {
        /// Leader election epoch.
        view: u64,
        /// Sequence within the view.
        sequence: u64,
        /// Number of commit votes backing the block (PBFT quorum size; 1 for
        /// a solo orderer).
        votes: u32,
    },
    /// Bitcoin-NG microblock: signed by the current key-block leader.
    Micro {
        /// Hash of the key block that elected the issuing leader.
        key_block: Hash256,
        /// Microblock sequence under that key block.
        sequence: u64,
    },
}

/// A block header: everything needed to verify chain linkage and data
/// integrity without downloading the body (the light-client contract, §2.2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockHeader {
    /// Hash of the parent header ([`Hash256::ZERO`] for genesis).
    pub parent: Hash256,
    /// Distance from genesis.
    pub height: u64,
    /// Proposal time, microseconds of simulated time.
    pub timestamp_us: u64,
    /// Merkle root over the body's transaction ids.
    pub tx_root: Hash256,
    /// Root of the authenticated state after executing this block.
    pub state_root: Hash256,
    /// The proposing peer's reward address.
    pub proposer: Address,
    /// Consensus proof.
    pub seal: Seal,
}

impl BlockHeader {
    /// Creates a header with empty roots (filled in by block assembly).
    pub fn new(
        parent: Hash256,
        height: u64,
        timestamp_us: u64,
        proposer: Address,
        seal: Seal,
    ) -> Self {
        BlockHeader {
            parent,
            height,
            timestamp_us,
            tx_root: Hash256::ZERO,
            state_root: Hash256::ZERO,
            proposer,
            seal,
        }
    }

    /// The block hash: SHA-256 of the canonical header encoding.
    pub fn hash(&self) -> Hash256 {
        sha256(&self.encoded())
    }

    /// The amount of expected work this header's seal represents (the PoW
    /// difficulty; 1 otherwise). Summed by heaviest-chain fork choice.
    pub fn work(&self) -> u128 {
        match self.seal {
            Seal::Work { difficulty, .. } => u128::from(difficulty.max(1)),
            _ => 1,
        }
    }

    /// Whether a `Seal::Work` header's hash actually meets its difficulty
    /// target: the first 8 bytes, read as an integer, must fall below
    /// `u64::MAX / difficulty`. Non-PoW seals trivially pass.
    pub fn meets_pow_target(&self) -> bool {
        match self.seal {
            Seal::Work { difficulty, .. } => {
                self.hash().prefix_u64() <= u64::MAX / difficulty.max(1)
            }
            _ => true,
        }
    }
}

/// A full block: header plus transaction body.
#[derive(Debug, Serialize, Deserialize)]
pub struct Block {
    /// The sealed header.
    pub header: BlockHeader,
    /// Ordered transactions.
    pub txs: Vec<Transaction>,
    /// Body transaction ids, computed batch-first on first use and shared by
    /// every consumer of this instance (root verification, inclusion
    /// tracking). Not part of the block's identity: skipped by the codec,
    /// equality, and clones.
    #[serde(skip)]
    ids: OnceLock<Box<[Hash256]>>,
    /// The header hash, computed on the first [`Block::hash`] and shared by
    /// every holder of this instance, under the same contract as `ids`.
    #[serde(skip)]
    hash: OnceLock<Hash256>,
    /// The body's signing hashes, computed on the first
    /// [`Block::signing_hashes`], under the same contract as `ids`.
    #[serde(skip)]
    signing: OnceLock<Box<[Hash256]>>,
    /// The Merkle root over `tx_ids()` — what `header.tx_root` is checked
    /// against — seeded by assembly, else computed on the first
    /// [`Block::body_root_with`], under the same contract as `ids`.
    #[serde(skip)]
    body_root: OnceLock<Hash256>,
}

impl Clone for Block {
    fn clone(&self) -> Self {
        // The clone starts with cold caches: clones exist to be modified
        // (tests, experiment tooling), and a carried-over cache would go
        // stale the moment the header or body changes.
        Block::from_parts(self.header.clone(), self.txs.clone())
    }
}

impl PartialEq for Block {
    fn eq(&self, other: &Self) -> bool {
        self.header == other.header && self.txs == other.txs
    }
}

impl Eq for Block {}

impl Block {
    /// Assembles a block, computing and committing the transaction Merkle
    /// root into the header. The ids hashed for the root seed the id cache
    /// and the root seeds the body-root memo, so the first
    /// [`Block::tx_ids`] / [`Block::verify_tx_root`] of a locally built
    /// block is a read: `txs` is under the "mutate on a clone" contract from
    /// birth.
    pub fn new(header: BlockHeader, txs: Vec<Transaction>) -> Self {
        let ids = Transaction::batch_ids(&txs);
        let root = merkle::merkle_root(&ids);
        Block::assemble(header, txs, ids, root)
    }

    /// Assembles a block from transactions whose ids the caller has already
    /// computed (the propose path: the mempool hands both over). Commits the
    /// Merkle root over `ids` and seeds the id cache, so assembly never
    /// re-hashes bodies the pool already identified.
    pub fn with_ids(header: BlockHeader, txs: Vec<Transaction>, ids: Vec<Hash256>) -> Self {
        debug_assert_ids_match(&txs, &ids);
        let root = merkle::merkle_root(&ids);
        Block::assemble(header, txs, ids, root)
    }

    /// Assembles a block from a Merkle tree built over its transaction ids
    /// (a shard sequencer proves lock receipts from the same tree): the
    /// tree's leaves seed the id cache and its root is committed into the
    /// header, so the body is rooted once. Debug builds check both the ids
    /// and the root against a recomputation.
    pub fn with_tree(header: BlockHeader, txs: Vec<Transaction>, tree: &MerkleTree) -> Self {
        let ids = tree.leaves().to_vec();
        debug_assert_ids_match(&txs, &ids);
        debug_assert_eq!(
            tree.root(),
            merkle::merkle_root(&ids),
            "tree root is the ids' root"
        );
        Block::assemble(header, txs, ids, tree.root())
    }

    /// Commits `root`, the Merkle root over `ids`, into the header and
    /// seeds the id cache and the body-root memo with them.
    fn assemble(
        mut header: BlockHeader,
        txs: Vec<Transaction>,
        ids: Vec<Hash256>,
        root: Hash256,
    ) -> Self {
        header.tx_root = root;
        Block {
            body_root: OnceLock::from(root),
            header,
            txs,
            ids: OnceLock::from(ids.into_boxed_slice()),
            hash: OnceLock::new(),
            signing: OnceLock::new(),
        }
    }

    /// Reassembles a block from an already-sealed header and its body
    /// without recomputing the transaction root (mining workflows seal a
    /// template header whose `tx_root` is already committed). The caller is
    /// responsible for the header/body pairing; `verify_tx_root` still
    /// checks it.
    pub fn from_parts(header: BlockHeader, txs: Vec<Transaction>) -> Self {
        Block {
            header,
            txs,
            ids: OnceLock::new(),
            hash: OnceLock::new(),
            signing: OnceLock::new(),
            body_root: OnceLock::new(),
        }
    }

    /// The block hash (hash of the header) — encoded and hashed on the first
    /// call and remembered for the life of this instance, so a block shared
    /// through an `Arc` is hashed once however many peers, votes and store
    /// records ask. `header` is a public field: mutate it only before the
    /// first call or on a clone (debug builds assert the memo is fresh).
    /// [`BlockHeader::hash`] itself stays uncached — grinding rewrites the
    /// header between hashes.
    pub fn hash(&self) -> Hash256 {
        let memo = *self.hash.get_or_init(|| self.header.hash());
        debug_assert_eq!(memo, self.header.hash(), "header mutated after hashing");
        memo
    }

    /// The body's transaction ids, in order — computed with the multi-lane
    /// batch hasher on first call and cached for the life of this instance.
    /// Shared `Arc<Block>` holders (the gossip fabric, the block store) all
    /// reuse one computation.
    pub fn tx_ids(&self) -> &[Hash256] {
        self.ids
            .get_or_init(|| Transaction::batch_ids(&self.txs).into_boxed_slice())
    }

    /// [`Transaction::signing_hash`] of every body transaction, in order —
    /// what the witnesses of this block are verified against. Hashed on the
    /// first call and shared by every importer of this instance. A stale
    /// entry would check a signature against another body's hash, so debug
    /// builds recompute and compare on every read.
    pub fn signing_hashes(&self) -> &[Hash256] {
        let fresh = || self.txs.iter().map(Transaction::signing_hash);
        let memo = self.signing.get_or_init(|| fresh().collect());
        debug_assert!(
            memo.iter().copied().eq(fresh()),
            "body mutated after hashing"
        );
        memo
    }

    /// Merkle root over the transaction ids.
    pub fn compute_tx_root(txs: &[Transaction]) -> Hash256 {
        merkle::merkle_root(&Transaction::batch_ids(txs))
    }

    /// The Merkle root over [`Block::tx_ids`] — rooted once per instance
    /// (levels of a cold block fan out to `pool`) and shared by every
    /// importer of it. It is the root of the *body*, whatever the header
    /// claims: a stale entry would vouch for another body, so debug builds
    /// recompute and compare on every read.
    pub fn body_root_with(&self, pool: &VerifyPool) -> Hash256 {
        let memo = *self
            .body_root
            .get_or_init(|| merkle::merkle_root_with(self.tx_ids(), pool));
        debug_assert_eq!(
            memo,
            Block::compute_tx_root(&self.txs),
            "body mutated after rooting"
        );
        memo
    }

    /// Checks that the header's `tx_root` matches the body.
    pub fn verify_tx_root(&self) -> bool {
        self.header.tx_root == self.body_root_with(&VerifyPool::serial())
    }

    /// Total fees offered by the body's transactions.
    pub fn offered_fees(&self) -> Amount {
        self.txs.iter().map(Transaction::offered_fee).sum()
    }

    /// Encoded size in bytes (drives bandwidth accounting and the E10
    /// full-download-vs-SPV comparison).
    pub fn encoded_len(&self) -> usize {
        self.encoded().len()
    }
}

/// Debug builds: `ids` are the ids of `txs`, one each, in order.
fn debug_assert_ids_match(txs: &[Transaction], ids: &[Hash256]) {
    debug_assert_eq!(txs.len(), ids.len(), "one id per transaction");
    debug_assert!(
        txs.iter().zip(ids).all(|(tx, id)| tx.id() == *id),
        "ids must match the bodies"
    );
}

impl Encode for Seal {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Seal::None => out.push(0),
            Seal::Work { nonce, difficulty } => {
                out.push(1);
                nonce.encode(out);
                difficulty.encode(out);
            }
            Seal::Stake { slot, proof } => {
                out.push(2);
                slot.encode(out);
                proof.encode(out);
            }
            Seal::ElapsedTime { wait_us } => {
                out.push(3);
                wait_us.encode(out);
            }
            Seal::Authority {
                view,
                sequence,
                votes,
            } => {
                out.push(4);
                view.encode(out);
                sequence.encode(out);
                votes.encode(out);
            }
            Seal::Micro {
                key_block,
                sequence,
            } => {
                out.push(5);
                key_block.encode(out);
                sequence.encode(out);
            }
        }
    }
}

impl Decode for Seal {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(Seal::None),
            1 => Ok(Seal::Work {
                nonce: u64::decode(r)?,
                difficulty: u64::decode(r)?,
            }),
            2 => Ok(Seal::Stake {
                slot: u64::decode(r)?,
                proof: Hash256::decode(r)?,
            }),
            3 => Ok(Seal::ElapsedTime {
                wait_us: u64::decode(r)?,
            }),
            4 => Ok(Seal::Authority {
                view: u64::decode(r)?,
                sequence: u64::decode(r)?,
                votes: u32::decode(r)?,
            }),
            5 => Ok(Seal::Micro {
                key_block: Hash256::decode(r)?,
                sequence: u64::decode(r)?,
            }),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

impl Encode for BlockHeader {
    fn encode(&self, out: &mut Vec<u8>) {
        self.parent.encode(out);
        self.height.encode(out);
        self.timestamp_us.encode(out);
        self.tx_root.encode(out);
        self.state_root.encode(out);
        self.proposer.encode(out);
        self.seal.encode(out);
    }
}

impl Decode for BlockHeader {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(BlockHeader {
            parent: Hash256::decode(r)?,
            height: u64::decode(r)?,
            timestamp_us: u64::decode(r)?,
            tx_root: Hash256::decode(r)?,
            state_root: Hash256::decode(r)?,
            proposer: Address::decode(r)?,
            seal: Seal::decode(r)?,
        })
    }
}

impl Encode for Block {
    fn encode(&self, out: &mut Vec<u8>) {
        self.header.encode(out);
        self.txs.encode(out);
    }
}

impl Decode for Block {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Block::from_parts(BlockHeader::decode(r)?, Vec::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::AccountTx;
    use dcs_crypto::codec::decode_all;

    fn tx(n: u64) -> Transaction {
        Transaction::Account(AccountTx::transfer(
            Address::from_index(n),
            Address::from_index(n + 1),
            n,
            0,
        ))
    }

    fn block(n_txs: u64) -> Block {
        Block::new(
            BlockHeader::new(Hash256::ZERO, 1, 1_000, Address::from_index(0), Seal::None),
            (0..n_txs).map(tx).collect(),
        )
    }

    #[test]
    fn new_commits_tx_root() {
        let b = block(3);
        assert!(b.verify_tx_root());
        assert_ne!(b.header.tx_root, Hash256::ZERO);
    }

    #[test]
    fn empty_block_has_zero_tx_root() {
        let b = block(0);
        assert!(b.verify_tx_root());
        assert_eq!(b.header.tx_root, Hash256::ZERO);
    }

    #[test]
    fn tampering_with_body_breaks_root() {
        // On a clone: a block from `Block::new` holds the ids it was rooted
        // over, and the clone starts cold.
        let mut b = block(3).clone();
        b.txs.push(tx(99));
        assert!(!b.verify_tx_root());
    }

    #[test]
    fn new_keeps_the_ids_it_hashed_for_the_root() {
        let b = block(5);
        let warm = b.ids.get().expect("seeded by Block::new");
        assert_eq!(&warm[..], &Transaction::batch_ids(&b.txs)[..]);
        assert_eq!(b.header.tx_root, Block::compute_tx_root(&b.txs));
        // `from_parts`, a clone and a decoded block stay cold.
        let cold = Block::from_parts(b.header.clone(), b.txs.clone());
        let decoded = decode_all::<Block>(&b.encoded()).unwrap();
        assert!(cold.ids.get().is_none() && b.clone().ids.get().is_none());
        assert!(decoded.ids.get().is_none());
        assert_eq!(cold.tx_ids(), b.tx_ids());
    }

    #[test]
    fn body_root_memo_is_not_part_of_the_block() {
        let b = block(5);
        // Warm from birth, and equal to what the header committed.
        assert_eq!(b.body_root.get(), Some(&b.header.tx_root));
        assert_eq!(b.header.tx_root, Block::compute_tx_root(&b.txs));
        // `from_parts`, a clone and a decoded block start cold, fill on the
        // first check and agree; equality ignores the memo.
        let cold = Block::from_parts(b.header.clone(), b.txs.clone());
        let decoded = decode_all::<Block>(&b.encoded()).unwrap();
        assert!(cold.body_root.get().is_none() && b.clone().body_root.get().is_none());
        assert!(decoded.body_root.get().is_none());
        assert!(cold.verify_tx_root() && decoded.verify_tx_root());
        assert_eq!(cold.body_root.get(), Some(&b.header.tx_root));
        assert_eq!((&cold, &decoded), (&b, &b));
        // The memo is the body's root, not the header's claim: a tampered
        // `header.tx_root` fails on a warm block and on a cold one.
        let mut forged = b.clone();
        forged.header.tx_root = sha256(b"not the root");
        assert!(!forged.verify_tx_root());
        let mut warm = block(5);
        warm.header.tx_root = sha256(b"not the root");
        assert!(!warm.verify_tx_root());
        // Two holders of one `Arc` share one rooting.
        let first = std::sync::Arc::new(cold.clone());
        let second = std::sync::Arc::clone(&first);
        assert!(second.body_root.get().is_none());
        assert!(first.verify_tx_root());
        assert_eq!(second.body_root.get(), Some(&b.header.tx_root));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "body mutated after rooting")]
    fn stale_body_root_memo_is_caught_in_debug_builds() {
        let mut b = block(2);
        b.txs.push(tx(79));
        b.verify_tx_root();
    }

    #[test]
    fn hash_changes_with_any_header_field() {
        let base = block(1);
        let h = base.hash();
        let mut b = base.clone();
        b.header.height += 1;
        assert_ne!(b.hash(), h);
        let mut b = base.clone();
        b.header.timestamp_us += 1;
        assert_ne!(b.hash(), h);
        let mut b = base.clone();
        b.header.parent = dcs_crypto::sha256(b"other");
        assert_ne!(b.hash(), h);
        let mut b = base.clone();
        b.header.seal = Seal::Work {
            nonce: 1,
            difficulty: 16,
        };
        assert_ne!(b.hash(), h);
    }

    #[test]
    fn hash_memo_is_not_part_of_the_block() {
        let b = block(2);
        let h = b.hash();
        assert_eq!(h, b.header.hash(), "the memo is the header hash");
        // Clone and decode start cold, and agree once asked.
        let cloned = b.clone();
        let decoded = decode_all::<Block>(&b.encoded()).unwrap();
        assert!(cloned.hash.get().is_none() && decoded.hash.get().is_none());
        assert_eq!((cloned.hash(), decoded.hash()), (h, h));
        // Equality ignores the memo: warm == cold.
        assert_eq!(b, block(2));
        // A clone's header may change; the original's memo is untouched.
        let mut edited = b.clone();
        edited.header.timestamp_us += 1;
        assert_ne!(edited.hash(), h);
        assert_eq!(b.hash(), h);
        // Two holders of one `Arc` share one value.
        let first = std::sync::Arc::new(block(3));
        let second = std::sync::Arc::clone(&first);
        assert!(second.hash.get().is_none());
        let h = first.hash();
        assert_eq!(second.hash.get(), Some(&h));
    }

    #[test]
    fn signing_hash_memo_is_not_part_of_the_block() {
        let b = block(3);
        let expected: Vec<Hash256> = b.txs.iter().map(Transaction::signing_hash).collect();
        assert!(
            b.signing.get().is_none(),
            "lazy: nothing hashed until asked"
        );
        assert_eq!(b.signing_hashes(), &expected[..]);
        // Clone and decode start cold; equality ignores the memo.
        let cloned = b.clone();
        let decoded = decode_all::<Block>(&b.encoded()).unwrap();
        assert!(cloned.signing.get().is_none() && decoded.signing.get().is_none());
        assert_eq!((&cloned, &decoded), (&b, &b));
        assert_eq!(decoded.signing_hashes(), &expected[..]);
        // A clone's body may change; the original's memo is untouched.
        let mut edited = cloned;
        edited.txs[0] = tx(77);
        assert_eq!(edited.signing_hashes()[0], tx(77).signing_hash());
        assert_eq!(b.signing_hashes(), &expected[..]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "body mutated after hashing")]
    fn stale_signing_hash_memo_is_caught_in_debug_builds() {
        let mut b = block(2);
        b.signing_hashes();
        b.txs[1] = tx(78);
        b.signing_hashes();
    }

    #[test]
    fn seal_work_is_difficulty() {
        let mk = |d| {
            BlockHeader::new(
                Hash256::ZERO,
                0,
                0,
                Address::ZERO,
                Seal::Work {
                    nonce: 0,
                    difficulty: d,
                },
            )
        };
        assert_eq!(mk(1024).work(), 1024);
        assert_eq!(mk(0).work(), 1, "difficulty 0 clamps to 1");
        let plain = BlockHeader::new(Hash256::ZERO, 0, 0, Address::ZERO, Seal::None);
        assert_eq!(plain.work(), 1);
    }

    #[test]
    fn pow_target_check() {
        // Difficulty 1 accepts any hash; a huge difficulty essentially never.
        let easy = BlockHeader::new(
            Hash256::ZERO,
            0,
            0,
            Address::ZERO,
            Seal::Work {
                nonce: 5,
                difficulty: 1,
            },
        );
        assert!(easy.meets_pow_target());
        let hard = BlockHeader::new(
            Hash256::ZERO,
            0,
            0,
            Address::ZERO,
            Seal::Work {
                nonce: 5,
                difficulty: u64::MAX,
            },
        );
        assert!(!hard.meets_pow_target());
        let none = BlockHeader::new(Hash256::ZERO, 0, 0, Address::ZERO, Seal::None);
        assert!(none.meets_pow_target());
    }

    #[test]
    fn codec_round_trips_all_seals() {
        let seals = vec![
            Seal::None,
            Seal::Work {
                nonce: 42,
                difficulty: 1 << 20,
            },
            Seal::Stake {
                slot: 7,
                proof: dcs_crypto::sha256(b"p"),
            },
            Seal::ElapsedTime { wait_us: 123_456 },
            Seal::Authority {
                view: 2,
                sequence: 19,
                votes: 7,
            },
            Seal::Micro {
                key_block: dcs_crypto::sha256(b"k"),
                sequence: 3,
            },
        ];
        for seal in seals {
            let mut b = block(2);
            b.header.seal = seal;
            let decoded = decode_all::<Block>(&b.encoded()).unwrap();
            assert_eq!(decoded, b);
            assert_eq!(decoded.hash(), b.hash());
        }
    }

    #[test]
    fn offered_fees_sum_over_account_txs() {
        let b = block(3);
        assert_eq!(b.offered_fees(), 3 * 21_000);
    }
}
