//! Transactions in both ledger models the paper's generations require:
//! UTXO exchanges of digital assets (1.0) and account-based transactions
//! carrying contract payloads (2.0/3.0).
//!
//! Every transaction has two digests:
//!
//! * [`Transaction::signing_hash`] — over the transaction *without* witness
//!   data (signatures, public keys); this is what gets signed.
//! * [`Transaction::id`] — over the complete encoding; this is the identifier
//!   committed in the block's Merkle root.
//!
//! Both methods hash from scratch on every call. The paths that ask per peer
//! read the copies that travel with the bytes instead: a [`SealedTx`] on the
//! gossip fabric, [`crate::Block::tx_ids`] and
//! [`crate::Block::signing_hashes`] on a block.

use crate::Amount;
use dcs_crypto::codec::{Decode, DecodeError, Encode, Reader};
use dcs_crypto::{sha256, Address, Hash256, MultiHasher, PublicKey, Signature};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A reference to a previous transaction output, plus the witness
/// authorizing its spend.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxIn {
    /// Id of the transaction that created the output being spent.
    pub prev_tx: Hash256,
    /// Index of the output within that transaction.
    pub index: u32,
    /// Witness proving authority to spend; `None` in unsigned simulations.
    pub auth: Option<TxAuth>,
}

/// A newly created output: `value` tokens spendable by `recipient`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxOut {
    /// Amount carried by this output.
    pub value: Amount,
    /// Address allowed to spend this output.
    pub recipient: Address,
}

/// Witness data: the signer's public key and a signature over the
/// transaction's [`Transaction::signing_hash`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxAuth {
    /// Public key whose address must match the spending authority.
    pub pubkey: PublicKey,
    /// Signature over the signing hash.
    pub signature: Signature,
}

/// A UTXO-model transaction (generation 1.0): consumes inputs, creates
/// outputs; the difference is the fee collected by the miner.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UtxoTx {
    /// Outputs being spent.
    pub inputs: Vec<TxIn>,
    /// Outputs being created.
    pub outputs: Vec<TxOut>,
}

impl UtxoTx {
    /// Total value created by the outputs.
    pub fn output_value(&self) -> Amount {
        self.outputs.iter().map(|o| o.value).sum()
    }
}

/// The action an account-model transaction performs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxPayload {
    /// Plain value transfer to `AccountTx::to`.
    Transfer,
    /// Deploy contract bytecode; the contract address is derived from the
    /// sender and nonce.
    Deploy(Vec<u8>),
    /// Call the contract at `AccountTx::to` with this input data.
    Call(Vec<u8>),
    /// Anchor opaque data on-chain (the "notary" pattern of Fig. 3).
    Data(Vec<u8>),
}

/// An account-model transaction (generations 2.0/3.0): sender, recipient,
/// value, nonce for replay protection, and a gas budget for execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccountTx {
    /// Sender account.
    pub from: Address,
    /// Recipient account or contract; `None` when deploying.
    pub to: Option<Address>,
    /// Value transferred alongside the payload.
    pub value: Amount,
    /// Sender's transaction counter; must equal the account nonce.
    pub nonce: u64,
    /// Maximum gas the sender will pay for.
    pub gas_limit: Amount,
    /// Price per unit of gas, paid to the block proposer (the paper's §2.5
    /// "cost ... is paid to the miner in a form known as gas").
    pub gas_price: Amount,
    /// What the transaction does.
    pub payload: TxPayload,
    /// Witness; `None` in unsigned simulations.
    pub auth: Option<TxAuth>,
}

impl AccountTx {
    /// Convenience constructor for a plain transfer with default gas terms.
    pub fn transfer(from: Address, to: Address, value: Amount, nonce: u64) -> Self {
        AccountTx {
            from,
            to: Some(to),
            value,
            nonce,
            gas_limit: 21_000,
            gas_price: 1,
            payload: TxPayload::Transfer,
            auth: None,
        }
    }

    /// Convenience constructor for a contract deployment.
    pub fn deploy(from: Address, code: Vec<u8>, nonce: u64, gas_limit: Amount) -> Self {
        AccountTx {
            from,
            to: None,
            value: 0,
            nonce,
            gas_limit,
            gas_price: 1,
            payload: TxPayload::Deploy(code),
            auth: None,
        }
    }

    /// Convenience constructor for a contract call.
    pub fn call(
        from: Address,
        contract: Address,
        input: Vec<u8>,
        value: Amount,
        nonce: u64,
        gas_limit: Amount,
    ) -> Self {
        AccountTx {
            from,
            to: Some(contract),
            value,
            nonce,
            gas_limit,
            gas_price: 1,
            payload: TxPayload::Call(input),
            auth: None,
        }
    }

    /// The address a `Deploy` payload creates: `H(sender || nonce)[..20]`.
    pub fn contract_address(&self) -> Address {
        let mut bytes = self.from.as_bytes().to_vec();
        bytes.extend_from_slice(&self.nonce.to_le_bytes());
        Address::from_hash(&sha256(&bytes))
    }
}

/// Any transaction the ledger can carry.
// The account variant holds its optional witness inline, and a `Signature`
// carries its lookup memos with it (344 bytes against 48 for a UTXO body).
// Boxing the memo instead was measured: a warm cache lookup doubles
// (0.08 → 0.16 µs) for the pointer chase.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Transaction {
    /// Block reward + fees minted to the proposer (§2.4's incentive system).
    Coinbase {
        /// Receiving the reward.
        to: Address,
        /// Reward plus collected fees.
        value: Amount,
        /// Block height, making each coinbase unique.
        height: u64,
    },
    /// A generation-1.0 UTXO transaction.
    Utxo(UtxoTx),
    /// A generation-2.0/3.0 account transaction.
    Account(AccountTx),
}

impl Transaction {
    /// The unique identifier committed in the block Merkle root.
    pub fn id(&self) -> Hash256 {
        sha256(&self.encoded())
    }

    /// Digest that witnesses must sign: the transaction with all witness
    /// fields stripped, so the signature does not sign itself.
    ///
    /// Encodes the stripped form directly — the bytes [`Encode`] produces
    /// with every `auth` set to `None` — rather than blanking a clone of the
    /// whole transaction, witness and deploy code included.
    pub fn signing_hash(&self) -> Hash256 {
        const NO_AUTH: Option<TxAuth> = None;
        let mut out = Vec::new();
        match self {
            Transaction::Coinbase { .. } => self.encode(&mut out),
            Transaction::Utxo(tx) => {
                out.push(1);
                (tx.inputs.len() as u32).encode(&mut out); // `Vec` framing
                for input in &tx.inputs {
                    input.prev_tx.encode(&mut out);
                    input.index.encode(&mut out);
                    NO_AUTH.encode(&mut out);
                }
                tx.outputs.encode(&mut out);
            }
            Transaction::Account(tx) => {
                out.push(2);
                tx.encode_unsigned(&mut out);
                NO_AUTH.encode(&mut out);
            }
        }
        sha256(&out)
    }

    /// Whether any witness is attached (an account `auth`, or one on any
    /// UTXO input).
    pub fn has_witness(&self) -> bool {
        match self {
            Transaction::Coinbase { .. } => false,
            Transaction::Utxo(tx) => tx.inputs.iter().any(|input| input.auth.is_some()),
            Transaction::Account(tx) => tx.auth.is_some(),
        }
    }

    /// Encoded size in bytes; drives bandwidth accounting in the network
    /// simulator.
    pub fn encoded_len(&self) -> usize {
        self.encoded().len()
    }

    /// Fee offered by this transaction (max gas cost for account txs; for
    /// UTXO txs the fee is input value minus output value, known only with
    /// state access, so this returns the declared gas budget instead).
    pub fn offered_fee(&self) -> Amount {
        match self {
            Transaction::Coinbase { .. } => 0,
            Transaction::Utxo(_) => 0,
            Transaction::Account(tx) => tx.gas_limit.saturating_mul(tx.gas_price),
        }
    }

    /// Ids of many transactions at once, computed with the multi-lane hasher.
    ///
    /// Bit-identical to mapping [`Transaction::id`] but hashes the encodings
    /// 8 digests at a time, which is how every batch consumer (Merkle roots,
    /// block verification, inclusion tracking) should compute ids.
    pub fn batch_ids(txs: &[Transaction]) -> Vec<Hash256> {
        let encoded: Vec<Vec<u8>> = txs
            .iter()
            .map(|tx| {
                let mut buf = Vec::new();
                tx.encode(&mut buf);
                buf
            })
            .collect();
        let refs: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        MultiHasher::wide().hash_many(&refs)
    }
}

/// A transaction bundled with its content id and — when it carries a
/// witness — its signing hash, each computed exactly once.
///
/// [`Transaction::id`] and [`Transaction::signing_hash`] re-encode and
/// re-hash on every call; on the gossip path that cost used to be paid per
/// *delivery* (every peer, every duplicate hop) and per *admission* (every
/// peer's pool). A `SealedTx` carries both alongside the shared transaction
/// body, the in-memory analogue of computing them at decode time: the first
/// owner pays, every later hop, table lookup and admission check reuses them.
/// The signing hash is always derived from the body the value holds — no
/// constructor accepts one from outside — so it cannot describe another body.
#[derive(Debug, Clone)]
pub struct SealedTx {
    tx: Arc<Transaction>,
    id: Hash256,
    signing_hash: Option<Hash256>,
}

impl SealedTx {
    /// Seals `tx`, computing its id and, if it has a witness, its signing
    /// hash.
    pub fn new(tx: Arc<Transaction>) -> Self {
        let id = tx.id();
        SealedTx::seal(tx, id)
    }

    /// Seals `tx` with an id the caller already computed (e.g. from a batch
    /// [`Transaction::batch_ids`] pass). Debug builds verify the pairing.
    pub fn from_parts(tx: Arc<Transaction>, id: Hash256) -> Self {
        debug_assert_eq!(id, tx.id(), "sealed id must match the body");
        SealedTx::seal(tx, id)
    }

    fn seal(tx: Arc<Transaction>, id: Hash256) -> Self {
        let signing_hash = tx.has_witness().then(|| tx.signing_hash());
        SealedTx {
            tx,
            id,
            signing_hash,
        }
    }

    /// The cached content id ([`Transaction::id`]).
    pub fn id(&self) -> Hash256 {
        self.id
    }

    /// The cached [`Transaction::signing_hash`] — `None` for a body without
    /// a witness, which has nothing to verify and is never hashed for it.
    pub fn signing_hash(&self) -> Option<Hash256> {
        self.signing_hash
    }

    /// The shared transaction body.
    pub fn tx(&self) -> &Arc<Transaction> {
        &self.tx
    }

    /// Unwraps into the shared transaction body.
    pub fn into_tx(self) -> Arc<Transaction> {
        self.tx
    }
}

impl std::ops::Deref for SealedTx {
    type Target = Transaction;

    fn deref(&self) -> &Transaction {
        &self.tx
    }
}

impl Encode for TxAuth {
    fn encode(&self, out: &mut Vec<u8>) {
        self.pubkey.encode(out);
        self.signature.encode(out);
    }
}

impl Decode for TxAuth {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(TxAuth {
            pubkey: PublicKey::decode(r)?,
            signature: Signature::decode(r)?,
        })
    }
}

impl Encode for TxIn {
    fn encode(&self, out: &mut Vec<u8>) {
        self.prev_tx.encode(out);
        self.index.encode(out);
        self.auth.encode(out);
    }
}

impl Decode for TxIn {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(TxIn {
            prev_tx: Hash256::decode(r)?,
            index: u32::decode(r)?,
            auth: Option::decode(r)?,
        })
    }
}

impl Encode for TxOut {
    fn encode(&self, out: &mut Vec<u8>) {
        self.value.encode(out);
        self.recipient.encode(out);
    }
}

impl Decode for TxOut {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(TxOut {
            value: Amount::decode(r)?,
            recipient: Address::decode(r)?,
        })
    }
}

impl Encode for UtxoTx {
    fn encode(&self, out: &mut Vec<u8>) {
        self.inputs.encode(out);
        self.outputs.encode(out);
    }
}

impl Decode for UtxoTx {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(UtxoTx {
            inputs: Vec::decode(r)?,
            outputs: Vec::decode(r)?,
        })
    }
}

impl Encode for TxPayload {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TxPayload::Transfer => out.push(0),
            TxPayload::Deploy(code) => {
                out.push(1);
                code.encode(out);
            }
            TxPayload::Call(input) => {
                out.push(2);
                input.encode(out);
            }
            TxPayload::Data(data) => {
                out.push(3);
                data.encode(out);
            }
        }
    }
}

impl Decode for TxPayload {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(TxPayload::Transfer),
            1 => Ok(TxPayload::Deploy(Vec::decode(r)?)),
            2 => Ok(TxPayload::Call(Vec::decode(r)?)),
            3 => Ok(TxPayload::Data(Vec::decode(r)?)),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

impl AccountTx {
    /// Every field but the witness, in codec order.
    fn encode_unsigned(&self, out: &mut Vec<u8>) {
        self.from.encode(out);
        self.to.encode(out);
        self.value.encode(out);
        self.nonce.encode(out);
        self.gas_limit.encode(out);
        self.gas_price.encode(out);
        self.payload.encode(out);
    }
}

impl Encode for AccountTx {
    fn encode(&self, out: &mut Vec<u8>) {
        self.encode_unsigned(out);
        self.auth.encode(out);
    }
}

impl Decode for AccountTx {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(AccountTx {
            from: Address::decode(r)?,
            to: Option::decode(r)?,
            value: Amount::decode(r)?,
            nonce: u64::decode(r)?,
            gas_limit: Amount::decode(r)?,
            gas_price: Amount::decode(r)?,
            payload: TxPayload::decode(r)?,
            auth: Option::decode(r)?,
        })
    }
}

impl Encode for Transaction {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Transaction::Coinbase { to, value, height } => {
                out.push(0);
                to.encode(out);
                value.encode(out);
                height.encode(out);
            }
            Transaction::Utxo(tx) => {
                out.push(1);
                tx.encode(out);
            }
            Transaction::Account(tx) => {
                out.push(2);
                tx.encode(out);
            }
        }
    }
}

impl Decode for Transaction {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(Transaction::Coinbase {
                to: Address::decode(r)?,
                value: Amount::decode(r)?,
                height: u64::decode(r)?,
            }),
            1 => Ok(Transaction::Utxo(UtxoTx::decode(r)?)),
            2 => Ok(Transaction::Account(AccountTx::decode(r)?)),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_crypto::codec::decode_all;
    use dcs_crypto::KeyPair;

    fn sample_account_tx() -> Transaction {
        Transaction::Account(AccountTx::transfer(
            Address::from_index(1),
            Address::from_index(2),
            100,
            7,
        ))
    }

    #[test]
    fn ids_are_stable_and_distinct() {
        let a = sample_account_tx();
        let b = Transaction::Account(AccountTx::transfer(
            Address::from_index(1),
            Address::from_index(2),
            101,
            7,
        ));
        assert_eq!(a.id(), a.id());
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn coinbase_unique_per_height() {
        let c1 = Transaction::Coinbase {
            to: Address::from_index(1),
            value: 50,
            height: 1,
        };
        let c2 = Transaction::Coinbase {
            to: Address::from_index(1),
            value: 50,
            height: 2,
        };
        assert_ne!(c1.id(), c2.id());
    }

    #[test]
    fn codec_round_trips_all_variants() {
        let txs = vec![
            Transaction::Coinbase {
                to: Address::from_index(3),
                value: 50,
                height: 9,
            },
            Transaction::Utxo(UtxoTx {
                inputs: vec![TxIn {
                    prev_tx: sha256(b"prev"),
                    index: 1,
                    auth: None,
                }],
                outputs: vec![TxOut {
                    value: 10,
                    recipient: Address::from_index(4),
                }],
            }),
            sample_account_tx(),
            Transaction::Account(AccountTx::deploy(
                Address::from_index(5),
                vec![1, 2, 3],
                0,
                90_000,
            )),
            Transaction::Account(AccountTx::call(
                Address::from_index(5),
                Address::from_index(6),
                vec![9, 9],
                1,
                1,
                50_000,
            )),
            Transaction::Account(AccountTx {
                payload: TxPayload::Data(b"notarized document hash".to_vec()),
                ..AccountTx::transfer(Address::from_index(7), Address::from_index(8), 0, 0)
            }),
        ];
        for tx in txs {
            let decoded = decode_all::<Transaction>(&tx.encoded()).unwrap();
            assert_eq!(decoded, tx);
        }
    }

    #[test]
    fn signing_hash_excludes_witness() {
        let mut kp = KeyPair::generate([3u8; 32], 2);
        let mut tx = AccountTx::transfer(kp.address(), Address::from_index(2), 5, 0);
        let unsigned = Transaction::Account(tx.clone());
        let h = unsigned.signing_hash();
        let sig = kp.sign(&h).unwrap();
        tx.auth = Some(TxAuth {
            pubkey: kp.public_key(),
            signature: sig,
        });
        let signed = Transaction::Account(tx);
        // Signing hash is identical before and after attaching the witness...
        assert_eq!(signed.signing_hash(), h);
        // ...but the id (Merkle leaf) covers the witness.
        assert_ne!(signed.id(), unsigned.id());
        // And the witness verifies.
        if let Transaction::Account(tx) = &signed {
            let auth = tx.auth.as_ref().unwrap();
            assert!(auth.pubkey.verify(&h, &auth.signature));
            assert_eq!(auth.pubkey.address(), tx.from);
        }
    }

    /// A `SealedTx` is cloned per gossip hop and sits in every queued event
    /// and pool entry: 8 (`Arc`) + 32 (id) + 33 (optional signing hash),
    /// padded. Growing it is a measured decision (CHANGES.md, issue 20).
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn sealed_tx_stays_within_80_bytes() {
        assert!(std::mem::size_of::<SealedTx>() <= 80);
    }

    #[test]
    fn contract_address_depends_on_sender_and_nonce() {
        let d1 = AccountTx::deploy(Address::from_index(1), vec![], 0, 1000);
        let d2 = AccountTx::deploy(Address::from_index(1), vec![], 1, 1000);
        let d3 = AccountTx::deploy(Address::from_index(2), vec![], 0, 1000);
        assert_ne!(d1.contract_address(), d2.contract_address());
        assert_ne!(d1.contract_address(), d3.contract_address());
        // Code does not change the address (CREATE semantics).
        let d4 = AccountTx::deploy(Address::from_index(1), vec![1], 0, 1000);
        assert_eq!(d1.contract_address(), d4.contract_address());
    }

    #[test]
    fn offered_fee() {
        let tx = sample_account_tx();
        assert_eq!(tx.offered_fee(), 21_000);
        let cb = Transaction::Coinbase {
            to: Address::ZERO,
            value: 1,
            height: 0,
        };
        assert_eq!(cb.offered_fee(), 0);
    }

    #[test]
    fn utxo_output_value_sums() {
        let tx = UtxoTx {
            inputs: vec![],
            outputs: vec![
                TxOut {
                    value: 3,
                    recipient: Address::from_index(1),
                },
                TxOut {
                    value: 4,
                    recipient: Address::from_index(2),
                },
            ],
        };
        assert_eq!(tx.output_value(), 7);
    }
}
