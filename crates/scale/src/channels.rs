//! Off-chain payment channels (§5.4, \[30\] — the Lightning network): two
//! parties lock funds on-chain once, then exchange dual-signed balance
//! updates off-chain at arbitrary rate, settling on-chain only at close.
//! Multi-hop payments route through the channel graph with HTLCs, so
//! parties without a direct channel still pay each other with **zero**
//! on-chain transactions — the offloading experiment E8 measures.
//!
//! Three pieces, each existing once: [`PaymentChannel`], the per-channel
//! state machine the base ledger hosts; [`Settlement`], the base-ledger
//! side of all channels (escrow, dispute clock, counters), changed only by
//! applying a [`ChannelOp`]; and [`PartyBook`], the off-chain side (keys,
//! latest dual-signed states, payments, routing, and the builders of the
//! ops). [`ChannelNetwork`] composes book and settlement in one process;
//! `dcs_middleware::ChannelApp` puts the same settlement behind the op
//! codec on a real chain, driven by the same book.
//!
//! Disputes use the standard scheme: a unilateral close publishes a
//! dual-signed state and opens a dispute window during which anyone holding
//! a *newer* dual-signed state may publish it, and the newer one wins. A
//! cooperative close carries the final state co-signed over a close-tagged
//! digest, so an old dual-signed *update* cannot be replayed as a close.

use dcs_crypto::codec::{decode_all, Decode, DecodeError, Encode, Reader};
use dcs_crypto::{sha256, Address, Hash256, KeyPair, PublicKey, Signature};
use dcs_primitives::{AccountTx, Amount, Transaction, TxPayload};
use dcs_state::AccountDb;
use std::collections::BTreeMap;

/// A channel state: the `seq`-th balance split of the channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelState {
    /// The channel this state belongs to.
    pub channel_id: u64,
    /// Monotonic sequence number; higher wins disputes.
    pub seq: u64,
    /// Balance of the `a` side.
    pub balance_a: Amount,
    /// Balance of the `b` side.
    pub balance_b: Amount,
}

impl ChannelState {
    /// The digest both parties sign to accept this state as an update.
    pub fn digest(&self) -> Hash256 {
        sha256(&self.encoded())
    }

    /// The digest both parties sign to close cooperatively at this state.
    pub fn close_digest(&self) -> Hash256 {
        let mut bytes = b"coop-close".to_vec();
        bytes.extend_from_slice(self.digest().as_bytes());
        sha256(&bytes)
    }
}

impl Encode for ChannelState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.channel_id.encode(out);
        self.seq.encode(out);
        self.balance_a.encode(out);
        self.balance_b.encode(out);
    }
}

/// A state with `a`'s and `b`'s signatures over one of its two digests.
pub type SignedState = (ChannelState, Signature, Signature);

/// Errors from channel operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelError {
    /// A signature over the state failed verification.
    BadSignature,
    /// State rejected (stale seq, balance mismatch, underfunded, …).
    BadState(String),
    /// The channel is not in the phase required for this operation.
    WrongPhase,
    /// Routing failed: no path with enough capacity.
    NoRoute,
    /// Unknown party or channel.
    Unknown,
    /// Signing failed (one-time keys exhausted).
    Crypto(dcs_crypto::CryptoError),
}

impl core::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChannelError::BadSignature => write!(f, "bad state signature"),
            ChannelError::BadState(m) => write!(f, "bad state: {m}"),
            ChannelError::WrongPhase => write!(f, "operation invalid in this channel phase"),
            ChannelError::NoRoute => write!(f, "no route with sufficient capacity"),
            ChannelError::Unknown => write!(f, "unknown party or channel"),
            ChannelError::Crypto(e) => write!(f, "crypto failure: {e}"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// Channel lifecycle phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Phase {
    /// Funds locked, updates flowing.
    Open,
    /// A unilateral close was published; the dispute window is running.
    Disputed {
        /// The published state (so far winning).
        state: ChannelState,
        /// Ledger height at which the window closes.
        deadline: u64,
    },
    /// Settled on-chain.
    Closed,
}

/// A two-party payment channel as the base ledger hosts it.
#[derive(Debug)]
pub struct PaymentChannel {
    /// Channel id.
    pub id: u64,
    /// The `a` party's address.
    pub a: Address,
    /// The `b` party's address.
    pub b: Address,
    key_a: PublicKey,
    key_b: PublicKey,
    /// The funding split while the channel is live — updates stay with the
    /// parties — and the split that was paid out once it is closed.
    pub state: ChannelState,
    /// Lifecycle phase.
    pub phase: Phase,
}

impl PaymentChannel {
    /// A freshly opened channel between the holders of the two keys (whose
    /// accounts are the keys' addresses), with the given funding split.
    pub fn open(
        id: u64,
        key_a: PublicKey,
        key_b: PublicKey,
        fund_a: Amount,
        fund_b: Amount,
    ) -> Self {
        PaymentChannel {
            id,
            a: key_a.address(),
            b: key_b.address(),
            key_a,
            key_b,
            state: ChannelState {
                channel_id: id,
                seq: 0,
                balance_a: fund_a,
                balance_b: fund_b,
            },
            phase: Phase::Open,
        }
    }

    /// Total locked capacity.
    pub fn capacity(&self) -> Amount {
        self.state.balance_a + self.state.balance_b
    }

    /// Verifies both signatures over `digest` (the update or the close
    /// digest of the state) and the state against this channel's id and
    /// capacity.
    fn check(&self, digest: Hash256, signed: &SignedState) -> Result<(), ChannelError> {
        let (state, sig_a, sig_b) = signed;
        if !self.key_a.verify(&digest, sig_a) || !self.key_b.verify(&digest, sig_b) {
            return Err(ChannelError::BadSignature);
        }
        if state.channel_id != self.id
            || state.balance_a.checked_add(state.balance_b) != Some(self.capacity())
        {
            return Err(ChannelError::BadState("invalid published state".into()));
        }
        Ok(())
    }

    fn close_at(&mut self, state: ChannelState) -> (Amount, Amount) {
        self.phase = Phase::Closed;
        self.state = state;
        (self.state.balance_a, self.state.balance_b)
    }

    /// Cooperative close at a state both parties signed over its
    /// [`ChannelState::close_digest`]. Returns the final `(a, b)` payout.
    ///
    /// # Errors
    ///
    /// Signature, state, or phase errors.
    pub fn settle_cooperative(
        &mut self,
        signed: SignedState,
    ) -> Result<(Amount, Amount), ChannelError> {
        if self.phase != Phase::Open {
            return Err(ChannelError::WrongPhase);
        }
        self.check(signed.0.close_digest(), &signed)?;
        Ok(self.close_at(signed.0))
    }

    /// Unilateral close: publishes a dual-signed state and opens the
    /// dispute window until `deadline` (a ledger height).
    ///
    /// # Errors
    ///
    /// Signature, state, or phase errors.
    pub fn publish_close(
        &mut self,
        signed: SignedState,
        deadline: u64,
    ) -> Result<(), ChannelError> {
        if self.phase != Phase::Open {
            return Err(ChannelError::WrongPhase);
        }
        self.check(signed.0.digest(), &signed)?;
        self.phase = Phase::Disputed {
            state: signed.0,
            deadline,
        };
        Ok(())
    }

    /// Challenges a disputed close with a strictly newer dual-signed state,
    /// at ledger height `height`.
    ///
    /// # Errors
    ///
    /// Not newer, window expired, or signature errors.
    pub fn challenge_close(&mut self, newer: SignedState, height: u64) -> Result<(), ChannelError> {
        let Phase::Disputed { state, deadline } = &self.phase else {
            return Err(ChannelError::WrongPhase);
        };
        let deadline = *deadline;
        if height > deadline {
            return Err(ChannelError::BadState("dispute window expired".into()));
        }
        if newer.0.seq <= state.seq {
            return Err(ChannelError::BadState("challenge is not newer".into()));
        }
        self.check(newer.0.digest(), &newer)?;
        self.phase = Phase::Disputed {
            state: newer.0,
            deadline,
        };
        Ok(())
    }

    /// Finalizes a disputed close once its window has passed `height`.
    /// Returns the winning `(a, b)` payout.
    ///
    /// # Errors
    ///
    /// Window still open or wrong phase.
    pub fn finalize(&mut self, height: u64) -> Result<(Amount, Amount), ChannelError> {
        let Phase::Disputed { state, deadline } = &self.phase else {
            return Err(ChannelError::WrongPhase);
        };
        if height <= *deadline {
            return Err(ChannelError::BadState("dispute window still open".into()));
        }
        Ok(self.close_at(state.clone()))
    }
}

/// The on-chain operations of the channel protocol, carried as
/// [`TxPayload::Data`] on transactions addressed to
/// [`ChannelOp::app_address`]. A signed op names its channel through its
/// state's `channel_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelOp {
    /// Open a channel: escrow `fund_a` + `fund_b` from the two parties,
    /// whose accounts are the addresses of their keys.
    Open {
        /// Caller-chosen channel id (must be unused).
        id: u64,
        /// `a`'s state-verification key.
        key_a: PublicKey,
        /// `b`'s state-verification key.
        key_b: PublicKey,
        /// `a`'s escrowed funding.
        fund_a: Amount,
        /// `b`'s escrowed funding.
        fund_b: Amount,
    },
    /// Both parties settle this state, which they signed over its
    /// [`ChannelState::close_digest`].
    CoopClose(SignedState),
    /// One party publishes a dual-signed state, starting the dispute window.
    UniClose(SignedState),
    /// A watchtower (or the counterparty) answers a unilateral close with a
    /// strictly newer dual-signed state.
    Challenge(SignedState),
    /// Settle a disputed close once its window has passed.
    Finalize {
        /// The channel to settle.
        id: u64,
    },
}

const OP_OPEN: u8 = 1;
const OP_COOP_CLOSE: u8 = 2;
const OP_UNI_CLOSE: u8 = 3;
const OP_CHALLENGE: u8 = 4;
const OP_FINALIZE: u8 = 5;

impl Encode for ChannelOp {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            ChannelOp::Open { .. } => OP_OPEN,
            ChannelOp::CoopClose(_) => OP_COOP_CLOSE,
            ChannelOp::UniClose(_) => OP_UNI_CLOSE,
            ChannelOp::Challenge(_) => OP_CHALLENGE,
            ChannelOp::Finalize { .. } => OP_FINALIZE,
        });
        match self {
            ChannelOp::Open {
                id,
                key_a,
                key_b,
                fund_a,
                fund_b,
            } => {
                id.encode(out);
                key_a.encode(out);
                key_b.encode(out);
                fund_a.encode(out);
                fund_b.encode(out);
            }
            ChannelOp::CoopClose((state, sig_a, sig_b))
            | ChannelOp::UniClose((state, sig_a, sig_b))
            | ChannelOp::Challenge((state, sig_a, sig_b)) => {
                state.encode(out);
                sig_a.encode(out);
                sig_b.encode(out);
            }
            ChannelOp::Finalize { id } => id.encode(out),
        }
    }
}

impl Decode for ChannelOp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        fn signed(r: &mut Reader<'_>) -> Result<SignedState, DecodeError> {
            let state = ChannelState {
                channel_id: u64::decode(r)?,
                seq: u64::decode(r)?,
                balance_a: u64::decode(r)?,
                balance_b: u64::decode(r)?,
            };
            Ok((state, Signature::decode(r)?, Signature::decode(r)?))
        }
        match r.take_array::<1>()?[0] {
            OP_OPEN => Ok(ChannelOp::Open {
                id: u64::decode(r)?,
                key_a: PublicKey::decode(r)?,
                key_b: PublicKey::decode(r)?,
                fund_a: u64::decode(r)?,
                fund_b: u64::decode(r)?,
            }),
            OP_COOP_CLOSE => Ok(ChannelOp::CoopClose(signed(r)?)),
            OP_UNI_CLOSE => Ok(ChannelOp::UniClose(signed(r)?)),
            OP_CHALLENGE => Ok(ChannelOp::Challenge(signed(r)?)),
            OP_FINALIZE => Ok(ChannelOp::Finalize {
                id: u64::decode(r)?,
            }),
            other => Err(DecodeError::BadTag(other)),
        }
    }
}

impl ChannelOp {
    /// The channel this op opens, closes or disputes.
    pub fn channel_id(&self) -> u64 {
        match self {
            ChannelOp::Open { id, .. } | ChannelOp::Finalize { id } => *id,
            ChannelOp::CoopClose(signed)
            | ChannelOp::UniClose(signed)
            | ChannelOp::Challenge(signed) => signed.0.channel_id,
        }
    }

    /// The well-known address channel operations are sent to.
    pub fn app_address() -> Address {
        Address::from_hash(&sha256(b"middleware-channel-app"))
    }

    /// Wraps this op into a transaction addressed to the channel
    /// application. `nonce` is the submitting client's account nonce (the
    /// settlement does not check nonces; the mempool/dedup layer does).
    pub fn into_tx(self, from: Address, nonce: u64) -> Transaction {
        let mut tx = AccountTx::transfer(from, Self::app_address(), 0, nonce);
        tx.gas_limit = 0;
        tx.gas_price = 0;
        tx.payload = TxPayload::Data(self.encoded());
        Transaction::Account(tx)
    }

    /// The op a transaction carries: `None` unless it is addressed to
    /// [`ChannelOp::app_address`], else its decoded `Data` payload.
    pub fn from_tx(tx: &Transaction) -> Option<Result<ChannelOp, DecodeError>> {
        match tx {
            Transaction::Account(acct) if acct.to == Some(Self::app_address()) => {
                Some(match &acct.payload {
                    TxPayload::Data(bytes) => decode_all::<ChannelOp>(bytes),
                    _ => Err(DecodeError::UnexpectedEnd),
                })
            }
            _ => None,
        }
    }
}

/// Per-op counters of a [`Settlement`] (the channel-workload measurands).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SettlementStats {
    /// Channels opened.
    pub opens: u64,
    /// Cooperative closes settled.
    pub coop_closes: u64,
    /// Unilateral closes published.
    pub uni_closes: u64,
    /// Challenges accepted (a newer state displaced a published one).
    pub challenges: u64,
    /// Disputed closes settled after their window.
    pub finalized: u64,
    /// Operations rejected (bad signature, wrong phase, underfunded, …).
    pub rejected: u64,
}

/// The base-ledger side of the channel protocol — the "contract": it
/// escrows funds at open, runs dispute windows in ledger heights, and pays
/// out the agreed or winning state at close.
#[derive(Debug, Default)]
pub struct Settlement {
    genesis: Vec<(Address, Amount)>,
    ledger: AccountDb,
    // BTreeMap: channel iteration feeds `state_hash`, which must not
    // depend on hash order (the determinism sweep).
    channels: BTreeMap<u64, PaymentChannel>,
    height: u64,
    dispute_window: u64,
    /// Op counters.
    pub stats: SettlementStats,
}

impl Settlement {
    /// A settlement with pre-funded party accounts and the given dispute
    /// window (in ledger heights).
    pub fn new(dispute_window: u64, alloc: &[(Address, Amount)]) -> Self {
        let mut settlement = Settlement {
            dispute_window,
            ..Settlement::default()
        };
        for (addr, amount) in alloc {
            settlement.fund(addr, *amount);
        }
        settlement
    }

    /// Adds on-chain funds to an account (genesis allocation).
    pub fn fund(&mut self, addr: &Address, amount: Amount) {
        self.genesis.push((*addr, amount));
        self.ledger.credit(addr, amount);
    }

    /// Back to the genesis allocation: no channels, height 0, counters 0.
    pub fn reset(&mut self) {
        *self = Settlement::new(self.dispute_window, &self.genesis);
    }

    /// On-chain balance of an account (what is not escrowed in a channel).
    pub fn balance(&self, addr: &Address) -> Amount {
        self.ledger.balance(addr)
    }

    /// A hosted channel, if it exists.
    pub fn channel(&self, id: u64) -> Option<&PaymentChannel> {
        self.channels.get(&id)
    }

    /// Number of channels ever opened.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// The ledger height the dispute clock reads.
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Moves the dispute clock to `height` (it never runs backwards).
    pub fn observe_height(&mut self, height: u64) {
        self.height = self.height.max(height);
    }

    /// Applies one operation atomically: on `Err` nothing changed but
    /// `stats.rejected`.
    ///
    /// # Errors
    ///
    /// Whatever makes the op invalid: unknown or duplicate channel,
    /// underfunded open, wrong phase, bad signatures or state, a window
    /// still open or already expired.
    pub fn apply(&mut self, op: ChannelOp) -> Result<(), ChannelError> {
        self.try_apply(op).inspect_err(|_| self.stats.rejected += 1)
    }

    fn try_apply(&mut self, op: ChannelOp) -> Result<(), ChannelError> {
        let (id, height) = (op.channel_id(), self.height);
        match op {
            ChannelOp::Open {
                key_a,
                key_b,
                fund_a,
                fund_b,
                ..
            } => {
                if self.channels.contains_key(&id) {
                    return Err(ChannelError::BadState(format!(
                        "channel {id} already exists"
                    )));
                }
                let channel = PaymentChannel::open(id, key_a, key_b, fund_a, fund_b);
                let underfunded = |e: dcs_state::StateError| ChannelError::BadState(e.to_string());
                self.ledger.debit(&channel.a, fund_a).map_err(underfunded)?;
                if let Err(e) = self.ledger.debit(&channel.b, fund_b) {
                    // Roll back a's escrow; opens are atomic.
                    self.ledger.credit(&channel.a, fund_a);
                    return Err(underfunded(e));
                }
                self.channels.insert(id, channel);
                self.stats.opens += 1;
            }
            ChannelOp::CoopClose(signed) => {
                let payout = self.channel_mut(id)?.settle_cooperative(signed)?;
                self.pay_out(id, payout);
                self.stats.coop_closes += 1;
            }
            ChannelOp::UniClose(signed) => {
                let deadline = height.saturating_add(self.dispute_window);
                self.channel_mut(id)?.publish_close(signed, deadline)?;
                self.stats.uni_closes += 1;
            }
            ChannelOp::Challenge(signed) => {
                self.channel_mut(id)?.challenge_close(signed, height)?;
                self.stats.challenges += 1;
            }
            ChannelOp::Finalize { .. } => {
                let payout = self.channel_mut(id)?.finalize(height)?;
                self.pay_out(id, payout);
                self.stats.finalized += 1;
            }
        }
        Ok(())
    }

    fn channel_mut(&mut self, id: u64) -> Result<&mut PaymentChannel, ChannelError> {
        self.channels.get_mut(&id).ok_or(ChannelError::Unknown)
    }

    /// Releases channel `id`'s escrow to its two parties.
    fn pay_out(&mut self, id: u64, (pay_a, pay_b): (Amount, Amount)) {
        let ch = &self.channels[&id];
        self.ledger.credit(&ch.a, pay_a);
        self.ledger.credit(&ch.b, pay_b);
    }

    /// A digest over everything the settlement holds — escrow ledger,
    /// clock, every channel's state and phase, the counters: the replicated
    /// application's state hash.
    pub fn state_hash(&self) -> Hash256 {
        let mut buf = Vec::new();
        self.ledger.root().encode(&mut buf);
        self.height.encode(&mut buf);
        for ch in self.channels.values() {
            ch.state.encode(&mut buf);
            match &ch.phase {
                Phase::Open => buf.push(0),
                Phase::Disputed { state, deadline } => {
                    buf.push(1);
                    state.encode(&mut buf);
                    deadline.encode(&mut buf);
                }
                Phase::Closed => buf.push(2),
            }
        }
        let s = self.stats;
        for c in [
            s.opens,
            s.coop_closes,
            s.uni_closes,
            s.challenges,
            s.finalized,
            s.rejected,
        ] {
            c.encode(&mut buf);
        }
        sha256(&buf)
    }
}

/// One channel as its two parties see it.
#[derive(Debug)]
struct BookChannel {
    a: Address,
    b: Address,
    latest: SignedState,
    /// No close of it has been [observed](PartyBook::observe) on the ledger.
    open: bool,
}

/// The off-chain side of the channel protocol: every party's signing keys
/// (one book simulates them all) and the latest dual-signed state of each
/// channel it tracks. Payments change only the book; the ops it builds are
/// what reaches a [`Settlement`]. A channel's phase lives there; whoever
/// drives the book shows it to the parties with
/// [`observe`](PartyBook::observe), and they stop paying over a channel
/// with a close on the ledger.
#[derive(Debug, Default)]
pub struct PartyBook {
    // BTreeMaps, not HashMaps: iteration order feeds route choice and
    // signing-key use, hence replay digests (the PR 3 determinism sweep).
    parties: BTreeMap<Address, KeyPair>,
    channels: BTreeMap<u64, BookChannel>,
}

impl PartyBook {
    /// Registers a party; returns its address. `key_height` bounds its
    /// lifetime signature count at `2^key_height`.
    pub fn add_party(&mut self, seed: [u8; 32], key_height: u8) -> Address {
        let kp = KeyPair::generate(seed, key_height);
        let addr = kp.address();
        self.parties.insert(addr, kp);
        addr
    }

    /// Both parties sign `digest` — the one place a channel state gets its
    /// two signatures.
    fn co_sign(
        &mut self,
        a: &Address,
        b: &Address,
        digest: &Hash256,
    ) -> Result<(Signature, Signature), ChannelError> {
        let mut sign = |who: &Address| {
            let key = self.parties.get_mut(who).ok_or(ChannelError::Unknown)?;
            key.sign(digest).map_err(ChannelError::Crypto)
        };
        Ok((sign(a)?, sign(b)?))
    }

    fn channel(&self, id: u64) -> Result<&BookChannel, ChannelError> {
        self.channels.get(&id).ok_or(ChannelError::Unknown)
    }

    /// The parties co-sign the funding split as state 0 of channel `id`
    /// (the book tracks it from here on); returns the op that escrows the
    /// funds on-chain.
    ///
    /// # Errors
    ///
    /// Unknown parties, an id already tracked, or exhausted signing keys.
    pub fn open(
        &mut self,
        id: u64,
        a: Address,
        b: Address,
        fund_a: Amount,
        fund_b: Amount,
    ) -> Result<ChannelOp, ChannelError> {
        if self.channels.contains_key(&id) {
            return Err(ChannelError::BadState(format!(
                "channel {id} already tracked"
            )));
        }
        let key = |who| self.parties.get(who).map(KeyPair::public_key);
        let (key_a, key_b) = key(&a).zip(key(&b)).ok_or(ChannelError::Unknown)?;
        let state = ChannelState {
            channel_id: id,
            seq: 0,
            balance_a: fund_a,
            balance_b: fund_b,
        };
        let (sig_a, sig_b) = self.co_sign(&a, &b, &state.digest())?;
        let latest = (state, sig_a, sig_b);
        let open = true;
        let tracked = BookChannel { a, b, latest, open };
        self.channels.insert(id, tracked);
        Ok(ChannelOp::Open {
            id,
            key_a,
            key_b,
            fund_a,
            fund_b,
        })
    }

    /// The parties see where channel `id` stands on the ledger. Open, they
    /// pay and route over it; disputed, they stop but keep its latest state
    /// to challenge with; closed — or `None`, its funding never landed —
    /// they drop it.
    pub fn observe(&mut self, id: u64, phase: Option<&Phase>) {
        match (phase, self.channels.get_mut(&id)) {
            (Some(Phase::Open | Phase::Disputed { .. }), Some(ch)) => {
                ch.open = phase == Some(&Phase::Open);
            }
            _ => {
                self.channels.remove(&id);
            }
        }
    }

    /// The latest dual-signed state of a channel — what a unilateral close
    /// or a watchtower's challenge publishes.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Unknown`] for a channel the book does not track.
    pub fn signed_state(&self, id: u64) -> Result<&SignedState, ChannelError> {
        Ok(&self.channel(id)?.latest)
    }

    /// A party accepts a dual-signed update as its channel's latest state.
    ///
    /// # Errors
    ///
    /// Unknown channel, a close on the ledger, stale sequence, altered
    /// capacity, or bad signatures.
    pub fn accept_update(&mut self, signed: SignedState) -> Result<(), ChannelError> {
        let (state, sig_a, sig_b) = &signed;
        let ch = self.channel(state.channel_id)?;
        let current = &ch.latest.0;
        if !ch.open {
            return Err(ChannelError::WrongPhase);
        }
        if state.seq <= current.seq {
            return Err(ChannelError::BadState(format!(
                "stale seq {} (current {})",
                state.seq, current.seq
            )));
        }
        if state.balance_a.checked_add(state.balance_b)
            != Some(current.balance_a + current.balance_b)
        {
            return Err(ChannelError::BadState("capacity changed".into()));
        }
        let digest = state.digest();
        let verifies = |who: &Address, sig: &Signature| {
            let key = self.parties.get(who);
            key.is_some_and(|key| key.public_key().verify(&digest, sig))
        };
        if !verifies(&ch.a, sig_a) || !verifies(&ch.b, sig_b) {
            return Err(ChannelError::BadSignature);
        }
        let id = state.channel_id;
        self.channels.get_mut(&id).expect("checked above").latest = signed;
        Ok(())
    }

    /// One direct off-chain payment: the next state, signed by both.
    ///
    /// # Errors
    ///
    /// Unknown channel, `from` not a party to it, a close on the ledger,
    /// insufficient channel balance, or exhausted signing keys.
    pub fn pay(&mut self, id: u64, from: Address, amount: Amount) -> Result<(), ChannelError> {
        let ch = self.channel(id)?;
        if !ch.open {
            return Err(ChannelError::WrongPhase);
        }
        let (a, b) = (ch.a, ch.b);
        let mut next = ch.latest.0.clone();
        next.seq += 1;
        let (debit, credit) = if from == a {
            (&mut next.balance_a, &mut next.balance_b)
        } else if from == b {
            (&mut next.balance_b, &mut next.balance_a)
        } else {
            return Err(ChannelError::Unknown);
        };
        let short = || ChannelError::BadState("insufficient channel balance".into());
        *debit = debit.checked_sub(amount).ok_or_else(short)?;
        *credit += amount;
        let (sig_a, sig_b) = self.co_sign(&a, &b, &next.digest())?;
        self.accept_update((next, sig_a, sig_b))
    }

    /// Finds a route of open channels from `from` to `to` with
    /// directional capacity ≥ `amount` on every hop (breadth-first, fewest
    /// hops).
    pub fn find_route(&self, from: Address, to: Address, amount: Amount) -> Option<Vec<u64>> {
        // BTreeMap keeps the search — and therefore the chosen route on
        // ties — independent of hash order.
        let mut visited: BTreeMap<Address, (Address, u64)> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(cur) = queue.pop_front() {
            if cur == to {
                // Reconstruct channel path.
                let mut path = Vec::new();
                let mut node = to;
                while node != from {
                    let (prev, ch) = visited[&node];
                    path.push(ch);
                    node = prev;
                }
                path.reverse();
                return Some(path);
            }
            for (&id, ch) in self.channels.iter().filter(|(_, ch)| ch.open) {
                let state = &ch.latest.0;
                let next = if ch.a == cur && state.balance_a >= amount {
                    ch.b
                } else if ch.b == cur && state.balance_b >= amount {
                    ch.a
                } else {
                    continue;
                };
                if next != from && !visited.contains_key(&next) {
                    visited.insert(next, (cur, id));
                    queue.push_back(next);
                }
            }
        }
        None
    }

    /// A multi-hop payment: routes HTLC-style through intermediate
    /// channels. All hops settle once the recipient reveals the preimage —
    /// every party here is honest, so they settle directly. Returns the hop
    /// count.
    ///
    /// # Errors
    ///
    /// [`ChannelError::NoRoute`] or per-hop update failures.
    pub fn route(
        &mut self,
        from: Address,
        to: Address,
        amount: Amount,
    ) -> Result<usize, ChannelError> {
        let route = self
            .find_route(from, to, amount)
            .ok_or(ChannelError::NoRoute)?;
        let mut sender = from;
        for &id in &route {
            let ch = &self.channels[&id];
            let counterparty = if ch.a == sender { ch.b } else { ch.a };
            self.pay(id, sender, amount)?;
            sender = counterparty;
        }
        Ok(route.len())
    }

    /// Both parties sign the latest state's close digest; returns the op
    /// that settles the channel there.
    ///
    /// # Errors
    ///
    /// Unknown channel or exhausted signing keys.
    pub fn coop_close(&mut self, id: u64) -> Result<ChannelOp, ChannelError> {
        let ch = self.channel(id)?;
        let (a, b, state) = (ch.a, ch.b, ch.latest.0.clone());
        let (sig_a, sig_b) = self.co_sign(&a, &b, &state.close_digest())?;
        Ok(ChannelOp::CoopClose((state, sig_a, sig_b)))
    }
}

/// A channel network in one process: the [`PartyBook`]'s ops applied
/// straight to a private [`Settlement`], each one counted as the on-chain
/// transaction it stands for.
#[derive(Debug)]
pub struct ChannelNetwork {
    book: PartyBook,
    settlement: Settlement,
    /// On-chain transactions consumed (opens, closes, disputes) — the E8
    /// numerator.
    pub onchain_txs: u64,
    /// Off-chain state updates exchanged.
    pub offchain_updates: u64,
    /// Completed payments.
    pub payments: u64,
}

impl ChannelNetwork {
    /// An empty network with the given dispute window (in ledger heights).
    pub fn new(dispute_window: u64) -> Self {
        ChannelNetwork {
            book: PartyBook::default(),
            settlement: Settlement::new(dispute_window, &[]),
            onchain_txs: 0,
            offchain_updates: 0,
            payments: 0,
        }
    }

    /// The off-chain side, for building ops by hand.
    pub fn book_mut(&mut self) -> &mut PartyBook {
        &mut self.book
    }

    /// The on-chain side: balances, hosted channels, height, counters.
    pub fn settlement(&self) -> &Settlement {
        &self.settlement
    }

    /// Settles one op on-chain (one on-chain tx when it is accepted); the
    /// parties see what became of its channel.
    ///
    /// # Errors
    ///
    /// Whatever [`Settlement::apply`] rejects it for.
    pub fn apply(&mut self, op: ChannelOp) -> Result<(), ChannelError> {
        let id = op.channel_id();
        let verdict = self.settlement.apply(op);
        self.onchain_txs += u64::from(verdict.is_ok());
        let on_chain = self.settlement.channel(id);
        self.book.observe(id, on_chain.map(|ch| &ch.phase));
        verdict
    }

    /// Registers a party with on-chain funds; returns its address.
    /// `key_height` bounds its lifetime signature count at `2^key_height`.
    pub fn add_party(&mut self, seed: [u8; 32], key_height: u8, funds: Amount) -> Address {
        let addr = self.book.add_party(seed, key_height);
        self.settlement.fund(&addr, funds);
        addr
    }

    /// Advances the settlement ledger height (time passing on-chain).
    pub fn advance_height(&mut self, blocks: u64) {
        let height = self.settlement.height() + blocks;
        self.settlement.observe_height(height);
    }

    /// Opens a channel funded `fund_a` + `fund_b` (one on-chain tx).
    ///
    /// # Errors
    ///
    /// Unknown parties or insufficient on-chain funds; nothing changes.
    pub fn open_channel(
        &mut self,
        a: Address,
        b: Address,
        fund_a: Amount,
        fund_b: Amount,
    ) -> Result<u64, ChannelError> {
        let id = self.settlement.channel_count() as u64;
        let op = self.book.open(id, a, b, fund_a, fund_b)?;
        self.apply(op)?;
        Ok(id)
    }

    /// One direct off-chain payment over an open channel (no on-chain tx).
    ///
    /// # Errors
    ///
    /// Insufficient channel balance or signature/phase errors.
    pub fn channel_pay(
        &mut self,
        channel_id: u64,
        from: Address,
        amount: Amount,
    ) -> Result<(), ChannelError> {
        self.book.pay(channel_id, from, amount)?;
        self.offchain_updates += 1;
        self.payments += 1;
        Ok(())
    }

    /// A multi-hop payment, entirely off-chain. Returns the hop count.
    ///
    /// # Errors
    ///
    /// [`ChannelError::NoRoute`] or per-hop update failures.
    pub fn pay(
        &mut self,
        from: Address,
        to: Address,
        amount: Amount,
    ) -> Result<usize, ChannelError> {
        let hops = self.book.route(from, to, amount)?;
        self.offchain_updates += hops as u64;
        self.payments += 1;
        Ok(hops)
    }

    /// Cooperative close: both parties settle the latest state on-chain
    /// (one on-chain tx).
    ///
    /// # Errors
    ///
    /// [`ChannelError::WrongPhase`] if disputed, [`ChannelError::Unknown`]
    /// if closed.
    pub fn cooperative_close(&mut self, channel_id: u64) -> Result<(), ChannelError> {
        let op = self.book.coop_close(channel_id)?;
        self.apply(op)
    }

    /// The dual-signed current state of a channel (what a unilateral close
    /// or a challenge publishes).
    ///
    /// # Errors
    ///
    /// Unknown channel.
    pub fn signed_current_state(&self, channel_id: u64) -> Result<SignedState, ChannelError> {
        self.book.signed_state(channel_id).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn network_with_parties(n: u8) -> (ChannelNetwork, Vec<Address>) {
        let mut net = ChannelNetwork::new(10);
        let parties: Vec<Address> = (0..n)
            .map(|i| net.add_party([i + 1; 32], 6, 100_000))
            .collect();
        (net, parties)
    }

    #[test]
    fn op_codec_round_trips() {
        let mut book = PartyBook::default();
        let a = book.add_party([1; 32], 3);
        let b = book.add_party([2; 32], 3);
        let open = book.open(7, a, b, 600, 400).unwrap();
        book.pay(7, a, 100).unwrap();
        let ops = [
            open,
            ChannelOp::Challenge(book.signed_state(7).unwrap().clone()),
            ChannelOp::UniClose(book.signed_state(7).unwrap().clone()),
            book.coop_close(7).unwrap(),
            ChannelOp::Finalize { id: 7 },
        ];
        for op in ops {
            let decoded = decode_all::<ChannelOp>(&op.encoded()).expect("round trip");
            assert_eq!(decoded, op);
        }
    }

    #[test]
    fn open_pay_cooperative_close() {
        let (mut net, p) = network_with_parties(2);
        let (a, b) = (p[0], p[1]);
        let ch = net.open_channel(a, b, 10_000, 5_000).unwrap();
        assert_eq!(net.settlement.balance(&a), 90_000);

        for _ in 0..20 {
            net.channel_pay(ch, a, 100).unwrap();
        }
        net.channel_pay(ch, b, 500).unwrap();
        let (state, _, _) = net.signed_current_state(ch).unwrap();
        assert_eq!(state.balance_a, 10_000 - 2_000 + 500);
        assert_eq!(state.balance_b, 5_000 + 2_000 - 500);
        assert_eq!(
            net.settlement.channel(ch).unwrap().state.seq,
            0,
            "updates never reach the ledger"
        );

        net.cooperative_close(ch).unwrap();
        assert_eq!(net.settlement.balance(&a), 90_000 + 8_500);
        assert_eq!(net.settlement.balance(&b), 95_000 + 6_500);
        assert_eq!(
            net.settlement.channel(ch).unwrap().state,
            state,
            "paid-out split"
        );
        // 21 payments, 2 on-chain txs total — the E8 offloading claim.
        assert_eq!(net.onchain_txs, 2);
        assert_eq!(net.offchain_updates, 21);
        assert_eq!(net.channel_pay(ch, a, 1), Err(ChannelError::Unknown));
    }

    /// Regression: the pre-merge in-process open debited `a`, failed on
    /// `b`, and returned `Err` with `a`'s escrow gone.
    #[test]
    fn underfunded_open_is_atomic() {
        let mut net = ChannelNetwork::new(10);
        let a = net.add_party([1; 32], 3, 1_000);
        let b = net.add_party([2; 32], 3, 10);
        let err = net.open_channel(a, b, 500, 500).unwrap_err();
        assert!(matches!(err, ChannelError::BadState(_)), "{err}");
        assert_eq!(
            net.settlement.balance(&a),
            1_000,
            "a's escrow must not leak"
        );
        assert_eq!(net.settlement.balance(&b), 10);
        assert_eq!(net.onchain_txs, 0);
        assert!(net.settlement.channel(0).is_none());
        assert!(net.book.find_route(a, b, 1).is_none(), "no off-chain ghost");
        // The id is free for the next, funded, attempt.
        assert_eq!(net.open_channel(a, b, 500, 5), Ok(0));
    }

    #[test]
    fn stale_update_rejected() {
        let (mut net, p) = network_with_parties(2);
        let ch = net.open_channel(p[0], p[1], 1_000, 1_000).unwrap();
        let funding = net.signed_current_state(ch).unwrap();
        net.channel_pay(ch, p[0], 10).unwrap();
        // Replay the same (now stale) state, and the one before it.
        let current = net.signed_current_state(ch).unwrap();
        for stale in [current.clone(), funding] {
            let err = net.book.accept_update(stale).unwrap_err();
            assert!(matches!(err, ChannelError::BadState(_)), "{err}");
        }
        assert_eq!(net.signed_current_state(ch), Ok(current));
    }

    #[test]
    fn tampered_update_rejected() {
        let (mut net, p) = network_with_parties(3);
        let ch = net.open_channel(p[0], p[1], 1_000, 1_000).unwrap();
        let other = net.open_channel(p[1], p[2], 1_000, 1_000).unwrap();
        net.channel_pay(other, p[1], 10).unwrap();
        let current = net.signed_current_state(ch).unwrap();
        let split = |balance_a, balance_b| ChannelState {
            channel_id: ch,
            seq: 1,
            balance_a,
            balance_b,
        };
        let next = split(900, 1_100);
        let (sig_a, sig_b) = net.book.co_sign(&p[0], &p[1], &next.digest()).unwrap();
        let (mut foreign, sig_fa, sig_fb) = net.signed_current_state(other).unwrap();
        foreign.channel_id = ch;
        let nowhere = ChannelState {
            channel_id: 99,
            ..next.clone()
        };
        let capacity_changed = ChannelError::BadState("capacity changed".into());
        let cases = [
            // b gains what a never gave up; a sum that overflows.
            (
                split(1_000, 1_100),
                &sig_a,
                &sig_b,
                capacity_changed.clone(),
            ),
            (split(u64::MAX, 1_100), &sig_a, &sig_b, capacity_changed),
            // Signed by the right parties, but over another split.
            (
                split(800, 1_200),
                &sig_a,
                &sig_b,
                ChannelError::BadSignature,
            ),
            // One party's signature missing: a's twice.
            (next.clone(), &sig_a, &sig_a, ChannelError::BadSignature),
            // Another channel's update, relabelled: its parties' signatures
            // are not this channel's.
            (foreign, &sig_fa, &sig_fb, ChannelError::BadSignature),
            // A channel nobody tracks.
            (nowhere, &sig_a, &sig_b, ChannelError::Unknown),
        ];
        for (state, sa, sb, why) in cases {
            let refused = net.book.accept_update((state, sa.clone(), sb.clone()));
            assert_eq!(refused, Err(why));
            assert_eq!(net.signed_current_state(ch).as_ref(), Ok(&current));
        }
        net.book
            .accept_update((next.clone(), sig_a, sig_b))
            .unwrap();
        assert_eq!(net.signed_current_state(ch).unwrap().0, next);
    }

    #[test]
    fn update_is_not_a_close() {
        let (mut net, p) = network_with_parties(2);
        let ch = net.open_channel(p[0], p[1], 1_000, 1_000).unwrap();
        net.channel_pay(ch, p[0], 10).unwrap();
        let (state, sa, sb) = net.signed_current_state(ch).unwrap();
        // A dual-signed *update* is not an agreement to close at it.
        let replay = ChannelOp::CoopClose((state.clone(), sa.clone(), sb.clone()));
        assert_eq!(net.apply(replay), Err(ChannelError::BadSignature));
        // Nor does re-publishing the disputed state count as a challenge.
        net.apply(ChannelOp::UniClose((state.clone(), sa.clone(), sb.clone())))
            .unwrap();
        let err = net
            .apply(ChannelOp::Challenge((state, sa, sb)))
            .unwrap_err();
        assert!(matches!(err, ChannelError::BadState(_)));
        assert_eq!(net.settlement.stats.rejected, 2);
        assert_eq!(net.onchain_txs, 2, "rejected ops cost no on-chain tx");
    }

    #[test]
    fn cooperative_close_needs_both_parties_signatures() {
        let (mut net, p) = network_with_parties(2);
        let ch = net.open_channel(p[0], p[1], 1_000, 1_000).unwrap();
        net.channel_pay(ch, p[0], 400).unwrap();
        // Mallory co-signs — with keys of their own — a close of the same
        // channel id and capacity.
        let mut mallory = PartyBook::default();
        let m = mallory.add_party([9; 32], 3);
        mallory.open(ch, m, m, 0, 2_000).unwrap();
        let forged = mallory.coop_close(ch).unwrap();
        assert_eq!(net.apply(forged), Err(ChannelError::BadSignature));
        assert_eq!(net.settlement.channel(ch).unwrap().phase, Phase::Open);
        assert_eq!(net.settlement.stats.rejected, 1);
        net.cooperative_close(ch).unwrap();
        assert_eq!(net.settlement.balance(&p[0]), 100_000 - 400);
    }

    #[test]
    fn unilateral_close_with_stale_state_is_challenged() {
        let (mut net, p) = network_with_parties(3);
        let (a, b, c) = (p[0], p[1], p[2]);
        let ch = net.open_channel(a, b, 10_000, 0).unwrap();
        net.open_channel(b, c, 10_000, 0).unwrap();
        // a pays b 4000 over time; a keeps the old (richer-for-a) state.
        let stale = net.signed_current_state(ch).unwrap();
        for _ in 0..4 {
            net.channel_pay(ch, a, 1_000).unwrap();
        }

        // a tries to cheat with the stale state.
        net.apply(ChannelOp::UniClose(stale)).unwrap();
        // With the close on the ledger the parties stop using the channel…
        assert_eq!(net.channel_pay(ch, a, 1), Err(ChannelError::WrongPhase));
        assert_eq!(net.pay(a, c, 1), Err(ChannelError::NoRoute));
        assert_eq!(net.cooperative_close(ch), Err(ChannelError::WrongPhase));
        // …but b still holds the newest state, and challenges with it
        // inside the window.
        let newest = net.signed_current_state(ch).unwrap();
        assert_eq!(newest.0.seq, 4);
        net.apply(ChannelOp::Challenge(newest)).unwrap();
        net.advance_height(11);
        net.apply(ChannelOp::Finalize { id: ch }).unwrap();
        assert_eq!(
            net.settlement.balance(&b),
            90_000 + 4_000,
            "the newer state won"
        );
        // Settled, the channel is nobody's business any more.
        assert_eq!(net.signed_current_state(ch), Err(ChannelError::Unknown));
    }

    #[test]
    fn finalize_respects_dispute_window() {
        let (mut net, p) = network_with_parties(2);
        let ch = net.open_channel(p[0], p[1], 1_000, 1_000).unwrap();
        let current = net.signed_current_state(ch).unwrap();
        net.apply(ChannelOp::UniClose(current)).unwrap();
        let finalize = ChannelOp::Finalize { id: ch };
        assert!(matches!(
            net.apply(finalize.clone()),
            Err(ChannelError::BadState(_))
        ));
        net.advance_height(11);
        net.apply(finalize).unwrap();
    }

    #[test]
    fn multi_hop_routing() {
        // a — b — c — d line; a pays d through two intermediaries.
        let (mut net, p) = network_with_parties(4);
        let (a, b, c, d) = (p[0], p[1], p[2], p[3]);
        net.open_channel(a, b, 5_000, 5_000).unwrap();
        net.open_channel(b, c, 5_000, 5_000).unwrap();
        net.open_channel(c, d, 5_000, 5_000).unwrap();

        let onchain_before = net.onchain_txs;
        let hops = net.pay(a, d, 700).unwrap();
        assert_eq!(hops, 3);
        assert_eq!(
            net.onchain_txs, onchain_before,
            "routing is fully off-chain"
        );
        let split = |id| net.signed_current_state(id).unwrap().0;
        // d's channel balance with c grew.
        assert_eq!(split(2).balance_b, 5_700);
        // Intermediaries are net flat.
        assert_eq!(split(0).balance_b + split(1).balance_a, 10_000);
    }

    #[test]
    fn routing_respects_capacity() {
        let (mut net, p) = network_with_parties(3);
        let (a, b, c) = (p[0], p[1], p[2]);
        net.open_channel(a, b, 100, 0).unwrap();
        net.open_channel(b, c, 5_000, 0).unwrap();
        // a→c needs 500 through the a—b hop which only has 100.
        assert_eq!(net.pay(a, c, 500), Err(ChannelError::NoRoute));
        assert!(net.pay(a, c, 50).is_ok());
    }

    #[test]
    fn route_prefers_fewest_hops() {
        let (mut net, p) = network_with_parties(4);
        let (a, b, c, d) = (p[0], p[1], p[2], p[3]);
        net.open_channel(a, b, 1_000, 1_000).unwrap();
        net.open_channel(b, c, 1_000, 1_000).unwrap();
        net.open_channel(c, d, 1_000, 1_000).unwrap();
        net.open_channel(a, d, 1_000, 1_000).unwrap(); // direct channel
        let route = net.book.find_route(a, d, 100).unwrap();
        assert_eq!(route.len(), 1, "direct channel beats the 3-hop path");
    }
}
