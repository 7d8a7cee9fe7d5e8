//! An on-chain payment-channel application (§5.4, \[30\]) behind the
//! ABCI-style [`Application`] interface: channel opens,
//! closes, disputes, and settlements ride *real* transactions through the
//! mempool/commit path of any consensus network, while balance updates stay
//! off-chain with the parties (who exchange dual-signed
//! [`ChannelState`]s and submit them only at close).
//!
//! The app is the "contract": it escrows funds at open, runs the dispute
//! window in block heights (read off each block's coinbase), and pays out
//! the winning state at settlement. A watchtower is just a client that
//! submits [`ChannelOp::Challenge`] when it sees a stale unilateral close
//! committed — see `dcs_ledger`'s channel workload.

use crate::Application;
use dcs_crypto::codec::{decode_all, Decode, DecodeError, Encode, Reader};
use dcs_crypto::{sha256, Address, Hash256, PublicKey, Signature};
use dcs_primitives::{AccountTx, Amount, Transaction, TxPayload};
use dcs_scale::channels::{ChannelState, PaymentChannel, Phase};
use dcs_state::AccountDb;
use std::collections::BTreeMap;

/// Operations the channel application accepts, carried as
/// [`TxPayload::Data`] on transactions addressed to
/// [`ChannelApp::app_address`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelOp {
    /// Open a channel: escrow `fund_a` + `fund_b` from the two parties.
    Open {
        /// Caller-chosen channel id (must be unused).
        id: u64,
        /// The `a` party.
        a: Address,
        /// The `b` party.
        b: Address,
        /// `a`'s state-verification key.
        key_a: PublicKey,
        /// `b`'s state-verification key.
        key_b: PublicKey,
        /// `a`'s escrowed funding.
        fund_a: Amount,
        /// `b`'s escrowed funding.
        fund_b: Amount,
    },
    /// Both parties settle the latest state cooperatively.
    CoopClose {
        /// The channel to settle.
        id: u64,
    },
    /// One party publishes a dual-signed state, starting the dispute window.
    UniClose {
        /// The channel to close.
        id: u64,
        /// The published state.
        state: ChannelState,
        /// `a`'s signature over the state digest.
        sig_a: Signature,
        /// `b`'s signature over the state digest.
        sig_b: Signature,
    },
    /// A watchtower (or the counterparty) answers a unilateral close with a
    /// strictly newer dual-signed state.
    Challenge {
        /// The disputed channel.
        id: u64,
        /// The newer state.
        state: ChannelState,
        /// `a`'s signature.
        sig_a: Signature,
        /// `b`'s signature.
        sig_b: Signature,
    },
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

fn encode_state(state: &ChannelState, out: &mut Vec<u8>) {
    state.channel_id.encode(out);
    state.seq.encode(out);
    state.balance_a.encode(out);
    state.balance_b.encode(out);
}

fn decode_state(r: &mut Reader<'_>) -> Result<ChannelState, DecodeError> {
    Ok(ChannelState {
        channel_id: u64::decode(r)?,
        seq: u64::decode(r)?,
        balance_a: u64::decode(r)?,
        balance_b: u64::decode(r)?,
    })
}

impl Encode for ChannelOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ChannelOp::Open {
                id,
                a,
                b,
                key_a,
                key_b,
                fund_a,
                fund_b,
            } => {
                out.push(OP_OPEN);
                id.encode(out);
                a.encode(out);
                b.encode(out);
                key_a.encode(out);
                key_b.encode(out);
                fund_a.encode(out);
                fund_b.encode(out);
            }
            ChannelOp::CoopClose { id } => {
                out.push(OP_COOP_CLOSE);
                id.encode(out);
            }
            ChannelOp::UniClose {
                id,
                state,
                sig_a,
                sig_b,
            } => {
                out.push(OP_UNI_CLOSE);
                id.encode(out);
                encode_state(state, out);
                sig_a.encode(out);
                sig_b.encode(out);
            }
            ChannelOp::Challenge {
                id,
                state,
                sig_a,
                sig_b,
            } => {
                out.push(OP_CHALLENGE);
                id.encode(out);
                encode_state(state, out);
                sig_a.encode(out);
                sig_b.encode(out);
            }
            ChannelOp::Finalize { id } => {
                out.push(OP_FINALIZE);
                id.encode(out);
            }
        }
    }
}

impl Decode for ChannelOp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let tag = r.take_array::<1>()?[0];
        match tag {
            OP_OPEN => Ok(ChannelOp::Open {
                id: u64::decode(r)?,
                a: Address::decode(r)?,
                b: Address::decode(r)?,
                key_a: PublicKey::decode(r)?,
                key_b: PublicKey::decode(r)?,
                fund_a: u64::decode(r)?,
                fund_b: u64::decode(r)?,
            }),
            OP_COOP_CLOSE => Ok(ChannelOp::CoopClose {
                id: u64::decode(r)?,
            }),
            OP_UNI_CLOSE => Ok(ChannelOp::UniClose {
                id: u64::decode(r)?,
                state: decode_state(r)?,
                sig_a: Signature::decode(r)?,
                sig_b: Signature::decode(r)?,
            }),
            OP_CHALLENGE => Ok(ChannelOp::Challenge {
                id: u64::decode(r)?,
                state: decode_state(r)?,
                sig_a: Signature::decode(r)?,
                sig_b: Signature::decode(r)?,
            }),
            OP_FINALIZE => Ok(ChannelOp::Finalize {
                id: u64::decode(r)?,
            }),
            other => Err(DecodeError::BadTag(other)),
        }
    }
}

impl ChannelOp {
    /// Wraps this op into a transaction addressed to the channel app.
    /// `nonce` is the submitting client's account nonce (the app itself
    /// does not check nonces; the mempool/dedup layer does).
    pub fn into_tx(self, from: Address, nonce: u64) -> Transaction {
        let mut tx = AccountTx::transfer(from, ChannelApp::app_address(), 0, nonce);
        tx.gas_limit = 0;
        tx.gas_price = 0;
        tx.payload = TxPayload::Data(self.encoded());
        Transaction::Account(tx)
    }
}

/// Per-op counters (the channel-workload measurands).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelAppStats {
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

/// The replicated channel application: escrow ledger + hosted channels.
#[derive(Debug)]
pub struct ChannelApp {
    genesis_alloc: Vec<(Address, Amount)>,
    ledger: AccountDb,
    // BTreeMap: channel iteration feeds `state_hash`, which must not
    // depend on hash order (the determinism sweep).
    channels: BTreeMap<u64, PaymentChannel>,
    /// Current chain height, read off each block's leading coinbase.
    height: u64,
    dispute_window: u64,
    /// Op counters.
    pub stats: ChannelAppStats,
}

impl ChannelApp {
    /// An app with pre-funded party accounts and the given dispute window
    /// (in blocks).
    pub fn new(dispute_window: u64, alloc: &[(Address, Amount)]) -> Self {
        let mut ledger = AccountDb::new();
        for (addr, amount) in alloc {
            ledger.credit(addr, *amount);
        }
        ChannelApp {
            genesis_alloc: alloc.to_vec(),
            ledger,
            channels: BTreeMap::new(),
            height: 0,
            dispute_window,
            stats: ChannelAppStats::default(),
        }
    }

    /// The well-known address channel operations are sent to.
    pub fn app_address() -> Address {
        Address::from_hash(&sha256(b"middleware-channel-app"))
    }

    /// On-chain (escrow-ledger) balance of a party.
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

    /// Channels currently open or disputed.
    pub fn live_channels(&self) -> usize {
        self.channels
            .values()
            .filter(|c| c.phase != Phase::Closed)
            .count()
    }

    /// The chain height the app has observed (from block coinbases).
    pub fn observed_height(&self) -> u64 {
        self.height
    }

    fn apply_op(&mut self, op: ChannelOp) -> Result<(), String> {
        match op {
            ChannelOp::Open {
                id,
                a,
                b,
                key_a,
                key_b,
                fund_a,
                fund_b,
            } => {
                if self.channels.contains_key(&id) {
                    return Err(format!("channel {id} already exists"));
                }
                self.ledger
                    .debit(&a, fund_a)
                    .map_err(|e| e.to_string())
                    .and_then(|()| {
                        self.ledger.debit(&b, fund_b).map_err(|e| {
                            // Roll back a's escrow; opens are atomic.
                            self.ledger.credit(&a, fund_a);
                            e.to_string()
                        })
                    })?;
                self.channels.insert(
                    id,
                    PaymentChannel::open(id, a, b, key_a, key_b, fund_a, fund_b),
                );
                self.stats.opens += 1;
                Ok(())
            }
            ChannelOp::CoopClose { id } => {
                let ch = self
                    .channels
                    .get_mut(&id)
                    .ok_or_else(|| format!("unknown channel {id}"))?;
                let (pa, pb) = ch.settle_cooperative().map_err(|e| e.to_string())?;
                let (a, b) = (ch.a, ch.b);
                self.ledger.credit(&a, pa);
                self.ledger.credit(&b, pb);
                self.stats.coop_closes += 1;
                Ok(())
            }
            ChannelOp::UniClose {
                id,
                state,
                sig_a,
                sig_b,
            } => {
                let deadline = self.height + self.dispute_window;
                let ch = self
                    .channels
                    .get_mut(&id)
                    .ok_or_else(|| format!("unknown channel {id}"))?;
                ch.publish_close(state, &sig_a, &sig_b, deadline)
                    .map_err(|e| e.to_string())?;
                self.stats.uni_closes += 1;
                Ok(())
            }
            ChannelOp::Challenge {
                id,
                state,
                sig_a,
                sig_b,
            } => {
                let height = self.height;
                let ch = self
                    .channels
                    .get_mut(&id)
                    .ok_or_else(|| format!("unknown channel {id}"))?;
                ch.challenge_close(state, &sig_a, &sig_b, height)
                    .map_err(|e| e.to_string())?;
                self.stats.challenges += 1;
                Ok(())
            }
            ChannelOp::Finalize { id } => {
                let height = self.height;
                let ch = self
                    .channels
                    .get_mut(&id)
                    .ok_or_else(|| format!("unknown channel {id}"))?;
                let (pa, pb) = ch.finalize(height).map_err(|e| e.to_string())?;
                let (a, b) = (ch.a, ch.b);
                self.ledger.credit(&a, pa);
                self.ledger.credit(&b, pb);
                self.stats.finalized += 1;
                Ok(())
            }
        }
    }
}

impl Application for ChannelApp {
    fn deliver_tx(&mut self, tx: &Transaction) -> Result<(), String> {
        match tx {
            // Every consensus-built block leads with a coinbase stamped
            // with its height — the app's clock for dispute windows.
            Transaction::Coinbase { height, .. } => {
                self.height = self.height.max(*height);
                Ok(())
            }
            Transaction::Account(acct) if acct.to == Some(Self::app_address()) => {
                let TxPayload::Data(bytes) = &acct.payload else {
                    return Err("channel app takes Data payloads only".into());
                };
                let op = decode_all::<ChannelOp>(bytes).map_err(|e| e.to_string())?;
                self.apply_op(op).inspect_err(|_| self.stats.rejected += 1)
            }
            // Traffic for other apps/accounts is none of our business.
            _ => Ok(()),
        }
    }

    fn state_hash(&self) -> Hash256 {
        let mut buf = Vec::new();
        self.ledger.root().encode(&mut buf);
        self.height.encode(&mut buf);
        for (id, ch) in &self.channels {
            id.encode(&mut buf);
            encode_state(&ch.state, &mut buf);
            match &ch.phase {
                Phase::Open => buf.push(0),
                Phase::Disputed { state, deadline } => {
                    buf.push(1);
                    encode_state(state, &mut buf);
                    deadline.encode(&mut buf);
                }
                Phase::Closed => buf.push(2),
            }
        }
        for c in [
            self.stats.opens,
            self.stats.coop_closes,
            self.stats.uni_closes,
            self.stats.challenges,
            self.stats.finalized,
            self.stats.rejected,
        ] {
            c.encode(&mut buf);
        }
        sha256(&buf)
    }

    fn reset(&mut self) {
        *self = ChannelApp::new(self.dispute_window, &self.genesis_alloc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_crypto::KeyPair;

    struct Party {
        kp: KeyPair,
        addr: Address,
    }

    fn party(seed: u8) -> Party {
        let kp = KeyPair::generate([seed; 32], 8);
        let addr = kp.address();
        Party { kp, addr }
    }

    fn signed(pa: &mut Party, pb: &mut Party, state: &ChannelState) -> (Signature, Signature) {
        let digest = state.digest();
        (
            pa.kp.sign(&digest).expect("keys remain"),
            pb.kp.sign(&digest).expect("keys remain"),
        )
    }

    fn funded_app(parties: &[&Party]) -> ChannelApp {
        let alloc: Vec<(Address, Amount)> = parties.iter().map(|p| (p.addr, 100_000)).collect();
        ChannelApp::new(10, &alloc)
    }

    fn deliver(app: &mut ChannelApp, op: ChannelOp) -> Result<(), String> {
        app.deliver_tx(&op.into_tx(Address::from_index(999), 0))
    }

    fn tick(app: &mut ChannelApp, height: u64) {
        app.deliver_tx(&Transaction::Coinbase {
            to: Address::ZERO,
            value: 0,
            height,
        })
        .expect("coinbase always applies");
    }

    #[test]
    fn op_codec_round_trips() {
        let mut a = party(1);
        let mut b = party(2);
        let state = ChannelState {
            channel_id: 7,
            seq: 3,
            balance_a: 600,
            balance_b: 400,
        };
        let (sa, sb) = signed(&mut a, &mut b, &state);
        let ops = [
            ChannelOp::Open {
                id: 7,
                a: a.addr,
                b: b.addr,
                key_a: a.kp.public_key(),
                key_b: b.kp.public_key(),
                fund_a: 600,
                fund_b: 400,
            },
            ChannelOp::CoopClose { id: 7 },
            ChannelOp::UniClose {
                id: 7,
                state: state.clone(),
                sig_a: sa.clone(),
                sig_b: sb.clone(),
            },
            ChannelOp::Challenge {
                id: 7,
                state,
                sig_a: sa,
                sig_b: sb,
            },
            ChannelOp::Finalize { id: 7 },
        ];
        for op in ops {
            let decoded = decode_all::<ChannelOp>(&op.encoded()).expect("round trip");
            assert_eq!(decoded, op);
        }
    }

    #[test]
    fn open_and_cooperative_close_settle_escrow() {
        let a = party(1);
        let b = party(2);
        let mut app = funded_app(&[&a, &b]);
        deliver(
            &mut app,
            ChannelOp::Open {
                id: 0,
                a: a.addr,
                b: b.addr,
                key_a: a.kp.public_key(),
                key_b: b.kp.public_key(),
                fund_a: 10_000,
                fund_b: 5_000,
            },
        )
        .expect("open");
        assert_eq!(app.balance(&a.addr), 90_000);
        assert_eq!(app.live_channels(), 1);
        deliver(&mut app, ChannelOp::CoopClose { id: 0 }).expect("close");
        assert_eq!(app.balance(&a.addr), 100_000);
        assert_eq!(app.balance(&b.addr), 100_000);
        assert_eq!(app.live_channels(), 0);
    }

    #[test]
    fn underfunded_open_rejected_atomically() {
        let a = party(1);
        let b = party(2);
        let mut app = funded_app(&[&a, &b]);
        let err = deliver(
            &mut app,
            ChannelOp::Open {
                id: 0,
                a: a.addr,
                b: b.addr,
                fund_a: 10_000,
                fund_b: 200_000, // more than b has
                key_a: a.kp.public_key(),
                key_b: b.kp.public_key(),
            },
        );
        assert!(err.is_err());
        assert_eq!(app.balance(&a.addr), 100_000, "a's escrow rolled back");
        assert_eq!(app.stats.rejected, 1);
    }

    #[test]
    fn stale_unilateral_close_loses_to_watchtower_challenge() {
        let mut a = party(1);
        let mut b = party(2);
        let mut app = funded_app(&[&a, &b]);
        deliver(
            &mut app,
            ChannelOp::Open {
                id: 0,
                a: a.addr,
                b: b.addr,
                key_a: a.kp.public_key(),
                key_b: b.kp.public_key(),
                fund_a: 10_000,
                fund_b: 0,
            },
        )
        .expect("open");
        // Off-chain: a pays b 4000 (seq 1), then tries to cheat by
        // publishing the richer-for-a genesis state (seq 0).
        let stale = ChannelState {
            channel_id: 0,
            seq: 0,
            balance_a: 10_000,
            balance_b: 0,
        };
        let latest = ChannelState {
            channel_id: 0,
            seq: 1,
            balance_a: 6_000,
            balance_b: 4_000,
        };
        let (stale_sa, stale_sb) = signed(&mut a, &mut b, &stale);
        let (new_sa, new_sb) = signed(&mut a, &mut b, &latest);
        tick(&mut app, 1);
        deliver(
            &mut app,
            ChannelOp::UniClose {
                id: 0,
                state: stale,
                sig_a: stale_sa,
                sig_b: stale_sb,
            },
        )
        .expect("unilateral close");
        deliver(
            &mut app,
            ChannelOp::Challenge {
                id: 0,
                state: latest,
                sig_a: new_sa,
                sig_b: new_sb,
            },
        )
        .expect("challenge in window");
        // Window (10 blocks from height 1) still open at 11, passed at 12.
        tick(&mut app, 11);
        assert!(deliver(&mut app, ChannelOp::Finalize { id: 0 }).is_err());
        tick(&mut app, 12);
        deliver(&mut app, ChannelOp::Finalize { id: 0 }).expect("finalize");
        assert_eq!(app.balance(&b.addr), 104_000, "the newer state won");
        assert_eq!(app.balance(&a.addr), 96_000);
    }

    #[test]
    fn state_hash_tracks_channel_lifecycle() {
        let a = party(1);
        let b = party(2);
        let mut app = funded_app(&[&a, &b]);
        let h0 = app.state_hash();
        deliver(
            &mut app,
            ChannelOp::Open {
                id: 0,
                a: a.addr,
                b: b.addr,
                key_a: a.kp.public_key(),
                key_b: b.kp.public_key(),
                fund_a: 1_000,
                fund_b: 1_000,
            },
        )
        .expect("open");
        let h1 = app.state_hash();
        assert_ne!(h0, h1);
        deliver(&mut app, ChannelOp::CoopClose { id: 0 }).expect("close");
        assert_ne!(h1, app.state_hash());
    }

    #[test]
    fn reset_restores_genesis() {
        let a = party(1);
        let b = party(2);
        let mut app = funded_app(&[&a, &b]);
        let genesis_hash = app.state_hash();
        deliver(
            &mut app,
            ChannelOp::Open {
                id: 0,
                a: a.addr,
                b: b.addr,
                key_a: a.kp.public_key(),
                key_b: b.kp.public_key(),
                fund_a: 1_000,
                fund_b: 0,
            },
        )
        .expect("open");
        app.reset();
        assert_eq!(app.state_hash(), genesis_hash);
        assert_eq!(app.balance(&a.addr), 100_000);
    }
}
