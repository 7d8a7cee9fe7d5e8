//! The on-chain payment-channel application (§5.4, \[30\]) behind the
//! ABCI-style [`Application`] interface: channel opens, closes, disputes,
//! and settlements ride *real* transactions through the mempool/commit
//! path of any consensus network, while balance updates stay off-chain
//! with the parties (a `dcs_scale::channels::PartyBook`), who submit a
//! dual-signed state only at close.
//!
//! The application *is* `dcs_scale`'s one [`Settlement`](ChannelApp) — the
//! "contract" that escrows funds at an open both parties signed, runs
//! dispute windows in block heights and pays out the co-signed or winning
//! state. This module only teaches it to be fed by a chain: the byte
//! boundary ([`ChannelOp::from_tx`]), the dispute clock (each block's
//! leading coinbase height), and reset-to-genesis for reorg replay. A
//! watchtower is just a client that submits [`ChannelOp::Challenge`] when
//! it sees a stale unilateral close committed — see `dcs_ledger`'s channel
//! workload, which drives this application for experiment E8.

use crate::Application;
use dcs_crypto::Hash256;
use dcs_primitives::Transaction;
pub use dcs_scale::channels::{
    ChannelOp, Settlement as ChannelApp, SettlementStats as ChannelAppStats,
};

impl Application for ChannelApp {
    fn deliver_tx(&mut self, tx: &Transaction) -> Result<(), String> {
        // Every consensus-built block leads with a coinbase stamped with
        // its height — the app's clock for dispute windows.
        if let Transaction::Coinbase { height, .. } = tx {
            self.observe_height(*height);
            return Ok(());
        }
        // Traffic for other apps/accounts is none of our business.
        let Some(decoded) = ChannelOp::from_tx(tx) else {
            return Ok(());
        };
        let op = decoded.map_err(|e| e.to_string())?;
        self.apply(op).map_err(|e| e.to_string())
    }

    // The two below forward to the settlement's inherent methods of the
    // same names (a path call resolves to those, never back to the trait).
    fn state_hash(&self) -> Hash256 {
        ChannelApp::state_hash(self)
    }

    fn reset(&mut self) {
        ChannelApp::reset(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_crypto::Address;
    use dcs_scale::channels::{PartyBook, Phase};

    /// A book with two parties, and an app funding each with 100 000.
    fn funded() -> (PartyBook, Address, Address, ChannelApp) {
        let mut book = PartyBook::default();
        let a = book.add_party([1; 32], 4);
        let b = book.add_party([2; 32], 4);
        let app = ChannelApp::new(10, &[(a, 100_000), (b, 100_000)]);
        (book, a, b, app)
    }

    /// Delivers `op` in a transaction sent by an account that is party to
    /// nothing: who submits an op must never matter, only who signed it.
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
    fn open_and_cooperative_close_settle_escrow() {
        let (mut book, a, b, mut app) = funded();
        deliver(&mut app, book.open(0, a, b, 10_000, 5_000).unwrap()).expect("open");
        assert_eq!(app.balance(&a), 90_000);
        assert_eq!(app.channel(0).unwrap().phase, Phase::Open);
        deliver(&mut app, book.coop_close(0).unwrap()).expect("close");
        assert_eq!(app.balance(&a), 100_000);
        assert_eq!(app.balance(&b), 100_000);
        assert_eq!(app.channel(0).unwrap().phase, Phase::Closed);
    }

    /// Regression: `CoopClose` used to carry no state, so every
    /// cooperative close paid out the *opening* split.
    #[test]
    fn cooperative_close_pays_the_latest_split() {
        let (mut book, a, b, mut app) = funded();
        deliver(&mut app, book.open(0, a, b, 10_000, 5_000).unwrap()).expect("open");
        book.pay(0, a, 4_000).unwrap();
        book.pay(0, b, 500).unwrap();
        deliver(&mut app, book.coop_close(0).unwrap()).expect("close");
        let s = &app;
        assert_eq!(s.balance(&a), 100_000 - 4_000 + 500);
        assert_eq!(s.balance(&b), 100_000 + 4_000 - 500);
        assert_eq!(
            s.balance(&a) + s.balance(&b),
            200_000,
            "Σ balances = Σ funding"
        );
    }

    /// Regression: `CoopClose { id }` used to be accepted from anyone.
    #[test]
    fn close_without_cosignatures_is_rejected() {
        let (mut book, a, b, mut app) = funded();
        deliver(&mut app, book.open(0, a, b, 10_000, 5_000).unwrap()).expect("open");
        book.pay(0, a, 4_000).unwrap();
        // A third account "closes" at the opening split, vouching for it
        // with signatures of its own.
        let mut mallory = PartyBook::default();
        let m = mallory.add_party([9; 32], 4);
        mallory.open(0, m, m, 10_000, 5_000).unwrap();
        let forged = mallory.coop_close(0).unwrap();
        let err = app.deliver_tx(&forged.into_tx(m, 0)).unwrap_err();
        assert!(err.contains("signature"), "{err}");
        // So does a party replaying the dual-signed *update* as a close.
        let replay = ChannelOp::CoopClose(book.signed_state(0).unwrap().clone());
        assert!(app.deliver_tx(&replay.into_tx(a, 0)).is_err());
        assert_eq!(app.stats.rejected, 2);
        assert_eq!(app.channel(0).unwrap().phase, Phase::Open, "still open");
        assert_eq!(app.balance(&a), 90_000, "escrow untouched");
    }

    #[test]
    fn underfunded_open_rejected_atomically() {
        let (mut book, a, b, mut app) = funded();
        // More than b has.
        let err = deliver(&mut app, book.open(0, a, b, 10_000, 200_000).unwrap());
        assert!(err.is_err());
        assert_eq!(app.balance(&a), 100_000, "a's escrow rolled back");
        assert_eq!(app.stats.rejected, 1);
    }

    #[test]
    fn stale_unilateral_close_loses_to_watchtower_challenge() {
        let (mut book, a, b, mut app) = funded();
        deliver(&mut app, book.open(0, a, b, 10_000, 0).unwrap()).expect("open");
        // Off-chain: a pays b 4000 (seq 1), then tries to cheat by
        // publishing the richer-for-a genesis state (seq 0).
        let stale = book.signed_state(0).unwrap().clone();
        book.pay(0, a, 4_000).unwrap();
        tick(&mut app, 1);
        deliver(&mut app, ChannelOp::UniClose(stale)).expect("unilateral close");
        let latest = book.signed_state(0).unwrap().clone();
        deliver(&mut app, ChannelOp::Challenge(latest)).expect("challenge in window");
        // Window (10 blocks from height 1) still open at 11, passed at 12.
        tick(&mut app, 11);
        assert!(deliver(&mut app, ChannelOp::Finalize { id: 0 }).is_err());
        tick(&mut app, 12);
        deliver(&mut app, ChannelOp::Finalize { id: 0 }).expect("finalize");
        assert_eq!(app.balance(&b), 104_000, "the newer state won");
        assert_eq!(app.balance(&a), 96_000);
    }

    #[test]
    fn foreign_and_malformed_traffic() {
        let (_, a, _, mut app) = funded();
        let genesis_hash = app.state_hash();
        let mut tx = dcs_primitives::AccountTx::transfer(a, Address::from_index(5), 1, 0);
        app.deliver_tx(&Transaction::Account(tx.clone()))
            .expect("not addressed to the app: ignored");
        tx.to = Some(ChannelOp::app_address());
        assert!(
            app.deliver_tx(&Transaction::Account(tx.clone())).is_err(),
            "no Data payload"
        );
        tx.payload = dcs_primitives::TxPayload::Data(vec![0xFF, 1, 2, 3]);
        assert!(
            app.deliver_tx(&Transaction::Account(tx)).is_err(),
            "bytes that decode to no op"
        );
        assert_eq!(app.state_hash(), genesis_hash, "undecodable ≠ rejected op");
    }

    #[test]
    fn state_hash_tracks_channel_lifecycle() {
        let (mut book, a, b, mut app) = funded();
        let h0 = app.state_hash();
        deliver(&mut app, book.open(0, a, b, 1_000, 1_000).unwrap()).expect("open");
        let h1 = app.state_hash();
        assert_ne!(h0, h1);
        deliver(&mut app, book.coop_close(0).unwrap()).expect("close");
        assert_ne!(h1, app.state_hash());
    }

    #[test]
    fn reset_restores_genesis() {
        let (mut book, a, b, mut app) = funded();
        let genesis_hash = app.state_hash();
        deliver(&mut app, book.open(0, a, b, 1_000, 0).unwrap()).expect("open");
        app.reset();
        assert_eq!(app.state_hash(), genesis_hash);
        assert_eq!(app.balance(&a), 100_000);
    }
}
