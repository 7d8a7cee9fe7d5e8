//! One settlement, two compositions, one answer.
//!
//! `dcs_scale::ChannelNetwork` applies channel ops to its settlement
//! directly; `dcs_middleware::ChannelApp` receives the same ops as encoded
//! transactions off a chain. Both are the one `Settlement`, so what this
//! compares is what lies between an op and it on each road: the op codec,
//! `into_tx` / `from_tx`, `deliver_tx`'s error mapping and coinbase clock
//! on one; the network's tx counting and party-book upkeep on the other.
//! Random histories — opens (some underfunded),
//! off-chain payments, cooperative closes, unilateral closes at the fresh
//! or a stale state, challenges, finalizations, height ticks, replayed and
//! tampered ops, stray bytes — must leave both with the same verdict per
//! op and the same balances, phases, counters and state hash, and must
//! never create or destroy value.
//!
//! The byte boundary under the second composition is pinned too:
//! `decode_all::<ChannelOp>` never panics on arbitrary bytes, and decoding
//! an encoded op gives the op back.

use dcs_crypto::codec::{decode_all, Encode};
use dcs_crypto::Address;
use dcs_middleware::{Application, ChannelApp, ChannelOp};
use dcs_primitives::{AccountTx, Transaction, TxPayload};
use dcs_scale::channels::{ChannelNetwork, Phase, SignedState};
use proptest::prelude::*;
use std::collections::BTreeMap;

const PARTIES: u64 = 3;
const FUNDS: u64 = 10_000;
const WINDOW: u64 = 4;

/// The two compositions side by side, plus what a cheating party keeps.
struct Pair {
    net: ChannelNetwork,
    app: ChannelApp,
    parties: Vec<Address>,
    /// Every op that went on-chain, for replays.
    log: Vec<ChannelOp>,
    /// A stale signed state per channel, for cheating closes.
    kept: BTreeMap<u64, SignedState>,
}

impl Pair {
    fn new() -> Self {
        let mut net = ChannelNetwork::new(WINDOW);
        let parties: Vec<Address> = (0..PARTIES)
            .map(|i| net.add_party([i as u8 + 1; 32], 6, FUNDS))
            .collect();
        let alloc: Vec<(Address, u64)> = parties.iter().map(|p| (*p, FUNDS)).collect();
        Pair {
            net,
            app: ChannelApp::new(WINDOW, &alloc),
            parties,
            log: Vec::new(),
            kept: BTreeMap::new(),
        }
    }

    /// The same op down both roads: applied directly, and delivered as an
    /// encoded transaction. Returns whether it was accepted.
    fn submit(&mut self, op: ChannelOp) -> bool {
        let tx = op.clone().into_tx(self.parties[0], self.log.len() as u64);
        let direct = self.net.apply(op.clone()).map_err(|e| e.to_string());
        let wired = self.app.deliver_tx(&tx);
        assert_eq!(direct, wired, "verdicts differ on {op:?}");
        self.log.push(op);
        direct.is_ok()
    }

    /// Picks a channel: half the time the newest (so histories build up on
    /// one), else any existing one or the unknown one past the end.
    fn pick(&self, x: u64) -> u64 {
        let count = self.net.settlement().channel_count() as u64;
        if x.is_multiple_of(2) {
            count.saturating_sub(1)
        } else {
            (x / 2) % (count + 1)
        }
    }

    /// One step of a history. `kind` says what to try; `x` picks the
    /// channel, `y` and `z` the parties, amounts and variants.
    fn step(&mut self, (kind, x, y, z): (u8, u64, u64, u64)) {
        let ch = self.pick(x);
        let phase = self.net.settlement().channel(ch).map(|c| c.phase.clone());
        // Payments are the bulk of every draw. Nobody pays over a channel
        // that is not open, so those draws move the history on instead:
        // fight the dispute, or open the next channel.
        let kind = match (kind, &phase) {
            (PAY_FIRST..=PAY_LAST, Some(Phase::Disputed { .. })) => {
                [CHALLENGE, FINALIZE, TICK][(z % 3) as usize]
            }
            (PAY_FIRST..=PAY_LAST, Some(Phase::Closed) | None) => OPEN,
            _ => kind,
        };
        match kind {
            OPEN => {
                let (a, b) = (
                    self.parties[(x % PARTIES) as usize],
                    self.parties[(y % PARTIES) as usize],
                );
                let id = self.net.settlement().channel_count() as u64;
                // Up to 5 000 a side out of 10 000: later opens run dry.
                // (An `Err` here is a party out of one-time keys.)
                if let Ok(op) = self.net.book_mut().open(id, a, b, y % 5_000, z % 5_000) {
                    self.submit(op);
                }
            }
            PAY_FIRST..=PAY_LAST => {
                // Mostly from one of the channel's own sides; an outsider
                // or an amount the side lacks changes nothing anywhere.
                let from = match self.net.settlement().channel(ch) {
                    Some(c) if y % 8 != 0 => [c.a, c.b][(y % 2) as usize],
                    _ => self.parties[(y % PARTIES) as usize],
                };
                // Whoever cheats later keeps the state this payment
                // supersedes (KEEP refreshes it).
                let before = self.net.signed_current_state(ch);
                if self.net.channel_pay(ch, from, z % 1_000).is_ok() {
                    self.kept.entry(ch).or_insert(before.expect("paid over it"));
                }
            }
            KEEP => {
                if let Ok(signed) = self.net.signed_current_state(ch) {
                    self.kept.insert(ch, signed);
                }
            }
            COOP_CLOSE => {
                if let Ok(op) = self.net.book_mut().coop_close(ch) {
                    self.submit(op);
                }
            }
            UNI_CLOSE | CHALLENGE => {
                // Published: the latest state, or the kept stale one —
                // mostly by the closer, now and then by the challenger.
                let stale = self.kept.get(&ch).cloned();
                let stale = stale.filter(|_| (y % 4 != 0) == (kind == UNI_CLOSE));
                if let Some(signed) = stale.or(self.net.signed_current_state(ch).ok()) {
                    self.submit(if kind == UNI_CLOSE {
                        ChannelOp::UniClose(signed)
                    } else {
                        ChannelOp::Challenge(signed)
                    });
                }
            }
            FINALIZE => {
                self.submit(ChannelOp::Finalize { id: ch });
            }
            TICK => {
                self.net.advance_height(1 + y % (WINDOW + 1));
                let height = self.net.settlement().height();
                let coinbase = Transaction::Coinbase {
                    to: Address::ZERO,
                    value: 0,
                    height,
                };
                self.app.deliver_tx(&coinbase).expect("coinbase applies");
            }
            REPLAY if !self.log.is_empty() => {
                // Replay an earlier op; with z odd, a co-signed state is
                // first altered, or re-labelled as an agreed close.
                let mut op = self.log[(y % self.log.len() as u64) as usize].clone();
                if z % 2 == 1 {
                    op = match op {
                        ChannelOp::CoopClose((mut state, sig_a, sig_b)) => {
                            state.balance_a = state.balance_a.wrapping_add(z);
                            ChannelOp::CoopClose((state, sig_a, sig_b))
                        }
                        ChannelOp::UniClose(signed) | ChannelOp::Challenge(signed) => {
                            ChannelOp::CoopClose(signed)
                        }
                        other => other,
                    };
                }
                self.submit(op);
            }
            _ => {
                // Stray bytes addressed to the app: an op only if they
                // happen to decode to one.
                let words: Vec<u8> = [x, y, z].iter().flat_map(|w| w.to_le_bytes()).collect();
                let bytes = &words[..(z % 25) as usize];
                match decode_all::<ChannelOp>(bytes) {
                    Ok(op) => {
                        self.submit(op);
                    }
                    Err(_) => {
                        let mut tx = AccountTx::transfer(self.parties[0], self.parties[0], 0, 0);
                        tx.to = Some(ChannelOp::app_address());
                        tx.payload = TxPayload::Data(bytes.to_vec());
                        assert!(self.app.deliver_tx(&Transaction::Account(tx)).is_err());
                    }
                }
            }
        }
    }
}

// Step kinds, as drawn from `0..KINDS`.
const OPEN: u8 = 0;
const PAY_FIRST: u8 = 1;
const PAY_LAST: u8 = 7;
const KEEP: u8 = 8;
const COOP_CLOSE: u8 = 9;
const UNI_CLOSE: u8 = 10;
const CHALLENGE: u8 = 11;
const FINALIZE: u8 = 12;
const TICK: u8 = 13;
const REPLAY: u8 = 14;
const KINDS: u8 = 16; // 15: stray bytes

proptest! {
    // Each case generates three 64-leaf WOTS keys and signs every update:
    // seconds per case unoptimised, milliseconds in release, which is how
    // CI's scale-smoke job runs it.
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 12 } else { 256 }
    ))]

    #[test]
    fn direct_and_wired_settlement_agree(
        steps in proptest::collection::vec(
            (0..KINDS, any::<u64>(), any::<u64>(), any::<u64>()),
            1..64,
        ),
    ) {
        let mut pair = Pair::new();
        for step in steps {
            pair.step(step);
        }
        let (direct, wired) = (pair.net.settlement(), &pair.app);
        prop_assert_eq!(direct.stats, wired.stats);
        prop_assert_eq!(direct.height(), wired.height());
        let mut escrowed = 0u64;
        for id in 0..direct.channel_count() as u64 {
            let d = direct.channel(id).expect("dense ids");
            let w = wired.channel(id).expect("same opens");
            prop_assert_eq!(&d.phase, &w.phase);
            prop_assert_eq!(&d.state, &w.state);
            if d.phase != Phase::Closed {
                escrowed += d.capacity();
            }
        }
        let mut onchain = 0u64;
        for p in &pair.parties {
            prop_assert_eq!(direct.balance(p), wired.balance(p));
            onchain += direct.balance(p);
        }
        prop_assert_eq!(direct.state_hash(), Application::state_hash(wired));
        // No history creates or destroys value…
        prop_assert_eq!(onchain + escrowed, PARTIES * FUNDS);
        // …and every accepted op, and only those, cost one on-chain tx.
        let s = direct.stats;
        prop_assert_eq!(
            pair.net.onchain_txs,
            s.opens + s.coop_closes + s.uni_closes + s.challenges + s.finalized
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn op_decoder_survives_arbitrary_bytes(
        tag in 0u8..8,
        body in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&body);
        if let Ok(op) = decode_all::<ChannelOp>(&bytes) {
            // Whatever decodes re-encodes to the bytes it came from.
            prop_assert_eq!(op.encoded(), bytes);
        }
    }
}

#[test]
fn encoded_ops_decode_to_themselves() {
    // A history that produces every op kind, signatures included.
    let mut pair = Pair::new();
    for step in [
        (OPEN, 0, 1, 500),
        (OPEN, 1, 2, 900),
        (PAY_FIRST, 0, 1, 40),
        (PAY_FIRST, 0, 1, 7),
        (COOP_CLOSE, 1, 0, 0),
        (UNI_CLOSE, 0, 1, 0),
        (CHALLENGE, 0, 1, 0),
        (TICK, 0, WINDOW, 0),
        (FINALIZE, 0, 0, 0),
    ] {
        pair.step(step);
    }
    let s = pair.app.stats;
    assert_eq!(
        (
            s.opens,
            s.coop_closes,
            s.uni_closes,
            s.challenges,
            s.finalized
        ),
        (2, 1, 1, 1, 1)
    );
    for op in &pair.log {
        assert_eq!(decode_all::<ChannelOp>(&op.encoded()).as_ref(), Ok(op));
        let tx = op.clone().into_tx(pair.parties[1], 3);
        assert_eq!(ChannelOp::from_tx(&tx), Some(Ok(op.clone())));
        // Truncation anywhere is an error, never a panic or a shorter op.
        let bytes = op.encoded();
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_all::<ChannelOp>(&bytes[..cut]).is_err());
        }
    }
}
