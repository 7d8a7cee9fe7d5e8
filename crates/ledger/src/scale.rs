//! Scale-out workloads wired into the full stack (PR 10).
//!
//! [`run_channel_workload`] drives the middleware payment-channel
//! application ([`dcs_middleware::ChannelApp`]) through a real ordering
//! consensus network: channel opens, unilateral/cooperative closes,
//! watchtower challenges, and settlements all travel the mempool → batch →
//! block → commit path, while payments stay off-chain in the driver's
//! [`PartyBook`] (which holds every party's keys, simulating all clients)
//! — the same book and the same settlement the in-process
//! `dcs_scale::ChannelNetwork` composes without a network in between. The
//! watchtower is honest-by-construction here: it reads committed blocks off
//! a peer, spots stale unilateral closes, and answers them with the newest
//! dual-signed state inside the dispute window.
//!
//! Everything is scheduled deterministically from the seed, so two runs
//! with the same parameters produce bit-identical dispute outcomes and
//! application state hashes — the replay gate in `tests/determinism.rs`.

use crate::builders::{build, NetworkParams, Ordering};
use dcs_chain::StateMachine;
use dcs_consensus::ordering::OrderingNode;
use dcs_consensus::{wire_size, WireMsg};
use dcs_crypto::{Address, Hash256};
use dcs_middleware::{AppAdapter, ChannelApp, ChannelAppStats, ChannelOp};
use dcs_net::NodeId;
use dcs_primitives::{Amount, ChainConfig, ConsensusKind, SealedTx, Transaction, TxPayload};
use dcs_scale::channels::{ChannelError, PartyBook, Phase, SignedState};
use dcs_sim::{Rng, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Parameters of the channel workload.
#[derive(Debug, Clone)]
pub struct ChannelWorkloadParams {
    /// Consensus peers.
    pub nodes: usize,
    /// Channel parties (the driver holds all their keys).
    pub parties: usize,
    /// Channels to open.
    pub channels: u64,
    /// Off-chain payments exchanged per channel before closing.
    pub payments_per_channel: u64,
    /// Dispute window, in block heights.
    pub dispute_window: u64,
    /// Per-party on-chain funding.
    pub funding: Amount,
    /// Event-engine worker override (None = serial).
    pub engine_workers: Option<usize>,
}

impl Default for ChannelWorkloadParams {
    fn default() -> Self {
        ChannelWorkloadParams {
            nodes: 4,
            parties: 6,
            channels: 4,
            payments_per_channel: 8,
            dispute_window: 6,
            funding: 1_000_000,
            engine_workers: None,
        }
    }
}

/// Outcome of a channel-workload run.
#[derive(Debug, Clone)]
pub struct ChannelRunReport {
    /// The channel application's op counters (read off peer 0).
    pub app_stats: ChannelAppStats,
    /// The application state hash at the end of the run — the replay gate.
    pub state_hash: Hash256,
    /// Off-chain state updates the driver exchanged (never hit the chain).
    pub offchain_updates: u64,
    /// Channel operations committed on-chain.
    pub onchain_ops: u64,
    /// Stale unilateral closes attempted by cheating closers.
    pub cheats_attempted: u64,
    /// Cheats the watchtower successfully challenged (newer state won).
    pub cheats_punished: u64,
    /// Channels not closed, or closed at a split other than the latest one
    /// their parties co-signed off-chain — 0 when every payment counted.
    pub payout_mismatches: u64,
    /// Sum of the parties' on-chain balances at the end of the run; with
    /// every channel closed it equals `parties × funding`.
    pub onchain_total: Amount,
    /// Chain height on peer 0 at the end of the run.
    pub height: u64,
    /// Simulated events processed.
    pub events: u64,
}

/// Injects one transaction at `at`, attributed to a deterministic peer.
fn inject(net: &mut dcs_net::Network<WireMsg>, at: SimTime, node: NodeId, tx: Transaction) {
    let sealed = SealedTx::new(Arc::new(tx));
    let msg = WireMsg::Tx(sealed);
    let size = wire_size(&msg);
    net.inject(at, node, msg, size);
}

/// Scans peer 0's canonical chain for committed channel ops.
fn committed_ops(node: &OrderingNode<AppAdapter<ChannelApp>>) -> Vec<ChannelOp> {
    let chain = &node.core.chain;
    (1..=chain.height())
        .filter_map(|h| chain.tree().get(&chain.canonical_at(h)?))
        .flat_map(|stored| stored.block().txs.iter())
        .filter_map(|tx| ChannelOp::from_tx(tx)?.ok())
        .collect()
}

/// Runs the full channel lifecycle over an ordering network. Deterministic
/// in `(params, seed)`.
pub fn run_channel_workload(params: &ChannelWorkloadParams, seed: u64) -> ChannelRunReport {
    let mut rng = Rng::seed_from(seed ^ 0x5ca1_ab1e);

    // The book owns every party's signing keys (the driver simulates all
    // clients and doubles as the watchtower).
    let mut book = PartyBook::default();
    let parties: Vec<Address> = (0..params.parties)
        .map(|i| {
            let mut key_seed = [0u8; 32];
            key_seed[..8].copy_from_slice(&seed.to_le_bytes());
            key_seed[8] = i as u8 + 1;
            // Height 7 = 128 one-time keys per party; a party co-signs at
            // most (channels × (2 + payments)) digests — the funding state,
            // every update, one close — well under that.
            book.add_party(key_seed, 7)
        })
        .collect();
    let alloc: Vec<(Address, Amount)> = parties.iter().map(|a| (*a, params.funding)).collect();

    let window = params.dispute_window;
    // The ordering preset's LAN consortium, cutting small batches.
    let network = NetworkParams {
        nodes: params.nodes,
        chain: ChainConfig {
            consensus: ConsensusKind::Ordering {
                batch_size: 16,
                batch_timeout_us: 100_000,
                rotate_every: 0,
            },
            ..ChainConfig::hyperledger_like()
        },
        ..NetworkParams::<Ordering>::default()
    };
    let mut runner = build(&network, seed, |_| {
        AppAdapter::new(ChannelApp::new(window, &alloc))
    });
    if let Some(w) = params.engine_workers {
        runner.set_shards(w);
    }

    let mut nonces: BTreeMap<Address, u64> = BTreeMap::new();
    let mut next_nonce = |from: Address| {
        let nonce = nonces.entry(from).or_insert(0);
        *nonce += 1;
        *nonce - 1
    };
    let mut events = 0u64;
    let mut offchain_updates = 0u64;
    let peer = |rng: &mut Rng| NodeId(rng.below(params.nodes as u64) as usize);

    // Phase 1 — open channels between random distinct party pairs; the
    // `a` side of each submits its channel's on-chain ops.
    let mut ends: Vec<(Address, Address)> = Vec::new();
    for id in 0..params.channels {
        let a = rng.below(params.parties as u64) as usize;
        let mut b = rng.below(params.parties as u64) as usize;
        if b == a {
            b = (a + 1) % params.parties;
        }
        let (a, b) = (parties[a], parties[b]);
        let fund_a = 5_000 + rng.below(5_000);
        let fund_b = 1_000 + rng.below(5_000);
        let op = book
            .open(id, a, b, fund_a, fund_b)
            .expect("key budget sized");
        ends.push((a, b));
        let at = SimTime::from_micros(10_000 + id * 3_000);
        let tx = op.into_tx(a, next_nonce(a));
        inject(runner.net_mut(), at, peer(&mut rng), tx);
    }
    events += runner.run_until(SimTime::from_micros(600_000));

    // Phase 2 — off-chain payments: dual-signed updates, no transactions.
    // Halfway through, cheating channels (every odd one) squirrel away the
    // then-current state to publish later.
    let mut stale: BTreeMap<u64, SignedState> = BTreeMap::new();
    for (id, &(a, b)) in (0..).zip(&ends) {
        let half = params.payments_per_channel / 2;
        for p in 0..params.payments_per_channel {
            // Alternate direction; skip a payment its side cannot afford.
            let amount = 1 + rng.below(500);
            let from = if p % 2 == 0 { a } else { b };
            match book.pay(id, from, amount) {
                Ok(()) => offchain_updates += 1,
                Err(ChannelError::BadState(_)) => continue,
                Err(e) => panic!("key budget sized: {e}"),
            }
            if p + 1 == half && id % 2 == 1 {
                let kept = book.signed_state(id).expect("opened above");
                stale.insert(id, kept.clone());
            }
        }
    }

    // Phase 3 — closes: even channels cooperatively at the latest state,
    // odd ones publish the stale mid-stream state (the cheat).
    let cheats_attempted = stale.len() as u64;
    for (id, &(a, _)) in (0..).zip(&ends) {
        let op = match stale.remove(&id) {
            Some(kept) => ChannelOp::UniClose(kept),
            None => book.coop_close(id).expect("key budget sized"),
        };
        let at = SimTime::from_micros(700_000 + id * 3_000);
        let tx = op.into_tx(a, next_nonce(a));
        inject(runner.net_mut(), at, peer(&mut rng), tx);
    }
    events += runner.run_until(SimTime::from_micros(1_400_000));

    // Phase 4 — the watchtower reads committed blocks off peer 0 and
    // challenges every published state older than what it co-signed.
    let mut cheats_punished = 0u64;
    for op in committed_ops(runner.node(NodeId(0))) {
        let ChannelOp::UniClose((published, ..)) = op else {
            continue;
        };
        let id = published.channel_id;
        let latest = book.signed_state(id).expect("driver opened every channel");
        if published.seq < latest.0.seq {
            let challenge = ChannelOp::Challenge(latest.clone());
            let b = ends[id as usize].1;
            let at = SimTime::from_micros(1_450_000 + cheats_punished * 3_000);
            cheats_punished += 1;
            let tx = challenge.into_tx(b, next_nonce(b));
            inject(runner.net_mut(), at, peer(&mut rng), tx);
        }
    }

    // Filler traffic advances the chain height through the dispute window
    // (an idle ordering chain cuts no blocks, so height would stall).
    let filler_from = Address::from_index(0xF111);
    for i in 0..(window + 3) {
        let nonce = next_nonce(filler_from);
        let mut tx = dcs_primitives::AccountTx::transfer(filler_from, filler_from, 0, nonce);
        tx.gas_limit = 0;
        tx.gas_price = 0;
        tx.payload = TxPayload::Data(vec![0xCC; 8]);
        let at = SimTime::from_micros(1_500_000 + i * 150_000);
        inject(
            runner.net_mut(),
            at,
            peer(&mut rng),
            Transaction::Account(tx),
        );
    }
    let settle_start = 1_500_000 + (window + 3) * 150_000 + 200_000;
    events += runner.run_until(SimTime::from_micros(settle_start));

    // Phase 5 — finalize every disputed channel past its window.
    for (id, &(_, b)) in (0..).zip(&ends) {
        if id % 2 == 0 {
            continue;
        }
        let tx = ChannelOp::Finalize { id }.into_tx(b, next_nonce(b));
        let at = SimTime::from_micros(settle_start + 50_000 + id * 3_000);
        inject(runner.net_mut(), at, peer(&mut rng), tx);
    }
    events += runner.run_until(SimTime::from_micros(settle_start + 800_000));

    let node0 = runner.node(NodeId(0));
    let settled = node0.core.chain.machine().app();
    let payout_mismatches = (0..params.channels)
        .filter(|&id| {
            let (latest, ..) = book.signed_state(id).expect("driver opened every channel");
            !settled
                .channel(id)
                .is_some_and(|ch| ch.phase == Phase::Closed && ch.state == *latest)
        })
        .count() as u64;
    ChannelRunReport {
        app_stats: settled.stats,
        state_hash: node0.core.chain.machine().state_root(),
        offchain_updates,
        onchain_ops: committed_ops(node0).len() as u64,
        cheats_attempted,
        cheats_punished,
        payout_mismatches,
        onchain_total: parties.iter().map(|a| settled.balance(a)).sum(),
        height: node0.core.chain.height(),
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_lifecycle_commits_through_consensus() {
        let params = ChannelWorkloadParams::default();
        let report = run_channel_workload(&params, 42);
        assert_eq!(report.app_stats.opens, params.channels);
        assert!(report.app_stats.coop_closes > 0, "even channels settled");
        assert!(report.cheats_attempted > 0, "odd channels cheated");
        assert_eq!(
            report.cheats_punished, report.cheats_attempted,
            "the watchtower answered every stale close"
        );
        assert_eq!(
            report.app_stats.challenges, report.cheats_punished,
            "every challenge committed"
        );
        assert_eq!(
            report.app_stats.finalized, report.app_stats.uni_closes,
            "every dispute settled"
        );
        // The whole point: payments vastly outnumber on-chain ops.
        assert!(report.offchain_updates > report.onchain_ops);
        // …and every one of them counted: cooperative closes and won
        // disputes alike paid out the latest co-signed split.
        assert_eq!(report.payout_mismatches, 0);
        assert_eq!(
            report.onchain_total,
            params.parties as u64 * params.funding,
            "Σ balances = Σ funding"
        );
    }

    #[test]
    fn same_seed_same_dispute_outcomes() {
        let params = ChannelWorkloadParams::default();
        let a = run_channel_workload(&params, 7);
        let b = run_channel_workload(&params, 7);
        assert_eq!(a.state_hash, b.state_hash, "replay diverged");
        assert_eq!(a.app_stats, b.app_stats);
        assert_eq!(a.height, b.height);
    }
}
