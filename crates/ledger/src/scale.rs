//! Scale-out workloads wired into the full stack (PR 10).
//!
//! [`run_channel_workload`] drives the middleware payment-channel
//! application ([`dcs_middleware::ChannelApp`]) through a real ordering
//! consensus network: channel opens, unilateral/cooperative closes,
//! watchtower challenges, and settlements all travel the mempool → batch →
//! block → commit path, while payments stay off-chain in the driver's
//! [`PartyBook`] (which holds every party's keys, simulating all clients).
//! The topology is a hub and its spokes, as in the Lightning network:
//! party 0 holds one channel to every other party, and every payment
//! between two spokes is routed through it. The book learns each
//! channel's phase from peer 0's committed settlement after every phase of
//! the run, so what the report counts on-chain — ops, bytes, dispute
//! outcomes — is what that peer's chain holds. The watchtower is
//! honest-by-construction here: it reads committed blocks off a peer,
//! spots stale unilateral closes, and answers them with the newest
//! dual-signed state inside the dispute window.
//!
//! Everything is scheduled deterministically from the seed, so two runs
//! with the same parameters produce bit-identical dispute outcomes and
//! application state hashes — the replay gate in `tests/determinism.rs`.

use crate::builders::{build, NetworkParams, Ordering};
use dcs_chain::StateMachine;
use dcs_consensus::ordering::OrderingNode;
use dcs_consensus::{approx_tx_size, wire_size, WireMsg};
use dcs_crypto::{Address, Hash256};
use dcs_middleware::{AppAdapter, ChannelApp, ChannelAppStats, ChannelOp};
use dcs_net::{NodeId, Runner};
use dcs_primitives::{Amount, ChainConfig, ConsensusKind, SealedTx, Transaction, TxPayload};
use dcs_scale::channels::{ChannelError, ChannelState, PartyBook, Phase};
use dcs_sim::{Rng, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Parameters of the channel workload.
#[derive(Debug, Clone)]
pub struct ChannelWorkloadParams {
    /// Consensus peers.
    pub nodes: usize,
    /// Channel parties (the driver holds all their keys): party 0 is the
    /// hub, and each of the others a spoke with one channel to it.
    pub parties: usize,
    /// Off-chain payments between random distinct parties, each routed
    /// through the hub unless it is one end; one with no route is skipped.
    pub payments: u64,
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
            payments: 24,
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
    /// Payments that found a route (the rest were skipped).
    pub routed_payments: u64,
    /// Off-chain state updates the driver exchanged (never hit the chain):
    /// one per hop of every routed payment.
    pub offchain_updates: u64,
    /// Channel operations committed on-chain.
    pub onchain_ops: u64,
    /// Summed wire size of those committed channel-op transactions.
    pub onchain_bytes: u64,
    /// Stale unilateral closes attempted by cheating closers.
    pub cheats_attempted: u64,
    /// Cheats the watchtower challenged (it publishes the newest state).
    pub cheats_punished: u64,
    /// For each committed challenge, the heights from the block holding
    /// the stale close it answers to the block holding it.
    pub dispute_heights: Vec<u64>,
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

type Node = OrderingNode<AppAdapter<ChannelApp>>;

/// Injects one transaction at `at`, attributed to a deterministic peer.
fn inject(net: &mut dcs_net::Network<WireMsg>, at: SimTime, node: NodeId, tx: Transaction) {
    let sealed = SealedTx::new(Arc::new(tx));
    let msg = WireMsg::Tx(sealed);
    let size = wire_size(&msg);
    net.inject(at, node, msg, size);
}

/// Peer 0's committed channel ops, each with the height of its block and
/// the wire size of its transaction.
fn committed_ops(node: &Node) -> Vec<(u64, usize, ChannelOp)> {
    let chain = &node.core.chain;
    (1..=chain.height())
        .filter_map(|h| Some((h, chain.tree().get(&chain.canonical_at(h)?)?)))
        .flat_map(|(h, stored)| stored.block().txs.iter().map(move |tx| (h, tx)))
        .filter_map(|(h, tx)| Some((h, approx_tx_size(tx), ChannelOp::from_tx(tx)?.ok()?)))
        .collect()
}

/// Runs the network to `until` (µs), then shows the parties where each of
/// the `channels` stands in peer 0's committed settlement. Returns the
/// events processed.
fn run_phase(runner: &mut Runner<Node>, book: &mut PartyBook, channels: u64, until: u64) -> u64 {
    let events = runner.run_until(SimTime::from_micros(until));
    let settled = runner.node(NodeId(0)).core.chain.machine().app();
    for id in 0..channels {
        book.observe(id, settled.channel(id).map(|ch| &ch.phase));
    }
    events
}

/// Runs the full channel lifecycle over an ordering network. Deterministic
/// in `(params, seed)`.
pub fn run_channel_workload(params: &ChannelWorkloadParams, seed: u64) -> ChannelRunReport {
    let mut rng = Rng::seed_from(seed ^ 0x5ca1_ab1e);
    let channels = params.parties as u64 - 1;

    // Each party signs at most one funding state and one cooperative
    // close per channel it is in, and one update per hop it is on: the
    // hub is in every channel, and on both hops of a routed payment.
    let signatures = 2 * channels + 2 * params.payments;
    let key_height = signatures.next_power_of_two().trailing_zeros() as u8;
    // The book owns every party's signing keys (the driver simulates all
    // clients and doubles as the watchtower).
    let mut book = PartyBook::default();
    let parties: Vec<Address> = (0..params.parties)
        .map(|i| {
            let mut key_seed = [0u8; 32];
            key_seed[..8].copy_from_slice(&seed.to_le_bytes());
            key_seed[8] = i as u8 + 1;
            book.add_party(key_seed, key_height)
        })
        .collect();
    let alloc: Vec<(Address, Amount)> = parties.iter().map(|a| (*a, params.funding)).collect();
    let (hub, spoke) = (parties[0], |id: u64| parties[id as usize + 1]);

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
    let peer = |rng: &mut Rng| NodeId(rng.below(params.nodes as u64) as usize);

    // Phase 1 — the hub opens channel `id` to spoke `id + 1`, each side
    // escrowing a `1 / parties` share of its funding, so the hub's shares
    // add up to less than its own.
    let deposit = params.funding / params.parties as u64;
    for id in 0..channels {
        let op = book
            .open(id, hub, spoke(id), deposit, deposit)
            .expect("key budget sized");
        let at = SimTime::from_micros(10_000 + id * 3_000);
        let tx = op.into_tx(hub, next_nonce(hub));
        inject(runner.net_mut(), at, peer(&mut rng), tx);
    }
    events += run_phase(&mut runner, &mut book, channels, 600_000);

    // Phase 2 — off-chain payments: dual-signed updates, no transactions.
    // At the midpoint, cheating channels (every odd one) squirrel away the
    // then-current state to publish later.
    let mut stale = BTreeMap::new();
    let mut routed_payments = 0u64;
    let mut offchain_updates = 0u64;
    for p in 0..params.payments {
        if p == params.payments / 2 {
            for id in (1..channels).step_by(2) {
                if let Ok(kept) = book.signed_state(id) {
                    stale.insert(id, kept.clone());
                }
            }
        }
        let from = rng.below(params.parties as u64);
        let mut to = rng.below(params.parties as u64 - 1);
        to += u64::from(to >= from);
        let amount = 1 + rng.below(500);
        match book.route(parties[from as usize], parties[to as usize], amount) {
            Ok(hops) => {
                routed_payments += 1;
                offchain_updates += hops as u64;
            }
            Err(ChannelError::NoRoute) => {}
            Err(e) => panic!("key budget sized: {e}"),
        }
    }

    // Phase 3 — closes, each submitted by its spoke: a cheating channel
    // whose state moved on since the midpoint publishes the stale state;
    // every other closes cooperatively at the latest. What the parties
    // agreed last is kept for the payout check (the book drops a channel
    // once it sees it closed).
    let mut agreed: BTreeMap<u64, ChannelState> = BTreeMap::new();
    let mut cheats_attempted = 0u64;
    for id in 0..channels {
        let Ok((latest, ..)) = book.signed_state(id) else {
            continue; // its open never committed
        };
        agreed.insert(id, latest.clone());
        let cheat = stale.remove(&id).filter(|kept| kept.0.seq < latest.seq);
        cheats_attempted += u64::from(cheat.is_some());
        let op = match cheat {
            Some(kept) => ChannelOp::UniClose(kept),
            None => book.coop_close(id).expect("key budget sized"),
        };
        let at = SimTime::from_micros(700_000 + id * 3_000);
        let tx = op.into_tx(spoke(id), next_nonce(spoke(id)));
        inject(runner.net_mut(), at, peer(&mut rng), tx);
    }
    events += run_phase(&mut runner, &mut book, channels, 1_400_000);

    // Phase 4 — the watchtower reads committed blocks off peer 0 and, for
    // the hub, challenges every published state older than what it
    // co-signed.
    let mut disputed = Vec::new();
    for (_, _, op) in committed_ops(runner.node(NodeId(0))) {
        let ChannelOp::UniClose((published, ..)) = op else {
            continue;
        };
        let id = published.channel_id;
        let latest = book
            .signed_state(id)
            .expect("a disputed channel stays tracked");
        if published.seq < latest.0.seq {
            let challenge = ChannelOp::Challenge(latest.clone());
            let at = SimTime::from_micros(1_450_000 + disputed.len() as u64 * 3_000);
            disputed.push(id);
            let tx = challenge.into_tx(hub, next_nonce(hub));
            inject(runner.net_mut(), at, peer(&mut rng), tx);
        }
    }
    let cheats_punished = disputed.len() as u64;

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
    events += run_phase(&mut runner, &mut book, channels, settle_start);

    // Phase 5 — the hub finalizes every disputed channel past its window.
    for (i, &id) in (0..).zip(&disputed) {
        let tx = ChannelOp::Finalize { id }.into_tx(hub, next_nonce(hub));
        let at = SimTime::from_micros(settle_start + 50_000 + i * 3_000);
        inject(runner.net_mut(), at, peer(&mut rng), tx);
    }
    events += run_phase(&mut runner, &mut book, channels, settle_start + 800_000);

    let node0 = runner.node(NodeId(0));
    let settled = node0.core.chain.machine().app();
    let payout_mismatches = (0..channels)
        .filter(|id| {
            let ch = settled.channel(*id);
            let paid = |latest: &ChannelState| {
                ch.is_some_and(|ch| ch.phase == Phase::Closed && ch.state == *latest)
            };
            !agreed.get(id).is_some_and(paid)
        })
        .count() as u64;
    let ops = committed_ops(node0);
    let mut closed_at = BTreeMap::new();
    let mut dispute_heights = Vec::new();
    for (height, _, op) in &ops {
        match op {
            ChannelOp::UniClose((state, ..)) => {
                closed_at.insert(state.channel_id, *height);
            }
            ChannelOp::Challenge((state, ..)) => {
                if let Some(closed) = closed_at.get(&state.channel_id) {
                    dispute_heights.push(height - closed);
                }
            }
            _ => {}
        }
    }
    ChannelRunReport {
        app_stats: settled.stats,
        state_hash: node0.core.chain.machine().state_root(),
        routed_payments,
        offchain_updates,
        onchain_ops: ops.len() as u64,
        onchain_bytes: ops.iter().map(|(_, bytes, _)| *bytes as u64).sum(),
        cheats_attempted,
        cheats_punished,
        dispute_heights,
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
        assert_eq!(report.app_stats.opens, params.parties as u64 - 1);
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
        // Read off the chain: one dispute distance per challenge, each
        // inside the window, and the bytes of every committed op.
        assert_eq!(report.dispute_heights.len() as u64, report.cheats_punished);
        assert!(report
            .dispute_heights
            .iter()
            .all(|&d| d <= params.dispute_window));
        let signed_ops = report.onchain_ops - report.app_stats.finalized;
        assert!(
            report.onchain_bytes > signed_ops * 4_000,
            "two signatures an op"
        );
        // The whole point: payments vastly outnumber on-chain ops.
        assert!(report.routed_payments > report.onchain_ops);
        assert!(
            report.offchain_updates > report.routed_payments,
            "spokes pay via the hub"
        );
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
