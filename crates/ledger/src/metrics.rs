//! The DCS measurement suite (§2.7): given a finished simulation, quantify
//!
//! * **Scalability** — committed throughput (tps), commit latency;
//! * **Consistency** — stale-block rate, reorg count/depth, replica
//!   agreement;
//! * **Decentralization** — Gini and Nakamoto coefficients over who
//!   actually produced the canonical chain.

use crate::LedgerNode;
use dcs_crypto::Hash256;
use dcs_primitives::Transaction;
use dcs_sim::{gini, nakamoto_coefficient, SimDuration, SimTime, Summary};
use std::collections::{BTreeMap, HashMap};

/// Everything measured from one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Simulated horizon used for rate computation.
    pub horizon: SimDuration,
    /// Transactions on the reference node's canonical chain (no coinbases).
    pub committed_txs: u64,
    /// Committed transactions per simulated second.
    pub tps: f64,
    /// Submit→commit latency of committed transactions (seconds).
    pub latency: Summary,
    /// Canonical chain length (blocks, excluding genesis).
    pub canonical_blocks: u64,
    /// All blocks the reference node ever saw.
    pub total_blocks: u64,
    /// Blocks off the canonical chain (stale/uncle blocks).
    pub stale_blocks: u64,
    /// Stale fraction: stale / total non-genesis blocks.
    pub stale_rate: f64,
    /// Mean canonical inter-block time (seconds).
    pub mean_block_interval: f64,
    /// Branch switches observed by the reference node.
    pub reorgs: u64,
    /// Deepest revert observed.
    pub max_reorg_depth: u64,
    /// Gossiped blocks rejected at import, summed over all peers.
    pub rejected_blocks: u64,
    /// Broken internal invariants survived at runtime (chain-manager and
    /// node-core counters), summed over all peers. Zero on a healthy run.
    pub internal_errors: u64,
    /// Sync requests re-sent after a timeout or a `BlockNotFound`, summed
    /// over all peers.
    pub sync_retries: u64,
    /// Catch-up pages requested by recovering nodes, summed over all peers.
    pub catchup_rounds: u64,
    /// True when all replicas agree on the chain up to the confirmation
    /// depth.
    pub replicas_agree: bool,
    /// Canonical blocks produced per peer.
    pub proposer_counts: Vec<u64>,
    /// Gini coefficient over `proposer_counts` (0 = equal).
    pub proposer_gini: f64,
    /// Nakamoto coefficient over `proposer_counts` (higher = more
    /// decentralized).
    pub nakamoto: usize,
    /// Total consensus work expended (hash attempts or lottery draws).
    pub work_expended: f64,
    /// Work per committed canonical block.
    pub work_per_block: f64,
}

impl core::fmt::Display for SimResult {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "tps={:.2} lat_mean={:.2}s blocks={} stale={:.1}% reorgs={} agree={} gini={:.2} nakamoto={}",
            self.tps,
            self.latency.mean(),
            self.canonical_blocks,
            self.stale_rate * 100.0,
            self.reorgs,
            self.replicas_agree,
            self.proposer_gini,
            self.nakamoto,
        )
    }
}

/// Collects a [`SimResult`] from the finished nodes. `submitted` maps
/// transaction ids to submission instants (from `Workload::inject`);
/// `horizon` is the denominator for throughput. The map is only ever
/// looked up by id, never iterated, so its hash order cannot reach a result;
/// it stays a `HashMap` because that type is in this signature and the
/// frozen `benchmark/` package passes one.
///
/// # Panics
///
/// Panics if `nodes` is empty.
pub fn collect<P: LedgerNode>(
    nodes: &[P],
    submitted: &HashMap<Hash256, SimTime>,
    horizon: SimDuration,
) -> SimResult {
    assert!(!nodes.is_empty(), "need at least one node to measure");
    let reference = nodes[0].core();
    let chain = &reference.chain;

    // Throughput comes from the chain's incrementally maintained stats —
    // O(1) instead of a full canonical walk per sample.
    let committed_txs = chain.canon_stats().committed_txs;

    // Latency + proposer census over the canonical chain. Proposers and
    // timestamps come from headers (retained even by pruning stores);
    // latency needs bodies and skips blocks whose bodies were pruned.
    let mut latency = Summary::new();
    let mut proposer_counts = vec![0u64; nodes.len()];
    let mut timestamps = Vec::new();
    let address_to_index: BTreeMap<_, _> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n.core().address, i))
        .collect();
    for hash in chain.canonical().iter().skip(1) {
        let sb = chain.tree().get(hash).expect("canonical stored");
        timestamps.push(sb.header().timestamp_us);
        if let Some(&i) = address_to_index.get(&sb.header().proposer) {
            proposer_counts[i] += 1;
        }
        let commit_time = SimTime::from_micros(sb.header().timestamp_us);
        let Some(block) = sb.body() else { continue };
        for (tx, id) in block.txs.iter().zip(block.tx_ids()) {
            if matches!(tx, Transaction::Coinbase { .. }) {
                continue;
            }
            if let Some(&sub) = submitted.get(id) {
                latency.record(commit_time.saturating_since(sub).as_secs_f64());
            }
        }
    }

    let canonical_blocks = chain.canonical().len() as u64 - 1;
    let total_blocks = chain.tree().len() as u64 - 1;
    let stale_blocks = total_blocks - canonical_blocks;
    let stale_rate = if total_blocks == 0 {
        0.0
    } else {
        stale_blocks as f64 / total_blocks as f64
    };
    let mean_block_interval = if timestamps.len() >= 2 {
        (timestamps[timestamps.len() - 1] - timestamps[0]) as f64
            / 1_000_000.0
            / (timestamps.len() - 1) as f64
    } else {
        0.0
    };

    // Agreement: every replica's canonical block at the reference's
    // confirmed height must match.
    let confirmation = chain.config().confirmation_depth;
    let min_height = nodes
        .iter()
        .map(|n| n.core().chain.height())
        .min()
        .expect("non-empty");
    let check_height = min_height.saturating_sub(confirmation);
    let reference_block = chain.canonical_at(check_height);
    let replicas_agree = nodes
        .iter()
        .all(|n| n.core().chain.canonical_at(check_height) == reference_block);

    let work_expended: f64 = nodes.iter().map(LedgerNode::work_expended).sum();
    let rejected_blocks: u64 = nodes.iter().map(|n| n.core().rejected_blocks).sum();
    let internal_errors: u64 = nodes
        .iter()
        .map(|n| n.core().internal_errors + n.core().chain.stats().internal_errors)
        .sum();
    let sync_retries: u64 = nodes.iter().map(|n| n.core().sync_retries).sum();
    let catchup_rounds: u64 = nodes.iter().map(|n| n.core().catchup_rounds).sum();
    let stats = chain.stats();
    SimResult {
        horizon,
        committed_txs,
        tps: committed_txs as f64 / horizon.as_secs_f64().max(1e-9),
        latency,
        canonical_blocks,
        total_blocks,
        stale_blocks,
        stale_rate,
        mean_block_interval,
        reorgs: stats.reorgs,
        max_reorg_depth: stats.max_reorg_depth,
        rejected_blocks,
        internal_errors,
        sync_retries,
        catchup_rounds,
        replicas_agree,
        proposer_gini: gini(&proposer_counts),
        nakamoto: nakamoto_coefficient(&proposer_counts),
        proposer_counts,
        work_expended,
        work_per_block: work_expended / canonical_blocks.max(1) as f64,
    }
}
