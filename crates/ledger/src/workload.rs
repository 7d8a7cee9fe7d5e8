//! Client workload generation: the transaction streams submitted by "client
//! users not actively involved in the ledger" (§2.4). Transactions arrive as
//! a Poisson process at a configurable rate, at a uniformly random
//! point-of-contact peer, and their submission times are recorded so metrics
//! can compute commit latency.

use dcs_consensus::WireMsg;
use dcs_crypto::{Address, Hash256};
use dcs_net::{Network, NodeId};
use dcs_primitives::{AccountTx, SealedTx, Transaction};
use dcs_sim::{Rng, SimDuration, SimTime};
use dcs_trace::{Id as TraceId, TraceEvent};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// What kind of transactions the clients submit.
#[derive(Debug, Clone)]
pub enum WorkloadKind {
    /// Random value transfers among `accounts` synthetic accounts (no
    /// nonce/balance semantics — for `NullMachine` consensus experiments).
    Transfers {
        /// Distinct account count.
        accounts: u64,
    },
    /// Nonce-correct transfers from pre-funded senders (for
    /// `AccountMachine` ledgers): sender `i` sends its `k`-th transaction
    /// with nonce `k`.
    FundedTransfers {
        /// Sender addresses (must be funded at genesis).
        senders: Vec<Address>,
    },
}

/// A client workload: `tps` transactions per second for `duration`.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Mean submission rate (Poisson arrivals).
    pub tps: f64,
    /// How long clients keep submitting.
    pub duration: SimDuration,
    /// Transaction shape.
    pub kind: WorkloadKind,
}

impl Workload {
    /// Random transfers among `accounts` accounts at `tps` for `duration`.
    pub fn transfers(tps: f64, duration: SimDuration, accounts: u64) -> Self {
        Workload {
            tps,
            duration,
            kind: WorkloadKind::Transfers { accounts },
        }
    }

    /// Nonce-correct transfers from the given funded senders.
    pub fn funded_transfers(tps: f64, duration: SimDuration, senders: Vec<Address>) -> Self {
        Workload {
            tps,
            duration,
            kind: WorkloadKind::FundedTransfers { senders },
        }
    }

    /// Generates the transaction stream and schedules each transaction for
    /// delivery at its submission instant to a random peer. Returns the
    /// submission-time ledger keyed by transaction id — a `HashMap` because
    /// [`collect`](crate::metrics::collect)'s signature (which the frozen
    /// `benchmark/` package calls) takes one; it is only looked up by id.
    pub fn inject(&self, net: &mut Network<WireMsg>, seed: u64) -> HashMap<Hash256, SimTime> {
        let mut rng = Rng::seed_from(seed ^ 0x9e37_79b9);
        let n = net.node_count();
        let mut submitted = HashMap::new();
        let mut t = 0.0f64;
        let end = self.duration.as_secs_f64();
        let mut nonces: BTreeMap<Address, u64> = BTreeMap::new();
        let mut seq = 0u64;
        loop {
            t += rng.exp(1.0 / self.tps.max(1e-9));
            if t >= end {
                break;
            }
            let tx = self.make_tx(&mut rng, &mut nonces, seq);
            seq += 1;
            let at = SimTime::from_micros((t * 1_000_000.0) as u64);
            let node = NodeId(rng.below(n as u64) as usize);
            // Seal the transaction with its id once at injection; every
            // gossip hop downstream reuses the carried id.
            let sealed = SealedTx::new(Arc::new(tx));
            let id = sealed.id();
            submitted.insert(id, at);
            // Submission is attributed to the point-of-contact peer at the
            // instant the client hands the transaction over.
            net.emit_app(
                at.as_micros(),
                node,
                TraceEvent::TxSubmitted {
                    tx: TraceId(id.into_bytes()),
                },
            );
            let msg = WireMsg::Tx(sealed);
            let size = dcs_consensus::wire_size(&msg);
            net.inject(at, node, msg, size);
        }
        submitted
    }

    fn make_tx(&self, rng: &mut Rng, nonces: &mut BTreeMap<Address, u64>, seq: u64) -> Transaction {
        match &self.kind {
            WorkloadKind::Transfers { accounts } => {
                let from = Address::from_index(rng.below(*accounts));
                let to = Address::from_index(rng.below(*accounts));
                // `seq` as the nonce makes every transaction unique even
                // between identical (from, to, value) pairs.
                Transaction::Account(AccountTx::transfer(from, to, 1 + rng.below(1_000), seq))
            }
            WorkloadKind::FundedTransfers { senders } => {
                let from = senders[rng.below(senders.len() as u64) as usize];
                let to = senders[rng.below(senders.len() as u64) as usize];
                let nonce = nonces.entry(from).or_insert(0);
                let tx = AccountTx::transfer(from, to, 1 + rng.below(100), *nonce);
                *nonce += 1;
                Transaction::Account(tx)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_net::{LatencyModel, NetConfig, Topology};

    fn net() -> Network<WireMsg> {
        Network::new(
            NetConfig {
                nodes: 4,
                topology: Topology::Complete,
                latency: LatencyModel::Constant(SimDuration::from_millis(1)),
                drop_probability: 0.0,
                bandwidth_bytes_per_sec: None,
            },
            1,
        )
    }

    #[test]
    fn injects_roughly_expected_count() {
        let w = Workload::transfers(50.0, SimDuration::from_secs(20), 10);
        let mut net = net();
        let submitted = w.inject(&mut net, 42);
        let expected = w.tps * w.duration.as_secs_f64();
        assert!(
            (submitted.len() as f64 - expected).abs() < expected * 0.25,
            "submitted {} vs expected {expected}",
            submitted.len()
        );
    }

    #[test]
    fn all_ids_unique_and_times_in_range() {
        let w = Workload::transfers(100.0, SimDuration::from_secs(5), 3);
        let mut net = net();
        let submitted = w.inject(&mut net, 7);
        for t in submitted.values() {
            assert!(*t < SimTime::ZERO + SimDuration::from_secs(5));
        }
        // HashMap keying already proves id uniqueness if count matches the
        // injection count.
        assert_eq!(net.stats().sent as usize, submitted.len());
    }

    #[test]
    fn funded_transfers_have_sequential_nonces() {
        let senders = vec![Address::from_index(1)];
        let w = Workload::funded_transfers(100.0, SimDuration::from_secs(2), senders);
        let mut rng = Rng::seed_from(1);
        let mut nonces = BTreeMap::new();
        let t0 = w.make_tx(&mut rng, &mut nonces, 0);
        let t1 = w.make_tx(&mut rng, &mut nonces, 1);
        match (t0, t1) {
            (Transaction::Account(a), Transaction::Account(b)) => {
                assert_eq!(a.nonce, 0);
                assert_eq!(b.nonce, 1);
            }
            _ => panic!("expected account txs"),
        }
    }
}
