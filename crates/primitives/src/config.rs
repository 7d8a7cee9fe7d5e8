//! Chain configuration: the tuning surface through which a deployment picks
//! its point in the paper's DCS triangle (§2.7). Consensus family, block
//! cadence, batch sizes, fork-choice rule, and signature policy are all
//! chosen here; the `dcs-ledger` crate ships presets for DC, CS, and DS
//! systems.

use crate::gas::GasSchedule;
use crate::Amount;
use serde::{Deserialize, Serialize};

/// Which consensus protocol family drives block production (§2.4).
/// Durations are microseconds of simulated time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConsensusKind {
    /// Nakamoto proof-of-work with difficulty retargeting.
    ProofOfWork {
        /// Initial difficulty: expected hash attempts per block.
        initial_difficulty: u64,
        /// Blocks between retargets (Bitcoin uses 2016).
        retarget_window: u64,
        /// Target inter-block time in microseconds (Bitcoin: 600 s).
        target_interval_us: u64,
    },
    /// Slot-based proof-of-stake: each slot, a stake-weighted lottery picks
    /// the proposer.
    ProofOfStake {
        /// Slot length in microseconds.
        slot_us: u64,
    },
    /// Proof-of-elapsed-time: every peer draws a trusted random wait;
    /// shortest wait proposes.
    ProofOfElapsedTime {
        /// Mean wait in microseconds (exponential distribution).
        mean_wait_us: u64,
    },
    /// PBFT among all peers: three-phase commit per block, view change on
    /// leader failure.
    Pbft {
        /// Max transactions per batch (block).
        batch_size: usize,
        /// Cut a batch at this age even if not full, microseconds.
        batch_timeout_us: u64,
        /// View-change timeout, microseconds.
        view_timeout_us: u64,
    },
    /// Hyperledger-style ordering service: a designated orderer sequences
    /// batches; committing peers validate.
    Ordering {
        /// Max transactions per batch.
        batch_size: usize,
        /// Cut a batch at this age even if not full, microseconds.
        batch_timeout_us: u64,
        /// Rotate leadership every N blocks (0 = static leader).
        rotate_every: u64,
    },
    /// Bitcoin-NG: PoW key blocks elect a leader who streams microblocks.
    BitcoinNg {
        /// Key-block difficulty (expected hash attempts).
        key_difficulty: u64,
        /// Target key-block interval, microseconds.
        key_interval_us: u64,
        /// Microblock issue interval, microseconds.
        micro_interval_us: u64,
    },
}

/// How peers choose among competing branches (§2.4's "branch selection
/// algorithm").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ForkChoice {
    /// Nakamoto consensus: follow the longest chain.
    LongestChain,
    /// Follow the chain with the most accumulated (expected) work.
    HeaviestWork,
    /// GHOST: greedily descend into the heaviest *subtree* (what Ethereum
    /// uses to tolerate short block times, §2.7).
    Ghost,
}

/// Full chain configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainConfig {
    /// Distinguishes ledgers in multi-chain experiments.
    pub chain_id: u32,
    /// Consensus protocol parameters.
    pub consensus: ConsensusKind,
    /// Branch selection rule.
    pub fork_choice: ForkChoice,
    /// Maximum transactions per block.
    pub block_tx_limit: usize,
    /// Block subsidy paid to the proposer via a coinbase transaction.
    pub block_reward: Amount,
    /// Gas schedule for contract execution. Read only by the privacy
    /// crate's channel ledgers, which copy it into each channel's machine;
    /// elsewhere gas is charged by the state machine's own schedule
    /// (`AccountMachine::schedule`).
    pub gas: GasSchedule,
    /// Whether transaction witnesses should be verified. Nothing reads it:
    /// witness checks are switched on in the state machine
    /// (`AccountMachine::verify_signatures`,
    /// `UtxoSet::with_witness_verification`) and at admission
    /// (`Mempool::with_admission`).
    pub verify_signatures: bool,
    /// Blocks behind the tip considered final for reporting purposes.
    pub confirmation_depth: u64,
}

impl ChainConfig {
    /// Bitcoin-like defaults: PoW, 600 s target, longest chain, ~7 tps
    /// equivalent block capacity.
    pub fn bitcoin_like() -> Self {
        ChainConfig {
            chain_id: 1,
            consensus: ConsensusKind::ProofOfWork {
                initial_difficulty: 1 << 20,
                retarget_window: 16,
                target_interval_us: 600_000_000,
            },
            fork_choice: ForkChoice::LongestChain,
            // 7 tps * 600 s = 4200 txs per block, matching the paper's
            // quoted Bitcoin throughput.
            block_tx_limit: 4_200,
            block_reward: 50_0000_0000,
            gas: GasSchedule::default(),
            verify_signatures: false,
            confirmation_depth: 6,
        }
    }

    /// Ethereum-like defaults: PoW with ~15 s blocks and GHOST fork choice.
    pub fn ethereum_like() -> Self {
        ChainConfig {
            chain_id: 2,
            consensus: ConsensusKind::ProofOfWork {
                initial_difficulty: 1 << 14,
                retarget_window: 32,
                target_interval_us: 15_000_000,
            },
            fork_choice: ForkChoice::Ghost,
            block_tx_limit: 200,
            block_reward: 5_0000_0000,
            gas: GasSchedule::default(),
            verify_signatures: false,
            confirmation_depth: 12,
        }
    }

    /// Hyperledger-like defaults: ordering service, 500 ms batches, free gas.
    pub fn hyperledger_like() -> Self {
        ChainConfig {
            chain_id: 3,
            consensus: ConsensusKind::Ordering {
                batch_size: 500,
                batch_timeout_us: 500_000,
                rotate_every: 0,
            },
            fork_choice: ForkChoice::LongestChain,
            block_tx_limit: 500,
            block_reward: 0,
            gas: GasSchedule::free(),
            verify_signatures: false,
            confirmation_depth: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_encode_paper_parameters() {
        let btc = ChainConfig::bitcoin_like();
        match btc.consensus {
            ConsensusKind::ProofOfWork {
                target_interval_us, ..
            } => {
                assert_eq!(target_interval_us, 600_000_000, "10 minutes");
            }
            _ => panic!("bitcoin preset must be PoW"),
        }
        // 4200 txs / 600 s = 7 tps, the paper's quoted Bitcoin ceiling.
        assert_eq!(btc.block_tx_limit as u64 / 600, 7);

        let eth = ChainConfig::ethereum_like();
        assert_eq!(eth.fork_choice, ForkChoice::Ghost);

        let hlf = ChainConfig::hyperledger_like();
        assert!(matches!(hlf.consensus, ConsensusKind::Ordering { .. }));
        assert_eq!(hlf.block_reward, 0);
    }
}
