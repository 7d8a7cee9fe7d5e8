//! One-call constructors for whole simulated ledger networks, one per
//! consensus family. Each takes a parameter struct (sensible defaults via
//! `Default`) and a seed, and returns a ready-to-run
//! [`dcs_net::Runner`].

use dcs_chain::NullMachine;
use dcs_consensus::{
    ng::NgNode,
    ordering::OrderingNode,
    pbft::PbftNode,
    poet::PoetNode,
    pos::{PosNode, StakeTable},
    pow::PowNode,
};
use dcs_crypto::Address;
use dcs_net::{LatencyModel, NetConfig, NodeId, Runner, Topology};
use dcs_primitives::{ChainConfig, ConsensusKind};

/// The address assigned to peer `i` in every built network.
pub fn node_address(i: usize) -> Address {
    Address::from_index(i as u64)
}

fn default_net(nodes: usize) -> NetConfig {
    NetConfig {
        nodes,
        topology: Topology::KRegular {
            k: 4.min(nodes.saturating_sub(1)).max(2),
        },
        latency: LatencyModel::wan(),
        drop_probability: 0.0,
        bandwidth_bytes_per_sec: None,
    }
}

/// Parameters for a proof-of-work network.
#[derive(Debug, Clone)]
pub struct PowParams {
    /// Peer count.
    pub nodes: usize,
    /// Per-node hash power (H/s); cycled if shorter than `nodes`.
    pub hash_powers: Vec<f64>,
    /// Chain configuration (must be `ProofOfWork`).
    pub chain: ChainConfig,
    /// Overlay configuration.
    pub net: NetConfig,
}

impl Default for PowParams {
    fn default() -> Self {
        let nodes = 16;
        PowParams {
            nodes,
            hash_powers: vec![1_000.0],
            chain: ChainConfig {
                consensus: ConsensusKind::ProofOfWork {
                    // 16 kH/s network × 60 s target.
                    initial_difficulty: 960_000,
                    retarget_window: 0,
                    target_interval_us: 60_000_000,
                },
                ..ChainConfig::bitcoin_like()
            },
            net: default_net(nodes),
        }
    }
}

/// Builds a proof-of-work network over the null state machine.
pub fn build_pow(params: &PowParams, seed: u64) -> Runner<PowNode<NullMachine>> {
    let genesis = dcs_chain::genesis_block(&params.chain);
    let mut net = params.net.clone();
    net.nodes = params.nodes;
    let chain = params.chain.clone();
    let powers = params.hash_powers.clone();
    Runner::new(net, seed, move |id: NodeId| {
        PowNode::new(
            id,
            node_address(id.0),
            genesis.clone(),
            chain.clone(),
            NullMachine,
            powers[id.0 % powers.len()],
        )
    })
}

/// Parameters for a proof-of-stake network.
#[derive(Debug, Clone)]
pub struct PosParams {
    /// Peer count.
    pub nodes: usize,
    /// Per-node stake; cycled if shorter than `nodes`.
    pub stakes: Vec<u64>,
    /// Chain configuration (must be `ProofOfStake`).
    pub chain: ChainConfig,
    /// Overlay configuration.
    pub net: NetConfig,
}

impl Default for PosParams {
    fn default() -> Self {
        let nodes = 16;
        PosParams {
            nodes,
            stakes: vec![100],
            chain: ChainConfig {
                consensus: ConsensusKind::ProofOfStake {
                    slot_us: 10_000_000,
                },
                ..ChainConfig::ethereum_like()
            },
            net: default_net(nodes),
        }
    }
}

/// Builds a proof-of-stake network over the null state machine.
pub fn build_pos(params: &PosParams, seed: u64) -> Runner<PosNode<NullMachine>> {
    let genesis = dcs_chain::genesis_block(&params.chain);
    let stakes: Vec<u64> = (0..params.nodes)
        .map(|i| params.stakes[i % params.stakes.len()])
        .collect();
    let table = StakeTable::new(
        (0..params.nodes).map(node_address).collect(),
        stakes,
        params.chain.chain_id,
    );
    let mut net = params.net.clone();
    net.nodes = params.nodes;
    let chain = params.chain.clone();
    Runner::new(net, seed, move |id: NodeId| {
        PosNode::new(
            id,
            genesis.clone(),
            chain.clone(),
            NullMachine,
            table.clone(),
            id.0,
        )
    })
}

/// Parameters for a proof-of-elapsed-time network.
#[derive(Debug, Clone)]
pub struct PoetParams {
    /// Peer count.
    pub nodes: usize,
    /// Chain configuration (must be `ProofOfElapsedTime`).
    pub chain: ChainConfig,
    /// Overlay configuration.
    pub net: NetConfig,
    /// Per-node cheat factors (1.0 honest); cycled.
    pub cheat_factors: Vec<f64>,
}

impl Default for PoetParams {
    fn default() -> Self {
        let nodes = 16;
        PoetParams {
            nodes,
            chain: ChainConfig {
                consensus: ConsensusKind::ProofOfElapsedTime {
                    // Per-node mean wait ≈ nodes × target interval.
                    mean_wait_us: 16 * 30_000_000,
                },
                ..ChainConfig::bitcoin_like()
            },
            net: default_net(nodes),
            cheat_factors: vec![1.0],
        }
    }
}

/// Builds a proof-of-elapsed-time network over the null state machine.
pub fn build_poet(params: &PoetParams, seed: u64) -> Runner<PoetNode<NullMachine>> {
    let genesis = dcs_chain::genesis_block(&params.chain);
    let mut net = params.net.clone();
    net.nodes = params.nodes;
    let chain = params.chain.clone();
    let cheats = params.cheat_factors.clone();
    Runner::new(net, seed, move |id: NodeId| {
        let mut node = PoetNode::new(
            id,
            node_address(id.0),
            genesis.clone(),
            chain.clone(),
            NullMachine,
        );
        node.cheat_factor = cheats[id.0 % cheats.len()];
        node
    })
}

/// Parameters for an ordering-service network.
#[derive(Debug, Clone)]
pub struct OrderingParams {
    /// Peer count.
    pub nodes: usize,
    /// Chain configuration (must be `Ordering`).
    pub chain: ChainConfig,
    /// Overlay configuration.
    pub net: NetConfig,
}

impl Default for OrderingParams {
    fn default() -> Self {
        let nodes = 8;
        OrderingParams {
            nodes,
            chain: ChainConfig::hyperledger_like(),
            net: NetConfig {
                latency: LatencyModel::lan(),
                topology: Topology::Complete,
                ..default_net(nodes)
            },
        }
    }
}

/// Builds an ordering-service network over the null state machine.
pub fn build_ordering(params: &OrderingParams, seed: u64) -> Runner<OrderingNode<NullMachine>> {
    let genesis = dcs_chain::genesis_block(&params.chain);
    let mut net = params.net.clone();
    net.nodes = params.nodes;
    let chain = params.chain.clone();
    let n = params.nodes;
    Runner::new(net, seed, move |id: NodeId| {
        OrderingNode::new(
            id,
            node_address(id.0),
            genesis.clone(),
            chain.clone(),
            NullMachine,
            n,
        )
    })
}

/// Parameters for a PBFT consortium.
#[derive(Debug, Clone)]
pub struct PbftParams {
    /// Replica count (≥ 4).
    pub nodes: usize,
    /// Chain configuration (must be `Pbft`).
    pub chain: ChainConfig,
    /// Overlay configuration (PBFT speaks point-to-point; keep `Complete`).
    pub net: NetConfig,
    /// Indices of replicas to crash at start (fail-stop).
    pub crashed: Vec<usize>,
}

impl Default for PbftParams {
    fn default() -> Self {
        let nodes = 7;
        PbftParams {
            nodes,
            chain: ChainConfig {
                consensus: ConsensusKind::Pbft {
                    batch_size: 500,
                    batch_timeout_us: 200_000,
                    view_timeout_us: 5_000_000,
                },
                ..ChainConfig::hyperledger_like()
            },
            net: NetConfig {
                latency: LatencyModel::lan(),
                topology: Topology::Complete,
                ..default_net(nodes)
            },
            crashed: Vec::new(),
        }
    }
}

/// Builds a PBFT consortium over the null state machine.
pub fn build_pbft(params: &PbftParams, seed: u64) -> Runner<PbftNode<NullMachine>> {
    let genesis = dcs_chain::genesis_block(&params.chain);
    let mut net = params.net.clone();
    net.nodes = params.nodes;
    let chain = params.chain.clone();
    let n = params.nodes;
    let crashed = params.crashed.clone();
    Runner::new(net, seed, move |id: NodeId| {
        let mut node = PbftNode::new(
            id,
            node_address(id.0),
            genesis.clone(),
            chain.clone(),
            NullMachine,
            n,
        );
        node.crashed = crashed.contains(&id.0);
        node
    })
}

/// Parameters for a Bitcoin-NG network.
#[derive(Debug, Clone)]
pub struct NgParams {
    /// Peer count.
    pub nodes: usize,
    /// Per-node hash power; cycled.
    pub hash_powers: Vec<f64>,
    /// Chain configuration (must be `BitcoinNg`).
    pub chain: ChainConfig,
    /// Overlay configuration.
    pub net: NetConfig,
}

impl Default for NgParams {
    fn default() -> Self {
        let nodes = 16;
        NgParams {
            nodes,
            hash_powers: vec![1_000.0],
            chain: ChainConfig {
                consensus: ConsensusKind::BitcoinNg {
                    key_difficulty: 960_000, // 16 kH/s × 60 s keyblocks
                    key_interval_us: 60_000_000,
                    micro_interval_us: 1_000_000,
                },
                fork_choice: dcs_primitives::ForkChoice::HeaviestWork,
                ..ChainConfig::bitcoin_like()
            },
            net: default_net(nodes),
        }
    }
}

/// Builds a Bitcoin-NG network over the null state machine.
pub fn build_ng(params: &NgParams, seed: u64) -> Runner<NgNode<NullMachine>> {
    let genesis = dcs_chain::genesis_block(&params.chain);
    let mut net = params.net.clone();
    net.nodes = params.nodes;
    let chain = params.chain.clone();
    let powers = params.hash_powers.clone();
    Runner::new(net, seed, move |id: NodeId| {
        NgNode::new(
            id,
            node_address(id.0),
            genesis.clone(),
            chain.clone(),
            NullMachine,
            powers[id.0 % powers.len()],
        )
    })
}
