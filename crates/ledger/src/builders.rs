//! One constructor for a whole simulated ledger network: a peer is an engine
//! rule ([`EngineRule`]) × a state machine, and [`build`] returns a
//! ready-to-run [`dcs_net::Runner`] of them. Each rule's `Default`
//! [`NetworkParams`] is its family's preset.

use dcs_chain::{NullMachine, StateMachine};
use dcs_consensus::{
    ng::NgNode,
    ordering::OrderingNode,
    pbft::PbftNode,
    poet::PoetNode,
    pos::{PosNode, StakeTable},
    pow::PowNode,
    LedgerNode,
};
use dcs_crypto::Address;
use dcs_net::{LatencyModel, NetConfig, NodeId, Runner, Topology};
use dcs_primitives::{Block, ChainConfig, ConsensusKind, ForkChoice};

/// The address assigned to peer `i` in every built network.
pub fn node_address(i: usize) -> Address {
    Address::from_index(i as u64)
}

/// One network: peer count, chain and overlay configuration, engine rule.
#[derive(Debug, Clone)]
pub struct NetworkParams<E> {
    /// Peer count (overrides `net.nodes`).
    pub nodes: usize,
    /// Chain configuration; its `consensus` must match the engine rule.
    pub chain: ChainConfig,
    /// Overlay configuration.
    pub net: NetConfig,
    /// The consensus family's per-peer inputs.
    pub engine: E,
}

/// What differs between consensus families: the per-peer inputs beyond the
/// genesis block, chain configuration and state machine `M` every peer gets.
pub trait EngineRule<M: StateMachine>: Sized {
    /// The peer this rule runs.
    type Node: LedgerNode<Machine = M>;

    /// Network `p`'s peer constructor, `(id, genesis, chain, machine)`.
    fn peers(p: &NetworkParams<Self>) -> impl Fn(NodeId, Block, ChainConfig, M) -> Self::Node;
}

/// Builds `params.nodes` peers, peer `id` over `machine(id)`.
pub fn build<E: EngineRule<M>, M: StateMachine>(
    params: &NetworkParams<E>,
    seed: u64,
    mut machine: impl FnMut(NodeId) -> M,
) -> Runner<E::Node> {
    let genesis = dcs_chain::genesis_block(&params.chain);
    let net = NetConfig {
        nodes: params.nodes,
        ..params.net.clone()
    };
    let peer = E::peers(params);
    Runner::new(net, seed, |id| {
        peer(id, genesis.clone(), params.chain.clone(), machine(id))
    })
}

/// The PBFT preset's parameters — the name the frozen benchmark imports.
pub type PbftParams = NetworkParams<Pbft>;

/// PBFT over the null state machine — the name the frozen benchmark imports.
pub fn build_pbft(params: &PbftParams, seed: u64) -> Runner<PbftNode<NullMachine>> {
    build(params, seed, |_| NullMachine)
}

/// Peer `id`'s entry of a per-peer list, cycled if shorter than the network.
fn cycle<T: Copy>(values: &[T], id: NodeId) -> T {
    values[id.0 % values.len()]
}

/// Proof of work: per-peer hash power (H/s), cycled.
#[derive(Debug, Clone)]
pub struct Pow {
    /// Hash power per peer.
    pub hash_powers: Vec<f64>,
}

impl<M: StateMachine> EngineRule<M> for Pow {
    type Node = PowNode<M>;

    fn peers(p: &NetworkParams<Self>) -> impl Fn(NodeId, Block, ChainConfig, M) -> PowNode<M> {
        move |id, genesis, chain, machine| {
            let power = cycle(&p.engine.hash_powers, id);
            PowNode::new(id, node_address(id.0), genesis, chain, machine, power)
        }
    }
}

/// Proof of stake: per-validator stake, cycled into one [`StakeTable`].
#[derive(Debug, Clone)]
pub struct Pos {
    /// Stake per validator.
    pub stakes: Vec<u64>,
}

impl<M: StateMachine> EngineRule<M> for Pos {
    type Node = PosNode<M>;

    fn peers(p: &NetworkParams<Self>) -> impl Fn(NodeId, Block, ChainConfig, M) -> PosNode<M> {
        let stakes = (0..p.nodes).map(|i| cycle(&p.engine.stakes, NodeId(i)));
        let addresses = (0..p.nodes).map(node_address).collect();
        let table = StakeTable::new(addresses, stakes.collect(), p.chain.chain_id);
        move |id, genesis, chain, machine| {
            PosNode::new(id, genesis, chain, machine, table.clone(), id.0)
        }
    }
}

/// Proof of elapsed time: per-peer enclave cheat factor (1.0 honest), cycled.
#[derive(Debug, Clone)]
pub struct Poet {
    /// Cheat factor per peer.
    pub cheat_factors: Vec<f64>,
}

impl<M: StateMachine> EngineRule<M> for Poet {
    type Node = PoetNode<M>;

    fn peers(p: &NetworkParams<Self>) -> impl Fn(NodeId, Block, ChainConfig, M) -> PoetNode<M> {
        move |id, genesis, chain, machine| {
            let mut node = PoetNode::new(id, node_address(id.0), genesis, chain, machine);
            node.cheat_factor = cycle(&p.engine.cheat_factors, id);
            node
        }
    }
}

/// The ordering service: nothing per peer beyond the peer count.
#[derive(Debug, Clone)]
pub struct Ordering;

impl<M: StateMachine> EngineRule<M> for Ordering {
    type Node = OrderingNode<M>;

    fn peers(p: &NetworkParams<Self>) -> impl Fn(NodeId, Block, ChainConfig, M) -> OrderingNode<M> {
        move |id, genesis, chain, machine| {
            OrderingNode::new(id, node_address(id.0), genesis, chain, machine, p.nodes)
        }
    }
}

/// PBFT: nothing per replica beyond the replica count. A replica that is
/// down from the start is a [`dcs_net::Network::crash`] before the run.
#[derive(Debug, Clone, Default)]
pub struct Pbft;

impl<M: StateMachine> EngineRule<M> for Pbft {
    type Node = PbftNode<M>;

    fn peers(p: &NetworkParams<Self>) -> impl Fn(NodeId, Block, ChainConfig, M) -> PbftNode<M> {
        move |id, genesis, chain, machine| {
            PbftNode::new(id, node_address(id.0), genesis, chain, machine, p.nodes)
        }
    }
}

/// Bitcoin-NG: per-peer key-block hash power (H/s), cycled.
#[derive(Debug, Clone)]
pub struct Ng {
    /// Hash power per peer.
    pub hash_powers: Vec<f64>,
}

impl<M: StateMachine> EngineRule<M> for Ng {
    type Node = NgNode<M>;

    fn peers(p: &NetworkParams<Self>) -> impl Fn(NodeId, Block, ChainConfig, M) -> NgNode<M> {
        move |id, genesis, chain, machine| {
            let power = cycle(&p.engine.hash_powers, id);
            NgNode::new(id, node_address(id.0), genesis, chain, machine, power)
        }
    }
}

/// A gossip overlay: a random 4-regular graph over WAN latency.
fn wan(nodes: usize) -> NetConfig {
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

/// A consortium overlay: everyone connected over LAN latency.
fn lan(nodes: usize) -> NetConfig {
    NetConfig {
        topology: Topology::Complete,
        latency: LatencyModel::lan(),
        ..wan(nodes)
    }
}

/// 16 miners of 1 kH/s, 60 s blocks, no retargeting.
impl Default for NetworkParams<Pow> {
    fn default() -> Self {
        NetworkParams {
            nodes: 16,
            chain: ChainConfig {
                consensus: ConsensusKind::ProofOfWork {
                    // 16 kH/s network × 60 s target.
                    initial_difficulty: 960_000,
                    retarget_window: 0,
                    target_interval_us: 60_000_000,
                },
                ..ChainConfig::bitcoin_like()
            },
            net: wan(16),
            engine: Pow {
                hash_powers: vec![1_000.0],
            },
        }
    }
}

/// 16 equal-stake validators, 10 s slots.
impl Default for NetworkParams<Pos> {
    fn default() -> Self {
        NetworkParams {
            nodes: 16,
            chain: ChainConfig {
                consensus: ConsensusKind::ProofOfStake {
                    slot_us: 10_000_000,
                },
                ..ChainConfig::ethereum_like()
            },
            net: wan(16),
            engine: Pos { stakes: vec![100] },
        }
    }
}

/// 16 honest enclaves, ~30 s network block interval.
impl Default for NetworkParams<Poet> {
    fn default() -> Self {
        NetworkParams {
            nodes: 16,
            chain: ChainConfig {
                consensus: ConsensusKind::ProofOfElapsedTime {
                    // Per-node mean wait ≈ nodes × target interval.
                    mean_wait_us: 16 * 30_000_000,
                },
                ..ChainConfig::bitcoin_like()
            },
            net: wan(16),
            engine: Poet {
                cheat_factors: vec![1.0],
            },
        }
    }
}

/// 8 peers of a Hyperledger-like ordering service on a LAN.
impl Default for NetworkParams<Ordering> {
    fn default() -> Self {
        NetworkParams {
            nodes: 8,
            chain: ChainConfig::hyperledger_like(),
            net: lan(8),
            engine: Ordering,
        }
    }
}

/// 7 PBFT replicas (f = 2) on a LAN, 500-transaction batches.
impl Default for NetworkParams<Pbft> {
    fn default() -> Self {
        NetworkParams {
            nodes: 7,
            chain: ChainConfig {
                consensus: ConsensusKind::Pbft {
                    batch_size: 500,
                    batch_timeout_us: 200_000,
                    view_timeout_us: 5_000_000,
                },
                ..ChainConfig::hyperledger_like()
            },
            net: lan(7),
            engine: Pbft,
        }
    }
}

/// 16 miners of 1 kH/s, 60 s key blocks, 1 s microblocks.
impl Default for NetworkParams<Ng> {
    fn default() -> Self {
        NetworkParams {
            nodes: 16,
            chain: ChainConfig {
                consensus: ConsensusKind::BitcoinNg {
                    key_difficulty: 960_000, // 16 kH/s × 60 s keyblocks
                    key_interval_us: 60_000_000,
                    micro_interval_us: 1_000_000,
                },
                fork_choice: ForkChoice::HeaviestWork,
                ..ChainConfig::bitcoin_like()
            },
            net: wan(16),
            engine: Ng {
                hash_powers: vec![1_000.0],
            },
        }
    }
}
