//! Named DCS profiles (§2.7): ready-made network configurations occupying
//! the corners of the paper's Decentralization–Consistency–Scalability
//! triangle. "One size does not fit all" — these are the sizes.

use crate::builders::{OrderingParams, PowParams};
use dcs_net::{LatencyModel, NetConfig, Topology};
use dcs_primitives::{ChainConfig, ConsensusKind, ForkChoice};
use serde::{Deserialize, Serialize};

/// The DCS corner a profile targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Corner {
    /// Decentralized + Consistent (throughput sacrificed).
    DC,
    /// Consistent + Scalable (decentralization sacrificed).
    CS,
    /// Decentralized + Scalable (consistency sacrificed).
    DS,
}

/// A named, paper-grounded deployment profile.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Human-readable name.
    pub name: &'static str,
    /// Which two properties it keeps.
    pub corner: Corner,
    /// Chain configuration.
    pub chain: ChainConfig,
    /// Network configuration.
    pub net: NetConfig,
    /// Suggested peer count.
    pub nodes: usize,
}

impl Profile {
    /// Bitcoin-like DC profile, scaled to simulation time: PoW, 10-minute
    /// blocks, longest chain. Consistent and decentralized; ~7 tps ceiling.
    pub fn dc_bitcoin() -> Profile {
        Profile {
            name: "DC/bitcoin",
            corner: Corner::DC,
            chain: ChainConfig::bitcoin_like(),
            net: NetConfig {
                nodes: 16,
                topology: Topology::KRegular { k: 4 },
                latency: LatencyModel::wan(),
                drop_probability: 0.0,
                bandwidth_bytes_per_sec: None,
            },
            nodes: 16,
        }
    }

    /// Ethereum-like DC profile: 15-second PoW blocks with GHOST, which
    /// trades a higher stale rate for throughput (§2.7).
    pub fn dc_ethereum() -> Profile {
        Profile {
            name: "DC/ethereum",
            corner: Corner::DC,
            chain: ChainConfig::ethereum_like(),
            net: Profile::dc_bitcoin().net,
            nodes: 16,
        }
    }

    /// Hyperledger-like CS profile: a permissioned ordering service —
    /// >10K tps capable, but one orderer (decentralization sacrificed).
    pub fn cs_hyperledger() -> Profile {
        let params = OrderingParams::default();
        Profile {
            name: "CS/hyperledger",
            corner: Corner::CS,
            chain: params.chain,
            net: params.net,
            nodes: 8,
        }
    }

    /// A DS profile: PoW with sub-second blocks and no retargeting —
    /// decentralized and fast, but branches constantly (consistency
    /// sacrificed). The cautionary corner.
    pub fn ds_fast_pow() -> Profile {
        let mut chain = ChainConfig::bitcoin_like();
        chain.consensus = ConsensusKind::ProofOfWork {
            initial_difficulty: 8_000, // 16 kH/s network → ~0.5 s blocks
            retarget_window: 0,
            target_interval_us: 500_000,
        };
        chain.fork_choice = ForkChoice::LongestChain;
        chain.block_tx_limit = 2_000;
        Profile {
            name: "DS/fast-pow",
            corner: Corner::DS,
            chain,
            net: Profile::dc_bitcoin().net,
            nodes: 16,
        }
    }

    /// The PoW params for this profile (panics for non-PoW profiles).
    pub fn pow_params(&self) -> PowParams {
        assert!(
            matches!(self.chain.consensus, ConsensusKind::ProofOfWork { .. }),
            "{} is not a PoW profile",
            self.name
        );
        PowParams {
            nodes: self.nodes,
            hash_powers: vec![1_000.0],
            chain: self.chain.clone(),
            net: self.net.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_cover_the_triangle() {
        assert_eq!(Profile::dc_bitcoin().corner, Corner::DC);
        assert_eq!(Profile::dc_ethereum().corner, Corner::DC);
        assert_eq!(Profile::cs_hyperledger().corner, Corner::CS);
        assert_eq!(Profile::ds_fast_pow().corner, Corner::DS);
    }

    #[test]
    #[should_panic(expected = "is not a PoW profile")]
    fn mismatched_params_panics() {
        Profile::cs_hyperledger().pow_params();
    }
}
