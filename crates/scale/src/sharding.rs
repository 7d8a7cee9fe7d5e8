//! The shard partition (§5.4, \[38\]): which shard chain owns an account,
//! and which escrow address absorbs the locks of a cross-shard transfer.
//! Both are pure functions of their arguments; the protocol that seals
//! blocks per shard and carries lock → receipt → mint between them is
//! [`crate::beacon`], and what sharding buys in throughput is measured
//! there (experiment E22).
//!
//! The `ShardedLedger` name is historical — it once also held a sequential
//! slot-counting simulator — and survives because the frozen `benchmark/`
//! package imports these functions by that path.

use dcs_crypto::{sha256, Address};
use dcs_primitives::Amount;

/// A transfer request routed through the sharded tier.
#[derive(Debug, Clone, Copy)]
pub struct Transfer {
    /// Sender.
    pub from: Address,
    /// Recipient.
    pub to: Address,
    /// Amount.
    pub value: Amount,
}

/// Namespace of the partition and escrow-addressing functions.
#[derive(Debug)]
pub enum ShardedLedger {}

impl ShardedLedger {
    /// Which of `k` shards owns an address: the hash partition of §5.4's
    /// data layer.
    pub fn home_shard(addr: &Address, k: usize) -> usize {
        (sha256(addr.as_bytes()).prefix_u64() % k as u64) as usize
    }

    /// The escrow address absorbing cross-shard locks between two shards.
    pub fn bridge_address(src: usize, dst: usize) -> Address {
        let mut bytes = b"shard-bridge".to_vec();
        bytes.extend_from_slice(&(src as u32).to_le_bytes());
        bytes.extend_from_slice(&(dst as u32).to_le_bytes());
        Address::from_hash(&sha256(&bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_stable_and_covers_all_shards() {
        let k = 4;
        let mut seen = vec![false; k];
        for a in (0..200).map(Address::from_index) {
            let s = ShardedLedger::home_shard(&a, k);
            assert_eq!(s, ShardedLedger::home_shard(&a, k));
            seen[s] = true;
        }
        assert!(seen.iter().all(|&s| s), "200 accounts hit all 4 shards");
    }

    /// Every dcsbench `beacon_shards` digest and every shard genesis depends
    /// on these two mappings; the values are the parent commit's.
    #[test]
    fn partition_and_bridge_addresses_are_pinned() {
        let homes: Vec<usize> = (0..12)
            .map(|i| ShardedLedger::home_shard(&Address::from_index(i), 4))
            .collect();
        assert_eq!(homes, [3, 0, 0, 3, 2, 0, 2, 3, 2, 2, 3, 0]);
        assert_eq!(
            ShardedLedger::bridge_address(0, 1).to_string(),
            "39fa7a1bf28462d8ac2f9bdb8e8b097862481852"
        );
        assert_eq!(
            ShardedLedger::bridge_address(3, 2).to_string(),
            "c76bbce02a72b7a9a153ce8eb0075ca8b023167d"
        );
    }
}
