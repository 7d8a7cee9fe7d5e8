//! Slot-based proof-of-stake (§2.4, \[13\]): time is divided into fixed slots;
//! in each slot a deterministic stake-weighted lottery (seeded from the slot
//! number) picks the proposer. Every peer evaluates the same lottery, so
//! proposals carry a verifiable [`Seal::Stake`] proof and forks arise only
//! from propagation races — no hashing is expended, which is the point of
//! experiment E5.

use crate::node::{Inbound, LedgerNode, NodeCore};
use crate::WireMsg;
use dcs_chain::StateMachine;
use dcs_crypto::{sha256, Address, Hash256};
use dcs_net::{Ctx, NodeId, Protocol};
use dcs_primitives::{Block, ChainConfig, ConsensusKind, Seal};
use dcs_sim::{Rng, SimDuration};

/// The stake distribution every validator knows (registered at genesis).
#[derive(Debug, Clone)]
pub struct StakeTable {
    addresses: Vec<Address>,
    stakes: Vec<u64>,
    chain_id: u32,
}

impl StakeTable {
    /// Builds the table; one entry per validator.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or total stake is zero.
    pub fn new(addresses: Vec<Address>, stakes: Vec<u64>, chain_id: u32) -> Self {
        assert_eq!(addresses.len(), stakes.len(), "one stake per validator");
        assert!(
            stakes.iter().sum::<u64>() > 0,
            "total stake must be positive"
        );
        StakeTable {
            addresses,
            stakes,
            chain_id,
        }
    }

    /// Number of validators.
    pub fn len(&self) -> usize {
        self.addresses.len()
    }

    /// True when there are no validators (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.addresses.is_empty()
    }

    /// The stake vector (for decentralization metrics).
    pub fn stakes(&self) -> &[u64] {
        &self.stakes
    }

    /// The slot lottery: which validator index proposes in `slot`.
    /// Deterministic in (chain_id, slot) so all honest peers agree.
    pub fn slot_leader(&self, slot: u64) -> usize {
        let mut seed_bytes = Vec::with_capacity(16);
        seed_bytes.extend_from_slice(&self.chain_id.to_le_bytes());
        seed_bytes.extend_from_slice(&slot.to_le_bytes());
        let seed = sha256(&seed_bytes).prefix_u64();
        Rng::seed_from(seed).weighted_index(&self.stakes)
    }

    /// The lottery proof a proposer embeds in its seal.
    pub fn slot_proof(&self, slot: u64, proposer: &Address) -> Hash256 {
        let mut bytes = Vec::with_capacity(28);
        bytes.extend_from_slice(&slot.to_le_bytes());
        bytes.extend_from_slice(proposer.as_bytes());
        sha256(&bytes)
    }

    /// Verifies a stake seal: right slot leader, right proof.
    pub fn verify_seal(&self, proposer: &Address, seal: &Seal) -> bool {
        let Seal::Stake { slot, proof } = seal else {
            return false;
        };
        let leader = self.slot_leader(*slot);
        self.addresses[leader] == *proposer && *proof == self.slot_proof(*slot, proposer)
    }
}

/// A proof-of-stake validator.
#[derive(Debug)]
pub struct PosNode<M: StateMachine> {
    /// Shared peer machinery.
    pub core: NodeCore<M>,
    /// Lottery evaluations performed (the PoS "work" analogue for E5: one
    /// cheap hash per slot instead of `difficulty` hashes per block).
    pub lotteries_evaluated: u64,
    /// Blocks refused for invalid stake seals, gossiped or served by
    /// catch-up sync.
    pub invalid_seals: u64,
    stake_table: StakeTable,
    slot_us: u64,
    my_index: usize,
    last_slot: u64,
}

impl<M: StateMachine> PosNode<M> {
    /// Creates a validator at index `my_index` of the stake table.
    ///
    /// # Panics
    ///
    /// Panics if the config is not `ProofOfStake` or the index is out of
    /// range.
    pub fn new(
        id: NodeId,
        genesis: Block,
        config: ChainConfig,
        machine: M,
        stake_table: StakeTable,
        my_index: usize,
    ) -> Self {
        let ConsensusKind::ProofOfStake { slot_us } = config.consensus else {
            panic!("PosNode requires a ProofOfStake consensus config")
        };
        assert!(my_index < stake_table.len(), "validator index in range");
        let address = stake_table.addresses[my_index];
        PosNode {
            core: NodeCore::new(id, address, genesis, config, machine),
            lotteries_evaluated: 0,
            invalid_seals: 0,
            stake_table,
            slot_us,
            my_index,
            last_slot: 0,
        }
    }

    fn schedule_next_slot(&self, ctx: &mut Ctx<'_, WireMsg>) {
        let now_us = ctx.now.as_micros();
        let next_slot = now_us / self.slot_us + 1;
        let delay = next_slot * self.slot_us - now_us;
        ctx.set_timer(SimDuration::from_micros(delay), next_slot);
    }
}

impl<M: StateMachine> Protocol for PosNode<M> {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        self.schedule_next_slot(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: WireMsg, ctx: &mut Ctx<'_, WireMsg>) {
        // Gossip and catch-up pages pass the same seal check in the core.
        let (table, refused) = (&self.stake_table, &mut self.invalid_seals);
        let inbound = self.core.on_message_sealed(from, msg, ctx, &mut |block| {
            let ok = table.verify_seal(&block.header.proposer, &block.header.seal);
            *refused += u64::from(!ok);
            ok
        });
        // The slot schedule is clock driven: a caught-up tip re-arms nothing.
        if let Inbound::Block(block) = inbound {
            self.core.handle_block(block, Some(from), ctx);
        }
    }

    fn on_timer(&mut self, slot: u64, ctx: &mut Ctx<'_, WireMsg>) {
        // A slot fires once: a timer armed before a crash that outlives the
        // downtime finds its slot already taken by the restart's own.
        if self.core.on_timer(slot, ctx) || slot <= self.last_slot {
            return;
        }
        self.last_slot = slot;
        self.lotteries_evaluated += 1;
        if self.stake_table.slot_leader(slot) == self.my_index {
            let proof = self.stake_table.slot_proof(slot, &self.core.address);
            let block = self.core.build_block(Seal::Stake { slot, proof }, ctx.now);
            self.core.handle_block(block, None, ctx);
        }
        self.schedule_next_slot(ctx);
    }
}

impl<M: StateMachine> LedgerNode for PosNode<M> {
    type Machine = M;

    fn core(&self) -> &NodeCore<M> {
        &self.core
    }

    fn core_mut(&mut self) -> &mut NodeCore<M> {
        &mut self.core
    }

    fn work_expended(&self) -> f64 {
        // One lottery hash per slot.
        self.lotteries_evaluated as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> StakeTable {
        StakeTable::new(
            (0..4).map(Address::from_index).collect(),
            vec![10, 20, 30, 40],
            7,
        )
    }

    #[test]
    fn lottery_is_deterministic_and_stake_weighted() {
        let t = table();
        let mut counts = [0u64; 4];
        for slot in 0..20_000 {
            let leader = t.slot_leader(slot);
            assert_eq!(leader, t.slot_leader(slot), "deterministic");
            counts[leader] += 1;
        }
        // Validator 3 has 4x the stake of validator 0.
        let ratio = counts[3] as f64 / counts[0] as f64;
        assert!((ratio - 4.0).abs() < 0.6, "ratio {ratio}");
    }

    #[test]
    fn seal_verification() {
        let t = table();
        let slot = 5;
        let leader = t.slot_leader(slot);
        let proposer = Address::from_index(leader as u64);
        let good = Seal::Stake {
            slot,
            proof: t.slot_proof(slot, &proposer),
        };
        assert!(t.verify_seal(&proposer, &good));

        // Wrong proposer.
        let imposter = Address::from_index(((leader + 1) % 4) as u64);
        let forged = Seal::Stake {
            slot,
            proof: t.slot_proof(slot, &imposter),
        };
        assert!(!t.verify_seal(&imposter, &forged));

        // Wrong proof.
        let bad_proof = Seal::Stake {
            slot,
            proof: dcs_crypto::sha256(b"junk"),
        };
        assert!(!t.verify_seal(&proposer, &bad_proof));

        // Wrong seal kind.
        assert!(!t.verify_seal(&proposer, &Seal::None));
    }

    #[test]
    #[should_panic(expected = "total stake must be positive")]
    fn zero_stake_table_panics() {
        StakeTable::new(vec![Address::ZERO], vec![0], 1);
    }
}
