//! Nakamoto proof-of-work consensus (§2.4): each miner's time-to-next-block
//! is exponentially distributed with mean `difficulty / hash_power` — the
//! Poisson process that real hash grinding converges to — and difficulty
//! retargets every window to hold the block interval at its target.
//!
//! The substitution of sampled solve times for physical grinding is recorded
//! in DESIGN.md; the actual hash-target relation (`meets_pow_target`) is
//! exercised by [`mine_real`] and its tests/benches at low difficulty.

use crate::difficulty::next_difficulty;
use crate::node::{Inbound, LedgerNode, NodeCore};
use crate::WireMsg;
use dcs_chain::StateMachine;
use dcs_crypto::Address;
use dcs_net::{Ctx, NodeId, Protocol};
use dcs_primitives::{Block, BlockHeader, ChainConfig, ConsensusKind, Seal};
use dcs_sim::{SimDuration, SimTime};

/// A proof-of-work mining peer.
#[derive(Debug)]
pub struct PowNode<M: StateMachine> {
    /// Shared peer machinery (chain, mempool, gossip).
    pub core: NodeCore<M>,
    /// This miner's hash rate in hashes per simulated second.
    pub hash_power: f64,
    /// Cumulative simulated hash attempts — the "energy" metric of E5.
    pub work_expended: f64,
    mining_epoch: u64,
    mining_started: SimTime,
    initial_difficulty: u64,
    retarget_window: u64,
    target_interval_us: u64,
}

impl<M: StateMachine> PowNode<M> {
    /// Creates a miner.
    ///
    /// # Panics
    ///
    /// Panics if the config's consensus kind is not `ProofOfWork`, or
    /// `hash_power` is not positive.
    pub fn new(
        id: NodeId,
        address: Address,
        genesis: Block,
        config: ChainConfig,
        machine: M,
        hash_power: f64,
    ) -> Self {
        assert!(hash_power > 0.0, "hash power must be positive");
        let ConsensusKind::ProofOfWork {
            initial_difficulty,
            retarget_window,
            target_interval_us,
        } = config.consensus
        else {
            panic!("PowNode requires a ProofOfWork consensus config")
        };
        PowNode {
            core: NodeCore::new(id, address, genesis, config, machine),
            hash_power,
            work_expended: 0.0,
            mining_epoch: 0,
            mining_started: SimTime::ZERO,
            initial_difficulty,
            retarget_window,
            target_interval_us,
        }
    }

    /// The difficulty this miner's next block must carry.
    pub fn current_difficulty(&self) -> u64 {
        next_difficulty(
            &self.core.chain,
            self.initial_difficulty,
            self.retarget_window,
            self.target_interval_us,
        )
    }

    fn settle_work(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.mining_started).as_secs_f64();
        self.work_expended += self.hash_power * elapsed;
        self.mining_started = now;
    }

    fn restart_mining(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        self.settle_work(ctx.now);
        self.mining_epoch += 1;
        let difficulty = self.current_difficulty();
        let mean_secs = difficulty as f64 / self.hash_power;
        let solve = ctx.rng.exp(mean_secs);
        ctx.set_timer(SimDuration::from_secs_f64(solve), self.mining_epoch);
    }
}

impl<M: StateMachine> Protocol for PowNode<M> {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        self.mining_started = ctx.now;
        self.restart_mining(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: WireMsg, ctx: &mut Ctx<'_, WireMsg>) {
        match self.core.on_message(from, msg, ctx) {
            Inbound::TipMoved => self.restart_mining(ctx), // mine on the caught-up tip
            inbound => {
                for block in inbound.blocks() {
                    // Mining restarts whenever the tip moves (the miner must
                    // build on the new best block).
                    let event = self.core.handle_block(block, Some(from), ctx);
                    if event.is_some_and(|e| e.moved_tip()) {
                        self.restart_mining(ctx);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, WireMsg>) {
        if self.core.on_timer(tag, ctx) || tag != self.mining_epoch {
            return; // a sync retry, or a mining attempt the tip moved under
        }
        // Block found.
        let difficulty = self.current_difficulty();
        let seal = Seal::Work {
            nonce: ctx.rng.next_u64(),
            difficulty,
        };
        let block = self.core.build_block(seal, ctx.now);
        self.core.handle_block(block, None, ctx);
        self.restart_mining(ctx);
    }
}

impl<M: StateMachine> LedgerNode for PowNode<M> {
    type Machine = M;

    fn core(&self) -> &NodeCore<M> {
        &self.core
    }

    fn core_mut(&mut self) -> &mut NodeCore<M> {
        &mut self.core
    }

    fn work_expended(&self) -> f64 {
        self.work_expended
    }

    fn on_crash(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        // Book the hash work done up to the crash; none accrues while down
        // (`on_start` restarts the clock at the restart instant).
        self.settle_work(ctx.now);
    }
}

/// Actually grinds nonces until the header hash meets its difficulty target —
/// the real thing, for tests, benches, and the immutability demo. Returns
/// the sealed header and the number of attempts.
///
/// # Panics
///
/// Panics if `difficulty` is zero.
pub fn mine_real(mut header: BlockHeader, difficulty: u64, start_nonce: u64) -> (BlockHeader, u64) {
    assert!(difficulty > 0, "difficulty must be positive");
    let mut attempts = 0;
    let mut nonce = start_nonce;
    loop {
        header.seal = Seal::Work { nonce, difficulty };
        attempts += 1;
        if header.meets_pow_target() {
            return (header, attempts);
        }
        nonce = nonce.wrapping_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_crypto::Hash256;

    #[test]
    fn mine_real_finds_valid_seal() {
        let header = BlockHeader::new(Hash256::ZERO, 1, 0, Address::from_index(1), Seal::None);
        let (mined, attempts) = mine_real(header, 64, 0);
        assert!(mined.meets_pow_target());
        assert!(attempts >= 1);
        // Expected attempts ≈ difficulty; allow a wide statistical band.
        assert!(attempts < 64 * 20, "attempts {attempts}");
    }

    #[test]
    fn mined_header_fails_at_higher_difficulty() {
        let header = BlockHeader::new(Hash256::ZERO, 1, 0, Address::from_index(1), Seal::None);
        let (mined, _) = mine_real(header, 16, 0);
        // Reinterpret the same nonce at a difficulty 2^16 times higher: the
        // probability it still passes is ~2^-16.
        let harder = BlockHeader {
            seal: match mined.seal {
                Seal::Work { nonce, .. } => Seal::Work {
                    nonce,
                    difficulty: 16 << 16,
                },
                _ => unreachable!(),
            },
            ..mined
        };
        assert!(!harder.meets_pow_target());
    }

    #[test]
    fn immutability_rewriting_history_requires_remining() {
        // Build a 5-block mined chain, then tamper with block 2: every
        // subsequent block's parent link breaks, and each must be re-mined
        // (the paper's §2.2 immutability argument, made concrete).
        let difficulty = 32;
        let mut headers = Vec::new();
        let mut parent = Hash256::ZERO;
        for h in 1..=5u64 {
            let hdr = BlockHeader::new(parent, h, h, Address::from_index(h), Seal::None);
            let (mined, _) = mine_real(hdr, difficulty, 1000 * h);
            parent = mined.hash();
            headers.push(mined);
        }
        // Tamper: change block 2's proposer without re-mining.
        let mut tampered = headers[1].clone();
        tampered.proposer = Address::from_index(99);
        // Its own seal is now (almost surely) invalid...
        assert!(!tampered.meets_pow_target());
        // ...and even after re-mining it, block 3 no longer links to it.
        let (remined, _) = mine_real(tampered, difficulty, 7777);
        assert_ne!(headers[2].parent, remined.hash());
    }
}
