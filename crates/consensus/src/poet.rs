//! Proof-of-elapsed-time (§5.4, \[41\]): every peer asks its trusted execution
//! environment for a random wait; the first to finish waiting proposes.
//! Consensus-visible behaviour is identical to proof-of-work's exponential
//! race — but no hashing is burned, which is exactly Sawtooth's pitch.
//!
//! The TEE is simulated (DESIGN.md substitution): waits are exponential
//! draws from the peer's own RNG, and a `cheat_factor < 1.0` models a
//! compromised enclave that shortens its waits — used to reproduce the PoET
//! security concern analyzed in \[41\].

use crate::node::{Inbound, LedgerNode, NodeCore};
use crate::WireMsg;
use dcs_chain::StateMachine;
use dcs_crypto::Address;
use dcs_net::{Ctx, NodeId, Protocol};
use dcs_primitives::{Block, ChainConfig, ConsensusKind, Seal};
use dcs_sim::SimDuration;

/// A proof-of-elapsed-time peer.
#[derive(Debug)]
pub struct PoetNode<M: StateMachine> {
    /// Shared peer machinery.
    pub core: NodeCore<M>,
    /// TEE wait requests made (the PoET "work" analogue for E5).
    pub waits_drawn: u64,
    /// 1.0 = honest enclave; 0.5 = waits halved (compromised SGX).
    pub cheat_factor: f64,
    mean_wait_us: u64,
    epoch: u64,
}

impl<M: StateMachine> PoetNode<M> {
    /// Creates an honest PoET peer.
    ///
    /// # Panics
    ///
    /// Panics if the config is not `ProofOfElapsedTime`.
    pub fn new(
        id: NodeId,
        address: Address,
        genesis: Block,
        config: ChainConfig,
        machine: M,
    ) -> Self {
        let ConsensusKind::ProofOfElapsedTime { mean_wait_us } = config.consensus else {
            panic!("PoetNode requires a ProofOfElapsedTime consensus config")
        };
        PoetNode {
            core: NodeCore::new(id, address, genesis, config, machine),
            waits_drawn: 0,
            cheat_factor: 1.0,
            mean_wait_us,
            epoch: 0,
        }
    }

    fn draw_wait(&mut self, ctx: &mut Ctx<'_, WireMsg>) -> SimDuration {
        self.waits_drawn += 1;
        let mean = self.mean_wait_us as f64 * self.cheat_factor;
        SimDuration::from_secs_f64(ctx.rng.exp(mean / 1_000_000.0))
    }

    fn restart_wait(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        self.epoch += 1;
        let wait = self.draw_wait(ctx);
        ctx.set_timer(wait, self.epoch);
    }
}

impl<M: StateMachine> Protocol for PoetNode<M> {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        self.restart_wait(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: WireMsg, ctx: &mut Ctx<'_, WireMsg>) {
        match self.core.on_message(from, msg, ctx) {
            Inbound::TipMoved => self.restart_wait(ctx), // wait from the caught-up tip
            inbound => {
                for block in inbound.blocks() {
                    let event = self.core.handle_block(block, Some(from), ctx);
                    if event.is_some_and(|e| e.moved_tip()) {
                        self.restart_wait(ctx);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, WireMsg>) {
        if self.core.on_timer(tag, ctx) || tag != self.epoch {
            return; // a sync retry, or a wait a block arrived during
        }
        let seal = Seal::ElapsedTime { wait_us: 0 };
        let block = self.core.build_block(seal, ctx.now);
        self.core.handle_block(block, None, ctx);
        self.restart_wait(ctx);
    }
}

impl<M: StateMachine> LedgerNode for PoetNode<M> {
    type Machine = M;

    fn core(&self) -> &NodeCore<M> {
        &self.core
    }

    fn core_mut(&mut self) -> &mut NodeCore<M> {
        &mut self.core
    }

    fn work_expended(&self) -> f64 {
        // One TEE wait request per proposal opportunity.
        self.waits_drawn as f64
    }
}
