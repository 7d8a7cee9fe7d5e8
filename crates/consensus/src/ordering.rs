//! A Hyperledger-style ordering service (§2.4, \[2\], \[18\]): a designated
//! orderer sequences incoming transactions into batches; committing peers
//! validate and apply. "There is thus no possibility of branching ... and no
//! branch selection algorithm is therefore required" — the CS corner of the
//! DCS triangle, traded against decentralization (one or few orderers).
//!
//! Supports a static leader (`rotate_every = 0`) or round-robin rotation
//! every N blocks among all peers.

use crate::node::{Inbound, LedgerNode, NodeCore};
use crate::WireMsg;
use dcs_chain::StateMachine;
use dcs_crypto::Address;
use dcs_net::{Ctx, NodeId, Protocol};
use dcs_primitives::{Block, ChainConfig, ConsensusKind, Seal};
use dcs_sim::SimDuration;

/// A peer in an ordering-service network. All peers gossip transactions;
/// whichever peer currently holds the orderer role cuts batches.
#[derive(Debug)]
pub struct OrderingNode<M: StateMachine> {
    /// Shared peer machinery.
    pub core: NodeCore<M>,
    batch_size: usize,
    batch_timeout_us: u64,
    rotate_every: u64,
    node_count: usize,
    /// Tag of the live batch tick; a restart bumps it so a tick armed
    /// before the crash cannot start a second tick chain.
    tick_epoch: u64,
}

impl<M: StateMachine> OrderingNode<M> {
    /// Creates a peer; `node_count` is the network size (for rotation).
    ///
    /// # Panics
    ///
    /// Panics if the config is not `Ordering`.
    pub fn new(
        id: NodeId,
        address: Address,
        genesis: Block,
        config: ChainConfig,
        machine: M,
        node_count: usize,
    ) -> Self {
        let ConsensusKind::Ordering {
            batch_size,
            batch_timeout_us,
            rotate_every,
        } = config.consensus
        else {
            panic!("OrderingNode requires an Ordering consensus config")
        };
        OrderingNode {
            core: NodeCore::new(id, address, genesis, config, machine),
            batch_size,
            batch_timeout_us,
            rotate_every,
            node_count,
            tick_epoch: 0,
        }
    }

    /// Which peer orders the block at `height`.
    pub fn orderer_for_height(&self, height: u64) -> NodeId {
        match height.checked_div(self.rotate_every) {
            // rotate_every == 0 means a fixed orderer.
            None => NodeId(0),
            Some(turn) => NodeId((turn % self.node_count as u64) as usize),
        }
    }

    fn is_my_turn(&self) -> bool {
        self.orderer_for_height(self.core.chain.height() + 1) == self.core.id
    }

    fn pending(&self) -> usize {
        self.core.mempool.len()
    }

    fn try_cut_batch(&mut self, ctx: &mut Ctx<'_, WireMsg>, force: bool) {
        if !self.is_my_turn() {
            return;
        }
        let pending = self.pending();
        if pending == 0 {
            return;
        }
        if pending >= self.batch_size || force {
            let height = self.core.chain.height() + 1;
            let seal = Seal::Authority {
                view: 0,
                sequence: height,
                votes: 1,
            };
            let block = self.core.build_block(seal, ctx.now);
            self.core.handle_block(block, None, ctx);
            // Immediately try again: a backlog larger than one batch should
            // drain at full rate rather than one batch per timeout.
            self.try_cut_batch(ctx, false);
        }
    }

    fn schedule_tick(&self, ctx: &mut Ctx<'_, WireMsg>) {
        ctx.set_timer(
            SimDuration::from_micros(self.batch_timeout_us),
            self.tick_epoch,
        );
    }
}

impl<M: StateMachine> Protocol for OrderingNode<M> {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        self.schedule_tick(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: WireMsg, ctx: &mut Ctx<'_, WireMsg>) {
        match self.core.on_message(from, msg, ctx) {
            Inbound::Block(block) => {
                self.core.handle_block(block, Some(from), ctx);
            }
            // A new transaction may fill a batch; a caught-up tip may have
            // rotated the orderer role onto us at the new height.
            Inbound::Tx { fresh: true } | Inbound::TipMoved => self.try_cut_batch(ctx, false),
            _ => {}
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, WireMsg>) {
        if self.core.on_timer(tag, ctx) || tag != self.tick_epoch {
            return; // a sync retry, or a tick armed before a crash
        }
        // Batch timeout: cut whatever is pending, then re-arm.
        self.try_cut_batch(ctx, true);
        self.schedule_tick(ctx);
    }
}

impl<M: StateMachine> LedgerNode for OrderingNode<M> {
    type Machine = M;

    fn core(&self) -> &NodeCore<M> {
        &self.core
    }

    fn core_mut(&mut self) -> &mut NodeCore<M> {
        &mut self.core
    }

    fn reset_volatile(&mut self) {
        self.tick_epoch += 1;
    }
}
