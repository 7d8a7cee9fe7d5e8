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

    /// Cuts a batch if it is this peer's turn and the pool holds a full one
    /// (any, if `force`), then keeps cutting full batches: a backlog larger
    /// than one batch drains at full rate rather than one batch per
    /// timeout. A cut that does not move the tip (its block failed, and
    /// the pool is as it was) ends the drain.
    fn try_cut_batch(&mut self, ctx: &mut Ctx<'_, WireMsg>, mut force: bool) {
        while self.is_my_turn() {
            let pending = self.pending();
            if pending == 0 || (pending < self.batch_size && !force) {
                return;
            }
            let tip = self.core.chain.tip_hash();
            let seal = Seal::Authority {
                view: 0,
                sequence: self.core.chain.height() + 1,
                votes: 1,
            };
            let block = self.core.build_block(seal, ctx.now);
            self.core.handle_block(block, None, ctx);
            if self.core.chain.tip_hash() == tip {
                return;
            }
            force = false;
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
        let inbound = self.core.on_message(from, msg, ctx);
        // A new transaction may fill a batch; a tip moved by a page or by
        // a block imported here may have rotated the orderer role onto us
        // at the new height. A block goes in first, so the cut builds on it.
        let mut cut = matches!(inbound, Inbound::Tx { fresh: true, .. } | Inbound::TipMoved);
        for block in inbound.blocks() {
            let event = self.core.handle_block(block, Some(from), ctx);
            cut |= event.is_some_and(|e| e.moved_tip());
        }
        if cut {
            self.try_cut_batch(ctx, false);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::tests::tx;
    use dcs_chain::NullMachine;
    use dcs_net::Action;
    use dcs_primitives::SealedTx;
    use dcs_sim::SimTime;
    use std::sync::Arc;

    /// Peer `id` of four, the orderer role rotating every block and cut at
    /// two pending transactions.
    fn peer(id: usize) -> OrderingNode<NullMachine> {
        let mut config = ChainConfig::hyperledger_like();
        config.consensus = ConsensusKind::Ordering {
            batch_size: 2,
            batch_timeout_us: 500_000,
            rotate_every: 1,
        };
        let genesis = dcs_chain::genesis_block(&config);
        OrderingNode::new(NodeId(id), Address::ZERO, genesis, config, NullMachine, 4)
    }

    fn deliver(node: &mut OrderingNode<NullMachine>, from: usize, msg: WireMsg) {
        let neighbors: Vec<NodeId> = (0..4).map(NodeId).filter(|&i| i != node.core.id).collect();
        let mut rng = dcs_sim::Rng::seed_from(1);
        let mut actions: Vec<Action<WireMsg>> = Vec::new();
        let mut ctx = Ctx::new(
            node.core.id,
            SimTime::ZERO,
            &neighbors,
            &mut rng,
            &mut actions,
        );
        node.on_message(NodeId(from), msg, &mut ctx);
    }

    /// A transaction that completes a held block is still a fresh
    /// transaction to the engine: peer 2 imports the block it completed,
    /// which hands it the orderer role, and on that same transaction cuts
    /// the two it has pending.
    #[test]
    fn the_body_that_completes_a_held_block_still_cuts_a_batch() {
        let sealed = |v| SealedTx::new(Arc::new(tx(v)));
        let mut orderer = peer(1);
        orderer.core.mempool.insert(sealed(1));
        let seal = Seal::Authority {
            view: 0,
            sequence: 1,
            votes: 1,
        };
        let block = orderer.core.build_block(seal, SimTime::ZERO);

        let mut next = peer(2);
        next.core.mempool.insert(sealed(2));
        next.core.mempool.insert(sealed(3));
        deliver(&mut next, 1, WireMsg::CompactBlock(block));
        assert_eq!(next.core.chain.height(), 0, "held for its one missing body");
        deliver(&mut next, 3, WireMsg::Tx(sealed(1)));
        assert_eq!(next.core.chain.height(), 2, "imported, then cut on top");
        assert!(next.core.mempool.is_empty());
    }

    /// The import that hands a peer the orderer role is its cue to cut:
    /// peer 2, holding a full batch, is handed the height-1 block whole
    /// and cuts on top of it at once, not at its next transaction or tick.
    #[test]
    fn the_import_that_gives_a_peer_the_turn_cuts_its_batch() {
        let sealed = |v| SealedTx::new(Arc::new(tx(v)));
        let seal = Seal::Authority {
            view: 0,
            sequence: 1,
            votes: 1,
        };
        let block = peer(1).core.build_block(seal, SimTime::ZERO);

        let mut next = peer(2);
        next.core.mempool.insert(sealed(2));
        next.core.mempool.insert(sealed(3));
        deliver(&mut next, 1, WireMsg::CompactBlock(block));
        assert_eq!(next.core.chain.height(), 2, "imported, then cut on top");
        assert!(next.core.mempool.is_empty());
    }
}
