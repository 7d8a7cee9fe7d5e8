//! Practical Byzantine Fault Tolerance (§2.4: Hyperledger's "committing
//! peers ... must then execute a Practical Byzantine Fault-Tolerance
//! protocol"): the classic three-phase protocol — pre-prepare, prepare,
//! commit — over a fully connected consortium of `n = 3f + 1` peers,
//! tolerating `f` faulty ones, with view changes to replace a failed leader.
//!
//! Peers communicate point-to-point (consortium networks are small and fully
//! connected), not by gossip. A fail-stop fault is the fabric's: a crashed
//! replica is never dispatched (`dcs_net::Network::crash`), and its restart
//! is [`LedgerNode::on_restart`]. Equivocation is not modeled (the simulator
//! drives all honest peers from the same implementation).

use crate::node::{Inbound, LedgerNode, NodeCore};
use crate::WireMsg;
use dcs_chain::StateMachine;
use dcs_crypto::{Address, Hash256};
use dcs_net::{Ctx, NodeId, Protocol};
use dcs_primitives::{Block, ChainConfig, ConsensusKind, Seal};
use dcs_sim::SimDuration;
use dcs_trace::{PbftPhase, TraceEvent};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// PBFT protocol messages.
#[derive(Debug, Clone)]
pub enum PbftMsg {
    /// Leader's proposal for sequence `seq` in `view`.
    PrePrepare {
        /// Current view.
        view: u64,
        /// Sequence number (block height).
        seq: u64,
        /// The proposed block.
        block: Arc<Block>,
    },
    /// A replica's agreement that the proposal for `(view, seq)` is `digest`.
    Prepare {
        /// Current view.
        view: u64,
        /// Sequence number.
        seq: u64,
        /// Block hash being prepared.
        digest: Hash256,
    },
    /// A replica's commitment after seeing a prepared quorum.
    Commit {
        /// Current view.
        view: u64,
        /// Sequence number.
        seq: u64,
        /// Block hash being committed.
        digest: Hash256,
    },
    /// A vote to abandon the current view for `new_view`.
    ViewChange {
        /// The proposed new view.
        new_view: u64,
    },
}

const TAG_BATCH: u64 = 1 << 40;
const TAG_VIEW: u64 = 2 << 40;

#[derive(Debug, Default)]
struct SeqState {
    candidate: Option<Arc<Block>>,
    prepares: BTreeSet<NodeId>,
    commits: BTreeSet<NodeId>,
    sent_prepare: bool,
    sent_commit: bool,
}

/// A PBFT replica.
#[derive(Debug)]
pub struct PbftNode<M: StateMachine> {
    /// Shared peer machinery.
    pub core: NodeCore<M>,
    /// View changes this replica has executed.
    pub view_changes: u64,
    n: usize,
    view: u64,
    state: BTreeMap<u64, SeqState>,
    view_votes: BTreeMap<u64, BTreeSet<NodeId>>,
    view_timer_epoch: u64,
    /// Epoch of the live batch tick; a restart bumps it so a tick armed
    /// before the crash cannot start a second tick chain.
    batch_epoch: u64,
    batch_timeout_us: u64,
    view_timeout_us: u64,
    /// The sequence the leader currently has a proposal out for.
    in_flight: Option<u64>,
}

impl<M: StateMachine> PbftNode<M> {
    /// Creates replica `id` of an `n`-peer consortium.
    ///
    /// # Panics
    ///
    /// Panics if the config is not `Pbft` or `n < 4` (PBFT needs `3f+1 ≥ 4`).
    pub fn new(
        id: NodeId,
        address: Address,
        genesis: Block,
        config: ChainConfig,
        machine: M,
        n: usize,
    ) -> Self {
        assert!(n >= 4, "PBFT needs at least 4 replicas, got {n}");
        let ConsensusKind::Pbft {
            batch_timeout_us,
            view_timeout_us,
            ..
        } = config.consensus
        else {
            // Constructor misuse is a programmer error, not a peer input.
            panic!("PbftNode requires a Pbft consensus config") // dcs-lint: allow(panic-path)
        };
        PbftNode {
            core: NodeCore::new(id, address, genesis, config, machine),
            view_changes: 0,
            n,
            view: 0,
            state: BTreeMap::new(),
            view_votes: BTreeMap::new(),
            view_timer_epoch: 0,
            batch_epoch: 0,
            batch_timeout_us,
            view_timeout_us,
            in_flight: None,
        }
    }

    /// Maximum faulty replicas tolerated: `f = (n - 1) / 3`.
    pub fn f(&self) -> usize {
        (self.n - 1) / 3
    }

    fn quorum(&self) -> usize {
        2 * self.f() + 1
    }

    /// The leader of a view: round-robin over replicas.
    pub fn leader_of(&self, view: u64) -> NodeId {
        NodeId((view % self.n as u64) as usize)
    }

    /// The current view.
    pub fn view(&self) -> u64 {
        self.view
    }

    fn i_am_leader(&self) -> bool {
        self.leader_of(self.view) == self.core.id
    }

    fn send_all(&self, msg: PbftMsg, ctx: &mut Ctx<'_, WireMsg>) {
        let wrapped = WireMsg::Pbft(msg);
        let size = crate::wire_size(&wrapped);
        for i in 0..self.n {
            let to = NodeId(i);
            if to != self.core.id {
                ctx.send(to, wrapped.clone(), size);
            }
        }
    }

    fn next_seq(&self) -> u64 {
        self.core.chain.height() + 1
    }

    fn try_propose(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        if !self.i_am_leader() || self.in_flight.is_some() || self.core.mempool.is_empty() {
            return;
        }
        let seq = self.next_seq();
        let seal = Seal::Authority {
            view: self.view,
            sequence: seq,
            votes: self.quorum() as u32,
        };
        let block = self.core.build_block(seal, ctx.now);
        self.in_flight = Some(seq);
        self.core.emit(
            ctx.now.as_micros(),
            TraceEvent::Pbft {
                phase: PbftPhase::PrePrepare,
                view: self.view,
                seq,
            },
        );
        // The leader is its own first prepare voter.
        let digest = block.hash();
        let entry = self.state.entry(seq).or_default();
        entry.candidate = Some(block.clone());
        entry.prepares.insert(self.core.id);
        entry.sent_prepare = true;
        self.send_all(
            PbftMsg::PrePrepare {
                view: self.view,
                seq,
                block,
            },
            ctx,
        );
        let view = self.view;
        self.send_all(PbftMsg::Prepare { view, seq, digest }, ctx);
        self.check_quorums(seq, ctx);
    }

    fn check_quorums(&mut self, seq: u64, ctx: &mut Ctx<'_, WireMsg>) {
        let quorum = self.quorum();
        let view = self.view;
        let Some(entry) = self.state.get_mut(&seq) else {
            return;
        };
        let Some(block) = entry.candidate.clone() else {
            return;
        };
        let digest = block.hash();

        if entry.prepares.len() >= quorum && !entry.sent_commit {
            entry.sent_commit = true;
            entry.commits.insert(self.core.id);
            self.core.emit(
                ctx.now.as_micros(),
                TraceEvent::Pbft {
                    phase: PbftPhase::Commit,
                    view,
                    seq,
                },
            );
            self.send_all(PbftMsg::Commit { view, seq, digest }, ctx);
        }

        let Some(entry) = self.state.get_mut(&seq) else {
            return;
        };
        if entry.commits.len() >= quorum && seq == self.next_seq() {
            // Commit-time linkage check: the proposal must extend our tip
            // (it always does under an honest leader; a stale cross-view
            // remnant is dropped here).
            if block.header.parent != self.core.chain.tip_hash() {
                self.state.remove(&seq);
                return;
            }
            // Committed: apply to the chain and move on.
            self.state.remove(&seq);
            if self.in_flight == Some(seq) {
                self.in_flight = None;
            }
            self.core.handle_block(block, None, ctx);
            // Progress achieved: reset the view-change timer.
            self.arm_view_timer(ctx);
            self.try_propose(ctx);
            // A buffered out-of-order proposal may now be committable.
            self.check_quorums(seq + 1, ctx);
        }
    }

    /// The chain advanced outside this replica's own commit path (gossip
    /// fallback or catch-up sync): drop buffered per-seq state at or below
    /// the new tip and carry on from there.
    fn chain_moved(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        let height = self.core.chain.height();
        self.state.retain(|&s, _| s > height);
        if self.in_flight.is_some_and(|s| s <= height) {
            self.in_flight = None;
        }
        self.arm_view_timer(ctx);
        self.try_propose(ctx);
    }

    fn schedule_batch_tick(&self, ctx: &mut Ctx<'_, WireMsg>) {
        ctx.set_timer(
            SimDuration::from_micros(self.batch_timeout_us),
            TAG_BATCH | self.batch_epoch,
        );
    }

    fn arm_view_timer(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        self.view_timer_epoch += 1;
        ctx.set_timer(
            SimDuration::from_micros(self.view_timeout_us),
            TAG_VIEW | self.view_timer_epoch,
        );
    }

    fn enter_view(&mut self, new_view: u64, ctx: &mut Ctx<'_, WireMsg>) {
        self.view = new_view;
        self.view_changes += 1;
        self.core.emit(
            ctx.now.as_micros(),
            TraceEvent::Pbft {
                phase: PbftPhase::ViewChange,
                view: new_view,
                seq: 0,
            },
        );
        self.in_flight = None;
        self.state.clear();
        self.view_votes.retain(|v, _| *v > new_view);
        self.arm_view_timer(ctx);
        self.try_propose(ctx);
    }
}

impl<M: StateMachine> Protocol for PbftNode<M> {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        self.schedule_batch_tick(ctx);
        self.arm_view_timer(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: WireMsg, ctx: &mut Ctx<'_, WireMsg>) {
        match self.core.on_message(from, msg, ctx) {
            Inbound::Handled => {}
            Inbound::Tx { .. } => self.try_propose(ctx),
            Inbound::Block(block) => {
                // Fallback sync path: peers whose commit quorum completed
                // first gossip the committed block; accept it and catch up.
                // Without this reconciliation the leader can wedge — its
                // own quorum never completes because the chain already
                // moved underneath it.
                if self.core.handle_block(block, Some(from), ctx).is_some() {
                    self.chain_moved(ctx);
                }
            }
            Inbound::TipMoved => self.chain_moved(ctx),
            Inbound::Pbft(pbft) => match pbft {
                PbftMsg::PrePrepare { view, seq, block } => {
                    // A replica that was down across view changes adopts the
                    // higher view when the (alleged) leader of that view
                    // proposes in it — this is how a restarted replica
                    // rejoins the working view without a full view-change
                    // certificate exchange.
                    if view > self.view && from == self.leader_of(view) {
                        self.enter_view(view, ctx);
                    }
                    if view != self.view || from != self.leader_of(view) {
                        return;
                    }
                    // Accept current *and future* sequences: a fast leader
                    // may propose seq+1 before our commit for seq lands.
                    // Buffered proposals commit in order (linkage is checked
                    // at commit time in `check_quorums`).
                    if seq < self.next_seq() {
                        return;
                    }
                    let digest = block.hash();
                    let entry = self.state.entry(seq).or_default();
                    if entry.candidate.is_none() {
                        entry.candidate = Some(block);
                    }
                    if !entry.sent_prepare {
                        entry.sent_prepare = true;
                        entry.prepares.insert(self.core.id);
                        self.core.emit(
                            ctx.now.as_micros(),
                            TraceEvent::Pbft {
                                phase: PbftPhase::Prepare,
                                view,
                                seq,
                            },
                        );
                        self.send_all(PbftMsg::Prepare { view, seq, digest }, ctx);
                    }
                    self.check_quorums(seq, ctx);
                }
                PbftMsg::Prepare { view, seq, digest } => {
                    if view != self.view {
                        return;
                    }
                    let entry = self.state.entry(seq).or_default();
                    if entry.candidate.as_ref().is_some_and(|b| b.hash() != digest) {
                        return; // conflicting digest: ignore
                    }
                    entry.prepares.insert(from);
                    self.check_quorums(seq, ctx);
                }
                PbftMsg::Commit { view, seq, digest } => {
                    if view != self.view {
                        return;
                    }
                    let entry = self.state.entry(seq).or_default();
                    if entry.candidate.as_ref().is_some_and(|b| b.hash() != digest) {
                        return;
                    }
                    entry.commits.insert(from);
                    self.check_quorums(seq, ctx);
                }
                PbftMsg::ViewChange { new_view } => {
                    if new_view <= self.view {
                        return;
                    }
                    let votes = self.view_votes.entry(new_view).or_default();
                    votes.insert(from);
                    if votes.len() + 1 >= self.quorum() {
                        // +1 counts our own (implicit or explicit) vote.
                        self.enter_view(new_view, ctx);
                    }
                }
            },
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, WireMsg>) {
        if self.core.on_timer(tag, ctx) {
            return;
        }
        let kind = tag & (0xff << 40);
        let counter = tag & !(0xff << 40);
        match kind {
            TAG_BATCH => {
                if counter != self.batch_epoch {
                    return; // a tick armed before a crash
                }
                self.try_propose(ctx);
                self.schedule_batch_tick(ctx);
            }
            TAG_VIEW => {
                if counter != self.view_timer_epoch {
                    return;
                }
                // No progress: demand a view change if there is work to do.
                if !self.core.mempool.is_empty() {
                    let new_view = self.view + 1;
                    self.send_all(PbftMsg::ViewChange { new_view }, ctx);
                    let votes = self.view_votes.entry(new_view).or_default();
                    if votes.len() + 1 >= self.quorum() {
                        self.enter_view(new_view, ctx);
                        return;
                    }
                }
                self.arm_view_timer(ctx);
            }
            _ => {}
        }
    }
}

impl<M: StateMachine> LedgerNode for PbftNode<M> {
    type Machine = M;

    fn core(&self) -> &NodeCore<M> {
        &self.core
    }

    fn core_mut(&mut self) -> &mut NodeCore<M> {
        &mut self.core
    }

    fn reset_volatile(&mut self) {
        // All per-view and per-sequence protocol state is volatile; a
        // restarted replica rediscovers the working view from the next
        // PrePrepare it hears (view adoption in `on_message`).
        self.view = 0;
        self.state.clear();
        self.view_votes.clear();
        self.in_flight = None;
        self.batch_epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_chain::NullMachine;
    use dcs_net::Action;
    use dcs_sim::SimTime;

    type Replica = PbftNode<NullMachine>;

    /// Runs one callback on `node` and returns the batch-tick tags it armed.
    fn batch_ticks(
        node: &mut Replica,
        step: impl FnOnce(&mut Replica, &mut Ctx<'_, WireMsg>),
    ) -> Vec<u64> {
        let neighbors = [NodeId(0), NodeId(2), NodeId(3)];
        let mut rng = dcs_sim::Rng::seed_from(1);
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(
            node.core.id,
            SimTime::ZERO,
            &neighbors,
            &mut rng,
            &mut actions,
        );
        step(node, &mut ctx);
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Timer { tag, .. } if tag & (0xff << 40) == TAG_BATCH => Some(*tag),
                _ => None,
            })
            .collect()
    }

    /// A crash and restart inside one `batch_timeout` used to leave the
    /// pre-crash tick alive beside the restart's own: two chains, each
    /// re-arming itself forever, doubling the proposal attempts.
    #[test]
    fn restarted_replica_has_exactly_one_live_tick_chain() {
        let config = ChainConfig {
            consensus: ConsensusKind::Pbft {
                batch_size: 100,
                batch_timeout_us: 500_000,
                view_timeout_us: 4_000_000,
            },
            ..ChainConfig::hyperledger_like()
        };
        let genesis = dcs_chain::genesis_block(&config);
        let mut node = PbftNode::new(NodeId(1), Address::ZERO, genesis, config, NullMachine, 4);

        let before = batch_ticks(&mut node, |n, ctx| n.on_start(ctx));
        assert_eq!(before.len(), 1);
        // Down and up again before that first tick fires.
        assert!(batch_ticks(&mut node, |n, ctx| n.on_crash(ctx)).is_empty());
        let after = batch_ticks(&mut node, |n, ctx| n.on_restart(ctx));
        assert_eq!(after.len(), 1);
        assert_ne!(before, after, "the restart's tick carries a new epoch");

        // The pre-crash tick lands on the live replica and dies there; the
        // restart's tick re-arms itself, once.
        assert!(batch_ticks(&mut node, |n, ctx| n.on_timer(before[0], ctx)).is_empty());
        assert_eq!(
            batch_ticks(&mut node, |n, ctx| n.on_timer(after[0], ctx)),
            after
        );
    }
}
