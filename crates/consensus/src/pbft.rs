//! Practical Byzantine Fault Tolerance (§2.4: Hyperledger's "committing
//! peers ... must then execute a Practical Byzantine Fault-Tolerance
//! protocol"): the classic three-phase protocol — pre-prepare, prepare,
//! commit — over a fully connected consortium of `n = 3f + 1` peers,
//! tolerating `f` faulty ones, with view changes to replace a failed leader.
//!
//! Peers communicate point-to-point (consortium networks are small and fully
//! connected), not by gossip, and each body crosses each link once:
//!
//! * The replica a client hands a transaction to sends it to every replica;
//!   no replica relays a transaction it got from another one.
//! * A `PrePrepare` is compact on the wire: the header, the coinbase and one
//!   id per client transaction ([`crate::wire_size`]). A replica prepares
//!   only once it holds every body the proposal names: the core holds the
//!   proposal, as it holds a relayed compact block, until its pool or one
//!   [`WireMsg::BlockTxs`] reply completes it. In memory the proposal stays
//!   the leader's `Arc<Block>`: ids are content addresses, so the block a
//!   replica would rebuild from its pool is that block, and a rebuild would
//!   only deep-copy every body. A block a peer hands over can at most
//!   complete a proposal; it is never imported.
//! * A committed block goes to nobody. A replica that falls behind — its
//!   view timer fires while it holds a commit quorum for a sequence it
//!   cannot commit — pulls the missing blocks from the view's leader by
//!   catch-up sync instead of voting for a view change.
//!
//! A fail-stop fault is the fabric's: a crashed replica is never dispatched
//! (`dcs_net::Network::crash`), and its restart is
//! [`LedgerNode::on_restart`]. Equivocation is not modeled (the simulator
//! drives all honest peers from the same implementation).

use crate::node::{Inbound, LedgerNode, NodeCore, Relay};
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
        /// The proposed block: on the wire its header, coinbase and client
        /// transaction ids; the bodies are the ones the replicas pool.
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
    /// True once this replica holds every client body the candidate names;
    /// it prepares and commits the candidate only then.
    complete: bool,
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
        let mut core = NodeCore::new(id, address, genesis, config, machine);
        core.relay = Relay::Direct;
        PbftNode {
            core,
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
        entry.complete = true;
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
        let Some(block) = entry.candidate.clone().filter(|_| entry.complete) else {
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
            // A direct-relay core sends the block to nobody.
            self.core.handle_block(block, None, ctx);
            // Progress achieved: reset the view-change timer.
            self.arm_view_timer(ctx);
            self.try_propose(ctx);
            // A buffered out-of-order proposal may now be committable.
            self.check_quorums(seq + 1, ctx);
        }
    }

    /// Prepares `seq`'s candidate once this replica holds every body it
    /// names, then counts quorums.
    fn prepare(&mut self, seq: u64, ctx: &mut Ctx<'_, WireMsg>) {
        let view = self.view;
        let Some(entry) = self.state.get_mut(&seq) else {
            return;
        };
        let Some(block) = entry.candidate.as_ref() else {
            return;
        };
        if entry.complete && !entry.sent_prepare {
            let digest = block.hash();
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

    /// A block the core completed, or a peer handed over: if it is the
    /// candidate of its height, that candidate is complete and prepared.
    /// One from an abandoned view matches nothing.
    fn completed(&mut self, block: &Block, ctx: &mut Ctx<'_, WireMsg>) {
        let seq = block.header.height;
        let is_it = |c: &Arc<Block>| c.hash() == block.hash();
        let entry = self.state.get_mut(&seq);
        if let Some(entry) = entry.filter(|e| e.candidate.as_ref().is_some_and(is_it)) {
            entry.complete = true;
            self.prepare(seq, ctx);
        }
    }

    /// True if a quorum has committed a sequence this replica has not:
    /// 2f+1 commits at or above its next sequence, which it would have
    /// committed already had it held that candidate and its bodies.
    fn behind_the_quorum(&self) -> bool {
        let quorum = self.quorum();
        let next = self.next_seq();
        self.state
            .range(next..)
            .any(|(_, entry)| entry.commits.len() >= quorum)
    }

    /// The chain advanced outside this replica's own commit path (a
    /// catch-up page): drop buffered per-seq state at or below the new tip
    /// and carry on from there.
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
            Inbound::Tx { completed, .. } => {
                for block in completed {
                    self.completed(&block, ctx);
                }
                self.try_propose(ctx);
            }
            // Replicas announce no block, so a block is imported only on
            // commit; a replica the quorum left behind pulls by catch-up
            // sync (the view-timer arm of `on_timer`), as `TipMoved`.
            Inbound::Block(block) => self.completed(&block, ctx),
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
                    let entry = self.state.entry(seq).or_default();
                    if entry.candidate.is_none() {
                        // The compact proposal names its bodies by id: the
                        // core completes it now, or holds it until it can.
                        entry.candidate = Some(Arc::clone(&block));
                        entry.complete = self.core.complete(block, from, ctx).is_some();
                    }
                    self.prepare(seq, ctx);
                }
                PbftMsg::Prepare { view, seq, digest } => {
                    // A vote for a sequence already committed here is late:
                    // recording it would leave an entry nothing removes.
                    if view != self.view || seq < self.next_seq() {
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
                    if view != self.view || seq < self.next_seq() {
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
                // No progress. If the quorum moved on without this replica,
                // pull the blocks it missed; the view is working. Otherwise
                // demand a view change if there is work to do.
                if self.behind_the_quorum() {
                    // The leader proposed that sequence only after it had
                    // committed every one below it: pull from it, not from
                    // a neighbor that may be as far behind.
                    let leader = self.leader_of(self.view);
                    if leader == self.core.id {
                        self.core.begin_catchup(ctx);
                    } else {
                        self.core.catch_up_from(leader, ctx);
                    }
                } else if !self.core.mempool.is_empty() {
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
    use dcs_primitives::{AccountTx, SealedTx, Transaction};
    use dcs_sim::SimTime;

    type Replica = PbftNode<NullMachine>;

    /// Runs one callback on `node`, whose neighbors are the other three
    /// replicas; returns what it asked for.
    fn run(
        node: &mut Replica,
        step: impl FnOnce(&mut Replica, &mut Ctx<'_, WireMsg>),
    ) -> Vec<Action<WireMsg>> {
        let neighbors: Vec<NodeId> = (0..4).map(NodeId).filter(|&i| i != node.core.id).collect();
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
    }

    /// The tags of the timers among `actions` whose kind is in `kinds`.
    fn timers(actions: &[Action<WireMsg>], kinds: impl Fn(u64) -> bool) -> Vec<u64> {
        let armed = actions.iter().filter_map(|a| match a {
            Action::Timer { tag, .. } => Some(*tag),
            Action::Send { .. } => None,
        });
        armed.filter(|tag| kinds(tag & (0xff << 40))).collect()
    }

    /// Runs one callback on `node` and returns the batch-tick tags it armed.
    fn batch_ticks(
        node: &mut Replica,
        step: impl FnOnce(&mut Replica, &mut Ctx<'_, WireMsg>),
    ) -> Vec<u64> {
        timers(&run(node, step), |kind| kind == TAG_BATCH)
    }

    fn config() -> ChainConfig {
        ChainConfig {
            consensus: ConsensusKind::Pbft {
                batch_size: 100,
                batch_timeout_us: 500_000,
                view_timeout_us: 4_000_000,
            },
            ..ChainConfig::hyperledger_like()
        }
    }

    fn replica(id: usize) -> Replica {
        let config = config();
        let genesis = dcs_chain::genesis_block(&config);
        PbftNode::new(NodeId(id), Address::ZERO, genesis, config, NullMachine, 4)
    }

    fn sealed(v: u64) -> SealedTx {
        SealedTx::new(Arc::new(Transaction::Account(AccountTx::transfer(
            Address::from_index(1),
            Address::from_index(2),
            v,
            v,
        ))))
    }

    /// Delivers `msg` from `from` to `node`; returns what it asked for.
    fn deliver(node: &mut Replica, from: usize, msg: WireMsg) -> Vec<Action<WireMsg>> {
        run(node, |n, ctx| n.on_message(NodeId(from), msg, ctx))
    }

    /// The sends among `actions`, as (destination, message).
    fn sends(actions: Vec<Action<WireMsg>>) -> Vec<(NodeId, WireMsg)> {
        actions
            .into_iter()
            .filter_map(|a| match a {
                Action::Send { to, msg, .. } => Some((to, msg)),
                Action::Timer { .. } => None,
            })
            .collect()
    }

    fn prepares(actions: Vec<Action<WireMsg>>) -> usize {
        let sent = sends(actions);
        let is_prepare = |m: &WireMsg| matches!(m, WireMsg::Pbft(PbftMsg::Prepare { .. }));
        sent.iter().filter(|(_, m)| is_prepare(m)).count()
    }

    /// The view-0 leader (replica 0) pools `a` and `b` and proposes
    /// sequence 1; replica 1 has pooled only `a`.
    fn proposal_lacking_one_body() -> (Replica, Replica, SealedTx, Arc<Block>) {
        let (a, b) = (sealed(1), sealed(2));
        let mut leader = replica(0);
        leader.core.mempool.insert(a.clone());
        leader.core.mempool.insert(b.clone());
        let seal = Seal::Authority {
            view: 0,
            sequence: 1,
            votes: 3,
        };
        let block = leader.core.build_block(seal, SimTime::ZERO);
        let mut backup = replica(1);
        backup.core.mempool.insert(a);
        (leader, backup, b, block)
    }

    fn pre_prepare(block: &Arc<Block>) -> WireMsg {
        WireMsg::Pbft(PbftMsg::PrePrepare {
            view: 0,
            seq: 1,
            block: Arc::clone(block),
        })
    }

    /// A replica prepares a compact proposal only once it pools every body
    /// the proposal names: it asks the proposer for the one it lacks, once,
    /// and prepares when the proposer's answer lands.
    #[test]
    fn a_missing_body_is_asked_of_the_proposer_before_the_prepare() {
        let (mut leader, mut backup, b, block) = proposal_lacking_one_body();

        let sent = sends(deliver(&mut backup, 0, pre_prepare(&block)));
        let [(to, WireMsg::TxRequest { key: asked, ids })] = sent.as_slice() else {
            panic!("expected one TxRequest and nothing else, got {sent:?}");
        };
        assert_eq!(
            (*to, *asked, ids.as_slice()),
            (NodeId(0), block.hash(), &[b.id()][..])
        );

        // The proposer answers from its pool: one reply carrying the body,
        // to the asker only.
        let request = sent.into_iter().next().unwrap().1;
        let mut answer = sends(deliver(&mut leader, 1, request));
        let [(NodeId(1), WireMsg::BlockTxs { key: answered, txs })] = answer.as_slice() else {
            panic!("expected the body back, got {answer:?}");
        };
        let ids: Vec<Hash256> = txs.iter().map(SealedTx::id).collect();
        assert_eq!((*answered, ids), (block.hash(), vec![b.id()]));

        // The body lands: the replica prepares, to every other replica.
        let reply = answer.pop().unwrap().1;
        let arrived = deliver(&mut backup, 0, reply);
        assert_eq!(prepares(arrived), 3);
    }

    /// A replica whose proposer never answers asks another replica when its
    /// sync timer fires; that replica serves the body from its pool, and
    /// the waiting replica prepares.
    #[test]
    fn an_unanswered_body_request_is_asked_of_another_replica() {
        let (_, mut backup, b, block) = proposal_lacking_one_body();
        let mut other = replica(2);
        other.core.mempool.insert(b.clone());

        let asked = deliver(&mut backup, 0, pre_prepare(&block));
        let tags = timers(&asked, |kind| kind != TAG_BATCH && kind != TAG_VIEW);
        let [tag] = tags.as_slice() else {
            panic!("expected one sync timer, got {tags:?}");
        };
        // The proposer stays silent; the timer fires.
        let retried = sends(run(&mut backup, |n, ctx| n.on_timer(*tag, ctx)));
        let [(NodeId(2), request @ WireMsg::TxRequest { ids, .. })] = retried.as_slice() else {
            panic!("expected one TxRequest to replica 2, got {retried:?}");
        };
        assert_eq!(ids, &vec![b.id()]);

        let served = sends(deliver(&mut other, 1, request.clone()));
        let [(NodeId(1), reply @ WireMsg::BlockTxs { .. })] = served.as_slice() else {
            panic!("expected the body back, got {served:?}");
        };
        assert_eq!(prepares(deliver(&mut backup, 2, reply.clone())), 3);
    }

    /// A block a peer hands over is never imported: replica 2, not the
    /// view's leader, gives replica 1 a block on its tip, compact and as a
    /// one-block page replica 1 never asked for, and replica 1 stays at
    /// height 0.
    #[test]
    fn a_block_from_a_non_leader_is_never_imported() {
        let page = |block| WireMsg::SyncResponse {
            blocks: vec![block],
            tip_height: 1,
        };
        let forms: [fn(Arc<Block>) -> WireMsg; 2] = [page, WireMsg::CompactBlock];
        for form in forms {
            let mut rogue = replica(2);
            let mut backup = replica(1);
            for node in [&mut rogue, &mut backup] {
                node.core.mempool.insert(sealed(1));
            }
            let seal = Seal::Authority {
                view: 0,
                sequence: 1,
                votes: 3,
            };
            let block = rogue.core.build_block(seal, SimTime::ZERO);
            let sent = sends(deliver(&mut backup, 2, form(block)));
            assert_eq!(backup.core.chain.height(), 0);
            assert!(sent.is_empty(), "nothing relayed or voted: {sent:?}");
        }
    }

    /// A proposal whose body never arrives is never prepared, nor
    /// committed — not on a full quorum of the others' votes, nor when
    /// some other transaction reaches the pool.
    #[test]
    fn a_proposal_whose_body_never_arrives_is_never_prepared() {
        let (_, mut backup, _, block) = proposal_lacking_one_body();
        let digest = block.hash();
        let mut actions = deliver(&mut backup, 0, pre_prepare(&block));
        for from in [0, 2, 3] {
            let prepare = PbftMsg::Prepare {
                view: 0,
                seq: 1,
                digest,
            };
            actions.extend(deliver(&mut backup, from, WireMsg::Pbft(prepare)));
            let commit = PbftMsg::Commit {
                view: 0,
                seq: 1,
                digest,
            };
            actions.extend(deliver(&mut backup, from, WireMsg::Pbft(commit)));
        }
        actions.extend(deliver(&mut backup, 2, WireMsg::Tx(sealed(3))));
        let votes = sends(actions)
            .into_iter()
            .filter(|(_, m)| matches!(m, WireMsg::Pbft(_)))
            .count();
        assert_eq!(votes, 0, "neither a prepare nor a commit");
        assert_eq!(backup.core.chain.height(), 0);
    }

    /// Votes that land after their sequence committed leave no entry:
    /// nothing else would remove it once committed blocks stopped arriving
    /// from other replicas, and every pooled transaction scans the entries.
    #[test]
    fn a_late_vote_for_a_committed_sequence_leaves_no_entry() {
        let (_, mut backup, b, block) = proposal_lacking_one_body();
        backup.core.mempool.insert(b);
        let digest = block.hash();
        let vote = |commit: bool| {
            let (view, seq) = (0, 1);
            WireMsg::Pbft(if commit {
                PbftMsg::Commit { view, seq, digest }
            } else {
                PbftMsg::Prepare { view, seq, digest }
            })
        };
        assert_eq!(prepares(deliver(&mut backup, 0, pre_prepare(&block))), 3);
        for commit in [false, true] {
            for from in [0, 2] {
                deliver(&mut backup, from, vote(commit));
            }
        }
        assert_eq!(backup.core.chain.tip_hash(), digest, "committed");
        assert!(backup.state.is_empty());
        deliver(&mut backup, 3, vote(false));
        deliver(&mut backup, 3, vote(true));
        assert!(backup.state.is_empty(), "the fourth votes are late");
    }

    /// A replica relays nothing it got from another replica; the compact
    /// proposal leaves every body to the direct sends.
    #[test]
    fn a_replica_relays_no_peer_transaction() {
        let mut backup = replica(1);
        assert!(sends(deliver(&mut backup, 2, WireMsg::Tx(sealed(1)))).is_empty());
        // A client's transaction is delivered as if from the replica itself.
        let direct = sends(deliver(&mut backup, 1, WireMsg::Tx(sealed(2))));
        let to: Vec<NodeId> = direct.iter().map(|(to, _)| *to).collect();
        assert_eq!(to, vec![NodeId(0), NodeId(2), NodeId(3)]);
    }

    /// A crash and restart inside one `batch_timeout` used to leave the
    /// pre-crash tick alive beside the restart's own: two chains, each
    /// re-arming itself forever, doubling the proposal attempts.
    #[test]
    fn restarted_replica_has_exactly_one_live_tick_chain() {
        let mut node = replica(1);

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
