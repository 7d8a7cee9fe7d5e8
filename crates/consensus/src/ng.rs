//! Bitcoin-NG (\[14\], §2.4: "Proof-of-Work is employed to determine the next
//! leader, who can then propose the next sequence of blocks"): rare PoW
//! *key blocks* elect a leader; the leader streams frequent *microblocks*
//! carrying transactions until the next key block displaces it. Throughput
//! decouples from the key-block interval — the first of the paper's §5.4
//! "scalable system innovations".

use crate::node::{Inbound, LedgerNode, NodeCore};
use crate::WireMsg;
use dcs_chain::StateMachine;
use dcs_crypto::{Address, Hash256};
use dcs_net::{Ctx, NodeId, Protocol};
use dcs_primitives::{Block, ChainConfig, ConsensusKind, Seal};
use dcs_sim::{SimDuration, SimTime};

/// A Bitcoin-NG peer: mines key blocks, and serves as transaction leader
/// while its key block is the latest one on the canonical chain.
#[derive(Debug)]
pub struct NgNode<M: StateMachine> {
    /// Shared peer machinery.
    pub core: NodeCore<M>,
    /// This peer's hash power (key-block mining), hashes per second.
    pub hash_power: f64,
    /// Cumulative simulated hash attempts.
    pub work_expended: f64,
    key_difficulty: u64,
    micro_interval_us: u64,
    mining_epoch: u64,
    micro_epoch: u64,
    micro_seq: u64,
    mining_started: SimTime,
}

const TAG_MINE: u64 = 1 << 40;
const TAG_MICRO: u64 = 2 << 40;

impl<M: StateMachine> NgNode<M> {
    /// Creates a peer.
    ///
    /// # Panics
    ///
    /// Panics if the config is not `BitcoinNg` or hash power is not positive.
    pub fn new(
        id: NodeId,
        address: Address,
        genesis: Block,
        config: ChainConfig,
        machine: M,
        hash_power: f64,
    ) -> Self {
        assert!(hash_power > 0.0, "hash power must be positive");
        let ConsensusKind::BitcoinNg {
            key_difficulty,
            micro_interval_us,
            ..
        } = config.consensus
        else {
            panic!("NgNode requires a BitcoinNg consensus config")
        };
        NgNode {
            core: NodeCore::new(id, address, genesis, config, machine),
            hash_power,
            work_expended: 0.0,
            key_difficulty,
            micro_interval_us,
            mining_epoch: 0,
            micro_epoch: 0,
            micro_seq: 0,
            mining_started: SimTime::ZERO,
        }
    }

    /// The latest key block on the canonical chain and its proposer — the
    /// current leader. Falls back to genesis (no leader) if none.
    pub fn current_leader(&self) -> Option<(Hash256, Address)> {
        for hash in self.core.chain.canonical().iter().rev() {
            // Canonical hashes always resolve in the tree; a miss is a
            // broken store invariant — skip rather than abort.
            let Some(stored) = self.core.chain.tree().get(hash) else {
                continue;
            };
            let hdr = stored.header();
            if matches!(hdr.seal, Seal::Work { .. }) {
                return Some((*hash, hdr.proposer));
            }
        }
        None
    }

    fn i_am_leader(&self) -> bool {
        self.current_leader()
            .is_some_and(|(_, addr)| addr == self.core.address)
    }

    fn settle_work(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.mining_started).as_secs_f64();
        self.work_expended += self.hash_power * elapsed;
        self.mining_started = now;
    }

    fn restart_mining(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        self.settle_work(ctx.now);
        self.mining_epoch += 1;
        let mean_secs = self.key_difficulty as f64 / self.hash_power;
        let solve = ctx.rng.exp(mean_secs);
        ctx.set_timer(
            SimDuration::from_secs_f64(solve),
            TAG_MINE | self.mining_epoch,
        );
    }

    fn maybe_start_leading(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        if self.i_am_leader() {
            self.micro_epoch += 1;
            self.micro_seq = 0;
            ctx.set_timer(
                SimDuration::from_micros(self.micro_interval_us),
                TAG_MICRO | self.micro_epoch,
            );
        }
    }
}

impl<M: StateMachine> Protocol for NgNode<M> {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        self.mining_started = ctx.now;
        self.restart_mining(ctx);
        // Nobody leads at genesis; a restarted leader resumes its stream.
        self.maybe_start_leading(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: WireMsg, ctx: &mut Ctx<'_, WireMsg>) {
        match self.core.on_message(from, msg, ctx) {
            Inbound::Block(block) => {
                let is_key = matches!(block.header.seal, Seal::Work { .. });
                let event = self.core.handle_block(block, Some(from), ctx);
                if event.is_some_and(|e| e.moved_tip()) {
                    if is_key {
                        // New leader epoch: restart mining, and take over
                        // microblock production if the new key block is
                        // ours (it isn't, here — but a reorg can promote
                        // our own key block back to the tip).
                        self.restart_mining(ctx);
                    }
                    self.maybe_start_leading(ctx);
                }
            }
            Inbound::TipMoved => {
                // The caught-up tip may carry a new key block (new leader
                // epoch) — restart mining and re-evaluate leadership.
                self.restart_mining(ctx);
                self.maybe_start_leading(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, WireMsg>) {
        if self.core.on_timer(tag, ctx) {
            return;
        }
        let kind = tag & (0xff << 40);
        let counter = tag & !(0xff << 40);
        match kind {
            TAG_MINE => {
                if counter != self.mining_epoch {
                    return;
                }
                // Key block found: empty of transactions, claims leadership.
                let seal = Seal::Work {
                    nonce: ctx.rng.next_u64(),
                    difficulty: self.key_difficulty,
                };
                let block = self.core.build_block_with(seal, ctx.now, false);
                self.core.handle_block(block, None, ctx);
                self.restart_mining(ctx);
                self.maybe_start_leading(ctx);
            }
            TAG_MICRO => {
                if counter != self.micro_epoch || !self.i_am_leader() {
                    return;
                }
                // `i_am_leader()` above implies a leader exists.
                let Some((key_block, _)) = self.current_leader() else {
                    return;
                };
                self.micro_seq += 1;
                if !self.core.mempool.is_empty() {
                    let seal = Seal::Micro {
                        key_block,
                        sequence: self.micro_seq,
                    };
                    let block = self.core.build_block(seal, ctx.now);
                    self.core.handle_block(block, None, ctx);
                }
                ctx.set_timer(
                    SimDuration::from_micros(self.micro_interval_us),
                    TAG_MICRO | self.micro_epoch,
                );
            }
            _ => {}
        }
    }
}

impl<M: StateMachine> LedgerNode for NgNode<M> {
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
        // Book the hash work done up to the crash; none accrues while down.
        self.settle_work(ctx.now);
    }
}
