//! Beacon-coordinated sharding over the simulated network (§5.4, \[38\]).
//!
//! The one sharded ledger: accounts are hash-partitioned
//! ([`ShardedLedger::home_shard`]) over `k` shard *sequencer* nodes sealing
//! blocks on timers, a *beacon* node tracks every shard header-chain and
//! arbitrates cross-shard transfers, and a *light* node syncs headers + SPV
//! proofs against a pruned shard — all over [`dcs_net`]'s discrete-event
//! network, so the sharded event engine (PR 6) schedules the whole system.
//!
//! Cross-shard transfers use a lock/receipt two-phase protocol carried in
//! real blocks:
//!
//! 1. **Lock** — the source shard seals a transfer into the per-pair bridge
//!    escrow (`Lock::tx`) and reports it to the beacon as a
//!    [`LockReceipt`]: the [`Lock`], the block height, and the Merkle
//!    inclusion proof of its transaction. The receipts of one sealed block
//!    travel together, in one `Locks` message behind the block's anchor.
//! 2. **Grant** — the beacon recomputes each lock's transaction id, verifies
//!    the proofs of a block's receipts lane-wise against the shard header it
//!    tracks (the same SPV check a pegged sidechain performs), then settles
//!    them one by one in leaf order: a `MintGrant` to the destination shard,
//!    which seals a mint for the recipient and acks the source. Id, value,
//!    recipient and destination are all read from the one proven lock.
//! 3. **Timeout-refund** — a lock unresolved past its timeout makes the
//!    source shard query the beacon; a lock the beacon never granted is
//!    *voided* (never granted later), and the source shard seals a refund
//!    from the escrow back to the sender. Value is conserved either way:
//!    at quiescence the sum of user balances equals the genesis allocation,
//!    and bridge escrows hold exactly the minted amounts.
//!
//! Everything is deterministic under a seed: all protocol state lives in
//! `BTreeMap`/`BTreeSet`, timestamps are simulated time, and the run digest
//! is bit-identical across engine worker counts (the PR 10 gate).

use crate::{LightClient, ShardedLedger, Transfer};
use dcs_chain::{genesis_block, Chain, NullMachine, PrunedStore};
use dcs_contracts::AccountMachine;
use dcs_crypto::codec::Encode;
use dcs_crypto::{sha256, Address, Hash256, MerkleProof, MerkleTree};
use dcs_net::{Ctx, LatencyModel, NetConfig, NodeId, Protocol, Runner, Topology};
use dcs_primitives::{
    AccountTx, Amount, Block, BlockHeader, ChainConfig, GasSchedule, Seal, Transaction, TxPayload,
};
use dcs_sim::{SimDuration, SimTime};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// Timer tags (per-role, so overlap across roles is fine).
const TAG_SHARD_SEAL: u64 = 1;
const TAG_BEACON_SEAL: u64 = 2;
const TAG_LIGHT_SYNC: u64 = 3;

/// Coinbase heights for cross-shard mints start here so they can never
/// collide with a real block-reward coinbase (sequencer chains mint none,
/// but the offset keeps the invariant explicit).
const MINT_HEIGHT_BASE: u64 = 1 << 32;

/// Cap on headers returned per [`ScaleMsg::HeadersResponse`].
const HEADERS_PER_RESPONSE: usize = 256;

/// A cross-shard lock: the transfer it moves, the sender nonce it sealed
/// at, and the shard pair it crosses. Everything the tier knows about a
/// lock — its id, value, recipient and destination — is derived from this
/// one value, so no copy of it can disagree with what was sealed.
#[derive(Debug, Clone, Copy)]
pub struct Lock {
    /// The transfer: sender, recipient and value.
    pub transfer: Transfer,
    /// The sender's nonce on the source shard.
    pub nonce: u64,
    /// Shard the lock seals on.
    pub src_shard: u32,
    /// Shard that mints it.
    pub dst_shard: u32,
}

impl Lock {
    /// The lock transaction, the one place the lock format is written: a
    /// call on the pair's bridge escrow with the recipient as its input, so
    /// its id binds sender, recipient, value, nonce and both shards. The
    /// bridge has no code, so executing it credits the escrow like a plain
    /// transfer (a `Data` payload would not: execution debits its value
    /// and credits nobody).
    fn tx(&self) -> Transaction {
        let Transfer { from, to, value } = self.transfer;
        let bridge =
            ShardedLedger::bridge_address(self.src_shard as usize, self.dst_shard as usize);
        let mut tx = AccountTx::call(from, bridge, to.as_bytes().to_vec(), value, self.nonce, 0);
        tx.gas_price = 0;
        Transaction::Account(tx)
    }
}

/// A lock receipt: everything the beacon needs to verify that a cross-shard
/// lock really sealed on its source shard.
#[derive(Debug, Clone)]
pub struct LockReceipt {
    /// The lock.
    pub lock: Lock,
    /// Height of the source-shard block holding the lock.
    pub height: u64,
    /// Merkle inclusion proof of the lock's transaction id under that
    /// block's tx root.
    pub proof: MerkleProof,
}

impl LockReceipt {
    fn wire_size(&self) -> usize {
        // lock + height + proof.
        64 + 8 + self.proof.encoded_len()
    }
}

/// What a destination shard needs to mint a granted lock: the lock id it
/// deduplicates on, the recipient and value it credits, and the source
/// shard it acknowledges. The beacon builds it from the proven lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Transaction id of the granted lock.
    pub lock_id: Hash256,
    /// Account credited on the destination shard.
    pub to: Address,
    /// Amount minted.
    pub value: Amount,
    /// Shard the lock sealed on, which the mint acknowledges.
    pub src_shard: u32,
}

impl Grant {
    fn of(lock_id: Hash256, lock: &Lock) -> Self {
        Grant {
            lock_id,
            to: lock.transfer.to,
            value: lock.transfer.value,
            src_shard: lock.src_shard,
        }
    }

    fn wire_size(&self) -> usize {
        // lock_id + recipient + value + source shard.
        32 + 20 + 8 + 4
    }
}

/// Messages of the beacon/shard/light protocol.
///
/// Every queued event is sized for the largest variant, and a run queues
/// one `Submit` per client transfer up front, so the rare large payloads
/// (a header, a checkpoint, an SPV proof) sit behind a `Box` and the enum
/// stays at most 72 bytes.
#[derive(Debug, Clone)]
pub enum ScaleMsg {
    /// A client transfer, injected at its home (source) shard.
    Submit(Transfer),
    /// A shard anchors a sealed block header at the beacon.
    Anchor {
        /// The sealing shard.
        shard: u32,
        /// The sealed header.
        header: Box<BlockHeader>,
    },
    /// A shard reports the cross-shard locks of one sealed block to the
    /// beacon, in leaf order.
    Locks(Vec<LockReceipt>),
    /// Beacon → destination shard: the lock verified; mint it.
    MintGrant(Grant),
    /// Beacon → source shard: the lock is void; refund the sender.
    MintDenied {
        /// The voided lock.
        lock_id: Hash256,
    },
    /// Destination → source shard: the mint is queued; release the lock.
    MintAck {
        /// The minted lock.
        lock_id: Hash256,
    },
    /// Source shard → beacon: this lock is past its timeout — decide.
    LockStatus(Lock),
    /// Light client → shard: send a checkpoint and the headers above it.
    SnapshotRequest,
    /// Shard → light client: checkpoint header plus headers above it.
    SnapshotResponse {
        /// Trusted checkpoint header (finalized depth).
        checkpoint: Box<BlockHeader>,
        /// Consecutive headers from checkpoint+1 to the tip.
        headers: Vec<BlockHeader>,
    },
    /// Light client → shard: headers from this height on.
    HeadersRequest {
        /// First wanted height.
        from: u64,
    },
    /// Shard → light client: consecutive headers.
    HeadersResponse {
        /// The headers, oldest first.
        headers: Vec<BlockHeader>,
    },
    /// Light client → shard: prove a transaction in this block.
    ProofRequest {
        /// The block height to prove from.
        height: u64,
    },
    /// Shard → light client: an inclusion proof for `tx_id` at `height`.
    ProofResponse {
        /// The proven block height.
        height: u64,
        /// The proven transaction id.
        tx_id: Hash256,
        /// Its Merkle proof.
        proof: Box<MerkleProof>,
    },
}

impl ScaleMsg {
    /// Approximate wire size, for the simulator's bandwidth accounting.
    fn wire_size(&self) -> usize {
        match self {
            ScaleMsg::Submit(_) => 48,
            ScaleMsg::Anchor { header, .. } => 4 + header.encoded().len(),
            ScaleMsg::Locks(receipts) => receipts.iter().map(LockReceipt::wire_size).sum(),
            ScaleMsg::MintGrant(grant) => grant.wire_size(),
            ScaleMsg::MintDenied { .. } | ScaleMsg::MintAck { .. } => 32,
            ScaleMsg::LockStatus(_) => 64,
            ScaleMsg::SnapshotRequest => 8,
            ScaleMsg::SnapshotResponse {
                checkpoint,
                headers,
            } => {
                checkpoint.encoded().len()
                    + headers.iter().map(|h| h.encoded().len()).sum::<usize>()
            }
            ScaleMsg::HeadersRequest { .. } => 16,
            ScaleMsg::HeadersResponse { headers } => {
                headers.iter().map(|h| h.encoded().len()).sum::<usize>()
            }
            ScaleMsg::ProofRequest { .. } => 16,
            ScaleMsg::ProofResponse { proof, .. } => 48 + proof.encoded_len(),
        }
    }
}

/// Tunables for a beacon-coordinated run.
#[derive(Debug, Clone)]
pub struct BeaconParams {
    /// Worker shard count (`k`).
    pub shards: usize,
    /// Transactions per sealed block.
    pub block_tx_limit: usize,
    /// Shard seal cadence.
    pub block_interval: SimDuration,
    /// Beacon seal cadence (anchors per beacon block).
    pub beacon_interval: SimDuration,
    /// How long a source shard waits before querying an unresolved lock.
    pub lock_timeout: SimDuration,
    /// Body retention depth of each shard's [`PrunedStore`].
    pub keep_depth: u64,
    /// Confirmation depth driving automatic finalization/pruning.
    pub confirmation_depth: u64,
    /// Light-client poll cadence.
    pub sync_interval: SimDuration,
    /// How many blocks below the serving tip the snapshot checkpoint sits.
    pub checkpoint_lag: u64,
    /// Timers stop re-arming (absent pending work) after this instant.
    pub horizon: SimTime,
    /// Per-hop latency model. Must be strictly positive so the sharded
    /// event engine has a conservative lookahead window.
    pub latency: LatencyModel,
    /// Shards whose inbound lock receipts the beacon silently drops — the
    /// fault knob that forces the timeout-refund path deterministically.
    pub silent_shards: Vec<u32>,
}

impl Default for BeaconParams {
    fn default() -> Self {
        BeaconParams {
            shards: 2,
            block_tx_limit: 64,
            block_interval: SimDuration::from_millis(50),
            beacon_interval: SimDuration::from_millis(100),
            lock_timeout: SimDuration::from_millis(400),
            keep_depth: 16,
            confirmation_depth: 8,
            sync_interval: SimDuration::from_millis(150),
            checkpoint_lag: 8,
            horizon: SimTime::from_micros(3_000_000),
            latency: LatencyModel::Constant(SimDuration::from_millis(2)),
            silent_shards: Vec::new(),
        }
    }
}

/// The chain config every shard sequencer (and the beacon's trackers) use.
fn shard_config(shard: usize, params: &BeaconParams) -> ChainConfig {
    let mut config = ChainConfig::hyperledger_like();
    config.chain_id = 7_000 + shard as u32;
    config.block_tx_limit = params.block_tx_limit;
    config.confirmation_depth = params.confirmation_depth;
    config
}

fn beacon_config() -> ChainConfig {
    let mut config = ChainConfig::hyperledger_like();
    config.chain_id = 6_999;
    config
}

/// Counters a shard sequencer accumulates (E22 measurands).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardNodeStats {
    /// Intra-shard transfers committed.
    pub intra: u64,
    /// Cross-shard locks sealed.
    pub locks: u64,
    /// Mints sealed on behalf of other shards' locks.
    pub mints: u64,
    /// Locks refunded after a beacon denial.
    pub refunds: u64,
    /// Locks acknowledged as minted by their destination shard.
    pub acks: u64,
    /// Submissions rejected at admission (insufficient effective balance).
    pub rejected: u64,
    /// Blocks sealed.
    pub blocks: u64,
}

#[derive(Debug)]
struct PendingLock {
    lock: Lock,
    deadline: SimTime,
}

/// A shard sequencer: the sole block producer of one shard chain, running
/// over a pruned store so old bodies fall away beneath the finality horizon.
#[derive(Debug)]
pub struct ShardNode {
    shard: u32,
    chain: Chain<AccountMachine>,
    /// Queued transactions, each lock beside the `Lock` it was built from
    /// so sealed locks can be located for proofs.
    pending: Vec<(Transaction, Option<Lock>)>,
    // BTree everywhere: admission order + map iteration feed block contents,
    // and block contents feed the cross-worker digest gate.
    /// Per sender, what this seal window has queued: transactions (the
    /// next nonce is the on-chain one plus these) and the value they spend.
    queued: BTreeMap<Address, (u64, Amount)>,
    pending_locks: BTreeMap<Hash256, PendingLock>,
    minted: BTreeSet<Hash256>,
    mint_seq: u64,
    timer_armed: bool,
    params: BeaconParams,
    /// Run counters.
    pub stats: ShardNodeStats,
}

impl ShardNode {
    fn new(shard: usize, params: &BeaconParams, alloc: &[(Address, Amount)]) -> Self {
        let config = shard_config(shard, params);
        let genesis = genesis_block(&config);
        let mut machine = AccountMachine::new();
        machine.schedule = GasSchedule::free();
        for (addr, amount) in alloc {
            if ShardedLedger::home_shard(addr, params.shards) == shard {
                machine.db.credit(addr, *amount);
            }
        }
        machine.db.clear_journal();
        let chain = Chain::with_store(
            genesis,
            config,
            machine,
            PrunedStore::new(params.keep_depth),
        );
        ShardNode {
            shard: shard as u32,
            chain,
            pending: Vec::new(),
            queued: BTreeMap::new(),
            pending_locks: BTreeMap::new(),
            minted: BTreeSet::new(),
            mint_seq: 0,
            timer_armed: false,
            params: params.clone(),
            stats: ShardNodeStats::default(),
        }
    }

    /// The shard chain (tests and experiments read it).
    pub fn chain(&self) -> &Chain<AccountMachine> {
        &self.chain
    }

    /// Locks still awaiting a grant or denial.
    pub fn open_locks(&self) -> usize {
        self.pending_locks.len()
    }

    fn next_nonce(&mut self, from: Address) -> u64 {
        let queued = self.queued.entry(from).or_default();
        let nonce = self.chain.machine().db.nonce(&from) + queued.0;
        queued.0 += 1;
        nonce
    }

    fn next_tx(&mut self, from: Address, to: Address, value: Amount) -> Transaction {
        let mut tx = AccountTx::transfer(from, to, value, self.next_nonce(from));
        tx.gas_limit = 0;
        tx.gas_price = 0;
        Transaction::Account(tx)
    }

    /// Effective balance: on-chain minus what queued txs will spend.
    fn effective_balance(&self, addr: &Address) -> Amount {
        self.chain
            .machine()
            .db
            .balance(addr)
            .saturating_sub(self.queued.get(addr).map_or(0, |q| q.1))
    }

    fn admit(&mut self, t: Transfer) {
        if self.effective_balance(&t.from) < t.value {
            self.stats.rejected += 1;
            return;
        }
        self.queued.entry(t.from).or_default().1 += t.value;
        let dst = ShardedLedger::home_shard(&t.to, self.params.shards) as u32;
        let entry = if dst == self.shard {
            self.stats.intra += 1;
            (self.next_tx(t.from, t.to, t.value), None)
        } else {
            let lock = Lock {
                transfer: t,
                nonce: self.next_nonce(t.from),
                src_shard: self.shard,
                dst_shard: dst,
            };
            (lock.tx(), Some(lock))
        };
        self.pending.push(entry);
    }

    fn header(&self, timestamp_us: u64) -> BlockHeader {
        let height = self.chain.height() + 1;
        BlockHeader::new(
            self.chain.tip_hash(),
            height,
            timestamp_us,
            Address::ZERO,
            Seal::Authority {
                view: 0,
                sequence: height,
                votes: 1,
            },
        )
    }

    /// Seals everything pending, anchoring each block at the beacon and
    /// reporting its lock receipts behind the anchor; then chases overdue
    /// locks.
    fn seal(&mut self, ctx: &mut Ctx<'_, ScaleMsg>) {
        let mut queue = std::mem::take(&mut self.pending);
        self.queued.clear();
        while !queue.is_empty() {
            let take = queue.len().min(self.params.block_tx_limit);
            // The block's transactions, and each lock with its leaf index.
            let mut txs = Vec::with_capacity(take);
            let mut locks = Vec::new();
            for (tx, lock) in queue.drain(..take) {
                if let Some(lock) = lock {
                    locks.push((txs.len(), lock));
                }
                txs.push(tx);
            }
            let header = self.header(ctx.now.as_micros());
            // Hashed and rooted once: one tree gives the block its root and
            // id memo, and the lock receipts below their leaves and proofs.
            let tree = MerkleTree::from_leaves(Transaction::batch_ids(&txs));
            let block = Block::with_tree(header, txs, &tree);
            let sealed_header = block.header.clone();
            let height = sealed_header.height;
            self.chain
                .import(block)
                .expect("sequencer blocks are valid by construction");
            // Nothing reads a sequencer's receipts: admission, not a
            // failed receipt, keeps an unfunded transfer out of a block.
            drop(self.chain.drain_receipts());
            self.stats.blocks += 1;
            let anchor = ScaleMsg::Anchor {
                shard: self.shard,
                header: Box::new(sealed_header),
            };
            let size = anchor.wire_size();
            ctx.send(NodeId(0), anchor, size);
            // Receipts for the locks this block sealed, in leaf order; only
            // a block that holds one pays for the message.
            let deadline = ctx.now + self.params.lock_timeout;
            self.stats.locks += locks.len() as u64;
            let receipts: Vec<LockReceipt> = locks
                .into_iter()
                .map(|(i, lock)| {
                    let pending = PendingLock { lock, deadline };
                    self.pending_locks.insert(tree.leaves()[i], pending);
                    let proof = tree.prove(i).expect("leaf index in range");
                    LockReceipt {
                        lock,
                        height,
                        proof,
                    }
                })
                .collect();
            if !receipts.is_empty() {
                let msg = ScaleMsg::Locks(receipts);
                let size = msg.wire_size();
                ctx.send(NodeId(0), msg, size);
            }
        }
        // Chase locks past their deadline; push the deadline forward so a
        // lost answer is re-queried instead of spinning every tick.
        let now = ctx.now;
        let overdue = self
            .pending_locks
            .values_mut()
            .filter(|p| p.deadline <= now);
        for pending in overdue {
            pending.deadline = now + self.params.lock_timeout;
            let msg = ScaleMsg::LockStatus(pending.lock);
            let size = msg.wire_size();
            ctx.send(NodeId(0), msg, size);
        }
    }

    fn grant(&mut self, grant: Grant, ctx: &mut Ctx<'_, ScaleMsg>) {
        if !self.minted.insert(grant.lock_id) {
            return; // Duplicate grant (status re-query raced the first).
        }
        self.stats.mints += 1;
        self.mint_seq += 1;
        let mint = Transaction::Coinbase {
            to: grant.to,
            value: grant.value,
            height: MINT_HEIGHT_BASE + self.mint_seq,
        };
        self.pending.push((mint, None));
        let ack = ScaleMsg::MintAck {
            lock_id: grant.lock_id,
        };
        let size = ack.wire_size();
        ctx.send(NodeId(1 + grant.src_shard as usize), ack, size);
        self.arm(ctx);
    }

    fn deny(&mut self, lock_id: Hash256, ctx: &mut Ctx<'_, ScaleMsg>) {
        let Some(PendingLock { lock, .. }) = self.pending_locks.remove(&lock_id) else {
            return; // Already refunded or acked.
        };
        self.stats.refunds += 1;
        let Transfer { from, value, .. } = lock.transfer;
        let bridge = ShardedLedger::bridge_address(self.shard as usize, lock.dst_shard as usize);
        let refund = self.next_tx(bridge, from, value);
        self.pending.push((refund, None));
        self.arm(ctx);
    }

    fn ack(&mut self, lock_id: Hash256) {
        if self.pending_locks.remove(&lock_id).is_some() {
            self.stats.acks += 1;
        }
    }

    fn header_at(&self, height: u64) -> Option<BlockHeader> {
        let hash = self.chain.canonical_at(height)?;
        Some(self.chain.tree().get(&hash)?.header().clone())
    }

    fn headers_range(&self, from: u64) -> Vec<BlockHeader> {
        let tip = self.chain.height();
        (from..=tip)
            .take(HEADERS_PER_RESPONSE)
            .filter_map(|h| self.header_at(h))
            .collect()
    }

    fn serve_snapshot(&self, from: NodeId, ctx: &mut Ctx<'_, ScaleMsg>) {
        let tip = self.chain.height();
        let cp_height = tip.saturating_sub(self.params.checkpoint_lag);
        let Some(checkpoint) = self.header_at(cp_height) else {
            return;
        };
        let msg = ScaleMsg::SnapshotResponse {
            checkpoint: Box::new(checkpoint),
            headers: self.headers_range(cp_height + 1),
        };
        let size = msg.wire_size();
        ctx.send(from, msg, size);
    }

    fn serve_proof(&self, from: NodeId, height: u64, ctx: &mut Ctx<'_, ScaleMsg>) {
        let Some(hash) = self.chain.canonical_at(height) else {
            return;
        };
        let Some(stored) = self.chain.tree().get(&hash) else {
            return;
        };
        // Pruned bodies cannot be proven from — the light client simply
        // gets no answer for heights below the retention window.
        let Some(body) = stored.body() else {
            return;
        };
        if body.txs.is_empty() {
            return;
        }
        let leaves = body.tx_ids();
        let proof = MerkleTree::from_leaves(leaves.to_vec())
            .prove(0)
            .expect("non-empty body has leaf 0");
        let msg = ScaleMsg::ProofResponse {
            height,
            tx_id: leaves[0],
            proof: Box::new(proof),
        };
        let size = msg.wire_size();
        ctx.send(from, msg, size);
    }

    fn has_work(&self) -> bool {
        !self.pending.is_empty() || !self.pending_locks.is_empty()
    }

    fn arm(&mut self, ctx: &mut Ctx<'_, ScaleMsg>) {
        if !self.timer_armed {
            self.timer_armed = true;
            ctx.set_timer(self.params.block_interval, TAG_SHARD_SEAL);
        }
    }
}

/// Counters the beacon accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BeaconStats {
    /// Shard headers anchored (and tracked).
    pub anchors: u64,
    /// Lock receipts verified and granted.
    pub grants: u64,
    /// Locks voided by timeout queries.
    pub timeout_denials: u64,
    /// Receipts whose Merkle proof failed verification, and receipts or
    /// status queries whose lock names a shard the beacon does not
    /// coordinate or its own source shard as destination, or that came from
    /// a node other than their source shard's sequencer.
    pub invalid_receipts: u64,
    /// Receipts dropped by the `silent_shards` fault knob.
    pub suppressed: u64,
    /// Receipts that overtook the anchor covering their height and waited
    /// for it (only a reordering latency model makes any). A path marker,
    /// not an outcome: [`BeaconNet::digest`] leaves it out.
    pub buffered_receipts: u64,
    /// Anchors dropped: naming a shard other than their sender's, a header
    /// at or below the tracked tip (a duplicate or a replay), or one that
    /// does not extend the tracked chain. Honest runs without duplicated
    /// deliveries send none, so [`BeaconNet::digest`] leaves it out too.
    pub invalid_anchors: u64,
}

/// How the beacon settled a lock. Either is final: a granted lock is never
/// voided and a voided one never granted.
#[derive(Debug, Clone, Copy)]
enum Decision {
    /// Minted on its destination shard; a status query re-grants it from
    /// the status's own lock, whose id names the same preimage.
    Granted,
    /// Refunded on the source shard.
    Voided,
}

/// The beacon: tracks every shard header-chain, arbitrates cross-shard
/// locks, and seals anchor blocks of its own.
#[derive(Debug)]
pub struct BeaconNode {
    chain: Chain<NullMachine>,
    /// One header tracker per shard, fed by anchors — the same SPV stance a
    /// pegged sidechain takes toward its mainchain.
    trackers: Vec<LightClient>,
    /// Anchors that arrived ahead of their predecessor (per-message latency
    /// can reorder same-source sends under non-constant models).
    anchor_buf: BTreeMap<(u32, u64), BlockHeader>,
    /// Receipts waiting for the anchor covering their height.
    receipt_buf: BTreeMap<(u32, u64), Vec<LockReceipt>>,
    /// The verdict on every settled lock, by lock id.
    decisions: BTreeMap<Hash256, Decision>,
    pending_anchor_txs: Vec<Transaction>,
    anchor_nonce: u64,
    timer_armed: bool,
    silent: BTreeSet<u32>,
    params: BeaconParams,
    /// Run counters.
    pub stats: BeaconStats,
}

impl BeaconNode {
    fn new(params: &BeaconParams) -> Self {
        let config = beacon_config();
        let genesis = genesis_block(&config);
        let chain = Chain::new(genesis, config, NullMachine);
        let trackers = (0..params.shards)
            .map(|s| LightClient::new(genesis_block(&shard_config(s, params)).header.clone()))
            .collect();
        BeaconNode {
            chain,
            trackers,
            anchor_buf: BTreeMap::new(),
            receipt_buf: BTreeMap::new(),
            decisions: BTreeMap::new(),
            pending_anchor_txs: Vec::new(),
            anchor_nonce: 0,
            timer_armed: false,
            silent: params.silent_shards.iter().copied().collect(),
            params: params.clone(),
            stats: BeaconStats::default(),
        }
    }

    /// The beacon chain of anchor blocks.
    pub fn chain(&self) -> &Chain<NullMachine> {
        &self.chain
    }

    /// The well-known account beacon anchor transactions spend from.
    pub fn anchor_authority() -> Address {
        Address::from_hash(&sha256(b"beacon-anchor-authority"))
    }

    /// An anchor is a peer's bytes: only shard `s`'s sequencer (node
    /// `s + 1`) anchors shard `s`, and only with a header that extends what
    /// the beacon tracks. Anything else is counted and dropped.
    fn on_anchor(
        &mut self,
        from: NodeId,
        shard: u32,
        header: BlockHeader,
        ctx: &mut Ctx<'_, ScaleMsg>,
    ) {
        let k = shard as usize;
        if k >= self.trackers.len() || from.0.checked_sub(1) != Some(k) {
            self.stats.invalid_anchors += 1;
            return;
        }
        // The drain below only ever removes `tip + 1`: a duplicate or any
        // header at or below the tracked tip would wait here forever.
        if header.height <= self.trackers[k].tip_height() {
            self.stats.invalid_anchors += 1;
        } else {
            self.anchor_buf.insert((shard, header.height), header);
        }
        loop {
            let next_height = self.trackers[k].tip_height() + 1;
            let Some(next) = self.anchor_buf.remove(&(shard, next_height)) else {
                break;
            };
            if self.trackers[k].sync(std::slice::from_ref(&next)).is_err() {
                self.stats.invalid_anchors += 1;
                break;
            }
            let mut payload = Vec::with_capacity(44);
            payload.extend_from_slice(&shard.to_le_bytes());
            payload.extend_from_slice(&next.height.to_le_bytes());
            payload.extend_from_slice(next.hash().as_bytes());
            self.stats.anchors += 1;
            let mut tx = AccountTx::transfer(
                Self::anchor_authority(),
                Address::ZERO,
                0,
                self.anchor_nonce,
            );
            self.anchor_nonce += 1;
            tx.gas_limit = 0;
            tx.gas_price = 0;
            tx.payload = TxPayload::Data(payload);
            self.pending_anchor_txs.push(Transaction::Account(tx));
            let covered = self.trackers[k].tip_height();
            if let Some(receipts) = self.receipt_buf.remove(&(shard, covered)) {
                self.decide(receipts, ctx);
            }
        }
        self.arm(ctx);
    }

    /// Whether `from` may speak for a lock: it crosses between two distinct
    /// shards this beacon coordinates, and `from` is its source shard's
    /// sequencer. A lock is a peer's bytes: its shard ids index the
    /// trackers and address sends, so they are checked before either, and
    /// only the shard that sealed a lock reports or chases it — as only it
    /// anchors its chain. A lock onto its own shard would mint value out of
    /// nothing there.
    fn accepts(&self, from: NodeId, lock: &Lock) -> bool {
        let k = self.trackers.len();
        (lock.src_shard as usize) < k
            && (lock.dst_shard as usize) < k
            && lock.dst_shard != lock.src_shard
            && from.0 == 1 + lock.src_shard as usize
    }

    /// One sealed block's receipts: each passes the per-receipt gates, those
    /// whose covering anchor is tracked are decided together, the rest wait
    /// for it.
    fn on_locks(&mut self, from: NodeId, receipts: Vec<LockReceipt>, ctx: &mut Ctx<'_, ScaleMsg>) {
        let mut ready = Vec::with_capacity(receipts.len());
        for receipt in receipts {
            let lock = &receipt.lock;
            if !self.accepts(from, lock) {
                self.stats.invalid_receipts += 1;
            } else if self.silent.contains(&lock.dst_shard) {
                self.stats.suppressed += 1;
            } else if self.trackers[lock.src_shard as usize].tip_height() >= receipt.height {
                ready.push(receipt);
            } else {
                self.stats.buffered_receipts += 1;
                self.receipt_buf
                    .entry((lock.src_shard, receipt.height))
                    .or_default()
                    .push(receipt);
            }
        }
        self.decide(ready, ctx);
    }

    /// Verifies receipts against the tracked shard headers — each lock's id
    /// recomputed from the lock, all their proofs in one lane-wise batch —
    /// then grants or voids them one by one in order, so a lock repeated
    /// inside the batch settles once. Only called once the covering anchors
    /// are tracked.
    fn decide(&mut self, receipts: Vec<LockReceipt>, ctx: &mut Ctx<'_, ScaleMsg>) {
        let txs: Vec<Transaction> = receipts.iter().map(|r| r.lock.tx()).collect();
        let ids = Transaction::batch_ids(&txs);
        let claims: Vec<(&MerkleProof, Hash256, Hash256)> = receipts
            .iter()
            .zip(&ids)
            .map(|(r, id)| {
                let header = self.trackers[r.lock.src_shard as usize]
                    .header_at(r.height)
                    .expect("caller checked coverage");
                (&r.proof, *id, header.tx_root)
            })
            .collect();
        let verified = MerkleProof::verify_many(&claims);
        for ((receipt, id), verified) in receipts.iter().zip(ids).zip(verified) {
            let Entry::Vacant(slot) = self.decisions.entry(id) else {
                continue;
            };
            let decision = if verified {
                self.stats.grants += 1;
                Decision::Granted
            } else {
                self.stats.invalid_receipts += 1;
                Decision::Voided
            };
            slot.insert(decision);
            Self::settle(id, &receipt.lock, decision, ctx);
        }
    }

    /// Timeout policy: a queried lock the beacon already granted is
    /// re-granted (idempotent at the mint shard); anything else is voided
    /// *permanently* — it can never be granted afterwards, so mint and
    /// refund are mutually exclusive. Only the lock's source sequencer may
    /// ask, and the id the beacon derives names one of that shard's own
    /// bridges, so it can void no other shard's lock.
    fn on_status(&mut self, from: NodeId, lock: &Lock, ctx: &mut Ctx<'_, ScaleMsg>) {
        if !self.accepts(from, lock) {
            self.stats.invalid_receipts += 1;
            return;
        }
        let id = lock.tx().id();
        let decision = *self.decisions.entry(id).or_insert_with(|| {
            self.stats.timeout_denials += 1;
            Decision::Voided
        });
        Self::settle(id, lock, decision, ctx);
    }

    /// Sends a verdict: a grant built from the lock to its destination, or
    /// a denial to its source.
    fn settle(id: Hash256, lock: &Lock, decision: Decision, ctx: &mut Ctx<'_, ScaleMsg>) {
        let (to, msg) = match decision {
            Decision::Granted => (lock.dst_shard, ScaleMsg::MintGrant(Grant::of(id, lock))),
            Decision::Voided => (lock.src_shard, ScaleMsg::MintDenied { lock_id: id }),
        };
        let size = msg.wire_size();
        ctx.send(NodeId(1 + to as usize), msg, size);
    }

    fn seal(&mut self, now: SimTime) {
        while !self.pending_anchor_txs.is_empty() {
            let limit = self.chain.config().block_tx_limit;
            let take = self.pending_anchor_txs.len().min(limit);
            let batch: Vec<Transaction> = self.pending_anchor_txs.drain(..take).collect();
            let height = self.chain.height() + 1;
            let header = BlockHeader::new(
                self.chain.tip_hash(),
                height,
                now.as_micros(),
                Address::ZERO,
                Seal::Authority {
                    view: 0,
                    sequence: height,
                    votes: 1,
                },
            );
            self.chain
                .import(Block::new(header, batch))
                .expect("beacon blocks are valid by construction");
            drop(self.chain.drain_receipts());
        }
    }

    fn arm(&mut self, ctx: &mut Ctx<'_, ScaleMsg>) {
        if !self.timer_armed {
            self.timer_armed = true;
            ctx.set_timer(self.params.beacon_interval, TAG_BEACON_SEAL);
        }
    }
}

/// A light client node: header-first snapshot sync from a shard, then
/// incremental header pulls and periodic SPV spot-checks.
#[derive(Debug)]
pub struct LightNode {
    /// The shard node this client syncs from.
    target: NodeId,
    /// The header chain, once the snapshot arrived.
    client: Option<LightClient>,
    sync_interval: SimDuration,
    horizon: SimTime,
    polls: u64,
    /// SPV proofs requested.
    pub proofs_requested: u64,
    /// SPV proofs that verified.
    pub proofs_verified: u64,
    /// Served headers of the wanted height that did not extend the tip.
    /// Each drops the rest of its response. Honest servers send none, so
    /// [`BeaconNet::digest`] leaves it out.
    pub rejected_headers: u64,
}

impl LightNode {
    fn new(params: &BeaconParams) -> Self {
        LightNode {
            target: NodeId(1),
            client: None,
            sync_interval: params.sync_interval,
            horizon: params.horizon,
            polls: 0,
            proofs_requested: 0,
            proofs_verified: 0,
            rejected_headers: 0,
        }
    }

    /// The synced header chain (None until the snapshot arrives).
    pub fn client(&self) -> Option<&LightClient> {
        self.client.as_ref()
    }

    fn poll(&mut self, ctx: &mut Ctx<'_, ScaleMsg>) {
        self.polls += 1;
        match &self.client {
            None => {
                let msg = ScaleMsg::SnapshotRequest;
                let size = msg.wire_size();
                ctx.send(self.target, msg, size);
            }
            Some(client) => {
                let msg = ScaleMsg::HeadersRequest {
                    from: client.tip_height() + 1,
                };
                let size = msg.wire_size();
                ctx.send(self.target, msg, size);
                // Spot-check inclusion every fourth poll.
                if self.polls.is_multiple_of(4) {
                    self.proofs_requested += 1;
                    let msg = ScaleMsg::ProofRequest {
                        height: client.tip_height(),
                    };
                    let size = msg.wire_size();
                    ctx.send(self.target, msg, size);
                }
            }
        }
        if ctx.now < self.horizon {
            ctx.set_timer(self.sync_interval, TAG_LIGHT_SYNC);
        }
    }

    /// Adopts the first checkpoint offered; later snapshots are ignored.
    fn bootstrap(&mut self, checkpoint: BlockHeader, headers: &[BlockHeader]) {
        if self.client.is_none() {
            self.client = Some(LightClient::from_checkpoint(checkpoint));
            self.absorb(headers);
        }
    }

    /// Appends only the headers that extend the current tip — responses to
    /// overlapping requests may arrive out of order. A served header is a
    /// peer's bytes: one of the next height that does not link is counted,
    /// and the rest of its response dropped.
    fn absorb(&mut self, headers: &[BlockHeader]) {
        let Some(client) = self.client.as_mut() else {
            return;
        };
        for header in headers {
            if header.height == client.tip_height() + 1
                && client.sync(std::slice::from_ref(header)).is_err()
            {
                self.rejected_headers += 1;
                return;
            }
        }
    }
}

/// One peer of the beacon-coordinated network. Node 0 is the beacon, nodes
/// `1..=k` are the shard sequencers, node `k + 1` is the light client.
///
/// One value exists per simulated node, so the variant size skew does not
/// matter for memory.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum ScalePeer {
    /// The coordinator.
    Beacon(BeaconNode),
    /// One shard sequencer.
    Shard(ShardNode),
    /// The light client.
    Light(LightNode),
}

impl Protocol for ScalePeer {
    type Msg = ScaleMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        match self {
            ScalePeer::Beacon(b) => b.arm(ctx),
            ScalePeer::Shard(s) => s.arm(ctx),
            ScalePeer::Light(l) => ctx.set_timer(l.sync_interval, TAG_LIGHT_SYNC),
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>) {
        match (self, msg) {
            (ScalePeer::Shard(s), ScaleMsg::Submit(t)) => {
                s.admit(t);
                s.arm(ctx);
            }
            (ScalePeer::Shard(s), ScaleMsg::MintGrant(grant)) => s.grant(grant, ctx),
            (ScalePeer::Shard(s), ScaleMsg::MintDenied { lock_id }) => s.deny(lock_id, ctx),
            (ScalePeer::Shard(s), ScaleMsg::MintAck { lock_id }) => s.ack(lock_id),
            (ScalePeer::Shard(s), ScaleMsg::SnapshotRequest) => s.serve_snapshot(from, ctx),
            (ScalePeer::Shard(s), ScaleMsg::HeadersRequest { from: h }) => {
                let headers = s.headers_range(h);
                if !headers.is_empty() {
                    let msg = ScaleMsg::HeadersResponse { headers };
                    let size = msg.wire_size();
                    ctx.send(from, msg, size);
                }
            }
            (ScalePeer::Shard(s), ScaleMsg::ProofRequest { height }) => {
                s.serve_proof(from, height, ctx)
            }
            (ScalePeer::Beacon(b), ScaleMsg::Anchor { shard, header }) => {
                b.on_anchor(from, shard, *header, ctx)
            }
            (ScalePeer::Beacon(b), ScaleMsg::Locks(receipts)) => b.on_locks(from, receipts, ctx),
            (ScalePeer::Beacon(b), ScaleMsg::LockStatus(lock)) => b.on_status(from, &lock, ctx),
            (
                ScalePeer::Light(l),
                ScaleMsg::SnapshotResponse {
                    checkpoint,
                    headers,
                },
            ) => l.bootstrap(*checkpoint, &headers),
            (ScalePeer::Light(l), ScaleMsg::HeadersResponse { headers }) => l.absorb(&headers),
            (
                ScalePeer::Light(l),
                ScaleMsg::ProofResponse {
                    height,
                    tx_id,
                    proof,
                },
            ) => {
                if let Some(client) = l.client.as_mut() {
                    if client.verify_inclusion(&tx_id, height, &proof) == Ok(true) {
                        l.proofs_verified += 1;
                    }
                }
            }
            // Anything else (e.g. a stale response after a role change in
            // future extensions) is ignored.
            _ => {}
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Self::Msg>) {
        match (self, tag) {
            (ScalePeer::Shard(s), TAG_SHARD_SEAL) => {
                s.seal(ctx);
                s.timer_armed = false;
                if ctx.now < s.params.horizon || s.has_work() {
                    s.arm(ctx);
                }
            }
            (ScalePeer::Beacon(b), TAG_BEACON_SEAL) => {
                b.seal(ctx.now);
                b.timer_armed = false;
                if ctx.now < b.params.horizon {
                    b.arm(ctx);
                }
            }
            (ScalePeer::Light(l), TAG_LIGHT_SYNC) => l.poll(ctx),
            _ => {}
        }
    }
}

/// Aggregate counters of a finished run (the E22 row).
#[derive(Debug, Clone, Copy, Default)]
pub struct BeaconRunStats {
    /// Intra-shard transfers committed.
    pub intra: u64,
    /// Cross-shard transfers minted end-to-end.
    pub minted: u64,
    /// Cross-shard transfers refunded by timeout.
    pub refunded: u64,
    /// Submissions rejected at admission.
    pub rejected: u64,
    /// Blocks sealed across all shards.
    pub shard_blocks: u64,
    /// Beacon anchor blocks sealed.
    pub beacon_blocks: u64,
    /// Simulated events processed.
    pub events: u64,
}

/// A fully wired beacon + shards + light-client network.
pub struct BeaconNet {
    runner: Runner<ScalePeer>,
    params: BeaconParams,
    events: u64,
}

impl BeaconNet {
    /// Builds the network: beacon at node 0, `k` shard sequencers, one
    /// light client. `alloc` funds user accounts on their home shards.
    ///
    /// # Panics
    ///
    /// Panics if `params.shards == 0`: the partition has no home for any
    /// account.
    pub fn new(params: &BeaconParams, seed: u64, alloc: &[(Address, Amount)]) -> Self {
        assert!(params.shards > 0, "need at least one shard");
        let cfg = NetConfig {
            nodes: params.shards + 2,
            topology: Topology::Complete,
            latency: params.latency,
            drop_probability: 0.0,
            bandwidth_bytes_per_sec: None,
        };
        let runner = Runner::new(cfg, seed, |id: NodeId| {
            if id.0 == 0 {
                ScalePeer::Beacon(BeaconNode::new(params))
            } else if id.0 <= params.shards {
                ScalePeer::Shard(ShardNode::new(id.0 - 1, params, alloc))
            } else {
                ScalePeer::Light(LightNode::new(params))
            }
        });
        BeaconNet {
            runner,
            params: params.clone(),
            events: 0,
        }
    }

    /// Overrides the event-engine worker count (the determinism sweep).
    pub fn set_engine_workers(&mut self, workers: usize) {
        self.runner.set_shards(workers);
    }

    /// Injects a transfer at its home shard at simulated time `at`.
    pub fn submit_at(&mut self, at: SimTime, t: Transfer) {
        let shard = ShardedLedger::home_shard(&t.from, self.params.shards);
        let msg = ScaleMsg::Submit(t);
        let size = msg.wire_size();
        self.runner
            .net_mut()
            .inject(at, NodeId(1 + shard), msg, size);
    }

    /// Runs to quiescence (every timer expired, every message delivered).
    pub fn run(&mut self) -> u64 {
        let n = self.runner.run_to_quiescence();
        self.events += n;
        n
    }

    /// The beacon node.
    pub fn beacon(&self) -> &BeaconNode {
        match self.runner.node(NodeId(0)) {
            ScalePeer::Beacon(b) => b,
            _ => unreachable!("node 0 is the beacon"),
        }
    }

    /// Shard sequencer `i`.
    pub fn shard(&self, i: usize) -> &ShardNode {
        match self.runner.node(NodeId(1 + i)) {
            ScalePeer::Shard(s) => s,
            _ => unreachable!("nodes 1..=k are shards"),
        }
    }

    /// The light client node.
    pub fn light(&self) -> &LightNode {
        match self.runner.node(NodeId(1 + self.params.shards)) {
            ScalePeer::Light(l) => l,
            _ => unreachable!("last node is the light client"),
        }
    }

    /// Balance of a user account, read from its home shard.
    pub fn balance(&self, addr: &Address) -> Amount {
        let shard = ShardedLedger::home_shard(addr, self.params.shards);
        self.shard(shard).chain.machine().db.balance(addr)
    }

    /// Sum of the given accounts' balances — the conservation measurand:
    /// at quiescence it equals the genesis allocation total.
    pub fn user_total(&self, accounts: &[Address]) -> u128 {
        accounts.iter().map(|a| u128::from(self.balance(a))).sum()
    }

    /// Total value held in bridge escrows across all shards. At quiescence
    /// this equals the total value minted on destination shards.
    pub fn escrow_total(&self) -> u128 {
        let k = self.params.shards;
        let mut total = 0u128;
        for src in 0..k {
            for dst in 0..k {
                if src != dst {
                    let bridge = ShardedLedger::bridge_address(src, dst);
                    total += u128::from(self.shard(src).chain.machine().db.balance(&bridge));
                }
            }
        }
        total
    }

    /// Aggregate run counters.
    pub fn stats(&self) -> BeaconRunStats {
        let mut s = BeaconRunStats {
            beacon_blocks: self.beacon().chain.height(),
            events: self.events,
            ..BeaconRunStats::default()
        };
        for i in 0..self.params.shards {
            let shard = self.shard(i);
            s.intra += shard.stats.intra;
            s.minted += shard.stats.mints;
            s.refunded += shard.stats.refunds;
            s.rejected += shard.stats.rejected;
            s.shard_blocks += shard.stats.blocks;
        }
        s
    }

    /// A digest over everything observable: shard tips, state roots, and
    /// counters; the beacon chain; the light client's view. Bit-identical
    /// across engine worker counts for the same seed and workload — the
    /// cross-worker determinism gate.
    pub fn digest(&self) -> Hash256 {
        use dcs_chain::StateMachine;
        let mut buf = Vec::new();
        for i in 0..self.params.shards {
            let shard = self.shard(i);
            buf.extend_from_slice(shard.chain.tip_hash().as_bytes());
            buf.extend_from_slice(&shard.chain.height().to_le_bytes());
            buf.extend_from_slice(shard.chain.machine().state_root().as_bytes());
            for c in [
                shard.stats.intra,
                shard.stats.locks,
                shard.stats.mints,
                shard.stats.refunds,
                shard.stats.acks,
                shard.stats.rejected,
                shard.stats.blocks,
                shard.pending_locks.len() as u64,
            ] {
                buf.extend_from_slice(&c.to_le_bytes());
            }
        }
        let beacon = self.beacon();
        buf.extend_from_slice(beacon.chain.tip_hash().as_bytes());
        for c in [
            beacon.stats.anchors,
            beacon.stats.grants,
            beacon.stats.timeout_denials,
            beacon.stats.invalid_receipts,
            beacon.stats.suppressed,
        ] {
            buf.extend_from_slice(&c.to_le_bytes());
        }
        let light = self.light();
        if let Some(client) = light.client() {
            buf.extend_from_slice(&client.tip_height().to_le_bytes());
            buf.extend_from_slice(&client.bytes_downloaded.to_le_bytes());
        }
        buf.extend_from_slice(&light.proofs_verified.to_le_bytes());
        sha256(&buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accounts(n: u64) -> Vec<Address> {
        (0..n).map(Address::from_index).collect()
    }

    fn funded(accounts: &[Address]) -> Vec<(Address, Amount)> {
        accounts.iter().map(|a| (*a, 1_000_000)).collect()
    }

    fn cross_pair(k: usize, accounts: &[Address]) -> (Address, Address) {
        let a = accounts[0];
        let b = *accounts[1..]
            .iter()
            .find(|x| ShardedLedger::home_shard(x, k) != ShardedLedger::home_shard(&a, k))
            .expect("some pair crosses shards");
        (a, b)
    }

    /// Every queued event is sized for the largest `ScaleMsg` variant, and
    /// a run queues one `Submit` per client transfer before it starts.
    #[test]
    fn scale_msg_stays_small() {
        assert!(std::mem::size_of::<ScaleMsg>() <= 72);
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn zero_shards_is_refused_at_construction() {
        let params = BeaconParams {
            shards: 0,
            ..BeaconParams::default()
        };
        BeaconNet::new(&params, 1, &[]);
    }

    #[test]
    fn intra_shard_transfer_commits() {
        let accts = accounts(16);
        let k = 2;
        let a = accts[0];
        let b = *accts[1..]
            .iter()
            .find(|x| ShardedLedger::home_shard(x, k) == ShardedLedger::home_shard(&a, k))
            .expect("some pair shares a shard");
        let mut net = BeaconNet::new(&BeaconParams::default(), 11, &funded(&accts));
        net.submit_at(
            SimTime::from_micros(10_000),
            Transfer {
                from: a,
                to: b,
                value: 777,
            },
        );
        net.run();
        assert_eq!(net.balance(&a), 1_000_000 - 777);
        assert_eq!(net.balance(&b), 1_000_000 + 777);
        assert_eq!(net.stats().intra, 1);
    }

    #[test]
    fn cross_shard_transfer_locks_and_mints() {
        let accts = accounts(16);
        let (a, b) = cross_pair(2, &accts);
        let mut net = BeaconNet::new(&BeaconParams::default(), 12, &funded(&accts));
        net.submit_at(
            SimTime::from_micros(10_000),
            Transfer {
                from: a,
                to: b,
                value: 555,
            },
        );
        net.run();
        assert_eq!(net.balance(&a), 1_000_000 - 555);
        assert_eq!(net.balance(&b), 1_000_000 + 555);
        let stats = net.stats();
        assert_eq!(stats.minted, 1);
        assert_eq!(stats.refunded, 0);
        // The lock sits in escrow, matched by the mint on the other side.
        assert_eq!(net.escrow_total(), 555);
        // No lock left open anywhere.
        for i in 0..2 {
            assert_eq!(net.shard(i).open_locks(), 0);
        }
        // Conservation: user balances still sum to the allocation.
        assert_eq!(net.user_total(&accts), 16 * 1_000_000);
    }

    #[test]
    fn silent_beacon_forces_timeout_refund() {
        let accts = accounts(16);
        let (a, b) = cross_pair(2, &accts);
        let dst = ShardedLedger::home_shard(&b, 2) as u32;
        let params = BeaconParams {
            silent_shards: vec![dst],
            ..BeaconParams::default()
        };
        let mut net = BeaconNet::new(&params, 13, &funded(&accts));
        net.submit_at(
            SimTime::from_micros(10_000),
            Transfer {
                from: a,
                to: b,
                value: 555,
            },
        );
        net.run();
        // The receipt was suppressed; the timeout query voided the lock and
        // the sender got refunded on-chain. Nothing minted anywhere.
        assert_eq!(net.balance(&a), 1_000_000, "sender made whole");
        assert_eq!(net.balance(&b), 1_000_000, "recipient uncredited");
        let stats = net.stats();
        assert_eq!(stats.minted, 0);
        assert_eq!(stats.refunded, 1);
        assert_eq!(net.beacon().stats.suppressed, 1);
        assert_eq!(net.beacon().stats.timeout_denials, 1);
        assert_eq!(net.escrow_total(), 0, "escrow emptied by the refund");
        assert_eq!(net.user_total(&accts), 16 * 1_000_000);
    }

    /// What a hand-driven beacon asked the network to do, timers aside.
    #[derive(Debug, PartialEq, Eq)]
    enum Sent {
        Grant { lock: Hash256, to: usize },
        Denied { lock: Hash256, to: usize },
    }

    /// Runs one handler of a node outside a network and returns its sends,
    /// timers aside.
    fn sends<N>(
        node: &mut N,
        f: impl FnOnce(&mut N, &mut Ctx<'_, ScaleMsg>),
    ) -> Vec<(usize, ScaleMsg)> {
        let mut rng = dcs_sim::Rng::seed_from(1);
        let mut actions = Vec::new();
        f(
            node,
            &mut Ctx::new(NodeId(0), SimTime::ZERO, &[], &mut rng, &mut actions),
        );
        actions
            .into_iter()
            .filter_map(|action| match action {
                dcs_net::Action::Send { to, msg, .. } => Some((to.0, msg)),
                dcs_net::Action::Timer { .. } => None,
            })
            .collect()
    }

    /// Runs one beacon handler outside a network and returns its sends.
    fn drive(
        beacon: &mut BeaconNode,
        f: impl FnOnce(&mut BeaconNode, &mut Ctx<'_, ScaleMsg>),
    ) -> Vec<Sent> {
        sends(beacon, f)
            .into_iter()
            .map(|(to, msg)| match msg {
                ScaleMsg::MintGrant(grant) => Sent::Grant {
                    lock: grant.lock_id,
                    to,
                },
                ScaleMsg::MintDenied { lock_id } => Sent::Denied { lock: lock_id, to },
                msg => panic!("unexpected send: {msg:?}"),
            })
            .collect()
    }

    /// Lock `i` of a pretend shard-0 block at `height`: one of five, shard
    /// 0 → shard 1.
    fn lock_at(height: u64, i: u64) -> Lock {
        Lock {
            transfer: Transfer {
                from: Address::from_index(0),
                to: Address::from_index(1),
                value: 1,
            },
            nonce: 5 * height + i,
            src_shard: 0,
            dst_shard: 1,
        }
    }

    /// The leaves of that block: the ids of its five locks.
    fn leaves_at(height: u64) -> Vec<Hash256> {
        (0..5).map(|i| lock_at(height, i).tx().id()).collect()
    }

    /// Shard 0's header at `height` over [`leaves_at`], linked to `parent`.
    fn header_over_leaves(parent: &BlockHeader, height: u64) -> BlockHeader {
        let mut header = BlockHeader::new(parent.hash(), height, 0, Address::ZERO, Seal::None);
        header.tx_root = dcs_crypto::merkle_root(&leaves_at(height));
        header
    }

    /// A receipt, shard 0 → shard 1, for leaf `i` of the block at `height`.
    fn receipt_for(height: u64, i: usize) -> LockReceipt {
        LockReceipt {
            lock: lock_at(height, i as u64),
            height,
            proof: MerkleTree::from_leaves(leaves_at(height))
                .prove(i)
                .expect("leaf index in range"),
        }
    }

    /// A two-shard beacon that has tracked shard 0's block 1, and that
    /// block's header.
    fn beacon_with_one_anchor() -> (BeaconNode, BlockHeader) {
        let params = BeaconParams::default();
        let mut beacon = BeaconNode::new(&params);
        let genesis = genesis_block(&shard_config(0, &params)).header.clone();
        let h1 = header_over_leaves(&genesis, 1);
        let h1_sent = drive(&mut beacon, |b, ctx| {
            b.on_anchor(NodeId(1), 0, h1.clone(), ctx)
        });
        assert!(h1_sent.is_empty());
        (beacon, h1)
    }

    #[test]
    fn forged_receipt_inside_a_bundle_is_voided_and_its_neighbours_granted() {
        let (mut beacon, _) = beacon_with_one_anchor();
        let mut forged = receipt_for(1, 2);
        forged.proof = receipt_for(1, 3).proof;
        let (l0, l2, l4) = (leaves_at(1)[0], leaves_at(1)[2], leaves_at(1)[4]);
        let bundle = vec![receipt_for(1, 0), forged, receipt_for(1, 4)];
        let sent = drive(&mut beacon, |b, ctx| b.on_locks(NodeId(1), bundle, ctx));
        // Settled in leaf order: shard 1 (node 2) mints, shard 0 (node 1)
        // refunds.
        assert_eq!(
            sent,
            vec![
                Sent::Grant { lock: l0, to: 2 },
                Sent::Denied { lock: l2, to: 1 },
                Sent::Grant { lock: l4, to: 2 },
            ]
        );
        assert_eq!((beacon.stats.grants, beacon.stats.invalid_receipts), (2, 1));
        // The void is permanent: the honest receipt arriving later changes
        // nothing.
        let late = vec![receipt_for(1, 2)];
        assert!(drive(&mut beacon, |b, ctx| b.on_locks(NodeId(1), late, ctx)).is_empty());
    }

    #[test]
    fn lock_repeated_inside_a_bundle_is_granted_once() {
        let (mut beacon, _) = beacon_with_one_anchor();
        let (l1, l3) = (leaves_at(1)[1], leaves_at(1)[3]);
        let bundle = vec![receipt_for(1, 1), receipt_for(1, 1), receipt_for(1, 3)];
        let sent = drive(&mut beacon, |b, ctx| b.on_locks(NodeId(1), bundle, ctx));
        assert_eq!(
            sent,
            vec![
                Sent::Grant { lock: l1, to: 2 },
                Sent::Grant { lock: l3, to: 2 }
            ]
        );
        assert_eq!(beacon.stats.grants, 2);
    }

    /// A receipt is only its source sequencer's to report: shard 1's
    /// sequencer (node 2) replaying shard 0's receipt with the recipient and
    /// value rewritten is granted nothing, and the honest report still
    /// mints what was locked.
    #[test]
    fn replayed_receipt_from_the_wrong_sequencer_is_granted_nothing() {
        let (mut beacon, _) = beacon_with_one_anchor();
        let honest = receipt_for(1, 0);
        let rewritten = LockReceipt {
            lock: Lock {
                transfer: Transfer {
                    to: Address::from_index(7),
                    value: 1_000_000,
                    ..honest.lock.transfer
                },
                ..honest.lock
            },
            ..honest.clone()
        };
        let sent = drive(&mut beacon, |b, ctx| {
            b.on_locks(NodeId(2), vec![rewritten], ctx)
        });
        assert!(sent.is_empty());
        assert_eq!((beacon.stats.grants, beacon.stats.invalid_receipts), (0, 1));
        let sent = sends(&mut beacon, |b, ctx| {
            b.on_locks(NodeId(1), vec![honest.clone()], ctx)
        });
        let [(2, ScaleMsg::MintGrant(grant))] = sent.as_slice() else {
            panic!("expected one grant to shard 1, got {sent:?}");
        };
        assert_eq!(*grant, Grant::of(leaves_at(1)[0], &honest.lock));
    }

    /// Only a lock's source sequencer may chase it: a status from another
    /// node voids nothing.
    #[test]
    fn foreign_lock_status_voids_nothing() {
        let (mut beacon, _) = beacon_with_one_anchor();
        let receipt = receipt_for(1, 3);
        let lock = leaves_at(1)[3];
        for from in [2, 3] {
            let sent = drive(&mut beacon, |b, ctx| {
                b.on_status(NodeId(from), &receipt.lock, ctx)
            });
            assert!(sent.is_empty(), "status from node {from} was acted on");
        }
        assert_eq!(beacon.stats.invalid_receipts, 2);
        assert_eq!(beacon.stats.timeout_denials, 0);
        let sent = drive(&mut beacon, |b, ctx| {
            b.on_locks(NodeId(1), vec![receipt], ctx)
        });
        assert_eq!(sent, vec![Sent::Grant { lock, to: 2 }]);
    }

    /// A sequencer can void only its own locks: shard 1's sequencer chasing
    /// shard 0's transfer as its own names its own bridge, so the id the
    /// beacon derives is not shard 0's lock, and shard 0's receipt still
    /// grants.
    #[test]
    fn self_named_status_for_another_shards_lock_voids_nothing_of_it() {
        let (mut beacon, _) = beacon_with_one_anchor();
        let honest = receipt_for(1, 3);
        let claimed = Lock {
            src_shard: 1,
            dst_shard: 0,
            ..honest.lock
        };
        let sent = drive(&mut beacon, |b, ctx| b.on_status(NodeId(2), &claimed, ctx));
        let lock = leaves_at(1)[3];
        assert_ne!(claimed.tx().id(), lock);
        assert_eq!(
            sent,
            vec![Sent::Denied {
                lock: claimed.tx().id(),
                to: 2
            }]
        );
        let sent = drive(&mut beacon, |b, ctx| {
            b.on_locks(NodeId(1), vec![honest], ctx)
        });
        assert_eq!(sent, vec![Sent::Grant { lock, to: 2 }]);
        assert_eq!((beacon.stats.grants, beacon.stats.timeout_denials), (1, 1));
    }

    /// The true sequencer cannot mint more than it locked, nor to anyone
    /// else, nor onto its own shard: a receipt whose lock inflates the value
    /// or rewrites the recipient of a sealed lock names a transaction the
    /// proof does not hold, and one locking onto its own shard is refused.
    /// The honest lock in the same bundle still grants.
    #[test]
    fn lying_locks_from_the_true_sequencer_are_voided_and_mint_nothing() {
        let (mut beacon, _) = beacon_with_one_anchor();
        let honest = receipt_for(1, 0);
        let lie = |lock: Lock| LockReceipt {
            lock,
            ..honest.clone()
        };
        let transfer = honest.lock.transfer;
        let inflated = lie(Lock {
            transfer: Transfer {
                value: 1_000_000,
                ..transfer
            },
            ..honest.lock
        });
        let rewritten = lie(Lock {
            transfer: Transfer {
                to: Address::from_index(7),
                ..transfer
            },
            ..honest.lock
        });
        let onto_itself = lie(Lock {
            dst_shard: 0,
            ..honest.lock
        });
        let (l_inflated, l_rewritten) = (inflated.lock.tx().id(), rewritten.lock.tx().id());
        let bundle = vec![inflated, rewritten, onto_itself, honest];
        let sent = drive(&mut beacon, |b, ctx| b.on_locks(NodeId(1), bundle, ctx));
        assert_eq!(
            sent,
            vec![
                Sent::Denied {
                    lock: l_inflated,
                    to: 1
                },
                Sent::Denied {
                    lock: l_rewritten,
                    to: 1
                },
                Sent::Grant {
                    lock: leaves_at(1)[0],
                    to: 2
                },
            ]
        );
        assert_eq!((beacon.stats.grants, beacon.stats.invalid_receipts), (1, 3));
    }

    /// A status query about a lock the beacon already granted re-sends the
    /// same grant, rebuilt from the status's own lock, and never denies it.
    #[test]
    fn status_for_a_granted_lock_re_grants_it() {
        let (mut beacon, _) = beacon_with_one_anchor();
        let receipt = receipt_for(1, 2);
        let first = sends(&mut beacon, |b, ctx| {
            b.on_locks(NodeId(1), vec![receipt.clone()], ctx)
        });
        let again = sends(&mut beacon, |b, ctx| {
            b.on_status(NodeId(1), &receipt.lock, ctx)
        });
        let ([(to, ScaleMsg::MintGrant(granted))], [(to_again, ScaleMsg::MintGrant(regranted))]) =
            (first.as_slice(), again.as_slice())
        else {
            panic!("expected one grant each time, got {first:?} then {again:?}");
        };
        assert_eq!((*to, *to_again), (2, 2));
        assert_eq!(granted, regranted);
        let transfer = receipt.lock.transfer;
        assert_eq!(
            (regranted.lock_id, regranted.to, regranted.value),
            (leaves_at(1)[2], transfer.to, transfer.value)
        );
        assert_eq!((beacon.stats.grants, beacon.stats.timeout_denials), (1, 0));
    }

    /// A grant delivered twice (a status re-query raced the first) mints
    /// once and acknowledges once.
    #[test]
    fn grant_delivered_twice_mints_once() {
        let params = BeaconParams::default();
        let mut shard = ShardNode::new(1, &params, &[]);
        let grant = Grant::of(leaves_at(1)[0], &lock_at(1, 0));
        let first = sends(&mut shard, |s, ctx| s.grant(grant, ctx));
        let [(1, ScaleMsg::MintAck { lock_id })] = first.as_slice() else {
            panic!("expected one ack to shard 0, got {first:?}");
        };
        assert_eq!(*lock_id, grant.lock_id);
        let again = sends(&mut shard, |s, ctx| s.grant(grant, ctx));
        assert!(again.is_empty(), "the duplicate was acted on: {again:?}");
        assert_eq!(shard.stats.mints, 1);
        assert_eq!(shard.pending.len(), 1, "one mint queued");
    }

    #[test]
    fn bundle_spanning_a_missing_anchor_settles_each_receipt_at_its_own() {
        let (mut beacon, h1) = beacon_with_one_anchor();
        let bundle = vec![receipt_for(1, 0), receipt_for(2, 4)];
        let sent = drive(&mut beacon, |b, ctx| b.on_locks(NodeId(1), bundle, ctx));
        assert_eq!(
            sent,
            vec![Sent::Grant {
                lock: leaves_at(1)[0],
                to: 2
            }]
        );
        assert_eq!(beacon.stats.buffered_receipts, 1);
        let h2 = header_over_leaves(&h1, 2);
        let sent = drive(&mut beacon, |b, ctx| b.on_anchor(NodeId(1), 0, h2, ctx));
        assert_eq!(
            sent,
            vec![Sent::Grant {
                lock: leaves_at(2)[4],
                to: 2
            }]
        );
        assert_eq!((beacon.stats.grants, beacon.stats.invalid_receipts), (2, 0));
    }

    /// A receipt is a peer's bytes: shard ids the beacon does not coordinate
    /// must not index its trackers or address a send.
    #[test]
    fn receipt_naming_an_unknown_shard_is_counted_and_dropped() {
        let accts = accounts(4);
        let mut net = BeaconNet::new(&BeaconParams::default(), 19, &funded(&accts));
        let hostile = [
            LockReceipt {
                lock: Lock {
                    src_shard: 9,
                    ..lock_at(1, 0)
                },
                ..receipt_for(1, 0)
            },
            LockReceipt {
                lock: Lock {
                    dst_shard: 9,
                    ..lock_at(1, 1)
                },
                ..receipt_for(1, 1)
            },
        ];
        let status = ScaleMsg::LockStatus(hostile[0].lock);
        for msg in [ScaleMsg::Locks(hostile.to_vec()), status] {
            let size = msg.wire_size();
            net.runner
                .net_mut()
                .inject(SimTime::from_micros(1_000), NodeId(0), msg, size);
        }
        net.run();
        assert_eq!(net.beacon().stats.invalid_receipts, 3);
        assert_eq!(net.beacon().stats.grants, 0);
        assert_eq!(net.stats().minted + net.stats().refunded, 0);
    }

    /// Delivers `msg` to the beacon as if `from` had sent it at time 0.
    fn send_to_beacon(net: &mut BeaconNet, from: usize, msg: ScaleMsg) {
        let size = msg.wire_size();
        net.runner
            .with_ctx(NodeId(from), |_, ctx| ctx.send(NodeId(0), msg, size));
    }

    /// An anchor is a peer's bytes too: a shard id the beacon does not
    /// coordinate must not index its trackers, and one sequencer cannot
    /// anchor another shard's chain.
    #[test]
    fn anchor_naming_an_unknown_or_foreign_shard_is_counted_and_dropped() {
        let params = BeaconParams::default();
        let accts = accounts(8);
        let mut net = BeaconNet::new(&params, 19, &funded(&accts));
        let genesis = genesis_block(&shard_config(0, &params)).header.clone();
        let header = header_over_leaves(&genesis, 1);
        // Shard 1's sequencer (node 2) names shard 9 of 2, then shard 0.
        for shard in [9, 0] {
            let header = Box::new(header.clone());
            send_to_beacon(&mut net, 2, ScaleMsg::Anchor { shard, header });
        }
        for (i, &from) in accts.iter().enumerate() {
            let t = Transfer {
                from,
                to: accts[(i + 1) % accts.len()],
                value: 5,
            };
            net.submit_at(SimTime::from_micros(10_000), t);
        }
        net.run();
        let beacon = net.beacon();
        assert_eq!(beacon.stats.invalid_anchors, 2);
        assert_eq!(beacon.stats.anchors, net.stats().shard_blocks);
        assert_eq!(
            beacon.trackers[0].tip_height(),
            net.shard(0).chain().height()
        );
        assert_eq!(net.user_total(&accts), 8 * 1_000_000);
    }

    /// A header that does not extend the tracked chain (here: block 1 over
    /// a parent that never existed) is counted and dropped, and the honest
    /// anchor of the same height is tracked after it.
    #[test]
    fn anchor_that_does_not_link_is_counted_and_dropped() {
        let accts = accounts(8);
        let mut net = BeaconNet::new(&BeaconParams::default(), 31, &funded(&accts));
        let orphan = BlockHeader::new(sha256(b"no such parent"), 1, 0, Address::ZERO, Seal::None);
        send_to_beacon(
            &mut net,
            1,
            ScaleMsg::Anchor {
                shard: 0,
                header: Box::new(orphan),
            },
        );
        let (a, b) = cross_pair(2, &accts);
        for value in [100, 20, 3] {
            let t = Transfer {
                from: a,
                to: b,
                value,
            };
            net.submit_at(SimTime::from_micros(10_000), t);
        }
        net.run();
        let beacon = net.beacon();
        assert_eq!(beacon.stats.invalid_anchors, 1);
        assert_eq!(beacon.stats.anchors, net.stats().shard_blocks);
        assert!(beacon.trackers[0].tip_height() > 0 && beacon.trackers[1].tip_height() > 0);
        assert_eq!((net.stats().minted, net.stats().refunded), (3, 0));
        assert_eq!(net.user_total(&accts), 8 * 1_000_000);
    }

    /// A header at or below the tracked tip (here: shard 0's genesis,
    /// replayed by its own sequencer) can never be drained, so it is
    /// counted and dropped rather than buffered forever.
    #[test]
    fn stale_anchor_is_counted_and_not_buffered() {
        let params = BeaconParams::default();
        let accts = accounts(8);
        let mut net = BeaconNet::new(&params, 37, &funded(&accts));
        let header = Box::new(genesis_block(&shard_config(0, &params)).header.clone());
        send_to_beacon(&mut net, 1, ScaleMsg::Anchor { shard: 0, header });
        net.run();
        let beacon = net.beacon();
        assert!(beacon.anchor_buf.is_empty());
        assert_eq!(beacon.stats.invalid_anchors, 1);
    }

    /// End to end: a bundle whose middle receipt carries a forged proof
    /// reaches the beacon from the source sequencer ahead of the honest
    /// one. The forged lock is voided and refunded on its source shard, its
    /// neighbours mint, supply holds.
    #[test]
    fn forged_receipt_is_refunded_while_its_neighbours_mint() {
        let accts = accounts(16);
        let (a, b) = cross_pair(2, &accts);
        let (src, dst) = (
            ShardedLedger::home_shard(&a, 2),
            ShardedLedger::home_shard(&b, 2),
        );
        let net_with_three_locks = || {
            let mut net = BeaconNet::new(&BeaconParams::default(), 23, &funded(&accts));
            for value in [100, 20, 3] {
                let t = Transfer {
                    from: a,
                    to: b,
                    value,
                };
                net.submit_at(SimTime::from_micros(10_000), t);
            }
            net
        };
        // An honest twin tells what block 1 of the source shard will hold.
        let mut twin = net_with_three_locks();
        twin.run();
        let chain = twin.shard(src).chain();
        let first = chain.canonical_at(1).expect("the locks sealed");
        let body = chain.tree().get(&first).expect("stored");
        let leaves = body.body().expect("inside the retention window").tx_ids();
        assert_eq!(leaves.len(), 3, "the three locks share one block");
        let tree = MerkleTree::from_leaves(leaves.to_vec());
        let mut bundle: Vec<LockReceipt> = [100, 20, 3]
            .iter()
            .enumerate()
            .map(|(i, &value)| LockReceipt {
                lock: Lock {
                    transfer: Transfer {
                        from: a,
                        to: b,
                        value,
                    },
                    nonce: i as u64,
                    src_shard: src as u32,
                    dst_shard: dst as u32,
                },
                height: 1,
                proof: tree.prove(i).expect("leaf index in range"),
            })
            .collect();
        bundle[1].proof = tree.prove(2).expect("leaf index in range");

        let mut net = net_with_three_locks();
        send_to_beacon(&mut net, 1 + src, ScaleMsg::Locks(bundle));
        net.run();
        let stats = net.stats();
        assert_eq!((stats.minted, stats.refunded), (2, 1));
        assert_eq!(net.beacon().stats.invalid_receipts, 1);
        assert_eq!(net.beacon().stats.buffered_receipts, 3);
        assert_eq!(net.balance(&a), 1_000_000 - 103, "the forged lock refunded");
        assert_eq!(net.balance(&b), 1_000_000 + 103);
        assert_eq!(net.escrow_total(), 103);
        assert_eq!(net.user_total(&accts), 16 * 1_000_000);
        for i in 0..2 {
            assert_eq!(net.shard(i).open_locks(), 0);
        }
    }

    /// End to end: the source sequencer sends a bundle of lies about block
    /// 1's three real locks, each with that lock's real proof, ahead of the
    /// honest bundle. Only what was locked mints, and supply holds.
    #[test]
    fn lying_bundle_ahead_of_the_honest_one_mints_only_what_was_locked() {
        let accts = accounts(16);
        let (a, b) = cross_pair(2, &accts);
        let (src, dst) = (
            ShardedLedger::home_shard(&a, 2),
            ShardedLedger::home_shard(&b, 2),
        );
        let mut net = BeaconNet::new(&BeaconParams::default(), 23, &funded(&accts));
        let locks: Vec<Lock> = [100, 20, 3]
            .into_iter()
            .enumerate()
            .map(|(i, value)| {
                let t = Transfer {
                    from: a,
                    to: b,
                    value,
                };
                net.submit_at(SimTime::from_micros(10_000), t);
                Lock {
                    transfer: t,
                    nonce: i as u64,
                    src_shard: src as u32,
                    dst_shard: dst as u32,
                }
            })
            .collect();
        let leaves: Vec<Hash256> = locks.iter().map(|l| l.tx().id()).collect();
        let tree = MerkleTree::from_leaves(leaves.clone());
        let c = accts[2..]
            .iter()
            .copied()
            .find(|x| *x != b && ShardedLedger::home_shard(x, 2) == dst)
            .expect("a second account on the destination shard");
        let t = |i: usize| locks[i].transfer;
        let lies = [
            Lock {
                transfer: Transfer {
                    value: 1_000_000,
                    ..t(0)
                },
                ..locks[0]
            },
            Lock {
                transfer: Transfer { to: c, ..t(1) },
                ..locks[1]
            },
            Lock {
                dst_shard: src as u32,
                ..locks[2]
            },
        ];
        let bundle = lies
            .into_iter()
            .enumerate()
            .map(|(i, lock)| LockReceipt {
                lock,
                height: 1,
                proof: tree.prove(i).expect("leaf index in range"),
            })
            .collect();
        send_to_beacon(&mut net, 1 + src, ScaleMsg::Locks(bundle));
        net.run();
        let chain = net.shard(src).chain();
        let first = chain.canonical_at(1).expect("the locks sealed");
        let body = chain.tree().get(&first).expect("stored");
        assert_eq!(
            body.body().expect("inside the retention window").tx_ids(),
            &leaves[..],
            "the lies carried real proofs"
        );
        let stats = net.stats();
        assert_eq!((stats.minted, stats.refunded), (3, 0));
        assert_eq!(net.beacon().stats.invalid_receipts, 3);
        assert_eq!(net.balance(&a), 1_000_000 - 123);
        assert_eq!(net.balance(&b), 1_000_000 + 123);
        assert_eq!(net.balance(&c), 1_000_000);
        assert_eq!(net.escrow_total(), 123, "escrow holds what minted");
        assert_eq!(net.user_total(&accts), 16 * 1_000_000);
        for i in 0..2 {
            assert_eq!(net.shard(i).open_locks(), 0);
        }
    }

    /// Three shards whose seals cut several blocks at once, under a latency
    /// model that reorders their anchors and bundles: the beacon's two
    /// reordering buffers, which constant latency never enters.
    #[test]
    fn reordered_anchors_and_bundles_settle_every_lock() {
        use dcs_sim::Rng;
        let accts = accounts(24);
        let params = BeaconParams {
            shards: 3,
            block_tx_limit: 4,
            latency: LatencyModel::Uniform {
                lo: SimDuration::from_millis(1),
                hi: SimDuration::from_millis(9),
            },
            ..BeaconParams::default()
        };
        let mut net = BeaconNet::new(&params, 29, &funded(&accts));
        let mut rng = Rng::seed_from(0x10C5);
        for i in 0..200u64 {
            let t = Transfer {
                from: accts[rng.below(24) as usize],
                to: accts[rng.below(24) as usize],
                value: 1 + rng.below(50),
            };
            net.submit_at(SimTime::from_micros(2_000 * (i + 1)), t);
        }
        net.run();
        let beacon = net.beacon();
        assert!(
            beacon.stats.buffered_receipts > 0,
            "some bundle overtook its anchor"
        );
        assert_eq!(beacon.stats.invalid_receipts, 0);
        let stats = net.stats();
        assert!(stats.minted > 0, "the mix crosses shards");
        assert_eq!(beacon.stats.grants, stats.minted);
        // Every anchor was applied, so every one that overtook its
        // predecessor waited for it.
        assert_eq!(beacon.stats.anchors, stats.shard_blocks);
        let mut locks = 0;
        for i in 0..3 {
            let shard = net.shard(i);
            assert_eq!(shard.open_locks(), 0, "shard {i}");
            assert_eq!(
                beacon.trackers[i].tip_height(),
                shard.chain().height(),
                "shard {i}"
            );
            locks += shard.stats.locks;
        }
        assert_eq!(stats.minted + stats.refunded, locks);
        assert_eq!(net.user_total(&accts), 24 * 1_000_000);
    }

    #[test]
    fn light_client_tracks_shard_zero() {
        let accts = accounts(24);
        let mut net = BeaconNet::new(&BeaconParams::default(), 14, &funded(&accts));
        // Enough traffic that shard 0 seals a stream of blocks.
        for i in 0..40u64 {
            net.submit_at(
                SimTime::from_micros(20_000 * (i + 1)),
                Transfer {
                    from: accts[(i % 24) as usize],
                    to: accts[((i + 1) % 24) as usize],
                    value: 5,
                },
            );
        }
        net.run();
        let served_tip = net.shard(0).chain().height();
        assert!(served_tip > 0, "shard 0 sealed blocks");
        let client = net.light().client().expect("snapshot sync completed");
        assert_eq!(client.tip_height(), served_tip, "light client caught up");
        assert!(
            net.light().proofs_verified > 0,
            "at least one SPV spot-check verified"
        );
        // Every byte the client pulled is accounted (the E23 measurand).
        assert!(client.bytes_downloaded > 0);
    }

    #[test]
    fn late_light_client_bootstraps_from_checkpoint() {
        let accts = accounts(24);
        let params = BeaconParams {
            // First poll lands after the shard has outrun the checkpoint
            // lag, so the snapshot must be a mid-chain checkpoint.
            sync_interval: SimDuration::from_millis(2_000),
            ..BeaconParams::default()
        };
        let mut net = BeaconNet::new(&params, 17, &funded(&accts));
        for i in 0..40u64 {
            net.submit_at(
                SimTime::from_micros(20_000 * (i + 1)),
                Transfer {
                    from: accts[(i % 24) as usize],
                    to: accts[((i + 1) % 24) as usize],
                    value: 5,
                },
            );
        }
        net.run();
        let client = net.light().client().expect("snapshot sync completed");
        assert!(
            client.header_at(0).is_none(),
            "checkpoint bootstrap skips the genesis-side headers"
        );
        assert_eq!(client.tip_height(), net.shard(0).chain().height());
    }

    /// A served header is a peer's bytes: one of the next height that does
    /// not link is counted and the rest of its response dropped, and a
    /// later honest response still syncs.
    #[test]
    fn light_node_counts_a_header_that_does_not_link_and_keeps_syncing() {
        let params = BeaconParams::default();
        let genesis = genesis_block(&shard_config(0, &params)).header.clone();
        let h1 = header_over_leaves(&genesis, 1);
        let h2 = header_over_leaves(&h1, 2);
        let forged = BlockHeader::new(sha256(b"no such parent"), 1, 0, Address::ZERO, Seal::None);
        let mut light = LightNode::new(&params);
        light.bootstrap(genesis, &[]);
        light.absorb(&[forged, h1.clone(), h2.clone()]);
        let tip = |l: &LightNode| l.client().expect("bootstrapped").tip_height();
        assert_eq!((tip(&light), light.rejected_headers), (0, 1));
        light.absorb(&[h1, h2]);
        assert_eq!((tip(&light), light.rejected_headers), (2, 1));
    }

    #[test]
    fn mixed_workload_matches_single_chain() {
        use dcs_sim::Rng;
        let accts = accounts(32);
        let mut rng = Rng::seed_from(99);
        let transfers: Vec<Transfer> = (0..120)
            .map(|_| Transfer {
                from: accts[rng.below(32) as usize],
                to: accts[rng.below(32) as usize],
                value: 1 + rng.below(50),
            })
            .collect();
        let mut net = BeaconNet::new(&BeaconParams::default(), 15, &funded(&accts));
        for (i, t) in transfers.iter().enumerate() {
            net.submit_at(SimTime::from_micros(5_000 * (i as u64 + 1)), *t);
        }
        net.run();
        let stats = net.stats();
        assert_eq!(stats.rejected, 0, "ample funding: nothing rejected");
        assert_eq!(stats.refunded, 0, "healthy beacon: nothing refunded");
        // Amply funded transfers commute, so the sharded outcome must match
        // a sequential single-chain application of the same mix.
        let expected = single_chain_balances(&funded(&accts), &transfers);
        for a in &accts {
            assert_eq!(net.balance(a), expected[a], "balance of {a:?}");
        }
        assert_eq!(net.user_total(&accts), 32 * 1_000_000);
    }

    /// The equivalence oracle: a plain balance map applying the mix in
    /// submission order, sharing no code with the stack under test.
    fn single_chain_balances(
        alloc: &[(Address, Amount)],
        transfers: &[Transfer],
    ) -> BTreeMap<Address, Amount> {
        let mut balances: BTreeMap<Address, Amount> = alloc.iter().copied().collect();
        for t in transfers {
            *balances.get_mut(&t.from).expect("funded sender") -= t.value;
            *balances.get_mut(&t.to).expect("funded recipient") += t.value;
        }
        balances
    }

    #[test]
    fn digest_stable_across_engine_workers() {
        let accts = accounts(24);
        let run = |workers: usize| {
            let mut net = BeaconNet::new(&BeaconParams::default(), 21, &funded(&accts));
            net.set_engine_workers(workers);
            for i in 0..60u64 {
                net.submit_at(
                    SimTime::from_micros(8_000 * (i + 1)),
                    Transfer {
                        from: accts[(i % 24) as usize],
                        to: accts[((i * 7 + 3) % 24) as usize],
                        value: 3,
                    },
                );
            }
            net.run();
            net.digest()
        };
        let d1 = run(1);
        assert_eq!(d1, run(2), "2 workers diverged from serial");
        assert_eq!(d1, run(8), "8 workers diverged from serial");
    }

    #[test]
    fn shard_store_prunes_old_bodies() {
        let accts = accounts(8);
        let params = BeaconParams {
            keep_depth: 4,
            confirmation_depth: 2,
            ..BeaconParams::default()
        };
        let mut net = BeaconNet::new(&params, 31, &funded(&accts));
        for i in 0..80u64 {
            net.submit_at(
                SimTime::from_micros(10_000 * (i + 1)),
                Transfer {
                    from: accts[(i % 8) as usize],
                    to: accts[((i + 1) % 8) as usize],
                    value: 1,
                },
            );
        }
        net.run();
        let shard = net.shard(0);
        let tip = shard.chain().height();
        assert!(tip > 12, "enough blocks to prune");
        let old = shard.chain().canonical_at(1).expect("height 1 exists");
        let stored = shard.chain().tree().get(&old).expect("header retained");
        assert!(stored.body().is_none(), "old body pruned");
    }
}
