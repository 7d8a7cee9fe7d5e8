//! The five named workloads. Each function below is one repetition: it
//! generates its inputs from the repetition seed, sets the network up under
//! `setup.*` spans, drives it, reads the outcome back and verifies it.
//!
//! The numbers in each function are the issue's table ("full size"). A
//! repetition runs at a frozen share of that size — set at the top of each
//! function, with what the share scales — so that at least four repetitions
//! fit in one 20 s run; `--scale` multiplies every share.

use crate::gen::{poisson_arrivals_us, SplitMix64};
use crate::ledger::{
    install_collection, max_commit_gap_us, play, Mode, Observed, Plan, Submission,
};
use crate::spans::Recorder;
use crate::verify::{self, BeaconEvidence, Verdict};
use dcs_chain::{genesis_block, NullMachine};
use dcs_consensus::{pbft::PbftNode, pow::PowNode, Mempool};
use dcs_contracts::{stdlib, AccountMachine};
use dcs_crypto::{sha256, Address, Hash256, KeyPair, VerifyPipeline};
use dcs_faults::FaultSchedule;
use dcs_ledger::{builders, install_faults, LedgerNode};
use dcs_net::{LatencyModel, NetConfig, NodeId, Runner, Topology};
use dcs_primitives::{
    AccountTx, ChainConfig, ConsensusKind, SealedTx, Transaction, TxAuth, TxPayload,
};
use dcs_scale::beacon::{BeaconNet, BeaconParams};
use dcs_scale::{ShardedLedger, Transfer};
use dcs_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

pub const NAMES: [&str; 5] = [
    "gossip_signed",
    "pbft_contracts",
    "gossip_overload",
    "beacon_shards",
    "pbft_failover",
];

/// Engine workers of every measured repetition — fixed, never read
/// from `nproc` (`host_cpus` is printed beside the results). One, which is
/// also what `Runner`'s own default picks for any network under 128 peers.
/// Two were tried at the parent commit on this 2-core host: the 32-peer
/// gossip overlays ran 1.1x to 1.6x faster, but a barrier-synchronised
/// pair of threads stalls whenever the hypervisor takes either core away,
/// and the same commit then measured 17-35 % slower half an hour later; the
/// 4- to 7-peer networks were no faster (`pbft_failover` a quarter slower)
/// and their peak RSS varied by a quarter between identical runs. A ruler
/// has to repeat, so the serial path it is.
pub const ENGINE_WORKERS: usize = 1;

/// Engine workers of the traced run's extra drive, so the sharded engine
/// stays measured (`run.two_worker_wall_s`) and checked (same digest) while
/// the end-to-end metrics stay on the path that repeats.
pub const SHARDED_WORKERS: usize = 2;

/// One verify thread and a 2^20-entry signature cache, shared by every
/// peer's mempool admission and state machine — the wiring `dcs-ledger
/// serve` uses. Fixed here, never read from `nproc`.
pub const VERIFY_THREADS: usize = 1;
const SIG_CACHE: usize = 1 << 20;
/// `NodeCore`'s own mempool capacity, kept where a pool is replaced.
const POOL_CAP: usize = 100_000;
const GENESIS_BALANCE: u64 = 1_000_000_000_000;

// Stream labels: one independent generator per purpose.
const S_KEYS: u64 = 1;
const S_ARRIVALS: u64 = 2;
const S_TXS: u64 = 3;

/// Submissions start at simulated time zero unless a workload says otherwise.
const WINDOW_START: SimTime = SimTime::ZERO;

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn scaled(full: usize, scale: f64) -> usize {
    ((full as f64 * scale).round() as usize).max(1)
}

/// What one repetition hands back to the run loop.
pub struct RepResult {
    pub setup_s: f64,
    pub run_wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Transactions committed with a success outcome.
    pub committed: u64,
    pub latencies_s: Vec<f64>,
    pub max_gap_s: f64,
    pub wire_bytes: u64,
    pub digest: Hash256,
    pub verdict: Verdict,
    /// Per-layer counts read from public accessors after the run.
    pub counts: BTreeMap<&'static str, f64>,
    /// The run's blocks and submissions, for the replay probes.
    pub replay: Option<Replay>,
}

/// Inputs of the replay probes: exactly what the run committed and was fed.
pub struct Replay {
    pub blocks: Vec<Arc<dcs_primitives::Block>>,
    pub submissions: Vec<Submission>,
    pub chain: ChainConfig,
    /// Capacity of every peer's mempool in the run.
    pub pool_cap: usize,
    pub machine: MachineKind,
    pub net: NetConfig,
    pub net_seed: u64,
    pub events: u64,
    pub replicas: usize,
}

/// Which state machine a workload's replicas run, so a probe can rebuild one.
#[derive(Clone)]
pub enum MachineKind {
    Null,
    Account { alloc: Vec<(Address, u64)> },
}

impl MachineKind {
    pub fn account(&self, pipeline: &Arc<VerifyPipeline>) -> AccountMachine {
        let MachineKind::Account { alloc } = self else {
            panic!("account() on a NullMachine workload");
        };
        signed_machine(alloc, pipeline)
    }
}

fn signed_machine(alloc: &[(Address, u64)], pipeline: &Arc<VerifyPipeline>) -> AccountMachine {
    let mut m = AccountMachine::with_alloc(alloc).with_pipeline(Arc::clone(pipeline));
    m.verify_signatures = true;
    m
}

// ---------------------------------------------------------------------------
// Generation helpers
// ---------------------------------------------------------------------------

fn keygen(rec: &mut Recorder, seed: u64, senders: usize, height: u8) -> Vec<KeyPair> {
    let (keys, _) = rec.time("setup.keygen", "crypto", |_| {
        let mut rng = SplitMix64::stream(seed, S_KEYS);
        let keys: Vec<KeyPair> = (0..senders)
            .map(|_| KeyPair::generate(rng.bytes32(), height))
            .collect();
        (keys, (senders as u64) << height)
    });
    keys
}

fn sign(key: &mut KeyPair, mut tx: AccountTx) -> SealedTx {
    let hash = Transaction::Account(tx.clone()).signing_hash();
    tx.auth = Some(TxAuth {
        pubkey: key.public_key(),
        signature: key.sign(&hash).expect("key capacity covers the workload"),
    });
    SealedTx::new(Arc::new(Transaction::Account(tx)))
}

fn unsigned(tx: AccountTx) -> SealedTx {
    SealedTx::new(Arc::new(Transaction::Account(tx)))
}

fn pow_chain(nodes: usize, block_tx_limit: usize, verify_signatures: bool) -> ChainConfig {
    ChainConfig {
        consensus: ConsensusKind::ProofOfWork {
            initial_difficulty: nodes as u64 * 1_000 * 5, // ~5 s blocks
            retarget_window: 16,
            target_interval_us: 5_000_000,
        },
        block_tx_limit,
        verify_signatures,
        ..ChainConfig::bitcoin_like()
    }
}

fn gossip_net(nodes: usize) -> NetConfig {
    NetConfig {
        nodes,
        topology: Topology::KRegular { k: 4 },
        latency: LatencyModel::wan(),
        drop_probability: 0.0,
        bandwidth_bytes_per_sec: None,
    }
}

fn pbft_net(nodes: usize) -> NetConfig {
    NetConfig {
        nodes,
        topology: Topology::Complete,
        latency: LatencyModel::lan(),
        drop_probability: 0.0,
        bandwidth_bytes_per_sec: None,
    }
}

/// Sum of the balances of every address the workload can have touched.
fn supply_audit<P: LedgerNode<Machine = AccountMachine>>(
    runner: &Runner<P>,
    alloc: &[(Address, u64)],
    extra: &[Address],
    coinbase_total: u128,
) -> (u128, u128) {
    let db = &runner.node(NodeId(0)).core().chain.machine().db;
    let expected: u128 = alloc.iter().map(|(_, v)| u128::from(*v)).sum::<u128>() + coinbase_total;
    let proposers = (0..runner.nodes().len()).map(builders::node_address);
    let actual: u128 = alloc
        .iter()
        .map(|(a, _)| *a)
        .chain(extra.iter().copied())
        .chain(proposers)
        .map(|a| u128::from(db.balance(&a)))
        .sum();
    (expected, actual)
}

fn max_view_changes<M: dcs_chain::StateMachine>(runner: &Runner<PbftNode<M>>) -> u64 {
    runner
        .nodes()
        .iter()
        .map(|n| n.view_changes)
        .max()
        .unwrap_or(0)
}

fn base_counts(obs: &Observed) -> BTreeMap<&'static str, f64> {
    let committed = obs.committed_ok.max(1) as f64;
    let mut c = BTreeMap::new();
    c.insert("net.events_per_tx", obs.events as f64 / committed);
    c.insert("net.msgs_per_tx", obs.net.sent as f64 / committed);
    c.insert("net.bytes_per_tx", obs.net.bytes_sent as f64 / committed);
    c.insert("net.queue_high_water", obs.queue_high_water as f64);
    c.insert("consensus.blocks", obs.sim.canonical_blocks as f64);
    c.insert(
        "consensus.txs_per_block",
        obs.sim.committed_txs as f64 / obs.sim.canonical_blocks.max(1) as f64,
    );
    c.insert("consensus.stale_rate", obs.sim.stale_rate);
    c.insert("consensus.view_changes", obs.view_changes as f64);
    c.insert("chain.reorgs", obs.sim.reorgs as f64);
    c.insert("chain.sync_retries", obs.sim.sync_retries as f64);
    c.insert("chain.catchup_rounds", obs.sim.catchup_rounds as f64);
    c.insert(
        "contracts.failed_receipts",
        obs.evidence.failed_receipts as f64,
    );
    c.insert(
        "consensus.duplicate_commits",
        obs.evidence.duplicate_commits as f64,
    );
    c.insert(
        "contracts.gas_per_tx",
        obs.call_gas as f64 / obs.calls.max(1) as f64,
    );
    c.insert("ledger.collect_s", obs.collect_s);
    c.insert(
        "ledger.committed_of_submitted",
        obs.committed_ok as f64 / obs.submitted.max(1) as f64,
    );
    if let Some(m) = obs.mempool {
        c.insert("consensus.mempool_admitted", m.admitted as f64);
        c.insert("consensus.mempool_rejected_full", m.rejected_full as f64);
        c.insert(
            "consensus.mempool_rejected_invalid",
            m.rejected_invalid as f64,
        );
        c.insert("consensus.mempool_duplicate", m.duplicate as f64);
    }
    c
}

fn pipeline_counts(c: &mut BTreeMap<&'static str, f64>, pipeline: &VerifyPipeline) {
    let stats = pipeline.stats();
    let cache = stats.cache.unwrap_or_default();
    c.insert("crypto.verify_misses", cache.misses as f64);
    c.insert("crypto.cache_hit_ratio", cache.hit_rate());
    c.insert(
        "crypto.avg_verify_batch",
        stats.batch_items as f64 / stats.batches.max(1) as f64,
    );
}

/// Folds an [`Observed`] run into the repetition result. `attempted` and
/// `failed` default to submissions and those not committed with success.
fn finish(
    obs: Observed,
    setup_s: f64,
    verdict: Verdict,
    counts: BTreeMap<&'static str, f64>,
    replay: Option<Replay>,
) -> RepResult {
    RepResult {
        setup_s,
        run_wall_s: obs.run_wall_s,
        attempted: obs.submitted,
        failed: obs.submitted - obs.committed_ok,
        committed: obs.committed_ok,
        latencies_s: obs.latencies_s,
        max_gap_s: obs.max_gap_s,
        wire_bytes: obs.net.bytes_sent,
        digest: obs.digest,
        verdict,
        counts,
        replay,
    }
}

/// Per-repetition inputs every workload receives.
#[derive(Debug, Clone, Copy)]
pub struct RepCtx {
    /// Seed of this repetition's generated inputs: keys, transactions,
    /// arrival times, points of contact.
    pub seed: u64,
    /// Which of a run's three frozen simulations this is.
    pub rep: usize,
    pub scale: f64,
    pub mode: Mode,
    /// Keep the run's blocks and submissions for the replay probes.
    pub keep_replay: bool,
}

impl RepCtx {
    /// The simulator's own seed (overlay wiring, link jitter, mining
    /// lottery) is part of the workload's definition, frozen like the block
    /// interval: simulation `c` of every run replays the same modelled
    /// environment, and `--seed` varies what the clients do in it. A PoW
    /// run seals some twenty blocks, so a lottery drawn afresh per seed
    /// would move the simulated-time metrics by tens of percent between
    /// seeds and no bound under 25 % could tell a regression from luck.
    fn net_seed(&self) -> u64 {
        SplitMix64::stream(0xD05_B10C, self.rep as u64).next_u64()
    }
}

pub fn run(name: &str, rec: &mut Recorder, ctx: &RepCtx) -> RepResult {
    match name {
        "gossip_signed" => gossip_signed(rec, ctx),
        "pbft_contracts" => pbft_contracts(rec, ctx),
        "gossip_overload" => gossip_overload(rec, ctx),
        "beacon_shards" => beacon_shards(rec, ctx),
        "pbft_failover" => pbft_failover(rec, ctx),
        other => panic!("unknown workload {other}"),
    }
}

// ---------------------------------------------------------------------------
// gossip_signed
// ---------------------------------------------------------------------------

/// 32 PoW peers over a 4-regular WAN overlay, ~5 s blocks, default gas,
/// signatures on: funded senders with height-5 WOTS keys send nonce-ordered
/// transfers round-robin at 300 tx/s for 60 sim-s to a sticky point of
/// contact; horizon 90 sim-s.
fn gossip_signed(rec: &mut Recorder, ctx: &RepCtx) -> RepResult {
    const NODES: usize = 32;
    const KEY_HEIGHT: u8 = 5;
    // Rate and senders scale; the 60 sim-s window stays, so the number of
    // blocks (and with it the simulated-time metrics) does not change.
    let scale = ctx.scale * 0.125;
    let senders = scaled(640, scale);
    let rate = 300.0 * scale;
    let count = scaled(18_000, scale).min(senders << KEY_HEIGHT);
    let (window_end, horizon) = (secs(60), secs(90));

    let setup = rec.open("setup", "harness");
    let mut keys = keygen(rec, ctx.seed, senders, KEY_HEIGHT);
    let alloc: Vec<(Address, u64)> = keys
        .iter()
        .map(|k| (k.address(), GENESIS_BALANCE))
        .collect();
    let (submissions, _) = rec.time("setup.sign", "crypto", |_| {
        let mut rng = SplitMix64::stream(ctx.seed, S_TXS);
        let at = poisson_arrivals_us(&mut SplitMix64::stream(ctx.seed, S_ARRIVALS), count, rate);
        let subs: Vec<Submission> = (0..count)
            .map(|i| {
                let s = i % senders;
                let to = alloc[rng.below(senders as u64) as usize].0;
                let tx =
                    AccountTx::transfer(alloc[s].0, to, 1 + rng.below(100), (i / senders) as u64);
                Submission {
                    at_us: at[i],
                    contact: s % NODES,
                    tx: sign(&mut keys[s], tx),
                }
            })
            .collect();
        (subs, count as u64)
    });
    let chain = pow_chain(NODES, 4_200, true);
    let net = gossip_net(NODES);
    let pipeline = Arc::new(VerifyPipeline::new(VERIFY_THREADS, SIG_CACHE));
    let ((mut runner, registry), _) = rec.time("setup.build", "ledger", |_| {
        let genesis = genesis_block(&chain);
        let mut runner = Runner::new(net.clone(), ctx.net_seed(), |id: NodeId| {
            let mut node = PowNode::new(
                id,
                builders::node_address(id.0),
                genesis.clone(),
                chain.clone(),
                signed_machine(&alloc, &pipeline),
                1_000.0,
            );
            node.core.mempool = Mempool::with_admission(POOL_CAP, Arc::clone(&pipeline));
            node
        });
        let registry = install_collection(&mut runner, ctx.mode);
        ((runner, registry), NODES as u64)
    });
    let plan = Plan {
        reference: 0,
        window_start: WINDOW_START,
        window_end,
        horizon,
    };
    let (mut obs, setup_s) = play(
        rec,
        &mut runner,
        setup,
        &submissions,
        &plan,
        (ctx.mode, registry.as_ref()),
        |_| 0,
        |r, t| r.run_until(t),
    );
    let events = obs.events;
    let (verdict, _) = rec.time("verify_outputs", "harness", |_| {
        obs.evidence.supply = Some(supply_audit(
            &runner,
            &alloc,
            &[],
            obs.evidence.coinbase_total,
        ));
        (verify::gossip_signed(&obs.evidence), 1)
    });
    let mut counts = base_counts(&obs);
    pipeline_counts(&mut counts, &pipeline);
    let replay = ctx.keep_replay.then(|| Replay {
        blocks: obs.blocks.clone(),
        submissions,
        chain,
        pool_cap: POOL_CAP,
        machine: MachineKind::Account { alloc },
        net,
        net_seed: ctx.net_seed(),
        events,
        replicas: NODES,
    });
    finish(obs, setup_s, verdict, counts, replay)
}

// ---------------------------------------------------------------------------
// pbft_contracts
// ---------------------------------------------------------------------------

/// 4 PBFT replicas on a LAN, default gas, signatures on: sender 0 deploys
/// the token and the notary, every sender mints, then a 60/30/10 mix of
/// token transfers, notary registrations and plain transfers at 2 000 tx/s
/// for 12 sim-s at full size.
fn pbft_contracts(rec: &mut Recorder, ctx: &RepCtx) -> RepResult {
    const NODES: usize = 4;
    const KEY_HEIGHT: u8 = 6;
    const DEPLOY_GAS: u64 = 2_000_000;
    const CALL_GAS: u64 = 120_000;
    // Deploys land first, mints second, the mix third: a call that overtook
    // its contract's deployment would be a plain transfer and every later
    // token transfer of that sender would revert.
    const MINT_START_US: u64 = 500_000;
    const MIX_START_US: u64 = 2_000_000;
    // The rate stays at 2 000 tx/s so transactions per block — what
    // decides the VM/trie/import split — do not change with the scale;
    // scaling shortens the 12 sim-s window instead.
    const RATE: f64 = 2_000.0;
    let scale = ctx.scale * 0.15;
    let senders = scaled(384, scale).max(2);
    let capacity = senders << KEY_HEIGHT;
    let mix = scaled(24_576, scale).min(capacity) - senders - 2;
    let window_end = SimTime::from_micros(MIX_START_US + (mix as f64 / RATE * 1e6) as u64);
    let horizon = window_end + SimDuration::from_secs(6);

    let setup = rec.open("setup", "harness");
    let mut keys = keygen(rec, ctx.seed, senders, KEY_HEIGHT);
    let alloc: Vec<(Address, u64)> = keys
        .iter()
        .map(|k| (k.address(), GENESIS_BALANCE))
        .collect();
    let deploy_token = AccountTx::deploy(alloc[0].0, stdlib::token(), 0, DEPLOY_GAS);
    let deploy_notary = AccountTx::deploy(alloc[0].0, stdlib::notary(), 1, DEPLOY_GAS);
    let (token, notary) = (
        deploy_token.contract_address(),
        deploy_notary.contract_address(),
    );
    let (submissions, _) = rec.time("setup.sign", "crypto", |_| {
        let mut rng = SplitMix64::stream(ctx.seed, S_TXS);
        let mut nonces = vec![0u64; senders];
        let mut subs = Vec::with_capacity(mix + senders + 2);
        fn push(
            (subs, keys, nonces): (&mut Vec<Submission>, &mut [KeyPair], &mut [u64]),
            s: usize,
            at_us: u64,
            mut tx: AccountTx,
        ) {
            tx.nonce = nonces[s];
            nonces[s] += 1;
            subs.push(Submission {
                at_us,
                contact: s % NODES,
                tx: sign(&mut keys[s], tx),
            });
        }
        push((&mut subs, &mut keys, &mut nonces), 0, 1, deploy_token);
        push((&mut subs, &mut keys, &mut nonces), 0, 2, deploy_notary);
        for (s, (minter, _)) in alloc.iter().enumerate() {
            let at = MINT_START_US + (s as u64 * 1_000_000) / senders as u64;
            let call = AccountTx::call(
                *minter,
                token,
                stdlib::token_mint_input(1_000_000),
                0,
                0,
                CALL_GAS,
            );
            push((&mut subs, &mut keys, &mut nonces), s, at, call);
        }
        let at = poisson_arrivals_us(&mut SplitMix64::stream(ctx.seed, S_ARRIVALS), mix, RATE);
        // Sender 0 spent two signatures on the deployments; skip it on the
        // last two rounds so no key runs past its capacity.
        let mut s = 0usize;
        for (i, at_us) in at.iter().enumerate() {
            while nonces[s] >= 1 << KEY_HEIGHT {
                s = (s + 1) % senders;
            }
            let from = alloc[s].0;
            let tx = match rng.below(10) {
                0..=5 => {
                    let to = alloc[rng.below(senders as u64) as usize].0;
                    AccountTx::call(
                        from,
                        token,
                        stdlib::token_transfer_input(&to, 1 + rng.below(5)),
                        0,
                        0,
                        CALL_GAS,
                    )
                }
                6..=8 => {
                    let doc = sha256(&[ctx.seed.to_le_bytes(), (i as u64).to_le_bytes()].concat());
                    AccountTx::call(
                        from,
                        notary,
                        stdlib::notary_register_input(&doc),
                        0,
                        0,
                        CALL_GAS,
                    )
                }
                _ => {
                    let to = alloc[rng.below(senders as u64) as usize].0;
                    AccountTx::transfer(from, to, 1 + rng.below(100), 0)
                }
            };
            push(
                (&mut subs, &mut keys, &mut nonces),
                s,
                MIX_START_US + at_us,
                tx,
            );
            s = (s + 1) % senders;
        }
        let n = subs.len() as u64;
        (subs, n)
    });
    let chain = ChainConfig {
        consensus: ConsensusKind::Pbft {
            batch_size: 500,
            batch_timeout_us: 200_000,
            view_timeout_us: 5_000_000,
        },
        gas: dcs_primitives::GasSchedule::default(),
        verify_signatures: true,
        ..ChainConfig::hyperledger_like()
    };
    let net = pbft_net(NODES);
    let pipeline = Arc::new(VerifyPipeline::new(VERIFY_THREADS, SIG_CACHE));
    let ((mut runner, registry), _) = rec.time("setup.build", "ledger", |_| {
        let genesis = genesis_block(&chain);
        let mut runner = Runner::new(net.clone(), ctx.net_seed(), |id: NodeId| {
            let mut node = PbftNode::new(
                id,
                builders::node_address(id.0),
                genesis.clone(),
                chain.clone(),
                signed_machine(&alloc, &pipeline),
                NODES,
            );
            node.core.mempool = Mempool::with_admission(POOL_CAP, Arc::clone(&pipeline));
            node
        });
        let registry = install_collection(&mut runner, ctx.mode);
        ((runner, registry), NODES as u64)
    });
    let plan = Plan {
        reference: 0,
        window_start: SimTime::from_micros(MIX_START_US),
        window_end,
        horizon,
    };
    let (mut obs, setup_s) = play(
        rec,
        &mut runner,
        setup,
        &submissions,
        &plan,
        (ctx.mode, registry.as_ref()),
        max_view_changes,
        |r, t| r.run_until(t),
    );
    let events = obs.events;
    let (verdict, _) = rec.time("verify_outputs", "harness", |_| {
        obs.evidence.supply = Some(supply_audit(
            &runner,
            &alloc,
            &[token, notary],
            obs.evidence.coinbase_total,
        ));
        (verify::pbft_contracts(&obs.evidence), 1)
    });
    let mut counts = base_counts(&obs);
    pipeline_counts(&mut counts, &pipeline);
    let replay = ctx.keep_replay.then(|| Replay {
        blocks: obs.blocks.clone(),
        submissions,
        chain,
        pool_cap: POOL_CAP,
        machine: MachineKind::Account { alloc },
        net,
        net_seed: ctx.net_seed(),
        events,
        replicas: NODES,
    });
    finish(obs, setup_s, verdict, counts, replay)
}

// ---------------------------------------------------------------------------
// gossip_overload
// ---------------------------------------------------------------------------

/// The `gossip_signed` overlay over `NullMachine`, unsigned transfers, fed
/// ten times its ceiling for 100 sim-s with every pool capped at five
/// blocks' worth; horizon 130 sim-s. Shedding is the design: the operation
/// demanded of the system is to keep sealing full blocks, so one operation
/// is one transaction slot of a canonical block sealed inside the window
/// and an empty slot is a failed one.
fn gossip_overload(rec: &mut Recorder, ctx: &RepCtx) -> RepResult {
    const NODES: usize = 32;
    // Rate, block limit and pool cap scale together: still ten times the
    // ceiling, pools still five blocks deep, the same ~20 blocks.
    let scale = ctx.scale * 0.125;
    let per_block = scaled(1_000, scale);
    let pool_cap = scaled(5_000, scale);
    let rate = 2_000.0 * scale;
    let count = scaled(200_000, scale);
    let (window_end, horizon) = (secs(100), secs(130));

    let setup = rec.open("setup", "harness");
    let (submissions, _) = rec.time("setup.sign", "crypto", |_| {
        let mut rng = SplitMix64::stream(ctx.seed, S_TXS);
        let at = poisson_arrivals_us(&mut SplitMix64::stream(ctx.seed, S_ARRIVALS), count, rate);
        let subs: Vec<Submission> = (0..count)
            .map(|i| {
                let from = Address::from_index(rng.below(1_000));
                let to = Address::from_index(rng.below(1_000));
                // The sequence number as nonce keeps every transaction unique.
                let tx = AccountTx::transfer(from, to, 1 + rng.below(1_000), i as u64);
                Submission {
                    at_us: at[i],
                    contact: rng.below(NODES as u64) as usize,
                    tx: unsigned(tx),
                }
            })
            .collect();
        (subs, 0)
    });
    // The window is the last arrival: the count is fixed, not the span.
    let window_end = window_end.max(SimTime::from_micros(
        submissions.last().map_or(0, |s| s.at_us),
    ));
    let chain = pow_chain(NODES, per_block + 1, false);
    let net = gossip_net(NODES);
    let ((mut runner, registry), _) = rec.time("setup.build", "ledger", |_| {
        let genesis = genesis_block(&chain);
        let mut runner = Runner::new(net.clone(), ctx.net_seed(), |id: NodeId| {
            let mut node = PowNode::new(
                id,
                builders::node_address(id.0),
                genesis.clone(),
                chain.clone(),
                NullMachine,
                1_000.0,
            );
            node.core.mempool = Mempool::new(pool_cap);
            node
        });
        let registry = install_collection(&mut runner, ctx.mode);
        ((runner, registry), NODES as u64)
    });
    let plan = Plan {
        reference: 0,
        window_start: WINDOW_START,
        window_end,
        horizon,
    };
    let (obs, setup_s) = play(
        rec,
        &mut runner,
        setup,
        &submissions,
        &plan,
        (ctx.mode, registry.as_ref()),
        |_| 0,
        |r, t| r.run_until(t),
    );
    let events = obs.events;
    let (verdict, _) = rec.time("verify_outputs", "harness", |_| {
        (verify::gossip_overload(&obs.evidence), 1)
    });
    // Slots offered and filled by canonical blocks sealed inside the window.
    let (mut slots, mut filled) = (0u64, 0u64);
    for b in &obs.blocks {
        if b.header.timestamp_us <= window_end.as_micros() {
            slots += per_block as u64;
            filled += b.txs.len() as u64 - 1;
        }
    }
    let counts = base_counts(&obs);
    let replay = ctx.keep_replay.then(|| Replay {
        blocks: obs.blocks.clone(),
        submissions,
        chain,
        pool_cap,
        machine: MachineKind::Null,
        net,
        net_seed: ctx.net_seed(),
        events,
        replicas: NODES,
    });
    let mut rep = finish(obs, setup_s, verdict, counts, replay);
    rep.attempted = slots;
    rep.failed = slots - filled;
    rep
}

// ---------------------------------------------------------------------------
// pbft_failover
// ---------------------------------------------------------------------------

/// 7 PBFT replicas over `NullMachine` (default `PbftParams`), unsigned
/// 256-byte data anchors at 2 000 tx/s for 20 sim-s; the view-0 primary
/// crashes at 6 sim-s and restarts at 12 sim-s; horizon 35 sim-s. Clients
/// know which replica is down and hand their request to a live one, so no
/// submission is lost by construction and every one must commit.
fn pbft_failover(rec: &mut Recorder, ctx: &RepCtx) -> RepResult {
    const PAYLOAD: usize = 256;
    const CRASH_S: u64 = 6;
    const RESTART_S: u64 = 12;
    let params = builders::PbftParams::default();
    let nodes = params.nodes;
    // Only the rate scales: the fault schedule fixes the window. Even so
    // this is the smallest share — at 100 tx/s nearly every transaction
    // gets its own block, and import cost grows with the square of the
    // block count (see the README's findings).
    let scale = ctx.scale * 0.05;
    let rate = 2_000.0 * scale;
    let count = scaled(40_000, scale);
    let (window_end, horizon) = (secs(20), secs(35));
    let primary = NodeId(0);

    let setup = rec.open("setup", "harness");
    let (submissions, _) = rec.time("setup.sign", "crypto", |_| {
        let mut rng = SplitMix64::stream(ctx.seed, S_TXS);
        let at = poisson_arrivals_us(&mut SplitMix64::stream(ctx.seed, S_ARRIVALS), count, rate);
        let subs: Vec<Submission> = (0..count)
            .map(|i| {
                let from = Address::from_index(rng.below(1_000));
                let mut tx = AccountTx::transfer(from, Address::ZERO, 0, i as u64);
                let mut data = vec![0u8; PAYLOAD];
                for chunk in data.chunks_mut(8) {
                    chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
                }
                tx.payload = TxPayload::Data(data);
                let down = (CRASH_S * 1_000_000..RESTART_S * 1_000_000).contains(&at[i]);
                let contact = if down {
                    1 + rng.below(nodes as u64 - 1) as usize
                } else {
                    rng.below(nodes as u64) as usize
                };
                Submission {
                    at_us: at[i],
                    contact,
                    tx: unsigned(tx),
                }
            })
            .collect();
        (subs, 0)
    });
    let window_end = window_end.max(SimTime::from_micros(
        submissions.last().map_or(0, |s| s.at_us),
    ));
    let ((mut runner, registry, mut faults), _) = rec.time("setup.build", "ledger", |_| {
        let mut runner = builders::build_pbft(&params, ctx.net_seed());
        let registry = install_collection(&mut runner, ctx.mode);
        let schedule = FaultSchedule::new()
            .crash_at(secs(CRASH_S), primary)
            .restart_at(secs(RESTART_S), primary);
        let faults = install_faults(&runner, schedule);
        ((runner, registry, faults), nodes as u64)
    });
    let plan = Plan {
        reference: 1,
        window_start: WINDOW_START,
        window_end,
        horizon,
    };
    let (obs, setup_s) = play(
        rec,
        &mut runner,
        setup,
        &submissions,
        &plan,
        (ctx.mode, registry.as_ref()),
        max_view_changes,
        |r, t| faults.run_until(r, t),
    );
    let events = obs.events;
    let (verdict, _) = rec.time("verify_outputs", "harness", |_| {
        (verify::pbft_failover(&obs.evidence), 1)
    });
    let counts = base_counts(&obs);
    let mut net = params.net.clone();
    net.nodes = nodes;
    let replay = ctx.keep_replay.then(|| Replay {
        blocks: obs.blocks.clone(),
        submissions,
        chain: params.chain.clone(),
        pool_cap: POOL_CAP,
        machine: MachineKind::Null,
        net,
        net_seed: ctx.net_seed(),
        events,
        replicas: nodes,
    });
    finish(obs, setup_s, verdict, counts, replay)
}

// ---------------------------------------------------------------------------
// beacon_shards
// ---------------------------------------------------------------------------

/// One beacon chain, four shard sequencers over pruned stores and a light
/// client: uniformly random transfers among funded accounts (about three
/// quarters cross-shard) submitted every 200 sim-µs, run to quiescence.
///
/// `BeaconNet` hides its runner, so there is no `NetStats` and no per-slice
/// drive. What can be observed from outside stands in: commit latency is
/// taken over intra-shard transfers, whose block is recovered from the
/// retained headers and per-block transaction counts (a sequencer seals
/// submissions in arrival order); the bytes are the client submissions
/// plus what the light client downloaded.
fn beacon_shards(rec: &mut Recorder, ctx: &RepCtx) -> RepResult {
    const SHARDS: usize = 4;
    const GAP_US: u64 = 200;
    const FUNDS: u64 = 1_000_000_000;
    // What a client puts on the wire per submission, by the harness's own
    // count: the three fields of a `Transfer`. (`ScaleMsg::wire_size` is
    // private, so what the simulated link charged cannot be read back.)
    const SUBMIT_WIRE_BYTES: u64 =
        (2 * std::mem::size_of::<Address>() + std::mem::size_of::<u64>()) as u64;
    let scale = ctx.scale * 0.3;
    let accounts = scaled(4_096, scale).max(16);
    // The rate stays at one transfer per 200 sim-µs (two blocks per shard
    // per seal tick); scaling shortens the schedule instead.
    let count = scaled(400_000, scale);
    let window_us = count as u64 * GAP_US;
    let params = BeaconParams {
        shards: SHARDS,
        horizon: SimTime::from_micros(window_us + 2_000_000),
        ..BeaconParams::default()
    };

    let setup = rec.open("setup", "harness");
    let addrs: Vec<Address> = (0..accounts as u64).map(Address::from_index).collect();
    let alloc: Vec<(Address, u64)> = addrs.iter().map(|a| (*a, FUNDS)).collect();
    let home: Vec<usize> = addrs
        .iter()
        .map(|a| ShardedLedger::home_shard(a, SHARDS))
        .collect();
    let (transfers, _) = rec.time("setup.sign", "crypto", |_| {
        let mut rng = SplitMix64::stream(ctx.seed, S_TXS);
        let v: Vec<(usize, usize, u64)> = (0..count)
            .map(|_| {
                let from = rng.below(accounts as u64) as usize;
                let to = rng.below(accounts as u64) as usize;
                (from, to, 1 + rng.below(100))
            })
            .collect();
        (v, 0)
    });
    let (mut net, _) = rec.time("setup.build", "scale", |_| {
        let mut net = BeaconNet::new(&params, ctx.net_seed(), &alloc);
        net.set_engine_workers(ctx.mode.workers);
        (net, SHARDS as u64 + 2)
    });
    // Per home shard, the submit instants in arrival order and whether the
    // transfer stays inside the shard.
    let mut homed: Vec<Vec<(u64, bool)>> = vec![Vec::new(); SHARDS];
    let mut cross_value = 0u128;
    let mut submit_bytes = 0u64;
    rec.time("setup.inject", "scale", |_| {
        for (i, &(from, to, value)) in transfers.iter().enumerate() {
            let at_us = (i as u64 + 1) * GAP_US;
            let t = Transfer {
                from: addrs[from],
                to: addrs[to],
                value,
            };
            let intra = home[from] == home[to];
            homed[home[from]].push((at_us, intra));
            if !intra {
                cross_value += u128::from(value);
            }
            submit_bytes += SUBMIT_WIRE_BYTES;
            net.submit_at(SimTime::from_micros(at_us), t);
        }
        ((), count as u64)
    });
    let setup_s = rec.close(setup, count as u64);

    let (events, run_wall_s) = rec.time("run.drive", "harness", |_| {
        let n = net.run();
        (n, n)
    });

    let stats = net.stats();
    let mut latencies_s = Vec::new();
    let mut shard_txs = Vec::new();
    let mut internal_errors = 0u64;
    let mut open_locks = 0u64;
    let mut shard0_timestamps = Vec::new();
    for (s, submissions) in homed.iter().enumerate() {
        let chain = net.shard(s).chain();
        internal_errors += chain.stats().internal_errors;
        open_locks += net.shard(s).open_locks() as u64;
        let mut next = 0usize;
        for hash in chain.canonical().iter().skip(1) {
            let ts = chain
                .tree()
                .get(hash)
                .expect("canonical header is retained")
                .header()
                .timestamp_us;
            if s == 0 {
                shard0_timestamps.push(ts);
            }
            let n = chain.canon_stats().block_txs(hash).unwrap_or(0) as usize;
            for &(at_us, intra) in submissions.iter().skip(next).take(n) {
                if intra {
                    latencies_s.push(ts.saturating_sub(at_us) as f64 / 1e6);
                }
            }
            next += n;
        }
        shard_txs.push((submissions.len() as u64, chain.canon_stats().committed_txs));
    }
    let max_gap_us = max_commit_gap_us(
        shard0_timestamps,
        (0, window_us),
        homed[0].last().map_or(0, |&(at_us, _)| at_us),
        params.horizon.as_micros(),
    );
    let light = net.light();
    let light_bytes = light.client().map_or(0, |c| c.bytes_downloaded);
    let evidence = BeaconEvidence {
        genesis_total: u128::from(FUNDS) * accounts as u128,
        user_total: net.user_total(&addrs),
        escrow_total: net.escrow_total(),
        cross_value,
        submitted: count as u64,
        intra: stats.intra,
        minted: stats.minted,
        refunded: stats.refunded,
        rejected: stats.rejected,
        proofs_requested: light.proofs_requested,
        proofs_verified: light.proofs_verified,
        invalid_receipts: net.beacon().stats.invalid_receipts,
        open_locks,
        shard_txs,
        internal_errors,
    };
    let (verdict, _) = rec.time("verify_outputs", "harness", |_| {
        (verify::beacon_shards(&evidence), 1)
    });

    let committed = stats.intra + stats.minted;
    let mut counts = BTreeMap::new();
    counts.insert("scale.events_per_transfer", events as f64 / count as f64);
    counts.insert(
        "scale.cross_shard_share",
        1.0 - stats.intra as f64 / count as f64,
    );
    counts.insert("scale.shard_blocks", stats.shard_blocks as f64);
    counts.insert("scale.beacon_blocks", stats.beacon_blocks as f64);
    counts.insert("scale.refunded", stats.refunded as f64);
    counts.insert("scale.light_proofs_verified", light.proofs_verified as f64);
    counts.insert("net.events_per_tx", events as f64 / committed.max(1) as f64);
    counts.insert(
        "consensus.blocks",
        (stats.shard_blocks + stats.beacon_blocks) as f64,
    );
    counts.insert(
        "consensus.txs_per_block",
        evidence.shard_txs.iter().map(|(_, c)| *c).sum::<u64>() as f64
            / stats.shard_blocks.max(1) as f64,
    );
    RepResult {
        setup_s,
        run_wall_s,
        attempted: count as u64,
        failed: count as u64 - committed.min(count as u64),
        committed,
        latencies_s,
        max_gap_s: max_gap_us as f64 / 1e6,
        wire_bytes: submit_bytes + light_bytes,
        digest: net.digest(),
        verdict,
        counts,
        replay: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// One reduced-size repetition of every workload: outputs verify,
    /// something commits, nothing fails, and the five together finish in
    /// under 30 s (0.3 of a repetition is about 0.05 of the issue's sizes).
    #[test]
    fn smoke_all_five_workloads_at_reduced_scale() {
        let started = Instant::now();
        for name in NAMES {
            let ctx = RepCtx {
                seed: 7,
                rep: 0,
                scale: 0.3,
                mode: Mode {
                    workers: ENGINE_WORKERS,
                    traced: false,
                },
                keep_replay: false,
            };
            let rep = run(name, &mut Recorder::default(), &ctx);
            assert_eq!(rep.verdict, Ok(()), "{name}");
            assert!(
                rep.committed > 0 && rep.attempted > 0,
                "{name}: nothing committed"
            );
            assert_eq!(rep.failed, 0, "{name}: no operation may fail");
            assert!(
                rep.latencies_s.len() >= 100,
                "{name}: {} latency samples",
                rep.latencies_s.len()
            );
            assert!(
                rep.max_gap_s > 0.0 && rep.wire_bytes > 0 && rep.setup_s > 0.0,
                "{name}"
            );
        }
        let took = started.elapsed().as_secs_f64();
        assert!(took < 30.0, "smoke took {took:.1} s");
    }

    /// The same repetition seed gives the same run, digest and all; another
    /// seed gives another.
    #[test]
    fn a_repetition_is_a_function_of_its_seed() {
        let ctx = |seed| RepCtx {
            seed,
            rep: 0,
            scale: 0.1,
            mode: Mode {
                workers: 1,
                traced: false,
            },
            keep_replay: false,
        };
        let a = run("pbft_failover", &mut Recorder::default(), &ctx(3));
        let b = run("pbft_failover", &mut Recorder::default(), &ctx(3));
        let c = run("pbft_failover", &mut Recorder::default(), &ctx(4));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.latencies_s, b.latencies_s);
        assert_ne!(a.digest, c.digest);
    }
}
