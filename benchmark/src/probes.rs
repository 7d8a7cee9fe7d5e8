//! Replay probes: after a run, push exactly the blocks it committed and the
//! transactions it was fed through one layer's public function at a time,
//! each call under a span. A layer's busy time in the run is then estimated
//! as its per-operation cost times how often the run performed the
//! operation, and its `wall_share` is that over the wall time of the untraced
//! one-worker run the blocks came from.
//!
//! The estimate is a model, stated in full in the README. In short, with
//! `R` replicas: every replica imports every block (`chain`, of which the
//! state application inside is `state`, the VM inside that is `contracts`,
//! and the Merkle root and signature-cache lookups are `crypto`); every
//! replica offers every submission to its pool (`consensus`); one replica
//! assembles each block; and every event crosses the fabric (`net`) and the
//! event queue (`sim`).

use crate::ledger::Submission;
use crate::spans::Recorder;
use crate::workloads::{MachineKind, Replay};
use dcs_chain::{genesis_block, Chain, NullMachine, PrunedStore, StateMachine};
use dcs_consensus::{wire_size, Mempool, NodeCore, WireMsg};
use dcs_contracts::exec::{execute_tx, BlockCtx};
use dcs_crypto::{merkle_root, Hash256, PublicKey, Signature, VerifyPipeline};
use dcs_net::{Ctx, NodeId, Protocol, Runner};
use dcs_primitives::{Block, Seal, Transaction, TxPayload};
use dcs_sim::{SimTime, Simulation};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

type Values = BTreeMap<&'static str, f64>;

fn us_per(secs: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        secs * 1e6 / count as f64
    }
}

fn body_txs(blocks: &[Arc<Block>]) -> u64 {
    blocks.iter().map(|b| b.txs.len() as u64).sum()
}

/// Every witness the committed blocks carry, ready for `verify_batch`.
fn witnesses(blocks: &[Arc<Block>]) -> Vec<(PublicKey, Hash256, Signature)> {
    let mut items = Vec::new();
    for tx in blocks.iter().flat_map(|b| b.txs.iter()) {
        if let Transaction::Account(a) = tx {
            if let Some(auth) = &a.auth {
                items.push((auth.pubkey, tx.signing_hash(), auth.signature.clone()));
            }
        }
    }
    items
}

/// Cold then warm `verify_batch` over the committed witnesses. Returns the
/// warmed pipeline (the later probes run with the cache the real replicas
/// had), the Merkle-root probe's seconds and the number of witnesses.
fn crypto_probes(
    rec: &mut Recorder,
    replay: &Replay,
    v: &mut Values,
) -> (Arc<VerifyPipeline>, f64, u64) {
    let pipeline = Arc::new(VerifyPipeline::new(
        crate::workloads::VERIFY_THREADS,
        1 << 20,
    ));
    let items = witnesses(&replay.blocks);
    let n = items.len() as u64;
    let ((), cold_s) = rec.time("probe.crypto.verify_cold", "crypto", |_| {
        black_box(pipeline.verify_batch(&items));
        ((), n)
    });
    let ((), warm_s) = rec.time("probe.crypto.cache_hit", "crypto", |_| {
        black_box(pipeline.verify_batch(&items));
        ((), n)
    });
    v.insert("crypto.verify_us_per_sig", us_per(cold_s, n));
    v.insert("crypto.cache_hit_us_per_lookup", us_per(warm_s, n));

    let txs = body_txs(&replay.blocks);
    let ((), merkle_s) = rec.time("probe.crypto.merkle_root", "crypto", |_| {
        for b in &replay.blocks {
            black_box(merkle_root(b.tx_ids()));
        }
        ((), txs)
    });
    let ((), id_s) = rec.time("probe.primitives.tx_id", "primitives", |_| {
        for b in &replay.blocks {
            black_box(Transaction::batch_ids(&b.txs));
        }
        ((), txs)
    });
    v.insert("crypto.merkle_root_us_per_tx", us_per(merkle_s, txs));
    v.insert("primitives.tx_id_us_per_tx", us_per(id_s, txs));
    (pipeline, merkle_s, n)
}

fn pool(replay: &Replay, capacity: usize, pipeline: &Arc<VerifyPipeline>) -> Mempool {
    match replay.machine {
        MachineKind::Null => Mempool::new(capacity),
        MachineKind::Account { .. } => Mempool::with_admission(capacity, Arc::clone(pipeline)),
    }
}

/// Mempool and block-assembly probes over the submitted stream. Returns
/// `(insert_us, reject_us, select_us, remove_us, build_us)` per transaction.
fn consensus_probes(
    rec: &mut Recorder,
    replay: &Replay,
    pipeline: &Arc<VerifyPipeline>,
    v: &mut Values,
) -> [f64; 5] {
    let subs: &[Submission] = &replay.submissions;
    let n = subs.len() as u64;
    let mut warm = pool(replay, subs.len() + 1, pipeline);
    let ((), insert_s) = rec.time("probe.consensus.mempool_insert", "consensus", |_| {
        for s in subs {
            black_box(warm.insert(s.tx.clone()));
        }
        ((), n)
    });

    // A pool at capacity refuses everything else it is offered.
    let cap = (subs.len() / 2).clamp(1, 1_000);
    let mut full = pool(replay, cap, pipeline);
    for s in &subs[..cap] {
        full.insert(s.tx.clone());
    }
    let offered = (subs.len() - cap) as u64;
    let ((), reject_s) = rec.time("probe.consensus.mempool_reject_full", "consensus", |_| {
        for s in &subs[cap..] {
            black_box(full.insert(s.tx.clone()));
        }
        ((), offered)
    });

    // Block assembly by a solo peer core over the warm pool.
    let genesis = genesis_block(&replay.chain);
    let mut core = NodeCore::new(
        NodeId(0),
        dcs_ledger::builders::node_address(0),
        genesis,
        replay.chain.clone(),
        NullMachine,
    );
    core.mempool = warm;
    let rounds = replay.blocks.len().clamp(1, 64);
    let mut built = 0u64;
    let ((), build_s) = rec.time("probe.consensus.build_block", "consensus", |_| {
        for _ in 0..rounds {
            let block = core.build_block(Seal::None, SimTime::ZERO);
            built += block.txs.len() as u64 - 1;
            black_box(block);
        }
        ((), built)
    });
    drop(core);

    // Selection and removal at the occupancy the run's pools had: before
    // each committed block the pool is fed what had arrived by its
    // timestamp, at the capacity the workload configured.
    let committed = body_txs(&replay.blocks);
    let mut live = pool(replay, replay.pool_cap, pipeline);
    let mut arrivals = subs.iter().peekable();
    let mut included = BTreeSet::new();
    let (mut select_s, mut remove_s) = (0.0, 0.0);
    rec.time("probe.consensus.mempool_select_remove", "consensus", |_| {
        for b in &replay.blocks {
            while let Some(s) = arrivals.next_if(|s| s.at_us <= b.header.timestamp_us) {
                live.insert(s.tx.clone());
            }
            let t0 = Instant::now();
            black_box(live.select(b.txs.len(), &included));
            select_s += t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            live.remove_all(b.txs.iter().zip(b.tx_ids()));
            remove_s += t1.elapsed().as_secs_f64();
            included.extend(b.tx_ids().iter().copied());
        }
        ((), committed)
    });

    let out = [
        us_per(insert_s, n),
        us_per(reject_s, offered),
        us_per(select_s, committed),
        us_per(remove_s, committed),
        us_per(build_s, built),
    ];
    v.insert("consensus.mempool_insert_us_per_tx", out[0]);
    v.insert("consensus.mempool_reject_full_us_per_tx", out[1]);
    v.insert("consensus.mempool_select_us_per_tx", out[2]);
    v.insert("consensus.mempool_remove_us_per_tx", out[3]);
    v.insert("consensus.build_block_us_per_tx", out[4]);
    out
}

/// Imports the committed blocks in order into a fresh archival chain and a
/// fresh pruned one, then pages back through the archival chain the way a
/// catch-up sync does. Returns the archival import's total seconds.
fn chain_probes<M: StateMachine>(
    rec: &mut Recorder,
    replay: &Replay,
    machine: impl Fn() -> M,
    v: &mut Values,
) -> f64 {
    let blocks = &replay.blocks;
    let txs = body_txs(blocks);
    let genesis = genesis_block(&replay.chain);
    let mut chain = Chain::new(genesis.clone(), replay.chain.clone(), machine());
    let mut per_block = Vec::with_capacity(blocks.len());
    let ((), import_s) = rec.time("probe.chain.import", "chain", |_| {
        for b in blocks {
            let t0 = Instant::now();
            chain
                .import(Arc::clone(b))
                .expect("a committed block re-imports");
            per_block.push(t0.elapsed().as_secs_f64());
        }
        ((), blocks.len() as u64)
    });
    assert_eq!(
        chain.height(),
        blocks.len() as u64,
        "replay reached the run's height"
    );
    let decile = (blocks.len() / 10).max(1);
    let mean_us = |s: &[f64]| us_per(s.iter().sum(), s.len() as u64);
    v.insert(
        "chain.import_us_per_block",
        us_per(import_s, blocks.len() as u64),
    );
    v.insert("chain.import_us_per_tx", us_per(import_s, txs));
    v.insert(
        "chain.import_first_decile_us_per_block",
        mean_us(&per_block[..decile.min(per_block.len())]),
    );
    v.insert(
        "chain.import_last_decile_us_per_block",
        mean_us(&per_block[per_block.len().saturating_sub(decile)..]),
    );

    let mut pruned = Chain::with_store(
        genesis,
        replay.chain.clone(),
        machine(),
        PrunedStore::new(16),
    );
    let ((), pruned_s) = rec.time("probe.chain.import_pruned", "chain", |_| {
        for b in blocks {
            pruned
                .import(Arc::clone(b))
                .expect("a committed block re-imports");
        }
        ((), txs)
    });
    v.insert("chain.import_pruned_us_per_tx", us_per(pruned_s, txs));

    let mut served = 0u64;
    let ((), serve_s) = rec.time("probe.chain.serve_range", "chain", |_| {
        let mut locator = vec![chain.canonical()[0]];
        loop {
            black_box(chain.locator());
            let (page, _tip) = chain.blocks_after(&locator, 32);
            let Some(last) = page.last() else { break };
            served += page.len() as u64;
            locator = vec![last.hash()];
        }
        ((), served)
    });
    v.insert("chain.serve_range_us_per_block", us_per(serve_s, served));
    import_s
}

/// `apply_block`, `state_root` and `revert_block` called directly on the
/// committed blocks. Returns the total apply seconds.
fn state_probes<M: StateMachine>(
    rec: &mut Recorder,
    replay: &Replay,
    mut machine: M,
    v: &mut Values,
) -> f64 {
    let txs = body_txs(&replay.blocks);
    let mut undos = Vec::with_capacity(replay.blocks.len());
    let (mut apply_s, mut root_s) = (0.0, 0.0);
    rec.time("probe.state.apply", "state", |_| {
        for b in &replay.blocks {
            let t0 = Instant::now();
            let (receipts, undo) = machine
                .apply_block(b)
                .expect("a committed block re-applies");
            apply_s += t0.elapsed().as_secs_f64();
            black_box(receipts);
            undos.push(undo);
            let t1 = Instant::now();
            black_box(machine.state_root());
            root_s += t1.elapsed().as_secs_f64();
        }
        ((), txs)
    });
    let ((), revert_s) = rec.time("probe.state.revert", "state", |_| {
        while let Some(undo) = undos.pop() {
            machine.revert_block(undo);
        }
        ((), txs)
    });
    v.insert("state.apply_us_per_tx", us_per(apply_s, txs));
    v.insert(
        "state.root_us_per_block",
        us_per(root_s, replay.blocks.len() as u64),
    );
    v.insert("state.revert_us_per_tx", us_per(revert_s, txs));
    apply_s
}

/// Re-executes the committed transactions one by one and splits the time
/// between contract calls and everything else. A call pays what a plain
/// transfer pays (nonce, debit, fee) plus the VM; the VM's share is the
/// calls' time beyond that, and `vm_ns_per_gas` spreads it over the gas the
/// calls' receipts report. Returns the VM seconds.
fn contract_probe(
    rec: &mut Recorder,
    replay: &Replay,
    pipeline: &Arc<VerifyPipeline>,
    v: &mut Values,
) -> f64 {
    let mut machine = replay.machine.account(pipeline);
    let schedule = machine.schedule.clone();
    let db = &mut machine.db;
    let (mut call_s, mut calls, mut gas) = (0.0, 0u64, 0u64);
    let (mut other_s, mut others) = (0.0, 0u64);
    rec.time("probe.contracts.execute", "contracts", |_| {
        for b in &replay.blocks {
            let ctx = BlockCtx {
                proposer: b.header.proposer,
                timestamp_us: b.header.timestamp_us,
                height: b.header.height,
            };
            db.begin_batch();
            for (tx, id) in b.txs.iter().zip(b.tx_ids()) {
                match tx {
                    Transaction::Coinbase { to, value, .. } => db.credit(to, *value),
                    Transaction::Account(a) => {
                        let t0 = Instant::now();
                        let receipt = execute_tx(db, a, *id, &ctx, &schedule);
                        let dt = t0.elapsed().as_secs_f64();
                        if matches!(a.payload, TxPayload::Call(_)) {
                            call_s += dt;
                            calls += 1;
                            gas += receipt.gas_used;
                        } else {
                            other_s += dt;
                            others += 1;
                        }
                    }
                    Transaction::Utxo(_) => {}
                }
            }
            db.commit_batch();
            db.clear_journal();
        }
        ((), calls)
    });
    let base = if others == 0 {
        0.0
    } else {
        other_s / others as f64
    };
    let vm_s = (call_s - base * calls as f64).max(0.0);
    v.insert(
        "contracts.vm_ns_per_gas",
        if gas == 0 {
            0.0
        } else {
            vm_s * 1e9 / gas as f64
        },
    );
    vm_s
}

/// A stand-in protocol that floods payloads with first-sight dedup and does
/// nothing else: what the fabric and the engine cost with no ledger on top.
struct Flood {
    seen: Vec<bool>,
}

impl Protocol for Flood {
    type Msg = (u32, u32);

    fn on_message(&mut self, from: NodeId, msg: (u32, u32), ctx: &mut Ctx<'_, (u32, u32)>) {
        let seen = &mut self.seen[msg.0 as usize];
        if !*seen {
            *seen = true;
            ctx.broadcast_except(from, msg, msg.1 as usize);
        }
    }
}

/// Floods payloads of the run's sizes over the run's `NetConfig` and seed,
/// and pushes the run's event count through a bare `dcs_sim` queue.
/// Returns `(flood_us, queue_us)` per event.
fn net_probes(rec: &mut Recorder, replay: &Replay, v: &mut Values) -> (f64, f64) {
    let subs = &replay.submissions;
    let mut runner = Runner::new(replay.net.clone(), replay.net_seed, |_| Flood {
        seen: vec![false; subs.len()],
    });
    runner.set_shards(1);
    for (i, s) in subs.iter().enumerate() {
        let size = wire_size(&WireMsg::Tx(s.tx.clone()));
        runner.net_mut().inject(
            SimTime::from_micros(s.at_us),
            NodeId(s.contact),
            (i as u32, size as u32),
            size,
        );
    }
    let (events, flood_s) = rec.time("probe.net.flood", "net", |_| {
        let n = runner.run_to_quiescence();
        (n, n)
    });

    let n = replay.events.clamp(1, 4_000_000);
    let ((), queue_s) = rec.time("probe.sim.queue", "sim", |_| {
        let mut sim: Simulation<u64> = Simulation::new();
        let mut x = replay.net_seed | 1;
        // Keep about a thousand events pending, as a running fabric does.
        for i in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sim.schedule_at(
                SimTime::from_micros(sim.now().as_micros() + 1 + x % 200_000),
                i,
            );
            if i >= 1_000 {
                black_box(sim.next());
            }
        }
        while let Some(e) = sim.next() {
            black_box(e);
        }
        ((), n)
    });
    let out = (us_per(flood_s, events), us_per(queue_s, n));
    v.insert("net.flood_us_per_event", out.0);
    v.insert("sim.queue_us_per_event", out.1);
    out
}

/// Runs every probe and writes the per-layer costs and wall shares.
/// `run_wall_s` is the untraced one-worker drive the blocks came from: the
/// probes replay untraced code, so that is the wall time they explain.
pub fn run(rec: &mut Recorder, replay: &Replay, run_wall_s: f64, v: &mut Values) {
    let replicas = replay.replicas as f64;
    let (pipeline, merkle_s, signatures) = crypto_probes(rec, replay, v);
    let signatures = signatures as f64;
    let [insert_us, reject_us, select_us, remove_us, build_us] =
        consensus_probes(rec, replay, &pipeline, v);
    let (import_s, apply_s, vm_s) = match &replay.machine {
        MachineKind::Null => (
            chain_probes(rec, replay, || NullMachine, v),
            state_probes(rec, replay, NullMachine, v),
            0.0,
        ),
        kind @ MachineKind::Account { .. } => (
            chain_probes(rec, replay, || kind.account(&pipeline), v),
            state_probes(rec, replay, kind.account(&pipeline), v),
            contract_probe(rec, replay, &pipeline, v),
        ),
    };
    let (flood_us, queue_us) = net_probes(rec, replay, v);

    // Busy seconds per layer over the whole run, all replicas.
    let misses = v["crypto.verify_misses"];
    let ratio = v["crypto.cache_hit_ratio"];
    let hits = if ratio < 1.0 {
        misses * ratio / (1.0 - ratio)
    } else {
        0.0
    };
    let hit_us = v["crypto.cache_hit_us_per_lookup"];
    let lookups_in_apply_s = signatures * hit_us / 1e6;
    let crypto_s =
        (misses * v["crypto.verify_us_per_sig"] + hits * hit_us) / 1e6 + replicas * merkle_s;

    let committed = body_txs(&replay.blocks) as f64;
    let offered = replay.submissions.len() as f64 * replicas;
    // The registry (traced run) says how the offers split; without it every
    // offer counts as an admission.
    let (admitted, rejected) = match (
        v["consensus.mempool_admitted"],
        v["consensus.mempool_rejected_full"],
    ) {
        (a, r) if a + r > 0.0 => (a, r),
        _ => (offered, 0.0),
    };
    let insert_self_us = (insert_us - if signatures > 0.0 { hit_us } else { 0.0 }).max(0.0);
    let consensus_s = (admitted * insert_self_us
        + rejected * reject_us
        + committed * (select_us + build_us)
        + replicas * committed * remove_us)
        / 1e6;

    let state_s = replicas * (apply_s - lookups_in_apply_s - vm_s).max(0.0);
    let chain_s = replicas * (import_s - apply_s - merkle_s).max(0.0);
    let contracts_s = replicas * vm_s;
    let events = replay.events as f64;
    let net_s = events * (flood_us - queue_us).max(0.0) / 1e6;
    let sim_s = events * queue_us / 1e6;

    for (layer, busy_s) in [
        ("crypto.wall_share", crypto_s),
        ("consensus.wall_share", consensus_s),
        ("chain.wall_share", chain_s),
        ("state.wall_share", state_s),
        ("contracts.wall_share", contracts_s),
        ("net.wall_share", net_s),
        ("sim.wall_share", sim_s),
    ] {
        v.insert(layer, busy_s / run_wall_s);
    }
}
