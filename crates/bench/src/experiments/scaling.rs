//! Scalability experiments: E8 (payment channels), E10 (light clients /
//! bootstrap), E22 (beacon-coordinated shards) and their companions.

use crate::table::Table;
use crate::Scale;
use dcs_chain::{Chain, NullMachine};
use dcs_consensus::approx_tx_size;
use dcs_crypto::{Address, Hash256, KeyPair, MerkleTree};
use dcs_ledger::{run_channel_workload, ChannelWorkloadParams};
use dcs_primitives::{
    AccountTx, Block, BlockHeader, ChainConfig, Seal, SealedTx, Transaction, TxAuth,
};
use dcs_scale::light::LightClient;
use dcs_scale::sharding::{ShardedLedger, Transfer};
use dcs_sim::Rng;

/// E8: payment channels offload the chain (§5.4, \[30\]), counted on a
/// peer's committed chain.
pub fn e8_payment_channels(scale: Scale) {
    println!("\nE8 — off-chain payment channels vs on-chain transfers");
    println!("Paper claim: \"offload transactions outside the blockchain, as in the");
    println!("Lightning network\" (§5.2/§5.4). A hub and 6 spokes over a 4-peer ordering");
    println!("network: real WOTS-signed channel updates, every payment routed; opens,");
    println!("closes and disputes (odd channels publish a stale state, a watchtower");
    println!("challenges it) are read off peer 0's committed chain.\n");
    let params = ChannelWorkloadParams {
        parties: 7,
        payments: scale.pick(300, 2_000),
        ..ChannelWorkloadParams::default()
    };
    let r = run_channel_workload(&params, 8);
    let routed = r.routed_payments;

    // What one payment costs as a signed on-chain transfer instead.
    let mut keys = KeyPair::generate([8; 32], 0);
    let mut transfer = AccountTx::transfer(keys.address(), Address::from_index(1), 1, 0);
    let digest = Transaction::Account(transfer.clone()).signing_hash();
    transfer.auth = Some(TxAuth {
        pubkey: keys.public_key(),
        signature: keys.sign(&digest).expect("one leaf, one signature"),
    });
    let transfer_bytes = approx_tx_size(&Transaction::Account(transfer));

    let mut table = Table::new(&[
        "strategy",
        "payments",
        "on-chain txs",
        "payments per on-chain tx",
        "on-chain bytes per payment",
    ]);
    table.row(vec![
        "on-chain transfers".into(),
        format!("{routed}"),
        format!("{routed}"),
        "1.0".into(),
        format!("{transfer_bytes}"),
    ]);
    let per_op = routed as f64 / r.onchain_ops as f64;
    table.row(vec![
        "payment channels".into(),
        format!("{routed}"),
        format!("{}", r.onchain_ops),
        format!("{per_op:.1}"),
        format!("{:.0}", r.onchain_bytes as f64 / routed as f64),
    ]);
    println!("{table}");
    let worst = r.dispute_heights.iter().max().copied().unwrap_or(0);
    println!(
        "({routed} of {} payments routed, mean route {:.2} hops, {} off-chain signed updates;",
        params.payments,
        r.offchain_updates as f64 / routed as f64,
        r.offchain_updates
    );
    println!(
        " {} stale closes, {} challenged; worst stale-close→challenge distance {worst} of a",
        r.cheats_attempted, r.app_stats.challenges
    );
    println!(" {}-height dispute window)", params.dispute_window);
    println!("Expected shape: on-chain cost collapses from N to ~(channels + closes +");
    println!("disputes), so the per-payment chain footprint shrinks with volume.");

    assert!(r.cheats_attempted > 0, "the schedule must cheat");
    assert_eq!(
        (r.cheats_punished, r.app_stats.challenges),
        (r.cheats_attempted, r.cheats_attempted),
        "every cheat is challenged on-chain"
    );
    assert_eq!(
        r.payout_mismatches, 0,
        "every channel settles at its latest split"
    );
    assert_eq!(
        r.onchain_total,
        params.parties as u64 * params.funding,
        "Σ balances = Σ funding"
    );
    assert!(
        worst <= params.dispute_window,
        "every challenge lands inside the window"
    );
    assert!(
        per_op > 10.0,
        "channels offload the chain: {per_op:.1} payments per op"
    );
}

fn build_chain(blocks: u64, txs_per_block: usize) -> Chain<NullMachine> {
    let cfg = ChainConfig::bitcoin_like();
    let genesis = dcs_chain::genesis_block(&cfg);
    let mut chain = Chain::new(genesis, cfg, NullMachine);
    for h in 1..=blocks {
        let txs: Vec<Transaction> = (0..txs_per_block)
            .map(|i| {
                Transaction::Account(AccountTx::transfer(
                    Address::from_index(h * 1_000 + i as u64),
                    Address::from_index(1),
                    h,
                    0,
                ))
            })
            .collect();
        let header = BlockHeader::new(
            chain.tip_hash(),
            h,
            h * 1_000_000,
            Address::from_index(9),
            Seal::Work {
                nonce: h,
                difficulty: 1,
            },
        );
        chain.import(Block::new(header, txs)).expect("valid");
    }
    chain
}

/// E10: light clients verify without downloading the ledger (§2.2), and
/// checkpoints fix the ever-growing bootstrap cost (§5.4).
pub fn e10_light_clients(scale: Scale) {
    println!("\nE10 — download cost: full node vs SPV vs checkpoint bootstrap");
    println!("Paper claim: Merkle proofs give \"fast lookups of transaction inclusion for");
    println!("lightweight clients\" (§2.2); bootstrap needs better than \"a full download of");
    println!("the blockchain\" (§5.4). 20 tx/block.\n");
    let lengths: &[u64] = if scale == Scale::Quick {
        &[100, 500]
    } else {
        &[100, 1_000, 4_000]
    };
    let mut table = Table::new(&[
        "chain length",
        "full download",
        "SPV (headers+proof)",
        "checkpoint (last 100)",
        "SPV saving",
    ]);
    for &blocks in lengths {
        let chain = build_chain(blocks, 20);
        let full_bytes: u64 = chain.canonical()[1..]
            .iter()
            .map(|h| chain.tree().get(h).unwrap().block().encoded_len() as u64)
            .sum();

        // SPV from genesis: all headers + one inclusion proof.
        let header = |height: u64| {
            chain
                .tree()
                .get(&chain.canonical_at(height).unwrap())
                .unwrap()
                .header()
                .clone()
        };
        let headers: Vec<_> = (1..=blocks).map(header).collect();
        let mut spv = LightClient::new(header(0));
        spv.sync(&headers).expect("headers link");
        let target = blocks / 2;
        let block = chain
            .tree()
            .get(&chain.canonical_at(target).unwrap())
            .unwrap()
            .block();
        let leaves: Vec<Hash256> = block.txs.iter().map(Transaction::id).collect();
        let proof = MerkleTree::from_leaves(leaves.clone()).prove(3).unwrap();
        assert!(spv.verify_inclusion(&leaves[3], target, &proof).unwrap());

        // Checkpoint: trust a recent header, sync the last 100 only.
        let cp_base = blocks.saturating_sub(100);
        let mut checkpoint = LightClient::from_checkpoint(header(cp_base));
        let recent: Vec<_> = (cp_base + 1..=blocks).map(header).collect();
        checkpoint.sync(&recent).expect("headers link");

        table.row(vec![
            format!("{blocks}"),
            format!("{:.2} MB", full_bytes as f64 / 1e6),
            format!("{:.3} MB", spv.bytes_downloaded as f64 / 1e6),
            format!("{:.4} MB", checkpoint.bytes_downloaded as f64 / 1e6),
            format!("{:.0}x", full_bytes as f64 / spv.bytes_downloaded as f64),
        ]);
    }
    println!("{table}");
    println!("Expected shape: SPV cost is the ~constant-factor header chain; checkpoint");
    println!("cost is flat in chain length — full download grows linearly and dwarfs both.");
}

/// E19: the sharded parallel event engine at 10,000-node scale (§5.4).
/// Flood-gossip rounds over a 10k-peer overlay, driven serially and at 2
/// and 8 engine workers: identical delivery times at every worker count
/// (asserted), wall-clock events/s per configuration reported.
pub fn e19_sharded_engine(scale: Scale) {
    use dcs_net::{Ctx, LatencyModel, NetConfig, NodeId, Protocol, Runner, Topology};
    use dcs_sim::{SimDuration, SimTime};
    use std::time::Instant;

    println!("\nE19 — sharded event engine: 10k-node gossip at 1/2/8 workers");
    println!("Paper claim: scalability work needs experiments at realistic network sizes");
    println!("(§5.4); the engine partitions peers across a worker pool in conservative");
    println!("time windows while preserving the bit-identical same-seed contract.");
    println!("Speedup tracks the host's cores — on a single-core machine expect ~1.0x.\n");

    /// Flood gossip with periodic re-seeding: every `origins` node starts a
    /// fresh rumor each round on a timer, so the queue stays populated for
    /// several windows.
    struct Flood {
        id: NodeId,
        gossip: dcs_crypto::IdSet,
        rounds: u64,
        origin: bool,
        heard: u64,
        last_heard: SimTime,
    }

    impl Flood {
        fn rumor(&self, round: u64) -> Hash256 {
            let mut buf = [0u8; 16];
            buf[..8].copy_from_slice(&self.id.0.to_le_bytes());
            buf[8..].copy_from_slice(&round.to_le_bytes());
            dcs_crypto::sha256(&buf)
        }
    }

    impl Protocol for Flood {
        type Msg = Hash256;

        fn on_start(&mut self, ctx: &mut Ctx<'_, Hash256>) {
            if self.origin {
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
        }

        fn on_message(&mut self, from: NodeId, msg: Hash256, ctx: &mut Ctx<'_, Hash256>) {
            if self.gossip.insert(msg) {
                self.heard += 1;
                self.last_heard = ctx.now;
                ctx.broadcast_except(from, msg, 32);
            }
        }

        fn on_timer(&mut self, round: u64, ctx: &mut Ctx<'_, Hash256>) {
            let rumor = self.rumor(round);
            self.gossip.insert(rumor);
            self.heard += 1;
            self.last_heard = ctx.now;
            ctx.broadcast(rumor, 32);
            if round + 1 < self.rounds {
                ctx.set_timer(SimDuration::from_secs(2), round + 1);
            }
        }
    }

    let nodes = scale.pick(10_000usize, 10_000);
    let rounds = scale.pick(3u64, 10);
    let origins = 4usize;
    let run = |workers: usize| {
        let mut runner = Runner::new(
            NetConfig {
                nodes,
                topology: Topology::KRegular { k: 6 },
                latency: LatencyModel::wan(),
                drop_probability: 0.0,
                bandwidth_bytes_per_sec: None,
            },
            42,
            |id| Flood {
                id,
                gossip: dcs_crypto::IdSet::default(),
                rounds,
                origin: id.0 % (nodes / origins) == 0,
                heard: 0,
                last_heard: SimTime::ZERO,
            },
        );
        runner.set_shards(workers);
        let t0 = Instant::now();
        let events = runner.run_to_quiescence();
        let wall = t0.elapsed();
        // The observable outcome: every peer's (heard, last_heard) pair.
        let mut fp = Vec::with_capacity(nodes * 16);
        let mut heard_total = 0u64;
        for n in runner.nodes() {
            fp.extend_from_slice(&n.heard.to_le_bytes());
            fp.extend_from_slice(&n.last_heard.as_micros().to_le_bytes());
            heard_total += n.heard;
        }
        assert_eq!(
            heard_total,
            nodes as u64 * origins as u64 * rounds,
            "every rumor must reach every peer"
        );
        (events, dcs_crypto::sha256(&fp), wall)
    };

    let mut table = Table::new(&[
        "workers", "events", "wall", "events/s", "speedup", "outcome",
    ]);
    let mut baseline: Option<(std::time::Duration, Hash256)> = None;
    for workers in [1usize, 2, 8] {
        let (events, digest, wall) = run(workers);
        let (serial_wall, serial_digest) = baseline.get_or_insert((wall, digest));
        assert_eq!(
            digest, *serial_digest,
            "{workers} workers must reproduce the serial outcome bit-for-bit"
        );
        table.row(vec![
            format!("{workers}"),
            format!("{events}"),
            format!("{:.2} s", wall.as_secs_f64()),
            format!("{:.0}", events as f64 / wall.as_secs_f64()),
            format!("{:.2}x", serial_wall.as_secs_f64() / wall.as_secs_f64()),
            "identical".into(),
        ]);
    }
    println!("{table}");
    println!("Expected shape: identical outcome digests in every configuration (the");
    println!("engine's determinism contract), with events/s scaling toward the host's");
    println!("core count as workers are added.");
}

/// E15: the parallel block-verification pipeline — witness-verification
/// throughput vs worker count, and the mempool-warmed signature cache at
/// block connect.
pub fn e15_verify_pipeline(scale: Scale) {
    use dcs_consensus::Mempool;
    use dcs_crypto::{KeyPair, VerifyPipeline};
    use dcs_primitives::{TxAuth, TxIn, TxOut, UtxoTx};
    use dcs_state::UtxoSet;
    use std::sync::Arc;
    use std::time::Instant;

    println!("\nE15 — parallel block-verification pipeline + cross-layer signature cache");
    println!("Witness signature checks are pure functions of (key, msg, sig): they fan out");
    println!("across worker threads in the stateless prevalidation phase, while the state");
    println!("transition stays serial and deterministic. threads=1 is the exact serial path.");
    println!("Speedup tracks the host's cores — on a single-core machine expect ~1.0x.\n");

    // A multi-tx block of signed transfers: one key per spender, every tx
    // independently signed (the workload block connect actually sees).
    let n_txs = scale.pick(8usize, 32);
    let mut genesis = UtxoSet::with_witness_verification();
    let mut txs: Vec<Transaction> = Vec::with_capacity(n_txs);
    for i in 0..n_txs {
        let mut seed = [0u8; 32];
        seed[..8].copy_from_slice(&(i as u64).to_le_bytes());
        seed[31] = 0xE1;
        let mut kp = KeyPair::generate(seed, 1);
        let op = genesis.mint(kp.address(), 100);
        let mut utx = UtxoTx {
            inputs: vec![TxIn {
                prev_tx: op.tx,
                index: op.index,
                auth: None,
            }],
            outputs: vec![TxOut {
                value: 100,
                recipient: kp.address(),
            }],
        };
        let signing = Transaction::Utxo(utx.clone()).signing_hash();
        let sig = kp.sign(&signing).expect("fresh key");
        utx.inputs[0].auth = Some(TxAuth {
            pubkey: kp.public_key(),
            signature: sig,
        });
        txs.push(Transaction::Utxo(utx));
    }

    // Prevalidation reads a block's signing-hash memo; each measurement
    // gets its own instance, so each pays for the hashing once.
    let block_of = |txs: &[Transaction]| {
        let header = BlockHeader::new(Hash256::ZERO, 1, 0, Address::ZERO, Seal::None);
        Block::from_parts(header, txs.to_vec())
    };

    // Reference: the fully serial path (per-input verify inside apply).
    let mut serial_set = genesis.clone();
    let t0 = Instant::now();
    for tx in &txs {
        serial_set.apply(tx).expect("valid block");
    }
    let serial_time = t0.elapsed();
    let reference_root = serial_set.commitment();

    let mut table = Table::new(&["threads", "connect time", "sigs/s", "speedup", "root"]);
    table.row(vec![
        "serial".into(),
        format!("{:.2} ms", serial_time.as_secs_f64() * 1e3),
        format!("{:.0}", n_txs as f64 / serial_time.as_secs_f64()),
        "1.00x".into(),
        "ref".into(),
    ]);
    for threads in [1usize, 2, 4, 8] {
        // No cache here: isolate the parallelism effect.
        let pipeline = VerifyPipeline::new(threads, 0);
        let mut set = genesis.clone();
        let block = block_of(&txs);
        let t0 = Instant::now();
        let checked = UtxoSet::prevalidate_witnesses(&block, &pipeline).expect("valid block");
        for tx in &txs {
            set.apply_prevalidated(tx).expect("prevalidated block");
        }
        let elapsed = t0.elapsed();
        assert_eq!(checked, n_txs);
        let root_ok = set.commitment() == reference_root;
        table.row(vec![
            format!("{threads}"),
            format!("{:.2} ms", elapsed.as_secs_f64() * 1e3),
            format!("{:.0}", n_txs as f64 / elapsed.as_secs_f64()),
            format!("{:.2}x", serial_time.as_secs_f64() / elapsed.as_secs_f64()),
            if root_ok {
                "identical".into()
            } else {
                "MISMATCH".into()
            },
        ]);
    }
    println!("{table}");

    // Cross-layer cache flow: mempool admission verifies (and caches) each
    // witness; block connect then prevalidates entirely from the cache.
    let pipeline = Arc::new(VerifyPipeline::new(0, 8192));
    let mut pool = Mempool::with_admission(n_txs * 2, Arc::clone(&pipeline));
    for tx in &txs {
        assert!(
            pool.insert(SealedTx::new(Arc::new(tx.clone()))),
            "valid tx admitted"
        );
    }
    let admitted = pipeline.stats().cache.expect("cache configured");
    let body: Vec<Transaction> = pool
        .select(n_txs, &std::collections::BTreeSet::new())
        .into_iter()
        .map(|t| (*t.into_tx()).clone())
        .collect();
    let block = block_of(&body);
    let t0 = Instant::now();
    let mut set = genesis.clone();
    UtxoSet::prevalidate_witnesses(&block, &pipeline).expect("warm block");
    for tx in &body {
        set.apply_prevalidated(tx).expect("prevalidated block");
    }
    let warm_time = t0.elapsed();
    let connect = pipeline.stats().cache.expect("cache configured");
    assert_eq!(set.commitment(), reference_root, "warm path root identical");

    let mut cache_table = Table::new(&["phase", "verified", "cache hits", "time"]);
    cache_table.row(vec![
        "mempool admission".into(),
        format!("{}", admitted.misses),
        format!("{}", admitted.hits),
        "-".into(),
    ]);
    cache_table.row(vec![
        "block connect".into(),
        format!("{}", connect.misses - admitted.misses),
        format!("{}", connect.hits - admitted.hits),
        format!("{:.2} ms", warm_time.as_secs_f64() * 1e3),
    ]);
    println!("{cache_table}");
    println!("{}", pipeline.stats());
    println!("Expected shape: block connect verifies 0 signatures — every witness was");
    println!("checked once at admission and the warm cache answers the rest; the state");
    println!("root is bit-identical to the serial path in every configuration.");
}

/// E16: the zero-copy, pluggable data layer — one shared `Arc<Block>`
/// stream imported into an archival node and a pruning node side by side.
/// Consensus outcomes must be identical; resident memory must not be.
pub fn e16_pruned_store(scale: Scale) {
    use dcs_chain::PrunedStore;
    use std::sync::Arc;
    use std::time::Instant;

    println!("\nE16 — data layer: archival vs pruned store, zero-copy imports");
    println!("Paper claim: ledger growth makes \"a full download of the blockchain\"");
    println!("untenable (§5.4); the data layer (§4) must let nodes drop old bodies");
    println!("without changing consensus. Same Arc-shared block stream into both");
    println!("backends: identical tips and stats, a fraction of the resident bytes.\n");

    let blocks = scale.pick(400u64, 4_000);
    let txs_per_block = 20usize;
    let keep_depth = 32u64;

    // Build one block stream with periodic near-tip forks (every 10th
    // height carries a 2-block side branch delivered children-first, so the
    // orphan pool and reorg paths both run). Every block is built once and
    // shared: both chains below hold the same allocations.
    let cfg = ChainConfig::bitcoin_like();
    let genesis = dcs_chain::genesis_block(&cfg);
    let make = |parent: &Block, salt: u64, txs: usize| {
        let body: Vec<Transaction> = (0..txs)
            .map(|i| {
                Transaction::Account(AccountTx::transfer(
                    Address::from_index(salt * 1_000 + i as u64),
                    Address::from_index(1),
                    salt,
                    0,
                ))
            })
            .collect();
        Arc::new(Block::new(
            BlockHeader::new(
                parent.hash(),
                parent.header.height + 1,
                salt * 1_000_000,
                Address::from_index(9),
                Seal::Work {
                    nonce: salt,
                    difficulty: 1,
                },
            ),
            body,
        ))
    };
    let mut stream: Vec<Arc<Block>> = Vec::new();
    let mut tip = Arc::new(genesis.clone());
    for h in 1..=blocks {
        let b = make(&tip, h, txs_per_block);
        stream.push(Arc::clone(&b));
        if h % 10 == 0 {
            // A losing fork off the previous tip, delivered out of order.
            let f1 = make(&tip, h + 500_000, txs_per_block / 2);
            let f2 = make(&f1, h + 600_000, txs_per_block / 2);
            stream.push(f2);
            stream.push(f1);
        }
        tip = b;
    }

    let run = |label: &str, imports: &mut dyn FnMut(&Arc<Block>)| {
        let t0 = Instant::now();
        for b in &stream {
            imports(b);
        }
        (label.to_string(), t0.elapsed())
    };

    let mut archival = Chain::new(genesis.clone(), cfg.clone(), NullMachine);
    let (_, t_archival) = run("archival", &mut |b| {
        let _ = archival.import(Arc::clone(b));
    });
    let mut pruned = Chain::with_store(
        genesis.clone(),
        cfg.clone(),
        NullMachine,
        PrunedStore::new(keep_depth),
    );
    let (_, t_pruned) = run("pruned", &mut |b| {
        let _ = pruned.import(Arc::clone(b));
    });

    // Consensus equivalence: the retention policy changed nothing above it.
    assert_eq!(archival.tip_hash(), pruned.tip_hash(), "identical tips");
    assert_eq!(archival.canonical(), pruned.canonical());
    assert_eq!(archival.canon_stats(), pruned.canon_stats());
    assert_eq!(archival.stats(), pruned.stats());

    // Zero-copy evidence: both stores hold the *same allocation* the
    // stream does. Probe the tip — resident in both backends (old bodies
    // are pruned from the pruning node, so only the archival store still
    // shares those).
    let probe = &tip;
    let shared_archival = archival.tree().get(&probe.hash()).expect("stored");
    let shared_pruned = pruned.tree().get(&probe.hash()).expect("stored");
    assert!(
        Arc::ptr_eq(shared_archival.block(), probe) && Arc::ptr_eq(shared_pruned.block(), probe),
        "import must share the Arc, not deep-copy the block"
    );
    assert!(Arc::strong_count(probe) >= 3, "stream + both chains");

    let a = archival.tree().store_stats();
    let p = pruned.tree().store_stats();
    let mut table = Table::new(&[
        "backend",
        "blocks",
        "bodies resident",
        "bodies pruned",
        "resident body bytes",
        "import time",
    ]);
    for (label, stats, t) in [("archival", a, t_archival), ("pruned", p, t_pruned)] {
        table.row(vec![
            label.into(),
            format!("{}", stats.blocks),
            format!("{}", stats.bodies_resident),
            format!("{}", stats.bodies_pruned),
            format!("{:.2} KB", stats.resident_body_bytes as f64 / 1e3),
            format!("{:.2} ms", t.as_secs_f64() * 1e3),
        ]);
    }
    println!("{table}");

    let saving = 1.0 - p.resident_body_bytes as f64 / a.resident_body_bytes.max(1) as f64;
    println!(
        "reorgs={} orphan connects exercised; pruned keeps {} of {} bodies → {:.0}% of body bytes freed",
        archival.stats().reorgs,
        p.bodies_resident,
        p.blocks,
        saving * 100.0,
    );
    assert!(
        p.resident_body_bytes * 4 < a.resident_body_bytes,
        "pruned store must hold materially fewer body bytes at this length"
    );
    println!("Expected shape: identical tips, canonical chains, and incremental stats");
    println!("from both backends; the pruned node's resident bytes are bounded by the");
    println!("retention window while the archival node grows linearly with the chain.");
}

/// E22: committed throughput vs shard count and vs traffic locality on the
/// live beacon-coordinated stack (§5.4, \[38\]): real shard sequencers, a
/// beacon verifying lock receipts, cross-shard mints, and a light client —
/// all over the simulated network. The speedup metric is the critical path:
/// the busiest shard's block-slot count, since shards seal in parallel but
/// a transfer mix only completes when its slowest shard does. At two shards
/// the same workload is replayed on the sharded event engine and the run
/// digests are asserted identical — the CI scale-smoke digest gate.
pub fn e22_beacon_shards(scale: Scale) {
    use dcs_scale::beacon::{BeaconNet, BeaconParams};
    use dcs_sim::SimTime;

    println!("\nE22 — beacon-coordinated shards: committed throughput vs shard count");
    println!("Paper claim: \"the performance of the system can be improved by introducing");
    println!("parallelism, such as sharding\" (§5.4), here on the full wired stack:");
    println!("lock/receipt cross-shard transfers, timeout refunds armed, SPV light client");
    println!("attached. Speedup = serial critical-path slots / k-shard critical-path slots.\n");

    let n_txs = scale.pick(600u64, 4_000);
    let accounts: u64 = 64;
    let alloc: Vec<(Address, u64)> = (0..accounts)
        .map(|i| (Address::from_index(i), 10_000_000))
        .collect();
    let mut rng = Rng::seed_from(22);
    let transfers: Vec<Transfer> = (0..n_txs)
        .map(|_| Transfer {
            from: Address::from_index(rng.below(accounts)),
            to: Address::from_index(rng.below(accounts)),
            value: 1 + rng.below(50),
        })
        .collect();

    // Runs `mix`, one transfer injected every `spacing_us`, to quiescence
    // and returns the network with its critical-path slot count.
    let run = |mix: &[Transfer], spacing_us: u64, shards: usize, workers: usize| {
        let params = BeaconParams {
            shards,
            ..BeaconParams::default()
        };
        let mut net = BeaconNet::new(&params, 2022, &alloc);
        net.set_engine_workers(workers);
        for (i, t) in mix.iter().enumerate() {
            net.submit_at(SimTime::from_micros(2_000 + i as u64 * spacing_us), *t);
        }
        net.run();
        let stats = net.stats();
        assert_eq!(stats.rejected, 0, "amply funded mix must fully commit");
        assert_eq!(stats.refunded, 0, "no beacon faults in this experiment");
        assert_eq!(stats.intra + stats.minted, mix.len() as u64);
        let critical = (0..shards)
            .map(|i| net.shard(i).stats.blocks)
            .max()
            .unwrap_or(0);
        (net, critical)
    };

    let interval_s = BeaconParams::default().block_interval.as_micros() as f64 / 1e6;
    let mut table = Table::new(&[
        "shards",
        "completed",
        "cross-shard",
        "critical slots",
        "eff. tps",
        "speedup",
        "events",
    ]);
    let mut serial_slots = 0u64;
    for k in [1usize, 2, 4] {
        let (net, critical) = run(&transfers, 700, k, 1);
        let stats = net.stats();
        if k == 1 {
            serial_slots = critical;
        }
        table.row(vec![
            format!("{k}"),
            format!("{}", stats.intra + stats.minted),
            format!("{}", stats.minted),
            format!("{critical}"),
            format!("{:.0}", n_txs as f64 / (critical as f64 * interval_s)),
            format!("{:.2}x", serial_slots as f64 / critical.max(1) as f64),
            format!("{}", stats.events),
        ]);
    }
    println!("{table}");

    // Locality sweep at k = 4: locality is what sharding sells. Recipients
    // are picked through the partition itself, and the mix arrives ten
    // times faster than above, so block capacity — not the seal cadence,
    // which floors the table above at one slot per tick — is what binds.
    let home = |a: &Address| ShardedLedger::home_shard(a, 4);
    let mut sweep = Table::new(&["target cross fraction", "cross-shard", "critical slots"]);
    let mut slots = Vec::new();
    for target in [0.0f64, 0.25, 0.5, 1.0] {
        let mut rng = Rng::seed_from(2207);
        let mix: Vec<Transfer> = (0..n_txs)
            .map(|_| {
                let from = Address::from_index(rng.below(accounts));
                let crossing = rng.chance(target);
                // Redraw the recipient until it crosses exactly when asked.
                let to = loop {
                    let to = Address::from_index(rng.below(accounts));
                    if (home(&to) != home(&from)) == crossing {
                        break to;
                    }
                };
                let value = 1 + rng.below(50);
                Transfer { from, to, value }
            })
            .collect();
        let (net, critical) = run(&mix, 70, 4, 1);
        sweep.row(vec![
            format!("{:.0}%", target * 100.0),
            format!("{}", net.stats().minted),
            format!("{critical}"),
        ]);
        slots.push(critical);
    }
    println!("{sweep}");
    assert!(
        slots[0] < slots[3] && slots.is_sorted(),
        "critical-path slots must not fall with more crossing, and all-local \
         traffic must take fewer than all-crossing: {slots:?}"
    );

    // The digest gate: the 2-shard run must be bit-identical on the sharded
    // event engine. CI runs this experiment for exactly this assertion.
    let (serial, _) = run(&transfers, 700, 2, 1);
    let (engine, _) = run(&transfers, 700, 2, 8);
    assert_eq!(
        serial.digest(),
        engine.digest(),
        "2-shard run must replay bit-identically on the 8-worker engine"
    );
    println!("digest gate: 2-shard run identical at 1 and 8 engine workers ✓");
    println!("Expected shape: critical-path slots fall as the mix spreads over more");
    println!("shards, so effective throughput rises — eroded by the cross-shard fraction,");
    println!("whose lock+mint pairs occupy a slot on both sides of every crossing: in the");
    println!("locality sweep all-local traffic needs fewer slots than all-crossing traffic,");
    println!("and no step towards more crossing needs fewer than the one before.");
}

/// E23: light-client sync cost vs a full node on the live stack (§3.3,
/// \[37\]): the light client follows shard 0 through the beacon network —
/// checkpoint bootstrap, consecutive headers, SPV inclusion proofs — while
/// the full node replays every block body. Reports bytes for both roles as
/// the chain grows.
pub fn e23_light_sync(scale: Scale) {
    use dcs_crypto::codec::Encode;
    use dcs_scale::beacon::{BeaconNet, BeaconParams};
    use dcs_sim::SimTime;

    println!("\nE23 — light-client sync bytes vs full replay");
    println!("Paper claim: lightweight IoT participants \"do not need to download the");
    println!("whole blockchain\" (§3.3): headers plus SPV proofs suffice to verify");
    println!("inclusion. Both roles measured on the same live sharded run.\n");

    let mut table = Table::new(&[
        "submitted",
        "shard height",
        "full bytes",
        "light bytes",
        "light/full",
        "proofs verified",
    ]);
    let sweeps: &[u64] = if matches!(scale, Scale::Quick) {
        &[150, 600]
    } else {
        &[150, 600, 2_400]
    };
    for &n_txs in sweeps {
        let params = BeaconParams {
            shards: 2,
            // Retain every body so the full-replay baseline is exact.
            keep_depth: 1_000_000,
            ..BeaconParams::default()
        };
        let alloc: Vec<(Address, u64)> = (0..64)
            .map(|i| (Address::from_index(i), 10_000_000))
            .collect();
        let mut net = BeaconNet::new(&params, 23, &alloc);
        let mut rng = Rng::seed_from(23);
        for i in 0..n_txs {
            let t = Transfer {
                from: Address::from_index(rng.below(64)),
                to: Address::from_index(rng.below(64)),
                value: 1 + rng.below(50),
            };
            net.submit_at(SimTime::from_micros(2_000 + i * 800), t);
        }
        net.run();

        let shard = net.shard(0).chain();
        let mut full_bytes = 0u64;
        for h in 1..=shard.height() {
            let hash = shard.canonical_at(h).expect("canonical chain is dense");
            let stored = shard.tree().get(&hash).expect("retained");
            full_bytes += stored
                .body()
                .expect("keep_depth retains every body")
                .encoded()
                .len() as u64;
        }
        let light = net.light();
        let client = light.client().expect("light client bootstraps");
        table.row(vec![
            format!("{n_txs}"),
            format!("{}", shard.height()),
            format!("{:.1} KB", full_bytes as f64 / 1e3),
            format!("{:.1} KB", client.bytes_downloaded as f64 / 1e3),
            format!(
                "{:.1}%",
                100.0 * client.bytes_downloaded as f64 / full_bytes.max(1) as f64
            ),
            format!("{}", light.proofs_verified),
        ]);
        assert!(
            light.proofs_verified > 0,
            "the light client must verify real SPV proofs"
        );
    }
    println!("{table}");
    println!("Expected shape: the light client's share falls as blocks fatten — headers");
    println!("are constant-size while bodies grow with the transaction load — dropping");
    println!("under 10% once blocks carry realistic batches (the tier-1 E23 gate).");
}
