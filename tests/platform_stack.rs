//! Whole-stack integration tests: scenarios that cut across four or more
//! crates at once — contracts executing on consensus networks, witness
//! verification under gossip, the middleware pipeline fed by a live chain,
//! and the PoET-cheating security concern the paper cites ([41]).

use dcs_chain::{NullMachine, StateMachine};
use dcs_consensus::pos::{PosNode, StakeTable};
use dcs_consensus::WireMsg;
use dcs_contracts::{exec, stdlib, AccountMachine, Word};
use dcs_crypto::{Address, Hash256, KeyPair};
use dcs_ledger::builders::{Ng, Ordering, Pbft, Poet, Pos, Pow};
use dcs_ledger::{build, collect, EngineRule, LedgerNode, NetworkParams};
use dcs_middleware::{EventBus, EventFilter};
use dcs_net::{LatencyModel, NetConfig, NodeId, Topology};
use dcs_primitives::{
    AccountTx, ChainConfig, ConsensusKind, GasSchedule, SealedTx, Transaction, TxAuth,
};
use dcs_sim::{SimDuration, SimTime};
use std::sync::Arc;

fn at(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// A full generation-2.0 deployment: a PoS validator network whose state
/// machine executes real contract transactions, with the event bus consuming
/// receipts at the end — Fig. 3's stack, live.
#[test]
fn contracts_execute_on_a_pos_network() {
    let alice = Address::from_index(1_000);
    let params = NetworkParams::<Pos> {
        nodes: 6,
        chain: ChainConfig {
            consensus: ConsensusKind::ProofOfStake { slot_us: 2_000_000 },
            gas: GasSchedule::default(),
            ..ChainConfig::ethereum_like()
        },
        net: NetConfig {
            nodes: 6,
            topology: Topology::Complete,
            latency: LatencyModel::lan(),
            drop_probability: 0.0,
            bandwidth_bytes_per_sec: None,
        },
        ..Default::default()
    };
    let mut runner = build(&params, 5, |_| {
        AccountMachine::with_alloc(&[(alice, 10_000_000_000)])
    });

    // Client transactions: deploy the token, mint, transfer.
    let deploy = AccountTx::deploy(alice, stdlib::token(), 0, 10_000_000);
    let token = deploy.contract_address();
    let txs = vec![
        Transaction::Account(deploy),
        Transaction::Account(AccountTx::call(
            alice,
            token,
            stdlib::token_mint_input(5_000),
            0,
            1,
            1_000_000,
        )),
        Transaction::Account(AccountTx::call(
            alice,
            token,
            stdlib::token_transfer_input(&Address::from_index(2_000), 1_200),
            0,
            2,
            1_000_000,
        )),
    ];
    for (i, tx) in txs.into_iter().enumerate() {
        let msg = WireMsg::Tx(SealedTx::new(Arc::new(tx)));
        let size = dcs_consensus::wire_size(&msg);
        runner
            .net_mut()
            .inject(at(i as u64 * 5), NodeId(0), msg, size);
    }
    // Stop mid-slot (slots fire on even seconds) so the last proposal has
    // propagated to every replica before we compare.
    runner.run_until(at(121));

    // Every validator executed the same contracts to the same state root.
    let roots: Vec<_> = runner
        .nodes()
        .iter()
        .map(|node| node.core().chain.machine().state_root())
        .collect();
    assert!(
        roots.windows(2).all(|w| w[0] == w[1]),
        "replicated execution diverged"
    );

    // And the token balance is queryable on any replica.
    let machine = runner.node_mut(NodeId(3)).core.chain.machine_mut();
    let out = exec::query(
        &mut machine.db,
        &token,
        &alice,
        &stdlib::token_balance_input(&Address::from_index(2_000)),
    )
    .expect("query runs");
    assert_eq!(Word(out.try_into().expect("one word")).as_u64(), 1_200);

    // Middleware: feed one replica's receipts through the event bus.
    let mut bus = EventBus::new();
    let sub = bus.subscribe(EventFilter::contract(token));
    let receipts = runner.node_mut(NodeId(0)).core.chain.drain_receipts();
    for (block, rs) in &receipts {
        bus.publish_block(*block, rs);
    }
    let events = bus.drain(sub);
    assert!(!events.is_empty(), "token transfer emitted an event");
}

/// Witness verification under gossip: an ordering-service ledger that
/// demands signatures accepts a properly signed transfer and (as a Failed
/// receipt economy) the state never moves for forged value.
#[test]
fn signed_transactions_verified_across_the_network() {
    let mut alice_keys = KeyPair::generate([42u8; 32], 3);
    let alice = alice_keys.address();
    let bob = Address::from_index(7);

    let params = NetworkParams::<Ordering> {
        nodes: 4,
        chain: ChainConfig {
            gas: GasSchedule::free(),
            ..ChainConfig::hyperledger_like()
        },
        ..Default::default()
    };
    let mut runner = build(&params, 9, |_| {
        let mut machine = AccountMachine::with_alloc(&[(alice, 1_000_000)]);
        machine.schedule = GasSchedule::free();
        machine.verify_signatures = true;
        machine
    });

    // A signed transfer commits.
    let mut tx = AccountTx::transfer(alice, bob, 250, 0);
    tx.gas_limit = 0;
    tx.gas_price = 0;
    let unsigned = Transaction::Account(tx.clone());
    let sig = alice_keys.sign(&unsigned.signing_hash()).unwrap();
    tx.auth = Some(TxAuth {
        pubkey: alice_keys.public_key(),
        signature: sig,
    });
    let msg = WireMsg::Tx(SealedTx::new(Arc::new(Transaction::Account(tx))));
    let size = dcs_consensus::wire_size(&msg);
    runner.net_mut().inject(at(1), NodeId(2), msg, size);
    runner.run_until(at(30));
    for node in runner.nodes() {
        assert_eq!(
            node.core().chain.machine().db.balance(&bob),
            250,
            "signed tx applied"
        );
    }

    // An unsigned transfer poisons its block: state never moves.
    let mut forged = AccountTx::transfer(alice, bob, 999, 1);
    forged.gas_limit = 0;
    forged.gas_price = 0;
    let msg = WireMsg::Tx(SealedTx::new(Arc::new(Transaction::Account(forged))));
    let size = dcs_consensus::wire_size(&msg);
    runner.net_mut().inject(at(31), NodeId(1), msg, size);
    runner.run_until(at(60));
    for node in runner.nodes() {
        assert_eq!(
            node.core().chain.machine().db.balance(&bob),
            250,
            "forgery rejected"
        );
    }
}

/// Commits one WOTS-signed transfer on `params`' network, every peer over a
/// funded `AccountMachine` that verifies witnesses; returns the state root
/// every replica ends on.
fn signed_transfer_on<E>(mut params: NetworkParams<E>, horizon_s: u64) -> Hash256
where
    E: EngineRule<AccountMachine>,
    E::Node: Send,
{
    let mut alice_keys = KeyPair::generate([46u8; 32], 2);
    let (alice, bob) = (alice_keys.address(), Address::from_index(7_000));
    params.chain.gas = GasSchedule::free();
    let mut runner = build(&params, 21, |_| {
        let mut machine = AccountMachine::with_alloc(&[(alice, 1_000_000)]);
        machine.schedule = GasSchedule::free();
        machine.verify_signatures = true;
        machine
    });
    let mut tx = AccountTx::transfer(alice, bob, 250, 0);
    tx.gas_limit = 0;
    tx.gas_price = 0;
    let signing_hash = Transaction::Account(tx.clone()).signing_hash();
    tx.auth = Some(TxAuth {
        pubkey: alice_keys.public_key(),
        signature: alice_keys.sign(&signing_hash).unwrap(),
    });
    let msg = WireMsg::Tx(SealedTx::new(Arc::new(Transaction::Account(tx))));
    let size = dcs_consensus::wire_size(&msg);
    runner.net_mut().inject(at(1), NodeId(1), msg, size);
    // Blocks keep coming on the open families: stop at the first second
    // past the horizon with none in flight.
    let roots = |nodes: &[E::Node]| {
        let roots: Vec<Hash256> = nodes
            .iter()
            .map(|n| n.core().chain.machine().state_root())
            .collect();
        roots.windows(2).all(|w| w[0] == w[1]).then_some(roots[0])
    };
    let mut t = horizon_s;
    runner.run_until(at(t));
    while roots(runner.nodes()).is_none() && t < horizon_s + 30 {
        t += 1;
        runner.run_until(at(t));
    }
    for (i, node) in runner.nodes().iter().enumerate() {
        let balance = node.core().chain.machine().db.balance(&bob);
        assert_eq!(balance, 250, "peer {i}: the transfer committed");
    }
    roots(runner.nodes()).expect("every replica on one state root")
}

/// One application layer under every engine rule (ROADMAP 2): each family's
/// preset, built through the one constructor over the same machine, commits
/// the signed transfer on one state root.
#[test]
fn every_family_commits_a_signed_transfer_on_one_state_root() {
    let roots = [
        signed_transfer_on(NetworkParams::<Pow>::default(), 150),
        signed_transfer_on(NetworkParams::<Pos>::default(), 150),
        signed_transfer_on(NetworkParams::<Poet>::default(), 150),
        signed_transfer_on(NetworkParams::<Ordering>::default(), 30),
        signed_transfer_on(NetworkParams::<Pbft>::default(), 30),
        signed_transfer_on(NetworkParams::<Ng>::default(), 150),
    ];
    // Neither consortium family mints a block reward: one transfer over one
    // allocation is then one state, whatever the engine.
    assert_eq!(
        roots[3], roots[4],
        "ordering and PBFT end on the same state"
    );
}

/// Hostile bytes (ROADMAP item 4): a witness whose chain list lost an entry
/// on the wire decodes fine, and must then be refused at both doors —
/// `BadWitness` at mempool admission, a poisoned block at import (state
/// application fails, the head does not move) — each with its counter
/// bumped, never an out-of-bounds panic in `verify`.
#[test]
fn truncated_witness_is_refused_at_admission_and_import() {
    use dcs_chain::{Chain, ChainEvent};
    use dcs_consensus::{InsertOutcome, Mempool};
    use dcs_crypto::codec::{decode_all, Encode};
    use dcs_crypto::{Signature, VerifyPipeline};
    use dcs_primitives::{Block, BlockHeader, Seal};

    let mut keys = KeyPair::generate([43u8; 32], 2);
    let alice = keys.address();
    let bob = Address::from_index(7);
    let mut tx = AccountTx::transfer(alice, bob, 250, 0);
    let signing_hash = Transaction::Account(tx.clone()).signing_hash();
    let good = keys.sign(&signing_hash).unwrap();
    assert!(keys.public_key().verify(&signing_hash, &good));

    // index ‖ u32 count ‖ 67 chain values ‖ path: claim 66 and drop the last.
    let mut bytes = good.encoded();
    bytes[4..8].copy_from_slice(&66u32.to_le_bytes());
    bytes.drain(8 + 66 * 32..8 + 67 * 32);
    let truncated = decode_all::<Signature>(&bytes).expect("well-formed encoding");
    tx.auth = Some(TxAuth {
        pubkey: keys.public_key(),
        signature: truncated,
    });
    let tx = Transaction::Account(tx);

    let mut pool = Mempool::with_admission(16, Arc::new(VerifyPipeline::new(1, 64)));
    assert_eq!(
        pool.insert_outcome(SealedTx::new(Arc::new(tx.clone()))),
        InsertOutcome::BadWitness
    );
    assert_eq!(pool.rejected_invalid(), 1);
    assert!(pool.is_empty());

    let cfg = ChainConfig::hyperledger_like();
    let genesis = dcs_chain::genesis_block(&cfg);
    let mut machine = AccountMachine::with_alloc(&[(alice, 1_000_000)]);
    machine.verify_signatures = true;
    let mut chain = Chain::new(genesis.clone(), cfg, machine);
    let block = Block::new(
        BlockHeader::new(genesis.hash(), 1, 1, Address::ZERO, Seal::None),
        vec![tx],
    );
    // The state machine names the reason; the chain poisons the block.
    let err = chain.machine_mut().apply_block(&block).unwrap_err();
    assert!(err.contains("witness"), "{err}");
    let hash = block.hash();
    assert_eq!(
        chain.import(block).expect("stored, never applied"),
        ChainEvent::SideChain { block: hash }
    );
    assert_eq!(chain.stats().invalid_blocks, 1);
    assert_eq!(chain.tip_hash(), genesis.hash());
    assert_eq!(chain.machine().db.balance(&bob), 0);
}

/// Both verification doors over one pipeline, wired as a node wires them: an
/// admission pool, and a chain whose account machine verifies signatures.
/// `alloc` accounts start funded, so a refusal below can only be the witness.
fn two_doors(
    alloc: &[Address],
) -> (
    Arc<dcs_crypto::VerifyPipeline>,
    dcs_consensus::Mempool,
    dcs_chain::Chain<AccountMachine>,
) {
    let pipeline = Arc::new(dcs_crypto::VerifyPipeline::new(1, 64));
    let pool = dcs_consensus::Mempool::with_admission(16, Arc::clone(&pipeline));
    let cfg = ChainConfig::hyperledger_like();
    let funded: Vec<_> = alloc.iter().map(|a| (*a, 1_000_000)).collect();
    let mut machine = AccountMachine::with_alloc(&funded).with_pipeline(Arc::clone(&pipeline));
    machine.verify_signatures = true;
    let chain = dcs_chain::Chain::new(dcs_chain::genesis_block(&cfg), cfg, machine);
    (pipeline, pool, chain)
}

/// A block on the chain's tip carrying `txs`; `salt` tells siblings apart.
fn on_tip(
    chain: &dcs_chain::Chain<AccountMachine>,
    salt: u64,
    txs: Vec<Transaction>,
) -> dcs_primitives::Block {
    use dcs_primitives::{Block, BlockHeader, Seal};
    let height = chain.height() + 1;
    let header = BlockHeader::new(chain.tip_hash(), height, salt, Address::ZERO, Seal::None);
    Block::new(header, txs)
}

fn witness_of(tx: &Transaction) -> &TxAuth {
    match tx {
        Transaction::Account(tx) => tx.auth.as_ref().expect("signed"),
        _ => panic!("account transaction expected"),
    }
}

/// Hash-once hygiene, the security half: the signing hash rides with the
/// sealed transaction and the block, and a signature remembers the cache key
/// it was first looked up under — so a signature *instance* that is warm from
/// a valid transaction must not carry that verdict to anything else. A clone
/// of it (memos carried) on a body that pays more, or under another key, is
/// a new triple at both doors: exactly one real verification the first time
/// either door sees it, the cached `false` afterwards, and never the valid
/// triple's `true`.
#[test]
fn warm_memos_never_vouch_for_another_body_or_key() {
    use dcs_chain::ChainEvent;
    use dcs_consensus::InsertOutcome;

    let mut alice_keys = KeyPair::generate([44u8; 32], 2);
    let mallory_keys = KeyPair::generate([45u8; 32], 2);
    let (alice, mallory) = (alice_keys.address(), mallory_keys.address());
    let bob = Address::from_index(7);
    let (pipeline, mut pool, mut chain) = two_doors(&[alice, mallory]);
    let cache = || pipeline.stats().cache.expect("cache configured");

    // (a) A valid signed transfer passes admission — the one real
    // verification — and commits from the cached verdict.
    let mut tx = AccountTx::transfer(alice, bob, 250, 0);
    let signing_hash = Transaction::Account(tx.clone()).signing_hash();
    tx.auth = Some(TxAuth {
        pubkey: alice_keys.public_key(),
        signature: alice_keys.sign(&signing_hash).unwrap(),
    });
    let good = SealedTx::new(Arc::new(Transaction::Account(tx)));
    assert_eq!(good.signing_hash(), Some(signing_hash));
    assert_eq!(pool.insert_outcome(good.clone()), InsertOutcome::Added);
    assert_eq!((cache().misses, cache().hits), (1, 0));
    let block = on_tip(&chain, 0, vec![(**good.tx()).clone()]);
    assert_eq!(block.signing_hashes(), [signing_hash]);
    let hash = block.hash();
    assert_eq!(
        chain.import(block),
        Ok(ChainEvent::Extended { block: hash })
    );
    assert_eq!((cache().misses, cache().hits), (1, 1));
    assert_eq!(chain.machine().db.balance(&bob), 250);

    // The instance both doors just looked up is warm; its clone carries the
    // digest and the key memo of (alice's key, the 250 transfer).
    let warm = witness_of(&good).clone();

    // The same witness on a body that pays 999: first seen at admission.
    let mut richer = AccountTx::transfer(alice, bob, 999, 1);
    richer.auth = Some(warm.clone());
    let richer = Transaction::Account(richer);
    // And under mallory's key, on mallory's account: first seen at import.
    let mut stolen = AccountTx::transfer(mallory, bob, 250, 0);
    stolen.auth = Some(TxAuth {
        pubkey: mallory_keys.public_key(),
        signature: warm.signature.clone(),
    });
    let stolen = Transaction::Account(stolen);

    let offer = |pool: &mut dcs_consensus::Mempool, tx: &Transaction| {
        pool.insert_outcome(SealedTx::new(Arc::new(tx.clone())))
    };
    let mut poisoned = 0;
    let mut import = |chain: &mut dcs_chain::Chain<AccountMachine>, tx: &Transaction| {
        let tip = chain.tip_hash();
        poisoned += 1;
        let block = on_tip(chain, poisoned, vec![tx.clone()]);
        let hash = block.hash();
        assert_eq!(
            chain.import(block),
            Ok(ChainEvent::SideChain { block: hash })
        );
        assert_eq!(chain.stats().invalid_blocks, poisoned);
        assert_eq!(chain.tip_hash(), tip, "a poisoned block moves nothing");
    };

    assert_eq!(offer(&mut pool, &richer), InsertOutcome::BadWitness);
    assert_eq!(
        (cache().misses, cache().hits),
        (2, 1),
        "one real verification"
    );
    assert_eq!(offer(&mut pool, &richer), InsertOutcome::BadWitness);
    import(&mut chain, &richer);
    assert_eq!(
        (cache().misses, cache().hits),
        (2, 3),
        "then the cached false"
    );

    import(&mut chain, &stolen);
    assert_eq!(
        (cache().misses, cache().hits),
        (3, 3),
        "one real verification"
    );
    import(&mut chain, &stolen);
    assert_eq!(offer(&mut pool, &stolen), InsertOutcome::BadWitness);
    assert_eq!(
        (cache().misses, cache().hits),
        (3, 5),
        "then the cached false"
    );

    assert_eq!(pool.rejected_invalid(), 3);
    assert_eq!(pool.len(), 1, "only the valid transfer is pooled");
    assert_eq!(chain.machine().db.balance(&bob), 250);
    // The valid triple still answers true from the cache.
    let again = on_tip(&chain, 0, vec![(**good.tx()).clone()]);
    assert!(exec::prevalidate_witnesses(&again, &pipeline).is_ok());
    assert_eq!((cache().misses, cache().hits), (3, 6));
}

/// The other half of admission's early return: a transaction without a
/// witness is admitted by a verifying pool without the pipeline being touched
/// at all — whether a witness is *required* is the state machine's call.
#[test]
fn unsigned_transaction_is_admitted_without_touching_the_pipeline() {
    let alice = Address::from_index(1);
    let (pipeline, mut pool, _) = two_doors(&[alice]);
    let before = pipeline.stats();
    let tx = Transaction::Account(AccountTx::transfer(alice, Address::from_index(2), 5, 0));
    let sealed = SealedTx::new(Arc::new(tx));
    assert_eq!(
        sealed.signing_hash(),
        None,
        "nothing to verify, nothing hashed"
    );
    assert!(pool.insert(sealed));
    assert_eq!(pipeline.stats(), before, "no batch, no lookup");
}

/// Consistency (§2.7, ROADMAP aim 3): an invalid block must never demote
/// valid history. A peer on g–a1–a2 that also holds a shorter stale leaf b1
/// receives a child of a2 whose state commitment is false. The block is
/// stored and poisoned; the head, the inclusion index and the mempool stay
/// exactly where they were — the peer does not reorg backwards onto b1.
#[test]
fn invalid_child_of_the_tip_leaves_head_inclusion_and_mempool_alone() {
    use dcs_chain::ChainEvent;
    use dcs_consensus::NodeCore;
    use dcs_primitives::{Block, BlockHeader, Seal};

    let cfg = ChainConfig::bitcoin_like();
    let genesis = dcs_chain::genesis_block(&cfg);
    let alice = Address::from_index(1);
    let pay = |value, nonce| {
        Transaction::Account(AccountTx::transfer(
            alice,
            Address::from_index(2),
            value,
            nonce,
        ))
    };
    let on = |parent: &Block, salt: u64, txs: Vec<Transaction>| {
        let height = parent.header.height + 1;
        let header = BlockHeader::new(parent.hash(), height, salt, Address::ZERO, Seal::None);
        Arc::new(Block::new(header, txs))
    };
    let machine = AccountMachine::with_alloc(&[(alice, 10_000_000)]);
    let mut node = NodeCore::new(NodeId(0), Address::ZERO, genesis.clone(), cfg, machine);

    let a1 = on(&genesis, 1, vec![pay(10, 0)]);
    let a2 = on(&a1, 2, vec![pay(11, 1)]);
    let b1 = on(&genesis, 10, vec![pay(12, 0)]);
    for block in [&a1, &a2, &b1] {
        node.ingest_block(Arc::clone(block))
            .expect("structurally valid");
    }
    // A client transaction is waiting, and the bad block carries it.
    let pending = SealedTx::new(Arc::new(pay(13, 2)));
    assert!(node.mempool.insert(pending.clone()));
    let mut x = Block::new(
        BlockHeader::new(a2.hash(), 3, 3, Address::ZERO, Seal::None),
        vec![pay(13, 2)],
    );
    x.header.state_root = dcs_crypto::sha256(b"not the state this block leads to");
    let x = Arc::new(x);

    let included = node.included().clone();
    assert_eq!(included.len(), 2, "a1's and a2's transfers");
    let event = node.ingest_block(Arc::clone(&x));
    assert_eq!(event, Some(ChainEvent::SideChain { block: x.hash() }));
    assert_eq!(node.chain.tip_hash(), a2.hash(), "no reorg backwards");
    assert_eq!(node.chain.stats().invalid_blocks, 1);
    assert_eq!(node.chain.stats().reorgs, 0);
    assert_eq!(node.included(), &included);
    assert_eq!(node.mempool.len(), 1);
    assert!(node.mempool.contains(&pending.id()));
    assert_eq!(node.chain.machine().db.balance(&Address::from_index(2)), 21);
    assert_eq!(node.rejected_blocks, 0, "stored, never applied");

    // The peer keeps working: its next block extends a2 and takes the
    // waiting transaction with it.
    let a3 = node.build_block(Seal::None, at(1));
    assert_eq!(a3.header.parent, a2.hash());
    let event = node.ingest_block(Arc::clone(&a3));
    assert_eq!(event, Some(ChainEvent::Extended { block: a3.hash() }));
    assert!(node.included().contains(&pending.id()));
    assert!(node.mempool.is_empty());
}

/// A reorg is revert-then-apply on the authenticated state: an
/// `AccountMachine` that imported a fork, then a longer branch, must end on
/// the state root (and balances) of a fresh machine that only ever saw the
/// winning branch. Both halves are trie batches — `apply_undo` pops the
/// losing blocks, `apply_block` replays the winners — and the losing branch
/// touched accounts, created one and emptied one that the winner never does.
#[test]
fn reorg_onto_a_longer_branch_lands_on_the_winning_branchs_state_root() {
    use dcs_chain::{Chain, ChainEvent};
    use dcs_primitives::{Block, BlockHeader, Seal};

    let cfg = ChainConfig::bitcoin_like();
    let genesis = dcs_chain::genesis_block(&cfg);
    let user = Address::from_index;
    let alloc: Vec<(Address, u64)> = (1..=40).map(|i| (user(i), 1_000_000)).collect();
    let machine = || {
        let mut m = AccountMachine::with_alloc(&alloc);
        m.schedule = GasSchedule::free();
        m
    };
    let free = |from: u64, to: u64, value: u64, nonce: u64| {
        let mut tx = AccountTx::transfer(user(from), user(to), value, nonce);
        tx.gas_limit = 0;
        tx.gas_price = 0;
        Transaction::Account(tx)
    };
    let on = |parent: &Block, salt: u64, txs: Vec<Transaction>| {
        let height = parent.header.height + 1;
        Block::new(
            BlockHeader::new(parent.hash(), height, salt, Address::ZERO, Seal::None),
            txs,
        )
    };

    // The losing branch: every account pays its neighbour, account 3 is
    // emptied (its record leaves the trie), account 100 is created.
    let mut losing_txs: Vec<Transaction> = (1..=40).map(|i| free(i, i % 40 + 1, i, 0)).collect();
    losing_txs.push(free(3, 100, 1_000_000 - 3 + 2, 1));
    let a1 = on(&genesis, 1, losing_txs);
    let a2 = on(
        &a1,
        2,
        (1..=20).map(|i| free(i * 2, 200 + i, 7, 1)).collect(),
    );
    // The winning branch, one block longer, touching a different mix.
    let b1 = on(
        &genesis,
        10,
        (1..=30).map(|i| free(i, 41 - i, 100 + i, 0)).collect(),
    );
    let b2 = on(&b1, 11, (5..=15).map(|i| free(i, 300 + i, 9, 1)).collect());
    let b3 = on(&b2, 12, vec![free(40, 1, 1_000, 0), free(40, 2, 1_000, 1)]);

    let mut forked = Chain::new(genesis.clone(), cfg.clone(), machine());
    for block in [&a1, &a2] {
        forked.import(block.clone()).expect("valid block");
    }
    let on_losing_branch = forked.machine().state_root();
    assert_eq!(forked.machine().db.balance(&user(3)), 0);
    forked.import(b1.clone()).expect("stored as a side chain");
    forked
        .import(b2.clone())
        .expect("ties: the first seen stays");
    assert_eq!(forked.machine().state_root(), on_losing_branch);
    let event = forked.import(b3.clone()).expect("valid block");
    assert!(matches!(event, ChainEvent::Reorg { .. }), "{event:?}");
    assert_eq!(forked.tip_hash(), b3.hash());
    assert_eq!(forked.stats().reorgs, 1);

    let mut straight = Chain::new(genesis, cfg, machine());
    for block in [&b1, &b2, &b3] {
        straight.import(block.clone()).expect("valid block");
    }
    assert_eq!(
        forked.machine().state_root(),
        straight.machine().state_root()
    );
    assert_ne!(forked.machine().state_root(), on_losing_branch);
    for i in (1..=40).chain([100, 205, 310]) {
        let (a, b) = (&forked.machine().db, &straight.machine().db);
        assert_eq!(a.account(&user(i)), b.account(&user(i)), "account {i}");
    }
    assert_eq!(
        forked.machine().db.entry_count(),
        straight.machine().db.entry_count()
    );
}

/// Catch-up sync is a door like gossip: a recovering PoS peer handed a
/// page whose block is sealed by a validator that did not win the slot must
/// refuse it before import — the chain itself cannot judge a stake seal.
#[test]
fn forged_stake_seal_is_refused_through_catch_up_sync() {
    use dcs_net::{Action, Ctx, Protocol};
    use dcs_primitives::Seal;

    let cfg = ChainConfig {
        consensus: ConsensusKind::ProofOfStake { slot_us: 2_000_000 },
        ..ChainConfig::ethereum_like()
    };
    let n = 4;
    let table = StakeTable::new(
        (0..n).map(|i| Address::from_index(i as u64)).collect(),
        vec![100; n],
        cfg.chain_id,
    );
    let genesis = dcs_chain::genesis_block(&cfg);
    let (alice, bob) = (Address::from_index(1_000), Address::from_index(2_000));
    let validator = |index: usize| {
        PosNode::new(
            NodeId(index),
            genesis.clone(),
            cfg.clone(),
            AccountMachine::with_alloc(&[(alice, 1_000_000)]),
            table.clone(),
            index,
        )
    };

    // A validator that lost slot 1 seals a block for it anyway — a well
    // formed block with a real transfer and its own honest lottery proof.
    let slot = 1;
    let loser = (table.slot_leader(slot) + 1) % n;
    let mut forger = validator(loser);
    let transfer = Transaction::Account(AccountTx::transfer(alice, bob, 500, 0));
    assert!(forger
        .core
        .mempool
        .insert(SealedTx::new(Arc::new(transfer))));
    let proof = table.slot_proof(slot, &forger.core.address);
    let forged = forger.core.build_block(Seal::Stake { slot, proof }, at(2));
    assert_eq!(forged.txs.len(), 2, "coinbase + the transfer");

    let victim_index = (loser + 1) % n;
    let mut victim = validator(victim_index);
    let neighbors: Vec<NodeId> = (0..n).filter(|i| *i != victim_index).map(NodeId).collect();
    let mut rng = dcs_sim::Rng::seed_from(1);
    let mut actions = Vec::new();
    let mut ctx = Ctx::new(victim.core.id, at(3), &neighbors, &mut rng, &mut actions);
    victim.on_restart(&mut ctx);
    let page = WireMsg::SyncResponse {
        blocks: vec![forged],
        tip_height: 1,
    };
    victim.on_message(neighbors[0], page, &mut ctx);

    assert_eq!(victim.core.chain.tip_hash(), genesis.hash());
    assert_eq!(victim.invalid_seals, 1);
    assert!(victim.core.included().is_empty());
    assert_eq!(victim.core.chain.machine().db.balance(&bob), 0);
    assert_eq!(victim.core.chain.machine().db.balance(&alice), 1_000_000);
    // Still behind, the peer asks someone else instead of the forger again.
    let asked: Vec<NodeId> = actions
        .iter()
        .filter_map(|a| match a {
            Action::Send {
                to,
                msg: WireMsg::SyncRequest { .. },
                ..
            } => Some(*to),
            _ => None,
        })
        .collect();
    assert_eq!(asked, vec![neighbors[0], neighbors[1]]);
}

/// The PoET security concern ([41]): a compromised enclave that shortens
/// its waits wins a disproportionate share of blocks — decentralization
/// quietly collapses even though the protocol "works".
#[test]
fn poet_cheater_captures_block_production() {
    let mut params = NetworkParams::<Poet> {
        nodes: 8,
        // Node 0's enclave draws waits 4x shorter than honest peers.
        engine: Poet {
            cheat_factors: vec![0.25, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        },
        ..Default::default()
    };
    params.chain.consensus = ConsensusKind::ProofOfElapsedTime {
        mean_wait_us: 8 * 5_000_000,
    };
    let mut runner = build(&params, 99, |_| NullMachine);
    runner.run_until(at(1_500));
    let result = collect(
        runner.nodes(),
        &std::collections::HashMap::new(),
        SimDuration::from_secs(1_500),
    );

    let cheater_share = result.proposer_counts[0] as f64 / result.canonical_blocks.max(1) as f64;
    // An honest peer would hold 1/8 = 12.5%; a 4x cheater converges to
    // 4/(4+7) ≈ 36%.
    assert!(
        cheater_share > 0.25,
        "cheater should dominate production, got {cheater_share:.2}"
    );
    assert!(
        result.nakamoto <= 3,
        "decentralization collapses: nakamoto {}",
        result.nakamoto
    );
    assert!(result.replicas_agree, "the chain itself still converges");
}

/// Analytics over a live simulated network: the middleware report matches
/// the metric suite's counts.
#[test]
fn analytics_agree_with_metrics() {
    let params = NetworkParams::<Ordering> {
        nodes: 4,
        ..Default::default()
    };
    let mut runner = build(&params, 3, |_| NullMachine);
    let submitted = dcs_ledger::workload::Workload::transfers(50.0, SimDuration::from_secs(10), 20)
        .inject(runner.net_mut(), 1);
    runner.run_until(at(30));
    let result = collect(runner.nodes(), &submitted, SimDuration::from_secs(10));
    let report = dcs_middleware::analytics::analyze(&runner.nodes()[0].core().chain);
    assert_eq!(report.transactions, result.committed_txs);
    assert_eq!(report.blocks, result.canonical_blocks);
    assert!(report.mean_block_utilization > 0.0);
}

/// The one channel settlement (§5.4, [30]) under both of its compositions.
/// Wired through consensus, every close — cooperative, or disputed and won
/// by the watchtower — pays out the *latest* co-signed split, so the
/// off-chain payments count and no value appears or vanishes (cooperative
/// closes used to carry no state and paid out the opening split). Applied
/// in process, an open whose second party is underfunded costs neither
/// party anything (it used to keep the first party's escrow).
#[test]
fn channel_settlement_pays_latest_split_and_refuses_opens_atomically() {
    use dcs_ledger::{run_channel_workload, ChannelWorkloadParams};

    let params = ChannelWorkloadParams::default();
    let report = run_channel_workload(&params, 17);
    assert!(report.app_stats.coop_closes > 0 && report.app_stats.finalized > 0);
    assert!(report.offchain_updates > 0, "the splits must have moved");
    assert_eq!(
        report.payout_mismatches, 0,
        "every channel must settle at its latest co-signed split"
    );
    assert_eq!(report.onchain_total, params.parties as u64 * params.funding);

    let mut net = dcs_scale::ChannelNetwork::new(10);
    let a = net.add_party([1; 32], 2, 1_000);
    let b = net.add_party([2; 32], 2, 10);
    assert!(net.open_channel(a, b, 500, 500).is_err());
    assert_eq!(
        net.settlement().balance(&a),
        1_000,
        "a's escrow must not leak"
    );
    assert_eq!(net.settlement().balance(&b), 10);
    assert_eq!(net.onchain_txs, 0);
}
