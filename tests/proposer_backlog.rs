//! A proposer drains its backlog without recursion. This lives in a test
//! binary of its own: an ordering peer that recursed after every cut
//! overflowed its stack on one failing transaction, which aborts the whole
//! process and with it every test sharing the binary.

use dcs_consensus::WireMsg;
use dcs_contracts::AccountMachine;
use dcs_crypto::{Address, KeyPair};
use dcs_ledger::builders::Ordering;
use dcs_ledger::{build, LedgerNode, NetworkParams};
use dcs_net::NodeId;
use dcs_primitives::{AccountTx, ConsensusKind, GasSchedule, SealedTx, Transaction, TxAuth};
use dcs_sim::{SimDuration, SimTime};
use std::sync::Arc;

/// Four ordering peers cutting one-transaction batches, and one transfer
/// signed with another key handed to peer 1 beside a valid one. The pools
/// verify nothing at admission, so the orderer seals the forgery; the
/// block fails in state application, the tip stays, and the pool is as it
/// was. A drain that cut again whenever a full batch was pending recursed
/// on that unchanged pool until the stack overflowed. Now a cut that does
/// not move the tip ends the drain: the run reaches its horizon, and each
/// batch tick poisons at most one block.
#[test]
fn a_failing_batch_ends_the_drain_instead_of_recursing() {
    let mut alice_keys = KeyPair::generate([51u8; 32], 2);
    let mallory_keys = KeyPair::generate([52u8; 32], 2);
    let (alice, mallory) = (alice_keys.address(), mallory_keys.address());
    let bob = Address::from_index(7_000);
    let batch_timeout_us = 200_000;
    let mut params = NetworkParams::<Ordering> {
        nodes: 4,
        ..Default::default()
    };
    params.net.nodes = 4;
    params.chain.gas = GasSchedule::free();
    params.chain.consensus = ConsensusKind::Ordering {
        batch_size: 1,
        batch_timeout_us,
        rotate_every: 0,
    };
    let mut runner = build(&params, 23, |_| {
        let mut machine = AccountMachine::with_alloc(&[(alice, 1_000_000), (mallory, 1_000_000)]);
        machine.schedule = GasSchedule::free();
        machine.verify_signatures = true;
        machine
    });

    // `from`'s transfer, carrying `pubkey` and a signature by alice's key.
    let alice_key = alice_keys.public_key();
    let mut signed = |from: Address, pubkey| {
        let mut tx = AccountTx::transfer(from, bob, 250, 0);
        tx.gas_limit = 0;
        tx.gas_price = 0;
        let signing_hash = Transaction::Account(tx.clone()).signing_hash();
        tx.auth = Some(TxAuth {
            pubkey,
            signature: alice_keys.sign(&signing_hash).unwrap(),
        });
        SealedTx::new(Arc::new(Transaction::Account(tx)))
    };
    let valid = signed(alice, alice_key);
    let forged = signed(mallory, mallory_keys.public_key());
    let at = |secs: u64| SimTime::ZERO + SimDuration::from_secs(secs);
    for tx in [valid, forged] {
        let msg = WireMsg::Tx(tx);
        let size = dcs_consensus::wire_size(&msg);
        runner.net_mut().inject(at(1), NodeId(1), msg, size);
    }
    let horizon = 5;
    runner.run_until(at(horizon));

    let orderer = runner.node(NodeId(0)).core();
    let poisoned = orderer.chain.stats().invalid_blocks;
    assert!(poisoned > 0, "the forgery was sealed");
    let ticks = horizon * 1_000_000 / batch_timeout_us;
    assert!(
        poisoned <= ticks + 2,
        "{poisoned} poisoned blocks in {ticks} batch ticks"
    );
}
