//! Blockchain 2.0 (§3.2 of the paper): a decentralized application.
//!
//! Deploys the paper's §2.5 greeter ("Hello World") and a fungible token
//! contract on an account-model ledger, exercises the gas economics —
//! state-writing calls cost gas paid to the proposer, the constant `say()`
//! is free — and watches contract events through the middleware event bus.
//!
//! Run with: `cargo run --example dapp_token`

use dcs_chain::Chain;
use dcs_contracts::{exec, stdlib, AccountMachine};
use dcs_crypto::{sha256, Address};
use dcs_middleware::{EventBus, EventFilter};
use dcs_primitives::{AccountTx, Block, BlockHeader, ChainConfig, Seal, Transaction};

fn seal_block(chain: &mut Chain<AccountMachine>, txs: Vec<Transaction>) {
    let header = BlockHeader::new(
        chain.tip_hash(),
        chain.height() + 1,
        chain.height() + 1,
        Address::from_index(999), // block proposer: collects the gas fees
        Seal::Authority {
            view: 0,
            sequence: chain.height() + 1,
            votes: 1,
        },
    );
    chain.import(Block::new(header, txs)).expect("valid block");
}

fn main() {
    let alice = Address::from_index(1);
    let bob = Address::from_index(2);
    let proposer = Address::from_index(999);

    // A permissioned 2.0 chain; the account machine charges gas by its
    // default schedule (Ethereum-style economics).
    let cfg = ChainConfig::hyperledger_like();
    let genesis = dcs_chain::genesis_block(&cfg);
    let machine = AccountMachine::with_alloc(&[(alice, 1_000_000_000), (bob, 1_000_000_000)]);
    let mut chain = Chain::new(genesis, cfg, machine);
    let mut bus = EventBus::new();

    // --- Deploy the greeter and the token in block 1. ---
    let greeter_deploy = AccountTx::deploy(alice, stdlib::greeter(), 0, 10_000_000);
    let greeter_addr = greeter_deploy.contract_address();
    let token_deploy = AccountTx::deploy(alice, stdlib::token(), 1, 10_000_000);
    let token_addr = token_deploy.contract_address();
    seal_block(
        &mut chain,
        vec![
            Transaction::Account(greeter_deploy),
            Transaction::Account(token_deploy),
        ],
    );
    println!("greeter deployed at {greeter_addr}");
    println!("token   deployed at {token_addr}");

    // Subscribe to everything the token emits.
    let token_events = bus.subscribe(EventFilter::contract(token_addr));

    // --- Block 2: setGreeting + mint + transfer. ---
    seal_block(
        &mut chain,
        vec![
            Transaction::Account(AccountTx::call(
                alice,
                greeter_addr,
                stdlib::greeter_set_input("hello, distributed world"),
                0,
                2,
                1_000_000,
            )),
            Transaction::Account(AccountTx::call(
                alice,
                token_addr,
                stdlib::token_mint_input(10_000),
                0,
                3,
                1_000_000,
            )),
            Transaction::Account(AccountTx::call(
                alice,
                token_addr,
                stdlib::token_transfer_input(&bob, 2_500),
                0,
                4,
                1_000_000,
            )),
        ],
    );

    // Fan receipts out to subscribers.
    for (block, receipts) in chain.drain_receipts() {
        bus.publish_block(block, &receipts);
        for r in &receipts {
            if r.gas_used > 0 {
                println!(
                    "tx {}…: {:?}, gas {}, fee {} → proposer",
                    &r.tx_id.to_string()[..8],
                    r.status,
                    r.gas_used,
                    r.fee_paid
                );
            }
        }
    }
    println!("token events observed: {}", bus.drain(token_events).len());

    // --- The free read path (§2.5: "it does not cost gas to execute"). ---
    let db = &mut chain.machine_mut().db;
    let greeting =
        exec::query(db, &greeter_addr, &alice, &stdlib::greeter_say_input()).expect("say() runs");
    println!(
        "say() → {:?}   (read-only: zero gas)",
        dcs_contracts::Word(greeting.try_into().expect("one word")).to_trimmed_string()
    );
    let bal = |db: &mut dcs_state::AccountDb, who: &Address| {
        let out = exec::query(db, &token_addr, who, &stdlib::token_balance_input(who)).unwrap();
        dcs_contracts::Word(out.try_into().expect("one word")).as_u64()
    };
    println!(
        "token balances: alice={}, bob={}",
        bal(db, &alice),
        bal(db, &bob)
    );
    println!("proposer fee revenue: {}", db.balance(&proposer));

    // Notarize a document hash for good measure (the 1-line ÐApp).
    let doc = sha256(b"Q3 audited financial statement");
    println!("document digest anchored: {doc}");
}
