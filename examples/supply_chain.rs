//! Blockchain 3.0 (§3.3 of the paper): a pervasive consortium application —
//! supply-chain management across the blockchain stack (Fig. 3).
//!
//! * Contract layer: Fig. 3's trade-network registry tracks commodity
//!   ownership.
//! * System/data layers: a permissioned ledger executes and commits it.
//! * Middleware: the event bus notifies the retailer; analytics read the
//!   committed ledger.
//! * Privacy: the financial settlement runs on a separate channel, with an
//!   atomic cross-channel swap (goods channel ↔ payment channel).
//!
//! Run with: `cargo run --example supply_chain`

use dcs_chain::Chain;
use dcs_contracts::{exec, stdlib, AccountMachine, Word};
use dcs_crypto::Address;
use dcs_middleware::{EventBus, EventFilter};
use dcs_primitives::{AccountTx, Block, BlockHeader, ChainConfig, GasSchedule, Seal, Transaction};
use dcs_privacy::{commitments::Hashlock, MultiChannel};

fn seal_block(chain: &mut Chain<AccountMachine>, txs: Vec<Transaction>) {
    let header = BlockHeader::new(
        chain.tip_hash(),
        chain.height() + 1,
        chain.height() + 1,
        Address::from_index(999),
        Seal::Authority {
            view: 0,
            sequence: chain.height() + 1,
            votes: 1,
        },
    );
    chain.import(Block::new(header, txs)).expect("valid block");
}

fn main() {
    let producer = Address::from_index(1);
    let shipper = Address::from_index(2);
    let retailer = Address::from_index(3);

    // --- The goods ledger: trade registry contract. ---------------------
    let mut cfg = ChainConfig::hyperledger_like();
    cfg.gas = GasSchedule::free();
    let genesis = dcs_chain::genesis_block(&cfg);
    // Balances must cover the *offered* gas (limit × price) up-front, even
    // though the free schedule refunds it all.
    let mut machine = AccountMachine::with_alloc(&[
        (producer, 100_000_000),
        (shipper, 100_000_000),
        (retailer, 100_000_000),
    ]);
    machine.schedule = GasSchedule::free(); // consortium: metered by policy

    let mut goods = Chain::new(genesis, cfg, machine);
    let mut bus = EventBus::new();

    let deploy = AccountTx::deploy(producer, stdlib::trade_registry(), 0, 10_000_000);
    let registry_addr = deploy.contract_address();
    seal_block(&mut goods, vec![Transaction::Account(deploy)]);
    let shipment_events = bus.subscribe(EventFilter::contract(registry_addr));

    // Producer registers the shipment, then trades it down the chain.
    let call = |from: Address, input: Vec<u8>, nonce: u64| {
        Transaction::Account(AccountTx::call(
            from,
            registry_addr,
            input,
            0,
            nonce,
            1_000_000,
        ))
    };
    seal_block(
        &mut goods,
        vec![call(
            producer,
            stdlib::trade_input(1, "GRAIN-LOT-7", None),
            1,
        )],
    );
    seal_block(
        &mut goods,
        vec![call(
            producer,
            stdlib::trade_input(2, "GRAIN-LOT-7", Some(&shipper)),
            2,
        )],
    );
    seal_block(
        &mut goods,
        vec![call(
            shipper,
            stdlib::trade_input(2, "GRAIN-LOT-7", Some(&retailer)),
            0,
        )],
    );

    for (block, receipts) in goods.drain_receipts() {
        bus.publish_block(block, &receipts);
    }
    println!(
        "shipment events delivered to the retailer's subscription: {}",
        bus.drain(shipment_events).len()
    );
    let owner = exec::query(
        &mut goods.machine_mut().db,
        &registry_addr,
        &retailer,
        &stdlib::trade_input(0, "GRAIN-LOT-7", None),
    )
    .expect("ownerOf runs");
    let owner = Word(owner.try_into().expect("one word")).as_address();
    assert_eq!(owner, retailer);
    println!("on-chain owner of GRAIN-LOT-7: retailer ✓");

    // --- Settlement: atomic swap across privacy domains (§5.3, E14). -----
    let mut channels = MultiChannel::new();
    let goods_ch = channels.create_channel(
        "goods-tokens",
        vec![producer, retailer],
        &[(retailer, 0), (producer, 100)], // producer holds 100 grain tokens
    );
    let pay_ch =
        channels.create_channel("payments", vec![producer, retailer], &[(retailer, 50_000)]);
    let secret = b"delivery-confirmed-lot7";
    let lock = Hashlock::from_secret(secret);
    let h_goods = channels
        .lock(goods_ch, producer, retailer, 100, lock, 10)
        .unwrap();
    let h_pay = channels
        .lock(pay_ch, retailer, producer, 45_000, lock, 5)
        .unwrap();
    channels.claim(pay_ch, producer, h_pay, secret).unwrap();
    let revealed = channels
        .revealed_preimage(pay_ch, retailer, h_pay)
        .unwrap()
        .expect("preimage published on the payment channel");
    channels
        .claim(goods_ch, retailer, h_goods, &revealed)
        .unwrap();
    println!(
        "atomic settlement: producer received {} (payments channel), retailer received {} grain tokens (goods channel)",
        channels.balance(pay_ch, producer, producer).unwrap(),
        channels.balance(goods_ch, retailer, retailer).unwrap(),
    );

    // --- Analytics over the goods ledger. --------------------------------
    let report = dcs_middleware::analytics::analyze(&goods);
    println!(
        "goods ledger: {} blocks, {} transactions, mean utilization {:.1} tx/block",
        report.blocks, report.transactions, report.mean_block_utilization
    );
}
