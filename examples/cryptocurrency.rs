//! Blockchain 1.0 (§3.1 of the paper): cryptocurrency end to end.
//!
//! A UTXO ledger with *actually mined* proof-of-work blocks (real nonce
//! grinding at demo difficulty), witness-verified spends signed with
//! hash-based signatures, an SPV light wallet verifying a payment from
//! headers + a Merkle proof, and the privacy epilogue: taint tracing of a
//! "stolen" coin and its rehabilitation through a mixer.
//!
//! Run with: `cargo run --example cryptocurrency`

use dcs_chain::Chain;
use dcs_consensus::pow::mine_real;
use dcs_contracts::machine::UtxoMachine;
use dcs_crypto::{Address, Hash256, KeyPair, MerkleTree};
use dcs_primitives::{
    Block, BlockHeader, ChainConfig, Seal, Transaction, TxAuth, TxIn, TxOut, UtxoTx,
};
use dcs_privacy::TaintTracker;
use dcs_scale::light::LightClient;
use dcs_state::OutPoint;

const DIFFICULTY: u64 = 1 << 12; // ~4k hash attempts per block: instant demo

fn mine_block(chain: &mut Chain<UtxoMachine>, miner: Address, txs: Vec<Transaction>) -> Block {
    let mut body = vec![Transaction::Coinbase {
        to: miner,
        value: 50_0000_0000,
        height: chain.height() + 1,
    }];
    body.extend(txs);
    let template = Block::new(
        BlockHeader::new(
            chain.tip_hash(),
            chain.height() + 1,
            chain.height() + 1,
            miner,
            Seal::None,
        ),
        body,
    );
    let (header, attempts) = mine_real(template.header.clone(), DIFFICULTY, 0);
    let block = Block::from_parts(header, template.txs);
    println!(
        "mined block {} with {} hash attempts → {}",
        block.header.height,
        attempts,
        block.hash()
    );
    chain.import(block.clone()).expect("mined block is valid");
    block
}

fn main() {
    // Wallets: hash-based many-time keys (Merkle-WOTS).
    let mut alice = KeyPair::generate([1u8; 32], 4);
    let mut _bob = KeyPair::generate([2u8; 32], 4);
    let miner = Address::from_index(9);

    let cfg = ChainConfig::bitcoin_like();
    let genesis = dcs_chain::genesis_block(&cfg);
    let mut machine = UtxoMachine::new();
    machine.set = dcs_state::UtxoSet::with_witness_verification();
    let alice_coin = machine.set.mint(alice.address(), 100_0000_0000); // genesis allocation
    let mut chain = Chain::new(genesis.clone(), cfg, machine);
    let mut headers = vec![genesis.header.clone()];
    chain.check_pow_hash = true; // demand real proofs of work

    // --- Alice pays Bob 30, signed, mined into block 1. ------------------
    let mut payment = UtxoTx {
        inputs: vec![TxIn {
            prev_tx: alice_coin.tx,
            index: alice_coin.index,
            auth: None,
        }],
        outputs: vec![
            TxOut {
                value: 30_0000_0000,
                recipient: _bob.address(),
            },
            TxOut {
                value: 70_0000_0000,
                recipient: alice.address(),
            },
        ],
    };
    let signing = Transaction::Utxo(payment.clone()).signing_hash();
    let sig = alice.sign(&signing).expect("keys remain");
    payment.inputs[0].auth = Some(TxAuth {
        pubkey: alice.public_key(),
        signature: sig,
    });
    let payment = Transaction::Utxo(payment);
    let payment_id = payment.id();

    let b1 = mine_block(&mut chain, miner, vec![payment.clone()]);
    headers.push(b1.header.clone());
    for _ in 0..3 {
        let b = mine_block(&mut chain, miner, vec![]);
        headers.push(b.header.clone());
    }
    println!(
        "bob's balance (full node scan): {}",
        chain.machine().set.balance_of(&_bob.address())
    );

    // --- Bob's SPV wallet: headers + one Merkle proof. --------------------
    let mut wallet = LightClient::new(genesis.header.clone());
    wallet.check_pow = true; // the wallet validates the actual PoW
    wallet.sync(&headers[1..]).expect("mined headers verify");
    let leaves: Vec<Hash256> = b1.txs.iter().map(Transaction::id).collect();
    let index = leaves.iter().position(|l| *l == payment_id).unwrap();
    let proof = MerkleTree::from_leaves(leaves).prove(index).unwrap();
    let included = wallet.verify_inclusion(&payment_id, 1, &proof).unwrap();
    println!(
        "SPV wallet: payment included at height 1 = {included}, confirmations = {}, downloaded {} bytes (vs ~{} for full blocks)",
        wallet.confirmations(1).unwrap(),
        wallet.bytes_downloaded,
        b1.encoded_len() * headers.len()
    );

    // --- Privacy epilogue: taint and mixing (§5.3). -----------------------
    let mut taint = TaintTracker::new();
    let stolen = OutPoint {
        tx: payment_id,
        index: 0,
    }; // suppose Bob's coin is flagged
    taint.add_clean(stolen, 30_0000_0000);
    taint.mark_tainted(stolen);
    println!(
        "\nexchange flags bob's coin: taint = {:.2}",
        taint.taint_of(&stolen)
    );
    // Two 1:1 mixes launder it down.
    let mut current = stolen;
    for round in 0..2 {
        let fresh = OutPoint {
            tx: dcs_crypto::sha256(&[round]),
            index: 0,
        };
        taint.add_clean(fresh, 30_0000_0000);
        let mix = UtxoTx {
            inputs: vec![
                TxIn {
                    prev_tx: current.tx,
                    index: current.index,
                    auth: None,
                },
                TxIn {
                    prev_tx: fresh.tx,
                    index: fresh.index,
                    auth: None,
                },
            ],
            outputs: vec![
                TxOut {
                    value: 30_0000_0000,
                    recipient: Address::from_index(50),
                },
                TxOut {
                    value: 30_0000_0000,
                    recipient: Address::from_index(51),
                },
            ],
        };
        let id = Transaction::Utxo(mix.clone()).id();
        taint.apply(&mix, id);
        current = OutPoint { tx: id, index: 0 };
        println!(
            "after mix round {}: taint = {:.2}",
            round + 1,
            taint.taint_of(&current)
        );
    }
    println!(
        "fungibility restored: the exchange's >50% taint filter now passes this coin: {}",
        taint.taint_of(&current) <= 0.5
    );
}
