//! Undo history that ends at finality changes nothing a chain reports. A
//! chain whose undo records stop `confirmation_depth` blocks down — so a
//! deeper reorg resets the machine and replays the canonical prefix from
//! stored bodies — is held to a chain that never finalizes anything and
//! reverts every reorg through its undo records. Over random fork/reorg
//! sequences of gas-charged transfers on a funded `AccountMachine`, with
//! ancestors below the window and `rebuild_from_store` mid-sequence, the two
//! agree on every import's outcome, tip, canonical chain, state root,
//! drained receipts, `ChainStats` and `CanonStats`.

use dcs_chain::{Chain, StateMachine};
use dcs_contracts::AccountMachine;
use dcs_crypto::Address;
use dcs_primitives::{AccountTx, Block, BlockHeader, ChainConfig, Seal, Transaction};
use proptest::prelude::*;
use std::sync::Arc;

const ACCOUNTS: u64 = 4;
const FUNDS: u64 = 1_000_000;

/// One block of the sequence: the block is made on the ancestor `back`
/// blocks below the last block made, carries `transfers` gas-charged
/// transfers (from senders picked by `salt`, at the sender's nonce on that
/// branch, except every fifth one, which replays a stale nonce), and if
/// `rebuild` both chains cold-rebuild from their stores after importing it.
#[derive(Debug, Clone)]
struct Step {
    back: usize,
    transfers: usize,
    salt: u64,
    rebuild: bool,
}

fn arb_step() -> impl Strategy<Value = Step> {
    // Seven steps in ten extend the newest block, so a fork that starts
    // deep grows until it overtakes the main chain.
    let steps = (0usize..40, 0usize..5, any::<u64>(), 0u8..12);
    steps.prop_map(|(back, transfers, salt, rebuild)| Step {
        back: back.saturating_sub(27),
        transfers,
        salt,
        rebuild: rebuild == 0,
    })
}

/// A made block with the sender nonces of its branch after it.
struct Made {
    block: Arc<Block>,
    parent: usize,
    nonces: [u64; ACCOUNTS as usize],
}

fn make(blocks: &[Made], parent: usize, index: usize, step: &Step) -> Made {
    let parent_block = &blocks[parent].block;
    let height = parent_block.header.height + 1;
    let proposer = Address::from_index(100 + step.salt % 3);
    let mut nonces = blocks[parent].nonces;
    let mut txs = vec![Transaction::Coinbase {
        to: proposer,
        value: 50,
        height,
    }];
    for i in 0..step.transfers {
        let mix = step.salt.rotate_left(8 * i as u32);
        let from = (mix % ACCOUNTS) as usize;
        let to = Address::from_index((mix >> 8) % ACCOUNTS);
        let value = 1 + (mix >> 16) % 40_000; // sometimes more than is left
        let nonce = if i % 5 == 4 {
            nonces[from].saturating_sub(1)
        } else {
            nonces[from]
        };
        let from_addr = Address::from_index(from as u64);
        txs.push(Transaction::Account(AccountTx::transfer(
            from_addr, to, value, nonce,
        )));
        if nonce == nonces[from] {
            nonces[from] += 1;
        }
    }
    let header = BlockHeader::new(
        parent_block.hash(),
        height,
        index as u64,
        proposer,
        Seal::None,
    );
    Made {
        block: Arc::new(Block::new(header, txs)),
        parent,
        nonces,
    }
}

fn machine() -> AccountMachine {
    let alloc: Vec<(Address, u64)> = (0..ACCOUNTS)
        .map(|i| (Address::from_index(i), FUNDS))
        .collect();
    AccountMachine::with_alloc(&alloc)
}

fn assert_same(
    windowed: &mut Chain<AccountMachine>,
    reference: &mut Chain<AccountMachine>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(windowed.tip_hash(), reference.tip_hash());
    prop_assert_eq!(windowed.canonical(), reference.canonical());
    prop_assert_eq!(
        windowed.machine().state_root(),
        reference.machine().state_root()
    );
    prop_assert_eq!(windowed.drain_receipts(), reference.drain_receipts());
    prop_assert_eq!(windowed.stats(), reference.stats());
    prop_assert_eq!(windowed.canon_stats(), reference.canon_stats());
    prop_assert_eq!(windowed.stats().internal_errors, 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 128 }))]

    #[test]
    fn windowed_history_matches_a_chain_that_never_finalizes(
        depth in 0u64..4,
        steps in proptest::collection::vec(arb_step(), 1..48),
    ) {
        let mut cfg = ChainConfig::bitcoin_like();
        cfg.confirmation_depth = depth;
        let genesis = Arc::new(dcs_chain::genesis_block(&cfg));
        let mut windowed = Chain::new(Arc::clone(&genesis), cfg.clone(), machine());
        cfg.confirmation_depth = u64::MAX;
        let mut reference = Chain::new(Arc::clone(&genesis), cfg, machine());

        let mut blocks = vec![Made {
            block: genesis,
            parent: 0,
            nonces: [0; ACCOUNTS as usize],
        }];
        for (index, step) in steps.iter().enumerate() {
            let mut parent = blocks.len() - 1;
            for _ in 0..step.back {
                parent = blocks[parent].parent;
            }
            let made = make(&blocks, parent, index + 1, step);
            let event = windowed.import(Arc::clone(&made.block));
            prop_assert!(event.is_ok(), "import failed: {:?}", event);
            prop_assert_eq!(event, reference.import(Arc::clone(&made.block)));
            blocks.push(made);
            if step.rebuild {
                prop_assert_eq!(windowed.rebuild_from_store(), Ok(()));
                prop_assert_eq!(reference.rebuild_from_store(), Ok(()));
            }
            assert_same(&mut windowed, &mut reference)?;
        }
    }
}
