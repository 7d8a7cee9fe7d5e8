//! The transaction executor: turns an [`AccountTx`] into state changes and a
//! [`Receipt`], enforcing the paper's §2.5 gas economics — execution costs
//! are metered per operation and "paid to the miner", failed executions are
//! rolled back but still pay for the gas they burned, and read-only queries
//! ([`query`]) are free because "it only reads existing information".

use crate::vm::{ExecEnv, Vm, VmError};
use dcs_crypto::{Address, Hash256};
use dcs_primitives::{
    AccountTx, Amount, Block, GasSchedule, Receipt, Transaction, TxPayload, TxStatus,
};
use dcs_state::{AccountDb, StateError};

/// Block-context parameters for execution.
#[derive(Debug, Clone, Copy)]
pub struct BlockCtx {
    /// The block proposer, who collects fees.
    pub proposer: Address,
    /// Block timestamp (µs).
    pub timestamp_us: u64,
    /// Block height.
    pub height: u64,
}

/// Executes one account transaction against `db`.
///
/// Soft failures (bad nonce, insufficient balance, VM revert/out-of-gas)
/// produce a `Failed` receipt — gas burned by the VM is still charged, as in
/// Ethereum. The caller handles hard failures (invalid witnesses) before
/// calling, via [`verify_witness`].
pub fn execute_tx(
    db: &mut AccountDb,
    tx: &AccountTx,
    tx_id: Hash256,
    ctx: &BlockCtx,
    schedule: &GasSchedule,
) -> Receipt {
    let payload_len = match &tx.payload {
        TxPayload::Transfer => 0,
        TxPayload::Deploy(code) => code.len(),
        TxPayload::Call(input) => input.len(),
        TxPayload::Data(data) => data.len(),
    };
    let intrinsic = schedule.intrinsic(payload_len);
    if tx.gas_limit < intrinsic {
        return Receipt::failed(tx_id, "gas limit below intrinsic cost");
    }
    let upfront = tx
        .value
        .saturating_add(tx.gas_limit.saturating_mul(tx.gas_price));
    // Nonce bump and upfront charge: one read and one write of the sender.
    match db.charge_sender(&tx.from, tx.nonce, upfront) {
        Ok(()) => {}
        Err(StateError::BadNonce { expected, got }) => {
            return Receipt::failed(tx_id, format!("bad nonce: expected {expected}, got {got}"));
        }
        Err(_) => return Receipt::failed(tx_id, "insufficient balance for value + gas"),
    }

    // Everything inside this snapshot is reverted on failure; the nonce
    // bump and gas charge above survive.
    let snapshot = db.snapshot();
    let mut logs = Vec::new();
    let mut gas_used = intrinsic;
    let outcome: Result<(), String> = match &tx.payload {
        TxPayload::Transfer => match tx.to {
            Some(to) => {
                db.credit(&to, tx.value);
                Ok(())
            }
            None => Err("transfer without recipient".into()),
        },
        TxPayload::Data(_) => {
            // Anchoring data on-chain: the bytes live in the block; the
            // intrinsic per-byte charge is the whole cost.
            Ok(())
        }
        TxPayload::Deploy(code) => {
            let deploy_gas = schedule.deploy_byte.saturating_mul(code.len() as Amount);
            gas_used = gas_used.saturating_add(deploy_gas);
            if gas_used > tx.gas_limit {
                Err("out of gas during deploy".into())
            } else {
                let addr = tx.contract_address();
                db.set_code(&addr, code.clone());
                db.credit(&addr, tx.value);
                Ok(())
            }
        }
        TxPayload::Call(input) => match tx.to {
            None => Err("call without contract address".into()),
            Some(contract) => {
                db.credit(&contract, tx.value);
                match db.code(&contract).map(<[u8]>::to_vec) {
                    // Calling a plain account is just a transfer.
                    None => Ok(()),
                    Some(code) => {
                        let budget = tx.gas_limit - intrinsic;
                        let mut vm = Vm::new(schedule, budget);
                        let mut env = ExecEnv {
                            db,
                            contract,
                            caller: tx.from,
                            callvalue: tx.value,
                            input,
                            timestamp_us: ctx.timestamp_us,
                            height: ctx.height,
                        };
                        match vm.run(&code, &mut env) {
                            Ok(output) => {
                                gas_used = gas_used.saturating_add(output.gas_used);
                                logs = output.logs;
                                Ok(())
                            }
                            Err(e) => {
                                gas_used = gas_used.saturating_add(vm.gas_used()).min(tx.gas_limit);
                                Err(e.to_string())
                            }
                        }
                    }
                }
            }
        },
    };

    let status = match outcome {
        Ok(()) => TxStatus::Success,
        Err(reason) => {
            db.rollback(snapshot);
            TxStatus::Failed(reason)
        }
    };
    // Settle gas: refund the unused part, pay the proposer for the used part
    // — and, on failure, refund the value that was debited upfront.
    let gas_used = gas_used.min(tx.gas_limit);
    let fee = gas_used.saturating_mul(tx.gas_price);
    let mut refund = (tx.gas_limit - gas_used).saturating_mul(tx.gas_price);
    if !matches!(status, TxStatus::Success) {
        refund = refund.saturating_add(tx.value);
    }
    db.credit(&tx.from, refund);
    db.credit(&ctx.proposer, fee);

    Receipt {
        tx_id,
        status,
        gas_used,
        fee_paid: fee,
        logs,
    }
}

/// Verifies a transaction witness. Returns an error string for
/// block-invalidating problems (missing/forged signature while verification
/// is required).
pub fn verify_witness(tx: &Transaction) -> Result<(), String> {
    let Transaction::Account(acct) = tx else {
        return Ok(());
    };
    let auth = acct.auth.as_ref().ok_or("missing witness")?;
    if auth.pubkey.address() != acct.from {
        return Err("witness key does not match sender".into());
    }
    if !auth.pubkey.verify(&tx.signing_hash(), &auth.signature) {
        return Err("witness signature invalid".into());
    }
    Ok(())
}

/// Batch equivalent of [`verify_witness`] over a whole block body: the
/// stateless witness checks (key/sender match, signature validity) for every
/// account transaction run through `pipeline` — in parallel, and through its
/// signature cache. Accepts exactly the bodies the serial loop accepts, and
/// rejects with the same message the serial loop would produce first.
///
/// Signatures are checked against [`Block::signing_hashes`], hashed once per
/// block instance rather than once per importing peer; [`verify_witness`]
/// stays the from-scratch oracle.
///
/// Returns the number of signatures checked.
///
/// # Errors
///
/// The first (in block order) witness problem, as a block-invalidating
/// error string.
pub fn prevalidate_witnesses(
    block: &Block,
    pipeline: &dcs_crypto::VerifyPipeline,
) -> Result<usize, String> {
    let mut items: Vec<dcs_crypto::VerifyItem<'_>> = Vec::new();
    for (tx, signing_hash) in block.txs.iter().zip(block.signing_hashes()) {
        let Transaction::Account(acct) = tx else {
            continue;
        };
        let auth = acct.auth.as_ref().ok_or("missing witness")?;
        if auth.pubkey.address() != acct.from {
            return Err("witness key does not match sender".into());
        }
        items.push((&auth.pubkey, signing_hash, &auth.signature));
    }
    let verdicts = pipeline.verify_batch_refs(&items);
    if verdicts.contains(&false) {
        return Err("witness signature invalid".into());
    }
    Ok(items.len())
}

/// Executes a read-only contract call: runs the VM against the current
/// state, then rolls every change back. No gas is charged (the paper's
/// "constant" function semantics) — an internal meter still bounds runaway
/// loops.
///
/// # Errors
///
/// Returns the [`VmError`] if the contract traps or the address holds no
/// code.
pub fn query(
    db: &mut AccountDb,
    contract: &Address,
    caller: &Address,
    input: &[u8],
) -> Result<Vec<u8>, VmError> {
    let code = db
        .code(contract)
        .map(<[u8]>::to_vec)
        .ok_or(VmError::BadJump(0))?;
    let schedule = GasSchedule::default();
    let snapshot = db.snapshot();
    let mut vm = Vm::new(&schedule, 100_000_000);
    let mut env = ExecEnv {
        db,
        contract: *contract,
        caller: *caller,
        callvalue: 0,
        input,
        timestamp_us: 0,
        height: 0,
    };
    let result = vm.run(&code, &mut env).map(|o| o.data);
    db.rollback(snapshot);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_crypto::KeyPair;
    use dcs_primitives::TxAuth;

    fn ctx() -> BlockCtx {
        BlockCtx {
            proposer: Address::from_index(100),
            timestamp_us: 1_000,
            height: 3,
        }
    }

    fn fund(db: &mut AccountDb, addr: &Address, amount: Amount) {
        db.credit(addr, amount);
        db.clear_journal();
    }

    #[test]
    fn transfer_happy_path_settles_fees() {
        let mut db = AccountDb::new();
        let alice = Address::from_index(1);
        let bob = Address::from_index(2);
        fund(&mut db, &alice, 100_000);
        let tx = AccountTx::transfer(alice, bob, 1_000, 0);
        let r = execute_tx(&mut db, &tx, Hash256::ZERO, &ctx(), &GasSchedule::default());
        assert!(r.status.is_success());
        assert_eq!(r.gas_used, 21_000);
        assert_eq!(r.fee_paid, 21_000);
        assert_eq!(db.balance(&bob), 1_000);
        assert_eq!(db.balance(&alice), 100_000 - 1_000 - 21_000);
        assert_eq!(db.balance(&ctx().proposer), 21_000);
        assert_eq!(db.nonce(&alice), 1);
    }

    #[test]
    fn bad_nonce_rejected_without_state_change() {
        let mut db = AccountDb::new();
        let alice = Address::from_index(1);
        fund(&mut db, &alice, 100_000);
        let tx = AccountTx::transfer(alice, Address::from_index(2), 10, 5);
        let r = execute_tx(&mut db, &tx, Hash256::ZERO, &ctx(), &GasSchedule::default());
        assert!(!r.status.is_success());
        assert_eq!(db.balance(&alice), 100_000);
        assert_eq!(db.nonce(&alice), 0);
    }

    #[test]
    fn insufficient_balance_rejected() {
        let mut db = AccountDb::new();
        let alice = Address::from_index(1);
        fund(&mut db, &alice, 1_000); // can't cover 21k gas
        let tx = AccountTx::transfer(alice, Address::from_index(2), 10, 0);
        let r = execute_tx(&mut db, &tx, Hash256::ZERO, &ctx(), &GasSchedule::default());
        assert_eq!(
            r.status,
            TxStatus::Failed("insufficient balance for value + gas".into())
        );
    }

    #[test]
    fn deploy_then_call_greeter() {
        let mut db = AccountDb::new();
        let alice = Address::from_index(1);
        fund(&mut db, &alice, 10_000_000);
        let code = crate::stdlib::greeter();
        let deploy = AccountTx::deploy(alice, code, 0, 1_000_000);
        let contract = deploy.contract_address();
        let r = execute_tx(
            &mut db,
            &deploy,
            Hash256::ZERO,
            &ctx(),
            &GasSchedule::default(),
        );
        assert!(r.status.is_success(), "{:?}", r.status);
        assert!(db.code(&contract).is_some());

        // setGreeting("hello world") — costs gas.
        let set = AccountTx::call(
            alice,
            contract,
            crate::stdlib::greeter_set_input("hello world"),
            0,
            1,
            1_000_000,
        );
        let r = execute_tx(
            &mut db,
            &set,
            Hash256::ZERO,
            &ctx(),
            &GasSchedule::default(),
        );
        assert!(r.status.is_success(), "{:?}", r.status);
        assert!(
            r.gas_used > 21_000 + GasSchedule::default().storage_write,
            "writes cost storage gas, got {}",
            r.gas_used
        );
        assert_eq!(r.logs.len(), 1, "setGreeting emits an event");

        // say() via free query — the paper's "constant" function.
        let out = query(
            &mut db,
            &contract,
            &alice,
            &crate::stdlib::greeter_say_input(),
        )
        .unwrap();
        assert_eq!(
            crate::vm::Word(out.try_into().expect("32 bytes")).to_trimmed_string(),
            "hello world"
        );
    }

    #[test]
    fn reverted_call_rolls_back_but_charges_gas() {
        let mut db = AccountDb::new();
        let alice = Address::from_index(1);
        fund(&mut db, &alice, 10_000_000);
        // A contract that always reverts.
        let code = crate::assemble("push 0\npush 0\nrevert").unwrap();
        let deploy = AccountTx::deploy(alice, code, 0, 1_000_000);
        let contract = deploy.contract_address();
        execute_tx(
            &mut db,
            &deploy,
            Hash256::ZERO,
            &ctx(),
            &GasSchedule::default(),
        );

        let balance_before = db.balance(&alice);
        let call = AccountTx::call(alice, contract, vec![], 500, 1, 100_000);
        let r = execute_tx(
            &mut db,
            &call,
            Hash256::ZERO,
            &ctx(),
            &GasSchedule::default(),
        );
        assert!(!r.status.is_success());
        // Value came back; gas did not.
        assert_eq!(db.balance(&alice), balance_before - r.fee_paid);
        assert_eq!(db.balance(&contract), 0, "credited value rolled back");
        assert!(r.gas_used >= 21_000);
    }

    #[test]
    fn payable_call_credits_the_contract() {
        let mut db = AccountDb::new();
        let alice = Address::from_index(1);
        fund(&mut db, &alice, 10_000_000);
        let code = crate::assemble("stop").unwrap();
        let deploy = AccountTx::deploy(alice, code, 0, 1_000_000);
        let contract = deploy.contract_address();
        execute_tx(
            &mut db,
            &deploy,
            Hash256::ZERO,
            &ctx(),
            &GasSchedule::default(),
        );

        let balance_before = db.balance(&alice);
        let call = AccountTx::call(alice, contract, vec![], 500, 1, 100_000);
        let r = execute_tx(
            &mut db,
            &call,
            Hash256::ZERO,
            &ctx(),
            &GasSchedule::default(),
        );
        assert!(r.status.is_success(), "{:?}", r.status);
        assert_eq!(db.balance(&contract), 500);
        assert_eq!(db.balance(&alice), balance_before - 500 - r.fee_paid);
    }

    #[test]
    fn out_of_gas_call_fails_but_is_bounded_by_limit() {
        let mut db = AccountDb::new();
        let alice = Address::from_index(1);
        fund(&mut db, &alice, 10_000_000);
        let loop_code = crate::assemble(":top\njumpdest\npush @top\njump").unwrap();
        let deploy = AccountTx::deploy(alice, loop_code, 0, 1_000_000);
        let contract = deploy.contract_address();
        execute_tx(
            &mut db,
            &deploy,
            Hash256::ZERO,
            &ctx(),
            &GasSchedule::default(),
        );

        let call = AccountTx::call(alice, contract, vec![], 0, 1, 30_000);
        let r = execute_tx(
            &mut db,
            &call,
            Hash256::ZERO,
            &ctx(),
            &GasSchedule::default(),
        );
        assert!(!r.status.is_success());
        assert_eq!(r.gas_used, 30_000, "never exceeds the limit");
    }

    #[test]
    fn call_to_plain_account_is_a_transfer() {
        let mut db = AccountDb::new();
        let alice = Address::from_index(1);
        let bob = Address::from_index(2);
        fund(&mut db, &alice, 10_000_000);
        let call = AccountTx::call(alice, bob, vec![1, 2, 3], 700, 0, 50_000);
        let r = execute_tx(
            &mut db,
            &call,
            Hash256::ZERO,
            &ctx(),
            &GasSchedule::default(),
        );
        assert!(r.status.is_success());
        assert_eq!(db.balance(&bob), 700);
    }

    #[test]
    fn witness_verification() {
        let mut kp = KeyPair::generate([8u8; 32], 2);
        let mut acct = AccountTx::transfer(kp.address(), Address::from_index(2), 5, 0);
        let unsigned = Transaction::Account(acct.clone());
        assert!(verify_witness(&unsigned).is_err());

        let h = unsigned.signing_hash();
        let sig = kp.sign(&h).unwrap();
        acct.auth = Some(TxAuth {
            pubkey: kp.public_key(),
            signature: sig,
        });
        let signed = Transaction::Account(acct.clone());
        assert!(verify_witness(&signed).is_ok());

        // Forged sender.
        let mut forged = acct;
        forged.from = Address::from_index(99);
        assert!(verify_witness(&Transaction::Account(forged)).is_err());
    }

    #[test]
    fn data_anchor_costs_per_byte() {
        let mut db = AccountDb::new();
        let alice = Address::from_index(1);
        fund(&mut db, &alice, 10_000_000);
        let mut tx = AccountTx::transfer(alice, Address::from_index(2), 0, 0);
        tx.payload = TxPayload::Data(vec![0u8; 100]);
        tx.gas_limit = 50_000;
        let r = execute_tx(&mut db, &tx, Hash256::ZERO, &ctx(), &GasSchedule::default());
        assert!(r.status.is_success());
        assert_eq!(r.gas_used, 21_000 + 16 * 100);
    }
}
