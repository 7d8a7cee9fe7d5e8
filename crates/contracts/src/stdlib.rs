//! The standard contract library: the contracts used throughout the
//! examples and experiments, written in VM assembly.
//!
//! Calling convention: input is a 32-byte selector word at offset 0,
//! followed by 32-byte argument words at offsets 32, 64, … Selector 0 is
//! always the read-only query (free via `exec::query`, per §2.5's constant
//! functions).
//!
//! Contracts provided:
//!
//! * [`greeter`] — the paper's §2.5 HelloWorld (`say` / `setGreeting`).
//! * [`token`] — a fungible token: `balanceOf` / `transfer` / `mint`.
//! * [`notary`] — Fig. 3's notary: register document hashes to owners.
//! * [`trade_registry`] — Fig. 3's commodity trade network: register and
//!   trade symbol ownership.

use crate::asm::assemble;
use crate::vm::Word;
use dcs_crypto::Address;

/// Builds call input: a selector word followed by argument words.
pub fn input_with(selector: u8, args: &[Word]) -> Vec<u8> {
    let mut input = Word::from_u64(u64::from(selector)).0.to_vec();
    for a in args {
        input.extend_from_slice(&a.0);
    }
    input
}

fn must_assemble(src: &str) -> Vec<u8> {
    assemble(src).expect("stdlib contract assembles")
}

/// The greeter contract: selector 0 = `say()`, selector 1 =
/// `setGreeting(word)`.
pub fn greeter() -> Vec<u8> {
    must_assemble(
        "; greeter: the paper's HelloWorld
         push @set
         push 0
         calldataload
         push 1
         eq
         jumpi
         ; say(): return storage slot 0
         push 0
         sload
         push 0
         swap 0
         mstore
         push 0
         push 32
         return
         :set
         jumpdest
         push 0
         push 32
         calldataload
         sstore
         push 0
         push 0
         log0
         stop",
    )
}

/// Input for `setGreeting(s)`; `s` must fit one word (≤ 32 bytes).
pub fn greeter_set_input(s: &str) -> Vec<u8> {
    input_with(1, &[Word::from_str_padded(s)])
}

/// Input for the free `say()` query.
pub fn greeter_say_input() -> Vec<u8> {
    input_with(0, &[])
}

/// A fungible token: selector 0 = `balanceOf(addr)`, 1 = `transfer(to,
/// amount)`, 2 = `mint(amount)` (mints to the caller; a demo token).
/// Balances live at storage slot `sha256(addr_word)`.
pub fn token() -> Vec<u8> {
    must_assemble(
        "push @transfer
         push 0
         calldataload
         push 1
         eq
         jumpi
         push @mint
         push 0
         calldataload
         push 2
         eq
         jumpi
         ; balanceOf(addr@32)
         push 0
         push 32
         calldataload
         mstore
         push 0
         push 32
         sha256
         sload
         push 0
         swap 0
         mstore
         push 0
         push 32
         return
         :transfer
         jumpdest
         ; from_slot = sha256(caller)
         push 0
         caller
         mstore
         push 0
         push 32
         sha256
         ; amount
         push 64
         calldataload
         ; require balance >= amount
         dup 1
         sload
         dup 1
         lt
         push @insufficient
         swap 0
         jumpi
         ; from balance -= amount
         dup 1
         sload
         dup 1
         sub
         dup 2
         swap 0
         sstore
         ; to_slot = sha256(to)
         push 0
         push 32
         calldataload
         mstore
         push 0
         push 32
         sha256
         ; to balance += amount
         dup 0
         sload
         dup 2
         add
         sstore
         push 0
         push 0
         log0
         stop
         :insufficient
         jumpdest
         push 0
         push 0
         revert
         :mint
         jumpdest
         push 0
         caller
         mstore
         push 0
         push 32
         sha256
         dup 0
         sload
         push 32
         calldataload
         add
         sstore
         stop",
    )
}

/// Input builders for the token contract.
pub fn token_balance_input(addr: &Address) -> Vec<u8> {
    input_with(0, &[Word::from_address(addr)])
}

/// Input for `transfer(to, amount)`.
pub fn token_transfer_input(to: &Address, amount: u64) -> Vec<u8> {
    input_with(1, &[Word::from_address(to), Word::from_u64(amount)])
}

/// Input for `mint(amount)`.
pub fn token_mint_input(amount: u64) -> Vec<u8> {
    input_with(2, &[Word::from_u64(amount)])
}

/// The notary of Fig. 3: selector 0 = `getDocument(hash)` → owner word,
/// selector 1 = `register(hash)` (reverts if already registered).
pub fn notary() -> Vec<u8> {
    must_assemble(
        "push @register
         push 0
         calldataload
         push 1
         eq
         jumpi
         push 32
         calldataload
         sload
         push 0
         swap 0
         mstore
         push 0
         push 32
         return
         :register
         jumpdest
         push 32
         calldataload
         dup 0
         sload
         push @taken
         swap 0
         jumpi
         caller
         sstore
         push 0
         push 0
         log0
         stop
         :taken
         jumpdest
         push 0
         push 0
         revert",
    )
}

/// Input for `register(doc_hash)`.
pub fn notary_register_input(doc: &dcs_crypto::Hash256) -> Vec<u8> {
    input_with(1, &[Word::from_hash(doc)])
}

/// The trade-network registry of Fig. 3: selector 0 = `ownerOf(symbol)`,
/// 1 = `register(symbol)`, 2 = `trade(symbol, newOwner)` (owner only).
pub fn trade_registry() -> Vec<u8> {
    must_assemble(
        "push @register
         push 0
         calldataload
         push 1
         eq
         jumpi
         push @trade
         push 0
         calldataload
         push 2
         eq
         jumpi
         push 32
         calldataload
         sload
         push 0
         swap 0
         mstore
         push 0
         push 32
         return
         :register
         jumpdest
         push 32
         calldataload
         dup 0
         sload
         push @fail
         swap 0
         jumpi
         caller
         sstore
         push 0
         push 0
         log0
         stop
         :trade
         jumpdest
         push 32
         calldataload
         dup 0
         sload
         caller
         eq
         iszero
         push @fail
         swap 0
         jumpi
         push 64
         calldataload
         sstore
         push 0
         push 0
         log0
         stop
         :fail
         jumpdest
         push 0
         push 0
         revert",
    )
}

/// Input for `register(symbol)` / `ownerOf(symbol)` / `trade(symbol, to)`.
pub fn trade_input(selector: u8, symbol: &str, new_owner: Option<&Address>) -> Vec<u8> {
    let mut args = vec![Word::from_str_padded(symbol)];
    if let Some(a) = new_owner {
        args.push(Word::from_address(a));
    }
    input_with(selector, &args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_tx, query, BlockCtx};
    use dcs_primitives::{AccountTx, GasSchedule};
    use dcs_state::AccountDb;

    struct World {
        db: AccountDb,
        schedule: GasSchedule,
        nonces: std::collections::HashMap<Address, u64>,
    }

    impl World {
        fn new() -> Self {
            World {
                db: AccountDb::new(),
                schedule: GasSchedule::default(),
                nonces: std::collections::HashMap::new(),
            }
        }

        fn fund(&mut self, who: &Address, amount: u64) {
            self.db.credit(who, amount);
        }

        fn deploy(&mut self, who: &Address, code: Vec<u8>) -> Address {
            let nonce = self.next_nonce(who);
            let tx = AccountTx::deploy(*who, code, nonce, 10_000_000);
            let contract = tx.contract_address();
            let r = execute_tx(
                &mut self.db,
                &tx,
                dcs_crypto::Hash256::ZERO,
                &Self::ctx(),
                &self.schedule,
            );
            assert!(r.status.is_success(), "deploy failed: {:?}", r.status);
            contract
        }

        fn call(
            &mut self,
            who: &Address,
            contract: &Address,
            input: Vec<u8>,
            value: u64,
        ) -> dcs_primitives::Receipt {
            let nonce = self.next_nonce(who);
            let tx = AccountTx::call(*who, *contract, input, value, nonce, 10_000_000);
            execute_tx(
                &mut self.db,
                &tx,
                dcs_crypto::Hash256::ZERO,
                &Self::ctx(),
                &self.schedule,
            )
        }

        fn query_u64(&mut self, contract: &Address, input: Vec<u8>) -> u64 {
            let out = query(&mut self.db, contract, &Address::ZERO, &input).unwrap();
            Word(out.try_into().expect("32 bytes")).as_u64()
        }

        fn next_nonce(&mut self, who: &Address) -> u64 {
            let e = self.nonces.entry(*who).or_insert(0);
            let n = *e;
            *e += 1;
            n
        }

        fn ctx() -> BlockCtx {
            BlockCtx {
                proposer: Address::from_index(1000),
                timestamp_us: 0,
                height: 1,
            }
        }
    }

    fn alice() -> Address {
        Address::from_index(1)
    }
    fn bob() -> Address {
        Address::from_index(2)
    }

    #[test]
    fn token_mint_transfer_balance() {
        let mut w = World::new();
        w.fund(&alice(), 100_000_000);
        w.fund(&bob(), 100_000_000);
        let t = w.deploy(&alice(), token());

        let r = w.call(&alice(), &t, token_mint_input(1000), 0);
        assert!(r.status.is_success(), "{:?}", r.status);
        assert_eq!(w.query_u64(&t, token_balance_input(&alice())), 1000);

        let r = w.call(&alice(), &t, token_transfer_input(&bob(), 400), 0);
        assert!(r.status.is_success(), "{:?}", r.status);
        assert_eq!(w.query_u64(&t, token_balance_input(&alice())), 600);
        assert_eq!(w.query_u64(&t, token_balance_input(&bob())), 400);

        // Overdraft reverts and changes nothing.
        let r = w.call(&alice(), &t, token_transfer_input(&bob(), 601), 0);
        assert!(!r.status.is_success());
        assert_eq!(w.query_u64(&t, token_balance_input(&alice())), 600);
        assert_eq!(w.query_u64(&t, token_balance_input(&bob())), 400);
    }

    #[test]
    fn notary_registers_once() {
        let mut w = World::new();
        w.fund(&alice(), 100_000_000);
        w.fund(&bob(), 100_000_000);
        let n = w.deploy(&alice(), notary());
        let doc = dcs_crypto::sha256(b"land deed #42");

        let r = w.call(&alice(), &n, notary_register_input(&doc), 0);
        assert!(r.status.is_success(), "{:?}", r.status);

        // Owner recorded: `getDocument(hash)` is selector 0.
        let get = input_with(0, &[Word::from_hash(&doc)]);
        let out = query(&mut w.db, &n, &Address::ZERO, &get).unwrap();
        assert_eq!(Word(out.try_into().unwrap()).as_address(), alice());

        // Second registration (even by the owner) reverts.
        let r = w.call(&bob(), &n, notary_register_input(&doc), 0);
        assert!(!r.status.is_success());
    }

    #[test]
    fn trade_registry_ownership_flow() {
        let mut w = World::new();
        w.fund(&alice(), 100_000_000);
        w.fund(&bob(), 100_000_000);
        let t = w.deploy(&alice(), trade_registry());

        let r = w.call(&alice(), &t, trade_input(1, "WHEAT", None), 0);
        assert!(r.status.is_success(), "{:?}", r.status);

        // Bob cannot trade a commodity he doesn't own.
        let r = w.call(&bob(), &t, trade_input(2, "WHEAT", Some(&bob())), 0);
        assert!(!r.status.is_success());

        // Alice trades it to Bob; ownership moves.
        let r = w.call(&alice(), &t, trade_input(2, "WHEAT", Some(&bob())), 0);
        assert!(r.status.is_success(), "{:?}", r.status);
        let out = query(
            &mut w.db,
            &t,
            &Address::ZERO,
            &trade_input(0, "WHEAT", None),
        )
        .unwrap();
        assert_eq!(Word(out.try_into().unwrap()).as_address(), bob());

        // Now Bob can trade it onward.
        let carol = Address::from_index(3);
        w.fund(&carol, 1);
        let r = w.call(&bob(), &t, trade_input(2, "WHEAT", Some(&carol)), 0);
        assert!(r.status.is_success(), "{:?}", r.status);
    }
}
