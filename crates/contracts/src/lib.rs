//! The contract layer (§4.3 of the paper): smart contracts as "programs
//! automatically executed by the blockchain miners whenever their encoded
//! conditions are triggered" (§2.5).
//!
//! The crate provides:
//!
//! * [`vm`] — a gas-metered stack virtual machine with contract storage,
//!   event logs, value transfer, and hashing (the execution engine).
//! * [`asm`] — a two-pass assembler so contracts are written as readable
//!   mnemonics rather than raw bytes.
//! * [`exec`] — the transaction executor: nonce/balance checks, intrinsic
//!   gas, VM dispatch, fee settlement with the block proposer (§2.5: gas
//!   "is given to the miner who includes the transaction in a block").
//! * [`machine`] — [`machine::AccountMachine`], the `StateMachine` plugged
//!   under `dcs-chain` for generation-2.0/3.0 ledgers.
//! * [`stdlib`] — the standard contracts used across examples and
//!   experiments: greeter (the paper's §2.5 HelloWorld), counter, token,
//!   escrow, notary and trade registry (Fig. 3), and crowdfunding.
//!
//! # Examples
//!
//! Deploy the greeter and call its free, read-only `say()` — mirroring the
//! paper's Solidity listing where constant functions cost no gas:
//!
//! ```
//! use dcs_contracts::{exec, stdlib, vm::Word};
//! use dcs_state::AccountDb;
//! use dcs_crypto::Address;
//!
//! let mut db = AccountDb::new();
//! let contract = Address::from_index(42);
//! db.set_code(&contract, stdlib::greeter());
//!
//! // setGreeting("hi") — a state write, costs gas when run through exec.
//! let input = stdlib::greeter_set_input("hi");
//! let out = exec::query(&mut db, &contract, &Address::from_index(1), &input).unwrap();
//! # let _ = out;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod exec;
pub mod machine;
pub mod stdlib;
pub mod vm;

pub use asm::{assemble, AsmError};
pub use exec::{execute_tx, query};
pub use machine::AccountMachine;
pub use vm::{Vm, VmError, Word};
