//! Bounded model-checking of mempool admission (DESIGN.md §15).
//!
//! `Mempool` is `&mut self` — the engine serializes calls — but admission
//! streams from different senders interleave in an order the scheduler
//! picks, and every *structural* property must be independent of that
//! order: `len` equals admissions minus removals, duplicates are admitted
//! exactly once no matter which racer wins, removal composes with
//! in-flight admission, and selection remains a duplicate-free global FIFO
//! that preserves each sender's program order. `dcs-conc` explores every
//! interleaving of the admission threads and checks those invariants after
//! every single operation.

use dcs_conc::{Model, Op};
use dcs_consensus::Mempool;
use dcs_crypto::{Address, Hash256};
use dcs_primitives::{AccountTx, SealedTx, Transaction};
use std::collections::BTreeSet;
use std::sync::Arc;

fn tx(from: u8, nonce: u64) -> SealedTx {
    SealedTx::new(Arc::new(Transaction::Account(AccountTx::transfer(
        Address::from_index(from as u64),
        Address::from_index(200),
        1 + nonce,
        nonce,
    ))))
}

/// Shared state: the pool plus ground truth for the occupancy equation.
struct St {
    pool: Mempool,
    inserted: i64,
    removed: i64,
    dup_added: u32,
}

fn insert_op(t: SealedTx) -> Op<St> {
    Box::new(move |s: &mut St| {
        if s.pool.insert(t.clone()) {
            s.inserted += 1;
        }
    })
}

/// Insert of a transaction two threads contend on: counts Added outcomes.
fn insert_contended_op(t: SealedTx) -> Op<St> {
    Box::new(move |s: &mut St| {
        if s.pool.insert(t.clone()) {
            s.inserted += 1;
            s.dup_added += 1;
        }
    })
}

fn remove_op(id: Hash256) -> Op<St> {
    Box::new(move |s: &mut St| {
        if s.pool.remove(&id).is_some() {
            s.removed += 1;
        }
    })
}

/// Structural invariants, checked after every operation of every schedule.
fn invariant(s: &St) -> Result<(), String> {
    if s.pool.len() as i64 != s.inserted - s.removed {
        return Err(format!(
            "occupancy drift: len {} != inserted {} - removed {}",
            s.pool.len(),
            s.inserted,
            s.removed
        ));
    }
    // Selection: duplicate-free, covers the whole pool.
    let mut probe = s.pool.clone();
    let selected = probe.select(usize::MAX, &BTreeSet::new());
    if selected.len() != s.pool.len() {
        return Err(format!(
            "select returned {} of {} pooled",
            selected.len(),
            s.pool.len()
        ));
    }
    let ids: BTreeSet<Hash256> = selected.iter().map(|t| t.id()).collect();
    if ids.len() != selected.len() {
        return Err("select returned a duplicate".to_string());
    }
    Ok(())
}

/// Position of `id` in a selection, if present.
fn pos(selected: &[SealedTx], id: &Hash256) -> Option<usize> {
    selected.iter().position(|t| t.id() == *id)
}

/// Two admission streams from different senders, racing a duplicate and a
/// removal. Every interleaving must admit the contended transaction
/// exactly once and keep the occupancy equation exact.
#[test]
fn racing_admission_streams_stay_consistent() {
    let a1 = tx(1, 0);
    let a2 = tx(1, 1);
    let b1 = tx(9, 0);
    let contended = tx(42, 7);
    let (a1c, a2c, b1c, c1, c2) = (
        a1.clone(),
        a2.clone(),
        b1.clone(),
        contended.clone(),
        contended.clone(),
    );
    let model: Model<St> = Model::new()
        .thread(vec![
            insert_op(a1c),
            insert_op(a2c),
            insert_contended_op(c1),
        ])
        .thread(vec![insert_op(b1c), insert_contended_op(c2)])
        .thread(vec![remove_op(b1.id())]);
    let explored = model
        .check(
            || St {
                pool: Mempool::new(64),
                inserted: 0,
                removed: 0,
                dup_added: 0,
            },
            |s| {
                invariant(s)?;
                if s.dup_added > 1 {
                    return Err(format!("contended tx admitted {} times", s.dup_added));
                }
                // Once both of sender 1's admissions landed, their relative
                // order in the selection must match program order.
                if s.dup_added == 1 && s.inserted >= 4 {
                    let mut probe = s.pool.clone();
                    let sel = probe.select(usize::MAX, &BTreeSet::new());
                    if let (Some(p1), Some(p2)) = (pos(&sel, &a1.id()), pos(&sel, &a2.id())) {
                        if p1 >= p2 {
                            return Err(format!("sender FIFO violated: a1 at {p1}, a2 at {p2}"));
                        }
                    }
                }
                Ok(())
            },
        )
        .unwrap_or_else(|v| panic!("{v}"));
    assert_eq!(explored.schedules, 60); // 6!/(3!2!1!)
}

/// Admission racing selection-relevant removal: removing a
/// transaction that may not have been admitted yet is a no-op, never a
/// corruption, in every schedule.
#[test]
fn remove_before_or_after_admission_is_safe() {
    let x = tx(3, 0);
    let y = tx(130, 0);
    let (xc, yc) = (x.clone(), y.clone());
    let model: Model<St> = Model::new()
        .thread(vec![insert_op(xc), remove_op(y.id())])
        .thread(vec![insert_op(yc), remove_op(x.id())]);
    let explored = model
        .check(
            || St {
                pool: Mempool::new(64),
                inserted: 0,
                removed: 0,
                dup_added: 0,
            },
            invariant,
        )
        .unwrap_or_else(|v| panic!("{v}"));
    assert_eq!(explored.schedules, 6); // C(4,2)
}

/// Capacity backpressure under interleaving: with room for two, any order
/// of three admissions admits exactly two, and the pool never overfills.
#[test]
fn capacity_is_respected_in_every_schedule() {
    let t1 = tx(5, 0);
    let t2 = tx(6, 0);
    let t3 = tx(7, 0);
    let model: Model<St> = Model::new()
        .thread(vec![insert_op(t1.clone()), insert_op(t2.clone())])
        .thread(vec![insert_op(t3.clone())]);
    let explored = model
        .check(
            || St {
                pool: Mempool::new(2),
                inserted: 0,
                removed: 0,
                dup_added: 0,
            },
            |s| {
                invariant(s)?;
                if s.pool.len() > 2 {
                    return Err(format!("over capacity: {}", s.pool.len()));
                }
                if s.inserted == 3 {
                    return Err("three admissions into a pool of two".to_string());
                }
                Ok(())
            },
        )
        .unwrap_or_else(|v| panic!("{v}"));
    assert_eq!(explored.schedules, 3); // C(3,1)
}
