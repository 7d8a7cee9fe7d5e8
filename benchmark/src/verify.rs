//! `verify_outputs`: the correctness checks of every workload, one function
//! each, over plain evidence structs so a test can hand them a deliberately
//! broken result. Any violation makes the benchmark exit non-zero — a
//! faster wrong answer is not a result.

use dcs_crypto::Hash256;

/// One replica's head at the horizon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaTip {
    pub tip: Hash256,
    pub height: u64,
    pub state_root: Hash256,
}

/// What a consensus-network run left behind, as far as correctness goes.
#[derive(Debug, Clone)]
pub struct LedgerEvidence {
    pub replicas_agree: bool,
    /// Every replica's head; index 0 is the reference replica.
    pub tips: Vec<ReplicaTip>,
    pub internal_errors: u64,
    pub rejected_blocks: u64,
    /// Canonical non-coinbase transactions whose receipt is not a success.
    pub failed_receipts: u64,
    /// Canonical blocks the reference replica holds no receipts for.
    pub missing_receipts: u64,
    /// Transactions sealed a second time on the canonical chain. Counted
    /// and reported, not a violation: it happens at the parent commit.
    pub duplicate_commits: u64,
    /// Canonical blocks above the configured `block_tx_limit`.
    pub oversized_blocks: u64,
    /// Value minted by canonical coinbases (block rewards plus offered fees).
    pub coinbase_total: u128,
    /// `(expected, actual)` total supply, on workloads with real balances.
    pub supply: Option<(u128, u128)>,
    pub crashes: u64,
    pub restarts: u64,
}

/// What a beacon/shard run left behind.
#[derive(Debug, Clone)]
pub struct BeaconEvidence {
    pub genesis_total: u128,
    pub user_total: u128,
    pub escrow_total: u128,
    /// Total value of the cross-shard transfers the harness submitted.
    pub cross_value: u128,
    pub submitted: u64,
    pub intra: u64,
    pub minted: u64,
    pub refunded: u64,
    pub rejected: u64,
    pub proofs_requested: u64,
    pub proofs_verified: u64,
    pub invalid_receipts: u64,
    pub open_locks: u64,
    /// Per shard: `(transactions the harness homed there, non-coinbase
    /// transactions on its canonical chain)`.
    pub shard_txs: Vec<(u64, u64)>,
    pub internal_errors: u64,
}

pub type Verdict = Result<(), Vec<String>>;

fn verdict(violations: Vec<String>) -> Verdict {
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// The process exit code a verdict maps to.
pub fn exit_code(v: &Verdict) -> i32 {
    i32::from(v.is_err())
}

fn check(violations: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        violations.push(what());
    }
}

/// Checks every consensus workload shares: agreement, equal state roots
/// among replicas at the same head, a healthy run, a well-formed chain.
fn common(ev: &LedgerEvidence) -> Vec<String> {
    let mut v = Vec::new();
    check(&mut v, ev.replicas_agree, || {
        "replicas disagree on the canonical chain at the confirmed height".into()
    });
    for (i, a) in ev.tips.iter().enumerate() {
        if let Some((j, b)) = ev
            .tips
            .iter()
            .enumerate()
            .skip(i + 1)
            .find(|(_, b)| b.tip == a.tip && b.state_root != a.state_root)
        {
            v.push(format!(
                "replicas {i} and {j} share head {} but their state roots differ ({} vs {})",
                a.tip.to_hex(),
                a.state_root.to_hex(),
                b.state_root.to_hex()
            ));
        }
    }
    check(&mut v, ev.internal_errors == 0, || {
        format!("internal_errors = {}", ev.internal_errors)
    });
    check(&mut v, ev.rejected_blocks == 0, || {
        format!("rejected_blocks = {}", ev.rejected_blocks)
    });
    check(&mut v, ev.missing_receipts == 0, || {
        format!(
            "{} canonical blocks have no receipts on the reference replica",
            ev.missing_receipts
        )
    });
    check(&mut v, ev.oversized_blocks == 0, || {
        format!(
            "{} canonical blocks exceed block_tx_limit",
            ev.oversized_blocks
        )
    });
    v
}

/// Signed, gas-charged workloads: every committed receipt is a success and
/// balances plus fees conserve the genesis total (plus what coinbases mint).
fn signed(ev: &LedgerEvidence) -> Vec<String> {
    let mut v = common(ev);
    check(&mut v, ev.failed_receipts == 0, || {
        format!("{} committed receipts are failures", ev.failed_receipts)
    });
    match ev.supply {
        None => v.push("no supply audit was taken".into()),
        Some((expected, actual)) => check(&mut v, expected == actual, || {
            format!("supply not conserved: expected {expected}, balances sum to {actual}")
        }),
    }
    v
}

/// PBFT quiesces before the horizon, so every replica must hold the very
/// same chain — equal heads, and with them equal content at every height.
fn same_head_everywhere(ev: &LedgerEvidence, v: &mut Vec<String>) {
    let Some(reference) = ev.tips.first() else {
        v.push("no replicas".into());
        return;
    };
    for (i, t) in ev.tips.iter().enumerate() {
        check(v, t.tip == reference.tip, || {
            format!(
                "replica {i} stopped at height {} ({}), the reference at {} ({})",
                t.height,
                t.tip.to_hex(),
                reference.height,
                reference.tip.to_hex()
            )
        });
    }
}

pub fn gossip_signed(ev: &LedgerEvidence) -> Verdict {
    verdict(signed(ev))
}

pub fn pbft_contracts(ev: &LedgerEvidence) -> Verdict {
    let mut v = signed(ev);
    same_head_everywhere(ev, &mut v);
    verdict(v)
}

pub fn gossip_overload(ev: &LedgerEvidence) -> Verdict {
    let mut v = common(ev);
    // NullMachine accepts everything: a failed receipt here is a bug.
    check(&mut v, ev.failed_receipts == 0, || {
        format!("{} committed receipts are failures", ev.failed_receipts)
    });
    verdict(v)
}

pub fn pbft_failover(ev: &LedgerEvidence) -> Verdict {
    let mut v = common(ev);
    check(&mut v, ev.failed_receipts == 0, || {
        format!("{} committed receipts are failures", ev.failed_receipts)
    });
    check(&mut v, ev.crashes == 1 && ev.restarts == 1, || {
        format!(
            "fault schedule not applied: {} crashes, {} restarts",
            ev.crashes, ev.restarts
        )
    });
    // The restarted replica reaches the common height and no committed
    // transaction is missing from any replica.
    same_head_everywhere(ev, &mut v);
    verdict(v)
}

pub fn beacon_shards(ev: &BeaconEvidence) -> Verdict {
    let mut v = Vec::new();
    check(&mut v, ev.user_total == ev.genesis_total, || {
        format!(
            "user balances sum to {}, genesis allocated {}",
            ev.user_total, ev.genesis_total
        )
    });
    check(&mut v, ev.escrow_total == ev.cross_value, || {
        format!(
            "escrow holds {}, cross-shard transfers moved {}",
            ev.escrow_total, ev.cross_value
        )
    });
    check(&mut v, ev.refunded == 0 && ev.rejected == 0, || {
        format!("refunded = {}, rejected = {}", ev.refunded, ev.rejected)
    });
    check(&mut v, ev.intra + ev.minted == ev.submitted, || {
        format!(
            "{} intra + {} minted != {} submitted",
            ev.intra, ev.minted, ev.submitted
        )
    });
    check(&mut v, ev.proofs_verified == ev.proofs_requested, || {
        format!(
            "light client verified {} of {} proofs",
            ev.proofs_verified, ev.proofs_requested
        )
    });
    check(&mut v, ev.invalid_receipts == 0, || {
        format!("beacon saw {} invalid lock receipts", ev.invalid_receipts)
    });
    check(&mut v, ev.open_locks == 0, || {
        format!("{} locks still open at quiescence", ev.open_locks)
    });
    for (i, (homed, on_chain)) in ev.shard_txs.iter().enumerate() {
        check(&mut v, homed == on_chain, || {
            format!(
                "shard {i}: {homed} submissions homed there, {on_chain} transactions on its chain"
            )
        });
    }
    check(&mut v, ev.internal_errors == 0, || {
        format!("internal_errors = {}", ev.internal_errors)
    });
    verdict(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_crypto::sha256;

    fn healthy() -> LedgerEvidence {
        let tip = ReplicaTip {
            tip: sha256(b"tip"),
            height: 9,
            state_root: sha256(b"root"),
        };
        LedgerEvidence {
            replicas_agree: true,
            tips: vec![tip.clone(), tip.clone(), tip.clone(), tip],
            internal_errors: 0,
            rejected_blocks: 0,
            failed_receipts: 0,
            missing_receipts: 0,
            duplicate_commits: 0,
            oversized_blocks: 0,
            coinbase_total: 450,
            supply: Some((1_000_450, 1_000_450)),
            crashes: 1,
            restarts: 1,
        }
    }

    fn healthy_beacon() -> BeaconEvidence {
        BeaconEvidence {
            genesis_total: 4_000,
            user_total: 4_000,
            escrow_total: 300,
            cross_value: 300,
            submitted: 100,
            intra: 25,
            minted: 75,
            refunded: 0,
            rejected: 0,
            proofs_requested: 12,
            proofs_verified: 12,
            invalid_receipts: 0,
            open_locks: 0,
            shard_txs: vec![(50, 50), (50, 50)],
            internal_errors: 0,
        }
    }

    fn violations(v: Verdict) -> String {
        assert_eq!(exit_code(&v), 1, "a violation must exit non-zero");
        v.unwrap_err().join("; ")
    }

    #[test]
    fn healthy_results_pass_every_workload() {
        let ev = healthy();
        for v in [
            gossip_signed(&ev),
            pbft_contracts(&ev),
            gossip_overload(&ev),
            pbft_failover(&ev),
            beacon_shards(&healthy_beacon()),
        ] {
            assert_eq!(exit_code(&v), 0, "{v:?}");
        }
    }

    #[test]
    fn gossip_signed_rejects_a_diverged_root() {
        let mut ev = healthy();
        ev.tips[2].state_root = sha256(b"other root");
        assert!(violations(gossip_signed(&ev)).contains("state roots differ"));
    }

    #[test]
    fn gossip_signed_rejects_a_failed_receipt() {
        let mut ev = healthy();
        ev.failed_receipts = 1;
        assert!(violations(gossip_signed(&ev)).contains("receipts are failures"));
    }

    #[test]
    fn pbft_contracts_rejects_a_non_conserved_total() {
        let mut ev = healthy();
        ev.supply = Some((1_000_450, 1_000_449));
        assert!(violations(pbft_contracts(&ev)).contains("supply not conserved"));
        ev.supply = None;
        assert!(violations(pbft_contracts(&ev)).contains("no supply audit"));
    }

    #[test]
    fn pbft_contracts_rejects_a_lagging_replica() {
        let mut ev = healthy();
        ev.tips[3].tip = sha256(b"older");
        ev.tips[3].height = 7;
        assert!(violations(pbft_contracts(&ev)).contains("replica 3 stopped at height 7"));
    }

    #[test]
    fn gossip_overload_rejects_disagreement_and_bad_blocks() {
        let mut ev = healthy();
        ev.replicas_agree = false;
        assert!(violations(gossip_overload(&ev)).contains("replicas disagree"));
        let mut ev = healthy();
        ev.oversized_blocks = 1;
        ev.internal_errors = 1;
        ev.rejected_blocks = 3;
        let text = violations(gossip_overload(&ev));
        for needle in [
            "exceed block_tx_limit",
            "internal_errors = 1",
            "rejected_blocks = 3",
        ] {
            assert!(text.contains(needle), "{text}");
        }
    }

    #[test]
    fn pbft_failover_rejects_a_replica_that_never_caught_up() {
        let mut ev = healthy();
        ev.tips[0].height = 12;
        ev.tips[0].tip = sha256(b"ahead");
        assert!(violations(pbft_failover(&ev)).contains("stopped at height 9"));
        let mut ev = healthy();
        ev.restarts = 0;
        assert!(violations(pbft_failover(&ev)).contains("fault schedule not applied"));
    }

    #[test]
    fn beacon_shards_rejects_lost_value_refunds_and_unverified_proofs() {
        let mut ev = healthy_beacon();
        ev.user_total -= 1;
        assert!(violations(beacon_shards(&ev)).contains("genesis allocated"));
        let mut ev = healthy_beacon();
        ev.refunded = 1;
        ev.minted -= 1;
        let text = violations(beacon_shards(&ev));
        assert!(
            text.contains("refunded = 1") && text.contains("!= 100 submitted"),
            "{text}"
        );
        let mut ev = healthy_beacon();
        ev.proofs_verified = 11;
        assert!(violations(beacon_shards(&ev)).contains("verified 11 of 12"));
        let mut ev = healthy_beacon();
        ev.shard_txs[1].1 = 49;
        assert!(violations(beacon_shards(&ev)).contains("shard 1"));
    }
}
