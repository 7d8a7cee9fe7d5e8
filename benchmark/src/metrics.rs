//! The metric vocabulary: every name the benchmark prints, with its unit,
//! direction and — for the end-to-end metrics — the bound by which it may
//! worsen. `BENCHMARK.json` carries the same tables; a unit test keeps the
//! two equal.

/// An end-to-end metric: something a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// True when the value is a function of the seed alone and must repeat
    /// exactly between two runs of one commit.
    pub seed_determined: bool,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "committed_tx_per_s",
        unit: "tx/s",
        better: "higher",
        bound: 0.25,
        seed_determined: false,
    },
    EndToEnd {
        name: "commit_latency_sim_p50_s",
        unit: "sim-s",
        better: "lower",
        bound: 0.20,
        seed_determined: true,
    },
    EndToEnd {
        name: "commit_latency_sim_p99_s",
        unit: "sim-s",
        better: "lower",
        bound: 0.25,
        seed_determined: true,
    },
    EndToEnd {
        name: "max_commit_gap_sim_s",
        unit: "sim-s",
        better: "lower",
        bound: 0.16,
        seed_determined: true,
    },
    EndToEnd {
        name: "committed_share",
        unit: "ratio",
        better: "higher",
        bound: 0.005,
        seed_determined: true,
    },
    EndToEnd {
        name: "wire_bytes_per_committed_tx",
        unit: "bytes",
        better: "lower",
        bound: 0.05,
        seed_determined: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
        seed_determined: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        seed_determined: false,
    },
];

/// A per-layer metric: `layer.name`, with the end-to-end metric it should
/// move and the workload it should move it on.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
    pub on: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

const TPS: &str = "committed_tx_per_s";
const SIGNED: &str = "gossip_signed, pbft_contracts";

#[rustfmt::skip] // one metric per line reads as the table it is
pub const PER_LAYER: [PerLayer; 67] = [
    pl("crypto.keygen_us_per_leaf", "us", "lower", "setup_s", SIGNED),
    pl("crypto.sign_us_per_sig", "us", "lower", "setup_s", SIGNED),
    pl("crypto.verify_us_per_sig", "us", "lower", TPS, SIGNED),
    pl("crypto.verify_misses", "count", "lower", TPS, SIGNED),
    pl("crypto.cache_hit_us_per_lookup", "us", "lower", TPS, "gossip_signed"),
    pl("crypto.cache_hit_ratio", "ratio", "higher", TPS, "gossip_signed"),
    pl("crypto.avg_verify_batch", "count", "higher", TPS, "gossip_signed"),
    pl("crypto.merkle_root_us_per_tx", "us", "lower", TPS, SIGNED),
    pl("primitives.tx_id_us_per_tx", "us", "lower", "setup_s", SIGNED),
    pl("consensus.mempool_insert_us_per_tx", "us", "lower", TPS, "gossip_overload"),
    pl("consensus.mempool_reject_full_us_per_tx", "us", "lower", TPS, "gossip_overload"),
    pl("consensus.mempool_select_us_per_tx", "us", "lower", TPS, "gossip_overload"),
    pl("consensus.mempool_remove_us_per_tx", "us", "lower", TPS, "gossip_overload"),
    pl("consensus.mempool_admitted", "count", "higher", "committed_share", "gossip_overload"),
    pl("consensus.mempool_rejected_full", "count", "lower", "peak_rss_mb", "gossip_overload"),
    pl("consensus.mempool_rejected_invalid", "count", "lower", "committed_share", "gossip_signed"),
    pl("consensus.mempool_duplicate", "count", "lower", TPS, "gossip_overload"),
    pl("consensus.duplicate_commits", "count", "lower", "committed_share", "gossip_overload, gossip_signed"),
    pl("consensus.build_block_us_per_tx", "us", "lower", TPS, "gossip_signed"),
    pl("consensus.blocks", "count", "lower", TPS, "pbft_contracts, pbft_failover"),
    pl("consensus.txs_per_block", "count", "higher", "commit_latency_sim_p50_s", "pbft_contracts, pbft_failover"),
    pl("consensus.stale_rate", "ratio", "lower", "commit_latency_sim_p99_s", "gossip_signed, gossip_overload"),
    pl("consensus.view_changes", "count", "lower", "max_commit_gap_sim_s", "pbft_failover"),
    pl("chain.import_us_per_block", "us", "lower", TPS, "pbft_contracts, pbft_failover"),
    pl("chain.import_us_per_tx", "us", "lower", TPS, "pbft_contracts, pbft_failover"),
    pl("chain.import_first_decile_us_per_block", "us", "lower", TPS, "pbft_contracts, pbft_failover"),
    pl("chain.import_last_decile_us_per_block", "us", "lower", TPS, "pbft_contracts, pbft_failover"),
    pl("chain.import_pruned_us_per_tx", "us", "lower", TPS, "beacon_shards"),
    pl("chain.serve_range_us_per_block", "us", "lower", "max_commit_gap_sim_s", "pbft_failover"),
    pl("chain.reorgs", "count", "lower", "commit_latency_sim_p99_s", "gossip_signed, gossip_overload"),
    pl("chain.sync_retries", "count", "lower", "commit_latency_sim_p99_s", "pbft_failover"),
    pl("chain.catchup_rounds", "count", "lower", "max_commit_gap_sim_s", "pbft_failover"),
    pl("state.apply_us_per_tx", "us", "lower", TPS, SIGNED),
    pl("state.revert_us_per_tx", "us", "lower", TPS, "gossip_signed"),
    pl("state.root_us_per_block", "us", "lower", TPS, SIGNED),
    pl("contracts.vm_ns_per_gas", "ns", "lower", TPS, "pbft_contracts"),
    pl("contracts.gas_per_tx", "count", "lower", TPS, "pbft_contracts"),
    pl("contracts.failed_receipts", "count", "lower", "committed_share", "pbft_contracts"),
    pl("net.events_per_tx", "count", "lower", TPS, "gossip_overload"),
    pl("net.msgs_per_tx", "count", "lower", "wire_bytes_per_committed_tx", "gossip_overload, gossip_signed"),
    pl("net.bytes_per_tx", "bytes", "lower", "wire_bytes_per_committed_tx", "gossip_overload, gossip_signed"),
    pl("net.queue_high_water", "count", "lower", "peak_rss_mb", "gossip_overload"),
    pl("net.flood_us_per_event", "us", "lower", TPS, "gossip_overload"),
    pl("sim.queue_us_per_event", "us", "lower", TPS, "gossip_overload"),
    pl("scale.events_per_transfer", "count", "lower", TPS, "beacon_shards"),
    pl("scale.cross_shard_share", "ratio", "lower", TPS, "beacon_shards"),
    pl("scale.shard_blocks", "count", "lower", TPS, "beacon_shards"),
    pl("scale.beacon_blocks", "count", "lower", "peak_rss_mb", "beacon_shards"),
    pl("scale.refunded", "count", "lower", "committed_share", "beacon_shards"),
    pl("scale.light_proofs_verified", "count", "higher", "wire_bytes_per_committed_tx", "beacon_shards"),
    pl("ledger.inject_us_per_tx", "us", "lower", "setup_s", "all"),
    pl("ledger.collect_s", "s", "lower", "setup_s", "all"),
    pl("ledger.committed_of_submitted", "ratio", "higher", "committed_share", "gossip_overload"),
    pl("run.traced_wall_s", "s", "lower", TPS, "all"),
    pl("run.untraced_wall_s", "s", "lower", TPS, "all"),
    pl("run.slowest_slice_s", "s", "lower", TPS, "all"),
    pl("run.two_worker_wall_s", "s", "lower", TPS, "gossip_signed, gossip_overload"),
    pl("crypto.wall_share", "ratio", "lower", TPS, "gossip_signed"),
    pl("consensus.wall_share", "ratio", "lower", TPS, "gossip_overload"),
    pl("chain.wall_share", "ratio", "lower", TPS, "pbft_contracts, pbft_failover"),
    pl("state.wall_share", "ratio", "lower", TPS, SIGNED),
    pl("contracts.wall_share", "ratio", "lower", TPS, "pbft_contracts"),
    pl("net.wall_share", "ratio", "lower", TPS, "gossip_overload"),
    pl("sim.wall_share", "ratio", "lower", TPS, "gossip_overload"),
    pl("unattributed.wall_share", "ratio", "lower", TPS, "all"),
    pl("trace.overhead_share", "ratio", "lower", TPS, "all"),
    pl("trace.spans", "count", "lower", TPS, "all"),
];

/// Names allowed by the contract: `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(crate::workloads::NAMES);
        for name in all {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        for m in PER_LAYER {
            assert!(
                END_TO_END.iter().any(|e| e.name == m.moves),
                "{} moves unknown metric {}",
                m.name,
                m.moves
            );
            for on in m.on.split(", ") {
                assert!(
                    on == "all" || crate::workloads::NAMES.contains(&on),
                    "{} names unknown workload {on}",
                    m.name
                );
            }
        }
        assert!(
            !valid_name("")
                && !valid_name(".x")
                && !valid_name("a b")
                && !valid_name(&"x".repeat(65))
        );
    }
}
