//! `BENCHMARK.json`, generated from the metric tables so the file at the
//! repository root cannot drift from what the benchmark prints.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::RUN_SECONDS;
use std::fmt::Write as _;

const WORKLOADS: [(&str, &str); 5] = [
    (
        "gossip_signed",
        "whole stack under its ceiling: signed gas-charged transfers over 32 PoW peers, so crypto cache lookups, state application and chain import on 32 replicas do most of the work",
    ),
    (
        "pbft_contracts",
        "execution- and block-heavy: contract calls over 4 PBFT replicas, so the VM, trie writes and per-block import cost dominate and net is negligible",
    ),
    (
        "gossip_overload",
        "bypasses crypto, state and contracts: unsigned load at 10x the ceiling into capped pools, so net, the event engine and mempool shedding do the work",
    ),
    (
        "beacon_shards",
        "the sharded tier: beacon chain, 4 pruned shard chains, lock/receipt/mint with Merkle proofs and a light client; no signatures, thousands of small blocks",
    ),
    (
        "pbft_failover",
        "fault run: the PBFT primary crashes and restarts while requests keep arriving, so view change, backlog drain and catch-up sync are counted",
    ),
];

pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}"
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `dcsbench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn workload_reasons_fit_the_contract() {
        for (name, why) in WORKLOADS {
            assert!(crate::workloads::NAMES.contains(&name));
            assert!(
                why.len() <= 200 && !why.contains('\n') && !why.contains('"'),
                "{name}"
            );
        }
        assert_eq!(WORKLOADS.len(), crate::workloads::NAMES.len());
    }
}
