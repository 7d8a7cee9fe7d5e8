//! The experiment suite. Each submodule implements a group of experiments
//! from DESIGN.md's index; [`run`] dispatches by id.

pub mod apps;
pub mod churn;
pub mod consensus;
pub mod observability;
pub mod scaling;
pub mod security;

use crate::Scale;

/// All experiment ids, in presentation order.
pub const ALL: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19", "e22", "e23", "f2",
];

/// Runs one experiment by id, printing its table(s).
///
/// # Panics
///
/// Panics on an unknown id (the CLI validates first).
pub fn run(id: &str, scale: Scale) {
    match id {
        "e1" => consensus::e1_pow_throughput_vs_hashpower(scale),
        "e2" => consensus::e2_block_interval_vs_forks(scale),
        "e3" => consensus::e3_ordering_throughput(scale),
        "e4" => consensus::e4_dcs_matrix(scale),
        "e5" => consensus::e5_work_per_block(scale),
        "e6" => security::e6_double_spend(scale),
        "e8" => scaling::e8_payment_channels(scale),
        "e9" => security::e9_mixer(scale),
        "e10" => scaling::e10_light_clients(scale),
        "e11" => apps::e11_gas_costs(),
        "e12" => consensus::e12_private_vs_public(scale),
        "e13" => security::e13_reorg_depth(scale),
        "e14" => security::e14_multichannel_swap(scale),
        "e15" => scaling::e15_verify_pipeline(scale),
        "e16" => scaling::e16_pruned_store(scale),
        "e17" => observability::e17_latency_breakdown(scale),
        "e18" => churn::e18_churn(scale),
        "e19" => scaling::e19_sharded_engine(scale),
        "e22" => scaling::e22_beacon_shards(scale),
        "e23" => scaling::e23_light_sync(scale),
        "f2" => apps::f2_block_structure(),
        other => panic!("unknown experiment id {other:?}"),
    }
}
