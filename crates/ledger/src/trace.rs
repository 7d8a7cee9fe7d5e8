//! One-call tracing setup and collection for a whole simulated network.
//!
//! [`install_tracing`] arms every tracer in a [`Runner`] — the per-node
//! fabric and dispatch tracers, and each peer's consensus core and chain
//! replica — under one [`TraceConfig`]. After the run, [`collect_traces`]
//! gathers every buffer into a [`TraceSet`] whose per-peer digests and
//! merged record stream feed the determinism suite, the lifecycle-span
//! queries, and the exporters.

use crate::LedgerNode;
use dcs_net::Runner;
use dcs_trace::{TraceConfig, TraceSet};

/// Installs tracers under `cfg` on the fabric, the event queue, and every
/// peer (consensus core + chain replica). Call before driving the run;
/// with [`TraceConfig::off`] this uninstalls everything.
pub fn install_tracing<P: LedgerNode>(runner: &mut Runner<P>, cfg: &TraceConfig) {
    runner.net_mut().set_tracing(cfg);
    for i in 0..runner.nodes().len() {
        runner
            .node_mut(dcs_net::NodeId(i))
            .core_mut()
            .set_tracing(cfg);
    }
}

/// Collects every tracer's buffer into one [`TraceSet`]. Sources are added
/// in a fixed order (per-node fabric tracers under `"net"`, per-node
/// dispatch tracers under `"sim"`, then peers by index; each peer's core
/// and chain tracers share its `node<i>` key), so the merged stream and
/// digest map are deterministic. Because the fabric and dispatch streams
/// are recorded per node, the folded digests are identical at any engine
/// shard count.
pub fn collect_traces<P: LedgerNode>(runner: &Runner<P>) -> TraceSet {
    let mut set = TraceSet::new();
    for t in runner.net().node_tracers() {
        set.add("net", t);
    }
    for t in runner.net().dispatch_tracers() {
        set.add("sim", t);
    }
    for (i, node) in runner.nodes().iter().enumerate() {
        let key = format!("node{i}");
        set.add(&key, &node.core().tracer);
        set.add(&key, node.core().chain.tracer());
    }
    set
}
