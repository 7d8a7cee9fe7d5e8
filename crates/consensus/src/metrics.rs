//! Consensus-side live metrics: mempool admission and PBFT protocol
//! progress, labeled per peer.
//!
//! Installed with [`NodeCore::set_metrics`](crate::NodeCore::set_metrics)
//! (and PBFT's [`LedgerNode::register_metrics`](crate::LedgerNode::register_metrics)
//! for the protocol counters). Every hook is a relaxed atomic bump beside an
//! already-taken decision — admission verdicts, phase sends, and view
//! entries are computed identically whether metrics are installed or not
//! (DESIGN.md §16).

use crate::mempool::InsertOutcome;
use dcs_metrics::{Counter, Gauge, Registry};
use dcs_trace::PbftPhase;

/// Per-peer mempool instruments, registered under a `node` label.
#[derive(Debug, Clone)]
pub struct MempoolMetrics {
    admitted: Counter,
    rejected_duplicate: Counter,
    rejected_full: Counter,
    rejected_bad_witness: Counter,
    depth: Gauge,
}

impl MempoolMetrics {
    /// Registers the mempool series for the peer labeled `node`.
    pub fn register(registry: &Registry, node: &str) -> Self {
        let l = [("node", node)];
        MempoolMetrics {
            admitted: registry.counter(
                "dcs_mempool_admitted_total",
                "transactions admitted to the pool",
                &l,
            ),
            rejected_duplicate: registry.counter(
                "dcs_mempool_rejected_total",
                "transactions refused at admission, by reason",
                &[("node", node), ("reason", "duplicate")],
            ),
            rejected_full: registry.counter(
                "dcs_mempool_rejected_total",
                "transactions refused at admission, by reason",
                &[("node", node), ("reason", "full")],
            ),
            rejected_bad_witness: registry.counter(
                "dcs_mempool_rejected_total",
                "transactions refused at admission, by reason",
                &[("node", node), ("reason", "bad_witness")],
            ),
            depth: registry.gauge("dcs_mempool_depth", "pending transactions pooled", &l),
        }
    }

    /// Counts one admission outcome.
    pub fn record_outcome(&self, outcome: InsertOutcome) {
        match outcome {
            InsertOutcome::Added => self.admitted.inc(),
            InsertOutcome::Duplicate => self.rejected_duplicate.inc(),
            InsertOutcome::Full => self.rejected_full.inc(),
            InsertOutcome::BadWitness => self.rejected_bad_witness.inc(),
        }
    }

    /// Publishes the pool depth.
    pub fn set_depth(&self, len: usize) {
        self.depth.set(len as i64);
    }
}

/// Per-replica PBFT instruments, registered under a `node` label.
#[derive(Debug, Clone)]
pub struct PbftMetrics {
    view: Gauge,
    view_changes: Counter,
    preprepare: Counter,
    prepare: Counter,
    commit: Counter,
}

impl PbftMetrics {
    /// Registers the PBFT series for the replica labeled `node`.
    pub fn register(registry: &Registry, node: &str) -> Self {
        let l = [("node", node)];
        PbftMetrics {
            view: registry.gauge("dcs_pbft_view", "current PBFT view", &l),
            view_changes: registry.counter(
                "dcs_pbft_view_changes_total",
                "view changes executed",
                &l,
            ),
            preprepare: registry.counter(
                "dcs_pbft_phase_total",
                "protocol phase entries, by phase",
                &[("node", node), ("phase", "preprepare")],
            ),
            prepare: registry.counter(
                "dcs_pbft_phase_total",
                "protocol phase entries, by phase",
                &[("node", node), ("phase", "prepare")],
            ),
            commit: registry.counter(
                "dcs_pbft_phase_total",
                "protocol phase entries, by phase",
                &[("node", node), ("phase", "commit")],
            ),
        }
    }

    /// Records a phase entry, mirroring the `TraceEvent::Pbft` emissions.
    pub fn record_phase(&self, phase: PbftPhase, view: u64) {
        match phase {
            PbftPhase::PrePrepare => self.preprepare.inc(),
            PbftPhase::Prepare => self.prepare.inc(),
            PbftPhase::Commit => self.commit.inc(),
            PbftPhase::ViewChange => self.view_changes.inc(),
        }
        self.view.set(view as i64);
    }
}
