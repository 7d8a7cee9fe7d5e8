//! Deterministic fault injection (the paper's dependability axis, §2.3/§5.2):
//! a [`FaultSchedule`] scripts node crashes and restarts, link flaps, timed
//! partitions, and message duplication/corruption windows at exact simulated
//! times, and a [`FaultDriver`] replays it against a running
//! [`Runner`].
//!
//! Everything is driven off the simulation clock and the seeded RNG, so a
//! run with the same seed *and* the same schedule is bit-identical — faults
//! are part of the reproducible experiment, not an external perturbation.
//!
//! Crash semantics are fail-stop with durable storage: a crashed node loses
//! its volatile state (mempool, gossip dedup, consensus votes) but keeps its
//! `BlockStore`; on restart the peer's
//! [`LedgerNode::on_restart`] rebuilds the chain from the store and runs the
//! locator-based catch-up sync until it reaches the canonical tip.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dcs_consensus::LedgerNode;
use dcs_net::{NodeId, Runner};
use dcs_sim::SimTime;

/// One scripted fault (or repair) action.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Fail-stop the node: volatile state is lost, the block store survives.
    Crash(NodeId),
    /// Bring a crashed node back up; it rebuilds from its store and syncs.
    Restart(NodeId),
    /// Split the network into groups (one group label per node).
    Partition(Vec<u32>),
    /// Remove any partition.
    Heal,
    /// Sever the bidirectional link between two nodes.
    LinkDown(NodeId, NodeId),
    /// Repair a severed link.
    LinkUp(NodeId, NodeId),
    /// Set the per-message duplication probability (0.0 disables).
    SetDuplication(f64),
    /// Set the per-message corruption probability (0.0 disables).
    SetCorruption(f64),
}

/// A fault action pinned to a simulated instant.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the action fires.
    pub at: SimTime,
    /// What happens.
    pub action: FaultAction,
}

/// A time-ordered script of fault events.
///
/// Built with the `*_at` methods; events inserted at the same instant fire
/// in insertion order (the sort is stable), so `crash_at(t, a)` followed by
/// `restart_at(t, b)` behaves predictably.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule (injects nothing).
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Adds an arbitrary event.
    pub fn push(mut self, at: SimTime, action: FaultAction) -> Self {
        self.events.push(FaultEvent { at, action });
        self
    }

    /// Crashes `node` at `at`.
    pub fn crash_at(self, at: SimTime, node: NodeId) -> Self {
        self.push(at, FaultAction::Crash(node))
    }

    /// Restarts `node` at `at`.
    pub fn restart_at(self, at: SimTime, node: NodeId) -> Self {
        self.push(at, FaultAction::Restart(node))
    }

    /// Partitions the network into `groups` at `at`.
    pub fn partition_at(self, at: SimTime, groups: Vec<u32>) -> Self {
        self.push(at, FaultAction::Partition(groups))
    }

    /// Heals any partition at `at`.
    pub fn heal_at(self, at: SimTime) -> Self {
        self.push(at, FaultAction::Heal)
    }

    /// Severs the `a`–`b` link at `at`.
    pub fn link_down_at(self, at: SimTime, a: NodeId, b: NodeId) -> Self {
        self.push(at, FaultAction::LinkDown(a, b))
    }

    /// Repairs the `a`–`b` link at `at`.
    pub fn link_up_at(self, at: SimTime, a: NodeId, b: NodeId) -> Self {
        self.push(at, FaultAction::LinkUp(a, b))
    }

    /// Sets the duplication probability at `at` (use `0.0` to end a window).
    pub fn set_duplication_at(self, at: SimTime, p: f64) -> Self {
        self.push(at, FaultAction::SetDuplication(p))
    }

    /// Sets the corruption probability at `at` (use `0.0` to end a window).
    pub fn set_corruption_at(self, at: SimTime, p: f64) -> Self {
        self.push(at, FaultAction::SetCorruption(p))
    }

    /// The scripted events in firing order.
    pub fn events(&self) -> Vec<FaultEvent> {
        let mut sorted = self.events.clone();
        sorted.sort_by_key(|e| e.at);
        sorted
    }

    /// Number of scripted events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks the schedule against an `n`-node network.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range node id, a partition vector whose length is
    /// not `n`, or a probability outside `[0, 1]` — schedule construction
    /// bugs, caught before the run starts.
    pub fn validate(&self, n: usize) {
        for ev in &self.events {
            match &ev.action {
                FaultAction::Crash(node) | FaultAction::Restart(node) => {
                    assert!(node.0 < n, "fault targets node {} of {n}", node.0);
                }
                FaultAction::Partition(groups) => {
                    assert!(
                        groups.len() == n,
                        "partition has {} labels for {n} nodes",
                        groups.len()
                    );
                }
                FaultAction::Heal => {}
                FaultAction::LinkDown(a, b) | FaultAction::LinkUp(a, b) => {
                    assert!(a.0 < n && b.0 < n, "link fault out of range");
                    assert!(a != b, "link fault needs two distinct nodes");
                }
                FaultAction::SetDuplication(p) | FaultAction::SetCorruption(p) => {
                    assert!((0.0..=1.0).contains(p), "probability {p} out of range");
                }
            }
        }
    }
}

/// Replays a [`FaultSchedule`] against a [`Runner`], interleaving fault
/// actions with normal event processing at exact simulated times.
#[derive(Debug)]
pub struct FaultDriver {
    events: Vec<FaultEvent>,
    next: usize,
}

impl FaultDriver {
    /// Builds a driver; the schedule is frozen (sorted) at this point.
    pub fn new(schedule: FaultSchedule) -> Self {
        FaultDriver {
            events: schedule.events(),
            next: 0,
        }
    }

    /// Fault events applied so far.
    pub fn applied(&self) -> usize {
        self.next
    }

    /// Runs the simulation to `deadline`, applying every scheduled fault at
    /// its exact instant. Returns the number of sim events processed.
    ///
    /// Crash/restart actions flip network liveness first, then invoke the
    /// peer's [`LedgerNode`] hook in a fresh [`Ctx`](dcs_net::Ctx) so
    /// recovery can send messages and arm timers.
    pub fn run_until<P>(&mut self, runner: &mut Runner<P>, deadline: SimTime) -> u64
    where
        P: LedgerNode + Send,
        P::Msg: Send,
    {
        let mut processed = 0;
        while self.next < self.events.len() && self.events[self.next].at <= deadline {
            let ev = self.events[self.next].clone();
            self.next += 1;
            processed += runner.run_until(ev.at);
            match ev.action {
                FaultAction::Crash(node) => {
                    runner.net_mut().crash(node);
                    runner.with_ctx(node, |p, ctx| p.on_crash(ctx));
                }
                FaultAction::Restart(node) => {
                    runner.net_mut().restart(node);
                    runner.with_ctx(node, |p, ctx| p.on_restart(ctx));
                }
                FaultAction::Partition(groups) => runner.net_mut().set_partition(groups),
                FaultAction::Heal => runner.net_mut().heal_partition(),
                FaultAction::LinkDown(a, b) => runner.net_mut().set_link_down(a, b),
                FaultAction::LinkUp(a, b) => runner.net_mut().set_link_up(a, b),
                FaultAction::SetDuplication(p) => runner.net_mut().set_duplication(p),
                FaultAction::SetCorruption(p) => runner.net_mut().set_corruption(p),
            }
        }
        processed + runner.run_until(deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_micros(secs * 1_000_000)
    }

    #[test]
    fn schedule_sorts_stably_by_time() {
        let s = FaultSchedule::new()
            .restart_at(t(30), NodeId(1))
            .crash_at(t(10), NodeId(1))
            .heal_at(t(10));
        let evs = s.events();
        assert_eq!(evs[0].action, FaultAction::Crash(NodeId(1)));
        assert_eq!(evs[1].action, FaultAction::Heal, "same-instant keeps order");
        assert_eq!(evs[2].action, FaultAction::Restart(NodeId(1)));
    }

    #[test]
    fn validate_accepts_a_well_formed_schedule() {
        FaultSchedule::new()
            .crash_at(t(1), NodeId(3))
            .partition_at(t(2), vec![0, 0, 1, 1])
            .link_down_at(t(3), NodeId(0), NodeId(1))
            .set_duplication_at(t(4), 0.5)
            .validate(4);
    }

    #[test]
    #[should_panic(expected = "fault targets node 9")]
    fn validate_rejects_out_of_range_node() {
        FaultSchedule::new().crash_at(t(1), NodeId(9)).validate(4);
    }

    #[test]
    #[should_panic(expected = "partition has 2 labels for 4 nodes")]
    fn validate_rejects_short_partition() {
        FaultSchedule::new()
            .partition_at(t(1), vec![0, 1])
            .validate(4);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn validate_rejects_bad_probability() {
        FaultSchedule::new()
            .set_corruption_at(t(1), 1.5)
            .validate(4);
    }
}
