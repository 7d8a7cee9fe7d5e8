//! One-call fault-injection setup for a whole simulated network.
//!
//! [`install_faults`] validates a [`FaultSchedule`] against the runner's
//! network and hands back the [`FaultDriver`] that replays it — the
//! fault-injection twin of [`install_tracing`](crate::install_tracing):
//!
//! ```
//! use dcs_chain::NullMachine;
//! use dcs_faults::FaultSchedule;
//! use dcs_ledger::{build, builders::Pow, faults::install_faults, NetworkParams};
//! use dcs_net::NodeId;
//! use dcs_sim::{SimDuration, SimTime};
//!
//! let mut runner = build(&NetworkParams::<Pow>::default(), 42, |_| NullMachine);
//! let schedule = FaultSchedule::new()
//!     .crash_at(SimTime::ZERO + SimDuration::from_secs(100), NodeId(0))
//!     .restart_at(SimTime::ZERO + SimDuration::from_secs(300), NodeId(0));
//! let mut driver = install_faults(&runner, schedule);
//! driver.run_until(&mut runner, SimTime::ZERO + SimDuration::from_secs(600));
//! ```

use crate::LedgerNode;
use dcs_faults::{FaultDriver, FaultSchedule};
use dcs_net::Runner;

/// Validates `schedule` against the runner's network size and builds the
/// driver that replays it. Drive the run through
/// [`FaultDriver::run_until`] instead of `Runner::run_until` so scripted
/// faults fire at their exact simulated instants.
///
/// # Panics
///
/// Panics if the schedule references a node outside the network (see
/// [`FaultSchedule::validate`]).
pub fn install_faults<P: LedgerNode>(runner: &Runner<P>, schedule: FaultSchedule) -> FaultDriver {
    schedule.validate(runner.net().node_count());
    FaultDriver::new(schedule)
}
