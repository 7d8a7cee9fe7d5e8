//! Blockchain middleware (§5.2 of the paper): "reusable blockchain
//! middleware will lead to more robust blockchain applications". This crate
//! keeps the services a measured claim uses (DESIGN.md §18 audits each):
//!
//! * [`app`] — an ABCI-style application interface (\[29\]): applications
//!   implement `Application` and plug under the chain as a `StateMachine`
//!   without knowing anything about blocks or consensus.
//! * [`channel_app`] — the payment-channel settlement fed by committed
//!   transactions (§5.4), the application `dcs_ledger`'s channel workload
//!   runs over a real network.
//! * [`events`] — messaging and event notification: topic/contract
//!   subscriptions over execution receipts.
//! * [`analytics`] — chain analytics: activity, utilization, and fee
//!   statistics extracted from a chain replica.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytics;
pub mod app;
pub mod channel_app;
pub mod events;

pub use analytics::{analyze, ChainReport};
pub use app::{AppAdapter, Application};
pub use channel_app::{ChannelApp, ChannelAppStats, ChannelOp};
pub use events::{EventBus, EventFilter, Subscription};
