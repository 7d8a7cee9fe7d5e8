//! Messaging and event notification (§5.2): a pub/sub bus over execution
//! receipts. Applications subscribe by contract address and/or topic; the
//! bus consumes the receipts the chain produces and fans matching
//! [`dcs_primitives::LogEntry`]s out to subscriber queues.

use dcs_crypto::{Address, Hash256};
use dcs_primitives::{LogEntry, Receipt};
use std::collections::HashMap;

/// What a subscriber wants to hear about.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventFilter {
    /// Only logs from this contract (any if `None`).
    pub contract: Option<Address>,
    /// Only logs carrying this topic (any if `None`).
    pub topic: Option<Hash256>,
}

impl EventFilter {
    /// Matches any event.
    pub fn any() -> Self {
        EventFilter::default()
    }

    /// Matches events from one contract.
    pub fn contract(addr: Address) -> Self {
        EventFilter {
            contract: Some(addr),
            topic: None,
        }
    }

    /// Matches events carrying a topic.
    pub fn topic(topic: Hash256) -> Self {
        EventFilter {
            contract: None,
            topic: Some(topic),
        }
    }

    fn matches(&self, log: &LogEntry) -> bool {
        if let Some(c) = &self.contract {
            if log.contract != *c {
                return false;
            }
        }
        if let Some(t) = &self.topic {
            if !log.topics.contains(t) {
                return false;
            }
        }
        true
    }
}

/// A delivered event: the log plus its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notification {
    /// Block that committed the emitting transaction.
    pub block: Hash256,
    /// The emitting transaction.
    pub tx_id: Hash256,
    /// The event payload.
    pub log: LogEntry,
}

/// Handle identifying a subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Subscription(u64);

/// The event bus.
///
/// # Examples
///
/// ```
/// use dcs_middleware::{EventBus, EventFilter};
///
/// let mut bus = EventBus::new();
/// let sub = bus.subscribe(EventFilter::any());
/// assert!(bus.drain(sub).is_empty());
/// ```
#[derive(Debug, Default)]
pub struct EventBus {
    next_id: u64,
    subs: HashMap<Subscription, (EventFilter, Vec<Notification>)>,
    delivered: u64,
}

impl EventBus {
    /// An empty bus.
    pub fn new() -> Self {
        EventBus::default()
    }

    /// Registers a subscription; returns its handle.
    pub fn subscribe(&mut self, filter: EventFilter) -> Subscription {
        let id = Subscription(self.next_id);
        self.next_id += 1;
        self.subs.insert(id, (filter, Vec::new()));
        id
    }

    /// Total notifications fanned out so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Feeds one block's receipts into the bus (the output of
    /// `Chain::drain_receipts`).
    pub fn publish_block(&mut self, block: Hash256, receipts: &[Receipt]) {
        for receipt in receipts {
            if !receipt.status.is_success() {
                continue; // failed txs' logs were rolled back
            }
            for log in &receipt.logs {
                for (filter, queue) in self.subs.values_mut() {
                    if filter.matches(log) {
                        queue.push(Notification {
                            block,
                            tx_id: receipt.tx_id,
                            log: log.clone(),
                        });
                        self.delivered += 1;
                    }
                }
            }
        }
    }

    /// Takes all pending notifications for a subscription.
    pub fn drain(&mut self, sub: Subscription) -> Vec<Notification> {
        self.subs
            .get_mut(&sub)
            .map(|(_, q)| std::mem::take(q))
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_crypto::sha256;
    use dcs_primitives::TxStatus;

    fn receipt_with_log(contract: Address, topic: Hash256, data: &[u8]) -> Receipt {
        Receipt {
            tx_id: sha256(data),
            status: TxStatus::Success,
            gas_used: 0,
            fee_paid: 0,
            logs: vec![LogEntry {
                contract,
                topics: vec![topic],
                data: data.to_vec(),
            }],
        }
    }

    #[test]
    fn topic_and_contract_filters() {
        let mut bus = EventBus::new();
        let c1 = Address::from_index(1);
        let c2 = Address::from_index(2);
        let t_transfer = sha256(b"Transfer");
        let t_mint = sha256(b"Mint");

        let all = bus.subscribe(EventFilter::any());
        let only_c1 = bus.subscribe(EventFilter::contract(c1));
        let only_transfer = bus.subscribe(EventFilter::topic(t_transfer));
        let both = bus.subscribe(EventFilter {
            contract: Some(c1),
            topic: Some(t_transfer),
        });

        let block = sha256(b"block");
        bus.publish_block(block, &[receipt_with_log(c1, t_transfer, b"a")]);
        bus.publish_block(block, &[receipt_with_log(c2, t_transfer, b"b")]);
        bus.publish_block(block, &[receipt_with_log(c1, t_mint, b"c")]);

        assert_eq!(bus.drain(all).len(), 3);
        assert_eq!(bus.drain(only_c1).len(), 2);
        assert_eq!(bus.drain(only_transfer).len(), 2);
        let matched = bus.drain(both);
        assert_eq!(matched.len(), 1);
        assert_eq!(matched[0].log.data, b"a");
    }

    #[test]
    fn every_matching_subscriber_gets_its_own_copy() {
        let mut bus = EventBus::new();
        let a = bus.subscribe(EventFilter::any());
        let b = bus.subscribe(EventFilter::any());
        let r = receipt_with_log(Address::from_index(1), sha256(b"t"), b"x");
        bus.publish_block(sha256(b"b"), std::slice::from_ref(&r));
        assert_eq!(bus.delivered(), 2, "one notification per subscriber");
        assert_eq!(bus.drain(a), bus.drain(b));
    }

    #[test]
    fn failed_receipts_do_not_notify() {
        let mut bus = EventBus::new();
        let sub = bus.subscribe(EventFilter::any());
        let mut r = receipt_with_log(Address::from_index(1), sha256(b"t"), b"x");
        r.status = TxStatus::Failed("reverted".into());
        bus.publish_block(sha256(b"b"), &[r]);
        assert!(bus.drain(sub).is_empty());
        assert_eq!(bus.delivered(), 0);
    }

    #[test]
    fn drain_empties_the_queue() {
        let mut bus = EventBus::new();
        let sub = bus.subscribe(EventFilter::any());
        bus.publish_block(
            sha256(b"b"),
            &[receipt_with_log(Address::ZERO, sha256(b"t"), b"1")],
        );
        assert_eq!(bus.drain(sub).len(), 1);
        assert!(bus.drain(sub).is_empty());
    }
}
