//! The typed event taxonomy and the canonical record encoding.
//!
//! Every variant carries only `Copy` data (fixed-size ids, counters), so a
//! record is a flat value: recording one is a bounds check and a few moves,
//! never a format or an allocation.

/// A 32-byte content identifier (a transaction id or block hash), kept as
/// raw bytes so this crate needs no dependency on `dcs-crypto`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Id(pub [u8; 32]);

impl Id {
    /// The first eight bytes rendered as hex — a compact, collision-safe
    /// label for exports and logs.
    pub fn short_hex(&self) -> String {
        let mut s = String::with_capacity(16);
        for b in &self.0[..8] {
            push_hex(&mut s, *b);
        }
        s
    }
}

fn push_hex(s: &mut String, b: u8) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    s.push(HEX[(b >> 4) as usize] as char);
    s.push(HEX[(b & 0xf) as usize] as char);
}

impl core::fmt::Debug for Id {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Id({})", self.short_hex())
    }
}

/// The sender value in [`TraceEvent::FirstSeen`] when the entity originated
/// locally (a self-produced block, a directly submitted transaction) rather
/// than arriving from a peer. Origins anchor hop counting at hop 0.
pub const ORIGIN: u32 = u32::MAX;

/// Event categories, used for counters and per-category sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// Engine dispatch.
    Sim,
    /// Message fabric: send, deliver, drop, partition.
    Net,
    /// Mempool admission, proposals, PBFT phases.
    Consensus,
    /// Block import, orphans, reorgs, inclusion, finality.
    Chain,
    /// Workload submission.
    App,
}

impl Category {
    /// Number of categories (the length of per-category arrays).
    pub const COUNT: usize = 5;

    /// Dense index for per-category arrays.
    pub fn index(self) -> usize {
        match self {
            Category::Sim => 0,
            Category::Net => 1,
            Category::Consensus => 2,
            Category::Chain => 3,
            Category::App => 4,
        }
    }

    /// Stable lowercase name, used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            Category::Sim => "sim",
            Category::Net => "net",
            Category::Consensus => "consensus",
            Category::Chain => "chain",
            Category::App => "app",
        }
    }
}

/// What kind of entity a gossip first-sighting refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntityKind {
    /// A client transaction.
    Tx,
    /// A block.
    Block,
}

/// Why the mempool refused a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The pool is at capacity.
    Full,
    /// The transaction id is already pooled.
    Duplicate,
    /// An admission pipeline refused a carried witness.
    BadWitness,
}

/// How an imported block landed relative to the canonical chain. Reorgs
/// and orphans have their own events ([`TraceEvent::Reorg`],
/// [`TraceEvent::BlockOrphaned`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImportOutcome {
    /// The canonical chain grew by this block.
    Extended,
    /// The block joined a non-canonical branch.
    SideChain,
}

/// A PBFT protocol phase transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PbftPhase {
    /// Leader broadcast a proposal.
    PrePrepare,
    /// Replica broadcast its prepare vote.
    Prepare,
    /// Replica broadcast its commit vote.
    Commit,
    /// Replica entered a new view.
    ViewChange,
}

/// One structured trace event. See [`Category`] for the grouping.
///
/// Each variant's encoding tag is an explicit byte in
/// [`TraceEvent::encode_into`]; tags 0 and 22 belonged to retired queue
/// events and tag 16 to the event bus's retired application notification.
/// They stay unused, so no digest moved when they went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The fabric accepted a message for delivery.
    MsgSent {
        /// Destination peer.
        to: u32,
        /// Payload size in bytes.
        bytes: u32,
    },
    /// A message reached its destination (the emitting actor is the
    /// receiver).
    MsgDelivered {
        /// Source peer.
        from: u32,
    },
    /// A message was lost to the drop probability.
    MsgDropped {
        /// Intended destination.
        to: u32,
    },
    /// A message was blocked by a partition.
    MsgPartitioned {
        /// Intended destination.
        to: u32,
    },
    /// A client handed a transaction to its point-of-contact peer.
    TxSubmitted {
        /// Transaction id.
        tx: Id,
    },
    /// First sighting of an entity at this peer — the edges of the gossip
    /// propagation tree (`from` is [`ORIGIN`] at the producing peer).
    FirstSeen {
        /// Transaction or block.
        kind: EntityKind,
        /// Entity id.
        id: Id,
        /// Peer it arrived from, or [`ORIGIN`].
        from: u32,
    },
    /// The mempool admitted a transaction.
    TxAdmitted {
        /// Transaction id.
        tx: Id,
    },
    /// The mempool refused a transaction.
    TxRejected {
        /// Transaction id.
        tx: Id,
        /// Why it was refused.
        reason: RejectReason,
    },
    /// This peer assembled and proposed a block.
    BlockProposed {
        /// Block hash.
        block: Id,
        /// Block height.
        height: u64,
        /// Client transactions carried (coinbase excluded).
        txs: u32,
    },
    /// A PBFT phase transition at this replica.
    Pbft {
        /// The phase entered.
        phase: PbftPhase,
        /// View number.
        view: u64,
        /// Sequence number (0 for view changes).
        seq: u64,
    },
    /// A block was imported into the local replica.
    BlockImported {
        /// Block hash.
        block: Id,
        /// Block height.
        height: u64,
        /// Where it landed.
        outcome: ImportOutcome,
    },
    /// A block with unknown ancestry was parked in the orphan pool.
    BlockOrphaned {
        /// Block hash.
        block: Id,
    },
    /// The local replica switched branches.
    Reorg {
        /// Blocks reverted from the old branch (the reorg depth).
        reverted: u64,
        /// Blocks applied from the new branch.
        applied: u64,
    },
    /// A transaction joined this replica's canonical chain.
    TxIncluded {
        /// Transaction id.
        tx: Id,
        /// Including block hash.
        block: Id,
    },
    /// The local finality horizon advanced to `height`.
    Finalized {
        /// New finalized height.
        height: u64,
    },
    /// The node fail-stopped: inbound deliveries and timers are suppressed
    /// until a matching [`TraceEvent::NodeRestarted`].
    NodeCrashed,
    /// The node came back up and began rebuilding from its block store.
    NodeRestarted,
    /// The fabric delivered an extra copy of a message (duplication fault;
    /// the original delivery is traced separately).
    MsgDuplicated {
        /// Destination peer.
        to: u32,
    },
    /// A message was corrupted in flight and discarded at the checksum
    /// (corruption fault).
    MsgCorrupted {
        /// Intended destination.
        to: u32,
    },
    /// The engine dispatched one event to this actor. Carries only the
    /// event's `(source, sequence)` ordering key — data that is identical
    /// no matter how actors are sharded — so the dispatch stream digests
    /// match across worker counts.
    EngineDispatch {
        /// Logical source actor of the dispatched event.
        src: u32,
        /// The source's per-event sequence number.
        seq: u64,
    },
}

impl TraceEvent {
    /// The category this event counts and samples under.
    pub fn category(&self) -> Category {
        match self {
            TraceEvent::EngineDispatch { .. } => Category::Sim,
            TraceEvent::MsgSent { .. }
            | TraceEvent::MsgDelivered { .. }
            | TraceEvent::MsgDropped { .. }
            | TraceEvent::MsgPartitioned { .. }
            | TraceEvent::NodeCrashed
            | TraceEvent::NodeRestarted
            | TraceEvent::MsgDuplicated { .. }
            | TraceEvent::MsgCorrupted { .. } => Category::Net,
            TraceEvent::FirstSeen { .. }
            | TraceEvent::TxAdmitted { .. }
            | TraceEvent::TxRejected { .. }
            | TraceEvent::BlockProposed { .. }
            | TraceEvent::Pbft { .. } => Category::Consensus,
            TraceEvent::BlockImported { .. }
            | TraceEvent::BlockOrphaned { .. }
            | TraceEvent::Reorg { .. }
            | TraceEvent::TxIncluded { .. }
            | TraceEvent::Finalized { .. } => Category::Chain,
            TraceEvent::TxSubmitted { .. } => Category::App,
        }
    }

    /// Stable snake_case event name, used by the exporters.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::MsgSent { .. } => "msg_sent",
            TraceEvent::MsgDelivered { .. } => "msg_delivered",
            TraceEvent::MsgDropped { .. } => "msg_dropped",
            TraceEvent::MsgPartitioned { .. } => "msg_partitioned",
            TraceEvent::TxSubmitted { .. } => "tx_submitted",
            TraceEvent::FirstSeen { .. } => "first_seen",
            TraceEvent::TxAdmitted { .. } => "tx_admitted",
            TraceEvent::TxRejected { .. } => "tx_rejected",
            TraceEvent::BlockProposed { .. } => "block_proposed",
            TraceEvent::Pbft { .. } => "pbft",
            TraceEvent::BlockImported { .. } => "block_imported",
            TraceEvent::BlockOrphaned { .. } => "block_orphaned",
            TraceEvent::Reorg { .. } => "reorg",
            TraceEvent::TxIncluded { .. } => "tx_included",
            TraceEvent::Finalized { .. } => "finalized",
            TraceEvent::NodeCrashed => "node_crashed",
            TraceEvent::NodeRestarted => "node_restarted",
            TraceEvent::MsgDuplicated { .. } => "msg_duplicated",
            TraceEvent::MsgCorrupted { .. } => "msg_corrupted",
            TraceEvent::EngineDispatch { .. } => "engine_dispatch",
        }
    }

    /// Appends the canonical byte encoding (tag + little-endian fields) —
    /// the digest input. Any representational change here intentionally
    /// changes every digest.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            TraceEvent::MsgSent { to, bytes } => {
                out.push(1);
                out.extend_from_slice(&to.to_le_bytes());
                out.extend_from_slice(&bytes.to_le_bytes());
            }
            TraceEvent::MsgDelivered { from } => {
                out.push(2);
                out.extend_from_slice(&from.to_le_bytes());
            }
            TraceEvent::MsgDropped { to } => {
                out.push(3);
                out.extend_from_slice(&to.to_le_bytes());
            }
            TraceEvent::MsgPartitioned { to } => {
                out.push(4);
                out.extend_from_slice(&to.to_le_bytes());
            }
            TraceEvent::TxSubmitted { tx } => {
                out.push(5);
                out.extend_from_slice(&tx.0);
            }
            TraceEvent::FirstSeen { kind, id, from } => {
                out.push(6);
                out.push(matches!(kind, EntityKind::Block) as u8);
                out.extend_from_slice(&id.0);
                out.extend_from_slice(&from.to_le_bytes());
            }
            TraceEvent::TxAdmitted { tx } => {
                out.push(7);
                out.extend_from_slice(&tx.0);
            }
            TraceEvent::TxRejected { tx, reason } => {
                out.push(8);
                out.extend_from_slice(&tx.0);
                out.push(*reason as u8);
            }
            TraceEvent::BlockProposed { block, height, txs } => {
                out.push(9);
                out.extend_from_slice(&block.0);
                out.extend_from_slice(&height.to_le_bytes());
                out.extend_from_slice(&txs.to_le_bytes());
            }
            TraceEvent::Pbft { phase, view, seq } => {
                out.push(10);
                out.push(*phase as u8);
                out.extend_from_slice(&view.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
            }
            TraceEvent::BlockImported {
                block,
                height,
                outcome,
            } => {
                out.push(11);
                out.extend_from_slice(&block.0);
                out.extend_from_slice(&height.to_le_bytes());
                out.push(*outcome as u8);
            }
            TraceEvent::BlockOrphaned { block } => {
                out.push(12);
                out.extend_from_slice(&block.0);
            }
            TraceEvent::Reorg { reverted, applied } => {
                out.push(13);
                out.extend_from_slice(&reverted.to_le_bytes());
                out.extend_from_slice(&applied.to_le_bytes());
            }
            TraceEvent::TxIncluded { tx, block } => {
                out.push(14);
                out.extend_from_slice(&tx.0);
                out.extend_from_slice(&block.0);
            }
            TraceEvent::Finalized { height } => {
                out.push(15);
                out.extend_from_slice(&height.to_le_bytes());
            }
            TraceEvent::NodeCrashed => {
                out.push(17);
            }
            TraceEvent::NodeRestarted => {
                out.push(18);
            }
            TraceEvent::MsgDuplicated { to } => {
                out.push(19);
                out.extend_from_slice(&to.to_le_bytes());
            }
            TraceEvent::MsgCorrupted { to } => {
                out.push(20);
                out.extend_from_slice(&to.to_le_bytes());
            }
            TraceEvent::EngineDispatch { src, seq } => {
                out.push(21);
                out.extend_from_slice(&src.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
            }
        }
    }
}

/// One recorded event: when, who, what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Sim-time timestamp in microseconds.
    pub at_us: u64,
    /// Emitting actor: the peer index.
    pub node: u32,
    /// The event.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Appends the canonical byte encoding (the digest input).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.at_us.to_le_bytes());
        out.extend_from_slice(&self.node.to_le_bytes());
        self.event.encode_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_are_dense_and_named() {
        let cats = [
            Category::Sim,
            Category::Net,
            Category::Consensus,
            Category::Chain,
            Category::App,
        ];
        for (i, c) in cats.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.name().is_empty());
        }
        assert_eq!(cats.len(), Category::COUNT);
    }

    #[test]
    fn encodings_are_distinct_per_variant() {
        let id = Id([7u8; 32]);
        let events = [
            TraceEvent::MsgSent { to: 1, bytes: 1 },
            TraceEvent::MsgDelivered { from: 1 },
            TraceEvent::MsgDropped { to: 1 },
            TraceEvent::MsgPartitioned { to: 1 },
            TraceEvent::TxSubmitted { tx: id },
            TraceEvent::FirstSeen {
                kind: EntityKind::Tx,
                id,
                from: 1,
            },
            TraceEvent::TxAdmitted { tx: id },
            TraceEvent::TxRejected {
                tx: id,
                reason: RejectReason::Full,
            },
            TraceEvent::BlockProposed {
                block: id,
                height: 1,
                txs: 1,
            },
            TraceEvent::Pbft {
                phase: PbftPhase::Prepare,
                view: 1,
                seq: 1,
            },
            TraceEvent::BlockImported {
                block: id,
                height: 1,
                outcome: ImportOutcome::Extended,
            },
            TraceEvent::BlockOrphaned { block: id },
            TraceEvent::Reorg {
                reverted: 1,
                applied: 2,
            },
            TraceEvent::TxIncluded { tx: id, block: id },
            TraceEvent::Finalized { height: 1 },
            TraceEvent::NodeCrashed,
            TraceEvent::NodeRestarted,
            TraceEvent::MsgDuplicated { to: 1 },
            TraceEvent::MsgCorrupted { to: 1 },
            TraceEvent::EngineDispatch { src: 1, seq: 1 },
        ];
        let mut seen = std::collections::BTreeSet::new();
        // Tag 16 is reserved: the retired application notification's.
        let tags = (1..=15).chain(17..=21);
        assert_eq!(tags.clone().count(), events.len());
        for (ev, tag) in events.iter().zip(tags) {
            let mut buf = Vec::new();
            ev.encode_into(&mut buf);
            assert_eq!(buf[0], tag, "tags are assigned in catalogue order");
            assert!(seen.insert(buf), "duplicate encoding for {ev:?}");
            assert!(!ev.name().is_empty());
        }
    }

    #[test]
    fn id_short_hex() {
        let mut bytes = [0u8; 32];
        bytes[0] = 0xab;
        bytes[7] = 0x01;
        let id = Id(bytes);
        assert_eq!(id.short_hex(), "ab00000000000001");
        assert_eq!(format!("{id:?}"), "Id(ab00000000000001)");
    }
}
