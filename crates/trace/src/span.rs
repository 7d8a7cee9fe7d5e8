//! Lifecycle spans: stitching raw events into per-transaction and
//! per-block causal timelines, and the latency-breakdown query API.
//!
//! The span model follows each transaction through
//! `submit → admit → first-seen-per-peer → included → committed` and each
//! block through `proposed → first-seen-per-peer → finalized`. Stage
//! boundaries are measured on a single **reference peer** so the stages of
//! one transaction share a clock and sum to its end-to-end commit latency.

use crate::event::{EntityKind, Id, TraceEvent, TraceRecord, ORIGIN};
use std::collections::BTreeMap;

/// The causal timeline of one transaction.
#[derive(Debug, Clone, Default)]
pub struct TxSpan {
    /// When a client submitted it (sim µs).
    pub submitted_us: Option<u64>,
    /// When the reference peer's mempool admitted it.
    pub admitted_us: Option<u64>,
    /// When the reference peer first saw it in a canonical block.
    pub included_us: Option<u64>,
    /// When the including block passed the reference peer's finality
    /// horizon.
    pub committed_us: Option<u64>,
    /// The including block, once known.
    pub block: Option<Id>,
    /// First sighting per peer (peer index → sim µs) — the propagation
    /// front.
    pub first_seen: BTreeMap<u32, u64>,
}

/// The causal timeline of one block.
#[derive(Debug, Clone, Default)]
pub struct BlockSpan {
    /// Height, once imported or proposed.
    pub height: Option<u64>,
    /// Client transactions carried (from the proposal event).
    pub tx_count: Option<u32>,
    /// When its producer proposed it.
    pub proposed_us: Option<u64>,
    /// First sighting per peer.
    pub first_seen: BTreeMap<u32, u64>,
    /// Gossip hop distance per peer (producer = 0), where derivable.
    pub hops: BTreeMap<u32, u32>,
    /// When the reference peer finalized at or past this height.
    pub finalized_us: Option<u64>,
}

/// One observed branch switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReorgSpan {
    /// When it happened (sim µs).
    pub at_us: u64,
    /// The peer that switched.
    pub node: u32,
    /// Blocks reverted (the reorg depth).
    pub reverted: u64,
    /// Blocks applied.
    pub applied: u64,
}

/// Per-stage latency samples (µs) over every transaction that completed
/// the corresponding stage on the reference peer.
#[derive(Debug, Clone, Default)]
pub struct StageSamples {
    /// submit → admit on the reference peer (gossip + admission).
    pub propagation_us: Vec<u64>,
    /// admit → included (time waiting in the mempool).
    pub mempool_wait_us: Vec<u64>,
    /// included → committed (confirmation depth build-up).
    pub confirmation_us: Vec<u64>,
    /// submit → committed end to end.
    pub total_commit_us: Vec<u64>,
}

/// Stitched timelines for a whole run, built from a merged record stream.
#[derive(Debug, Default)]
pub struct Timelines {
    /// The reference peer stage boundaries were measured on.
    pub reference: u32,
    /// Per-transaction spans.
    pub txs: BTreeMap<Id, TxSpan>,
    /// Per-block spans.
    pub blocks: BTreeMap<Id, BlockSpan>,
    /// Every branch switch observed, in time order.
    pub reorgs: Vec<ReorgSpan>,
}

impl Timelines {
    /// Builds timelines from time-ordered `records`, measuring stage
    /// boundaries on peer `reference`.
    pub fn build(records: &[TraceRecord], reference: u32) -> Self {
        let mut t = Timelines {
            reference,
            ..Timelines::default()
        };
        // Height → finalization time on the reference peer, filled as
        // Finalized events arrive; blocks/txs resolve against it afterwards.
        let mut finalized_at: Vec<(u64, u64)> = Vec::new();
        for rec in records {
            match rec.event {
                TraceEvent::TxSubmitted { tx } => {
                    let span = t.txs.entry(tx).or_default();
                    span.submitted_us.get_or_insert(rec.at_us);
                }
                TraceEvent::TxAdmitted { tx } if rec.node == reference => {
                    t.txs
                        .entry(tx)
                        .or_default()
                        .admitted_us
                        .get_or_insert(rec.at_us);
                }
                TraceEvent::TxIncluded { tx, block } if rec.node == reference => {
                    let span = t.txs.entry(tx).or_default();
                    span.included_us.get_or_insert(rec.at_us);
                    span.block.get_or_insert(block);
                }
                TraceEvent::FirstSeen { kind, id, from } => match kind {
                    EntityKind::Tx => {
                        t.txs
                            .entry(id)
                            .or_default()
                            .first_seen
                            .entry(rec.node)
                            .or_insert(rec.at_us);
                    }
                    EntityKind::Block => {
                        let span = t.blocks.entry(id).or_default();
                        span.first_seen.entry(rec.node).or_insert(rec.at_us);
                        // Hop = 0 at the origin, sender's hop + 1 otherwise.
                        // Records arrive in time order, so the sender's hop
                        // is already resolved whenever gossip is causal.
                        let hop = if from == ORIGIN {
                            Some(0)
                        } else {
                            span.hops.get(&from).map(|h| h + 1)
                        };
                        if let Some(h) = hop {
                            span.hops.entry(rec.node).or_insert(h);
                        }
                    }
                },
                TraceEvent::BlockProposed { block, height, txs } => {
                    let span = t.blocks.entry(block).or_default();
                    span.proposed_us.get_or_insert(rec.at_us);
                    span.height.get_or_insert(height);
                    span.tx_count.get_or_insert(txs);
                }
                TraceEvent::BlockImported { block, height, .. } => {
                    t.blocks
                        .entry(block)
                        .or_default()
                        .height
                        .get_or_insert(height);
                }
                TraceEvent::Reorg { reverted, applied } => {
                    t.reorgs.push(ReorgSpan {
                        at_us: rec.at_us,
                        node: rec.node,
                        reverted,
                        applied,
                    });
                }
                TraceEvent::Finalized { height } if rec.node == reference => {
                    finalized_at.push((height, rec.at_us));
                }
                _ => {}
            }
        }
        // Resolve block finalization: the first Finalized event whose
        // horizon reaches the block's height (events arrive height- and
        // time-monotone on one peer).
        for span in t.blocks.values_mut() {
            let Some(h) = span.height else { continue };
            span.finalized_us = finalized_at
                .iter()
                .find(|(fh, _)| *fh >= h)
                .map(|(_, at)| *at);
        }
        // Resolve tx commitment from the including block's finalization.
        let block_finalized: BTreeMap<Id, u64> = t
            .blocks
            .iter()
            .filter_map(|(id, s)| s.finalized_us.map(|at| (*id, at)))
            .collect();
        for span in t.txs.values_mut() {
            if let Some(block) = span.block {
                span.committed_us = block_finalized.get(&block).copied();
            }
        }
        t
    }

    /// Per-stage latency samples over transactions, each stage measured on
    /// the reference peer. A transaction contributes to a stage only once
    /// both boundaries exist.
    pub fn stage_samples(&self) -> StageSamples {
        let mut s = StageSamples::default();
        for span in self.txs.values() {
            if let (Some(sub), Some(adm)) = (span.submitted_us, span.admitted_us) {
                s.propagation_us.push(adm.saturating_sub(sub));
            }
            if let (Some(adm), Some(inc)) = (span.admitted_us, span.included_us) {
                s.mempool_wait_us.push(inc.saturating_sub(adm));
            }
            if let (Some(inc), Some(com)) = (span.included_us, span.committed_us) {
                s.confirmation_us.push(com.saturating_sub(inc));
            }
            if let (Some(sub), Some(com)) = (span.submitted_us, span.committed_us) {
                s.total_commit_us.push(com.saturating_sub(sub));
            }
        }
        s
    }

    /// Gossip hop-count distribution over every (block, peer) sighting
    /// with a derivable hop: `hist[h]` = number of sightings at hop `h`.
    pub fn hop_histogram(&self) -> Vec<u64> {
        let mut hist: Vec<u64> = Vec::new();
        for span in self.blocks.values() {
            for h in span.hops.values() {
                let h = *h as usize;
                if hist.len() <= h {
                    hist.resize(h + 1, 0);
                }
                hist[h] += 1;
            }
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ImportOutcome, TraceEvent};

    fn id(b: u8) -> Id {
        Id([b; 32])
    }

    fn rec(at_us: u64, node: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord { at_us, node, event }
    }

    /// One tx through the full lifecycle on a 3-peer network, reference 0.
    fn lifecycle() -> Vec<TraceRecord> {
        let tx = id(1);
        let blk = id(9);
        vec![
            rec(100, 0, TraceEvent::TxSubmitted { tx }),
            rec(
                100,
                0,
                TraceEvent::FirstSeen {
                    kind: EntityKind::Tx,
                    id: tx,
                    from: ORIGIN,
                },
            ),
            rec(100, 0, TraceEvent::TxAdmitted { tx }),
            rec(
                150,
                1,
                TraceEvent::FirstSeen {
                    kind: EntityKind::Tx,
                    id: tx,
                    from: 0,
                },
            ),
            rec(
                400,
                1,
                TraceEvent::BlockProposed {
                    block: blk,
                    height: 1,
                    txs: 1,
                },
            ),
            rec(
                400,
                1,
                TraceEvent::FirstSeen {
                    kind: EntityKind::Block,
                    id: blk,
                    from: ORIGIN,
                },
            ),
            rec(
                450,
                0,
                TraceEvent::FirstSeen {
                    kind: EntityKind::Block,
                    id: blk,
                    from: 1,
                },
            ),
            rec(
                460,
                2,
                TraceEvent::FirstSeen {
                    kind: EntityKind::Block,
                    id: blk,
                    from: 0,
                },
            ),
            rec(
                450,
                0,
                TraceEvent::BlockImported {
                    block: blk,
                    height: 1,
                    outcome: ImportOutcome::Extended,
                },
            ),
            rec(450, 0, TraceEvent::TxIncluded { tx, block: blk }),
            rec(900, 0, TraceEvent::Finalized { height: 1 }),
        ]
    }

    #[test]
    fn stitches_full_tx_lifecycle() {
        let t = Timelines::build(&lifecycle(), 0);
        let span = &t.txs[&id(1)];
        assert_eq!(span.submitted_us, Some(100));
        assert_eq!(span.admitted_us, Some(100));
        assert_eq!(span.included_us, Some(450));
        assert_eq!(span.committed_us, Some(900));
        assert_eq!(span.block, Some(id(9)));
        assert_eq!(span.first_seen.len(), 2);

        let s = t.stage_samples();
        assert_eq!(s.propagation_us, vec![0]);
        assert_eq!(s.mempool_wait_us, vec![350]);
        assert_eq!(s.confirmation_us, vec![450]);
        assert_eq!(s.total_commit_us, vec![800]);
    }

    #[test]
    fn block_span_and_hops() {
        let t = Timelines::build(&lifecycle(), 0);
        let span = &t.blocks[&id(9)];
        assert_eq!(span.height, Some(1));
        assert_eq!(span.tx_count, Some(1));
        assert_eq!(span.proposed_us, Some(400));
        assert_eq!(span.finalized_us, Some(900));
        // Producer 1 at hop 0, peer 0 at hop 1 (from 1), peer 2 at hop 2
        // (from 0).
        assert_eq!(span.hops[&1], 0);
        assert_eq!(span.hops[&0], 1);
        assert_eq!(span.hops[&2], 2);
        assert_eq!(t.hop_histogram(), vec![1, 1, 1]);
        let seen: Vec<u64> = span.first_seen.values().copied().collect();
        assert_eq!(seen, vec![450, 400, 460], "first sighting per peer");
    }

    #[test]
    fn reorg_spans_are_collected_in_order() {
        let records = vec![
            rec(
                10,
                2,
                TraceEvent::Reorg {
                    reverted: 2,
                    applied: 3,
                },
            ),
            rec(
                20,
                0,
                TraceEvent::Reorg {
                    reverted: 1,
                    applied: 2,
                },
            ),
        ];
        let t = Timelines::build(&records, 0);
        assert_eq!(
            t.reorgs,
            vec![
                ReorgSpan {
                    at_us: 10,
                    node: 2,
                    reverted: 2,
                    applied: 3
                },
                ReorgSpan {
                    at_us: 20,
                    node: 0,
                    reverted: 1,
                    applied: 2
                },
            ]
        );
    }

    #[test]
    fn incomplete_spans_contribute_no_samples() {
        let tx = id(4);
        let records = vec![rec(5, 0, TraceEvent::TxSubmitted { tx })];
        let t = Timelines::build(&records, 0);
        let s = t.stage_samples();
        assert!(s.propagation_us.is_empty());
        assert!(s.total_commit_us.is_empty());
    }
}
