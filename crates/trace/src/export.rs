//! Trace exporters: JSONL and Chrome `trace_event` JSON.
//!
//! Both formats are hand-built strings — this crate is dependency-free, and
//! every field it writes is a number, a fixed keyword, or lowercase hex, so
//! no escaping machinery is needed.
//!
//! The Chrome export loads in Perfetto or `chrome://tracing`: one process
//! (track) per node, instant events for every record, and one async slice
//! per transaction (`cat:"tx"`, submit → commit) and per block
//! (`cat:"block"`, proposal → finality).

use crate::event::{TraceEvent, TraceRecord};
use crate::span::Timelines;
use std::fmt::Write as _;

/// Human-readable actor label for exports.
fn actor_label(node: u32) -> String {
    format!("node{node}")
}

/// Appends the event-specific JSON fields (leading comma included).
fn event_fields(out: &mut String, event: &TraceEvent) {
    match event {
        TraceEvent::MsgSent { to, bytes } => {
            let _ = write!(out, ",\"to\":{to},\"bytes\":{bytes}");
        }
        TraceEvent::MsgDelivered { from } => {
            let _ = write!(out, ",\"from\":{from}");
        }
        TraceEvent::MsgDropped { to } | TraceEvent::MsgPartitioned { to } => {
            let _ = write!(out, ",\"to\":{to}");
        }
        TraceEvent::TxSubmitted { tx } | TraceEvent::TxAdmitted { tx } => {
            let _ = write!(out, ",\"tx\":\"{}\"", tx.short_hex());
        }
        TraceEvent::FirstSeen { kind, id, from } => {
            let kind = match kind {
                crate::event::EntityKind::Tx => "tx",
                crate::event::EntityKind::Block => "block",
            };
            let _ = write!(
                out,
                ",\"kind\":\"{kind}\",\"id\":\"{}\",\"from\":{from}",
                id.short_hex()
            );
        }
        TraceEvent::TxRejected { tx, reason } => {
            let reason = match reason {
                crate::event::RejectReason::Full => "full",
                crate::event::RejectReason::Duplicate => "duplicate",
                crate::event::RejectReason::BadWitness => "bad_witness",
            };
            let _ = write!(
                out,
                ",\"tx\":\"{}\",\"reason\":\"{reason}\"",
                tx.short_hex()
            );
        }
        TraceEvent::BlockProposed { block, height, txs } => {
            let _ = write!(
                out,
                ",\"block\":\"{}\",\"height\":{height},\"txs\":{txs}",
                block.short_hex()
            );
        }
        TraceEvent::Pbft { phase, view, seq } => {
            let phase = match phase {
                crate::event::PbftPhase::PrePrepare => "pre_prepare",
                crate::event::PbftPhase::Prepare => "prepare",
                crate::event::PbftPhase::Commit => "commit",
                crate::event::PbftPhase::ViewChange => "view_change",
            };
            let _ = write!(out, ",\"phase\":\"{phase}\",\"view\":{view},\"seq\":{seq}");
        }
        TraceEvent::BlockImported {
            block,
            height,
            outcome,
        } => {
            let outcome = match outcome {
                crate::event::ImportOutcome::Extended => "extended",
                crate::event::ImportOutcome::SideChain => "side_chain",
            };
            let _ = write!(
                out,
                ",\"block\":\"{}\",\"height\":{height},\"outcome\":\"{outcome}\"",
                block.short_hex()
            );
        }
        TraceEvent::BlockOrphaned { block } => {
            let _ = write!(out, ",\"block\":\"{}\"", block.short_hex());
        }
        TraceEvent::Reorg { reverted, applied } => {
            let _ = write!(out, ",\"reverted\":{reverted},\"applied\":{applied}");
        }
        TraceEvent::TxIncluded { tx, block } => {
            let _ = write!(
                out,
                ",\"tx\":\"{}\",\"block\":\"{}\"",
                tx.short_hex(),
                block.short_hex()
            );
        }
        TraceEvent::Finalized { height } => {
            let _ = write!(out, ",\"height\":{height}");
        }
        TraceEvent::NodeCrashed | TraceEvent::NodeRestarted => {}
        TraceEvent::EngineDispatch { src, seq } => {
            let _ = write!(out, ",\"src\":{src},\"seq\":{seq}");
        }
        TraceEvent::MsgDuplicated { to } | TraceEvent::MsgCorrupted { to } => {
            let _ = write!(out, ",\"to\":{to}");
        }
    }
}

/// Renders records as JSON Lines: one self-describing object per record.
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 96);
    for rec in records {
        let _ = write!(
            out,
            "{{\"at_us\":{},\"node\":\"{}\",\"cat\":\"{}\",\"event\":\"{}\"",
            rec.at_us,
            actor_label(rec.node),
            rec.event.category().name(),
            rec.event.name()
        );
        event_fields(&mut out, &rec.event);
        out.push_str("}\n");
    }
    out
}

/// Appends one Chrome `trace_event` object. `extra` is the trailing
/// event-specific part (already comma-prefixed, may be empty).
fn push_chrome_event(
    out: &mut String,
    name: &str,
    cat: &str,
    ph: &str,
    ts_us: u64,
    pid: u32,
    extra: &str,
) {
    if !out.ends_with('[') {
        out.push(',');
    }
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"ts\":{ts_us},\"pid\":{pid},\"tid\":0{extra}}}"
    );
}

/// Renders records plus stitched `timelines` as Chrome `trace_event` JSON.
///
/// Layout: one process per node (named via `process_name` metadata), every
/// record as an instant event on its node's track, and async
/// begin/end pairs (`ph:"b"`/`ph:"e"`) for each transaction span
/// (submit → commit, `cat:"tx"`) and block span (proposal → finality,
/// `cat:"block"`). Load the file in <https://ui.perfetto.dev> or
/// `chrome://tracing`.
pub fn to_chrome_trace(records: &[TraceRecord], timelines: &Timelines) -> String {
    let mut out = String::with_capacity(records.len() * 128 + 4096);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");

    // Name each node's track once.
    let mut nodes: Vec<u32> = records.iter().map(|r| r.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    for node in &nodes {
        push_chrome_event(
            &mut out,
            "process_name",
            "__metadata",
            "M",
            0,
            *node,
            &format!(",\"args\":{{\"name\":\"{}\"}}", actor_label(*node)),
        );
    }

    // Every record as an instant event on its node's track.
    for rec in records {
        push_chrome_event(
            &mut out,
            rec.event.name(),
            rec.event.category().name(),
            "i",
            rec.at_us,
            rec.node,
            ",\"s\":\"t\"",
        );
    }

    // Async slices: one per tx (submit → commit) and per block
    // (proposal → finality), pinned to the reference peer's track.
    for (id, span) in &timelines.txs {
        let (Some(b), Some(e)) = (span.submitted_us, span.committed_us) else {
            continue;
        };
        let hex = id.short_hex();
        let extra = format!(",\"id\":\"tx-{hex}\"");
        let name = format!("tx {hex}");
        push_chrome_event(&mut out, &name, "tx", "b", b, timelines.reference, &extra);
        push_chrome_event(&mut out, &name, "tx", "e", e, timelines.reference, &extra);
    }
    for (id, span) in &timelines.blocks {
        let (Some(b), Some(e)) = (span.proposed_us, span.finalized_us) else {
            continue;
        };
        let hex = id.short_hex();
        let extra = format!(",\"id\":\"block-{hex}\"");
        let name = format!("block {hex}");
        push_chrome_event(
            &mut out,
            &name,
            "block",
            "b",
            b,
            timelines.reference,
            &extra,
        );
        push_chrome_event(
            &mut out,
            &name,
            "block",
            "e",
            e,
            timelines.reference,
            &extra,
        );
    }

    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EntityKind, Id, ImportOutcome, ORIGIN};

    fn sample_records() -> Vec<TraceRecord> {
        let tx = Id([1; 32]);
        let blk = Id([9; 32]);
        vec![
            TraceRecord {
                at_us: 10,
                node: 0,
                event: TraceEvent::TxSubmitted { tx },
            },
            TraceRecord {
                at_us: 10,
                node: 0,
                event: TraceEvent::TxAdmitted { tx },
            },
            TraceRecord {
                at_us: 20,
                node: 1,
                event: TraceEvent::FirstSeen {
                    kind: EntityKind::Block,
                    id: blk,
                    from: ORIGIN,
                },
            },
            TraceRecord {
                at_us: 30,
                node: 0,
                event: TraceEvent::BlockImported {
                    block: blk,
                    height: 1,
                    outcome: ImportOutcome::Extended,
                },
            },
            TraceRecord {
                at_us: 30,
                node: 0,
                event: TraceEvent::TxIncluded { tx, block: blk },
            },
            TraceRecord {
                at_us: 90,
                node: 0,
                event: TraceEvent::Finalized { height: 1 },
            },
        ]
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let records = sample_records();
        let jsonl = to_jsonl(&records);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), records.len());
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"at_us\":"));
            assert!(line.contains("\"event\":\""));
        }
        assert!(lines[0].contains("\"event\":\"tx_submitted\""));
        assert!(lines[0].contains(&Id([1; 32]).short_hex()));
    }

    #[test]
    fn chrome_trace_has_tracks_instants_and_async_slices() {
        let records = sample_records();
        let timelines = Timelines::build(&records, 0);
        let json = to_chrome_trace(&records, &timelines);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        // Track names for both nodes.
        assert!(json.contains("\"name\":\"node0\""));
        assert!(json.contains("\"name\":\"node1\""));
        // Instant events carry scope "t".
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"s\":\"t\""));
        // The tx completed submit → commit, so it has an async pair.
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"e\""));
        assert!(json.contains("\"cat\":\"tx\""));
        // Balanced begin/end.
        assert_eq!(
            json.matches("\"ph\":\"b\"").count(),
            json.matches("\"ph\":\"e\"").count()
        );
    }

    #[test]
    fn chrome_trace_is_structurally_valid_json() {
        // A tiny structural check (no JSON parser in-tree): balanced
        // braces/brackets outside strings, and no trailing comma.
        let records = sample_records();
        let timelines = Timelines::build(&records, 0);
        for json in [
            to_chrome_trace(&records, &timelines),
            to_chrome_trace(&[], &Timelines::default()),
        ] {
            let (mut depth, mut in_str, mut prev) = (0i64, false, ' ');
            for c in json.chars() {
                if in_str {
                    in_str = c != '"';
                } else {
                    match c {
                        '"' => in_str = true,
                        '{' | '[' => depth += 1,
                        '}' | ']' => {
                            assert_ne!(prev, ',', "trailing comma before {c}");
                            depth -= 1;
                        }
                        _ => {}
                    }
                }
                prev = c;
            }
            assert_eq!(depth, 0);
            assert!(!in_str);
        }
    }
}
