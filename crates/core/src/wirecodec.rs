//! Binary serialization of [`Msg`] for the socket transport.
//!
//! The in-process fabric moves messages by value and never touches this
//! module; only frames crossing a real socket ([`gt_transport::socket`])
//! are encoded. Every variant is covered — any cluster workload (chaos
//! excepted; chaos requires the simulated fabric) can run over TCP/UDS —
//! and decoding is total: malformed bytes yield `None`, which the mesh
//! counts as a dropped frame, never a panic in a server thread.
//!
//! The codec is the [`gt_proto::Wire`] kit shared with the client
//! protocol: the [`Msg`] table below lists each variant's tag and its
//! fields in wire order, and the macro derives encode, decode and tag
//! dispatch from it. Vertices, props and ledger events reuse their
//! storage encodings verbatim so there is exactly one byte-level truth
//! per type. Nested relay envelopes are capped at
//! [`gt_proto::MAX_BOX_DEPTH`].

use crate::coordinator::LedgerEvent;
use crate::lang::{Plan, PlanStep, Source};
use crate::message::{CopyKind, Msg, ProgressSnapshot, SyncExpect, TravelOutcome};
use crate::{ExecId, Token};
use gt_proto::{decode_exact, wire_enum, wire_struct, ProtoError, Reader, Wire};
use gt_transport::WireCodec;

wire_struct! {
    ExecId { 0 }
    Token { owner, id }
    ProgressSnapshot { created, terminated, outstanding_by_depth }
    TravelOutcome { by_depth, progress }
    PlanStep { edge_label, edge_filters, vertex_filters, rtn }
    Plan { source, source_filters, source_rtn, steps, as_of, snapshot, qos_weight }
}

wire_enum! {
    Source {
        1 => Ids(ids),
        2 => All,
    }
}

wire_enum! {
    SyncExpect {
        1 => ScanSource,
        2 => Vertices(n),
        3 => OriginTokens(n),
    }
}

wire_enum! {
    CopyKind {
        0 => Move,
        1 => AddReplica,
    }
}

// Tags are append-only: renumbering breaks mixed-version meshes. Tags
// 41–44 carried the retired re-replication copy messages (now `Migrate*`
// with `CopyKind::AddReplica`) and are never reused.
wire_enum! {
    Msg {
        1 => Submit { travel, plan, client },
        2 => Abort { travel },
        3 => ProgressQuery { travel, client },
        4 => ProgressReport { travel, snapshot },
        5 => TravelDone { travel, outcome },
        6 => Cancel { travel, client },
        7 => CancelAck { travel, server },
        8 => SourceScan { travel, plan, coordinator, exec },
        9 => Visit { travel, depth, exec, plan, coordinator, items },
        10 => ExecCreated { travel, exec, depth },
        11 => ExecTerminated { travel, exec, children },
        12 => OriginSatisfied { travel, exec, coordinator, tokens },
        13 => Results { travel, items },
        14 => SyncStart { travel, plan, coordinator, depth, expect },
        15 => SyncFrontier { travel, depth, items },
        16 => SyncOrigin { travel, tokens },
        17 => SyncStepDone { travel, depth, server, sent, origin_sent },
        18 => Ingest { req, client, vertices, edges },
        19 => IngestAck { req, applied, wseq },
        20 => GetVertex { req, client, vertex, barrier },
        21 => VertexReply { req, vertex },
        22 => Relay { travel, from, epoch, tepoch, seq, attempt, inner },
        23 => RelayAck { travel, server, seq, attempt },
        24 => CoordRecover [coord_recover],
        25 => CoordHandoff { travel, epoch, coordinator, restarted },
        26 => ReAnnounce { travel, epoch, server, created, terminated, results },
        27 => RecoverDone { travel, epoch },
        28 => PlacementUpdate { map, client },
        29 => PlacementAck { version, server },
        30 => ReplicateWrite { req, origin, wseq, seq, vertices, edges },
        31 => ReplicateAck { req, server },
        32 => ReplicateLedger { from, reset, blobs },
        33 => MigrateBegin { mig, partition, to, client, kind },
        34 => MigrateData { mig, partition, phase, last, client, pairs, kind },
        35 => MigrateApplied { mig, phase, server },
        36 => MigrateCutover { mig },
        37 => MigrateFinish { mig },
        38 => Heartbeat { from, seq, load },
        39 => Suspect { from, suspect },
        40 => SuspectAck { suspect, confirmed },
        45 => Crash,
        46 => Shutdown,
    }
}

/// `CoordRecover` ships its ledger events as storage blobs, each of which
/// names its travel; a blob naming another travel makes the frame
/// malformed.
mod coord_recover {
    use super::*;

    pub(super) fn put(msg: &Msg, out: &mut Vec<u8>) {
        if let Msg::CoordRecover {
            travel,
            epoch,
            plan,
            client,
            events,
        } = msg
        {
            travel.put(out);
            epoch.put(out);
            plan.put(out);
            client.put(out);
            let blobs: Vec<Vec<u8>> = events.iter().map(|ev| ev.encode(*travel)).collect();
            blobs.put(out);
        }
    }

    pub(super) fn get(r: &mut Reader<'_>) -> Result<Msg, ProtoError> {
        let travel = u64::get(r)?;
        let (epoch, plan, client) = (Wire::get(r)?, Wire::get(r)?, Wire::get(r)?);
        let events = Vec::<Vec<u8>>::get(r)?
            .iter()
            .map(|blob| match LedgerEvent::decode(blob) {
                Some((t, ev)) if t == travel => Ok(ev),
                _ => Err(ProtoError::Malformed),
            })
            .collect::<Result<_, _>>()?;
        Ok(Msg::CoordRecover {
            travel,
            epoch,
            plan,
            client,
            events,
        })
    }
}

impl WireCodec for Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.put(out);
    }

    fn decode(buf: &[u8]) -> Option<Msg> {
        decode_exact(buf).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::GTravel;
    use gt_graph::{Edge, PropFilter, PropValue, Props, Vertex, VertexId};
    use gt_placement::PlacementMap;
    use std::sync::Arc;

    const T_SUBMIT: u8 = 1;
    const T_RESULTS: u8 = 13;

    fn rt(msg: Msg) {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        let back = Msg::decode(&buf).unwrap_or_else(|| panic!("decode failed for {msg:?}"));
        // Msg is not PartialEq (Arc<Plan> payloads); compare debug forms,
        // which print through the Arc and cover every field.
        assert_eq!(format!("{msg:?}"), format!("{back:?}"));
    }

    fn sample_plan() -> Arc<Plan> {
        Arc::new(
            GTravel::v([1u64, 9])
                .va(PropFilter::eq("type", "User"))
                .e("run")
                .ea(PropFilter::range("start_ts", 10i64, 99i64))
                .e("read")
                .va(PropFilter::is_in(
                    "fmt",
                    vec![PropValue::Str("h5".into()), PropValue::Str("csv".into())],
                ))
                .rtn()
                .as_of(77)
                .compile()
                .expect("sample plan compiles"),
        )
    }

    fn sample_msgs() -> Vec<Msg> {
        let plan = sample_plan();
        let vertex = Vertex::new(5u64, "User", Props::new().with("name", "a").with("n", 3i64));
        let edge = Edge::new(5u64, "run", 6u64, Props::new().with("t", 1i64));
        vec![
            Msg::Submit {
                travel: 1,
                plan: plan.clone(),
                client: 3,
            },
            Msg::Abort { travel: 2 },
            Msg::ProgressQuery {
                travel: 3,
                client: 4,
            },
            Msg::ProgressReport {
                travel: 3,
                snapshot: ProgressSnapshot {
                    created: 5,
                    terminated: 2,
                    outstanding_by_depth: vec![(0, 1), (1, 2)],
                },
            },
            Msg::TravelDone {
                travel: 3,
                outcome: TravelOutcome {
                    by_depth: vec![(1, vec![VertexId(5), VertexId(9)]), (2, vec![])],
                    progress: ProgressSnapshot::default(),
                },
            },
            Msg::Cancel {
                travel: 4,
                client: 3,
            },
            Msg::CancelAck {
                travel: 4,
                server: 1,
            },
            Msg::SourceScan {
                travel: 5,
                plan: plan.clone(),
                coordinator: 0,
                exec: ExecId::new(0, 7),
            },
            Msg::Visit {
                travel: 5,
                depth: 1,
                exec: ExecId::new(1, 8),
                plan: plan.clone(),
                coordinator: 0,
                items: vec![
                    (VertexId(1), vec![]),
                    (VertexId(2), vec![Token { owner: 1, id: 42 }]),
                ],
            },
            Msg::ExecCreated {
                travel: 5,
                exec: ExecId::new(1, 9),
                depth: 2,
            },
            Msg::ExecTerminated {
                travel: 5,
                exec: ExecId::new(1, 9),
                children: vec![(ExecId::new(2, 1), 3)],
            },
            Msg::OriginSatisfied {
                travel: 5,
                exec: ExecId::new(2, 2),
                coordinator: 0,
                tokens: vec![7, 8],
            },
            Msg::Results {
                travel: 5,
                items: vec![(1, VertexId(10))],
            },
            Msg::SyncStart {
                travel: 6,
                plan: plan.clone(),
                coordinator: 1,
                depth: 0,
                expect: SyncExpect::ScanSource,
            },
            Msg::SyncStart {
                travel: 6,
                plan: plan.clone(),
                coordinator: 1,
                depth: 1,
                expect: SyncExpect::Vertices(12),
            },
            Msg::SyncStart {
                travel: 6,
                plan: plan.clone(),
                coordinator: 1,
                depth: 2,
                expect: SyncExpect::OriginTokens(3),
            },
            Msg::SyncFrontier {
                travel: 6,
                depth: 1,
                items: vec![(VertexId(3), vec![Token { owner: 0, id: 1 }])],
            },
            Msg::SyncOrigin {
                travel: 6,
                tokens: vec![1, 2, 3],
            },
            Msg::SyncStepDone {
                travel: 6,
                depth: 1,
                server: 2,
                sent: vec![(0, 5), (1, 6)],
                origin_sent: vec![(2, 1)],
            },
            Msg::Ingest {
                req: 9,
                client: 3,
                vertices: vec![vertex.clone()],
                edges: vec![edge.clone()],
            },
            Msg::IngestAck {
                req: 9,
                applied: 2,
                wseq: 44,
            },
            Msg::GetVertex {
                req: 10,
                client: 3,
                vertex: VertexId(5),
                barrier: 44,
            },
            Msg::VertexReply {
                req: 10,
                vertex: Some(Box::new(vertex.clone())),
            },
            Msg::VertexReply {
                req: 11,
                vertex: None,
            },
            Msg::Relay {
                travel: 5,
                from: 1,
                epoch: 2,
                tepoch: 3,
                seq: 4,
                attempt: 1,
                inner: Box::new(Msg::Results {
                    travel: 5,
                    items: vec![(1, VertexId(10))],
                }),
            },
            Msg::RelayAck {
                travel: 5,
                server: 2,
                seq: 4,
                attempt: 1,
            },
            Msg::CoordRecover {
                travel: 7,
                epoch: 2,
                plan: plan.clone(),
                client: 3,
                events: vec![
                    LedgerEvent::Created {
                        epoch: 1,
                        exec: ExecId::new(0, 1),
                        depth: 0,
                    },
                    LedgerEvent::Snapshot {
                        epoch: 1,
                        created: vec![(ExecId::new(0, 1), 0)],
                        terminated: vec![ExecId::new(0, 1)],
                        results: vec![(0, VertexId(1))],
                    },
                ],
            },
            Msg::CoordHandoff {
                travel: 7,
                epoch: 3,
                coordinator: 2,
                restarted: Some(1),
            },
            Msg::CoordHandoff {
                travel: 7,
                epoch: 3,
                coordinator: 2,
                restarted: None,
            },
            Msg::ReAnnounce {
                travel: 7,
                epoch: 3,
                server: 0,
                created: vec![(ExecId::new(0, 2), 1)],
                terminated: vec![(ExecId::new(0, 2), vec![(ExecId::new(1, 1), 2)])],
                results: vec![(1, VertexId(4))],
            },
            Msg::RecoverDone {
                travel: 7,
                epoch: 3,
            },
            Msg::PlacementUpdate {
                map: Arc::new(PlacementMap::initial(3, 2)),
                client: 3,
            },
            Msg::PlacementAck {
                version: 1,
                server: 0,
            },
            Msg::ReplicateWrite {
                req: 12,
                origin: 0,
                wseq: 5,
                seq: Some(6),
                vertices: vec![vertex.clone()],
                edges: vec![edge],
            },
            Msg::ReplicateAck { req: 12, server: 1 },
            Msg::ReplicateLedger {
                from: 0,
                blobs: vec![vec![1, 2, 3], vec![]],
                reset: true,
            },
            Msg::MigrateBegin {
                mig: 20,
                partition: 1,
                to: 2,
                client: 3,
                kind: CopyKind::Move,
            },
            Msg::MigrateData {
                mig: 20,
                partition: 1,
                pairs: vec![
                    ("verts".into(), vec![1, 2], Some(vec![3])),
                    ("edges".into(), vec![4], None),
                ],
                phase: 0,
                last: true,
                client: 3,
                kind: CopyKind::Move,
            },
            Msg::MigrateApplied {
                mig: 20,
                phase: 1,
                server: 2,
            },
            Msg::MigrateCutover { mig: 20 },
            Msg::MigrateFinish { mig: 20 },
            Msg::Heartbeat {
                from: 1,
                seq: 99,
                load: 1000,
            },
            Msg::Suspect {
                from: 0,
                suspect: 1,
            },
            Msg::SuspectAck {
                suspect: 1,
                confirmed: false,
            },
            Msg::MigrateBegin {
                mig: 21,
                partition: 0,
                to: 1,
                client: 3,
                kind: CopyKind::AddReplica,
            },
            Msg::MigrateData {
                mig: 21,
                partition: 0,
                pairs: vec![("verts".into(), vec![9], None)],
                phase: 1,
                last: false,
                client: 3,
                kind: CopyKind::AddReplica,
            },
            Msg::Crash,
            Msg::Shutdown,
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for msg in sample_msgs() {
            rt(msg);
        }
    }

    #[test]
    fn encodings_match_golden_bytes() {
        let lines: Vec<String> = sample_msgs()
            .iter()
            .map(|msg| {
                let mut buf = Vec::new();
                msg.encode(&mut buf);
                let debug = format!("{msg:?}");
                let variant: String = debug.chars().take_while(|c| c.is_alphanumeric()).collect();
                let hex: String = buf.iter().map(|b| format!("{b:02x}")).collect();
                format!("Msg::{variant} {hex}")
            })
            .collect();
        let golden: Vec<&str> = include_str!("../tests/golden_msg.hex")
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        assert_eq!(lines, golden);
    }

    #[test]
    fn malformed_bytes_decode_to_none() {
        assert!(Msg::decode(&[]).is_none());
        assert!(Msg::decode(&[250]).is_none(), "unknown tag");
        assert!(
            Msg::decode(&[T_SUBMIT, 1, 2, 3]).is_none(),
            "truncated body"
        );
        // Trailing garbage after a complete message.
        let mut buf = Vec::new();
        Msg::Shutdown.encode(&mut buf);
        buf.push(7);
        assert!(Msg::decode(&buf).is_none());
        // A hostile length prefix larger than the buffer is rejected
        // before allocation.
        let mut buf = vec![T_RESULTS];
        buf.extend_from_slice(&5u64.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Msg::decode(&buf).is_none());
        // Relay nesting beyond the engine's single level is rejected.
        let mut deep = Msg::Results {
            travel: 1,
            items: vec![],
        };
        for _ in 0..10 {
            deep = Msg::Relay {
                travel: 1,
                from: 0,
                epoch: 0,
                tepoch: 0,
                seq: 1,
                attempt: 1,
                inner: Box::new(deep),
            };
        }
        let mut buf = Vec::new();
        deep.encode(&mut buf);
        assert!(Msg::decode(&buf).is_none());
    }

    #[test]
    fn qos_weight_survives_the_wire() {
        let mut plan = (*sample_plan()).clone();
        plan.qos_weight = 4;
        let mut buf = Vec::new();
        Msg::Submit {
            travel: 1,
            plan: Arc::new(plan),
            client: 0,
        }
        .encode(&mut buf);
        let Some(Msg::Submit { plan, .. }) = Msg::decode(&buf) else {
            panic!("expected Submit back");
        };
        assert_eq!(plan.qos_weight, 4);
    }
}
