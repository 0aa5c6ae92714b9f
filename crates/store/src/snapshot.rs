//! Snapshot file codec.
//!
//! A snapshot is one CRC-framed blob (same `[len][crc][payload]` frame
//! as a WAL record) whose payload captures every live session in full.
//! The current format is `PGS2` (`docs/replication.md` §Snapshot format
//! is the normative layout table, checked by `tests/spec_parity.rs`):
//!
//! ```text
//! payload = [magic "PGS2"][base_seq u64][next_session_id u64][count u32]
//!           count × [id u64][last_seq u64][deltas_applied u64]
//!                   [sdl: u32 len + bytes]
//!                   [pending: u8 flag][flag = 1: u32 len + bytes]
//!                   [graph_len u64]
//!                   [zero padding to the next 8-byte file offset]
//!                   [graph: graph_len bytes, a verbatim PGCS image]
//! ```
//!
//! Each graph is a self-contained [`pgraph::snapshot`] columnar image
//! (magic `PGCS`): the file bytes *are* the struct-of-arrays tables, so
//! a reader that has validated the container CRC and each image's
//! header needs **zero per-element deserialization** — it hands out
//! [`LazyGraph`]s pointing into the (typically memory-mapped) file.
//! The 8-byte frame header makes payload-relative and file-relative
//! offsets congruent mod 8, so the in-file images are 8-byte aligned.
//!
//! The `pending` field carries the candidate schema SDL of an open
//! migration window (flag 1), so compacting away the window's
//! `SchemaChange(begin)` WAL record does not lose it.
//!
//! `base_seq` is the sequence number at which the WAL was rotated when
//! the snapshot began; every record with `seq <= base_seq` is
//! superseded. Each session additionally carries its own `last_seq` —
//! its state may include records *newer* than `base_seq` (appends
//! continue while the snapshot is being captured), and replay must skip
//! exactly those.
//!
//! Reading distinguishes two failure classes:
//!
//! * [`DecodeError::Corrupt`] — torn tail, CRC mismatch, structural
//!   damage. Recovery falls back to the next older generation.
//! * [`DecodeError::Unsupported`] — an intact file in a `PGS`-family
//!   format this build does not read (a newer `PGS3`…, the retired
//!   eager `PGS1`, or a newer embedded `PGCS` version). Recovery refuses
//!   loudly with "unsupported snapshot version" instead of silently
//!   regressing to stale state.

use pgraph::snapshot as pgcs;
use pgraph::snapshot::{GraphHeader, SnapshotError};

use crate::lazy::{Backing, GraphPayload, LazyGraph};
use crate::record::{SessionMeta, FRAME_HEADER};
use crate::wire::{SNAPSHOT_GRAPH_ALIGN, SNAPSHOT_MAGIC_V2};
use crate::RecoveredSession;
use pgraph::snapshot::crc32;

/// Why a snapshot file could not be used.
#[derive(Debug)]
pub(crate) enum DecodeError {
    /// Torn, bit-flipped or structurally damaged — fall back to an
    /// older generation.
    Corrupt,
    /// Intact but in a format this build does not read — refuse recovery
    /// with this message rather than fall back.
    Unsupported(String),
}

/// Everything a decoded snapshot says.
#[derive(Debug)]
pub(crate) struct SnapshotData {
    pub base_seq: u64,
    pub next_session_id: u64,
    pub sessions: Vec<RecoveredSession>,
}

/// One session prepared for assembly: fixed metadata and the graph's
/// `PGCS` image, joined with alignment padding by [`assemble`].
pub(crate) struct SessionEntry {
    meta: Vec<u8>,
    graph: Vec<u8>,
}

/// Encodes one session entry (used incrementally during compaction so
/// graphs are serialised straight out of the session lock, no clone).
/// A [`GraphPayload::Pgcs`] payload — a still-mapped dormant session —
/// is embedded verbatim, never deserialized.
pub(crate) fn encode_session(id: u64, meta: &SessionMeta, graph: GraphPayload<'_>) -> SessionEntry {
    let graph = match graph {
        GraphPayload::Graph(g) => pgcs::graph_to_snapshot_bytes(g),
        GraphPayload::Pgcs(bytes) => bytes.to_vec(),
    };
    let mut out = Vec::with_capacity(41 + meta.schema_sdl.len());
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&meta.last_seq.to_le_bytes());
    out.extend_from_slice(&meta.deltas_applied.to_le_bytes());
    out.extend_from_slice(&(meta.schema_sdl.len() as u32).to_le_bytes());
    out.extend_from_slice(meta.schema_sdl.as_bytes());
    match &meta.pending_migration {
        Some(sdl) => {
            out.push(1);
            out.extend_from_slice(&(sdl.len() as u32).to_le_bytes());
            out.extend_from_slice(sdl.as_bytes());
        }
        None => out.push(0),
    }
    out.extend_from_slice(&(graph.len() as u64).to_le_bytes());
    SessionEntry { meta: out, graph }
}

/// Bytes of zero padding needed after a payload of length `pos` so the
/// next byte lands on an [`SNAPSHOT_GRAPH_ALIGN`]-aligned *file* offset
/// (`FRAME_HEADER` is a multiple of the alignment, so payload offsets
/// suffice).
fn pad_to_align(pos: usize) -> usize {
    (SNAPSHOT_GRAPH_ALIGN - pos % SNAPSHOT_GRAPH_ALIGN) % SNAPSHOT_GRAPH_ALIGN
}

// File-relative and payload-relative alignment coincide only because the
// frame header is itself a multiple of the graph alignment.
const _: () = assert!(FRAME_HEADER.is_multiple_of(SNAPSHOT_GRAPH_ALIGN));

/// Assembles the full framed snapshot file contents.
pub(crate) fn assemble(base_seq: u64, next_session_id: u64, sessions: &[SessionEntry]) -> Vec<u8> {
    let body: usize = sessions
        .iter()
        .map(|s| s.meta.len() + s.graph.len() + SNAPSHOT_GRAPH_ALIGN)
        .sum();
    let mut payload = Vec::with_capacity(24 + body);
    payload.extend_from_slice(&SNAPSHOT_MAGIC_V2);
    payload.extend_from_slice(&base_seq.to_le_bytes());
    payload.extend_from_slice(&next_session_id.to_le_bytes());
    payload.extend_from_slice(&(sessions.len() as u32).to_le_bytes());
    for session in sessions {
        payload.extend_from_slice(&session.meta);
        payload.resize(payload.len() + pad_to_align(payload.len()), 0);
        payload.extend_from_slice(&session.graph);
    }
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Checks the CRC frame and returns the payload (everything the CRC
/// covers).
fn framed_payload(buf: &[u8]) -> Result<&[u8], DecodeError> {
    if buf.len() < FRAME_HEADER {
        return Err(DecodeError::Corrupt);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if buf.len() != FRAME_HEADER + len {
        return Err(DecodeError::Corrupt);
    }
    let payload = &buf[FRAME_HEADER..];
    if crc32(payload) != crc {
        return Err(DecodeError::Corrupt);
    }
    Ok(payload)
}

fn take<'a>(payload: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], DecodeError> {
    let slice = payload.get(*pos..*pos + n).ok_or(DecodeError::Corrupt)?;
    *pos += n;
    Ok(slice)
}

fn take_u32(payload: &[u8], pos: &mut usize) -> Result<u32, DecodeError> {
    Ok(u32::from_le_bytes(
        take(payload, pos, 4)?.try_into().unwrap(),
    ))
}

fn take_u64(payload: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    Ok(u64::from_le_bytes(
        take(payload, pos, 8)?.try_into().unwrap(),
    ))
}

fn take_str(payload: &[u8], pos: &mut usize) -> Result<String, DecodeError> {
    let len = take_u32(payload, pos)? as usize;
    std::str::from_utf8(take(payload, pos, len)?)
        .map(str::to_owned)
        .map_err(|_| DecodeError::Corrupt)
}

/// The structure of one session entry: decoded metadata plus the
/// payload-relative byte range of its `PGCS` graph image.
struct WalkedSession {
    id: u64,
    meta: SessionMeta,
    graph_range: std::ops::Range<usize>,
}

/// Walks a payload structurally (after the magic), validating alignment
/// padding and graph bounds but not graph contents.
fn walk(payload: &[u8]) -> Result<(u64, u64, Vec<WalkedSession>), DecodeError> {
    let mut pos = 4usize; // past the magic
    let base_seq = take_u64(payload, &mut pos)?;
    let next_session_id = take_u64(payload, &mut pos)?;
    let count = take_u32(payload, &mut pos)? as usize;
    let mut sessions = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let id = take_u64(payload, &mut pos)?;
        let last_seq = take_u64(payload, &mut pos)?;
        let deltas_applied = take_u64(payload, &mut pos)?;
        let schema_sdl = take_str(payload, &mut pos)?;
        let pending_migration = match take(payload, &mut pos, 1)?[0] {
            0 => None,
            1 => Some(take_str(payload, &mut pos)?),
            _ => return Err(DecodeError::Corrupt),
        };
        let graph_len = take_u64(payload, &mut pos)? as usize;
        let pad_len = pad_to_align(pos);
        let pad = take(payload, &mut pos, pad_len)?;
        if pad.iter().any(|&b| b != 0) {
            return Err(DecodeError::Corrupt);
        }
        let start = pos;
        take(payload, &mut pos, graph_len)?;
        sessions.push(WalkedSession {
            id,
            meta: SessionMeta {
                schema_sdl,
                deltas_applied,
                last_seq,
                pending_migration,
            },
            graph_range: start..pos,
        });
    }
    if pos != payload.len() {
        return Err(DecodeError::Corrupt);
    }
    Ok((base_seq, next_session_id, sessions))
}

/// Maps a failure from the embedded-graph codec onto the container's
/// corrupt/unsupported split.
fn graph_error(e: SnapshotError) -> DecodeError {
    match e {
        SnapshotError::UnsupportedVersion { found } => DecodeError::Unsupported(format!(
            "unsupported snapshot version: embedded PGCS graph v{found}, this build reads v{}",
            pgcs::VERSION
        )),
        _ => DecodeError::Corrupt,
    }
}

/// Decodes a snapshot: validates the container CRC (which covers every
/// embedded image byte) and each graph's fixed-size header, then returns
/// *mapped* [`LazyGraph`]s into `backing` — one checksum pass over the
/// file and no per-element work; the per-image CRC re-verifies lazily
/// when a graph materializes. Any other `PGS`-family magic yields
/// [`DecodeError::Unsupported`]; anything else wrong yields
/// [`DecodeError::Corrupt`] (the caller falls back to an older
/// generation).
pub(crate) fn decode(backing: &Backing) -> Result<SnapshotData, DecodeError> {
    let buf = backing.bytes();
    let payload = framed_payload(buf)?;
    match payload.get(..4) {
        Some(m) if m == SNAPSHOT_MAGIC_V2 => {
            let (base_seq, next_session_id, entries) = walk(payload)?;
            let mut sessions = Vec::with_capacity(entries.len());
            for e in entries {
                // Header only: magic, version, bounds. The container CRC
                // already proved the image bytes intact; the image's own
                // CRC re-verifies at materialize time.
                GraphHeader::parse(&payload[e.graph_range.clone()]).map_err(graph_error)?;
                // File-relative range into the shared backing.
                let range = FRAME_HEADER + e.graph_range.start..FRAME_HEADER + e.graph_range.end;
                sessions.push(RecoveredSession {
                    id: e.id,
                    graph: LazyGraph::mapped(backing.clone(), range),
                    meta: e.meta,
                });
            }
            Ok(SnapshotData {
                base_seq,
                next_session_id,
                sessions,
            })
        }
        Some(m) if m.starts_with(b"PGS") => {
            let tag = String::from_utf8_lossy(m).into_owned();
            Err(DecodeError::Unsupported(format!(
                "unsupported snapshot version: magic `{tag}`, this build reads PGS2"
            )))
        }
        _ => Err(DecodeError::Corrupt),
    }
}

/// What `pgschema store inspect` reports about one snapshot file: the
/// container format and CRC status plus every embedded graph's header
/// (version, element counts, section table, CRC).
#[derive(Debug)]
pub struct SnapshotDesc {
    /// Container format: 2 (`PGS2`), or 0 if unrecognized.
    pub format: u32,
    /// Container frame CRC verdict.
    pub crc_ok: bool,
    /// `base_seq` of the container (0 if unreadable).
    pub base_seq: u64,
    /// Decoded session count (0 if unreadable).
    pub sessions: usize,
    /// Whether the whole file decodes cleanly end to end.
    pub valid: bool,
    /// Per-graph header details.
    pub graphs: Vec<GraphDesc>,
}

/// Header details of one embedded `PGCS` graph image.
#[derive(Debug)]
pub struct GraphDesc {
    /// Owning session id.
    pub session: u64,
    /// The session's `last_seq` (newest WAL record its state reflects).
    pub last_seq: u64,
    /// Absolute file offset of the image.
    pub file_offset: u64,
    /// Image length in bytes.
    pub len: u64,
    /// `PGCS` format version, if the header parses.
    pub version: Option<u32>,
    /// Whether the image's recorded CRC matches its bytes.
    pub crc_ok: bool,
    /// Section table: `(name, offset-within-image, len)`.
    pub sections: Vec<(&'static str, u64, u64)>,
}

/// Describes a snapshot file for `store inspect` without requiring it
/// to be fully valid — reports as much structure as survives.
pub(crate) fn describe(buf: &[u8]) -> SnapshotDesc {
    let mut desc = SnapshotDesc {
        format: 0,
        crc_ok: false,
        base_seq: 0,
        sessions: 0,
        valid: false,
        graphs: Vec::new(),
    };
    let Ok(payload) = framed_payload(buf) else {
        return desc;
    };
    desc.crc_ok = true;
    if payload.get(..4) != Some(&SNAPSHOT_MAGIC_V2[..]) {
        return desc;
    }
    desc.format = 2;
    let Ok((base_seq, _next, entries)) = walk(payload) else {
        return desc;
    };
    desc.base_seq = base_seq;
    desc.sessions = entries.len();
    desc.valid = true;
    for e in &entries {
        let bytes = &payload[e.graph_range.clone()];
        let header = GraphHeader::parse(bytes).ok();
        let crc_ok = header.as_ref().is_some_and(|h| h.crc_ok(bytes));
        desc.valid &= crc_ok;
        desc.graphs.push(GraphDesc {
            session: e.id,
            last_seq: e.meta.last_seq,
            file_offset: (FRAME_HEADER + e.graph_range.start) as u64,
            len: (e.graph_range.end - e.graph_range.start) as u64,
            version: header.as_ref().map(|h| h.version),
            crc_ok,
            sections: header
                .map(|h| {
                    pgcs::SECTION_NAMES
                        .iter()
                        .zip(h.sections.iter())
                        .map(|(name, s)| (*name, s.offset, s.len))
                        .collect()
                })
                .unwrap_or_default(),
        });
    }
    desc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use pgraph::{PropertyGraph, Value};

    fn heap(bytes: &[u8]) -> Backing {
        Backing::Heap(Arc::new(bytes.to_vec()))
    }

    fn sample_graph() -> PropertyGraph {
        let mut graph = PropertyGraph::new();
        let u = graph.add_node("User");
        graph.set_node_property(u, "login", Value::from("alice"));
        graph
    }

    fn meta(last_seq: u64, deltas_applied: u64, sdl: &str, pending: Option<&str>) -> SessionMeta {
        SessionMeta {
            schema_sdl: sdl.to_owned(),
            deltas_applied,
            last_seq,
            pending_migration: pending.map(str::to_owned),
        }
    }

    fn sample() -> Vec<u8> {
        let graph = sample_graph();
        let entries = vec![
            encode_session(
                1,
                &meta(5, 4, "type User { login: String! }", None),
                GraphPayload::Graph(&graph),
            ),
            encode_session(
                7,
                &meta(9, 0, "type T { x: Int }", Some("type T { x: Int y: Int }")),
                GraphPayload::Graph(&PropertyGraph::new()),
            ),
        ];
        assemble(9, 8, &entries)
    }

    #[test]
    fn snapshot_round_trip() {
        let bytes = sample();
        let snap = decode(&heap(&bytes)).expect("decodes");
        assert_eq!(snap.base_seq, 9);
        assert_eq!(snap.next_session_id, 8);
        assert_eq!(snap.sessions.len(), 2);
        assert_eq!(snap.sessions[0].id, 1);
        assert_eq!(snap.sessions[0].meta.last_seq, 5);
        assert_eq!(snap.sessions[0].meta.deltas_applied, 4);
        let mut g0 = snap.sessions[0].graph.clone();
        assert!(g0.is_mapped(), "v2 decode defers materialization");
        assert_eq!(g0.load().expect("thaws").node_count(), 1);
        assert_eq!(snap.sessions[0].meta.pending_migration, None);
        assert_eq!(snap.sessions[1].id, 7);
        assert!(snap.sessions[1]
            .graph
            .clone()
            .into_graph()
            .expect("thaws")
            .is_empty());
        assert_eq!(
            snap.sessions[1].meta.pending_migration.as_deref(),
            Some("type T { x: Int y: Int }"),
            "open migration window survives the snapshot"
        );
    }

    #[test]
    fn embedded_graphs_are_file_aligned() {
        let bytes = sample();
        let snap = decode(&heap(&bytes)).expect("decodes");
        for s in &snap.sessions {
            let pgcs_bytes = s.graph.pgcs().expect("mapped");
            assert_eq!(&pgcs_bytes[..4], b"PGCS");
        }
        let desc = describe(&bytes);
        assert_eq!(desc.graphs.len(), 2);
        for g in &desc.graphs {
            let offset = g.file_offset as usize;
            assert_eq!(
                offset % SNAPSHOT_GRAPH_ALIGN,
                0,
                "session {} misaligned",
                g.session
            );
            assert_eq!(&bytes[offset..offset + 4], b"PGCS");
        }
    }

    #[test]
    fn verbatim_pgcs_payload_round_trips() {
        let graph = sample_graph();
        let image = pgcs::graph_to_snapshot_bytes(&graph);
        let entries = vec![encode_session(
            3,
            &meta(2, 1, "type User { login: String! }", None),
            GraphPayload::Pgcs(&image),
        )];
        let bytes = assemble(2, 4, &entries);
        let snap = decode(&heap(&bytes)).expect("decodes");
        assert_eq!(snap.sessions[0].graph.pgcs(), Some(&image[..]));
        assert_eq!(
            snap.sessions[0].graph.clone().into_graph().expect("thaws"),
            graph
        );
    }

    #[test]
    fn future_format_is_unsupported_not_corrupt() {
        // An intact file from a future writer (PGS3) or from the retired
        // eager format (PGS1): the magic rewritten, the CRC fixed up.
        for digit in [b'3', b'1'] {
            let mut bytes = sample();
            bytes[FRAME_HEADER + 3] = digit;
            let crc = crc32(&bytes[FRAME_HEADER..]);
            bytes[4..8].copy_from_slice(&crc.to_le_bytes());
            match decode(&heap(&bytes)) {
                Err(DecodeError::Unsupported(msg)) => {
                    assert!(msg.contains("unsupported snapshot version"), "{msg}");
                    assert!(msg.contains(&format!("PGS{}", digit as char)), "{msg}");
                }
                other => panic!("expected Unsupported, got {other:?}"),
            }
            assert_eq!(describe(&bytes).format, 0);
        }
    }

    #[test]
    fn any_corruption_rejects_the_whole_snapshot() {
        let clean = sample();
        for cut in 0..clean.len() {
            assert!(
                decode(&heap(&clean[..cut])).is_err(),
                "prefix {cut} decoded"
            );
        }
        for byte in 0..clean.len() {
            let mut buf = clean.clone();
            buf[byte] ^= 0x10;
            assert!(decode(&heap(&buf)).is_err(), "flip at {byte} decoded");
        }
    }

    #[test]
    fn describe_reports_headers_and_sections() {
        let bytes = sample();
        let desc = describe(&bytes);
        assert_eq!(desc.format, 2);
        assert!(desc.crc_ok);
        assert!(desc.valid);
        assert_eq!(desc.base_seq, 9);
        assert_eq!(desc.sessions, 2);
        assert_eq!(desc.graphs.len(), 2);
        let g = &desc.graphs[0];
        assert_eq!(g.session, 1);
        assert_eq!(g.version, Some(pgcs::VERSION));
        assert!(g.crc_ok);
        assert_eq!(g.file_offset % SNAPSHOT_GRAPH_ALIGN as u64, 0);
        assert_eq!(g.sections.len(), pgcs::SECTION_COUNT);
        assert_eq!(g.sections[0].0, "node_alive");
    }
}
