//! WAL record model and frame codec.
//!
//! Every record is framed as
//!
//! ```text
//! [payload_len: u32 LE][crc32(payload): u32 LE][payload]
//! payload = [seq: u64 LE][kind: u8][body…]
//! ```
//!
//! The CRC covers the whole payload (sequence number included), so a
//! bit-flip anywhere in a record — header or body — fails verification.
//! Frames are self-delimiting; a reader walks a segment frame by frame
//! and stops at the first one that is torn (runs past the end of the
//! file) or corrupt (CRC or structural decode failure). Everything
//! before that point is trusted; everything from it on is discarded —
//! the classic prefix-durability contract of a write-ahead log.

use pgraph::{binary, GraphDelta, PropertyGraph};

pub(crate) use crate::wire::FRAME_HEADER_BYTES as FRAME_HEADER;
use crate::wire::{
    KIND_CREATE, KIND_DELETE, KIND_DELTA, KIND_SCHEMA, MAX_PAYLOAD_BYTES as MAX_PAYLOAD,
    MIN_PAYLOAD_BYTES,
};
use pgraph::snapshot::crc32;

/// The phase a [`StoreRecord::SchemaChange`] logs, encoded as one byte
/// in the record body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPhase {
    /// A dual-schema migration window opened; the record carries the
    /// candidate schema's SDL.
    Begin = 1,
    /// The window closed clean: the candidate schema is now the
    /// session's schema.
    Commit = 2,
    /// The window was abandoned; the session keeps its old schema.
    Abort = 3,
}

impl MigrationPhase {
    fn from_byte(b: u8) -> Option<MigrationPhase> {
        match b {
            1 => Some(MigrationPhase::Begin),
            2 => Some(MigrationPhase::Commit),
            3 => Some(MigrationPhase::Abort),
            _ => None,
        }
    }
}

/// One durable event in a session's life.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreRecord {
    /// A session was created from a schema and an initial graph.
    Create {
        /// The session id.
        session: u64,
        /// The schema's SDL source text (re-parsed on recovery).
        schema_sdl: String,
        /// The initial graph.
        graph: PropertyGraph,
    },
    /// A delta was applied to a session (logged even when application
    /// failed mid-delta: `GraphDelta::apply_to` keeps the effects of the
    /// ops preceding the failure, and replay reproduces that partial
    /// state deterministically).
    Delta {
        /// The session id.
        session: u64,
        /// The mutation log.
        delta: GraphDelta,
    },
    /// A session was deleted (explicitly or by LRU eviction).
    Delete {
        /// The session id.
        session: u64,
    },
    /// A schema-migration phase transition on a session: a dual-schema
    /// window opened (carrying the candidate schema's SDL, produced by
    /// the `sdl` printer), committed, or aborted. Logged so an open
    /// window survives crashes and ships to followers.
    SchemaChange {
        /// The session id.
        session: u64,
        /// Which transition this record logs.
        phase: MigrationPhase,
        /// The candidate schema's SDL for [`MigrationPhase::Begin`];
        /// empty for commit/abort (recovery resolves the pending SDL).
        schema_sdl: String,
    },
}

/// What a [`StoreRecord::Delta`] or [`StoreRecord::SchemaChange`] asks of
/// the one session it addresses. `Create` and `Delete` act on the
/// session *map* and stay with whoever owns it.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionChange {
    /// Apply this mutation log to the session's graph.
    Delta(GraphDelta),
    /// Move the migration window through `phase`; the SDL is the
    /// candidate's for [`MigrationPhase::Begin`] and empty otherwise.
    Schema(MigrationPhase, String),
}

/// What a record did to the session it addressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// The session already reflects the record (it was captured into a
    /// snapshot after the record, or the record was redelivered):
    /// nothing changed.
    Duplicate,
    /// A delta ran against the graph — in full, or part-way with its
    /// effects kept (recovery rule 4).
    Applied,
    /// `Begin`: [`SessionMeta::pending_migration`] now holds the
    /// candidate.
    Opened,
    /// `Commit`: the pending candidate became the session's schema.
    Committed,
    /// `Abort`: the pending candidate was dropped.
    Aborted,
    /// A `Commit` or `Abort` that found no window to close; only
    /// `last_seq` moved.
    NoWindow,
}

/// A session's durable state besides its graph — what a snapshot entry
/// and a recovered, replicated or live session all carry — and the one
/// definition of what a WAL record does to it. Recovery and followers
/// feed records through [`replay`](Self::replay); a leader, which
/// assigns the sequence numbers itself, calls the ungated halves
/// [`delta_ran`](Self::delta_ran) and
/// [`schema_change`](Self::schema_change) directly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionMeta {
    /// The schema's SDL source (re-parsed by whoever hydrates the
    /// session).
    pub schema_sdl: String,
    /// Deltas that applied in full over the session's life.
    pub deltas_applied: u64,
    /// Sequence number of the last record the session reflects (0
    /// without a store).
    pub last_seq: u64,
    /// The candidate schema SDL of an open migration window (a `Begin`
    /// with no `Commit`/`Abort` yet), if any.
    pub pending_migration: Option<String>,
}

impl SessionMeta {
    /// The state a `Create` record logged at `seq` leaves behind.
    pub fn created(schema_sdl: String, seq: u64) -> SessionMeta {
        SessionMeta {
            schema_sdl,
            last_seq: seq,
            ..SessionMeta::default()
        }
    }

    /// The seq gate: a record at or below `last_seq` is a duplicate.
    /// Sessions captured into a snapshot after the WAL rotation already
    /// contain post-rotation records, and a follower sees redelivery
    /// after a reconnect; applying a delta twice is not idempotent.
    pub fn reflects(&self, seq: u64) -> bool {
        seq <= self.last_seq
    }

    /// Applies the record `seq` carried for this session, unless the
    /// session already reflects it. `mutate` runs a delta against the
    /// session's graph, wherever that lives, and says whether it applied
    /// in full; an error from it (the graph could not be reached)
    /// propagates with nothing changed, so the record can be retried.
    pub fn replay<E>(
        &mut self,
        seq: u64,
        change: SessionChange,
        mutate: impl FnOnce(&GraphDelta) -> Result<bool, E>,
    ) -> Result<Effect, E> {
        if self.reflects(seq) {
            return Ok(Effect::Duplicate);
        }
        let effect = match change {
            SessionChange::Delta(delta) => {
                self.delta_ran(mutate(&delta)?);
                Effect::Applied
            }
            SessionChange::Schema(phase, schema_sdl) => self.schema_change(phase, schema_sdl),
        };
        self.last_seq = seq;
        Ok(effect)
    }

    /// Recovery rule 4: a delta that failed part-way keeps its effects
    /// on the graph (`GraphDelta::apply_to` is deterministic, so every
    /// replica reproduces the same partial state) and does not count
    /// towards `deltas_applied`.
    pub fn delta_ran(&mut self, in_full: bool) {
        if in_full {
            self.deltas_applied += 1;
        }
    }

    /// The migration-window bookkeeping of a `SchemaChange` record. A
    /// commit's own SDL is empty: the candidate comes from the pending
    /// `Begin` (or from the snapshot that captured the open window).
    pub fn schema_change(&mut self, phase: MigrationPhase, schema_sdl: String) -> Effect {
        match (phase, self.pending_migration.take()) {
            (MigrationPhase::Begin, _) => {
                self.pending_migration = Some(schema_sdl);
                Effect::Opened
            }
            (MigrationPhase::Commit, Some(candidate)) => {
                self.schema_sdl = candidate;
                Effect::Committed
            }
            (MigrationPhase::Abort, Some(_)) => Effect::Aborted,
            (MigrationPhase::Commit | MigrationPhase::Abort, None) => Effect::NoWindow,
        }
    }
}

/// Encodes one framed record ready to append to a segment.
pub(crate) fn encode_frame(seq: u64, record: &StoreRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    payload.extend_from_slice(&seq.to_le_bytes());
    match record {
        StoreRecord::Create {
            session,
            schema_sdl,
            graph,
        } => {
            payload.push(KIND_CREATE);
            payload.extend_from_slice(&session.to_le_bytes());
            payload.extend_from_slice(&(schema_sdl.len() as u32).to_le_bytes());
            payload.extend_from_slice(schema_sdl.as_bytes());
            payload.extend_from_slice(&binary::graph_to_bytes(graph));
        }
        StoreRecord::Delta { session, delta } => {
            payload.push(KIND_DELTA);
            payload.extend_from_slice(&session.to_le_bytes());
            payload.extend_from_slice(&binary::delta_to_bytes(delta));
        }
        StoreRecord::Delete { session } => {
            payload.push(KIND_DELETE);
            payload.extend_from_slice(&session.to_le_bytes());
        }
        StoreRecord::SchemaChange {
            session,
            phase,
            schema_sdl,
        } => {
            payload.push(KIND_SCHEMA);
            payload.extend_from_slice(&session.to_le_bytes());
            payload.push(*phase as u8);
            payload.extend_from_slice(&(schema_sdl.len() as u32).to_le_bytes());
            payload.extend_from_slice(schema_sdl.as_bytes());
        }
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// A record parsed out of a segment, with its byte offset.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ParsedRecord {
    /// The record's monotonic sequence number.
    pub seq: u64,
    /// The decoded record.
    pub record: StoreRecord,
    /// Byte offset of the frame within its segment.
    pub offset: u64,
}

/// A CRC-valid frame whose `kind` byte this implementation does not
/// know — written by a newer implementation, not corruption. Readers
/// must surface this as an explicit error instead of truncating the
/// tail at a frame that is perfectly intact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct UnknownKind {
    /// The unrecognised `kind` byte.
    pub kind: u8,
    /// The frame's sequence number.
    pub seq: u64,
    /// Byte offset of the frame within its segment.
    pub offset: u64,
}

impl UnknownKind {
    /// The canonical reader-facing error for this condition.
    pub fn to_error(&self) -> std::io::Error {
        std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            format!(
                "unknown record kind {} (newer writer?) at seq {}, offset {}",
                self.kind, self.seq, self.offset
            ),
        )
    }
}

/// The result of walking one segment's frames.
#[derive(Debug)]
pub(crate) struct SegmentParse {
    /// Records up to (exclusive) the first invalid frame.
    pub records: Vec<ParsedRecord>,
    /// Bytes consumed by valid frames; equals the buffer length when the
    /// segment is clean.
    pub valid_len: u64,
    /// Why parsing stopped early at a torn or *corrupt* frame, if it
    /// did. Mutually exclusive with `unknown`.
    pub torn: Option<String>,
    /// Set when parsing stopped at a CRC-valid frame of an unknown kind
    /// (forward compatibility: a newer writer, not damage).
    pub unknown: Option<UnknownKind>,
}

/// Walks `buf` frame by frame, stopping at the first torn or corrupt
/// frame (`torn`) or at the first valid frame of an unrecognised kind
/// (`unknown`). Never fails: the stop reason terminates the parse, it
/// does not error it — callers decide (truncate damage, refuse unknown
/// kinds).
pub(crate) fn parse_segment(buf: &[u8]) -> SegmentParse {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut unknown = None;
    let torn = loop {
        if pos == buf.len() {
            break None;
        }
        if buf.len() - pos < FRAME_HEADER {
            break Some(format!("partial frame header at offset {pos}"));
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        if !(MIN_PAYLOAD_BYTES..=MAX_PAYLOAD).contains(&len) {
            break Some(format!("implausible payload length {len} at offset {pos}"));
        }
        if buf.len() - pos - FRAME_HEADER < len {
            break Some(format!("torn payload at offset {pos}"));
        }
        let payload = &buf[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
        if crc32(payload) != crc {
            break Some(format!("CRC mismatch at offset {pos}"));
        }
        match decode_payload(payload) {
            Decoded::Record(seq, record) => records.push(ParsedRecord {
                seq,
                record,
                offset: pos as u64,
            }),
            Decoded::UnknownKind { kind, seq } => {
                unknown = Some(UnknownKind {
                    kind,
                    seq,
                    offset: pos as u64,
                });
                break None;
            }
            Decoded::Corrupt => break Some(format!("undecodable record body at offset {pos}")),
        }
        pos += FRAME_HEADER + len;
    };
    SegmentParse {
        records,
        valid_len: pos as u64,
        torn,
        unknown,
    }
}

enum Decoded {
    Record(u64, StoreRecord),
    UnknownKind { kind: u8, seq: u64 },
    Corrupt,
}

fn decode_payload(payload: &[u8]) -> Decoded {
    match try_decode_payload(payload) {
        Some(decoded) => decoded,
        None => Decoded::Corrupt,
    }
}

fn try_decode_payload(payload: &[u8]) -> Option<Decoded> {
    let seq = u64::from_le_bytes(payload.get(..8)?.try_into().unwrap());
    let kind = *payload.get(8)?;
    let body = &payload[9..];
    if !matches!(kind, KIND_CREATE | KIND_DELTA | KIND_DELETE | KIND_SCHEMA) {
        return Some(Decoded::UnknownKind { kind, seq });
    }
    let session = u64::from_le_bytes(body.get(..8)?.try_into().unwrap());
    let rest = &body[8..];
    let record = match kind {
        KIND_CREATE => {
            let sdl_len = u32::from_le_bytes(rest.get(..4)?.try_into().unwrap()) as usize;
            let sdl_bytes = rest.get(4..4 + sdl_len)?;
            let schema_sdl = std::str::from_utf8(sdl_bytes).ok()?.to_owned();
            let graph = binary::graph_from_bytes(&rest[4 + sdl_len..]).ok()?;
            StoreRecord::Create {
                session,
                schema_sdl,
                graph,
            }
        }
        KIND_DELTA => StoreRecord::Delta {
            session,
            delta: binary::delta_from_bytes(rest).ok()?,
        },
        KIND_DELETE => {
            if !rest.is_empty() {
                return None;
            }
            StoreRecord::Delete { session }
        }
        KIND_SCHEMA => {
            let phase = MigrationPhase::from_byte(*rest.first()?)?;
            let sdl_len = u32::from_le_bytes(rest.get(1..5)?.try_into().unwrap()) as usize;
            let sdl_bytes = rest.get(5..)?;
            if sdl_bytes.len() != sdl_len {
                return None;
            }
            StoreRecord::SchemaChange {
                session,
                phase,
                schema_sdl: std::str::from_utf8(sdl_bytes).ok()?.to_owned(),
            }
        }
        _ => unreachable!("kind checked above"),
    };
    Some(Decoded::Record(seq, record))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgraph::Value;

    fn sample_records() -> Vec<StoreRecord> {
        let mut graph = PropertyGraph::new();
        let u = graph.add_node("User");
        graph.set_node_property(u, "login", Value::from("alice"));
        vec![
            StoreRecord::Create {
                session: 1,
                schema_sdl: "type User { login: String! }".to_owned(),
                graph,
            },
            StoreRecord::Delta {
                session: 1,
                delta: GraphDelta::new().set_node_property(
                    pgraph::NodeId::from_index(0),
                    "login",
                    Value::Int(3),
                ),
            },
            StoreRecord::SchemaChange {
                session: 1,
                phase: MigrationPhase::Begin,
                schema_sdl: "type User { login: String! handle: String }".to_owned(),
            },
            StoreRecord::SchemaChange {
                session: 1,
                phase: MigrationPhase::Commit,
                schema_sdl: String::new(),
            },
            StoreRecord::Delete { session: 1 },
        ]
    }

    fn encode_all(records: &[StoreRecord]) -> Vec<u8> {
        let mut buf = Vec::new();
        for (ix, record) in records.iter().enumerate() {
            buf.extend_from_slice(&encode_frame(ix as u64 + 1, record));
        }
        buf
    }

    #[test]
    fn session_meta_gates_counts_and_tracks_the_window() {
        let mut meta = SessionMeta::created("type A { x: Int }".to_owned(), 3);
        let delta = || SessionChange::Delta(GraphDelta::new());
        let phase = |phase, sdl: &str| SessionChange::Schema(phase, sdl.to_owned());
        let unreachable = |_: &GraphDelta| -> Result<bool, ()> { panic!("gated out") };
        // The gate: the creation's own seq and everything below it.
        assert_eq!(meta.replay(3, delta(), unreachable), Ok(Effect::Duplicate));
        // Rule 4: a part-way delta advances the session, not the count.
        assert_eq!(
            meta.replay(4, delta(), |_| Ok::<_, ()>(false)),
            Ok(Effect::Applied)
        );
        assert_eq!(
            meta.replay(5, delta(), |_| Ok::<_, ()>(true)),
            Ok(Effect::Applied)
        );
        assert_eq!((meta.last_seq, meta.deltas_applied), (5, 1));
        // An unreachable graph is an error that changes nothing.
        assert_eq!(meta.replay(6, delta(), |_| Err("io")), Err("io"));
        assert_eq!((meta.last_seq, meta.deltas_applied), (5, 1));
        // The window: commit and abort need a begin.
        let none = |_: &GraphDelta| Ok::<_, ()>(true);
        let commit = || phase(MigrationPhase::Commit, "");
        assert_eq!(meta.replay(6, commit(), none), Ok(Effect::NoWindow));
        let begin = phase(MigrationPhase::Begin, "type A { y: Int }");
        assert_eq!(meta.replay(7, begin.clone(), none), Ok(Effect::Opened));
        assert_eq!(meta.replay(7, begin, none), Ok(Effect::Duplicate));
        assert_eq!(
            meta.replay(8, phase(MigrationPhase::Abort, ""), none),
            Ok(Effect::Aborted)
        );
        assert_eq!(meta.pending_migration, None);
        let begin = phase(MigrationPhase::Begin, "type A { y: Int }");
        assert_eq!(meta.replay(9, begin, none), Ok(Effect::Opened));
        assert_eq!(meta.replay(10, commit(), none), Ok(Effect::Committed));
        assert_eq!(meta.schema_sdl, "type A { y: Int }");
        assert_eq!((meta.last_seq, meta.pending_migration), (10, None));
    }

    #[test]
    fn frames_round_trip() {
        let records = sample_records();
        let buf = encode_all(&records);
        let parse = parse_segment(&buf);
        assert!(parse.torn.is_none());
        assert_eq!(parse.valid_len, buf.len() as u64);
        assert_eq!(parse.records.len(), records.len());
        for (ix, parsed) in parse.records.iter().enumerate() {
            assert_eq!(parsed.seq, ix as u64 + 1);
            assert_eq!(parsed.record, records[ix]);
        }
    }

    #[test]
    fn every_truncation_point_recovers_the_longest_valid_prefix() {
        let records = sample_records();
        let buf = encode_all(&records);
        // Frame boundaries: prefix sums of the individual frame lengths.
        let mut boundaries = vec![0usize];
        for (ix, record) in records.iter().enumerate() {
            boundaries.push(boundaries[ix] + encode_frame(ix as u64 + 1, record).len());
        }
        for cut in 0..buf.len() {
            let parse = parse_segment(&buf[..cut]);
            let expected = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(parse.records.len(), expected, "cut at {cut}");
            assert_eq!(parse.valid_len, boundaries[expected] as u64);
            if cut != boundaries[expected] {
                assert!(parse.torn.is_some());
            }
        }
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        let records = sample_records();
        let clean = encode_all(&records);
        for byte in 0..clean.len() {
            let mut buf = clean.clone();
            buf[byte] ^= 0x40;
            let parse = parse_segment(&buf);
            // The flip must not go unnoticed: either the parse stops
            // early, or — when the flip hits a length field and happens
            // to still frame correctly — the CRC of the reshaped payload
            // fails. In all cases no *wrong* record may be accepted.
            for parsed in &parse.records {
                let expected = &records[parsed.seq as usize - 1];
                assert_eq!(&parsed.record, expected, "flip at byte {byte}");
            }
            assert!(
                parse.torn.is_some() || parse.records.len() < records.len(),
                "flip at byte {byte} was silently accepted"
            );
        }
    }

    /// Frames a raw payload the way `encode_frame` would.
    fn frame_raw(payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn unknown_kind_is_not_misclassified_as_corruption() {
        let records = sample_records();
        let mut buf = encode_all(&records);
        let prefix_len = buf.len() as u64;
        // A CRC-valid frame with kind 5 — written by a newer
        // implementation this code does not know about.
        let mut payload = Vec::new();
        payload.extend_from_slice(&(records.len() as u64 + 1).to_le_bytes());
        payload.push(5);
        payload.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(&frame_raw(&payload));

        let parse = parse_segment(&buf);
        assert_eq!(parse.records.len(), records.len(), "valid prefix kept");
        assert_eq!(parse.valid_len, prefix_len, "stops before the frame");
        assert!(parse.torn.is_none(), "not reported as damage");
        let unknown = parse.unknown.expect("unknown kind reported");
        assert_eq!(unknown.kind, 5);
        assert_eq!(unknown.seq, records.len() as u64 + 1);
        assert_eq!(unknown.offset, prefix_len);
        let msg = unknown.to_error().to_string();
        assert!(
            msg.contains("unknown record kind 5 (newer writer?)"),
            "{msg}"
        );
    }

    #[test]
    fn schema_change_bad_phase_is_corruption() {
        // Phase 0 is structurally invalid for a known kind — corruption,
        // not forward compatibility.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.push(KIND_SCHEMA);
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.push(0);
        payload.extend_from_slice(&0u32.to_le_bytes());
        let parse = parse_segment(&frame_raw(&payload));
        assert!(parse.records.is_empty());
        assert!(parse.unknown.is_none());
        assert!(parse.torn.unwrap().contains("undecodable record body"));
    }
}
