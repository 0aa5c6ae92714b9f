//! Crash recovery: newest valid snapshot + WAL tail replay.
//!
//! Invariants this module enforces (see DESIGN §Store):
//!
//! 1. **Prefix durability.** Replay stops at the first torn or corrupt
//!    frame; the segment is physically truncated there and every later
//!    segment is deleted. What remains is exactly the longest valid
//!    record prefix of the log.
//! 2. **Monotonic sequencing.** Record sequence numbers must strictly
//!    increase across segment boundaries; a regression is treated as
//!    corruption (rule 1 applies at that record).
//! 3. **Snapshot-relative replay.** A record mutates a session only if
//!    its `seq` exceeds the session's snapshotted `last_seq`
//!    ([`SessionMeta::reflects`]).
//! 4. **Deterministic partial failure.** A logged delta that fails to
//!    apply mid-way (it was logged because the live engine also applied
//!    it partially) is replayed with the same `GraphDelta::apply_to`
//!    semantics, reproducing the identical partial state
//!    ([`SessionMeta::delta_ran`]).
//!
//! Rules 3 and 4 are not implemented here: a follower applying the same
//! records to live sessions needs exactly them, so they live with the
//! record model and this module calls in.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::files::{self, DirListing};
use crate::lazy::{Backing, LazyGraph};
use crate::mmap;
use crate::record::{self, Effect, SessionChange, SessionMeta, StoreRecord};
use crate::snapshot::{self, DecodeError};
use crate::{Recovered, RecoveredSession, RecoveryInfo, TornTail};

/// What recovery hands back to [`crate::Store::open`] beyond the public
/// [`Recovered`] state: where the WAL now ends.
pub(crate) struct WalPosition {
    /// Live segments in replay order (the last one is appended to).
    pub segments: Vec<(u64, PathBuf)>,
    /// The next sequence number to assign.
    pub next_seq: u64,
    /// Generation of the snapshot that was loaded (0 when none).
    pub snapshot_generation: u64,
    /// Total bytes across live segments after truncation.
    pub live_bytes: u64,
    /// The replication cursor: one past the last record *physically
    /// present* in the WAL (or past the snapshot's `base_seq` when the
    /// WAL holds nothing newer). A follower resumes tailing from here —
    /// distinct from `next_seq`, which also counts records reflected
    /// only in per-session snapshot state (see `docs/replication.md`
    /// §Snapshot handoff).
    pub tail_cursor: u64,
}

pub(crate) fn recover(dir: &Path) -> io::Result<(Recovered, WalPosition)> {
    let DirListing {
        segments,
        snapshots,
        stale_tmp,
    } = files::list_dir(dir)?;
    for tmp in stale_tmp {
        let _ = std::fs::remove_file(tmp);
    }

    // Newest snapshot that decodes wins; older ones are only read when
    // newer ones are damaged.
    let mut sessions: HashMap<u64, RecoveredSession> = HashMap::new();
    let mut info = RecoveryInfo::default();
    let mut next_session_id = 1;
    let mut max_seq = 0;
    let mut snapshot_base = 0;
    let mut snapshot_generation = 0;
    for (generation, path) in &snapshots {
        // Map the file rather than read it: for a current-format
        // snapshot the decoded sessions *point into* this mapping
        // (zero-copy), which stays alive as long as any of them does.
        let backing = Backing::Map(Arc::new(mmap::map_file(path)?));
        match snapshot::decode(&backing) {
            Ok(snap) => {
                info.snapshot_generation = Some(*generation);
                snapshot_generation = *generation;
                next_session_id = snap.next_session_id;
                max_seq = snap.base_seq;
                snapshot_base = snap.base_seq;
                for session in snap.sessions {
                    max_seq = max_seq.max(session.meta.last_seq);
                    sessions.insert(session.id, session);
                }
                break;
            }
            // Damage: fall back to the next older generation.
            Err(DecodeError::Corrupt) => info.snapshots_skipped += 1,
            // A newer format: refuse loudly instead of silently
            // regressing to an older snapshot's stale state.
            Err(DecodeError::Unsupported(msg)) => {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    format!("{}: {msg}", path.display()),
                ));
            }
        }
    }

    // Replay segments in order, enforcing the corruption rules.
    let mut live: Vec<(u64, PathBuf)> = Vec::new();
    let mut live_bytes = 0u64;
    let mut prev_seq = 0u64;
    let mut stop: Option<TornTail> = None;
    for (ix, (first_seq, path)) in segments.iter().enumerate() {
        let buf = std::fs::read(path)?;
        let parse = record::parse_segment(&buf);
        if let Some(unknown) = &parse.unknown {
            // A CRC-valid frame of a kind this implementation does not
            // know: written by a newer version, not damage. Refuse to
            // open (and above all refuse to truncate) rather than
            // silently discard a valid tail.
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("{}: {}", path.display(), unknown.to_error()),
            ));
        }
        let mut valid_len = parse.valid_len;
        let mut torn = parse.torn;
        let mut kept = 0u64;
        for parsed in parse.records {
            if parsed.seq <= prev_seq {
                torn = Some(format!(
                    "sequence regression {} after {} at offset {}",
                    parsed.seq, prev_seq, parsed.offset
                ));
                valid_len = parsed.offset;
                break;
            }
            prev_seq = parsed.seq;
            kept += 1;
            if !replay_record(
                parsed.seq,
                parsed.record,
                &mut sessions,
                &mut next_session_id,
            )? {
                info.records_skipped += 1;
            }
        }
        max_seq = max_seq.max(prev_seq);
        info.records_replayed += kept;
        if let Some(reason) = torn {
            // Truncate the damage away and drop everything after it.
            let file = std::fs::OpenOptions::new().write(true).open(path)?;
            file.set_len(valid_len)?;
            file.sync_all()?;
            let dropped = segments.len() - ix - 1;
            for (_, later) in &segments[ix + 1..] {
                let _ = std::fs::remove_file(later);
            }
            files::sync_dir(dir)?;
            stop = Some(TornTail {
                segment: path.clone(),
                offset: valid_len,
                reason,
                segments_dropped: dropped,
            });
            live.push((*first_seq, path.clone()));
            live_bytes += valid_len;
            break;
        }
        live.push((*first_seq, path.clone()));
        live_bytes += buf.len() as u64;
    }
    info.truncated = stop;

    let mut recovered_sessions: Vec<RecoveredSession> = sessions.into_values().collect();
    recovered_sessions.sort_by_key(|s| s.id);
    let recovered = Recovered {
        sessions: recovered_sessions,
        next_session_id,
        info,
    };
    let position = WalPosition {
        segments: live,
        next_seq: max_seq + 1,
        snapshot_generation,
        live_bytes,
        tail_cursor: snapshot_base.max(prev_seq) + 1,
    };
    Ok((recovered, position))
}

/// Replays one record onto the recovered session map; `false` means it
/// changed nothing (already covered by the snapshot, or aimed at a
/// session or window that no longer exists). `Create` and `Delete` act
/// on the map; what a record does to a session is
/// [`SessionMeta::replay`]'s to say.
fn replay_record(
    seq: u64,
    record: StoreRecord,
    sessions: &mut HashMap<u64, RecoveredSession>,
    next_session_id: &mut u64,
) -> io::Result<bool> {
    let (session, change) = match record {
        StoreRecord::Create {
            session,
            schema_sdl,
            graph,
        } => {
            *next_session_id = (*next_session_id).max(session + 1);
            if sessions.get(&session).is_some_and(|s| s.meta.reflects(seq)) {
                return Ok(false);
            }
            let recovered = RecoveredSession {
                id: session,
                graph: LazyGraph::from(graph),
                meta: SessionMeta::created(schema_sdl, seq),
            };
            sessions.insert(session, recovered);
            return Ok(true);
        }
        StoreRecord::Delete { session } => {
            let live = sessions
                .get(&session)
                .is_some_and(|s| !s.meta.reflects(seq));
            if live {
                sessions.remove(&session);
            }
            return Ok(live);
        }
        StoreRecord::Delta { session, delta } => (session, SessionChange::Delta(delta)),
        StoreRecord::SchemaChange {
            session,
            phase,
            schema_sdl,
        } => (session, SessionChange::Schema(phase, schema_sdl)),
    };
    let Some(RecoveredSession { graph, meta, .. }) = sessions.get_mut(&session) else {
        return Ok(false);
    };
    // A WAL record touching a snapshotted session is what finally
    // materializes its mapped graph; untouched sessions stay zero-copy.
    let effect = meta.replay(seq, change, |delta| {
        io::Result::Ok(delta.apply_to(graph.load()?).is_ok())
    })?;
    Ok(!matches!(effect, Effect::Duplicate | Effect::NoWindow))
}
