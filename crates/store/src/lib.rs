//! # pg-store — durable sessions for pg-schemad
//!
//! A write-ahead log plus snapshots for the server's validation
//! sessions, std-only like the rest of the workspace. The unit of
//! durability is the [`StoreRecord`]: session created (schema SDL +
//! initial graph), delta applied, session deleted. Records are framed
//! with a length prefix and a CRC-32 over the payload, carry strictly
//! monotonic sequence numbers, and are appended to segment files named
//! after their first sequence number. Snapshots capture every live
//! session in full and are written to a temp file then atomically
//! renamed, so a crash never leaves a half-snapshot with a valid name.
//!
//! Recovery ([`Store::open`]) memory-maps the newest snapshot that
//! passes its checksum and replays the WAL tail on top, truncating at
//! the first torn or corrupt frame — see [`recover`](self) internals
//! and DESIGN §Store for the exact invariants. Current-format (`PGS2`)
//! snapshots embed each graph as a verbatim `PGCS` columnar image, so
//! recovery validates headers and CRCs but deserializes **nothing**:
//! sessions come back as [`LazyGraph`]s pointing into the mapped file
//! and materialize only when touched. Compaction
//! ([`Store::try_begin_compaction`]) rotates the log, snapshots the
//! sessions the caller feeds it, and deletes the superseded segments.
//!
//! What fsync costs is the caller's choice per [`FsyncPolicy`]:
//! `always` syncs before every acknowledgement (no acknowledged write is
//! ever lost), `interval` bounds the loss window by time, `never` leaves
//! flushing entirely to the OS.
//!
//! Replication reads the same log: [`Store::read_tail`] serves raw
//! frames to followers, [`Store::append_replicated`] ingests them on the
//! follower with leader sequence numbers preserved (so the follower's
//! WAL is byte-identical to the leader's shipped prefix), and
//! [`Store::begin_handoff`] / [`install_snapshot`] bootstrap an empty
//! follower from a snapshot. The wire format is specified normatively in
//! `docs/replication.md`; its constants live in [`wire`] and the spec's
//! tables are tested against them.
//!
//! ```no_run
//! use pg_store::{FsyncPolicy, Store};
//!
//! let (store, recovered) = Store::open("/var/lib/pgschema", FsyncPolicy::Always)?;
//! println!("recovered {} sessions", recovered.sessions.len());
//! let seq = store.append_delete(42)?;
//! assert!(seq >= 1);
//! # Ok::<(), std::io::Error>(())
//! ```

// `deny` rather than `forbid`: the `mmap` module opts back in for its
// two audited `mmap(2)`/`munmap(2)` calls; everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod files;
mod lazy;
mod mmap;
mod record;
mod recover;
mod scan;
mod snapshot;
pub mod wire;

pub use lazy::{GraphPayload, LazyGraph};
pub use record::{Effect, MigrationPhase, SessionChange, SessionMeta, StoreRecord};
pub use scan::{scan, ScanReport, SegmentInfo, SnapshotInfo};
pub use snapshot::{GraphDesc, SnapshotDesc};

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pgraph::{GraphDelta, PropertyGraph};

/// When appended records are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` before every append acknowledges — an acknowledged
    /// write survives any crash.
    Always,
    /// Sync at most once per interval (checked on append): bounded loss
    /// window, near-`Never` throughput.
    Interval(Duration),
    /// Never sync explicitly; the OS flushes when it pleases.
    Never,
}

impl FsyncPolicy {
    /// The accepted spellings of [`FromStr`](std::str::FromStr).
    pub const NAMES: &'static [&'static str] = &["always", "interval[:millis]", "never"];
}

/// Parses the `--fsync` flag: `always`, `never`, `interval` (100 ms
/// default) or `interval:<millis>`. The error lists the accepted
/// spellings.
impl std::str::FromStr for FsyncPolicy {
    type Err = pgraph::ParseEnumError;

    fn from_str(name: &str) -> Result<FsyncPolicy, Self::Err> {
        let unknown = || pgraph::ParseEnumError::new("fsync policy", name, FsyncPolicy::NAMES);
        match name {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            "interval" => Ok(FsyncPolicy::Interval(Duration::from_millis(100))),
            _ => {
                let millis: u64 = name
                    .strip_prefix("interval:")
                    .and_then(|m| m.parse().ok())
                    .ok_or_else(unknown)?;
                Ok(FsyncPolicy::Interval(Duration::from_millis(millis)))
            }
        }
    }
}

/// One session as reconstructed by recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredSession {
    /// The session id.
    pub id: u64,
    /// The graph with every recovered delta applied. Recovered from a
    /// snapshot with no WAL records to replay, this is still a zero-copy
    /// [`LazyGraph::is_mapped`] view into the memory-mapped snapshot
    /// file; it materializes on first use.
    pub graph: LazyGraph,
    /// Schema, delta count, last sequence number and any open migration
    /// window, as the replayed records left them.
    pub meta: SessionMeta,
}

/// A torn or corrupt WAL tail found (and removed) during recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct TornTail {
    /// The segment that was truncated.
    pub segment: PathBuf,
    /// The byte offset it was truncated to.
    pub offset: u64,
    /// Human-readable cause (CRC mismatch, torn payload, …).
    pub reason: String,
    /// Later segments that were discarded wholesale.
    pub segments_dropped: usize,
}

/// Diagnostics of one recovery pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryInfo {
    /// Generation of the snapshot that seeded recovery, if any.
    pub snapshot_generation: Option<u64>,
    /// Newer snapshots that failed their checksum and were ignored.
    pub snapshots_skipped: usize,
    /// WAL records replayed on top of the snapshot.
    pub records_replayed: u64,
    /// Records skipped as already covered by the snapshot (or aimed at
    /// sessions that no longer exist).
    pub records_skipped: u64,
    /// The torn tail, when one was found.
    pub truncated: Option<TornTail>,
}

/// Everything [`Store::open`] reconstructed from disk.
#[derive(Debug)]
pub struct Recovered {
    /// Live sessions, ascending by id.
    pub sessions: Vec<RecoveredSession>,
    /// The next session id to hand out (ids are never reused).
    pub next_session_id: u64,
    /// How recovery went.
    pub info: RecoveryInfo,
}

/// A point-in-time copy of the store's counters (`/metrics`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records appended since open.
    pub appends: u64,
    /// Explicit fsyncs issued since open.
    pub fsyncs: u64,
    /// Bytes appended since open.
    pub appended_bytes: u64,
    /// Snapshots written since open.
    pub snapshots: u64,
    /// Current bytes across live WAL segments (the compaction trigger).
    pub wal_size_bytes: u64,
}

struct Wal {
    file: File,
    /// Live segments in replay order; the last is the append target.
    segments: Vec<(u64, PathBuf)>,
    /// First sequence number of the append segment.
    current_first_seq: u64,
    next_seq: u64,
    /// One past the last record physically in the WAL — the replication
    /// cursor. Equals `next_seq` on a node that appends its own records;
    /// lags behind it on a follower bootstrapped from a snapshot whose
    /// sessions were captured past the snapshot's `base_seq`
    /// ([`Store::append_replicated`] closes the gap).
    tail_cursor: u64,
    snapshot_generation: u64,
    last_sync: Instant,
    dirty: bool,
}

/// The write-ahead log + snapshot store. All methods take `&self`; the
/// WAL is serialised by an internal mutex, counters are atomics.
pub struct Store {
    dir: PathBuf,
    fsync: FsyncPolicy,
    wal: Mutex<Wal>,
    compacting: AtomicBool,
    appends: AtomicU64,
    fsyncs: AtomicU64,
    appended_bytes: AtomicU64,
    snapshots: AtomicU64,
    wal_bytes: AtomicU64,
}

impl Store {
    /// Opens (creating if needed) a store directory, running recovery:
    /// newest valid snapshot + WAL tail replay, torn tails truncated.
    pub fn open(dir: impl Into<PathBuf>, fsync: FsyncPolicy) -> io::Result<(Store, Recovered)> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let (recovered, position) = recover::recover(&dir)?;
        let mut segments = position.segments;
        let mut live_bytes = position.live_bytes;
        let (current_first_seq, file) = match segments.last() {
            Some((first_seq, path)) => (*first_seq, OpenOptions::new().append(true).open(path)?),
            None => {
                // Name the fresh segment after the replication cursor,
                // not `next_seq`: on a snapshot-bootstrapped follower the
                // first frames appended here are the leader's records
                // from `base_seq + 1` on.
                let first_seq = position.tail_cursor;
                let path = files::segment_path(&dir, first_seq);
                let file = OpenOptions::new()
                    .create_new(true)
                    .append(true)
                    .open(&path)?;
                files::sync_dir(&dir)?;
                segments.push((first_seq, path));
                live_bytes = 0;
                (first_seq, file)
            }
        };
        let store = Store {
            fsync,
            wal: Mutex::new(Wal {
                file,
                segments,
                current_first_seq,
                next_seq: position.next_seq,
                tail_cursor: position.tail_cursor,
                snapshot_generation: position.snapshot_generation,
                last_sync: Instant::now(),
                dirty: false,
            }),
            compacting: AtomicBool::new(false),
            appends: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            appended_bytes: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(live_bytes),
            dir,
        };
        Ok((store, recovered))
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Logs a session creation; returns the record's sequence number
    /// once it is durable per the fsync policy.
    pub fn append_create(
        &self,
        session: u64,
        schema_sdl: &str,
        graph: &PropertyGraph,
    ) -> io::Result<u64> {
        self.append(&StoreRecord::Create {
            session,
            schema_sdl: schema_sdl.to_owned(),
            graph: graph.clone(),
        })
    }

    /// Logs a delta applied to a session.
    pub fn append_delta(&self, session: u64, delta: &GraphDelta) -> io::Result<u64> {
        self.append(&StoreRecord::Delta {
            session,
            delta: delta.clone(),
        })
    }

    /// Logs a session deletion.
    pub fn append_delete(&self, session: u64) -> io::Result<u64> {
        self.append(&StoreRecord::Delete { session })
    }

    /// Logs a schema-migration phase transition on a session. Pass the
    /// candidate schema's SDL for [`MigrationPhase::Begin`]; commit and
    /// abort carry no SDL (recovery resolves the pending one).
    pub fn append_schema_change(
        &self,
        session: u64,
        phase: MigrationPhase,
        schema_sdl: &str,
    ) -> io::Result<u64> {
        self.append(&StoreRecord::SchemaChange {
            session,
            phase,
            schema_sdl: schema_sdl.to_owned(),
        })
    }

    fn append(&self, record: &StoreRecord) -> io::Result<u64> {
        let mut wal = self.wal.lock().unwrap();
        let seq = wal.next_seq;
        let frame = record::encode_frame(seq, record);
        wal.file.write_all(&frame)?;
        wal.next_seq += 1;
        wal.tail_cursor = wal.next_seq;
        wal.dirty = true;
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.appended_bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.wal_bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        let sync_now = match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::Interval(every) => wal.last_sync.elapsed() >= every,
            FsyncPolicy::Never => false,
        };
        if sync_now {
            wal.file.sync_data()?;
            wal.dirty = false;
            wal.last_sync = Instant::now();
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(seq)
    }

    /// Forces any buffered appends to stable storage regardless of
    /// policy (graceful-shutdown path).
    pub fn sync(&self) -> io::Result<()> {
        let mut wal = self.wal.lock().unwrap();
        if wal.dirty {
            wal.file.sync_data()?;
            wal.dirty = false;
            wal.last_sync = Instant::now();
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            appends: self.appends.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            appended_bytes: self.appended_bytes.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            wal_size_bytes: self.wal_bytes.load(Ordering::Relaxed),
        }
    }

    /// Bytes across live WAL segments — the size-threshold compaction
    /// trigger reads this without taking the WAL lock.
    pub fn wal_size_bytes(&self) -> u64 {
        self.wal_bytes.load(Ordering::Relaxed)
    }

    /// The next sequence number this store would assign to an append.
    /// `next_seq() - 1` is the newest record reflected anywhere in the
    /// store (WAL or snapshot).
    pub fn next_seq(&self) -> u64 {
        self.wal.lock().unwrap().next_seq
    }

    /// The replication cursor: one past the last record physically in
    /// the WAL. This is the `from` a follower of *this* store's leader
    /// passes to the next `read_tail` request. It equals
    /// [`next_seq`](Self::next_seq) except on a freshly snapshot-bootstrapped
    /// follower, where sessions captured after the snapshot's `base_seq`
    /// push `next_seq` ahead of the frames actually on disk.
    pub fn tail_cursor(&self) -> u64 {
        self.wal.lock().unwrap().tail_cursor
    }

    /// Reads the suffix of the WAL starting at sequence number `from`,
    /// returning whole raw frames (verbatim disk bytes, CRC included) up
    /// to roughly `max_bytes` — the leader side of `GET /wal/tail`.
    ///
    /// Reads race benignly with concurrent appends: frames are
    /// self-delimiting and checksummed, so a partially-written frame at
    /// the tail parses as torn and is simply not included (the follower
    /// re-requests it next poll). Records are bounded by the `next_seq`
    /// sampled at entry, so a batch never runs past the position it
    /// reports. At least one frame is returned even when it alone
    /// exceeds `max_bytes`, so a single giant record cannot wedge a
    /// follower.
    pub fn read_tail(&self, from: u64, max_bytes: usize) -> io::Result<Tail> {
        let (segments, end_seq) = {
            let wal = self.wal.lock().unwrap();
            (wal.segments.clone(), wal.next_seq)
        };
        let oldest_retained = segments.first().map(|(s, _)| *s).unwrap_or(1);
        if from < oldest_retained {
            // Compaction already dropped records at or above `from`; the
            // follower must bootstrap from a snapshot instead.
            return Ok(Tail::SnapshotRequired { oldest_retained });
        }
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut next_from = from;
        let mut taken = 0usize;
        let mut remaining_bytes = 0u64;
        let mut full = false;
        for (ix, (_, path)) in segments.iter().enumerate() {
            // Skip segments that end before `from`.
            if segments.get(ix + 1).is_some_and(|(next, _)| *next <= from) {
                continue;
            }
            if full {
                remaining_bytes += std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                continue;
            }
            let buf = match std::fs::read(path) {
                Ok(buf) => buf,
                // A compaction may delete the segment between listing
                // and read; the follower just retries.
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            let parse = record::parse_segment(&buf);
            if let Some(unknown) = &parse.unknown {
                // A valid frame of an unknown kind in the local WAL: a
                // newer writer's record that this binary cannot serve
                // faithfully — refuse rather than silently drop it from
                // the shipped stream.
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    format!("{}: {}", path.display(), unknown.to_error()),
                ));
            }
            for i in 0..parse.records.len() {
                let parsed = &parse.records[i];
                if parsed.seq < from || parsed.seq >= end_seq {
                    continue;
                }
                let start = parsed.offset as usize;
                let end = parse
                    .records
                    .get(i + 1)
                    .map(|r| r.offset as usize)
                    .unwrap_or(parse.valid_len as usize);
                if full || (taken + (end - start) > max_bytes && !frames.is_empty()) {
                    full = true;
                    remaining_bytes += (end - start) as u64;
                    continue;
                }
                taken += end - start;
                frames.push(buf[start..end].to_vec());
                next_from = parsed.seq + 1;
            }
        }
        Ok(Tail::Batch(TailBatch {
            frames,
            next_from,
            end_seq,
            remaining_bytes,
        }))
    }

    /// Appends a batch of raw frames shipped from a leader, preserving
    /// their sequence numbers — the follower side of the tail protocol.
    ///
    /// Every frame is re-verified (length, CRC, structural decode)
    /// before anything is written; a bad frame ends the batch without
    /// erroring (`torn` says why) and the follower re-requests from its
    /// unchanged cursor. Frames below the local
    /// [`tail_cursor`](Self::tail_cursor) are counted as duplicates and skipped —
    /// redelivery after a reconnect is idempotent — and the first
    /// non-duplicate frame must carry exactly the cursor's sequence
    /// number: a gap means the leader no longer retains records this
    /// store needs, which is divergence, not data.
    ///
    /// The returned records are decoded copies of what was appended, in
    /// order, for the caller to apply to its live state. Fsync policy
    /// applies to the batch as a whole.
    pub fn append_replicated(&self, frames: &[u8]) -> io::Result<ReplicatedBatch> {
        let parse = record::parse_segment(frames);
        if let Some(unknown) = &parse.unknown {
            // The leader shipped a record kind this follower does not
            // implement (newer leader, older follower). Appending it
            // blind would leave live state diverged from the WAL;
            // refuse the whole batch — nothing has been written yet —
            // so the follower stalls loudly instead of truncating.
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("leader batch: {}", unknown.to_error()),
            ));
        }
        let ends: Vec<usize> = parse
            .records
            .iter()
            .skip(1)
            .map(|r| r.offset as usize)
            .chain(std::iter::once(parse.valid_len as usize))
            .collect();
        let mut wal = self.wal.lock().unwrap();
        let mut records = Vec::new();
        let mut duplicates = 0u64;
        let mut appended_bytes = 0u64;
        for (parsed, end) in parse.records.into_iter().zip(ends) {
            if parsed.seq < wal.tail_cursor {
                duplicates += 1;
                continue;
            }
            if parsed.seq != wal.tail_cursor {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "replication gap: expected seq {} next, leader sent {}",
                        wal.tail_cursor, parsed.seq
                    ),
                ));
            }
            let frame = &frames[parsed.offset as usize..end];
            wal.file.write_all(frame)?;
            wal.tail_cursor = parsed.seq + 1;
            wal.next_seq = wal.next_seq.max(parsed.seq + 1);
            wal.dirty = true;
            appended_bytes += frame.len() as u64;
            records.push((parsed.seq, parsed.record));
        }
        if !records.is_empty() {
            self.appends
                .fetch_add(records.len() as u64, Ordering::Relaxed);
            self.appended_bytes
                .fetch_add(appended_bytes, Ordering::Relaxed);
            self.wal_bytes.fetch_add(appended_bytes, Ordering::Relaxed);
            let sync_now = match self.fsync {
                FsyncPolicy::Always => true,
                FsyncPolicy::Interval(every) => wal.last_sync.elapsed() >= every,
                FsyncPolicy::Never => false,
            };
            if sync_now {
                wal.file.sync_data()?;
                wal.dirty = false;
                wal.last_sync = Instant::now();
                self.fsyncs.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(ReplicatedBatch {
            records,
            duplicates,
            appended_bytes,
            torn: parse.torn,
        })
    }

    /// Starts assembling a handoff snapshot — the leader side of
    /// `GET /wal/snapshot`, used to bootstrap an empty follower. Unlike
    /// [`try_begin_compaction`](Self::try_begin_compaction) this rotates
    /// nothing and deletes nothing: `base_seq` is simply the current WAL
    /// position, and the caller feeds every live session through
    /// [`SnapshotCapture::add_session`] exactly as during compaction
    /// (sessions captured after `base_seq` legitimately carry newer
    /// records; the receiver's per-session `last_seq` gating makes the
    /// overlap idempotent).
    pub fn begin_handoff(&self) -> SnapshotCapture {
        SnapshotCapture {
            base_seq: self.wal.lock().unwrap().next_seq - 1,
            sessions: Vec::new(),
        }
    }

    /// Starts a compaction, rotating the WAL to a fresh segment so that
    /// appends continue while sessions are captured. Returns `None` when
    /// another compaction is already in flight.
    ///
    /// Protocol: the rotation point `base_seq` is taken under the WAL
    /// lock; the caller then feeds every live session through
    /// [`Compaction::capture`] (capturing each under its own lock —
    /// a session captured after the rotation may legitimately include
    /// records newer than `base_seq`, which is why each entry records
    /// its own `last_seq`); finally [`Compaction::finish`] writes the
    /// snapshot atomically and deletes the superseded segments.
    pub fn try_begin_compaction(&self) -> io::Result<Option<Compaction<'_>>> {
        if self.compacting.swap(true, Ordering::AcqRel) {
            return Ok(None);
        }
        let result = self.rotate();
        match result {
            Ok((base_seq, generation, old_segments)) => Ok(Some(Compaction {
                store: self,
                generation,
                old_segments,
                capture: SnapshotCapture {
                    base_seq,
                    sessions: Vec::new(),
                },
            })),
            Err(e) => {
                self.compacting.store(false, Ordering::Release);
                Err(e)
            }
        }
    }

    /// Rotates to a fresh segment; returns `(base_seq, next generation,
    /// superseded segment paths)`.
    fn rotate(&self) -> io::Result<(u64, u64, Vec<PathBuf>)> {
        let mut wal = self.wal.lock().unwrap();
        // Everything already on disk is about to be superseded; no point
        // syncing it first.
        let base_seq = wal.next_seq - 1;
        let generation = wal.snapshot_generation + 1;
        let old_segments;
        if wal.next_seq == wal.current_first_seq {
            // The append segment holds no records yet — keep it as the
            // fresh segment and supersede only the older ones.
            let current = wal.segments.pop().expect("append segment exists");
            old_segments = std::mem::take(&mut wal.segments)
                .into_iter()
                .map(|(_, path)| path)
                .collect();
            wal.segments.push(current);
        } else {
            let first_seq = wal.next_seq;
            let path = files::segment_path(&self.dir, first_seq);
            let file = OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(&path)?;
            files::sync_dir(&self.dir)?;
            wal.file = file;
            wal.current_first_seq = first_seq;
            old_segments = std::mem::take(&mut wal.segments)
                .into_iter()
                .map(|(_, p)| p)
                .collect();
            wal.segments.push((first_seq, path));
            wal.dirty = false;
        }
        self.wal_bytes.store(0, Ordering::Relaxed);
        Ok((base_seq, generation, old_segments))
    }
}

/// The sessions of a snapshot being assembled, for compaction
/// ([`Compaction::capture`]) or for a bootstrapping follower
/// ([`Store::begin_handoff`]).
pub struct SnapshotCapture {
    base_seq: u64,
    sessions: Vec<snapshot::SessionEntry>,
}

impl SnapshotCapture {
    /// The WAL position the snapshot corresponds to: a receiver tails
    /// from `base_seq + 1`.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// Captures one session. Call with the session's own lock held so
    /// `meta` and `graph` are consistent. An open migration window's
    /// candidate SDL travels in `meta`, so a snapshot does not lose the
    /// window; a still-mapped [`LazyGraph`] flows through as
    /// [`GraphPayload::Pgcs`] — its bytes are embedded verbatim, never
    /// deserialized.
    pub fn add_session<'g>(
        &mut self,
        id: u64,
        meta: &SessionMeta,
        graph: impl Into<GraphPayload<'g>>,
    ) {
        self.sessions
            .push(snapshot::encode_session(id, meta, graph.into()));
    }

    /// Assembles the snapshot blob (the CRC-framed format compaction
    /// writes to disk), ready to ship over HTTP.
    pub fn finish(&self, next_session_id: u64) -> Vec<u8> {
        snapshot::assemble(self.base_seq, next_session_id, &self.sessions)
    }
}

/// An in-flight compaction; see [`Store::try_begin_compaction`].
pub struct Compaction<'a> {
    store: &'a Store,
    generation: u64,
    old_segments: Vec<PathBuf>,
    capture: SnapshotCapture,
}

impl Compaction<'_> {
    /// Where the caller captures every live session.
    pub fn capture(&mut self) -> &mut SnapshotCapture {
        &mut self.capture
    }

    /// Writes the snapshot (temp file + atomic rename + directory sync)
    /// and deletes the superseded segments and older snapshots.
    pub fn finish(self, next_session_id: u64) -> io::Result<CompactionOutcome> {
        let store = self.store;
        let payload = self.capture.finish(next_session_id);
        files::write_snapshot(&store.dir, self.generation, &payload)?;
        // Only now is the old state superseded on disk; drop it.
        for old in &self.old_segments {
            let _ = std::fs::remove_file(old);
        }
        if let Ok(listing) = files::list_dir(&store.dir) {
            for (generation, old_snap) in listing.snapshots {
                if generation < self.generation {
                    let _ = std::fs::remove_file(old_snap);
                }
            }
        }
        files::sync_dir(&store.dir)?;
        store.wal.lock().unwrap().snapshot_generation = self.generation;
        store.snapshots.fetch_add(1, Ordering::Relaxed);
        Ok(CompactionOutcome {
            generation: self.generation,
            base_seq: self.capture.base_seq,
            sessions: self.capture.sessions.len(),
            segments_removed: self.old_segments.len(),
            snapshot_bytes: payload.len() as u64,
        })
        // Drop releases the compacting flag.
    }
}

impl Drop for Compaction<'_> {
    fn drop(&mut self) {
        self.store.compacting.store(false, Ordering::Release);
    }
}

/// What a finished compaction did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// Generation of the snapshot written.
    pub generation: u64,
    /// The WAL rotation point the snapshot corresponds to.
    pub base_seq: u64,
    /// Sessions captured.
    pub sessions: usize,
    /// Superseded segment files deleted.
    pub segments_removed: usize,
    /// Size of the snapshot file.
    pub snapshot_bytes: u64,
}

/// The result of one [`Store::read_tail`] call.
#[derive(Debug)]
pub enum Tail {
    /// Frames with `seq >= from` (possibly none, when the caller is
    /// caught up).
    Batch(TailBatch),
    /// `from` precedes the oldest record the WAL still retains —
    /// compaction dropped it, and the caller must bootstrap from a
    /// snapshot (`GET /wal/snapshot` upstream).
    SnapshotRequired {
        /// First sequence number the WAL can still serve.
        oldest_retained: u64,
    },
}

/// A batch of raw WAL frames read by [`Store::read_tail`].
#[derive(Debug)]
pub struct TailBatch {
    /// Whole frames in sequence order, each byte-identical to its disk
    /// representation (header, CRC and payload).
    pub frames: Vec<Vec<u8>>,
    /// The `from` of the next request: one past the last frame's
    /// sequence number, or the request's own `from` when the batch is
    /// empty.
    pub next_from: u64,
    /// The store's `next_seq` sampled at read time; `end_seq -
    /// next_from` is the caller's remaining lag in records.
    pub end_seq: u64,
    /// Bytes of valid frames past this batch still on disk — the
    /// caller's remaining lag in bytes.
    pub remaining_bytes: u64,
}

/// What [`Store::append_replicated`] did with a shipped batch.
#[derive(Debug)]
pub struct ReplicatedBatch {
    /// The records appended (leader sequence numbers preserved), decoded
    /// for the caller to apply to its live state.
    pub records: Vec<(u64, StoreRecord)>,
    /// Frames skipped because their seq was below the local cursor
    /// (redelivery after a reconnect).
    pub duplicates: u64,
    /// Raw frame bytes appended.
    pub appended_bytes: u64,
    /// Why the batch ended early, if a frame failed verification (the
    /// valid prefix is still appended).
    pub torn: Option<String>,
}

/// Installs a handoff snapshot blob into an *empty* store directory —
/// the follower side of `GET /wal/snapshot`. The blob is fully validated
/// first, then written as snapshot generation 1 with the same temp-file +
/// atomic-rename + directory-sync dance as compaction, so a crash leaves
/// either nothing or a valid snapshot. [`Store::open`] afterwards runs
/// the ordinary recovery path over it.
///
/// Refuses (with [`io::ErrorKind::AlreadyExists`]) to touch a directory
/// that already holds segments or snapshots: bootstrapping is for new
/// followers, not for overwriting history.
pub fn install_snapshot(dir: impl Into<PathBuf>, bytes: &[u8]) -> io::Result<()> {
    let dir = dir.into();
    let backing = lazy::Backing::Heap(std::sync::Arc::new(bytes.to_vec()));
    match snapshot::decode(&backing) {
        Ok(_) => {}
        Err(snapshot::DecodeError::Unsupported(msg)) => {
            return Err(io::Error::new(io::ErrorKind::Unsupported, msg));
        }
        Err(snapshot::DecodeError::Corrupt) => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "snapshot blob failed validation (torn, corrupt or malformed)",
            ));
        }
    }
    std::fs::create_dir_all(&dir)?;
    let listing = files::list_dir(&dir)?;
    if !listing.segments.is_empty() || !listing.snapshots.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            "refusing to install a snapshot into a non-empty store directory",
        ));
    }
    files::write_snapshot(&dir, 1, bytes)
}
