//! Read-only store inspection (`pgschema store inspect`).
//!
//! Unlike [`crate::Store::open`], scanning never mutates the directory:
//! torn tails are reported, not truncated, and stale files are left in
//! place — safe to run against the data directory of a *live* server.

use std::io;
use std::path::{Path, PathBuf};

use crate::files::{self, DirListing};
use crate::record::{self, StoreRecord};
use crate::snapshot::{self, GraphDesc};

/// One snapshot file as seen on disk.
#[derive(Debug)]
pub struct SnapshotInfo {
    /// The file.
    pub path: PathBuf,
    /// Generation parsed from the file name.
    pub generation: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// Whether the snapshot decodes (CRC and structure).
    pub valid: bool,
    /// Sessions it captures (0 when invalid).
    pub sessions: usize,
    /// The WAL rotation point it corresponds to (0 when invalid).
    pub base_seq: u64,
    /// Container format: 2 (`PGS2`), 0 unrecognized.
    pub format: u32,
    /// Container frame CRC verdict (structure aside).
    pub crc_ok: bool,
    /// Per-graph `PGCS` header details.
    pub graphs: Vec<GraphDesc>,
}

/// One WAL segment as seen on disk.
#[derive(Debug)]
pub struct SegmentInfo {
    /// The file.
    pub path: PathBuf,
    /// First sequence number, parsed from the file name.
    pub first_seq: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// Bytes covered by valid frames (equals `bytes` when clean).
    pub valid_bytes: u64,
    /// Valid records, by kind: `(creates, deltas, deletes,
    /// schema_changes)`.
    pub records: (u64, u64, u64, u64),
    /// Last valid sequence number in the segment, if any record exists.
    pub last_seq: Option<u64>,
    /// Why the frame walk stopped early, if it did.
    pub torn: Option<String>,
}

/// The directory inventory produced by [`scan`].
#[derive(Debug)]
pub struct ScanReport {
    /// Snapshots, newest generation first.
    pub snapshots: Vec<SnapshotInfo>,
    /// Segments in replay order.
    pub segments: Vec<SegmentInfo>,
}

/// Inventories a store directory without touching it.
pub fn scan(dir: &Path) -> io::Result<ScanReport> {
    let DirListing {
        segments,
        snapshots,
        ..
    } = files::list_dir(dir)?;
    let mut report = ScanReport {
        snapshots: Vec::with_capacity(snapshots.len()),
        segments: Vec::with_capacity(segments.len()),
    };
    for (generation, path) in snapshots {
        let buf = std::fs::read(&path)?;
        let desc = snapshot::describe(&buf);
        report.snapshots.push(SnapshotInfo {
            generation,
            bytes: buf.len() as u64,
            valid: desc.valid,
            sessions: desc.sessions,
            base_seq: desc.base_seq,
            format: desc.format,
            crc_ok: desc.crc_ok,
            graphs: desc.graphs,
            path,
        });
    }
    for (first_seq, path) in segments {
        let buf = std::fs::read(&path)?;
        let parse = record::parse_segment(&buf);
        if let Some(unknown) = &parse.unknown {
            // Forward compatibility: a valid frame of an unknown kind is
            // a newer writer's work, not corruption — refuse loudly
            // instead of reporting a bogus torn tail.
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("{}: {}", path.display(), unknown.to_error()),
            ));
        }
        let mut records = (0u64, 0u64, 0u64, 0u64);
        for parsed in &parse.records {
            match parsed.record {
                StoreRecord::Create { .. } => records.0 += 1,
                StoreRecord::Delta { .. } => records.1 += 1,
                StoreRecord::Delete { .. } => records.2 += 1,
                StoreRecord::SchemaChange { .. } => records.3 += 1,
            }
        }
        report.segments.push(SegmentInfo {
            first_seq,
            bytes: buf.len() as u64,
            valid_bytes: parse.valid_len,
            records,
            last_seq: parse.records.last().map(|r| r.seq),
            torn: parse.torn,
            path,
        });
    }
    Ok(report)
}
