//! Data-directory layout: file naming and enumeration.
//!
//! A store directory holds exactly two kinds of files:
//!
//! * `wal-<first_seq:020>.log` — WAL segments, named after the sequence
//!   number of the first record they may contain, so lexicographic order
//!   is replay order;
//! * `snapshot-<generation:06>.snap` — snapshots (plus transient `.tmp`
//!   files that an interrupted compaction may leave behind; they are
//!   never read and are cleaned up on open).

use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

pub(crate) fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("wal-{first_seq:020}.log"))
}

pub(crate) fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot-{generation:06}.snap"))
}

/// Writes one snapshot generation so that a crash leaves either nothing
/// or a valid file under the final name: temp file, fsync, atomic
/// rename, directory sync.
pub(crate) fn write_snapshot(dir: &Path, generation: u64, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(format!("snapshot-{generation:06}.tmp"));
    {
        let mut file = OpenOptions::new().create_new(true).write(true).open(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, snapshot_path(dir, generation))?;
    sync_dir(dir)
}

pub(crate) fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

pub(crate) fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("snapshot-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

/// The directory's segments (ascending by first sequence) and snapshots
/// (descending by generation — newest first), plus any stale `.tmp`
/// leftovers from an interrupted snapshot write.
pub(crate) struct DirListing {
    pub segments: Vec<(u64, PathBuf)>,
    pub snapshots: Vec<(u64, PathBuf)>,
    pub stale_tmp: Vec<PathBuf>,
}

pub(crate) fn list_dir(dir: &Path) -> io::Result<DirListing> {
    let mut segments = Vec::new();
    let mut snapshots = Vec::new();
    let mut stale_tmp = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(first_seq) = parse_segment_name(name) {
            segments.push((first_seq, path));
        } else if let Some(generation) = parse_snapshot_name(name) {
            snapshots.push((generation, path));
        } else if name.starts_with("snapshot-") && name.ends_with(".tmp") {
            stale_tmp.push(path);
        }
    }
    segments.sort();
    snapshots.sort_by_key(|s| std::cmp::Reverse(s.0));
    Ok(DirListing {
        segments,
        snapshots,
        stale_tmp,
    })
}

/// Flushes directory metadata so a just-renamed or just-deleted entry
/// survives a crash. On unix a failure is the caller's error; elsewhere
/// opening a directory for sync is not supported, so it is best-effort.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    match std::fs::File::open(dir) {
        Ok(handle) => handle.sync_all(),
        Err(e) if cfg!(unix) => Err(e),
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        let dir = Path::new("/tmp/x");
        let seg = segment_path(dir, 42);
        assert_eq!(
            parse_segment_name(seg.file_name().unwrap().to_str().unwrap()),
            Some(42)
        );
        let snap = snapshot_path(dir, 7);
        assert_eq!(
            parse_snapshot_name(snap.file_name().unwrap().to_str().unwrap()),
            Some(7)
        );
        assert_eq!(parse_segment_name("wal-.log"), None);
        assert_eq!(parse_snapshot_name("snapshot-1.tmp"), None);
        assert_eq!(parse_segment_name("other.log"), None);
    }

    #[cfg(unix)]
    #[test]
    fn sync_dir_fails_on_a_removed_directory() {
        let dir = std::env::temp_dir().join(format!("pg-store-sync-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(sync_dir(&dir).is_ok());
        std::fs::remove_dir(&dir).unwrap();
        assert!(sync_dir(&dir).is_err());
    }
}
