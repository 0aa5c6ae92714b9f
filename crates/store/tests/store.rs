//! Integration tests: open/append/recover round-trips, compaction, and
//! the torn-tail / bit-flip recovery matrix over generated WALs.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

use pg_store::{FsyncPolicy, Recovered, SessionMeta, Store};
use pgraph::{GraphDelta, NodeId, PropertyGraph, Value};
use rand::prelude::*;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("pg-store-tests")
        .join(format!("{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

const SDL: &str = "type User { login: String! @required }";

fn seed_graph() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let u = g.add_node("User");
    g.set_node_property(u, "login", Value::from("alice"));
    g
}

/// In-test oracle mirroring the registry's bookkeeping: apply the same
/// events to plain graphs and compare with what recovery reconstructs.
#[derive(Default)]
struct Oracle {
    sessions: HashMap<u64, (String, PropertyGraph, u64)>,
}

impl Oracle {
    fn create(&mut self, id: u64, sdl: &str, graph: &PropertyGraph) {
        self.sessions.insert(id, (sdl.to_owned(), graph.clone(), 0));
    }
    fn delta(&mut self, id: u64, delta: &GraphDelta) {
        let (_, graph, applied) = self.sessions.get_mut(&id).unwrap();
        if delta.apply_to(graph).is_ok() {
            *applied += 1;
        }
    }
    fn delete(&mut self, id: u64) {
        self.sessions.remove(&id);
    }
    fn assert_matches(&self, recovered: &Recovered) {
        assert_eq!(recovered.sessions.len(), self.sessions.len());
        for session in &recovered.sessions {
            let (sdl, graph, applied) = self
                .sessions
                .get(&session.id)
                .unwrap_or_else(|| panic!("unexpected session {}", session.id));
            assert_eq!(&session.meta.schema_sdl, sdl);
            assert_eq!(&session.graph, graph, "graph of session {}", session.id);
            assert_eq!(session.meta.deltas_applied, *applied);
        }
    }
}

#[test]
fn empty_dir_opens_clean() {
    let dir = test_dir("empty");
    let (store, recovered) = Store::open(&dir, FsyncPolicy::Always).unwrap();
    assert!(recovered.sessions.is_empty());
    assert_eq!(recovered.next_session_id, 1);
    assert!(recovered.info.truncated.is_none());
    assert_eq!(store.stats().appends, 0);
}

#[test]
fn appends_recover_across_reopen() {
    let dir = test_dir("reopen");
    let mut oracle = Oracle::default();
    {
        let (store, _) = Store::open(&dir, FsyncPolicy::Always).unwrap();
        let g = seed_graph();
        store.append_create(1, SDL, &g).unwrap();
        oracle.create(1, SDL, &g);
        let u = NodeId::from_index(0);
        let d1 = GraphDelta::new().set_node_property(u, "login", Value::Int(3));
        store.append_delta(1, &d1).unwrap();
        oracle.delta(1, &d1);
        // A delta that fails mid-way: first op applies, second errors.
        let bad = GraphDelta::new()
            .add_node("User")
            .remove_node(NodeId::from_index(99));
        store.append_delta(1, &bad).unwrap();
        oracle.delta(1, &bad);
        store.append_create(2, SDL, &PropertyGraph::new()).unwrap();
        oracle.create(2, SDL, &PropertyGraph::new());
        store.append_delete(2).unwrap();
        oracle.delete(2);
    }
    let (_, recovered) = Store::open(&dir, FsyncPolicy::Always).unwrap();
    oracle.assert_matches(&recovered);
    assert_eq!(recovered.next_session_id, 3);
    assert_eq!(recovered.info.records_replayed, 5);
    assert!(recovered.info.truncated.is_none());
    // Sequence numbers continue where they left off.
    let (store, _) = Store::open(&dir, FsyncPolicy::Always).unwrap();
    assert_eq!(store.append_delete(1).unwrap(), 6);
}

#[test]
fn compaction_supersedes_segments_and_preserves_state() {
    let dir = test_dir("compact");
    let mut oracle = Oracle::default();
    let (store, _) = Store::open(&dir, FsyncPolicy::Always).unwrap();
    let g = seed_graph();
    store.append_create(1, SDL, &g).unwrap();
    oracle.create(1, SDL, &g);
    let u = NodeId::from_index(0);
    let mut tracked = g.clone();
    let mut applied = 0u64;
    let mut last_seq = 1u64;
    for i in 0..10 {
        let delta = GraphDelta::new().set_node_property(u, "login", Value::Int(i));
        last_seq = store.append_delta(1, &delta).unwrap();
        oracle.delta(1, &delta);
        delta.apply_to(&mut tracked).unwrap();
        applied += 1;
    }

    let mut compaction = store.try_begin_compaction().unwrap().expect("not busy");
    // A second compaction is refused while one is in flight.
    assert!(store.try_begin_compaction().unwrap().is_none());
    let meta = SessionMeta {
        schema_sdl: SDL.to_owned(),
        deltas_applied: applied,
        last_seq,
        pending_migration: None,
    };
    compaction.capture().add_session(1, &meta, &tracked);
    let outcome = compaction.finish(2).unwrap();
    assert_eq!(outcome.sessions, 1);
    assert_eq!(outcome.base_seq, 11);
    assert_eq!(store.stats().snapshots, 1);
    // The flag is released after finish.
    drop(store.try_begin_compaction().unwrap().expect("released"));

    // Post-compaction deltas land in the fresh segment.
    let (store2, recovered) = {
        let delta = GraphDelta::new().set_node_property(u, "login", Value::from("bob"));
        store.append_delta(1, &delta).unwrap();
        oracle.delta(1, &delta);
        drop(store);
        Store::open(&dir, FsyncPolicy::Always).unwrap()
    };
    oracle.assert_matches(&recovered);
    assert_eq!(recovered.info.snapshot_generation, Some(1));
    assert_eq!(recovered.info.records_replayed, 1);
    drop(store2);

    // Exactly one snapshot and one live segment remain on disk.
    let report = pg_store::scan(&dir).unwrap();
    assert_eq!(report.snapshots.len(), 1);
    assert!(report.snapshots[0].valid);
    assert_eq!(report.segments.len(), 1);
    assert_eq!(report.segments[0].records, (0, 1, 0, 0));
}

/// Drives a store to a known state, returning the expected per-prefix
/// oracles: `oracles[k]` is the state after the first `k` records.
fn build_wal(dir: &Path, records: usize) -> (Vec<Oracle>, Vec<u64>) {
    let (store, _) = Store::open(dir, FsyncPolicy::Always).unwrap();
    let mut oracles = vec![Oracle::default()];
    let mut boundaries = vec![0u64];
    let u = NodeId::from_index(0);
    for i in 0..records {
        let prev = oracles.last().unwrap();
        let mut next = Oracle {
            sessions: prev.sessions.clone(),
        };
        match i % 5 {
            0 => {
                let id = (i / 5) as u64 + 1;
                let g = seed_graph();
                store.append_create(id, SDL, &g).unwrap();
                next.create(id, SDL, &g);
            }
            4 if i / 5 % 2 == 1 => {
                let id = (i / 5) as u64 + 1;
                store.append_delete(id).unwrap();
                next.delete(id);
            }
            step => {
                let id = (i / 5) as u64 + 1;
                let delta = GraphDelta::new()
                    .set_node_property(u, "login", Value::Int(step as i64))
                    .add_node("User");
                store.append_delta(id, &delta).unwrap();
                next.delta(id, &delta);
            }
        }
        oracles.push(next);
        boundaries.push(fs::metadata(segment_of(dir)).unwrap().len());
    }
    (oracles, boundaries)
}

fn segment_of(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    assert_eq!(segments.len(), 1, "matrix tests run on a single segment");
    segments.pop().unwrap()
}

#[test]
fn torn_tail_matrix_recovers_longest_valid_prefix() {
    let src = test_dir("torn-src");
    let (oracles, boundaries) = build_wal(&src, 14);
    let total = *boundaries.last().unwrap();
    let work = test_dir("torn-work");
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    // Every frame boundary, plus random mid-frame offsets.
    let mut cuts: Vec<u64> = boundaries.clone();
    for _ in 0..40 {
        cuts.push(rng.gen_range(0..total));
    }
    for cut in cuts {
        copy_dir(&src, &work);
        let segment = segment_of(&work);
        let file = fs::OpenOptions::new().write(true).open(&segment).unwrap();
        file.set_len(cut).unwrap();
        drop(file);
        let (_, recovered) = Store::open(&work, FsyncPolicy::Always).unwrap();
        // The expected state is the longest record prefix within the cut.
        let prefix = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        oracles[prefix].assert_matches(&recovered);
        if boundaries[prefix] != cut {
            let torn = recovered.info.truncated.expect("mid-frame cut reported");
            assert_eq!(torn.offset, boundaries[prefix]);
        }
        // After truncation the store must accept appends again and the
        // repaired log must reopen cleanly.
        assert_eq!(
            fs::metadata(segment_of(&work)).unwrap().len(),
            boundaries[prefix]
        );
        let (_, reopened) = Store::open(&work, FsyncPolicy::Always).unwrap();
        assert!(reopened.info.truncated.is_none());
        oracles[prefix].assert_matches(&reopened);
    }
}

#[test]
fn bit_flip_matrix_never_accepts_corrupt_records() {
    let src = test_dir("flip-src");
    let (oracles, boundaries) = build_wal(&src, 14);
    let total = *boundaries.last().unwrap();
    let work = test_dir("flip-work");
    let mut rng = StdRng::seed_from_u64(0xB17F11B);
    for _ in 0..60 {
        let offset = rng.gen_range(0..total) as usize;
        let bit = rng.gen_range(0..8u32);
        copy_dir(&src, &work);
        let segment = segment_of(&work);
        let mut bytes = fs::read(&segment).unwrap();
        bytes[offset] ^= 1 << bit;
        fs::write(&segment, &bytes).unwrap();
        let (_, recovered) = Store::open(&work, FsyncPolicy::Always).unwrap();
        // The flip damages exactly one frame; recovery must keep every
        // record before it and reject it and everything after.
        let prefix = boundaries.iter().filter(|&&b| b <= offset as u64).count() - 1;
        oracles[prefix].assert_matches(&recovered);
        let torn = recovered.info.truncated.expect("flip detected");
        assert_eq!(torn.offset, boundaries[prefix]);
    }
}

/// A frame whose CRC matches but whose delta value nests a list a
/// million levels deep (five bytes a level) used to overflow the stack
/// of whatever decoded it — recovery here, a follower on `/wal/tail`.
/// Now it is one more undecodable record body: cut away, everything
/// before it kept.
#[test]
fn a_crc_valid_frame_of_nested_lists_is_torn_not_fatal() {
    use pg_store::wire;
    let dir = test_dir("nested");
    let (oracles, boundaries) = build_wal(&dir, 6);
    let mut payload = 7u64.to_le_bytes().to_vec(); // the next seq
    payload.push(wire::KIND_DELTA);
    payload.extend_from_slice(&1u64.to_le_bytes()); // session 1
                                                    // One SetNodeProperty op on node 0, name "x", the value nested.
    payload.extend_from_slice(&[1, 0, 0, 0, 4, 0, 0, 0, 0, 1, 0, 0, 0, b'x']);
    for _ in 0..1_000_000 {
        payload.extend_from_slice(&[6, 1, 0, 0, 0]);
    }
    payload.push(7);
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&pgraph::snapshot::crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    let segment = segment_of(&dir);
    let mut bytes = fs::read(&segment).unwrap();
    bytes.extend_from_slice(&frame);
    fs::write(&segment, &bytes).unwrap();

    let report = pg_store::scan(&dir).unwrap();
    assert!(report.segments[0].torn.is_some());
    let (_, recovered) = Store::open(&dir, FsyncPolicy::Always).unwrap();
    oracles[6].assert_matches(&recovered);
    let torn = recovered.info.truncated.expect("the frame is cut away");
    assert_eq!(torn.offset, boundaries[6]);
    assert!(torn.reason.contains("undecodable"), "{}", torn.reason);
}

#[test]
fn interval_and_never_policies_survive_clean_reopen() {
    for (name, policy) in [
        (
            "interval",
            FsyncPolicy::Interval(std::time::Duration::from_millis(5)),
        ),
        ("never", FsyncPolicy::Never),
    ] {
        let dir = test_dir(&format!("policy-{name}"));
        let mut oracle = Oracle::default();
        {
            let (store, _) = Store::open(&dir, policy).unwrap();
            let g = seed_graph();
            store.append_create(1, SDL, &g).unwrap();
            oracle.create(1, SDL, &g);
            store.sync().unwrap();
        }
        let (_, recovered) = Store::open(&dir, policy).unwrap();
        oracle.assert_matches(&recovered);
    }
}

#[test]
fn fsync_policy_parses() {
    assert_eq!("always".parse(), Ok(FsyncPolicy::Always));
    assert_eq!("never".parse(), Ok(FsyncPolicy::Never));
    assert_eq!(
        "interval".parse(),
        Ok(FsyncPolicy::Interval(std::time::Duration::from_millis(100)))
    );
    assert_eq!(
        "interval:250".parse(),
        Ok(FsyncPolicy::Interval(std::time::Duration::from_millis(250)))
    );
    let err = "sometimes".parse::<FsyncPolicy>().unwrap_err();
    assert_eq!(
        err.to_string(),
        "unknown fsync policy `sometimes` (expected always|interval[:millis]|never)"
    );
    assert!("interval:x".parse::<FsyncPolicy>().is_err());
}

#[test]
fn scan_reports_torn_tail_without_mutating() {
    let dir = test_dir("scan");
    build_wal(&dir, 6);
    let segment = segment_of(&dir);
    let clean_len = fs::metadata(&segment).unwrap().len();
    let file = fs::OpenOptions::new().write(true).open(&segment).unwrap();
    file.set_len(clean_len - 3).unwrap();
    drop(file);
    let report = pg_store::scan(&dir).unwrap();
    assert_eq!(report.segments.len(), 1);
    let info = &report.segments[0];
    assert!(info.torn.is_some());
    assert!(info.valid_bytes < info.bytes);
    // Scanning must not repair anything.
    assert_eq!(fs::metadata(&segment).unwrap().len(), clean_len - 3);
}
