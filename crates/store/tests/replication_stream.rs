//! Replication stream tests: `read_tail` edge cases (mid-frame
//! truncation at the leader, compacted history forcing a snapshot
//! bootstrap), `append_replicated` idempotence under duplicate delivery,
//! and the snapshot-handoff round trip a follower bootstrap performs.

use std::fs::{self, OpenOptions};
use std::path::PathBuf;

use pg_store::{FsyncPolicy, SessionMeta, Store, Tail};
use pgraph::{GraphDelta, NodeId, PropertyGraph, Value};

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("pg-store-repl-tests")
        .join(format!("{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

const SDL: &str = "type User { login: String! @required }";

/// The durable state an external caller captures beside the graph.
fn meta(last_seq: u64, deltas_applied: u64) -> SessionMeta {
    SessionMeta {
        schema_sdl: SDL.to_owned(),
        deltas_applied,
        last_seq,
        pending_migration: None,
    }
}

fn seed_graph() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let u = g.add_node("User");
    g.set_node_property(u, "login", Value::from("alice"));
    g
}

fn toggle(i: u64) -> GraphDelta {
    GraphDelta::new().set_node_property(
        NodeId::from_index(0),
        "login",
        if i.is_multiple_of(2) {
            Value::Int(i as i64)
        } else {
            Value::from("alice")
        },
    )
}

/// A leader store with one session and `deltas` toggling deltas.
fn leader_with_history(name: &str, deltas: u64) -> Store {
    let (store, _) = Store::open(test_dir(name), FsyncPolicy::Never).unwrap();
    store.append_create(1, SDL, &seed_graph()).unwrap();
    for i in 0..deltas {
        store.append_delta(1, &toggle(i)).unwrap();
    }
    store
}

fn batch(store: &Store, from: u64, max: usize) -> pg_store::TailBatch {
    match store.read_tail(from, max).unwrap() {
        Tail::Batch(b) => b,
        Tail::SnapshotRequired { oldest_retained } => {
            panic!("unexpected SnapshotRequired (oldest {oldest_retained})")
        }
    }
}

#[test]
fn tail_serves_the_whole_log_and_then_reports_caught_up() {
    let leader = leader_with_history("whole-log", 5);
    let b = batch(&leader, 1, usize::MAX >> 1);
    assert_eq!(b.frames.len(), 6); // create + 5 deltas
    assert_eq!(b.next_from, 7);
    assert_eq!(b.end_seq, 7);
    assert_eq!(b.remaining_bytes, 0);
    // Caught up: an empty batch from the cursor.
    let caught_up = batch(&leader, b.next_from, usize::MAX >> 1);
    assert!(caught_up.frames.is_empty());
    assert_eq!(caught_up.next_from, 7);
    assert_eq!(caught_up.end_seq, 7);
}

#[test]
fn tail_batches_respect_max_bytes_and_report_remaining_lag() {
    let leader = leader_with_history("batched", 20);
    let mut from = 1;
    let mut total = 0usize;
    let mut rounds = 0usize;
    loop {
        let b = batch(&leader, from, 256);
        if b.frames.is_empty() {
            break;
        }
        // remaining_bytes counts exactly the frame bytes not yet shipped.
        let shipped: usize = b.frames.iter().map(Vec::len).sum();
        let rest = batch(&leader, b.next_from, usize::MAX >> 1);
        let rest_bytes: usize = rest.frames.iter().map(Vec::len).sum();
        assert_eq!(b.remaining_bytes, rest_bytes as u64, "round {rounds}");
        total += shipped;
        from = b.next_from;
        rounds += 1;
        assert!(rounds < 100, "tail did not converge");
    }
    assert!(rounds > 1, "test should need several batches");
    let whole = batch(&leader, 1, usize::MAX >> 1);
    assert_eq!(total, whole.frames.iter().map(Vec::len).sum::<usize>());
}

#[test]
fn a_tail_truncated_mid_frame_ships_only_whole_frames() {
    let leader = leader_with_history("torn", 3);
    let clean = batch(&leader, 1, usize::MAX >> 1);
    assert_eq!(clean.frames.len(), 4);
    // Chop the last frame in half on disk, as if the leader crashed
    // mid-write and a follower polled before recovery truncated it.
    let seg = fs::read_dir(leader.dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "log"))
        .unwrap();
    let len = fs::metadata(&seg).unwrap().len();
    let last = clean.frames.last().unwrap().len() as u64;
    OpenOptions::new()
        .write(true)
        .open(&seg)
        .unwrap()
        .set_len(len - last / 2)
        .unwrap();
    let torn = batch(&leader, 1, usize::MAX >> 1);
    assert_eq!(torn.frames.len(), 3, "the half frame must not ship");
    assert_eq!(torn.next_from, 4);
    for (clean_frame, torn_frame) in clean.frames.iter().zip(&torn.frames) {
        assert_eq!(clean_frame, torn_frame);
    }
}

#[test]
fn compacted_history_demands_a_snapshot() {
    let leader = leader_with_history("compacted", 4);
    let mut compaction = leader.try_begin_compaction().unwrap().unwrap();
    // State as an external caller would capture it (graph after replay).
    let mut graph = seed_graph();
    for i in 0..4 {
        toggle(i).apply_to(&mut graph).unwrap();
    }
    compaction.capture().add_session(1, &meta(5, 4), &graph);
    compaction.finish(2).unwrap();
    match leader.read_tail(1, usize::MAX >> 1).unwrap() {
        Tail::SnapshotRequired { oldest_retained } => assert_eq!(oldest_retained, 6),
        Tail::Batch(b) => panic!("expected SnapshotRequired, got {} frames", b.frames.len()),
    }
    // From the retention point on, tailing works again.
    let b = batch(&leader, 6, usize::MAX >> 1);
    assert!(b.frames.is_empty());
    assert_eq!(b.end_seq, 6);
}

/// Concatenates a batch the way the HTTP body does.
fn concat(frames: &[Vec<u8>]) -> Vec<u8> {
    frames.iter().flat_map(|f| f.iter().copied()).collect()
}

#[test]
fn replicated_appends_preserve_bytes_and_survive_duplicate_delivery() {
    let leader = leader_with_history("dup-leader", 6);
    let follower_dir = test_dir("dup-follower");
    let (follower, _) = Store::open(&follower_dir, FsyncPolicy::Never).unwrap();

    let b = batch(&leader, 1, usize::MAX >> 1);
    let body = concat(&b.frames);
    let first = follower.append_replicated(&body).unwrap();
    assert_eq!(first.records.len(), 7);
    assert_eq!(first.duplicates, 0);
    assert!(first.torn.is_none());
    assert_eq!(follower.tail_cursor(), 8);
    assert_eq!(follower.next_seq(), 8);

    // Redelivery of the same batch after a reconnect: all duplicates,
    // nothing appended, cursor unchanged.
    let again = follower.append_replicated(&body).unwrap();
    assert_eq!(again.records.len(), 0);
    assert_eq!(again.duplicates, 7);
    assert_eq!(follower.tail_cursor(), 8);

    // An overlapping batch (old frames + one new) appends only the new.
    leader.append_delta(1, &toggle(6)).unwrap();
    let overlap = batch(&leader, 5, usize::MAX >> 1);
    let applied = follower
        .append_replicated(&concat(&overlap.frames))
        .unwrap();
    assert_eq!(applied.duplicates, 3);
    assert_eq!(applied.records.len(), 1);
    assert_eq!(applied.records[0].0, 8);

    // The follower's WAL is byte-identical to the leader's.
    let leader_bytes = concat(&batch(&leader, 1, usize::MAX >> 1).frames);
    let follower_bytes = concat(&batch(&follower, 1, usize::MAX >> 1).frames);
    assert_eq!(leader_bytes, follower_bytes);

    // And recovery of the follower's directory reproduces the session.
    drop(follower);
    let (_, recovered) = Store::open(&follower_dir, FsyncPolicy::Never).unwrap();
    assert_eq!(recovered.sessions.len(), 1);
    assert_eq!(recovered.sessions[0].meta.deltas_applied, 7);
}

#[test]
fn a_sequence_gap_is_rejected_as_divergence() {
    let leader = leader_with_history("gap-leader", 4);
    let (follower, _) = Store::open(test_dir("gap-follower"), FsyncPolicy::Never).unwrap();
    let b = batch(&leader, 3, usize::MAX >> 1); // starts at seq 3, follower expects 1
    let err = follower
        .append_replicated(&concat(&b.frames))
        .expect_err("gap must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(follower.tail_cursor(), 1, "nothing may be appended");
}

#[test]
fn corrupt_frames_end_a_batch_without_erroring() {
    let leader = leader_with_history("corrupt-leader", 4);
    let (follower, _) = Store::open(test_dir("corrupt-follower"), FsyncPolicy::Never).unwrap();
    let b = batch(&leader, 1, usize::MAX >> 1);
    let mut body = concat(&b.frames);
    // Flip a bit in the third frame's payload.
    let third_start: usize = b.frames[..2].iter().map(Vec::len).sum();
    body[third_start + 12] ^= 0x20;
    let applied = follower.append_replicated(&body).unwrap();
    assert_eq!(applied.records.len(), 2, "only the clean prefix lands");
    assert!(applied.torn.is_some());
    assert_eq!(follower.tail_cursor(), 3);
    // The follower re-requests from its cursor and completes.
    let rest = batch(&leader, follower.tail_cursor(), usize::MAX >> 1);
    follower.append_replicated(&concat(&rest.frames)).unwrap();
    assert_eq!(follower.tail_cursor(), leader.tail_cursor());
}

#[test]
fn snapshot_handoff_bootstraps_an_empty_follower() {
    let leader = leader_with_history("handoff-leader", 8);
    // Capture the handoff as the server would: base first, then the
    // session state (which here includes everything up to seq 9).
    let mut handoff = leader.begin_handoff();
    assert_eq!(handoff.base_seq(), 9);
    let mut graph = seed_graph();
    for i in 0..8 {
        toggle(i).apply_to(&mut graph).unwrap();
    }
    handoff.add_session(1, &meta(9, 8), &graph);
    let blob = handoff.finish(2);

    let dir = test_dir("handoff-follower");
    pg_store::install_snapshot(&dir, &blob).unwrap();
    // Installing twice is refused: bootstrap only targets empty dirs.
    let err = pg_store::install_snapshot(&dir, &blob).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
    // Garbage is refused before touching the filesystem.
    let err = pg_store::install_snapshot(test_dir("handoff-garbage"), b"nope").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    let (follower, recovered) = Store::open(&dir, FsyncPolicy::Never).unwrap();
    assert_eq!(recovered.sessions.len(), 1);
    assert_eq!(recovered.sessions[0].meta.deltas_applied, 8);
    assert_eq!(recovered.next_session_id, 2);
    // The cursor resumes exactly past the snapshot base; new leader
    // records replicate on top.
    assert_eq!(follower.tail_cursor(), 10);
    leader.append_delta(1, &toggle(8)).unwrap();
    let b = batch(&leader, follower.tail_cursor(), usize::MAX >> 1);
    let applied = follower.append_replicated(&concat(&b.frames)).unwrap();
    assert_eq!(applied.records.len(), 1);
    assert_eq!(follower.next_seq(), leader.next_seq());
}

#[test]
fn handoff_tolerates_sessions_captured_past_base_seq() {
    // The race the per-session gating exists for: a session captured
    // *after* the handoff's base_seq already contains newer records. The
    // follower must tail from base_seq + 1 (its tail_cursor), accept the
    // overlap, and end up consistent.
    let leader = leader_with_history("race-leader", 2); // seqs 1..=3
    let mut handoff = leader.begin_handoff();
    assert_eq!(handoff.base_seq(), 3);
    // Two more records land while the capture is in progress…
    leader.append_delta(1, &toggle(2)).unwrap(); // seq 4
    leader.append_delta(1, &toggle(3)).unwrap(); // seq 5
                                                 // …and the session is captured only now, at last_seq 5.
    let mut graph = seed_graph();
    for i in 0..4 {
        toggle(i).apply_to(&mut graph).unwrap();
    }
    handoff.add_session(1, &meta(5, 4), &graph);
    let blob = handoff.finish(2);

    let dir = test_dir("race-follower");
    pg_store::install_snapshot(&dir, &blob).unwrap();
    let (follower, recovered) = Store::open(&dir, FsyncPolicy::Never).unwrap();
    // next_seq already accounts for seq 5; the tail cursor does not —
    // frames 4 and 5 must still be fetched into the local WAL.
    assert_eq!(follower.next_seq(), 6);
    assert_eq!(follower.tail_cursor(), 4);
    let b = batch(&leader, follower.tail_cursor(), usize::MAX >> 1);
    let applied = follower.append_replicated(&concat(&b.frames)).unwrap();
    assert_eq!(applied.records.len(), 2);
    assert_eq!(follower.tail_cursor(), 6);
    // Replay gating: the recovered session already reflects seqs 4–5, so
    // applying them again must be skipped by last_seq — which is what
    // recovery does when this directory is reopened.
    assert_eq!(recovered.sessions[0].meta.last_seq, 5);
    drop(follower);
    let (_, recovered2) = Store::open(&dir, FsyncPolicy::Never).unwrap();
    assert_eq!(recovered2.sessions[0].meta.deltas_applied, 4);
    assert_eq!(recovered2.sessions[0].meta.last_seq, 5);
}
