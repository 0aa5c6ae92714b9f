//! Leader/follower replication over real sockets, in process: a durable
//! daemon is the leader, a second daemon bootstraps from its
//! `/wal/snapshot`, tails `/wal/tail`, serves the same reads, redirects
//! writes with `421`, and becomes a leader on `POST /promote` — the
//! protocol of docs/replication.md exercised end to end.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use pg_server::workload::{
    self, canonical_report, migrate_body, sample_graph, toggle_delta, user_ids, Client, Scratch,
    SCHEMA_SDL,
};
use pg_server::{LogFormat, Server, ServerConfig, ServerHandle};
use pgraph::json::{self, Json};

struct Daemon {
    addr: SocketAddr,
    handle: ServerHandle,
}

impl Daemon {
    fn leader(dir: &Path) -> Daemon {
        let config = ServerConfig::builder()
            .addr("127.0.0.1:0")
            .cores(1)
            .log_format(LogFormat::Off)
            .data_dir(dir.to_str().unwrap())
            .build();
        let handle = Server::bind(config).expect("bind").serve().expect("serve");
        Daemon {
            addr: handle.local_addr(),
            handle,
        }
    }

    fn follower(dir: &Path, leader: SocketAddr) -> Daemon {
        let config = ServerConfig::builder()
            .addr("127.0.0.1:0")
            .cores(1)
            .log_format(LogFormat::Off)
            .data_dir(dir.to_str().unwrap())
            .follow(leader.to_string())
            .build();
        let handle = Server::bind(config).expect("bind").serve().expect("serve");
        Daemon {
            addr: handle.local_addr(),
            handle,
        }
    }

    fn stop(self) {
        self.handle.shutdown();
        self.handle.join().expect("clean shutdown");
    }
}

/// Blocks until the follower has applied the leader's newest sequence
/// number (polled via its replication metrics).
fn wait_caught_up(follower: &mut Client, leader_last: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if follower
            .metric("pgschemad_replication_last_applied_seq")
            .unwrap()
            >= leader_last
        {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "follower did not reach seq {leader_last} within 10s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The leader's newest sequence number, read from its own tail
/// endpoint (`x-wal-end-seq` is one past it).
fn leader_last_seq(leader: &mut Client) -> u64 {
    let (status, headers, _) = leader.request_full("GET", "/wal/tail?from=1", b"").unwrap();
    // 410 once compacted: fall back to the oldest retained hint's
    // segment via an in-range request.
    if status == 410 {
        let oldest = headers
            .iter()
            .find(|(k, _)| k == "x-wal-oldest-retained")
            .and_then(|(_, v)| v.parse::<u64>().ok())
            .expect("410 carries x-wal-oldest-retained");
        let (status, headers, _) = leader
            .request_full("GET", &format!("/wal/tail?from={oldest}"), b"")
            .unwrap();
        assert_eq!(status, 200);
        return header_u64(&headers, "x-wal-end-seq") - 1;
    }
    assert_eq!(status, 200);
    header_u64(&headers, "x-wal-end-seq") - 1
}

fn header_u64(headers: &[(String, String)], name: &str) -> u64 {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or_else(|| panic!("no numeric `{name}` header"))
}

fn envelope(users: usize) -> Vec<u8> {
    workload::envelope(SCHEMA_SDL, &sample_graph(users))
}

#[test]
fn follower_bootstraps_serves_reads_and_misdirects_writes() {
    let leader_dir = Scratch::new("repl-boot-leader").unwrap();
    let follower_dir = Scratch::new("repl-boot-follower").unwrap();
    let leader = Daemon::leader(leader_dir.path());
    let mut client = Client::connect(leader.addr).unwrap();

    // Session history on the leader: one broken, one repaired.
    let mut ids = Vec::new();
    for users in [2usize, 3] {
        let (status, body) = client
            .request("POST", "/sessions", &envelope(users))
            .unwrap();
        assert_eq!(status, 201);
        let id = Json::parse(&String::from_utf8_lossy(&body))
            .ok()
            .and_then(|d| d.get("session")?.as_i64())
            .expect("session id");
        ids.push((id, users));
    }
    for (i, &(id, users)) in ids.iter().enumerate() {
        let user = user_ids(&sample_graph(users))[0];
        for d in 0..(i as u64 + 1) {
            let delta = json::delta_to_json(&toggle_delta(user, d));
            let (status, _) = client
                .request("POST", &format!("/sessions/{id}/deltas"), delta.as_bytes())
                .unwrap();
            assert_eq!(status, 200);
        }
    }
    // Compact: now the WAL no longer reaches back to sequence 1, so the
    // follower MUST bootstrap from the snapshot, not from a full tail.
    let (status, _) = client
        .request("POST", &format!("/sessions/{}/compact", ids[0].0), b"")
        .unwrap();
    assert_eq!(status, 200);
    let (status, headers, _) = client.request_full("GET", "/wal/tail?from=1", b"").unwrap();
    assert_eq!(status, 410, "compacted history must demand a snapshot");
    assert!(header_u64(&headers, "x-wal-oldest-retained") > 1);

    let follower = Daemon::follower(follower_dir.path(), leader.addr);
    let mut fclient = Client::connect(follower.addr).unwrap();
    let last = leader_last_seq(&mut client);
    wait_caught_up(&mut fclient, last);
    assert_eq!(fclient.metric("pgschemad_replication_follower").unwrap(), 1);

    // Reads on the follower are byte-identical to the leader's.
    for &(id, _) in &ids {
        let (status, leader_report) = client
            .request("GET", &format!("/sessions/{id}/report"), b"")
            .unwrap();
        assert_eq!(status, 200);
        let (status, follower_report) = fclient
            .request("GET", &format!("/sessions/{id}/report"), b"")
            .unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            canonical_report(&follower_report, &["metrics"]),
            canonical_report(&leader_report, &["metrics"]),
            "session {id} report"
        );
        let (status, leader_graph) = client
            .request("GET", &format!("/sessions/{id}/graph"), b"")
            .unwrap();
        assert_eq!(status, 200);
        let (status, follower_graph) = fclient
            .request("GET", &format!("/sessions/{id}/graph"), b"")
            .unwrap();
        assert_eq!(status, 200);
        assert_eq!(follower_graph, leader_graph, "session {id} graph");
    }

    // Stateless validation still works on a follower — it writes nothing.
    let (status, _) = fclient
        .request("POST", "/validate?engine=indexed", &envelope(2))
        .unwrap();
    assert_eq!(status, 200);

    // Writes are misdirected to the leader: create, delta, compact,
    // delete all answer 421 and name the leader.
    let id = ids[0].0;
    for (method, target, body) in [
        ("POST", "/sessions".to_owned(), envelope(2)),
        (
            "POST",
            format!("/sessions/{id}/deltas"),
            br#"{"ops":[]}"#.to_vec(),
        ),
        ("POST", format!("/sessions/{id}/compact"), Vec::new()),
        ("DELETE", format!("/sessions/{id}"), Vec::new()),
    ] {
        let (status, headers, _) = fclient.request_full(method, &target, &body).unwrap();
        assert_eq!(status, 421, "{method} {target}");
        let named = headers
            .iter()
            .find(|(k, _)| k == "x-pgschema-leader")
            .map(|(_, v)| v.clone());
        assert_eq!(named, Some(leader.addr.to_string()), "{method} {target}");
    }
    // …and none of them changed the follower's state.
    let (status, _) = fclient
        .request("GET", &format!("/sessions/{id}/report"), b"")
        .unwrap();
    assert_eq!(status, 200);

    follower.stop();
    leader.stop();
}

#[test]
fn live_deltas_replicate_while_both_run() {
    let leader_dir = Scratch::new("repl-live-leader").unwrap();
    let follower_dir = Scratch::new("repl-live-follower").unwrap();
    let leader = Daemon::leader(leader_dir.path());
    let mut client = Client::connect(leader.addr).unwrap();

    let (status, body) = client.request("POST", "/sessions", &envelope(2)).unwrap();
    assert_eq!(status, 201);
    let id = Json::parse(&String::from_utf8_lossy(&body))
        .ok()
        .and_then(|d| d.get("session")?.as_i64())
        .expect("session id");

    let follower = Daemon::follower(follower_dir.path(), leader.addr);
    let mut fclient = Client::connect(follower.addr).unwrap();
    wait_caught_up(&mut fclient, leader_last_seq(&mut client));

    // Deltas written after the follower attached arrive through live
    // tailing, ending with the session broken (odd toggle count).
    let user = user_ids(&sample_graph(2))[0];
    for d in 0..3u64 {
        let delta = json::delta_to_json(&toggle_delta(user, d));
        let (status, _) = client
            .request("POST", &format!("/sessions/{id}/deltas"), delta.as_bytes())
            .unwrap();
        assert_eq!(status, 200);
    }
    wait_caught_up(&mut fclient, leader_last_seq(&mut client));

    let (status, report) = fclient
        .request("GET", &format!("/sessions/{id}/report"), b"")
        .unwrap();
    assert_eq!(status, 200);
    let report = Json::parse(&String::from_utf8_lossy(&report)).expect("report JSON");
    assert_eq!(
        report.get("conforms"),
        Some(&Json::Bool(false)),
        "the broken state replicated"
    );

    // A session deleted on the leader disappears from the follower.
    let (status, _) = client
        .request("DELETE", &format!("/sessions/{id}"), b"")
        .unwrap();
    assert_eq!(status, 200);
    wait_caught_up(&mut fclient, leader_last_seq(&mut client));
    let (status, _) = fclient
        .request("GET", &format!("/sessions/{id}/report"), b"")
        .unwrap();
    assert_eq!(status, 404, "replicated delete removes the session");

    follower.stop();
    leader.stop();
}

#[test]
fn promotion_flips_the_role_and_accepts_writes() {
    let leader_dir = Scratch::new("repl-promote-leader").unwrap();
    let follower_dir = Scratch::new("repl-promote-follower").unwrap();
    let leader = Daemon::leader(leader_dir.path());
    let mut client = Client::connect(leader.addr).unwrap();

    // Promoting a node that is already a leader is a no-op answer.
    let (status, body) = client.request("POST", "/promote", b"").unwrap();
    assert_eq!(status, 200);
    let doc = Json::parse(&String::from_utf8_lossy(&body)).expect("promote JSON");
    assert_eq!(doc.get("promoted"), Some(&Json::Bool(false)));

    let (status, body) = client.request("POST", "/sessions", &envelope(2)).unwrap();
    assert_eq!(status, 201);
    let id = Json::parse(&String::from_utf8_lossy(&body))
        .ok()
        .and_then(|d| d.get("session")?.as_i64())
        .expect("session id");

    let follower = Daemon::follower(follower_dir.path(), leader.addr);
    let mut fclient = Client::connect(follower.addr).unwrap();
    wait_caught_up(&mut fclient, leader_last_seq(&mut client));

    let (status, body) = fclient.request("POST", "/promote", b"").unwrap();
    assert_eq!(status, 200);
    let doc = Json::parse(&String::from_utf8_lossy(&body)).expect("promote JSON");
    assert_eq!(doc.get("role"), Some(&Json::Str("leader".into())));
    assert_eq!(doc.get("promoted"), Some(&Json::Bool(true)));
    assert_eq!(fclient.metric("pgschemad_replication_follower").unwrap(), 0);
    assert_eq!(fclient.metric("pgschemad_replication_state").unwrap(), 0);

    // The promoted node takes writes now: a delta against the
    // replicated session, and a fresh session.
    let user = user_ids(&sample_graph(2))[0];
    let delta = json::delta_to_json(&toggle_delta(user, 0));
    let (status, _) = fclient
        .request("POST", &format!("/sessions/{id}/deltas"), delta.as_bytes())
        .unwrap();
    assert_eq!(status, 200, "promoted node accepts deltas");
    let (status, body) = fclient.request("POST", "/sessions", &envelope(2)).unwrap();
    assert_eq!(status, 201, "promoted node accepts creates");
    let new_id = Json::parse(&String::from_utf8_lossy(&body))
        .ok()
        .and_then(|d| d.get("session")?.as_i64())
        .expect("session id");
    assert!(new_id > id, "ids continue past the replicated history");

    follower.stop();
    leader.stop();
}

#[test]
fn replication_endpoints_require_a_store() {
    // A memory-only daemon has no WAL: the replication surface answers
    // 409 rather than pretending.
    let config = ServerConfig::builder()
        .addr("127.0.0.1:0")
        .cores(1)
        .log_format(LogFormat::Off)
        .build();
    let handle = Server::bind(config).expect("bind").serve().expect("serve");
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let (status, _) = client.request("GET", "/wal/tail?from=1", b"").unwrap();
    assert_eq!(status, 409);
    let (status, _) = client.request("GET", "/wal/snapshot", b"").unwrap();
    assert_eq!(status, 409);

    handle.shutdown();
    handle.join().expect("clean shutdown");
}

#[test]
fn tail_rejects_bad_from_parameters() {
    let dir = Scratch::new("repl-tail-params").unwrap();
    let leader = Daemon::leader(dir.path());
    let mut client = Client::connect(leader.addr).unwrap();

    for target in ["/wal/tail", "/wal/tail?from=0", "/wal/tail?from=nope"] {
        let (status, _) = client.request("GET", target, b"").unwrap();
        assert_eq!(status, 400, "{target}");
    }
    // Beyond the end is not an error — it is an empty batch, which is
    // how a caught-up follower polls.
    let (status, headers, body) = client
        .request_full("GET", "/wal/tail?from=999", b"")
        .unwrap();
    assert_eq!(status, 200);
    assert!(body.is_empty());
    assert_eq!(header_u64(&headers, "x-wal-next-from"), 999);

    leader.stop();
}

/// [`SCHEMA_SDL`] with `UserSession.endTime` made `@required` — every
/// sample session lacks it, so commit needs `force` and the new
/// schema's report is non-conforming.
const BREAKING_SDL: &str = r#"
type UserSession {
    id: ID! @required
    user(certainty: Float! comment: String): User! @required
    startTime: Time! @required
    endTime: Time! @required
}
type User @key(fields: ["id"]) {
    id: ID! @required
    login: String! @required
    nicknames: [String!]!
}
scalar Time
"#;

/// An open migration window is WAL state: killing the leader mid-window
/// and restarting from the same directory re-opens it — the commit (and
/// its regression guard) behave exactly as they would have before the
/// crash.
#[test]
fn open_migration_window_survives_restart() {
    let dir = Scratch::new("repl-migrate-restart").unwrap();
    let leader = Daemon::leader(dir.path());
    let mut client = Client::connect(leader.addr).unwrap();

    let (status, body) = client.request("POST", "/sessions", &envelope(3)).unwrap();
    assert_eq!(status, 201);
    let created = Json::parse(&String::from_utf8_lossy(&body)).unwrap();
    let id = created.get("session").and_then(Json::as_i64).unwrap();
    let migrate = format!("/sessions/{id}/migrate");

    let (status, _) = client
        .request(
            "POST",
            &migrate,
            &migrate_body("begin", Some(BREAKING_SDL), false),
        )
        .unwrap();
    assert_eq!(status, 200);
    // Mutate inside the window so recovery replays a delta under it too.
    let users = user_ids(&sample_graph(3));
    let (status, _) = client
        .request(
            "POST",
            &format!("/sessions/{id}/deltas"),
            json::delta_to_json(&toggle_delta(users[0], 1)).as_bytes(),
        )
        .unwrap();
    assert_eq!(status, 200);
    leader.stop();

    let leader = Daemon::leader(dir.path());
    let mut client = Client::connect(leader.addr).unwrap();
    // The recovered window still guards its regressions...
    let (status, body) = client
        .request("POST", &migrate, &migrate_body("commit", None, false))
        .unwrap();
    assert_eq!(status, 409, "{}", String::from_utf8_lossy(&body));
    // ...and still commits when forced, serving the new schema's report.
    let (status, body) = client
        .request("POST", &migrate, &migrate_body("commit", None, true))
        .unwrap();
    assert_eq!(status, 200);
    let committed = Json::parse(&String::from_utf8_lossy(&body)).unwrap();
    assert_eq!(
        committed.get("report").and_then(|r| r.get("conforms")),
        Some(&Json::Bool(false))
    );
    leader.stop();
}

/// A follower applies replicated `SchemaChange` records: after the
/// leader commits a migration, the follower's report for the session is
/// byte-identical to the leader's — i.e. it serves the *new* schema's
/// violations, and misdirects migration writes throughout.
#[test]
fn follower_applies_replicated_migration() {
    let leader_dir = Scratch::new("repl-migrate-leader").unwrap();
    let follower_dir = Scratch::new("repl-migrate-follower").unwrap();
    let leader = Daemon::leader(leader_dir.path());
    let mut client = Client::connect(leader.addr).unwrap();

    let (status, body) = client.request("POST", "/sessions", &envelope(4)).unwrap();
    assert_eq!(status, 201);
    let created = Json::parse(&String::from_utf8_lossy(&body)).unwrap();
    let id = created.get("session").and_then(Json::as_i64).unwrap();
    let migrate = format!("/sessions/{id}/migrate");

    let follower = Daemon::follower(follower_dir.path(), leader.addr);
    let mut fclient = Client::connect(follower.addr).unwrap();
    wait_caught_up(&mut fclient, leader_last_seq(&mut client));

    // Writes are misdirected on the follower, including migrations.
    let (status, _) = fclient
        .request(
            "POST",
            &migrate,
            &migrate_body("begin", Some(BREAKING_SDL), false),
        )
        .unwrap();
    assert_eq!(status, 421);

    let (status, _) = client
        .request(
            "POST",
            &migrate,
            &migrate_body("begin", Some(BREAKING_SDL), false),
        )
        .unwrap();
    assert_eq!(status, 200);
    wait_caught_up(&mut fclient, leader_last_seq(&mut client));
    // Mid-window the follower still serves the *old* schema's report.
    let (status, body) = fclient
        .request("GET", &format!("/sessions/{id}/report"), b"")
        .unwrap();
    assert_eq!(status, 200);
    let report = Json::parse(&String::from_utf8_lossy(&body)).unwrap();
    assert_eq!(report.get("conforms"), Some(&Json::Bool(true)));

    let (status, _) = client
        .request("POST", &migrate, &migrate_body("commit", None, true))
        .unwrap();
    assert_eq!(status, 200);
    wait_caught_up(&mut fclient, leader_last_seq(&mut client));

    let (status, leader_report) = client
        .request("GET", &format!("/sessions/{id}/report"), b"")
        .unwrap();
    assert_eq!(status, 200);
    let (status, follower_report) = fclient
        .request("GET", &format!("/sessions/{id}/report"), b"")
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        canonical_report(&follower_report, &["metrics"]),
        canonical_report(&leader_report, &["metrics"]),
        "follower serves the committed schema's report"
    );
    let parsed = Json::parse(&String::from_utf8_lossy(&follower_report)).unwrap();
    assert_eq!(
        parsed.get("conforms"),
        Some(&Json::Bool(false)),
        "the committed schema is the breaking one"
    );

    follower.stop();
    leader.stop();
}

/// A follower that was already serving a session's report when the
/// leader opened a migration window inherits the window on promotion: it
/// must be able to finish it either way. The replicated `Begin` used to
/// reach only the session's bookkeeping, not its resident engine, and
/// the promoted node's `commit` then panicked its (only) reactor core.
#[test]
fn promoted_follower_finishes_an_inherited_window() {
    for ending in ["commit", "abort"] {
        let leader_dir = Scratch::new(&format!("repl-inherit-{ending}-leader")).unwrap();
        let follower_dir = Scratch::new(&format!("repl-inherit-{ending}-follower")).unwrap();
        let leader = Daemon::leader(leader_dir.path());
        let mut client = Client::connect(leader.addr).unwrap();
        let id = client.create_session("/sessions", &envelope(3)).unwrap();
        let migrate = format!("/sessions/{id}/migrate");
        let report = format!("/sessions/{id}/report");

        let follower = Daemon::follower(follower_dir.path(), leader.addr);
        let mut fclient = Client::connect(follower.addr).unwrap();
        wait_caught_up(&mut fclient, leader_last_seq(&mut client));
        // The read hydrates the follower's session: its engine is
        // resident when the Begin record arrives.
        fclient
            .expect("follower report", 200, "GET", &report, b"")
            .unwrap();
        let begin = migrate_body("begin", Some(BREAKING_SDL), false);
        client
            .expect("begin", 200, "POST", &migrate, &begin)
            .unwrap();
        wait_caught_up(&mut fclient, leader_last_seq(&mut client));
        assert_eq!(fclient.metric("pgschemad_migration_windows_open"), Ok(1));

        drop(client);
        leader.stop();
        let promoted = fclient.expect_json("promote", 200, "POST", "/promote", b"");
        assert_eq!(promoted.unwrap().get("promoted"), Some(&Json::Bool(true)));

        if ending == "commit" {
            // The inherited window still guards its regressions…
            let commit = migrate_body("commit", None, false);
            fclient
                .expect("guarded commit", 409, "POST", &migrate, &commit)
                .unwrap();
            // …and commits when forced, onto the candidate: the report
            // equals a from-scratch validation under it on every engine.
            let commit = migrate_body("commit", None, true);
            let committed = fclient.expect_json("commit", 200, "POST", &migrate, &commit);
            assert_eq!(committed.unwrap().get("committed"), Some(&Json::Bool(true)));
            let served = fclient.expect("report", 200, "GET", &report, b"").unwrap();
            let served = canonical_report(&served, &workload::VOLATILE).unwrap();
            let graph = fclient.expect("graph", 200, "GET", &format!("/sessions/{id}/graph"), b"");
            let graph = json::from_json(&String::from_utf8(graph.unwrap()).unwrap()).unwrap();
            let candidate = pg_schema::PgSchema::parse(BREAKING_SDL).unwrap();
            assert_eq!(workload::oracle(&graph, &candidate).unwrap(), served);
            assert!(
                served.contains("DS5"),
                "`endTime` is now required: {served}"
            );
        } else {
            let abort = migrate_body("abort", None, false);
            fclient
                .expect("abort", 200, "POST", &migrate, &abort)
                .unwrap();
            assert_eq!(fclient.metric("pgschemad_migration_windows_open"), Ok(0));
            fclient
                .expect("begin again", 200, "POST", &migrate, &begin)
                .unwrap();
        }
        fclient
            .expect("healthz", 200, "GET", "/healthz", b"")
            .unwrap();
        follower.stop();
    }
}
