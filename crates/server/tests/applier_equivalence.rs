//! One record state machine, three callers: whatever sequence of
//! requests a leader serves, the state crash recovery rebuilds from the
//! leader's directory, the state a follower reaches by applying the
//! shipped records (with redelivery, and with sessions hydrating at
//! arbitrary points in between), and the state the leader itself serves
//! must be the same — schema, delta count, open window, graph bytes and
//! the four-engine report.

use std::sync::Arc;

use pg_schema::ValidationOptions;
use pg_server::registry::SessionRegistry;
use pg_server::workload::{
    canonical_report, envelope, migrate_body, oracle, sample_graph, toggle_delta, user_ids, Client,
    Scratch, SCHEMA_SDL, VOLATILE,
};
use pg_server::{LogFormat, Server, ServerConfig};
use pg_store::{FsyncPolicy, Store};
use pgraph::json::{self, Json};
use pgraph::{GraphDelta, NodeId, Value};
use proptest::prelude::*;

/// What the test expects of one live session, tracked from the answers.
struct Model {
    id: u64,
    users: usize,
    toggles: u64,
    /// As the leader's last delta answer reported it.
    deltas_applied: u64,
    window: bool,
}

/// Pulls everything the leader has logged past the follower's cursor and
/// applies it — twice, as a reconnect would redeliver it.
fn sync_follower(leader: &mut Client, store: &Store, registry: &SessionRegistry) {
    loop {
        let tail = format!("/wal/tail?from={}", store.tail_cursor());
        let frames = leader.expect("tail", 200, "GET", &tail, b"").unwrap();
        let batch = store.append_replicated(&frames).expect("contiguous frames");
        assert!(batch.torn.is_none());
        if batch.records.is_empty() {
            return;
        }
        for (seq, record) in batch.records.iter().chain(&batch.records) {
            registry.apply_replicated(*seq, record.clone()).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn recovery_follower_and_leader_agree(
        script in proptest::collection::vec((0..10usize, 0..8usize, 0..4usize), 1..40),
    ) {
        let breaking = SCHEMA_SDL.replace("endTime: Time!", "endTime: Time! @required");
        let compatible = SCHEMA_SDL.replace("nicknames: [String!]!", "nicknames: [String!]!\n    note: String");
        let leader_dir = Scratch::new("applier-leader").unwrap();
        let config = ServerConfig::builder()
            .addr("127.0.0.1:0")
            .cores(1)
            .log_format(LogFormat::Off)
            .data_dir(leader_dir.path())
            .fsync(FsyncPolicy::Never)
            .compact_after_bytes(0)
            .build();
        let handle = Server::bind(config).expect("bind").serve().expect("serve");
        let mut leader = Client::connect(handle.local_addr()).unwrap();
        let options = ValidationOptions::builder().collect_metrics(true).build();
        let follower_dir = Scratch::new("applier-follower").unwrap();
        let (store, recovered) = Store::open(follower_dir.path(), FsyncPolicy::Never).unwrap();
        let store = Arc::new(store);
        let follower =
            SessionRegistry::with_store(Arc::clone(&store), recovered, &options, None).unwrap();

        let mut live: Vec<Model> = Vec::new();
        for (kind, pick, variant) in script {
            if kind < 2 || live.is_empty() {
                let users = 1 + pick % 3;
                let body = envelope(SCHEMA_SDL, &sample_graph(users));
                let id = leader.create_session("/sessions", &body).unwrap();
                live.push(Model { id, users, toggles: 0, deltas_applied: 0, window: false });
                continue;
            }
            let at = pick % live.len();
            let session = &mut live[at];
            let user = user_ids(&sample_graph(session.users))[0];
            let deltas = format!("/sessions/{}/deltas", session.id);
            let migrate = format!("/sessions/{}/migrate", session.id);
            match kind {
                2..=4 => {
                    let delta = json::delta_to_json(&toggle_delta(user, session.toggles));
                    let answer = leader.expect_json("delta", 200, "POST", &deltas, delta.as_bytes());
                    let counted = answer.unwrap().get("deltas_applied").and_then(Json::as_i64);
                    session.toggles += 1;
                    session.deltas_applied = counted.expect("the leader's own count") as u64;
                }
                // Fails part-way: the property write sticks, the removal
                // names a node the graph does not have (rule 4).
                5 => {
                    let partial = format!("partial-{}", session.toggles);
                    let delta = GraphDelta::new()
                        .set_node_property(user, "login", Value::String(partial))
                        .remove_node(NodeId::from_index(99_999));
                    let delta = json::delta_to_json(&delta);
                    leader.expect("conflict", 409, "POST", &deltas, delta.as_bytes()).unwrap();
                }
                6 => {
                    let (body, opens) = match variant {
                        0 => (migrate_body("begin", Some(&breaking), false), true),
                        1 => (migrate_body("begin", Some(&compatible), false), true),
                        2 => (migrate_body("commit", None, true), false),
                        _ => (migrate_body("abort", None, false), false),
                    };
                    // `begin` needs no window, `commit` / `abort` need one.
                    let status = if opens != session.window { 200 } else { 409 };
                    leader.expect("migrate", status, "POST", &migrate, &body).unwrap();
                    if status == 200 {
                        session.window = opens;
                    }
                }
                7 => {
                    let target = format!("/sessions/{}", session.id);
                    leader.expect("delete", 200, "DELETE", &target, b"").unwrap();
                    live.remove(at);
                }
                8 => {
                    sync_follower(&mut leader, &store, &follower);
                    let slot = follower.get(session.id).expect("replicated");
                    slot.session.lock().unwrap().engine().expect("hydrates");
                }
                // The follower must hold what compaction is about to drop
                // from the leader's log.
                _ => {
                    sync_follower(&mut leader, &store, &follower);
                    let target = format!("/sessions/{}/compact", session.id);
                    leader.expect("compact", 200, "POST", &target, b"").unwrap();
                }
            }
        }

        sync_follower(&mut leader, &store, &follower);
        let windows = live.iter().filter(|s| s.window).count() as u64;
        prop_assert_eq!(leader.metric("pgschemad_migration_windows_open"), Ok(windows));
        let mut served = Vec::new();
        for session in &live {
            let report = format!("/sessions/{}/report", session.id);
            let graph = format!("/sessions/{}/graph", session.id);
            served.push((
                leader.expect("report", 200, "GET", &report, b"").unwrap(),
                leader.expect("graph", 200, "GET", &graph, b"").unwrap(),
            ));
        }
        drop(leader);
        handle.shutdown();
        handle.join().expect("clean shutdown");
        let (_store, recovered) = Store::open(leader_dir.path(), FsyncPolicy::Never).unwrap();

        prop_assert_eq!(recovered.sessions.len(), live.len());
        prop_assert_eq!(follower.len(), live.len());
        let canonical = |report: &[u8]| canonical_report(report, &VOLATILE).unwrap();
        for (session, (leader_report, leader_graph)) in live.iter().zip(served) {
            let id = session.id;
            let replayed = recovered.sessions.iter().find(|s| s.id == id).expect("recovered");
            let slot = follower.get(id).expect("replicated");
            let mut replicated = slot.session.lock().unwrap();
            prop_assert_eq!(&replicated.meta, &replayed.meta, "session {}", id);
            prop_assert_eq!(replayed.meta.deltas_applied, session.deltas_applied);
            prop_assert_eq!(replayed.meta.pending_migration.is_some(), session.window);

            let graph = replayed.graph.clone().into_graph().unwrap();
            let graph_json = json::to_json(&graph);
            prop_assert_eq!(&json::to_json(replicated.graph().unwrap()), &graph_json);
            prop_assert_eq!(String::from_utf8(leader_graph).unwrap(), graph_json);

            let schema = pg_pgschema::parse_persisted(&replayed.meta.schema_sdl).unwrap();
            let expected = canonical(&leader_report);
            let replicated_report = replicated.engine().unwrap().report().to_json();
            prop_assert_eq!(canonical(replicated_report.as_bytes()), expected.clone());
            prop_assert_eq!(oracle(&graph, &schema).unwrap(), expected);
        }
    }
}
