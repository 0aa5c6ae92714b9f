//! End-to-end tests over a real socket: the daemon is started in
//! process on port 0, driven by hand-rolled HTTP clients, and shut down
//! through [`ServerHandle`] — the same drain SIGTERM triggers.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use pg_schema::{validate, ValidationOptions};
use pg_server::http::read_response;
use pg_server::workload::{
    self, migrate_body, sample_graph, toggle_delta, user_ids, Client, SCHEMA_SDL,
};
use pg_server::{LogFormat, Server, ServerConfig, ServerHandle};
use pgraph::json::{self, Json};

struct Daemon {
    addr: SocketAddr,
    handle: ServerHandle,
}

impl Daemon {
    fn start(cores: usize, max_connections: usize) -> Daemon {
        let config = ServerConfig::builder()
            .addr("127.0.0.1:0")
            .cores(cores)
            .max_connections(max_connections)
            .log_format(LogFormat::Off)
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

fn envelope(users: usize) -> Vec<u8> {
    workload::envelope(SCHEMA_SDL, &sample_graph(users))
}

#[test]
fn stateless_validate_on_every_engine() {
    let daemon = Daemon::start(2, 16);
    let mut client = Client::connect(daemon.addr).unwrap();

    let (status, body) = client.request("GET", "/healthz", b"").unwrap();
    assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));

    let schema = pg_schema::PgSchema::parse(SCHEMA_SDL).unwrap();
    let expected = workload::oracle(&sample_graph(3), &schema).unwrap();
    for engine in ["indexed", "parallel", "incremental"] {
        let (status, report) = client
            .request("POST", &format!("/validate?engine={engine}"), &envelope(3))
            .unwrap();
        assert_eq!(status, 200, "engine {engine}");
        let doc = Json::parse(&String::from_utf8_lossy(&report)).unwrap();
        assert_eq!(
            doc.get("engine").and_then(Json::as_str),
            Some(engine),
            "report names the engine that ran"
        );
        let served = workload::canonical_report(&report, &workload::VOLATILE).unwrap();
        assert_eq!(served, expected, "engine {engine}");
    }

    // The naive engine is the oracle, not a route; an unknown engine
    // fails the same way. Both answers name the served engines.
    for engine in ["naive", "quantum"] {
        let (status, error) = client
            .request_json("POST", &format!("/validate?engine={engine}"), &envelope(1))
            .unwrap();
        assert_eq!(status, 400, "engine {engine}");
        let message = error.get("error").and_then(Json::as_str).unwrap();
        assert!(
            message.contains("(expected indexed|parallel|incremental)"),
            "{message}"
        );
    }
    let (status, _) = client
        .request_json("POST", "/validate", b"{\"schema\": 7}")
        .unwrap();
    assert_eq!(status, 400);
    let (status, _) = client.request_json("GET", "/nope", b"").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.request_json("DELETE", "/validate", b"").unwrap();
    assert_eq!(status, 405);

    daemon.stop();
}

#[test]
fn session_delta_round_trip() {
    let daemon = Daemon::start(2, 16);
    let mut client = Client::connect(daemon.addr).unwrap();

    let (status, created) = client
        .request_json("POST", "/sessions", &envelope(4))
        .unwrap();
    assert_eq!(status, 201);
    let id = created.get("session").and_then(Json::as_i64).unwrap();
    assert_eq!(
        created.get("report").and_then(|r| r.get("conforms")),
        Some(&Json::Bool(true))
    );

    let graph = sample_graph(4);
    let user = user_ids(&graph)[0];

    // Break, then verify the patched report arrives with the response.
    let delta = json::delta_to_json(&toggle_delta(user, 0));
    let (status, patched) = client
        .request_json("POST", &format!("/sessions/{id}/deltas"), delta.as_bytes())
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        patched.get("report").and_then(|r| r.get("conforms")),
        Some(&Json::Bool(false))
    );
    let outcome = patched.get("outcome").unwrap();
    assert_eq!(
        outcome.get("violations_added").and_then(Json::as_i64),
        Some(1)
    );

    // The stored report and graph agree.
    let (status, report) = client
        .request_json("GET", &format!("/sessions/{id}/report"), b"")
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(report.get("conforms"), Some(&Json::Bool(false)));
    let (status, graph_doc) = client
        .request_json("GET", &format!("/sessions/{id}/graph"), b"")
        .unwrap();
    assert_eq!(status, 200);
    let served = json::graph_from_value(&graph_doc).unwrap();
    let schema = pg_schema::PgSchema::parse(SCHEMA_SDL).unwrap();
    assert!(!pg_schema::strongly_satisfies(&served, &schema));

    // A delta naming a missing node conflicts without corrupting state.
    let bogus = r#"{"ops":[{"op":"remove-node","node":999}]}"#;
    let (status, _) = client
        .request_json("POST", &format!("/sessions/{id}/deltas"), bogus.as_bytes())
        .unwrap();
    assert_eq!(status, 409);
    let (status, report) = client
        .request_json("GET", &format!("/sessions/{id}/report"), b"")
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(report.get("conforms"), Some(&Json::Bool(false)));

    // Delete, then the id is gone.
    let (status, _) = client
        .request_json("DELETE", &format!("/sessions/{id}"), b"")
        .unwrap();
    assert_eq!(status, 200);
    let (status, _) = client
        .request_json("GET", &format!("/sessions/{id}/report"), b"")
        .unwrap();
    assert_eq!(status, 404);

    daemon.stop();
}

#[test]
fn metrics_count_requests_and_sessions() {
    let daemon = Daemon::start(2, 16);
    let mut client = Client::connect(daemon.addr).unwrap();

    client
        .request("POST", "/validate?engine=parallel", &envelope(2))
        .unwrap();
    let (status, created) = client
        .request_json("POST", "/sessions", &envelope(2))
        .unwrap();
    assert_eq!(status, 201);
    assert!(created.get("session").is_some());

    let (status, body) = client.request("GET", "/metrics", b"").unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("pgschemad_validations_total{engine=\"parallel\"} 1"));
    assert!(text.contains("pgschemad_sessions_live 1"));
    assert!(text.contains("pgschemad_http_requests_total{route=\"/validate\",status=\"200\"} 1"));
    assert!(text.contains("pgschemad_request_duration_micros_bucket"));

    daemon.stop();
}

#[test]
fn saturated_server_sheds_with_503_and_retry_after() {
    // A connection cap of two: the first two idle connections are
    // adopted by the reactor, every further accept must be shed.
    let daemon = Daemon::start(1, 2);
    let mut idle: Vec<TcpStream> = (0..5)
        .map(|_| {
            let s = TcpStream::connect(daemon.addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_millis(1500)))
                .unwrap();
            s
        })
        .collect();
    // Give the accept thread time to classify all five.
    std::thread::sleep(Duration::from_millis(300));

    let mut shed = 0;
    let mut retry_after = 0;
    for stream in &mut idle {
        let mut buf = Vec::new();
        if let Ok((status, headers, _body)) = read_response(stream, &mut buf) {
            if status == 503 {
                shed += 1;
                if headers
                    .iter()
                    .any(|(name, value)| name == "retry-after" && value == "1")
                {
                    retry_after += 1;
                }
            }
        }
    }
    assert!(
        shed >= 3,
        "expected at least 3 shed connections, got {shed}"
    );
    assert_eq!(retry_after, shed, "every 503 carries Retry-After");

    daemon.stop();
}

#[test]
fn graceful_shutdown_completes_in_flight_work() {
    let daemon = Daemon::start(2, 16);
    let mut client = Client::connect(daemon.addr).unwrap();
    let (status, _) = client.request("GET", "/healthz", b"").unwrap();
    assert_eq!(status, 200);

    // Begin the drain (what SIGTERM triggers) and require a clean exit
    // while a keep-alive connection is still open: the reactor must
    // close the idle connection rather than wait for the peer.
    daemon.handle.shutdown();
    daemon.handle.join().expect("clean shutdown");
}

/// Satellite: hammer one session from many threads — interleaved delta
/// POSTs and report GETs — then require the final report to equal a
/// from-scratch validation by all four engines (the engine-agreement
/// oracle of `tests/engine_agreement.rs`, aimed at the server).
#[test]
fn hammered_session_report_equals_from_scratch_validation() {
    let daemon = Daemon::start(4, 32);
    let mut client = Client::connect(daemon.addr).unwrap();

    let users = 8;
    let (status, created) = client
        .request_json("POST", "/sessions", &envelope(users))
        .unwrap();
    assert_eq!(status, 201);
    let id = created.get("session").and_then(Json::as_i64).unwrap();

    let graph = sample_graph(users);
    let user_nodes = user_ids(&graph);

    // Four writer threads, each toggling its own user node so the
    // interleaving is conflict-free: even threads apply an odd number of
    // deltas (ending broken), odd threads an even number (ending
    // repaired). Two reader threads poll the report concurrently.
    let writers = 4;
    std::thread::scope(|scope| {
        for (t, &user) in user_nodes.iter().enumerate().take(writers) {
            let addr = daemon.addr;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let deltas = if t % 2 == 0 { 9 } else { 10 };
                for i in 0..deltas {
                    let delta = json::delta_to_json(&toggle_delta(user, i));
                    let (status, _) = client
                        .request("POST", &format!("/sessions/{id}/deltas"), delta.as_bytes())
                        .unwrap();
                    assert_eq!(status, 200, "writer {t} delta {i}");
                }
            });
        }
        for _ in 0..2 {
            let addr = daemon.addr;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..20 {
                    let (status, report) = client
                        .request_json("GET", &format!("/sessions/{id}/report"), b"")
                        .unwrap();
                    assert_eq!(status, 200);
                    // Any intermediate report is internally consistent:
                    // conforms iff no violations.
                    let conforms = report.get("conforms") == Some(&Json::Bool(true));
                    let empty = report
                        .get("violations")
                        .and_then(Json::as_array)
                        .is_some_and(|v| v.is_empty());
                    assert_eq!(conforms, empty);
                }
            });
        }
    });

    // Oracle: fetch the final graph, revalidate it from scratch with all
    // four engines, and require the session's report to be theirs.
    let (status, final_report) = client
        .request("GET", &format!("/sessions/{id}/report"), b"")
        .unwrap();
    assert_eq!(status, 200);
    let (status, graph_doc) = client
        .request_json("GET", &format!("/sessions/{id}/graph"), b"")
        .unwrap();
    assert_eq!(status, 200);
    let served = json::graph_from_value(&graph_doc).unwrap();
    let schema = pg_schema::PgSchema::parse(SCHEMA_SDL).unwrap();

    // Two writers ended broken (WS1 on their user's login).
    let final_report = workload::canonical_report(&final_report, &workload::VOLATILE).unwrap();
    assert!(
        final_report.contains("\"conforms\": false"),
        "{final_report}"
    );
    assert_eq!(final_report, workload::oracle(&served, &schema).unwrap());

    daemon.stop();
}

/// The value of the `/metrics` sample line that starts with `sample`
/// (its name and labels).
fn metric(text: &str, sample: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(sample)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("no sample {sample:?} in /metrics"))
}

/// A request is served by the core that read it: two keep-alive
/// connections, one per core, each walk *all* of eight sessions (in
/// opposite orders, so the cores keep meeting at the same session's
/// mutex) with deltas, report reads and graph reads interleaved. Every
/// session must end exactly where a client-side mirror says, and neither
/// connection may have changed cores on the way.
#[test]
fn two_cores_serve_every_session_without_handing_connections_over() {
    let daemon = Daemon::start(2, 16);
    let mut a = Client::connect(daemon.addr).unwrap();
    let mut b = Client::connect(daemon.addr).unwrap();
    // A round trip each, so both are adopted before the gauges are read.
    assert_eq!(a.request("GET", "/healthz", b"").unwrap().0, 200);
    assert_eq!(b.request("GET", "/healthz", b"").unwrap().0, 200);

    let mut sessions: Vec<(i64, pgraph::PropertyGraph)> = (0..8)
        .map(|i| {
            let users = 2 + i % 3;
            let (status, created) = a
                .request_json("POST", "/sessions", &envelope(users))
                .unwrap();
            assert_eq!(status, 201);
            let id = created.get("session").and_then(Json::as_i64).unwrap();
            (id, sample_graph(users))
        })
        .collect();

    let core_gauges = |client: &mut Client| {
        let (status, body) = client.request("GET", "/metrics", b"").unwrap();
        assert_eq!(status, 200);
        let text = String::from_utf8(body).unwrap();
        assert!(
            !text.contains("session_migrations"),
            "the hand-off counter is gone with the hand-off"
        );
        [0, 1].map(|core| {
            metric(
                &text,
                &format!("pgschemad_core_connections{{core=\"{core}\"}}"),
            )
        })
    };
    let before = core_gauges(&mut a);
    assert_eq!(
        before,
        [1, 1],
        "round-robin accept: one connection per core"
    );

    // Connection `a` toggles user 0 of every session five times (ending
    // broken) and, on its first visit, leaves a tombstoned node slot
    // behind; `b` walks the sessions in the opposite order and toggles
    // user 1 four times (ending repaired). The two write disjoint
    // elements, so any interleaving ends in one state.
    type Plan = Vec<(i64, pgraph::GraphDelta)>;
    let plan = |user_ix: usize, rounds: u64, tombstone: bool, reversed: bool| -> Plan {
        let mut plan = Plan::new();
        for i in 0..rounds {
            let mut round: Plan = sessions
                .iter()
                .map(|(id, graph)| {
                    let mut delta = toggle_delta(user_ids(graph)[user_ix], i);
                    if tombstone && i == 0 {
                        let fresh = pgraph::NodeId::from_index(graph.node_index_bound());
                        delta = delta.add_node("User").remove_node(fresh);
                    }
                    (*id, delta)
                })
                .collect();
            if reversed {
                round.reverse();
            }
            plan.append(&mut round);
        }
        plan
    };
    let (a_plan, b_plan) = (plan(0, 5, true, false), plan(1, 4, false, true));
    let walk = |client: &mut Client, plan: &Plan| {
        for (id, delta) in plan {
            let delta = json::delta_to_json(delta);
            let (status, _) = client
                .request("POST", &format!("/sessions/{id}/deltas"), delta.as_bytes())
                .unwrap();
            assert_eq!(status, 200, "session {id}");
            let (status, report) = client
                .request_json("GET", &format!("/sessions/{id}/report"), b"")
                .unwrap();
            assert_eq!(status, 200);
            let conforms = report.get("conforms") == Some(&Json::Bool(true));
            let empty = report
                .get("violations")
                .and_then(Json::as_array)
                .is_some_and(|v| v.is_empty());
            assert_eq!(conforms, empty);
            let (status, graph) = client
                .request_json("GET", &format!("/sessions/{id}/graph"), b"")
                .unwrap();
            assert_eq!(status, 200);
            json::graph_from_value(&graph).expect("a whole graph document");
        }
    };
    std::thread::scope(|scope| {
        scope.spawn(|| walk(&mut a, &a_plan));
        scope.spawn(|| walk(&mut b, &b_plan));
    });
    for (id, delta) in a_plan.iter().chain(&b_plan) {
        let (_, mirror) = sessions.iter_mut().find(|(s, _)| s == id).unwrap();
        delta
            .apply_to(mirror)
            .expect("the mirror applies what the daemon applied");
    }

    let schema = pg_schema::PgSchema::parse(SCHEMA_SDL).unwrap();
    for (id, mirror) in &sessions {
        let (status, served) = b
            .request("GET", &format!("/sessions/{id}/graph"), b"")
            .unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            String::from_utf8(served).unwrap(),
            json::to_json(mirror),
            "session {id} graph"
        );
        let (status, report) = b
            .request("GET", &format!("/sessions/{id}/report"), b"")
            .unwrap();
        assert_eq!(status, 200);
        let report = workload::canonical_report(&report, &workload::VOLATILE).unwrap();
        assert!(
            report.contains("\"conforms\": false"),
            "session {id}: {report}"
        );
        assert_eq!(
            report,
            workload::oracle(mirror, &schema).unwrap(),
            "session {id}"
        );
    }

    assert_eq!(core_gauges(&mut a), before, "no connection changed cores");
    daemon.stop();
}

/// One request must not be able to kill the node: a body or a schema
/// nested hundreds of thousands deep used to overflow the stack of the
/// reactor core that parsed it and abort the process, sessions and all.
#[test]
fn hostile_nesting_is_a_400_and_the_daemon_keeps_serving() {
    let daemon = Daemon::start(1, 16);
    let mut client = Client::connect(daemon.addr).unwrap();
    let (status, created) = client
        .request_json("POST", "/sessions", &envelope(2))
        .unwrap();
    assert_eq!(status, 201);
    let id = created.get("session").and_then(Json::as_i64).unwrap();

    let brackets = "[".repeat(400_000).into_bytes();
    for target in [
        "/validate".to_owned(),
        "/sessions".to_owned(),
        "/check-sat".to_owned(),
        format!("/sessions/{id}/deltas"),
        format!("/sessions/{id}/migrate"),
    ] {
        let (status, error) = client.request_json("POST", &target, &brackets).unwrap();
        assert_eq!(status, 400, "{target}");
        let message = error.get("error").and_then(Json::as_str).unwrap();
        assert!(
            message.contains(&format!(
                "nesting deeper than {} levels at byte {}",
                json::MAX_DEPTH,
                json::MAX_DEPTH
            )),
            "{target}: {message}"
        );
    }

    let deep_schema = format!(
        "type A {{ x: {}Int{} }}",
        "[".repeat(300_000),
        "]".repeat(300_000)
    );
    let body = envelope_with(&deep_schema, &json::to_json(&sample_graph(1)));
    let (status, error) = client.request_json("POST", "/validate", &body).unwrap();
    assert_eq!(status, 400);
    let message = error.get("error").and_then(Json::as_str).unwrap();
    assert!(
        message.contains(&format!(
            "nesting deeper than {} levels",
            gql_sdl::MAX_DEPTH
        )) && message.contains(&format!("1:{}", 13 + gql_sdl::MAX_DEPTH)),
        "{message}"
    );
    // PG-Schema has no recursive production: deep parentheses are one
    // located syntax error, not a stack overflow.
    let deep_pgs = format!("CREATE GRAPH TYPE G {{ {}", "(".repeat(200_000));
    let body = envelope_with(&deep_pgs, &json::to_json(&sample_graph(1)));
    let (status, error) = client
        .request_json("POST", "/validate?lang=pgschema", &body)
        .unwrap();
    assert_eq!(status, 400);
    let message = error.get("error").and_then(Json::as_str).unwrap();
    assert!(message.contains("1:24: expected a node label"), "{message}");

    // Same daemon, same connection, sessions intact.
    let (status, report) = client
        .request_json("POST", "/validate", &envelope(3))
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(report.get("conforms"), Some(&Json::Bool(true)));
    let (status, _) = client
        .request_json("GET", &format!("/sessions/{id}/report"), b"")
        .unwrap();
    assert_eq!(status, 200);
    daemon.stop();
}

/// [`SCHEMA_SDL`] with `UserSession.endTime` made `@required` — every
/// sample session lacks it, so the change is breaking on sample graphs.
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

/// [`SCHEMA_SDL`] plus an optional `User.note` attribute — compatible
/// by construction (field additions constrain nothing retroactively).
const COMPATIBLE_SDL: &str = r#"
type UserSession {
    id: ID! @required
    user(certainty: Float! comment: String): User! @required
    startTime: Time! @required
    endTime: Time!
}
type User @key(fields: ["id"]) {
    id: ID! @required
    login: String! @required
    nicknames: [String!]!
    note: String
}
scalar Time
"#;

#[test]
fn migration_window_lifecycle() {
    let daemon = Daemon::start(2, 16);
    let mut client = Client::connect(daemon.addr).unwrap();

    let (status, created) = client
        .request_json("POST", "/sessions", &envelope(3))
        .unwrap();
    assert_eq!(status, 201);
    let id = created.get("session").and_then(Json::as_i64).unwrap();
    let migrate = format!("/sessions/{id}/migrate");

    // A plan is a preview: it opens nothing.
    let (status, planned) = client
        .request_json(
            "POST",
            &migrate,
            &migrate_body("plan", Some(BREAKING_SDL), false),
        )
        .unwrap();
    assert_eq!(status, 200);
    let plan = planned.get("plan").unwrap();
    assert_eq!(plan.get("compatible"), Some(&Json::Bool(false)));
    assert!(plan
        .get("violations_added")
        .and_then(Json::as_array)
        .is_some_and(|v| !v.is_empty()));
    let (status, _) = client
        .request_json("POST", &migrate, &migrate_body("commit", None, false))
        .unwrap();
    assert_eq!(status, 409, "plan must not have opened a window");

    // Begin a compatible window; a second begin is refused.
    let (status, begun) = client
        .request_json(
            "POST",
            &migrate,
            &migrate_body("begin", Some(COMPATIBLE_SDL), false),
        )
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        begun.get("plan").and_then(|p| p.get("compatible")),
        Some(&Json::Bool(true))
    );
    let (status, _) = client
        .request_json(
            "POST",
            &migrate,
            &migrate_body("begin", Some(COMPATIBLE_SDL), false),
        )
        .unwrap();
    assert_eq!(status, 409);
    let (status, metrics) = client.request("GET", "/metrics", b"").unwrap();
    assert_eq!(status, 200);
    let metrics = String::from_utf8(metrics).unwrap();
    assert!(metrics.contains("pgschemad_migration_windows_open 1"));
    assert!(metrics.contains("pgschemad_migration_actions_total{action=\"begin\"} 1"));

    // Deltas keep flowing during the window; commit swaps cleanly.
    let users = user_ids(&sample_graph(3));
    let delta = toggle_delta(users[0], 1);
    let (status, _) = client
        .request_json(
            "POST",
            &format!("/sessions/{id}/deltas"),
            json::delta_to_json(&delta).as_bytes(),
        )
        .unwrap();
    assert_eq!(status, 200);
    let (status, committed) = client
        .request_json("POST", &migrate, &migrate_body("commit", None, false))
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(committed.get("committed"), Some(&Json::Bool(true)));
    assert_eq!(
        committed.get("report").and_then(|r| r.get("conforms")),
        Some(&Json::Bool(true))
    );
    let (status, _) = client
        .request_json("POST", &migrate, &migrate_body("abort", None, false))
        .unwrap();
    assert_eq!(status, 409, "commit closed the window");

    // A breaking window: commit refused until forced.
    let (status, begun) = client
        .request_json(
            "POST",
            &migrate,
            &migrate_body("begin", Some(BREAKING_SDL), false),
        )
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        begun.get("plan").and_then(|p| p.get("compatible")),
        Some(&Json::Bool(false))
    );
    let (status, refused) = client
        .request_json("POST", &migrate, &migrate_body("commit", None, false))
        .unwrap();
    assert_eq!(status, 409);
    assert_eq!(refused.get("committed"), Some(&Json::Bool(false)));
    let (status, committed) = client
        .request_json("POST", &migrate, &migrate_body("commit", None, true))
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        committed.get("report").and_then(|r| r.get("conforms")),
        Some(&Json::Bool(false)),
        "forced breaking commit serves the new schema's violations"
    );

    // Abort path and malformed requests.
    let (status, _) = client
        .request_json(
            "POST",
            &migrate,
            &migrate_body("begin", Some(COMPATIBLE_SDL), false),
        )
        .unwrap();
    assert_eq!(status, 200);
    let (status, aborted) = client
        .request_json("POST", &migrate, &migrate_body("abort", None, false))
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(aborted.get("aborted"), Some(&Json::Bool(true)));
    let (status, _) = client
        .request_json("POST", &migrate, &migrate_body("tango", None, false))
        .unwrap();
    assert_eq!(status, 400);
    let (status, _) = client
        .request_json("POST", &migrate, &migrate_body("plan", None, false))
        .unwrap();
    assert_eq!(status, 400);
    let (status, _) = client
        .request_json(
            "POST",
            "/sessions/999/migrate",
            &migrate_body("abort", None, false),
        )
        .unwrap();
    assert_eq!(status, 404);

    daemon.stop();
}

/// Builds a `/validate` / `/sessions` envelope with an explicit schema
/// text (any language) and graph JSON.
fn envelope_with(schema: &str, graph_json: &str) -> Vec<u8> {
    let mut out = String::new();
    out.push_str("{\"schema\":\"");
    json::escape_into(&mut out, schema);
    out.push_str("\",\"graph\":");
    out.push_str(graph_json);
    out.push('}');
    out.into_bytes()
}

/// Builds a `/check-sat` body.
fn check_sat_body(schema: &str, type_name: &str, max_size: Option<u64>) -> Vec<u8> {
    let mut out = String::new();
    out.push_str("{\"schema\":\"");
    json::escape_into(&mut out, schema);
    out.push_str("\",\"type\":\"");
    json::escape_into(&mut out, type_name);
    out.push('"');
    if let Some(k) = max_size {
        out.push_str(&format!(",\"max_size\":{k}"));
    }
    out.push('}');
    out.into_bytes()
}

#[test]
fn pgschema_language_is_served_end_to_end() {
    let daemon = Daemon::start(2, 16);
    let mut client = Client::connect(daemon.addr).unwrap();

    // Render the workload schema into PG-Schema; both texts must yield
    // the same served report.
    let doc = gql_sdl::parse(SCHEMA_SDL).expect("workload schema parses");
    let pgs = pg_pgschema::print_pgschema(&doc, "Workload", pg_pgschema::TypeMode::Strict)
        .expect("workload schema is inside the PG-Schema fragment");
    let graph_json = json::to_json(&sample_graph(3));

    let (status, sdl_report) = client
        .request_json("POST", "/validate", &envelope_with(SCHEMA_SDL, &graph_json))
        .unwrap();
    assert_eq!(status, 200);
    let (status, pgs_report) = client
        .request_json(
            "POST",
            "/validate?lang=pgschema",
            &envelope_with(&pgs, &graph_json),
        )
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(sdl_report.get("conforms"), pgs_report.get("conforms"));
    assert_eq!(
        sdl_report.get("violations"),
        pgs_report.get("violations"),
        "identical violations whichever language carried the schema"
    );

    // Unknown languages fail through the shared enum error.
    let (status, body) = client
        .request(
            "POST",
            "/validate?lang=cypher",
            &envelope_with(SCHEMA_SDL, &graph_json),
        )
        .unwrap();
    assert_eq!(status, 400);
    let text = String::from_utf8_lossy(&body);
    assert!(text.contains("schema language"), "{text}");

    // SDL text posted as pgschema is a clean 400, not a panic.
    let (status, _) = client
        .request(
            "POST",
            "/validate?lang=pgschema",
            &envelope_with(SCHEMA_SDL, &graph_json),
        )
        .unwrap();
    assert_eq!(status, 400);

    // Sessions record the language and serve reports identically.
    let (status, created) = client
        .request_json(
            "POST",
            "/sessions?lang=pgschema",
            &envelope_with(&pgs, &graph_json),
        )
        .unwrap();
    assert_eq!(status, 201);
    assert_eq!(created.get("lang").and_then(Json::as_str), Some("pgschema"));
    let id = created.get("session").and_then(Json::as_i64).unwrap();
    let (status, report) = client
        .request_json("GET", &format!("/sessions/{id}/report"), b"")
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(report.get("conforms"), sdl_report.get("conforms"));

    daemon.stop();
}

#[test]
fn check_sat_answers_sat_with_witness_and_unsat() {
    let daemon = Daemon::start(1, 8);
    let mut client = Client::connect(daemon.addr).unwrap();

    // Satisfiable: a keyed node type has a finite witness.
    let sat_pgs =
        "CREATE GRAPH TYPE Accounts STRICT { (User {id STRING}), FOR (x : User) KEY x.id }";
    let (status, doc) = client
        .request_json(
            "POST",
            "/check-sat?lang=pgschema",
            &check_sat_body(sat_pgs, "User", None),
        )
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        doc.get("result").and_then(Json::as_str),
        Some("satisfiable"),
        "{doc:?}"
    );
    assert!(doc.get("witness_size").and_then(Json::as_i64).unwrap() >= 1);

    // Unsatisfiable: Example 6.1's contradictory endpoint
    // cardinalities, posted in PG-Schema.
    let unsat_pgs = "CREATE GRAPH TYPE G STRICT {
        (OT1),
        ABSTRACT (IT),
        (: IT & OT2),
        (: IT & OT3),
        (:IT)-[:f]->(:OT1) INCOMING 0..1,
        (:OT2)-[:f]->(:OT1) INCOMING 1..*,
        (:OT3)-[:f]->(:OT1) INCOMING 1..*
    }";
    let (status, doc) = client
        .request_json(
            "POST",
            "/check-sat?lang=pgschema",
            &check_sat_body(unsat_pgs, "OT1", Some(4)),
        )
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        doc.get("result").and_then(Json::as_str),
        Some("unsatisfiable"),
        "{doc:?}"
    );

    // The same route takes plain SDL (the default language).
    let (status, doc) = client
        .request_json(
            "POST",
            "/check-sat",
            &check_sat_body("type A { b: B @required } type B { x: Int }", "A", None),
        )
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        doc.get("result").and_then(Json::as_str),
        Some("satisfiable")
    );

    // Malformed requests are clean 400s; wrong methods are 405s.
    let (status, _) = client
        .request("POST", "/check-sat", b"{\"schema\": \"type A { x: Int }\"}")
        .unwrap();
    assert_eq!(status, 400);
    let (status, _) = client.request("POST", "/check-sat", b"not json").unwrap();
    assert_eq!(status, 400);
    let (status, _) = client.request("GET", "/check-sat", b"").unwrap();
    assert_eq!(status, 405);

    daemon.stop();
}

#[test]
fn migration_windows_cross_languages() {
    let daemon = Daemon::start(1, 8);
    let mut client = Client::connect(daemon.addr).unwrap();

    // `nickname` is not declared: the closed-world SDL schema rejects
    // it through the strong family.
    let graph_json = r#"{"nodes":[{"id":0,"label":"User",
        "properties":{"login":"alice","nickname":"al"}}],"edges":[]}"#;
    let (status, created) = client
        .request_json(
            "POST",
            "/sessions",
            &envelope_with("type User { login: String! @required }", graph_json),
        )
        .unwrap();
    assert_eq!(status, 201);
    assert_eq!(
        created.get("report").and_then(|r| r.get("conforms")),
        Some(&Json::Bool(false))
    );
    let id = created.get("session").and_then(Json::as_i64).unwrap();
    let migrate = format!("/sessions/{id}/migrate");

    // Migrate to an open-world (LOOSE) PG-Schema candidate: the window
    // crosses languages via the body's "lang" field.
    let mut begin = String::from("{\"action\":\"begin\",\"lang\":\"pgschema\",\"schema\":\"");
    json::escape_into(
        &mut begin,
        "CREATE GRAPH TYPE G LOOSE { (User {login STRING}) }",
    );
    begin.push_str("\"}");
    let (status, planned) = client
        .request_json("POST", &migrate, begin.as_bytes())
        .unwrap();
    assert_eq!(status, 200, "{planned:?}");

    let (status, committed) = client
        .request_json("POST", &migrate, b"{\"action\":\"commit\"}")
        .unwrap();
    assert_eq!(status, 200, "{committed:?}");
    assert_eq!(committed.get("committed"), Some(&Json::Bool(true)));
    // The committed LOOSE schema validates open-world: the undeclared
    // property is no longer a violation.
    assert_eq!(
        committed.get("report").and_then(|r| r.get("conforms")),
        Some(&Json::Bool(true)),
        "{committed:?}"
    );

    daemon.stop();
}

/// The compiled-schema cache keys on the language and the exact text, so
/// no two posted schemas can share a compiled form unless they are the
/// same bytes in the same language. Two cores answer interleaved posts of
/// one schema, its one-byte variant, a STRICT / LOOSE pair of one
/// PG-Schema body and one text under both languages; every answer equals
/// in-process validation under a freshly compiled schema (and a failed
/// compile stays a 400). Past capacity the first schema is compiled again
/// and still answers right, and a session created from a cached schema
/// reports, before and after a delta, what an uncached daemon reports.
#[test]
fn schema_cache_never_aliases_distinct_texts() {
    let daemon = Daemon::start(2, 16);
    let mut clients = [
        Client::connect(daemon.addr).unwrap(),
        Client::connect(daemon.addr).unwrap(),
    ];
    let graph_json = r#"{"nodes":[{"id":0,"label":"User",
        "properties":{"login":"alice","nickname":"al"}}],"edges":[]}"#;
    let graph = json::from_json(graph_json).unwrap();
    const LANGS: [(&str, pg_pgschema::SchemaLanguage); 2] = [
        ("sdl", pg_pgschema::SchemaLanguage::Sdl),
        ("pgschema", pg_pgschema::SchemaLanguage::PgSchema),
    ];
    // What a daemon that compiled `schema` afresh must answer.
    let expected = |schema: &str, lang| match pg_pgschema::load_schema(schema, lang) {
        Ok((schema, _)) => {
            let report = validate(&graph, &schema, &ValidationOptions::default());
            Some(workload::canonical_report(report.to_json().as_bytes(), &["metrics"]).unwrap())
        }
        Err(_) => None,
    };
    let post = |client: &mut Client, schema: &str, (lang_name, lang)| {
        let target = format!("/validate?lang={lang_name}");
        let (status, body) = client
            .request("POST", &target, &envelope_with(schema, graph_json))
            .unwrap();
        match expected(schema, lang) {
            Some(want) => {
                assert_eq!(status, 200, "{schema} as {lang_name}");
                let got = workload::canonical_report(&body, &["metrics"]).unwrap();
                assert_eq!(got, want, "{schema} as {lang_name}");
            }
            None => assert_eq!(status, 400, "{schema} as {lang_name}"),
        }
    };

    let cases = [
        ("type User { login: String nickname: String }", LANGS[0]),
        // One byte apart: `User` is no longer a declared type.
        ("type Usex { login: String nickname: String }", LANGS[0]),
        (
            "CREATE GRAPH TYPE G STRICT { (User {login STRING}) }",
            LANGS[1],
        ),
        (
            "CREATE GRAPH TYPE G LOOSE { (User {login STRING}) }",
            LANGS[1],
        ),
        // One text, both languages: valid SDL, not PG-Schema.
        ("type User { login: String }", LANGS[0]),
        ("type User { login: String }", LANGS[1]),
    ];
    for round in 0..3 {
        for (k, (schema, lang)) in cases.into_iter().enumerate() {
            post(&mut clients[(round + k) % 2], schema, lang);
        }
    }
    let text = daemon_metrics(&mut clients[0]);
    let hits = metric(&text, "pgschemad_schema_cache_hits_total ");
    let misses = metric(&text, "pgschemad_schema_cache_misses_total ");
    // Five texts compile once each; the failing one misses every time.
    assert_eq!((hits, misses), (10, 8), "{text}");

    // More distinct schemas than the cache holds, then the first again:
    // evicted, so compiled anew — and still right.
    for k in 0..100 {
        let schema = format!("type User {{ login: String }} type Pad{k} {{ x: Int }}");
        post(&mut clients[k % 2], &schema, LANGS[0]);
    }
    post(&mut clients[1], cases[0].0, cases[0].1);
    let text = daemon_metrics(&mut clients[0]);
    assert_eq!(
        metric(&text, "pgschemad_schema_cache_misses_total "),
        misses + 101,
        "the first schema was evicted"
    );

    // Sessions: one on a schema the cache holds, one on an uncached
    // daemon; the same delta; the same reports.
    let fresh = Daemon::start(1, 4);
    let mut uncached = Client::connect(fresh.addr).unwrap();
    let schema = cases[0].0;
    post(&mut clients[0], schema, LANGS[0]);
    let mut reports = Vec::new();
    for client in [&mut clients[1], &mut uncached] {
        let created = client
            .expect(
                "create",
                201,
                "POST",
                "/sessions",
                &envelope_with(schema, graph_json),
            )
            .unwrap();
        let id = workload::session_id(&created).unwrap();
        let delta = r#"{"ops":[{"op":"set-node-property","node":0,"name":"login","value":7}]}"#;
        let patched = client
            .expect(
                "delta",
                200,
                "POST",
                &format!("/sessions/{id}/deltas"),
                delta.as_bytes(),
            )
            .unwrap();
        let report = client
            .expect("report", 200, "GET", &format!("/sessions/{id}/report"), b"")
            .unwrap();
        let created = Json::parse(&String::from_utf8_lossy(&created)).unwrap();
        let patched = Json::parse(&String::from_utf8_lossy(&patched)).unwrap();
        let canonical = |report: &Json| {
            workload::canonical_report(report.to_string().as_bytes(), &["metrics"]).unwrap()
        };
        reports.push([
            canonical(created.get("report").unwrap()),
            canonical(patched.get("report").unwrap()),
            workload::canonical_report(&report, &["metrics"]).unwrap(),
        ]);
    }
    assert_eq!(reports[0], reports[1]);
    assert!(reports[0][1].contains("WS1"), "{:?}", reports[0]);

    fresh.stop();
    daemon.stop();
}

fn daemon_metrics(client: &mut Client) -> String {
    let body = client
        .expect("metrics", 200, "GET", "/metrics", b"")
        .unwrap();
    String::from_utf8(body).unwrap()
}

/// The other direction: the candidate is judged under *its own* mode, so
/// closing an open-world session surfaces the strong-family violations
/// in the plan and the commit refuses them unless forced.
#[test]
fn migration_from_loose_to_strict_is_judged_closed_world() {
    let daemon = Daemon::start(1, 8);
    let mut client = Client::connect(daemon.addr).unwrap();

    let graph_json = r#"{"nodes":[{"id":0,"label":"User",
        "properties":{"login":"alice","nickname":"al"}}],"edges":[]}"#;
    let (status, created) = client
        .request_json(
            "POST",
            "/sessions?lang=pgschema",
            &envelope_with(
                "CREATE GRAPH TYPE G LOOSE { (User {login STRING}) }",
                graph_json,
            ),
        )
        .unwrap();
    assert_eq!(status, 201);
    assert_eq!(
        created.get("report").and_then(|r| r.get("conforms")),
        Some(&Json::Bool(true)),
        "open-world: the undeclared nickname is fine"
    );
    let id = created.get("session").and_then(Json::as_i64).unwrap();
    let migrate = format!("/sessions/{id}/migrate");

    const CANDIDATE: &str = "type User { login: String! @required age: Int }";
    let (status, begun) = client
        .request_json(
            "POST",
            &migrate,
            &migrate_body("begin", Some(CANDIDATE), false),
        )
        .unwrap();
    assert_eq!(status, 200, "{begun:?}");
    let added = begun
        .get("plan")
        .and_then(|p| p.get("violations_added"))
        .and_then(Json::as_array)
        .expect("plan lists added violations");
    assert_eq!(added.len(), 1, "{begun:?}");
    assert_eq!(added[0].get("rule").and_then(Json::as_str), Some("SS2"));

    let (status, refused) = client
        .request_json("POST", &migrate, &migrate_body("commit", None, false))
        .unwrap();
    assert_eq!(status, 409, "{refused:?}");
    assert_eq!(refused.get("committed"), Some(&Json::Bool(false)));

    let (status, committed) = client
        .request_json("POST", &migrate, &migrate_body("commit", None, true))
        .unwrap();
    assert_eq!(status, 200, "{committed:?}");
    let schema = pg_schema::PgSchema::parse(CANDIDATE).unwrap();
    let graph = json::from_json(graph_json).unwrap();
    let report = committed.get("report").unwrap().to_string();
    assert_eq!(
        workload::canonical_report(report.as_bytes(), &workload::VOLATILE).unwrap(),
        workload::oracle(&graph, &schema).unwrap()
    );

    daemon.stop();
}

/// `POST /validate` streams its envelope: the first `schema` and the
/// first `graph` member count wherever they stand, other members are
/// skipped, and whatever the parsed-tree reading of the body refused is
/// still a `400`. Every accepted body is answered, on every served
/// engine, with the in-process four-engine oracle's report — over every
/// corpus schema and a generated graph that breaks it, posted as SDL and
/// as PG-Schema.
#[test]
fn envelope_members_stream_in_any_order() {
    let daemon = Daemon::start(2, 16);
    let mut client = Client::connect(daemon.addr).unwrap();
    let quoted = |text: &str| {
        let mut out = String::from("\"");
        json::escape_into(&mut out, text);
        out.push('"');
        out
    };
    for corpus_seed in 0..24 {
        let sdl = pg_pgschema::corpus::corpus_sdl(corpus_seed);
        let doc = gql_sdl::parse(&sdl).unwrap();
        let pgs =
            pg_pgschema::print_pgschema(&doc, "Corpus", pg_pgschema::TypeMode::Strict).unwrap();
        let schema = pg_schema::PgSchema::parse(&sdl).unwrap();
        let mut graph = pg_datagen::GraphGen::new(
            &schema,
            pg_datagen::GraphGenParams {
                nodes_per_type: 4,
                seed: corpus_seed,
                ..Default::default()
            },
        )
        .generate();
        let ghost = graph.add_node("Ghost");
        graph.set_node_property(ghost, "list", pgraph::Value::from(vec![1i64, 2]));
        let first = graph.node_ids().next().unwrap();
        graph.add_edge(first, ghost, "haunts").unwrap();
        let graph_json = json::to_json(&graph);

        for (lang, text) in [("sdl", &sdl), ("pgschema", &pgs)] {
            let compiled = pg_pgschema::load_schema(text, lang.parse().unwrap())
                .unwrap()
                .0;
            let expected =
                workload::oracle(&json::from_json(&graph_json).unwrap(), &compiled).unwrap();
            let (s, g) = (quoted(text), graph_json.as_str());
            let good = [
                format!("{{\"schema\":{s},\"graph\":{g}}}"),
                format!("{{\"graph\":{g},\"schema\":{s}}}"),
                format!("{{\"graph\":{g},\"schema\":{s},\"graph\":7,\"schema\":null}}"),
                format!(
                    "{{\"x\":[1,{{\"y\":null}}],\"schema\":{s},\"z\":\"\\u00e9\",\"graph\":{g},\"w\":{{}}}}"
                ),
            ];
            for body in &good {
                for engine in pg_server::server::SERVED_ENGINES {
                    let target = format!("/validate?lang={lang}&engine={engine}");
                    let (status, report) =
                        client.request("POST", &target, body.as_bytes()).unwrap();
                    assert_eq!(
                        status,
                        200,
                        "{target}: {}",
                        String::from_utf8_lossy(&report)
                    );
                    let served = workload::canonical_report(&report, &workload::VOLATILE).unwrap();
                    assert_eq!(served, expected, "{target} corpus {corpus_seed}: {body}");
                }
            }
        }
    }

    // What the tree reading refused stays refused: a schema or graph
    // member of the wrong type even when a good one follows, a missing
    // member, a root that is not an object, broken syntax after the
    // graph, nesting past the limit inside a property list, and a graph
    // that repeats a node id.
    let s = quoted(SCHEMA_SDL);
    let g = json::to_json(&sample_graph(2));
    let nested = |depth: usize| {
        format!(
            "{{\"schema\":{s},\"graph\":{{\"nodes\":[{{\"id\":0,\"label\":\"User\",\
             \"properties\":{{\"deep\":{}1{}}}}}],\"edges\":[]}}}}",
            "[".repeat(depth),
            "]".repeat(depth)
        )
    };
    // Envelope, graph, nodes, node and properties hold five levels.
    let (status, _) = client
        .request("POST", "/validate", nested(json::MAX_DEPTH - 5).as_bytes())
        .unwrap();
    assert_eq!(status, 200);
    let bad = [
        format!("{{\"schema\":7,\"schema\":{s},\"graph\":{g}}}"),
        format!("{{\"schema\":{s},\"graph\":[],\"graph\":{g}}}"),
        format!("{{\"graph\":{g}}}"),
        format!("{{\"schema\":{s}}}"),
        format!("[{{\"schema\":{s},\"graph\":{g}}}]"),
        "\"schema\"".to_owned(),
        "null".to_owned(),
        String::new(),
        format!("{{\"schema\":{s},\"graph\":{g},}}"),
        format!("{{\"graph\":{g},\"schema\":{s}}} 1"),
        format!("{{\"schema\":{s},\"graph\":{g},\"x\":[1 2]}}"),
        nested(json::MAX_DEPTH - 4),
        format!(
            "{{\"schema\":{s},\"graph\":{{\"nodes\":[{{\"id\":7,\"label\":\"User\"}},\
             {{\"id\":7,\"label\":\"User\"}}],\"edges\":[]}}}}"
        ),
    ];
    for body in &bad {
        for target in ["/validate", "/sessions"] {
            let (status, error) = client
                .request_json("POST", target, body.as_bytes())
                .unwrap();
            assert_eq!(status, 400, "{target}: {body}");
            assert!(
                error.get("error").and_then(Json::as_str).is_some(),
                "{error}"
            );
        }
    }
    let (_, error) = client
        .request_json("POST", "/validate", bad.last().unwrap().as_bytes())
        .unwrap();
    let message = error.get("error").and_then(Json::as_str).unwrap();
    assert!(message.contains("node #1 repeats node id 7"), "{message}");
    daemon.stop();
}

/// `/check-sat` and `/sessions/{id}/migrate` read their flat bodies with
/// the pull reader and answer what a parsed-tree reading answered:
/// members in any order, the first of a repeated one counting, unknown
/// members skipped; a root that is not an object has no members; and a
/// syntax error anywhere (trailing garbage, a broken unknown member,
/// nesting past the limit) outranks a missing or wrong-typed member,
/// with `Json::parse`'s message. The one departure: an optional member
/// of the wrong type (`field`, `lang`, `force`) is a `400` naming it.
#[test]
fn flat_envelopes_read_like_the_tree() {
    let daemon = Daemon::start(1, 16);
    let mut client = Client::connect(daemon.addr).unwrap();
    let (status, created) = client
        .request_json("POST", "/sessions", &envelope(3))
        .unwrap();
    assert_eq!(status, 201);
    let id = created.get("session").and_then(Json::as_i64).unwrap();
    let migrate = format!("/sessions/{id}/migrate");
    let quoted = |text: &str| {
        let mut out = String::from("\"");
        json::escape_into(&mut out, text);
        out.push('"');
        out
    };
    let syntax = |body: &str| Json::parse(body).unwrap_err().to_string();
    let deep = |levels: usize| format!("{}1{}", "[".repeat(levels), "]".repeat(levels));
    let missing = |name: &str| format!("missing string field \"{name}\"");

    // What each route answers its canonical body, and the bodies that
    // must be answered the same.
    let s = quoted(SCHEMA_SDL);
    let sat = format!("{{\"schema\":{s},\"type\":\"User\"}}");
    let c = quoted(COMPATIBLE_SDL);
    let plan = format!("{{\"action\":\"plan\",\"schema\":{c}}}");
    let (status, sat_answer) = client
        .request("POST", "/check-sat", sat.as_bytes())
        .unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&sat_answer));
    let (status, plan_answer) = client.request("POST", &migrate, plan.as_bytes()).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&plan_answer));
    let same = [
        ("/check-sat", format!("{{\"type\":\"User\",\"schema\":{s}}}")),
        (
            "/check-sat",
            format!("{{\"schema\":{s},\"type\":\"User\",\"type\":7,\"schema\":null}}"),
        ),
        (
            "/check-sat",
            format!(
                "{{\"x\":[1,{{\"y\":null}}],\"schema\":{s},\"z\":\"\\u00e9\",\"type\":\"User\",\"w\":{{}}}}"
            ),
        ),
        (
            "/check-sat",
            format!("{{\"schema\":{s},\"type\":\"User\",\"x\":{}}}", deep(json::MAX_DEPTH - 1)),
        ),
        (&migrate, format!("{{\"schema\":{c},\"action\":\"plan\"}}")),
        (
            &migrate,
            format!("{{\"action\":\"plan\",\"schema\":{c},\"action\":\"begin\",\"schema\":7}}"),
        ),
        (
            &migrate,
            format!("{{\"x\":[1,{{\"y\":null}}],\"schema\":{c},\"action\":\"plan\",\"w\":{{}}}}"),
        ),
        (
            &migrate,
            format!("{{\"action\":\"plan\",\"schema\":{c},\"lang\":\"sdl\",\"force\":false}}"),
        ),
    ];
    for (target, body) in &same {
        let (status, answer) = client.request("POST", target, body.as_bytes()).unwrap();
        let want = if *target == "/check-sat" {
            &sat_answer
        } else {
            &plan_answer
        };
        assert_eq!(status, 200, "{target}: {body}");
        assert_eq!(&answer, want, "{target}: {body}");
    }

    // Refusals: status and message, the tree reading's.
    let trailing = format!("{sat} 1");
    let broken = format!("{{\"schema\":{s},\"type\":\"User\",\"x\":[1 2]}}");
    let broken_after_shape = "{\"schema\":7,\"x\":[1 2]}".to_owned();
    let too_deep = format!(
        "{{\"schema\":{s},\"type\":\"User\",\"x\":{}}}",
        deep(json::MAX_DEPTH)
    );
    let m_trailing = format!("{plan} x");
    let m_broken = "{\"action\":\"plan\",\"x\":{\"a\" 1}}".to_owned();
    let m_too_deep = format!("{{\"action\":7,\"x\":{}}}", deep(json::MAX_DEPTH));
    let refused: Vec<(&str, String, u16, String)> = vec![
        (
            "/check-sat",
            "{\"type\":\"User\"}".to_owned(),
            400,
            missing("schema"),
        ),
        (
            "/check-sat",
            format!("{{\"schema\":{s}}}"),
            400,
            missing("type"),
        ),
        (
            "/check-sat",
            format!("{{\"schema\":7,\"schema\":{s},\"type\":\"User\"}}"),
            400,
            missing("schema"),
        ),
        ("/check-sat", format!("[{sat}]"), 400, missing("schema")),
        (
            "/check-sat",
            "\"schema\"".to_owned(),
            400,
            missing("schema"),
        ),
        ("/check-sat", "null".to_owned(), 400, missing("schema")),
        ("/check-sat", "7".to_owned(), 400, missing("schema")),
        ("/check-sat", String::new(), 400, syntax("")),
        ("/check-sat", trailing.clone(), 400, syntax(&trailing)),
        ("/check-sat", broken.clone(), 400, syntax(&broken)),
        (
            "/check-sat",
            broken_after_shape.clone(),
            400,
            syntax(&broken_after_shape),
        ),
        ("/check-sat", too_deep.clone(), 400, syntax(&too_deep)),
        (
            "/check-sat",
            format!("{{\"schema\":{s},\"type\":\"User\",\"max_size\":0,\"max_size\":3}}"),
            400,
            "\"max_size\" must be a positive integer".to_owned(),
        ),
        (
            "/check-sat",
            format!("{{\"schema\":{s},\"type\":\"User\",\"max_size\":\"3\"}}"),
            400,
            "\"max_size\" must be a positive integer".to_owned(),
        ),
        (
            &migrate,
            "{\"schema\":\"x\"}".to_owned(),
            400,
            missing("action"),
        ),
        (
            &migrate,
            "{\"action\":7,\"action\":\"plan\"}".to_owned(),
            400,
            missing("action"),
        ),
        (
            &migrate,
            "{\"action\":\"warp\",\"action\":\"plan\"}".to_owned(),
            400,
            "unknown action \"warp\"".to_owned(),
        ),
        (
            &migrate,
            "{\"action\":\"plan\"}".to_owned(),
            400,
            missing("schema"),
        ),
        (
            &migrate,
            format!("{{\"action\":\"plan\",\"schema\":{c},\"lang\":\"cobol\",\"lang\":7}}"),
            400,
            "lang: unknown schema language `cobol` (expected sdl|pgschema)".to_owned(),
        ),
        (&migrate, format!("[{plan}]"), 400, missing("action")),
        (&migrate, "\"plan\"".to_owned(), 400, missing("action")),
        (&migrate, "null".to_owned(), 400, missing("action")),
        (&migrate, String::new(), 400, syntax("")),
        (&migrate, m_trailing.clone(), 400, syntax(&m_trailing)),
        (&migrate, m_broken.clone(), 400, syntax(&m_broken)),
        (&migrate, m_too_deep.clone(), 400, syntax(&m_too_deep)),
        (
            &migrate,
            "{\"action\":\"commit\",\"force\":true}".to_owned(),
            409,
            "no open migration window".to_owned(),
        ),
        (
            &migrate,
            "{\"force\":true,\"action\":\"abort\"}".to_owned(),
            409,
            "no open migration window".to_owned(),
        ),
        // The wrong-typed optional members, which the tree reading
        // ignored (checking the whole type, compiling the candidate as
        // SDL, reading `force` as false).
        (
            "/check-sat",
            format!("{{\"schema\":{s},\"type\":\"User\",\"field\":7}}"),
            400,
            "\"field\" must be a string".to_owned(),
        ),
        (
            "/check-sat",
            format!("{{\"schema\":{s},\"type\":\"User\",\"field\":null,\"field\":\"login\"}}"),
            400,
            "\"field\" must be a string".to_owned(),
        ),
        (
            &migrate,
            format!("{{\"action\":\"plan\",\"schema\":{c},\"lang\":7}}"),
            400,
            "\"lang\" must be a string".to_owned(),
        ),
        (
            &migrate,
            "{\"action\":\"commit\",\"force\":\"yes\"}".to_owned(),
            400,
            "\"force\" must be a boolean".to_owned(),
        ),
    ];
    let mut differ = Vec::new();
    for (target, body, status, message) in &refused {
        let (got, error) = client
            .request_json("POST", target, body.as_bytes())
            .unwrap();
        let got_message = error.get("error").and_then(Json::as_str).unwrap_or("");
        if (got, got_message) != (*status, message.as_str()) {
            let head: String = body.chars().take(80).collect();
            differ.push(format!(
                "{target} {head}: {got} {got_message:?}, want {status} {message:?}"
            ));
        }
    }
    assert!(differ.is_empty(), "{}", differ.join("\n"));
    daemon.stop();
}

/// A compaction tipped off by a request runs before that request's
/// response is written, so the request clock must cover it: with
/// `--compact-after-bytes 1` every logged request compacts, and the
/// request-duration sum can never fall below the compaction-duration
/// sum.
#[test]
fn compaction_time_counts_in_the_request_clock() {
    let dir = workload::Scratch::new("compaction-clock").unwrap();
    let config = ServerConfig::builder()
        .addr("127.0.0.1:0")
        .cores(1)
        .log_format(LogFormat::Off)
        .data_dir(dir.path())
        .compact_after_bytes(1)
        .build();
    let handle = Server::bind(config).expect("bind").serve().expect("serve");
    let daemon = Daemon {
        addr: handle.local_addr(),
        handle,
    };
    let mut client = Client::connect(daemon.addr).unwrap();
    let id = client.create_session("/sessions", &envelope(4)).unwrap();
    let user = user_ids(&sample_graph(4))[0];
    const DELTAS: u64 = 6;
    for i in 0..DELTAS {
        let delta = json::delta_to_json(&toggle_delta(user, i));
        client
            .expect(
                "delta",
                200,
                "POST",
                &format!("/sessions/{id}/deltas"),
                delta.as_bytes(),
            )
            .unwrap();
    }

    let text = daemon_metrics(&mut client);
    // The create and every delta appended a record, so each compacted.
    let compactions = metric(&text, "pgschemad_compaction_duration_micros_count");
    assert_eq!(compactions, DELTAS + 1, "{text}");
    assert_eq!(
        metric(&text, "pgschemad_store_snapshots_total"),
        compactions
    );
    let requests = metric(&text, "pgschemad_request_duration_micros_sum");
    let compacting = metric(&text, "pgschemad_compaction_duration_micros_sum");
    assert!(
        requests >= compacting,
        "requests took {requests} µs in all, but their compactions alone took {compacting} µs"
    );
    daemon.stop();
}
