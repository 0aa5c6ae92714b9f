//! The one tier-1 suite that crosses every layer: parse → validate →
//! serve over TCP → WAL → recover, on one small fixture, plus the bodies
//! that used to hold or kill a reactor core: two hostile nestings, a
//! pigeonhole `/check-sat`, a large `?engine=naive` and a report of
//! millions of key violations. Everything
//! deeper lives in the crates' own suites (`cargo test --workspace`);
//! this is the tripwire `cargo test -q` at the root cannot miss.

use std::time::{Duration, Instant};

use pg_schema::{validate, PgSchema, ValidationOptions};
use pg_server::workload::{
    canonical_report, envelope, oracle, sample_graph, toggle_delta, user_ids, Client, SCHEMA_SDL,
    VOLATILE,
};
use pg_server::{LogFormat, Server, ServerConfig, ServerHandle};
use pgraph::{json, PropertyGraph, Value};

fn serve(data_dir: &std::path::Path) -> (ServerHandle, Client) {
    let config = ServerConfig::builder()
        .addr("127.0.0.1:0")
        .cores(1)
        .log_format(LogFormat::Off)
        .data_dir(data_dir)
        .fsync(pg_store::FsyncPolicy::Never)
        .build();
    let handle = Server::bind(config).expect("bind").serve().expect("serve");
    let client = Client::connect(handle.local_addr()).expect("connect");
    (handle, client)
}

#[test]
fn parse_validate_serve_log_and_recover() {
    let dir = std::env::temp_dir().join(format!("pg-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Library: the fixture parses and conforms.
    let schema = PgSchema::parse(SCHEMA_SDL).expect("schema parses");
    let mut graph = sample_graph(3);
    assert!(validate(&graph, &schema, &ValidationOptions::default()).conforms());

    // Server: create, break with one delta, read the report back.
    let (handle, mut client) = serve(&dir);
    let id = client
        .create_session("/sessions", &envelope(SCHEMA_SDL, &graph))
        .unwrap();
    let breaking = toggle_delta(user_ids(&graph)[0], 0);
    let body = json::delta_to_json(&breaking);
    let deltas = format!("/sessions/{id}/deltas");
    client
        .expect("delta", 200, "POST", &deltas, body.as_bytes())
        .unwrap();
    let state = |client: &mut Client| {
        let report = format!("/sessions/{id}/report");
        let report = client.expect("report", 200, "GET", &report, b"").unwrap();
        let graph = format!("/sessions/{id}/graph");
        let graph = client.expect("graph", 200, "GET", &graph, b"").unwrap();
        (canonical_report(&report, &["metrics"]).unwrap(), graph)
    };
    let served = state(&mut client);

    // The served state is the four-engine oracle's verdict on the
    // mutated graph.
    breaking.apply_to(&mut graph).unwrap();
    assert_eq!(served.1, json::to_json(&graph).into_bytes());
    let expected = oracle(&graph, &schema).unwrap();
    assert!(expected.contains("\"conforms\": false"), "{expected}");
    let served_report = canonical_report(served.0.as_bytes(), &["engine"]);
    assert_eq!(served_report.unwrap(), expected);

    // Hostile nesting is a located 400, not a dead core.
    let brackets = "[".repeat(400_000);
    let deep_schema = format!(
        "type A {{ x: {}Int{} }}",
        "[".repeat(300_000),
        "]".repeat(300_000)
    );
    for body in [
        brackets.into_bytes(),
        envelope(&deep_schema, &sample_graph(1)),
    ] {
        let refused = client.expect("hostile body", 400, "POST", "/validate", &body);
        let refused = String::from_utf8(refused.unwrap()).unwrap();
        assert!(refused.contains("nesting deeper than"), "{refused}");
    }
    client
        .expect("healthz", 200, "GET", "/healthz", b"")
        .unwrap();

    // WAL → recover: a second daemon on the same directory serves the
    // same bytes.
    drop(client);
    handle.shutdown();
    handle.join().expect("clean shutdown");
    let (handle, mut client) = serve(&dir);
    assert_eq!(state(&mut client), served);
    drop(client);
    handle.shutdown();
    handle.join().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `/check-sat` body that used to hold a one-core daemon for minutes:
/// its finite-model CNF is a pigeonhole formula at every size. The
/// reasoner's step budget ends the search at the largest size it refuted,
/// and the core serves `/healthz` right after.
#[test]
fn check_sat_is_bounded_on_one_core() {
    use std::io::{Read, Write};
    let dir = std::env::temp_dir().join(format!("pg-serve-smoke-sat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (handle, mut client) = serve(&dir);
    let body = r#"{"schema":"interface I { next: N @required @uniqueForTarget }\ntype Root implements I { next: N @required @uniqueForTarget }\ntype N implements I { next: N @required @uniqueForTarget }","type":"Root","max_size":40}"#;
    // An unoptimised build spends tens of seconds of its budget, past the
    // workload client's read timeout, so this request has its own socket.
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(300)))
        .unwrap();
    let head = format!(
        "POST /check-sat HTTP/1.1\r\nhost: smoke\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut answer = String::new();
    stream.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 200"), "{answer}");
    let (_, body) = answer.split_once("\r\n\r\n").unwrap();
    let doc = json::Json::parse(body).unwrap();
    let result = doc.get("result").and_then(json::Json::as_str);
    assert_eq!(result, Some("no_finite_model"), "{body}");
    let bound = doc.get("bound").and_then(json::Json::as_i64).unwrap();
    assert!((8..40).contains(&bound), "{body}");
    client
        .expect("healthz", 200, "GET", "/healthz", b"")
        .unwrap();
    drop(client);
    handle.shutdown();
    handle.join().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The naive engine is the O(n²–n³) oracle, not a route. A ≈ 4 MB body
/// asking for it used to hold a one-core daemon for seconds; now it is
/// refused before it is decoded, the core answers `/healthz` right
/// after, and the same body on the default engine is served the
/// four-engine oracle's report.
#[test]
fn naive_engine_is_refused_on_one_core() {
    let dir = std::env::temp_dir().join(format!("pg-serve-smoke-naive-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (handle, mut client) = serve(&dir);
    let graph = sample_graph(8_000);
    let body = envelope(SCHEMA_SDL, &graph);
    assert!(
        (3_500_000..4_500_000).contains(&body.len()),
        "{}",
        body.len()
    );

    let started = Instant::now();
    let refused = client.expect("naive", 400, "POST", "/validate?engine=naive", &body);
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "{:?}",
        started.elapsed()
    );
    let refused = String::from_utf8(refused.unwrap()).unwrap();
    assert!(
        refused.contains("(expected indexed|parallel|incremental)"),
        "{refused}"
    );
    client
        .expect("healthz", 200, "GET", "/healthz", b"")
        .unwrap();

    let served = client.expect("default engine", 200, "POST", "/validate", &body);
    let served = canonical_report(&served.unwrap(), &VOLATILE).unwrap();
    drop(client);
    handle.shutdown();
    handle.join().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
    let schema = PgSchema::parse(SCHEMA_SDL).unwrap();
    assert_eq!(served, oracle(&graph, &schema).unwrap());
}

/// One keyed type whose 3 000 nodes all share a key has 4 498 500 DS7
/// violations: a ≈ 500 MB report that took a one-core daemon past
/// 1.3 GiB. `POST /validate` caps the report at 100 000 violations and
/// says it is truncated, and the core answers `/healthz` right after.
#[test]
fn validate_report_is_capped_on_one_core() {
    let dir = std::env::temp_dir().join(format!("pg-serve-smoke-cap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (handle, mut client) = serve(&dir);
    let mut graph = PropertyGraph::new();
    for _ in 0..3_000 {
        let user = graph.add_node("User");
        graph.set_node_property(user, "id", Value::Id("shared".into()));
    }
    let schema = r#"type User @key(fields: ["id"]) { id: ID! @required }"#;
    let body = envelope(schema, &graph);

    let report = client.expect("capped report", 200, "POST", "/validate", &body);
    let report = report.unwrap();
    assert!(report.len() < 16 << 20, "a {} byte report", report.len());
    let report = json::Json::parse(std::str::from_utf8(&report).unwrap()).unwrap();
    assert_eq!(
        report.get("truncated").and_then(json::Json::as_bool),
        Some(true)
    );
    let violations = report.get("violations").and_then(json::Json::as_array);
    assert_eq!(violations.map(<[_]>::len), Some(100_000));
    client
        .expect("healthz", 200, "GET", "/healthz", b"")
        .unwrap();
    drop(client);
    handle.shutdown();
    handle.join().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
