//! The shared serve-path harness: the paper's Examples 3.1–3.5 schema
//! and a small conforming instance, the blocking [`Client`] that drives
//! a daemon with them, the kill-on-drop [`Daemon`] process, and the
//! in-process four-engine [`oracle`] a served report is checked against.
//! The `pgload` checks, the crash-injection suite and the integration
//! tests all speak to the daemon through these, so they send the same
//! traffic, spawn, wait for and kill a daemon the same way, and judge
//! what it serves by the same oracle.

use std::ffi::OsStr;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use pg_schema::{validate, Engine, PgSchema, ValidationOptions};
use pgraph::json::{self, Json};
use pgraph::{GraphBuilder, GraphDelta, NodeId, PropertyGraph, Value};

use crate::http::{read_response, ResponseParts};

/// One blocking keep-alive client connection to a daemon.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects with `TCP_NODELAY` and a ten-second read timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request and reads its response: status, headers
    /// (lower-cased names) and body.
    pub fn request_full(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> io::Result<ResponseParts> {
        let mut out = format!(
            "{method} {target} HTTP/1.1\r\nhost: pgload\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        out.extend_from_slice(body);
        self.stream.write_all(&out)?;
        read_response(&mut self.stream, &mut self.buf)
    }

    /// [`request_full`](Self::request_full) without the headers.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> io::Result<(u16, Vec<u8>)> {
        let (status, _headers, body) = self.request_full(method, target, body)?;
        Ok((status, body))
    }

    /// [`request`](Self::request) for a JSON response body.
    pub fn request_json(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> io::Result<(u16, Json)> {
        let (status, body) = self.request(method, target, body)?;
        let doc = Json::parse(&String::from_utf8_lossy(&body))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad JSON: {e}")))?;
        Ok((status, doc))
    }

    /// A request that must answer `status`; returns the body. `what`
    /// names the step in the failure message.
    pub fn expect(
        &mut self,
        what: &str,
        status: u16,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<Vec<u8>, String> {
        match self.request(method, target, body) {
            Ok((got, body)) if got == status => Ok(body),
            Ok((got, body)) => Err(format!(
                "{what}: expected {status}, got {got}: {}",
                String::from_utf8_lossy(&body)
            )),
            Err(e) => Err(format!("{what}: {e}")),
        }
    }

    /// [`expect`](Self::expect) for a JSON body.
    pub fn expect_json(
        &mut self,
        what: &str,
        status: u16,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<Json, String> {
        let body = self.expect(what, status, method, target, body)?;
        Json::parse(&String::from_utf8_lossy(&body)).map_err(|e| format!("{what}: bad JSON: {e}"))
    }

    /// `POST`s an envelope to `target` (`/sessions`, with or without a
    /// `?lang=`) and returns the id of the session it created.
    pub fn create_session(&mut self, target: &str, envelope: &[u8]) -> Result<u64, String> {
        let created = self.expect("create session", 201, "POST", target, envelope)?;
        session_id(&created).ok_or_else(|| "create session: no session id".to_owned())
    }

    /// One un-labelled gauge or counter sample from `GET /metrics`.
    pub fn metric(&mut self, name: &str) -> Result<u64, String> {
        let body = self.expect("metrics", 200, "GET", "/metrics", b"")?;
        String::from_utf8_lossy(&body)
            .lines()
            .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("metrics: no `{name}` sample"))
    }
}

/// A durable `pgschema serve` child process, SIGKILLed when dropped.
pub struct Daemon {
    child: Child,
}

impl Daemon {
    /// Spawns `bin serve` on `addr` over `data_dir` (two cores, `--fsync
    /// always`, logging off, optionally `--follow`ing a leader), waits
    /// until it answers `/healthz`, and returns it with that connection.
    ///
    /// `addr` must be unserved when this is called, and the child must
    /// still be running when `/healthz` answers: otherwise a process that
    /// outlived its kill (or any other listener) would answer in the new
    /// daemon's place, and a relaunch would silently test the old state.
    pub fn spawn(
        bin: impl AsRef<OsStr>,
        addr: &str,
        data_dir: &Path,
        follow: Option<&str>,
    ) -> Result<(Daemon, Client), String> {
        if TcpStream::connect(addr).is_ok() {
            return Err(format!("{addr} is already served by another process"));
        }
        let bin = bin.as_ref();
        let mut command = Command::new(bin);
        command
            .args(["serve", "--addr", addr, "--cores", "2"])
            .args(["--log-format", "off", "--fsync", "always", "--data-dir"])
            .arg(data_dir);
        if let Some(leader) = follow {
            command.args(["--follow", leader]);
        }
        let child = command
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.to_string_lossy()))?;
        let mut daemon = Daemon { child };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!(
                    "daemon on {addr} exited before it was ready: {status}"
                ));
            }
            if let Ok(mut client) = Client::connect(addr) {
                if let Ok((200, _)) = client.request("GET", "/healthz", b"") {
                    return Ok((daemon, client));
                }
            }
            if Instant::now() >= deadline {
                return Err(format!("daemon on {addr} not ready within 10s"));
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

impl Drop for Daemon {
    /// SIGKILL: no drain, no flush beyond what `--fsync always` already
    /// guaranteed per acknowledged append.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A fresh directory under the system temp dir, removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates (emptying it first if a previous run left it behind)
    /// `pgschema-<name>-<pid>`.
    pub fn new(name: &str) -> Result<Scratch, String> {
        let dir = std::env::temp_dir().join(format!("pgschema-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A free loopback address: binds port 0 and releases it, for a daemon
/// to bind a moment later.
pub fn free_addr() -> Result<String, String> {
    let listener = TcpListener::bind("127.0.0.1:0");
    let addr = listener.and_then(|l| l.local_addr());
    addr.map(|a| a.to_string())
        .map_err(|e| format!("cannot pick a port: {e}"))
}

/// The `session` member of a `201` body of `POST /sessions`.
pub fn session_id(created: &[u8]) -> Option<u64> {
    let doc = Json::parse(&String::from_utf8_lossy(created)).ok()?;
    doc.get("session")?.as_i64().map(|id| id as u64)
}

/// The `{"schema": …, "graph": …}` envelope of `POST /validate` and
/// `POST /sessions`.
pub fn envelope(schema: &str, graph: &PropertyGraph) -> Vec<u8> {
    let mut out = String::from("{\"schema\":\"");
    json::escape_into(&mut out, schema);
    out.push_str("\",\"graph\":");
    out.push_str(&json::to_json(graph));
    out.push('}');
    out.into_bytes()
}

/// The `POST /sessions/{id}/migrate` body.
pub fn migrate_body(action: &str, schema: Option<&str>, force: bool) -> Vec<u8> {
    let mut out = format!("{{\"action\":\"{action}\"");
    if let Some(sdl) = schema {
        out.push_str(",\"schema\":\"");
        json::escape_into(&mut out, sdl);
        out.push('"');
    }
    if force {
        out.push_str(",\"force\":true");
    }
    out.push('}');
    out.into_bytes()
}

/// A report body without the members in `volatile` — `metrics` (wall
/// times differ run to run), and `engine` when a session report is
/// compared with one-shot runs of the other engines — so that reports
/// over the same state compare byte for byte.
pub fn canonical_report(body: &[u8], volatile: &[&str]) -> Result<String, String> {
    let doc = Json::parse(&String::from_utf8_lossy(body)).map_err(|e| format!("bad JSON: {e}"))?;
    Ok(match doc {
        Json::Object(members) => Json::Object(
            members
                .into_iter()
                .filter(|(name, _)| !volatile.contains(&name.as_str()))
                .collect(),
        ),
        other => other,
    }
    .to_string())
}

/// The members [`oracle`] leaves out of a report: `metrics` (wall times
/// differ run to run) and `engine` (the engines differ by design).
pub const VOLATILE: [&str; 2] = ["metrics", "engine"];

/// The from-scratch oracle: validates `graph` against `schema` in
/// process on all four engines — [`Engine::Naive`], the paper's rules
/// transcribed as nested loops, included — and returns their one
/// canonical report (every member but [`VOLATILE`]). Errs, naming the
/// engine, unless all four reports are byte-identical.
///
/// The naive engine is O(n²–n³) by design, so it runs here, in the
/// caller's process, and never behind a served route.
pub fn oracle(graph: &PropertyGraph, schema: &PgSchema) -> Result<String, String> {
    let run = |engine| {
        let report = validate(graph, schema, &ValidationOptions::with_engine(engine));
        canonical_report(report.to_json().as_bytes(), &VOLATILE)
    };
    let naive = run(Engine::Naive)?;
    for engine in [Engine::Indexed, Engine::Parallel, Engine::Incremental] {
        let (name, got) = (engine.name(), run(engine)?);
        if got != naive {
            return Err(format!(
                "{name} disagrees with naive\n  naive: {naive}\n  {name}: {got}"
            ));
        }
    }
    Ok(naive)
}

/// The SDL of the paper's worked example (Example 3.1 with the edge
/// properties of 3.12 and the key of 3.4).
pub const SCHEMA_SDL: &str = r#"
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
}
scalar Time
"#;

/// A conforming instance of [`SCHEMA_SDL`]: `users` user nodes, each
/// with one session pointing at it.
pub fn sample_graph(users: usize) -> PropertyGraph {
    let mut b = GraphBuilder::new();
    for i in 0..users {
        let u = format!("u{i}");
        let s = format!("s{i}");
        b = b
            .node(&u, "User")
            .prop(&u, "id", Value::Id(format!("u-{i}")))
            .prop(&u, "login", format!("user{i}"))
            .node(&s, "UserSession")
            .prop(&s, "id", Value::Id(format!("s-{i}")))
            .prop(&s, "startTime", "2019-06-30T10:00:00Z")
            .edge(&s, &u, "user")
            .edge_prop("certainty", 0.97);
    }
    b.build().expect("sample graph is well-formed")
}

/// The ids of the `User` nodes of [`sample_graph`], in creation order.
/// Because graph JSON round-trips preserve dense ids, these ids are
/// valid against a server session created from the same document.
pub fn user_ids(g: &PropertyGraph) -> Vec<NodeId> {
    g.nodes()
        .filter(|n| n.label() == "User")
        .map(|n| n.id)
        .collect()
}

/// The `i`-th delta of the canonical toggle sequence for one user node:
/// even `i` breaks `login`'s type (WS1 fires), odd `i` repairs it. Every
/// two deltas return the session to a conforming state, so a run of any
/// even length ends with a report equal to the seed report.
pub fn toggle_delta(user: NodeId, i: u64) -> GraphDelta {
    if i.is_multiple_of(2) {
        GraphDelta::new().set_node_property(user, "login", Value::Int(i as i64))
    } else {
        GraphDelta::new().set_node_property(user, "login", Value::String(format!("user-{i}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_schema::strongly_satisfies;

    #[test]
    fn sample_conforms_and_toggles_flip_conformance() {
        let schema = PgSchema::parse(SCHEMA_SDL).unwrap();
        let mut g = sample_graph(3);
        assert!(strongly_satisfies(&g, &schema));
        let users = user_ids(&g);
        assert_eq!(users.len(), 3);
        toggle_delta(users[0], 0).apply_to(&mut g).unwrap();
        assert!(!strongly_satisfies(&g, &schema));
        let broken = oracle(&g, &schema).unwrap();
        assert!(broken.contains("\"WS1\": 1"), "{broken}");
        assert!(!broken.contains("\"engine\""), "{broken}");
        toggle_delta(users[0], 1).apply_to(&mut g).unwrap();
        assert!(strongly_satisfies(&g, &schema));
    }
}
