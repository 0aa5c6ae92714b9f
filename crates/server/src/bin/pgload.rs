//! `pgload` — the load generator and smoke tester for `pg-schema serve`.
//!
//! Drives N concurrent keep-alive connections of one-shot `/validate`
//! and/or incremental-session delta traffic against a running daemon
//! and reports throughput plus p50/p95/p99 client-observed latency —
//! the measurement behind the E3s/E3e tables in EXPERIMENTS.md.
//!
//! Closed-loop by default (each connection fires its next request when
//! the previous response lands — measures capacity). `--rate R` switches
//! to an open loop with a fixed arrival schedule spread across the
//! connections; latency is then measured from each request's *scheduled*
//! arrival time, so server stalls surface as tail latency instead of
//! silently thinning the sample (the coordinated-omission trap).
//! `--hold N` parks N idle keep-alive connections to exercise
//! connection-scale rather than request throughput.
//!
//! ```text
//! pgload --addr 127.0.0.1:7878 --mode oneshot --connections 8 --duration 10
//! pgload --addr 127.0.0.1:7878 --mode session --connections 8 --duration 10
//! pgload --addr 127.0.0.1:7878 --mode mixed   --connections 8 --duration 10
//! pgload --addr 127.0.0.1:7878 --mode oneshot --rate 5000 --duration 10
//! pgload --addr 127.0.0.1:7878 --hold 5000 --duration 10
//! pgload --cluster 127.0.0.1:7878,127.0.0.1:7879 --mode session --duration 10
//! pgload --addr 127.0.0.1:7878 --smoke   # CI: one pass over the surface
//! pgload --restart-check path/to/pgschema   # CI: durability across SIGKILL
//! pgload --failover-check path/to/pgschema  # CI: promote a follower, lose nothing
//! pgload --migrate-check path/to/pgschema   # CI: dual-schema window survives SIGKILL
//! ```
//!
//! `--cluster a,b,c` shards session traffic across independent leaders
//! with the same consistent-hash ring every other client computes
//! ([`pg_server::ring::Ring`]); `--failover-check` spawns a leader and
//! two followers, kills the leader under acknowledged traffic, promotes
//! a follower and requires zero acked-write loss.

use std::net::TcpListener;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pg_server::ring::Ring;
use pg_server::workload::{
    self, canonical_report, migrate_body, sample_graph, toggle_delta, user_ids, Client, SCHEMA_SDL,
};
use pgraph::json::{self, Json};

/// Set once from `--lang pgschema`: the workload then posts the
/// PG-Schema rendering of the worked-example schema, and schema-carrying
/// creation requests add `lang=pgschema`. Deltas, reports and graphs are
/// language-neutral, so everything downstream is unchanged — which is
/// the point: E5f measures the per-language frontend cost in isolation.
static USE_PGSCHEMA: AtomicBool = AtomicBool::new(false);

fn use_pgschema() -> bool {
    USE_PGSCHEMA.load(Ordering::Relaxed)
}

/// The workload schema in the selected language.
fn workload_schema() -> String {
    if use_pgschema() {
        let doc = gql_sdl::parse(SCHEMA_SDL).expect("workload schema parses");
        pg_pgschema::print_pgschema(&doc, "Workload", pg_pgschema::TypeMode::Strict)
            .expect("workload schema is inside the PG-Schema fragment")
    } else {
        SCHEMA_SDL.to_owned()
    }
}

/// The session-creation target in the selected language.
fn sessions_target() -> &'static str {
    if use_pgschema() {
        "/sessions?lang=pgschema"
    } else {
        "/sessions"
    }
}

/// The one-shot validation target in the selected language.
fn validate_target(engine: &str) -> String {
    let lang = if use_pgschema() { "&lang=pgschema" } else { "" };
    format!("/validate?engine={engine}{lang}")
}

/// The `{"schema": …, "graph": …}` envelope for the worked-example
/// workload.
fn envelope(users: usize) -> Vec<u8> {
    workload::envelope(&workload_schema(), &sample_graph(users))
}

/// The `i`-th toggle of the first user of `sample_graph(users)`, as a
/// delta body.
fn toggle_body(users: usize, i: u64) -> String {
    let user = user_ids(&sample_graph(users))[0];
    json::delta_to_json(&toggle_delta(user, i))
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Oneshot,
    Session,
    Mixed,
}

struct WorkerStats {
    latencies_micros: Vec<u64>,
    errors: u64,
    shed: u64,
}

/// One worker's slice of the open-loop arrival schedule: its k-th
/// request is *due* at `start + offset_s + k * interval_s`, regardless
/// of how the server is doing. Latency is measured from that due time —
/// a stalled server accumulates schedule debt that shows up as tail
/// latency, which is what makes the recording coordinated-omission safe.
#[derive(Clone, Copy)]
struct Pace {
    start: Instant,
    interval_s: f64,
    offset_s: f64,
}

/// One worker driving a single connection until `deadline`.
fn run_worker(
    addr: &str,
    oneshot: bool,
    users: usize,
    engine: &str,
    deadline: Instant,
    stop: &AtomicBool,
    pace: Option<Pace>,
) -> WorkerStats {
    let mut stats = WorkerStats {
        latencies_micros: Vec::with_capacity(1 << 16),
        errors: 0,
        shed: 0,
    };
    let body = envelope(users);
    let graph = sample_graph(users);
    let user = user_ids(&graph)[0];
    let target = validate_target(engine);

    // The arrival index persists across reconnects so the schedule is
    // never silently thinned by a dropped connection.
    let mut k = 0u64;
    'reconnect: loop {
        if stop.load(Ordering::Relaxed) || Instant::now() >= deadline {
            return stats;
        }
        let mut client = match Client::connect(addr) {
            Ok(client) => client,
            Err(_) => {
                stats.errors += 1;
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };

        // Session mode: create this connection's own session first.
        let session_id = if oneshot {
            None
        } else {
            match client.request("POST", sessions_target(), &body) {
                Ok((201, response)) => match workload::session_id(&response) {
                    Some(id) => Some(id),
                    None => {
                        stats.errors += 1;
                        continue 'reconnect;
                    }
                },
                Ok((503, _)) => {
                    stats.shed += 1;
                    std::thread::sleep(Duration::from_millis(20));
                    continue 'reconnect;
                }
                _ => {
                    stats.errors += 1;
                    continue 'reconnect;
                }
            }
        };
        let delta_target = session_id.map(|id| format!("/sessions/{id}/deltas"));
        let report_target = session_id.map(|id| format!("/sessions/{id}/report"));

        let mut i = 0u64;
        loop {
            // Open loop: wait for the k-th arrival to come due. If the
            // previous response came back late the due time is already in
            // the past and the request fires immediately, carrying the
            // backlog in its recorded latency.
            let started = match pace {
                Some(p) => {
                    let due =
                        p.start + Duration::from_secs_f64(p.offset_s + k as f64 * p.interval_s);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    due
                }
                None => Instant::now(),
            };
            if stop.load(Ordering::Relaxed) || Instant::now() >= deadline {
                if let Some(id) = session_id {
                    let _ = client.request("DELETE", &format!("/sessions/{id}"), b"");
                }
                return stats;
            }
            let result = if oneshot {
                client.request("POST", &target, &body)
            } else if i % 16 == 15 {
                client.request("GET", report_target.as_deref().unwrap(), b"")
            } else {
                let delta = json::delta_to_json(&toggle_delta(user, i));
                client.request("POST", delta_target.as_deref().unwrap(), delta.as_bytes())
            };
            let micros = started.elapsed().as_micros() as u64;
            i += 1;
            k += 1;
            match result {
                Ok((200, _)) => stats.latencies_micros.push(micros),
                Ok((503, _)) => {
                    stats.shed += 1;
                    std::thread::sleep(Duration::from_millis(20));
                    continue 'reconnect;
                }
                Ok((_, _)) => stats.errors += 1,
                Err(_) => {
                    stats.errors += 1;
                    continue 'reconnect;
                }
            }
        }
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[allow(clippy::too_many_arguments)]
fn run_load(
    addr: &str,
    cluster: Option<&Ring>,
    mode: Mode,
    connections: usize,
    seconds: u64,
    users: usize,
    engine: &str,
    rate: Option<f64>,
) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let stop = AtomicBool::new(false);
    let stop_ref = &stop;
    // With `--cluster`, each worker's session key picks its node off the
    // consistent-hash ring — the same placement every client computes
    // from the same node list, no coordinator involved.
    let targets: Vec<String> = (0..connections)
        .map(|c| match cluster {
            Some(ring) => ring
                .node_for_key(format!("pgload-{c}").as_bytes())
                .to_owned(),
            None => addr.to_owned(),
        })
        .collect();
    let stats: Vec<WorkerStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let oneshot = match mode {
                    Mode::Oneshot => true,
                    Mode::Session => false,
                    Mode::Mixed => c % 2 == 0,
                };
                // Open loop: the aggregate rate R is interleaved across
                // the C connections — worker c owns arrivals c, c+C,
                // c+2C, … of the global schedule.
                let pace = rate.map(|r| Pace {
                    start,
                    interval_s: connections as f64 / r,
                    offset_s: c as f64 / r,
                });
                let target = targets[c].as_str();
                scope.spawn(move || {
                    run_worker(target, oneshot, users, engine, deadline, stop_ref, pace)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();

    let mut latencies: Vec<u64> = Vec::new();
    let mut errors = 0u64;
    let mut shed = 0u64;
    for s in &stats {
        latencies.extend_from_slice(&s.latencies_micros);
        errors += s.errors;
        shed += s.shed;
    }
    latencies.sort_unstable();
    let requests = latencies.len() as u64;
    let mode_name = match mode {
        Mode::Oneshot => "oneshot",
        Mode::Session => "session",
        Mode::Mixed => "mixed",
    };
    let mut target = match rate {
        Some(r) => format!(" target_rps={r:.0}"),
        None => String::new(),
    };
    if let Some(ring) = cluster {
        target.push_str(&format!(" cluster_nodes={}", ring.nodes().len()));
    }
    println!(
        "mode={mode_name} connections={connections} duration_s={elapsed:.1}{target} \
         requests={requests} errors={errors} shed={shed} \
         throughput_rps={:.0} p50_us={} p95_us={} p99_us={}",
        requests as f64 / elapsed,
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99),
    );
}

/// Connection-scale check (`--hold N`): opens N keep-alive connections,
/// proves each is live with one `/healthz`, parks them all for the
/// duration, then re-verifies a sample and the server's own
/// `pgschemad_connections_open` gauge before closing them. Exercises the
/// reactor's idle-connection capacity, which a closed-loop run never
/// does.
fn run_hold(addr: &str, count: usize, seconds: u64) -> Result<(), String> {
    let started = Instant::now();
    let mut clients = Vec::with_capacity(count);
    for n in 0..count {
        let mut client =
            Client::connect(addr).map_err(|e| format!("connect #{n} of {count}: {e}"))?;
        client.expect(
            &format!("connection #{n}: healthz"),
            200,
            "GET",
            "/healthz",
            b"",
        )?;
        clients.push(client);
    }
    let ramp_s = started.elapsed().as_secs_f64();
    println!("hold: {count} connections open after {ramp_s:.1}s, holding {seconds}s");
    std::thread::sleep(Duration::from_secs(seconds));

    // Every sampled connection must still be alive after idling.
    for n in [0, count / 2, count.saturating_sub(1)] {
        if let Some(client) = clients.get_mut(n) {
            client.expect(
                &format!("held connection #{n}"),
                200,
                "GET",
                "/healthz",
                b"",
            )?;
        }
    }
    // The server must agree it is holding them all (+1 for this probe).
    let mut probe = Client::connect(addr).map_err(|e| format!("metrics probe: {e}"))?;
    let open = probe.metric("pgschemad_connections_open")? as usize;
    if open < count {
        return Err(format!(
            "server reports {open} open connections, expected at least {count}"
        ));
    }
    println!("hold: ok ({count} connections held, server gauge {open})");
    Ok(())
}

/// Whether a report document (or the `report` member of a delta or
/// commit answer) says the graph conforms.
fn conforms(report: &Json) -> Option<bool> {
    match report.get("report").unwrap_or(report).get("conforms") {
        Some(Json::Bool(conforms)) => Some(*conforms),
        _ => None,
    }
}

/// One deterministic pass over the HTTP surface; any unexpected response
/// is a process-exit failure. CI runs this between daemon start and
/// SIGTERM.
fn run_smoke(addr: &str) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;

    if client.expect("healthz", 200, "GET", "/healthz", b"")? != b"ok\n" {
        return Err("healthz: unexpected body".into());
    }

    // Stateless validation on every engine agrees the sample conforms.
    let envelope = envelope(4);
    for engine in ["naive", "indexed", "parallel", "incremental"] {
        let what = format!("validate({engine})");
        let report = client.expect_json(&what, 200, "POST", &validate_target(engine), &envelope)?;
        if conforms(&report) != Some(true) {
            return Err(format!("{what}: sample should conform"));
        }
    }

    // Session round trip: create, break, observe, repair, verify.
    let id = client.create_session(sessions_target(), &envelope)?;
    let deltas = format!("/sessions/{id}/deltas");
    let patched = client.expect_json(
        "breaking delta",
        200,
        "POST",
        &deltas,
        toggle_body(4, 0).as_bytes(),
    )?;
    if conforms(&patched) != Some(false) {
        return Err("breaking delta: report should not conform".into());
    }
    client.expect(
        "repair delta",
        200,
        "POST",
        &deltas,
        toggle_body(4, 1).as_bytes(),
    )?;
    let report =
        client.expect_json("report", 200, "GET", &format!("/sessions/{id}/report"), b"")?;
    if conforms(&report) != Some(true) {
        return Err("report: repaired session should conform".into());
    }
    if report.get("rule_counts").is_none() {
        return Err("report: missing per-rule counts".into());
    }

    let body = client.expect("metrics", 200, "GET", "/metrics", b"")?;
    let text = String::from_utf8_lossy(&body);
    let has = |sample: &str| text.contains(sample);
    if !has("pgschemad_validations_total") {
        return Err("metrics: missing pgschemad_validations_total".into());
    }
    if !has("pgschemad_sessions_live 1") {
        return Err("metrics: expected one live session".into());
    }
    if !has("pgschemad_rule_violations_total{rule=\"WS1\"}")
        || !has("pgschemad_rule_nanos_total{rule=\"DS7\"}")
    {
        return Err("metrics: missing per-rule counter families".into());
    }
    if !has("pgschemad_wakeups_total{core=\"0\"}")
        || !has("pgschemad_connections_open")
        || !has("pgschemad_core_connections{core=\"0\"}")
    {
        return Err("metrics: missing reactor counter families".into());
    }

    client.expect(
        "delete session",
        200,
        "DELETE",
        &format!("/sessions/{id}"),
        b"",
    )?;
    println!("smoke: ok");
    Ok(())
}

/// A `pgschema serve` child process, SIGKILLed when dropped.
struct Daemon {
    child: Child,
}

impl Daemon {
    /// Spawns the daemon on `addr` over `data_dir` (two cores, `--fsync
    /// always`, optionally `--follow`ing a leader) and waits until it
    /// answers `/healthz`.
    fn spawn(
        server_bin: &str,
        addr: &str,
        data_dir: &Path,
        follow: Option<&str>,
    ) -> Result<(Daemon, Client), String> {
        let mut command = Command::new(server_bin);
        command
            .args([
                "serve",
                "--addr",
                addr,
                "--cores",
                "2",
                "--log-format",
                "off",
            ])
            .args(["--fsync", "always", "--data-dir"])
            .arg(data_dir);
        if let Some(leader) = follow {
            command.args(["--follow", leader]);
        }
        let child = command
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {server_bin}: {e}"))?;
        let daemon = Daemon { child };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(mut client) = Client::connect(addr) {
                if let Ok((200, _)) = client.request("GET", "/healthz", b"") {
                    return Ok((daemon, client));
                }
            }
            if Instant::now() >= deadline {
                return Err(format!("daemon on {addr} not ready within 10s"));
            }
            std::thread::sleep(Duration::from_millis(50));
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

/// A scratch directory for one check, removed when dropped.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(check: &str) -> Result<Scratch, String> {
        let dir = std::env::temp_dir().join(format!("pgload-{check}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Reserves a loopback port by binding to 0 and releasing it; the daemon
/// binds it back a moment later.
fn pick_addr() -> Result<String, String> {
    let listener = TcpListener::bind("127.0.0.1:0");
    let addr = listener.and_then(|l| l.local_addr());
    addr.map(|a| a.to_string())
        .map_err(|e| format!("cannot pick a port: {e}"))
}

/// A session's report (volatile timing metrics stripped) and graph
/// bytes, as `who` serves them.
fn served_state(client: &mut Client, who: &str, id: u64) -> Result<(String, Vec<u8>), String> {
    let report = client.expect(
        &format!("{who} report"),
        200,
        "GET",
        &format!("/sessions/{id}/report"),
        b"",
    )?;
    let graph = client.expect(
        &format!("{who} graph"),
        200,
        "GET",
        &format!("/sessions/{id}/graph"),
        b"",
    )?;
    Ok((canonical_report(&report, &["metrics"])?, graph))
}

/// Requires `got` to be the state `want`, saying which half differs.
fn require_same(
    what: &str,
    id: u64,
    got: &(String, Vec<u8>),
    want: &(String, Vec<u8>),
) -> Result<(), String> {
    if got.0 != want.0 {
        return Err(format!("session {id}: report {what}"));
    }
    if got.1 != want.1 {
        return Err(format!("session {id}: graph {what}"));
    }
    Ok(())
}

/// Sessions of 2, 4 and 6 users with distinct histories: the first left
/// broken, the second broken then repaired, the third untouched.
fn write_histories(client: &mut Client, ids: &[(u64, usize)]) -> Result<(), String> {
    for (&(id, users), deltas) in ids.iter().zip([1u64, 2, 0]) {
        for d in 0..deltas {
            client.expect(
                "delta",
                200,
                "POST",
                &format!("/sessions/{id}/deltas"),
                toggle_body(users, d).as_bytes(),
            )?;
        }
    }
    Ok(())
}

fn create_sessions(client: &mut Client) -> Result<Vec<(u64, usize)>, String> {
    [2usize, 4, 6]
        .into_iter()
        .map(|users| {
            Ok((
                client.create_session(sessions_target(), &envelope(users))?,
                users,
            ))
        })
        .collect()
}

/// The restart check (`--restart-check <pgschema-binary>`): load durable
/// sessions into a freshly spawned daemon, SIGKILL it, relaunch it on
/// the same `--data-dir`, and require every session's report and graph
/// to come back byte-for-byte identical (reports compared with their
/// volatile timing metrics stripped). Also checks that a deleted session
/// stays deleted and that new sequence numbers keep flowing after
/// recovery.
fn run_restart_check(server_bin: &str) -> Result<(), String> {
    let scratch = Scratch::new("restart")?;
    let addr = pick_addr()?;
    let (daemon, mut client) = Daemon::spawn(server_bin, &addr, &scratch.0, None)?;

    // Three sessions with different histories, plus one conflicting
    // delta that returns 409 — its deterministic partial effects must
    // survive the restart too.
    let ids = create_sessions(&mut client)?;
    write_histories(&mut client, &ids)?;
    let conflict = br#"{"ops":[{"op":"remove-node","node":99999}]}"#;
    let first = format!("/sessions/{}/deltas", ids[0].0);
    client.expect("conflicting delta", 409, "POST", &first, conflict)?;

    // A deleted session must stay deleted across the restart.
    let doomed = client.create_session(sessions_target(), &envelope(3))?;
    client.expect(
        "delete doomed",
        200,
        "DELETE",
        &format!("/sessions/{doomed}"),
        b"",
    )?;

    let mut before = Vec::new();
    for &(id, _) in &ids {
        before.push((id, served_state(&mut client, "pre-kill", id)?));
    }

    drop(daemon);
    let (_daemon, mut client) = Daemon::spawn(server_bin, &addr, &scratch.0, None)?;

    for (id, state_before) in &before {
        let state = served_state(&mut client, "post-restart", *id)?;
        require_same("changed across restart", *id, &state, state_before)?;
    }
    client
        .expect(
            "doomed after restart",
            404,
            "GET",
            &format!("/sessions/{doomed}/report"),
            b"",
        )
        .map_err(|e| format!("doomed session should stay deleted: {e}"))?;
    // Recovery must keep handing out fresh ids.
    let new_id = client.create_session(sessions_target(), &envelope(2))?;
    if new_id <= doomed {
        return Err(format!(
            "session ids must not be reused: {new_id} after {doomed}"
        ));
    }
    println!("restart-check: ok");
    Ok(())
}

/// Blocks until `follower` has applied the leader's newest record. A
/// follower's lag gauges freeze between polls, so "lag 0" alone can be a
/// stale pre-write reading; the authoritative bar is the leader's own
/// end sequence, taken from its tail endpoint (`x-wal-end-seq` is the
/// leader's `next_seq`, one past its newest record).
fn wait_caught_up(leader: &mut Client, follower: &mut Client, name: &str) -> Result<(), String> {
    let (status, headers, _) = leader
        .request_full("GET", "/wal/tail?from=1", b"")
        .map_err(|e| format!("leader tail: {e}"))?;
    if status != 200 {
        return Err(format!("leader tail: status {status}"));
    }
    let leader_last = headers
        .iter()
        .find(|(k, _)| k == "x-wal-end-seq")
        .and_then(|(_, v)| v.parse::<u64>().ok())
        .ok_or("leader tail: no x-wal-end-seq header")?
        .saturating_sub(1);
    let deadline = Instant::now() + Duration::from_secs(10);
    let applied = "pgschemad_replication_last_applied_seq";
    while !follower.metric(applied).is_ok_and(|seq| seq >= leader_last) {
        if Instant::now() >= deadline {
            return Err(format!(
                "{name} did not reach leader seq {leader_last} within 10s"
            ));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    Ok(())
}

/// The failover check (`--failover-check <pgschema-binary>`): spawn a
/// leader and two followers, write sessions with distinct histories
/// through the leader, wait for replication lag to reach zero, verify
/// follower reads match the leader byte-for-byte and that follower
/// writes answer `421` naming the leader — then SIGKILL the leader,
/// promote one follower, and require the promoted node to serve every
/// acknowledged session identically and to accept new writes. This is
/// the zero-acked-write-loss guarantee of docs/replication.md exercised
/// across real processes.
fn run_failover_check(server_bin: &str) -> Result<(), String> {
    let scratch = Scratch::new("failover")?;
    let (leader_addr, f1_addr, f2_addr) = (pick_addr()?, pick_addr()?, pick_addr()?);
    let spawn = |addr: &str, dir: &str, follow: Option<&str>| {
        Daemon::spawn(server_bin, addr, &scratch.0.join(dir), follow)
    };
    let (leader_daemon, mut leader) = spawn(&leader_addr, "leader", None)?;

    // Seed the leader before the followers exist, so they must
    // bootstrap from `GET /wal/snapshot` rather than tailing from
    // sequence 1.
    let ids = create_sessions(&mut leader)?;
    let (_f1_daemon, mut f1) = spawn(&f1_addr, "follower-1", Some(&leader_addr))?;
    let (_f2_daemon, mut f2) = spawn(&f2_addr, "follower-2", Some(&leader_addr))?;

    // More history after the followers attached, so live tailing is
    // exercised too.
    write_histories(&mut leader, &ids)?;

    // Every write above was acknowledged; the oracle is the leader's
    // own view of them.
    let mut oracle = Vec::new();
    for &(id, _) in &ids {
        oracle.push((id, served_state(&mut leader, "oracle", id)?));
    }

    // Both followers must drain their lag before the leader dies —
    // promotion only preserves what replication delivered — and then
    // serve the leader's state byte-for-byte.
    for (name, follower) in [("follower-1", &mut f1), ("follower-2", &mut f2)] {
        wait_caught_up(&mut leader, follower, name)?;
        if follower.metric("pgschemad_replication_state") != Ok(2) {
            return Err(format!("{name} is not in the tailing state"));
        }
        if follower.metric("pgschemad_replication_follower") != Ok(1) {
            return Err(format!("{name} does not report itself as a follower"));
        }
        for (id, state) in &oracle {
            let what = format!("on {name} diverges from the leader");
            require_same(&what, *id, &served_state(follower, name, *id)?, state)?;
        }
    }

    // Follower writes are misdirected to the leader, not applied.
    let (status, headers, _) = f1
        .request_full("POST", sessions_target(), &envelope(2))
        .map_err(|e| format!("follower write: {e}"))?;
    if status != 421 {
        return Err(format!("follower write: expected 421, got {status}"));
    }
    let named_leader = headers
        .iter()
        .find(|(k, _)| k == "x-pgschema-leader")
        .map(|(_, v)| v.as_str());
    if named_leader != Some(leader_addr.as_str()) {
        return Err(format!(
            "follower 421 names leader {named_leader:?}, expected {leader_addr}"
        ));
    }

    // Leader loss: SIGKILL, then promote follower-1.
    drop(leader_daemon);
    let promote_started = Instant::now();
    let promoted = f1.expect_json("promote", 200, "POST", "/promote", b"")?;
    if promoted.get("role") != Some(&Json::Str("leader".into())) {
        return Err("promote: node did not report itself leader".into());
    }
    // Time-to-first-byte after promotion: the first read the new
    // leader serves in its new role.
    let first = format!("/sessions/{}/report", oracle[0].0);
    f1.expect("post-promote read", 200, "GET", &first, b"")?;
    let failover_ms = promote_started.elapsed().as_millis();
    if f1.metric("pgschemad_replication_follower") != Ok(0) {
        return Err("promoted node still reports itself as a follower".into());
    }

    // Zero acked-write loss: every oracle session is intact on the
    // promoted node.
    for (id, state) in &oracle {
        let served = served_state(&mut f1, "promoted", *id)?;
        require_same(
            "on the promoted node lost acked writes",
            *id,
            &served,
            state,
        )?;
    }

    // And it takes writes now: a delta on an old session and a fresh
    // session with an id the old leader never handed out.
    let (id, users) = ids[1];
    f1.expect(
        "post-promote delta",
        200,
        "POST",
        &format!("/sessions/{id}/deltas"),
        toggle_body(users, 2).as_bytes(),
    )?;
    let new_id = f1.create_session(sessions_target(), &envelope(3))?;
    if ids.iter().any(|&(id, _)| new_id <= id) {
        return Err(format!("session ids must not be reused: got {new_id}"));
    }

    println!("failover-check: ok (promote-to-first-read {failover_ms}ms)");
    Ok(())
}

/// The migration check (`--migrate-check <pgschema-binary>`): a live
/// dual-schema window across real processes. Plans a breaking and a
/// compatible candidate, opens a breaking window, applies deltas
/// through it, SIGKILLs the leader mid-window and requires recovery to
/// re-open the window (commit still refused), force-commits and checks
/// the post-commit report against all four one-shot engines, then runs
/// a clean compatible commit and a begin/abort cycle — with a follower
/// tailing the whole history, required to finish byte-identical to the
/// leader and to answer migrate writes with `421`.
fn run_migrate_check(server_bin: &str) -> Result<(), String> {
    let breaking_sdl = SCHEMA_SDL.replace("endTime: Time!", "endTime: Time! @required");
    let compatible_sdl = SCHEMA_SDL.replace(
        "nicknames: [String!]!",
        "nicknames: [String!]!\n    note: String",
    );
    let begin_breaking = migrate_body("begin", Some(&breaking_sdl), false);
    let begin_compatible = migrate_body("begin", Some(&compatible_sdl), false);
    let commit = migrate_body("commit", None, false);

    let scratch = Scratch::new("migrate")?;
    let (leader_addr, follower_addr) = (pick_addr()?, pick_addr()?);
    let leader_dir = scratch.0.join("leader");
    let (leader_daemon, mut leader) = Daemon::spawn(server_bin, &leader_addr, &leader_dir, None)?;
    let id = leader.create_session(sessions_target(), &envelope(4))?;
    let migrate = format!("/sessions/{id}/migrate");
    let report = format!("/sessions/{id}/report");
    let (_follower_daemon, mut follower) = Daemon::spawn(
        server_bin,
        &follower_addr,
        &scratch.0.join("follower"),
        Some(&leader_addr),
    )?;
    let windows_open = |leader: &mut Client| leader.metric("pgschemad_migration_windows_open");

    // Plans — read-only previews, no window opened.
    let body = migrate_body("plan", Some(&breaking_sdl), false);
    let doc = leader.expect_json("plan breaking", 200, "POST", &migrate, &body)?;
    let plan = doc.get("plan").ok_or("plan breaking: no plan member")?;
    if plan.get("compatible") != Some(&Json::Bool(false)) {
        return Err("plan breaking: `endTime @required` must preview as breaking".into());
    }
    let preview = plan.get("violations_added").and_then(Json::as_array);
    if preview.is_none_or(|v| v.is_empty()) {
        return Err("plan breaking: expected a non-empty violation preview".into());
    }
    let body = migrate_body("plan", Some(&compatible_sdl), false);
    let doc = leader.expect_json("plan compatible", 200, "POST", &migrate, &body)?;
    if doc.get("plan").and_then(|p| p.get("compatible")) != Some(&Json::Bool(true)) {
        return Err("plan compatible: optional `note` must preview as compatible".into());
    }
    if windows_open(&mut leader) != Ok(0) {
        return Err("plans must not open migration windows".into());
    }

    // Open a breaking window and run delta traffic through it.
    leader.expect("begin", 200, "POST", &migrate, &begin_breaking)?;
    if windows_open(&mut leader) != Ok(1) {
        return Err("begin: expected one open migration window".into());
    }
    for d in 0..2u64 {
        leader.expect(
            "mid-window delta",
            200,
            "POST",
            &format!("/sessions/{id}/deltas"),
            toggle_body(4, d).as_bytes(),
        )?;
    }
    // Mid-window, reads still serve the old schema: the follower's
    // replicated report must conform.
    wait_caught_up(&mut leader, &mut follower, "follower")?;
    let doc = follower.expect_json("mid-window follower report", 200, "GET", &report, b"")?;
    if conforms(&doc) != Some(true) {
        return Err("mid-window follower report must still use the old schema".into());
    }

    // The breaking window has regressions (sessions miss `endTime`),
    // so a plain commit is refused.
    leader.expect("commit with regressions", 409, "POST", &migrate, &commit)?;

    // SIGKILL mid-window; the WAL-logged Begin must re-open it.
    drop(leader_daemon);
    let (_leader_daemon, mut leader) = Daemon::spawn(server_bin, &leader_addr, &leader_dir, None)?;
    if windows_open(&mut leader) != Ok(1) {
        return Err("recovery must re-open the migration window".into());
    }
    leader
        .expect("post-recovery commit", 409, "POST", &migrate, &commit)
        .map_err(|e| format!("regressions must survive recovery: {e}"))?;

    // Force the swap and check the session's report against the four
    // one-shot engine oracles on the session's own graph.
    let force = migrate_body("commit", None, true);
    leader.expect("force commit", 200, "POST", &migrate, &force)?;
    let session_report = leader.expect("post-commit report", 200, "GET", &report, b"")?;
    let doc = Json::parse(&String::from_utf8_lossy(&session_report))
        .map_err(|e| format!("post-commit report: bad JSON: {e}"))?;
    if conforms(&doc) != Some(false) {
        return Err("post-commit report must be non-conforming under the new schema".into());
    }
    let session_canonical = canonical_report(&session_report, &["metrics", "engine"])?;
    let graph_json = leader.expect(
        "post-commit graph",
        200,
        "GET",
        &format!("/sessions/{id}/graph"),
        b"",
    )?;
    let mut oneshot = String::from("{\"schema\":");
    pg_server::http::push_json_string(&mut oneshot, &breaking_sdl);
    oneshot.push_str(",\"graph\":");
    oneshot.push_str(&String::from_utf8_lossy(&graph_json));
    oneshot.push('}');
    for engine in ["naive", "indexed", "parallel", "incremental"] {
        let what = format!("oracle({engine})");
        let target = format!("/validate?engine={engine}");
        let body = leader.expect(&what, 200, "POST", &target, oneshot.as_bytes())?;
        if canonical_report(&body, &["metrics", "engine"])? != session_canonical {
            return Err(format!(
                "{what}: post-commit session report diverges from \
                 a from-scratch validation under the new schema"
            ));
        }
    }

    // A compatible window commits cleanly, and abort closes without
    // swapping.
    leader.expect("compatible begin", 200, "POST", &migrate, &begin_compatible)?;
    let doc = leader.expect_json("compatible commit", 200, "POST", &migrate, &commit)?;
    if doc.get("committed") != Some(&Json::Bool(true)) {
        return Err("compatible commit: expected committed:true".into());
    }
    leader.expect("abort begin", 200, "POST", &migrate, &begin_breaking)?;
    let abort = migrate_body("abort", None, false);
    leader.expect("abort", 200, "POST", &migrate, &abort)?;
    if windows_open(&mut leader) != Ok(0) {
        return Err("abort must close the migration window".into());
    }

    // The follower replays the whole history — kills, commits, aborts —
    // and must finish byte-identical, while refusing migrate writes
    // itself.
    wait_caught_up(&mut leader, &mut follower, "follower")?;
    let leader_report = leader.expect("final leader report", 200, "GET", &report, b"")?;
    let follower_report = follower.expect("final follower report", 200, "GET", &report, b"")?;
    if canonical_report(&leader_report, &["metrics"])?
        != canonical_report(&follower_report, &["metrics"])?
    {
        return Err("follower report diverges from the leader after the migration".into());
    }
    follower.expect("follower migrate", 421, "POST", &migrate, &begin_compatible)?;

    println!("migrate-check: ok");
    Ok(())
}

fn usage() -> ! {
    eprintln!(
        "usage: pgload --addr HOST:PORT [--mode oneshot|session|mixed] \
         [--connections N] [--duration SECS] [--users N] \
         [--engine naive|indexed|parallel|incremental] \
         [--lang sdl|pgschema] \
         [--rate REQS_PER_SEC] [--cluster HOST:PORT,HOST:PORT,...] \
         [--hold CONNECTIONS] [--smoke] \
         [--restart-check PGSCHEMA_BIN] [--failover-check PGSCHEMA_BIN] \
         [--migrate-check PGSCHEMA_BIN]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut mode = Mode::Oneshot;
    let mut connections = 8usize;
    let mut duration = 10u64;
    let mut users = 4usize;
    let mut engine = "indexed".to_owned();
    let mut rate: Option<f64> = None;
    let mut cluster: Option<Ring> = None;
    let mut hold: Option<usize> = None;
    let mut smoke = false;
    let mut restart_check: Option<String> = None;
    let mut failover_check: Option<String> = None;
    let mut migrate_check: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--addr" => addr = value(&mut i),
            "--mode" => {
                mode = match value(&mut i).as_str() {
                    "oneshot" => Mode::Oneshot,
                    "session" => Mode::Session,
                    "mixed" => Mode::Mixed,
                    _ => usage(),
                }
            }
            "--connections" => connections = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--duration" => duration = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--users" => users = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--engine" => engine = value(&mut i),
            "--lang" => {
                let lang: pg_pgschema::SchemaLanguage = match value(&mut i).parse() {
                    Ok(lang) => lang,
                    Err(e) => {
                        eprintln!("pgload: --lang: {e}");
                        usage();
                    }
                };
                USE_PGSCHEMA.store(
                    lang == pg_pgschema::SchemaLanguage::PgSchema,
                    Ordering::Relaxed,
                );
            }
            "--rate" => {
                let r: f64 = value(&mut i).parse().unwrap_or_else(|_| usage());
                if r <= 0.0 || !r.is_finite() {
                    usage();
                }
                rate = Some(r);
            }
            "--cluster" => {
                let nodes: Vec<String> = value(&mut i)
                    .split(',')
                    .map(|n| n.trim().to_owned())
                    .filter(|n| !n.is_empty())
                    .collect();
                if nodes.is_empty() {
                    usage();
                }
                cluster = Some(Ring::new(nodes));
            }
            "--hold" => hold = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--smoke" => smoke = true,
            "--restart-check" => restart_check = Some(value(&mut i)),
            "--failover-check" => failover_check = Some(value(&mut i)),
            "--migrate-check" => migrate_check = Some(value(&mut i)),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }

    if let Some(server_bin) = restart_check {
        if let Err(message) = run_restart_check(&server_bin) {
            eprintln!("restart-check: FAIL: {message}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(server_bin) = failover_check {
        if let Err(message) = run_failover_check(&server_bin) {
            eprintln!("failover-check: FAIL: {message}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(server_bin) = migrate_check {
        if let Err(message) = run_migrate_check(&server_bin) {
            eprintln!("migrate-check: FAIL: {message}");
            std::process::exit(1);
        }
        return;
    }
    if smoke {
        if let Err(message) = run_smoke(&addr) {
            eprintln!("smoke: FAIL: {message}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(count) = hold {
        if let Err(message) = run_hold(&addr, count, duration) {
            eprintln!("hold: FAIL: {message}");
            std::process::exit(1);
        }
        return;
    }
    run_load(
        &addr,
        cluster.as_ref(),
        mode,
        connections,
        duration,
        users,
        &engine,
        rate,
    );
}
