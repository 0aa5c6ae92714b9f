//! `pgload` — the process-level checks of `pgschema serve`.
//!
//! Each mode is one pass/fail check that prints `<check>: ok` or exits 1
//! with `<check>: FAIL: <reason>`. Load generation and latency numbers
//! live in the benchmark harness (`pgbench`), not here.
//!
//! ```text
//! pgload --addr 127.0.0.1:7878 --smoke                   # one pass over the HTTP surface
//! pgload --addr 127.0.0.1:7878 --hold 5000 --duration 5  # idle keep-alive capacity
//! pgload --restart-check path/to/pgschema   # durability across SIGKILL
//! pgload --failover-check path/to/pgschema  # promote a follower, lose nothing
//! pgload --migrate-check path/to/pgschema   # dual-schema window survives SIGKILL
//! ```
//!
//! `--smoke` and `--hold` drive a daemon already running at `--addr`.
//! The three `--*-check` modes spawn their own durable daemons from the
//! given binary on free loopback ports (via [`pg_server::workload::Daemon`])
//! and SIGKILL them as the check requires.

use std::time::{Duration, Instant};

use pg_schema::PgSchema;
use pg_server::server::SERVED_ENGINES;
use pg_server::workload::{
    self, canonical_report, free_addr, migrate_body, sample_graph, toggle_delta, user_ids, Client,
    Daemon, Scratch, SCHEMA_SDL, VOLATILE,
};
use pgraph::json::{self, Json};

/// The `{"schema": …, "graph": …}` envelope for the worked-example
/// workload.
fn envelope(users: usize) -> Vec<u8> {
    workload::envelope(SCHEMA_SDL, &sample_graph(users))
}

/// The `i`-th toggle of the first user of `sample_graph(users)`, as a
/// delta body.
fn toggle_body(users: usize, i: u64) -> String {
    let user = user_ids(&sample_graph(users))[0];
    json::delta_to_json(&toggle_delta(user, i))
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

    // Stateless validation on every served engine answers the oracle's
    // report; the naive engine is the oracle, and is not served.
    let envelope = envelope(4);
    let schema = PgSchema::parse(SCHEMA_SDL).map_err(|e| format!("schema: {e}"))?;
    let expected = workload::oracle(&sample_graph(4), &schema)?;
    served_engines_agree(&mut client, &envelope, &expected)?;
    client.expect(
        "validate(naive)",
        400,
        "POST",
        "/validate?engine=naive",
        &envelope,
    )?;

    // Session round trip: create, break, observe, repair, verify.
    let id = client.create_session("/sessions", &envelope)?;
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
    // Repaired, the session reports what the oracle does for the sample.
    let report = client.expect("report", 200, "GET", &format!("/sessions/{id}/report"), b"")?;
    if canonical_report(&report, &VOLATILE)? != expected {
        return Err("report: the repaired session's report is not the oracle's".into());
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

/// Posts `envelope` to `/validate` on each served engine and requires
/// every report to be `expected`, the [`workload::oracle`]'s.
fn served_engines_agree(
    client: &mut Client,
    envelope: &[u8],
    expected: &str,
) -> Result<(), String> {
    for engine in SERVED_ENGINES {
        let what = format!("validate({engine})");
        let target = format!("/validate?engine={engine}");
        let body = client.expect(&what, 200, "POST", &target, envelope)?;
        if canonical_report(&body, &VOLATILE)? != expected {
            return Err(format!(
                "{what}: report diverges from the four-engine oracle"
            ));
        }
    }
    Ok(())
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
        .map(|users| Ok((client.create_session("/sessions", &envelope(users))?, users)))
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
    let scratch = Scratch::new("pgload-restart")?;
    let addr = free_addr()?;
    let (daemon, mut client) = Daemon::spawn(server_bin, &addr, scratch.path(), None)?;

    // Three sessions with different histories, plus one conflicting
    // delta that returns 409 — its deterministic partial effects must
    // survive the restart too.
    let ids = create_sessions(&mut client)?;
    write_histories(&mut client, &ids)?;
    let conflict = br#"{"ops":[{"op":"remove-node","node":99999}]}"#;
    let first = format!("/sessions/{}/deltas", ids[0].0);
    client.expect("conflicting delta", 409, "POST", &first, conflict)?;

    // A deleted session must stay deleted across the restart.
    let doomed = client.create_session("/sessions", &envelope(3))?;
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
    let (_daemon, mut client) = Daemon::spawn(server_bin, &addr, scratch.path(), None)?;

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
    let new_id = client.create_session("/sessions", &envelope(2))?;
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
    let scratch = Scratch::new("pgload-failover")?;
    let (leader_addr, f1_addr, f2_addr) = (free_addr()?, free_addr()?, free_addr()?);
    let spawn = |addr: &str, dir: &str, follow: Option<&str>| {
        Daemon::spawn(server_bin, addr, &scratch.path().join(dir), follow)
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
        .request_full("POST", "/sessions", &envelope(2))
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
    if Client::connect(&leader_addr).is_ok() {
        return Err("the leader still answers after its SIGKILL".into());
    }
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
    let new_id = f1.create_session("/sessions", &envelope(3))?;
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

    let scratch = Scratch::new("pgload-migrate")?;
    let (leader_addr, follower_addr) = (free_addr()?, free_addr()?);
    let leader_dir = scratch.path().join("leader");
    let (leader_daemon, mut leader) = Daemon::spawn(server_bin, &leader_addr, &leader_dir, None)?;
    let id = leader.create_session("/sessions", &envelope(4))?;
    let migrate = format!("/sessions/{id}/migrate");
    let report = format!("/sessions/{id}/report");
    let (_follower_daemon, mut follower) = Daemon::spawn(
        server_bin,
        &follower_addr,
        &scratch.path().join("follower"),
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

    // Force the swap and check the session's report, and one-shot runs
    // of the three served engines, against the four-engine oracle on the
    // session's own graph.
    let force = migrate_body("commit", None, true);
    leader.expect("force commit", 200, "POST", &migrate, &force)?;
    let session_report = leader.expect("post-commit report", 200, "GET", &report, b"")?;
    let doc = Json::parse(&String::from_utf8_lossy(&session_report))
        .map_err(|e| format!("post-commit report: bad JSON: {e}"))?;
    if conforms(&doc) != Some(false) {
        return Err("post-commit report must be non-conforming under the new schema".into());
    }
    let graph_json = leader.expect(
        "post-commit graph",
        200,
        "GET",
        &format!("/sessions/{id}/graph"),
        b"",
    )?;
    let graph = json::from_json(&String::from_utf8_lossy(&graph_json))
        .map_err(|e| format!("post-commit graph: {e}"))?;
    let schema = PgSchema::parse(&breaking_sdl).map_err(|e| format!("breaking schema: {e}"))?;
    let expected = workload::oracle(&graph, &schema)?;
    if canonical_report(&session_report, &VOLATILE)? != expected {
        return Err("post-commit session report diverges from \
                    a from-scratch validation under the new schema"
            .into());
    }
    let oneshot = workload::envelope(&breaking_sdl, &graph);
    served_engines_agree(&mut leader, &oneshot, &expected)?;

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
        "usage: pgload [--addr HOST:PORT] (--smoke | --hold CONNECTIONS [--duration SECS])\n       \
         pgload (--restart-check | --failover-check | --migrate-check) PGSCHEMA_BIN"
    );
    std::process::exit(2);
}

/// The one check a `pgload` run performs.
enum Check {
    Smoke,
    Hold(usize),
    Restart(String),
    Failover(String),
    Migrate(String),
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut duration = 10u64;
    let mut check = None;

    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--addr" => addr = value(&mut i),
            "--duration" => duration = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--smoke" => check = Some(Check::Smoke),
            "--hold" => {
                let count = value(&mut i).parse().unwrap_or_else(|_| usage());
                check = Some(Check::Hold(count));
            }
            "--restart-check" => check = Some(Check::Restart(value(&mut i))),
            "--failover-check" => check = Some(Check::Failover(value(&mut i))),
            "--migrate-check" => check = Some(Check::Migrate(value(&mut i))),
            _ => usage(),
        }
        i += 1;
    }

    let (name, result) = match check.unwrap_or_else(|| usage()) {
        Check::Smoke => ("smoke", run_smoke(&addr)),
        Check::Hold(count) => ("hold", run_hold(&addr, count, duration)),
        Check::Restart(bin) => ("restart-check", run_restart_check(&bin)),
        Check::Failover(bin) => ("failover-check", run_failover_check(&bin)),
        Check::Migrate(bin) => ("migrate-check", run_migrate_check(&bin)),
    };
    if let Err(message) = result {
        eprintln!("{name}: FAIL: {message}");
        std::process::exit(1);
    }
}
