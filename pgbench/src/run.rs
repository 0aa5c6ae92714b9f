//! One workload run, end to end: set the daemon up, warm it, time a
//! closed loop for `--seconds`, verify what it answered, and turn the
//! observations into named metrics.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use pgraph::PropertyGraph;

use crate::daemon::{scratch_dir, Counters, Daemon};
use crate::http::Conn;
use crate::layers::{self, root_name, Probe};
use crate::oracle::{self, Verdict};
use crate::stats;
use crate::workload::{Class, Inputs, Spec, Stream};

/// Set-up (spawn → `/healthz` → sessions → warm-up) is repeated this
/// often per run and `setup_s` is the median, so one slow fork or page
/// cache miss does not decide the metric.
const SETUP_REPEATS: usize = 5;

/// `GET /healthz` round trips that measure the transport floor.
const FLOOR_PROBES: usize = 2000;

/// A failure message is kept for the first few failures only.
const FAILURES_SHOWN: usize = 8;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result of one run of one workload.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Timed requests sent, plus the verification reads.
    pub attempted: u64,
    /// Unexpected status, oracle mismatch, timeout or transport error.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Side information for the human reader: sample counts, failures.
    pub notes: Vec<String>,
    pub daemon_flags: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Counts checks and remembers why the first few failed.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checks {
    fn fail(&mut self, message: impl FnOnce() -> String) {
        self.failed += 1;
        if self.messages.len() < FAILURES_SHOWN {
            self.messages.push(message());
        }
    }

    fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(message);
        }
    }

    fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < FAILURES_SHOWN {
                self.messages.push(m);
            }
        }
    }
}

/// One timed request as the client saw it.
struct Sample {
    class: Class,
    latency_ns: u64,
}

/// A response kept for the oracle: its position in the connection's
/// stream (warm-up included) and its body.
struct Kept {
    position: usize,
    body: Vec<u8>,
}

/// Checks oneshot responses as they arrive. Every request posts the same
/// body, so the first response is compared with the library's verdict and
/// later ones byte for byte (up to the timing block) with the first; only
/// a response that differs is parsed again.
struct OneshotCheck {
    expected: Verdict,
    good_prefix: Option<Vec<u8>>,
}

impl OneshotCheck {
    fn accepts(&mut self, body: &[u8]) -> bool {
        let verdict_part = match find(body, b", \"metrics\": {") {
            Some(at) => &body[..at],
            None => body,
        };
        if self.good_prefix.as_deref() == Some(verdict_part) {
            return true;
        }
        let ok = std::str::from_utf8(body)
            .ok()
            .and_then(|text| oracle::verdict(text).ok())
            .is_some_and(|v| v == self.expected);
        if ok && self.good_prefix.is_none() {
            self.good_prefix = Some(verdict_part.to_vec());
        }
        ok
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// One client connection with its request stream and what it observed.
struct Client {
    conn: Conn,
    stream: Stream,
    /// The stream as it was before the first request, for the replay.
    origin: Stream,
    stride: usize,
    oneshot: Option<OneshotCheck>,
    samples: Vec<Sample>,
    kept: Vec<Kept>,
    checks: Checks,
    /// Requests sent so far, warm-up included.
    position: usize,
}

/// When a drive ends: after this many requests, at this instant, or
/// whichever comes first.
struct Until {
    requests: usize,
    deadline: Option<Instant>,
}

impl Client {
    /// Sends requests back to back until the bound is reached or the
    /// transport fails. `timed` requests are sampled and counted.
    fn drive(&mut self, until: &Until, timed: bool) {
        let mut sent = 0usize;
        loop {
            if sent >= until.requests || until.deadline.is_some_and(|at| Instant::now() >= at) {
                return;
            }
            let (op, request) = self.stream.next();
            let started = Instant::now();
            let response = self.conn.call(request);
            let latency_ns = started.elapsed().as_nanos() as u64;
            let position = self.position;
            self.position += 1;
            sent += 1;
            if timed {
                self.checks.attempted += 1;
            }
            let response = match response {
                Ok(response) => response,
                Err(e) => {
                    // The connection is unusable; the rest of the run on
                    // it is lost and counted as one failure.
                    self.checks.fail(|| format!("request {position}: {e}"));
                    return;
                }
            };
            if response.status != 200 {
                self.checks.fail(|| {
                    format!(
                        "request {position}: {} {}",
                        response.status,
                        response.text()
                    )
                });
                continue;
            }
            if timed {
                self.samples.push(Sample {
                    class: op.class,
                    latency_ns,
                });
            }
            if let Some(check) = &mut self.oneshot {
                if !check.accepts(&response.body) {
                    self.checks
                        .fail(|| format!("request {position}: report differs from the oracle"));
                }
            } else if position % self.stride == 0 {
                self.kept.push(Kept {
                    position,
                    body: response.body,
                });
            }
        }
    }

    /// Replays this connection's stream on mirror graphs and compares
    /// every kept response with an in-process validation (or, for graph
    /// reads, the library's encoding) of the mirror at that point.
    /// Leaves `mirrors` as they stand after the last request sent.
    fn verify(&mut self, inputs: &Inputs, mirrors: &mut [PropertyGraph]) {
        let mut stream = self.origin.clone();
        let mut kept = std::mem::take(&mut self.kept).into_iter().peekable();
        for position in 0..self.position {
            let (op, _) = stream.next();
            if op.class == Class::Delta {
                let applied = pgraph::json::delta_from_json(stream.last_body())
                    .map_err(|e| e.to_string())
                    .and_then(|d| {
                        d.apply_to(&mut mirrors[op.session])
                            .map_err(|e| e.to_string())
                    });
                if let Err(e) = applied {
                    self.checks
                        .fail(|| format!("mirror rejects delta {position}: {e}"));
                }
            }
            let Some(response) = kept.next_if(|k| k.position == position) else {
                continue;
            };
            let mirror = &mirrors[op.session];
            let text = String::from_utf8_lossy(&response.body);
            let ok = match op.class {
                Class::Graph => text == pgraph::json::to_json(mirror),
                _ => oracle::verdict(&text)
                    .is_ok_and(|v| v == oracle::expected(mirror, &inputs.schema)),
            };
            self.checks.check(ok, || {
                format!(
                    "request {position} ({:?}): response differs from the oracle",
                    op.class
                )
            });
        }
    }
}

/// A daemon that has been set up: sessions created, connections open,
/// warm-up done.
struct Live {
    daemon: Daemon,
    clients: Vec<Client>,
    session_ids: Vec<u64>,
    /// Bodies of the `POST /sessions` responses, for the oracle.
    created: Vec<Vec<u8>>,
}

struct Paths {
    bin: PathBuf,
    data_dir: PathBuf,
    log: PathBuf,
}

fn daemon_flags(spec: &Spec, data_dir: &Path) -> Vec<String> {
    let mut flags = vec!["--cores".to_owned(), spec.cores.to_string()];
    if spec.durable {
        flags.extend(
            [
                "--data-dir",
                &data_dir.to_string_lossy(),
                "--fsync",
                "interval",
                "--compact-after-bytes",
                "1048576",
            ]
            .map(str::to_owned),
        );
    }
    flags
}

/// Spawn → `/healthz` → create sessions → warm up.
fn set_up(
    spec: &Spec,
    inputs: &Inputs,
    seed: u64,
    paths: &Paths,
    oneshot_expected: Option<&Verdict>,
) -> io::Result<Live> {
    if spec.durable {
        let _ = std::fs::remove_dir_all(&paths.data_dir);
        std::fs::create_dir_all(&paths.data_dir)?;
    }
    let daemon = Daemon::spawn(&paths.bin, &daemon_flags(spec, &paths.data_dir), &paths.log)?;
    let mut session_ids = Vec::new();
    let mut created = Vec::new();
    if spec.is_session() {
        let mut admin = Conn::connect(daemon.addr)?;
        let path = format!("/sessions{}", inputs.lang_query());
        for instance in &inputs.instances {
            let response = admin.post(&path, &instance.envelope)?;
            let id = pgraph::json::Json::parse(response.text())
                .ok()
                .filter(|_| response.status == 201)
                .and_then(|doc| doc.get("session")?.as_i64())
                .ok_or_else(|| io::Error::other(format!("create session: {}", response.text())))?;
            session_ids.push(id as u64);
            created.push(response.body);
        }
    }
    let mut clients = Vec::new();
    for conn in 0..spec.connections {
        let stream = Stream::new(spec, inputs, &session_ids, conn, seed);
        clients.push(Client {
            conn: Conn::connect(daemon.addr)?,
            origin: stream.clone(),
            stream,
            stride: spec.verify_stride,
            oneshot: oneshot_expected.map(|expected| OneshotCheck {
                expected: expected.clone(),
                good_prefix: None,
            }),
            samples: Vec::new(),
            kept: Vec::new(),
            checks: Checks::default(),
            position: 0,
        });
    }
    let warmup = Until {
        requests: spec.warmup,
        deadline: None,
    };
    drive_all(&mut clients, &warmup, false);
    Ok(Live {
        daemon,
        clients,
        session_ids,
        created,
    })
}

/// Runs every client on its own thread from a common start; returns the
/// wall time from that start until the last one finished.
fn drive_all(clients: &mut [Client], until: &Until, timed: bool) -> Duration {
    let barrier = Barrier::new(clients.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    client.drive(until, timed);
                    Instant::now()
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let end = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .max()
            .unwrap_or(start);
        end.saturating_duration_since(start)
    })
}

/// What the traced run measures around the timed phase.
#[derive(Default)]
struct Traced {
    floor_rtt_us: f64,
    /// `/metrics` delta from the start of the timed phase to its
    /// checkpoint, and the deltas sent in between.
    checkpoint: Counters,
    checkpoint_deltas: usize,
    /// `/metrics` delta over the whole timed phase.
    whole: Counters,
    restart_to_report_ms: f64,
    recover_open_ms: f64,
}

pub fn run(
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    bin: &Path,
) -> io::Result<Outcome> {
    let scratch = scratch_dir();
    std::fs::create_dir_all(&scratch)?;
    let paths = Paths {
        bin: bin.to_owned(),
        data_dir: scratch.join(format!("data-{}", spec.name)),
        log: scratch.join(format!("daemon-{}.log", spec.name)),
    };
    let inputs = crate::workload::generate(spec, seed);
    // Every oneshot request posts the same body: one expected verdict,
    // computed before any clock starts.
    let oneshot_expected =
        (!spec.is_session()).then(|| oracle::expected(&inputs.instances[0].graph, &inputs.schema));

    // -- set-up, repeated; the last one is kept and measured -------------
    let mut setup_seconds = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPEATS {
        drop(live.take());
        let started = Instant::now();
        live = Some(set_up(
            spec,
            &inputs,
            seed,
            &paths,
            oneshot_expected.as_ref(),
        )?);
        setup_seconds.push(started.elapsed().as_secs_f64());
    }
    let Live {
        mut daemon,
        mut clients,
        session_ids,
        created,
    } = live.expect("SETUP_REPEATS is positive");

    // -- timed phase -----------------------------------------------------
    let mut traced = Traced::default();
    if trace {
        let mut conn = Conn::connect(daemon.addr)?;
        let mut rtts: Vec<f64> = (0..FLOOR_PROBES)
            .map(|_| {
                let started = Instant::now();
                conn.get("/healthz")
                    .map(|_| started.elapsed().as_nanos() as f64 / 1000.0)
            })
            .collect::<io::Result<_>>()?;
        traced.floor_rtt_us = stats::median(&mut rtts);
    }
    let before = if trace {
        daemon.scrape()?
    } else {
        Counters::default()
    };
    let cpu_before = daemon.cpu_seconds()?;
    let deadline = Some(Instant::now() + Duration::from_secs(seconds));
    // Peak memory and the program-side counts are read at a checkpoint
    // after a fixed number of requests per connection, so they do not
    // depend on how many requests fit into `--seconds`.
    let to_checkpoint = Until {
        requests: spec.checkpoint,
        deadline,
    };
    let mut wall = drive_all(&mut clients, &to_checkpoint, true);
    let checkpoint_reached = clients.iter().all(|c| c.samples.len() >= spec.checkpoint);
    let rss_mib = daemon.peak_rss_mib()?;
    if trace {
        traced.checkpoint = daemon.scrape()?.since(&before);
        traced.checkpoint_deltas = clients
            .iter()
            .flat_map(|c| &c.samples)
            .filter(|s| s.class == Class::Delta)
            .count();
    }
    let to_deadline = Until {
        requests: usize::MAX,
        deadline,
    };
    wall += drive_all(&mut clients, &to_deadline, true);
    let cpu_seconds = daemon.cpu_seconds()? - cpu_before;
    if trace {
        traced.whole = daemon.scrape()?.since(&before);
    }

    // -- verification ----------------------------------------------------
    let mut checks = Checks::default();
    let mut mirrors: Vec<PropertyGraph> =
        inputs.instances.iter().map(|i| i.graph.clone()).collect();
    for (index, body) in created.iter().enumerate() {
        let ok = oracle::verdict(&String::from_utf8_lossy(body))
            .is_ok_and(|v| v == oracle::expected(&mirrors[index], &inputs.schema));
        checks.check(ok, || {
            format!("session {index}: creation report differs from the oracle")
        });
    }
    let finals = read_sessions(&daemon, &session_ids, &mut checks);
    for client in &mut clients {
        client.verify(&inputs, &mut mirrors);
    }
    for (index, (report, graph)) in finals.iter().enumerate() {
        let ok = oracle::verdict(report)
            .is_ok_and(|v| v == oracle::expected(&mirrors[index], &inputs.schema));
        checks.check(ok, || {
            format!("session {index}: final report differs from the oracle")
        });
        checks.check(*graph == pgraph::json::to_json(&mirrors[index]), || {
            format!("session {index}: final graph differs from the mirror")
        });
    }
    if spec.durable {
        // Crash recovery: SIGKILL, restart on the same directory, and
        // require the same verdict and the same graph bytes. (A kill
        // leaves the OS page cache intact, so this checks recovery of
        // what the process wrote, not survival of a power loss.)
        daemon.kill();
        let started = Instant::now();
        daemon = Daemon::spawn(&paths.bin, &daemon.flags, &paths.log)?;
        let recovered = read_sessions(&daemon, &session_ids, &mut checks);
        traced.restart_to_report_ms = started.elapsed().as_secs_f64() * 1000.0;
        for (index, (before, after)) in finals.iter().zip(&recovered).enumerate() {
            let same = after.1 == before.1
                && oracle::verdict(&after.0).is_ok_and(|v| Ok(v) == oracle::verdict(&before.0));
            checks.check(same, || {
                format!("session {index}: state changed across SIGKILL and restart")
            });
        }
        if trace {
            daemon.kill();
            let started = Instant::now();
            let fsync = "interval".parse().expect("a documented --fsync spelling");
            let (store, recovered) = pg_store::Store::open(paths.data_dir.clone(), fsync)?;
            traced.recover_open_ms = started.elapsed().as_secs_f64() * 1000.0;
            checks.check(recovered.sessions.len() == session_ids.len(), || {
                "store recovery lost a session".to_owned()
            });
            drop(store);
        }
    }
    let daemon_flags = daemon.flags.clone();
    drop(daemon);

    // -- metrics -----------------------------------------------------------
    let mut samples: Vec<Sample> = Vec::new();
    for client in &mut clients {
        samples.append(&mut client.samples);
        checks.merge(std::mem::take(&mut client.checks));
    }
    let mut notes = checks.messages.clone();
    if !checkpoint_reached {
        notes.push(format!(
            "the run ended before the checkpoint at {} requests per connection: memory and \
             the exact-repeat counts cover fewer requests than usual",
            spec.checkpoint
        ));
    }
    if samples.is_empty() {
        return Err(io::Error::other(format!(
            "no timed request succeeded: {notes:?}"
        )));
    }
    let mut all_us: Vec<f64> = samples
        .iter()
        .map(|s| s.latency_ns as f64 / 1000.0)
        .collect();
    // Sorts: everything below reads percentiles off `all_us`.
    let p50 = stats::median(&mut all_us);
    let metrics = if trace {
        let probe = layers::probe(spec, &inputs, seed, &scratch)?;
        std::fs::write(
            scratch.join(format!("trace-{}.json", spec.name)),
            probe.recorder.to_json(),
        )?;
        notes.push(format!(
            "traced run: {} requests, client p50 {p50:.1} us; {} of them replayed in-process \
             (trace-{}.json)",
            samples.len(),
            probe.recorded_positions.len(),
            spec.name
        ));
        per_layer(&mut notes, spec, &samples, &all_us, &traced, &probe)
    } else {
        notes.push(format!("latency percentiles over {} samples", all_us.len()));
        let setup_s = stats::median(&mut setup_seconds);
        end_to_end(&all_us, wall.as_secs_f64(), cpu_seconds, rss_mib, setup_s)
    };
    Ok(Outcome {
        workload: spec.name,
        seed,
        seconds,
        trace,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        notes,
        daemon_flags,
    })
}

/// The end-to-end metrics, in the order BENCHMARK.json lists them, from
/// the ascending client latencies of the timed phase.
fn end_to_end(
    sorted_us: &[f64],
    wall_s: f64,
    cpu_s: f64,
    rss_mib: f64,
    setup_s: f64,
) -> Vec<Metric> {
    let requests = sorted_us.len() as f64;
    vec![
        metric("throughput_rps", requests / wall_s, "req/s"),
        metric(
            "latency_mean_us",
            sorted_us.iter().sum::<f64>() / requests,
            "us",
        ),
        metric("server_cpu_us_per_req", cpu_s * 1e6 / requests, "us"),
        metric("server_rss_mb", rss_mib, "MiB"),
        metric("setup_s", setup_s, "s"),
    ]
}

/// `GET /report` and `GET /graph` of every session, as text.
fn read_sessions(
    daemon: &Daemon,
    session_ids: &[u64],
    checks: &mut Checks,
) -> Vec<(String, String)> {
    let mut read = |conn: &mut Conn, path: String| -> String {
        let response = conn.get(&path);
        let ok = response.as_ref().is_ok_and(|r| r.status == 200);
        checks.check(ok, || match &response {
            Ok(r) => format!("GET {path}: status {}", r.status),
            Err(e) => format!("GET {path}: {e}"),
        });
        response.map(|r| r.text().to_owned()).unwrap_or_default()
    };
    let Ok(mut conn) = Conn::connect(daemon.addr) else {
        checks.check(false, || "cannot connect for the final reads".to_owned());
        return Vec::new();
    };
    session_ids
        .iter()
        .map(|id| {
            let report = read(&mut conn, format!("/sessions/{id}/report"));
            let graph = read(&mut conn, format!("/sessions/{id}/graph"));
            (report, graph)
        })
        .collect()
}

fn class_p50_us(samples: &[Sample], class: Class) -> f64 {
    let mut of_class: Vec<f64> = samples
        .iter()
        .filter(|s| s.class == class)
        .map(|s| s.latency_ns as f64 / 1000.0)
        .collect();
    if of_class.is_empty() {
        0.0
    } else {
        stats::median(&mut of_class)
    }
}

/// Every per-layer metric, in the order BENCHMARK.json lists them. A
/// layer that does no work on a workload reports 0.
fn per_layer(
    notes: &mut Vec<String>,
    spec: &Spec,
    samples: &[Sample],
    sorted_us: &[f64],
    traced: &Traced,
    probe: &Probe,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let requests = samples.len() as f64;
    let deltas = samples.iter().filter(|s| s.class == Class::Delta).count() as f64;
    let whole = &traced.whole;

    // From /metrics: program-side counts around the timed phase. Counts
    // that must repeat exactly between runs of one seed are taken up to
    // the checkpoint, over a fixed set of requests.
    let (exact, exact_deltas) = (&traced.checkpoint, traced.checkpoint_deltas as f64);
    out.extend([
        metric(
            "core.kernels_us_per_req",
            ratio(whole.sum("pgschemad_rule_nanos_total") / 1000.0, requests),
            "us",
        ),
        metric(
            "core.elements_rechecked_per_delta",
            ratio(
                exact.sum("pgschemad_elements_rechecked_total{engine=\"incremental\"}"),
                exact_deltas,
            ),
            "count",
        ),
        metric(
            "store.wal_append_us",
            ratio(
                whole.sum("pgschemad_wal_append_duration_micros_sum"),
                whole.sum("pgschemad_wal_append_duration_micros_count"),
            ),
            "us",
        ),
        metric(
            "store.wal_bytes_per_op",
            ratio(
                exact.sum("pgschemad_wal_appended_bytes_total"),
                exact_deltas,
            ),
            "bytes",
        ),
        metric(
            "store.fsyncs_per_kop",
            ratio(whole.sum("pgschemad_wal_fsyncs_total") * 1000.0, deltas),
            "count",
        ),
        metric(
            "store.snapshots",
            whole.sum("pgschemad_store_snapshots_total"),
            "count",
        ),
        metric(
            "server.handler_us",
            ratio(
                whole.sum("pgschemad_request_duration_micros_sum"),
                whole.sum("pgschemad_request_duration_micros_count"),
            ),
            "us",
        ),
        metric(
            "server.wakeups_per_req",
            ratio(whole.sum("pgschemad_wakeups_total"), requests),
            "count",
        ),
        metric(
            "server.session_migrations_per_kreq",
            ratio(
                whole.sum("pgschemad_session_migrations_total") * 1000.0,
                requests,
            ),
            "count",
        ),
    ]);

    // From the in-process replay: median self time per library call.
    let rec = &probe.recorder;
    for name in SPAN_METRICS {
        let span = name
            .strip_suffix("_us")
            .expect("span metrics are in microseconds");
        out.push(metric(name, rec.self_p50_us(span).unwrap_or(0.0), "us"));
    }
    out.push(metric(
        "core.violations_per_report",
        probe.violations_per_report(),
        "count",
    ));
    out.push(metric(
        "store.recover_open_ms",
        traced.recover_open_ms,
        "ms",
    ));

    // Percentiles are reported here, unbounded. The sandbox's CPU has two
    // speeds, and a percentile jumps from one to the other when the slow
    // share of a run crosses it — by more than any bound allows — while
    // the mean, which carries the bound, moves smoothly with the mix.
    if !stats::tail_supported(sorted_us.len(), 0.99) {
        notes.push(format!(
            "client.latency_p99_us rests on {} samples, fewer than ten lie beyond it",
            sorted_us.len()
        ));
    }

    // What the layers leave unexplained of the dominant request class.
    let dominant = if spec.is_session() {
        Class::Delta
    } else {
        Class::Validate
    };
    let latency = class_p50_us(samples, dominant);
    let covered = rec.covered_p50_us(root_name(dominant)).unwrap_or(0.0);
    out.extend([
        metric("server.floor_rtt_us", traced.floor_rtt_us, "us"),
        metric("server.residual_us", latency - covered, "us"),
        metric("server.layer_cover_ratio", ratio(covered, latency), "ratio"),
        metric(
            "server.restart_to_report_ms",
            traced.restart_to_report_ms,
            "ms",
        ),
        metric(
            "client.latency_p50_us",
            stats::percentile(sorted_us, 0.5),
            "us",
        ),
        metric(
            "client.latency_p90_us",
            stats::percentile(sorted_us, 0.9),
            "us",
        ),
        metric(
            "client.latency_p99_us",
            stats::percentile(sorted_us, 0.99),
            "us",
        ),
        metric(
            "client.delta_p50_us",
            class_p50_us(samples, Class::Delta),
            "us",
        ),
        metric(
            "client.report_read_p50_us",
            class_p50_us(samples, Class::Report),
            "us",
        ),
        metric(
            "client.graph_read_p50_us",
            class_p50_us(samples, Class::Graph),
            "us",
        ),
    ]);

    // The replayed requests are a sample of the served ones: show that
    // the daemon served them like the rest.
    if spec.connections == 1 {
        let mut served: Vec<f64> = probe
            .recorded_positions
            .iter()
            .filter_map(|&p| samples.get(p.checked_sub(spec.warmup)?))
            .map(|s| s.latency_ns as f64 / 1000.0)
            .collect();
        if !served.is_empty() {
            notes.push(format!(
                "client-observed p50 of the {} replayed requests that fell inside the timed \
                 phase: {:.1} us",
                served.len(),
                stats::median(&mut served)
            ));
        }
    }
    out
}

/// The span-derived metrics: each is the median self time of the span
/// of the same name without `_us`.
const SPAN_METRICS: [&str; 14] = [
    "pgraph.json_parse_us",
    "pgraph.graph_build_us",
    "pgraph.freeze_us",
    "pgraph.delta_decode_us",
    "pgraph.graph_encode_us",
    "sdl.parse_us",
    "core.schema_compile_us",
    "pgs.compile_us",
    "core.validate_full_us",
    "core.session_seed_us",
    "core.delta_apply_us",
    "core.report_snapshot_us",
    "core.report_encode_us",
    "store.append_delta_us",
];

/// The metric names a run prints, for the test that holds them against
/// BENCHMARK.json.
#[cfg(test)]
pub fn printed_names(spec: &Spec, trace: bool) -> Vec<(&'static str, &'static str)> {
    let metrics = if trace {
        let samples = [Sample {
            class: Class::Delta,
            latency_ns: 1000,
        }];
        per_layer(
            &mut Vec::new(),
            spec,
            &samples,
            &[1.0],
            &Traced::default(),
            &Probe::default(),
        )
    } else {
        end_to_end(&[1.0], 1.0, 1.0, 1.0, 1.0)
    };
    metrics.iter().map(|m| (m.name, m.unit)).collect()
}
