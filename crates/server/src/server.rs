//! The daemon itself: listener, reactor core threads, routing and
//! request logging. See the crate docs for the architecture overview and
//! the route table; the event loop lives in [`crate::reactor`].

use std::borrow::Cow;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pg_pgschema::SchemaLanguage;
use pg_schema::{validate_columns, Engine, PgSchema, ValidationOptions};
use pg_store::{FsyncPolicy, MigrationPhase, Store};
use pgraph::json::{self, Kind, Reader};
use pgraph::{GraphSink, PropertyGraph};

use crate::http::{Request, Response};
use crate::metrics::{Metrics, MigrationAction, RenderGauges};
use crate::reactor::{self, CoreShared};
use crate::registry::{Absent, HydrationError, Session, SessionRegistry};
use crate::schema_cache::{CompiledSchema, SchemaCache};

/// How the accept thread sleeps between polls when no connection is
/// pending (it also re-checks the shutdown flag at this cadence).
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Upper bound on the frame bytes one `GET /wal/tail` response carries.
/// A lagging follower catches up in successive batches rather than one
/// giant response; `read_tail` may exceed this by one frame so progress
/// is always possible.
const TAIL_BATCH_BYTES: usize = 1 << 20;

/// How long `POST /promote` waits for the follower loop to observe the
/// promotion flag and flip the role before answering 503.
const PROMOTE_TIMEOUT: Duration = Duration::from_secs(10);

/// Shape of the per-request log lines (`--log-format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LogFormat {
    /// `method=… path=… status=… micros=… engine=…` key-value text.
    #[default]
    Text,
    /// One JSON object per line.
    Json,
    /// No request logging (load-test runs).
    Off,
}

impl LogFormat {
    /// The accepted spellings of [`FromStr`](std::str::FromStr), in
    /// declaration order.
    pub const NAMES: &'static [&'static str] = &["text", "json", "off"];
}

/// Parses the `--log-format` flag value; the error lists the accepted
/// spellings.
impl std::str::FromStr for LogFormat {
    type Err = pgraph::ParseEnumError;

    fn from_str(name: &str) -> Result<LogFormat, Self::Err> {
        match name {
            "text" => Ok(LogFormat::Text),
            "json" => Ok(LogFormat::Json),
            "off" => Ok(LogFormat::Off),
            _ => Err(pgraph::ParseEnumError::new(
                "log format",
                name,
                LogFormat::NAMES,
            )),
        }
    }
}

/// Daemon configuration (the `serve` subcommand's flags).
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`ServerConfig::builder`] (or [`Default`]) rather than a struct
/// literal, so adding options stays a compatible change.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7878`. Port 0 picks a free port.
    pub addr: String,
    /// Reactor cores (event-loop threads); `0` (default) means one per
    /// available CPU.
    pub cores: usize,
    /// Open-connection cap; accepts beyond it are shed with `503`.
    pub max_connections: usize,
    /// Request-log shape.
    pub log_format: LogFormat,
    /// Durable session storage (`--data-dir`). `None` keeps the daemon
    /// purely in-memory, exactly as before the store existed.
    pub data_dir: Option<PathBuf>,
    /// When to fsync WAL appends (`--fsync`).
    pub fsync: FsyncPolicy,
    /// Compact the store once the live WAL exceeds this many bytes
    /// (`--compact-after-bytes`; 0 disables automatic compaction).
    pub compact_after_bytes: u64,
    /// LRU bound on live sessions (`--max-sessions`).
    pub max_sessions: Option<usize>,
    /// Leader address to replicate from (`--follow`). When set the
    /// daemon starts as a read-only follower: it bootstraps an empty
    /// `--data-dir` from the leader's snapshot, tails the leader's WAL,
    /// answers reads, and rejects writes with `421` until promoted
    /// (`POST /promote` or SIGHUP). Requires `data_dir`. See
    /// `docs/replication.md`.
    pub follow: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_owned(),
            cores: 0,
            max_connections: 4096,
            log_format: LogFormat::Text,
            data_dir: None,
            fsync: FsyncPolicy::Always,
            compact_after_bytes: 8 << 20,
            max_sessions: None,
            follow: None,
        }
    }
}

impl ServerConfig {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: ServerConfig::default(),
        }
    }
}

/// Builder for [`ServerConfig`].
///
/// ```no_run
/// use pg_server::{LogFormat, Server, ServerConfig};
///
/// let config = ServerConfig::builder()
///     .addr("127.0.0.1:0")
///     .cores(2)
///     .max_connections(10_000)
///     .log_format(LogFormat::Off)
///     .build();
/// let handle = Server::bind(config).unwrap().serve().unwrap();
/// println!("listening on {}", handle.local_addr());
/// handle.shutdown();
/// handle.join().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Listen address (default `127.0.0.1:7878`; port 0 picks a free
    /// port).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.config.addr = addr.into();
        self
    }

    /// Reactor cores (`0` = one per available CPU).
    pub fn cores(mut self, cores: usize) -> Self {
        self.config.cores = cores;
        self
    }

    /// Open-connection cap beyond which accepts are shed with `503`.
    pub fn max_connections(mut self, max: usize) -> Self {
        self.config.max_connections = max;
        self
    }

    /// Request-log shape (default [`LogFormat::Text`]).
    pub fn log_format(mut self, format: LogFormat) -> Self {
        self.config.log_format = format;
        self
    }

    /// Durable session storage directory.
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.data_dir = Some(dir.into());
        self
    }

    /// When to fsync WAL appends (default [`FsyncPolicy::Always`]).
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.config.fsync = policy;
        self
    }

    /// Auto-compaction threshold in live WAL bytes (0 disables).
    pub fn compact_after_bytes(mut self, bytes: u64) -> Self {
        self.config.compact_after_bytes = bytes;
        self
    }

    /// LRU bound on live sessions.
    pub fn max_sessions(mut self, max: usize) -> Self {
        self.config.max_sessions = Some(max);
        self
    }

    /// Start as a read-only follower of the leader at `addr` (requires
    /// [`data_dir`](Self::data_dir)).
    pub fn follow(mut self, addr: impl Into<String>) -> Self {
        self.config.follow = Some(addr.into());
        self
    }

    /// Finishes, yielding the configuration.
    pub fn build(self) -> ServerConfig {
        self.config
    }
}

/// Shared state every reactor core and the accept thread see.
pub(crate) struct Ctx {
    pub(crate) metrics: Metrics,
    pub(crate) registry: SessionRegistry,
    /// Posted schema texts, compiled once each.
    pub(crate) schemas: SchemaCache,
    pub(crate) log_format: LogFormat,
    pub(crate) compact_after_bytes: u64,
    /// Number of reactor cores (event-loop threads).
    pub(crate) cores: usize,
    /// Open-connection cap enforced by the accept thread.
    pub(crate) max_connections: usize,
    /// Connections currently open across all cores (incremented at
    /// accept, decremented when a core closes the connection).
    pub(crate) open_connections: AtomicUsize,
    /// Connections currently owned by each core.
    pub(crate) core_connections: Vec<AtomicUsize>,
    /// Set by [`ServerHandle::shutdown`]; every loop drains and exits.
    pub(crate) shutdown: AtomicBool,
    /// The leader address this daemon follows (`--follow`), if any.
    /// Fixed for the life of the process even after promotion — it is
    /// where `421` responses point writers.
    pub(crate) follow: Option<String>,
    /// True while this daemon is a read-only follower; flipped to false
    /// exactly once, by the follower loop, on promotion.
    pub(crate) role_follower: AtomicBool,
    /// Set by `POST /promote`; the follower loop polls it (alongside
    /// SIGHUP) and performs the promotion.
    pub(crate) promote: AtomicBool,
}

impl Ctx {
    /// True while writes must be redirected to the leader.
    pub(crate) fn is_follower(&self) -> bool {
        self.role_follower.load(Ordering::Relaxed)
    }
}

/// A bound, not-yet-running daemon. [`bind`](Server::bind) first, read
/// [`local_addr`](Server::local_addr) (tests bind port 0), then
/// [`serve`](Server::serve) for a [`ServerHandle`] that owns the running
/// threads.
pub struct Server {
    listener: TcpListener,
    ctx: Arc<Ctx>,
}

impl Server {
    /// Binds the listener and, under `--data-dir`, recovers sessions
    /// from the store. The listener is switched to nonblocking so the
    /// accept thread can interleave accepts with shutdown polling —
    /// glibc installs SA_RESTART handlers, so a blocking `accept(2)`
    /// would sleep straight through SIGTERM.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let cores = match config.cores {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        };
        if let Some(leader) = &config.follow {
            let Some(dir) = &config.data_dir else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "--follow requires --data-dir (a follower replicates into a durable store)",
                ));
            };
            // An empty (or missing) data dir bootstraps from the
            // leader's snapshot; anything else resumes tailing from the
            // recovered WAL position.
            let empty = match std::fs::read_dir(dir) {
                Ok(mut entries) => entries.next().is_none(),
                Err(e) if e.kind() == io::ErrorKind::NotFound => true,
                Err(e) => return Err(e),
            };
            if empty {
                let blob = crate::replication::fetch_snapshot(leader)?;
                pg_store::install_snapshot(dir, &blob)?;
                if config.log_format != LogFormat::Off {
                    eprintln!(
                        "replication: bootstrapped {} from leader {leader} \
                         ({} snapshot bytes)",
                        dir.display(),
                        blob.len()
                    );
                }
            }
        }
        let registry = match &config.data_dir {
            None => SessionRegistry::in_memory(config.max_sessions),
            Some(dir) => {
                let (store, recovered) = Store::open(dir.clone(), config.fsync)?;
                let info = &recovered.info;
                if config.log_format != LogFormat::Off {
                    eprintln!(
                        "store: recovered {} session(s) from {} (snapshot generation {:?}, \
                         {} record(s) replayed{})",
                        recovered.sessions.len(),
                        dir.display(),
                        info.snapshot_generation,
                        info.records_replayed,
                        match &info.truncated {
                            Some(t) => format!(
                                ", torn tail truncated at {} offset {}",
                                t.segment.display(),
                                t.offset
                            ),
                            None => String::new(),
                        }
                    );
                }
                let options = ValidationOptions::builder().collect_metrics(true).build();
                SessionRegistry::with_store(
                    Arc::new(store),
                    recovered,
                    &options,
                    config.max_sessions,
                )?
            }
        };
        Ok(Server {
            listener,
            ctx: Arc::new(Ctx {
                metrics: Metrics::new(cores),
                registry,
                schemas: SchemaCache::default(),
                log_format: config.log_format,
                compact_after_bytes: config.compact_after_bytes,
                cores,
                max_connections: config.max_connections.max(1),
                open_connections: AtomicUsize::new(0),
                core_connections: (0..cores).map(|_| AtomicUsize::new(0)).collect(),
                shutdown: AtomicBool::new(false),
                role_follower: AtomicBool::new(config.follow.is_some()),
                promote: AtomicBool::new(false),
                follow: config.follow,
            }),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the reactor: one epoll event loop per core plus the accept
    /// thread, then returns immediately with the [`ServerHandle`] that
    /// controls them. Serving continues until
    /// [`shutdown`](ServerHandle::shutdown).
    pub fn serve(self) -> io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let mut peers = Vec::with_capacity(self.ctx.cores);
        for _ in 0..self.ctx.cores {
            peers.push(Arc::new(CoreShared::new()?));
        }
        let mut threads = Vec::with_capacity(self.ctx.cores + 1);
        for (index, own) in peers.iter().enumerate() {
            let epoll = crate::sys::Epoll::new()?;
            let ctx = Arc::clone(&self.ctx);
            let own = Arc::clone(own);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("pgschemad-core-{index}"))
                    .spawn(move || reactor::run_core(index, epoll, ctx, own))?,
            );
        }
        let ctx = Arc::clone(&self.ctx);
        let accept_peers = peers.clone();
        let listener = self.listener;
        threads.push(
            std::thread::Builder::new()
                .name("pgschemad-accept".to_owned())
                .spawn(move || accept_loop(ctx, listener, accept_peers))?,
        );
        if self.ctx.follow.is_some() {
            let ctx = Arc::clone(&self.ctx);
            threads.push(
                std::thread::Builder::new()
                    .name("pgschemad-follower".to_owned())
                    .spawn(move || crate::replication::run_follower(ctx))?,
            );
        }
        Ok(ServerHandle {
            addr,
            ctx: self.ctx,
            peers,
            threads,
        })
    }
}

/// A running daemon. Call [`shutdown`](ServerHandle::shutdown) to begin
/// a graceful drain, then [`join`](ServerHandle::join) to wait for it.
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<Ctx>,
    peers: Vec<Arc<CoreShared>>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address being served.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The number of reactor cores serving connections (after resolving
    /// [`ServerConfig::cores`]` == 0` to the machine's parallelism).
    pub fn cores(&self) -> usize {
        self.ctx.cores
    }

    /// Requests a graceful drain: the accept thread stops accepting,
    /// each core finishes its in-flight requests (flushing pending
    /// responses) and closes idle keep-alive connections. Idempotent and
    /// safe from any thread (including a signal-watching loop).
    pub fn shutdown(&self) {
        self.ctx.shutdown.store(true, Ordering::Relaxed);
        for peer in &self.peers {
            peer.wake.signal();
        }
    }

    /// Waits until every thread has drained and exited, then flushes the
    /// store. Under `--fsync interval|never`, acknowledged appends may
    /// still sit in OS buffers — a graceful shutdown flushes them.
    pub fn join(mut self) -> io::Result<()> {
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        self.ctx.registry.sync_store()
    }
}

/// The accept thread: hands fresh connections round-robin to the cores
/// (a connection stays on the core it lands on), shedding with `503`
/// above the connection cap.
///
/// The listener sits behind its own tiny epoll so a connect storm is
/// drained in a tight accept loop (the [`POLL_INTERVAL`] timeout exists
/// only to observe the shutdown flag, never to pace accepts — a sleep
/// there would add up to 50 ms per sequentially-opened connection).
fn accept_loop(ctx: Arc<Ctx>, listener: TcpListener, peers: Vec<Arc<CoreShared>>) {
    use std::os::fd::AsRawFd;
    let epoll = crate::sys::Epoll::new().expect("accept epoll");
    epoll
        .add(listener.as_raw_fd(), crate::sys::EPOLLIN, 0)
        .expect("register listener");
    let mut events = [crate::sys::EpollEvent::zeroed(); 1];
    let mut next = 0usize;
    while !ctx.shutdown.load(Ordering::Relaxed) {
        // Drain the backlog completely before sleeping again.
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    ctx.metrics.record_accept();
                    if ctx.open_connections.load(Ordering::Relaxed) >= ctx.max_connections {
                        shed(&ctx, stream);
                        continue;
                    }
                    ctx.open_connections.fetch_add(1, Ordering::Relaxed);
                    peers[next % peers.len()].push(stream);
                    next += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        let _ = epoll.wait(&mut events, POLL_INTERVAL.as_millis() as i32);
    }
    // Wake every core so none sleeps through the drain.
    for peer in &peers {
        peer.wake.signal();
    }
}

/// Answers a connection there is no capacity for: `503` with a
/// `Retry-After` hint, written from the accept thread, then close.
fn shed(ctx: &Ctx, mut stream: TcpStream) {
    ctx.metrics.record_shed();
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let response = Response::error(503, "connection limit reached, retry shortly")
        .with_header("retry-after", "1");
    let _ = response.write_to(&mut stream, true);
    ctx.metrics.record_request("(shed)", 503, 0);
    log_request(ctx.log_format, "-", "(shed)", 503, 0, None);
}

/// Serves one parsed request end to end: routes it, records metrics and
/// the request log, and triggers threshold compaction. Returns the
/// response plus whether the connection must close after it.
pub(crate) fn process(ctx: &Ctx, request: &Request) -> (Response, bool) {
    let started = Instant::now();
    let (route, engine, result) = route(ctx, request);
    let response = result.unwrap_or_else(Response::from);
    let close = request.wants_close() || ctx.shutdown.load(Ordering::Relaxed);
    let micros = started.elapsed().as_micros() as u64;
    ctx.metrics.record_request(route, response.status, micros);
    log_request(
        ctx.log_format,
        &request.method,
        &request.path,
        response.status,
        micros,
        // The label names the engine that produced an answer, not the
        // one a refused request was aimed at.
        engine.filter(|_| response.status < 400),
    );
    maybe_compact(ctx);
    (response, close)
}

/// The `400` a connection gets for bytes that would not parse as a
/// request; the connection closes once it is flushed.
pub(crate) fn bad_request(ctx: &Ctx, message: &str) -> Response {
    ctx.metrics.record_request("(bad-request)", 400, 0);
    log_request(ctx.log_format, "-", "(bad-request)", 400, 0, None);
    Response::error(400, message)
}

/// Why a handler could not answer: a status, the message of the
/// `{"error": …}` body and any extra headers. Handlers return
/// `Result<Response, HttpError>` and use `?`; the failures they meet
/// over and over convert by themselves:
///
/// | source | status | message |
/// |---|---|---|
/// | body is not UTF-8 ([`Utf8Error`](std::str::Utf8Error)) | 400 | `body is not UTF-8` |
/// | body is not JSON / not a delta ([`json::JsonError`]) | 400 | the located parse error |
/// | schema does not load ([`pg_pgschema::load_schema`]) | 400 | `schema: …` |
/// | unknown `?engine=` / `?lang=` ([`pgraph::ParseEnumError`]) | 400 | the accepted spellings |
/// | `?engine=naive` ([`SERVED_ENGINES`]) | 400 | the served engines |
/// | session deleted or never created ([`Absent::Missing`]) | 404 | `no such session` |
/// | session evicted ([`Absent::Evicted`]) | 410 | `session evicted` |
/// | stored state no longer hydrates ([`HydrationError`]) | 500 | what failed |
/// | WAL append failed ([`io::Error`]) | 500 | `wal append failed: …` |
///
/// Everything else (`405`, `409`, `421`, `503`, route-specific `400`s)
/// is spelled out where it is decided.
pub(crate) struct HttpError {
    status: u16,
    message: String,
    headers: Vec<(&'static str, String)>,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> HttpError {
        HttpError {
            status,
            message: message.into(),
            headers: Vec::new(),
        }
    }

    fn with_header(mut self, name: &'static str, value: impl Into<String>) -> HttpError {
        self.headers.push((name, value.into()));
        self
    }
}

impl From<HttpError> for Response {
    fn from(e: HttpError) -> Response {
        let response = Response::error(e.status, &e.message);
        e.headers
            .iter()
            .fold(response, |r, (name, value)| r.with_header(name, value))
    }
}

impl From<std::str::Utf8Error> for HttpError {
    fn from(_: std::str::Utf8Error) -> HttpError {
        HttpError::new(400, "body is not UTF-8")
    }
}

impl From<json::JsonError> for HttpError {
    fn from(e: json::JsonError) -> HttpError {
        HttpError::new(400, e.to_string())
    }
}

impl From<Box<dyn std::error::Error>> for HttpError {
    fn from(e: Box<dyn std::error::Error>) -> HttpError {
        HttpError::new(400, format!("schema: {e}"))
    }
}

impl From<pgraph::ParseEnumError> for HttpError {
    fn from(e: pgraph::ParseEnumError) -> HttpError {
        HttpError::new(400, e.to_string())
    }
}

impl From<Absent> for HttpError {
    fn from(absent: Absent) -> HttpError {
        match absent {
            Absent::Missing => HttpError::new(404, "no such session"),
            Absent::Evicted => HttpError::new(410, "session evicted"),
        }
    }
}

impl From<HydrationError> for HttpError {
    fn from(e: HydrationError) -> HttpError {
        HttpError::new(500, e.to_string())
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        HttpError::new(500, format!("wal append failed: {e}"))
    }
}

impl Ctx {
    /// Refuses a write on a follower with `421 Misdirected Request`; the
    /// `x-pgschema-leader` header carries the address clients should
    /// retry against. A follower's sessions mutate only through
    /// replication (reads stay local).
    fn require_leader(&self) -> Result<(), HttpError> {
        if !self.is_follower() {
            return Ok(());
        }
        let leader = self.follow.as_deref().unwrap_or("");
        Err(HttpError::new(
            421,
            format!("this node is a read-only follower; write to the leader at {leader}"),
        )
        .with_header("x-pgschema-leader", leader))
    }

    /// The store, or the `409` a memory-only daemon answers on every
    /// route that needs one.
    fn store(&self) -> Result<&Arc<Store>, HttpError> {
        self.registry.store().ok_or_else(no_store)
    }

    /// Feeds one WAL append's latency (none without a store) into the
    /// append histogram.
    fn record_wal(&self, micros: Option<u64>) {
        if let Some(micros) = micros {
            self.metrics.record_wal_append(micros);
        }
    }

    /// Logs a record about a locked session ([`SessionRegistry::log`]).
    fn log(
        &self,
        session: &mut Session,
        write: impl FnOnce(&Store) -> io::Result<u64>,
    ) -> Result<(), HttpError> {
        self.record_wal(self.registry.log(session, write)?);
        Ok(())
    }
}

fn no_store() -> HttpError {
    HttpError::new(409, "server is running without --data-dir")
}

/// Runs `f` on the locked session `id`, or answers `404` / `410`.
fn with_session<T>(
    ctx: &Ctx,
    id: u64,
    f: impl FnOnce(&mut Session) -> Result<T, HttpError>,
) -> Result<T, HttpError> {
    let slot = ctx.registry.get(id)?;
    let mut session = slot.session.lock().unwrap();
    f(&mut session)
}

/// The request body as text.
fn body_text(request: &Request) -> Result<&str, HttpError> {
    Ok(std::str::from_utf8(&request.body)?)
}

/// The first member of each of `names` in a flat JSON body, bookmarked
/// on its value ([`Reader::members`]). The whole body is read first, so
/// a syntax error anywhere outranks what any member holds; a root that
/// is not an object has no members.
fn body_members<'a, const N: usize>(
    request: &'a Request,
    names: [&str; N],
) -> Result<[Option<Reader<'a>>; N], HttpError> {
    let mut reader = Reader::new(body_text(request)?);
    let members = reader.members(names)?;
    reader.finish()?;
    Ok(members)
}

/// A body member's string value; `None` when it is not a string (the
/// body's syntax is already checked, so that is the only way the read
/// can fail).
fn string_value(mut value: Reader<'_>) -> Option<Cow<'_, str>> {
    value.string().ok()
}

/// A required string member of a JSON body.
fn str_member<'a>(member: Option<Reader<'a>>, name: &str) -> Result<Cow<'a, str>, HttpError> {
    member
        .and_then(string_value)
        .ok_or_else(|| missing_string(name))
}

/// An optional member of a JSON body, read by `read`, which answers
/// `None` for a value of the wrong type: a `400` saying what the member
/// must be.
fn optional<'a, T>(
    member: Option<Reader<'a>>,
    name: &str,
    must_be: &str,
    read: impl FnOnce(Reader<'a>) -> Option<T>,
) -> Result<Option<T>, HttpError> {
    member
        .map(|value| {
            read(value).ok_or_else(|| HttpError::new(400, format!("\"{name}\" must be {must_be}")))
        })
        .transpose()
}

fn missing_string(name: &str) -> HttpError {
    HttpError::new(400, format!("missing string field \"{name}\""))
}

/// The top-level routes. Each is its own template: the `route` label of
/// `pgschemad_http_requests_total`.
const TOP_LEVEL: [&str; 8] = [
    "/healthz",
    "/metrics",
    "/validate",
    "/check-sat",
    "/sessions",
    "/wal/tail",
    "/wal/snapshot",
    "/promote",
];

/// The engine label of the routes served by a resident session.
const INCREMENTAL: Option<&str> = Some("incremental");

/// A routed request: the route template (metrics label), the engine that
/// answers on that route (request-log label) and the handler's answer.
type Routed = (
    &'static str,
    Option<&'static str>,
    Result<Response, HttpError>,
);

fn route(ctx: &Ctx, request: &Request) -> Routed {
    let path = request.path.as_str();
    let Some(&route) = TOP_LEVEL.iter().find(|route| **route == path) else {
        return match parse_session_path(path) {
            Some((id, tail)) => route_session(ctx, request, id, tail),
            None => unrouted(404, "no such route"),
        };
    };
    let (engine, result) = match (request.method.as_str(), route) {
        ("GET", "/healthz") => (None, Ok(Response::text(200, "ok\n"))),
        ("GET", "/metrics") => (None, Ok(handle_metrics(ctx))),
        ("POST", "/validate") => {
            let engine = served_engine(request);
            (
                engine.as_ref().ok().map(|engine| engine.name()),
                engine.and_then(|engine| handle_validate(ctx, request, engine)),
            )
        }
        // Satisfiability is a pure read over the posted schema, so a
        // follower answers it locally like /validate.
        ("POST", "/check-sat") => (None, handle_check_sat(ctx, request)),
        ("POST", "/sessions") => (INCREMENTAL, handle_create_session(ctx, request)),
        ("GET", "/wal/tail") => (None, handle_wal_tail(ctx, request)),
        ("GET", "/wal/snapshot") => (None, handle_wal_snapshot(ctx)),
        ("POST", "/promote") => (None, handle_promote(ctx)),
        _ => (None, Err(HttpError::new(405, "method not allowed"))),
    };
    (route, engine, result)
}

/// Splits `/sessions/{id}` or `/sessions/{id}/{tail}`.
fn parse_session_path(path: &str) -> Option<(u64, &str)> {
    let rest = path.strip_prefix("/sessions/")?;
    let (id, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, tail),
        None => (rest, ""),
    };
    Some((id.parse().ok()?, tail))
}

fn route_session(ctx: &Ctx, request: &Request, id: u64, tail: &str) -> Routed {
    match (request.method.as_str(), tail) {
        ("POST", "deltas") => (
            "/sessions/{id}/deltas",
            INCREMENTAL,
            handle_delta(ctx, request, id),
        ),
        ("GET", "report") => ("/sessions/{id}/report", INCREMENTAL, handle_report(ctx, id)),
        ("GET", "graph") => ("/sessions/{id}/graph", None, handle_graph(ctx, id)),
        ("POST", "compact") => ("/sessions/{id}/compact", None, handle_compact(ctx, id)),
        ("POST", "migrate") => (
            "/sessions/{id}/migrate",
            INCREMENTAL,
            handle_migrate(ctx, request, id),
        ),
        ("DELETE", "") => ("/sessions/{id}", None, handle_delete(ctx, id)),
        ("POST" | "GET" | "DELETE", "deltas" | "report" | "graph" | "compact" | "migrate" | "") => {
            unrouted(405, "method not allowed")
        }
        _ => unrouted(404, "no such route"),
    }
}

/// A request no route template claims.
fn unrouted(status: u16, message: &str) -> Routed {
    ("(unknown)", None, Err(HttpError::new(status, message)))
}

fn handle_metrics(ctx: &Ctx) -> Response {
    let gauges = RenderGauges {
        core_connections: ctx
            .core_connections
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect(),
        role_follower: Some(ctx.is_follower()),
        connections_open: ctx.open_connections.load(Ordering::Relaxed),
        sessions_live: ctx.registry.len(),
        sessions_recovered: ctx.registry.recovered_total(),
        sessions_evicted: ctx.registry.evicted_total(),
        migration_windows_open: ctx.registry.open_migrations(),
        schema_cache_hits: ctx.schemas.hits(),
        schema_cache_misses: ctx.schemas.misses(),
        store: ctx.registry.store().map(|s| s.stats()),
    };
    Response::text(200, ctx.metrics.render(&gauges))
}

fn handle_delete(ctx: &Ctx, id: u64) -> Result<Response, HttpError> {
    ctx.require_leader()?;
    ctx.record_wal(ctx.registry.remove(id)??);
    Ok(Response::json(200, "{\"deleted\":true}"))
}

/// Compacts the store (snapshot + drop superseded WAL segments). The
/// route is addressed to a session for symmetry with the rest of the
/// session API, but compaction covers the whole store.
fn handle_compact(ctx: &Ctx, id: u64) -> Result<Response, HttpError> {
    ctx.require_leader()?;
    ctx.registry.get(id)?;
    ctx.store()?;
    match ctx.registry.compact() {
        Ok(Some(outcome)) => Ok(Response::json(
            200,
            format!(
                "{{\"compacted\":true,\"generation\":{},\"sessions\":{},\
                 \"segments_removed\":{},\"snapshot_bytes\":{}}}",
                outcome.generation,
                outcome.sessions,
                outcome.segments_removed,
                outcome.snapshot_bytes
            ),
        )),
        Ok(None) => Err(HttpError::new(409, "compaction already in progress")),
        Err(e) => Err(HttpError::new(500, format!("compaction failed: {e}"))),
    }
}

/// Live schema migration on a session: `{"action": "plan"}` previews a
/// candidate schema's impact, `begin` opens a dual-schema window,
/// `commit` atomically swaps the session onto the candidate (refused
/// with `409` while the window has regressions, unless
/// `"force": true`; a `"force"` that is not a bool, like a `"lang"` that
/// is not a string, is a `400`), `abort` closes the window; the first
/// of each body member counts. `begin`, `commit` and `abort` are
/// WAL-logged as `SchemaChange` records, so open windows
/// survive crashes and replicate to followers; each moves
/// `session.meta` through [`pg_store::SessionMeta::schema_change`], the
/// same bookkeeping recovery and followers run on those records.
fn handle_migrate(ctx: &Ctx, request: &Request, id: u64) -> Result<Response, HttpError> {
    ctx.require_leader()?;
    let [action, schema, lang, force] =
        body_members(request, ["action", "schema", "lang", "force"])?;
    let action = action.and_then(string_value);
    let action = match action.as_deref() {
        Some(action @ ("plan" | "begin" | "commit" | "abort")) => action,
        Some(other) => return Err(HttpError::new(400, format!("unknown action {other:?}"))),
        None => return Err(missing_string("action")),
    };
    with_session(ctx, id, |session| match action {
        "plan" => migrate_plan(ctx, migration_candidate(schema, lang)?.0, session, id),
        "begin" => migrate_begin(ctx, migration_candidate(schema, lang)?, session, id),
        "commit" => migrate_commit(ctx, force, session, id),
        _ => migrate_abort(ctx, session, id),
    })
}

/// The candidate schema of a `plan` / `begin` body and its canonical
/// SDL. An optional `"lang"` field lets migration windows cross
/// languages: a pgschema candidate is compiled and stored as its
/// pragma-tagged lowered SDL, so the SchemaChange WAL record (and every
/// follower) carries the language too. Compiled afresh, not through the
/// schema cache: `begin` hands the candidate to the session by value.
fn migration_candidate(
    schema: Option<Reader<'_>>,
    lang: Option<Reader<'_>>,
) -> Result<(PgSchema, String), HttpError> {
    let source = str_member(schema, "schema")?;
    let lang = match optional(lang, "lang", "a string", string_value)? {
        None => SchemaLanguage::Sdl,
        Some(name) => name
            .parse()
            .map_err(|e: pgraph::ParseEnumError| HttpError::new(400, format!("lang: {e}")))?,
    };
    Ok(pg_pgschema::load_schema(&source, lang)?)
}

fn plan_response(id: u64, action: &str, plan: &pg_schema::migrate::MigrationPlan) -> Response {
    Response::json(
        200,
        format!(
            "{{\"session\":{id},\"action\":\"{action}\",\"plan\":{}}}",
            plan.to_json()
        ),
    )
}

fn migrate_plan(
    ctx: &Ctx,
    candidate: PgSchema,
    session: &mut Session,
    id: u64,
) -> Result<Response, HttpError> {
    let engine = session.engine()?;
    let plan = pg_schema::migrate::plan(
        engine.graph(),
        engine.schema(),
        &candidate,
        engine.options(),
    );
    ctx.metrics.record_migration_action(MigrationAction::Plan);
    Ok(plan_response(id, "plan", &plan))
}

fn migrate_begin(
    ctx: &Ctx,
    (candidate, sdl): (PgSchema, String),
    session: &mut Session,
    id: u64,
) -> Result<Response, HttpError> {
    if session.meta.pending_migration.is_some() {
        return Err(HttpError::new(409, "a migration window is already open"));
    }
    ctx.log(session, |store| {
        store.append_schema_change(id, MigrationPhase::Begin, &sdl)
    })?;
    let plan = session.engine()?.begin_migration(candidate);
    session.meta.schema_change(MigrationPhase::Begin, sdl);
    ctx.metrics.record_migration_action(MigrationAction::Begin);
    Ok(plan_response(id, "begin", &plan))
}

/// The `409` of a `commit` / `abort` with nothing to close.
fn no_window() -> HttpError {
    HttpError::new(409, "no open migration window")
}

/// `meta.pending_migration` is set but the engine has no window: the
/// invariant [`Session::settle`] and hydration keep is broken. Answer,
/// do not panic — the reactor core serves every other connection too.
fn lost_window() -> HttpError {
    HttpError::new(
        500,
        "session records a pending migration its engine has no window for",
    )
}

fn migrate_commit(
    ctx: &Ctx,
    force: Option<Reader<'_>>,
    session: &mut Session,
    id: u64,
) -> Result<Response, HttpError> {
    let force = optional(force, "force", "a boolean", |mut value| {
        value.scalar().ok()?.as_bool()
    })?
    .unwrap_or(false);
    if session.meta.pending_migration.is_none() {
        return Err(no_window());
    }
    let regressions = session
        .engine()?
        .migration_regressions()
        .ok_or_else(lost_window)?;
    if !regressions.is_empty() && !force {
        return Ok(Response::json(
            409,
            format!(
                "{{\"committed\":false,\"regressions\":{},\
                 \"error\":\"window has regressions; pass force to commit anyway\"}}",
                regressions.len()
            ),
        ));
    }
    ctx.log(session, |store| {
        store.append_schema_change(id, MigrationPhase::Commit, "")
    })?;
    let engine = session.engine()?;
    if !engine.commit_migration() {
        return Err(lost_window());
    }
    let report = engine.report();
    session
        .meta
        .schema_change(MigrationPhase::Commit, String::new());
    ctx.metrics.record_migration_action(MigrationAction::Commit);
    let mut body = "{\"committed\":true,\"report\":".to_owned();
    report.write_json(&mut body);
    body.push('}');
    Ok(Response::json(200, body))
}

fn migrate_abort(ctx: &Ctx, session: &mut Session, id: u64) -> Result<Response, HttpError> {
    if session.meta.pending_migration.is_none() {
        return Err(no_window());
    }
    ctx.log(session, |store| {
        store.append_schema_change(id, MigrationPhase::Abort, "")
    })?;
    // A dormant session's window exists only as the pending SDL;
    // clearing it is the whole abort — no need to hydrate.
    let effect = session
        .meta
        .schema_change(MigrationPhase::Abort, String::new());
    session.settle(effect);
    ctx.metrics.record_migration_action(MigrationAction::Abort);
    Ok(Response::json(200, "{\"aborted\":true}"))
}

/// `GET /wal/tail?from=<seq>`: a bounded batch of raw WAL frames with
/// `seq >= from`, chunked-transfer encoded (one chunk per frame). The
/// response headers carry the cursor for the next poll (`x-wal-next-from`),
/// the log end at read time (`x-wal-end-seq`) and the bytes still
/// unshipped (`x-wal-remaining-bytes`). `410` when `from` precedes what
/// compaction retained — the caller must bootstrap from `/wal/snapshot`.
fn handle_wal_tail(ctx: &Ctx, request: &Request) -> Result<Response, HttpError> {
    let store = ctx.store()?;
    let from = match request.query_param("from").map(str::parse::<u64>) {
        Some(Ok(from)) if from >= 1 => from,
        Some(_) => {
            return Err(HttpError::new(
                400,
                "query parameter `from` must be a sequence number >= 1",
            ))
        }
        None => return Err(HttpError::new(400, "missing query parameter `from`")),
    };
    match store.read_tail(from, TAIL_BATCH_BYTES) {
        Ok(pg_store::Tail::Batch(batch)) => {
            let next_from = batch.next_from.to_string();
            let end_seq = batch.end_seq.to_string();
            let remaining = batch.remaining_bytes.to_string();
            Ok(Response::chunked(200, batch.frames)
                .with_header("x-wal-next-from", &next_from)
                .with_header("x-wal-end-seq", &end_seq)
                .with_header("x-wal-remaining-bytes", &remaining))
        }
        Ok(pg_store::Tail::SnapshotRequired { oldest_retained }) => Err(HttpError::new(
            410,
            format!(
                "sequence {from} was compacted away (oldest retained: {oldest_retained}); \
                 bootstrap from GET /wal/snapshot"
            ),
        )
        .with_header("x-wal-oldest-retained", oldest_retained.to_string())),
        Err(e) => Err(HttpError::new(500, format!("wal read failed: {e}"))),
    }
}

/// `GET /wal/snapshot`: a consistent point-in-time snapshot blob for
/// bootstrapping a follower (see [`SessionRegistry::handoff_snapshot`]).
fn handle_wal_snapshot(ctx: &Ctx) -> Result<Response, HttpError> {
    let blob = ctx.registry.handoff_snapshot().ok_or_else(no_store)?;
    Ok(Response::octets(200, blob))
}

/// `POST /promote`: asks a follower to become the leader. Sets the
/// promotion flag and waits (bounded) for the follower loop to observe
/// it, sync the store and flip the role. Idempotent on a leader.
fn handle_promote(ctx: &Ctx) -> Result<Response, HttpError> {
    let promoted = ctx.is_follower();
    if promoted {
        ctx.promote.store(true, Ordering::Relaxed);
        let deadline = Instant::now() + PROMOTE_TIMEOUT;
        while ctx.is_follower() {
            if Instant::now() >= deadline {
                return Err(HttpError::new(
                    503,
                    "promotion did not complete in time; retry",
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    Ok(Response::json(
        200,
        format!("{{\"role\":\"leader\",\"promoted\":{promoted}}}"),
    ))
}

/// Compacts in the background of the request that tipped the WAL over
/// the configured size threshold (after its response has been routed).
fn maybe_compact(ctx: &Ctx) {
    let Some(store) = ctx.registry.store() else {
        return;
    };
    if ctx.compact_after_bytes == 0 || store.wal_size_bytes() < ctx.compact_after_bytes {
        return;
    }
    let line = match ctx.registry.compact() {
        Ok(Some(outcome)) => format!(
            "store: auto-compacted to generation {} ({} session(s), {} segment(s) removed)",
            outcome.generation, outcome.sessions, outcome.segments_removed
        ),
        Ok(None) => return, // another core is already compacting
        Err(e) => format!("store: auto-compaction failed: {e}"),
    };
    if ctx.log_format != LogFormat::Off {
        eprintln!("{line}");
    }
}

/// A query parameter naming one spelling of an enum (`?engine=`,
/// `?lang=`); `default` when absent.
fn enum_param<T>(request: &Request, name: &str, default: T) -> Result<T, HttpError>
where
    T: std::str::FromStr<Err = pgraph::ParseEnumError>,
{
    match request.query_param(name) {
        None => Ok(default),
        Some(value) => Ok(value.parse()?),
    }
}

/// The engines `POST /validate?engine=` serves: those with Theorem 1's
/// near-linear bound. `naive`, the paper's rules transcribed as
/// O(n²–n³) loops, is the oracle the others are checked against; it
/// runs in process (`pgschema validate --engine naive`,
/// [`crate::workload::oracle`]), never on a core that serves other
/// connections.
pub const SERVED_ENGINES: &[&str] = &["indexed", "parallel", "incremental"];

/// The most violations a `POST /validate` report holds, about 11 MB of
/// DS7 JSON: past it the report says `"truncated": true` and the engines
/// stop scanning. One keyed type whose n nodes share a key has n(n-1)/2
/// violations, so without a cap a 60 KB graph asks for a report of tens
/// of megabytes. Session reports are not capped: incremental repair
/// needs the whole violation set as its state.
pub const SERVED_MAX_VIOLATIONS: usize = 100_000;

/// The `?engine=` of `POST /validate`, [`Engine::Indexed`] when absent.
/// Anything outside [`SERVED_ENGINES`], `naive` included, is a `400`
/// naming them, decided before the body is decoded.
fn served_engine(request: &Request) -> Result<Engine, HttpError> {
    match request.query_param("engine") {
        None => Ok(Engine::Indexed),
        Some(name) if SERVED_ENGINES.contains(&name) => Ok(name.parse()?),
        Some(name) => {
            Err(pgraph::ParseEnumError::new("served engine", name, SERVED_ENGINES).into())
        }
    }
}

/// Decodes the `{"schema": <schema string>, "graph": <graph document>}`
/// envelope shared by `POST /validate` and `POST /sessions` in one pass
/// over the body, with no [`json::Json`] tree. The first `"schema"` member goes
/// through the compiled-schema cache; the first `"graph"` member is read
/// straight into the sink `sink_for` makes from the compiled schema —
/// columns for `/validate`, rows for `/sessions`. A `"graph"` that comes
/// before the schema is skipped with a syntax check and re-read from its
/// bookmark once the schema is known; every other member is skipped the
/// same way. The canonical SDL (see [`pg_pgschema::load_schema`]) comes
/// along because durable sessions persist it.
fn parse_envelope<S: GraphSink>(
    ctx: &Ctx,
    request: &Request,
    lang: SchemaLanguage,
    sink_for: impl Fn(&CompiledSchema) -> S,
) -> Result<(Arc<CompiledSchema>, S), HttpError> {
    let mut reader = Reader::new(body_text(request)?);
    if reader.peek()? != Kind::Object {
        // Only a syntax error outranks the missing schema.
        reader.skip_value()?;
        reader.finish()?;
        return Err(missing_string("schema"));
    }
    reader.begin_object()?;
    let mut schema = None;
    // `Ok`: decoded in place; `Err`: a bookmark, the schema not yet known.
    let mut graph = None;
    while let Some(key) = reader.next_key()? {
        match &*key {
            // The first `"schema"` either compiles or ends the request.
            "schema" if schema.is_none() => {
                if reader.peek()? != Kind::Str {
                    return Err(missing_string("schema"));
                }
                schema = Some(ctx.schemas.load(&reader.string()?, lang)?);
            }
            "graph" if graph.is_none() => {
                graph = Some(match &schema {
                    Some(compiled) => Ok(read_graph(&mut reader, sink_for(compiled))?),
                    None => {
                        let bookmark = reader.clone();
                        reader.skip_value()?;
                        Err(bookmark)
                    }
                });
            }
            _ => reader.skip_value()?,
        }
    }
    reader.finish()?;
    let compiled = schema.ok_or_else(|| missing_string("schema"))?;
    let graph = match graph {
        Some(Ok(sink)) => sink,
        Some(Err(mut bookmark)) => read_graph(&mut bookmark, sink_for(&compiled))?,
        None => return Err(HttpError::new(400, "missing field \"graph\"")),
    };
    Ok((compiled, graph))
}

/// The graph document at the reader's cursor, decoded into `sink`.
fn read_graph<S: GraphSink>(reader: &mut Reader<'_>, mut sink: S) -> Result<S, HttpError> {
    json::read_graph(reader, &mut sink).map_err(|e| HttpError::new(400, format!("graph: {e}")))?;
    Ok(sink)
}

fn handle_validate(ctx: &Ctx, request: &Request, engine: Engine) -> Result<Response, HttpError> {
    let lang = enum_param(request, "lang", SchemaLanguage::Sdl)?;
    let (compiled, columns) = parse_envelope(ctx, request, lang, |compiled| {
        compiled.schema.columns_builder()
    })?;
    let options = ValidationOptions::builder()
        .engine(engine)
        .collect_metrics(true)
        .max_violations(SERVED_MAX_VIOLATIONS)
        .build();
    let report = validate_columns(&columns.finish(), &compiled.schema, &options);
    ctx.metrics.record_validation(engine, report.metrics());
    Ok(Response::json(200, report.to_json()))
}

/// `POST /check-sat`: finite-model satisfiability of one type (or one
/// field) of the posted schema, through [`pg_reason::check`]. Body:
/// `{"schema": <text>, "type": <name>, "field"?: <name>, "max_size"?: K}`,
/// with `?lang=` selecting the schema language as on `/validate`; the
/// first of each member counts, and a `"field"` that is not a string or
/// a `"max_size"` that is not a positive integer is a `400`.
/// Answers `{"result": "satisfiable", "witness_size": N}`,
/// `{"result": "unsatisfiable"}`, or `{"result": "no_finite_model",
/// "bound": K, "tableau_satisfiable": bool|null}` — all with status 200;
/// the check itself succeeded either way. `bound` is the largest size
/// fully refuted, below `max_size` when the reasoner's step budget ran
/// out first; that budget bounds the time this core spends here.
fn handle_check_sat(ctx: &Ctx, request: &Request) -> Result<Response, HttpError> {
    let lang = enum_param(request, "lang", SchemaLanguage::Sdl)?;
    let [schema, type_name, field, max_size] =
        body_members(request, ["schema", "type", "field", "max_size"])?;
    let source = str_member(schema, "schema")?;
    let type_name = str_member(type_name, "type")?;
    let compiled = ctx.schemas.load(&source, lang)?;
    let mut config = pg_reason::ReasonerConfig::default();
    let max_size = optional(max_size, "max_size", "a positive integer", |mut value| {
        value.scalar().ok()?.as_i64().filter(|&k| k >= 1)
    })?;
    if let Some(k) = max_size {
        config.max_graph_size = k as usize;
    }
    let field = optional(field, "field", "a string", string_value)?;
    let result = pg_reason::check(&compiled.schema, &type_name, field.as_deref(), &config)
        .map_err(|message| HttpError::new(400, message))?;
    let mut body = String::with_capacity(96);
    body.push_str("{\"type\":\"");
    json::escape_into(&mut body, &type_name);
    match result {
        pg_reason::Satisfiability::Satisfiable { size, .. } => {
            body.push_str(&format!(
                "\",\"result\":\"satisfiable\",\"witness_size\":{size}}}"
            ));
        }
        pg_reason::Satisfiability::Unsatisfiable => {
            body.push_str("\",\"result\":\"unsatisfiable\"}");
        }
        pg_reason::Satisfiability::NoFiniteModelFound {
            bound,
            tableau_satisfiable,
        } => {
            body.push_str(&format!(
                "\",\"result\":\"no_finite_model\",\"bound\":{bound},\"tableau_satisfiable\":{}}}",
                match tableau_satisfiable {
                    Some(b) => b.to_string(),
                    None => "null".to_owned(),
                }
            ));
        }
    }
    Ok(Response::json(200, body))
}

fn handle_create_session(ctx: &Ctx, request: &Request) -> Result<Response, HttpError> {
    ctx.require_leader()?;
    let lang = enum_param(request, "lang", SchemaLanguage::Sdl)?;
    let (compiled, graph) = parse_envelope(ctx, request, lang, |_| PropertyGraph::new())?;
    let options = ValidationOptions::builder().collect_metrics(true).build();
    let created = ctx
        .registry
        .create(graph, Arc::clone(&compiled.schema), &compiled.sdl, &options)
        .map_err(|e| HttpError::new(500, format!("failed to persist session: {e}")))?;
    ctx.record_wal(created.wal_micros);
    let report = created.slot.session.lock().unwrap().engine()?.report();
    ctx.metrics
        .record_validation(Engine::Incremental, report.metrics());
    let mut body = format!(
        "{{\"session\":{},\"lang\":\"{}\",\"report\":",
        created.id,
        lang.name()
    );
    report.write_json(&mut body);
    body.push('}');
    Ok(Response::json(201, body))
}

fn handle_delta(ctx: &Ctx, request: &Request, id: u64) -> Result<Response, HttpError> {
    ctx.require_leader()?;
    let delta = json::delta_from_json(body_text(request)?)?;
    let (outcome, deltas_applied, report) = with_session(ctx, id, |session| {
        let applied = session.engine()?.apply(&delta);
        // Log the delta whether or not it applied cleanly: a failed apply
        // still leaves its deterministic partial effects on the graph
        // (the engine reseeds around them), and replay reproduces exactly
        // those.
        ctx.log(session, |store| store.append_delta(id, &delta))?;
        session.meta.delta_ran(applied.is_ok());
        // The delta named elements the session's graph does not have:
        // report the conflict to the client.
        let outcome = applied.map_err(|e| HttpError::new(409, e.to_string()))?;
        let report = session.engine()?.report();
        Ok((outcome, session.meta.deltas_applied, report))
    })?;
    ctx.metrics
        .record_validation(Engine::Incremental, report.metrics());
    let mut body = format!(
        "{{\"outcome\":{{\"elements_rechecked\":{},\"elements_total\":{},\
         \"violations_added\":{},\"violations_removed\":{}}},\
         \"deltas_applied\":{},\"report\":",
        outcome.elements_rechecked,
        outcome.elements_total,
        outcome.violations_added,
        outcome.violations_removed,
        deltas_applied
    );
    report.write_json(&mut body);
    body.push('}');
    Ok(Response::json(200, body))
}

/// Recovered sessions hydrate here: their first report is a full
/// revalidation through the incremental engine's seeding pass.
fn handle_report(ctx: &Ctx, id: u64) -> Result<Response, HttpError> {
    let report = with_session(ctx, id, |session| Ok(session.engine()?.report()))?;
    Ok(Response::json(200, report.to_json()))
}

/// The graph is served without hydrating — dormant sessions keep their
/// recovery cheap until something asks for a report (a mapped graph does
/// materialize here: JSON needs the elements).
fn handle_graph(ctx: &Ctx, id: u64) -> Result<Response, HttpError> {
    with_session(ctx, id, |session| {
        Ok(Response::json(200, json::to_json(session.graph()?)))
    })
}

/// Writes the one-line request log to stderr.
fn log_request(
    format: LogFormat,
    method: &str,
    path: &str,
    status: u16,
    micros: u64,
    engine: Option<&'static str>,
) {
    let line = match format {
        LogFormat::Off => return,
        LogFormat::Text => format!(
            "method={method} path={path} status={status} micros={micros} engine={}",
            engine.unwrap_or("-")
        ),
        LogFormat::Json => {
            let mut line = String::with_capacity(96);
            line.push_str("{\"method\":\"");
            json::escape_into(&mut line, method);
            line.push_str("\",\"path\":\"");
            json::escape_into(&mut line, path);
            line.push_str(&format!(
                "\",\"status\":{status},\"micros\":{micros},\"engine\":"
            ));
            match engine {
                Some(engine) => line.push_str(&format!("\"{engine}\"")),
                None => line.push_str("null"),
            }
            line.push('}');
            line
        }
    };
    let stderr = io::stderr();
    let mut out = stderr.lock();
    let _ = writeln!(out, "{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_paths_parse() {
        assert_eq!(
            parse_session_path("/sessions/7/deltas"),
            Some((7, "deltas"))
        );
        assert_eq!(parse_session_path("/sessions/12"), Some((12, "")));
        assert_eq!(parse_session_path("/sessions/x/report"), None);
        assert_eq!(parse_session_path("/metrics"), None);
    }

    #[test]
    fn log_formats_parse() {
        assert_eq!("text".parse(), Ok(LogFormat::Text));
        assert_eq!("json".parse(), Ok(LogFormat::Json));
        assert_eq!("off".parse(), Ok(LogFormat::Off));
        let err = "xml".parse::<LogFormat>().unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown log format `xml` (expected text|json|off)"
        );
    }

    #[test]
    fn config_builder_overrides_defaults() {
        let config = ServerConfig::builder()
            .addr("127.0.0.1:0")
            .cores(3)
            .max_connections(17)
            .log_format(LogFormat::Off)
            .compact_after_bytes(0)
            .max_sessions(9)
            .follow("10.0.0.1:7878")
            .build();
        assert_eq!(config.addr, "127.0.0.1:0");
        assert_eq!(config.cores, 3);
        assert_eq!(config.max_connections, 17);
        assert_eq!(config.log_format, LogFormat::Off);
        assert_eq!(config.compact_after_bytes, 0);
        assert_eq!(config.max_sessions, Some(9));
        assert_eq!(config.follow.as_deref(), Some("10.0.0.1:7878"));
        // Untouched fields keep their defaults.
        assert_eq!(config.fsync, pg_store::FsyncPolicy::Always);
        assert!(config.data_dir.is_none());
    }
}
