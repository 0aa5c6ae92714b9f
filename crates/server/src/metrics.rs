//! Server instrumentation behind `GET /metrics`, rendered in the
//! Prometheus text exposition format. Everything on the hot path is a
//! relaxed atomic increment; the only lock is the per-`(route, status)`
//! request-count map, which touches a handful of entries and is held for
//! nanoseconds.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use pg_schema::{Engine, Rule, ValidationMetrics};

/// Upper bounds (µs) of the request-latency histogram buckets; the last
/// implicit bucket is `+Inf`.
pub const LATENCY_BUCKETS_MICROS: [u64; 10] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 250_000,
];

/// Upper bounds (µs) of the WAL append-latency histogram. Appends are
/// a buffered write plus, depending on the fsync policy, an `fdatasync`
/// — so the buckets reach lower than the request histogram (a cached
/// append is single-digit µs) but still cover slow rotational syncs.
pub const WAL_LATENCY_BUCKETS_MICROS: [u64; 8] = [5, 10, 25, 50, 100, 500, 2_500, 10_000];

/// Upper bounds of the events-per-`epoll_wait` histogram (how much work
/// each reactor wakeup batches); the last implicit bucket is `+Inf`.
/// Zero-event wakeups (timeout ticks) are not recorded.
pub const WAKEUP_EVENT_BUCKETS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Gauges and store counters sampled outside [`Metrics`] at render time
/// (open connections, live/evicted/recovered session counts, and — when
/// the server runs with `--data-dir` — the store's own counters).
#[derive(Default)]
pub struct RenderGauges {
    /// Connections currently open, per reactor core (index = core).
    pub core_connections: Vec<usize>,
    /// Whether this process currently serves as a replication follower
    /// (`Some(true)`), a leader (`Some(false)`), or runs outside a
    /// server (`None` — the role gauge is then omitted).
    pub role_follower: Option<bool>,
    /// Connections currently open across all cores (sampled separately
    /// from the per-core gauges, so the sum may differ transiently while
    /// a connection migrates).
    pub connections_open: usize,
    /// Sessions currently held by the registry.
    pub sessions_live: usize,
    /// Sessions rebuilt from the store at startup.
    pub sessions_recovered: u64,
    /// Sessions evicted by `--max-sessions` since startup.
    pub sessions_evicted: u64,
    /// Sessions currently inside an open dual-schema migration window.
    pub migration_windows_open: usize,
    /// Posted schemas served from the compiled-schema cache.
    pub schema_cache_hits: u64,
    /// Posted schemas the cache did not hold, so they were compiled
    /// (failed compiles included).
    pub schema_cache_misses: u64,
    /// The store's counters, when the server is durable.
    pub store: Option<pg_store::StoreStats>,
}

/// A schema-migration API action, counted per kind. The discriminant
/// indexes the private `MIGRATION_ACTIONS` name table.
#[derive(Debug, Clone, Copy)]
pub enum MigrationAction {
    /// Impact analysis only (no window opened).
    Plan = 0,
    /// A dual-schema window was opened.
    Begin = 1,
    /// An open window committed (schema swapped).
    Commit = 2,
    /// An open window was abandoned.
    Abort = 3,
}

/// Label values for `pgschemad_migration_actions_total`, indexed by
/// [`MigrationAction`] discriminant.
const MIGRATION_ACTIONS: [&str; 4] = ["plan", "begin", "commit", "abort"];

/// [`ReplicationMetrics::state`] value: not replicating (leader, or no
/// `--follow` configured).
pub const REPL_STATE_NONE: u64 = 0;
/// [`ReplicationMetrics::state`] value: follower trying to (re)connect.
pub const REPL_STATE_CONNECTING: u64 = 1;
/// [`ReplicationMetrics::state`] value: follower tailing the leader.
pub const REPL_STATE_TAILING: u64 = 2;
/// [`ReplicationMetrics::state`] value: follower lost the leader and is
/// backing off between reconnect attempts.
pub const REPL_STATE_STALLED: u64 = 3;

/// Follower-side replication counters, mutated by the follower thread
/// with relaxed stores and rendered alongside everything else. All zero
/// on a leader.
#[derive(Default)]
pub struct ReplicationMetrics {
    /// Current follower state; one of the `REPL_STATE_*` constants.
    pub state: AtomicU64,
    /// Records the leader holds that this follower has not yet applied
    /// (`end_seq - next_from` of the last tail response).
    pub lag_records: AtomicU64,
    /// Bytes of WAL frames the leader holds beyond the last batch this
    /// follower received.
    pub lag_bytes: AtomicU64,
    /// Reconnect attempts since startup (the first connect counts).
    pub reconnects_total: AtomicU64,
    /// WAL records applied from the leader since startup.
    pub records_applied_total: AtomicU64,
    /// Sequence number of the newest record applied from the leader.
    pub last_applied_seq: AtomicU64,
}

const ENGINES: [Engine; 4] = [
    Engine::Naive,
    Engine::Indexed,
    Engine::Parallel,
    Engine::Incremental,
];

/// Per-engine counters aggregated from [`ValidationMetrics`] of the runs
/// the server executed.
#[derive(Default)]
struct EngineCounters {
    validations: AtomicU64,
    nodes_scanned: AtomicU64,
    edges_scanned: AtomicU64,
    elements_rechecked: AtomicU64,
    elements_total: AtomicU64,
}

/// A fixed-bucket histogram over `N` upper bounds plus the implicit
/// `+Inf` bucket, and the sum of everything recorded — relaxed atomics
/// in fixed arrays, two adds per sample. The bounds are one of the
/// `*_BUCKETS*` constants, named by the caller rather than stored beside
/// the counters the cores write; the sample count is not stored either:
/// it is what the buckets add up to.
struct Histogram<const N: usize> {
    /// Samples at or below each bound (and above the previous one).
    buckets: [AtomicU64; N],
    /// Samples above the last bound.
    overflow: AtomicU64,
    sum: AtomicU64,
}

impl<const N: usize> Histogram<N> {
    fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn record(&self, bounds: &[u64; N], value: u64) {
        let bucket = match bounds.iter().position(|&bound| value <= bound) {
            Some(i) => &self.buckets[i],
            None => &self.overflow,
        };
        bucket.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Writes the family: cumulative `_bucket` samples, `_sum`, `_count`.
    fn render(&self, out: &mut String, bounds: &[u64; N], name: &str, help: &str) {
        family(out, name, help, "histogram", &[]);
        let mut cumulative = 0u64;
        for (bound, bucket) in bounds.iter().zip(&self.buckets) {
            cumulative += bucket.load(Ordering::Relaxed);
            out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
        }
        cumulative += self.overflow.load(Ordering::Relaxed);
        out.push_str(&format!(
            "{name}_bucket{{le=\"+Inf\"}} {cumulative}\n{name}_sum {}\n{name}_count {cumulative}\n",
            self.sum.load(Ordering::Relaxed)
        ));
    }
}

/// Writes one metric family: its `# HELP` and `# TYPE` lines, then one
/// line per `(label set, value)` sample — the label set rendered as
/// `{name="value"}`, or empty for an unlabelled metric.
fn family(out: &mut String, name: &str, help: &str, kind: &str, samples: &[(String, u64)]) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    for (labels, value) in samples {
        out.push_str(&format!("{name}{labels} {value}\n"));
    }
}

/// The single sample of an unlabelled metric.
fn one(value: u64) -> [(String, u64); 1] {
    [(String::new(), value)]
}

/// One sample per item, labelled `{label="<item>"}`.
fn labelled<T: std::fmt::Display>(
    label: &str,
    samples: impl IntoIterator<Item = (T, u64)>,
) -> Vec<(String, u64)> {
    let samples = samples.into_iter();
    samples
        .map(|(item, value)| (format!("{{{label}=\"{item}\"}}"), value))
        .collect()
}

/// All counters the daemon exports. One instance lives for the server's
/// lifetime, shared by every worker via `Arc`.
pub struct Metrics {
    /// `(route template, status)` → request count.
    requests: Mutex<BTreeMap<(&'static str, u16), u64>>,
    /// Request latency over [`LATENCY_BUCKETS_MICROS`].
    latency: Histogram<{ LATENCY_BUCKETS_MICROS.len() }>,
    /// Connections shed with `503` because the connection cap was hit.
    shed: AtomicU64,
    /// Connections accepted since startup (shed ones included).
    accepted: AtomicU64,
    /// `epoll_wait` returns that delivered at least one event, per core.
    wakeups: Vec<AtomicU64>,
    /// Events per wakeup over [`WAKEUP_EVENT_BUCKETS`], aggregated
    /// across cores.
    wakeup_events: Histogram<{ WAKEUP_EVENT_BUCKETS.len() }>,
    /// Schema-migration API actions, indexed like [`MIGRATION_ACTIONS`].
    migration_actions: [AtomicU64; MIGRATION_ACTIONS.len()],
    /// Per-engine validation counters, indexed like [`ENGINES`].
    engines: [EngineCounters; 4],
    /// Violations found per rule across all runs, indexed like
    /// [`Rule::ALL`].
    rule_violations: [AtomicU64; Rule::ALL.len()],
    /// Wall time spent per rule kernel across all runs (nanoseconds),
    /// indexed like [`Rule::ALL`].
    rule_nanos: [AtomicU64; Rule::ALL.len()],
    /// WAL append latency (includes the fsync when the policy syncs on
    /// the append path) over [`WAL_LATENCY_BUCKETS_MICROS`].
    wal_append: Histogram<{ WAL_LATENCY_BUCKETS_MICROS.len() }>,
    /// Follower-side replication counters (all zero on a leader).
    pub replication: ReplicationMetrics,
}

impl Metrics {
    /// Fresh, all-zero counters for a reactor with `cores` event loops.
    pub fn new(cores: usize) -> Self {
        Metrics {
            requests: Mutex::new(BTreeMap::new()),
            latency: Histogram::new(),
            shed: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            wakeups: (0..cores.max(1)).map(|_| AtomicU64::new(0)).collect(),
            wakeup_events: Histogram::new(),
            migration_actions: Default::default(),
            engines: Default::default(),
            rule_violations: Default::default(),
            rule_nanos: Default::default(),
            wal_append: Histogram::new(),
            replication: ReplicationMetrics::default(),
        }
    }

    /// Records the latency of one durable WAL append (write plus
    /// whatever syncing the fsync policy performed inline).
    pub fn record_wal_append(&self, micros: u64) {
        self.wal_append.record(&WAL_LATENCY_BUCKETS_MICROS, micros);
    }

    /// Records one served request: its route template (e.g.
    /// `/sessions/{id}/deltas`), status code and latency.
    pub fn record_request(&self, route: &'static str, status: u16, micros: u64) {
        *self
            .requests
            .lock()
            .unwrap()
            .entry((route, status))
            .or_insert(0) += 1;
        self.latency.record(&LATENCY_BUCKETS_MICROS, micros);
    }

    /// Records one connection shed with `503` by the accept thread.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections shed so far.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Records one accepted connection (whether served or shed).
    pub fn record_accept(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one productive `epoll_wait` return on `core` that
    /// delivered `events` (> 0) readiness events.
    pub fn record_wakeup(&self, core: usize, events: usize) {
        if let Some(w) = self.wakeups.get(core) {
            w.fetch_add(1, Ordering::Relaxed);
        }
        self.wakeup_events
            .record(&WAKEUP_EVENT_BUCKETS, events as u64);
    }

    /// Records one schema-migration API action on a session.
    pub fn record_migration_action(&self, action: MigrationAction) {
        self.migration_actions[action as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one validation run's [`ValidationMetrics`] into the
    /// per-engine counters.
    pub fn record_validation(&self, engine: Engine, m: Option<&ValidationMetrics>) {
        let c = &self.engines[engine_index(engine)];
        c.validations.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = m {
            c.nodes_scanned
                .fetch_add(m.nodes_scanned, Ordering::Relaxed);
            c.edges_scanned
                .fetch_add(m.edges_scanned, Ordering::Relaxed);
            c.elements_rechecked
                .fetch_add(m.elements_rechecked, Ordering::Relaxed);
            c.elements_total
                .fetch_add(m.elements_total, Ordering::Relaxed);
            for rm in &m.rules {
                let i = rule_index(rm.rule);
                self.rule_violations[i].fetch_add(rm.violations as u64, Ordering::Relaxed);
                self.rule_nanos[i].fetch_add(rm.nanos, Ordering::Relaxed);
            }
        }
    }

    /// Renders every counter in the Prometheus text format. Gauges that
    /// live outside this struct — queue depth, session counts and the
    /// store's counters — are sampled by the caller into a
    /// [`RenderGauges`] at render time.
    pub fn render(&self, g: &RenderGauges) -> String {
        let mut text = String::with_capacity(4096);
        let out = &mut text;
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);

        let requests: Vec<(String, u64)> = {
            let requests = self.requests.lock().unwrap();
            let sample = |((route, status), count): (&(&str, u16), &u64)| {
                (format!("{{route=\"{route}\",status=\"{status}\"}}"), *count)
            };
            requests.iter().map(sample).collect()
        };
        family(
            out,
            "pgschemad_http_requests_total",
            "Requests served, by route and status.",
            "counter",
            &requests,
        );
        self.latency.render(
            out,
            &LATENCY_BUCKETS_MICROS,
            "pgschemad_request_duration_micros",
            "Request latency histogram (microseconds).",
        );

        type Getter = fn(&EngineCounters) -> &AtomicU64;
        let by_engine: [(&str, &str, Getter); 5] = [
            (
                "pgschemad_validations_total",
                "Validation runs, by engine.",
                |c| &c.validations,
            ),
            (
                "pgschemad_nodes_scanned_total",
                "Nodes scanned by validation runs, by engine.",
                |c| &c.nodes_scanned,
            ),
            (
                "pgschemad_edges_scanned_total",
                "Edges scanned by validation runs, by engine.",
                |c| &c.edges_scanned,
            ),
            (
                "pgschemad_elements_rechecked_total",
                "Elements re-checked (dirty region for incremental runs), by engine.",
                |c| &c.elements_rechecked,
            ),
            (
                "pgschemad_elements_total",
                "Live elements of the validated graphs, by engine.",
                |c| &c.elements_total,
            ),
        ];
        for (name, help, get) in by_engine {
            let samples = ENGINES
                .iter()
                .zip(&self.engines)
                .map(|(engine, counters)| (engine.name(), load(get(counters))));
            family(out, name, help, "counter", &labelled("engine", samples));
        }
        let by_rule = |counters: &[AtomicU64]| {
            labelled("rule", Rule::ALL.iter().zip(counters.iter().map(load)))
        };
        family(
            out,
            "pgschemad_rule_violations_total",
            "Violations found by validation runs, by rule.",
            "counter",
            &by_rule(&self.rule_violations),
        );
        family(
            out,
            "pgschemad_rule_nanos_total",
            "Wall time spent per rule kernel (nanoseconds).",
            "counter",
            &by_rule(&self.rule_nanos),
        );

        family(
            out,
            "pgschemad_sessions_live",
            "Incremental sessions currently held.",
            "gauge",
            &one(g.sessions_live as u64),
        );
        family(
            out,
            "pgschemad_sessions_recovered_total",
            "Sessions rebuilt from the store at startup.",
            "counter",
            &one(g.sessions_recovered),
        );
        family(
            out,
            "pgschemad_sessions_evicted_total",
            "Sessions evicted by --max-sessions.",
            "counter",
            &one(g.sessions_evicted),
        );
        family(
            out,
            "pgschemad_connections_open",
            "Connections currently open.",
            "gauge",
            &one(g.connections_open as u64),
        );
        let per_core = g.core_connections.iter().map(|&count| count as u64);
        family(
            out,
            "pgschemad_core_connections",
            "Connections currently owned by each reactor core.",
            "gauge",
            &labelled("core", per_core.enumerate()),
        );
        family(
            out,
            "pgschemad_connections_accepted_total",
            "Connections accepted since startup.",
            "counter",
            &one(load(&self.accepted)),
        );
        family(
            out,
            "pgschemad_shed_total",
            "Connections shed with 503 (at the connection cap).",
            "counter",
            &one(self.shed_count()),
        );
        family(
            out,
            "pgschemad_wakeups_total",
            "Productive epoll_wait returns, by reactor core.",
            "counter",
            &labelled("core", self.wakeups.iter().map(load).enumerate()),
        );
        self.wakeup_events.render(
            out,
            &WAKEUP_EVENT_BUCKETS,
            "pgschemad_wakeup_events",
            "Events delivered per productive epoll_wait return.",
        );

        let actions = MIGRATION_ACTIONS
            .iter()
            .zip(self.migration_actions.iter().map(load));
        family(
            out,
            "pgschemad_migration_actions_total",
            "Schema-migration actions taken, by action.",
            "counter",
            &labelled("action", actions),
        );
        family(
            out,
            "pgschemad_migration_windows_open",
            "Sessions currently inside an open dual-schema migration window.",
            "gauge",
            &one(g.migration_windows_open as u64),
        );
        self.wal_append.render(
            out,
            &WAL_LATENCY_BUCKETS_MICROS,
            "pgschemad_wal_append_duration_micros",
            "WAL append latency histogram (microseconds; includes inline fsync).",
        );

        if let Some(follower) = g.role_follower {
            family(
                out,
                "pgschemad_replication_follower",
                "1 while this process is a follower, 0 once it is (or becomes) the leader.",
                "gauge",
                &one(u64::from(follower)),
            );
        }
        let r = &self.replication;
        let mut unlabelled: Vec<(&str, &str, &str, u64)> = vec![
            (
                "pgschemad_schema_cache_hits_total",
                "Posted schemas served from the compiled-schema cache.",
                "counter",
                g.schema_cache_hits,
            ),
            (
                "pgschemad_schema_cache_misses_total",
                "Posted schemas compiled because the cache did not hold them.",
                "counter",
                g.schema_cache_misses,
            ),
            (
                "pgschemad_replication_state",
                "Follower state: 0 none, 1 connecting, 2 tailing, 3 stalled.",
                "gauge",
                load(&r.state),
            ),
            (
                "pgschemad_replication_lag_records",
                "Leader records not yet applied by this follower.",
                "gauge",
                load(&r.lag_records),
            ),
            (
                "pgschemad_replication_lag_bytes",
                "Leader WAL bytes not yet received by this follower.",
                "gauge",
                load(&r.lag_bytes),
            ),
            (
                "pgschemad_replication_last_applied_seq",
                "Newest leader sequence number applied by this follower.",
                "gauge",
                load(&r.last_applied_seq),
            ),
            (
                "pgschemad_replication_reconnects_total",
                "Connection attempts to the leader since startup.",
                "counter",
                load(&r.reconnects_total),
            ),
            (
                "pgschemad_replication_records_applied_total",
                "WAL records applied from the leader since startup.",
                "counter",
                load(&r.records_applied_total),
            ),
        ];
        if let Some(stats) = &g.store {
            unlabelled.extend([
                (
                    "pgschemad_wal_appends_total",
                    "Records appended to the WAL since startup.",
                    "counter",
                    stats.appends,
                ),
                (
                    "pgschemad_wal_fsyncs_total",
                    "Explicit fsyncs issued by the store since startup.",
                    "counter",
                    stats.fsyncs,
                ),
                (
                    "pgschemad_wal_appended_bytes_total",
                    "Bytes appended to the WAL since startup.",
                    "counter",
                    stats.appended_bytes,
                ),
                (
                    "pgschemad_store_snapshots_total",
                    "Snapshots written by compaction since startup.",
                    "counter",
                    stats.snapshots,
                ),
                (
                    "pgschemad_wal_size_bytes",
                    "Live WAL bytes not yet superseded by a snapshot.",
                    "gauge",
                    stats.wal_size_bytes,
                ),
            ]);
        }
        for (name, help, kind, value) in unlabelled {
            family(out, name, help, kind, &one(value));
        }
        text
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new(1)
    }
}

fn rule_index(rule: Rule) -> usize {
    Rule::ALL
        .iter()
        .position(|&r| r == rule)
        .expect("Rule::ALL covers every rule")
}

fn engine_index(engine: Engine) -> usize {
    match engine {
        Engine::Naive => 0,
        Engine::Indexed => 1,
        Engine::Parallel => 2,
        Engine::Incremental => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_all_families() {
        let m = Metrics::new(2);
        m.record_request("/validate", 200, 120);
        m.record_request("/validate", 200, 80_000);
        m.record_request("/healthz", 200, 3);
        m.record_shed();
        m.record_accept();
        m.record_accept();
        m.record_wakeup(0, 3);
        m.record_wakeup(1, 70);
        m.record_migration_action(MigrationAction::Plan);
        m.record_validation(Engine::Indexed, None);
        m.record_wal_append(7);
        m.replication
            .state
            .store(REPL_STATE_TAILING, Ordering::Relaxed);
        m.replication.lag_records.store(12, Ordering::Relaxed);
        m.replication
            .reconnects_total
            .fetch_add(2, Ordering::Relaxed);
        let text = m.render(&RenderGauges {
            core_connections: vec![4, 3],
            role_follower: Some(true),
            connections_open: 7,
            sessions_live: 5,
            sessions_recovered: 3,
            sessions_evicted: 1,
            migration_windows_open: 2,
            schema_cache_hits: 41,
            schema_cache_misses: 3,
            store: Some(pg_store::StoreStats {
                appends: 9,
                appended_bytes: 4096,
                ..Default::default()
            }),
        });
        assert!(
            text.contains("pgschemad_http_requests_total{route=\"/validate\",status=\"200\"} 2")
        );
        assert!(text.contains("pgschemad_request_duration_micros_count 3"));
        assert!(text.contains("pgschemad_request_duration_micros_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("pgschemad_validations_total{engine=\"indexed\"} 1"));
        assert!(text.contains("pgschemad_sessions_live 5"));
        assert!(text.contains("pgschemad_sessions_recovered_total 3"));
        assert!(text.contains("pgschemad_sessions_evicted_total 1"));
        assert!(text.contains("pgschemad_connections_open 7"));
        assert!(text.contains("pgschemad_core_connections{core=\"0\"} 4"));
        assert!(text.contains("pgschemad_core_connections{core=\"1\"} 3"));
        assert!(text.contains("pgschemad_connections_accepted_total 2"));
        assert!(text.contains("pgschemad_wakeups_total{core=\"0\"} 1"));
        assert!(text.contains("pgschemad_wakeups_total{core=\"1\"} 1"));
        assert!(text.contains("pgschemad_wakeup_events_bucket{le=\"4\"} 1"));
        assert!(text.contains("pgschemad_wakeup_events_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("pgschemad_wakeup_events_sum 73"));
        assert!(text.contains("pgschemad_wakeup_events_count 2"));
        assert!(text.contains("pgschemad_migration_actions_total{action=\"plan\"} 1"));
        assert!(text.contains("pgschemad_migration_actions_total{action=\"commit\"} 0"));
        assert!(text.contains("pgschemad_migration_windows_open 2"));
        assert!(text.contains(
            "# TYPE pgschemad_schema_cache_hits_total counter\npgschemad_schema_cache_hits_total 41\n"
        ));
        assert!(text.contains("pgschemad_schema_cache_misses_total 3"));
        assert!(text.contains("pgschemad_shed_total 1"));
        assert!(text.contains("pgschemad_wal_append_duration_micros_bucket{le=\"10\"} 1"));
        assert!(text.contains("pgschemad_wal_append_duration_micros_count 1"));
        assert!(text.contains("pgschemad_wal_appends_total 9"));
        assert!(text.contains("pgschemad_wal_appended_bytes_total 4096"));
        assert!(text.contains("pgschemad_wal_size_bytes 0"));
        assert!(text.contains("pgschemad_replication_follower 1"));
        assert!(text.contains("pgschemad_replication_state 2"));
        assert!(text.contains("pgschemad_replication_lag_records 12"));
        assert!(text.contains("pgschemad_replication_reconnects_total 2"));
        // Per-rule families render a sample for every rule even before
        // any run recorded rule metrics.
        assert!(text.contains("pgschemad_rule_violations_total{rule=\"DS7\"} 0"));
        assert!(text.contains("pgschemad_rule_nanos_total{rule=\"SS4\"} 0"));
    }

    #[test]
    fn rule_counters_accumulate_across_runs() {
        use pg_schema::{RuleMetrics, ValidationMetrics};
        let m = Metrics::new(1);
        let run = |ws1_violations| ValidationMetrics {
            engine: "indexed",
            threads: 1,
            rules: vec![
                RuleMetrics {
                    rule: Rule::WS1,
                    nanos: 1_000,
                    elements_scanned: 10,
                    violations: ws1_violations,
                },
                RuleMetrics {
                    rule: Rule::DS7,
                    nanos: 500,
                    elements_scanned: 4,
                    violations: 1,
                },
            ],
            ..ValidationMetrics::default()
        };
        m.record_validation(Engine::Indexed, Some(&run(2)));
        m.record_validation(Engine::Parallel, Some(&run(3)));
        let text = m.render(&RenderGauges::default());
        // Without a store, the store-only families stay absent.
        assert!(!text.contains("pgschemad_wal_appends_total"));
        assert!(text.contains("pgschemad_rule_violations_total{rule=\"WS1\"} 5"));
        assert!(text.contains("pgschemad_rule_violations_total{rule=\"DS7\"} 2"));
        assert!(text.contains("pgschemad_rule_nanos_total{rule=\"WS1\"} 2000"));
        assert!(text.contains("pgschemad_rule_nanos_total{rule=\"DS7\"} 1000"));
        assert!(text.contains("pgschemad_rule_violations_total{rule=\"SS1\"} 0"));
    }

    #[test]
    fn histogram_is_cumulative() {
        let m = Metrics::new(1);
        m.record_request("/healthz", 200, 10); // le=50
        m.record_request("/healthz", 200, 60); // le=100
        let text = m.render(&RenderGauges::default());
        assert!(text.contains("pgschemad_request_duration_micros_bucket{le=\"50\"} 1"));
        assert!(text.contains("pgschemad_request_duration_micros_bucket{le=\"100\"} 2"));
        assert!(text.contains("pgschemad_request_duration_micros_bucket{le=\"250\"} 2"));
    }
}
