//! The concurrent session registry: one incremental validation session
//! per id, each an [`IncrementalEngine`] owning its graph and holding
//! its schema through an `Arc<PgSchema>` (sessions outlive the request
//! that parsed the schema).
//!
//! Locking is two-level: a registry-wide `RwLock` guards only the id →
//! slot map (held for a hash lookup), while each slot has its own
//! `Mutex` serialising deltas and report reads *of that session*.
//! Traffic to different sessions therefore runs fully in parallel
//! across the reactor cores; interleaved deltas to one session — which
//! any core may carry, there is no session-to-core pinning — are
//! serialised, which is exactly the consistency the incremental engine
//! needs — and, when a [`Store`] is attached, exactly the consistency
//! the WAL needs: appends happen inside the session's critical section,
//! so per-session log order equals apply order.
//!
//! With a store attached (`--data-dir`) the registry is durable:
//! session creation, every delta (including ones that fail mid-way —
//! their partial effects are deterministic) and deletion are logged
//! before the response is acknowledged, and [`SessionRegistry::with_store`]
//! rebuilds every session on startup. Recovered
//! sessions start *dormant* — graph and SDL in memory, no engine — and
//! are revalidated lazily by the first request that touches them
//! ([`Session::engine`]).
//!
//! What a WAL record does to a session is defined once, by
//! [`pg_store::SessionMeta`], which every [`Session`] embeds: a follower
//! feeds shipped records through it ([`SessionRegistry::apply_replicated`]),
//! exactly as crash recovery does, and a leader's handlers call its
//! ungated halves. [`Session::settle`] then keeps the invariant the
//! handlers rely on: `meta.pending_migration` is set **iff** a ready
//! engine has a migration window open (a dormant session opens it when
//! it hydrates).
//!
//! With `--max-sessions` the registry is bounded: creating past the cap
//! evicts the least-recently-used session. Evicted ids keep answering
//! [`Absent::Evicted`] (HTTP `410 Gone`) for the life of the process;
//! durably they are deleted, so after a restart they are
//! indistinguishable from removed sessions (`404`).

use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use pg_schema::{IncrementalEngine, PgSchema, ValidationOptions};
use pg_store::{
    Effect, GraphPayload, LazyGraph, Recovered, SessionChange, SessionMeta, SnapshotCapture, Store,
    StoreRecord,
};
use pgraph::PropertyGraph;

/// A session's engine, materialised lazily after recovery.
enum SessionState {
    /// The engine is live (seeded by a full validation pass).
    Ready(Box<IncrementalEngine<Arc<PgSchema>>>),
    /// Recovered from disk but not yet revalidated; the first request
    /// that needs the engine pays for the seeding pass. The graph may
    /// still be a zero-copy view into the memory-mapped snapshot file
    /// ([`LazyGraph::is_mapped`]); it stays that way until something
    /// touches it, and snapshot capture re-ships the mapped bytes
    /// verbatim.
    Dormant {
        /// The recovered graph.
        graph: LazyGraph,
    },
    /// Hydration failed (the stored SDL no longer parses) — terminal.
    Poisoned,
}

/// Why a session has no engine to offer (HTTP `500`).
#[derive(Debug)]
pub struct HydrationError(String);

impl HydrationError {
    fn graph(e: io::Error) -> HydrationError {
        HydrationError(format!("recovered graph failed to materialize: {e}"))
    }
}

impl std::fmt::Display for HydrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// One validation session.
pub struct Session {
    state: SessionState,
    options: ValidationOptions,
    /// Schema SDL, delta count, last WAL sequence number and any open
    /// migration window — kept verbatim for WAL records and snapshot
    /// capture, and moved only through [`SessionMeta`]'s own methods.
    pub meta: SessionMeta,
}

impl Session {
    /// The engine, hydrating a dormant session first (one full
    /// validation pass through the incremental engine's seeding path).
    pub fn engine(&mut self) -> Result<&mut IncrementalEngine<Arc<PgSchema>>, HydrationError> {
        if matches!(self.state, SessionState::Dormant { .. }) {
            let SessionState::Dormant { graph } =
                std::mem::replace(&mut self.state, SessionState::Poisoned)
            else {
                unreachable!()
            };
            // Persisted text carries a LOOSE graph type's mode as a
            // pragma; read through the frontend, the schema hydrates
            // open-world however it arrived here — recovery, replication,
            // or an LRU round trip.
            let parse = |sdl: &str, what: &str| {
                pg_pgschema::parse_persisted(sdl)
                    .map_err(|e| HydrationError(format!("{what} no longer parses: {e}")))
            };
            let schema = parse(&self.meta.schema_sdl, "recovered schema")?;
            let graph = graph.into_graph().map_err(HydrationError::graph)?;
            let mut engine = IncrementalEngine::new(graph, Arc::new(schema), &self.options);
            // A WAL-recovered (or follower-replicated) open migration
            // window re-opens with the engine: the candidate side picks
            // up exactly where the crash left it.
            if let Some(sdl) = &self.meta.pending_migration {
                engine.begin_migration(parse(sdl, "pending migration schema")?);
            }
            self.state = SessionState::Ready(Box::new(engine));
        }
        match &mut self.state {
            SessionState::Ready(engine) => Ok(engine),
            _ => Err(HydrationError("session failed hydration".to_owned())),
        }
    }

    /// The session's graph as a snapshot-writer payload, without forcing
    /// hydration *or* materialization: a dormant session whose graph is
    /// still mapped into the snapshot file hands back its verbatim
    /// `PGCS` bytes, so compaction and handoff capture it zero-copy.
    pub fn payload(&self) -> GraphPayload<'_> {
        match &self.state {
            SessionState::Ready(engine) => GraphPayload::Graph(engine.graph()),
            SessionState::Dormant { graph } => GraphPayload::from(graph),
            SessionState::Poisoned => GraphPayload::Graph(empty_graph()),
        }
    }

    /// The session's materialized graph, loading a mapped dormant graph
    /// in place but *not* seeding the engine (serving `GET …/graph` must
    /// not trigger a full revalidation).
    pub fn graph(&mut self) -> Result<&PropertyGraph, HydrationError> {
        match &mut self.state {
            SessionState::Ready(engine) => Ok(engine.graph()),
            SessionState::Dormant { graph } => match graph.load() {
                Ok(graph) => Ok(graph),
                Err(e) => Err(HydrationError::graph(e)),
            },
            SessionState::Poisoned => Ok(empty_graph()),
        }
    }

    /// True once the engine has been seeded.
    pub fn is_hydrated(&self) -> bool {
        matches!(self.state, SessionState::Ready(_))
    }

    /// Applies one record shipped by the leader, seq-gated like recovery
    /// replay. A ready session absorbs a delta through its engine (the
    /// report stays current), a dormant one on its graph; failing to
    /// reach the graph is an error and leaves the session untouched.
    fn replay(&mut self, seq: u64, change: SessionChange) -> io::Result<()> {
        let Session { state, meta, .. } = self;
        let effect = meta.replay(seq, change, |delta| match state {
            SessionState::Ready(engine) => Ok(engine.apply(delta).is_ok()),
            SessionState::Dormant { graph } => {
                io::Result::Ok(delta.apply_to(graph.load()?).is_ok())
            }
            SessionState::Poisoned => Ok(false),
        })?;
        self.settle(effect);
        Ok(())
    }

    /// Brings a ready engine in line with what a record just did to
    /// `meta`, so that a window is open on it exactly while
    /// `meta.pending_migration` is set. A dormant session needs nothing:
    /// hydration opens the window from `meta`.
    pub fn settle(&mut self, effect: Effect) {
        let SessionState::Ready(engine) = &mut self.state else {
            return;
        };
        let candidate = self.meta.pending_migration.as_deref();
        let keep_engine = match effect {
            Effect::Opened => match candidate.map(pg_pgschema::parse_persisted) {
                Some(Ok(candidate)) => {
                    engine.begin_migration(candidate);
                    true
                }
                // Hydration will report the SDL that does not parse.
                _ => false,
            },
            Effect::Aborted => {
                engine.abort_migration();
                true
            }
            // The next read re-seeds the engine under the committed
            // schema.
            Effect::Committed => false,
            Effect::Duplicate | Effect::Applied | Effect::NoWindow => true,
        };
        if !keep_engine {
            if let SessionState::Ready(engine) =
                std::mem::replace(&mut self.state, SessionState::Poisoned)
            {
                self.state = SessionState::Dormant {
                    graph: engine.into_graph().into(),
                };
            }
        }
    }
}

/// What a poisoned session's graph reads as.
fn empty_graph() -> &'static PropertyGraph {
    static EMPTY: std::sync::OnceLock<PropertyGraph> = std::sync::OnceLock::new();
    EMPTY.get_or_init(PropertyGraph::new)
}

/// A session plus its LRU stamp. The stamp lives outside the session
/// mutex so lookups can bump it without blocking behind an in-flight
/// delta.
pub struct SessionSlot {
    /// The session, serialising all access to its engine and graph.
    pub session: Mutex<Session>,
    last_used: AtomicU64,
}

/// Why a lookup found no session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Absent {
    /// The id existed but was evicted by `--max-sessions` (HTTP 410).
    Evicted,
    /// The id never existed or was deleted (HTTP 404).
    Missing,
}

/// What [`SessionRegistry::create`] did.
pub struct CreateOutcome {
    /// The new session's id.
    pub id: u64,
    /// The created slot — handed back so the caller can read the seed
    /// report without a second lookup (which could race with eviction).
    pub slot: Arc<SessionSlot>,
    /// The LRU victim evicted to make room, if the registry was full.
    pub evicted: Option<u64>,
    /// Microseconds spent appending (and fsyncing) the WAL record, when
    /// a store is attached.
    pub wal_micros: Option<u64>,
}

/// Registry of live sessions, shared by all reactor cores.
pub struct SessionRegistry {
    sessions: RwLock<HashMap<u64, Arc<SessionSlot>>>,
    evicted: Mutex<HashSet<u64>>,
    next_id: AtomicU64,
    clock: AtomicU64,
    store: Option<Arc<Store>>,
    /// Options new sessions validate with; kept registry-wide so
    /// replicated `Create` records (which carry no options) hydrate the
    /// same way locally created sessions do.
    options: ValidationOptions,
    max_sessions: Option<usize>,
    evicted_total: AtomicU64,
    recovered_total: u64,
}

impl SessionRegistry {
    /// An unbounded, purely in-memory registry; ids start at 1.
    pub fn new() -> Self {
        SessionRegistry::in_memory(None)
    }

    /// An in-memory registry, optionally bounded by `--max-sessions`.
    pub fn in_memory(max_sessions: Option<usize>) -> Self {
        SessionRegistry {
            sessions: RwLock::new(HashMap::new()),
            evicted: Mutex::new(HashSet::new()),
            next_id: AtomicU64::new(1),
            clock: AtomicU64::new(0),
            store: None,
            options: ValidationOptions::default(),
            max_sessions,
            evicted_total: AtomicU64::new(0),
            recovered_total: 0,
        }
    }

    /// A durable registry over an opened store, rehydrating every
    /// recovered session as dormant (revalidated lazily on first use).
    /// If recovery brought back more sessions than `max_sessions`
    /// allows, the lowest ids (the oldest sessions) are evicted up
    /// front.
    pub fn with_store(
        store: Arc<Store>,
        recovered: Recovered,
        options: &ValidationOptions,
        max_sessions: Option<usize>,
    ) -> io::Result<Self> {
        let registry = SessionRegistry {
            next_id: AtomicU64::new(recovered.next_session_id),
            store: Some(store),
            options: *options,
            recovered_total: recovered.sessions.len() as u64,
            ..SessionRegistry::in_memory(max_sessions)
        };
        let keep_from = max_sessions
            .map(|cap| recovered.sessions.len().saturating_sub(cap))
            .unwrap_or(0);
        let mut over_cap = Vec::new();
        {
            let mut map = registry.sessions.write().unwrap();
            for (ix, s) in recovered.sessions.into_iter().enumerate() {
                if ix < keep_from {
                    over_cap.push(s.id);
                } else {
                    let state = SessionState::Dormant { graph: s.graph };
                    map.insert(s.id, registry.slot(state, s.meta, options));
                }
            }
        }
        for id in over_cap {
            registry.mark_evicted(id)?;
        }
        Ok(registry)
    }

    /// A freshly stamped slot around a session in `state`.
    fn slot(
        &self,
        state: SessionState,
        meta: SessionMeta,
        options: &ValidationOptions,
    ) -> Arc<SessionSlot> {
        Arc::new(SessionSlot {
            session: Mutex::new(Session {
                state,
                options: *options,
                meta,
            }),
            last_used: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)),
        })
    }

    /// The attached store, if the registry is durable.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// Sessions rebuilt from disk at startup.
    pub fn recovered_total(&self) -> u64 {
        self.recovered_total
    }

    /// Sessions evicted by the LRU bound so far.
    pub fn evicted_total(&self) -> u64 {
        self.evicted_total.load(Ordering::Relaxed)
    }

    /// Creates a session by seeding an incremental engine with a full
    /// validation pass; logs it durably before returning when a store
    /// is attached. Evicts the least-recently-used session first if the
    /// registry is at its bound.
    pub fn create(
        &self,
        graph: PropertyGraph,
        schema: Arc<PgSchema>,
        schema_sdl: &str,
        options: &ValidationOptions,
    ) -> io::Result<CreateOutcome> {
        let engine = IncrementalEngine::new(graph, schema, options);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = self.slot(
            SessionState::Ready(Box::new(engine)),
            SessionMeta::created(schema_sdl.to_owned(), 0),
            options,
        );
        // Hold the new session's lock across publication and the WAL
        // append: a delta racing in through the map sees the session but
        // blocks until the Create record is on disk, keeping per-session
        // WAL order equal to apply order — and a compaction that rotates
        // the WAL after the append finds the session in the map, so the
        // snapshot that supersedes the Create record contains it.
        let mut session = slot.session.lock().unwrap();
        let evicted = self.evict_if_full()?;
        self.sessions.write().unwrap().insert(id, Arc::clone(&slot));
        let graph = session.graph().expect("fresh session has a live engine");
        let logged = self
            .append(|store| store.append_create(id, schema_sdl, graph))
            .inspect_err(|_| {
                self.sessions.write().unwrap().remove(&id);
            })?;
        let wal_micros = logged.map(|(seq, micros)| {
            session.meta.last_seq = seq;
            micros
        });
        drop(session);
        Ok(CreateOutcome {
            id,
            slot,
            evicted,
            wal_micros,
        })
    }

    /// Appends one record through the store, if one is attached; returns
    /// its sequence number and how long the append (inline fsync
    /// included) took, in microseconds — the one place WAL latency is
    /// measured.
    fn append(
        &self,
        write: impl FnOnce(&Store) -> io::Result<u64>,
    ) -> io::Result<Option<(u64, u64)>> {
        let Some(store) = &self.store else {
            return Ok(None);
        };
        let started = Instant::now();
        let seq = write(store)?;
        Ok(Some((seq, started.elapsed().as_micros() as u64)))
    }

    /// Durably logs a record about a session the caller has locked (the
    /// lock proves apply order) and stamps the session with the record's
    /// sequence number; returns the append latency. A delta is logged
    /// after `engine.apply`, whether or not it succeeded — a failed
    /// apply still leaves its deterministic partial effects, which
    /// replay reproduces.
    pub fn log(
        &self,
        session: &mut Session,
        write: impl FnOnce(&Store) -> io::Result<u64>,
    ) -> io::Result<Option<u64>> {
        Ok(self.append(write)?.map(|(seq, micros)| {
            session.meta.last_seq = seq;
            micros
        }))
    }

    /// The session with this id. The returned slot is cloned out of the
    /// map, so the registry lock is released before the caller locks the
    /// session; the lookup also stamps the slot for LRU.
    pub fn get(&self, id: u64) -> Result<Arc<SessionSlot>, Absent> {
        if let Some(slot) = self.sessions.read().unwrap().get(&id) {
            slot.last_used.store(
                self.clock.fetch_add(1, Ordering::Relaxed),
                Ordering::Relaxed,
            );
            return Ok(Arc::clone(slot));
        }
        Err(self.absent(id))
    }

    fn absent(&self, id: u64) -> Absent {
        if self.evicted.lock().unwrap().contains(&id) {
            Absent::Evicted
        } else {
            Absent::Missing
        }
    }

    /// Deletes the session with this id, durably when a store is
    /// attached; the inner result is the WAL append's latency or
    /// failure.
    pub fn remove(&self, id: u64) -> Result<io::Result<Option<u64>>, Absent> {
        let removed = self.sessions.write().unwrap().remove(&id);
        match removed {
            Some(_) => Ok(self
                .append(|store| store.append_delete(id))
                .map(|logged| logged.map(|(_, micros)| micros))),
            None => Err(self.absent(id)),
        }
    }

    /// Number of live sessions (the `/metrics` gauge).
    pub fn len(&self) -> usize {
        self.sessions.read().unwrap().len()
    }

    /// True when no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every live session, cloned out of the map so none of them is
    /// locked under the registry lock.
    fn slots(&self) -> Vec<(u64, Arc<SessionSlot>)> {
        let sessions = self.sessions.read().unwrap();
        sessions
            .iter()
            .map(|(id, slot)| (*id, Arc::clone(slot)))
            .collect()
    }

    /// Number of sessions with an open migration window (the
    /// `pgschemad_migration_windows_open` gauge). Takes each session's
    /// lock briefly; called only from `/metrics` rendering.
    pub fn open_migrations(&self) -> usize {
        self.slots()
            .iter()
            .filter(|(_, slot)| {
                let session = slot.session.lock().unwrap();
                session.meta.pending_migration.is_some()
            })
            .count()
    }

    /// Captures every live session, each under its own lock, into a
    /// snapshot being assembled — the one capture loop behind both
    /// compaction and follower bootstrap.
    fn capture(&self, into: &mut SnapshotCapture) {
        for (id, slot) in self.slots() {
            let session = slot.session.lock().unwrap();
            into.add_session(id, &session.meta, session.payload());
        }
    }

    /// Runs one compaction cycle: rotate the WAL, capture every live
    /// session, write the snapshot, drop superseded segments. Returns
    /// `Ok(None)` when another compaction is in flight or no store is
    /// attached.
    pub fn compact(&self) -> io::Result<Option<pg_store::CompactionOutcome>> {
        let Some(store) = &self.store else {
            return Ok(None);
        };
        let Some(mut compaction) = store.try_begin_compaction()? else {
            return Ok(None);
        };
        self.capture(compaction.capture());
        let outcome = compaction.finish(self.next_id.load(Ordering::Relaxed))?;
        Ok(Some(outcome))
    }

    /// Applies one WAL record received from the replication leader to
    /// the live session map. The record's frame is already in the local
    /// WAL ([`Store::append_replicated`] put it there), so this touches
    /// memory only — no appends, no eviction (the leader logs `Delete`
    /// records for its own evictions, and this follower replays those).
    ///
    /// `Create` and `Delete` act on the map, behind the same seq gate as
    /// everything else ([`SessionMeta::reflects`]: snapshot-bootstrapped
    /// state, or redelivery after a reconnect); what a record does to a
    /// session is [`SessionMeta::replay`]'s to say, exactly as in crash
    /// recovery.
    pub fn apply_replicated(&self, seq: u64, record: StoreRecord) -> io::Result<()> {
        let reflected = |id: u64| {
            self.get(id)
                .map(|slot| slot.session.lock().unwrap().meta.reflects(seq))
        };
        let (session, change) = match record {
            StoreRecord::Create {
                session,
                schema_sdl,
                graph,
            } => {
                self.next_id.fetch_max(session + 1, Ordering::Relaxed);
                if reflected(session) != Ok(true) {
                    let state = SessionState::Dormant {
                        graph: graph.into(),
                    };
                    let meta = SessionMeta::created(schema_sdl, seq);
                    let slot = self.slot(state, meta, &self.options);
                    self.sessions.write().unwrap().insert(session, slot);
                }
                return Ok(());
            }
            StoreRecord::Delete { session } => {
                if reflected(session) == Ok(false) {
                    self.sessions.write().unwrap().remove(&session);
                }
                return Ok(());
            }
            StoreRecord::Delta { session, delta } => (session, SessionChange::Delta(delta)),
            StoreRecord::SchemaChange {
                session,
                phase,
                schema_sdl,
            } => (session, SessionChange::Schema(phase, schema_sdl)),
        };
        match self.get(session) {
            Ok(slot) => slot.session.lock().unwrap().replay(seq, change),
            Err(_) => Ok(()),
        }
    }

    /// Captures every live session into a snapshot blob for a
    /// bootstrapping follower (`GET /wal/snapshot`). Unlike
    /// [`SessionRegistry::compact`] this neither rotates the WAL nor
    /// deletes anything — the blob's `base_seq` is sampled *before* the
    /// capture, so a session that absorbs records mid-capture is still
    /// consistent: the receiver tails from `base_seq + 1` and its
    /// per-session seq gating skips what the snapshot already contains.
    /// `None` without a store.
    pub fn handoff_snapshot(&self) -> Option<Vec<u8>> {
        let mut handoff = self.store.as_ref()?.begin_handoff();
        self.capture(&mut handoff);
        Some(handoff.finish(self.next_id.load(Ordering::Relaxed)))
    }

    /// Syncs buffered WAL appends (graceful-shutdown path).
    pub fn sync_store(&self) -> io::Result<()> {
        match &self.store {
            Some(store) => store.sync(),
            None => Ok(()),
        }
    }

    /// Evicts the least-recently-used session if the registry is at its
    /// bound; returns the victim's id.
    fn evict_if_full(&self) -> io::Result<Option<u64>> {
        let Some(cap) = self.max_sessions else {
            return Ok(None);
        };
        let victim = {
            let sessions = self.sessions.read().unwrap();
            if sessions.len() < cap.max(1) {
                return Ok(None);
            }
            sessions
                .iter()
                .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
                .map(|(id, _)| *id)
        };
        match victim {
            Some(id) => {
                self.mark_evicted(id)?;
                Ok(Some(id))
            }
            None => Ok(None),
        }
    }

    fn mark_evicted(&self, id: u64) -> io::Result<()> {
        self.sessions.write().unwrap().remove(&id);
        self.evicted.lock().unwrap().insert(id);
        self.evicted_total.fetch_add(1, Ordering::Relaxed);
        if let Some(store) = &self.store {
            store.append_delete(id)?;
        }
        Ok(())
    }
}

impl Default for SessionRegistry {
    fn default() -> Self {
        SessionRegistry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgraph::{GraphBuilder, GraphDelta, Value};

    const SDL: &str = "type User { login: String! @required }";

    fn session_parts() -> (PropertyGraph, Arc<PgSchema>) {
        let schema = PgSchema::parse(SDL).unwrap();
        let graph = GraphBuilder::new()
            .node("u", "User")
            .prop("u", "login", "alice")
            .build()
            .unwrap();
        (graph, Arc::new(schema))
    }

    fn create(reg: &SessionRegistry) -> u64 {
        let (graph, schema) = session_parts();
        reg.create(graph, schema, SDL, &ValidationOptions::default())
            .unwrap()
            .id
    }

    #[test]
    fn create_get_remove() {
        let reg = SessionRegistry::new();
        let id = create(&reg);
        assert_eq!(reg.len(), 1);
        let slot = reg.get(id).expect("session exists");
        assert!(slot
            .session
            .lock()
            .unwrap()
            .engine()
            .unwrap()
            .report()
            .conforms());
        assert_eq!(reg.get(id + 1).err(), Some(Absent::Missing));
        assert!(matches!(reg.remove(id), Ok(Ok(None))));
        assert!(matches!(reg.remove(id), Err(Absent::Missing)));
        assert!(reg.is_empty());
    }

    #[test]
    fn sessions_absorb_deltas_through_the_arc_schema() {
        let reg = SessionRegistry::new();
        let (graph, schema) = session_parts();
        let u = graph.node_ids().next().unwrap();
        let id = reg
            .create(graph, schema, SDL, &ValidationOptions::default())
            .unwrap()
            .id;
        let slot = reg.get(id).expect("session exists");
        let mut s = slot.session.lock().unwrap();
        let outcome = s
            .engine()
            .unwrap()
            .apply(&GraphDelta::new().set_node_property(u, "login", Value::Int(3)))
            .unwrap();
        assert_eq!(outcome.violations_added, 1);
        assert!(!s.engine().unwrap().report().conforms());
    }

    #[test]
    fn lru_eviction_answers_evicted() {
        let reg = SessionRegistry::in_memory(Some(2));
        let a = create(&reg);
        let b = create(&reg);
        // Touch `a` so `b` is the least recently used.
        assert!(reg.get(a).is_ok());
        let c = create(&reg);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.evicted_total(), 1);
        assert_eq!(reg.get(b).err(), Some(Absent::Evicted));
        assert!(reg.get(a).is_ok());
        assert!(reg.get(c).is_ok());
        // Deleting an evicted id reports Evicted, not Missing.
        assert!(matches!(reg.remove(b), Err(Absent::Evicted)));
    }

    #[test]
    fn cap_of_one_always_keeps_the_newest() {
        let reg = SessionRegistry::in_memory(Some(1));
        let a = create(&reg);
        let b = create(&reg);
        assert_eq!(reg.get(a).err(), Some(Absent::Evicted));
        assert!(reg.get(b).is_ok());
        assert_eq!(reg.len(), 1);
    }

    fn create_record(session: u64, graph: PropertyGraph) -> StoreRecord {
        StoreRecord::Create {
            session,
            schema_sdl: SDL.to_owned(),
            graph,
        }
    }

    #[test]
    fn replicated_records_are_seq_gated_and_keep_sessions_dormant() {
        let reg = SessionRegistry::new();
        let (graph, _) = session_parts();
        let u = graph.node_ids().next().unwrap();
        let apply = |seq, record| reg.apply_replicated(seq, record).unwrap();
        apply(1, create_record(7, graph));
        assert!(reg.get(7).is_ok());
        // A redelivered create must not reset the session.
        let delta = GraphDelta::new().set_node_property(u, "login", Value::Int(3));
        let record = StoreRecord::Delta { session: 7, delta };
        apply(2, record.clone());
        apply(2, record);
        apply(1, create_record(7, PropertyGraph::new()));
        let slot = reg.get(7).expect("session exists");
        {
            let s = slot.session.lock().unwrap();
            assert_eq!(s.meta.deltas_applied, 1, "duplicate delta must be skipped");
            assert_eq!(s.meta.last_seq, 2);
            assert!(!s.is_hydrated(), "replication must not seed engines");
        }
        // A delete older than the session's state is a duplicate too.
        apply(2, StoreRecord::Delete { session: 7 });
        assert!(reg.get(7).is_ok());
        apply(3, StoreRecord::Delete { session: 7 });
        assert_eq!(reg.get(7).err(), Some(Absent::Missing));
        // Replicated ids advance the allocator past the leader's.
        assert_eq!(create(&reg), 8);
    }

    /// The window invariant on a follower: a `Begin` that arrives while
    /// the session is ready opens the window on its engine (a promoted
    /// node's `commit` needs it there), and an `Abort` closes it.
    #[test]
    fn replicated_begin_and_abort_reach_a_ready_engine() {
        let reg = SessionRegistry::new();
        let apply = |seq, record| reg.apply_replicated(seq, record).unwrap();
        apply(1, create_record(7, session_parts().0));
        let slot = reg.get(7).expect("session exists");
        let window_open = || {
            let mut s = slot.session.lock().unwrap();
            assert!(s.is_hydrated(), "the engine stays resident");
            let open = s.engine().unwrap().migration_active();
            assert_eq!(open, s.meta.pending_migration.is_some());
            open
        };
        slot.session.lock().unwrap().engine().unwrap();
        assert!(!window_open());
        let phase = |phase, sdl: &str| StoreRecord::SchemaChange {
            session: 7,
            phase,
            schema_sdl: sdl.to_owned(),
        };
        let candidate = "type User { login: String! @required nick: String! @required }";
        apply(2, phase(pg_store::MigrationPhase::Begin, candidate));
        assert!(window_open());
        apply(3, phase(pg_store::MigrationPhase::Abort, ""));
        assert!(!window_open());
        // A commit re-seeds under the new schema on the next read.
        apply(4, phase(pg_store::MigrationPhase::Begin, candidate));
        apply(5, phase(pg_store::MigrationPhase::Commit, ""));
        let mut s = slot.session.lock().unwrap();
        assert!(!s.is_hydrated());
        assert_eq!(s.meta.schema_sdl, candidate);
        assert!(
            !s.engine().unwrap().report().conforms(),
            "`nick` is missing"
        );
        assert!(!s.engine().unwrap().migration_active());
    }

    /// A replicated delta that cannot reach its session's graph is an
    /// error that leaves the session where it was — not a record
    /// silently counted as seen.
    #[test]
    fn a_replicated_delta_that_cannot_load_the_graph_is_an_error() {
        let dir = std::env::temp_dir().join(format!("pg-registry-badmap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (graph, _) = session_parts();
        let u = graph.node_ids().next().unwrap();
        // A snapshot whose container is intact but whose embedded graph
        // image is damaged: it opens (images are checked when they
        // materialize) and then fails to load.
        let (leader, _) = Store::open(dir.join("leader"), pg_store::FsyncPolicy::Never).unwrap();
        let mut handoff = leader.begin_handoff();
        handoff.add_session(7, &SessionMeta::created(SDL.to_owned(), 1), &graph);
        let mut blob = handoff.finish(8);
        let image = blob.windows(4).position(|w| w == b"PGCS").unwrap();
        let last = blob.len() - 1;
        assert!(last > image + 288, "the flipped byte is section data");
        blob[last] ^= 0xff;
        let crc = pgraph::snapshot::crc32(&blob[8..]);
        blob[4..8].copy_from_slice(&crc.to_le_bytes());
        pg_store::install_snapshot(dir.join("follower"), &blob).unwrap();
        let (store, recovered) =
            Store::open(dir.join("follower"), pg_store::FsyncPolicy::Never).unwrap();
        let reg = SessionRegistry::with_store(
            Arc::new(store),
            recovered,
            &ValidationOptions::default(),
            None,
        )
        .unwrap();

        let delta = GraphDelta::new().set_node_property(u, "login", Value::Int(3));
        let err = reg
            .apply_replicated(2, StoreRecord::Delta { session: 7, delta })
            .expect_err("the graph does not materialize");
        assert!(err.to_string().contains("thaw failed"), "{err}");
        let slot = reg.get(7).expect("session exists");
        let s = slot.session.lock().unwrap();
        assert_eq!((s.meta.last_seq, s.meta.deltas_applied), (1, 0));
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
