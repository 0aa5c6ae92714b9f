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
//! With `--max-sessions` the registry is bounded: creating past the cap
//! evicts the least-recently-used session. Evicted ids keep answering
//! [`Lookup::Evicted`] (HTTP `410 Gone`) for the life of the process;
//! durably they are deleted, so after a restart they are
//! indistinguishable from removed sessions (`404`).

use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use pg_schema::{IncrementalEngine, PgSchema, ValidationOptions};
use pg_store::{GraphPayload, LazyGraph, Recovered, Store, StoreRecord};
use pgraph::{GraphDelta, PropertyGraph};

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

/// One validation session.
pub struct Session {
    state: SessionState,
    /// The schema's SDL source, kept verbatim for WAL records and
    /// snapshot capture.
    pub schema_sdl: String,
    options: ValidationOptions,
    /// Deltas successfully applied since the session was created.
    pub deltas_applied: u64,
    /// Sequence number of this session's last WAL record (0 without a
    /// store).
    pub last_seq: u64,
    /// Candidate schema SDL of an open migration window, kept verbatim
    /// for snapshot capture (an open window must survive compaction) and
    /// for rehydrating the window after recovery.
    pub pending_migration: Option<String>,
}

impl Session {
    /// The engine, hydrating a dormant session first (one full
    /// validation pass through the incremental engine's seeding path).
    pub fn engine(&mut self) -> Result<&mut IncrementalEngine<Arc<PgSchema>>, String> {
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
            let schema = pg_pgschema::parse_persisted(&self.schema_sdl)
                .map_err(|e| format!("recovered schema no longer parses: {e}"))?;
            let graph = graph
                .into_graph()
                .map_err(|e| format!("recovered graph failed to materialize: {e}"))?;
            let mut engine = IncrementalEngine::new(graph, Arc::new(schema), &self.options);
            // A WAL-recovered (or follower-replicated) open migration
            // window re-opens with the engine: the candidate side picks
            // up exactly where the crash left it.
            if let Some(sdl) = &self.pending_migration {
                let candidate = pg_pgschema::parse_persisted(sdl)
                    .map_err(|e| format!("pending migration schema no longer parses: {e}"))?;
                engine.begin_migration(candidate);
            }
            self.state = SessionState::Ready(Box::new(engine));
        }
        match &mut self.state {
            SessionState::Ready(engine) => Ok(engine),
            _ => Err("session failed hydration".to_owned()),
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
            SessionState::Poisoned => {
                static EMPTY: std::sync::OnceLock<PropertyGraph> = std::sync::OnceLock::new();
                GraphPayload::Graph(EMPTY.get_or_init(PropertyGraph::new))
            }
        }
    }

    /// The session's materialized graph, loading a mapped dormant graph
    /// in place but *not* seeding the engine (serving `GET …/graph` must
    /// not trigger a full revalidation).
    pub fn graph(&mut self) -> Result<&PropertyGraph, String> {
        match &mut self.state {
            SessionState::Ready(engine) => Ok(engine.graph()),
            SessionState::Dormant { graph } => graph
                .load()
                .map(|g| &*g)
                .map_err(|e| format!("recovered graph failed to materialize: {e}")),
            SessionState::Poisoned => {
                static EMPTY: std::sync::OnceLock<PropertyGraph> = std::sync::OnceLock::new();
                Ok(EMPTY.get_or_init(PropertyGraph::new))
            }
        }
    }

    /// True once the engine has been seeded.
    pub fn is_hydrated(&self) -> bool {
        matches!(self.state, SessionState::Ready(_))
    }
}

/// A session plus its LRU stamp. The stamp lives outside the session
/// mutex so lookups can bump it without blocking behind an in-flight
/// delta.
pub struct SessionSlot {
    /// The session, serialising all access to its engine and graph.
    pub session: Mutex<Session>,
    last_used: AtomicU64,
}

/// Result of a registry lookup.
pub enum Lookup {
    /// The session is live.
    Found(Arc<SessionSlot>),
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

/// What [`SessionRegistry::remove`] found.
pub enum RemoveOutcome {
    /// Removed; carries the WAL append latency when a store is attached.
    Removed(Option<u64>),
    /// The id had already been evicted (HTTP 410).
    Evicted,
    /// No such session (HTTP 404).
    Missing,
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
        let mut map = HashMap::with_capacity(recovered.sessions.len());
        let mut clock = 0u64;
        let recovered_total = recovered.sessions.len() as u64;
        let mut over_cap = Vec::new();
        let keep_from = max_sessions
            .map(|cap| recovered.sessions.len().saturating_sub(cap))
            .unwrap_or(0);
        for (ix, s) in recovered.sessions.into_iter().enumerate() {
            if ix < keep_from {
                over_cap.push(s.id);
                continue;
            }
            let slot = Arc::new(SessionSlot {
                session: Mutex::new(Session {
                    state: SessionState::Dormant { graph: s.graph },
                    schema_sdl: s.schema_sdl,
                    options: *options,
                    deltas_applied: s.deltas_applied,
                    last_seq: s.last_seq,
                    pending_migration: s.pending_migration,
                }),
                last_used: AtomicU64::new(clock),
            });
            clock += 1;
            map.insert(s.id, slot);
        }
        let registry = SessionRegistry {
            sessions: RwLock::new(map),
            evicted: Mutex::new(HashSet::new()),
            next_id: AtomicU64::new(recovered.next_session_id),
            clock: AtomicU64::new(clock),
            store: Some(store),
            options: *options,
            max_sessions,
            evicted_total: AtomicU64::new(0),
            recovered_total,
        };
        for id in over_cap {
            registry.mark_evicted(id)?;
        }
        Ok(registry)
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
        let slot = Arc::new(SessionSlot {
            session: Mutex::new(Session {
                state: SessionState::Ready(Box::new(engine)),
                schema_sdl: schema_sdl.to_owned(),
                options: *options,
                deltas_applied: 0,
                last_seq: 0,
                pending_migration: None,
            }),
            last_used: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)),
        });
        // Hold the new session's lock across publication and the WAL
        // append: a delta racing in through the map sees the session but
        // blocks until the Create record is on disk, keeping per-session
        // WAL order equal to apply order.
        let mut session = slot.session.lock().unwrap();
        let evicted = self.evict_if_full()?;
        self.sessions.write().unwrap().insert(id, Arc::clone(&slot));
        let mut wal_micros = None;
        if let Some(store) = &self.store {
            let started = Instant::now();
            let graph = session.graph().expect("fresh session has a live engine");
            match store.append_create(id, schema_sdl, graph) {
                Ok(seq) => {
                    session.last_seq = seq;
                    wal_micros = Some(started.elapsed().as_micros() as u64);
                }
                Err(e) => {
                    self.sessions.write().unwrap().remove(&id);
                    return Err(e);
                }
            }
        }
        drop(session);
        Ok(CreateOutcome {
            id,
            slot,
            evicted,
            wal_micros,
        })
    }

    /// Logs a delta against a session the caller has locked (the lock
    /// proves apply order). Call after `engine.apply`, whether or not it
    /// succeeded — a failed apply still leaves its deterministic partial
    /// effects, which replay reproduces.
    pub fn log_delta(
        &self,
        id: u64,
        session: &mut Session,
        delta: &GraphDelta,
    ) -> io::Result<Option<u64>> {
        let Some(store) = &self.store else {
            return Ok(None);
        };
        let started = Instant::now();
        let seq = store.append_delta(id, delta)?;
        session.last_seq = seq;
        Ok(Some(started.elapsed().as_micros() as u64))
    }

    /// Durably logs a migration phase transition for this session, as
    /// [`log_delta`](Self::log_delta) does for deltas. `schema_sdl` is
    /// the candidate SDL on [`pg_store::MigrationPhase::Begin`] and empty
    /// otherwise.
    pub fn log_schema_change(
        &self,
        id: u64,
        session: &mut Session,
        phase: pg_store::MigrationPhase,
        schema_sdl: &str,
    ) -> io::Result<Option<u64>> {
        let Some(store) = &self.store else {
            return Ok(None);
        };
        let started = Instant::now();
        let seq = store.append_schema_change(id, phase, schema_sdl)?;
        session.last_seq = seq;
        Ok(Some(started.elapsed().as_micros() as u64))
    }

    /// The session with this id. The returned slot is cloned out of the
    /// map, so the registry lock is released before the caller locks the
    /// session; the lookup also stamps the slot for LRU.
    pub fn get(&self, id: u64) -> Lookup {
        if let Some(slot) = self.sessions.read().unwrap().get(&id) {
            slot.last_used.store(
                self.clock.fetch_add(1, Ordering::Relaxed),
                Ordering::Relaxed,
            );
            return Lookup::Found(Arc::clone(slot));
        }
        if self.evicted.lock().unwrap().contains(&id) {
            Lookup::Evicted
        } else {
            Lookup::Missing
        }
    }

    /// Deletes the session with this id, durably when a store is
    /// attached.
    pub fn remove(&self, id: u64) -> io::Result<RemoveOutcome> {
        let removed = self.sessions.write().unwrap().remove(&id);
        match removed {
            Some(_) => {
                let mut wal_micros = None;
                if let Some(store) = &self.store {
                    let started = Instant::now();
                    store.append_delete(id)?;
                    wal_micros = Some(started.elapsed().as_micros() as u64);
                }
                Ok(RemoveOutcome::Removed(wal_micros))
            }
            None if self.evicted.lock().unwrap().contains(&id) => Ok(RemoveOutcome::Evicted),
            None => Ok(RemoveOutcome::Missing),
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

    /// Number of sessions with an open migration window (the
    /// `pgschemad_migration_windows_open` gauge). Takes each session's
    /// lock briefly; called only from `/metrics` rendering.
    pub fn open_migrations(&self) -> usize {
        let slots: Vec<_> = self.sessions.read().unwrap().values().cloned().collect();
        slots
            .iter()
            .filter(|slot| slot.session.lock().unwrap().pending_migration.is_some())
            .count()
    }

    /// Runs one compaction cycle: rotate the WAL, capture every live
    /// session under its own lock, write the snapshot, drop superseded
    /// segments. Returns `Ok(None)` when another compaction is in
    /// flight or no store is attached.
    pub fn compact(&self) -> io::Result<Option<pg_store::CompactionOutcome>> {
        let Some(store) = &self.store else {
            return Ok(None);
        };
        let Some(mut compaction) = store.try_begin_compaction()? else {
            return Ok(None);
        };
        let slots: Vec<(u64, Arc<SessionSlot>)> = self
            .sessions
            .read()
            .unwrap()
            .iter()
            .map(|(id, slot)| (*id, Arc::clone(slot)))
            .collect();
        for (id, slot) in slots {
            let session = slot.session.lock().unwrap();
            compaction.add_session(
                id,
                session.last_seq,
                session.deltas_applied,
                &session.schema_sdl,
                session.payload(),
                session.pending_migration.as_deref(),
            );
        }
        let outcome = compaction.finish(self.next_id.load(Ordering::Relaxed))?;
        Ok(Some(outcome))
    }

    /// Applies one WAL record received from the replication leader to
    /// the live session map. The record's frame is already in the local
    /// WAL ([`Store::append_replicated`] put it there), so this touches
    /// memory only — no appends, no eviction (the leader logs `Delete`
    /// records for its own evictions, and this follower replays those).
    ///
    /// Application is seq-gated exactly like recovery replay: a record
    /// whose `seq` does not exceed the session's `last_seq` is a
    /// duplicate (snapshot-bootstrapped state, or redelivery after a
    /// reconnect) and is skipped.
    pub fn apply_replicated(&self, seq: u64, record: StoreRecord) {
        match record {
            StoreRecord::Create {
                session,
                schema_sdl,
                graph,
            } => {
                self.next_id.fetch_max(session + 1, Ordering::Relaxed);
                if let Lookup::Found(slot) = self.get(session) {
                    if slot.session.lock().unwrap().last_seq >= seq {
                        return;
                    }
                }
                let slot = Arc::new(SessionSlot {
                    session: Mutex::new(Session {
                        state: SessionState::Dormant {
                            graph: graph.into(),
                        },
                        schema_sdl,
                        options: self.options,
                        deltas_applied: 0,
                        last_seq: seq,
                        pending_migration: None,
                    }),
                    last_used: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)),
                });
                self.sessions.write().unwrap().insert(session, slot);
            }
            StoreRecord::Delta { session, delta } => {
                let Lookup::Found(slot) = self.get(session) else {
                    return;
                };
                let mut s = slot.session.lock().unwrap();
                if seq <= s.last_seq {
                    return;
                }
                // Mirror recovery's rule 4: a delta that fails part-way
                // keeps its deterministic partial effects, and only a
                // full application counts towards `deltas_applied`.
                let applied = match &mut s.state {
                    SessionState::Ready(engine) => engine.apply(&delta).is_ok(),
                    SessionState::Dormant { graph } => match graph.load() {
                        Ok(g) => delta.apply_to(g).is_ok(),
                        Err(_) => false,
                    },
                    SessionState::Poisoned => false,
                };
                if applied {
                    s.deltas_applied += 1;
                }
                s.last_seq = seq;
            }
            StoreRecord::Delete { session } => {
                let Lookup::Found(slot) = self.get(session) else {
                    return;
                };
                if slot.session.lock().unwrap().last_seq >= seq {
                    return;
                }
                self.sessions.write().unwrap().remove(&session);
            }
            StoreRecord::SchemaChange {
                session,
                phase,
                schema_sdl,
            } => {
                let Lookup::Found(slot) = self.get(session) else {
                    return;
                };
                let mut s = slot.session.lock().unwrap();
                if seq <= s.last_seq {
                    return;
                }
                match phase {
                    pg_store::MigrationPhase::Begin => s.pending_migration = Some(schema_sdl),
                    pg_store::MigrationPhase::Commit => {
                        if let Some(sdl) = s.pending_migration.take() {
                            s.schema_sdl = sdl;
                            // Demote to dormant so the next read re-seeds
                            // the engine under the committed schema — the
                            // follower then serves the new schema's report.
                            let state = std::mem::replace(&mut s.state, SessionState::Poisoned);
                            s.state = match state {
                                SessionState::Ready(engine) => SessionState::Dormant {
                                    graph: engine.into_graph().into(),
                                },
                                other => other,
                            };
                        }
                    }
                    pg_store::MigrationPhase::Abort => s.pending_migration = None,
                }
                s.last_seq = seq;
            }
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
        let store = self.store.as_ref()?;
        let mut handoff = store.begin_handoff();
        let slots: Vec<(u64, Arc<SessionSlot>)> = self
            .sessions
            .read()
            .unwrap()
            .iter()
            .map(|(id, slot)| (*id, Arc::clone(slot)))
            .collect();
        for (id, slot) in slots {
            let session = slot.session.lock().unwrap();
            handoff.add_session(
                id,
                session.last_seq,
                session.deltas_applied,
                &session.schema_sdl,
                session.payload(),
                session.pending_migration.as_deref(),
            );
        }
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
        let Lookup::Found(slot) = reg.get(id) else {
            panic!("session exists");
        };
        assert!(slot
            .session
            .lock()
            .unwrap()
            .engine()
            .unwrap()
            .report()
            .conforms());
        assert!(matches!(reg.get(id + 1), Lookup::Missing));
        assert!(matches!(
            reg.remove(id).unwrap(),
            RemoveOutcome::Removed(None)
        ));
        assert!(matches!(reg.remove(id).unwrap(), RemoveOutcome::Missing));
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
        let Lookup::Found(slot) = reg.get(id) else {
            panic!("session exists");
        };
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
        assert!(matches!(reg.get(a), Lookup::Found(_)));
        let c = create(&reg);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.evicted_total(), 1);
        assert!(matches!(reg.get(b), Lookup::Evicted));
        assert!(matches!(reg.get(a), Lookup::Found(_)));
        assert!(matches!(reg.get(c), Lookup::Found(_)));
        // Deleting an evicted id reports Evicted, not Missing.
        assert!(matches!(reg.remove(b).unwrap(), RemoveOutcome::Evicted));
    }

    #[test]
    fn cap_of_one_always_keeps_the_newest() {
        let reg = SessionRegistry::in_memory(Some(1));
        let a = create(&reg);
        let b = create(&reg);
        assert!(matches!(reg.get(a), Lookup::Evicted));
        assert!(matches!(reg.get(b), Lookup::Found(_)));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn replicated_records_are_seq_gated_and_keep_sessions_dormant() {
        let reg = SessionRegistry::new();
        let (graph, _) = session_parts();
        let u = graph.node_ids().next().unwrap();
        reg.apply_replicated(
            1,
            StoreRecord::Create {
                session: 7,
                schema_sdl: SDL.to_owned(),
                graph,
            },
        );
        assert!(matches!(reg.get(7), Lookup::Found(_)));
        // A redelivered create must not reset the session.
        let delta = GraphDelta::new().set_node_property(u, "login", Value::Int(3));
        reg.apply_replicated(
            2,
            StoreRecord::Delta {
                session: 7,
                delta: delta.clone(),
            },
        );
        reg.apply_replicated(2, StoreRecord::Delta { session: 7, delta });
        reg.apply_replicated(
            1,
            StoreRecord::Create {
                session: 7,
                schema_sdl: SDL.to_owned(),
                graph: PropertyGraph::new(),
            },
        );
        let Lookup::Found(slot) = reg.get(7) else {
            panic!("session exists");
        };
        {
            let s = slot.session.lock().unwrap();
            assert_eq!(s.deltas_applied, 1, "duplicate delta must be skipped");
            assert_eq!(s.last_seq, 2);
            assert!(!s.is_hydrated(), "replication must not seed engines");
        }
        // A delete older than the session's state is a duplicate too.
        reg.apply_replicated(2, StoreRecord::Delete { session: 7 });
        assert!(matches!(reg.get(7), Lookup::Found(_)));
        reg.apply_replicated(3, StoreRecord::Delete { session: 7 });
        assert!(matches!(reg.get(7), Lookup::Missing));
        // Replicated ids advance the allocator past the leader's.
        assert_eq!(create(&reg), 8);
    }
}
