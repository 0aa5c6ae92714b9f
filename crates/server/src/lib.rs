//! # pg-server — the `pg-schemad` validation daemon
//!
//! Long-lived serving layer over the validation engines of [`pg_schema`]:
//! the paper frames schema validation as the decision problem a graph
//! database runs *continuously* (Theorem 1), and this crate is that
//! database-side service. It is built on `std` alone — `std::net`, a
//! hand-rolled HTTP/1.1, and a thin FFI shim over `epoll(7)` ([`sys`]) —
//! to match the workspace's offline vendoring constraint.
//!
//! ## Architecture
//!
//! * one **accept thread** owns the listener and hands fresh connections
//!   round-robin to the cores; above [`ServerConfig::max_connections`]
//!   it answers `503` + `Retry-After` itself and closes the socket, so
//!   saturation sheds load instead of queueing unboundedly;
//! * **per-core event loops** ([`ServerConfig::cores`], see
//!   [`reactor`]): each core runs `epoll_wait` over its own set of
//!   nonblocking connections, parsing requests incrementally from
//!   per-connection buffers and flushing responses with `writev` under
//!   backpressure — tens of thousands of idle keep-alive connections
//!   cost no threads;
//! * **a request is served where it is read**: a connection stays on the
//!   core that adopted it and that core runs the handler, whatever
//!   session the request addresses — there is no cross-core hand-off;
//! * a **session registry** ([`registry::SessionRegistry`]) holds one
//!   [`pg_schema::IncrementalEngine`] per session behind a per-session
//!   mutex, which is what gives one session's deltas, WAL appends and
//!   reads a total order — requests to different sessions never contend,
//!   and two cores addressing the same session wait for at most one
//!   handler;
//! * a **compiled-schema cache** shared by every core compiles each
//!   distinct posted schema text once (`POST /validate`, `POST
//!   /sessions`, `POST /check-sat`), bounded in entries and source bytes;
//! * **graceful shutdown**: SIGTERM / ctrl-c (see [`signal`]) leads to
//!   [`ServerHandle::shutdown`]; the accept loop stops, each core
//!   finishes its in-flight requests (flushing queued responses) and
//!   closes idle connections before exiting.
//!
//! ## HTTP surface
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /validate?engine=indexed\|parallel\|incremental` | stateless one-shot validation; `engine=naive` is a `400` |
//! | `POST /check-sat` | finite-model satisfiability of one type of the posted schema; a wrong-typed `field` or `max_size` is a `400` |
//! | `POST /sessions` | create an incremental session (schema + graph) |
//! | `POST /sessions/{id}/deltas` | apply a [`pgraph::GraphDelta`], returns the patched report |
//! | `GET /sessions/{id}/report` | current report |
//! | `GET /sessions/{id}/graph` | current graph document |
//! | `POST /sessions/{id}/migrate` | plan, begin, commit or abort a schema migration window; a wrong-typed `lang` or `force` is a `400` |
//! | `POST /sessions/{id}/compact` | snapshot the store, drop superseded WAL segments |
//! | `DELETE /sessions/{id}` | drop the session |
//! | `GET /healthz` | liveness |
//! | `GET /metrics` | Prometheus text format ([`metrics::Metrics`]) |
//! | `GET /wal/tail?from={seq}` | replication: raw WAL frames from `seq` on, chunked |
//! | `GET /wal/snapshot` | replication: bootstrap snapshot of every live session |
//! | `POST /promote` | replication: flip this follower to leader |
//!
//! ## Durability
//!
//! With `--data-dir` the registry is backed by a [`pg_store::Store`]:
//! session creates, deltas and deletes are appended to a checksummed WAL
//! before the response is acknowledged (fsync timing set by `--fsync
//! always|interval[:millis]|never`), and startup replays newest valid
//! snapshot + WAL tail, tolerating torn tails. Sessions come back
//! *dormant* and revalidate lazily on their first report. `--max-sessions`
//! bounds the registry with LRU eviction; evicted ids answer `410 Gone`.
//!
//! ## Replication
//!
//! A durable server is also a replication **leader** for free: followers
//! poll `GET /wal/tail` for raw WAL frames (byte-identical to the
//! leader's log; the leader keeps no per-follower state) and bootstrap
//! from `GET /wal/snapshot`. A server started with `--follow <addr>`
//! (see [`ServerConfig::follow`]) is a read-only **follower**: it
//! applies the leader's records through the same seq-gated path crash
//! recovery uses, serves reads locally, answers writes with `421
//! Misdirected Request` (the `x-pgschema-leader` header names the
//! leader), and becomes a leader on `POST /promote` or SIGHUP.
//! Replication lag is exported under `pgschemad_replication_*` in
//! `/metrics`. The wire protocol is specified normatively in
//! `docs/replication.md`; the runbook is `docs/operations.md`.
//!
//! `/validate` serves only the engines with Theorem 1's near-linear
//! bound ([`server::SERVED_ENGINES`]). The naive engine, the paper's
//! rules transcribed as O(n²–n³) loops, is the oracle they are checked
//! against: it runs in process ([`workload::oracle`], `pgschema validate
//! --engine naive`), never on a reactor core. docs/operations.md has
//! each route's cost and the cap that bounds it.
//!
//! Request and response bodies reuse the `pgraph::json` value types and
//! (de)serializers — the server adds no JSON parser or string escaper of
//! its own.
//!
//! The `pgload` binary (in `src/bin`) holds the process-level checks CI
//! runs against a real daemon: a `--smoke` pass over the surface, a
//! `--hold` of thousands of idle keep-alive connections, and the
//! SIGKILL restart, failover and migration rehearsals. They spawn and
//! drive daemons through [`workload`], as the crash-injection suite
//! does. Load and latency are measured by the separate `pgbench`
//! harness.

#![warn(missing_docs)]

pub mod http;
pub mod metrics;
pub mod reactor;
pub mod registry;
mod replication;
mod schema_cache;
pub mod server;
pub mod signal;
pub mod sys;
pub mod workload;

pub use server::{LogFormat, Server, ServerConfig, ServerConfigBuilder, ServerHandle};
