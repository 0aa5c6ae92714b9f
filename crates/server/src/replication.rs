//! The follower side of WAL-shipping replication.
//!
//! A follower is an ordinary durable server whose WAL is written by one
//! extra thread — the one in this module — instead of by request
//! handlers. The loop polls the leader's `GET /wal/tail?from=<seq>`
//! endpoint from the local store's `tail_cursor`, appends the returned
//! frames verbatim ([`pg_store::Store::append_replicated`] verifies CRCs
//! and sequence contiguity) and applies each decoded record to the live
//! session registry. Because frames are copied byte-for-byte, a
//! follower's log is a physical prefix of the leader's — after a
//! promotion the surviving log needs no rewriting.
//!
//! The protocol is polling, not push: each poll is one bounded
//! chunked-transfer response, so the leader keeps no per-follower state
//! beyond the TCP connection, and a follower that goes away costs the
//! leader nothing. When caught up the loop sleeps
//! [`CAUGHT_UP_POLL`] between polls; when the leader is unreachable it
//! reconnects with exponential backoff from [`BACKOFF_START`] capped at
//! [`BACKOFF_MAX`], resuming from the last durable sequence — duplicate
//! delivery after a reconnect is harmless because both the store append
//! and the registry apply are seq-gated.
//!
//! Promotion (`POST /promote` or SIGHUP) is handled here too: the loop
//! syncs the store, flips the process role to leader and exits. The
//! normative protocol description lives in `docs/replication.md`.

use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crate::http::read_response;
use crate::metrics::{
    REPL_STATE_CONNECTING, REPL_STATE_NONE, REPL_STATE_STALLED, REPL_STATE_TAILING,
};
use crate::server::{Ctx, LogFormat};
use crate::signal;

/// Poll cadence while caught up with the leader.
const CAUGHT_UP_POLL: Duration = Duration::from_millis(50);
/// First reconnect delay after losing the leader.
const BACKOFF_START: Duration = Duration::from_millis(100);
/// Reconnect delay cap.
const BACKOFF_MAX: Duration = Duration::from_secs(5);
/// Socket connect/read/write timeout for leader traffic.
const IO_TIMEOUT: Duration = Duration::from_secs(1);
/// Granularity at which sleeps re-check the shutdown and promotion
/// flags, keeping both responsive even mid-backoff.
const SLEEP_SLICE: Duration = Duration::from_millis(50);

/// Fetches the leader's bootstrap snapshot (`GET /wal/snapshot`).
/// Called from [`crate::Server::bind`] before the local store exists.
pub(crate) fn fetch_snapshot(leader: &str) -> io::Result<Vec<u8>> {
    let mut stream = connect(leader)?;
    let request =
        format!("GET /wal/snapshot HTTP/1.1\r\nhost: {leader}\r\nconnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut buf = Vec::new();
    let (status, _, body) = read_response(&mut stream, &mut buf)?;
    if status != 200 {
        return Err(io::Error::other(format!(
            "leader {leader} refused the snapshot request with status {status}: {}",
            String::from_utf8_lossy(&body)
        )));
    }
    Ok(body)
}

fn connect(leader: &str) -> io::Result<TcpStream> {
    let addr = leader
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::other(format!("leader address {leader} did not resolve")))?;
    let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// Sleeps `total` in [`SLEEP_SLICE`] slices; returns `true` if shutdown
/// or promotion was requested while sleeping.
fn sleep_interruptible(ctx: &Ctx, total: Duration) -> bool {
    let mut remaining = total;
    while remaining > Duration::ZERO {
        if should_stop(ctx) || promotion_requested(ctx) {
            return true;
        }
        let slice = remaining.min(SLEEP_SLICE);
        std::thread::sleep(slice);
        remaining -= slice;
    }
    should_stop(ctx) || promotion_requested(ctx)
}

fn should_stop(ctx: &Ctx) -> bool {
    ctx.shutdown.load(Ordering::Relaxed) || signal::requested()
}

fn promotion_requested(ctx: &Ctx) -> bool {
    ctx.promote.load(Ordering::Relaxed) || signal::promote_requested()
}

fn log(ctx: &Ctx, message: &str) {
    if ctx.log_format != LogFormat::Off {
        eprintln!("replication: {message}");
    }
}

/// The follower thread: tails the leader until shutdown or promotion.
pub(crate) fn run_follower(ctx: Arc<Ctx>) {
    let leader = ctx.follow.clone().expect("follower has a leader address");
    let store = match ctx.registry.store() {
        Some(store) => Arc::clone(store),
        None => {
            // `Server::bind` rejects `--follow` without `--data-dir`.
            log(&ctx, "follower started without a store; not replicating");
            return;
        }
    };
    let repl = &ctx.metrics.replication;
    // Everything below the recovered cursor is already reflected
    // locally (snapshot bootstrap or an earlier run of this follower);
    // the gauge must say so, or a freshly bootstrapped follower that
    // has nothing left to fetch looks like one that never replicated.
    repl.last_applied_seq
        .store(store.tail_cursor().saturating_sub(1), Ordering::Relaxed);
    let mut backoff = BACKOFF_START;
    loop {
        if should_stop(&ctx) {
            break;
        }
        if promotion_requested(&ctx) {
            promote(&ctx, &store);
            return;
        }
        repl.state.store(REPL_STATE_CONNECTING, Ordering::Relaxed);
        repl.reconnects_total.fetch_add(1, Ordering::Relaxed);
        let mut stream = match connect(&leader) {
            Ok(stream) => stream,
            Err(e) => {
                repl.state.store(REPL_STATE_STALLED, Ordering::Relaxed);
                log(
                    &ctx,
                    &format!("leader {leader} unreachable: {e}; retrying in {backoff:?}"),
                );
                if sleep_interruptible(&ctx, backoff) {
                    continue; // re-enter the loop head to stop or promote
                }
                backoff = (backoff * 2).min(BACKOFF_MAX);
                continue;
            }
        };
        backoff = BACKOFF_START;
        let mut buf = Vec::new();
        // One connection, many polls: tail until an error forces a
        // reconnect or a flag ends the loop.
        loop {
            if should_stop(&ctx) {
                return;
            }
            if promotion_requested(&ctx) {
                promote(&ctx, &store);
                return;
            }
            let from = store.tail_cursor();
            let request = format!("GET /wal/tail?from={from} HTTP/1.1\r\nhost: {leader}\r\n\r\n");
            let parts = stream
                .write_all(request.as_bytes())
                .and_then(|()| read_response(&mut stream, &mut buf));
            let (status, headers, body) = match parts {
                Ok(parts) => parts,
                Err(e) => {
                    repl.state.store(REPL_STATE_STALLED, Ordering::Relaxed);
                    log(&ctx, &format!("lost the leader at {leader}: {e}"));
                    break; // reconnect with backoff
                }
            };
            match status {
                200 => {}
                410 => {
                    // The leader compacted past our cursor. Local state
                    // can only fall further behind; re-bootstrapping
                    // would mean discarding this data dir, which is an
                    // operator decision, not an automatic one.
                    repl.state.store(REPL_STATE_STALLED, Ordering::Relaxed);
                    log(
                        &ctx,
                        &format!(
                            "leader compacted past our cursor {from} ({}); \
                             wipe the data dir and restart to re-bootstrap",
                            String::from_utf8_lossy(&body).trim()
                        ),
                    );
                    if sleep_interruptible(&ctx, BACKOFF_MAX) {
                        continue;
                    }
                    continue;
                }
                other => {
                    repl.state.store(REPL_STATE_STALLED, Ordering::Relaxed);
                    log(&ctx, &format!("leader answered /wal/tail with {other}"));
                    break;
                }
            }
            let batch = match store.append_replicated(&body) {
                Ok(batch) => batch,
                Err(e) => {
                    // A sequence gap means this store diverged from the
                    // leader (e.g. it was once a leader itself and took
                    // writes the leader never saw). Retrying cannot
                    // help; stall loudly.
                    repl.state.store(REPL_STATE_STALLED, Ordering::Relaxed);
                    log(&ctx, &format!("refusing leader frames: {e}"));
                    if sleep_interruptible(&ctx, BACKOFF_MAX) {
                        continue;
                    }
                    continue;
                }
            };
            if let Some(reason) = &batch.torn {
                // A frame failed verification mid-batch (truncated or
                // corrupt on the wire). The valid prefix was appended;
                // the next poll re-requests from the new cursor.
                log(&ctx, &format!("partial batch from leader: {reason}"));
            }
            for (seq, record) in batch.records {
                // The frame is in the local WAL either way. A record that
                // cannot reach its session's graph leaves that session
                // where it was (reads of it answer 500) and the next
                // restart refuses the directory, as recovery would have.
                if let Err(e) = ctx.registry.apply_replicated(seq, record) {
                    log(&ctx, &format!("cannot apply seq {seq}: {e}"));
                    continue;
                }
                repl.records_applied_total.fetch_add(1, Ordering::Relaxed);
                repl.last_applied_seq.store(seq, Ordering::Relaxed);
            }
            let end_seq = header_u64(&headers, "x-wal-end-seq").unwrap_or(0);
            let remaining = header_u64(&headers, "x-wal-remaining-bytes").unwrap_or(0);
            repl.lag_records.store(
                end_seq.saturating_sub(store.tail_cursor()),
                Ordering::Relaxed,
            );
            repl.lag_bytes.store(remaining, Ordering::Relaxed);
            repl.state.store(REPL_STATE_TAILING, Ordering::Relaxed);
            let caught_up = store.tail_cursor() >= end_seq;
            if caught_up && sleep_interruptible(&ctx, CAUGHT_UP_POLL) {
                continue;
            }
        }
        if sleep_interruptible(&ctx, backoff) {
            continue;
        }
        backoff = (backoff * 2).min(BACKOFF_MAX);
    }
}

/// Promotes this follower to leader: make everything replicated so far
/// durable, then flip the role so the router starts accepting writes.
/// New appends continue the leader's sequence numbering from the local
/// `tail_cursor`.
fn promote(ctx: &Ctx, store: &pg_store::Store) {
    if let Err(e) = store.sync() {
        log(ctx, &format!("sync before promotion failed: {e}"));
    }
    let repl = &ctx.metrics.replication;
    repl.state.store(REPL_STATE_NONE, Ordering::Relaxed);
    repl.lag_records.store(0, Ordering::Relaxed);
    repl.lag_bytes.store(0, Ordering::Relaxed);
    ctx.role_follower.store(false, Ordering::Relaxed);
    log(
        ctx,
        &format!(
            "promoted to leader at seq {} (was following {})",
            store.tail_cursor(),
            ctx.follow.as_deref().unwrap_or("?")
        ),
    );
}

fn header_u64(headers: &[(String, String)], name: &str) -> Option<u64> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .and_then(|(_, v)| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_lookup_parses_numbers() {
        let headers = vec![
            ("x-wal-end-seq".to_owned(), "17".to_owned()),
            ("x-wal-remaining-bytes".to_owned(), "bogus".to_owned()),
        ];
        assert_eq!(header_u64(&headers, "x-wal-end-seq"), Some(17));
        assert_eq!(header_u64(&headers, "x-wal-remaining-bytes"), None);
        assert_eq!(header_u64(&headers, "absent"), None);
    }
}
