//! The per-core epoll event loops behind [`crate::server::Server`].
//!
//! Each core thread owns one [`Epoll`] instance, a set of nonblocking
//! connections, and an inbox the accept thread drops fresh connections
//! into (round-robin, with an eventfd wake). A connection stays on the
//! core that adopted it for its whole life and every request is served by
//! the core that read it; requests from different cores that address the
//! same session meet at that session's mutex
//! ([`crate::registry::SessionSlot`]), nowhere else.
//!
//! A connection is a small state machine advanced by readiness events:
//!
//! ```text
//!              EPOLLIN: read until WouldBlock,
//!              parse requests from the buffer
//!            ┌────────────────────────────────┐
//!            ▼                                │
//!        ┌───────┐   response queued,     ┌───┴───┐
//!  new ─▶│ READ  │──── writev short ─────▶│ FLUSH │─▶ close
//!        └───┬───┘                        └───┬───┘   (error, EOF, or
//!            │  ▲                             │        Connection: close
//!            │  └── out queue fully flushed ──┘        after flush)
//!            │      (resume pipelined parse)
//!            └─▶ serve: route the parsed request on this core,
//!                queue the response, writev
//! ```
//!
//! Reading stops while responses are queued (`out` non-empty): that is
//! the backpressure that keeps a pipelining client from ballooning the
//! buffers — the kernel's TCP window does the rest. Requests parse
//! incrementally from a per-connection accumulator, so a request
//! arriving one byte per wakeup is handled identically to one arriving
//! whole.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::http;
use crate::server::{self, Ctx};
use crate::sys::{self, Epoll, EpollEvent, EventFd};

/// Token reserved for the core's eventfd (fds can never reach it).
const WAKE_TOKEN: u64 = u64::MAX;
/// Safety-net timeout for `epoll_wait`: bounds how stale a shutdown
/// check can get if a wake signal is ever lost.
const WAIT_TIMEOUT_MS: i32 = 100;
/// Max bytes read from one connection per readiness event, so a
/// firehosing peer cannot starve the rest of the core (level-triggered
/// epoll re-reports whatever is left).
const READ_BUDGET: usize = 64 * 1024;
/// How long a draining core waits for unflushed responses before
/// dropping the connections (a peer that stopped reading would otherwise
/// stall shutdown forever).
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// A core's cross-thread face: the inbox plus the eventfd that wakes its
/// `epoll_wait`.
pub(crate) struct CoreShared {
    /// Freshly accepted connections (still blocking; the core makes them
    /// nonblocking before registering).
    inbox: Mutex<Vec<TcpStream>>,
    /// Signalled after every inbox push and on shutdown.
    pub(crate) wake: EventFd,
}

impl CoreShared {
    pub(crate) fn new() -> io::Result<CoreShared> {
        Ok(CoreShared {
            inbox: Mutex::new(Vec::new()),
            wake: EventFd::new()?,
        })
    }

    /// Enqueues a fresh connection and wakes the owning core.
    pub(crate) fn push(&self, stream: TcpStream) {
        self.inbox.lock().unwrap().push(stream);
        self.wake.signal();
    }
}

/// One connection's state, owned by the core that adopted it.
struct Conn {
    stream: TcpStream,
    /// Inbound accumulator [`http::parse_buffered`] consumes from.
    buf: Vec<u8>,
    /// Serialized responses not yet fully written, oldest first.
    out: VecDeque<Vec<u8>>,
    /// Bytes of `out.front()` a previous partial `writev` already sent.
    out_skip: usize,
    /// Close once `out` is flushed (`Connection: close`, a 400, or a
    /// drain in progress).
    close_after_flush: bool,
    /// The peer sent EOF; serve what is buffered, then close.
    peer_eof: bool,
    /// The readiness mask currently registered with epoll (readability,
    /// from adoption on), so interest flips cost a syscall only when they
    /// actually change.
    interest: u32,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            out: VecDeque::new(),
            out_skip: 0,
            close_after_flush: false,
            peer_eof: false,
            interest: sys::EPOLLIN | sys::EPOLLRDHUP,
        }
    }

    fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }
}

/// What a burst of parsing/serving left the connection needing.
enum After {
    /// Everything served and flushed: wait for more input.
    KeepReading,
    /// Unflushed output remains: wait for writability.
    Flushing,
    /// Connection is done (error, EOF, or close-after-flush completed).
    Close,
}

/// The core event loop. Runs until shutdown has been requested *and*
/// every owned connection has drained (or the drain deadline passes).
pub(crate) fn run_core(index: usize, epoll: Epoll, ctx: Arc<Ctx>, own: Arc<CoreShared>) {
    if epoll.add(own.wake.raw(), sys::EPOLLIN, WAKE_TOKEN).is_err() {
        return;
    }
    let mut conns: HashMap<RawFd, Conn> = HashMap::new();
    let mut events = vec![EpollEvent::zeroed(); 256];
    let mut drain_deadline: Option<Instant> = None;
    while let Ok(n) = epoll.wait(&mut events, WAIT_TIMEOUT_MS) {
        if n > 0 {
            ctx.metrics.record_wakeup(index, n);
        }
        for event in events.iter().take(n) {
            let event = *event;
            let token = { event.data };
            let mask = { event.events };
            if token == WAKE_TOKEN {
                own.wake.drain();
                continue;
            }
            handle_event(&ctx, index, &epoll, &mut conns, token as RawFd, mask);
        }
        drain_inbox(&ctx, index, &epoll, &mut conns, &own);
        if ctx.shutdown.load(Ordering::Relaxed) {
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_DEADLINE);
            let expired = Instant::now() >= deadline;
            // Close idle connections now; ones still flushing get their
            // EPOLLOUT (close_after_flush is forced below) unless the
            // deadline has passed.
            let closing: Vec<RawFd> = conns
                .iter()
                .filter(|(_, c)| c.out.is_empty() || expired)
                .map(|(&fd, _)| fd)
                .collect();
            for fd in closing {
                close_conn(&ctx, index, &epoll, &mut conns, fd);
            }
            for conn in conns.values_mut() {
                conn.close_after_flush = true;
            }
            if conns.is_empty() {
                break;
            }
        }
    }
}

/// Dispatches one readiness event for `fd`.
fn handle_event(
    ctx: &Ctx,
    index: usize,
    epoll: &Epoll,
    conns: &mut HashMap<RawFd, Conn>,
    fd: RawFd,
    mask: u32,
) {
    // Stale event: the connection closed earlier this batch and the fd
    // number may already belong to someone else.
    let Some(conn) = conns.get_mut(&fd) else {
        return;
    };
    if mask & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
        close_conn(ctx, index, epoll, conns, fd);
        return;
    }
    if mask & sys::EPOLLOUT != 0 {
        if flush(conn).is_err() {
            close_conn(ctx, index, epoll, conns, fd);
            return;
        }
        if conn.out.is_empty() {
            if conn.close_after_flush {
                close_conn(ctx, index, epoll, conns, fd);
                return;
            }
            // Fully flushed: pipelined requests may already be buffered.
            let after = process_input(ctx, conn);
            if !apply_after(ctx, index, epoll, conns, fd, after) {
                return;
            }
        }
    }
    if mask & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 {
        let Some(conn) = conns.get_mut(&fd) else {
            return;
        };
        if !conn.out.is_empty() {
            // Backpressured: interest is EPOLLOUT, this is a stale
            // EPOLLIN from the same batch. Leave the bytes in the kernel.
            return;
        }
        if fill_buf(conn).is_err() {
            close_conn(ctx, index, epoll, conns, fd);
            return;
        }
        let after = process_input(ctx, conn);
        apply_after(ctx, index, epoll, conns, fd, after);
    }
}

/// Reads until `WouldBlock`, EOF, or the per-event budget is spent.
fn fill_buf(conn: &mut Conn) -> io::Result<()> {
    let mut chunk = [0u8; 8 * 1024];
    let mut taken = 0usize;
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.peer_eof = true;
                return Ok(());
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                taken += n;
                if taken >= READ_BUDGET {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Parses and serves as many buffered requests as possible. Stops at the
/// first response that does not flush in full, or when the buffer holds
/// no complete request.
fn process_input(ctx: &Ctx, conn: &mut Conn) -> After {
    loop {
        let request = match http::parse_buffered(&mut conn.buf) {
            Ok(Some(request)) => request,
            Ok(None) => {
                return if conn.peer_eof {
                    After::Close
                } else {
                    After::KeepReading
                };
            }
            Err(e) => {
                // Malformed framing: answer 400, close once flushed.
                let response = server::bad_request(ctx, &e.to_string());
                conn.out.push_back(response.serialize(true));
                conn.close_after_flush = true;
                return flush_or_close(conn);
            }
        };
        let (response, close) = server::process(ctx, &request);
        conn.out.push_back(response.serialize(close));
        if close {
            conn.close_after_flush = true;
        }
        match flush_or_close(conn) {
            After::KeepReading => {} // fully flushed: next pipelined request
            other => return other,
        }
    }
}

/// Flushes what it can immediately; classifies what the connection needs
/// next. `KeepReading` means the queue emptied and the connection stays.
fn flush_or_close(conn: &mut Conn) -> After {
    if flush(conn).is_err() {
        return After::Close;
    }
    if conn.out.is_empty() {
        if conn.close_after_flush {
            After::Close
        } else {
            After::KeepReading
        }
    } else {
        After::Flushing
    }
}

/// One `writev` pass over the output queue, advancing it by however many
/// bytes the kernel took. `Ok` with a non-empty queue means the socket
/// is full — wait for `EPOLLOUT`.
fn flush(conn: &mut Conn) -> io::Result<()> {
    while !conn.out.is_empty() {
        let fd = conn.fd();
        let written = match sys::write_vectored(fd, conn.out.make_contiguous(), conn.out_skip) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let mut remaining = written;
        while remaining > 0 {
            let front_left = conn.out.front().map_or(0, |b| b.len() - conn.out_skip);
            if remaining >= front_left {
                remaining -= front_left;
                conn.out.pop_front();
                conn.out_skip = 0;
            } else {
                conn.out_skip += remaining;
                remaining = 0;
            }
        }
        if written == 0 {
            return Ok(());
        }
    }
    Ok(())
}

/// Applies a [`After`] to the connection. Returns whether the connection
/// is still open.
fn apply_after(
    ctx: &Ctx,
    index: usize,
    epoll: &Epoll,
    conns: &mut HashMap<RawFd, Conn>,
    fd: RawFd,
    after: After,
) -> bool {
    match after {
        After::KeepReading => {
            set_interest(epoll, conns, fd, sys::EPOLLIN | sys::EPOLLRDHUP);
            true
        }
        After::Flushing => {
            set_interest(epoll, conns, fd, sys::EPOLLOUT);
            true
        }
        After::Close => {
            close_conn(ctx, index, epoll, conns, fd);
            false
        }
    }
}

fn set_interest(epoll: &Epoll, conns: &mut HashMap<RawFd, Conn>, fd: RawFd, mask: u32) {
    if let Some(conn) = conns.get_mut(&fd) {
        if conn.interest != mask && epoll.modify(fd, mask, fd as u64).is_ok() {
            conn.interest = mask;
        }
    }
}

/// Deregisters, drops (closing the socket) and un-counts a connection.
fn close_conn(ctx: &Ctx, index: usize, epoll: &Epoll, conns: &mut HashMap<RawFd, Conn>, fd: RawFd) {
    if conns.remove(&fd).is_some() {
        let _ = epoll.del(fd);
        ctx.core_connections[index].fetch_sub(1, Ordering::Relaxed);
        ctx.open_connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Adopts the connections the accept thread queued since the last wake:
/// each is made nonblocking and registered for readability (epoll is
/// level-triggered, so bytes the peer already sent are reported at once).
fn drain_inbox(
    ctx: &Ctx,
    index: usize,
    epoll: &Epoll,
    conns: &mut HashMap<RawFd, Conn>,
    own: &CoreShared,
) {
    let fresh = std::mem::take(&mut *own.inbox.lock().unwrap());
    for stream in fresh {
        let conn = Conn::new(stream);
        let fd = conn.fd();
        if conn.stream.set_nonblocking(true).is_err()
            || conn.stream.set_nodelay(true).is_err()
            || epoll.add(fd, conn.interest, fd as u64).is_err()
        {
            ctx.open_connections.fetch_sub(1, Ordering::Relaxed);
            continue;
        }
        ctx.core_connections[index].fetch_add(1, Ordering::Relaxed);
        conns.insert(fd, conn);
    }
}
