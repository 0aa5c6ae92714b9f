//! Thin std-only FFI over the Linux readiness APIs the reactor needs:
//! `epoll(7)`, `eventfd(2)` and `writev(2)`.
//!
//! Same philosophy as [`crate::signal`]: the workspace takes no
//! dependencies, so instead of the `libc` crate these are direct
//! `extern "C"` declarations of the handful of symbols used, wrapped in
//! safe RAII types ([`Epoll`], [`EventFd`]) that own their file
//! descriptors. Everything returns `io::Result`, translating `-1` via
//! `io::Error::last_os_error()`.

use std::io;
use std::os::fd::RawFd;

/// `EPOLLIN` — the fd is readable.
pub const EPOLLIN: u32 = 0x001;
/// `EPOLLOUT` — the fd is writable.
pub const EPOLLOUT: u32 = 0x004;
/// `EPOLLERR` — error condition (always reported, no need to register).
pub const EPOLLERR: u32 = 0x008;
/// `EPOLLHUP` — hang-up (always reported, no need to register).
pub const EPOLLHUP: u32 = 0x010;
/// `EPOLLRDHUP` — peer shut down the writing half of the connection.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// The kernel's `struct epoll_event`.
///
/// On x86-64 glibc declares it `__attribute__((packed))` (12 bytes, the
/// 64-bit data field unaligned) because that is the kernel ABI there; on
/// other architectures it is naturally aligned. Getting this wrong makes
/// `epoll_wait` scribble events at the wrong offsets, so the layout is
/// selected per-arch and the size is asserted in the tests below.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness flags.
    pub events: u32,
    /// Caller-chosen token carried back with each event (the reactor
    /// stores the connection's fd here).
    pub data: u64,
}

impl EpollEvent {
    /// A zeroed event, for sizing the `epoll_wait` output buffer.
    pub fn zeroed() -> Self {
        EpollEvent { events: 0, data: 0 }
    }
}

#[repr(C)]
struct IoVec {
    base: *const u8,
    len: usize,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn writev(fd: i32, iov: *const IoVec, iovcnt: i32) -> isize;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance. Dropping closes the descriptor.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: takes no pointers; a negative return is mapped to an
        // error, so only a fresh descriptor is stored.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    /// Registers `fd` for the `events` readiness mask, tagging its
    /// notifications with `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the readiness mask of an already registered `fd`.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregisters `fd`.
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `event` is a live local with the kernel's layout (see
        // `EpollEvent`), and the kernel only reads it during the call.
        // `self.fd` is the epoll descriptor this value owns.
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut event) })?;
        Ok(())
    }

    /// Blocks up to `timeout_ms` for readiness, filling `events` from the
    /// front; returns how many fired. A signal interrupting the wait
    /// (`EINTR` — e.g. SIGTERM hitting this thread) reports as zero
    /// events so the caller re-checks its shutdown flag.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: the kernel writes at most `maxevents` entries, and
        // `maxevents` is `events.len()` cast to `i32`: never larger than
        // the slice (a negative value is refused with `EINVAL`), so every
        // write lands inside the exclusively borrowed slice.
        // `EpollEvent` has the kernel's layout and no invalid bit
        // patterns.
        let n = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is owned by this value and never handed
        // out, so this is its one close.
        unsafe { close(self.fd) };
    }
}

/// An owned nonblocking `eventfd`, used to wake a core's `epoll_wait`
/// from another thread (new connection in the inbox, migration, or
/// shutdown). Dropping closes the descriptor.
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// `eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)`.
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: takes no pointers; a negative return is mapped to an
        // error, so only a fresh descriptor is stored.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    /// The raw descriptor, for registering with [`Epoll::add`].
    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Wakes the owning core by adding 1 to the counter. Best-effort: a
    /// counter at `u64::MAX - 1` would block, but the reader always
    /// drains to zero, so in practice this never fails.
    pub fn signal(&self) {
        let one = 1u64.to_ne_bytes();
        // SAFETY: the kernel reads `one.len()` bytes from a live local
        // array of exactly that length. The descriptor is nonblocking,
        // so the call cannot hang.
        unsafe { write(self.fd, one.as_ptr(), one.len()) };
    }

    /// Resets the counter to zero, consuming all pending wakes.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: the kernel writes at most `buf.len()` bytes into a live
        // local array of exactly that length. The descriptor is
        // nonblocking, so the call cannot hang.
        unsafe { read(self.fd, buf.as_mut_ptr(), buf.len()) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is owned by this value; `raw` lends it only
        // for registration, never for closing, so this is its one close.
        unsafe { close(self.fd) };
    }
}

/// Scatter-gather write: submits every buffer in `bufs` (minus the first
/// `skip` bytes, which a previous partial write already sent) in one
/// `writev` syscall. Returns how many bytes the kernel took; the caller
/// advances its queue and retries on the next `EPOLLOUT`.
pub fn write_vectored(fd: RawFd, bufs: &[Vec<u8>], skip: usize) -> io::Result<usize> {
    const MAX_IOV: usize = 64;
    let mut iov: [IoVec; MAX_IOV] = std::array::from_fn(|_| IoVec {
        base: std::ptr::null(),
        len: 0,
    });
    let mut count = 0;
    for (i, buf) in bufs.iter().take(MAX_IOV).enumerate() {
        let skip = if i == 0 { skip } else { 0 };
        iov[count] = IoVec {
            base: buf[skip..].as_ptr(),
            len: buf.len() - skip,
        };
        count += 1;
    }
    // SAFETY: the first `count` (≤ `MAX_IOV`) entries of `iov` each
    // point into a buffer of `bufs` with its exact remaining length, and
    // `bufs` is borrowed for the whole call. The kernel only reads them.
    let n = unsafe { writev(fd, iov.as_ptr(), count as i32) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn epoll_event_matches_kernel_abi() {
        // Packed 12-byte layout — the x86-64 kernel ABI. A 16-byte
        // (aligned) layout here would corrupt every second event.
        assert_eq!(std::mem::size_of::<EpollEvent>(), 12);
    }

    #[test]
    fn eventfd_wakes_epoll() {
        let epoll = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        epoll.add(efd.raw(), EPOLLIN, 7).unwrap();

        let mut events = [EpollEvent::zeroed(); 4];
        // Nothing signalled yet: the wait times out empty.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        efd.signal();
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        let ev = events[0];
        assert_eq!({ ev.data }, 7);
        assert_ne!({ ev.events } & EPOLLIN, 0);

        // Level-triggered: still readable until drained.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 1);
        efd.drain();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn writev_flushes_queued_buffers_with_skip() {
        use std::io::Read;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let tx = std::net::TcpStream::connect(addr).unwrap();
        let (mut rx, _) = listener.accept().unwrap();

        let bufs = vec![b"xxhello ".to_vec(), b"world".to_vec()];
        let fd = {
            use std::os::fd::AsRawFd;
            tx.as_raw_fd()
        };
        let sent = write_vectored(fd, &bufs, 2).unwrap();
        assert_eq!(sent, 11);
        let mut got = [0u8; 11];
        rx.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"hello world");
    }
}
