//! Read-only file mappings for zero-copy snapshot loading.
//!
//! Same philosophy as the server's `sys` module: the workspace takes no
//! dependencies, so instead of the `libc`/`memmap2` crates this is a
//! direct `extern "C"` declaration of `mmap(2)`/`munmap(2)`, wrapped in
//! a safe RAII [`Mapping`] that unmaps on drop. The mapping is
//! `PROT_READ`/`MAP_PRIVATE`: the kernel pages snapshot bytes in on
//! demand and the file contents are never copied into the heap.
//!
//! On non-Unix targets (or if `mmap` fails, e.g. on an empty file or an
//! exotic filesystem) [`map_file`] falls back to `fs::read`, preserving
//! behaviour at the cost of one buffered copy.
#![cfg_attr(unix, allow(unsafe_code))]

use std::fs;
use std::io;
use std::ops::Deref;
use std::path::Path;

/// An immutable byte buffer backing a decoded snapshot: either a real
/// `mmap(2)` of the snapshot file or a heap buffer read with `fs::read`.
/// Derefs to `[u8]` so decoding code never cares which.
pub enum Mapping {
    /// A live `PROT_READ` mapping; unmapped on drop.
    #[cfg(unix)]
    Mapped(MmapRegion),
    /// Fallback: the whole file buffered in memory.
    Heap(Vec<u8>),
}

impl Deref for Mapping {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            Mapping::Mapped(m) => m.as_slice(),
            Mapping::Heap(v) => v,
        }
    }
}

impl std::fmt::Debug for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            #[cfg(unix)]
            Mapping::Mapped(_) => "Mapped",
            Mapping::Heap(_) => "Heap",
        };
        write!(f, "Mapping::{kind}({} bytes)", self.len())
    }
}

/// Map `path` read-only. Uses `mmap(2)` where available; any failure —
/// zero-length files cannot be mapped, and some filesystems refuse —
/// falls back to reading the file into memory.
pub fn map_file(path: &Path) -> io::Result<Mapping> {
    #[cfg(unix)]
    {
        let file = fs::File::open(path)?;
        let len = file.metadata()?.len();
        if len > 0 && len <= usize::MAX as u64 {
            if let Ok(region) = MmapRegion::map(&file, len as usize) {
                return Ok(Mapping::Mapped(region));
            }
        }
    }
    Ok(Mapping::Heap(fs::read(path)?))
}

#[cfg(unix)]
pub use unix::MmapRegion;

#[cfg(unix)]
mod unix {
    use std::io;
    use std::os::fd::{AsRawFd, RawFd};

    const PROT_READ: i32 = 0x1;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_FAILED: *mut u8 = usize::MAX as *mut u8;

    extern "C" {
        fn mmap(
            addr: *mut u8,
            length: usize,
            prot: i32,
            flags: i32,
            fd: RawFd,
            offset: i64,
        ) -> *mut u8;
        fn munmap(addr: *mut u8, length: usize) -> i32;
    }

    /// An owned `PROT_READ`/`MAP_PRIVATE` mapping of a whole file.
    ///
    /// The pointer stays valid for the lifetime of the region regardless
    /// of what happens to the originating `File`; `Drop` unmaps it.
    pub struct MmapRegion {
        ptr: *mut u8,
        len: usize,
    }

    // SAFETY: the raw pointer is the only thing keeping the auto traits
    // away. The region owns its mapping outright (no other value aliases
    // or unmaps it), so moving it to another thread moves that
    // ownership, and `Drop` unmaps exactly once wherever it runs.
    unsafe impl Send for MmapRegion {}
    // SAFETY: the mapping is `PROT_READ` and `MAP_PRIVATE`, and the only
    // access through `&MmapRegion` is `as_slice`, a shared read. Threads
    // sharing a reference can only read the pages concurrently.
    unsafe impl Sync for MmapRegion {}

    impl MmapRegion {
        pub(super) fn map(file: &std::fs::File, len: usize) -> io::Result<Self> {
            // SAFETY: NULL hint, a length measured from the file, and a
            // valid borrowed fd; the result is checked against
            // MAP_FAILED before use.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == MAP_FAILED {
                return Err(io::Error::last_os_error());
            }
            Ok(MmapRegion { ptr, len })
        }

        pub(super) fn as_slice(&self) -> &[u8] {
            // SAFETY: ptr/len describe a live PROT_READ mapping owned by
            // self; MAP_PRIVATE means later file writes don't alias it.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for MmapRegion {
        fn drop(&mut self) {
            // SAFETY: exactly the region returned by mmap in `map`.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_matches_file_contents() {
        let dir = std::env::temp_dir().join(format!("pgstore-mmap-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob");
        let data: Vec<u8> = (0..100_000u32).flat_map(|i| i.to_le_bytes()).collect();
        fs::write(&path, &data).unwrap();
        let m = map_file(&path).unwrap();
        assert_eq!(&*m, &data[..]);
        #[cfg(unix)]
        assert!(
            matches!(m, Mapping::Mapped(_)),
            "non-empty file should really map"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_file_falls_back_to_heap() {
        let dir = std::env::temp_dir().join(format!("pgstore-mmap0-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty");
        fs::write(&path, b"").unwrap();
        let m = map_file(&path).unwrap();
        assert!(m.is_empty());
        assert!(matches!(m, Mapping::Heap(_)));
        fs::remove_dir_all(&dir).ok();
    }
}
