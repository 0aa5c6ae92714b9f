//! The normative wire constants of the pg-store log format.
//!
//! Replication ships WAL frames byte-for-byte (`docs/replication.md` is
//! the protocol spec; its frame-layout tables are checked against these
//! constants by `tests/spec_parity.rs`). Everything a second
//! implementation needs to frame, checksum and name the files lives
//! here; the codec itself is in [`crate::StoreRecord`]'s module.
//!
//! A WAL frame is laid out as
//!
//! ```text
//! offset  size  field
//! 0       4     payload_len   u32 LE, length of payload in bytes
//! 4       4     crc32         u32 LE, CRC-32 (IEEE) over the payload
//! 8       8     seq           u64 LE, strictly monotonic sequence number
//! 16      1     kind          u8: 1 Create, 2 Delta, 3 Delete, 4 SchemaChange
//! 17      …     body          kind-specific, `pgraph::binary` codec
//! ```
//!
//! (`seq` onwards *is* the payload: `payload_len` counts from offset 8.)

/// Size of the frame header (`payload_len` + `crc32`), in bytes.
pub const FRAME_HEADER_BYTES: usize = 8;

/// Byte offset of the `payload_len` field within a frame.
pub const FRAME_LEN_OFFSET: usize = 0;

/// Size of the `payload_len` field (`u32` little-endian).
pub const FRAME_LEN_BYTES: usize = 4;

/// Byte offset of the `crc32` field within a frame.
pub const FRAME_CRC_OFFSET: usize = 4;

/// Size of the `crc32` field (`u32` little-endian, CRC-32/IEEE over the
/// whole payload).
pub const FRAME_CRC_BYTES: usize = 4;

/// Byte offset of the `seq` field within a frame (the payload starts
/// here; the CRC covers everything from this offset on).
pub const FRAME_SEQ_OFFSET: usize = 8;

/// Size of the `seq` field (`u64` little-endian).
pub const FRAME_SEQ_BYTES: usize = 8;

/// Byte offset of the `kind` byte within a frame.
pub const FRAME_KIND_OFFSET: usize = 16;

/// Size of the `kind` field.
pub const FRAME_KIND_BYTES: usize = 1;

/// Byte offset of the kind-specific body within a frame.
pub const FRAME_BODY_OFFSET: usize = 17;

/// Smallest legal payload: `seq` + `kind` with an empty body. A frame
/// declaring less is corrupt.
pub const MIN_PAYLOAD_BYTES: usize = 9;

/// Largest legal payload (64 MiB, matching the HTTP body cap upstream).
/// A `payload_len` beyond this is treated as corruption, not as an
/// allocation request.
pub const MAX_PAYLOAD_BYTES: usize = 64 << 20;

/// `kind` byte of a `Create` record (session id, schema SDL, initial
/// graph).
pub const KIND_CREATE: u8 = 1;

/// `kind` byte of a `Delta` record (session id, mutation log).
pub const KIND_DELTA: u8 = 2;

/// `kind` byte of a `Delete` record (session id only; the body is
/// empty).
pub const KIND_DELETE: u8 = 3;

/// `kind` byte of a `SchemaChange` record (session id, migration phase,
/// new schema SDL — non-empty only for the begin phase).
pub const KIND_SCHEMA: u8 = 4;

/// Any `kind` byte above this is unknown to this implementation: readers
/// must refuse it with an explicit "unknown record kind" error rather
/// than misclassify the (CRC-valid) frame as corruption.
pub const KIND_MAX: u8 = KIND_SCHEMA;

/// Magic bytes opening a snapshot payload (format v2): sessions embed
/// their graphs as verbatim `PGCS` columnar images
/// ([`pgraph::snapshot`]), each 8-byte aligned *in the file* so a
/// memory-mapped snapshot hands out aligned zero-copy graph views.
pub const SNAPSHOT_MAGIC_V2: [u8; 4] = *b"PGS2";

/// File-offset alignment of every embedded `PGCS` graph image inside a
/// v2 snapshot. Because the CRC frame header is itself 8 bytes
/// ([`FRAME_HEADER_BYTES`]), payload-relative and file-relative
/// alignment coincide.
pub const SNAPSHOT_GRAPH_ALIGN: usize = 8;

/// Magic bytes opening an embedded columnar graph image (re-exported
/// from the graph crate so the spec-parity tests can check the snapshot
/// table against one source of truth).
pub const PGCS_MAGIC: [u8; 4] = pgraph::snapshot::MAGIC;

/// Version of the embedded columnar graph format this build writes.
pub const PGCS_VERSION: u32 = pgraph::snapshot::VERSION;

/// Length of a `PGCS` graph header in bytes.
pub const PGCS_HEADER_LEN: usize = pgraph::snapshot::HEADER_LEN;

/// Number of sections in a `PGCS` graph image.
pub const PGCS_SECTION_COUNT: usize = pgraph::snapshot::SECTION_COUNT;

/// WAL segment file names: `wal-{first_seq:020}.log`, zero-padded so
/// lexicographic order equals replay order.
pub const SEGMENT_PREFIX: &str = "wal-";

/// WAL segment file suffix.
pub const SEGMENT_SUFFIX: &str = ".log";

/// Digits in a zero-padded segment sequence number.
pub const SEGMENT_SEQ_DIGITS: usize = 20;

/// Snapshot file names: `snapshot-{generation:06}.snap`.
pub const SNAPSHOT_PREFIX: &str = "snapshot-";

/// Snapshot file suffix.
pub const SNAPSHOT_SUFFIX: &str = ".snap";

/// Digits in a zero-padded snapshot generation.
pub const SNAPSHOT_GENERATION_DIGITS: usize = 6;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_contiguous() {
        assert_eq!(FRAME_LEN_OFFSET + FRAME_LEN_BYTES, FRAME_CRC_OFFSET);
        assert_eq!(FRAME_CRC_OFFSET + FRAME_CRC_BYTES, FRAME_SEQ_OFFSET);
        assert_eq!(FRAME_SEQ_OFFSET, FRAME_HEADER_BYTES);
        assert_eq!(FRAME_SEQ_OFFSET + FRAME_SEQ_BYTES, FRAME_KIND_OFFSET);
        assert_eq!(FRAME_KIND_OFFSET + FRAME_KIND_BYTES, FRAME_BODY_OFFSET);
        assert_eq!(
            MIN_PAYLOAD_BYTES,
            FRAME_SEQ_BYTES + FRAME_KIND_BYTES,
            "minimum payload is seq + kind"
        );
    }
}
