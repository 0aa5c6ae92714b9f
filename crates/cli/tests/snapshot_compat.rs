//! Snapshot format boundaries: a handoff blob installs into an empty
//! directory and bootstraps zero-copy, and a snapshot in any `PGS`-family
//! format this build does not read — a *future* one, or the retired
//! eager `PGS1` — must fail recovery with an explicit "unsupported
//! snapshot version" error and leave the directory untouched: never
//! classified as corruption and silently skipped, never a torn-tail
//! truncation.

use pg_server::workload::{sample_graph, SCHEMA_SDL};
use pg_store::SessionMeta;
use pgraph::snapshot;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("pgschema-snapcompat-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The durable state of the one freshly created session these tests
/// capture.
fn created() -> SessionMeta {
    SessionMeta::created(SCHEMA_SDL.to_owned(), 1)
}

#[test]
fn handoff_blob_installs_and_bootstraps_zero_copy() {
    let graph = sample_graph(25);
    let src = tmp_dir("handoff-src");
    let blob = {
        let (store, _) = pg_store::Store::open(&src, pg_store::FsyncPolicy::Never).unwrap();
        store.append_create(1, SCHEMA_SDL, &graph).unwrap();
        let mut handoff = store.begin_handoff();
        handoff.add_session(1, &created(), &graph);
        handoff.finish(2)
    };
    let dst = tmp_dir("handoff-dst");
    let _ = std::fs::remove_dir_all(&dst);
    pg_store::install_snapshot(&dst, &blob).expect("installs");
    let (_store, recovered) =
        pg_store::Store::open(&dst, pg_store::FsyncPolicy::Never).expect("bootstraps");
    assert_eq!(recovered.sessions.len(), 1);
    assert!(
        recovered.sessions[0].graph.is_mapped(),
        "bootstrap leaves the graph zero-copy until first use"
    );
    assert_eq!(recovered.sessions[0].graph, graph);
    let _ = std::fs::remove_dir_all(&src);
    let _ = std::fs::remove_dir_all(&dst);
}

#[test]
fn future_snapshot_version_fails_loudly_and_mutates_nothing() {
    for digit in [b'9', b'1'] {
        other_pgs_magic_is_refused(digit);
    }
}

/// An intact snapshot whose magic is `PGS<digit>` instead of `PGS2`.
fn other_pgs_magic_is_refused(digit: u8) {
    let graph = sample_graph(10);
    let dir = tmp_dir("future");
    {
        let (store, _) = pg_store::Store::open(&dir, pg_store::FsyncPolicy::Never).unwrap();
        store.append_create(1, SCHEMA_SDL, &graph).unwrap();
        let mut compaction = store.try_begin_compaction().unwrap().unwrap();
        compaction.capture().add_session(1, &created(), &graph);
        compaction.finish(2).unwrap();
    }
    // Rewrite the snapshot as an intact file from another writer:
    // change the magic and fix up the container CRC.
    let snap_path = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| Some(e.ok()?.path()))
        .find(|p| p.extension().is_some_and(|x| x == "snap"))
        .expect("compaction wrote a snapshot");
    let mut bytes = std::fs::read(&snap_path).unwrap();
    bytes[8 + 3] = digit; // frame header is 8 bytes; magic is payload[0..4]
    let crc = snapshot::crc32(&bytes[8..]);
    bytes[4..8].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&snap_path, &bytes).unwrap();

    let before: Vec<(String, Vec<u8>)> = {
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let p = e.unwrap().path();
                (
                    p.file_name().unwrap().to_string_lossy().into_owned(),
                    std::fs::read(&p).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    };

    let err = match pg_store::Store::open(&dir, pg_store::FsyncPolicy::Never) {
        Ok(_) => panic!("PGS{} must not open", digit as char),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
    assert!(
        err.to_string().contains("unsupported snapshot version"),
        "error names the cause: {err}"
    );

    // Refusal means refusal: no truncation, no deletion, no fallback
    // side effects — every byte of the directory is as it was.
    let after: Vec<(String, Vec<u8>)> = {
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let p = e.unwrap().path();
                (
                    p.file_name().unwrap().to_string_lossy().into_owned(),
                    std::fs::read(&p).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    };
    assert_eq!(before, after, "failed open must not mutate the directory");
    let _ = std::fs::remove_dir_all(&dir);
}
