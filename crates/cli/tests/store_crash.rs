//! Crash-injection harness for the durable session store: a real
//! `pgschema serve --data-dir` process is SIGKILLed mid-load at random
//! points, relaunched on the same directory, and the recovered state is
//! required to agree byte-for-byte with a from-scratch four-engine
//! oracle validation — and to be exactly some acknowledged prefix of the
//! delta stream. A second phase truncates and bit-flips WAL tails of
//! copies of the crashed directory at random offsets and requires
//! recovery to land on a valid earlier prefix (or, when the cut reaches
//! back past the session's Create record, on an empty store), never on
//! fabricated state.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use pg_schema::{validate, Engine, PgSchema, ValidationOptions};
use pg_server::workload::{
    envelope, free_addr, sample_graph, toggle_delta, user_ids, Client, Daemon, Scratch, SCHEMA_SDL,
};
use pgraph::json::{self, Json};
use pgraph::{GraphDelta, PropertyGraph};
use rand::prelude::*;

/// A durable daemon from this crate's `pgschema` binary on `addr` over
/// `data_dir`, with a ready connection to it.
fn spawn_daemon(addr: &str, data_dir: &Path) -> (Daemon, Client) {
    Daemon::spawn(env!("CARGO_BIN_EXE_pgschema"), addr, data_dir, None).unwrap()
}

/// The `conforms` and `violations` members of a report document —
/// everything that must agree across engines and restarts (timing
/// metrics and the engine label legitimately differ).
fn report_essence(doc: &Json) -> (Json, Json) {
    (
        doc.get("conforms").cloned().expect("report has conforms"),
        doc.get("violations")
            .cloned()
            .expect("report has violations"),
    )
}

/// The from-scratch oracle: all four engines over `graph` must agree
/// with each other and with the served report's essence.
fn assert_four_engine_agreement(graph: &PropertyGraph, served_report: &Json, context: &str) {
    let schema = PgSchema::parse(SCHEMA_SDL).unwrap();
    let served = report_essence(served_report);
    for engine in [
        Engine::Naive,
        Engine::Indexed,
        Engine::Parallel,
        Engine::Incremental,
    ] {
        let scratch = validate(graph, &schema, &ValidationOptions::with_engine(engine));
        let scratch_doc = Json::parse(&scratch.to_json()).unwrap();
        assert_eq!(
            served,
            report_essence(&scratch_doc),
            "{context}: {} disagrees with the served report",
            engine.name()
        );
    }
}

/// SIGKILL the daemon at random points while a loader hammers one
/// durable session, relaunch on the same directory, and require the
/// recovered graph to be exactly the acknowledged prefix of the delta
/// stream (in-flight deltas may add at most one more) and the recovered
/// report to pass the four-engine oracle.
#[test]
fn sigkill_mid_load_recovers_an_acknowledged_prefix() {
    let scratch = Scratch::new("crash-sigkill").unwrap();
    let data_dir = scratch.path();
    let addr = free_addr().unwrap();
    let mut rng = StdRng::seed_from_u64(0xC4A5_11ED);

    let initial = sample_graph(4);
    let user = user_ids(&initial)[0];

    let (mut daemon, mut client) = spawn_daemon(&addr, data_dir);
    let id = client
        .create_session("/sessions", &envelope(SCHEMA_SDL, &initial))
        .unwrap();
    drop(client);

    // `applied` tracks the deltas the server has durably absorbed so
    // far, adopted after each crash by matching the served graph against
    // the candidate prefixes.
    let mut applied: Vec<GraphDelta> = Vec::new();
    let mut delta_counter = 0u64;

    for round in 0..3 {
        // Loader: synchronous deltas on one connection until the kill.
        let acked = AtomicU64::new(0);
        let sent = AtomicU64::new(0);
        let kill_after = Duration::from_millis(rng.gen_range(30u64..250));
        let round_deltas: Vec<GraphDelta> = (0..400)
            .map(|i| toggle_delta(user, delta_counter + i))
            .collect();
        std::thread::scope(|scope| {
            let loader = scope.spawn(|| {
                let Ok(mut client) = Client::connect(&addr) else {
                    return;
                };
                for delta in &round_deltas {
                    sent.fetch_add(1, Ordering::SeqCst);
                    let body = json::delta_to_json(delta);
                    match client.request("POST", &format!("/sessions/{id}/deltas"), body.as_bytes())
                    {
                        Ok((200, _)) => {
                            acked.fetch_add(1, Ordering::SeqCst);
                        }
                        _ => return, // connection died: the kill landed
                    }
                }
            });
            std::thread::sleep(kill_after);
            drop(daemon);
            loader.join().unwrap();
        });
        let acked = acked.load(Ordering::SeqCst) as usize;
        let sent = sent.load(Ordering::SeqCst) as usize;

        // Relaunch on the same directory and read the recovered state.
        let (relaunched, mut client) = spawn_daemon(&addr, data_dir);
        daemon = relaunched;
        let (status, graph_body) = client
            .request("GET", &format!("/sessions/{id}/graph"), b"")
            .unwrap();
        assert_eq!(status, 200, "round {round}: session survives the crash");
        let served_graph_json = String::from_utf8(graph_body).unwrap();
        let (status, report_body) = client
            .request("GET", &format!("/sessions/{id}/report"), b"")
            .unwrap();
        assert_eq!(status, 200);
        let served_report = Json::parse(&String::from_utf8_lossy(&report_body)).unwrap();
        drop(client);

        // Every acknowledged delta must have survived; the one that may
        // have been in flight at the kill is allowed either way.
        let mut matched = None;
        let mut candidate = {
            let mut g = initial.clone();
            for d in &applied {
                d.apply_to(&mut g).unwrap();
            }
            g
        };
        for (k, delta) in std::iter::once(None)
            .chain(round_deltas.iter().map(Some))
            .enumerate()
        {
            if let Some(delta) = delta {
                delta.apply_to(&mut candidate).unwrap();
            }
            let within_ambiguity = k >= acked && k <= sent;
            if within_ambiguity && json::to_json(&candidate) == served_graph_json {
                matched = Some((k, candidate.clone()));
                break;
            }
            if k > sent {
                break;
            }
        }
        let (k, adopted) = matched.unwrap_or_else(|| {
            panic!(
                "round {round}: recovered graph is not an acknowledged prefix \
                 (acked {acked}, sent {sent})"
            )
        });
        assert_four_engine_agreement(&adopted, &served_report, &format!("round {round}"));

        applied.extend(round_deltas[..k].iter().cloned());
        delta_counter += sent as u64;
    }

    // Leave a crashed (not drained) directory behind for the tail-
    // corruption phase.
    drop(daemon);

    corrupt_tails_and_recover(data_dir, &initial, &applied);
}

/// Phase two: truncate and bit-flip the WAL tail of *copies* of the
/// crashed directory at random offsets; recovery must always produce a
/// valid prefix of the delta history (possibly none at all), and that
/// prefix must pass the four-engine oracle.
fn corrupt_tails_and_recover(data_dir: &Path, initial: &PropertyGraph, applied: &[GraphDelta]) {
    let mut rng = StdRng::seed_from_u64(0xDEAD_7A11);
    // All graphs the WAL could legally rewind to: the initial graph plus
    // every delta prefix.
    let mut prefixes = vec![json::to_json(initial)];
    {
        let mut g = initial.clone();
        for d in applied {
            d.apply_to(&mut g).unwrap();
            prefixes.push(json::to_json(&g));
        }
    }
    let schema = PgSchema::parse(SCHEMA_SDL).unwrap();

    let segments: Vec<PathBuf> = std::fs::read_dir(data_dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            let name = p.file_name()?.to_str()?.to_owned();
            (name.starts_with("wal-") && name.ends_with(".log")).then_some(p)
        })
        .collect();
    assert!(!segments.is_empty(), "crashed directory has WAL segments");
    let tail = segments.iter().max().unwrap();
    let tail_len = std::fs::metadata(tail).unwrap().len();

    for trial in 0..12 {
        let scratch = Scratch::new(&format!("crash-corrupt-{trial}")).unwrap();
        let copy = scratch.path();
        for entry in std::fs::read_dir(data_dir).unwrap() {
            let p = entry.unwrap().path();
            std::fs::copy(&p, copy.join(p.file_name().unwrap())).unwrap();
        }
        let tail_copy = copy.join(tail.file_name().unwrap());
        if trial % 2 == 0 {
            // Torn tail: cut at a random byte offset.
            let cut = rng.gen_range(0..tail_len);
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(&tail_copy)
                .unwrap();
            f.set_len(cut).unwrap();
        } else {
            // Bit flip at a random offset.
            let mut bytes = std::fs::read(&tail_copy).unwrap();
            if bytes.is_empty() {
                continue;
            }
            let at = rng.gen_range(0..bytes.len() as u64) as usize;
            bytes[at] ^= 1 << rng.gen_range(0u32..8);
            std::fs::write(&tail_copy, &bytes).unwrap();
        }

        let (_store, recovered) =
            pg_store::Store::open(copy, pg_store::FsyncPolicy::Never).expect("recovery succeeds");
        match recovered.sessions.as_slice() {
            [] => {} // the cut reached past the Create record
            [session] => {
                let graph = session.graph.clone().into_graph().expect("materializes");
                let got = json::to_json(&graph);
                assert!(
                    prefixes.contains(&got),
                    "trial {trial}: recovered graph is not a prefix of the history"
                );
                let reports: Vec<_> = [
                    Engine::Naive,
                    Engine::Indexed,
                    Engine::Parallel,
                    Engine::Incremental,
                ]
                .into_iter()
                .map(|e| validate(&graph, &schema, &ValidationOptions::with_engine(e)))
                .collect();
                for r in &reports {
                    assert_eq!(
                        r.violations(),
                        reports[0].violations(),
                        "trial {trial}: engines disagree on the recovered graph"
                    );
                }
            }
            more => panic!("trial {trial}: unexpected sessions: {}", more.len()),
        }
    }
}
