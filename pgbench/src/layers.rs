//! In-process layer probes for the traced run.
//!
//! The daemon has no stage timers yet, so the time a request spends in
//! each library layer is measured from outside: the *same generated
//! requests* the daemon served are replayed here through the same
//! sequence of public functions its handlers call (`handle_validate`,
//! `handle_create_session`, `handle_delta`, `handle_report`,
//! `handle_graph` in `crates/server/src/server.rs`), with a span around
//! each call. The replay runs after the daemon has stopped, so it adds
//! no load to the measured run.

use std::hint::black_box;
use std::io;
use std::path::Path;

use pg_schema::{validate, Engine, IncrementalEngine, PgSchema, ValidationOptions};
use pg_store::{FsyncPolicy, Store};
use pgraph::json::{self, Json};
use pgraph::ColumnarGraph;

use crate::trace::Recorder;
use crate::workload::{Class, Inputs, Spec, Stream};

/// Requests of a workload that get spans.
const REPLAYS: usize = 200;

/// Session streams are replayed from their start (a delta only applies
/// to the state its predecessors left) and every `STRIDE`-th request is
/// recorded. 19 is coprime to the 20-delta transaction cycle and to the
/// 10-op fan-out pattern, so the recorded requests visit every position.
const STRIDE: usize = 19;

/// Root span name of a replayed request, by class.
pub fn root_name(class: Class) -> &'static str {
    match class {
        Class::Validate => "request.validate",
        Class::Delta => "request.delta",
        Class::Report => "request.report",
        Class::Graph => "request.graph",
    }
}

/// The spans of a replay and what it saw besides.
#[derive(Default)]
pub struct Probe {
    pub recorder: Recorder,
    /// Violations in each report the recorded requests encoded.
    report_sizes: Vec<usize>,
    /// Stream positions (on connection 0) of the recorded requests.
    pub recorded_positions: Vec<usize>,
}

impl Probe {
    /// Mean violations per encoded report.
    pub fn violations_per_report(&self) -> f64 {
        self.report_sizes.iter().sum::<usize>() as f64 / self.report_sizes.len().max(1) as f64
    }
}

fn invalid<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> io::Error + '_ {
    move |e| io::Error::new(io::ErrorKind::InvalidData, format!("{what}: {e}"))
}

pub fn probe(spec: &Spec, inputs: &Inputs, seed: u64, scratch: &Path) -> io::Result<Probe> {
    let mut probe = Probe::default();
    if spec.is_session() {
        probe_sessions(spec, inputs, seed, scratch, &mut probe)?;
    } else {
        let body = std::str::from_utf8(&inputs.instances[0].envelope).map_err(invalid("body"))?;
        for i in 0..REPLAYS {
            probe.recorder.begin_request(i as u64);
            probe.recorded_positions.push(i);
            let violations = replay_validate(&mut probe.recorder, body, inputs.pgschema)?;
            probe.report_sizes.push(violations);
        }
    }
    Ok(probe)
}

/// `handle_validate`: parse the envelope, compile the schema, build the
/// graph, run the full pass, encode the report.
fn replay_validate(rec: &mut Recorder, body: &str, pgschema: bool) -> io::Result<usize> {
    rec.span(root_name(Class::Validate), |rec| {
        let doc = rec
            .span("pgraph.json_parse", |_| Json::parse(body))
            .map_err(invalid("envelope"))?;
        let source = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| invalid("envelope")("no schema"))?;
        let options = ValidationOptions::builder()
            .engine(Engine::Indexed)
            .collect_metrics(true)
            .build();
        let (schema, options) = if pgschema {
            let compiled = rec
                .span("pgs.compile", |_| pg_pgschema::compile(source))
                .map_err(invalid("schema"))?;
            // `compile` ends by parsing and classifying its own lowered
            // SDL; those two calls are repeated here and charged to it.
            let lowered = rec
                .retimed_child("sdl.parse", || gql_sdl::parse(&compiled.sdl))
                .map_err(invalid("lowered schema"))?;
            let _ = black_box(
                rec.retimed_child("core.schema_compile", || PgSchema::from_document(&lowered)),
            );
            let options = pg_pgschema::apply_pragma(&options, &compiled.sdl);
            (compiled.schema, options)
        } else {
            let parsed = rec
                .span("sdl.parse", |_| gql_sdl::parse(source))
                .map_err(invalid("schema"))?;
            let schema = rec
                .span("core.schema_compile", |_| PgSchema::from_document(&parsed))
                .map_err(invalid("schema"))?;
            (schema, options)
        };
        let graph_value = doc
            .get("graph")
            .ok_or_else(|| invalid("envelope")("no graph"))?;
        let graph = rec
            .span("pgraph.graph_build", |_| {
                json::graph_from_value(graph_value)
            })
            .map_err(invalid("graph"))?;
        let report = rec.span("core.validate_full", |_| {
            validate(&graph, &schema, &options)
        });
        // The indexed pass starts by freezing the graph into columns.
        let _ = black_box(rec.retimed_child("pgraph.freeze", || ColumnarGraph::freeze(&graph)));
        let encoded = rec.span("core.report_encode", |_| report.to_json());
        black_box(encoded);
        Ok(report.len())
    })
}

/// `handle_create_session` once per session of connection 0, then its
/// request stream through `handle_delta` / `handle_report` /
/// `handle_graph`.
fn probe_sessions(
    spec: &Spec,
    inputs: &Inputs,
    seed: u64,
    scratch: &Path,
    probe: &mut Probe,
) -> io::Result<()> {
    let Probe {
        recorder: rec,
        report_sizes,
        recorded_positions,
    } = probe;
    let options = ValidationOptions::builder().collect_metrics(true).build();
    let ids: Vec<u64> = (1..=spec.sessions as u64).collect();
    let mut stream = Stream::new(spec, inputs, &ids, 0, seed);

    // Engines indexed like `inputs.instances`; only connection 0's exist.
    let mut engines: Vec<Option<IncrementalEngine<&PgSchema>>> =
        (0..inputs.instances.len()).map(|_| None).collect();
    for index in (0..inputs.instances.len()).step_by(spec.connections) {
        rec.begin_request(index as u64);
        let graph = inputs.instances[index].graph.clone();
        engines[index] = Some(rec.span("core.session_seed", |_| {
            IncrementalEngine::new(graph, &inputs.schema, &options)
        }));
    }

    let store = if spec.durable {
        let dir = scratch.join("probe-store");
        let _ = std::fs::remove_dir_all(&dir);
        let fsync: FsyncPolicy = "interval".parse().map_err(invalid("fsync policy"))?;
        let (store, _) = Store::open(dir, fsync)?;
        for (index, instance) in inputs.instances.iter().enumerate() {
            store.append_create(ids[index], &inputs.schema_text, &instance.graph)?;
        }
        Some(store)
    } else {
        None
    };

    for k in 0..REPLAYS * STRIDE {
        let (op, _) = stream.next();
        let recording = k % STRIDE == 0;
        rec.set_recording(recording);
        rec.begin_request(k as u64);
        if recording {
            recorded_positions.push(k);
        }
        let engine = engines[op.session]
            .as_mut()
            .expect("connection 0 owns the session");
        rec.span(root_name(op.class), |rec| -> io::Result<()> {
            match op.class {
                Class::Delta => {
                    let delta = rec
                        .span("pgraph.delta_decode", |_| {
                            json::delta_from_json(stream.last_body())
                        })
                        .map_err(invalid("delta"))?;
                    rec.span("core.delta_apply", |_| engine.apply(&delta))
                        .map_err(invalid("apply"))?;
                    if let Some(store) = &store {
                        rec.span("store.append_delta", |_| {
                            store.append_delta(ids[op.session], &delta)
                        })?;
                    }
                }
                Class::Graph => {
                    black_box(rec.span("pgraph.graph_encode", |_| json::to_json(engine.graph())));
                    return Ok(());
                }
                Class::Report | Class::Validate => {}
            }
            let report = rec.span("core.report_snapshot", |_| engine.report());
            black_box(rec.span("core.report_encode", |_| report.to_json()));
            if recording {
                report_sizes.push(report.len());
            }
            Ok(())
        })?;
    }
    rec.set_recording(true);
    Ok(())
}
