//! Workload definitions and input generation.
//!
//! Everything the daemon receives is generated here from `--seed` and
//! reaches it only as request bytes. Generation uses a local SplitMix64
//! and the harness's own compact encoders, so the byte streams are pinned
//! by unit tests and do not move when a library printer does.

use std::collections::HashSet;
use std::fmt::Write as _;

use pg_datagen::{Defect, GraphGen, GraphGenParams};
use pg_schema::PgSchema;
use pgraph::{EdgeId, NodeId, PropertyGraph, Value};

use crate::http::push_request;

/// SplitMix64: small, seedable, identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// What a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `POST /validate` of one mid-sized SDL-schema instance.
    OneshotMid,
    /// `POST /validate?lang=pgschema` of a wide schema and a tiny graph.
    OneshotSchemaPgs,
    /// One durable session under do/undo transactions.
    SessionTxnDurable,
    /// Many in-memory sessions, writes beside reads, two connections.
    SessionFanoutRw,
}

/// One workload: its daemon flags, its traffic shape, and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Daemon `--cores`.
    pub cores: usize,
    /// Closed-loop client connections, one thread each.
    pub connections: usize,
    /// Sessions created during set-up (0 for the oneshot workloads).
    pub sessions: usize,
    /// `nodes_per_type` of each generated graph.
    pub nodes_per_type: usize,
    /// Defects injected into each graph, so reports are never empty.
    pub defects: usize,
    /// Run with `--data-dir`, a WAL and auto-compaction.
    pub durable: bool,
    /// Untimed requests per connection that end set-up.
    pub warmup: usize,
    /// Timed requests per connection before the checkpoint at which peak
    /// memory and the daemon's counters are read. About half of what a
    /// run completes, and a multiple of the 20-delta transaction cycle
    /// and the 10-op fan-out pattern, so the counts repeat exactly.
    pub checkpoint: usize,
    /// Every n-th response is kept and checked against the library
    /// oracle after the timed phase. Oneshot responses all answer the
    /// same body, so one expected report checks every one of them; a
    /// session check costs a full validation of the mirror graph, so the
    /// stride grows with the graph.
    pub verify_stride: usize,
}

impl Spec {
    pub fn is_session(&self) -> bool {
        self.sessions > 0
    }
}

/// The four workloads. Names and reasons are mirrored in BENCHMARK.json.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "oneshot_mid",
        why: "bulk validation of one 2.6k-element instance: JSON decode, freeze and the full \
              pass do all the work; schema compile and the store do none",
        kind: Kind::OneshotMid,
        cores: 1,
        connections: 1,
        sessions: 0,
        nodes_per_type: 400,
        defects: 32,
        durable: false,
        warmup: 50,
        checkpoint: 600,
        verify_stride: 1,
    },
    Spec {
        name: "oneshot_schema_pgs",
        why: "frontend-bound: a 64-type PG-Schema text is parsed, lowered, printed, re-parsed \
              and classified per request while the 320-element graph costs nothing",
        kind: Kind::OneshotSchemaPgs,
        cores: 1,
        connections: 1,
        sessions: 0,
        nodes_per_type: 2,
        defects: 0,
        durable: false,
        warmup: 100,
        checkpoint: 1200,
        verify_stride: 1,
    },
    Spec {
        name: "session_txn_durable",
        why: "resident-session write path: delta decode, incremental apply, report snapshot \
              and encode, WAL append and auto-compaction on one hot 10k-element session",
        kind: Kind::SessionTxnDurable,
        cores: 1,
        connections: 1,
        sessions: 1,
        nodes_per_type: 1500,
        defects: 64,
        durable: true,
        warmup: 2000,
        checkpoint: 12000,
        verify_stride: 512,
    },
    Spec {
        name: "session_fanout_rw",
        why: "64 small in-memory sessions on two reactor cores and two connections, report \
              and graph reads beside writes; the store is bypassed",
        kind: Kind::SessionFanoutRw,
        cores: 2,
        connections: 2,
        sessions: 64,
        nodes_per_type: 100,
        defects: 8,
        durable: false,
        warmup: 1500,
        checkpoint: 8000,
        verify_stride: 64,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

// ---------------------------------------------------------------------------
// Schemas
// ---------------------------------------------------------------------------

const SCALARS: [&str; 5] = ["String", "Int", "Float", "Boolean", "ID"];

/// A wide schema inside the fragment both languages express: only the
/// shapes `print_pgschema` renders canonically (`T!`, `[T!]!`, optional
/// `@required`; `T` / `[T]` edges with `@distinct` / `@noLoops` and
/// `Float!` edge properties; one `ID! @required` key). No target-side or
/// `@required` edge obligations, so small conforming graphs exist. Only
/// one type is keyed: the PG-Schema parser reads the `,` after a key
/// constraint as the start of another key field, so a text with two
/// `FOR … KEY` items does not parse back.
pub fn frag_schema(types: usize, seed: u64) -> String {
    let mut rng = Rng::new(seed ^ 0x5c4e_3a00);
    let mut out = String::new();
    // Shapes follow the indices and only scalar names and edge targets
    // follow the seed, so every seed costs the frontend the same work.
    for t in 0..types {
        let keyed = t == 0;
        if keyed {
            let _ = writeln!(out, "type T{t} @key(fields: [\"a{t}_0\"]) {{");
            let _ = writeln!(out, "    a{t}_0: ID! @required");
        } else {
            let _ = writeln!(out, "type T{t} {{");
        }
        for a in usize::from(keyed)..4 {
            let scalar = rng.pick(&SCALARS);
            let ty = if (t + a) % 4 == 3 {
                format!("[{scalar}!]!")
            } else {
                format!("{scalar}!")
            };
            let required = if (t + a) % 2 == 0 { " @required" } else { "" };
            let _ = writeln!(out, "    a{t}_{a}: {ty}{required}");
        }
        for r in 0..2 {
            let target = rng.below(types);
            let args = if (t + r) % 3 == 0 { "(w: Float!)" } else { "" };
            let list = (t + r) % 5 < 3;
            let mut directives = String::new();
            if list && (t + r) % 2 == 0 {
                directives.push_str(" @distinct");
            }
            if (t + 2 * r) % 4 == 1 {
                directives.push_str(" @noLoops");
            }
            let ty = if list {
                format!("[T{target}]")
            } else {
                format!("T{target}")
            };
            let _ = writeln!(out, "    r{t}_{r}{args}: {ty}{directives}");
        }
        out.push_str("}\n\n");
    }
    out
}

// ---------------------------------------------------------------------------
// Graphs
// ---------------------------------------------------------------------------

/// Compact JSON for a graph document, ids as the graph has them.
pub fn encode_graph(g: &PropertyGraph) -> String {
    fn props<'a>(out: &mut String, props: impl Iterator<Item = (&'a str, &'a Value)>) {
        let mut sorted: Vec<_> = props.collect();
        if sorted.is_empty() {
            return;
        }
        sorted.sort_by_key(|(k, _)| *k);
        out.push_str(",\"properties\":{");
        for (i, (k, v)) in sorted.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_string(out, k);
            out.push(':');
            push_value(out, v);
        }
        out.push('}');
    }
    let mut out = String::with_capacity(64 * (g.node_count() + g.edge_count()));
    out.push_str("{\"nodes\":[");
    for (i, n) in g.nodes().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"id\":{},\"label\":", n.id.index());
        push_string(&mut out, n.label());
        props(&mut out, n.properties());
        out.push('}');
    }
    out.push_str("],\"edges\":[");
    for (i, e) in g.edges().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"id\":{},\"label\":", e.id.index());
        push_string(&mut out, e.label());
        let _ = write!(
            out,
            ",\"source\":{},\"target\":{}",
            e.source().index(),
            e.target().index()
        );
        props(&mut out, e.properties());
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn push_value(out: &mut String, v: &Value) {
    match v {
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        // `{:?}` keeps a `.` or an exponent, so the Int/Float distinction
        // survives the daemon's decoder.
        Value::Float(f) if f.is_finite() => {
            let _ = write!(out, "{f:?}");
        }
        Value::Float(_) | Value::Null => out.push_str("null"),
        Value::String(s) => push_string(out, s),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Id(s) => {
            out.push_str("{\"$id\":");
            push_string(out, s);
            out.push('}');
        }
        Value::Enum(s) => {
            out.push_str("{\"$enum\":");
            push_string(out, s);
            out.push('}');
        }
        Value::List(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_value(out, item);
            }
            out.push(']');
        }
    }
}

/// Appends a JSON string literal.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The nodes of a social-schema graph that carry no injected defect, by
/// type: the only nodes transactions touch, so standing violations stay.
#[derive(Debug, Clone, Default)]
pub struct Pools {
    pub users: Vec<u32>,
    pub posts: Vec<u32>,
    pub threads: Vec<u32>,
}

/// Injects `count` defects at random, pairwise disjoint sites of a
/// conforming social-schema graph, cycling through the twelve rule
/// classes that schema gives a site to (it has no target-side or
/// `@required`-edge directives, so DS3, DS4 and DS6 have none). Returns
/// the nodes left untouched. `pg_datagen::inject` always hits the first
/// applicable site, so it cannot spread defects over a large graph.
pub fn inject_spread(g: &mut PropertyGraph, count: usize, rng: &mut Rng) -> Pools {
    let by_label = |g: &PropertyGraph, label: &str| -> Vec<NodeId> {
        g.nodes()
            .filter(|n| n.label() == label)
            .map(|n| n.id)
            .collect()
    };
    let users = by_label(g, "User");
    let posts = by_label(g, "Post");
    let threads = by_label(g, "Thread");
    let edges = |g: &PropertyGraph, label: &str| -> Vec<(EdgeId, NodeId, NodeId)> {
        g.edges()
            .filter(|e| e.label() == label)
            .map(|e| (e.id, e.source(), e.target()))
            .collect()
    };
    let follows = edges(g, "follows");
    let authored = edges(g, "authored");
    let in_thread = edges(g, "inThread");
    let thread_posts = edges(g, "posts");

    let mut touched: HashSet<NodeId> = HashSet::new();
    // A fresh node of a pool / a fresh edge whose endpoints are fresh.
    fn node(rng: &mut Rng, pool: &[NodeId], touched: &mut HashSet<NodeId>) -> NodeId {
        loop {
            let n = rng.pick(pool);
            if touched.insert(n) {
                return n;
            }
        }
    }
    fn edge(
        rng: &mut Rng,
        pool: &[(EdgeId, NodeId, NodeId)],
        touched: &mut HashSet<NodeId>,
    ) -> (EdgeId, NodeId, NodeId) {
        loop {
            let (e, s, t) = rng.pick(pool);
            if !touched.contains(&s) && !touched.contains(&t) {
                touched.extend([s, t]);
                return (e, s, t);
            }
        }
    }
    for k in 0..count {
        let t = &mut touched;
        match k % 12 {
            0 => {
                // WS1: a wrong-typed declared property.
                g.set_node_property(node(rng, &users, t), "login", Value::Int(7));
            }
            1 => {
                // WS2: a wrong-typed declared edge property.
                let (e, _, _) = edge(rng, &follows, t);
                g.set_edge_property(e, "since", Value::from("yesterday"));
            }
            2 => {
                // WS3: a declared label towards a node of the wrong type.
                let (u, th) = (node(rng, &users, t), node(rng, &threads, t));
                g.add_edge(u, th, "authored").expect("live endpoints");
            }
            3 => {
                // WS4: a second edge of a non-list relationship.
                let (_, post, _) = edge(rng, &in_thread, t);
                let other = node(rng, &threads, t);
                g.add_edge(post, other, "inThread").expect("live endpoints");
            }
            4 => {
                // DS1: a duplicated @distinct edge.
                let (_, th, post) = edge(rng, &thread_posts, t);
                g.add_edge(th, post, "posts").expect("live endpoints");
            }
            5 => {
                // DS2: a self-loop on a @noLoops relationship.
                let u = node(rng, &users, t);
                let e = g.add_edge(u, u, "follows").expect("live endpoints");
                g.set_edge_property(e, "since", Value::Int(1));
            }
            6 => {
                // DS5: a missing @required property.
                g.remove_node_property(node(rng, &posts, t), "title");
            }
            7 => {
                // DS7: two nodes sharing a key.
                let (a, b) = (node(rng, &users, t), node(rng, &users, t));
                let key = g.node_property(a, "id").expect("keys are filled").clone();
                g.set_node_property(b, "id", key);
            }
            8 => {
                // SS1: an undeclared node label.
                g.set_node_label(node(rng, &threads, t), "Ghost")
                    .expect("live node");
            }
            9 => {
                // SS2: an undeclared node property.
                g.set_node_property(node(rng, &users, t), "shoeSize", Value::Int(43));
            }
            10 => {
                // SS3: an undeclared edge property.
                let (e, _, _) = edge(rng, &authored, t);
                g.set_edge_property(e, "mood", Value::from("fine"));
            }
            _ => {
                // SS4: an undeclared edge label.
                let (u, p) = (node(rng, &users, t), node(rng, &posts, t));
                g.add_edge(u, p, "likes").expect("live endpoints");
            }
        }
    }
    let clean = |pool: &[NodeId]| -> Vec<u32> {
        pool.iter()
            .filter(|n| !touched.contains(n))
            .map(|n| n.index() as u32)
            .collect()
    };
    Pools {
        users: clean(&users),
        posts: clean(&posts),
        threads: clean(&threads),
    }
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// One generated instance: the bytes the daemon gets and, for the oracle,
/// the same graph as the daemon will decode it.
pub struct Instance {
    /// `{"schema": …, "graph": …}` — the body of `/validate` or `/sessions`.
    pub envelope: Vec<u8>,
    /// The graph exactly as the daemon decodes `envelope`.
    pub graph: PropertyGraph,
    /// Defect-free nodes (social-schema instances only).
    pub pools: Pools,
}

/// Everything a workload run needs, generated from the seed before any
/// clock starts.
pub struct Inputs {
    /// The schema text as posted.
    pub schema_text: String,
    /// `true` when `schema_text` is PG-Schema (`?lang=pgschema`).
    pub pgschema: bool,
    /// The schema compiled in-process, for the oracle and the probes.
    pub schema: PgSchema,
    /// One instance per session, or the single oneshot instance.
    pub instances: Vec<Instance>,
}

impl Inputs {
    /// `?lang=` suffix for `/validate` and `/sessions`.
    pub fn lang_query(&self) -> &'static str {
        if self.pgschema {
            "?lang=pgschema"
        } else {
            ""
        }
    }
}

fn envelope(schema_text: &str, graph_json: &str) -> Vec<u8> {
    let mut out = String::with_capacity(schema_text.len() + graph_json.len() + 32);
    out.push_str("{\"schema\":");
    push_string(&mut out, schema_text);
    out.push_str(",\"graph\":");
    out.push_str(graph_json);
    out.push('}');
    out.into_bytes()
}

fn instance(schema_text: &str, graph: &PropertyGraph, pools: Pools) -> Instance {
    let graph_json = encode_graph(graph);
    Instance {
        envelope: envelope(schema_text, &graph_json),
        // Decoding remaps ids densely, so the mirror is taken after it.
        graph: pgraph::json::from_json(&graph_json).expect("the harness encoder writes valid JSON"),
        pools,
    }
}

fn conforming(schema: &PgSchema, nodes_per_type: usize, seed: u64) -> PropertyGraph {
    GraphGen::new(
        schema,
        GraphGenParams {
            nodes_per_type,
            seed,
            ..GraphGenParams::default()
        },
    )
    .generate_conforming(8)
    .expect("the benchmark schemas have conforming graphs")
}

pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    match spec.kind {
        Kind::OneshotSchemaPgs => {
            let sdl = frag_schema(64, seed);
            let doc = gql_sdl::parse(&sdl).expect("frag_schema writes valid SDL");
            let schema_text =
                pg_pgschema::print_pgschema(&doc, "Bench", pg_pgschema::TypeMode::Strict)
                    .expect("frag_schema stays inside the printable fragment");
            let schema = pg_pgschema::compile(&schema_text)
                .expect("the printer's output compiles")
                .schema;
            let mut graph = conforming(&schema, spec.nodes_per_type, seed);
            for defect in Defect::ALL {
                pg_datagen::inject(&mut graph, &schema, defect);
            }
            let instances = vec![instance(&schema_text, &graph, Pools::default())];
            Inputs {
                schema_text,
                pgschema: true,
                schema,
                instances,
            }
        }
        _ => {
            let schema_text = pg_datagen::schemagen::social_schema().to_owned();
            let schema = PgSchema::parse(&schema_text).expect("social_schema is valid");
            let mut rng = Rng::new(seed);
            let instances = (0..spec.sessions.max(1))
                .map(|_| {
                    let mut graph = conforming(&schema, spec.nodes_per_type, rng.next());
                    let pools = inject_spread(&mut graph, spec.defects, &mut rng);
                    instance(&schema_text, &graph, pools)
                })
                .collect();
            Inputs {
                schema_text,
                pgschema: false,
                schema,
                instances,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Request streams
// ---------------------------------------------------------------------------

/// Do/undo transaction generator for one social-schema session.
///
/// `DeltaGen` drifts (violations and apply time grow without bound), so
/// the benchmark writes its own traffic: even deltas add a `Post` with
/// its properties and its three edges and rewrite one `login`; odd deltas
/// remove that post (cascading the edges) and rewrite seven valid
/// properties. Every tenth pair leaves `title` out, so a DS5 violation
/// appears and is retracted. After each pair the violation set is the
/// baseline again, so latency does not depend on the position in the run.
#[derive(Debug, Clone)]
pub struct TxnGen {
    pools: Pools,
    /// Id the next added node gets (ids are dense and never reused).
    next_node: u32,
    pairs: u64,
    open_post: Option<u32>,
    rng: Rng,
    tag: usize,
}

impl TxnGen {
    pub fn new(instance: &Instance, tag: usize, seed: u64) -> TxnGen {
        TxnGen {
            pools: instance.pools.clone(),
            next_node: instance.graph.node_index_bound() as u32,
            pairs: 0,
            open_post: None,
            rng: Rng::new(seed ^ (tag as u64).wrapping_mul(0x9e37_79b9)),
            tag,
        }
    }

    fn rewrite(&mut self, out: &mut String) {
        let (node, name) = match self.rng.below(3) {
            0 => (self.rng.pick(&self.pools.users), "login"),
            1 => (self.rng.pick(&self.pools.threads), "topic"),
            _ => (self.rng.pick(&self.pools.posts), "title"),
        };
        let _ = write!(
            out,
            "{{\"op\":\"set-node-property\",\"node\":{node},\"name\":\"{name}\",\
             \"value\":\"v{}\"}}",
            self.rng.below(1_000_000)
        );
    }

    /// Writes the next 8-op delta document into `out` (cleared first).
    pub fn next_delta(&mut self, out: &mut String) {
        out.clear();
        out.push_str("{\"ops\":[");
        match self.open_post.take() {
            None => {
                let post = self.next_node;
                self.next_node += 1;
                self.open_post = Some(post);
                let user = self.rng.pick(&self.pools.users);
                let thread = self.rng.pick(&self.pools.threads);
                let _ = write!(
                    out,
                    "{{\"op\":\"add-node\",\"label\":\"Post\"}},\
                     {{\"op\":\"set-node-property\",\"node\":{post},\"name\":\"id\",\
                     \"value\":{{\"$id\":\"bench-{}-{}\"}}}},",
                    self.tag, self.pairs
                );
                if self.pairs % 10 == 9 {
                    self.rewrite(out);
                } else {
                    let _ = write!(
                        out,
                        "{{\"op\":\"set-node-property\",\"node\":{post},\"name\":\"title\",\
                         \"value\":\"t{}\"}}",
                        self.pairs
                    );
                }
                let _ = write!(
                    out,
                    ",{{\"op\":\"set-node-property\",\"node\":{post},\"name\":\"tags\",\
                     \"value\":[\"bench\"]}},\
                     {{\"op\":\"add-edge\",\"source\":{user},\"target\":{post},\
                     \"label\":\"authored\"}},\
                     {{\"op\":\"add-edge\",\"source\":{post},\"target\":{thread},\
                     \"label\":\"inThread\"}},\
                     {{\"op\":\"add-edge\",\"source\":{thread},\"target\":{post},\
                     \"label\":\"posts\"}},"
                );
                self.rewrite(out);
                self.pairs += 1;
            }
            Some(post) => {
                let _ = write!(out, "{{\"op\":\"remove-node\",\"node\":{post}}}");
                for _ in 0..7 {
                    out.push(',');
                    self.rewrite(out);
                }
            }
        }
        out.push_str("]}");
    }
}

/// The request classes a workload mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Validate,
    Delta,
    Report,
    Graph,
}

/// What one request of a stream was: its class and, for session traffic,
/// the index of the session (into `Inputs::instances`) it addressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub class: Class,
    pub session: usize,
}

/// The fixed 10-op pattern of `session_fanout_rw`: 7 writes, 2 report
/// reads, 1 graph read.
const FANOUT_PATTERN: [Class; 10] = [
    Class::Delta,
    Class::Delta,
    Class::Delta,
    Class::Delta,
    Class::Delta,
    Class::Delta,
    Class::Delta,
    Class::Report,
    Class::Report,
    Class::Graph,
];

/// Everything one connection sends, in order: an endless, deterministic
/// sequence of ready-to-write requests.
#[derive(Clone)]
pub struct Stream {
    kind: Kind,
    /// `(instance index, daemon session id, generator)` per owned session.
    sessions: Vec<(usize, u64, TxnGen)>,
    sent: usize,
    body: String,
    request: Vec<u8>,
}

impl Stream {
    /// The stream of connection `conn`. `session_ids[i]` is the id the
    /// daemon gave the session created from `inputs.instances[i]`; a
    /// connection owns every `connections`-th session, so neighbours on
    /// the wire are sessions of different connections.
    pub fn new(
        spec: &Spec,
        inputs: &Inputs,
        session_ids: &[u64],
        conn: usize,
        seed: u64,
    ) -> Stream {
        let mut stream = Stream {
            kind: spec.kind,
            sessions: (conn..session_ids.len())
                .step_by(spec.connections)
                .map(|i| {
                    (
                        i,
                        session_ids[i],
                        TxnGen::new(&inputs.instances[i], i, seed),
                    )
                })
                .collect(),
            sent: 0,
            body: String::new(),
            request: Vec::new(),
        };
        if !spec.is_session() {
            let path = match (spec.kind, inputs.lang_query()) {
                (Kind::OneshotMid, _) => "/validate?engine=indexed".to_owned(),
                (_, lang) => format!("/validate{lang}"),
            };
            push_request(
                &mut stream.request,
                "POST",
                &path,
                &inputs.instances[0].envelope,
            );
        }
        stream
    }

    /// Builds the next request and returns what it is with its bytes.
    pub fn next(&mut self) -> (Op, &[u8]) {
        let k = self.sent;
        self.sent += 1;
        if self.sessions.is_empty() {
            // Oneshot: the one prebuilt request, again.
            let op = Op {
                class: Class::Validate,
                session: 0,
            };
            return (op, &self.request);
        }
        let class = match self.kind {
            Kind::SessionFanoutRw => FANOUT_PATTERN[k % FANOUT_PATTERN.len()],
            _ => Class::Delta,
        };
        let slot = k % self.sessions.len();
        let (index, id, gen) = &mut self.sessions[slot];
        self.body.clear();
        let (method, tail) = match class {
            Class::Delta => {
                gen.next_delta(&mut self.body);
                ("POST", "deltas")
            }
            Class::Report => ("GET", "report"),
            // (A session stream never holds a `Validate`.)
            Class::Graph | Class::Validate => ("GET", "graph"),
        };
        self.request.clear();
        push_request(
            &mut self.request,
            method,
            &format!("/sessions/{id}/{tail}"),
            self.body.as_bytes(),
        );
        let op = Op {
            class,
            session: *index,
        };
        (op, &self.request)
    }

    /// The body of the request `next` just built (delta JSON, or empty).
    pub fn last_body(&self) -> &str {
        &self.body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;

    fn fnv(hash: &mut u64, bytes: &[u8]) {
        for b in bytes {
            *hash = (*hash ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn stream_hash(name: &str, seed: u64, requests: usize) -> u64 {
        let spec = spec(name).unwrap();
        let inputs = generate(spec, seed);
        let ids: Vec<u64> = (1..=spec.sessions as u64).collect();
        let mut hash = 0xcbf2_9ce4_8422_2325;
        for conn in 0..spec.connections {
            let mut stream = Stream::new(spec, &inputs, &ids, conn, seed);
            for _ in 0..requests {
                fnv(&mut hash, stream.next().1);
            }
        }
        hash
    }

    #[test]
    fn the_same_seed_gives_byte_identical_request_streams() {
        // Pinned: a change here means the benchmark's inputs changed and
        // every recorded baseline is void.
        for (name, requests, pinned) in [
            ("oneshot_schema_pgs", 2, 17831858172648931119u64),
            ("session_fanout_rw", 400, 4734504486992654090),
        ] {
            let first = stream_hash(name, 1, requests);
            assert_eq!(first, stream_hash(name, 1, requests), "{name}");
            assert_ne!(first, stream_hash(name, 2, requests), "{name}");
            assert_eq!(first, pinned, "{name}");
        }
    }

    #[test]
    fn do_undo_pairs_return_the_mirror_to_its_baseline_violations() {
        let spec = spec("session_fanout_rw").unwrap();
        let inputs = generate(spec, 3);
        let instance = &inputs.instances[0];
        let baseline = oracle::expected(&instance.graph, &inputs.schema);
        assert!(
            baseline.violations.len() >= spec.defects,
            "every injected defect is reported: {baseline:?}"
        );
        let mut graph = instance.graph.clone();
        let mut gen = TxnGen::new(instance, 0, 3);
        let mut body = String::new();
        let mut seen_ds5_pair = false;
        for k in 0..40 {
            gen.next_delta(&mut body);
            let delta = pgraph::json::delta_from_json(&body).unwrap();
            assert_eq!(delta.len(), 8, "every transaction has 8 ops");
            delta
                .apply_to(&mut graph)
                .expect("deltas only name live elements");
            let now = oracle::expected(&graph, &inputs.schema);
            if k % 2 == 1 {
                assert_eq!(now, baseline, "after pair {}", k / 2);
            } else if k / 2 % 10 == 9 {
                assert_eq!(now.violations.len(), baseline.violations.len() + 1);
                seen_ds5_pair = true;
            } else {
                assert_eq!(now, baseline, "a complete post adds no violation");
            }
        }
        assert!(seen_ds5_pair);
    }

    #[test]
    fn frag_schema_compiles_in_both_languages_to_identical_reports() {
        let spec = spec("oneshot_schema_pgs").unwrap();
        let inputs = generate(spec, 5);
        let sdl = frag_schema(64, 5);
        let direct = PgSchema::parse(&sdl).unwrap();
        assert_eq!(direct.schema().object_types().count(), 64);
        let graph = &inputs.instances[0].graph;
        let via_sdl = oracle::expected(graph, &direct);
        let via_pgs = oracle::expected(graph, &inputs.schema);
        assert_eq!(via_sdl, via_pgs);
        assert!(
            !via_pgs.violations.is_empty(),
            "the instance carries defects"
        );
        let elements = graph.node_count() + graph.edge_count();
        assert!((150..350).contains(&elements), "{elements} elements");
    }

    /// The sizes README.md quotes for each workload.
    #[test]
    fn inputs_have_the_documented_sizes() {
        for (name, elements, envelope_kb, schema_kb) in [
            ("oneshot_mid", 2400..2900, 150..260, 0..2),
            ("oneshot_schema_pgs", 150..350, 15..60, 10..20),
            ("session_txn_durable", 9000..11000, 600..1100, 0..2),
            ("session_fanout_rw", 600..720, 35..70, 0..2),
        ] {
            let inputs = generate(spec(name).unwrap(), 1);
            let instance = &inputs.instances[0];
            let size = instance.graph.node_count() + instance.graph.edge_count();
            assert!(elements.contains(&size), "{name}: {size} elements");
            let kb = instance.envelope.len() / 1024;
            assert!(envelope_kb.contains(&kb), "{name}: {kb} KiB envelope");
            let kb = inputs.schema_text.len() / 1024;
            assert!(schema_kb.contains(&kb), "{name}: {kb} KiB schema");
        }
    }

    #[test]
    fn the_harness_encoder_round_trips_through_the_library_decoder() {
        let spec = spec("session_fanout_rw").unwrap();
        let inputs = generate(spec, 9);
        let graph = &inputs.instances[0].graph;
        let again = pgraph::json::from_json(&encode_graph(graph)).unwrap();
        assert_eq!(pgraph::json::to_json(graph), pgraph::json::to_json(&again));
        assert!(encode_graph(graph).contains("\"$id\""));
    }

    #[test]
    fn fanout_connections_own_interleaved_sessions_and_follow_the_pattern() {
        let spec = spec("session_fanout_rw").unwrap();
        let inputs = generate(spec, 1);
        let ids: Vec<u64> = (1..=64).collect();
        let mut stream = Stream::new(spec, &inputs, &ids, 1, 1);
        let ops: Vec<Op> = (0..40).map(|_| stream.next().0).collect();
        assert!(ops.iter().all(|op| op.session % 2 == 1));
        assert_eq!(ops[0].session, 1);
        assert_eq!(ops[1].session, 3);
        assert_eq!(ops[32].session, 1);
        let classes: Vec<Class> = ops[..10].iter().map(|op| op.class).collect();
        assert_eq!(classes, FANOUT_PATTERN);
    }
}
