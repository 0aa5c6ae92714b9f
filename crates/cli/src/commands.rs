//! Subcommand implementations. Argument parsing is hand-rolled (the
//! offline dependency set has no CLI crate) but strict: unknown flags are
//! errors, and every command prints actionable output.

use std::fmt::Write as _;
use std::fs;

use pg_pgschema::SchemaLanguage;
use pg_schema::{validate, Engine, IncrementalEngine, PgSchema, ValidationOptions};

type Result<T> = std::result::Result<T, String>;

const USAGE: &str = "\
pgschema — GraphQL SDL schemas for Property Graphs

Schemas are GraphQL SDL by default; `--lang pgschema` (or a `.pgs` /
`.pgschema` file extension) selects the PG-Schema frontend instead.

USAGE:
    pgschema validate <schema> <graph.json> [--lang sdl|pgschema]
                      [--engine naive|indexed|parallel|incremental] [--threads N]
                      [--max-violations N] [--metrics] [--weak-only] [--json]
                      [--watch-delta delta.json]...
    pgschema translate <schema> [--lang sdl|pgschema] [--to sdl|pgschema]
                       [--name GraphTypeName] [--out FILE]
    pgschema consistency <schema.graphql>
    pgschema check-sat <schema> <TypeName> [--lang sdl|pgschema]
                       [--max-size K] [--field f] [--dot]
    pgschema generate <schema.graphql> [--nodes N] [--seed S] [--out FILE]
    pgschema reduce-sat <formula.cnf> [--out FILE]
    pgschema describe <schema.graphql>
    pgschema extend-api <schema.graphql> [--mutations] [--out FILE]
    pgschema normalize <schema.graphql> [--out FILE]
    pgschema import <nodes.csv> <edges.csv> [--schema FILE] [--out FILE]
    pgschema diff <old.graphql> <new.graphql> [--json]
    pgschema migrate plan <old.graphql> <new.graphql> <graph.json> [--json]
    pgschema migrate apply <old.graphql> <new.graphql> <graph.json> [--force] [--json]
    pgschema serve [--addr HOST:PORT] [--cores N] [--max-connections N]
                   [--log-format text|json|off] [--data-dir DIR]
                   [--fsync always|interval[:MILLIS]|never]
                   [--compact-after-bytes N] [--max-sessions N]
                   [--follow HOST:PORT]
    pgschema store inspect <data-dir>
    pgschema store compact <data-dir>
    pgschema store replay <data-dir>
";

/// Entry point used by `main` (and by the CLI integration tests).
pub fn run(args: &[String]) -> Result<()> {
    let Some(cmd) = args.first() else {
        return Err(format!("missing command\n{USAGE}"));
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "validate" => cmd_validate(rest),
        "translate" => cmd_translate(rest),
        "consistency" => cmd_consistency(rest),
        "check-sat" => cmd_check_sat(rest),
        "generate" => cmd_generate(rest),
        "reduce-sat" => cmd_reduce_sat(rest),
        "describe" => cmd_describe(rest),
        "extend-api" => cmd_extend_api(rest),
        "normalize" => cmd_normalize(rest),
        "import" => cmd_import(rest),
        "diff" => cmd_diff(rest),
        "migrate" => cmd_migrate(rest),
        "serve" => cmd_serve(rest),
        "store" => cmd_store(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

/// Splits positional args from `--flag [value]` pairs.
type ParsedFlags<'a> = (Vec<&'a str>, Vec<(&'a str, &'a str)>, Vec<&'a str>);

fn parse_flags<'a>(
    rest: &'a [String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<ParsedFlags<'a>> {
    let mut positional = Vec::new();
    let mut values = Vec::new();
    let mut bools = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let a = rest[i].as_str();
        if let Some(flag) = a.strip_prefix("--") {
            if bool_flags.contains(&flag) {
                bools.push(flag);
            } else if value_flags.contains(&flag) {
                i += 1;
                let v = rest
                    .get(i)
                    .ok_or_else(|| format!("--{flag} needs a value"))?;
                values.push((flag, v.as_str()));
            } else {
                return Err(format!("unknown flag --{flag}"));
            }
        } else {
            positional.push(a);
        }
        i += 1;
    }
    Ok((positional, values, bools))
}

/// Resolves the schema language: an explicit `--lang` wins, otherwise
/// the file extension decides (`.pgs` / `.pgschema` → PG-Schema).
fn resolve_lang(path: &str, flag: Option<&str>) -> Result<SchemaLanguage> {
    match flag {
        Some(v) => v.parse().map_err(|e| format!("--lang: {e}")),
        None => Ok(SchemaLanguage::detect(std::path::Path::new(path))),
    }
}

/// Reads `path` and loads it as `lang` through the loader the server
/// shares: the classified schema (open-world for a `LOOSE` graph type)
/// plus its canonical SDL text.
fn load_schema_text(path: &str, lang: SchemaLanguage) -> Result<(PgSchema, String)> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    pg_pgschema::load_schema(&text, lang).map_err(|e| located(path, &text, &*e))
}

/// `path: error` — or, for a parse error in either schema language,
/// `path:` and the error's caret snippet in `text`.
fn located(path: &str, text: &str, e: &(dyn std::error::Error + 'static)) -> String {
    match e.downcast_ref::<gql_sdl::ParseError>() {
        Some(parse) => format!("{path}:\n{}", parse.render(text)),
        None => format!("{path}: {e}"),
    }
}

fn load_schema(path: &str) -> Result<PgSchema> {
    let lang = SchemaLanguage::detect(std::path::Path::new(path));
    Ok(load_schema_text(path, lang)?.0)
}

fn cmd_validate(rest: &[String]) -> Result<()> {
    let (pos, values, bools) = parse_flags(
        rest,
        &["engine", "threads", "max-violations", "watch-delta", "lang"],
        &["weak-only", "json", "metrics"],
    )?;
    let [schema_path, graph_path] = pos.as_slice() else {
        return Err("validate needs <schema> <graph.json>".to_owned());
    };
    let lang_flag = values.iter().find(|(k, _)| *k == "lang").map(|(_, v)| *v);
    let lang = resolve_lang(schema_path, lang_flag)?;
    let (schema, _) = load_schema_text(schema_path, lang)?;
    let graph_text =
        fs::read_to_string(graph_path).map_err(|e| format!("cannot read {graph_path}: {e}"))?;
    let graph = pgraph::json::from_json(&graph_text).map_err(|e| format!("{graph_path}: {e}"))?;
    let mut builder = ValidationOptions::builder().collect_metrics(bools.contains(&"metrics"));
    if bools.contains(&"weak-only") {
        builder = builder.families(true, false, false);
    }
    let mut delta_paths: Vec<&str> = Vec::new();
    for (k, v) in values {
        match k {
            "engine" => {
                builder =
                    builder.engine(v.parse::<Engine>().map_err(|e| format!("--engine: {e}"))?);
            }
            "threads" => {
                builder = builder.threads(
                    v.parse()
                        .map_err(|_| format!("--threads: not a number: {v}"))?,
                );
            }
            "max-violations" => {
                builder = builder.max_violations(
                    v.parse()
                        .map_err(|_| format!("--max-violations: not a number: {v}"))?,
                );
            }
            "watch-delta" => delta_paths.push(v),
            "lang" => {}
            _ => unreachable!(),
        }
    }
    let options = builder.build();
    if !delta_paths.is_empty() {
        return validate_deltas(
            &mut std::io::stdout().lock(),
            graph,
            &schema,
            &options,
            &delta_paths,
            bools.contains(&"json"),
        );
    }
    let report = validate(&graph, &schema, &options);
    if bools.contains(&"json") {
        println!("{}", report.to_json());
    } else {
        print!("{report}");
        if let Some(m) = report.metrics() {
            println!("{m}");
        }
    }
    if report.conforms() {
        Ok(())
    } else {
        Err(format!(
            "{} violation(s){}",
            report.len(),
            if report.truncated() {
                " (truncated)"
            } else {
                ""
            }
        ))
    }
}

/// `validate --watch-delta`: seed an incremental session with the graph,
/// then apply each delta file in order, reporting what every step
/// re-checked. Exit status reflects the *final* report.
///
/// In `--json` mode the output is NDJSON — one report per line: the
/// seed state, then one line per applied delta — and `out` is flushed
/// after *every* line. Stdout is block-buffered when piped, so without
/// the per-line flush a consumer following the stream would not see a
/// report until the buffer happened to fill.
fn validate_deltas<W: std::io::Write>(
    out: &mut W,
    graph: pgraph::PropertyGraph,
    schema: &PgSchema,
    options: &ValidationOptions,
    delta_paths: &[&str],
    json: bool,
) -> Result<()> {
    let mut engine = pg_schema::IncrementalEngine::new(graph, schema, options);
    if json {
        write_line(out, &engine.report().to_json())?;
    } else {
        write_chunk(out, &format!("initial: {}", engine.report()))?;
    }
    for path in delta_paths {
        let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let delta = pgraph::json::delta_from_json(&text).map_err(|e| format!("{path}: {e}"))?;
        let outcome = engine.apply(&delta).map_err(|e| format!("{path}: {e}"))?;
        if json {
            write_line(out, &engine.report().to_json())?;
        } else {
            write_line(
                out,
                &format!(
                    "applied {path}: re-checked {} of {} element(s), \
                     +{} / -{} violation(s)",
                    outcome.elements_rechecked,
                    outcome.elements_total,
                    outcome.violations_added,
                    outcome.violations_removed
                ),
            )?;
        }
    }
    let report = engine.report();
    if !json {
        write_chunk(out, &format!("final: {report}"))?;
        if let Some(m) = report.metrics() {
            write_line(out, &format!("{m}"))?;
        }
    }
    if report.conforms() {
        Ok(())
    } else {
        Err(format!("{} violation(s)", report.len()))
    }
}

/// Writes one output line and flushes, so piped consumers see it now.
fn write_line<W: std::io::Write>(out: &mut W, line: &str) -> Result<()> {
    writeln!(out, "{line}")
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write output: {e}"))
}

/// Writes already-terminated text (multi-line reports) and flushes.
fn write_chunk<W: std::io::Write>(out: &mut W, text: &str) -> Result<()> {
    write!(out, "{text}")
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write output: {e}"))
}

/// `pgschema serve`: run the `pg-schemad` validation daemon until
/// SIGTERM or ctrl-c, then drain in-flight requests and exit cleanly.
fn cmd_serve(rest: &[String]) -> Result<()> {
    let (pos, values, _) = parse_flags(
        rest,
        &[
            "addr",
            "cores",
            "max-connections",
            "log-format",
            "data-dir",
            "fsync",
            "compact-after-bytes",
            "max-sessions",
            "follow",
        ],
        &[],
    )?;
    if !pos.is_empty() {
        return Err(format!("serve takes no positional arguments, got {pos:?}"));
    }
    let mut builder = pg_server::ServerConfig::builder();
    for (k, v) in values {
        match k {
            "addr" => builder = builder.addr(v),
            "cores" => {
                builder = builder.cores(
                    v.parse()
                        .map_err(|_| format!("--cores: not a number: {v}"))?,
                );
            }
            "max-connections" => {
                builder = builder.max_connections(
                    v.parse()
                        .map_err(|_| format!("--max-connections: not a number: {v}"))?,
                );
            }
            "log-format" => {
                builder = builder.log_format(v.parse().map_err(|e| format!("--log-format: {e}"))?);
            }
            "data-dir" => builder = builder.data_dir(v),
            "fsync" => {
                builder = builder.fsync(v.parse().map_err(|e| format!("--fsync: {e}"))?);
            }
            "compact-after-bytes" => {
                builder = builder.compact_after_bytes(
                    v.parse()
                        .map_err(|_| format!("--compact-after-bytes: not a number: {v}"))?,
                );
            }
            "max-sessions" => {
                builder = builder.max_sessions(
                    v.parse()
                        .map_err(|_| format!("--max-sessions: not a number: {v}"))?,
                );
            }
            "follow" => builder = builder.follow(v),
            _ => unreachable!(),
        }
    }
    let server =
        pg_server::Server::bind(builder.build()).map_err(|e| format!("cannot bind server: {e}"))?;
    pg_server::signal::install();
    let handle = server
        .serve()
        .map_err(|e| format!("cannot start server: {e}"))?;
    eprintln!(
        "pg-schemad listening on http://{} ({} core(s))",
        handle.local_addr(),
        handle.cores()
    );
    while !pg_server::signal::requested() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    handle.shutdown();
    handle.join().map_err(|e| format!("server error: {e}"))?;
    eprintln!("pg-schemad: drained, bye");
    Ok(())
}

/// `pgschema translate`: convert a schema between the two languages
/// over the overlapping fragment. SDL → PG-Schema uses the canonical
/// printer (and reports which construct falls outside the fragment if
/// one does); PG-Schema → SDL emits the lowered document, prefixed with
/// the language pragma when the graph type is `LOOSE` so the open-world
/// mode survives the round trip. Translating into the *same* language
/// canonicalises the text instead.
fn cmd_translate(rest: &[String]) -> Result<()> {
    let (pos, values, _) = parse_flags(rest, &["lang", "to", "name", "out"], &[])?;
    let [schema_path] = pos.as_slice() else {
        return Err("translate needs <schema>".to_owned());
    };
    let mut lang_flag = None;
    let mut to_flag = None;
    let mut name = "G";
    let mut out_path = None;
    for (k, v) in values {
        match k {
            "lang" => lang_flag = Some(v),
            "to" => to_flag = Some(v),
            "name" => name = v,
            "out" => out_path = Some(v),
            _ => unreachable!(),
        }
    }
    let from = resolve_lang(schema_path, lang_flag)?;
    let to = match to_flag {
        Some(v) => v.parse().map_err(|e| format!("--to: {e}"))?,
        // Default: the other language.
        None => match from {
            SchemaLanguage::Sdl => SchemaLanguage::PgSchema,
            SchemaLanguage::PgSchema => SchemaLanguage::Sdl,
        },
    };
    let text =
        fs::read_to_string(schema_path).map_err(|e| format!("cannot read {schema_path}: {e}"))?;
    let output = match from {
        SchemaLanguage::Sdl => {
            let doc = gql_sdl::parse(&text).map_err(|e| located(schema_path, &text, &e))?;
            // A pragma on persisted lowered SDL names the original mode.
            let mode = pg_pgschema::pragma_of(&text)
                .map(|(_, m)| m)
                .unwrap_or_default();
            match to {
                SchemaLanguage::PgSchema => pg_pgschema::print_pgschema(&doc, name, mode)
                    .map_err(|e| format!("{schema_path}: {e}"))?,
                SchemaLanguage::Sdl => gql_sdl::print_document(&doc),
            }
        }
        SchemaLanguage::PgSchema => {
            let compiled =
                pg_pgschema::compile(&text).map_err(|e| located(schema_path, &text, &e))?;
            match to {
                SchemaLanguage::Sdl => {
                    let printed = gql_sdl::print_document(&compiled.document);
                    if compiled.mode == pg_pgschema::TypeMode::Loose {
                        format!("{}\n{printed}", pg_pgschema::pragma_line(compiled.mode))
                    } else {
                        printed
                    }
                }
                SchemaLanguage::PgSchema => {
                    pg_pgschema::print_pgschema(&compiled.document, &compiled.name, compiled.mode)
                        .map_err(|e| format!("{schema_path}: {e}"))?
                }
            }
        }
    };
    match out_path {
        Some(p) => {
            fs::write(p, &output).map_err(|e| format!("cannot write {p}: {e}"))?;
            println!("wrote {to} translation to {p}");
        }
        None => print!("{output}"),
    }
    Ok(())
}

fn cmd_consistency(rest: &[String]) -> Result<()> {
    let (pos, _, _) = parse_flags(rest, &[], &[])?;
    let [schema_path] = pos.as_slice() else {
        return Err("consistency needs <schema.graphql>".to_owned());
    };
    let text =
        fs::read_to_string(schema_path).map_err(|e| format!("cannot read {schema_path}: {e}"))?;
    let doc = gql_sdl::parse(&text).map_err(|e| located(schema_path, &text, &e))?;
    let schema = gql_schema::build_schema(&doc).map_err(|ds| {
        let mut msg = String::new();
        for d in ds {
            let _ = writeln!(msg, "{d}");
        }
        msg
    })?;
    let violations = gql_schema::consistency::check(&schema);
    if violations.is_empty() {
        println!("schema is consistent (Definition 4.5)");
        Ok(())
    } else {
        for v in &violations {
            println!("{v}");
        }
        Err(format!("{} consistency violation(s)", violations.len()))
    }
}

fn cmd_check_sat(rest: &[String]) -> Result<()> {
    let (pos, values, bools) = parse_flags(rest, &["max-size", "field", "lang"], &["dot"])?;
    let [schema_path, type_name] = pos.as_slice() else {
        return Err("check-sat needs <schema> <TypeName>".to_owned());
    };
    let as_dot = bools.contains(&"dot");
    let lang_flag = values.iter().find(|(k, _)| *k == "lang").map(|(_, v)| *v);
    let lang = resolve_lang(schema_path, lang_flag)?;
    let (schema, _) = load_schema_text(schema_path, lang)?;
    let mut config = pg_reason::ReasonerConfig::default();
    let mut field: Option<&str> = None;
    for (k, v) in values {
        match k {
            "max-size" => {
                config.max_graph_size = v
                    .parse()
                    .map_err(|_| format!("--max-size: not a number: {v}"))?;
            }
            "field" => field = Some(v),
            "lang" => {}
            _ => unreachable!(),
        }
    }
    let result = pg_reason::check(&schema, type_name, field, &config)?;
    match result {
        pg_reason::Satisfiability::Satisfiable { witness, size } => {
            println!("{type_name} is satisfiable: witness with {size} node(s)");
            if as_dot {
                println!("{}", pgraph::dot::to_dot(&witness));
            } else {
                println!("{}", pgraph::json::to_json(&witness));
            }
            Ok(())
        }
        pg_reason::Satisfiability::Unsatisfiable => {
            println!("{type_name} is UNSATISFIABLE");
            Err("unsatisfiable".to_owned())
        }
        pg_reason::Satisfiability::NoFiniteModelFound {
            bound,
            tableau_satisfiable,
        } => {
            match tableau_satisfiable {
                Some(true) => println!(
                    "{type_name}: no finite model up to {bound} node(s); \
                     an infinite model exists (cf. §6.2 diagram (b))"
                ),
                _ => println!(
                    "{type_name}: no finite model up to {bound} node(s); \
                     tableau inconclusive (resource limit)"
                ),
            }
            Err("no finite model found".to_owned())
        }
    }
}

fn cmd_generate(rest: &[String]) -> Result<()> {
    let (pos, values, _) = parse_flags(rest, &["nodes", "seed", "out"], &[])?;
    let [schema_path] = pos.as_slice() else {
        return Err("generate needs <schema.graphql>".to_owned());
    };
    let schema = load_schema(schema_path)?;
    let mut params = pg_datagen::GraphGenParams::default();
    let mut out_path: Option<&str> = None;
    for (k, v) in values {
        match k {
            "nodes" => {
                params.nodes_per_type = v
                    .parse()
                    .map_err(|_| format!("--nodes: not a number: {v}"))?
            }
            "seed" => {
                params.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: not a number: {v}"))?
            }
            "out" => out_path = Some(v),
            _ => unreachable!(),
        }
    }
    let graph = pg_datagen::GraphGen::new(&schema, params)
        .generate_conforming(10)
        .ok_or("could not generate a conforming graph (schema obligations too tight)")?;
    let json = pgraph::json::to_json(&graph);
    match out_path {
        Some(p) => {
            fs::write(p, &json).map_err(|e| format!("cannot write {p}: {e}"))?;
            println!(
                "wrote conforming graph ({} nodes, {} edges) to {p}",
                graph.node_count(),
                graph.edge_count()
            );
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn cmd_reduce_sat(rest: &[String]) -> Result<()> {
    let (pos, values, _) = parse_flags(rest, &["out"], &[])?;
    let [cnf_path] = pos.as_slice() else {
        return Err("reduce-sat needs <formula.cnf>".to_owned());
    };
    let text = fs::read_to_string(cnf_path).map_err(|e| format!("cannot read {cnf_path}: {e}"))?;
    let cnf = dpll::Cnf::parse_dimacs(&text).map_err(|e| e.to_string())?;
    let red = pg_reason::reduction::reduce_cnf(&cnf);
    let out_path = values.iter().find(|(k, _)| *k == "out").map(|(_, v)| *v);
    match out_path {
        Some(p) => {
            fs::write(p, &red.sdl).map_err(|e| format!("cannot write {p}: {e}"))?;
            println!(
                "wrote reduction schema to {p}; check type {} (complete bound: {})",
                red.object_type, red.bound
            );
        }
        None => print!("{}", red.sdl),
    }
    Ok(())
}

fn cmd_extend_api(rest: &[String]) -> Result<()> {
    let (pos, values, bools) = parse_flags(rest, &["out"], &["mutations"])?;
    let [schema_path] = pos.as_slice() else {
        return Err("extend-api needs <schema.graphql>".to_owned());
    };
    let text =
        fs::read_to_string(schema_path).map_err(|e| format!("cannot read {schema_path}: {e}"))?;
    let doc = gql_sdl::parse(&text).map_err(|e| located(schema_path, &text, &e))?;
    let options = pg_schema::api_extension::ApiExtensionOptions {
        include_mutation: bools.contains(&"mutations"),
        ..Default::default()
    };
    let extended = pg_schema::api_extension::extend_to_api_schema(&doc, &options)
        .map_err(|e| e.to_string())?;
    let printed = gql_sdl::print_document(&extended);
    match values.iter().find(|(k, _)| *k == "out").map(|(_, v)| *v) {
        Some(p) => {
            fs::write(p, &printed).map_err(|e| format!("cannot write {p}: {e}"))?;
            println!("wrote extended GraphQL API schema to {p}");
        }
        None => print!("{printed}"),
    }
    Ok(())
}

fn cmd_diff(rest: &[String]) -> Result<()> {
    let (pos, _, bools) = parse_flags(rest, &[], &["json"])?;
    let [old_path, new_path] = pos.as_slice() else {
        return Err("diff needs <old.graphql> <new.graphql>".to_owned());
    };
    let old = load_schema(old_path)?;
    let new = load_schema(new_path)?;
    let diff = pg_schema::diff::diff(&old, &new);
    if bools.contains(&"json") {
        println!("{}", diff.to_json());
    } else {
        print!("{diff}");
    }
    if diff.is_breaking() {
        Err(format!("{} breaking change(s)", diff.breaking().count()))
    } else {
        Ok(())
    }
}

/// `migrate plan` previews a schema change against a concrete graph —
/// which elements a revalidation must touch and exactly which
/// violations appear or resolve. `migrate apply` refuses a breaking
/// migration (unless `--force`) and otherwise prints the graph's
/// report under the new schema, produced through the same dual-schema
/// window the server uses.
fn cmd_migrate(rest: &[String]) -> Result<()> {
    let Some((sub, rest)) = rest.split_first() else {
        return Err("migrate needs a subcommand: plan | apply".to_owned());
    };
    let (pos, _, bools) = parse_flags(rest, &[], &["json", "force"])?;
    let [old_path, new_path, graph_path] = pos.as_slice() else {
        return Err(format!(
            "migrate {sub} needs <old.graphql> <new.graphql> <graph.json>"
        ));
    };
    let old = load_schema(old_path)?;
    let new = load_schema(new_path)?;
    let graph_text =
        fs::read_to_string(graph_path).map_err(|e| format!("cannot read {graph_path}: {e}"))?;
    let graph = pgraph::json::from_json(&graph_text).map_err(|e| format!("{graph_path}: {e}"))?;
    let options = ValidationOptions::default();
    match sub.as_str() {
        "plan" => {
            let plan = pg_schema::migrate::plan(&graph, &old, &new, &options);
            if bools.contains(&"json") {
                println!("{}", plan.to_json());
            } else {
                print!("{plan}");
            }
            if plan.compatible() {
                Ok(())
            } else {
                Err(format!("{} new violation(s)", plan.added.len()))
            }
        }
        "apply" => {
            let mut engine = IncrementalEngine::new(graph, std::sync::Arc::new(old), &options);
            let plan = engine.begin_migration(new);
            if !plan.compatible() && !bools.contains(&"force") {
                eprint!("{plan}");
                return Err(format!(
                    "refusing to apply: {} new violation(s) (use --force)",
                    plan.added.len()
                ));
            }
            assert!(engine.commit_migration());
            let report = engine.report();
            if bools.contains(&"json") {
                println!("{}", report.to_json());
            } else {
                print!("{report}");
            }
            Ok(())
        }
        other => Err(format!("unknown migrate subcommand `{other}`")),
    }
}

fn cmd_import(rest: &[String]) -> Result<()> {
    let (pos, values, _) = parse_flags(rest, &["schema", "out"], &[])?;
    let [nodes_path, edges_path] = pos.as_slice() else {
        return Err("import needs <nodes.csv> <edges.csv>".to_owned());
    };
    let nodes =
        fs::read_to_string(nodes_path).map_err(|e| format!("cannot read {nodes_path}: {e}"))?;
    let edges =
        fs::read_to_string(edges_path).map_err(|e| format!("cannot read {edges_path}: {e}"))?;
    let graph = pgraph::csv::from_csv(&nodes, &edges).map_err(|e| e.to_string())?;
    eprintln!(
        "imported {} node(s), {} edge(s)",
        graph.node_count(),
        graph.edge_count()
    );
    if let Some((_, schema_path)) = values.iter().find(|(k, _)| *k == "schema") {
        let schema = load_schema(schema_path)?;
        let report = validate(&graph, &schema, &ValidationOptions::default());
        eprint!("{report}");
        if !report.conforms() {
            return Err(format!("{} violation(s)", report.len()));
        }
    }
    let json = pgraph::json::to_json(&graph);
    match values.iter().find(|(k, _)| *k == "out").map(|(_, v)| *v) {
        Some(p) => {
            fs::write(p, &json).map_err(|e| format!("cannot write {p}: {e}"))?;
            println!("wrote graph to {p}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn cmd_normalize(rest: &[String]) -> Result<()> {
    let (pos, values, _) = parse_flags(rest, &["out"], &[])?;
    let [schema_path] = pos.as_slice() else {
        return Err("normalize needs <schema.graphql>".to_owned());
    };
    let text =
        fs::read_to_string(schema_path).map_err(|e| format!("cannot read {schema_path}: {e}"))?;
    let doc = gql_sdl::parse(&text).map_err(|e| located(schema_path, &text, &e))?;
    let schema = gql_schema::build_schema(&doc)
        .map_err(|ds| ds.iter().map(|d| format!("{d}\n")).collect::<String>())?;
    let printed = gql_sdl::print_document(&gql_schema::emit::schema_to_document(&schema));
    match values.iter().find(|(k, _)| *k == "out").map(|(_, v)| *v) {
        Some(p) => {
            fs::write(p, &printed).map_err(|e| format!("cannot write {p}: {e}"))?;
            println!("wrote normalised schema to {p}");
        }
        None => print!("{printed}"),
    }
    Ok(())
}

/// `pgschema store inspect|compact|replay <data-dir>`: offline tooling
/// over a `--data-dir` written by `pgschema serve`.
fn cmd_store(rest: &[String]) -> Result<()> {
    let Some(action) = rest.first() else {
        return Err("store needs an action: inspect|compact|replay <data-dir>".to_owned());
    };
    let (pos, _, _) = parse_flags(&rest[1..], &[], &[])?;
    let [dir] = pos.as_slice() else {
        return Err(format!("store {action} needs exactly one <data-dir>"));
    };
    let dir = std::path::Path::new(dir);
    match action.as_str() {
        "inspect" => store_inspect(dir),
        "compact" => store_compact(dir),
        "replay" => store_replay(dir),
        other => Err(format!("unknown store action `{other}`\n{USAGE}")),
    }
}

/// Read-only inventory: never truncates torn tails or deletes stale
/// files, so it is safe against a live server's directory.
fn store_inspect(dir: &std::path::Path) -> Result<()> {
    let report = pg_store::scan(dir).map_err(|e| format!("cannot scan {}: {e}", dir.display()))?;
    if report.snapshots.is_empty() && report.segments.is_empty() {
        println!(
            "{}: empty store (no snapshots, no WAL segments)",
            dir.display()
        );
        return Ok(());
    }
    for s in &report.snapshots {
        let format = match s.format {
            0 => "unknown".to_owned(),
            v => format!("PGS{v}"),
        };
        println!(
            "snapshot generation={} format={format} bytes={} crc_ok={} valid={} sessions={} \
             base_seq={} ({})",
            s.generation,
            s.bytes,
            s.crc_ok,
            s.valid,
            s.sessions,
            s.base_seq,
            s.path.display()
        );
        for g in &s.graphs {
            println!(
                "  graph session={} last_seq={} pgcs_version={} crc_ok={} file_offset={} bytes={}",
                g.session,
                g.last_seq,
                g.version.map_or("-".to_owned(), |v| v.to_string()),
                g.crc_ok,
                g.file_offset,
                g.len
            );
            for (name, offset, len) in &g.sections {
                println!("    section {name} offset={offset} len={len}");
            }
        }
    }
    let mut torn = false;
    for seg in &report.segments {
        let (creates, deltas, deletes, schema_changes) = seg.records;
        print!(
            "segment first_seq={} bytes={} valid_bytes={} creates={creates} deltas={deltas} \
             deletes={deletes} schema_changes={schema_changes} last_seq={} ({})",
            seg.first_seq,
            seg.bytes,
            seg.valid_bytes,
            seg.last_seq.map_or("-".to_owned(), |s| s.to_string()),
            seg.path.display()
        );
        match &seg.torn {
            Some(reason) => {
                torn = true;
                println!(" TORN: {reason}");
            }
            None => println!(),
        }
    }
    if torn {
        println!("note: torn tail(s) found; recovery will truncate them on next open");
    }
    Ok(())
}

/// Opens the store (running full recovery) and forces one compaction
/// cycle: snapshot every live session, drop superseded WAL segments.
fn store_compact(dir: &std::path::Path) -> Result<()> {
    let (store, recovered) = pg_store::Store::open(dir, pg_store::FsyncPolicy::Always)
        .map_err(|e| format!("cannot open {}: {e}", dir.display()))?;
    let mut compaction = store
        .try_begin_compaction()
        .map_err(|e| format!("cannot start compaction: {e}"))?
        .ok_or("compaction already in progress")?;
    for s in &recovered.sessions {
        compaction.capture().add_session(s.id, &s.meta, &s.graph);
    }
    let outcome = compaction
        .finish(recovered.next_session_id)
        .map_err(|e| format!("compaction failed: {e}"))?;
    println!(
        "compacted {} to generation {}: {} session(s) captured, {} segment(s) removed, \
         snapshot is {} byte(s)",
        dir.display(),
        outcome.generation,
        outcome.sessions,
        outcome.segments_removed,
        outcome.snapshot_bytes
    );
    Ok(())
}

/// Replays the store exactly as server startup would (including
/// truncating any torn tail), then validates every recovered session
/// from scratch with all four engines and requires their canonical
/// reports to be byte-identical ([`pg_server::workload::oracle`]).
fn store_replay(dir: &std::path::Path) -> Result<()> {
    let (_store, recovered) = pg_store::Store::open(dir, pg_store::FsyncPolicy::Never)
        .map_err(|e| format!("cannot open {}: {e}", dir.display()))?;
    let info = &recovered.info;
    println!(
        "recovered {} session(s): snapshot generation {}, {} record(s) replayed, \
         {} skipped{}",
        recovered.sessions.len(),
        info.snapshot_generation
            .map_or("-".to_owned(), |g| g.to_string()),
        info.records_replayed,
        info.records_skipped,
        match &info.truncated {
            Some(t) => format!(
                "; torn tail truncated at {} offset {}",
                t.segment.display(),
                t.offset
            ),
            None => String::new(),
        }
    );
    let mut failures = 0usize;
    for s in &recovered.sessions {
        let schema = pg_pgschema::parse_persisted(&s.meta.schema_sdl)
            .map_err(|e| format!("session {}: stored schema no longer parses: {e}", s.id))?;
        // A session untouched by WAL replay is still a zero-copy view
        // into the snapshot file; validating it needs the elements.
        let graph = s
            .graph
            .clone()
            .into_graph()
            .map_err(|e| format!("session {}: graph failed to materialize: {e}", s.id))?;
        let report = validate(&graph, &schema, &ValidationOptions::default());
        let agree = pg_server::workload::oracle(&graph, &schema).is_ok();
        if !agree {
            failures += 1;
        }
        println!(
            "session {}: {} node(s), {} edge(s), {} delta(s) applied, last_seq={}, \
             conforms={}, {} violation(s), engines_agree={agree}",
            s.id,
            graph.node_count(),
            graph.edge_count(),
            s.meta.deltas_applied,
            s.meta.last_seq,
            report.conforms(),
            report.len()
        );
    }
    if failures > 0 {
        Err(format!("{failures} session(s) with engine disagreement"))
    } else {
        Ok(())
    }
}

fn cmd_describe(rest: &[String]) -> Result<()> {
    let (pos, _, _) = parse_flags(rest, &[], &[])?;
    let [schema_path] = pos.as_slice() else {
        return Err("describe needs <schema.graphql>".to_owned());
    };
    let schema = load_schema(schema_path)?;
    let s = schema.schema();
    println!("object types: {}", s.object_types().count());
    println!("interface types: {}", s.interface_types().count());
    println!("union types: {}", s.union_types().count());
    println!("key constraints: {}", schema.keys().len());
    println!("constraint sites: {}", schema.constraint_sites().len());
    for t in s.object_types().collect::<Vec<_>>() {
        let attrs = schema.attributes(t);
        let rels = schema.relationships(t);
        println!(
            "  type {} — {} attribute(s), {} relationship(s)",
            s.type_name(t),
            attrs.len(),
            rels.len()
        );
        for a in attrs {
            println!(
                "      {}: {}{}",
                a.name,
                schema.display_type(&a.ty),
                if a.required { " @required" } else { "" }
            );
        }
        for r in rels {
            let mut flags = String::new();
            if r.required {
                flags.push_str(" @required");
            }
            if r.distinct {
                flags.push_str(" @distinct");
            }
            if r.no_loops {
                flags.push_str(" @noLoops");
            }
            if r.unique_for_target {
                flags.push_str(" @uniqueForTarget");
            }
            if r.required_for_target {
                flags.push_str(" @requiredForTarget");
            }
            println!(
                "      {} -> {}{}",
                r.name,
                schema.display_type(&r.ty),
                flags
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that records how many times it was flushed, to pin the
    /// NDJSON streaming contract: one flush per report line.
    struct FlushCounter {
        bytes: Vec<u8>,
        flushes: usize,
    }

    impl std::io::Write for FlushCounter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn watch_delta_ndjson_flushes_after_every_report_line() {
        let schema = PgSchema::parse("type User { login: String! @required }").unwrap();
        let graph = pgraph::GraphBuilder::new()
            .node("u", "User")
            .prop("u", "login", "alice")
            .build()
            .unwrap();
        let u = graph.node_ids().next().unwrap();

        let dir = std::env::temp_dir();
        let break_path = dir.join(format!("pgschema-flush-{}-break.json", std::process::id()));
        let repair_path = dir.join(format!("pgschema-flush-{}-repair.json", std::process::id()));
        fs::write(
            &break_path,
            pgraph::json::delta_to_json(&pgraph::GraphDelta::new().set_node_property(
                u,
                "login",
                pgraph::Value::Int(1),
            )),
        )
        .unwrap();
        fs::write(
            &repair_path,
            pgraph::json::delta_to_json(&pgraph::GraphDelta::new().set_node_property(
                u,
                "login",
                "bob".into(),
            )),
        )
        .unwrap();

        let mut out = FlushCounter {
            bytes: Vec::new(),
            flushes: 0,
        };
        let result = validate_deltas(
            &mut out,
            graph,
            &schema,
            &ValidationOptions::default(),
            &[break_path.to_str().unwrap(), repair_path.to_str().unwrap()],
            true,
        );
        let _ = fs::remove_file(&break_path);
        let _ = fs::remove_file(&repair_path);
        result.expect("final state conforms");

        let text = String::from_utf8(out.bytes).unwrap();
        let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
        assert_eq!(lines.len(), 3, "seed report + one line per delta");
        for line in &lines {
            pgraph::json::Json::parse(line).expect("every NDJSON line is standalone JSON");
        }
        // The regression: stdout block-buffering must never hold a
        // report line back, so the stream is flushed after each one.
        assert_eq!(out.flushes, lines.len(), "one flush per report line");
    }
}
