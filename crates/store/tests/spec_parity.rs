//! docs/replication.md is the *normative* protocol spec: its frame
//! layout, record kinds, bounds and file naming tables are parsed here
//! and compared against the implementation's constants
//! (`pg_store::wire`). Drift in either direction — code changed without
//! the spec, or spec edited away from the code — fails the build.

use pg_store::wire;
use pgraph::json::{self, Json};
use pgraph::{binary, EdgeId, GraphDelta, NodeId, Value};

fn spec_text() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/replication.md");
    std::fs::read_to_string(path).expect("docs/replication.md exists")
}

/// The rows of the first markdown table following the `heading` line:
/// each row is its `|`-separated cells, trimmed, header and `|---|`
/// separator rows excluded.
fn table_after<'a>(text: &'a str, heading: &str) -> Vec<Vec<&'a str>> {
    let mut lines = text.lines();
    lines
        .by_ref()
        .find(|l| l.trim() == heading)
        .unwrap_or_else(|| panic!("spec has a `{heading}` heading"));
    let mut rows = Vec::new();
    let mut in_table = false;
    for line in lines {
        let line = line.trim();
        if line.starts_with('|') {
            in_table = true;
            let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
            // Skip the |---|---| separator row.
            if cells.iter().all(|c| c.chars().all(|ch| ch == '-')) {
                continue;
            }
            rows.push(cells);
        } else if in_table {
            break;
        }
    }
    assert!(
        rows.len() > 1,
        "no table found under `{heading}` in the spec"
    );
    rows.remove(0); // header row
    rows
}

fn field_row<'a>(rows: &'a [Vec<&'a str>], field: &str) -> &'a Vec<&'a str> {
    rows.iter()
        .find(|r| r.get(2) == Some(&field))
        .unwrap_or_else(|| panic!("spec frame table has a `{field}` row"))
}

#[test]
fn frame_layout_table_matches_wire_constants() {
    let text = spec_text();
    let rows = table_after(&text, "## Frame layout");

    let check = |field: &str, offset: usize, size: usize| {
        let row = field_row(&rows, field);
        assert_eq!(
            row[0].parse::<usize>().ok(),
            Some(offset),
            "spec offset of `{field}`"
        );
        assert_eq!(
            row[1].parse::<usize>().ok(),
            Some(size),
            "spec size of `{field}`"
        );
    };
    check("payload_len", wire::FRAME_LEN_OFFSET, wire::FRAME_LEN_BYTES);
    check("crc32", wire::FRAME_CRC_OFFSET, wire::FRAME_CRC_BYTES);
    check("seq", wire::FRAME_SEQ_OFFSET, wire::FRAME_SEQ_BYTES);
    check("kind", wire::FRAME_KIND_OFFSET, wire::FRAME_KIND_BYTES);

    let body = field_row(&rows, "body");
    assert_eq!(
        body[0].parse::<usize>().ok(),
        Some(wire::FRAME_BODY_OFFSET),
        "spec offset of `body`"
    );
    // The body row's size is the expression `payload_len − N` where N
    // is seq + kind — the minimum payload.
    assert_eq!(
        body[1],
        format!("payload_len − {}", wire::MIN_PAYLOAD_BYTES),
        "spec body size expression"
    );

    // The seq row states where numbering starts.
    assert!(
        field_row(&rows, "seq")[3].contains("first seq is 1"),
        "spec states the first sequence number"
    );
}

#[test]
fn payload_bounds_match_wire_constants() {
    let text = spec_text();
    let rows = table_after(&text, "## Frame layout");
    // The bounds table is the second table in the section; re-scan from
    // the section start past the first table.
    let section = text.split("## Frame layout").nth(1).unwrap();
    let bounds: Vec<(String, u64)> = section
        .lines()
        .filter(|l| l.trim_start().starts_with('|'))
        .filter_map(|l| {
            let cells: Vec<&str> = l
                .trim()
                .trim_matches('|')
                .split('|')
                .map(str::trim)
                .collect();
            Some((cells.first()?.to_string(), cells.get(1)?.parse().ok()?))
        })
        .collect();
    let lookup = |name: &str| -> u64 {
        bounds
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("spec bounds table has `{name}`"))
    };
    assert_eq!(lookup("MIN_PAYLOAD_BYTES"), wire::MIN_PAYLOAD_BYTES as u64);
    assert_eq!(lookup("MAX_PAYLOAD_BYTES"), wire::MAX_PAYLOAD_BYTES as u64);
    // And the frame table's minimum is consistent with itself.
    assert_eq!(
        rows.len(),
        5,
        "frame table lists exactly the five frame fields"
    );
}

#[test]
fn record_kind_table_matches_wire_constants() {
    let text = spec_text();
    let rows = table_after(&text, "## Record kinds");
    let kind_of = |name: &str| -> u8 {
        rows.iter()
            .find(|r| r.get(1) == Some(&name))
            .and_then(|r| r[0].parse().ok())
            .unwrap_or_else(|| panic!("spec kinds table has `{name}`"))
    };
    assert_eq!(kind_of("Create"), wire::KIND_CREATE);
    assert_eq!(kind_of("Delta"), wire::KIND_DELTA);
    assert_eq!(kind_of("Delete"), wire::KIND_DELETE);
    assert_eq!(kind_of("SchemaChange"), wire::KIND_SCHEMA);
    assert_eq!(rows.len(), 4, "spec lists exactly four record kinds");
    assert_eq!(
        wire::KIND_MAX,
        wire::KIND_SCHEMA,
        "SchemaChange is the newest kind the spec documents"
    );
}

#[test]
fn schema_change_body_table_matches_the_record_codec() {
    let text = spec_text();
    let rows = table_after(&text, "### SchemaChange body");
    let check = |field: &str, offset: usize| {
        let row = rows
            .iter()
            .find(|r| r.get(2) == Some(&field))
            .unwrap_or_else(|| panic!("SchemaChange body table has a `{field}` row"));
        assert_eq!(
            row[0].parse::<usize>().ok(),
            Some(offset),
            "spec offset of SchemaChange `{field}`"
        );
    };
    // The codec packs [session u64][phase u8][sdl_len u32][sdl];
    // the offsets below are fixed by those widths.
    check("session", 0);
    check("phase", 8);
    check("sdl_len", 9);
    check("sdl", 13);

    // The phase byte values in the spec match MigrationPhase's wire
    // values (Begin/Commit/Abort survive an encode/decode round-trip
    // in record.rs tests; here we pin the documented numerals).
    let phase_row = rows.iter().find(|r| r.get(2) == Some(&"phase")).unwrap();
    for needle in ["1 = Begin", "2 = Commit", "3 = Abort"] {
        assert!(
            phase_row[3].contains(needle),
            "spec phase encoding names `{needle}`"
        );
    }
}

#[test]
fn language_tag_rule_matches_the_pgschema_pragma() {
    let text = spec_text();
    // The spec's language-tag paragraph must quote the exact pragma
    // prefix the PG-Schema frontend writes into lowered SDL, so the
    // replayed bytes and the documented bytes cannot drift apart.
    assert!(
        text.contains(pg_pgschema::PRAGMA_PREFIX),
        "spec quotes the schema-language pragma prefix `{}`",
        pg_pgschema::PRAGMA_PREFIX
    );
    assert!(
        text.contains("# schema-language: pgschema strict|loose"),
        "spec spells out the pragma's value space"
    );
    // And the quoted shape really is what the frontend emits and
    // re-derives: pragma_line → pragma_of round-trips for both modes.
    for mode in [pg_pgschema::TypeMode::Strict, pg_pgschema::TypeMode::Loose] {
        let line = pg_pgschema::pragma_line(mode);
        assert!(line.starts_with(pg_pgschema::PRAGMA_PREFIX));
        assert_eq!(
            pg_pgschema::pragma_of(&line),
            Some((pg_pgschema::SchemaLanguage::PgSchema, mode)),
            "pragma round-trip for {mode:?}"
        );
    }
    // An untagged (plain SDL) body carries no pragma.
    assert_eq!(pg_pgschema::pragma_of("type A { x: Int }"), None);
}

#[test]
fn unknown_kind_rule_is_documented() {
    let text = spec_text();
    // The forward-compat rule (never truncate at an unknown kind) must
    // quote the implementation's error message so operators can grep
    // their way from a log line back to this spec.
    assert!(
        text.contains("unknown record kind N (newer writer?)"),
        "spec quotes the unknown-kind error shape"
    );
    assert!(
        text.contains("### Unknown kinds (forward compatibility)"),
        "spec has the forward-compatibility subsection"
    );
}

#[test]
fn snapshot_container_table_matches_wire_constants() {
    let text = spec_text();
    let rows = table_after(&text, "## Snapshot format");

    let check = |field: &str, offset: usize, size: usize| {
        let row = field_row(&rows, field);
        assert_eq!(
            row[0].parse::<usize>().ok(),
            Some(offset),
            "spec offset of snapshot `{field}`"
        );
        assert_eq!(
            row[1].parse::<usize>().ok(),
            Some(size),
            "spec size of snapshot `{field}`"
        );
    };
    check("magic", 0, wire::SNAPSHOT_MAGIC_V2.len());
    check("base_seq", 4, 8);
    check("next_session_id", 12, 8);
    check("count", 20, 4);
    assert_eq!(
        field_row(&rows, "sessions")[0].parse::<usize>().ok(),
        Some(24),
        "session entries start right after the container header"
    );

    // The magic row names the one magic this build reads.
    let magic = String::from_utf8(wire::SNAPSHOT_MAGIC_V2.to_vec()).unwrap();
    assert_eq!(field_row(&rows, "magic")[3], format!("`{magic}`"));

    // The alignment guarantee is stated with the frame-header width
    // that makes payload- and file-relative alignment coincide.
    assert_eq!(wire::FRAME_HEADER_BYTES % wire::SNAPSHOT_GRAPH_ALIGN, 0);
    assert!(
        text.contains("8-byte *file* offset"),
        "spec states the file-offset alignment of embedded images"
    );
}

#[test]
fn embedded_graph_image_table_matches_pgcs_constants() {
    let text = spec_text();
    let rows = table_after(&text, "### Embedded graph images");
    let value_of = |field: &str| -> &str {
        rows.iter()
            .find(|r| r.first() == Some(&field))
            .map(|r| r[1])
            .unwrap_or_else(|| panic!("embedded-image table has `{field}`"))
    };
    let magic = String::from_utf8(wire::PGCS_MAGIC.to_vec()).unwrap();
    assert_eq!(value_of("magic").trim_matches('`'), magic);
    assert_eq!(
        value_of("version").parse::<u32>().ok(),
        Some(wire::PGCS_VERSION)
    );
    assert_eq!(
        value_of("header length").parse::<usize>().ok(),
        Some(wire::PGCS_HEADER_LEN)
    );
    assert_eq!(
        value_of("section count").parse::<usize>().ok(),
        Some(wire::PGCS_SECTION_COUNT)
    );
    assert_eq!(
        value_of("alignment").parse::<usize>().ok(),
        Some(wire::SNAPSHOT_GRAPH_ALIGN)
    );
}

#[test]
fn snapshot_version_rule_is_documented() {
    let text = spec_text();
    // The reader rule quotes the implementation's error message so an
    // operator can grep a refused bootstrap back to this spec.
    assert!(
        text.contains("unsupported snapshot version"),
        "spec quotes the unsupported-version error shape"
    );
    assert!(
        text.contains("### Version handling"),
        "spec has the snapshot version-handling subsection"
    );
    // The corruption rule (fall back a generation) and the version rule
    // (refuse, mutate nothing) are stated as distinct classes.
    assert!(
        text.contains("falls back\n  to the next older generation"),
        "spec states the corruption fallback rule"
    );
}

#[test]
fn file_naming_matches_wire_constants() {
    let text = spec_text();
    let rows = table_after(&text, "## Files and naming");
    let pattern_of = |file: &str| -> &str {
        rows.iter()
            .find(|r| r.first() == Some(&file))
            .map(|r| r[1].trim_matches('`'))
            .unwrap_or_else(|| panic!("spec files table has `{file}`"))
    };
    assert_eq!(
        pattern_of("WAL segment"),
        format!(
            "{}{{first_seq:0{}}}{}",
            wire::SEGMENT_PREFIX,
            wire::SEGMENT_SEQ_DIGITS,
            wire::SEGMENT_SUFFIX
        )
    );
    assert_eq!(
        pattern_of("snapshot"),
        format!(
            "{}{{generation:0{}}}{}",
            wire::SNAPSHOT_PREFIX,
            wire::SNAPSHOT_GENERATION_DIGITS,
            wire::SNAPSHOT_SUFFIX
        )
    );
    // The snapshot magic is stated in prose right below the table.
    let magic = String::from_utf8(wire::SNAPSHOT_MAGIC_V2.to_vec()).unwrap();
    assert!(
        text.contains(&format!("`{magic}`")),
        "spec names the snapshot magic {magic}"
    );
}

#[test]
fn delta_body_table_matches_the_codecs() {
    let text = spec_text();
    let rows = table_after(&text, "### Delta body");
    // One op of each kind, every field distinct, so a field read at the
    // wrong position shows.
    let (node, edge) = (NodeId::from_index(11), EdgeId::from_index(12));
    let (source, target) = (NodeId::from_index(13), NodeId::from_index(14));
    let delta = GraphDelta::new()
        .add_node("Label")
        .remove_node(node)
        .add_edge(source, target, "Label")
        .remove_edge(edge)
        .set_node_property(node, "nm", Value::Int(5))
        .remove_node_property(node, "nm")
        .set_edge_property(edge, "nm", Value::Int(5))
        .remove_edge_property(edge, "nm")
        .set_node_label(node, "Label");
    assert_eq!(rows.len(), delta.len(), "one spec row per op kind");
    let doc = Json::parse(&json::delta_to_json(&delta)).unwrap();
    let json_ops = doc.get("ops").and_then(Json::as_array).unwrap();
    let u32_at = |b: &[u8]| u32::from_le_bytes(b[..4].try_into().unwrap());
    for ((row, op), json_op) in rows.iter().zip(delta.ops()).zip(json_ops) {
        let bytes = binary::delta_to_bytes(&GraphDelta::from_ops(vec![op.clone()]));
        assert_eq!(row[0], bytes[4].to_string(), "spec tag of {op:?}");
        let Json::Object(members) = json_op else {
            panic!("{op:?} is a JSON object")
        };
        assert_eq!(members[0].0, "op");
        assert_eq!(members[0].1.as_str(), Some(row[1]), "spec name of {op:?}");
        let fields: Vec<&str> = row[2].split(", ").collect();
        let encodings: Vec<&str> = row[3].split(", ").collect();
        let keys: Vec<&str> = members[1..].iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, fields, "spec field order of {op:?} (JSON)");
        assert_eq!(encodings.len(), fields.len());
        // The binary fields come in the same order, each in its encoding:
        // read each off the bytes and compare with the JSON member.
        let mut rest = &bytes[5..];
        for (encoding, (key, member)) in encodings.iter().zip(&members[1..]) {
            match *encoding {
                "u32" => {
                    assert_eq!(Some(u32_at(rest) as i64), member.as_i64(), "{op:?} {key}");
                    rest = &rest[4..];
                }
                "str" => {
                    let end = 4 + u32_at(rest) as usize;
                    let s = std::str::from_utf8(&rest[4..end]).unwrap();
                    assert_eq!(Some(s), member.as_str(), "{op:?} {key}");
                    rest = &rest[end..];
                }
                "value" => {
                    assert_eq!(member.as_i64(), Some(5), "{op:?} {key}");
                    assert_eq!(rest, [0, 5, 0, 0, 0, 0, 0, 0, 0], "{op:?} {key}");
                    rest = &[];
                }
                other => panic!("spec encoding `{other}` of {op:?}"),
            }
        }
        assert!(rest.is_empty(), "{op:?} has bytes past its spec fields");
    }

    // The value tags, read off a `set-node-property` body: count (4),
    // tag (1), node (4), name "v" (4 + 1), then the value's tag byte.
    let values = table_after(&text, "#### Delta values");
    let kinds = [
        Value::Int(1),
        Value::Float(1.0),
        Value::from("s"),
        Value::Bool(true),
        Value::Id("i".into()),
        Value::Enum("E".into()),
        Value::List(vec![]),
        Value::Null,
    ];
    assert_eq!(values.len(), kinds.len(), "one spec row per value kind");
    for (row, value) in values.iter().zip(kinds) {
        let name = format!("{value:?}");
        let name = name.split('(').next().unwrap();
        let delta = GraphDelta::new().set_node_property(node, "v", value.clone());
        let bytes = binary::delta_to_bytes(&delta);
        assert_eq!(row[1], name, "spec value row {}", row[0]);
        assert_eq!(row[0], bytes[14].to_string(), "spec tag of {name}");
    }
}
