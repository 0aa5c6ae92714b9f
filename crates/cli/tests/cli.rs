//! End-to-end tests of the `pgschema` binary.

use std::fs;
use std::process::{Command, Output};

fn pgschema(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pgschema"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_tmp(name: &str, content: &str) -> String {
    let dir = std::env::temp_dir().join("pgschema-cli-tests");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}-{name}", std::process::id()));
    fs::write(&path, content).unwrap();
    path.to_string_lossy().into_owned()
}

const SCHEMA: &str = r#"
    type User @key(fields: ["id"]) {
        id: ID! @required
        login: String! @required
    }
"#;

const GOOD_GRAPH: &str = r#"{
    "nodes": [
        {"id": 0, "label": "User",
         "properties": {"id": {"$id": "u1"}, "login": "alice"}}
    ],
    "edges": []
}"#;

#[test]
fn validate_accepts_conforming_graph() {
    let schema = write_tmp("s1.graphql", SCHEMA);
    let graph = write_tmp("g1.json", GOOD_GRAPH);
    let out = pgschema(&["validate", &schema, &graph]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("strongly satisfies"));
}

#[test]
fn validate_rejects_violating_graph_with_rule_names() {
    let schema = write_tmp("s2.graphql", SCHEMA);
    let graph = write_tmp(
        "g2.json",
        r#"{"nodes": [{"id": 0, "label": "User", "properties": {"login": 7}}],
            "edges": []}"#,
    );
    let out = pgschema(&["validate", &schema, &graph]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("WS1"), "{stdout}"); // login: 7
    assert!(stdout.contains("DS5"), "{stdout}"); // missing id
}

#[test]
fn validate_engines_agree_via_flag() {
    let schema = write_tmp("s3.graphql", SCHEMA);
    let graph = write_tmp("g3.json", GOOD_GRAPH);
    for engine in ["naive", "indexed", "incremental"] {
        let out = pgschema(&["validate", &schema, &graph, "--engine", engine]);
        assert!(out.status.success(), "engine {engine}");
    }
    let out = pgschema(&["validate", &schema, &graph, "--engine", "quantum"]);
    assert!(!out.status.success());
}

#[test]
fn validate_json_output() {
    let schema = write_tmp("sj.graphql", SCHEMA);
    let graph = write_tmp(
        "gj.json",
        r#"{"nodes": [{"id": 0, "label": "User", "properties": {"login": 7}}],
            "edges": []}"#,
    );
    let out = pgschema(&["validate", &schema, &graph, "--json"]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"conforms\": false"), "{stdout}");
    assert!(stdout.contains("\"engine\": \"indexed\""), "{stdout}");
    assert!(stdout.contains("\"truncated\": false"), "{stdout}");
    assert!(stdout.contains("\"rule\": \"WS1\""), "{stdout}");
}

#[test]
fn validate_watch_delta_tracks_mutations() {
    let schema = write_tmp("swd.graphql", SCHEMA);
    let graph = write_tmp("gwd.json", GOOD_GRAPH);
    let break_login = write_tmp(
        "d1.json",
        r#"{"ops": [{"op": "set-node-property", "node": 0, "name": "login", "value": 7}]}"#,
    );
    let repair_login = write_tmp(
        "d2.json",
        r#"{"ops": [{"op": "set-node-property", "node": 0, "name": "login", "value": "bob"}]}"#,
    );
    // Break then repair: conforming at the end, exit 0, both steps shown.
    let out = pgschema(&[
        "validate",
        &schema,
        &graph,
        "--watch-delta",
        &break_login,
        "--watch-delta",
        &repair_login,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("+1 / -0 violation(s)"), "{stdout}");
    assert!(stdout.contains("+0 / -1 violation(s)"), "{stdout}");
    // Break only: exit 1 and an NDJSON report per step in --json mode.
    let out = pgschema(&[
        "validate",
        &schema,
        &graph,
        "--json",
        "--watch-delta",
        &break_login,
    ]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].contains("\"conforms\": true"), "{stdout}");
    assert!(lines[1].contains("\"conforms\": false"), "{stdout}");
    assert!(lines[1].contains("\"engine\": \"incremental\""), "{stdout}");
    assert!(lines[1].contains("\"rule\": \"WS1\""), "{stdout}");
    // A delta referencing a missing element is a clean error.
    let bad = write_tmp("d3.json", r#"{"ops": [{"op": "remove-node", "node": 99}]}"#);
    let out = pgschema(&["validate", &schema, &graph, "--watch-delta", &bad]);
    assert!(!out.status.success());
}

#[test]
fn consistency_reports_def_4_3_violations() {
    let bad = write_tmp(
        "s4.graphql",
        "interface I { f: Int } type T implements I { g: Int }",
    );
    let out = pgschema(&["consistency", &bad]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("lacks field"));
    let good = write_tmp("s5.graphql", SCHEMA);
    let out = pgschema(&["consistency", &good]);
    assert!(out.status.success());
}

#[test]
fn check_sat_reports_witness_and_unsat() {
    let sat = write_tmp("s6.graphql", "type A { b: B @required } type B { x: Int }");
    let out = pgschema(&["check-sat", &sat, "A"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("satisfiable"));

    let unsat = write_tmp(
        "s7.graphql",
        r#"
        type OT1 { }
        interface IT { hasOT1: [OT1] @uniqueForTarget }
        type OT2 implements IT { hasOT1: [OT1] @requiredForTarget }
        type OT3 implements IT { hasOT1: [OT1] @requiredForTarget }
        "#,
    );
    let out = pgschema(&["check-sat", &unsat, "OT1", "--max-size", "4"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("UNSATISFIABLE"));
}

#[test]
fn generate_then_validate_roundtrip() {
    let schema = write_tmp("s8.graphql", SCHEMA);
    let graph_path = write_tmp("g8.json", "");
    let out = pgschema(&[
        "generate",
        &schema,
        "--nodes",
        "12",
        "--seed",
        "3",
        "--out",
        &graph_path,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = pgschema(&["validate", &schema, &graph_path]);
    assert!(out.status.success());
}

#[test]
fn reduce_sat_emits_parseable_schema() {
    let cnf = write_tmp("f.cnf", "p cnf 2 2\n1 -2 0\n2 0\n");
    let out = pgschema(&["reduce-sat", &cnf]);
    assert!(out.status.success());
    let sdl = String::from_utf8_lossy(&out.stdout);
    assert!(sdl.contains("type OT"));
    assert!(sdl.contains("@requiredForTarget"));
    // The emitted schema must itself be consistent.
    let path = write_tmp("red.graphql", &sdl);
    let out = pgschema(&["consistency", &path]);
    assert!(out.status.success());
}

#[test]
fn describe_prints_classification() {
    let schema = write_tmp("s9.graphql", pg_datagen::schemagen::social_schema());
    let out = pgschema(&["describe", &schema]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("object types: 3"));
    assert!(stdout.contains("follows -> [User] @distinct @noLoops"));
}

#[test]
fn bad_usage_fails_cleanly() {
    assert!(!pgschema(&[]).status.success());
    assert!(!pgschema(&["frobnicate"]).status.success());
    assert!(!pgschema(&["validate", "only-one-arg"]).status.success());
    assert!(!pgschema(&["validate", "a", "b", "--bogus"])
        .status
        .success());
    assert!(pgschema(&["help"]).status.success());
}

#[test]
fn check_sat_field_mode_follows_the_paper_recipe() {
    let schema = write_tmp("s10.graphql", "type A { toB: B }\ntype B { x: Int }");
    let out = pgschema(&["check-sat", &schema, "A", "--field", "toB"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("satisfiable"));
    let out = pgschema(&["check-sat", &schema, "A", "--field", "ghost"]);
    assert!(!out.status.success());
}

#[test]
fn extend_api_emits_query_root_and_inverse_fields() {
    let schema = write_tmp("s11.graphql", pg_datagen::schemagen::social_schema());
    let out = pgschema(&["extend-api", &schema, "--mutations"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let sdl = String::from_utf8_lossy(&out.stdout);
    assert!(sdl.contains("type Query"), "{sdl}");
    assert!(sdl.contains("allUser: [User]"), "{sdl}");
    assert!(sdl.contains("rev_follows_from_User"), "{sdl}");
    assert!(sdl.contains("mutation: Mutation"), "{sdl}");
    // The emitted API schema must be valid SDL that builds consistently.
    let path = write_tmp("s11-ext.graphql", &sdl);
    let out = pgschema(&["consistency", &path]);
    assert!(out.status.success());
}

#[test]
fn normalize_is_idempotent() {
    let schema = write_tmp(
        "s12.graphql",
        "type B { x: Int }\n\n\ntype A { b: [B!]! @distinct }  # comment",
    );
    let out = pgschema(&["normalize", &schema]);
    assert!(out.status.success());
    let once = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(once.contains("b: [B!]! @distinct"), "{once}");
    assert!(!once.contains('#'));
    let again_path = write_tmp("s12n.graphql", &once);
    let out = pgschema(&["normalize", &again_path]);
    assert_eq!(String::from_utf8_lossy(&out.stdout), once);
}

#[test]
fn import_csv_and_validate() {
    let nodes = write_tmp(
        "n.csv",
        "id:ID,label:LABEL,id2:ID,login:String\nu1,User,k-1,alice\nu2,User,k-2,bob\n",
    );
    let edges = write_tmp("e.csv", "source:START_ID,target:END_ID,label:TYPE\n");
    // Schema whose property names match the CSV columns: id2 is not in
    // the schema → unjustified. Use a matching schema instead.
    let schema = write_tmp(
        "s13.graphql",
        r#"type User @key(fields: ["id2"]) {
            id2: ID! @required
            login: String! @required
        }"#,
    );
    let out = pgschema(&["import", &nodes, &edges, "--schema", &schema]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"nodes\""), "{stdout}");
    // Duplicate keys make validation fail through import as well.
    let nodes_dup = write_tmp(
        "n2.csv",
        "id:ID,label:LABEL,id2:ID,login:String\nu1,User,k-1,alice\nu2,User,k-1,bob\n",
    );
    let out = pgschema(&["import", &nodes_dup, &edges, "--schema", &schema]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("DS7"));
}

#[test]
fn diff_reports_breaking_changes_via_exit_code() {
    let old = write_tmp("old.graphql", "type A { x: Int }");
    let same = write_tmp("same.graphql", "type A { x: Int }");
    let out = pgschema(&["diff", &old, &same]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("equivalent"));
    let broken = write_tmp("new.graphql", "type A { x: Int! @required }");
    let out = pgschema(&["diff", &old, &broken]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("[BREAKING]"));
}

#[test]
fn missing_files_are_reported() {
    let out = pgschema(&["consistency", "/nonexistent/schema.graphql"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn diff_json_reports_compat_per_change() {
    let old = write_tmp("dj-old.graphql", "type A { x: Int }");
    let new = write_tmp("dj-new.graphql", "type A { x: Int! @required\n y: String }");
    let out = pgschema(&["diff", &old, &new, "--json"]);
    assert!(!out.status.success(), "the @required addition is breaking");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = pgraph::json::Json::parse(&stdout).expect("diff --json emits JSON");
    assert_eq!(
        doc.get("breaking"),
        Some(&pgraph::json::Json::Bool(true)),
        "{stdout}"
    );
    let changes = doc.get("changes").and_then(|c| c.as_array()).unwrap();
    let compats: Vec<&str> = changes
        .iter()
        .filter_map(|c| c.get("compat").and_then(|v| v.as_str()))
        .collect();
    assert!(compats.contains(&"breaking"), "{stdout}");
    assert!(compats.contains(&"compatible"), "{stdout}");

    let same = write_tmp("dj-same.graphql", "type A { x: Int }");
    let out = pgschema(&["diff", &old, &same, "--json"]);
    assert!(out.status.success());
    let doc = pgraph::json::Json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(doc.get("equivalent"), Some(&pgraph::json::Json::Bool(true)));
}

/// The PG-Schema rendering of [`SCHEMA`]: same labels, same mandatory
/// properties, same key constraint.
const SCHEMA_PGS: &str = "\
CREATE GRAPH TYPE Accounts STRICT {
    (User {id ID, login STRING}),
    FOR (u : User) KEY u.id
}
";

#[test]
fn validate_detects_pgschema_by_extension() {
    let schema = write_tmp("pl1.pgs", SCHEMA_PGS);
    let graph = write_tmp("pl1.json", GOOD_GRAPH);
    let out = pgschema(&["validate", &schema, &graph]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("strongly satisfies"));
}

#[test]
fn validate_lang_flag_overrides_extension() {
    // A `.txt` extension would be read as SDL; `--lang pgschema` wins.
    let schema = write_tmp("pl2.txt", SCHEMA_PGS);
    let graph = write_tmp("pl2.json", GOOD_GRAPH);
    assert!(!pgschema(&["validate", &schema, &graph]).status.success());
    let out = pgschema(&["validate", &schema, &graph, "--lang", "pgschema"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Unknown language values go through the shared enum error.
    let out = pgschema(&["validate", &schema, &graph, "--lang", "cypher"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("schema language"), "{stderr}");
    assert!(stderr.contains("pgschema"), "{stderr}");
}

#[test]
fn schema_parse_errors_render_a_caret_snippet_in_both_languages() {
    let graph = write_tmp("caret.json", GOOD_GRAPH);
    let sdl = write_tmp("caret.graphql", "type T {\n  id:: ID\n}\n");
    let out = pgschema(&["validate", &sdl, &graph]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--> 2:6"), "{stderr}");
    assert!(stderr.contains(" 2 |   id:: ID\n   |      ^\n"), "{stderr}");
    // Bare-CR line ends: the snippet shows the line the position names.
    let pgs = write_tmp("caret.pgs", "CREATE GRAPH TYPE G {\r  (Person { name })\r}");
    let out = pgschema(&["validate", &pgs, &graph]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(" 2 |   (Person { name })\n"), "{stderr}");
}

#[test]
fn validate_reports_agree_across_languages() {
    // The same broken graph yields the same violations whichever
    // language the schema was written in.
    let bad_graph = write_tmp(
        "pl3.json",
        r#"{"nodes": [{"id": 0, "label": "User", "properties": {"login": 7}}],
            "edges": []}"#,
    );
    let sdl = write_tmp("pl3.graphql", SCHEMA);
    let pgs = write_tmp("pl3.pgs", SCHEMA_PGS);
    let out_sdl = pgschema(&["validate", &sdl, &bad_graph, "--json"]);
    let out_pgs = pgschema(&["validate", &pgs, &bad_graph, "--json"]);
    assert!(!out_sdl.status.success());
    assert!(!out_pgs.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out_sdl.stdout),
        String::from_utf8_lossy(&out_pgs.stdout)
    );
}

#[test]
fn loose_graph_type_switches_off_the_strong_family() {
    // `nickname` is not declared: closed-world STRICT rejects it, the
    // open-world LOOSE mode accepts it.
    let graph = write_tmp(
        "pl4.json",
        r#"{"nodes": [{"id": 0, "label": "User",
             "properties": {"login": "alice", "nickname": "al"}}],
            "edges": []}"#,
    );
    let strict = write_tmp(
        "pl4s.pgs",
        "CREATE GRAPH TYPE G STRICT { (User {login STRING}) }",
    );
    let loose = write_tmp(
        "pl4l.pgs",
        "CREATE GRAPH TYPE G LOOSE { (User {login STRING}) }",
    );
    assert!(!pgschema(&["validate", &strict, &graph]).status.success());
    let out = pgschema(&["validate", &loose, &graph]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn translate_round_trips_between_languages() {
    // SDL → PG-Schema: the rendering validates identically.
    let sdl = write_tmp("tr1.graphql", SCHEMA);
    let out = pgschema(&["translate", &sdl, "--name", "Accounts"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let pgs_text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        pgs_text.contains("CREATE GRAPH TYPE Accounts STRICT"),
        "{pgs_text}"
    );
    let pgs = write_tmp("tr1.pgs", &pgs_text);
    let graph = write_tmp("tr1.json", GOOD_GRAPH);
    assert!(pgschema(&["validate", &pgs, &graph]).status.success());

    // PG-Schema → SDL: the lowering is plain SDL the core accepts.
    let out = pgschema(&["translate", &pgs]);
    assert!(out.status.success());
    let sdl_text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(sdl_text.contains("type User"), "{sdl_text}");
    let back = write_tmp("tr1b.graphql", &sdl_text);
    assert!(pgschema(&["validate", &back, &graph]).status.success());

    // PG-Schema → PG-Schema is a canonicalising fixpoint.
    let out = pgschema(&["translate", &pgs, "--to", "pgschema"]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), pgs_text);
}

#[test]
fn translate_reports_out_of_fragment_constructs() {
    let sdl = write_tmp(
        "tr2.graphql",
        "union U = A | B\ntype A { x: Int! }\ntype B { x: Int! }",
    );
    let out = pgschema(&["translate", &sdl]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("outside the PG-Schema fragment"),
        "{stderr}"
    );
}

#[test]
fn check_sat_works_on_pgschema_inputs() {
    let sat = write_tmp("cs1.pgs", SCHEMA_PGS);
    let out = pgschema(&["check-sat", &sat, "User"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("satisfiable"));

    // Example 6.1's contradictory endpoint cardinalities, in PG-Schema:
    // every OT1 has at most one incoming f overall, yet needs one from
    // an OT2 and one from an OT3.
    let unsat = write_tmp(
        "cs2.pgs",
        "CREATE GRAPH TYPE G STRICT {
            (OT1),
            ABSTRACT (IT),
            (: IT & OT2),
            (: IT & OT3),
            (:IT)-[:f]->(:OT1) INCOMING 0..1,
            (:OT2)-[:f]->(:OT1) INCOMING 1..*,
            (:OT3)-[:f]->(:OT1) INCOMING 1..*
        }",
    );
    let out = pgschema(&["check-sat", &unsat, "OT1", "--max-size", "4"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("UNSATISFIABLE"));
}

const MIGRATE_OLD: &str = r#"
    type User @key(fields: ["id"]) {
        id: ID! @required
        login: String
    }
"#;

const MIGRATE_BREAKING: &str = r#"
    type User @key(fields: ["id"]) {
        id: ID! @required
        login: String @required
    }
"#;

const MIGRATE_GRAPH: &str = r#"{
    "nodes": [
        {"id": 0, "label": "User", "properties": {"id": {"$id": "u1"}, "login": "alice"}},
        {"id": 1, "label": "User", "properties": {"id": {"$id": "u2"}}}
    ],
    "edges": []
}"#;

#[test]
fn migrate_plan_previews_violations_and_apply_guards() {
    let old = write_tmp("mg-old.graphql", MIGRATE_OLD);
    let new = write_tmp("mg-new.graphql", MIGRATE_BREAKING);
    let graph = write_tmp("mg-graph.json", MIGRATE_GRAPH);

    // plan: breaking (u2 lacks login), nonzero exit, names the rule.
    let out = pgschema(&["migrate", "plan", &old, &new, &graph]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("BREAKING"), "{stdout}");
    assert!(stdout.contains("DS5"), "{stdout}");

    // plan --json carries the verdict and the previewed violations.
    let out = pgschema(&["migrate", "plan", &old, &new, &graph, "--json"]);
    let doc = pgraph::json::Json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(
        doc.get("compatible"),
        Some(&pgraph::json::Json::Bool(false))
    );
    assert!(doc
        .get("violations_added")
        .and_then(|v| v.as_array())
        .is_some_and(|v| !v.is_empty()));

    // apply refuses a breaking migration, then yields under --force and
    // prints the new schema's (non-conforming) report.
    let out = pgschema(&["migrate", "apply", &old, &new, &graph]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--force"));
    let out = pgschema(&["migrate", "apply", &old, &new, &graph, "--force"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("DS5"));

    // A compatible migration applies without force.
    let compat = write_tmp(
        "mg-compat.graphql",
        r#"
        type User @key(fields: ["id"]) {
            id: ID! @required
            login: String
            note: String
        }
    "#,
    );
    let out = pgschema(&["migrate", "apply", &old, &compat, &graph]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("strongly satisfies"));
}
