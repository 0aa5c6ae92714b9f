//! EXPERIMENTS.md quotes the tables the `experiments` binary prints.
//!
//! Every table of `experiments E1 E4 E6 E10` must be one of the document's
//! tables, row for row. E5 is left out: its depth-12 and depth-16 rows
//! each spend the reasoner's whole step budget, which takes seconds even
//! in release.

use std::process::Command;

/// The Markdown tables of `text`: each maximal run of lines starting
/// with `|`.
fn tables(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current: Vec<&str> = Vec::new();
    for line in text.lines().chain([""]) {
        if line.starts_with('|') {
            current.push(line);
        } else if !current.is_empty() {
            out.push(current.join("\n"));
            current.clear();
        }
    }
    out
}

#[test]
fn experiments_md_quotes_the_generated_tables() {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["E1", "E4", "E6", "E10"])
        .output()
        .expect("experiments binary runs");
    assert!(output.status.success(), "{output:?}");
    let printed = String::from_utf8(output.stdout).expect("utf-8 output");
    let generated = tables(&printed);
    // E1, E4a, E4b, E6 and E10.
    assert_eq!(generated.len(), 5, "{printed}");

    let doc_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(doc_path).expect("EXPERIMENTS.md readable");
    let quoted = tables(&doc);
    for table in &generated {
        assert!(
            quoted.contains(table),
            "EXPERIMENTS.md does not quote this table as generated \
             (`cargo run --release -p pg-bench --bin experiments`):\n{table}"
        );
    }
}
