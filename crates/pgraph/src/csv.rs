//! CSV bulk import, in the style of graph-database loaders (Neo4j's
//! `neo4j-admin import`, TigerGraph's loading jobs — the systems §2.1 of
//! the paper surveys).
//!
//! Two files describe a graph:
//!
//! * **nodes CSV** — header `id:ID,label:LABEL,name:String,age:Int,…`;
//!   every row is one node. `id:ID` (row identifier for edge references)
//!   and `label:LABEL` are mandatory columns; every other column is a
//!   property with a type suffix.
//! * **edges CSV** — header
//!   `source:START_ID,target:END_ID,label:TYPE,weight:Float,…`.
//!
//! Supported property types: `Int`, `Float`, `String`, `Boolean`, `ID`,
//! `Enum`, and list variants `[T]` (elements separated by `;`). Empty
//! cells mean "property absent". Quoted fields follow RFC-4180 (`""`
//! escapes a quote).

use std::collections::HashMap;
use std::fmt;

use crate::{NodeId, PropertyGraph, Value};

/// A CSV import failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// The header is missing a mandatory column.
    MissingColumn(&'static str),
    /// A column header lacks the `name:Type` shape or uses an unknown type.
    BadHeader(String),
    /// A data row has more cells than the header.
    RowTooLong {
        /// 1-based line number.
        line: usize,
    },
    /// A cell could not be parsed at the column's declared type.
    BadCell {
        /// 1-based line number.
        line: usize,
        /// Column name.
        column: String,
        /// Cell contents.
        cell: String,
    },
    /// An edge row references an unknown node id.
    UnknownNode {
        /// 1-based line number.
        line: usize,
        /// The offending id.
        id: String,
    },
    /// Two node rows share an id.
    DuplicateNodeId(String),
    /// A quoted field never closed.
    UnterminatedQuote {
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::MissingColumn(c) => write!(f, "missing mandatory column `{c}`"),
            CsvError::BadHeader(h) => write!(f, "bad header column `{h}`"),
            CsvError::RowTooLong { line } => write!(f, "line {line}: more cells than headers"),
            CsvError::BadCell { line, column, cell } => {
                write!(
                    f,
                    "line {line}: cell {cell:?} does not parse for column `{column}`"
                )
            }
            CsvError::UnknownNode { line, id } => {
                write!(f, "line {line}: unknown node id {id:?}")
            }
            CsvError::DuplicateNodeId(id) => write!(f, "duplicate node id {id:?}"),
            CsvError::UnterminatedQuote { line } => {
                write!(f, "line {line}: unterminated quoted field")
            }
        }
    }
}

impl std::error::Error for CsvError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColType {
    Id,
    Label,
    StartId,
    EndId,
    EdgeType,
    Prop(PropType),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PropType {
    Int,
    Float,
    String,
    Boolean,
    IdVal,
    Enum,
    List(InnerType),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InnerType {
    Int,
    Float,
    String,
    Boolean,
    IdVal,
    Enum,
}

struct Column {
    name: String,
    ty: ColType,
}

fn parse_header(line: &str, edges: bool) -> Result<Vec<Column>, CsvError> {
    // In a nodes file, the FIRST `:ID` column is the row identifier;
    // later `:ID` columns are ordinary ID-typed properties.
    let mut id_seen = false;
    split_row(line, 1)?
        .into_iter()
        .map(|cell| {
            let (name, ty) = cell
                .rsplit_once(':')
                .ok_or_else(|| CsvError::BadHeader(cell.clone()))?;
            let ty = match ty {
                "ID" if !edges && !id_seen => {
                    id_seen = true;
                    ColType::Id
                }
                "LABEL" => ColType::Label,
                "START_ID" => ColType::StartId,
                "END_ID" => ColType::EndId,
                "TYPE" => ColType::EdgeType,
                other => ColType::Prop(
                    parse_prop_type(other).ok_or_else(|| CsvError::BadHeader(cell.clone()))?,
                ),
            };
            Ok(Column {
                name: name.to_owned(),
                ty,
            })
        })
        .collect()
}

fn parse_prop_type(t: &str) -> Option<PropType> {
    let inner = |t: &str| match t {
        "Int" => Some(InnerType::Int),
        "Float" => Some(InnerType::Float),
        "String" => Some(InnerType::String),
        "Boolean" => Some(InnerType::Boolean),
        "ID" => Some(InnerType::IdVal),
        "Enum" => Some(InnerType::Enum),
        _ => None,
    };
    if let Some(stripped) = t.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
        return inner(stripped).map(PropType::List);
    }
    Some(match t {
        "Int" => PropType::Int,
        "Float" => PropType::Float,
        "String" => PropType::String,
        "Boolean" => PropType::Boolean,
        "ID" => PropType::IdVal,
        "Enum" => PropType::Enum,
        _ => return None,
    })
}

fn parse_scalar(cell: &str, ty: InnerType) -> Option<Value> {
    Some(match ty {
        InnerType::Int => Value::Int(cell.trim().parse().ok()?),
        InnerType::Float => Value::Float(cell.trim().parse().ok()?),
        InnerType::String => Value::String(cell.to_owned()),
        InnerType::Boolean => match cell.trim() {
            "true" | "TRUE" | "1" => Value::Bool(true),
            "false" | "FALSE" | "0" => Value::Bool(false),
            _ => return None,
        },
        InnerType::IdVal => Value::Id(cell.trim().to_owned()),
        InnerType::Enum => Value::Enum(cell.trim().to_owned()),
    })
}

fn parse_cell(cell: &str, ty: PropType) -> Option<Value> {
    match ty {
        PropType::Int => parse_scalar(cell, InnerType::Int),
        PropType::Float => parse_scalar(cell, InnerType::Float),
        PropType::String => parse_scalar(cell, InnerType::String),
        PropType::Boolean => parse_scalar(cell, InnerType::Boolean),
        PropType::IdVal => parse_scalar(cell, InnerType::IdVal),
        PropType::Enum => parse_scalar(cell, InnerType::Enum),
        PropType::List(inner) => {
            if cell.is_empty() {
                return Some(Value::List(Vec::new()));
            }
            cell.split(';')
                .map(|item| parse_scalar(item, inner))
                .collect::<Option<Vec<Value>>>()
                .map(Value::List)
        }
    }
}

/// Splits one CSV row (RFC-4180 quoting).
fn split_row(line: &str, line_no: usize) -> Result<Vec<String>, CsvError> {
    let mut cells = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cur.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                other => cur.push(other),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => cells.push(std::mem::take(&mut cur)),
                other => cur.push(other),
            }
        }
    }
    if in_quotes {
        return Err(CsvError::UnterminatedQuote { line: line_no });
    }
    cells.push(cur);
    Ok(cells)
}

/// Loads a graph from nodes CSV and edges CSV texts.
pub fn from_csv(nodes_csv: &str, edges_csv: &str) -> Result<PropertyGraph, CsvError> {
    let mut g = PropertyGraph::new();
    let mut by_row_id: HashMap<String, NodeId> = HashMap::new();

    let mut node_lines = nodes_csv.lines().enumerate();
    let header = loop {
        match node_lines.next() {
            None => return Err(CsvError::MissingColumn("id:ID")),
            Some((_, l)) if l.trim().is_empty() => continue,
            Some((_, l)) => break parse_header(l, false)?,
        }
    };
    if !header.iter().any(|c| c.ty == ColType::Id) {
        return Err(CsvError::MissingColumn("id:ID"));
    }
    if !header.iter().any(|c| c.ty == ColType::Label) {
        return Err(CsvError::MissingColumn("label:LABEL"));
    }
    for (ix, line) in node_lines {
        let line_no = ix + 1;
        if line.trim().is_empty() {
            continue;
        }
        let cells = split_row(line, line_no)?;
        if cells.len() > header.len() {
            return Err(CsvError::RowTooLong { line: line_no });
        }
        let mut row_id = None;
        let mut label = None;
        let mut props: Vec<(String, Value)> = Vec::new();
        for (col, cell) in header.iter().zip(&cells) {
            match col.ty {
                ColType::Id => row_id = Some(cell.clone()),
                ColType::Label => label = Some(cell.clone()),
                ColType::Prop(pty) => {
                    if cell.is_empty() {
                        continue;
                    }
                    let v = parse_cell(cell, pty).ok_or_else(|| CsvError::BadCell {
                        line: line_no,
                        column: col.name.clone(),
                        cell: cell.clone(),
                    })?;
                    props.push((col.name.clone(), v));
                }
                _ => {
                    return Err(CsvError::BadHeader(format!(
                        "{}: edge column in nodes file",
                        col.name
                    )))
                }
            }
        }
        let row_id = row_id.filter(|r| !r.is_empty()).ok_or(CsvError::BadCell {
            line: line_no,
            column: "id".to_owned(),
            cell: String::new(),
        })?;
        let label = label.unwrap_or_default();
        if by_row_id.contains_key(&row_id) {
            return Err(CsvError::DuplicateNodeId(row_id));
        }
        let node = g.add_node(label);
        for (k, v) in props {
            g.set_node_property(node, k, v);
        }
        by_row_id.insert(row_id, node);
    }

    let mut edge_lines = edges_csv.lines().enumerate();
    let header = loop {
        match edge_lines.next() {
            None => return Ok(g), // no edges file content: nodes only
            Some((_, l)) if l.trim().is_empty() => continue,
            Some((_, l)) => break parse_header(l, true)?,
        }
    };
    for required in [ColType::StartId, ColType::EndId, ColType::EdgeType] {
        if !header.iter().any(|c| c.ty == required) {
            return Err(CsvError::MissingColumn(match required {
                ColType::StartId => "source:START_ID",
                ColType::EndId => "target:END_ID",
                _ => "label:TYPE",
            }));
        }
    }
    for (ix, line) in edge_lines {
        let line_no = ix + 1;
        if line.trim().is_empty() {
            continue;
        }
        let cells = split_row(line, line_no)?;
        if cells.len() > header.len() {
            return Err(CsvError::RowTooLong { line: line_no });
        }
        let mut src = None;
        let mut dst = None;
        let mut label = None;
        let mut props: Vec<(String, Value)> = Vec::new();
        for (col, cell) in header.iter().zip(&cells) {
            match col.ty {
                ColType::StartId => src = Some(cell.clone()),
                ColType::EndId => dst = Some(cell.clone()),
                ColType::EdgeType => label = Some(cell.clone()),
                ColType::Prop(pty) => {
                    if cell.is_empty() {
                        continue;
                    }
                    let v = parse_cell(cell, pty).ok_or_else(|| CsvError::BadCell {
                        line: line_no,
                        column: col.name.clone(),
                        cell: cell.clone(),
                    })?;
                    props.push((col.name.clone(), v));
                }
                ColType::Id | ColType::Label => {
                    return Err(CsvError::BadHeader(format!(
                        "{}: node column in edges file",
                        col.name
                    )))
                }
            }
        }
        let resolve = |id: Option<String>| -> Result<NodeId, CsvError> {
            let id = id.unwrap_or_default();
            by_row_id
                .get(&id)
                .copied()
                .ok_or(CsvError::UnknownNode { line: line_no, id })
        };
        let src = resolve(src)?;
        let dst = resolve(dst)?;
        let e = g
            .add_edge(src, dst, label.unwrap_or_default())
            .expect("resolved endpoints exist");
        for (k, v) in props {
            g.set_edge_property(e, k, v);
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    const NODES: &str = "\
id:ID,label:LABEL,login:String,age:Int,nicknames:[String]
u1,User,alice,30,al;lice
u2,User,bob,25,
p1,Post,,,
";

    const EDGES: &str = "\
source:START_ID,target:END_ID,label:TYPE,certainty:Float
u1,u2,follows,0.9
u1,p1,authored,
";

    #[test]
    fn loads_nodes_and_edges() {
        let g = from_csv(NODES, EDGES).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        let alice = g
            .nodes()
            .find(|n| n.property("login") == Some(&Value::from("alice")))
            .unwrap();
        assert_eq!(alice.label(), "User");
        assert_eq!(alice.property("age"), Some(&Value::Int(30)));
        assert_eq!(
            alice.property("nicknames"),
            Some(&Value::from(vec!["al", "lice"]))
        );
        let follows = g.edges().find(|e| e.label() == "follows").unwrap();
        assert_eq!(follows.property("certainty"), Some(&Value::Float(0.9)));
        let authored = g.edges().find(|e| e.label() == "authored").unwrap();
        assert_eq!(authored.property("certainty"), None); // empty cell
    }

    #[test]
    fn empty_cells_mean_absent_properties() {
        let g = from_csv(NODES, "").unwrap();
        let bob = g
            .nodes()
            .find(|n| n.property("login") == Some(&Value::from("bob")))
            .unwrap();
        assert_eq!(bob.property("nicknames"), None);
        let post = g.nodes().find(|n| n.label() == "Post").unwrap();
        assert_eq!(post.properties().count(), 0);
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let nodes =
            "id:ID,label:LABEL,bio:String\nu1,User,\"likes, among others, \"\"graphs\"\"\"\n";
        let g = from_csv(nodes, "").unwrap();
        let u = g.nodes().next().unwrap();
        assert_eq!(
            u.property("bio"),
            Some(&Value::from("likes, among others, \"graphs\""))
        );
    }

    #[test]
    fn errors_are_reported_with_lines() {
        assert_eq!(
            from_csv("label:LABEL\nUser\n", "").unwrap_err(),
            CsvError::MissingColumn("id:ID")
        );
        assert!(matches!(
            from_csv("id:ID,label:LABEL,age:Int\nu1,User,abc\n", ""),
            Err(CsvError::BadCell { line: 2, .. })
        ));
        assert!(matches!(
            from_csv(
                NODES,
                "source:START_ID,target:END_ID,label:TYPE\nu1,ghost,x\n"
            ),
            Err(CsvError::UnknownNode { line: 2, .. })
        ));
        assert_eq!(
            from_csv("id:ID,label:LABEL\nu1,User\nu1,User\n", "").unwrap_err(),
            CsvError::DuplicateNodeId("u1".into())
        );
        assert!(matches!(
            from_csv("id:ID,label:LABEL,x:Complex\n", ""),
            Err(CsvError::BadHeader(_))
        ));
        assert!(matches!(
            from_csv("id:ID,label:LABEL\nu1,\"User\n", ""),
            Err(CsvError::UnterminatedQuote { line: 2 })
        ));
    }

    #[test]
    fn boolean_and_enum_and_id_cells() {
        let nodes = "id:ID,label:LABEL,ok:Boolean,unit:Enum,ref:ID\nu1,T,true,METER,x-9\n";
        let g = from_csv(nodes, "").unwrap();
        let n = g.nodes().next().unwrap();
        assert_eq!(n.property("ok"), Some(&Value::Bool(true)));
        assert_eq!(n.property("unit"), Some(&Value::Enum("METER".into())));
        assert_eq!(n.property("ref"), Some(&Value::Id("x-9".into())));
    }

    #[test]
    fn csv_import_then_validate_roundtrip() {
        // End-to-end: CSV → graph → JSON → graph.
        let g = from_csv(NODES, EDGES).unwrap();
        let back = crate::json::from_json(&crate::json::to_json(&g)).unwrap();
        assert_eq!(g, back);
    }
}
