//! Recursive-descent parser for the supported PG-Schema subset.
//!
//! The grammar (satellite constructs the lowering pass rejects are still
//! *parsed* here so their errors can carry precise spans):
//!
//! ```text
//! document   := CREATE GRAPH TYPE Name (STRICT | LOOSE)? '{' elements '}'
//! elements   := (element ','?)*
//! element    := ABSTRACT? nodeType | edgeType | keyConstraint
//! nodeType   := '(' OPEN? labels props? OPEN? ')'
//! labels     := ':'? Name ('&' Name)*
//! props      := '{' (prop ','?)* '}'
//! prop       := OPTIONAL? Name Name ARRAY?
//! edgeType   := endpoint '-' '[' ':'? Name props? ']' '->' endpoint clause*
//! endpoint   := '(' ':' Name ')'
//! clause     := OUTGOING card | INCOMING card | DISTINCT | NO LOOPS
//! card       := Int '..' (Int | '*')
//! keyConstraint := FOR '(' Name ':' Name ')' KEY keyRef (',' keyRef)*
//! keyRef     := Name '.' Name
//! ```
//!
//! The comma is both the separator of elements and of a key's references;
//! a comma followed by `FOR (` ends the key (two tokens of lookahead).
//!
//! Keywords are uppercase, as in the PG-Schema paper; identifiers follow
//! the SDL name grammar so labels and property names translate 1:1.
//!
//! Each production is a function over the shared token [`Cursor`]
//! (`gql_sdl::source`). No production recurses — elements nest to a
//! fixed depth and the node/edge decision is a linear scan — so unlike
//! SDL's list types this grammar needs no [`gql_sdl::MAX_DEPTH`] guard:
//! `((((…` is one syntax error however deep it goes.

use gql_sdl::source::Cursor;
use gql_sdl::{ParseError, ParseErrorKind};

use crate::ast::{Cardinality, EdgeType, GraphType, KeyConstraint, NodeType, PropDef, TypeMode};
use crate::token::{Pos, Span, TokenKind};

/// Parses PG-Schema source into a [`GraphType`].
pub fn parse(source: &str) -> Result<GraphType, ParseError> {
    document(&mut Cursor::new(source)?)
}

fn document(p: &mut Cursor<TokenKind>) -> Result<GraphType, ParseError> {
    let head = p.pos();
    p.keyword("CREATE")?;
    p.keyword("GRAPH")?;
    p.keyword("TYPE")?;
    let (name, _) = p.name("a graph type name")?;
    let mode = if p.eat_keyword("STRICT") {
        TypeMode::Strict
    } else if p.eat_keyword("LOOSE") {
        TypeMode::Loose
    } else {
        TypeMode::Strict
    };
    p.expect(TokenKind::BraceL)?;
    let mut gt = GraphType {
        name,
        mode,
        nodes: Vec::new(),
        edges: Vec::new(),
        keys: Vec::new(),
        span: Span::at(head),
    };
    while !p.eat(TokenKind::BraceR) {
        element(p, &mut gt)?;
        p.eat(TokenKind::Comma);
    }
    p.expect(TokenKind::Eof)?;
    Ok(gt)
}

fn element(p: &mut Cursor<TokenKind>, gt: &mut GraphType) -> Result<(), ParseError> {
    let start = p.pos();
    if p.at_keyword("FOR") {
        gt.keys.push(key_constraint(p)?);
        return Ok(());
    }
    let is_abstract = p.eat_keyword("ABSTRACT");
    if p.peek().kind != TokenKind::ParenL {
        return Err(p.unexpected("a node type `(`, an edge type `(:`, or a key constraint `FOR`"));
    }
    // Both node and edge types start with '(' — an edge endpoint is
    // `(:Name)` followed by `-[`. Disambiguate by scanning for the
    // closing paren and checking what follows.
    if !is_abstract && looks_like_edge(p) {
        gt.edges.push(edge_type(p)?);
    } else {
        gt.nodes.push(node_type(p, is_abstract, start)?);
    }
    Ok(())
}

/// True if the upcoming `( ... )` group is an edge endpoint, i.e. its
/// matching close paren is immediately followed by `-`.
fn looks_like_edge(p: &Cursor<TokenKind>) -> bool {
    let mut depth = 0usize;
    let rest = p.rest();
    for (i, t) in rest.iter().enumerate() {
        match t.kind {
            TokenKind::ParenL => depth += 1,
            TokenKind::ParenR => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return matches!(
                        rest.get(i + 1).map(|t| &t.kind),
                        Some(TokenKind::Dash | TokenKind::Arrow)
                    );
                }
            }
            TokenKind::Eof => return false,
            _ => {}
        }
    }
    false
}

fn node_type(
    p: &mut Cursor<TokenKind>,
    is_abstract: bool,
    start: Pos,
) -> Result<NodeType, ParseError> {
    p.expect(TokenKind::ParenL)?;
    let mut open = p.eat_keyword("OPEN");
    p.eat(TokenKind::Colon);
    let (first, _) = p.name("a node label")?;
    let mut labels = vec![first];
    while p.eat(TokenKind::Amp) {
        let (l, _) = p.name("a label conjunct")?;
        labels.push(l);
    }
    open |= p.eat_keyword("OPEN");
    let props = if p.peek().kind == TokenKind::BraceL {
        props(p)?
    } else {
        Vec::new()
    };
    open |= p.eat_keyword("OPEN");
    p.expect(TokenKind::ParenR)?;
    Ok(NodeType {
        is_abstract,
        open,
        labels,
        props,
        span: Span::at(start),
    })
}

fn props(p: &mut Cursor<TokenKind>) -> Result<Vec<PropDef>, ParseError> {
    p.expect(TokenKind::BraceL)?;
    let mut out = Vec::new();
    while !p.eat(TokenKind::BraceR) {
        let start = p.pos();
        let optional = p.eat_keyword("OPTIONAL");
        let (name, _) = p.name("a property name")?;
        let (ty, _) = p.name("a property type")?;
        let array = p.eat_keyword("ARRAY");
        out.push(PropDef {
            optional,
            name,
            ty,
            array,
            span: Span::at(start),
        });
        p.eat(TokenKind::Comma);
    }
    Ok(out)
}

fn endpoint(p: &mut Cursor<TokenKind>) -> Result<String, ParseError> {
    p.expect(TokenKind::ParenL)?;
    p.expect(TokenKind::Colon)?;
    let (label, _) = p.name("an endpoint label")?;
    p.expect(TokenKind::ParenR)?;
    Ok(label)
}

fn edge_type(p: &mut Cursor<TokenKind>) -> Result<EdgeType, ParseError> {
    let start = p.pos();
    let source = endpoint(p)?;
    p.expect(TokenKind::Dash)?;
    p.expect(TokenKind::BracketL)?;
    p.eat(TokenKind::Colon);
    let (label, _) = p.name("an edge label")?;
    let props = if p.peek().kind == TokenKind::BraceL {
        props(p)?
    } else {
        Vec::new()
    };
    p.expect(TokenKind::BracketR)?;
    p.expect(TokenKind::Arrow)?;
    let target = endpoint(p)?;

    let mut edge = EdgeType {
        source,
        label,
        target,
        props,
        outgoing: None,
        incoming: None,
        distinct: false,
        no_loops: false,
        span: Span::at(start),
    };
    loop {
        if p.at_keyword("OUTGOING") {
            p.bump();
            edge.outgoing = Some(cardinality(p)?);
        } else if p.at_keyword("INCOMING") {
            p.bump();
            edge.incoming = Some(cardinality(p)?);
        } else if p.eat_keyword("DISTINCT") {
            edge.distinct = true;
        } else if p.at_keyword("NO") {
            p.bump();
            p.keyword("LOOPS")?;
            edge.no_loops = true;
        } else {
            break;
        }
    }
    Ok(edge)
}

fn cardinality(p: &mut Cursor<TokenKind>) -> Result<Cardinality, ParseError> {
    let start = p.pos();
    let min = match p.peek().kind {
        TokenKind::Int(n) => {
            p.bump();
            n
        }
        _ => return Err(p.unexpected("a cardinality lower bound")),
    };
    p.expect(TokenKind::DotDot)?;
    let max = match p.peek().kind {
        TokenKind::Int(n) => {
            p.bump();
            Some(n)
        }
        TokenKind::Star => {
            p.bump();
            None
        }
        _ => return Err(p.unexpected("a cardinality upper bound or `*`")),
    };
    Ok(Cardinality {
        min,
        max,
        span: Span {
            start,
            end: p.pos(),
        },
    })
}

fn key_constraint(p: &mut Cursor<TokenKind>) -> Result<KeyConstraint, ParseError> {
    let start = p.pos();
    p.keyword("FOR")?;
    p.expect(TokenKind::ParenL)?;
    let (var, _) = p.name("a key variable")?;
    p.expect(TokenKind::Colon)?;
    let (label, _) = p.name("a node label")?;
    p.expect(TokenKind::ParenR)?;
    p.keyword("KEY")?;
    let mut fields = vec![key_ref(p, &var)?];
    // A comma continues this key — unless what follows is `FOR (`, the
    // head of the next constraint, in which case the comma separates
    // elements and belongs to the caller. (`FOR.x` after a comma is
    // still a reference through a variable spelled `FOR`.)
    while p.peek().kind == TokenKind::Comma && !next_constraint_follows(p) {
        p.bump();
        fields.push(key_ref(p, &var)?);
    }
    Ok(KeyConstraint {
        var,
        label,
        fields,
        span: Span::at(start),
    })
}

/// True if the tokens after the one under the cursor are `FOR (`.
fn next_constraint_follows(p: &Cursor<TokenKind>) -> bool {
    let ahead = |n: usize| p.rest().get(n).map(|t| &t.kind);
    matches!(ahead(1), Some(TokenKind::Name(n)) if n == "FOR")
        && ahead(2) == Some(&TokenKind::ParenL)
}

fn key_ref(p: &mut Cursor<TokenKind>, var: &str) -> Result<String, ParseError> {
    let (v, span) = p.name("the key variable")?;
    if v != var {
        return Err(ParseError::new(
            ParseErrorKind::Invalid(format!(
                "key reference uses `{v}` but the constraint binds `{var}`"
            )),
            span.start,
        ));
    }
    p.expect(TokenKind::Dot)?;
    let (field, _) = p.name("a property name")?;
    Ok(field)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_graph_type() {
        let gt = parse(
            "CREATE GRAPH TYPE Social STRICT {\n\
               ABSTRACT (Message { body STRING, OPTIONAL score INT }),\n\
               (Person { name STRING, OPTIONAL nick STRING ARRAY }),\n\
               (: Message & Post),\n\
               (:Person)-[:follows { since INT, OPTIONAL note STRING }]->(:Person)\n\
                   OUTGOING 0..* DISTINCT NO LOOPS,\n\
               (:Person)-[:wrote]->(:Post) INCOMING 1..1,\n\
               FOR (p : Person) KEY p.name\n\
             }",
        )
        .unwrap();
        assert_eq!(gt.name, "Social");
        assert_eq!(gt.mode, TypeMode::Strict);
        assert_eq!(gt.nodes.len(), 3);
        assert!(gt.nodes[0].is_abstract);
        assert_eq!(gt.nodes[2].labels, vec!["Message", "Post"]);
        assert_eq!(gt.edges.len(), 2);
        let follows = &gt.edges[0];
        assert!(follows.distinct && follows.no_loops);
        assert_eq!(follows.props.len(), 2);
        assert!(follows.props[1].optional);
        let wrote = &gt.edges[1];
        assert_eq!(
            wrote.incoming,
            Some(Cardinality {
                min: 1,
                max: Some(1),
                span: wrote.incoming.unwrap().span,
            })
        );
        assert_eq!(gt.keys.len(), 1);
        assert_eq!(gt.keys[0].fields, vec!["name"]);
    }

    #[test]
    fn mode_defaults_to_strict_and_loose_parses() {
        assert_eq!(
            parse("CREATE GRAPH TYPE G {}").unwrap().mode,
            TypeMode::Strict
        );
        assert_eq!(
            parse("CREATE GRAPH TYPE G LOOSE {}").unwrap().mode,
            TypeMode::Loose
        );
    }

    #[test]
    fn commas_between_elements_are_optional() {
        let gt = parse("CREATE GRAPH TYPE G { (A) (B) (:A)-[:r]->(:B) }").unwrap();
        assert_eq!(gt.nodes.len(), 2);
        assert_eq!(gt.edges.len(), 1);
    }

    #[test]
    fn open_marker_is_parsed() {
        let gt = parse("CREATE GRAPH TYPE G { (A OPEN) }").unwrap();
        assert!(gt.nodes[0].open);
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse("CREATE GRAPH TYPE G {\n  (Person { name })\n}").unwrap_err();
        assert_eq!(err.pos.line, 2);
        assert!(matches!(err.kind, ParseErrorKind::Unexpected { .. }));
    }

    #[test]
    fn key_variable_mismatch_is_reported() {
        let err =
            parse("CREATE GRAPH TYPE G { (A { x STRING }), FOR (a : A) KEY b.x }").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Invalid(_)));
    }

    #[test]
    fn a_comma_before_for_ends_the_key_not_extends_it() {
        let gt = parse(
            "CREATE GRAPH TYPE G {\n\
               (A { x STRING, y STRING }), (B { z STRING }),\n\
               FOR (x : A) KEY x.x, x.y,\n\
               FOR (x : B) KEY x.z,\n\
               FOR (FOR : A) KEY FOR.y, FOR.x\n\
             }",
        )
        .unwrap();
        let keys: Vec<(&str, Vec<&str>)> = gt
            .keys
            .iter()
            .map(|k| {
                (
                    k.label.as_str(),
                    k.fields.iter().map(String::as_str).collect(),
                )
            })
            .collect();
        assert_eq!(
            keys,
            [
                ("A", vec!["x", "y"]),
                ("B", vec!["z"]),
                ("A", vec!["y", "x"])
            ]
        );
    }

    #[test]
    fn truncated_input_reports_eof() {
        let err = parse("CREATE GRAPH TYPE G {").unwrap_err();
        assert!(err.to_string().contains("end of input"), "{err}");
    }
}
