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

use crate::ast::{Cardinality, EdgeType, GraphType, KeyConstraint, NodeType, PropDef, TypeMode};
use crate::error::{ParseError, ParseErrorKind};
use crate::lexer::Lexer;
use crate::token::{Pos, Span, Token, TokenKind};

/// Parses PG-Schema source into a [`GraphType`].
pub fn parse(source: &str) -> Result<GraphType, ParseError> {
    let tokens = Lexer::new(source).tokenize()?;
    Parser { tokens, at: 0 }.document()
}

struct Parser {
    tokens: Vec<Token>,
    at: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.at.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.at < self.tokens.len() - 1 {
            self.at += 1;
        }
        t
    }

    fn pos(&self) -> Pos {
        self.peek().span.start
    }

    fn unexpected(&self, expected: impl Into<String>) -> ParseError {
        ParseError::new(
            ParseErrorKind::Unexpected {
                expected: expected.into(),
                found: self.peek().kind.describe(),
            },
            self.pos(),
        )
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, ParseError> {
        if self.peek().kind == kind {
            Ok(self.bump())
        } else {
            Err(self.unexpected(kind.describe()))
        }
    }

    /// Consumes a name token with any spelling.
    fn name(&mut self, expected: &str) -> Result<(String, Span), ParseError> {
        match &self.peek().kind {
            TokenKind::Name(_) => {
                let t = self.bump();
                let TokenKind::Name(n) = t.kind else {
                    unreachable!()
                };
                Ok((n, t.span))
            }
            _ => Err(self.unexpected(expected)),
        }
    }

    /// Consumes the exact keyword `kw` (uppercase spelling).
    fn keyword(&mut self, kw: &str) -> Result<Token, ParseError> {
        if self.at_keyword(kw) {
            Ok(self.bump())
        } else {
            Err(self.unexpected(format!("`{kw}`")))
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Name(n) if n == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.peek().kind == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn document(&mut self) -> Result<GraphType, ParseError> {
        let head = self.pos();
        self.keyword("CREATE")?;
        self.keyword("GRAPH")?;
        self.keyword("TYPE")?;
        let (name, _) = self.name("a graph type name")?;
        let mode = if self.eat_keyword("STRICT") {
            TypeMode::Strict
        } else if self.eat_keyword("LOOSE") {
            TypeMode::Loose
        } else {
            TypeMode::Strict
        };
        self.expect(TokenKind::BraceL)?;
        let mut gt = GraphType {
            name,
            mode,
            nodes: Vec::new(),
            edges: Vec::new(),
            keys: Vec::new(),
            span: Span::at(head),
        };
        while !self.eat(TokenKind::BraceR) {
            self.element(&mut gt)?;
            self.eat(TokenKind::Comma);
        }
        self.expect(TokenKind::Eof)?;
        Ok(gt)
    }

    fn element(&mut self, gt: &mut GraphType) -> Result<(), ParseError> {
        let start = self.pos();
        if self.at_keyword("FOR") {
            gt.keys.push(self.key_constraint()?);
            return Ok(());
        }
        let is_abstract = self.eat_keyword("ABSTRACT");
        if self.peek().kind != TokenKind::ParenL {
            return Err(
                self.unexpected("a node type `(`, an edge type `(:`, or a key constraint `FOR`")
            );
        }
        // Both node and edge types start with '(' — an edge endpoint is
        // `(:Name)` followed by `-[`. Disambiguate by scanning for the
        // closing paren and checking what follows.
        if !is_abstract && self.looks_like_edge() {
            gt.edges.push(self.edge_type()?);
        } else {
            gt.nodes.push(self.node_type(is_abstract, start)?);
        }
        Ok(())
    }

    /// True if the upcoming `( ... )` group is an edge endpoint, i.e. its
    /// matching close paren is immediately followed by `-`.
    fn looks_like_edge(&self) -> bool {
        let mut depth = 0usize;
        for (i, t) in self.tokens[self.at..].iter().enumerate() {
            match t.kind {
                TokenKind::ParenL => depth += 1,
                TokenKind::ParenR => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return matches!(
                            self.tokens.get(self.at + i + 1).map(|t| &t.kind),
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

    fn node_type(&mut self, is_abstract: bool, start: Pos) -> Result<NodeType, ParseError> {
        self.expect(TokenKind::ParenL)?;
        let mut open = self.eat_keyword("OPEN");
        self.eat(TokenKind::Colon);
        let (first, _) = self.name("a node label")?;
        let mut labels = vec![first];
        while self.eat(TokenKind::Amp) {
            let (l, _) = self.name("a label conjunct")?;
            labels.push(l);
        }
        open |= self.eat_keyword("OPEN");
        let props = if self.peek().kind == TokenKind::BraceL {
            self.props()?
        } else {
            Vec::new()
        };
        open |= self.eat_keyword("OPEN");
        self.expect(TokenKind::ParenR)?;
        Ok(NodeType {
            is_abstract,
            open,
            labels,
            props,
            span: Span::at(start),
        })
    }

    fn props(&mut self) -> Result<Vec<PropDef>, ParseError> {
        self.expect(TokenKind::BraceL)?;
        let mut out = Vec::new();
        while !self.eat(TokenKind::BraceR) {
            let start = self.pos();
            let optional = self.eat_keyword("OPTIONAL");
            let (name, _) = self.name("a property name")?;
            let (ty, _) = self.name("a property type")?;
            let array = self.eat_keyword("ARRAY");
            out.push(PropDef {
                optional,
                name,
                ty,
                array,
                span: Span::at(start),
            });
            self.eat(TokenKind::Comma);
        }
        Ok(out)
    }

    fn endpoint(&mut self) -> Result<String, ParseError> {
        self.expect(TokenKind::ParenL)?;
        self.expect(TokenKind::Colon)?;
        let (label, _) = self.name("an endpoint label")?;
        self.expect(TokenKind::ParenR)?;
        Ok(label)
    }

    fn edge_type(&mut self) -> Result<EdgeType, ParseError> {
        let start = self.pos();
        let source = self.endpoint()?;
        self.expect(TokenKind::Dash)?;
        self.expect(TokenKind::BracketL)?;
        self.eat(TokenKind::Colon);
        let (label, _) = self.name("an edge label")?;
        let props = if self.peek().kind == TokenKind::BraceL {
            self.props()?
        } else {
            Vec::new()
        };
        self.expect(TokenKind::BracketR)?;
        self.expect(TokenKind::Arrow)?;
        let target = self.endpoint()?;

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
            if self.at_keyword("OUTGOING") {
                self.bump();
                edge.outgoing = Some(self.cardinality()?);
            } else if self.at_keyword("INCOMING") {
                self.bump();
                edge.incoming = Some(self.cardinality()?);
            } else if self.eat_keyword("DISTINCT") {
                edge.distinct = true;
            } else if self.at_keyword("NO") {
                self.bump();
                self.keyword("LOOPS")?;
                edge.no_loops = true;
            } else {
                break;
            }
        }
        Ok(edge)
    }

    fn cardinality(&mut self) -> Result<Cardinality, ParseError> {
        let start = self.pos();
        let min = match self.peek().kind {
            TokenKind::Int(n) => {
                self.bump();
                n
            }
            _ => return Err(self.unexpected("a cardinality lower bound")),
        };
        self.expect(TokenKind::DotDot)?;
        let max = match self.peek().kind {
            TokenKind::Int(n) => {
                self.bump();
                Some(n)
            }
            TokenKind::Star => {
                self.bump();
                None
            }
            _ => return Err(self.unexpected("a cardinality upper bound or `*`")),
        };
        Ok(Cardinality {
            min,
            max,
            span: Span {
                start,
                end: self.pos(),
            },
        })
    }

    fn key_constraint(&mut self) -> Result<KeyConstraint, ParseError> {
        let start = self.pos();
        self.keyword("FOR")?;
        self.expect(TokenKind::ParenL)?;
        let (var, _) = self.name("a key variable")?;
        self.expect(TokenKind::Colon)?;
        let (label, _) = self.name("a node label")?;
        self.expect(TokenKind::ParenR)?;
        self.keyword("KEY")?;
        let mut fields = vec![self.key_ref(&var)?];
        // A comma continues this key — unless what follows is `FOR (`, the
        // head of the next constraint, in which case the comma separates
        // elements and belongs to the caller. (`FOR.x` after a comma is
        // still a reference through a variable spelled `FOR`.)
        while self.peek().kind == TokenKind::Comma && !self.next_constraint_follows() {
            self.bump();
            fields.push(self.key_ref(&var)?);
        }
        Ok(KeyConstraint {
            var,
            label,
            fields,
            span: Span::at(start),
        })
    }

    /// True if the tokens after the one under the cursor are `FOR (`.
    fn next_constraint_follows(&self) -> bool {
        let ahead = |n: usize| self.tokens.get(self.at + n).map(|t| &t.kind);
        matches!(ahead(1), Some(TokenKind::Name(n)) if n == "FOR")
            && ahead(2) == Some(&TokenKind::ParenL)
    }

    fn key_ref(&mut self, var: &str) -> Result<String, ParseError> {
        let (v, span) = self.name("the key variable")?;
        if v != var {
            return Err(ParseError::new(
                ParseErrorKind::Invalid(format!(
                    "key reference uses `{v}` but the constraint binds `{var}`"
                )),
                span.start,
            ));
        }
        self.expect(TokenKind::Dot)?;
        let (field, _) = self.name("a property name")?;
        Ok(field)
    }
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
